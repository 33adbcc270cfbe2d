//! Fixed-height declination zones.
//!
//! The sky is sliced into horizontal bands of equal declination height —
//! the classic "zones" decomposition for spherical cross-matching. A zone
//! index is a pure function of declination, so partitioning never needs
//! the mesh: tuples land in the zone of their maximum-likelihood position,
//! and archive rows are bucketed by declination bands widened with a
//! per-zone overlap margin. The formula is the storage crate's
//! ([`effective_height`], [`declination_zone`]), which the columnar probe
//! layout buckets by too.

use skyquery_storage::{declination_zone, effective_height};

/// A slicing of declination `[-90°, +90°]` into fixed-height zones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneMap {
    height_deg: f64,
    count: usize,
}

impl ZoneMap {
    /// Builds a map with the given zone height in degrees, resolved by
    /// [`effective_height`]: non-finite, zero, or negative heights fall
    /// back to the federation default, valid ones are clamped.
    pub fn new(height_deg: f64) -> ZoneMap {
        let (height_deg, count) = effective_height(height_deg);
        ZoneMap { height_deg, count }
    }

    /// The (possibly clamped) zone height in degrees.
    pub fn height_deg(&self) -> f64 {
        self.height_deg
    }

    /// Number of zones covering the sphere.
    pub fn zone_count(&self) -> usize {
        self.count
    }

    /// The zone containing the given declination. Out-of-range inputs are
    /// clamped to the polar zones.
    pub fn zone_of(&self, dec_deg: f64) -> usize {
        declination_zone(dec_deg, self.height_deg, self.count)
    }

    /// The `[lo, hi)` declination bounds of a zone (the last zone closes
    /// at exactly +90°).
    pub fn bounds(&self, zone: usize) -> (f64, f64) {
        let lo = -90.0 + zone as f64 * self.height_deg;
        let hi = (lo + self.height_deg).min(90.0);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_storage::DEFAULT_ZONE_HEIGHT_DEG;

    #[test]
    fn covers_the_sphere() {
        let m = ZoneMap::new(10.0);
        assert_eq!(m.zone_count(), 18);
        assert_eq!(m.zone_of(-90.0), 0);
        assert_eq!(m.zone_of(0.0), 9);
        // +90 is clamped into the last zone.
        assert_eq!(m.zone_of(90.0), 17);
        let (lo, hi) = m.bounds(17);
        assert_eq!((lo, hi), (80.0, 90.0));
    }

    #[test]
    fn degenerate_heights_fall_back() {
        for h in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(ZoneMap::new(h).height_deg(), DEFAULT_ZONE_HEIGHT_DEG);
        }
        // Tiny heights are clamped, keeping the zone count bounded.
        assert!(ZoneMap::new(1e-12).zone_count() <= 1_800_000);
        // Oversized heights yield a single zone.
        assert_eq!(ZoneMap::new(500.0).zone_count(), 1);
    }

    #[test]
    fn columnar_layout_agrees_with_the_map() {
        // The columnar kernel scans the zone ranges that partitioning
        // computed with *this* map, so a layout built at any height must
        // bucket every declination exactly as the map does.
        use skyquery_storage::{
            BufferCache, ColumnDef, DataType, Database, PositionColumns, TableSchema, Value,
        };
        let mut db = Database::with_cache("agree", BufferCache::new(4096, 16));
        let schema = TableSchema::new(
            "objects",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 14))
        .unwrap();
        db.create_table(schema).unwrap();
        db.insert(
            "objects",
            vec![Value::Id(1), Value::Float(10.0), Value::Float(0.0)],
        )
        .unwrap();
        for height in [1e-9, 1e-4, 0.05, 0.1, 0.37, 5.0, 180.0, 500.0, 0.0, -3.0] {
            let m = ZoneMap::new(height);
            db.set_zone_height(height);
            db.ensure_columnar("objects").unwrap();
            let cols = db.columnar_positions("objects").unwrap();
            assert_eq!(cols.zone_count(), m.zone_count(), "height {height}");
            assert_eq!(
                cols.height_deg().to_bits(),
                m.height_deg().to_bits(),
                "height {height}"
            );
            for i in 0..=1800 {
                let dec = -90.0 + 0.1 * i as f64;
                assert_eq!(
                    cols.zone_of_dec(dec),
                    m.zone_of(dec),
                    "dec {dec} height {height}"
                );
            }
            assert_eq!(cols.zone_of_dec(f64::NAN), m.zone_of(f64::NAN));
        }
    }

    #[test]
    fn zone_of_matches_bounds() {
        let m = ZoneMap::new(0.37);
        for dec in [-89.99, -45.3, -0.01, 0.0, 12.345, 89.99] {
            let z = m.zone_of(dec);
            let (lo, hi) = m.bounds(z);
            assert!(lo <= dec && (dec < hi || (z == m.zone_count() - 1 && dec <= hi)));
        }
    }

    #[test]
    fn out_of_range_declinations_clamp() {
        let m = ZoneMap::new(1.0);
        assert_eq!(m.zone_of(-1000.0), 0);
        assert_eq!(m.zone_of(1000.0), m.zone_count() - 1);
    }
}
