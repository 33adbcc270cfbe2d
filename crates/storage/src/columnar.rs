//! Columnar position cache: structure-of-arrays buffers for the
//! cross-match kernel and the region read, a node's one position layout.
//!
//! The XMATCH hot loop probes one small sky ball per incoming tuple. The
//! HTM path answers each probe with a walk of the position index plus a
//! candidate `Vec` — correct, but allocation-heavy and branchy. [`ColumnarPositions`]
//! packs a table's positions once into contiguous `f64` arrays (unit-vector
//! `x/y/z` plus the raw `ra/dec`), sorted by declination zone and then by
//! normalized right ascension, so a probe becomes:
//!
//! 1. a declination window → a contiguous range of zone buckets,
//! 2. per zone, a binary-searched RA window (split in two at the 0°/360°
//!    wrap), and
//! 3. a branch-light exact distance test over the surviving slice.
//!
//! Hits land in a caller-owned [`ProbeScratch`], so the steady-state probe
//! performs no per-tuple heap allocation; the cross-match's one probe loop
//! reads them from there exactly as it reads the HTM path's hit list. A
//! region read ([`ColumnarPositions::region_rows`]) takes the same window
//! about the region's bounding cap and tests each row in it with the
//! region's own `contains`. [`effective_height`] and
//! [`declination_zone`] are the federation's one zone formula, which the
//! simulator's shard dealer calls too.
//!
//! Output contract: for any probe, the hit set is byte-identical to
//! `resolve_range_candidates` over an HTM candidate superset —
//! same `sep <= radius + 1e-15` acceptance, same separation values (the
//! stored unit vectors are exactly `SkyPoint::from_radec_deg(..).to_vec3()`),
//! same row-id ordering.

use std::f64::consts::FRAC_PI_2;

use skyquery_htm::{ConvexRegion, SkyPoint, Vec3};

use crate::error::StorageError;
use crate::exec::RangeSearchHit;
use crate::index::extract_position;
use crate::table::{RowId, Table};

/// Default declination zone height, degrees: it dwarfs arcsecond-scale
/// search radii yet keeps each zone's RA-sorted bucket short. Non-finite
/// or non-positive requests fall back to it.
pub const DEFAULT_ZONE_HEIGHT_DEG: f64 = 0.1;

/// Smallest admissible zone height; it bounds the zone count.
const MIN_HEIGHT_DEG: f64 = 1e-4;

/// Slack added to the declination window, in degrees. The acceptance test
/// admits `sep <= radius + 1e-15` rad, so a hit's declination can exceed
/// the nominal window by at most ~6e-14 degrees; 1e-9 covers that plus
/// the degree/radian conversion rounding with orders of magnitude to spare.
const DEC_SLACK_DEG: f64 = 1e-9;

/// Relative inflation of the probe radius before computing the RA window,
/// absorbing rounding in the window formula itself.
const RA_SAFETY: f64 = 1.0 + 1e-9;

/// Absolute inflation of the probe radius (radians) before computing the
/// RA window.
const RA_SLACK_RAD: f64 = 1e-12;

/// Absolute padding of the RA half-window, in degrees.
const RA_PAD_DEG: f64 = 1e-7;

/// Radians added to a region's bounding cap before its window is taken:
/// a cap's `contains` admits 1e-15 past its boundary in a dot product,
/// up to 4.5e-8 rad beyond its radius, and a polygon's 1e-15 rad.
const CONTAINS_SLACK_RAD: f64 = 1e-7;

/// Per-probe counters reported by [`ColumnarPositions::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeStats {
    /// Rows whose exact separation was computed (the candidate window).
    pub examined: usize,
    /// Whether the probe completed without growing the scratch buffer —
    /// i.e. a zero-allocation probe.
    pub reused: bool,
}

/// Reusable scratch for the columnar kernel: the hit buffer of the most
/// recent probe. Reusing one scratch across probes makes the steady-state
/// probe allocation-free once the buffer reaches its high-water mark.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    hits: Vec<RangeSearchHit>,
}

impl ProbeScratch {
    /// An empty scratch; the buffer grows to its high-water mark on first use.
    pub fn new() -> ProbeScratch {
        ProbeScratch::default()
    }

    /// The hits produced by the most recent probe, sorted by row id.
    pub fn hits(&self) -> &[RangeSearchHit] {
        &self.hits
    }
}

/// Structure-of-arrays snapshot of a table's positions, bucketed by
/// declination zone and RA-sorted within each bucket. Built once per
/// table contents at the database's zone height and cached by the
/// database; a table mutation or a zone-height change invalidates it.
#[derive(Debug, Clone)]
pub struct ColumnarPositions {
    /// Effective (clamped) zone height used for bucketing.
    height_deg: f64,
    zone_count: usize,
    /// `zone_starts[z]..zone_starts[z+1]` is zone `z`'s slice of the
    /// arrays below; length `zone_count + 1`.
    zone_starts: Vec<usize>,
    /// Unit-vector components, exactly `from_radec_deg(ra, dec).to_vec3()`.
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    /// Right ascension normalized into `[0, 360]` degrees (the sort key
    /// within a zone; `rem_euclid` can round up to exactly 360).
    ra_deg: Vec<f64>,
    /// Raw declination in degrees.
    dec_deg: Vec<f64>,
    /// Row id of each packed position.
    row: Vec<RowId>,
}

impl ColumnarPositions {
    /// Packs `table`'s positions. `ra_ci`/`dec_ci` are the position column
    /// indexes; `height_deg` is the requested zone height (resolved by
    /// [`effective_height`]). Fails on rows with non-finite positions, like
    /// the HTM index build.
    pub fn build(
        table: &Table,
        ra_ci: usize,
        dec_ci: usize,
        height_deg: f64,
    ) -> Result<ColumnarPositions, StorageError> {
        let (height, zone_count) = effective_height(height_deg);
        let order = pack_order(table, ra_ci, dec_ci, height, zone_count)?;
        let n = order.len();
        let mut cols = ColumnarPositions {
            height_deg: height,
            zone_count,
            zone_starts: vec![0; zone_count + 1],
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
            ra_deg: Vec::with_capacity(n),
            dec_deg: Vec::with_capacity(n),
            row: Vec::with_capacity(n),
        };
        let mut counts = vec![0usize; zone_count];
        for p in &order {
            counts[p.zone] += 1;
            // Rebuild the unit vector from the *raw* column values so the
            // stored components are bit-identical to what the HTM path
            // computes per probe. `ra_norm` only orders the bucket.
            let raw = table.row(p.rid).expect("row id from iteration");
            let (ra_raw, _) = extract_position(table.name(), raw, ra_ci, dec_ci)?;
            let v = SkyPoint::from_radec_deg(ra_raw, p.dec).to_vec3();
            cols.x.push(v.x);
            cols.y.push(v.y);
            cols.z.push(v.z);
            cols.ra_deg.push(p.ra_norm);
            cols.dec_deg.push(p.dec);
            cols.row.push(p.rid);
        }
        for (z, &count) in counts.iter().enumerate() {
            cols.zone_starts[z + 1] = cols.zone_starts[z] + count;
        }
        Ok(cols)
    }

    /// The effective (clamped) zone height in degrees.
    pub fn height_deg(&self) -> f64 {
        self.height_deg
    }

    /// Number of packed positions.
    pub fn len(&self) -> usize {
        self.row.len()
    }

    /// Whether the cache holds no positions.
    pub fn is_empty(&self) -> bool {
        self.row.is_empty()
    }

    /// The zone bucket a declination falls in under this layout.
    fn zone_of_dec(&self, dec_deg: f64) -> usize {
        declination_zone(dec_deg, self.height_deg, self.zone_count)
    }

    /// Probes the ball around `center` with radius `radius_rad`, filling
    /// `scratch` with hits (`sep <= radius + 1e-15`, sorted by row id —
    /// the `resolve_range_candidates` contract). Returns per-probe
    /// counters.
    pub fn probe(
        &self,
        center: SkyPoint,
        radius_rad: f64,
        scratch: &mut ProbeScratch,
    ) -> ProbeStats {
        let cap_before = scratch.hits.capacity();
        scratch.hits.clear();
        let cvec = center.to_vec3();
        let mut examined = 0usize;
        self.window(center, radius_rad, |a, b| {
            examined += self.scan(a, b, cvec, radius_rad, scratch);
        });
        scratch.hits.sort_unstable_by_key(|h| h.row);
        ProbeStats {
            examined,
            reused: scratch.hits.capacity() == cap_before,
        }
    }

    /// The rows whose stored unit vector `region` contains, ascending.
    /// Only the window of the region's bounding cap is read, each row of
    /// it passed to `read` before its test.
    pub fn region_rows(
        &self,
        region: &dyn ConvexRegion,
        mut read: impl FnMut(RowId),
    ) -> Vec<RowId> {
        let cap = region.bounding_cap();
        let center = SkyPoint::from_vec3(cap.center());
        let mut rows = Vec::new();
        self.window(center, cap.radius() + CONTAINS_SLACK_RAD, |a, b| {
            for i in a..b {
                read(self.row[i]);
                if region.contains(Vec3::new(self.x[i], self.y[i], self.z[i])) {
                    rows.push(self.row[i]);
                }
            }
        });
        rows.sort_unstable();
        rows
    }

    /// Calls `visit` with each packed slice `[a, b)` that may hold a
    /// position within `radius_rad` of `center`: in every zone of the
    /// declination window, the run or two of the RA window.
    fn window(&self, center: SkyPoint, radius_rad: f64, mut visit: impl FnMut(usize, usize)) {
        let r_deg = radius_rad.to_degrees();
        let zone_lo = self.zone_of_dec(center.dec_deg - r_deg - DEC_SLACK_DEG);
        let zone_hi = self.zone_of_dec(center.dec_deg + r_deg + DEC_SLACK_DEG);
        let windows = ra_windows(center, radius_rad);
        for zone in zone_lo..=zone_hi {
            let (zs, ze) = (self.zone_starts[zone], self.zone_starts[zone + 1]);
            if zs == ze {
                continue;
            }
            match &windows {
                RaWindows::Full => visit(zs, ze),
                RaWindows::Ranges(ranges, n) => {
                    let ras = &self.ra_deg[zs..ze];
                    for &(lo, hi) in &ranges[..*n] {
                        let a = zs + ras.partition_point(|&r| r < lo);
                        visit(a, zs + ras.partition_point(|&r| r <= hi));
                    }
                }
            }
        }
    }

    /// Exact distance test over the packed slice `[a, b)`.
    fn scan(
        &self,
        a: usize,
        b: usize,
        cvec: Vec3,
        radius_rad: f64,
        scratch: &mut ProbeScratch,
    ) -> usize {
        for i in a..b {
            let v = Vec3::new(self.x[i], self.y[i], self.z[i]);
            // Row vector first, center second — the argument order of
            // `SkyPoint::separation`, which the HTM path uses.
            let sep = v.angle_to(cvec);
            if sep <= radius_rad + 1e-15 {
                scratch.hits.push(RangeSearchHit {
                    row: self.row[i],
                    separation_rad: sep,
                });
            }
        }
        b - a
    }
}

/// The zone height a requested one resolves to — clamped into `[1e-4, 180]`
/// degrees, or the default when non-finite or non-positive — and the zone
/// count covering declination `[-90°, +90°]`.
pub fn effective_height(height_deg: f64) -> (f64, usize) {
    let height = if height_deg.is_finite() && height_deg > 0.0 {
        height_deg.clamp(MIN_HEIGHT_DEG, 180.0)
    } else {
        DEFAULT_ZONE_HEIGHT_DEG
    };
    let zone_count = (180.0 / height).ceil().max(1.0) as usize;
    (height, zone_count)
}

/// One position in canonical pack order: bucketed by declination zone,
/// then sorted by normalized right ascension, ties broken by row id.
#[derive(Debug, Clone, Copy)]
struct PackedPos {
    /// Declination zone index.
    zone: usize,
    /// Right ascension normalized into `[0, 360]` (`rem_euclid` can round
    /// up to exactly 360); the sort key, not necessarily the raw column.
    ra_norm: f64,
    /// The row id.
    rid: RowId,
    /// Raw declination in degrees.
    dec: f64,
}

/// Extracts and sorts `table`'s positions into the canonical pack order.
/// Fails on rows with non-finite positions, like the HTM index build.
fn pack_order(
    table: &Table,
    ra_ci: usize,
    dec_ci: usize,
    height: f64,
    zone_count: usize,
) -> Result<Vec<PackedPos>, StorageError> {
    let mut order: Vec<PackedPos> = Vec::with_capacity(table.len());
    for (rid, raw) in table.iter() {
        let (ra, dec) = extract_position(table.name(), raw, ra_ci, dec_ci)?;
        let zone = declination_zone(dec, height, zone_count);
        order.push(PackedPos {
            zone,
            ra_norm: ra.rem_euclid(360.0),
            rid,
            dec,
        });
    }
    order.sort_unstable_by(|a, b| {
        (a.zone, a.ra_norm, a.rid)
            .partial_cmp(&(b.zone, b.ra_norm, b.rid))
            .expect("finite sort keys")
    });
    Ok(order)
}

/// The zone of `dec_deg` among `zone_count` zones of `height_deg` from
/// dec −90°; NaN and out-of-range declinations clamp to the end zones.
pub fn declination_zone(dec_deg: f64, height_deg: f64, zone_count: usize) -> usize {
    let idx = ((dec_deg + 90.0) / height_deg).floor();
    if idx.is_nan() || idx < 0.0 {
        return 0;
    }
    (idx as usize).min(zone_count - 1)
}

/// The probe's right-ascension window(s) in normalized degrees.
enum RaWindows {
    /// Window covers all RA — scan whole zone buckets.
    Full,
    /// Up to two `[lo, hi]` subranges (two when the window wraps 0°/360°).
    Ranges([(f64, f64); 2], usize),
}

/// Computes the RA half-window for a ball of radius `radius_rad` centered
/// at `center`: the maximum |ΔRA| over the ball is
/// `atan( sin θ / sqrt( cos(δ−θ)·cos(δ+θ) ) )` (the classic zone-algorithm
/// bound; the product equals `cos²θ − sin²δ`). Degenerate geometry — the
/// ball touching a pole, or θ ≥ 90°, past which the bound no longer
/// holds — falls back to a full scan.
fn ra_windows(center: SkyPoint, radius_rad: f64) -> RaWindows {
    let theta = radius_rad * RA_SAFETY + RA_SLACK_RAD;
    if theta >= FRAC_PI_2 {
        return RaWindows::Full;
    }
    let dec = center.dec_deg.to_radians();
    let prod = (dec - theta).cos() * (dec + theta).cos();
    if prod <= 1e-12 {
        return RaWindows::Full;
    }
    let alpha = (theta.sin() / prod.sqrt()).atan().to_degrees() + RA_PAD_DEG;
    if alpha >= 180.0 {
        return RaWindows::Full;
    }
    let c = center.ra_deg.rem_euclid(360.0);
    let (lo, hi) = (c - alpha, c + alpha);
    if lo < 0.0 {
        RaWindows::Ranges([(lo + 360.0, 360.0), (0.0, hi)], 2)
    } else if hi >= 360.0 {
        RaWindows::Ranges([(lo, 360.0), (0.0, hi - 360.0)], 2)
    } else {
        RaWindows::Ranges([(lo, hi), (0.0, 0.0)], 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, PositionColumns, TableSchema};
    use crate::value::Value;

    fn pos_table(points: &[(f64, f64)]) -> Table {
        let schema = TableSchema::new(
            "primary",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 10))
        .unwrap();
        let mut t = Table::new(schema);
        for (i, &(ra, dec)) in points.iter().enumerate() {
            t.insert(vec![
                Value::Id(i as u64),
                Value::Float(ra),
                Value::Float(dec),
            ])
            .unwrap();
        }
        t
    }

    /// Linear-scan oracle with the exact acceptance test of
    /// `resolve_range_candidates`.
    fn oracle(points: &[(f64, f64)], center: SkyPoint, radius_rad: f64) -> Vec<RangeSearchHit> {
        let mut hits: Vec<RangeSearchHit> = points
            .iter()
            .enumerate()
            .filter_map(|(rid, &(ra, dec))| {
                let sep = SkyPoint::from_radec_deg(ra, dec).separation(center);
                (sep <= radius_rad + 1e-15).then_some(RangeSearchHit {
                    row: rid as RowId,
                    separation_rad: sep,
                })
            })
            .collect();
        hits.sort_by_key(|h| h.row);
        hits
    }

    fn xorshift(state: &mut u64) -> f64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn probe_matches_linear_oracle() {
        let mut seed = 0x5eed_cafe_u64;
        let mut points = Vec::new();
        for _ in 0..600 {
            let ra = xorshift(&mut seed) * 360.0;
            let dec = xorshift(&mut seed) * 160.0 - 80.0;
            points.push((ra, dec));
        }
        // A tight cluster so some probes have many hits.
        for k in 0..8 {
            points.push((120.0 + k as f64 * 2e-4, 12.0 + k as f64 * 1e-4));
        }
        let t = pos_table(&points);
        let cols = ColumnarPositions::build(&t, 1, 2, 0.5).unwrap();
        let mut scratch = ProbeScratch::new();
        let mut probes = vec![
            (SkyPoint::from_radec_deg(120.0, 12.0), 0.001),
            (SkyPoint::from_radec_deg(0.05, -10.0), 0.01),
            (SkyPoint::from_radec_deg(359.99, 30.0), 0.01),
            (SkyPoint::from_radec_deg(180.0, 79.9), 0.02),
            (SkyPoint::from_radec_deg(10.0, 0.0), 3.2), // radius > π: full-sky scan
        ];
        for _ in 0..40 {
            let c = SkyPoint::from_radec_deg(
                xorshift(&mut seed) * 360.0,
                xorshift(&mut seed) * 160.0 - 80.0,
            );
            probes.push((c, xorshift(&mut seed) * 0.05 + 1e-6));
        }
        for (center, radius) in probes {
            let stats = cols.probe(center, radius, &mut scratch);
            let want = oracle(&points, center, radius);
            assert_eq!(scratch.hits(), want.as_slice(), "center {center:?}");
            assert!(stats.examined >= want.len());
        }
    }

    #[test]
    fn probe_handles_ra_wraparound() {
        let points = vec![
            (359.95, 5.0),
            (0.05, 5.0),
            (0.0, 5.0),
            (360.0 - 1e-13, 5.0), // normalizes to 360.0 exactly
            (180.0, 5.0),
        ];
        let t = pos_table(&points);
        let cols = ColumnarPositions::build(&t, 1, 2, 1.0).unwrap();
        let mut scratch = ProbeScratch::new();
        for center_ra in [0.0, 359.999, 0.001, -0.05] {
            let center = SkyPoint::from_radec_deg(center_ra, 5.0);
            let radius = 0.2_f64.to_radians();
            cols.probe(center, radius, &mut scratch);
            assert_eq!(
                scratch.hits(),
                oracle(&points, center, radius).as_slice(),
                "center_ra {center_ra}"
            );
        }
    }

    #[test]
    fn probe_near_poles_falls_back_to_full_ra_scan() {
        let mut points = Vec::new();
        for k in 0..36 {
            points.push((k as f64 * 10.0, 89.5));
        }
        points.push((0.0, -89.9));
        let t = pos_table(&points);
        let cols = ColumnarPositions::build(&t, 1, 2, 0.1).unwrap();
        let mut scratch = ProbeScratch::new();
        let center = SkyPoint::from_radec_deg(45.0, 89.8);
        let radius = 1.0_f64.to_radians();
        cols.probe(center, radius, &mut scratch);
        assert_eq!(scratch.hits(), oracle(&points, center, radius).as_slice());
    }

    #[test]
    fn scratch_reuse_reported_after_high_water_mark() {
        let mut points = Vec::new();
        for k in 0..32 {
            points.push((100.0 + k as f64 * 1e-3, 0.0));
        }
        let t = pos_table(&points);
        let cols = ColumnarPositions::build(&t, 1, 2, 0.1).unwrap();
        let mut scratch = ProbeScratch::new();
        let center = SkyPoint::from_radec_deg(100.015, 0.0);
        let radius = 1.0_f64.to_radians();
        let first = cols.probe(center, radius, &mut scratch);
        assert!(!first.reused, "first probe must allocate");
        let second = cols.probe(center, radius, &mut scratch);
        assert!(second.reused, "steady-state probe must not allocate");
        assert_eq!(second.examined, first.examined);
    }

    #[test]
    fn build_rejects_nonfinite_positions() {
        let schema = TableSchema::new(
            "p",
            vec![
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 10))
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::Float(f64::NAN), Value::Float(0.0)])
            .unwrap();
        assert!(ColumnarPositions::build(&t, 0, 1, 0.1).is_err());
    }

    #[test]
    fn zone_bucketing_covers_every_row() {
        let points: Vec<(f64, f64)> = (0..100)
            .map(|i| ((i as f64 * 3.6) % 360.0, (i as f64 * 1.8) - 90.0))
            .collect();
        let t = pos_table(&points);
        let cols = ColumnarPositions::build(&t, 1, 2, 5.0).unwrap();
        assert_eq!(cols.len(), 100);
        assert_eq!(*cols.zone_starts.last().unwrap(), 100);
        // Within each zone RA must be sorted.
        for z in 0..cols.zone_count {
            let (a, b) = (cols.zone_starts[z], cols.zone_starts[z + 1]);
            for i in a + 1..b {
                assert!(cols.ra_deg[i - 1] <= cols.ra_deg[i]);
            }
        }
    }

    #[test]
    fn zone_formula_clamps_defaults_and_counts() {
        // (requested height, effective height, zone count).
        let pinned = [
            (1e-9, 1e-4, 1_800_000),
            (1e-4, 1e-4, 1_800_000),
            (0.0, DEFAULT_ZONE_HEIGHT_DEG, 1800),
            (-3.0, DEFAULT_ZONE_HEIGHT_DEG, 1800),
            (f64::NAN, DEFAULT_ZONE_HEIGHT_DEG, 1800),
            (f64::INFINITY, DEFAULT_ZONE_HEIGHT_DEG, 1800),
            (0.37, 0.37, 487),
            (180.0, 180.0, 1),
            (500.0, 180.0, 1),
        ];
        for (requested, height, count) in pinned {
            let (h, n) = effective_height(requested);
            assert_eq!((h.to_bits(), n), (height.to_bits(), count), "{requested}");
            // The poles clamp into the first and last zone, NaN into the
            // first, and the equator sits where the bands say.
            assert_eq!(declination_zone(-90.0, h, n), 0);
            assert_eq!(declination_zone(-1000.0, h, n), 0);
            assert_eq!(declination_zone(f64::NAN, h, n), 0);
            assert_eq!(declination_zone(90.0, h, n), n - 1);
            assert_eq!(declination_zone(1000.0, h, n), n - 1);
            assert_eq!(
                declination_zone(0.0, h, n),
                ((90.0 / h) as usize).min(n - 1)
            );
        }
        assert_eq!(declination_zone(0.0, 0.1, 1800), 900);
        assert_eq!(declination_zone(-0.05, 0.1, 1800), 899);
    }

    #[test]
    fn columnar_layout_agrees_with_the_map() {
        // A layout the database builds at any height buckets every
        // declination exactly as the shared zone formula does, so the
        // shard dealer and the probe agree on what a zone is.
        use crate::{BufferCache, Database};
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
            let (h, n) = effective_height(height);
            db.set_zone_height(height);
            db.ensure_columnar("objects").unwrap();
            let cols = db.columnar_positions("objects").unwrap();
            assert_eq!(cols.zone_count, n, "height {height}");
            assert_eq!(cols.height_deg().to_bits(), h.to_bits(), "height {height}");
            for i in 0..=1800 {
                let dec = -90.0 + 0.1 * i as f64;
                assert_eq!(
                    cols.zone_of_dec(dec),
                    declination_zone(dec, h, n),
                    "dec {dec} height {height}"
                );
            }
            assert_eq!(cols.zone_of_dec(f64::NAN), declination_zone(f64::NAN, h, n));
        }
    }
}
