//! Per-survey observation model and archive database construction.
//!
//! Each survey observes the shared body catalog with its own positional
//! error σ, detection fraction (creating genuine drop-outs), flux scale,
//! and false-detection rate, producing an archive database with the
//! paper's primary-table shape: `object_id, ra, dec, type, i_flux`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_free::sample_standard_normal;
use skyquery_core::ZoneExtent;
use skyquery_htm::SkyPoint;
use skyquery_storage::declination_zone;
use skyquery_storage::{ColumnDef, DataType, Database, PositionColumns, TableSchema, Value};

use crate::bodies::{orthonormal_frame, BodyCatalog};

/// Parameters of one synthetic survey.
#[derive(Debug, Clone)]
pub struct SurveyParams {
    /// Archive name (`SDSS`, `TWOMASS`, …).
    pub name: String,
    /// 1-σ positional error, arcseconds.
    pub sigma_arcsec: f64,
    /// Fraction of bodies this survey detects.
    pub detection_fraction: f64,
    /// Number of spurious detections (objects with no body) per 1000
    /// bodies.
    pub false_detections_per_1000: usize,
    /// Multiplier applied to intrinsic flux (different wavelengths).
    pub flux_scale: f64,
    /// Name of the primary table.
    pub table: String,
    /// HTM depth of the archive's position index.
    pub htm_depth: u8,
    /// Survey-specific RNG stream.
    pub seed: u64,
}

impl SurveyParams {
    /// An SDSS-like optical survey: dense, precise.
    pub fn sdss_like() -> SurveyParams {
        SurveyParams {
            name: "SDSS".into(),
            sigma_arcsec: 0.1,
            detection_fraction: 0.95,
            false_detections_per_1000: 5,
            flux_scale: 1.0,
            table: "Photo_Object".into(),
            htm_depth: 14,
            seed: 1001,
        }
    }

    /// A 2MASS-like infrared survey: slightly coarser positions, fewer
    /// detections.
    pub fn twomass_like() -> SurveyParams {
        SurveyParams {
            name: "TWOMASS".into(),
            sigma_arcsec: 0.3,
            detection_fraction: 0.7,
            false_detections_per_1000: 10,
            flux_scale: 0.5,
            table: "Photo_Primary".into(),
            htm_depth: 14,
            seed: 1002,
        }
    }

    /// A FIRST-like radio survey: sparse and coarse.
    pub fn first_like() -> SurveyParams {
        SurveyParams {
            name: "FIRST".into(),
            sigma_arcsec: 1.0,
            detection_fraction: 0.15,
            false_detections_per_1000: 3,
            flux_scale: 0.05,
            table: "Primary_Object".into(),
            htm_depth: 13,
            seed: 1003,
        }
    }
}

/// A generated survey: the archive database plus bookkeeping linking
/// objects back to true bodies (for ground-truth checks).
pub struct Survey {
    /// The parameters that generated this survey.
    pub params: SurveyParams,
    /// The archive database holding the observations.
    pub db: Database,
    /// `object_id → body id` for real detections (absent for spurious
    /// objects).
    pub provenance: std::collections::HashMap<u64, u64>,
}

impl Survey {
    /// Observes the body catalog.
    pub fn observe(catalog: &BodyCatalog, params: SurveyParams) -> Survey {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut db = Database::new(params.name.clone());
        db.create_table(primary_schema(&params.table, params.htm_depth))
            .expect("fresh database");
        // Archives index the object classification — the column the
        // paper's sample predicate (`O.type = GALAXY`) filters on.
        db.create_btree_index(&params.table, "type")
            .expect("type column exists");
        let sigma_deg = params.sigma_arcsec / 3600.0;
        let mut provenance = std::collections::HashMap::new();
        let mut object_id: u64 = 1;
        for body in &catalog.bodies {
            if !rng.gen_bool(params.detection_fraction.clamp(0.0, 1.0)) {
                continue;
            }
            let observed = perturb(body.position, sigma_deg, &mut rng);
            let flux =
                body.flux * params.flux_scale * (1.0 + 0.05 * sample_standard_normal(&mut rng));
            let ty = if body.is_galaxy { "GALAXY" } else { "STAR" };
            db.insert(
                &params.table,
                vec![
                    Value::Id(object_id),
                    Value::Float(observed.ra_deg),
                    Value::Float(observed.dec_deg),
                    Value::Text(ty.into()),
                    Value::Float(flux.max(0.0)),
                ],
            )
            .expect("conforming row");
            provenance.insert(object_id, body.id);
            object_id += 1;
        }
        // Spurious detections scattered over the same cap.
        let n_false = params.false_detections_per_1000 * catalog.len().div_ceil(1000);
        let cp = catalog.params;
        for _ in 0..n_false {
            let ra = cp.center_ra_deg + rng.gen_range(-cp.radius_deg..cp.radius_deg);
            let dec = cp.center_dec_deg + rng.gen_range(-cp.radius_deg..cp.radius_deg);
            db.insert(
                &params.table,
                vec![
                    Value::Id(object_id),
                    Value::Float(SkyPoint::from_radec_deg(ra, dec).ra_deg),
                    Value::Float(SkyPoint::from_radec_deg(ra, dec).dec_deg),
                    Value::Text(if rng.gen_bool(0.5) { "GALAXY" } else { "STAR" }.into()),
                    Value::Float(rng.gen_range(0.1..10.0)),
                ],
            )
            .expect("conforming row");
            object_id += 1;
        }
        Survey {
            params,
            db,
            provenance,
        }
    }

    /// Number of objects in the archive.
    pub fn object_count(&self) -> usize {
        self.db.row_count(&self.params.table).expect("table exists")
    }

    /// Deals this survey's archive into `n` declination-zone shards on
    /// the fixed 0.1° zone grid: shard `i` owns zones
    /// `[⌈i·Z/n⌉, ⌈(i+1)·Z/n⌉)` of the `Z = 1800` bands, so the extents
    /// tile the sky and differ in size by at most one zone. Every row is
    /// dealt (in insertion order) to the shard whose range contains its
    /// declination, carrying its global insertion rank in the extra
    /// [`RANK_COLUMN`] column — the key the Portal's gather sorts on to
    /// reproduce the unsharded archive's row order.
    pub fn deal_shards(&self, n: usize) -> Vec<(ZoneExtent, Database)> {
        assert!(n >= 1, "a shard group needs at least one shard");
        const ZONES: usize = 1800;
        const HEIGHT: f64 = 0.1;
        assert!(n <= ZONES, "more shards than zones");
        let bounds: Vec<usize> = (0..=n).map(|i| (i * ZONES).div_ceil(n)).collect();
        let mut shards: Vec<(ZoneExtent, Database)> = bounds
            .windows(2)
            .map(|w| {
                let lo = -90.0 + w[0] as f64 * HEIGHT;
                let hi = if w[1] == ZONES {
                    90.0
                } else {
                    -90.0 + w[1] as f64 * HEIGHT
                };
                let mut db = Database::new(self.params.name.clone());
                db.create_table(shard_schema(&self.params.table, self.params.htm_depth))
                    .expect("fresh database");
                db.create_btree_index(&self.params.table, "type")
                    .expect("type column exists");
                (ZoneExtent::new(lo, hi).expect("bounds increase"), db)
            })
            .collect();
        let table = self.db.table(&self.params.table).expect("table exists");
        for (rank, row) in table.rows().iter().enumerate() {
            let dec = row[2].as_f64().expect("dec is FLOAT");
            let zone = declination_zone(dec, HEIGHT, ZONES);
            let owner = bounds[..n].partition_point(|b| *b <= zone) - 1;
            let mut dealt = row.clone();
            dealt.push(Value::Id(rank as u64));
            shards[owner]
                .1
                .insert(&self.params.table, dealt)
                .expect("conforming row");
        }
        shards
    }
}

/// Name of the synthetic rank column every shard table carries: the
/// row's insertion rank in the unsharded archive.
pub const RANK_COLUMN: &str = "__rank";

/// The paper's primary-table schema.
pub fn primary_schema(table: &str, htm_depth: u8) -> TableSchema {
    TableSchema::new(
        table,
        vec![
            ColumnDef::new("object_id", DataType::Id),
            ColumnDef::new("ra", DataType::Float),
            ColumnDef::new("dec", DataType::Float),
            ColumnDef::new("type", DataType::Text),
            ColumnDef::new("i_flux", DataType::Float),
        ],
    )
    .with_position(PositionColumns::new("ra", "dec", htm_depth))
    .expect("ra/dec are FLOAT")
}

/// The primary-table schema of one shard: the paper's schema plus the
/// [`RANK_COLUMN`] rank column.
pub fn shard_schema(table: &str, htm_depth: u8) -> TableSchema {
    TableSchema::new(
        table,
        vec![
            ColumnDef::new("object_id", DataType::Id),
            ColumnDef::new("ra", DataType::Float),
            ColumnDef::new("dec", DataType::Float),
            ColumnDef::new("type", DataType::Text),
            ColumnDef::new("i_flux", DataType::Float),
            ColumnDef::new(RANK_COLUMN, DataType::Id),
        ],
    )
    .with_position(PositionColumns::new("ra", "dec", htm_depth))
    .expect("ra/dec are FLOAT")
}

/// Displaces a sky position by a 2-D Gaussian with the given σ (degrees).
fn perturb(p: SkyPoint, sigma_deg: f64, rng: &mut StdRng) -> SkyPoint {
    let v = p.to_vec3();
    let (u, w) = orthonormal_frame(v);
    let dx = sample_standard_normal(rng) * sigma_deg.to_radians();
    let dy = sample_standard_normal(rng) * sigma_deg.to_radians();
    let q = v.add(u.scale(dx)).add(w.scale(dy)).unit();
    SkyPoint::from_vec3(q)
}

/// A tiny Box–Muller standard-normal sampler, avoiding a rand_distr
/// dependency.
mod rand_distr_free {
    use rand::rngs::StdRng;
    use rand::Rng;

    pub fn sample_standard_normal(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        (-2.0 * u1.ln()).sqrt() * u2.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bodies::CatalogParams;

    fn catalog() -> BodyCatalog {
        BodyCatalog::generate(CatalogParams {
            count: 1000,
            ..CatalogParams::default()
        })
    }

    #[test]
    fn detection_fraction_respected() {
        let cat = catalog();
        let s = Survey::observe(&cat, SurveyParams::twomass_like());
        let detected = s.provenance.len() as f64 / cat.len() as f64;
        assert!(
            (detected - 0.7).abs() < 0.06,
            "detected fraction {detected}"
        );
    }

    #[test]
    fn positions_perturbed_at_sigma_scale() {
        let cat = catalog();
        let s = Survey::observe(&cat, SurveyParams::sdss_like());
        // Mean offset of observations from true positions ≈ σ·√(π/2).
        let mut total = 0.0;
        let mut n = 0;
        for (oid, bid) in &s.provenance {
            let row_ra =
                s.db.table(&s.params.table)
                    .unwrap()
                    .rows()
                    .iter()
                    .find(|r| r[0] == Value::Id(*oid))
                    .unwrap()[1]
                    .as_f64()
                    .unwrap();
            let row_dec =
                s.db.table(&s.params.table)
                    .unwrap()
                    .rows()
                    .iter()
                    .find(|r| r[0] == Value::Id(*oid))
                    .unwrap()[2]
                    .as_f64()
                    .unwrap();
            let body = &cat.bodies[*bid as usize];
            total += SkyPoint::from_radec_deg(row_ra, row_dec).separation_arcsec(body.position);
            n += 1;
            if n >= 200 {
                break;
            }
        }
        let mean = total / n as f64;
        let expected = 0.1 * (std::f64::consts::PI / 2.0).sqrt();
        assert!(
            (mean - expected).abs() < 0.04,
            "mean offset {mean} vs {expected}"
        );
    }

    #[test]
    fn deterministic_surveys() {
        let cat = catalog();
        let a = Survey::observe(&cat, SurveyParams::first_like());
        let b = Survey::observe(&cat, SurveyParams::first_like());
        assert_eq!(a.object_count(), b.object_count());
    }

    #[test]
    fn spurious_objects_present() {
        let cat = catalog();
        let s = Survey::observe(&cat, SurveyParams::sdss_like());
        assert!(s.object_count() > s.provenance.len());
    }

    #[test]
    fn dealing_partitions_every_row_exactly_once() {
        let cat = catalog();
        let s = Survey::observe(&cat, SurveyParams::sdss_like());
        for n in [1usize, 2, 4, 8] {
            let shards = s.deal_shards(n);
            assert_eq!(shards.len(), n);
            // Extents tile the sky contiguously.
            assert_eq!(shards[0].0.dec_lo_deg, -90.0);
            assert_eq!(shards[n - 1].0.dec_hi_deg, 90.0);
            for w in shards.windows(2) {
                assert_eq!(w[0].0.dec_hi_deg, w[1].0.dec_lo_deg);
            }
            // Every row lands on exactly one shard, inside its extent,
            // tagged with a unique global rank.
            let mut ranks = Vec::new();
            let mut total = 0;
            for (extent, db) in &shards {
                let table = db.table(&s.params.table).unwrap();
                for row in table.rows() {
                    let dec = row[2].as_f64().unwrap();
                    assert!(extent.contains_dec(dec), "{dec} outside {extent:?}");
                    ranks.push(row[5].as_i64().unwrap());
                    total += 1;
                }
            }
            assert_eq!(total, s.object_count());
            ranks.sort_unstable();
            ranks.dedup();
            assert_eq!(ranks.len(), total);
        }
    }

    #[test]
    fn sparse_survey_is_small() {
        let cat = catalog();
        let first = Survey::observe(&cat, SurveyParams::first_like());
        let sdss = Survey::observe(&cat, SurveyParams::sdss_like());
        assert!(first.object_count() * 3 < sdss.object_count());
    }
}
