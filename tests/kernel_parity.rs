//! Kernel parity: the columnar structure-of-arrays kernel must be
//! **byte-identical** to the HTM kernel — same tuples, same order, same
//! `chi2_min` (tuple states compare exactly, field by field), same
//! kernel-invariant statistics — at every zone height of the columnar
//! layout, on match and drop-out steps alike.
//!
//! The oracle is always the HTM path. Fields are generated both
//! straddling declination 0 (a zone boundary at every height) and
//! straddling right ascension 0°/360°, where the columnar kernel's RA
//! windows must wrap.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use skyquery_core::xmatch::{
    dropout_step, match_step, MatchKernel, PartialSet, PartialTuple, StepConfig, TupleState,
};
use skyquery_core::ResultColumn;
use skyquery_htm::SkyPoint;
use skyquery_storage::{
    BufferCache, ColumnDef, DataType, Database, PositionColumns, TableSchema, Value,
};

const ARCSEC: f64 = 1.0 / 3600.0;
const HEIGHTS: [f64; 4] = [0.05, 0.1, 0.5, 5.0];

fn sigma_rad(arcsec: f64) -> f64 {
    (arcsec * ARCSEC).to_radians()
}

/// An archive database with objects at the given (ra, dec) positions.
fn archive(name: &str, points: &[(f64, f64)]) -> Database {
    let mut db = Database::with_cache(name, BufferCache::new(4096, 16));
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
    for (i, &(ra, dec)) in points.iter().enumerate() {
        db.insert(
            "objects",
            vec![Value::Id(i as u64 + 1), Value::Float(ra), Value::Float(dec)],
        )
        .unwrap();
    }
    db
}

fn cfg(sigma_arcsec: f64, threshold: f64, k: MatchKernel) -> StepConfig {
    StepConfig {
        alias: "B".into(),
        table: "objects".into(),
        sigma_rad: sigma_rad(sigma_arcsec),
        threshold,
        region: None,
        local_predicate: None,
        carried_columns: vec!["object_id".into()],
        kernel: k,
        from_row: 0,
    }
}

/// Incoming 1-tuples at the given positions.
fn singles(points: &[(f64, f64)], sigma_arcsec: f64) -> PartialSet {
    let mut set = PartialSet::new(vec![ResultColumn::new("A.object_id", DataType::Id)]);
    for (i, &(ra, dec)) in points.iter().enumerate() {
        set.tuples.push(PartialTuple {
            state: TupleState::single(
                SkyPoint::from_radec_deg(ra, dec).to_vec3(),
                sigma_rad(sigma_arcsec),
            ),
            values: vec![Value::Id(i as u64 + 1)],
        });
    }
    set
}

/// Runs both step kinds under every kernel × zone-height combination (the
/// database's height) and asserts byte-identity against the HTM oracle.
/// `StepStats` equality compares only the kernel-invariant fields, so
/// kernel-granularity counters cannot cause false failures.
fn assert_kernel_parity(
    db: &mut Database,
    incoming: &PartialSet,
    sigma_arcsec: f64,
    threshold: f64,
) -> Result<(), TestCaseError> {
    let oracle = cfg(sigma_arcsec, threshold, MatchKernel::Htm);
    let (m_oracle, m_stats) = match_step(db, &oracle, incoming).expect("oracle match");
    let (d_oracle, d_stats) = dropout_step(db, &oracle, incoming).expect("oracle dropout");
    for kernel in [MatchKernel::Columnar, MatchKernel::Htm] {
        let c = cfg(sigma_arcsec, threshold, kernel);
        for &height in &HEIGHTS {
            db.set_zone_height(height);
            let (m, ms) = match_step(db, &c, incoming).expect("match");
            prop_assert_eq!(
                &m,
                &m_oracle,
                "match diverged: kernel={} height={}",
                kernel,
                height
            );
            prop_assert_eq!(
                ms,
                m_stats,
                "match stats diverged: kernel={} height={}",
                kernel,
                height
            );
            let (d, ds) = dropout_step(db, &c, incoming).expect("dropout");
            prop_assert_eq!(
                &d,
                &d_oracle,
                "dropout diverged: kernel={} height={}",
                kernel,
                height
            );
            prop_assert_eq!(
                ds,
                d_stats,
                "dropout stats diverged: kernel={} height={}",
                kernel,
                height
            );
        }
    }
    Ok(())
}

/// Strategy: a correlated field near the given RA, straddling dec 0.
/// Each entry is (ra, dec, dra_arcsec, ddec_arcsec); the perturbation
/// builds the archive counterpart so real matches occur.
fn correlated_field(ra0: f64, n: usize) -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    proptest::collection::vec(
        (
            (ra0 - 0.005..ra0 + 0.005),
            (-0.002f64..0.002),
            (-0.5f64..0.5),
            (-0.5f64..0.5),
        ),
        1..n,
    )
}

/// `(incoming positions, archive positions)`.
type FieldSplit = (Vec<(f64, f64)>, Vec<(f64, f64)>);

/// Splits a correlated field into incoming positions and perturbed
/// archive counterparts (every other point only, so drop-out steps both
/// keep and discard), normalizing RA into [0, 360).
fn split_field(field: &[(f64, f64, f64, f64)]) -> FieldSplit {
    let incoming = field
        .iter()
        .map(|&(ra, dec, _, _)| (ra.rem_euclid(360.0), dec))
        .collect();
    let archive = field
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, &(ra, dec, dra, ddec))| {
            ((ra + dra * ARCSEC).rem_euclid(360.0), dec + ddec * ARCSEC)
        })
        .collect();
    (incoming, archive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn columnar_kernel_is_byte_identical_midsky(
        field in correlated_field(180.0, 20),
        sigma in 0.1f64..0.8,
        threshold in 2.0f64..5.0,
    ) {
        let (incoming_pts, archive_pts) = split_field(&field);
        let mut db = archive("B", &archive_pts);
        let incoming = singles(&incoming_pts, sigma);
        assert_kernel_parity(&mut db, &incoming, sigma, threshold)?;
    }

    #[test]
    fn columnar_kernel_is_byte_identical_across_ra_wrap(
        field in correlated_field(360.0, 20),
        sigma in 0.1f64..0.8,
        threshold in 2.0f64..5.0,
    ) {
        // Positions scatter across the 0°/360° seam: an incoming point at
        // 359.999° must find its archive counterpart at 0.001° and vice
        // versa, forcing the columnar kernel's two-subrange RA windows.
        let (incoming_pts, archive_pts) = split_field(&field);
        let mut db = archive("B", &archive_pts);
        let incoming = singles(&incoming_pts, sigma);
        assert_kernel_parity(&mut db, &incoming, sigma, threshold)?;
    }
}

/// A deterministic polar field: probe balls over the pole force the
/// columnar kernel's full-zone RA scan fallback.
#[test]
fn columnar_kernel_is_byte_identical_near_poles() {
    let mut pts = Vec::new();
    for i in 0..24 {
        let ra = 15.0 * i as f64;
        pts.push((ra, 89.9995));
        pts.push((ra + 0.3, -89.9995));
    }
    let mut db = archive("B", &pts);
    let incoming = singles(&pts, 0.4);
    assert_kernel_parity(&mut db, &incoming, 0.4, 3.5).unwrap();
}
