//! Property tests: the zone-partitioned engine must be **byte-identical**
//! to the sequential kernels — same tuples, same order, same `chi2_min`
//! (tuple states compare exactly, field by field), same statistics — for
//! every worker count and zone height, on match steps and drop-out (`!C`)
//! steps alike. The random fields are centered on declination 0, which is
//! a zone boundary at every height, so boundary-straddling probe balls
//! are exercised constantly.

use proptest::prelude::*;
use skyquery_core::engine::CrossMatchEngine;
use skyquery_core::xmatch::{
    dropout_step, match_step, MatchKernel, PartialSet, PartialTuple, StepConfig, TupleState,
};
use skyquery_core::ResultColumn;
use skyquery_htm::SkyPoint;
use skyquery_storage::{
    BufferCache, ColumnDef, DataType, Database, PositionColumns, TableSchema, Value,
};
use skyquery_zones::ZoneEngine;

const ARCSEC: f64 = 1.0 / 3600.0;
const WORKERS: [usize; 3] = [1, 2, 8];
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

fn cfg(sigma_arcsec: f64, threshold: f64) -> StepConfig {
    StepConfig {
        alias: "B".into(),
        table: "objects".into(),
        sigma_rad: sigma_rad(sigma_arcsec),
        threshold,
        region: None,
        local_predicate: None,
        carried_columns: vec!["object_id".into()],
        kernel: MatchKernel::Htm,
    }
}

/// Incoming 1-tuples at the given positions, plus one tuple with a
/// degenerate state (no best position) that must silently leave the chain
/// in both engines.
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
    set.tuples.push(PartialTuple {
        state: TupleState {
            a: 1.0,
            ax: 0.0,
            ay: 0.0,
            az: 0.0,
        },
        values: vec![Value::Id(9999)],
    });
    set
}

/// Asserts that the zone engine reproduces the sequential match step
/// exactly at every worker count and zone height of the node's database.
fn assert_match_parity(
    db: &mut Database,
    incoming: &PartialSet,
    sigma_arcsec: f64,
    threshold: f64,
) -> Result<(), TestCaseError> {
    let c = cfg(sigma_arcsec, threshold);
    let (seq, seq_stats) = match_step(db, &c, incoming).expect("sequential match");
    for &height in &HEIGHTS {
        db.set_zone_height(height);
        for &workers in &WORKERS {
            let (zoned, stats) = ZoneEngine::new(workers)
                .match_tuples(db, &c, incoming)
                .expect("zoned match");
            prop_assert_eq!(
                &zoned,
                &seq,
                "match diverged: workers={} height={}",
                workers,
                height
            );
            prop_assert_eq!(
                stats,
                seq_stats,
                "stats diverged: workers={} height={}",
                workers,
                height
            );
        }
    }
    Ok(())
}

/// Asserts drop-out parity the same way.
fn assert_dropout_parity(
    db: &mut Database,
    incoming: &PartialSet,
    sigma_arcsec: f64,
    threshold: f64,
) -> Result<(), TestCaseError> {
    let c = cfg(sigma_arcsec, threshold);
    let (seq, seq_stats) = dropout_step(db, &c, incoming).expect("sequential dropout");
    for &height in &HEIGHTS {
        db.set_zone_height(height);
        for &workers in &WORKERS {
            let (zoned, stats) = ZoneEngine::new(workers)
                .dropout(db, &c, incoming)
                .expect("zoned dropout");
            prop_assert_eq!(
                &zoned,
                &seq,
                "dropout diverged: workers={} height={}",
                workers,
                height
            );
            prop_assert_eq!(
                stats,
                seq_stats,
                "stats diverged: workers={} height={}",
                workers,
                height
            );
        }
    }
    Ok(())
}

/// Strategy: base positions in a field straddling dec 0 (a zone boundary
/// at every height), each with a per-catalog sub-arcsec perturbation so
/// real matches occur.
fn correlated_field(n: usize) -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    proptest::collection::vec(
        (
            (180.0f64..180.01),
            (-0.002f64..0.002),
            (-0.5f64..0.5),
            (-0.5f64..0.5),
        ),
        1..n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn zoned_match_is_byte_identical(
        field in correlated_field(25),
        strays in proptest::collection::vec(((180.0f64..180.01), (-0.002f64..0.002)), 0..8),
        sigma in 0.1f64..0.8,
        threshold in 2.0f64..5.0,
    ) {
        let incoming_pts: Vec<(f64, f64)> = field.iter().map(|&(ra, dec, _, _)| (ra, dec)).collect();
        let mut archive_pts: Vec<(f64, f64)> = field
            .iter()
            .map(|&(ra, dec, dra, ddec)| (ra + dra * ARCSEC, dec + ddec * ARCSEC))
            .collect();
        archive_pts.extend(strays);
        let mut db = archive("B", &archive_pts);
        let incoming = singles(&incoming_pts, sigma);
        assert_match_parity(&mut db, &incoming, sigma, threshold)?;
    }

    #[test]
    fn zoned_dropout_is_byte_identical(
        field in correlated_field(25),
        strays in proptest::collection::vec(((180.0f64..180.01), (-0.002f64..0.002)), 0..8),
        sigma in 0.1f64..0.8,
        threshold in 2.0f64..5.0,
    ) {
        let incoming_pts: Vec<(f64, f64)> = field.iter().map(|&(ra, dec, _, _)| (ra, dec)).collect();
        // Only every other field point gets an archive counterpart, so the
        // drop-out step both keeps and discards tuples.
        let mut archive_pts: Vec<(f64, f64)> = field
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, &(ra, dec, dra, ddec))| (ra + dra * ARCSEC, dec + ddec * ARCSEC))
            .collect();
        archive_pts.extend(strays);
        let mut db = archive("B", &archive_pts);
        let incoming = singles(&incoming_pts, sigma);
        assert_dropout_parity(&mut db, &incoming, sigma, threshold)?;
    }

    #[test]
    fn zoned_second_step_is_byte_identical(
        field in correlated_field(15),
        sigma in 0.1f64..0.8,
    ) {
        // Chain two match steps: the second sees genuine multi-observation
        // states whose search radii differ per tuple.
        let incoming_pts: Vec<(f64, f64)> = field.iter().map(|&(ra, dec, _, _)| (ra, dec)).collect();
        let archive_pts: Vec<(f64, f64)> = field
            .iter()
            .map(|&(ra, dec, dra, ddec)| (ra + dra * ARCSEC, dec + ddec * ARCSEC))
            .collect();
        let mut db_b = archive("B", &archive_pts);
        let incoming = singles(&incoming_pts, sigma);
        let (two_tuples, _) =
            match_step(&mut db_b, &cfg(sigma, 3.5), &incoming).expect("first step");
        prop_assume!(!two_tuples.is_empty());
        let archive_c: Vec<(f64, f64)> = field
            .iter()
            .map(|&(ra, dec, dra, ddec)| (ra - ddec * ARCSEC, dec + dra * ARCSEC))
            .collect();
        let mut db_c = archive("C", &archive_c);
        assert_match_parity(&mut db_c, &two_tuples, sigma, 3.5)?;
    }
}

#[test]
fn boundary_straddling_tuples_match_exactly() {
    // Tuples sitting exactly on and just beside zone boundaries of a 0.1°
    // map, with archive counterparts across the boundary line.
    let boundary_decs = [
        0.0,
        1e-7,
        -1e-7,
        0.1,
        0.1 - 1e-7,
        0.1 + 1e-7,
        -0.1,
        0.05,
        89.95,
        -89.95,
    ];
    let incoming_pts: Vec<(f64, f64)> = boundary_decs.iter().map(|&d| (200.0, d)).collect();
    // Counterparts offset ~0.8" in declination — across the line for the
    // on-boundary tuples.
    let archive_pts: Vec<(f64, f64)> = boundary_decs
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            (200.0, d + sign * 0.8 * ARCSEC)
        })
        .collect();
    let mut db = archive("B", &archive_pts);
    let incoming = singles(&incoming_pts, 0.3);
    let (seq, seq_stats) = match_step(&mut db, &cfg(0.3, 3.5), &incoming).unwrap();
    assert!(
        seq.len() >= boundary_decs.len() - 2,
        "expected mostly matches"
    );
    // The database's default zone height is the 0.1° map above.
    for workers in [2usize, 4, 8] {
        let (zoned, stats) = ZoneEngine::new(workers)
            .match_tuples(&mut db, &cfg(0.3, 3.5), &incoming)
            .unwrap();
        assert_eq!(zoned, seq, "workers={workers}");
        assert_eq!(stats, seq_stats, "workers={workers}");
    }
}

#[test]
fn workers_one_delegates_to_sequential() {
    let pts = vec![(180.0, 0.0), (180.001, 0.001)];
    let mut db = archive("B", &pts);
    let incoming = singles(&pts, 0.2);
    let (zoned, _) = ZoneEngine::new(1)
        .match_tuples(&mut db, &cfg(0.2, 3.0), &incoming)
        .unwrap();
    let (seq, _) = match_step(&mut db, &cfg(0.2, 3.0), &incoming).unwrap();
    assert_eq!(zoned, seq);
}
