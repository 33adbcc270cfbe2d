//! Zone-engine scaling — the parallel cross-match over declination zones.
//!
//! Table: wall-clock time of one match step on a large synthetic archive
//! at 1 / 2 / 4 workers, with the speedup over the single-worker run and
//! an equality check against the sequential kernel (the zone engine must
//! be byte-identical at every worker count). Criterion then measures a
//! smaller configuration per worker count.
//!
//! Speedup is bounded by the host's physical parallelism: on a
//! single-core container every worker count collapses to ~1×.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skyquery_core::engine::CrossMatchEngine;
use skyquery_core::xmatch::{
    match_step, MatchKernel, PartialSet, PartialTuple, StepConfig, TupleState,
};
use skyquery_core::ResultColumn;
use skyquery_htm::SkyPoint;
use skyquery_storage::{
    BufferCache, ColumnDef, DataType, Database, PositionColumns, TableSchema, Value,
};
use skyquery_zones::ZoneEngine;

const ARCSEC: f64 = 1.0 / 3600.0;

/// Deterministic xorshift so the bench needs no RNG dependency.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An archive of `rows` objects scattered over a 20° band of sky.
fn archive(rows: usize) -> Database {
    let mut db = Database::with_cache("bench", BufferCache::new(1 << 16, 64));
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
    let mut rng = Rng(0x5eed_cafe);
    for i in 0..rows {
        let ra = 180.0 + 20.0 * rng.next_f64();
        let dec = -10.0 + 20.0 * rng.next_f64();
        db.insert(
            "objects",
            vec![Value::Id(i as u64 + 1), Value::Float(ra), Value::Float(dec)],
        )
        .unwrap();
    }
    // Half-degree zones: how this node lays out its positions.
    db.set_zone_height(0.5);
    db
}

/// Incoming 1-tuples: perturbed re-observations of every `stride`-th
/// archive object (so a good fraction of probes find a counterpart).
fn incoming(db: &Database, sigma_arcsec: f64, stride: usize) -> PartialSet {
    let sigma_rad = (sigma_arcsec * ARCSEC).to_radians();
    let table = db.table("objects").unwrap();
    let mut set = PartialSet::new(vec![ResultColumn::new("S.object_id", DataType::Id)]);
    let mut rng = Rng(0xfeed_beef);
    for (rid, row) in table.iter() {
        if rid % stride != 0 {
            continue;
        }
        let ra = row[1].as_f64().unwrap() + 0.3 * ARCSEC * (rng.next_f64() - 0.5);
        let dec = row[2].as_f64().unwrap() + 0.3 * ARCSEC * (rng.next_f64() - 0.5);
        set.tuples.push(PartialTuple {
            state: TupleState::single(SkyPoint::from_radec_deg(ra, dec).to_vec3(), sigma_rad),
            values: vec![row[0].clone()],
        });
    }
    set
}

fn cfg() -> StepConfig {
    StepConfig {
        alias: "B".into(),
        table: "objects".into(),
        sigma_rad: (0.2 * ARCSEC).to_radians(),
        threshold: 3.5,
        region: None,
        local_predicate: None,
        carried_columns: vec!["object_id".into()],
        kernel: MatchKernel::Htm,
    }
}

fn print_tables() {
    const ROWS: usize = 100_000;
    const STRIDE: usize = 4; // 25k incoming tuples
    println!(
        "\n=== zones: one match step, {ROWS}-row archive, {} tuples ===",
        ROWS / STRIDE
    );
    let mut db = archive(ROWS);
    let set = incoming(&db, 0.2, STRIDE);
    let (reference, ref_stats) = match_step(&mut db, &cfg(), &set).unwrap();
    println!(
        "{:<10} {:>12} {:>10} {:>12} {:>10}",
        "workers", "time (ms)", "speedup", "tuples out", "identical"
    );
    let mut base_ms = 0.0;
    for workers in [1usize, 2, 4] {
        let t0 = Instant::now();
        let engine = ZoneEngine::new(workers);
        let (out, stats) = engine.match_tuples(&mut db, &cfg(), &set).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if workers == 1 {
            base_ms = ms;
        }
        let identical = out == reference && stats == ref_stats;
        println!(
            "{:<10} {:>12.1} {:>9.2}x {:>12} {:>10}",
            workers,
            ms,
            base_ms / ms,
            stats.tuples_out,
            identical
        );
        assert!(identical, "zone engine diverged at {workers} workers");
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_tables();
    let mut group = c.benchmark_group("zones_match_step");
    group.sample_size(10);
    let mut db = archive(20_000);
    let set = incoming(&db, 0.2, 4);
    for workers in [1usize, 2, 4] {
        let engine = ZoneEngine::new(workers);
        let step_cfg = cfg();
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| engine.match_tuples(&mut db, &step_cfg, &set).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
