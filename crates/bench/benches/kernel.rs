//! Columnar vs HTM cross-match kernels — §5.4's probe loop (E11).
//!
//! Table: wall-clock time of one sequential match step at 10k and 100k
//! archive rows under each kernel, with ns/probe and the columnar
//! speedup over HTM — the evidence for which kernel is production. The
//! workload models the paper's headline federation: radio-survey
//! detections (σ_t = 3") matched against a dense optical archive
//! (σ = 1", 25k objects/deg²), so each probe ball spans ~11" and the
//! kernels face real candidate windows rather than empty sky. The two
//! kernels must be byte-identical — the table asserts it — so the
//! speedup is free. Criterion then times a smaller configuration per
//! kernel. (Whole-query cost on a dense field is the `dense-pair`
//! workload of `crates/bench/e2e`.)

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skyquery_core::xmatch::{
    match_step, MatchKernel, PartialSet, PartialTuple, StepConfig, TupleState,
};
use skyquery_core::ResultColumn;
use skyquery_htm::SkyPoint;
use skyquery_storage::{
    BufferCache, ColumnDef, DataType, Database, PositionColumns, TableSchema, Value,
};

const ARCSEC: f64 = 1.0 / 3600.0;

/// Astrometric error of the incoming (seed) observations, in arcsec.
/// Modeled on a radio survey cross-matched against a deep optical
/// archive — the paper's headline federation scenario — where the radio
/// positions carry a few arcsec of uncertainty, so each probe ball spans
/// `threshold · √(σ_t² + σ²) ≈ 11"` and actually has a candidate window
/// to scan.
const INCOMING_SIGMA_ARCSEC: f64 = 3.0;

/// Astrometric error of the archive being matched against, in arcsec.
const ARCHIVE_SIGMA_ARCSEC: f64 = 1.0;

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

/// An archive of `rows` objects scattered over a 2°×2° survey field
/// (25k objects/deg² at the 100k config — deep-survey density, where a
/// cross-match actually has candidate windows to scan).
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
        let ra = 180.0 + 2.0 * rng.next_f64();
        let dec = -1.0 + 2.0 * rng.next_f64();
        db.insert(
            "objects",
            vec![Value::Id(i as u64 + 1), Value::Float(ra), Value::Float(dec)],
        )
        .unwrap();
    }
    db
}

/// Incoming 1-tuples: perturbed re-observations of every `stride`-th
/// archive object (so a good fraction of probes find a counterpart),
/// carrying the radio-survey astrometric error.
fn incoming(db: &Database, stride: usize) -> PartialSet {
    let sigma_rad = (INCOMING_SIGMA_ARCSEC * ARCSEC).to_radians();
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

fn cfg(kernel: MatchKernel) -> StepConfig {
    StepConfig {
        alias: "B".into(),
        table: "objects".into(),
        sigma_rad: (ARCHIVE_SIGMA_ARCSEC * ARCSEC).to_radians(),
        threshold: 3.5,
        region: None,
        local_predicate: None,
        carried_columns: vec!["object_id".into()],
        kernel,
        from_row: 0,
    }
}

/// One measured configuration of the table.
struct Measurement {
    rows: usize,
    tuples: usize,
    htm_ms: f64,
    columnar_ms: f64,
}

impl Measurement {
    fn ns_per_probe(&self, ms: f64) -> f64 {
        ms * 1e6 / self.tuples as f64
    }
}

/// Best-of-`iters` wall clock of one sequential match step.
fn time_step(db: &mut Database, kernel: MatchKernel, set: &PartialSet, iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        match_step(db, &cfg(kernel), set).unwrap();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn measure(rows: usize, stride: usize, iters: usize) -> Measurement {
    let mut db = archive(rows);
    let set = incoming(&db, stride);
    // Prewarm both kernels outside the timed region — the HTM index sort
    // and the columnar layout build are one-time costs — and assert
    // byte-identity while at it.
    let (htm_out, htm_stats) = match_step(&mut db, &cfg(MatchKernel::Htm), &set).unwrap();
    let (col_out, col_stats) = match_step(&mut db, &cfg(MatchKernel::Columnar), &set).unwrap();
    assert!(
        htm_out == col_out && htm_stats == col_stats,
        "columnar kernel diverged at {rows} rows"
    );
    Measurement {
        rows,
        tuples: set.len(),
        htm_ms: time_step(&mut db, MatchKernel::Htm, &set, iters),
        columnar_ms: time_step(&mut db, MatchKernel::Columnar, &set, iters),
    }
}

fn print_tables() {
    println!("\n=== kernel: columnar vs HTM, one sequential match step ===");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>8} {:>13} {:>13}",
        "rows", "tuples", "htm (ms)", "col (ms)", "speedup", "htm ns/probe", "col ns/probe"
    );
    for &(rows, stride, iters) in &[(10_000usize, 2usize, 5usize), (100_000, 4, 3)] {
        let m = measure(rows, stride, iters);
        println!(
            "{:<10} {:>8} {:>10.1} {:>10.1} {:>7.1}x {:>13.0} {:>13.0}",
            m.rows,
            m.tuples,
            m.htm_ms,
            m.columnar_ms,
            m.htm_ms / m.columnar_ms,
            m.ns_per_probe(m.htm_ms),
            m.ns_per_probe(m.columnar_ms),
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_tables();
    let mut group = c.benchmark_group("kernel_match_step");
    group.sample_size(10);
    let mut db = archive(20_000);
    let set = incoming(&db, 4);
    for kernel in [MatchKernel::Htm, MatchKernel::Columnar] {
        // Prewarm so no kernel pays its one-time setup in the loop.
        match_step(&mut db, &cfg(kernel), &set).unwrap();
        group.bench_with_input(
            BenchmarkId::new("kernel", kernel.as_str()),
            &kernel,
            |b, &k| b.iter(|| match_step(&mut db, &cfg(k), &set).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
