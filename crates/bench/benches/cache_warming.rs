//! Experiment E10 — §5.3: performance queries "will often warm the
//! database cache on each SkyNode with index pages that satisfy the main
//! cross match query, and thus aid in reducing processing time".
//!
//! The archive engine's simulated buffer cache makes the effect
//! measurable: the table reports buffer misses and modeled I/O cost of
//! the cross-match probes with and without a preceding count-star
//! performance query, per node and end-to-end.

use criterion::{criterion_group, criterion_main, Criterion};
use skyquery_bench::{triple_federation, triple_query};
use skyquery_htm::SkyPoint;
use skyquery_storage::ScanOptions;

/// Simulated penalty: a buffer miss costs 100x a hit (disk vs memory).
const MISS_PENALTY: f64 = 100.0;

fn print_tables() {
    println!("\n=== E10a: per-node buffer behaviour, cold vs perf-query-warmed ===");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14}",
        "node", "cold misses", "warm misses", "cold cost", "warm cost"
    );
    let fed = triple_federation(2000);
    for archive in ["SDSS", "TWOMASS", "FIRST"] {
        let node = fed.node(archive).unwrap();
        let table = node.info().primary_table.clone();
        let center = SkyPoint::from_radec_deg(185.0, -0.5);
        // The cross-match probe workload: 200 candidate range searches.
        let probes = |db: &mut skyquery_storage::Database| {
            for k in 0..200 {
                let c = SkyPoint::from_radec_deg(
                    center.ra_deg + (k % 20) as f64 * 0.05 - 0.5,
                    center.dec_deg + (k / 20) as f64 * 0.05 - 0.25,
                );
                db.range_search(
                    &table,
                    c,
                    (30.0 / 3600.0_f64).to_radians(),
                    ScanOptions::default(),
                )
                .unwrap();
            }
        };
        let (cold, warm) = node.with_db(|db| {
            // Cold: no performance query first.
            db.cold_cache();
            probes(db);
            let cold = db.cache_stats();
            // Warm: the count-star performance query runs first (a scan
            // that faults in the very pages the probes need).
            db.cold_cache();
            db.count_where(&table, ScanOptions::default(), |_, _| true)
                .unwrap();
            db.reset_cache_stats();
            probes(db);
            (cold, db.cache_stats())
        });
        println!(
            "{:<10} {:>12} {:>12} {:>14.0} {:>14.0}",
            archive,
            cold.misses,
            warm.misses,
            cold.cost(MISS_PENALTY),
            warm.cost(MISS_PENALTY)
        );
    }

    println!("\n=== E10b: end-to-end — first (cold) vs repeated (warm) query ===");
    let fed = triple_federation(2000);
    let sql = triple_query(3.5);
    for node in &fed.nodes {
        node.with_db(|db| db.cold_cache());
    }
    fed.portal.submit(&sql).unwrap();
    let first: u64 = fed
        .nodes
        .iter()
        .map(|n| n.with_db(|db| db.cache_stats().misses))
        .sum();
    for node in &fed.nodes {
        node.with_db(|db| db.reset_cache_stats());
    }
    // The repeat asks no count-star: the tables' versions have not moved,
    // so the Portal answers them from its count answers.
    fed.portal.submit(&sql).unwrap();
    let second: u64 = fed
        .nodes
        .iter()
        .map(|n| n.with_db(|db| db.cache_stats().misses))
        .sum();
    println!("first run misses (incl. perf queries): {first}");
    println!("repeat run misses (cache warm):        {second}");
    println!("(the performance queries already faulted in the pages the\n cross match needs, so the repeat run misses almost nothing)\n");
}

fn bench(c: &mut Criterion) {
    print_tables();
    let fed = triple_federation(1000);
    let sql = triple_query(3.5);
    let mut group = c.benchmark_group("e10_cache_warming");
    group.sample_size(10);
    group.bench_function("query_cold_caches", |b| {
        b.iter(|| {
            for node in &fed.nodes {
                node.with_db(|db| db.cold_cache());
            }
            fed.portal.submit(&sql).unwrap()
        })
    });
    group.bench_function("query_warm_caches", |b| {
        fed.portal.submit(&sql).unwrap();
        b.iter(|| fed.portal.submit(&sql).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
