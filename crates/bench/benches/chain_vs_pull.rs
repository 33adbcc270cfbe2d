//! Experiment E4 — §5.1: "SkyQuery, instead, moves the partial results of
//! spatial queries from one SkyNode to the next along a chain" rather
//! than pulling everything to the Portal.
//!
//! Table: bytes transferred by the chain vs the pull-to-portal baseline
//! as the query's selectivity varies (via the local flux predicate), plus
//! a size sweep. Criterion times both strategies.

use criterion::{criterion_group, criterion_main, Criterion};
use skyquery_bench::{measure_bytes, measure_bytes_pull, triple_federation};
use skyquery_sim::QuerySpec;

fn query_with_flux_cut(min_flux: f64) -> String {
    QuerySpec {
        archives: vec![
            ("SDSS".into(), "Photo_Object".into(), "O".into(), false),
            ("TWOMASS".into(), "Photo_Primary".into(), "T".into(), false),
            ("FIRST".into(), "Primary_Object".into(), "P".into(), false),
        ],
        threshold: 3.5,
        area: None,
        polygon: None,
        predicates: if min_flux > 0.0 {
            vec![format!("O.i_flux > {min_flux:?}")]
        } else {
            vec![]
        },
        select: vec![],
    }
    .to_sql()
}

fn print_tables() {
    println!("\n=== E4a: chain vs pull-to-portal, bytes vs selectivity (1500 bodies) ===");
    println!(
        "{:<18} {:>14} {:>14} {:>8}",
        "O flux cut", "chain bytes", "pull bytes", "ratio"
    );
    // A fresh federation per run: a Portal that has planned the query
    // holds its counts and would not send the count-stars again, and
    // every run's bytes include them.
    for min_flux in [0.0, 10.0, 100.0, 400.0] {
        let sql = query_with_flux_cut(min_flux);
        let chain = measure_bytes(&triple_federation(1500), &sql);
        let pull = measure_bytes_pull(&triple_federation(1500), &sql);
        println!(
            "{:<18} {:>14} {:>14} {:>7.2}x",
            format!("i_flux > {min_flux}"),
            chain,
            pull,
            pull as f64 / chain as f64
        );
    }

    println!("\n=== E4b: chain vs pull-to-portal, bytes vs federation size ===");
    println!(
        "{:<10} {:>14} {:>14} {:>8}",
        "bodies", "chain bytes", "pull bytes", "ratio"
    );
    for bodies in [400, 1200, 2400] {
        let sql = query_with_flux_cut(0.0);
        let chain = measure_bytes(&triple_federation(bodies), &sql);
        let pull = measure_bytes_pull(&triple_federation(bodies), &sql);
        println!(
            "{:<10} {:>14} {:>14} {:>7.2}x",
            bodies,
            chain,
            pull,
            pull as f64 / chain as f64
        );
    }
    println!("(pull-to-portal should transmit more; the gap grows with selectivity)\n");
}

fn bench(c: &mut Criterion) {
    print_tables();
    let fed = triple_federation(1000);
    let sql = query_with_flux_cut(0.0);
    let mut group = c.benchmark_group("e4_chain_vs_pull");
    group.sample_size(10);
    group.bench_function("chained", |b| b.iter(|| fed.portal.submit(&sql).unwrap()));
    group.bench_function("pull_to_portal", |b| {
        b.iter(|| fed.portal.submit_pull_to_portal(&sql).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
