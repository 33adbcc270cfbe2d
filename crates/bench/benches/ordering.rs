//! Experiment E3 — §5.3: "the order based on the count star values will
//! often decrease the network transmission costs."
//!
//! Table: total transmitted bytes per plan-ordering strategy, at three
//! federation sizes. Criterion then times the two extreme strategies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skyquery_bench::{config_with_ordering, measure_bytes, triple_federation, triple_query};
use skyquery_core::OrderingStrategy;

fn print_table() {
    println!("\n=== E3: transmission bytes by plan ordering (XMATCH(O,T,P) < 3.5) ===");
    println!(
        "{:<10} {:>16} {:>16} {:>16} {:>16}",
        "bodies", "desc (paper)", "asc", "declaration", "random(3)"
    );
    for bodies in [500, 1500, 3000] {
        let sql = triple_query(3.5);
        let mut row = Vec::new();
        for ordering in [
            OrderingStrategy::CountStarDescending,
            OrderingStrategy::CountStarAscending,
            OrderingStrategy::DeclarationOrder,
            OrderingStrategy::Random(3),
        ] {
            // A fresh federation per run: a Portal that has planned the
            // query holds its counts and would not send the count-stars
            // again, and every run's bytes include them.
            let fed = triple_federation(bodies);
            fed.portal.set_config(config_with_ordering(ordering));
            row.push(measure_bytes(&fed, &sql));
        }
        println!(
            "{:<10} {:>16} {:>16} {:>16} {:>16}",
            bodies, row[0], row[1], row[2], row[3]
        );
    }
    println!("(the paper's descending order should transmit the least)\n");
}

fn bench(c: &mut Criterion) {
    print_table();
    let fed = triple_federation(1000);
    let sql = triple_query(3.5);
    let mut group = c.benchmark_group("e3_ordering");
    group.sample_size(10);
    for (name, ordering) in [
        ("count_star_desc", OrderingStrategy::CountStarDescending),
        ("count_star_asc", OrderingStrategy::CountStarAscending),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &ordering, |b, &o| {
            fed.portal.set_config(config_with_ordering(o));
            b.iter(|| fed.portal.submit(&sql).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
