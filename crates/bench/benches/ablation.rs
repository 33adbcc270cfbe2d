//! Ablation study for a design choice DESIGN.md calls out:
//!
//! * **A3 — residual placement**: evaluating cross-archive residuals
//!   mid-chain (as built) vs deferring them to the Portal is approximated
//!   by comparing a selective-residual query against the same query with
//!   the residual dropped — the gap is the transmission the placement
//!   optimization saves.
//!
//! A1 (HTM index depth) and A2 (performance-query concurrency) are
//! retired; EXPERIMENTS.md keeps their last numbers and says why.

use criterion::{criterion_group, criterion_main, Criterion};
use skyquery_sim::{FederationBuilder, QuerySpec};

fn two_way(threshold: f64, residual: Option<&str>) -> String {
    QuerySpec {
        archives: vec![
            ("SDSS".into(), "Photo_Object".into(), "O".into(), false),
            ("TWOMASS".into(), "Photo_Primary".into(), "T".into(), false),
        ],
        threshold,
        area: None,
        polygon: None,
        predicates: residual.map(|r| vec![r.to_string()]).unwrap_or_default(),
        select: vec!["O.object_id".into(), "T.object_id".into()],
    }
    .to_sql()
}

fn print_tables() {
    println!("\n=== A3: residual placement — bytes saved by mid-chain filtering ===");
    let fed = FederationBuilder::paper_triple(2000).build();
    for (name, residual) in [
        ("no residual", None),
        ("selective residual", Some("(O.i_flux - T.i_flux) > 50")),
    ] {
        let sql = two_way(3.5, residual);
        fed.net.reset_metrics();
        let (result, _) = fed.portal.submit(&sql).unwrap();
        println!(
            "{:<22} {:>8} matches {:>12} bytes",
            name,
            result.row_count(),
            fed.net.metrics().total().bytes
        );
    }
    println!("(the residual is applied at the step where both archives are present,\n shrinking every upstream transfer)\n");
}

fn bench(_: &mut Criterion) {
    print_tables();
}

criterion_group!(benches, bench);
criterion_main!(benches);
