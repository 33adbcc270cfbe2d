//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **A1 — HTM index depth** at the archives: deeper meshes probe fewer
//!   rows per candidate search but pay larger covers.
//! * **A3 — residual placement**: evaluating cross-archive residuals
//!   mid-chain (as built) vs deferring them to the Portal is approximated
//!   by comparing a selective-residual query against the same query with
//!   the residual dropped — the gap is the transmission the placement
//!   optimization saves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skyquery_sim::{CatalogParams, FederationBuilder, QuerySpec, SurveyParams};

fn federation_with_depth(depth: u8, bodies: usize) -> skyquery_sim::TestFederation {
    let mut sdss = SurveyParams::sdss_like();
    sdss.htm_depth = depth;
    let mut twomass = SurveyParams::twomass_like();
    twomass.htm_depth = depth;
    FederationBuilder::new()
        .catalog(CatalogParams {
            count: bodies,
            ..CatalogParams::default()
        })
        .survey(sdss)
        .survey(twomass)
        .build()
}

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
    println!("\n=== A1: archive HTM index depth ablation (2000 bodies) ===");
    println!("{:<8} {:>12} {:>20}", "depth", "matches", "row accesses");
    for depth in [8u8, 10, 12, 14, 16] {
        let fed = federation_with_depth(depth, 2000);
        // Row accesses charged to the node buffer caches during the
        // query: the HTM cover at each node's index depth decides how
        // many rows every candidate search touches before verification.
        for node in &fed.nodes {
            node.with_db(|db| db.reset_cache_stats());
        }
        let (result, _) = fed.portal.submit(&two_way(3.5, None)).unwrap();
        let accesses: u64 = fed
            .nodes
            .iter()
            .map(|n| n.with_db(|db| db.cache_stats().accesses()))
            .sum();
        println!("{:<8} {:>12} {:>20}", depth, result.row_count(), accesses);
    }
    println!("(match counts must be depth-invariant; row touches fall as depth rises)");

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

fn bench(c: &mut Criterion) {
    print_tables();
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    for depth in [8u8, 12, 16] {
        let fed = federation_with_depth(depth, 1000);
        let sql = two_way(3.5, None);
        group.bench_with_input(BenchmarkId::new("htm_depth", depth), &depth, |b, _| {
            b.iter(|| fed.portal.submit(&sql).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
