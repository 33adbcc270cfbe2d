//! Large-scale confidence runs. These push the federation well past the
//! sizes the fast suite uses; they run in seconds in release mode but
//! tens of seconds in debug, so they are `#[ignore]`d by default:
//!
//! ```text
//! cargo test --release --test large_scale -- --ignored
//! ```

use skyquery_sim::{xmatch_query, FederationBuilder};

#[test]
#[ignore = "large-scale run; invoke with --ignored (ideally --release)"]
fn twenty_thousand_bodies_end_to_end() {
    let fed = FederationBuilder::paper_triple(20_000).build();
    let sql = xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
            ("FIRST", "Primary_Object", "P"),
        ],
        3.5,
        None,
    );
    let (result, trace) = fed.portal.submit(&sql).unwrap();
    // FIRST detects ~15%, and triple coincidences survive at high rate
    // with these σ's: expect thousands of matches.
    assert!(
        result.row_count() > 1500,
        "only {} matches at 20k bodies",
        result.row_count()
    );
    // Pruning keeps the intermediate sets at the FIRST-sized scale.
    let max_intermediate = trace
        .events()
        .iter()
        .filter(|e| e.action == "cross match step")
        .filter_map(|e| {
            e.detail
                .split_once("tuples out ")
                .and_then(|(_, n)| n.split(',').next()?.parse::<usize>().ok())
        })
        .max()
        .unwrap();
    assert!(
        max_intermediate < 6000,
        "intermediate set exploded: {max_intermediate}"
    );
}

#[test]
#[ignore = "large-scale run; invoke with --ignored (ideally --release)"]
fn chunking_at_scale_matches_unchunked() {
    let fed = FederationBuilder::paper_triple(10_000).build();
    let sql = xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
        ],
        3.5,
        None,
    );
    let (reference, _) = fed.portal.submit(&sql).unwrap();
    fed.portal.set_config(skyquery_core::FederationConfig {
        max_message_bytes: 100_000,
        ..skyquery_core::FederationConfig::default()
    });
    let (chunked, _) = fed.portal.submit(&sql).unwrap();
    assert_eq!(reference.row_count(), chunked.row_count());
}

#[test]
#[ignore = "large-scale run; invoke with --ignored (ideally --release)"]
fn ten_archive_federation() {
    let mut builder = FederationBuilder::new().catalog(skyquery_sim::CatalogParams {
        count: 2_000,
        ..skyquery_sim::CatalogParams::default()
    });
    for i in 0..10 {
        builder = builder.survey(skyquery_sim::SurveyParams {
            name: format!("S{i}"),
            sigma_arcsec: 0.2 + 0.1 * (i % 3) as f64,
            detection_fraction: 0.85,
            false_detections_per_1000: 2,
            flux_scale: 1.0,
            table: "Objects".into(),
            htm_depth: 13,
            seed: 7000 + i,
        });
    }
    let fed = builder.build();
    let names: Vec<String> = (0..10).map(|i| format!("S{i}")).collect();
    let aliases: Vec<String> = (0..10).map(|i| format!("A{i}")).collect();
    let refs: Vec<(&str, &str, &str)> = names
        .iter()
        .zip(&aliases)
        .map(|(n, a)| (n.as_str(), "Objects", a.as_str()))
        .collect();
    // A 10-tuple's χ²_min has ~2(N−1)=18 degrees of freedom, so the
    // threshold must sit well above √18 ≈ 4.2σ for true matches to pass.
    let (result, _) = fed.portal.submit(&xmatch_query(&refs, 8.0, None)).unwrap();
    // ~0.85^10 ≈ 20% of bodies detected everywhere.
    assert!(
        result.row_count() > 200,
        "only {} ten-way matches",
        result.row_count()
    );
    assert_eq!(result.columns.len(), 10);
}
