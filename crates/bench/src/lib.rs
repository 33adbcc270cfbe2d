//! Shared helpers for the SkyQuery benchmark harness.
//!
//! Each bench under `benches/` regenerates one experiment from
//! `EXPERIMENTS.md` (E3–E10): it prints the experiment's table once, then
//! lets Criterion measure the timed variants. The helpers here build the
//! standard federations and workloads so every experiment runs against
//! the same synthetic sky.

pub mod alloc;

use skyquery_core::FederationConfig;
use skyquery_sim::{xmatch_query, CatalogParams, FederationBuilder, SurveyParams, TestFederation};

/// The standard three-archive federation over `bodies` bodies.
pub fn triple_federation(bodies: usize) -> TestFederation {
    FederationBuilder::paper_triple(bodies).build()
}

/// A federation with `n` archives of alternating density/precision over
/// `bodies` bodies (experiment E8).
pub fn n_archive_federation(n: usize, bodies: usize) -> TestFederation {
    let mut b = FederationBuilder::new().catalog(CatalogParams {
        count: bodies,
        ..CatalogParams::default()
    });
    for i in 0..n {
        b = b.survey(SurveyParams {
            name: format!("ARCH{i}"),
            sigma_arcsec: 0.1 + 0.15 * (i % 4) as f64,
            detection_fraction: 0.9 - 0.1 * (i % 5) as f64,
            false_detections_per_1000: 5,
            flux_scale: 1.0,
            table: "Objects".into(),
            htm_depth: 13,
            seed: 9000 + i as u64,
        });
    }
    b.build()
}

/// The three-way cross match over the standard federation.
pub fn triple_query(threshold: f64) -> String {
    xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
            ("FIRST", "Primary_Object", "P"),
        ],
        threshold,
        None,
    )
}

/// The cross match over the first `n` archives of an
/// [`n_archive_federation`].
pub fn n_archive_query(n: usize, threshold: f64) -> String {
    let names: Vec<String> = (0..n).map(|i| format!("ARCH{i}")).collect();
    let aliases: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
    let refs: Vec<(&str, &str, &str)> = names
        .iter()
        .zip(&aliases)
        .map(|(n, a)| (n.as_str(), "Objects", a.as_str()))
        .collect();
    xmatch_query(&refs, threshold, None)
}

/// Runs a query and returns total transmitted bytes.
pub fn measure_bytes(fed: &TestFederation, sql: &str) -> u64 {
    fed.net.reset_metrics();
    fed.portal.submit(sql).expect("query succeeds");
    fed.net.metrics().total().bytes
}

/// Runs the pull-to-portal baseline and returns total transmitted bytes.
pub fn measure_bytes_pull(fed: &TestFederation, sql: &str) -> u64 {
    fed.net.reset_metrics();
    fed.portal
        .submit_pull_to_portal(sql)
        .expect("baseline succeeds");
    fed.net.metrics().total().bytes
}

/// A config preset with everything default but the given ordering.
pub fn config_with_ordering(ordering: skyquery_core::OrderingStrategy) -> FederationConfig {
    FederationConfig {
        ordering,
        ..FederationConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_runnable_setups() {
        let fed = triple_federation(150);
        let bytes = measure_bytes(&fed, &triple_query(3.5));
        assert!(bytes > 0);
        let pull = measure_bytes_pull(&fed, &triple_query(3.5));
        assert!(pull > 0);
    }

    #[test]
    fn n_archive_setup_runs() {
        let fed = n_archive_federation(4, 120);
        let (result, _) = fed.portal.submit(&n_archive_query(4, 3.5)).unwrap();
        assert!(result.row_count() > 0);
    }
}
