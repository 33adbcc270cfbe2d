//! Chunked transfer under the zone engine: byte-identity parity suite.
//!
//! The §6 workaround — byte-budget chunks on the sender, drained whole by
//! the receiver before its step runs — must be a pure transport detail:
//! for every worker count, zone height, and message budget, query results
//! must be **byte-identical** to a monolithic (unchunked) run.

use proptest::prelude::*;
use skyquery_core::{FederationConfig, ResultSet};
use skyquery_sim::{xmatch_query, FederationBuilder, TestFederation};
use skyquery_storage::DEFAULT_ZONE_HEIGHT_DEG;

fn three_archive_sql() -> String {
    xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
            ("FIRST", "Primary_Object", "P"),
        ],
        3.5,
        None,
    )
}

fn run_with(fed: &TestFederation, sql: &str, config: FederationConfig) -> ResultSet {
    fed.portal.set_config(config);
    let (rs, _) = fed.portal.submit(sql).expect("query succeeds");
    rs
}

/// The sweep's federation, its nodes running `workers` zone workers over
/// zones `height` high. Identical parameters yield identical skies, and
/// the budget is per-submit config, so one federation serves a budget
/// sweep (building surveys dominates test time).
fn federation(workers: usize, height: f64) -> TestFederation {
    FederationBuilder::paper_triple(500)
        .zone_engine(workers, height)
        .build()
}

#[test]
fn pipelined_transfer_is_byte_identical_to_monolithic() {
    let sql = three_archive_sql();
    // Reference: monolithic transfer (limit far above any message).
    let reference = run_with(
        &federation(1, DEFAULT_ZONE_HEIGHT_DEG),
        &sql,
        FederationConfig::default(),
    );
    assert!(reference.row_count() > 0, "sweep needs matches to move");

    for workers in [1usize, 2, 8] {
        for height in [0.05f64, 0.1, 0.5, 5.0] {
            let fed = federation(workers, height);
            for max_message_bytes in [2_000usize, 20_000, 10_000_000] {
                let rs = run_with(
                    &fed,
                    &sql,
                    FederationConfig {
                        max_message_bytes,
                        chunking: true,
                        ..FederationConfig::default()
                    },
                );
                assert_eq!(
                    rs, reference,
                    "workers={workers} height={height} budget={max_message_bytes}"
                );
            }
        }
    }
}

#[test]
fn legacy_byte_budget_chunking_still_byte_identical() {
    // The §6 workaround as it first shipped: the default zone height and a
    // 4 000-byte budget.
    let sql = three_archive_sql();
    let reference = run_with(
        &federation(1, DEFAULT_ZONE_HEIGHT_DEG),
        &sql,
        FederationConfig::default(),
    );
    for workers in [1usize, 8] {
        let rs = run_with(
            &federation(workers, DEFAULT_ZONE_HEIGHT_DEG),
            &sql,
            FederationConfig {
                max_message_bytes: 4_000,
                chunking: true,
                ..FederationConfig::default()
            },
        );
        assert_eq!(rs, reference, "legacy path, workers={workers}");
    }
}

#[test]
fn chunk_flow_metrics_record_the_pipelined_transfer() {
    let fed = federation(1, DEFAULT_ZONE_HEIGHT_DEG);
    let sql = three_archive_sql();
    fed.portal.set_config(FederationConfig {
        max_message_bytes: 3_000,
        ..FederationConfig::default()
    });
    fed.net.reset_metrics();
    fed.portal.submit(&sql).unwrap();
    let flows = fed.net.metrics();
    let total = flows.chunk_total();
    assert!(total.chunks > 1, "tiny budget must force chunked transfers");
    assert!(total.bytes > 0 && total.rows > 0);
    // Chunks flowed along the daisy chain (node→node), not just to the
    // portal: at least one inter-node link carries chunk traffic.
    let node_links = flows
        .chunk_flows()
        .iter()
        .filter(|((from, to), _)| from.contains("skyquery.net") && to.contains("skyquery.net"))
        .count();
    assert!(node_links >= 1, "flows: {:?}", flows.chunk_flows());

    // Monolithic budget: no chunk flows at all.
    fed.portal.set_config(FederationConfig::default());
    fed.net.reset_metrics();
    fed.portal.submit(&sql).unwrap();
    assert_eq!(fed.net.metrics().chunk_total().chunks, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized corner of the sweep: any (budget, height, workers)
    /// combination stays byte-identical to the monolithic reference.
    #[test]
    fn pipelined_parity_holds_for_random_configs(
        max_message_bytes in 1_500usize..60_000,
        height in 0.02f64..10.0,
        workers in 1usize..8,
    ) {
        let sql = three_archive_sql();
        let sequential = FederationBuilder::paper_triple(180).build();
        let reference = run_with(&sequential, &sql, FederationConfig::default());
        let fed = FederationBuilder::paper_triple(180)
            .zone_engine(workers, height)
            .build();
        let rs = run_with(&fed, &sql, FederationConfig {
            max_message_bytes,
            chunking: true,
            ..FederationConfig::default()
        });
        prop_assert_eq!(rs, reference);
    }
}
