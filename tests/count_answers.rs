//! Count answers: a count-star asked of an unchanged table version is the
//! same number, so a warm Portal must plan every query exactly as a cold
//! one does.
//!
//! Each case runs the paper query on a Portal that has already answered
//! it, and once on a cold twin federation built the same way. The plan's
//! chain order and count estimates (the Portal's "performance queries"
//! and "plan" trace lines) and the answer's bytes must agree: with the
//! result cache off and at capacity 4, unsharded and as 4 shards × 2
//! replicas, before and after one archive grows and the Portal refreshes
//! its table versions.
//!
//! The Portal keeps each count answer beside the registry versions it
//! was asked at, so the same cases also pin what is asked: nothing on a
//! warm repeat or a warm `explain`, and only the extents of an archive
//! that grew or registered again.

use std::sync::{Arc, Mutex};

use skyquery_core::{ExecutionTrace, FederationConfig};
use skyquery_net::{Endpoint, HttpRequest, SimNetwork};
use skyquery_sim::{paper_query, FederationBuilder, TestFederation};
use skyquery_storage::Value;

/// The host of every call a node served, with its SOAPAction.
type Calls = Arc<Mutex<Vec<(String, String)>>>;

/// Puts every node of `fed` behind a recorder of the calls it serves.
fn record_calls(fed: &TestFederation) -> Calls {
    let calls = Calls::default();
    for node in &fed.nodes {
        let (inner, log, host): (Arc<dyn Endpoint>, _, _) =
            (node.clone(), calls.clone(), node.host().to_string());
        fed.net.bind(
            node.host(),
            Arc::new(move |net: &SimNetwork, req: HttpRequest| {
                let action = req.soap_action().unwrap_or_default().to_string();
                log.lock().unwrap().push((host.clone(), action));
                inner.handle(net, req)
            }),
        );
    }
    calls
}

/// The hosts asked a count-star since `calls` was last drained, in order.
fn count_stars(calls: &Calls) -> Vec<String> {
    std::mem::take(&mut *calls.lock().unwrap())
        .into_iter()
        .filter(|(_, action)| action.ends_with("#Query"))
        .map(|(host, _)| host)
        .collect()
}

/// The host a count-star of `archive` goes to: each extent's primary.
fn extent_primaries(fed: &TestFederation, archive: &str) -> Vec<String> {
    let mut hosts: Vec<String> = Vec::new();
    let mut last = None;
    for n in fed.portal.shards_of(archive) {
        if last != Some(n.extent()) {
            last = Some(n.extent());
            hosts.push(n.url.host);
        }
    }
    hosts
}

/// The paper's triple at 300 bodies, unsharded or as 4 shards × 2
/// replicas, with the result cache at `cache` entries.
fn federation(sharded: bool, cache: usize) -> TestFederation {
    let b = FederationBuilder::paper_triple(300).config(FederationConfig {
        result_cache_capacity: cache,
        result_cache_ttl_s: 600.0,
        ..FederationConfig::default()
    });
    if sharded { b.shards(4).replicas(2) } else { b }.build()
}

const CASES: [(bool, usize); 4] = [(false, 0), (false, 4), (true, 0), (true, 4)];

/// What the plan is: the count-star results and the chain order with
/// each step's count estimate.
fn plan_of(trace: &ExecutionTrace) -> Vec<String> {
    let plan: Vec<String> = trace
        .events()
        .iter()
        .filter(|e| e.action == "performance queries" || e.action == "plan")
        .map(|e| e.detail.clone())
        .collect();
    assert_eq!(plan.len(), 2, "{plan:?}");
    plan
}

/// The paper query's plan and answer bytes on `fed`.
fn run(fed: &TestFederation) -> (Vec<String>, String) {
    let (result, trace) = fed.portal.submit(&paper_query()).unwrap();
    assert!(result.row_count() > 0, "the paper query matches something");
    (plan_of(&trace), result.to_ascii())
}

/// Inserts 400 FIRST sources inside the paper query's cap into every
/// node that owns their declination, replicas included (a shard's row
/// ranks after every original row, as in the unsharded archive) — enough to move
/// FIRST from the smallest count to the largest — and has the Portal
/// re-read FIRST's table versions. Returns the hosts that grew.
fn grow_first(fed: &TestFederation) -> Vec<String> {
    let mut grown = Vec::new();
    for node in fed.shard_nodes("FIRST") {
        let extent = node.info().owned_extent();
        let table = node.info().primary_table.clone();
        node.with_db(|db| {
            for k in 0..400u64 {
                let (ra, dec) = (184.6 + 0.002 * k as f64, -0.9 + 0.002 * k as f64);
                if extent.contains_dec(dec) {
                    let mut row = vec![
                        Value::Id(930_000 + k),
                        Value::Float(ra),
                        Value::Float(dec),
                        Value::Text("GALAXY".into()),
                        Value::Float(1.0),
                    ];
                    if !extent.is_full_sky() {
                        // A shard row's rank: after every original row.
                        row.push(Value::Id(1_000_000 + k));
                    }
                    db.insert(&table, row).expect("conforming row");
                    if grown.last().map(String::as_str) != Some(node.host()) {
                        grown.push(node.host().to_string());
                    }
                }
            }
        });
    }
    fed.portal.refresh_table_versions("FIRST").unwrap();
    grown
}

#[test]
fn a_warm_repeat_plans_and_answers_as_a_cold_portal_does() {
    for (sharded, cache) in CASES {
        let warm = federation(sharded, cache);
        let calls = record_calls(&warm);
        run(&warm);
        assert_eq!(count_stars(&calls).len(), if sharded { 12 } else { 3 });
        let repeat = run(&warm);
        assert_eq!(count_stars(&calls), Vec::<String>::new(), "no count asked");
        let cold = run(&federation(sharded, cache));
        assert_eq!(repeat, cold, "sharded {sharded}, cache {cache}");
    }
}

#[test]
fn after_growth_and_a_refresh_a_warm_portal_plans_as_a_cold_one() {
    for (sharded, cache) in CASES {
        let warm = federation(sharded, cache);
        let before = run(&warm);
        let grown = grow_first(&warm);
        let calls = record_calls(&warm);
        let after = run(&warm);
        let mut asked = extent_primaries(&warm, "FIRST");
        asked.retain(|host| grown.contains(host));
        assert!(!asked.is_empty());
        assert_eq!(
            count_stars(&calls),
            asked,
            "only the extents that grew are asked again"
        );
        let twin = federation(sharded, cache);
        grow_first(&twin);
        assert_eq!(after, run(&twin), "sharded {sharded}, cache {cache}");
        assert_ne!(
            after.0[1], before.0[1],
            "growing FIRST moves it from the chain's seed to its head"
        );
    }
}

#[test]
fn explain_on_a_warm_portal_renders_a_cold_portals_plan() {
    for (sharded, cache) in CASES {
        let warm = federation(sharded, cache);
        run(&warm);
        warm.net.reset_metrics();
        let text = warm.portal.explain(&paper_query()).unwrap();
        assert_eq!(warm.net.metrics().total().messages, 0, "nothing is sent");
        let cold = federation(sharded, cache).portal.explain(&paper_query());
        assert_eq!(text, cold.unwrap(), "sharded {sharded}, cache {cache}");
    }
}

#[test]
fn a_re_registered_archive_is_asked_again_and_plans_as_a_cold_portal_does() {
    for (sharded, cache) in CASES {
        let warm = federation(sharded, cache);
        run(&warm);
        for node in warm.shard_nodes("TWOMASS") {
            warm.portal.register_node(&node.url()).unwrap();
        }
        let calls = record_calls(&warm);
        let repeat = run(&warm);
        assert_eq!(count_stars(&calls), extent_primaries(&warm, "TWOMASS"));
        assert_eq!(repeat, run(&federation(sharded, cache)));
        // An archive that leaves and joins again is asked again too.
        assert!(warm.portal.unregister("FIRST"));
        for node in warm.shard_nodes("FIRST") {
            warm.portal.register_node(&node.url()).unwrap();
        }
        run(&warm);
        assert_eq!(count_stars(&calls), extent_primaries(&warm, "FIRST"));
    }
}
