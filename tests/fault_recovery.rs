//! The fault matrix: every injected network fault kind crossed with
//! "recovers within the retry budget" and "exhausts the budget". The
//! invariants under test — the transfer layer's no-silent-failure
//! contract:
//!
//! * a recovered run returns a result byte-identical to the clean run;
//! * an exhausted budget returns a *typed* error (`NodeUnhealthy` with
//!   the transport cause attached), never a panic, never a partial
//!   result;
//! * every retry, backoff second, and fault event is visible in
//!   `NetworkMetrics`, and recovery shows up in the execution trace.

use skyquery_core::{
    open_chunk_stream, send_rpc_with, ChunkStream, ExecutionPlan, FederationConfig,
    FederationError, PlanStep, RetryPolicy,
};
use skyquery_net::{FaultKind, FaultPlan, FaultRule, NetError};
use skyquery_sim::{xmatch_query, FederationBuilder, TestFederation};
use skyquery_soap::{ChunkManifest, RpcCall, SoapValue};

const PORTAL: &str = "portal.skyquery.net";
const SDSS: &str = "sdss.skyquery.net";
const TWOMASS: &str = "twomass.skyquery.net";

fn two_archive_sql() -> String {
    xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
        ],
        3.5,
        None,
    )
}

/// A federation plus the clean run's rendered result, for byte-identity
/// assertions after fault injection.
fn fed_with_reference(bodies: usize) -> (TestFederation, String) {
    let fed = FederationBuilder::paper_triple(bodies).build();
    let (clean, _) = fed.portal.submit(&two_archive_sql()).unwrap();
    assert!(clean.row_count() > 0, "reference run must match something");
    fed.net.reset_metrics();
    (fed, clean.to_ascii())
}

/// Asserts a submit under `plan` recovers to the byte-identical result,
/// with the expected fault label tallied and retries recorded.
fn assert_recovers(fed: &TestFederation, reference: &str, label: &str) {
    let (result, trace) = fed
        .portal
        .submit(&two_archive_sql())
        .unwrap_or_else(|e| panic!("{label}: expected recovery, got {e}"));
    assert_eq!(result.to_ascii(), reference, "{label}: result changed");
    let m = fed.net.metrics();
    assert!(m.retry_total().retries > 0, "{label}: no retries recorded");
    assert!(
        m.retry_total().backoff_seconds > 0.0,
        "{label}: no backoff recorded"
    );
    assert!(m.fault_total() > 0, "{label}: no fault events tallied");
    assert!(
        m.faults().iter().any(|((_, _, kind), _)| kind == label),
        "{label}: fault kind missing from tallies: {:?}",
        m.faults()
    );
    assert!(
        trace.events().iter().any(|e| e.action == "recovery"),
        "{label}: trace has no recovery event"
    );
    // A recovered node is not unhealthy.
    assert!(
        fed.portal.unhealthy_hosts().is_empty(),
        "{label}: {:?} left marked unhealthy after recovery",
        fed.portal.unhealthy_hosts()
    );
}

#[test]
fn host_down_recovers_on_second_attempt() {
    let (fed, reference) = fed_with_reference(200);
    fed.net.install_faults(FaultPlan::new().flaky_once(TWOMASS));
    assert_recovers(&fed, &reference, "host-down");
    assert_eq!(
        fed.net.metrics().fault_count(PORTAL, TWOMASS, "host-down"),
        1
    );
}

#[test]
fn server_errors_recover_within_budget() {
    let (fed, reference) = fed_with_reference(200);
    // Default budget is 3 attempts; two 500s leave one good attempt.
    fed.net
        .install_faults(FaultPlan::new().server_errors(TWOMASS, 2));
    assert_recovers(&fed, &reference, "http-500");
    assert_eq!(
        fed.net.metrics().fault_count(PORTAL, TWOMASS, "http-500"),
        2
    );
}

#[test]
fn truncated_body_recovers_within_budget() {
    let (fed, reference) = fed_with_reference(200);
    fed.net
        .install_faults(FaultPlan::new().truncated_bodies(TWOMASS, 1));
    assert_recovers(&fed, &reference, "truncated-body");
}

#[test]
fn garbage_body_recovers_within_budget() {
    let (fed, reference) = fed_with_reference(200);
    fed.net
        .install_faults(FaultPlan::new().garbage_bodies(TWOMASS, 2));
    assert_recovers(&fed, &reference, "garbage-body");
}

#[test]
fn host_down_exhausts_budget_into_node_unhealthy() {
    let (fed, _) = fed_with_reference(200);
    fed.net
        .install_faults(FaultPlan::new().host_down_for(TWOMASS, 1000));
    let err = fed.portal.submit(&two_archive_sql()).unwrap_err();
    match err {
        FederationError::NodeUnhealthy {
            host,
            attempts,
            cause,
        } => {
            assert_eq!(host, TWOMASS);
            assert_eq!(attempts, RetryPolicy::default().max_attempts);
            assert!(
                matches!(
                    *cause,
                    FederationError::Net(NetError::HostUnreachable { .. })
                ),
                "unexpected cause: {cause}"
            );
        }
        other => panic!("expected NodeUnhealthy, got {other}"),
    }
    assert_eq!(fed.portal.unhealthy_hosts(), vec![TWOMASS.to_string()]);
    // Budget of 3 attempts = 2 retries, all on the portal→twomass link.
    assert_eq!(fed.net.metrics().retry(PORTAL, TWOMASS).retries, 2);
}

#[test]
fn server_errors_exhaust_budget_with_http_cause() {
    let (fed, _) = fed_with_reference(200);
    fed.net
        .install_faults(FaultPlan::new().server_errors(TWOMASS, 1000));
    let err = fed.portal.submit(&two_archive_sql()).unwrap_err();
    match err {
        FederationError::NodeUnhealthy { cause, .. } => match *cause {
            FederationError::Http { status, ref host } => {
                assert_eq!(status, 500);
                assert_eq!(host, TWOMASS);
            }
            ref other => panic!("expected an HTTP cause, got {other}"),
        },
        other => panic!("expected NodeUnhealthy, got {other}"),
    }
}

#[test]
fn garbage_bodies_exhaust_budget_with_transport_cause() {
    let (fed, _) = fed_with_reference(200);
    fed.net
        .install_faults(FaultPlan::new().garbage_bodies(TWOMASS, 1000));
    let err = fed.portal.submit(&two_archive_sql()).unwrap_err();
    match err {
        FederationError::NodeUnhealthy { cause, .. } => assert!(
            matches!(*cause, FederationError::Net(NetError::BadFrame { .. })),
            "unexpected cause: {cause}"
        ),
        other => panic!("expected NodeUnhealthy, got {other}"),
    }
}

#[test]
fn truncated_bodies_exhaust_budget_with_decode_cause() {
    let (fed, _) = fed_with_reference(200);
    fed.net
        .install_faults(FaultPlan::new().truncated_bodies(TWOMASS, 1000));
    let err = fed.portal.submit(&two_archive_sql()).unwrap_err();
    match err {
        FederationError::NodeUnhealthy { cause, .. } => assert!(
            matches!(*cause, FederationError::Soap(_)),
            "unexpected cause: {cause}"
        ),
        other => panic!("expected NodeUnhealthy, got {other}"),
    }
}

#[test]
fn added_latency_is_never_an_error() {
    let (fed, reference) = fed_with_reference(200);
    fed.net
        .install_faults(FaultPlan::new().added_latency(TWOMASS, 0.5));
    let (result, _) = fed.portal.submit(&two_archive_sql()).unwrap();
    assert_eq!(result.to_ascii(), reference);
    let m = fed.net.metrics();
    // The free cost model charges nothing, so all simulated time on the
    // link is the injected delay.
    assert!(m.link(PORTAL, TWOMASS).sim_seconds >= 0.5);
    assert!(m.fault_count(PORTAL, TWOMASS, "latency") > 0);
    assert_eq!(
        m.retry_total().retries,
        0,
        "latency must not trigger retries"
    );
}

#[test]
fn single_attempt_policy_surfaces_the_raw_error() {
    let (fed, _) = fed_with_reference(200);
    fed.portal.set_config(FederationConfig {
        retry: RetryPolicy::none(),
        ..fed.portal.config()
    });
    fed.net.install_faults(FaultPlan::new().flaky_once(TWOMASS));
    // One attempt, no retries: the transport error arrives unwrapped.
    let err = fed.portal.submit(&two_archive_sql()).unwrap_err();
    assert!(
        matches!(err, FederationError::Net(NetError::HostUnreachable { .. })),
        "expected the raw transport error, got {err}"
    );
    assert_eq!(fed.net.metrics().retry_total().retries, 0);
}

#[test]
fn mid_chain_fault_recovers_on_the_inner_link() {
    let (fed, reference) = fed_with_reference(200);
    // Only the CrossMatch hop to TWOMASS fails (performance queries pass),
    // so the retry happens on the SDSS→TWOMASS link, not at the portal.
    fed.net.install_faults(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::HostDown)
                .host(TWOMASS)
                .action("CrossMatch")
                .times(1),
        ),
    );
    let (result, trace) = fed.portal.submit(&two_archive_sql()).unwrap();
    assert_eq!(result.to_ascii(), reference);
    let m = fed.net.metrics();
    assert_eq!(m.retry(SDSS, TWOMASS).retries, 1);
    assert_eq!(m.retry(PORTAL, SDSS).retries, 0);
    assert_eq!(m.fault_count(SDSS, TWOMASS, "host-down"), 1);
    // The portal still sees chain-wide recovery in its trace.
    assert!(trace.events().iter().any(|e| e.action == "recovery"));
}

#[test]
fn mid_chain_exhaustion_degrades_to_a_fault_upstream() {
    let (fed, _) = fed_with_reference(200);
    fed.net.install_faults(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::HostDown)
                .host(TWOMASS)
                .action("CrossMatch"),
        ),
    );
    let err = fed.portal.submit(&two_archive_sql()).unwrap_err();
    // SDSS exhausted its budget against TWOMASS and reported a SOAP
    // fault; at the portal that is a deterministic server answer, so the
    // chain is NOT re-retried end to end (no retry cascade).
    match &err {
        FederationError::Fault(f) => {
            assert!(f.message.contains("unhealthy"), "{}", f.message);
            assert!(f.message.contains(TWOMASS), "{}", f.message);
        }
        other => panic!("expected a SOAP fault upstream, got {other}"),
    }
    let m = fed.net.metrics();
    assert_eq!(
        m.retry(SDSS, TWOMASS).retries,
        u64::from(RetryPolicy::default().max_attempts) - 1
    );
    assert_eq!(m.retry(PORTAL, SDSS).retries, 0, "retry cascade detected");
}

#[test]
fn commit_failure_with_successful_abort_reports_commit_error() {
    let (fed, _) = fed_with_reference(200);
    fed.net.install_faults(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::ServerError)
                .host(TWOMASS)
                .action("CommitReceive"),
        ),
    );
    let err = fed
        .portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id FROM SDSS:Photo_Object O",
            "TWOMASS",
            "imported",
        )
        .unwrap_err();
    // The commit error surfaces; the abort worked, so no AbortFailed.
    assert!(
        matches!(err, FederationError::NodeUnhealthy { .. }),
        "expected the commit failure, got {err}"
    );
    let m = fed.net.metrics();
    assert_eq!(m.fault_count(PORTAL, TWOMASS, "exchange-abort"), 1);
    assert_eq!(m.fault_count(PORTAL, TWOMASS, "exchange-abort-failed"), 0);
    // The abort cleaned the participant: nothing published, nothing staged.
    let node = fed.node("TWOMASS").unwrap();
    assert!(node.pending_exchange_txns().is_empty());
    assert!(!node.with_db(|db| db.has_table("imported")));
}

#[test]
fn commit_and_abort_both_failing_reports_abort_failed() {
    let (fed, _) = fed_with_reference(200);
    fed.net.install_faults(
        FaultPlan::new()
            .rule(
                FaultRule::new(FaultKind::ServerError)
                    .host(TWOMASS)
                    .action("CommitReceive"),
            )
            .rule(
                FaultRule::new(FaultKind::ServerError)
                    .host(TWOMASS)
                    .action("AbortReceive"),
            ),
    );
    let err = fed
        .portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id FROM SDSS:Photo_Object O",
            "TWOMASS",
            "imported",
        )
        .unwrap_err();
    match &err {
        FederationError::AbortFailed {
            host,
            commit,
            abort,
            ..
        } => {
            assert_eq!(host, TWOMASS);
            assert!(commit.to_string().contains("unhealthy"), "{commit}");
            assert!(abort.to_string().contains("unhealthy"), "{abort}");
        }
        other => panic!("expected AbortFailed, got {other}"),
    }
    // The undecided transaction is reported, not silently dropped.
    assert!(err.to_string().contains("undecided"), "{err}");
    assert_eq!(
        fed.net
            .metrics()
            .fault_count(PORTAL, TWOMASS, "exchange-abort-failed"),
        1
    );
    // The participant really is left holding the staging table — exactly
    // what AbortFailed warns about.
    let node = fed.node("TWOMASS").unwrap();
    assert_eq!(node.pending_exchange_txns().len(), 1);
}

/// A single-step plan with a tiny message budget against the SDSS node,
/// for driving the chunk-stream lifecycle by hand.
fn tiny_budget_plan(fed: &TestFederation) -> ExecutionPlan {
    let node = fed.node("SDSS").unwrap();
    ExecutionPlan {
        threshold: 3.0,
        region: None,
        steps: vec![PlanStep {
            alias: "O".into(),
            archive: "SDSS".into(),
            table: "Photo_Object".into(),
            url: node.url(),
            dropout: false,
            sigma_arcsec: 0.1,
            local_sql: None,
            carried: vec!["object_id".into()],
            residual_sql: vec![],
            count_estimate: None,
            shards: vec![],
        }],
        select: vec![("O.object_id".into(), None)],
        order_by: vec![],
        limit: None,
        max_message_bytes: 3_000,
        chunking: true,
        kernel: Default::default(),
        retry: Default::default(),
        lease_ttl_s: skyquery_core::plan::DEFAULT_LEASE_TTL_S,
    }
}

/// Calls CrossMatch at the SDSS node with `plan` and opens the chunk
/// stream its reply's manifest announces, as `JobClient::fetch` does.
fn open_cross_match_stream<'a>(fed: &'a TestFederation, plan: &ExecutionPlan) -> ChunkStream<'a> {
    let url = fed.node("SDSS").unwrap().url();
    let call = RpcCall::new("CrossMatch")
        .param("plan", SoapValue::Xml(plan.to_element()))
        .param("step", SoapValue::Int(0));
    let resp = send_rpc_with(&fed.net, "tester", &url, &call, plan.retry).unwrap();
    let manifest = resp
        .get("manifest")
        .and_then(SoapValue::as_xml)
        .expect("tiny budget must force chunking");
    let manifest = ChunkManifest::from_element(manifest).unwrap();
    open_chunk_stream(&fed.net, "tester", &url, manifest, plan.retry)
}

#[test]
fn dropped_chunk_stream_aborts_the_sender_session() {
    let fed = FederationBuilder::paper_triple(400).build();
    let node = fed.node("SDSS").unwrap();
    let plan = tiny_budget_plan(&fed);
    let mut stream = open_cross_match_stream(&fed, &plan);
    assert!(stream.manifest().total_chunks() > 1);
    assert_eq!(node.open_transfers().len(), 1, "sender session open");
    // Pull one chunk, then walk away mid-transfer.
    stream.fetch_next().unwrap().expect("first chunk");
    drop(stream);
    // Drop sent AbortTransfer: the sender session is freed, not leaked.
    assert!(node.open_transfers().is_empty(), "sender session leaked");
    assert_eq!(
        fed.net
            .metrics()
            .fault_count("tester", SDSS, "transfer-abort"),
        1
    );
}

#[test]
fn explicit_abort_is_observable_and_idempotent() {
    let fed = FederationBuilder::paper_triple(400).build();
    let node = fed.node("SDSS").unwrap();
    let plan = tiny_budget_plan(&fed);
    let mut stream = open_cross_match_stream(&fed, &plan);
    stream.abort().unwrap();
    assert!(node.open_transfers().is_empty());
    // Idempotent: aborting again (and dropping after) does nothing more.
    stream.abort().unwrap();
    drop(stream);
    assert_eq!(
        fed.net
            .metrics()
            .fault_count("tester", SDSS, "transfer-abort"),
        1
    );
}

#[test]
fn fully_drained_stream_sends_no_abort() {
    let fed = FederationBuilder::paper_triple(400).build();
    let node = fed.node("SDSS").unwrap();
    let plan = tiny_budget_plan(&fed);
    let stream = open_cross_match_stream(&fed, &plan);
    let set = stream.collect_set().unwrap();
    assert!(set.tuples.len() > 0);
    // The sender freed the transfer on the last chunk; no abort traffic.
    assert!(node.open_transfers().is_empty());
    assert_eq!(
        fed.net
            .metrics()
            .fault_count("tester", SDSS, "transfer-abort"),
        0
    );
}
