//! Survivable federated execution: the checkpointed chain, failover
//! re-planning, and lease-based reclamation.
//!
//! The invariants under test:
//!
//! * fault-free, the checkpointed chain returns a result byte-identical
//!   to the recursive daisy chain;
//! * a mid-chain outage of a mandatory archive is survived by deferring
//!   the step (`replan`) and resuming from the set committed at the
//!   Portal — committed steps are never re-executed (asserted on the
//!   per-node step counters), and the result stays byte-identical;
//! * a failing drop-out archive is skipped with a `degraded` trace flag
//!   rather than failing the query;
//! * every node-side transfer session and exchange transaction is
//!   leased: continuations renew, the janitor reclaims expired orphans,
//!   and a stale id faults deterministically;
//! * a seeded chaos soak drains every node back to zero leases.

use skyquery_core::skynode::send_rpc;
use skyquery_core::{
    ChainMode, ExecutionPlan, FederationConfig, FederationError, HostState, PlanStep, RetryPolicy,
};
use skyquery_net::{FaultKind, FaultPlan, FaultRule};
use skyquery_sim::{FederationBuilder, TestFederation};
use skyquery_soap::{ChunkManifest, RpcCall, RpcResponse, SoapValue};

const SDSS_HOST: &str = "sdss.skyquery.net";
const TWOMASS_HOST: &str = "twomass.skyquery.net";
const FIRST_HOST: &str = "first.skyquery.net";
const PORTAL_HOST: &str = "portal.skyquery.net";

/// Three mandatory archives with a total ORDER BY, so equal match *sets*
/// render to equal bytes regardless of chain order.
fn ordered_three_sql() -> &'static str {
    "SELECT O.object_id, T.object_id, P.object_id \
     FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
     WHERE XMATCH(O, T, P) < 3.5 \
     ORDER BY O.object_id, T.object_id, P.object_id"
}

fn checkpointed(fed: &TestFederation) {
    fed.portal.set_config(FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..fed.portal.config()
    });
}

/// Faults only the portal-driven step calls at `host`, leaving
/// performance queries untouched.
fn step_outage(host: &str, times: u32) -> FaultPlan {
    FaultPlan::new().rule(
        FaultRule::new(FaultKind::HostDown)
            .host(host)
            .action("ScatterStep")
            .times(times),
    )
}

fn executed_steps(fed: &TestFederation) -> Vec<(String, u64)> {
    ["SDSS", "TWOMASS", "FIRST"]
        .iter()
        .map(|a| (a.to_string(), fed.node(a).unwrap().executed_steps()))
        .collect()
}

fn assert_all_drained(fed: &TestFederation, label: &str) {
    for archive in ["SDSS", "TWOMASS", "FIRST"] {
        let node = fed.node(archive).unwrap();
        assert!(
            node.open_transfers().is_empty(),
            "{label}: {archive} leaked transfers {:?}",
            node.open_transfers()
        );
        assert!(
            node.pending_exchange_txns().is_empty(),
            "{label}: {archive} leaked exchange txns {:?}",
            node.pending_exchange_txns()
        );
        assert_eq!(node.active_leases(), 0, "{label}: {archive} holds leases");
    }
}

#[test]
fn checkpointed_chain_matches_recursive_chain_byte_for_byte() {
    let fed = FederationBuilder::paper_triple(300).build();
    let (recursive, _) = fed.portal.submit(ordered_three_sql()).unwrap();
    assert!(recursive.row_count() > 0, "reference must match something");

    checkpointed(&fed);
    let (stepped, trace) = fed.portal.submit(ordered_three_sql()).unwrap();
    assert_eq!(stepped.to_ascii(), recursive.to_ascii());
    // A clean run neither re-plans nor degrades.
    assert!(!trace.contains_action("replan"));
    assert!(!trace.contains_action("degraded"));
    // No node holds anything on the way out.
    fed.net.advance_clock(0.0);
    assert_all_drained(&fed, "clean checkpointed run");
}

#[test]
fn mid_chain_outage_replans_and_resumes_without_reexecution() {
    let fed = FederationBuilder::paper_triple(300).build();
    checkpointed(&fed);
    let (clean, _) = fed.portal.submit(ordered_three_sql()).unwrap();
    let before = executed_steps(&fed);

    // TWOMASS (mid-chain under count-star ordering) refuses exactly one
    // retry budget's worth of step calls, then recovers.
    fed.net.install_faults(step_outage(
        TWOMASS_HOST,
        RetryPolicy::default().max_attempts,
    ));
    let (survived, trace) = fed
        .portal
        .submit(ordered_three_sql())
        .expect("the re-planned chain must complete");
    assert_eq!(survived.to_ascii(), clean.to_ascii());

    // The portal re-planned once and resumed once, visibly.
    assert_eq!(trace.events_with_action("replan").len(), 1);
    assert_eq!(trace.events_with_action("resume").len(), 1);
    assert!(!trace.contains_action("degraded"));
    let m = fed.net.metrics();
    assert_eq!(m.node_event_count(PORTAL_HOST, "replan"), 1);
    assert_eq!(m.node_event_count(PORTAL_HOST, "resume"), 1);

    // No committed step ran twice: every node executed exactly one more
    // step than before the fault, despite the mid-chain failure.
    let after = executed_steps(&fed);
    for ((archive, b), (_, a)) in before.iter().zip(&after) {
        assert_eq!(
            *a,
            b + 1,
            "{archive} re-executed a committed step (before {b}, after {a})"
        );
    }
    // Recovery cleared the health mark.
    assert!(fed.portal.unhealthy_hosts().is_empty());
    assert_all_drained(&fed, "replanned run");
}

#[test]
fn failing_dropout_archive_degrades_instead_of_failing() {
    let fed = FederationBuilder::paper_triple(300).build();
    checkpointed(&fed);
    let dropout_sql = "SELECT O.object_id, T.object_id \
         FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
         WHERE XMATCH(O, T, !P) < 3.5 \
         ORDER BY O.object_id, T.object_id";
    let plain_sql = "SELECT O.object_id, T.object_id \
         FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T \
         WHERE XMATCH(O, T) < 3.5 \
         ORDER BY O.object_id, T.object_id";
    let (plain, _) = fed.portal.submit(plain_sql).unwrap();
    let (with_dropout, trace) = fed.portal.submit(dropout_sql).unwrap();
    assert!(!trace.contains_action("degraded"));
    assert!(
        with_dropout.row_count() < plain.row_count(),
        "the drop-out filter must exclude something for this test to bite"
    );

    // FIRST goes down for good: the optional anti-join is skipped and the
    // query completes as the plain two-way match, flagged degraded.
    fed.net.install_faults(step_outage(FIRST_HOST, u32::MAX));
    let (degraded, trace) = fed
        .portal
        .submit(dropout_sql)
        .expect("a failing drop-out archive must not fail the query");
    assert_eq!(degraded.to_ascii(), plain.to_ascii());
    assert_eq!(trace.events_with_action("degraded").len(), 1);
    assert!(!trace.contains_action("replan"));
    assert_eq!(
        fed.net.metrics().node_event_count(PORTAL_HOST, "degraded"),
        1
    );
    assert_eq!(fed.portal.unhealthy_hosts(), vec![FIRST_HOST.to_string()]);
}

#[test]
fn probe_moves_unhealthy_host_to_probation() {
    let fed = FederationBuilder::paper_triple(100).build();
    // TWOMASS eats exactly one retry budget, then recovers.
    fed.net.install_faults(
        FaultPlan::new().host_down_for(TWOMASS_HOST, RetryPolicy::default().max_attempts),
    );
    let err = fed.portal.submit(ordered_three_sql()).unwrap_err();
    assert!(matches!(err, FederationError::NodeUnhealthy { .. }));
    assert_eq!(fed.portal.unhealthy_hosts(), vec![TWOMASS_HOST.to_string()]);
    let report = fed.portal.health_report();
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].1.strikes, 1);
    assert_eq!(report[0].1.state, HostState::Unhealthy);

    // Half-open recovery: one cheap Information probe succeeds, moving
    // the host to probation — trusted again, history retained.
    let probed = fed.portal.probe_unhealthy_hosts();
    assert_eq!(probed, vec![(TWOMASS_HOST.to_string(), true)]);
    assert!(fed.portal.unhealthy_hosts().is_empty());
    let report = fed.portal.health_report();
    assert_eq!(report[0].1.state, HostState::Probation);
    assert_eq!(report[0].1.strikes, 1);

    // A real successful contact clears the history entirely.
    fed.portal.submit(ordered_three_sql()).unwrap();
    assert!(fed.portal.health_report().is_empty());
}

#[test]
fn failed_probe_adds_a_strike_and_keeps_the_host_unhealthy() {
    let fed = FederationBuilder::paper_triple(100).build();
    fed.net
        .install_faults(FaultPlan::new().host_down_for(TWOMASS_HOST, u32::MAX));
    let _ = fed.portal.submit(ordered_three_sql()).unwrap_err();
    let strikes = fed.portal.health_report()[0].1.strikes;
    assert!(!fed.portal.probe_host(TWOMASS_HOST));
    let report = fed.portal.health_report();
    assert_eq!(report[0].1.state, HostState::Unhealthy);
    assert_eq!(report[0].1.strikes, strikes + 1);
    // Probing a host nobody registered reports failure, not a panic.
    assert!(!fed.portal.probe_host("nowhere.skyquery.net"));
}

/// Opens a chunked transfer at SDSS by hand: the seed step's reply under
/// a 3 000-byte message limit, leased for `lease_ttl_s`.
fn open_seed_transfer(fed: &TestFederation, lease_ttl_s: f64) -> ChunkManifest {
    let node = fed.node("SDSS").unwrap();
    let plan = ExecutionPlan {
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
        retry: RetryPolicy::none(),
        lease_ttl_s,
    };
    let resp = send_rpc(
        &fed.net,
        "tester",
        &node.url(),
        &RpcCall::new("CrossMatch")
            .param("plan", SoapValue::Xml(plan.to_element()))
            .param("step", SoapValue::Int(0)),
    )
    .expect("seed step executes");
    let manifest = resp
        .require("manifest")
        .expect("the small limit forces a chunked reply")
        .as_xml()
        .expect("manifest is xml");
    let manifest = ChunkManifest::from_element(manifest).expect("manifest decodes");
    assert!(manifest.total_chunks() > 1, "the limit must force chunks");
    manifest
}

fn fetch_chunk(
    fed: &TestFederation,
    transfer_id: u64,
    index: usize,
) -> Result<RpcResponse, FederationError> {
    send_rpc(
        &fed.net,
        "tester",
        &fed.node("SDSS").unwrap().url(),
        &RpcCall::new("FetchChunk")
            .param("transfer_id", SoapValue::Int(transfer_id as i64))
            .param("index", SoapValue::Int(index as i64)),
    )
}

#[test]
fn transfer_leases_renew_and_expire() {
    let fed = FederationBuilder::paper_triple(400).build();
    let node = fed.node("SDSS").unwrap();
    let id = open_seed_transfer(&fed, 50.0).transfer_id;
    assert_eq!(node.open_transfers(), vec![id]);
    assert!(node.active_leases() >= 1);

    // A continuation at t=40 extends the 50 s lease to t=90.
    fed.net.advance_clock(40.0);
    fetch_chunk(&fed, id, 0).expect("chunk 0 serves");
    fed.net.advance_clock(40.0); // t=80: past the original expiry
    assert_eq!(node.sweep_leases(&fed.net), 0);
    assert_eq!(node.open_transfers(), vec![id]);

    // Untouched past t=90, the janitor reclaims the orphan.
    fed.net.advance_clock(60.0);
    assert_eq!(node.sweep_leases(&fed.net), 1);
    assert!(node.open_transfers().is_empty());
    assert_eq!(node.active_leases(), 0);
    assert!(
        fed.net
            .metrics()
            .node_event_count(SDSS_HOST, "lease-expired")
            >= 1
    );

    // A stale id faults deterministically — redo, don't retry.
    let err = fetch_chunk(&fed, id, 1).expect_err("a reclaimed transfer must fault");
    assert!(err.to_string().contains("is not leased"), "{err}");
}

#[test]
fn abandoned_transfers_are_reclaimed_by_any_later_call() {
    let fed = FederationBuilder::paper_triple(400).build();
    let node = fed.node("SDSS").unwrap();
    open_seed_transfer(&fed, 30.0);
    assert_eq!(node.open_transfers().len(), 1);
    fed.net.advance_clock(31.0);
    // No explicit sweep: the janitor runs at the front of every service
    // call, so any traffic at the node reclaims the orphan.
    let _ = send_rpc(
        &fed.net,
        "tester",
        &node.url(),
        &RpcCall::new("Information"),
    )
    .unwrap();
    assert!(node.open_transfers().is_empty());
}

/// One seeded chaos round-trip: random step outages at random hosts,
/// asserting byte-identity whenever the query completes, then a full
/// lease drain across the federation.
fn chaos_soak(seed: u64) {
    let fed = FederationBuilder::paper_triple(200).build();
    fed.portal.set_config(FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        lease_ttl_s: 40.0,
        ..fed.portal.config()
    });
    let (reference, _) = fed.portal.submit(ordered_three_sql()).unwrap();
    let reference = reference.to_ascii();

    // xorshift64* — a deterministic schedule without a rand dep.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let hosts = [SDSS_HOST, TWOMASS_HOST, FIRST_HOST];
    let (mut completed, mut failed) = (0u32, 0u32);
    for round in 0..12 {
        let host = hosts[(next() % hosts.len() as u64) as usize];
        let times = (next() % 5) as u32; // 0..=4 refused step calls
        fed.net.install_faults(step_outage(host, times));
        match fed.portal.submit(ordered_three_sql()) {
            Ok((result, _)) => {
                completed += 1;
                assert_eq!(
                    result.to_ascii(),
                    reference,
                    "seed {seed:#x} round {round}: survived result diverged \
                     ({times} outages at {host})"
                );
            }
            Err(e) => {
                failed += 1;
                assert!(
                    matches!(e, FederationError::NodeUnhealthy { .. }),
                    "seed {seed:#x} round {round}: expected a typed outage error, got {e}"
                );
            }
        }
    }
    assert!(completed > 0, "seed {seed:#x}: no round ever completed");
    let _ = failed; // some schedules never exhaust a budget — that's fine

    // Drain: everything leased during the soak (including transfers
    // orphaned by failed rounds) is reclaimed once its TTL passes.
    fed.net.advance_clock(fed.portal.config().lease_ttl_s + 1.0);
    for archive in ["SDSS", "TWOMASS", "FIRST"] {
        fed.node(archive).unwrap().sweep_leases(&fed.net);
    }
    assert_all_drained(&fed, &format!("soak seed {seed:#x}"));
}

#[test]
fn chaos_soak_seed_a() {
    chaos_soak(0x00C0_FFEE);
}

#[test]
fn chaos_soak_seed_b() {
    chaos_soak(0x0005_EED5);
}

/// Extra schedules via `SKYQUERY_SOAK_SEEDS=1,2,3` (comma-separated);
/// a no-op when unset, so CI can widen the sweep without a code change.
#[test]
fn chaos_soak_env_seeds() {
    let Ok(seeds) = std::env::var("SKYQUERY_SOAK_SEEDS") else {
        return;
    };
    for s in seeds.split(',').filter(|s| !s.trim().is_empty()) {
        let seed: u64 = s
            .trim()
            .parse()
            .expect("SKYQUERY_SOAK_SEEDS entries are u64");
        chaos_soak(seed);
    }
}
