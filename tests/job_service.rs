//! Integration tests for the multi-tenant asynchronous job service.
//!
//! The invariants under test:
//!
//! * a job's fetched result is byte-identical to the same query run
//!   synchronously through the Portal, in both chain modes;
//! * an oversized result paginates through the chunked-transfer
//!   machinery and the pagination sessions drain afterwards;
//! * `AbortTransfer` is idempotent, each delivery opens the next transfer
//!   id, and cancelling a job frees its open transfers;
//! * a slow paginated download keeps its job alive past the record TTL;
//! * an admission-control refusal is a deterministic `Client` SOAP fault
//!   the retry policy never re-sends;
//! * quotas admit exactly up to the bound; priorities order jobs within
//!   a tenant but never invert fairness across tenants;
//! * duplicate submissions under one client reference are idempotent;
//! * polling an unknown or swept job answers `LeaseExpired`, and an
//!   unfetched result decays `Succeeded → Expired` at its TTL;
//! * cancelling an in-flight checkpointed chain frees it immediately — no
//!   TTL wait — and no archive node holds a lease on its behalf;
//! * the generated WSDL describes every job method.

use std::sync::Arc;

use skyquery_core::{
    open_chunk_stream, send_rpc, ChainMode, FederationConfig, FederationError, RetryPolicy,
};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig, JobState, QuotaClass};
use skyquery_sim::{FederationBuilder, TestFederation};
use skyquery_soap::{wsdl, ChunkManifest, RpcCall, RpcResponse, SoapValue};
use skyquery_storage::Value;
use skyquery_xml::{Element, VoTable};

const JOBS_HOST: &str = "jobs.skyquery.net";

/// Three mandatory archives with a total ORDER BY, so equal match *sets*
/// render to equal bytes regardless of execution order.
fn ordered_three_sql() -> &'static str {
    "SELECT O.object_id, T.object_id, P.object_id \
     FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
     WHERE XMATCH(O, T, P) < 3.5 \
     ORDER BY O.object_id, T.object_id, P.object_id"
}

fn federation(mode: ChainMode) -> TestFederation {
    let fed = FederationBuilder::paper_triple(200).build();
    fed.portal.set_config(FederationConfig {
        chain_mode: mode,
        ..fed.portal.config()
    });
    fed
}

fn job_service(fed: &TestFederation, config: JobServiceConfig) -> Arc<JobService> {
    JobService::start(&fed.net, JOBS_HOST, fed.portal.clone(), config)
}

fn client(fed: &TestFederation, svc: &JobService, name: &str) -> JobClient {
    JobClient::new(&fed.net, name, svc.url())
}

/// Drives the service to quiescence, recording the order in which jobs
/// entered the execution pool.
fn run_recording_admissions(svc: &JobService) -> Vec<u64> {
    let mut order: Vec<u64> = Vec::new();
    for _ in 0..100_000 {
        let progressed = svc.pump();
        for id in svc.running() {
            if !order.contains(&id) {
                order.push(id);
            }
        }
        if !progressed {
            return order;
        }
    }
    panic!("job service failed to quiesce");
}

#[test]
fn fetched_result_is_byte_identical_to_synchronous_portal() {
    for mode in [ChainMode::Recursive, ChainMode::Checkpointed] {
        let fed = federation(mode);
        let (reference, _) = fed.portal.submit(ordered_three_sql()).unwrap();
        let svc = job_service(&fed, JobServiceConfig::default());
        let cli = client(&fed, &svc, "alice-web");

        let id = cli.submit("alice", ordered_three_sql()).unwrap();
        svc.run_until_idle(100_000);

        let status = cli.poll(id).unwrap();
        assert_eq!(status.state, JobState::Succeeded, "mode {mode:?}");
        assert_eq!(status.result_rows, Some(reference.row_count()));
        assert!(status.error.is_none());

        let fetched = cli.fetch(id).unwrap();
        assert_eq!(
            fetched.to_votable("result").to_xml(),
            reference.to_votable("result").to_xml(),
            "mode {mode:?}: async result diverged from synchronous Portal run"
        );
    }
}

#[test]
fn oversized_results_paginate_through_chunked_transfer_and_drain() {
    let fed = federation(ChainMode::Recursive);
    let (reference, _) = fed.portal.submit(ordered_three_sql()).unwrap();
    assert!(
        reference.row_count() > 4,
        "test premise: a multi-row result"
    );
    // Squeeze the federation's message limit under the result VOTable's
    // size, so the job's result cannot ride one SOAP reply. (Not too far
    // under: intermediate partial-set rows are wider than result rows
    // and still must fit one per chunk.)
    let limit = reference.to_votable("result").to_xml().len() * 3 / 4;
    fed.portal.set_config(FederationConfig {
        max_message_bytes: limit,
        ..fed.portal.config()
    });
    let svc = job_service(&fed, JobServiceConfig::default());
    let cli = client(&fed, &svc, "alice-web");

    let id = cli.submit("alice", ordered_three_sql()).unwrap();
    svc.run_until_idle(100_000);
    let status = cli.poll(id).unwrap();
    assert_eq!(
        status.state,
        JobState::Succeeded,
        "job error: {:?}",
        status.error
    );

    let chunks_before = fed.net.metrics().chunk_total().chunks;
    let fetched = cli.fetch(id).unwrap();
    let chunks_after = fed.net.metrics().chunk_total().chunks;

    assert_eq!(
        fetched.to_votable("result").to_xml(),
        reference.to_votable("result").to_xml(),
        "paginated result diverged"
    );
    assert!(
        chunks_after > chunks_before,
        "the fetch should have streamed FetchChunk continuations"
    );
    assert!(
        svc.open_transfers().is_empty(),
        "serving the last chunk must free the pagination session"
    );
}

/// A succeeded `ordered_three_sql` job over `bodies` bodies per archive
/// whose delivery has begun: the message limit was squeezed, after the
/// job ran, to `limit` of the result VOTable's size, so only the result
/// itself pages, and `FetchResults` answered a manifest.
struct PaginatedJob {
    fed: TestFederation,
    svc: Arc<JobService>,
    id: u64,
    /// The synchronous Portal run's result VOTable.
    reference: String,
    manifest: ChunkManifest,
}

impl PaginatedJob {
    fn start(bodies: usize, config: JobServiceConfig, limit: fn(usize) -> usize) -> PaginatedJob {
        let fed = FederationBuilder::paper_triple(bodies).build();
        let (reference, _) = fed.portal.submit(ordered_three_sql()).unwrap();
        let reference = reference.to_votable("result").to_xml();
        let svc = job_service(&fed, config);
        let id = client(&fed, &svc, "alice-web")
            .submit("alice", ordered_three_sql())
            .unwrap();
        svc.run_until_idle(100_000);
        fed.portal.set_config(FederationConfig {
            max_message_bytes: limit(reference.len()),
            ..fed.portal.config()
        });
        let manifest = fetch_results(&fed, &svc, id);
        PaginatedJob {
            fed,
            svc,
            id,
            reference,
            manifest,
        }
    }

    /// Sends `call` to the job service as the `alice-web` client.
    fn call(&self, call: RpcCall) -> Result<RpcResponse, FederationError> {
        send_rpc(&self.fed.net, "alice-web", &self.svc.url(), &call)
    }

    /// `AbortTransfer` for `transfer_id`: whether the service freed it.
    fn abort(&self, transfer_id: u64) -> bool {
        let resp = self
            .call(
                RpcCall::new("AbortTransfer")
                    .param("transfer_id", SoapValue::Int(transfer_id as i64)),
            )
            .unwrap();
        resp.require("aborted").unwrap().as_bool().unwrap()
    }
}

/// `FetchResults` for job `id`, which must answer a manifest.
fn fetch_results(fed: &TestFederation, svc: &JobService, id: u64) -> ChunkManifest {
    let call = RpcCall::new("FetchResults").param("job", SoapValue::Int(id as i64));
    let resp = send_rpc(&fed.net, "alice-web", &svc.url(), &call).unwrap();
    ChunkManifest::from_element(resp.require("manifest").unwrap().as_xml().unwrap())
        .expect("an oversized result answers a manifest")
}

#[test]
fn fetch_chunk_with_negative_index_is_refused() {
    let job = PaginatedJob::start(200, JobServiceConfig::default(), |len| len * 3 / 4);
    let err = job
        .call(
            RpcCall::new("FetchChunk")
                .param(
                    "transfer_id",
                    SoapValue::Int(job.manifest.transfer_id as i64),
                )
                .param("index", SoapValue::Int(-1)),
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("must be a non-negative integer"),
        "{err}"
    );
    assert_eq!(
        job.svc.open_transfers(),
        vec![job.manifest.transfer_id],
        "a refused index leaves the transfer open"
    );
}

/// The job service's side of the transfer contract: `AbortTransfer` is
/// idempotent, each `FetchResults` opens the next transfer id, and
/// cancelling a succeeded job frees its open transfer with its result.
#[test]
fn job_transfers_abort_idempotently_count_up_and_die_with_a_cancel() {
    let job = PaginatedJob::start(200, JobServiceConfig::default(), |len| len * 3 / 4);
    let first = job.manifest.transfer_id;
    assert!(job.abort(first), "an open transfer is freed");
    assert!(!job.abort(first), "a second abort finds nothing to free");
    assert!(job.svc.open_transfers().is_empty());

    let second = fetch_results(&job.fed, &job.svc, job.id);
    assert_eq!(second.transfer_id, first + 1);
    assert_eq!(job.svc.open_transfers(), vec![second.transfer_id]);

    let cli = client(&job.fed, &job.svc, "alice-web");
    assert!(!cli.cancel(job.id).unwrap(), "the job was already terminal");
    assert!(
        job.svc.open_transfers().is_empty(),
        "cancelling a job frees its open transfer"
    );
    assert_eq!(cli.poll(job.id).unwrap().state, JobState::Expired);
}

/// A receiver pulling a paginated result slowly keeps the whole job
/// alive: each `FetchChunk` renews the job's record and result leases as
/// well as the transfer, so a record sweep can never cut the download
/// off mid-stream, however long it runs past the record TTL.
#[test]
fn a_slow_paginated_download_outlives_the_record_ttl() {
    let config = JobServiceConfig {
        result_ttl_s: 30.0,
        record_ttl_s: 120.0,
        ..JobServiceConfig::default()
    };
    let job = PaginatedJob::start(1500, config, |len| len / 8);
    assert_eq!(job.manifest.total_chunks(), 28, "test premise");
    let mut stream = open_chunk_stream(
        &job.fed.net,
        "alice-web",
        &job.svc.url(),
        job.manifest.clone(),
        RetryPolicy::none(),
    );
    let mut chunks = Vec::new();
    for index in 0..job.manifest.total_chunks() {
        // Just inside the result TTL, so only the record's lapses first.
        job.fed.net.advance_clock(29.0);
        match stream.fetch_next() {
            Ok(Some(chunk)) => chunks.push(chunk),
            other => panic!("chunk {index} at t = {}s: {other:?}", job.fed.net.now_s()),
        }
    }
    assert_eq!(VoTable::concat(chunks).unwrap().to_xml(), job.reference);
    assert!(job.svc.open_transfers().is_empty());
}

#[test]
fn queue_full_rejection_is_a_deterministic_client_fault_never_retried() {
    let fed = federation(ChainMode::Recursive);
    let svc = job_service(
        &fed,
        JobServiceConfig {
            tenant_max_queued: 2,
            max_queued: 4,
            ..JobServiceConfig::default()
        },
    );
    // A retry-happy client: the refusal must still surface immediately.
    let cli = client(&fed, &svc, "alice-web").with_retry(RetryPolicy::default());

    cli.submit("alice", ordered_three_sql()).unwrap();
    cli.submit("alice", ordered_three_sql()).unwrap();

    let retries_before = fed.net.metrics().retry_total().retries;
    let err = cli.submit("alice", ordered_three_sql()).unwrap_err();
    let retries_after = fed.net.metrics().retry_total().retries;

    match &err {
        FederationError::Fault(f) => {
            assert_eq!(f.code, "Client", "admission refusal must be a Client fault");
            assert!(
                f.message.contains("rejected") && f.message.contains("alice"),
                "fault names the tenant and the refusal: {}",
                f.message
            );
        }
        other => panic!("expected a SOAP fault, got {other}"),
    }
    assert!(!err.is_retryable(), "a quota refusal is deterministic");
    assert_eq!(
        retries_after, retries_before,
        "the retry policy must not have re-sent the refused submission"
    );
    assert_eq!(fed.net.metrics().job_stats("alice").rejected, 1);

    // The native API surfaces the typed error (the wire flattens it to a
    // fault; in-process callers keep the structure).
    match svc.submit("alice", ordered_three_sql(), 0, QuotaClass::Free, None) {
        Err(FederationError::JobRejected { tenant, .. }) => assert_eq!(tenant, "alice"),
        other => panic!("expected JobRejected, got {other:?}"),
    }
}

#[test]
fn quota_exactly_reached_admits_the_bound_and_not_one_more() {
    let fed = federation(ChainMode::Checkpointed);
    let svc = job_service(
        &fed,
        JobServiceConfig {
            max_running: 4,
            tenant_max_running: 1,
            tenant_max_queued: 2,
            ..JobServiceConfig::default()
        },
    );
    let cli = client(&fed, &svc, "alice-web");

    // Exactly at the queue bound: both accepted.
    let a = cli.submit("alice", ordered_three_sql()).unwrap();
    let b = cli.submit("alice", ordered_three_sql()).unwrap();

    // One pump admits: the concurrent-chain cap (1) holds the second job
    // back even though the pool (4) has room.
    svc.pump();
    assert_eq!(svc.running().len(), 1, "tenant_max_running caps the pool");
    assert_eq!(svc.queued().len(), 1);

    svc.run_until_idle(100_000);
    for id in [a, b] {
        assert_eq!(cli.poll(id).unwrap().state, JobState::Succeeded);
    }
}

#[test]
fn priorities_order_within_a_tenant_but_never_across_tenants() {
    let fed = federation(ChainMode::Recursive);
    let svc = job_service(
        &fed,
        JobServiceConfig {
            max_running: 1,
            tenant_max_running: 1,
            ..JobServiceConfig::default()
        },
    );
    let cli = client(&fed, &svc, "web");

    // Alice floods first with a high- and a low-priority job; Bob's
    // single low-priority job arrives last. Equal weights.
    let (a_high, _) = cli
        .submit_with("alice", ordered_three_sql(), 5, QuotaClass::Standard, None)
        .unwrap();
    let (a_low, _) = cli
        .submit_with("alice", ordered_three_sql(), 1, QuotaClass::Standard, None)
        .unwrap();
    let (b_low, _) = cli
        .submit_with("bob", ordered_three_sql(), 0, QuotaClass::Standard, None)
        .unwrap();

    let order = run_recording_admissions(&svc);
    // Within alice: the high-priority job runs before the low one.
    // Across tenants: bob's job is NOT starved behind alice's whole
    // backlog — fair queuing interleaves him after alice's first win,
    // despite every alice job outranking his on raw priority.
    assert_eq!(
        order,
        vec![a_high, b_low, a_low],
        "expected within-tenant priority order and cross-tenant fairness"
    );
    for id in [a_high, a_low, b_low] {
        assert_eq!(cli.poll(id).unwrap().state, JobState::Succeeded);
    }
}

#[test]
fn duplicate_submissions_under_one_client_ref_are_idempotent() {
    let fed = federation(ChainMode::Recursive);
    let svc = job_service(&fed, JobServiceConfig::default());
    let cli = client(&fed, &svc, "alice-web");

    let (first, dup) = cli
        .submit_with(
            "alice",
            ordered_three_sql(),
            0,
            QuotaClass::Standard,
            Some("req-42"),
        )
        .unwrap();
    assert!(!dup);
    let (second, dup) = cli
        .submit_with(
            "alice",
            ordered_three_sql(),
            0,
            QuotaClass::Standard,
            Some("req-42"),
        )
        .unwrap();
    assert!(dup, "the second submission must be flagged as a duplicate");
    assert_eq!(first, second);
    assert_eq!(svc.job_states().len(), 1, "no second job was queued");

    // Idempotency holds across the job's whole record lifetime: even
    // after it finishes, the same reference answers the same id.
    svc.run_until_idle(100_000);
    let (third, dup) = cli
        .submit_with(
            "alice",
            ordered_three_sql(),
            0,
            QuotaClass::Standard,
            Some("req-42"),
        )
        .unwrap();
    assert!(dup);
    assert_eq!(first, third);

    // A different tenant's identical reference is a different job.
    let (other, dup) = cli
        .submit_with(
            "bob",
            ordered_three_sql(),
            0,
            QuotaClass::Standard,
            Some("req-42"),
        )
        .unwrap();
    assert!(!dup);
    assert_ne!(first, other);
}

#[test]
fn unknown_and_swept_jobs_answer_lease_expired() {
    let fed = federation(ChainMode::Recursive);
    let svc = job_service(
        &fed,
        JobServiceConfig {
            result_ttl_s: 30.0,
            record_ttl_s: 120.0,
            ..JobServiceConfig::default()
        },
    );
    let cli = client(&fed, &svc, "alice-web");

    // Unknown id: a deterministic Client fault naming the job lease.
    match cli.poll(999).unwrap_err() {
        FederationError::Fault(f) => {
            assert_eq!(f.code, "Client");
            assert!(f.message.contains("job"), "fault: {}", f.message);
        }
        other => panic!("expected a fault, got {other}"),
    }
    match svc.poll(999) {
        Err(FederationError::LeaseExpired { kind, id, .. }) => {
            assert_eq!(kind, "job");
            assert_eq!(id, 999);
        }
        other => panic!("expected LeaseExpired, got {other:?}"),
    }

    // An unfetched result decays Succeeded → Expired at its TTL...
    let id = cli.submit("alice", ordered_three_sql()).unwrap();
    svc.run_until_idle(100_000);
    assert_eq!(cli.poll(id).unwrap().state, JobState::Succeeded);
    fed.net.advance_clock(31.0);
    let status = cli.poll(id).unwrap();
    assert_eq!(status.state, JobState::Expired);
    assert!(status.result_rows.is_none(), "reclaimed rows are gone");
    assert!(svc.held_results().is_empty());
    assert_eq!(fed.net.metrics().job_stats("alice").expired, 1);
    assert_eq!(
        fed.net.metrics().job_stats("alice").succeeded,
        0,
        "expiry reclassifies the terminal outcome, not double-counts it"
    );
    match cli.fetch(id).unwrap_err() {
        FederationError::Fault(f) => {
            assert!(f.message.contains("result"), "fault: {}", f.message)
        }
        other => panic!("expected a fault, got {other}"),
    }

    // ...and once the record lease lapses too, the job id itself is gone.
    fed.net.advance_clock(120.0);
    match svc.poll(id) {
        Err(FederationError::LeaseExpired { kind, .. }) => assert_eq!(kind, "job"),
        other => panic!("expected LeaseExpired, got {other:?}"),
    }
    assert_eq!(svc.active_leases(), 0, "everything drained");
}

#[test]
fn cancelling_an_inflight_chain_leaves_no_node_lease() {
    let fed = federation(ChainMode::Checkpointed);
    let svc = job_service(&fed, JobServiceConfig::default());
    let cli = client(&fed, &svc, "alice-web");

    let id = cli.submit("alice", ordered_three_sql()).unwrap();
    // Admit, plan, then execute the first chain step — the walk now
    // holds a committed set, at the Portal.
    svc.pump();
    svc.pump();
    svc.pump();
    assert_eq!(cli.poll(id).unwrap().state, JobState::Running);
    let executed: u64 = fed.nodes.iter().map(|n| n.executed_steps()).sum();
    assert!(executed > 0, "test premise: the walk has committed a step");
    // Mid-walk, no archive node holds a lease on the walk's behalf.
    for node in &fed.nodes {
        assert_eq!(
            node.active_leases(),
            0,
            "{} holds a lease",
            node.info().name
        );
    }

    assert!(cli.cancel(id).unwrap());

    // Immediately — no clock advance, no janitor sweep — every archive
    // is still clean.
    for node in &fed.nodes {
        assert!(node.open_transfers().is_empty());
        assert_eq!(node.active_leases(), 0);
    }
    assert!(svc.held_results().is_empty());
    assert!(svc.running().is_empty());
    let status = cli.poll(id).unwrap();
    assert_eq!(status.state, JobState::Cancelled);
    assert_eq!(fed.net.metrics().job_stats("alice").cancelled, 1);

    // Cancelling a terminal job is a no-op answer, not an error.
    assert!(!cli.cancel(id).unwrap());
    // And the pool is free for the next job.
    let id2 = cli.submit("alice", ordered_three_sql()).unwrap();
    svc.run_until_idle(100_000);
    assert_eq!(cli.poll(id2).unwrap().state, JobState::Succeeded);
}

/// Runs `ordered_three_sql` as a cold job and then as its repeat through
/// a capacity-4 result cache, returning the cache counters after each
/// and the chain steps the repeat executed.
fn cold_job_then_repeat(mode: ChainMode) -> [(u64, u64); 2] {
    let fed = federation(mode);
    fed.portal.set_config(FederationConfig {
        result_cache_capacity: 4,
        ..fed.portal.config()
    });
    let svc = job_service(&fed, JobServiceConfig::default());
    let cli = client(&fed, &svc, "alice-web");
    let steps = || fed.nodes.iter().map(|n| n.executed_steps()).sum::<u64>();
    let run = || {
        let id = cli.submit("alice", ordered_three_sql()).unwrap();
        svc.run_until_idle(100_000);
        assert_eq!(cli.poll(id).unwrap().state, JobState::Succeeded);
        let counters = fed.portal.cache_report().0;
        (cli.fetch(id).unwrap(), (counters.hits, counters.misses))
    };
    let (cold, after_cold) = run();
    let steps_before = steps();
    let (repeat, after_repeat) = run();
    assert_eq!(
        repeat.to_votable("result").to_xml(),
        cold.to_votable("result").to_xml(),
        "mode {mode:?}: the repeat diverged from the cold job"
    );
    assert_eq!(
        steps(),
        steps_before,
        "mode {mode:?}: a hit must not execute any chain step"
    );
    [after_cold, after_repeat]
}

/// One classification per submission: the job service leaves the cache
/// lookup to the Portal, so a cold job is one miss, not two.
#[test]
fn a_jobs_cache_miss_is_counted_once() {
    let [(_, cold_misses), (hits, misses)] = cold_job_then_repeat(ChainMode::Recursive);
    assert_eq!(cold_misses, 1, "a cold job is classified exactly once");
    assert_eq!((hits, misses), (1, 1));
}

/// A walked job records like any other execution: under
/// `ChainMode::Checkpointed` the second identical job is a hit.
#[test]
fn checkpointed_jobs_populate_the_cache() {
    let [_, (hits, misses)] = cold_job_then_repeat(ChainMode::Checkpointed);
    assert_eq!((hits, misses), (1, 1));
}

/// A job lives the Portal's own submission, one quantum per pump, and
/// answers in the quantum that completes its work. The first quantum
/// plans and, with the cache on, classifies, so a cache hit answers in
/// it in both modes. Otherwise under `Recursive` the second runs the
/// whole chain, and under `Checkpointed` each later quantum runs one walk
/// step and the last step answers, so a 3-step walk takes four quanta.
/// Between "admitted" and "finished" the job records the
/// actions `Portal::submit` records between "submit" and "relay", and it
/// delivers the same bytes. A faulted case drops the first count-star to
/// 2MASS, which the retry policy re-sends: both record the Portal's
/// "recovery" line, before the step lines.
#[test]
fn a_job_runs_the_portals_submission_quantum_by_quantum() {
    use skyquery_net::FaultPlan;

    for (mode, capacity, faulted) in [ChainMode::Recursive, ChainMode::Checkpointed]
        .into_iter()
        .flat_map(|mode| [(mode, 0, false), (mode, 4, false), (mode, 0, true)])
    {
        let build = || {
            let fed = federation(mode);
            fed.portal.set_config(FederationConfig {
                result_cache_capacity: capacity,
                ..fed.portal.config()
            });
            if faulted {
                fed.net
                    .install_faults(FaultPlan::new().flaky_once("twomass.skyquery.net"));
            }
            fed
        };
        // The Portal's submissions and the jobs run on twin federations,
        // so each cache and fault plan sees one cold run then a repeat.
        let (reference, jobs) = (build(), build());
        let svc = job_service(&jobs, JobServiceConfig::default());
        let cli = client(&jobs, &svc, "alice-web");
        for repeat in [false, true] {
            let case = format!("{mode:?}, capacity {capacity}, faulted {faulted}, repeat {repeat}");
            let (expected, trace) = reference.portal.submit(ordered_three_sql()).unwrap();
            let id = cli.submit("alice", ordered_three_sql()).unwrap();
            let mut pumps = 0;
            while svc.poll(id).unwrap().state != JobState::Succeeded {
                assert!(pumps < 100, "{case}: the job never succeeded");
                svc.pump();
                pumps += 1;
            }
            let hit = repeat && capacity > 0;
            let quanta = match mode {
                _ if hit => 1,
                ChainMode::Recursive => 2,
                ChainMode::Checkpointed => 4,
            };
            assert_eq!(pumps, quanta, "{case}");

            let portal: Vec<&str> = trace.events().iter().map(|e| e.action.as_str()).collect();
            assert_eq!(
                (portal[0], portal[portal.len() - 1]),
                ("submit", "relay"),
                "{case}"
            );
            let mut actions = vec!["queued", "admitted"];
            actions.extend(&portal[1..portal.len() - 1]);
            actions.push("finished");
            let job = svc.job_trace(id).unwrap();
            assert_eq!(
                job.iter().map(|e| e.1.as_str()).collect::<Vec<_>>(),
                actions,
                "{case}"
            );
            let recovery = job.iter().find(|e| e.1 == "recovery");
            assert_eq!(recovery.is_some(), faulted && !repeat, "{case}");
            if let Some((actor, _, detail)) = recovery {
                assert_eq!(actor, "Portal");
                assert!(detail.ends_with("during submission"), "{detail}");
            }
            assert_eq!(
                cli.fetch(id).unwrap().to_votable("result").to_xml(),
                expected.to_votable("result").to_xml(),
                "{case}"
            );
        }
    }
}

/// Inserts one object into each of the three archives at one position,
/// so every answer of `ordered_three_sql` gains a three-way match, and
/// has the Portal re-read their table versions.
fn grow(fed: &TestFederation) {
    for (archive, id, ra, dec) in [
        ("SDSS", 990_001, 185.02, -0.48),
        ("TWOMASS", 990_002, 185.0201, -0.4799),
        ("FIRST", 990_003, 185.0199, -0.4801),
    ] {
        let node = fed.node(archive).expect("archive registered");
        let table = node.info().primary_table.clone();
        let row = vec![
            Value::Id(id),
            Value::Float(ra),
            Value::Float(dec),
            Value::Text("GALAXY".into()),
            Value::Float(1.0),
        ];
        node.with_db(|db| db.insert(&table, row).unwrap());
        fed.portal.refresh_table_versions(archive).unwrap();
    }
}

/// `federation(mode)` with a capacity-4 result cache.
fn cached_federation(mode: ChainMode) -> TestFederation {
    let fed = federation(mode);
    fed.portal.set_config(FederationConfig {
        result_cache_capacity: 4,
        ..fed.portal.config()
    });
    fed
}

/// A job the cache answers by an inline repair answers in its first
/// quantum, as a hit does, and delivers the bytes `Portal::submit`
/// renders on a twin federation grown the same way.
#[test]
fn a_repaired_submission_answers_in_one_quantum() {
    for mode in [ChainMode::Recursive, ChainMode::Checkpointed] {
        let (reference, jobs) = (cached_federation(mode), cached_federation(mode));
        let svc = job_service(&jobs, JobServiceConfig::default());
        let cli = client(&jobs, &svc, "alice-web");
        reference.portal.submit(ordered_three_sql()).unwrap();
        let cold = cli.submit("alice", ordered_three_sql()).unwrap();
        svc.run_until_idle(100_000);
        let cold = cli.fetch(cold).unwrap();
        grow(&reference);
        grow(&jobs);

        let (expected, trace) = reference.portal.submit(ordered_three_sql()).unwrap();
        assert!(trace.contains_action("cache repair"), "{mode:?}: premise");
        assert!(expected.row_count() > cold.row_count(), "{mode:?}: premise");
        let id = cli.submit("alice", ordered_three_sql()).unwrap();
        svc.pump();
        assert_eq!(svc.poll(id).unwrap().state, JobState::Succeeded, "{mode:?}");
        let job = svc.job_trace(id).unwrap();
        assert!(job.iter().any(|e| e.1 == "cache repair"), "{mode:?}");
        assert_eq!(
            cli.fetch(id).unwrap().to_votable("result").to_xml(),
            expected.to_votable("result").to_xml(),
            "{mode:?}"
        );
    }
}

/// A job the cache answers reads `Succeeded` on the first `PollJob`
/// after one pump: no quantum, and no poll, is spent on an answer the
/// planning quantum already had.
#[test]
fn a_cache_hit_job_succeeds_on_the_first_poll() {
    for mode in [ChainMode::Recursive, ChainMode::Checkpointed] {
        let fed = cached_federation(mode);
        let svc = job_service(&fed, JobServiceConfig::default());
        let cli = client(&fed, &svc, "alice-web");
        let cold = cli.submit("alice", ordered_three_sql()).unwrap();
        svc.run_until_idle(100_000);

        let id = cli.submit("alice", ordered_three_sql()).unwrap();
        svc.pump();
        let status = cli.poll(id).unwrap();
        assert_eq!(status.state, JobState::Succeeded, "{mode:?}");
        let job = svc.job_trace(id).unwrap();
        assert!(job.iter().any(|e| e.1 == "cache hit"), "{mode:?}");
        assert_eq!(
            cli.fetch(id).unwrap().to_votable("result").to_xml(),
            cli.fetch(cold).unwrap().to_votable("result").to_xml(),
            "{mode:?}"
        );
        assert!(!svc.pump(), "{mode:?}: nothing is left to run");
    }
}

/// The planning quantum classifies against the registry as it stands
/// when the job runs, not when it was submitted: rows inserted, and the
/// registry refreshed, between submit and the first pump are never
/// answered as a hit. The job repairs or runs cold, and its answer holds
/// the new rows.
#[test]
fn growth_between_submit_and_the_first_pump_is_never_a_hit() {
    for mode in [ChainMode::Recursive, ChainMode::Checkpointed] {
        let (fed, cold) = (cached_federation(mode), federation(mode));
        let svc = job_service(&fed, JobServiceConfig::default());
        let cli = client(&fed, &svc, "alice-web");
        let first = cli.submit("alice", ordered_three_sql()).unwrap();
        svc.run_until_idle(100_000);
        let before = cli.fetch(first).unwrap();

        let id = cli.submit("alice", ordered_three_sql()).unwrap();
        grow(&fed);
        grow(&cold);
        svc.run_until_idle(100_000);
        let job = svc.job_trace(id).unwrap();
        assert!(job.iter().all(|e| e.1 != "cache hit"), "{mode:?}: {job:?}");
        let (expected, _) = cold.portal.submit(ordered_three_sql()).unwrap();
        let got = cli.fetch(id).unwrap();
        assert!(got.row_count() > before.row_count(), "{mode:?}");
        assert_eq!(
            got.to_votable("result").to_xml(),
            expected.to_votable("result").to_xml(),
            "{mode:?}"
        );
    }
}

#[test]
fn wsdl_describes_every_job_method() {
    let fed = federation(ChainMode::Recursive);
    let svc = job_service(&fed, JobServiceConfig::default());
    let doc = Element::parse(&svc.wsdl()).unwrap();
    let ops = wsdl::operation_names(&doc).unwrap();
    for method in JobService::service_names() {
        assert!(
            ops.iter().any(|o| o == method),
            "WSDL is missing {method}: {ops:?}"
        );
    }
    assert_eq!(wsdl::endpoint_address(&doc).unwrap(), svc.url().to_string());
}

/// Partial-result honesty on the async path: a job that succeeds around
/// a dead drop-out replica group carries the degraded flag and the
/// dropped archive names on both `PollJob` and `FetchResults`, so an
/// asynchronous client can detect the partial answer without diffing
/// row counts against a reference run.
#[test]
fn degraded_jobs_flag_partial_results_on_poll_and_fetch() {
    use skyquery_net::{FaultKind, FaultPlan, FaultRule};

    let mut plan = FaultPlan::new();
    for host in [
        "first-s0.skyquery.net",
        "first-s0r1.skyquery.net",
        "first-s1.skyquery.net",
        "first-s1r1.skyquery.net",
    ] {
        plan = plan.rule(
            FaultRule::new(FaultKind::HostDown)
                .host(host)
                .action("ScatterStep")
                .times(1000),
        );
    }
    let fed = FederationBuilder::paper_triple(200)
        .shards(2)
        .replicas(2)
        .faults(plan)
        .build();
    fed.portal.set_config(FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..fed.portal.config()
    });
    let svc = job_service(&fed, JobServiceConfig::default());
    let cli = client(&fed, &svc, "alice-web");

    let sql = "SELECT O.object_id, T.object_id \
               FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
               WHERE XMATCH(O, T, !P) < 3.5 \
               ORDER BY O.object_id, T.object_id";
    let id = cli.submit("alice", sql).unwrap();
    svc.run_until_idle(100_000);

    let status = cli.poll(id).unwrap();
    assert_eq!(status.state, JobState::Succeeded);
    assert!(status.degraded, "PollJob must carry the degraded flag");
    assert_eq!(status.dropped_archives, vec!["FIRST".to_string()]);

    let fetched = cli.fetch(id).unwrap();
    assert!(
        fetched.degraded,
        "FetchResults must carry the degraded flag"
    );
    assert_eq!(fetched.dropped_archives, vec!["FIRST".to_string()]);
    assert!(fetched.row_count() > 0, "the partial answer still has rows");

    // A healthy job on the same service shape stays unflagged.
    let clean = FederationBuilder::paper_triple(200)
        .shards(2)
        .replicas(2)
        .build();
    clean.portal.set_config(FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..clean.portal.config()
    });
    let svc2 = job_service(&clean, JobServiceConfig::default());
    let cli2 = client(&clean, &svc2, "alice-web");
    let id2 = cli2.submit("alice", sql).unwrap();
    svc2.run_until_idle(100_000);
    let st = cli2.poll(id2).unwrap();
    assert_eq!(st.state, JobState::Succeeded);
    assert!(!st.degraded);
    assert!(st.dropped_archives.is_empty());
    assert!(!cli2.fetch(id2).unwrap().degraded);
}
