//! Result-cache behavior: a repeat query is served from the Portal's
//! cache without executing a single chain step; after archives grow, an
//! incremental repair (probing only the delta rows) is byte-identical
//! to a cold run over the same data — across kernels, chain modes, and
//! shard counts; an expired cache lease forces a clean cold re-run; and
//! failed best-effort cleanup RPCs (checkpoint release, lease renewal)
//! are tallied in the network metrics instead of being swallowed.

use proptest::prelude::*;
use skyquery_core::result_cache::CacheCounters;
use skyquery_core::transfer::{invoke_portal_step, portal_step_call};
use skyquery_core::{
    ChainMode, ExecutionTrace, FederationConfig, FederationError, MatchKernel, PartialSet,
    ResultSet, RetryPolicy,
};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig};
use skyquery_net::{FaultKind, FaultPlan, FaultRule};
use skyquery_sim::{
    paper_query, CatalogParams, FederationBuilder, QuerySpec, SurveyParams, TestFederation,
};
use skyquery_storage::Value;

const SDSS_HOST: &str = "sdss.skyquery.net";
const TWOMASS_HOST: &str = "twomass.skyquery.net";

/// The paper's three-archive federation over a deterministic sky, with
/// the result cache dialed to `cache_capacity` entries. Identical
/// parameters build identical federations, so a cache-enabled build and
/// a cache-disabled twin can be compared byte for byte.
fn fed(
    cache_capacity: usize,
    shards: usize,
    kernel: MatchKernel,
    chain_mode: ChainMode,
) -> TestFederation {
    FederationBuilder::new()
        .catalog(CatalogParams {
            count: 140,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .survey(SurveyParams::first_like())
        .config(FederationConfig {
            result_cache_capacity: cache_capacity,
            result_cache_ttl_s: 600.0,
            kernel,
            chain_mode,
            ..FederationConfig::default()
        })
        .shards(shards)
        .build()
}

/// Three-way cross-match, optionally demoting FIRST to a drop-out term
/// so the repair path has to reconcile all three step kinds (seed,
/// match, drop-out).
fn sweep_query(dropout: bool) -> String {
    QuerySpec {
        archives: vec![
            ("SDSS".into(), "Photo_Object".into(), "O".into(), false),
            ("TWOMASS".into(), "Photo_Primary".into(), "T".into(), false),
            ("FIRST".into(), "Primary_Object".into(), "P".into(), dropout),
        ],
        threshold: 4.0,
        area: None,
        polygon: None,
        predicates: vec![],
        select: vec![],
    }
    .to_sql()
}

fn total_executed_steps(fed: &TestFederation) -> u64 {
    fed.nodes.iter().map(|n| n.executed_steps()).sum()
}

/// Answers `sql` synchronously through the Portal or, given a job
/// service fronting it, as a job. Returns the result and the trace's
/// actions.
fn answer(fed: &TestFederation, jobs: Option<&JobService>, sql: &str) -> (ResultSet, Vec<String>) {
    let Some(svc) = jobs else {
        let (result, trace) = fed.portal.submit(sql).unwrap();
        let actions = trace.events().iter().map(|e| e.action.clone()).collect();
        return (result, actions);
    };
    let cli = JobClient::new(&fed.net, "web", svc.url());
    let id = cli.submit("t", sql).unwrap();
    svc.run_until_idle(100_000);
    let actions = svc
        .job_trace(id)
        .expect("job known")
        .into_iter()
        .map(|(_, action, _)| action)
        .collect();
    (cli.fetch(id).unwrap(), actions)
}

/// Appends deterministic rows to an archive's primary table directly in
/// storage (bumping its modification version), the way an autonomous
/// archive grows between portal queries.
fn inject(fed: &TestFederation, archive: &str, rows: &[(u64, f64, f64)]) {
    let node = fed.node(archive).expect("archive registered");
    let table = node.info().primary_table.clone();
    node.with_db(|db| {
        for &(id, ra, dec) in rows {
            db.insert(
                &table,
                vec![
                    Value::Id(id),
                    Value::Float(ra),
                    Value::Float(dec),
                    Value::Text("GALAXY".into()),
                    Value::Float(1.0),
                ],
            )
            .expect("conforming row");
        }
    });
}

/// The delta workload: a tight clump of new objects near the cap center
/// that lands in every survey, plus one per-archive singleton, so the
/// repair has fresh seed rows, fresh match extensions, and fresh
/// drop-out probes to reconcile.
fn grow_archives(fed: &TestFederation) {
    inject(
        fed,
        "SDSS",
        &[(900_001, 185.02, -0.48), (900_002, 184.70, -0.30)],
    );
    inject(
        fed,
        "TWOMASS",
        &[(910_001, 185.0201, -0.4799), (910_002, 185.40, -0.90)],
    );
    inject(fed, "FIRST", &[(920_001, 185.0199, -0.4801)]);
    for archive in ["SDSS", "TWOMASS", "FIRST"] {
        fed.portal
            .refresh_table_versions(archive)
            .expect("archives stay reachable");
    }
}

#[test]
fn repeat_query_is_served_from_cache_without_chain_steps() {
    let fed = fed(4, 1, MatchKernel::default(), ChainMode::Recursive);
    let sql = sweep_query(false);
    let (first, _) = fed.portal.submit(&sql).unwrap();
    let before = total_executed_steps(&fed);
    assert!(before > 0, "the cold run executes the chain");

    let (second, trace) = fed.portal.submit(&sql).unwrap();
    assert_eq!(first, second, "a hit must serve the same bytes");
    assert_eq!(
        total_executed_steps(&fed),
        before,
        "a cache hit must not execute any chain step"
    );
    assert!(
        trace.events().iter().any(|e| e.action == "cache hit"),
        "the trace must show the hit"
    );
    let (counters, live) = fed.portal.cache_report();
    assert_eq!(counters.hits, 1);
    assert_eq!(counters.misses, 1);
    assert_eq!(live, 1);
}

#[test]
fn distinct_queries_occupy_distinct_entries() {
    let fed = fed(4, 1, MatchKernel::default(), ChainMode::Recursive);
    fed.portal.submit(&sweep_query(false)).unwrap();
    fed.portal.submit(&sweep_query(true)).unwrap();
    let (counters, live) = fed.portal.cache_report();
    assert_eq!(counters.misses, 2, "different semantics, different keys");
    assert_eq!(live, 2);

    // Both repeat submissions hit.
    fed.portal.submit(&sweep_query(false)).unwrap();
    fed.portal.submit(&sweep_query(true)).unwrap();
    assert_eq!(fed.portal.cache_report().0.hits, 2);
}

#[test]
fn expired_lease_forces_a_clean_cold_rerun() {
    let fed = FederationBuilder::new()
        .catalog(CatalogParams {
            count: 140,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .config(FederationConfig {
            result_cache_capacity: 4,
            result_cache_ttl_s: 60.0,
            ..FederationConfig::default()
        })
        .build();
    let sql = QuerySpec {
        archives: vec![
            ("SDSS".into(), "Photo_Object".into(), "O".into(), false),
            ("TWOMASS".into(), "Photo_Primary".into(), "T".into(), false),
        ],
        threshold: 4.0,
        area: None,
        polygon: None,
        predicates: vec![],
        select: vec![],
    }
    .to_sql();

    let (first, _) = fed.portal.submit(&sql).unwrap();
    let before = total_executed_steps(&fed);

    // Let the entry's lease lapse; the sweep must reclaim it and the
    // re-submission must run the chain again rather than serve a set
    // whose lease expired.
    fed.net.advance_clock(120.0);
    let (second, trace) = fed.portal.submit(&sql).unwrap();
    assert_eq!(first, second);
    assert!(
        total_executed_steps(&fed) > before,
        "an expired entry must not short-circuit the chain"
    );
    assert!(trace.events().iter().all(|e| e.action != "cache hit"));
    let (counters, _) = fed.portal.cache_report();
    assert_eq!(counters.hits, 0);
    assert_eq!(counters.misses, 2);
    assert!(counters.evictions >= 1, "the sweep tallies the expiry");
}

#[test]
fn incremental_repair_probes_deltas_without_rerunning_the_chain_cold() {
    let cached = fed(4, 1, MatchKernel::default(), ChainMode::Recursive);
    let cold = fed(0, 1, MatchKernel::default(), ChainMode::Recursive);
    let sql = sweep_query(true);
    let (a, _) = cached.portal.submit(&sql).unwrap();
    let (b, _) = cold.portal.submit(&sql).unwrap();
    assert_eq!(a, b, "the caching walk must not change the result");

    grow_archives(&cached);
    grow_archives(&cold);
    let (repaired, trace) = cached.portal.submit(&sql).unwrap();
    let (rerun, _) = cold.portal.submit(&sql).unwrap();
    assert_eq!(
        repaired, rerun,
        "repair must be byte-identical to a cold run over the grown archives"
    );
    assert!(
        trace.events().iter().any(|e| e.action == "cache repair"),
        "the stale entry must be repaired, not discarded"
    );
    let (counters, _) = cached.portal.cache_report();
    assert_eq!(counters.repairs, 1);
    // Repaired in place: the entry's slot is renewed, not re-inserted,
    // so no eviction is tallied.
    let repaired_counters = CacheCounters {
        hits: 0,
        misses: 1,
        repairs: 1,
        evictions: 0,
    };
    assert_eq!(counters, repaired_counters);

    // The repaired entry validates as a plain hit on the next round.
    let before = total_executed_steps(&cached);
    let (again, _) = cached.portal.submit(&sql).unwrap();
    assert_eq!(again, rerun);
    assert_eq!(total_executed_steps(&cached), before);
    assert_eq!(cached.portal.cache_report().0.hits, 1);
    assert_eq!(
        cached.portal.cache_report().0,
        CacheCounters {
            hits: 1,
            ..repaired_counters
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The identity sweep: across kernels, chain modes, shard counts,
    /// and drop-out shapes, a cache-enabled federation must return the
    /// same bytes as a cache-disabled twin — on the populating run, on
    /// the repeat (hit or repair) run, and after the archives grow.
    #[test]
    fn cached_and_repaired_results_match_cold_execution(
        kernel_ix in 0usize..2,
        mode_ix in 0usize..3,
        shards in 1usize..3,
        dropout in any::<bool>(),
    ) {
        let kernel = [MatchKernel::Columnar, MatchKernel::Htm][kernel_ix];
        // The third driver: checkpointed walks sliced by the job service.
        let (mode, via_jobs) = [
            (ChainMode::Recursive, false),
            (ChainMode::Checkpointed, false),
            (ChainMode::Checkpointed, true),
        ][mode_ix];
        let cached = fed(4, shards, kernel, mode);
        let cold = fed(0, shards, kernel, mode);
        let jobs = via_jobs.then(|| {
            let config = JobServiceConfig::default();
            JobService::start(&cached.net, "jobs.skyquery.net", cached.portal.clone(), config)
        });
        let jobs = jobs.as_deref();
        let sql = sweep_query(dropout);

        let (a1, _) = answer(&cached, jobs, &sql);
        let (b1, _) = cold.portal.submit(&sql).unwrap();
        prop_assert_eq!(&a1, &b1, "populating walk diverged from direct execution");

        let (a2, actions) = answer(&cached, jobs, &sql);
        prop_assert_eq!(&a2, &b1, "cache hit diverged from the cold result");
        prop_assert!(actions.iter().any(|a| a == "cache hit"));

        if shards == 1 {
            // Grow every archive identically in both federations: the
            // cached side must repair incrementally and still match the
            // cold side's full re-run.
            grow_archives(&cached);
            grow_archives(&cold);
            let (a3, actions) = answer(&cached, jobs, &sql);
            let (b3, _) = cold.portal.submit(&sql).unwrap();
            prop_assert_eq!(&a3, &b3, "incremental repair diverged from a cold run");
            prop_assert!(
                actions.iter().any(|a| a == "cache repair"),
                "unsharded monotone growth must take the repair path"
            );
        }
    }
}

/// A recording walk that meets an unhealthy archive re-plans in place
/// like any other walk: it resumes from the committed set — no committed
/// step runs twice — returns the healthy answer, and caches nothing (a
/// re-ordered walk no longer mirrors the plan a hit would be served for).
#[test]
fn recording_walk_resumes_from_the_committed_set_instead_of_rerunning() {
    let sql = "SELECT O.object_id, T.object_id, P.object_id \
               FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
               WHERE XMATCH(O, T, P) < 4 \
               ORDER BY O.object_id, T.object_id, P.object_id";
    let healthy = fed(4, 1, MatchKernel::default(), ChainMode::Checkpointed);
    let (want, clean_trace) = healthy.portal.submit(sql).unwrap();
    assert!(want.row_count() > 0, "test premise: the query matches");
    // The per-step trace lines come out in execution order: the second
    // one names the mid-chain archive.
    let order: Vec<&str> = clean_trace
        .events()
        .iter()
        .filter(|e| e.action == "cross match step")
        .map(|e| e.actor.as_str())
        .collect();
    assert_eq!(order.len(), 3);
    let victim = match order[1] {
        "O" => SDSS_HOST,
        "T" => TWOMASS_HOST,
        "P" => "first.skyquery.net",
        other => panic!("unknown alias {other}"),
    };

    let faulted = fed(4, 1, MatchKernel::default(), ChainMode::Checkpointed);
    faulted.net.install_faults(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::HostDown)
                .host(victim)
                .action("ScatterStep")
                .times(RetryPolicy::default().max_attempts),
        ),
    );
    let (got, trace) = faulted.portal.submit(sql).unwrap();
    assert_eq!(got, want, "the resumed walk must return the healthy bytes");
    for action in ["replan", "resume"] {
        assert!(
            trace.events().iter().any(|e| e.action == action),
            "the trace must carry {action}"
        );
    }
    assert_eq!(
        total_executed_steps(&faulted),
        3,
        "no committed step may run twice"
    );
    assert_eq!(
        faulted.portal.cache_report().1,
        0,
        "a re-planned walk caches nothing"
    );
}

/// A recording walk sliced by the job service spans quanta, so archives
/// can grow — and the registry can learn of it — between its seed step
/// and its populate. Publishing the entry must not roll the registry
/// back to the version the seed observed: the repeat has to see a stale
/// entry and repair it, never validate it as a hit on the old rows.
#[test]
fn growth_during_a_recording_walk_is_never_served_as_a_hit() {
    let cached = fed(4, 1, MatchKernel::default(), ChainMode::Checkpointed);
    let cold = fed(0, 1, MatchKernel::default(), ChainMode::Checkpointed);
    let config = JobServiceConfig::default();
    let svc = JobService::start(
        &cached.net,
        "jobs.skyquery.net",
        cached.portal.clone(),
        config,
    );
    let cli = JobClient::new(&cached.net, "web", svc.url());
    let sql = sweep_query(false);

    let id = cli.submit("t", &sql).unwrap();
    while total_executed_steps(&cached) == 0 {
        assert!(svc.pump(), "the job must reach its seed step");
    }
    assert_eq!(total_executed_steps(&cached), 1, "one step per quantum");
    grow_archives(&cached);
    grow_archives(&cold);
    svc.run_until_idle(100_000);
    cli.fetch(id).expect("the interleaved job completes");

    let (repeat, actions) = answer(&cached, Some(&*svc), &sql);
    let (want, _) = cold.portal.submit(&sql).unwrap();
    assert_eq!(repeat, want, "the repeat must see the grown archives");
    assert!(
        actions.iter().all(|a| a != "cache hit"),
        "an entry whose seed predates the growth is stale, not a hit"
    );
}

/// With the cache on, `ChainMode::Recursive` runs the recording walk
/// with `replan = false`: an archive that stays down for a whole retry
/// budget aborts the submission with the typed error (it is not re-run
/// through a second driver), and nothing is cached.
#[test]
fn recursive_recording_walk_aborts_on_an_unhealthy_archive() {
    let fed = fed(4, 1, MatchKernel::default(), ChainMode::Recursive);
    fed.net.install_faults(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::HostDown)
                .host(TWOMASS_HOST)
                .action("ScatterStep")
                .times(RetryPolicy::default().max_attempts),
        ),
    );
    let err = fed.portal.submit(&sweep_query(false)).unwrap_err();
    assert!(
        matches!(err, FederationError::NodeUnhealthy { .. }),
        "expected NodeUnhealthy, got {err}"
    );
    assert_eq!(
        fed.portal.cache_report().1,
        0,
        "an aborted walk caches nothing"
    );

    // The outage is spent: the same submission now answers and populates.
    fed.portal.submit(&sweep_query(false)).unwrap();
    assert_eq!(fed.portal.cache_report().1, 1);
}

/// Satellite: malformed response bodies on a repair probe's
/// `ScatterStep` — truncated and garbage alike — exhaust its retry
/// budget; the stale entry is evicted and the chain re-runs cold rather
/// than splicing a poisoned delta. The answer stays byte-identical to a
/// clean federation grown the same way.
#[test]
fn malformed_delta_bodies_fall_back_to_a_cold_run_not_a_poisoned_splice() {
    for kind in [FaultKind::TruncateBody, FaultKind::GarbageBody] {
        let cached = fed(4, 1, MatchKernel::default(), ChainMode::Recursive);
        let cold = fed(0, 1, MatchKernel::default(), ChainMode::Recursive);
        let sql = sweep_query(true);
        cached.portal.submit(&sql).unwrap();
        cold.portal.submit(&sql).unwrap();

        grow_archives(&cached);
        grow_archives(&cold);
        // SDSS's replies arrive malformed for one retry budget: its
        // repair probe retries, gives up, and the repair as a whole must
        // abort. The cold run after it finds the fault spent.
        cached.net.install_faults(
            FaultPlan::new().rule(
                FaultRule::new(kind)
                    .host(SDSS_HOST)
                    .action("ScatterStep")
                    .times(RetryPolicy::default().max_attempts),
            ),
        );
        let (repaired, trace) = cached.portal.submit(&sql).unwrap();
        let (rerun, _) = cold.portal.submit(&sql).unwrap();
        assert_eq!(
            repaired, rerun,
            "{kind:?}: fallback run diverged from the clean cold run"
        );
        assert!(
            trace.events().iter().any(
                |e| e.action == "cache evict" && e.detail.contains("incremental repair failed")
            ),
            "{kind:?}: the poisoned repair must be abandoned, not spliced"
        );
        assert!(
            cached.net.metrics().retry_total().retries > 0,
            "{kind:?}: the retry budget runs before the fallback"
        );
        // The abandoned entry is evicted once and the fallback counts as
        // a second miss; its cold walk re-populates the empty slot.
        assert_eq!(
            cached.portal.cache_report().0,
            CacheCounters {
                hits: 0,
                misses: 2,
                repairs: 0,
                evictions: 1,
            },
            "{kind:?}"
        );
    }
}

/// The repair probe's contract: a `ScatterStep` run from row `r` answers
/// exactly as one with no `from_row`, carrying the same input and the
/// same one-step plan, sent to a node whose table holds only the
/// rows `[r..)`, in the same order — the same partial set and the same
/// stats chain, for the seed, match and drop-out steps under both
/// kernels. Each archive of the paper triple grows by injected rows
/// after the original ones, and `r` cuts the original rows in half, so
/// the window holds both kinds. Every step's input is the previous
/// step's whole-table answer on the grown federation.
#[test]
fn a_delta_step_answers_as_a_scatter_over_only_the_new_rows() {
    let sql = paper_query().replace("XMATCH(O, T, P)", "XMATCH(O, T, !P)");
    for kernel in [MatchKernel::Columnar, MatchKernel::Htm] {
        let grown = FederationBuilder::paper_triple(300).build();
        let window = FederationBuilder::paper_triple(300).build();
        let mut plan = grown
            .portal
            .plan_query(&sql, &mut ExecutionTrace::new())
            .unwrap();
        plan.kernel = kernel;
        assert!(plan.steps[0].dropout, "the drop-out step comes first");
        let mut from_rows = Vec::new();
        for step in &plan.steps {
            let node = grown.node(&step.archive).expect("archive registered");
            let table = node.info().primary_table.clone();
            let r = node.with_db(|db| db.table(&table).unwrap().len()) / 2;
            from_rows.push(r);
        }
        grow_archives(&grown);
        for (step, &r) in plan.steps.iter().zip(&from_rows) {
            let table = grown
                .node(&step.archive)
                .unwrap()
                .info()
                .primary_table
                .clone();
            let (schema, rows) = grown.node(&step.archive).unwrap().with_db(|db| {
                let t = db.table(&table).unwrap();
                (t.schema().clone(), t.rows()[r..].to_vec())
            });
            window.node(&step.archive).unwrap().with_db(|db| {
                db.drop_table(&table).unwrap();
                db.create_table(schema).unwrap();
                for row in rows {
                    db.insert(&table, row).unwrap();
                }
            });
        }

        let mut input: Option<PartialSet> = None;
        for idx in (0..plan.steps.len()).rev() {
            let step = &plan.steps[idx];
            let one = plan.for_step(idx);
            let table = input.as_ref().map(|set| set.to_votable().unwrap());
            let call = |from_row| portal_step_call(&one, 0, from_row, table.clone());
            let step_at = |fed: &TestFederation, from_row| {
                invoke_portal_step(&fed.net, "tester", &step.url, &one, &call(from_row)).unwrap()
            };
            let (delta, delta_chain, _) = step_at(&grown, Some(from_rows[idx] as u64));
            let (scatter, scatter_chain, _) = step_at(&window, None);
            assert_eq!(delta, scatter, "{kernel}: step {idx} ({})", step.alias);
            assert_eq!(delta_chain, scatter_chain, "{kernel}: step {idx} stats");
            assert!(
                !delta.is_empty(),
                "{kernel}: step {idx} ({}) answered nothing",
                step.alias
            );
            let whole = step_at(&grown, None).0;
            assert_ne!(
                delta, whole,
                "{kernel}: step {idx} must read only the window"
            );
            input = Some(whole);
        }
    }
}

/// A repair probe's `from_row` is optional, and refused when present but
/// garbled: a step never reads it as row 0.
#[test]
fn malformed_wire_scatter_step_from_row_is_refused() {
    use skyquery_soap::{RpcCall, SoapValue};

    let fed = FederationBuilder::paper_triple(100).build();
    let plan = fed
        .portal
        .plan_query(&paper_query(), &mut ExecutionTrace::new())
        .unwrap();
    let seed = plan.seed_index();
    let one = plan.for_step(seed);
    let url = &plan.steps[seed].url;
    let call = |from_row: Option<SoapValue>| {
        let call = RpcCall::new("ScatterStep")
            .param("plan", SoapValue::Xml(one.to_element()))
            .param("step", SoapValue::Int(0));
        match from_row {
            Some(v) => call.param("from_row", v),
            None => call,
        }
    };
    for ok in [None, Some(SoapValue::Int(0)), Some(SoapValue::Int(5))] {
        skyquery_core::send_rpc(&fed.net, "tester", url, &call(ok.clone()))
            .unwrap_or_else(|e| panic!("from_row {ok:?}: {e}"));
    }
    for garbled in [
        SoapValue::Int(-1),
        SoapValue::Str("zz".into()),
        SoapValue::Float(2.5),
    ] {
        match skyquery_core::send_rpc(&fed.net, "tester", url, &call(Some(garbled.clone()))) {
            Err(e) => assert!(e.to_string().contains("from_row"), "{garbled:?}: {e}"),
            Ok(_) => panic!("a ScatterStep with from_row {garbled:?} answered"),
        }
    }
}
