//! Replicated shard groups: R identical nodes per zone extent, with
//! replica-aware scatter. The invariants under test:
//!
//! * `Portal::shards_of` orders a replicated group deterministically by
//!   `(extent, host)` — primaries first within each extent run — and the
//!   ordering is pinned so plans and failover picks stay reproducible;
//! * a healthy replicated federation answers *byte-identical* to the
//!   unreplicated one, in both chain modes;
//! * killing one replica per extent mid-scatter fails over to the
//!   surviving siblings and still renders the unreplicated bytes, with
//!   nonzero failover counters and no leaked leases (the chaos soak;
//!   extra seeds via `SKYQUERY_SOAK_SEEDS=1,2,3`);
//! * with *every* replica of a group dead, the step defers (mandatory)
//!   or the archive is dropped (drop-out) — and a dropped archive is
//!   honestly flagged on the result header, visible to SOAP clients;
//! * a straggling replica past the hedge delay races a duplicate probe
//!   against its sibling, first response wins, and the loser's rows
//!   never reach the merge;
//! * truncated and garbage response bodies on the `ScatterStep` and
//!   `DeltaStep` paths exhaust their retry budget and then fail over
//!   (or fall back to a cold run) — they never poison the merge;
//! * count-star performance queries fail over through the same replica
//!   groups as a scatter extent, and are never hedged.

use skyquery_core::{ChainMode, FederationConfig};
use skyquery_net::{FaultKind, FaultPlan, FaultRule};
use skyquery_sim::{CatalogParams, FederationBuilder, QuerySpec, SurveyParams, TestFederation};

/// A three-archive federation over the paper's equatorial field, split
/// into `shards` zone shards with `replicas` identical nodes per extent.
fn builder(
    shards: usize,
    replicas: usize,
    seed: u64,
    config: FederationConfig,
) -> FederationBuilder {
    FederationBuilder::new()
        .catalog(CatalogParams {
            count: 180,
            seed,
            center_ra_deg: 185.0,
            center_dec_deg: -0.5,
            radius_deg: 1.5,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .survey(SurveyParams::first_like())
        .config(config)
        .shards(shards)
        .replicas(replicas)
}

fn fed(shards: usize, replicas: usize, seed: u64, config: FederationConfig) -> TestFederation {
    builder(shards, replicas, seed, config).build()
}

/// Three-way cross-match with a total ORDER BY; `dropout` demotes FIRST
/// to an optional filter so degradation semantics are reachable.
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

/// A fault plan killing the *primary* replica of every extent of every
/// archive, scoped to `ScatterStep` so registration, performance
/// queries, and checkpoint traffic stay clean.
fn kill_primaries(shards: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for archive in ["sdss", "twomass", "first"] {
        for s in 0..shards {
            plan = plan.rule(
                FaultRule::new(FaultKind::HostDown)
                    .host(format!("{archive}-s{s}.skyquery.net"))
                    .action("ScatterStep")
                    .times(1000),
            );
        }
    }
    plan
}

/// Sums one named counter out of the merged per-step statistics rendered
/// into "cross match step" trace lines (e.g. `"failovers "`,
/// `"hedge wins "`). The counter list keeps `shards pruned` last, so
/// every label is followed by its integer.
fn trace_counter(trace: &skyquery_core::ExecutionTrace, label: &str) -> usize {
    trace
        .events()
        .iter()
        .filter(|e| e.action == "cross match step")
        .filter_map(|e| e.detail.split(label).nth(1))
        .filter_map(|tail| {
            tail.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse::<usize>().ok())
        })
        .sum()
}

/// Satellite: the replica-group catalog order is deterministic — sorted
/// by `(extent, host)`, primaries adjacent to their `r`-suffixed
/// siblings — and pinned, so scatter fan-out and failover candidate
/// order cannot drift between runs.
#[test]
fn shards_of_ordering_is_pinned_by_extent_then_host() {
    let fed = fed(2, 2, 7, FederationConfig::default());
    let hosts: Vec<String> = fed
        .portal
        .shards_of("SDSS")
        .iter()
        .map(|n| n.url.host.clone())
        .collect();
    assert_eq!(
        hosts,
        vec![
            "sdss-s0.skyquery.net",
            "sdss-s0r1.skyquery.net",
            "sdss-s1.skyquery.net",
            "sdss-s1r1.skyquery.net",
        ],
        "replica catalog order must stay (extent, host)"
    );
    // Extents never decrease, and same-extent runs are adjacent.
    let group = fed.portal.shards_of("SDSS");
    for pair in group.windows(2) {
        assert!(
            pair[0].extent().dec_lo_deg <= pair[1].extent().dec_lo_deg,
            "extent order regressed"
        );
    }
    assert_eq!(group[0].extent(), group[1].extent());
    assert_eq!(group[2].extent(), group[3].extent());
    // Determinism: a second query answers the identical sequence.
    let again: Vec<String> = fed
        .portal
        .shards_of("SDSS")
        .iter()
        .map(|n| n.url.host.clone())
        .collect();
    assert_eq!(hosts, again);
}

/// A healthy replicated federation is a pure redundancy change: the
/// answer bytes match the unreplicated run across shard counts and
/// chain modes, and no failover or hedge ever fires.
#[test]
fn healthy_replicated_results_are_byte_identical() {
    for mode in [ChainMode::Recursive, ChainMode::Checkpointed] {
        for shards in [1usize, 2] {
            let config = FederationConfig {
                chain_mode: mode,
                ..FederationConfig::default()
            };
            let sql = sweep_query(false);
            let baseline = fed(shards, 1, 11, config);
            let (want, _) = baseline.portal.submit(&sql).unwrap();
            let replicated = fed(shards, 2, 11, config);
            let (got, trace) = replicated.portal.submit(&sql).unwrap();
            assert_eq!(
                got.to_ascii(),
                want.to_ascii(),
                "{mode:?}/{shards} shards: replication changed the bytes"
            );
            assert!(!got.degraded, "healthy run must not be flagged partial");
            assert_eq!(trace_counter(&trace, "failovers "), 0);
            assert_eq!(trace_counter(&trace, "hedges "), 0);
        }
    }
}

/// The fixed-seed chaos soak: R=2 with the primary replica of *every*
/// extent killed mid-scatter. Each extent fails over to its surviving
/// sibling — same data, same bytes as the unreplicated healthy run —
/// with nonzero failover counters on both the metrics bus and the
/// per-step statistics, and every node's lease table drained to zero.
fn failover_soak(seed: u64) {
    for mode in [ChainMode::Recursive, ChainMode::Checkpointed] {
        let config = FederationConfig {
            chain_mode: mode,
            ..FederationConfig::default()
        };
        let sql = sweep_query(false);
        let clean = fed(2, 1, seed, config);
        let (want, _) = clean.portal.submit(&sql).unwrap();
        assert!(want.row_count() > 0, "soak query must match something");

        let faulted = builder(2, 2, seed, config)
            .faults(kill_primaries(2))
            .build();
        let (got, trace) = faulted.portal.submit(&sql).unwrap();
        assert_eq!(
            got.to_ascii(),
            want.to_ascii(),
            "{mode:?} seed {seed}: failed-over bytes differ"
        );
        assert!(!got.degraded, "every extent was answered by a sibling");
        assert!(
            trace_counter(&trace, "failovers ") > 0,
            "{mode:?} seed {seed}: no failover recorded in step stats"
        );
        assert!(
            faulted.net.metrics().node_event_total("failover") > 0,
            "{mode:?} seed {seed}: no failover event on the metrics bus"
        );
        // Scatter-gather keeps its state in the Portal: no node-side
        // lease survives the query, on primaries or replicas.
        for node in &faulted.nodes {
            assert_eq!(
                node.active_leases(),
                0,
                "{} leaked a lease",
                node.url().host
            );
        }
    }
}

#[test]
fn replica_failover_chaos_soak() {
    failover_soak(42);
}

/// Extra soak schedules via `SKYQUERY_SOAK_SEEDS=1,2,3`.
#[test]
fn replica_failover_chaos_soak_env_seeds() {
    let Ok(seeds) = std::env::var("SKYQUERY_SOAK_SEEDS") else {
        return;
    };
    for s in seeds.split(',').filter(|s| !s.trim().is_empty()) {
        let seed: u64 = s
            .trim()
            .parse()
            .expect("SKYQUERY_SOAK_SEEDS entries are u64");
        failover_soak(seed);
    }
}

/// A whole replica group transiently dark (both siblings down for one
/// call's retry budget each): failover exhausts the group, the
/// checkpointed driver defers the step, and the retry after re-planning
/// lands on a healed group — identical bytes, no degradation.
#[test]
fn group_outage_defers_then_recovers_through_failover() {
    let config = FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..FederationConfig::default()
    };
    let sql = sweep_query(false);
    let clean = fed(2, 2, 13, config);
    let (want, _) = clean.portal.submit(&sql).unwrap();

    let mut plan = FaultPlan::new();
    for host in ["twomass-s1.skyquery.net", "twomass-s1r1.skyquery.net"] {
        plan = plan.rule(
            FaultRule::new(FaultKind::HostDown)
                .host(host)
                .action("ScatterStep")
                .times(3),
        );
    }
    let faulted = builder(2, 2, 13, config).faults(plan).build();
    let (got, trace) = faulted.portal.submit(&sql).unwrap();
    assert_eq!(got.to_ascii(), want.to_ascii(), "deferred bytes differ");
    assert!(!got.degraded);
    let actions: Vec<&str> = trace.events().iter().map(|e| e.action.as_str()).collect();
    assert!(actions.contains(&"replan"), "no replan event: {actions:?}");
    // The exhausting failover rode the *failed* attempt, whose step
    // statistics were discarded with the error — only the metrics bus
    // remembers it.
    assert!(
        faulted.net.metrics().node_event_total("failover") > 0,
        "the group was exhausted through failover first"
    );
}

/// Partial-result honesty, end to end: a drop-out archive whose entire
/// replica group is dead is dropped from the intersection, the answer
/// is a flagged superset, and a SOAP client polling the Portal's
/// `SkyQuery` service can *detect* the partial answer from the response
/// header — it never has to diff row counts against a healthy run.
#[test]
fn dead_group_degrades_and_clients_can_detect_the_partial_result() {
    let config = FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..FederationConfig::default()
    };
    let sql = sweep_query(true);
    let clean = fed(2, 2, 17, config);
    let (want, _) = clean.portal.submit(&sql).unwrap();

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
    let faulted = builder(2, 2, 17, config).faults(plan).build();
    let (got, trace) = faulted.portal.submit(&sql).unwrap();
    assert!(
        got.row_count() >= want.row_count(),
        "dropping a filter can only weaken it"
    );
    assert!(got.degraded, "the partial answer must be flagged");
    assert_eq!(got.dropped_archives, vec!["FIRST".to_string()]);
    assert!(
        trace.events().iter().any(|e| e.action == "partial result"),
        "the trace must note the partial result"
    );

    // The same header rides the SOAP wire: a remote client decodes the
    // flag without access to the Portal's internals.
    let rs = faulted
        .client("astronomer.example.org")
        .query(&sql)
        .unwrap()
        .0;
    assert!(rs.degraded, "SOAP clients must see the degraded flag");
    assert_eq!(rs.dropped_archives, vec!["FIRST".to_string()]);
    // Payload equality stays header-blind: the flagged rows compare by
    // columns and tuples only.
    assert_eq!(rs, got);
}

/// Losing *one extent* of a drop-out group (both its replicas) degrades
/// to the answering extents and names the lost shard `archive@host` by
/// its primary — the stable group identity.
#[test]
fn lost_dropout_extent_is_named_by_its_primary() {
    let config = FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..FederationConfig::default()
    };
    let sql = sweep_query(true);
    let mut plan = FaultPlan::new();
    for host in ["first-s1.skyquery.net", "first-s1r1.skyquery.net"] {
        plan = plan.rule(
            FaultRule::new(FaultKind::HostDown)
                .host(host)
                .action("ScatterStep")
                .times(1000),
        );
    }
    let faulted = builder(2, 2, 19, config).faults(plan).build();
    let (got, _) = faulted.portal.submit(&sql).unwrap();
    assert!(got.degraded);
    assert_eq!(
        got.dropped_archives,
        vec!["FIRST@first-s1.skyquery.net".to_string()],
        "the dropped shard is identified by its primary host"
    );
}

/// Hedged probes: a primary straggling past the hedge delay races a
/// duplicate probe against its sibling; the sibling's fast answer wins,
/// the straggler is discarded before the gather, and the bytes match
/// the un-hedged run exactly — duplicates never merge.
#[test]
fn hedged_probe_wins_over_straggling_primary() {
    let config = FederationConfig {
        hedge_delay_s: 1.0,
        ..FederationConfig::default()
    };
    let sql = sweep_query(false);
    let clean = fed(1, 2, 23, config);
    let (want, _) = clean.portal.submit(&sql).unwrap();

    let plan = FaultPlan::new().rule(
        FaultRule::new(FaultKind::Latency(5.0))
            .host("sdss.skyquery.net")
            .action("ScatterStep"),
    );
    let slow = builder(1, 2, 23, config).faults(plan).build();
    let (got, trace) = slow.portal.submit(&sql).unwrap();
    assert_eq!(got.to_ascii(), want.to_ascii(), "hedged bytes differ");
    assert!(
        trace_counter(&trace, "hedges ") >= 1,
        "the straggler must trigger a hedge"
    );
    assert!(
        trace_counter(&trace, "hedge wins ") >= 1,
        "the fast sibling must win the race"
    );
    assert!(slow.net.metrics().node_event_total("hedge") >= 1);
    // Hedging is opt-in: the same latency without a hedge delay just
    // waits the straggler out.
    let patient = builder(1, 2, 23, FederationConfig::default())
        .faults(
            FaultPlan::new().rule(
                FaultRule::new(FaultKind::Latency(5.0))
                    .host("sdss.skyquery.net")
                    .action("ScatterStep"),
            ),
        )
        .build();
    let (got, trace) = patient.portal.submit(&sql).unwrap();
    assert_eq!(got.to_ascii(), want.to_ascii());
    assert_eq!(trace_counter(&trace, "hedges "), 0);
}

/// Satellite: malformed response bodies on the `ScatterStep` path —
/// truncated and garbage alike — burn the call's retry budget, surface
/// as an unhealthy verdict, and fail over to the sibling replica. The
/// merge never sees the poisoned replies.
#[test]
fn malformed_scatter_bodies_fail_over_not_poison() {
    for kind in [FaultKind::TruncateBody, FaultKind::GarbageBody] {
        for mode in [ChainMode::Recursive, ChainMode::Checkpointed] {
            let config = FederationConfig {
                chain_mode: mode,
                ..FederationConfig::default()
            };
            let sql = sweep_query(false);
            let clean = fed(2, 2, 29, config);
            let (want, _) = clean.portal.submit(&sql).unwrap();

            let plan = FaultPlan::new().rule(
                FaultRule::new(kind)
                    .host("sdss-s0.skyquery.net")
                    .action("ScatterStep")
                    .times(1000),
            );
            let faulted = builder(2, 2, 29, config).faults(plan).build();
            let (got, trace) = faulted.portal.submit(&sql).unwrap();
            assert_eq!(
                got.to_ascii(),
                want.to_ascii(),
                "{kind:?}/{mode:?}: bytes diverged around the malformed shard"
            );
            assert!(!got.degraded);
            assert!(
                trace_counter(&trace, "failovers ") > 0,
                "{kind:?}/{mode:?}: the malformed shard must fail over"
            );
            assert!(
                faulted.net.metrics().retry_total().retries > 0,
                "{kind:?}/{mode:?}: the retry budget runs before failover"
            );
        }
    }
}

/// A fault plan applying `kind` to the *primary* replica of every extent
/// of every archive, scoped to the count-star `Query` service so the
/// scatter itself stays clean.
fn primaries_on_query(shards: usize, kind: FaultKind) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for archive in ["sdss", "twomass", "first"] {
        for s in 0..shards {
            plan = plan.rule(
                FaultRule::new(kind)
                    .host(format!("{archive}-s{s}.skyquery.net"))
                    .action("Query"),
            );
        }
    }
    plan
}

/// Count-star performance queries follow the same replica policy as the
/// scatter: with every primary down for `Query`, each extent is counted
/// by its sibling, so the plan — and the answer — match a clean run.
#[test]
fn count_star_fails_over_to_a_sibling_replica() {
    let config = FederationConfig::default();
    let sql = sweep_query(false);
    let (want, _) = fed(2, 1, 31, config).portal.submit(&sql).unwrap();
    let faulted = builder(2, 2, 31, config)
        .faults(primaries_on_query(2, FaultKind::HostDown))
        .build();
    let (got, _) = faulted.portal.submit(&sql).unwrap();
    assert_eq!(
        got.to_ascii(),
        want.to_ascii(),
        "failed-over count-stars changed the bytes"
    );
    assert!(!got.degraded);
    assert!(
        faulted.net.metrics().node_event_total("failover") > 0,
        "a dead primary's count must fail over to its sibling"
    );
}

/// Count-stars never hedge: a straggling primary `Query` under a positive
/// hedge delay is waited out, not raced against its sibling.
#[test]
fn count_star_is_never_hedged() {
    let config = FederationConfig {
        hedge_delay_s: 1.0,
        ..FederationConfig::default()
    };
    let sql = sweep_query(false);
    let (want, _) = fed(2, 1, 31, config).portal.submit(&sql).unwrap();
    let slow = builder(2, 2, 31, config)
        .faults(primaries_on_query(2, FaultKind::Latency(5.0)))
        .build();
    let (got, _) = slow.portal.submit(&sql).unwrap();
    assert_eq!(got.to_ascii(), want.to_ascii());
    assert_eq!(slow.net.metrics().node_event_total("hedge"), 0);
}

/// The hedge contract over four replicated extents: FIRST's extent `s0`
/// straggles past the hedge delay on every `ScatterStep`. Every build of
/// one seed must reach the same outcome: exactly one hedge, won by the
/// sibling; 138 messages (registration, then the unhedged submission's
/// traffic plus the one duplicate probe's exchange) and the same wire
/// bytes each time; and the answer the unhedged run renders. So a hedge
/// decision cannot depend on scheduling. (SDSS's `s0` would be the wrong
/// straggler: this query extent-prunes it, so it is never probed.)
#[test]
fn hedge_outcome_is_a_function_of_the_seed() {
    let config = FederationConfig {
        hedge_delay_s: 1.0,
        ..FederationConfig::default()
    };
    let sql = sweep_query(false);
    let clean = fed(4, 2, 23, config);
    let (want, _) = clean.portal.submit(&sql).unwrap();
    assert_eq!(clean.net.metrics().total().messages, 136);
    let mut wire_bytes = None;
    for build in 0..100 {
        let slow = builder(4, 2, 23, config)
            .faults(
                FaultPlan::new().rule(
                    FaultRule::new(FaultKind::Latency(5.0))
                        .host("first-s0.skyquery.net")
                        .action("ScatterStep")
                        .times(1000),
                ),
            )
            .build();
        let (got, trace) = slow.portal.submit(&sql).unwrap();
        let m = slow.net.metrics();
        let outcome = (
            trace_counter(&trace, "hedges "),
            trace_counter(&trace, "hedge wins "),
            m.node_event_total("hedge"),
            m.total().messages,
        );
        assert_eq!(outcome, (1, 1, 1, 138), "build {build}");
        assert_eq!(
            *wire_bytes.get_or_insert(m.total().bytes),
            m.total().bytes,
            "build {build}: wire bytes moved"
        );
        assert_eq!(
            got.to_ascii(),
            want.to_ascii(),
            "build {build}: hedged bytes differ"
        );
    }
}
