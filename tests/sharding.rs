//! Sharded-archive parity: a federation whose archives are split across
//! declination-zone shards must return results *byte-identical* to the
//! single-node chain — across shard counts, kernels, chain modes, field
//! geometries (RA wrap, polar cap), and zone heights; and it must keep
//! that identity when a shard dies mid-scatter and the checkpointed
//! driver re-plans and resumes from the merged set.

use proptest::prelude::*;
use skyquery_core::shard;
use skyquery_core::transfer::{invoke_portal_step, portal_step_call};
use skyquery_core::{
    ChainMode, ExecutionTrace, FederationConfig, MatchKernel, PartialSet, StepStats,
};
use skyquery_htm::SkyPoint;
use skyquery_net::{FaultKind, FaultPlan, FaultRule, Url};
use skyquery_sim::{
    paper_query, CatalogParams, FederationBuilder, QuerySpec, SurveyParams, TestFederation,
};
use skyquery_storage::Value;

/// A three-archive federation over a cap at `center`, split into
/// `shards` zone shards per archive (1 = the classic single-node
/// layout). Identical parameters yield identical skies, so the only
/// variable between two builds is the sharding itself.
fn fed(
    shards: usize,
    bodies: usize,
    center: (f64, f64),
    config: FederationConfig,
) -> TestFederation {
    builder(shards, bodies, center, config).build()
}

/// [`fed`], before it is built.
fn builder(
    shards: usize,
    bodies: usize,
    center: (f64, f64),
    config: FederationConfig,
) -> FederationBuilder {
    FederationBuilder::new()
        .catalog(CatalogParams {
            count: bodies,
            center_ra_deg: center.0,
            center_dec_deg: center.1,
            radius_deg: 1.5,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .survey(SurveyParams::first_like())
        .config(config)
        .shards(shards)
}

/// The sweep query: a three-way cross-match, optionally demoting FIRST
/// to a drop-out term so the intersection merge is exercised too.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance sweep: every (shard count, kernel, chain mode,
    /// field geometry, zone height, drop-out) combination renders the
    /// same bytes as the single-node federation.
    #[test]
    fn sharded_results_are_byte_identical(
        shards in prop_oneof![Just(2usize), Just(4usize), Just(8usize)],
        kernel in prop_oneof![Just(MatchKernel::Columnar), Just(MatchKernel::Htm)],
        mode in prop_oneof![Just(ChainMode::Recursive), Just(ChainMode::Checkpointed)],
        center in prop_oneof![
            Just((185.0, -0.5)),  // the paper's equatorial field
            Just((0.05, 12.0)),   // RA wrap across 0h
            Just((140.0, 88.2)),  // polar cap
        ],
        zone_height in prop_oneof![Just(0.05), Just(0.1), Just(0.4)],
        dropout in any::<bool>(),
    ) {
        let config = FederationConfig {
            kernel,
            chain_mode: mode,
            ..FederationConfig::default()
        };
        let sql = sweep_query(dropout);
        let fed = |shards| builder(shards, 160, center, config).zone_height(zone_height).build();
        let baseline = fed(1);
        let (want, base_trace) = baseline.portal.submit(&sql).unwrap();
        prop_assert!(
            base_trace.events().iter().all(|e| e.action != "scatter"),
            "single-node federations must take the classic chain"
        );
        let sharded = fed(shards);
        let (got, trace) = sharded.portal.submit(&sql).unwrap();
        prop_assert_eq!(got.to_ascii(), want.to_ascii());
        prop_assert!(
            trace.events().iter().any(|e| e.action == "scatter"),
            "sharded submission recorded no scatter events"
        );
    }
}

/// Registering into a shard group returns the new [`Registration`]
/// summary: the archive, the registered node's zone range, the group
/// size after the call, and the catalog's table count.
#[test]
fn registration_reports_shard_group_summary() {
    let sharded = fed(4, 120, (185.0, -0.5), FederationConfig::default());
    // Re-register an existing shard: idempotent, and the summary sees
    // the whole four-shard group.
    let reg = sharded
        .portal
        .register_node(&Url::new("sdss-s2.skyquery.net", "/soap"))
        .unwrap();
    assert_eq!(reg.archive, "SDSS");
    assert_eq!(reg.shard_count, 4);
    assert!(reg.table_count >= 1);
    assert!(!reg.extent.is_full_sky());
    assert_eq!(sharded.portal.shards_of("sdss").len(), 4);
    // An unsharded archive registers as a group of one spanning the sky.
    let solo = fed(1, 120, (185.0, -0.5), FederationConfig::default());
    let reg = solo
        .portal
        .register_node(&Url::new("sdss.skyquery.net", "/soap"))
        .unwrap();
    assert_eq!(reg.shard_count, 1);
    assert!(reg.extent.is_full_sky());
}

/// Re-registering one shard reports the group registration and the
/// registry keeps per-shard info (name, extent) queryable through
/// [`Portal::shards_of`] — the supported surface since the
/// single-value `register_node_info` shim was removed.
#[test]
fn reregistered_shard_info_queryable_via_shards_of() {
    let fed = fed(2, 100, (185.0, -0.5), FederationConfig::default());
    let reg = fed
        .portal
        .register_node(&Url::new("sdss-s1.skyquery.net", "/soap"))
        .unwrap();
    assert_eq!(reg.shard_count, 2);
    let shard = fed
        .portal
        .shards_of("SDSS")
        .into_iter()
        .find(|n| n.url.host == "sdss-s1.skyquery.net")
        .expect("re-registered shard stays in the group");
    assert_eq!(shard.info.name, "SDSS");
    assert!(
        shard.info.extent.is_some(),
        "shard info must publish its extent"
    );
}

/// Maps the seed step's alias (first "scatter" trace event) to the
/// archive's shard-host prefix, so fault injection can target the shard
/// group that executes *first* regardless of count-star ordering.
fn seed_archive(trace: &skyquery_core::ExecutionTrace) -> &'static str {
    let ev = trace
        .events()
        .iter()
        .find(|e| e.action == "scatter")
        .expect("sharded run has scatter events");
    match ev.detail.split(':').next().unwrap() {
        "O" => "sdss",
        "T" => "twomass",
        "P" => "first",
        other => panic!("unknown alias {other}"),
    }
}

/// The fixed-seed soak: one shard of the *seed* archive goes down for
/// longer than one call's retry budget, mid-scatter. The checkpointed
/// driver defers the step ("replan"), drives the other archives from
/// the in-memory merged set, resumes ("resume") once the shard heals,
/// and the final bytes are identical to the clean run. No leases leak.
#[test]
fn shard_death_mid_scatter_resumes_to_identical_bytes() {
    let config = FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..FederationConfig::default()
    };
    let sql = sweep_query(false);
    let clean = fed(4, 200, (185.0, -0.5), config);
    let (want, clean_trace) = clean.portal.submit(&sql).unwrap();
    assert!(want.row_count() > 0, "soak query must match something");
    let victim = format!("{}-s1.skyquery.net", seed_archive(&clean_trace));

    let faulted = FederationBuilder::new()
        .catalog(CatalogParams {
            count: 200,
            center_ra_deg: 185.0,
            center_dec_deg: -0.5,
            radius_deg: 1.5,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .survey(SurveyParams::first_like())
        .config(config)
        .shards(4)
        .faults(
            FaultPlan::new().rule(
                // Four HostDown hits: the first ScatterStep call exhausts
                // its three attempts and fails; the deferred retry eats the
                // last fault and recovers within its own budget.
                FaultRule::new(FaultKind::HostDown)
                    .host(victim.clone())
                    .action("ScatterStep")
                    .times(4),
            ),
        )
        .build();
    let (got, trace) = faulted.portal.submit(&sql).unwrap();
    assert_eq!(got.to_ascii(), want.to_ascii(), "resumed bytes differ");

    let actions: Vec<&str> = trace.events().iter().map(|e| e.action.as_str()).collect();
    assert!(actions.contains(&"replan"), "no replan event: {actions:?}");
    assert!(actions.contains(&"resume"), "no resume event: {actions:?}");
    let events = faulted.net.metrics().node_events();
    assert!(events.iter().any(|((_, k), _)| k == "replan"));
    assert!(events.iter().any(|((_, k), _)| k == "resume"));
    // Scatter-gather keeps its checkpoint in the Portal: no node-side
    // lease survives the query.
    for node in &faulted.nodes {
        assert_eq!(
            node.active_leases(),
            0,
            "{} leaked a lease",
            node.url().host
        );
    }
    // Every shard whose zone range can see the field did real work. The
    // field sits at dec ≈ -0.5° ± 1.5°, so of each archive's four
    // quarter-sky shards only s1 ([-45°, 0°)) and s2 ([0°, 45°)) can
    // intersect it; the polar shards of non-seed archives are
    // extent-pruned and legitimately idle.
    for archive in ["sdss", "twomass", "first"] {
        for node in faulted.shard_nodes(archive) {
            let host = &node.url().host;
            if host.contains("-s1.") || host.contains("-s2.") {
                assert!(node.executed_steps() >= 1, "{} idle", node.url().host);
            }
        }
    }
}

/// Extent pruning: shards whose zone range cannot intersect the input
/// set's probe span are skipped entirely — the scatter trace notes the
/// prune, the merged step stats carry the `shards_pruned` counter, the
/// pruned nodes never execute a step, and the result bytes still match
/// the unsharded baseline.
#[test]
fn extent_pruning_skips_out_of_band_shards() {
    let config = FederationConfig::default();
    let sql = sweep_query(false);
    let baseline = fed(1, 150, (185.0, -0.5), config);
    let (want, _) = baseline.portal.submit(&sql).unwrap();
    let sharded = fed(4, 150, (185.0, -0.5), config);
    let (got, trace) = sharded.portal.submit(&sql).unwrap();
    assert_eq!(got.to_ascii(), want.to_ascii(), "pruned bytes differ");

    // The field spans dec ≈ [-2°, 1°]: only the two equatorial quarters
    // can intersect it, so each of the two non-seed steps prunes the two
    // polar shards.
    assert!(
        trace
            .events()
            .iter()
            .any(|e| e.detail.contains("extent-pruned")),
        "no extent-pruned scatter note in trace"
    );
    let pruned: usize = trace
        .events()
        .iter()
        .filter(|e| e.action == "cross match step")
        .filter_map(|e| e.detail.split("shards pruned ").nth(1))
        .filter_map(|tail| tail.trim().parse::<usize>().ok())
        .sum();
    assert_eq!(
        pruned, 4,
        "expected 2 pruned shards on each of 2 non-seed steps"
    );

    // The seed archive scatters to all of its shards (there is no input
    // to prune by); every other archive's polar shards stay idle.
    let seed = seed_archive(&trace);
    for archive in ["sdss", "twomass", "first"] {
        for node in sharded.shard_nodes(archive) {
            let host = &node.url().host;
            let polar = host.contains("-s0.") || host.contains("-s3.");
            if archive == seed || !polar {
                assert!(node.executed_steps() >= 1, "{host} idle");
            } else {
                assert_eq!(node.executed_steps(), 0, "{host} was not pruned");
            }
        }
    }
}

/// Transient shard faults inside one call's retry budget recover in the
/// transfer layer and never surface — in either chain mode.
#[test]
fn transient_shard_faults_recover_within_retry_budget() {
    for mode in [ChainMode::Recursive, ChainMode::Checkpointed] {
        let config = FederationConfig {
            chain_mode: mode,
            ..FederationConfig::default()
        };
        let sql = sweep_query(true);
        let clean = fed(2, 150, (185.0, -0.5), config);
        let (want, _) = clean.portal.submit(&sql).unwrap();

        let faulted = FederationBuilder::new()
            .catalog(CatalogParams {
                count: 150,
                center_ra_deg: 185.0,
                center_dec_deg: -0.5,
                radius_deg: 1.5,
                ..CatalogParams::default()
            })
            .survey(SurveyParams::sdss_like())
            .survey(SurveyParams::twomass_like())
            .survey(SurveyParams::first_like())
            .config(config)
            .shards(2)
            .faults(
                FaultPlan::new().rule(
                    FaultRule::new(FaultKind::HostDown)
                        .host("sdss-s1.skyquery.net")
                        .action("ScatterStep")
                        .times(2),
                ),
            )
            .build();
        let (got, _) = faulted.portal.submit(&sql).unwrap();
        assert_eq!(got.to_ascii(), want.to_ascii(), "{mode:?}: bytes differ");
        assert!(faulted.net.metrics().retry_total().retries > 0);
        assert!(faulted.portal.unhealthy_hosts().is_empty());
    }
}

/// A drop-out archive that loses a shard *permanently* degrades: the
/// checkpointed driver intersects over the shards that answered, which
/// can only weaken the filter — the result is a superset of the clean
/// run, flagged by a "degraded" event.
#[test]
fn permanent_dropout_shard_loss_degrades_to_superset() {
    let config = FederationConfig {
        chain_mode: ChainMode::Checkpointed,
        ..FederationConfig::default()
    };
    let sql = sweep_query(true);
    let clean = fed(4, 200, (185.0, -0.5), config);
    let (want, _) = clean.portal.submit(&sql).unwrap();

    let faulted = FederationBuilder::new()
        .catalog(CatalogParams {
            count: 200,
            center_ra_deg: 185.0,
            center_dec_deg: -0.5,
            radius_deg: 1.5,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .survey(SurveyParams::first_like())
        .config(config)
        .shards(4)
        .faults(
            FaultPlan::new().rule(
                FaultRule::new(FaultKind::HostDown)
                    .host("first-s2.skyquery.net")
                    .action("ScatterStep")
                    .times(1000),
            ),
        )
        .build();
    let (got, trace) = faulted.portal.submit(&sql).unwrap();
    assert!(
        got.row_count() >= want.row_count(),
        "degraded drop-out must only weaken the filter ({} < {})",
        got.row_count(),
        want.row_count()
    );
    assert!(
        trace.events().iter().any(|e| e.action == "degraded"),
        "no degraded event recorded"
    );
    assert!(faulted
        .net
        .metrics()
        .node_events()
        .iter()
        .any(|((_, k), _)| k == "degraded"));
}

/// The node's step-call contract: a `ScatterStep` reads only its own step
/// and the plan's knobs, so the one-step plan `for_step` builds, sent at
/// index 0, answers exactly as the whole plan does at the step's index:
/// the same partial set, stats chain and table version, at every extent
/// of the seed, match and drop-out steps of the sharded paper triple.
/// Each step's input is the gather of the previous step's replies, tagged
/// and with `__rank` carried as the scatter does.
#[test]
fn a_one_step_plan_answers_as_the_whole_plan_does() {
    let fed = FederationBuilder::paper_triple(300).shards(4).build();
    let sql = paper_query().replace("XMATCH(O, T, P)", "XMATCH(O, T, !P)");
    let plan = fed
        .portal
        .plan_query(&sql, &mut ExecutionTrace::new())
        .unwrap();
    assert!(plan.steps[0].dropout, "the drop-out step comes first");
    assert!(plan.steps.iter().all(|s| s.shards.len() == 4));
    let mut input: Option<PartialSet> = None;
    for idx in (0..plan.steps.len()).rev() {
        let step = &plan.steps[idx];
        let mut whole = plan.clone();
        if !step.dropout {
            whole.steps[idx].carried.push(shard::RANK_COL.to_string());
        }
        let one = whole.for_step(idx);
        let table = input.as_ref().map(|set| {
            shard::tag_with_src(set, shard::SRC_COL, 0..set.len())
                .to_votable()
                .unwrap()
        });
        let whole_call = portal_step_call(&whole, idx, None, table.clone());
        let one_call = portal_step_call(&one, 0, None, table);
        let mut parts: Vec<(PartialSet, StepStats)> = Vec::new();
        for extent in &step.shards {
            let url = &extent.url;
            let want = invoke_portal_step(&fed.net, "tester", url, &whole, &whole_call).unwrap();
            let got = invoke_portal_step(&fed.net, "tester", url, &one, &one_call).unwrap();
            assert_eq!(got, want, "step {idx} ({}) at {}", step.alias, url.host);
            parts.push((want.0, want.1.entries[0].1));
        }
        let merged = match (&input, step.dropout) {
            (None, _) => shard::merge_seed(&parts, &step.alias),
            (Some(set), true) => {
                let all: Vec<usize> = (0..set.len()).collect();
                shard::merge_dropout(set, &parts, &vec![&all[..]; parts.len()])
            }
            (Some(_), false) => shard::merge_match(&parts, &step.alias),
        };
        let set = merged.unwrap().0;
        assert!(
            !set.is_empty(),
            "step {idx} ({}) gathered nothing",
            step.alias
        );
        input = Some(set);
    }
}

/// The contract a routed scatter rests on: an extent's reply to only the
/// input tuples whose probe balls meet its declinations (the best
/// position ± the search radius, padded by 1e-9°), tagged with their
/// *global* `__src`, is its reply to the whole tagged input less the rows
/// of the tuples it was not sent. Checked at every extent of every
/// scattered match and drop-out step of the sharded paper triple, with
/// and without a drop-out archive. Stats differ by construction and are
/// not compared.
#[test]
fn a_routed_subset_answers_as_the_whole_input_less_the_unsent_tuples() {
    let dropout_sql = paper_query().replace("XMATCH(O, T, P)", "XMATCH(O, T, !P)");
    assert_ne!(dropout_sql, paper_query());
    for sql in [paper_query(), dropout_sql] {
        let fed = FederationBuilder::paper_triple(300).shards(4).build();
        let plan = fed
            .portal
            .plan_query(&sql, &mut ExecutionTrace::new())
            .unwrap();
        assert!(plan.steps.iter().all(|s| s.shards.len() == 4));
        let (mut sent, mut whole_sent) = (0usize, 0usize);
        let mut input: Option<PartialSet> = None;
        for idx in (0..plan.steps.len()).rev() {
            let step = &plan.steps[idx];
            let mut one = plan.for_step(idx);
            if !step.dropout {
                one.steps[0].carried.push(shard::RANK_COL.to_string());
            }
            let sigma_rad = (step.sigma_arcsec / 3600.0).to_radians();
            let spans: Vec<Option<(f64, f64)>> = input
                .iter()
                .flat_map(|set| &set.tuples)
                .map(|t| {
                    let dec = SkyPoint::from_vec3(t.state.best_position()?).dec_deg;
                    let r = t
                        .state
                        .search_radius(plan.threshold, sigma_rad)
                        .to_degrees()
                        + 1e-9;
                    Some((dec - r, dec + r))
                })
                .collect();
            let call = |set: &PartialSet, tuples: &[usize]| {
                let table = shard::tag_with_src(set, shard::SRC_COL, tuples.iter().copied());
                portal_step_call(&one, 0, None, Some(table.to_votable().unwrap()))
            };
            let mut parts: Vec<(PartialSet, StepStats)> = Vec::new();
            for extent in &step.shards {
                let url = &extent.url;
                let Some(set) = &input else {
                    let seed = portal_step_call(&one, 0, None, None);
                    let (out, chain, _) =
                        invoke_portal_step(&fed.net, "tester", url, &one, &seed).unwrap();
                    parts.push((out, chain.entries[0].1));
                    continue;
                };
                let all: Vec<usize> = (0..set.len()).collect();
                let routed: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| {
                        spans[i].is_some_and(|(lo, hi)| {
                            extent.extent.dec_lo_deg <= hi && extent.extent.dec_hi_deg >= lo
                        })
                    })
                    .collect();
                sent += routed.len();
                whole_sent += set.len();
                let (whole, chain, version) =
                    invoke_portal_step(&fed.net, "tester", url, &one, &call(set, &all)).unwrap();
                let (got, _, got_version) =
                    invoke_portal_step(&fed.net, "tester", url, &one, &call(set, &routed)).unwrap();
                let src = whole
                    .columns
                    .iter()
                    .position(|c| c.name == shard::SRC_COL)
                    .expect("the reply carries __src");
                let mut want = whole.clone();
                want.tuples.retain(|t| match t.values[src] {
                    Value::Id(i) => routed.binary_search(&(i as usize)).is_ok(),
                    ref other => panic!("__src holds {other:?}"),
                });
                assert_eq!(got, want, "step {idx} ({}) at {}", step.alias, url.host);
                assert_eq!(got_version, version);
                parts.push((whole, chain.entries[0].1));
            }
            if step.dropout {
                break; // the drop-out step runs last
            }
            let merged = match &input {
                None => shard::merge_seed(&parts, &step.alias),
                Some(_) => shard::merge_match(&parts, &step.alias),
            };
            input = Some(merged.unwrap().0);
        }
        assert!(
            sent < whole_sent,
            "routing must send fewer tuples than the whole input to every extent \
             ({sent} of {whole_sent})"
        );
    }
}
