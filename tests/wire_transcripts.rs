//! Wire transcripts: every SOAP message the federation's services answer,
//! pinned byte for byte.
//!
//! Each scenario wraps every node endpoint (and the job service, where
//! there is one) in a recorder of `(SOAPAction, request body, response
//! body)` and drives `Portal::submit` directly. Going around the SOAP
//! client keeps the wall-clock trace of the Portal's own reply out of the
//! bytes. The message count and a 64-bit digest of the bodies are
//! compared with constants recorded from a known-good build, so a codec
//! or transport change that moves a single byte fails here, by scenario.
//!
//! Records are sorted before digesting, so the digests pin the bytes and
//! not their order. The order is pinned apart: the Portal fans count-stars
//! and scatter steps out in item order on one thread, so every scenario
//! serves the same exchange sequence on every run. Every recorded body
//! must also re-encode to itself, and every prefix of one call body and
//! one reply body must decode to an error, never panic.

use std::sync::{Arc, Mutex};

use skyquery_core::{ChainMode, ExecutionPlan, FederationConfig};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig};
use skyquery_net::{Endpoint, FaultKind, FaultPlan, FaultRule, HttpRequest, SimNetwork};
use skyquery_sim::{
    xmatch_query, CatalogParams, FederationBuilder, QuerySpec, SurveyParams, TestFederation,
};
use skyquery_soap::{RpcCall, RpcResponse};
use skyquery_storage::Value;

/// One served exchange: SOAPAction, request body, response body.
type Exchange = (String, Vec<u8>, Vec<u8>);
type Transcript = Arc<Mutex<Vec<Exchange>>>;

/// Rebinds `host` to a recorder in front of `inner`.
fn record(net: &SimNetwork, host: &str, inner: Arc<dyn Endpoint>, log: &Transcript) {
    let log = log.clone();
    net.bind(
        host,
        Arc::new(move |net: &SimNetwork, req: HttpRequest| {
            let action = req.soap_action().unwrap_or_default().to_string();
            let body = req.body.to_vec();
            let resp = inner.handle(net, req);
            log.lock().unwrap().push((action, body, resp.body.to_vec()));
            resp
        }),
    );
}

/// Records every node of `fed`.
fn record_nodes(fed: &TestFederation) -> Transcript {
    let log = Transcript::default();
    for node in &fed.nodes {
        record(&fed.net, node.host(), node.clone(), &log);
    }
    log
}

/// FNV-1a over each exchange, length-prefixed so that no two different
/// transcripts concatenate to the same stream.
fn digest(exchanges: &[Exchange]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (action, req, resp) in exchanges {
        feed(action.as_bytes());
        feed(req);
        feed(resp);
    }
    h
}

/// Re-encodes every body and checks every prefix of one call and one
/// reply, then compares count and digest with the recorded constants.
fn check(name: &str, log: &Transcript, want_msgs: usize, want_digest: u64) {
    let mut exchanges = log.lock().unwrap().clone();
    exchanges.sort();
    for (action, req, resp) in &exchanges {
        let req = std::str::from_utf8(req).expect("requests are UTF-8");
        let call = RpcCall::parse(req).unwrap_or_else(|e| panic!("{name} {action}: {e}"));
        assert_eq!(call.to_xml(), req, "{name} {action}: call re-encodes");
        assert_eq!(RpcCall::parse(&call.to_xml()).unwrap(), call);
        let resp = std::str::from_utf8(resp).expect("replies are UTF-8");
        match RpcResponse::parse(resp).unwrap_or_else(|e| panic!("{name} {action}: {e}")) {
            Ok(r) => {
                assert_eq!(r.to_xml(), resp, "{name} {action}: reply re-encodes");
                assert_eq!(RpcResponse::parse(&r.to_xml()).unwrap(), Ok(r));
            }
            Err(fault) => assert_eq!(fault.to_xml(), resp, "{name} {action}: fault"),
        }
    }
    // The shortest call carrying a plan and the shortest reply carrying a
    // table: every strict prefix is an error.
    let shortest = |pick: fn(&Exchange) -> &Vec<u8>, marker: &str| {
        exchanges
            .iter()
            .map(pick)
            .filter(|b| std::str::from_utf8(b).is_ok_and(|s| s.contains(marker)))
            .min_by_key(|b| b.len())
            .map(|b| String::from_utf8(b.clone()).unwrap())
            .unwrap_or_else(|| panic!("{name}: no body carries {marker}"))
    };
    let call = shortest(|e| &e.1, "sq:type=\"xml\"");
    let reply = shortest(|e| &e.2, "sq:type=\"table\"");
    for i in (0..call.len()).filter(|i| call.is_char_boundary(*i)) {
        assert!(
            RpcCall::parse(&call[..i]).is_err(),
            "{name}: call prefix {i}"
        );
    }
    for i in (0..reply.len()).filter(|i| reply.is_char_boundary(*i)) {
        assert!(
            RpcResponse::parse(&reply[..i]).is_err(),
            "{name}: reply prefix {i}"
        );
    }
    let got = (exchanges.len(), digest(&exchanges));
    assert_eq!(
        got,
        (want_msgs, want_digest),
        "{name}: the wire bytes moved (got {} messages, digest {:#018x})",
        got.0,
        got.1
    );
}

/// Every `ScatterStep` and `DeltaStep` call in `log` carries its step
/// alone: a one-step plan with no shard list, at step 0. Returns how many
/// there were.
fn assert_one_step_calls(name: &str, log: &Transcript) -> usize {
    let log = log.lock().unwrap();
    let calls: Vec<RpcCall> = log
        .iter()
        .filter(|(action, _, _)| action.ends_with("#ScatterStep") || action.ends_with("#DeltaStep"))
        .map(|(_, req, _)| RpcCall::parse(std::str::from_utf8(req).unwrap()).unwrap())
        .collect();
    for call in &calls {
        let plan = call.get("plan").and_then(|v| v.as_xml()).expect("a plan");
        let plan = ExecutionPlan::from_element(plan).unwrap();
        assert_eq!(plan.steps.len(), 1, "{name} {}: one step", call.method);
        assert!(!plan.has_shards(), "{name} {}: no shard list", call.method);
        let step = call.get("step").and_then(|v| v.as_i64());
        assert_eq!(step, Some(0), "{name} {}: at step 0", call.method);
    }
    calls.len()
}

fn triple_sql() -> String {
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

fn paper_triple(mode: ChainMode) -> Transcript {
    let fed = FederationBuilder::paper_triple(300)
        .config(FederationConfig {
            chain_mode: mode,
            ..FederationConfig::default()
        })
        .build();
    let log = record_nodes(&fed);
    let (rs, _) = fed.portal.submit(&triple_sql()).unwrap();
    assert!(rs.row_count() > 0, "the triple must match something");
    log
}

#[test]
fn paper_triple_on_the_recursive_chain() {
    let log = paper_triple(ChainMode::Recursive);
    check("recursive", &log, 6, 0x5850_bf23_3bbc_7769);
}

#[test]
fn paper_triple_checkpointed() {
    let log = paper_triple(ChainMode::Checkpointed);
    assert_eq!(assert_one_step_calls("checkpointed", &log), 3);
    check("checkpointed", &log, 6, 0xb74e_ebaa_a493_4988);
}

/// A 4-shard, 2-replica triple whose extent at the field centre answers
/// every `ScatterStep` with garbage, so it retries and fails over.
fn garbled_scatter() -> Transcript {
    let fed = FederationBuilder::new()
        .catalog(CatalogParams {
            count: 180,
            seed: 29,
            radius_deg: 1.5,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .survey(SurveyParams::first_like())
        .shards(4)
        .replicas(2)
        .build();
    // The extent holding the field centre is always scattered to.
    let garbled = fed
        .portal
        .shards_of("sdss")
        .into_iter()
        .find(|n| n.extent().contains_dec(-0.5))
        .expect("the extents tile the sky")
        .url
        .host;
    fed.net.install_faults(
        FaultPlan::new().rule(
            FaultRule::new(FaultKind::GarbageBody)
                .host(garbled)
                .action("ScatterStep")
                .times(1000),
        ),
    );
    let log = record_nodes(&fed);
    let (rs, _) = fed.portal.submit(&triple_sql()).unwrap();
    assert!(!rs.degraded && rs.row_count() > 0);
    let m = fed.net.metrics();
    assert!(m.retry_total().retries > 0, "the retry budget must run");
    assert!(
        m.node_event_total("failover") > 0,
        "the extent must fail over"
    );
    log
}

#[test]
fn sharded_replicated_scatter_with_a_garbled_extent() {
    let log = garbled_scatter();
    assert!(assert_one_step_calls("scatter", &log) > 0);
    check("scatter", &log, 23, 0x2799_f440_8591_b0f8);
}

/// A 3 000-body SDSS and 2MASS pair whose replies are chunked.
fn dense_pair() -> Transcript {
    let fed = FederationBuilder::new()
        .catalog(CatalogParams {
            count: 3000,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .config(FederationConfig {
            max_message_bytes: 8_000,
            ..FederationConfig::default()
        })
        .build();
    let log = record_nodes(&fed);
    let sql = xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
        ],
        3.5,
        Some((185.0, -0.5, 20.0)),
    );
    let (rs, _) = fed.portal.submit(&sql).unwrap();
    assert!(rs.row_count() > 0);
    assert!(
        fed.net.metrics().chunk_total().chunks > 1,
        "replies must be chunked"
    );
    log
}

#[test]
fn dense_pair_under_a_small_message_limit() {
    let log = dense_pair();
    // The chunks are the sender's rows, with no sequence column beside
    // them.
    assert!(log
        .lock()
        .unwrap()
        .iter()
        .all(|(_, _, resp)| !String::from_utf8_lossy(resp).contains("__seq")));
    check("dense", &log, 14, 0x6dc2_1bdd_b928_6fbb);
}

/// A job whose results are fetched in pages through the job service. The
/// reference run warms the Portal, so the job's three count-stars are
/// answered from its count answers and never reach a node.
fn paginated_job() -> Transcript {
    let fed = FederationBuilder::paper_triple(200).build();
    let sql = "SELECT O.object_id, T.object_id, P.object_id \
               FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
               WHERE XMATCH(O, T, P) < 3.5 \
               ORDER BY O.object_id, T.object_id, P.object_id";
    let (reference, _) = fed.portal.submit(sql).unwrap();
    let limit = reference.to_votable("result").to_xml().len() * 3 / 4;
    fed.portal.set_config(FederationConfig {
        max_message_bytes: limit,
        ..fed.portal.config()
    });
    let svc = JobService::start(
        &fed.net,
        "jobs.skyquery.net",
        fed.portal.clone(),
        JobServiceConfig::default(),
    );
    let log = record_nodes(&fed);
    record(&fed.net, svc.host(), svc.clone(), &log);
    let cli = JobClient::new(&fed.net, "alice-web", svc.url());
    let id = cli.submit("alice", sql).unwrap();
    svc.run_until_idle(100_000);
    let fetched = cli.fetch(id).unwrap();
    assert_eq!(fetched, reference);
    log
}

#[test]
fn paginated_job_results() {
    let log = paginated_job();
    assert!(log
        .lock()
        .unwrap()
        .iter()
        .any(|(action, _, _)| action.ends_with("#FetchChunk")));
    assert!(!log
        .lock()
        .unwrap()
        .iter()
        .any(|(action, _, _)| action.ends_with("#Query")));
    check("job", &log, 72, 0x3b3e_89e2_903a_2c7d);
}

/// Appends rows to an archive's primary table directly in storage, the
/// way an autonomous archive grows between portal queries.
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

/// A cached triple repaired after each archive grows.
fn repaired_triple() -> Transcript {
    let fed = FederationBuilder::new()
        .catalog(CatalogParams {
            count: 140,
            ..CatalogParams::default()
        })
        .survey(SurveyParams::sdss_like())
        .survey(SurveyParams::twomass_like())
        .survey(SurveyParams::first_like())
        .config(FederationConfig {
            result_cache_capacity: 4,
            result_cache_ttl_s: 600.0,
            chain_mode: ChainMode::Recursive,
            ..FederationConfig::default()
        })
        .build();
    // Seed, match and drop-out: FIRST is the drop-out term.
    let sql = QuerySpec {
        archives: vec![
            ("SDSS".into(), "Photo_Object".into(), "O".into(), false),
            ("TWOMASS".into(), "Photo_Primary".into(), "T".into(), false),
            ("FIRST".into(), "Primary_Object".into(), "P".into(), true),
        ],
        threshold: 4.0,
        area: None,
        polygon: None,
        predicates: vec![],
        select: vec![],
    }
    .to_sql();
    fed.portal.submit(&sql).unwrap();
    // A clump landing in every survey plus one singleton per archive:
    // fresh seed rows, fresh match extensions and fresh drop-out probes.
    inject(
        &fed,
        "SDSS",
        &[(900_001, 185.02, -0.48), (900_002, 184.70, -0.30)],
    );
    inject(
        &fed,
        "TWOMASS",
        &[(910_001, 185.0201, -0.4799), (910_002, 185.40, -0.90)],
    );
    inject(&fed, "FIRST", &[(920_001, 185.0199, -0.4801)]);
    for archive in ["SDSS", "TWOMASS", "FIRST"] {
        fed.portal.refresh_table_versions(archive).unwrap();
    }
    let log = record_nodes(&fed);
    let (rs, trace) = fed.portal.submit(&sql).unwrap();
    assert!(rs.row_count() > 0);
    assert!(trace.events().iter().any(|e| e.action == "cache repair"));
    log
}

#[test]
fn cached_triple_repaired_after_growth() {
    let log = repaired_triple();
    // The repair probes the seed's delta rows, the kept inputs of both
    // later steps against their delta rows, and their fresh inputs
    // against the whole table.
    let deltas: Vec<String> = log
        .lock()
        .unwrap()
        .iter()
        .filter(|(action, _, _)| action.ends_with("#DeltaStep"))
        .map(|(_, req, _)| String::from_utf8_lossy(req).into_owned())
        .collect();
    assert_eq!(deltas.len(), 5);
    let whole = deltas
        .iter()
        .filter(|req| req.contains("<from_row sq:type=\"long\">0</from_row>"))
        .count();
    assert_eq!(whole, 2, "the fresh inputs of the match and drop-out steps");
    assert_eq!(assert_one_step_calls("repair", &log), 5);
    check("repair", &log, 7, 0x351c_0b2b_5599_afdc);
}

/// Wire order is a function of the seed: each scenario, run twice,
/// serves the same exchanges in the same order, before any sort.
#[test]
fn every_scenario_repeats_its_exchange_order() {
    type Scenario = fn() -> Transcript;
    let scenarios: [(&str, Scenario); 6] = [
        ("recursive", || paper_triple(ChainMode::Recursive)),
        ("checkpointed", || paper_triple(ChainMode::Checkpointed)),
        ("scatter", garbled_scatter),
        ("dense", dense_pair),
        ("job", paginated_job),
        ("repair", repaired_triple),
    ];
    for (name, scenario) in scenarios {
        let first = scenario().lock().unwrap().clone();
        let second = scenario().lock().unwrap().clone();
        assert_eq!(first.len(), second.len(), "{name}: exchange count");
        if let Some(i) = (0..first.len()).find(|&i| first[i] != second[i]) {
            panic!(
                "{name}: exchange {i} differs between runs ({} then {})",
                first[i].0, second[i].0
            );
        }
    }
}

/// The attributes a reader requires of element `name` under `parent`
/// because its writer always writes them: a plan's knobs, an order key's
/// direction, a statistics step's counters, a catalog table's size and
/// version, a column's nullability, and a trace event's fields.
fn always_written(parent: &str, name: &str) -> &'static [&'static str] {
    match (parent, name) {
        (_, "Plan") => &[
            "max_message_bytes",
            "chunking",
            "kernel",
            "retry_attempts",
            "retry_backoff_s",
            "retry_factor",
            "retry_deadline_s",
            "retry_jitter",
            "lease_ttl_s",
        ],
        ("OrderLimit", "Key") => &["desc"],
        ("StatsChain", "Step") => &[
            "examined",
            "accepted",
            "scratch_reuse",
            "tile_builds",
            "tile_decodes",
            "tile_hits",
            "shards_pruned",
            "cache_hits",
            "cache_misses",
            "cache_repairs",
            "cache_evictions",
            "failovers",
            "hedges",
            "hedge_wins",
        ],
        ("Catalog", "Table") => &["bytes", "version"],
        ("Table", "Column") => &["nullable"],
        ("Trace", "Event") => &["actor", "action", "elapsed_us"],
        _ => &[],
    }
}

/// The results a reader requires of a `method` reply because its writer
/// always returns them.
fn always_returned(method: &str) -> &'static [&'static str] {
    match method {
        "CommitReceive" => &["version"],
        "SkyQuery" => &["degraded", "dropped", "trace"],
        "SubmitQuery" => &["duplicate"],
        "CancelJob" => &["cancelled"],
        "FetchResults" => &["degraded", "dropped"],
        _ => &[],
    }
}

/// Checks that `e` and every element under it carry what
/// [`always_written`] names, counting each element checked by name.
fn assert_written(
    at: &str,
    parent: &str,
    e: &skyquery_xml::Element,
    seen: &mut std::collections::BTreeMap<String, usize>,
) {
    let required = always_written(parent, &e.name);
    for name in required {
        assert!(e.attr(name).is_some(), "{at}: {} without {name}", e.name);
    }
    if !required.is_empty() {
        *seen.entry(e.name.clone()).or_default() += 1;
    }
    for child in &e.children {
        assert_written(at, &e.name, child, seen);
    }
}

/// Checks every call and reply of `log` for what its reader requires:
/// the attributes of each XML payload, and each reply's results.
/// Returns how many of each element and reply it checked.
fn assert_required_present(
    name: &str,
    log: &Transcript,
) -> std::collections::BTreeMap<String, usize> {
    let mut seen = std::collections::BTreeMap::new();
    for (action, req, resp) in log.lock().unwrap().iter() {
        let at = format!("{name} {action}");
        let call = RpcCall::parse(std::str::from_utf8(req).unwrap()).unwrap();
        let mut values = call.params;
        if let Ok(Ok(reply)) = RpcResponse::parse(std::str::from_utf8(resp).unwrap()) {
            let required = always_returned(&reply.method);
            for result in required {
                assert!(reply.get(result).is_some(), "{at}: reply without {result}");
            }
            if !required.is_empty() {
                *seen.entry(format!("{}Response", reply.method)).or_default() += 1;
            }
            values.extend(reply.results);
        }
        for (_, value) in &values {
            if let Some(e) = value.as_xml() {
                assert_written(&at, "", e, &mut seen);
            }
        }
    }
    seen
}

/// What a reader requires because its writer always writes it is on the
/// wire: in every body of the six scenarios above, in a registration's
/// Information and Metadata replies, in a Portal `SkyQuery` reply, in a
/// `CommitReceive` reply and in a `CancelJob` reply.
#[test]
fn every_body_carries_what_its_reader_requires() {
    type Scenario = fn() -> Transcript;
    let scenarios: [(&str, Scenario); 6] = [
        ("recursive", || paper_triple(ChainMode::Recursive)),
        ("checkpointed", || paper_triple(ChainMode::Checkpointed)),
        ("scatter", garbled_scatter),
        ("dense", dense_pair),
        ("job", paginated_job),
        ("repair", repaired_triple),
    ];
    let mut seen = std::collections::BTreeMap::new();
    for (name, scenario) in scenarios {
        for (element, n) in assert_required_present(name, &scenario()) {
            *seen.entry(element).or_insert(0) += n;
        }
    }

    let fed = FederationBuilder::paper_triple(200).build();
    let log = record_nodes(&fed);
    record(&fed.net, fed.portal.host(), fed.portal.clone(), &log);
    let sdss = fed.node("SDSS").unwrap().url();
    fed.portal.register_node(&sdss).unwrap();
    let sql = "SELECT O.object_id, T.object_id FROM SDSS:Photo_Object O, \
               TWOMASS:Photo_Primary T WHERE XMATCH(O, T) < 3.5 ORDER BY O.object_id DESC";
    fed.client("web").query(sql).unwrap();
    fed.portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id, O.i_flux FROM SDSS:Photo_Object O WHERE O.i_flux > 400",
            "FIRST",
            "bright",
        )
        .unwrap();
    let svc = JobService::start(
        &fed.net,
        "jobs.skyquery.net",
        fed.portal.clone(),
        JobServiceConfig::default(),
    );
    record(&fed.net, svc.host(), svc.clone(), &log);
    let cli = JobClient::new(&fed.net, "alice-web", svc.url());
    let id = cli.submit("alice", sql).unwrap();
    cli.cancel(id).unwrap();
    for (element, n) in assert_required_present("extra", &log) {
        *seen.entry(element).or_insert(0) += n;
    }

    for checked in [
        "Plan",
        "Key",
        "Step",
        "Table",
        "Column",
        "Event",
        "CommitReceiveResponse",
        "SkyQueryResponse",
        "SubmitQueryResponse",
        "CancelJobResponse",
        "FetchResultsResponse",
    ] {
        assert!(
            seen.get(checked).is_some_and(|n| *n > 0),
            "no {checked} checked: {seen:?}"
        );
    }
}
