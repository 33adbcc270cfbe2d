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
//! Records are sorted before digesting: scatter fan-out and concurrent
//! performance queries interleave their messages in thread order, which
//! is not part of the wire contract. Every recorded body must also
//! re-encode to itself, and every prefix of one call body and one reply
//! body must decode to an error, never panic.

use std::sync::{Arc, Mutex};

use skyquery_core::{ChainMode, FederationConfig};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig};
use skyquery_net::{Endpoint, FaultKind, FaultPlan, FaultRule, HttpRequest, SimNetwork};
use skyquery_sim::{xmatch_query, CatalogParams, FederationBuilder, SurveyParams, TestFederation};
use skyquery_soap::{RpcCall, RpcResponse};

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
    check("recursive", &log, 6, 0x6b75_0a4d_73ad_5ade);
}

#[test]
fn paper_triple_checkpointed() {
    let log = paper_triple(ChainMode::Checkpointed);
    check("checkpointed", &log, 12, 0xcc7f_1064_5064_6bb4);
}

#[test]
fn sharded_replicated_scatter_with_a_garbled_extent() {
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
    check("scatter", &log, 23, 0x2dff_f47c_69f3_79a2);
}

#[test]
fn dense_pair_under_a_small_message_limit() {
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
    // The chunks are the sender's rows, with no sequence column beside
    // them.
    assert!(log
        .lock()
        .unwrap()
        .iter()
        .all(|(_, _, resp)| !String::from_utf8_lossy(resp).contains("__seq")));
    check("dense", &log, 15, 0x623b_d643_3a27_9974);
}

#[test]
fn paginated_job_results() {
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
    assert!(log
        .lock()
        .unwrap()
        .iter()
        .any(|(action, _, _)| action.ends_with("#FetchChunk")));
    check("job", &log, 38, 0x2de8_68f8_fb23_7063);
}
