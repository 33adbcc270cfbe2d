//! Robustness: hostile/broken peers and concurrent clients. A federation
//! of autonomous archives must survive nodes that answer garbage, and a
//! Portal must serve many astronomers at once.

use std::sync::Arc;

use skyquery_core::{Client, FederationError, Portal};
use skyquery_net::{Endpoint, HttpRequest, HttpResponse, SimNetwork, Url};
use skyquery_sim::{xmatch_query, FederationBuilder};
use skyquery_soap::{RpcResponse, SoapValue};

/// An endpoint that answers every request with the given body.
struct CannedEndpoint(&'static str);

impl Endpoint for CannedEndpoint {
    fn handle(&self, _net: &SimNetwork, _req: HttpRequest) -> HttpResponse {
        HttpResponse::ok(self.0)
    }
}

#[test]
fn node_answering_garbage_xml_yields_protocol_error() {
    let fed = FederationBuilder::paper_triple(150).build();
    // Replace a registered node with one speaking broken XML.
    fed.net.bind(
        "twomass.skyquery.net",
        Arc::new(CannedEndpoint("<<<this is not xml")),
    );
    let err = fed
        .portal
        .submit(&xmatch_query(
            &[
                ("SDSS", "Photo_Object", "O"),
                ("TWOMASS", "Photo_Primary", "T"),
            ],
            3.5,
            None,
        ))
        .unwrap_err();
    // A garbage reply is indistinguishable from wire damage, so it is
    // retried; the canned endpoint keeps answering garbage, the budget
    // runs out, and the SOAP decode failure surfaces as the cause.
    match err {
        FederationError::NodeUnhealthy { cause, .. } => match *cause {
            FederationError::Soap(_) => {}
            other => panic!("expected a SOAP-layer cause, got {other}"),
        },
        other => panic!("expected NodeUnhealthy, got {other}"),
    }
}

#[test]
fn node_answering_wrong_message_type_yields_protocol_error() {
    let fed = FederationBuilder::paper_triple(150).build();
    // Valid SOAP, but a call where a response belongs.
    let canned = skyquery_soap::RpcCall::new("Query").to_xml();
    let leaked: &'static str = Box::leak(canned.into_boxed_str());
    fed.net
        .bind("twomass.skyquery.net", Arc::new(CannedEndpoint(leaked)));
    let err = fed
        .portal
        .submit(&xmatch_query(
            &[
                ("SDSS", "Photo_Object", "O"),
                ("TWOMASS", "Photo_Primary", "T"),
            ],
            3.5,
            None,
        ))
        .unwrap_err();
    assert!(
        err.to_string().contains("neither a Response nor a Fault"),
        "{err}"
    );
}

#[test]
fn registration_of_a_garbage_endpoint_fails_without_cataloging() {
    let net = SimNetwork::new();
    let portal = Portal::start(&net, "portal", skyquery_core::FederationConfig::default());
    net.bind("rogue", Arc::new(CannedEndpoint("total nonsense")));
    assert!(portal.register_node(&Url::new("rogue", "/soap")).is_err());
    assert!(portal.archives().is_empty());
}

#[test]
fn response_missing_required_results_is_an_error() {
    let fed = FederationBuilder::paper_triple(150).build();
    // A well-formed QueryResponse that lacks the `count` result.
    let canned = skyquery_soap::RpcResponse::new("Query").to_xml();
    let leaked: &'static str = Box::leak(canned.into_boxed_str());
    fed.net
        .bind("sdss.skyquery.net", Arc::new(CannedEndpoint(leaked)));
    let err = fed
        .portal
        .submit(&xmatch_query(
            &[
                ("SDSS", "Photo_Object", "O"),
                ("TWOMASS", "Photo_Primary", "T"),
            ],
            3.5,
            None,
        ))
        .unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let fed = FederationBuilder::paper_triple(500).build();
    let sql = xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
        ],
        3.5,
        None,
    );
    // Reference answer.
    let (reference, _) = fed.portal.submit(&sql).unwrap();
    let ref_rows = {
        let mut v: Vec<String> = reference.rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    // 8 clients × 3 queries each, all in flight together.
    std::thread::scope(|scope| {
        for c in 0..8 {
            let portal = fed.portal.clone();
            let sql = sql.clone();
            let ref_rows = ref_rows.clone();
            scope.spawn(move || {
                for _ in 0..3 {
                    let (result, _) = portal.submit(&sql).unwrap();
                    let mut rows: Vec<String> =
                        result.rows.iter().map(|r| format!("{r:?}")).collect();
                    rows.sort();
                    assert_eq!(rows, ref_rows, "client {c} saw a different answer");
                }
            });
        }
    });
}

#[test]
fn concurrent_queries_and_transfers_coexist() {
    let fed = FederationBuilder::paper_triple(300).build();
    let sql = xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("FIRST", "Primary_Object", "P"),
        ],
        3.5,
        None,
    );
    std::thread::scope(|scope| {
        let portal = fed.portal.clone();
        let q = sql.clone();
        scope.spawn(move || {
            for _ in 0..5 {
                portal.submit(&q).unwrap();
            }
        });
        let portal = fed.portal.clone();
        scope.spawn(move || {
            for i in 0..3 {
                portal
                    .transfer_table(
                        "SDSS",
                        "SELECT O.object_id FROM SDSS:Photo_Object O WHERE O.i_flux > 500",
                        "TWOMASS",
                        &format!("copy_{i}"),
                    )
                    .unwrap();
            }
        });
    });
    let node = fed.node("TWOMASS").unwrap();
    for i in 0..3 {
        assert!(node.with_db(|db| db.has_table(&format!("copy_{i}"))));
    }
}

/// Rebinds the federation's `archive` node so that its `method` calls are
/// answered with `reply`, and every other call by the node itself.
fn intercept(fed: &skyquery_sim::TestFederation, archive: &str, method: &str, reply: RpcResponse) {
    let node = fed.node(archive).unwrap().clone();
    let suffix = format!("#{method}");
    let body = reply.to_xml();
    fed.net.bind(
        node.host().to_string(),
        Arc::new(move |net: &SimNetwork, req: HttpRequest| {
            if req.soap_action().is_some_and(|a| a.ends_with(&suffix)) {
                return HttpResponse::ok(body.clone());
            }
            node.handle(net, req)
        }),
    );
}

#[test]
fn malformed_wire_negative_count_is_refused() {
    // A negative count-star answer would wrap to 2^64 - 1 and reorder
    // the plan around it; the Portal refuses it instead.
    let fed = FederationBuilder::paper_triple(150).build();
    intercept(
        &fed,
        "TWOMASS",
        "Query",
        RpcResponse::new("Query").result("count", SoapValue::Int(-1)),
    );
    let err = fed
        .portal
        .submit(&xmatch_query(
            &[
                ("SDSS", "Photo_Object", "O"),
                ("TWOMASS", "Photo_Primary", "T"),
            ],
            3.5,
            None,
        ))
        .unwrap_err();
    assert!(
        matches!(&err, FederationError::Protocol { detail } if detail.contains("count")),
        "{err}"
    );
}

#[test]
fn malformed_wire_degraded_flag_is_refused() {
    // A Portal whose degraded flag is present but not a boolean: the
    // client refuses the answer rather than taking it as complete.
    let net = SimNetwork::new();
    let table = skyquery_core::ResultSet::new(vec![]).to_votable("result");
    let reply = |degraded: SoapValue| {
        RpcResponse::new("SkyQuery")
            .result("result", SoapValue::Table(table.clone()))
            .result("degraded", degraded)
            .result("dropped", SoapValue::Str(String::new()))
            .result("trace", SoapValue::Xml(skyquery_xml::Element::new("Trace")))
            .to_xml()
    };
    for (host, degraded, ok) in [
        ("complete", SoapValue::Bool(false), true),
        ("garbled", SoapValue::Str("yes".into()), false),
        ("numeric", SoapValue::Int(1), false),
    ] {
        let body = reply(degraded);
        net.bind(
            host,
            Arc::new(move |_: &SimNetwork, _: HttpRequest| HttpResponse::ok(body.clone())),
        );
        let got = Client::new(&net, "astronomer", Url::new(host, "/soap")).query("SELECT 1");
        match got {
            Ok((rs, _)) => assert!(ok && !rs.degraded, "{host}"),
            Err(e) => assert!(
                !ok && matches!(e, FederationError::Protocol { .. }),
                "{host}: {e}"
            ),
        }
    }
}
