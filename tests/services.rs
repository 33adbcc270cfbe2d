//! Service-level conversations: the four SkyNode Web services plus WSDL,
//! spoken directly over SOAP/HTTP — the §5.1 contract each autonomous
//! node must honour.

use skyquery_core::meta::catalog_from_element;
use skyquery_core::skynode::send_rpc;
use skyquery_core::ArchiveInfo;
use skyquery_net::HttpRequest;
use skyquery_sim::FederationBuilder;
use skyquery_soap::{wsdl, RpcCall, RpcResponse, SoapValue};
use skyquery_xml::Element;

fn fed() -> skyquery_sim::TestFederation {
    FederationBuilder::paper_triple(200).build()
}

#[test]
fn information_service_returns_survey_constants() {
    let fed = fed();
    let node = fed.node("SDSS").unwrap();
    let resp = send_rpc(&fed.net, "probe", &node.url(), &RpcCall::new("Information")).unwrap();
    let info = ArchiveInfo::from_element(resp.require("info").unwrap().as_xml().unwrap()).unwrap();
    assert_eq!(info.name, "SDSS");
    assert!((info.sigma_arcsec - 0.1).abs() < 1e-12);
    assert_eq!(info.primary_table, "Photo_Object");
}

#[test]
fn metadata_service_describes_full_schema() {
    let fed = fed();
    let node = fed.node("TWOMASS").unwrap();
    let resp = send_rpc(&fed.net, "probe", &node.url(), &RpcCall::new("Metadata")).unwrap();
    let catalog = catalog_from_element(resp.require("catalog").unwrap().as_xml().unwrap()).unwrap();
    assert_eq!(catalog.database, "TWOMASS");
    let table = catalog.table("Photo_Primary").unwrap();
    assert!(table.row_count > 0);
    let names: Vec<&str> = table
        .schema
        .columns
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, vec!["object_id", "ra", "dec", "type", "i_flux"]);
    assert!(table.schema.position.is_some());
}

#[test]
fn query_service_answers_projections_and_counts() {
    let fed = fed();
    let node = fed.node("SDSS").unwrap();
    let count_resp = send_rpc(
        &fed.net,
        "probe",
        &node.url(),
        &RpcCall::new("Query").param(
            "sql",
            SoapValue::Str("SELECT count(*) FROM SDSS:Photo_Object O".into()),
        ),
    )
    .unwrap();
    let count = count_resp.require("count").unwrap().as_i64().unwrap();
    assert!(count > 0);

    let rows_resp = send_rpc(
        &fed.net,
        "probe",
        &node.url(),
        &RpcCall::new("Query").param(
            "sql",
            SoapValue::Str(
                "SELECT O.object_id, O.i_flux FROM SDSS:Photo_Object O WHERE O.i_flux > 500".into(),
            ),
        ),
    )
    .unwrap();
    let table = rows_resp.require("rows").unwrap().as_table().unwrap();
    assert!(table.row_count() < count as usize);
}

#[test]
fn unknown_service_faults_with_client_error() {
    let fed = fed();
    let node = fed.node("FIRST").unwrap();
    let err = send_rpc(
        &fed.net,
        "probe",
        &node.url(),
        &RpcCall::new("SelfDestruct"),
    )
    .unwrap_err();
    assert!(err.to_string().contains("unknown service"), "{err}");
}

#[test]
fn malformed_soap_gets_a_fault_not_a_crash() {
    let fed = fed();
    let node = fed.node("SDSS").unwrap();
    let resp = fed
        .net
        .send(
            "probe",
            &node.url(),
            HttpRequest::soap_post("/soap", "urn:garbage", "<not-even-soap"),
        )
        .unwrap();
    assert_eq!(resp.status.code(), 500);
    let parsed = RpcResponse::parse(std::str::from_utf8(&resp.body).unwrap())
        .unwrap()
        .unwrap_err();
    assert_eq!(parsed.code, "Client");
}

#[test]
fn wsdl_describes_all_services_with_endpoint() {
    let fed = fed();
    let node = fed.node("SDSS").unwrap();
    let doc = Element::parse(&node.wsdl()).unwrap();
    let ops = wsdl::operation_names(&doc).unwrap();
    for expected in [
        "Information",
        "Metadata",
        "Query",
        "CrossMatch",
        "FetchChunk",
    ] {
        assert!(ops.contains(&expected.to_string()), "missing {expected}");
    }
    assert_eq!(
        wsdl::endpoint_address(&doc).unwrap(),
        "http://sdss.skyquery.net/soap"
    );
}

#[test]
fn portal_registration_service_round_trip() {
    // Register the same node twice through the SOAP Registration service:
    // idempotent, and the catalog reflects the latest state.
    let fed = fed();
    let node = fed.node("FIRST").unwrap();
    let resp = send_rpc(
        &fed.net,
        node.host(),
        &fed.portal.url(),
        &RpcCall::new("Register").param("url", SoapValue::Str(node.url().to_string())),
    )
    .unwrap();
    assert_eq!(resp.require("archive").unwrap().as_str(), Some("FIRST"));
    assert_eq!(fed.portal.archives().len(), 3);
}

#[test]
fn skyquery_service_faults_on_unregistered_archive() {
    let fed = fed();
    let err = send_rpc(
        &fed.net,
        "client",
        &fed.portal.url(),
        &RpcCall::new("SkyQuery").param(
            "sql",
            SoapValue::Str(
                "SELECT H.x FROM HUBBLE:T H, SDSS:Photo_Object O WHERE XMATCH(H, O) < 3.0".into(),
            ),
        ),
    )
    .unwrap_err();
    assert!(err.to_string().contains("not registered"), "{err}");
}

#[test]
fn cross_match_call_with_bad_step_faults() {
    let fed = fed();
    let node = fed.node("SDSS").unwrap();
    // A plan whose step index is out of range.
    let plan = skyquery_core::ExecutionPlan {
        threshold: 3.0,
        region: None,
        steps: vec![skyquery_core::PlanStep {
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
        max_message_bytes: 10 * 1024 * 1024,
        chunking: true,
        kernel: Default::default(),
        retry: Default::default(),
        lease_ttl_s: skyquery_core::plan::DEFAULT_LEASE_TTL_S,
    };
    let err = send_rpc(
        &fed.net,
        "probe",
        &node.url(),
        &RpcCall::new("CrossMatch")
            .param("plan", SoapValue::Xml(plan.to_element()))
            .param("step", SoapValue::Int(5)),
    )
    .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    // And a plan step addressed to the wrong archive is refused
    // (autonomy check).
    let err = send_rpc(
        &fed.net,
        "probe",
        &fed.node("TWOMASS").unwrap().url(),
        &RpcCall::new("CrossMatch")
            .param("plan", SoapValue::Xml(plan.to_element()))
            .param("step", SoapValue::Int(0)),
    )
    .unwrap_err();
    assert!(err.to_string().contains("this node is TWOMASS"), "{err}");
}

#[test]
fn uddi_discovery_lists_the_federation() {
    let fed = fed();
    let portals = fed.portal.discover("Portal");
    assert_eq!(portals.len(), 1);
    assert_eq!(portals[0].url.host, "portal.skyquery.net");
    let nodes = fed.portal.discover("SkyNode");
    assert_eq!(nodes.len(), 3);
    assert_eq!(nodes[0].provider, "FIRST");
    assert!(nodes.iter().any(|r| r.description.contains("Photo_Object")));
    // Unregistering an archive removes its discovery record.
    fed.portal.unregister("FIRST");
    assert_eq!(fed.portal.discover("SkyNode").len(), 2);
}
