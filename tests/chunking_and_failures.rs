//! The §6 message-size workaround and failure injection: chunked
//! transfers under small parser limits, the pre-workaround fault, node
//! outages, and malformed inputs.

use skyquery_core::skynode::send_rpc;
use skyquery_core::{ExecutionPlan, FederationConfig, FederationError, PlanStep};
use skyquery_sim::{xmatch_query, FederationBuilder, TestFederation};
use skyquery_soap::{ChunkManifest, RpcCall, SoapValue};

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

#[test]
fn chunked_transfer_preserves_results_under_tiny_limit() {
    let fed = FederationBuilder::paper_triple(600).build();
    let sql = two_archive_sql();
    // Reference run with the default 10 MB limit (no chunking needed).
    let (reference, _) = fed.portal.submit(&sql).unwrap();
    assert!(reference.row_count() > 0);

    // Now force a parser limit far below the partial-result size.
    fed.portal.set_config(FederationConfig {
        max_message_bytes: 20_000,
        chunking: true,
        ..FederationConfig::default()
    });
    fed.net.reset_metrics();
    let (chunked, _) = fed.portal.submit(&sql).unwrap();
    let key = |rs: &skyquery_core::ResultSet| {
        let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    assert_eq!(key(&chunked), key(&reference));

    // The workaround multiplies messages: FetchChunk round trips appear.
    let m = fed.net.metrics();
    assert!(
        m.total().messages > 10,
        "expected chunk-fetch traffic, saw {} messages",
        m.total().messages
    );
    // And no single message exceeded the limit by an order of magnitude
    // (header overhead allows slack above the body budget).
    for ((_, _), stats) in m.links() {
        assert!(stats.bytes / stats.messages.max(1) < 40_000);
    }
}

#[test]
fn without_chunking_oversized_results_fault() {
    let fed = FederationBuilder::paper_triple(600).build();
    fed.portal.set_config(FederationConfig {
        max_message_bytes: 20_000,
        chunking: false, // the pre-workaround SOAP stack
        ..FederationConfig::default()
    });
    let err = fed.portal.submit(&two_archive_sql()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("exceeds parser limit") || msg.contains("bytes"),
        "unexpected error: {msg}"
    );
}

#[test]
fn small_results_never_chunk() {
    let fed = FederationBuilder::paper_triple(60).build();
    fed.portal.set_config(FederationConfig {
        max_message_bytes: 5 * 1024 * 1024,
        chunking: true,
        ..FederationConfig::default()
    });
    fed.net.reset_metrics();
    fed.portal.submit(&two_archive_sql()).unwrap();
    // Without chunking pressure the chain exchanges one call+response per
    // hop plus performance queries: a small, bounded message count.
    let m = fed.net.metrics().total();
    assert!(m.messages <= 12, "unexpected extra traffic: {}", m.messages);
}

/// Calls CrossMatch directly at a node with a single-step (seed-only)
/// plan and a tiny message budget, returning the transfer's manifest so
/// tests can drive the FetchChunk continuation by hand.
fn open_seed_transfer(fed: &TestFederation) -> ChunkManifest {
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
        xmatch_workers: 1,
        zone_height_deg: skyquery_core::plan::DEFAULT_ZONE_HEIGHT_DEG,
        kernel: Default::default(),
        retry: Default::default(),
        lease_ttl_s: skyquery_core::plan::DEFAULT_LEASE_TTL_S,
    };
    let resp = send_rpc(
        &fed.net,
        "tester",
        &node.url(),
        &RpcCall::new("CrossMatch")
            .param("plan", SoapValue::Xml(plan.to_element()))
            .param("step", SoapValue::Int(0)),
    )
    .expect("cross match succeeds");
    let manifest = resp
        .require("manifest")
        .expect("tiny budget forces a chunked reply")
        .as_xml()
        .expect("manifest is xml")
        .clone();
    ChunkManifest::from_element(&manifest).expect("manifest decodes")
}

fn fetch_chunk(
    fed: &TestFederation,
    transfer_id: u64,
    index: usize,
) -> Result<skyquery_soap::RpcResponse, FederationError> {
    let node = fed.node("SDSS").unwrap();
    send_rpc(
        &fed.net,
        "tester",
        &node.url(),
        &RpcCall::new("FetchChunk")
            .param("transfer_id", SoapValue::Int(transfer_id as i64))
            .param("index", SoapValue::Int(index as i64)),
    )
}

#[test]
fn fetch_chunk_with_missing_index_faults() {
    let fed = FederationBuilder::paper_triple(400).build();
    let manifest = open_seed_transfer(&fed);
    assert!(manifest.total_chunks() > 1, "budget must force chunking");
    let err = fetch_chunk(&fed, manifest.transfer_id, manifest.total_chunks() + 5).unwrap_err();
    assert!(err.to_string().contains("no chunk"), "{err}");
    // The bad index did not tear down the transfer: chunk 0 still serves.
    fetch_chunk(&fed, manifest.transfer_id, 0).expect("transfer survives a bad index");
}

#[test]
fn fetch_chunk_with_negative_index_is_refused() {
    let fed = FederationBuilder::paper_triple(400).build();
    let manifest = open_seed_transfer(&fed);
    let node = fed.node("SDSS").unwrap();
    let err = send_rpc(
        &fed.net,
        "tester",
        &node.url(),
        &RpcCall::new("FetchChunk")
            .param("transfer_id", SoapValue::Int(manifest.transfer_id as i64))
            .param("index", SoapValue::Int(-1)),
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("must be a non-negative integer"),
        "{err}"
    );
    // The refused index did not tear down the transfer: chunk 0 serves.
    fetch_chunk(&fed, manifest.transfer_id, 0).expect("transfer survives a negative index");
}

#[test]
fn out_of_order_fetch_frees_transfer_after_last_chunk() {
    let fed = FederationBuilder::paper_triple(400).build();
    let manifest = open_seed_transfer(&fed);
    let last = manifest.total_chunks() - 1;
    assert!(last > 0, "budget must force multiple chunks");
    // Serving the final chunk frees the transfer — an out-of-order reader
    // that jumps to the end loses the rest.
    fetch_chunk(&fed, manifest.transfer_id, last).expect("last chunk serves");
    let err = fetch_chunk(&fed, manifest.transfer_id, 0).unwrap_err();
    assert!(err.to_string().contains("is not leased"), "{err}");
}

#[test]
fn transfer_freed_after_ordered_drain() {
    let fed = FederationBuilder::paper_triple(400).build();
    let manifest = open_seed_transfer(&fed);
    for index in 0..manifest.total_chunks() {
        let resp = fetch_chunk(&fed, manifest.transfer_id, index).expect("in-order fetch");
        assert_eq!(resp.require("index").unwrap().as_i64(), Some(index as i64));
    }
    // The node frees the transfer with the last chunk; re-fetching faults.
    let err = fetch_chunk(&fed, manifest.transfer_id, 0).unwrap_err();
    assert!(err.to_string().contains("is not leased"), "{err}");
}

#[test]
fn fetch_chunk_for_unknown_transfer_faults() {
    let fed = FederationBuilder::paper_triple(100).build();
    let err = fetch_chunk(&fed, 424242, 0).unwrap_err();
    assert!(err.to_string().contains("is not leased"), "{err}");
}

#[test]
fn offline_node_surfaces_as_unreachable() {
    let fed = FederationBuilder::paper_triple(100).build();
    // Take TWOMASS off the network after registration.
    fed.net.unbind("twomass.skyquery.net");
    // The portal retries the unreachable host until the budget runs out,
    // then reports the node unhealthy with the transport cause attached.
    let err = fed.portal.submit(&two_archive_sql()).unwrap_err();
    match err {
        FederationError::NodeUnhealthy { host, cause, .. } => {
            assert_eq!(host, "twomass.skyquery.net");
            match *cause {
                FederationError::Net(e) => assert!(e.to_string().contains("unreachable")),
                other => panic!("expected a network cause, got {other}"),
            }
        }
        other => panic!("expected NodeUnhealthy, got {other}"),
    }
    assert_eq!(
        fed.portal.unhealthy_hosts(),
        vec!["twomass.skyquery.net".to_string()]
    );
}

#[test]
fn mid_chain_node_failure_propagates_as_fault() {
    let fed = FederationBuilder::paper_triple(200).build();
    // Sabotage the seed archive (FIRST is smallest → seed): drop its
    // primary table so the seed step fails *inside* the chain.
    let sql = xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
            ("FIRST", "Primary_Object", "P"),
        ],
        3.5,
        None,
    );
    fed.node("FIRST")
        .unwrap()
        .with_db(|db| db.drop_table("Primary_Object"))
        .unwrap();
    let err = fed.portal.submit(&sql).unwrap_err();
    // The storage error at FIRST crosses two SOAP hops as a Fault.
    match err {
        FederationError::Fault(f) => {
            assert!(f.message.contains("unknown table"), "fault: {f}")
        }
        other => panic!("expected a SOAP fault, got {other}"),
    }
}

#[test]
fn malformed_sql_rejected_before_any_network_traffic() {
    let fed = FederationBuilder::paper_triple(100).build();
    fed.net.reset_metrics();
    assert!(fed.portal.submit("SELECT FROM WHERE").is_err());
    assert!(fed.portal.submit("").is_err());
    assert!(fed
        .portal
        .submit("SELECT O.a FROM SDSS:Photo_Object O") // no XMATCH
        .is_err());
    assert_eq!(fed.net.metrics().total().messages, 0);
}

#[test]
fn client_sees_faults_from_bad_queries() {
    let fed = FederationBuilder::paper_triple(100).build();
    let client = fed.client("user");
    let err = client.query("SELECT broken").unwrap_err();
    match err {
        FederationError::Fault(f) => assert_eq!(f.code, "Client"),
        other => panic!("expected fault, got {other}"),
    }
}

#[test]
fn query_on_nonexistent_table_fails_cleanly() {
    let fed = FederationBuilder::paper_triple(100).build();
    let err = fed
        .portal
        .submit(&xmatch_query(
            &[
                ("SDSS", "NoSuchTable", "O"),
                ("TWOMASS", "Photo_Primary", "T"),
            ],
            3.5,
            None,
        ))
        .unwrap_err();
    // The performance query reaches the SkyNode first, which faults with
    // its storage error ("unknown table"); if it didn't, the planner's
    // own catalog check ("has no table") would reject the plan.
    let msg = err.to_string();
    assert!(
        msg.contains("unknown table") || msg.contains("no table"),
        "{msg}"
    );
}
