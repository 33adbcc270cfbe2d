//! The §6 data-exchange extension end to end: atomic table transfer
//! between archives over two-phase commit on stateless SOAP.

use skyquery_sim::FederationBuilder;

#[test]
fn transfer_copies_rows_atomically() {
    let fed = FederationBuilder::paper_triple(500).build();
    // Copy bright SDSS galaxies into a new table at TWOMASS.
    let report = fed
        .portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id, O.ra, O.dec, O.i_flux FROM SDSS:Photo_Object O \
             WHERE O.type = GALAXY AND O.i_flux > 100",
            "TWOMASS",
            "sdss_bright_galaxies",
        )
        .unwrap();
    assert!(report.rows_copied > 0);
    assert_eq!(report.destination, "TWOMASS");

    // The destination now has exactly that many rows, with real values.
    let twomass = fed.node("TWOMASS").unwrap();
    let n = twomass.with_db(|db| db.row_count("sdss_bright_galaxies").unwrap());
    assert_eq!(n, report.rows_copied);
    let all_positive = twomass.with_db(|db| {
        db.table("sdss_bright_galaxies")
            .unwrap()
            .rows()
            .iter()
            .all(|r| r[3].as_f64().unwrap() > 100.0)
    });
    assert!(all_positive);
    // No transaction left pending.
    assert!(twomass.pending_exchange_txns().is_empty());
}

#[test]
fn repeated_transfer_appends() {
    let fed = FederationBuilder::paper_triple(300).build();
    let sql = "SELECT O.object_id, O.i_flux FROM SDSS:Photo_Object O WHERE O.i_flux > 400";
    let r1 = fed
        .portal
        .transfer_table("SDSS", sql, "FIRST", "bright")
        .unwrap();
    let r2 = fed
        .portal
        .transfer_table("SDSS", sql, "FIRST", "bright")
        .unwrap();
    let n = fed
        .node("FIRST")
        .unwrap()
        .with_db(|db| db.row_count("bright").unwrap());
    assert_eq!(n, r1.rows_copied + r2.rows_copied);
    assert_ne!(r1.txn_id, r2.txn_id);
}

#[test]
fn incompatible_destination_schema_aborts_cleanly() {
    let fed = FederationBuilder::paper_triple(200).build();
    // Pre-create a conflicting destination table.
    fed.node("TWOMASS").unwrap().with_db(|db| {
        db.create_table(skyquery_storage::TableSchema::new(
            "conflicted",
            vec![skyquery_storage::ColumnDef::new(
                "different",
                skyquery_storage::DataType::Text,
            )],
        ))
        .unwrap();
    });
    let err = fed
        .portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id FROM SDSS:Photo_Object O",
            "TWOMASS",
            "conflicted",
        )
        .unwrap_err();
    assert!(err.to_string().contains("incompatible"), "{err}");
    // Prepare voted no: nothing staged, table unchanged.
    let node = fed.node("TWOMASS").unwrap();
    assert!(node.pending_exchange_txns().is_empty());
    assert_eq!(node.with_db(|db| db.row_count("conflicted").unwrap()), 0);
}

#[test]
fn unreachable_destination_means_no_transfer() {
    let fed = FederationBuilder::paper_triple(200).build();
    fed.net.unbind("twomass.skyquery.net");
    let err = fed
        .portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id FROM SDSS:Photo_Object O",
            "TWOMASS",
            "copy",
        )
        .unwrap_err();
    assert!(err.to_string().contains("unreachable"), "{err}");
}

#[test]
fn source_must_match_query() {
    let fed = FederationBuilder::paper_triple(100).build();
    // Query addresses TWOMASS but the declared source is SDSS.
    let err = fed
        .portal
        .transfer_table(
            "SDSS",
            "SELECT T.object_id FROM TWOMASS:Photo_Primary T",
            "FIRST",
            "copy",
        )
        .unwrap_err();
    assert!(err.to_string().contains("exactly SDSS"), "{err}");
    // Unregistered participants are refused outright.
    assert!(fed
        .portal
        .transfer_table("HUBBLE", "SELECT H.x FROM HUBBLE:T H", "SDSS", "t")
        .is_err());
    assert!(fed
        .portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id FROM SDSS:Photo_Object O",
            "HUBBLE",
            "t"
        )
        .is_err());
}

#[test]
fn transferred_rows_queryable_at_destination() {
    // The copied table becomes part of the destination's autonomous
    // database: its own Query service can select from it.
    let fed = FederationBuilder::paper_triple(300).build();
    fed.portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id, O.i_flux FROM SDSS:Photo_Object O WHERE O.i_flux > 200",
            "TWOMASS",
            "imported",
        )
        .unwrap();
    use skyquery_core::skynode::send_rpc;
    use skyquery_soap::{RpcCall, SoapValue};
    let node = fed.node("TWOMASS").unwrap();
    let resp = send_rpc(
        &fed.net,
        "tester",
        &node.url(),
        &RpcCall::new("Query").param(
            "sql",
            SoapValue::Str("SELECT count(*) FROM TWOMASS:imported I".into()),
        ),
    )
    .unwrap();
    let count = resp.require("count").unwrap().as_i64().unwrap();
    assert!(count > 0);
    let direct = node.with_db(|db| db.row_count("imported").unwrap());
    assert_eq!(count as usize, direct);
    // And its Meta-data service now advertises the new table.
    let meta = send_rpc(&fed.net, "tester", &node.url(), &RpcCall::new("Metadata")).unwrap();
    let catalog = skyquery_core::meta::catalog_from_element(
        meta.require("catalog").unwrap().as_xml().unwrap(),
    )
    .unwrap();
    assert!(catalog.table("imported").is_some());
}

#[test]
fn malformed_wire_commit_version_is_refused() {
    // A participant that commits but reports a negative table version:
    // `as u64` would wrap it into a huge version the registry's monotone
    // `max` then keeps for good, so the coordinator refuses the reply.
    use std::sync::Arc;

    use skyquery_net::{Endpoint, HttpRequest, HttpResponse, SimNetwork};
    use skyquery_soap::{RpcResponse, SoapValue};

    let fed = FederationBuilder::paper_triple(200).build();
    let node = fed.node("FIRST").unwrap().clone();
    let lying = RpcResponse::new("CommitReceive")
        .result("version", SoapValue::Int(-1))
        .to_xml();
    fed.net.bind(
        node.host().to_string(),
        Arc::new(move |net: &SimNetwork, req: HttpRequest| {
            let commit = req
                .soap_action()
                .is_some_and(|a| a.ends_with("#CommitReceive"));
            let served = node.handle(net, req);
            if commit {
                HttpResponse::ok(lying.clone())
            } else {
                served
            }
        }),
    );
    let err = fed
        .portal
        .transfer_table(
            "SDSS",
            "SELECT O.object_id, O.i_flux FROM SDSS:Photo_Object O WHERE O.i_flux > 400",
            "FIRST",
            "bright",
        )
        .unwrap_err();
    assert!(
        matches!(&err, skyquery_core::FederationError::Protocol { detail } if detail.contains("version")),
        "{err}"
    );
}
