//! Repro: attacker-controlled plan length drives unbounded recursion.

use skyquery_core::skynode::send_rpc;
use skyquery_core::{ExecutionPlan, PlanStep};
use skyquery_sim::FederationBuilder;
use skyquery_soap::{RpcCall, SoapValue};

#[test]
fn malicious_long_plan_overflows_stack() {
    let fed = FederationBuilder::paper_triple(10).build();
    let node = fed.node("SDSS").unwrap();
    let n = 50_000usize;
    let step = |_i: usize| PlanStep {
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
    };
    let plan = ExecutionPlan {
        threshold: 3.0,
        region: None,
        steps: (0..n).map(step).collect(),
        select: vec![("O.object_id".into(), None)],
        order_by: vec![],
        limit: None,
        max_message_bytes: usize::MAX / 2,
        chunking: true,
        kernel: Default::default(),
        retry: Default::default(),
        lease_ttl_s: skyquery_core::plan::DEFAULT_LEASE_TTL_S,
    };
    let res = send_rpc(
        &fed.net,
        "attacker",
        &node.url(),
        &RpcCall::new("CrossMatch")
            .param("plan", SoapValue::Xml(plan.to_element()))
            .param("step", SoapValue::Int(0)),
    );
    eprintln!("survived: {:?}", res.map(|_| ()).err());
}
