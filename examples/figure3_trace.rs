//! Figure 3 reproduced: the step-by-step choreography of a cross-match
//! query between Client, Portal, and SkyNodes — including the count-star
//! performance queries, the plan, the daisy chain, and the per-node
//! statistics flowing back.
//!
//! ```text
//! cargo run --example figure3_trace
//! ```

use skyquery_core::{FederationConfig, OrderingStrategy};
use skyquery_sim::{paper_query, FederationBuilder};

fn main() {
    let fed = FederationBuilder::paper_triple(1500)
        .config(FederationConfig {
            ordering: OrderingStrategy::CountStarDescending,
            ..FederationConfig::default()
        })
        .build();

    let sql = paper_query();
    println!("Figure 3 — the order in which the sample query gets executed\n");
    println!("User query:\n  {sql}\n");

    let client = fed.client("web-client");
    let (result, trace) = client.query(&sql).expect("query succeeds");

    println!("{}", trace.render());

    println!(
        "Final result relayed to the Client: {} matched tuples",
        result.row_count()
    );

    // The same run, seen from the network: every SOAP message between
    // the components, hop by hop.
    println!("\nSOAP traffic (simulated HTTP):");
    for ((from, to), stats) in fed.net.metrics().links() {
        println!(
            "  {from:<24} -> {to:<24} {:>3} messages {:>9} bytes",
            stats.messages, stats.bytes
        );
    }
}
