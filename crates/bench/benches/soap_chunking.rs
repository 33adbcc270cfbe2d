//! Experiment E5 — §6: "The XML parser at the SkyNode would run out of
//! memory while parsing SOAP messages of about 10 MB. We worked around by
//! dividing large data sets into smaller chunks."
//!
//! Table: for a fixed large partial result, the number of messages, peak
//! message size, and total bytes as the parser limit shrinks — plus the
//! failure of the unchunked path. Criterion times end-to-end queries at
//! several limits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skyquery_bench::{triple_federation, triple_query};
use skyquery_core::FederationConfig;

fn print_table() {
    println!("\n=== E5: chunked transfer under shrinking parser limits (2000 bodies) ===");
    println!(
        "{:<16} {:>10} {:>16} {:>14} {:>10}",
        "limit (bytes)", "messages", "peak msg bytes", "total bytes", "result ok"
    );
    let sql = triple_query(3.5);
    for limit in [10 * 1024 * 1024, 200_000, 50_000, 20_000] {
        // A fresh federation per run: a Portal that has planned the
        // query holds its counts and would not send the count-stars
        // again, and every run's messages include them.
        let fed = triple_federation(2000);
        fed.portal.set_config(FederationConfig {
            max_message_bytes: limit,
            chunking: true,
            ..FederationConfig::default()
        });
        fed.net.reset_metrics();
        let ok = fed.portal.submit(&sql).is_ok();
        let m = fed.net.metrics();
        let peak = m
            .links()
            .iter()
            .map(|(_, s)| s.bytes / s.messages.max(1))
            .max()
            .unwrap_or(0);
        println!(
            "{:<16} {:>10} {:>16} {:>14} {:>10}",
            limit,
            m.total().messages,
            peak,
            m.total().bytes,
            ok
        );
    }

    // The pre-workaround behaviour: chunking off, tiny limit → fault.
    let fed = triple_federation(2000);
    fed.portal.set_config(FederationConfig {
        max_message_bytes: 20_000,
        chunking: false,
        ..FederationConfig::default()
    });
    let err = fed.portal.submit(&sql).unwrap_err();
    println!("without chunking at 20000-byte limit: FAULT ({err})");
    println!("(chunking trades more messages for bounded message size)\n");
}

fn bench(c: &mut Criterion) {
    print_table();
    let fed = triple_federation(1200);
    let sql = triple_query(3.5);
    let mut group = c.benchmark_group("e5_chunking");
    group.sample_size(10);
    for limit in [10_000_000usize, 100_000, 30_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("limit_{limit}")),
            &limit,
            |b, &limit| {
                fed.portal.set_config(FederationConfig {
                    max_message_bytes: limit,
                    chunking: true,
                    ..FederationConfig::default()
                });
                b.iter(|| fed.portal.submit(&sql).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
