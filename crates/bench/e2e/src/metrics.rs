//! The metric tables: the one place a metric's name, unit, direction and
//! bound are written down. `BENCHMARK.json` is generated from them
//! (`--manifest`), and a test holds the committed file to them.

use crate::workloads;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the federation sees; same names on every workload.
/// Each bound is three times the widest quartile spread its metric showed
/// over ten seeds in the README's calibrations, and at most the quarter the
/// contract allows. That cap is what the wall-clock ones and `setup_s` get:
/// the reference machine is a shared two-core VM whose speed drifts by
/// 10–15 % over minutes, so their spreads are 7–15 %, and a bound under a
/// spread makes two runs of one commit a regression.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_op",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "wire_msgs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_link_s_per_op",
        unit: "s",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.07,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single layers, from the traced run. Counts and times are per op unless
/// the name says otherwise.
pub const PER_LAYER: [PerLayer; 63] = [
    layer("sql.parse_decompose_us", "us", "lower"),
    layer("plan.plan_query_ms", "ms", "lower"),
    layer("plan.perf_query_msgs", "count", "lower"),
    layer("exec.execute_plan_ms", "ms", "lower"),
    layer("exec.portal_self_ms", "ms", "lower"),
    layer("project.project_ms", "ms", "lower"),
    layer("render.votable_roundtrip_ms", "ms", "lower"),
    layer("client.soap_hop_ms", "ms", "lower"),
    layer("node.Query.calls", "count", "lower"),
    layer("node.Query.self_ms", "ms", "lower"),
    layer("node.CrossMatch.calls", "count", "lower"),
    layer("node.CrossMatch.self_ms", "ms", "lower"),
    layer("node.ScatterStep.calls", "count", "lower"),
    layer("node.ScatterStep.self_ms", "ms", "lower"),
    layer("node.ExecuteStep.calls", "count", "lower"),
    layer("node.ExecuteStep.self_ms", "ms", "lower"),
    layer("node.DeltaStep.calls", "count", "lower"),
    layer("node.DeltaStep.self_ms", "ms", "lower"),
    layer("node.FetchChunk.calls", "count", "lower"),
    layer("node.FetchChunk.self_ms", "ms", "lower"),
    layer("node.Metadata.calls", "count", "lower"),
    layer("net.msgs", "count", "lower"),
    layer("net.bytes", "B", "lower"),
    layer("net.sim_s", "s", "lower"),
    layer("net.retries", "count", "lower"),
    layer("net.fault_events", "count", "lower"),
    layer("net.chunk_bytes_share", "share", "lower"),
    layer("net.send_overhead_us", "us", "lower"),
    layer("xml.parse_ns_per_byte", "ns/B", "lower"),
    layer("xml.write_ns_per_byte", "ns/B", "lower"),
    layer("soap.decode_ns_per_byte", "ns/B", "lower"),
    layer("soap.encode_ns_per_byte", "ns/B", "lower"),
    layer("votable.encode_ns_per_row", "ns/row", "lower"),
    layer("votable.decode_ns_per_row", "ns/row", "lower"),
    layer("codec.share_of_node_self", "share", "lower"),
    layer("xmatch.tuples_in", "count", "lower"),
    layer("xmatch.tuples_out", "count", "lower"),
    layer("xmatch.candidates_probed", "count", "lower"),
    layer("xmatch.candidates_examined", "count", "lower"),
    layer("xmatch.accept_ratio", "share", "higher"),
    layer("xmatch.match_step_ms", "ms", "lower"),
    layer("xmatch.kernel_share", "share", "lower"),
    layer("storage.tile_builds", "count", "lower"),
    layer("storage.tile_decodes", "count", "lower"),
    layer("storage.tile_hits", "count", "higher"),
    layer("shard.fanout", "count", "lower"),
    layer("shard.pruned", "count", "higher"),
    layer("shard.failovers", "count", "lower"),
    layer("shard.hedges", "count", "lower"),
    layer("cache.hit_ratio", "share", "higher"),
    layer("cache.repairs", "count", "lower"),
    layer("cache.evictions", "count", "lower"),
    layer("jobs.SubmitQuery.self_us", "us", "lower"),
    layer("jobs.PollJob.self_us", "us", "lower"),
    layer("jobs.FetchResults.self_ms", "ms", "lower"),
    layer("jobs.pump_quantum_ms", "ms", "lower"),
    layer("jobs.quanta_per_job", "count", "lower"),
    layer("jobs.queue_wait_sim_s_p50", "s", "lower"),
    layer("jobs.rejected", "count", "lower"),
    layer("storage.insert_us_per_row", "us", "lower"),
    layer("meta.refresh_versions_ms", "ms", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("trace.coverage_share", "share", "higher"),
];

/// Why each workload is in the benchmark, one line each.
pub fn why(kind: workloads::Kind) -> &'static str {
    use workloads::Kind::*;
    match kind {
        TripleSmall => {
            "small answers over three archives: per-message SOAP/XML, planning and count-star \
             round trips dominate, the probe kernel does almost nothing"
        }
        DensePair => {
            "thousands of rows per answer from a dense field: kernel, tile decode, VOTable \
             codec and chunked transfer dominate, planning does little"
        }
        ScatterFlap => {
            "the triple's archives as 4 shards x 2 replicas with one extent's primaries \
             flapping: fan-out, gather, pruning and replica failover"
        }
        JobsZipfWrites => {
            "job service over a result cache under Zipf repeats with writes between: hits \
             beside repairs and misses on one cache and registry"
        }
    }
}

/// Seconds of measuring the driver asks of one run.
pub const RUN_SECONDS: u32 = 15;

const MANIFEST_DIR: &str = "crates/bench/e2e";

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"{MANIFEST_DIR}/Cargo.toml\", \"--\"],\n"
    ));
    out.push_str(&format!("  \"paths\": [\"{MANIFEST_DIR}\"],\n"));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = workloads::ALL
        .iter()
        .map(|k| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                k.spec().name,
                why(*k)
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(workloads::ALL.iter().map(|k| k.spec().name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
        for k in workloads::ALL {
            assert!(why(k).len() <= 200 && !why(k).contains('\n'));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../../../BENCHMARK.json"),
            manifest(),
            "regenerate with `e2e --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 10, 0, &[("op_p50_ms", 1.25), ("setup_s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
