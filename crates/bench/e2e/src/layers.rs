//! The per-layer metrics of a traced run, assembled in table order.

use std::time::Instant;

use skyquery_core::result_cache::CacheCounters;
use skyquery_core::xmatch::{apply_residuals, dropout_step, match_step, seed_step, PartialSet};
use skyquery_core::ExecutionTrace;

use crate::metrics::PER_LAYER;
use crate::run::WireDelta;
use crate::stats;
use crate::trace::{Codec, Snapshot};
use crate::workloads::{Kind, Plan, System};

pub struct Inputs {
    pub snapshot: Snapshot,
    pub codec: Codec,
    pub wire: WireDelta,
    /// Traced ops: what every per-op figure is divided by.
    pub ops: f64,
    pub cache_before: CacheCounters,
    pub cache_after: CacheCounters,
    pub quanta: f64,
    pub queue_waits: Vec<f64>,
    pub insert_s: f64,
    pub refresh_s: f64,
    pub writes: f64,
    pub overhead_share: f64,
    pub sql_us: f64,
    pub send_overhead_us: f64,
    pub kernel: Kernel,
    pub kind: Kind,
}

/// The cross-match steps of the heaviest query, run where the harness can
/// time them alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernel {
    /// The dearest match or drop-out step.
    pub match_step_ms: f64,
    /// All the query's steps, seed included.
    pub all_steps_ms: f64,
    /// The same query as one op on the measured system.
    pub op_ms: f64,
}

/// Runs the plan of `query` step by step on the oracle twin's databases
/// (same rows, one node per archive) through the `core::xmatch` public
/// functions, under the kernel the measured Portal plans with.
pub fn kernel_replay(sys: &System, twin: &System, plan: &Plan, query: usize) -> Kernel {
    let mut trace = ExecutionTrace::new();
    let Ok(exec) = sys.fed.portal.plan_query(&plan.queries[query], &mut trace) else {
        return Kernel::default();
    };
    let once = || -> Option<Kernel> {
        let mut kernel = Kernel::default();
        let mut current: Option<PartialSet> = None;
        for idx in (0..exec.steps.len()).rev() {
            let step = &exec.steps[idx];
            let cfg = exec.step_config(idx).ok()?;
            let node = twin.fed.node(&step.archive)?;
            let t = Instant::now();
            let (set, _) = node
                .with_db(|db| match (&current, step.dropout) {
                    (None, _) => seed_step(db, &cfg),
                    (Some(inc), false) => match_step(db, &cfg, inc),
                    (Some(inc), true) => dropout_step(db, &cfg, inc),
                })
                .ok()?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            kernel.all_steps_ms += ms;
            if current.is_some() {
                kernel.match_step_ms = kernel.match_step_ms.max(ms);
            }
            current = Some(apply_residuals(set, &exec.residuals(idx).ok()?).ok()?);
        }
        Some(kernel)
    };
    // The first pass builds the twin's lazy snapshots; the median of the
    // next three is reported.
    once();
    let mut runs: Vec<Kernel> = (0..3).filter_map(|_| once()).collect();
    runs.sort_by(|a, b| a.all_steps_ms.total_cmp(&b.all_steps_ms));
    let mut kernel = runs.get(runs.len() / 2).copied().unwrap_or_default();
    let op_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(sys.query(&plan.queries[query], 0).is_ok());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    kernel.op_ms = stats::median(&op_ms);
    kernel
}

pub fn assemble(i: Inputs) -> Vec<(&'static str, f64)> {
    let s = &i.snapshot;
    let ops = i.ops;
    let ms = |ns: u64| ns as f64 / 1e6 / ops;
    let per_op = |n: u64| n as f64 / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let node = |action: &str| s.agg(&format!("node.{action}"));
    let nodes = s.sum("node.");
    let render = s.agg("stage.render");
    let portal = s.agg("portal.SkyQuery");
    let op_ms = s.op_ns as f64 / 1e6 / ops;

    // Codec work at the nodes: every request decoded and reply encoded,
    // and for the onward hops of the daisy chain the request encoded and
    // the reply decoded as well.
    let c = &i.codec;
    let codec_ns = (nodes.req_bytes + nodes.onward_resp_bytes) as f64 * c.soap_decode_ns_per_byte
        + (nodes.resp_bytes + nodes.onward_req_bytes) as f64 * c.soap_encode_ns_per_byte;

    let cache = |f: fn(&CacheCounters) -> u64| (f(&i.cache_after) - f(&i.cache_before)) as f64;
    let (hits, repairs) = (cache(|c| c.hits), cache(|c| c.repairs));

    let value = |name: &str| -> f64 {
        match name {
            "sql.parse_decompose_us" => i.sql_us,
            "plan.plan_query_ms" => ms(s.agg("stage.plan").total_ns),
            "plan.perf_query_msgs" => 2.0 * per_op(node("Query").calls),
            "exec.execute_plan_ms" => ms(s.agg("stage.exec").total_ns),
            "exec.portal_self_ms" => ms(s.agg("stage.exec").self_ns),
            "project.project_ms" => ms(s.agg("stage.project").total_ns),
            "render.votable_roundtrip_ms" => ms(render.self_ns),
            // What the op cost beyond the Portal's handler: the client's
            // request encoding, HTTP framing and reply decoding.
            "client.soap_hop_ms" if portal.calls > 0 => op_ms - ms(portal.total_ns),
            "client.soap_hop_ms" => 0.0,
            "node.Metadata.calls" => per_op(node("Metadata").calls),
            "net.msgs" => i.wire.messages / ops,
            "net.bytes" => i.wire.bytes / ops,
            "net.sim_s" => i.wire.sim_s / ops,
            "net.retries" => i.wire.retries / ops,
            "net.fault_events" => i.wire.fault_events / ops,
            "net.chunk_bytes_share" => ratio(i.wire.chunk_bytes, i.wire.bytes),
            "net.send_overhead_us" => i.send_overhead_us,
            "xml.parse_ns_per_byte" => c.xml_parse_ns_per_byte,
            "xml.write_ns_per_byte" => c.xml_write_ns_per_byte,
            "soap.decode_ns_per_byte" => c.soap_decode_ns_per_byte,
            "soap.encode_ns_per_byte" => c.soap_encode_ns_per_byte,
            "votable.encode_ns_per_row" => c.votable_encode_ns_per_row,
            "votable.decode_ns_per_row" => c.votable_decode_ns_per_row,
            "codec.share_of_node_self" => ratio(codec_ns, nodes.self_ns as f64),
            "xmatch.tuples_in" => per_op(s.stats.tuples_in),
            "xmatch.tuples_out" => per_op(s.stats.tuples_out),
            "xmatch.candidates_probed" => per_op(s.stats.candidates_probed),
            "xmatch.candidates_examined" => per_op(s.stats.candidates_examined),
            "xmatch.accept_ratio" => ratio(
                s.stats.chi2_accepted as f64,
                s.stats.candidates_examined as f64,
            ),
            "xmatch.match_step_ms" => i.kernel.match_step_ms,
            // Of the heaviest query's op time, the part its cross-match
            // steps account for when run alone.
            "xmatch.kernel_share" => ratio(i.kernel.all_steps_ms, i.kernel.op_ms),
            "storage.tile_builds" => per_op(s.stats.tile_builds),
            "storage.tile_decodes" => per_op(s.stats.tile_decodes),
            "storage.tile_hits" => per_op(s.stats.tile_hits),
            // The result cache's walk also speaks `ScatterStep`, one call a
            // step; it is a fan-out only where there are shards to fan to.
            "shard.fanout" if i.kind == Kind::ScatterFlap => per_op(node("ScatterStep").calls),
            "shard.fanout" => 0.0,
            "shard.pruned" => per_op(s.stats.shards_pruned),
            "shard.failovers" => i.wire.failovers / ops,
            "shard.hedges" => i.wire.hedges / ops,
            // Per op, not per lookup: a miss is looked up twice on its way
            // through the job service.
            "cache.hit_ratio" => hits / ops,
            "cache.repairs" => repairs / ops,
            "cache.evictions" => cache(|c| c.evictions) / ops,
            "jobs.SubmitQuery.self_us" => 1e3 * ms(s.agg("jobs.SubmitQuery").self_ns),
            "jobs.PollJob.self_us" => 1e3 * ms(s.agg("jobs.PollJob").self_ns),
            "jobs.FetchResults.self_ms" => ms(s.agg("jobs.FetchResults").self_ns),
            "jobs.pump_quantum_ms" => ratio(
                s.agg("jobs.pump").total_ns as f64 / 1e6,
                s.agg("jobs.pump").calls as f64,
            ),
            "jobs.quanta_per_job" if i.kind == Kind::JobsZipfWrites => i.quanta / ops,
            "jobs.queue_wait_sim_s_p50" if i.kind == Kind::JobsZipfWrites => {
                stats::median(&i.queue_waits)
            }
            "jobs.quanta_per_job" | "jobs.queue_wait_sim_s_p50" => 0.0,
            "jobs.rejected" => i.wire.rejected,
            "storage.insert_us_per_row" => ratio(i.insert_s * 1e6, i.writes),
            "meta.refresh_versions_ms" => ratio(i.refresh_s * 1e3, i.writes),
            "trace.overhead_share" => i.overhead_share,
            "trace.coverage_share" => ratio(s.covered_ns as f64, s.op_ns as f64),
            _ => match name.rsplit_once('.') {
                Some((span, "calls")) if span.starts_with("node.") => per_op(s.agg(span).calls),
                Some((span, "self_ms")) if span.starts_with("node.") => ms(s.agg(span).self_ns),
                _ => panic!("per-layer metric {name} is in the table but has no value here"),
            },
        }
    };
    PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect()
}
