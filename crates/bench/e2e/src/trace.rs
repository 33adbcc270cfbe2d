//! The layer trace, taken from outside the program.
//!
//! No program source carries a span. The traced run instead stands at the
//! boundaries the program already has:
//!
//! * every host on the `SimNetwork` is re-bound behind a [`Recording`]
//!   endpoint, which opens a span per request, named by its SOAPAction;
//! * the Portal's host is re-bound behind a [`StagedPortal`], which serves
//!   `SkyQuery` through the Portal's public staged API — `plan_query`,
//!   `execute_plan`, `project_result` — with a span around each stage;
//! * counters come from what the program exports (`StatsChain`,
//!   `NetworkMetrics`, `cache_report`, job status);
//! * codec and kernel costs come from replaying captured inputs through
//!   the `xml`, `soap` and `core::xmatch` public functions.
//!
//! A span's *self* time is its duration minus the part its child spans
//! cover. Children on the same thread are known from a thread-local stack;
//! children on threads the program spawns (scatter fan-out, parallel
//! performance queries) are assigned to the innermost driver-thread span
//! that was open when they started, and the union of their intervals is
//! what they cover.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use skyquery_core::trace::StatsChain;
use skyquery_core::{ExecutionTrace, Portal};
use skyquery_net::{Endpoint, HttpRequest, HttpResponse, SimNetwork};
use skyquery_soap::{RpcCall, RpcResponse, SoapFault, SoapValue};
use skyquery_xml::{Element, VoTable};

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// One slot per open span: nanoseconds covered by its finished child
    /// spans, and whether it is a node's boundary span.
    static OPEN: RefCell<Vec<(u64, bool)>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    thread: u32,
    /// Open spans beneath this one on its own thread.
    depth: u16,
    start_ns: u64,
    end_ns: u64,
    /// Covered by nested spans on the same thread.
    child_ns: u64,
    /// Opened while a node's span was open on the same thread: a call one
    /// node made to another (the daisy chain's onward hop).
    onward: bool,
    req_bytes: u64,
    resp_bytes: u64,
}

/// Totals of one span name over the traced ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Request and response bytes of the calls, and of the subset made by
    /// another node rather than the Portal (the daisy chain's onward hops).
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub onward_req_bytes: u64,
    pub onward_resp_bytes: u64,
}

/// A few request and response bodies of one SOAPAction, for codec replay.
#[derive(Default)]
struct Capture {
    reqs: Vec<Vec<u8>>,
    resps: Vec<Vec<u8>>,
}

const CAPTURE_PER_ACTION: usize = 24;

#[derive(Default)]
struct State {
    names: Vec<String>,
    ids: HashMap<String, u16>,
    spans: Vec<Span>,
    aggs: Vec<Agg>,
    captures: HashMap<u16, Capture>,
    /// Largest client-visible result table seen, for VOTable replay.
    largest_table: Option<VoTable>,
    stats: StatTotals,
    op_ns: u64,
    covered_ns: u64,
}

/// Sums of the `StepStats` counters the staged path saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatTotals {
    pub tuples_in: u64,
    pub tuples_out: u64,
    pub candidates_probed: u64,
    pub candidates_examined: u64,
    pub chi2_accepted: u64,
    pub tile_builds: u64,
    pub tile_decodes: u64,
    pub tile_hits: u64,
    pub shards_pruned: u64,
}

pub struct Recorder {
    epoch: Instant,
    driver_thread: u32,
    state: Mutex<State>,
}

/// An open span; closing it records it.
pub struct Open<'a> {
    rec: &'a Recorder,
    name: u16,
    start_ns: u64,
    depth: u16,
    onward: bool,
}

impl Recorder {
    /// A recorder whose driver thread is the calling thread.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            driver_thread: THREAD_ID.with(|id| *id),
            state: Mutex::new(State::default()),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no span is recorded while panicking")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&self, name: &str) -> u16 {
        let mut st = self.state();
        if let Some(id) = st.ids.get(name) {
            return *id;
        }
        let id = u16::try_from(st.names.len()).expect("a handful of span names");
        st.names.push(name.to_string());
        st.ids.insert(name.to_string(), id);
        st.aggs.push(Agg::default());
        id
    }

    pub fn open(&self, name: &str) -> Open<'_> {
        let is_node = name.starts_with("node.");
        let name = self.id(name);
        let (depth, onward) = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let onward = o.iter().any(|(_, node)| *node);
            o.push((0, is_node));
            (o.len() - 1, onward)
        });
        Open {
            rec: self,
            name,
            start_ns: self.now_ns(),
            depth: depth as u16,
            onward,
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        open.close(0, 0);
        out
    }

    pub fn add_stats(&self, chain: &StatsChain) {
        let mut st = self.state();
        for (_, s) in &chain.entries {
            let t = &mut st.stats;
            t.tuples_in += s.tuples_in as u64;
            t.tuples_out += s.tuples_out as u64;
            t.candidates_probed += s.candidates_probed as u64;
            t.candidates_examined += s.candidates_examined as u64;
            t.chi2_accepted += s.chi2_accepted as u64;
            t.tile_builds += s.tile_builds as u64;
            t.tile_decodes += s.tile_decodes as u64;
            t.tile_hits += s.tile_hits as u64;
            t.shards_pruned += s.shards_pruned as u64;
        }
    }

    fn capture(&self, name: u16, req: &[u8], resp: &[u8]) {
        let mut st = self.state();
        let c = st.captures.entry(name).or_default();
        if c.reqs.len() < CAPTURE_PER_ACTION {
            c.reqs.push(req.to_vec());
            c.resps.push(resp.to_vec());
        } else if resp.len() > c.resps.iter().map(Vec::len).max().unwrap_or(0) {
            // Always keep the largest reply: it is where a size-dependent
            // codec cost shows.
            c.reqs[0] = req.to_vec();
            c.resps[0] = resp.to_vec();
        }
    }

    fn note_table(&self, table: &VoTable) {
        let mut st = self.state();
        if st
            .largest_table
            .as_ref()
            .is_none_or(|t| t.row_count() < table.row_count())
        {
            st.largest_table = Some(table.clone());
        }
    }

    /// Folds the spans recorded since the last call into the totals, as
    /// the spans of one op that took `op_ns`.
    pub fn end_op(&self, op_ns: u64) {
        let mut st = self.state();
        let spans = std::mem::take(&mut st.spans);
        let driver: Vec<usize> = (0..spans.len())
            .filter(|i| spans[*i].thread == self.driver_thread)
            .collect();
        // Spans of spawned threads, by the driver span they ran under.
        let mut under: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if s.thread == self.driver_thread || s.depth != 0 {
                continue;
            }
            let parent = driver
                .iter()
                .copied()
                .filter(|i| spans[*i].start_ns <= s.start_ns && s.start_ns < spans[*i].end_ns)
                .max_by_key(|i| spans[*i].depth);
            if let Some(p) = parent {
                under[p].push((s.start_ns, s.end_ns.min(spans[p].end_ns)));
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let covered = s.child_ns + union_ns(&mut under[i]);
            let a = &mut st.aggs[s.name as usize];
            a.calls += 1;
            a.total_ns += total;
            a.self_ns += total.saturating_sub(covered);
            a.req_bytes += s.req_bytes;
            a.resp_bytes += s.resp_bytes;
            if s.onward {
                a.onward_req_bytes += s.req_bytes;
                a.onward_resp_bytes += s.resp_bytes;
            }
            if s.thread == self.driver_thread && s.depth == 0 {
                st.covered_ns += total;
            }
        }
        st.op_ns += op_ns;
    }

    /// Drops spans recorded outside any op (writes, health probes).
    pub fn discard(&self) {
        self.state().spans.clear();
    }

    pub fn snapshot(&self) -> Snapshot {
        let st = self.state();
        Snapshot {
            aggs: st
                .names
                .iter()
                .cloned()
                .zip(st.aggs.iter().copied())
                .collect(),
            stats: st.stats,
            op_ns: st.op_ns,
            covered_ns: st.covered_ns,
        }
    }
}

impl Open<'_> {
    pub fn close(self, req_bytes: usize, resp_bytes: usize) {
        let end_ns = self.rec.now_ns();
        let child_ns = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let (child_ns, _) = o.pop().expect("spans close in the order they opened");
            if let Some((covered, _)) = o.last_mut() {
                *covered += end_ns - self.start_ns;
            }
            child_ns
        });
        let span = Span {
            name: self.name,
            thread: THREAD_ID.with(|id| *id),
            depth: self.depth,
            start_ns: self.start_ns,
            end_ns,
            child_ns,
            onward: self.onward,
            req_bytes: req_bytes as u64,
            resp_bytes: resp_bytes as u64,
        };
        self.rec.state().spans.push(span);
    }
}

/// Length of the union of the intervals.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut end) = (0, 0);
    for &(a, b) in intervals.iter() {
        let a = a.max(end);
        if b > a {
            total += b - a;
            end = b;
        }
    }
    total
}

/// The totals of a traced run.
pub struct Snapshot {
    aggs: Vec<(String, Agg)>,
    pub stats: StatTotals,
    pub op_ns: u64,
    pub covered_ns: u64,
}

impl Snapshot {
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    /// The sum over every span name with this prefix.
    pub fn sum(&self, prefix: &str) -> Agg {
        let mut out = Agg::default();
        for (_, a) in self.aggs.iter().filter(|(n, _)| n.starts_with(prefix)) {
            out.calls += a.calls;
            out.total_ns += a.total_ns;
            out.self_ns += a.self_ns;
            out.req_bytes += a.req_bytes;
            out.resp_bytes += a.resp_bytes;
            out.onward_req_bytes += a.onward_req_bytes;
            out.onward_resp_bytes += a.onward_resp_bytes;
        }
        out
    }
}

/// The part of a SOAPAction after `#`.
fn action_of(req: &HttpRequest) -> &str {
    let action = req.soap_action().unwrap_or("unknown");
    action.rsplit_once('#').map_or(action, |(_, f)| f)
}

/// An endpoint that records a boundary span around another.
pub struct Recording {
    inner: Arc<dyn Endpoint>,
    rec: Arc<Recorder>,
    /// `node` or `jobs`: the layer the host belongs to.
    layer: &'static str,
}

impl Recording {
    pub fn bind(
        net: &SimNetwork,
        host: &str,
        inner: Arc<dyn Endpoint>,
        rec: &Arc<Recorder>,
        layer: &'static str,
    ) {
        net.bind(
            host,
            Arc::new(Recording {
                inner,
                rec: rec.clone(),
                layer,
            }),
        );
    }
}

impl Endpoint for Recording {
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        let name = format!("{}.{}", self.layer, action_of(&req));
        let req_body = req.body.clone();
        let open = self.rec.open(&name);
        let resp = self.inner.handle(net, req);
        let id = open.name;
        open.close(req_body.len(), resp.body.len());
        self.rec.capture(id, &req_body[..], &resp.body[..]);
        resp
    }
}

/// The Portal's `SkyQuery` service re-served through the Portal's public
/// staged API, one span per stage. Anything else the Portal's host is
/// asked goes to the Portal itself.
pub struct StagedPortal {
    portal: Arc<Portal>,
    rec: Arc<Recorder>,
}

impl StagedPortal {
    pub fn bind(net: &SimNetwork, portal: &Arc<Portal>, rec: &Arc<Recorder>) {
        net.bind(
            portal.host().to_string(),
            Arc::new(StagedPortal {
                portal: portal.clone(),
                rec: rec.clone(),
            }),
        );
    }

    /// `Portal::submit` and the Portal's `SkyQuery` handler, stage by stage,
    /// with the same trace events, so that a traced reply has the bytes of
    /// an untraced one (the run asserts it: a drift from the program's own
    /// handler fails the traced run).
    fn sky_query(&self, net: &SimNetwork, sql: &str) -> skyquery_core::Result<RpcResponse> {
        let rec = &self.rec;
        let mut trace = ExecutionTrace::new();
        trace.push("Client", "submit", format!("query: {sql}"));
        let before = net.metrics();
        let plan = rec.span("stage.plan", || self.portal.plan_query(sql, &mut trace))?;
        let chain = rec.span("stage.exec", || self.portal.execute_plan(&plan, &mut trace));
        let after = net.metrics();
        let (retries, backoff, faults) = (
            after.retry_total().retries - before.retry_total().retries,
            after.retry_total().backoff_seconds - before.retry_total().backoff_seconds,
            after.fault_total() - before.fault_total(),
        );
        if retries > 0 || faults > 0 {
            trace.push(
                "Portal",
                "recovery",
                format!(
                    "{retries} retries ({backoff:.3}s backoff), {faults} fault events \
                     during submission"
                ),
            );
        }
        let (set, stats, degradation) = chain?;
        rec.add_stats(&stats);
        for (alias, s) in &stats.entries {
            trace.push(
                alias.clone(),
                "cross match step",
                format!(
                    "tuples in {}, candidates probed {}, examined {}, chi2 accepted {}, scratch reuse {}, tuples out {}, tile builds {}, tile decodes {}, tile hits {}, cache hits {}, cache misses {}, cache repairs {}, cache evictions {}, failovers {}, hedges {}, hedge wins {}, shards pruned {}",
                    s.tuples_in,
                    s.candidates_probed,
                    s.candidates_examined,
                    s.chi2_accepted,
                    s.scratch_reuse,
                    s.tuples_out,
                    s.tile_builds,
                    s.tile_decodes,
                    s.tile_hits,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_repairs,
                    s.cache_evictions,
                    s.failovers,
                    s.hedges,
                    s.hedge_wins,
                    s.shards_pruned
                ),
            );
        }
        let mut result = rec.span("stage.project", || Portal::project_result(&plan, set))?;
        result.degraded = degradation.degraded;
        result.dropped_archives = degradation.dropped;
        if result.degraded {
            trace.push(
                "Portal",
                "partial result",
                format!(
                    "answer degraded; dropped: {}",
                    result.dropped_archives.join(", ")
                ),
            );
        }
        trace.push(
            "Portal",
            "relay",
            format!("{} matched tuples to client", result.row_count()),
        );
        let table = rec.span("stage.render", || result.to_votable("result"));
        rec.note_table(&table);
        let mut events = Element::new("Trace");
        for e in trace.events() {
            events = events.with_child(
                Element::new("Event")
                    .with_attr("seq", e.seq.to_string())
                    .with_attr("actor", e.actor.clone())
                    .with_attr("action", e.action.clone())
                    .with_attr("elapsed_us", e.elapsed.as_micros().to_string())
                    .with_text(e.detail.clone()),
            );
        }
        Ok(RpcResponse::new("SkyQuery")
            .result("result", SoapValue::Table(table))
            .result("degraded", SoapValue::Bool(result.degraded))
            .result("dropped", SoapValue::Str(result.dropped_archives.join(",")))
            .result("trace", SoapValue::Xml(events)))
    }
}

impl Endpoint for StagedPortal {
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        if action_of(&req) != "SkyQuery" {
            return self.portal.handle(net, req);
        }
        let open = self.rec.open("portal.SkyQuery");
        let req_len = req.body.len();
        let answer = std::str::from_utf8(&req.body)
            .map_err(|_| SoapFault::client("request body is not UTF-8"))
            .and_then(|body| RpcCall::parse(body).map_err(|e| SoapFault::client(e.to_string())))
            .and_then(|call| {
                let sql = call
                    .get("sql")
                    .and_then(SoapValue::as_str)
                    .ok_or_else(|| SoapFault::client("sql must be a string"))?;
                self.sky_query(net, sql).map_err(|e| e.to_fault())
            });
        let resp = match answer {
            // Encoding the envelope is the second half of the render stage.
            Ok(r) => HttpResponse::ok(self.rec.span("stage.render", || r.to_xml())),
            Err(fault) => HttpResponse::soap_fault(fault.to_xml()),
        };
        open.close(req_len, resp.body.len());
        resp
    }
}

// ---------------------------------------------------------------------
// Replays.

/// Median wall nanoseconds of `f` over a few repetitions.
fn time_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&runs)
}

/// Codec costs from the captured wire bodies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Codec {
    pub xml_parse_ns_per_byte: f64,
    pub xml_write_ns_per_byte: f64,
    pub soap_decode_ns_per_byte: f64,
    pub soap_encode_ns_per_byte: f64,
    pub votable_encode_ns_per_row: f64,
    pub votable_decode_ns_per_row: f64,
}

/// The median-sized and the largest of a set of bodies.
fn pick(bodies: &[Vec<u8>]) -> Vec<&Vec<u8>> {
    let mut by_len: Vec<&Vec<u8>> = bodies.iter().collect();
    by_len.sort_by_key(|b| b.len());
    match by_len.len() {
        0 => vec![],
        1 => vec![by_len[0]],
        n => vec![by_len[n / 2], by_len[n - 1]],
    }
}

impl Recorder {
    /// Replays the captured median and largest bodies of every action
    /// through the `xml` and `soap` public functions.
    pub fn replay_codec(&self) -> Codec {
        let (bodies, table) = {
            let st = self.state();
            let mut bodies: Vec<(bool, Vec<u8>)> = Vec::new();
            for c in st.captures.values() {
                bodies.extend(pick(&c.reqs).into_iter().map(|b| (true, b.clone())));
                bodies.extend(pick(&c.resps).into_iter().map(|b| (false, b.clone())));
            }
            // A fixed order, so that the numbers do not depend on the
            // hasher's seed.
            bodies.sort_by(|a, b| (a.1.len(), &a.1).cmp(&(b.1.len(), &b.1)));
            bodies.dedup();
            (bodies, st.largest_table.clone())
        };
        let (mut bytes, mut parse, mut write, mut decode, mut encode) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (is_request, body) in &bodies {
            let Ok(text) = std::str::from_utf8(body) else {
                continue;
            };
            let Ok(element) = Element::parse(text) else {
                continue;
            };
            bytes += text.len() as f64;
            parse += time_ns(|| Element::parse(text));
            write += time_ns(|| element.to_xml());
            if *is_request {
                if let Ok(call) = RpcCall::parse(text) {
                    decode += time_ns(|| RpcCall::parse(text));
                    encode += time_ns(|| call.to_xml());
                }
            } else if let Ok(Ok(resp)) = RpcResponse::parse(text) {
                decode += time_ns(|| RpcResponse::parse(text));
                encode += time_ns(|| resp.to_xml());
            }
        }
        let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
        let mut codec = Codec {
            xml_parse_ns_per_byte: per(parse, bytes),
            xml_write_ns_per_byte: per(write, bytes),
            soap_decode_ns_per_byte: per(decode, bytes),
            soap_encode_ns_per_byte: per(encode, bytes),
            ..Codec::default()
        };
        // Where no staged reply was seen (the job service renders its own),
        // the largest table in a captured reply stands in.
        let table = table.or_else(|| {
            bodies
                .iter()
                .filter(|(is_request, _)| !is_request)
                .filter_map(|(_, body)| {
                    RpcResponse::parse(std::str::from_utf8(body).ok()?)
                        .ok()?
                        .ok()
                })
                .flat_map(|resp| resp.results)
                .filter_map(|(_, v)| match v {
                    SoapValue::Table(t) => Some(t),
                    _ => None,
                })
                .max_by_key(VoTable::row_count)
        });
        if let Some(table) = table.filter(|t| t.row_count() > 0) {
            let rows = table.row_count() as f64;
            let xml = table.to_xml();
            codec.votable_encode_ns_per_row = time_ns(|| table.to_xml()) / rows;
            codec.votable_decode_ns_per_row = time_ns(|| VoTable::parse(&xml)) / rows;
        }
        codec
    }
}

/// Microseconds one `SimNetwork::send` costs beyond its endpoint, measured
/// against an endpoint that echoes a small body.
pub fn send_overhead_us(net: &SimNetwork) -> f64 {
    const HOST: &str = "echo.bench.invalid";
    net.bind(
        HOST,
        Arc::new(|_: &SimNetwork, req: HttpRequest| HttpResponse::ok(req.body)),
    );
    let url = skyquery_net::Url::new(HOST, "/soap");
    let body = "x".repeat(256);
    let n = 2000;
    let ns = time_ns(|| {
        for _ in 0..n {
            let req = HttpRequest::soap_post("/soap", "urn:skyquery#Echo", body.clone());
            std::hint::black_box(net.send("bench", &url, req).expect("echo host is bound"));
        }
    });
    net.unbind(HOST);
    ns / n as f64 / 1e3
}

/// Median microseconds to parse and decompose one of the queries.
pub fn sql_parse_decompose_us(queries: &[String]) -> f64 {
    let each: Vec<f64> = queries
        .iter()
        .map(|sql| {
            time_ns(|| {
                skyquery_sql::parse_query(sql)
                    .and_then(skyquery_sql::decompose)
                    .expect("every query of the list parses")
            }) / 1e3
        })
        .collect();
    crate::stats::median(&each)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(10, 20), (15, 30), (40, 50)]), 30);
        assert_eq!(union_ns(&mut [(40, 50), (10, 20), (12, 18)]), 20);
    }

    #[test]
    fn self_time_excludes_nested_and_spawned_children() {
        let rec = Recorder::new();
        let outer = rec.open("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    rec.span("worker", || {
                        std::thread::sleep(std::time::Duration::from_millis(6))
                    })
                });
            }
        });
        outer.close(7, 9);
        rec.end_op(20_000_000);
        let snap = rec.snapshot();
        let (outer, inner, worker) = (snap.agg("outer"), snap.agg("inner"), snap.agg("worker"));
        assert_eq!((outer.calls, inner.calls, worker.calls), (1, 1, 2));
        assert_eq!((outer.req_bytes, outer.resp_bytes), (7, 9));
        // The two workers overlap, so they cover about 6 ms, not 12.
        let ms = |ns: u64| ns as f64 / 1e6;
        assert!(ms(outer.total_ns) >= 12.0);
        assert!(ms(inner.self_ns) >= 4.0 && ms(worker.self_ns) >= 12.0);
        let covered = ms(outer.total_ns) - ms(outer.self_ns);
        assert!(
            (9.5..14.0).contains(&covered),
            "inner 4 ms + workers' union 6 ms, got {covered}"
        );
        assert_eq!(snap.op_ns, 20_000_000);
        assert_eq!(snap.covered_ns, outer.total_ns);
        assert_eq!(snap.sum("").calls, 4);
    }

    #[test]
    fn action_is_the_fragment() {
        let req = HttpRequest::soap_post("/soap", "urn:skyquery#CrossMatch", "");
        assert_eq!(action_of(&req), "CrossMatch");
        let req = HttpRequest::soap_post("/soap", "Plain", "");
        assert_eq!(action_of(&req), "Plain");
    }
}
