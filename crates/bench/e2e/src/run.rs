//! One run of one workload: cold starts, warm pass, timed rounds, and the
//! verification against the oracle twin (rules R1–R5).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use skyquery_net::NetworkMetrics;

use crate::procfs;
use crate::stats::{self, Class, ClassShares, RoundStats, Sample};
use crate::trace::Recorder;
use crate::workloads::{Kind, Plan, Role, Step, System};

pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    /// One round of a tenth-size list, one cold start, every assertion on.
    pub smoke: bool,
    pub traced: bool,
}

/// One finished op.
struct OpRecord {
    sample: Sample,
    /// `None` when the op failed.
    digest: Option<u64>,
    quanta: u64,
    queue_wait_sim_s: f64,
}

/// What the network counted over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireDelta {
    pub messages: f64,
    pub bytes: f64,
    /// Simulated seconds on the links, the job scheduler's clock ticks
    /// taken out.
    pub sim_s: f64,
    pub retries: f64,
    pub fault_events: f64,
    pub chunk_bytes: f64,
    pub failovers: f64,
    pub hedges: f64,
    pub rejected: f64,
}

impl WireDelta {
    fn between(before: &NetworkMetrics, after: &NetworkMetrics) -> WireDelta {
        let link = |m: &NetworkMetrics| {
            let (t, clock) = (m.total(), m.link("clock", "clock"));
            (
                t.messages as f64,
                t.bytes as f64,
                t.sim_seconds - clock.sim_seconds,
            )
        };
        let (a, b) = (link(before), link(after));
        let d = |f: fn(&NetworkMetrics) -> f64| f(after) - f(before);
        WireDelta {
            messages: b.0 - a.0,
            bytes: b.1 - a.1,
            sim_s: b.2 - a.2,
            retries: d(|m| m.retry_total().retries as f64),
            fault_events: d(|m| m.fault_total() as f64),
            chunk_bytes: d(|m| m.chunk_total().bytes as f64),
            failovers: d(|m| m.node_event_total("failover") as f64),
            hedges: d(|m| m.node_event_total("hedge") as f64),
            rejected: d(|m| m.job_total().rejected as f64),
        }
    }
}

/// Everything a run found out.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops and broken self-checks, first few of each kind.
    pub problems: Vec<String>,
    pub rounds: Vec<RoundStats>,
    pub samples_per_round: usize,
    pub shares: ClassShares,
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    pub throughput_ops_s: f64,
    pub cpu_s_per_op: f64,
    pub wire: WireDelta,
    /// Ops the wire and CPU totals are divided by.
    pub timed_ops: u64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub setup_reps: usize,
    /// Per-layer metrics, in table order (`--trace 1` only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Drives a system through a plan, op by op.
struct Driver<'a> {
    sys: System,
    plan: &'a Plan,
    flapping: bool,
    problems: Vec<String>,
    failed: u64,
    attempted: u64,
    rec: Option<Arc<Recorder>>,
    insert_s: f64,
    refresh_s: f64,
    writes: u64,
}

impl Driver<'_> {
    fn problem(&mut self, text: String) {
        if self.problems.len() < 12 {
            self.problems.push(text);
        }
    }

    fn step(&mut self, step: &Step) -> Option<OpRecord> {
        match step {
            Step::Write => {
                let (insert_s, refresh_s) = self.sys.write();
                self.insert_s += insert_s;
                self.refresh_s += refresh_s;
                self.writes += 1;
                None
            }
            Step::Query {
                query,
                class,
                flap,
                tenant,
            } => Some(self.op(*query, *class, *flap, *tenant)),
        }
    }

    /// One op: hooks before, the timed request, the self-checks after.
    fn op(&mut self, query: usize, class: Option<Class>, flap: bool, tenant: usize) -> OpRecord {
        if flap || self.flapping {
            self.sys.set_flap(flap);
            self.flapping = flap;
        }
        // Snapshots only where a self-check reads them: copying the
        // metrics costs microseconds, which a sub-millisecond op would feel
        // in its round's throughput.
        let checked = matches!(self.sys.kind, Kind::DensePair | Kind::ScatterFlap);
        let before = checked.then(|| self.sys.fed.net.metrics());
        let hits_before = class
            .is_none()
            .then(|| self.sys.fed.portal.cache_report().0.hits);
        if let Some(rec) = &self.rec {
            rec.discard();
        }
        let sql = &self.plan.queries[query];
        let t = Instant::now();
        let answer = self.sys.query(sql, tenant);
        let elapsed = t.elapsed();
        if let Some(rec) = &self.rec {
            rec.end_op(elapsed.as_nanos() as u64);
        }
        let wire = before
            .map(|b| WireDelta::between(&b, &self.sys.fed.net.metrics()))
            .unwrap_or_default();
        let class = class.unwrap_or_else(|| {
            if Some(self.sys.fed.portal.cache_report().0.hits) > hits_before {
                Class::Body
            } else {
                Class::Tail
            }
        });
        self.attempted += 1;

        // Self-checks: the schedule and the limits do what the workload
        // says they do, on every op.
        let name = self.sys.kind.spec().name;
        match self.sys.kind {
            Kind::DensePair if (wire.chunk_bytes > 0.0) != (class == Class::Tail) => {
                self.problem(format!(
                    "{name}: a {class:?} cone moved {} chunked bytes; the message limit no \
                     longer separates the classes",
                    wire.chunk_bytes
                ));
            }
            Kind::ScatterFlap if (wire.failovers > 0.0) != flap => {
                self.problem(format!(
                    "{name}: {} failovers on an op {} a flap block",
                    wire.failovers,
                    if flap { "inside" } else { "outside" }
                ));
            }
            _ => {}
        }
        if let Err(e) = &answer {
            self.failed += 1;
            self.problem(format!("{name}: op failed: {e}"));
        }
        let answer = answer.ok();
        OpRecord {
            sample: Sample {
                ms: elapsed.as_secs_f64() * 1e3,
                class,
            },
            digest: answer.as_ref().map(|a| a.digest),
            quanta: answer.as_ref().map_or(0, |a| a.quanta),
            queue_wait_sim_s: answer.as_ref().map_or(0.0, |a| a.queue_wait_sim_s),
        }
    }

    /// Runs the list `rounds` times; statistics are taken per round (R3).
    fn rounds(&mut self, rounds: usize) -> (Vec<RoundStats>, Vec<OpRecord>) {
        let mut stats = Vec::new();
        let mut records = Vec::new();
        for _ in 0..rounds {
            let first = records.len();
            let t = Instant::now();
            for step in &self.plan.steps {
                records.extend(self.step(step));
            }
            let wall_s = t.elapsed().as_secs_f64();
            let samples: Vec<Sample> = records[first..].iter().map(|r| r.sample).collect();
            stats.push(stats::round_stats(&samples, wall_s));
        }
        (stats, records)
    }
}

/// The first op of each class in the list, as `setup_s` runs them: the
/// lazily built snapshots and tiles are then inside the cold start, so
/// that work moved into set-up shows. Where the class is the cache's to
/// decide, the first query twice: a miss, then its hit.
fn first_of_each_class(plan: &Plan) -> Vec<Step> {
    let queries: Vec<&Step> = plan
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Query { .. }))
        .collect();
    let of = |c: Class| {
        queries
            .iter()
            .find(|s| matches!(s, Step::Query { class, .. } if *class == Some(c)))
            .copied()
            .cloned()
    };
    match (of(Class::Body), of(Class::Tail)) {
        (Some(b), Some(t)) => vec![b, t],
        _ => vec![queries[0].clone(), queries[0].clone()],
    }
}

/// Each distinct query once, with and without the flap where the list has
/// both, so that no lazy build is left for round 1 (R5).
fn warm_list(plan: &Plan) -> Vec<Step> {
    let mut seen = BTreeMap::new();
    for step in &plan.steps {
        if let Step::Query { query, flap, .. } = step {
            seen.entry((*query, *flap)).or_insert_with(|| step.clone());
        }
    }
    seen.into_values().collect()
}

fn rounds_for(opts: &Options) -> usize {
    if opts.smoke {
        1
    } else {
        ((opts.seconds / opts.kind.spec().round_s).round() as usize).max(5)
    }
}

pub fn run(opts: &Options) -> Outcome {
    let kind = opts.kind;
    let spec = kind.spec();
    let plan = Plan::generate(kind, opts.seed, opts.smoke);
    let setup_reps = if opts.smoke || opts.traced {
        1
    } else {
        spec.setup_reps
    };

    // R4: repeated cold starts. The last one is the system measured.
    let first_ops = first_of_each_class(&plan);
    let mut setups = Vec::new();
    let mut driver = None;
    for _ in 0..setup_reps {
        drop(driver.take());
        let t = Instant::now();
        let mut d = Driver {
            sys: System::start(kind, Role::Measured, opts.seed),
            plan: &plan,
            flapping: false,
            problems: Vec::new(),
            failed: 0,
            attempted: 0,
            rec: None,
            insert_s: 0.0,
            refresh_s: 0.0,
            writes: 0,
        };
        for step in &first_ops {
            d.step(step);
        }
        setups.push(t.elapsed().as_secs_f64());
        driver = Some(d);
    }
    let mut driver = driver.expect("at least one cold start");
    let setup_s = stats::median(&setups);

    // R5: warm first.
    for step in warm_list(&plan) {
        driver.step(&step);
    }

    let rounds = rounds_for(opts);
    let (untraced_rounds, traced_rounds) = if opts.traced {
        let untraced = rounds.div_ceil(3);
        (untraced, (rounds - untraced).max(1))
    } else {
        (rounds, 0)
    };

    // The timed phase.
    let wire_before = driver.sys.fed.net.metrics();
    let cpu_before = procfs::cpu_seconds();
    let reply_before = driver.sys.reply_bytes();
    let (mut round_stats, mut records) = driver.rounds(untraced_rounds);
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let wire_after = driver.sys.fed.net.metrics();
    let peak_rss_mb = procfs::peak_rss_mb();
    let timed_ops = records.len() as u64;
    let untraced_reply = (driver.sys.reply_bytes() - reply_before) / timed_ops as f64;

    // R5: the oracle twin is built only now, so it costs the measured
    // phase no time, CPU or memory.
    let twin = System::start(kind, Role::Oracle, opts.seed);

    // The traced rounds, on the same system and the same list.
    let mut layers = Vec::new();
    if opts.traced {
        let rec = Recorder::new();
        driver.sys.attach_trace(&rec);
        driver.rec = Some(rec.clone());
        (driver.insert_s, driver.refresh_s, driver.writes) = (0.0, 0.0, 0);
        let cache_before = driver.sys.fed.portal.cache_report().0;
        let before = driver.sys.fed.net.metrics();
        let reply_before = driver.sys.reply_bytes();
        let (traced_stats, traced_records) = driver.rounds(traced_rounds);
        let wire = WireDelta::between(&before, &driver.sys.fed.net.metrics());
        let cache_after = driver.sys.fed.portal.cache_report().0;
        // `StagedPortal` is a copy of the Portal's own handler: its replies
        // must have the bytes of the real ones, or the traced numbers
        // describe another program. (A reply carries elapsed microseconds,
        // whose digit count moves.)
        let traced_reply = (driver.sys.reply_bytes() - reply_before) / traced_records.len() as f64;
        if untraced_reply > 0.0 && (traced_reply / untraced_reply - 1.0).abs() > 1e-3 {
            driver.problem(format!(
                "{}: a traced reply has {traced_reply:.1} bytes and an untraced one \
                 {untraced_reply:.1}: the staged Portal has drifted from Portal::submit",
                spec.name
            ));
        }
        // Neighbouring rounds on either side of the switch, so that a
        // workload whose rounds get dearer as it runs does not count its
        // ramp as tracing overhead.
        let last = &round_stats[round_stats.len().saturating_sub(3)..];
        let first = &traced_stats[..traced_stats.len().min(3)];
        let (untraced_p50, traced_p50) = (stats::median(&p50s(last)), stats::median(&p50s(first)));
        layers = crate::layers::assemble(crate::layers::Inputs {
            snapshot: rec.snapshot(),
            codec: rec.replay_codec(),
            wire,
            ops: traced_records.len() as f64,
            cache_before,
            cache_after,
            quanta: traced_records.iter().map(|r| r.quanta as f64).sum(),
            queue_waits: traced_records.iter().map(|r| r.queue_wait_sim_s).collect(),
            insert_s: driver.insert_s,
            refresh_s: driver.refresh_s,
            writes: driver.writes as f64,
            overhead_share: traced_p50 / untraced_p50 - 1.0,
            sql_us: crate::trace::sql_parse_decompose_us(&plan.queries),
            send_overhead_us: crate::trace::send_overhead_us(&driver.sys.fed.net),
            kernel: crate::layers::kernel_replay(&driver.sys, &twin, &plan, heaviest_query(&plan)),
            kind,
        });
        round_stats.extend(traced_stats);
        records.extend(traced_records);
    }

    // R5: verify after.
    verify(
        &mut driver,
        twin,
        &plan,
        &records,
        untraced_rounds + traced_rounds,
    );

    let samples: Vec<Sample> = records.iter().map(|r| r.sample).collect();
    let shares = stats::class_shares(&samples);
    // Hits against misses is the cache's call: three points of slack.
    let slack = if kind == Kind::JobsZipfWrites {
        0.03
    } else {
        0.0
    };
    if let Err(e) = stats::class_check(&round_stats, &shares, slack) {
        // A smoke list is too short for the percentiles to mean anything.
        if !opts.smoke {
            driver.problem(format!("{}: class check: {e}", spec.name));
        }
    }
    let measured = &round_stats[..untraced_rounds];
    Outcome {
        attempted: driver.attempted,
        failed: driver.failed,
        problems: std::mem::take(&mut driver.problems),
        samples_per_round: plan.ops(),
        shares,
        op_p50_ms: stats::median(&p50s(measured)),
        op_tail_ms: stats::median(&over(measured, |r| r.p90_ms)),
        throughput_ops_s: stats::median(&over(measured, |r| r.ops_per_s)),
        cpu_s_per_op: cpu_s / timed_ops as f64,
        wire: WireDelta::between(&wire_before, &wire_after),
        timed_ops,
        peak_rss_mb,
        setup_s,
        setup_reps,
        rounds: round_stats,
        layers,
    }
}

fn over(rounds: &[RoundStats], f: fn(&RoundStats) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

fn p50s(rounds: &[RoundStats]) -> Vec<f64> {
    over(rounds, |r| r.p50_ms)
}

/// The query the kernel replay runs: the tail query that is first in the
/// list (every tail query of a workload costs about the same), or the
/// widest threshold where the list does not name its classes.
fn heaviest_query(plan: &Plan) -> usize {
    plan.steps
        .iter()
        .find_map(|s| match s {
            Step::Query {
                query,
                class: Some(Class::Tail),
                ..
            } => Some(*query),
            _ => None,
        })
        .unwrap_or(plan.queries.len() - 1)
}

/// Replays the timed list on the oracle twin and compares digests. The
/// twin's answer to a query can only change at a write, so between writes
/// each distinct query is asked once.
fn verify(driver: &mut Driver, mut twin: System, plan: &Plan, records: &[OpRecord], rounds: usize) {
    let mut known: HashMap<usize, Result<u64, String>> = HashMap::new();
    let mut records = records.iter();
    let name = driver.sys.kind.spec().name;
    for _ in 0..rounds {
        for step in &plan.steps {
            match step {
                Step::Write => {
                    twin.write();
                    known.clear();
                }
                Step::Query { query, .. } => {
                    let record = records.next().expect("one record per op");
                    let Some(got) = record.digest else { continue };
                    let want = known
                        .entry(*query)
                        .or_insert_with(|| twin.query(&plan.queries[*query], 0).map(|a| a.digest));
                    match want {
                        Ok(want) if *want == got => {}
                        Ok(_) => {
                            driver.failed += 1;
                            driver.problem(format!(
                                "{name}: answer differs from the oracle twin's: {}",
                                plan.queries[*query]
                            ));
                        }
                        Err(e) => {
                            let e = e.clone();
                            driver.failed += 1;
                            driver.problem(format!("{name}: oracle twin failed: {e}"));
                        }
                    }
                }
            }
        }
    }
}
