//! The walk: portal-driven execution of one plan, one step at a time.
//!
//! Every plan the Portal does not hand to the paper's recursive daisy
//! chain runs here. The walk owns the only copy of the loop state and of
//! the re-plan policy; what varies between plans is data, not driver:
//!
//! * **how far each step scatters** — to one node for an unsharded
//!   archive, or to every owning shard's replica group; either way the
//!   step is one `ScatterStep` call per extent, its input supplied inline
//!   and its output handed straight back. The committed set lives in
//!   Portal memory, so nodes keep no per-query state between steps;
//! * **whether an unhealthy archive aborts or re-plans** — one `bool`
//!   set from [`ChainMode`](crate::portal::ChainMode);
//! * **whether the walk records** — an optional observer that keeps each
//!   step's committed set, provenance and observed table version, and
//!   populates the result cache when the walk ends clean;
//! * **whether the walk repairs** — the same observer over a stale cache
//!   entry: each step probes only what the entry lacks and splices the
//!   replies onto its cached outputs.
//!
//! Recording, repairing and plain steps all run one step routine.

use std::collections::HashMap;

use skyquery_htm::SkyPoint;
use skyquery_net::Url;
use skyquery_storage::Value;

use crate::error::{FederationError, Result};
use crate::plan::{ExecutionPlan, PlanStep};
use crate::portal::{Degradation, Portal};
use crate::result_cache::{CacheEntry, CachedStep, StepVersion};
use crate::shard;
use crate::trace::{ExecutionTrace, StatsChain};
use crate::transfer::{invoke_portal_step, portal_step_call};
use crate::xmatch::{PartialSet, PartialTuple, StepStats};

/// How often a failing mandatory step may be deferred (moved to the
/// earliest mandatory slot) before the Portal gives up on the query.
const MAX_STEP_DEFERRALS: u64 = 2;

/// Portal-driven stepwise execution of one plan.
///
/// `Portal::start_walk` builds one; [`Portal::execute_plan`] drives it to
/// completion in a tight loop; [`Portal::advance`] runs one step of it per
/// quantum of a [`Submission`](crate::portal::Submission), so the job
/// service can interleave many walks and a long chain from one tenant
/// cannot monopolize the Portal. The committed set lives only here, so a
/// cancellation between quanta just drops the walk.
///
/// On a mid-chain `NodeUnhealthy` failure a re-planning walk continues:
/// a failing drop-out archive is skipped (`degraded`), a failing
/// mandatory archive is deferred behind the other mandatory steps
/// (`replan`) — in both cases execution resumes from the committed set
/// without re-running any committed step.
pub struct CheckpointedWalk {
    plan: ExecutionPlan,
    /// Steps not yet executed, in plan-list order (drop-outs at the
    /// head); execution walks from the tail (the seed) toward the head.
    remaining: Vec<PlanStep>,
    executed: Vec<String>,
    deferrals: HashMap<String, u64>,
    /// The set committed by the last executed step.
    committed: Option<PartialSet>,
    stats: StatsChain,
    degradation: Degradation,
    recovering: bool,
    replan: bool,
    recorder: Option<Recorder>,
}

/// The result-cache observer of a recording or repairing walk.
struct Recorder {
    /// The entry the walk is building. Its version vector starts as the
    /// registry's view and is overwritten with what each answering node
    /// reported (an extent-pruned shard contributes nothing, so it keeps
    /// the registry's version); its steps accumulate in execution order
    /// and are reversed into plan order when the walk ends clean.
    entry: CacheEntry,
    /// The stale entry a repairing walk splices onto; `None` when cold.
    stale: Option<Stale>,
}

/// What a repairing walk knows of the stale entry it walks.
struct Stale {
    entry: CacheEntry,
    /// For each committed tuple, the row of the stale entry's last walked
    /// step it continues (*kept*), or `None` (*fresh*). A seed's upstream
    /// is one virtual tuple, the query, whose stale outputs are all the
    /// cached seed rows.
    origin: Vec<Option<u64>>,
}

impl CheckpointedWalk {
    /// A walk over `plan` with no steps executed yet. `replan` chooses
    /// between re-planning around an unhealthy archive and aborting;
    /// `record` (the registry's current table versions for the plan)
    /// makes the walk populate the result cache if it ends clean.
    pub(crate) fn new(
        plan: &ExecutionPlan,
        replan: bool,
        record: Option<Vec<Vec<StepVersion>>>,
    ) -> CheckpointedWalk {
        CheckpointedWalk {
            plan: plan.clone(),
            remaining: plan.steps.clone(),
            executed: Vec::new(),
            deferrals: HashMap::new(),
            committed: None,
            stats: StatsChain::new(),
            degradation: Degradation::default(),
            recovering: false,
            replan,
            recorder: record.map(|versions| Recorder {
                entry: CacheEntry {
                    signature: plan.cache_signature(),
                    versions,
                    steps: Vec::new(),
                },
                stale: None,
            }),
        }
    }

    /// Repairs `stale`, a monotone-stale entry for the unsharded `plan`,
    /// by walking it inline, recording against `current` (the registry's
    /// versions). Every step runs the one step routine, so each probes only
    /// what the entry lacks and the answer is byte-identical to a cold
    /// run. Returns the finished walk, which answers the plan, and the
    /// repaired entry for the stale entry's slot. An error fails the
    /// repair, not the query.
    pub(crate) fn repair(
        portal: &Portal,
        plan: &ExecutionPlan,
        stale: CacheEntry,
        current: Vec<Vec<StepVersion>>,
        trace: &mut ExecutionTrace,
    ) -> Result<(CheckpointedWalk, CacheEntry)> {
        let mut walk = CheckpointedWalk::new(plan, false, Some(current));
        if let Some(rec) = &mut walk.recorder {
            rec.stale = Some(Stale {
                entry: stale,
                origin: vec![Some(0)],
            });
        }
        while !walk.is_done() {
            walk.step(portal, trace)?;
        }
        // A walk that does not re-plan never drops its recorder.
        let rec = walk.recorder.take().expect("a repair keeps its recorder");
        Ok((walk, rec.entry))
    }

    /// A walk with nothing left to run: the result cache answered the
    /// plan, and [`CheckpointedWalk::finish`] hands that answer over. It
    /// keeps no copy of the plan it will never step.
    pub(crate) fn answered(set: PartialSet, stats: StatsChain) -> CheckpointedWalk {
        CheckpointedWalk {
            committed: Some(set),
            stats,
            ..CheckpointedWalk::new(&ExecutionPlan::default(), false, None)
        }
    }

    /// Whether every step has executed (or been skipped as degraded).
    pub(crate) fn is_done(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Executes (or re-plans around) the next step of the chain. A
    /// returned error is fatal for the walk.
    pub(crate) fn step(&mut self, portal: &Portal, trace: &mut ExecutionTrace) -> Result<()> {
        let Some(idx) = self.remaining.len().checked_sub(1) else {
            return Ok(());
        };
        self.run_tail(portal, idx, trace)
            .or_else(|e| self.replan_around(portal, idx, e, trace))
    }

    /// Runs the tail step of `remaining` against the committed set and
    /// commits its output.
    fn run_tail(&mut self, portal: &Portal, idx: usize, trace: &mut ExecutionTrace) -> Result<()> {
        let repairing = self.recorder.as_ref().is_some_and(|r| r.stale.is_some());
        let mut sub_plan = self.plan.clone();
        // A repair sends the whole plan its entry was recorded under.
        if !repairing {
            sub_plan.steps = self.remaining.clone();
        }
        let step = &sub_plan.steps[idx];
        let (rows, degradation) = self.run_step(portal, &sub_plan, idx, trace)?;
        let degraded = degradation.degraded;
        self.degradation.absorb(degradation);
        if self.recovering && !degraded {
            self.recovering = false;
            trace.push(
                "Portal",
                "resume",
                format!("chain resumed at {} ({rows} rows)", step.alias),
            );
            portal.net.record_node_event(&portal.host, "resume");
        }
        if degraded {
            self.recovering = true;
            // A hit must stay a complete answer.
            self.recorder = None;
        }
        self.executed.push(step.alias.clone());
        self.remaining.pop();
        if self.remaining.is_empty() {
            if let Some(rec) = &mut self.recorder {
                rec.entry.steps.reverse();
            }
            // A repair hands its entry back to the lookup that started it.
            if let Some(rec) = self.recorder.take_if(|r| r.stale.is_none()) {
                portal.populate_cache(rec.entry, trace);
            }
        }
        Ok(())
    }

    /// The one step routine: every step of every walk, plain, recording
    /// or repairing, runs here with the committed set held at the Portal.
    ///
    /// 1. The committed upstream splits into *kept* tuples, which continue
    ///    a row of the stale entry a repair walks, and *fresh* ones.
    /// 2. Kept tuples are probed against only the rows the table gained
    ///    since the entry's version (`DeltaStep` from that row). A drop-out
    ///    step probes only the kept tuples whose cached output survived.
    /// 3. Fresh tuples are probed against the whole table: `DeltaStep`
    ///    from row 0 in a repair, `ScatterStep` otherwise.
    /// 4. The replies splice onto the cached outputs by provenance. A
    ///    match step appends each kept tuple's new extensions to its cached
    ///    group; a drop-out step keeps the cached survivors the new rows
    ///    did not drop.
    ///
    /// A cold step is the case with no cached outputs: every tuple is
    /// fresh and the reply is the step's output. Tables are append-only
    /// and kernels emit each match group in row order, so a splice is
    /// byte-identical to a cold run over the same rows. A recording walk
    /// tags the input with each tuple's index (stripped from the output)
    /// so a later repair knows which upstream tuple every output row
    /// extends. Returns the row count and what a degraded drop-out step
    /// lost.
    fn run_step(
        &mut self,
        portal: &Portal,
        sub_plan: &ExecutionPlan,
        idx: usize,
        trace: &mut ExecutionTrace,
    ) -> Result<(usize, Degradation)> {
        let step = &sub_plan.steps[idx];
        let input = self.committed.as_ref();
        let (recording, replan) = (self.recorder.is_some(), self.replan);
        let stale = match &self.recorder {
            Some(Recorder {
                entry,
                stale: Some(stale),
            }) => Some((stale, &stale.entry.steps[idx], &entry.versions[idx])),
            _ => None,
        };
        // The cached outputs grouped by the stale upstream row each extends.
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        let (mut kept, mut fresh) = (Vec::new(), Vec::new());
        // The row a kept tuple's probe starts at, when the table grew.
        let mut delta_from = None;
        match stale {
            Some((stale, cached, current)) => {
                for (i, src) in cached.src.iter().enumerate() {
                    groups.entry(*src).or_default().push(i);
                }
                for (u, origin) in stale.origin.iter().enumerate() {
                    match origin {
                        None => fresh.push(u),
                        Some(o) if !step.dropout || groups.contains_key(o) => kept.push(u),
                        Some(_) => {}
                    }
                }
                let v_old = stale.entry.versions[idx][0].version;
                delta_from = (current[0].version > v_old).then_some(v_old);
            }
            None => fresh = (0..input.map_or(1, PartialSet::len)).collect(),
        }
        let cached = stale.map(|(_, cached, _)| cached);

        // One probe of the upstream tuples at `tuples` (all of them when
        // the walk keeps no provenance) against the rows at or after
        // `from_row` (`None`: a `ScatterStep` over the whole table).
        let mut probe = |tuples: &[usize], from_row: Option<u64>| {
            let tagged = input
                .filter(|_| recording)
                .map(|set| shard::tag_with_src(set, CACHE_SRC_COL, tuples.iter().copied()));
            let input = tagged.as_ref().or(input);
            let mut out = portal.scatter_step(sub_plan, idx, input, replan, from_row, trace)?;
            // Untagged: the seed, whose rows all extend its one virtual
            // upstream tuple, or a walk that keeps no provenance.
            let mut src = vec![0; out.set.len()];
            if tagged.is_some() {
                (out.set, src) = strip_cache_src(out.set)?;
            }
            if cached.is_some_and(|c| c.set.columns != out.set.columns) {
                return Err(FederationError::protocol(
                    "delta reply schema diverged from the cached set",
                ));
            }
            Ok((out, src))
        };
        let delta = match delta_from {
            Some(from_row) if !kept.is_empty() => Some(probe(&kept, Some(from_row))?),
            _ => None,
        };
        let mut full = match cached {
            Some(_) if fresh.is_empty() => None,
            _ => Some(probe(&fresh, cached.map(|_| 0))?),
        };

        // A fresh probe of a table that did not grow leaves the kept
        // tuples unprobed past the entry's version, so it keeps that one.
        let grown = cached.is_none() || delta_from.is_some();
        let observed = match (&delta, &full) {
            (Some((out, _)), _) => out.versions.clone(),
            (None, Some((out, _))) if grown => out.versions.clone(),
            _ => Vec::new(),
        };
        let degradation = full
            .as_mut()
            .map(|(out, _)| std::mem::take(&mut out.degradation))
            .unwrap_or_default();
        // A repaired step reports the cached totals plus the delta work
        // (the approximation DESIGN §12 documents).
        let mut stats = cached.map(|c| c.stats);
        for (out, _) in delta.iter().chain(&full) {
            match &mut stats {
                Some(s) => {
                    s.add_work(&out.stats);
                    s.chi2_accepted += out.stats.chi2_accepted;
                }
                None => stats = Some(out.stats),
            }
        }
        let mut stats = stats.expect("a step probes or has cached outputs");

        let (set, src, origin) = match stale {
            None => {
                let (out, src) = full.expect("a cold step always probes");
                (out.set, src, Vec::new())
            }
            Some((stale, cached, _)) => {
                let by_src = |(out, src): (ScatterOutcome, Vec<u64>)| {
                    let mut by: HashMap<u64, Vec<PartialTuple>> = HashMap::new();
                    for (t, s) in out.set.tuples.into_iter().zip(src) {
                        by.entry(s).or_default().push(t);
                    }
                    by
                };
                let mut delta = delta.map(by_src);
                let mut full = full.map(by_src).unwrap_or_default();
                let mut set = PartialSet::new(cached.set.columns.clone());
                let (mut src, mut origin) = (Vec::new(), Vec::new());
                for (u, o) in stale.origin.iter().enumerate() {
                    let u = u as u64;
                    // A drop-out keeps a cached survivor while the delta
                    // rows, when probed, keep it too.
                    let survives =
                        !step.dropout || delta.as_ref().is_none_or(|d| d.contains_key(&u));
                    let old = o.filter(|_| survives).and_then(|o| groups.get(&o));
                    let old = old.into_iter().flatten();
                    let new = match o {
                        Some(_) if step.dropout => None,
                        Some(_) => delta.as_mut().and_then(|d| d.remove(&u)),
                        None => full.remove(&u),
                    };
                    let old = old.map(|&i| (cached.set.tuples[i].clone(), Some(i as u64)));
                    for (t, from) in old.chain(new.into_iter().flatten().map(|t| (t, None))) {
                        set.tuples.push(t);
                        src.push(u);
                        origin.push(from);
                    }
                }
                if let Some(input) = input {
                    stats.tuples_in = input.len();
                }
                stats.tuples_out = set.len();
                (set, src, origin)
            }
        };

        let alias = &step.alias;
        if let Some(rec) = &mut self.recorder {
            // While a recorder lives nothing was re-ordered or skipped,
            // so `idx` is also the step's index in the original plan.
            for (host, version) in observed {
                if let Some(v) = rec.entry.versions[idx].iter_mut().find(|v| v.host == host) {
                    v.version = version;
                }
            }
            rec.entry.steps.push(CachedStep {
                alias: alias.clone(),
                set: set.clone(),
                src,
                stats,
            });
            if let Some(stale) = &mut rec.stale {
                stale.origin = origin;
            }
        }
        self.stats.push(alias.clone(), stats);
        let rows = set.len();
        self.committed = Some(set);
        Ok((rows, degradation))
    }

    /// The re-plan policy, applied when the tail step failed with `e`:
    /// an unreachable drop-out archive is skipped, an unreachable
    /// mandatory archive is deferred; anything else is fatal.
    fn replan_around(
        &mut self,
        portal: &Portal,
        idx: usize,
        e: FederationError,
        trace: &mut ExecutionTrace,
    ) -> Result<()> {
        if !self.replan || !matches!(e, FederationError::NodeUnhealthy { .. }) {
            return Err(e);
        }
        let step = self.remaining[idx].clone();
        // From here on the walk no longer mirrors the plan step for
        // step, so what it commits cannot be cached.
        self.recorder = None;
        self.recovering = true;
        if step.dropout {
            // A drop-out archive is optional: continue without it and
            // flag the result as degraded — unless the plan routed
            // residuals or carried columns through it, where skipping
            // would change the query's meaning rather than its
            // completeness.
            if !step.residual_sql.is_empty() || !step.carried.is_empty() {
                return Err(e);
            }
            trace.push(
                "Portal",
                "degraded",
                format!(
                    "optional archive {} unreachable; continuing without its drop-out filter",
                    step.alias
                ),
            );
            portal.net.record_node_event(&portal.host, "degraded");
            self.degradation.absorb(Degradation {
                degraded: true,
                dropped: vec![step.archive.clone()],
            });
            self.remaining.pop();
        } else {
            // A failing mandatory step moves to the earliest mandatory
            // slot (it will execute last); the node may recover in the
            // meantime.
            let first_mandatory = self
                .remaining
                .iter()
                .position(|s| !s.dropout)
                .expect("the failing step itself is mandatory");
            let tries = self.deferrals.entry(step.alias.clone()).or_insert(0);
            if *tries >= MAX_STEP_DEFERRALS || self.remaining.len() - first_mandatory < 2 {
                return Err(e);
            }
            *tries += 1;
            let failed = self.remaining.pop().expect("indexed above");
            self.remaining.insert(first_mandatory, failed);
            replace_residuals(&mut self.remaining, &self.executed)?;
            trace.push(
                "Portal",
                "replan",
                format!(
                    "deferred {} after failure; new order: {}",
                    step.alias,
                    self.remaining
                        .iter()
                        .rev()
                        .map(|s| s.alias.as_str())
                        .collect::<Vec<_>>()
                        .join(" -> ")
                ),
            );
            portal.net.record_node_event(&portal.host, "replan");
        }
        Ok(())
    }

    /// Collects the final committed set (the matched partial set), the
    /// statistics and what the walk dropped.
    pub(crate) fn finish(
        mut self,
        portal: &Portal,
    ) -> Result<(PartialSet, StatsChain, Degradation)> {
        let set = self
            .committed
            .ok_or_else(|| FederationError::planning("the walk committed no steps"))?;
        if portal.config().result_cache_capacity > 0 {
            portal.stamp_cache_counters(&mut self.stats);
        }
        Ok((set, self.stats, self.degradation))
    }
}

/// Re-attaches residual clauses after a re-plan, each at the step
/// [`residual_step`] names.
fn replace_residuals(remaining: &mut [PlanStep], executed: &[String]) -> Result<()> {
    let pool: Vec<String> = remaining
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.residual_sql))
        .collect();
    for sql in pool {
        let expr = skyquery_sql::parse_expr(&sql).map_err(FederationError::Sql)?;
        let at = residual_step(remaining, executed, &expr)?;
        remaining[at].residual_sql.push(sql);
    }
    Ok(())
}

/// The index of the step in `steps` (list order, so processing runs from
/// the last) that runs `residual`, at planning and after a re-plan: the
/// earliest processing position where every alias it references is bound
/// — either carried in the committed tuples (`executed`) or joined by one
/// of `steps`. `steps` is never empty: XMATCH names a mandatory archive.
pub(crate) fn residual_step(
    steps: &[PlanStep],
    executed: &[String],
    residual: &skyquery_sql::Expr,
) -> Result<usize> {
    let mut at = steps.len() - 1;
    for a in residual.referenced_aliases() {
        if executed.iter().any(|e| e == a) {
            continue; // already bound in the committed tuples
        }
        let i = steps.iter().position(|s| s.alias == a).ok_or_else(|| {
            FederationError::planning(format!("residual references unknown alias {a}"))
        })?;
        at = at.min(i);
    }
    Ok(at)
}

/// Portal-private provenance column tagged onto each step's input during
/// a recording or repairing walk. Node-side match and drop-out carry
/// input columns through untouched (the same property the shard executor
/// relies on for its `__src` tag), so the value survives the round trip
/// and tells the Portal which upstream tuple each output row extends.
/// Stripped before anything is cached or returned.
const CACHE_SRC_COL: &str = "__csrc";

/// Removes the [`CACHE_SRC_COL`] column from a node reply, returning
/// the clean set plus each tuple's upstream provenance index.
fn strip_cache_src(mut set: PartialSet) -> Result<(PartialSet, Vec<u64>)> {
    let pos = set
        .columns
        .iter()
        .position(|c| c.name == CACHE_SRC_COL)
        .ok_or_else(|| FederationError::protocol("delta reply lost the cache provenance column"))?;
    set.columns.remove(pos);
    let mut srcs = Vec::with_capacity(set.tuples.len());
    for t in &mut set.tuples {
        match t.values.remove(pos) {
            Value::Id(s) => srcs.push(s),
            other => {
                return Err(FederationError::protocol(format!(
                    "cache provenance column held {other:?}, expected an id"
                )))
            }
        }
    }
    Ok((set, srcs))
}

/// What one scattered step produced.
pub(crate) struct ScatterOutcome {
    pub(crate) set: PartialSet,
    pub(crate) stats: StepStats,
    /// Partial-result honesty: `degraded`, with the lost shards named
    /// `archive@host`, when a drop-out step lost whole extents but was
    /// answered from the rest (re-planning walks only).
    degradation: Degradation,
    /// `(primary host, table version)` of every extent that answered —
    /// an extent served by a replica is named by its primary, the stable
    /// group identity the registry's version snapshot is keyed on.
    pub(crate) versions: Vec<(String, u64)>,
}

/// What serving one replica group produced: the winning attempt's result
/// (or the final error) plus the failover/hedge book-keeping a scatter
/// folds into the step's statistics.
pub(crate) struct ExtentOutcome<T> {
    pub(crate) result: Result<T>,
    failovers: usize,
    hedges: usize,
    hedge_wins: usize,
}

/// Runs `f` over every item, in item order on the calling thread, and
/// returns the results in that order. The program's one fork/join site:
/// count-stars and scatter steps both fan out here (the paper's
/// "asynchronous SOAP messages"). Threads would buy no simulated time,
/// since the network's clock sums every link's time, and they would make
/// message order and hedge decisions depend on scheduling.
pub(crate) fn fan_out<I, T>(items: &[I], f: impl Fn(&I) -> T) -> Vec<T> {
    items.iter().map(f).collect()
}

impl Portal {
    /// Serves one request from a replica group (`candidates`, primary
    /// first; never empty): the first healthy candidate is probed, a
    /// reply slower than `hedge_delay_s` (when positive) races a
    /// duplicate probe against the first untried sibling (first response
    /// wins; the loser is discarded here), and an unhealthy verdict fails
    /// over through the remaining siblings. Every attempt's outcome goes
    /// into the health book. Replicas hold identical data, so whichever
    /// one answers yields identical bytes. Non-unhealthy errors (a
    /// malformed body surviving its retry budget, a planning error) stay
    /// fatal: failing over past a poisoned reply would mask corruption,
    /// not route around an outage.
    pub(crate) fn serve_group<T>(
        &self,
        candidates: &[Url],
        hedge_delay_s: f64,
        probe: impl Fn(&Url) -> Result<T>,
    ) -> ExtentOutcome<T> {
        let net = &self.net;
        // One attempt, with the simulated-time cost of the exchange
        // (what the hedge decision races against).
        let attempt = |url: &Url| -> (Result<T>, f64) {
            let t0 = net.now_s();
            let r = probe(url);
            let elapsed = net.now_s() - t0;
            self.observe(&url.host, &r);
            (r, elapsed)
        };
        // Healthy-first: the first candidate not marked unhealthy moves
        // to the front; the rest keep their order.
        let mut order: Vec<&Url> = candidates.iter().collect();
        let pick = order
            .iter()
            .position(|u| !self.host_is_unhealthy(&u.host))
            .unwrap_or(0);
        order[..=pick].rotate_right(1);

        let (mut failovers, mut hedges, mut hedge_wins) = (0, 0, 0);
        let (mut r, elapsed) = attempt(order[0]);
        let mut tried = 1;
        if hedge_delay_s > 0.0 && elapsed >= hedge_delay_s && order.len() > 1 {
            // The picked replica was slower than the hedge delay: model a
            // duplicate probe issued at `hedge_delay_s` racing the
            // (already-measured) straggler.
            hedges += 1;
            net.record_node_event(&self.host, "hedge");
            tried = 2;
            let (r2, sibling_elapsed) = attempt(order[1]);
            let sibling_wins = match (&r, &r2) {
                (Err(_), Ok(_)) => true,
                (Ok(_), Ok(_)) => hedge_delay_s + sibling_elapsed < elapsed,
                _ => false,
            };
            if sibling_wins {
                r = r2;
                hedge_wins += 1;
            }
        }
        while matches!(r, Err(FederationError::NodeUnhealthy { .. })) && tried < order.len() {
            let next = order[tried];
            tried += 1;
            failovers += 1;
            net.record_node_event(&self.host, "failover");
            r = attempt(next).0;
        }
        ExtentOutcome {
            result: r,
            failovers,
            hedges,
            hedge_wins,
        }
    }

    /// Scatters one step (`idx`, the tail of `plan.steps`) to its owning
    /// shards through [`fan_out`], in extent order, and gathers the
    /// replies into one merged partial set plus the step's merged
    /// statistics; an unsharded archive is the one-extent case. Every
    /// extent is sent the step alone, as [`ExecutionPlan::for_step`]'s
    /// one-step plan, with only the input tuples whose probe balls meet
    /// its declination range (each tagged with its global index), and is
    /// served by one replica of its group through [`Portal::serve_group`],
    /// in deterministic `(extent, host)` order, under the configured hedge
    /// delay.
    /// `from_row` is passed to [`portal_step_call`]: `None` runs the step
    /// over the whole table, `Some(r)` over only the rows at or after `r`
    /// (a cache-repair probe).
    pub(crate) fn scatter_step(
        &self,
        plan: &ExecutionPlan,
        idx: usize,
        input: Option<&PartialSet>,
        replan: bool,
        from_row: Option<u64>,
        trace: &mut ExecutionTrace,
    ) -> Result<ScatterOutcome> {
        let step = &plan.steps[idx];
        let multi = step.shards.len() > 1;
        let dropout = step.dropout;
        // One replica group per extent: the primary scatter target
        // first, then its same-extent replicas (failover/hedge
        // candidates).
        let mut targets: Vec<Vec<Url>> = if step.shards.is_empty() {
            vec![vec![step.url.clone()]]
        } else {
            step.shards
                .iter()
                .map(|s| [vec![s.url.clone()], s.replicas.clone()].concat())
                .collect()
        };
        // Scattered with input, each extent's route: the ascending indices
        // of the tuples whose probe ball, padded with the zone kernels'
        // band slack, meets its declination range. A tuple with no best
        // position can match at no shard and is routed nowhere.
        let mut routes: Vec<Vec<usize>> = Vec::new();
        if let Some(set) = input.filter(|_| multi) {
            routes = vec![Vec::new(); step.shards.len()];
            let sigma_rad = (step.sigma_arcsec / 3600.0).to_radians();
            for (i, t) in set.tuples.iter().enumerate() {
                let Some(best) = t.state.best_position() else {
                    continue;
                };
                let dec = SkyPoint::from_vec3(best).dec_deg;
                let r = t.state.search_radius(plan.threshold, sigma_rad);
                let r = r.to_degrees() + 1e-9;
                for (route, s) in routes.iter_mut().zip(&step.shards) {
                    if s.extent.dec_lo_deg <= dec + r && s.extent.dec_hi_deg >= dec - r {
                        route.push(i);
                    }
                }
            }
        }

        // Extent-prune the fan-out: an extent no tuple's ball reaches
        // would contribute nothing — no extensions on a match step, no
        // dropped tuples on a drop-out step — so it is not called. Seed
        // steps (no input) always scatter to every shard. When no tuple
        // reaches any extent, the first is sent the empty subset so the
        // merge sees a well-formed (empty) shard reply.
        let mut shards_pruned = 0usize;
        if !routes.is_empty() {
            if routes.iter().all(Vec::is_empty) {
                targets.truncate(1);
                routes.truncate(1);
            } else {
                let mut it = routes.iter();
                targets.retain(|_| !it.next().expect("a route per extent").is_empty());
                routes.retain(|route| !route.is_empty());
            }
            shards_pruned = step.shards.len() - targets.len();
        }

        // The call carries this step alone, as a one-step plan. When
        // scattered, a non-drop-out step additionally carries the shard
        // table's rank column so the gather can restore the single-node
        // output order.
        let mut wire_plan = plan.for_step(idx);
        if multi && !dropout {
            wire_plan.steps[0].carried.push(shard::RANK_COL.to_string());
        }
        let hedge_delay = self.config().hedge_delay_s;
        // One call body per extent: its primary, hedge and failovers are
        // all sent these bytes. Routed, it carries the extent's tuples,
        // tagged with their index in the whole input, and a reply
        // answering for any other tuple is refused. An input that cannot
        // be encoded is refused before any extent is called.
        if let Some(set) = input {
            set.a()?;
        }
        let serve = |group: &Vec<Url>, route: Option<&Vec<usize>>| {
            let input_table = input.map(|set| {
                let table = match route {
                    Some(route) => {
                        shard::tag_with_src(set, shard::SRC_COL, route.iter().copied()).to_votable()
                    }
                    None => set.to_votable(),
                };
                table.expect("the input's one __a is checked above")
            });
            let call = portal_step_call(&wire_plan, 0, from_row, input_table);
            self.serve_group(group, hedge_delay, |url| {
                let reply = invoke_portal_step(&self.net, &self.host, url, &wire_plan, &call)?;
                if let Some(route) = route {
                    shard::check_src(&reply.0, route, &url.host)?;
                }
                Ok(reply)
            })
        };
        let outcomes = if routes.is_empty() {
            fan_out(&targets, |group| serve(group, None))
        } else {
            let routed: Vec<_> = targets.iter().zip(&routes).collect();
            fan_out(&routed, |(group, route)| serve(group, Some(route)))
        };

        let mut parts: Vec<(PartialSet, StepStats)> = Vec::new();
        let mut versions: Vec<(String, u64)> = Vec::new();
        let mut errs: Vec<(String, FederationError)> = Vec::new();
        // The routes of the extents that answered, beside `parts`.
        let mut sent: Vec<&[usize]> = Vec::new();
        let (mut failovers, mut hedges, mut hedge_wins) = (0usize, 0usize, 0usize);
        for (k, (group, o)) in targets.iter().zip(outcomes).enumerate() {
            let primary = &group[0];
            failovers += o.failovers;
            hedges += o.hedges;
            hedge_wins += o.hedge_wins;
            match o.result {
                Ok((set, chain, version)) => {
                    let st = chain.entries.first().map(|e| e.1).unwrap_or_default();
                    parts.push((set, st));
                    versions.push((primary.host.clone(), version));
                    sent.extend(routes.get(k).map(Vec::as_slice));
                }
                // A failed extent is named by its primary host — the
                // stable group identity — not whichever replica happened
                // to answer last.
                Err(e) => errs.push((primary.host.clone(), e)),
            }
        }

        let mut degradation = Degradation::default();
        if !errs.is_empty() {
            let all_unhealthy = errs
                .iter()
                .all(|(_, e)| matches!(e, FederationError::NodeUnhealthy { .. }));
            // A drop-out step may degrade to the shards that answered:
            // intersecting over fewer shards only weakens the filter,
            // which is a completeness loss, not a correctness one.
            let degradable = replan && dropout && multi && !parts.is_empty();
            if !(all_unhealthy && degradable) {
                // Prefer surfacing a fatal error so the walk aborts
                // rather than deferring a step that can never succeed.
                let fatal = errs
                    .iter()
                    .position(|(_, e)| !matches!(e, FederationError::NodeUnhealthy { .. }))
                    .unwrap_or(0);
                return Err(errs.swap_remove(fatal).1);
            }
            let lost: Vec<&str> = errs.iter().map(|(h, _)| h.as_str()).collect();
            trace.push(
                "Portal",
                "degraded",
                format!(
                    "drop-out {}: shard(s) {} unreachable; intersecting over {} answering \
                     shard(s)",
                    step.alias,
                    lost.join(", "),
                    parts.len()
                ),
            );
            self.net.record_node_event(&self.host, "degraded");
            degradation = Degradation {
                degraded: true,
                dropped: errs
                    .iter()
                    .map(|(h, _)| format!("{}@{}", step.archive, h))
                    .collect(),
            };
        }

        let (set, mut stats) = match input {
            _ if !multi => parts.into_iter().next().expect("one target answered"),
            None => shard::merge_seed(&parts, &step.alias)?,
            Some(input) if dropout => shard::merge_dropout(input, &parts, &sent)?,
            Some(_) => shard::merge_match(&parts, &step.alias)?,
        };
        // A routed extent saw a subset; the step's input is the whole set.
        stats.tuples_in = input.map_or(stats.tuples_in, PartialSet::len);
        stats.shards_pruned += shards_pruned;
        stats.failovers += failovers;
        stats.hedges += hedges;
        stats.hedge_wins += hedge_wins;
        if multi && !degradation.degraded {
            let pruned_note = if shards_pruned > 0 {
                format!(" ({shards_pruned} shard(s) extent-pruned)")
            } else {
                String::new()
            };
            trace.push(
                "Portal",
                "scatter",
                format!(
                    "{}: {} shards -> {} rows merged{}",
                    step.alias,
                    targets.len(),
                    set.len(),
                    pruned_note
                ),
            );
        }
        Ok(ScatterOutcome {
            set,
            stats,
            degradation,
            versions,
        })
    }
}
