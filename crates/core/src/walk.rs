//! The walk: portal-driven execution of one plan, one step at a time.
//!
//! Every plan the Portal does not hand to the paper's recursive daisy
//! chain runs here. The walk owns the only copy of the loop state and of
//! the re-plan policy; what varies between plans is data, not driver:
//!
//! * **where the committed set lives** — under a lease on the node that
//!   produced it (`ExecuteStep`, for an unsharded plan whose rows nobody
//!   at the Portal needs to see), or in Portal memory (`ScatterStep`, for
//!   a plan that scatters to shards or a walk that records for the
//!   result cache);
//! * **whether an unhealthy archive aborts or re-plans** — one `bool`
//!   set from [`ChainMode`](crate::portal::ChainMode);
//! * **whether the walk records** — an optional observer that keeps each
//!   step's committed set, provenance and observed table version, and
//!   populates the result cache when the walk ends clean.

use std::collections::HashMap;

use skyquery_htm::SkyPoint;
use skyquery_net::Url;

use crate::error::{FederationError, Result};
use crate::plan::{ExecutionPlan, PlanStep};
use crate::portal::{Degradation, Portal};
use crate::repair::{strip_cache_src, tag_with_cache_src};
use crate::result_cache::{CacheEntry, CachedStep, StepVersion};
use crate::retry::RetryPolicy;
use crate::shard;
use crate::trace::{ExecutionTrace, StatsChain};
use crate::transfer::{
    invoke_execute_step, invoke_portal_step, open_checkpoint, portal_step_call, release_checkpoint,
    renew_lease,
};
use crate::xmatch::{PartialSet, StepStats};

/// How often a failing mandatory step may be deferred (moved to the
/// earliest mandatory slot) before the Portal gives up on the query.
const MAX_STEP_DEFERRALS: u64 = 2;

/// Where the set committed by the last executed step lives.
enum Committed {
    /// Retained by the node that produced it, under a lease.
    OnNode { url: Url, id: u64 },
    /// Held in Portal memory; nodes keep no per-query state.
    AtPortal(PartialSet),
}

/// Portal-driven stepwise execution of one plan.
///
/// [`Portal::start_walk`] builds one; [`Portal::execute_plan`] drives it
/// to completion in a tight loop; the job service interleaves many walks — one [`CheckpointedWalk::step`]
/// per scheduler quantum — so a long chain from one tenant cannot
/// monopolize the Portal, and a cancellation between quanta can
/// [release](CheckpointedWalk::release) a node-held checkpoint
/// immediately instead of leaking it until its lease lapses.
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
    committed: Option<Committed>,
    /// Whether committed sets are held at the Portal; fixed for the
    /// walk's lifetime (a recorder may be dropped mid-walk).
    at_portal: bool,
    stats: StatsChain,
    degradation: Degradation,
    recovering: bool,
    replan: bool,
    /// The result-cache observer: the entry a recording walk is building.
    /// Its version vector starts as the registry's view and is
    /// overwritten with what each answering node reported (an
    /// extent-pruned shard contributes nothing, so it keeps the
    /// registry's version); its steps accumulate in execution order and
    /// are reversed into plan order when the walk ends clean.
    recorder: Option<CacheEntry>,
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
            at_portal: plan.has_shards() || record.is_some(),
            stats: StatsChain::new(),
            degradation: Degradation::default(),
            recovering: false,
            replan,
            recorder: record.map(|versions| CacheEntry {
                signature: plan.cache_signature(),
                versions,
                steps: Vec::new(),
            }),
        }
    }

    /// A walk with nothing left to run: the result cache answered the
    /// plan, and [`CheckpointedWalk::finish`] hands that answer over.
    pub(crate) fn answered(
        plan: &ExecutionPlan,
        set: PartialSet,
        stats: StatsChain,
    ) -> CheckpointedWalk {
        CheckpointedWalk {
            remaining: Vec::new(),
            committed: Some(Committed::AtPortal(set)),
            stats,
            ..CheckpointedWalk::new(plan, false, None)
        }
    }

    /// Whether every step has executed (or been skipped as degraded).
    pub fn is_done(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Executes (or re-plans around) the next step of the chain. A
    /// returned error is fatal for the walk, which has already released
    /// whatever it retained on a node.
    pub fn step(&mut self, portal: &Portal, trace: &mut ExecutionTrace) -> Result<()> {
        let Some(idx) = self.remaining.len().checked_sub(1) else {
            return Ok(());
        };
        let result = self
            .run_tail(portal, idx, trace)
            .or_else(|e| self.replan_around(portal, idx, e, trace));
        if result.is_err() {
            self.release(portal);
        }
        result
    }

    /// Runs the tail step of `remaining` against the committed set and
    /// commits its output.
    fn run_tail(&mut self, portal: &Portal, idx: usize, trace: &mut ExecutionTrace) -> Result<()> {
        let mut sub_plan = self.plan.clone();
        sub_plan.steps = self.remaining.clone();
        let step = &sub_plan.steps[idx];
        let (rows, degradation) = if self.at_portal {
            self.scatter(portal, &sub_plan, idx, trace)?
        } else {
            (
                self.execute_on_node(portal, &sub_plan, idx, trace)?,
                Degradation::default(),
            )
        };
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
            if let Some(mut entry) = self.recorder.take() {
                entry.steps.reverse();
                portal.populate_cache(entry, trace);
            }
        }
        Ok(())
    }

    /// One `ExecuteStep` call: the node reads the previous checkpoint
    /// (from itself or from its holder), runs the step, and retains the
    /// output as a fresh leased checkpoint; only the id, row count and
    /// statistics travel back. Returns the row count.
    fn execute_on_node(
        &mut self,
        portal: &Portal,
        sub_plan: &ExecutionPlan,
        idx: usize,
        trace: &mut ExecutionTrace,
    ) -> Result<usize> {
        let step = &sub_plan.steps[idx];
        let input = match &self.committed {
            Some(Committed::OnNode { url, id }) => Some((url, *id)),
            _ => None,
        };
        let reply = invoke_execute_step(&portal.net, &portal.host, &step.url, sub_plan, idx, input);
        portal.observe(&step.url.host, &reply);
        let (cp_id, rows, chain) = reply?;
        self.stats.entries.extend(chain.entries);
        // The new checkpoint supersedes the previous one.
        if let Some(Committed::OnNode { url, id }) = self.committed.take() {
            release_node_checkpoint(portal, &url, id, Some(trace));
        }
        self.committed = Some(Committed::OnNode {
            url: step.url.clone(),
            id: cp_id,
        });
        Ok(rows)
    }

    /// One scattered step with the committed set held at the Portal. A
    /// recording walk tags the input with each tuple's index (stripped
    /// from the output) so a later incremental repair knows which
    /// upstream tuple every output row extends. Returns the row count
    /// and what a degraded drop-out step lost.
    fn scatter(
        &mut self,
        portal: &Portal,
        sub_plan: &ExecutionPlan,
        idx: usize,
        trace: &mut ExecutionTrace,
    ) -> Result<(usize, Degradation)> {
        let input = match &self.committed {
            Some(Committed::AtPortal(set)) => Some(set),
            _ => None,
        };
        let tagged = input.filter(|_| self.recorder.is_some()).map(|set| {
            let all: Vec<usize> = (0..set.tuples.len()).collect();
            tag_with_cache_src(set, &all)
        });
        let out =
            portal.scatter_step(sub_plan, idx, tagged.as_ref().or(input), self.replan, trace)?;
        let (set, src) = match tagged {
            Some(_) => strip_cache_src(out.set).map(|(set, src)| (set, Some(src)))?,
            None => (out.set, None),
        };
        let alias = &sub_plan.steps[idx].alias;
        if let Some(rec) = &mut self.recorder {
            // Only the seed runs untagged: its provenance is its own rows.
            let src = src.unwrap_or_else(|| (0..set.len() as u64).collect());
            // While a recorder lives nothing was re-ordered or skipped,
            // so `idx` is also the step's index in the original plan.
            for (host, version) in out.versions {
                if let Some(v) = rec.versions[idx].iter_mut().find(|v| v.host == host) {
                    v.version = version;
                }
            }
            rec.steps.push(CachedStep {
                alias: alias.clone(),
                set: set.clone(),
                src,
                stats: out.stats,
            });
        }
        self.stats.push(alias.clone(), out.stats);
        let rows = set.len();
        self.committed = Some(Committed::AtPortal(set));
        Ok((rows, out.degradation))
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
        // Keep a node-held prefix alive while re-planning. A renewal
        // that cannot be delivered is tallied: the checkpoint keeps its
        // old deadline and may lapse before the chain returns to it.
        if let Some(Committed::OnNode { url, id }) = &self.committed {
            if renew_lease(
                &portal.net,
                &portal.host,
                url,
                "checkpoint",
                *id,
                RetryPolicy::none(),
            )
            .is_err()
            {
                portal.net.record_renew_failure();
                portal.net.record_node_event(&portal.host, "renew-failed");
                trace.push(
                    "Portal",
                    "renew failed",
                    format!(
                        "checkpoint {id} lease on {} not renewed; it may lapse before the \
                         re-planned chain resumes",
                        url.host
                    ),
                );
            }
        }
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
    /// statistics and what the walk dropped. A node-held checkpoint is
    /// freed best-effort even when collection fails — a dead walk must
    /// not pin node resources until a janitor sweep.
    pub fn finish(mut self, portal: &Portal) -> Result<(PartialSet, StatsChain, Degradation)> {
        let set = match self.committed.take() {
            None => return Err(FederationError::planning("the walk committed no steps")),
            Some(Committed::AtPortal(set)) => set,
            Some(Committed::OnNode { url, id }) => {
                let collected = open_checkpoint(&portal.net, &portal.host, &url, &self.plan, id);
                release_node_checkpoint(portal, &url, id, None);
                collected?
            }
        };
        if portal.config().result_cache_capacity > 0 {
            portal.stamp_cache_counters(&mut self.stats);
        }
        Ok((set, self.stats, self.degradation))
    }

    /// Best-effort release of whatever the walk retains on a node — the
    /// cleanup path for a failed or cancelled walk. Idempotent.
    pub fn release(&mut self, portal: &Portal) {
        if let Some(Committed::OnNode { url, id }) = self.committed.take() {
            release_node_checkpoint(portal, &url, id, None);
        }
    }
}

/// Releases a node-held checkpoint best-effort: if the holder is
/// unreachable its janitor reclaims the lease at TTL, but the failed call
/// is tallied, never swallowed — the `release_failures` network metric,
/// a node event, and (when a trace is in scope) a trace entry. What must
/// not vanish is the evidence that cleanup RPCs are failing.
fn release_node_checkpoint(
    portal: &Portal,
    holder: &Url,
    id: u64,
    trace: Option<&mut ExecutionTrace>,
) {
    if release_checkpoint(&portal.net, &portal.host, holder, id, RetryPolicy::none()).is_ok() {
        return;
    }
    portal.net.record_release_failure();
    portal.net.record_node_event(&portal.host, "release-failed");
    if let Some(trace) = trace {
        trace.push(
            "Portal",
            "release failed",
            format!(
                "checkpoint {id} on {} not released; its janitor reclaims it at TTL",
                holder.host
            ),
        );
    }
}

/// Re-attaches residual clauses after a re-plan: each residual moves to
/// the earliest remaining processing position where every alias it
/// references is bound — either carried in the committed tuples
/// (already executed) or joined by a remaining step.
fn replace_residuals(remaining: &mut [PlanStep], executed: &[String]) -> Result<()> {
    let pool: Vec<String> = remaining
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.residual_sql))
        .collect();
    let n = remaining.len();
    let alias_order: Vec<String> = remaining.iter().map(|s| s.alias.clone()).collect();
    for sql in pool {
        let expr = skyquery_sql::parse_expr(&sql).map_err(FederationError::Sql)?;
        let mut max_pos = 0usize;
        for a in expr.referenced_aliases() {
            if executed.iter().any(|e| e == a) {
                continue; // already bound in the committed tuples
            }
            let i = alias_order.iter().position(|x| x == a).ok_or_else(|| {
                FederationError::planning(format!("residual references unknown alias {a}"))
            })?;
            max_pos = max_pos.max(n - 1 - i);
        }
        remaining[n - 1 - max_pos].residual_sql.push(sql);
    }
    Ok(())
}

/// What one scattered step produced.
pub(crate) struct ScatterOutcome {
    set: PartialSet,
    stats: StepStats,
    /// Partial-result honesty: `degraded`, with the lost shards named
    /// `archive@host`, when a drop-out step lost whole extents but was
    /// answered from the rest (re-planning walks only).
    degradation: Degradation,
    /// `(primary host, table version)` of every extent that answered —
    /// an extent served by a replica is named by its primary, the stable
    /// group identity the registry's version snapshot is keyed on.
    versions: Vec<(String, u64)>,
}

/// Outcome of serving one extent from its replica group during a
/// scatter: the winning reply (or final error) plus the failover/hedge
/// book-keeping the Portal folds into the step's statistics.
#[derive(Default)]
struct ExtentOutcome {
    result: Option<Result<(PartialSet, StatsChain, u64)>>,
    failovers: usize,
    hedges: usize,
    hedge_wins: usize,
}

impl Portal {
    /// Scatters one step (`idx`, the tail of `plan.steps`) to its owning
    /// shards in parallel and gathers the replies into one merged
    /// partial set plus the step's merged statistics; an unsharded
    /// archive is the one-extent case. Each extent is served by one
    /// replica of its group: the first healthy candidate in
    /// deterministic `(extent, host)` order is probed, a reply slower
    /// than the configured hedge delay races a duplicate probe against
    /// the first untried sibling (first response wins; the loser is
    /// discarded before the gather, so no duplicate rows can merge), and
    /// an unhealthy verdict fails over through the remaining siblings
    /// before the step is allowed to fail.
    pub(crate) fn scatter_step(
        &self,
        plan: &ExecutionPlan,
        idx: usize,
        input: Option<&PartialSet>,
        replan: bool,
        trace: &mut ExecutionTrace,
    ) -> Result<ScatterOutcome> {
        let step = &plan.steps[idx];
        // One entry per extent: the primary scatter target plus its
        // same-extent replicas (failover/hedge candidates).
        let mut targets: Vec<(Url, Vec<Url>)> = if step.shards.is_empty() {
            vec![(step.url.clone(), Vec::new())]
        } else {
            step.shards
                .iter()
                .map(|s| (s.url.clone(), s.replicas.clone()))
                .collect()
        };
        let multi = targets.len() > 1;
        let dropout = step.dropout;

        // Extent-prune the fan-out: a shard whose declination range
        // cannot intersect any of the input tuples' probe balls is
        // guaranteed to contribute nothing — no extensions on a match
        // step, no dropped tuples on a drop-out step — so skipping the
        // call is byte-identical. Seed steps (no input) always scatter
        // to every shard. At least one target is always kept so the
        // merge sees a well-formed (possibly empty) shard reply.
        let mut shards_pruned = 0usize;
        if multi {
            if let Some(input) = input {
                let span = probe_dec_span(input, plan.threshold, step.sigma_arcsec);
                let mut keep = Vec::with_capacity(targets.len());
                for shard in &step.shards {
                    keep.push(span.is_some_and(|(lo, hi)| {
                        shard.extent.dec_lo_deg <= hi && shard.extent.dec_hi_deg >= lo
                    }));
                }
                if keep.iter().all(|k| !k) {
                    keep[0] = true;
                }
                let mut it = keep.iter();
                targets.retain(|_| *it.next().expect("keep covers targets"));
                shards_pruned = keep.iter().filter(|k| !**k).count();
            }
        }

        // When scattered, a non-drop-out step additionally carries the
        // shard table's rank column so the gather can restore the
        // single-node output order; the input set is tagged with each
        // tuple's index for the same reason.
        let mut wire_plan = plan.clone();
        if multi && !dropout {
            wire_plan.steps[idx]
                .carried
                .push(shard::RANK_COL.to_string());
        }
        let input_table = input.map(|set| {
            if multi {
                shard::tag_with_src(set).to_votable()
            } else {
                set.to_votable()
            }
        });
        // One call body per step: every extent, hedge and failover is
        // sent these bytes.
        let call = &portal_step_call(&wire_plan, idx, None, input_table);

        let net = &self.net;
        let host = &self.host;
        let wire = &wire_plan;
        let hedge_delay = self.config().hedge_delay_s;

        // One probe attempt against one replica, with health
        // book-keeping and the simulated-time cost of the exchange
        // (what the hedge decision races against).
        let probe = |url: &Url| -> (Result<(PartialSet, StatsChain, u64)>, f64) {
            let t0 = net.now_s();
            let r = invoke_portal_step(net, host, url, wire, call);
            let elapsed = net.now_s() - t0;
            self.observe(&url.host, &r);
            (r, elapsed)
        };

        // Serves one extent from its replica group: healthy-first pick,
        // optional hedge, then failover through the untried siblings on
        // unhealthy verdicts. Replicas hold identical data, so whichever
        // one answers yields byte-identical rows. Non-unhealthy errors
        // (a malformed body surviving its retry budget, a planning
        // error) stay fatal: failing over past a poisoned reply would
        // mask corruption, not route around an outage.
        let serve_extent = |primary: &Url, replicas: &[Url]| -> ExtentOutcome {
            let mut candidates: Vec<&Url> = Vec::with_capacity(1 + replicas.len());
            candidates.push(primary);
            candidates.extend(replicas.iter());
            let pick = candidates
                .iter()
                .position(|u| !self.host_is_unhealthy(&u.host))
                .unwrap_or(0);
            let picked = candidates.remove(pick);
            candidates.insert(0, picked);

            let mut out = ExtentOutcome::default();
            let (mut r, elapsed) = probe(candidates[0]);
            let mut tried = 1;
            if hedge_delay > 0.0 && elapsed >= hedge_delay && candidates.len() > 1 {
                // The picked replica was slower than the hedge delay:
                // model a duplicate probe issued at `hedge_delay` racing
                // the (already-measured) straggler; first response wins
                // and the loser is dropped here, before the gather.
                out.hedges += 1;
                net.record_node_event(host, "hedge");
                let sibling = candidates[1];
                tried = 2;
                let (r2, sibling_elapsed) = probe(sibling);
                let sibling_wins = match (&r, &r2) {
                    (Err(_), Ok(_)) => true,
                    (Ok(_), Ok(_)) => hedge_delay + sibling_elapsed < elapsed,
                    _ => false,
                };
                if sibling_wins {
                    r = r2;
                    out.hedge_wins += 1;
                }
            }
            while matches!(r, Err(FederationError::NodeUnhealthy { .. }))
                && tried < candidates.len()
            {
                let next = candidates[tried];
                tried += 1;
                out.failovers += 1;
                net.record_node_event(host, "failover");
                r = probe(next).0;
            }
            out.result = Some(r);
            out
        };
        let serve_extent = &serve_extent;

        let outcomes: Vec<ExtentOutcome> = if multi {
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|(primary, replicas)| scope.spawn(move || serve_extent(primary, replicas)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect()
            })
        } else {
            targets
                .iter()
                .map(|(primary, replicas)| serve_extent(primary, replicas))
                .collect()
        };

        let mut parts: Vec<(PartialSet, StepStats)> = Vec::new();
        let mut versions: Vec<(String, u64)> = Vec::new();
        let mut errs: Vec<(String, FederationError)> = Vec::new();
        let (mut failovers, mut hedges, mut hedge_wins) = (0usize, 0usize, 0usize);
        for ((primary, _), o) in targets.iter().zip(outcomes) {
            failovers += o.failovers;
            hedges += o.hedges;
            hedge_wins += o.hedge_wins;
            match o.result.expect("every extent produced an outcome") {
                Ok((set, chain, version)) => {
                    let st = chain
                        .entries
                        .into_iter()
                        .next()
                        .map(|(_, s)| s)
                        .unwrap_or_default();
                    parts.push((set, st));
                    versions.push((primary.host.clone(), version));
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

        let (set, mut stats) = if !multi {
            parts.into_iter().next().expect("one target answered")
        } else if input.is_none() {
            shard::merge_seed(&parts, &step.alias)?
        } else if dropout {
            shard::merge_dropout(&parts)?
        } else {
            shard::merge_match(&parts, &step.alias)?
        };
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

/// The union of the input tuples' probe-ball declination spans, in
/// degrees, padded with the same slack the zone kernels use for band
/// selection. `None` when no tuple has a probe ball — nothing can match
/// at any shard.
fn probe_dec_span(input: &PartialSet, threshold: f64, sigma_arcsec: f64) -> Option<(f64, f64)> {
    let sigma_rad = (sigma_arcsec / 3600.0).to_radians();
    let mut span: Option<(f64, f64)> = None;
    for tuple in &input.tuples {
        let Some(best) = tuple.state.best_position() else {
            continue;
        };
        let dec = SkyPoint::from_vec3(best).dec_deg;
        let r_deg = tuple.state.search_radius(threshold, sigma_rad).to_degrees() + 1e-9;
        let (lo, hi) = (dec - r_deg, dec + r_deg);
        span = Some(match span {
            None => (lo, hi),
            Some((a, b)) => (a.min(lo), b.max(hi)),
        });
    }
    span
}
