//! The zone-partitioned parallel cross-match engine.
//!
//! The engine reproduces the sequential stored-procedure steps *exactly* —
//! same output tuples, same order, same statistics — while running the
//! per-tuple kernels concurrently:
//!
//! 1. incoming tuples are bucketed into declination zones by their
//!    maximum-likelihood position (a match step first round-trips them
//!    through the §5.3 temp table, sharing the sequential path's schema
//!    conformance);
//! 2. each zone task gets a probing mode: with the default columnar
//!    kernel, the archive's shared [`ColumnarPositions`] layout (built
//!    once, zone ranges scanned directly); with the HTM kernel, a private
//!    HTM index built over the archive rows inside the task's padded
//!    declination band — either way workers need only shared `&Table`
//!    access;
//! 3. a crossbeam scoped worker pool pulls tasks off an atomic cursor and
//!    runs the shared match / drop-out kernels from `skyquery_core::xmatch`
//!    against a per-worker `ZoneProber` whose scratch buffers stay warm
//!    across tasks;
//! 4. outcomes are merged back into incoming-tuple order.
//!
//! Equality with the sequential engine holds because the HTM cover of a
//! probe ball depends only on the mesh (identical at both index scales),
//! full-cover rows are geometrically guaranteed to lie inside the padded
//! band, and partial-cover rows are verified by the same distance test —
//! so every tuple sees the identical candidate hit list it would have seen
//! against the full-table index. The columnar mode's zone-range scan is
//! held to the same contract: every hit is verified by the exact distance
//! test, so both modes produce the identical hit list for every probe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use skyquery_core::engine::CrossMatchEngine;
use skyquery_core::error::{FederationError, Result};
use skyquery_core::xmatch::{
    decode_materialized, dropout_step, extend_tuple_staged, match_step, materialize_temp,
    probe_ball, tuple_has_counterpart, MatchKernel, PartialSet, PartialTuple, StepConfig,
    StepContext, StepStats,
};
use skyquery_htm::SkyPoint;
use skyquery_storage::{
    resolve_range_candidates_into, ColumnarPositions, Database, HtmPositionIndex, ProbeScratch,
    ProbeStats, RangeSearchHit, Table, Value,
};

use crate::merge::{merge_match, zone_reports, TupleOutcome, ZoneReport};
use crate::partition::{partition, sorted_declinations, TupleProbe, ZoneTask};
use crate::zonemap::ZoneMap;

/// A [`CrossMatchEngine`] running match and drop-out steps across a pool
/// of zone workers. With `xmatch_workers <= 1` (the default federation
/// configuration) every step delegates to the sequential kernels, so
/// installing the engine unconditionally is safe.
#[derive(Debug, Default)]
pub struct ZoneEngine {
    /// Per-zone summaries of the most recent partitioned step.
    last_reports: Mutex<Vec<ZoneReport>>,
}

/// The step kinds that receive an incoming set (the seed step has none,
/// so it always runs the sequential kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// Extend incoming tuples with this archive's counterparts.
    Match,
    /// Drop incoming tuples that have a counterpart here (`!` archives).
    Dropout,
}

impl ZoneEngine {
    /// Creates the engine.
    pub fn new() -> ZoneEngine {
        ZoneEngine::default()
    }

    /// Per-zone summaries of the most recent partitioned step (empty
    /// until the engine has run a parallel step). Diagnostics only.
    pub fn last_zone_reports(&self) -> Vec<ZoneReport> {
        self.last_reports.lock().expect("reports lock").clone()
    }

    /// The zone step routine, for either step kind: partition the
    /// incoming tuples into declination zones, run the zone tasks on the
    /// worker pool, and merge the outcomes back into incoming-tuple order,
    /// summing per-tuple probe counts into the statistics.
    fn zone_step(
        &self,
        db: &mut Database,
        cfg: &StepConfig,
        kind: StepKind,
        incoming: &PartialSet,
    ) -> Result<(PartialSet, StepStats)> {
        let ctx = StepContext::new(db, cfg)?;
        let decs = sorted_declinations(db.table(&cfg.table)?, ctx.dec_ci);
        let map = ZoneMap::new(cfg.zone_height_deg);
        // A match step round-trips the set through the §5.3 temp table so
        // the carried values it copies into its extensions see the
        // sequential path's schema conformance; a drop-out step emits its
        // input tuples untouched and needs no copy.
        let temp_rows = match kind {
            StepKind::Match => {
                let temp = materialize_temp(db, incoming)?;
                let rows = db.table(&temp)?.rows().to_vec();
                db.drop_table(&temp)?;
                rows
            }
            StepKind::Dropout => Vec::new(),
        };
        if cfg.kernel == MatchKernel::Columnar {
            // A cheap no-op once built, until an insert invalidates it.
            db.ensure_columnar(&cfg.table, cfg.zone_height_deg)
                .map_err(FederationError::Storage)?;
        }
        let table = db.table(&cfg.table)?;
        // The HTM kernel builds private zone-local indexes instead.
        let columnar = match cfg.kernel {
            MatchKernel::Columnar => db.columnar_positions(&cfg.table),
            MatchKernel::Htm => None,
        };

        // Tuples with no defined best position cannot be extended and
        // silently leave the chain.
        let mut probes = Vec::new();
        let mut degenerate = 0usize;
        for (index, tuple) in incoming.tuples.iter().enumerate() {
            match probe_ball(&tuple.state, cfg) {
                Some((center, radius_rad)) => probes.push(TupleProbe {
                    index,
                    center,
                    radius_rad,
                }),
                None => degenerate += 1,
            }
        }
        let plan = partition(&map, probes, &decs, degenerate);

        let outcomes = run_zone_tasks(
            table,
            &ctx,
            columnar,
            &plan.tasks,
            cfg.xmatch_workers,
            &|probe: &TupleProbe, prober: &mut ZoneProber<'_>| match kind {
                StepKind::Match => {
                    let (state, carried) = decode_materialized(&temp_rows[probe.index]);
                    let mut extensions = Vec::new();
                    let (hits, staging) = prober.parts();
                    let accepted = extend_tuple_staged(
                        cfg,
                        &ctx,
                        table,
                        &state,
                        carried,
                        hits,
                        staging,
                        &mut extensions,
                    )?;
                    Ok((accepted, extensions))
                }
                StepKind::Dropout => {
                    let tuple = &incoming.tuples[probe.index];
                    let found =
                        tuple_has_counterpart(cfg, &ctx, table, &tuple.state, prober.hits())?;
                    // A kept tuple passes through unchanged; a dropped
                    // one contributes nothing.
                    let kept = if found {
                        Vec::new()
                    } else {
                        vec![tuple.clone()]
                    };
                    Ok((usize::from(found), kept))
                }
            },
        )?;
        *self.last_reports.lock().expect("reports lock") = zone_reports(&plan.tasks);
        let mut columns = incoming.columns.clone();
        if kind == StepKind::Match {
            columns.extend(ctx.appended.iter().cloned());
        }
        Ok(merge_match(columns, incoming.tuples.len(), outcomes))
    }
}

impl CrossMatchEngine for ZoneEngine {
    fn name(&self) -> &str {
        "zones"
    }

    fn match_tuples(
        &self,
        db: &mut Database,
        cfg: &StepConfig,
        incoming: &PartialSet,
    ) -> Result<(PartialSet, StepStats)> {
        if cfg.xmatch_workers <= 1 {
            return match_step(db, cfg, incoming);
        }
        self.zone_step(db, cfg, StepKind::Match, incoming)
    }

    fn dropout(
        &self,
        db: &mut Database,
        cfg: &StepConfig,
        incoming: &PartialSet,
    ) -> Result<(PartialSet, StepStats)> {
        if cfg.xmatch_workers <= 1 {
            return dropout_step(db, cfg, incoming);
        }
        self.zone_step(db, cfg, StepKind::Dropout, incoming)
    }
}

/// Per-worker probing state handed to the zone step kernels: the probing
/// mode (a private zone-local HTM index, or the shared archive-wide
/// columnar layout) plus the worker's reusable scratch buffers. Both
/// modes fill the same scratch hit buffer with the identical verified
/// hit list — exact distance test, `sep <= radius + 1e-15`, sorted by
/// row id — so the choice of mode can never change step output.
struct ZoneProber<'a> {
    mode: ProberMode<'a>,
    table: &'a Table,
    ra_ci: usize,
    dec_ci: usize,
    scratch: &'a mut ProbeScratch,
}

enum ProberMode<'a> {
    /// A private HTM index over the zone's padded declination band.
    Htm(HtmPositionIndex),
    /// The archive-wide columnar layout, shared read-only across workers.
    Columnar(&'a ColumnarPositions),
}

impl ZoneProber<'_> {
    /// Fills the scratch hit buffer with the verified candidates inside
    /// the probe ball and returns the kernel counters.
    fn probe(&mut self, center: SkyPoint, radius_rad: f64) -> Result<ProbeStats> {
        match &mut self.mode {
            ProberMode::Htm(index) => {
                let cands = index.search_sorted(center, radius_rad);
                resolve_range_candidates_into(
                    self.table,
                    self.ra_ci,
                    self.dec_ci,
                    center,
                    radius_rad,
                    &cands,
                    self.scratch.hits_mut(),
                )
                .map_err(FederationError::Storage)?;
                // The HTM path allocates the candidate cover per probe, so
                // it never reports a zero-allocation probe — mirroring the
                // sequential HTM arm, whose scratch_reuse is always zero.
                Ok(ProbeStats {
                    examined: cands.len(),
                    reused: false,
                })
            }
            ProberMode::Columnar(cols) => Ok(cols.probe(center, radius_rad, self.scratch)),
        }
    }

    /// The verified hits of the most recent probe, sorted by row id.
    fn hits(&self) -> &[RangeSearchHit] {
        self.scratch.hits()
    }

    /// The hits plus the carried-value staging buffer, for feeding
    /// `extend_tuple_staged` without per-tuple allocation.
    fn parts(&mut self) -> (&[RangeSearchHit], &mut Vec<Value>) {
        self.scratch.parts()
    }
}

/// Runs zone tasks on a scoped worker pool. Workers pull tasks off an
/// atomic cursor (cheap dynamic load balancing — dense zones near the
/// galactic plane can be arbitrarily heavier than sparse ones), set up
/// the task's probing mode — the shared columnar layout when one is
/// supplied, otherwise a private zone-local HTM index — then probe each
/// of the task's tuples and hand the [`ZoneProber`] holding its hits to
/// `step`, which returns how many candidates passed the chi² test and
/// the tuples the step emits for it.
fn run_zone_tasks<K>(
    table: &Table,
    ctx: &StepContext,
    columnar: Option<&ColumnarPositions>,
    tasks: &[ZoneTask],
    workers: usize,
    step: &K,
) -> Result<Vec<TupleOutcome>>
where
    K: Fn(&TupleProbe, &mut ZoneProber<'_>) -> Result<(usize, Vec<PartialTuple>)> + Sync,
{
    let depth = ctx
        .schema
        .position
        .as_ref()
        .expect("cross-match table has a position index")
        .htm_depth;
    let threads = workers.min(tasks.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let worker = || -> Result<Vec<TupleOutcome>> {
        let mut local = Vec::new();
        // One scratch per worker: buffers stay warm across every task the
        // worker pulls, so steady-state probing is allocation-free.
        let mut scratch = ProbeScratch::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(i) else {
                break;
            };
            let mode = match columnar {
                Some(cols) => ProberMode::Columnar(cols),
                None => {
                    let mut index = HtmPositionIndex::new(depth);
                    for &rid in &task.rows {
                        let row = table.row(rid).expect("partitioned row exists");
                        let ra = row[ctx.ra_ci].as_f64().expect("position column");
                        let dec = row[ctx.dec_ci].as_f64().expect("position column");
                        index.insert(SkyPoint::from_radec_deg(ra, dec), rid);
                    }
                    index.ensure_sorted();
                    ProberMode::Htm(index)
                }
            };
            let mut prober = ZoneProber {
                mode,
                table,
                ra_ci: ctx.ra_ci,
                dec_ci: ctx.dec_ci,
                scratch: &mut scratch,
            };
            for probe in &task.probes {
                let pstats = prober.probe(probe.center, probe.radius_rad)?;
                let probed = prober.hits().len();
                let (accepted, extensions) = step(probe, &mut prober)?;
                local.push(TupleOutcome {
                    index: probe.index,
                    probed,
                    examined: pstats.examined,
                    accepted,
                    reused: usize::from(pstats.reused),
                    extensions,
                });
            }
        }
        Ok(local)
    };

    let joined = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(|_| worker())).collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Vec<std::result::Result<_, _>>>()
    })
    .expect("zone worker scope");

    let mut outcomes = Vec::new();
    for result in joined {
        let worker_outcomes = result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        outcomes.extend(worker_outcomes);
    }
    Ok(outcomes)
}
