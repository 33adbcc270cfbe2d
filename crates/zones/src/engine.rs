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
//! Steps 1 and 4 live in [`crate::stream`]: a whole-set step is a
//! streaming session fed one chunk holding every tuple, so there is one
//! copy of the step routine; this module owns the worker pool (steps 2
//! and 3).
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

use skyquery_core::engine::{BufferingIngest, CrossMatchEngine, PartialIngest, StepKind};
use skyquery_core::error::{FederationError, Result};
use skyquery_core::xmatch::{
    dropout_step, match_step, PartialSet, PartialTuple, StepConfig, StepContext, StepStats,
};
use skyquery_core::ResultColumn;
use skyquery_htm::SkyPoint;
use skyquery_storage::{
    resolve_range_candidates_into, ColumnarPositions, Database, HtmPositionIndex, ProbeScratch,
    ProbeStats, RangeSearchHit, Table, Value,
};

use crate::merge::{TupleOutcome, ZoneReport};
use crate::partition::{TupleProbe, ZoneTask};
use crate::stream::ZoneIngest;

/// A [`CrossMatchEngine`] running match and drop-out steps across a pool
/// of zone workers. With `xmatch_workers <= 1` (the default federation
/// configuration) every step delegates to the sequential kernels, so
/// installing the engine unconditionally is safe.
#[derive(Debug, Default)]
pub struct ZoneEngine {
    /// Per-zone summaries of the most recent partitioned step.
    last_reports: Mutex<Vec<ZoneReport>>,
    /// Timing summary of the most recent streaming ingest session.
    last_pipeline: Mutex<Option<crate::stream::PipelineReport>>,
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

    /// Timing summary of the most recent ingest session (`None` until
    /// the engine has run a parallel step). A whole-set step
    /// (`match_tuples` / `dropout` with `xmatch_workers > 1`) runs as a
    /// one-chunk session, so it is reported here too, with `chunks == 1`.
    /// Diagnostics only.
    pub fn last_pipeline_report(&self) -> Option<crate::stream::PipelineReport> {
        *self.last_pipeline.lock().expect("pipeline lock")
    }

    /// Stores a finished session's diagnostics.
    pub(crate) fn record_stream(
        &self,
        reports: Vec<ZoneReport>,
        pipeline: crate::stream::PipelineReport,
    ) {
        *self.last_reports.lock().expect("reports lock") = reports;
        *self.last_pipeline.lock().expect("pipeline lock") = Some(pipeline);
    }

    /// Runs a whole-set step as a streaming session fed one chunk holding
    /// every tuple. Tuple by tuple — statistics included — that is the
    /// same computation (see [`crate::stream`]), so the session is the
    /// only copy of the zone step routine.
    fn one_chunk_session(
        &self,
        db: &mut Database,
        cfg: &StepConfig,
        kind: StepKind,
        incoming: &PartialSet,
    ) -> Result<(PartialSet, StepStats)> {
        let mut session = ZoneIngest::begin(self, db, cfg.clone(), kind, incoming.columns.clone())?;
        session.ingest(db, incoming.tuples.iter().cloned().enumerate().collect())?;
        Box::new(session).finish(db)
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
        self.one_chunk_session(db, cfg, StepKind::Match, incoming)
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
        self.one_chunk_session(db, cfg, StepKind::Dropout, incoming)
    }

    fn begin_partial<'a>(
        &'a self,
        db: &mut Database,
        cfg: &StepConfig,
        kind: StepKind,
        columns: Vec<ResultColumn>,
    ) -> Result<Box<dyn PartialIngest + 'a>> {
        if cfg.xmatch_workers <= 1 {
            // Sequential mode: buffer and delegate, exactly like the
            // default engine.
            return Ok(Box::new(BufferingIngest::new(
                self,
                cfg.clone(),
                kind,
                columns,
            )));
        }
        Ok(Box::new(ZoneIngest::begin(
            self,
            db,
            cfg.clone(),
            kind,
            columns,
        )?))
    }
}

/// Per-worker probing state handed to the zone step kernels: the probing
/// mode (a private zone-local HTM index, or the shared archive-wide
/// columnar layout) plus the worker's reusable scratch buffers. Both
/// modes fill the same scratch hit buffer with the identical verified
/// hit list — exact distance test, `sep <= radius + 1e-15`, sorted by
/// row id — so the choice of mode can never change step output.
pub(crate) struct ZoneProber<'a> {
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
    pub(crate) fn hits(&self) -> &[RangeSearchHit] {
        self.scratch.hits()
    }

    /// The hits plus the carried-value staging buffer, for feeding
    /// `extend_tuple_staged` without per-tuple allocation.
    pub(crate) fn parts(&mut self) -> (&[RangeSearchHit], &mut Vec<Value>) {
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
pub(crate) fn run_zone_tasks<K>(
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
