//! The zone step routine, as an incremental (streaming) ingest session.
//!
//! When a chunked partial-result transfer is in flight, the receiving
//! node feeds chunks to the engine as they arrive instead of buffering
//! the whole set. [`ZoneIngest`] is the zone engine's session: each
//! chunk is partitioned into declination zones and run through the zone
//! worker pool *immediately*, overlapping engine work with the remaining
//! `FetchChunk` round-trips. With zone-aware chunking on the sender, a
//! chunk's tuples share a narrow declination range, so the zone-local
//! HTM indexes built per chunk stay small.
//!
//! Byte-identity with a whole-set run holds tuple-by-tuple: a tuple's
//! outcome depends only on its own probe ball and the archive rows
//! within it (the padded band always covers the ball, and hits are
//! verified by exact distance), so processing any subset of tuples in
//! any chunk order and merging outcomes by the tuples' original indices
//! reproduces the whole-set run exactly — including statistics, since
//! per-tuple probe counts are independent too. The engine takes that
//! literally: its whole-set step *is* a session fed one chunk holding
//! every tuple, so this file holds the only copy of the step routine.

use std::time::{Duration, Instant};

use skyquery_core::engine::{PartialIngest, StepKind};
use skyquery_core::error::{FederationError, Result};
use skyquery_core::xmatch::{
    decode_materialized, extend_tuple_staged, materialize_temp, probe_ball, tuple_has_counterpart,
    MatchKernel, PartialSet, PartialTuple, StepConfig, StepContext, StepStats,
};
use skyquery_core::ResultColumn;
use skyquery_storage::Database;

use crate::engine::{run_zone_tasks, ZoneEngine, ZoneProber};
use crate::merge::{merge_match, zone_reports, TupleOutcome, ZoneReport};
use crate::partition::{partition, sorted_declinations, TupleProbe};
use crate::zonemap::ZoneMap;

/// Timing summary of the most recent ingest session: how far ahead of
/// the transfer the zone workers ran. All durations are measured from
/// the session's start (the first chunk's arrival).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Chunks ingested.
    pub chunks: usize,
    /// Tuples ingested across all chunks.
    pub tuples: usize,
    /// Zone tasks executed across all chunks.
    pub zones_processed: usize,
    /// When the first zone task batch completed — the pipelined path has
    /// results this early, while a buffering receiver would still be
    /// fetching chunks.
    pub first_zone_done: Option<Duration>,
    /// When the last chunk was handed to the session.
    pub last_chunk_ingested: Option<Duration>,
    /// When the session finished (merge complete).
    pub finished: Duration,
}

/// The zone engine's [`PartialIngest`] session: partitions and runs each
/// chunk on arrival, merging outcomes by original tuple index at finish.
pub struct ZoneIngest<'a> {
    engine: &'a ZoneEngine,
    cfg: StepConfig,
    kind: StepKind,
    columns_in: Vec<ResultColumn>,
    ctx: StepContext,
    map: ZoneMap,
    /// Sorted archive declinations (with row ids), computed once: every
    /// chunk's zone tasks slice their padded bands out of this.
    decs: Vec<(f64, usize)>,
    /// Outcomes accumulated across chunks, indexed by original position
    /// in the sender's set.
    outcomes: Vec<TupleOutcome>,
    /// Every original index seen, for the dense-permutation check.
    indices_seen: Vec<usize>,
    reports: Vec<ZoneReport>,
    started: Instant,
    chunks: usize,
    zones_processed: usize,
    first_zone_done: Option<Duration>,
    last_chunk_ingested: Option<Duration>,
}

impl<'a> ZoneIngest<'a> {
    /// Opens a session: snapshots the step context and the archive's
    /// declination distribution so per-chunk work is partition + probe.
    pub(crate) fn begin(
        engine: &'a ZoneEngine,
        db: &Database,
        cfg: StepConfig,
        kind: StepKind,
        columns_in: Vec<ResultColumn>,
    ) -> Result<ZoneIngest<'a>> {
        let ctx = StepContext::new(db, &cfg)?;
        let table = db.table(&cfg.table)?;
        let decs = sorted_declinations(table, ctx.dec_ci);
        let map = ZoneMap::new(cfg.zone_height_deg);
        Ok(ZoneIngest {
            engine,
            cfg,
            kind,
            columns_in,
            ctx,
            map,
            decs,
            outcomes: Vec::new(),
            indices_seen: Vec::new(),
            reports: Vec::new(),
            started: Instant::now(),
            chunks: 0,
            zones_processed: 0,
            first_zone_done: None,
            last_chunk_ingested: None,
        })
    }
}

impl PartialIngest for ZoneIngest<'_> {
    fn ingest(&mut self, db: &mut Database, chunk: Vec<(usize, PartialTuple)>) -> Result<()> {
        self.chunks += 1;
        self.last_chunk_ingested = Some(self.started.elapsed());
        if chunk.is_empty() {
            return Ok(());
        }
        let (global, tuples): (Vec<usize>, Vec<PartialTuple>) = chunk.into_iter().unzip();
        self.indices_seen.extend(&global);
        let chunk = PartialSet {
            columns: self.columns_in.clone(),
            tuples,
        };
        // A match step round-trips the chunk through the §5.3 temp table
        // so the carried values it copies into its extensions see the
        // sequential path's schema conformance; a drop-out step emits its
        // input tuples untouched and needs no copy.
        let temp_rows = match self.kind {
            StepKind::Match => {
                let temp = materialize_temp(db, &chunk)?;
                let rows = db.table(&temp)?.rows().to_vec();
                db.drop_table(&temp)?;
                rows
            }
            StepKind::Dropout => Vec::new(),
        };
        if self.cfg.kernel == MatchKernel::Columnar {
            // A cheap no-op unless this is the first chunk or an insert
            // invalidated the snapshot since the last one.
            db.ensure_columnar(&self.cfg.table, self.cfg.zone_height_deg)
                .map_err(FederationError::Storage)?;
        }
        let table = db.table(&self.cfg.table)?;
        // The HTM kernel builds private zone-local indexes instead.
        let columnar = match self.cfg.kernel {
            MatchKernel::Columnar => db.columnar_positions(&self.cfg.table),
            MatchKernel::Htm => None,
        };

        // Probes carry chunk-local indices; tuples with no defined best
        // position cannot be extended and silently leave the chain.
        let mut probes = Vec::new();
        let mut degenerate = 0usize;
        for (index, tuple) in chunk.tuples.iter().enumerate() {
            match probe_ball(&tuple.state, &self.cfg) {
                Some((center, radius_rad)) => probes.push(TupleProbe {
                    index,
                    center,
                    radius_rad,
                }),
                None => degenerate += 1,
            }
        }
        let plan = partition(&self.map, probes, &self.decs, degenerate);
        self.reports.extend(zone_reports(&plan.tasks));

        let (cfg, ctx, kind) = (&self.cfg, &self.ctx, self.kind);
        let outcomes = run_zone_tasks(
            table,
            ctx,
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
                        ctx,
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
                    let tuple = &chunk.tuples[probe.index];
                    let found =
                        tuple_has_counterpart(cfg, ctx, table, &tuple.state, prober.hits())?;
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
        // Back to the sender's numbering.
        self.outcomes
            .extend(outcomes.into_iter().map(|o| TupleOutcome {
                index: global[o.index],
                ..o
            }));
        self.zones_processed += plan.tasks.len();
        if !plan.tasks.is_empty() && self.first_zone_done.is_none() {
            self.first_zone_done = Some(self.started.elapsed());
        }
        Ok(())
    }

    fn finish(self: Box<Self>, _db: &mut Database) -> Result<(PartialSet, StepStats)> {
        let mut this = *self;
        // The accumulated indices must form a dense 0..n — anything else
        // means the transfer dropped or duplicated tuples.
        this.indices_seen.sort_unstable();
        for (expected, index) in this.indices_seen.iter().enumerate() {
            if *index != expected {
                return Err(FederationError::protocol(format!(
                    "incremental transfer is not a permutation of 0..{}: saw index {index} at position {expected}",
                    this.indices_seen.len()
                )));
            }
        }
        let columns = match this.kind {
            StepKind::Match => {
                let mut columns = this.columns_in;
                columns.extend(this.ctx.appended.iter().cloned());
                columns
            }
            StepKind::Dropout => this.columns_in,
        };
        let total = this.indices_seen.len();
        let merged = merge_match(columns, total, this.outcomes);
        this.engine.record_stream(
            this.reports,
            PipelineReport {
                chunks: this.chunks,
                tuples: total,
                zones_processed: this.zones_processed,
                first_zone_done: this.first_zone_done,
                last_chunk_ingested: this.last_chunk_ingested,
                finished: this.started.elapsed(),
            },
        );
        Ok(merged)
    }
}
