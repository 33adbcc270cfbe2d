//! The cross-match algorithm (paper §5.4).
//!
//! Positions are unit vectors; archive `i` measures with circular Gaussian
//! error σᵢ. For a tuple R = (o₁,…,o_k) the algorithm accumulates
//!
//! ```text
//! a  = Σ 1/σᵢ²     aₓ = Σ xᵢ/σᵢ²     a_y = Σ yᵢ/σᵢ²     a_z = Σ zᵢ/σᵢ²
//! ```
//!
//! The maximum-likelihood true position lies along `(aₓ, a_y, a_z)` and
//! the minimized chi-square is `χ²_min = 2·(a − |â|)`. The clause
//! `XMATCH(…) < t` accepts tuples with `χ²_min ≤ t²`.
//!
//! Because each archive adds a non-negative term, `χ²_min` never
//! decreases as the tuple grows — the pruning invariant that lets each
//! SkyNode discard partial tuples early. The per-step candidate search
//! radius uses the Gaussian-combination bound: appending an observation at
//! chord distance `d` from the current best position raises χ² by at
//! least `d²/(σᵢ² + 1/a)`, so candidates beyond
//! `√((t² − χ²)·(σᵢ² + 1/a))` cannot survive.
//!
//! This module is the node-side "stored procedure encoding the cross
//! match algorithm" (§5.3): [`seed_step`] runs at the last SkyNode of the
//! plan list (the first to execute), [`match_step`] at every mandatory
//! SkyNode upstream, and [`dropout_step`] at `!`-marked archives.

use skyquery_htm::{SkyPoint, Vec3};
use skyquery_sql::{Bindings, Expr, RowBindings, SqlError};
use skyquery_storage::{
    ColumnDef, DataType, Database, PositionColumns, ProbeScratch, RangeSearchHit, Row, ScanOptions,
    Table, TableSchema, Value,
};
use skyquery_xml::votable::format_f64;
use skyquery_xml::{VoColumn, VoTable, VoType};

use crate::error::{FederationError, Result};
use crate::region::Region;
use crate::result::{cell_to_value, push_cells, vo_columns, votype_to_dtype, ResultColumn};

/// Multiplicative safety margin on the candidate search radius. Two
/// effects make the bound inexact at f64: the spherical re-normalization
/// perturbs the flat-3D Gaussian merge at O(σ²) relative, and
/// `χ² = 2(a − |â|)` suffers catastrophic cancellation (`a ≈ 10¹²` for
/// sub-arcsecond σ, so χ² carries ~10⁻⁴ absolute noise). The margin plus
/// the absolute slack below keep the pruning strictly conservative; the
/// distributed-vs-centralized property tests guard this.
const RADIUS_SAFETY: f64 = 1.0 + 1e-6;

/// Absolute chord-distance slack added to every search radius
/// (≈ 20 micro-arcseconds).
const RADIUS_SLACK: f64 = 1e-10;

/// Cumulative likelihood state of a partial tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TupleState {
    /// Σ 1/σᵢ².
    pub a: f64,
    /// Σ xᵢ/σᵢ².
    pub ax: f64,
    /// Σ yᵢ/σᵢ².
    pub ay: f64,
    /// Σ zᵢ/σᵢ².
    pub az: f64,
}

impl TupleState {
    /// State of a 1-tuple: a single observation.
    pub fn single(pos: Vec3, sigma_rad: f64) -> TupleState {
        let w = 1.0 / (sigma_rad * sigma_rad);
        TupleState {
            a: w,
            ax: pos.x * w,
            ay: pos.y * w,
            az: pos.z * w,
        }
    }

    /// The state after appending an observation from an archive with
    /// error `sigma_rad`.
    pub fn extended(&self, pos: Vec3, sigma_rad: f64) -> TupleState {
        let w = 1.0 / (sigma_rad * sigma_rad);
        TupleState {
            a: self.a + w,
            ax: self.ax + pos.x * w,
            ay: self.ay + pos.y * w,
            az: self.az + pos.z * w,
        }
    }

    /// |â| = √(aₓ² + a_y² + a_z²).
    fn norm(&self) -> f64 {
        (self.ax * self.ax + self.ay * self.ay + self.az * self.az).sqrt()
    }

    /// The minimized chi-square `2·(a − |â|)` (clamped at 0 against
    /// floating-point cancellation).
    pub fn chi2_min(&self) -> f64 {
        (2.0 * (self.a - self.norm())).max(0.0)
    }

    /// The log-likelihood at the best position, `−a + |â|` (the paper's
    /// form; equals `−χ²_min/2`).
    pub fn log_likelihood(&self) -> f64 {
        -self.a + self.norm()
    }

    /// The maximum-likelihood position: the unit vector along
    /// `(aₓ, a_y, a_z)`.
    pub fn best_position(&self) -> Option<Vec3> {
        Vec3::new(self.ax, self.ay, self.az).normalized()
    }

    /// Conservative chord-distance radius for candidate retrieval at the
    /// next archive: beyond it, no candidate can keep χ² within `t²`.
    pub fn search_radius(&self, threshold: f64, next_sigma_rad: f64) -> f64 {
        let budget = (threshold * threshold - self.chi2_min() + 1e-3).max(0.0);
        (budget * (next_sigma_rad * next_sigma_rad + 1.0 / self.a)).sqrt() * RADIUS_SAFETY
            + RADIUS_SLACK
    }
}

/// A partial tuple: cumulative state plus the carried column values.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialTuple {
    /// Cumulative likelihood state.
    pub state: TupleState,
    /// Carried column values, matching the owning set's `columns`.
    pub values: Row,
}

/// A set of partial tuples with their (qualified) column schema — the
/// payload that daisy-chains between SkyNodes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialSet {
    /// Qualified columns (`alias.column`) accumulated so far.
    pub columns: Vec<ResultColumn>,
    /// The surviving partial tuples.
    pub tuples: Vec<PartialTuple>,
}

/// Names of the synthetic state columns in the wire encoding.
const STATE_COLS: [&str; 4] = ["__a", "__ax", "__ay", "__az"];

impl PartialSet {
    /// An empty set with the given carried columns.
    pub fn new(columns: Vec<ResultColumn>) -> PartialSet {
        PartialSet {
            columns,
            tuples: Vec::new(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether no tuples survive.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Wire encoding: four state columns then the carried columns.
    pub fn to_votable(&self) -> VoTable {
        let columns = STATE_COLS
            .iter()
            .map(|n| VoColumn::new(*n, VoType::Float))
            .chain(vo_columns(&self.columns))
            .collect();
        let mut t = VoTable::new("partial", columns);
        let carried = &t.columns[STATE_COLS.len()..];
        t.rows = self
            .tuples
            .iter()
            .map(|tuple| {
                let s = tuple.state;
                let mut cells = Vec::with_capacity(STATE_COLS.len() + carried.len());
                cells.extend([s.a, s.ax, s.ay, s.az].map(|x| Some(format_f64(x))));
                push_cells(&mut cells, &tuple.values, carried).expect("state+values match columns");
                cells
            })
            .collect();
        t
    }

    /// Decodes the wire encoding.
    pub fn from_votable(t: &VoTable) -> Result<PartialSet> {
        let names = t.columns.iter().map(|c| c.name.as_str());
        if !names.take(STATE_COLS.len()).eq(STATE_COLS) {
            return Err(FederationError::protocol(
                "partial-result table missing __a/__ax/__ay/__az state columns",
            ));
        }
        let (state_cols, carried) = t.columns.split_at(STATE_COLS.len());
        let columns = carried
            .iter()
            .map(|c| ResultColumn::new(c.name.clone(), votype_to_dtype(c.vtype)))
            .collect();
        let mut tuples = Vec::with_capacity(t.rows.len());
        for row in &t.rows {
            if row.len() != t.columns.len() {
                return Err(FederationError::protocol(format!(
                    "partial-result row arity {} != {} columns",
                    row.len(),
                    t.columns.len()
                )));
            }
            let (state_cells, cells) = row.split_at(STATE_COLS.len());
            let mut state = [0.0; 4];
            for ((x, cell), col) in state.iter_mut().zip(state_cells).zip(state_cols) {
                *x = cell_to_value(cell.as_deref(), col.vtype)?
                    .as_f64()
                    .ok_or_else(|| {
                        FederationError::protocol(format!(
                            "state column {} is not numeric",
                            col.name
                        ))
                    })?;
            }
            let [a, ax, ay, az] = state;
            tuples.push(PartialTuple {
                state: TupleState { a, ax, ay, az },
                values: cells
                    .iter()
                    .zip(carried)
                    .map(|(cell, col)| cell_to_value(cell.as_deref(), col.vtype))
                    .collect::<Result<_>>()?,
            });
        }
        Ok(PartialSet { columns, tuples })
    }
}

/// Selects the candidate-probe implementation for the match and drop-out
/// steps. Both kernels are byte-identical on outputs (the parity suite
/// enforces this); the HTM path stays as the region-query engine and as
/// the oracle in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchKernel {
    /// Columnar structure-of-arrays zone kernel: declination-zone buckets
    /// with binary-searched RA windows over packed unit vectors, probed
    /// through a reusable scratch (the default).
    #[default]
    Columnar,
    /// HTM trixel cover plus candidate walk (the original path).
    Htm,
}

impl MatchKernel {
    /// Canonical lowercase name (`columnar` / `htm`), used by the plan
    /// wire format.
    pub fn as_str(&self) -> &'static str {
        match self {
            MatchKernel::Columnar => "columnar",
            MatchKernel::Htm => "htm",
        }
    }

    /// Parses a kernel name; `None` for anything unrecognized — including
    /// `batch`, the tile kernel withdrawn in PR 19, so an older peer's
    /// plan decodes onto the default.
    pub fn parse(s: &str) -> Option<MatchKernel> {
        match s {
            "columnar" => Some(MatchKernel::Columnar),
            "htm" => Some(MatchKernel::Htm),
            _ => None,
        }
    }
}

impl std::fmt::Display for MatchKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-node configuration of one cross-match step, extracted from the
/// federated execution plan.
#[derive(Debug, Clone)]
pub struct StepConfig {
    /// The alias this archive carries in the user query.
    pub alias: String,
    /// The primary table to search at this node.
    pub table: String,
    /// This survey's positional error, radians.
    pub sigma_rad: f64,
    /// XMATCH threshold `t` (standard deviations).
    pub threshold: f64,
    /// The AREA/POLYGON clause, if any.
    pub region: Option<Region>,
    /// This archive's local (single-alias) predicate.
    pub local_predicate: Option<Expr>,
    /// Columns of this archive to append to surviving tuples.
    pub carried_columns: Vec<String>,
    /// Candidate-probe kernel for the match/drop-out steps. An
    /// oracle/test override; production runs the default.
    pub kernel: MatchKernel,
}

/// Evaluation statistics for one step (feeds the Figure-3 trace and the
/// pruning experiment E7).
///
/// Equality is engine-invariant: it compares only the counters that are a
/// pure function of the step's inputs (`tuples_in`, `candidates_probed`,
/// `chi2_accepted`, `tuples_out`). `candidates_examined` depends on the
/// kernel and index granularity, `scratch_reuse` on worker scheduling,
/// `shards_pruned` on shard layout, the result-cache counters
/// (`cache_hits`, `cache_misses`, `cache_repairs`, `cache_evictions`) on
/// what earlier submissions left cached, and the replica counters
/// (`failovers`, `hedges`,
/// `hedge_wins`) on which replicas happened to be reachable, so — like
/// `ExecutionTrace` excluding its clock — they are deliberately outside
/// `==`; parity tests can therefore compare stats across kernels, worker
/// counts, cache states, and replica layouts.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Partial tuples received from the previous step.
    pub tuples_in: usize,
    /// Candidate extensions evaluated at this node (rows inside the probe
    /// ball, before the chi² filter).
    pub candidates_probed: usize,
    /// Rows whose exact separation was computed (the kernel's candidate
    /// window: HTM cover entries or columnar zone-window rows).
    pub candidates_examined: usize,
    /// Candidates that passed the chi² threshold (for drop-out steps: the
    /// number of tuples for which a counterpart was found).
    pub chi2_accepted: usize,
    /// Probes that completed without growing the kernel's scratch buffers
    /// — i.e. zero-allocation probes.
    pub scratch_reuse: usize,
    /// Partial tuples forwarded to the next step.
    pub tuples_out: usize,
    /// Always 0 since PR 19 (the batch tile kernel was withdrawn); kept
    /// for the benchmark harness and the `StatsChain` wire, to retire
    /// with them in a `benchmark` PR.
    pub tile_builds: usize,
    /// Always 0 since PR 19; kept like `tile_builds`.
    pub tile_decodes: usize,
    /// Always 0 since PR 19; kept like `tile_builds`.
    pub tile_hits: usize,
    /// Scatter-target shards skipped because their declination extent
    /// cannot intersect the input set's probe span (scatter steps only).
    pub shards_pruned: usize,
    /// Result-cache entries that served this submission without
    /// re-executing its chain (Portal-side; at most 1 per submission).
    pub cache_hits: usize,
    /// Submissions that consulted the result cache and found no valid
    /// entry (Portal-side).
    pub cache_misses: usize,
    /// Stale cache entries repaired incrementally by probing only delta
    /// rows instead of being discarded (Portal-side).
    pub cache_repairs: usize,
    /// Cache entries evicted — lease expiry, capacity pressure, or a
    /// version regression that made repair impossible (Portal-side).
    pub cache_evictions: usize,
    /// Scatter probes re-issued to a sibling replica after the picked
    /// replica proved unhealthy (Portal-side; scatter steps only).
    pub failovers: usize,
    /// Hedged duplicate probes issued because the picked replica's reply
    /// exceeded the configured hedge delay (Portal-side).
    pub hedges: usize,
    /// Hedged probes whose sibling reply won the first-response race
    /// (Portal-side; the duplicate loser is reconciled away).
    pub hedge_wins: usize,
}

impl StepStats {
    /// Folds another step's *work* counters into this one: the counters
    /// that sum whenever partial steps combine (shard gather, cache
    /// repair). `tuples_in`, `tuples_out` and `chi2_accepted` follow a
    /// different rule at each merge and stay with the caller; the
    /// result-cache counters belong to a submission, not a step.
    pub fn add_work(&mut self, other: &StepStats) {
        self.candidates_probed += other.candidates_probed;
        self.candidates_examined += other.candidates_examined;
        self.scratch_reuse += other.scratch_reuse;
        self.tile_builds += other.tile_builds;
        self.tile_decodes += other.tile_decodes;
        self.tile_hits += other.tile_hits;
        self.shards_pruned += other.shards_pruned;
        self.failovers += other.failovers;
        self.hedges += other.hedges;
        self.hedge_wins += other.hedge_wins;
    }
}

impl PartialEq for StepStats {
    fn eq(&self, other: &Self) -> bool {
        self.tuples_in == other.tuples_in
            && self.candidates_probed == other.candidates_probed
            && self.chi2_accepted == other.chi2_accepted
            && self.tuples_out == other.tuples_out
    }
}
impl Eq for StepStats {}

/// Precomputed per-step lookup state shared by the sequential step
/// functions and the parallel zone engine: the step table's schema, its
/// position column indexes, and the qualified columns the step appends.
/// Building it once lets the per-tuple kernels run against plain `&Table`
/// references, so zone workers never touch the database mutably.
#[derive(Debug, Clone)]
pub struct StepContext {
    /// The step table's schema (cloned out of the database).
    pub schema: TableSchema,
    /// Column index of the table's right-ascension column.
    pub ra_ci: usize,
    /// Column index of the table's declination column.
    pub dec_ci: usize,
    /// Qualified result columns (`alias.column`) this step appends.
    pub appended: Vec<ResultColumn>,
    /// Column indexes of the carried columns, precomputed so the match
    /// kernel appends values by index instead of by name lookup.
    pub carried_ci: Vec<usize>,
}

impl StepContext {
    /// Resolves the context for one step against the archive database.
    pub fn new(db: &Database, cfg: &StepConfig) -> Result<StepContext> {
        let (_, ra_ci, dec_ci) = position_columns(db, &cfg.table)?;
        let schema = db.schema(&cfg.table)?.clone();
        let appended = carried_result_columns(cfg, &schema)?;
        let carried_ci = cfg
            .carried_columns
            .iter()
            .map(|c| schema.column_index(c).expect("validated above"))
            .collect();
        Ok(StepContext {
            schema,
            ra_ci,
            dec_ci,
            appended,
            carried_ci,
        })
    }
}

/// The candidate search ball for extending one partial tuple: its
/// maximum-likelihood center and the conservative pruning radius. `None`
/// for a degenerate state with no defined best position — such tuples
/// cannot be extended and silently leave the chain (in both the match and
/// the drop-out step).
pub fn probe_ball(state: &TupleState, cfg: &StepConfig) -> Option<(SkyPoint, f64)> {
    let best = state.best_position()?;
    Some((
        SkyPoint::from_vec3(best),
        state.search_radius(cfg.threshold, cfg.sigma_rad),
    ))
}

fn position_columns(db: &Database, table: &str) -> Result<(PositionColumns, usize, usize)> {
    let schema = db.schema(table)?;
    let pos = schema.position.clone().ok_or_else(|| {
        FederationError::Storage(skyquery_storage::StorageError::NoPositionIndex {
            table: table.to_string(),
        })
    })?;
    let ra_ci = schema.column_index(&pos.ra).unwrap();
    let dec_ci = schema.column_index(&pos.dec).unwrap();
    Ok((pos, ra_ci, dec_ci))
}

fn row_passes(
    cfg: &StepConfig,
    schema: &TableSchema,
    row: &Row,
) -> std::result::Result<bool, SqlError> {
    match &cfg.local_predicate {
        None => Ok(true),
        Some(pred) => pred.eval_predicate(&RowBindings {
            alias: &cfg.alias,
            schema,
            row,
        }),
    }
}

fn carried_result_columns(cfg: &StepConfig, schema: &TableSchema) -> Result<Vec<ResultColumn>> {
    cfg.carried_columns
        .iter()
        .map(|c| {
            let def = schema.column(c).ok_or_else(|| {
                FederationError::protocol(format!(
                    "carried column {}.{c} does not exist in table {}",
                    cfg.alias, cfg.table
                ))
            })?;
            Ok(ResultColumn::new(format!("{}.{}", cfg.alias, c), def.dtype))
        })
        .collect()
}

fn carried_values(cfg: &StepConfig, schema: &TableSchema, row: &Row) -> Row {
    cfg.carried_columns
        .iter()
        .map(|c| row[schema.column_index(c).expect("validated")].clone())
        .collect()
}

/// The first executed step (at the *last* SkyNode of the plan list):
/// selects rows satisfying AREA and the local predicate, emitting
/// 1-tuples. "The first archive just needs to send 1-tuples comprising of
/// objects that satisfy the other clauses in the query" (§5.4).
pub fn seed_step(db: &mut Database, cfg: &StepConfig) -> Result<(PartialSet, StepStats)> {
    let (_, ra_ci, dec_ci) = position_columns(db, &cfg.table)?;
    let schema = db.schema(&cfg.table)?.clone();
    let columns = carried_result_columns(cfg, &schema)?;
    let mut out = PartialSet::new(columns);
    let mut stats = StepStats::default();

    let row_ids: Vec<usize> = match &cfg.region {
        Some(region) => db.region_search(
            &cfg.table,
            &region.as_convex_region(),
            ScanOptions::default(),
        )?,
        None => db.scan_filter(&cfg.table, ScanOptions::default(), |_, _| true)?,
    };
    stats.candidates_probed = row_ids.len();
    // The seed step has one kernel: every selected row is both examined
    // and probed, and the rows passing the local predicate are "accepted".
    stats.candidates_examined = row_ids.len();

    for rid in row_ids {
        let row = db.table(&cfg.table)?.row(rid).expect("row exists").clone();
        if !row_passes(cfg, &schema, &row).map_err(FederationError::Sql)? {
            continue;
        }
        let ra = row[ra_ci].as_f64().expect("position column");
        let dec = row[dec_ci].as_f64().expect("position column");
        let pos = SkyPoint::from_radec_deg(ra, dec).to_vec3();
        out.tuples.push(PartialTuple {
            state: TupleState::single(pos, cfg.sigma_rad),
            values: carried_values(cfg, &schema, &row),
        });
    }
    stats.chi2_accepted = out.len();
    stats.tuples_out = out.len();
    Ok((out, stats))
}

/// Filters one candidate row through the step's region and local
/// predicate, returning its observation position when it qualifies. The
/// order of checks (region, then predicate) is shared by the match and
/// drop-out kernels.
fn qualify_hit(cfg: &StepConfig, ctx: &StepContext, row: &Row) -> Result<Option<Vec3>> {
    let ra = row[ctx.ra_ci].as_f64().expect("position column");
    let dec = row[ctx.dec_ci].as_f64().expect("position column");
    // The spatial range applies to every archive's objects.
    if let Some(region) = &cfg.region {
        if !region.contains(SkyPoint::from_radec_deg(ra, dec)) {
            return Ok(None);
        }
    }
    if !row_passes(cfg, &ctx.schema, row).map_err(FederationError::Sql)? {
        return Ok(None);
    }
    Ok(Some(SkyPoint::from_radec_deg(ra, dec).to_vec3()))
}

/// Match kernel for one partial tuple: evaluates every candidate hit (in
/// the hits' row-id order) and appends the surviving extensions to `out`,
/// returning how many passed the chi² threshold. Runs against a read-only
/// table reference so zone workers can share the archive across threads.
pub fn extend_tuple(
    cfg: &StepConfig,
    ctx: &StepContext,
    table: &Table,
    state: &TupleState,
    carried: &[Value],
    hits: &[RangeSearchHit],
    out: &mut Vec<PartialTuple>,
) -> Result<usize> {
    let mut staging = Vec::new();
    extend_tuple_staged(cfg, ctx, table, state, carried, hits, &mut staging, out)
}

/// [`extend_tuple`] with an external carried-value staging buffer (the
/// columnar kernel's [`ProbeScratch`] supplies one), so a long probe loop
/// stages appended values without per-tuple allocation; the staged values
/// then *move* into the exact-capacity output row.
#[allow(clippy::too_many_arguments)] // extend_tuple plus the staging sink
pub fn extend_tuple_staged(
    cfg: &StepConfig,
    ctx: &StepContext,
    table: &Table,
    state: &TupleState,
    carried: &[Value],
    hits: &[RangeSearchHit],
    staging: &mut Vec<Value>,
    out: &mut Vec<PartialTuple>,
) -> Result<usize> {
    let mut accepted = 0usize;
    for hit in hits {
        let row = table.row(hit.row).expect("hit row exists");
        let Some(pos) = qualify_hit(cfg, ctx, row)? else {
            continue;
        };
        let new_state = state.extended(pos, cfg.sigma_rad);
        if new_state.chi2_min() <= cfg.threshold * cfg.threshold {
            staging.clear();
            for &ci in &ctx.carried_ci {
                staging.push(row[ci].clone());
            }
            let mut values = Vec::with_capacity(carried.len() + staging.len());
            values.extend_from_slice(carried);
            values.append(staging);
            out.push(PartialTuple {
                state: new_state,
                values,
            });
            accepted += 1;
        }
    }
    Ok(accepted)
}

/// Drop-out kernel for one partial tuple: whether any candidate hit would
/// keep the tuple within the threshold (in which case the drop-out step
/// discards it).
pub fn tuple_has_counterpart(
    cfg: &StepConfig,
    ctx: &StepContext,
    table: &Table,
    state: &TupleState,
    hits: &[RangeSearchHit],
) -> Result<bool> {
    for hit in hits {
        let row = table.row(hit.row).expect("hit row exists");
        let Some(pos) = qualify_hit(cfg, ctx, row)? else {
            continue;
        };
        if state.extended(pos, cfg.sigma_rad).chi2_min() <= cfg.threshold * cfg.threshold {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Materializes incoming tuples into a temp table (faithful to §5.3: the
/// Cross match service "insert\[s\] the values in the database object into a
/// temporary table"), then extends each against this archive's objects.
pub fn match_step(
    db: &mut Database,
    cfg: &StepConfig,
    incoming: &PartialSet,
) -> Result<(PartialSet, StepStats)> {
    let ctx = StepContext::new(db, cfg)?;
    let mut columns = incoming.columns.clone();
    columns.extend(ctx.appended.iter().cloned());

    let temp = materialize_temp(db, incoming)?;

    let mut out = PartialSet::new(columns);
    let mut stats = StepStats {
        tuples_in: incoming.len(),
        ..StepStats::default()
    };

    // Walk the temp table (charging the cache like a real join would),
    // recovering each tuple's state and carried values.
    let temp_rows = db.table(&temp)?.rows().to_vec();
    match cfg.kernel {
        MatchKernel::Htm => {
            for trow in &temp_rows {
                let (state, carried) = decode_materialized(trow);
                let Some((center, radius)) = probe_ball(&state, cfg) else {
                    continue;
                };
                let (hits, examined) =
                    db.range_search_counted(&cfg.table, center, radius, ScanOptions::default())?;
                stats.candidates_probed += hits.len();
                stats.candidates_examined += examined;
                stats.chi2_accepted += extend_tuple(
                    cfg,
                    &ctx,
                    db.table(&cfg.table)?,
                    &state,
                    carried,
                    &hits,
                    &mut out.tuples,
                )?;
            }
            db.drop_table(&temp)?;
        }
        MatchKernel::Columnar => {
            // Drop the temp before taking shared borrows; the rows are
            // already copied out.
            db.drop_table(&temp)?;
            db.ensure_columnar(&cfg.table)
                .map_err(FederationError::Storage)?;
            let table = db.table(&cfg.table)?;
            let cols = db
                .columnar_positions(&cfg.table)
                .expect("ensure_columnar above");
            let mut scratch = ProbeScratch::new();
            for trow in &temp_rows {
                let (state, carried) = decode_materialized(trow);
                let Some((center, radius)) = probe_ball(&state, cfg) else {
                    continue;
                };
                let probe = cols.probe(center, radius, &mut scratch);
                stats.candidates_examined += probe.examined;
                stats.scratch_reuse += usize::from(probe.reused);
                let (hits, staging) = scratch.parts();
                stats.candidates_probed += hits.len();
                stats.chi2_accepted += extend_tuple_staged(
                    cfg,
                    &ctx,
                    table,
                    &state,
                    carried,
                    hits,
                    staging,
                    &mut out.tuples,
                )?;
            }
        }
    }
    stats.tuples_out = out.len();
    Ok((out, stats))
}

/// The drop-out ("exclusive outer join") step: a tuple survives only if
/// **no** object at this archive could keep it within the threshold.
/// Surviving tuples pass through with state and values unchanged.
pub fn dropout_step(
    db: &mut Database,
    cfg: &StepConfig,
    incoming: &PartialSet,
) -> Result<(PartialSet, StepStats)> {
    let ctx = StepContext::new(db, cfg)?;
    let mut out = PartialSet::new(incoming.columns.clone());
    let mut stats = StepStats {
        tuples_in: incoming.len(),
        ..StepStats::default()
    };
    match cfg.kernel {
        MatchKernel::Htm => {
            for tuple in &incoming.tuples {
                let Some((center, radius)) = probe_ball(&tuple.state, cfg) else {
                    continue;
                };
                let (hits, examined) =
                    db.range_search_counted(&cfg.table, center, radius, ScanOptions::default())?;
                stats.candidates_probed += hits.len();
                stats.candidates_examined += examined;
                let found =
                    tuple_has_counterpart(cfg, &ctx, db.table(&cfg.table)?, &tuple.state, &hits)?;
                stats.chi2_accepted += usize::from(found);
                if !found {
                    out.tuples.push(tuple.clone());
                }
            }
        }
        MatchKernel::Columnar => {
            db.ensure_columnar(&cfg.table)
                .map_err(FederationError::Storage)?;
            let table = db.table(&cfg.table)?;
            let cols = db
                .columnar_positions(&cfg.table)
                .expect("ensure_columnar above");
            let mut scratch = ProbeScratch::new();
            for tuple in &incoming.tuples {
                let Some((center, radius)) = probe_ball(&tuple.state, cfg) else {
                    continue;
                };
                let probe = cols.probe(center, radius, &mut scratch);
                stats.candidates_examined += probe.examined;
                stats.scratch_reuse += usize::from(probe.reused);
                stats.candidates_probed += scratch.hits().len();
                let found = tuple_has_counterpart(cfg, &ctx, table, &tuple.state, scratch.hits())?;
                stats.chi2_accepted += usize::from(found);
                if !found {
                    out.tuples.push(tuple.clone());
                }
            }
        }
    }
    stats.tuples_out = out.len();
    Ok((out, stats))
}

/// Bindings over a partial tuple's qualified columns, used to evaluate
/// cross-archive residual clauses.
pub struct TupleBindings<'a> {
    /// The partial set's qualified columns.
    pub columns: &'a [ResultColumn],
    /// One tuple's values.
    pub values: &'a Row,
}

impl Bindings for TupleBindings<'_> {
    fn resolve(&self, alias: &str, column: &str) -> std::result::Result<Value, SqlError> {
        let q = format!("{alias}.{column}");
        match self.columns.iter().position(|c| c.name == q) {
            Some(i) => Ok(self.values[i].clone()),
            None => Err(SqlError::eval(format!("column {q} not carried in tuple"))),
        }
    }
}

/// Applies residual (multi-archive) conjuncts to a partial set, keeping
/// tuples where every residual is satisfied.
pub fn apply_residuals(set: PartialSet, residuals: &[Expr]) -> Result<PartialSet> {
    if residuals.is_empty() {
        return Ok(set);
    }
    let columns = set.columns;
    let mut kept = Vec::new();
    for tuple in set.tuples {
        let b = TupleBindings {
            columns: &columns,
            values: &tuple.values,
        };
        let mut ok = true;
        for r in residuals {
            if !r.eval_predicate(&b).map_err(FederationError::Sql)? {
                ok = false;
                break;
            }
        }
        if ok {
            kept.push(tuple);
        }
    }
    Ok(PartialSet {
        columns,
        tuples: kept,
    })
}

/// Inserts a partial set into a temp table (state + carried columns) and
/// returns the table's name. Public so the parallel zone engine can run
/// the same §5.3 materialization — both engines then read tuple values
/// back out of the temp rows, so schema conformance (e.g. numeric
/// coercion on insert) cannot make their outputs diverge.
pub fn materialize_temp(db: &mut Database, set: &PartialSet) -> Result<String> {
    let mut cols: Vec<ColumnDef> = STATE_COLS
        .iter()
        .map(|n| ColumnDef::new(*n, DataType::Float))
        .collect();
    for c in &set.columns {
        cols.push(ColumnDef::new(c.name.clone(), c.dtype).nullable());
    }
    let temp = db.create_temp_table(TableSchema::new("partial", cols))?;
    for t in &set.tuples {
        let mut row = vec![
            Value::Float(t.state.a),
            Value::Float(t.state.ax),
            Value::Float(t.state.ay),
            Value::Float(t.state.az),
        ];
        row.extend(t.values.iter().cloned());
        db.insert(&temp, row)?;
    }
    Ok(temp)
}

/// Splits a materialized temp-table row back into its tuple state and
/// carried values (the inverse of [`materialize_temp`]'s row layout).
pub fn decode_materialized(row: &Row) -> (TupleState, &[Value]) {
    (
        TupleState {
            a: row[0].as_f64().expect("state column"),
            ax: row[1].as_f64().expect("state column"),
            ay: row[2].as_f64().expect("state column"),
            az: row[3].as_f64().expect("state column"),
        },
        &row[4..],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::ResultSet;
    use skyquery_sql::parse_expr;
    use skyquery_storage::BufferCache;

    const ARCSEC: f64 = 1.0 / 3600.0;

    fn sigma_rad(arcsec: f64) -> f64 {
        (arcsec * ARCSEC).to_radians()
    }

    /// Builds an archive database named `name` with objects at the given
    /// (ra, dec, flux) positions.
    fn archive(name: &str, objects: &[(f64, f64, f64)]) -> Database {
        let mut db = Database::with_cache(name, BufferCache::new(1024, 8));
        let schema = TableSchema::new(
            "objects",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
                ColumnDef::new("flux", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 14))
        .unwrap();
        db.create_table(schema).unwrap();
        for (i, &(ra, dec, flux)) in objects.iter().enumerate() {
            db.insert(
                "objects",
                vec![
                    Value::Id(i as u64 + 1),
                    Value::Float(ra),
                    Value::Float(dec),
                    Value::Float(flux),
                ],
            )
            .unwrap();
        }
        db
    }

    fn cfg(alias: &str, sigma_arcsec: f64, threshold: f64) -> StepConfig {
        StepConfig {
            alias: alias.into(),
            table: "objects".into(),
            sigma_rad: sigma_rad(sigma_arcsec),
            threshold,
            region: None,
            local_predicate: None,
            carried_columns: vec!["object_id".into()],
            kernel: MatchKernel::default(),
        }
    }

    #[test]
    fn single_observation_chi2_is_zero() {
        let p = SkyPoint::from_radec_deg(185.0, -0.5).to_vec3();
        let s = TupleState::single(p, sigma_rad(0.1));
        assert!(s.chi2_min() < 1e-9);
        assert!((s.log_likelihood()).abs() < 1e-3);
        let best = s.best_position().unwrap();
        assert!(best.angle_to(p) < 1e-12);
    }

    #[test]
    fn coincident_observations_match_perfectly() {
        let p = SkyPoint::from_radec_deg(100.0, 20.0).to_vec3();
        let s = TupleState::single(p, sigma_rad(0.2)).extended(p, sigma_rad(0.3));
        assert!(s.chi2_min() < 1e-9);
    }

    #[test]
    fn separated_observations_raise_chi2() {
        // Two observations 1 arcsec apart with σ = 0.2 arcsec each:
        // χ² ≈ d²/(σ₁²+σ₂²) = 1/(0.08) = 12.5.
        let p1 = SkyPoint::from_radec_deg(100.0, 20.0).to_vec3();
        let p2 = SkyPoint::from_radec_deg(100.0, 20.0 + ARCSEC).to_vec3();
        let s = TupleState::single(p1, sigma_rad(0.2)).extended(p2, sigma_rad(0.2));
        let expected = 1.0 / 0.08;
        // χ² = 2(a − |â|) with a ≈ 10¹² loses ~5 significant digits to
        // cancellation; 10⁻³ relative is the attainable f64 accuracy here.
        let rel = (s.chi2_min() - expected).abs() / expected;
        assert!(rel < 1e-3, "chi2 {} vs expected {expected}", s.chi2_min());
    }

    #[test]
    fn chi2_is_monotone_in_tuple_length() {
        let p1 = SkyPoint::from_radec_deg(10.0, 10.0).to_vec3();
        let p2 = SkyPoint::from_radec_deg(10.0, 10.0 + 0.4 * ARCSEC).to_vec3();
        let p3 = SkyPoint::from_radec_deg(10.0 + 0.5 * ARCSEC, 10.0).to_vec3();
        let s1 = TupleState::single(p1, sigma_rad(0.3));
        let s2 = s1.extended(p2, sigma_rad(0.25));
        let s3 = s2.extended(p3, sigma_rad(0.5));
        assert!(s1.chi2_min() <= s2.chi2_min() + 1e-12);
        assert!(s2.chi2_min() <= s3.chi2_min() + 1e-12);
    }

    #[test]
    fn symmetric_in_order() {
        // §5.4: "This XMATCH scheme is fully symmetric; the particular
        // order of the archives considered doesn't matter."
        let pts = [
            (
                SkyPoint::from_radec_deg(42.0, -7.0).to_vec3(),
                sigma_rad(0.1),
            ),
            (
                SkyPoint::from_radec_deg(42.0 + 0.2 * ARCSEC, -7.0).to_vec3(),
                sigma_rad(0.35),
            ),
            (
                SkyPoint::from_radec_deg(42.0, -7.0 - 0.3 * ARCSEC).to_vec3(),
                sigma_rad(0.8),
            ),
        ];
        let forward = TupleState::single(pts[0].0, pts[0].1)
            .extended(pts[1].0, pts[1].1)
            .extended(pts[2].0, pts[2].1);
        let backward = TupleState::single(pts[2].0, pts[2].1)
            .extended(pts[1].0, pts[1].1)
            .extended(pts[0].0, pts[0].1);
        assert!((forward.chi2_min() - backward.chi2_min()).abs() < 1e-9);
    }

    #[test]
    fn seed_then_match_finds_pairs() {
        // Archive A: three objects; archive B: counterparts for two of
        // them (within ~0.3 arcsec) plus an unrelated object.
        let mut a = archive(
            "A",
            &[(120.0, 30.0, 5.0), (121.0, 30.0, 6.0), (122.0, 30.0, 7.0)],
        );
        let mut b = archive(
            "B",
            &[
                (120.0 + 0.2 * ARCSEC, 30.0, 1.0),
                (121.0, 30.0 - 0.25 * ARCSEC, 2.0),
                (150.0, -10.0, 3.0),
            ],
        );
        let (seed, st) = seed_step(&mut a, &cfg("A", 0.3, 3.5)).unwrap();
        assert_eq!(seed.len(), 3);
        assert_eq!(st.tuples_out, 3);
        let (matched, st2) = match_step(&mut b, &cfg("B", 0.3, 3.5), &seed).unwrap();
        assert_eq!(st2.tuples_in, 3);
        assert_eq!(matched.len(), 2, "two bodies have counterparts");
        // Carried columns are qualified.
        assert_eq!(
            matched
                .columns
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["A.object_id", "B.object_id"]
        );
    }

    #[test]
    fn tight_threshold_rejects_distant_pairs() {
        let mut a = archive("A", &[(120.0, 30.0, 5.0)]);
        // Counterpart 2 arcsec away, σ = 0.3: χ ≈ 2/0.42 ≈ 4.7σ.
        let mut b = archive("B", &[(120.0 + 2.0 * ARCSEC, 30.0, 1.0)]);
        let (seed, _) = seed_step(&mut a, &cfg("A", 0.3, 3.5)).unwrap();
        let (matched, _) = match_step(&mut b, &cfg("B", 0.3, 3.5), &seed).unwrap();
        assert!(matched.is_empty());
        // A looser threshold accepts it.
        let (seed, _) = seed_step(&mut a, &cfg("A", 0.3, 8.0)).unwrap();
        let (matched, _) = match_step(&mut b, &cfg("B", 0.3, 8.0), &seed).unwrap();
        assert_eq!(matched.len(), 1);
    }

    #[test]
    fn local_predicate_filters_at_node() {
        let mut a = archive("A", &[(10.0, 10.0, 5.0), (11.0, 10.0, 25.0)]);
        let mut c = cfg("A", 0.3, 3.5);
        c.local_predicate = Some(parse_expr("A.flux > 10").unwrap());
        let (seed, _) = seed_step(&mut a, &c).unwrap();
        assert_eq!(seed.len(), 1);
    }

    #[test]
    fn area_clause_limits_seed_and_match() {
        let mut a = archive("A", &[(10.0, 10.0, 1.0), (40.0, 10.0, 1.0)]);
        let mut b = archive("B", &[(10.0, 10.0, 1.0), (40.0, 10.0, 1.0)]);
        let area = Some(Region::Circle {
            center: SkyPoint::from_radec_deg(10.0, 10.0),
            radius_rad: 1.0_f64.to_radians(),
        });
        let mut ca = cfg("A", 0.3, 3.5);
        ca.region = area.clone();
        let mut cb = cfg("B", 0.3, 3.5);
        cb.region = area;
        let (seed, _) = seed_step(&mut a, &ca).unwrap();
        assert_eq!(seed.len(), 1, "only the in-area object seeds");
        let (matched, _) = match_step(&mut b, &cb, &seed).unwrap();
        assert_eq!(matched.len(), 1);
    }

    #[test]
    fn dropout_removes_tuples_with_counterparts() {
        let mut a = archive("A", &[(10.0, 10.0, 1.0), (11.0, 10.0, 1.0)]);
        // Drop-out archive has a counterpart only for the first object.
        let mut p = archive("P", &[(10.0 + 0.1 * ARCSEC, 10.0, 1.0)]);
        let (seed, _) = seed_step(&mut a, &cfg("A", 0.3, 3.5)).unwrap();
        let (survivors, st) = dropout_step(&mut p, &cfg("P", 0.3, 3.5), &seed).unwrap();
        assert_eq!(st.tuples_in, 2);
        assert_eq!(survivors.len(), 1, "tuple with a P counterpart is dropped");
        // The survivor is the object at ra=11.
        assert_eq!(survivors.tuples[0].values[0], Value::Id(2));
        // State unchanged (no extension by a drop-out).
        assert!((survivors.tuples[0].state.chi2_min()).abs() < 1e-12);
    }

    #[test]
    fn distributed_equals_centralized_bruteforce() {
        // Three archives with correlated objects; compare the chain
        // result against an exhaustive N³ evaluation of the same math.
        let bodies = [
            (200.0, -45.0),
            (200.001, -45.0),
            (200.0, -44.999),
            (200.002, -45.002),
        ];
        let jitter = [0.1 * ARCSEC, -0.15 * ARCSEC, 0.2 * ARCSEC, 0.05 * ARCSEC];
        let mk = |shift: f64| -> Vec<(f64, f64, f64)> {
            bodies
                .iter()
                .zip(jitter)
                .map(|(&(ra, dec), j)| (ra + j * shift, dec + j, 1.0))
                .collect()
        };
        let objs_a = mk(1.0);
        let objs_b = mk(-1.0);
        let objs_c = mk(0.5);
        let mut a = archive("A", &objs_a);
        let mut b = archive("B", &objs_b);
        let mut c = archive("C", &objs_c);
        let t = 3.0;
        let sig = [0.2, 0.3, 0.25];

        let (s1, _) = seed_step(&mut a, &cfg("A", sig[0], t)).unwrap();
        let (s2, _) = match_step(&mut b, &cfg("B", sig[1], t), &s1).unwrap();
        let (s3, _) = match_step(&mut c, &cfg("C", sig[2], t), &s2).unwrap();
        let mut distributed: Vec<(u64, u64, u64)> = s3
            .tuples
            .iter()
            .map(|tp| {
                (
                    tp.values[0].as_id().unwrap(),
                    tp.values[1].as_id().unwrap(),
                    tp.values[2].as_id().unwrap(),
                )
            })
            .collect();
        distributed.sort_unstable();

        // Brute force.
        let mut brute = Vec::new();
        for (i, &(ra1, dec1, _)) in objs_a.iter().enumerate() {
            for (j, &(ra2, dec2, _)) in objs_b.iter().enumerate() {
                for (k, &(ra3, dec3, _)) in objs_c.iter().enumerate() {
                    let s = TupleState::single(
                        SkyPoint::from_radec_deg(ra1, dec1).to_vec3(),
                        sigma_rad(sig[0]),
                    )
                    .extended(
                        SkyPoint::from_radec_deg(ra2, dec2).to_vec3(),
                        sigma_rad(sig[1]),
                    )
                    .extended(
                        SkyPoint::from_radec_deg(ra3, dec3).to_vec3(),
                        sigma_rad(sig[2]),
                    );
                    if s.chi2_min() <= t * t {
                        brute.push((i as u64 + 1, j as u64 + 1, k as u64 + 1));
                    }
                }
            }
        }
        brute.sort_unstable();
        assert_eq!(distributed, brute);
        assert!(!distributed.is_empty(), "test should exercise matches");
    }

    #[test]
    fn partial_set_votable_roundtrip() {
        let mut a = archive("A", &[(10.0, 10.0, 1.0), (11.0, 11.0, 2.0)]);
        let mut c = cfg("A", 0.3, 3.5);
        c.carried_columns = vec!["object_id".into(), "flux".into()];
        let (seed, _) = seed_step(&mut a, &c).unwrap();
        let t = seed.to_votable();
        let back = PartialSet::from_votable(&t).unwrap();
        assert_eq!(back.columns, seed.columns);
        assert_eq!(back.len(), seed.len());
        for (x, y) in back.tuples.iter().zip(&seed.tuples) {
            assert_eq!(x.values, y.values);
            assert!((x.state.a - y.state.a).abs() < 1e-15);
            assert!((x.state.ax - y.state.ax).abs() < 1e-15);
        }
    }

    #[test]
    fn from_votable_rejects_missing_state() {
        let mut rs = ResultSet::new(vec![ResultColumn::new("x", DataType::Float)]);
        rs.push_row(vec![Value::Float(1.0)]).unwrap();
        let t = rs.to_votable("partial");
        assert!(PartialSet::from_votable(&t).is_err());
    }

    #[test]
    fn residual_filtering() {
        let columns = vec![
            ResultColumn::new("O.i_flux", DataType::Float),
            ResultColumn::new("T.i_flux", DataType::Float),
        ];
        let p = SkyPoint::from_radec_deg(0.0, 0.0).to_vec3();
        let mk = |o: f64, t: f64| PartialTuple {
            state: TupleState::single(p, sigma_rad(0.2)),
            values: vec![Value::Float(o), Value::Float(t)],
        };
        let set = PartialSet {
            columns,
            tuples: vec![mk(10.0, 5.0), mk(5.0, 4.5), mk(9.0, 2.0)],
        };
        let residual = parse_expr("(O.i_flux - T.i_flux) > 2").unwrap();
        let out = apply_residuals(set, &[residual]).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn residual_referencing_uncarried_column_errors() {
        let set = PartialSet {
            columns: vec![ResultColumn::new("O.x", DataType::Float)],
            tuples: vec![PartialTuple {
                state: TupleState::single(
                    SkyPoint::from_radec_deg(0.0, 0.0).to_vec3(),
                    sigma_rad(0.2),
                ),
                values: vec![Value::Float(1.0)],
            }],
        };
        let residual = parse_expr("O.y > 2").unwrap();
        assert!(apply_residuals(set, &[residual]).is_err());
    }

    #[test]
    fn kernels_agree_on_match_and_dropout() {
        let objs: Vec<(f64, f64, f64)> = (0..40)
            .map(|i| {
                (
                    10.0 + (i as f64 * 0.37) % 2.0,
                    -5.0 + (i as f64 * 0.23) % 2.0,
                    i as f64,
                )
            })
            .collect();
        let shifted: Vec<(f64, f64, f64)> = objs
            .iter()
            .map(|&(ra, dec, f)| (ra + 0.1 * ARCSEC, dec - 0.05 * ARCSEC, f))
            .collect();
        let mut a = archive("A", &objs);
        let (seed, _) = seed_step(&mut a, &cfg("A", 0.3, 3.5)).unwrap();

        let run = |kernel: MatchKernel| {
            let mut b = archive("B", &shifted);
            let mut c = cfg("B", 0.3, 3.5);
            c.kernel = kernel;
            let matched = match_step(&mut b, &c, &seed).unwrap();
            let dropped = dropout_step(&mut b, &c, &seed).unwrap();
            (matched, dropped)
        };
        let columnar = run(MatchKernel::Columnar);
        let htm = run(MatchKernel::Htm);
        assert_eq!(columnar.0, htm.0, "match step must be byte-identical");
        assert_eq!(columnar.1, htm.1, "drop-out step must be byte-identical");
        assert!(!columnar.0 .0.is_empty());
        // The columnar kernel reuses its scratch after the first probe.
        assert!(columnar.0 .1.scratch_reuse > 0);
    }

    #[test]
    fn match_kernel_names_round_trip() {
        for k in [MatchKernel::Columnar, MatchKernel::Htm] {
            assert_eq!(MatchKernel::parse(k.as_str()), Some(k));
            assert_eq!(format!("{k}"), k.as_str());
        }
        assert_eq!(MatchKernel::parse("quadtree"), None);
        assert_eq!(MatchKernel::parse("batch"), None, "withdrawn in PR 19");
        assert_eq!(MatchKernel::default(), MatchKernel::Columnar);
    }

    #[test]
    fn search_radius_shrinks_with_spent_budget() {
        let p = SkyPoint::from_radec_deg(0.0, 0.0).to_vec3();
        let fresh = TupleState::single(p, sigma_rad(0.2));
        let q = SkyPoint::from_radec_deg(0.0, 0.5 * ARCSEC).to_vec3();
        let strained = fresh.extended(q, sigma_rad(0.2));
        let r1 = fresh.search_radius(3.5, sigma_rad(0.2));
        let r2 = strained.search_radius(3.5, sigma_rad(0.2));
        assert!(r2 < r1, "spent chi2 budget must shrink the search radius");
    }
}
