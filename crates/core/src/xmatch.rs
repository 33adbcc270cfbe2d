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
//! SkyNode upstream, and [`dropout_step`] at `!`-marked archives. The
//! match and drop-out steps are one probe loop: take each incoming
//! tuple's search ball, find the archive rows inside it, test χ², then
//! extend the tuple or drop it. [`MatchKernel`] only picks where the
//! candidate rows come from.

use skyquery_htm::{SkyPoint, Vec3};
use skyquery_sql::{Bindings, Expr, RowBindings, SqlError};
use skyquery_storage::{
    Database, ProbeScratch, Row, ScanOptions, StorageError, TableSchema, Value,
};
use skyquery_xml::{VoCell, VoColumn, VoTable, VoType};

use crate::error::{FederationError, Result};
use crate::query_exec::select_rows;
use crate::region::Region;
use crate::result::{cell_value, vo_cell, vo_columns, votype_to_dtype, ResultColumn};

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

    /// Whether this state can be a sum of weighted unit vectors, as every
    /// honest state is: all four values finite, `a > 0`, and `|â| ≤ a`
    /// (up to rounding). A forged state outside these bounds would buy a
    /// search ball of any size, or silently none.
    fn is_consistent(&self) -> bool {
        [self.a, self.ax, self.ay, self.az]
            .iter()
            .all(|x| x.is_finite())
            && self.a > 0.0
            && self.norm() <= self.a * (1.0 + 1e-9)
    }

    /// The minimized chi-square `2·(a − |â|)` (clamped at 0 against
    /// floating-point cancellation).
    pub fn chi2_min(&self) -> f64 {
        (2.0 * (self.a - self.norm())).max(0.0)
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

/// Name of the wire `PARAM` carrying a set's one `a` = Σ 1/σᵢ².
const A_PARAM: &str = "__a";

/// Names of the per-tuple state columns in the wire encoding.
const STATE_COLS: [&str; 3] = ["__ax", "__ay", "__az"];

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

    /// The set's one `a`, `None` for an empty set. Every tuple of a set
    /// folds the same archives' 1/σᵢ² in the same order, so they agree to
    /// the bit; a set whose tuples differ is refused.
    pub fn a(&self) -> Result<Option<f64>> {
        let mut states = self.tuples.iter().map(|t| t.state.a);
        let a = states.next();
        match states.find(|b| Some(b.to_bits()) != a.map(f64::to_bits)) {
            Some(b) => Err(FederationError::protocol(format!(
                "partial set's tuples carry different __a: {a:?} and {b:?}"
            ))),
            None => Ok(a),
        }
    }

    /// Wire encoding: the set's one [`PartialSet::a`], as the `PARAM`
    /// `__a` (none for an empty set), then three state columns and the
    /// carried columns, each value as its typed cell.
    pub fn to_votable(&self) -> Result<VoTable> {
        let columns = STATE_COLS
            .iter()
            .map(|n| VoColumn::new(*n, VoType::Float))
            .chain(vo_columns(&self.columns))
            .collect();
        let mut t = VoTable::new("partial", columns);
        if let Some(a) = self.a()? {
            let param = VoColumn::new(A_PARAM, VoType::Float);
            t.params.push((param, VoCell::Float(a)));
        }
        t.rows = self
            .tuples
            .iter()
            .map(|tuple| {
                let s = tuple.state;
                let mut cells = Vec::with_capacity(STATE_COLS.len() + tuple.values.len());
                cells.extend([s.ax, s.ay, s.az].map(VoCell::Float));
                cells.extend(tuple.values.iter().map(vo_cell));
                cells
            })
            .collect();
        Ok(t)
    }

    /// Decodes the wire encoding, moving each carried cell's value out
    /// of the table. A set with rows must carry one `__a`, a positive
    /// finite double, and every row's state under it must be a sum of
    /// weighted unit vectors.
    pub fn from_votable(t: VoTable) -> Result<PartialSet> {
        let protocol = FederationError::protocol;
        let a = match &t.params[..] {
            [] if t.rows.is_empty() => 0.0,
            [(p, VoCell::Float(a))] if p.name == A_PARAM && a.is_finite() && *a > 0.0 => *a,
            params => {
                return Err(protocol(format!(
                    "partial-result tuple state needs one positive finite __a PARAM, not {params:?}"
                )))
            }
        };
        let names = t.columns.iter().map(|c| c.name.as_str());
        if !names.take(STATE_COLS.len()).eq(STATE_COLS) || t.column_index(A_PARAM).is_some() {
            return Err(protocol(
                "partial-result table needs __ax/__ay/__az state columns and __a as a PARAM only"
                    .into(),
            ));
        }
        let carried = &t.columns[STATE_COLS.len()..];
        let columns = carried
            .iter()
            .map(|c| ResultColumn::new(c.name.clone(), votype_to_dtype(c.vtype)))
            .collect();
        let mut tuples = Vec::with_capacity(t.rows.len());
        for mut row in t.rows {
            if row.len() != t.columns.len() {
                return Err(protocol(format!(
                    "partial-result row arity {} != {} columns",
                    row.len(),
                    t.columns.len()
                )));
            }
            let cells = row.split_off(STATE_COLS.len());
            let state = match row[..] {
                [VoCell::Float(ax), VoCell::Float(ay), VoCell::Float(az)] => {
                    TupleState { a, ax, ay, az }
                }
                _ => return Err(protocol(format!("state cells {row:?} are not all numeric"))),
            };
            if !state.is_consistent() {
                return Err(protocol(format!(
                    "partial-result tuple state {state:?} is not a sum of weighted unit vectors"
                )));
            }
            tuples.push(PartialTuple {
                state,
                values: cells
                    .into_iter()
                    .zip(carried)
                    .map(|(cell, col)| cell_value(cell, col))
                    .collect::<Result<_>>()?,
            });
        }
        Ok(PartialSet { columns, tuples })
    }
}

/// Selects the candidate source of the match and drop-out steps' one
/// probe loop: which archive rows fall inside a tuple's search ball. The
/// χ² test and the extension or drop-out that follow are shared, so the
/// two kernels agree byte for byte whenever their hit lists do (the
/// parity suite enforces this); the HTM path stays as the oracle in
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchKernel {
    /// Columnar structure-of-arrays zone kernel: declination-zone buckets
    /// with binary-searched RA windows over packed unit vectors, probed
    /// through a reusable scratch (the default).
    #[default]
    Columnar,
    /// HTM position-index walk (the original path).
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

    /// Parses a kernel name; `None` for anything unrecognized, so a plan
    /// naming another kernel is refused.
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
    /// Candidate source of the match/drop-out probe loop. An
    /// oracle/test override; production runs the default.
    pub kernel: MatchKernel,
    /// The first row id the step reads: 0 for the whole table, the
    /// result cache's delta start for a repair probe. Tables are
    /// append-only with sequential row ids, so rows `[from_row..)` are
    /// exactly those inserted since the version a cache entry recorded.
    pub from_row: usize,
}

/// Evaluation statistics for one step (feeds the Figure-3 trace and the
/// pruning experiment E7).
///
/// A node sets six counters, the ones the `StatsChain` wire carries:
/// `tuples_in`, `candidates_probed`, `candidates_examined`,
/// `chi2_accepted`, `scratch_reuse` and `tuples_out`. The Portal sets
/// `shards_pruned`, `failovers`, `hedges` and `hedge_wins` as it scatters
/// a step, and the four `cache_*` counters when a walk ends; the three
/// `tile_*` counters always read 0.
///
/// Equality is kernel-invariant: it compares only the counters that are a
/// pure function of the step's inputs (`tuples_in`, `candidates_probed`,
/// `chi2_accepted`, `tuples_out`). `candidates_examined` depends on the
/// kernel and index granularity, `scratch_reuse` on the kernel's buffers,
/// `shards_pruned` on shard layout, the result-cache counters
/// (`cache_hits`, `cache_misses`, `cache_repairs`, `cache_evictions`) on
/// what earlier submissions left cached, and the replica counters
/// (`failovers`, `hedges`,
/// `hedge_wins`) on which replicas happened to be reachable, so — like
/// `ExecutionTrace` excluding its clock — they are deliberately outside
/// `==`; parity tests can therefore compare stats across kernels, zone
/// heights, cache states, and replica layouts.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Partial tuples received from the previous step.
    pub tuples_in: usize,
    /// Candidate extensions evaluated at this node (rows inside the probe
    /// ball, before the chi² filter).
    pub candidates_probed: usize,
    /// Rows whose exact separation was computed (the kernel's candidate
    /// window: HTM index candidates or columnar zone-window rows).
    pub candidates_examined: usize,
    /// Candidates that passed the chi² threshold (for drop-out steps: the
    /// number of tuples for which a counterpart was found).
    pub chi2_accepted: usize,
    /// Probes that completed without growing the kernel's scratch buffers
    /// — i.e. zero-allocation probes.
    pub scratch_reuse: usize,
    /// Partial tuples forwarded to the next step.
    pub tuples_out: usize,
    /// Always 0 since the batch tile kernel was withdrawn; kept for the
    /// benchmark harness, which reads it, until the harness changes.
    pub tile_builds: usize,
    /// Always 0 since PR 19; kept like `tile_builds`.
    pub tile_decodes: usize,
    /// Always 0 since PR 19; kept like `tile_builds`.
    pub tile_hits: usize,
    /// Scatter-target shards skipped because their declination extent
    /// meets no input tuple's probe ball (Portal-side; scatter steps
    /// only).
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

/// Precomputed per-step lookup state of every step: the step table's
/// schema, its position column indexes, and the qualified columns the
/// step appends. Building it once lets the seed and the probe loop run
/// against a plain `&Table` reference.
struct StepContext {
    /// The step table's schema (cloned out of the database).
    schema: TableSchema,
    /// Column index of the table's right-ascension column.
    ra_ci: usize,
    /// Column index of the table's declination column.
    dec_ci: usize,
    /// Qualified result columns (`alias.column`) this step appends.
    appended: Vec<ResultColumn>,
    /// Column indexes of the carried columns, precomputed so the probe
    /// loop appends values by index instead of by name lookup.
    carried_ci: Vec<usize>,
}

impl StepContext {
    /// Resolves the context for one step against the archive database:
    /// the table must have a position index and every carried column.
    fn new(db: &Database, cfg: &StepConfig) -> Result<StepContext> {
        let schema = db.schema(&cfg.table)?.clone();
        let pos = schema.position.as_ref().ok_or_else(|| {
            FederationError::Storage(StorageError::NoPositionIndex {
                table: cfg.table.clone(),
            })
        })?;
        let ra_ci = schema.column_index(&pos.ra).expect("validated schema");
        let dec_ci = schema.column_index(&pos.dec).expect("validated schema");
        let mut appended = Vec::with_capacity(cfg.carried_columns.len());
        let mut carried_ci = Vec::with_capacity(cfg.carried_columns.len());
        for c in &cfg.carried_columns {
            let ci = schema.column_index(c).ok_or_else(|| {
                FederationError::protocol(format!(
                    "carried column {}.{c} does not exist in table {}",
                    cfg.alias, cfg.table
                ))
            })?;
            let dtype = schema.columns[ci].dtype;
            appended.push(ResultColumn::new(format!("{}.{c}", cfg.alias), dtype));
            carried_ci.push(ci);
        }
        Ok(StepContext {
            schema,
            ra_ci,
            dec_ci,
            appended,
            carried_ci,
        })
    }

    /// The observation position of `row`, as a unit vector.
    fn position(&self, row: &Row) -> Vec3 {
        let ra = row[self.ra_ci].as_f64().expect("position column");
        let dec = row[self.dec_ci].as_f64().expect("position column");
        SkyPoint::from_radec_deg(ra, dec).to_vec3()
    }

    /// `carried` followed by this step's carried columns of `row`,
    /// allocated once at exact capacity.
    fn extend(&self, carried: &[Value], row: &Row) -> Row {
        let mut values = Vec::with_capacity(carried.len() + self.carried_ci.len());
        values.extend_from_slice(carried);
        values.extend(self.carried_ci.iter().map(|&ci| row[ci].clone()));
        values
    }
}

/// The candidate search ball for extending one partial tuple: its
/// maximum-likelihood center and the conservative pruning radius. `None`
/// for a degenerate state with no defined best position — such tuples
/// cannot be extended and silently leave the chain (in both the match and
/// the drop-out step).
fn probe_ball(state: &TupleState, cfg: &StepConfig) -> Option<(SkyPoint, f64)> {
    let best = state.best_position()?;
    Some((
        SkyPoint::from_vec3(best),
        state.search_radius(cfg.threshold, cfg.sigma_rad),
    ))
}

/// The first executed step (at the *last* SkyNode of the plan list):
/// emits a 1-tuple for every row the node's one selection
/// (`query_exec::select_rows`, the Query service's too) keeps under AREA
/// and the local predicate. "The first archive just needs to send
/// 1-tuples comprising of objects that satisfy the other clauses in the
/// query" (§5.4). Only rows at or after `cfg.from_row` are read.
pub fn seed_step(db: &mut Database, cfg: &StepConfig) -> Result<(PartialSet, StepStats)> {
    let ctx = StepContext::new(db, cfg)?;
    let predicates = cfg
        .local_predicate
        .as_ref()
        .map(Expr::conjuncts)
        .unwrap_or_default();
    let (rows, read) = select_rows(
        db,
        &cfg.table,
        &cfg.alias,
        cfg.region.as_ref(),
        &predicates,
        cfg.from_row,
    )?;
    let table = db.table(&cfg.table)?;
    let tuples: Vec<PartialTuple> = rows
        .iter()
        .map(|&rid| {
            let row = table.row(rid).expect("selected row exists");
            PartialTuple {
                state: TupleState::single(ctx.position(row), cfg.sigma_rad),
                values: ctx.extend(&[], row),
            }
        })
        .collect();
    // The seed step has one kernel: every row the selection read is both
    // examined and probed, and the rows it keeps are "accepted".
    let stats = StepStats {
        candidates_probed: read,
        candidates_examined: read,
        chi2_accepted: tuples.len(),
        tuples_out: tuples.len(),
        ..StepStats::default()
    };
    let out = PartialSet {
        columns: ctx.appended,
        tuples,
    };
    Ok((out, stats))
}

/// Filters one probe hit through the step's region and local predicate,
/// returning its observation position when it qualifies (region first,
/// then predicate).
fn qualify_hit(cfg: &StepConfig, ctx: &StepContext, row: &Row) -> Result<Option<Vec3>> {
    let pos = ctx.position(row);
    // The spatial range applies to every archive's objects.
    if let Some(region) = &cfg.region {
        if !region.contains_vec(pos) {
            return Ok(None);
        }
    }
    if let Some(pred) = &cfg.local_predicate {
        let bindings = RowBindings {
            alias: &cfg.alias,
            schema: &ctx.schema,
            row,
        };
        if !pred.eval_predicate(&bindings)? {
            return Ok(None);
        }
    }
    Ok(Some(pos))
}

/// The one probe loop of the match and drop-out steps (§5.4). For each
/// incoming tuple it finds this archive's rows inside the tuple's search
/// ball, keeps those at or after `cfg.from_row`, filters them through
/// [`qualify_hit`] and the χ² threshold (in the hits' row-id order), and
/// then either appends every surviving extension (match) or forwards the
/// tuple unchanged only when none survives (drop-out). `cfg.kernel` only
/// picks the candidate source: the HTM range search (the oracle) or the
/// columnar zone probe. Each output row is allocated once, at exact
/// capacity.
fn probe_step(
    db: &mut Database,
    cfg: &StepConfig,
    incoming: &PartialSet,
    dropout: bool,
) -> Result<(PartialSet, StepStats)> {
    let ctx = StepContext::new(db, cfg)?;
    let mut columns = incoming.columns.clone();
    if !dropout {
        columns.extend(ctx.appended.iter().cloned());
    }
    let mut out = PartialSet::new(columns);
    let mut stats = StepStats {
        tuples_in: incoming.len(),
        ..StepStats::default()
    };
    if cfg.kernel == MatchKernel::Columnar {
        db.ensure_columnar(&cfg.table)
            .map_err(FederationError::Storage)?;
    }
    let mut scratch = ProbeScratch::new();
    for tuple in &incoming.tuples {
        let Some((center, radius)) = probe_ball(&tuple.state, cfg) else {
            continue;
        };
        let htm_hits;
        let hits = match cfg.kernel {
            MatchKernel::Htm => {
                let examined;
                (htm_hits, examined) =
                    db.range_search(&cfg.table, center, radius, ScanOptions::default())?;
                stats.candidates_examined += examined;
                &htm_hits[..]
            }
            MatchKernel::Columnar => {
                let cols = db
                    .columnar_positions(&cfg.table)
                    .expect("ensure_columnar above");
                let probe = cols.probe(center, radius, &mut scratch);
                stats.candidates_examined += probe.examined;
                stats.scratch_reuse += usize::from(probe.reused);
                scratch.hits()
            }
        };
        // Hits ascend by row id, so the step's rows are a suffix.
        let hits = &hits[hits.partition_point(|h| h.row < cfg.from_row)..];
        stats.candidates_probed += hits.len();
        let table = db.table(&cfg.table)?;
        let mut found = false;
        for hit in hits {
            let row = table.row(hit.row).expect("hit row exists");
            let Some(pos) = qualify_hit(cfg, &ctx, row)? else {
                continue;
            };
            let extended = tuple.state.extended(pos, cfg.sigma_rad);
            if extended.chi2_min() <= cfg.threshold * cfg.threshold {
                // Match: one accepted extension; drop-out: one tuple with
                // a counterpart.
                stats.chi2_accepted += 1;
                found = true;
                if dropout {
                    break;
                }
                out.tuples.push(PartialTuple {
                    state: extended,
                    values: ctx.extend(&tuple.values, row),
                });
            }
        }
        if dropout && !found {
            out.tuples.push(tuple.clone());
        }
    }
    stats.tuples_out = out.len();
    Ok((out, stats))
}

/// The match step: extends each incoming tuple with every object of this
/// archive that keeps it within the threshold.
pub fn match_step(
    db: &mut Database,
    cfg: &StepConfig,
    incoming: &PartialSet,
) -> Result<(PartialSet, StepStats)> {
    probe_step(db, cfg, incoming, false)
}

/// The drop-out ("exclusive outer join") step: a tuple survives only if
/// **no** object at this archive could keep it within the threshold.
/// Surviving tuples pass through with state and values unchanged.
pub fn dropout_step(
    db: &mut Database,
    cfg: &StepConfig,
    incoming: &PartialSet,
) -> Result<(PartialSet, StepStats)> {
    probe_step(db, cfg, incoming, true)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::ResultSet;
    use skyquery_sql::parse_expr;
    use skyquery_storage::{BufferCache, ColumnDef, DataType, PositionColumns};

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
            from_row: 0,
        }
    }

    #[test]
    fn single_observation_chi2_is_zero() {
        let p = SkyPoint::from_radec_deg(185.0, -0.5).to_vec3();
        let s = TupleState::single(p, sigma_rad(0.1));
        assert!(s.chi2_min() < 1e-9);
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
        let area = Some(Region::circle(10.0, 10.0, 1.0_f64.to_radians()).unwrap());
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
        let t = seed.to_votable().unwrap();
        let back = PartialSet::from_votable(t).unwrap();
        assert_eq!(back.columns, seed.columns);
        assert_eq!(back.len(), seed.len());
        for (x, y) in back.tuples.iter().zip(&seed.tuples) {
            assert_eq!(x.values, y.values);
            assert!((x.state.a - y.state.a).abs() < 1e-15);
            assert!((x.state.ax - y.state.ax).abs() < 1e-15);
        }
    }

    #[test]
    fn malformed_wire_tuple_states_are_refused() {
        // A decoded state must be a sum of weighted unit vectors: a forged
        // `__a` would otherwise widen every search ball (or empty it), and
        // a non-finite one silently lose the tuple.
        let mut a = archive("A", &[(10.0, 10.0, 1.0), (11.0, 11.0, 2.0)]);
        let (seed, _) = seed_step(&mut a, &cfg("A", 0.3, 3.5)).unwrap();
        // Column 0 is `__a`, the set's one PARAM; the others are the
        // state columns, in every row.
        let with_state = |col: usize, x: f64| {
            let mut t = seed.to_votable().unwrap();
            match col {
                0 => t.params[0].1 = VoCell::Float(x),
                _ => t
                    .rows
                    .iter_mut()
                    .for_each(|row| row[col - 1] = VoCell::Float(x)),
            }
            PartialSet::from_votable(t)
        };
        let names = [A_PARAM, STATE_COLS[0]];
        let forged = [
            (0, 0.0),
            (0, 1e-30),
            (0, f64::NAN),
            (0, f64::INFINITY),
            (0, -1.0),
            (1, f64::NAN),
            (1, f64::INFINITY),
        ];
        for (col, x) in forged {
            match with_state(col, x) {
                Err(FederationError::Protocol { detail }) => {
                    assert!(detail.contains("tuple state"), "{detail}")
                }
                other => panic!("{}={x} decoded to {other:?}", names[col]),
            }
        }
        // A tiny state that is fully self-consistent decodes: without the
        // other archives' σs a node cannot tell it from an honest one.
        let mut t = seed.to_votable().unwrap();
        let k = 1e-30 / seed.tuples[0].state.a;
        t.params[0].1 = VoCell::Float(1e-30);
        for (row, tuple) in t.rows.iter_mut().zip(&seed.tuples) {
            let s = tuple.state;
            for (cell, x) in row.iter_mut().zip([s.ax, s.ay, s.az]) {
                *cell = VoCell::Float(x * k);
            }
        }
        assert_eq!(PartialSet::from_votable(t).unwrap().len(), seed.len());
    }

    #[test]
    fn malformed_wire_a_param_is_refused() {
        // `__a` travels once per set, as a PARAM: a set with rows must
        // carry exactly one, a positive finite double, and no `__a`
        // column.
        let mut a = archive("A", &[(10.0, 10.0, 1.0), (11.0, 11.0, 2.0)]);
        let (seed, _) = seed_step(&mut a, &cfg("A", 0.3, 3.5)).unwrap();
        let honest = seed.to_votable().unwrap();
        let xml = honest.to_xml();
        let weight = seed.tuples[0].state.a;
        assert!(xml.starts_with(&format!(
            r#"<VOTABLE name="partial"><PARAM name="__a" datatype="double" value="{weight:?}"/><FIELD name="__ax""#
        )));
        fn set_a(t: &mut VoTable, vtype: VoType, value: VoCell) {
            t.params[0] = (VoColumn::new(A_PARAM, vtype), value);
        }
        type Forgery = fn(&mut VoTable);
        let cases: [(&str, Forgery); 9] = [
            ("no __a", |t| t.params.clear()),
            ("two __a", |t| t.params.push(t.params[0].clone())),
            ("NaN", |t| t.params[0].1 = VoCell::Float(f64::NAN)),
            ("infinite", |t| t.params[0].1 = VoCell::Float(f64::INFINITY)),
            ("zero", |t| t.params[0].1 = VoCell::Float(0.0)),
            ("negative", |t| t.params[0].1 = VoCell::Float(-1e12)),
            ("a long", |t| set_a(t, VoType::Int, VoCell::Int(5))),
            ("no value", |t| set_a(t, VoType::Float, VoCell::Null)),
            ("a FIELD too", |t| {
                t.columns.insert(0, VoColumn::new(A_PARAM, VoType::Float));
                for row in &mut t.rows {
                    row.insert(0, VoCell::Float(1e12));
                }
            }),
        ];
        for (what, edit) in cases {
            let mut t = honest.clone();
            edit(&mut t);
            match PartialSet::from_votable(t) {
                Err(FederationError::Protocol { .. }) => {}
                other => panic!("{what}: decoded to {other:?}"),
            }
        }

        // An empty set sends no `__a`, and decodes.
        let empty = PartialSet::new(seed.columns.clone()).to_votable().unwrap();
        assert!(empty.params.is_empty());
        assert!(PartialSet::from_votable(empty).unwrap().is_empty());
    }

    #[test]
    fn a_set_whose_tuples_differ_in_a_is_not_encoded() {
        let mut a = archive("A", &[(10.0, 10.0, 1.0), (11.0, 11.0, 2.0)]);
        let (mut seed, _) = seed_step(&mut a, &cfg("A", 0.3, 3.5)).unwrap();
        let a = seed.tuples[1].state.a;
        seed.tuples[1].state.a = f64::from_bits(a.to_bits() + 1);
        assert!(matches!(
            seed.to_votable(),
            Err(FederationError::Protocol { detail }) if detail.contains("different __a")
        ));
    }

    #[test]
    fn from_votable_rejects_missing_state() {
        let mut rs = ResultSet::new(vec![ResultColumn::new("x", DataType::Float)]);
        rs.push_row(vec![Value::Float(1.0)]).unwrap();
        let t = rs.to_votable("partial");
        assert!(PartialSet::from_votable(t).is_err());
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
        let (mut seed, _) = seed_step(&mut a, &cfg("A", 0.3, 3.5)).unwrap();
        // A degenerate tuple: `ax = ay = az = 0`, so it has no best
        // position and must leave both step kinds under both kernels (a
        // routed scatter sends it to no shard, and `shard::merge_dropout`
        // drops it itself, as a node would).
        let degenerate = Value::Id(999);
        seed.tuples.push(PartialTuple {
            state: TupleState {
                a: 1.0,
                ax: 0.0,
                ay: 0.0,
                az: 0.0,
            },
            values: vec![degenerate.clone()],
        });
        assert_eq!(seed.tuples.last().unwrap().state.best_position(), None);

        let run = |kernel: MatchKernel| {
            let mut b = archive("B", &shifted);
            let mut c = cfg("B", 0.3, 3.5);
            c.kernel = kernel;
            let matched = match_step(&mut b, &c, &seed).unwrap();
            let dropped = dropout_step(&mut b, &c, &seed).unwrap();
            for (set, stats) in [&matched, &dropped] {
                assert_eq!(stats.tuples_in, seed.len(), "{kernel}");
                assert!(
                    set.tuples.iter().all(|t| t.values[0] != degenerate),
                    "{kernel}: the degenerate tuple must leave the chain"
                );
            }
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
