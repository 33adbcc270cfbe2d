//! Incremental repair of a stale result-cache entry: probe only the rows
//! the archives gained since the entry was populated, and splice the
//! delta results into the cached partial sets.

use std::collections::{HashMap, HashSet};

use skyquery_storage::{DataType, Value};

use crate::error::{FederationError, Result};
use crate::plan::ExecutionPlan;
use crate::portal::Portal;
use crate::result::ResultColumn;
use crate::result_cache::{CacheEntry, CachedStep, StepVersion};
use crate::trace::ExecutionTrace;
use crate::xmatch::{PartialSet, PartialTuple, StepStats};

impl Portal {
    /// Repairs a monotonically stale cache entry in place of a cold
    /// run: walking the chain in execution order, each step keeps the
    /// cached outputs whose upstream tuples survived, probes **only
    /// the rows inserted since the cached version** (plus any
    /// freshly-appended upstream tuples, which must see the whole
    /// table) through the node `DeltaStep` service, and splices the
    /// delta results into the cached partial set. Because tables are
    /// append-only and kernels emit candidates in row order within
    /// each match group, the spliced set is byte-identical to a cold
    /// run over the same data (proven by the repair proptests).
    pub(crate) fn repair_entry(
        &self,
        plan: &ExecutionPlan,
        entry: &CacheEntry,
        current: &[Vec<StepVersion>],
    ) -> Result<CacheEntry> {
        let n = plan.steps.len();
        if entry.steps.len() != n || entry.versions.len() != n || current.len() != n {
            return Err(FederationError::protocol(
                "cache entry shape does not match the plan",
            ));
        }
        let mut new_steps: Vec<Option<CachedStep>> = (0..n).map(|_| None).collect();
        let mut new_versions = entry.versions.clone();
        let mut up: Option<RepairedUpstream> = None;
        for idx in (0..n).rev() {
            let cached = &entry.steps[idx];
            if cached.src.len() != cached.set.tuples.len() {
                return Err(FederationError::protocol(
                    "cached step provenance is out of sync with its tuples",
                ));
            }
            let v_old = entry.versions[idx]
                .first()
                .map(|v| v.version)
                .ok_or_else(|| FederationError::protocol("cached step has no version record"))?;
            let v_reg = current[idx].first().map(|v| v.version).unwrap_or(v_old);
            let needs_delta = v_reg > v_old;
            let (repaired, src, stats) = match up.take() {
                None => self.repair_seed(
                    plan,
                    idx,
                    cached,
                    v_old,
                    needs_delta,
                    &mut new_versions[idx],
                )?,
                Some(upstream) => {
                    if plan.steps[idx].dropout {
                        self.repair_dropout(
                            plan,
                            idx,
                            cached,
                            upstream,
                            v_old,
                            v_reg,
                            needs_delta,
                            &mut new_versions[idx],
                        )?
                    } else {
                        self.repair_match(
                            plan,
                            idx,
                            cached,
                            upstream,
                            v_old,
                            v_reg,
                            needs_delta,
                            &mut new_versions[idx],
                        )?
                    }
                }
            };
            new_steps[idx] = Some(CachedStep {
                alias: cached.alias.clone(),
                set: repaired.set.clone(),
                src,
                stats,
            });
            up = Some(repaired);
        }
        Ok(CacheEntry {
            signature: entry.signature.clone(),
            versions: new_versions,
            steps: new_steps
                .into_iter()
                .map(|s| s.expect("every step repaired"))
                .collect(),
        })
    }

    /// One repair probe of step `idx`, an unsharded step, through the
    /// scatter (its one-extent case, which pushes no trace line): the
    /// rows at or after `from_row` (`0`: the whole table) against
    /// `input`, seeding when it is absent. Returns the reply set with the
    /// table version the node observed, and adds the probe's
    /// kernel-internal counters to `stats` (the repaired totals reflect
    /// the cached work plus the delta work — an approximation documented
    /// in DESIGN.md); the caller overwrites `tuples_in` / `tuples_out`
    /// with exact values for the repaired set.
    fn repair_probe(
        &self,
        plan: &ExecutionPlan,
        idx: usize,
        from_row: u64,
        input: Option<&PartialSet>,
        stats: &mut StepStats,
    ) -> Result<(PartialSet, u64)> {
        let out = self.scatter_step(
            plan,
            idx,
            input,
            false,
            Some(from_row),
            &mut ExecutionTrace::default(),
        )?;
        stats.add_work(&out.stats);
        stats.chi2_accepted += out.stats.chi2_accepted;
        let (_, version) = out
            .versions
            .first()
            .expect("an answered one-extent step reports its table version");
        Ok((out.set, *version))
    }

    /// Repairs the seed step: cached rows keep their positions (the
    /// seed scans its table in row order, so new rows sort after old
    /// ones) and the delta rows are probed and appended.
    fn repair_seed(
        &self,
        plan: &ExecutionPlan,
        idx: usize,
        cached: &CachedStep,
        v_old: u64,
        needs_delta: bool,
        versions: &mut [StepVersion],
    ) -> Result<(RepairedUpstream, Vec<u64>, StepStats)> {
        let mut set = cached.set.clone();
        let mut stats = cached.stats;
        let old_len = set.tuples.len();
        if needs_delta {
            let (delta, version) = self.repair_probe(plan, idx, v_old, None, &mut stats)?;
            if delta.columns != set.columns {
                return Err(FederationError::protocol(
                    "delta seed schema diverged from the cached set",
                ));
            }
            set.tuples.extend(delta.tuples);
            if let Some(v) = versions.first_mut() {
                v.version = version;
            }
        }
        stats.tuples_out = set.tuples.len();
        let src: Vec<u64> = (0..set.tuples.len() as u64).collect();
        let map = (0..old_len).map(Some).collect();
        let fresh = (old_len..set.tuples.len()).collect();
        Ok((RepairedUpstream { set, map, fresh }, src, stats))
    }

    /// Repairs one match step. Surviving cached outputs are remapped to
    /// their inputs' new positions; kept inputs are probed against only
    /// the delta rows (their new extensions splice onto the end of
    /// their match groups — within a group candidates come out in row
    /// order, and delta rows have the highest row ids); fresh inputs
    /// are probed against the whole table.
    #[allow(clippy::too_many_arguments)]
    fn repair_match(
        &self,
        plan: &ExecutionPlan,
        idx: usize,
        cached: &CachedStep,
        upstream: RepairedUpstream,
        v_old: u64,
        v_reg: u64,
        needs_delta: bool,
        versions: &mut [StepVersion],
    ) -> Result<(RepairedUpstream, Vec<u64>, StepStats)> {
        let up_len = upstream.set.tuples.len();
        let old_of_new = upstream.old_of_new();
        let kept: Vec<usize> = (0..up_len).filter(|u| old_of_new[*u].is_some()).collect();
        let mut old_groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in cached.src.iter().enumerate() {
            old_groups.entry(*s).or_default().push(i);
        }

        let mut stats = cached.stats;
        let mut observed: Option<u64> = None;
        let delta_groups = if needs_delta && !kept.is_empty() {
            let input = tag_with_cache_src(&upstream.set, &kept);
            let (reply, version) = self.repair_probe(plan, idx, v_old, Some(&input), &mut stats)?;
            observed = Some(version);
            group_delta_reply(reply, &cached.set.columns)?
        } else {
            HashMap::new()
        };
        let full_groups = if !upstream.fresh.is_empty() {
            let input = tag_with_cache_src(&upstream.set, &upstream.fresh);
            let (reply, version) = self.repair_probe(plan, idx, 0, Some(&input), &mut stats)?;
            if observed.is_none() && needs_delta {
                observed = Some(version);
            }
            group_delta_reply(reply, &cached.set.columns)?
        } else {
            HashMap::new()
        };
        if needs_delta {
            if let Some(v) = versions.first_mut() {
                v.version = observed.unwrap_or(v_reg);
            }
        }

        let mut tuples = Vec::new();
        let mut src: Vec<u64> = Vec::new();
        let mut map = vec![None; cached.set.tuples.len()];
        let mut fresh = Vec::new();
        for (u, s_old) in old_of_new.iter().enumerate() {
            match s_old {
                Some(s_old) => {
                    if let Some(group) = old_groups.get(&(*s_old as u64)) {
                        for &i in group {
                            map[i] = Some(tuples.len());
                            src.push(u as u64);
                            tuples.push(cached.set.tuples[i].clone());
                        }
                    }
                    if let Some(extra) = delta_groups.get(&(u as u64)) {
                        for t in extra {
                            fresh.push(tuples.len());
                            src.push(u as u64);
                            tuples.push(t.clone());
                        }
                    }
                }
                None => {
                    if let Some(group) = full_groups.get(&(u as u64)) {
                        for t in group {
                            fresh.push(tuples.len());
                            src.push(u as u64);
                            tuples.push(t.clone());
                        }
                    }
                }
            }
        }
        let set = PartialSet {
            columns: cached.set.columns.clone(),
            tuples,
        };
        stats.tuples_in = up_len;
        stats.tuples_out = set.tuples.len();
        Ok((RepairedUpstream { set, map, fresh }, src, stats))
    }

    /// Repairs one drop-out step. Drop-out is monotone — new rows can
    /// only drop more tuples — so cached survivors need re-probing
    /// against only the delta rows, tuples the cache already dropped
    /// stay dropped, and fresh upstream tuples are filtered against the
    /// whole table.
    #[allow(clippy::too_many_arguments)]
    fn repair_dropout(
        &self,
        plan: &ExecutionPlan,
        idx: usize,
        cached: &CachedStep,
        upstream: RepairedUpstream,
        v_old: u64,
        v_reg: u64,
        needs_delta: bool,
        versions: &mut [StepVersion],
    ) -> Result<(RepairedUpstream, Vec<u64>, StepStats)> {
        let up_len = upstream.set.tuples.len();
        let old_of_new = upstream.old_of_new();
        // A drop-out step passes each input through at most once.
        let mut old_out_of_src: HashMap<u64, usize> = HashMap::new();
        for (i, s) in cached.src.iter().enumerate() {
            old_out_of_src.insert(*s, i);
        }
        let candidates: Vec<usize> = (0..up_len)
            .filter(|u| old_of_new[*u].is_some_and(|s| old_out_of_src.contains_key(&(s as u64))))
            .collect();

        let mut stats = cached.stats;
        let mut observed: Option<u64> = None;
        let survivors_delta: Option<HashSet<u64>> = if needs_delta && !candidates.is_empty() {
            let input = tag_with_cache_src(&upstream.set, &candidates);
            let (reply, version) = self.repair_probe(plan, idx, v_old, Some(&input), &mut stats)?;
            observed = Some(version);
            let (_, srcs) = strip_cache_src(reply)?;
            Some(srcs.into_iter().collect())
        } else {
            None
        };
        let survivors_full: HashSet<u64> = if !upstream.fresh.is_empty() {
            let input = tag_with_cache_src(&upstream.set, &upstream.fresh);
            let (reply, version) = self.repair_probe(plan, idx, 0, Some(&input), &mut stats)?;
            if observed.is_none() && needs_delta {
                observed = Some(version);
            }
            let (_, srcs) = strip_cache_src(reply)?;
            srcs.into_iter().collect()
        } else {
            HashSet::new()
        };
        if needs_delta {
            if let Some(v) = versions.first_mut() {
                v.version = observed.unwrap_or(v_reg);
            }
        }

        let mut tuples = Vec::new();
        let mut src: Vec<u64> = Vec::new();
        let mut map = vec![None; cached.set.tuples.len()];
        let mut fresh = Vec::new();
        for (u, s_old) in old_of_new.iter().enumerate() {
            match s_old {
                Some(s_old) => {
                    if let Some(&i) = old_out_of_src.get(&(*s_old as u64)) {
                        let survives = survivors_delta
                            .as_ref()
                            .is_none_or(|s| s.contains(&(u as u64)));
                        if survives {
                            map[i] = Some(tuples.len());
                            src.push(u as u64);
                            tuples.push(cached.set.tuples[i].clone());
                        }
                    }
                }
                None => {
                    if survivors_full.contains(&(u as u64)) {
                        fresh.push(tuples.len());
                        src.push(u as u64);
                        tuples.push(upstream.set.tuples[u].clone());
                    }
                }
            }
        }
        let set = PartialSet {
            columns: cached.set.columns.clone(),
            tuples,
        };
        stats.tuples_in = up_len;
        stats.tuples_out = set.tuples.len();
        Ok((RepairedUpstream { set, map, fresh }, src, stats))
    }
}

/// Portal-private provenance column tagged onto each step's input during
/// a caching walk or repair probe. Node-side match and drop-out carry
/// input columns through untouched (the same property the shard executor
/// relies on for its `__src` tag), so the value survives the round trip
/// and tells the Portal which upstream tuple each output row extends.
/// Stripped before anything is cached or returned.
const CACHE_SRC_COL: &str = "__csrc";

/// Projects the tuples at `indices` out of `set` and appends a
/// [`CACHE_SRC_COL`] column holding each tuple's index in the *full*
/// upstream set — the provenance the repair merge keys on.
pub(crate) fn tag_with_cache_src(set: &PartialSet, indices: &[usize]) -> PartialSet {
    let mut columns = set.columns.clone();
    columns.push(ResultColumn::new(CACHE_SRC_COL, DataType::Id));
    let tuples = indices
        .iter()
        .map(|&i| {
            let t = &set.tuples[i];
            let mut values = t.values.clone();
            values.push(Value::Id(i as u64));
            PartialTuple {
                state: t.state,
                values,
            }
        })
        .collect();
    PartialSet { columns, tuples }
}

/// Removes the [`CACHE_SRC_COL`] column from a node reply, returning
/// the clean set plus each tuple's upstream provenance index.
pub(crate) fn strip_cache_src(mut set: PartialSet) -> Result<(PartialSet, Vec<u64>)> {
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

/// Strips the provenance column from a delta-probe reply, checks the
/// remaining schema still matches the cached set, and groups the reply
/// tuples by upstream index (reply order preserved within each group).
fn group_delta_reply(
    reply: PartialSet,
    expect_columns: &[ResultColumn],
) -> Result<HashMap<u64, Vec<PartialTuple>>> {
    let (clean, srcs) = strip_cache_src(reply)?;
    if clean.columns.as_slice() != expect_columns {
        return Err(FederationError::protocol(
            "delta reply schema diverged from the cached set",
        ));
    }
    let mut groups: HashMap<u64, Vec<PartialTuple>> = HashMap::new();
    for (t, s) in clean.tuples.into_iter().zip(srcs) {
        groups.entry(s).or_default().push(t);
    }
    Ok(groups)
}

/// Per-step repair state flowing down the chain in execution order: the
/// repaired upstream output, where each old cached upstream row moved
/// (`map[old] = Some(new)`, `None` if it was dropped), and which rows
/// are new since the entry was populated.
struct RepairedUpstream {
    set: PartialSet,
    map: Vec<Option<usize>>,
    fresh: Vec<usize>,
}

impl RepairedUpstream {
    /// The inverse of `map`: for each repaired upstream row, the cached
    /// row it came from (`None` for a fresh row).
    fn old_of_new(&self) -> Vec<Option<usize>> {
        let mut old_of_new = vec![None; self.set.tuples.len()];
        for (old, new) in self.map.iter().enumerate() {
            if let Some(new) = new {
                old_of_new[*new] = Some(old);
            }
        }
        old_of_new
    }
}
