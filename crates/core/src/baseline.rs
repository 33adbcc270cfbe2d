//! Baselines the paper argues against, implemented for the experiments.
//!
//! * [`Portal::submit_pull_to_portal`] — "Many federations, based on the
//!   wrapper-mediator architecture, pull results from each database to
//!   the Portal" (§5.1). Every archive ships its AREA-filtered rows to
//!   the Portal, which joins centrally. Experiment E4 compares its
//!   transmission volume against the daisy chain.
//! * [`naive_match`] — an exhaustive cross-product matcher with no HTM
//!   index and no incremental pruning: the algorithmic baseline for the
//!   cross-match stored procedure (experiments E6/E7), and an independent
//!   correctness oracle for tests.

use skyquery_htm::{SkyPoint, Vec3};
use skyquery_soap::{RpcCall, SoapValue};
use skyquery_sql::{decompose, parse_query};
use skyquery_storage::{BufferCache, ColumnDef, DataType, Database, PositionColumns, TableSchema};

use crate::error::{FederationError, Result};
use crate::plan::ExecutionPlan;
use crate::portal::Portal;
use crate::result::ResultSet;
use crate::skynode::send_rpc;
use crate::xmatch::{
    apply_residuals, dropout_step, match_step, seed_step, PartialSet, StepConfig, TupleState,
};

impl Portal {
    /// The pull-to-portal strategy: fetch each archive's filtered rows
    /// through its Query service, then cross-match centrally at the
    /// Portal. Returns the same result a chained execution produces.
    pub fn submit_pull_to_portal(&self, sql: &str) -> Result<ResultSet> {
        let query = parse_query(sql).map_err(FederationError::Sql)?;
        let dq = decompose(query).map_err(FederationError::Sql)?;
        // Reuse the regular planner for ordering and step metadata (counts
        // still come from performance queries, as the chained path does).
        let mut trace = crate::trace::ExecutionTrace::new();
        let counts = self.run_performance_queries_for_baseline(&dq, &mut trace)?;
        let plan = self.build_plan_for_baseline(&dq, &counts)?;

        // Pull every archive's rows to the Portal.
        let mut local_dbs: Vec<(usize, Database)> = Vec::new();
        for (i, step) in plan.steps.iter().enumerate() {
            let node = self.node(&step.archive).ok_or_else(|| {
                FederationError::planning(format!("archive {} not registered", step.archive))
            })?;
            let schema = node
                .table_schema(&step.table)
                .ok_or_else(|| {
                    FederationError::planning(format!(
                        "archive {} has no table {}",
                        step.archive, step.table
                    ))
                })?
                .clone();
            let pos = schema
                .position
                .clone()
                .expect("planner validated position columns");

            // SELECT ra, dec, carried… WHERE AREA(…) AND local predicates.
            let mut select_cols = vec![pos.ra.clone(), pos.dec.clone()];
            for c in &step.carried {
                if !select_cols.contains(c) {
                    select_cols.push(c.clone());
                }
            }
            let select_list = select_cols
                .iter()
                .map(|c| format!("{}.{c}", step.alias))
                .collect::<Vec<_>>()
                .join(", ");
            let mut conjuncts = Vec::new();
            if let Some(r) = &plan.region {
                conjuncts.push(r.to_spec().to_string());
            }
            if let Some(p) = &step.local_sql {
                conjuncts.push(p.clone());
            }
            let where_clause = if conjuncts.is_empty() {
                String::new()
            } else {
                format!(" WHERE {}", conjuncts.join(" AND "))
            };
            let pull_sql = format!(
                "SELECT {select_list} FROM {}:{} {}{where_clause}",
                step.archive, step.table, step.alias
            );
            let resp = send_rpc(
                &self.portal_net(),
                self.host(),
                &step.url,
                &RpcCall::new("Query").param("sql", SoapValue::Str(pull_sql)),
            )?;
            let table = resp
                .require("rows")?
                .as_table()
                .ok_or_else(|| FederationError::protocol("rows must be a table"))?;
            let rs = ResultSet::from_votable(table)?;

            // Materialize into a Portal-local database so the central
            // match can reuse the same HTM-backed stored procedure.
            let mut cols = vec![
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
            ];
            for c in select_cols.iter().skip(2) {
                let dtype = schema.column(c).map(|d| d.dtype).unwrap_or(DataType::Float);
                cols.push(ColumnDef::new(c.clone(), dtype).nullable());
            }
            let local_schema = TableSchema::new("pulled", cols)
                .with_position(PositionColumns::new("ra", "dec", pos.htm_depth))
                .map_err(FederationError::Storage)?;
            let mut db =
                Database::with_cache(format!("portal_{}", step.alias), BufferCache::new(4096, 64));
            db.create_table(local_schema).unwrap();
            for row in &rs.rows {
                db.insert("pulled", row.clone())?;
            }
            local_dbs.push((i, db));
        }

        // Central cross-match in the same seed-to-head order the chain
        // would use.
        let mut current: Option<PartialSet> = None;
        for idx in (0..plan.steps.len()).rev() {
            let step = &plan.steps[idx];
            let db = &mut local_dbs
                .iter_mut()
                .find(|(i, _)| *i == idx)
                .expect("one db per step")
                .1;
            let cfg = StepConfig {
                alias: step.alias.clone(),
                table: "pulled".into(),
                sigma_rad: (step.sigma_arcsec / 3600.0).to_radians(),
                threshold: plan.threshold,
                // The spatial range and local predicates were applied at
                // the archives.
                region: None,
                local_predicate: None,
                carried_columns: step.carried.clone(),
                kernel: plan.kernel,
            };
            let (set, _) = match (&current, step.dropout) {
                (None, false) => seed_step(db, &cfg)?,
                (Some(inc), false) => match_step(db, &cfg, inc)?,
                (Some(inc), true) => dropout_step(db, &cfg, inc)?,
                (None, true) => {
                    return Err(FederationError::planning(
                        "a drop-out archive cannot seed the match",
                    ))
                }
            };
            let residuals = plan.residuals(idx)?;
            current = Some(if residuals.is_empty() {
                set
            } else {
                apply_residuals(set, &residuals)?
            });
        }
        let set = current.ok_or_else(|| FederationError::planning("empty plan"))?;
        crate::portal::project_for_baseline(&plan, set)
    }
}

/// An index tuple produced by [`naive_match`]: one object index per
/// mandatory archive, in input order.
pub type MatchTuple = Vec<usize>;

/// Exhaustive cross-match over in-memory archives: every combination of
/// one object per archive is tested against the chi-square bound. No
/// spatial index, no pruning — O(∏ nᵢ).
///
/// `archives[i]` lists unit-vector positions; `sigmas_rad[i]` is that
/// archive's error. Returns index tuples with `χ²_min ≤ threshold²`.
pub fn naive_match(archives: &[Vec<Vec3>], sigmas_rad: &[f64], threshold: f64) -> Vec<MatchTuple> {
    assert_eq!(archives.len(), sigmas_rad.len());
    let mut out = Vec::new();
    if archives.is_empty() || archives.iter().any(Vec::is_empty) {
        return out;
    }
    let bound = threshold * threshold;
    let mut indices = vec![0usize; archives.len()];
    'outer: loop {
        // Evaluate the current combination.
        let mut state: Option<TupleState> = None;
        for (k, &i) in indices.iter().enumerate() {
            let pos = archives[k][i];
            state = Some(match state {
                None => TupleState::single(pos, sigmas_rad[k]),
                Some(s) => s.extended(pos, sigmas_rad[k]),
            });
        }
        if state.expect("at least one archive").chi2_min() <= bound {
            out.push(indices.clone());
        }
        // Odometer increment.
        for k in (0..indices.len()).rev() {
            indices[k] += 1;
            if indices[k] < archives[k].len() {
                continue 'outer;
            }
            indices[k] = 0;
            if k == 0 {
                break 'outer;
            }
        }
    }
    out
}

/// Builds unit vectors from (ra, dec) degrees — convenience for callers
/// of [`naive_match`].
pub fn positions(points: &[(f64, f64)]) -> Vec<Vec3> {
    points
        .iter()
        .map(|&(ra, dec)| SkyPoint::from_radec_deg(ra, dec).to_vec3())
        .collect()
}

// Internal accessors the baseline needs from the Portal. Kept pub(crate)
// so external users go through the public submit APIs.
impl Portal {
    pub(crate) fn portal_net(&self) -> skyquery_net::SimNetwork {
        self.net_clone()
    }
}

impl ExecutionPlan {
    /// Total count-star estimate (diagnostics in benches).
    pub fn total_count_estimate(&self) -> u64 {
        self.steps.iter().filter_map(|s| s.count_estimate).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARCSEC: f64 = 1.0 / 3600.0;

    #[test]
    fn naive_match_pairs() {
        let a = positions(&[(10.0, 10.0), (20.0, 20.0)]);
        let b = positions(&[(10.0 + 0.2 * ARCSEC, 10.0), (50.0, 50.0)]);
        let sig = [(0.3 * ARCSEC).to_radians(), (0.3 * ARCSEC).to_radians()];
        let m = naive_match(&[a, b], &sig, 3.5);
        assert_eq!(m, vec![vec![0, 0]]);
    }

    #[test]
    fn naive_match_three_way() {
        let a = positions(&[(100.0, 0.0)]);
        let b = positions(&[(100.0, 0.0 + 0.1 * ARCSEC)]);
        let c = positions(&[(100.0 - 0.1 * ARCSEC, 0.0)]);
        let sig = [(0.2 * ARCSEC).to_radians(); 3];
        let m = naive_match(&[a, b, c], &sig, 3.0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn naive_match_empty_inputs() {
        assert!(naive_match(&[], &[], 3.0).is_empty());
        let empty: Vec<Vec3> = vec![];
        let some = positions(&[(1.0, 1.0)]);
        let sig = [(0.2 * ARCSEC).to_radians(); 2];
        assert!(naive_match(&[empty, some], &sig, 3.0).is_empty());
    }

    #[test]
    fn naive_match_threshold_sensitivity() {
        let a = positions(&[(10.0, 10.0)]);
        let b = positions(&[(10.0, 10.0 + 1.5 * ARCSEC)]);
        let sig = [(0.3 * ARCSEC).to_radians(); 2];
        assert!(naive_match(&[a.clone(), b.clone()], &sig, 3.0).is_empty());
        assert_eq!(naive_match(&[a, b], &sig, 5.0).len(), 1);
    }
}
