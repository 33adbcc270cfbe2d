//! Query decomposition (paper §5.1/§5.3).
//!
//! The Portal "decomposes the queries to generate performance queries that
//! are used for query optimization" and per-archive local queries. Given a
//! parsed cross-match [`Query`], [`decompose`] produces:
//!
//! * the single [`RegionSpec`] (if any) — compiled into range searches,
//! * the single [`XMatchSpec`] — the probabilistic join,
//! * one [`ArchiveQuery`] per FROM entry: the conjuncts evaluable entirely
//!   at that archive, plus the columns that must travel down the chain,
//! * cross-archive *residual* conjuncts (e.g. the paper's
//!   `(O.i_flux - T.i_flux) > 2`), applied once every referenced archive
//!   has joined the partial tuple,
//! * the count-star [`PerformanceQuery`] for each mandatory archive,
//!   whose `to_sql()` text matches the §5.3 examples.

use std::collections::BTreeSet;

use crate::ast::{Expr, Query, RegionSpec, SelectItem, TableRef, XMatchSpec};
use crate::error::SqlError;

/// The per-archive slice of a decomposed query.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveQuery {
    /// The FROM entry this slice belongs to.
    pub table: TableRef,
    /// True when the XMATCH clause marks this archive `!` (drop-out).
    pub dropout: bool,
    /// Conjuncts referencing only this archive's alias. Evaluated locally
    /// by the SkyNode ("its own (non-spatial) query").
    pub local_predicates: Vec<Expr>,
    /// Columns of this archive that must be carried along the chain:
    /// referenced by the SELECT list or by residual clauses.
    pub carried_columns: Vec<String>,
}

impl ArchiveQuery {
    /// The local predicates joined back into one expression.
    pub fn predicate(&self) -> Option<Expr> {
        Expr::and_all(self.local_predicates.clone())
    }
}

/// A count-star performance query for one mandatory archive.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceQuery {
    /// The alias of the archive this query probes.
    pub alias: String,
    /// The archive's name.
    pub archive: String,
    /// The equivalent AST (count(*) over the archive's local clauses).
    pub query: Query,
}

impl PerformanceQuery {
    /// The SQL text shipped to the SkyNode's Query service — the form of
    /// the paper's §5.3 examples.
    pub fn to_sql(&self) -> String {
        self.query.to_string()
    }
}

/// A fully decomposed cross-match query.
#[derive(Debug, Clone, PartialEq)]
pub struct DecomposedQuery {
    /// The original query (for the SELECT list and FROM entries).
    pub query: Query,
    /// The spatial range, if an AREA or POLYGON clause was present.
    pub region: Option<RegionSpec>,
    /// The probabilistic join spec.
    pub xmatch: XMatchSpec,
    /// Per-archive slices, in FROM order.
    pub archives: Vec<ArchiveQuery>,
    /// Conjuncts spanning several archives.
    pub residuals: Vec<Expr>,
    /// Performance queries, one per mandatory archive, in XMATCH order.
    pub performance_queries: Vec<PerformanceQuery>,
}

impl DecomposedQuery {
    /// The slice for an alias.
    pub fn archive(&self, alias: &str) -> Option<&ArchiveQuery> {
        self.archives.iter().find(|a| a.table.alias == alias)
    }
}

/// Decomposes a parsed cross-match query. See module docs for the rules.
pub fn decompose(query: Query) -> Result<DecomposedQuery, SqlError> {
    let where_clause = query.where_clause.clone().ok_or_else(|| {
        SqlError::semantic("a cross-match query needs a WHERE clause with XMATCH")
    })?;

    let conjuncts: Vec<Expr> = where_clause.conjuncts().into_iter().cloned().collect();

    let mut region: Option<RegionSpec> = None;
    let mut xmatch: Option<XMatchSpec> = None;
    let mut plain: Vec<Expr> = Vec::new();

    for c in conjuncts {
        match c {
            Expr::Area(a) => {
                if region.replace(RegionSpec::Circle(a)).is_some() {
                    return Err(SqlError::semantic("more than one AREA/POLYGON clause"));
                }
            }
            Expr::Polygon(p) => {
                if region.replace(RegionSpec::Polygon(p)).is_some() {
                    return Err(SqlError::semantic("more than one AREA/POLYGON clause"));
                }
            }
            Expr::XMatch(x) => {
                if xmatch.replace(x).is_some() {
                    return Err(SqlError::semantic("more than one XMATCH clause"));
                }
            }
            other => {
                if other.contains_spatial() {
                    return Err(SqlError::semantic(
                        "AREA/XMATCH may only appear as top-level AND conjuncts",
                    ));
                }
                plain.push(other);
            }
        }
    }

    let xmatch =
        xmatch.ok_or_else(|| SqlError::semantic("a cross-match query needs an XMATCH clause"))?;

    if !query.group_by.is_empty() {
        return Err(SqlError::semantic(
            "GROUP BY is not supported in federated cross-match queries",
        ));
    }
    if query
        .select
        .iter()
        .any(|s| matches!(s, SelectItem::Aggregate { .. }))
    {
        return Err(SqlError::semantic(
            "aggregates are not supported in federated cross-match queries",
        ));
    }
    // ORDER BY keys may only touch carried (selected/residual) columns —
    // validated like select items below.
    for key in &query.order_by {
        if key.expr.contains_spatial() {
            return Err(SqlError::semantic(
                "ORDER BY cannot contain spatial clauses",
            ));
        }
        for (a, _) in key.expr.referenced_columns() {
            if query.table_for_alias(a).is_none() {
                return Err(SqlError::semantic(format!(
                    "ORDER BY references unknown alias {a}"
                )));
            }
        }
    }

    // Alias bookkeeping: XMATCH terms ↔ FROM entries must agree.
    for term in &xmatch.terms {
        if query.table_for_alias(&term.alias).is_none() {
            return Err(SqlError::semantic(format!(
                "XMATCH references alias {} which is not in FROM",
                term.alias
            )));
        }
    }
    for t in &query.from {
        if !xmatch.terms.iter().any(|term| term.alias == t.alias) {
            return Err(SqlError::semantic(format!(
                "FROM entry {} is not part of the XMATCH clause; plain joins are not federated",
                t.alias
            )));
        }
    }

    // SELECT validation: cross-match queries return columns/expressions,
    // not count(*) (count(*) is the performance-query form).
    let mut selected: Vec<(String, String)> = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::CountStar | SelectItem::Aggregate { .. } => {
                return Err(SqlError::semantic(
                    "aggregates are not valid in a cross-match query",
                ))
            }
            SelectItem::Expr { expr, .. } => {
                for (a, c) in expr.referenced_columns() {
                    if query.table_for_alias(a).is_none() {
                        return Err(SqlError::semantic(format!(
                            "SELECT references unknown alias {a}"
                        )));
                    }
                    selected.push((a.to_string(), c.to_string()));
                }
                if expr.contains_spatial() {
                    return Err(SqlError::semantic(
                        "AREA/XMATCH cannot appear in the SELECT list",
                    ));
                }
            }
        }
    }

    // Split plain conjuncts into single-alias (local) and multi-alias
    // (residual); validate all referenced aliases.
    let mut residuals: Vec<Expr> = Vec::new();
    let mut local: Vec<(String, Expr)> = Vec::new();
    for c in plain {
        let aliases = c.referenced_aliases();
        for a in &aliases {
            if query.table_for_alias(a).is_none() {
                return Err(SqlError::semantic(format!(
                    "WHERE references unknown alias {a}"
                )));
            }
        }
        match aliases.len() {
            0 => {
                // Constant conjunct: keep as residual so it is still
                // enforced (e.g. WHERE 1 = 2 yields nothing).
                residuals.push(c);
            }
            1 => local.push((aliases[0].to_string(), c)),
            _ => residuals.push(c),
        }
    }

    // Columns each archive must carry: SELECT references + residual
    // references (dropouts never contribute rows, so they carry nothing).
    let mut carried: std::collections::HashMap<&str, BTreeSet<String>> =
        std::collections::HashMap::new();
    for (a, c) in &selected {
        carried
            .entry(query.table_for_alias(a).map(|t| t.alias.as_str()).unwrap())
            .or_default()
            .insert(c.clone());
    }
    for r in &residuals {
        for (a, c) in r.referenced_columns() {
            let alias = query.table_for_alias(a).map(|t| t.alias.as_str()).unwrap();
            carried.entry(alias).or_default().insert(c.to_string());
        }
    }
    for key in &query.order_by {
        for (a, c) in key.expr.referenced_columns() {
            let alias = query.table_for_alias(a).map(|t| t.alias.as_str()).unwrap();
            carried.entry(alias).or_default().insert(c.to_string());
        }
    }

    for (a, _) in &selected {
        let term = xmatch.terms.iter().find(|t| t.alias == *a).unwrap();
        if term.dropout {
            return Err(SqlError::semantic(format!(
                "SELECT references drop-out archive {a}, which contributes no rows"
            )));
        }
    }
    for r in &residuals {
        for a in r.referenced_aliases() {
            if let Some(term) = xmatch.terms.iter().find(|t| t.alias == a) {
                if term.dropout {
                    return Err(SqlError::semantic(format!(
                        "WHERE residual references drop-out archive {a}"
                    )));
                }
            }
        }
    }

    let archives: Vec<ArchiveQuery> = query
        .from
        .iter()
        .map(|t| {
            let dropout = xmatch
                .terms
                .iter()
                .find(|term| term.alias == t.alias)
                .map(|term| term.dropout)
                .unwrap_or(false);
            ArchiveQuery {
                table: t.clone(),
                dropout,
                local_predicates: local
                    .iter()
                    .filter(|(a, _)| *a == t.alias)
                    .map(|(_, e)| e.clone())
                    .collect(),
                carried_columns: carried
                    .get(t.alias.as_str())
                    .map(|s| s.iter().cloned().collect())
                    .unwrap_or_default(),
            }
        })
        .collect();

    // Performance queries: one per mandatory archive, in XMATCH order,
    // containing only clauses evaluable entirely at that SkyNode.
    let performance_queries = xmatch
        .mandatory()
        .iter()
        .map(|alias| {
            let slice = archives
                .iter()
                .find(|a| a.table.alias == *alias)
                .expect("mandatory alias is in FROM");
            let mut conj: Vec<Expr> = Vec::new();
            match &region {
                Some(RegionSpec::Circle(a)) => conj.push(Expr::Area(*a)),
                Some(RegionSpec::Polygon(p)) => conj.push(Expr::Polygon(p.clone())),
                None => {}
            }
            conj.extend(slice.local_predicates.iter().cloned());
            PerformanceQuery {
                alias: alias.to_string(),
                archive: slice.table.archive.clone(),
                query: Query {
                    select: vec![SelectItem::CountStar],
                    from: vec![slice.table.clone()],
                    where_clause: Expr::and_all(conj),
                    group_by: Vec::new(),
                    order_by: Vec::new(),
                    limit: None,
                },
            }
        })
        .collect();

    Ok(DecomposedQuery {
        query,
        region,
        xmatch,
        archives,
        residuals,
        performance_queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    const PAPER_QUERY: &str = "SELECT O.object_id, O.right_ascension, T.object_id \
         FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T, FIRST:Primary_Object P \
         WHERE AREA(185.0, -0.5, 4.5) AND XMATCH(O, T, P) < 3.5 \
           AND O.type = GALAXY AND (O.i_flux - T.i_flux) > 2";

    fn paper() -> DecomposedQuery {
        decompose(parse_query(PAPER_QUERY).unwrap()).unwrap()
    }

    #[test]
    fn paper_query_decomposes() {
        let d = paper();
        let area = match d.region.clone().unwrap() {
            RegionSpec::Circle(a) => a,
            other => panic!("expected circle, got {other:?}"),
        };
        assert!((area.ra_deg - 185.0).abs() < 1e-12);
        assert!((area.dec_deg + 0.5).abs() < 1e-12);
        assert_eq!(d.xmatch.mandatory(), vec!["O", "T", "P"]);
        assert_eq!(d.archives.len(), 3);
        // O carries object_id, right_ascension (select) + i_flux (residual).
        let o = d.archive("O").unwrap();
        assert_eq!(
            o.carried_columns,
            vec!["i_flux", "object_id", "right_ascension"]
        );
        assert_eq!(o.local_predicates.len(), 1);
        assert_eq!(o.local_predicates[0].to_string(), "O.type = 'GALAXY'");
        // T carries object_id (select) + i_flux (residual).
        let t = d.archive("T").unwrap();
        assert_eq!(t.carried_columns, vec!["i_flux", "object_id"]);
        assert!(t.local_predicates.is_empty());
        // P carries nothing and has no local predicates.
        let p = d.archive("P").unwrap();
        assert!(p.carried_columns.is_empty());
        // One residual: the flux difference.
        assert_eq!(d.residuals.len(), 1);
        assert_eq!(d.residuals[0].to_string(), "O.i_flux - T.i_flux > 2");
    }

    #[test]
    fn paper_performance_queries_match_section_5_3() {
        let d = paper();
        assert_eq!(d.performance_queries.len(), 3);
        assert_eq!(
            d.performance_queries[0].to_sql(),
            "SELECT count(*) FROM SDSS:Photo_Object O \
             WHERE AREA(185.0, -0.5, 4.5) AND O.type = 'GALAXY'"
        );
        assert_eq!(
            d.performance_queries[1].to_sql(),
            "SELECT count(*) FROM TWOMASS:Photo_Primary T WHERE AREA(185.0, -0.5, 4.5)"
        );
        assert_eq!(
            d.performance_queries[2].to_sql(),
            "SELECT count(*) FROM FIRST:Primary_Object P WHERE AREA(185.0, -0.5, 4.5)"
        );
    }

    #[test]
    fn dropout_gets_no_performance_query() {
        let d = decompose(
            parse_query(
                "SELECT O.id FROM A:T1 O, B:T2 T, C:T3 P \
                 WHERE AREA(10.0, 0.0, 5.0) AND XMATCH(O, T, !P) < 3.5",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(d.performance_queries.len(), 2);
        assert!(d.archive("P").unwrap().dropout);
        assert!(!d.archive("O").unwrap().dropout);
    }

    #[test]
    fn missing_xmatch_rejected() {
        let q = parse_query("SELECT O.a FROM S:T O WHERE O.a > 1").unwrap();
        assert!(decompose(q).is_err());
        let q = parse_query("SELECT O.a FROM S:T O").unwrap();
        assert!(decompose(q).is_err());
    }

    #[test]
    fn from_entry_outside_xmatch_rejected() {
        let q =
            parse_query("SELECT O.a FROM S:T O, U:V T, W:X Y WHERE XMATCH(O, T) < 2.0").unwrap();
        assert!(decompose(q).is_err());
    }

    #[test]
    fn xmatch_alias_not_in_from_rejected() {
        let q = parse_query("SELECT O.a FROM S:T O WHERE XMATCH(O, Z) < 2.0").unwrap();
        assert!(decompose(q).is_err());
    }

    #[test]
    fn duplicate_spatial_clauses_rejected() {
        let q = parse_query(
            "SELECT O.a FROM S:T O, U:V T \
             WHERE AREA(1.0, 2.0, 3.0) AND AREA(4.0, 5.0, 6.0) AND XMATCH(O, T) < 2.0",
        )
        .unwrap();
        assert!(decompose(q).is_err());
    }

    #[test]
    fn spatial_under_or_rejected() {
        let q = parse_query(
            "SELECT O.a FROM S:T O, U:V T \
             WHERE XMATCH(O, T) < 2.0 AND (O.a > 1 OR AREA(1.0, 2.0, 3.0))",
        )
        .unwrap();
        assert!(decompose(q).is_err());
    }

    #[test]
    fn count_star_in_cross_match_rejected() {
        let q = parse_query("SELECT count(*) FROM S:T O, U:V T WHERE XMATCH(O, T) < 2.0").unwrap();
        assert!(decompose(q).is_err());
    }

    #[test]
    fn select_from_dropout_rejected() {
        let q = parse_query("SELECT P.id FROM S:T O, U:V T, W:X P WHERE XMATCH(O, T, !P) < 2.0")
            .unwrap();
        assert!(decompose(q).is_err());
    }

    #[test]
    fn residual_on_dropout_rejected() {
        let q = parse_query(
            "SELECT O.id FROM S:T O, U:V T, W:X P \
             WHERE XMATCH(O, T, !P) < 2.0 AND (O.f - P.f) > 1",
        )
        .unwrap();
        assert!(decompose(q).is_err());
    }

    #[test]
    fn constant_conjunct_becomes_residual() {
        let q =
            parse_query("SELECT O.a FROM S:T O, U:V T WHERE XMATCH(O, T) < 2.0 AND 1 = 2").unwrap();
        let d = decompose(q).unwrap();
        assert_eq!(d.residuals.len(), 1);
    }

    #[test]
    fn or_of_single_alias_stays_local() {
        let q = parse_query(
            "SELECT O.a FROM S:T O, U:V T \
             WHERE XMATCH(O, T) < 2.0 AND (O.a > 1 OR O.b < 2)",
        )
        .unwrap();
        let d = decompose(q).unwrap();
        assert_eq!(d.archive("O").unwrap().local_predicates.len(), 1);
        assert!(d.residuals.is_empty());
    }

    #[test]
    fn area_optional() {
        let q = parse_query("SELECT O.a FROM S:T O, U:V T WHERE XMATCH(O, T) < 2.0").unwrap();
        let d = decompose(q).unwrap();
        assert!(d.region.is_none());
        assert_eq!(
            d.performance_queries[0].to_sql(),
            "SELECT count(*) FROM S:T O"
        );
    }

    #[test]
    fn multiple_local_predicates_per_archive() {
        let q = parse_query(
            "SELECT O.a FROM S:T O, U:V T \
             WHERE XMATCH(O, T) < 2.0 AND O.a > 1 AND O.b < 5 AND T.c = 'x'",
        )
        .unwrap();
        let d = decompose(q).unwrap();
        assert_eq!(d.archive("O").unwrap().local_predicates.len(), 2);
        assert_eq!(d.archive("T").unwrap().local_predicates.len(), 1);
        let pred = d.archive("O").unwrap().predicate().unwrap();
        assert_eq!(pred.conjuncts().len(), 2);
    }
}
