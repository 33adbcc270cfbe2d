//! Single-archive query execution — the engine behind the Query service,
//! and the relational tail the seed step and the Portal share with it.
//!
//! The Query service is "a general-purpose database querying service"
//! (§5.1); in the deployed federation it primarily answers the Portal's
//! count-star performance queries. This module executes a parsed dialect
//! query whose FROM list names exactly one table of the local archive:
//! the AREA conjunct becomes an HTM range search, remaining conjuncts a
//! predicate filter, and the SELECT list either `count(*)` or a
//! projection. Two of its parts serve beyond the Query service:
//! `select_rows` is also the seed step's selection, so a count-star
//! counts exactly the 1-tuples its seed would send (§5.4), and
//! `order_limit_select` is also the Portal's final projection.

use std::borrow::Borrow;

use skyquery_sql::ast::{AggFunc, OrderKey, SortDirection};
use skyquery_sql::{Bindings, Expr, Query, RegionSpec, RowBindings, SelectItem};
use skyquery_storage::{DataType, Database, ScanOptions, TableSchema, Value};

use crate::error::{FederationError, Result};
use crate::region::Region;
use crate::result::{ResultColumn, ResultSet};

/// The outcome of a local query: a bare count or a row set.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalQueryResult {
    /// A bare `count(*)` answer (the performance-query wire shape).
    Count(u64),
    /// A materialized row set.
    Rows(ResultSet),
}

/// Executes a single-archive query against the local database.
///
/// `archive_name` is this node's archive name; the query's FROM entry
/// must reference it (autonomy check: a node only answers for itself).
pub fn execute_local(
    db: &mut Database,
    archive_name: &str,
    query: &Query,
) -> Result<LocalQueryResult> {
    if query.from.len() != 1 {
        return Err(FederationError::protocol(
            "the Query service executes single-table queries only",
        ));
    }
    let table_ref = &query.from[0];
    if !table_ref.archive.eq_ignore_ascii_case(archive_name) {
        return Err(FederationError::protocol(format!(
            "query addresses archive {}, but this node is {archive_name}",
            table_ref.archive
        )));
    }
    let (table, alias) = (&table_ref.table, &table_ref.alias);

    // Split WHERE into the spatial conjunct and ordinary predicates.
    let mut region: Option<Region> = None;
    let mut predicates: Vec<&Expr> = Vec::new();
    if let Some(w) = &query.where_clause {
        for c in w.conjuncts() {
            let spec = match c {
                Expr::Area(a) => RegionSpec::Circle(*a),
                Expr::Polygon(p) => RegionSpec::Polygon(p.clone()),
                Expr::XMatch(_) => {
                    return Err(FederationError::protocol(
                        "XMATCH cannot run at a single archive; submit it to the Portal",
                    ))
                }
                other if other.contains_spatial() => {
                    return Err(FederationError::protocol(
                        "AREA must be a top-level conjunct",
                    ))
                }
                other => {
                    predicates.push(other);
                    continue;
                }
            };
            if region.replace(Region::from_spec(&spec)?).is_some() {
                return Err(FederationError::protocol(
                    "more than one AREA/POLYGON clause",
                ));
            }
        }
    }

    let (rows, _) = select_rows(db, table, alias, region.as_ref(), &predicates, 0)?;
    let t = db.table(table)?;
    let schema = t.schema();
    let bind = |rid: usize| RowBindings {
        alias,
        schema,
        row: t.row(rid).expect("selected row exists"),
    };

    // Aggregate mode when any select item aggregates or GROUP BY given.
    let has_aggregates = query
        .select
        .iter()
        .any(|s| matches!(s, SelectItem::CountStar | SelectItem::Aggregate { .. }));
    if has_aggregates || !query.group_by.is_empty() {
        // The pure count(*) fast path keeps the performance-query wire
        // shape (a bare integer, "de-serialization … not expensive").
        if query.select.len() == 1
            && query.select[0] == SelectItem::CountStar
            && query.group_by.is_empty()
            && query.order_by.is_empty()
            && query.limit.is_none()
        {
            return Ok(LocalQueryResult::Count(rows.len() as u64));
        }
        return aggregate_rows(schema, query, &rows, bind).map(LocalQueryResult::Rows);
    }

    // Plain projection: each column's name and, for a plain column
    // reference, its declared type.
    let mut heads = Vec::with_capacity(query.select.len());
    let mut exprs: Vec<&Expr> = Vec::with_capacity(query.select.len());
    for item in &query.select {
        let SelectItem::Expr { expr, alias: out } = item else {
            unreachable!("aggregate mode handled above")
        };
        let declared = match expr {
            Expr::Column { column, .. } => Some(
                schema
                    .column(column)
                    .ok_or_else(|| {
                        FederationError::protocol(format!(
                            "unknown column {column} in table {table}"
                        ))
                    })?
                    .dtype,
            ),
            _ => None,
        };
        heads.push((out.clone().unwrap_or_else(|| expr.to_string()), declared));
        exprs.push(expr);
    }
    let bound = rows.iter().map(|&rid| bind(rid));
    let rows = order_limit_select(bound, &query.order_by, query.limit, &exprs)?;
    let columns = heads
        .into_iter()
        .enumerate()
        .map(|(i, (name, declared))| ResultColumn::new(name, column_type(declared, &rows, i)))
        .collect();
    let mut rs = ResultSet::new(columns);
    for row in rows {
        rs.push_row(row)?;
    }
    Ok(LocalQueryResult::Rows(rs))
}

/// The one row selection of a node: the rows of `table`, bound under
/// `alias`, that lie in `region` and satisfy every one of `predicates`,
/// read from row `from_row` on. It serves the Query service and the seed
/// step alike, so a count-star counts exactly the 1-tuples the seed
/// sends. The access path is an HTM region search when a region is given,
/// else a B-tree probe for an indexed `alias.column = literal` conjunct,
/// else a scan; each row it reads is then tested against the predicates
/// in order. Returns the selected row ids, ascending, and the number of
/// rows the access path read.
pub(crate) fn select_rows(
    db: &mut Database,
    table: &str,
    alias: &str,
    region: Option<&Region>,
    predicates: &[&Expr],
    from_row: usize,
) -> Result<(Vec<usize>, usize)> {
    let opts = ScanOptions::default();
    let mut rows = match region {
        Some(region) => db.region_search(table, region.as_convex_region(), opts)?,
        None => match indexed_equality(db, table, alias, predicates) {
            Some((column, value)) => {
                let mut ids = db.lookup_eq(table, &column, &value, opts)?;
                ids.sort_unstable();
                ids
            }
            None => db.scan_filter(table, opts, |_, _| true)?,
        },
    };
    rows.retain(|&rid| rid >= from_row);
    let read = rows.len();
    let t = db.table(table)?;
    let mut kept = 0;
    'rows: for i in 0..read {
        let rid = rows[i];
        let b = RowBindings {
            alias,
            schema: t.schema(),
            row: t.row(rid).expect("selected row exists"),
        };
        for p in predicates {
            if !p.eval_predicate(&b)? {
                continue 'rows;
            }
        }
        rows[kept] = rid;
        kept += 1;
    }
    rows.truncate(kept);
    Ok((rows, read))
}

/// Finds an `alias.column = literal` conjunct whose column carries a
/// B-tree index, for index-probe pushdown. The predicate itself is still
/// re-evaluated afterwards, so the probe only has to be sound.
fn indexed_equality(
    db: &Database,
    table: &str,
    alias: &str,
    predicates: &[&Expr],
) -> Option<(String, Value)> {
    use skyquery_sql::{BinaryOp, Literal};
    let to_value = |l: &Literal| -> Option<Value> {
        Some(match l {
            Literal::Null => return None, // = NULL never matches
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(x) => Value::Float(*x),
            Literal::Str(s) => Value::Text(s.clone()),
        })
    };
    for p in predicates {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } = p
        {
            let pair = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Column { alias: a, column }, Expr::Literal(l)) if a == alias => {
                    Some((column, l))
                }
                (Expr::Literal(l), Expr::Column { alias: a, column }) if a == alias => {
                    Some((column, l))
                }
                _ => None,
            };
            if let Some((column, literal)) = pair {
                if db.has_btree_index(table, column) {
                    if let Some(v) = to_value(literal) {
                        return Some((column.clone(), v));
                    }
                }
            }
        }
    }
    None
}

/// ORDER BY, then LIMIT, then SELECT over rows bound by any [`Bindings`]:
/// the one projection tail of the Query service and the Portal. Rows sort
/// by [`sort_by_keys`] (an unordered input keeps its order), the first
/// `limit` survive, and each yields the values of `select`.
pub(crate) fn order_limit_select<B: Bindings>(
    rows: impl ExactSizeIterator<Item = B>,
    order_by: &[OrderKey],
    limit: Option<usize>,
    select: &[impl Borrow<Expr>],
) -> Result<Vec<Vec<Value>>> {
    let eval = |b: &B, e: &Expr| e.eval(b).map_err(FederationError::Sql);
    let limit = limit.unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(rows.len().min(limit));
    let mut project = |b: B| -> Result<()> {
        let mut row = Vec::with_capacity(select.len());
        for e in select {
            row.push(eval(&b, e.borrow())?);
        }
        out.push(row);
        Ok(())
    };
    if order_by.is_empty() {
        rows.take(limit).try_for_each(project)?;
    } else {
        let mut keyed: Vec<(Vec<Value>, B)> = Vec::with_capacity(rows.len());
        for b in rows {
            let keys = order_by
                .iter()
                .map(|k| eval(&b, &k.expr))
                .collect::<Result<_>>()?;
            keyed.push((keys, b));
        }
        sort_by_keys(&mut keyed, order_by);
        keyed
            .into_iter()
            .take(limit)
            .try_for_each(|(_, b)| project(b))?;
    }
    Ok(out)
}

/// The declared type of output column `i` of the rows
/// [`order_limit_select`] projected: a plain column keeps its `declared`
/// type; a computed column takes the type of its values — Int mixed with
/// Float is Float, as `sql::eval` turns an Int product past i64 into a
/// Float and an Int's text is also a valid double — and Float when it has
/// none.
pub(crate) fn column_type(declared: Option<DataType>, rows: &[Vec<Value>], i: usize) -> DataType {
    declared
        .or_else(|| {
            let mut types = rows.iter().filter_map(|r| r[i].data_type());
            let first = types.next()?;
            Some(match first {
                DataType::Int if types.any(|t| t == DataType::Float) => DataType::Float,
                _ => first,
            })
        })
        .unwrap_or(DataType::Float)
}

/// Sorts `(keys, payload)` pairs by the ORDER BY directions using the
/// total `key_cmp` ordering (NULLs first ascending, last descending).
fn sort_by_keys<T>(rows: &mut [(Vec<Value>, T)], order_by: &[OrderKey]) {
    rows.sort_by(|(a, _), (b, _)| {
        for (i, key) in order_by.iter().enumerate() {
            let ord = a[i].key_cmp(&b[i]);
            let ord = if key.direction == SortDirection::Desc {
                ord.reverse()
            } else {
                ord
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// GROUP BY / aggregate evaluation over the selected rows.
fn aggregate_rows<'t>(
    schema: &TableSchema,
    query: &Query,
    selected: &[usize],
    bind: impl Fn(usize) -> RowBindings<'t>,
) -> Result<ResultSet> {
    // Validate select items: aggregates, or plain GROUP BY key columns.
    for item in &query.select {
        if let SelectItem::Expr { expr, .. } = item {
            if !query.group_by.contains(expr) {
                return Err(FederationError::protocol(format!(
                    "non-aggregate select item {expr} must appear in GROUP BY"
                )));
            }
        }
    }
    // ORDER BY in aggregate mode may only use GROUP BY keys.
    for key in &query.order_by {
        if !query.group_by.contains(&key.expr) {
            return Err(FederationError::protocol(
                "ORDER BY in an aggregate query must name GROUP BY columns",
            ));
        }
    }

    // Group rows by the evaluated GROUP BY keys (whole-table = one group).
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    for &rid in selected {
        let b = bind(rid);
        let keys: Vec<Value> = query
            .group_by
            .iter()
            .map(|g| g.eval(&b).map_err(FederationError::Sql))
            .collect::<Result<_>>()?;
        match groups.iter_mut().find(|(k, _)| {
            k.iter()
                .zip(&keys)
                .all(|(a, b)| a.key_cmp(b) == std::cmp::Ordering::Equal)
        }) {
            Some((_, rids)) => rids.push(rid),
            None => groups.push((keys, vec![rid])),
        }
    }
    if groups.is_empty() && query.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    // Output columns.
    let declared = |e: &Expr| match e {
        Expr::Column { column, .. } => schema
            .column(column)
            .map(|c| c.dtype)
            .unwrap_or(DataType::Float),
        _ => DataType::Float,
    };
    let mut columns: Vec<ResultColumn> = Vec::new();
    for item in &query.select {
        let (name, dtype) = match item {
            SelectItem::CountStar => ("count(*)".to_string(), DataType::Int),
            SelectItem::Aggregate {
                func,
                arg,
                alias: out,
            } => (
                out.clone()
                    .unwrap_or_else(|| format!("{}({arg})", func.name())),
                match func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Min | AggFunc::Max => declared(arg),
                    AggFunc::Sum | AggFunc::Avg => DataType::Float,
                },
            ),
            SelectItem::Expr { expr, alias: out } => (
                out.clone().unwrap_or_else(|| expr.to_string()),
                declared(expr),
            ),
        };
        columns.push(ResultColumn::new(name, dtype));
    }

    // Evaluate each group.
    let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new(); // (order keys, row)
    for (keys, rids) in &groups {
        let mut row_out: Vec<Value> = Vec::with_capacity(query.select.len());
        for item in &query.select {
            let v = match item {
                SelectItem::CountStar => Value::Int(rids.len() as i64),
                SelectItem::Expr { expr, .. } => {
                    let idx = query
                        .group_by
                        .iter()
                        .position(|g| g == expr)
                        .expect("validated above");
                    keys[idx].clone()
                }
                SelectItem::Aggregate { func, arg, .. } => {
                    eval_aggregate(*func, arg, rids.iter().map(|&rid| bind(rid)))?
                }
            };
            row_out.push(v);
        }
        let order_keys: Vec<Value> = query
            .order_by
            .iter()
            .map(|k| {
                let idx = query
                    .group_by
                    .iter()
                    .position(|g| g == &k.expr)
                    .expect("validated above");
                keys[idx].clone()
            })
            .collect();
        out_rows.push((order_keys, row_out));
    }
    if !query.order_by.is_empty() {
        sort_by_keys(&mut out_rows, &query.order_by);
    }
    let mut rs = ResultSet::new(columns);
    let limit = query.limit.unwrap_or(usize::MAX);
    for (_, row) in out_rows.into_iter().take(limit) {
        rs.push_row(row)?;
    }
    Ok(rs)
}

/// One aggregate over one group's rows. NULL inputs are skipped per SQL;
/// empty inputs yield NULL (except COUNT, which yields 0).
fn eval_aggregate<'t>(
    func: AggFunc,
    arg: &Expr,
    rows: impl ExactSizeIterator<Item = RowBindings<'t>>,
) -> Result<Value> {
    let mut values: Vec<Value> = Vec::with_capacity(rows.len());
    for b in rows {
        let v = arg.eval(&b).map_err(FederationError::Sql)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    Ok(match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Min => values
            .into_iter()
            .min_by(|a, b| a.key_cmp(b))
            .unwrap_or(Value::Null),
        AggFunc::Max => values
            .into_iter()
            .max_by(|a, b| a.key_cmp(b))
            .unwrap_or(Value::Null),
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                Value::Null
            } else {
                let mut total = 0.0;
                for v in &values {
                    total += v.as_f64().ok_or_else(|| {
                        FederationError::protocol(format!(
                            "{} over non-numeric value {v}",
                            func.name()
                        ))
                    })?;
                }
                if func == AggFunc::Sum {
                    Value::Float(total)
                } else {
                    Value::Float(total / values.len() as f64)
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_sql::parse_query;
    use skyquery_storage::{ColumnDef, DataType, PositionColumns, TableSchema};

    fn db() -> Database {
        let mut db = Database::new("SDSS");
        let schema = TableSchema::new(
            "Photo_Object",
            vec![
                ColumnDef::new("object_id", DataType::Id),
                ColumnDef::new("ra", DataType::Float),
                ColumnDef::new("dec", DataType::Float),
                ColumnDef::new("type", DataType::Text),
                ColumnDef::new("i_flux", DataType::Float),
            ],
        )
        .with_position(PositionColumns::new("ra", "dec", 12))
        .unwrap();
        db.create_table(schema).unwrap();
        let rows = [
            (1u64, 185.0, -0.5, "GALAXY", 21.0),
            (2, 185.01, -0.49, "STAR", 19.0),
            (3, 185.02, -0.51, "GALAXY", 22.0),
            (4, 200.0, 10.0, "GALAXY", 18.0),
        ];
        for (id, ra, dec, ty, flux) in rows {
            db.insert(
                "Photo_Object",
                vec![
                    Value::Id(id),
                    Value::Float(ra),
                    Value::Float(dec),
                    Value::Text(ty.into()),
                    Value::Float(flux),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn count_star_with_area_and_predicate() {
        let mut db = db();
        // 4.5 arcmin around (185, -0.5) covers objects 1–3; GALAXY keeps 1,3.
        let q = parse_query(
            "SELECT count(*) FROM SDSS:Photo_Object O \
             WHERE AREA(185.0, -0.5, 4.5) AND O.type = GALAXY",
        )
        .unwrap();
        match execute_local(&mut db, "SDSS", &q).unwrap() {
            LocalQueryResult::Count(n) => assert_eq!(n, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn projection_returns_rows() {
        let mut db = db();
        let q = parse_query(
            "SELECT O.object_id, O.i_flux FROM SDSS:Photo_Object O WHERE O.i_flux > 20",
        )
        .unwrap();
        match execute_local(&mut db, "SDSS", &q).unwrap() {
            LocalQueryResult::Rows(rs) => {
                assert_eq!(rs.row_count(), 2);
                assert_eq!(rs.columns[0].name, "O.object_id");
                assert_eq!(rs.columns[0].dtype, DataType::Id);
                assert_eq!(rs.value(0, "O.object_id"), Some(&Value::Id(1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn computed_select_items() {
        let mut db = db();
        let q =
            parse_query("SELECT O.i_flux - 1 AS f FROM SDSS:Photo_Object O WHERE O.object_id = 1")
                .unwrap();
        match execute_local(&mut db, "SDSS", &q).unwrap() {
            LocalQueryResult::Rows(rs) => {
                assert_eq!(rs.columns[0].name, "f");
                assert_eq!(rs.value(0, "f"), Some(&Value::Float(20.0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_archive_refused() {
        let mut db = db();
        let q = parse_query("SELECT count(*) FROM TWOMASS:Photo_Object O").unwrap();
        assert!(execute_local(&mut db, "SDSS", &q).is_err());
    }

    #[test]
    fn multi_table_refused() {
        let mut db = db();
        let q = parse_query("SELECT O.a FROM SDSS:T1 O, SDSS:T2 U").unwrap();
        assert!(execute_local(&mut db, "SDSS", &q).is_err());
    }

    #[test]
    fn xmatch_refused_locally() {
        let mut db = db();
        let q = parse_query("SELECT O.object_id FROM SDSS:Photo_Object O WHERE XMATCH(O, T) < 3.5")
            .unwrap();
        assert!(execute_local(&mut db, "SDSS", &q).is_err());
    }

    #[test]
    fn area_without_position_index_errors() {
        let mut db = Database::new("X");
        db.create_table(TableSchema::new(
            "plain",
            vec![ColumnDef::new("a", DataType::Int)],
        ))
        .unwrap();
        let q = parse_query("SELECT count(*) FROM X:plain P WHERE AREA(1.0, 2.0, 3.0)").unwrap();
        assert!(execute_local(&mut db, "X", &q).is_err());
    }

    #[test]
    fn no_where_scans_everything() {
        let mut db = db();
        let q = parse_query("SELECT count(*) FROM SDSS:Photo_Object O").unwrap();
        assert_eq!(
            execute_local(&mut db, "SDSS", &q).unwrap(),
            LocalQueryResult::Count(4)
        );
    }
}
