//! The count-star performance query predicts the seed (§5.3, §5.4). At
//! every archive of the paper's triple, the Query service's `count(*)`
//! over an archive's clauses equals the number of 1-tuples the seed step
//! emits for the same clauses, and the object ids the Query service
//! selects are the seed's, in the seed's order. Cases cover AREA cones,
//! POLYGONs, local predicates, an indexed equality (`O.type`) with no
//! spatial clause, and seeds that read only rows at or after a
//! `from_row`.

use std::collections::HashMap;

use skyquery_core::query_exec::{execute_local, LocalQueryResult};
use skyquery_core::xmatch::seed_step;
use skyquery_core::{MatchKernel, Region, StepConfig};
use skyquery_sim::FederationBuilder;
use skyquery_sql::{parse_query, Expr, RegionSpec};
use skyquery_storage::{Database, Value};

/// WHERE clauses over alias `O`, each a spatial clause and/or local
/// predicates.
const CASES: &[&str] = &[
    "AREA(185.0, -0.5, 4.5)",
    "AREA(185.0, -0.5, 20.0) AND O.type = 'GALAXY'",
    "AREA(185.3, -0.2, 12.0) AND O.i_flux > 5 AND O.type = 'STAR'",
    "POLYGON(184.8, -0.8, 185.4, -0.8, 185.4, -0.1)",
    "POLYGON(184.5, -1.0, 185.5, -1.0, 185.5, 0.0, 184.5, 0.0) AND O.i_flux < 20",
    "O.type = 'GALAXY'",
    "O.type = 'GALAXY' AND O.i_flux > 5",
    "O.i_flux BETWEEN 2 AND 50",
];

/// The Query service's answer to `select` over `table` under `clauses`.
fn query(
    db: &mut Database,
    archive: &str,
    table: &str,
    select: &str,
    clauses: &str,
) -> LocalQueryResult {
    let sql = format!("SELECT {select} FROM {archive}:{table} O WHERE {clauses}");
    execute_local(db, archive, &parse_query(&sql).unwrap()).unwrap()
}

/// The seed step's configuration for the same clauses: the spatial
/// conjunct as the region, the rest joined as the local predicate.
fn seed_config(table: &str, clauses: &str, from_row: usize) -> StepConfig {
    let q = parse_query(&format!("SELECT count(*) FROM X:{table} O WHERE {clauses}")).unwrap();
    let mut region = None;
    let mut local = Vec::new();
    for c in q.where_clause.as_ref().unwrap().conjuncts() {
        match c {
            Expr::Area(a) => region = Some(Region::from_spec(&RegionSpec::Circle(*a)).unwrap()),
            Expr::Polygon(p) => {
                region = Some(Region::from_spec(&RegionSpec::Polygon(p.clone())).unwrap())
            }
            other => local.push(other.clone()),
        }
    }
    StepConfig {
        alias: "O".into(),
        table: table.into(),
        sigma_rad: (0.3_f64 / 3600.0).to_radians(),
        threshold: 3.5,
        region,
        local_predicate: Expr::and_all(local),
        carried_columns: vec!["object_id".into()],
        kernel: MatchKernel::default(),
        from_row,
    }
}

/// The seed's object ids and its `tuples_out`.
fn seed_ids(db: &mut Database, cfg: &StepConfig) -> (Vec<Value>, usize) {
    let (set, stats) = seed_step(db, cfg).unwrap();
    let ids = set.tuples.iter().map(|t| t.values[0].clone()).collect();
    (ids, stats.tuples_out)
}

fn id(v: &Value) -> u64 {
    match v {
        Value::Id(id) => *id,
        other => panic!("object_id {other:?} is not an id"),
    }
}

#[test]
fn count_star_and_query_rows_are_the_seed() {
    let fed = FederationBuilder::paper_triple(1500).build();
    let mut selected = 0;
    for survey in &fed.surveys {
        let (archive, table) = (survey.name.as_str(), survey.table.as_str());
        fed.node(archive).unwrap().with_db(|db| {
            let rows = db.row_count(table).unwrap();
            // Row id of every object id, to cut the Query service's
            // answer at a seed's from_row.
            let row_of: HashMap<u64, usize> = db
                .table(table)
                .unwrap()
                .rows()
                .iter()
                .enumerate()
                .map(|(rid, row)| (id(&row[0]), rid))
                .collect();
            for clauses in CASES {
                let count = match query(db, archive, table, "count(*)", clauses) {
                    LocalQueryResult::Count(n) => n as usize,
                    other => panic!("count(*) answered {other:?}"),
                };
                let ids: Vec<Value> = match query(db, archive, table, "O.object_id", clauses) {
                    LocalQueryResult::Rows(rs) => {
                        rs.rows.into_iter().map(|r| r[0].clone()).collect()
                    }
                    other => panic!("a projection answered {other:?}"),
                };
                assert_eq!(ids.len(), count, "{archive}: {clauses}");

                let (seed, tuples_out) = seed_ids(db, &seed_config(table, clauses, 0));
                assert_eq!(
                    tuples_out, count,
                    "{archive}: count(*) vs seed for {clauses}"
                );
                assert_eq!(seed, ids, "{archive}: selected ids vs seed for {clauses}");
                selected += count;

                for from_row in [1, rows / 2, rows] {
                    let (seed, tuples_out) = seed_ids(db, &seed_config(table, clauses, from_row));
                    let tail: Vec<Value> = ids
                        .iter()
                        .filter(|v| row_of[&id(v)] >= from_row)
                        .cloned()
                        .collect();
                    assert_eq!(
                        tuples_out,
                        tail.len(),
                        "{archive}: {clauses} from row {from_row}"
                    );
                    assert_eq!(seed, tail, "{archive}: {clauses} from row {from_row}");
                }
            }
        });
    }
    assert!(selected > 0, "the cases select nothing");
}
