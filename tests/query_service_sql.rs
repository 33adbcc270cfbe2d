//! The Query service as "a general-purpose database querying service"
//! (§5.1): aggregates, GROUP BY, ORDER BY, LIMIT at a single archive —
//! and ORDER BY / LIMIT applied by the Portal to federated cross-match
//! results.

use skyquery_core::query_exec::{execute_local, LocalQueryResult};
use skyquery_core::skynode::send_rpc;
use skyquery_sim::{FederationBuilder, QuerySpec};
use skyquery_soap::{RpcCall, SoapValue};
use skyquery_sql::parse_query;
use skyquery_storage::{ColumnDef, DataType, Database, TableSchema, Value};

fn stats_db() -> Database {
    let mut db = Database::new("SDSS");
    db.create_table(TableSchema::new(
        "obj",
        vec![
            ColumnDef::new("id", DataType::Id),
            ColumnDef::new("type", DataType::Text),
            ColumnDef::new("flux", DataType::Float).nullable(),
        ],
    ))
    .unwrap();
    let rows = [
        (1u64, "GALAXY", Some(10.0)),
        (2, "GALAXY", Some(30.0)),
        (3, "STAR", Some(5.0)),
        (4, "STAR", None),
        (5, "QSO", Some(100.0)),
    ];
    for (id, ty, flux) in rows {
        db.insert(
            "obj",
            vec![
                Value::Id(id),
                Value::Text(ty.into()),
                flux.map(Value::Float).unwrap_or(Value::Null),
            ],
        )
        .unwrap();
    }
    db
}

fn rows_of(db: &mut Database, sql: &str) -> skyquery_core::ResultSet {
    match execute_local(db, "SDSS", &parse_query(sql).unwrap()).unwrap() {
        LocalQueryResult::Rows(rs) => rs,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn whole_table_aggregates() {
    let mut db = stats_db();
    let rs = rows_of(
        &mut db,
        "SELECT count(O.flux), min(O.flux), max(O.flux), sum(O.flux), avg(O.flux) \
         FROM SDSS:obj O",
    );
    assert_eq!(rs.row_count(), 1);
    // count skips the NULL flux.
    assert_eq!(rs.rows[0][0], Value::Int(4));
    assert_eq!(rs.rows[0][1], Value::Float(5.0));
    assert_eq!(rs.rows[0][2], Value::Float(100.0));
    assert_eq!(rs.rows[0][3], Value::Float(145.0));
    assert_eq!(rs.rows[0][4], Value::Float(145.0 / 4.0));
}

#[test]
fn aggregates_over_empty_input() {
    let mut db = stats_db();
    let rs = rows_of(
        &mut db,
        "SELECT count(O.flux), min(O.flux), sum(O.flux) FROM SDSS:obj O WHERE O.flux > 1000",
    );
    assert_eq!(rs.rows[0][0], Value::Int(0));
    assert_eq!(rs.rows[0][1], Value::Null);
    assert_eq!(rs.rows[0][2], Value::Null);
}

#[test]
fn group_by_with_ordering() {
    let mut db = stats_db();
    let rs = rows_of(
        &mut db,
        "SELECT O.type, count(*) AS n, max(O.flux) AS brightest \
         FROM SDSS:obj O GROUP BY O.type ORDER BY O.type",
    );
    assert_eq!(rs.row_count(), 3);
    assert_eq!(rs.columns[1].name, "n");
    // Alphabetical: GALAXY, QSO, STAR.
    assert_eq!(rs.rows[0][0], Value::Text("GALAXY".into()));
    assert_eq!(rs.rows[0][1], Value::Int(2));
    assert_eq!(rs.rows[0][2], Value::Float(30.0));
    assert_eq!(rs.rows[1][0], Value::Text("QSO".into()));
    assert_eq!(rs.rows[2][0], Value::Text("STAR".into()));
    // STAR group: one NULL flux — max over the non-null 5.0.
    assert_eq!(rs.rows[2][2], Value::Float(5.0));
}

#[test]
fn order_by_and_limit_plain_select() {
    let mut db = stats_db();
    let rs = rows_of(
        &mut db,
        "SELECT O.id, O.flux FROM SDSS:obj O ORDER BY O.flux DESC LIMIT 2",
    );
    assert_eq!(rs.row_count(), 2);
    assert_eq!(rs.rows[0][0], Value::Id(5)); // flux 100
    assert_eq!(rs.rows[1][0], Value::Id(2)); // flux 30
}

#[test]
fn order_by_nulls_and_asc() {
    let mut db = stats_db();
    let rs = rows_of(&mut db, "SELECT O.id FROM SDSS:obj O ORDER BY O.flux ASC");
    // key_cmp sorts NULL first ascending.
    assert_eq!(rs.rows[0][0], Value::Id(4));
    assert_eq!(rs.rows[1][0], Value::Id(3));
}

#[test]
fn aggregate_mode_validations() {
    let mut db = stats_db();
    // Non-aggregate item not in GROUP BY.
    let q = parse_query("SELECT O.id, count(*) FROM SDSS:obj O GROUP BY O.type").unwrap();
    assert!(execute_local(&mut db, "SDSS", &q).is_err());
    // ORDER BY non-key in aggregate mode.
    let q = parse_query("SELECT O.type, count(*) FROM SDSS:obj O GROUP BY O.type ORDER BY O.flux")
        .unwrap();
    assert!(execute_local(&mut db, "SDSS", &q).is_err());
}

#[test]
fn pure_count_star_still_fast_path() {
    let mut db = stats_db();
    let q = parse_query("SELECT count(*) FROM SDSS:obj O").unwrap();
    assert_eq!(
        execute_local(&mut db, "SDSS", &q).unwrap(),
        LocalQueryResult::Count(5)
    );
}

#[test]
fn print_parse_roundtrip_with_new_clauses() {
    for sql in [
        "SELECT O.type, count(*) FROM SDSS:obj O GROUP BY O.type ORDER BY O.type DESC LIMIT 5",
        "SELECT max(O.flux) AS m FROM SDSS:obj O",
        "SELECT O.id FROM SDSS:obj O ORDER BY O.flux, O.id DESC",
        "SELECT avg(O.flux) FROM SDSS:obj O WHERE O.type IN ('GALAXY')",
    ] {
        let q = parse_query(sql).unwrap();
        let back = parse_query(&q.to_string()).unwrap();
        assert_eq!(back, q, "{sql}");
    }
}

#[test]
fn aggregates_over_soap_query_service() {
    let fed = FederationBuilder::paper_triple(400).build();
    let node = fed.node("SDSS").unwrap();
    let resp = send_rpc(
        &fed.net,
        "probe",
        &node.url(),
        &RpcCall::new("Query").param(
            "sql",
            SoapValue::Str(
                "SELECT O.type, count(*) AS n, avg(O.i_flux) AS mean_flux \
                 FROM SDSS:Photo_Object O GROUP BY O.type ORDER BY O.type"
                    .into(),
            ),
        ),
    )
    .unwrap();
    let table = resp.require("rows").unwrap().as_table().unwrap().clone();
    let rs = skyquery_core::ResultSet::from_votable(table).unwrap();
    assert_eq!(rs.row_count(), 2); // GALAXY + STAR
    let total: i64 = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(
        total as usize,
        node.with_db(|db| db.row_count("Photo_Object").unwrap())
    );
}

#[test]
fn federated_order_by_and_limit() {
    let fed = FederationBuilder::paper_triple(600).build();
    let sql = QuerySpec {
        archives: vec![
            ("SDSS".into(), "Photo_Object".into(), "O".into(), false),
            ("TWOMASS".into(), "Photo_Primary".into(), "T".into(), false),
        ],
        threshold: 3.5,
        area: None,
        polygon: None,
        predicates: vec![],
        select: vec!["O.object_id".into(), "O.i_flux".into()],
    }
    .to_sql()
        + " ORDER BY O.i_flux DESC LIMIT 5";
    let (result, _) = fed.portal.submit(&sql).unwrap();
    assert_eq!(result.row_count(), 5);
    // Rows are in descending flux order.
    let fluxes: Vec<f64> = result.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
    for w in fluxes.windows(2) {
        assert!(w[0] >= w[1], "not sorted: {fluxes:?}");
    }
    // And they are the global top-5: compare against the unlimited run.
    let unlimited = QuerySpec {
        archives: vec![
            ("SDSS".into(), "Photo_Object".into(), "O".into(), false),
            ("TWOMASS".into(), "Photo_Primary".into(), "T".into(), false),
        ],
        threshold: 3.5,
        area: None,
        polygon: None,
        predicates: vec![],
        select: vec!["O.object_id".into(), "O.i_flux".into()],
    }
    .to_sql();
    let (all, _) = fed.portal.submit(&unlimited).unwrap();
    let mut all_fluxes: Vec<f64> = all.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
    all_fluxes.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert_eq!(&fluxes[..], &all_fluxes[..5]);
}

#[test]
fn federated_aggregates_rejected() {
    let fed = FederationBuilder::paper_triple(100).build();
    let err = fed
        .portal
        .submit(
            "SELECT max(O.i_flux) FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T \
             WHERE XMATCH(O, T) < 3.5",
        )
        .unwrap_err();
    assert!(err.to_string().contains("aggregates"), "{err}");
    let err = fed
        .portal
        .submit(
            "SELECT O.object_id FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T \
             WHERE XMATCH(O, T) < 3.5 GROUP BY O.type",
        )
        .unwrap_err();
    assert!(err.to_string().contains("GROUP BY"), "{err}");
}

#[test]
fn explain_renders_the_plan_without_executing() {
    let fed = FederationBuilder::paper_triple(300).build();
    let sql = QuerySpec {
        archives: vec![
            ("SDSS".into(), "Photo_Object".into(), "O".into(), false),
            ("TWOMASS".into(), "Photo_Primary".into(), "T".into(), false),
            ("FIRST".into(), "Primary_Object".into(), "P".into(), true),
        ],
        threshold: 3.5,
        area: Some((185.0, -0.5, 30.0)),
        polygon: None,
        predicates: vec![
            "O.type = 'GALAXY'".into(),
            "(O.i_flux - T.i_flux) > 2".into(),
        ],
        select: vec!["O.object_id".into(), "T.object_id".into()],
    }
    .to_sql()
        + " ORDER BY O.object_id LIMIT 10";
    fed.net.reset_metrics();
    let text = fed.portal.explain(&sql).unwrap();
    // Only performance queries hit the wire: 2 mandatory archives × 1
    // round trip = 4 messages, no cross-match calls.
    assert_eq!(fed.net.metrics().total().messages, 4);
    assert!(text.contains("performance queries:"), "{text}");
    assert!(text.contains("AREA(185.0, -0.5, 30.0)"), "{text}");
    assert!(text.contains("!P"), "dropout marked: {text}");
    assert!(text.contains("local:    O.type = 'GALAXY'"), "{text}");
    assert!(text.contains("residual: O.i_flux - T.i_flux > 2"), "{text}");
    assert!(text.contains("order by: O.object_id"), "{text}");
    assert!(text.contains("limit: 10"), "{text}");
}

#[test]
fn equality_pushdown_uses_the_type_index() {
    // Surveys index `type`; a whole-sky equality query probes the B-tree
    // instead of scanning, which the buffer-cache accounting exposes.
    let fed = FederationBuilder::paper_triple(2000).build();
    let node = fed.node("SDSS").unwrap();
    let total = node.with_db(|db| db.row_count("Photo_Object").unwrap());
    let (galaxies, accesses) = node.with_db(|db| {
        db.reset_cache_stats();
        let q = parse_query("SELECT O.object_id FROM SDSS:Photo_Object O WHERE O.type = 'GALAXY'")
            .unwrap();
        let rs = match execute_local(db, "SDSS", &q).unwrap() {
            LocalQueryResult::Rows(rs) => rs,
            other => panic!("{other:?}"),
        };
        (rs.row_count(), db.cache_stats().accesses() as usize)
    });
    assert!(galaxies > 0 && galaxies < total);
    assert!(
        accesses < total,
        "index probe should touch fewer rows ({accesses}) than a scan ({total})"
    );
    // Same result as the scan path (predicate re-evaluated regardless).
    let via_scan = node.with_db(|db| {
        let q = parse_query(
            "SELECT O.object_id FROM SDSS:Photo_Object O WHERE O.type = GALAXY AND 1 = 1",
        )
        .unwrap();
        match execute_local(db, "SDSS", &q).unwrap() {
            LocalQueryResult::Rows(rs) => rs.row_count(),
            other => panic!("{other:?}"),
        }
    });
    assert_eq!(galaxies, via_scan);
}

#[test]
fn a_computed_column_declares_one_type_at_a_node_and_at_the_portal() {
    let fed = FederationBuilder::paper_triple(300).build();
    let node = fed.node("SDSS").unwrap();
    let resp = send_rpc(
        &fed.net,
        "probe",
        &node.url(),
        &RpcCall::new("Query").param(
            "sql",
            SoapValue::Str("SELECT 1 + 2 AS n FROM SDSS:Photo_Object O".into()),
        ),
    )
    .unwrap();
    let table = resp.require("rows").unwrap().as_table().unwrap().clone();
    let at_node = skyquery_core::ResultSet::from_votable(table).unwrap();
    let (at_portal, _) = fed
        .portal
        .submit(
            "SELECT 1 + 2 AS n FROM SDSS:Photo_Object O, TWOMASS:Photo_Primary T \
             WHERE XMATCH(O, T) < 3.5",
        )
        .unwrap();
    assert!(at_node.row_count() > 0 && at_portal.row_count() > 0);
    assert_eq!(at_node.columns[0].dtype, DataType::Int);
    assert_eq!(at_node.columns, at_portal.columns);
}
