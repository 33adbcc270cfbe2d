//! Transactional data exchange between archives (§6 extension).
//!
//! The paper's future work: "Another extension is to implement
//! transaction processing for exchange of data between astronomy
//! archives, and see how the stateless SOAP handles such complex
//! requirements." This module does exactly that: an atomic bulk copy of
//! rows from one archive to another, coordinated by the Portal with a
//! **two-phase commit** over stateless SOAP calls.
//!
//! Protocol (coordinator = Portal, participant = destination SkyNode):
//!
//! 1. The coordinator pulls the source rows through the source node's
//!    Query service.
//! 2. **Prepare**: `PrepareReceive(txn, dest_table, schema, rows)` — the
//!    participant validates the schema, stages the rows in a temp table,
//!    records the transaction, and votes yes by answering `staged = n`.
//!    Any validation failure is a no vote (SOAP fault), leaving nothing
//!    behind.
//! 3. **Commit**: `CommitReceive(txn)` — the participant atomically
//!    publishes the staged rows into the destination table (creating it
//!    if needed) and forgets the transaction. Or **Abort**:
//!    `AbortReceive(txn)` — the staging table is dropped.
//!
//! The participant's staging tables make prepare durable-until-decided;
//! because SOAP is stateless, the transaction id carried in every call is
//! the only shared context — exactly the experiment the paper proposed.

use skyquery_soap::{RpcCall, SoapValue};
use skyquery_sql::parse_query;
use skyquery_storage::{ColumnDef, TableSchema};
use skyquery_xml::Element;

use crate::error::{field, FederationError, Result};
use crate::meta::{catalog_from_element, catalog_to_element};
use crate::portal::Portal;
use crate::result::ResultSet;
use crate::service::take_table;
use crate::transfer::send_rpc_with;

/// Outcome of a completed transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferReport {
    /// The two-phase-commit transaction id.
    pub txn_id: u64,
    /// Rows published at the destination.
    pub rows_copied: usize,
    /// Source archive name.
    pub source: String,
    /// Destination archive name.
    pub destination: String,
    /// Destination table name.
    pub dest_table: String,
}

impl Portal {
    /// Atomically copies the result of `select_sql` (a single-archive
    /// query against `source_archive`) into `dest_table` at
    /// `dest_archive`, using two-phase commit. Returns the transfer
    /// report, or an error with nothing published at the destination.
    pub fn transfer_table(
        &self,
        source_archive: &str,
        select_sql: &str,
        dest_archive: &str,
        dest_table: &str,
    ) -> Result<TransferReport> {
        let source = self.node(source_archive).ok_or_else(|| {
            FederationError::planning(format!("archive {source_archive} is not registered"))
        })?;
        let dest = self.node(dest_archive).ok_or_else(|| {
            FederationError::planning(format!("archive {dest_archive} is not registered"))
        })?;
        // Validate the query addresses the source archive (autonomy).
        let parsed = parse_query(select_sql).map_err(FederationError::Sql)?;
        if parsed.from.len() != 1 || !parsed.from[0].archive.eq_ignore_ascii_case(source_archive) {
            return Err(FederationError::planning(format!(
                "transfer query must select from exactly {source_archive}"
            )));
        }

        // Pull the rows.
        let net = &self.net;
        let retry = self.config().retry;
        let mut resp = send_rpc_with(
            net,
            self.host(),
            &source.url,
            &RpcCall::new("Query").param("sql", SoapValue::Str(select_sql.to_string())),
            retry,
        )?;
        let rows = ResultSet::from_votable(take_table(&mut resp.results, "rows")?)?;

        // Derive the destination schema from the result columns
        // (unqualified names).
        let columns: Vec<ColumnDef> = rows
            .columns
            .iter()
            .map(|c| {
                let name = c
                    .name
                    .rsplit_once('.')
                    .map(|(_, n)| n)
                    .unwrap_or(&c.name)
                    .to_string();
                ColumnDef::new(name, c.dtype).nullable()
            })
            .collect();
        let schema = TableSchema::new(dest_table, columns);
        let schema_el = catalog_to_element(&skyquery_storage::Catalog {
            database: dest_archive.to_string(),
            tables: vec![skyquery_storage::TableStats {
                schema,
                row_count: rows.row_count(),
                approx_bytes: 0,
                version: 0,
            }],
        });

        let txn_id = next_txn_id();

        // Phase 1: prepare.
        let prepare = RpcCall::new("PrepareReceive")
            .param("txn", SoapValue::Int(txn_id as i64))
            .param("dest_table", SoapValue::Str(dest_table.to_string()))
            .param("schema", SoapValue::Xml(schema_el))
            .param("rows", SoapValue::Table(rows.to_votable("transfer")));
        let vote = send_rpc_with(net, self.host(), &dest.url, &prepare, retry);
        let staged = match vote {
            Ok(resp) => field::<i64>(&resp.results, "staged")?,
            Err(e) => {
                // No vote: nothing was staged (or the participant cleaned
                // up); the coordinator simply reports failure.
                return Err(e);
            }
        };

        // Phase 2: commit (on any failure here, try to abort so staging
        // is not leaked, then surface the original error — and if the
        // abort *also* fails, say so: the participant may be holding an
        // undecided staging table, and the caller must know).
        let commit = RpcCall::new("CommitReceive").param("txn", SoapValue::Int(txn_id as i64));
        match send_rpc_with(net, self.host(), &dest.url, &commit, retry) {
            Ok(resp) => {
                // The participant reports the destination table's new
                // modification version. Feeding it to the registry keeps
                // the result cache's version vectors honest without a
                // re-register; a negative one would wrap and stick under
                // the registry's `max`.
                let version = field(&resp.results, "version")?;
                self.update_registry_version(&dest.url.host, dest_table, version);
                Ok(TransferReport {
                    txn_id,
                    rows_copied: staged as usize,
                    source: source_archive.to_string(),
                    destination: dest_archive.to_string(),
                    dest_table: dest_table.to_string(),
                })
            }
            Err(commit_err) => {
                let abort =
                    RpcCall::new("AbortReceive").param("txn", SoapValue::Int(txn_id as i64));
                match send_rpc_with(net, self.host(), &dest.url, &abort, retry) {
                    Ok(_) => {
                        net.record_fault(self.host(), &dest.url.host, "exchange-abort");
                        Err(commit_err)
                    }
                    Err(abort_err) => {
                        net.record_fault(self.host(), &dest.url.host, "exchange-abort-failed");
                        Err(FederationError::AbortFailed {
                            txn: txn_id,
                            host: dest.url.host.clone(),
                            commit: Box::new(commit_err),
                            abort: Box::new(abort_err),
                        })
                    }
                }
            }
        }
    }
}

fn next_txn_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Participant-side staging state, owned by each SkyNode.
///
/// Every staged transaction carries a TTL lease against the node's
/// simulated clock ([`crate::lease::LeaseTable`]): a coordinator that
/// crashes between prepare and decision no longer strands a staging
/// table forever — the node's janitor sweep ([`ExchangeState::sweep`])
/// aborts the orphan once its lease lapses.
#[derive(Debug, Default)]
pub struct ExchangeState {
    /// txn id → (destination table, staging temp-table name, schema),
    /// leased.
    staged: crate::lease::LeaseTable<StagedTransfer>,
    /// Staging tables the abort paths failed to drop. Mirrors the
    /// `AbortFailed` discipline of the coordinator: a failed cleanup is
    /// never silent — the table may still be pinning node memory, and
    /// operators watching this tally know to go look.
    drop_failures: u64,
}

#[derive(Debug)]
struct StagedTransfer {
    dest_table: String,
    staging_table: String,
    schema: TableSchema,
}

impl ExchangeState {
    /// No transactions staged.
    pub fn new() -> ExchangeState {
        ExchangeState::default()
    }

    /// Phase 1 at the participant: validate and stage. The stage is held
    /// under a lease of `ttl_s` simulated seconds from `now_s`; an
    /// undecided transaction whose coordinator never returns is aborted
    /// by [`ExchangeState::sweep`] once the lease lapses.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        &mut self,
        db: &mut skyquery_storage::Database,
        txn: u64,
        dest_table: &str,
        schema_el: &Element,
        rows: &ResultSet,
        now_s: f64,
        ttl_s: f64,
    ) -> Result<usize> {
        if self.staged.contains(txn) {
            return Err(FederationError::protocol(format!(
                "transaction {txn} already prepared"
            )));
        }
        let catalog = catalog_from_element(schema_el)?;
        let stats = catalog
            .tables
            .first()
            .ok_or_else(|| FederationError::protocol("transfer schema missing table"))?;
        let mut schema = stats.schema.clone();
        schema.name = dest_table.to_string();
        // If the destination table already exists, its schema must match
        // (same column names and types, in order).
        if db.has_table(dest_table) {
            let existing = db.schema(dest_table)?;
            let compatible = existing.columns.len() == schema.columns.len()
                && existing
                    .columns
                    .iter()
                    .zip(&schema.columns)
                    .all(|(a, b)| a.name == b.name && a.dtype == b.dtype);
            if !compatible {
                return Err(FederationError::protocol(format!(
                    "destination table {dest_table} exists with an incompatible schema"
                )));
            }
        }
        // Stage: all rows must insert cleanly or the whole prepare fails
        // (the staging table is dropped — a clean no-vote).
        let staging = db.create_temp_table(schema.clone())?;
        for row in &rows.rows {
            if let Err(e) = db.insert(&staging, row.clone()) {
                // The no-vote must leave nothing behind; a drop that
                // fails here leaks the staging table, so tally it.
                if db.drop_table(&staging).is_err() {
                    self.drop_failures += 1;
                }
                return Err(FederationError::Storage(e));
            }
        }
        let n = rows.row_count();
        self.staged.insert(
            txn,
            StagedTransfer {
                dest_table: dest_table.to_string(),
                staging_table: staging,
                schema,
            },
            now_s,
            ttl_s,
        );
        Ok(n)
    }

    /// Phase 2 commit: publish staged rows. Returns the row count
    /// published and the destination table's post-commit modification
    /// version, which rides back to the coordinator so its cached view
    /// of this archive's versions stays current without a Metadata call.
    pub fn commit(
        &mut self,
        db: &mut skyquery_storage::Database,
        txn: u64,
    ) -> Result<(usize, u64)> {
        let t = self
            .staged
            .remove(txn)
            .ok_or_else(|| FederationError::protocol(format!("unknown transaction {txn}")))?;
        if !db.has_table(&t.dest_table) {
            let mut schema = t.schema.clone();
            schema.name = t.dest_table.clone();
            db.create_table(schema)?;
        }
        let rows: Vec<skyquery_storage::Row> = db.table(&t.staging_table)?.rows().to_vec();
        let n = rows.len();
        for row in rows {
            db.insert(&t.dest_table, row)?;
        }
        db.drop_table(&t.staging_table)?;
        let version = db.table_version(&t.dest_table)?;
        Ok((n, version))
    }

    /// Phase 2 abort: drop staging.
    pub fn abort(&mut self, db: &mut skyquery_storage::Database, txn: u64) -> Result<()> {
        let t = self
            .staged
            .remove(txn)
            .ok_or_else(|| FederationError::protocol(format!("unknown transaction {txn}")))?;
        db.drop_table(&t.staging_table)?;
        Ok(())
    }

    /// Janitor sweep: aborts every staged transaction whose lease expired
    /// at or before `now_s`, dropping its staging table. Returns the
    /// reclaimed transaction ids, sorted.
    pub fn sweep(&mut self, db: &mut skyquery_storage::Database, now_s: f64) -> Vec<u64> {
        let mut expired = self.staged.sweep(now_s);
        let mut out = Vec::with_capacity(expired.len());
        for (txn, t) in expired.drain(..) {
            // A staging table that will not drop is a leak the janitor
            // cannot fix by itself: tally it instead of pretending the
            // sweep reclaimed everything.
            if db.drop_table(&t.staging_table).is_err() {
                self.drop_failures += 1;
            }
            out.push(txn);
        }
        out
    }

    /// Transactions currently awaiting a decision.
    pub fn pending(&self) -> Vec<u64> {
        self.staged.ids()
    }

    /// How many staging tables the abort paths (a failed prepare's
    /// unwind, the janitor sweep) failed to drop.
    pub fn drop_failures(&self) -> u64 {
        self.drop_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_storage::{DataType, Database, Value};

    fn rows() -> ResultSet {
        let mut rs = ResultSet::new(vec![
            crate::result::ResultColumn::new("S.object_id", DataType::Id),
            crate::result::ResultColumn::new("S.flux", DataType::Float),
        ]);
        rs.push_row(vec![Value::Id(1), Value::Float(10.0)]).unwrap();
        rs.push_row(vec![Value::Id(2), Value::Float(20.0)]).unwrap();
        rs
    }

    fn schema_element(rows: &ResultSet, dest: &str) -> Element {
        let columns: Vec<ColumnDef> = rows
            .columns
            .iter()
            .map(|c| {
                let name = c.name.rsplit_once('.').map(|(_, n)| n).unwrap_or(&c.name);
                ColumnDef::new(name, c.dtype).nullable()
            })
            .collect();
        catalog_to_element(&skyquery_storage::Catalog {
            database: "X".into(),
            tables: vec![skyquery_storage::TableStats {
                schema: TableSchema::new(dest, columns),
                row_count: rows.row_count(),
                approx_bytes: 0,
                version: 0,
            }],
        })
    }

    #[test]
    fn prepare_commit_publishes_rows() {
        let mut db = Database::new("dest");
        let mut state = ExchangeState::new();
        let rs = rows();
        let n = state
            .prepare(
                &mut db,
                7,
                "imported",
                &schema_element(&rs, "imported"),
                &rs,
                0.0,
                60.0,
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(state.pending(), vec![7]);
        // Not visible before commit.
        assert!(!db.has_table("imported"));
        let (n, version) = state.commit(&mut db, 7).unwrap();
        assert_eq!(n, 2);
        // The published version counts the inserts that landed.
        assert_eq!(version, 2);
        assert_eq!(db.row_count("imported").unwrap(), 2);
        assert!(state.pending().is_empty());
        // Staging table is gone.
        assert_eq!(db.catalog().tables.len(), 1);
    }

    #[test]
    fn abort_leaves_nothing() {
        let mut db = Database::new("dest");
        let mut state = ExchangeState::new();
        let rs = rows();
        state
            .prepare(
                &mut db,
                9,
                "imported",
                &schema_element(&rs, "imported"),
                &rs,
                0.0,
                60.0,
            )
            .unwrap();
        state.abort(&mut db, 9).unwrap();
        assert!(!db.has_table("imported"));
        assert!(db.catalog().tables.is_empty());
        // Decision is final: commit after abort is an unknown txn.
        assert!(state.commit(&mut db, 9).is_err());
    }

    #[test]
    fn duplicate_prepare_rejected() {
        let mut db = Database::new("dest");
        let mut state = ExchangeState::new();
        let rs = rows();
        let el = schema_element(&rs, "t");
        state.prepare(&mut db, 1, "t", &el, &rs, 0.0, 60.0).unwrap();
        assert!(state.prepare(&mut db, 1, "t", &el, &rs, 0.0, 60.0).is_err());
    }

    #[test]
    fn commit_appends_to_existing_compatible_table() {
        let mut db = Database::new("dest");
        let mut state = ExchangeState::new();
        let rs = rows();
        let el = schema_element(&rs, "t");
        state.prepare(&mut db, 1, "t", &el, &rs, 0.0, 60.0).unwrap();
        state.commit(&mut db, 1).unwrap();
        state.prepare(&mut db, 2, "t", &el, &rs, 0.0, 60.0).unwrap();
        state.commit(&mut db, 2).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 4);
    }

    #[test]
    fn incompatible_existing_schema_votes_no() {
        let mut db = Database::new("dest");
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("other", DataType::Text)],
        ))
        .unwrap();
        let mut state = ExchangeState::new();
        let rs = rows();
        let el = schema_element(&rs, "t");
        assert!(state.prepare(&mut db, 1, "t", &el, &rs, 0.0, 60.0).is_err());
        assert!(state.pending().is_empty());
        // Nothing staged, existing table untouched.
        assert_eq!(db.row_count("t").unwrap(), 0);
    }

    #[test]
    fn unknown_txn_decisions_rejected() {
        let mut db = Database::new("dest");
        let mut state = ExchangeState::new();
        assert!(state.commit(&mut db, 42).is_err());
        assert!(state.abort(&mut db, 42).is_err());
    }

    #[test]
    fn sweep_aborts_expired_stages_only() {
        let mut db = Database::new("dest");
        let mut state = ExchangeState::new();
        let rs = rows();
        let el = schema_element(&rs, "t");
        state.prepare(&mut db, 1, "t", &el, &rs, 0.0, 5.0).unwrap();
        state.prepare(&mut db, 2, "t", &el, &rs, 0.0, 50.0).unwrap();
        assert!(state.sweep(&mut db, 4.0).is_empty());
        assert_eq!(state.sweep(&mut db, 9.0), vec![1]);
        assert_eq!(state.pending(), vec![2]);
        // Nothing published by the sweep.
        assert!(!db.has_table("t"));
        // A swept transaction is decided: late commit is rejected.
        assert!(state.commit(&mut db, 1).is_err());
        // Txn 2's staging survived the sweep and still commits cleanly.
        assert_eq!(state.commit(&mut db, 2).unwrap().0, rs.row_count());
        assert_eq!(db.row_count("t").unwrap(), rs.row_count());
    }

    #[test]
    fn failed_staging_drop_is_tallied_not_swallowed() {
        let mut db = Database::new("dest");
        let mut state = ExchangeState::new();
        let rs = rows();
        let el = schema_element(&rs, "t");
        state.prepare(&mut db, 1, "t", &el, &rs, 0.0, 5.0).unwrap();
        assert_eq!(state.drop_failures(), 0);
        // Pull the staging table out from under the janitor: its drop at
        // sweep time now fails, and that failure must surface as a tally
        // rather than vanish into a `let _ =`.
        let staging = state.staged.get(1).unwrap().staging_table.clone();
        db.drop_table(&staging).unwrap();
        assert_eq!(state.sweep(&mut db, 10.0), vec![1]);
        assert_eq!(state.drop_failures(), 1);
        // A sweep with nothing wrong leaves the tally unchanged.
        state.prepare(&mut db, 2, "t", &el, &rs, 10.0, 5.0).unwrap();
        assert_eq!(state.sweep(&mut db, 20.0), vec![2]);
        assert_eq!(state.drop_failures(), 1);
    }
}
