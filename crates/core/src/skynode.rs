//! The SkyNode: the wrapper around one autonomous archive (paper §5.1).
//!
//! "Each SkyNode also implements services that act as wrappers and hide
//! its DBMS and other platform specific details." A SkyNode exposes the
//! four Web services of §5.1 — **Information**, **Meta-data**, **Query**,
//! and **Cross match** — plus the `FetchChunk` continuation used by the
//! §6 chunking workaround and the data-exchange two-phase-commit methods,
//! all dispatched by `SOAPAction` through a single [service-method
//! registry](SkyNode::service_names) that also generates the node's WSDL.
//!
//! The Cross match service is the daisy-chain participant: on a call with
//! step index `i` it first calls step `i+1` (unless it is the seed), then
//! runs its own stored-procedure step on the returned partial results,
//! applies any residual clauses scheduled at this step, and returns the
//! new partial set (chunked when oversized) to its caller. A chunked
//! upstream reply is drained whole, with no database lock held, before the
//! node's step runs on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use skyquery_net::{lock, Endpoint, HttpRequest, HttpResponse, SimNetwork, Url};
use skyquery_soap::{MessageLimits, Operation, RpcCall, RpcResponse, SoapValue};
use skyquery_sql::parse_query;
use skyquery_storage::Database;
use skyquery_xml::VoTable;

use crate::error::{FederationError, Result};
use crate::exchange::ExchangeState;
use crate::lease::LeaseTable;
use crate::meta::{catalog_to_element, ArchiveInfo};
use crate::plan::{ExecutionPlan, DEFAULT_LEASE_TTL_S};
use crate::query_exec::{execute_local, LocalQueryResult};
use crate::service::{require_u64, Reply, ServiceMethod};
use crate::trace::StatsChain;
use crate::transfer::open_checkpoint;
use crate::xmatch::{dropout_step, match_step, seed_step, PartialSet, StepConfig, StepStats};

pub use crate::transfer::{invoke_cross_match, send_rpc};

/// Every service method a SkyNode answers, in WSDL order. A single
/// registry drives both [`SkyNode::handle_call`] dispatch and
/// [`SkyNode::wsdl`] generation (see [`crate::service`]), so a method
/// cannot be served without being described (or vice versa).
const SERVICES: &[ServiceMethod<SkyNode>] = &[
    ServiceMethod {
        name: "Information",
        operation: || {
            Operation::new("Information")
                .output("info", "xml")
                .doc("Astronomy-specific constants: σ, primary table, HTM depth")
        },
        handler: |node, net, call| node.handle_information(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "Metadata",
        operation: || {
            Operation::new("Metadata")
                .output("catalog", "xml")
                .doc("Complete schema information for the Portal's catalog")
        },
        handler: |node, net, call| node.handle_metadata(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "Query",
        operation: || {
            Operation::new("Query")
                .input("sql", "string")
                .output("count", "long")
                .output("rows", "table")
                .doc("General-purpose single-archive queries (performance queries)")
        },
        handler: |node, net, call| node.handle_query(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "CrossMatch",
        operation: || {
            Operation::new("CrossMatch")
                .input("plan", "xml")
                .input("step", "long")
                .output("partial", "table")
                .output("manifest", "xml")
                .output("stats", "xml")
                .doc("One step of the federated cross-match chain")
        },
        handler: |node, net, call| node.handle_cross_match(net, call),
    },
    ServiceMethod {
        name: "FetchChunk",
        operation: || {
            Operation::new("FetchChunk")
                .input("transfer_id", "long")
                .input("index", "long")
                .output("chunk", "table")
                .doc("Chunked-transfer continuation for oversized partial results")
        },
        handler: |node, net, call| node.handle_fetch_chunk(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "AbortTransfer",
        operation: || {
            Operation::new("AbortTransfer")
                .input("transfer_id", "long")
                .output("aborted", "boolean")
                .doc("Free an open chunked transfer without serving its remaining chunks")
        },
        handler: |node, _net, call| node.handle_abort_transfer(call).map(Reply::from),
    },
    ServiceMethod {
        name: "ExecuteStep",
        operation: || {
            Operation::new("ExecuteStep")
                .input("plan", "xml")
                .input("step", "long")
                .input("checkpoint_url", "string")
                .input("checkpoint_id", "long")
                .output("checkpoint", "long")
                .output("rows", "long")
                .output("stats", "xml")
                .doc("One portal-driven cross-match step; result retained as a leased checkpoint")
        },
        handler: |node, net, call| node.handle_execute_step(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "ScatterStep",
        operation: || {
            Operation::new("ScatterStep")
                .input("plan", "xml")
                .input("step", "long")
                .input("input", "table")
                .output("partial", "table")
                .output("manifest", "xml")
                .output("stats", "xml")
                .output("version", "long")
                .doc("One scattered cross-match step against this shard's zone range")
        },
        handler: |node, net, call| node.handle_portal_step(net, call, None),
    },
    ServiceMethod {
        name: "DeltaStep",
        operation: || {
            Operation::new("DeltaStep")
                .input("plan", "xml")
                .input("step", "long")
                .input("from_row", "long")
                .input("input", "table")
                .output("partial", "table")
                .output("manifest", "xml")
                .output("stats", "xml")
                .output("version", "long")
                .doc(
                    "One cross-match step restricted to rows inserted at or after from_row \
                      (the result cache's incremental-repair probe)",
                )
        },
        handler: |node, net, call| {
            let from_row = require_u64(call, "from_row")? as usize;
            node.handle_portal_step(net, call, Some(from_row))
        },
    },
    ServiceMethod {
        name: "FetchCheckpoint",
        operation: || {
            Operation::new("FetchCheckpoint")
                .input("plan", "xml")
                .input("checkpoint_id", "long")
                .output("partial", "table")
                .output("manifest", "xml")
                .doc("Serve (and lease-renew) a checkpointed partial set")
        },
        handler: |node, net, call| node.handle_fetch_checkpoint(net, call),
    },
    ServiceMethod {
        name: "ReleaseCheckpoint",
        operation: || {
            Operation::new("ReleaseCheckpoint")
                .input("checkpoint_id", "long")
                .output("released", "boolean")
                .doc("Free a checkpointed partial set that is no longer needed")
        },
        handler: |node, net, call| node.handle_release_checkpoint(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "RenewLease",
        operation: || {
            Operation::new("RenewLease")
                .input("kind", "string")
                .input("id", "long")
                .output("renewed", "boolean")
                .doc("Extend the TTL lease on a checkpoint, transfer, or staged transaction")
        },
        handler: |node, net, call| node.handle_renew_lease(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "PrepareReceive",
        operation: || {
            Operation::new("PrepareReceive")
                .input("txn", "long")
                .input("dest_table", "string")
                .input("schema", "xml")
                .input("rows", "table")
                .output("staged", "long")
                .doc("Data-exchange 2PC: stage rows for an incoming transfer")
        },
        handler: |node, net, call| node.handle_prepare_receive(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "CommitReceive",
        operation: || {
            Operation::new("CommitReceive")
                .input("txn", "long")
                .output("published", "long")
                .output("version", "long")
                .doc("Data-exchange 2PC: publish a staged transfer")
        },
        handler: |node, net, call| node.handle_commit_receive(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "AbortReceive",
        operation: || {
            Operation::new("AbortReceive")
                .input("txn", "long")
                .output("aborted", "boolean")
                .doc("Data-exchange 2PC: discard a staged transfer")
        },
        handler: |node, net, call| node.handle_abort_receive(net, call).map(Reply::from),
    },
];

/// Configures and starts a [`SkyNode`].
///
/// ```no_run
/// # use skyquery_core::skynode::SkyNodeBuilder;
/// # use skyquery_core::meta::ArchiveInfo;
/// # fn demo(net: &skyquery_net::SimNetwork, info: ArchiveInfo, db: skyquery_storage::Database) {
/// let node = SkyNodeBuilder::new(info, db).start(net, "sdss.example.org");
/// # }
/// ```
pub struct SkyNodeBuilder {
    info: ArchiveInfo,
    db: Database,
}

impl SkyNodeBuilder {
    /// A builder for a node wrapping `db`.
    pub fn new(info: ArchiveInfo, db: Database) -> SkyNodeBuilder {
        SkyNodeBuilder { info, db }
    }

    /// Starts the node and binds it to `host` on the network.
    pub fn start(self, net: &SimNetwork, host: impl Into<String>) -> Arc<SkyNode> {
        let host = host.into();
        let node = Arc::new(SkyNode {
            info: self.info,
            host: host.clone(),
            db: Mutex::new(self.db),
            pending: Mutex::new(LeaseTable::new()),
            next_transfer: AtomicU64::new(1),
            checkpoints: Mutex::new(LeaseTable::new()),
            next_checkpoint: AtomicU64::new(1),
            executed_steps: AtomicU64::new(0),
            exchange: Mutex::new(ExchangeState::new()),
        });
        net.bind(host, node.clone());
        node
    }
}

/// A SkyNode wrapping one archive database.
pub struct SkyNode {
    info: ArchiveInfo,
    host: String,
    db: Mutex<Database>,
    /// Outgoing chunked transfers awaiting FetchChunk calls, leased.
    pending: Mutex<LeaseTable<Vec<VoTable>>>,
    next_transfer: AtomicU64,
    /// Checkpointed partial sets retained for portal-driven stepwise
    /// execution, leased: the committed result of each `ExecuteStep`
    /// stays here until the Portal releases it (or its lease lapses), so
    /// a mid-chain failure can resume without re-running this step.
    checkpoints: Mutex<LeaseTable<PartialSet>>,
    next_checkpoint: AtomicU64,
    /// Successful cross-match step executions (seed, match, or drop-out)
    /// performed by this node — the no-re-execution witness for the
    /// survivability tests.
    executed_steps: AtomicU64,
    /// Two-phase-commit staging for the data-exchange extension.
    exchange: Mutex<ExchangeState>,
}

impl SkyNode {
    /// The archive's survey constants.
    pub fn info(&self) -> &ArchiveInfo {
        &self.info
    }

    /// The node's network host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The node's SOAP endpoint URL.
    pub fn url(&self) -> Url {
        Url::new(self.host.clone(), "/soap")
    }

    /// Runs a closure against the archive database (tests, data loading,
    /// cache manipulation for experiments).
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut lock(&self.db))
    }

    /// Transactions staged by the data-exchange extension and still
    /// awaiting a coordinator decision.
    pub fn pending_exchange_txns(&self) -> Vec<u64> {
        lock(&self.exchange).pending()
    }

    /// Checkpointed partial sets currently leased, sorted by id — a leak
    /// detector for tests: after a query completes and releases its
    /// checkpoints (or their leases lapse and a sweep runs), this should
    /// be empty.
    pub fn checkpoints(&self) -> Vec<u64> {
        lock(&self.checkpoints).ids()
    }

    /// Total node-side resources currently under lease: open chunked
    /// transfers, checkpointed partial sets, and staged exchange
    /// transactions.
    pub fn active_leases(&self) -> usize {
        lock(&self.pending).len()
            + lock(&self.checkpoints).len()
            + lock(&self.exchange).pending().len()
    }

    /// How many cross-match steps this node has successfully executed
    /// (via either the recursive `CrossMatch` chain or the stepwise
    /// `ExecuteStep` service). Checkpoint resume must *not* grow this on
    /// nodes whose steps already committed.
    pub fn executed_steps(&self) -> u64 {
        self.executed_steps.load(Ordering::Relaxed)
    }

    /// Janitor sweep: reclaims every lease that expired at or before the
    /// network's current simulated time — orphaned chunked transfers,
    /// checkpointed partial sets, and staged exchange transactions (whose
    /// staging tables are dropped). Runs at the front of every request
    /// this node serves, and tests call it directly after advancing the
    /// clock. Returns how many resources were reclaimed; each is tallied
    /// as a `lease-expired` node event in the network metrics.
    pub fn sweep_leases(&self, net: &SimNetwork) -> usize {
        let now = net.now_s();
        let mut reclaimed = lock(&self.pending).sweep(now).len();
        reclaimed += lock(&self.checkpoints).sweep(now).len();
        reclaimed += {
            let mut db = lock(&self.db);
            lock(&self.exchange).sweep(&mut db, now).len()
        };
        for _ in 0..reclaimed {
            net.record_node_event(&self.host, "lease-expired");
        }
        reclaimed
    }

    /// Every SOAPAction method this node dispatches, in WSDL order.
    pub fn service_names() -> Vec<&'static str> {
        crate::service::method_names(SERVICES)
    }

    /// The WSDL document describing this node's services (§3.1),
    /// generated from the same registry that dispatches them.
    pub fn wsdl(&self) -> String {
        crate::service::wsdl(SERVICES, "SkyNode", &self.url().to_string())
    }

    fn handle_call(&self, net: &SimNetwork, call: RpcCall) -> Result<Reply> {
        // Janitor first: any request is an opportunity to reclaim leases
        // that lapsed while the node sat idle.
        self.sweep_leases(net);
        crate::service::dispatch(SERVICES, self, net, &call)
    }

    fn handle_information(&self, _net: &SimNetwork, _call: &RpcCall) -> Result<RpcResponse> {
        Ok(RpcResponse::new("Information").result("info", SoapValue::Xml(self.info.to_element())))
    }

    fn handle_metadata(&self, _net: &SimNetwork, _call: &RpcCall) -> Result<RpcResponse> {
        let catalog = lock(&self.db).catalog();
        Ok(RpcResponse::new("Metadata")
            .result("catalog", SoapValue::Xml(catalog_to_element(&catalog))))
    }

    fn handle_query(&self, _net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let sql = call
            .require("sql")?
            .as_str()
            .ok_or_else(|| FederationError::protocol("sql parameter must be a string"))?
            .to_string();
        let query = parse_query(&sql).map_err(FederationError::Sql)?;
        let mut db = lock(&self.db);
        match execute_local(&mut db, &self.info.name, &query)? {
            LocalQueryResult::Count(n) => {
                Ok(RpcResponse::new("Query").result("count", SoapValue::Int(n as i64)))
            }
            LocalQueryResult::Rows(rs) => {
                Ok(RpcResponse::new("Query")
                    .result("rows", SoapValue::Table(rs.to_votable("rows"))))
            }
        }
    }

    fn handle_prepare_receive(&self, net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let txn = require_u64(call, "txn")?;
        let dest_table = call
            .require("dest_table")?
            .as_str()
            .ok_or_else(|| FederationError::protocol("dest_table must be a string"))?
            .to_string();
        let schema = call
            .require("schema")?
            .as_xml()
            .ok_or_else(|| FederationError::protocol("schema must be xml"))?
            .clone();
        let rows = crate::result::ResultSet::from_votable(
            call.require("rows")?
                .as_table()
                .ok_or_else(|| FederationError::protocol("rows must be a table"))?,
        )?;
        let mut db = lock(&self.db);
        // PrepareReceive predates plans and carries no TTL of its own;
        // the default lease keeps an undecided stage reclaimable.
        let staged = lock(&self.exchange).prepare(
            &mut db,
            txn,
            &dest_table,
            &schema,
            &rows,
            net.now_s(),
            DEFAULT_LEASE_TTL_S,
        )?;
        net.record_node_event(&self.host, "lease-granted");
        Ok(RpcResponse::new("PrepareReceive").result("staged", SoapValue::Int(staged as i64)))
    }

    fn handle_commit_receive(&self, _net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let txn = require_u64(call, "txn")?;
        let mut db = lock(&self.db);
        let (published, version) = lock(&self.exchange).commit(&mut db, txn)?;
        Ok(RpcResponse::new("CommitReceive")
            .result("published", SoapValue::Int(published as i64))
            .result("version", SoapValue::Int(version as i64)))
    }

    fn handle_abort_receive(&self, _net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let txn = require_u64(call, "txn")?;
        let mut db = lock(&self.db);
        lock(&self.exchange).abort(&mut db, txn)?;
        Ok(RpcResponse::new("AbortReceive").result("aborted", SoapValue::Bool(true)))
    }

    /// Decodes and validates the `plan`/`step` pair every cross-match
    /// entry point carries: the step must exist and address this node
    /// (autonomy check), and its SQL fragments must parse.
    fn decode_plan_step(&self, call: &RpcCall) -> Result<(ExecutionPlan, usize, StepConfig)> {
        let plan = decode_plan(call)?;
        let step = call
            .require("step")?
            .as_i64()
            .ok_or_else(|| FederationError::protocol("step must be an integer"))?
            as usize;
        if step >= plan.steps.len() {
            return Err(FederationError::protocol(format!(
                "step {step} out of range for a {}-step plan",
                plan.steps.len()
            )));
        }
        if !plan.steps[step]
            .archive
            .eq_ignore_ascii_case(&self.info.name)
        {
            return Err(FederationError::protocol(format!(
                "plan step {step} addresses {}, but this node is {}",
                plan.steps[step].archive, self.info.name
            )));
        }
        let cfg = plan.step_config(step)?;
        Ok((plan, step, cfg))
    }

    /// Runs one cross-match step of `plan` at this archive — the one
    /// place a node seeds, matches or drops out, whichever service asked.
    /// `input` is the upstream partial set, already drained if it came
    /// chunked (`None` seeds the chain). `from_row > 0` restricts the step
    /// to the rows inserted at or after that row id: tables are
    /// append-only with sequential row ids, so `[from_row..len)` is exactly
    /// what changed since the version a cache entry recorded; the delta
    /// rows are materialized into an indexed temp table, probed with the
    /// same kernels as a full execution, and the temp table is dropped
    /// before the lock is released, success or failure. Returns the output
    /// (residuals applied), the step's statistics, and the table version
    /// read under the same database lock as the probe.
    fn run_step(
        &self,
        plan: &ExecutionPlan,
        step: usize,
        mut cfg: StepConfig,
        input: Option<PartialSet>,
        from_row: usize,
    ) -> Result<(PartialSet, StepStats, u64)> {
        let dropout = plan.steps[step].dropout;
        if input.is_none() && dropout {
            return Err(FederationError::protocol(
                "a drop-out archive cannot be the seed of the chain",
            ));
        }
        let (mut set, stats, version) = {
            let mut db = lock(&self.db);
            let version = db.table_version(&cfg.table)?;
            let temp = if from_row > 0 {
                let rows: Vec<skyquery_storage::Row> = db
                    .table(&cfg.table)?
                    .rows()
                    .iter()
                    .skip(from_row)
                    .cloned()
                    .collect();
                let schema = db.schema(&cfg.table)?.clone();
                let name = db.create_temp_table(schema)?;
                for row in rows {
                    db.insert(&name, row).map_err(FederationError::Storage)?;
                }
                cfg.table = name.clone();
                Some(name)
            } else {
                None
            };
            let result = match (&input, dropout) {
                (None, _) => seed_step(&mut db, &cfg),
                (Some(inc), false) => match_step(&mut db, &cfg, inc),
                (Some(inc), true) => dropout_step(&mut db, &cfg, inc),
            };
            if let Some(name) = &temp {
                db.drop_table(name)
                    .expect("the delta temp table was created under this same lock");
            }
            let (set, stats) = result?;
            (set, stats, version)
        };
        let residuals = plan.residuals(step)?;
        if !residuals.is_empty() {
            set = crate::xmatch::apply_residuals(set, &residuals)?;
        }
        self.executed_steps.fetch_add(1, Ordering::Relaxed);
        Ok((set, stats, version))
    }

    /// The Cross match service, the daisy-chain participant: obtains the
    /// partial results from the next step (unless this node is the
    /// seed), runs its own step on them, and appends its statistics to
    /// the chain riding back to the caller.
    fn handle_cross_match(&self, net: &SimNetwork, call: &RpcCall) -> Result<Reply> {
        let (plan, step, cfg) = self.decode_plan_step(call)?;
        let (input, mut chain) = if step == plan.seed_index() {
            (None, StatsChain::new())
        } else {
            let next_url = plan.steps[step + 1].url.clone();
            let (incoming, chain) =
                invoke_cross_match(net, &self.host, &next_url, &plan, step + 1)?;
            (Some(incoming), chain)
        };
        let (set, stats, _) = self.run_step(&plan, step, cfg, input, 0)?;
        chain.push(plan.steps[step].alias.clone(), stats);
        self.encode_set_response(net, &plan, "CrossMatch", set, Some(&chain), None)
    }

    /// One portal-driven step against a node-held checkpoint. Unlike
    /// `CrossMatch`, the node does not call the next step itself: the
    /// Portal names the input (the previous step's checkpoint, or
    /// nothing for the seed), and the result is retained here as a fresh
    /// leased checkpoint — only its id, row count, and statistics travel
    /// back. A failure *later* in the chain can then resume from this
    /// checkpoint without re-running the step.
    fn handle_execute_step(&self, net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let (plan, step, cfg) = self.decode_plan_step(call)?;
        let input = match call.get("checkpoint_id") {
            Some(v) => {
                let id = v.as_i64().filter(|v| *v >= 0).ok_or_else(|| {
                    FederationError::protocol("checkpoint_id must be a non-negative integer")
                })? as u64;
                let url_str = call
                    .require("checkpoint_url")?
                    .as_str()
                    .ok_or_else(|| FederationError::protocol("checkpoint_url must be a string"))?;
                let url = Url::parse(url_str).map_err(FederationError::Net)?;
                Some(if url.host == self.host {
                    // The previous step ran here too: read the checkpoint
                    // locally instead of fetching it over the wire from
                    // ourselves.
                    self.read_checkpoint(net, id)?
                } else {
                    open_checkpoint(net, &self.host, &url, &plan, id)?
                })
            }
            None => None,
        };
        let (set, stats, _) = self.run_step(&plan, step, cfg, input, 0)?;

        let rows = set.tuples.len();
        let cp_id = self.next_checkpoint.fetch_add(1, Ordering::Relaxed);
        lock(&self.checkpoints).insert(cp_id, set, net.now_s(), plan.lease_ttl_s);
        net.record_node_event(&self.host, "lease-granted");
        let mut chain = StatsChain::new();
        chain.push(plan.steps[step].alias.clone(), stats);
        Ok(RpcResponse::new("ExecuteStep")
            .result("checkpoint", SoapValue::Int(cp_id as i64))
            .result("rows", SoapValue::Int(rows as i64))
            .result("stats", SoapValue::Xml(chain.to_element())))
    }

    /// `ScatterStep` and `DeltaStep`: one portal-driven step whose input
    /// the Portal supplies inline (absent for the seed) and whose output
    /// travels straight back, inline or chunked. No checkpoint is
    /// retained — the set the Portal holds between steps *is* the walk's
    /// checkpoint, so the node keeps no per-query state beyond a
    /// chunked-reply transfer session. `ScatterStep` runs against the
    /// whole table (this shard's zone range); `DeltaStep` against only
    /// the rows at or after its `from_row` (the result cache's repair
    /// probe).
    fn handle_portal_step(
        &self,
        net: &SimNetwork,
        call: &RpcCall,
        from_row: Option<usize>,
    ) -> Result<Reply> {
        let (plan, step, cfg) = self.decode_plan_step(call)?;
        let method = from_row.map_or("ScatterStep", |_| "DeltaStep");
        let input = match call.get("input") {
            Some(v) => {
                let table = v
                    .as_table()
                    .ok_or_else(|| FederationError::protocol("input must be a table"))?;
                Some(PartialSet::from_votable(table)?)
            }
            None => None,
        };
        let (set, stats, version) =
            self.run_step(&plan, step, cfg, input, from_row.unwrap_or(0))?;
        let mut chain = StatsChain::new();
        chain.push(plan.steps[step].alias.clone(), stats);
        self.encode_set_response(net, &plan, method, set, Some(&chain), Some(version))
    }

    /// Clones a checkpointed partial set out of the store, renewing its
    /// lease — reading is also keeping-alive. A stale id answers a
    /// deterministic [`FederationError::LeaseExpired`]: the checkpoint
    /// will not come back, so the caller must re-plan rather than retry.
    fn read_checkpoint(&self, net: &SimNetwork, id: u64) -> Result<PartialSet> {
        let set = {
            let mut cps = lock(&self.checkpoints);
            cps.renew(id, net.now_s());
            cps.get(id)
                .cloned()
                .ok_or_else(|| FederationError::lease_expired("checkpoint", id, &self.host))?
        };
        net.record_node_event(&self.host, "lease-renewed");
        Ok(set)
    }

    /// Serves a checkpointed partial set (inline or chunked under the
    /// plan's message limit), renewing its lease.
    fn handle_fetch_checkpoint(&self, net: &SimNetwork, call: &RpcCall) -> Result<Reply> {
        let plan = decode_plan(call)?;
        let set = self.read_checkpoint(net, require_u64(call, "checkpoint_id")?)?;
        self.encode_set_response(net, &plan, "FetchCheckpoint", set, None, None)
    }

    /// Frees a checkpointed partial set. Idempotent: an unknown id
    /// (already released, or reclaimed by the janitor) answers
    /// `released = false` rather than faulting, so best-effort cleanup
    /// never cascades.
    fn handle_release_checkpoint(&self, net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let id = require_u64(call, "checkpoint_id")?;
        let released = lock(&self.checkpoints).remove(id).is_some();
        if released {
            net.record_node_event(&self.host, "checkpoint-released");
        }
        Ok(RpcResponse::new("ReleaseCheckpoint").result("released", SoapValue::Bool(released)))
    }

    /// Extends the lease on one of this node's resources. Idempotent: an
    /// unknown id answers `renewed = false`, telling the caller the
    /// resource is gone for good.
    fn handle_renew_lease(&self, net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let kind = call
            .require("kind")?
            .as_str()
            .ok_or_else(|| FederationError::protocol("kind must be a string"))?
            .to_string();
        let id = require_u64(call, "id")?;
        let now = net.now_s();
        let renewed = match kind.as_str() {
            "checkpoint" => lock(&self.checkpoints).renew(id, now),
            "transfer" => lock(&self.pending).renew(id, now),
            "txn" => lock(&self.exchange).renew(id, now),
            other => {
                return Err(FederationError::protocol(format!(
                    "unknown lease kind {other} (expected checkpoint, transfer, or txn)"
                )))
            }
        };
        if renewed {
            net.record_node_event(&self.host, "lease-renewed");
        }
        Ok(RpcResponse::new("RenewLease").result("renewed", SoapValue::Bool(renewed)))
    }

    /// Encodes a partial set under `method`, chunking when the monolithic
    /// response would exceed the plan's message limit. A reply that fits
    /// is sent as the very bytes that were measured. A chunked reply
    /// returns the typed manifest `split_table` announces and leases the
    /// sender-side session under the plan's TTL. The stats chain and table
    /// `version`, when given, follow the set or manifest in the reply.
    fn encode_set_response(
        &self,
        net: &SimNetwork,
        plan: &ExecutionPlan,
        method: &'static str,
        set: PartialSet,
        stats_chain: Option<&StatsChain>,
        version: Option<u64>,
    ) -> Result<Reply> {
        let reply = |name: &str, value: SoapValue| {
            let mut resp = RpcResponse::new(method).result(name, value);
            if let Some(c) = stats_chain {
                resp = resp.result("stats", SoapValue::Xml(c.to_element()));
            }
            if let Some(v) = version {
                resp = resp.result("version", SoapValue::Int(v as i64));
            }
            resp
        };
        let mut monolithic = reply("partial", SoapValue::Table(set.to_votable()));
        let encoded = monolithic.to_xml();
        if encoded.len() <= plan.max_message_bytes {
            return Ok(Reply::Encoded(encoded));
        }
        if !plan.chunking {
            // The pre-workaround behaviour: the caller's parser would die.
            return Err(FederationError::Soap(
                skyquery_soap::SoapError::MessageTooLarge {
                    size: encoded.len(),
                    limit: plan.max_message_bytes,
                },
            ));
        }
        let Some(SoapValue::Table(table)) = monolithic.take("partial") else {
            unreachable!("the monolithic reply carries the partial set")
        };
        let transfer_id = self.next_transfer.fetch_add(1, Ordering::Relaxed);
        let (manifest, chunks) = skyquery_soap::chunk::split_table(
            &table,
            MessageLimits::tiny(plan.max_message_bytes),
            transfer_id,
        )
        .map_err(FederationError::Soap)?;
        lock(&self.pending).insert(transfer_id, chunks, net.now_s(), plan.lease_ttl_s);
        net.record_node_event(&self.host, "lease-granted");
        Ok(reply("manifest", SoapValue::Xml(manifest.to_element())).into())
    }

    fn handle_fetch_chunk(&self, net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let transfer_id = require_u64(call, "transfer_id")?;
        let mut pending = lock(&self.pending);
        // Each continuation renews the session's lease: a live receiver
        // never loses a transfer mid-stream, however slowly it pulls.
        pending.renew(transfer_id, net.now_s());
        let chunks = pending
            .get(transfer_id)
            .ok_or_else(|| FederationError::lease_expired("transfer", transfer_id, &self.host))?;
        let (reply, last) = crate::service::fetch_chunk(call, transfer_id, chunks)?;
        if last {
            pending.remove(transfer_id);
        }
        Ok(reply)
    }

    /// Frees an open chunked transfer a receiver abandoned mid-stream.
    /// Idempotent: an unknown id (already drained, already aborted, or a
    /// duplicate abort after a retried call) answers `aborted = false`
    /// rather than faulting, so best-effort cleanup never cascades.
    fn handle_abort_transfer(&self, call: &RpcCall) -> Result<RpcResponse> {
        let transfer_id = require_u64(call, "transfer_id")?;
        let freed = lock(&self.pending).remove(transfer_id).is_some();
        Ok(RpcResponse::new("AbortTransfer").result("aborted", SoapValue::Bool(freed)))
    }

    /// Outgoing chunked transfers still awaiting `FetchChunk` calls —
    /// a leak detector for tests: after every client has drained or
    /// aborted, this should be empty.
    pub fn open_transfers(&self) -> Vec<u64> {
        lock(&self.pending).ids()
    }
}

impl Endpoint for SkyNode {
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        crate::service::serve(&req, |call| self.handle_call(net, call))
    }
}

/// Decodes the required `plan` parameter.
fn decode_plan(call: &RpcCall) -> Result<ExecutionPlan> {
    ExecutionPlan::from_element(
        call.require("plan")?
            .as_xml()
            .ok_or_else(|| FederationError::protocol("plan must be xml"))?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wsdl_describes_every_dispatched_method() {
        // The registry drives both dispatch and WSDL, so every method a
        // node answers must appear in its service description — including
        // the data-exchange methods the hand-written WSDL used to omit.
        let names = SkyNode::service_names();
        assert!(names.contains(&"CrossMatch"));
        assert!(names.contains(&"PrepareReceive"));
        assert!(names.contains(&"CommitReceive"));
        assert!(names.contains(&"AbortReceive"));
        assert_eq!(names.len(), SERVICES.len());
        // Registry names are unique (duplicate entries would shadow).
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
