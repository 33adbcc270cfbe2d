//! The SkyNode: the wrapper around one autonomous archive (paper §5.1).
//!
//! "Each SkyNode also implements services that act as wrappers and hide
//! its DBMS and other platform specific details." A SkyNode exposes the
//! four Web services of §5.1 — **Information**, **Meta-data**, **Query**,
//! and **Cross match** — plus the Portal-driven step services and the
//! data-exchange two-phase-commit methods, all dispatched by `SOAPAction`
//! through a single [service-method registry](SkyNode::service_names)
//! that also generates the node's WSDL. The §6 chunking workaround (an
//! oversized reply, `FetchChunk`, `AbortTransfer`) is served by a
//! [`Transfers`] store, the same one the job service uses.
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
use skyquery_soap::{Operation, RpcCall, RpcResponse, SoapValue};
use skyquery_sql::parse_query;
use skyquery_storage::Database;

use crate::error::{field, FederationError, Result};
use crate::exchange::ExchangeState;
use crate::meta::{catalog_to_element, ArchiveInfo};
use crate::plan::{ExecutionPlan, DEFAULT_LEASE_TTL_S};
use crate::query_exec::{execute_local, LocalQueryResult};
use crate::service::{take_table, Reply, ServiceMethod, Transfers};
use crate::trace::StatsChain;
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
        handler: |node, net, call| Ok(node.transfers.fetch_chunk(net, call)?.0),
    },
    ServiceMethod {
        name: "AbortTransfer",
        operation: || {
            Operation::new("AbortTransfer")
                .input("transfer_id", "long")
                .output("aborted", "boolean")
                .doc("Free an open chunked transfer without serving its remaining chunks")
        },
        handler: |node, _net, call| node.transfers.abort(call).map(Reply::from),
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
            let from_row = field(&call.params, "from_row")?;
            node.handle_portal_step(net, call, Some(from_row))
        },
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
            transfers: Transfers::new(host.clone()),
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
    transfers: Transfers,
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

    /// Total node-side resources currently under lease: open chunked
    /// transfers and staged exchange transactions.
    pub fn active_leases(&self) -> usize {
        self.transfers.ids().len() + lock(&self.exchange).pending().len()
    }

    /// How many cross-match steps this node has successfully executed
    /// (via the recursive `CrossMatch` chain or a portal-driven
    /// `ScatterStep`/`DeltaStep`). A walk resuming from its committed set
    /// after a re-plan must *not* grow this on nodes whose steps already
    /// committed.
    pub fn executed_steps(&self) -> u64 {
        self.executed_steps.load(Ordering::Relaxed)
    }

    /// Janitor sweep: reclaims every lease that expired at or before the
    /// network's current simulated time — orphaned chunked transfers and
    /// staged exchange transactions (whose staging tables are dropped).
    /// Runs at the front of every request this node serves, and tests
    /// call it directly after advancing the clock. Returns how many
    /// resources were reclaimed; each is tallied as a `lease-expired` node
    /// event in the network metrics.
    pub fn sweep_leases(&self, net: &SimNetwork) -> usize {
        let now = net.now_s();
        let mut reclaimed = self.transfers.sweep(now);
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

    fn handle_call(&self, net: &SimNetwork, mut call: RpcCall) -> Result<Reply> {
        // Janitor first: any request is an opportunity to reclaim leases
        // that lapsed while the node sat idle.
        self.sweep_leases(net);
        crate::service::dispatch(SERVICES, self, net, &mut call)
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
        let query = parse_query(field(&call.params, "sql")?).map_err(FederationError::Sql)?;
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

    fn handle_prepare_receive(&self, net: &SimNetwork, call: &mut RpcCall) -> Result<RpcResponse> {
        let rows = crate::result::ResultSet::from_votable(take_table(&mut call.params, "rows")?)?;
        let txn = field(&call.params, "txn")?;
        let dest_table = field(&call.params, "dest_table")?;
        let schema = field(&call.params, "schema")?;
        let mut db = lock(&self.db);
        // PrepareReceive carries no plan, so no TTL of its own; the
        // default lease keeps an undecided stage reclaimable.
        let staged = lock(&self.exchange).prepare(
            &mut db,
            txn,
            dest_table,
            schema,
            &rows,
            net.now_s(),
            DEFAULT_LEASE_TTL_S,
        )?;
        net.record_node_event(&self.host, "lease-granted");
        Ok(RpcResponse::new("PrepareReceive").result("staged", SoapValue::Int(staged as i64)))
    }

    fn handle_commit_receive(&self, _net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let txn = field(&call.params, "txn")?;
        let mut db = lock(&self.db);
        let (published, version) = lock(&self.exchange).commit(&mut db, txn)?;
        Ok(RpcResponse::new("CommitReceive")
            .result("published", SoapValue::Int(published as i64))
            .result("version", SoapValue::Int(version as i64)))
    }

    fn handle_abort_receive(&self, _net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let txn = field(&call.params, "txn")?;
        let mut db = lock(&self.db);
        lock(&self.exchange).abort(&mut db, txn)?;
        Ok(RpcResponse::new("AbortReceive").result("aborted", SoapValue::Bool(true)))
    }

    /// Decodes and validates the `plan`/`step` pair every cross-match
    /// entry point carries: the step must exist and address this node
    /// (autonomy check), and its SQL fragments must parse.
    fn decode_plan_step(&self, call: &RpcCall) -> Result<(ExecutionPlan, usize, StepConfig)> {
        let plan = ExecutionPlan::from_element(field(&call.params, "plan")?)?;
        let step: usize = field(&call.params, "step")?;
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
    /// chunked (`None` seeds the chain). The step reads the archive table
    /// in place, from `cfg.from_row` on. Returns the output (residuals
    /// applied), the step's statistics, and the table version read under
    /// the same database lock as the step.
    fn run_step(
        &self,
        plan: &ExecutionPlan,
        step: usize,
        cfg: StepConfig,
        input: Option<PartialSet>,
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
            let (set, stats) = match (&input, dropout) {
                (None, _) => seed_step(&mut db, &cfg),
                (Some(inc), false) => match_step(&mut db, &cfg, inc),
                (Some(inc), true) => dropout_step(&mut db, &cfg, inc),
            }?;
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
        let (set, stats, _) = self.run_step(&plan, step, cfg, input)?;
        chain.push(plan.steps[step].alias.clone(), stats);
        self.encode_set_response(net, &plan, "CrossMatch", set, &chain, None)
    }

    /// `ScatterStep` and `DeltaStep`: one portal-driven step whose input
    /// the Portal supplies inline (absent for the seed) and whose output
    /// travels straight back, inline or chunked. The set the Portal holds
    /// between steps *is* the walk's checkpoint, so the node keeps no
    /// per-query state beyond a chunked-reply transfer session.
    /// `ScatterStep` runs against the whole table (this shard's zone
    /// range); `DeltaStep` against only the rows at or after its
    /// `from_row` (the result cache's repair probe).
    fn handle_portal_step(
        &self,
        net: &SimNetwork,
        call: &mut RpcCall,
        from_row: Option<usize>,
    ) -> Result<Reply> {
        let (plan, step, mut cfg) = self.decode_plan_step(call)?;
        cfg.from_row = from_row.unwrap_or(0);
        let method = from_row.map_or("ScatterStep", |_| "DeltaStep");
        let input = match call.get("input") {
            Some(_) => Some(PartialSet::from_votable(take_table(
                &mut call.params,
                "input",
            )?)?),
            None => None,
        };
        let (set, stats, version) = self.run_step(&plan, step, cfg, input)?;
        let mut chain = StatsChain::new();
        chain.push(plan.steps[step].alias.clone(), stats);
        self.encode_set_response(net, &plan, method, set, &chain, Some(version))
    }

    /// Encodes a partial set under `method`, then its stats chain and,
    /// when given, the table `version`, and sends it through the node's
    /// [`Transfers`] under the plan's message limit, chunking and lease
    /// TTL: an oversized set travels as a manifest in its slot.
    fn encode_set_response(
        &self,
        net: &SimNetwork,
        plan: &ExecutionPlan,
        method: &'static str,
        set: PartialSet,
        chain: &StatsChain,
        version: Option<u64>,
    ) -> Result<Reply> {
        let mut resp = RpcResponse::new(method)
            .result("partial", SoapValue::Table(set.to_votable()?))
            .result("stats", SoapValue::Xml(chain.to_element()));
        if let Some(v) = version {
            resp = resp.result("version", SoapValue::Int(v as i64));
        }
        let (limit, ttl_s) = (plan.max_message_bytes, plan.lease_ttl_s);
        self.transfers
            .reply(net, resp, limit, plan.chunking, 0, ttl_s)
    }

    /// Outgoing chunked transfers still awaiting `FetchChunk` calls —
    /// a leak detector for tests: after every client has drained or
    /// aborted, this should be empty.
    pub fn open_transfers(&self) -> Vec<u64> {
        self.transfers.ids()
    }
}

impl Endpoint for SkyNode {
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        crate::service::serve(&req, |call| self.handle_call(net, call))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wsdl_describes_every_dispatched_method() {
        // The registry drives both dispatch and WSDL, so every method a
        // node answers appears in its service description, in this order.
        // Adding or removing a service is an edit here.
        let names = SkyNode::service_names();
        assert_eq!(
            names,
            [
                "Information",
                "Metadata",
                "Query",
                "CrossMatch",
                "FetchChunk",
                "AbortTransfer",
                "ScatterStep",
                "DeltaStep",
                "PrepareReceive",
                "CommitReceive",
                "AbortReceive",
            ]
        );
        let doc = skyquery_xml::Element::parse(&crate::service::wsdl(
            SERVICES,
            "SkyNode",
            "http://node.example.org/soap",
        ))
        .unwrap();
        assert_eq!(skyquery_soap::wsdl::operation_names(&doc).unwrap(), names);
    }
}
