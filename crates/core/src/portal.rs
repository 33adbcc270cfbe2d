//! The Portal: SkyQuery's mediator (paper §5.1, §5.3).
//!
//! The Portal provides two services. **Registration** lets archives join
//! the federation: the Portal calls the new node's Meta-data and
//! Information services and catalogs what they return. **SkyQuery**
//! accepts a cross-match query, decomposes it, probes the mandatory
//! archives with count-star performance queries, builds the federated
//! execution plan (drop-outs first, then mandatory archives in decreasing
//! count order), fires the daisy chain, applies the final projection, and
//! relays the result to the client.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use skyquery_net::{
    lock, Endpoint, HttpRequest, HttpResponse, ServiceRecord, ServiceRegistry, SimNetwork, Url,
};
use skyquery_soap::{RpcCall, RpcResponse, SoapValue};
use skyquery_sql::{decompose, parse_query, DecomposedQuery, Expr};
use skyquery_storage::{Catalog, DataType, Value};

use crate::error::{FederationError, Result};
use crate::meta::{catalog_from_element, ArchiveInfo, RegisteredNode, Registration};
use crate::plan::{
    ExecutionPlan, PlanShard, PlanStep, DEFAULT_LEASE_TTL_S, DEFAULT_MAX_MESSAGE_BYTES,
};
use crate::region::Region;
use crate::result::{ResultColumn, ResultSet};
use crate::result_cache::{CacheCounters, CacheEntry, ResultCache, StepVersion};
use crate::retry::RetryPolicy;
use crate::skynode::invoke_cross_match;
use crate::trace::{ExecutionTrace, StatsChain};
use crate::transfer::send_rpc_with;
use crate::walk::CheckpointedWalk;
use crate::xmatch::MatchKernel;
use crate::xmatch::{PartialSet, TupleBindings};

/// How the Portal orders the mandatory archives in the plan list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingStrategy {
    /// The paper's strategy: decreasing count-star estimates, so the
    /// smallest archive seeds the chain and partial results shrink early.
    CountStarDescending,
    /// Adversarial baseline: increasing count estimates.
    CountStarAscending,
    /// Ignore statistics; use the query's FROM order.
    DeclarationOrder,
    /// Random order from a seeded generator (experiment baseline).
    Random(u64),
}

/// How the Portal drives the federated cross-match chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainMode {
    /// The paper's daisy chain: one recursive Cross match call that
    /// unwinds from the seed back to the Portal. A mid-chain failure
    /// aborts the whole submission.
    #[default]
    Recursive,
    /// Portal-driven execution ([`CheckpointedWalk`]): one call per
    /// archive, each committing its partial set as a checkpoint. A
    /// mid-chain failure re-plans the remaining steps around the failed
    /// node and resumes from the last good checkpoint instead of
    /// re-running the committed prefix.
    Checkpointed,
}

/// Observation state of a host the Portal has marked unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// The host exhausted a retry budget and has not answered since.
    Unhealthy,
    /// Half-open: a cheap Information-service probe succeeded, so the
    /// host is trusted for real traffic again — but its strike history
    /// is retained until a real call clears it entirely.
    Probation,
}

/// Health book-keeping the Portal maintains for one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostHealth {
    /// How many times the host exhausted a retry budget.
    pub strikes: u64,
    /// The current observation state.
    pub state: HostState,
}

/// Federation-wide execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct FederationConfig {
    /// SOAP parser limit every participant enforces.
    pub max_message_bytes: usize,
    /// Whether oversized partial results are chunked (§6 workaround).
    pub chunking: bool,
    /// Plan-ordering strategy.
    pub ordering: OrderingStrategy,
    /// Issue performance queries concurrently (the paper sends them as
    /// asynchronous SOAP messages).
    pub parallel_performance_queries: bool,
    /// Candidate-probe kernel the nodes use for match/drop-out steps. An
    /// oracle/test override (HTM is the paper's path and the reference the
    /// parity suites compare against); production runs the default. The
    /// field is pinned by the benchmark harness, whose oracle twin sets
    /// it, so it waits on a `benchmark` PR to leave this struct.
    pub kernel: MatchKernel,
    /// Retry policy for every federation RPC the Portal issues and, via
    /// the plan, every onward call along the daisy chain.
    pub retry: RetryPolicy,
    /// How the chain is driven: the paper's recursive daisy chain, or
    /// portal-driven checkpointed execution with failover re-planning.
    pub chain_mode: ChainMode,
    /// Lease TTL (simulated seconds) granted on every transfer session,
    /// exchange transaction, and checkpoint created for this
    /// federation's queries; node janitors reclaim anything older.
    pub lease_ttl_s: f64,
    /// Maximum number of entries in the Portal's cross-match result
    /// cache ([`crate::result_cache`]). `0` (the default) disables
    /// caching entirely — every submission runs the full chain.
    pub result_cache_capacity: usize,
    /// Lease TTL (simulated seconds) on each result-cache entry. An
    /// expired entry is evicted at the next lookup, forcing a clean
    /// cold re-run.
    pub result_cache_ttl_s: f64,
    /// Hedge delay in simulated seconds for replica-aware scatter:
    /// when a picked replica's probe runs longer than this, the Portal
    /// re-issues the probe to a sibling replica and the first response
    /// wins (duplicates are reconciled by the deterministic gather).
    /// `0.0` (the default) disables hedging; failover on unhealthy
    /// replicas is always on.
    pub hedge_delay_s: f64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            max_message_bytes: DEFAULT_MAX_MESSAGE_BYTES,
            chunking: true,
            ordering: OrderingStrategy::CountStarDescending,
            parallel_performance_queries: true,
            kernel: MatchKernel::default(),
            retry: RetryPolicy::default(),
            chain_mode: ChainMode::default(),
            lease_ttl_s: DEFAULT_LEASE_TTL_S,
            result_cache_capacity: 0,
            result_cache_ttl_s: DEFAULT_LEASE_TTL_S,
            hedge_delay_s: 0.0,
        }
    }
}

/// Partial-result honesty: what a degraded execution dropped. Returned
/// alongside every executed plan and stamped onto the client-facing
/// result header, so a caller can always tell a complete answer from a
/// partial one without scraping trace events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Degradation {
    /// Whether any archive (or shard of one) was dropped from the
    /// answer.
    pub degraded: bool,
    /// What was dropped: the archive name for a wholly-skipped drop-out
    /// step, `archive@host` for individual shards lost mid-scatter.
    pub dropped: Vec<String>,
}

impl Degradation {
    /// Folds another degradation record into this one.
    pub fn absorb(&mut self, other: Degradation) {
        self.degraded |= other.degraded;
        self.dropped.extend(other.dropped);
    }
}

/// The mediator.
pub struct Portal {
    pub(crate) host: String,
    pub(crate) net: SimNetwork,
    config: Mutex<FederationConfig>,
    /// Shard groups keyed by upper-cased logical archive name. Each
    /// group holds the archive's physical shards sorted by the zone
    /// range they own (then by host); an unsharded archive is a group of
    /// one full-sky node.
    nodes: Mutex<HashMap<String, Vec<RegisteredNode>>>,
    /// UDDI-style repository of the federation's services (§3.1:
    /// "services can register themselves and be discovered").
    registry: ServiceRegistry,
    /// Hosts that exhausted a retry budget, with strike counts and a
    /// half-open probation state. A successful real contact clears the
    /// host — unhealthiness is an observation, not a ban; the autonomous
    /// archive may come back any time.
    health: Mutex<HashMap<String, HostHealth>>,
    /// Cross-match result cache: committed per-step partial sets keyed
    /// by plan signature and per-table version vector
    /// ([`crate::result_cache`]). Inert until
    /// [`FederationConfig::result_cache_capacity`] is raised above 0.
    cache: Mutex<ResultCache>,
}

impl Portal {
    /// Creates a Portal and binds it to `host` on the network.
    pub fn start(
        net: &SimNetwork,
        host: impl Into<String>,
        config: FederationConfig,
    ) -> Arc<Portal> {
        let host = host.into();
        let registry = ServiceRegistry::new();
        registry.register(ServiceRecord {
            provider: "SkyQuery Portal".into(),
            category: "Portal".into(),
            url: Url::new(host.clone(), "/soap"),
            description: "Registration and SkyQuery services".into(),
        });
        let portal = Arc::new(Portal {
            host: host.clone(),
            net: net.clone(),
            config: Mutex::new(config),
            nodes: Mutex::new(HashMap::new()),
            registry,
            health: Mutex::new(HashMap::new()),
            cache: Mutex::new(ResultCache::new()),
        });
        net.bind(host, portal.clone());
        portal
    }

    /// UDDI-style discovery: all registered services in a category
    /// ("Portal", "SkyNode").
    pub fn discover(&self, category: &str) -> Vec<ServiceRecord> {
        self.registry.discover(category)
    }

    /// The Portal's network host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The Portal's SOAP endpoint URL.
    pub fn url(&self) -> Url {
        Url::new(self.host.clone(), "/soap")
    }

    /// Replaces the execution configuration (experiments switch ordering
    /// strategies and message limits between runs).
    pub fn set_config(&self, config: FederationConfig) {
        *lock(&self.config) = config;
    }

    /// The current execution configuration.
    pub fn config(&self) -> FederationConfig {
        *lock(&self.config)
    }

    /// Hosts currently considered unhealthy (they exhausted a retry
    /// budget more recently than they answered or passed a probe),
    /// sorted. Hosts in probation are excluded.
    pub fn unhealthy_hosts(&self) -> Vec<String> {
        let mut v: Vec<String> = lock(&self.health)
            .iter()
            .filter(|(_, h)| h.state == HostState::Unhealthy)
            .map(|(host, _)| host.clone())
            .collect();
        v.sort();
        v
    }

    /// The full health book, sorted by host — for the REPL's `\health`
    /// view. Healthy hosts (no strikes on record) do not appear.
    pub fn health_report(&self) -> Vec<(String, HostHealth)> {
        let mut v: Vec<(String, HostHealth)> = lock(&self.health)
            .iter()
            .map(|(host, h)| (host.clone(), *h))
            .collect();
        v.sort_by(|(a, _), (b, _)| a.cmp(b));
        v
    }

    /// Adds a strike against `host` and (re)marks it unhealthy.
    fn strike(&self, host: &str) {
        let mut health = lock(&self.health);
        let h = health.entry(host.to_string()).or_insert(HostHealth {
            strikes: 0,
            state: HostState::Unhealthy,
        });
        h.strikes += 1;
        h.state = HostState::Unhealthy;
    }

    /// Folds the outcome of one real exchange with `host` into the health
    /// book: success clears any unhealthy mark (and its strike history);
    /// an exhausted retry budget strikes the host the error names.
    pub(crate) fn observe<T>(&self, host: &str, outcome: &Result<T>) {
        match outcome {
            Ok(_) => {
                lock(&self.health).remove(host);
            }
            Err(FederationError::NodeUnhealthy { host, .. }) => self.strike(host),
            Err(_) => {}
        }
    }

    /// Whether `host` is currently marked unhealthy (probation counts as
    /// healthy: real traffic may flow again). Replica selection prefers
    /// the first healthy candidate of a group.
    pub(crate) fn host_is_unhealthy(&self, host: &str) -> bool {
        lock(&self.health)
            .get(host)
            .is_some_and(|h| h.state == HostState::Unhealthy)
    }

    /// Half-open recovery probe: one cheap Information-service call with
    /// no retries. Success moves an unhealthy host to probation (real
    /// traffic may flow again); failure adds a strike. Returns whether
    /// the probe succeeded. Probing an unknown host returns `false`.
    pub fn probe_host(&self, host: &str) -> bool {
        let url = lock(&self.nodes)
            .values()
            .flatten()
            .find(|n| n.url.host == host)
            .map(|n| n.url.clone());
        let Some(url) = url else { return false };
        let ok = send_rpc_with(
            &self.net,
            &self.host,
            &url,
            &RpcCall::new("Information"),
            RetryPolicy::none(),
        )
        .is_ok();
        if !ok {
            self.strike(host);
        } else if let Some(h) = lock(&self.health).get_mut(host) {
            h.state = HostState::Probation;
        }
        ok
    }

    /// Probes every currently unhealthy host once; returns each host with
    /// its probe outcome.
    pub fn probe_unhealthy_hosts(&self) -> Vec<(String, bool)> {
        self.unhealthy_hosts()
            .into_iter()
            .map(|h| {
                let ok = self.probe_host(&h);
                (h, ok)
            })
            .collect()
    }

    /// Sends one RPC under the configured retry policy, updating the
    /// health book-keeping from the outcome.
    fn call(&self, url: &Url, call: &RpcCall) -> Result<RpcResponse> {
        let result = send_rpc_with(&self.net, &self.host, url, call, self.config().retry);
        self.observe(&url.host, &result);
        result
    }

    /// Registered archive names, sorted.
    pub fn archives(&self) -> Vec<String> {
        let mut v: Vec<String> = lock(&self.nodes).keys().cloned().collect();
        v.sort();
        v
    }

    /// The catalog entry for a logical archive: its primary shard (the
    /// one owning the lowest declination range). Metadata — schema, σ,
    /// primary table — is identical across a shard group, so this is the
    /// right entry point for planning lookups; use
    /// [`Portal::shards_of`] for the physical membership.
    pub fn node(&self, archive: &str) -> Option<RegisteredNode> {
        lock(&self.nodes)
            .get(&archive.to_ascii_uppercase())
            .and_then(|group| group.first().cloned())
    }

    /// All physical shards of a logical archive, in a **deterministic**
    /// order: ascending zone range, then host name within a range — so
    /// replicas of the same extent are adjacent, with the primary
    /// (lowest host) first. Replica selection and gather order both key
    /// off this ordering, so it is re-established here explicitly
    /// rather than trusted to registration-time bookkeeping. Empty if
    /// the archive is not registered.
    pub fn shards_of(&self, archive: &str) -> Vec<RegisteredNode> {
        let mut group = lock(&self.nodes)
            .get(&archive.to_ascii_uppercase())
            .cloned()
            .unwrap_or_default();
        group.sort_by(|a, b| {
            a.extent()
                .dec_lo_deg
                .total_cmp(&b.extent().dec_lo_deg)
                .then_with(|| a.url.host.cmp(&b.url.host))
        });
        group
    }

    /// The archive's shards as replica groups, one per distinct zone
    /// range in ascending order, each with its primary (lowest host)
    /// first — `shards_of` keeps same-extent nodes adjacent. Replicas of
    /// an extent hold identical data, so whatever is asked of an extent is
    /// asked of one member of its group.
    fn replica_groups(&self, archive: &str) -> Vec<Vec<RegisteredNode>> {
        let mut groups: Vec<Vec<RegisteredNode>> = Vec::new();
        for n in self.shards_of(archive) {
            match groups.last_mut() {
                Some(g) if g[0].extent() == n.extent() => g.push(n),
                _ => groups.push(vec![n]),
            }
        }
        groups
    }

    /// The UDDI provider name one shard registers under: the archive
    /// name for the group's primary shard, `name@host` for the rest.
    fn provider_name(index: usize, node: &RegisteredNode) -> String {
        if index == 0 {
            node.info.name.clone()
        } else {
            format!("{}@{}", node.info.name, node.url.host)
        }
    }

    /// Rewrites the registry records of one shard group from scratch:
    /// membership and ordering may both have changed, so stale provider
    /// names are dropped before the group re-registers.
    fn sync_registry(&self, name: &str, group: &[RegisteredNode]) {
        self.registry.unregister(name);
        for n in group {
            self.registry
                .unregister(&format!("{}@{}", n.info.name, n.url.host));
        }
        for (i, n) in group.iter().enumerate() {
            let extent = n.extent();
            let range = if extent.is_full_sky() {
                String::new()
            } else {
                format!(", dec [{}, {})", extent.dec_lo_deg, extent.dec_hi_deg)
            };
            self.registry.register(ServiceRecord {
                provider: Self::provider_name(i, n),
                category: "SkyNode".into(),
                url: n.url.clone(),
                description: format!(
                    "σ={}\" archive, primary table {}{range}",
                    n.info.sigma_arcsec, n.info.primary_table
                ),
            });
        }
    }

    /// The catalog the node at `url` publishes through its Meta-data
    /// service: schemas, row counts and table versions.
    fn fetch_catalog(&self, url: &Url) -> Result<Catalog> {
        let resp = self.call(url, &RpcCall::new("Metadata"))?;
        catalog_from_element(
            resp.require("catalog")?
                .as_xml()
                .ok_or_else(|| FederationError::protocol("catalog must be xml"))?,
        )
    }

    /// Registers the SkyNode at `url`: calls its Meta-data and Information
    /// services and catalogs the results (§5.1 registration flow). A node
    /// publishing a [`crate::meta::ZoneExtent`] joins its archive's shard
    /// group as the owner of that zone range; re-registering from the
    /// same host replaces the previous entry. Returns a [`Registration`]
    /// summary of what the Portal now knows about the archive.
    pub fn register_node(&self, url: &Url) -> Result<Registration> {
        let info_resp = self.call(url, &RpcCall::new("Information"))?;
        let info = ArchiveInfo::from_element(
            info_resp
                .require("info")?
                .as_xml()
                .ok_or_else(|| FederationError::protocol("info must be xml"))?,
        )?;
        let catalog = self.fetch_catalog(url)?;
        let table_count = catalog.tables.len();
        let node = RegisteredNode {
            info: info.clone(),
            url: url.clone(),
            catalog,
        };
        let group = {
            let mut nodes = lock(&self.nodes);
            let group = nodes.entry(info.name.to_ascii_uppercase()).or_default();
            group.retain(|n| n.url.host != url.host);
            group.push(node);
            group.sort_by(|a, b| {
                a.extent()
                    .dec_lo_deg
                    .total_cmp(&b.extent().dec_lo_deg)
                    .then_with(|| a.url.host.cmp(&b.url.host))
            });
            group.clone()
        };
        self.sync_registry(&info.name, &group);
        let extent = info.owned_extent();
        // The registering node's replica group: every group member
        // serving exactly the same zone range, itself included.
        let replica_count = group.iter().filter(|n| n.extent() == extent).count();
        Ok(Registration {
            archive: info.name.clone(),
            extent,
            shard_count: group.len(),
            replica_count,
            table_count,
        })
    }

    /// Removes a logical archive — every shard of it — from the
    /// federation.
    pub fn unregister(&self, archive: &str) -> bool {
        let removed = lock(&self.nodes).remove(&archive.to_ascii_uppercase());
        if let Some(group) = &removed {
            for (i, n) in group.iter().enumerate() {
                self.registry.unregister(&Self::provider_name(i, n));
            }
        }
        removed.is_some()
    }

    /// EXPLAIN: decomposes and plans the query — running the performance
    /// queries, exactly as a real submission would — but stops before
    /// firing the cross-match chain. Returns a human-readable rendering
    /// of the federated execution plan.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let query = parse_query(sql).map_err(FederationError::Sql)?;
        let dq = decompose(query).map_err(FederationError::Sql)?;
        let mut trace = ExecutionTrace::new();
        let counts = self.run_performance_queries(&dq, &mut trace)?;
        let plan = self.build_plan(&dq, &counts)?;

        let mut out = String::new();
        out.push_str(&format!(
            "Federated cross-match plan (threshold {}\u{3c3})\n",
            plan.threshold
        ));
        match &plan.region {
            Some(r) => out.push_str(&format!("  region: {}\n", r.to_spec())),
            None => out.push_str("  region: whole sky\n"),
        }
        out.push_str("  performance queries:\n");
        for pq in &dq.performance_queries {
            let n = counts.get(&pq.alias).copied().unwrap_or(0);
            out.push_str(&format!("    {}  -> {n}\n", pq.to_sql()));
        }
        out.push_str("  chain (list order; execution starts at the last step):\n");
        for (i, step) in plan.steps.iter().enumerate() {
            out.push_str(&format!(
                "    [{i}] {}{} @ {}  table {}  sigma={}\"  count={}\n",
                if step.dropout { "!" } else { "" },
                step.alias,
                step.url,
                step.table,
                step.sigma_arcsec,
                step.count_estimate
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
            ));
            if let Some(p) = &step.local_sql {
                out.push_str(&format!("         local:    {p}\n"));
            }
            if !step.carried.is_empty() {
                out.push_str(&format!("         carries:  {}\n", step.carried.join(", ")));
            }
            for r in &step.residual_sql {
                out.push_str(&format!("         residual: {r}\n"));
            }
        }
        out.push_str(&format!(
            "  select: {}\n",
            plan.select
                .iter()
                .map(|(e, a)| match a {
                    Some(a) => format!("{e} AS {a}"),
                    None => e.clone(),
                })
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if !plan.order_by.is_empty() {
            out.push_str(&format!(
                "  order by: {}\n",
                plan.order_by
                    .iter()
                    .map(|(e, d)| format!("{e}{}", if *d { " DESC" } else { "" }))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if let Some(n) = plan.limit {
            out.push_str(&format!("  limit: {n}\n"));
        }
        Ok(out)
    }

    /// Plans a query without firing the chain: parse, decompose, run the
    /// count-star performance queries (steps 2–4 of Figure 3), and build
    /// the federated execution plan (step 5), recording the same trace
    /// events a full submission would. The job service plans here once at
    /// admission, then drives [`Portal::execute_plan`] (or a stepwise
    /// walk from [`Portal::start_walk`]) separately.
    pub fn plan_query(&self, sql: &str, trace: &mut ExecutionTrace) -> Result<ExecutionPlan> {
        let query = parse_query(sql).map_err(FederationError::Sql)?;
        let dq = decompose(query).map_err(FederationError::Sql)?;

        // Step 2 (Figure 3): create performance queries.
        trace.push(
            "Portal",
            "decompose",
            format!(
                "{} archives, {} performance queries",
                dq.archives.len(),
                dq.performance_queries.len()
            ),
        );

        // Steps 3–4: run performance queries against the Query services.
        let counts = self.run_performance_queries(&dq, trace)?;

        // Step 5: build the plan.
        let plan = self.build_plan(&dq, &counts)?;
        trace.push(
            "Portal",
            "plan",
            format!(
                "chain order: {}",
                plan.steps
                    .iter()
                    .map(|s| {
                        format!(
                            "{}{}({})",
                            if s.dropout { "!" } else { "" },
                            s.alias,
                            s.count_estimate
                                .map(|c| c.to_string())
                                .unwrap_or_else(|| "-".into())
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        );
        Ok(plan)
    }

    /// Fires the chain for a prepared plan (steps 6–7 of Figure 3). An
    /// unsharded plan under [`ChainMode::Recursive`] with the result
    /// cache off runs as the paper's recursive daisy chain; every other
    /// plan is answered from the cache or walked to completion.
    pub fn execute_plan(
        &self,
        plan: &ExecutionPlan,
        trace: &mut ExecutionTrace,
    ) -> Result<(PartialSet, StatsChain, Degradation)> {
        let config = self.config();
        if config.chain_mode == ChainMode::Recursive
            && config.result_cache_capacity == 0
            && !plan.has_shards()
        {
            // The node-to-node chain carries each intermediate set over
            // one link instead of two and streams an over-limit input,
            // but it can express neither a scatter nor a recording.
            let head = &plan.steps[0].url;
            let r = invoke_cross_match(&self.net, &self.host, head, plan, 0);
            self.observe(&head.host, &r);
            return r.map(|(set, stats)| (set, stats, Degradation::default()));
        }
        let mut walk = self.start_walk(plan, trace);
        while !walk.is_done() {
            walk.step(self, trace)?;
        }
        walk.finish(self)
    }

    /// Classifies a submission against the result cache — once — and
    /// hands back the walk that runs it: already done when the cache
    /// answered (a hit, or an incremental repair; cached entries are only
    /// written by complete walks, so such an answer is never degraded),
    /// otherwise with every step ahead of it — re-planning under
    /// [`ChainMode::Checkpointed`], recording when the cache is on.
    pub fn start_walk(&self, plan: &ExecutionPlan, trace: &mut ExecutionTrace) -> CheckpointedWalk {
        if let Some((set, stats)) = self.cached_result(plan, trace) {
            return CheckpointedWalk::answered(plan, set, stats);
        }
        let config = self.config();
        let record = (config.result_cache_capacity > 0)
            .then(|| self.current_versions(plan))
            .flatten();
        let replan = config.chain_mode == ChainMode::Checkpointed;
        CheckpointedWalk::new(plan, replan, record)
    }

    /// Applies the plan's final ORDER BY / LIMIT / SELECT projection
    /// (step 8 of Figure 3) to a matched partial set.
    pub fn project_result(plan: &ExecutionPlan, set: PartialSet) -> Result<ResultSet> {
        project(plan, set)
    }

    /// Submits a cross-match query; returns the result set and the
    /// execution trace (the Figure-3 record).
    pub fn submit(&self, sql: &str) -> Result<(ResultSet, ExecutionTrace)> {
        let mut trace = ExecutionTrace::new();
        trace.push("Client", "submit", format!("query: {sql}"));
        // Retries and injected faults anywhere in the submission —
        // performance queries or the daisy chain — show up as metric
        // deltas; surface them in the trace so recovery is visible.
        let before = self.net.metrics();
        let (retries_before, backoff_before, faults_before) = (
            before.retry_total().retries,
            before.retry_total().backoff_seconds,
            before.fault_total(),
        );
        let plan = self.plan_query(sql, &mut trace)?;
        let chain = self.execute_plan(&plan, &mut trace);
        let after = self.net.metrics();
        let (retries, backoff, faults) = (
            after.retry_total().retries - retries_before,
            after.retry_total().backoff_seconds - backoff_before,
            after.fault_total() - faults_before,
        );
        if retries > 0 || faults > 0 {
            trace.push(
                "Portal",
                "recovery",
                format!(
                    "{retries} retries ({backoff:.3}s backoff), {faults} fault events \
                     during submission"
                ),
            );
        }
        let (set, stats, degradation) = chain?;
        for (alias, s) in &stats.entries {
            trace.push(
                alias.clone(),
                "cross match step",
                format!(
                    "tuples in {}, candidates probed {}, examined {}, chi2 accepted {}, scratch reuse {}, tuples out {}, tile builds {}, tile decodes {}, tile hits {}, cache hits {}, cache misses {}, cache repairs {}, cache evictions {}, failovers {}, hedges {}, hedge wins {}, shards pruned {}",
                    s.tuples_in,
                    s.candidates_probed,
                    s.candidates_examined,
                    s.chi2_accepted,
                    s.scratch_reuse,
                    s.tuples_out,
                    s.tile_builds,
                    s.tile_decodes,
                    s.tile_hits,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_repairs,
                    s.cache_evictions,
                    s.failovers,
                    s.hedges,
                    s.hedge_wins,
                    s.shards_pruned
                ),
            );
        }

        // Step 8: final projection and relay, with partial-result
        // honesty stamped on the header: a degraded answer says so, and
        // names what it lost, without the client scraping the trace.
        let mut result = project(&plan, set)?;
        result.degraded = degradation.degraded;
        result.dropped_archives = degradation.dropped.clone();
        if degradation.degraded {
            trace.push(
                "Portal",
                "partial result",
                format!(
                    "answer degraded; dropped: {}",
                    degradation.dropped.join(", ")
                ),
            );
        }
        trace.push(
            "Portal",
            "relay",
            format!("{} matched tuples to client", result.row_count()),
        );
        Ok((result, trace))
    }

    /// Attempts to serve `plan` from the result cache: a **hit** (the
    /// registry's table versions match the entry's version vector
    /// exactly) returns the cached final set with zero chain steps
    /// executed; a **monotonically stale** unsharded entry (every
    /// table at or past its cached version) is repaired incrementally
    /// by probing only the delta rows through the node `DeltaStep`
    /// service; anything else — a version regression, a vanished
    /// archive, a stale sharded entry — evicts the entry and returns
    /// `None` so the caller runs the chain cold. The one classification
    /// every submission gets ([`Portal::start_walk`]).
    fn cached_result(
        &self,
        plan: &ExecutionPlan,
        trace: &mut ExecutionTrace,
    ) -> Option<(PartialSet, StatsChain)> {
        let config = self.config();
        if config.result_cache_capacity == 0 {
            return None;
        }
        let signature = plan.cache_signature();
        let now = self.net.now_s();
        let current = self.current_versions(plan);
        // Classify under the cache lock; run any repair RPCs outside it.
        let stale = {
            let mut cache = lock(&self.cache);
            cache.sweep(now);
            let id = match cache.lookup(&signature) {
                Some(id) => id,
                None => {
                    cache.counters_mut().misses += 1;
                    return None;
                }
            };
            let Some(current) = current.as_ref() else {
                // An archive or table left the registry: the entry can
                // never validate again.
                cache.evict(id);
                cache.counters_mut().misses += 1;
                return None;
            };
            let entry = cache.get(id).expect("looked up above");
            if &entry.versions == current {
                cache.renew(id, now);
                cache.counters_mut().hits += 1;
                let (set, mut stats) = answer_of(cache.get(id).expect("present"));
                stamp_cache_counters(&mut stats, cache.counters());
                drop(cache);
                trace.push(
                    "Portal",
                    "cache hit",
                    format!(
                        "served {} tuples from the result cache; no chain step executed",
                        set.len()
                    ),
                );
                return Some((set, stats));
            }
            let monotone = entry.versions.len() == current.len()
                && entry.versions.iter().zip(current).all(|(old, new)| {
                    old.len() == new.len()
                        && old.iter().zip(new).all(|(o, c)| {
                            o.host == c.host && o.table == c.table && c.version >= o.version
                        })
                });
            if !monotone || plan.has_shards() {
                // A regression means the provenance no longer describes
                // the tables; a sharded entry keeps no per-shard delta
                // provenance. Either way the entry is unrepairable.
                cache.evict(id);
                cache.counters_mut().misses += 1;
                drop(cache);
                trace.push(
                    "Portal",
                    "cache evict",
                    "stale entry is not incrementally repairable; running the chain cold"
                        .to_string(),
                );
                return None;
            }
            entry.clone()
        };
        let current = current.expect("repair requires current versions");
        match self.repair_entry(plan, &stale, &current) {
            Ok(repaired) => {
                // The delta probes observed authoritative versions:
                // publish them so the next lookup validates as a hit.
                self.publish_versions(&repaired.versions);
                let mut cache = lock(&self.cache);
                cache.counters_mut().repairs += 1;
                let (set, mut stats) = answer_of(&repaired);
                match cache.lookup(&signature) {
                    Some(id) => {
                        if let Some(slot) = cache.get_mut(id) {
                            *slot = repaired;
                        }
                        cache.renew(id, now);
                    }
                    None => {
                        cache.insert(
                            repaired,
                            now,
                            config.result_cache_ttl_s,
                            config.result_cache_capacity,
                        );
                    }
                }
                stamp_cache_counters(&mut stats, cache.counters());
                drop(cache);
                trace.push(
                    "Portal",
                    "cache repair",
                    format!(
                        "stale entry repaired incrementally ({} tuples); only delta rows probed",
                        set.len()
                    ),
                );
                Some((set, stats))
            }
            Err(e) => {
                let mut cache = lock(&self.cache);
                if let Some(id) = cache.lookup(&signature) {
                    cache.evict(id);
                }
                cache.counters_mut().misses += 1;
                drop(cache);
                trace.push(
                    "Portal",
                    "cache evict",
                    format!("incremental repair failed ({e}); running the chain cold"),
                );
                None
            }
        }
    }

    /// The registry's view of each `(host, table)` version the plan
    /// touches — no round trips. `None` when any addressed host or
    /// table is no longer registered.
    fn current_versions(&self, plan: &ExecutionPlan) -> Option<Vec<Vec<StepVersion>>> {
        let nodes = lock(&self.nodes);
        let mut out = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let hosts: Vec<&str> = if step.shards.is_empty() {
                vec![step.url.host.as_str()]
            } else {
                step.shards.iter().map(|s| s.url.host.as_str()).collect()
            };
            let mut vs = Vec::with_capacity(hosts.len());
            for host in hosts {
                let node = nodes.values().flatten().find(|n| n.url.host == host)?;
                let version = node
                    .catalog
                    .tables
                    .iter()
                    .find(|t| t.schema.name.eq_ignore_ascii_case(&step.table))
                    .map(|t| t.version)?;
                vs.push(StepVersion {
                    host: host.to_string(),
                    table: step.table.clone(),
                    version,
                });
            }
            out.push(vs);
        }
        Some(out)
    }

    /// Updates the registry's version snapshot for one `(host, table)`
    /// pair — called when an authoritative version is learned outside a
    /// full re-registration (delta probes, table transfers, caching
    /// walks). Monotone: a recording walk spans job quanta, so the
    /// registry may already know a newer version than an early step saw;
    /// keeping it makes that entry stale (repairable), never a false hit.
    pub(crate) fn update_registry_version(&self, host: &str, table: &str, version: u64) {
        let mut nodes = lock(&self.nodes);
        for group in nodes.values_mut() {
            for n in group.iter_mut() {
                if n.url.host == host {
                    for t in &mut n.catalog.tables {
                        if t.schema.name.eq_ignore_ascii_case(table) {
                            t.version = t.version.max(version);
                        }
                    }
                }
            }
        }
    }

    /// Publishes a cache entry's version vector to the registry: the
    /// steps that built (or repaired) it observed authoritative versions,
    /// so the next lookup validates as a hit.
    fn publish_versions(&self, versions: &[Vec<StepVersion>]) {
        for v in versions.iter().flatten() {
            self.update_registry_version(&v.host, &v.table, v.version);
        }
    }

    /// Inserts the entry a clean recording walk built, under the
    /// configured lease.
    pub(crate) fn populate_cache(&self, entry: CacheEntry, trace: &mut ExecutionTrace) {
        let config = self.config();
        self.publish_versions(&entry.versions);
        let n = entry.steps.len();
        let inserted = lock(&self.cache).insert(
            entry,
            self.net.now_s(),
            config.result_cache_ttl_s,
            config.result_cache_capacity,
        );
        if inserted.is_some() {
            trace.push(
                "Portal",
                "cache populate",
                format!(
                    "cached all {n} step partial sets under a {:.0}s lease",
                    config.result_cache_ttl_s
                ),
            );
        }
    }

    /// Re-reads every shard catalog of `archive` through the Metadata
    /// service, refreshing the registry's table-version snapshot (and
    /// schemas) without a full re-registration. Returns the number of
    /// shards refreshed.
    pub fn refresh_table_versions(&self, archive: &str) -> Result<usize> {
        let shards = self.shards_of(archive);
        if shards.is_empty() {
            return Err(FederationError::planning(format!(
                "archive {archive} is not registered"
            )));
        }
        let mut refreshed = 0;
        for shard in &shards {
            let catalog = self.fetch_catalog(&shard.url)?;
            let mut nodes = lock(&self.nodes);
            if let Some(group) = nodes.get_mut(&archive.to_ascii_uppercase()) {
                if let Some(n) = group.iter_mut().find(|n| n.url.host == shard.url.host) {
                    n.catalog = catalog;
                    refreshed += 1;
                }
            }
        }
        Ok(refreshed)
    }

    /// Result-cache effectiveness counters and live entry count — the
    /// REPL's `\cache` view.
    pub fn cache_report(&self) -> (CacheCounters, usize) {
        let cache = lock(&self.cache);
        (cache.counters(), cache.len())
    }

    /// Stamps the current cache counters into the first entry of a
    /// stats chain (see [`stamp_cache_counters`]).
    pub(crate) fn stamp_cache_counters(&self, stats: &mut StatsChain) {
        let c = lock(&self.cache).counters();
        stamp_cache_counters(stats, c);
    }

    /// Runs the count-star performance queries, in parallel when
    /// configured (the paper passes them "as asynchronous SOAP messages").
    fn run_performance_queries(
        &self,
        dq: &DecomposedQuery,
        trace: &mut ExecutionTrace,
    ) -> Result<HashMap<String, u64>> {
        let config = self.config();
        let mut out = HashMap::new();
        // One job per (alias, extent): each shard counts its own zone
        // range and the Portal sums the estimates per alias, so a
        // sharded archive orders the plan exactly as its single-node
        // equivalent would. Each extent is counted once — by one member
        // of its replica group — or the sum would scale with the
        // replication factor.
        let mut jobs: Vec<(String, String, Vec<Url>)> = Vec::new();
        for pq in &dq.performance_queries {
            let groups = self.replica_groups(&pq.archive);
            if groups.is_empty() {
                return Err(FederationError::planning(format!(
                    "archive {} is not registered with the Portal",
                    pq.archive
                )));
            }
            for g in groups {
                let urls = g.into_iter().map(|n| n.url).collect();
                jobs.push((pq.alias.clone(), pq.to_sql(), urls));
            }
        }

        // Counts one extent: healthy-first pick, then failover through
        // the untried siblings on unhealthy verdicts — the scatter's
        // replica selection (§13), so a dead primary cannot fail the
        // query at planning time. Non-unhealthy errors stay fatal.
        let run_one = |alias: &str, sql: &str, candidates: &[Url]| -> Result<(String, u64)> {
            let mut order: Vec<&Url> = candidates.iter().collect();
            let pick = order
                .iter()
                .position(|u| !self.host_is_unhealthy(&u.host))
                .unwrap_or(0);
            let picked = order.remove(pick);
            order.insert(0, picked);
            let mut unhealthy = None;
            for (tried, url) in order.iter().enumerate() {
                if tried > 0 {
                    self.net.record_node_event(&self.host, "failover");
                }
                let r = self.call(
                    url,
                    &RpcCall::new("Query").param("sql", SoapValue::Str(sql.to_string())),
                );
                match r {
                    Ok(resp) => {
                        // A negative count would wrap and reorder the plan.
                        let count = resp
                            .require("count")?
                            .as_i64()
                            .and_then(|c| u64::try_from(c).ok())
                            .ok_or_else(|| {
                                FederationError::protocol("count must be a non-negative integer")
                            })?;
                        return Ok((alias.to_string(), count));
                    }
                    Err(e @ FederationError::NodeUnhealthy { .. }) => unhealthy = Some(e),
                    Err(e) => return Err(e),
                }
            }
            Err(unhealthy.expect("every group has at least one candidate"))
        };

        if config.parallel_performance_queries && jobs.len() > 1 {
            let results: Vec<Result<(String, u64)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .map(|(alias, sql, url)| scope.spawn(move || run_one(alias, sql, url)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect()
            });
            for r in results {
                let (alias, count) = r?;
                let sum = out.entry(alias).or_insert(0u64);
                *sum = sum.saturating_add(count);
            }
        } else {
            for (alias, sql, url) in &jobs {
                let (a, c) = run_one(alias, sql, url)?;
                trace.push("Portal", "performance query", format!("{sql} -> {c} [{a}]"));
                let sum = out.entry(a).or_insert(0u64);
                *sum = sum.saturating_add(c);
            }
        }
        if config.parallel_performance_queries && !jobs.is_empty() {
            let mut summary: Vec<String> = out
                .iter()
                .map(|(alias, c)| format!("{alias}={c}"))
                .collect();
            summary.sort();
            trace.push(
                "Portal",
                "performance queries",
                format!("count star results: {}", summary.join(", ")),
            );
        }
        Ok(out)
    }

    /// Builds the federated execution plan: drop-outs at the head, then
    /// mandatory archives ordered by the configured strategy.
    fn build_plan(
        &self,
        dq: &DecomposedQuery,
        counts: &HashMap<String, u64>,
    ) -> Result<ExecutionPlan> {
        let config = self.config();
        let mut mandatory: Vec<&str> = dq.xmatch.mandatory();
        match config.ordering {
            OrderingStrategy::CountStarDescending => {
                mandatory.sort_by_key(|a| {
                    std::cmp::Reverse(counts.get(*a).copied().unwrap_or(u64::MAX))
                });
            }
            OrderingStrategy::CountStarAscending => {
                mandatory.sort_by_key(|a| counts.get(*a).copied().unwrap_or(0));
            }
            OrderingStrategy::DeclarationOrder => {}
            OrderingStrategy::Random(seed) => {
                // xorshift64* — deterministic shuffle without a rand dep.
                let mut state = seed | 1;
                let mut next = || {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    state.wrapping_mul(0x2545F4914F6CDD1D)
                };
                for i in (1..mandatory.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    mandatory.swap(i, j);
                }
            }
        }

        let ordered_aliases: Vec<&str> =
            dq.xmatch.dropouts().into_iter().chain(mandatory).collect();

        let mut steps = Vec::with_capacity(ordered_aliases.len());
        for alias in &ordered_aliases {
            let slice = dq
                .archive(alias)
                .expect("decomposition covers every XMATCH alias");
            let node = self.node(&slice.table.archive).ok_or_else(|| {
                FederationError::planning(format!(
                    "archive {} is not registered with the Portal",
                    slice.table.archive
                ))
            })?;
            // The queried table must exist and carry a position index.
            let schema = node.table_schema(&slice.table.table).ok_or_else(|| {
                FederationError::planning(format!(
                    "archive {} has no table {}",
                    slice.table.archive, slice.table.table
                ))
            })?;
            if schema.position.is_none() {
                return Err(FederationError::planning(format!(
                    "table {}:{} has no position columns; cross match needs the primary table",
                    slice.table.archive, slice.table.table
                )));
            }
            // A shard group of more than one node makes this step a
            // scatter-gather step: the plan lists one entry per distinct
            // zone range — the primary (lowest host) as the scatter
            // target, its same-extent siblings as failover/hedge
            // replicas.
            let extent_groups = self.replica_groups(&slice.table.archive);
            let replicated = extent_groups.iter().any(|eg| eg.len() > 1);
            // Any replication routes the step through the scatter
            // executor even for a single extent (the daisy chain has no
            // failover); a single unreplicated node keeps the legacy
            // un-scattered wire shape.
            let shards = if extent_groups.len() > 1 || replicated {
                extent_groups
                    .iter()
                    .map(|eg| PlanShard {
                        url: eg[0].url.clone(),
                        extent: eg[0].extent(),
                        replicas: eg[1..].iter().map(|n| n.url.clone()).collect(),
                    })
                    .collect()
            } else {
                Vec::new()
            };
            steps.push(PlanStep {
                alias: slice.table.alias.clone(),
                archive: node.info.name.clone(),
                table: slice.table.table.clone(),
                url: node.url.clone(),
                dropout: slice.dropout,
                sigma_arcsec: node.info.sigma_arcsec,
                local_sql: slice.predicate().map(|e| e.to_string()),
                carried: slice.carried_columns.clone(),
                residual_sql: Vec::new(),
                count_estimate: counts.get(slice.table.alias.as_str()).copied(),
                shards,
            });
        }

        // Residual placement: a residual runs at the earliest processing
        // position (processing order is reversed list order) where every
        // referenced alias has joined the tuple.
        let n = steps.len();
        let alias_order: Vec<String> = steps.iter().map(|s| s.alias.clone()).collect();
        let processing_pos = |alias: &str| -> Option<usize> {
            alias_order
                .iter()
                .position(|a| a == alias)
                .map(|i| n - 1 - i)
        };
        for residual in &dq.residuals {
            let needed = residual_position(residual, &processing_pos)?;
            let step_index = n - 1 - needed;
            steps[step_index].residual_sql.push(residual.to_string());
        }

        let region = match &dq.region {
            Some(spec) => Some(Region::from_spec(spec)?),
            None => None,
        };
        Ok(ExecutionPlan {
            threshold: dq.xmatch.threshold,
            region,
            steps,
            select: dq
                .query
                .select
                .iter()
                .map(|item| match item {
                    skyquery_sql::SelectItem::Expr { expr, alias } => {
                        (expr.to_string(), alias.clone())
                    }
                    skyquery_sql::SelectItem::CountStar
                    | skyquery_sql::SelectItem::Aggregate { .. } => {
                        unreachable!("decompose rejects aggregates")
                    }
                })
                .collect(),
            order_by: dq
                .query
                .order_by
                .iter()
                .map(|k| {
                    (
                        k.expr.to_string(),
                        k.direction == skyquery_sql::ast::SortDirection::Desc,
                    )
                })
                .collect(),
            limit: dq.query.limit,
            max_message_bytes: config.max_message_bytes,
            chunking: config.chunking,
            kernel: config.kernel,
            retry: config.retry,
            lease_ttl_s: config.lease_ttl_s,
        })
    }
}

/// The answer a cache entry holds: the head step's set, and the steps'
/// statistics in execution order.
fn answer_of(entry: &CacheEntry) -> (PartialSet, StatsChain) {
    let head = entry
        .steps
        .first()
        .expect("a cache entry holds every plan step");
    let mut stats = StatsChain::new();
    for s in entry.steps.iter().rev() {
        stats.push(s.alias.clone(), s.stats);
    }
    (head.set.clone(), stats)
}

/// Writes a cache-counter snapshot into the first entry of a stats
/// chain so the per-step trace lines and the `StatsChain` wire format
/// carry cache effectiveness alongside the kernel counters.
fn stamp_cache_counters(stats: &mut StatsChain, c: CacheCounters) {
    if let Some((_, s)) = stats.entries.first_mut() {
        s.cache_hits = c.hits as usize;
        s.cache_misses = c.misses as usize;
        s.cache_repairs = c.repairs as usize;
        s.cache_evictions = c.evictions as usize;
    }
}

// Crate-internal accessors for the baseline strategies (baseline.rs).
impl Portal {
    pub(crate) fn run_performance_queries_for_baseline(
        &self,
        dq: &DecomposedQuery,
        trace: &mut ExecutionTrace,
    ) -> Result<HashMap<String, u64>> {
        self.run_performance_queries(dq, trace)
    }

    pub(crate) fn build_plan_for_baseline(
        &self,
        dq: &DecomposedQuery,
        counts: &HashMap<String, u64>,
    ) -> Result<ExecutionPlan> {
        self.build_plan(dq, counts)
    }

    pub(crate) fn net_clone(&self) -> SimNetwork {
        self.net.clone()
    }
}

/// Final projection, shared with the pull-to-portal baseline.
pub(crate) fn project_for_baseline(plan: &ExecutionPlan, set: PartialSet) -> Result<ResultSet> {
    project(plan, set)
}

/// Processing position at which a residual becomes evaluable.
fn residual_position(
    residual: &Expr,
    processing_pos: &impl Fn(&str) -> Option<usize>,
) -> Result<usize> {
    let aliases = residual.referenced_aliases();
    let mut max_pos = 0;
    for a in aliases {
        let p = processing_pos(a).ok_or_else(|| {
            FederationError::planning(format!("residual references unknown alias {a}"))
        })?;
        max_pos = max_pos.max(p);
    }
    Ok(max_pos)
}

/// Applies the final ORDER BY / LIMIT / SELECT to the matched tuples.
fn project(plan: &ExecutionPlan, mut set: PartialSet) -> Result<ResultSet> {
    // ORDER BY over the carried columns, then LIMIT, then project.
    if !plan.order_by.is_empty() {
        let keys: Vec<(Expr, bool)> = plan
            .order_by
            .iter()
            .map(|(sql, desc)| {
                Ok((
                    skyquery_sql::parse_expr(sql).map_err(FederationError::Sql)?,
                    *desc,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut keyed: Vec<(Vec<Value>, crate::xmatch::PartialTuple)> =
            Vec::with_capacity(set.tuples.len());
        for tuple in std::mem::take(&mut set.tuples) {
            let b = TupleBindings {
                columns: &set.columns,
                values: &tuple.values,
            };
            let k: Vec<Value> = keys
                .iter()
                .map(|(e, _)| e.eval(&b).map_err(FederationError::Sql))
                .collect::<Result<_>>()?;
            keyed.push((k, tuple));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for (i, (_, desc)) in keys.iter().enumerate() {
                let ord = a[i].key_cmp(&b[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        set.tuples = keyed.into_iter().map(|(_, t)| t).collect();
    }
    if let Some(n) = plan.limit {
        set.tuples.truncate(n);
    }

    let mut items: Vec<(Expr, String)> = Vec::with_capacity(plan.select.len());
    for (sql, alias) in &plan.select {
        let expr = skyquery_sql::parse_expr(sql).map_err(FederationError::Sql)?;
        let name = alias.clone().unwrap_or_else(|| sql.clone());
        items.push((expr, name));
    }

    // Evaluate all rows first, then infer column types from the values
    // (plain column references reuse the carried column's declared type).
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(set.tuples.len());
    for tuple in &set.tuples {
        let b = TupleBindings {
            columns: &set.columns,
            values: &tuple.values,
        };
        let mut row = Vec::with_capacity(items.len());
        for (expr, _) in &items {
            row.push(expr.eval(&b).map_err(FederationError::Sql)?);
        }
        rows.push(row);
    }

    let columns: Vec<ResultColumn> = items
        .iter()
        .enumerate()
        .map(|(i, (expr, name))| {
            let dtype = match expr {
                Expr::Column { alias, column } => set
                    .columns
                    .iter()
                    .find(|c| c.name == format!("{alias}.{column}"))
                    .map(|c| c.dtype),
                _ => None,
            }
            .or_else(|| {
                let mut types = rows.iter().filter_map(|r| r[i].data_type());
                let first = types.next()?;
                // `sql::eval` turns an Int product past i64 into a Float,
                // so one computed column can hold both; an Int's text is
                // also a valid double.
                Some(match first {
                    DataType::Int if types.any(|t| t == DataType::Float) => DataType::Float,
                    _ => first,
                })
            })
            .unwrap_or(DataType::Float);
            ResultColumn::new(name.clone(), dtype)
        })
        .collect();

    let mut rs = ResultSet::new(columns);
    for row in rows {
        rs.push_row(row)?;
    }
    Ok(rs)
}

impl Endpoint for Portal {
    fn handle(&self, _net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        crate::service::serve(&req, |call| match call.method.as_str() {
            // Registration service (§5.1): "When a SkyNode wishes to join
            // the SkyQuery federation; it calls the Registration service
            // of the Portal."
            "Register" => call
                .require("url")
                .map_err(FederationError::Soap)
                .and_then(|v| {
                    let url_str = v
                        .as_str()
                        .ok_or_else(|| FederationError::protocol("url must be a string"))?;
                    let url = Url::parse(url_str).map_err(FederationError::Net)?;
                    let reg = self.register_node(&url)?;
                    Ok(RpcResponse::new("Register")
                        .result("archive", SoapValue::Str(reg.archive))
                        .result("shards", SoapValue::Int(reg.shard_count as i64))
                        .result("replicas", SoapValue::Int(reg.replica_count as i64)))
                }),
            // The SkyQuery service: accepts the user query from a Client.
            "SkyQuery" => call
                .require("sql")
                .map_err(FederationError::Soap)
                .and_then(|v| {
                    let sql = v
                        .as_str()
                        .ok_or_else(|| FederationError::protocol("sql must be a string"))?;
                    let (result, trace) = self.submit(sql)?;
                    let mut trace_el = skyquery_xml::Element::new("Trace");
                    for e in trace.events() {
                        trace_el = trace_el.with_child(
                            skyquery_xml::Element::new("Event")
                                .with_attr("seq", e.seq.to_string())
                                .with_attr("actor", e.actor.clone())
                                .with_attr("action", e.action.clone())
                                .with_attr("elapsed_us", e.elapsed.as_micros().to_string())
                                .with_text(e.detail.clone()),
                        );
                    }
                    Ok(RpcResponse::new("SkyQuery")
                        .result("result", SoapValue::Table(result.to_votable("result")))
                        // Partial-result honesty crosses the wire too:
                        // a remote client sees the same degraded flag a
                        // local caller reads off the ResultSet.
                        .result("degraded", SoapValue::Bool(result.degraded))
                        .result("dropped", SoapValue::Str(result.dropped_archives.join(",")))
                        .result("trace", SoapValue::Xml(trace_el)))
                }),
            other => Err(FederationError::protocol(format!(
                "unknown portal service {other}"
            ))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmatch::{PartialTuple, TupleState};

    #[test]
    fn computed_column_mixing_int_and_float_is_declared_float() {
        let plan = ExecutionPlan {
            threshold: 3.5,
            region: None,
            steps: Vec::new(),
            select: vec![("A.n * A.n".into(), Some("sq".into()))],
            order_by: Vec::new(),
            limit: None,
            max_message_bytes: DEFAULT_MAX_MESSAGE_BYTES,
            chunking: true,
            kernel: MatchKernel::default(),
            retry: RetryPolicy::default(),
            lease_ttl_s: DEFAULT_LEASE_TTL_S,
        };
        let mut set = PartialSet::new(vec![ResultColumn::new("A.n", DataType::Int)]);
        let state = TupleState {
            a: 1.0,
            ax: 1.0,
            ay: 0.0,
            az: 0.0,
        };
        for n in [3, 3_000_000_000] {
            set.tuples.push(PartialTuple {
                state,
                values: vec![Value::Int(n)],
            });
        }
        let rs = Portal::project_result(&plan, set).unwrap();
        let table = rs.to_votable("result");
        assert_eq!(rs.columns[0].dtype, DataType::Float);
        assert_eq!(rs.rows[0][0], Value::Int(9));
        assert_eq!(
            table.rows,
            vec![vec![Some("9".to_string())], vec![Some("9e18".to_string())]]
        );
    }
}
