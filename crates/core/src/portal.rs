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

use skyquery_net::{lock, Endpoint, HttpRequest, HttpResponse, ServiceRecord, SimNetwork, Url};
use skyquery_soap::{RpcCall, RpcResponse, SoapValue};
use skyquery_sql::ast::{OrderKey, SortDirection};
use skyquery_sql::{decompose, parse_query, DecomposedQuery, Expr};
use skyquery_storage::Catalog;

use crate::error::{field, FederationError, Result};
use crate::meta::{catalog_from_element, ArchiveInfo, RegisteredNode, Registration};
use crate::plan::{
    ExecutionPlan, PlanShard, PlanStep, DEFAULT_LEASE_TTL_S, DEFAULT_MAX_MESSAGE_BYTES,
};
use crate::query_exec::{column_type, order_limit_select};
use crate::region::Region;
use crate::result::{ResultColumn, ResultSet};
use crate::result_cache::{CacheCounters, CacheEntry, ResultCache, StepVersion};
use crate::retry::RetryPolicy;
use crate::skynode::invoke_cross_match;
use crate::trace::{ExecutionTrace, StatsChain};
use crate::transfer::send_rpc_with;
use crate::walk::{fan_out, residual_step, CheckpointedWalk};
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
    /// Portal-driven execution ([`CheckpointedWalk`]): one `ScatterStep`
    /// call per archive (per extent, when sharded), each step's output
    /// committed at the Portal as the walk's checkpoint. A mid-chain
    /// failure re-plans the remaining steps around the failed node and
    /// resumes from the committed set instead of re-running the
    /// committed prefix.
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
    /// Lease TTL (simulated seconds) granted on every chunked-transfer
    /// session and exchange transaction created for this federation's
    /// queries; node janitors reclaim anything older.
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

/// One submission's life (§5.3, Figure 3): plan it (steps 2–5), fire the
/// chain (6–7), then project and relay (8). [`Portal::advance`] moves it
/// a quantum at a time and answers in the one that completes its work.
/// [`Portal::submit`] loops on it; the job service advances each job one
/// quantum per scheduler turn, so a long chain from one tenant cannot
/// monopolize the Portal. An ended submission holds only its trace.
pub struct Submission {
    /// The query, until the first quantum plans it.
    sql: Option<String>,
    plan: Option<Box<ExecutionPlan>>,
    /// The walk under way, between quanta. The committed set lives only
    /// here, at the Portal.
    walk: Option<Box<CheckpointedWalk>>,
    /// The submission's Figure-3 record.
    pub trace: ExecutionTrace,
    /// Retries, backoff seconds and fault events seen across its quanta.
    recovery: (u64, f64, u64),
}

impl Submission {
    /// A submission of `sql`, not yet planned, with an empty trace.
    pub fn new(sql: impl Into<String>) -> Submission {
        Submission {
            sql: Some(sql.into()),
            plan: None,
            walk: None,
            trace: ExecutionTrace::new(),
            recovery: (0, 0.0, 0),
        }
    }
}

/// Most count answers a Portal holds. An entry is a count's SQL text,
/// a few host names and versions, about 300 bytes, so a full map is
/// about 300 KB. A full map is cleared, not aged: a cleared count is
/// asked again, never served wrong.
const COUNT_ANSWERS: usize = 1024;

/// What a count answer is kept under: the count's SQL text and the hosts
/// of the extent group it was asked of.
type CountKey = (String, Vec<String>);

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
    /// Count-star answers (DESIGN §12 "Count answers"): each holds the
    /// group's registry versions of the counted table when it was asked,
    /// and the count. A count is asked again once any version moves.
    counts: Mutex<HashMap<CountKey, (Vec<u64>, u64)>>,
}

impl Portal {
    /// Creates a Portal and binds it to `host` on the network.
    pub fn start(
        net: &SimNetwork,
        host: impl Into<String>,
        config: FederationConfig,
    ) -> Arc<Portal> {
        let host = host.into();
        let portal = Arc::new(Portal {
            host: host.clone(),
            net: net.clone(),
            config: Mutex::new(config),
            nodes: Mutex::new(HashMap::new()),
            health: Mutex::new(HashMap::new()),
            cache: Mutex::new(ResultCache::new()),
            counts: Mutex::new(HashMap::new()),
        });
        net.bind(host, portal.clone());
        portal
    }

    /// UDDI-style discovery (§3.1: "services can register themselves
    /// and be discovered"): the services of a category, "Portal" (this
    /// Portal) or "SkyNode" (every registered shard), sorted by provider
    /// name.
    pub fn discover(&self, category: &str) -> Vec<ServiceRecord> {
        let mut records = vec![ServiceRecord {
            provider: "SkyQuery Portal".into(),
            category: "Portal".into(),
            url: self.url(),
            description: "Registration and SkyQuery services".into(),
        }];
        for group in lock(&self.nodes).values() {
            records.extend(group.iter().enumerate().map(|(i, n)| {
                let extent = n.extent();
                let range = if extent.is_full_sky() {
                    String::new()
                } else {
                    format!(", dec [{}, {})", extent.dec_lo_deg, extent.dec_hi_deg)
                };
                ServiceRecord {
                    provider: Self::provider_name(i, n),
                    category: "SkyNode".into(),
                    url: n.url.clone(),
                    description: format!(
                        "σ={}\" archive, primary table {}{range}",
                        n.info.sigma_arcsec, n.info.primary_table
                    ),
                }
            }));
        }
        records.retain(|r| r.category == category);
        records.sort_by(|a, b| a.provider.cmp(&b.provider));
        records
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

    /// The catalog the node at `url` publishes through its Meta-data
    /// service: schemas, row counts and table versions.
    fn fetch_catalog(&self, url: &Url) -> Result<Catalog> {
        let resp = self.call(url, &RpcCall::new("Metadata"))?;
        catalog_from_element(field(&resp.results, "catalog")?)
    }

    /// Registers the SkyNode at `url`: calls its Meta-data and Information
    /// services and catalogs the results (§5.1 registration flow). A node
    /// publishing a [`crate::meta::ZoneExtent`] joins its archive's shard
    /// group as the owner of that zone range; re-registering from the
    /// same host replaces the previous entry. Returns a [`Registration`]
    /// summary of what the Portal now knows about the archive.
    pub fn register_node(&self, url: &Url) -> Result<Registration> {
        let info_resp = self.call(url, &RpcCall::new("Information"))?;
        let info = ArchiveInfo::from_element(field(&info_resp.results, "info")?)?;
        let catalog = self.fetch_catalog(url)?;
        let table_count = catalog.tables.len();
        let node = RegisteredNode {
            info: info.clone(),
            url: url.clone(),
            catalog,
        };
        let extent = info.owned_extent();
        let (shard_count, replica_count) = {
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
            // The registering node's replica group: every group member
            // serving exactly the same zone range, itself included.
            let replicas = group.iter().filter(|n| n.extent() == extent).count();
            (group.len(), replicas)
        };
        self.forget_counts(&[&url.host]);
        Ok(Registration {
            archive: info.name.clone(),
            extent,
            shard_count,
            replica_count,
            table_count,
        })
    }

    /// Removes a logical archive — every shard of it — from the
    /// federation.
    pub fn unregister(&self, archive: &str) -> bool {
        let removed = lock(&self.nodes).remove(&archive.to_ascii_uppercase());
        if let Some(group) = &removed {
            let hosts: Vec<&str> = group.iter().map(|n| n.url.host.as_str()).collect();
            self.forget_counts(&hosts);
        }
        removed.is_some()
    }

    /// Drops every count answer asked of any of `hosts`: a node that
    /// registers again may hold other rows at the same table versions.
    fn forget_counts(&self, hosts: &[&str]) {
        lock(&self.counts)
            .retain(|(_, group), _| !group.iter().any(|h| hosts.contains(&h.as_str())));
    }

    /// EXPLAIN: decomposes and plans the query — running the performance
    /// queries, exactly as a real submission would — but stops before
    /// firing the cross-match chain. Returns a human-readable rendering
    /// of the federated execution plan.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let (dq, counts, plan) = self.plan(sql, &mut ExecutionTrace::new())?;

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
    /// events a full submission would. The first quantum of
    /// [`Portal::advance`], and the plan of the pull-to-portal baseline.
    pub fn plan_query(&self, sql: &str, trace: &mut ExecutionTrace) -> Result<ExecutionPlan> {
        self.plan(sql, trace).map(|(_, _, plan)| plan)
    }

    /// The one planning path, behind [`Portal::plan_query`] and
    /// [`Portal::explain`]: the decomposition, the count-star answers per
    /// alias, and the plan built from them.
    fn plan(
        &self,
        sql: &str,
        trace: &mut ExecutionTrace,
    ) -> Result<(DecomposedQuery, HashMap<String, u64>, ExecutionPlan)> {
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
        Ok((dq, counts, plan))
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
    /// answered (a hit, or a repair walked inline; cached entries are only
    /// written by complete walks, so such an answer is never degraded),
    /// otherwise with every step ahead of it — re-planning under
    /// [`ChainMode::Checkpointed`], recording when the cache is on.
    pub(crate) fn start_walk(
        &self,
        plan: &ExecutionPlan,
        trace: &mut ExecutionTrace,
    ) -> CheckpointedWalk {
        if let Some(walk) = self.cached_result(plan, trace) {
            return walk;
        }
        let config = self.config();
        let record = (config.result_cache_capacity > 0)
            .then(|| self.current_versions(plan))
            .flatten();
        let replan = config.chain_mode == ChainMode::Checkpointed;
        CheckpointedWalk::new(plan, replan, record)
    }

    /// Applies the plan's final ORDER BY / LIMIT / SELECT projection
    /// (step 8 of Figure 3) to a matched partial set, through the Query
    /// service's own projection tail. A plain column reference keeps its
    /// carried column's declared type; a computed column takes its type
    /// from its values.
    pub fn project_result(plan: &ExecutionPlan, set: PartialSet) -> Result<ResultSet> {
        let parse = |sql: &str| skyquery_sql::parse_expr(sql).map_err(FederationError::Sql);
        let order_by: Vec<OrderKey> = plan
            .order_by
            .iter()
            .map(|(sql, desc)| {
                Ok(OrderKey {
                    expr: parse(sql)?,
                    direction: if *desc {
                        SortDirection::Desc
                    } else {
                        SortDirection::Asc
                    },
                })
            })
            .collect::<Result<_>>()?;
        let mut exprs: Vec<Expr> = Vec::with_capacity(plan.select.len());
        for (sql, _) in &plan.select {
            exprs.push(parse(sql)?);
        }
        let bound = set.tuples.iter().map(|t| TupleBindings {
            columns: &set.columns,
            values: &t.values,
        });
        let rows = order_limit_select(bound, &order_by, plan.limit, &exprs)?;

        let columns: Vec<ResultColumn> = exprs
            .iter()
            .zip(&plan.select)
            .enumerate()
            .map(|(i, (expr, (sql, alias)))| {
                let declared = match expr {
                    Expr::Column { alias, column } => set
                        .columns
                        .iter()
                        .find(|c| c.name == format!("{alias}.{column}"))
                        .map(|c| c.dtype),
                    _ => None,
                };
                let dtype = column_type(declared, &rows, i);
                ResultColumn::new(alias.clone().unwrap_or_else(|| sql.clone()), dtype)
            })
            .collect();

        let mut rs = ResultSet::new(columns);
        for row in rows {
            rs.push_row(row)?;
        }
        Ok(rs)
    }

    /// Submits a cross-match query; returns the result set and the
    /// execution trace (the Figure-3 record).
    pub fn submit(&self, sql: &str) -> Result<(ResultSet, ExecutionTrace)> {
        let mut sub = Submission::new(sql);
        sub.trace.push("Client", "submit", format!("query: {sql}"));
        let (result, stats) = loop {
            if let Some(answer) = self.advance(&mut sub) {
                break answer?;
            }
        };
        let mut trace = sub.trace;
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
        // Step 8: relay. A degraded answer says so, and names what it
        // lost, without the client scraping the trace.
        if result.degraded {
            trace.push(
                "Portal",
                "partial result",
                format!(
                    "answer degraded; dropped: {}",
                    result.dropped_archives.join(", ")
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

    /// Runs one quantum of `sub`, answering in the one that completes its
    /// work. The first plans it and, with the result cache on, classifies
    /// it (`Portal::start_walk`): a hit or repair answers there, a miss
    /// keeps its walk. Under [`ChainMode::Recursive`] the second runs the
    /// whole chain or walk; under [`ChainMode::Checkpointed`] each later
    /// quantum runs one walk step, and the last step answers.
    ///
    /// `None` until the last quantum. That one records any retries and
    /// faults the submission saw, projects the answer (step 8 of Figure
    /// 3) stamped with what a degraded chain dropped, and ends the
    /// submission. Advancing an ended submission is an error.
    pub fn advance(&self, sub: &mut Submission) -> Option<Result<(ResultSet, StatsChain)>> {
        let before = self.net.recovery_total();
        let executed = self.run_quantum(sub);
        let after = self.net.recovery_total();
        sub.recovery.0 += after.0 - before.0;
        sub.recovery.1 += after.1 - before.1;
        sub.recovery.2 += after.2 - before.2;
        let executed = executed?;
        let (retries, backoff, faults) = sub.recovery;
        if retries > 0 || faults > 0 {
            sub.trace.push(
                "Portal",
                "recovery",
                format!(
                    "{retries} retries ({backoff:.3}s backoff), {faults} fault events \
                     during submission"
                ),
            );
        }
        // The walk is gone already, so the submission holds only its trace.
        let plan = sub.plan.take();
        Some(executed.and_then(|(set, stats, degradation)| {
            let plan = plan.expect("an executed submission was planned");
            let mut result = Self::project_result(&plan, set)?;
            result.degraded = degradation.degraded;
            result.dropped_archives = degradation.dropped;
            Ok((result, stats))
        }))
    }

    /// The work of one quantum of [`Portal::advance`]: `None` while the
    /// submission runs on, its executed chain in the quantum that ends it.
    fn run_quantum(
        &self,
        sub: &mut Submission,
    ) -> Option<Result<(PartialSet, StatsChain, Degradation)>> {
        let config = self.config();
        if let Some(sql) = sub.sql.take() {
            let plan = match self.plan_query(&sql, &mut sub.trace) {
                Ok(plan) => sub.plan.insert(Box::new(plan)),
                Err(e) => return Some(Err(e)),
            };
            if config.result_cache_capacity == 0 {
                return None;
            }
            let walk = self.start_walk(plan, &mut sub.trace);
            if walk.is_done() {
                return Some(walk.finish(self));
            }
            sub.walk = Some(Box::new(walk));
            return None;
        }
        let Some(plan) = &sub.plan else {
            return Some(Err(FederationError::planning(
                "the submission has already answered",
            )));
        };
        let mut walk = match sub.walk.take() {
            Some(walk) => walk,
            // The paper's daisy chain is one synchronous recursion.
            None if config.chain_mode == ChainMode::Recursive => {
                return Some(self.execute_plan(plan, &mut sub.trace));
            }
            None => Box::new(self.start_walk(plan, &mut sub.trace)),
        };
        loop {
            if let Err(e) = walk.step(self, &mut sub.trace) {
                return Some(Err(e));
            }
            if walk.is_done() {
                return Some(walk.finish(self));
            }
            if config.chain_mode == ChainMode::Checkpointed {
                sub.walk = Some(walk);
                return None;
            }
        }
    }

    /// Attempts to serve `plan` from the result cache, returning a
    /// finished walk that answers it. A **hit** (the registry's table
    /// versions match the entry's version vector exactly) hands over the
    /// cached final set with zero chain steps executed. A **monotonically
    /// stale** unsharded entry (every table at or past its cached version)
    /// is repaired by walking it inline ([`CheckpointedWalk::repair`]),
    /// probing only the delta rows through the node `DeltaStep` service,
    /// and the repaired entry replaces the stale one in its slot. Anything
    /// else — a version regression, a vanished archive, a stale sharded
    /// entry, a failed repair — evicts the entry and returns `None` so the
    /// caller runs the chain cold. The one classification every
    /// submission gets ([`Portal::start_walk`]).
    fn cached_result(
        &self,
        plan: &ExecutionPlan,
        trace: &mut ExecutionTrace,
    ) -> Option<CheckpointedWalk> {
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
                let (set, stats) = answer_of(cache.get(id).expect("present"));
                drop(cache);
                trace.push(
                    "Portal",
                    "cache hit",
                    format!(
                        "served {} tuples from the result cache; no chain step executed",
                        set.len()
                    ),
                );
                return Some(CheckpointedWalk::answered(set, stats));
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
        match CheckpointedWalk::repair(self, plan, stale, current, trace) {
            Ok((walk, repaired)) => {
                // The delta probes observed authoritative versions:
                // publish them so the next lookup validates as a hit.
                self.publish_versions(&repaired.versions);
                let rows = repaired.steps[0].set.len();
                let mut cache = lock(&self.cache);
                cache.counters_mut().repairs += 1;
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
                drop(cache);
                trace.push(
                    "Portal",
                    "cache repair",
                    format!(
                        "stale entry repaired incrementally ({rows} tuples); only delta rows probed"
                    ),
                );
                Some(walk)
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
                let version = node.table_version(&step.table)?;
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

    /// Writes the current cache counters into the first entry of a
    /// stats chain so the per-step trace lines and the `StatsChain` wire
    /// format carry cache effectiveness alongside the kernel counters.
    pub(crate) fn stamp_cache_counters(&self, stats: &mut StatsChain) {
        let c = lock(&self.cache).counters();
        if let Some((_, s)) = stats.entries.first_mut() {
            s.cache_hits = c.hits as usize;
            s.cache_misses = c.misses as usize;
            s.cache_repairs = c.repairs as usize;
            s.cache_evictions = c.evictions as usize;
        }
    }

    /// Runs the count-star performance queries through the one fan-out
    /// (the paper passes them "as asynchronous SOAP messages"), in order
    /// on the calling thread. A count whose every host still shows the
    /// registry version it was asked at is answered from the Portal's
    /// count answers instead (DESIGN §12 "Count answers").
    fn run_performance_queries(
        &self,
        dq: &DecomposedQuery,
        trace: &mut ExecutionTrace,
    ) -> Result<HashMap<String, u64>> {
        let retry = self.config().retry;
        // One count per (alias, extent): each shard counts its own zone
        // range and the Portal sums the estimates per alias, so a
        // sharded archive orders the plan exactly as its single-node
        // equivalent would. Each extent is counted once — by one member
        // of its replica group — or the sum would scale with the
        // replication factor.
        let mut jobs = Vec::new();
        for pq in &dq.performance_queries {
            let groups = self.replica_groups(&pq.archive);
            if groups.is_empty() {
                return Err(FederationError::planning(format!(
                    "archive {} is not registered with the Portal",
                    pq.archive
                )));
            }
            let table = &dq
                .archive(&pq.alias)
                .expect("decomposition covers every XMATCH alias")
                .table
                .table;
            let sql = pq.to_sql();
            for g in groups {
                let versions: Option<Vec<u64>> = g.iter().map(|n| n.table_version(table)).collect();
                let key: CountKey = (sql.clone(), g.iter().map(|n| n.url.host.clone()).collect());
                let urls: Vec<Url> = g.into_iter().map(|n| n.url).collect();
                jobs.push((pq.alias.as_str(), key, versions, urls));
            }
        }
        let known: Vec<Option<u64>> = {
            let counts = lock(&self.counts);
            jobs.iter()
                .map(|(_, key, versions, _)| {
                    let (asked_at, count) = counts.get(key)?;
                    (Some(asked_at) == versions.as_ref()).then_some(*count)
                })
                .collect()
        };

        // Each extent goes through the scatter's replica selection
        // (§13), so a dead primary cannot fail the query at planning
        // time. Count-stars never hedge.
        let asked: Vec<_> = jobs
            .iter()
            .zip(&known)
            .filter(|(_, k)| k.is_none())
            .collect();
        let mut replies = fan_out(&asked, |((_, (sql, _), _, candidates), _)| {
            let call = RpcCall::new("Query").param("sql", SoapValue::Str(sql.clone()));
            self.serve_group(candidates, 0.0, |url| {
                send_rpc_with(&self.net, &self.host, url, &call, retry)
            })
            .result
        })
        .into_iter();
        let mut out = HashMap::new();
        for ((alias, key, versions, _), known) in jobs.iter().zip(known) {
            let count = match known {
                Some(count) => count,
                None => {
                    let reply = replies.next().expect("one reply per count asked");
                    // A negative count would wrap and reorder the plan.
                    let count = field(&reply?.results, "count")?;
                    if let Some(versions) = versions {
                        let mut counts = lock(&self.counts);
                        if counts.len() >= COUNT_ANSWERS && !counts.contains_key(key) {
                            counts.clear();
                        }
                        counts.insert(key.clone(), (versions.clone(), count));
                    }
                    count
                }
            };
            let sum = out.entry(alias.to_string()).or_insert(0u64);
            *sum = sum.saturating_add(count);
        }
        if !jobs.is_empty() {
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
            // failover); a single unreplicated node keeps the
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

        // Residual placement, by the re-plan's rule with no step executed
        // yet.
        for residual in &dq.residuals {
            let at = residual_step(&steps, &[], residual)?;
            steps[at].residual_sql.push(residual.to_string());
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

impl Endpoint for Portal {
    fn handle(&self, _net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        crate::service::serve(&req, |call| match call.method.as_str() {
            // Registration service (§5.1): "When a SkyNode wishes to join
            // the SkyQuery federation; it calls the Registration service
            // of the Portal."
            "Register" => field(&call.params, "url").and_then(|url| {
                let url = Url::parse(url).map_err(FederationError::Net)?;
                let reg = self.register_node(&url)?;
                Ok(RpcResponse::new("Register")
                    .result("archive", SoapValue::Str(reg.archive))
                    .result("shards", SoapValue::Int(reg.shard_count as i64))
                    .result("replicas", SoapValue::Int(reg.replica_count as i64)))
            }),
            // The SkyQuery service: accepts the user query from a Client.
            "SkyQuery" => field(&call.params, "sql").and_then(|sql| {
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
    use skyquery_storage::{DataType, Value};
    use skyquery_xml::VoCell;

    #[test]
    fn a_submission_answers_once() {
        let net = SimNetwork::new();
        let portal = Portal::start(&net, "portal.example.org", FederationConfig::default());
        let mut sub = Submission::new("not a query");
        let first = portal.advance(&mut sub);
        assert!(
            matches!(first, Some(Err(FederationError::Sql(_)))),
            "{first:?}"
        );
        let again = portal.advance(&mut sub);
        assert!(
            matches!(again, Some(Err(FederationError::Planning { .. }))),
            "{again:?}"
        );
    }

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
            vec![vec![VoCell::Int(9)], vec![VoCell::Float(9e18)]]
        );
        assert!(table
            .to_xml()
            .contains("<TR><TD>9</TD></TR><TR><TD>9e18</TD></TR>"));
    }
}
