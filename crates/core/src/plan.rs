//! The federated query execution plan (paper §5.3).
//!
//! "The federated query execution plan consists of a list of ordered
//! pairs, each containing a query and the URL information of the SkyNode
//! where it would be executed. The list is in decreasing order of the
//! count star values returned by the performance queries, with the drop
//! out archives, if any, at the beginning of the list."
//!
//! The plan travels as a SOAP `xml` parameter down the daisy chain, so it
//! round-trips through [`ExecutionPlan::to_element`] /
//! [`ExecutionPlan::from_element`]. A Portal-driven step call has no one
//! to forward to, so it carries only its step, as the one-step plan
//! [`ExecutionPlan::for_step`] builds. Per-archive predicates and residual
//! clauses are carried as dialect SQL text — each autonomous SkyNode
//! parses them with its own copy of the dialect parser.

use skyquery_net::Url;
use skyquery_sql::{parse_expr, Expr};
use skyquery_xml::Element;

use crate::region::Region;

use crate::error::{attr, checked, expect_element, opt_attr, parsed, FederationError, Result};
use crate::meta::ZoneExtent;
use crate::retry::RetryPolicy;
use crate::xmatch::{MatchKernel, StepConfig};

/// One physical shard of a sharded archive addressed by a plan step: the
/// SkyNode that owns one declination-zone range of the archive, plus any
/// sibling replicas holding an identical copy of that range.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanShard {
    /// SOAP endpoint of the shard's primary SkyNode (the preferred
    /// scatter target).
    pub url: Url,
    /// The zone range this shard owns.
    pub extent: ZoneExtent,
    /// Sibling replicas serving an identical copy of this zone range, in
    /// deterministic (host) order. The scatter driver fails over — or
    /// hedges — to these when the primary proves unhealthy or slow.
    /// Empty, written as no `Replica` child, means the range is
    /// unreplicated.
    pub replicas: Vec<Url>,
}

/// One entry of the plan list.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Alias in the user query (`O`, `T`, `P`…).
    pub alias: String,
    /// Archive name (`SDSS`…).
    pub archive: String,
    /// The table queried at this archive.
    pub table: String,
    /// SOAP endpoint of the SkyNode (the primary shard when the archive
    /// is sharded).
    pub url: Url,
    /// Whether this archive is a drop-out (`!` in XMATCH).
    pub dropout: bool,
    /// Survey positional error, arcseconds.
    pub sigma_arcsec: f64,
    /// This archive's local predicate as dialect SQL (None = no filter).
    pub local_sql: Option<String>,
    /// Columns of this archive carried along the chain.
    pub carried: Vec<String>,
    /// Residual (cross-archive) conjuncts applied right after this step's
    /// processing, as dialect SQL.
    pub residual_sql: Vec<String>,
    /// The count-star estimate that ordered this step (None for
    /// drop-outs, which get no performance query). For a sharded archive
    /// this is the sum of the shards' estimates.
    pub count_estimate: Option<u64>,
    /// The physical shards of this archive, by zone range, when the
    /// archive is split across several SkyNodes. Empty, written as no
    /// `Shard` child, means the single node at `url` owns the whole
    /// archive and the step executes un-scattered.
    pub shards: Vec<PlanShard>,
}

/// The complete plan. The default plan has no steps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionPlan {
    /// XMATCH threshold in standard deviations.
    pub threshold: f64,
    /// The AREA/POLYGON clause, if present.
    pub region: Option<Region>,
    /// Steps in **list order**: drop-outs first, then mandatory archives
    /// in decreasing count order. Execution starts at the *last* step
    /// (the seed) and results flow back toward index 0.
    pub steps: Vec<PlanStep>,
    /// SELECT items as `(expression SQL, optional output alias)`.
    pub select: Vec<(String, Option<String>)>,
    /// ORDER BY keys applied by the Portal before relaying: `(expression
    /// SQL, descending)`.
    pub order_by: Vec<(String, bool)>,
    /// Row-count cap applied after ordering.
    pub limit: Option<usize>,
    /// Maximum SOAP message size every participant's parser accepts (the
    /// paper's ~10 MB limit).
    pub max_message_bytes: usize,
    /// Whether responders may split oversized partial results into chunks
    /// (§6 workaround). With chunking off, an oversized partial result
    /// faults — the pre-workaround behaviour.
    pub chunking: bool,
    /// Candidate-probe kernel each node uses for its match/drop-out step.
    /// An oracle/test override; production runs the default. Both kernels
    /// produce byte-identical results; an unknown name on the wire is
    /// refused.
    pub kernel: MatchKernel,
    /// Retry policy every participant applies to its onward calls
    /// (daisy-chain hops, `FetchChunk` continuations). Travels with the
    /// plan so one submission retries consistently along the chain.
    pub retry: RetryPolicy,
    /// TTL, in simulated seconds, of every lease this submission creates
    /// on a SkyNode — chunked-transfer sessions and staged exchange
    /// transactions. A node's janitor sweep
    /// reclaims anything whose lease expires unrenewed, so an abandoned
    /// query can never leak node-side state forever.
    pub lease_ttl_s: f64,
}

/// Default parser limit: the ~10 MB the paper reports.
pub const DEFAULT_MAX_MESSAGE_BYTES: usize = 10 * 1024 * 1024;

/// Default lease TTL in simulated seconds. Generous relative to any
/// single submission (whose waits are dominated by retry backoff, itself
/// bounded by the 30 s default deadline per call), so a live query never
/// loses a lease, while an abandoned one is reclaimed on the next sweep.
pub const DEFAULT_LEASE_TTL_S: f64 = 300.0;

/// Upper bound on plan length a node will accept. Each step is one
/// archive in the daisy chain, and every hop nests a synchronous call
/// frame, so an attacker-controlled step count is an attacker-controlled
/// recursion depth: decoding rejects absurd plans outright. Real
/// federations join a handful of archives; 64 is far beyond any query
/// the dialect can express while keeping the chain's stack depth sane.
pub const MAX_PLAN_STEPS: usize = 64;

impl ExecutionPlan {
    /// Index of the seed step (the first to execute).
    pub fn seed_index(&self) -> usize {
        self.steps.len() - 1
    }

    /// Whether any step addresses a sharded archive — such a plan is
    /// driven by the Portal's scatter-gather executor rather than the
    /// node-to-node daisy chain.
    pub fn has_shards(&self) -> bool {
        self.steps.iter().any(|s| !s.shards.is_empty())
    }

    /// Step `index` alone, as a one-step plan: what a Portal-driven step
    /// call carries. A node reads only its step, the step's residuals and
    /// the plan's knobs, so the other steps, the step's shards and count
    /// estimate, and the projection stay at the Portal. Panics if the
    /// plan has no step `index`.
    pub fn for_step(&self, index: usize) -> ExecutionPlan {
        let step = PlanStep {
            count_estimate: None,
            shards: Vec::new(),
            ..self.steps[index].clone()
        };
        ExecutionPlan {
            region: self.region.clone(),
            steps: vec![step],
            select: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            ..*self
        }
    }

    /// Builds the [`StepConfig`] the cross-match stored procedure needs at
    /// step `index`, parsing the carried SQL fragments.
    pub fn step_config(&self, index: usize) -> Result<StepConfig> {
        let step = self
            .steps
            .get(index)
            .ok_or_else(|| FederationError::protocol(format!("plan has no step {index}")))?;
        let local_predicate = match &step.local_sql {
            Some(sql) => Some(parse_expr(sql).map_err(FederationError::Sql)?),
            None => None,
        };
        Ok(StepConfig {
            alias: step.alias.clone(),
            table: step.table.clone(),
            sigma_rad: (step.sigma_arcsec / 3600.0).to_radians(),
            threshold: self.threshold,
            region: self.region.clone(),
            local_predicate,
            carried_columns: step.carried.clone(),
            kernel: self.kernel,
            from_row: 0,
        })
    }

    /// Canonical cache key over the fields that determine the *matched
    /// partial set*: χ² threshold, region, kernel, and each step's
    /// identity (alias, archive, table, shards), match parameters
    /// (σ, drop-out), and SQL fragments (local predicate, carried
    /// columns, residuals) in chain order. Execution knobs — message
    /// size, chunking, retry policy, lease TTL — and the projection
    /// (`SELECT` list, `ORDER BY`, `LIMIT`, applied after the partial
    /// set is final) are deliberately excluded: two plans that differ
    /// only in those produce byte-identical partial sets, so they share
    /// a cache entry.
    pub fn cache_signature(&self) -> String {
        use std::fmt::Write;
        let mut sig = String::new();
        let _ = write!(
            sig,
            "chi2={:?};region={:?};kernel={}",
            self.threshold,
            self.region,
            self.kernel.as_str()
        );
        for step in &self.steps {
            let _ = write!(
                sig,
                ";step[alias={},archive={},table={},url={},dropout={},sigma={:?},\
                 local={:?},carried={:?},residual={:?},shards=[",
                step.alias,
                step.archive,
                step.table,
                step.url.host,
                step.dropout,
                step.sigma_arcsec,
                step.local_sql,
                step.carried,
                step.residual_sql,
            );
            for shard in &step.shards {
                let _ = write!(
                    sig,
                    "({},{:?},{:?})",
                    shard.url.host, shard.extent.dec_lo_deg, shard.extent.dec_hi_deg
                );
            }
            sig.push_str("]]");
        }
        sig
    }

    /// The residual expressions attached to step `index`.
    pub fn residuals(&self, index: usize) -> Result<Vec<Expr>> {
        let step = self
            .steps
            .get(index)
            .ok_or_else(|| FederationError::protocol(format!("plan has no step {index}")))?;
        step.residual_sql
            .iter()
            .map(|s| parse_expr(s).map_err(FederationError::Sql))
            .collect()
    }

    /// Serializes to the wire element.
    pub fn to_element(&self) -> Element {
        let mut plan = Element::new("Plan")
            .with_attr("threshold", format!("{:?}", self.threshold))
            .with_attr("max_message_bytes", self.max_message_bytes.to_string())
            .with_attr("chunking", self.chunking.to_string())
            .with_attr("kernel", self.kernel.as_str())
            .with_attr("retry_attempts", self.retry.max_attempts.to_string())
            .with_attr(
                "retry_backoff_s",
                format!("{:?}", self.retry.backoff_base_s),
            )
            .with_attr("retry_factor", format!("{:?}", self.retry.backoff_factor))
            .with_attr("retry_deadline_s", format!("{:?}", self.retry.deadline_s))
            .with_attr("retry_jitter", format!("{:?}", self.retry.jitter))
            .with_attr("lease_ttl_s", format!("{:?}", self.lease_ttl_s));
        if let Some(r) = &self.region {
            plan = plan.with_child(r.to_element());
        }
        let mut select = Element::new("Select");
        for (expr, alias) in &self.select {
            let mut item = Element::new("Item").with_attr("expr", expr.clone());
            if let Some(a) = alias {
                item = item.with_attr("as", a.clone());
            }
            select = select.with_child(item);
        }
        plan = plan.with_child(select);
        if !self.order_by.is_empty() || self.limit.is_some() {
            let mut ob = Element::new("OrderLimit");
            if let Some(n) = self.limit {
                ob = ob.with_attr("limit", n.to_string());
            }
            for (expr, desc) in &self.order_by {
                ob = ob.with_child(
                    Element::new("Key")
                        .with_attr("expr", expr.clone())
                        .with_attr("desc", desc.to_string()),
                );
            }
            plan = plan.with_child(ob);
        }
        for step in &self.steps {
            let mut se = Element::new("Step")
                .with_attr("alias", step.alias.clone())
                .with_attr("archive", step.archive.clone())
                .with_attr("table", step.table.clone())
                .with_attr("url", step.url.to_string())
                .with_attr("dropout", step.dropout.to_string())
                .with_attr("sigma_arcsec", format!("{:?}", step.sigma_arcsec));
            if let Some(c) = step.count_estimate {
                se = se.with_attr("count", c.to_string());
            }
            if let Some(sql) = &step.local_sql {
                se = se.with_child(Element::new("Local").with_text(sql.clone()));
            }
            for col in &step.carried {
                se = se.with_child(Element::new("Carry").with_text(col.clone()));
            }
            for r in &step.residual_sql {
                se = se.with_child(Element::new("Residual").with_text(r.clone()));
            }
            for shard in &step.shards {
                let mut sh = Element::new("Shard")
                    .with_attr("url", shard.url.to_string())
                    .with_attr("dec_lo", format!("{:?}", shard.extent.dec_lo_deg))
                    .with_attr("dec_hi", format!("{:?}", shard.extent.dec_hi_deg));
                for r in &shard.replicas {
                    sh = sh.with_child(Element::new("Replica").with_attr("url", r.to_string()));
                }
                se = se.with_child(sh);
            }
            plan = plan.with_child(se);
        }
        plan
    }

    /// Parses the wire element. Every attribute its writer always writes
    /// is required; an order limit, a step's count estimate, local
    /// predicate and shards, and a select item's alias are optional,
    /// because the writer omits them when they do not apply. Unknown
    /// attributes are ignored.
    pub fn from_element(e: &Element) -> Result<ExecutionPlan> {
        expect_element(e, "Plan")?;
        // The SQL parser's rule for an XMATCH threshold, and for σ too: a
        // positive, finite number.
        let positive = || checked(|v: &f64| v.is_finite() && *v > 0.0);
        let threshold = attr(e, "threshold", positive())?;
        let url = |e: &Element| Url::parse(attr(e, "url", Some)?).map_err(FederationError::Net);
        let region = match e.children_named("Region").next() {
            Some(re) => Some(Region::from_element(re)?),
            None => None,
        };
        let select = match e.children_named("Select").next() {
            Some(se) => se
                .children_named("Item")
                .map(|item| {
                    Ok((
                        attr(item, "expr", Some)?.into(),
                        opt_attr(item, "as", Some)?.map(String::from),
                    ))
                })
                .collect::<Result<Vec<_>>>()?,
            None => Vec::new(),
        };
        let mut steps = Vec::new();
        for se in e.children_named("Step") {
            steps.push(PlanStep {
                alias: attr(se, "alias", Some)?.into(),
                archive: attr(se, "archive", Some)?.into(),
                table: attr(se, "table", Some)?.into(),
                url: url(se)?,
                dropout: attr(se, "dropout", parsed)?,
                sigma_arcsec: attr(se, "sigma_arcsec", positive())?,
                local_sql: se.children_named("Local").next().map(|l| l.text.clone()),
                carried: se.children_named("Carry").map(|c| c.text.clone()).collect(),
                residual_sql: se
                    .children_named("Residual")
                    .map(|r| r.text.clone())
                    .collect(),
                count_estimate: opt_attr(se, "count", parsed)?,
                shards: se
                    .children_named("Shard")
                    .map(|sh| {
                        let dec = |name| attr(sh, name, checked(|v: &f64| v.is_finite()));
                        Ok(PlanShard {
                            url: url(sh)?,
                            extent: ZoneExtent {
                                dec_lo_deg: dec("dec_lo")?,
                                dec_hi_deg: dec("dec_hi")?,
                            },
                            replicas: sh
                                .children_named("Replica")
                                .map(url)
                                .collect::<Result<_>>()?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?,
            });
        }
        if steps.is_empty() {
            return Err(FederationError::protocol("Plan has no steps"));
        }
        if steps.len() > MAX_PLAN_STEPS {
            return Err(FederationError::protocol(format!(
                "plan has {} steps, more than the {MAX_PLAN_STEPS} this node accepts",
                steps.len()
            )));
        }
        let (order_by, limit) = match e.children_named("OrderLimit").next() {
            Some(ol) => (
                ol.children_named("Key")
                    .map(|k| Ok((attr(k, "expr", Some)?.into(), attr(k, "desc", parsed)?)))
                    .collect::<Result<Vec<_>>>()?,
                opt_attr(ol, "limit", parsed)?,
            ),
            None => (Vec::new(), None),
        };
        let at_least = |min: f64| checked(move |v: &f64| v.is_finite() && *v >= min);
        Ok(ExecutionPlan {
            threshold,
            region,
            steps,
            select,
            order_by,
            limit,
            max_message_bytes: attr(e, "max_message_bytes", parsed)?,
            chunking: attr(e, "chunking", parsed)?,
            kernel: attr(e, "kernel", MatchKernel::parse)?,
            retry: RetryPolicy {
                max_attempts: attr(e, "retry_attempts", checked(|n: &u32| *n >= 1))?,
                backoff_base_s: attr(e, "retry_backoff_s", at_least(0.0))?,
                backoff_factor: attr(e, "retry_factor", at_least(1.0))?,
                deadline_s: attr(e, "retry_deadline_s", positive())?,
                jitter: attr(e, "retry_jitter", checked(|v: &f64| (0.0..1.0).contains(v)))?,
            },
            lease_ttl_s: attr(e, "lease_ttl_s", positive())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> ExecutionPlan {
        ExecutionPlan {
            threshold: 3.5,
            region: Some(Region::circle(185.0, -0.5, (4.5 / 60.0_f64).to_radians()).unwrap()),
            steps: vec![
                PlanStep {
                    alias: "P".into(),
                    archive: "FIRST".into(),
                    table: "Primary_Object".into(),
                    url: Url::new("first.skyquery.net", "/soap"),
                    dropout: true,
                    sigma_arcsec: 1.0,
                    local_sql: None,
                    carried: vec![],
                    residual_sql: vec![],
                    count_estimate: None,
                    shards: vec![],
                },
                PlanStep {
                    alias: "O".into(),
                    archive: "SDSS".into(),
                    table: "Photo_Object".into(),
                    url: Url::new("sdss.skyquery.net", "/soap"),
                    dropout: false,
                    sigma_arcsec: 0.1,
                    local_sql: Some("O.type = 'GALAXY'".into()),
                    carried: vec!["object_id".into(), "i_flux".into()],
                    residual_sql: vec!["O.i_flux - T.i_flux > 2".into()],
                    count_estimate: Some(1200),
                    shards: vec![],
                },
                PlanStep {
                    alias: "T".into(),
                    archive: "TWOMASS".into(),
                    table: "Photo_Primary".into(),
                    url: Url::new("twomass.skyquery.net", "/soap"),
                    dropout: false,
                    sigma_arcsec: 0.3,
                    local_sql: None,
                    carried: vec!["object_id".into(), "i_flux".into()],
                    residual_sql: vec![],
                    count_estimate: Some(800),
                    shards: vec![],
                },
            ],
            select: vec![
                ("O.object_id".into(), None),
                ("T.object_id".into(), Some("t_id".into())),
            ],
            order_by: vec![("O.object_id".into(), true)],
            limit: Some(100),
            max_message_bytes: DEFAULT_MAX_MESSAGE_BYTES,
            chunking: true,
            kernel: MatchKernel::Htm,
            retry: RetryPolicy {
                max_attempts: 4,
                backoff_base_s: 0.02,
                backoff_factor: 3.0,
                deadline_s: 12.0,
                jitter: 0.25,
            },
            lease_ttl_s: 120.0,
        }
    }

    #[test]
    fn element_roundtrip() {
        let p = demo_plan();
        let back = ExecutionPlan::from_element(&p.to_element()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn cache_signature_tracks_semantics_not_execution_knobs() {
        let base = demo_plan();
        // Execution knobs and the projection don't change the matched
        // partial set, so they must not change the signature.
        let mut tuned = demo_plan();
        tuned.max_message_bytes = 1;
        tuned.chunking = !tuned.chunking;
        tuned.retry = RetryPolicy::none();
        tuned.lease_ttl_s = 1.0;
        tuned.limit = Some(3);
        tuned.order_by = vec![("O.ra".into(), false)];
        assert_eq!(base.cache_signature(), tuned.cache_signature());
        // Semantic fields do.
        let mut threshold = demo_plan();
        threshold.threshold += 0.5;
        assert_ne!(base.cache_signature(), threshold.cache_signature());
        let mut kernel = demo_plan();
        kernel.kernel = MatchKernel::Columnar;
        assert_ne!(base.cache_signature(), kernel.cache_signature());
        let mut sigma = demo_plan();
        sigma.steps[0].sigma_arcsec += 0.1;
        assert_ne!(base.cache_signature(), sigma.cache_signature());
        let mut fewer = demo_plan();
        fewer.steps.pop();
        assert_ne!(base.cache_signature(), fewer.cache_signature());
    }

    #[test]
    fn kernel_name_roundtrips_for_every_variant() {
        for kernel in [MatchKernel::Columnar, MatchKernel::Htm] {
            let mut p = demo_plan();
            p.kernel = kernel;
            let back = ExecutionPlan::from_element(&p.to_element()).unwrap();
            assert_eq!(back.kernel, kernel);
        }
    }

    #[test]
    fn roundtrip_through_xml_text() {
        let p = demo_plan();
        let xml = p.to_element().to_xml();
        let back = ExecutionPlan::from_element(&Element::parse(&xml).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn step_config_extraction() {
        let p = demo_plan();
        assert_eq!(p.seed_index(), 2);
        let cfg = p.step_config(1).unwrap();
        assert_eq!(cfg.alias, "O");
        assert_eq!(cfg.table, "Photo_Object");
        assert!((cfg.threshold - 3.5).abs() < 1e-12);
        assert!(cfg.local_predicate.is_some());
        let (center, radius) = match cfg.region.clone().unwrap() {
            Region::Circle {
                center, radius_rad, ..
            } => (center, radius_rad),
            other => panic!("{other:?}"),
        };
        assert!((center.ra_deg - 185.0).abs() < 1e-12);
        assert!((radius.to_degrees() - 0.075).abs() < 1e-12);
        assert_eq!(cfg.carried_columns, vec!["object_id", "i_flux"]);
        // σ converted to radians.
        assert!((cfg.sigma_rad - (0.1 / 3600.0_f64).to_radians()).abs() < 1e-18);
        assert!(p.step_config(9).is_err());
    }

    #[test]
    fn residual_parsing() {
        let p = demo_plan();
        let r = p.residuals(1).unwrap();
        assert_eq!(r.len(), 1);
        assert!(p.residuals(2).unwrap().is_empty());
        assert!(p.residuals(7).is_err());
    }

    #[test]
    fn zone_knobs_roundtrip_and_reach_step_config() {
        // Worker count and zone height are the node's business: the plan
        // carries what to compute and how the chain retries and leases,
        // nothing about how a node probes.
        let el = demo_plan().to_element();
        let names: Vec<&str> = el.attributes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "threshold",
                "max_message_bytes",
                "chunking",
                "kernel",
                "retry_attempts",
                "retry_backoff_s",
                "retry_factor",
                "retry_deadline_s",
                "retry_jitter",
                "lease_ttl_s",
            ]
        );
        let back = ExecutionPlan::from_element(&el).unwrap();
        assert_eq!(
            format!("{:?}", back.step_config(1).unwrap()),
            format!("{:?}", demo_plan().step_config(1).unwrap())
        );
    }

    #[test]
    fn legacy_plans_default_to_sequential() {
        // Peers predating node-side engines still send the worker count
        // and zone height, well-formed or not: the plan decodes, ignores
        // both, and re-encodes without them.
        for (workers, height) in [("4", "0.25"), ("0", "-3.0"), ("zz", "NaN")] {
            let el = demo_plan()
                .to_element()
                .with_attr("xmatch_workers", workers)
                .with_attr("zone_height_deg", height);
            let p = ExecutionPlan::from_element(&el).unwrap();
            assert_eq!(p, demo_plan());
            assert_eq!(p.to_element(), demo_plan().to_element());
        }
    }

    #[test]
    fn legacy_plans_default_to_byte_budget_chunking() {
        // Peers predating the one chunked transfer still send the switch
        // of the withdrawn zone-aware transfer: the plan decodes, chunks on
        // the byte budget like every plan, and re-encodes without it.
        let el = demo_plan().to_element().with_attr("zone_chunking", "true");
        let p = ExecutionPlan::from_element(&el).unwrap();
        assert_eq!(p, demo_plan());
        assert_eq!(p.to_element(), demo_plan().to_element());
    }

    /// The demo plan with its middle step split over two shards, the
    /// first of them replicated.
    fn sharded_plan() -> ExecutionPlan {
        let mut p = demo_plan();
        p.steps[1].shards = vec![
            PlanShard {
                url: Url::new("sdss-s0.skyquery.net", "/soap"),
                extent: ZoneExtent::new(-90.0, 0.0).unwrap(),
                replicas: vec![
                    Url::new("sdss-s0r1.skyquery.net", "/soap"),
                    Url::new("sdss-s0r2.skyquery.net", "/soap"),
                ],
            },
            PlanShard {
                url: Url::new("sdss-s1.skyquery.net", "/soap"),
                extent: ZoneExtent::new(0.0, 90.0).unwrap(),
                replicas: vec![],
            },
        ];
        p
    }

    #[test]
    fn shard_lists_roundtrip() {
        let p = sharded_plan();
        let back = ExecutionPlan::from_element(&p.to_element()).unwrap();
        assert_eq!(back, p);
        assert!(back.has_shards());
        assert!(!demo_plan().has_shards());
        // Replica lists survive the wire exactly, per shard.
        assert_eq!(back.steps[1].shards[0].replicas.len(), 2);
        assert!(back.steps[1].shards[1].replicas.is_empty());
        // A Replica child missing its url is a protocol error rather
        // than a silently shrunken replica set.
        let mut el = p.to_element();
        for step in &mut el.children {
            if step.name == "Step" {
                for sh in &mut step.children {
                    if sh.name == "Shard" {
                        sh.children.push(Element::new("Replica"));
                    }
                }
            }
        }
        assert!(ExecutionPlan::from_element(&el).is_err());
    }

    #[test]
    fn for_step_carries_the_step_alone() {
        for p in [demo_plan(), sharded_plan()] {
            for i in 0..p.steps.len() {
                let one = p.for_step(i);
                assert_eq!(one.steps.len(), 1);
                assert_eq!(
                    format!("{:?}", one.step_config(0).unwrap()),
                    format!("{:?}", p.step_config(i).unwrap())
                );
                assert_eq!(one.residuals(0).unwrap(), p.residuals(i).unwrap());
                // The knobs travel unchanged.
                assert_eq!(
                    (one.threshold, &one.region, one.kernel, one.retry),
                    (p.threshold, &p.region, p.kernel, p.retry)
                );
                assert_eq!(
                    (one.max_message_bytes, one.chunking, one.lease_ttl_s),
                    (p.max_message_bytes, p.chunking, p.lease_ttl_s)
                );
                // Nothing only the Portal reads.
                assert!(!one.has_shards() && one.steps[0].count_estimate.is_none());
                assert!(one.select.is_empty() && one.order_by.is_empty());
                assert_eq!(one.limit, None);
                let back = ExecutionPlan::from_element(&one.to_element()).unwrap();
                assert_eq!(back, one);
            }
        }
    }

    #[test]
    fn legacy_plans_default_to_no_shards() {
        // A plan element written before shard addressing existed carries
        // no Shard children; decoding leaves every step un-scattered.
        let p = ExecutionPlan::from_element(&demo_plan().to_element()).unwrap();
        assert!(p.steps.iter().all(|s| s.shards.is_empty()));
        // A Shard child missing its url, or with a garbled extent, is a
        // protocol error rather than a silently dropped shard.
        let mut el = demo_plan().to_element();
        for child in &mut el.children {
            if child.name == "Step" {
                child.children.push(
                    Element::new("Shard")
                        .with_attr("dec_lo", "-90")
                        .with_attr("dec_hi", "90"),
                );
                break;
            }
        }
        assert!(ExecutionPlan::from_element(&el).is_err());
        let mut el = demo_plan().to_element();
        for child in &mut el.children {
            if child.name == "Step" {
                child.children.push(
                    Element::new("Shard")
                        .with_attr("url", "http://h/soap")
                        .with_attr("dec_lo", "NaN")
                        .with_attr("dec_hi", "90"),
                );
                break;
            }
        }
        assert!(ExecutionPlan::from_element(&el).is_err());
    }

    /// The demo plan's element with attribute `name` set to `value` (or
    /// removed, for `None`) on the plan and on every descendant named `on`.
    fn with_attr_on(on: &str, name: &str, value: Option<&str>) -> Element {
        fn visit(el: &mut Element, on: &str, name: &str, value: Option<&str>) {
            if el.name == on {
                el.attributes.retain(|(k, _)| k != name);
                if let Some(v) = value {
                    el.attributes.push((name.into(), v.into()));
                }
            }
            for child in &mut el.children {
                visit(child, on, name, value);
            }
        }
        let mut el = demo_plan().to_element();
        visit(&mut el, on, name, value);
        el
    }

    #[test]
    fn malformed_wire_plan_attributes_are_refused() {
        // (element, attribute, garbled or out-of-range values).
        let rows: [(&str, &str, &[&str]); 12] = [
            ("Plan", "max_message_bytes", &["zz", "-1", "1.5"]),
            ("Plan", "chunking", &["yes", "TRUE", ""]),
            ("Plan", "kernel", &["quadtree", "batch", ""]),
            ("Plan", "retry_attempts", &["zz", "0", "-2"]),
            ("Plan", "retry_backoff_s", &["zz", "-1.0", "NaN"]),
            ("Plan", "retry_factor", &["zz", "0.5", "0.1", "inf"]),
            ("Plan", "retry_deadline_s", &["zz", "0", "NaN"]),
            ("Plan", "retry_jitter", &["zz", "1.0", "-0.1"]),
            ("Plan", "lease_ttl_s", &["zz", "-5.0", "0", "inf"]),
            ("Step", "count", &["zz", "-1", "1e3"]),
            ("OrderLimit", "limit", &["abc", "-1"]),
            ("Key", "desc", &["yes", "1"]),
        ];
        for (on, name, garbled) in rows {
            for value in garbled {
                match ExecutionPlan::from_element(&with_attr_on(on, name, Some(value))) {
                    Err(FederationError::Protocol { detail }) => {
                        assert!(detail.contains(name), "{detail}")
                    }
                    other => panic!("{on} {name}={value:?} decoded to {other:?}"),
                }
            }
        }
        // A step's count estimate and the order limit's row cap are
        // omitted by design: absent, they decode to none.
        let p = ExecutionPlan::from_element(&with_attr_on("Step", "count", None)).unwrap();
        assert!(p.steps.iter().all(|s| s.count_estimate.is_none()));
        let p = ExecutionPlan::from_element(&with_attr_on("OrderLimit", "limit", None)).unwrap();
        assert_eq!(p.limit, None);
        // The threshold and each step's σ are required and, by the SQL
        // parser's rule, positive and finite: an infinite threshold would
        // buy an every-pair cross-match, a NaN one an empty answer.
        for (on, name) in [("Plan", "threshold"), ("Step", "sigma_arcsec")] {
            for value in [
                None,
                Some("zz"),
                Some("NaN"),
                Some("inf"),
                Some("0"),
                Some("-3.5"),
            ] {
                match ExecutionPlan::from_element(&with_attr_on(on, name, value)) {
                    Err(FederationError::Protocol { detail }) => {
                        assert!(detail.contains(name), "{detail}")
                    }
                    other => panic!("{on} {name}={value:?} decoded to {other:?}"),
                }
            }
        }
        // A step's drop-out flag is required: missing or garbled, refused
        // (anything but "true" used to read as a mandatory archive).
        for value in [None, Some("yes"), Some("")] {
            assert!(matches!(
                ExecutionPlan::from_element(&with_attr_on("Step", "dropout", value)),
                Err(FederationError::Protocol { .. })
            ));
        }
    }

    /// Refuses the demo plan without attribute `name` on every element
    /// named `on`, naming both.
    fn assert_refused_without(on: &str, name: &str) {
        match ExecutionPlan::from_element(&with_attr_on(on, name, None)) {
            Err(FederationError::Protocol { detail }) => {
                assert!(detail.contains(on) && detail.contains(name), "{detail}")
            }
            other => panic!("{on} without {name} decoded to {other:?}"),
        }
    }

    /// One test per attribute the plan's writer always writes.
    macro_rules! refused_without {
        ($($test:ident: $on:literal $name:literal,)*) => {
            $(#[test]
            fn $test() {
                assert_refused_without($on, $name);
            })*
        };
    }

    refused_without! {
        malformed_wire_plan_without_max_message_bytes_is_refused: "Plan" "max_message_bytes",
        malformed_wire_plan_without_chunking_is_refused: "Plan" "chunking",
        malformed_wire_plan_without_kernel_is_refused: "Plan" "kernel",
        malformed_wire_plan_without_retry_attempts_is_refused: "Plan" "retry_attempts",
        malformed_wire_plan_without_retry_backoff_s_is_refused: "Plan" "retry_backoff_s",
        malformed_wire_plan_without_retry_factor_is_refused: "Plan" "retry_factor",
        malformed_wire_plan_without_retry_deadline_s_is_refused: "Plan" "retry_deadline_s",
        malformed_wire_plan_without_retry_jitter_is_refused: "Plan" "retry_jitter",
        malformed_wire_plan_without_lease_ttl_s_is_refused: "Plan" "lease_ttl_s",
        malformed_wire_order_key_without_desc_is_refused: "Key" "desc",
    }

    #[test]
    fn malformed_plans_rejected() {
        assert!(ExecutionPlan::from_element(&Element::new("NotPlan")).is_err());
        let no_threshold = Element::new("Plan");
        assert!(ExecutionPlan::from_element(&no_threshold).is_err());
        let no_steps = Element::new("Plan").with_attr("threshold", "3.5");
        assert!(ExecutionPlan::from_element(&no_steps).is_err());
    }

    #[test]
    fn bad_local_sql_surfaces_on_step_config() {
        let mut p = demo_plan();
        p.steps[1].local_sql = Some("SELECT garbage".into());
        assert!(p.step_config(1).is_err());
    }
}
