//! Federation assembly: surveys → SkyNodes → registered Portal.

use std::sync::Arc;

use skyquery_core::{ArchiveInfo, Client, FederationConfig, Portal, SkyNode, SkyNodeBuilder};
use skyquery_net::{CostModel, FaultPlan, SimNetwork, Url};

use crate::bodies::{BodyCatalog, CatalogParams};
use crate::survey::{Survey, SurveyParams};

/// A running test federation: the network, the Portal, the SkyNodes, and
/// the ground-truth catalog behind them.
pub struct TestFederation {
    /// The simulated network everything is bound to.
    pub net: SimNetwork,
    /// The mediator.
    pub portal: Arc<Portal>,
    /// The SkyNodes, in survey declaration order.
    pub nodes: Vec<Arc<SkyNode>>,
    /// The survey parameters used to build the nodes.
    pub surveys: Vec<SurveyParams>,
    /// The ground-truth body catalog behind every survey.
    pub catalog: BodyCatalog,
}

impl TestFederation {
    /// A [`Client`] attached to this federation's Portal.
    pub fn client(&self, host: &str) -> Client {
        Client::new(&self.net, host, self.portal.url())
    }

    /// The SkyNode for an archive name (the first shard, when the
    /// archive is sharded).
    pub fn node(&self, archive: &str) -> Option<&Arc<SkyNode>> {
        self.nodes
            .iter()
            .find(|n| n.info().name.eq_ignore_ascii_case(archive))
    }

    /// Every SkyNode of an archive's shard group, in zone-range order.
    pub fn shard_nodes(&self, archive: &str) -> Vec<&Arc<SkyNode>> {
        self.nodes
            .iter()
            .filter(|n| n.info().name.eq_ignore_ascii_case(archive))
            .collect()
    }
}

/// Builder for test federations.
pub struct FederationBuilder {
    catalog_params: CatalogParams,
    surveys: Vec<SurveyParams>,
    config: FederationConfig,
    cost_model: CostModel,
    register_via_soap: bool,
    faults: FaultPlan,
    shards: usize,
    replicas: usize,
    /// Zone workers of every node's engine, and its database's zone height.
    zones: (usize, f64),
}

impl FederationBuilder {
    /// A builder with a default catalog and no surveys yet.
    pub fn new() -> FederationBuilder {
        FederationBuilder {
            catalog_params: CatalogParams::default(),
            surveys: Vec::new(),
            config: FederationConfig::default(),
            cost_model: CostModel::free(),
            register_via_soap: false,
            faults: FaultPlan::new(),
            shards: 1,
            replicas: 1,
            zones: (1, skyquery_storage::DEFAULT_ZONE_HEIGHT_DEG),
        }
    }

    /// The paper's three-archive setup (SDSS + 2MASS + FIRST analogues)
    /// over a shared catalog of `bodies` bodies.
    pub fn paper_triple(bodies: usize) -> FederationBuilder {
        FederationBuilder::new()
            .catalog(CatalogParams {
                count: bodies,
                ..CatalogParams::default()
            })
            .survey(SurveyParams::sdss_like())
            .survey(SurveyParams::twomass_like())
            .survey(SurveyParams::first_like())
    }

    /// Builder: sets the body-catalog parameters.
    pub fn catalog(mut self, params: CatalogParams) -> FederationBuilder {
        self.catalog_params = params;
        self
    }

    /// Builder: adds a survey (one archive / SkyNode).
    pub fn survey(mut self, params: SurveyParams) -> FederationBuilder {
        self.surveys.push(params);
        self
    }

    /// Builder: sets the Portal's execution configuration.
    pub fn config(mut self, config: FederationConfig) -> FederationBuilder {
        self.config = config;
        self
    }

    /// Builder: sets the network latency/bandwidth model.
    pub fn cost_model(mut self, model: CostModel) -> FederationBuilder {
        self.cost_model = model;
        self
    }

    /// Register nodes through the Portal's SOAP Registration service
    /// (exercising the §5.1 flow) instead of the local API.
    pub fn register_via_soap(mut self) -> FederationBuilder {
        self.register_via_soap = true;
        self
    }

    /// Builder: splits every archive into `n` declination-zone shards,
    /// each served by its own SkyNode (`{name}-s{i}.skyquery.net`)
    /// publishing the zone range it owns. `1` (the default) keeps the
    /// single-node path byte-for-byte.
    pub fn shards(mut self, n: usize) -> FederationBuilder {
        assert!(n >= 1, "a shard group needs at least one shard");
        self.shards = n;
        self
    }

    /// Builder: serves every zone extent from `n` identical replicas,
    /// each its own SkyNode. Replica `j >= 1` of an unsharded archive
    /// lives on `{name}r{j}.skyquery.net`; of shard `i` on
    /// `{name}-s{i}r{j}.skyquery.net`. Surveys are observed with a fixed
    /// seed, so every replica holds byte-identical data. `1` (the
    /// default) keeps the unreplicated path byte-for-byte.
    pub fn replicas(mut self, n: usize) -> FederationBuilder {
        assert!(n >= 1, "a replica group needs at least one replica");
        self.replicas = n;
        self
    }

    /// Builder: how every node probes — a zone engine of `workers` workers
    /// (1, the default, runs the sequential kernels) over zones
    /// `height_deg` high in its database's layout. Answers are identical.
    pub fn zone_engine(mut self, workers: usize, height_deg: f64) -> FederationBuilder {
        self.zones = (workers, height_deg);
        self
    }

    /// Builder: installs a fault-injection plan on the network. Faults
    /// are armed *after* registration, so the federation always builds
    /// cleanly; only query traffic sees them.
    pub fn faults(mut self, plan: FaultPlan) -> FederationBuilder {
        self.faults = plan;
        self
    }

    /// Generates surveys, starts SkyNodes and Portal, and registers every
    /// node.
    pub fn build(self) -> TestFederation {
        assert!(
            !self.surveys.is_empty(),
            "a federation needs at least one survey"
        );
        let net = SimNetwork::with_model(self.cost_model);
        let portal = Portal::start(&net, "portal.skyquery.net", self.config);
        let catalog = BodyCatalog::generate(self.catalog_params);
        let mut nodes = Vec::new();
        for params in &self.surveys {
            let survey = Survey::observe(&catalog, params.clone());
            // One (host, extent, database) per physical node: the whole
            // archive on `{name}.skyquery.net` when unsharded, or the
            // zone-range deal across `{name}-s{i}.skyquery.net` hosts.
            // Replica `j >= 1` repeats each piece under an `r{j}` host
            // suffix: the survey is observed with a fixed seed and the
            // shard deal is deterministic, so every replica of an
            // extent holds byte-identical data.
            let lower = params.name.to_ascii_lowercase();
            let suffix = |j: usize| {
                if j == 0 {
                    String::new()
                } else {
                    format!("r{j}")
                }
            };
            let mut pieces: Vec<(String, Option<skyquery_core::ZoneExtent>, _)> = Vec::new();
            if self.shards == 1 {
                let mut first_db = Some(survey.db);
                for j in 0..self.replicas {
                    let db = first_db
                        .take()
                        .unwrap_or_else(|| Survey::observe(&catalog, params.clone()).db);
                    pieces.push((format!("{lower}{}.skyquery.net", suffix(j)), None, db));
                }
            } else {
                for j in 0..self.replicas {
                    pieces.extend(survey.deal_shards(self.shards).into_iter().enumerate().map(
                        |(i, (extent, db))| {
                            (
                                format!("{lower}-s{i}{}.skyquery.net", suffix(j)),
                                Some(extent),
                                db,
                            )
                        },
                    ));
                }
            }
            for (host, extent, mut db) in pieces {
                let info = ArchiveInfo {
                    name: params.name.clone(),
                    sigma_arcsec: params.sigma_arcsec,
                    primary_table: params.table.clone(),
                    htm_depth: params.htm_depth,
                    extent,
                };
                db.set_zone_height(self.zones.1);
                let node = SkyNodeBuilder::new(info, db)
                    .engine(Arc::new(skyquery_zones::ZoneEngine::new(self.zones.0)))
                    .start(&net, host.clone());
                if self.register_via_soap {
                    // The node calls the Portal's Registration service,
                    // which calls back into the node's Meta-data and
                    // Information services.
                    use skyquery_soap::{RpcCall, SoapValue};
                    let resp = skyquery_core::skynode::send_rpc(
                        &net,
                        &host,
                        &portal.url(),
                        &RpcCall::new("Register")
                            .param("url", SoapValue::Str(node.url().to_string())),
                    )
                    .expect("registration succeeds");
                    assert_eq!(
                        resp.require("archive").unwrap().as_str(),
                        Some(params.name.as_str())
                    );
                } else {
                    portal
                        .register_node(&Url::new(host, "/soap"))
                        .expect("registration succeeds");
                }
                nodes.push(node);
            }
        }
        net.install_faults(self.faults);
        TestFederation {
            net,
            portal,
            nodes,
            surveys: self.surveys,
            catalog,
        }
    }
}

impl Default for FederationBuilder {
    fn default() -> Self {
        FederationBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_registers_three_archives() {
        let fed = FederationBuilder::paper_triple(300).build();
        assert_eq!(
            fed.portal.archives(),
            vec!["FIRST".to_string(), "SDSS".into(), "TWOMASS".into()]
        );
        assert_eq!(fed.nodes.len(), 3);
        let sdss = fed.portal.node("sdss").unwrap();
        assert_eq!(sdss.info.primary_table, "Photo_Object");
        assert!(sdss.catalog.primary_table().is_some());
    }

    #[test]
    fn soap_registration_flow() {
        let fed = FederationBuilder::paper_triple(100)
            .register_via_soap()
            .build();
        assert_eq!(fed.portal.archives().len(), 3);
        // Registration traffic happened: portal ↔ nodes links exist.
        let m = fed.net.metrics();
        assert!(m.link("sdss.skyquery.net", "portal.skyquery.net").messages > 0);
        assert!(m.link("portal.skyquery.net", "sdss.skyquery.net").messages > 0);
    }

    #[test]
    fn sharded_federation_registers_groups() {
        let fed = FederationBuilder::paper_triple(200).shards(4).build();
        // Three logical archives, twelve physical nodes.
        assert_eq!(fed.portal.archives().len(), 3);
        assert_eq!(fed.nodes.len(), 12);
        let shards = fed.portal.shards_of("sdss");
        assert_eq!(shards.len(), 4);
        // Sorted by zone range, tiling the sky.
        assert_eq!(shards[0].extent().dec_lo_deg, -90.0);
        assert_eq!(shards[3].extent().dec_hi_deg, 90.0);
        for w in shards.windows(2) {
            assert_eq!(w[0].extent().dec_hi_deg, w[1].extent().dec_lo_deg);
        }
        assert_eq!(fed.shard_nodes("sdss").len(), 4);
        // node() resolves to the primary (lowest-range) shard.
        assert_eq!(
            fed.portal.node("sdss").unwrap().url.host,
            "sdss-s0.skyquery.net"
        );
        // The registry lists every shard.
        assert_eq!(fed.portal.discover("SkyNode").len(), 12);
    }

    #[test]
    fn replicated_federation_registers_replica_groups() {
        let fed = FederationBuilder::paper_triple(200)
            .shards(2)
            .replicas(2)
            .build();
        // Three logical archives, 2 shards x 2 replicas each.
        assert_eq!(fed.portal.archives().len(), 3);
        assert_eq!(fed.nodes.len(), 12);
        let group = fed.portal.shards_of("sdss");
        assert_eq!(group.len(), 4);
        // Deterministic (extent, host) order: each extent's primary
        // immediately followed by its replica.
        let hosts: Vec<&str> = group.iter().map(|n| n.url.host.as_str()).collect();
        assert_eq!(
            hosts,
            vec![
                "sdss-s0.skyquery.net",
                "sdss-s0r1.skyquery.net",
                "sdss-s1.skyquery.net",
                "sdss-s1r1.skyquery.net",
            ]
        );
        assert_eq!(group[0].extent(), group[1].extent());
        assert_eq!(group[2].extent(), group[3].extent());
        // Replicas hold identical data behind distinct hosts.
        let sdss_nodes = fed.shard_nodes("sdss");
        assert_eq!(sdss_nodes.len(), 4);
    }

    #[test]
    fn replicated_unsharded_federation_uses_r_suffix_hosts() {
        let fed = FederationBuilder::paper_triple(120).replicas(2).build();
        assert_eq!(fed.nodes.len(), 6);
        let group = fed.portal.shards_of("sdss");
        let hosts: Vec<&str> = group.iter().map(|n| n.url.host.as_str()).collect();
        assert_eq!(hosts, vec!["sdss.skyquery.net", "sdssr1.skyquery.net"]);
    }

    #[test]
    fn node_lookup() {
        let fed = FederationBuilder::paper_triple(100).build();
        assert!(fed.node("SDSS").is_some());
        assert!(fed.node("sdss").is_some());
        assert!(fed.node("HUBBLE").is_none());
    }
}
