//! The four workloads: their seeded op lists, the federations they run
//! against, and the oracle twins their answers are checked against.
//!
//! The sky is the simulator's standard one (fixed catalogue and survey
//! seeds), as a database benchmark fixes its data set; `--seed` draws the
//! query stream: cone centres, the order of the list, the fault blocks,
//! the Zipf draws, the tenants and the written rows. A change is therefore
//! measured on the same archives under a different stream per seed.

use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;

use skyquery_core::{Client, FederationConfig, MatchKernel, ResultSet};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig, JobState, QuotaClass};
use skyquery_net::{CostModel, FaultKind, FaultPlan, FaultRule};
use skyquery_sim::{
    paper_query, CatalogParams, FederationBuilder, QuerySpec, SurveyParams, TestFederation,
};
use skyquery_storage::Value;

use crate::rng::{zipf_counts, Rng};
use crate::stats::Class;
use crate::trace::{Recorder, Recording, StagedPortal};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TripleSmall,
    DensePair,
    ScatterFlap,
    JobsZipfWrites,
}

pub const ALL: [Kind; 4] = [
    Kind::TripleSmall,
    Kind::DensePair,
    Kind::ScatterFlap,
    Kind::JobsZipfWrites,
];

/// The fixed shape of a workload.
pub struct Spec {
    pub name: &'static str,
    /// Ops in one round of the list (writes not counted).
    pub round_ops: usize,
    /// Wall seconds one round takes on the reference machine; turns
    /// `--seconds` into a whole number of rounds (R1: the work is a
    /// function of the arguments, never of the clock).
    pub round_s: f64,
    /// Cold starts timed for `setup_s` (R4).
    pub setup_reps: usize,
}

impl Kind {
    pub fn spec(self) -> Spec {
        match self {
            Kind::TripleSmall => Spec {
                name: "triple-small",
                round_ops: 200,
                round_s: 1.7,
                setup_reps: 15,
            },
            Kind::DensePair => Spec {
                name: "dense-pair",
                round_ops: 100,
                round_s: 3.0,
                setup_reps: 5,
            },
            Kind::ScatterFlap => Spec {
                name: "scatter-flap",
                round_ops: 120,
                round_s: 1.7,
                setup_reps: 15,
            },
            Kind::JobsZipfWrites => Spec {
                name: "jobs-zipf-writes",
                round_ops: 395,
                round_s: 0.5,
                setup_reps: 15,
            },
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.spec().name == name)
    }
}

const BODY_SHARE: f64 = 0.78;

/// One entry of a round's list.
#[derive(Debug, Clone)]
pub enum Step {
    Query {
        /// Index into [`Plan::queries`].
        query: usize,
        /// The class the list was built with. `None` where only the
        /// system knows (a cache hit or miss); the harness then reads the
        /// class off the cache counters after the op.
        class: Option<Class>,
        /// Issued while the flapped extent's primaries corrupt their
        /// replies (`scatter-flap` only).
        flap: bool,
        /// Tenant the job is submitted under (`jobs-zipf-writes` only).
        tenant: usize,
    },
    /// One row inserted into an archive (see [`System::write`]).
    Write,
}

/// The seeded inputs of one run: the distinct queries and one round's list.
pub struct Plan {
    pub queries: Vec<String>,
    pub steps: Vec<Step>,
}

const TRIPLE: [(&str, &str, &str); 3] = [
    ("SDSS", "Photo_Object", "O"),
    ("TWOMASS", "Photo_Primary", "T"),
    ("FIRST", "Primary_Object", "P"),
];

fn triple_sql(threshold: f64, area: Option<(f64, f64, f64)>, dropout_last: bool) -> String {
    QuerySpec {
        archives: TRIPLE
            .iter()
            .enumerate()
            .map(|(i, (ar, t, al))| {
                (
                    ar.to_string(),
                    t.to_string(),
                    al.to_string(),
                    dropout_last && i == 2,
                )
            })
            .collect(),
        threshold,
        area,
        polygon: None,
        predicates: vec![],
        select: vec![],
    }
    .to_sql()
}

fn pair_sql(center: (f64, f64), radius_arcmin: f64) -> String {
    QuerySpec {
        archives: vec![
            ("RADIO".into(), "Sources".into(), "R".into(), false),
            ("OPTICAL".into(), "Objects".into(), "O".into(), false),
        ],
        threshold: 3.5,
        area: Some((center.0, center.1, radius_arcmin)),
        polygon: None,
        predicates: vec![],
        select: vec![],
    }
    .to_sql()
}

/// A cone centre whose cone lies wholly inside the populated cap (centre
/// 185.0, −0.5, radius 1°), so every cone of one radius sees the same sky
/// density and the class's cost is one value, not a spread.
fn centre(rng: &mut Rng, radius_arcmin: f64) -> (f64, f64) {
    let reach = 1.0 - radius_arcmin / 60.0 - 0.02;
    loop {
        let (dx, dy) = (rng.range_f64(-reach, reach), rng.range_f64(-reach, reach));
        if dx * dx + dy * dy <= reach * reach {
            // Rounded so the SQL text carries few digits.
            let r = |x: f64| (x * 1e4).round() / 1e4;
            return (r(185.0 + dx), r(-0.5 + dy));
        }
    }
}

fn tail_count(round_ops: usize) -> usize {
    round_ops - (round_ops as f64 * BODY_SHARE).round() as usize
}

/// Body and tail ops shuffled by the seed.
fn shuffled(rng: &mut Rng, body: Vec<usize>, tail: Vec<usize>) -> Vec<Step> {
    let mut steps: Vec<Step> = body
        .into_iter()
        .map(|q| (q, Class::Body))
        .chain(tail.into_iter().map(|q| (q, Class::Tail)))
        .map(|(query, class)| Step::Query {
            query,
            class: Some(class),
            flap: false,
            tenant: 0,
        })
        .collect();
    rng.shuffle(&mut steps);
    steps
}

const TENANTS: usize = 6;
const POOL: usize = 12;
const WRITE_EVERY: usize = 80;

impl Plan {
    /// The op list of `kind` for `seed`. `smoke` cuts the list to a tenth.
    pub fn generate(kind: Kind, seed: u64, smoke: bool) -> Plan {
        let spec = kind.spec();
        let n = if smoke {
            spec.round_ops / 10
        } else {
            spec.round_ops
        };
        let tail = tail_count(n);
        let body = n - tail;
        let mut rng = Rng::stream(seed, kind as u64 + 1);
        match kind {
            Kind::TripleSmall => {
                // Body: 15′ cones, and the §5.2 paper query as one body op
                // in 16. Tail: the full cap with FIRST as a drop-out, at one
                // of five thresholds.
                let mut queries = vec![paper_query()];
                let paper = body / 16;
                let mut body_ops = vec![0; paper];
                for _ in paper..body {
                    let (ra, dec) = centre(&mut rng, 15.0);
                    queries.push(triple_sql(3.5, Some((ra, dec, 15.0)), false));
                    body_ops.push(queries.len() - 1);
                }
                let first_tail = queries.len();
                for i in 0..5 {
                    queries.push(triple_sql(3.0 + 0.25 * i as f64, None, true));
                }
                let tail_ops = (0..tail).map(|_| first_tail + rng.below(5)).collect();
                Plan {
                    steps: shuffled(&mut rng, body_ops, tail_ops),
                    queries,
                }
            }
            Kind::DensePair => {
                let mut queries = Vec::new();
                for _ in 0..body {
                    queries.push(pair_sql(
                        centre(&mut rng, DENSE_BODY_ARCMIN),
                        DENSE_BODY_ARCMIN,
                    ));
                }
                for _ in 0..tail {
                    queries.push(pair_sql(
                        centre(&mut rng, DENSE_TAIL_ARCMIN),
                        DENSE_TAIL_ARCMIN,
                    ));
                }
                Plan {
                    steps: shuffled(&mut rng, (0..body).collect(), (body..n).collect()),
                    queries,
                }
            }
            Kind::ScatterFlap => {
                // One query throughout, so that the difference between an
                // op inside a flap block and one outside is the failover.
                // The tail ops come in three blocks at seeded offsets.
                let blocks = 3.min(tail);
                let mut flap = vec![false; n];
                let slot = n / blocks;
                for b in 0..blocks {
                    let len = tail / blocks + usize::from(b < tail % blocks);
                    let start = b * slot + rng.below(slot - len + 1);
                    flap[start..start + len].fill(true);
                }
                Plan {
                    queries: vec![triple_sql(4.0, None, false)],
                    steps: flap
                        .into_iter()
                        .map(|flap| Step::Query {
                            query: 0,
                            class: Some(if flap { Class::Tail } else { Class::Body }),
                            flap,
                            tenant: 0,
                        })
                        .collect(),
                }
            }
            Kind::JobsZipfWrites => {
                // Between two writes the list holds the Zipf law's counts
                // exactly, in an order that does not depend on the seed:
                // which entry the LRU evicts, and so the share of hits, is a
                // property of the order (sampled or reshuffled lists moved
                // it by ± 3 points and the bytes per op by ± 5 %). The seed
                // draws where in the cycle a run starts, the tenants and
                // the written positions.
                let mut order = Rng::stream(0x05EE_D0FF, kind as u64 + 1);
                let queries = (0..POOL)
                    .map(|r| triple_sql(2.0 + 0.25 * r as f64, None, false))
                    .collect();
                let between = if smoke { 12 } else { WRITE_EVERY - 1 };
                let mut steps = Vec::new();
                for _ in 0..n / between {
                    let mut ranks: Vec<usize> = zipf_counts(POOL, ZIPF_S, between)
                        .into_iter()
                        .enumerate()
                        .flat_map(|(rank, count)| std::iter::repeat_n(rank, count))
                        .collect();
                    order.shuffle(&mut ranks);
                    steps.extend(ranks.into_iter().map(|query| Step::Query {
                        query,
                        class: None,
                        flap: false,
                        tenant: rng.below(TENANTS),
                    }));
                    steps.push(Step::Write);
                }
                let start = rng.below(steps.len());
                steps.rotate_left(start);
                Plan { queries, steps }
            }
        }
    }

    pub fn ops(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Query { .. }))
            .count()
    }
}

/// Cone radii of the two `dense-pair` classes, and the parser limit set
/// once so that a tail cone's partial result is chunked and a body cone's
/// is not (both asserted on every op).
pub const DENSE_BODY_ARCMIN: f64 = 8.0;
pub const DENSE_TAIL_ARCMIN: f64 = 15.0;
const DENSE_MAX_MESSAGE_BYTES: usize = 256 * 1024;

const ZIPF_S: f64 = 1.35;
const CACHE_CAPACITY: usize = 8;

/// Whether a system is the one measured or the twin its answers are
/// checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Measured,
    /// Same archives and rows, the slow and simple path: the HTM kernel
    /// for `triple-small` and `dense-pair`, one unsharded node per archive
    /// for `scatter-flap`, no cache and no job service (the Portal called
    /// directly) for `jobs-zipf-writes`.
    Oracle,
}

/// A running federation with whatever fronts it.
pub struct System {
    pub kind: Kind,
    pub fed: TestFederation,
    client: Client,
    jobs: Option<(Arc<JobService>, JobClient)>,
    /// The primaries of the extent that holds the cap centre, one per
    /// archive (`scatter-flap`).
    flap_hosts: Vec<String>,
    seed: u64,
    writes: u64,
    trace: Option<Arc<Recorder>>,
}

/// What one query op returned.
pub struct Answer {
    pub digest: u64,
    /// Scheduler quanta the job took (`jobs-zipf-writes`).
    pub quanta: u64,
    pub queue_wait_sim_s: f64,
}

const PORTAL_CLIENT: &str = "astronomer.example.org";
const JOBS_HOST: &str = "jobs.skyquery.net";
const QUANTUM_SIM_S: f64 = 0.1;

impl System {
    /// A cold start: surveys observed, nodes started and registered, the
    /// Portal (and the job service) bound. Everything `setup_s` times
    /// except the first op of each class.
    pub fn start(kind: Kind, role: Role, seed: u64) -> System {
        let oracle = role == Role::Oracle;
        let config = |c: FederationConfig| FederationConfig {
            kernel: if oracle && kind != Kind::ScatterFlap {
                MatchKernel::Htm
            } else {
                c.kernel
            },
            ..c
        };
        let builder = match kind {
            Kind::TripleSmall => {
                FederationBuilder::paper_triple(1200).config(config(FederationConfig::default()))
            }
            Kind::DensePair => FederationBuilder::new()
                .catalog(CatalogParams {
                    count: 100_000,
                    ..CatalogParams::default()
                })
                .survey(SurveyParams {
                    name: "RADIO".into(),
                    sigma_arcsec: 3.0,
                    detection_fraction: 0.25,
                    false_detections_per_1000: 3,
                    flux_scale: 0.05,
                    table: "Sources".into(),
                    htm_depth: 13,
                    seed: 2001,
                })
                .survey(SurveyParams {
                    name: "OPTICAL".into(),
                    sigma_arcsec: 1.0,
                    detection_fraction: 0.95,
                    false_detections_per_1000: 5,
                    flux_scale: 1.0,
                    table: "Objects".into(),
                    htm_depth: 14,
                    seed: 2002,
                })
                .config(config(FederationConfig {
                    max_message_bytes: DENSE_MAX_MESSAGE_BYTES,
                    ..FederationConfig::default()
                })),
            Kind::ScatterFlap => {
                let b = FederationBuilder::paper_triple(1200);
                if oracle {
                    b
                } else {
                    b.shards(4).replicas(2)
                }
            }
            Kind::JobsZipfWrites => {
                FederationBuilder::paper_triple(300).config(config(FederationConfig {
                    result_cache_capacity: if oracle { 0 } else { CACHE_CAPACITY },
                    ..FederationConfig::default()
                }))
            }
        };
        let fed = builder.cost_model(CostModel::internet_2002()).build();
        let jobs = (kind == Kind::JobsZipfWrites && !oracle).then(|| {
            let svc = JobService::start(
                &fed.net,
                JOBS_HOST,
                fed.portal.clone(),
                JobServiceConfig {
                    max_running: 4,
                    tenant_max_running: 2,
                    ..JobServiceConfig::default()
                },
            );
            let cli = JobClient::new(&fed.net, "tenants.example.org", svc.url());
            (svc, cli)
        });
        let flap_hosts = if kind == Kind::ScatterFlap && !oracle {
            // The extent is found by where the data is, not by host name:
            // with four shards the cap (dec −0.5 ± 1) lies in the second
            // and third extents, and a fault on the first is never felt.
            TRIPLE
                .iter()
                .map(|(archive, _, _)| {
                    fed.portal
                        .shards_of(archive)
                        .into_iter()
                        .find(|n| n.extent().contains_dec(-0.5))
                        .expect("the extents tile the sky")
                        .url
                        .host
                })
                .collect()
        } else {
            Vec::new()
        };
        System {
            kind,
            client: fed.client(PORTAL_CLIENT),
            fed,
            jobs,
            flap_hosts,
            seed,
            writes: 0,
            trace: None,
        }
    }

    /// Puts every host of the federation behind a recording endpoint (and
    /// the Portal behind its staged twin), for the traced run.
    pub fn attach_trace(&mut self, rec: &Arc<Recorder>) {
        let net = &self.fed.net;
        for node in &self.fed.nodes {
            Recording::bind(net, node.host(), node.clone(), rec, "node");
        }
        match &self.jobs {
            Some((svc, _)) => Recording::bind(net, svc.host(), svc.clone(), rec, "jobs"),
            None => StagedPortal::bind(net, &self.fed.portal, rec),
        }
        self.trace = Some(rec.clone());
    }

    /// Bytes the Portal has sent its SOAP client so far: the `SkyQuery`
    /// replies (none where the job service fronts the Portal).
    pub fn reply_bytes(&self) -> f64 {
        let metrics = self.fed.net.metrics();
        metrics.link(self.fed.portal.host(), PORTAL_CLIENT).bytes as f64
    }

    /// Installs or clears the flap: every `ScatterStep` reply of the
    /// flapped extent's primaries arrives as garbage, so the Portal spends
    /// its retry budget on each and fails over to the replica. (A
    /// `HostDown` fault fails before any work is done and costs no wall
    /// time; a corrupt reply wastes the node's work, which is the failover
    /// a user feels.) The Portal's health probe runs first, as an operator's
    /// would between queries: without it the primaries stay marked
    /// unhealthy after the first failover and later ops skip them.
    pub fn set_flap(&self, on: bool) {
        if on {
            let plan = self.flap_hosts.iter().fold(FaultPlan::new(), |plan, host| {
                plan.rule(
                    FaultRule::new(FaultKind::GarbageBody)
                        .host(host.clone())
                        .action("ScatterStep"),
                )
            });
            self.fed.net.install_faults(plan);
        } else {
            self.fed.net.clear_faults();
        }
        self.fed.portal.probe_unhealthy_hosts();
    }

    /// One client-visible request: `Client::query` over SOAP, or submit →
    /// poll → fetch through the job service with one job outstanding.
    /// An error, a refusal or a `degraded` answer is a failed op.
    pub fn query(&self, sql: &str, tenant: usize) -> Result<Answer, String> {
        let (result, quanta, queue_wait_sim_s) = match &self.jobs {
            None if self.kind == Kind::JobsZipfWrites => {
                let (rs, _) = self.fed.portal.submit(sql).map_err(|e| e.to_string())?;
                (rs, 0, 0.0)
            }
            None => {
                let (rs, _) = self.client.query(sql).map_err(|e| e.to_string())?;
                (rs, 0, 0.0)
            }
            Some((svc, cli)) => {
                const CLASSES: [QuotaClass; 3] =
                    [QuotaClass::Free, QuotaClass::Standard, QuotaClass::Premium];
                let (id, _) = cli
                    .submit_with(
                        &format!("tenant-{tenant}"),
                        sql,
                        0,
                        CLASSES[tenant % CLASSES.len()],
                        None,
                    )
                    .map_err(|e| e.to_string())?;
                let mut quanta = 0;
                let status = loop {
                    self.pump(svc);
                    quanta += 1;
                    let status = cli.poll(id).map_err(|e| e.to_string())?;
                    match status.state {
                        JobState::Succeeded => break status,
                        JobState::Queued | JobState::Admitted | JobState::Running => {}
                        other => {
                            return Err(format!(
                                "job {id} ended {other:?}: {}",
                                status.error.unwrap_or_default()
                            ))
                        }
                    }
                    if quanta > 64 {
                        return Err(format!("job {id} still {:?} after 64 quanta", status.state));
                    }
                };
                let rs = cli.fetch(id).map_err(|e| e.to_string())?;
                (rs, quanta, status.wait_s)
            }
        };
        if result.degraded {
            return Err(format!(
                "degraded answer, dropped {}",
                result.dropped_archives.join(",")
            ));
        }
        Ok(Answer {
            digest: digest(&result),
            quanta,
            queue_wait_sim_s,
        })
    }

    /// One scheduler quantum and the simulated time it stands for. The
    /// traced run wraps this call in a span.
    fn pump(&self, svc: &JobService) {
        match &self.trace {
            Some(rec) => rec.span("jobs.pump", || svc.pump()),
            None => svc.pump(),
        };
        self.fed.net.advance_clock(QUANTUM_SIM_S);
    }

    /// Inserts one row and has the Portal re-read that archive's table
    /// versions, as an archive operator would after a load. Of every nine
    /// writes the first three go to the three archives at one seeded
    /// position, which completes an object seen by all of them: a new
    /// three-way match appears in every answer, and the oracle twin, given
    /// the same writes, proves no stale row is served. The other six go to
    /// SDSS, the largest archive, at positions of their own, and only bump
    /// its version: answers (33 rows at the start) and the small archives
    /// that seed the chain then grow by a half over a run, not threefold,
    /// and late rounds cost little more than early ones. Positions depend on
    /// the seed and the count of writes alone, whatever the order of the
    /// list. Returns the seconds the insert and the refresh took.
    pub fn write(&mut self) -> (f64, f64) {
        let (to, spot) = if self.writes % 9 < 3 {
            (self.writes % 3, self.writes / 9)
        } else {
            (0, 1_000_000 + self.writes)
        };
        let (archive, table, _) = TRIPLE[to as usize];
        let (ra, dec) = centre(&mut Rng::stream(self.seed, 1000 + spot), 3.0);
        let row = vec![
            Value::Id(1_000_000 + self.writes),
            Value::Float(ra),
            Value::Float(dec),
            Value::Text("GALAXY".into()),
            Value::Float(5.0),
        ];
        self.writes += 1;
        let node = self.fed.node(archive).expect("archive is registered");
        let t = std::time::Instant::now();
        node.with_db(|db| db.insert(table, row))
            .expect("the row conforms to the primary schema");
        let insert_s = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        self.fed
            .portal
            .refresh_table_versions(archive)
            .expect("the archive answers its Metadata service");
        (insert_s, t.elapsed().as_secs_f64())
    }
}

/// A 64-bit digest of the answer's column names and typed cells: what the
/// harness keeps of each result during timing, and what the oracle twin's
/// answer must reproduce. Both sides are hashed in this process, so the
/// standard hasher's fixed keys are all the stability it needs.
pub fn digest(rs: &ResultSet) -> u64 {
    let mut h = DefaultHasher::new();
    for c in &rs.columns {
        h.write(c.name.as_bytes());
        h.write_u8(0xFF);
    }
    for row in &rs.rows {
        for v in row {
            match v {
                Value::Null => h.write_u8(0),
                Value::Bool(b) => h.write(&[1, u8::from(*b)]),
                Value::Int(i) => {
                    h.write_u8(2);
                    h.write_i64(*i);
                }
                Value::Float(x) => {
                    h.write_u8(3);
                    h.write_u64(x.to_bits());
                }
                Value::Text(s) => {
                    h.write_u8(4);
                    h.write(s.as_bytes());
                    h.write_u8(0xFF);
                }
                Value::Id(u) => {
                    h.write_u8(5);
                    h.write_u64(*u);
                }
            }
        }
    }
    h.finish()
}
