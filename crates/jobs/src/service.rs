//! The job service: an asynchronous, multi-tenant front to the Portal.
//!
//! The real SkyQuery grew a batch interface because federated
//! cross-matches run for minutes: a web client cannot hold a synchronous
//! SOAP call open that long. This service is that interface for the
//! simulation. `SubmitQuery` parks the query in a bounded per-tenant
//! queue and answers immediately with a job id; a weighted-fair scheduler
//! drains the queue into a bounded pool of chain executions (reusing the
//! Portal's `ChainMode` machinery — one [`CheckpointedWalk`] step per
//! scheduler turn, so a long chain from one tenant cannot monopolize the
//! Portal); `PollJob` reports progress; `FetchResults` delivers the
//! VOTable, paginated through the same zone-chunk transfer machinery the
//! daisy chain uses; `CancelJob` releases retained checkpoints and
//! transfer sessions *immediately*, not at lease TTL.
//!
//! Every resource a finished job pins — the result rows, the terminal
//! record, open result transfers — lives in a [`LeaseTable`] swept at the
//! front of every request, so an abandoned job can never pin the service
//! forever.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use skyquery_core::error::{FederationError, Result};
use skyquery_core::plan::ExecutionPlan;
use skyquery_core::result::ResultSet;
use skyquery_core::service::{require_u64, Reply, ServiceMethod};
use skyquery_core::trace::{ExecutionTrace, StatsChain};
use skyquery_core::{ChainMode, CheckpointedWalk, Degradation, LeaseTable, PartialSet, Portal};
use skyquery_net::{lock, Endpoint, HttpRequest, HttpResponse, SimNetwork, Url};
use skyquery_soap::{MessageLimits, Operation, RpcCall, RpcResponse, SoapValue};
use skyquery_xml::VoTable;

use crate::admission::{FairScheduler, JobServiceConfig};
use crate::job::{JobState, JobStatus, QuotaClass};

/// Every service method the job service answers, in WSDL order. The same
/// registry drives dispatch and WSDL generation (see
/// [`skyquery_core::service`]).
const SERVICES: &[ServiceMethod<JobService>] = &[
    ServiceMethod {
        name: "SubmitQuery",
        operation: || {
            Operation::new("SubmitQuery")
                .input("tenant", "string")
                .input("sql", "string")
                .input_opt("priority", "long")
                .input_opt("class", "string")
                .input_opt("client_ref", "string")
                .output("job", "long")
                .output("duplicate", "boolean")
                .doc("Queue a cross-match query for asynchronous execution")
        },
        handler: |svc, net, call| svc.handle_submit(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "PollJob",
        operation: || {
            Operation::new("PollJob")
                .input("job", "long")
                .output("state", "string")
                .output("tenant", "string")
                .output("wait_s", "double")
                .output("run_s", "double")
                .output("rows", "long")
                .output("error", "string")
                .doc("Report a job's life-cycle state (renews its record lease)")
        },
        handler: |svc, _net, call| svc.handle_poll(call).map(Reply::from),
    },
    ServiceMethod {
        name: "CancelJob",
        operation: || {
            Operation::new("CancelJob")
                .input("job", "long")
                .output("cancelled", "boolean")
                .doc("Cancel a queued or running job, releasing its checkpoints immediately")
        },
        handler: |svc, _net, call| svc.handle_cancel(call).map(Reply::from),
    },
    ServiceMethod {
        name: "FetchResults",
        operation: || {
            Operation::new("FetchResults")
                .input("job", "long")
                .output("result", "table")
                .output("manifest", "xml")
                .doc("Deliver a finished job's VOTable, chunk-paginated when oversized")
        },
        handler: |svc, net, call| svc.handle_fetch_results(net, call),
    },
    ServiceMethod {
        name: "FetchChunk",
        operation: || {
            Operation::new("FetchChunk")
                .input("transfer_id", "long")
                .input("index", "long")
                .output("chunk", "table")
                .doc("Chunked-transfer continuation for a paginated result")
        },
        handler: |svc, net, call| svc.handle_fetch_chunk(net, call).map(Reply::from),
    },
    ServiceMethod {
        name: "AbortTransfer",
        operation: || {
            Operation::new("AbortTransfer")
                .input("transfer_id", "long")
                .output("aborted", "boolean")
                .doc("Free an open result transfer without serving its remaining chunks")
        },
        handler: |svc, _net, call| svc.handle_abort_transfer(call).map(Reply::from),
    },
];

/// Where a job's execution stands between scheduler quanta.
enum ExecPhase {
    /// Admitted; the chain has not started.
    Pending,
    /// Planned; the chain has not fired.
    Planned(Box<ExecutionPlan>),
    /// Mid-walk through a portal-driven chain.
    Walking(Box<ExecutionPlan>, Box<CheckpointedWalk>),
    /// Terminal; nothing left to drive.
    Done,
}

/// One job record.
struct Job {
    id: u64,
    tenant: String,
    class: QuotaClass,
    priority: i64,
    sql: String,
    client_ref: Option<String>,
    /// Submission order — the within-tenant tie-break after priority.
    seq: u64,
    state: JobState,
    submitted_at_s: f64,
    admitted_at_s: Option<f64>,
    finished_at_s: Option<f64>,
    error: Option<String>,
    trace: ExecutionTrace,
    result_rows: Option<usize>,
    /// Partial-result honesty carried from the execution: set when the
    /// job succeeded around unreachable archives/shards.
    degraded: bool,
    dropped_archives: Vec<String>,
    /// Recovery accounting accumulated across scheduler quanta.
    retries: u64,
    backoff_s: f64,
    faults: u64,
    exec: ExecPhase,
}

/// Mutable service state under one lock.
struct ServiceState {
    jobs: BTreeMap<u64, Job>,
    /// Queued job ids in submission order.
    queue: Vec<u64>,
    /// Admitted/running job ids (the execution pool).
    running: Vec<u64>,
    /// Round-robin cursor over `running`.
    run_cursor: usize,
    sched: FairScheduler,
    /// Finished results, leased: keyed by job id.
    results: LeaseTable<ResultSet>,
    /// Terminal job records awaiting their record TTL, keyed by job id.
    records: LeaseTable<u64>,
    /// Open result transfers: (owning job id, remaining chunks).
    transfers: LeaseTable<(u64, Vec<VoTable>)>,
}

/// The multi-tenant asynchronous job service.
pub struct JobService {
    host: String,
    net: SimNetwork,
    portal: Arc<Portal>,
    config: Mutex<JobServiceConfig>,
    state: Mutex<ServiceState>,
    next_job: AtomicU64,
    next_transfer: AtomicU64,
}

impl JobService {
    /// Starts a job service fronting `portal` and binds it to `host`.
    pub fn start(
        net: &SimNetwork,
        host: impl Into<String>,
        portal: Arc<Portal>,
        config: JobServiceConfig,
    ) -> Arc<JobService> {
        let host = host.into();
        let svc = Arc::new(JobService {
            host: host.clone(),
            net: net.clone(),
            portal,
            config: Mutex::new(config),
            state: Mutex::new(ServiceState {
                jobs: BTreeMap::new(),
                queue: Vec::new(),
                running: Vec::new(),
                run_cursor: 0,
                sched: FairScheduler::new(),
                results: LeaseTable::new(),
                records: LeaseTable::new(),
                transfers: LeaseTable::new(),
            }),
            next_job: AtomicU64::new(1),
            next_transfer: AtomicU64::new(1),
        });
        net.bind(host, svc.clone());
        svc
    }

    /// The service's network host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The service's SOAP endpoint URL.
    pub fn url(&self) -> Url {
        Url::new(self.host.clone(), "/soap")
    }

    /// The current admission/queue configuration.
    pub fn config(&self) -> JobServiceConfig {
        *lock(&self.config)
    }

    /// Replaces the admission/queue configuration.
    pub fn set_config(&self, config: JobServiceConfig) {
        *lock(&self.config) = config;
    }

    /// Every SOAPAction method this service dispatches, in WSDL order.
    pub fn service_names() -> Vec<&'static str> {
        skyquery_core::service::method_names(SERVICES)
    }

    /// The WSDL document describing the job service, generated from the
    /// same registry that dispatches its calls.
    pub fn wsdl(&self) -> String {
        skyquery_core::service::wsdl(SERVICES, "SkyQueryJobs", &self.url().to_string())
    }

    // ------------------------------------------------------------------
    // Leak detectors / introspection (tests, REPL).

    /// Queued job ids in submission order.
    pub fn queued(&self) -> Vec<u64> {
        lock(&self.state).queue.clone()
    }

    /// Jobs currently occupying the execution pool.
    pub fn running(&self) -> Vec<u64> {
        lock(&self.state).running.clone()
    }

    /// Open result transfers awaiting `FetchChunk` continuations.
    pub fn open_transfers(&self) -> Vec<u64> {
        lock(&self.state).transfers.ids()
    }

    /// Job ids whose results are still held under lease.
    pub fn held_results(&self) -> Vec<u64> {
        lock(&self.state).results.ids()
    }

    /// Total service-side resources currently under lease: held results,
    /// terminal records, and open result transfers.
    pub fn active_leases(&self) -> usize {
        let st = lock(&self.state);
        st.results.len() + st.records.len() + st.transfers.len()
    }

    /// Every known job with its current state, sorted by id.
    pub fn job_states(&self) -> Vec<(u64, JobState)> {
        lock(&self.state)
            .jobs
            .values()
            .map(|j| (j.id, j.state))
            .collect()
    }

    /// A terminal job's execution trace (`None` for unknown jobs).
    pub fn job_trace(&self, id: u64) -> Option<Vec<(String, String, String)>> {
        lock(&self.state).jobs.get(&id).map(|j| {
            j.trace
                .events()
                .iter()
                .map(|e| (e.actor.clone(), e.action.clone(), e.detail.clone()))
                .collect()
        })
    }

    // ------------------------------------------------------------------
    // Janitor.

    /// Reclaims every service-side lease that expired at or before the
    /// network's current simulated time: open result transfers, unfetched
    /// results (their jobs decay `Succeeded → Expired`), and terminal job
    /// records (their jobs vanish; `PollJob` then answers `LeaseExpired`).
    /// Runs at the front of every request; returns how many resources
    /// were reclaimed.
    pub fn sweep_leases(&self) -> usize {
        let now = self.net.now_s();
        let mut st = lock(&self.state);
        let st = &mut *st;
        let mut reclaimed = 0usize;
        for (_, _) in st.transfers.sweep(now) {
            reclaimed += 1;
        }
        for (job_id, _) in st.results.sweep(now) {
            reclaimed += 1;
            if let Some(job) = st.jobs.get_mut(&job_id) {
                if job.state == JobState::Succeeded {
                    job.state = JobState::Expired;
                    job.result_rows = None;
                    self.net.record_job_expired(&job.tenant);
                }
            }
        }
        for (job_id, _) in st.records.sweep(now) {
            reclaimed += 1;
            st.jobs.remove(&job_id);
            st.results.remove(job_id);
            let orphaned: Vec<u64> = st
                .transfers
                .ids()
                .into_iter()
                .filter(|tid| {
                    st.transfers
                        .get(*tid)
                        .is_some_and(|(jid, _)| *jid == job_id)
                })
                .collect();
            for tid in orphaned {
                st.transfers.remove(tid);
            }
        }
        for _ in 0..reclaimed {
            self.net.record_node_event(&self.host, "lease-expired");
        }
        reclaimed
    }

    // ------------------------------------------------------------------
    // Submit / poll / cancel (native API; the wire handlers decode SOAP
    // and call these).

    /// Accepts a query into `tenant`'s queue, or refuses it with a
    /// deterministic [`FederationError::JobRejected`] when the tenant's
    /// queued-job quota or the global queue bound is exhausted. A
    /// duplicate `client_ref` from the same tenant answers the existing
    /// job id with `duplicate = true` instead of queuing twice.
    pub fn submit(
        &self,
        tenant: &str,
        sql: &str,
        priority: i64,
        class: QuotaClass,
        client_ref: Option<&str>,
    ) -> Result<(u64, bool)> {
        if tenant.is_empty() {
            return Err(FederationError::protocol("tenant must be non-empty"));
        }
        let config = self.config();
        let now = self.net.now_s();
        let mut st = lock(&self.state);

        // Idempotency: the same (tenant, client_ref) names the same job.
        if let Some(client_ref) = client_ref {
            if let Some(existing) = st
                .jobs
                .values()
                .find(|j| j.tenant == tenant && j.client_ref.as_deref() == Some(client_ref))
            {
                return Ok((existing.id, true));
            }
        }

        // Admission gates — deterministic client faults, never retried.
        if st.queue.len() >= config.max_queued {
            self.net.record_job_rejected(tenant);
            return Err(FederationError::JobRejected {
                tenant: tenant.to_string(),
                reason: format!("global queue full ({} jobs queued)", st.queue.len()),
            });
        }
        let tenant_queued = st
            .queue
            .iter()
            .filter(|id| st.jobs.get(id).is_some_and(|j| j.tenant == tenant))
            .count();
        if tenant_queued >= config.tenant_max_queued {
            self.net.record_job_rejected(tenant);
            return Err(FederationError::JobRejected {
                tenant: tenant.to_string(),
                reason: format!("tenant queue full ({tenant_queued} jobs queued)"),
            });
        }

        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        let mut trace = ExecutionTrace::new();
        trace.push(
            "JobService",
            "queued",
            format!(
                "tenant {tenant} ({}, priority {priority}): {sql}",
                class.as_str()
            ),
        );
        st.jobs.insert(
            id,
            Job {
                id,
                tenant: tenant.to_string(),
                class,
                priority,
                sql: sql.to_string(),
                client_ref: client_ref.map(String::from),
                seq: id,
                state: JobState::Queued,
                submitted_at_s: now,
                admitted_at_s: None,
                finished_at_s: None,
                error: None,
                trace,
                result_rows: None,
                degraded: false,
                dropped_archives: Vec::new(),
                retries: 0,
                backoff_s: 0.0,
                faults: 0,
                exec: ExecPhase::Pending,
            },
        );
        st.queue.push(id);
        self.net.record_job_submitted(tenant);
        Ok((id, false))
    }

    /// Reports a job's state, renewing its record lease (polling is also
    /// keeping-alive). An unknown or swept job answers a deterministic
    /// [`FederationError::LeaseExpired`] with kind `job`.
    pub fn poll(&self, id: u64) -> Result<JobStatus> {
        self.sweep_leases();
        let now = self.net.now_s();
        let mut st = lock(&self.state);
        let st = &mut *st;
        let job = st
            .jobs
            .get(&id)
            .ok_or_else(|| FederationError::lease_expired("job", id, &self.host))?;
        st.records.renew(id, now);
        let wait_s = job.admitted_at_s.unwrap_or(now) - job.submitted_at_s;
        let run_s = job
            .admitted_at_s
            .map(|a| job.finished_at_s.unwrap_or(now) - a)
            .unwrap_or(0.0);
        Ok(JobStatus {
            id,
            tenant: job.tenant.clone(),
            state: job.state,
            result_rows: job.result_rows,
            degraded: job.degraded,
            dropped_archives: job.dropped_archives.clone(),
            error: job.error.clone(),
            wait_s,
            run_s,
        })
    }

    /// Cancels a job. A queued job leaves the queue; a running job
    /// releases its retained checkpoint *immediately* (no TTL wait) and
    /// leaves the pool; a terminal job answers `false` but still frees
    /// its open transfers, and a succeeded one surrenders its result
    /// (decaying to `Expired` exactly as if the lease had lapsed).
    /// Unknown jobs answer [`FederationError::LeaseExpired`].
    pub fn cancel(&self, id: u64) -> Result<bool> {
        self.sweep_leases();
        let now = self.net.now_s();
        let config = self.config();
        let mut st = lock(&self.state);
        let st = &mut *st;
        let job = st
            .jobs
            .get_mut(&id)
            .ok_or_else(|| FederationError::lease_expired("job", id, &self.host))?;
        // Free any result pagination sessions the job holds, whatever its
        // state — cancellation means "stop spending resources on this".
        let orphaned: Vec<u64> = st
            .transfers
            .ids()
            .into_iter()
            .filter(|tid| st.transfers.get(*tid).is_some_and(|(jid, _)| *jid == id))
            .collect();
        for tid in orphaned {
            st.transfers.remove(tid);
        }
        if job.state.is_terminal() {
            // Cancelling a finished job reclaims its result immediately:
            // the job decays to Expired exactly as if the lease lapsed,
            // so a later poll and fetch tell a consistent story.
            if job.state == JobState::Succeeded && st.results.remove(id).is_some() {
                job.state = JobState::Expired;
                job.result_rows = None;
                self.net.record_job_expired(&job.tenant);
            }
            return Ok(false);
        }

        let was_queued = job.state == JobState::Queued;
        let exec = std::mem::replace(&mut job.exec, ExecPhase::Done);
        if let ExecPhase::Walking(_, mut walk) = exec {
            // Satellite of survivable execution: the checkpoint retained
            // on some archive node is released now, not at lease TTL.
            walk.release(&self.portal);
        }
        job.state = JobState::Cancelled;
        job.finished_at_s = Some(now);
        let run_s = job.admitted_at_s.map(|a| now - a).unwrap_or(0.0);
        job.trace
            .push("JobService", "cancelled", "owner cancelled the job");
        let tenant = job.tenant.clone();
        if was_queued {
            st.queue.retain(|qid| *qid != id);
        } else {
            st.running.retain(|rid| *rid != id);
        }
        st.records.insert(id, id, now, config.record_ttl_s);
        self.net.record_job_finished(&tenant, "cancelled", run_s);
        Ok(true)
    }

    // ------------------------------------------------------------------
    // The scheduler pump.

    /// One scheduler quantum: sweep leases, admit from the queue while
    /// the pool has room (weighted-fair across tenants), then drive one
    /// running job one step. Returns whether any admission or execution
    /// work was done — `false` means the service is idle.
    pub fn pump(&self) -> bool {
        self.sweep_leases();
        let admitted = self.admit_jobs();
        let executed = self.execute_slice();
        admitted > 0 || executed
    }

    /// Pumps until idle or `max_quanta` quanta, returning quanta used.
    pub fn run_until_idle(&self, max_quanta: usize) -> usize {
        for used in 0..max_quanta {
            if !self.pump() {
                return used;
            }
        }
        max_quanta
    }

    /// Admission: drain the queue into the pool under the fair scheduler.
    fn admit_jobs(&self) -> usize {
        let config = self.config();
        let now = self.net.now_s();
        let mut st = lock(&self.state);
        let st = &mut *st;
        let mut admitted = 0usize;
        while st.running.len() < config.max_running {
            // Eligible tenants: queued work, below the per-tenant
            // concurrent-chain cap.
            let mut candidates: Vec<(String, f64)> = Vec::new();
            for id in &st.queue {
                let Some(job) = st.jobs.get(id) else { continue };
                if candidates.iter().any(|(t, _)| *t == job.tenant) {
                    continue;
                }
                let tenant_running = st
                    .running
                    .iter()
                    .filter(|rid| st.jobs.get(rid).is_some_and(|j| j.tenant == job.tenant))
                    .count();
                if tenant_running < config.tenant_max_running {
                    candidates.push((job.tenant.clone(), job.class.weight()));
                }
            }
            let Some(winner) = st.sched.admit(&candidates) else {
                break;
            };
            if candidates.len() > 1 {
                // A contended round: every backlogged tenant is recorded,
                // the winner flagged — the fairness-share numerator.
                for (tenant, _) in &candidates {
                    self.net.record_job_contention(tenant, *tenant == winner);
                }
            }
            // The winner's best job: highest priority, then submission
            // order. Priorities order work *within* a tenant only.
            let best = st
                .queue
                .iter()
                .filter_map(|id| st.jobs.get(id))
                .filter(|j| j.tenant == winner)
                .max_by(|a, b| a.priority.cmp(&b.priority).then(b.seq.cmp(&a.seq)))
                .map(|j| j.id)
                .expect("winner came from the queue");
            st.queue.retain(|id| *id != best);
            st.running.push(best);
            let job = st.jobs.get_mut(&best).expect("job exists");
            job.state = JobState::Admitted;
            job.admitted_at_s = Some(now);
            let wait_s = now - job.submitted_at_s;
            job.trace.push(
                "JobService",
                "admitted",
                format!(
                    "after {wait_s:.3}s queued; pool {}/{}",
                    st.running.len(),
                    config.max_running
                ),
            );
            self.net.record_job_admitted(&winner, wait_s);
            admitted += 1;
        }
        admitted
    }

    /// Executes one quantum of one running job, round-robin.
    fn execute_slice(&self) -> bool {
        let config = self.config();
        let mut st = lock(&self.state);
        let st = &mut *st;
        if st.running.is_empty() {
            return false;
        }
        st.run_cursor %= st.running.len();
        let id = st.running[st.run_cursor];
        st.run_cursor += 1;
        let job = st.jobs.get_mut(&id).expect("running job exists");

        // Recovery accounting: metric deltas across this quantum.
        let before = self.net.metrics();
        let (retries0, backoff0, faults0) = (
            before.retry_total().retries,
            before.retry_total().backoff_seconds,
            before.fault_total(),
        );

        job.state = JobState::Running;
        let phase = std::mem::replace(&mut job.exec, ExecPhase::Done);
        let outcome: SliceOutcome = match phase {
            ExecPhase::Pending => match self.portal.plan_query(&job.sql, &mut job.trace) {
                Ok(plan) => SliceOutcome::Continue(ExecPhase::Planned(Box::new(plan))),
                Err(e) => SliceOutcome::Finished(Err(e)),
            },
            ExecPhase::Planned(plan) => match self.portal.config().chain_mode {
                // The paper's daisy chain is a single synchronous
                // recursion — one quantum runs the plan to completion.
                ChainMode::Recursive => finish(
                    &plan,
                    self.portal.execute_plan(&plan, &mut job.trace),
                    &mut job.trace,
                ),
                // Otherwise one walk step per quantum — none at all when
                // the result cache answered and the walk starts done.
                ChainMode::Checkpointed => {
                    let walk = self.portal.start_walk(&plan, &mut job.trace);
                    self.drive(plan, Box::new(walk), &mut job.trace)
                }
            },
            ExecPhase::Walking(plan, walk) => self.drive(plan, walk, &mut job.trace),
            ExecPhase::Done => SliceOutcome::Continue(ExecPhase::Done),
        };

        let after = self.net.metrics();
        job.retries += after.retry_total().retries - retries0;
        job.backoff_s += after.retry_total().backoff_seconds - backoff0;
        job.faults += after.fault_total() - faults0;

        let now = self.net.now_s();
        match outcome {
            SliceOutcome::Continue(next) => {
                job.exec = next;
                true
            }
            SliceOutcome::Finished(result) => {
                if let Ok(rs) = &result {
                    if rs.degraded {
                        job.trace.push(
                            "JobService",
                            "partial result",
                            format!(
                                "answer degraded; dropped: {}",
                                rs.dropped_archives.join(", ")
                            ),
                        );
                    }
                }
                if job.retries > 0 || job.faults > 0 {
                    job.trace.push(
                        "JobService",
                        "recovery",
                        format!(
                            "{} retries ({:.3}s backoff), {} fault events during execution",
                            job.retries, job.backoff_s, job.faults
                        ),
                    );
                }
                let outcome = match result {
                    Ok(rs) => {
                        job.result_rows = Some(rs.row_count());
                        job.degraded = rs.degraded;
                        job.dropped_archives = rs.dropped_archives.clone();
                        job.trace.push(
                            "JobService",
                            "finished",
                            format!("succeeded with {} rows", rs.row_count()),
                        );
                        job.state = JobState::Succeeded;
                        st.results.insert(id, rs, now, config.result_ttl_s);
                        self.net.record_node_event(&self.host, "lease-granted");
                        "succeeded"
                    }
                    Err(e) => {
                        job.trace
                            .push("JobService", "finished", format!("failed: {e}"));
                        job.error = Some(e.to_string());
                        job.state = JobState::Failed;
                        "failed"
                    }
                };
                job.finished_at_s = Some(now);
                let run_s = now - job.admitted_at_s.unwrap_or(now);
                st.running.retain(|rid| *rid != id);
                st.records.insert(id, id, now, config.record_ttl_s);
                self.net.record_job_finished(&job.tenant, outcome, run_s);
                true
            }
        }
    }

    /// One quantum of a walk: its next step, or — once every step has
    /// run — its answer. A fatal step error has already released whatever
    /// the walk retained.
    fn drive(
        &self,
        plan: Box<ExecutionPlan>,
        mut walk: Box<CheckpointedWalk>,
        trace: &mut ExecutionTrace,
    ) -> SliceOutcome {
        if walk.is_done() {
            return finish(&plan, walk.finish(&self.portal), trace);
        }
        match walk.step(&self.portal, trace) {
            Ok(()) => SliceOutcome::Continue(ExecPhase::Walking(plan, walk)),
            Err(e) => SliceOutcome::Finished(Err(e)),
        }
    }

    // ------------------------------------------------------------------
    // Wire handlers.

    fn handle_submit(&self, _net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let tenant = require_str(call, "tenant")?;
        let sql = require_str(call, "sql")?;
        let priority = match call.get("priority") {
            Some(v) => v
                .as_i64()
                .ok_or_else(|| FederationError::protocol("priority must be an integer"))?,
            None => 0,
        };
        let class = match call.get("class") {
            Some(v) => {
                let s = v
                    .as_str()
                    .ok_or_else(|| FederationError::protocol("class must be a string"))?;
                QuotaClass::parse(s).ok_or_else(|| {
                    FederationError::protocol(format!(
                        "unknown quota class {s} (expected free, standard, or premium)"
                    ))
                })?
            }
            None => QuotaClass::default(),
        };
        let client_ref = match call.get("client_ref") {
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| FederationError::protocol("client_ref must be a string"))?,
            ),
            None => None,
        };
        let (id, duplicate) = self.submit(&tenant, &sql, priority, class, client_ref)?;
        Ok(RpcResponse::new("SubmitQuery")
            .result("job", SoapValue::Int(id as i64))
            .result("duplicate", SoapValue::Bool(duplicate)))
    }

    fn handle_poll(&self, call: &RpcCall) -> Result<RpcResponse> {
        let id = require_u64(call, "job")?;
        let status = self.poll(id)?;
        let mut resp = RpcResponse::new("PollJob")
            .result("state", SoapValue::Str(status.state.as_str().to_string()))
            .result("tenant", SoapValue::Str(status.tenant))
            .result("wait_s", SoapValue::Float(status.wait_s))
            .result("run_s", SoapValue::Float(status.run_s));
        if let Some(rows) = status.result_rows {
            resp = resp.result("rows", SoapValue::Int(rows as i64));
        }
        // Partial-result honesty: a poll is enough to learn the answer
        // is degraded — no fetch (or trace scrape) required.
        if status.degraded {
            resp = resp
                .result("degraded", SoapValue::Bool(true))
                .result("dropped", SoapValue::Str(status.dropped_archives.join(",")));
        }
        if let Some(error) = status.error {
            resp = resp.result("error", SoapValue::Str(error));
        }
        Ok(resp)
    }

    fn handle_cancel(&self, call: &RpcCall) -> Result<RpcResponse> {
        let id = require_u64(call, "job")?;
        let cancelled = self.cancel(id)?;
        Ok(RpcResponse::new("CancelJob").result("cancelled", SoapValue::Bool(cancelled)))
    }

    /// Delivers a succeeded job's result, inline when it fits the
    /// federation's message limit, otherwise paginated: the reply carries
    /// a chunk manifest and the rows stream through `FetchChunk`
    /// continuations exactly like an oversized partial set on the daisy
    /// chain. Fetching renews the result lease, so delivery is
    /// idempotent until the TTL finally lapses.
    fn handle_fetch_results(&self, net: &SimNetwork, call: &RpcCall) -> Result<Reply> {
        let id = require_u64(call, "job")?;
        let config = self.config();
        let max_bytes = self.portal.config().max_message_bytes;
        let now = net.now_s();
        let mut st = lock(&self.state);
        let st = &mut *st;
        let job = st
            .jobs
            .get(&id)
            .ok_or_else(|| FederationError::lease_expired("job", id, &self.host))?;
        match job.state {
            JobState::Succeeded => {}
            JobState::Expired => {
                return Err(FederationError::lease_expired("result", id, &self.host))
            }
            other => {
                return Err(FederationError::protocol(format!(
                    "job {id} has no results to fetch (state {other})"
                )))
            }
        }
        // Partial-result honesty travels with the rows on both delivery
        // shapes (inline and chunk manifest): the VOTable payload alone
        // cannot carry it.
        let degraded = job.degraded;
        let dropped = job.dropped_archives.join(",");
        st.records.renew(id, now);
        if !st.results.renew(id, now) {
            return Err(FederationError::lease_expired("result", id, &self.host));
        }
        let table = st
            .results
            .get(id)
            .expect("renewed above")
            .to_votable("result");
        let mut monolithic = RpcResponse::new("FetchResults")
            .result("result", SoapValue::Table(table))
            .result("degraded", SoapValue::Bool(degraded))
            .result("dropped", SoapValue::Str(dropped.clone()));
        // A reply that fits is sent as the very bytes that were measured.
        let encoded = monolithic.to_xml();
        if encoded.len() <= max_bytes {
            return Ok(Reply::Encoded(encoded));
        }
        let Some(SoapValue::Table(table)) = monolithic.take("result") else {
            unreachable!("the monolithic reply carries the result")
        };
        let transfer_id = self.next_transfer.fetch_add(1, Ordering::Relaxed);
        let (manifest, chunks) =
            skyquery_soap::chunk::split_table(&table, MessageLimits::tiny(max_bytes), transfer_id)
                .map_err(FederationError::Soap)?;
        st.transfers
            .insert(transfer_id, (id, chunks), now, config.result_ttl_s);
        self.net.record_node_event(&self.host, "lease-granted");
        Ok(RpcResponse::new("FetchResults")
            .result("manifest", SoapValue::Xml(manifest.to_element()))
            .result("degraded", SoapValue::Bool(degraded))
            .result("dropped", SoapValue::Str(dropped))
            .into())
    }

    fn handle_fetch_chunk(&self, net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let transfer_id = require_u64(call, "transfer_id")?;
        let mut st = lock(&self.state);
        // Each continuation renews the session's lease, like a SkyNode's
        // chunked transfers: a live receiver never loses one mid-stream.
        st.transfers.renew(transfer_id, net.now_s());
        let (_, chunks) = st
            .transfers
            .get(transfer_id)
            .ok_or_else(|| FederationError::lease_expired("transfer", transfer_id, &self.host))?;
        let (reply, last) = skyquery_core::service::fetch_chunk(call, transfer_id, chunks)?;
        if last {
            st.transfers.remove(transfer_id);
        }
        Ok(reply)
    }

    fn handle_abort_transfer(&self, call: &RpcCall) -> Result<RpcResponse> {
        let transfer_id = require_u64(call, "transfer_id")?;
        let freed = lock(&self.state).transfers.remove(transfer_id).is_some();
        Ok(RpcResponse::new("AbortTransfer").result("aborted", SoapValue::Bool(freed)))
    }

    fn handle_call(&self, net: &SimNetwork, call: RpcCall) -> Result<Reply> {
        // Janitor first, like a SkyNode: every request is an opportunity
        // to reclaim leases that lapsed while the service sat idle.
        self.sweep_leases();
        skyquery_core::service::dispatch(SERVICES, self, net, &call)
    }
}

/// What one execution quantum decided.
enum SliceOutcome {
    Continue(ExecPhase),
    Finished(Result<ResultSet>),
}

/// The one way an execution ends, whichever path ran it: per-step trace
/// lines, the final projection, and partial-result honesty stamped on the
/// result — a degraded execution must relay its partial flag, not a
/// silently complete-looking answer.
fn finish(
    plan: &ExecutionPlan,
    executed: Result<(PartialSet, StatsChain, Degradation)>,
    trace: &mut ExecutionTrace,
) -> SliceOutcome {
    SliceOutcome::Finished(executed.and_then(|(set, stats, degradation)| {
        for (alias, s) in &stats.entries {
            trace.push(
                alias.clone(),
                "cross match step",
                format!("tuples in {}, tuples out {}", s.tuples_in, s.tuples_out),
            );
        }
        let mut rs = Portal::project_result(plan, set)?;
        rs.degraded = degradation.degraded;
        rs.dropped_archives = degradation.dropped;
        Ok(rs)
    }))
}

impl Endpoint for JobService {
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        skyquery_core::service::serve(&req, |call| self.handle_call(net, call))
    }
}

fn require_str(call: &RpcCall, name: &str) -> Result<String> {
    Ok(call
        .require(name)?
        .as_str()
        .ok_or_else(|| FederationError::protocol(format!("{name} must be a string")))?
        .to_string())
}
