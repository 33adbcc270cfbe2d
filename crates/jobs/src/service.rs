//! The job service: an asynchronous, multi-tenant front to the Portal.
//!
//! The real SkyQuery grew a batch interface because federated
//! cross-matches run for minutes: a web client cannot hold a synchronous
//! SOAP call open that long. This service is that interface for the
//! simulation. `SubmitQuery` parks the query in a bounded per-tenant
//! queue and answers immediately with a job id; a weighted-fair scheduler
//! drains the queue into a bounded pool of running jobs. Each job is the
//! Portal's own [`Submission`], advanced one quantum per scheduler turn
//! ([`Portal::advance`]), so a long chain from one tenant cannot
//! monopolize the Portal. `PollJob` reports progress; `FetchResults`
//! delivers the VOTable, paginated through the [`Transfers`] store a
//! SkyNode serves its oversized replies from; `CancelJob` ends the job's
//! submission, dropping its walk, and frees its transfers *immediately*,
//! not at lease TTL.
//!
//! Every resource a finished job pins — the result rows, the terminal
//! record, open result transfers — is leased and swept at the front of
//! every request, so an abandoned job can never pin the service forever;
//! each `FetchChunk` renews the job's leases with its transfer's.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use skyquery_core::error::{field, opt_field, FederationError, Result};
use skyquery_core::result::ResultSet;
use skyquery_core::service::{
    abort_transfer_operation, fetch_chunk_operation, Reply, ServiceMethod, Transfers,
};
use skyquery_core::{ExecutionTrace, LeaseTable, Portal, Submission};
use skyquery_net::{lock, Endpoint, HttpRequest, HttpResponse, SimNetwork, Url};
use skyquery_soap::{Operation, RpcCall, RpcResponse, SoapValue};

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
                .doc("Cancel a queued or running job, freeing what it holds immediately")
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
        operation: fetch_chunk_operation,
        handler: |svc, net, call| {
            let (chunk, job) = svc.transfers.fetch_chunk(net, call)?;
            lock(&svc.state).renew_result(job, net.now_s());
            Ok(chunk)
        },
    },
    ServiceMethod {
        name: "AbortTransfer",
        operation: abort_transfer_operation,
        handler: |svc, _net, call| svc.transfers.abort(call).map(Reply::from),
    },
];

/// One job record.
struct Job {
    id: u64,
    tenant: String,
    class: QuotaClass,
    priority: i64,
    client_ref: Option<String>,
    state: JobState,
    submitted_at_s: f64,
    admitted_at_s: Option<f64>,
    finished_at_s: Option<f64>,
    error: Option<String>,
    result_rows: Option<usize>,
    /// Partial-result honesty carried from the execution: set when the
    /// job succeeded around unreachable archives/shards.
    degraded: bool,
    dropped_archives: Vec<String>,
    run: Run,
}

/// A job's Portal submission, trace included, until it ends; then only its trace, frozen.
enum Run {
    Live(Submission),
    Ended(FrozenTrace),
}

impl Run {
    fn live(&mut self) -> &mut Submission {
        match self {
            Run::Live(sub) => sub,
            Run::Ended(_) => unreachable!("an ended job is not run again"),
        }
    }
}

/// A trace's `(actor, action, detail)` fields in one exact-capacity text, and each one's end.
struct FrozenTrace {
    text: Box<str>,
    ends: Box<[u32]>,
}

impl FrozenTrace {
    fn new(trace: &ExecutionTrace) -> FrozenTrace {
        let events = trace.events();
        let fields = || events.iter().flat_map(|e| [&e.actor, &e.action, &e.detail]);
        let mut text = String::with_capacity(fields().map(String::len).sum());
        let ends = fields()
            .map(|field| {
                text.push_str(field);
                u32::try_from(text.len()).expect("a trace under 4 GiB")
            })
            .collect();
        let text = text.into_boxed_str();
        FrozenTrace { text, ends }
    }

    fn events(&self) -> Vec<(String, String, String)> {
        let mut fields = self.ends.iter().scan(0, |start, &end| {
            let start = std::mem::replace(start, end as usize);
            Some(self.text[start..end as usize].to_string())
        });
        std::iter::from_fn(|| Some((fields.next()?, fields.next()?, fields.next()?))).collect()
    }
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
    /// Finished results, leased: keyed by job id. Jobs with the same
    /// answer share one copy of it.
    results: LeaseTable<Arc<ResultSet>>,
    /// One handle on each distinct answer `results` holds.
    answers: Vec<Weak<ResultSet>>,
    /// Terminal job records awaiting their record TTL, keyed by job id.
    records: LeaseTable<u64>,
}

impl ServiceState {
    /// Renews job `id`'s record and result leases, as every fetch of its
    /// result does, whole or a chunk at a time: whether the result is held.
    fn renew_result(&mut self, id: u64, now: f64) -> bool {
        self.records.renew(id, now);
        self.results.renew(id, now)
    }
}

/// The copy of `rs` to hold: one already held for another job when it is
/// the same answer ([`ResultSet::is_same_answer`]), so held memory grows
/// with the distinct answers, not with the jobs. `answers` holds a handle
/// on each distinct answer held.
fn share(answers: &mut Vec<Weak<ResultSet>>, rs: ResultSet) -> Arc<ResultSet> {
    answers.retain(|held| held.strong_count() > 0);
    if let Some(held) = answers
        .iter()
        .filter_map(Weak::upgrade)
        .find(|held| held.is_same_answer(&rs))
    {
        return held;
    }
    let rs = Arc::new(rs);
    answers.push(Arc::downgrade(&rs));
    rs
}

/// The multi-tenant asynchronous job service.
pub struct JobService {
    host: String,
    net: SimNetwork,
    portal: Arc<Portal>,
    config: Mutex<JobServiceConfig>,
    state: Mutex<ServiceState>,
    /// Open result transfers, each owned by its job.
    transfers: Transfers,
    next_job: AtomicU64,
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
                answers: Vec::new(),
                records: LeaseTable::new(),
            }),
            transfers: Transfers::new(host.clone()),
            next_job: AtomicU64::new(1),
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
        self.transfers.ids()
    }

    /// Job ids whose results are still held under lease.
    pub fn held_results(&self) -> Vec<u64> {
        lock(&self.state).results.ids()
    }

    /// Total service-side resources currently under lease: held results,
    /// terminal records, and open result transfers.
    pub fn active_leases(&self) -> usize {
        let st = lock(&self.state);
        st.results.len() + st.records.len() + self.transfers.ids().len()
    }

    /// Every known job with its current state, sorted by id.
    pub fn job_states(&self) -> Vec<(u64, JobState)> {
        lock(&self.state)
            .jobs
            .values()
            .map(|j| (j.id, j.state))
            .collect()
    }

    /// A job's execution trace (`None` for unknown jobs).
    pub fn job_trace(&self, id: u64) -> Option<Vec<(String, String, String)>> {
        lock(&self.state).jobs.get(&id).map(|j| match &j.run {
            Run::Live(sub) => FrozenTrace::new(&sub.trace).events(),
            Run::Ended(trace) => trace.events(),
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
        let mut reclaimed = self.transfers.sweep(now);
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
            self.transfers.release_owner(job_id);
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
        let mut submission = Submission::new(sql);
        submission.trace.push(
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
                client_ref: client_ref.map(String::from),
                state: JobState::Queued,
                submitted_at_s: now,
                admitted_at_s: None,
                finished_at_s: None,
                error: None,
                result_rows: None,
                degraded: false,
                dropped_archives: Vec::new(),
                run: Run::Live(submission),
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

    /// Cancels a job. A queued job leaves the queue; a running job drops
    /// its walk (and with it the committed set) and leaves the pool; a
    /// terminal job answers `false` but still frees its open transfers,
    /// and a succeeded one surrenders its result (decaying to `Expired`
    /// exactly as if the lease had lapsed).
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
        self.transfers.release_owner(id);
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
        let trace = &mut job.run.live().trace;
        trace.push("JobService", "cancelled", "owner cancelled the job");
        // A mid-walk job's committed set lives in its walk, at the
        // Portal: dropping the walk frees it, and no node holds anything.
        job.run = Run::Ended(FrozenTrace::new(trace));
        job.state = JobState::Cancelled;
        job.finished_at_s = Some(now);
        let run_s = job.admitted_at_s.map(|a| now - a).unwrap_or(0.0);
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
            // (id) order. Priorities order work *within* a tenant only.
            let best = st
                .queue
                .iter()
                .filter_map(|id| st.jobs.get(id))
                .filter(|j| j.tenant == winner)
                .max_by(|a, b| a.priority.cmp(&b.priority).then(b.id.cmp(&a.id)))
                .map(|j| j.id)
                .expect("winner came from the queue");
            st.queue.retain(|id| *id != best);
            st.running.push(best);
            let job = st.jobs.get_mut(&best).expect("job exists");
            job.state = JobState::Admitted;
            job.admitted_at_s = Some(now);
            let wait_s = now - job.submitted_at_s;
            job.run.live().trace.push(
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

    /// Advances one running job's submission one quantum, round-robin,
    /// and books the job's outcome on its last.
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
        job.state = JobState::Running;
        let sub = job.run.live();
        let Some(answer) = self.portal.advance(sub) else {
            return true;
        };
        let now = self.net.now_s();
        let trace = &mut sub.trace;
        let outcome = match answer {
            Ok((rs, stats)) => {
                for (alias, s) in &stats.entries {
                    trace.push(
                        alias.clone(),
                        "cross match step",
                        format!("tuples in {}, tuples out {}", s.tuples_in, s.tuples_out),
                    );
                }
                if rs.degraded {
                    trace.push(
                        "JobService",
                        "partial result",
                        format!(
                            "answer degraded; dropped: {}",
                            rs.dropped_archives.join(", ")
                        ),
                    );
                }
                trace.push(
                    "JobService",
                    "finished",
                    format!("succeeded with {} rows", rs.row_count()),
                );
                job.result_rows = Some(rs.row_count());
                job.degraded = rs.degraded;
                job.dropped_archives = rs.dropped_archives.clone();
                job.state = JobState::Succeeded;
                let rs = share(&mut st.answers, rs);
                st.results.insert(id, rs, now, config.result_ttl_s);
                self.net.record_node_event(&self.host, "lease-granted");
                "succeeded"
            }
            Err(e) => {
                trace.push("JobService", "finished", format!("failed: {e}"));
                job.error = Some(e.to_string());
                job.state = JobState::Failed;
                "failed"
            }
        };
        job.run = Run::Ended(FrozenTrace::new(&job.run.live().trace));
        job.finished_at_s = Some(now);
        let run_s = now - job.admitted_at_s.unwrap_or(now);
        st.running.retain(|rid| *rid != id);
        st.records.insert(id, id, now, config.record_ttl_s);
        self.net.record_job_finished(&job.tenant, outcome, run_s);
        true
    }

    // ------------------------------------------------------------------
    // Wire handlers.

    fn handle_submit(&self, _net: &SimNetwork, call: &RpcCall) -> Result<RpcResponse> {
        let values = &call.params;
        let tenant = field(values, "tenant")?;
        let sql = field(values, "sql")?;
        let priority = opt_field(values, "priority")?.unwrap_or(0);
        let class = match opt_field(values, "class")? {
            Some(s) => QuotaClass::parse(s).ok_or_else(|| {
                FederationError::protocol(format!(
                    "unknown quota class {s} (expected free, standard, or premium)"
                ))
            })?,
            None => QuotaClass::default(),
        };
        let client_ref = opt_field(values, "client_ref")?;
        let (id, duplicate) = self.submit(tenant, sql, priority, class, client_ref)?;
        Ok(RpcResponse::new("SubmitQuery")
            .result("job", SoapValue::Int(id as i64))
            .result("duplicate", SoapValue::Bool(duplicate)))
    }

    fn handle_poll(&self, call: &RpcCall) -> Result<RpcResponse> {
        let id = field(&call.params, "job")?;
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
        let id = field(&call.params, "job")?;
        let cancelled = self.cancel(id)?;
        Ok(RpcResponse::new("CancelJob").result("cancelled", SoapValue::Bool(cancelled)))
    }

    /// Delivers a succeeded job's result, inline when it fits the
    /// federation's message limit, otherwise paginated: the reply carries
    /// a chunk manifest and the rows stream through `FetchChunk`
    /// continuations exactly like an oversized partial set on the daisy
    /// chain. Fetching renews the result lease (and each chunk the job's
    /// leases), so delivery is idempotent until the TTL finally lapses.
    fn handle_fetch_results(&self, net: &SimNetwork, call: &RpcCall) -> Result<Reply> {
        let id = field(&call.params, "job")?;
        let config = self.config();
        let max_bytes = self.portal.config().max_message_bytes;
        let now = net.now_s();
        let mut st = lock(&self.state);
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
        if !st.renew_result(id, now) {
            return Err(FederationError::lease_expired("result", id, &self.host));
        }
        let table = st
            .results
            .get(id)
            .expect("renewed above")
            .to_votable("result");
        let resp = RpcResponse::new("FetchResults")
            .result("result", SoapValue::Table(table))
            .result("degraded", SoapValue::Bool(degraded))
            .result("dropped", SoapValue::Str(dropped));
        let ttl_s = config.result_ttl_s;
        self.transfers.reply(net, resp, max_bytes, true, id, ttl_s)
    }

    fn handle_call(&self, net: &SimNetwork, mut call: RpcCall) -> Result<Reply> {
        // Janitor first, like a SkyNode: every request is an opportunity
        // to reclaim leases that lapsed while the service sat idle.
        self.sweep_leases();
        skyquery_core::service::dispatch(SERVICES, self, net, &mut call)
    }
}

impl Endpoint for JobService {
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        skyquery_core::service::serve(&req, |call| self.handle_call(net, call))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use skyquery_core::ResultColumn;
    use skyquery_sim::{paper_query, FederationBuilder};
    use skyquery_storage::{DataType, Value};

    #[test]
    fn jobs_with_one_answer_hold_one_copy_of_it() {
        let fed = FederationBuilder::paper_triple(200).build();
        let svc = JobService::start(
            &fed.net,
            "jobs.example.org",
            fed.portal.clone(),
            JobServiceConfig::default(),
        );
        let ids: Vec<u64> = (0..20)
            .map(|i| {
                let tenant = format!("tenant-{}", i % 4);
                let class = QuotaClass::default();
                svc.submit(&tenant, &paper_query(), 0, class, None)
                    .unwrap()
                    .0
            })
            .collect();
        svc.run_until_idle(10_000);
        let st = lock(&svc.state);
        let held: Vec<&Arc<ResultSet>> = ids
            .iter()
            .map(|id| st.results.get(*id).expect("every job's result is held"))
            .collect();
        assert!(held[0].row_count() > 0);
        assert!(held.iter().all(|rs| Arc::ptr_eq(rs, held[0])));
        assert_eq!(Arc::strong_count(held[0]), 20);
        assert_eq!(st.answers.len(), 1);
    }

    #[test]
    fn a_frozen_trace_reads_back_every_event() {
        let mut trace = ExecutionTrace::new();
        trace.push("Client", "submit", "query: SELECT O.object_id FROM …");
        trace.push("Portal", "", "");
        trace.push("ÆRCHIVE", "cross match step", "tuples in 3, tuples out 2");
        let want: Vec<_> = trace
            .events()
            .iter()
            .map(|e| (e.actor.clone(), e.action.clone(), e.detail.clone()))
            .collect();
        let frozen = FrozenTrace::new(&trace);
        let bytes: usize = want
            .iter()
            .map(|(a, b, c)| a.len() + b.len() + c.len())
            .sum();
        assert_eq!((frozen.text.len(), frozen.ends.len()), (bytes, 9));
        assert_eq!(frozen.events(), want);
        assert!(FrozenTrace::new(&ExecutionTrace::new()).events().is_empty());
    }

    /// A failed job and a job cancelled while queued or mid-walk end
    /// holding only their traces, which read back what they recorded.
    #[test]
    fn failed_and_cancelled_jobs_keep_only_their_traces() {
        use skyquery_core::{ChainMode, FederationConfig};

        let fed = FederationBuilder::paper_triple(200).build();
        fed.portal.set_config(FederationConfig {
            chain_mode: ChainMode::Checkpointed,
            ..fed.portal.config()
        });
        let config = JobServiceConfig::default();
        let svc = JobService::start(&fed.net, "jobs.example.org", fed.portal.clone(), config);
        let class = QuotaClass::default();
        let sql = paper_query();
        let failed = svc.submit("a", "not a query", 0, class, None).unwrap().0;
        let walking = svc.submit("b", &sql, 0, class, None).unwrap().0;
        let queued = svc.submit("c", &sql, 0, class, None).unwrap().0;
        assert!(svc.cancel(queued).unwrap());
        // Admit both and plan the walk; the bad query fails in its first.
        svc.pump();
        svc.pump();
        svc.pump();
        assert_eq!(svc.poll(walking).unwrap().state, JobState::Running);
        assert!(svc.cancel(walking).unwrap());

        let actions = |id| -> Vec<String> {
            svc.job_trace(id)
                .unwrap()
                .into_iter()
                .map(|e| e.1)
                .collect()
        };
        assert_eq!(actions(failed), ["queued", "admitted", "finished"]);
        let (actor, _, detail) = svc.job_trace(failed).unwrap().pop().unwrap();
        assert_eq!(actor, "JobService");
        assert!(detail.starts_with("failed: "), "{detail}");
        assert_eq!(
            svc.job_trace(queued).unwrap(),
            [
                (
                    "JobService".to_string(),
                    "queued".to_string(),
                    format!("tenant c (standard, priority 0): {sql}"),
                ),
                (
                    "JobService".to_string(),
                    "cancelled".to_string(),
                    "owner cancelled the job".to_string(),
                ),
            ]
        );
        let walked = actions(walking);
        assert_eq!(walked[..3], ["queued", "admitted", "decompose"]);
        assert_eq!(walked.last().unwrap(), "cancelled");
        let st = lock(&svc.state);
        for id in [failed, walking, queued] {
            assert!(matches!(st.jobs[&id].run, Run::Ended(_)), "job {id}");
        }
    }

    #[test]
    fn only_the_same_answer_is_shared() {
        let mut complete = ResultSet::new(vec![ResultColumn::new("O.flux", DataType::Float)]);
        complete.push_row(vec![Value::Float(0.0)]).unwrap();
        let mut degraded = complete.clone();
        degraded.degraded = true;
        degraded.dropped_archives = vec!["FIRST".into()];
        let mut negative = complete.clone();
        negative.rows[0][0] = Value::Float(-0.0);
        // `==` holds all three equal; none may stand for another.
        assert!(complete == degraded && complete == negative);

        let mut answers = Vec::new();
        let a = share(&mut answers, complete.clone());
        let b = share(&mut answers, degraded.clone());
        let c = share(&mut answers, negative);
        assert!(b.degraded && !a.degraded);
        assert!(!Arc::ptr_eq(&a, &b) && !Arc::ptr_eq(&a, &c) && !Arc::ptr_eq(&b, &c));
        assert!(Arc::ptr_eq(&a, &share(&mut answers, complete.clone())));
        assert!(Arc::ptr_eq(&b, &share(&mut answers, degraded)));
        assert_eq!(answers.len(), 3);

        // An answer no job holds any longer is not kept for the next.
        drop((a, b, c));
        share(&mut answers, complete);
        assert_eq!(answers.len(), 1);
    }
}
