//! The job client: a thin SOAP facade over the job service for web
//! front-ends and the REPL. Submit, poll, cancel, and fetch — fetch
//! transparently reassembles chunk-paginated results, so callers see one
//! [`ResultSet`] whether the service answered inline or with a manifest.

use skyquery_core::error::{FederationError, Result};
use skyquery_core::result::ResultSet;
use skyquery_core::{open_chunk_stream, send_rpc_with, RetryPolicy};
use skyquery_net::{SimNetwork, Url};
use skyquery_soap::{ChunkManifest, RpcCall, RpcResponse, SoapValue};

use crate::job::{JobState, JobStatus, QuotaClass};

/// A tenant-side client of the job service.
pub struct JobClient {
    net: SimNetwork,
    host: String,
    service: Url,
    retry: RetryPolicy,
}

impl JobClient {
    /// A client named `host` (for transmission accounting) talking to the
    /// job service at `service`, with no retries.
    pub fn new(net: &SimNetwork, host: impl Into<String>, service: Url) -> JobClient {
        JobClient {
            net: net.clone(),
            host: host.into(),
            service,
            retry: RetryPolicy::none(),
        }
    }

    /// Sets the retry policy used on every wire call. Note that a
    /// [`FederationError::JobRejected`] refusal is a deterministic client
    /// fault the policy never retries.
    pub fn with_retry(mut self, retry: RetryPolicy) -> JobClient {
        self.retry = retry;
        self
    }

    fn call(&self, call: &RpcCall) -> Result<RpcResponse> {
        send_rpc_with(&self.net, &self.host, &self.service, call, self.retry)
    }

    /// Submits a query under `tenant` with default priority and class.
    /// Returns the job id.
    pub fn submit(&self, tenant: &str, sql: &str) -> Result<u64> {
        self.submit_with(tenant, sql, 0, QuotaClass::default(), None)
            .map(|(id, _)| id)
    }

    /// Submits a query with explicit priority, quota class, and optional
    /// idempotency reference. Returns `(job id, duplicate)` — `duplicate`
    /// is `true` when the service already held a job for the same
    /// `(tenant, client_ref)` pair and no new job was queued.
    pub fn submit_with(
        &self,
        tenant: &str,
        sql: &str,
        priority: i64,
        class: QuotaClass,
        client_ref: Option<&str>,
    ) -> Result<(u64, bool)> {
        let mut call = RpcCall::new("SubmitQuery")
            .param("tenant", SoapValue::Str(tenant.to_string()))
            .param("sql", SoapValue::Str(sql.to_string()))
            .param("priority", SoapValue::Int(priority))
            .param("class", SoapValue::Str(class.as_str().to_string()));
        if let Some(r) = client_ref {
            call = call.param("client_ref", SoapValue::Str(r.to_string()));
        }
        let resp = self.call(&call)?;
        let id = require_u64(&resp, "job")?;
        let duplicate = matches!(resp.get("duplicate"), Some(SoapValue::Bool(true)));
        Ok((id, duplicate))
    }

    /// Polls a job's life-cycle state.
    pub fn poll(&self, job: u64) -> Result<JobStatus> {
        let resp = self.call(&RpcCall::new("PollJob").param("job", SoapValue::Int(job as i64)))?;
        let state_str = require_str(&resp, "state")?;
        let state = JobState::parse(&state_str)
            .ok_or_else(|| FederationError::protocol(format!("unknown job state {state_str}")))?;
        Ok(JobStatus {
            id: job,
            tenant: require_str(&resp, "tenant")?,
            state,
            result_rows: resp
                .get("rows")
                .and_then(|v| v.as_i64())
                .map(|v| v as usize),
            degraded: resp
                .get("degraded")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
            dropped_archives: decode_dropped(&resp),
            error: resp.get("error").and_then(|v| v.as_str()).map(String::from),
            wait_s: require_f64(&resp, "wait_s")?,
            run_s: require_f64(&resp, "run_s")?,
        })
    }

    /// Cancels a job. `true` when the cancellation transitioned the job;
    /// `false` when it was already terminal (its held resources are still
    /// freed).
    pub fn cancel(&self, job: u64) -> Result<bool> {
        let resp =
            self.call(&RpcCall::new("CancelJob").param("job", SoapValue::Int(job as i64)))?;
        Ok(matches!(resp.get("cancelled"), Some(SoapValue::Bool(true))))
    }

    /// Fetches a succeeded job's result set. An oversized result arrives
    /// as a chunk manifest; the client streams the `FetchChunk`
    /// continuations and reassembles the table before decoding, so the
    /// caller cannot tell the difference.
    pub fn fetch(&self, job: u64) -> Result<ResultSet> {
        let resp =
            self.call(&RpcCall::new("FetchResults").param("job", SoapValue::Int(job as i64)))?;
        // The degradation header rides the first reply on both delivery
        // shapes; stamp it onto whatever result set we decode.
        let degraded = resp
            .get("degraded")
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        let dropped = decode_dropped(&resp);
        let stamp = |mut rs: ResultSet| {
            rs.degraded = degraded;
            rs.dropped_archives = dropped.clone();
            rs
        };
        if let Some(v) = resp.get("result") {
            let table = v
                .as_table()
                .ok_or_else(|| FederationError::protocol("result must be a table"))?;
            return ResultSet::from_votable(table).map(stamp);
        }
        let manifest = match resp.get("manifest") {
            Some(SoapValue::Xml(e)) => ChunkManifest::from_element(e)?,
            _ => {
                return Err(FederationError::protocol(
                    "FetchResults answered neither result nor manifest",
                ))
            }
        };
        let table = open_chunk_stream(&self.net, &self.host, &self.service, manifest, self.retry)
            .collect_table()?;
        ResultSet::from_votable(&table).map(stamp)
    }
}

/// Decodes the comma-joined `dropped` response field; absent or empty
/// means nothing was dropped.
fn decode_dropped(resp: &RpcResponse) -> Vec<String> {
    match resp.get("dropped") {
        Some(SoapValue::Str(s)) if !s.is_empty() => s.split(',').map(str::to_string).collect(),
        _ => Vec::new(),
    }
}

fn require_str(resp: &RpcResponse, name: &str) -> Result<String> {
    Ok(resp
        .require(name)?
        .as_str()
        .ok_or_else(|| FederationError::protocol(format!("{name} must be a string")))?
        .to_string())
}

fn require_u64(resp: &RpcResponse, name: &str) -> Result<u64> {
    resp.require(name)?
        .as_i64()
        .filter(|v| *v >= 0)
        .map(|v| v as u64)
        .ok_or_else(|| FederationError::protocol(format!("{name} must be a non-negative integer")))
}

fn require_f64(resp: &RpcResponse, name: &str) -> Result<f64> {
    match resp.require(name)? {
        SoapValue::Float(v) => Ok(*v),
        SoapValue::Int(v) => Ok(*v as f64),
        _ => Err(FederationError::protocol(format!(
            "{name} must be a number"
        ))),
    }
}
