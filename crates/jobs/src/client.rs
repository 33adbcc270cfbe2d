//! The job client: a thin SOAP facade over the job service for web
//! front-ends and the REPL. Submit, poll, cancel, and fetch — fetch
//! transparently reassembles chunk-paginated results, so callers see one
//! [`ResultSet`] whether the service answered inline or with a manifest.

use skyquery_core::error::{decode_dropped, field, opt_field, FederationError, Result};
use skyquery_core::result::ResultSet;
use skyquery_core::service::take_table;
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
        Ok((
            field(&resp.results, "job")?,
            field(&resp.results, "duplicate")?,
        ))
    }

    /// Polls a job's life-cycle state.
    pub fn poll(&self, job: u64) -> Result<JobStatus> {
        let resp = self.call(&RpcCall::new("PollJob").param("job", SoapValue::Int(job as i64)))?;
        let values = &resp.results;
        let state = field(values, "state")?;
        let state = JobState::parse(state)
            .ok_or_else(|| FederationError::protocol(format!("unknown job state {state}")))?;
        // A job that is not degraded answers neither flag nor list, and
        // one with no rows or no error neither of those.
        Ok(JobStatus {
            id: job,
            tenant: field::<&str>(values, "tenant")?.into(),
            state,
            result_rows: opt_field(values, "rows")?,
            degraded: opt_field(values, "degraded")?.unwrap_or(false),
            dropped_archives: opt_field(values, "dropped")?
                .map(decode_dropped)
                .unwrap_or_default(),
            error: opt_field::<&str>(values, "error")?.map(String::from),
            wait_s: field(values, "wait_s")?,
            run_s: field(values, "run_s")?,
        })
    }

    /// Cancels a job. `true` when the cancellation transitioned the job;
    /// `false` when it was already terminal (its held resources are still
    /// freed).
    pub fn cancel(&self, job: u64) -> Result<bool> {
        let resp =
            self.call(&RpcCall::new("CancelJob").param("job", SoapValue::Int(job as i64)))?;
        field(&resp.results, "cancelled")
    }

    /// Fetches a succeeded job's result set. An oversized result arrives
    /// as a chunk manifest; the client streams the `FetchChunk`
    /// continuations and reassembles the table before decoding, so the
    /// caller cannot tell the difference.
    pub fn fetch(&self, job: u64) -> Result<ResultSet> {
        let mut resp =
            self.call(&RpcCall::new("FetchResults").param("job", SoapValue::Int(job as i64)))?;
        // The degradation header rides the first reply on both delivery
        // shapes; stamp it onto whatever result set we decode.
        let degraded = field(&resp.results, "degraded")?;
        let dropped = decode_dropped(field(&resp.results, "dropped")?);
        let stamp = |mut rs: ResultSet| {
            rs.degraded = degraded;
            rs.dropped_archives = dropped.clone();
            rs
        };
        if let Some(manifest) = opt_field(&resp.results, "manifest")? {
            let manifest = ChunkManifest::from_element(manifest)?;
            let table =
                open_chunk_stream(&self.net, &self.host, &self.service, manifest, self.retry)
                    .collect_table()?;
            return ResultSet::from_votable(table).map(stamp);
        }
        ResultSet::from_votable(take_table(&mut resp.results, "result")?).map(stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use skyquery_net::{HttpRequest, HttpResponse};

    /// A client of a job service that answers every call with `reply`.
    fn client_answered_by(reply: RpcResponse) -> JobClient {
        let net = SimNetwork::new();
        let body = reply.to_xml();
        net.bind(
            "jobs.example.org",
            Arc::new(move |_: &SimNetwork, _: HttpRequest| HttpResponse::ok(body.clone())),
        );
        JobClient::new(
            &net,
            "tenant.example.org",
            Url::new("jobs.example.org", "/soap"),
        )
    }

    fn poll_reply() -> RpcResponse {
        RpcResponse::new("PollJob")
            .result("state", SoapValue::Str("succeeded".into()))
            .result("tenant", SoapValue::Str("t".into()))
            .result("wait_s", SoapValue::Float(0.0))
            .result("run_s", SoapValue::Float(0.1))
    }

    fn fetch_reply() -> RpcResponse {
        let rs = ResultSet::new(vec![]);
        RpcResponse::new("FetchResults")
            .result("result", SoapValue::Table(rs.to_votable("result")))
            .result("degraded", SoapValue::Bool(false))
            .result("dropped", SoapValue::Str(String::new()))
    }

    /// `reply` with its result `name` set to `value`.
    fn set(mut reply: RpcResponse, name: &str, value: SoapValue) -> RpcResponse {
        reply.results.retain(|(n, _)| n != name);
        reply.result(name, value)
    }

    fn is_protocol<T: std::fmt::Debug>(r: Result<T>) -> bool {
        matches!(r, Err(FederationError::Protocol { .. }))
    }

    #[test]
    fn malformed_wire_poll_fields_are_refused() {
        // Absent: complete, and no row count yet.
        let status = client_answered_by(poll_reply()).poll(1).unwrap();
        assert!(!status.degraded);
        assert_eq!(status.result_rows, None);
        let ok = poll_reply()
            .result("rows", SoapValue::Int(7))
            .result("degraded", SoapValue::Bool(true));
        let status = client_answered_by(ok).poll(1).unwrap();
        assert_eq!((status.result_rows, status.degraded), (Some(7), true));
        // A garbled flag is not a complete answer, and a negative row
        // count does not wrap into a huge one.
        for garbled in [
            poll_reply().result("degraded", SoapValue::Str("yes".into())),
            poll_reply().result("degraded", SoapValue::Int(1)),
            poll_reply().result("rows", SoapValue::Int(-1)),
            poll_reply().result("rows", SoapValue::Str("7".into())),
        ] {
            assert!(is_protocol(client_answered_by(garbled).poll(1)));
        }
    }

    /// Every other field a job reply carries: a garbled flag, error,
    /// dropped list or duration is refused rather than guessed at.
    #[test]
    fn malformed_wire_job_replies_are_refused() {
        let submit_reply = |duplicate| {
            RpcResponse::new("SubmitQuery")
                .result("job", SoapValue::Int(3))
                .result("duplicate", duplicate)
        };
        let submit =
            |reply| client_answered_by(reply).submit_with("t", "q", 0, QuotaClass::Free, None);
        assert_eq!(
            submit(submit_reply(SoapValue::Bool(false))).unwrap(),
            (3, false)
        );
        assert_eq!(
            submit(submit_reply(SoapValue::Bool(true))).unwrap(),
            (3, true)
        );
        assert!(is_protocol(submit(submit_reply(SoapValue::Str(
            "yes".into()
        )))));

        let cancel = |reply| client_answered_by(reply).cancel(3);
        let cancelled = RpcResponse::new("CancelJob").result("cancelled", SoapValue::Bool(true));
        assert!(cancel(cancelled).unwrap());
        let garbled = RpcResponse::new("CancelJob").result("cancelled", SoapValue::Int(1));
        assert!(is_protocol(cancel(garbled)));

        let failed = poll_reply()
            .result("degraded", SoapValue::Bool(true))
            .result("dropped", SoapValue::Str("FIRST,TWOMASS".into()))
            .result("error", SoapValue::Str("boom".into()));
        let status = client_answered_by(failed).poll(1).unwrap();
        assert_eq!(status.dropped_archives, ["FIRST", "TWOMASS"]);
        assert_eq!(status.error.as_deref(), Some("boom"));
        for garbled in [
            poll_reply().result("error", SoapValue::Int(5)),
            poll_reply()
                .result("degraded", SoapValue::Bool(true))
                .result("dropped", SoapValue::Int(5)),
        ] {
            assert!(is_protocol(client_answered_by(garbled).poll(1)));
        }
        for (name, bad) in [
            ("wait_s", f64::NAN),
            ("run_s", -4.0),
            ("run_s", f64::INFINITY),
        ] {
            let mut reply = RpcResponse::new("PollJob")
                .result("state", SoapValue::Str("succeeded".into()))
                .result("tenant", SoapValue::Str("t".into()));
            for field in ["wait_s", "run_s"] {
                let v = if field == name { bad } else { 0.0 };
                reply = reply.result(field, SoapValue::Float(v));
            }
            assert!(
                is_protocol(client_answered_by(reply).poll(1)),
                "{name} {bad}"
            );
        }
    }

    #[test]
    fn malformed_wire_fetch_degraded_flag_is_refused() {
        assert!(!client_answered_by(fetch_reply()).fetch(1).unwrap().degraded);
        let degraded = set(fetch_reply(), "degraded", SoapValue::Bool(true));
        assert!(client_answered_by(degraded).fetch(1).unwrap().degraded);
        let garbled = set(fetch_reply(), "degraded", SoapValue::Str("yes".into()));
        assert!(is_protocol(client_answered_by(garbled).fetch(1)));
    }

    /// Refuses `reply` without its result `name` at `call`, naming it.
    fn assert_refused_without<T: std::fmt::Debug>(
        mut reply: RpcResponse,
        name: &str,
        call: impl FnOnce(&JobClient) -> Result<T>,
    ) {
        reply.results.retain(|(n, _)| n != name);
        let method = reply.method.clone();
        match call(&client_answered_by(reply)) {
            Err(FederationError::Soap(e)) => assert!(e.to_string().contains(name), "{e}"),
            other => panic!("{method} without {name} decoded to {other:?}"),
        }
    }

    #[test]
    fn malformed_wire_submit_reply_without_duplicate_is_refused() {
        let reply = RpcResponse::new("SubmitQuery")
            .result("job", SoapValue::Int(3))
            .result("duplicate", SoapValue::Bool(false));
        assert_refused_without(reply, "duplicate", |c| c.submit("t", "q"));
    }

    #[test]
    fn malformed_wire_cancel_reply_without_cancelled_is_refused() {
        let reply = RpcResponse::new("CancelJob").result("cancelled", SoapValue::Bool(false));
        assert_refused_without(reply, "cancelled", |c| c.cancel(3));
    }

    #[test]
    fn malformed_wire_fetch_reply_without_degraded_is_refused() {
        assert_refused_without(fetch_reply(), "degraded", |c| c.fetch(1));
    }

    #[test]
    fn malformed_wire_fetch_reply_without_dropped_is_refused() {
        assert_refused_without(fetch_reply(), "dropped", |c| c.fetch(1));
    }
}
