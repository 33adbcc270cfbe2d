//! The simulated network: endpoint registry and synchronous dispatch.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use crate::fault::{FaultInjector, FaultOutcome, FaultPlan, Interception};
use crate::http::{HttpRequest, HttpResponse, StatusCode};
use crate::metrics::{CostModel, NetworkMetrics};
use crate::sync::{lock, read, write};
use crate::url::Url;
use crate::NetError;

/// A network endpoint: something bound to a host that answers HTTP
/// requests. Handlers receive the network so they can make onward calls
/// (the SkyNode daisy chain).
pub trait Endpoint: Send + Sync {
    /// Answers one request; may call onward through `net`.
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse;
}

impl<F> Endpoint for F
where
    F: Fn(&SimNetwork, HttpRequest) -> HttpResponse + Send + Sync,
{
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        self(net, req)
    }
}

/// The in-process Internet. Cloneable handle (`Arc` inside); all clones
/// share hosts and metrics.
#[derive(Clone)]
pub struct SimNetwork {
    inner: Arc<Inner>,
}

struct Inner {
    hosts: RwLock<HashMap<String, Arc<dyn Endpoint>>>,
    metrics: Mutex<NetworkMetrics>,
    model: CostModel,
    faults: Mutex<Option<FaultInjector>>,
}

impl SimNetwork {
    /// A network with pure byte counting (no simulated latency).
    pub fn new() -> SimNetwork {
        SimNetwork::with_model(CostModel::free())
    }

    /// A network with a latency/bandwidth model.
    pub fn with_model(model: CostModel) -> SimNetwork {
        SimNetwork {
            inner: Arc::new(Inner {
                hosts: RwLock::new(HashMap::new()),
                metrics: Mutex::new(NetworkMetrics::new()),
                model,
                faults: Mutex::new(None),
            }),
        }
    }

    /// Binds an endpoint to a host name, replacing any previous binding.
    pub fn bind(&self, host: impl Into<String>, endpoint: Arc<dyn Endpoint>) {
        write(&self.inner.hosts).insert(host.into(), endpoint);
    }

    /// Removes a host (simulating an archive going offline).
    pub fn unbind(&self, host: &str) {
        write(&self.inner.hosts).remove(host);
    }

    /// Sends a request from `from` to the URL's host, recording request
    /// and response bytes on the two directed links. The endpoint runs
    /// synchronously on the caller's thread. An installed
    /// [`FaultPlan`] is consulted first and may fail the connection,
    /// short-circuit with a 500, delay the request, or corrupt the
    /// response on the way back — every injection is tallied in
    /// [`NetworkMetrics`].
    pub fn send(&self, from: &str, url: &Url, req: HttpRequest) -> Result<HttpResponse, NetError> {
        let verdict = self.intercept(from, &url.host, &req);
        if verdict.outcome == Some(FaultOutcome::HostDown) {
            return Err(NetError::HostUnreachable {
                host: url.host.clone(),
            });
        }
        let endpoint = read(&self.inner.hosts)
            .get(&url.host)
            .cloned()
            .ok_or_else(|| NetError::HostUnreachable {
                host: url.host.clone(),
            })?;
        lock(&self.inner.metrics).record(from, &url.host, req.wire_len(), &self.inner.model);
        let resp = match verdict.outcome {
            // The service behind the front door is broken: the request is
            // consumed but a bare (non-SOAP) 500 comes back.
            Some(FaultOutcome::ServerError) => HttpResponse {
                status: StatusCode::InternalServerError,
                headers: vec![("Content-Type".into(), "text/plain".into())],
                body: b"injected server error".into(),
            },
            _ => {
                let mut resp = endpoint.handle(self, req);
                match verdict.outcome {
                    Some(FaultOutcome::TruncateBody) => {
                        resp.body = resp.body[..resp.body.len() / 2].to_vec().into();
                    }
                    Some(FaultOutcome::GarbageBody) => {
                        resp.body = (&[0xFF, 0xFE, 0x00, 0xDE, 0xAD, 0xBE]).into();
                    }
                    _ => {}
                }
                resp
            }
        };
        lock(&self.inner.metrics).record(&url.host, from, resp.wire_len(), &self.inner.model);
        Ok(resp)
    }

    /// Runs the fault injector (if any) over one outgoing request,
    /// tallying fired rules and injected latency into the metrics.
    fn intercept(&self, from: &str, to_host: &str, req: &HttpRequest) -> Interception {
        let (verdict, fired) = match lock(&self.inner.faults).as_mut() {
            Some(injector) => injector.intercept(to_host, req),
            None => return Interception::default(),
        };
        if !fired.is_empty() || verdict.latency_s > 0.0 {
            let mut m = lock(&self.inner.metrics);
            for label in fired {
                m.record_fault(from, to_host, label);
            }
            if verdict.latency_s > 0.0 {
                m.record_injected_latency(from, to_host, verdict.latency_s);
            }
        }
        verdict
    }

    /// Installs a fault plan, replacing any previous one. An empty plan
    /// clears injection entirely.
    pub fn install_faults(&self, plan: FaultPlan) {
        *lock(&self.inner.faults) = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(plan))
        };
    }

    /// Removes any installed fault plan (a healthy network again).
    pub fn clear_faults(&self) {
        *lock(&self.inner.faults) = None;
    }

    /// Whether a fault plan with live rules is installed.
    pub fn has_faults(&self) -> bool {
        lock(&self.inner.faults)
            .as_ref()
            .is_some_and(|inj| inj.is_live())
    }

    /// Records one retry of a call `from → to` after `backoff_seconds`
    /// of simulated backoff (see [`NetworkMetrics::record_retry`]).
    /// Called by the retry layer above; the simulated clock advances by
    /// the backoff instead of sleeping.
    pub fn record_retry(&self, from: &str, to: &str, backoff_seconds: f64) {
        let mut m = lock(&self.inner.metrics);
        m.record_retry(from, to, backoff_seconds);
        m.record_injected_latency(from, to, backoff_seconds);
    }

    /// Tallies a fault event observed by a higher layer (e.g. a
    /// best-effort transfer abort) alongside the injected-fault counts.
    pub fn record_fault(&self, from: &str, to: &str, kind: &str) {
        lock(&self.inner.metrics).record_fault(from, to, kind);
    }

    /// Records one chunked-transfer payload chunk flowing `from → to`:
    /// its `FetchChunk` reply body bytes and its rows (see
    /// [`NetworkMetrics::record_chunk`]). Called by the transfer layer as
    /// it pulls `FetchChunk` continuations.
    pub fn record_chunk(&self, from: &str, to: &str, bytes: usize, rows: usize) {
        lock(&self.inner.metrics).record_chunk(from, to, bytes, rows);
    }

    /// Tallies a survivability event at `host` (lease grant or expiry,
    /// portal replan/resume/degrade) — see
    /// [`NetworkMetrics::record_node_event`].
    pub fn record_node_event(&self, host: &str, kind: &str) {
        lock(&self.inner.metrics).record_node_event(host, kind);
    }

    /// Records one job accepted into `tenant`'s queue — see
    /// [`NetworkMetrics::record_job_submitted`].
    pub fn record_job_submitted(&self, tenant: &str) {
        lock(&self.inner.metrics).record_job_submitted(tenant);
    }

    /// Records one submission refused by the admission controller — see
    /// [`NetworkMetrics::record_job_rejected`].
    pub fn record_job_rejected(&self, tenant: &str) {
        lock(&self.inner.metrics).record_job_rejected(tenant);
    }

    /// Records one job admitted into the execution pool after
    /// `wait_seconds` of simulated queue latency — see
    /// [`NetworkMetrics::record_job_admitted`].
    pub fn record_job_admitted(&self, tenant: &str, wait_seconds: f64) {
        lock(&self.inner.metrics).record_job_admitted(tenant, wait_seconds);
    }

    /// Records one job reaching a terminal state — see
    /// [`NetworkMetrics::record_job_finished`].
    pub fn record_job_finished(&self, tenant: &str, outcome: &str, run_seconds: f64) {
        lock(&self.inner.metrics).record_job_finished(tenant, outcome, run_seconds);
    }

    /// Reclassifies one succeeded job as expired — see
    /// [`NetworkMetrics::record_job_expired`].
    pub fn record_job_expired(&self, tenant: &str) {
        lock(&self.inner.metrics).record_job_expired(tenant);
    }

    /// Records one contended admission round for `tenant` — see
    /// [`NetworkMetrics::record_job_contention`].
    pub fn record_job_contention(&self, tenant: &str, won: bool) {
        lock(&self.inner.metrics).record_job_contention(tenant, won);
    }

    /// The current simulated time in seconds: the total simulated seconds
    /// accumulated across all links (transfer time, injected latency, and
    /// retry backoff). Leases are charged against this clock.
    pub fn now_s(&self) -> f64 {
        lock(&self.inner.metrics).total().sim_seconds
    }

    /// Advances the simulated clock by `seconds` without moving any
    /// bytes (experiments and tests use this to age leases past their
    /// TTL). Accounted as injected latency on a synthetic `clock` link.
    pub fn advance_clock(&self, seconds: f64) {
        lock(&self.inner.metrics).record_injected_latency("clock", "clock", seconds);
    }

    /// The recovery totals so far — retries, backoff seconds and fault
    /// events — read under the lock without copying the metrics.
    pub fn recovery_total(&self) -> (u64, f64, u64) {
        let m = lock(&self.inner.metrics);
        let retry = m.retry_total();
        (retry.retries, retry.backoff_seconds, m.fault_total())
    }

    /// Snapshot of the accumulated metrics.
    pub fn metrics(&self) -> NetworkMetrics {
        lock(&self.inner.metrics).clone()
    }

    /// Clears accumulated metrics (start of a measured experiment).
    pub fn reset_metrics(&self) {
        lock(&self.inner.metrics).reset();
    }
}

impl Default for SimNetwork {
    fn default() -> Self {
        SimNetwork::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::StatusCode;

    fn echo() -> Arc<dyn Endpoint> {
        Arc::new(|_net: &SimNetwork, req: HttpRequest| HttpResponse::ok(req.body))
    }

    #[test]
    fn bind_and_send() {
        let net = SimNetwork::new();
        net.bind("sdss", echo());
        let resp = net
            .send(
                "portal",
                &Url::parse("http://sdss/soap").unwrap(),
                HttpRequest::soap_post("/soap", "Query", "hello"),
            )
            .unwrap();
        assert_eq!(resp.status, StatusCode::Ok);
        assert_eq!(&resp.body[..], b"hello");
        let m = net.metrics();
        assert_eq!(m.link("portal", "sdss").messages, 1);
        assert_eq!(m.link("sdss", "portal").messages, 1);
        assert!(m.link("portal", "sdss").bytes > 5);
    }

    #[test]
    fn unreachable_host() {
        let net = SimNetwork::new();
        let err = net.send(
            "portal",
            &Url::parse("http://nowhere/x").unwrap(),
            HttpRequest::soap_post("/x", "a", ""),
        );
        assert!(matches!(err, Err(NetError::HostUnreachable { .. })));
    }

    #[test]
    fn unbind_takes_host_offline() {
        let net = SimNetwork::new();
        net.bind("n", echo());
        net.unbind("n");
        assert!(net
            .send(
                "c",
                &Url::parse("http://n/").unwrap(),
                HttpRequest::soap_post("/", "a", "")
            )
            .is_err());
    }

    #[test]
    fn chained_calls_are_accounted() {
        // a → b → c, handlers forward through the network.
        let net = SimNetwork::new();
        net.bind("c", echo());
        let forward = Arc::new(|net: &SimNetwork, req: HttpRequest| {
            let resp = net
                .send("b", &Url::parse("http://c/").unwrap(), req)
                .unwrap();
            HttpResponse::ok(resp.body)
        });
        net.bind("b", forward);
        let resp = net
            .send(
                "a",
                &Url::parse("http://b/").unwrap(),
                HttpRequest::soap_post("/", "x", "payload"),
            )
            .unwrap();
        assert_eq!(&resp.body[..], b"payload");
        let m = net.metrics();
        assert_eq!(m.link("a", "b").messages, 1);
        assert_eq!(m.link("b", "c").messages, 1);
        assert_eq!(m.link("c", "b").messages, 1);
        assert_eq!(m.link("b", "a").messages, 1);
        assert_eq!(m.total().messages, 4);
    }

    #[test]
    fn latency_model_accumulates_time() {
        let net = SimNetwork::with_model(CostModel {
            latency_s: 1.0,
            bytes_per_s: f64::INFINITY,
        });
        net.bind("n", echo());
        net.send(
            "c",
            &Url::parse("http://n/").unwrap(),
            HttpRequest::soap_post("/", "a", ""),
        )
        .unwrap();
        // Round trip = 2 messages = 2 simulated seconds.
        assert!((net.metrics().total().sim_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn host_down_fault_fails_bound_host_then_recovers() {
        let net = SimNetwork::new();
        net.bind("n", echo());
        net.install_faults(FaultPlan::new().host_down_for("n", 2));
        let url = Url::parse("http://n/").unwrap();
        for _ in 0..2 {
            let err = net.send("c", &url, HttpRequest::soap_post("/", "a", "x"));
            assert!(matches!(err, Err(NetError::HostUnreachable { .. })));
        }
        let resp = net
            .send("c", &url, HttpRequest::soap_post("/", "a", "x"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::Ok);
        let m = net.metrics();
        assert_eq!(m.fault_count("c", "n", "host-down"), 2);
        // Failed connections move no bytes: only the surviving round trip.
        assert_eq!(m.link("c", "n").messages, 1);
        assert!(!net.has_faults());
    }

    #[test]
    fn server_error_fault_short_circuits_endpoint() {
        let net = SimNetwork::new();
        net.bind("n", echo());
        net.install_faults(FaultPlan::new().server_errors("n", 1));
        let url = Url::parse("http://n/").unwrap();
        let resp = net
            .send("c", &url, HttpRequest::soap_post("/", "a", "x"))
            .unwrap();
        assert_eq!(resp.status, StatusCode::InternalServerError);
        assert_eq!(resp.header("Content-Type"), Some("text/plain"));
        assert_eq!(&resp.body[..], b"injected server error");
        let framed = "HTTP/1.1 500 Internal Server Error\r\n\
                      Content-Type: text/plain\r\n\
                      Content-Length: 21\r\n\r\ninjected server error";
        assert_eq!(net.metrics().link("n", "c").bytes, framed.len() as u64);
        assert_eq!(net.metrics().fault_count("c", "n", "http-500"), 1);
        // The request is consumed and the 500 comes back: a round trip.
        assert_eq!(net.metrics().total().messages, 2);
    }

    #[test]
    fn body_corruption_faults() {
        let net = SimNetwork::new();
        net.bind("n", echo());
        let url = Url::parse("http://n/").unwrap();
        net.install_faults(FaultPlan::new().truncated_bodies("n", 1));
        let resp = net
            .send("c", &url, HttpRequest::soap_post("/", "a", "0123456789"))
            .unwrap();
        assert_eq!(&resp.body[..], b"01234");
        net.install_faults(FaultPlan::new().garbage_bodies("n", 1));
        let resp = net
            .send("c", &url, HttpRequest::soap_post("/", "a", "0123456789"))
            .unwrap();
        assert!(std::str::from_utf8(&resp.body).is_err());
        let m = net.metrics();
        assert_eq!(m.fault_count("c", "n", "truncated-body"), 1);
        assert_eq!(m.fault_count("c", "n", "garbage-body"), 1);
    }

    #[test]
    fn injected_latency_and_retry_accounting() {
        let net = SimNetwork::new();
        net.bind("n", echo());
        net.install_faults(FaultPlan::new().added_latency("n", 0.5));
        net.send(
            "c",
            &Url::parse("http://n/").unwrap(),
            HttpRequest::soap_post("/", "a", ""),
        )
        .unwrap();
        assert!((net.metrics().link("c", "n").sim_seconds - 0.5).abs() < 1e-12);
        net.record_retry("c", "n", 0.05);
        let m = net.metrics();
        assert_eq!(m.retry("c", "n").retries, 1);
        assert!((m.retry("c", "n").backoff_seconds - 0.05).abs() < 1e-12);
        // Backoff advances the simulated clock too.
        assert!((m.link("c", "n").sim_seconds - 0.55).abs() < 1e-12);
        net.clear_faults();
        assert!(!net.has_faults());
    }

    #[test]
    fn clones_share_state() {
        let net = SimNetwork::new();
        let net2 = net.clone();
        net.bind("n", echo());
        net2.send(
            "c",
            &Url::parse("http://n/").unwrap(),
            HttpRequest::soap_post("/", "a", ""),
        )
        .unwrap();
        assert_eq!(net.metrics().total().messages, 2);
        net.reset_metrics();
        assert_eq!(net2.metrics().total().messages, 0);
    }
}
