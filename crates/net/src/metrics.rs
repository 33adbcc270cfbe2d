//! Transmission accounting: the quantity SkyQuery's planner minimizes.

use std::collections::{BTreeMap, HashMap};

/// Latency/bandwidth model for simulated transfer time.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed per-message latency in seconds (round trip is two messages).
    pub latency_s: f64,
    /// Link bandwidth in bytes per second.
    pub bytes_per_s: f64,
}

impl CostModel {
    /// A model resembling 2002-era inter-site links: 50 ms latency,
    /// ~1 MB/s throughput.
    pub fn internet_2002() -> CostModel {
        CostModel {
            latency_s: 0.05,
            bytes_per_s: 1_000_000.0,
        }
    }

    /// A zero-cost model (pure byte counting).
    pub fn free() -> CostModel {
        CostModel {
            latency_s: 0.0,
            bytes_per_s: f64::INFINITY,
        }
    }

    /// Simulated seconds to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bytes_per_s
    }
}

/// Counters for one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Messages sent over the link.
    pub messages: u64,
    /// Total framed bytes sent.
    pub bytes: u64,
    /// Simulated seconds spent on this link.
    pub sim_seconds: f64,
}

impl LinkStats {
    fn record(&mut self, bytes: usize, seconds: f64) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.sim_seconds += seconds;
    }
}

/// Counters for the chunked-transfer continuation on one directed link:
/// how much of the link's traffic flowed as `FetchChunk` payload chunks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChunkFlowStats {
    /// Payload chunks served over the link.
    pub chunks: u64,
    /// Reply body bytes across those chunks: each whole `FetchChunk`
    /// reply envelope, as the link carried it.
    pub bytes: u64,
    /// Table rows carried across those chunks.
    pub rows: u64,
}

impl ChunkFlowStats {
    fn record(&mut self, bytes: usize, rows: usize) {
        self.chunks += 1;
        self.bytes += bytes as u64;
        self.rows += rows as u64;
    }
}

/// Retry accounting for one directed link: attempts beyond the first,
/// plus the simulated seconds spent backing off between them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryStats {
    /// Re-sends after a retryable failure (attempt 2 and later).
    pub retries: u64,
    /// Simulated seconds waited in exponential backoff.
    pub backoff_seconds: f64,
}

impl RetryStats {
    fn record(&mut self, backoff_seconds: f64) {
        self.retries += 1;
        self.backoff_seconds += backoff_seconds;
    }
}

/// Per-tenant counters for the asynchronous job service: admission
/// outcomes, simulated queue-wait and run time, and the contention
/// tallies the fairness assertions read (how often the tenant had a
/// backlog while admission slots were being granted, and how many of
/// those grants it won).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantJobStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Submissions refused by the admission controller (quota/queue full).
    pub rejected: u64,
    /// Jobs admitted from the queue into the execution pool.
    pub admitted: u64,
    /// Jobs that finished with a committed result.
    pub succeeded: u64,
    /// Jobs that finished with an error.
    pub failed: u64,
    /// Jobs cancelled by their owner.
    pub cancelled: u64,
    /// Jobs whose leased state was reclaimed by the janitor.
    pub expired: u64,
    /// Simulated seconds spent queued (submission → admission), summed.
    pub wait_seconds: f64,
    /// Simulated seconds spent executing (admission → terminal), summed.
    pub run_seconds: f64,
    /// Admission rounds in which this tenant had queued work while at
    /// least one other tenant did too.
    pub contended_rounds: u64,
    /// Of those contended rounds, how many this tenant won.
    pub admitted_contended: u64,
}

impl TenantJobStats {
    fn absorb(&mut self, other: &TenantJobStats) {
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.admitted += other.admitted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.expired += other.expired;
        self.wait_seconds += other.wait_seconds;
        self.run_seconds += other.run_seconds;
        self.contended_rounds += other.contended_rounds;
        self.admitted_contended += other.admitted_contended;
    }

    /// Jobs that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.succeeded + self.failed + self.cancelled + self.expired
    }

    /// Fraction of contended admission rounds this tenant won (`None`
    /// until it has actually contended).
    pub fn contended_share(&self) -> Option<f64> {
        if self.contended_rounds == 0 {
            None
        } else {
            Some(self.admitted_contended as f64 / self.contended_rounds as f64)
        }
    }
}

/// Aggregated network metrics: per-directed-link and total.
#[derive(Debug, Clone, Default)]
pub struct NetworkMetrics {
    links: HashMap<(String, String), LinkStats>,
    total: LinkStats,
    chunk_flows: HashMap<(String, String), ChunkFlowStats>,
    chunk_total: ChunkFlowStats,
    retries: HashMap<(String, String), RetryStats>,
    retry_total: RetryStats,
    // BTreeMap: fault tallies are read far more often than written and
    // reports want them sorted.
    faults: BTreeMap<(String, String, String), u64>,
    // Survivability events that happen *at* a host rather than on a link:
    // lease grants and expiries, portal replan/resume/degrade decisions. Sorted for deterministic reports.
    node_events: BTreeMap<(String, String), u64>,
    // Job-service accounting keyed by tenant id. Sorted so fairness
    // reports are deterministic.
    jobs: BTreeMap<String, TenantJobStats>,
}

impl NetworkMetrics {
    /// Empty counters.
    pub fn new() -> NetworkMetrics {
        NetworkMetrics::default()
    }

    /// Records one message of `bytes` from `from` to `to`.
    pub fn record(&mut self, from: &str, to: &str, bytes: usize, model: &CostModel) {
        let seconds = model.transfer_time(bytes);
        self.links
            .entry((from.to_string(), to.to_string()))
            .or_default()
            .record(bytes, seconds);
        self.total.record(bytes, seconds);
    }

    /// Records one chunked-transfer payload chunk flowing from `from` to
    /// `to`: `bytes` is the length of the `FetchChunk` reply body the link
    /// carried (the SOAP envelope around the chunk's table), `rows` the
    /// table's rows. The chunk's framed message is already counted by
    /// [`NetworkMetrics::record`]; this tracks the transfer pattern itself
    /// (chunk counts, reply body bytes, rows) so experiments can compare
    /// monolithic and chunked transfers.
    pub fn record_chunk(&mut self, from: &str, to: &str, bytes: usize, rows: usize) {
        self.chunk_flows
            .entry((from.to_string(), to.to_string()))
            .or_default()
            .record(bytes, rows);
        self.chunk_total.record(bytes, rows);
    }

    /// All chunk flows, sorted for deterministic reporting.
    pub fn chunk_flows(&self) -> Vec<((String, String), ChunkFlowStats)> {
        let mut v: Vec<_> = self
            .chunk_flows
            .iter()
            .map(|(k, s)| (k.clone(), *s))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Grand chunk-flow totals.
    pub fn chunk_total(&self) -> ChunkFlowStats {
        self.chunk_total
    }

    /// Records one retry of a call `from → to` after `backoff_seconds`
    /// of simulated exponential backoff.
    pub fn record_retry(&mut self, from: &str, to: &str, backoff_seconds: f64) {
        self.retries
            .entry((from.to_string(), to.to_string()))
            .or_default()
            .record(backoff_seconds);
        self.retry_total.record(backoff_seconds);
    }

    /// Retry stats for one directed link.
    pub fn retry(&self, from: &str, to: &str) -> RetryStats {
        self.retries
            .get(&(from.to_string(), to.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// Grand retry totals.
    pub fn retry_total(&self) -> RetryStats {
        self.retry_total
    }

    /// Tallies one fault event of `kind` observed on the link `from → to`
    /// (an injected network fault, or a recorded recovery action such as
    /// a transfer abort).
    pub fn record_fault(&mut self, from: &str, to: &str, kind: &str) {
        *self
            .faults
            .entry((from.to_string(), to.to_string(), kind.to_string()))
            .or_default() += 1;
    }

    /// Count of one fault kind on one directed link.
    pub fn fault_count(&self, from: &str, to: &str, kind: &str) -> u64 {
        self.faults
            .get(&(from.to_string(), to.to_string(), kind.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// All fault tallies as `((from, to, kind), count)`, sorted.
    pub fn faults(&self) -> Vec<((String, String, String), u64)> {
        self.faults.iter().map(|(k, n)| (k.clone(), *n)).collect()
    }

    /// Total fault events across all links and kinds.
    pub fn fault_total(&self) -> u64 {
        self.faults.values().sum()
    }

    /// Tallies one survivability event of `kind` observed at `host` (a
    /// lease grant or expiry, or a portal replan/resume/degrade
    /// decision).
    pub fn record_node_event(&mut self, host: &str, kind: &str) {
        *self
            .node_events
            .entry((host.to_string(), kind.to_string()))
            .or_default() += 1;
    }

    /// Count of one node-event kind at one host.
    pub fn node_event_count(&self, host: &str, kind: &str) -> u64 {
        self.node_events
            .get(&(host.to_string(), kind.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// Total count of one node-event kind across all hosts.
    pub fn node_event_total(&self, kind: &str) -> u64 {
        self.node_events
            .iter()
            .filter(|((_, k), _)| k == kind)
            .map(|(_, n)| *n)
            .sum()
    }

    /// All node-event tallies as `((host, kind), count)`, sorted.
    pub fn node_events(&self) -> Vec<((String, String), u64)> {
        self.node_events
            .iter()
            .map(|(k, n)| (k.clone(), *n))
            .collect()
    }

    /// Records one job accepted into `tenant`'s queue.
    pub fn record_job_submitted(&mut self, tenant: &str) {
        self.jobs.entry(tenant.to_string()).or_default().submitted += 1;
    }

    /// Records one submission refused by the admission controller.
    pub fn record_job_rejected(&mut self, tenant: &str) {
        self.jobs.entry(tenant.to_string()).or_default().rejected += 1;
    }

    /// Records one job admitted into the execution pool after
    /// `wait_seconds` of simulated queue latency.
    pub fn record_job_admitted(&mut self, tenant: &str, wait_seconds: f64) {
        let s = self.jobs.entry(tenant.to_string()).or_default();
        s.admitted += 1;
        s.wait_seconds += wait_seconds;
    }

    /// Records one job reaching the terminal state `outcome`
    /// (`succeeded`, `failed`, `cancelled`, or `expired`) after
    /// `run_seconds` of simulated execution time.
    pub fn record_job_finished(&mut self, tenant: &str, outcome: &str, run_seconds: f64) {
        let s = self.jobs.entry(tenant.to_string()).or_default();
        match outcome {
            "succeeded" => s.succeeded += 1,
            "failed" => s.failed += 1,
            "cancelled" => s.cancelled += 1,
            _ => s.expired += 1,
        }
        s.run_seconds += run_seconds;
    }

    /// Reclassifies one previously-succeeded job as expired: its result
    /// lease lapsed before the owner fetched it, so the janitor reclaimed
    /// the rows. Keeps [`TenantJobStats::terminal`] single-counted — the
    /// job moves between terminal buckets rather than landing in both.
    pub fn record_job_expired(&mut self, tenant: &str) {
        let s = self.jobs.entry(tenant.to_string()).or_default();
        s.expired += 1;
        s.succeeded = s.succeeded.saturating_sub(1);
    }

    /// Records one contended admission round for `tenant` (it had queued
    /// work while another tenant did too); `won` marks the tenant the
    /// scheduler actually admitted.
    pub fn record_job_contention(&mut self, tenant: &str, won: bool) {
        let s = self.jobs.entry(tenant.to_string()).or_default();
        s.contended_rounds += 1;
        if won {
            s.admitted_contended += 1;
        }
    }

    /// Job counters for one tenant.
    pub fn job_stats(&self, tenant: &str) -> TenantJobStats {
        self.jobs.get(tenant).copied().unwrap_or_default()
    }

    /// Job counters summed across all tenants.
    pub fn job_total(&self) -> TenantJobStats {
        let mut total = TenantJobStats::default();
        for s in self.jobs.values() {
            total.absorb(s);
        }
        total
    }

    /// Adds injected latency (a fault-plan delay, not transfer time) to
    /// the link's and the total simulated clock.
    pub fn record_injected_latency(&mut self, from: &str, to: &str, seconds: f64) {
        self.links
            .entry((from.to_string(), to.to_string()))
            .or_default()
            .sim_seconds += seconds;
        self.total.sim_seconds += seconds;
    }

    /// Stats for one directed link.
    pub fn link(&self, from: &str, to: &str) -> LinkStats {
        self.links
            .get(&(from.to_string(), to.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// All links, sorted for deterministic reporting.
    pub fn links(&self) -> Vec<((String, String), LinkStats)> {
        let mut v: Vec<_> = self.links.iter().map(|(k, s)| (k.clone(), *s)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Grand totals.
    pub fn total(&self) -> LinkStats {
        self.total
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.links.clear();
        self.total = LinkStats::default();
        self.chunk_flows.clear();
        self.chunk_total = ChunkFlowStats::default();
        self.retries.clear();
        self.retry_total = RetryStats::default();
        self.faults.clear();
        self.node_events.clear();
        self.jobs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_model() {
        let m = CostModel {
            latency_s: 0.1,
            bytes_per_s: 1000.0,
        };
        assert!((m.transfer_time(500) - 0.6).abs() < 1e-12);
        assert!((CostModel::free().transfer_time(1 << 30) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn per_link_accounting() {
        let mut m = NetworkMetrics::new();
        let model = CostModel::free();
        m.record("portal", "sdss", 100, &model);
        m.record("portal", "sdss", 50, &model);
        m.record("sdss", "twomass", 10, &model);
        assert_eq!(m.link("portal", "sdss").messages, 2);
        assert_eq!(m.link("portal", "sdss").bytes, 150);
        assert_eq!(m.link("sdss", "twomass").bytes, 10);
        // Directed: reverse link untouched.
        assert_eq!(m.link("sdss", "portal").messages, 0);
        assert_eq!(m.total().bytes, 160);
        assert_eq!(m.total().messages, 3);
    }

    #[test]
    fn chunk_flow_accounting() {
        let mut m = NetworkMetrics::new();
        m.record_chunk("sdss", "first", 100, 3);
        m.record_chunk("sdss", "first", 40, 1);
        m.record_chunk("first", "portal", 10, 1);
        // Directed and sorted: ("first", "portal") before ("sdss", "first").
        let flows = m.chunk_flows();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[1].0, ("sdss".to_string(), "first".to_string()));
        assert_eq!(flows[1].1.chunks, 2);
        assert_eq!(flows[1].1.bytes, 140);
        assert_eq!(flows[1].1.rows, 4);
        assert_eq!(m.chunk_total().chunks, 3);
        m.reset();
        assert_eq!(m.chunk_total(), ChunkFlowStats::default());
        assert!(m.chunk_flows().is_empty());
    }

    #[test]
    fn retry_and_fault_accounting() {
        let mut m = NetworkMetrics::new();
        m.record_retry("portal", "sdss", 0.05);
        m.record_retry("portal", "sdss", 0.10);
        m.record_retry("sdss", "first", 0.05);
        assert_eq!(m.retry("portal", "sdss").retries, 2);
        assert!((m.retry("portal", "sdss").backoff_seconds - 0.15).abs() < 1e-12);
        // Directed: reverse link untouched.
        assert_eq!(m.retry("sdss", "portal"), RetryStats::default());
        assert_eq!(m.retry("sdss", "first").retries, 1);
        assert_eq!(m.retry_total().retries, 3);

        m.record_fault("portal", "sdss", "host-down");
        m.record_fault("portal", "sdss", "host-down");
        m.record_fault("sdss", "first", "garbage-body");
        assert_eq!(m.fault_count("portal", "sdss", "host-down"), 2);
        assert_eq!(m.fault_count("portal", "sdss", "http-500"), 0);
        assert_eq!(m.fault_total(), 3);
        assert_eq!(m.faults().len(), 2);

        m.record_injected_latency("portal", "sdss", 0.5);
        assert!((m.link("portal", "sdss").sim_seconds - 0.5).abs() < 1e-12);
        assert!((m.total().sim_seconds - 0.5).abs() < 1e-12);
        // Injected latency is time, not a message.
        assert_eq!(m.link("portal", "sdss").messages, 0);

        m.reset();
        assert_eq!(m.retry_total(), RetryStats::default());
        assert_eq!(m.fault_total(), 0);
        assert!(m.faults().is_empty());
    }

    #[test]
    fn node_event_accounting() {
        let mut m = NetworkMetrics::new();
        m.record_node_event("sdss", "lease-granted");
        m.record_node_event("sdss", "lease-granted");
        m.record_node_event("sdss", "lease-expired");
        m.record_node_event("twomass", "lease-granted");
        assert_eq!(m.node_event_count("sdss", "lease-granted"), 2);
        assert_eq!(m.node_event_count("sdss", "replan"), 0);
        assert_eq!(m.node_event_total("lease-granted"), 3);
        assert_eq!(m.node_events().len(), 3);
        // Sorted by (host, kind).
        assert_eq!(m.node_events()[0].0 .0, "sdss");
        m.reset();
        assert_eq!(m.node_event_total("lease-granted"), 0);
        assert!(m.node_events().is_empty());
    }

    #[test]
    fn job_accounting() {
        let mut m = NetworkMetrics::new();
        m.record_job_submitted("alice");
        m.record_job_submitted("alice");
        m.record_job_rejected("alice");
        m.record_job_submitted("bob");
        m.record_job_admitted("alice", 2.5);
        m.record_job_admitted("alice", 1.5);
        m.record_job_finished("alice", "succeeded", 3.0);
        m.record_job_finished("alice", "failed", 1.0);
        m.record_job_finished("bob", "cancelled", 0.0);
        m.record_job_contention("alice", true);
        m.record_job_contention("bob", false);
        let a = m.job_stats("alice");
        assert_eq!(a.submitted, 2);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.admitted, 2);
        assert!((a.wait_seconds - 4.0).abs() < 1e-12);
        assert!((a.run_seconds - 4.0).abs() < 1e-12);
        assert_eq!(a.succeeded, 1);
        assert_eq!(a.failed, 1);
        assert_eq!(a.terminal(), 2);
        assert_eq!(a.contended_share(), Some(1.0));
        assert_eq!(m.job_stats("bob").cancelled, 1);
        assert_eq!(m.job_stats("bob").contended_share(), Some(0.0));
        // Unknown tenants read as zero, and have no contended share.
        assert_eq!(m.job_stats("carol"), TenantJobStats::default());
        assert_eq!(m.job_stats("carol").contended_share(), None);
        let total = m.job_total();
        assert_eq!(total.submitted, 3);
        assert_eq!(total.terminal(), 3);
        assert_eq!(total.contended_rounds, 2);
        m.reset();
        assert_eq!(m.job_stats("alice"), TenantJobStats::default());
        assert_eq!(m.job_total(), TenantJobStats::default());
    }

    #[test]
    fn links_sorted_and_reset() {
        let mut m = NetworkMetrics::new();
        let model = CostModel::internet_2002();
        m.record("b", "c", 1, &model);
        m.record("a", "b", 1, &model);
        let links = m.links();
        assert_eq!(links[0].0 .0, "a");
        assert!(m.total().sim_seconds > 0.0);
        m.reset();
        assert_eq!(m.total(), LinkStats::default());
        assert!(m.links().is_empty());
    }
}
