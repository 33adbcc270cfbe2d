//! Job records: states, quota classes, and the status snapshot a
//! `PollJob` answers.

/// The billing/priority class a tenant submits under. Classes weight the
/// fair scheduler: under contention a `Premium` tenant is admitted about
/// four times as often as a `Free` one, but no class can starve another —
/// weighted fair queuing guarantees every backlogged tenant a share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuotaClass {
    /// Weight 1.
    Free,
    /// Weight 2 (the default).
    #[default]
    Standard,
    /// Weight 4.
    Premium,
}

impl QuotaClass {
    /// The scheduler weight: a backlogged tenant's long-run admission
    /// share is proportional to this.
    pub fn weight(self) -> f64 {
        match self {
            QuotaClass::Free => 1.0,
            QuotaClass::Standard => 2.0,
            QuotaClass::Premium => 4.0,
        }
    }

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            QuotaClass::Free => "free",
            QuotaClass::Standard => "standard",
            QuotaClass::Premium => "premium",
        }
    }

    /// Parses a wire name (case-insensitive); unknown names answer `None`.
    pub fn parse(s: &str) -> Option<QuotaClass> {
        match s.to_ascii_lowercase().as_str() {
            "free" => Some(QuotaClass::Free),
            "standard" => Some(QuotaClass::Standard),
            "premium" => Some(QuotaClass::Premium),
            _ => None,
        }
    }
}

/// Where a job is in its life cycle:
/// `Queued → Admitted → Running → {Succeeded, Failed, Cancelled}`, with
/// `Succeeded → Expired` when the result lease lapses before the owner
/// fetches the rows. `Cancelled` is reachable from any non-terminal
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted by admission control, waiting in the tenant queue.
    Queued,
    /// Granted an execution slot by the fair scheduler; the chain has not
    /// started yet.
    Admitted,
    /// The federated chain is in flight (planning, or stepping through
    /// the archives).
    Running,
    /// Finished with a committed result, held under a TTL lease until
    /// fetched.
    Succeeded,
    /// Finished with an error (recorded in the status snapshot).
    Failed,
    /// Cancelled by its owner; its walk and any open transfer sessions
    /// were released immediately.
    Cancelled,
    /// Succeeded, but the result lease lapsed unfetched and the janitor
    /// reclaimed the rows.
    Expired,
}

impl JobState {
    /// Whether the job will never change state again (except the
    /// `Succeeded → Expired` lease decay).
    pub fn is_terminal(self) -> bool {
        !matches!(
            self,
            JobState::Queued | JobState::Admitted | JobState::Running
        )
    }

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Admitted => "admitted",
            JobState::Running => "running",
            JobState::Succeeded => "succeeded",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
        }
    }

    /// Parses a wire name; unknown names answer `None`.
    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "admitted" => Some(JobState::Admitted),
            "running" => Some(JobState::Running),
            "succeeded" => Some(JobState::Succeeded),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            "expired" => Some(JobState::Expired),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The status snapshot a `PollJob` answers.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// The owning tenant.
    pub tenant: String,
    /// Current life-cycle state.
    pub state: JobState,
    /// Matched rows, once the job succeeded.
    pub result_rows: Option<usize>,
    /// Partial-result honesty: `true` when the job succeeded around one
    /// or more unreachable archives/shards and the rows are therefore a
    /// degraded (complete-minus-dropped-filters) answer.
    pub degraded: bool,
    /// What a degraded job dropped (archive names, or `archive@host`
    /// for shards lost mid-scatter). Empty unless `degraded`.
    pub dropped_archives: Vec<String>,
    /// The failure message, once the job failed.
    pub error: Option<String>,
    /// Simulated seconds spent queued (submission → admission); grows
    /// while still queued.
    pub wait_s: f64,
    /// Simulated seconds spent executing (admission → terminal); grows
    /// while still running, `0` while queued.
    pub run_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_classes_round_trip_and_order_weights() {
        for c in [QuotaClass::Free, QuotaClass::Standard, QuotaClass::Premium] {
            assert_eq!(QuotaClass::parse(c.as_str()), Some(c));
        }
        assert_eq!(QuotaClass::parse("PREMIUM"), Some(QuotaClass::Premium));
        assert_eq!(QuotaClass::parse("gold"), None);
        assert!(QuotaClass::Free.weight() < QuotaClass::Standard.weight());
        assert!(QuotaClass::Standard.weight() < QuotaClass::Premium.weight());
    }

    #[test]
    fn terminal_states() {
        for s in [JobState::Queued, JobState::Admitted, JobState::Running] {
            assert!(!s.is_terminal());
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        for s in [
            JobState::Succeeded,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Expired,
        ] {
            assert!(s.is_terminal());
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
        assert_eq!(JobState::parse("paused"), None);
    }
}
