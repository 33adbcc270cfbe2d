//! Federation-level errors.

use std::str::FromStr;

use skyquery_net::NetError;
use skyquery_soap::{RpcResponse, SoapError, SoapFault, SoapValue};
use skyquery_sql::SqlError;
use skyquery_storage::StorageError;
use skyquery_xml::Element;

/// Errors surfaced by the Portal, SkyNodes, and the execution chain.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// A dialect parse/eval/semantic failure.
    Sql(SqlError),
    /// An archive-engine failure.
    Storage(StorageError),
    /// A transport failure (host unreachable, bad framing).
    Net(NetError),
    /// A SOAP encoding/decoding failure.
    Soap(SoapError),
    /// A SOAP fault returned by a remote service.
    Fault(SoapFault),
    /// Planner/portal-level problems (unregistered archive, empty plan…).
    Planning {
        /// What the planner could not do.
        detail: String,
    },
    /// A plan or partial-result payload failed validation at a SkyNode.
    Protocol {
        /// The violated expectation.
        detail: String,
    },
    /// A non-2xx HTTP response that did not carry a well-formed SOAP
    /// fault (a crashed worker, a proxy error page).
    Http {
        /// The numeric status code.
        status: u16,
        /// The host that answered.
        host: String,
    },
    /// A host kept failing retryably until the retry budget ran out; the
    /// caller should treat the node as unhealthy and degrade, not panic.
    NodeUnhealthy {
        /// The failing host.
        host: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The final attempt's failure.
        cause: Box<FederationError>,
    },
    /// A leased node-side resource (checkpoint, transfer session, staged
    /// exchange transaction) is unknown at the node — never created,
    /// already released, or reclaimed by the janitor after its TTL
    /// lapsed. Deterministic: the resource will not come back, so the
    /// caller must restart the work that created it rather than retry.
    LeaseExpired {
        /// The resource kind (`checkpoint`, `transfer`, `txn`).
        kind: String,
        /// The id the caller presented.
        id: u64,
        /// The node that no longer holds it.
        host: String,
    },
    /// The job service refused a submission: the tenant's queued-job
    /// quota, its concurrent-chain quota, or the global queue bound is
    /// exhausted. Deterministic from the caller's point of view — the
    /// same submission against the same queue state is refused every
    /// time — so it maps to a *client* SOAP fault and must never burn a
    /// retry budget; the client should back off and resubmit later (or
    /// drain its own queue first).
    JobRejected {
        /// The tenant whose submission was refused.
        tenant: String,
        /// Which limit was hit.
        reason: String,
    },
    /// A two-phase-commit commit failed *and* the follow-up abort also
    /// failed, so the participant may hold an orphaned staging table.
    AbortFailed {
        /// The transaction left undecided at the participant.
        txn: u64,
        /// The participant host.
        host: String,
        /// Why the commit failed.
        commit: Box<FederationError>,
        /// Why the abort failed.
        abort: Box<FederationError>,
    },
}

impl FederationError {
    /// Shorthand constructor for [`FederationError::Planning`].
    pub fn planning(detail: impl Into<String>) -> FederationError {
        FederationError::Planning {
            detail: detail.into(),
        }
    }

    /// Shorthand constructor for [`FederationError::Protocol`].
    pub fn protocol(detail: impl Into<String>) -> FederationError {
        FederationError::Protocol {
            detail: detail.into(),
        }
    }

    /// Shorthand constructor for [`FederationError::LeaseExpired`].
    pub fn lease_expired(kind: &str, id: u64, host: &str) -> FederationError {
        FederationError::LeaseExpired {
            kind: kind.into(),
            id,
            host: host.into(),
        }
    }

    /// Renders this error as the SOAP fault a service returns.
    pub fn to_fault(&self) -> SoapFault {
        match self {
            FederationError::Fault(f) => f.clone(),
            FederationError::Sql(e) => SoapFault::client(e.to_string()),
            FederationError::Protocol { detail } => SoapFault::client(detail.clone()),
            // The caller presented a stale id: its fault, deterministically.
            e @ FederationError::LeaseExpired { .. } => SoapFault::client(e.to_string()),
            // An admission-control refusal is the caller's problem too:
            // retrying the identical submission cannot succeed.
            e @ FederationError::JobRejected { .. } => SoapFault::client(e.to_string()),
            other => SoapFault::server(other.to_string()),
        }
    }

    /// Whether re-sending the failed call could plausibly succeed.
    ///
    /// Retryable failures are *transport-level*: the message may not have
    /// reached the service, or the reply was damaged on the way back
    /// (unreachable host, corrupt frame, endpoint crash, 5xx without a
    /// SOAP fault, undecodable response body). Everything a remote
    /// service *decided* — a well-formed SOAP fault, an SQL or storage
    /// error, a protocol violation, a 4xx — is deterministic and fatal;
    /// retrying would just repeat it. `MessageTooLarge` is the one SOAP
    /// error that is deterministic (the payload will be oversized every
    /// time), so it is fatal too.
    pub fn is_retryable(&self) -> bool {
        match self {
            FederationError::Net(e) => !matches!(e, NetError::BadUrl { .. }),
            FederationError::Http { status, .. } => *status >= 500,
            FederationError::Soap(e) => !matches!(e, SoapError::MessageTooLarge { .. }),
            FederationError::NodeUnhealthy { .. } => false,
            FederationError::Sql(_)
            | FederationError::Storage(_)
            | FederationError::Fault(_)
            | FederationError::Planning { .. }
            | FederationError::Protocol { .. }
            | FederationError::LeaseExpired { .. }
            | FederationError::JobRejected { .. }
            | FederationError::AbortFailed { .. } => false,
        }
    }
}

/// Decodes the optional attribute `name` of a wire element: `None` when
/// it is absent (an older peer), its value when it parses and `valid`
/// accepts it, and a [`FederationError::Protocol`] naming it when it is
/// present but malformed — a garbled value never reads as the default.
pub fn opt_attr<T: FromStr>(
    e: &Element,
    name: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Option<T>> {
    let Some(raw) = e.attr(name) else {
        return Ok(None);
    };
    match raw.parse() {
        Ok(v) if valid(&v) => Ok(Some(v)),
        _ => Err(FederationError::protocol(format!(
            "{} has malformed {name} {raw:?}",
            e.name
        ))),
    }
}

/// [`opt_attr`] for a result of an RPC reply: `None` when absent, the
/// value when `view` accepts it, and a [`FederationError::Protocol`]
/// naming it when it is present but malformed.
pub fn opt_result<T>(
    resp: &RpcResponse,
    name: &str,
    view: impl Fn(&SoapValue) -> Option<T>,
) -> Result<Option<T>> {
    resp.get(name)
        .map(|v| {
            view(v).ok_or_else(|| FederationError::protocol(format!("malformed {name} {v:?}")))
        })
        .transpose()
}

impl From<SqlError> for FederationError {
    fn from(e: SqlError) -> Self {
        FederationError::Sql(e)
    }
}
impl From<StorageError> for FederationError {
    fn from(e: StorageError) -> Self {
        FederationError::Storage(e)
    }
}
impl From<NetError> for FederationError {
    fn from(e: NetError) -> Self {
        FederationError::Net(e)
    }
}
impl From<SoapError> for FederationError {
    fn from(e: SoapError) -> Self {
        FederationError::Soap(e)
    }
}
impl From<SoapFault> for FederationError {
    fn from(f: SoapFault) -> Self {
        FederationError::Fault(f)
    }
}
impl From<skyquery_xml::XmlError> for FederationError {
    fn from(e: skyquery_xml::XmlError) -> Self {
        FederationError::Soap(SoapError::Xml(e))
    }
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::Sql(e) => write!(f, "{e}"),
            FederationError::Storage(e) => write!(f, "{e}"),
            FederationError::Net(e) => write!(f, "{e}"),
            FederationError::Soap(e) => write!(f, "{e}"),
            FederationError::Fault(fault) => write!(f, "{fault}"),
            FederationError::Planning { detail } => write!(f, "planning error: {detail}"),
            FederationError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            FederationError::Http { status, host } => {
                write!(f, "HTTP {status} from {host} (no SOAP fault in body)")
            }
            FederationError::NodeUnhealthy {
                host,
                attempts,
                cause,
            } => write!(
                f,
                "node {host} unhealthy after {attempts} attempts: {cause}"
            ),
            FederationError::LeaseExpired { kind, id, host } => {
                write!(
                    f,
                    "{kind} {id} is not leased at {host} (expired or released)"
                )
            }
            FederationError::JobRejected { tenant, reason } => {
                write!(f, "job submission for tenant {tenant} rejected: {reason}")
            }
            FederationError::AbortFailed {
                txn,
                host,
                commit,
                abort,
            } => write!(
                f,
                "transaction {txn} left undecided at {host}: commit failed ({commit}); \
                 abort also failed ({abort})"
            ),
        }
    }
}

impl std::error::Error for FederationError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, FederationError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_rendering() {
        let e = FederationError::planning("no archives registered");
        let f = e.to_fault();
        assert_eq!(f.code, "Server");
        assert!(f.message.contains("no archives registered"));

        let sql = FederationError::Sql(SqlError::semantic("bad query"));
        assert_eq!(sql.to_fault().code, "Client");

        let passthrough = FederationError::Fault(SoapFault::client("x"));
        assert_eq!(passthrough.to_fault(), SoapFault::client("x"));

        // A stale lease is the caller's (deterministic) problem.
        let lease = FederationError::LeaseExpired {
            kind: "checkpoint".into(),
            id: 9,
            host: "sdss".into(),
        };
        assert_eq!(lease.to_fault().code, "Client");
        assert!(!lease.is_retryable());
        assert!(lease.to_string().contains("checkpoint 9"));

        // An admission refusal is a deterministic client fault too: the
        // retry layer must never spend budget re-sending it.
        let rejected = FederationError::JobRejected {
            tenant: "alice".into(),
            reason: "queue full (16 jobs queued)".into(),
        };
        assert_eq!(rejected.to_fault().code, "Client");
        assert!(!rejected.is_retryable());
        assert!(rejected.to_string().contains("alice"));
        assert!(rejected.to_string().contains("queue full"));
    }

    #[test]
    fn retryable_taxonomy() {
        // Transport-level failures: the call may never have executed.
        assert!(
            FederationError::Net(NetError::HostUnreachable { host: "h".into() }).is_retryable()
        );
        assert!(FederationError::Net(NetError::BadFrame { detail: "x".into() }).is_retryable());
        assert!(FederationError::Http {
            status: 500,
            host: "h".into()
        }
        .is_retryable());
        assert!(FederationError::Soap(SoapError::Protocol { detail: "x".into() }).is_retryable());
        // Deterministic outcomes: retrying would repeat them.
        assert!(!FederationError::Net(NetError::BadUrl {
            url: "u".into(),
            detail: "d".into()
        })
        .is_retryable());
        assert!(!FederationError::Http {
            status: 404,
            host: "h".into()
        }
        .is_retryable());
        assert!(
            !FederationError::Soap(SoapError::MessageTooLarge { size: 9, limit: 1 }).is_retryable()
        );
        assert!(!FederationError::Fault(SoapFault::server("boom")).is_retryable());
        assert!(!FederationError::Sql(SqlError::semantic("x")).is_retryable());
        assert!(!FederationError::protocol("x").is_retryable());
        // Exhausted budgets don't restart budgets.
        assert!(!FederationError::NodeUnhealthy {
            host: "h".into(),
            attempts: 3,
            cause: Box::new(FederationError::Net(NetError::HostUnreachable {
                host: "h".into()
            })),
        }
        .is_retryable());
    }

    #[test]
    fn unhealthy_display_includes_cause() {
        let e = FederationError::NodeUnhealthy {
            host: "first.org".into(),
            attempts: 3,
            cause: Box::new(FederationError::protocol("missing results")),
        };
        let text = e.to_string();
        assert!(text.contains("first.org"));
        assert!(text.contains("3 attempts"));
        assert!(text.contains("missing results"));
    }

    #[test]
    fn conversions() {
        let _: FederationError = SqlError::semantic("x").into();
        let _: FederationError = NetError::HostUnreachable { host: "h".into() }.into();
        let _: FederationError = SoapFault::server("s").into();
    }
}
