//! Federation-level errors, and the one reader of wire fields.
//!
//! Every participant in the federation is built from this tree and speaks
//! one wire version, so a reader requires every field its writer always
//! writes. [`attr`] reads such an element attribute, [`field`] such a call
//! parameter or reply result; [`opt_attr`] and [`opt_field`] read the few
//! a writer omits by design. A present value that does not parse is
//! refused, never read as a default.

use std::str::FromStr;

use skyquery_net::NetError;
use skyquery_soap::{SoapError, SoapFault, SoapValue};
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
    /// A leased resource (transfer session, staged exchange transaction,
    /// job record) is unknown at the node — never created,
    /// already released, or reclaimed by the janitor after its TTL
    /// lapsed. Deterministic: the resource will not come back, so the
    /// caller must restart the work that created it rather than retry.
    LeaseExpired {
        /// The resource kind (`transfer`, `txn`, `job`).
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

    /// Renders this error as the SOAP fault a service returns. An
    /// exhausted retry budget names its host and attempts in the fault's
    /// detail, so a caller upstream of a daisy-chain hop decodes it back
    /// into [`FederationError::NodeUnhealthy`] naming the downstream
    /// host; one decoded from a hop further down is passed on as it came.
    pub fn to_fault(&self) -> SoapFault {
        match self {
            FederationError::Fault(f) => f.clone(),
            FederationError::NodeUnhealthy {
                host,
                attempts,
                cause,
            } => match &**cause {
                FederationError::Fault(f) if f.detail.starts_with(UNHEALTHY) => f.clone(),
                _ => SoapFault::server(self.to_string())
                    .with_detail(format!("{UNHEALTHY} {attempts} {host}")),
            },
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

/// Refuses a wire element that is not a `name`.
pub fn expect_element(e: &Element, name: &str) -> Result<()> {
    if e.name == name {
        return Ok(());
    }
    Err(FederationError::protocol(format!(
        "expected {name} element, found {}",
        e.name
    )))
}

/// The attribute `name` of wire element `e`, which its writer always
/// writes, as `parse` reads and checks it: a [`FederationError::Protocol`]
/// naming element and attribute when it is absent or `parse` refuses it.
pub fn attr<'a, T>(
    e: &'a Element,
    name: &str,
    parse: impl FnOnce(&'a str) -> Option<T>,
) -> Result<T> {
    opt_attr(e, name, parse)?
        .ok_or_else(|| FederationError::protocol(format!("{} missing attribute {name}", e.name)))
}

/// The attribute `name` of wire element `e`, which its writer omits by
/// design: `None` when it is absent, else as [`attr`] reads it — a
/// garbled value never reads as absent.
pub fn opt_attr<'a, T>(
    e: &'a Element,
    name: &str,
    parse: impl FnOnce(&'a str) -> Option<T>,
) -> Result<Option<T>> {
    let Some(raw) = e.attr(name) else {
        return Ok(None);
    };
    parse(raw).map(Some).ok_or_else(|| {
        FederationError::protocol(format!("{} has malformed {name} {raw:?}", e.name))
    })
}

/// A parse function for [`attr`] and [`opt_attr`]: `raw` as a `T`.
pub fn parsed<T: FromStr>(raw: &str) -> Option<T> {
    raw.parse().ok()
}

/// A parse function for [`attr`] and [`opt_attr`]: `raw` as a `T` that
/// `valid` accepts.
pub fn checked<T: FromStr>(valid: impl Fn(&T) -> bool) -> impl Fn(&str) -> Option<T> {
    move |raw| raw.parse().ok().filter(|v| valid(v))
}

/// A type a call's parameter or a reply's result is read as by [`field`]
/// and [`opt_field`].
pub trait FieldValue<'a>: Sized {
    /// What a value of this type must be, as a refusal says it.
    const MUST_BE: &'static str;
    /// The value `v` holds, or `None` when it holds none of this type.
    fn read(v: &'a SoapValue) -> Option<Self>;
}

impl<'a> FieldValue<'a> for &'a str {
    const MUST_BE: &'static str = "a string";
    fn read(v: &'a SoapValue) -> Option<Self> {
        v.as_str()
    }
}

impl<'a> FieldValue<'a> for &'a Element {
    const MUST_BE: &'static str = "xml";
    fn read(v: &'a SoapValue) -> Option<Self> {
        v.as_xml()
    }
}

impl FieldValue<'_> for bool {
    const MUST_BE: &'static str = "a boolean";
    fn read(v: &SoapValue) -> Option<Self> {
        v.as_bool()
    }
}

impl FieldValue<'_> for i64 {
    const MUST_BE: &'static str = "an integer";
    fn read(v: &SoapValue) -> Option<Self> {
        v.as_i64()
    }
}

impl FieldValue<'_> for u64 {
    const MUST_BE: &'static str = "a non-negative integer";
    fn read(v: &SoapValue) -> Option<Self> {
        v.as_i64()?.try_into().ok()
    }
}

impl FieldValue<'_> for usize {
    const MUST_BE: &'static str = "a non-negative integer";
    fn read(v: &SoapValue) -> Option<Self> {
        v.as_i64()?.try_into().ok()
    }
}

/// Every number the federation's replies carry is a duration in seconds.
impl FieldValue<'_> for f64 {
    const MUST_BE: &'static str = "a non-negative number";
    fn read(v: &SoapValue) -> Option<Self> {
        v.as_f64().filter(|v| v.is_finite() && *v >= 0.0)
    }
}

/// The value `name` of `values` — a call's parameters or a reply's
/// results — which its writer always sends: the SOAP protocol error a
/// missing parameter is when it is absent, and a
/// [`FederationError::Protocol`] naming it when it is not a `T`.
pub fn field<'a, T: FieldValue<'a>>(values: &'a [(String, SoapValue)], name: &str) -> Result<T> {
    opt_field(values, name)?.ok_or_else(|| {
        FederationError::Soap(SoapError::Protocol {
            detail: format!("missing {name}"),
        })
    })
}

/// The value `name` of `values`, which its writer omits by design: `None`
/// when it is absent, else as [`field`] reads it.
pub fn opt_field<'a, T: FieldValue<'a>>(
    values: &'a [(String, SoapValue)],
    name: &str,
) -> Result<Option<T>> {
    let Some((_, v)) = values.iter().find(|(n, _)| n == name) else {
        return Ok(None);
    };
    T::read(v)
        .map(Some)
        .ok_or_else(|| FederationError::protocol(format!("{name} must be {}", T::MUST_BE)))
}

/// The archives a comma-joined `dropped` result names.
pub fn decode_dropped(dropped: &str) -> Vec<String> {
    if dropped.is_empty() {
        return Vec::new();
    }
    dropped.split(',').map(str::to_string).collect()
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

/// The fault detail of an exhausted retry budget:
/// `node-unhealthy <attempts> <host>`.
const UNHEALTHY: &str = "node-unhealthy";

/// A fault whose detail names an unhealthy node decodes into
/// [`FederationError::NodeUnhealthy`] naming it, with the fault as its
/// cause, so the caller's health book strikes that host; a garbled one
/// is a [`FederationError::Protocol`]. Any other fault stays a fault.
impl From<SoapFault> for FederationError {
    fn from(f: SoapFault) -> Self {
        let Some(named) = f.detail.strip_prefix(UNHEALTHY) else {
            return FederationError::Fault(f);
        };
        let parsed = named.strip_prefix(' ').and_then(|named| {
            let (attempts, host) = named.split_once(' ')?;
            Some((attempts.parse().ok()?, host.to_string()))
        });
        match parsed {
            Some((attempts, host)) if !host.is_empty() => FederationError::NodeUnhealthy {
                host,
                attempts,
                cause: Box::new(FederationError::Fault(f)),
            },
            _ => FederationError::protocol(format!(
                "fault detail {:?} names no unhealthy node",
                f.detail
            )),
        }
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
    fn an_exhausted_budget_crosses_a_hop_as_itself() {
        let e = FederationError::NodeUnhealthy {
            host: "twomass.skyquery.net".into(),
            attempts: 3,
            cause: Box::new(FederationError::Net(NetError::HostUnreachable {
                host: "twomass.skyquery.net".into(),
            })),
        };
        let fault = e.to_fault();
        assert_eq!(fault.code, "Server");
        assert_eq!(fault.detail, "node-unhealthy 3 twomass.skyquery.net");
        let decoded = FederationError::from(fault.clone());
        match &decoded {
            FederationError::NodeUnhealthy {
                host,
                attempts: 3,
                cause,
            } => {
                assert_eq!(host, "twomass.skyquery.net");
                assert_eq!(**cause, FederationError::Fault(fault.clone()));
            }
            other => panic!("decoded to {other}"),
        }
        // The next hop up passes the same fault on.
        assert_eq!(decoded.to_fault(), fault);
    }

    #[test]
    fn malformed_wire_unhealthy_fault_details_are_refused() {
        for detail in [
            "node-unhealthy",
            "node-unhealthy 3",
            "node-unhealthy three twomass",
            "node-unhealthy 3 ",
            "node-unhealthy-3 twomass",
        ] {
            let fault = SoapFault::server("x").with_detail(detail);
            assert!(
                matches!(
                    FederationError::from(fault),
                    FederationError::Protocol { .. }
                ),
                "{detail:?}"
            );
        }
        let plain = SoapFault::server("x").with_detail("host sdss unreachable");
        assert!(matches!(
            FederationError::from(plain),
            FederationError::Fault(_)
        ));
    }

    #[test]
    fn conversions() {
        let _: FederationError = SqlError::semantic("x").into();
        let _: FederationError = NetError::HostUnreachable { host: "h".into() }.into();
        let _: FederationError = SoapFault::server("s").into();
    }
}
