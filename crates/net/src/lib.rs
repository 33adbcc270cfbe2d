#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! # skyquery-net — the simulated Internet
//!
//! The real SkyQuery federated geographically separate archives over the
//! Internet; its cost model is dominated by **transmission costs** of
//! partial results moving between SkyNodes (paper §5.3). This crate is the
//! substitution for that substrate (see DESIGN.md §4): an in-process
//! network of named hosts exchanging HTTP/1.1 messages, with
//!
//! * exact **byte accounting** per directed link, each message charged
//!   its HTTP/1.1 framed size (the quantity the count-star ordering
//!   minimizes),
//! * a configurable **latency/bandwidth model** accumulating simulated
//!   wall-clock time,
//! * a UDDI-flavoured **service registry** for discovery (§3.1).
//!
//! Dispatch is synchronous: `send` looks up the destination endpoint and
//! invokes its handler, which may itself `send` onward (the daisy chain of
//! §5.3). All accounting is thread-safe; the Portal issues performance
//! queries from worker threads.

mod fault;
mod http;
mod metrics;
mod registry;
mod sim;
mod sync;
mod url;

pub use fault::{FaultKind, FaultPlan, FaultRule};
pub use http::{Body, HttpRequest, HttpResponse, Method, StatusCode};
pub use metrics::{
    ChunkFlowStats, CostModel, LinkStats, NetworkMetrics, RetryStats, TenantJobStats,
};
pub use registry::{ServiceRecord, ServiceRegistry};
pub use sim::{Endpoint, SimNetwork};
pub use sync::{lock, read, write};
pub use url::Url;

/// Errors from the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No endpoint is bound to the destination host.
    HostUnreachable {
        /// The unreachable host name.
        host: String,
    },
    /// A URL failed to parse.
    BadUrl {
        /// The offending URL text.
        url: String,
        /// Why it failed.
        detail: String,
    },
    /// A message body could not be decoded.
    BadFrame {
        /// Why decoding failed.
        detail: String,
    },
    /// The destination endpoint panicked or refused the message.
    EndpointFailure {
        /// The failing host.
        host: String,
        /// What it reported.
        detail: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::HostUnreachable { host } => write!(f, "host unreachable: {host}"),
            NetError::BadUrl { url, detail } => write!(f, "bad URL {url}: {detail}"),
            NetError::BadFrame { detail } => write!(f, "bad HTTP frame: {detail}"),
            NetError::EndpointFailure { host, detail } => {
                write!(f, "endpoint {host} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, NetError>;
