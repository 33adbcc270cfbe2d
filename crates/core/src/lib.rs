#![warn(missing_docs)]
//! # skyquery-core — the SkyQuery federation
//!
//! The paper's primary contribution (§5): a wrapper–mediator federation of
//! autonomous astronomy archives interoperating over SOAP Web services.
//!
//! * [`portal`] — the mediator: Registration and SkyQuery services, the
//!   metadata catalog, query decomposition, count-star performance
//!   queries, and plan construction (§5.1, §5.3);
//! * [`walk`] — portal-driven execution of a plan one step at a time:
//!   the committed set held at the Portal, failover re-planning,
//!   result-cache recording;
//! * [`skynode`] — the wrapper: the Information, Meta-data, Query, and
//!   Cross match services around one archive database (§5.1);
//! * [`xmatch`] — the probabilistic cross-match algorithm and its
//!   distributed, pruning evaluation (§5.4): the stored-procedure steps
//!   every SkyNode runs, one sequential loop over the incoming tuples;
//! * [`plan`] — the federated execution plan that daisy-chains between
//!   SkyNodes (§5.3);
//! * [`baseline`] — the strategies the paper argues against, for the
//!   experiments: pull-everything-to-the-portal and alternative chain
//!   orderings;
//! * [`trace`] — execution traces reproducing Figure 3;
//! * [`client`] — a client-side facade speaking SOAP to the Portal.

pub mod baseline;
pub mod client;
pub mod error;
pub mod exchange;
pub mod lease;
pub mod meta;
pub mod plan;
pub mod portal;
pub mod query_exec;
pub mod region;
pub mod result;
pub mod result_cache;
pub mod retry;
pub mod service;
pub mod shard;
pub mod skynode;
pub mod trace;
pub mod transfer;
pub mod walk;
pub mod xmatch;

pub use client::Client;
pub use error::{FederationError, Result};
pub use exchange::TransferReport;
pub use lease::LeaseTable;
pub use meta::{ArchiveInfo, RegisteredNode, Registration, ZoneExtent};
pub use plan::{ExecutionPlan, PlanShard, PlanStep};
pub use portal::{
    ChainMode, Degradation, FederationConfig, HostHealth, HostState, OrderingStrategy, Portal,
    Submission,
};
pub use region::Region;
pub use result::{ResultColumn, ResultSet};
pub use retry::RetryPolicy;
pub use service::ServiceMethod;
pub use skynode::{SkyNode, SkyNodeBuilder};
pub use trace::{ExecutionTrace, TraceEvent};
pub use transfer::{open_chunk_stream, send_rpc, send_rpc_with, ChunkStream};
pub use walk::CheckpointedWalk;
pub use xmatch::{MatchKernel, PartialSet, PartialTuple, StepConfig, StepStats, TupleState};
