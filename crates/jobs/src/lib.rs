//! Multi-tenant asynchronous job service for the SkyQuery federation.
//!
//! The paper's Portal answers queries synchronously: a client submits SQL
//! and blocks while the daisy chain runs. Real federated cross-matches
//! run far too long for that — the production SkyQuery grew a batch
//! system where web clients *submit* a query, *poll* its state, and
//! *fetch* the finished VOTable later. This crate is that system for the
//! simulation:
//!
//! - [`JobService`] fronts a [`Portal`](skyquery_core::Portal) with four
//!   SOAP methods — `SubmitQuery`, `PollJob`, `CancelJob`,
//!   `FetchResults` — registered in the same
//!   [`ServiceMethod`](skyquery_core::service::ServiceMethod) registry
//!   that drives SkyNode dispatch and WSDL generation.
//! - Admission control refuses work beyond per-tenant and global queue
//!   bounds with a deterministic `JobRejected` client fault (never
//!   retried), and a start-time fair-queuing scheduler
//!   ([`FairScheduler`]) drains the queue into a bounded pool of chain
//!   executions, weighting tenants by [`QuotaClass`].
//! - Running jobs interleave: each job is the Portal's own
//!   [`Submission`](skyquery_core::Submission), and each scheduler
//!   quantum advances one job one quantum
//!   ([`Portal::advance`](skyquery_core::Portal::advance)) — a plan, a
//!   whole recursive chain, or one walk step — so one tenant's long chain
//!   cannot monopolize the Portal.
//! - Finished results, terminal records, and paginated result transfers
//!   all live under [`LeaseTable`](skyquery_core::LeaseTable) TTLs swept
//!   by a janitor; cancellation drops the job's walk and transfers
//!   immediately rather than waiting for the TTL.
//! - [`JobClient`] is the tenant-side facade; it reassembles
//!   chunk-paginated results transparently.

pub mod admission;
pub mod client;
pub mod job;
pub mod service;

pub use admission::{FairScheduler, JobServiceConfig};
pub use client::JobClient;
pub use job::{JobState, JobStatus, QuotaClass};
pub use service::JobService;
