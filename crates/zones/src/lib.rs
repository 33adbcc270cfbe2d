#![warn(missing_docs)]
//! # skyquery-zones — zone-partitioned parallel cross-match
//!
//! The paper's federated cross-match runs each archive's step as a single
//! sequential loop over the incoming partial tuples (§5.4). This crate
//! parallelizes that loop without changing a single output bit: the sky is
//! sliced into fixed-height declination **zones** (Gray et al.'s zoned
//! spatial-join scheme), tuples are bucketed into the zone of their
//! maximum-likelihood position, each zone's bucket of archive rows is
//! padded by the zone's largest pruning radius, and a scoped worker pool
//! runs the shared step kernels over the zones concurrently. A
//! deterministic merge then reassembles the outputs in incoming-tuple
//! order, so the parallel engine is byte-identical to the sequential one —
//! same tuples, same order, same `chi2_min`, same statistics.
//!
//! * [`zonemap`] — the declination slicing;
//! * [`mod@partition`] — tuple bucketing and padded archive bands;
//! * [`engine`] — the [`ZoneEngine`] step routine and worker pool
//!   implementing `skyquery_core::engine::CrossMatchEngine`;
//! * [`merge`] — deterministic reassembly and per-zone reports.
//!
//! The engine is driven by two `FederationConfig` knobs that flow through
//! the execution plan to every step: `xmatch_workers` (1 ⇒ delegate to the
//! sequential kernels) and `zone_height_deg`.

pub mod engine;
pub mod merge;
pub mod partition;
pub mod zonemap;

pub use engine::ZoneEngine;
pub use merge::{merge_match, zone_reports, TupleOutcome, ZoneReport};
pub use partition::{partition, sorted_declinations, TupleProbe, ZonePlan, ZoneTask};
pub use zonemap::ZoneMap;
