//! Pluggable cross-match execution engines.
//!
//! The stored-procedure kernels in [`crate::xmatch`] define *what* a
//! cross-match step computes; an engine decides *how* the work is driven —
//! the paper's sequential per-tuple loop, or a partitioned parallel
//! schedule such as the zone engine in the `skyquery-zones` crate. SkyNodes
//! hold an `Arc<dyn CrossMatchEngine>` so the federation can swap engines
//! without touching the service protocol, and every engine must produce
//! byte-identical [`PartialSet`] output for a given database + step
//! configuration: parallelism is an implementation detail, never a
//! semantics change.

use std::sync::Arc;

use skyquery_storage::Database;

use crate::error::Result;
use crate::xmatch::{dropout_step, match_step, seed_step, PartialSet, StepConfig, StepStats};

/// Strategy object executing the three cross-match step kinds.
///
/// The default methods delegate to the sequential kernels, so an engine
/// only overrides the steps it accelerates. Implementations must be
/// deterministic: the output `PartialSet` (tuple order included) and the
/// reported `StepStats` may not depend on scheduling.
pub trait CrossMatchEngine: Send + Sync {
    /// Human-readable engine name, surfaced in traces and diagnostics.
    fn name(&self) -> &str;

    /// Runs the seed step (the last archive in the chain).
    fn seed(&self, db: &mut Database, cfg: &StepConfig) -> Result<(PartialSet, StepStats)> {
        seed_step(db, cfg)
    }

    /// Runs a match step against `incoming` partial results.
    fn match_tuples(
        &self,
        db: &mut Database,
        cfg: &StepConfig,
        incoming: &PartialSet,
    ) -> Result<(PartialSet, StepStats)> {
        match_step(db, cfg, incoming)
    }

    /// Runs a drop-out (`!C`) step against `incoming` partial results.
    fn dropout(
        &self,
        db: &mut Database,
        cfg: &StepConfig,
        incoming: &PartialSet,
    ) -> Result<(PartialSet, StepStats)> {
        dropout_step(db, cfg, incoming)
    }
}

/// The paper's engine: one thread walks the tuples in order.
#[derive(Debug, Default, Clone, Copy)]
pub struct SequentialEngine;

impl CrossMatchEngine for SequentialEngine {
    fn name(&self) -> &str {
        "sequential"
    }
}

/// The engine every node uses unless another is installed.
pub fn default_engine() -> Arc<dyn CrossMatchEngine> {
    Arc::new(SequentialEngine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_engine_is_the_default() {
        assert_eq!(default_engine().name(), "sequential");
    }

    #[test]
    fn engines_are_object_safe_and_shareable() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let engine: Arc<dyn CrossMatchEngine> = Arc::new(SequentialEngine);
        assert_send_sync(&engine);
    }
}
