//! Deterministic reassembly of zone outputs.
//!
//! Workers finish in scheduling order, but every outcome carries its
//! tuple's index in the incoming partial set, and each tuple belongs to
//! exactly one zone — so sorting outcomes by that index reconstructs the
//! sequential engine's output order exactly, and summing the per-tuple
//! probe counts reconstructs its statistics.

use skyquery_core::{PartialSet, PartialTuple, ResultColumn, StepStats};

/// What one zone worker decided about one tuple.
#[derive(Debug, Clone)]
pub struct TupleOutcome {
    /// The tuple's index in the incoming partial set.
    pub index: usize,
    /// Verified candidate hits evaluated for this tuple (feeds
    /// `StepStats::candidates_probed`).
    pub probed: usize,
    /// Candidate rows whose exact separation the kernel computed (feeds
    /// `StepStats::candidates_examined`).
    pub examined: usize,
    /// Candidates passing the chi² acceptance test (feeds
    /// `StepStats::chi2_accepted`).
    pub accepted: usize,
    /// Probes served entirely from warm scratch buffers, 0 or 1 (feeds
    /// `StepStats::scratch_reuse`).
    pub reused: usize,
    /// The tuples the step emits for this one, in candidate row order: a
    /// match step's surviving extensions; for a drop-out step the tuple
    /// itself when no counterpart was found, nothing when one was.
    pub extensions: Vec<PartialTuple>,
}

/// Reassembles per-tuple outcomes — of either step kind — into the
/// output partial set.
pub fn merge_match(
    columns: Vec<ResultColumn>,
    tuples_in: usize,
    mut outcomes: Vec<TupleOutcome>,
) -> (PartialSet, StepStats) {
    outcomes.sort_by_key(|o| o.index);
    let mut out = PartialSet::new(columns);
    let mut stats = StepStats {
        tuples_in,
        ..StepStats::default()
    };
    for outcome in outcomes {
        stats.candidates_probed += outcome.probed;
        stats.candidates_examined += outcome.examined;
        stats.chi2_accepted += outcome.accepted;
        stats.scratch_reuse += outcome.reused;
        out.tuples.extend(outcome.extensions);
    }
    stats.tuples_out = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_core::TupleState;
    use skyquery_htm::SkyPoint;

    fn tuple(dec: f64) -> PartialTuple {
        PartialTuple {
            state: TupleState::single(SkyPoint::from_radec_deg(1.0, dec).to_vec3(), 1e-6),
            values: vec![],
        }
    }

    #[test]
    fn match_merge_restores_tuple_order() {
        let (set, stats) = merge_match(
            vec![],
            3,
            vec![
                TupleOutcome {
                    index: 2,
                    probed: 4,
                    examined: 9,
                    accepted: 1,
                    reused: 1,
                    extensions: vec![tuple(2.0)],
                },
                TupleOutcome {
                    index: 0,
                    probed: 1,
                    examined: 2,
                    accepted: 2,
                    reused: 0,
                    extensions: vec![tuple(0.0), tuple(0.5)],
                },
            ],
        );
        assert_eq!(stats.tuples_in, 3);
        assert_eq!(stats.candidates_probed, 5);
        assert_eq!(stats.candidates_examined, 11);
        assert_eq!(stats.chi2_accepted, 3);
        assert_eq!(stats.scratch_reuse, 1);
        assert_eq!(stats.tuples_out, 3);
        let decs: Vec<i64> = set
            .tuples
            .iter()
            .map(|t| {
                (SkyPoint::from_vec3(t.state.best_position().unwrap()).dec_deg * 10.0).round()
                    as i64
            })
            .collect();
        assert_eq!(decs, vec![0, 5, 20]);
    }

    #[test]
    fn dropout_merge_keeps_original_order_and_tuples() {
        let incoming = PartialSet {
            columns: vec![],
            tuples: vec![tuple(0.0), tuple(1.0), tuple(2.0)],
        };
        // A drop-out outcome carries the tuple itself when it survives
        // and nothing when a counterpart was found.
        let (set, stats) = merge_match(
            vec![],
            incoming.len(),
            vec![
                TupleOutcome {
                    index: 2,
                    probed: 2,
                    examined: 4,
                    accepted: 0,
                    reused: 1,
                    extensions: vec![incoming.tuples[2].clone()],
                },
                TupleOutcome {
                    index: 1,
                    probed: 3,
                    examined: 6,
                    accepted: 1,
                    reused: 1,
                    extensions: vec![],
                },
                TupleOutcome {
                    index: 0,
                    probed: 0,
                    examined: 0,
                    accepted: 0,
                    reused: 0,
                    extensions: vec![incoming.tuples[0].clone()],
                },
            ],
        );
        assert_eq!(stats.candidates_probed, 5);
        assert_eq!(stats.candidates_examined, 10);
        assert_eq!(stats.chi2_accepted, 1);
        assert_eq!(stats.scratch_reuse, 2);
        assert_eq!(set.tuples.len(), 2);
        assert_eq!(set.tuples[0], incoming.tuples[0]);
        assert_eq!(set.tuples[1], incoming.tuples[2]);
    }
}
