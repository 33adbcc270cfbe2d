//! Scatter-gather merge discipline for sharded archives.
//!
//! When one logical archive is split across several SkyNodes by
//! declination-zone range ([`crate::meta::ZoneExtent`]), the Portal
//! scatters each chain step to every owning shard and gathers the
//! partial sets back into one set that is **byte-identical** to what the
//! single-node chain would have produced. Two synthetic columns make the
//! gather deterministic with zero changes to the match kernels:
//!
//! * [`SRC_COL`] — appended by the Portal to the *input* set before
//!   scattering; each tuple carries its index in the merged input. The
//!   kernels copy incoming values untouched, so every output tuple still
//!   knows which input tuple spawned it.
//! * [`RANK_COL`] — a physical column of every shard table recording the
//!   row's insertion rank in the unsharded archive. Carried (qualified
//!   as `alias.__rank`) through scattered seed/match steps, it recovers
//!   the single-node row-id order within each input group.
//!
//! The single-node kernels emit matches grouped by incoming tuple, and
//! within a group in table row-id order; a shard's local row-id order is
//! the global rank order restricted to that shard. Sorting the
//! concatenated shard outputs by `(__src, __rank)` therefore reproduces
//! the single-node output exactly, after which both synthetic columns
//! are stripped. Drop-out steps filter instead of extend: a tuple
//! survives the merged drop-out iff it has a best position and every
//! answering shard it was **sent** to kept it (no counterpart there and
//! no residual rejected it). The scatter sends each shard only the tuples
//! whose probe balls meet its extent, so a shard's reply is refused if it
//! answers for any other ([`check_src`]).

use skyquery_storage::{DataType, Value};

use crate::error::{FederationError, Result};
use crate::result::ResultColumn;
use crate::xmatch::{PartialSet, PartialTuple, StepStats};

/// Synthetic column the Portal appends to the input set before
/// scattering a step: each tuple's index in the merged input set.
pub const SRC_COL: &str = "__src";

/// Synthetic per-row shard-table column: the row's insertion rank in the
/// unsharded archive. Qualified as `alias.__rank` when carried.
pub const RANK_COL: &str = "__rank";

/// The qualified name under which `alias`'s rank column travels in a
/// partial set.
pub fn qualified_rank(alias: &str) -> String {
    format!("{alias}.{RANK_COL}")
}

/// Projects the tuples at `indices` out of `set` and appends an `Id`
/// column named `column` holding each tuple's index in `set`: the
/// provenance that the kernels carry through untouched. The shard scatter
/// tags every tuple under [`SRC_COL`]; a recording or repairing walk tags
/// the tuples it probes under its cache provenance column.
pub fn tag_with_src(
    set: &PartialSet,
    column: &str,
    indices: impl IntoIterator<Item = usize>,
) -> PartialSet {
    let mut columns = set.columns.clone();
    columns.push(ResultColumn::new(column, DataType::Id));
    let tuples = indices
        .into_iter()
        .map(|i| {
            let t = &set.tuples[i];
            let mut values = t.values.clone();
            values.push(Value::Id(i as u64));
            PartialTuple {
                state: t.state,
                values,
            }
        })
        .collect();
    PartialSet { columns, tuples }
}

fn column_index(set: &PartialSet, name: &str) -> Result<usize> {
    set.columns
        .iter()
        .position(|c| c.name == name)
        .ok_or_else(|| {
            FederationError::protocol(format!("scattered partial set missing column {name}"))
        })
}

fn strip_column(set: &mut PartialSet, idx: usize) {
    set.columns.remove(idx);
    for t in &mut set.tuples {
        t.values.remove(idx);
    }
}

fn id_at(t: &PartialTuple, idx: usize) -> Result<u64> {
    match t.values.get(idx) {
        Some(Value::Id(v)) => Ok(*v),
        other => Err(FederationError::protocol(format!(
            "merge key column holds {other:?}, expected an Id"
        ))),
    }
}

fn check_parts(parts: &[(PartialSet, StepStats)]) -> Result<&PartialSet> {
    let (first, _) = parts
        .first()
        .ok_or_else(|| FederationError::protocol("scatter gathered no partial sets"))?;
    for (set, _) in parts {
        if set.columns != first.columns {
            return Err(FederationError::protocol(
                "shards returned partial sets with differing schemas",
            ));
        }
    }
    Ok(first)
}

/// Merges the shard outputs of a scattered **seed** step: concatenates,
/// sorts by the seed table's rank, strips the rank column. Stats fields
/// all sum — a seed step has no input tuples and every shard row is
/// examined exactly once somewhere.
pub fn merge_seed(
    parts: &[(PartialSet, StepStats)],
    alias: &str,
) -> Result<(PartialSet, StepStats)> {
    let first = check_parts(parts)?;
    let rank_idx = column_index(first, &qualified_rank(alias))?;
    let mut stats = StepStats::default();
    let mut keyed = Vec::new();
    for (set, st) in parts {
        stats.tuples_in += st.tuples_in;
        stats.add_work(st);
        stats.chi2_accepted += st.chi2_accepted;
        for t in &set.tuples {
            keyed.push((id_at(t, rank_idx)?, t.clone()));
        }
    }
    keyed.sort_by_key(|(rank, _)| *rank);
    let mut merged = PartialSet {
        columns: first.columns.clone(),
        tuples: keyed.into_iter().map(|(_, t)| t).collect(),
    };
    strip_column(&mut merged, rank_idx);
    stats.tuples_out = merged.tuples.len();
    Ok((merged, stats))
}

/// Merges the shard outputs of a scattered **match** step: concatenates,
/// stable-sorts by `(input index, matched row's rank)`, strips both
/// synthetic columns. Probe-side stats sum across shards (they partition
/// the probed table); `tuples_in` is the first shard's, which a routed
/// scatter replaces with its whole input's size.
pub fn merge_match(
    parts: &[(PartialSet, StepStats)],
    alias: &str,
) -> Result<(PartialSet, StepStats)> {
    let first = check_parts(parts)?;
    let src_idx = column_index(first, SRC_COL)?;
    let rank_idx = column_index(first, &qualified_rank(alias))?;
    let mut stats = StepStats {
        tuples_in: parts[0].1.tuples_in,
        ..StepStats::default()
    };
    let mut keyed = Vec::new();
    for (set, st) in parts {
        stats.add_work(st);
        stats.chi2_accepted += st.chi2_accepted;
        for t in &set.tuples {
            keyed.push(((id_at(t, src_idx)?, id_at(t, rank_idx)?), t.clone()));
        }
    }
    keyed.sort_by_key(|(key, _)| *key);
    let mut merged = PartialSet {
        columns: first.columns.clone(),
        tuples: keyed.into_iter().map(|(_, t)| t).collect(),
    };
    let (hi, lo) = if src_idx > rank_idx {
        (src_idx, rank_idx)
    } else {
        (rank_idx, src_idx)
    };
    strip_column(&mut merged, hi);
    strip_column(&mut merged, lo);
    stats.tuples_out = merged.tuples.len();
    Ok((merged, stats))
}

/// Refuses a scattered reply from `host` that answers for a tuple its
/// extent was not sent: every `__src` in `set` must be in `sent`
/// (ascending), or the reply is a [`FederationError::Protocol`] naming
/// the host.
pub fn check_src(set: &PartialSet, sent: &[usize], host: &str) -> Result<()> {
    let src_idx = column_index(set, SRC_COL)?;
    for t in &set.tuples {
        let id = id_at(t, src_idx)?;
        if sent.binary_search_by(|&i| (i as u64).cmp(&id)).is_err() {
            return Err(FederationError::protocol(format!(
                "{host} answered for {SRC_COL} {id}, a tuple it was not sent"
            )));
        }
    }
    Ok(())
}

/// Merges the shard outputs of a routed **drop-out** step, where
/// `parts[k]` answered for the `input` tuples at `sent[k]`: a tuple
/// survives iff it has a best position and every answering shard it was
/// sent to kept it (found no counterpart; its residual did not reject
/// it). Survivors are the Portal's own `input` tuples, in input order. A
/// tuple with no best position reaches no shard and leaves here, as it
/// would at a node; the ledger counts it as neither accepted nor kept.
///
/// `parts` may be a subset of the shard group: the Checkpointed driver
/// degrades a partially failed drop-out step by intersecting over the
/// shards that answered, mirroring the single-node degraded skip.
pub fn merge_dropout(
    input: &PartialSet,
    parts: &[(PartialSet, StepStats)],
    sent: &[&[usize]],
) -> Result<(PartialSet, StepStats)> {
    let src_idx = column_index(check_parts(parts)?, SRC_COL)?;
    let n = input.len();
    let mut alive: Vec<bool> = input
        .tuples
        .iter()
        .map(|t| t.state.best_position().is_some())
        .collect();
    let degen = alive.iter().filter(|a| !**a).count();
    let mut stats = StepStats::default();
    let mut kept = vec![false; n];
    for ((set, st), sent) in parts.iter().zip(sent) {
        stats.add_work(st);
        kept.fill(false);
        for t in &set.tuples {
            let id = id_at(t, src_idx)?;
            let slot = usize::try_from(id).ok().and_then(|i| kept.get_mut(i));
            *slot.ok_or_else(|| {
                FederationError::protocol(format!("drop-out reply kept {SRC_COL} {id} of {n}"))
            })? = true;
        }
        for &i in *sent {
            alive[i] &= kept[i];
        }
    }
    let survivors = input.tuples.iter().zip(&alive).filter(|(_, a)| **a);
    let merged = PartialSet {
        columns: input.columns.clone(),
        tuples: survivors.map(|(t, _)| t.clone()).collect(),
    };
    stats.tuples_in = n;
    stats.tuples_out = merged.tuples.len();
    stats.chi2_accepted = n - degen - stats.tuples_out;
    Ok((merged, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmatch::TupleState;

    fn state(tag: f64) -> TupleState {
        TupleState {
            a: tag,
            ax: 1.0,
            ay: 0.0,
            az: 0.0,
        }
    }

    fn set(columns: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> PartialSet {
        PartialSet {
            columns: columns
                .iter()
                .map(|(n, d)| ResultColumn::new(*n, *d))
                .collect(),
            tuples: rows
                .into_iter()
                .enumerate()
                .map(|(i, values)| PartialTuple {
                    state: state(i as f64),
                    values,
                })
                .collect(),
        }
    }

    #[test]
    fn src_tagging_appends_index_column() {
        let s = set(
            &[("O.object_id", DataType::Id)],
            vec![vec![Value::Id(7)], vec![Value::Id(9)]],
        );
        let tagged = tag_with_src(&s, SRC_COL, 0..s.len());
        assert_eq!(tagged.columns.last().unwrap().name, SRC_COL);
        assert_eq!(tagged.tuples[0].values, vec![Value::Id(7), Value::Id(0)]);
        assert_eq!(tagged.tuples[1].values, vec![Value::Id(9), Value::Id(1)]);
        // The original carried values and state are untouched.
        assert_eq!(tagged.tuples[1].state, s.tuples[1].state);
    }

    #[test]
    fn seed_merge_restores_rank_order_and_strips_rank() {
        let cols: &[(&str, DataType)] =
            &[("S.object_id", DataType::Id), ("S.__rank", DataType::Id)];
        let shard0 = set(
            cols,
            vec![
                vec![Value::Id(100), Value::Id(0)],
                vec![Value::Id(102), Value::Id(3)],
            ],
        );
        let shard1 = set(
            cols,
            vec![
                vec![Value::Id(101), Value::Id(1)],
                vec![Value::Id(103), Value::Id(2)],
            ],
        );
        let st = |out: usize| StepStats {
            tuples_out: out,
            candidates_examined: out,
            ..StepStats::default()
        };
        let (merged, stats) = merge_seed(&[(shard0, st(2)), (shard1, st(2))], "S").unwrap();
        assert_eq!(merged.columns.len(), 1);
        let ids: Vec<_> = merged.tuples.iter().map(|t| t.values[0].clone()).collect();
        assert_eq!(
            ids,
            vec![
                Value::Id(100),
                Value::Id(101),
                Value::Id(103),
                Value::Id(102)
            ]
        );
        assert_eq!(stats.tuples_out, 4);
        assert_eq!(stats.candidates_examined, 4);
    }

    #[test]
    fn match_merge_orders_by_src_then_rank() {
        let cols: &[(&str, DataType)] = &[
            ("O.object_id", DataType::Id),
            (SRC_COL, DataType::Id),
            ("T.__rank", DataType::Id),
        ];
        // Input tuple 0 matched rows rank 5 (shard1) and rank 2 (shard0);
        // input tuple 1 matched rank 4 (shard0) only.
        let shard0 = set(
            cols,
            vec![
                vec![Value::Id(10), Value::Id(0), Value::Id(2)],
                vec![Value::Id(11), Value::Id(1), Value::Id(4)],
            ],
        );
        let shard1 = set(cols, vec![vec![Value::Id(10), Value::Id(0), Value::Id(5)]]);
        let st = StepStats {
            tuples_in: 2,
            candidates_probed: 3,
            ..StepStats::default()
        };
        let (merged, stats) = merge_match(&[(shard0, st), (shard1, st)], "T").unwrap();
        assert_eq!(merged.columns.len(), 1);
        let ids: Vec<_> = merged.tuples.iter().map(|t| t.values[0].clone()).collect();
        assert_eq!(ids, vec![Value::Id(10), Value::Id(10), Value::Id(11)]);
        // (src 0, rank 2) sorts before (src 0, rank 5).
        assert_eq!(merged.tuples[0].state, state(0.0));
        assert_eq!(merged.tuples[1].state, state(0.0));
        assert_eq!(stats.tuples_in, 2);
        assert_eq!(stats.candidates_probed, 6);
        assert_eq!(stats.tuples_out, 3);
    }

    /// `n` input tuples, `O.object_id` 10.. , each with a best position
    /// unless its index is in `degenerate`.
    fn input(n: usize, degenerate: &[usize]) -> PartialSet {
        let mut s = set(
            &[("O.object_id", DataType::Id)],
            (0..n).map(|i| vec![Value::Id(10 + i as u64)]).collect(),
        );
        for &i in degenerate {
            s.tuples[i].state = TupleState {
                a: 1.0,
                ax: 0.0,
                ay: 0.0,
                az: 0.0,
            };
        }
        s
    }

    /// A drop-out reply keeping the input tuples at `srcs`.
    fn kept(srcs: &[u64]) -> PartialSet {
        let cols: &[(&str, DataType)] = &[("O.object_id", DataType::Id), (SRC_COL, DataType::Id)];
        let rows = srcs
            .iter()
            .map(|&i| vec![Value::Id(10 + i), Value::Id(i)])
            .collect();
        set(cols, rows)
    }

    fn dropout_stats(tuples_in: usize, found: usize, out: usize) -> StepStats {
        StepStats {
            tuples_in,
            chi2_accepted: found,
            tuples_out: out,
            candidates_probed: found,
            ..StepStats::default()
        }
    }

    fn ids(set: &PartialSet) -> Vec<Value> {
        set.tuples.iter().map(|t| t.values[0].clone()).collect()
    }

    #[test]
    fn dropout_merge_intersects_survivors() {
        // 4 inputs. Shard0 was sent 0..=2 and found a counterpart for
        // src 1; shard1 was sent 1..=3 and found one for src 2. A tuple
        // survives iff every shard it was sent to kept it: src 0 and 3.
        let inp = input(4, &[]);
        let parts = [
            (kept(&[0, 2]), dropout_stats(3, 1, 2)),
            (kept(&[1, 3]), dropout_stats(3, 1, 2)),
        ];
        let (merged, stats) = merge_dropout(&inp, &parts, &[&[0, 1, 2], &[1, 2, 3]]).unwrap();
        assert_eq!(merged.columns, inp.columns);
        assert_eq!(ids(&merged), vec![Value::Id(10), Value::Id(13)]);
        // Survivors are the Portal's own input tuples, state included.
        assert_eq!(merged.tuples[1], inp.tuples[3]);
        assert_eq!(stats.tuples_in, 4);
        assert_eq!(stats.tuples_out, 2);
        assert_eq!(stats.candidates_probed, 2);
        // No degenerate inputs: everything not surviving had a counterpart.
        assert_eq!(stats.chi2_accepted, 2);
    }

    #[test]
    fn dropout_merge_accounts_for_degenerate_inputs() {
        // 5 inputs, sent whole to both shards, 1 degenerate (dropped on
        // every shard without a counterpart); shard0 found 1 counterpart,
        // shard1 found none.
        let inp = input(5, &[4]);
        let parts = [
            (kept(&[0, 2, 3]), dropout_stats(5, 1, 3)),
            (kept(&[0, 1, 2, 3]), dropout_stats(5, 0, 4)),
        ];
        let all: &[usize] = &[0, 1, 2, 3, 4];
        let (merged, stats) = merge_dropout(&inp, &parts, &[all, all]).unwrap();
        assert_eq!(merged.tuples.len(), 3);
        assert_eq!(stats.chi2_accepted, 1);
        assert_eq!(stats.tuples_out, 3);
    }

    #[test]
    fn a_degenerate_tuple_sent_nowhere_leaves_a_routed_dropout() {
        // Src 1 has no best position, so its probe ball meets no extent
        // and the scatter sends it nowhere. It must still leave, and the
        // ledger must count it as neither accepted nor kept.
        let inp = input(4, &[1]);
        let parts = [
            (kept(&[0]), dropout_stats(1, 0, 1)),
            (kept(&[3]), dropout_stats(2, 1, 1)),
        ];
        let (merged, stats) = merge_dropout(&inp, &parts, &[&[0], &[2, 3]]).unwrap();
        assert_eq!(ids(&merged), vec![Value::Id(10), Value::Id(13)]);
        assert_eq!(stats.tuples_in, 4);
        assert_eq!(stats.tuples_out, 2);
        assert_eq!(stats.chi2_accepted, 1, "only src 2 found a counterpart");
        // With every tuple degenerate, no extent is reached and none survives.
        let (merged, stats) = merge_dropout(
            &input(2, &[0, 1]),
            &[(kept(&[]), dropout_stats(0, 0, 0))],
            &[&[]],
        )
        .unwrap();
        assert!(merged.is_empty());
        assert_eq!((stats.tuples_in, stats.chi2_accepted), (2, 0));
    }

    #[test]
    fn a_forged_src_is_refused_naming_the_host() {
        let reply = kept(&[0, 2, 3]);
        assert!(check_src(&reply, &[0, 2, 3], "sdss-1").is_ok());
        assert!(check_src(&reply, &[0, 1, 2, 3, 4], "sdss-1").is_ok());
        // Src 3 was routed to another extent: a reply answering for it is
        // forged, whatever its rows say.
        match check_src(&reply, &[0, 2], "sdss-1") {
            Err(FederationError::Protocol { detail }) => {
                assert!(detail.contains("sdss-1"), "{detail}");
                assert!(detail.contains("__src 3"), "{detail}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        // A reply without the column, or with a non-Id key, is refused too.
        assert!(check_src(&input(1, &[]), &[0], "sdss-1").is_err());
        let bad = set(&[(SRC_COL, DataType::Id)], vec![vec![Value::Float(0.0)]]);
        assert!(check_src(&bad, &[0], "sdss-1").is_err());
    }

    #[test]
    fn merges_reject_inconsistent_parts() {
        let inp = input(1, &[]);
        assert!(merge_dropout(&inp, &[], &[]).is_err());
        let a = set(&[(SRC_COL, DataType::Id)], vec![vec![Value::Id(0)]]);
        let b = set(&[("other", DataType::Id)], vec![vec![Value::Id(0)]]);
        let st = StepStats {
            tuples_in: 1,
            tuples_out: 1,
            ..StepStats::default()
        };
        assert!(merge_dropout(&inp, &[(a.clone(), st), (b, st)], &[&[0], &[0]]).is_err());
        // A non-Id merge key is a protocol error, not a panic.
        let bad = set(&[(SRC_COL, DataType::Id)], vec![vec![Value::Float(1.0)]]);
        assert!(merge_dropout(&inp, &[(bad, st)], &[&[0]]).is_err());
        // So is a kept index beyond the input.
        let beyond = set(&[(SRC_COL, DataType::Id)], vec![vec![Value::Id(1)]]);
        assert!(merge_dropout(&inp, &[(beyond, st)], &[&[0]]).is_err());
        // Missing the rank column.
        assert!(merge_seed(&[(a, st)], "S").is_err());
    }
}
