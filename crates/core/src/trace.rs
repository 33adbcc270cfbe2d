//! Execution traces: the observable record of Figure 3's steps, plus the
//! per-node statistics chain that rides back with the partial results.

use std::time::{Duration, Instant};

use skyquery_xml::Element;

use crate::error::{attr, expect_element, parsed, Result};
use crate::xmatch::StepStats;

/// One logged event of a federated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sequence number (1-based, mirroring the figure's step numbers).
    pub seq: usize,
    /// Which component acted (Client, Portal, or an archive name).
    pub actor: String,
    /// Short action label ("performance query", "cross match call", …).
    pub action: String,
    /// Free-form detail text.
    pub detail: String,
    /// Wall-clock time spent since the previous event was recorded (for
    /// the first event, since the trace was created): the duration of the
    /// step this event concludes.
    pub elapsed: Duration,
}

/// An append-only trace of a query execution.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    events: Vec<TraceEvent>,
    /// When the previous event was recorded (trace creation initially).
    last: Instant,
}

impl Default for ExecutionTrace {
    fn default() -> ExecutionTrace {
        ExecutionTrace::new()
    }
}

/// Traces compare by recorded events; the internal clock is excluded.
impl PartialEq for ExecutionTrace {
    fn eq(&self, other: &ExecutionTrace) -> bool {
        self.events == other.events
    }
}

impl Eq for ExecutionTrace {}

impl ExecutionTrace {
    /// An empty trace whose clock starts now.
    pub fn new() -> ExecutionTrace {
        ExecutionTrace {
            events: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Appends an event, assigning the next sequence number and measuring
    /// the wall-clock time since the previous event.
    pub fn push(
        &mut self,
        actor: impl Into<String>,
        action: impl Into<String>,
        detail: impl Into<String>,
    ) {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last);
        self.last = now;
        self.push_with_elapsed(actor, action, detail, elapsed);
    }

    /// Appends an event with an externally measured duration (used when
    /// reconstructing a server-side trace from the wire).
    pub fn push_with_elapsed(
        &mut self,
        actor: impl Into<String>,
        action: impl Into<String>,
        detail: impl Into<String>,
        elapsed: Duration,
    ) {
        self.events.push(TraceEvent {
            seq: self.events.len() + 1,
            actor: actor.into(),
            action: action.into(),
            detail: detail.into(),
            elapsed,
        });
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether any event carries this action label. The survivability
    /// path records its decisions as `replan` / `resume` / `degraded`
    /// events, and a `degraded` event is the flag that a drop-out archive
    /// was skipped — callers check it before trusting result
    /// completeness.
    pub fn contains_action(&self, action: &str) -> bool {
        self.events.iter().any(|e| e.action == action)
    }

    /// All events carrying this action label, in order.
    pub fn events_with_action(&self, action: &str) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.action == action).collect()
    }

    /// Renders the trace as numbered lines (the Figure-3 view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "Step {:>2}  [{:^10}] {}: {}  (+{})\n",
                e.seq,
                e.actor,
                e.action,
                e.detail,
                format_elapsed(e.elapsed)
            ));
        }
        out
    }
}

/// Human-readable duration with microsecond floor, for trace rendering.
pub fn format_elapsed(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

/// Per-node statistics accumulated along the chain: each SkyNode appends
/// its own entry before returning partial results to its caller, so the
/// Portal receives the full picture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsChain {
    /// `(archive alias, stats)` in execution (seed-first) order.
    pub entries: Vec<(String, StepStats)>,
}

impl StatsChain {
    /// An empty chain.
    pub fn new() -> StatsChain {
        StatsChain::default()
    }

    /// Appends one node's statistics.
    pub fn push(&mut self, alias: impl Into<String>, stats: StepStats) {
        self.entries.push((alias.into(), stats));
    }

    /// Encodes for the wire (rides back with the partial results).
    pub fn to_element(&self) -> Element {
        let mut e = Element::new("StatsChain");
        for (alias, s) in &self.entries {
            e = e.with_child(
                Element::new("Step")
                    .with_attr("alias", alias.clone())
                    .with_attr("tuples_in", s.tuples_in.to_string())
                    .with_attr("candidates", s.candidates_probed.to_string())
                    .with_attr("examined", s.candidates_examined.to_string())
                    .with_attr("accepted", s.chi2_accepted.to_string())
                    .with_attr("scratch_reuse", s.scratch_reuse.to_string())
                    .with_attr("tuples_out", s.tuples_out.to_string())
                    .with_attr("tile_builds", s.tile_builds.to_string())
                    .with_attr("tile_decodes", s.tile_decodes.to_string())
                    .with_attr("tile_hits", s.tile_hits.to_string())
                    .with_attr("shards_pruned", s.shards_pruned.to_string())
                    .with_attr("cache_hits", s.cache_hits.to_string())
                    .with_attr("cache_misses", s.cache_misses.to_string())
                    .with_attr("cache_repairs", s.cache_repairs.to_string())
                    .with_attr("cache_evictions", s.cache_evictions.to_string())
                    .with_attr("failovers", s.failovers.to_string())
                    .with_attr("hedges", s.hedges.to_string())
                    .with_attr("hedge_wins", s.hedge_wins.to_string()),
            );
        }
        e
    }

    /// Decodes the wire form: every counter is required, as its writer
    /// always writes it.
    pub fn from_element(e: &Element) -> Result<StatsChain> {
        expect_element(e, "StatsChain")?;
        let mut chain = StatsChain::new();
        for se in e.children_named("Step") {
            let num = |name| attr(se, name, parsed);
            chain.push(
                attr(se, "alias", Some)?,
                StepStats {
                    tuples_in: num("tuples_in")?,
                    candidates_probed: num("candidates")?,
                    candidates_examined: num("examined")?,
                    chi2_accepted: num("accepted")?,
                    scratch_reuse: num("scratch_reuse")?,
                    tuples_out: num("tuples_out")?,
                    tile_builds: num("tile_builds")?,
                    tile_decodes: num("tile_decodes")?,
                    tile_hits: num("tile_hits")?,
                    shards_pruned: num("shards_pruned")?,
                    cache_hits: num("cache_hits")?,
                    cache_misses: num("cache_misses")?,
                    cache_repairs: num("cache_repairs")?,
                    cache_evictions: num("cache_evictions")?,
                    failovers: num("failovers")?,
                    hedges: num("hedges")?,
                    hedge_wins: num("hedge_wins")?,
                },
            );
        }
        Ok(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FederationError;

    #[test]
    fn trace_sequencing_and_render() {
        let mut t = ExecutionTrace::new();
        t.push("Client", "submit", "cross match query");
        t.push("Portal", "decompose", "3 archives");
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].seq, 1);
        assert_eq!(t.events()[1].seq, 2);
        let text = t.render();
        assert!(text.contains("Step  1"));
        assert!(text.contains("Portal"));
        assert!(t.contains_action("decompose"));
        assert!(!t.contains_action("degraded"));
        assert_eq!(t.events_with_action("submit").len(), 1);
    }

    #[test]
    fn events_record_wall_clock_durations() {
        let mut t = ExecutionTrace::new();
        std::thread::sleep(Duration::from_millis(2));
        t.push("Portal", "plan", "built");
        std::thread::sleep(Duration::from_millis(2));
        t.push("SDSS", "match", "done");
        assert!(t.events()[0].elapsed >= Duration::from_millis(1));
        assert!(t.events()[1].elapsed >= Duration::from_millis(1));
        assert!(t.render().contains("(+"));
    }

    #[test]
    fn explicit_durations_preserved() {
        let mut t = ExecutionTrace::new();
        t.push_with_elapsed("Portal", "plan", "built", Duration::from_micros(1500));
        assert_eq!(t.events()[0].elapsed, Duration::from_micros(1500));
        assert_eq!(format_elapsed(Duration::from_micros(1500)), "1.5ms");
        assert_eq!(format_elapsed(Duration::from_micros(999)), "999µs");
        assert_eq!(format_elapsed(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn stats_chain_roundtrip() {
        let mut c = StatsChain::new();
        c.push(
            "T",
            StepStats {
                tuples_in: 0,
                candidates_probed: 120,
                candidates_examined: 400,
                chi2_accepted: 80,
                scratch_reuse: 97,
                tuples_out: 80,
                tile_builds: 1,
                tile_decodes: 7,
                tile_hits: 55,
                shards_pruned: 2,
                cache_hits: 1,
                cache_misses: 3,
                cache_repairs: 2,
                cache_evictions: 1,
                failovers: 4,
                hedges: 2,
                hedge_wins: 1,
            },
        );
        c.push(
            "O",
            StepStats {
                tuples_in: 80,
                candidates_probed: 300,
                candidates_examined: 512,
                chi2_accepted: 12,
                scratch_reuse: 60,
                tuples_out: 12,
                ..StepStats::default()
            },
        );
        let back = StatsChain::from_element(&c.to_element()).unwrap();
        assert_eq!(back, c);
        // The kernel counters survive the wire exactly (== ignores them,
        // so compare the fields directly).
        for ((_, b), (_, o)) in back.entries.iter().zip(&c.entries) {
            assert_eq!(b.candidates_examined, o.candidates_examined);
            assert_eq!(b.chi2_accepted, o.chi2_accepted);
            assert_eq!(b.scratch_reuse, o.scratch_reuse);
            assert_eq!(b.tile_builds, o.tile_builds);
            assert_eq!(b.tile_decodes, o.tile_decodes);
            assert_eq!(b.tile_hits, o.tile_hits);
            assert_eq!(b.shards_pruned, o.shards_pruned);
            assert_eq!(b.cache_hits, o.cache_hits);
            assert_eq!(b.cache_misses, o.cache_misses);
            assert_eq!(b.cache_repairs, o.cache_repairs);
            assert_eq!(b.cache_evictions, o.cache_evictions);
            assert_eq!(b.failovers, o.failovers);
            assert_eq!(b.hedges, o.hedges);
            assert_eq!(b.hedge_wins, o.hedge_wins);
        }
    }

    /// A one-step chain as its writer writes it, with `edit` applied to
    /// the step.
    fn chain_with(edit: impl FnOnce(&mut Element)) -> Element {
        let mut c = StatsChain::new();
        c.push("T", StepStats::default());
        let mut el = c.to_element();
        edit(&mut el.children[0]);
        el
    }

    #[test]
    fn malformed_wire_stats_counters_are_refused() {
        // Every counter: a garbled or negative one is refused, never read
        // as zero.
        let counters = [
            "tuples_in",
            "candidates",
            "examined",
            "accepted",
            "scratch_reuse",
            "tuples_out",
            "tile_builds",
            "tile_decodes",
            "tile_hits",
            "shards_pruned",
            "cache_hits",
            "cache_misses",
            "cache_repairs",
            "cache_evictions",
            "failovers",
            "hedges",
            "hedge_wins",
        ];
        for name in counters {
            let chain = |v: &str| {
                chain_with(|step| {
                    step.attributes.retain(|(k, _)| k != name);
                    step.attributes.push((name.into(), v.into()));
                })
            };
            assert!(StatsChain::from_element(&chain("5")).is_ok(), "{name}");
            for garbled in ["zz", "-1", "2.5", ""] {
                match StatsChain::from_element(&chain(garbled)) {
                    Err(FederationError::Protocol { detail }) => {
                        assert!(detail.contains(name), "{detail}")
                    }
                    other => panic!("{name}={garbled:?} decoded to {other:?}"),
                }
            }
        }
    }

    /// Refuses a chain whose step lacks counter `name`, naming both.
    fn assert_refused_without(name: &str) {
        let el = chain_with(|step| step.attributes.retain(|(k, _)| k != name));
        match StatsChain::from_element(&el) {
            Err(FederationError::Protocol { detail }) => {
                assert!(detail.contains("Step") && detail.contains(name), "{detail}")
            }
            other => panic!("a step without {name} decoded to {other:?}"),
        }
    }

    /// One test per counter the statistics chain's writer always writes
    /// and its reader once defaulted to zero.
    macro_rules! refused_without {
        ($($test:ident: $name:literal,)*) => {
            $(#[test]
            fn $test() {
                assert_refused_without($name);
            })*
        };
    }

    refused_without! {
        malformed_wire_stats_step_without_examined_is_refused: "examined",
        malformed_wire_stats_step_without_accepted_is_refused: "accepted",
        malformed_wire_stats_step_without_scratch_reuse_is_refused: "scratch_reuse",
        malformed_wire_stats_step_without_tile_builds_is_refused: "tile_builds",
        malformed_wire_stats_step_without_tile_decodes_is_refused: "tile_decodes",
        malformed_wire_stats_step_without_tile_hits_is_refused: "tile_hits",
        malformed_wire_stats_step_without_shards_pruned_is_refused: "shards_pruned",
        malformed_wire_stats_step_without_cache_hits_is_refused: "cache_hits",
        malformed_wire_stats_step_without_cache_misses_is_refused: "cache_misses",
        malformed_wire_stats_step_without_cache_repairs_is_refused: "cache_repairs",
        malformed_wire_stats_step_without_cache_evictions_is_refused: "cache_evictions",
        malformed_wire_stats_step_without_failovers_is_refused: "failovers",
        malformed_wire_stats_step_without_hedges_is_refused: "hedges",
        malformed_wire_stats_step_without_hedge_wins_is_refused: "hedge_wins",
    }

    #[test]
    fn stats_chain_rejects_malformed() {
        assert!(StatsChain::from_element(&Element::new("Nope")).is_err());
        let bad = Element::new("StatsChain").with_child(Element::new("Step"));
        assert!(StatsChain::from_element(&bad).is_err());
    }
}
