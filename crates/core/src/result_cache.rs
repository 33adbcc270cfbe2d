//! Portal-side cross-match result cache with version-keyed incremental
//! maintenance.
//!
//! A federated cross-match is expensive — every chain step is a network
//! round trip plus a χ² probe over an archive — yet portal workloads are
//! heavily repetitive: the same few sky regions get re-queried while the
//! archives change slowly. This module caches the *committed partial
//! set of every chain step* (not just the final projection) keyed by
//!
//! 1. the plan's [`cache_signature`](crate::plan::ExecutionPlan::cache_signature)
//!    — the semantic fields that determine the matched set (χ²
//!    threshold, region cover, kernel, per-step σ/SQL/shards), and
//! 2. a **per-table version vector**: the monotonic modification
//!    version of every `(host, table)` the plan touches, captured at
//!    population time.
//!
//! Because storage tables are append-only with sequential row ids, the
//! version *is* the row count, and the rows inserted since version `v`
//! are exactly `[v, len)`. That gives the cache a third option beyond
//! hit/discard: when an archive has grown but not otherwise changed,
//! the Portal re-probes **only the delta rows** through the ordinary
//! match kernels (the node-side `DeltaStep` service) and merges them
//! into the cached partial sets — producing a byte-identical result to
//! a cold run at a fraction of the cost. A repair is a walk over the
//! entry: see the step routine in `walk.rs` for the splice discipline
//! and the identity argument.
//!
//! Entries are leased through [`LeaseTable`] — the same TTL mechanism
//! that governs transfer sessions and staging tables — so a cold cache entry
//! ages out without a dedicated janitor, and an expired entry forces a
//! clean cold re-run rather than serving stale bytes past its lease.

use std::collections::HashMap;

use crate::lease::LeaseTable;
use crate::xmatch::{PartialSet, StepStats};

/// The modification version of one `(host, table)` pair at the moment a
/// cache entry was populated. A plan step maps to one of these per
/// shard (one total when unsharded).
#[derive(Debug, Clone, PartialEq)]
pub struct StepVersion {
    /// Host that holds the table.
    pub host: String,
    /// Table name on that host.
    pub table: String,
    /// [`TableStats::version`](skyquery_storage::TableStats) observed
    /// at population time. Append-only storage makes this the row
    /// count, so delta rows are `[version, len)`.
    pub version: u64,
}

/// One committed chain step's cached output: the partial set it
/// produced, the per-tuple provenance needed to repair it, and the
/// stats it reported.
#[derive(Debug, Clone)]
pub struct CachedStep {
    /// Step alias (the archive's letter in the query).
    pub alias: String,
    /// The partial set this step committed.
    pub set: PartialSet,
    /// Per-tuple provenance: `src[i]` is the row index *in the upstream
    /// step's cached set* that tuple `i` extends (the seed step, whose
    /// upstream is the query itself, stores 0). Repair uses this to
    /// group surviving tuples and splice delta extensions into their
    /// match groups.
    pub src: Vec<u64>,
    /// The stats the step reported when populated. After an
    /// incremental repair the kernel-internal counters are approximate
    /// (they reflect delta probes, not a full re-probe); `tuples_in` /
    /// `tuples_out` stay exact.
    pub stats: StepStats,
}

/// A complete cached chain execution.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The plan's semantic signature.
    pub signature: String,
    /// Version vector: `versions[i]` holds one [`StepVersion`] per
    /// shard of plan step `i` (index-aligned with `steps`).
    pub versions: Vec<Vec<StepVersion>>,
    /// Per-step cached outputs in plan order; the last executed step's
    /// set is the final partial set.
    pub steps: Vec<CachedStep>,
}

/// Monotonic cache effectiveness counters, surfaced through
/// [`StepStats`], the `StatsChain` wire format, and the CLI's `\cache`
/// meta-command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Queries served entirely from cache (zero chain steps executed).
    pub hits: u64,
    /// Queries that ran the full chain (no entry, or entry invalid).
    pub misses: u64,
    /// Queries served by incremental repair (delta rows probed and
    /// merged instead of a full re-run).
    pub repairs: u64,
    /// Entries discarded — lease expiry, capacity pressure, or a
    /// version regression that invalidated the provenance.
    pub evictions: u64,
}

/// The cache proper: leased entries plus a signature index.
///
/// Capacity is owned by the caller (`FederationConfig`) and passed to
/// [`insert`](ResultCache::insert) so a `\cache <n>` reconfiguration
/// takes effect without touching live entries.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: LeaseTable<CacheEntry>,
    by_sig: HashMap<String, u64>,
    next_id: u64,
    counters: CacheCounters,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Snapshot of the effectiveness counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Mutable counter access for the Portal's hit/miss/repair
    /// bookkeeping.
    pub fn counters_mut(&mut self) -> &mut CacheCounters {
        &mut self.counters
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reclaims every entry whose lease expired at or before `now_s`,
    /// tallying them as evictions. Called at each lookup so expiry
    /// needs no background janitor.
    pub fn sweep(&mut self, now_s: f64) -> usize {
        let expired = self.entries.sweep(now_s);
        for (_, entry) in &expired {
            self.by_sig.remove(&entry.signature);
        }
        self.counters.evictions += expired.len() as u64;
        expired.len()
    }

    /// The entry id cached under `signature`, if any.
    pub fn lookup(&self, signature: &str) -> Option<u64> {
        self.by_sig.get(signature).copied()
    }

    /// Shared access to an entry.
    pub fn get(&self, id: u64) -> Option<&CacheEntry> {
        self.entries.get(id)
    }

    /// Mutable access to an entry (the repair path rewrites its steps
    /// and version vector in place).
    pub fn get_mut(&mut self, id: u64) -> Option<&mut CacheEntry> {
        self.entries.get_mut(id)
    }

    /// Extends an entry's lease to a full TTL from `now_s` — a hit
    /// keeps a hot entry alive.
    pub fn renew(&mut self, id: u64, now_s: f64) -> bool {
        self.entries.renew(id, now_s)
    }

    /// Discards one entry (version regression, repair failure, or any
    /// other invalidation) and tallies the eviction.
    pub fn evict(&mut self, id: u64) {
        if let Some(entry) = self.entries.remove(id) {
            self.by_sig.remove(&entry.signature);
            self.counters.evictions += 1;
        }
    }

    /// Inserts a freshly-populated entry under a `ttl_s` lease,
    /// replacing any previous entry with the same signature. When the
    /// cache is at `capacity` the entry whose lease expires soonest is
    /// evicted first; a zero capacity disables the cache entirely and
    /// returns `None`.
    pub fn insert(
        &mut self,
        entry: CacheEntry,
        now_s: f64,
        ttl_s: f64,
        capacity: usize,
    ) -> Option<u64> {
        if capacity == 0 {
            return None;
        }
        if let Some(prev) = self.by_sig.get(&entry.signature).copied() {
            self.evict(prev);
        }
        while self.entries.len() >= capacity {
            match self.entries.earliest_expiry() {
                Some(victim) => self.evict(victim),
                None => break,
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.by_sig.insert(entry.signature.clone(), id);
        self.entries.insert(id, entry, now_s, ttl_s);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sig: &str) -> CacheEntry {
        CacheEntry {
            signature: sig.to_string(),
            versions: vec![vec![StepVersion {
                host: "a.example".into(),
                table: "T".into(),
                version: 1,
            }]],
            steps: Vec::new(),
        }
    }

    #[test]
    fn insert_lookup_and_signature_replacement() {
        let mut cache = ResultCache::new();
        let id = cache.insert(entry("sig-a"), 0.0, 60.0, 4).unwrap();
        assert_eq!(cache.lookup("sig-a"), Some(id));
        assert_eq!(cache.len(), 1);
        // Re-populating the same signature replaces (and tallies an
        // eviction for) the old entry.
        let id2 = cache.insert(entry("sig-a"), 1.0, 60.0, 4).unwrap();
        assert_ne!(id, id2);
        assert_eq!(cache.lookup("sig-a"), Some(id2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache = ResultCache::new();
        assert!(cache.insert(entry("sig"), 0.0, 60.0, 0).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_pressure_evicts_the_soonest_expiring_entry() {
        let mut cache = ResultCache::new();
        cache.insert(entry("short"), 0.0, 10.0, 2).unwrap();
        let keep = cache.insert(entry("long"), 0.0, 100.0, 2).unwrap();
        cache.insert(entry("new"), 0.0, 50.0, 2).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup("short"), None);
        assert_eq!(cache.lookup("long"), Some(keep));
        assert!(cache.lookup("new").is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn sweep_reclaims_expired_entries_and_their_signatures() {
        let mut cache = ResultCache::new();
        cache.insert(entry("a"), 0.0, 10.0, 4).unwrap();
        cache.insert(entry("b"), 0.0, 100.0, 4).unwrap();
        assert_eq!(cache.sweep(50.0), 1);
        assert_eq!(cache.lookup("a"), None);
        assert!(cache.lookup("b").is_some());
        assert_eq!(cache.counters().evictions, 1);
        // The freed signature slot is reusable.
        assert!(cache.insert(entry("a"), 50.0, 10.0, 4).is_some());
    }

    #[test]
    fn evict_is_idempotent() {
        let mut cache = ResultCache::new();
        let id = cache.insert(entry("x"), 0.0, 60.0, 4).unwrap();
        cache.evict(id);
        cache.evict(id);
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.lookup("x"), None);
    }
}
