//! TTL leases for node-side resources, charged in simulated time.
//!
//! Every piece of per-query state a SkyNode holds on behalf of a remote
//! caller — an open chunked-transfer session, a staged exchange
//! transaction — is an orphan the moment its owner crashes or loses
//! connectivity. Drop-based cleanup only works while the owner's process
//! survives, so each resource instead carries a *lease*: a TTL against
//! the network's simulated clock, renewed whenever its owner touches it
//! (each `FetchChunk` continuation renews its transfer). A janitor sweep
//! on the node ([`LeaseTable::sweep`], run at the front of every request
//! it serves) expires whatever was left behind. The Portal's result
//! cache and the job service keep their entries in the same table.
//!
//! Expiry is decided only by the sweep, never by lookups: a resource that
//! outlives its TTL but is touched before the next sweep still answers
//! (and the touch usually renews it). That keeps lease semantics
//! deterministic under the simulated clock — there is no background
//! thread racing the request path.

use std::collections::HashMap;

use crate::plan::DEFAULT_LEASE_TTL_S;

/// One leased resource: the value plus its expiry bookkeeping.
#[derive(Debug, Clone)]
struct Lease<T> {
    value: T,
    ttl_s: f64,
    expires_at_s: f64,
}

/// A table of leased resources keyed by caller-visible id.
///
/// The table never allocates ids — callers bring their own (a
/// [`crate::service::Transfers`] store counts its transfers) — and it never expires anything on its
/// own: [`LeaseTable::sweep`] must be called with the current simulated
/// time.
#[derive(Debug)]
pub struct LeaseTable<T> {
    entries: HashMap<u64, Lease<T>>,
}

/// Manual impl: an empty table needs no `T: Default`.
impl<T> Default for LeaseTable<T> {
    fn default() -> LeaseTable<T> {
        LeaseTable::new()
    }
}

impl<T> LeaseTable<T> {
    /// An empty table.
    pub fn new() -> LeaseTable<T> {
        LeaseTable {
            entries: HashMap::new(),
        }
    }

    /// Inserts `value` under `id` with a lease of `ttl_s` simulated
    /// seconds from `now_s`. Non-finite or non-positive TTLs fall back to
    /// [`DEFAULT_LEASE_TTL_S`] so a degenerate plan cannot create a
    /// stillborn lease. Replaces any previous entry under the id.
    pub fn insert(&mut self, id: u64, value: T, now_s: f64, ttl_s: f64) {
        let ttl_s = if ttl_s.is_finite() && ttl_s > 0.0 {
            ttl_s
        } else {
            DEFAULT_LEASE_TTL_S
        };
        self.entries.insert(
            id,
            Lease {
                value,
                ttl_s,
                expires_at_s: now_s + ttl_s,
            },
        );
    }

    /// The leased value, regardless of expiry (reclamation is the
    /// sweep's job — see the module docs).
    pub fn get(&self, id: u64) -> Option<&T> {
        self.entries.get(&id).map(|l| &l.value)
    }

    /// Mutable access to the leased value.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.entries.get_mut(&id).map(|l| &mut l.value)
    }

    /// Whether `id` is currently leased.
    pub fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Extends the lease under `id` to a full TTL from `now_s`. Returns
    /// whether the id was present.
    pub fn renew(&mut self, id: u64, now_s: f64) -> bool {
        match self.entries.get_mut(&id) {
            Some(l) => {
                l.expires_at_s = now_s + l.ttl_s;
                true
            }
            None => false,
        }
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        self.entries.remove(&id).map(|l| l.value)
    }

    /// Drops every lease whose value fails `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.entries.retain(|_, l| keep(&l.value));
    }

    /// Reclaims every lease that expired at or before `now_s`, returning
    /// the `(id, value)` pairs sorted by id (deterministic sweeps) so the
    /// caller can release attached resources (e.g. drop a staging table).
    pub fn sweep(&mut self, now_s: f64) -> Vec<(u64, T)> {
        let expired: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, l)| l.expires_at_s <= now_s)
            .map(|(id, _)| *id)
            .collect();
        let mut out: Vec<(u64, T)> = expired
            .into_iter()
            .map(|id| (id, self.entries.remove(&id).expect("collected above").value))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Number of live leases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no leases are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live lease ids, sorted.
    pub fn ids(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.entries.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The id of the lease expiring soonest (ties broken by lowest id),
    /// or `None` when the table is empty. Capacity-bounded caches evict
    /// this entry first: it is the one the janitor would reclaim next
    /// anyway, so eviction order stays deterministic under the simulated
    /// clock.
    pub fn earliest_expiry(&self) -> Option<u64> {
        self.entries
            .iter()
            .min_by(|(ida, la), (idb, lb)| {
                la.expires_at_s
                    .partial_cmp(&lb.expires_at_s)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ida.cmp(idb))
            })
            .map(|(id, _)| *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut t: LeaseTable<&'static str> = LeaseTable::new();
        assert!(t.is_empty());
        t.insert(7, "seven", 0.0, 10.0);
        t.insert(3, "three", 0.0, 10.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(7), Some(&"seven"));
        assert!(t.contains(3));
        assert_eq!(t.ids(), vec![3, 7]);
        assert_eq!(t.remove(7), Some("seven"));
        assert_eq!(t.remove(7), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sweep_reclaims_only_expired() {
        let mut t: LeaseTable<u32> = LeaseTable::new();
        t.insert(1, 10, 0.0, 5.0);
        t.insert(2, 20, 0.0, 50.0);
        assert!(t.sweep(4.9).is_empty());
        let expired = t.sweep(5.0);
        assert_eq!(expired, vec![(1, 10)]);
        assert_eq!(t.ids(), vec![2]);
        // Expired-but-unswept entries still answer lookups.
        t.insert(3, 30, 0.0, 1.0);
        assert_eq!(t.get(3), Some(&30));
    }

    #[test]
    fn retain_drops_only_what_fails_the_test() {
        let mut t: LeaseTable<u32> = LeaseTable::new();
        t.insert(1, 10, 0.0, 5.0);
        t.insert(2, 21, 0.0, 5.0);
        t.insert(3, 30, 0.0, 5.0);
        t.retain(|v| v % 2 == 0);
        assert_eq!(t.ids(), vec![1, 3]);
        // What stays keeps its lease.
        assert_eq!(t.sweep(5.0), vec![(1, 10), (3, 30)]);
    }

    #[test]
    fn renew_extends_from_now() {
        let mut t: LeaseTable<()> = LeaseTable::new();
        t.insert(1, (), 0.0, 5.0);
        assert!(t.renew(1, 4.0)); // expires at 9 now
        assert!(t.sweep(8.9).is_empty());
        assert_eq!(t.sweep(9.0).len(), 1);
        assert!(!t.renew(1, 9.0));
    }

    #[test]
    fn earliest_expiry_orders_by_deadline_then_id() {
        let mut t: LeaseTable<()> = LeaseTable::new();
        assert_eq!(t.earliest_expiry(), None);
        t.insert(5, (), 0.0, 50.0);
        t.insert(9, (), 0.0, 10.0);
        t.insert(2, (), 0.0, 10.0); // same deadline as 9: lowest id wins
        assert_eq!(t.earliest_expiry(), Some(2));
        t.remove(2);
        assert_eq!(t.earliest_expiry(), Some(9));
        // Renewal pushes the deadline out, changing the eviction order.
        assert!(t.renew(9, 100.0));
        assert_eq!(t.earliest_expiry(), Some(5));
    }

    #[test]
    fn degenerate_ttls_fall_back() {
        let mut t: LeaseTable<()> = LeaseTable::new();
        t.insert(1, (), 0.0, f64::NAN);
        t.insert(2, (), 0.0, -1.0);
        assert!(t.sweep(DEFAULT_LEASE_TTL_S - 0.1).is_empty());
        assert_eq!(t.sweep(DEFAULT_LEASE_TTL_S).len(), 2);
    }
}
