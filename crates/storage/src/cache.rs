//! Simulated buffer cache.
//!
//! The paper notes (§5.3) that the count-star performance queries "will
//! often warm the database cache on each SkyNode with index pages that
//! satisfy the main cross match query, and thus aid in reducing processing
//! time". A real buffer pool's behaviour is easy to lose inside an
//! all-in-memory engine, so we model it explicitly: rows live on fixed-size
//! *pages*; touching a page that is not resident counts a miss and charges a
//! simulated I/O penalty; an LRU of limited capacity holds resident pages.
//! Experiment E10 measures the warm-up effect through this model.

use std::collections::HashMap;

/// Identifier of a page: `(table epoch, page number)`. The epoch
/// distinguishes reincarnations of dropped temp tables.
pub(crate) type PageId = (u64, usize);

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page accesses served from the cache.
    pub hits: u64,
    /// Page accesses that faulted the page in.
    pub misses: u64,
}

impl CacheStats {
    /// Total page accesses (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses served from cache; 0 when untouched.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Total simulated access cost given a per-miss penalty, in abstract
    /// cost units (e.g. microseconds of disk time).
    pub fn cost(&self, miss_penalty: f64) -> f64 {
        self.hits as f64 + self.misses as f64 * miss_penalty
    }
}

/// A fixed-capacity LRU page cache.
///
/// The implementation favours clarity over constant factors: an access
/// counter orders recency and eviction scans for the minimum. Capacities in
/// this codebase are small (thousands of pages), and the simulation cost is
/// dwarfed by the scans it instruments.
#[derive(Debug, Clone)]
pub struct BufferCache {
    capacity: usize,
    rows_per_page: usize,
    clock: u64,
    resident: HashMap<PageId, u64>,
    stats: CacheStats,
}

impl BufferCache {
    /// A cache holding at most `capacity` pages of `rows_per_page` rows.
    pub fn new(capacity: usize, rows_per_page: usize) -> BufferCache {
        assert!(rows_per_page > 0, "rows_per_page must be positive");
        BufferCache {
            capacity: capacity.max(1),
            rows_per_page,
            clock: 0,
            resident: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Maximum resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The page a row lives on.
    pub(crate) fn page_of(&self, table_epoch: u64, row: usize) -> PageId {
        (table_epoch, row / self.rows_per_page)
    }

    /// Touches the page holding `row` of table `table_epoch`; returns
    /// whether it was a hit.
    pub(crate) fn touch_row(&mut self, table_epoch: u64, row: usize) -> bool {
        let page = self.page_of(table_epoch, row);
        self.touch_page(page)
    }

    /// Touches a page directly.
    pub(crate) fn touch_page(&mut self, page: PageId) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.resident.get_mut(&page) {
            *stamp = self.clock;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            if self.resident.len() >= self.capacity {
                // Evict the least recently used page.
                if let Some((&lru, _)) = self.resident.iter().min_by_key(|(_, &stamp)| stamp) {
                    self.resident.remove(&lru);
                }
            }
            self.resident.insert(page, self.clock);
            false
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters but keeps resident pages (for measuring a warm run).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drops all resident pages and counters (a cold restart).
    pub fn clear(&mut self) {
        self.resident.clear();
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = BufferCache::new(8, 10);
        assert!(!c.touch_row(0, 5));
        assert!(c.touch_row(0, 5));
        assert!(c.touch_row(0, 9)); // same page (rows 0..10)
        assert!(!c.touch_row(0, 10)); // next page
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_eviction() {
        let mut c = BufferCache::new(2, 1);
        c.touch_page((0, 0));
        c.touch_page((0, 1));
        c.touch_page((0, 0)); // refresh page 0
        c.touch_page((0, 2)); // evicts page 1 (LRU)
        assert!(c.touch_page((0, 0)), "page 0 should still be resident");
        assert!(!c.touch_page((0, 1)), "page 1 should have been evicted");
        assert_eq!(c.resident.len(), 2);
    }

    #[test]
    fn warm_rerun_has_high_hit_ratio() {
        let mut c = BufferCache::new(100, 10);
        for r in 0..500 {
            c.touch_row(1, r);
        }
        let cold = c.stats();
        assert_eq!(cold.hit_ratio(), 0.9, "10 rows/page: 9 hits per page");
        c.reset_stats();
        for r in 0..500 {
            c.touch_row(1, r);
        }
        let warm = c.stats();
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.hit_ratio(), 1.0);
        assert!(warm.cost(100.0) < cold.cost(100.0));
    }

    #[test]
    fn epochs_separate_tables() {
        let mut c = BufferCache::new(10, 10);
        c.touch_row(1, 0);
        assert!(!c.touch_row(2, 0), "different epoch, different page");
    }

    #[test]
    fn clear_is_cold() {
        let mut c = BufferCache::new(10, 10);
        c.touch_row(0, 0);
        c.clear();
        assert_eq!(c.resident.len(), 0);
        assert!(!c.touch_row(0, 0));
    }

    #[test]
    fn stats_cost_model() {
        let s = CacheStats {
            hits: 10,
            misses: 5,
        };
        assert_eq!(s.accesses(), 15);
        assert!((s.cost(100.0) - (10.0 + 500.0)).abs() < 1e-12);
    }
}
