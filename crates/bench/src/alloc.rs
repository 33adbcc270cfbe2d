//! Allocations as a count: a [`Counting`] wrapper over the system
//! allocator that tallies allocation calls, the bytes they request, and
//! the bytes held.
//!
//! The library does not install it. A test or bench binary that wants
//! counts declares it as that binary's global allocator:
//!
//! ```
//! use skyquery_bench::alloc::{count, Counting};
//!
//! #[global_allocator]
//! static ALLOC: Counting = Counting;
//!
//! fn main() {
//!     let (v, counts) = count(|| vec![0u8; 64]);
//!     assert_eq!((counts.calls, counts.bytes, counts.live), (1, 64, 64));
//!     assert_eq!(v.len(), 64);
//!     assert_eq!(count(|| drop(v)).1.live, -64);
//! }
//! ```
//!
//! and wraps the code it measures in [`count`]. The tallies are process
//! wide, so a measurement is exact only while nothing else in the
//! process allocates: one test in a binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` call and the bytes each requests (a `realloc` requests its
/// new size), and keeping the bytes held: each allocation adds its size,
/// each free takes it away, and a `realloc` adds the difference.
pub struct Counting;

fn tally(bytes: usize, freed: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    LIVE.fetch_add(bytes as i64 - freed as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the tallies are lock-free atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls, requested bytes and held bytes over one measured
/// span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// Bytes held at the end of the span less those held at its start:
    /// what the span left allocated, negative when it freed more.
    pub live: i64,
}

fn now() -> Counts {
    Counts {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
    }
}

/// Runs `f` and returns its result with the allocations made while it
/// ran. All zero unless [`Counting`] is the global allocator.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = now();
    let out = f();
    let after = now();
    let counts = Counts {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        live: after.live - before.live,
    };
    (out, counts)
}
