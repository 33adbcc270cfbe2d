//! Allocations as a count: a [`Counting`] wrapper over the system
//! allocator that tallies allocation calls and the bytes they request.
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
//!     assert_eq!((counts.calls, counts.bytes), (1, 64));
//!     assert_eq!(v.len(), 64);
//! }
//! ```
//!
//! and wraps the code it measures in [`count`]. The tallies are process
//! wide, so a measurement is exact only while nothing else in the
//! process allocates: one test in a binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` call and the bytes each requests (a `realloc` requests its
/// new size). Frees are not counted.
pub struct Counting;

fn tally(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the tallies are lock-free atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls and requested bytes over one measured span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

fn now() -> Counts {
    Counts {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
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
    };
    (out, counts)
}
