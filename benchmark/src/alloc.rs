//! The benchmark's own counting allocator.
//!
//! Kept here rather than shared with `smapp-bench` so that the number the
//! benchmark reports cannot drift with a refactor of the crate it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a process-wide count of allocation calls.
pub struct Counting;

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the only addition is a relaxed counter increment, which
// allocates nothing and cannot fail.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) since process start.
/// The load is single-threaded: it is a statistic that publishes no data.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
