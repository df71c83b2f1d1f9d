//! A counting global allocator for the bench binaries.
//!
//! Wall-time alone hides a class of regressions: an optimization can keep
//! events/sec flat on one machine while tripling allocator pressure (which
//! shows up as wall-time only under different heap states or allocators).
//! Every bench binary installs [`CountingAlloc`] as its `#[global_allocator]`;
//! the perf harness snapshots [`allocs`] around each single-threaded matrix
//! cell and reports **allocations per simulated event** per row, and the
//! tier-1 `tests/alloc_ceilings.rs` fails the build when a row's figure
//! regresses past its scenario's committed
//! [`ALLOC_CEILING`](crate::scenarios::Scenario::ALLOC_CEILING).
//!
//! Beside the call counter it tracks the bytes currently allocated and
//! their high-water mark ([`live_bytes`], [`peak_live_bytes`],
//! [`reset_peak`]): what a run holds at its worst moment, without reading
//! a clock or `/proc`.
//!
//! The counters are process-wide relaxed atomics: exact in the `--jobs 1`
//! measurement pass (one cell at a time on one thread), and deliberately
//! not reported for parallel passes where concurrent cells would share them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Account for a block of `old` bytes becoming one of `new` bytes (0 on
/// either side for a plain alloc or dealloc).
fn resize_live(old: usize, new: usize) {
    if new >= old {
        let grown = (new - old) as u64;
        let live = LIVE_BYTES.fetch_add(grown, Ordering::Relaxed) + grown;
        PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    } else {
        LIVE_BYTES.fetch_sub((old - new) as u64, Ordering::Relaxed);
    }
}

/// The system allocator plus a process-wide allocation counter. Install
/// with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: smapp_bench::count_alloc::CountingAlloc = smapp_bench::count_alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only additions are relaxed
// counter updates, which allocate nothing and cannot fail. A failed
// (null) allocation leaves the byte counters untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            resize_live(0, layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize_live(layout.size(), 0);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            resize_live(0, layout.size());
        }
        ptr
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            resize_live(layout.size(), new_size);
        }
        new_ptr
    }
}

/// Heap allocations (alloc + alloc_zeroed + realloc calls) since process
/// start — 0 forever when no bench binary installed [`CountingAlloc`].
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes currently allocated (requested sizes, not allocator overhead).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most [`live_bytes`] has been since process start or the last
/// [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the current [`live_bytes`], so the
/// next [`peak_live_bytes`] describes only what ran in between.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(live_bytes(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The bench lib's own unit-test binary installs the counting allocator,
    // proving the counter actually advances under real allocation traffic.
    #[global_allocator]
    static TEST_ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counter_advances_on_allocation() {
        let before = allocs();
        let v: Vec<u64> = (0..1024).collect();
        let grown = {
            let mut s = Vec::with_capacity(1);
            for i in 0..100 {
                s.push(i); // forces reallocs
            }
            s.len()
        };
        let after = allocs();
        assert!(v.len() == 1024 && grown == 100);
        assert!(
            after > before,
            "allocation counter must advance: before={before} after={after}"
        );
    }
}
