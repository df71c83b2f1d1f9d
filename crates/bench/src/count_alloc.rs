//! A counting global allocator for the bench binaries.
//!
//! Wall-time alone hides a class of regressions: an optimization can keep
//! events/sec flat on one machine while tripling allocator pressure (which
//! shows up as wall-time only under different heap states or allocators).
//! Every bench binary installs [`CountingAlloc`] as its `#[global_allocator]`;
//! the perf harness snapshots [`allocs`] around each single-threaded matrix
//! cell and reports **allocations per simulated event** in the committed
//! `BENCH_*.json` trajectory, so future PRs can see allocator-pressure
//! regressions, not just wall-time — and [`crate::gate::check`] fails the
//! build when a scenario's figure regresses past its committed
//! [`ALLOC_CEILING`](crate::scenarios::Scenario::ALLOC_CEILING).
//!
//! The counter is a process-wide relaxed atomic: exact in the `--jobs 1`
//! measurement pass (one cell at a time on one thread), and deliberately
//! not reported for parallel passes where concurrent cells would share it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a process-wide allocation counter. Install
/// with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: smapp_bench::count_alloc::CountingAlloc = smapp_bench::count_alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only addition is a relaxed
// counter increment, which allocates nothing and cannot fail.
unsafe impl GlobalAlloc for CountingAlloc {
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

/// Heap allocations (alloc + alloc_zeroed + realloc calls) since process
/// start — 0 forever when no bench binary installed [`CountingAlloc`].
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
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
