//! Live-heap accounting: the memory metric.
//!
//! Peak *resident* memory is the number a user sees, but on a
//! multi-threaded program it mostly measures the allocator: which
//! arenas the pool threads landed in and how much freed memory malloc
//! kept. Here it moves by ±20 % between identical runs. What a change
//! to the program controls is how many bytes it holds live at once, so
//! the benchmark counts exactly that: a [`GlobalAlloc`] wrapper over
//! the system allocator keeps a running total of live bytes and its
//! high-water mark.
//!
//! The fast path is one thread-local add: a thread reports to the
//! shared counters only when its pending delta passes
//! [`FLUSH_BYTES`], so pool threads do not bounce a cache line on
//! every small allocation (the shuffle allocates two vectors per
//! record). The peak is therefore exact to within `FLUSH_BYTES` per
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting live bytes.
pub struct CountingAllocator;

/// Pending per-thread delta that forces a report to the shared
/// counters.
const FLUSH_BYTES: isize = 4096;

// Statistics only: neither counter publishes other data.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator can neither allocate nor register a dtor.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let report = PENDING
        .try_with(|pending| {
            let total = pending.get() + delta;
            if total.abs() >= FLUSH_BYTES {
                pending.set(0);
                Some(total)
            } else {
                pending.set(total);
                None
            }
        })
        // Thread-local storage is gone (thread teardown): report directly.
        .unwrap_or(Some(delta));
    if let Some(total) = report {
        let live = LIVE.fetch_add(total, Ordering::Relaxed) + total;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only atomics and a `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY (all four methods): the caller's obligations are those
    // of the `GlobalAlloc` method of the same name and pass unchanged
    // to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    // SAFETY: see `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    // SAFETY: see `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    // SAFETY: see `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` as in `dealloc`; `new_size` is the
        // caller's to get right.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        new_ptr
    }
}

/// Start a new high-water window at the current live total.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most bytes live at once since the last [`reset_peak`], in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation() {
        reset_peak();
        let before = peak_heap_mb();
        let block = vec![1u8; 32 << 20];
        std::hint::black_box(&block);
        let with_block = peak_heap_mb();
        drop(block);
        // Other tests allocate concurrently, but nothing near 32 MB.
        assert!(with_block - before > 30.0, "{before} -> {with_block}");
        reset_peak();
        assert!(peak_heap_mb() < with_block - 30.0);
    }
}
