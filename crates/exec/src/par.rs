//! Rayon-style data-parallel helpers built on [`ThreadPool::scope`].
//!
//! All helpers are *deterministic in result placement*: `par_map_collect`
//! writes result `i` to slot `i`, and `par_reduce` folds partial results
//! in range order, so outputs are independent of scheduling. (Floating
//! point reductions are therefore reproducible run-to-run on any thread
//! count.)

use crate::partition::grain_ranges;
use crate::pool::ThreadPool;
use std::mem::MaybeUninit;
use std::ops::Range;

/// A raw pointer that asserts Send+Sync; used to hand each task its
/// disjoint output slots. Soundness argument at the use sites.
struct SendPtr<T>(*mut T);
// Manual impls: the derive would demand `T: Copy/Clone`, but the pointer
// itself is always trivially copyable.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: SendPtr is only constructed inside this module, always from a
// pointer into a live allocation (`Vec` spare capacity or a slice) that
// outlives the pool scope it is handed to. Every task derives its writes
// from a disjoint `Range<usize>`, so no two threads ever touch the same
// slot, and the scoped pool joins all tasks before the allocation is read
// or dropped. Sending the raw pointer across threads is therefore sound.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared references to SendPtr only expose the pointer value
// itself (Copy); all dereferences go through per-task disjoint ranges as
// documented on `Send` above, so concurrent `&SendPtr` access cannot race.
unsafe impl<T> Sync for SendPtr<T> {}

/// Run `f(item)` as one pool task per item and wait for all of them —
/// the one nested-scope site every helper below shares.
fn spawn_each<T, F>(pool: &ThreadPool, items: impl Iterator<Item = T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    // lint: allow(C1) — nested scope from a pool worker: a thread
    // waiting on scope completion help-first steals and executes
    // queued tasks instead of parking (see `ThreadPool::scope` and
    // `worker_loop`), so the wait always makes progress and is
    // deadlock-free by construction.
    pool.scope(|s| {
        for item in items {
            let f = &f;
            s.spawn(move || f(item));
        }
    });
}

/// Run `f` over `0..len` split into ranges of at most `grain` elements,
/// in parallel. Runs inline when a single range suffices.
pub fn par_for<F>(pool: &ThreadPool, len: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let ranges = grain_ranges(len, grain);
    if ranges.len() == 1 {
        f(0..len);
        return;
    }
    spawn_each(pool, ranges.into_iter(), f);
}

/// Compute `f(i)` for every `i in 0..len` in parallel, collecting results
/// in index order.
pub fn par_map_collect<T, F>(pool: &ThreadPool, len: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
    // SAFETY: MaybeUninit needs no initialisation; every slot is written
    // exactly once below before the vector is transmuted to Vec<T>.
    unsafe { out.set_len(len) };
    let base = SendPtr(out.as_mut_ptr());
    let ranges = grain_ranges(len, grain);
    if ranges.len() == 1 {
        for i in 0..len {
            // SAFETY: i < len = allocation size; single-threaded here.
            unsafe { (*base.0.add(i)).write(f(i)) };
        }
    } else {
        spawn_each(pool, ranges.into_iter(), move |r: Range<usize>| {
            // Capture the whole SendPtr wrapper (edition-2021 disjoint
            // capture would otherwise grab the bare pointer field,
            // which is !Send).
            let base = base;
            for i in r {
                // SAFETY: ranges are disjoint, each slot written
                // exactly once, and the scope keeps `out` alive until
                // all tasks finish.
                unsafe { (*base.0.add(i)).write(f(i)) };
            }
        });
    }
    // SAFETY: all len slots are initialised; rebuild as Vec<T> keeping
    // the same allocation.
    unsafe {
        let ptr = out.as_mut_ptr() as *mut T;
        let cap = out.capacity();
        std::mem::forget(out);
        Vec::from_raw_parts(ptr, len, cap)
    }
}

/// Apply `f(chunk_index, chunk)` to consecutive disjoint chunks of
/// `data`, in parallel.
pub fn par_chunks_mut<T, F>(pool: &ThreadPool, data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if data.is_empty() {
        return;
    }
    if data.len() <= chunk {
        f(0, data);
        return;
    }
    spawn_each(pool, data.chunks_mut(chunk).enumerate(), |(i, c)| f(i, c));
}

/// Parallel map-reduce over `0..len`: each range starts from
/// `identity()`, is folded by `fold_range`, and the per-range partials
/// are combined **in range order** by `combine` (deterministic).
pub fn par_reduce<T, I, M, C>(
    pool: &ThreadPool,
    len: usize,
    grain: usize,
    identity: I,
    fold_range: M,
    combine: C,
) -> T
where
    T: Send,
    I: Fn() -> T + Sync,
    M: Fn(Range<usize>, T) -> T + Sync,
    C: Fn(T, T) -> T,
{
    if len == 0 {
        return identity();
    }
    let ranges = grain_ranges(len, grain);
    let partials = par_map_collect(pool, ranges.len(), 1, |i| {
        fold_range(ranges[i].clone(), identity())
    });
    let mut iter = partials.into_iter();
    // `grain_ranges` yields at least one range for len > 0, so the
    // identity fallback is unreachable in practice — it just keeps the
    // fold total without a panic path.
    let first = iter.next().unwrap_or_else(&identity);
    iter.fold(first, combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn par_for_covers_all_indices() {
        let p = pool();
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        par_for(&p, 1000, 37, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_is_noop() {
        par_for(&pool(), 0, 8, |_| panic!("should not run"));
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let p = pool();
        let out = par_map_collect(&p, 500, 13, |i| i * 3);
        assert_eq!(out.len(), 500);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 3);
        }
    }

    #[test]
    fn par_map_collect_non_copy_type() {
        let p = pool();
        let out = par_map_collect(&p, 100, 7, |i| format!("item-{i}"));
        assert_eq!(out[42], "item-42");
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn par_map_collect_empty() {
        let out: Vec<u32> = par_map_collect(&pool(), 0, 8, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn par_chunks_mut_transforms_in_place() {
        let p = pool();
        let mut data: Vec<u64> = (0..1024).collect();
        par_chunks_mut(&p, &mut data, 100, |_, chunk| {
            for v in chunk {
                *v *= 2;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i * 2) as u64);
        }
    }

    #[test]
    fn par_chunks_mut_chunk_indices_are_correct() {
        let p = pool();
        let mut data = vec![0usize; 95];
        par_chunks_mut(&p, &mut data, 10, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[9], 0);
        assert_eq!(data[10], 1);
        assert_eq!(data[94], 9);
    }

    #[test]
    fn par_reduce_sums_deterministically() {
        let p = pool();
        let total = par_reduce(
            &p,
            10_000,
            97,
            || 0u64,
            |r, acc| acc + r.map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn par_reduce_empty_yields_identity() {
        let p = pool();
        let v = par_reduce(&p, 0, 8, || 99u32, |_, a| a, |a, _| a);
        assert_eq!(v, 99);
    }

    #[test]
    fn par_reduce_float_reproducible_across_runs() {
        let p = pool();
        let run = || {
            par_reduce(
                &p,
                100_000,
                1000,
                || 0.0f64,
                |r, acc| acc + r.map(|i| (i as f64).sqrt()).sum::<f64>(),
                |a, b| a + b,
            )
        };
        let a = run();
        let b = run();
        // Bitwise identical because partials are combined in range order.
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
