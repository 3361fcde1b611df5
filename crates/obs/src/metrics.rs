//! The metrics registry: named counters and fixed-bucket histograms
//! whose snapshots are **bit-identical across thread counts**.
//!
//! All metric values are unsigned integers updated with atomic adds
//! (commutative, associative), so however the pipeline's work is
//! scheduled, a metric that counts deterministic quantities — builds,
//! deliveries, bytes written — snapshots to exactly the same value on
//! 1, 2 or 8 threads. The registry deliberately records **no wall-clock
//! derived values**: timings live in the span recorder and are
//! diagnostic-only.
//!
//! Handles ([`Counter`], [`Histogram`]) are resolved once
//! through the registry lock and then update lock-free; snapshots are
//! ordered `BTreeMap`s so exports and comparisons are deterministic.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing named counter. Cloneable handle; all
/// clones share the same cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistCell {
    bounds: Vec<u64>,
    /// One count per bound plus a final overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples. Bucket `i` counts
/// samples `<= bounds[i]` (first matching bound); the final bucket
/// counts everything larger. Recording is a single atomic add per
/// sample, so snapshots of deterministic sample sets are bit-identical
/// across thread counts.
#[derive(Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.total.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.0.bounds)
            .field("total", &self.total())
            .finish()
    }
}

enum Cell {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<HistCell>),
}

/// A registry of named metrics. Cheap to clone (shared state); usually
/// owned by a [`Telemetry`](crate::Telemetry) handle. Resolving a
/// handle takes the registry lock once; updates through the handle are
/// lock-free atomic adds.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Cell>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use. If the
    /// name is already registered as a different metric kind, a
    /// detached counter is returned (recorded values are discarded)
    /// rather than corrupting the existing metric.
    pub fn counter(&self, name: &str) -> Counter {
        // lint: allow(C1) — registry lock, held only for a BTreeMap
        // entry lookup/insert; handles update lock-free afterwards.
        let mut map = self.inner.lock();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Cell::Counter(Arc::new(AtomicU64::new(0))));
        match cell {
            Cell::Counter(c) => Counter(Arc::clone(c)),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// The histogram named `name` with the given bucket upper bounds
    /// (ascending), created empty on first use. An existing histogram
    /// keeps its original bounds; kind clashes behave as for
    /// [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        // lint: allow(C1) — registry lock, bounded entry lookup only.
        let mut map = self.inner.lock();
        let cell = map.entry(name.to_string()).or_insert_with(|| {
            let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Cell::Histogram(Arc::new(HistCell {
                bounds: bounds.to_vec(),
                counts,
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }))
        });
        match cell {
            Cell::Histogram(h) => Histogram(Arc::clone(h)),
            _ => Histogram(Arc::new(HistCell {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })),
        }
    }

    /// A point-in-time snapshot of every registered metric, ordered by
    /// name. Deterministic: snapshotting after the same logical work
    /// yields equal snapshots regardless of thread count.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, cell) in map.iter() {
            match cell {
                Cell::Counter(c) => {
                    snap.counters
                        .insert(name.clone(), c.load(Ordering::Relaxed));
                }
                Cell::Histogram(h) => {
                    snap.histograms.insert(
                        name.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                            total: h.total.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                        },
                    );
                }
            }
        }
        snap
    }

    /// Reset every registered metric to zero (names stay registered).
    pub fn reset(&self) {
        let map = self.inner.lock();
        for cell in map.values() {
            match cell {
                Cell::Counter(c) => c.store(0, Ordering::Relaxed),
                Cell::Histogram(h) => {
                    for c in &h.counts {
                        c.store(0, Ordering::Relaxed);
                    }
                    h.total.store(0, Ordering::Relaxed);
                    h.sum.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("metrics", &map.len())
            .finish()
    }
}

/// A frozen [`Histogram`]: bucket bounds, per-bucket counts (one extra
/// overflow bucket), total sample count and sample sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`
    /// (the last bucket is overflow).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub total: u64,
    /// Sum of all sample values.
    pub sum: u64,
}

/// A frozen [`MetricsRegistry`]: name-ordered maps of every metric's
/// value. `PartialEq` compares exact values, which is how the test
/// suite pins bit-identity across thread counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge `other` into `self`: counters and histogram buckets add.
    /// Histograms with mismatched bounds keep `self`'s values
    /// unchanged. Merging is commutative, so any merge order yields the
    /// same result — the determinism contract for multi-registry setups.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
                Some(mine) if mine.bounds == h.bounds => {
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.total += h.total;
                    mine.sum += h.sum;
                }
                Some(_) => {}
            }
        }
    }

    /// Value of the counter `name`, zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of the histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_a_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.add(1);
        assert_eq!(reg.snapshot().counter("x"), 3);
    }

    #[test]
    fn histogram_buckets_samples() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("sz", &[10, 100]);
        h.record(5);
        h.record(10);
        h.record(50);
        h.record(1000);
        let snap = reg.snapshot();
        let hs = snap.histogram("sz").expect("registered");
        assert_eq!(hs.counts, vec![2, 1, 1]);
        assert_eq!(hs.total, 4);
        assert_eq!(hs.sum, 1065);
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let reg = MetricsRegistry::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = reg.counter("n");
            let h = reg.histogram("v", &[50]);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    c.add(1);
                    h.record(i % 100);
                }
            }));
        }
        for t in handles {
            t.join().expect("worker");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("n"), 8000);
        let hs = snap.histogram("v").expect("registered");
        assert_eq!(hs.total, 8000);
        assert_eq!(hs.counts, vec![8 * 510, 8 * 490]);
    }

    #[test]
    fn merge_is_commutative() {
        let a = {
            let r = MetricsRegistry::new();
            r.counter("c").add(3);
            r.histogram("h", &[10]).record(4);
            r.snapshot()
        };
        let b = {
            let r = MetricsRegistry::new();
            r.counter("c").add(4);
            r.histogram("h", &[10]).record(40);
            r.snapshot()
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 7);
        assert_eq!(ab.histogram("h").expect("h").counts, vec![1, 1]);
    }

    #[test]
    fn kind_clash_returns_detached_handle() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(1);
        reg.histogram("x", &[10]).record(99);
        // The original counter is untouched.
        assert_eq!(reg.snapshot().counter("x"), 1);
        assert_eq!(reg.snapshot().histogram("x"), None);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(5);
        reg.histogram("h", &[1]).record(9);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 0);
        assert_eq!(snap.histogram("h").expect("h").total, 0);
    }
}
