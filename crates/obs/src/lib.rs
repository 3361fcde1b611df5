//! # riskpipe-obs — pipeline-wide telemetry
//!
//! The paper's central claim is that aggregate risk analytics is
//! *data-bound*, not compute-bound (Varghese & Rau-Chaplin, SC 2012) —
//! which a pipeline can only demonstrate about itself if it can show
//! where a sweep's wall-clock goes. This crate is that layer: a span
//! flight [`Recorder`] plus a [`MetricsRegistry`], bundled behind one
//! [`Telemetry`] handle and threaded through the execution core
//! (stage-1 cache, stage-2 engines, sink fan-out, warehouse shuffle,
//! durable fsync, pool tasks).
//!
//! ## Design rules
//!
//! * **Timings are diagnostic-only.** Span durations come from the
//!   wall clock and never feed loss numerics; the recorder's epoch is
//!   the crate's one `Instant::now`, under an `#[expect]` of the
//!   workspace's `clippy::disallowed_methods` ban. The metrics
//!   registry holds *no* time-derived values at all — its snapshots
//!   are **bit-identical across thread counts** because every metric
//!   is an unsigned integer updated by commutative atomic adds over
//!   deterministic quantities.
//! * **Disabled means free.** All instrumentation sites go through the
//!   thread-local context ([`install`] / [`current`]); with nothing
//!   installed, a span site is one thread-local read and a branch
//!   (enforced by the `obs_overhead` perf-gate check).
//! * **Deterministic drains.** Span buffers are stitched in
//!   thread-then-sequence order and metric snapshots are name-ordered
//!   maps, so exports are a pure function of what was recorded.
//!
//! ## Usage
//!
//! ```
//! use riskpipe_obs::Telemetry;
//!
//! let telemetry = Telemetry::new();
//! {
//!     let _ctx = riskpipe_obs::install(&telemetry);
//!     let _span = riskpipe_obs::span_key("stage2.engine", 0);
//!     riskpipe_obs::counter_add("stage2.scenarios", 1);
//! }
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.metrics().counter("stage2.scenarios"), 1);
//! assert_eq!(snapshot.spans().len(), 1);
//! println!("{}", snapshot.to_json());
//! ```
//!
//! In the pipeline the `install` happens inside
//! `RiskSessionBuilder::telemetry(...)`-configured sessions (and is
//! propagated into pool tasks by `riskpipe-exec`), so library code
//! only ever calls the free functions below.

#![warn(missing_docs)]
// W1: serving-path library code returns typed errors; a panic aborts a sweep.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod export;
mod metrics;
mod recorder;

pub use export::JSON_SCHEMA_VERSION;
pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use recorder::{Recorder, SpanGuard, SpanRecord, DEFAULT_SPAN_CAPACITY};

use std::cell::RefCell;
use std::marker::PhantomData;

/// A recorder + metrics registry pair: the one handle the pipeline
/// passes around. Cheap to clone — clones share the same buffers and
/// metric cells, so a snapshot through any clone sees everything.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    recorder: Recorder,
    metrics: MetricsRegistry,
}

impl Telemetry {
    /// Telemetry with the default span capacity
    /// ([`DEFAULT_SPAN_CAPACITY`] events per recording thread).
    pub fn new() -> Self {
        Self::default()
    }

    /// The span recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Snapshot everything recorded so far: stitched spans
    /// (thread-then-sequence order), the dropped-event count, and the
    /// metric values. The recorder keeps recording; use
    /// [`Telemetry::reset`] to start a fresh window.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: self.recorder.stitch(),
            dropped: self.recorder.dropped(),
            metrics: self.metrics.snapshot(),
        }
    }

    /// Clear all span buffers and zero all metrics.
    pub fn reset(&self) {
        self.recorder.reset();
        self.metrics.reset();
    }
}

/// Everything a [`Telemetry`] recorded, frozen: the stitched spans,
/// the flight-recorder drop count, and the metric snapshot. Export
/// with [`TelemetrySnapshot::to_json`] /
/// [`TelemetrySnapshot::to_chrome_trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    spans: Vec<SpanRecord>,
    dropped: u64,
    metrics: MetricsSnapshot,
}

impl TelemetrySnapshot {
    /// The stitched spans, in thread-then-sequence order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Spans with the given name, in thread-then-sequence order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Events the flight recorder dropped (buffers at capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The metric values.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }
}

thread_local! {
    /// The telemetry installed on this thread, if any. All span/metric
    /// free functions below are gated on it.
    static CURRENT: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// Guard restoring the previously installed telemetry when dropped.
/// Returned by [`install`]; must be dropped on the installing thread
/// (it is `!Send`).
pub struct ContextGuard {
    prev: Option<Telemetry>,
    restored: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if !self.restored {
            self.restored = true;
            let prev = self.prev.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

impl std::fmt::Debug for ContextGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextGuard").finish()
    }
}

/// Install `telemetry` as this thread's current context; every span
/// and metric free function records through it until the returned
/// guard drops (which restores whatever was installed before —
/// installs nest).
pub fn install(telemetry: &Telemetry) -> ContextGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(telemetry.clone()));
    ContextGuard {
        prev,
        restored: false,
        _not_send: PhantomData,
    }
}

/// The telemetry installed on this thread, if any. Pool executors use
/// this to propagate the spawner's context into spawned tasks.
pub fn current() -> Option<Telemetry> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether any telemetry is installed on this thread. One
/// thread-local read — the recorder-off fast path.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Begin a span named `name` (key 0) against the current telemetry;
/// no-op guard when none is installed.
pub fn span(name: &'static str) -> SpanGuard {
    span_key(name, 0)
}

/// Begin a span with a numeric key label (scenario slot, sink index,
/// shard, bytes…) against the current telemetry; no-op guard when none
/// is installed.
pub fn span_key(name: &'static str, key: u64) -> SpanGuard {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(t) => t.recorder.begin(name, key),
        None => SpanGuard::disabled(),
    })
}

/// Add `delta` to the counter `name` on the current telemetry; no-op
/// when none is installed.
pub fn counter_add(name: &'static str, delta: u64) {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow().as_ref() {
            t.metrics.counter(name).add(delta);
        }
    });
}

/// Record `value` into the fixed-bucket histogram `name` (created with
/// `bounds` on first use) on the current telemetry; no-op when none is
/// installed.
pub fn histogram_record(name: &'static str, bounds: &[u64], value: u64) {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow().as_ref() {
            t.metrics.histogram(name, bounds).record(value);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_functions_are_noops_without_install() {
        assert!(!enabled());
        {
            let _s = span("ghost");
            counter_add("ghost", 1);
            histogram_record("ghost", &[1], 1);
        }
        // Nothing anywhere to snapshot — a fresh telemetry sees none
        // of it.
        let t = Telemetry::new();
        let snap = t.snapshot();
        assert!(snap.spans().is_empty());
        assert_eq!(snap.metrics(), &MetricsSnapshot::default());
    }

    #[test]
    fn installs_nest_and_restore() {
        let outer = Telemetry::new();
        let inner = Telemetry::new();
        {
            let _a = install(&outer);
            counter_add("n", 1);
            {
                let _b = install(&inner);
                counter_add("n", 10);
            }
            counter_add("n", 100);
        }
        assert!(!enabled());
        assert_eq!(outer.snapshot().metrics().counter("n"), 101);
        assert_eq!(inner.snapshot().metrics().counter("n"), 10);
    }

    #[test]
    fn snapshot_sees_spans_and_metrics_together() {
        let t = Telemetry::new();
        {
            let _g = install(&t);
            let _outer = span_key("a", 1);
            let _inner = span_key("b", 2);
            counter_add("c", 5);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans().len(), 2);
        assert_eq!(snap.spans_named("b").count(), 1);
        assert_eq!(snap.metrics().counter("c"), 5);
        assert_eq!(snap.dropped(), 0);
    }

    #[test]
    fn reset_clears_both_halves() {
        let t = Telemetry::new();
        {
            let _g = install(&t);
            let _s = span("x");
            counter_add("x", 1);
        }
        t.reset();
        let snap = t.snapshot();
        assert!(snap.spans().is_empty());
        assert_eq!(snap.metrics().counter("x"), 0);
    }
}
