//! The span flight recorder: lock-free-in-the-steady-state per-thread
//! event buffers, stitched into a deterministic span list at sweep end.
//!
//! Recording threads register once with a [`Recorder`] and from then on
//! append begin/end events to a buffer only they write (the buffer's
//! mutex is uncontended on the hot path — one CAS per event — and is
//! taken by anyone else only while draining a snapshot). Buffers have a
//! fixed capacity; once full, further events are counted as dropped
//! rather than recorded — flight-recorder semantics that bound memory
//! on arbitrarily long sweeps.
//!
//! Stitching ([`Recorder::stitch`]) replays each thread's events in
//! recording order, matches begin/end pairs into [`SpanRecord`]s, and
//! sorts the result by `(thread, seq)` — *thread-then-sequence* order,
//! a pure function of the recorded buffers, independent of drain
//! timing.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-thread event capacity (begin + end are separate events,
/// so this holds ~half as many spans). At 40 bytes per event this is
/// ~5 MiB per recording thread, enough for hundreds of thousands of
/// spans before the flight recorder starts dropping.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 17;

/// Distinguishes recorders so a thread-local buffer cached for one
/// recorder is never reused for another allocated at the same address.
static RECORDER_IDS: AtomicU64 = AtomicU64::new(1);

#[derive(Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Begin,
    End,
}

#[derive(Clone, Copy)]
struct Event {
    kind: EventKind,
    name: &'static str,
    key: u64,
    t_ns: u64,
}

/// One thread's append-only event buffer. Only the owning thread
/// pushes; the mutex exists solely so a snapshot can drain from
/// another thread, and is uncontended during recording.
pub(crate) struct ThreadBuf {
    epoch: Instant,
    capacity: usize,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

impl ThreadBuf {
    /// Append an event; returns `false` (and counts a drop) when the
    /// buffer is at capacity.
    fn push(&self, kind: EventKind, name: &'static str, key: u64) -> bool {
        // Diagnostic wall-clock only: span timings never feed loss
        // numerics (see the crate docs).
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut events = self.events.lock();
        if events.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        events.push(Event {
            kind,
            name,
            key,
            t_ns,
        });
        true
    }
}

thread_local! {
    /// Cache of (recorder id, this thread's buffer) so repeat spans on
    /// the same thread skip the registration lock.
    static THREAD_BUF: RefCell<Option<(u64, Arc<ThreadBuf>)>> = const { RefCell::new(None) };
}

struct RecorderInner {
    id: u64,
    epoch: Instant,
    capacity: usize,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
}

/// The span flight recorder. Cheap to clone (shared state); usually
/// owned by a [`Telemetry`](crate::Telemetry) handle rather than used
/// directly.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Recorder {
    /// A recorder with the default per-thread event capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A recorder whose per-thread buffers hold at most `capacity`
    /// events (begin and end each count as one) before dropping.
    fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(RecorderInner {
                id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed),
                #[expect(
                    clippy::disallowed_methods,
                    reason = "diagnostic epoch for span timestamps; spans never feed \
                              loss numerics"
                )]
                epoch: Instant::now(),
                capacity: capacity.max(2),
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// This thread's buffer, registering it on first use.
    fn thread_buf(&self) -> Arc<ThreadBuf> {
        THREAD_BUF.with(|cell| {
            let mut cached = cell.borrow_mut();
            if let Some((id, buf)) = cached.as_ref() {
                if *id == self.inner.id {
                    return Arc::clone(buf);
                }
            }
            let buf = Arc::new(ThreadBuf {
                epoch: self.inner.epoch,
                capacity: self.inner.capacity,
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            });
            // lint: allow(C1) — registration lock, taken once per
            // (thread, recorder) pair and held only for a Vec push.
            self.inner.threads.lock().push(Arc::clone(&buf));
            *cached = Some((self.inner.id, Arc::clone(&buf)));
            buf
        })
    }

    /// Begin a span; the returned guard records the matching end event
    /// when dropped. Must be ended on the thread that began it.
    pub fn begin(&self, name: &'static str, key: u64) -> SpanGuard {
        let buf = self.thread_buf();
        if buf.push(EventKind::Begin, name, key) {
            SpanGuard {
                buf: Some((buf, name, key)),
            }
        } else {
            // The begin was dropped; recording a dangling end would
            // only unbalance the stitch.
            SpanGuard::disabled()
        }
    }

    /// Events dropped across all thread buffers since the last reset.
    pub fn dropped(&self) -> u64 {
        let threads = self.inner.threads.lock();
        threads
            .iter()
            .map(|b| b.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Drain nothing; *replay* every thread's buffer in recording
    /// order, match begin/end pairs, and return the spans sorted by
    /// `(thread, seq)` — deterministic thread-then-sequence order.
    /// Spans still open (guard not yet dropped) are omitted.
    pub fn stitch(&self) -> Vec<SpanRecord> {
        let threads = self.inner.threads.lock();
        let mut out = Vec::new();
        for (tid, buf) in threads.iter().enumerate() {
            let events = buf.events.lock();
            // Stack of open spans: (begin index, name, key, begin t).
            let mut open: Vec<(usize, &'static str, u64, u64)> = Vec::new();
            for (i, ev) in events.iter().enumerate() {
                match ev.kind {
                    EventKind::Begin => open.push((i, ev.name, ev.key, ev.t_ns)),
                    EventKind::End => {
                        // Guards normally drop LIFO; search from the
                        // top to stay robust to out-of-order drops.
                        let pos = open
                            .iter()
                            .rposition(|&(_, n, k, _)| n == ev.name && k == ev.key);
                        if let Some(p) = pos {
                            let depth = p as u32;
                            let (seq, name, key, t0) = open.remove(p);
                            out.push(SpanRecord {
                                thread: tid as u32,
                                seq: seq as u32,
                                depth,
                                name,
                                key,
                                start_ns: t0,
                                dur_ns: ev.t_ns.saturating_sub(t0),
                            });
                        }
                    }
                }
            }
        }
        out.sort_by_key(|s| (s.thread, s.seq));
        out
    }

    /// Clear every thread buffer and drop counter. Registered threads
    /// stay registered, so recording can resume immediately.
    pub fn reset(&self) {
        let threads = self.inner.threads.lock();
        for buf in threads.iter() {
            buf.events.lock().clear();
            buf.dropped.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.inner.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// RAII guard for an open span; records the end event on drop. A
/// disabled guard (no telemetry installed, or the begin was dropped by
/// a full buffer) does nothing.
pub struct SpanGuard {
    buf: Option<(Arc<ThreadBuf>, &'static str, u64)>,
}

impl SpanGuard {
    /// A guard that records nothing — the recorder-off fast path.
    pub fn disabled() -> Self {
        Self { buf: None }
    }

    /// Whether this guard will record an end event.
    fn is_recording(&self) -> bool {
        self.buf.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((buf, name, key)) = self.buf.take() {
            buf.push(EventKind::End, name, key);
        }
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("recording", &self.is_recording())
            .finish()
    }
}

/// One stitched span: a matched begin/end pair from a single thread's
/// buffer. `seq` is the begin event's index within its thread (so
/// `(thread, seq)` totally orders a snapshot) and `depth` is the
/// nesting level at begin time. Timings are diagnostic wall-clock and
/// never feed loss numerics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Recorder-local index of the recording thread (registration
    /// order).
    pub thread: u32,
    /// Begin-event index within the thread's buffer.
    pub seq: u32,
    /// Nesting depth at begin time (0 = top level on its thread).
    pub depth: u32,
    /// Static span name (see the README span catalogue).
    pub name: &'static str,
    /// Caller-supplied label: scenario slot, sink index, shard, bytes…
    pub key: u64,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_stitch_in_order() {
        let r = Recorder::new();
        {
            let _a = r.begin("outer", 1);
            {
                let _b = r.begin("inner", 2);
            }
            {
                let _c = r.begin("inner", 3);
            }
        }
        let spans = r.stitch();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].key, 2);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].key, 3);
        // (thread, seq) is strictly increasing.
        assert!(spans
            .windows(2)
            .all(|w| (w[0].thread, w[0].seq) < (w[1].thread, w[1].seq)));
    }

    #[test]
    fn open_spans_are_omitted() {
        let r = Recorder::new();
        let _open = r.begin("open", 0);
        {
            let _closed = r.begin("closed", 0);
        }
        let spans = r.stitch();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "closed");
    }

    #[test]
    fn capacity_drops_are_counted_not_recorded() {
        let r = Recorder::with_capacity(4);
        for i in 0..10 {
            let _s = r.begin("tick", i);
        }
        assert_eq!(r.stitch().len(), 2); // 4 events = 2 spans
        assert!(r.dropped() > 0);
        r.reset();
        assert_eq!(r.dropped(), 0);
        assert!(r.stitch().is_empty());
    }

    #[test]
    fn threads_get_distinct_buffers() {
        let r = Recorder::new();
        {
            let _s = r.begin("main", 0);
        }
        let r2 = r.clone();
        std::thread::spawn(move || {
            let _s = r2.begin("worker", 0);
        })
        .join()
        .expect("worker thread");
        let spans = r.stitch();
        assert_eq!(spans.len(), 2);
        let threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
        assert_ne!(threads[0], threads[1]);
    }

    #[test]
    fn two_recorders_on_one_thread_do_not_cross() {
        let a = Recorder::new();
        let b = Recorder::new();
        {
            let _s = a.begin("for-a", 0);
        }
        {
            let _s = b.begin("for-b", 0);
        }
        assert_eq!(a.stitch().len(), 1);
        assert_eq!(a.stitch()[0].name, "for-a");
        assert_eq!(b.stitch().len(), 1);
        assert_eq!(b.stitch()[0].name, "for-b");
    }
}
