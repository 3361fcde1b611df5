//! Runtime witness for the statically derived lock-order graph.
//!
//! `riskpipe-lint`'s L1/L2/L3 pass proves the workspace lock-order
//! graph acyclic and exports it as a manifest
//! (`riskpipe-lint --emit-lock-graph`, committed at the repo root as
//! `lock-order.manifest`). This module closes the loop from the other
//! side: the named [`Mutex`]/[`Condvar`] wrappers below record every
//! acquisition on a per-thread held stack and assert — *before*
//! blocking on the inner lock, so a violation panics instead of
//! deadlocking — that the observed order is an edge of the manifest's
//! transitive closure. Static analysis and dynamic witness validate
//! each other: a lint false negative shows up as a witness panic under
//! the test suite, a stale manifest shows up as lint drift.
//!
//! Everything observational is behind `cfg(feature = "lockwitness")`.
//! With the feature off (every release build), the wrappers compile to
//! the plain `parking_lot` shim types — the lock name is not even
//! stored — so the abstraction has zero cost exactly where the paper's
//! throughput numbers are measured.
//!
//! Lock names must match the lint pass's lock identities, which are
//! the *binding names* the locks are reached through (`self.index`
//! holds lock `index`). Same-name re-acquisition on one thread is
//! always a violation: with non-reentrant parking_lot semantics it is
//! a self-deadlock the static pass deliberately leaves to the witness
//! (name-merged identities make it a false positive factory there).

use std::ops::{Deref, DerefMut};
use std::time::Duration;

pub use parking_lot::WaitTimeoutResult;

/// A named mutex: `parking_lot` semantics plus (under the
/// `lockwitness` feature) order-manifest enforcement.
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lockwitness")]
    name: &'static str,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a mutex registered under `name` — the lint lock identity
    /// (the binding name the lock is reached through at call sites).
    #[allow(
        unused_variables,
        reason = "`name` is stored only under the lockwitness feature"
    )]
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            #[cfg(feature = "lockwitness")]
            name,
            inner: parking_lot::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex. Under `lockwitness`, first assert the
    /// acquisition respects the manifest given everything this thread
    /// already holds (panicking *before* parking on the inner lock).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lockwitness")]
        witness::on_acquire(self.name);
        MutexGuard {
            #[cfg(feature = "lockwitness")]
            name: self.name,
            inner: self.inner.lock(),
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard returned by [`Mutex::lock`]; releases the witness entry on
/// drop (releases may be non-LIFO — only acquisition order is
/// checked).
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockwitness")]
    name: &'static str,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "lockwitness")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        witness::on_release(self.name);
    }
}

/// A condition variable aware of the witness: waiting releases the
/// guard's held-stack entry while parked and re-checks the order when
/// the mutex is re-acquired on wakeup.
#[derive(Default)]
pub struct Condvar {
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Self {
            inner: parking_lot::Condvar::new(),
        }
    }

    /// Block until notified, releasing `guard`'s mutex while parked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(feature = "lockwitness")]
        witness::on_wait_begin(guard.name);
        self.inner.wait(&mut guard.inner);
        #[cfg(feature = "lockwitness")]
        witness::on_wait_end(guard.name);
    }

    /// Block until notified or `timeout` elapses, releasing `guard`'s
    /// mutex while parked.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        #[cfg(feature = "lockwitness")]
        witness::on_wait_begin(guard.name);
        let res = self.inner.wait_for(&mut guard.inner, timeout);
        #[cfg(feature = "lockwitness")]
        witness::on_wait_end(guard.name);
        res
    }

    /// Wake one waiter; returns whether a thread was woken.
    pub fn notify_one(&self) -> bool {
        self.inner.notify_one()
    }

    /// Wake every waiter; returns how many threads were woken.
    pub fn notify_all(&self) -> usize {
        self.inner.notify_all()
    }
}

/// Cumulative witness activity for this process.
///
/// Which thread acquires which lock how many times is decided by the
/// scheduler, so these counts are *schedule-dependent* — which is why
/// they live in plain process-local atomics and deliberately stay out
/// of the deterministic metrics registry (whose snapshots are pinned
/// bit-identical across thread counts). Read them for diagnostics,
/// never into pipeline outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WitnessStats {
    /// Order-checked lock acquisitions (condvar re-acquisitions on
    /// wakeup included).
    pub acquisitions: u64,
    /// Condvar waits that released a held entry while parked.
    pub waits: u64,
}

/// Snapshot the process-wide witness counters. Always zero with the
/// `lockwitness` feature off.
pub fn stats() -> WitnessStats {
    #[cfg(feature = "lockwitness")]
    {
        witness::stats()
    }
    #[cfg(not(feature = "lockwitness"))]
    {
        WitnessStats::default()
    }
}

#[cfg(feature = "lockwitness")]
mod witness {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
    static WAITS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn stats() -> super::WitnessStats {
        super::WitnessStats {
            acquisitions: ACQUISITIONS.load(Ordering::Relaxed),
            waits: WAITS.load(Ordering::Relaxed),
        }
    }

    /// The parsed manifest: known locks plus the transitive closure of
    /// its edges ("may be held when acquiring").
    struct Manifest {
        locks: BTreeSet<String>,
        closure: BTreeMap<String, BTreeSet<String>>,
    }

    fn parse(text: &str) -> Manifest {
        let mut locks = BTreeSet::new();
        let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some("lock"), Some(name), None) => {
                    locks.insert(name.to_string());
                }
                (Some("edge"), Some(held), Some(acquired)) => {
                    edges
                        .entry(held.to_string())
                        .or_default()
                        .insert(acquired.to_string());
                }
                #[expect(
                    clippy::panic,
                    reason = "the witness's contract is to abort loudly on a bad manifest; \
                              it is compiled into debug and test builds only"
                )]
                _ => panic!("lockwitness: malformed manifest line `{line}`"),
            }
        }
        // Transitive closure by saturation (the graph is tiny and,
        // having passed lint L1, acyclic).
        loop {
            let mut grew = false;
            let snapshot: Vec<(String, Vec<String>)> = edges
                .iter()
                .map(|(k, v)| (k.clone(), v.iter().cloned().collect()))
                .collect();
            for (held, mids) in &snapshot {
                for mid in mids {
                    for next in edges.get(mid).cloned().unwrap_or_default() {
                        if edges.entry(held.clone()).or_default().insert(next) {
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        Manifest {
            locks,
            closure: edges,
        }
    }

    fn manifest() -> &'static Manifest {
        static MANIFEST: OnceLock<Manifest> = OnceLock::new();
        MANIFEST.get_or_init(|| {
            let text = match std::env::var("RISKPIPE_LOCK_MANIFEST") {
                #[expect(
                    clippy::panic,
                    reason = "an unreadable manifest must abort the witness run; \
                              debug/test builds only"
                )]
                Ok(path) => std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("lockwitness: cannot read {path}: {e}")),
                Err(_) => include_str!("../../../lock-order.manifest").to_string(),
            };
            parse(&text)
        })
    }

    thread_local! {
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Preflight an acquisition: every currently held lock must have a
    /// manifest-closure edge to `name`. Called before the inner lock
    /// blocks, so violations panic instead of deadlocking.
    #[expect(
        clippy::panic,
        reason = "panicking on violation is the witness's purpose: it fires before the \
                  inner lock can park, turning a potential deadlock into a loud test \
                  failure; debug/test builds only"
    )]
    pub(super) fn on_acquire(name: &'static str) {
        let m = manifest();
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if !m.locks.contains(name) {
                panic!(
                    "lockwitness: lock `{name}` is not in the lock-order manifest — \
                     regenerate it (riskpipe-lint --emit-lock-graph .) or fix the name"
                );
            }
            for &h in held.iter() {
                let ordered = h != name && m.closure.get(h).is_some_and(|succ| succ.contains(name));
                if !ordered {
                    panic!(
                        "lockwitness: acquiring `{name}` while holding {:?} violates the \
                         lock-order manifest (no `{h}` -> `{name}` edge); this order can \
                         deadlock against the manifest's — re-run riskpipe-lint and fix \
                         the acquisition order",
                        held.as_slice()
                    );
                }
            }
            held.push(name);
            ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Remove the most recent held entry for `name` (releases may be
    /// non-LIFO; only acquisition order is constrained).
    pub(super) fn on_release(name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == name) {
                held.remove(pos);
            }
        });
    }

    /// A condvar wait releases the guarded mutex while parked …
    pub(super) fn on_wait_begin(name: &'static str) {
        WAITS.fetch_add(1, Ordering::Relaxed);
        on_release(name);
    }

    /// … and re-acquires it on wakeup, which must re-pass the order
    /// check against whatever the thread still holds.
    pub(super) fn on_wait_end(name: &'static str) {
        on_acquire(name);
    }
}

#[cfg(all(test, feature = "lockwitness"))]
mod tests {
    use super::*;

    // The witness manifest is process-global (`OnceLock` + the real
    // committed manifest), so tests use real workspace lock names:
    // `threads -> events` is a manifest edge, `events -> threads` is not.

    #[test]
    fn manifest_edge_order_is_accepted() {
        let outer = Mutex::new("threads", ());
        let inner = Mutex::new("events", 0u32);
        let g = outer.lock();
        let v = inner.lock();
        assert_eq!(*v, 0);
        drop(v);
        drop(g);
    }

    #[test]
    fn reversed_order_panics_before_blocking() {
        let outer = Mutex::new("events", 0u32);
        let inner = Mutex::new("threads", ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = outer.lock();
            let _v = inner.lock();
        }));
        assert!(result.is_err(), "reversed order must violate the witness");
    }

    #[test]
    fn same_name_reacquisition_panics() {
        let a = Mutex::new("timings", ());
        let b = Mutex::new("timings", ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = a.lock();
            let _h = b.lock();
        }));
        assert!(result.is_err(), "same-identity nesting must violate");
    }

    #[test]
    fn unknown_lock_name_panics() {
        let m = Mutex::new("definitely-not-in-manifest", ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
        }));
        assert!(result.is_err(), "unknown lock must violate");
    }

    #[test]
    fn wait_releases_the_guard_for_ordering_purposes() {
        // While parked on `sleep_lock`'s condvar the guard is released,
        // so a notifier thread can take `sleep_lock` itself.
        let m = Mutex::new("sleep_lock", false);
        let cv = Condvar::new();
        let mut g = m.lock();
        // Timed wait: nobody notifies; the re-acquisition on wakeup
        // must pass the order check with an empty held stack.
        let res = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
        drop(g);
    }
}
