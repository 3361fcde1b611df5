//! The work-stealing thread pool.
//!
//! Architecture (after the crossbeam-deque design notes and the parking
//! patterns in *Rust Atomics and Locks*):
//!
//! * every worker owns a LIFO [`Worker`] deque; spawned tasks go to a
//!   shared [`Injector`];
//! * a worker looks for work in order: own deque → injector (batch
//!   steal) → sibling deques;
//! * with no work anywhere, the worker parks on a condvar; every inject
//!   notifies one parked worker;
//! * [`ThreadPool::scope`] lets tasks borrow from the caller's stack: the
//!   scope blocks until all of its tasks complete, and while blocked it
//!   *executes queued tasks itself* so nested scopes cannot deadlock the
//!   pool; with nothing to run it parks, and the task that completes the
//!   scope unparks exactly its caller;
//! * a panic inside a task is caught, recorded, and re-raised from the
//!   scope that spawned it, carrying the first panicking task's message.

use crate::lockwitness::{Condvar, Mutex};
use crate::stats::ExecStats;
use crossbeam_deque::{Injector, Stealer, Worker};
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    stats: ExecStats,
}

impl PoolShared {
    /// Try to obtain a job from the injector or any sibling deque.
    fn find_job(&self, own: Option<&Worker<Job>>) -> Option<Job> {
        if let Some(w) = own {
            if let Some(job) = w.pop() {
                return Some(job);
            }
        }
        loop {
            // Batch-steal from the injector into our deque when we have
            // one, otherwise take a single job.
            let steal = match own {
                Some(w) => self.injector.steal_batch_and_pop(w),
                None => self.injector.steal(),
            };
            match steal {
                crossbeam_deque::Steal::Success(job) => return Some(job),
                crossbeam_deque::Steal::Empty => break,
                crossbeam_deque::Steal::Retry => continue,
            }
        }
        for st in &self.stealers {
            loop {
                match st.steal() {
                    crossbeam_deque::Steal::Success(job) => {
                        self.stats.record_stolen();
                        return Some(job);
                    }
                    crossbeam_deque::Steal::Empty => break,
                    crossbeam_deque::Steal::Retry => continue,
                }
            }
        }
        None
    }
}

/// A work-stealing thread pool. See the module docs for the design.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Create a pool with `threads` worker threads (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a worker thread; use
    /// [`ThreadPool::try_new`] for the typed-error path.
    pub fn new(threads: usize) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented convenience panic; the typed path is `try_new`, \
                      which core's session builder uses"
        )]
        Self::try_new(threads).unwrap_or_else(|e| panic!("failed to spawn pool workers: {e}"))
    }

    /// Create a pool with `threads` worker threads (at least 1),
    /// reporting thread-spawn failure as a typed error instead of
    /// panicking. On failure, any workers already spawned are shut
    /// down and joined before the error is returned.
    pub fn try_new(threads: usize) -> std::io::Result<Self> {
        let threads = threads.max(1);
        let workers: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(PoolShared {
            injector: Injector::new(),
            stealers,
            sleep_lock: Mutex::new("sleep_lock", ()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: ExecStats::new(),
        });
        let mut handles = Vec::with_capacity(threads);
        for (i, worker) in workers.into_iter().enumerate() {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("riskpipe-worker-{i}"))
                .spawn(move || worker_loop(worker, worker_shared));
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Dropping the partial pool joins the workers that
                    // did start, so no threads leak past the error.
                    drop(Self {
                        shared,
                        handles,
                        threads,
                    });
                    return Err(e);
                }
            }
        }
        Ok(Self {
            shared,
            handles,
            threads,
        })
    }

    /// Number of worker threads.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Execution statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.shared.stats
    }

    /// Spawn a detached `'static` task. The spawner's telemetry
    /// context (if any) is propagated into the task.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        let telemetry = riskpipe_obs::current();
        self.inject(Box::new(move || run_task(telemetry, f)));
    }

    fn inject(&self, job: Job) {
        self.shared.stats.record_injected();
        self.shared.injector.push(job);
        // Wake one parked worker, if any.
        // lint: allow(C1) — sleep_lock pairs the notify with the
        // sleeper's recheck; it is only ever held across a notify or a
        // timed wait, never while running a job, so the wait is
        // bounded and deadlock-free.
        let _guard = self.shared.sleep_lock.lock();
        self.shared.wake.notify_one();
    }

    /// Run `f` with a [`Scope`] that can spawn tasks borrowing from the
    /// enclosing stack frame. Returns when every spawned task has
    /// finished. If any task panicked, the panic is re-raised here, with
    /// the first panicking task's message appended.
    pub fn scope<'scope, R>(&'scope self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: OnceLock::new(),
                caller: std::thread::current(),
            }),
            _marker: PhantomData,
        };
        let result = f(&scope);
        // Wait for completion, helping with queued work meanwhile.
        while scope.state.pending.load(Ordering::Acquire) != 0 {
            if let Some(job) = self.shared.find_job(None) {
                self.shared.stats.record_helper_run();
                job();
            } else {
                // The task that completes the scope unparks this thread
                // (and only this one); a completion between the check
                // above and the park leaves the token set, so the park
                // returns at once. The timeout bounds how long queued
                // work can wait for this helper.
                std::thread::park_timeout(Duration::from_micros(200));
            }
        }
        if let Some(message) = scope.state.panic.get() {
            #[expect(
                clippy::panic,
                reason = "deliberate panic propagation: a task panic caught on a worker \
                          is re-raised on the scope caller, mirroring rayon::scope semantics"
            )]
            {
                panic!("a task spawned in ThreadPool::scope panicked: {message}");
            }
        }
        result
    }
}

impl ThreadPool {
    /// A pool sized to `std::thread::available_parallelism()`,
    /// reporting thread-spawn failure as a typed error — the
    /// non-panicking sibling of [`Default::default`].
    pub fn try_default() -> std::io::Result<Self> {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::try_new(n)
    }
}

impl Default for ThreadPool {
    /// A pool sized to `std::thread::available_parallelism()`.
    fn default() -> Self {
        #[expect(
            clippy::panic,
            reason = "documented convenience panic; the typed path is `try_default`, \
                      which core's session builder uses"
        )]
        Self::try_default().unwrap_or_else(|e| panic!("failed to spawn pool workers: {e}"))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep_lock.lock();
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("tasks_executed", &self.shared.stats.tasks_executed())
            .finish()
    }
}

/// A panic payload's message: the `&str` or `String` a `panic!`
/// carries, or a placeholder for any other payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "(a non-string panic payload)".to_owned()
    }
}

/// Run one pool task under the spawner's telemetry context (when the
/// spawner had one installed): the context is installed on the
/// executing worker for the task's duration and a `pool.task` span
/// brackets it, so span sites inside tasks record into the session's
/// recorder regardless of which thread runs them. With no telemetry
/// the task runs bare — this is the recorder-off fast path (one `None`
/// check).
fn run_task(telemetry: Option<riskpipe_obs::Telemetry>, f: impl FnOnce()) {
    match telemetry {
        Some(t) => {
            let _ctx = riskpipe_obs::install(&t);
            let _task = riskpipe_obs::span("pool.task");
            f();
        }
        None => f(),
    }
}

fn worker_loop(worker: Worker<Job>, shared: Arc<PoolShared>) {
    loop {
        if let Some(job) = shared.find_job(Some(&worker)) {
            shared.stats.record_executed();
            job();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut guard = shared.sleep_lock.lock();
        // Re-check under the lock so an inject between our failed
        // find_job and this park cannot be missed.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if !shared.injector.is_empty() {
            continue;
        }
        shared.wake.wait_for(&mut guard, Duration::from_millis(50));
    }
}

/// What a scope's tasks share with its caller.
struct ScopeState {
    /// Spawned tasks not yet finished.
    pending: AtomicUsize,
    /// The first panicking task's message (its `&str` or `String`
    /// payload); set at all means a task panicked.
    panic: OnceLock<String>,
    /// The thread waiting in [`ThreadPool::scope`], unparked by the task
    /// that finishes last.
    caller: std::thread::Thread,
}

/// A scope handle for spawning borrowed tasks; created by
/// [`ThreadPool::scope`].
pub struct Scope<'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawn a task that may borrow data outliving the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let telemetry = riskpipe_obs::current();
        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(|| run_task(telemetry, f)));
            if let Err(payload) = result {
                // Only the first panic's message is kept.
                let _ = state.panic.set(panic_message(payload.as_ref()));
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                state.caller.unpark();
            }
        });
        // SAFETY: `ThreadPool::scope` does not return until `pending`
        // reaches zero, i.e. until this closure has run `f` to
        // completion; after its decrement the closure touches only its
        // own `Arc` of the scope state, never a `'scope` borrow. So all
        // `'scope` borrows inside the closure remain valid for as long
        // as the closure uses them. Erasing the lifetime to 'static is
        // therefore sound — the same argument rayon::scope makes.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapped) };
        self.pool.inject(job);
    }

    /// The pool this scope runs on.
    pub fn pool(&self) -> &ThreadPool {
        self.pool
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests time the waits they bound"
)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spawn_executes_detached_tasks() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Drain by scoping on nothing plus polling.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while counter.load(Ordering::Relaxed) < 100 {
            assert!(std::time::Instant::now() < deadline, "tasks did not finish");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn scope_borrows_stack_data() {
        let pool = ThreadPool::new(4);
        let mut results = vec![0u64; 64];
        pool.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                s.spawn(move || {
                    *slot = (i * i) as u64;
                });
            }
        });
        for (i, &v) in results.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let v = pool.scope(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(2));
        let total = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let t2 = Arc::clone(&total);
        pool.scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&p2);
                let t = Arc::clone(&t2);
                s.spawn(move || {
                    // Inner scope executed on a worker thread.
                    p.scope(|inner| {
                        for _ in 0..4 {
                            let t = Arc::clone(&t);
                            inner.spawn(move || {
                                t.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panics_propagate_from_scope() {
        let pool = ThreadPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        // The re-raised panic carries the task's own message.
        let payload = result.expect_err("the scope must re-raise the task's panic");
        let message = panic_message(payload.as_ref());
        assert!(message.contains("boom"), "{message}");
        // The pool survives the panic and remains usable.
        let v = pool.scope(|_| 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        pool.scope(|s| {
            for _ in 0..32 {
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn stats_record_activity() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    std::hint::black_box(1 + 1);
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.tasks_injected(), 16);
        assert!(stats.tasks_executed() + stats.helper_runs() >= 16);
    }

    #[test]
    fn try_new_spawns_a_usable_pool() {
        let pool = ThreadPool::try_new(2).expect("spawn workers");
        assert_eq!(pool.thread_count(), 2);
        let v = pool.scope(|_| 5);
        assert_eq!(v, 5);
    }

    #[test]
    fn scope_spawn_propagates_telemetry_into_tasks() {
        let pool = ThreadPool::new(4);
        let telemetry = riskpipe_obs::Telemetry::new();
        {
            let _ctx = riskpipe_obs::install(&telemetry);
            pool.scope(|s| {
                for i in 0..16 {
                    s.spawn(move || {
                        riskpipe_obs::counter_add("exec.test.tasks", 1);
                        let _s = riskpipe_obs::span_key("exec.test.span", i);
                    });
                }
            });
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.metrics().counter("exec.test.tasks"), 16);
        assert_eq!(snap.spans_named("exec.test.span").count(), 16);
        assert_eq!(snap.spans_named("pool.task").count(), 16);
    }

    #[test]
    fn tasks_without_telemetry_record_nothing() {
        let pool = ThreadPool::new(2);
        let telemetry = riskpipe_obs::Telemetry::new();
        // No install: tasks run bare, nothing reaches the recorder.
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    riskpipe_obs::counter_add("exec.test.ghost", 1);
                });
            }
        });
        let snap = telemetry.snapshot();
        assert_eq!(snap.metrics().counter("exec.test.ghost"), 0);
        assert!(snap.spans().is_empty());
    }

    /// A scope whose last task finishes on a worker returns as soon as
    /// it does: the task wakes the caller, which does not sleep out its
    /// park timeout. Each scope's task starts on a worker (the caller
    /// waits for it to start, so there is nothing left to steal) and
    /// spins 20 µs; the median delay from the task's end to the scope's
    /// return is then the wakeup latency, not the timeout's remaining
    /// ≈ 180 µs.
    #[test]
    fn the_last_task_wakes_the_scope_caller() {
        let pool = ThreadPool::new(2);
        let mut delays: Vec<Duration> = (0..300)
            .map(|_| {
                let started = AtomicBool::new(false);
                let mut ended = None;
                pool.scope(|s| {
                    s.spawn(|| {
                        started.store(true, Ordering::Release);
                        let spin = std::time::Instant::now();
                        while spin.elapsed() < Duration::from_micros(20) {
                            std::hint::spin_loop();
                        }
                        ended = Some(std::time::Instant::now());
                    });
                    while !started.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                });
                let returned = std::time::Instant::now();
                returned.duration_since(ended.expect("the task ran"))
            })
            .collect();
        delays.sort_unstable();
        let median = delays[delays.len() / 2];
        assert!(
            median < Duration::from_micros(100),
            "median wakeup {median:?} after the last task finished"
        );
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {});
            }
        });
        drop(pool); // must not hang
    }
}
