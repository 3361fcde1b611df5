//! The streaming core every execution shape drives:
//! [`RiskSession::run_stream`] runs scenarios concurrently on the
//! session's pool, at most pool width in flight, and delivers their
//! reports in input order. Its one piece of cache policy is the leader
//! gate: while a key has no published stage-1 entry, only one scenario
//! of that key is in flight, so each distinct key is built once per
//! sweep.

use crate::config::ScenarioConfig;
use crate::session::{PipelineReport, RiskSession};
use crate::sink::ReportSink;
use riskpipe_exec::lockwitness::{Condvar, Mutex};
use riskpipe_types::{RiskError, RiskResult};
use std::collections::{BTreeMap, VecDeque};

impl RiskSession {
    /// The streaming execution core: run many scenarios concurrently on
    /// the shared pool, delivering each completed [`PipelineReport`] to
    /// `sink` **in input order** and dropping it afterwards.
    ///
    /// The sink is anything implementing [`ReportSink`]: a
    /// `FnMut(usize, PipelineReport) -> RiskResult<()>` closure (via
    /// the blanket impl), a [`SweepSummary`](crate::SweepSummary)
    /// accumulating pooled analytics, or a
    /// [`PersistingSink`](crate::PersistingSink) writing each report
    /// durably as it arrives.
    ///
    /// In-flight scenarios are capped at the pool width, and a report
    /// that finishes ahead of a slower earlier slot waits in a reorder
    /// buffer no larger than that cap — so peak memory is O(pool width)
    /// reports regardless of how many scenarios the sweep spans,
    /// instead of the O(batch) a collected `Vec` costs. Results are
    /// bitwise identical to running each scenario alone on any thread
    /// count: every stage is seeded from the scenario, so scheduling
    /// cannot leak between slots.
    ///
    /// Delivery happens on the calling thread (the sink needs neither
    /// `Send` nor `Sync`), and the window only reopens once the sink
    /// returns — a slow sink therefore backpressures the sweep rather
    /// than letting reports pile up. The first failing scenario's
    /// error — or the first error the sink returns — aborts the sweep:
    /// no further scenarios start, in-flight ones drain, and the error
    /// is returned. On success, returns the number of reports
    /// delivered.
    pub fn run_stream<S>(&self, scenarios: &[ScenarioConfig], mut sink: S) -> RiskResult<usize>
    where
        S: ReportSink,
    {
        let n = scenarios.len();
        if n == 0 {
            return Ok(0);
        }
        // Scope the session's telemetry over the whole sweep: the
        // coordinator runs on this thread, and `Scope::spawn` hands the
        // installed context to every per-scenario pool task.
        let _obs = self.install_telemetry();
        let _sweep_span = riskpipe_obs::span_key("sweep.run_stream", n as u64);
        let run = self.next_run_id();
        let width = self.pool().thread_count().min(n);
        let keys: Vec<u64> = scenarios.iter().map(|s| s.stage1_key()).collect();

        struct StreamState {
            /// Deposited, undelivered results, by slot.
            ready: BTreeMap<usize, RiskResult<PipelineReport>>,
            /// Slots deposited since the control loop last looked.
            arrivals: Vec<usize>,
            /// A stage-1 build published since the control loop last
            /// looked — gated same-key followers may now be eligible.
            stage1_published: bool,
        }
        let state = Mutex::new(
            "state",
            StreamState {
                ready: BTreeMap::new(),
                arrivals: Vec::new(),
                stage1_published: false,
            },
        );
        let completed = Condvar::new();
        let mut delivered = 0usize;
        let mut failure: Option<RiskError> = None;

        self.pool().scope(|scope| {
            // Per-scenario tasks never block (acquire stage 1 →
            // publish → finish → deposit → notify), so one being stolen
            // into another task's nested stage scope just finishes
            // inline — all window and cache bookkeeping lives on this
            // calling thread.
            let spawn_slot = |i: usize| {
                let scenario = &scenarios[i];
                let key = keys[i];
                let state = &state;
                let completed = &completed;
                scope.spawn(move || {
                    let _scenario_span = riskpipe_obs::span_key("sweep.scenario", i as u64);
                    let result = self.acquire_stage1(key, scenario).and_then(|model| {
                        // The key's cache entry is ready: wake the
                        // control loop so same-key followers start
                        // now instead of after this scenario's
                        // stages 2–3.
                        // lint: allow(C1) — StreamState mutex is a
                        // micro critical section (flag write +
                        // notify); no holder parks or spawns under
                        // it, so acquisition is bounded.
                        state.lock().stage1_published = true;
                        completed.notify_all();
                        self.finish_pipeline(scenario, Some(i), run, &model)
                    });
                    // lint: allow(C1) — result deposit: map insert +
                    // notify under a micro critical section; no holder
                    // blocks under the StreamState mutex.
                    let mut st = state.lock();
                    st.ready.insert(i, result);
                    st.arrivals.push(i);
                    completed.notify_all();
                });
            };

            // Slots not yet started, in input order.
            let mut pending: VecDeque<usize> = (0..n).collect();
            // Started minus delivered — the O(pool width) memory bound.
            let mut in_window = 0usize;
            // Slots leading their key: started while the key had no
            // published entry, and not yet deposited. A same-key
            // follower holds back until the leader's stage-1 build
            // publishes (or, if it fails, until its deposit drops the
            // lead so the next same-key slot can retry as leader), so
            // each distinct key's stage-1 model builds exactly once per
            // sweep and no two tasks build the same key. A leader is in
            // the window, so the list is never longer than its width.
            let mut leaders: Vec<usize> = Vec::with_capacity(width);
            let spawn_eligible =
                |pending: &mut VecDeque<usize>, in_window: &mut usize, leaders: &mut Vec<usize>| {
                    let mut held = VecDeque::with_capacity(pending.len());
                    while let Some(i) = pending.pop_front() {
                        if *in_window >= width {
                            held.push_back(i);
                            break;
                        }
                        let key = keys[i];
                        let gated = !self.stage1.is_ready(key);
                        if gated && leaders.iter().any(|&leader| keys[leader] == key) {
                            held.push_back(i);
                            continue;
                        }
                        if gated {
                            leaders.push(i);
                        }
                        spawn_slot(i);
                        *in_window += 1;
                    }
                    // Whatever could not start keeps its input order.
                    held.append(pending);
                    *pending = held;
                };

            spawn_eligible(&mut pending, &mut in_window, &mut leaders);
            while delivered < n {
                let (arrivals, deliverable) = {
                    let mut st = state.lock();
                    while st.arrivals.is_empty() && !st.stage1_published {
                        completed.wait(&mut st);
                    }
                    st.stage1_published = false;
                    let arrivals = std::mem::take(&mut st.arrivals);
                    let mut deliverable = Vec::new();
                    let mut cursor = delivered;
                    while let Some(result) = st.ready.remove(&cursor) {
                        deliverable.push(result);
                        cursor += 1;
                    }
                    (arrivals, deliverable)
                };
                leaders.retain(|leader| !arrivals.contains(leader));
                for result in deliverable {
                    match result {
                        Ok(report) => {
                            if let Err(e) = sink.accept(delivered, report) {
                                failure = Some(e);
                            }
                        }
                        Err(e) => failure = Some(e),
                    }
                    delivered += 1;
                    in_window -= 1;
                    if failure.is_some() {
                        break;
                    }
                }
                if failure.is_some() {
                    // Stop opening the window; the scope drains what is
                    // already in flight before `scope` returns.
                    break;
                }
                spawn_eligible(&mut pending, &mut in_window, &mut leaders);
            }
        });
        match failure {
            Some(e) => Err(e),
            None => {
                // Only a fully delivered sweep gets sealed: a sink that
                // persists reports uses `finish` to write its run
                // manifest, so an interrupted sweep stays detectably
                // incomplete rather than readable-but-short.
                sink.finish()?;
                // Deterministic on success (delivered == n); errors
                // skip it, so thread-count-dependent abort points never
                // leak into the registry.
                riskpipe_obs::counter_add("sweep.delivered", delivered as u64);
                Ok(delivered)
            }
        }
    }
}
