//! The streaming core every execution shape drives:
//! [`RiskSession::run_stream`] runs scenarios concurrently on the
//! session's pool and delivers their reports in input order.
//!
//! Its unit of work is a **group**: a run of consecutive scenarios with
//! one stage-1 key, cut so its loss columns stay within
//! [`GROUP_COLUMN_BYTES`], except that a run may always pair up: a
//! group holds at least two scenarios when its run has two. A group
//! acquires the key's model run once and prices all of its members in
//! one scan of the trials; then each member's stage 3 and report finish
//! in slot order. Groups are a function of the scenario list alone,
//! never of pool width or timing.
//!
//! Its one piece of cache policy is the leader gate: while a key has no
//! published stage-1 entry, only one group of that key is in flight, so
//! each distinct key is built once per sweep even when its scenarios
//! fill several groups or are not adjacent.

use crate::config::ScenarioConfig;
use crate::report::PipelineReport;
use crate::session::RiskSession;
use crate::sink::ReportSink;
use riskpipe_exec::lockwitness::{Condvar, Mutex};
use riskpipe_types::{RiskError, RiskResult};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// The loss columns one group may price at once: a YLT row is 20 B
/// (aggregate f64, maximum-occurrence f64, count u32), so a group of K
/// scenarios of T trials holds 20 B × T × K until its members' reports
/// take them. 400 KiB is four 5 000-trial YLTs, about what two in-flight
/// scenarios' reports hold at that size, so grouping leaves a sweep's
/// peak memory near its ungrouped O(pool width) reports.
///
/// The cap never cuts a run below pairs: K ≥ 2 whatever the trial
/// count. The ungrouped window already holds two YLTs on a pool of two
/// or more threads, so a pair of large YLTs costs those pools nothing;
/// a 1-thread pool holds one YLT more than it did ungrouped.
const GROUP_COLUMN_BYTES: usize = 400 << 10;

/// Scenarios a group of one run may always hold, whatever their YLTs
/// weigh (see [`GROUP_COLUMN_BYTES`]).
const GROUP_FLOOR: usize = 2;

/// Bytes of one YLT row.
const YLT_ROW_BYTES: usize = 20;

/// Cut `scenarios` (with their stage-1 `keys`) into groups: maximal runs
/// of consecutive same-key scenarios, each split so that its loss
/// columns stay within [`GROUP_COLUMN_BYTES`] or it holds at most
/// [`GROUP_FLOOR`] scenarios. Same key means same trial count, so the
/// split is by count within a run.
fn groups(scenarios: &[ScenarioConfig], keys: &[u64]) -> Vec<Range<usize>> {
    let mut groups: Vec<Range<usize>> = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        let row_bytes = YLT_ROW_BYTES.saturating_mul(scenario.trials).max(1);
        let cap = (GROUP_COLUMN_BYTES / row_bytes).max(GROUP_FLOOR);
        match groups.last_mut() {
            Some(g) if keys[g.start] == keys[i] && g.len() < cap => g.end = i + 1,
            _ => groups.push(i..i + 1),
        }
    }
    groups
}

/// What a sweep's group tasks hand its control loop, and the signal
/// that something arrived.
struct Deposits {
    state: Mutex<StreamState>,
    completed: Condvar,
}

struct StreamState {
    /// Deposited, undelivered results, by slot.
    ready: BTreeMap<usize, RiskResult<PipelineReport>>,
    /// A group acquired its key since the control loop last looked: a
    /// held group of the key may now start.
    published: bool,
}

impl Deposits {
    fn deposit(&self, slot: usize, result: RiskResult<PipelineReport>) {
        // lint: allow(C1) — result deposit: map insert + notify under a
        // micro critical section; no holder blocks under the mutex.
        self.state.lock().ready.insert(slot, result);
        self.completed.notify_all();
    }

    fn publish(&self) {
        // lint: allow(C1) — flag write + notify under the same micro
        // critical section.
        self.state.lock().published = true;
        self.completed.notify_all();
    }
}

impl RiskSession {
    /// One group's task (`key` is its members' stage-1 key): acquire
    /// the key's model run once, price every member in one scan, then
    /// finish each member's stage 3 and report in slot order, each
    /// deposited as soon as it is finished. It never blocks, so a task
    /// stolen into another task's nested scope just finishes inline.
    fn price_group(
        &self,
        scenarios: &[ScenarioConfig],
        group: Range<usize>,
        key: u64,
        run: u64,
        deposits: &Deposits,
    ) {
        let members = &scenarios[group.clone()];
        let model = match self.acquire_stage1(key, &members[0]) {
            Ok(model) => model,
            // The sweep stops at the group's first slot, so no later
            // member is ever waited for.
            Err(e) => return deposits.deposit(group.start, Err(e)),
        };
        // The key's entry is ready: a held group of the key may start
        // now, beside this group's scan and stage 3.
        deposits.publish();
        self.stage1.count_followers(members.len() as u64 - 1);
        let scanned = self.scan_group(members, group.start as u64, &model);
        for (slot, scan) in group.zip(scanned) {
            let _scenario_span = riskpipe_obs::span_key("sweep.scenario", slot as u64);
            let report = scan.and_then(|ylt| {
                self.finish_scenario(&scenarios[slot], Some(slot), run, &model, ylt)
            });
            deposits.deposit(slot, report);
        }
    }

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
    /// Consecutive scenarios that share a stage-1 key run as one group
    /// (see the module docs): one acquire, one scan pricing every
    /// member, then each member's stage 3, its report deposited as soon
    /// as it is finished. A group starts when its scenarios fit in a
    /// window of pool-width scenarios in flight (alone, when it is wider
    /// than the window), and a report that finishes ahead of a slower
    /// earlier slot waits in a reorder buffer — so peak memory is
    /// O(pool width) reports or one group's, regardless of how many
    /// scenarios the sweep spans,
    /// instead of the O(batch) a collected `Vec` costs. Results are
    /// bitwise identical to running each scenario alone on any thread
    /// count: every stage is seeded from the scenario, and a group's
    /// scan keeps one accumulator set per member, so neither scheduling
    /// nor grouping can leak between slots.
    ///
    /// Delivery happens on the calling thread (the sink needs neither
    /// `Send` nor `Sync`), and the window only reopens once the sink
    /// returns — a slow sink therefore backpressures the sweep rather
    /// than letting reports pile up. The first failing scenario's
    /// error — or the first error the sink returns — aborts the sweep:
    /// no further groups start, in-flight ones drain, and the error
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
        // installed context to every group's pool task.
        let _obs = self.install_telemetry();
        let _sweep_span = riskpipe_obs::span_key("sweep.run_stream", n as u64);
        let run = self.next_run_id();
        let width = self.pool().thread_count().min(n);
        let keys: Vec<u64> = scenarios.iter().map(|s| s.stage1_key()).collect();

        let deposits = Deposits {
            state: Mutex::new(
                "state",
                StreamState {
                    ready: BTreeMap::new(),
                    published: false,
                },
            ),
            completed: Condvar::new(),
        };
        let mut delivered = 0usize;
        let mut failure: Option<RiskError> = None;

        self.pool().scope(|scope| {
            // Groups not yet started, in input order.
            let mut pending: VecDeque<Range<usize>> = groups(scenarios, &keys).into();
            // Started minus delivered scenarios — the O(pool width)
            // memory bound: at most the window's width, or one group
            // wider than it.
            let mut in_window = 0usize;
            // Started groups with a slot not yet delivered. While its
            // key has no published entry, a group holds back if one of
            // its key is here: that group is acquiring the key, and the
            // held one starts once the entry is published and finds it,
            // so each distinct key's stage-1 model builds exactly once
            // per sweep and no two tasks build the same key. A group
            // whose acquire fails never publishes: the sweep stops at
            // its first slot, which is earlier than any held group of
            // its key, so nothing retries the build.
            let mut started: Vec<Range<usize>> = Vec::with_capacity(width);
            let spawn_eligible =
                |pending: &mut VecDeque<Range<usize>>,
                 in_window: &mut usize,
                 started: &mut Vec<Range<usize>>| {
                    let mut held = VecDeque::with_capacity(pending.len());
                    while let Some(group) = pending.pop_front() {
                        // A group starts when it fits in the window, or
                        // alone when it is wider than the window.
                        if *in_window > 0 && *in_window + group.len() > width {
                            held.push_back(group);
                            break;
                        }
                        let key = keys[group.start];
                        let gated = !self.stage1.is_ready(key);
                        if gated && started.iter().any(|g| keys[g.start] == key) {
                            held.push_back(group);
                            continue;
                        }
                        started.push(group.clone());
                        *in_window += group.len();
                        let deposits = &deposits;
                        scope.spawn(move || self.price_group(scenarios, group, key, run, deposits));
                    }
                    // Whatever could not start keeps its input order.
                    held.append(pending);
                    *pending = held;
                };

            spawn_eligible(&mut pending, &mut in_window, &mut started);
            while delivered < n {
                let deliverable = {
                    let mut st = deposits.state.lock();
                    while !st.ready.contains_key(&delivered) && !st.published {
                        deposits.completed.wait(&mut st);
                    }
                    st.published = false;
                    let mut deliverable = Vec::new();
                    let mut cursor = delivered;
                    while let Some(result) = st.ready.remove(&cursor) {
                        deliverable.push(result);
                        cursor += 1;
                    }
                    deliverable
                };
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
                started.retain(|g| g.end > delivered);
                spawn_eligible(&mut pending, &mut in_window, &mut started);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_same_key_runs_cut_by_column_bytes() {
        let s =
            |seed: u64, trials: usize| ScenarioConfig::small().with_seed(seed).with_trials(trials);
        // 400 KiB / (20 B × 5 000) = 4 scenarios per group.
        let scenarios = [
            s(1, 200),
            s(1, 200),
            s(2, 200),
            s(1, 200),
            s(3, 5_000),
            s(3, 5_000),
            s(3, 5_000),
            s(3, 5_000),
            s(3, 5_000),
            s(4, 30_000),
            s(4, 30_000),
        ];
        let keys: Vec<u64> = scenarios.iter().map(|s| s.stage1_key()).collect();
        // YLTs larger than the cap (20 B × 30 000 is over 400 KiB) still
        // pair up.
        assert_eq!(
            groups(&scenarios, &keys),
            [0..2, 2..3, 3..4, 4..8, 8..9, 9..11]
        );
        // A run of three such is a pair and a single.
        let mut three = scenarios.to_vec();
        three.push(s(4, 30_000));
        let keys: Vec<u64> = three.iter().map(|s| s.stage1_key()).collect();
        assert_eq!(
            groups(&three, &keys),
            [0..2, 2..3, 3..4, 4..8, 8..9, 9..11, 11..12]
        );
        assert!(groups(&[], &[]).is_empty());
    }
}
