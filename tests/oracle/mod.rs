//! The session oracle: one differential check over the `RiskSession`
//! surface. A [`Case`] is some scenarios (degenerate corners included),
//! an engine, an option shape, a pool width, a store, a plan shape and a
//! cache state. [`check`] compares it with the reference — each scenario
//! alone through `run` on a fresh 1-thread `Sequential` session — and
//! wants the same bits (YLTs, measures, PML, DFA figures, pooled
//! summary, persisted files, warehouse base cells) or the same typed
//! error on every path, never a panic, and the derive counters the cache
//! state implies. `tests/session_oracle.rs` draws the cases; the other
//! root test files pin named ones (`pinned!`).
//!
//! Results are compared as `Debug` text: it prints every `f64` so that
//! it reads back to the same bits, so equal text is equal bits (NaN
//! payloads aside; no `Ok` report carries a NaN).

use proptest::prelude::*;
use riskpipe::aggregate::{AggregateOptions, EngineKind, QuantileMode};
use riskpipe::analytics::WarehouseSink;
use riskpipe::analytics::{Drilldown, DrilldownLayout, ScenarioDims, SweepPlanAnalytics};
use riskpipe::core::{FanoutSink, InMemoryStore, IntermediateStore, PersistingSink};
use riskpipe::core::{PipelineReport, ReportSink, RiskSession, ScenarioConfig};
use riskpipe::core::{ShardedFilesStore, SweepOutcome, SweepSummary};
use riskpipe::obs::Telemetry;
use riskpipe::prelude::{LevelSelect, Query};
use riskpipe::tables::ShardedReader;
use riskpipe::types::{RiskError, RiskResult};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a case drives its scenarios through the session: `run` once per
/// scenario; `run_stream` into a recording closure; `run_stream` into a
/// `FanoutSink` of the first `n` of a recorder, a summary and a
/// persisting sink; or a `SweepPlan` with these consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Run,
    Stream,
    Fanout(usize),
    Plan {
        summary: bool,
        persist: bool,
        collect: bool,
        tail: Tail,
    },
}

/// What rides a plan after its own consumers: nothing, a recorder via
/// `drive_with`, or `.warehouse(layout)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    Bare,
    Extra,
    Warehouse,
}

/// The stage-1 cache when the measured path runs: a fresh session; the
/// same session after sweeping the case once; a fresh session over a
/// disk tier another session wrote; warm, then eight other keys through
/// the 8-entry LRU; disk-warm with one byte of the first key's entry
/// flipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Cold,
    Warm,
    DiskWarm,
    Evicted,
    Corrupt,
}

/// One point of the session surface (`shards == 0` is the in-memory
/// store).
#[derive(Debug, Clone)]
pub struct Case {
    pub scenarios: Vec<ScenarioConfig>,
    pub engine: EngineKind,
    pub options: AggregateOptions,
    pub threads: usize,
    pub shards: u32,
    pub shape: Shape,
    pub cache: Cache,
}

impl Case {
    /// `scenarios` through `shape` on a cold 2-thread CPU-parallel
    /// session, default options, in-memory store.
    pub fn new(scenarios: Vec<ScenarioConfig>, shape: Shape) -> Self {
        let (engine, options) = (EngineKind::CpuParallel, AggregateOptions::default());
        let (threads, shards, cache) = (2, 0, Cache::Cold);
        Self {
            scenarios,
            engine,
            options,
            threads,
            shards,
            shape,
            cache,
        }
    }

    /// A plan whose `consumers` name some of `summary persist collect`.
    pub fn plan(scenarios: Vec<ScenarioConfig>, consumers: &str, tail: Tail) -> Self {
        let bit = |name, value| if consumers.contains(name) { value } else { 0 };
        let named = bit("summary", 1) + bit("persist", 2) + bit("collect", 4);
        Self::new(scenarios, shape(5 + named + 8 * tail as usize))
    }
}

/// Named `#[test]`s, each checking the cases its expression yields.
#[macro_export]
macro_rules! pinned {
    ($($(#[$doc:meta])* $name:ident => $cases:expr;)+) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            for case in $cases {
                if let Err(failure) = $crate::oracle::check(&case) {
                    panic!("{failure}");
                }
            }
        }
    )+};
}

/// The stage-2 option shapes: the default grid, secondary uncertainty
/// off, exact quantiles and the smallest grid.
pub fn option_shapes() -> [AggregateOptions; 4] {
    let with = |secondary_uncertainty, quantile_mode| AggregateOptions {
        secondary_uncertainty,
        quantile_mode,
    };
    let grid = AggregateOptions::default().quantile_mode;
    [
        (true, grid),
        (false, grid),
        (true, QuantileMode::Exact),
        (true, QuantileMode::Interpolated(2)),
    ]
    .map(|(on, mode)| with(on, mode))
}

/// A small model for pinned cases: every book damaged, and 300 trials,
/// so a parallel scan cuts two blocks.
pub fn model(seed: u64) -> ScenarioConfig {
    let mut s = ScenarioConfig::small().with_seed(seed).with_trials(300);
    (s.events, s.contracts, s.locations_per_contract) = (300, 3, 20);
    s.annual_rate = 3.0;
    s.with_name(format!("m{seed}"))
}

/// An attachment-factor sweep over one model: one stage-1 key.
pub fn pricing_sweep(seed: u64, points: usize) -> Vec<ScenarioConfig> {
    let point = |i| model(seed).with_name(format!("attach-{i}"));
    (0..points)
        .map(|i| point(i).with_attachment_factor(0.25 + 0.25 * i as f64))
        .collect()
}

// The drawn values. Beside ordinary ones, the degenerate corners: one
// event, one location, one contract; attachment 0, ∞ and NaN; 5 and 6
// trials, either side of the DFA minimum; 255–257 and 513, around the
// engine's 256-trial grain.
const EVENTS: [usize; 10] = [1, 2, 300, 300, 300, 300, 600, 600, 600, 600];
const CONTRACTS: [usize; 3] = [1, 2, 3];
const LOCATIONS: [usize; 6] = [1, 8, 8, 20, 20, 20];
const TRIALS: [usize; 10] = [5, 6, 60, 120, 255, 256, 257, 300, 513, 513];
const ATTACHMENTS: [f64; 10] = [0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 1.5, 3.0, INF, NAN];
const INF: f64 = f64::INFINITY;
const NAN: f64 = f64::NAN;
const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [u32; 4] = [0, 1, 2, 3];
const TAILS: [Tail; 3] = [Tail::Bare, Tail::Extra, Tail::Warehouse];
const CACHES: [Cache; 5] = [
    Cache::Cold,
    Cache::Warm,
    Cache::DiskWarm,
    Cache::Evicted,
    Cache::Corrupt,
];

/// The drawn dimensions and their sizes; a drawn case reports one
/// `(dimension, index)` pair per value it used.
const DIMENSIONS: [(&str, usize); 11] = [
    ("engine", EngineKind::ALL.len()),
    ("options", 4),
    ("threads", THREADS.len()),
    ("shards", SHARDS.len()),
    ("shape", 29),
    ("cache", CACHES.len()),
    ("events", EVENTS.len()),
    ("contracts", CONTRACTS.len()),
    ("locations", LOCATIONS.len()),
    ("trials", TRIALS.len()),
    ("attachment", ATTACHMENTS.len()),
];

/// Shape `i` of 29: run, stream, three fan-outs, then 24 plans — every
/// consumer set under every tail.
fn shape(i: usize) -> Shape {
    let plan = i.saturating_sub(5);
    let [summary, persist, collect] = [1, 2, 4].map(|bit| plan & bit != 0);
    match i {
        0 => Shape::Run,
        1 => Shape::Stream,
        2..=4 => Shape::Fanout(i - 1),
        _ => Shape::Plan {
            summary,
            persist,
            collect,
            tail: TAILS[plan / 8],
        },
    }
}

/// One to four scenarios over one or two models, with the indices they
/// used. The second model is often the first at another trial count: a
/// stage-1 key that forgot the YET would merge them.
fn arb_scenarios() -> impl Strategy<Value = (Vec<ScenarioConfig>, Vec<(usize, usize)>)> {
    let [events, contracts, locations, trials] = [6, 7, 8, 9].map(|d| 0..DIMENSIONS[d].1);
    let model = (events, contracts, locations, trials, 0u64..1 << 20);
    let picks = prop::collection::vec((0..2usize, 0..ATTACHMENTS.len()), 1..=4);
    (model.clone(), model, 0..3u32, picks).prop_map(|(a, b, how, picks)| {
        let b = match how {
            0 => b,
            1 => (a.0, a.1, a.2, b.3, a.4),
            _ => a,
        };
        let mut drawn = Vec::new();
        let scenarios = picks.into_iter().enumerate().map(|(i, (m, at))| {
            let (e, c, l, t, seed) = [a, b][m];
            // Dimensions 6–10 of `DIMENSIONS`: the scenario knobs.
            drawn.extend([(6, e), (7, c), (8, l), (9, t), (10, at)]);
            let mut s = ScenarioConfig::small()
                .with_seed(seed)
                .with_name(format!("s{i}"));
            (s.events, s.contracts) = (EVENTS[e], CONTRACTS[c]);
            (s.locations_per_contract, s.annual_rate) = (LOCATIONS[l], 3.0);
            s.with_trials(TRIALS[t])
                .with_attachment_factor(ATTACHMENTS[at])
        });
        (scenarios.collect(), drawn)
    })
}

/// The whole drawn space: a case and the `(dimension, index)` pairs it
/// used.
pub fn arb_case() -> impl Strategy<Value = (Case, Vec<(usize, usize)>)> {
    let [engines, options, threads, shards, shapes, caches] =
        [0, 1, 2, 3, 4, 5].map(|d| 0..DIMENSIONS[d].1);
    let session = (engines, options, threads, shards, shapes, caches);
    (arb_scenarios(), session).prop_map(|((scenarios, mut drawn), (e, o, t, s, p, c))| {
        drawn.extend([e, o, t, s, p, c].into_iter().enumerate());
        let (engine, options) = (EngineKind::ALL[e], option_shapes()[o]);
        let (threads, shards, shape, cache) = (THREADS[t], SHARDS[s], shape(p), CACHES[c]);
        let case = Case {
            scenarios,
            engine,
            options,
            threads,
            shards,
            shape,
            cache,
        };
        (case, drawn)
    })
}

/// The cases a property has checked, and the `(dimension, index)`
/// pairs they drew.
pub type Drawn = Mutex<(u32, BTreeSet<(usize, usize)>)>;

/// [`check`] a drawn case and record what it drew; the last of `cases`
/// also fails if some value of some dimension was never drawn.
pub fn check_drawn(
    case: &Case,
    drew: &[(usize, usize)],
    seen: &Drawn,
    cases: u32,
) -> Result<(), String> {
    check(case)?;
    let mut seen = seen.lock().map_err(|e| e.to_string())?;
    seen.0 += 1;
    seen.1.extend(drew);
    if seen.0 < cases {
        return Ok(());
    }
    let all = DIMENSIONS
        .iter()
        .enumerate()
        .flat_map(|(d, &(name, n))| (0..n).map(move |i| (d, i, name)));
    let missing: Vec<_> = all.filter(|&(d, i, _)| !seen.1.contains(&(d, i))).collect();
    match missing.is_empty() {
        true => Ok(()),
        false => Err(format!(
            "{cases} cases never drew these (dimension, index, name): {missing:?}"
        )),
    }
}

/// Check `case` against the reference. The error names the first
/// difference (or the panic, whose message the panic hook has printed)
/// and prints the case.
pub fn check(case: &Case) -> Result<(), String> {
    let failure = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compare(case))) {
        Ok(Ok(())) => return Ok(()),
        Ok(Err(difference)) => difference,
        Err(_) => "a panic (its message is above)".to_string(),
    };
    Err(format!("{failure}\n  in {case:#?}"))
}

/// A scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A report as text, less the sorted columns a collected report drops.
pub fn text(r: &PipelineReport) -> String {
    let (agg_sorted, occ_sorted) = (Vec::new(), Vec::new());
    format!(
        "{:?}",
        PipelineReport {
            agg_sorted,
            occ_sorted,
            ..r.clone()
        }
    )
}

/// Every file under `dir` with its bytes, by path below `dir`.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for path in std::fs::read_dir(next)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
        {
            match std::fs::read(&path) {
                Ok(bytes) => out.push((path.strip_prefix(dir).unwrap_or(&path).into(), bytes)),
                Err(_) => pending.push(path),
            }
        }
    }
    out.sort();
    out
}

/// Records each delivered report's slot and text, shared or owned.
#[derive(Default)]
struct Recorder(Vec<(usize, String)>);

impl ReportSink for &mut Recorder {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.accept_shared(slot, &report)
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.0.push((slot, text(report)));
        Ok(())
    }
}

/// A files store of `shards` shards under `dir`; the in-memory store
/// for 0.
fn store(shards: u32, dir: PathBuf) -> Arc<dyn IntermediateStore> {
    match shards {
        0 => Arc::new(InMemoryStore),
        n => Arc::new(ShardedFilesStore::new(dir, n).expect("a positive shard count")),
    }
}

/// `Err` naming `what`, and where the two `Debug` texts part, when
/// `got` is not `want`.
fn same<T: PartialEq + std::fmt::Debug>(got: T, want: T, what: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let (got, want) = (format!("{got:?}"), format!("{want:?}"));
    let at = got
        .chars()
        .zip(want.chars())
        .take_while(|(g, w)| g == w)
        .count();
    let near = |s: &str| {
        s.chars()
            .skip(at.saturating_sub(60))
            .take(240)
            .collect::<String>()
    };
    Err(format!(
        "{what} differs at char {at}\n  got:  {}\n  want: {}",
        near(&got),
        near(&want)
    ))
}

/// Feed `reports` to `sink` as slots `0..`, then seal it.
fn feed(mut sink: impl ReportSink, reports: &[&PipelineReport]) -> RiskResult<()> {
    for (slot, report) in reports.iter().enumerate() {
        sink.accept(slot, (*report).clone())?;
    }
    sink.finish()
}

fn compare(case: &Case) -> Result<(), String> {
    static N: AtomicU64 = AtomicU64::new(0);
    let id = format!(
        "riskpipe-oracle-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    );
    let scratch = Scratch(std::env::temp_dir().join(id));
    let dir = |name: &str| scratch.0.join(name);
    let err = |e: RiskError| e.to_string();
    let (scenarios, n) = (&case.scenarios[..], case.scenarios.len());
    let builder = || {
        let builder = RiskSession::builder().engine(case.engine);
        builder.options(case.options).pool_threads(case.threads)
    };

    // The reference: each scenario alone, on its own fresh 1-thread
    // sequential session over a store like the case's.
    let solo = |i: usize| {
        let solo = RiskSession::builder()
            .engine(EngineKind::Sequential)
            .options(case.options);
        let solo = solo
            .pool_threads(1)
            .store(store(case.shards, dir(&format!("ref-{i}"))));
        solo.build()?.run(&scenarios[i])
    };
    let reference: Vec<Result<PipelineReport, String>> =
        (0..n).map(|i| solo(i).map_err(err)).collect();
    let ok: Vec<&PipelineReport> = reference.iter().map_while(|r| r.as_ref().ok()).collect();
    let want_outcome = match reference.iter().find_map(|r| r.as_ref().err()) {
        Some(e) => Err(e.clone()),
        None => Ok(n),
    };

    // The session under test, in the case's cache state.
    let telemetry = Telemetry::new();
    let mut session = builder()
        .store(store(case.shards, dir("store")))
        .telemetry(telemetry.clone());
    if matches!(case.cache, Cache::DiskWarm | Cache::Corrupt) {
        let writer = builder()
            .stage1_disk_cache(dir("tier"))
            .build()
            .map_err(err)?;
        let _ = writer.run_stream(scenarios, |_, _| Ok(()));
        session = session.stage1_disk_cache(dir("tier"));
    }
    let entry = dir("tier").join(format!("stage1-{:016x}.rps", scenarios[0].stage1_key()));
    if let (Cache::Corrupt, Ok(mut bytes)) = (case.cache, std::fs::read(&entry)) {
        // The last byte is CRC-covered payload in every entry.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        #[expect(
            clippy::disallowed_methods,
            reason = "the oracle plants a damaged entry"
        )]
        std::fs::write(&entry, &bytes).map_err(|e| e.to_string())?;
    }
    let session = session.build().map_err(err)?;
    let mut runs_before = 0;
    if matches!(case.cache, Cache::Warm | Cache::Evicted) {
        let _ = session.run_stream(scenarios, |_, _| Ok(()));
        runs_before += 1;
    }
    if case.cache == Cache::Evicted {
        // Eight keys no case draws: their seeds are past the drawn range.
        let fillers: Vec<_> = (0..8)
            .map(|i| model((1 << 20) + i).with_trials(6))
            .collect();
        session
            .run_stream(&fillers, |_, _| Ok(()))
            .map_err(|e| format!("fillers: {e}"))?;
        runs_before += 1;
    }
    telemetry.reset();

    // The path under test.
    let persist_store = store(case.shards, dir("persisted"));
    let dims = scenarios.iter().enumerate();
    let dims = dims.map(|(i, s)| ScenarioDims::for_scenario(i as u32 % 2, i as u32 / 2 % 2, s));
    let layout = DrilldownLayout::new(dims.collect(), case.engine).map_err(err)?;
    let mut recorder = Recorder::default();
    let (mut summary, mut persisted, mut collected, mut warehouse) = (None, None, None, None);
    let outcome = match case.shape {
        Shape::Run => {
            for (i, want) in reference.iter().enumerate() {
                let got = session.run(&scenarios[i]).map(|r| text(&r)).map_err(err);
                let want = want.as_ref().map(text).map_err(String::clone);
                same(got, want, &format!("run of slot {i}"))?;
            }
            Ok(n)
        }
        Shape::Stream => session.run_stream(scenarios, |slot, report: PipelineReport| {
            recorder.0.push((slot, text(&report)));
            Ok(())
        }),
        Shape::Fanout(members) => {
            let mut sum = SweepSummary::new();
            let mut persisting = PersistingSink::new(Arc::clone(&persist_store));
            let mut fan = FanoutSink::new().with(&mut recorder);
            if members >= 2 {
                fan.push(&mut sum);
            }
            if members == 3 {
                fan.push(&mut persisting);
            }
            let outcome = session.run_stream(scenarios, fan);
            summary = (members >= 2).then_some(sum);
            let counts = (persisting.reports_persisted(), persisting.bytes_persisted());
            persisted = (members == 3).then_some(counts);
            outcome
        }
        Shape::Plan {
            summary: with_summary,
            persist,
            collect,
            tail,
        } => {
            let mut plan = session.sweep(scenarios);
            plan = if with_summary { plan.summary() } else { plan };
            plan = if persist {
                plan.persist_to(Arc::clone(&persist_store))
            } else {
                plan
            };
            plan = if collect { plan.collect() } else { plan };
            let mut read = |o: &SweepOutcome| {
                summary = o.summary().cloned();
                persisted = o.persisted().map(|p| (p.reports(), p.bytes()));
                collected = o.reports().map(<[_]>::to_vec);
                o.delivered()
            };
            match tail {
                Tail::Bare => plan.drive().map(|o| read(&o)),
                Tail::Extra => plan.drive_with(&mut recorder).map(|o| read(&o)),
                Tail::Warehouse => plan.warehouse(layout.clone()).drive().map(|wh| {
                    let delivered = read(wh.sweep());
                    warehouse = Some(wh.into_drilldown());
                    delivered
                }),
            }
        }
    };

    // Delivery: the reference's `Ok` prefix, in input order, then its
    // first error, if any. (`run` was compared slot by slot above.)
    let outcome = match (case.shape, outcome) {
        (Shape::Run, _) => want_outcome.clone(),
        (_, outcome) => outcome.map_err(err),
    };
    same(outcome, want_outcome.clone(), "the sweep's outcome")?;
    let want: Vec<_> = ok.iter().enumerate().map(|(i, r)| (i, text(r))).collect();
    let extra = matches!(
        case.shape,
        Shape::Plan {
            tail: Tail::Extra,
            ..
        }
    );
    if extra || matches!(case.shape, Shape::Stream | Shape::Fanout(_)) {
        same(&recorder.0, &want, "the deliveries")?;
    }
    if want_outcome.is_err() {
        return Ok(());
    }

    // Each consumer holds what it holds when fed the reference alone.
    if let Some(summary) = &summary {
        let mut want = SweepSummary::new();
        feed(&mut want, &ok).map_err(err)?;
        same(
            format!("{summary:?}"),
            format!("{want:?}"),
            "the pooled summary",
        )?;
    }
    if let Some(counts) = persisted {
        let mut want = PersistingSink::new(store(case.shards, dir("ref-persisted")));
        feed(&mut want, &ok).map_err(err)?;
        same(
            counts,
            (want.reports_persisted(), want.bytes_persisted()),
            "the persisted counts",
        )?;
        same(
            files(&dir("persisted")),
            files(&dir("ref-persisted")),
            "the persisted files",
        )?;
    }
    if let Some(collected) = &collected {
        let got: Vec<_> = collected.iter().map(text).enumerate().collect();
        same(&got, &want, "the collected reports")?;
        let kept = collected
            .iter()
            .any(|r| !r.agg_sorted.is_empty() || !r.occ_sorted.is_empty());
        same(kept, false, "a collected report's sorted columns")?;
    }
    if let Some(warehouse) = &warehouse {
        let base = |wh: &Drilldown| {
            let answer = wh.answer(&Query::group_by(LevelSelect::BASE));
            answer.map(|(rows, _)| format!("{rows:?}")).map_err(err)
        };
        let mut want = WarehouseSink::new(layout).map_err(err)?;
        feed(&mut want, &ok).map_err(err)?;
        same(
            base(warehouse),
            base(&want.finish().map_err(err)?),
            "the warehouse base cells",
        )?;
    }

    // The derive counters: `k` keys build once each when cold or
    // evicted, nothing when warm; a disk-warm session adopts the stored
    // grids (exact mode has none), and a corrupt entry rebuilds its key.
    let k = scenarios
        .iter()
        .map(ScenarioConfig::stage1_key)
        .collect::<BTreeSet<_>>()
        .len() as u64;
    let on = u64::from(case.options.secondary_uncertainty);
    let exact = on * u64::from(case.options.quantile_mode == QuantileMode::Exact);
    let (builds, tables, derived) = match case.cache {
        Cache::Cold | Cache::Evicted => (k, on * k, k),
        Cache::Warm => (0, 0, 0),
        Cache::DiskWarm => (0, exact * k, k),
        Cache::Corrupt => (1, exact * k + on - exact, k),
    };
    let metrics = telemetry.snapshot().metrics().clone();
    let got = [
        "stage1.builds",
        "stage2.secondary_builds",
        "stage2.join_builds",
        "stage3.dfa_factor_builds",
    ]
    .map(|name| metrics.counter(name));
    same(
        got,
        [builds, tables, derived, derived],
        "the derive counters",
    )?;

    // Each slot's YELT spill in a files store holds its report's rows.
    for (slot, r) in ok.iter().enumerate().filter(|_| case.shards > 0) {
        let (run, batch) = match case.shape {
            Shape::Run => (runs_before + slot, String::new()),
            _ => (runs_before, format!("batch-{slot:03}")),
        };
        let run = if run == 0 {
            String::new()
        } else {
            format!("run-{run:03}")
        };
        let rows = ShardedReader::open(dir("store").join(run).join(batch)).map(|r| r.rows());
        same(
            rows.map_err(err),
            Ok(r.yelt_rows as u64),
            &format!("slot {slot}'s YELT spill"),
        )?;
    }
    Ok(())
}
