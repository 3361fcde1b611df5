//! # riskbench — the repository's benchmark
//!
//! Five paper-shaped workloads ([`workloads::Kind`]) measured end to
//! end with tracing off ([`END_TO_END`]), and a separate traced pass
//! that fills the per-crate layer table ([`layers`]). `BENCHMARK.json`
//! at the repository root declares the command, the workloads and
//! every metric; `README.md` beside this crate says how to read them.
//!
//! The binary is a thin `main` over this library: [`run`] measures one
//! workload in-process (what the benchmark driver and the smoke test
//! call), [`suite::run_all`] re-executes the binary once per workload
//! and pass so peak memory is per workload, and [`compare::compare`]
//! judges two result documents against each metric's bound.

#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod layers;
pub mod machine;
pub mod mem;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;

use json::Json;
use machine::ScratchRoot;
use riskpipe_types::{RiskError, RiskResult};
use stats::Summary;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Env, Fixture, Kind, Rep};

#[global_allocator]
static ALLOCATOR: mem::CountingAllocator = mem::CountingAllocator;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xB11;

/// Seconds of timed reps per run when `--seconds` is not given; equal
/// to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Times the set-up (fixture build plus one warm-up rep) is repeated
/// in a run; `setup_s` is the median.
const SETUPS: usize = 3;

/// Fewest timed reps in a run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end metrics
    /// only; 0 for layer metrics, which have no bound).
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off. Every workload
/// emits every one; `README.md` maps each onto the workload's own
/// terms (scenarios/s, trials/s, MB/s, queries/s).
pub const END_TO_END: [MetricSpec; 3] = [
    MetricSpec {
        name: "rep_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// What one run measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Seed every scenario seed derives from.
    pub seed: u64,
    /// Seconds of timed reps.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the layer
    /// table, telemetry armed.
    pub trace: bool,
    /// Tiny shapes (tests).
    pub smoke: bool,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The workload measured.
    pub kind: Kind,
    /// Every check passed and no operation failed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks failed.
    pub failed: u64,
    /// Metric name → (value, unit): every end-to-end metric of an
    /// untraced run, every layer metric of a traced one.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Quartiles, sample counts, per-phase medians and derived rates.
    pub detail: Json,
    /// What failed, for the log.
    pub notes: Vec<String>,
}

/// Prefix of the detail line a run prints before its result line.
pub const DETAIL_PREFIX: &str = "riskbench-detail: ";

impl RunOutput {
    /// The one-line JSON object the benchmark driver reads: exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, (value, unit))| {
            (
                *name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }

    /// Print every metric by name with its unit, then the detail line,
    /// then the result line (last, as the driver requires).
    pub fn print(&self) {
        for note in &self.notes {
            eprintln!("riskbench: {}: {note}", self.kind.name());
        }
        println!(
            "workload {}: correct={} attempted={} failed={}",
            self.kind.name(),
            self.correct,
            self.attempted,
            self.failed
        );
        for (name, (value, unit)) in &self.metrics {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        println!("{DETAIL_PREFIX}{}", self.detail.to_line());
        println!("{}", self.result_line());
    }
}

/// Running totals of operations and failures across reps.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count a completed rep, and check its result bits against the
    /// reference rep's.
    pub fn absorb(&mut self, rep: &Rep, reference: &Rep) {
        self.attempted += rep.attempted + 1;
        self.failed += rep.failed;
        self.notes.extend(rep.notes.iter().cloned());
        if rep.digest != reference.digest {
            self.failed += 1;
            self.note("result bits differ from the reference rep's".into());
        }
    }

    /// Charge a rep that returned `Err` as all of its operations failed.
    pub fn absorb_err(&mut self, fixture: &Fixture, err: &RiskError) {
        self.attempted += fixture.ops_per_rep();
        self.failed += fixture.ops_per_rep();
        self.note(format!("rep failed: {err}"));
    }

    fn note(&mut self, note: String) {
        // A broken build fails every rep the same way; keep the log short.
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// Build the fixture and run one warm-up rep, `setups` times; keep
/// the last. Returns the set-up times in seconds.
pub(crate) fn set_up(
    cfg: &RunConfig,
    env: &Env<'_>,
    setups: usize,
) -> RiskResult<(Fixture, Rep, Vec<f64>)> {
    let mut times = Vec::with_capacity(setups);
    let mut ready = None;
    for _ in 0..setups {
        // One fixture alive at a time, so repeating the set-up does
        // not raise the peak memory the run reports.
        drop(ready.take());
        let t0 = Instant::now();
        let fixture = Fixture::build(cfg.kind, cfg.seed, env)?;
        let reference = fixture.rep(env)?;
        times.push(t0.elapsed().as_secs_f64());
        if reference.failed > 0 {
            return Err(RiskError::invalid(format!(
                "warm-up rep failed its checks: {}",
                reference.notes.join("; ")
            )));
        }
        ready = Some((fixture, reference));
    }
    let (fixture, reference) = ready.expect("at least one set-up");
    Ok((fixture, reference, times))
}

/// Measure one workload. Untraced: the end-to-end metrics. Traced: the
/// layer table (see [`layers`]).
pub fn run(cfg: &RunConfig, scratch: &ScratchRoot) -> RiskResult<RunOutput> {
    let env = Env {
        threads: machine::pool_threads(),
        scratch,
        smoke: cfg.smoke,
        telemetry: None,
    };
    if cfg.trace {
        return layers::run_traced(cfg, env);
    }
    let (fixture, reference, setup_s) = set_up(cfg, &env, SETUPS)?;

    let mut tally = Tally::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut heap_mb: Vec<f64> = Vec::new();
    let cpu0 = machine::cpu_seconds();
    let started = Instant::now();
    let mut attempts = 0usize;
    while attempts < MIN_REPS || started.elapsed().as_secs_f64() < cfg.seconds {
        attempts += 1;
        // Each rep's memory window opens with the fixture live and
        // earlier transients gone: it covers what one rep holds.
        mem::reset_peak();
        match fixture.rep(&env) {
            Ok(rep) => {
                heap_mb.push(mem::peak_heap_mb());
                tally.absorb(&rep, &reference);
                reps.push(rep);
            }
            Err(e) => tally.absorb_err(&fixture, &e),
        }
    }
    let cpu_s = machine::cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
    if reps.is_empty() {
        return Err(RiskError::invalid(format!(
            "no rep of {} completed: {}",
            cfg.kind.name(),
            tally.notes.join("; ")
        )));
    }

    let wall_ms: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e3).collect();
    // The peak is bimodal on small workloads (two in-flight scenarios
    // peak together or not), so its mean repeats better than its median.
    let mean_heap_mb = heap_mb.iter().sum::<f64>() / heap_mb.len() as f64;
    let summaries = [
        ("rep_ms", Summary::of(&wall_ms)),
        ("peak_heap_mb", Summary::of(&[mean_heap_mb])),
        ("setup_s", Summary::of(&setup_s)),
    ];
    let mut metrics = BTreeMap::new();
    let mut end_to_end = BTreeMap::new();
    for (spec, (name, summary)) in END_TO_END.iter().zip(summaries) {
        debug_assert_eq!(spec.name, name);
        if !summary.median.is_finite() {
            return Err(RiskError::invalid(format!(
                "{name} could not be measured on this platform"
            )));
        }
        metrics.insert(spec.name, (summary.median, spec.unit));
        end_to_end.insert(spec.name.to_string(), summary.to_json(spec.unit));
    }

    let detail = Json::obj([
        ("end_to_end", Json::Obj(end_to_end)),
        (
            "first_result_s",
            Json::Num(stats::median(
                &reps.iter().map(|r| r.first_s).collect::<Vec<_>>(),
            )),
        ),
        (
            // Process CPU time (all threads) over the timed window,
            // checks between reps included, per attempted rep.
            "cpu_ms_per_rep",
            cpu_s.map_or(Json::Null, |s| Json::Num(s * 1e3 / attempts as f64)),
        ),
        ("phases_s", phase_medians(&reps)),
        ("derived", derived_rates(&fixture, &reps)),
    ]);
    Ok(RunOutput {
        kind: cfg.kind,
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        detail,
        notes: tally.notes,
    })
}

/// Median seconds of each named phase across reps.
fn phase_median(reps: &[Rep], phase: &str) -> Option<f64> {
    let samples: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.phases.iter())
        .filter(|(name, _)| *name == phase)
        .map(|&(_, s)| s)
        .collect();
    (!samples.is_empty()).then(|| stats::median(&samples))
}

fn phase_medians(reps: &[Rep]) -> Json {
    Json::obj(reps[0].phases.iter().filter_map(|&(name, _)| {
        let m = phase_median(reps, name)?;
        Some((name, Json::Num(m)))
    }))
}

/// The workload's own rates — the names the issue tracker uses
/// (`scenarios_per_s` at `price_sweep`, `spill_mb_per_s` at
/// `spill_replay`, …), derived from the phase medians. Reported for
/// reading; the gated metrics are [`END_TO_END`].
fn derived_rates(fixture: &Fixture, reps: &[Rep]) -> Json {
    let n = fixture.scenarios.len() as f64;
    let mb = reps[0].bytes as f64 / 1e6;
    let phase = |name: &str| phase_median(reps, name).unwrap_or(f64::NAN);
    let first = stats::median(&reps.iter().map(|r| r.first_s).collect::<Vec<_>>());
    let rate = |amount: f64, seconds: f64, unit: &str| {
        Json::obj([
            ("value", Json::Num(amount / seconds)),
            ("unit", Json::str(unit)),
        ])
    };
    let seconds = |s: f64| Json::obj([("value", Json::Num(s)), ("unit", Json::str("s"))]);
    match fixture.kind {
        Kind::PriceSweep => Json::obj([
            ("scenarios_per_s", rate(n, phase("sweep"), "1/s")),
            ("first_report_s", seconds(first)),
        ]),
        Kind::DeepTrials => Json::obj([(
            "trials_per_s",
            rate(n * fixture.trials() as f64, phase("sweep"), "1/s"),
        )]),
        Kind::ColdModels => Json::obj([
            ("scenarios_per_s", rate(n, phase("cold_pass"), "1/s")),
            ("first_report_s", seconds(first)),
            (
                "diskwarm_first_report_s",
                seconds(phase("diskwarm_first_report")),
            ),
        ]),
        Kind::SpillReplay => Json::obj([("spill_mb_per_s", rate(mb, phase("replay"), "MB/s"))]),
        Kind::RebuildQuery => Json::obj([
            ("rebuild_mb_per_s", rate(mb, phase("rebuild"), "MB/s")),
            (
                "queries_per_s",
                rate(fixture.queries() as f64, phase("queries"), "1/s"),
            ),
        ]),
    }
}
