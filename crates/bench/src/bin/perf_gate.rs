//! Nightly perf gate: runs the tracked sweep workloads and **fails**
//! (non-zero exit) when one regresses past its wall-clock budget.
//!
//! ```text
//! cargo run --release -p riskpipe-bench --bin perf_gate
//! ```
//!
//! Budgets are deliberately generous (several times the reference
//! machine's time) so the gate trips on real regressions — an
//! accidentally quadratic sink, a cache that stopped sharing stage 1 —
//! not on runner noise; most checks also pin the counters that would
//! move with such a regression, on any machine. Two knobs:
//! `PERF_GATE_SCALE` multiplies every budget (the nightly job sets `3`
//! for hosted runners; local runs leave it at 1), and
//! `PERF_GATE_TRACE_OUT=<path>` writes the obs check's telemetry-armed
//! run as a chrome trace (the nightly artifact). Slow drift is caught
//! by the per-PR parent/change riskbench runs, not here.

#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness: wall-clock budgets are what it checks, and \
              the chrome trace it writes is a regenerable diagnostic"
)]

use riskpipe_analytics::{DrilldownLayout, ScenarioDims, SweepPlanAnalytics};
use riskpipe_bench::{model_heavy_small, pricing_sweep};
use riskpipe_core::{InMemoryStore, RiskSession, ScenarioConfig, SweepSummary};
use riskpipe_warehouse::{dim, Filter, LevelSelect, Query};
use std::sync::Arc;
use std::time::Instant;

/// E11's shape (same fixture builders): a model-heavy same-key sweep
/// where the stage-1 cache must keep the per-scenario cost to the
/// Monte-Carlo pass — one model run and one set of secondary tables
/// for all eight scenarios. The two counters catch a regression to
/// per-scenario builds on any machine; the budget (7x the 0.7 s the
/// 2-vCPU reference box measures, the headroom the old 30 s budget had
/// over the 4.3 s it took with per-scenario table builds) catches it
/// on a comparable one. A third counter pins the shared descent of a
/// grid row's inversions: [`MAX_EVALS_PER_CELL`].
fn check_sweep_cache() -> f64 {
    let sweep = pricing_sweep(model_heavy_small(0xE11, 200), 8);
    let telemetry = riskpipe_obs::Telemetry::new();
    let session = RiskSession::builder()
        .pool_threads(4)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let t0 = Instant::now();
    let mut summary = SweepSummary::new();
    session.run_stream(&sweep, &mut summary).unwrap();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(summary.scenarios(), 8);
    assert_eq!(
        session.stage1_cache_stats().misses,
        1,
        "stage-1 cache stopped sharing the model run"
    );
    let snap = telemetry.snapshot();
    let metrics = snap.metrics();
    assert_eq!(
        metrics.counter("stage2.secondary_builds"),
        1,
        "stage-1 cache stopped sharing the secondary tables"
    );
    // One row per hit, 33 cells per row (the default grid).
    let cells = metrics.counter("stage2.join_hits") * 33;
    let per_cell = metrics.counter("stage2.secondary_evals") as f64 / cells as f64;
    assert!(
        per_cell < MAX_EVALS_PER_CELL,
        "grid inversions ran {per_cell:.2} beta CDF evaluations per cell: \
         a row's solves stopped sharing their descent"
    );
    elapsed
}

/// Beta CDF evaluations per grid cell `check_sweep_cache` allows:
/// halfway between the 20.83 that solving every cell from scratch runs
/// on its fixture and the 4.63 a row's solves run over one shared
/// trail. Losing the reuse makes the table build ≈ 3.7x slower, which
/// the wall-clock budget alone would not catch.
const MAX_EVALS_PER_CELL: f64 = 12.7;

/// The deep-trials shape (riskbench's `deep_trials`): trials far
/// outnumber ELT rows — 100 000 trials over 16 books of a 300-event
/// catalogue, two scenarios sharing one stage-1 key — so the stage-2
/// trial kernel carries the run. The 2-vCPU reference box measures
/// 0.33 s with the branch-free kernel (0.45 s with the branching one it
/// replaced). The budget stays at 6.3 s, 7x the 0.9 s the same box
/// measured when the event-major join went in; one hash probe per
/// layer per occurrence took 1.6x that. A join rebuilt — or a
/// first-book YELT row count redone — per scenario shows in the armed
/// counters on any machine.
fn check_kernel() -> f64 {
    let mut base = ScenarioConfig::small()
        .with_seed(0xE15)
        .with_trials(100_000);
    base.events = 300;
    base.contracts = 16;
    base.locations_per_contract = 100;
    let sweep = pricing_sweep(base, 2);
    let telemetry = riskpipe_obs::Telemetry::new();
    let session = RiskSession::builder()
        .pool_threads(4)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let t0 = Instant::now();
    let mut summary = SweepSummary::new();
    session.run_stream(&sweep, &mut summary).unwrap();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(summary.trials(), 2 * 100_000);
    let snap = telemetry.snapshot();
    assert_eq!(
        snap.metrics().counter("stage2.join_builds"),
        1,
        "stage-1 cache stopped sharing the join of the books"
    );
    assert_eq!(
        snap.metrics().counter("stage2.yelt_counts"),
        1,
        "the first book's YELT row count went back to once per scenario"
    );
    elapsed
}

/// The cold-models shape (riskbench's `cold_models`): four distinct
/// stage-1 keys, each a 500-event catalogue against four books of
/// 12 000 clustered locations, 500 trials — so catalogue, ELT
/// generation and the per-key join carry the run. The budget is 7x the
/// 0.30 s the 2-vCPU reference box measures with the footprint walk
/// (the exhaustive event x location loop took 0.74 s); the armed
/// counters catch a regression to that loop on any machine: the pairs
/// that ran the exact loss chain must stay under 5 % of the event x
/// location product. The timed session writes through to a disk tier
/// (riskbench's cold pass does too); a second, untimed session over
/// the same tier then pins "disk-warm means warm" by count alone: no
/// model run rebuilt and no beta inverted, on any machine.
fn check_stage1() -> f64 {
    let scenarios: Vec<ScenarioConfig> = (0..4u64)
        .map(|k| {
            let mut s = ScenarioConfig::small()
                .with_seed(0xE17 + k)
                .with_trials(500);
            s.events = 500;
            s.contracts = 4;
            s.locations_per_contract = 12_000;
            s
        })
        .collect();
    let tier = std::env::temp_dir().join(format!("riskpipe-perfgate-s1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tier);
    let tiered_sweep = || {
        let telemetry = riskpipe_obs::Telemetry::new();
        let session = RiskSession::builder()
            .pool_threads(4)
            .stage1_disk_cache(&tier)
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let t0 = Instant::now();
        let mut summary = SweepSummary::new();
        session.run_stream(&scenarios, &mut summary).unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(summary.scenarios(), 4);
        (elapsed, telemetry.snapshot())
    };
    let (elapsed, snap) = tiered_sweep();
    let (_, warm) = tiered_sweep();
    let _ = std::fs::remove_dir_all(&tier);
    let metrics = snap.metrics();
    assert_eq!(
        metrics.counter("stage1.builds"),
        4,
        "four distinct keys build four model runs"
    );
    let warm = warm.metrics();
    assert_eq!(
        (
            warm.counter("stage1.builds"),
            warm.counter("stage1.disk_hits"),
            warm.counter("stage2.secondary_builds"),
        ),
        (0, 4, 0),
        "a disk-warm session rebuilt a model run or re-inverted its betas"
    );
    let product = 4 * 4 * 500 * 12_000u64;
    let pairs = metrics.counter("stage1.elt_pairs");
    assert!(
        pairs >= metrics.counter("stage1.elt_damaging") && pairs * 20 < product,
        "ELT generation ran the loss chain on {pairs} of {product} pairs"
    );
    elapsed
}

/// E12's nightly shape: a paper-scale (`medium()`) pricing sweep
/// streamed into pooled sweep analytics, exercising the sketched
/// (compacting) path. Budget: 7x the 7.0 s the 2-vCPU reference box
/// measures.
fn check_sweep_analytics() -> f64 {
    let sweep = pricing_sweep(ScenarioConfig::medium().with_seed(0xE12), 4);
    let session = RiskSession::builder().build().unwrap();
    let t0 = Instant::now();
    let mut summary = SweepSummary::new();
    session.run_stream(&sweep, &mut summary).unwrap();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(summary.trials(), 4 * 20_000);
    assert!(
        !summary.analytics_exact(),
        "80k pooled trials must exercise the sketched path"
    );
    assert!(summary.pooled_tvar99().unwrap() > 0.0);
    assert!(
        summary.rank_error_bound() < 0.05,
        "sketch error bound degraded: {}",
        summary.rank_error_bound()
    );
    elapsed
}

/// E13's shape: the stage-3 drill-down subsystem end to end — sweep
/// through the `WarehouseSink` (band slices of each report's sorted
/// loss column folded into sketch cells), byte-budgeted view
/// materialisation, the three acceptance query shapes, and a group-by
/// at every retained cuboid's own grain, which must borrow its rows (a
/// reintroduced per-row copy fails here, whatever the clock says).
/// Budget: 7x
/// the 0.48 s the 2-vCPU reference box measures (the eight 500-trial
/// scenarios themselves are most of that; ingest is no longer visible
/// in it).
fn check_drilldown() -> f64 {
    let mut scenarios = Vec::new();
    let mut dims = Vec::new();
    for region in 0..2u32 {
        for peril in 0..2u32 {
            for attach in 0..2u32 {
                let factor = 0.25 + 0.25 * attach as f64;
                let s = ScenarioConfig::small()
                    .with_seed(0xE13 + (region * 2 + peril) as u64)
                    .with_trials(500)
                    .with_attachment_factor(factor)
                    .with_name(format!("r{region}-p{peril}-a{attach}"));
                dims.push(ScenarioDims::for_scenario(region, peril, &s));
                scenarios.push(s);
            }
        }
    }
    let session = RiskSession::builder().pool_threads(4).build().unwrap();
    let layout = DrilldownLayout::new(dims, session.engine()).unwrap();
    let t0 = Instant::now();
    let wh = session
        .sweep(&scenarios)
        .warehouse(layout)
        .materialize_budget(256 * 1024)
        .drive()
        .unwrap()
        .into_drilldown();
    let queries = [
        Query::group_by(LevelSelect([0, 0, 3, 1])),
        Query::group_by(LevelSelect([0, 0, 1, 1])).filter(Filter::slice(dim::GEO, 1)),
        Query::group_by(LevelSelect([0, 0, 3, 0])).filter(Filter {
            dim: dim::TIME,
            codes: vec![6, 7],
        }),
    ];
    for q in &queries {
        let (rows, cost) = wh.answer(q).unwrap();
        assert!(!rows.is_empty(), "drill-down query returned no cells");
        assert_eq!(cost.facts_read, 0, "drill-down must not rescan facts");
        assert!(rows.iter().all(|r| r.cell.var99().unwrap() > 0.0));
    }
    // Copies, not wall clock: a group-by at the grain of a retained
    // cuboid — the base, or any view the budget bought — hands back
    // that cuboid's cells and merges none.
    assert!(!wh.views().is_empty(), "the budget bought no view");
    for select in std::iter::once(LevelSelect::BASE).chain(wh.views()) {
        let (rows, cost) = wh.answer(&Query::group_by(select)).unwrap();
        assert_eq!(cost.cells_merged, 0, "{select:?} merged cells");
        assert!(
            !rows.is_empty() && rows.iter().all(|r| r.is_borrowed()),
            "{select:?} copied a cell it could have borrowed"
        );
    }
    t0.elapsed().as_secs_f64()
}

/// E12's fan-out shape: the same sweep once through a single summary
/// sink and once through a three-consumer `SweepPlan` fan-out (summary
/// plus in-memory persistence plus an extra summary via `drive_with`).
/// The fan-out run's wall clock feeds the budget; on top of that the
/// check asserts the overhead against the single-sink run directly —
/// the consumers must ride one sweep (a regression to
/// one-sweep-per-sink would blow the 3x multiple), and every summary
/// must come out bit-identical.
fn check_fanout() -> f64 {
    let sweep = pricing_sweep(model_heavy_small(0xE12, 500), 8);

    let session = RiskSession::builder().pool_threads(4).build().unwrap();
    let t0 = Instant::now();
    let single = session.sweep(&sweep).summary().drive().unwrap();
    let single_s = t0.elapsed().as_secs_f64();
    let single_summary = single.into_summary().unwrap();

    let session = RiskSession::builder().pool_threads(4).build().unwrap();
    let mut extra = SweepSummary::new();
    let t0 = Instant::now();
    let fanned = session
        .sweep(&sweep)
        .summary()
        .persist_to(Arc::new(InMemoryStore))
        .drive_with(&mut extra)
        .unwrap();
    let fanout_s = t0.elapsed().as_secs_f64();

    let fanned_summary = fanned.summary().unwrap();
    assert_eq!(fanned.persisted().unwrap().reports(), 8);
    for summary in [fanned_summary, &extra] {
        assert_eq!(
            summary.pooled_tvar99().unwrap().to_bits(),
            single_summary.pooled_tvar99().unwrap().to_bits(),
            "fan-out must not perturb pooled analytics"
        );
    }
    // Generous tripwire: sink work is a small slice of a model-heavy
    // sweep, so even noisy runners stay far under this unless the
    // fan-out re-runs scenarios per consumer.
    assert!(
        fanout_s <= single_s * 3.0 + 2.0,
        "fan-out overhead regressed: {fanout_s:.2}s vs single-sink {single_s:.2}s"
    );
    fanout_s
}

/// The observability overhead check: the same model-heavy e12 shape
/// once bare and once with the flight recorder armed. A span site is
/// one thread-local read and a branch when nothing is installed and a
/// bounded buffer push when armed, so the armed run must stay within a
/// few percent of the bare one (1.03x, plus 1 s slack for runner
/// noise) — and must not perturb the pooled numbers by a single bit.
/// With `PERF_GATE_TRACE_OUT=<path>`
/// the armed run's chrome-trace export is written there (the nightly
/// workflow uploads it as an artifact).
fn check_obs_overhead() -> f64 {
    let sweep = pricing_sweep(model_heavy_small(0x0B5, 500), 8);

    let session = RiskSession::builder().pool_threads(4).build().unwrap();
    let t0 = Instant::now();
    let bare = session.sweep(&sweep).summary().drive().unwrap();
    let bare_s = t0.elapsed().as_secs_f64();
    let bare_summary = bare.into_summary().unwrap();

    let telemetry = riskpipe_obs::Telemetry::new();
    let session = RiskSession::builder()
        .pool_threads(4)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let t0 = Instant::now();
    let armed = session.sweep(&sweep).summary().drive().unwrap();
    let armed_s = t0.elapsed().as_secs_f64();

    assert_eq!(
        armed.summary().unwrap().pooled_tvar99().unwrap().to_bits(),
        bare_summary.pooled_tvar99().unwrap().to_bits(),
        "telemetry must not perturb pooled analytics"
    );
    let snap = armed.telemetry().unwrap();
    assert_eq!(
        snap.spans_named("stage2.engine").count(),
        8,
        "the armed run must have recorded every scenario"
    );
    assert_eq!(snap.metrics().counter("stage2.scenarios"), 8);

    if let Ok(path) = std::env::var("PERF_GATE_TRACE_OUT") {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, snap.to_chrome_trace()) {
            Ok(()) => println!("chrome trace written to {path}"),
            Err(e) => eprintln!("warning: could not write chrome trace to {path}: {e}"),
        }
    }

    assert!(
        armed_s <= bare_s * 1.03 + 1.0,
        "telemetry overhead regressed: armed {armed_s:.2}s vs bare {bare_s:.2}s"
    );
    armed_s
}

/// `(name, check, budget in seconds at scale 1)`.
type Check = (&'static str, fn() -> f64, f64);

fn main() {
    let scale: f64 = std::env::var("PERF_GATE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let checks: [Check; 7] = [
        ("sweep_cache (e11 shape)", check_sweep_cache, 5.0),
        ("stage1 (cold-models shape)", check_stage1, 2.1),
        ("kernel (deep-trials shape)", check_kernel, 6.3),
        ("sweep_analytics (e12 medium)", check_sweep_analytics, 49.0),
        ("fanout (e12 shape)", check_fanout, 60.0),
        ("drilldown (e13 shape)", check_drilldown, 3.4),
        ("obs_overhead (e12 shape)", check_obs_overhead, 60.0),
    ];
    let mut failed = false;
    println!("perf gate (scale x{scale}):");
    for (name, run, budget) in checks {
        let budget = budget * scale;
        let elapsed = run();
        let over = elapsed > budget;
        failed |= over;
        let verdict = if over { "FAIL" } else { "ok" };
        println!("  {name:<32} {elapsed:>8.2}s  budget {budget:>8.2}s  {verdict}");
    }
    if failed {
        eprintln!("perf gate FAILED: a tracked workload exceeded its budget");
        std::process::exit(1);
    }
}
