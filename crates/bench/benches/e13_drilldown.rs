//! E13 — the stage-3 drill-down subsystem: sweep → sorted column →
//! warehouse, then OLAP queries over sketch-valued cells.
//!
//! Measures each layer separately:
//!
//! * `ingest` — a full sweep streamed through a `WarehouseSink`
//!   (per report: band slices of the shared sorted loss column,
//!   sketch folds) — the end-to-end cost of building the warehouse
//!   while the sweep runs;
//! * `rebuild` — reconstructing the same warehouse from a
//!   `ShardedFilesStore` spill instead of re-running the sweep (the
//!   overnight-batch shape);
//! * `materialize_budget` — HRU benefit-per-byte view selection with
//!   measured cuboid sizes;
//! * `query_*` — the three acceptance query shapes (rollup, slice,
//!   dice with a return-period-band filter) against materialised
//!   views.

use criterion::{criterion_group, criterion_main, Criterion};
use riskpipe_analytics::{
    Drilldown, DrilldownLayout, ScenarioDims, SessionAnalytics, SweepPlanAnalytics, WarehouseSink,
};
use riskpipe_core::{RiskSession, ScenarioConfig, ShardedFilesStore};
use riskpipe_warehouse::{dim, Filter, LevelSelect, Query};
use std::sync::Arc;

fn grid() -> (Vec<ScenarioConfig>, Vec<ScenarioDims>) {
    let mut scenarios = Vec::new();
    let mut dims = Vec::new();
    for region in 0..2u32 {
        for peril in 0..2u32 {
            for attach in 0..2u32 {
                let factor = 0.25 + 0.25 * attach as f64;
                let scenario = ScenarioConfig::small()
                    .with_seed(0xE13 + (region * 2 + peril) as u64)
                    .with_trials(500)
                    .with_attachment_factor(factor)
                    .with_name(format!("r{region}-p{peril}-a{attach}"));
                dims.push(ScenarioDims::for_scenario(region, peril, &scenario));
                scenarios.push(scenario);
            }
        }
    }
    (scenarios, dims)
}

fn queries() -> [Query; 3] {
    [
        Query::group_by(LevelSelect([0, 0, 3, 1])),
        Query::group_by(LevelSelect([0, 0, 1, 1])).filter(Filter::slice(dim::GEO, 1)),
        Query::group_by(LevelSelect([0, 0, 3, 0])).filter(Filter {
            dim: dim::TIME,
            codes: vec![5, 6],
        }),
    ]
}

fn built_warehouse() -> Drilldown {
    let (scenarios, dims) = grid();
    let session = RiskSession::builder().pool_threads(4).build().unwrap();
    let layout = DrilldownLayout::new(dims, session.engine()).unwrap();
    session
        .sweep(&scenarios)
        .warehouse(layout)
        .materialize_budget(256 * 1024)
        .drive()
        .unwrap()
        .into_drilldown()
}

fn bench_ingest(c: &mut Criterion) {
    let (scenarios, dims) = grid();
    let mut group = c.benchmark_group("e13_drilldown");
    group.sample_size(10);

    group.bench_function("ingest", |b| {
        b.iter(|| {
            let session = RiskSession::builder().pool_threads(4).build().unwrap();
            let layout = DrilldownLayout::new(dims.clone(), session.engine()).unwrap();
            let wh = session
                .sweep(&scenarios)
                .warehouse(layout)
                .drive()
                .unwrap()
                .into_drilldown();
            wh.base().cells()
        })
    });

    // Pre-spill once (a persist-only plan); the bench then measures
    // pure rebuild cost.
    let spill = std::env::temp_dir().join(format!("riskpipe-e13-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let store = Arc::new(ShardedFilesStore::new(&spill, 2).unwrap());
    let session = RiskSession::builder().pool_threads(4).build().unwrap();
    session
        .sweep(&scenarios)
        .persist_to(store.clone())
        .drive()
        .unwrap();
    let layout = DrilldownLayout::new(dims.clone(), session.engine()).unwrap();
    group.bench_function("rebuild", |b| {
        b.iter(|| {
            let wh = session
                .analytics(layout.clone())
                .rebuild_from_store(&store, 0)
                .unwrap();
            wh.base().cells()
        })
    });
    group.finish();
    store.clear_runs().unwrap();
    let _ = std::fs::remove_dir_all(&spill);
}

fn bench_build_and_query(c: &mut Criterion) {
    let wh = built_warehouse();
    let mut group = c.benchmark_group("e13_drilldown");
    group.sample_size(20);

    group.bench_function("materialize_budget", |b| {
        b.iter(|| {
            let mut fresh = wh.clone();
            fresh.materialize_budget(256 * 1024).unwrap().picked.len()
        })
    });

    let [rollup, slice, dice] = queries();
    for (name, q) in [
        ("query_rollup", rollup),
        ("query_slice", slice),
        ("query_dice", dice),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let (rows, cost) = wh.answer(&q).unwrap();
                assert_eq!(cost.facts_read, 0);
                rows.len()
            })
        });
    }

    // The point of the sketches: a cell-level tail metric per query,
    // straight off the materialised views.
    group.bench_function("query_rollup_var99", |b| {
        let [rollup, _, _] = queries();
        b.iter(|| {
            let (rows, _) = wh.answer(&rollup).unwrap();
            rows.iter()
                .map(|r| r.cell.var99().unwrap())
                .fold(0.0f64, f64::max)
        })
    });
    group.finish();
}

fn bench_ingest_worker(c: &mut Criterion) {
    // The sink in isolation: ingesting one bare 20k-trial YLT (one
    // sort + band slices + sketch fold), no pipeline around it.
    let (_, dims) = grid();
    let losses: Vec<f64> = (0..20_000)
        .map(|i| (((i * 104729) % 99991) as f64).powf(1.3))
        .collect();
    let mut ylt = riskpipe_tables::Ylt::zeroed(losses.len());
    for (t, &x) in losses.iter().enumerate() {
        ylt.set_trial(riskpipe_types::TrialId::new(t as u32), x, x / 2.0, 1);
    }
    let mut group = c.benchmark_group("e13_drilldown");
    group.sample_size(20);
    group.bench_function("ingest_one_20k_ylt", |b| {
        b.iter(|| {
            let layout =
                DrilldownLayout::new(dims.clone(), riskpipe_aggregate::EngineKind::CpuParallel)
                    .unwrap();
            let mut sink = WarehouseSink::new(layout).unwrap();
            sink.ingest(0, &ylt).unwrap();
            sink.stats().trials
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_build_and_query,
    bench_ingest_worker
);
criterion_main!(benches);
