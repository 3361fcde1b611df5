//! The traced pass: the per-crate layer table.
//!
//! Two sources fill it, both on the named workload's own fixture:
//!
//! * **the harness's recorder** — a [`riskpipe_obs::Recorder`] of the
//!   benchmark's own, recording one span around every call it makes
//!   into a crate's public functions ([`Probes::time`]); a layer
//!   metric is the median of its span's durations;
//! * **the program's telemetry** — armed through the public
//!   `RiskSessionBuilder::telemetry` (or `riskpipe_obs::install` for
//!   the replay workloads, which run sinks without a session) on
//!   reps that alternate with bare ones, so the difference between the
//!   two is the tracing overhead, and the `obs.span.*` rows cross-check
//!   the harness's numbers from inside the program.
//!
//! No product code gains a span for this: spans inside the program
//! are the ones it already has.

use crate::spans::{totals_by_name, SpanTotals};
use crate::workloads::{
    capture_reports, query_shapes, view_budget, warehouse_sink, Env, Fixture, PoolCounts, Rep,
};
use crate::{stats, Better, Json, MetricSpec, RunConfig, RunOutput, Tally};
use riskpipe_aggregate::{AggregateRunner, EngineKind, QuantileMode, SecondaryTable};
use riskpipe_analytics::{rp_bands, SessionAnalytics};
use riskpipe_catmodel::stage1io::{decode_stage1, encode_stage1};
use riskpipe_catmodel::{
    simulate_yet, CatalogConfig, EltGenConfig, EventCatalog, GroundUpModel, YetConfig,
};
use riskpipe_core::{
    DiskStage1Cache, FanoutSink, PersistingSink, PipelineReport, ReportSink, RiskSession,
    ShardedFilesStore, SweepSummary,
};
use riskpipe_dfa::{CompanyConfig, DfaEngine};
use riskpipe_exec::{par_for, ThreadPool};
use riskpipe_mapreduce::YltFactJob;
use riskpipe_metrics::{QuantileSketch, RiskMeasures};
use riskpipe_obs::{Recorder, Telemetry};
use riskpipe_tables::yellt::YELLT_BYTES_PER_ROW;
use riskpipe_tables::{codec, durable, ShardedReader, ShardedWriter, Yelt};
use riskpipe_types::{LocationId, RiskError, RiskResult, RunningStats, TrialId};
use riskpipe_warehouse::{LevelSelect, Source};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use Better::{Higher, Lower};

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The program spans the layer table reports, as
/// (`span name`, `total_ms`, `self_ms`, `count`) metric names.
macro_rules! span_rows {
    ($($span:literal),* $(,)?) => {
        [$((
            $span,
            concat!("obs.span.", $span, ".total_ms"),
            concat!("obs.span.", $span, ".self_ms"),
            concat!("obs.span.", $span, ".count"),
        )),*]
    };
}

const SPAN_ROWS: [(&str, &str, &str, &str); 14] = span_rows![
    "stage1.acquire",
    "stage1.build",
    "stage1.disk.load",
    "stage1.disk.store",
    "stage2.engine",
    "stage2.persist_yelt",
    "stage3.dfa",
    "sink.deliver",
    "warehouse.ingest",
    "shuffle.map",
    "shuffle.reduce",
    "durable.write",
    "durable.fsync",
    "pool.task",
];

/// The layer metrics that are not program spans, by crate.
const LAYER_TABLE: [MetricSpec; 66] = [
    m("catmodel.catalog_generate_ms", "ms", Lower),
    m("catmodel.elt_generate_ms", "ms", Lower),
    m("catmodel.yet_simulate_ms", "ms", Lower),
    m("catmodel.stage1_build_ms", "ms", Lower),
    m("catmodel.stage1_bytes", "count", Lower),
    m("catmodel.stage1_encode_ms", "ms", Lower),
    m("catmodel.stage1_decode_ms", "ms", Lower),
    m("aggregate.secondary_build_ms", "ms", Lower),
    m("aggregate.secondary_grid_bytes", "count", Lower),
    m("aggregate.run_seq_ms", "ms", Lower),
    m("aggregate.run_par_ms", "ms", Lower),
    m("aggregate.par_speedup", "x", Higher),
    m("aggregate.probe_ns", "ns", Lower),
    m("aggregate.probes", "count", Lower),
    m("tables.yelt_build_ms", "ms", Lower),
    m("tables.ylt_encode_mb_per_s", "MB/s", Higher),
    m("tables.ylt_decode_mb_per_s", "MB/s", Higher),
    m("tables.crc32_mb_per_s", "MB/s", Higher),
    m("tables.write_atomic_ms", "ms", Lower),
    m("tables.durable_writes", "count", Lower),
    m("tables.durable_bytes", "count", Lower),
    m("tables.shard_write_mb_per_s", "MB/s", Higher),
    m("tables.shard_read_mb_per_s", "MB/s", Higher),
    m("metrics.ylt_sort_ms", "ms", Lower),
    m("metrics.risk_measures_ms", "ms", Lower),
    m("metrics.sketch_fold_mvalues_per_s", "M/s", Higher),
    m("metrics.sketch_retained", "count", Lower),
    m("metrics.sketch_query_us", "us", Lower),
    m("dfa.run_ms", "ms", Lower),
    m("core.run_warm_ms", "ms", Lower),
    m("core.glue_ms", "ms", Lower),
    m("core.summary_push_us", "us", Lower),
    m("core.persist_report_ms", "ms", Lower),
    m("core.fanout_overhead_pct", "%", Lower),
    m("core.stage1disk_store_ms", "ms", Lower),
    m("core.stage1disk_load_ms", "ms", Lower),
    m("core.load_report_ylt_ms", "ms", Lower),
    m("core.stage1_builds", "count", Lower),
    m("core.stage1_hits", "count", Higher),
    m("core.stage1_disk_hits", "count", Higher),
    m("exec.par_for_dispatch_us", "us", Lower),
    m("exec.tasks_executed", "count", Lower),
    m("exec.tasks_stolen", "count", Lower),
    m("exec.steal_ratio", "ratio", Lower),
    m("exec.helper_runs", "count", Lower),
    m("exec.scaling_efficiency", "ratio", Higher),
    m("machine.scaling", "x", Higher),
    m("machine.peak_rss_mb", "MB", Lower),
    m("mapreduce.yltfact_job_ms", "ms", Lower),
    m("mapreduce.shuffle_records", "count", Lower),
    m("mapreduce.spill_bytes", "count", Lower),
    m("analytics.rp_bands_ms", "ms", Lower),
    m("analytics.ingest_ms_per_report", "ms", Lower),
    m("analytics.rebuild_ms", "ms", Lower),
    m("analytics.materialize_ms", "ms", Lower),
    m("analytics.views_materialized", "count", Higher),
    m("analytics.drilldown_bytes", "count", Lower),
    m("warehouse.rollup_ms", "ms", Lower),
    m("warehouse.base_cells", "count", Lower),
    m("warehouse.answer_p50_us", "us", Lower),
    m("warehouse.answer_p99_us", "us", Lower),
    m("warehouse.answer_view_us", "us", Lower),
    m("warehouse.answer_rollup_us", "us", Lower),
    m("obs.armed_overhead_pct", "%", Lower),
    m("obs.spans_recorded", "count", Lower),
    m("obs.spans_dropped", "count", Lower),
];

/// Every per-layer metric a traced run emits, in table order.
pub fn layer_metrics() -> Vec<MetricSpec> {
    let mut specs = LAYER_TABLE.to_vec();
    for (_, total, own, count) in SPAN_ROWS {
        specs.push(m(total, "ms", Lower));
        specs.push(m(own, "ms", Lower));
        specs.push(m(count, "count", Lower));
    }
    specs
}

/// The harness's own span recorder plus the time slice each timed call
/// may fill.
struct Probes {
    recorder: Recorder,
    slice_s: f64,
}

impl Probes {
    /// Call `f` at least `min_calls` times, and on until the slice is
    /// used, one span named `name` around each call.
    fn time<R>(
        &self,
        name: &'static str,
        min_calls: usize,
        mut f: impl FnMut() -> RiskResult<R>,
    ) -> RiskResult<R> {
        let started = Instant::now();
        let mut calls = 0u64;
        loop {
            let result = {
                let _span = self.recorder.begin(name, calls);
                f()?
            };
            calls += 1;
            let enough = calls >= min_calls as u64;
            if enough && (started.elapsed().as_secs_f64() >= self.slice_s || calls >= 2_000) {
                return Ok(black_box(result));
            }
        }
    }

    /// Durations in milliseconds of every recorded span, by name.
    fn durations_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in self.recorder.stitch() {
            out.entry(span.name)
                .or_default()
                .push(span.dur_ns as f64 / 1e6);
        }
        out
    }
}

/// Calls for a millisecond-scale layer function, and for a
/// microsecond-scale one.
const MS_CALLS: usize = 3;
const US_CALLS: usize = 200;

/// What the rep pass of a traced run measured.
struct RepPass {
    bare_ms: Vec<f64>,
    armed_ms: Vec<f64>,
    single_thread_ms: Vec<f64>,
    /// Per armed rep: program span totals by name.
    spans: Vec<BTreeMap<&'static str, SpanTotals>>,
    spans_recorded: Vec<f64>,
    spans_dropped: u64,
    durable_writes: u64,
    durable_bytes: u64,
    last: Rep,
    pools: Vec<PoolCounts>,
}

/// Alternate bare and armed reps for `budget_s`, then two bare reps on
/// a one-thread pool.
fn rep_pass(
    fixture: &Fixture,
    reference: &Rep,
    env: &Env<'_>,
    budget_s: f64,
    tally: &mut Tally,
) -> RiskResult<RepPass> {
    let telemetry = Telemetry::new();
    let armed_env = env.with(env.threads, Some(telemetry.clone()));
    let single_env = env.with(1, None);
    let mut pass = RepPass {
        bare_ms: Vec::new(),
        armed_ms: Vec::new(),
        single_thread_ms: Vec::new(),
        spans: Vec::new(),
        spans_recorded: Vec::new(),
        spans_dropped: 0,
        durable_writes: 0,
        durable_bytes: 0,
        last: Rep::default(),
        pools: Vec::new(),
    };
    let run = |env: &Env<'_>, tally: &mut Tally| -> RiskResult<Rep> {
        let rep = fixture.rep(env)?;
        tally.absorb(&rep, reference);
        Ok(rep)
    };
    let started = Instant::now();
    while pass.armed_ms.len() < 2 || started.elapsed().as_secs_f64() < budget_s {
        pass.bare_ms.push(run(env, tally)?.wall_s * 1e3);
        telemetry.reset();
        let rep = run(&armed_env, tally)?;
        let snapshot = telemetry.snapshot();
        pass.armed_ms.push(rep.wall_s * 1e3);
        pass.spans.push(totals_by_name(snapshot.spans()));
        pass.spans_recorded.push(snapshot.spans().len() as f64);
        pass.spans_dropped += snapshot.dropped();
        pass.durable_writes = snapshot.metrics().counter("durable.writes");
        pass.durable_bytes = snapshot.metrics().counter("durable.bytes");
        pass.pools.push(rep.pool);
        pass.last = rep;
    }
    for _ in 0..2 {
        pass.single_thread_ms
            .push(run(&single_env, tally)?.wall_s * 1e3);
    }
    Ok(pass)
}

/// Throughput of two plain OS threads on a fixed spin kernel over one
/// thread's: what the box gives, scheduler aside (below 2 on SMT
/// siblings and shared hosts).
fn machine_scaling() -> f64 {
    fn spin(iters: u64) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..iters {
            x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
        }
        black_box(x)
    }
    const ITERS: u64 = 40_000_000;
    let one = Instant::now();
    spin(ITERS);
    let one_s = one.elapsed().as_secs_f64();
    let two = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| spin(ITERS));
        s.spawn(|| spin(ITERS));
    });
    2.0 * one_s / two.elapsed().as_secs_f64()
}

/// Measure one workload's layer table.
pub(crate) fn run_traced(cfg: &RunConfig, env: Env<'_>) -> RiskResult<RunOutput> {
    let (fixture, reference, _) = crate::set_up(cfg, &env, 1)?;
    let mut tally = Tally::default();
    let pass = rep_pass(&fixture, &reference, &env, 0.35 * cfg.seconds, &mut tally)?;
    let mut values = measure_layers(&fixture, &env, cfg)?;

    let bare = stats::median(&pass.bare_ms);
    let armed = stats::median(&pass.armed_ms);
    let pool = |f: fn(&PoolCounts) -> u64| {
        stats::median(&pass.pools.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    let executed = pool(|p| p.executed);
    let stolen = pool(|p| p.stolen);
    let threads = env.threads as f64;
    values.extend([
        ("obs.armed_overhead_pct", (armed / bare - 1.0) * 100.0),
        ("obs.spans_recorded", stats::median(&pass.spans_recorded)),
        ("obs.spans_dropped", pass.spans_dropped as f64),
        ("tables.durable_writes", pass.durable_writes as f64),
        ("tables.durable_bytes", pass.durable_bytes as f64),
        ("core.stage1_builds", pass.last.stage1.0 as f64),
        ("core.stage1_hits", pass.last.stage1.1 as f64),
        ("core.stage1_disk_hits", pass.last.stage1.2 as f64),
        ("exec.tasks_executed", executed),
        ("exec.tasks_stolen", stolen),
        (
            "exec.steal_ratio",
            if executed > 0.0 {
                stolen / executed
            } else {
                0.0
            },
        ),
        ("exec.helper_runs", pool(|p| p.helper_runs)),
        (
            "exec.scaling_efficiency",
            stats::median(&pass.single_thread_ms) / bare / threads,
        ),
        ("machine.scaling", machine_scaling()),
        (
            "machine.peak_rss_mb",
            crate::machine::peak_rss_mb().unwrap_or(0.0),
        ),
    ]);
    for (span, total, own, count) in SPAN_ROWS {
        let per_rep = |f: fn(&SpanTotals) -> f64| {
            let samples: Vec<f64> = pass
                .spans
                .iter()
                .map(|by_name| by_name.get(span).map_or(0.0, f))
                .collect();
            stats::median(&samples)
        };
        values.insert(total, per_rep(|t| t.total_ms));
        values.insert(own, per_rep(|t| t.self_ms));
        values.insert(count, per_rep(|t| t.count as f64));
    }

    let mut metrics = BTreeMap::new();
    for spec in layer_metrics() {
        let value = *values.get(spec.name).ok_or_else(|| {
            RiskError::invalid(format!("layer metric {} was not measured", spec.name))
        })?;
        if !value.is_finite() {
            return Err(RiskError::invalid(format!(
                "layer metric {} is not finite",
                spec.name
            )));
        }
        metrics.insert(spec.name, (value, spec.unit));
    }
    let detail = Json::obj([
        (
            "bare_rep_ms",
            stats::Summary::of(&pass.bare_ms).to_json("ms"),
        ),
        (
            "armed_rep_ms",
            stats::Summary::of(&pass.armed_ms).to_json("ms"),
        ),
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

/// Time the calls into each crate on the workload's fixture: the
/// stage-1 and stage-2 calls on its first scenario, the stage-3 calls
/// on its reports.
fn measure_layers(
    fixture: &Fixture,
    env: &Env<'_>,
    cfg: &RunConfig,
) -> RiskResult<BTreeMap<&'static str, f64>> {
    let probes = Probes {
        recorder: Recorder::new(),
        // ~40 timed calls share what the rep pass left of the run.
        slice_s: 0.6 * cfg.seconds / 40.0,
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let pool = Arc::new(ThreadPool::try_new(env.threads)?);
    let scenario = &fixture.scenarios[0];
    let key = scenario.stage1_key();

    // ---------------------------------------------------- catmodel
    let output = Arc::new(probes.time("catmodel.stage1_build_ms", MS_CALLS, || {
        scenario.build_stage1_output_on(&pool)
    })?);
    probes.time("catmodel.catalog_generate_ms", MS_CALLS, || {
        EventCatalog::generate(&CatalogConfig {
            events: scenario.events,
            total_annual_rate: scenario.annual_rate,
            seed: cfg.seed,
            ..CatalogConfig::default()
        })
    })?;
    probes.time("catmodel.elt_generate_ms", MS_CALLS, || {
        for book in &output.books {
            GroundUpModel::new(&output.catalog, &book.exposure, EltGenConfig::default())
                .generate_elt(&pool)?;
        }
        Ok(())
    })?;
    probes.time("catmodel.yet_simulate_ms", MS_CALLS, || {
        let yet_cfg = YetConfig {
            trials: scenario.trials,
            seed: cfg.seed,
        };
        simulate_yet(&output.catalog, &yet_cfg, &pool)
    })?;
    let encoded = probes.time("catmodel.stage1_encode_ms", MS_CALLS, || {
        Ok(encode_stage1(key, &output))
    })?;
    probes.time("catmodel.stage1_decode_ms", MS_CALLS, || {
        decode_stage1(&encoded)
    })?;
    values.insert("catmodel.stage1_bytes", output.memory_bytes() as f64);

    // --------------------------------------------------- aggregate
    let bundle = scenario.bundle_from_output(Arc::clone(&output))?;
    let (portfolio, yet) = (bundle.portfolio(), bundle.year_event_table());
    probes.time("aggregate.secondary_build_ms", MS_CALLS, || {
        for layer in portfolio.layers() {
            black_box(SecondaryTable::build(&layer.elt, QuantileMode::default()));
        }
        Ok(())
    })?;
    let QuantileMode::Interpolated(grid_points) = QuantileMode::default() else {
        return Err(RiskError::invalid("default quantile mode has no grid"));
    };
    values.insert(
        "aggregate.secondary_grid_bytes",
        (portfolio.total_elt_rows() * grid_points as usize * 8) as f64,
    );
    let sequential = AggregateRunner::new(EngineKind::Sequential);
    probes.time("aggregate.run_seq_ms", MS_CALLS, || {
        sequential.run(&portfolio, &yet)
    })?;
    let parallel = AggregateRunner::new(EngineKind::CpuParallel).with_pool(Arc::clone(&pool));
    let ylt = probes.time("aggregate.run_par_ms", MS_CALLS, || {
        parallel.run(&portfolio, &yet)
    })?;
    values.insert(
        "aggregate.probes",
        (yet.total_occurrences() * portfolio.len()) as f64,
    );

    // ------------------------------------------ tables, metrics, dfa
    let yelt = probes.time("tables.yelt_build_ms", MS_CALLS, || {
        Ok(Yelt::from_yet_elt(&yet, &output.books[0].elt))
    })?;
    let frame = probes.time("tables.ylt_encode", US_CALLS, || {
        Ok(codec::encode_ylt(&ylt))
    })?;
    probes.time("tables.ylt_decode", US_CALLS, || codec::decode_ylt(&frame))?;
    probes.time("tables.crc32", US_CALLS, || Ok(codec::crc32(&frame)))?;
    let frame_path = env.scratch.fresh("frame");
    probes.time("tables.write_atomic_ms", MS_CALLS, || {
        durable::write_atomic(&frame_path, &frame)
    })?;
    let _ = std::fs::remove_file(&frame_path);
    let shards_root = env.scratch.fresh("shards");
    let mut shards_written = 0;
    probes.time("tables.shard_write", MS_CALLS, || {
        shards_written += 1;
        let dir = shards_root.join(shards_written.to_string());
        let mut writer = ShardedWriter::create(dir, 2)?;
        for t in 0..yelt.trials() {
            let (events, _days, losses) = yelt.trial_slices(TrialId::new(t as u32));
            writer.push_trial(t as u32, events, LocationId::new(0), losses)?;
        }
        writer.finish()
    })?;
    let shard_dir = shards_root.join(shards_written.to_string());
    probes.time("tables.shard_read", MS_CALLS, || {
        let reader = ShardedReader::open(&shard_dir)?;
        for shard in 0..reader.shard_count() {
            black_box(reader.read_shard(shard)?);
        }
        Ok(())
    })?;
    let _ = std::fs::remove_dir_all(&shards_root);
    let (agg_sorted, occ_sorted) = probes.time("metrics.ylt_sort_ms", MS_CALLS, || {
        Ok((ylt.sorted_agg_losses(), ylt.sorted_max_occ_losses()))
    })?;
    probes.time("metrics.risk_measures_ms", US_CALLS, || {
        let moments: RunningStats = ylt.agg_losses().iter().copied().collect();
        Ok(RiskMeasures::from_sorted(
            &agg_sorted,
            &occ_sorted,
            &moments,
        ))
    })?;
    probes.time("dfa.run_ms", MS_CALLS, || {
        DfaEngine::typical(CompanyConfig::typical()).run(&ylt, scenario.seed ^ 0xDFA)
    })?;

    // -------------------------------------------------------- core
    let session = RiskSession::builder().pool(Arc::clone(&pool)).build()?;
    session.run(scenario)?;
    probes.time("core.run_warm_ms", MS_CALLS, || session.run(scenario))?;
    let tier = DiskStage1Cache::new(env.scratch.fresh("probe-tier"))?;
    probes.time("core.stage1disk_store_ms", MS_CALLS, || {
        tier.store(key, &output)
    })?;
    probes.time("core.stage1disk_load_ms", MS_CALLS, || tier.load(key))?;
    let _ = std::fs::remove_dir_all(tier.dir());

    // ------------------------------------ the stage-3 stack, on reports
    let captured;
    let reports: &[PipelineReport] = match &fixture.replay {
        Some(replay) => &replay.reports,
        None => {
            captured = capture_reports(env, &fixture.scenarios)?;
            &captured
        }
    };
    let n = reports.len() as f64;
    let shuffle_dir = env.scratch.fresh("probe-shuffle");
    let summary = probes.time("core.summary_push", MS_CALLS, || {
        let mut summary = SweepSummary::new();
        for report in reports {
            summary.push(report);
        }
        Ok(summary)
    })?;
    black_box(summary);
    let folded: usize = reports.iter().map(|r| r.agg_sorted.len()).sum();
    let sketch = probes.time("metrics.sketch_fold", MS_CALLS, || {
        let mut sketch = QuantileSketch::new(QuantileSketch::DEFAULT_K);
        for report in reports {
            sketch.merge_sorted(&report.agg_sorted);
        }
        Ok(sketch)
    })?;
    values.insert("metrics.sketch_retained", sketch.retained() as f64);
    probes.time("metrics.sketch_query", US_CALLS, || {
        Ok(sketch.quantile(0.99) + sketch.tail_mean(0.99))
    })?;

    let stores_root = env.scratch.fresh("probe-stores");
    let stores_made = std::cell::Cell::new(0);
    let fresh_store = || {
        stores_made.set(stores_made.get() + 1);
        ShardedFilesStore::new(stores_root.join(stores_made.get().to_string()), 2)
    };
    let sealed = probes.time("core.persist_report", MS_CALLS, || {
        let store = fresh_store()?;
        let mut sink = PersistingSink::new(Arc::new(store.clone()));
        for (slot, report) in reports.iter().enumerate() {
            sink.accept_shared(slot, report)?;
        }
        sink.finish()?;
        Ok(store)
    })?;
    let drilldown = probes.time("analytics.ingest", MS_CALLS, || {
        let mut sink = warehouse_sink(&fixture.layout, &pool, &shuffle_dir)?;
        for (slot, report) in reports.iter().enumerate() {
            sink.ingest(slot, &report.ylt)?;
        }
        sink.finish()
    })?;
    probes.time("core.fanout", MS_CALLS, || {
        let store = fresh_store()?;
        let mut summary = SweepSummary::new();
        let mut persist = PersistingSink::new(Arc::new(store));
        let mut warehouse = warehouse_sink(&fixture.layout, &pool, &shuffle_dir)?;
        let mut fan = FanoutSink::new();
        fan.push(&mut summary);
        fan.push(&mut persist);
        fan.push(&mut warehouse);
        for (slot, report) in reports.iter().enumerate() {
            fan.accept_shared(slot, report)?;
        }
        fan.finish()
    })?;
    probes.time("core.load_report_ylt_ms", MS_CALLS, || {
        sealed.load_report_ylt(Some(0), 0)
    })?;
    probes.time("analytics.rebuild_ms", MS_CALLS, || {
        session
            .analytics(fixture.layout.clone())
            .rebuild_from_store(&sealed, 0)
    })?;
    let _ = std::fs::remove_dir_all(&stores_root);

    // ------------------------------------------ mapreduce, analytics
    let first = &reports[0].ylt;
    let bands = probes.time("analytics.rp_bands_ms", MS_CALLS, || {
        Ok(rp_bands(first.agg_losses()))
    })?;
    let spill = env.scratch.fresh("probe-spill");
    let mut writer = ShardedWriter::create(&spill, 4)?;
    for (t, (&band, &loss)) in bands.iter().zip(first.agg_losses()).enumerate() {
        writer.push_row(t as u32, band, LocationId::new(0), loss)?;
    }
    writer.finish()?;
    let reader = ShardedReader::open(&spill)?;
    let (_, job) = probes.time("mapreduce.yltfact_job_ms", MS_CALLS, || {
        YltFactJob { band_map: None }.run(&reader, 2, &pool)
    })?;
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(&shuffle_dir);
    values.insert("mapreduce.shuffle_records", job.shuffle_records as f64);
    values.insert("mapreduce.spill_bytes", job.spill_bytes as f64);

    // ---------------------------------------------------- warehouse
    let schema = drilldown.schema().clone();
    probes.time("warehouse.rollup_ms", MS_CALLS, || {
        drilldown.base().rollup(&schema, LevelSelect::apex(&schema))
    })?;
    values.insert("warehouse.base_cells", drilldown.base().cells() as f64);
    let views = probes.time("analytics.materialize_ms", MS_CALLS, || {
        let mut fresh = drilldown.clone();
        fresh.materialize_budget(view_budget(&fresh))?;
        Ok(fresh)
    })?;
    values.insert("analytics.views_materialized", views.views().len() as f64);
    values.insert("analytics.drilldown_bytes", views.memory_bytes() as f64);
    // One span name per query shape; whether a shape was served from a
    // materialised view or rolled up on the fly from the base cuboid
    // is read off the cost record.
    const ANSWER_SPANS: [&str; 4] = [
        "warehouse.answer.rollup_shape",
        "warehouse.answer.slice_shape",
        "warehouse.answer.dice_shape",
        "warehouse.answer.base_shape",
    ];
    let mut from_view = [false; 4];
    for ((query, name), served) in query_shapes().iter().zip(ANSWER_SPANS).zip(&mut from_view) {
        let (_, cost) = probes.time(name, US_CALLS, || views.answer(query))?;
        *served = query.select == LevelSelect::BASE
            || cost.source != Source::Materialized(LevelSelect::BASE);
    }

    // ---------------------------------------------------------- exec
    let dispatch_len = 64 * env.threads;
    probes.time("exec.par_for_dispatch", US_CALLS, || {
        par_for(&pool, dispatch_len, 1, |range| {
            black_box(range);
        });
        Ok(())
    })?;

    // ------------------------------- medians of the recorded spans
    if probes.recorder.dropped() > 0 {
        return Err(RiskError::invalid(
            "the harness recorder dropped spans: layer medians would be partial",
        ));
    }
    let durations = probes.durations_ms();
    let ms = |name: &str| stats::median(durations.get(name).map_or(&[][..], |v| v));
    // Rows that are the plain median of their span carry its name.
    for row in [
        "catmodel.catalog_generate_ms",
        "catmodel.elt_generate_ms",
        "catmodel.yet_simulate_ms",
        "catmodel.stage1_build_ms",
        "catmodel.stage1_encode_ms",
        "catmodel.stage1_decode_ms",
        "aggregate.secondary_build_ms",
        "aggregate.run_seq_ms",
        "aggregate.run_par_ms",
        "tables.yelt_build_ms",
        "tables.write_atomic_ms",
        "metrics.ylt_sort_ms",
        "metrics.risk_measures_ms",
        "dfa.run_ms",
        "core.run_warm_ms",
        "core.stage1disk_store_ms",
        "core.stage1disk_load_ms",
        "core.load_report_ylt_ms",
        "mapreduce.yltfact_job_ms",
        "analytics.rp_bands_ms",
        "analytics.rebuild_ms",
        "analytics.materialize_ms",
        "warehouse.rollup_ms",
    ] {
        values.insert(row, ms(row));
    }
    let mb_per_s = |bytes: usize, span: &str| bytes as f64 / 1e6 / (ms(span) / 1e3);
    let shard_bytes = yelt.rows() * YELLT_BYTES_PER_ROW;
    let (summary_ms, persist_ms, ingest_ms) = (
        ms("core.summary_push"),
        ms("core.persist_report"),
        ms("analytics.ingest"),
    );
    let singles_ms = summary_ms + persist_ms + ingest_ms;
    let explained_ms = ms("aggregate.run_par_ms")
        + ms("tables.yelt_build_ms")
        + ms("dfa.run_ms")
        + ms("metrics.ylt_sort_ms")
        + ms("metrics.risk_measures_ms");
    let probe_count = values["aggregate.probes"];
    values.extend([
        (
            "aggregate.par_speedup",
            ms("aggregate.run_seq_ms") / ms("aggregate.run_par_ms"),
        ),
        (
            "aggregate.probe_ns",
            (ms("aggregate.run_seq_ms") - ms("aggregate.secondary_build_ms")) * 1e6 / probe_count,
        ),
        (
            "tables.ylt_encode_mb_per_s",
            mb_per_s(frame.len(), "tables.ylt_encode"),
        ),
        (
            "tables.ylt_decode_mb_per_s",
            mb_per_s(frame.len(), "tables.ylt_decode"),
        ),
        (
            "tables.crc32_mb_per_s",
            mb_per_s(frame.len(), "tables.crc32"),
        ),
        (
            "tables.shard_write_mb_per_s",
            mb_per_s(shard_bytes, "tables.shard_write"),
        ),
        (
            "tables.shard_read_mb_per_s",
            mb_per_s(shard_bytes, "tables.shard_read"),
        ),
        (
            "metrics.sketch_fold_mvalues_per_s",
            folded as f64 / 1e6 / (ms("metrics.sketch_fold") / 1e3),
        ),
        ("metrics.sketch_query_us", ms("metrics.sketch_query") * 1e3),
        ("core.glue_ms", ms("core.run_warm_ms") - explained_ms),
        ("core.summary_push_us", summary_ms * 1e3 / n),
        ("core.persist_report_ms", persist_ms / n),
        ("analytics.ingest_ms_per_report", ingest_ms / n),
        (
            "core.fanout_overhead_pct",
            (ms("core.fanout") / singles_ms - 1.0) * 100.0,
        ),
        (
            "exec.par_for_dispatch_us",
            ms("exec.par_for_dispatch") * 1e3,
        ),
    ]);

    // Query latency: percentiles over every answer call; the
    // view/rollup split is the median over the shapes on each side
    // (0 when no shape fell on that side).
    let mut all_us: Vec<f64> = Vec::new();
    let (mut view_us, mut rollup_us) = (Vec::new(), Vec::new());
    for (name, served_from_view) in ANSWER_SPANS.iter().zip(from_view) {
        let samples = durations.get(name).map_or(&[][..], |v| v);
        all_us.extend(samples.iter().map(|ms| ms * 1e3));
        let side = if served_from_view {
            &mut view_us
        } else {
            &mut rollup_us
        };
        side.push(stats::median(samples) * 1e3);
    }
    all_us.sort_unstable_by(f64::total_cmp);
    let percentile = |p: f64| all_us[((all_us.len() - 1) as f64 * p) as usize];
    let median_or_zero = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            stats::median(xs)
        }
    };
    values.extend([
        ("warehouse.answer_p50_us", percentile(0.50)),
        ("warehouse.answer_p99_us", percentile(0.99)),
        ("warehouse.answer_view_us", median_or_zero(&view_us)),
        ("warehouse.answer_rollup_us", median_or_zero(&rollup_us)),
    ]);
    Ok(values)
}
