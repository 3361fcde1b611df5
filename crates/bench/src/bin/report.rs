//! The experiment reports: one table-producing function per paper
//! claim (E1–E10 plus the secondary-uncertainty ablation), selected by
//! id.
//!
//! ```text
//! cargo run --release -p riskpipe-bench --bin report -- e3 e10
//! cargo run --release -p riskpipe-bench --bin report -- all
//! ```
//!
//! `report <id>...` runs the named reports in argument order. `report
//! all` re-executes this binary once per id (each report in its own
//! process; they are themselves internally parallel) and tees every
//! report's stdout to the console and `reports/<id>.txt`. An unknown
//! id exits non-zero and lists the valid ones.

#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness: wall-clock timings are its output, and \
              `reports/<id>.txt` is a regenerable printout, not a durable artifact"
)]

use riskpipe_aggregate::{
    AggregateEngine, AggregateOptions, CpuParallelEngine, EventJoin, GpuChunking, GpuEngine,
    QuantileMode, RealTimePricer, SecondaryTable, SequentialEngine,
};
use riskpipe_bench::bootstrap::{bootstrap_ci, BootstrapConfig};
use riskpipe_bench::convergence::{ConvergenceStudy, Metric};
use riskpipe_bench::elastic::{Deadline, ElasticModel, StageThroughput};
use riskpipe_bench::{build_fixture, FixtureSize};
use riskpipe_catmodel::{
    CatalogConfig, EltGenConfig, EventCatalog, ExposureConfig, ExposurePortfolio, GroundUpModel,
};
use riskpipe_cloud::{
    peak_deadline_demand, pipeline_week, simulate, total_work_core_ms, FixedPolicy,
    PipelineWeekSpec, Policy, ReactivePolicy, ScheduledPolicy, SimConfig, SimResult, Stage, DAY_MS,
    HOUR_MS, WEEK_MS,
};
use riskpipe_core::TextTable;
use riskpipe_db::YeltTable;
use riskpipe_dfa::{CompanyConfig, DfaEngine};
use riskpipe_exec::ThreadPool;
use riskpipe_mapreduce::{CubeBuildJob, LocationRiskJob};
use riskpipe_metrics::tvar;
use riskpipe_metrics::{EpCurve, RiskMeasures};
use riskpipe_simgpu::DeviceSpec;
use riskpipe_tables::sizing::human_bytes;
use riskpipe_tables::{ScaleSpec, ShardedReader, ShardedWriter, Yellt, Yelt};
use riskpipe_types::{LocationId, TrialId};
use riskpipe_warehouse::{
    dim, enumerate, greedy_select, Cuboid, FactTable, Filter, LevelSelect, Query, Schema, Warehouse,
};
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every report, in `report all` order.
const REPORTS: &[(&str, fn())] = &[
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("ablation", ablation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["all"] {
        tee_all();
        return;
    }
    match select_reports(&args) {
        Ok(reports) => {
            for (i, report) in reports.into_iter().enumerate() {
                if i > 0 {
                    println!();
                }
                report();
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The reports named by `ids`, in argument order. No id, or an id not
/// in [`REPORTS`], is an error that lists the valid ids.
fn select_reports(ids: &[String]) -> Result<Vec<fn()>, String> {
    let valid: Vec<&str> = REPORTS.iter().map(|&(id, _)| id).collect();
    let usage = format!(
        "usage: report <id>... | report all\nvalid ids: {}",
        valid.join(" ")
    );
    if ids.is_empty() {
        return Err(usage);
    }
    ids.iter()
        .map(|id| {
            REPORTS
                .iter()
                .find(|&&(name, _)| name == id)
                .map(|&(_, report)| report)
                .ok_or_else(|| format!("unknown report id `{id}`\n{usage}"))
        })
        .collect()
}

/// `report all`: run this binary once per id, teeing each report's
/// stdout to the console and `reports/<id>.txt`; exits 1 if any failed.
fn tee_all() {
    let exe = std::env::current_exe().expect("own path");
    let out_dir = Path::new("reports");
    std::fs::create_dir_all(out_dir).expect("reports dir");

    let mut failures = Vec::new();
    for &(id, _) in REPORTS {
        println!("==> {id}");
        let started = Instant::now();
        let output = Command::new(&exe)
            .arg(id)
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn report");
        let secs = started.elapsed().as_secs_f64();
        std::io::stdout()
            .write_all(&output.stdout)
            .expect("tee report");
        if !output.status.success() {
            eprintln!("{id} FAILED ({})", output.status);
            failures.push(id);
            continue;
        }
        let path = out_dir.join(format!("{id}.txt"));
        std::fs::write(&path, &output.stdout).expect("write report");
        println!(
            "    {} bytes -> {} ({secs:.1}s)",
            output.stdout.len(),
            path.display()
        );
    }
    if failures.is_empty() {
        println!("\nall {} reports regenerated under reports/", REPORTS.len());
    } else {
        eprintln!("\n{} report(s) failed: {:?}", failures.len(), failures);
        std::process::exit(1);
    }
}

/// E1: engine speedup table (paper claim: GPU 15× vs sequential).
///
/// Times the pure simulation loop (secondary-uncertainty tables are
/// precomputed state on the 2012 GPU too, so they are excluded from the
/// engine comparison; E2 times the full pricing path including them).
/// Because the simulated device executes blocks on host threads, the
/// measured parallel speedup is capped by the host core count; the
/// report derives per-SM throughput and prints the linear-scaling
/// projection to the paper's 14-SM Fermi, justified by the measured
/// block-parallel efficiency.
fn e1() {
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let setup_pool = ThreadPool::default();
    let size = FixtureSize::standard();
    eprintln!(
        "building fixture: {} events, {} layers, {} trials ...",
        size.events, size.layers, size.trials
    );
    let fixture = build_fixture(size, 0xE1, &setup_pool).expect("fixture");
    let opts = AggregateOptions {
        secondary_uncertainty: false,
        ..AggregateOptions::default()
    };

    let time = |f: &dyn Fn() -> riskpipe_tables::Ylt| -> f64 {
        let _ = f(); // warmup
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let ylt = f();
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(ylt);
        }
        best
    };

    println!("E1 — aggregate-analysis engine comparison (simulation loop only)");
    println!(
        "fixture: {} events, {} layers, {} trials; host: {host_threads} cores\n",
        size.events, size.layers, size.trials
    );
    let mut table = TextTable::new(&["engine", "time (s)", "trials/s", "speedup vs seq"]);

    let seq_t = time(&|| {
        SequentialEngine
            .run(&fixture.portfolio, &fixture.yet, &opts)
            .unwrap()
    });
    table.row(&[
        "sequential (1 core)".into(),
        format!("{seq_t:.3}"),
        format!("{:.0}", size.trials as f64 / seq_t),
        "1.00x".into(),
    ]);

    let mut par_best = seq_t;
    for threads in [2usize, host_threads.max(4)] {
        let pool = Arc::new(ThreadPool::new(threads));
        let engine = CpuParallelEngine::new(pool);
        let t = time(&|| engine.run(&fixture.portfolio, &fixture.yet, &opts).unwrap());
        par_best = par_best.min(t);
        table.row(&[
            format!("cpu-parallel ({threads} threads)"),
            format!("{t:.3}"),
            format!("{:.0}", size.trials as f64 / t),
            format!("{:.2}x", seq_t / t),
        ]);
    }

    let mut gpu_chunked_t = seq_t;
    for (label, chunking) in [
        ("sim-gpu global", GpuChunking::GlobalOnly),
        ("sim-gpu chunked", GpuChunking::SharedTiles),
    ] {
        let pool = Arc::new(ThreadPool::default());
        let engine = GpuEngine::new(DeviceSpec::host_native(pool.thread_count()), chunking, pool);
        let t = time(&|| engine.run(&fixture.portfolio, &fixture.yet, &opts).unwrap());
        if chunking == GpuChunking::SharedTiles {
            gpu_chunked_t = t;
        }
        table.row(&[
            format!("{label} ({host_threads} SMs)"),
            format!("{t:.3}"),
            format!("{:.0}", size.trials as f64 / t),
            format!("{:.2}x", seq_t / t),
        ]);
    }
    println!("{table}");

    // Linear block-scaling projection to the paper's 14-SM device.
    let efficiency = (seq_t / par_best) / host_threads as f64;
    let per_sm_throughput = size.trials as f64 / (gpu_chunked_t * host_threads as f64);
    let fermi_sms = 14.0;
    let projected = fermi_sms * per_sm_throughput * efficiency.min(1.0);
    let projected_speedup = projected / (size.trials as f64 / seq_t);
    println!(
        "\nmeasured block-parallel efficiency at {host_threads} workers: {:.0}%",
        efficiency * 100.0
    );
    println!("per-SM throughput (chunked kernel): {per_sm_throughput:.0} trials/s");
    println!(
        "linear-scaling projection to a 14-SM Fermi-class device: {projected:.0} trials/s \
         ≈ {projected_speedup:.1}x vs 1 host core"
    );
    println!(
        "\npaper claim: many-core GPU 15x vs sequential (2012 hardware). The measured\n\
         speedup here is capped by the {host_threads}-core host the simulated device runs on;\n\
         the trials are embarrassingly parallel (bit-identical outputs at every\n\
         thread count), so throughput scales with workers — the projection row is\n\
         the shape the paper's 14-SM device realises."
    );
}

/// E2: 1M-trial single-contract pricing (paper claim: 25 s, real-time
/// capable).
fn e2() {
    let setup_pool = ThreadPool::default();
    println!("E2 — real-time pricing of a typical contract\n");
    let mut table = TextTable::new(&[
        "trials",
        "time (s)",
        "trials/s",
        "pure premium",
        "within 25s budget",
    ]);
    for &trials in &[10_000usize, 100_000, 1_000_000] {
        let fixture = build_fixture(
            FixtureSize {
                trials,
                layers: 1,
                events: 10_000,
                locations: 400,
                annual_rate: 50.0,
            },
            0xE2,
            &setup_pool,
        )
        .expect("fixture");
        let layer = fixture.portfolio.layers()[0].clone();
        let pricer = RealTimePricer::new(Arc::new(ThreadPool::default()));
        let result = pricer.price(layer, &fixture.yet).expect("pricing");
        table.row(&[
            trials.to_string(),
            format!("{:.3}", result.elapsed.as_secs_f64()),
            format!("{:.0}", result.trials_per_second),
            format!("{:.0}", result.pure_premium),
            result.is_realtime(Duration::from_secs(25)).to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "\npaper claim: 1M-trial aggregate simulation on a typical contract in 25 s\n\
         (2012 GPU). Shape to reproduce: 1M trials comfortably inside the real-time\n\
         budget on commodity parallel hardware."
    );
}

/// E3: data-volume arithmetic (paper claims: YELLT > 5×10¹⁶ entries at
/// the example scale; YELT ~1000× smaller than YELLT and ~1000× bigger
/// than YLT), plus an empirical measurement at reduced scale.
fn e3() {
    println!("E3 — table sizes across the pipeline\n");
    println!("--- analytic, at the paper's example scale ---\n");
    println!("{}\n", ScaleSpec::paper_example());
    println!("--- analytic, at the reduced (measurable) scale ---\n");
    println!("{}\n", ScaleSpec::reduced_example());

    // Empirical: generate actual tables at a laptop scale and measure.
    println!("--- empirical, generated on this machine ---\n");
    let pool = ThreadPool::default();
    let size = FixtureSize {
        events: 5_000,
        locations: 100,
        layers: 1,
        trials: 10_000,
        annual_rate: 50.0,
    };
    let fixture = build_fixture(size, 0xE3, &pool).expect("fixture");
    let elt = &fixture.portfolio.layers()[0].elt;
    let yelt = Yelt::from_yet_elt(&fixture.yet, elt);

    // YELLT at (events × locations) resolution, in memory, bounded.
    let mut yellt = Yellt::new();
    for t in 0..fixture.yet.trials() {
        let (events, _days, _zs) = fixture.yet.trial_slices(TrialId::new(t as u32));
        for &e in events {
            if elt.row_of(riskpipe_types::EventId::new(e)).is_some() {
                // Synthetic location split of the event loss.
                for l in 0..size.locations as u32 / 10 {
                    yellt.push(t as u32, e, LocationId::new(l), 1.0);
                }
            }
        }
    }

    let mut table = TextTable::new(&["table", "rows", "bytes (memory)"]);
    table.row(&[
        "ELT (1 contract)".into(),
        elt.len().to_string(),
        human_bytes(elt.memory_bytes() as u128),
    ]);
    table.row(&[
        "YET".into(),
        fixture.yet.total_occurrences().to_string(),
        human_bytes(fixture.yet.memory_bytes() as u128),
    ]);
    table.row(&[
        "YELT".into(),
        yelt.rows().to_string(),
        human_bytes(yelt.memory_bytes() as u128),
    ]);
    table.row(&[
        "YELLT (10-loc detail)".into(),
        yellt.rows().to_string(),
        human_bytes(yellt.memory_bytes() as u128),
    ]);
    table.row(&[
        "YLT".into(),
        fixture.yet.trials().to_string(),
        human_bytes((fixture.yet.trials() * 20) as u128),
    ]);
    println!("{table}");

    let ratio_1 = yellt.rows() as f64 / yelt.rows() as f64;
    let ratio_2 = yelt.rows() as f64 / fixture.yet.trials() as f64;
    println!(
        "\nmeasured ratios: YELLT/YELT = {ratio_1:.0}x (locations touched), \
         YELT/YLT = {ratio_2:.0}x (loss-causing occurrences per year)"
    );
    println!(
        "paper claim: YELT ~1000x smaller than YELLT and ~1000x bigger than YLT —\n\
         both ratios scale with the location count and the annual occurrence count\n\
         respectively; at the paper's scale (1000 locations, ~1000 occurrences/yr)\n\
         both hit ~1000x, as the analytic block above shows."
    );
}

/// E4: scan vs random access (paper claim: traditional DBs are of
/// limited use — the data must be scanned, not randomly accessed).
fn e4() {
    let pool = ThreadPool::default();
    let fixture = build_fixture(
        FixtureSize {
            trials: 50_000,
            layers: 1,
            ..FixtureSize::standard()
        },
        0xE4,
        &pool,
    )
    .expect("fixture");
    let yelt = Yelt::from_yet_elt(&fixture.yet, &fixture.portfolio.layers()[0].elt);
    eprintln!("loading {} YELT rows into the row store ...", yelt.rows());
    let table_db = YeltTable::load(&yelt).expect("load");

    println!("E4 — per-trial aggregation: access-path comparison");
    println!(
        "workload: {} rows over {} trials; row store: {} pages of 8 KiB\n",
        yelt.rows(),
        yelt.trials(),
        table_db.pages()
    );

    let mut table = TextTable::new(&["plan", "time (s)", "heap pages read", "index nodes read"]);

    let t0 = Instant::now();
    let (col, col_stats) = yelt.scan_aggregate_by_trial();
    let col_time = t0.elapsed().as_secs_f64();
    table.row(&[
        "columnar streaming scan".into(),
        format!("{col_time:.4}"),
        format!("(columnar: {} data bytes)", col_stats.bytes),
        "0".into(),
    ]);

    let t0 = Instant::now();
    let (scanned, scan_cost) = table_db.aggregate_by_trial_scan();
    let scan_time = t0.elapsed().as_secs_f64();
    table.row(&[
        "row-store sequential scan".into(),
        format!("{scan_time:.4}"),
        scan_cost.heap_pages.to_string(),
        scan_cost.index_nodes.to_string(),
    ]);

    let t0 = Instant::now();
    let (indexed, idx_cost) = table_db.aggregate_by_trial_indexed().expect("indexed");
    let idx_time = t0.elapsed().as_secs_f64();
    table.row(&[
        "row-store indexed (random)".into(),
        format!("{idx_time:.4}"),
        idx_cost.heap_pages.to_string(),
        idx_cost.index_nodes.to_string(),
    ]);
    println!("{table}");

    // Sanity: all plans agree.
    let agree = col.iter().zip(&scanned).zip(&indexed).all(|((a, b), c)| {
        (a - b).abs() < 1e-6 * a.abs().max(1.0) && (a - c).abs() < 1e-6 * a.abs().max(1.0)
    });
    println!("\nall plans agree on results: {agree}");
    let io_ratio =
        (idx_cost.heap_pages + idx_cost.index_nodes) as f64 / scan_cost.heap_pages.max(1) as f64;
    println!(
        "random-access I/O amplification vs scan: {io_ratio:.1}x \
         (paper: this is why RDBMS-style access does not fit the pipeline)"
    );
}

/// E5: large memory vs distributed file space (the paper's two
/// data-management strategies) — agreement, timing, and the memory-
/// budget crossover that decides between them.
fn e5() {
    let pool = ThreadPool::default();
    println!("E5 — in-memory vs MapReduce-over-shards for YELLT analytics\n");

    let mut table = TextTable::new(&[
        "YELLT rows",
        "memory bytes",
        "in-mem scan (s)",
        "mapreduce (s)",
        "results agree",
    ]);

    for &(trials, rows_per_trial) in &[(1_000u32, 20u32), (2_000, 50), (4_000, 100)] {
        // Build the identical table both ways.
        let dir = std::env::temp_dir().join(format!(
            "riskpipe-e5-{}-{}-{}",
            trials,
            rows_per_trial,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = ShardedWriter::create(&dir, 8).expect("store");
        let mut yellt = Yellt::new();
        for t in 0..trials {
            for r in 0..rows_per_trial {
                let event = (t * 31 + r) % 2_000;
                let loc = LocationId::new((t * 17 + r * 7) % 500);
                let loss = ((t * r + 13) % 9_973) as f64 + 1.0;
                yellt.push(t, event, loc, loss);
                writer.push_row(t, event, loc, loss).expect("row");
            }
        }
        writer.finish().expect("manifest");

        let t0 = Instant::now();
        let (mem, _) = yellt.scan_loss_by_location();
        let mem_time = t0.elapsed().as_secs_f64();

        let reader = ShardedReader::open(&dir).expect("open");
        let t0 = Instant::now();
        let (rows, _) = LocationRiskJob {
            trials: trials as usize,
            alpha: 0.99,
        }
        .run(&reader, 8, &pool)
        .expect("job");
        let mr_time = t0.elapsed().as_secs_f64();

        let agree = rows.iter().all(|r| {
            let mem_total = mem.get(&r.location.raw()).copied().unwrap_or(0.0);
            (r.mean_annual_loss * trials as f64 - mem_total).abs() < 1e-6 * mem_total.max(1.0)
        });
        table.row(&[
            yellt.rows().to_string(),
            human_bytes(yellt.memory_bytes() as u128),
            format!("{mem_time:.4}"),
            format!("{mr_time:.4}"),
            agree.to_string(),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }
    println!("{table}");

    println!("\n--- where each strategy applies (paper's 1 TB in-memory boundary) ---\n");
    let mut fit = TextTable::new(&["scale", "expected YELLT", "fits 1 TiB memory?"]);
    for (name, spec) in [
        ("reduced example", ScaleSpec::reduced_example()),
        ("paper example", ScaleSpec::paper_example()),
    ] {
        fit.row(&[
            name.into(),
            human_bytes(spec.yellt_bytes_expected()),
            spec.yellt_fits_memory(1u128 << 40).to_string(),
        ]);
    }
    println!("{fit}");
    println!(
        "\npaper: \"(i) accumulate large quantities of physical memory ... on large but\n\
         not enormous datasets less than 1TB, or (ii) support enormous distributed\n\
         file systems\" — in-memory wins while the table fits; the sharded store is\n\
         the only option beyond, and MapReduce keeps the same answers."
    );
}

/// Measure stage-1 throughput: event-exposure pairs per second.
fn measure_stage1() -> f64 {
    let catalog = EventCatalog::generate(&CatalogConfig {
        events: 2_000,
        total_annual_rate: 20.0,
        seed: 1,
        ..CatalogConfig::default()
    })
    .unwrap();
    let exposure = ExposurePortfolio::generate(&ExposureConfig {
        locations: 300,
        seed: 2,
        ..ExposureConfig::default()
    })
    .unwrap();
    let model = GroundUpModel::new(&catalog, &exposure, EltGenConfig::default());
    let pool = ThreadPool::new(1);
    let t0 = Instant::now();
    let _elt = model.generate_elt(&pool).unwrap();
    let dt = t0.elapsed().as_secs_f64();
    (2_000.0 * 300.0) / dt
}

/// Measure stage-2 throughput: occurrence-layer pairs resolved per
/// second. The work unit is the pair, not a hash probe — the host
/// kernel resolves an occurrence against every layer with one join
/// lookup — which keeps the figure comparable with the elastic model's
/// `occurrences × layers` work count.
fn measure_stage2() -> f64 {
    let pool = ThreadPool::new(1);
    let size = FixtureSize::small();
    let fixture = build_fixture(size, 0xE6, &pool).unwrap();
    let t0 = Instant::now();
    let _ = SequentialEngine
        .run(
            &fixture.portfolio,
            &fixture.yet,
            &AggregateOptions::default(),
        )
        .unwrap();
    let dt = t0.elapsed().as_secs_f64();
    (fixture.yet.total_occurrences() as f64 * size.layers as f64) / dt
}

/// Measure stage-3 throughput: trial-factor evaluations per second.
fn measure_stage3() -> f64 {
    use riskpipe_tables::Ylt;
    let trials = 20_000;
    let mut ylt = Ylt::zeroed(trials);
    for t in 0..trials {
        ylt.set_trial(TrialId::new(t as u32), (t % 997) as f64 * 1e4, 0.0, 1);
    }
    let engine = DfaEngine::typical(CompanyConfig::typical());
    let t0 = Instant::now();
    let _ = engine.run(&ylt, 3).unwrap();
    let dt = t0.elapsed().as_secs_f64();
    (trials as f64 * 7.0) / dt
}

/// E6: the processor burst (paper claim: stage 1 needs <10 processors;
/// stages 2–3 need thousands to tens of thousands).
///
/// Measures this machine's single-core throughput on each stage's inner
/// loop, then scales the paper's example workload to derive processor
/// counts per reporting deadline.
fn e6() {
    println!("E6 — elastic processor demand across the pipeline\n");
    eprintln!("measuring single-core throughputs ...");
    let throughput = StageThroughput {
        stage1_pairs_per_sec: measure_stage1(),
        stage2_probes_per_sec: measure_stage2(),
        stage3_evals_per_sec: measure_stage3(),
    };
    println!("measured single-core throughput on this machine:");
    println!(
        "  stage 1: {:>12.0} event-exposure pairs/s",
        throughput.stage1_pairs_per_sec
    );
    println!(
        "  stage 2: {:>12.0} occurrence-layer pairs/s (one join lookup per occurrence)",
        throughput.stage2_probes_per_sec
    );
    println!(
        "  stage 3: {:>12.0} trial-factor evals/s\n",
        throughput.stage3_evals_per_sec
    );

    let scale = ScaleSpec::paper_example();
    let model = ElasticModel {
        scale,
        throughput,
        layers_per_occurrence: scale.contracts as f64,
        locations_per_event: scale.locations as f64,
        factors_per_trial: scale.contracts as f64 * 7.0,
    };
    println!(
        "paper-scale workload: stage1 {:.2e}, stage2 {:.2e}, stage3 {:.2e} work units\n",
        model.stage1_work(),
        model.stage2_work(),
        model.stage3_work()
    );

    let mut table = TextTable::new(&[
        "deadline",
        "stage 1 procs",
        "stage 2 procs",
        "stage 3 procs",
        "burst ratio",
    ]);
    for d in Deadline::ALL {
        let plan = model.plan(d);
        table.row(&[
            d.to_string(),
            plan.stage1.to_string(),
            plan.stage2.to_string(),
            plan.stage3.to_string(),
            format!("{:.0}x", plan.burst_ratio()),
        ]);
    }
    println!("{table}");
    println!(
        "\npaper claim: \"in the first stage less than ten processors may be sufficient\n\
         ... in the second and third stages thousands or even tens of thousands of\n\
         processors\" — the weekly row should show single-digit stage-1 needs, and\n\
         tightening toward interactive deadlines should push stage 2 into the\n\
         thousands. The spread (burst ratio) is the paper's case for cloud elasticity."
    );
}

/// E7: PML / TVaR from the YLT, with convergence versus trial count and
/// bootstrap confidence intervals (paper: "the more simulation trials
/// you can run the better").
fn e7() {
    let pool = Arc::new(ThreadPool::default());
    let size = FixtureSize {
        trials: 100_000,
        ..FixtureSize::small()
    };
    eprintln!("running aggregate analysis ({} trials) ...", size.trials);
    let fixture = build_fixture(size, 0xE7, &pool).expect("fixture");
    let engine = CpuParallelEngine::new(Arc::clone(&pool));
    let ylt = engine
        .run(
            &fixture.portfolio,
            &fixture.yet,
            &AggregateOptions::default(),
        )
        .expect("ylt");

    println!("E7 — portfolio risk metrics from the YLT\n");
    println!("{}\n", RiskMeasures::from_ylt(&ylt));

    let ep = EpCurve::aggregate(&ylt);
    let mut curve = TextTable::new(&["return period (y)", "exceedance prob", "loss (PML)"]);
    for p in ep.standard_points() {
        curve.row(&[
            format!("{:.0}", p.return_period),
            format!("{:.4}", p.probability),
            format!("{:.0}", p.loss),
        ]);
    }
    println!("aggregate EP curve (the figure-series of the experiment):\n{curve}\n");

    // Convergence of TVaR99 with trial count.
    let losses = ylt.agg_losses();
    let study = ConvergenceStudy::run(
        losses,
        Metric::TvarPermille(990),
        &[1_000, 5_000, 10_000, 25_000, 50_000, 100_000],
    );
    let mut conv = TextTable::new(&["trials", "TVaR99 estimate", "rel. error vs full"]);
    for row in study.rows() {
        conv.row(&[
            row.trials.to_string(),
            format!("{:.0}", row.estimate),
            format!("{:.4}", row.rel_error),
        ]);
    }
    println!("TVaR99 convergence with trial count:\n{conv}");

    // Bootstrap CI at two sample sizes.
    println!("\nbootstrap 90% confidence interval for TVaR99:");
    for &n in &[10_000usize, 100_000] {
        let sample = &losses[..n];
        let ci = bootstrap_ci(sample, &BootstrapConfig::default(), |xs| tvar(xs, 0.99));
        println!(
            "  {n:>7} trials: {:.0}  [{:.0}, {:.0}]  (width {:.1}% of point)",
            ci.point,
            ci.lo,
            ci.hi,
            100.0 * (ci.hi - ci.lo) / ci.point
        );
    }
    println!(
        "\npaper claim: PML and TVaR are the YLT-derived metrics reported to\n\
         regulators/rating agencies, and more trials mean better-managed aggregate\n\
         risk — the convergence table shows the tail metric stabilising, and the\n\
         bootstrap interval narrowing, with trial count."
    );
}

/// E8: chunking ablation (paper: "utilising shared and constant memory
/// as much as possible") — global-memory traffic with and without
/// shared-memory staging, versus portfolio width.
fn e8() {
    let setup_pool = ThreadPool::default();
    println!("E8 — shared-memory chunking ablation on the simulated GPU\n");
    let mut table = TextTable::new(&[
        "layers",
        "mode",
        "global read",
        "shared traffic",
        "const read",
        "occupancy",
        "time (s)",
    ]);

    for &layers in &[2usize, 8, 16] {
        let fixture = build_fixture(
            FixtureSize {
                layers,
                trials: 20_000,
                ..FixtureSize::small()
            },
            0xE8,
            &setup_pool,
        )
        .expect("fixture");
        let mut global_read_naive = 0u64;
        for (label, chunking) in [
            ("global-only", GpuChunking::GlobalOnly),
            ("chunked", GpuChunking::SharedTiles),
        ] {
            let pool = Arc::new(ThreadPool::default());
            let engine = GpuEngine::new(DeviceSpec::fermi_like(), chunking, pool);
            let t0 = std::time::Instant::now();
            let (_ylt, stats) = engine
                .run_with_stats(
                    &fixture.portfolio,
                    &fixture.yet,
                    &AggregateOptions::default(),
                )
                .expect("run");
            let dt = t0.elapsed().as_secs_f64();
            if chunking == GpuChunking::GlobalOnly {
                global_read_naive = stats.traffic.global_read;
            }
            let shared = stats.traffic.shared_read + stats.traffic.shared_write;
            table.row(&[
                layers.to_string(),
                label.into(),
                human_bytes(stats.traffic.global_read as u128),
                human_bytes(shared as u128),
                human_bytes(stats.traffic.const_read as u128),
                format!("{:.2}", stats.occupancy),
                format!("{dt:.3}"),
            ]);
            if chunking == GpuChunking::SharedTiles {
                let saved = 1.0 - stats.traffic.global_read as f64 / global_read_naive as f64;
                println!(
                    "  {layers} layers: chunking removes {:.0}% of global-memory reads",
                    saved * 100.0
                );
            }
        }
    }
    println!("\n{table}");
    println!(
        "\npaper claim: chunking — staging data through the GPU's small fast\n\
         memories — is what makes in-memory aggregate analysis feasible. Shape to\n\
         reproduce: global traffic drops by ~(layers-1)/layers of the occurrence\n\
         stream when tiles are staged once and re-read from shared memory, and the\n\
         saving grows with portfolio width."
    );
}

/// E9: parallel data warehousing for stage-3 analytics.
///
/// The paper (§II, on DFA-scale data): "Owing to the large size of
/// data pre-computation techniques such as in parallel data
/// warehousing can be applied." This report quantifies all three
/// halves of that sentence on a YELLT-shaped fact table:
///
/// 1. *parallel*   — cube build, sequential vs thread pool;
/// 2. *pre-computation* — per-query cost from facts vs from views,
///    and the break-even query count;
/// 3. *which views* — HRU greedy selection under a budget, with exact
///    cell counts.
fn e9() {
    let pool = ThreadPool::default();
    println!(
        "E9 — pre-computation / parallel data warehousing (threads: {})\n",
        pool.thread_count()
    );

    let schema = Schema::standard(2_000, 20, 5_000, 6, 64, 8).expect("schema");
    let rows = 2_000_000usize;
    let facts = FactTable::synthetic(&schema, rows, 2012);
    println!(
        "fact table: {} rows, {} ({} locations × {} events × {} layers × 365 days)\n",
        rows,
        human_bytes(facts.memory_bytes() as u128),
        2_000,
        5_000,
        64
    );

    // ---- 1. parallel cube build ----------------------------------
    let t0 = Instant::now();
    let base_seq = Cuboid::build(&schema, &facts, LevelSelect::BASE, None).expect("seq build");
    let seq_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let base_par =
        Cuboid::build(&schema, &facts, LevelSelect::BASE, Some(&pool)).expect("par build");
    let par_s = t0.elapsed().as_secs_f64();
    assert_eq!(base_seq.keys(), base_par.keys(), "engines must agree");

    let mut build = TextTable::new(&["base cuboid build", "time (s)", "speedup"]);
    build.row(&["sequential".into(), format!("{seq_s:.3}"), "1.00x".into()]);
    build.row(&[
        format!("parallel ({} threads)", pool.thread_count()),
        format!("{par_s:.3}"),
        format!("{:.2}x", seq_s / par_s),
    ]);
    println!("{build}");
    println!(
        "base cuboid: {} cells ({}), bit-identical between engines\n",
        base_par.cells(),
        human_bytes(base_par.memory_bytes() as u128)
    );

    // ---- 2. query cost: facts vs views ---------------------------
    // The stage-3 query mix: drill-downs an analyst actually runs.
    let queries: Vec<(&str, Query)> = vec![
        (
            "loss by region × peril",
            Query::group_by(LevelSelect([1, 1, 2, 3])),
        ),
        (
            "seasonality by peril",
            Query::group_by(LevelSelect([2, 1, 2, 1])),
        ),
        (
            "region 3 by month",
            Query::group_by(LevelSelect([1, 2, 2, 1])).filter(Filter::slice(dim::GEO, 3)),
        ),
        (
            "top-10 events, region 0",
            Query::group_by(LevelSelect([1, 0, 2, 3]))
                .filter(Filter::slice(dim::GEO, 0))
                .top(10),
        ),
        ("lob × season", Query::group_by(LevelSelect([2, 2, 1, 2]))),
    ];

    let cold = Warehouse::new(schema.clone(), facts.clone());
    let mut warm = Warehouse::new(schema.clone(), facts.clone());
    let t0 = Instant::now();
    let build_cost = warm
        .materialize_all(
            &[
                LevelSelect::BASE,
                LevelSelect([1, 1, 1, 1]),
                LevelSelect([1, 0, 2, 3]),
            ],
            Some(&pool),
        )
        .expect("materialise");
    let build_s = t0.elapsed().as_secs_f64();

    let mut qt = TextTable::new(&[
        "query",
        "cold rows read",
        "cold (ms)",
        "warm rows read",
        "warm (ms)",
        "saving",
    ]);
    let mut cold_total_s = 0.0;
    let mut warm_total_s = 0.0;
    for (name, q) in &queries {
        let t0 = Instant::now();
        let (ra, ca) = cold.answer(q).expect("cold");
        let cold_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (rb, cb) = warm.answer(q).expect("warm");
        let warm_s = t0.elapsed().as_secs_f64();
        assert_eq!(ra.len(), rb.len(), "answers must agree");
        cold_total_s += cold_s;
        warm_total_s += warm_s;
        qt.row(&[
            (*name).into(),
            ca.rows_read().to_string(),
            format!("{:.2}", cold_s * 1e3),
            cb.rows_read().to_string(),
            format!("{:.2}", warm_s * 1e3),
            format!(
                "{:.0}x",
                ca.rows_read() as f64 / cb.rows_read().max(1) as f64
            ),
        ]);
    }
    println!("{qt}");
    println!(
        "materialisation: {} rows read, {:.3} s, {} held in views\n",
        build_cost,
        build_s,
        human_bytes(warm.views_memory_bytes() as u128)
    );

    // ---- 3. break-even ------------------------------------------
    let per_mix_cold = cold_total_s;
    let per_mix_warm = warm_total_s;
    let breakeven = (build_s / (per_mix_cold - per_mix_warm)).ceil();
    println!(
        "query mix: cold {:.3} s vs warm {:.3} s per pass ({:.0}x); the one-off\n\
         {:.3} s build amortises after {} passes of the mix.\n",
        per_mix_cold,
        per_mix_warm,
        per_mix_cold / per_mix_warm.max(1e-9),
        build_s,
        breakeven
    );

    // ---- 4. HRU greedy view selection -----------------------------
    // Exact cell counts for the whole lattice, each cuboid derived
    // from the smallest already-computed finer cuboid (cells, not
    // facts — this is itself the point). Run on a reduced instance:
    // view *selection* depends on the lattice's shape, not the fact
    // count.
    let sel_schema = Schema::standard(500, 20, 1_000, 6, 32, 8).expect("schema");
    let sel_facts = FactTable::synthetic(&sel_schema, 250_000, 99);
    let t0 = Instant::now();
    let lattice = enumerate(&sel_schema);
    let mut computed: Vec<(LevelSelect, Cuboid)> = Vec::with_capacity(lattice.len());
    let mut order: Vec<LevelSelect> = lattice.clone();
    // Finest first so coarser cuboids find a small source.
    order.sort_by_key(|s| (s.0.iter().map(|&l| l as u32).sum::<u32>(), *s));
    for sel in order {
        let cub = match Cuboid::smallest_covering(computed.iter().map(|(_, c)| c), sel) {
            Some(src) if src.cells() < sel_facts.rows() => {
                src.rollup(&sel_schema, sel).expect("rollup")
            }
            _ => Cuboid::build(&sel_schema, &sel_facts, sel, Some(&pool)).expect("build"),
        };
        computed.push((sel, cub));
    }
    let sizes: Vec<(LevelSelect, u64)> = computed
        .iter()
        .map(|(s, c)| (*s, c.cells() as u64))
        .collect();
    let sizing_s = t0.elapsed().as_secs_f64();
    let selection = greedy_select(&sizes, 5);
    let mut ht = TextTable::new(&["pick", "view (levels)", "cells", "benefit (cells)"]);
    for (i, (v, b)) in selection
        .picked
        .iter()
        .zip(selection.benefits.iter())
        .enumerate()
    {
        let cells = sizes.iter().find(|(s, _)| s == v).map(|&(_, n)| n).unwrap();
        ht.row(&[
            (i + 1).to_string(),
            v.describe(&sel_schema),
            cells.to_string(),
            b.to_string(),
        ]);
    }
    println!("{ht}");
    println!(
        "lattice: {} cuboids sized exactly in {:.2} s; greedy picks cut the\n\
         answer-everything cost from {} to {} cells ({:.1}x).",
        lattice.len(),
        sizing_s,
        selection.cost_before,
        selection.cost_after,
        selection.cost_before as f64 / selection.cost_after.max(1) as f64
    );

    // ---- 5. the same cube on the other data strategy --------------
    // When the facts live in distributed file space instead of memory
    // (the paper's strategy (ii)), the group-by becomes a MapReduce
    // job; the cells must match the in-memory build.
    let dir = std::env::temp_dir().join(format!("riskpipe-e9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = ShardedWriter::create(&dir, 8).expect("store");
    for row in 0..facts.rows() {
        let codes = facts.row_codes(row);
        writer
            .push_row(
                row as u32 % 50_000,
                codes[dim::EVENT],
                LocationId::new(codes[dim::GEO]),
                facts.losses()[row],
            )
            .expect("row");
    }
    writer.finish().expect("manifest");
    let geo = schema.dim(dim::GEO);
    let ev = schema.dim(dim::EVENT);
    let reader = ShardedReader::open(&dir).expect("open");
    let t0 = Instant::now();
    let (cells, _) = CubeBuildJob {
        geo_map: Some((0..geo.cardinality(0)).map(|c| geo.code_at(1, c)).collect()),
        event_map: Some((0..ev.cardinality(0)).map(|c| ev.code_at(1, c)).collect()),
    }
    .run(&reader, 8, &pool)
    .expect("job");
    let mr_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mem_cub =
        Cuboid::build(&schema, &facts, LevelSelect([1, 1, 2, 3]), Some(&pool)).expect("build");
    let mem_s = t0.elapsed().as_secs_f64();
    assert_eq!(cells.len(), mem_cub.cells(), "strategies must agree");
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "\nsame region×peril cube from the sharded store (MapReduce): {} cells in\n\
         {:.2} s vs {:.2} s in-memory — identical cells, so the warehouse layer\n\
         rides either data strategy (in-memory while it fits, file space beyond).",
        cells.len(),
        mr_s,
        mem_s
    );
    println!(
        "\npaper: \"pre-computation techniques such as in parallel data warehousing\n\
         can be applied\" — the build parallelises, the views answer the stage-3\n\
         query mix orders of magnitude cheaper than fact scans, and view selection\n\
         under a budget is principled (HRU greedy over exact cell counts)."
    );
}

/// E10: the processor burst priced — fixed vs elastic provisioning over
/// one simulated pipeline week.
///
/// E6 derives the burst (stage 1 wants <10 processors, stages 2–3
/// thousands); this report prices it. The same week of jobs — daily
/// stage-1 refreshes, the Friday-night stage-2 roll-up, the dependent
/// stage-3 DFA run, business-hours ad-hoc queries — is replayed under
/// four provisioning policies, and the paper's "cloud is attractive"
/// claim becomes a cost/attainment table.
fn e10() {
    let spec = PipelineWeekSpec::default();
    let jobs = pipeline_week(&spec).expect("workload");
    let cfg = SimConfig::default();

    let total_core_hours = total_work_core_ms(&jobs) as f64 / 3_600_000.0;
    // Size the peak baseline to the *deadline* demand — the sustained
    // core rate needed to land every job inside its window — with 25%
    // headroom for scheduling slack and boot lag.
    let peak_cores = peak_deadline_demand(&jobs, WEEK_MS);
    let peak_nodes = ((peak_cores as f64 * 1.25) as u64).div_ceil(cfg.node.cores as u64) as u32;
    // A "fixed-average" cluster sized so the week's work fits exactly
    // if spread uniformly — the capacity-planning answer without
    // elasticity.
    let avg_nodes =
        ((total_work_core_ms(&jobs) as f64 / cfg.horizon_ms as f64 / cfg.node.cores as f64).ceil()
            as u32)
            .max(1);

    println!("E10 — provisioning the burst (one simulated pipeline week)\n");
    println!(
        "workload: {} jobs, {:.0} core-hours total; peak deadline demand\n\
         {} cores ({} nodes of {} with 25% headroom); uniform-average demand {} nodes.\n",
        jobs.len(),
        total_core_hours,
        peak_cores,
        peak_nodes,
        cfg.node.cores,
        avg_nodes
    );

    let burst_start = 4 * DAY_MS + 17 * HOUR_MS;
    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(FixedPolicy::new(avg_nodes)),
        Box::new(FixedPolicy::new(peak_nodes)),
        Box::new(ReactivePolicy::new(2, peak_nodes)),
        Box::new(ScheduledPolicy {
            windows: vec![(burst_start, burst_start + 14 * HOUR_MS, peak_nodes)],
            base_nodes: 2,
        }),
    ];

    let mut results: Vec<SimResult> = Vec::new();
    for p in policies.iter_mut() {
        results.push(simulate(&jobs, p.as_mut(), &cfg).expect("simulate"));
    }
    let fixed_peak_cost = results[1].core_hours();

    let mut table = TextTable::new(&[
        "policy",
        "complete",
        "deadlines met",
        "core-hours",
        "vs fixed-peak",
        "utilization",
        "peak nodes",
        "mean wait (min)",
    ]);
    for r in &results {
        table.row(&[
            r.policy.clone(),
            if r.all_complete() {
                "all".into()
            } else {
                "NO".into()
            },
            format!("{:.1}%", r.deadline_attainment() * 100.0),
            format!("{:.0}", r.core_hours()),
            format!("{:.0}%", 100.0 * r.core_hours() / fixed_peak_cost),
            format!("{:.1}%", r.utilization() * 100.0),
            r.peak_nodes.to_string(),
            format!("{:.1}", r.mean_wait_ms() / 60_000.0),
        ]);
    }
    println!("{table}");

    // The burst job in detail.
    let mut burst = TextTable::new(&[
        "policy",
        "roll-up wait (min)",
        "roll-up span (h)",
        "met 8h deadline",
    ]);
    for r in &results {
        let j = r
            .jobs
            .iter()
            .find(|j| j.stage == Stage::PortfolioRollup)
            .expect("rollup job");
        burst.row(&[
            r.policy.clone(),
            j.wait_ms()
                .map(|w| format!("{:.1}", w as f64 / 60_000.0))
                .unwrap_or_else(|| "-".into()),
            j.span_ms()
                .map(|s| format!("{:.2}", s as f64 / 3_600_000.0))
                .unwrap_or_else(|| "never".into()),
            j.deadline_met()
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{burst}");

    // The burst as a figure: provisioned nodes per 2-hour bucket under
    // the reactive policy (the week's demand curve made visible).
    let reactive = &results[2];
    println!("the burst (reactive policy): provisioned nodes, 4-hour buckets over the week\n");
    let bucket_ms = 4 * HOUR_MS;
    let buckets = (cfg.horizon_ms / bucket_ms) as usize;
    let mut peaks = vec![0u32; buckets];
    for &(t, nodes, _busy) in &reactive.timeline {
        let b = ((t / bucket_ms) as usize).min(buckets - 1);
        peaks[b] = peaks[b].max(nodes);
    }
    let max_nodes = peaks.iter().copied().max().unwrap_or(1).max(1);
    for (b, &n) in peaks.iter().enumerate() {
        let day = b * 4 / 24;
        let hour = (b * 4) % 24;
        let width = ((n as f64 / max_nodes as f64) * 60.0).round() as usize;
        println!(
            "  d{day} {hour:02}:00 |{:<60}| {n}",
            "#".repeat(width.min(60))
        );
    }

    println!(
        "\npaper: stage 1 alone fits a handful of processors all week, but the\n\
         weekly roll-up needs {peak_nodes} nodes for a few hours. A fixed cluster\n\
         must choose: sized for the average it blows the reporting deadline;\n\
         sized for the peak it idles (low utilisation) all week. The elastic\n\
         policies buy the same deadline attainment for a fraction of the\n\
         core-hours — \"the elastic demand ... makes cloud-based computing\n\
         attractive\", as a measured table."
    );
}

/// Ablation: the secondary-uncertainty quantile scheme — the design
/// choice `riskpipe_aggregate::secondary` documents (exact
/// inverse-incomplete-beta per lookup vs. the GPU papers' pre-tabulated
/// interpolation grids).
///
/// Reports, per scheme: table build time (summed over the layers),
/// simulation time (the prepared trial loop alone), table memory, and
/// the accuracy of the resulting portfolio tail against the exact-mode
/// reference.
fn ablation() {
    let pool = Arc::new(ThreadPool::default());
    let size = FixtureSize {
        trials: 20_000,
        layers: 4,
        ..FixtureSize::small()
    };
    let fixture = build_fixture(size, 0xAB1A, &pool).expect("fixture");
    let engine = CpuParallelEngine::new(Arc::clone(&pool));

    println!("ablation — beta-quantile evaluation scheme (secondary uncertainty)\n");
    println!(
        "fixture: {} layers x {} trials; {} total ELT rows\n",
        size.layers,
        size.trials,
        fixture.portfolio.total_elt_rows()
    );

    let elts = || fixture.portfolio.layers().iter().map(|l| &*l.elt);
    // "simulate" times the trial loop alone: each scheme's tables are
    // joined first, untimed, and the engine runs on the prepared join.
    let simulate = |tables: Vec<SecondaryTable>| {
        let join = EventJoin::build(elts(), Some(tables)).expect("join");
        let t0 = Instant::now();
        let ylt = engine
            .run_prepared(&fixture.portfolio, &fixture.yet, &join)
            .expect("prepared run");
        (ylt, t0.elapsed().as_secs_f64())
    };

    // Exact reference tail.
    eprintln!("running exact-mode reference ...");
    let (exact_ylt, exact_time) = simulate(
        elts()
            .map(|elt| SecondaryTable::build(elt, QuantileMode::Exact))
            .collect(),
    );
    let exact_tvar = tvar(exact_ylt.agg_losses(), 0.99);

    let mut table = TextTable::new(&[
        "scheme",
        "table build (s)",
        "table memory",
        "simulate (s)",
        "TVaR99 vs exact",
    ]);
    table.row(&[
        "exact (reference)".into(),
        "-".into(),
        "-".into(),
        format!("{exact_time:.3}"),
        "0.000%".into(),
    ]);

    for &grid in &[9u32, 17, 33, 65, 129] {
        let mode = QuantileMode::Interpolated(grid);
        // Build-time cost, summed over every layer's table.
        let t0 = Instant::now();
        let tables: Vec<SecondaryTable> =
            elts().map(|elt| SecondaryTable::build(elt, mode)).collect();
        let build_time = t0.elapsed().as_secs_f64();
        let memory: usize = tables.iter().map(|t| t.memory_bytes()).sum();
        let (ylt, sim_time) = simulate(tables);
        let t = tvar(ylt.agg_losses(), 0.99);
        table.row(&[
            format!("interpolated({grid})"),
            format!("{build_time:.3}"),
            human_bytes(memory as u128),
            format!("{sim_time:.3}"),
            format!("{:+.3}%", 100.0 * (t - exact_tvar) / exact_tvar),
        ]);
    }
    println!("{table}");
    println!(
        "\nreading: an interpolated grid simulates at a small fraction of the exact\n\
         scheme's cost whatever its size, and pays for it once, in the table build —\n\
         the trade the GPU papers made. The default interpolated(33) grid leaves a tail\n\
         error of a few percent; each doubling of the grid (and of its memory) roughly\n\
         halves it until the interpolation error vanishes under Monte-Carlo noise."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ids() -> Vec<&'static str> {
        REPORTS.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn report_ids_are_unique() {
        let ids = ids();
        let unique: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");
    }

    #[test]
    fn every_experiment_has_a_report() {
        let mut expected: Vec<String> = (1..=10).map(|n| format!("e{n}")).collect();
        expected.push("ablation".into());
        let mut ids = ids();
        ids.sort_unstable();
        expected.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn unknown_id_fails_and_names_the_valid_ids() {
        let err = select_reports(&["e3".into(), "e11".into()]).unwrap_err();
        assert!(err.contains("unknown report id `e11`"), "{err}");
        assert!(ids().iter().all(|id| err.contains(id)), "{err}");
        assert!(select_reports(&[]).is_err(), "no id is a usage error");
        assert_eq!(
            select_reports(&["e10".into(), "e3".into()]).unwrap().len(),
            2
        );
    }
}
