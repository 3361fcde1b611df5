//! E6 report: the processor burst (paper claim: stage 1 needs <10
//! processors; stages 2–3 need thousands to tens of thousands).
//!
//! Measures this machine's single-core throughput on each stage's inner
//! loop, then scales the paper's example workload to derive processor
//! counts per reporting deadline.
//!
//! ```text
//! cargo run --release -p riskpipe-bench --bin report_e6
//! ```

use riskpipe_aggregate::{AggregateEngine, AggregateOptions, SequentialEngine};
use riskpipe_bench::{build_fixture, FixtureSize};
use riskpipe_catmodel::{
    CatalogConfig, EltGenConfig, EventCatalog, ExposureConfig, ExposurePortfolio, GroundUpModel,
};
use riskpipe_core::{Deadline, ElasticModel, StageThroughput, TextTable};
use riskpipe_dfa::{CompanyConfig, DfaEngine};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::ScaleSpec;
use std::time::Instant;

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
    use riskpipe_types::TrialId;
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

fn main() {
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
