//! The `SweepPlan` contract: one declared plan drives one streaming
//! pass, every attached consumer receives the full input-ordered
//! report stream, and each consumer's artifact is **bit-identical** to
//! what the pre-redesign single-sink path produced — on any thread
//! count, with any combination of other consumers attached. Also
//! proptests the `FanoutSink` combinator: delivery order and per-sink
//! results are independent of how many sinks ride the sweep, and the
//! last member receives each owned report by value.

use proptest::prelude::*;
use riskpipe::analytics::{
    DrilldownLayout, ScenarioDims, SessionAnalytics, SweepPlanAnalytics, WarehouseSink,
};
use riskpipe::core::{
    FanoutSink, PersistingSink, PipelineReport, ReportSink, RiskSession, ScenarioConfig,
    ShardedFilesStore, SweepSummary,
};
use riskpipe::metrics::RiskMeasures;
use riskpipe::prelude::{LevelSelect, Query, RiskResult};
use riskpipe::types::{RiskError, TrialId};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("riskpipe-plan-{tag}-{}-{n}", std::process::id()))
}

/// An attachment-factor sweep: every scenario shares one stage-1 key.
fn pricing_sweep(seed: u64, points: usize) -> Vec<ScenarioConfig> {
    (0..points)
        .map(|i| {
            ScenarioConfig::small()
                .with_seed(seed)
                .with_trials(300)
                .with_name(format!("attach-{i}"))
                .with_attachment_factor(0.25 + 0.25 * i as f64)
        })
        .collect()
}

/// A 2-region × 2-peril grid for warehouse-bearing plans.
fn grid(seed: u64) -> (Vec<ScenarioConfig>, Vec<ScenarioDims>) {
    let mut scenarios = Vec::new();
    let mut dims = Vec::new();
    for region in 0..2u32 {
        for peril in 0..2u32 {
            let s = ScenarioConfig::small()
                .with_seed(seed + (region * 2 + peril) as u64)
                .with_trials(300)
                .with_name(format!("r{region}-p{peril}"));
            dims.push(ScenarioDims::for_scenario(region, peril, &s));
            scenarios.push(s);
        }
    }
    (scenarios, dims)
}

/// Every pooled number a summary answers, as bits — including the new
/// per-return-period-band OEP tail means.
fn summary_bits(s: &SweepSummary) -> Vec<u64> {
    let mut bits = vec![
        s.trials(),
        s.scenarios() as u64,
        s.pooled_var99().unwrap().to_bits(),
        s.pooled_tvar99().unwrap().to_bits(),
        s.pooled_pml(100.0).unwrap().to_bits(),
    ];
    bits.extend(s.aep_points().iter().map(|p| p.loss.to_bits()));
    bits.extend(s.oep_points().iter().map(|p| p.loss.to_bits()));
    for (lo, hi) in [(5.0, 25.0), (25.0, 100.0), (100.0, f64::INFINITY)] {
        bits.push(s.tail_mean_between(lo, hi).map(f64::to_bits).unwrap_or(0));
    }
    bits
}

/// One base cell as comparable bits: (codes, count, var99, tvar99).
type CellBits = (Vec<u32>, u64, u64, u64);

/// Every base cell of a warehouse, as comparable bits.
fn warehouse_bits(wh: &riskpipe::analytics::Drilldown) -> Vec<CellBits> {
    let (rows, _) = wh.answer(&Query::group_by(LevelSelect::BASE)).unwrap();
    rows.iter()
        .map(|r| {
            (
                r.codes.to_vec(),
                r.cell.count,
                r.cell.var99().unwrap().to_bits(),
                r.cell.tvar99().unwrap().to_bits(),
            )
        })
        .collect()
}

/// Per-slot persisted artifacts (encoded YLT + rendered measures) of a
/// `ShardedFilesStore` run.
fn persisted_artifacts(dir: &std::path::Path, slots: usize) -> Vec<(Vec<u8>, String)> {
    (0..slots)
        .map(|i| {
            let slot_dir = dir.join(format!("batch-{i:03}"));
            (
                std::fs::read(slot_dir.join(ShardedFilesStore::YLT_FILE)).unwrap(),
                std::fs::read_to_string(slot_dir.join(ShardedFilesStore::MEASURES_FILE)).unwrap(),
            )
        })
        .collect()
}

// Golden pooled values for 3 copies of the golden scenario (seed
// 0x601D, 500 trials), pinned in tests/golden_metrics.rs from the
// pre-redesign single-sink reference run — the plan path must
// reproduce them bit for bit.
const GOLDEN_SWEEP_SCENARIOS: usize = 3;
const GOLDEN_POOLED_VAR99_BITS: u64 = 0x41A3_46E9_61CE_AC2F;
const GOLDEN_POOLED_TVAR99_BITS: u64 = 0x41A7_ABEB_4E97_BBBA;
const GOLDEN_POOLED_PML100_BITS: u64 = 0x41A3_46E9_61CE_AC2F;

#[test]
fn summary_only_plan_matches_hand_composed_sink_and_goldens() -> RiskResult<()> {
    let scenarios = pricing_sweep(0x51, 8);
    let mut seen: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 2, 8] {
        // Hand-composed pre-redesign path: the summary as the only
        // run_stream sink.
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let mut hand = SweepSummary::new();
        session.run_stream(&scenarios, &mut hand)?;

        // Plan path, fresh session (fresh cache) for a clean
        // comparison.
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let outcome = session.sweep(&scenarios).summary().drive()?;
        assert_eq!(outcome.delivered(), scenarios.len());
        let plan = outcome.summary().expect("summary was requested");
        assert!(
            outcome.persisted().is_none(),
            "persistence was not requested"
        );
        assert!(outcome.reports().is_none(), "collection was not requested");

        assert_eq!(
            summary_bits(plan),
            summary_bits(&hand),
            "plan vs hand-composed summary on {threads} threads"
        );
        seen.push(summary_bits(plan));
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "pooled analytics must be thread-count independent"
    );

    // Golden pins: the plan path reproduces the pre-redesign pooled
    // golden values bit for bit.
    let golden: Vec<ScenarioConfig> = (0..GOLDEN_SWEEP_SCENARIOS)
        .map(|_| ScenarioConfig::small().with_seed(0x601D).with_trials(500))
        .collect();
    let session = RiskSession::builder().pool_threads(4).build()?;
    let outcome = session.sweep(&golden).summary().drive()?;
    let summary = outcome.into_summary().unwrap();
    assert_eq!(summary.trials(), 1500);
    assert_eq!(
        summary.pooled_var99().unwrap().to_bits(),
        GOLDEN_POOLED_VAR99_BITS
    );
    assert_eq!(
        summary.pooled_tvar99().unwrap().to_bits(),
        GOLDEN_POOLED_TVAR99_BITS
    );
    assert_eq!(
        summary.pooled_pml(100.0).unwrap().to_bits(),
        GOLDEN_POOLED_PML100_BITS
    );
    Ok(())
}

#[test]
fn summary_persist_plan_matches_hand_composed_persisting_sink() -> RiskResult<()> {
    let scenarios = pricing_sweep(0x52, 4);
    for threads in [1usize, 2, 8] {
        // Hand-composed path: a SweepSummary and a PersistingSink as
        // the two members of one fan-out.
        let hand_dir = temp("hand");
        let hand_store = Arc::new(ShardedFilesStore::new(&hand_dir, 2)?);
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let mut hand_summary = SweepSummary::new();
        let mut hand = PersistingSink::new(hand_store.clone());
        session.run_stream(
            &scenarios,
            FanoutSink::new().with(&mut hand_summary).with(&mut hand),
        )?;

        // Plan path into its own directory, with an ad-hoc consumer
        // riding the same pass via drive_with.
        let plan_dir = temp("plan");
        let plan_store = Arc::new(ShardedFilesStore::new(&plan_dir, 2)?);
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let mut extra = SweepSummary::new();
        let outcome = session
            .sweep(&scenarios)
            .summary()
            .persist_to(plan_store.clone())
            .drive_with(&mut extra)?;

        let persisted = outcome.persisted().expect("persistence was requested");
        assert_eq!(persisted.reports(), hand.reports_persisted());
        assert_eq!(persisted.bytes(), hand.bytes_persisted());
        assert_eq!(persisted.run(), 0);
        assert_eq!(
            summary_bits(outcome.summary().unwrap()),
            summary_bits(&hand_summary),
            "plan vs hand-composed fan-out summary on {threads} threads"
        );
        assert_eq!(
            summary_bits(&extra),
            summary_bits(&hand_summary),
            "the drive_with extra sink must see the same stream on {threads} threads"
        );
        // Durable artifacts are byte-identical, slot for slot.
        assert_eq!(
            persisted_artifacts(&plan_dir, scenarios.len()),
            persisted_artifacts(&hand_dir, scenarios.len()),
            "persisted artifacts diverged on {threads} threads"
        );
        // And the spill reloads bit-exactly through the plan's handle.
        let reloaded = plan_store.load_report_ylt(Some(2), persisted.run())?;
        let solo = session.run(&scenarios[2])?;
        assert_eq!(reloaded, solo.ylt);

        for dir in [hand_dir, plan_dir] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    Ok(())
}

#[test]
fn summary_warehouse_plan_matches_single_sink_paths() -> RiskResult<()> {
    let (scenarios, dims) = grid(0x53);
    let mut seen: Vec<Vec<CellBits>> = Vec::new();
    for threads in [1usize, 2, 8] {
        // Hand-composed warehouse: the sink as the sweep's only consumer.
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let layout = DrilldownLayout::new(dims.clone(), session.engine())?;
        let mut hand_sink = WarehouseSink::new(layout.clone())?;
        session.run_stream(&scenarios, &mut hand_sink)?;
        let hand_wh = hand_sink.finish()?;
        // Hand-composed summary.
        let mut hand_summary = SweepSummary::new();
        let session = RiskSession::builder().pool_threads(threads).build()?;
        session.run_stream(&scenarios, &mut hand_summary)?;

        // Plan path: both consumers on one pass.
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let outcome = session
            .sweep(&scenarios)
            .summary()
            .warehouse(layout)
            .drive()?;
        assert_eq!(outcome.delivered(), scenarios.len());
        assert_eq!(
            summary_bits(outcome.summary().unwrap()),
            summary_bits(&hand_summary),
            "summary perturbed by the warehouse consumer on {threads} threads"
        );
        let bits = warehouse_bits(outcome.drilldown());
        assert_eq!(
            bits,
            warehouse_bits(&hand_wh),
            "warehouse cells diverged from the single-sink path on {threads} threads"
        );
        seen.push(bits);
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "warehouse cells must be thread-count independent"
    );
    Ok(())
}

/// The acceptance shape: ONE `drive()` call produces pooled summary
/// metrics, a persisted `ShardedFilesStore` spill, and a queryable
/// `Drilldown` — each bit-identical to its pre-redesign single-sink
/// path — while the scenarios execute exactly once.
#[test]
fn one_drive_feeds_summary_persistence_and_warehouse_from_one_pass() -> RiskResult<()> {
    let (scenarios, dims) = grid(0x54);

    // --- the single plan drive (2 threads) ---
    let plan_dir = temp("accept");
    let plan_store = Arc::new(ShardedFilesStore::new(&plan_dir, 2)?);
    let session = RiskSession::builder().pool_threads(2).build()?;
    let layout = DrilldownLayout::new(dims.clone(), session.engine())?;
    let outcome = session
        .sweep(&scenarios)
        .summary()
        .persist_to(plan_store.clone())
        .warehouse(layout.clone())
        .materialize_budget(256 * 1024)
        .drive()?;
    assert_eq!(outcome.delivered(), scenarios.len());
    assert!(outcome.selection().is_some(), "budget was requested");
    // One pass: the shared-key stage-1 gating saw each distinct
    // catalogue exactly once despite three consumers.
    assert_eq!(
        session.stage1_cache_stats().misses as usize,
        {
            let mut keys: Vec<u64> = scenarios.iter().map(|s| s.stage1_key()).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        },
        "consumers must share one sweep, not re-run it"
    );

    // --- pre-redesign single-sink references (1 thread, so the
    //     comparison also pins cross-thread identity) ---
    let session = RiskSession::builder().pool_threads(1).build()?;
    let mut ref_summary = SweepSummary::new();
    session.run_stream(&scenarios, &mut ref_summary)?;
    assert_eq!(
        summary_bits(outcome.summary().unwrap()),
        summary_bits(&ref_summary)
    );

    let ref_dir = temp("accept-ref");
    let ref_store = Arc::new(ShardedFilesStore::new(&ref_dir, 2)?);
    let session = RiskSession::builder().pool_threads(1).build()?;
    let mut ref_sink = PersistingSink::new(ref_store.clone());
    session.run_stream(&scenarios, &mut ref_sink)?;
    assert_eq!(
        persisted_artifacts(&plan_dir, scenarios.len()),
        persisted_artifacts(&ref_dir, scenarios.len()),
        "the plan's spill must match the PersistingSink path byte for byte"
    );

    let session = RiskSession::builder().pool_threads(1).build()?;
    let mut ref_sink = WarehouseSink::new(layout.clone())?;
    session.run_stream(&scenarios, &mut ref_sink)?;
    let ref_wh = ref_sink.finish()?;
    assert_eq!(warehouse_bits(outcome.drilldown()), warehouse_bits(&ref_wh));

    // The plan's spill even rebuilds the same warehouse.
    let session = RiskSession::builder().pool_threads(2).build()?;
    let rebuilt = session
        .analytics(layout)
        .rebuild_from_store(&plan_store, 0)?;
    assert_eq!(
        warehouse_bits(outcome.drilldown()),
        warehouse_bits(&rebuilt)
    );

    for dir in [plan_dir, ref_dir] {
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

/// Every file under `dir`, recursively, with its length, in path
/// order.
fn listing(dir: &std::path::Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let path = entry.path();
        if path.is_dir() {
            out.extend(listing(&path));
        } else {
            out.push((path, entry.metadata().unwrap().len()));
        }
    }
    out.sort();
    out
}

/// A drive aborted by another member after persistence has handed over
/// slots 0 and 1: the drive returns that member's error and seals
/// nothing, both handed-over slots are whole under their final names
/// (dropping the sink waited for the write in flight), and nothing is
/// written after the drive returns.
#[test]
fn an_aborted_drive_leaves_only_whole_files_and_no_writer() -> RiskResult<()> {
    let scenarios = pricing_sweep(0x5B, 5);
    let dir = temp("abort");
    let store = Arc::new(ShardedFilesStore::new(&dir, 2)?);
    let session = RiskSession::builder().pool_threads(2).build()?;
    let stop_at_1 = |slot: usize, _: PipelineReport| -> RiskResult<()> {
        if slot == 1 {
            Err(RiskError::invalid("the extra sink stops at slot 1"))
        } else {
            Ok(())
        }
    };
    let err = session
        .sweep(&scenarios)
        .summary()
        .persist_to(store.clone())
        .drive_with(stop_at_1)
        .expect_err("the extra sink's error aborts the drive");
    assert!(err.to_string().contains("stops at slot 1"), "{err}");
    assert!(!dir.join(ShardedFilesStore::RUN_MANIFEST_FILE).exists());
    assert!(store.persisted_report_slots(0).is_err());

    let before = listing(&dir);
    let names: Vec<String> = before
        .iter()
        .map(|(p, _)| p.strip_prefix(&dir).unwrap().display().to_string())
        .collect();
    assert_eq!(
        names,
        [
            "batch-000/MEASURES.txt",
            "batch-000/YLT.bin",
            "batch-001/MEASURES.txt",
            "batch-001/YLT.bin"
        ],
        "exactly the two handed-over slots, and no temporary"
    );
    for (slot, scenario) in scenarios.iter().enumerate().take(2) {
        let ylt = store.load_report_ylt(Some(slot), 0)?;
        assert_eq!(ylt, session.run(scenario)?.ylt, "slot {slot}");
        let measures = std::fs::read_to_string(
            dir.join(format!("batch-{slot:03}"))
                .join(ShardedFilesStore::MEASURES_FILE),
        )
        .unwrap();
        assert!(measures.starts_with(&format!("scenario: attach-{slot}\ntrials: 300\n")));
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(
        listing(&dir),
        before,
        "a write landed after the drive returned"
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn plan_errors_propagate_and_empty_plans_run_dry() -> RiskResult<()> {
    let session = RiskSession::builder().pool_threads(2).build()?;
    // A consumer-less plan still sweeps (side effects only).
    let outcome = session.sweep(&pricing_sweep(0x56, 2)).drive()?;
    assert_eq!(outcome.delivered(), 2);
    assert!(outcome.summary().is_none());
    // Scenario errors abort the drive exactly as run_stream does.
    let mut bad = ScenarioConfig::small().with_seed(0x57).with_trials(300);
    bad.trials = 0;
    let err = session
        .sweep(&[
            ScenarioConfig::small().with_seed(0x58).with_trials(300),
            bad,
        ])
        .summary()
        .drive();
    assert!(err.is_err());
    Ok(())
}

// ---------------------------------------------------------------------
// FanoutSink properties over synthetic reports.
// ---------------------------------------------------------------------

/// A minimal report carrying the given YLT column (occurrence column
/// = half the aggregate, as elsewhere in the suite).
fn synthetic_report(name: &str, losses: &[f64]) -> PipelineReport {
    let mut ylt = riskpipe::tables::Ylt::zeroed(losses.len());
    for (t, &x) in losses.iter().enumerate() {
        ylt.set_trial(TrialId::new(t as u32), x, x / 2.0, 1);
    }
    let agg_sorted = ylt.sorted_agg_losses();
    let occ_sorted = ylt.sorted_max_occ_losses();
    PipelineReport {
        scenario_name: name.into(),
        elt_rows: 0,
        yet_occurrences: 0,
        yelt_rows: losses.len(),
        yelt_memory_bytes: 0,
        yelt_file_bytes: 0,
        ylt_encoded_bytes: 0,
        measures: RiskMeasures {
            mean: 0.0,
            sd: 0.0,
            var99: 0.0,
            tvar99: 1.0,
            var996: 0.0,
            oep_pml100: 0.0,
        },
        pml_100: None,
        prob_ruin: 0.0,
        mean_net_income: 0.0,
        economic_capital: 0.0,
        agg_sorted,
        occ_sorted,
        ylt,
    }
}

/// Pooled trials, VaR99 and TVaR99 as bits (defined for any trial
/// count, unlike [`summary_bits`]' 100-year PML).
fn pooled_bits(s: &SweepSummary) -> (u64, Option<u64>, Option<u64>) {
    (
        s.trials(),
        s.pooled_var99().map(f64::to_bits),
        s.pooled_tvar99().map(f64::to_bits),
    )
}

/// How a fan-out member received one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    Shared,
    Owned,
}

/// One delivery as a probe saw it: (member, slot, mode, address of the
/// report's YLT aggregate column).
type Seen = (usize, usize, Delivery, usize);

/// A fan-out member that logs every delivery into a log shared by its
/// siblings (so the log is in delivery order) and folds a summary.
struct Probe<'l> {
    id: usize,
    summary: SweepSummary,
    log: &'l RefCell<Vec<Seen>>,
}

impl<'l> Probe<'l> {
    fn new(id: usize, log: &'l RefCell<Vec<Seen>>) -> Self {
        Self {
            id,
            summary: SweepSummary::new(),
            log,
        }
    }

    fn record(&mut self, slot: usize, report: &PipelineReport, how: Delivery) {
        let addr = report.ylt.agg_losses().as_ptr() as usize;
        self.log.borrow_mut().push((self.id, slot, how, addr));
        self.summary.push(report);
    }
}

impl ReportSink for &mut Probe<'_> {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.record(slot, &report, Delivery::Owned);
        Ok(())
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.record(slot, report, Delivery::Shared);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fan-out invariants: every sink sees every slot in input order,
    /// and each sink's accumulated result is bit-identical to what it
    /// would produce alone — independent of how many siblings ride
    /// the same delivery.
    #[test]
    fn fanout_order_and_results_independent_of_sink_count(
        nsinks in 1usize..=6,
        nreports in 1usize..=4,
        seed in 0u64..512,
    ) {
        let reports: Vec<PipelineReport> = (0..nreports)
            .map(|r| {
                let losses: Vec<f64> = (0..40)
                    .map(|i| (((seed + r as u64) * 61 + i) % 509) as f64 * 0.75)
                    .collect();
                synthetic_report(&format!("r{r}"), &losses)
            })
            .collect();

        // Reference: one summary fed alone.
        let mut reference = SweepSummary::new();
        for report in &reports {
            reference.push(report);
        }

        // nsinks summaries plus an order-recording closure (which
        // exercises the clone-fallback shared path) on one fan-out.
        let mut summaries = vec![SweepSummary::new(); nsinks];
        let mut order: Vec<usize> = Vec::new();
        {
            let mut fan = FanoutSink::new();
            for s in summaries.iter_mut() {
                fan.push(s);
            }
            fan.push(|slot, _report: PipelineReport| {
                order.push(slot);
                Ok(())
            });
            prop_assert_eq!(fan.len(), nsinks + 1);
            for (slot, report) in reports.iter().enumerate() {
                fan.accept(slot, report.clone()).unwrap();
            }
        }
        prop_assert_eq!(order, (0..nreports).collect::<Vec<_>>());
        for s in &summaries {
            prop_assert_eq!(s.trials(), reference.trials());
            prop_assert_eq!(
                s.pooled_var99().unwrap().to_bits(),
                reference.pooled_var99().unwrap().to_bits()
            );
            prop_assert_eq!(
                s.pooled_tvar99().unwrap().to_bits(),
                reference.pooled_tvar99().unwrap().to_bits()
            );
        }
    }

    /// The fan-out ownership rule: under owned delivery (`accept`)
    /// members `0..n-1` read the report shared, in attachment order,
    /// and the last member receives the very report passed in — its
    /// YLT column sits at the same address, so nothing was cloned.
    /// Under shared delivery (`accept_shared`) every member reads the
    /// caller's report in place. Every member folds the same bits as a
    /// lone summary.
    #[test]
    fn fanout_last_member_owns_the_report(
        members in 1usize..=4,
        nreports in 1usize..=4,
        seed in 0u64..512,
    ) {
        let reports: Vec<PipelineReport> = (0..nreports)
            .map(|r| {
                let losses: Vec<f64> = (0..30)
                    .map(|i| (((seed + r as u64) * 37 + i) % 211) as f64)
                    .collect();
                synthetic_report(&format!("t{r}"), &losses)
            })
            .collect();
        let mut reference = SweepSummary::new();
        for report in &reports {
            reference.push(report);
        }

        // Owned delivery: each report is a fresh clone moved into the
        // fan-out; its column address is what every member must see.
        let log = RefCell::new(Vec::new());
        let mut probes: Vec<Probe> = (0..members).map(|id| Probe::new(id, &log)).collect();
        let mut addrs = Vec::new();
        {
            let mut fan = FanoutSink::new();
            for p in probes.iter_mut() {
                fan.push(p);
            }
            for (slot, report) in reports.iter().enumerate() {
                let owned = report.clone();
                addrs.push(owned.ylt.agg_losses().as_ptr() as usize);
                fan.accept(slot, owned).unwrap();
            }
        }
        let want: Vec<Seen> = (0..nreports)
            .flat_map(|slot| {
                let addr = addrs[slot];
                (0..members).map(move |id| {
                    let how = if id + 1 == members { Delivery::Owned } else { Delivery::Shared };
                    (id, slot, how, addr)
                })
            })
            .collect();
        prop_assert_eq!(log.take(), want);
        for p in &probes {
            prop_assert_eq!(pooled_bits(&p.summary), pooled_bits(&reference));
        }

        // Shared delivery: no member owns, none clones.
        let mut probes: Vec<Probe> = (0..members).map(|id| Probe::new(id, &log)).collect();
        {
            let mut fan = FanoutSink::new();
            for p in probes.iter_mut() {
                fan.push(p);
            }
            for (slot, report) in reports.iter().enumerate() {
                fan.accept_shared(slot, report).unwrap();
            }
        }
        let want: Vec<Seen> = reports
            .iter()
            .enumerate()
            .flat_map(|(slot, report)| {
                let addr = report.ylt.agg_losses().as_ptr() as usize;
                (0..members).map(move |id| (id, slot, Delivery::Shared, addr))
            })
            .collect();
        prop_assert_eq!(log.take(), want);
        for p in &probes {
            prop_assert_eq!(pooled_bits(&p.summary), pooled_bits(&reference));
        }
    }
}
