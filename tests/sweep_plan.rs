//! The `SweepPlan` contract: one declared plan drives one streaming
//! pass, and each consumer — summary, persistence, collection, a
//! warehouse, a `drive_with` extra — holds what it would hold as the
//! sweep's only sink, on any thread count: pinned cases of the session
//! oracle (`tests/oracle/mod.rs`; the drawn property is
//! `tests/session_oracle.rs`). Also an aborted drive's files, and
//! proptests of the `FanoutSink` combinator: delivery order and
//! per-sink results are independent of how many sinks ride the sweep,
//! and the last member receives each owned report by value.

#[allow(dead_code, reason = "each test binary uses part of the shared oracle")]
#[macro_use]
mod oracle;

use oracle::{model, pricing_sweep, Case, Tail};
use proptest::prelude::*;
use riskpipe::core::{
    FanoutSink, PipelineReport, ReportSink, RiskSession, ShardedFilesStore, SweepSummary,
};
use riskpipe::metrics::RiskMeasures;
use riskpipe::prelude::RiskResult;
use riskpipe::types::{RiskError, TrialId};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;

/// Four models for warehouse-bearing plans: the oracle lays them out
/// as a 2-region × 2-peril grid.
fn grid(seed: u64) -> Vec<riskpipe::core::ScenarioConfig> {
    (seed..seed + 4).map(model).collect()
}

pinned! {
    /// The pooled goldens themselves are pinned in tests/golden_metrics.rs.
    summary_only_plan_matches_hand_composed_sink_and_goldens => [1, 2, 8].map(|threads| {
        Case { threads, ..Case::plan(pricing_sweep(0x51, 8), "summary", Tail::Bare) }
    });
    summary_persist_plan_matches_hand_composed_persisting_sink => [1, 2, 8].map(|threads| {
        let plan = Case::plan(pricing_sweep(0x52, 4), "summary persist", Tail::Extra);
        Case { threads, shards: 2, ..plan }
    });
    summary_warehouse_plan_matches_single_sink_paths => [1, 2, 8].map(|threads| {
        Case { threads, ..Case::plan(grid(0x53), "summary", Tail::Warehouse) }
    });
    one_drive_feeds_summary_persistence_and_warehouse_from_one_pass => {
        let plan = Case::plan(grid(0x54), "summary persist collect", Tail::Warehouse);
        [Case { shards: 2, ..plan }]
    };
    plan_errors_propagate_and_empty_plans_run_dry => {
        let mut bad = model(0x57);
        bad.trials = 0;
        let failing = Case::plan(vec![model(0x58), bad], "summary", Tail::Bare);
        [Case::plan(pricing_sweep(0x56, 2), "", Tail::Bare), failing]
    };
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
    let dir = std::env::temp_dir().join(format!("riskpipe-plan-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
