//! The `RiskSession` facade contract: builder defaults, engine and
//! store equivalence (bit-identical YLTs through every configuration),
//! and batch determinism on any thread count.

use riskpipe::aggregate::EngineKind;
use riskpipe::core::{RiskSession, ScenarioConfig, ShardedFilesStore};
use riskpipe::types::RiskResult;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("riskpipe-sapi-{tag}-{}-{n}", std::process::id()))
}

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small().with_seed(seed).with_trials(400)
}

#[test]
fn builder_defaults_are_sensible() -> RiskResult<()> {
    let session = RiskSession::builder().build()?;
    assert_eq!(session.engine(), EngineKind::CpuParallel);
    assert_eq!(session.store_name(), "in-memory");
    assert!(session.pool().thread_count() >= 1);

    let sized = RiskSession::builder().pool_threads(3).build()?;
    assert_eq!(sized.pool().thread_count(), 3);
    Ok(())
}

#[test]
fn every_engine_and_store_yields_the_same_ylt() -> RiskResult<()> {
    let scenario = scenario(8);
    let reference = RiskSession::builder()
        .engine(EngineKind::Sequential)
        .pool_threads(2)
        .build()?
        .run(&scenario)?;

    for kind in EngineKind::ALL {
        // In-memory store.
        let report = RiskSession::builder()
            .engine(kind)
            .pool_threads(2)
            .build()?
            .run(&scenario)?;
        assert_eq!(report.ylt, reference.ylt, "{kind:?} (in-memory) diverged");
        assert_eq!(report.yelt_file_bytes, 0);

        // Sharded-files store: same YLT, bytes on disk.
        let dir = temp("equiv");
        let report = RiskSession::builder()
            .engine(kind)
            .store(Arc::new(ShardedFilesStore::new(&dir, 3)?))
            .pool_threads(2)
            .build()?
            .run(&scenario)?;
        assert_eq!(report.ylt, reference.ylt, "{kind:?} (sharded) diverged");
        assert!(report.yelt_file_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

#[test]
fn run_batch_matches_sequential_runs_on_any_thread_count() -> RiskResult<()> {
    let scenarios = [scenario(21), scenario(22), scenario(23)];

    // Reference: each scenario alone on a single-threaded session.
    let single = RiskSession::builder().pool_threads(1).build()?;
    let reference: Vec<_> = scenarios
        .iter()
        .map(|s| single.run(s))
        .collect::<RiskResult<_>>()?;

    for threads in [1, 2, 8] {
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let outcome = session.sweep(&scenarios).collect().drive()?;
        let batch = outcome.into_reports().unwrap_or_default();
        assert_eq!(batch.len(), scenarios.len());
        for (i, (got, want)) in batch.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.ylt, want.ylt,
                "batch slot {i} diverged on {threads} threads"
            );
            assert_eq!(got.measures, want.measures);
        }
    }
    Ok(())
}

#[test]
fn run_batch_keeps_input_order() -> RiskResult<()> {
    let session = RiskSession::builder().pool_threads(4).build()?;
    let scenarios: Vec<ScenarioConfig> = (0..6)
        .map(|i| ScenarioConfig::small().with_seed(100 + i).with_trials(200))
        .collect();
    let outcome = session.sweep(&scenarios).collect().drive()?;
    let reports = outcome.into_reports().unwrap_or_default();
    assert_eq!(reports.len(), scenarios.len());
    for (s, r) in scenarios.iter().zip(&reports) {
        // Names match slot-for-slot, and each slot equals its own
        // solo run.
        assert_eq!(r.scenario_name, s.name);
        assert_eq!(session.run(s)?.ylt, r.ylt);
        // The collecting sweep's memory contract: retained reports
        // drop the shared sorted columns.
        assert!(r.agg_sorted.is_empty() && r.occ_sorted.is_empty());
    }
    Ok(())
}

#[test]
fn one_session_serves_many_scenarios_and_stores_stay_isolated() -> RiskResult<()> {
    let dir = temp("iso");
    let session = RiskSession::builder()
        .store(Arc::new(ShardedFilesStore::new(&dir, 2)?))
        .pool_threads(2)
        .build()?;
    let scenarios = [scenario(31), scenario(32)];
    let outcome = session.sweep(&scenarios).collect().drive()?;
    let reports = outcome.into_reports().unwrap_or_default();
    // Distinct seeds → distinct YLTs, each slot's spill readable on its
    // own.
    assert_ne!(reports[0].ylt, reports[1].ylt);
    for (i, r) in reports.iter().enumerate() {
        let reader = riskpipe::tables::ShardedReader::open(dir.join(format!("batch-{i:03}")))?;
        assert_eq!(reader.rows() as usize, r.yelt_rows);
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
