//! Streaming scenario sweep: price one book at many attachment points
//! without materialising a report per scenario — and consume the one
//! sweep from several sinks at once.
//!
//! ```text
//! cargo run --release --example scenario_sweep
//! ```
//!
//! Demonstrates the sweeps story end to end:
//!
//! * the declarative `SweepPlan`: `session.sweep(&sweep).summary()
//!   .persist_to(store).drive()` runs the scenarios **once** through
//!   the streaming core (input-order delivery, O(pool width) peak
//!   memory) and fans every report out to all requested consumers —
//!   pooled analytics *and* durable per-report artifacts from a single
//!   pass, each bit-identical to what it would get as the only sink;
//! * the stage-1 cache: every scenario here shares one catalogue
//!   fingerprint (only the attachment factor varies), so the expensive
//!   model run — catalogue, ELTs, YET — happens once and the hit/miss
//!   counters prove it;
//! * pooled sweep analytics: `SweepSummary` folds every trial of every
//!   scenario into mergeable quantile sketches — pooled AEP/OEP
//!   points, VaR99/TVaR99, PML, and OEP-conditional tail means per
//!   return-period band — without retaining a single per-scenario YLT;
//! * the raw sink layer beneath the plan (`run_stream` with a closure)
//!   and the lazy iterator adapter (`stream`).

use riskpipe::prelude::*;
use std::sync::Arc;

fn main() -> RiskResult<()> {
    let session = Arc::new(
        RiskSession::builder()
            .engine(EngineKind::CpuParallel)
            .build()?,
    );
    println!(
        "session: {:?} engine, {} threads, {} store",
        session.engine(),
        session.pool().thread_count(),
        session.store_name()
    );

    // A pricing sweep: one catalogue seed, twelve attachment points.
    let sweep: Vec<ScenarioConfig> = (0..12)
        .map(|i| {
            ScenarioConfig::small()
                .with_seed(2026)
                .with_name(format!("attach-{:.2}", 0.25 + 0.15 * i as f64))
                .with_attachment_factor(0.25 + 0.15 * i as f64)
        })
        .collect();

    // One declared plan, two consumers, one streaming pass: pooled
    // analytics plus durable per-report artifacts. Each report's YLT
    // is materialised once and shared by reference across the sinks.
    let spill = std::env::temp_dir().join("riskpipe-sweep-example");
    let _ = std::fs::remove_dir_all(&spill);
    let store = Arc::new(riskpipe::core::ShardedFilesStore::new(&spill, 2)?);
    println!(
        "\ndriving one plan: summary + persistence over {} scenarios",
        sweep.len()
    );
    let outcome = session
        .sweep(&sweep)
        .summary()
        .persist_to(store.clone())
        .drive()?;

    let summary = outcome.summary().expect("summary was requested");
    println!("\n{summary}");

    // The summary pooled every trial of every scenario while the
    // reports dropped: full cross-sweep EP analytics, O(sketch) memory.
    println!(
        "pooled AEP curve over {} trials ({}):",
        summary.trials(),
        if summary.analytics_exact() {
            "exact".to_string()
        } else {
            format!("sketched, rank err <= {:.4}", summary.rank_error_bound())
        }
    );
    for p in summary.aep_points() {
        println!(
            "  {:>5.0}y (p={:<6.4})  loss {:>16.0}",
            p.return_period, p.probability, p.loss
        );
    }

    // OEP-conditional tail means per return-period band, straight off
    // the pooled OEP sketch: "what does a 25-to-100-year occurrence
    // year cost on average?"
    println!("\npooled OEP tail means by return-period band:");
    for (lo, hi) in [(5.0, 25.0), (25.0, 100.0), (100.0, f64::INFINITY)] {
        if let Some(mean) = summary.tail_mean_between(lo, hi) {
            let band = if hi.is_finite() {
                format!("{lo:>3.0}y..{hi:<3.0}y")
            } else {
                format!("{lo:>3.0}y..    ")
            };
            println!("  {band}  mean occurrence loss {:>16.0}", mean);
        }
    }

    let persisted = outcome.persisted().expect("persistence was requested");
    println!(
        "\npersisted run {}: {} reports, {} bytes under {}",
        persisted.run(),
        persisted.reports(),
        persisted.bytes(),
        spill.display()
    );
    store.clear_runs()?;
    std::fs::remove_dir_all(&spill).ok();

    let stats = session.stage1_cache_stats();
    println!(
        "stage-1 cache: {} miss(es), {} hit(s) — the catalogue, ELTs and \
         YET were built {} time(s) for {} scenarios",
        stats.misses,
        stats.hits,
        stats.misses,
        sweep.len()
    );

    // The raw sink layer the plan drives: a closure over run_stream.
    println!("\nraw run_stream (callback form), first four:");
    session.run_stream(&sweep[..4], |i, report: PipelineReport| {
        println!(
            "  [{i:>2}] {:<12} TVaR99 {:>16.0}",
            report.scenario_name, report.measures.tvar99,
        );
        Ok(())
    })?;

    // Iterator form: same sweep, consumed lazily; dropping the iterator
    // early would cancel the remainder.
    println!("\niterator form, first three only:");
    for report in session.stream(sweep).take(3) {
        let report = report?;
        println!(
            "  {:<12} mean {:>16.0}",
            report.scenario_name, report.measures.mean
        );
    }
    Ok(())
}
