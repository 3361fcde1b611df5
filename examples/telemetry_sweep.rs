//! Telemetry-enabled sweep: drive one declarative plan with the flight
//! recorder on, then read where the wall-clock went — per-stage spans,
//! deterministic pipeline counters, and exportable trace files.
//!
//! ```text
//! cargo run --release --example telemetry_sweep
//! ```
//!
//! Demonstrates the observability story end to end:
//!
//! * `RiskSessionBuilder::telemetry(..)` arms a [`Telemetry`] handle;
//!   every layer the sweep touches then records spans (stage-1 builds,
//!   stage-2 engine runs, sink deliveries, warehouse ingests,
//!   durable fsyncs) and bumps deterministic counters;
//! * `SweepOutcome::telemetry()` returns the stitched snapshot — span
//!   timings are diagnostic-only, while the metrics half is
//!   bit-identical on any thread count;
//! * the snapshot exports as pinned-schema JSON and as a
//!   chrome://tracing file — open the latter at `chrome://tracing` or
//!   <https://ui.perfetto.dev> for the flame view.

use riskpipe::analytics::{DrilldownLayout, ScenarioDims, SweepPlanAnalytics};
use riskpipe::prelude::*;
use std::sync::Arc;

fn main() -> RiskResult<()> {
    let telemetry = Telemetry::new();
    let session = RiskSession::builder()
        .engine(EngineKind::CpuParallel)
        .telemetry(telemetry.clone())
        .build()?;
    println!(
        "session: {:?} engine, {} threads, flight recorder armed",
        session.engine(),
        session.pool().thread_count(),
    );

    // A 2-region × 3-peril grid so the warehouse has dimensions to
    // drill into and stage 1 builds six distinct catalogues.
    let mut scenarios = Vec::new();
    let mut dims = Vec::new();
    for region in 0..2u32 {
        for peril in 0..3u32 {
            let s = ScenarioConfig::small()
                .with_seed(2026 + (region * 3 + peril) as u64)
                .with_trials(1_000)
                .with_name(format!("r{region}-p{peril}"));
            dims.push(ScenarioDims::for_scenario(region, peril, &s));
            scenarios.push(s);
        }
    }

    // One plan, three consumers, recorder on: pooled analytics, durable
    // artifacts, and a drill-down warehouse from a single pass.
    let spill = std::env::temp_dir().join("riskpipe-telemetry-example");
    let _ = std::fs::remove_dir_all(&spill);
    let store = Arc::new(riskpipe::core::ShardedFilesStore::new(&spill, 2)?);
    let layout = DrilldownLayout::new(dims, session.engine())?;
    let outcome = session
        .sweep(&scenarios)
        .summary()
        .persist_to(store)
        .warehouse(layout)
        .drive()?;
    println!(
        "drove {} scenarios; pooled TVaR99 {:.0}\n",
        outcome.delivered(),
        outcome
            .summary()
            .expect("requested")
            .pooled_tvar99()
            .unwrap_or(0.0),
    );

    let snap = outcome.telemetry().expect("session has telemetry");

    // --- the flame view, folded to per-stage totals ---------------
    println!(
        "span totals ({} spans, {} dropped):",
        snap.spans().len(),
        snap.dropped()
    );
    let mut totals: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
    for s in snap.spans() {
        let e = totals.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns;
    }
    for (name, (count, ns)) in &totals {
        println!("  {name:<22} ×{count:<4} {:>10.3} ms", *ns as f64 / 1e6);
    }

    // --- the deterministic half ------------------------------------
    let m = snap.metrics();
    println!("\npipeline counters (bit-identical on any thread count):");
    for (name, value) in &m.counters {
        println!("  {name:<22} {value}");
    }
    for (name, h) in &m.histograms {
        println!(
            "  {name:<22} total {} sum {} counts {:?}",
            h.total, h.sum, h.counts
        );
    }

    // --- exports ---------------------------------------------------
    let out_dir = std::env::temp_dir().join("riskpipe-telemetry-out");
    std::fs::create_dir_all(&out_dir)?;
    let json_path = out_dir.join("telemetry.json");
    let trace_path = out_dir.join("trace.json");
    #[expect(
        clippy::disallowed_methods,
        reason = "demo output, rewritten by every run"
    )]
    {
        std::fs::write(&json_path, snap.to_json())?;
        std::fs::write(&trace_path, snap.to_chrome_trace())?;
    }
    println!(
        "\nwrote {} (schema v{}) and {} — load the trace at chrome://tracing",
        json_path.display(),
        riskpipe::obs::JSON_SCHEMA_VERSION,
        trace_path.display()
    );

    std::fs::remove_dir_all(&spill).ok();
    Ok(())
}
