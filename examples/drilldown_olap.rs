//! Stage-3 drill-down OLAP: a scenario sweep streamed through a
//! `WarehouseSink` into a queryable sketch-valued warehouse.
//!
//! ```text
//! cargo run --release --example drilldown_olap
//! ```
//!
//! The paper's stage-3 workload is drill-down over trial data — by
//! peril, region, layer, return-period band — that conventional
//! portfolio tools cannot rescan per question. This example runs the
//! full subsystem end to end:
//!
//! 1. **one declared plan, three consumers**: a 2-region × 2-peril ×
//!    3-attachment sweep runs **once** through
//!    `session.sweep(..).summary().persist_to(store).warehouse(layout)
//!    .materialize_budget(..).drive()` — pooled analytics, durable
//!    per-report artifacts, and a warehouse from a single streaming
//!    pass. The warehouse ingest scans what the report already
//!    carries: its sorted aggregate-loss column is cut at the
//!    return-period band boundaries and each slice folds into a
//!    sketch-valued cell;
//! 2. **budgeted materialisation**: HRU greedy view selection under a
//!    byte budget picks which cuboids to pre-compute (a plan knob);
//! 3. **three query shapes** — rollup, slice, dice with a
//!    return-period-band filter — each answering VaR99/TVaR99 per cell
//!    from the sketches, never from a fact rescan;
//! 4. **rebuild from the spill**: the same warehouse is reconstructed
//!    from the plan's own persisted artifacts and the drill-down cells
//!    match the live sink bit for bit (pinned in tests/drilldown.rs
//!    across 1/2/8 threads too; the session oracle, tests/oracle/mod.rs,
//!    checks the live base cells of every drawn `.warehouse` plan, and
//!    the pipeline goldens are in tests/golden_metrics.rs).

use riskpipe::core::money;
use riskpipe::prelude::*;
use riskpipe::warehouse::dim;
use std::sync::Arc;

/// The sweep grid: one scenario per (region, peril, attachment point).
fn grid() -> (Vec<ScenarioConfig>, Vec<ScenarioDims>) {
    let mut scenarios = Vec::new();
    let mut dims = Vec::new();
    for region in 0..2u32 {
        for peril in 0..2u32 {
            for attach in 0..3u32 {
                let factor = 0.25 + 0.25 * attach as f64;
                let scenario = ScenarioConfig::small()
                    .with_seed(0xD1 + (region * 2 + peril) as u64)
                    .with_trials(500)
                    .with_attachment_factor(factor)
                    .with_name(format!("r{region}-p{peril}-a{factor:.2}"));
                dims.push(ScenarioDims::for_scenario(region, peril, &scenario));
                scenarios.push(scenario);
            }
        }
    }
    (scenarios, dims)
}

fn print_rows(label: &str, rows: &[SketchRow<'_>], cost: &riskpipe::warehouse::QueryCost) {
    println!(
        "\n{label} (source {:?}, {} cells read):",
        cost.source, cost.cells_read
    );
    println!(
        "  {:<24} {:>8} {:>18} {:>18}",
        "cell (geo,event,contract,time)", "count", "VaR99", "TVaR99"
    );
    for row in rows {
        println!(
            "  {:<24} {:>8} {:>18} {:>18}",
            format!("{:?}", row.codes),
            row.cell.count,
            money(row.cell.var99().unwrap_or(f64::NAN)),
            money(row.cell.tvar99().unwrap_or(f64::NAN)),
        );
    }
}

fn main() -> RiskResult<()> {
    let (scenarios, dims) = grid();
    let session = RiskSession::builder()
        .engine(EngineKind::CpuParallel)
        .build()?;
    let layout = DrilldownLayout::new(dims, session.engine())?;
    println!(
        "sweep: {} scenarios over schema {}",
        scenarios.len(),
        LevelSelect::BASE.describe(layout.schema())
    );

    // ---- 1. one plan: sweep → summary + spill + warehouse ---------
    let spill = std::env::temp_dir().join("riskpipe-drilldown-example");
    let _ = std::fs::remove_dir_all(&spill);
    let store = Arc::new(riskpipe::core::ShardedFilesStore::new(&spill, 2)?);
    let outcome = session
        .sweep(&scenarios)
        .summary()
        .persist_to(store.clone())
        .warehouse(layout.clone())
        .materialize_budget(256 * 1024)
        .drive()?;
    println!(
        "one pass: pooled TVaR99 {} over {} trials, {} reports persisted",
        outcome
            .summary()
            .unwrap()
            .pooled_tvar99()
            .unwrap_or(f64::NAN),
        outcome.summary().unwrap().trials(),
        outcome.persisted().unwrap().reports(),
    );
    let selection = outcome.selection().expect("budget was requested").clone();
    let wh = outcome.into_drilldown();
    let ingest = wh.ingest_stats();
    println!(
        "ingested {} reports / {} trials as rank-interval slices of each sorted loss column",
        ingest.reports, ingest.trials
    );

    // ---- 2. budgeted view materialisation (plan knob) -------------
    println!(
        "materialised {} views under a 256 KiB budget (lattice cost {} → {} bytes-read):",
        selection.picked.len(),
        selection.cost_before,
        selection.cost_after
    );
    for (view, benefit) in selection.picked.iter().zip(&selection.benefits) {
        println!(
            "  {:<40} benefit {:>12}",
            view.describe(wh.schema()),
            benefit
        );
    }
    println!("warehouse footprint: {} bytes", wh.memory_bytes());

    // ---- 3. three query shapes ------------------------------------
    // Rollup: pooled loss distribution per region × peril (layers and
    // bands rolled away).
    let rollup = Query::group_by(LevelSelect([0, 0, 3, 1]));
    let (rows, cost) = wh.answer(&rollup)?;
    print_rows("rollup — region × peril", &rows, &cost);

    // Slice: region 1 only, per peril × attachment band.
    let slice = Query::group_by(LevelSelect([0, 0, 1, 1])).filter(Filter::slice(dim::GEO, 1));
    let (rows, cost) = wh.answer(&slice)?;
    print_rows("slice — region 1, peril × attachment band", &rows, &cost);

    // Dice: tail only — the ≥100-year return-period bands, per region
    // × peril.
    let dice = Query::group_by(LevelSelect([0, 0, 3, 0])).filter(Filter {
        dim: dim::TIME,
        codes: vec![6, 7],
    });
    let (rows, cost) = wh.answer(&dice)?;
    print_rows("dice — ≥100y bands, region × peril", &rows, &cost);

    // ---- 4. rebuild from the persisted spill ----------------------
    // The plan already persisted every report (run 0) while the
    // warehouse was being built from the same pass — so the overnight
    // rebuild needs no second sweep at all.
    let rebuilt = session.analytics(layout).rebuild_from_store(&store, 0)?;
    let (live, _) = wh.answer(&rollup)?;
    let (reloaded, _) = rebuilt.answer(&rollup)?;
    let identical = live.len() == reloaded.len()
        && live.iter().zip(&reloaded).all(|(a, b)| {
            a.codes == b.codes
                && a.cell.count == b.cell.count
                && a.cell.var99().map(f64::to_bits) == b.cell.var99().map(f64::to_bits)
                && a.cell.tvar99().map(f64::to_bits) == b.cell.tvar99().map(f64::to_bits)
        });
    println!(
        "\nrebuild from the plan's persisted spill: drill-down cells bit-identical to live sink: {}",
        identical
    );
    assert!(identical, "rebuild must match the live sink bit for bit");
    store.clear_runs()?;
    std::fs::remove_dir_all(&spill).ok();
    Ok(())
}
