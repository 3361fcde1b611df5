//! The compacting drill-down fixture: riskbench's `rebuild_query` grid
//! in miniature, 2 regions × 2 perils × 3 attachment points, one
//! 20 000-trial loss column per slot, at the default `sketch_k`. Its
//! base cells compact, so it can see how a sketch compacts, how a query
//! pools compacted cells and what view sizing holds. Shared by
//! `tests/drilldown.rs` (the pins) and `tests/view_sizing_heap.rs`.

use riskpipe::prelude::*;
use riskpipe_types::TrialId;

/// Trials per slot of the compacting fixture: the rp < 2y band alone
/// holds half of them, ten times the default `sketch_k`.
const COMPACTING_TRIALS: usize = 20_000;

/// Slot `slot`'s loss column: heavy-tailed, with duplicate plateaus and
/// — the higher the attachment — a growing mass of zero-loss years.
/// Integer arithmetic plus exactly rounded `*` / `-` only, so the bits
/// are the same on every platform.
fn compacting_column(slot: usize, attach: u32) -> Vec<f64> {
    (0..COMPACTING_TRIALS)
        .map(|i| {
            let x = ((i * 104_729 + slot * 7_919) % 99_991) as f64;
            let ground_up = (x * x * x * 1e-6).floor() * (1.0 + slot as f64);
            (ground_up - 2.0e7 * attach as f64).max(0.0)
        })
        .collect()
}

/// The fixture's layout, on the default engine and `sketch_k`.
pub fn compacting_layout() -> DrilldownLayout {
    let mut dims = Vec::new();
    for region in 0..2u32 {
        for peril in 0..2u32 {
            for attachment_band in 0..3u32 {
                dims.push(ScenarioDims {
                    region,
                    peril,
                    attachment_band,
                });
            }
        }
    }
    let layout = DrilldownLayout::new(dims, EngineKind::CpuParallel).unwrap();
    assert_eq!(layout.sketch_k(), DrilldownLayout::DEFAULT_SKETCH_K);
    layout
}

/// Every slot's YLT, in slot order.
pub fn compacting_ylts(layout: &DrilldownLayout) -> Vec<Ylt> {
    layout
        .dims()
        .iter()
        .enumerate()
        .map(|(slot, d)| ylt_of(&compacting_column(slot, d.attachment_band)))
        .collect()
}

/// A YLT whose aggregate column is `losses` (occurrence losses halved,
/// one event per trial).
pub fn ylt_of(losses: &[f64]) -> Ylt {
    let mut ylt = Ylt::zeroed(losses.len());
    for (t, &x) in losses.iter().enumerate() {
        ylt.set_trial(TrialId::new(t as u32), x, x / 2.0, 1);
    }
    ylt
}
