//! # riskpipe-bench
//!
//! The experiment harness: shared fixtures for the two binaries in
//! `src/bin/`, and the modules only one experiment uses. `report
//! <id>...` regenerates the paper's quantitative claims as tables
//! (E1–E10 plus the ablation; each report function's doc names its
//! claim, and `report all` writes every one to `reports/<id>.txt`).
//! `perf_gate` holds the sweep shapes E11–E13 (and riskbench's
//! `cold_models` / `deep_trials`) to wall-clock budgets and pinned
//! counters. Per-PR timing of those shapes is riskbench's job
//! (`riskbench/`), not this crate's.
//!
//! The single-experiment modules:
//!
//! * [`elastic`] — E6's processor-burst arithmetic over measured
//!   stage throughputs;
//! * [`bootstrap`] and [`convergence`] — E7's bootstrap confidence
//!   intervals and trial-count convergence study.
//!
//! The experiment crates (`riskpipe-db`, `-cloud`, `-mapreduce`,
//! `-simgpu`) are this crate's dependencies, not the `riskpipe`
//! umbrella's.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod convergence;
pub mod elastic;

use riskpipe_aggregate::{LayerTerms, Portfolio};
use riskpipe_catmodel::{
    simulate_yet, CatalogConfig, EltGenConfig, EventCatalog, ExposureConfig, ExposurePortfolio,
    GroundUpModel, YetConfig,
};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::yet::YearEventTable;
use riskpipe_types::RiskResult;
use std::sync::Arc;

/// Fixture sizes shared across experiments.
#[derive(Debug, Clone, Copy)]
pub struct FixtureSize {
    /// Catalogue events.
    pub events: usize,
    /// Locations per contract.
    pub locations: usize,
    /// Number of portfolio layers.
    pub layers: usize,
    /// Simulation trials.
    pub trials: usize,
    /// Expected occurrences per year.
    pub annual_rate: f64,
}

impl FixtureSize {
    /// The default benchmark fixture (seconds-scale per engine run).
    pub fn standard() -> Self {
        Self {
            events: 10_000,
            locations: 400,
            layers: 16,
            trials: 50_000,
            annual_rate: 80.0,
        }
    }

    /// A smaller fixture for the quick reports.
    pub fn small() -> Self {
        Self {
            events: 2_000,
            locations: 100,
            layers: 4,
            trials: 5_000,
            annual_rate: 20.0,
        }
    }
}

/// An attachment-factor pricing sweep over one stage-1 key: only the
/// name and the attachment vary across points, so the whole sweep
/// shares a single cached stage-1 model run. One definition serves
/// every same-key sweep check of the nightly `perf_gate`.
pub fn pricing_sweep(
    base: riskpipe_core::ScenarioConfig,
    points: usize,
) -> Vec<riskpipe_core::ScenarioConfig> {
    (0..points)
        .map(|i| {
            base.clone()
                .with_name(format!("attach-{i}"))
                .with_attachment_factor(0.25 + 0.2 * i as f64)
        })
        .collect()
}

/// The model-heavy sweep base of the perf gate's E11/E12 shapes: big
/// catalogue × exposure, modest trials — the production shape where
/// the per-scenario cost a stage-1 cache can remove is the event-loss
/// model run, not the Monte-Carlo pass.
pub fn model_heavy_small(seed: u64, trials: usize) -> riskpipe_core::ScenarioConfig {
    let mut s = riskpipe_core::ScenarioConfig::small()
        .with_seed(seed)
        .with_trials(trials);
    s.events = 4_000;
    s.locations_per_contract = 400;
    s
}

/// A ready-to-run aggregate-analysis fixture.
pub struct AggregateFixture {
    /// The portfolio (one ELT per layer, same catalogue).
    pub portfolio: Portfolio,
    /// The pre-simulated YET.
    pub yet: Arc<YearEventTable>,
}

/// Build a deterministic aggregate-analysis fixture.
pub fn build_fixture(
    size: FixtureSize,
    seed: u64,
    pool: &ThreadPool,
) -> RiskResult<AggregateFixture> {
    let catalog = EventCatalog::generate(&CatalogConfig {
        events: size.events,
        total_annual_rate: size.annual_rate,
        seed: seed ^ 0xCA7,
        ..CatalogConfig::default()
    })?;
    // One exposure book per layer → distinct ELTs with realistic overlap
    // (same catalogue, different books).
    let mut parts = Vec::with_capacity(size.layers);
    for l in 0..size.layers {
        let exposure = ExposurePortfolio::generate(&ExposureConfig {
            locations: size.locations,
            seed: seed ^ (0xB00C + l as u64 * 7919),
            ..ExposureConfig::default()
        })?;
        let model = GroundUpModel::new(&catalog, &exposure, EltGenConfig::default());
        let elt = Arc::new(model.generate_elt(pool)?);
        let mean_event = elt.total_mean_loss() / elt.len().max(1) as f64;
        parts.push((LayerTerms::xl(0.5 * mean_event, 50.0 * mean_event), elt));
    }
    let portfolio = Portfolio::from_parts(parts)?;
    let yet = simulate_yet(
        &catalog,
        &YetConfig {
            trials: size.trials,
            seed: seed ^ 0x7E7,
        },
        pool,
    )?;
    Ok(AggregateFixture {
        portfolio,
        yet: Arc::new(yet),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_at_small_size() {
        let pool = ThreadPool::new(2);
        let f = build_fixture(FixtureSize::small(), 1, &pool).unwrap();
        assert_eq!(f.portfolio.len(), 4);
        assert_eq!(f.yet.trials(), 5_000);
        assert!(f.portfolio.total_elt_rows() > 0);
    }
}
