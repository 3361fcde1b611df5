//! # riskpipe-analytics
//!
//! The stage-3 drill-down subsystem: **sweep → sorted column →
//! warehouse**, queryable from [`RiskSession`](riskpipe_core::RiskSession).
//!
//! The paper's central data challenge is not producing YLTs but
//! *consuming* them: fine-grained drill-down — by peril, region,
//! layer, return-period band — over trial data far too large to
//! rescan per question. Its stage-3 prescription is to scan flat,
//! pre-organised tables, and this crate wires the pipeline's substrate
//! (`riskpipe-core`'s reports, `riskpipe-warehouse`'s cuboid lattice)
//! into the execution core as three layers:
//!
//! * **ingest** ([`ingest`]) — [`WarehouseSink`] consumes a streaming
//!   sweep report-by-report: **sort once → slice → fold**. The report
//!   already carries its aggregate-loss column sorted ascending; a
//!   return-period band is a rank interval of that column
//!   ([`band_bounds`]), so each band's slice folds straight into its
//!   sketch-valued base cell. No spill, no shuffle, no pool. Cubes
//!   alongside durable per-report artifacts are one plan,
//!   `.persist().warehouse(layout)`, or a `FanoutSink` of a
//!   `PersistingSink` and a `WarehouseSink`.
//!   (`riskpipe_mapreduce::YltFactJob`, the
//!   shuffle formulation of the same grouping, remains as the
//!   MapReduce experiment and as the reference `tests/drilldown.rs`
//!   compares this path against.)
//! * **build** ([`drilldown`]) — cuboid materialisation over the
//!   lattice under a *byte* budget
//!   ([`Drilldown::materialize_budget`], HRU benefit-per-byte with
//!   measured sizes); cells carry mergeable
//!   [`QuantileSketch`](riskpipe_metrics::QuantileSketch)es, so every
//!   drill-down cell answers VaR99/TVaR99/EP points deterministically
//!   on any thread count.
//! * **query** ([`plan`] / [`session_ext`]) —
//!   `session.sweep(scenarios).warehouse(layout).drive()` runs a
//!   declarative [`SweepPlan`](riskpipe_core::SweepPlan) straight into
//!   a queryable [`Drilldown`] (slice/dice/rollup via
//!   [`riskpipe_warehouse::Query`]), sharing the single streaming pass
//!   with the plan's other consumers (pooled analytics, persistence);
//!   `session.analytics(layout)` remains the handle for
//!   rebuilding bit-identical views from a prior run's
//!   `ShardedFilesStore` spill instead of re-running the sweep.
//!
//! ## Quickstart
//!
//! ```no_run
//! use riskpipe_analytics::{DrilldownLayout, ScenarioDims, SweepPlanAnalytics};
//! use riskpipe_core::{RiskSession, ScenarioConfig};
//! use riskpipe_warehouse::{dim, Filter, LevelSelect, Query};
//!
//! // A 2-region × 2-peril sweep, one scenario per book.
//! let mut scenarios = Vec::new();
//! let mut dims = Vec::new();
//! for region in 0..2u32 {
//!     for peril in 0..2u32 {
//!         let s = ScenarioConfig::small()
//!             .with_seed(0xD1 + (region * 2 + peril) as u64)
//!             .with_name(format!("r{region}-p{peril}"));
//!         dims.push(ScenarioDims::for_scenario(region, peril, &s));
//!         scenarios.push(s);
//!     }
//! }
//! let session = RiskSession::builder().pool_threads(2).build()?;
//! let layout = DrilldownLayout::new(dims, session.engine())?;
//! let mut wh = session
//!     .sweep(&scenarios)
//!     .warehouse(layout)
//!     .drive()?
//!     .into_drilldown();
//! wh.materialize_budget(1 << 20)?;
//!
//! // Loss sketch per region × peril, diced to the ≥100-year bands.
//! let q = Query::group_by(LevelSelect([0, 0, 2, 0])).filter(Filter {
//!     dim: dim::TIME,
//!     codes: vec![6, 7],
//! });
//! let (rows, cost) = wh.answer(&q)?;
//! for row in rows {
//!     println!("{:?} tail VaR99 {:?}", row.codes, row.cell.var99());
//! }
//! assert_eq!(cost.facts_read, 0);
//! # Ok::<(), riskpipe_types::RiskError>(())
//! ```

#![warn(missing_docs)]
// W1: serving-path library code returns typed errors; a panic aborts a sweep.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod dims;
pub mod drilldown;
pub mod ingest;
pub mod plan;
pub mod session_ext;

pub use dims::{
    attachment_band, band_of_return_period, engine_code, DrilldownLayout, ScenarioDims,
    RETURN_PERIOD_BANDS, RETURN_PERIOD_BAND_EDGES,
};
pub use drilldown::Drilldown;
pub use ingest::{IngestStats, WarehouseSink};
pub use plan::{SweepPlanAnalytics, WarehouseOutcome, WarehousePlan};
pub use session_ext::{AnalyticsHandle, SessionAnalytics};

/// Where an `n`-trial report's return-period bands fall in its
/// ascending sorted loss column: sorted positions
/// `bounds[b]..bounds[b + 1]` are band `b` (an empty range when the
/// report has too few trials to reach the band). The trial at sorted
/// position `pos` has 1-based rank `n - pos` from the top, empirical
/// return period `n / (n - pos)`, and lands in
/// [`band_of_return_period`]'s band — a function of `n` and `pos`
/// alone, so the boundaries need no loss values.
///
/// **Why slicing is enough (the tie argument).** A band is a *rank
/// interval*, so band `b`'s ascending loss column is
/// `sorted[bounds[b]..bounds[b + 1]]`, whoever its members are. Which
/// *trial* sits on which side of a boundary is a tie-break question
/// ([`rp_bands`] breaks ties by trial index), but trials that tie
/// compare `Equal` under `total_cmp`, which means they carry the same
/// bits — so every valid tie-break produces the same sorted column,
/// and anything folded from it (count, sum in sorted order, max,
/// sketch) is bit-identical to grouping the trials by [`rp_bands`] and
/// sorting each group, which is what the `YltFactJob` shuffle does.
///
/// IEEE division is monotone in its divisor, so the band never
/// decreases with `pos` and each boundary is found by bisection over
/// the same float expression every position would evaluate.
pub fn band_bounds(n: usize) -> [usize; RETURN_PERIOD_BANDS as usize + 1] {
    let band_at = |pos: usize| band_of_return_period(n as f64 / (n - pos) as f64);
    let mut bounds = [n; RETURN_PERIOD_BANDS as usize + 1];
    bounds[0] = 0;
    for band in 1..RETURN_PERIOD_BANDS {
        // First position at or past the previous boundary whose band
        // is >= `band`.
        let (mut lo, mut hi) = (bounds[band as usize - 1], n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if band_at(mid) < band {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        bounds[band as usize] = lo;
    }
    bounds
}

/// Assign every trial its return-period band from the loss rank: the
/// trial whose aggregate loss has 1-based rank `r` from the top (ties
/// broken by trial index, so the assignment is total and
/// deterministic) has empirical return period `n / r` and lands in
/// [`band_of_return_period`]'s band. The lowest-loss trial is band 0;
/// a 500-trial report's single worst year reaches the top (≥250y)
/// band. The rank intervals are [`band_bounds`]' — the per-trial and
/// the per-slice view of the banding cannot disagree at an edge.
pub fn rp_bands(agg_losses: &[f64]) -> Vec<u32> {
    let n = agg_losses.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        agg_losses[a as usize]
            .total_cmp(&agg_losses[b as usize])
            .then(a.cmp(&b))
    });
    let bounds = band_bounds(n);
    let mut bands = vec![0u32; n];
    for (band, range) in bounds.windows(2).enumerate() {
        for &t in &order[range[0]..range[1]] {
            bands[t as usize] = band as u32;
        }
    }
    bands
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rp_bands_follow_rank_order() {
        // 500 ascending losses: trial i has rank-from-top 500 - i.
        let losses: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let bands = rp_bands(&losses);
        assert_eq!(bands[0], 0); // rp = 1
        assert_eq!(bands[499], 7); // rp = 500 ≥ 250
        assert_eq!(bands[499 - 4], 6); // rank 5 → rp 100
                                       // Monotone non-decreasing in loss order.
        assert!(bands.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn rp_bands_break_ties_by_trial() {
        // All-equal losses: ranks are assigned by trial index, so the
        // assignment is deterministic and bands are monotone in trial.
        let losses = vec![5.0; 100];
        let a = rp_bands(&losses);
        let b = rp_bands(&losses);
        assert_eq!(a, b);
        assert_eq!(a[0], 0);
        assert_eq!(a[99], band_of_return_period(100.0));
    }

    #[test]
    fn rp_bands_empty() {
        assert!(rp_bands(&[]).is_empty());
        assert_eq!(band_bounds(0), [0; RETURN_PERIOD_BANDS as usize + 1]);
    }

    #[test]
    fn band_bounds_match_the_per_position_expression() {
        // Every n up to a few hundred plus the counts whose return
        // periods land exactly on band edges: the bisected boundaries
        // must agree with evaluating the band at every position.
        for n in (1..=300).chain([500, 1000, 1999, 2000, 10_000]) {
            let bounds = band_bounds(n);
            assert_eq!((bounds[0], bounds[RETURN_PERIOD_BANDS as usize]), (0, n));
            for (band, range) in bounds.windows(2).enumerate() {
                for pos in range[0]..range[1] {
                    let direct = band_of_return_period(n as f64 / (n - pos) as f64);
                    assert_eq!(direct, band as u32, "n = {n}, pos = {pos}");
                }
            }
        }
    }
}
