//! Exceedance-probability curves and probable maximum loss.
//!
//! An EP curve maps a loss threshold to the annual probability of
//! exceeding it. The **AEP** curve uses each trial's aggregate annual
//! loss; the **OEP** curve uses each trial's maximum single-occurrence
//! loss. PML at return period `T` is the loss with exceedance
//! probability `1/T` — the `1 − 1/T` quantile of the relevant empirical
//! distribution.

use riskpipe_tables::Ylt;
use riskpipe_types::stats::{quantile_sorted, sort_f64};

/// The standard reporting return periods (years) EP tables are sampled
/// at.
pub const STANDARD_RETURN_PERIODS: [f64; 8] = [2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0];

/// Sample [`EpPoint`]s at every standard return period `trials` can
/// resolve, pulling losses from any quantile function — an exact
/// sorted sample ([`EpCurve::standard_points`]) or a streaming sketch
/// pooled across a sweep
/// ([`QuantileSketch::quantile`](crate::QuantileSketch::quantile)).
pub fn standard_points_from(trials: u64, mut loss_at_q: impl FnMut(f64) -> f64) -> Vec<EpPoint> {
    standard_points_from_batch(trials, |qs| qs.iter().map(|&q| loss_at_q(q)).collect())
}

/// Batched variant of [`standard_points_from`]: the source receives
/// every quantile level in one call, for sources where a batch query
/// amortises setup — a sketch's
/// [`quantiles`](crate::QuantileSketch::quantiles) gathers and sorts
/// its retained items once instead of once per point. Not called at
/// all when `trials` resolves no standard return period.
pub fn standard_points_from_batch(
    trials: u64,
    batch_loss_at_q: impl FnOnce(&[f64]) -> Vec<f64>,
) -> Vec<EpPoint> {
    let rps: Vec<f64> = STANDARD_RETURN_PERIODS
        .iter()
        .copied()
        .filter(|&rp| rp <= trials as f64)
        .collect();
    if rps.is_empty() {
        return Vec::new();
    }
    let qs: Vec<f64> = rps.iter().map(|&rp| 1.0 - 1.0 / rp).collect();
    let losses = batch_loss_at_q(&qs);
    assert_eq!(
        losses.len(),
        qs.len(),
        "batch source must answer every level"
    );
    rps.into_iter()
        .zip(losses)
        .map(|(rp, loss)| EpPoint {
            return_period: rp,
            probability: 1.0 / rp,
            loss,
        })
        .collect()
}

/// Which loss perspective a curve is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpKind {
    /// Aggregate exceedance probability (annual aggregate losses).
    Aep,
    /// Occurrence exceedance probability (maximum occurrence losses).
    Oep,
}

/// One point of an EP curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpPoint {
    /// Return period in years.
    pub return_period: f64,
    /// Exceedance probability (= 1 / return period).
    pub probability: f64,
    /// Loss at that return period.
    pub loss: f64,
}

/// An empirical exceedance-probability curve.
#[derive(Debug, Clone)]
pub struct EpCurve {
    kind: EpKind,
    /// Losses sorted ascending.
    sorted: Vec<f64>,
}

impl EpCurve {
    /// Build the aggregate (AEP) curve from a YLT.
    pub fn aggregate(ylt: &Ylt) -> Self {
        Self {
            kind: EpKind::Aep,
            sorted: ylt.sorted_agg_losses(),
        }
    }

    /// Build the occurrence (OEP) curve from a YLT.
    pub fn occurrence(ylt: &Ylt) -> Self {
        Self {
            kind: EpKind::Oep,
            sorted: ylt.sorted_max_occ_losses(),
        }
    }

    /// Build from a raw loss sample (sorted internally).
    pub fn from_losses(kind: EpKind, mut losses: Vec<f64>) -> Self {
        assert!(!losses.is_empty(), "EP curve needs at least one loss");
        sort_f64(&mut losses);
        Self::from_sorted(kind, losses)
    }

    /// Build from an already-sorted (ascending, `total_cmp` order) loss
    /// sample without re-sorting — the report path sorts each YLT
    /// column once and shares the buffer between [`EpCurve`] and
    /// [`RiskMeasures`](crate::RiskMeasures).
    pub fn from_sorted(kind: EpKind, sorted: Vec<f64>) -> Self {
        assert!(!sorted.is_empty(), "EP curve needs at least one loss");
        debug_assert!(
            sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "losses must be sorted ascending"
        );
        Self { kind, sorted }
    }

    /// The curve's perspective.
    pub fn kind(&self) -> EpKind {
        self.kind
    }

    /// Number of trials behind the curve.
    pub fn trials(&self) -> usize {
        self.sorted.len()
    }

    /// Empirical probability that the annual loss exceeds `threshold`.
    pub fn prob_exceed(&self, threshold: f64) -> f64 {
        // Count losses strictly greater via binary search on the sorted
        // slice (partition_point gives the first index > threshold).
        let idx = self.sorted.partition_point(|&l| l <= threshold);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }

    /// Probable maximum loss at a return period: the loss at `T` years,
    /// the `1 − 1/T` quantile. `T` must exceed 1 year and should not
    /// exceed the trial count (beyond it, the empirical quantile
    /// saturates at the sample maximum).
    pub fn pml(&self, years: f64) -> f64 {
        assert!(years > 1.0, "return period must exceed 1 year");
        let q = 1.0 - 1.0 / years;
        quantile_sorted(&self.sorted, q)
    }

    /// The curve sampled at standard reporting return periods
    /// (those not exceeding the trial count).
    pub fn standard_points(&self) -> Vec<EpPoint> {
        standard_points_from(self.sorted.len() as u64, |q| {
            quantile_sorted(&self.sorted, q)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::TrialId;

    fn ylt_linear(n: usize) -> Ylt {
        // Trial t has aggregate loss t and max-occurrence loss t/2.
        let mut y = Ylt::zeroed(n);
        for t in 0..n {
            y.set_trial(TrialId::new(t as u32), t as f64, t as f64 / 2.0, 1);
        }
        y
    }

    #[test]
    fn prob_exceed_on_known_sample() {
        let curve = EpCurve::from_losses(EpKind::Aep, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(curve.prob_exceed(0.0), 1.0);
        assert_eq!(curve.prob_exceed(1.0), 0.75);
        assert_eq!(curve.prob_exceed(2.5), 0.5);
        assert_eq!(curve.prob_exceed(4.0), 0.0);
    }

    #[test]
    fn pml_is_the_right_quantile() {
        // Uniform losses 0..999: the 100-year PML is the 0.99 quantile.
        let curve = EpCurve::aggregate(&ylt_linear(1000));
        let pml100 = curve.pml(100.0);
        assert!((pml100 - 0.99 * 999.0).abs() < 1.0, "pml={pml100}");
        let pml10 = curve.pml(10.0);
        assert!((pml10 - 0.9 * 999.0).abs() < 1.0);
        assert!(pml100 > pml10);
    }

    #[test]
    fn occurrence_curve_uses_max_losses() {
        let ylt = ylt_linear(100);
        let aep = EpCurve::aggregate(&ylt);
        let oep = EpCurve::occurrence(&ylt);
        assert_eq!(oep.kind(), EpKind::Oep);
        // Max-occurrence losses are half the aggregate in this fixture.
        assert!((oep.pml(50.0) - aep.pml(50.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn standard_points_respect_trial_count() {
        let small = EpCurve::aggregate(&ylt_linear(30));
        let rps: Vec<f64> = small
            .standard_points()
            .iter()
            .map(|p| p.return_period)
            .collect();
        assert_eq!(rps, vec![2.0, 5.0, 10.0, 25.0]);
        let big = EpCurve::aggregate(&ylt_linear(1000));
        assert_eq!(big.standard_points().len(), 8);
    }

    #[test]
    #[should_panic]
    fn return_period_below_one_year_panics() {
        EpCurve::aggregate(&ylt_linear(10)).pml(1.0);
    }

    #[test]
    #[should_panic]
    fn empty_losses_panic() {
        EpCurve::from_losses(EpKind::Aep, vec![]);
    }

    #[test]
    fn from_sorted_matches_from_losses() {
        let losses: Vec<f64> = (0..200).map(|i| ((i * 37) % 97) as f64).collect();
        let a = EpCurve::from_losses(EpKind::Aep, losses.clone());
        let b = EpCurve::from_sorted(EpKind::Aep, a.sorted.clone());
        assert_eq!(a.pml(50.0).to_bits(), b.pml(50.0).to_bits());
        assert_eq!(a.standard_points(), b.standard_points());
    }

    #[test]
    fn standard_points_from_any_quantile_source() {
        let curve = EpCurve::aggregate(&ylt_linear(300));
        let via_helper = standard_points_from(300, |q| quantile_sorted(&curve.sorted, q));
        assert_eq!(via_helper, curve.standard_points());
        let rps: Vec<f64> = via_helper.iter().map(|p| p.return_period).collect();
        assert_eq!(rps, vec![2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0]);
    }
}
