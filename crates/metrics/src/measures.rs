//! VaR and TVaR: quantile and tail-conditional risk measures.

use riskpipe_tables::Ylt;
use riskpipe_types::stats::{quantile_sorted, sort_f64, tail_mean_sorted};

/// Value-at-Risk at level `alpha` (e.g. 0.99): the `alpha`-quantile of
/// the loss distribution. Input need not be sorted.
pub fn var(losses: &[f64], alpha: f64) -> f64 {
    let mut sorted = losses.to_vec();
    sort_f64(&mut sorted);
    var_sorted(&sorted, alpha)
}

/// [`var`] on an already-sorted ascending sample.
pub fn var_sorted(sorted: &[f64], alpha: f64) -> f64 {
    assert!((0.0..1.0).contains(&alpha), "alpha must be in [0,1)");
    quantile_sorted(sorted, alpha)
}

/// Tail Value-at-Risk at level `alpha`: the mean of losses at or above
/// the `alpha`-quantile (the discrete estimator). Input need not be
/// sorted.
pub fn tvar(losses: &[f64], alpha: f64) -> f64 {
    let mut sorted = losses.to_vec();
    sort_f64(&mut sorted);
    tvar_sorted(&sorted, alpha)
}

/// [`tvar`] on an already-sorted ascending sample.
pub fn tvar_sorted(sorted: &[f64], alpha: f64) -> f64 {
    assert!((0.0..1.0).contains(&alpha), "alpha must be in [0,1)");
    tail_mean_sorted(sorted, alpha)
}

/// The standard bundle of portfolio risk measures derived from a YLT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskMeasures {
    /// Mean annual loss (pure premium).
    pub mean: f64,
    /// Standard deviation of annual loss.
    pub sd: f64,
    /// 99% Value-at-Risk of annual aggregate loss.
    pub var99: f64,
    /// 99% Tail Value-at-Risk of annual aggregate loss.
    pub tvar99: f64,
    /// 99.6% VaR (the 250-year PML used by rating agencies).
    pub var996: f64,
    /// 100-year occurrence PML.
    pub oep_pml100: f64,
}

impl RiskMeasures {
    /// Compute the bundle from a YLT.
    pub fn from_ylt(ylt: &Ylt) -> Self {
        let agg = ylt.sorted_agg_losses();
        let occ = ylt.sorted_max_occ_losses();
        let stats: riskpipe_types::RunningStats = ylt.agg_losses().iter().copied().collect();
        Self::from_sorted(&agg, &occ, &stats)
    }

    /// Compute the bundle from already-sorted loss columns plus running
    /// moments over the *unsorted* aggregate column (Welford order
    /// matters for bit-stability). Lets the report path sort each YLT
    /// column exactly once and share the buffers with
    /// [`EpCurve::from_sorted`](crate::EpCurve::from_sorted) instead of
    /// every consumer re-sorting the same losses.
    pub fn from_sorted(
        agg_sorted: &[f64],
        occ_sorted: &[f64],
        agg_stats: &riskpipe_types::RunningStats,
    ) -> Self {
        Self {
            mean: agg_stats.mean(),
            sd: agg_stats.sd(),
            var99: var_sorted(agg_sorted, 0.99),
            tvar99: tvar_sorted(agg_sorted, 0.99),
            var996: var_sorted(agg_sorted, 0.996),
            oep_pml100: quantile_sorted(occ_sorted, 1.0 - 1.0 / 100.0),
        }
    }
}

impl std::fmt::Display for RiskMeasures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "mean annual loss : {:>16.2}", self.mean)?;
        writeln!(f, "sd annual loss   : {:>16.2}", self.sd)?;
        writeln!(f, "VaR 99%          : {:>16.2}", self.var99)?;
        writeln!(f, "TVaR 99%         : {:>16.2}", self.tvar99)?;
        writeln!(f, "VaR 99.6%        : {:>16.2}", self.var996)?;
        write!(f, "OEP PML 100y     : {:>16.2}", self.oep_pml100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::TrialId;

    #[test]
    fn var_on_uniform_grid() {
        let losses: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert!((var(&losses, 0.99) - 989.01).abs() < 0.02);
        assert!((var(&losses, 0.5) - 499.5).abs() < 0.01);
    }

    #[test]
    fn tvar_dominates_var() {
        let losses: Vec<f64> = (0..1000).map(|i| (i as f64).powf(1.3)).collect();
        for &a in &[0.9, 0.95, 0.99] {
            assert!(tvar(&losses, a) >= var(&losses, a), "alpha={a}");
        }
    }

    #[test]
    fn tvar_known_value() {
        let losses: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        // alpha = 0.8 → tail starts at index ceil(8) = 8 → mean(9, 10).
        assert_eq!(tvar(&losses, 0.8), 9.5);
        // alpha = 0 → whole-sample mean.
        assert_eq!(tvar(&losses, 0.0), 5.5);
    }

    #[test]
    fn tvar_is_coherent_under_mixing() {
        // Subadditivity on a discrete sample: TVaR(A+B) <= TVaR(A)+TVaR(B)
        // when both are computed trial-aligned.
        let a: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let b: Vec<f64> = (0..500).map(|i| ((i * 104729) % 500) as f64).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert!(tvar(&sum, 0.95) <= tvar(&a, 0.95) + tvar(&b, 0.95) + 1e-9);
    }

    #[test]
    fn unsorted_input_handled() {
        let mut losses: Vec<f64> = (0..100).map(|i| i as f64).collect();
        losses.reverse();
        assert_eq!(var(&losses, 0.5), 49.5);
    }

    #[test]
    fn from_sorted_matches_from_ylt_bitwise() {
        let mut ylt = Ylt::zeroed(500);
        for t in 0..500 {
            ylt.set_trial(
                TrialId::new(t as u32),
                ((t * 31) % 499) as f64,
                (t % 97) as f64,
                1,
            );
        }
        let whole = RiskMeasures::from_ylt(&ylt);
        let agg = ylt.sorted_agg_losses();
        let occ = ylt.sorted_max_occ_losses();
        let stats: riskpipe_types::RunningStats = ylt.agg_losses().iter().copied().collect();
        let shared = RiskMeasures::from_sorted(&agg, &occ, &stats);
        for (a, b) in [
            (whole.mean, shared.mean),
            (whole.sd, shared.sd),
            (whole.var99, shared.var99),
            (whole.tvar99, shared.tvar99),
            (whole.var996, shared.var996),
            (whole.oep_pml100, shared.oep_pml100),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn measures_from_ylt_are_consistent() {
        let mut ylt = Ylt::zeroed(1000);
        for t in 0..1000 {
            ylt.set_trial(TrialId::new(t as u32), t as f64, t as f64 * 0.6, 1);
        }
        let m = RiskMeasures::from_ylt(&ylt);
        assert!((m.mean - 499.5).abs() < 1e-9);
        assert!(m.tvar99 >= m.var99);
        assert!(m.var996 >= m.var99);
        assert!((m.oep_pml100 - 0.6 * m.var99 * (989.01f64 / 989.01)).abs() < 6.0);
        let text = m.to_string();
        assert!(text.contains("TVaR 99%"));
    }

    #[test]
    #[should_panic]
    fn alpha_one_rejected() {
        var(&[1.0, 2.0], 1.0);
    }
}
