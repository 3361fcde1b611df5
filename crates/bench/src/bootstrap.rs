//! Bootstrap confidence intervals for risk measures.
//!
//! Tail metrics from Monte-Carlo YLTs are themselves random; reporting
//! them without sampling error invites false precision. The
//! nonparametric bootstrap — resample trials with replacement, recompute
//! the metric — gives distribution-free intervals.

use riskpipe_types::rng::{Pcg64, Rng64};
use riskpipe_types::stats::quantile_sorted;

/// Bootstrap configuration.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapConfig {
    /// Number of bootstrap resamples.
    pub resamples: usize,
    /// Two-sided confidence level (e.g. 0.90).
    pub confidence: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            resamples: 200,
            confidence: 0.90,
            seed: 0xB007,
        }
    }
}

/// A bootstrap interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapInterval {
    /// The metric on the original sample.
    pub point: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
}

/// Bootstrap a statistic of a loss sample.
///
/// `statistic` receives a resampled loss vector (unsorted) and returns
/// the metric value.
pub fn bootstrap_ci(
    losses: &[f64],
    cfg: &BootstrapConfig,
    statistic: impl Fn(&[f64]) -> f64,
) -> BootstrapInterval {
    assert!(!losses.is_empty(), "bootstrap of empty sample");
    assert!(cfg.resamples >= 10, "need at least 10 resamples");
    assert!(
        (0.5..1.0).contains(&cfg.confidence),
        "confidence must be in [0.5, 1)"
    );
    let point = statistic(losses);
    let n = losses.len();
    let mut rng = Pcg64::new(cfg.seed);
    let mut estimates = Vec::with_capacity(cfg.resamples);
    let mut resample = vec![0.0f64; n];
    for _ in 0..cfg.resamples {
        for slot in resample.iter_mut() {
            *slot = losses[rng.next_below(n as u32) as usize];
        }
        estimates.push(statistic(&resample));
    }
    estimates.sort_unstable_by(f64::total_cmp);
    let tail = (1.0 - cfg.confidence) / 2.0;
    BootstrapInterval {
        point,
        lo: quantile_sorted(&estimates, tail),
        hi: quantile_sorted(&estimates, 1.0 - tail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_metrics::tvar;

    fn sample() -> Vec<f64> {
        // Deterministic skewed sample.
        (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect()
    }

    #[test]
    fn interval_brackets_point_estimate() {
        let losses = sample();
        let ci = bootstrap_ci(&losses, &BootstrapConfig::default(), |xs| {
            xs.iter().sum::<f64>() / xs.len() as f64
        });
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
        assert!(ci.hi > ci.lo);
    }

    #[test]
    fn interval_narrows_with_sample_size() {
        let small: Vec<f64> = sample().into_iter().take(100).collect();
        let large = sample();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let ci_small = bootstrap_ci(&small, &BootstrapConfig::default(), mean);
        let ci_large = bootstrap_ci(&large, &BootstrapConfig::default(), mean);
        assert!(
            ci_large.hi - ci_large.lo < ci_small.hi - ci_small.lo,
            "large CI {} vs small CI {}",
            ci_large.hi - ci_large.lo,
            ci_small.hi - ci_small.lo
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let losses = sample();
        let cfg = BootstrapConfig::default();
        let f = |xs: &[f64]| tvar(xs, 0.95);
        let a = bootstrap_ci(&losses, &cfg, f);
        let b = bootstrap_ci(&losses, &cfg, f);
        assert_eq!(a, b);
    }

    #[test]
    fn tvar_interval_sits_in_tail() {
        let losses = sample();
        let ci = bootstrap_ci(&losses, &BootstrapConfig::default(), |xs| tvar(xs, 0.99));
        let mean = losses.iter().sum::<f64>() / losses.len() as f64;
        assert!(ci.lo > mean, "tail CI should exceed the mean");
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        bootstrap_ci(&[], &BootstrapConfig::default(), |_| 0.0);
    }
}
