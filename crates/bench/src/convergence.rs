//! Convergence diagnostics: how a metric estimate stabilises as trials
//! accumulate — the quantitative backing for the paper's "the more
//! simulation trials you can run the better you can manage your
//! aggregate risk".

use riskpipe_metrics::{tvar_sorted, var_sorted};

/// One row of a convergence study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceRow {
    /// Number of leading trials used.
    pub trials: usize,
    /// Metric estimate from those trials.
    pub estimate: f64,
    /// Relative deviation from the full-sample estimate.
    pub rel_error: f64,
}

/// A metric evaluated over growing prefixes of the trial sequence.
#[derive(Debug, Clone)]
pub struct ConvergenceStudy {
    rows: Vec<ConvergenceRow>,
}

/// Which metric a study tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Sample mean.
    Mean,
    /// Value-at-Risk at the given per-mille level (e.g. 990 = 99.0%).
    VarPermille(u32),
    /// Tail VaR at the given per-mille level.
    TvarPermille(u32),
}

impl Metric {
    fn evaluate(&self, prefix: &[f64]) -> f64 {
        match self {
            Metric::Mean => prefix.iter().sum::<f64>() / prefix.len() as f64,
            Metric::VarPermille(pm) => {
                let mut s = prefix.to_vec();
                s.sort_unstable_by(f64::total_cmp);
                var_sorted(&s, *pm as f64 / 1000.0)
            }
            Metric::TvarPermille(pm) => {
                let mut s = prefix.to_vec();
                s.sort_unstable_by(f64::total_cmp);
                tvar_sorted(&s, *pm as f64 / 1000.0)
            }
        }
    }
}

impl ConvergenceStudy {
    /// Evaluate `metric` at each prefix size in `checkpoints` (sizes
    /// beyond the sample are ignored) plus the full sample.
    pub fn run(losses: &[f64], metric: Metric, checkpoints: &[usize]) -> Self {
        assert!(!losses.is_empty());
        let full_estimate = metric.evaluate(losses);
        let mut rows = Vec::new();
        for &n in checkpoints {
            if n == 0 || n > losses.len() {
                continue;
            }
            let estimate = metric.evaluate(&losses[..n]);
            let rel_error = if full_estimate != 0.0 {
                ((estimate - full_estimate) / full_estimate).abs()
            } else {
                estimate.abs()
            };
            rows.push(ConvergenceRow {
                trials: n,
                estimate,
                rel_error,
            });
        }
        Self { rows }
    }

    /// The study rows, in checkpoint order.
    pub fn rows(&self) -> &[ConvergenceRow] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::dist::{Distribution, LogNormal};
    use riskpipe_types::rng::Pcg64;

    fn lognormal_sample(n: usize) -> Vec<f64> {
        let d = LogNormal::from_mean_cv(1000.0, 1.0);
        let mut rng = Pcg64::new(31);
        d.sample_n(&mut rng, n)
    }

    #[test]
    fn mean_converges_with_trials() {
        let losses = lognormal_sample(100_000);
        let study = ConvergenceStudy::run(&losses, Metric::Mean, &[100, 1_000, 10_000, 100_000]);
        let rows = study.rows();
        assert_eq!(rows.len(), 4);
        // Last checkpoint is the full sample: zero error by definition.
        assert!(rows[3].rel_error < 1e-12);
        // Error at 10k is smaller than at 100 (statistically certain at
        // these sizes for a CV=1 lognormal).
        assert!(rows[2].rel_error < rows[0].rel_error);
    }

    #[test]
    fn tvar_needs_more_trials_than_mean() {
        let losses = lognormal_sample(100_000);
        let mean_study = ConvergenceStudy::run(&losses, Metric::Mean, &[1_000]);
        let tvar_study = ConvergenceStudy::run(&losses, Metric::TvarPermille(990), &[1_000]);
        // Tail metrics are noisier at equal sample size.
        assert!(
            tvar_study.rows()[0].rel_error >= mean_study.rows()[0].rel_error * 0.5,
            "tvar err {} vs mean err {}",
            tvar_study.rows()[0].rel_error,
            mean_study.rows()[0].rel_error
        );
    }

    #[test]
    fn out_of_range_checkpoints_ignored() {
        let losses = vec![1.0, 2.0, 3.0];
        let study = ConvergenceStudy::run(&losses, Metric::Mean, &[0, 2, 5]);
        assert_eq!(study.rows().len(), 1);
        assert_eq!(study.rows()[0].trials, 2);
    }

    #[test]
    fn var_metric_evaluates() {
        let losses: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let study = ConvergenceStudy::run(&losses, Metric::VarPermille(500), &[1000]);
        assert!((study.rows()[0].estimate - 499.5).abs() < 1.0);
    }
}
