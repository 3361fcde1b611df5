//! Enterprise risk management: the paper's final consolidation — "where
//! liability, asset, and other forms of risks are combined and
//! correlated to generate an enterprise wide view of risk".
//!
//! Business units (regional books, lines of business) each bring a YLT;
//! the roll-up correlates their annual losses with Iman–Conover,
//! consolidates trial-wise, and quantifies the diversification benefit:
//! how much smaller the enterprise tail is than the sum of standalone
//! tails.

use crate::correlate::{iman_conover, CorrelationMatrix};
use riskpipe_tables::Ylt;
use riskpipe_types::stats::{sort_f64, tail_mean_sorted};
use riskpipe_types::{RiskError, RiskResult};

/// One business unit and its catastrophe/aggregate loss profile.
#[derive(Debug, Clone)]
pub struct BusinessUnit {
    /// Unit name for reports.
    pub name: String,
    /// The unit's year-loss table.
    pub ylt: Ylt,
}

/// Consolidation engine.
#[derive(Debug, Clone)]
pub struct EnterpriseRollup {
    /// The units to consolidate.
    pub units: Vec<BusinessUnit>,
    /// Rank correlation among unit annual losses.
    pub correlation: CorrelationMatrix,
    /// Seed for the correlation-induction shuffle.
    pub seed: u64,
}

/// Result of consolidation.
#[derive(Debug, Clone)]
pub struct EnterpriseResult {
    /// Per-unit standalone TVaR99.
    pub standalone_tvar99: Vec<(String, f64)>,
    /// Consolidated enterprise annual losses per trial.
    pub enterprise_losses: Vec<f64>,
    /// Enterprise TVaR99.
    pub enterprise_tvar99: f64,
    /// Diversification benefit in `[0, 1)`:
    /// `1 − enterprise TVaR / Σ standalone TVaR`.
    pub diversification_benefit: f64,
}

impl EnterpriseRollup {
    /// Validate and return the rank-correlated per-unit loss columns —
    /// the common first step of [`EnterpriseRollup::run`] and
    /// [`EnterpriseRollup::allocate`].
    fn correlated_columns(&self) -> RiskResult<Vec<Vec<f64>>> {
        if self.units.is_empty() {
            return Err(RiskError::invalid("no business units"));
        }
        let trials = self.units[0].ylt.trials();
        if self.units.iter().any(|u| u.ylt.trials() != trials) {
            return Err(RiskError::invalid("units must share a trial count"));
        }
        if self.correlation.dim() != self.units.len() {
            return Err(RiskError::invalid(
                "correlation dimension must equal unit count",
            ));
        }
        let mut cols: Vec<Vec<f64>> = self
            .units
            .iter()
            .map(|u| u.ylt.agg_losses().to_vec())
            .collect();
        iman_conover(&mut cols, &self.correlation, self.seed)?;
        Ok(cols)
    }

    /// Attribute the consolidated TVaR at `alpha` back to the units
    /// (capital allocation over the correlated trials).
    pub fn allocate(
        &self,
        alpha: f64,
        method: crate::allocation::AllocationMethod,
    ) -> RiskResult<crate::allocation::CapitalAllocation> {
        let cols = self.correlated_columns()?;
        let names: Vec<String> = self.units.iter().map(|u| u.name.clone()).collect();
        crate::allocation::allocate(&names, &cols, alpha, method)
    }

    /// Consolidate the units.
    pub fn run(&self) -> RiskResult<EnterpriseResult> {
        let cols = self.correlated_columns()?;
        let trials = self.units[0].ylt.trials();

        // Standalone tails.
        let mut standalone_tvar99 = Vec::with_capacity(self.units.len());
        for u in &self.units {
            let sorted = u.ylt.sorted_agg_losses();
            standalone_tvar99.push((u.name.clone(), tail_mean_sorted(&sorted, 0.99)));
        }
        let mut enterprise_losses = vec![0.0f64; trials];
        for col in &cols {
            for (t, &v) in col.iter().enumerate() {
                enterprise_losses[t] += v;
            }
        }
        let mut sorted = enterprise_losses.clone();
        sort_f64(&mut sorted);
        let enterprise_tvar99 = tail_mean_sorted(&sorted, 0.99);
        let sum_standalone: f64 = standalone_tvar99.iter().map(|(_, t)| t).sum();
        let diversification_benefit = if sum_standalone > 0.0 {
            (1.0 - enterprise_tvar99 / sum_standalone).max(0.0)
        } else {
            0.0
        };
        Ok(EnterpriseResult {
            standalone_tvar99,
            enterprise_losses,
            enterprise_tvar99,
            diversification_benefit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::TrialId;

    fn unit(name: &str, trials: usize, seed: usize) -> BusinessUnit {
        let mut y = Ylt::zeroed(trials);
        for t in 0..trials {
            let r = ((t * (2654435761 + seed * 97)) % trials) as f64 / trials as f64;
            let loss = (-(1.0 - r).ln()).powf(1.8) * 1_000_000.0;
            y.set_trial(TrialId::new(t as u32), loss, loss, 1);
        }
        BusinessUnit {
            name: name.into(),
            ylt: y,
        }
    }

    #[test]
    fn independence_diversifies_more_than_comonotonicity() {
        let units = vec![
            unit("na", 8_000, 1),
            unit("eu", 8_000, 2),
            unit("jp", 8_000, 3),
        ];
        let indep = EnterpriseRollup {
            units: units.clone(),
            correlation: CorrelationMatrix::identity(3),
            seed: 5,
        }
        .run()
        .unwrap();
        let coupled = EnterpriseRollup {
            units,
            correlation: CorrelationMatrix::exchangeable(3, 0.9).unwrap(),
            seed: 5,
        }
        .run()
        .unwrap();
        assert!(
            indep.diversification_benefit > coupled.diversification_benefit,
            "indep {} vs coupled {}",
            indep.diversification_benefit,
            coupled.diversification_benefit
        );
        assert!(indep.diversification_benefit > 0.1);
        // Tails: coupling makes the enterprise tail worse.
        assert!(coupled.enterprise_tvar99 > indep.enterprise_tvar99);
    }

    #[test]
    fn consolidated_losses_preserve_totals() {
        let units = vec![unit("a", 2_000, 1), unit("b", 2_000, 2)];
        let total_mean: f64 = units.iter().map(|u| u.ylt.mean_annual_loss()).sum();
        let result = EnterpriseRollup {
            units,
            correlation: CorrelationMatrix::identity(2),
            seed: 1,
        }
        .run()
        .unwrap();
        let mean =
            result.enterprise_losses.iter().sum::<f64>() / result.enterprise_losses.len() as f64;
        // Reordering never changes the grand mean.
        assert!((mean - total_mean).abs() < 1e-6 * total_mean);
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let r = EnterpriseRollup {
            units: vec![unit("a", 100, 1), unit("b", 200, 2)],
            correlation: CorrelationMatrix::identity(2),
            seed: 0,
        };
        assert!(r.run().is_err());
        let r = EnterpriseRollup {
            units: vec![unit("a", 100, 1)],
            correlation: CorrelationMatrix::identity(2),
            seed: 0,
        };
        assert!(r.run().is_err());
        let r = EnterpriseRollup {
            units: vec![],
            correlation: CorrelationMatrix::identity(0),
            seed: 0,
        };
        assert!(r.run().is_err());
    }

    #[test]
    fn standalone_tails_reported_per_unit() {
        let result = EnterpriseRollup {
            units: vec![unit("x", 1_000, 1), unit("y", 1_000, 9)],
            correlation: CorrelationMatrix::identity(2),
            seed: 3,
        }
        .run()
        .unwrap();
        assert_eq!(result.standalone_tvar99.len(), 2);
        assert_eq!(result.standalone_tvar99[0].0, "x");
        assert!(result.standalone_tvar99.iter().all(|(_, t)| *t > 0.0));
    }
}
