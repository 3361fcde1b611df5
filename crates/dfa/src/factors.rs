//! The non-catastrophe risk-factor models DFA integrates with the cat
//! YLT: investment return, interest rates, the underwriting cycle,
//! counterparty default, operational losses and reserve development.
//!
//! Every model simulates a per-trial column deterministically from the
//! master seed: factor `f`, trial `t` draws from Philox stream
//! `(seed, f·2⁴⁰ ^ t)`, so columns are independent across factors and
//! reproducible in isolation (engines can simulate any subset).
//!
//! **Everything here is chunk-addressable.** A trial's value depends on
//! its own stream and the model's parameters only — no state is carried
//! from trial `t` to `t + 1` — so `fill(a, out)` writes exactly
//! elements `a..a + out.len()` of `simulate(trials)`, bit for bit,
//! whatever else has or has not been simulated. The normal-quantile models draw each
//! trial's uniforms from its own stream into the output column (Vasicek
//! into a 16-trial stack block) and then invert them in lanes of eight
//! with [`normal_icdf_in_place`], which returns the scalar quantile's
//! bits for every element wherever it sits in a lane; nothing is carried
//! across a trial, and no batch crosses the range. That is what lets
//! [`DfaEngine::simulate_factors`](crate::DfaEngine::simulate_factors)
//! cut the seven columns into (factor, trial-chunk) tasks and run them
//! in any order on any number of threads. Nothing in this module is
//! order-bound; the order-bound pieces of the factor block live in
//! [`correlate`](crate::correlate).

use riskpipe_types::dist::{Distribution, LogNormal, Poisson};
use riskpipe_types::rng::{Rng64, SeedStream};
use riskpipe_types::special::normal_icdf_in_place;
use riskpipe_types::{RiskError, RiskResult};

/// Derive the RNG for (factor, trial).
#[inline]
fn factor_rng(streams: &SeedStream, factor: u64, trial: u64) -> impl Rng64 {
    streams.stream((factor << 40) ^ trial)
}

/// The first open uniform of each trial's stream for `factor`, written
/// to `out[t - first]` for trial `t`: the input of a single-draw column,
/// which the column's model then transforms in place.
fn first_uniforms(streams: &SeedStream, factor: u64, first: usize, out: &mut [f64]) {
    for (t, u) in (first..).zip(out.iter_mut()) {
        *u = factor_rng(streams, factor, t as u64).next_f64_open();
    }
}

/// `trials` elements from trial 0 of a column `fill` writes in place.
fn whole_column(trials: usize, fill: impl FnOnce(&mut [f64])) -> Vec<f64> {
    let mut column = vec![0.0; trials];
    fill(&mut column);
    column
}

/// Stable factor indices for stream derivation.
pub(crate) mod factor_ids {
    pub const INVESTMENT: u64 = 1;
    pub const RATES: u64 = 2;
    pub const CYCLE: u64 = 3;
    pub const COUNTERPARTY: u64 = 4;
    pub const OPERATIONAL: u64 = 5;
    pub const ATTRITIONAL: u64 = 6;
    pub const RESERVE: u64 = 7;
}

/// Geometric-Brownian-motion equity/asset portfolio: annual investment
/// income on invested assets.
#[derive(Debug, Clone, Copy)]
pub struct InvestmentModel {
    /// Invested asset base.
    pub assets: f64,
    /// Expected log-return drift (annual).
    pub mu: f64,
    /// Return volatility (annual).
    pub sigma: f64,
}

impl InvestmentModel {
    /// Per-trial investment income (can be negative).
    pub fn simulate(&self, trials: usize, streams: &SeedStream) -> Vec<f64> {
        whole_column(trials, |column| self.fill(0, column, streams))
    }

    /// Elements `first..first + column.len()` of [`Self::simulate`],
    /// written in place.
    pub(crate) fn fill(&self, first: usize, column: &mut [f64], streams: &SeedStream) {
        first_uniforms(streams, factor_ids::INVESTMENT, first, column);
        normal_icdf_in_place(column);
        for v in column {
            let gross = ((self.mu - 0.5 * self.sigma * self.sigma) + self.sigma * *v).exp();
            *v = self.assets * (gross - 1.0);
        }
    }
}

/// Vasicek short-rate model, simulated monthly over the contractual
/// year; the column is the year's average short rate.
#[derive(Debug, Clone, Copy)]
pub struct VasicekModel {
    /// Starting short rate.
    pub r0: f64,
    /// Mean-reversion speed.
    pub kappa: f64,
    /// Long-run mean rate.
    pub theta: f64,
    /// Rate volatility.
    pub sigma: f64,
}

impl VasicekModel {
    /// Monthly steps per trial.
    const STEPS: usize = 12;
    /// Trials per stack block of draws.
    const BLOCK_TRIALS: usize = 16;

    /// Per-trial average short rate over 12 monthly steps.
    pub fn simulate(&self, trials: usize, streams: &SeedStream) -> Vec<f64> {
        whole_column(trials, |column| self.fill(0, column, streams))
    }

    /// Elements `first..first + column.len()` of [`Self::simulate`],
    /// written in place.
    pub(crate) fn fill(&self, first: usize, column: &mut [f64], streams: &SeedStream) {
        let dt = 1.0f64 / 12.0;
        let sqdt = dt.sqrt();
        // Trial-major: a trial's 12 draws sit side by side in draw
        // order, so the recurrence reads them as its stream gave them.
        let mut block = [0.0f64; Self::BLOCK_TRIALS * Self::STEPS];
        for (b, out) in column.chunks_mut(Self::BLOCK_TRIALS).enumerate() {
            let block_first = first + b * Self::BLOCK_TRIALS;
            let draws = &mut block[..out.len() * Self::STEPS];
            for (j, year) in draws.chunks_exact_mut(Self::STEPS).enumerate() {
                let mut rng = factor_rng(streams, factor_ids::RATES, (block_first + j) as u64);
                for z in year {
                    *z = rng.next_f64_open();
                }
            }
            normal_icdf_in_place(draws);
            for (year, v) in draws.chunks_exact(Self::STEPS).zip(out) {
                let mut r = self.r0;
                let mut sum = 0.0;
                for &z in year {
                    r += self.kappa * (self.theta - r) * dt + self.sigma * sqdt * z;
                    sum += r;
                }
                *v = sum / 12.0;
            }
        }
    }
}

/// The underwriting (market) cycle: a lognormal premium-adequacy factor
/// with mean `mean_factor` — >1 in a hard market, <1 in a soft one.
#[derive(Debug, Clone, Copy)]
pub struct MarketCycleModel {
    /// Mean premium-adequacy factor (1.0 = adequate).
    pub mean_factor: f64,
    /// Volatility of the cycle position.
    pub sigma: f64,
}

impl MarketCycleModel {
    /// Per-trial premium adequacy factor.
    pub fn simulate(&self, trials: usize, streams: &SeedStream) -> Vec<f64> {
        whole_column(trials, |column| self.fill(0, column, streams))
    }

    /// Elements `first..first + column.len()` of [`Self::simulate`],
    /// written in place.
    pub(crate) fn fill(&self, first: usize, column: &mut [f64], streams: &SeedStream) {
        first_uniforms(streams, factor_ids::CYCLE, first, column);
        normal_icdf_in_place(column);
        for v in column {
            *v = self.mean_factor * (self.sigma * *v - 0.5 * self.sigma * self.sigma).exp();
        }
    }
}

/// Counterparty (retrocessionaire) default: with probability
/// `default_prob` the counterparty defaults and only `recovery_rate`
/// of recoverables is collected.
#[derive(Debug, Clone, Copy)]
pub struct CounterpartyModel {
    /// Annual default probability.
    pub default_prob: f64,
    /// Fraction recovered in default.
    pub recovery_rate: f64,
}

impl CounterpartyModel {
    /// Per-trial fraction of recoverables *lost* (0 when no default).
    pub fn simulate(&self, trials: usize, streams: &SeedStream) -> Vec<f64> {
        whole_column(trials, |column| self.fill(0, column, streams))
    }

    /// Elements `first..first + column.len()` of [`Self::simulate`],
    /// written in place.
    pub(crate) fn fill(&self, first: usize, column: &mut [f64], streams: &SeedStream) {
        for (t, v) in (first..).zip(column) {
            let mut rng = factor_rng(streams, factor_ids::COUNTERPARTY, t as u64);
            *v = if rng.next_f64() < self.default_prob {
                1.0 - self.recovery_rate
            } else {
                0.0
            };
        }
    }
}

/// Operational risk: Poisson frequency × lognormal severity.
#[derive(Debug, Clone, Copy)]
pub struct OperationalModel {
    /// Expected operational loss events per year.
    pub frequency: f64,
    /// Mean severity per event.
    pub severity_mean: f64,
    /// Severity coefficient of variation.
    pub severity_cv: f64,
}

impl OperationalModel {
    /// Per-trial total operational loss.
    pub fn simulate(&self, trials: usize, streams: &SeedStream) -> Vec<f64> {
        whole_column(trials, |column| self.fill(0, column, streams))
    }

    /// Elements `first..first + column.len()` of [`Self::simulate`],
    /// written in place.
    pub(crate) fn fill(&self, first: usize, column: &mut [f64], streams: &SeedStream) {
        let freq = Poisson::new(self.frequency.max(1e-12));
        let sev = LogNormal::from_mean_cv(self.severity_mean, self.severity_cv);
        for (t, v) in (first..).zip(column) {
            let mut rng = factor_rng(streams, factor_ids::OPERATIONAL, t as u64);
            let n = freq.sample_count(&mut rng);
            *v = (0..n).map(|_| sev.sample(&mut rng)).sum();
        }
    }
}

/// Prior-year reserve development: reserves restate by a lognormal
/// factor with mean 1; the column is the *adverse* development amount
/// (negative = favourable).
#[derive(Debug, Clone, Copy)]
pub struct ReserveModel {
    /// Carried reserves.
    pub reserves: f64,
    /// Coefficient of variation of the restatement factor.
    pub cv: f64,
}

impl ReserveModel {
    /// Per-trial adverse development.
    pub fn simulate(&self, trials: usize, streams: &SeedStream) -> Vec<f64> {
        whole_column(trials, |column| self.fill(0, column, streams))
    }

    /// Elements `first..first + column.len()` of [`Self::simulate`],
    /// written in place.
    pub(crate) fn fill(&self, first: usize, column: &mut [f64], streams: &SeedStream) {
        first_uniforms(streams, factor_ids::RESERVE, first, column);
        LogNormal::from_mean_cv(1.0, self.cv).quantiles_in_place(column);
        for v in column {
            *v = self.reserves * (*v - 1.0);
        }
    }
}

/// Attritional (non-catastrophe claims) losses: lognormal around an
/// expected loss ratio of premium.
#[derive(Debug, Clone, Copy)]
pub struct AttritionalModel {
    /// Expected attritional losses.
    pub expected: f64,
    /// Coefficient of variation.
    pub cv: f64,
}

impl AttritionalModel {
    /// Validate and simulate per-trial attritional losses.
    pub fn simulate(&self, trials: usize, streams: &SeedStream) -> RiskResult<Vec<f64>> {
        self.validate()?;
        Ok(whole_column(trials, |column| self.fill(0, column, streams)))
    }

    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "`!(x > 0.0)` also rejects NaN, which `x <= 0.0` would let through"
    )]
    pub(crate) fn validate(&self) -> RiskResult<()> {
        let finite = self.expected.is_finite() && self.cv.is_finite();
        if !finite || !(self.expected > 0.0) || !(self.cv > 0.0) {
            return Err(RiskError::invalid(
                "attritional parameters must be positive and finite",
            ));
        }
        Ok(())
    }

    /// Elements `first..first + column.len()` of [`Self::simulate`],
    /// written in place; the caller has run [`Self::validate`].
    pub(crate) fn fill(&self, first: usize, column: &mut [f64], streams: &SeedStream) {
        first_uniforms(streams, factor_ids::ATTRITIONAL, first, column);
        LogNormal::from_mean_cv(self.expected, self.cv).quantiles_in_place(column);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::stats::RunningStats;

    const N: usize = 50_000;

    #[test]
    fn investment_mean_matches_gbm() {
        let m = InvestmentModel {
            assets: 1_000_000.0,
            mu: 0.05,
            sigma: 0.15,
        };
        let col = m.simulate(N, &SeedStream::new(1));
        let stats: RunningStats = col.iter().copied().collect();
        // E[income] = assets (e^mu - 1).
        let expect = 1_000_000.0 * (0.05f64.exp() - 1.0);
        assert!(
            (stats.mean() - expect).abs() < 0.03 * expect.abs().max(1_000.0),
            "mean {} vs {}",
            stats.mean(),
            expect
        );
        // Losses happen.
        assert!(stats.min() < 0.0);
    }

    #[test]
    fn vasicek_reverts_to_theta() {
        let m = VasicekModel {
            r0: 0.10,
            kappa: 3.0,
            theta: 0.03,
            sigma: 0.01,
        };
        let col = m.simulate(20_000, &SeedStream::new(2));
        let stats: RunningStats = col.iter().copied().collect();
        // Strong reversion pulls the average rate well below r0 toward θ.
        assert!(
            stats.mean() < 0.07 && stats.mean() > 0.02,
            "mean {}",
            stats.mean()
        );
    }

    #[test]
    fn cycle_factor_mean_is_configured() {
        let m = MarketCycleModel {
            mean_factor: 0.95,
            sigma: 0.1,
        };
        let col = m.simulate(N, &SeedStream::new(3));
        let stats: RunningStats = col.iter().copied().collect();
        assert!((stats.mean() - 0.95).abs() < 0.01);
        assert!(col.iter().all(|&f| f > 0.0));
    }

    #[test]
    fn counterparty_default_frequency() {
        let m = CounterpartyModel {
            default_prob: 0.02,
            recovery_rate: 0.4,
        };
        let col = m.simulate(N, &SeedStream::new(4));
        let defaults = col.iter().filter(|&&v| v > 0.0).count();
        let rate = defaults as f64 / N as f64;
        assert!((rate - 0.02).abs() < 0.005, "rate {rate}");
        for &v in &col {
            assert!(v == 0.0 || (v - 0.6).abs() < 1e-12);
        }
    }

    #[test]
    fn operational_mean_is_freq_times_sev() {
        let m = OperationalModel {
            frequency: 2.0,
            severity_mean: 50_000.0,
            severity_cv: 2.0,
        };
        let col = m.simulate(N, &SeedStream::new(5));
        let stats: RunningStats = col.iter().copied().collect();
        let expect = 2.0 * 50_000.0;
        assert!(
            (stats.mean() - expect).abs() < 0.05 * expect,
            "mean {}",
            stats.mean()
        );
        assert!(col.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn reserve_development_is_centred() {
        let m = ReserveModel {
            reserves: 10_000_000.0,
            cv: 0.05,
        };
        let col = m.simulate(N, &SeedStream::new(6));
        let stats: RunningStats = col.iter().copied().collect();
        assert!(stats.mean().abs() < 0.01 * 10_000_000.0);
        assert!(stats.min() < 0.0 && stats.max() > 0.0);
    }

    #[test]
    fn attritional_validates_and_centres() {
        let m = AttritionalModel {
            expected: 500_000.0,
            cv: 0.2,
        };
        let col = m.simulate(N, &SeedStream::new(7)).unwrap();
        let stats: RunningStats = col.iter().copied().collect();
        assert!((stats.mean() - 500_000.0).abs() < 0.02 * 500_000.0);
        assert!(AttritionalModel {
            expected: 0.0,
            cv: 0.2
        }
        .simulate(10, &SeedStream::new(8))
        .is_err());
    }

    #[test]
    fn columns_are_deterministic_and_factor_independent() {
        let m = InvestmentModel {
            assets: 100.0,
            mu: 0.0,
            sigma: 0.2,
        };
        let a = m.simulate(100, &SeedStream::new(9));
        let b = m.simulate(100, &SeedStream::new(9));
        assert_eq!(a, b);
        // A different factor on the same seed gives different draws.
        let cyc = MarketCycleModel {
            mean_factor: 1.0,
            sigma: 0.2,
        }
        .simulate(100, &SeedStream::new(9));
        assert_ne!(a, cyc);
    }
}
