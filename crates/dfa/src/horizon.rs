//! Multi-year DFA: capital paths over a planning horizon — the
//! "dynamic" in Dynamic Financial Analysis.
//!
//! Each trial follows the company through `years` consecutive
//! contractual years. Within a trial:
//!
//! * the **underwriting cycle evolves serially** — an AR(1) on the
//!   premium-adequacy factor, so soft markets persist (the economic
//!   feature a single-year model cannot express);
//! * every other factor column is redrawn independently per year from
//!   streams keyed by `(seed, year)`;
//! * the catastrophe year is resampled from the cat YLT's empirical
//!   distribution with a per-year offset permutation (years are
//!   independent draws from the same modelled risk);
//! * net income accumulates into the capital account; a trial is ruined
//!   in the first year its capital goes negative, and stays ruined.

use crate::correlate::iman_conover;
use crate::factors::AttritionalModel;
use crate::statement::{trial_result, DfaEngine};
use riskpipe_tables::Ylt;
use riskpipe_types::rng::{Rng64, SeedStream};
use riskpipe_types::special::normal_icdf;
use riskpipe_types::{RiskError, RiskResult, RunningStats};

/// Multi-year projection configuration.
#[derive(Debug, Clone, Copy)]
pub struct HorizonConfig {
    /// Number of consecutive years to project.
    pub years: usize,
    /// AR(1) persistence of the underwriting cycle in `[0, 1)`.
    pub cycle_phi: f64,
    /// Per-year innovation volatility of the cycle.
    pub cycle_sigma: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for HorizonConfig {
    fn default() -> Self {
        Self {
            years: 5,
            cycle_phi: 0.6,
            cycle_sigma: 0.06,
            seed: 0x04_12_12,
        }
    }
}

/// Results of a horizon projection.
#[derive(Debug, Clone)]
pub struct HorizonResult {
    /// Cumulative ruin probability by end of each year.
    pub ruin_by_year: Vec<f64>,
    /// Mean capital at the end of each year (ruined trials carry their
    /// terminal negative capital forward).
    pub mean_capital_by_year: Vec<f64>,
    /// Terminal capital per trial.
    pub terminal_capital: Vec<f64>,
    /// Initial capital (for reference).
    pub initial_capital: f64,
}

impl HorizonResult {
    /// Mean annualised growth of capital over the horizon.
    pub fn mean_growth_rate(&self) -> f64 {
        let stats: RunningStats = self.terminal_capital.iter().copied().collect();
        let years = self.ruin_by_year.len() as f64;
        (stats.mean() / self.initial_capital)
            .max(1e-12)
            .powf(1.0 / years)
            - 1.0
    }
}

/// Project a [`DfaEngine`] over a multi-year horizon.
pub fn run_horizon(
    engine: &DfaEngine,
    cat_ylt: &Ylt,
    cfg: &HorizonConfig,
) -> RiskResult<HorizonResult> {
    if cfg.years == 0 {
        return Err(RiskError::invalid("horizon needs at least one year"));
    }
    if !(0.0..1.0).contains(&cfg.cycle_phi) {
        return Err(RiskError::invalid("cycle_phi must be in [0,1)"));
    }
    let trials = cat_ylt.trials();
    // Each year runs Iman–Conover over every column but the cycle's
    // (see below): dim − 1 columns, which need dim rows.
    let min_trials = engine.correlation.dim();
    if trials < min_trials {
        return Err(RiskError::invalid(format!(
            "horizon needs at least {min_trials} trials, got {trials}"
        )));
    }
    let c = engine.company;
    let base = SeedStream::new(cfg.seed);
    let cat = cat_ylt.agg_losses();

    let mut capital: Vec<f64> = vec![c.initial_capital; trials];
    let mut ruined: Vec<bool> = vec![false; trials];
    let mut cycle_state: Vec<f64> = vec![1.0; trials];
    let mut ruin_by_year = Vec::with_capacity(cfg.years);
    let mut mean_capital_by_year = Vec::with_capacity(cfg.years);

    for year in 0..cfg.years {
        // Per-year independent factor columns (correlated within the
        // year, exactly as the single-year engine does).
        let ystreams = SeedStream::new(base.derive(0xA220 + year as u64));
        let investment = engine.investment.simulate(trials, &ystreams);
        let rates = engine.rates.simulate(trials, &ystreams);
        let attritional = AttritionalModel {
            expected: c.attritional_expected,
            cv: c.attritional_cv,
        }
        .simulate(trials, &ystreams)?;
        let reserve_dev = engine.reserve.simulate(trials, &ystreams);
        let counterparty = engine.counterparty.simulate(trials, &ystreams);
        let operational = engine.operational.simulate(trials, &ystreams);
        // Correlate the four non-cycle market/underwriting columns with
        // the engine's correlation structure, dropping the cycle row
        // (the cycle is serial here, not redrawn): build the 4x4 minor.
        let mut cols = vec![investment, rates, attritional, reserve_dev];
        let minor = crate::correlate::CorrelationMatrix::new(4, {
            // Indices of [investment, rates, attritional, reserve] in the
            // engine's 5x5 [inv, rates, cycle, attr, reserve] matrix.
            let idx = [0usize, 1, 3, 4];
            let mut data = Vec::with_capacity(16);
            for &i in &idx {
                for &j in &idx {
                    data.push(engine.correlation.get(i, j));
                }
            }
            data
        })?;
        iman_conover(&mut cols, &minor, ystreams.derive(0xC0))?;
        let [investment, rates, attritional, reserve_dev]: [Vec<f64>; 4] =
            cols.try_into().expect("four columns");

        // Advance the serial cycle and assemble the year.
        let mut alive_ruins = 0usize;
        for t in 0..trials {
            let mut rng = ystreams.stream(t as u64 | (1 << 50));
            let z = normal_icdf(rng.next_f64_open());
            cycle_state[t] = 1.0 + cfg.cycle_phi * (cycle_state[t] - 1.0) + cfg.cycle_sigma * z;
            if ruined[t] {
                continue;
            }
            // Resample the catastrophe year: offset permutation keeps
            // years independent while preserving the YLT's marginal.
            let cat_index = (t + year * 2_654_435_761) % trials;
            let (_uw, ni) = trial_result(
                &c,
                cat[cat_index],
                cycle_state[t].max(0.1),
                attritional[t],
                reserve_dev[t],
                counterparty[t],
                operational[t],
                investment[t],
                rates[t],
            );
            capital[t] += ni;
            if capital[t] < 0.0 {
                ruined[t] = true;
                alive_ruins += 1;
            }
        }
        let _ = alive_ruins;
        let ruin_frac = ruined.iter().filter(|&&r| r).count() as f64 / trials as f64;
        ruin_by_year.push(ruin_frac);
        let mean_cap: RunningStats = capital.iter().copied().collect();
        mean_capital_by_year.push(mean_cap.mean());
    }
    Ok(HorizonResult {
        ruin_by_year,
        mean_capital_by_year,
        terminal_capital: capital,
        initial_capital: c.initial_capital,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::CompanyConfig;
    use riskpipe_types::TrialId;

    fn cat_ylt(trials: usize, severity: f64) -> Ylt {
        let mut y = Ylt::zeroed(trials);
        for t in 0..trials {
            let r = ((t * 2654435761) % trials) as f64 / trials as f64;
            let loss = severity * (-(1.0 - r).ln()).powf(2.0) * 10_000_000.0;
            y.set_trial(TrialId::new(t as u32), loss, loss * 0.7, 1);
        }
        y
    }

    #[test]
    fn ruin_is_monotone_in_horizon() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let result = run_horizon(
            &engine,
            &cat_ylt(5_000, 3.0),
            &HorizonConfig {
                years: 5,
                ..HorizonConfig::default()
            },
        )
        .unwrap();
        assert_eq!(result.ruin_by_year.len(), 5);
        for w in result.ruin_by_year.windows(2) {
            assert!(w[1] >= w[0], "cumulative ruin decreased: {w:?}");
        }
    }

    #[test]
    fn profitable_company_grows_capital() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let result = run_horizon(&engine, &cat_ylt(5_000, 2.0), &HorizonConfig::default()).unwrap();
        // Mean capital path should trend upward for a profitable book.
        assert!(
            result.mean_capital_by_year.last().unwrap()
                > result.mean_capital_by_year.first().unwrap()
        );
        assert!(result.mean_growth_rate() > 0.0);
    }

    #[test]
    fn thin_capital_ruins_more_over_longer_horizons() {
        let mut company = CompanyConfig::typical();
        company.initial_capital = 50_000_000.0;
        let engine = DfaEngine::typical(company);
        let ylt = cat_ylt(4_000, 6.0);
        let short = run_horizon(
            &engine,
            &ylt,
            &HorizonConfig {
                years: 1,
                ..HorizonConfig::default()
            },
        )
        .unwrap();
        let long = run_horizon(
            &engine,
            &ylt,
            &HorizonConfig {
                years: 8,
                ..HorizonConfig::default()
            },
        )
        .unwrap();
        let long_ruin = *long.ruin_by_year.last().unwrap();
        assert!(long_ruin >= *short.ruin_by_year.last().unwrap());
        assert!(long_ruin > 0.0, "thin capital should ruin sometimes");
    }

    #[test]
    fn deterministic_in_seed() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let ylt = cat_ylt(1_000, 3.0);
        let cfg = HorizonConfig::default();
        let a = run_horizon(&engine, &ylt, &cfg).unwrap();
        let b = run_horizon(&engine, &ylt, &cfg).unwrap();
        assert_eq!(a.terminal_capital, b.terminal_capital);
    }

    #[test]
    fn invalid_configs_rejected() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let ylt = cat_ylt(100, 1.0);
        assert!(run_horizon(
            &engine,
            &ylt,
            &HorizonConfig {
                years: 0,
                ..HorizonConfig::default()
            }
        )
        .is_err());
        assert!(run_horizon(
            &engine,
            &ylt,
            &HorizonConfig {
                cycle_phi: 1.5,
                ..HorizonConfig::default()
            }
        )
        .is_err());
        // Four correlated columns per year need five trials.
        let msg = run_horizon(&engine, &cat_ylt(4, 1.0), &HorizonConfig::default())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("at least 5 trials, got 4"), "{msg}");
        run_horizon(&engine, &cat_ylt(5, 1.0), &HorizonConfig::default()).unwrap();
    }
}
