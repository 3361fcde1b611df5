//! The DFA engine: join the catastrophe YLT with every other risk
//! factor and produce per-trial financial statements.
//!
//! Accounting identity per trial:
//!
//! ```text
//! net income = premium·cycle·(1 − expense ratio)
//!            − attritional losses
//!            − retained catastrophe loss
//!            − counterparty loss on ceded recoverables
//!            − operational losses
//!            − adverse reserve development
//!            + investment income
//!            + reserves · average short rate
//! ```
//!
//! The financial-market and underwriting factor columns get an
//! Iman–Conover rank correlation; the catastrophe column stays
//! trial-aligned with the YET (catastrophes are independent of capital
//! markets, and keeping the alignment preserves drill-down back to the
//! event level).

use crate::correlate::{iman_conover_on, serial_map, CorrelationMatrix, TaskMap, TASK_CHUNK};
use crate::factors::{
    AttritionalModel, CounterpartyModel, InvestmentModel, MarketCycleModel, OperationalModel,
    ReserveModel, VasicekModel,
};
use riskpipe_tables::Ylt;
use riskpipe_types::rng::SeedStream;
use riskpipe_types::stats::{quantile_sorted, sort_f64, tail_mean_unsorted};
use riskpipe_types::{RiskError, RiskResult, RunningStats};

/// Balance-sheet and underwriting configuration of the company.
#[derive(Debug, Clone, Copy)]
pub struct CompanyConfig {
    /// Gross written premium for the year.
    pub gross_premium: f64,
    /// Expense ratio on premium.
    pub expense_ratio: f64,
    /// Starting capital.
    pub initial_capital: f64,
    /// Invested asset base.
    pub invested_assets: f64,
    /// Carried reserves.
    pub reserves: f64,
    /// Fraction of the catastrophe loss ceded to retrocessionaires
    /// (exposed to counterparty default).
    pub ceded_fraction: f64,
    /// Expected attritional losses.
    pub attritional_expected: f64,
    /// Attritional coefficient of variation.
    pub attritional_cv: f64,
}

impl CompanyConfig {
    /// A mid-size reinsurer in round numbers.
    pub fn typical() -> Self {
        Self {
            gross_premium: 500_000_000.0,
            expense_ratio: 0.30,
            initial_capital: 1_000_000_000.0,
            invested_assets: 1_500_000_000.0,
            reserves: 800_000_000.0,
            ceded_fraction: 0.25,
            attritional_expected: 200_000_000.0,
            attritional_cv: 0.15,
        }
    }

    /// Check every field: each must be finite; premium and capital
    /// positive; invested assets and reserves non-negative; the expense
    /// ratio in `[0, 1)`, the ceded fraction in `[0, 1]`; and the
    /// attritional parameters as [`AttritionalModel`] requires them. A
    /// NaN fails every check (a NaN capital would otherwise read as a
    /// company that never ruins).
    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "the negated comparisons are deliberate: `!(x > 0.0)` and `!(x >= 0.0)` \
                  also reject NaN, which `x <= 0.0` and `x < 0.0` would let through"
    )]
    pub fn validate(&self) -> RiskResult<()> {
        let fields = [
            ("gross_premium", self.gross_premium),
            ("expense_ratio", self.expense_ratio),
            ("initial_capital", self.initial_capital),
            ("invested_assets", self.invested_assets),
            ("reserves", self.reserves),
            ("ceded_fraction", self.ceded_fraction),
            ("attritional_expected", self.attritional_expected),
            ("attritional_cv", self.attritional_cv),
        ];
        if let Some((name, value)) = fields.iter().find(|(_, x)| !x.is_finite()) {
            return Err(RiskError::invalid(format!(
                "company {name} must be finite, got {value}"
            )));
        }
        if !(self.gross_premium > 0.0) || !(self.initial_capital > 0.0) {
            return Err(RiskError::invalid("premium and capital must be positive"));
        }
        if !(self.invested_assets >= 0.0) || !(self.reserves >= 0.0) {
            return Err(RiskError::invalid(
                "invested assets and reserves must be non-negative",
            ));
        }
        if !(0.0..1.0).contains(&self.expense_ratio) {
            return Err(RiskError::invalid("expense ratio must be in [0,1)"));
        }
        if !(0.0..=1.0).contains(&self.ceded_fraction) {
            return Err(RiskError::invalid("ceded fraction must be in [0,1]"));
        }
        AttritionalModel {
            expected: self.attritional_expected,
            cv: self.attritional_cv,
        }
        .validate()
    }
}

/// The full DFA model: company plus factor models plus the correlation
/// among the (non-catastrophe) factor columns.
#[derive(Debug, Clone)]
pub struct DfaEngine {
    /// Company configuration.
    pub company: CompanyConfig,
    /// Investment portfolio model.
    pub investment: InvestmentModel,
    /// Short-rate model.
    pub rates: VasicekModel,
    /// Underwriting-cycle model.
    pub cycle: MarketCycleModel,
    /// Counterparty default model.
    pub counterparty: CounterpartyModel,
    /// Operational risk model.
    pub operational: OperationalModel,
    /// Reserve development model.
    pub reserve: ReserveModel,
    /// Rank correlation among [investment, rates, cycle, attritional,
    /// reserve] (5×5).
    pub correlation: CorrelationMatrix,
}

impl DfaEngine {
    /// An engine with typical market parameters and a plausible
    /// dependence structure (investments co-move with rates and the
    /// cycle; reserves correlate with attritional experience).
    pub fn typical(company: CompanyConfig) -> Self {
        let correlation = CorrelationMatrix::new(
            5,
            vec![
                1.0, -0.3, 0.2, 0.0, 0.0, //
                -0.3, 1.0, 0.1, 0.0, 0.0, //
                0.2, 0.1, 1.0, 0.2, 0.1, //
                0.0, 0.0, 0.2, 1.0, 0.3, //
                0.0, 0.0, 0.1, 0.3, 1.0,
            ],
        )
        .expect("static matrix is PD");
        Self {
            company,
            investment: InvestmentModel {
                assets: company.invested_assets,
                mu: 0.05,
                sigma: 0.12,
            },
            rates: VasicekModel {
                r0: 0.03,
                kappa: 0.8,
                theta: 0.035,
                sigma: 0.01,
            },
            cycle: MarketCycleModel {
                mean_factor: 1.0,
                sigma: 0.08,
            },
            counterparty: CounterpartyModel {
                default_prob: 0.01,
                recovery_rate: 0.5,
            },
            operational: OperationalModel {
                frequency: 0.5,
                severity_mean: 20_000_000.0,
                severity_cv: 2.0,
            },
            reserve: ReserveModel {
                reserves: company.reserves,
                cv: 0.04,
            },
            correlation,
        }
    }

    /// Run DFA against a catastrophe YLT: build the factor block for
    /// its trial count single-threaded, then [`Self::apply`] it.
    pub fn run(&self, cat_ylt: &Ylt, seed: u64) -> RiskResult<DfaResult> {
        let factors = self.simulate_factors(cat_ylt.trials(), seed, &serial_map)?;
        self.apply(&factors, cat_ylt)
    }

    /// Everything DFA needs that no catastrophe loss can change: the
    /// seven factor columns for `trials` trials under `seed`, the five
    /// market/underwriting ones already reordered by Iman–Conover. The
    /// independent pieces — each factor column in [`TASK_CHUNK`]-trial
    /// slices, written in place into columns allocated at final size,
    /// then the pieces of Iman–Conover that
    /// [`correlate`](crate::correlate) lists — run through `map`; the
    /// block is bit-identical for every conforming [`TaskMap`].
    pub fn simulate_factors(
        &self,
        trials: usize,
        seed: u64,
        map: &TaskMap<'_>,
    ) -> RiskResult<DfaFactors> {
        self.company.validate()?;
        let min_trials = self.correlation.dim() + 1;
        if trials < min_trials {
            return Err(RiskError::invalid(format!(
                "DFA needs at least {min_trials} trials, got {trials}"
            )));
        }
        let attritional = AttritionalModel {
            expected: self.company.attritional_expected,
            cv: self.company.attritional_cv,
        };
        attritional.validate()?;
        let streams = SeedStream::new(seed);

        // Simulate the factor columns, in `DfaFactors::columns` order:
        // slice i is chunk i % chunks of column i / chunks.
        let chunks = trials.div_ceil(TASK_CHUNK);
        let mut columns: [Vec<f64>; 7] = std::array::from_fn(|_| vec![0.0; trials]);
        let mut slices: Vec<&mut [f64]> = columns
            .iter_mut()
            .flat_map(|column| column.chunks_mut(TASK_CHUNK))
            .collect();
        map(&mut slices, &|i, out| {
            let first = (i % chunks) * TASK_CHUNK;
            match i / chunks {
                0 => self.investment.fill(first, out, &streams),
                1 => self.rates.fill(first, out, &streams),
                2 => self.cycle.fill(first, out, &streams),
                3 => attritional.fill(first, out, &streams),
                4 => self.reserve.fill(first, out, &streams),
                5 => self.counterparty.fill(first, out, &streams),
                _ => self.operational.fill(first, out, &streams),
            }
        });

        // Correlate the market/underwriting columns.
        let shuffle_seed = streams.derive(0xC0_44);
        iman_conover_on(&mut columns[..5], &self.correlation, shuffle_seed, map)?;
        Ok(DfaFactors { columns })
    }

    /// Assemble the per-trial statements: the accounting identity over
    /// a prebuilt factor block and a catastrophe YLT of the same trial
    /// count.
    pub fn apply(&self, factors: &DfaFactors, cat_ylt: &Ylt) -> RiskResult<DfaResult> {
        self.company.validate()?;
        let trials = cat_ylt.trials();
        if factors.trials() != trials {
            return Err(RiskError::invalid(format!(
                "DFA factor block holds {} trials but the YLT has {trials}",
                factors.trials()
            )));
        }
        let c = &self.company;
        let [investment, rates, cycle, attritional, reserve_dev, counterparty, operational] =
            &factors.columns;
        let net_income = cat_ylt
            .agg_losses()
            .iter()
            .enumerate()
            .map(|(t, &cat_gross)| {
                trial_result(
                    c,
                    cat_gross,
                    cycle[t],
                    attritional[t],
                    reserve_dev[t],
                    counterparty[t],
                    operational[t],
                    investment[t],
                    rates[t],
                )
                .1
            })
            .collect();
        Ok(DfaResult {
            net_income,
            initial_capital: c.initial_capital,
        })
    }
}

/// The terms-independent half of a DFA run: seven per-trial factor
/// columns, post-correlation, for one `(engine, trials, seed)`. Built by
/// [`DfaEngine::simulate_factors`], consumed by [`DfaEngine::apply`] —
/// once per scenario that shares the seed and trial count.
#[derive(Debug)]
pub struct DfaFactors {
    /// Investment, rates, cycle, attritional, reserve development (the
    /// five Iman–Conover reorders), then counterparty, operational.
    columns: [Vec<f64>; 7],
}

impl DfaFactors {
    /// Trials per column.
    pub fn trials(&self) -> usize {
        self.columns[0].len()
    }

    /// The columns in a fixed order: investment, rates, cycle,
    /// attritional, reserve development, counterparty, operational.
    pub fn columns(&self) -> &[Vec<f64>; 7] {
        &self.columns
    }

    /// Heap bytes held: 7 columns × 8 B × trials.
    pub fn memory_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| std::mem::size_of_val(&c[..]))
            .sum()
    }
}

/// The accounting identity for one trial-year: returns
/// `(underwriting result, net income)`. Shared by the single-year
/// engine and the multi-year horizon so the two can never drift apart.
#[allow(
    clippy::too_many_arguments,
    reason = "the identity takes each of the trial's factor draws by name; a \
              wrapper struct would only rename them"
)]
pub(crate) fn trial_result(
    c: &CompanyConfig,
    cat_gross: f64,
    cycle: f64,
    attritional: f64,
    reserve_dev: f64,
    counterparty_lost_frac: f64,
    operational: f64,
    investment: f64,
    avg_rate: f64,
) -> (f64, f64) {
    let premium_net = c.gross_premium * cycle * (1.0 - c.expense_ratio);
    let ceded = cat_gross * c.ceded_fraction;
    let retained_cat = cat_gross - ceded;
    let cp_loss = ceded * counterparty_lost_frac;
    let uw = premium_net - attritional - retained_cat - cp_loss - operational - reserve_dev;
    let fin = investment + c.reserves * avg_rate;
    (uw, uw + fin)
}

/// Per-trial DFA outputs and the derived enterprise metrics.
#[derive(Debug, Clone)]
pub struct DfaResult {
    /// Net income per trial.
    pub net_income: Vec<f64>,
    /// Starting capital (for ruin: ending capital is starting capital
    /// plus net income).
    pub initial_capital: f64,
}

impl DfaResult {
    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.net_income.len()
    }

    /// Probability that ending capital is negative.
    pub fn prob_ruin(&self) -> f64 {
        let ruined = self
            .net_income
            .iter()
            .filter(|&&ni| self.initial_capital + ni < 0.0)
            .count();
        ruined as f64 / self.trials() as f64
    }

    /// Mean net income.
    pub fn mean_net_income(&self) -> f64 {
        let s: RunningStats = self.net_income.iter().copied().collect();
        s.mean()
    }

    /// `alpha`-VaR of the *net loss* (−net income).
    pub fn var_net_loss(&self, alpha: f64) -> f64 {
        let mut losses: Vec<f64> = self.net_income.iter().map(|&x| -x).collect();
        sort_f64(&mut losses);
        quantile_sorted(&losses, alpha)
    }

    /// `alpha`-TVaR of the net loss. Only the tail is sorted
    /// ([`tail_mean_unsorted`]): a sweep computes this once per
    /// scenario.
    pub fn tvar_net_loss(&self, alpha: f64) -> f64 {
        let mut losses: Vec<f64> = self.net_income.iter().map(|&x| -x).collect();
        tail_mean_unsorted(&mut losses, alpha)
    }

    /// Economic capital: TVaR₉₉ of net loss above its mean.
    pub fn economic_capital(&self) -> f64 {
        self.tvar_net_loss(0.99) + self.mean_net_income()
    }

    /// Expected return on economic capital.
    pub fn return_on_capital(&self) -> f64 {
        let ec = self.economic_capital();
        if ec <= 0.0 {
            0.0
        } else {
            self.mean_net_income() / ec
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::TrialId;

    /// A cat YLT with lognormal-ish spread: mostly small years, a few
    /// disasters.
    fn cat_ylt(trials: usize, severity: f64) -> Ylt {
        let mut y = Ylt::zeroed(trials);
        for t in 0..trials {
            // Deterministic skewed profile.
            let r = ((t * 2654435761) % trials) as f64 / trials as f64;
            let loss = severity * (-(1.0 - r).ln()).powf(2.0) * 10_000_000.0;
            y.set_trial(TrialId::new(t as u32), loss, loss * 0.7, 1);
        }
        y
    }

    #[test]
    fn runs_and_reports_plausible_metrics() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let result = engine.run(&cat_ylt(20_000, 3.0), 42).unwrap();
        assert_eq!(result.trials(), 20_000);
        // A typical config should be profitable in expectation but
        // carry tail risk.
        assert!(result.mean_net_income() > 0.0);
        assert!(result.tvar_net_loss(0.99) > result.var_net_loss(0.99));
        assert!(result.economic_capital() > 0.0);
        let roc = result.return_on_capital();
        assert!(roc > 0.0 && roc < 2.0, "roc={roc}");
        let ruin = result.prob_ruin();
        assert!(ruin < 0.05, "ruin={ruin}");
    }

    #[test]
    fn heavier_cat_risk_worsens_everything() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let light = engine.run(&cat_ylt(10_000, 1.0), 7).unwrap();
        let heavy = engine.run(&cat_ylt(10_000, 12.0), 7).unwrap();
        assert!(heavy.mean_net_income() < light.mean_net_income());
        assert!(heavy.tvar_net_loss(0.99) > light.tvar_net_loss(0.99));
        assert!(heavy.prob_ruin() >= light.prob_ruin());
    }

    #[test]
    fn deterministic_in_seed() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let ylt = cat_ylt(2_000, 3.0);
        let a = engine.run(&ylt, 5).unwrap();
        let b = engine.run(&ylt, 5).unwrap();
        assert_eq!(a.net_income, b.net_income);
        let c = engine.run(&ylt, 6).unwrap();
        assert_ne!(a.net_income, c.net_income);
    }

    #[test]
    fn ruin_probability_counts_negative_capital() {
        let mut company = CompanyConfig::typical();
        company.initial_capital = 1_000.0; // absurdly thin capital
        let engine = DfaEngine::typical(company);
        let result = engine.run(&cat_ylt(5_000, 3.0), 1).unwrap();
        // With no capital buffer, ruin ≈ P(net income < 0), which for a
        // profitable-in-expectation reinsurer is a material minority of
        // trials.
        assert!(result.prob_ruin() > 0.08, "ruin={}", result.prob_ruin());
        // And a solidly capitalised company essentially never ruins.
        let solid = DfaEngine::typical(CompanyConfig::typical())
            .run(&cat_ylt(5_000, 3.0), 1)
            .unwrap();
        assert!(solid.prob_ruin() < result.prob_ruin());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut bad = CompanyConfig::typical();
        bad.expense_ratio = 1.5;
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let mut e2 = engine.clone();
        e2.company = bad;
        assert!(e2.run(&cat_ylt(100, 1.0), 0).is_err());
        // Too few trials.
        assert!(engine.run(&Ylt::zeroed(1), 0).is_err());
    }

    #[test]
    fn every_company_field_must_be_finite_and_signed_right() {
        type Field = fn(&mut CompanyConfig) -> &mut f64;
        let fields: [(&str, Field); 8] = [
            ("gross_premium", |c| &mut c.gross_premium),
            ("expense_ratio", |c| &mut c.expense_ratio),
            ("initial_capital", |c| &mut c.initial_capital),
            ("invested_assets", |c| &mut c.invested_assets),
            ("reserves", |c| &mut c.reserves),
            ("ceded_fraction", |c| &mut c.ceded_fraction),
            ("attritional_expected", |c| &mut c.attritional_expected),
            ("attritional_cv", |c| &mut c.attritional_cv),
        ];
        assert!(CompanyConfig::typical().validate().is_ok());
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let block = engine.simulate_factors(6, 1, &serial_map).unwrap();
        for (name, field) in fields {
            // Negative is out of range for every field.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
                let mut company = CompanyConfig::typical();
                *field(&mut company) = bad;
                let err = company.validate().expect_err(name);
                assert!(matches!(err, RiskError::InvalidParameter(_)), "{name}");
                if !bad.is_finite() {
                    assert!(err.to_string().contains(name), "{name}: {err}");
                }
                // `apply` keeps the check for engines built by hand.
                let mut bad_engine = engine.clone();
                bad_engine.company = company;
                assert!(bad_engine.apply(&block, &Ylt::zeroed(6)).is_err(), "{name}");
            }
        }
        // Zero is legal for the assets, the reserves and the two ratios only.
        for (name, field) in fields {
            let mut company = CompanyConfig::typical();
            *field(&mut company) = 0.0;
            let legal = matches!(
                name,
                "invested_assets" | "reserves" | "expense_ratio" | "ceded_fraction"
            );
            assert_eq!(company.validate().is_ok(), legal, "{name} = 0");
        }
    }

    #[test]
    fn minimum_trial_count_is_stated_and_true() {
        // Iman–Conover over five columns needs six rows; anything less
        // is refused up front, by name, not by a Cholesky failure deep
        // inside that blames the (valid) target matrix.
        let engine = DfaEngine::typical(CompanyConfig::typical());
        for trials in 2..=5 {
            let err = engine.run(&cat_ylt(trials, 1.0), 0).unwrap_err();
            assert!(matches!(err, RiskError::InvalidParameter(_)), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains("at least 6 trials") && msg.contains(&format!("got {trials}")),
                "{trials} trials: {msg}"
            );
        }
        assert_eq!(engine.run(&cat_ylt(6, 1.0), 0).unwrap().trials(), 6);
    }

    /// A conforming [`TaskMap`] that runs the tasks last to first.
    fn reverse_map(slices: &mut [&mut [f64]], task: &(dyn Fn(usize, &mut [f64]) + Sync)) {
        for (i, slice) in slices.iter_mut().enumerate().rev() {
            task(i, slice);
        }
    }

    /// `(underwriting result, net income)` per trial of `ylt`, from the
    /// shared accounting identity over `block`.
    fn trial_statements(engine: &DfaEngine, block: &DfaFactors, ylt: &Ylt) -> Vec<(f64, f64)> {
        let [investment, rates, cycle, attritional, reserve_dev, counterparty, operational] =
            block.columns();
        (0..ylt.trials())
            .map(|t| {
                trial_result(
                    &engine.company,
                    ylt.agg_losses()[t],
                    cycle[t],
                    attritional[t],
                    reserve_dev[t],
                    counterparty[t],
                    operational[t],
                    investment[t],
                    rates[t],
                )
            })
            .collect()
    }

    fn column_bits(factors: &DfaFactors) -> Vec<Vec<u64>> {
        let bits = |c: &Vec<f64>| c.iter().map(|x| x.to_bits()).collect();
        factors.columns().iter().map(bits).collect()
    }

    #[test]
    fn factor_block_is_bit_identical_whatever_order_the_tasks_run_in() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        for trials in [
            100, // below one chunk
            TASK_CHUNK - 1,
            TASK_CHUNK,
            TASK_CHUNK + 1,
            2 * TASK_CHUNK + 777, // not a multiple
        ] {
            let serial = engine.simulate_factors(trials, 9, &serial_map).unwrap();
            let reversed = engine.simulate_factors(trials, 9, &reverse_map).unwrap();
            assert_eq!(serial.trials(), trials);
            assert_eq!(serial.memory_bytes(), 7 * 8 * trials);
            assert_eq!(column_bits(&serial), column_bits(&reversed), "{trials}");
        }
    }

    /// FNV-1a over every bit of the seven columns, in column order.
    fn block_hash(factors: &DfaFactors) -> u64 {
        let mut fp = riskpipe_types::Fingerprint::new("dfa::factors");
        for x in factors.columns().iter().flatten() {
            fp.push_f64(*x);
        }
        fp.finish()
    }

    #[test]
    fn factor_block_bits_are_pinned() {
        // The DFA goldens only see derived metrics; this pins every bit
        // of the block itself, across chunk seams and at the minimum
        // trial count.
        let engine = DfaEngine::typical(CompanyConfig::typical());
        for (trials, seed, want) in [
            (2 * TASK_CHUNK + 777, 9, 6_991_784_966_543_476_338),
            (6, 1, 5_514_008_134_728_824_940),
        ] {
            let block = engine.simulate_factors(trials, seed, &serial_map).unwrap();
            assert_eq!(block_hash(&block), want, "{trials} trials, seed {seed}");
        }
    }

    #[test]
    fn factor_columns_keep_their_marginals_across_chunk_seams() {
        // The two uncorrelated columns come straight out of the chunked
        // simulation: element t must be what the model draws for trial
        // t, on either side of a chunk boundary.
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let trials = TASK_CHUNK + 3;
        let streams = SeedStream::new(4);
        let block = engine.simulate_factors(trials, 4, &serial_map).unwrap();
        let [.., counterparty, operational] = block.columns();
        assert_eq!(
            counterparty,
            &engine.counterparty.simulate(trials, &streams)
        );
        assert_eq!(operational, &engine.operational.simulate(trials, &streams));
    }

    #[test]
    fn run_is_apply_over_the_simulated_block() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let ylt = cat_ylt(3_000, 3.0);
        let whole = engine.run(&ylt, 11).unwrap();
        let block = engine.simulate_factors(3_000, 11, &reverse_map).unwrap();
        let split = engine.apply(&block, &ylt).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&whole.net_income), bits(&split.net_income));
        // Net income is the identity's second half, trial by trial, and
        // ruin is read off ending capital = starting capital + it.
        let statements = trial_statements(&engine, &block, &ylt);
        let ni: Vec<f64> = statements.iter().map(|&(_, ni)| ni).collect();
        assert_eq!(bits(&ni), bits(&split.net_income));
        let ruined = ni
            .iter()
            .filter(|&&ni| engine.company.initial_capital + ni < 0.0)
            .count();
        assert_eq!(split.prob_ruin(), ruined as f64 / 3_000.0);
        // One block serves any YLT of its length.
        let heavier = engine.apply(&block, &cat_ylt(3_000, 9.0)).unwrap();
        assert!(heavier.mean_net_income() < split.mean_net_income());
    }

    #[test]
    fn apply_rejects_a_ylt_of_another_length() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let block = engine.simulate_factors(200, 1, &serial_map).unwrap();
        for trials in [199, 201] {
            let err = engine.apply(&block, &cat_ylt(trials, 1.0)).unwrap_err();
            assert!(matches!(err, RiskError::InvalidParameter(_)), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains("200") && msg.contains(&trials.to_string()),
                "{msg}"
            );
        }
    }

    #[test]
    fn underwriting_and_financial_components_add_up() {
        let engine = DfaEngine::typical(CompanyConfig::typical());
        let ylt = cat_ylt(1_000, 2.0);
        let result = engine.run(&ylt, 3).unwrap();
        let block = engine.simulate_factors(1_000, 3, &serial_map).unwrap();
        let statements = trial_statements(&engine, &block, &ylt);
        // net income − underwriting = financial result, which should be
        // investment-driven: centred near 5% of assets + rate on
        // reserves and identical in distribution across trials.
        let fin: Vec<f64> = result
            .net_income
            .iter()
            .zip(&statements)
            .map(|(ni, (uw, _))| ni - uw)
            .collect();
        let stats: RunningStats = fin.iter().copied().collect();
        let c = CompanyConfig::typical();
        let rough_expect = c.invested_assets * 0.05 + c.reserves * 0.035;
        assert!(
            (stats.mean() - rough_expect).abs() < 0.25 * rough_expect,
            "mean fin {} vs rough {}",
            stats.mean(),
            rough_expect
        );
    }
}
