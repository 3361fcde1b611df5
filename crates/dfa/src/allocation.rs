//! Capital allocation: attributing the enterprise tail back to units.
//!
//! The enterprise roll-up gives one number — TVaR of the consolidated
//! loss — but "internal risk management and reporting" (the paper's
//! stated use of these metrics) needs that capital *attributed*: which
//! book of business consumes how much of the tail? Three standard
//! allocations are implemented, all additive by construction (unit
//! shares sum to the enterprise TVaR):
//!
//! * **co-TVaR (Euler)** — each unit gets its expected loss in exactly
//!   the trials where the *enterprise* result is in the tail:
//!   `E[Xᵤ | S ≥ VaR_α(S)]`. The Euler/gradient allocation for the
//!   TVaR risk measure; reflects true tail co-movement.
//! * **covariance** — shares proportional to `Cov(Xᵤ, S)`; a
//!   variance-view approximation that is cheap and always defined.
//! * **proportional** — shares proportional to standalone TVaRs;
//!   ignores dependence entirely (the naive baseline actuaries start
//!   from).
//!
//! The gap between a unit's standalone TVaR and its co-TVaR share is
//! that unit's diversification benefit in capital terms.

use riskpipe_types::stats::{sort_f64, tail_mean_sorted};
use riskpipe_types::{KahanSum, RiskError, RiskResult};

/// Allocation method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationMethod {
    /// Euler allocation for TVaR: expected unit loss over enterprise
    /// tail trials.
    CoTvar,
    /// Proportional to `Cov(Xᵤ, S)` (which sums to `Var(S)`).
    Covariance,
    /// Proportional to standalone TVaRs.
    Proportional,
}

impl std::fmt::Display for AllocationMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AllocationMethod::CoTvar => "co-TVaR",
            AllocationMethod::Covariance => "covariance",
            AllocationMethod::Proportional => "proportional",
        };
        f.write_str(s)
    }
}

/// One unit's slice of the enterprise capital.
#[derive(Debug, Clone)]
pub struct UnitAllocation {
    /// Unit name.
    pub name: String,
    /// The unit's standalone TVaR at the same level.
    pub standalone_tvar: f64,
    /// Capital allocated to the unit.
    pub allocated: f64,
    /// `standalone − allocated`: the unit's diversification benefit in
    /// currency terms (can be negative for tail-concentrating units
    /// under co-TVaR).
    pub diversification: f64,
}

/// An additive attribution of the enterprise TVaR to units.
#[derive(Debug, Clone)]
pub struct CapitalAllocation {
    /// Tail level (e.g. 0.99).
    pub alpha: f64,
    /// Method used.
    pub method: AllocationMethod,
    /// Enterprise TVaR being allocated.
    pub enterprise_tvar: f64,
    /// Sum of standalone TVaRs (≥ enterprise TVaR for subadditive
    /// samples).
    pub sum_standalone: f64,
    /// Number of trials in the enterprise tail.
    pub tail_trials: usize,
    /// Per-unit slices, in input order.
    pub units: Vec<UnitAllocation>,
}

impl CapitalAllocation {
    /// Enterprise-level diversification benefit
    /// `1 − enterprise TVaR / Σ standalone`.
    pub fn diversification_benefit(&self) -> f64 {
        if self.sum_standalone > 0.0 {
            (1.0 - self.enterprise_tvar / self.sum_standalone).max(0.0)
        } else {
            0.0
        }
    }
}

/// Allocate the enterprise TVaR at `alpha` across `units` (parallel
/// per-trial loss columns; `names` label the outputs).
pub fn allocate(
    names: &[String],
    units: &[Vec<f64>],
    alpha: f64,
    method: AllocationMethod,
) -> RiskResult<CapitalAllocation> {
    if units.is_empty() {
        return Err(RiskError::invalid("no units to allocate across"));
    }
    if names.len() != units.len() {
        return Err(RiskError::invalid(format!(
            "{} names for {} units",
            names.len(),
            units.len()
        )));
    }
    let trials = units[0].len();
    if trials == 0 {
        return Err(RiskError::invalid("units have zero trials"));
    }
    if units.iter().any(|u| u.len() != trials) {
        return Err(RiskError::invalid("unit columns must share a trial count"));
    }
    if !(0.0..1.0).contains(&alpha) {
        return Err(RiskError::invalid(format!("alpha {alpha} outside [0, 1)")));
    }

    // Enterprise per-trial losses.
    let mut enterprise = vec![0.0f64; trials];
    for col in units {
        for (t, &v) in col.iter().enumerate() {
            enterprise[t] += v;
        }
    }

    // Tail trial set: mirror tail_mean_sorted's convention exactly so
    // the co-TVaR shares sum to the reported TVaR.
    let mut idx: Vec<usize> = (0..trials).collect();
    idx.sort_unstable_by(|&a, &b| enterprise[a].total_cmp(&enterprise[b]).then(a.cmp(&b)));
    let start = ((alpha * trials as f64).ceil() as usize).min(trials - 1);
    let tail = &idx[start..];

    let tail_sum: KahanSum = tail.iter().map(|&t| enterprise[t]).collect();
    let enterprise_tvar = tail_sum.total() / tail.len() as f64;

    // Standalone TVaRs.
    let standalone: Vec<f64> = units
        .iter()
        .map(|col| {
            let mut s = col.clone();
            sort_f64(&mut s);
            tail_mean_sorted(&s, alpha)
        })
        .collect();
    let sum_standalone: f64 = {
        let k: KahanSum = standalone.iter().copied().collect();
        k.total()
    };

    let allocated: Vec<f64> = match method {
        AllocationMethod::CoTvar => units
            .iter()
            .map(|col| {
                let k: KahanSum = tail.iter().map(|&t| col[t]).collect();
                k.total() / tail.len() as f64
            })
            .collect(),
        AllocationMethod::Covariance => {
            let mean_s = {
                let k: KahanSum = enterprise.iter().copied().collect();
                k.total() / trials as f64
            };
            // Cov(Xᵤ, S) for each unit; Σᵤ Cov(Xᵤ, S) = Var(S).
            let covs: Vec<f64> = units
                .iter()
                .map(|col| {
                    let mean_u = {
                        let k: KahanSum = col.iter().copied().collect();
                        k.total() / trials as f64
                    };
                    let k: KahanSum = col
                        .iter()
                        .zip(enterprise.iter())
                        .map(|(&x, &s)| (x - mean_u) * (s - mean_s))
                        .collect();
                    k.total() / trials as f64
                })
                .collect();
            let var_s: f64 = covs.iter().sum();
            if var_s <= 0.0 {
                // Degenerate (constant S): fall back to equal shares.
                vec![enterprise_tvar / units.len() as f64; units.len()]
            } else {
                covs.iter().map(|c| enterprise_tvar * c / var_s).collect()
            }
        }
        AllocationMethod::Proportional => {
            if sum_standalone <= 0.0 {
                vec![enterprise_tvar / units.len() as f64; units.len()]
            } else {
                standalone
                    .iter()
                    .map(|&s| enterprise_tvar * s / sum_standalone)
                    .collect()
            }
        }
    };

    let units_out: Vec<UnitAllocation> = names
        .iter()
        .zip(standalone.iter().zip(allocated.iter()))
        .map(|(name, (&sa, &al))| UnitAllocation {
            name: name.clone(),
            standalone_tvar: sa,
            allocated: al,
            diversification: sa - al,
        })
        .collect();

    Ok(CapitalAllocation {
        alpha,
        method,
        enterprise_tvar,
        sum_standalone,
        tail_trials: tail.len(),
        units: units_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::rng::{Rng64, SplitMix64};

    fn lognormalish(trials: usize, seed: u64, scale: f64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..trials)
            .map(|_| {
                let u = rng.next_f64().clamp(1e-12, 1.0 - 1e-12);
                scale * (1.0 / (1.0 - u)).powf(0.8)
            })
            .collect()
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("unit-{i}")).collect()
    }

    /// Total allocated: equals `enterprise_tvar` up to fp association
    /// for every additive method.
    fn total_allocated(a: &CapitalAllocation) -> f64 {
        let k: KahanSum = a.units.iter().map(|u| u.allocated).collect();
        k.total()
    }

    #[test]
    fn co_tvar_is_additive() {
        let units = vec![
            lognormalish(20_000, 1, 1e6),
            lognormalish(20_000, 2, 2e6),
            lognormalish(20_000, 3, 5e5),
        ];
        let a = allocate(&names(3), &units, 0.99, AllocationMethod::CoTvar).unwrap();
        let rel = (total_allocated(&a) - a.enterprise_tvar).abs() / a.enterprise_tvar;
        assert!(rel < 1e-12, "relative gap {rel}");
        assert_eq!(a.tail_trials, 200);
    }

    #[test]
    fn covariance_and_proportional_are_additive() {
        let units = vec![lognormalish(10_000, 4, 1e6), lognormalish(10_000, 5, 3e6)];
        for m in [AllocationMethod::Covariance, AllocationMethod::Proportional] {
            let a = allocate(&names(2), &units, 0.995, m).unwrap();
            let rel = (total_allocated(&a) - a.enterprise_tvar).abs() / a.enterprise_tvar;
            assert!(rel < 1e-9, "{m}: relative gap {rel}");
        }
    }

    #[test]
    fn comonotone_units_get_their_standalone() {
        // Identical columns: no diversification; co-TVaR share equals
        // the standalone TVaR for each.
        let col = lognormalish(5_000, 9, 1e6);
        let units = vec![col.clone(), col.clone()];
        let a = allocate(&names(2), &units, 0.99, AllocationMethod::CoTvar).unwrap();
        for u in &a.units {
            let rel = (u.allocated - u.standalone_tvar).abs() / u.standalone_tvar;
            assert!(rel < 1e-12, "{rel}");
            assert!(u.diversification.abs() < 1e-6 * u.standalone_tvar);
        }
        assert!(a.diversification_benefit() < 1e-12);
    }

    #[test]
    fn independent_units_diversify() {
        let units = vec![
            lognormalish(50_000, 11, 1e6),
            lognormalish(50_000, 12, 1e6),
            lognormalish(50_000, 13, 1e6),
        ];
        let a = allocate(&names(3), &units, 0.99, AllocationMethod::CoTvar).unwrap();
        // Every independent unit's allocated capital sits below its
        // standalone tail.
        for u in &a.units {
            assert!(
                u.allocated < u.standalone_tvar,
                "{}: {} !< {}",
                u.name,
                u.allocated,
                u.standalone_tvar
            );
            assert!(u.diversification > 0.0);
        }
        assert!(a.diversification_benefit() > 0.2);
        assert!(a.sum_standalone > a.enterprise_tvar);
    }

    #[test]
    fn dominant_unit_draws_most_capital() {
        let units = vec![lognormalish(20_000, 21, 1e7), lognormalish(20_000, 22, 1e5)];
        for m in [
            AllocationMethod::CoTvar,
            AllocationMethod::Covariance,
            AllocationMethod::Proportional,
        ] {
            let a = allocate(&names(2), &units, 0.99, m).unwrap();
            assert!(
                a.units[0].allocated > 10.0 * a.units[1].allocated,
                "{m}: {} vs {}",
                a.units[0].allocated,
                a.units[1].allocated
            );
        }
    }

    #[test]
    fn methods_agree_on_total_but_differ_on_shares() {
        // Correlate unit 0 with the enterprise tail by construction:
        // unit 0 *is* heavy-tailed, unit 1 is thin.
        let heavy = lognormalish(30_000, 31, 1e6);
        let thin: Vec<f64> = lognormalish(30_000, 32, 1e6)
            .into_iter()
            .map(|x| x.min(3e6))
            .collect();
        let units = vec![heavy, thin];
        let co = allocate(&names(2), &units, 0.99, AllocationMethod::CoTvar).unwrap();
        let prop = allocate(&names(2), &units, 0.99, AllocationMethod::Proportional).unwrap();
        let rel = (total_allocated(&co) - total_allocated(&prop)).abs() / total_allocated(&co);
        assert!(rel < 1e-9);
        // co-TVaR sees the tail concentration that proportional dilutes.
        assert!(co.units[0].allocated > prop.units[0].allocated);
    }

    #[test]
    fn validation_errors() {
        assert!(allocate(&[], &[], 0.99, AllocationMethod::CoTvar).is_err());
        let u = vec![vec![1.0, 2.0]];
        assert!(allocate(&names(2), &u, 0.99, AllocationMethod::CoTvar).is_err());
        let uneven = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(allocate(&names(2), &uneven, 0.99, AllocationMethod::CoTvar).is_err());
        assert!(allocate(&names(1), &u, 1.0, AllocationMethod::CoTvar).is_err());
        assert!(allocate(&names(1), &u, -0.1, AllocationMethod::CoTvar).is_err());
        let empty = vec![Vec::new()];
        assert!(allocate(&names(1), &empty, 0.9, AllocationMethod::CoTvar).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn unit_columns() -> impl Strategy<Value = Vec<Vec<f64>>> {
            (2usize..5, 20usize..80).prop_flat_map(|(units, trials)| {
                prop::collection::vec(
                    prop::collection::vec(0.0..1e6f64, trials..=trials),
                    units..=units,
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn every_method_is_additive(cols in unit_columns(), alpha in 0.5..0.99f64) {
                let names: Vec<String> = (0..cols.len()).map(|i| format!("u{i}")).collect();
                for m in [
                    AllocationMethod::CoTvar,
                    AllocationMethod::Covariance,
                    AllocationMethod::Proportional,
                ] {
                    let a = allocate(&names, &cols, alpha, m).unwrap();
                    let gap = (total_allocated(&a) - a.enterprise_tvar).abs();
                    prop_assert!(
                        gap <= 1e-9 * a.enterprise_tvar.abs().max(1.0),
                        "{m}: gap {gap}"
                    );
                }
            }

            #[test]
            fn subadditivity_of_the_sample_tvar(cols in unit_columns()) {
                // Σ standalone TVaR ≥ enterprise TVaR on any sample.
                let names: Vec<String> = (0..cols.len()).map(|i| format!("u{i}")).collect();
                let a = allocate(&names, &cols, 0.9, AllocationMethod::CoTvar).unwrap();
                prop_assert!(a.sum_standalone >= a.enterprise_tvar - 1e-9 * a.enterprise_tvar.abs().max(1.0));
                prop_assert!((0.0..=1.0).contains(&a.diversification_benefit()));
            }

            #[test]
            fn co_tvar_shares_never_exceed_standalone_max(cols in unit_columns()) {
                // E[Xᵤ | tail] can never exceed the unit's own maximum.
                let names: Vec<String> = (0..cols.len()).map(|i| format!("u{i}")).collect();
                let a = allocate(&names, &cols, 0.8, AllocationMethod::CoTvar).unwrap();
                for (u, col) in a.units.iter().zip(cols.iter()) {
                    let max = col.iter().copied().fold(0.0f64, f64::max);
                    prop_assert!(u.allocated <= max + 1e-9);
                    prop_assert!(u.allocated >= -1e-9);
                }
            }
        }
    }

    #[test]
    fn degenerate_constant_enterprise_falls_back() {
        let units = vec![vec![1.0; 100], vec![2.0; 100]];
        let a = allocate(&names(2), &units, 0.9, AllocationMethod::Covariance).unwrap();
        // Var(S)=0 → equal split of the TVaR (3.0).
        assert!((a.units[0].allocated - 1.5).abs() < 1e-12);
        assert!((a.units[1].allocated - 1.5).abs() < 1e-12);
    }
}
