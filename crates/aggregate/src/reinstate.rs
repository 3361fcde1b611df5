//! Reinstatement premiums: pricing the annual-aggregate structure of
//! an excess-of-loss layer.
//!
//! A catastrophe XL layer of width `L` usually carries `k` *paid
//! reinstatements*: the aggregate limit is `(k+1)·L`, and each time a
//! limit is consumed the cedant pays a premium pro rata to the amount
//! reinstated to restore cover. This is the financial structure the
//! aggregate-analysis literature (the paper's ref \[5\], Meyers et al.)
//! prices from exactly the per-layer trial recoveries our stage-2
//! engines already produce — so the module is a pure YLT consumer: no
//! engine changes, bit-identical engines stay bit-identical.
//!
//! Pricing identity: with base premium `P` and reinstatement rates
//! `c_i` (fraction of `P` per full limit reinstated), expected premium
//! income is `P · (1 + Σᵢ cᵢ·E[Aᵢ]/L)` where `Aᵢ` is the portion of
//! the `i`-th limit consumed. Setting income equal to the expected
//! recovery gives the market's standard base-premium formula.

use crate::terms::LayerTerms;
use riskpipe_tables::Ylt;
use riskpipe_types::{KahanSum, RiskError, RiskResult};

/// Reinstatement provisions of a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ReinstatementTerms {
    /// Premium rate per reinstatement, as a fraction of the base
    /// premium per full limit reinstated (`1.0` = "at 100%", `0.0` =
    /// free). One entry per paid reinstatement; order is consumption
    /// order.
    pub premium_pcts: Vec<f64>,
}

impl ReinstatementTerms {
    /// `count` reinstatements, all at the same rate.
    pub fn flat(count: u32, pct: f64) -> Self {
        Self {
            premium_pcts: vec![pct; count as usize],
        }
    }

    /// `count` free reinstatements.
    pub fn free(count: u32) -> Self {
        Self::flat(count, 0.0)
    }

    /// Number of paid reinstatements.
    pub fn count(&self) -> u32 {
        self.premium_pcts.len() as u32
    }

    /// Validate the provisions.
    pub fn validate(&self) -> RiskResult<()> {
        if self
            .premium_pcts
            .iter()
            .any(|&p| !(0.0..=10.0).contains(&p))
        {
            return Err(RiskError::invalid(
                "reinstatement rates must be finite, non-negative and sane (≤ 1000%)",
            ));
        }
        Ok(())
    }

    /// The aggregate limit implied by `occ_limit` with these
    /// reinstatements: the original limit plus one refill per
    /// reinstatement.
    fn implied_agg_limit(&self, occ_limit: f64) -> f64 {
        occ_limit * (self.count() as f64 + 1.0)
    }

    /// Set a layer's aggregate limit consistently with these
    /// provisions.
    pub fn apply_to(&self, mut terms: LayerTerms) -> RiskResult<LayerTerms> {
        if !terms.occ_limit.is_finite() {
            return Err(RiskError::invalid(
                "reinstatements need a finite occurrence limit",
            ));
        }
        terms.agg_limit = self.implied_agg_limit(terms.occ_limit);
        terms.validate()?;
        Ok(terms)
    }

    /// The premium fraction (of the base premium) a single trial
    /// triggers, given the trial's 100%-share aggregate recovery and
    /// the occurrence limit: `Σᵢ cᵢ · clamp(R − (i−1)·L, 0, L) / L`.
    fn premium_fraction(&self, recovered_100: f64, occ_limit: f64) -> f64 {
        debug_assert!(occ_limit > 0.0 && occ_limit.is_finite());
        let mut frac = 0.0;
        for (i, &pct) in self.premium_pcts.iter().enumerate() {
            let lower = i as f64 * occ_limit;
            let consumed = (recovered_100 - lower).clamp(0.0, occ_limit);
            if consumed <= 0.0 {
                break; // limits consume in order
            }
            frac += pct * consumed / occ_limit;
        }
        frac
    }
}

/// The priced layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReinstatementPricing {
    /// Expected annual recovery (at the layer's share).
    pub expected_recovery: f64,
    /// Base (deposit) premium solving income = expected recovery.
    pub base_premium: f64,
    /// Expected reinstatement premium income.
    pub expected_reinstatement_premium: f64,
    /// Expected premium fraction `E[Σ cᵢ Aᵢ / L]`.
    pub expected_premium_fraction: f64,
    /// Base premium over occurrence limit — the market's quoted
    /// rate-on-line at the layer's share.
    pub rate_on_line: f64,
}

/// Price one layer's reinstatement structure from its per-layer YLT
/// (as produced by [`crate::run_per_layer`]).
///
/// The YLT's aggregate column is the share-scaled recovery; the
/// reinstatement mechanics operate at 100% of the layer, so the
/// premium fraction is computed on `agg_loss / share` and the
/// resulting premiums are quoted at the layer's share (consistent with
/// the recovery).
pub fn price_with_reinstatements(
    terms: &LayerTerms,
    reinstatements: &ReinstatementTerms,
    layer_ylt: &Ylt,
) -> RiskResult<ReinstatementPricing> {
    terms.validate()?;
    reinstatements.validate()?;
    if !terms.occ_limit.is_finite() {
        return Err(RiskError::invalid(
            "reinstatements need a finite occurrence limit",
        ));
    }
    if layer_ylt.trials() == 0 {
        return Err(RiskError::invalid("cannot price an empty YLT"));
    }
    let implied = reinstatements.implied_agg_limit(terms.occ_limit);
    if terms.agg_limit.is_finite() && terms.agg_limit > implied * (1.0 + 1e-9) {
        return Err(RiskError::invalid(format!(
            "aggregate limit {} exceeds the (count+1)·occ_limit = {} the reinstatements provide",
            terms.agg_limit, implied
        )));
    }

    let trials = layer_ylt.trials() as f64;
    let recovery_sum: KahanSum = layer_ylt.agg_losses().iter().copied().collect();
    let expected_recovery = recovery_sum.total() / trials;

    let frac_sum: KahanSum = layer_ylt
        .agg_losses()
        .iter()
        .map(|&r| reinstatements.premium_fraction(r / terms.share, terms.occ_limit))
        .collect();
    let expected_premium_fraction = frac_sum.total() / trials;

    let base_premium = expected_recovery / (1.0 + expected_premium_fraction);
    Ok(ReinstatementPricing {
        expected_recovery,
        base_premium,
        expected_reinstatement_premium: base_premium * expected_premium_fraction,
        expected_premium_fraction,
        rate_on_line: base_premium / (terms.occ_limit * terms.share),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::TrialId;

    fn ylt_of(recoveries: &[f64]) -> Ylt {
        let mut y = Ylt::zeroed(recoveries.len());
        for (t, &r) in recoveries.iter().enumerate() {
            y.set_trial(TrialId::new(t as u32), r, r, u32::from(r > 0.0));
        }
        y
    }

    fn xl(l: f64, k: u32) -> LayerTerms {
        LayerTerms {
            occ_retention: 0.0,
            occ_limit: l,
            agg_retention: 0.0,
            agg_limit: (k as f64 + 1.0) * l,
            share: 1.0,
        }
    }

    #[test]
    fn premium_fraction_consumes_limits_in_order() {
        let r = ReinstatementTerms::flat(2, 1.0); // two at 100%
        let l = 100.0;
        assert_eq!(r.premium_fraction(0.0, l), 0.0);
        assert_eq!(r.premium_fraction(50.0, l), 0.5); // half of 1st
        assert_eq!(r.premium_fraction(100.0, l), 1.0); // 1st full
        assert_eq!(r.premium_fraction(150.0, l), 1.5); // 1st + half 2nd
        assert_eq!(r.premium_fraction(200.0, l), 2.0); // both full
                                                       // The 3rd limit (the last cover) triggers nothing.
        assert_eq!(r.premium_fraction(300.0, l), 2.0);
        assert_eq!(r.premium_fraction(1e9, l), 2.0);
    }

    #[test]
    fn distinct_rates_apply_per_reinstatement() {
        let r = ReinstatementTerms {
            premium_pcts: vec![1.0, 0.5],
        };
        let l = 100.0;
        assert_eq!(r.premium_fraction(150.0, l), 1.0 + 0.25);
        assert_eq!(r.premium_fraction(200.0, l), 1.5);
    }

    #[test]
    fn hand_checked_pricing() {
        // L = 100, one reinstatement at 100%. Trials: 50 and 150.
        // fractions: 0.5 and 1.0 → E = 0.75; E[R] = 100.
        // base = 100 / 1.75; reinstatement premium = base × 0.75.
        let terms = xl(100.0, 1);
        let r = ReinstatementTerms::flat(1, 1.0);
        let p = price_with_reinstatements(&terms, &r, &ylt_of(&[50.0, 150.0])).unwrap();
        assert!((p.expected_recovery - 100.0).abs() < 1e-12);
        assert!((p.base_premium - 100.0 / 1.75).abs() < 1e-9);
        assert!((p.expected_reinstatement_premium - p.base_premium * 0.75).abs() < 1e-9);
        // Income balances the expected loss.
        let income = p.base_premium + p.expected_reinstatement_premium;
        assert!((income - p.expected_recovery).abs() < 1e-9);
        assert!((p.rate_on_line - p.base_premium / 100.0).abs() < 1e-15);
    }

    #[test]
    fn free_reinstatements_price_at_pure_premium() {
        let terms = xl(100.0, 2);
        let r = ReinstatementTerms::free(2);
        let p = price_with_reinstatements(&terms, &r, &ylt_of(&[80.0, 250.0])).unwrap();
        assert_eq!(p.expected_premium_fraction, 0.0);
        assert!((p.base_premium - p.expected_recovery).abs() < 1e-12);
        assert_eq!(p.expected_reinstatement_premium, 0.0);
    }

    #[test]
    fn paid_reinstatements_lower_the_deposit_premium() {
        let terms = xl(100.0, 1);
        let ylt = ylt_of(&[0.0, 40.0, 120.0, 200.0]);
        let free = price_with_reinstatements(&terms, &ReinstatementTerms::free(1), &ylt).unwrap();
        let cheap =
            price_with_reinstatements(&terms, &ReinstatementTerms::flat(1, 0.5), &ylt).unwrap();
        let full =
            price_with_reinstatements(&terms, &ReinstatementTerms::flat(1, 1.0), &ylt).unwrap();
        assert!(full.base_premium < cheap.base_premium);
        assert!(cheap.base_premium < free.base_premium);
        // All three collect the same expected total income.
        for p in [&free, &cheap, &full] {
            let income = p.base_premium + p.expected_reinstatement_premium;
            assert!((income - p.expected_recovery).abs() < 1e-9 * p.expected_recovery);
        }
    }

    #[test]
    fn share_is_handled_consistently() {
        // Same layer at 50% share: recoveries and premiums halve, the
        // premium fraction (a ratio) is unchanged.
        let full = xl(100.0, 1);
        let half = LayerTerms { share: 0.5, ..full };
        let r = ReinstatementTerms::flat(1, 1.0);
        let p_full = price_with_reinstatements(&full, &r, &ylt_of(&[50.0, 150.0])).unwrap();
        let p_half = price_with_reinstatements(&half, &r, &ylt_of(&[25.0, 75.0])).unwrap();
        assert!(
            (p_half.expected_premium_fraction - p_full.expected_premium_fraction).abs() < 1e-12
        );
        assert!((p_half.base_premium - p_full.base_premium / 2.0).abs() < 1e-9);
        assert!((p_half.rate_on_line - p_full.rate_on_line).abs() < 1e-12);
    }

    #[test]
    fn apply_to_sets_consistent_aggregate_limit() {
        let r = ReinstatementTerms::flat(3, 1.0);
        let t = r.apply_to(LayerTerms::xl(50.0, 200.0)).unwrap();
        assert_eq!(t.agg_limit, 800.0);
        // Infinite occurrence limit is meaningless with reinstatements.
        assert!(r.apply_to(LayerTerms::pass_through()).is_err());
    }

    #[test]
    fn validation_errors() {
        let terms = xl(100.0, 1);
        let ylt = ylt_of(&[10.0]);
        // Negative rate.
        let bad = ReinstatementTerms {
            premium_pcts: vec![-0.1],
        };
        assert!(price_with_reinstatements(&terms, &bad, &ylt).is_err());
        // Aggregate limit beyond what the reinstatements provide.
        let too_wide = LayerTerms {
            agg_limit: 500.0,
            ..xl(100.0, 1)
        };
        assert!(
            price_with_reinstatements(&too_wide, &ReinstatementTerms::flat(1, 1.0), &ylt).is_err()
        );
        // Empty YLT.
        assert!(
            price_with_reinstatements(&terms, &ReinstatementTerms::flat(1, 1.0), &ylt_of(&[]))
                .is_err()
        );
        // Infinite occurrence limit.
        assert!(price_with_reinstatements(
            &LayerTerms::pass_through(),
            &ReinstatementTerms::flat(1, 1.0),
            &ylt
        )
        .is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn premium_fraction_is_monotone_and_bounded(
                pcts in prop::collection::vec(0.0..2.0f64, 0..4),
                l in 1.0..1e6f64,
                a in 0.0..1e7f64,
                b in 0.0..1e7f64,
            ) {
                let r = ReinstatementTerms { premium_pcts: pcts.clone() };
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                let fa = r.premium_fraction(lo, l);
                let fb = r.premium_fraction(hi, l);
                prop_assert!(fa <= fb + 1e-12, "monotonicity: {fa} > {fb}");
                let cap: f64 = pcts.iter().sum();
                prop_assert!(fb <= cap + 1e-12, "bound: {fb} > {cap}");
                prop_assert!(fa >= 0.0);
            }

            #[test]
            fn expected_income_always_balances_expected_recovery(
                recoveries in prop::collection::vec(0.0..1e6f64, 1..80),
                count in 0u32..4,
                pct in 0.0..2.0f64,
                share in 0.05..1.0f64,
            ) {
                let l = 250_000.0;
                let r = ReinstatementTerms::flat(count, pct);
                let terms = LayerTerms {
                    occ_retention: 0.0,
                    occ_limit: l,
                    agg_retention: 0.0,
                    agg_limit: r.implied_agg_limit(l),
                    share,
                };
                // Recoveries must respect the layer's aggregate cap.
                let capped: Vec<f64> = recoveries
                    .iter()
                    .map(|&x| x.min(terms.agg_limit) * share)
                    .collect();
                let p = price_with_reinstatements(&terms, &r, &ylt_of(&capped)).unwrap();
                let income = p.base_premium + p.expected_reinstatement_premium;
                prop_assert!(
                    (income - p.expected_recovery).abs() <= 1e-9 * p.expected_recovery.max(1.0),
                    "income {income} vs recovery {}",
                    p.expected_recovery
                );
                prop_assert!(p.base_premium <= p.expected_recovery + 1e-9);
            }
        }
    }

    #[test]
    fn zero_recovery_book_prices_to_zero() {
        let terms = xl(100.0, 2);
        let p = price_with_reinstatements(
            &terms,
            &ReinstatementTerms::flat(2, 1.0),
            &ylt_of(&[0.0, 0.0, 0.0]),
        )
        .unwrap();
        assert_eq!(p.base_premium, 0.0);
        assert_eq!(p.expected_reinstatement_premium, 0.0);
        assert_eq!(p.rate_on_line, 0.0);
    }
}
