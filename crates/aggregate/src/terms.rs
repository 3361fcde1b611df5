//! Reinsurance layer terms: the financial structure applied during
//! aggregate analysis.
//!
//! A layer (an excess-of-loss reinsurance contract) pays, per
//! occurrence, the loss above a retention up to a limit; an annual
//! aggregate retention/limit then applies across the year; the
//! reinsurer's share scales the result.

use riskpipe_types::{RiskError, RiskResult};

/// Financial terms of one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTerms {
    /// Per-occurrence retention (attachment point).
    pub occ_retention: f64,
    /// Per-occurrence limit (width of the layer).
    pub occ_limit: f64,
    /// Annual aggregate retention.
    pub agg_retention: f64,
    /// Annual aggregate limit.
    pub agg_limit: f64,
    /// Reinsurer's share in `(0, 1]`.
    pub share: f64,
}

impl LayerTerms {
    /// Terms that pass losses through unchanged (ground-up view).
    pub fn pass_through() -> Self {
        Self {
            occ_retention: 0.0,
            occ_limit: f64::INFINITY,
            agg_retention: 0.0,
            agg_limit: f64::INFINITY,
            share: 1.0,
        }
    }

    /// A typical per-occurrence excess-of-loss layer
    /// (`occ_limit xs occ_retention`, full share, unlimited aggregate).
    pub fn xl(occ_retention: f64, occ_limit: f64) -> Self {
        Self {
            occ_retention,
            occ_limit,
            agg_retention: 0.0,
            agg_limit: f64::INFINITY,
            share: 1.0,
        }
    }

    /// Validate the terms.
    #[allow(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "the negated comparisons are deliberate: `!(x >= 0.0)` and `!(x > 0.0)` \
                  also reject NaN, which `x < 0.0` and `x <= 0.0` would let through"
    )]
    pub fn validate(&self) -> RiskResult<()> {
        if !(self.occ_retention >= 0.0) || !(self.agg_retention >= 0.0) {
            return Err(RiskError::invalid("retentions must be non-negative"));
        }
        if !(self.occ_limit > 0.0) || !(self.agg_limit > 0.0) {
            return Err(RiskError::invalid("limits must be positive"));
        }
        if !(self.share > 0.0 && self.share <= 1.0) {
            return Err(RiskError::invalid(format!(
                "share must be in (0,1]: {}",
                self.share
            )));
        }
        Ok(())
    }

    /// Net-of-occurrence-terms loss for one occurrence's gross loss.
    #[inline]
    pub fn apply_occurrence(&self, gross: f64) -> f64 {
        (gross - self.occ_retention).max(0.0).min(self.occ_limit)
    }

    /// Net-of-aggregate-terms annual amount for the year's accumulated
    /// (post-occurrence-terms) losses, scaled by share.
    #[inline]
    pub fn apply_aggregate(&self, annual: f64) -> f64 {
        (annual - self.agg_retention).max(0.0).min(self.agg_limit) * self.share
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn occurrence_terms_shape() {
        let t = LayerTerms::xl(100.0, 400.0);
        assert_eq!(t.apply_occurrence(50.0), 0.0); // below attachment
        assert_eq!(t.apply_occurrence(100.0), 0.0); // at attachment
        assert_eq!(t.apply_occurrence(300.0), 200.0); // inside layer
        assert_eq!(t.apply_occurrence(500.0), 400.0); // at exhaustion
        assert_eq!(t.apply_occurrence(1_000.0), 400.0); // capped
    }

    #[test]
    fn aggregate_terms_and_share() {
        let t = LayerTerms {
            occ_retention: 0.0,
            occ_limit: f64::INFINITY,
            agg_retention: 100.0,
            agg_limit: 300.0,
            share: 0.5,
        };
        assert_eq!(t.apply_aggregate(50.0), 0.0);
        assert_eq!(t.apply_aggregate(200.0), 50.0); // (200-100)*0.5
        assert_eq!(t.apply_aggregate(1_000.0), 150.0); // capped at 300*0.5
    }

    #[test]
    fn pass_through_is_identity() {
        let t = LayerTerms::pass_through();
        for v in [0.0, 1.0, 1e9] {
            assert_eq!(t.apply_occurrence(v), v);
            assert_eq!(t.apply_aggregate(v), v);
        }
    }

    #[test]
    fn validation_catches_bad_terms() {
        assert!(LayerTerms::xl(-1.0, 10.0).validate().is_err());
        assert!(LayerTerms {
            occ_limit: 0.0,
            ..LayerTerms::pass_through()
        }
        .validate()
        .is_err());
        assert!(LayerTerms {
            share: 0.0,
            ..LayerTerms::pass_through()
        }
        .validate()
        .is_err());
        assert!(LayerTerms {
            share: 1.5,
            ..LayerTerms::pass_through()
        }
        .validate()
        .is_err());
        assert!(LayerTerms::xl(10.0, 40.0).validate().is_ok());
    }

    #[test]
    fn nan_retentions_are_rejected_not_priced_to_zero() {
        // `apply_occurrence`'s `.max(0.0)` would turn a NaN retention's
        // every loss into 0.0: the terms must not validate.
        assert!(LayerTerms::xl(f64::NAN, 10.0).validate().is_err());
        assert!(LayerTerms {
            agg_retention: f64::NAN,
            ..LayerTerms::pass_through()
        }
        .validate()
        .is_err());
        // Zero and infinite retentions are terms, not errors.
        assert!(LayerTerms::xl(0.0, 10.0).validate().is_ok());
        assert!(LayerTerms::xl(f64::INFINITY, 10.0).validate().is_ok());
    }

    proptest! {
        #[test]
        fn occurrence_application_is_monotone_and_bounded(
            ret in 0.0..1e6f64,
            lim in 1.0..1e6f64,
            a in 0.0..1e7f64,
            b in 0.0..1e7f64,
        ) {
            let t = LayerTerms::xl(ret, lim);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let fa = t.apply_occurrence(lo);
            let fb = t.apply_occurrence(hi);
            prop_assert!(fa <= fb, "monotonicity violated");
            prop_assert!(fb <= lim + 1e-9, "limit violated");
            prop_assert!(fa >= 0.0);
        }

        #[test]
        fn net_never_exceeds_gross(ret in 0.0..1e6f64, lim in 1.0..1e6f64, g in 0.0..1e7f64) {
            let t = LayerTerms::xl(ret, lim);
            prop_assert!(t.apply_occurrence(g) <= g);
        }

        #[test]
        fn aggregate_share_scales_linearly(
            annual in 0.0..1e7f64,
            share in 0.01..1.0f64,
        ) {
            let full = LayerTerms { share: 1.0, ..LayerTerms::xl(0.0, f64::INFINITY) };
            let partial = LayerTerms { share, ..full };
            let f = full.apply_aggregate(annual);
            let p = partial.apply_aggregate(annual);
            prop_assert!((p - f * share).abs() < 1e-6 * f.max(1.0));
        }
    }
}
