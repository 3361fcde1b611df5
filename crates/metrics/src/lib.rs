//! # riskpipe-metrics
//!
//! Portfolio risk metrics computed from Year-Loss Tables — the numbers
//! the paper says reinsurers derive from the YLT "for both internal risk
//! management and reporting to regulators and rating agencies":
//!
//! * **EP curves** ([`EpCurve`]): aggregate (AEP) and occurrence (OEP)
//!   exceedance-probability curves;
//! * **PML** ([`EpCurve::pml`]): probable maximum loss at a return
//!   period (the `1 − 1/T` quantile);
//! * **VaR / TVaR** ([`var`], [`tvar`], [`RiskMeasures`]): quantile and
//!   tail-conditional-expectation risk measures;
//! * **streaming quantile sketch** ([`QuantileSketch`]): a mergeable,
//!   deterministic fixed-memory summary so sweeps pool EP/VaR/TVaR
//!   across thousands of scenarios without retaining any per-scenario
//!   YLT (exact small-n path, bounded-error sketched path).
//!
//! Experiment E7's bootstrap intervals and convergence study are not
//! pipeline metrics; they live with the experiment, in `riskpipe-bench`.

#![warn(missing_docs)]
// W1: serving-path library code returns typed errors; a panic aborts a sweep.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod ep;
mod measures;
mod sketch;

pub use ep::{
    standard_points_from, standard_points_from_batch, EpCurve, EpKind, EpPoint,
    STANDARD_RETURN_PERIODS,
};
pub use measures::{tvar, tvar_sorted, var, var_sorted, RiskMeasures};
pub use sketch::{QuantileSketch, SketchShape};
