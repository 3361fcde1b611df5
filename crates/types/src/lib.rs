//! # riskpipe-types
//!
//! Foundation types shared by every stage of the `riskpipe` risk-analytics
//! pipeline: strongly-typed identifiers, monetary accumulation helpers,
//! reproducible random-number generation (including the counter-based
//! Philox generator used for parallel Monte Carlo), probability
//! distributions, special functions, and streaming statistics.
//!
//! The crate is dependency-free by design: every sampler and special
//! function the pipeline needs is implemented and tested here, so the hot
//! loops in the aggregate-analysis engines depend only on code whose
//! numerical behaviour we control and can property-test.
//!
//! ## Layout
//!
//! * [`ids`] — newtype identifiers ([`EventId`], [`LayerId`], ...).
//! * [`money`] — compensated summation ([`KahanSum`]) and loss helpers.
//! * [`rng`] — [`Rng64`] trait, SplitMix64, PCG64, Philox4x32-10.
//! * [`dist`] — distribution samplers (normal, lognormal, exponential,
//!   Poisson, gamma, beta, discrete alias method).
//! * [`special`] — `ln Γ`, regularized incomplete beta and its inverse,
//!   the normal CDF/quantile.
//! * [`stats`] — Welford accumulators, quantiles, ranks, correlation.
//! * [`error`] — the crate-family error type [`RiskError`].

#![warn(missing_docs)]

pub mod dist;
pub mod error;
pub mod fingerprint;
pub mod ids;
pub mod money;
pub mod rng;
pub mod special;
pub mod stats;

pub use error::{RiskError, RiskResult};
pub use fingerprint::Fingerprint;
pub use ids::{EventId, LayerId, LocationId, NodeId, TrialId};
pub use money::{KahanSum, Loss};
pub use rng::{Pcg64, Philox4x32, Rng64, SeedStream, SplitMix64};
pub use stats::{quantile_sorted, RunningStats};
