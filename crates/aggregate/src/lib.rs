//! # riskpipe-aggregate
//!
//! Stage 2 of the risk-analytics pipeline: **aggregate analysis** — the
//! Monte-Carlo simulation at the heart of portfolio risk management, and
//! the computation the paper's GPU claims (15× speedup; 1M-trial
//! contract pricing in seconds) are about.
//!
//! For every trial (a pre-simulated alternative year from the YET) the
//! engine walks the year's event occurrences; for every occurrence and
//! every portfolio layer whose ELT contains the event it draws the event
//! loss (the ELT mean, or a secondary-uncertainty sample driven by the
//! occurrence's pre-simulated uniform `z`), applies the layer's
//! per-occurrence terms, accumulates the year, applies aggregate terms,
//! and emits one Year-Loss-Table row per trial.
//!
//! Three interchangeable engines compute *bit-identical* YLTs:
//!
//! * [`engine::SequentialEngine`] — the reference loop;
//! * [`engine::CpuParallelEngine`] — trials partitioned across a
//!   work-stealing pool;
//! * [`engine::GpuEngine`] — the algorithm expressed as a kernel on the
//!   simulated GPU ([`riskpipe_simgpu`]), one thread per trial, in
//!   either naive global-memory form or the paper's *chunked* form
//!   (occurrence tiles staged through block shared memory, layer terms
//!   in constant memory).
//!
//! Bit-identity holds because every stochastic choice is pre-simulated
//! (the YET) or a pure function of it (beta quantiles of `z`), so
//! scheduling cannot reorder any floating-point reduction that matters.
//!
//! All engines read one prepared table, the [`EventJoin`] — every
//! layer's ELT joined on event id, with each hit's loss payload in hit
//! order — through one of two trial kernels (see [`engine`]): the host
//! engines stream an occurrence's hits after a single lookup, the
//! simulated GPU keeps the one-probe-per-layer loop its traffic model
//! meters. Both visit layers in ascending order, so they add the same
//! values in the same order.

#![warn(missing_docs)]

pub mod engine;
pub mod join;
pub mod portfolio;
pub mod reinstate;
pub mod rt;
pub mod secondary;
pub mod terms;

pub use engine::{
    build_secondary, engines_agree, run_block, run_per_layer, AggregateEngine, AggregateOptions,
    AggregateRunner, CpuParallelEngine, EngineKind, GpuChunking, GpuEngine, SequentialEngine,
};
pub use join::EventJoin;
pub use portfolio::{Layer, Portfolio};
pub use reinstate::{price_with_reinstatements, ReinstatementPricing, ReinstatementTerms};
pub use rt::{PricingResult, RealTimePricer};
pub use secondary::{QuantileMode, SecondaryTable};
pub use terms::LayerTerms;
