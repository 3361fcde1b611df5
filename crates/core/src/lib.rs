//! # riskpipe-core
//!
//! The three-stage risk-analytics pipeline itself — the paper's primary
//! subject — assembled from the substrate crates:
//!
//! 1. **risk modelling** (`riskpipe-catmodel`): catalogue × exposure →
//!    ELTs, plus the YET pre-simulation;
//! 2. **portfolio risk management** (`riskpipe-aggregate`): Monte-Carlo
//!    aggregate analysis → YLT (and optionally a YELT/YELLT spill to
//!    an [`IntermediateStore`]);
//! 3. **dynamic financial analysis** (`riskpipe-dfa`): the cat YLT
//!    joined with every other enterprise risk.
//!
//! [`ScenarioConfig`] sizes a synthetic end-to-end scenario;
//! [`RiskSession`] is the execution facade — built once (engine, pool,
//! intermediate store, stage-1 cache, company), then serving any number
//! of scenarios via [`RiskSession::run`], the declarative
//! [`RiskSession::sweep`] (a [`SweepPlan`] fanning one streaming pass
//! out to every requested consumer — pooled analytics, persistence,
//! collection, downstream warehouses), and the streaming core
//! [`RiskSession::run_stream`] (input-order delivery at O(pool width)
//! peak memory). Scenarios sharing a catalogue seed/config fingerprint
//! ([`ScenarioConfig::stage1_key`]) reuse one cached stage-1 model run
//! (LRU over eight keys, plus an optional disk tier), and consecutive
//! ones are priced by one scan of the trials.
//!
//! The facade is split by concern: [`session`] holds the builder,
//! [`RiskSession::run`] and the per-scenario stages 2–3; [`store`]
//! holds the [`IntermediateStore`] backends; the streaming core behind
//! [`RiskSession::run_stream`] and the stage-1 cache behind
//! [`Stage1CacheStats`] (with the functions that build its entries)
//! each have a private module of their own.

#![warn(missing_docs)]
// W1: serving-path library code returns typed errors; a panic aborts a sweep.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod config;
pub mod report;
pub mod session;
pub mod sink;
mod stage1cache;
pub mod stage1disk;
pub mod store;
mod stream;
pub mod sweep;

pub use config::{ScenarioConfig, Stage1Bundle};
pub use report::{money, PipelineReport, SweepSummary, TextTable};
pub use session::{RiskSession, RiskSessionBuilder};
pub use sink::{FanoutSink, PersistingSink, ReportSink};
pub use stage1cache::Stage1CacheStats;
pub use stage1disk::DiskStage1Cache;
pub use store::{InMemoryStore, IntermediateStore, RunLabel, ShardedFilesStore, StagedWrite};
pub use sweep::{PersistedRun, SweepOutcome, SweepPlan};
