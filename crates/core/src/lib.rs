//! # riskpipe-core
//!
//! The three-stage risk-analytics pipeline itself — the paper's primary
//! subject — assembled from the substrate crates:
//!
//! 1. **risk modelling** (`riskpipe-catmodel`): catalogue × exposure →
//!    ELTs, plus the YET pre-simulation;
//! 2. **portfolio risk management** (`riskpipe-aggregate`): Monte-Carlo
//!    aggregate analysis → YLT (and optionally a YELT/YELLT spill to
//!    an [`session::IntermediateStore`]);
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
//! (LRU over eight keys, plus an optional disk tier). [`elastic`] converts measured
//! throughputs into the paper's processor-burst arithmetic (<10
//! processors for stage 1, thousands for stages 2–3).

#![warn(missing_docs)]

pub mod config;
pub mod elastic;
pub mod report;
pub mod session;
pub mod sink;
mod stage1cache;
pub mod stage1disk;
pub mod sweep;

pub use config::{ScenarioConfig, Stage1Bundle};
pub use elastic::{Deadline, ElasticModel, ProcessorPlan, StageThroughput};
pub use report::{money, SweepSummary, TextTable};
pub use session::{
    InMemoryStore, IntermediateStore, PipelineReport, RiskSession, RiskSessionBuilder, RunLabel,
    ShardedFilesStore,
};
pub use sink::{FanoutSink, PersistingSink, ReportSink};
pub use stage1cache::Stage1CacheStats;
pub use stage1disk::DiskStage1Cache;
pub use sweep::{PersistedRun, SweepOutcome, SweepPlan};
