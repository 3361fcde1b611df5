//! # riskpipe — high-performance reinsurance risk analytics
//!
//! `riskpipe` is a Rust implementation of the three-stage risk-analytics
//! pipeline described in *Data Challenges in High-Performance Risk
//! Analytics* (Varghese & Rau-Chaplin, SC 2012):
//!
//! 1. **Risk modelling** ([`catmodel`]): stochastic event catalogues ×
//!    exposure databases → hazard, vulnerability and financial modules →
//!    Event-Loss Tables (ELTs).
//! 2. **Portfolio risk management** ([`aggregate`]): Monte-Carlo
//!    aggregate analysis of a portfolio of reinsurance layers against a
//!    pre-simulated Year-Event Table, on sequential, multi-core and
//!    simulated-GPU ([`simgpu`]) engines → Year-Loss Tables (YLTs).
//! 3. **Dynamic financial analysis** ([`dfa`]): catastrophe YLTs combined
//!    with investment, interest-rate, market-cycle, counterparty,
//!    reserve and operational risks → enterprise risk metrics
//!    ([`metrics`]: PML, VaR, TVaR, EP curves).
//!
//! Data management follows the paper's thesis: columnar tables that are
//! *scanned*, never randomly accessed ([`tables`]), held either in large
//! accumulated memory or in sharded distributed file space processed
//! MapReduce-style ([`mapreduce`]); a small relational engine ([`db`]) is
//! included as the baseline the paper argues against. Stage-3 analytics
//! pre-compute aggregates in a parallel data [`warehouse`], and the
//! pipeline's bursty processor demand is priced by the elastic-[`cloud`]
//! provisioning simulator.
//!
//! ## Quickstart
//!
//! A [`RiskSession`](riskpipe_core::RiskSession) is the facade: built
//! once (engine, thread pool, intermediate store, stage-1 cache), then
//! run against any number of scenarios — one at a time via `run`, or
//! declaratively via `sweep`: a
//! [`SweepPlan`](riskpipe_core::SweepPlan) streams every scenario once
//! (input order, O(pool width) peak memory) and fans each report out
//! to all requested consumers — pooled analytics, durable persistence,
//! report collection, and (with the analytics prelude) a queryable
//! drill-down warehouse. `run_stream` remains the raw single-sink
//! streaming core beneath the plan.
//!
//! ```
//! use riskpipe::prelude::*;
//!
//! let session = RiskSession::builder()
//!     .engine(EngineKind::CpuParallel)
//!     .pool_threads(2)
//!     .build()
//!     .expect("session");
//!
//! let report = session
//!     .run(&ScenarioConfig::small().with_seed(7).with_trials(500))
//!     .expect("pipeline");
//! assert_eq!(report.ylt.trials(), 500);
//!
//! // Metrics: probable maximum loss at the 100-year return period.
//! let ep = EpCurve::aggregate(&report.ylt);
//! assert!(ep.pml(100.0) >= 0.0);
//! ```

#![warn(missing_docs)]

pub use riskpipe_aggregate as aggregate;
pub use riskpipe_analytics as analytics;
pub use riskpipe_catmodel as catmodel;
pub use riskpipe_cloud as cloud;
pub use riskpipe_core as core;
pub use riskpipe_db as db;
pub use riskpipe_dfa as dfa;
pub use riskpipe_exec as exec;
pub use riskpipe_mapreduce as mapreduce;
pub use riskpipe_metrics as metrics;
pub use riskpipe_obs as obs;
pub use riskpipe_simgpu as simgpu;
pub use riskpipe_tables as tables;
pub use riskpipe_types as types;
pub use riskpipe_warehouse as warehouse;

/// Convenience re-exports covering the common end-to-end workflow.
pub mod prelude {
    pub use riskpipe_aggregate::{AggregateOptions, AggregateRunner, EngineKind, Portfolio};
    pub use riskpipe_analytics::{
        Drilldown, DrilldownLayout, ScenarioDims, SessionAnalytics, SweepPlanAnalytics,
        WarehouseOutcome, WarehousePlan, WarehouseSink,
    };
    pub use riskpipe_catmodel::Stage1Output;
    pub use riskpipe_cloud::{pipeline_week, simulate, PipelineWeekSpec, SimConfig};
    pub use riskpipe_core::{
        FanoutSink, InMemoryStore, IntermediateStore, PersistedRun, PersistingSink, PipelineReport,
        ReportSink, RiskSession, RiskSessionBuilder, ScenarioConfig, ShardedFilesStore,
        Stage1CacheStats, SweepOutcome, SweepPlan, SweepSummary,
    };
    pub use riskpipe_dfa::{AllocationMethod, EnterpriseRollup};
    pub use riskpipe_metrics::{EpCurve, EpPoint, QuantileSketch};
    pub use riskpipe_obs::{MetricsSnapshot, Telemetry, TelemetrySnapshot};
    pub use riskpipe_tables::{Elt, Ylt};
    pub use riskpipe_types::{RiskError, RiskResult};
    pub use riskpipe_warehouse::{
        Filter, LevelSelect, Query, Schema, SketchCell, SketchRow, Warehouse,
    };
}
