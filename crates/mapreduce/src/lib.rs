//! # riskpipe-mapreduce
//!
//! The "accumulation of large distributed file space" substrate: a
//! single-process MapReduce runtime in the Hadoop mould, standing in for
//! the cluster the paper points to for YELLT-scale analytics that cannot
//! fit in memory.
//!
//! Faithful to the programming model, not a toy:
//!
//! * **input splits** — one map task per shard file of a
//!   [`riskpipe_tables::ShardedReader`] store (trials never straddle
//!   shards, so per-trial aggregation needs no cross-split traffic);
//! * **map** — user [`Mapper`] emits key/value byte pairs;
//! * **shuffle** — emissions are hash-partitioned by key into per-
//!   (map-task × reduce-task) *spill files* on disk (the real thing:
//!   map outputs never accumulate in memory);
//! * **reduce** — each reduce task reads its partition's spills, sorts
//!   by key, groups, and runs the user [`Reducer`];
//! * **metrics** — records/bytes mapped, shuffled and spilled, per job.
//!
//! Canned jobs for the paper's drill-down analytics live in [`jobs`]:
//! per-location tail risk and per-event loss contribution over the
//! YELLT, plus the stage-3 warehouse-ingest shuffle
//! ([`jobs::YltFactJob`]) that turns sharded per-report YLT spills
//! into per-return-period-band loss columns.

#![warn(missing_docs)]
// W1: serving-path library code returns typed errors; a panic aborts a sweep.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod jobs;
pub mod kv;
pub mod runtime;

pub use jobs::{
    CubeBuildJob, CubeCell, EventContributionJob, LocationRiskJob, YltFactBand, YltFactJob,
};
pub use kv::KvPair;
pub use runtime::{run_job, JobConfig, JobStats, Mapper, Reducer};
