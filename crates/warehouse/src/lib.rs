//! # riskpipe-warehouse
//!
//! Parallel data warehousing for stage-3 analytics — the paper's §II
//! prescription for DFA-scale data: "Owing to the large size of data
//! pre-computation techniques such as in parallel data warehousing can
//! be applied."
//!
//! The warehouse takes the pipeline's location-level loss facts (the
//! YELLT-shaped output of stage 2) and pre-computes group-by aggregates
//! so that the ad-hoc analytical queries of stage 3 — regional
//! drill-downs, peril attribution, seasonality, top-loss rankings —
//! stop paying a full fact scan each time:
//!
//! * [`dimension`] — the star schema: four dimensions (geography,
//!   event, contract, time), each with an aggregation hierarchy
//!   (location→region, event→peril, layer→line-of-business,
//!   day→month→season).
//! * [`fact`] — the columnar loss fact table, scanned never randomly
//!   accessed, like every other table in the pipeline.
//! * [`cube`] — cuboids (materialised group-bys), generic over their
//!   cell ([`Measure`]): built from the facts with chunk-deterministic
//!   parallel aggregation on the [`riskpipe_exec`] pool (sequential and
//!   parallel builds agree bit-for-bit), rolled up into coarser cuboids
//!   at cell-count cost instead of fact-scan cost (why pre-computation
//!   compounds) and queried — one grouping loop for both.
//! * [`lattice`] — the cuboid lattice and Harinarayan–Rajaraman–Ullman
//!   greedy view selection under a view-count or space budget.
//! * [`query`] — queries and the planner: each query is served by the
//!   smallest materialised view that covers it, with per-query cost
//!   accounting (experiment E9's measured quantity). A result row fed
//!   by one cell of its source borrows that cell — an answer costs what
//!   it reads, not what it copies.
//! * [`sketchcube`] — the sketch-valued cell: a mergeable quantile
//!   sketch of the cell's pooled losses beside count/sum/max, so
//!   slices of a `Cuboid<SketchCell>` answer VaR99/TVaR99/EP points,
//!   not just sums (the stage-3 drill-down subsystem builds on these).
//!
//! Views are never persisted: the one stage-3 artifact on disk is the
//! sweep's YLT spill, and `riskpipe-analytics` rebuilds its views from
//! that.
//!
//! ## Quickstart
//!
//! ```
//! use riskpipe_warehouse::{dim, FactTable, Filter, LevelSelect, Query, Schema, Warehouse};
//!
//! // 2 regions of 10 locations, 2 perils of 20 events, 2 LoBs of 4 layers.
//! let schema = Schema::standard(10, 2, 20, 2, 4, 2)?;
//! let facts = FactTable::synthetic(&schema, 10_000, 42);
//!
//! let mut wh = Warehouse::new(schema, facts);
//! wh.materialize(LevelSelect::BASE, None)?;
//!
//! // Loss by region × peril, sliced to region 1, served from the view.
//! let query = Query::group_by(LevelSelect([1, 1, 2, 3]))
//!     .filter(Filter::slice(dim::GEO, 1));
//! let (rows, cost) = wh.answer(&query)?;
//! assert!(!rows.is_empty());
//! assert_eq!(cost.facts_read, 0); // pre-computation: no fact scan
//! # Ok::<(), riskpipe_types::RiskError>(())
//! ```

#![warn(missing_docs)]
// W1: serving-path library code returns typed errors; a panic aborts a sweep.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(
    clippy::needless_range_loop,
    reason = "dimension loops (`for d in 0..NDIMS`) index several parallel \
              fixed-size arrays at once; iterator rewrites obscure them"
)]

pub mod cube;
pub mod dimension;
pub mod fact;
pub mod lattice;
pub mod query;
pub mod sketchcube;

pub use cube::{Cell, Cuboid, KeyCodec, LevelSelect, Measure};
pub use dimension::{dim, Dimension, Level, Schema, NDIMS};
pub use fact::{FactBuilder, FactTable};
pub use lattice::{enumerate, greedy_select, greedy_select_budget, ViewSelection};
pub use query::{Filter, Query, QueryCost, ResultRow, Row, Source, Warehouse};
pub use sketchcube::{SketchCell, SketchCuboid, SketchRow};
