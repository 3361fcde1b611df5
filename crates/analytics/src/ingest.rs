//! Ingest: turning a streaming sweep's reports into sketch-valued
//! warehouse cells — sort once, slice, fold.
//!
//! [`WarehouseSink`] is a [`ReportSink`]: as `run_stream` delivers
//! each report (input order, calling thread), the sink
//!
//! 1. takes the report's aggregate-loss column sorted ascending by
//!    `total_cmp` — borrowed from the report, which sorted it once for
//!    every consumer ([`PipelineReport::sorted_agg`]); a bare YLT
//!    ([`WarehouseSink::ingest`], the rebuild path) is sorted here,
//! 2. cuts it at the return-period band boundaries, which depend on
//!    the trial count alone ([`band_bounds`]), and
//! 3. folds each non-empty slice into its base cell, ascending band
//!    order — one [`SketchCell::absorb_sorted`] weighted merge per
//!    band.
//!
//! A band is a rank interval, so its sorted column *is* the slice; the
//! tie argument that makes this bit-identical to grouping trials by
//! [`rp_bands`](crate::rp_bands) and sorting each group is written
//! down at [`band_bounds`]. Nothing here touches a disk, a pool or a
//! lock, and delivery is input-ordered, so the accumulated cells are
//! bit-identical on any thread count, and identical whether the YLTs
//! come from the live sweep or are reloaded from a
//! [`ShardedFilesStore`](riskpipe_core::ShardedFilesStore) spill.
//!
//! Cubes alongside a durable spill need no special store: put a
//! `WarehouseSink` and a [`PersistingSink`](riskpipe_core::PersistingSink)
//! in one [`FanoutSink`](riskpipe_core::FanoutSink), or declare
//! `.persist().warehouse(layout)` on a sweep plan.

use crate::band_bounds;
use crate::dims::DrilldownLayout;
use crate::drilldown::Drilldown;
use riskpipe_core::{PipelineReport, ReportSink};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::Ylt;
use riskpipe_types::RiskResult;
use riskpipe_warehouse::{KeyCodec, LevelSelect, SketchCell, SketchCuboid};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// What the sink has ingested so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Reports ingested.
    pub reports: u64,
    /// Trials (fact rows) ingested.
    pub trials: u64,
}

/// The ingest sink: accumulates a sweep into sketch-valued base cells
/// (see the module docs for the pipeline). Finish with
/// [`WarehouseSink::finish`] to obtain the queryable [`Drilldown`].
pub struct WarehouseSink {
    layout: DrilldownLayout,
    codec: KeyCodec,
    cells: BTreeMap<u64, SketchCell>,
    stats: IngestStats,
}

impl WarehouseSink {
    /// A sink for `layout`.
    pub fn new(layout: DrilldownLayout) -> RiskResult<Self> {
        let codec = KeyCodec::new(layout.schema(), LevelSelect::BASE)?;
        Ok(Self {
            layout,
            codec,
            cells: BTreeMap::new(),
            stats: IngestStats::default(),
        })
    }

    /// Inert: ingest runs no job, so there is no pool to choose. Kept
    /// only so `riskbench/src/workloads.rs::warehouse_sink` — its one
    /// caller, frozen by the benchmark contract — keeps compiling;
    /// goes when a benchmark-only PR stops calling it.
    #[doc(hidden)]
    pub fn with_pool(self, _pool: Arc<ThreadPool>) -> Self {
        self
    }

    /// Inert: ingest spills nothing, so there is no work directory.
    /// Same single caller and same fate as [`WarehouseSink::with_pool`].
    #[doc(hidden)]
    pub fn with_work_dir(self, _dir: impl Into<PathBuf>) -> Self {
        self
    }

    /// The layout this sink ingests against.
    pub fn layout(&self) -> &DrilldownLayout {
        &self.layout
    }

    /// Aggregate ingest metrics so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Ingest one bare YLT as sweep slot `slot`, sorting its aggregate
    /// column once (the rebuild path calls this per reloaded YLT; the
    /// live sink path borrows the delivered report's sorted column
    /// instead — both produce bit-identical cells).
    pub fn ingest(&mut self, slot: usize, ylt: &Ylt) -> RiskResult<()> {
        let _span = riskpipe_obs::span_key("warehouse.ingest", slot as u64);
        self.fold_sorted(slot, &ylt.sorted_agg_losses())
    }

    /// Ingest a delivered report: its shared sorted column when it
    /// still carries one, else one sort of its YLT.
    fn ingest_report(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        let _span = riskpipe_obs::span_key("warehouse.ingest", slot as u64);
        self.fold_sorted(slot, &report.sorted_agg())
    }

    /// Fold slot `slot`'s ascending sorted aggregate column into its
    /// base cells, one rank-interval slice per return-period band.
    fn fold_sorted(&mut self, slot: usize, sorted: &[f64]) -> RiskResult<()> {
        let dims = self.layout.slot_dims(slot)?;
        if sorted.is_empty() {
            return Ok(());
        }
        let k = self.layout.sketch_k();
        let bounds = band_bounds(sorted.len());
        for (band, range) in bounds.windows(2).enumerate() {
            let column = &sorted[range[0]..range[1]];
            if column.is_empty() {
                continue;
            }
            let key = self
                .codec
                .encode([dims.region, dims.peril, slot as u32, band as u32]);
            self.cells
                .entry(key)
                .or_insert_with(|| SketchCell::empty(k))
                .absorb_sorted(column);
        }
        self.stats.reports += 1;
        self.stats.trials += sorted.len() as u64;
        // Deterministic quantities only; ingestion order is input
        // order, so these are bit-identical across thread counts.
        riskpipe_obs::counter_add("warehouse.reports", 1);
        riskpipe_obs::counter_add("warehouse.trials", sorted.len() as u64);
        Ok(())
    }

    /// Consume the sink into the queryable [`Drilldown`].
    pub fn finish(self) -> RiskResult<Drilldown> {
        let base = SketchCuboid::from_entries(
            self.layout.schema(),
            LevelSelect::BASE,
            self.cells.into_iter().collect(),
        )?;
        Ok(Drilldown::new(self.layout, base, self.stats))
    }
}

impl std::fmt::Debug for WarehouseSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarehouseSink")
            .field("scenarios", &self.layout.scenarios())
            .field("cells", &self.cells.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ReportSink for WarehouseSink {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.ingest_report(slot, &report)
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        // Fan-out delivery: ingest reads the shared report's sorted
        // column in place — no clone, same bits as owning delivery.
        self.ingest_report(slot, report)
    }
}

impl ReportSink for &mut WarehouseSink {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.ingest_report(slot, &report)
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.ingest_report(slot, report)
    }
}
