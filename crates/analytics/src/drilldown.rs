//! Build and query: the materialised drill-down warehouse.
//!
//! [`Drilldown`] holds the base sketch-valued cuboid a
//! [`WarehouseSink`](crate::WarehouseSink) accumulated, plus any
//! coarser views materialised from it. View selection runs the HRU
//! greedy algorithm under a **byte** budget
//! ([`Drilldown::materialize_budget`]): each lattice node's exact
//! footprint (sketch bytes included — cell counts alone would misprice
//! sketch-heavy views) is computed from the base without rolling the
//! node up ([`SketchCuboid::rollup_memory_bytes`]: the rollup's key
//! grouping, and each group's sketch size folded from its sources'
//! per-level item counts), then [`greedy_select_budget`] picks by
//! benefit-per-byte until the budget is spent, and only the picks are
//! rolled up. Sizing builds no cuboid.
//!
//! Every view, budgeted or [`Drilldown::materialize`]d one at a time,
//! is rolled up from the base and never from another view, so a view's
//! cells are the same bits whichever views came before it.
//!
//! The picks' rollups run as tasks on the pool the warehouse was built
//! with: the session's pool when a session built it
//! ([`AnalyticsHandle::rebuild_from_store`](crate::AnalyticsHandle::rebuild_from_store),
//! a sweep plan's `.warehouse(layout)`), [`riskpipe_exec::global_pool`]
//! when a bare [`WarehouseSink`](crate::WarehouseSink) did. Each
//! rollup is a pure function of the base cuboid, so the views are the
//! same on any pool. Everything else here, sizing included, runs on
//! the calling thread.
//!
//! Queries ([`Drilldown::answer`]) are planned by the plain
//! warehouse's own rule ([`SketchCuboid::smallest_covering`]): the
//! smallest materialised cuboid that is finer-or-equal on every
//! dimension serves the query, with per-query cost accounting.

use crate::dims::DrilldownLayout;
use crate::ingest::IngestStats;
use riskpipe_exec::{par_map_collect, suggest_grain, ThreadPool};
use riskpipe_types::RiskResult;
use riskpipe_warehouse::{
    enumerate, greedy_select_budget, LevelSelect, Query, QueryCost, Schema, SketchCuboid,
    SketchRow, ViewSelection,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The queryable stage-3 warehouse: base cuboid + materialised views.
#[derive(Debug, Clone)]
pub struct Drilldown {
    layout: DrilldownLayout,
    base: SketchCuboid,
    views: BTreeMap<LevelSelect, SketchCuboid>,
    stats: IngestStats,
    /// The pool view sizing runs on; `None` is the global pool.
    pool: Option<Arc<ThreadPool>>,
}

impl Drilldown {
    pub(crate) fn new(
        layout: DrilldownLayout,
        base: SketchCuboid,
        stats: IngestStats,
        pool: Option<Arc<ThreadPool>>,
    ) -> Self {
        Self {
            layout,
            base,
            views: BTreeMap::new(),
            stats,
            pool,
        }
    }

    fn pool(&self) -> &ThreadPool {
        self.pool
            .as_deref()
            .unwrap_or_else(|| riskpipe_exec::global_pool())
    }

    /// The star schema queries are phrased against.
    pub fn schema(&self) -> &Schema {
        self.layout.schema()
    }

    /// The layout the warehouse was built with.
    pub fn layout(&self) -> &DrilldownLayout {
        &self.layout
    }

    /// Aggregate ingest metrics of the sweep behind the warehouse.
    pub fn ingest_stats(&self) -> IngestStats {
        self.stats
    }

    /// The finest (base) cuboid: one cell per scenario × return-period
    /// band.
    pub fn base(&self) -> &SketchCuboid {
        &self.base
    }

    /// Selections currently materialised beyond the base.
    pub fn views(&self) -> Vec<LevelSelect> {
        self.views.keys().copied().collect()
    }

    /// Bytes held by the base cuboid plus every materialised view.
    pub fn memory_bytes(&self) -> usize {
        self.base.memory_bytes() + self.views.values().map(|v| v.memory_bytes()).sum::<usize>()
    }

    /// The cuboid the planner reads for `select`: the smallest retained
    /// one that covers it. The base is offered first, so a view
    /// displaces it only by being strictly smaller, and it is finer
    /// than everything, so a source always exists — stage 3 never
    /// rescans facts; the base *is* the finest retained aggregate.
    fn source_for(&self, select: LevelSelect) -> &SketchCuboid {
        let retained = std::iter::once(&self.base).chain(self.views.values());
        SketchCuboid::smallest_covering(retained, select).unwrap_or(&self.base)
    }

    /// Materialise one view, rolled up from the base. Every view comes
    /// from the base, never from a coarser retained view: a sketch cell
    /// rolled up from an already-compacted view is not the cell rolled
    /// up from the base, so a view's bits would depend on which views
    /// were materialised before it.
    pub fn materialize(&mut self, select: LevelSelect) -> RiskResult<()> {
        if select == self.base.select() || self.views.contains_key(&select) {
            return Ok(());
        }
        let view = self.base.rollup(self.layout.schema(), select)?;
        self.views.insert(select, view);
        Ok(())
    }

    /// Greedy view selection under `budget_bytes` of view storage
    /// (HRU benefit-per-byte; the base cuboid is always kept and costs
    /// nothing against the budget). Replaces the current view set.
    /// Sizes are **exact**, not estimated, and cost no rollup: each
    /// lattice node's size is
    /// [`rollup_memory_bytes`](SketchCuboid::rollup_memory_bytes) of the
    /// base — the `memory_bytes` its rollup would have, from the
    /// rollup's own key grouping and the sketches' per-level item
    /// counts — computed on the calling thread. Only the picks are
    /// rolled up from the base, on the pool (see the module docs).
    /// Sizes reach the picker in `enumerate` order, and the first
    /// failing node in that order is the error.
    pub fn materialize_budget(&mut self, budget_bytes: u64) -> RiskResult<ViewSelection> {
        let _span = riskpipe_obs::span("warehouse.materialize");
        let schema = self.layout.schema();
        let base = &self.base;
        let sizes: Vec<(LevelSelect, u64)> = enumerate(schema)
            .into_iter()
            .map(|select| Ok((select, base.rollup_memory_bytes(schema, select)? as u64)))
            .collect::<RiskResult<_>>()?;
        let selection = greedy_select_budget(&sizes, budget_bytes);
        let picked = &selection.picked;
        let pool = self.pool();
        let grain = suggest_grain(picked.len(), pool.thread_count(), 1);
        let built = par_map_collect(pool, picked.len(), grain, |i| {
            base.rollup(schema, picked[i])
        });
        let views = picked
            .iter()
            .copied()
            .zip(built)
            .map(|(select, view)| Ok((select, view?)))
            .collect::<RiskResult<_>>()?;
        // Deterministic: the views built, the only rollups run.
        riskpipe_obs::counter_add("warehouse.materialize.rollups", picked.len() as u64);
        self.views = views;
        Ok(selection)
    }

    /// Answer `query` from the smallest retained cuboid that can serve
    /// it. Returns the rows and the cost record in the plain
    /// warehouse's vocabulary. Rows fed by one cell borrow it from this
    /// warehouse (see [`Row`](riskpipe_warehouse::Row)); take
    /// [`into_owned`](riskpipe_warehouse::Row::into_owned) rows to
    /// re-materialise while holding an answer.
    pub fn answer(&self, query: &Query) -> RiskResult<(Vec<SketchRow<'_>>, QueryCost)> {
        let source = self.source_for(query.select);
        let (rows, cost) = source.answer(self.layout.schema(), query)?;
        // Deterministic quantities only: a pure function of the
        // retained cuboids and the query.
        riskpipe_obs::counter_add("warehouse.answer.queries", 1);
        riskpipe_obs::counter_add("warehouse.answer.cells_read", cost.cells_read);
        riskpipe_obs::counter_add("warehouse.answer.rows_borrowed", cost.rows_borrowed);
        riskpipe_obs::counter_add("warehouse.answer.cells_merged", cost.cells_merged);
        Ok((rows, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioDims, WarehouseSink};
    use riskpipe_aggregate::EngineKind;
    use riskpipe_tables::Ylt;
    use riskpipe_warehouse::Source;

    /// Three slots, each in its own attachment band, all on one engine:
    /// the contract hierarchy's band level has exactly as many cells as
    /// its layer level, and its engine and "all" levels both collapse
    /// to a single code.
    fn tied_warehouse() -> Drilldown {
        let dims = (0..3)
            .map(|slot| ScenarioDims {
                region: slot % 2,
                peril: 0,
                attachment_band: slot,
            })
            .collect();
        let layout = DrilldownLayout::new(dims, EngineKind::Sequential).unwrap();
        let mut sink = WarehouseSink::new(layout).unwrap();
        for slot in 0..3 {
            let losses: Vec<f64> = (0..40).map(|t| ((t * 7 + slot * 3) % 41) as f64).collect();
            let ylt = Ylt::from_columns(losses.clone(), losses, vec![1; 40]).unwrap();
            sink.ingest(slot, &ylt).unwrap();
        }
        sink.finish().unwrap()
    }

    #[test]
    fn planner_ties_keep_the_base_then_the_lower_select() {
        let mut wh = tied_warehouse();
        let base_cells = wh.base().cells();

        // A view exactly as large as the base does not displace it.
        let by_band = LevelSelect([0, 0, 1, 0]);
        wh.materialize(by_band).unwrap();
        assert_eq!(wh.views[&by_band].cells(), base_cells);
        let (_, cost) = wh.answer(&Query::group_by(by_band)).unwrap();
        assert_eq!(cost.source, Source::Materialized(LevelSelect::BASE));

        // Of two equally small covering views the lower select serves,
        // whichever was materialised first.
        let (by_engine, pooled) = (LevelSelect([0, 0, 2, 0]), LevelSelect([0, 0, 3, 0]));
        wh.materialize(pooled).unwrap();
        wh.materialize(by_engine).unwrap();
        assert_eq!(wh.views[&by_engine].cells(), wh.views[&pooled].cells());
        assert!(wh.views[&pooled].cells() < base_cells);
        let (_, cost) = wh.answer(&Query::group_by(pooled)).unwrap();
        assert_eq!(cost.source, Source::Materialized(by_engine));
        assert_eq!(cost.cells_read, wh.views[&by_engine].cells() as u64);
    }
}
