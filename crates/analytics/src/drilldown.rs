//! Build and query: the materialised drill-down warehouse.
//!
//! [`Drilldown`] holds the base sketch-valued cuboid a
//! [`WarehouseSink`](crate::WarehouseSink) accumulated, plus any
//! coarser views materialised from it. View selection runs the HRU
//! greedy algorithm under a **byte** budget
//! ([`Drilldown::materialize_budget`]): every lattice node is rolled
//! up once to measure its exact footprint (sketch bytes included —
//! cell counts alone would misprice sketch-heavy views), then
//! [`greedy_select_budget`] picks by benefit-per-byte until the budget
//! is spent.
//!
//! The rollups that size the lattice run as tasks on the pool the
//! warehouse was built with: the session's pool when a session built
//! it ([`AnalyticsHandle::rebuild_from_store`](crate::AnalyticsHandle::rebuild_from_store),
//! a sweep plan's `.warehouse(layout)`), [`riskpipe_exec::global_pool`]
//! when a bare [`WarehouseSink`](crate::WarehouseSink) did. Each node's
//! rollup is a pure function of the base cuboid, and the sizes are
//! collected in `enumerate` order, so the picks are the same on any
//! pool. Everything else here runs on the calling thread.
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

    /// Materialise one view, derived from the smallest retained finer
    /// cuboid (cell cost, not ingest cost).
    pub fn materialize(&mut self, select: LevelSelect) -> RiskResult<()> {
        if select == self.base.select() || self.views.contains_key(&select) {
            return Ok(());
        }
        let view = self
            .source_for(select)
            .rollup(self.layout.schema(), select)?;
        self.views.insert(select, view);
        Ok(())
    }

    /// Drop a materialised view.
    pub fn evict(&mut self, select: LevelSelect) -> bool {
        self.views.remove(&select).is_some()
    }

    /// Greedy view selection under `budget_bytes` of view storage
    /// (HRU benefit-per-byte; the base cuboid is always kept and costs
    /// nothing against the budget). Replaces the current view set.
    /// Sizes are **measured**, not estimated: every lattice node is
    /// rolled up once — the lattice here is dozens of nodes over
    /// already-aggregated cells, so measuring costs less than one
    /// mispriced materialisation would. The rollups run as tasks of a
    /// few nodes each on the warehouse's pool (see the module docs);
    /// their sizes reach the picker in `enumerate` order, and the first
    /// failing node in that order is the error.
    pub fn materialize_budget(&mut self, budget_bytes: u64) -> RiskResult<ViewSelection> {
        let _span = riskpipe_obs::span("warehouse.materialize");
        let schema = self.layout.schema();
        let selects = enumerate(schema);
        let base = &self.base;
        let pool = self.pool();
        let grain = suggest_grain(selects.len(), pool.thread_count(), 1);
        let rolled = par_map_collect(pool, selects.len(), grain, |i| {
            let select = selects[i];
            (select != base.select())
                .then(|| base.rollup(schema, select))
                .transpose()
        });
        let mut measured: BTreeMap<LevelSelect, SketchCuboid> = BTreeMap::new();
        let mut sizes: Vec<(LevelSelect, u64)> = Vec::with_capacity(selects.len());
        for (select, cuboid) in selects.into_iter().zip(rolled) {
            match cuboid? {
                Some(cuboid) => {
                    sizes.push((select, cuboid.memory_bytes() as u64));
                    measured.insert(select, cuboid);
                }
                None => sizes.push((select, self.base.memory_bytes() as u64)),
            }
        }
        let selection = greedy_select_budget(&sizes, budget_bytes);
        // The base select sits in `sizes` (so the picker sees it) but
        // never in `measured` — it is always retained as `self.base`,
        // not as a view. `filter_map` drops it here instead of
        // panicking if the picker ever returns it.
        self.views = selection
            .picked
            .iter()
            .filter_map(|sel| measured.remove(sel).map(|cuboid| (*sel, cuboid)))
            .collect();
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
