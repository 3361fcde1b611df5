//! `RiskSession::analytics()` — the session-level entry point of the
//! drill-down subsystem.
//!
//! `riskpipe-core` cannot depend on this crate (the dependency runs
//! the other way), so the method arrives via the [`SessionAnalytics`]
//! extension trait: import it (or the umbrella prelude) and every
//! session gains `.analytics(layout)`.

use crate::dims::DrilldownLayout;
use crate::drilldown::Drilldown;
use crate::ingest::WarehouseSink;
use riskpipe_core::{RiskSession, ShardedFilesStore};
use riskpipe_exec::par_map_collect;
use riskpipe_types::{RiskError, RiskResult};

/// A sweep/layout compatibility check shared by every path that builds
/// a warehouse from a session: the sweep width must match the layout's
/// slot count, and the session's engine must match the layout's engine
/// provenance code.
pub(crate) fn check_layout(
    session: &RiskSession,
    scenarios: usize,
    layout: &DrilldownLayout,
) -> RiskResult<()> {
    if scenarios != layout.scenarios() {
        return Err(RiskError::invalid(format!(
            "sweep has {scenarios} scenarios but the layout describes {}",
            layout.scenarios()
        )));
    }
    if session.engine() != layout.engine() {
        return Err(RiskError::invalid(format!(
            "session engine {:?} does not match layout engine {:?}",
            session.engine(),
            layout.engine()
        )));
    }
    Ok(())
}

/// Extension trait giving [`RiskSession`] the stage-3 drill-down API.
pub trait SessionAnalytics {
    /// A drill-down handle over this session for sweeps shaped like
    /// `layout`.
    fn analytics(&self, layout: DrilldownLayout) -> AnalyticsHandle<'_>;
}

impl SessionAnalytics for RiskSession {
    fn analytics(&self, layout: DrilldownLayout) -> AnalyticsHandle<'_> {
        AnalyticsHandle {
            session: self,
            layout,
        }
    }
}

/// A borrowed session plus a sweep layout: rebuilds queryable
/// warehouses from persisted spills. (A live sweep declares its
/// warehouse on the plan: `session.sweep(..).warehouse(layout)`.)
#[derive(Debug)]
pub struct AnalyticsHandle<'s> {
    session: &'s RiskSession,
    layout: DrilldownLayout,
}

impl AnalyticsHandle<'_> {
    /// The layout this handle builds against.
    pub fn layout(&self) -> &DrilldownLayout {
        &self.layout
    }

    /// Rebuild the warehouse from a prior run's persisted reports (a
    /// [`ShardedFilesStore`] spill written by a `PersistingSink`)
    /// instead of re-running the sweep.
    ///
    /// Each slot's read, CRC check, decode and aggregate-column sort is
    /// one task on the session's pool. The tasks run in waves of
    /// `T = pool.thread_count()` slots, so at most `T` reloaded YLTs
    /// are alive at once. After each wave the calling thread folds the
    /// sorted columns into the warehouse in slot order, so the rebuilt
    /// cells are bit-identical to the live-sink path on any pool (the
    /// reloaded YLTs are bit-exact, and a sort by `total_cmp` has one
    /// result). When several slots fail to load, the error is the
    /// lowest-numbered slot's. The returned [`Drilldown`] sizes its
    /// views on the session's pool too. With telemetry attached to the
    /// session, the call records one `warehouse.rebuild` span on the
    /// calling thread.
    pub fn rebuild_from_store(&self, store: &ShardedFilesStore, run: u64) -> RiskResult<Drilldown> {
        let _ctx = self.session.telemetry().map(riskpipe_obs::install);
        let _span = riskpipe_obs::span("warehouse.rebuild");
        let slots = store.persisted_report_slots(run)?;
        self.check(slots)?;
        let pool = self.session.pool();
        let wave = pool.thread_count().max(1);
        let mut sink = WarehouseSink::on_pool(self.layout.clone(), self.session.shared_pool())?;
        for first in (0..slots).step_by(wave) {
            let width = wave.min(slots - first);
            let columns = par_map_collect(pool, width, 1, |i| -> RiskResult<Vec<f64>> {
                let ylt = store.load_report_ylt(Some(first + i), run)?;
                Ok(ylt.sorted_agg_losses())
            });
            for (i, column) in columns.into_iter().enumerate() {
                sink.ingest_sorted(first + i, &column?)?;
            }
        }
        sink.finish()
    }

    fn check(&self, scenarios: usize) -> RiskResult<()> {
        check_layout(self.session, scenarios, &self.layout)
    }
}
