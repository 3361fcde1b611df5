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
    /// instead of re-running the sweep. The reloaded YLTs are
    /// bit-exact, and ingestion iterates slots in input order, so the
    /// rebuilt cells are bit-identical to the live-sink path.
    pub fn rebuild_from_store(&self, store: &ShardedFilesStore, run: u64) -> RiskResult<Drilldown> {
        let slots = store.persisted_report_slots(run)?;
        self.check(slots)?;
        let mut sink = WarehouseSink::new(self.layout.clone())?;
        for slot in 0..slots {
            let ylt = store.load_report_ylt(Some(slot), run)?;
            sink.ingest(slot, &ylt)?;
        }
        sink.finish()
    }

    fn check(&self, scenarios: usize) -> RiskResult<()> {
        check_layout(self.session, scenarios, &self.layout)
    }
}
