//! The drill-down extension of the declarative sweep API:
//! `session.sweep(scenarios) … .warehouse(layout).drive()`.
//!
//! `riskpipe-core` cannot depend on this crate, so — like
//! [`SessionAnalytics`](crate::SessionAnalytics) for the session — the
//! plan gains its warehouse consumer through an extension trait:
//! import [`SweepPlanAnalytics`] (or the umbrella prelude) and every
//! [`SweepPlan`] offers [`SweepPlanAnalytics::warehouse`]. Declare the
//! core plan's consumers first and `.warehouse(layout)` last: the
//! returned [`WarehousePlan`] wraps the finished core plan and rides
//! its single streaming pass — a [`WarehouseSink`] joins the fan-out
//! (no YLT copies) and [`WarehousePlan::drive`] returns a
//! [`WarehouseOutcome`] carrying the queryable [`Drilldown`] next to
//! the core [`SweepOutcome`] artifacts.
//!
//! ```no_run
//! use riskpipe_analytics::{DrilldownLayout, ScenarioDims, SweepPlanAnalytics};
//! use riskpipe_core::{RiskSession, ScenarioConfig};
//!
//! let session = RiskSession::with_defaults()?;
//! let scenarios = vec![ScenarioConfig::small().with_name("r0-p0")];
//! let dims = vec![ScenarioDims::for_scenario(0, 0, &scenarios[0])];
//! let layout = DrilldownLayout::new(dims, session.engine())?;
//! let outcome = session
//!     .sweep(&scenarios)
//!     .summary()
//!     .persist()
//!     .warehouse(layout)
//!     .materialize_budget(256 * 1024)
//!     .drive()?;
//! let pooled = outcome.summary().unwrap().pooled_tvar99();
//! let warehouse = outcome.into_drilldown();
//! # Ok::<(), riskpipe_types::RiskError>(())
//! ```

use crate::dims::DrilldownLayout;
use crate::drilldown::Drilldown;
use crate::ingest::WarehouseSink;
use crate::session_ext::check_layout;
use riskpipe_core::{PersistedRun, SweepOutcome, SweepPlan, SweepSummary};
use riskpipe_types::RiskResult;
use riskpipe_warehouse::ViewSelection;

/// Extension trait adding the warehouse consumer to [`SweepPlan`].
pub trait SweepPlanAnalytics<'s> {
    /// Attach a drill-down warehouse build: the driven sweep's reports
    /// are cut into return-period bands and folded into sketch-valued
    /// cells shaped by `layout` (see [`WarehouseSink`]), alongside the
    /// plan's other consumers — all from one streaming pass.
    fn warehouse(self, layout: DrilldownLayout) -> WarehousePlan<'s>;
}

impl<'s> SweepPlanAnalytics<'s> for SweepPlan<'s> {
    fn warehouse(self, layout: DrilldownLayout) -> WarehousePlan<'s> {
        WarehousePlan {
            plan: self,
            layout,
            budget: None,
        }
    }
}

/// A [`SweepPlan`] extended with a warehouse consumer. Its one knob is
/// the materialisation byte budget; the rp-band sketch capacity rides
/// the layout ([`DrilldownLayout::with_sketch_k`]). Finish with
/// [`WarehousePlan::drive`].
pub struct WarehousePlan<'s> {
    plan: SweepPlan<'s>,
    layout: DrilldownLayout,
    budget: Option<u64>,
}

impl WarehousePlan<'_> {
    /// After the sweep, materialise lattice views under this byte
    /// budget ([`Drilldown::materialize_budget`]); the selection is
    /// reported on the outcome.
    pub fn materialize_budget(mut self, bytes: u64) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Execute the extended plan: one streaming sweep feeding the core
    /// consumers *and* the warehouse sink, then (optionally) budgeted
    /// view materialisation. Validates the layout against the sweep
    /// shape and session engine first.
    pub fn drive(self) -> RiskResult<WarehouseOutcome> {
        check_layout(
            self.plan.session(),
            self.plan.scenarios().len(),
            &self.layout,
        )?;
        let mut sink = WarehouseSink::on_pool(self.layout, self.plan.session().shared_pool())?;
        let sweep = self.plan.drive_with(&mut sink)?;
        let mut drilldown = sink.finish()?;
        let selection = match self.budget {
            Some(bytes) => Some(drilldown.materialize_budget(bytes)?),
            None => None,
        };
        Ok(WarehouseOutcome {
            sweep,
            drilldown,
            selection,
        })
    }
}

impl std::fmt::Debug for WarehousePlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarehousePlan")
            .field("plan", &self.plan)
            .field("layout_scenarios", &self.layout.scenarios())
            .field("budget", &self.budget)
            .finish()
    }
}

/// A driven [`WarehousePlan`]'s artifacts: the core [`SweepOutcome`]
/// plus the queryable [`Drilldown`] (always present — the warehouse
/// consumer was requested by construction) and the view selection when
/// a materialisation budget was set.
#[derive(Debug)]
pub struct WarehouseOutcome {
    sweep: SweepOutcome,
    drilldown: Drilldown,
    selection: Option<ViewSelection>,
}

impl WarehouseOutcome {
    /// The core sweep artifacts (summary / persisted run / reports,
    /// each present only if requested).
    pub fn sweep(&self) -> &SweepOutcome {
        &self.sweep
    }

    /// Scenarios executed and delivered.
    pub fn delivered(&self) -> usize {
        self.sweep.delivered()
    }

    /// Pooled sweep analytics, when requested on the plan.
    pub fn summary(&self) -> Option<&SweepSummary> {
        self.sweep.summary()
    }

    /// The persisted-run handle, when requested on the plan.
    pub fn persisted(&self) -> Option<&PersistedRun> {
        self.sweep.persisted()
    }

    /// The sweep's telemetry snapshot, when the session was built with
    /// a telemetry handle (forward of [`SweepOutcome::telemetry`]).
    /// One `warehouse.ingest` span per scenario (a leaf: ingest runs
    /// no job, so no `shuffle.*` spans or counters) and the
    /// `warehouse.reports` / `warehouse.trials` counters appear here
    /// because ingestion rides the sweep's delivery path.
    pub fn telemetry(&self) -> Option<&riskpipe_obs::TelemetrySnapshot> {
        self.sweep.telemetry()
    }

    /// The queryable warehouse.
    pub fn drilldown(&self) -> &Drilldown {
        &self.drilldown
    }

    /// The budgeted view selection, when
    /// [`WarehousePlan::materialize_budget`] was set.
    pub fn selection(&self) -> Option<&ViewSelection> {
        self.selection.as_ref()
    }

    /// Consume the outcome, keeping the warehouse.
    pub fn into_drilldown(self) -> Drilldown {
        self.drilldown
    }
}
