//! [`SweepPlan`] — the declarative execution API: one composable plan
//! per sweep, many consumers of its report stream.
//!
//! The paper's stage-2/stage-3 pipeline is one dataflow — simulate,
//! aggregate, persist, cube — while the streaming core
//! ([`RiskSession::run_stream`]) feeds exactly *one* consumer. A
//! [`SweepPlan`] **declares** what a sweep should produce and drives
//! the streaming core once, fanning every report out to all requested
//! consumers via [`FanoutSink`]:
//!
//! ```no_run
//! use riskpipe_core::{RiskSession, ScenarioConfig};
//!
//! let session = RiskSession::with_defaults()?;
//! let scenarios = vec![ScenarioConfig::small(); 4];
//! let outcome = session
//!     .sweep(&scenarios)
//!     .summary() // pooled EP/TVaR analytics
//!     .persist() // durable per-report artifacts via the session store
//!     .drive()?;
//! let pooled_tvar = outcome.summary().unwrap().pooled_tvar99();
//! # Ok::<(), riskpipe_types::RiskError>(())
//! ```
//!
//! Downstream crates extend the plan the same way they extend the
//! session: `riskpipe-analytics` adds `.warehouse(layout)` (via its
//! `SweepPlanAnalytics` trait), turning the same single sweep into a
//! queryable drill-down cube as well.
//!
//! ## Contract
//!
//! * **One sweep.** However many consumers are attached, scenarios
//!   execute once, through [`RiskSession::run_stream`]'s input-order,
//!   O(pool width) streaming core.
//! * **One YLT per scenario.** Delivery shares each report by
//!   reference across consumers ([`ReportSink::accept_shared`]); no
//!   in-tree consumer clones it.
//! * **Bit-identity.** Each consumer's result is bit-identical to what
//!   it would produce as the sweep's only sink, on any thread count —
//!   attaching more consumers never perturbs any of them (pinned by
//!   `tests/sweep_plan.rs`).
//! * **Typed outcome.** [`SweepOutcome`] carries each artifact only if
//!   it was requested, behind typed accessors — no downcasting, no
//!   stringly-keyed results.

use crate::config::ScenarioConfig;
use crate::report::SweepSummary;
use crate::session::{IntermediateStore, PipelineReport, RiskSession};
use crate::sink::{FanoutSink, PersistingSink, ReportSink};
use riskpipe_types::RiskResult;
use std::sync::Arc;

/// What the persistence consumer should write through.
struct PersistRequest {
    /// `None` uses the session's configured store.
    store: Option<Arc<dyn IntermediateStore>>,
    /// Run label for persisted artifacts (see
    /// [`PersistingSink::with_run`]).
    run: u64,
}

/// A declarative sweep under construction: which scenarios to run and
/// which consumers receive the report stream. Built by
/// [`RiskSession::sweep`]; finished by [`SweepPlan::drive`] (or
/// [`SweepPlan::drive_with`] to attach one extra ad-hoc sink). See the
/// module docs for the contract.
pub struct SweepPlan<'s> {
    session: &'s RiskSession,
    scenarios: &'s [ScenarioConfig],
    summary: bool,
    persist: Option<PersistRequest>,
    collect: bool,
}

impl<'s> SweepPlan<'s> {
    pub(crate) fn new(session: &'s RiskSession, scenarios: &'s [ScenarioConfig]) -> Self {
        Self {
            session,
            scenarios,
            summary: false,
            persist: None,
            collect: false,
        }
    }

    /// The session this plan will run on.
    pub fn session(&self) -> &'s RiskSession {
        self.session
    }

    /// The scenarios this plan will sweep, in input (delivery) order.
    pub fn scenarios(&self) -> &'s [ScenarioConfig] {
        self.scenarios
    }

    /// Request pooled sweep analytics: the outcome carries a
    /// [`SweepSummary`] folded over every report (pooled AEP/OEP
    /// points, VaR/TVaR, rp-band tail means).
    pub fn summary(mut self) -> Self {
        self.summary = true;
        self
    }

    /// Request durable per-report artifacts: each report's YLT and
    /// measures are written through the **session's** intermediate
    /// store as they arrive (see [`PersistingSink`]); the outcome
    /// carries the [`PersistedRun`] handle. Artifacts are labelled run
    /// 0 unless [`SweepPlan::persist_run`] says otherwise.
    pub fn persist(mut self) -> Self {
        self.persist.get_or_insert(PersistRequest {
            store: None,
            run: 0,
        });
        self
    }

    /// Like [`SweepPlan::persist`], but writing through `store`
    /// instead of the session's — the plan-level store override.
    pub fn persist_to(mut self, store: Arc<dyn IntermediateStore>) -> Self {
        match self.persist.as_mut() {
            Some(req) => req.store = Some(store),
            None => {
                self.persist = Some(PersistRequest {
                    store: Some(store),
                    run: 0,
                })
            }
        }
        self
    }

    /// Label persisted artifacts with `run` (implies
    /// [`SweepPlan::persist`]); successive persisted sweeps through
    /// one store need distinct run numbers to get disjoint
    /// directories.
    pub fn persist_run(mut self, run: u64) -> Self {
        match self.persist.as_mut() {
            Some(req) => req.run = run,
            None => self.persist = Some(PersistRequest { store: None, run }),
        }
        self
    }

    /// Request the collected reports themselves: the outcome carries
    /// every [`PipelineReport`] in input order (O(scenarios) memory).
    /// The collector is the fan-out's last member, so it takes each
    /// report by value — never a clone. The collected reports' shared
    /// sorted columns are cleared to keep the batch at one copy per
    /// column; other consumers on the same plan read them before the
    /// clear.
    pub fn collect(mut self) -> Self {
        self.collect = true;
        self
    }

    /// Execute the plan: one streaming sweep, every requested consumer
    /// fed from it, results in a typed [`SweepOutcome`]. A plan with
    /// no consumers still runs the sweep (stage-2 YELT spills via the
    /// session store happen regardless) and reports how many scenarios
    /// completed.
    pub fn drive(self) -> RiskResult<SweepOutcome> {
        self.drive_impl(None)
    }

    /// Execute the plan with one extra ad-hoc consumer riding the same
    /// fan-out, after the plan's own consumers. It receives each report
    /// by value unless [`SweepPlan::collect`] was requested (the
    /// collector goes last), in which case it reads it shared — see
    /// [`ReportSink::accept_shared`] for the clone-fallback caveat on
    /// closures. Extension crates build their typed plan surfaces on
    /// this: attach a sink, drive, then read the sink back.
    pub fn drive_with<S: ReportSink>(self, mut extra: S) -> RiskResult<SweepOutcome> {
        self.drive_impl(Some(&mut extra))
    }

    fn drive_impl(self, extra: Option<&mut dyn ReportSink>) -> RiskResult<SweepOutcome> {
        let session = self.session;
        let scenarios = self.scenarios;

        // Install the session's telemetry over the whole drive so the
        // outcome's snapshot covers plan composition and sink teardown,
        // not just the streaming core (which installs it again,
        // harmlessly nested, for direct `run_stream` callers).
        let _obs = session.install_telemetry();
        let drive_span = riskpipe_obs::span_key("sweep.drive", scenarios.len() as u64);

        // Each requested consumer is one fan-out member; the collector
        // goes last so it owns what it keeps.
        let mut summary = self.summary.then(SweepSummary::new);
        let mut persisting = self.persist.map(|req| {
            let store = req.store.unwrap_or_else(|| session.store());
            PersistingSink::new(store).with_run(req.run)
        });
        let mut collector = self.collect.then(CollectSink::default);
        let mut fan = FanoutSink::new();
        if let Some(s) = summary.as_mut() {
            fan.push(s);
        }
        if let Some(p) = persisting.as_mut() {
            fan.push(p);
        }
        if let Some(x) = extra {
            fan.push(x);
        }
        if let Some(c) = collector.as_mut() {
            fan.push(c);
        }
        let delivered = session.run_stream(scenarios, fan)?;

        // Close the drive span before snapshotting, so the snapshot
        // contains the completed span (open spans are omitted from
        // stitched records).
        drop(drive_span);
        let telemetry = session.telemetry().map(|t| t.snapshot());

        Ok(SweepOutcome {
            delivered,
            summary,
            persisted: persisting.map(|p| PersistedRun {
                store: Arc::clone(p.store()),
                run: p.run(),
                reports: p.reports_persisted(),
                bytes: p.bytes_persisted(),
            }),
            reports: collector.map(|c| c.reports),
            telemetry,
        })
    }
}

impl std::fmt::Debug for SweepPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPlan")
            .field("scenarios", &self.scenarios.len())
            .field("summary", &self.summary)
            .field("persist", &self.persist.is_some())
            .field("collect", &self.collect)
            .finish()
    }
}

/// The owning collector behind [`SweepPlan::collect`]: the last
/// fan-out member, so it receives every report by value and none is
/// ever cloned; clears the shared sorted columns on retained reports.
#[derive(Default)]
struct CollectSink {
    reports: Vec<PipelineReport>,
}

impl ReportSink for &mut CollectSink {
    fn accept(&mut self, _slot: usize, mut report: PipelineReport) -> RiskResult<()> {
        // The shared sorted columns exist for streaming sinks, which
        // drop the report immediately; retaining them across a
        // collected batch would double every report's column memory.
        // Consumers that need them re-sort (SweepSummary falls back
        // automatically).
        report.agg_sorted = Vec::new();
        report.occ_sorted = Vec::new();
        self.reports.push(report);
        Ok(())
    }
}

/// Handle to the durable artifacts a driven plan persisted (the
/// [`SweepPlan::persist`] consumer's outcome).
pub struct PersistedRun {
    store: Arc<dyn IntermediateStore>,
    run: u64,
    reports: u64,
    bytes: u64,
}

impl PersistedRun {
    /// The store the artifacts were written through.
    pub fn store(&self) -> &Arc<dyn IntermediateStore> {
        &self.store
    }

    /// The run number the artifacts are labelled with (feed it to
    /// reload paths such as `ShardedFilesStore::load_report_ylt`).
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Reports persisted.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Bytes written durably (0 for in-memory backends).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl std::fmt::Debug for PersistedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistedRun")
            .field("store", &self.store.name())
            .field("run", &self.run)
            .field("reports", &self.reports)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// Everything a driven [`SweepPlan`] produced. Each artifact is
/// present exactly when its consumer was requested on the plan; the
/// typed accessors return `None` otherwise — there is no way to read
/// an artifact the plan never declared.
#[derive(Debug)]
pub struct SweepOutcome {
    delivered: usize,
    summary: Option<SweepSummary>,
    persisted: Option<PersistedRun>,
    reports: Option<Vec<PipelineReport>>,
    telemetry: Option<riskpipe_obs::TelemetrySnapshot>,
}

impl SweepOutcome {
    /// Scenarios executed and delivered.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Pooled sweep analytics, when [`SweepPlan::summary`] was
    /// requested.
    pub fn summary(&self) -> Option<&SweepSummary> {
        self.summary.as_ref()
    }

    /// Consume the outcome, keeping the pooled analytics.
    pub fn into_summary(self) -> Option<SweepSummary> {
        self.summary
    }

    /// The persisted-run handle, when [`SweepPlan::persist`] /
    /// [`SweepPlan::persist_to`] was requested.
    pub fn persisted(&self) -> Option<&PersistedRun> {
        self.persisted.as_ref()
    }

    /// The collected reports (input order), when
    /// [`SweepPlan::collect`] was requested.
    pub fn reports(&self) -> Option<&[PipelineReport]> {
        self.reports.as_deref()
    }

    /// Consume the outcome, keeping the collected reports.
    pub fn into_reports(self) -> Option<Vec<PipelineReport>> {
        self.reports
    }

    /// The sweep's telemetry snapshot — spans and metrics recorded
    /// between the drive starting and the last sink sealing — when the
    /// session was built with
    /// [`RiskSessionBuilder::telemetry`](crate::RiskSessionBuilder::telemetry).
    /// The snapshot is cumulative over the session's telemetry handle;
    /// call [`riskpipe_obs::Telemetry::reset`] between drives for
    /// per-sweep numbers.
    pub fn telemetry(&self) -> Option<&riskpipe_obs::TelemetrySnapshot> {
        self.telemetry.as_ref()
    }

    /// Consume the outcome, keeping the telemetry snapshot.
    pub fn into_telemetry(self) -> Option<riskpipe_obs::TelemetrySnapshot> {
        self.telemetry
    }
}
