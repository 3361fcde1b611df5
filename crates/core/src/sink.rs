//! Report sinks: where a streaming sweep's reports go.
//!
//! [`ReportSink`] is the consumer side of
//! [`RiskSession::run_stream`](crate::RiskSession::run_stream). The
//! sink runs on the *calling* thread, and the stream's in-flight
//! window only reopens after the sink returns — so a slow sink (one
//! persisting to disk, say) backpressures the sweep to its own pace
//! instead of letting undelivered reports pile up. Three families of
//! sink ship in-tree:
//!
//! * any `FnMut(usize, PipelineReport) -> RiskResult<()>` closure via
//!   the blanket impl (note: rustc cannot infer closure *parameter*
//!   types through a blanket impl, so a closure whose body needs the
//!   report's type may have to annotate it: `|i, report:
//!   PipelineReport| …`);
//! * [`SweepSummary`]: folds each report into online pooled analytics
//!   and drops it;
//! * [`PersistingSink`]: writes each report's YLT and risk measures to
//!   an [`IntermediateStore`] as it arrives and drops it — the
//!   ROADMAP's "persist reports as they arrive" shape, with durable
//!   per-scenario artifacts and nothing else retained.
//!
//! Consumers compose through one combinator, [`FanoutSink`]: one
//! sweep, many consumers. Every member but the last reads each report
//! *by reference* (see [`ReportSink::accept_shared`]) and the last
//! receives it by value, so pooled analytics, persistence, warehouse
//! ingestion and collection all read one report — the YLT is
//! materialised exactly once per scenario no matter how many sinks
//! are attached. [`SweepPlan`](crate::SweepPlan) is the declarative
//! front end over it.
//!
//! ## Shared delivery and bit-identity
//!
//! Fan-out delivery is sequential, on the calling thread, in sink
//! attachment order — so every sink observes exactly the input-ordered
//! report stream it would have observed alone, and per-sink results
//! are bit-identical regardless of how many other sinks ride the same
//! sweep (pinned by `tests/sweep_plan.rs`).

use crate::report::SweepSummary;
use crate::session::{IntermediateStore, PipelineReport, RunLabel};
use riskpipe_types::RiskResult;
use std::sync::Arc;

/// Consumes one streamed [`PipelineReport`] per scenario slot, in
/// input order. See the module docs for the backpressure contract.
pub trait ReportSink {
    /// Accept slot `slot`'s report. Returning an error aborts the
    /// sweep (no further scenarios start; in-flight ones drain).
    /// Ownership transfers here: dropping the report on return is what
    /// keeps a sweep's peak memory at O(pool width).
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()>;

    /// Accept a report that other sinks also read — the fan-out
    /// delivery path ([`FanoutSink`]). The default clones the report
    /// and forwards to [`ReportSink::accept`], so custom sinks keep
    /// working unchanged inside a fan-out; every in-tree sink
    /// overrides it to read the shared report in place, which is what
    /// keeps a multi-sink sweep at **one** YLT materialisation per
    /// scenario. A sink that needs ownership (e.g. one collecting
    /// reports) should be the last member of a [`FanoutSink`], which
    /// hands it the report by value.
    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.accept(slot, report.clone())
    }

    /// Seal the sink after every report has been delivered.
    /// [`RiskSession::run_stream`](crate::RiskSession::run_stream)
    /// calls this exactly once, *only* when the sweep completed without
    /// error — so sinks with durable side effects can write their
    /// completion marker here ([`PersistingSink`] writes the run
    /// manifest that
    /// [`ShardedFilesStore::persisted_report_slots`](crate::ShardedFilesStore::persisted_report_slots)
    /// requires), and an aborted or crashed sweep stays detectably
    /// incomplete. Default: no-op.
    fn finish(&mut self) -> RiskResult<()> {
        Ok(())
    }
}

impl<F> ReportSink for F
where
    F: FnMut(usize, PipelineReport) -> RiskResult<()>,
{
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        self(slot, report)
    }
}

/// Forwarding impl so a fan-out can hold a borrowed type-erased sink
/// (e.g. an extra consumer handed to
/// [`SweepPlan::drive_with`](crate::SweepPlan::drive_with)).
impl ReportSink for &mut (dyn ReportSink + '_) {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        (**self).accept(slot, report)
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        (**self).accept_shared(slot, report)
    }

    fn finish(&mut self) -> RiskResult<()> {
        (**self).finish()
    }
}

impl ReportSink for SweepSummary {
    fn accept(&mut self, _slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.push(&report);
        Ok(())
    }

    fn accept_shared(&mut self, _slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.push(report);
        Ok(())
    }
}

impl ReportSink for &mut SweepSummary {
    fn accept(&mut self, _slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.push(&report);
        Ok(())
    }

    fn accept_shared(&mut self, _slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.push(report);
        Ok(())
    }
}

/// A sink that persists each report through
/// [`IntermediateStore::persist_report`] the moment it is delivered,
/// and drops it. The store write happens inline on the delivering
/// thread, so storage throughput backpressures the sweep (the paper's
/// data challenge: analytics must not outrun what the data layer can
/// absorb). Pooled analytics alongside the spill are a second
/// [`FanoutSink`] member, a [`SweepSummary`].
pub struct PersistingSink {
    store: Arc<dyn IntermediateStore>,
    reports_persisted: u64,
    bytes_persisted: u64,
}

impl PersistingSink {
    /// A sink persisting through `store`, labelling artifacts as run 0.
    ///
    /// Successive sweeps through **one** store must be distinguished by
    /// the caller: reclaim the previous sweep's artifacts with the
    /// store's `clear_runs` first — two sinks over the same backend
    /// write the same per-slot paths, and the second sweep overwrites
    /// the first's artifacts.
    pub fn new(store: Arc<dyn IntermediateStore>) -> Self {
        Self {
            store,
            reports_persisted: 0,
            bytes_persisted: 0,
        }
    }

    /// The store this sink persists through.
    pub fn store(&self) -> &Arc<dyn IntermediateStore> {
        &self.store
    }

    /// Reports persisted so far.
    pub fn reports_persisted(&self) -> u64 {
        self.reports_persisted
    }

    /// Bytes the store reported writing durably (0 for in-memory
    /// backends).
    pub fn bytes_persisted(&self) -> u64 {
        self.bytes_persisted
    }

    /// The body of [`ReportSink::finish`] for both the owned and
    /// borrowed impls: seal the run by writing its manifest, recording
    /// how many slots were persisted.
    fn seal(&mut self) -> RiskResult<()> {
        let bytes = self.store.finish_run(0, self.reports_persisted as usize)?;
        self.bytes_persisted += bytes;
        Ok(())
    }

    /// The shared-report body of both accept paths.
    fn deliver(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        let bytes = self.store.persist_report(
            RunLabel {
                scenario: &report.scenario_name,
                slot: Some(slot),
                run: 0,
            },
            report,
        )?;
        self.bytes_persisted += bytes;
        self.reports_persisted += 1;
        Ok(())
    }
}

impl std::fmt::Debug for PersistingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistingSink")
            .field("store", &self.store.name())
            .field("reports_persisted", &self.reports_persisted)
            .field("bytes_persisted", &self.bytes_persisted)
            .finish()
    }
}

impl ReportSink for PersistingSink {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.deliver(slot, &report)
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.deliver(slot, report)
    }

    fn finish(&mut self) -> RiskResult<()> {
        self.seal()
    }
}

impl ReportSink for &mut PersistingSink {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        self.deliver(slot, &report)
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.deliver(slot, report)
    }

    fn finish(&mut self) -> RiskResult<()> {
        self.seal()
    }
}

/// The N-way fan-out combinator — the one way to compose consumers.
/// Delivery runs in attachment order on the delivering thread, under
/// one ownership rule:
///
/// * [`ReportSink::accept`] (owned delivery): members `0..n-1` read the
///   report by reference ([`ReportSink::accept_shared`]) and the
///   **last member receives it by value**. A consumer that needs the
///   report itself (collection, forwarding, a closure) therefore goes
///   last and costs no clone; a fan-out of one is just the `n = 1` case.
/// * [`ReportSink::accept_shared`] (the fan-out is itself a member of
///   another fan-out): every member reads the report by reference.
///
/// With in-tree sinks (which override [`ReportSink::accept_shared`]) a
/// report's YLT is materialised exactly once across all consumers; a
/// closure anywhere but last falls back to a per-delivery clone. An
/// empty fan-out accepts and drops every report, which makes "run the
/// sweep for its side effects" a valid degenerate plan.
#[derive(Default)]
pub struct FanoutSink<'a> {
    sinks: Vec<Box<dyn ReportSink + 'a>>,
}

impl<'a> FanoutSink<'a> {
    /// An empty fan-out; attach consumers with [`FanoutSink::push`] or
    /// [`FanoutSink::with`].
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Attach a sink (delivery follows attachment order). Borrowed
    /// sinks (`&mut SweepSummary`, say) work through their forwarding
    /// impls, so accumulated state stays readable after the sweep.
    pub fn push(&mut self, sink: impl ReportSink + 'a) {
        self.sinks.push(Box::new(sink));
    }

    /// Builder-style [`FanoutSink::push`].
    pub fn with(mut self, sink: impl ReportSink + 'a) -> Self {
        self.push(sink);
        self
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sink is attached (reports are dropped undelivered).
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl std::fmt::Debug for FanoutSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl FanoutSink<'_> {
    /// Deliver to members `0..end` by reference. One span and one
    /// delivery count per member (span key = attachment index), so a
    /// sweep's flame view shows which consumer backpressures delivery.
    /// Counted after the member returns: failed deliveries abort the
    /// sweep, so the counter stays deterministic across thread counts.
    fn share(&mut self, end: usize, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        for (i, sink) in self.sinks[..end].iter_mut().enumerate() {
            let _span = riskpipe_obs::span_key("sink.deliver", i as u64);
            sink.accept_shared(slot, report)?;
            riskpipe_obs::counter_add("sink.deliveries", 1);
        }
        Ok(())
    }
}

impl ReportSink for FanoutSink<'_> {
    fn accept(&mut self, slot: usize, report: PipelineReport) -> RiskResult<()> {
        let Some(last) = self.sinks.len().checked_sub(1) else {
            return Ok(());
        };
        self.share(last, slot, &report)?;
        let _span = riskpipe_obs::span_key("sink.deliver", last as u64);
        self.sinks[last].accept(slot, report)?;
        riskpipe_obs::counter_add("sink.deliveries", 1);
        Ok(())
    }

    fn accept_shared(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        self.share(self.sinks.len(), slot, report)
    }

    fn finish(&mut self) -> RiskResult<()> {
        for sink in &mut self.sinks {
            sink.finish()?;
        }
        Ok(())
    }
}
