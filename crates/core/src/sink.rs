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
//! * [`PersistingSink`]: stages each report's YLT and risk measures for
//!   an [`IntermediateStore`] as it arrives and drops it, while its
//!   writer thread makes the previous report durable — the ROADMAP's
//!   "persist reports as they arrive" shape, with durable per-scenario
//!   artifacts and nothing else retained.
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
//!
//! ## Write-behind persistence
//!
//! The one sink that does work off the calling thread is
//! [`PersistingSink`], and only its durable writes leave. Delivery
//! encodes the report into owned bytes (the report is gone once
//! delivery returns) and hands them over a rendezvous to the sink's
//! writer thread, which runs the store's tmp-write-fsync-rename
//! protocol in slot order while the caller folds the next report into
//! the other members. The rendezvous keeps the depth at one write in
//! flight plus one staged, so a slow disk still backpressures the sweep
//! — it is felt one report later, not lost. Errors keep slot order (the
//! lowest failing slot is the one returned), a failed or aborted run is
//! never sealed, and no writer outlives its sink: see
//! [`PersistingSink`] for the rules.

use crate::report::{PipelineReport, SweepSummary};
use crate::store::{IntermediateStore, RunLabel, StagedWrite};
use riskpipe_types::{RiskError, RiskResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// A sink that persists each report through an [`IntermediateStore`]
/// the moment it is delivered, and drops it. Pooled analytics
/// alongside the spill are a second [`FanoutSink`] member, a
/// [`SweepSummary`].
///
/// Persistence is **write-behind**. Delivery *stages* the report on
/// the delivering thread ([`IntermediateStore::stage_report`] encodes
/// its YLT frame and formats its measures into owned bytes) and hands
/// the staged write to one writer thread the sink owns, which runs the
/// store's durable protocol (tmp file, write, fsync, rename, directory
/// fsync) while the caller moves on to the next report. The rules:
///
/// * **Depth.** The handoff is a rendezvous: it returns once the
///   writer has taken the write, so at most two staged reports are
///   alive (one being written, one waiting to be handed over) and
///   storage still backpressures the sweep — the paper's data
///   challenge, analytics must not outrun what the data layer can
///   absorb. The depth is fixed. A `persist.handoff` span (key = slot)
///   around each handoff shows how long delivery waited for storage.
/// * **Order and errors.** Writes run in slot order, so the first one
///   to fail is the lowest failing slot. The writer stops there, and
///   the error comes back from the next [`ReportSink::accept`] or from
///   [`ReportSink::finish`]; a write that panics comes back as
///   [`RiskError::InvalidState`]. After a failure nothing more is
///   written and the run is never sealed.
/// * **Sealing.** [`ReportSink::finish`] waits for every write, then
///   writes the run manifest — only if all of them landed.
/// * **Abort.** A sink dropped without `finish` (its sweep aborted)
///   waits for the write in flight, seals nothing and leaves no thread
///   behind.
///
/// The writer is a thread of its own, started on the first staged
/// write, never a task on the session's pool: an fsync must not park a
/// compute worker. It records under the telemetry that was current on
/// the delivering thread when it started, so `durable.*` spans and
/// counters land in the sweep's snapshot. Stores that stage nothing
/// ([`InMemoryStore`](crate::InMemoryStore)) never start it.
pub struct PersistingSink {
    store: Arc<dyn IntermediateStore>,
    writer: Writer,
    written: Arc<Written>,
}

/// Completed writes, counted by the writer thread as each one lands.
#[derive(Default)]
struct Written {
    reports: AtomicU64,
    bytes: AtomicU64,
}

impl Written {
    fn add(&self, bytes: u64) {
        // Statistics only: the join in `Writer::stop` orders the
        // writer's last update before any read that has to be exact.
        self.reports.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// The sink's writer thread, if started.
enum Writer {
    Idle,
    Running {
        jobs: SyncSender<StagedWrite>,
        thread: JoinHandle<RiskResult<()>>,
    },
    /// A write failed, and its error has been returned once.
    Failed,
}

impl Writer {
    /// Start the writer: it runs handed-over writes in order until the
    /// sink hangs up or a write fails.
    fn start(written: Arc<Written>) -> RiskResult<Self> {
        let (jobs, queue) = sync_channel::<StagedWrite>(0);
        let telemetry = riskpipe_obs::current();
        let thread = std::thread::Builder::new()
            .name("riskpipe-persist".into())
            .spawn(move || {
                let _obs = telemetry.as_ref().map(riskpipe_obs::install);
                for write in queue {
                    written.add(write()?);
                }
                Ok(())
            })?;
        Ok(Self::Running { jobs, thread })
    }

    /// Hand slot `slot`'s staged write to the writer, starting it on
    /// the first one; returns once the writer has taken it.
    fn hand_over(
        &mut self,
        slot: usize,
        write: StagedWrite,
        written: &Arc<Written>,
    ) -> RiskResult<()> {
        if let Writer::Idle = self {
            *self = Writer::start(Arc::clone(written))?;
        }
        if let Writer::Running { jobs, .. } = self {
            let _span = riskpipe_obs::span_key("persist.handoff", slot as u64);
            if jobs.send(write).is_ok() {
                return Ok(());
            }
        }
        // The writer hung up because a write failed (its error is this
        // delivery's), or it had failed before.
        self.stop()
    }

    /// Hang up and wait for the writer to finish what it holds. Returns
    /// the first failed write's error, if any.
    fn stop(&mut self) -> RiskResult<()> {
        match std::mem::replace(self, Writer::Idle) {
            Writer::Idle => Ok(()),
            Writer::Failed => {
                *self = Writer::Failed;
                Err(RiskError::InvalidState(
                    "an earlier persisted write failed; the run cannot be sealed".into(),
                ))
            }
            Writer::Running { jobs, thread } => {
                drop(jobs);
                // lint: allow(C1) — the writer is the sink's own thread,
                // never a pool task, and runs only staged writes, which
                // wait on no pool work: once the channel is closed it
                // exits after the one write it holds.
                let outcome = thread.join().unwrap_or_else(|panic| {
                    let why = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    Err(RiskError::InvalidState(format!(
                        "a persisted write panicked: {why}"
                    )))
                });
                if outcome.is_err() {
                    *self = Writer::Failed;
                }
                outcome
            }
        }
    }
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
            writer: Writer::Idle,
            written: Arc::default(),
        }
    }

    /// The store this sink persists through.
    pub fn store(&self) -> &Arc<dyn IntermediateStore> {
        &self.store
    }

    /// Reports whose writes have completed. After
    /// [`ReportSink::finish`], every delivered report.
    pub fn reports_persisted(&self) -> u64 {
        self.written.reports.load(Ordering::Relaxed)
    }

    /// Bytes the store reported writing durably, over completed writes
    /// and the run manifest (0 for in-memory backends).
    pub fn bytes_persisted(&self) -> u64 {
        self.written.bytes.load(Ordering::Relaxed)
    }

    /// The body of [`ReportSink::finish`] for both the owned and
    /// borrowed impls: wait for every staged write, then seal the run
    /// by writing its manifest, recording how many slots were
    /// persisted.
    fn seal(&mut self) -> RiskResult<()> {
        self.writer.stop()?;
        let bytes = self
            .store
            .finish_run(0, self.reports_persisted() as usize)?;
        self.written.bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// The shared-report body of both accept paths: stage the report,
    /// then hand the write to the writer.
    fn deliver(&mut self, slot: usize, report: &PipelineReport) -> RiskResult<()> {
        let label = RunLabel {
            slot: Some(slot),
            run: 0,
        };
        match self.store.stage_report(label, report) {
            Some(write) => self.writer.hand_over(slot, write, &self.written),
            None => {
                self.written.add(0);
                Ok(())
            }
        }
    }
}

impl Drop for PersistingSink {
    fn drop(&mut self) {
        // An unsealed sink (its sweep aborted) still waits for the
        // write in flight, so no thread outlives it; its error, if
        // any, went nowhere to be read.
        let _ = self.writer.stop();
    }
}

impl std::fmt::Debug for PersistingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistingSink")
            .field("store", &self.store.name())
            .field("reports_persisted", &self.reports_persisted())
            .field("bytes_persisted", &self.bytes_persisted())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::report;
    use riskpipe_tables::{Elt, YearEventTable};
    use std::sync::atomic::AtomicBool;

    /// A store whose staged writes run `write(slot)`, and which records
    /// whether the run was sealed.
    struct ScriptedStore {
        write: fn(usize) -> RiskResult<u64>,
        sealed: AtomicBool,
    }

    impl IntermediateStore for ScriptedStore {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn persist_yelt(&self, _: RunLabel, _: &YearEventTable, _: &Elt) -> RiskResult<u64> {
            Ok(0)
        }

        fn stage_report(&self, label: RunLabel, _: &PipelineReport) -> Option<StagedWrite> {
            let (write, slot) = (self.write, label.slot.unwrap_or(0));
            Some(Box::new(move || write(slot)))
        }

        fn finish_run(&self, _run: u64, _slots: usize) -> RiskResult<u64> {
            self.sealed.store(true, Ordering::Relaxed);
            Ok(0)
        }
    }

    fn sink(write: fn(usize) -> RiskResult<u64>) -> (PersistingSink, Arc<ScriptedStore>) {
        let store = Arc::new(ScriptedStore {
            write,
            sealed: AtomicBool::new(false),
        });
        (PersistingSink::new(store.clone()), store)
    }

    #[test]
    fn a_write_that_panics_is_a_typed_error_from_finish() {
        let (mut sink, store) = sink(|_| panic!("disk on fire"));
        // The handoff returns once the writer has taken the write.
        sink.accept_shared(0, &report("r", 1.0, &[1.0, 2.0]))
            .unwrap();
        match sink.finish() {
            Err(RiskError::InvalidState(msg)) => assert!(msg.contains("disk on fire"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(!store.sealed.load(Ordering::Relaxed));
        assert_eq!(sink.reports_persisted(), 0);
        // The sink stays failed: a second seal is refused too.
        assert!(sink.finish().is_err());
        assert!(!store.sealed.load(Ordering::Relaxed));
    }

    #[test]
    fn the_first_failed_write_is_returned_and_nothing_after_it_runs() {
        static RAN: AtomicU64 = AtomicU64::new(0);
        let (mut sink, store) = sink(|slot| {
            RAN.fetch_add(1, Ordering::Relaxed);
            match slot {
                1 | 2 => Err(RiskError::invalid(format!("slot {slot} failed"))),
                _ => Ok(10),
            }
        });
        let r = report("r", 1.0, &[1.0, 2.0]);
        let mut first_err = None;
        for slot in 0..6 {
            if let Err(e) = sink.accept_shared(slot, &r) {
                first_err = Some(e);
                break;
            }
        }
        let err = match first_err {
            Some(e) => e,
            None => sink.finish().unwrap_err(),
        };
        assert!(err.to_string().contains("slot 1 failed"), "{err}");
        assert!(sink.finish().is_err());
        assert!(!store.sealed.load(Ordering::Relaxed));
        assert_eq!(RAN.load(Ordering::Relaxed), 2, "no write ran after slot 1");
        assert_eq!((sink.reports_persisted(), sink.bytes_persisted()), (1, 10));
    }
}
