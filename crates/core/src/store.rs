//! Where stage-2 intermediates and persisted reports live: the
//! [`IntermediateStore`] backend trait, its two built-in backends — the
//! paper's two data-management strategies, accumulate in memory
//! ([`InMemoryStore`]) or spill to a distributed file space
//! ([`ShardedFilesStore`]) — and the [`RunLabel`] that keeps runs and
//! sweep slots apart.

use crate::report::PipelineReport;
use riskpipe_tables::codec::{self, RunManifest};
use riskpipe_tables::{durable, shard, Elt, YearEventTable, Ylt};
use riskpipe_types::{EventId, LocationId, RiskError, RiskResult, TrialId};
use std::path::PathBuf;

/// Identifies one run within a session, so stores can keep concurrent
/// batch scenarios — and successive runs of one long-lived session —
/// from clobbering each other.
#[derive(Debug, Clone, Copy)]
pub struct RunLabel {
    /// Position within a sweep (`run_stream` call); `None` for single
    /// runs.
    pub slot: Option<usize>,
    /// Which `run`/`run_stream` call on the session this is (0-based;
    /// one sweep counts as one run).
    pub run: u64,
}

/// A report's durable writes, staged by
/// [`IntermediateStore::stage_report`]: it owns everything it writes
/// (the report may drop before it runs) and returns the bytes it wrote.
pub type StagedWrite = Box<dyn FnOnce() -> RiskResult<u64> + Send>;

/// A backend for stage-2 YELT intermediates and persisted reports.
/// Implementations must be callable from multiple scenarios at once (a
/// sweep persists concurrently). A store only stores: new durable
/// backends implement this and plug into [`RiskSessionBuilder::store`](crate::RiskSessionBuilder::store)
/// without the session or the engines changing, while consumers that
/// derive something from the reports (pooled analytics, a drill-down
/// warehouse) are [`ReportSink`](crate::ReportSink)s riding the same
/// [`FanoutSink`](crate::FanoutSink).
///
/// The session never materialises a YELT for a store: it hands over the
/// two tables the YELT is the join of, and a store that keeps one
/// streams it ([`ShardedFilesStore`]) while one that does not reads
/// nothing ([`InMemoryStore`]). The report's row count and footprint
/// come from the stage-1 cache, counted once per key.
///
/// Persisted reports are written in two steps. [`stage_report`]
/// runs on the delivering thread while the report is alive and turns
/// it into owned bytes; the [`StagedWrite`] it returns runs later, on
/// the [`PersistingSink`](crate::PersistingSink)'s writer thread, one
/// slot at a time in slot order. So the encode stays with the report
/// and only the durable writes move off the delivering thread.
///
/// [`stage_report`]: IntermediateStore::stage_report
pub trait IntermediateStore: Send + Sync {
    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Persist one scenario's first-book YELT, given as the join of
    /// `yet` with `elt` ([`Yelt::from_yet_elt`](riskpipe_tables::Yelt::from_yet_elt)'s rows, trial by trial,
    /// without the table itself). Returns the bytes written to durable
    /// storage (0 for purely in-memory backends).
    fn persist_yelt(&self, label: RunLabel, yet: &YearEventTable, elt: &Elt) -> RiskResult<u64>;

    /// Stage one completed report's YLT and risk measures for
    /// persistence — the sink-side artifact a
    /// [`PersistingSink`](crate::PersistingSink) writes per delivered
    /// report so the report itself can drop. Staging runs on the
    /// delivering thread and only borrows the report: it encodes what
    /// the store keeps into owned bytes and returns the durable writes
    /// as a [`StagedWrite`], which the sink runs later on its writer
    /// thread, in slot order, returning the bytes written durably.
    /// `None` means there is nothing durable to write; that is the
    /// default, so existing custom backends compile unchanged.
    fn stage_report(&self, _label: RunLabel, _report: &PipelineReport) -> Option<StagedWrite> {
        None
    }

    /// Remove everything this store persisted — all runs' artifacts —
    /// so long-lived sessions (whose successive runs each get their own
    /// per-run directory) can reclaim the space instead of leaking
    /// stale directories indefinitely. In-memory backends hold nothing
    /// durable; the default is a no-op.
    fn clear_runs(&self) -> RiskResult<()> {
        Ok(())
    }

    /// Certify that run `run` persisted reports for every slot in
    /// `0..slots` — called once by a [`PersistingSink`](crate::PersistingSink)
    /// after a sweep's final report lands. Durable backends write their
    /// run manifest here, *after* every per-slot artifact, so the
    /// manifest's presence proves the run completed: a rebuild that
    /// finds the manifest but not a slot has found corruption, not a
    /// shorter sweep. Returns the bytes written durably; the default
    /// keeps nothing (0), so existing custom backends compile
    /// unchanged.
    fn finish_run(&self, _run: u64, _slots: usize) -> RiskResult<u64> {
        Ok(0)
    }
}

/// The accumulate-in-large-memory strategy: the YET and the ELTs the
/// YELT joins already live in the stage-1 cache, so nothing is built or
/// persisted — [`IntermediateStore::persist_yelt`] returns 0 without
/// reading either table.
#[derive(Debug, Default, Clone, Copy)]
pub struct InMemoryStore;

impl IntermediateStore for InMemoryStore {
    fn name(&self) -> &'static str {
        "in-memory"
    }

    fn persist_yelt(&self, _label: RunLabel, _yet: &YearEventTable, _elt: &Elt) -> RiskResult<u64> {
        Ok(0)
    }
}

/// The distributed-file-space strategy: spill the YELT to a sharded
/// store under `dir`, streamed one whole trial per
/// [`shard::ShardedWriter::push_trial`] call through two reused
/// buffers — the table is never held whole.
///
/// Layout: the session's **first** single run writes `dir` itself (so
/// a reader opens the directory the caller configured); the first
/// batch writes `dir/batch-NNN` per slot. Later runs of the same
/// session get a `run-NNN` level so a long-lived session never
/// collides with its own earlier spills. Stale spills are reclaimed
/// with [`ShardedFilesStore::clear_runs`].
#[derive(Debug, Clone)]
pub struct ShardedFilesStore {
    dir: PathBuf,
    shards: u32,
}

impl ShardedFilesStore {
    /// A store writing `shards` shard files under `dir`.
    pub fn new(dir: impl Into<PathBuf>, shards: u32) -> RiskResult<Self> {
        if shards == 0 {
            return Err(RiskError::invalid("shard count must be positive"));
        }
        Ok(Self {
            dir: dir.into(),
            shards,
        })
    }

    /// The directory a given run writes to (see the type docs for the
    /// layout).
    fn run_dir(&self, label: RunLabel) -> PathBuf {
        let base = if label.run == 0 {
            self.dir.clone()
        } else {
            self.dir.join(format!("run-{:03}", label.run))
        };
        match label.slot {
            None => base,
            Some(i) => base.join(format!("batch-{i:03}")),
        }
    }

    /// Remove every spill this store has written under its directory:
    /// the base store (manifest + shard files + persisted-report
    /// artifacts), per-slot `batch-NNN` directories, and per-run
    /// `run-NNN` directories. Only recognised store artifacts are
    /// touched — unrelated files a caller may keep in the same
    /// directory survive. Missing directories are fine (nothing was
    /// ever spilled).
    pub fn clear_runs(&self) -> RiskResult<()> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let path = entry.path();
            if path.is_dir() {
                if name.starts_with("run-") || name.starts_with("batch-") {
                    std::fs::remove_dir_all(&path)?;
                }
            } else if name == "MANIFEST.txt"
                || name == Self::YLT_FILE
                || name == Self::MEASURES_FILE
                || name == Self::RUN_MANIFEST_FILE
                || (name.starts_with("shard-")
                    && (name.ends_with(".rpt") || name.ends_with(".rpt.inflight")))
                || name.ends_with(durable::TMP_SUFFIX)
            {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Read back one persisted report's YLT (written by
    /// [`IntermediateStore::stage_report`] via a
    /// [`PersistingSink`](crate::PersistingSink)) — the reload path
    /// stage-3 analytics use to rebuild drill-down views from a prior
    /// run's spill instead of re-running the sweep. The decode is
    /// CRC-checked and bit-exact, so anything derived from the
    /// reloaded YLT matches the live-sink path bit for bit.
    pub fn load_report_ylt(&self, slot: Option<usize>, run: u64) -> RiskResult<Ylt> {
        let dir = self.run_dir(RunLabel { slot, run });
        let path = dir.join(Self::YLT_FILE);
        shard::read_table_file(&path).map_err(|e| match e {
            // A slot the run manifest promised but the filesystem lost
            // is corruption of the run's artifact set, not a lookup
            // miss — readers iterating manifest-enumerated slots must
            // not mistake it for "fewer slots".
            RiskError::Io(ioe) if ioe.kind() == std::io::ErrorKind::NotFound => {
                RiskError::corrupt(format!("missing persisted report {}", path.display()))
            }
            // A failed CRC or a truncated frame names the file, so a
            // rebuild over many slots says which one is damaged.
            RiskError::Corrupt(msg) => RiskError::corrupt(format!("{}: {msg}", path.display())),
            other => other,
        })
    }

    /// Path of the run manifest certifying `run` completed.
    fn run_manifest_path(&self, run: u64) -> PathBuf {
        self.run_dir(RunLabel { slot: None, run })
            .join(Self::RUN_MANIFEST_FILE)
    }

    /// The number of slots (from 0) run `run` persisted reports for,
    /// read from the run manifest its [`IntermediateStore::finish_run`]
    /// wrote *after* every slot's artifact. A missing or unreadable
    /// manifest is [`RiskError::Corrupt`]: either the sweep never
    /// completed or its artifacts were lost, and in both cases a
    /// rebuild over whatever slots happen to exist would silently
    /// understate the sweep.
    pub fn persisted_report_slots(&self, run: u64) -> RiskResult<usize> {
        let path = self.run_manifest_path(run);
        let data = std::fs::read(&path).map_err(|e| {
            RiskError::corrupt(format!(
                "missing or unreadable run manifest {}: {e} \
                 (the sweep did not complete, or its artifacts were lost)",
                path.display()
            ))
        })?;
        let manifest: RunManifest = codec::decode(&data)?;
        if manifest.run != run {
            return Err(RiskError::corrupt(format!(
                "run manifest {} records run {}, expected {run}",
                path.display(),
                manifest.run
            )));
        }
        usize::try_from(manifest.slots).map_err(|_| {
            RiskError::corrupt(format!(
                "implausible slot count {} in {}",
                manifest.slots,
                path.display()
            ))
        })
    }

    /// File name of a persisted report's encoded YLT within its run
    /// directory.
    pub const YLT_FILE: &'static str = "YLT.bin";
    /// File name of a persisted report's rendered risk measures.
    pub const MEASURES_FILE: &'static str = "MEASURES.txt";
    /// File name of the per-run completion manifest within the run's
    /// base directory.
    pub const RUN_MANIFEST_FILE: &'static str = "RUN_MANIFEST.bin";
}

impl IntermediateStore for ShardedFilesStore {
    fn name(&self) -> &'static str {
        "sharded-files"
    }

    fn persist_yelt(&self, label: RunLabel, yet: &YearEventTable, elt: &Elt) -> RiskResult<u64> {
        let mut writer = shard::ShardedWriter::create(self.run_dir(label), self.shards)?;
        let (mut events, mut losses) = (Vec::new(), Vec::new());
        for t in 0..yet.trials() {
            // One trial's YELT rows, as `Yelt::from_yet_elt` joins them.
            events.clear();
            losses.clear();
            for &e in yet.trial_slices(TrialId::new(t as u32)).0 {
                if let Some(row) = elt.row_of(EventId::new(e)) {
                    events.push(e);
                    losses.push(elt.mean_loss_at(row));
                }
            }
            // Location detail is book-level here; location 0 marks
            // "whole book" rows.
            writer.push_trial(t as u32, &events, LocationId::new(0), &losses)?;
        }
        let manifest = writer.finish()?;
        Ok(manifest.rows * riskpipe_tables::yellt::YELLT_BYTES_PER_ROW as u64)
    }

    fn stage_report(&self, label: RunLabel, report: &PipelineReport) -> Option<StagedWrite> {
        let dir = self.run_dir(label);
        // Sized to the frame: a buffer grown by doubling holds ≈ 1.6
        // frames of capacity, and two staged frames are alive at once.
        let mut encoded = Vec::with_capacity(codec::encoded_ylt_len(report.ylt.trials()));
        codec::encode_into(&mut encoded, &report.ylt);
        let measures = format!(
            "scenario: {}\ntrials: {}\n{}\n",
            report.scenario_name,
            report.ylt.trials(),
            report.measures
        );
        Some(Box::new(move || {
            let bytes = (encoded.len() + measures.len()) as u64;
            // Both artifacts go through the durable write path (tmp +
            // fsync + atomic rename): a kill at any byte boundary
            // leaves either the previous slot state or a
            // detectably-absent file, never a torn one.
            durable::write_atomic(&dir.join(Self::YLT_FILE), &encoded)?;
            durable::write_atomic(&dir.join(Self::MEASURES_FILE), measures.as_bytes())?;
            Ok(bytes)
        }))
    }

    fn clear_runs(&self) -> RiskResult<()> {
        ShardedFilesStore::clear_runs(self)
    }

    fn finish_run(&self, run: u64, slots: usize) -> RiskResult<u64> {
        let encoded = codec::encode(&RunManifest {
            run,
            slots: slots as u64,
        });
        durable::write_atomic(&self.run_manifest_path(run), &encoded)?;
        Ok(encoded.len() as u64)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests damage persisted files on purpose"
)]
mod tests {
    use super::*;
    use crate::{RiskSession, ScenarioConfig};
    use riskpipe_tables::Yelt;
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("riskpipe-sess-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn sharded_store_writes_and_is_readable() {
        let dir = temp("shards");
        let session = RiskSession::builder()
            .store(Arc::new(ShardedFilesStore::new(&dir, 4).unwrap()))
            .pool_threads(2)
            .build()
            .unwrap();
        let report = session.run(&ScenarioConfig::small().with_seed(4)).unwrap();
        assert!(report.yelt_file_bytes > 0);
        // The first single run spills into the configured directory
        // itself, with the configured shard count.
        let reader = riskpipe_tables::ShardedReader::open(&dir).unwrap();
        assert_eq!(reader.rows() as usize, report.yelt_rows);
        assert_eq!(reader.shard_count(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The first-book spill as it was written before the store streamed
    /// it: the YELT materialised, then pushed trial by trial. Returns the
    /// bytes `persist_yelt` reports for it.
    fn persist_materialised(dir: &Path, shards: u32, yet: &YearEventTable, elt: &Elt) -> u64 {
        let yelt = Yelt::from_yet_elt(yet, elt);
        let mut writer = shard::ShardedWriter::create(dir, shards).unwrap();
        for t in 0..yelt.trials() {
            let (events, _days, losses) = yelt.trial_slices(TrialId::new(t as u32));
            writer
                .push_trial(t as u32, events, LocationId::new(0), losses)
                .unwrap();
        }
        writer.finish().unwrap().rows * riskpipe_tables::yellt::YELLT_BYTES_PER_ROW as u64
    }

    /// Every file in `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn yelt_is_counted_and_streamed_exactly_as_materialised() {
        let scenario = ScenarioConfig::small().with_seed(23).with_trials(16_000);
        let stage1 = scenario.build_stage1().unwrap();
        let (yet, elt) = (&stage1.output.yet, &stage1.output.books[0].elt);
        let yelt = Yelt::from_yet_elt(yet, elt);
        let (dir, reference) = (temp("streamed"), temp("materialised"));
        let want_file_bytes = persist_materialised(&reference, 2, yet, elt);

        let in_memory = RiskSession::builder()
            .pool_threads(2)
            .build()
            .unwrap()
            .run(&scenario)
            .unwrap();
        let files = RiskSession::builder()
            .store(Arc::new(ShardedFilesStore::new(&dir, 2).unwrap()))
            .pool_threads(2)
            .build()
            .unwrap()
            .run(&scenario)
            .unwrap();
        for report in [&in_memory, &files] {
            assert_eq!(report.yelt_rows, yelt.rows());
            assert_eq!(report.yelt_memory_bytes, yelt.memory_bytes() as u64);
        }
        assert_eq!(in_memory.yelt_file_bytes, 0);
        assert_eq!(files.yelt_file_bytes, want_file_bytes);

        // Byte for byte the same shard files and manifest — and each
        // shard holds several frames, so the frame cuts match too.
        let (got, want) = (dir_bytes(&dir), dir_bytes(&reference));
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            ["MANIFEST.txt", "shard-0000.rpt", "shard-0001.rpt"]
        );
        assert!(
            got == want,
            "streamed spill differs from the materialised one"
        );
        let reader = riskpipe_tables::ShardedReader::open(&dir).unwrap();
        for s in 0..2 {
            assert!(
                reader.read_shard(s).unwrap().len() > 1,
                "shard {s}: one frame"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&reference).unwrap();
    }

    #[test]
    fn sharded_session_is_reusable_across_runs() {
        let dir = temp("reuse");
        let session = RiskSession::builder()
            .store(Arc::new(ShardedFilesStore::new(&dir, 2).unwrap()))
            .pool_threads(2)
            .build()
            .unwrap();
        let scenario = ScenarioConfig::small().with_seed(5).with_trials(300);
        // First run spills to the configured directory itself…
        let first = session.run(&scenario).unwrap();
        assert!(first.yelt_file_bytes > 0);
        // …and the session stays usable: later runs and batches get
        // their own run-NNN level instead of colliding.
        let second = session.run(&scenario).unwrap();
        assert_eq!(second.ylt, first.ylt);
        let batch = session
            .sweep(std::slice::from_ref(&scenario))
            .collect()
            .drive()
            .unwrap()
            .into_reports()
            .unwrap();
        assert_eq!(batch[0].ylt, first.ylt);
        for sub in [
            dir.clone(),
            dir.join("run-001"),
            dir.join("run-002").join("batch-000"),
        ] {
            let reader = riskpipe_tables::ShardedReader::open(&sub).unwrap();
            assert_eq!(reader.rows() as usize, first.yelt_rows, "{}", sub.display());
        }
        // clear_store reclaims every run's spill…
        session.clear_store().unwrap();
        assert!(riskpipe_tables::ShardedReader::open(&dir).is_err());
        assert!(!dir.join("run-001").exists());
        // …and the session keeps working afterwards.
        let third = session.run(&scenario).unwrap();
        assert_eq!(third.ylt, first.ylt);
        assert!(riskpipe_tables::ShardedReader::open(dir.join("run-003")).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_runs_spares_unrelated_files() {
        let dir = temp("spare");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "keep me").unwrap();
        let store = ShardedFilesStore::new(&dir, 2).unwrap();
        // Nothing spilled yet: clearing is a no-op either way.
        store.clear_runs().unwrap();
        let session = RiskSession::builder()
            .store(Arc::new(store.clone()))
            .pool_threads(2)
            .build()
            .unwrap();
        session
            .run(&ScenarioConfig::small().with_seed(44).with_trials(200))
            .unwrap();
        assert!(dir.join("MANIFEST.txt").exists());
        store.clear_runs().unwrap();
        assert!(!dir.join("MANIFEST.txt").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("notes.txt")).unwrap(),
            "keep me"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_runs_on_missing_dir_is_ok() {
        let store = ShardedFilesStore::new(temp("never-created"), 2).unwrap();
        store.clear_runs().unwrap();
    }

    #[test]
    fn zero_shards_rejected_at_build_time() {
        // The store is built before the session, so a zero-shard spill
        // never reaches `build()`.
        assert!(ShardedFilesStore::new(temp("zero"), 0).is_err());
    }

    #[test]
    fn batch_slots_get_own_directories() {
        let dir = temp("batchdirs");
        let session = RiskSession::builder()
            .store(Arc::new(ShardedFilesStore::new(&dir, 2).unwrap()))
            .pool_threads(2)
            .build()
            .unwrap();
        let scenarios = [
            ScenarioConfig::small().with_seed(61).with_trials(300),
            ScenarioConfig::small().with_seed(62).with_trials(300),
        ];
        let outcome = session.sweep(&scenarios).collect().drive().unwrap();
        let reports = outcome.into_reports().unwrap();
        assert_eq!(reports.len(), 2);
        for (i, report) in reports.iter().enumerate() {
            let sub = dir.join(format!("batch-{i:03}"));
            let reader = riskpipe_tables::ShardedReader::open(&sub).unwrap();
            assert_eq!(reader.rows() as usize, report.yelt_rows);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn custom_store_backend_plugs_in() {
        #[derive(Debug)]
        struct CountingStore {
            rows: AtomicU64,
        }
        impl IntermediateStore for CountingStore {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn persist_yelt(
                &self,
                _label: RunLabel,
                yet: &YearEventTable,
                elt: &Elt,
            ) -> RiskResult<u64> {
                let rows = Yelt::from_yet_elt(yet, elt).rows();
                self.rows.fetch_add(rows as u64, Ordering::Relaxed);
                Ok(0)
            }
        }
        let store = Arc::new(CountingStore {
            rows: AtomicU64::new(0),
        });
        let session = RiskSession::builder()
            .store(Arc::clone(&store) as Arc<dyn IntermediateStore>)
            .pool_threads(2)
            .build()
            .unwrap();
        assert_eq!(session.store_name(), "counting");
        let report = session
            .run(&ScenarioConfig::small().with_seed(7).with_trials(300))
            .unwrap();
        assert_eq!(store.rows.load(Ordering::Relaxed), report.yelt_rows as u64);
        // The default clear_runs is a harmless no-op for custom stores.
        session.clear_store().unwrap();
    }
}
