//! The `RiskSession` facade — one configured entry point for running
//! scenarios end-to-end.
//!
//! A session owns the thread pool, the stage-2 engine choice (dispatched
//! through [`AggregateRunner`], the same front end every other consumer
//! uses), the DFA company configuration, an [`IntermediateStore`]
//! deciding where stage-2 YELT intermediates live, and a keyed stage-1
//! cache ([`Stage1CacheStats`]) so scenarios sharing a catalogue
//! seed/config fingerprint reuse one model run — and the event-major
//! join of its books stage 2 reads — instead of regenerating the
//! catalogue, event set, ELTs, beta-quantile grids and the join per
//! scenario. The cache has one policy: LRU over the last eight distinct
//! keys, plus the optional disk tier
//! ([`RiskSessionBuilder::stage1_disk_cache`]).
//!
//! Execution comes in three shapes, all bit-identical per scenario:
//!
//! * [`RiskSession::run`] — one scenario, synchronously;
//! * [`RiskSession::sweep`] — the declarative front end: a
//!   [`SweepPlan`](crate::SweepPlan) declaring which consumers (pooled
//!   analytics, persistence, collection, a warehouse via
//!   `riskpipe-analytics`) receive one streaming sweep's reports, all
//!   fed from a single pass;
//! * [`RiskSession::run_stream`] — the streaming core every shape
//!   drives: scenarios execute concurrently on the shared pool
//!   (in-flight capped at pool width) and each [`PipelineReport`] is
//!   handed to a sink *in input order* as it completes, then dropped —
//!   peak memory is O(pool width) reports, the shape the paper's
//!   thousands-of-scenarios sweeps need.
//!
//! ```
//! use riskpipe_core::{RiskSession, ScenarioConfig};
//! use riskpipe_aggregate::EngineKind;
//!
//! let session = RiskSession::builder()
//!     .engine(EngineKind::CpuParallel)
//!     .pool_threads(2)
//!     .build()
//!     .unwrap();
//! let report = session.run(&ScenarioConfig::small().with_trials(200)).unwrap();
//! assert_eq!(report.ylt.trials(), 200);
//! ```

use crate::config::{ScenarioConfig, Stage1Bundle};
use crate::report::{money, TextTable};
use crate::sink::ReportSink;
use crate::stage1cache::{Acquired, ModelRun, Stage1Cache, Stage1CacheStats};
use crate::stage1disk::DiskStage1Cache;
use riskpipe_aggregate::{
    build_secondary, AggregateEngine, AggregateOptions, AggregateRunner, EngineKind, EventJoin,
    SecondaryTable,
};
use riskpipe_catmodel::Stage1Output;
use riskpipe_dfa::{CompanyConfig, DfaEngine, DfaFactors};
use riskpipe_exec::lockwitness::{Condvar, Mutex};
use riskpipe_exec::{par_chunks_mut, par_reduce, suggest_grain, ThreadPool};
use riskpipe_metrics::RiskMeasures;
use riskpipe_tables::codec::{self, RunManifest};
use riskpipe_tables::{durable, shard, Elt, YearEventTable, Yelt, Ylt};
use riskpipe_types::stats::quantile_sorted;
use riskpipe_types::{EventId, LocationId, RiskError, RiskResult, RunningStats, TrialId};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Intermediate stores.
// ---------------------------------------------------------------------

/// Identifies one run within a session, so stores can keep concurrent
/// batch scenarios — and successive runs of one long-lived session —
/// from clobbering each other.
#[derive(Debug, Clone, Copy)]
pub struct RunLabel<'a> {
    /// Scenario name.
    pub scenario: &'a str,
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
/// backends implement this and plug into [`RiskSessionBuilder::store`]
/// without the session or the engines changing, while consumers that
/// derive something from the reports (pooled analytics, a drill-down
/// warehouse) are [`ReportSink`]s riding the same
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
    /// `yet` with `elt` ([`Yelt::from_yet_elt`]'s rows, trial by trial,
    /// without the table itself). Returns the bytes written to durable
    /// storage (0 for purely in-memory backends).
    fn persist_yelt(&self, label: RunLabel<'_>, yet: &YearEventTable, elt: &Elt)
        -> RiskResult<u64>;

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
    fn stage_report(&self, _label: RunLabel<'_>, _report: &PipelineReport) -> Option<StagedWrite> {
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

    fn persist_yelt(
        &self,
        _label: RunLabel<'_>,
        _yet: &YearEventTable,
        _elt: &Elt,
    ) -> RiskResult<u64> {
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
    fn run_dir(&self, label: RunLabel<'_>) -> PathBuf {
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
        let dir = self.run_dir(RunLabel {
            scenario: "",
            slot,
            run,
        });
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
        self.run_dir(RunLabel {
            scenario: "",
            slot: None,
            run,
        })
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

    fn persist_yelt(
        &self,
        label: RunLabel<'_>,
        yet: &YearEventTable,
        elt: &Elt,
    ) -> RiskResult<u64> {
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

    fn stage_report(&self, label: RunLabel<'_>, report: &PipelineReport) -> Option<StagedWrite> {
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

// ---------------------------------------------------------------------
// The session.
// ---------------------------------------------------------------------

/// Fixed bucket bounds for the `stage2.trials` histogram (trial
/// counts; last bucket is overflow). Fixed so snapshots are comparable
/// across runs and mergeable across registries.
const STAGE2_TRIALS_BOUNDS: &[u64] = &[1_000, 10_000, 100_000, 1_000_000, 10_000_000];

enum PoolChoice {
    Sized(usize),
    Shared(Arc<ThreadPool>),
    Default,
}

/// Configures and builds a [`RiskSession`].
pub struct RiskSessionBuilder {
    engine: EngineKind,
    options: AggregateOptions,
    store: Option<Arc<dyn IntermediateStore>>,
    pool: PoolChoice,
    company: CompanyConfig,
    stage1_disk_dir: Option<PathBuf>,
    telemetry: Option<riskpipe_obs::Telemetry>,
}

impl Default for RiskSessionBuilder {
    fn default() -> Self {
        Self {
            engine: EngineKind::CpuParallel,
            options: AggregateOptions::default(),
            store: None,
            pool: PoolChoice::Default,
            company: CompanyConfig::typical(),
            stage1_disk_dir: None,
            telemetry: None,
        }
    }
}

impl RiskSessionBuilder {
    /// Select the stage-2 engine (default: CPU-parallel).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Replace the stage-2 options (secondary uncertainty on by
    /// default).
    pub fn options(mut self, options: AggregateOptions) -> Self {
        self.options = options;
        self
    }

    /// Choose where stage-2 intermediates live (default:
    /// [`InMemoryStore`]) — the paper's other data-management strategy
    /// is `Arc::new(ShardedFilesStore::new(dir, shards)?)`, and custom
    /// backends plug in the same way.
    pub fn store(mut self, store: Arc<dyn IntermediateStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Size the session's own thread pool (default: machine
    /// parallelism).
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.pool = PoolChoice::Sized(threads);
        self
    }

    /// Share an existing pool instead of creating one.
    pub fn pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = PoolChoice::Shared(pool);
        self
    }

    /// Replace the DFA company configuration (default:
    /// [`CompanyConfig::typical`]).
    pub fn company(mut self, company: CompanyConfig) -> Self {
        self.company = company;
        self
    }

    /// Attach a disk-backed stage-1 cache tier under `dir` (commonly a
    /// subdirectory of the session's store dir). The tier is consulted
    /// on every RAM-cache miss and written through on every build, so
    /// it survives the process and is shared across processes: a cold
    /// process replaying a sweep over a warm tier reports **zero**
    /// stage-1 builds ([`Stage1CacheStats::builds`]) with bit-identical
    /// results. Entries are written atomically ([`DiskStage1Cache`]),
    /// and a corrupt entry self-heals as a rebuild-and-replace, never a
    /// wrong answer. A key the RAM cache evicted is served from the tier
    /// again instead of rebuilt.
    pub fn stage1_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.stage1_disk_dir = Some(dir.into());
        self
    }

    /// Attach a telemetry handle ([`riskpipe_obs::Telemetry`]): every
    /// `run`/`run_stream`/sweep on the built session records spans
    /// (stage-1 builds and cache tiers, stage-2 engine execution,
    /// stage-3 DFA, per-consumer sink delivery, durable writes) and
    /// deterministic counters into it, and a driven
    /// [`SweepPlan`](crate::SweepPlan) snapshots it into
    /// [`SweepOutcome::telemetry`](crate::SweepOutcome::telemetry).
    /// Without this call the session records nothing and every
    /// instrumentation site compiles to a thread-local read and a
    /// branch. Timings in spans are diagnostic only — loss numerics
    /// never read them — and all registry metrics are deterministic
    /// quantities, bit-identical across thread counts.
    pub fn telemetry(mut self, telemetry: riskpipe_obs::Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Build the session.
    ///
    /// # Errors
    /// A zero-thread pool ([`RiskSessionBuilder::pool_threads`]`(0)`)
    /// is rejected here with [`RiskError::invalid`] instead of being
    /// silently "fixed" at run time (the [`ShardedFilesStore::new`]
    /// zero-shards precedent).
    pub fn build(self) -> RiskResult<RiskSession> {
        if let PoolChoice::Sized(0) = self.pool {
            return Err(RiskError::invalid(
                "session pool needs at least one thread (pool_threads(0))",
            ));
        }
        let pool = match self.pool {
            PoolChoice::Sized(n) => Arc::new(ThreadPool::try_new(n)?),
            PoolChoice::Shared(pool) => pool,
            PoolChoice::Default => Arc::new(ThreadPool::try_default()?),
        };
        let store = self.store.unwrap_or_else(|| Arc::new(InMemoryStore));
        let disk = self.stage1_disk_dir.map(DiskStage1Cache::new).transpose()?;
        Ok(RiskSession {
            runner: AggregateRunner::new(self.engine)
                .with_options(self.options)
                .with_pool(Arc::clone(&pool)),
            pool,
            store,
            dfa: DfaEngine::typical(self.company),
            stage1: Stage1Cache::new(disk),
            runs: AtomicU64::new(0),
            telemetry: self.telemetry,
        })
    }
}

/// A configured pipeline-execution facade: engine + pool + intermediate
/// store + stage-1 cache + DFA company, ready to run any number of
/// scenarios. See the module docs for the design.
pub struct RiskSession {
    pool: Arc<ThreadPool>,
    runner: AggregateRunner,
    store: Arc<dyn IntermediateStore>,
    /// Stage 3's engine for the session's company, built once: every
    /// key's factor block and every scenario's statement borrow it.
    dfa: DfaEngine,
    stage1: Stage1Cache,
    /// Completed `run`/`run_stream` calls — sequences
    /// [`RunLabel::run`] so a long-lived session's spills never collide.
    runs: AtomicU64,
    /// Telemetry handle attached at build time; installed as the
    /// calling thread's context for the duration of each run/sweep.
    telemetry: Option<riskpipe_obs::Telemetry>,
}

impl RiskSession {
    /// Start configuring a session.
    pub fn builder() -> RiskSessionBuilder {
        RiskSessionBuilder::default()
    }

    /// A session with all defaults (CPU-parallel engine, in-memory
    /// store, machine-sized pool).
    pub fn with_defaults() -> RiskResult<Self> {
        Self::builder().build()
    }

    /// The session's pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// A shared handle on the session's pool, for results that keep
    /// working on it after the call that made them returns (a stage-3
    /// warehouse sizes its views on the pool of the session that built
    /// it).
    pub fn shared_pool(&self) -> Arc<ThreadPool> {
        Arc::clone(&self.pool)
    }

    /// The stage-2 engine scenarios run on.
    pub fn engine(&self) -> EngineKind {
        self.runner.kind()
    }

    /// The intermediate-store backend's name.
    pub fn store_name(&self) -> &'static str {
        self.store.name()
    }

    /// The session's intermediate-store backend (shared handle) — what
    /// [`SweepPlan::persist`](crate::SweepPlan::persist) writes
    /// through unless the plan overrides it.
    pub fn store(&self) -> Arc<dyn IntermediateStore> {
        Arc::clone(&self.store)
    }

    /// The telemetry handle attached at build time
    /// ([`RiskSessionBuilder::telemetry`]), if any.
    pub fn telemetry(&self) -> Option<&riskpipe_obs::Telemetry> {
        self.telemetry.as_ref()
    }

    /// Install the session's telemetry (when attached) as the calling
    /// thread's current context for the guard's lifetime — pool tasks
    /// spawned while it is installed inherit it.
    pub(crate) fn install_telemetry(&self) -> Option<riskpipe_obs::ContextGuard> {
        self.telemetry.as_ref().map(riskpipe_obs::install)
    }

    /// The stage-1 cache's hit/miss counters.
    pub fn stage1_cache_stats(&self) -> Stage1CacheStats {
        self.stage1.stats()
    }

    /// Remove everything the intermediate store persisted across this
    /// session's runs (no-op for in-memory backends). Later runs spill
    /// fresh per-run directories as usual.
    ///
    /// Not synchronised with executing scenarios: call it only while no
    /// `run`/`run_stream` is in flight on this session, or
    /// an active spill's directory can be deleted mid-write and that
    /// run fails.
    pub fn clear_store(&self) -> RiskResult<()> {
        self.store.clear_runs()
    }

    /// Run one scenario through all three stages.
    pub fn run(&self, scenario: &ScenarioConfig) -> RiskResult<PipelineReport> {
        let _obs = self.install_telemetry();
        let _span = riskpipe_obs::span("session.run");
        let run = self.next_run_id();
        let model = self.acquire_stage1(scenario.stage1_key(), scenario)?;
        self.finish_pipeline(scenario, None, run, &model)
    }

    /// Start declaring a sweep over `scenarios`: the returned
    /// [`SweepPlan`](crate::SweepPlan) names the consumers (pooled
    /// analytics, persistence, collection — and, with
    /// `riskpipe-analytics` in scope, a drill-down warehouse) that all
    /// receive the reports of **one** streaming pass when the plan is
    /// driven. This is the preferred multi-consumer surface; the
    /// single-sink `run_stream` remains for fully custom consumption.
    pub fn sweep<'s>(&'s self, scenarios: &'s [ScenarioConfig]) -> crate::SweepPlan<'s> {
        crate::SweepPlan::new(self, scenarios)
    }

    /// The streaming execution core: run many scenarios concurrently on
    /// the shared pool, delivering each completed [`PipelineReport`] to
    /// `sink` **in input order** and dropping it afterwards.
    ///
    /// The sink is anything implementing [`ReportSink`]: a
    /// `FnMut(usize, PipelineReport) -> RiskResult<()>` closure (via
    /// the blanket impl), a [`SweepSummary`](crate::SweepSummary)
    /// accumulating pooled analytics, or a
    /// [`PersistingSink`](crate::PersistingSink) writing each report
    /// durably as it arrives.
    ///
    /// In-flight scenarios are capped at the pool width, and a report
    /// that finishes ahead of a slower earlier slot waits in a reorder
    /// buffer no larger than that cap — so peak memory is O(pool width)
    /// reports regardless of how many scenarios the sweep spans,
    /// instead of the O(batch) a collected `Vec` costs. Results are
    /// bitwise identical to running each scenario alone on any thread
    /// count: every stage is seeded from the scenario, so scheduling
    /// cannot leak between slots.
    ///
    /// Delivery happens on the calling thread (the sink needs neither
    /// `Send` nor `Sync`), and the window only reopens once the sink
    /// returns — a slow sink therefore backpressures the sweep rather
    /// than letting reports pile up. The first failing scenario's
    /// error — or the first error the sink returns — aborts the sweep:
    /// no further scenarios start, in-flight ones drain, and the error
    /// is returned. On success, returns the number of reports
    /// delivered.
    pub fn run_stream<S>(&self, scenarios: &[ScenarioConfig], mut sink: S) -> RiskResult<usize>
    where
        S: ReportSink,
    {
        let n = scenarios.len();
        if n == 0 {
            return Ok(0);
        }
        // Scope the session's telemetry over the whole sweep: the
        // coordinator runs on this thread, and `Scope::spawn` hands the
        // installed context to every per-scenario pool task.
        let _obs = self.install_telemetry();
        let _sweep_span = riskpipe_obs::span_key("sweep.run_stream", n as u64);
        let run = self.next_run_id();
        let width = self.pool.thread_count().min(n);
        let keys: Vec<u64> = scenarios.iter().map(|s| s.stage1_key()).collect();

        struct StreamState {
            /// Deposited, undelivered results, by slot.
            ready: BTreeMap<usize, RiskResult<PipelineReport>>,
            /// Slots deposited since the control loop last looked.
            arrivals: Vec<usize>,
            /// A stage-1 build published since the control loop last
            /// looked — gated same-key followers may now be eligible.
            stage1_published: bool,
        }
        let state = Mutex::new(
            "state",
            StreamState {
                ready: BTreeMap::new(),
                arrivals: Vec::new(),
                stage1_published: false,
            },
        );
        let completed = Condvar::new();
        let mut delivered = 0usize;
        let mut failure: Option<RiskError> = None;

        self.pool.scope(|scope| {
            // Per-scenario tasks never block (acquire stage 1 →
            // publish → finish → deposit → notify), so one being stolen
            // into another task's nested stage scope just finishes
            // inline — all window and cache bookkeeping lives on this
            // calling thread.
            let spawn_slot = |i: usize| {
                let scenario = &scenarios[i];
                let key = keys[i];
                let state = &state;
                let completed = &completed;
                scope.spawn(move || {
                    let _scenario_span = riskpipe_obs::span_key("sweep.scenario", i as u64);
                    let result = self.acquire_stage1(key, scenario).and_then(|model| {
                        // The key's cache entry is ready: wake the
                        // control loop so same-key followers start
                        // now instead of after this scenario's
                        // stages 2–3.
                        // lint: allow(C1) — StreamState mutex is a
                        // micro critical section (flag write +
                        // notify); no holder parks or spawns under
                        // it, so acquisition is bounded.
                        state.lock().stage1_published = true;
                        completed.notify_all();
                        self.finish_pipeline(scenario, Some(i), run, &model)
                    });
                    // lint: allow(C1) — result deposit: map insert +
                    // notify under a micro critical section; no holder
                    // blocks under the StreamState mutex.
                    let mut st = state.lock();
                    st.ready.insert(i, result);
                    st.arrivals.push(i);
                    completed.notify_all();
                });
            };

            // Slots not yet started, in input order.
            let mut pending: VecDeque<usize> = (0..n).collect();
            // Started minus delivered — the O(pool width) memory bound.
            let mut in_window = 0usize;
            // Keys whose first scenario (the "leader") is in flight
            // and has not yet deposited. Followers of a leader hold
            // back until the leader's stage-1 build publishes (or, if
            // it fails, until its deposit clears the entry so the next
            // same-key slot can retry as leader), so each distinct
            // key's stage-1 model builds exactly once per sweep and no
            // task ever contends on a cache slot another task is
            // filling.
            #[expect(
                clippy::disallowed_types,
                reason = "probed by key only, never iterated"
            )]
            let mut leaders = std::collections::HashMap::<u64, usize>::new();
            #[expect(
                clippy::disallowed_types,
                reason = "probes and fills the leader table by key, never iterates it"
            )]
            let spawn_eligible =
                |pending: &mut VecDeque<usize>,
                 in_window: &mut usize,
                 leaders: &mut std::collections::HashMap<u64, usize>| {
                    let mut held = VecDeque::with_capacity(pending.len());
                    while let Some(i) = pending.pop_front() {
                        if *in_window >= width {
                            held.push_back(i);
                            break;
                        }
                        let key = keys[i];
                        let gated = !self.stage1.is_ready(key);
                        if gated && leaders.contains_key(&key) {
                            held.push_back(i);
                            continue;
                        }
                        if gated {
                            leaders.insert(key, i);
                        }
                        spawn_slot(i);
                        *in_window += 1;
                    }
                    // Whatever could not start keeps its input order.
                    held.append(pending);
                    *pending = held;
                };

            spawn_eligible(&mut pending, &mut in_window, &mut leaders);
            while delivered < n {
                let (arrivals, deliverable) = {
                    let mut st = state.lock();
                    while st.arrivals.is_empty() && !st.stage1_published {
                        completed.wait(&mut st);
                    }
                    st.stage1_published = false;
                    let arrivals = std::mem::take(&mut st.arrivals);
                    let mut deliverable = Vec::new();
                    let mut cursor = delivered;
                    while let Some(result) = st.ready.remove(&cursor) {
                        deliverable.push(result);
                        cursor += 1;
                    }
                    (arrivals, deliverable)
                };
                for slot in arrivals {
                    if leaders.get(&keys[slot]) == Some(&slot) {
                        leaders.remove(&keys[slot]);
                    }
                }
                for result in deliverable {
                    match result {
                        Ok(report) => {
                            if let Err(e) = sink.accept(delivered, report) {
                                failure = Some(e);
                            }
                        }
                        Err(e) => failure = Some(e),
                    }
                    delivered += 1;
                    in_window -= 1;
                    if failure.is_some() {
                        break;
                    }
                }
                if failure.is_some() {
                    // Stop opening the window; the scope drains what is
                    // already in flight before `scope` returns.
                    break;
                }
                spawn_eligible(&mut pending, &mut in_window, &mut leaders);
            }
        });
        match failure {
            Some(e) => Err(e),
            None => {
                // Only a fully delivered sweep gets sealed: a sink that
                // persists reports uses `finish` to write its run
                // manifest, so an interrupted sweep stays detectably
                // incomplete rather than readable-but-short.
                sink.finish()?;
                // Deterministic on success (delivered == n); errors
                // skip it, so thread-count-dependent abort points never
                // leak into the registry.
                riskpipe_obs::counter_add("sweep.delivered", delivered as u64);
                Ok(delivered)
            }
        }
    }

    fn next_run_id(&self) -> u64 {
        self.runs.fetch_add(1, Ordering::Relaxed)
    }

    /// Stage 1 for one scenario, through the keyed cache: the model run
    /// (catalogue, books, YET), the join of its books and the DFA factor
    /// block are built or reused under `key` — the caller's precomputed
    /// [`ScenarioConfig::stage1_key`]. On a hit this is microseconds.
    fn acquire_stage1(&self, key: u64, scenario: &ScenarioConfig) -> RiskResult<Arc<ModelRun>> {
        let _span = riskpipe_obs::span_key("stage1.acquire", key);
        self.stage1
            .get_or_build(key, || self.build_model_run(key, scenario))
    }

    /// A cache miss's whole entry, on both sides of one pool scope.
    /// Stage 3's factor block has declared inputs — the scenario's trial
    /// count and seed (both fingerprinted by `key`) and the session's
    /// company — and reads nothing stage 1 or 2 produce, so it runs as
    /// its own pool task alongside the chain on this thread: the model
    /// run loaded or built, then [`Self::derive_model_run`]. The task
    /// writes into a scope-captured slot, no lock; the scope joins it
    /// before anything is published, and its trial count is checked
    /// against the YET's. A chain error wins over a factor error, as
    /// when the block was the chain's last step.
    fn build_model_run(&self, key: u64, scenario: &ScenarioConfig) -> RiskResult<ModelRun> {
        let mut dfa_factors = None;
        // lint: allow(C1) — a waiting scope caller runs queued tasks
        // (`ThreadPool::scope`), so a leader on a 1-worker pool runs the
        // factor task itself instead of parking on it.
        let chain = self.pool.scope(|s| {
            s.spawn(|| dfa_factors = Some(self.simulate_dfa_factors(key, scenario)));
            self.stage1
                .load_or_build(key, || scenario.build_stage1_counted_on(&self.pool))
                .and_then(|acquired| self.derive_model_run(key, acquired))
        });
        let (output, join, yelt_rows) = chain?;
        let dfa_factors = dfa_factors
            .ok_or_else(|| RiskError::InvalidState("the DFA factor task never ran".into()))??;
        if dfa_factors.trials() != output.yet.trials() {
            return Err(RiskError::InvalidState(format!(
                "DFA factor block holds {} trials but the YET has {}",
                dfa_factors.trials(),
                output.yet.trials()
            )));
        }
        Ok(ModelRun {
            output: Arc::new(output),
            join,
            yelt_rows,
            dfa_factors,
        })
    }

    /// Stage 3's factor block for `scenario`, its independent pieces
    /// each a task on the session's pool.
    fn simulate_dfa_factors(&self, key: u64, scenario: &ScenarioConfig) -> RiskResult<DfaFactors> {
        let _span = riskpipe_obs::span_key("stage3.dfa_factors", key);
        let factors = self.dfa.simulate_factors(
            scenario.trials,
            scenario.seed ^ 0xDFA,
            &|slices, task| par_chunks_mut(&self.pool, slices, 1, |i, slice| task(i, slice[0])),
        )?;
        riskpipe_obs::counter_add("stage3.dfa_factor_builds", 1);
        Ok(factors)
    }

    /// The stage-2 half of a cache entry: the per-book secondary tables
    /// — adopted from the disk entry when it carried this session's
    /// grids, built on the session's pool otherwise — joined into the
    /// one table every scenario sharing `key` reads. Before the join
    /// sits the disk write-through: a fresh build is stored with its
    /// grids, and a disk hit whose entry lacked them (written with
    /// secondary uncertainty off, under another grid size, or before
    /// the tier carried grids) is rewritten with them, so the next
    /// process adopts instead of inverting. The first book's YELT row
    /// count follows the join — a count, not a table: no store needs
    /// the YELT built, and the count depends on the YET and book 0's
    /// ELT only. The tables depend on the ELTs and the session's options
    /// only, so the cache key needs nothing added. Stage 3's factor
    /// block is not a step of this chain: it runs beside it, from its
    /// declared inputs ([`Self::build_model_run`]).
    fn derive_model_run(
        &self,
        key: u64,
        acquired: Acquired,
    ) -> RiskResult<(Stage1Output, EventJoin, usize)> {
        let Acquired {
            output,
            grids,
            on_disk,
        } = acquired;
        let opts = self.runner.options();
        let elts = || output.books.iter().map(|book| &*book.elt);
        // The grid size this session tabulates, if it tabulates one.
        let grid_points = opts
            .secondary_uncertainty
            .then(|| opts.quantile_mode.grid_points())
            .flatten();
        let adopted = grid_points.is_some_and(|g| {
            !grids.is_empty() && grids.iter().all(|table| table.grid_points() == g)
        });
        let secondary = if adopted {
            Some(grids)
        } else {
            let _span = opts
                .secondary_uncertainty
                .then(|| riskpipe_obs::span_key("stage2.secondary", key));
            let built = build_secondary(elts(), opts, &self.pool);
            if let Some(tables) = &built {
                riskpipe_obs::counter_add("stage2.secondary_builds", 1);
                riskpipe_obs::counter_add(
                    "stage2.secondary_evals",
                    tables.iter().map(SecondaryTable::cdf_evals).sum(),
                );
            }
            built
        };
        // A session that tabulates no grid leaves a disk entry as it
        // found it: the grids there are another session's to use.
        if !on_disk || (grid_points.is_some() && !adopted) {
            self.stage1
                .disk_store(key, &output, secondary.as_deref().unwrap_or_default())?;
        }
        let join = {
            let _span = riskpipe_obs::span_key("stage2.join", key);
            EventJoin::build(elts(), secondary)?
        };
        riskpipe_obs::counter_add("stage2.join_builds", 1);
        riskpipe_obs::counter_add("stage2.join_hits", join.hits() as u64);
        let yelt_rows = {
            let _span = riskpipe_obs::span_key("stage2.yelt_count", key);
            output.books.first().map_or(0, |book| {
                yelt_row_count(&output.yet, &book.elt, output.catalog.len(), &self.pool)
            })
        };
        riskpipe_obs::counter_add("stage2.yelt_counts", 1);
        Ok((output, join, yelt_rows))
    }

    /// Stages 2 and 3 on an already-acquired model run; only the
    /// portfolio's layer terms are derived per scenario.
    fn finish_pipeline(
        &self,
        scenario: &ScenarioConfig,
        slot: Option<usize>,
        run: u64,
        model: &ModelRun,
    ) -> RiskResult<PipelineReport> {
        let bundle: Stage1Bundle = scenario.bundle_from_output(Arc::clone(&model.output))?;
        // Span keys: the sweep slot when streaming, 0 for single runs.
        let span_key = slot.map_or(0, |s| s as u64);

        // ---------------- stage 2: aggregate analysis ----------------
        let portfolio = bundle.portfolio();
        let yet = bundle.year_event_table();
        let ylt = {
            let _engine_span = riskpipe_obs::span_key("stage2.engine", span_key);
            self.runner.run_prepared(&portfolio, &yet, &model.join)?
        };

        // The first book's YELT (the drill-down table; at scale this is
        // the artifact that decides memory vs files) goes to the store
        // as the join it is — a files store streams it, an in-memory
        // one keeps nothing — and the report only carries its size,
        // counted once per key, so no scenario ever holds the table.
        let yelt_rows = model.yelt_rows;
        let yelt_memory_bytes = Yelt::memory_bytes_for(yet.trials(), yelt_rows) as u64;
        let yelt_file_bytes = {
            let _persist_span = riskpipe_obs::span_key("stage2.persist_yelt", span_key);
            self.store.persist_yelt(
                RunLabel {
                    scenario: &scenario.name,
                    slot,
                    run,
                },
                &yet,
                &bundle.output.books[0].elt,
            )?
        };
        riskpipe_obs::counter_add("stage2.scenarios", 1);
        riskpipe_obs::counter_add("stage2.yelt_rows", yelt_rows as u64);
        riskpipe_obs::histogram_record("stage2.trials", STAGE2_TRIALS_BOUNDS, ylt.trials() as u64);

        // ---------------- stage 3: DFA ----------------
        let dfa_result = {
            let _dfa_span = riskpipe_obs::span_key("stage3.dfa", span_key);
            self.dfa.apply(&model.dfa_factors, &ylt)?
        };

        // Sort each YLT loss column exactly once and share the buffers:
        // RiskMeasures, the 100-year PML and the report's retained
        // sorted columns (which sinks fold into pooled sketches in one
        // weighted merge) all read the same two sorts — two pool tasks,
        // the aggregate column's spawned and the occurrence column's
        // run here.
        let mut agg_sorted = Vec::new();
        // lint: allow(C1) — a waiting scope caller runs queued tasks
        // (`ThreadPool::scope`), so the wait always makes progress.
        let occ_sorted = self.pool.scope(|s| {
            s.spawn(|| agg_sorted = ylt.sorted_agg_losses());
            ylt.sorted_max_occ_losses()
        });
        let agg_stats: RunningStats = ylt.agg_losses().iter().copied().collect();
        let measures = RiskMeasures::from_sorted(&agg_sorted, &occ_sorted, &agg_stats);
        let pml_100 = if ylt.trials() >= 100 {
            // The 1 − 1/T quantile, exactly as `EpCurve::pml` computes it.
            Some(quantile_sorted(&agg_sorted, 1.0 - 1.0 / 100.0))
        } else {
            None
        };
        Ok(PipelineReport {
            scenario_name: scenario.name.clone(),
            elt_rows: portfolio.total_elt_rows(),
            yet_occurrences: yet.total_occurrences(),
            yelt_rows,
            yelt_memory_bytes,
            yelt_file_bytes,
            ylt_encoded_bytes: codec::encoded_ylt_len(ylt.trials()) as u64,
            measures,
            pml_100,
            prob_ruin: dfa_result.prob_ruin(),
            mean_net_income: dfa_result.mean_net_income(),
            economic_capital: dfa_result.economic_capital(),
            agg_sorted,
            occ_sorted,
            ylt,
        })
    }
}

/// Rows of the YELT joining `yet` with `elt` — the occurrences whose
/// event has a row in the ELT, what `Yelt::from_yet_elt(yet, elt).rows()`
/// counts — as a parallel integer reduce over the YET's event column.
/// Membership is a dense mask over the catalogue's `events` ids, built
/// once from the ELT's event column, so an occurrence costs one indexed
/// load, not a hash probe.
fn yelt_row_count(yet: &YearEventTable, elt: &Elt, events: usize, pool: &ThreadPool) -> usize {
    let mut in_elt = vec![false; events];
    for &e in elt.columns().0 {
        if let Some(slot) = in_elt.get_mut(e as usize) {
            *slot = true;
        }
    }
    let (_, occurrences, _, _) = yet.columns();
    let grain = suggest_grain(occurrences.len(), pool.thread_count(), 16 * 1024);
    par_reduce(
        pool,
        occurrences.len(),
        grain,
        || 0,
        |range, rows| {
            rows + occurrences[range]
                .iter()
                .map(|&e| usize::from(in_elt.get(e as usize).copied().unwrap_or(false)))
                .sum::<usize>()
        },
        |a, b| a + b,
    )
}

impl std::fmt::Debug for RiskSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RiskSession")
            .field("engine", &self.engine())
            .field("store", &self.store_name())
            .field("pool_threads", &self.pool.thread_count())
            .field("stage1_cache", &self.stage1.stats())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------

/// Everything a scenario run produced, plus a rendered summary.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Scenario name.
    pub scenario_name: String,
    /// Total ELT rows across the portfolio.
    pub elt_rows: usize,
    /// YET occurrences.
    pub yet_occurrences: usize,
    /// YELT rows (book 0).
    pub yelt_rows: usize,
    /// What the book-0 YELT would occupy in memory
    /// ([`Yelt::memory_bytes_for`]; the session never builds it).
    pub yelt_memory_bytes: u64,
    /// YELT bytes written to shard files (0 for in-memory runs).
    pub yelt_file_bytes: u64,
    /// Encoded YLT size.
    pub ylt_encoded_bytes: u64,
    /// Portfolio risk measures.
    pub measures: RiskMeasures,
    /// 100-year aggregate PML (when trials allow).
    pub pml_100: Option<f64>,
    /// DFA probability of ruin.
    pub prob_ruin: f64,
    /// DFA mean net income.
    pub mean_net_income: f64,
    /// DFA economic capital.
    pub economic_capital: f64,
    /// The YLT's aggregate-loss column, sorted ascending by
    /// `total_cmp` — the report path sorts each column exactly once
    /// and shares the buffer, so streaming sinks fold pooled analytics
    /// with one weighted sketch merge instead of re-sorting per
    /// consumer. May be empty on reports that outlive delivery
    /// (a collecting [`SweepPlan`](crate::SweepPlan) clears it to keep
    /// collected sweeps at one copy per column); consumers read it through
    /// [`PipelineReport::sorted_agg`], which falls back to sorting
    /// [`PipelineReport::ylt`] when `agg_sorted.len() != ylt.trials()`.
    pub agg_sorted: Vec<f64>,
    /// The maximum-occurrence column, likewise sorted (and likewise
    /// possibly empty; read it through [`PipelineReport::sorted_occ`]).
    pub occ_sorted: Vec<f64>,
    /// The portfolio YLT (for downstream analysis).
    pub ylt: Ylt,
}

impl std::fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "pipeline report: {}", self.scenario_name)?;
        let mut data = TextTable::new(&["table", "size"]);
        data.row(&["ELT rows (portfolio)".into(), self.elt_rows.to_string()]);
        data.row(&["YET occurrences".into(), self.yet_occurrences.to_string()]);
        data.row(&["YELT rows (book 0)".into(), self.yelt_rows.to_string()]);
        data.row(&[
            "YELT memory".into(),
            riskpipe_tables::sizing::human_bytes(self.yelt_memory_bytes as u128),
        ]);
        data.row(&[
            "YLT encoded".into(),
            riskpipe_tables::sizing::human_bytes(self.ylt_encoded_bytes as u128),
        ]);
        writeln!(f, "{data}")?;
        writeln!(f, "{}", self.measures)?;
        if let Some(pml) = self.pml_100 {
            writeln!(f, "AEP PML 100y     : {:>16}", money(pml))?;
        }
        writeln!(f, "P(ruin)          : {:>16.4}", self.prob_ruin)?;
        writeln!(f, "mean net income  : {:>16}", money(self.mean_net_income))?;
        write!(f, "economic capital : {:>16}", money(self.economic_capital))
    }
}

impl PipelineReport {
    /// The aggregate-loss column sorted ascending by `total_cmp`: the
    /// shared [`agg_sorted`](Self::agg_sorted) buffer when the report
    /// still carries it (`len == ylt.trials()`), otherwise one sort of
    /// [`ylt`](Self::ylt). The one place that fallback rule lives.
    pub fn sorted_agg(&self) -> Cow<'_, [f64]> {
        if self.agg_sorted.len() == self.ylt.trials() {
            Cow::Borrowed(&self.agg_sorted)
        } else {
            Cow::Owned(self.ylt.sorted_agg_losses())
        }
    }

    /// The maximum-occurrence twin of [`sorted_agg`](Self::sorted_agg).
    pub fn sorted_occ(&self) -> Cow<'_, [f64]> {
        if self.occ_sorted.len() == self.ylt.trials() {
            Cow::Borrowed(&self.occ_sorted)
        } else {
            Cow::Owned(self.ylt.sorted_max_occ_losses())
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests damage persisted files on purpose"
)]
mod tests {
    use super::*;
    use crate::stage1cache::DEFAULT_STAGE1_CACHE_CAPACITY;
    use std::path::Path;

    fn temp(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("riskpipe-sess-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn builder_defaults() {
        let session = RiskSession::with_defaults().unwrap();
        assert_eq!(session.engine(), EngineKind::CpuParallel);
        assert_eq!(session.store_name(), "in-memory");
        assert!(session.pool().thread_count() >= 1);
        assert_eq!(session.stage1_cache_stats(), Stage1CacheStats::default());
    }

    #[test]
    fn session_runs_a_scenario_end_to_end() {
        let session = RiskSession::builder().pool_threads(4).build().unwrap();
        let report = session.run(&ScenarioConfig::small().with_seed(3)).unwrap();
        assert_eq!(report.ylt.trials(), 2_000);
        assert!(report.elt_rows > 0);
        assert!(report.yet_occurrences > 0);
        assert!(report.measures.mean >= 0.0);
        assert!(report.measures.tvar99 >= report.measures.var99);
        assert!(report.pml_100.is_some());
        assert_eq!(report.yelt_file_bytes, 0);
        let text = report.to_string();
        assert!(text.contains("YLT encoded"));
        assert!(text.contains("economic capital"));
    }

    #[test]
    fn repeated_runs_hit_the_stage1_cache() {
        let session = RiskSession::builder().pool_threads(2).build().unwrap();
        let scenario = ScenarioConfig::small().with_seed(40).with_trials(300);
        let a = session.run(&scenario).unwrap();
        let b = session.run(&scenario).unwrap();
        assert_eq!(a.ylt, b.ylt);
        let stats = session.stage1_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn cache_capacity_bounds_entries() {
        let session = RiskSession::builder().pool_threads(2).build().unwrap();
        let keys = DEFAULT_STAGE1_CACHE_CAPACITY as u64 + 1;
        for seed in 50..50 + keys {
            session
                .run(&ScenarioConfig::small().with_seed(seed).with_trials(200))
                .unwrap();
        }
        let stats = session.stage1_cache_stats();
        assert_eq!(stats.misses, keys);
        assert_eq!(stats.entries, DEFAULT_STAGE1_CACHE_CAPACITY);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes > 0);
        assert_eq!(stats.builds, keys);
    }

    #[test]
    fn cache_eviction_is_lru_not_fifo() {
        // Fill K1…K8, touch K1, add K9. LRU: the touch makes K2
        // least-recent, so K9 evicts K2 and a revisited K1 still hits
        // while K2 misses (10 misses, 2 hits). FIFO would have evicted
        // K1 instead (11 misses, 1 hit).
        let session = RiskSession::builder().pool_threads(2).build().unwrap();
        let k = |i: u64| ScenarioConfig::small().with_seed(79 + i).with_trials(200);
        let cap = DEFAULT_STAGE1_CACHE_CAPACITY as u64;
        for i in 1..=cap {
            session.run(&k(i)).unwrap();
        }
        for i in [1, cap + 1, 1, 2] {
            session.run(&k(i)).unwrap();
        }
        let stats = session.stage1_cache_stats();
        assert_eq!(
            stats.misses,
            cap + 2,
            "LRU must evict K2, not the touched K1"
        );
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn per_key_build_timings_are_exposed() {
        // The per-key build timing is the keyed `stage1.build` span: one
        // per distinct key, none for a hit.
        let telemetry = riskpipe_obs::Telemetry::new();
        let session = RiskSession::builder()
            .pool_threads(2)
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let a = ScenarioConfig::small().with_seed(96).with_trials(200);
        let b = ScenarioConfig::small().with_seed(97).with_trials(200);
        session.run(&a).unwrap();
        session.run(&b).unwrap();
        session.run(&a).unwrap(); // hit: no extra build span
        let snap = telemetry.snapshot();
        let builds: Vec<_> = snap.spans_named("stage1.build").collect();
        let mut keys: Vec<u64> = builds.iter().map(|s| s.key).collect();
        keys.sort_unstable();
        let mut expected = vec![a.stage1_key(), b.stage1_key()];
        expected.sort_unstable();
        assert_eq!(keys, expected);
        assert!(builds.iter().all(|s| s.dur_ns > 0));
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
    fn zero_pool_threads_rejected_at_build_time() {
        // Regression (builder validation): a zero-thread pool used to
        // be silently clamped to 1 by ThreadPool::new; the builder now
        // rejects the contradiction outright, matching the
        // ShardedFilesStore::new(_, 0) precedent.
        let err = RiskSession::builder().pool_threads(0).build();
        assert!(err.is_err());
        let msg = format!("{}", err.err().unwrap());
        assert!(msg.contains("pool"), "{msg}");
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
    fn batch_propagates_scenario_errors() {
        let session = RiskSession::builder().pool_threads(2).build().unwrap();
        let mut bad = ScenarioConfig::small();
        bad.trials = 0;
        let scenarios = [ScenarioConfig::small().with_trials(200), bad];
        assert!(session.sweep(&scenarios).collect().drive().is_err());
    }

    #[test]
    fn stream_on_empty_input_is_empty() {
        let session = RiskSession::builder().pool_threads(2).build().unwrap();
        let delivered = session.run_stream(&[], |_, _| Ok(())).unwrap();
        assert_eq!(delivered, 0);
    }

    #[test]
    fn sink_errors_abort_the_sweep() {
        let session = RiskSession::builder().pool_threads(2).build().unwrap();
        let scenarios: Vec<ScenarioConfig> = (0..5)
            .map(|i| ScenarioConfig::small().with_seed(70 + i).with_trials(200))
            .collect();
        let mut seen = 0usize;
        let err = session.run_stream(&scenarios, |i, _| {
            seen += 1;
            if i == 1 {
                Err(RiskError::invalid("sink says stop"))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err());
        assert_eq!(seen, 2);
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
                _label: RunLabel<'_>,
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
