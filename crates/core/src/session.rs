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
//! scenario.
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
//!   thousands-of-scenarios sweeps need; [`RiskSession::stream`] is
//!   the iterator adapter.
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
use crate::stage1disk::DiskStage1Cache;
use riskpipe_aggregate::{
    build_secondary, AggregateEngine, AggregateOptions, AggregateRunner, EngineKind, EventJoin,
    SecondaryTable,
};
use riskpipe_catmodel::{EltGenCounts, Stage1Output};
use riskpipe_dfa::{CompanyConfig, DfaEngine, DfaFactors};
use riskpipe_exec::lockwitness::{Condvar, Mutex};
use riskpipe_exec::{par_map_collect, ThreadPool};
use riskpipe_metrics::RiskMeasures;
use riskpipe_tables::{codec, durable, shard, ScaleSpec, Yelt, Ylt};
use riskpipe_types::stats::quantile_sorted;
use riskpipe_types::{LocationId, RiskError, RiskResult, RunningStats, TrialId};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// A backend for stage-2 YELT intermediates and persisted reports.
/// Implementations must be callable from multiple scenarios at once (a
/// sweep persists concurrently). A store only stores: new durable
/// backends implement this and plug into [`RiskSessionBuilder::store`]
/// without the session or the engines changing, while consumers that
/// derive something from the reports (pooled analytics, a drill-down
/// warehouse) are [`ReportSink`](crate::ReportSink)s riding the same
/// [`FanoutSink`](crate::FanoutSink).
pub trait IntermediateStore: Send + Sync {
    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Persist one scenario's YELT; returns the bytes written to
    /// durable storage (0 for purely in-memory backends).
    fn persist_yelt(&self, label: RunLabel<'_>, yelt: &Yelt) -> RiskResult<u64>;

    /// Persist one completed report's YLT and risk measures — the
    /// sink-side artifact a [`PersistingSink`](crate::PersistingSink)
    /// writes per delivered report so the report itself can drop.
    /// Returns the bytes written durably; the default keeps nothing
    /// (0), so existing custom backends compile unchanged.
    fn persist_report(&self, _label: RunLabel<'_>, _report: &PipelineReport) -> RiskResult<u64> {
        Ok(0)
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

/// The accumulate-in-large-memory strategy: the YELT already lives in
/// the report; nothing to persist.
#[derive(Debug, Default, Clone, Copy)]
pub struct InMemoryStore;

impl IntermediateStore for InMemoryStore {
    fn name(&self) -> &'static str {
        "in-memory"
    }

    fn persist_yelt(&self, _label: RunLabel<'_>, _yelt: &Yelt) -> RiskResult<u64> {
        Ok(0)
    }
}

/// The distributed-file-space strategy: spill the YELT to a sharded
/// store under `dir`, one whole trial per [`shard::ShardedWriter::push_trial`]
/// call.
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
    pub fn run_dir(&self, label: RunLabel<'_>) -> PathBuf {
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
    /// [`IntermediateStore::persist_report`] via a
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
        shard::read_ylt_file(&path).map_err(|e| match e {
            // A slot the run manifest promised but the filesystem lost
            // is corruption of the run's artifact set, not a lookup
            // miss — readers iterating manifest-enumerated slots must
            // not mistake it for "fewer slots".
            RiskError::Io(ioe) if ioe.kind() == std::io::ErrorKind::NotFound => {
                RiskError::corrupt(format!("missing persisted report {}", path.display()))
            }
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
        let (stored_run, slots) = codec::decode_run_manifest(&data)?;
        if stored_run != run {
            return Err(RiskError::corrupt(format!(
                "run manifest {} records run {stored_run}, expected {run}",
                path.display()
            )));
        }
        usize::try_from(slots).map_err(|_| {
            RiskError::corrupt(format!(
                "implausible slot count {slots} in {}",
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

    fn persist_yelt(&self, label: RunLabel<'_>, yelt: &Yelt) -> RiskResult<u64> {
        let mut writer = shard::ShardedWriter::create(self.run_dir(label), self.shards)?;
        for t in 0..yelt.trials() {
            let (events, _days, losses) = yelt.trial_slices(TrialId::new(t as u32));
            // Location detail is book-level here; location 0 marks
            // "whole book" rows.
            writer.push_trial(t as u32, events, LocationId::new(0), losses)?;
        }
        let manifest = writer.finish()?;
        Ok(manifest.rows * riskpipe_tables::yellt::YELLT_BYTES_PER_ROW as u64)
    }

    fn persist_report(&self, label: RunLabel<'_>, report: &PipelineReport) -> RiskResult<u64> {
        let dir = self.run_dir(label);
        let encoded = codec::encode_ylt(&report.ylt);
        let measures = format!(
            "scenario: {}\ntrials: {}\n{}\n",
            report.scenario_name,
            report.ylt.trials(),
            report.measures
        );
        let bytes = (encoded.len() + measures.len()) as u64;
        // Both artifacts go through the durable write path (tmp +
        // fsync + atomic rename): a kill at any byte boundary leaves
        // either the previous slot state or a detectably-absent file,
        // never a torn one.
        shard::write_table_file(&dir.join(Self::YLT_FILE), &encoded)?;
        durable::write_atomic(&dir.join(Self::MEASURES_FILE), measures.as_bytes())?;
        Ok(bytes)
    }

    fn clear_runs(&self) -> RiskResult<()> {
        ShardedFilesStore::clear_runs(self)
    }

    fn finish_run(&self, run: u64, slots: usize) -> RiskResult<u64> {
        let encoded = codec::encode_run_manifest(run, slots as u64);
        durable::write_atomic(&self.run_manifest_path(run), &encoded)?;
        Ok(encoded.len() as u64)
    }
}

// ---------------------------------------------------------------------
// The stage-1 cache.
// ---------------------------------------------------------------------

/// Hit/miss counters for a session's stage-1 cache — exposed for
/// observability (how much model-run work a sweep actually shared) and
/// for tests pinning "stage 1 built exactly once per distinct key".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stage1CacheStats {
    /// Lookups served from a cached [`Stage1Output`].
    pub hits: u64,
    /// Lookups that had to build stage 1 (including every lookup when
    /// the cache is disabled).
    pub misses: u64,
    /// Entries displaced by the LRU capacity or byte-budget bound.
    pub evictions: u64,
    /// Distinct keys currently retained.
    pub entries: usize,
    /// Estimated bytes currently retained — what the
    /// [`RiskSessionBuilder::stage1_cache_bytes`] budget bounds. Each
    /// entry is charged its model run's [`Stage1Output::memory_bytes`]
    /// plus the [`EventJoin::memory_bytes`] of the join of its books
    /// cached beside it (quantile grids included when the session's
    /// options switch secondary uncertainty on) plus the
    /// [`DfaFactors::memory_bytes`] of its stage-3 factor block
    /// (7 × 8 B × trials).
    pub bytes: u64,
    /// Stage-1 model runs actually built (a RAM miss the disk tier
    /// also missed, plus redundant racer builds). With a warm disk
    /// tier this stays at zero — the number the "cold process replays
    /// a sweep with zero rebuilds" guarantee pins.
    pub builds: u64,
    /// RAM misses served by the disk tier
    /// ([`RiskSessionBuilder::stage1_disk_cache`]) instead of a build.
    pub disk_hits: u64,
    /// Entries written through to the disk tier: one per successful
    /// build while the tier is attached, plus one per disk hit whose
    /// entry lacked the quantile grids this session tabulates (it is
    /// rewritten with them, so the next process inverts nothing).
    pub disk_writes: u64,
}

/// What one cache entry holds: a stage-1 model run plus everything
/// stages 2 and 3 derive from it that no scenario's terms can change —
/// the event-major join of its books, a pure function of the books'
/// ELTs and the session's fixed [`AggregateOptions`], and the DFA
/// factor block, a pure function of the key's seed and trial count and
/// the session's fixed company. Built once by the key's leader,
/// `Arc`-shared with every follower.
struct ModelRun {
    output: Arc<Stage1Output>,
    /// The books joined in book order — the table the engines read.
    join: EventJoin,
    /// Stage 3's seven factor columns, Iman–Conover already applied;
    /// a scenario only runs the accounting identity over them.
    dfa_factors: DfaFactors,
}

impl ModelRun {
    /// What the entry is charged against the cache's byte budget.
    fn memory_bytes(&self) -> usize {
        self.output.memory_bytes() + self.join.memory_bytes() + self.dfa_factors.memory_bytes()
    }
}

/// A model run as a RAM miss obtained it, before anything is derived
/// from it: freshly built, or decoded from the disk tier together with
/// whatever grids its entry carried.
struct Acquired {
    output: Stage1Output,
    /// One secondary table per book, adopted from the disk entry's grid
    /// frames; empty after a build, and when the entry carried none.
    grids: Vec<SecondaryTable>,
    /// Whether the disk tier already holds an entry for the key (a disk
    /// hit). A build still has to be written through.
    on_disk: bool,
}

/// One key's cache entry. `Building` marks an in-progress build so
/// concurrent requesters know not to expect a value yet; they build
/// redundantly rather than wait (see [`Stage1Cache::get_or_build`]).
#[derive(Default)]
enum SlotState {
    #[default]
    Empty,
    Building,
    Ready(Arc<ModelRun>),
}

struct CacheSlot {
    state: Mutex<SlotState>,
    /// Estimated bytes of the published entry (0 while `Building`) —
    /// readable without the state lock so budget enforcement under the
    /// index lock never orders against a slot lock.
    bytes: AtomicUsize,
}

impl Default for CacheSlot {
    fn default() -> Self {
        Self {
            // The witness lock name is the binding the lock is reached
            // through (`slot.state`), matching the lint identity.
            state: Mutex::new("state", SlotState::default()),
            bytes: AtomicUsize::new(0),
        }
    }
}

#[derive(Default)]
struct CacheIndex {
    map: HashMap<u64, Arc<CacheSlot>>,
    /// Each retained key's current recency stamp.
    stamps: HashMap<u64, u64>,
    /// Recency order as `stamp → key`, ascending = least recently used
    /// first. Stamps come from a monotonic counter, so marking a key
    /// most-recently-used is two ordered-map operations — O(log n) —
    /// instead of the O(n) position scan a recency *list* costs on
    /// every cache hit (which made hot sweeps quadratic in retained
    /// entries).
    recency: BTreeMap<u64, u64>,
    /// Monotonic recency clock; strictly increases on every insert or
    /// touch, so stamps never collide.
    clock: u64,
}

impl CacheIndex {
    fn len(&self) -> usize {
        self.map.len()
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Mark `key` most-recently-used (no-op for unknown keys).
    fn touch(&mut self, key: u64) {
        let Some(&old) = self.stamps.get(&key) else {
            return;
        };
        if self.recency.keys().next_back() == Some(&old) {
            return;
        }
        self.recency.remove(&old);
        let stamp = self.next_stamp();
        self.recency.insert(stamp, key);
        self.stamps.insert(key, stamp);
    }

    /// Retain `slot` under `key`, most-recently-used.
    fn insert(&mut self, key: u64, slot: Arc<CacheSlot>) {
        self.map.insert(key, slot);
        let stamp = self.next_stamp();
        self.recency.insert(stamp, key);
        self.stamps.insert(key, stamp);
    }

    /// Drop `key` entirely (returns whether it was retained).
    fn remove(&mut self, key: u64) -> bool {
        match self.stamps.remove(&key) {
            Some(stamp) => {
                self.recency.remove(&stamp);
                self.map.remove(&key);
                true
            }
            None => false,
        }
    }

    /// The least-recently-used key, if any.
    fn lru_key(&self) -> Option<u64> {
        self.recency.values().next().copied()
    }

    /// Retained keys, least-recently-used first.
    fn keys_lru_first(&self) -> Vec<u64> {
        self.recency.values().copied().collect()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.stamps.clear();
        self.recency.clear();
    }

    fn retained_bytes(&self) -> u64 {
        self.map
            .values()
            .map(|s| s.bytes.load(Ordering::Relaxed) as u64)
            .sum()
    }
}

/// A keyed cache of stage-1 model runs ([`Stage1Output`]: catalogue,
/// per-contract books, YET), the join of their books and their DFA
/// factor block ([`ModelRun`]), shared across every scenario a session
/// executes. Keys come from [`ScenarioConfig::stage1_key`] — a stable
/// fingerprint of the generating configs — so a sweep that varies only
/// pricing terms (or report names) regenerates nothing. Eviction is
/// LRU under two independent bounds: an entry-count capacity and an
/// optional byte budget over the retained outputs' estimated
/// footprints.
struct Stage1Cache {
    capacity: usize,
    /// Optional byte budget over retained entries; enforced after each
    /// publish, never evicting the entry just published (a budget
    /// smaller than one model run would otherwise cache nothing).
    budget_bytes: Option<u64>,
    /// Optional durable tier consulted on RAM miss and written through
    /// on every build — survives the process and is shared across
    /// processes (see [`DiskStage1Cache`]).
    disk: Option<DiskStage1Cache>,
    index: Mutex<CacheIndex>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    builds: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
}

impl Stage1Cache {
    fn new(capacity: usize, budget_bytes: Option<u64>, disk: Option<DiskStage1Cache>) -> Self {
        Self {
            capacity,
            budget_bytes,
            disk,
            index: Mutex::new("index", CacheIndex::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
        }
    }

    /// Whether caching is on at all (capacity above zero).
    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Whether `key` has a completed build ready to serve.
    fn is_ready(&self, key: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        // lint: allow(C1) — index mutex guards a map lookup only; no
        // holder blocks or enqueues pool work under it, so the wait is
        // bounded by another lookup, never by a queued task.
        let slot = match self.index.lock().map.get(&key) {
            Some(slot) => Arc::clone(slot),
            None => return false,
        };
        // lint: allow(C1) — slot state mutex protects an enum tag; it
        // is never held across a build (builds run unlocked and only
        // re-acquire to publish), so acquisition is bounded.
        let state = slot.state.lock();
        matches!(*state, SlotState::Ready(_))
    }

    /// Look up `key`; on a miss, obtain the model run (disk tier, else
    /// `build`), hand it to `derive` for the join and factor block
    /// cached beside it — and for the write-through, which waits for
    /// the grids `derive` tabulates so they ride in the same entry
    /// ([`Stage1Cache::disk_store`]) — and retain the result. Nothing
    /// is published before `derive` returns, so a disk-tier error takes
    /// the same retry path as a failed build instead of leaving RAM and
    /// disk disagreeing.
    ///
    /// This NEVER blocks on another request's build. Pipeline tasks run
    /// on pool workers whose nested scopes *steal and inline other
    /// pipeline tasks while they wait*; if a request could park on a
    /// "someone is building" lock, a builder that inlined a same-key
    /// task would block on its own stack (and two builders could
    /// deadlock on each other's keys). Instead a request that finds the
    /// slot `Building` performs its own redundant build — correct
    /// because builds are pure functions of the key — and whichever
    /// finishes first publishes. [`RiskSession::run_stream`] holds back
    /// same-key followers until the key's first scenario deposits, so
    /// within one streaming/batch call the redundant path never fires
    /// and stage 1 — `derive` included — runs exactly once per distinct
    /// key.
    fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> RiskResult<(Stage1Output, EltGenCounts)>,
        derive: impl FnOnce(Acquired) -> RiskResult<ModelRun>,
    ) -> RiskResult<Arc<ModelRun>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            riskpipe_obs::counter_add("stage1.misses", 1);
            // The disk tier is independent of the RAM cache: with
            // capacity 0 every lookup misses RAM, but a warm tier
            // still avoids the rebuild.
            return Ok(Arc::new(derive(self.load_or_build(key, build)?)?));
        }
        let slot = {
            // lint: allow(C1) — index mutex covers map insert/evict
            // bookkeeping only; builds never run under it, so the
            // critical section is a few map operations and the wait is
            // bounded and deadlock-free.
            let mut index = self.index.lock();
            if let Some(slot) = index.map.get(&key) {
                let slot = Arc::clone(slot);
                index.touch(key);
                slot
            } else {
                while index.len() >= self.capacity {
                    match index.lru_key() {
                        Some(old) => {
                            index.remove(old);
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        None => break,
                    }
                }
                let slot = Arc::new(CacheSlot::default());
                index.insert(key, Arc::clone(&slot));
                slot
            }
        };
        {
            // lint: allow(C1) — slot state mutex is tag-only (see the
            // fn doc: a `Building` tag triggers a redundant build, it
            // is never waited on), so no holder can park this worker.
            let mut state = slot.state.lock();
            match &*state {
                SlotState::Ready(run) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    riskpipe_obs::counter_add("stage1.hits", 1);
                    return Ok(Arc::clone(run));
                }
                SlotState::Building => {} // redundant build below
                SlotState::Empty => *state = SlotState::Building,
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        riskpipe_obs::counter_add("stage1.misses", 1);
        match self.load_or_build(key, build).and_then(derive) {
            Ok(run) => {
                let run = Arc::new(run);
                // Sized outside the lock: the footprint is a pure
                // accessor and the critical section stays tag-only.
                let run_bytes = run.memory_bytes();
                // lint: allow(C1) — tag-only publish after an unlocked
                // load or build; bounded critical section, no nested
                // waits.
                let mut state = slot.state.lock();
                if !matches!(*state, SlotState::Ready(_)) {
                    *state = SlotState::Ready(Arc::clone(&run));
                    slot.bytes.store(run_bytes, Ordering::Relaxed);
                }
                drop(state);
                self.enforce_byte_budget(key);
                Ok(run)
            }
            Err(e) => {
                // Re-open the slot so a later request retries, unless a
                // concurrent build already published.
                // lint: allow(C1) — tag-only rollback of a failed load
                // or build; bounded critical section, no nested waits.
                let mut state = slot.state.lock();
                if matches!(*state, SlotState::Building) {
                    *state = SlotState::Empty;
                }
                Err(e)
            }
        }
    }

    /// RAM missed: a complete disk entry serves `key` without a build
    /// (bit-identical — stage 1 is a pure function of the key, and the
    /// codec round trip is exact); otherwise build it.
    fn load_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> RiskResult<(Stage1Output, EltGenCounts)>,
    ) -> RiskResult<Acquired> {
        if let Some((output, grids)) = self.disk_load(key)? {
            return Ok(Acquired {
                output,
                grids,
                on_disk: true,
            });
        }
        Ok(Acquired {
            output: self.timed_build(key, build)?,
            grids: Vec::new(),
            on_disk: false,
        })
    }

    /// Consult the disk tier for `key`. A corrupt or key-mismatched
    /// entry — a damaged grid frame included — self-heals: the bad file
    /// is removed and the lookup reports a miss, so the caller rebuilds
    /// and the write-through atomically replaces it.
    fn disk_load(&self, key: u64) -> RiskResult<Option<(Stage1Output, Vec<SecondaryTable>)>> {
        let Some(disk) = &self.disk else {
            return Ok(None);
        };
        match disk.load_entry(key) {
            Ok(Some(entry)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                riskpipe_obs::counter_add("stage1.disk_hits", 1);
                Ok(Some(entry))
            }
            Ok(None) => Ok(None),
            Err(RiskError::Corrupt(_)) => {
                disk.remove(key)?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Write `output` and its books' `tables` (their grids; empty for
    /// none) through to the disk tier, if attached.
    fn disk_store(
        &self,
        key: u64,
        output: &Stage1Output,
        tables: &[SecondaryTable],
    ) -> RiskResult<()> {
        if let Some(disk) = &self.disk {
            disk.store_entry(key, output, tables)?;
            self.disk_writes.fetch_add(1, Ordering::Relaxed);
            riskpipe_obs::counter_add("stage1.disk_writes", 1);
        }
        Ok(())
    }

    /// Run `build` under the `stage1.build` span — keyed, so a
    /// telemetry snapshot carries the per-key wall time — and count it.
    fn timed_build(
        &self,
        key: u64,
        build: impl FnOnce() -> RiskResult<(Stage1Output, EltGenCounts)>,
    ) -> RiskResult<Stage1Output> {
        let _build_span = riskpipe_obs::span_key("stage1.build", key);
        let (output, elt) = build()?;
        self.builds.fetch_add(1, Ordering::Relaxed);
        riskpipe_obs::counter_add("stage1.builds", 1);
        riskpipe_obs::counter_add("stage1.elt_pairs", elt.pairs);
        riskpipe_obs::counter_add("stage1.elt_damaging", elt.damaging);
        Ok(output)
    }

    /// Evict least-recently-used published entries until the retained
    /// bytes fit the budget. The entry just published under `keep` is
    /// never evicted (so a budget smaller than one model run degrades
    /// to caching exactly the latest run instead of nothing), and
    /// in-flight `Building` slots (bytes 0) are skipped — evicting one
    /// would only discard a build already paid for.
    fn enforce_byte_budget(&self, keep: u64) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        // lint: allow(C1) — index mutex held for eviction bookkeeping
        // only (map walks and removals); no holder blocks or enqueues
        // pool work under it, so the wait is bounded.
        let mut index = self.index.lock();
        let mut total = index.retained_bytes();
        if total <= budget {
            return;
        }
        for key in index.keys_lru_first() {
            if total <= budget {
                break;
            }
            if key == keep {
                continue;
            }
            let bytes = index
                .map
                .get(&key)
                .map(|s| s.bytes.load(Ordering::Relaxed) as u64)
                .unwrap_or(0);
            if bytes == 0 {
                continue;
            }
            index.remove(key);
            total -= bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> Stage1CacheStats {
        let (entries, bytes) = {
            let index = self.index.lock();
            (index.map.len(), index.retained_bytes())
        };
        Stage1CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            builds: self.builds.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
        }
    }

    fn clear(&self) {
        self.index.lock().clear();
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
    stage1_capacity: usize,
    stage1_bytes: Option<u64>,
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
            stage1_capacity: RiskSession::DEFAULT_STAGE1_CACHE_CAPACITY,
            stage1_bytes: None,
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

    /// Retain at most `capacity` distinct stage-1 model runs (LRU
    /// eviction; default [`RiskSession::DEFAULT_STAGE1_CACHE_CAPACITY`];
    /// 0 disables the cache). Caching never changes results — stage 1
    /// is a pure function of its key — only whether shared model runs
    /// are rebuilt. Size this to the number of distinct catalogues a
    /// sweep revisits — each retained entry holds a full catalogue +
    /// books + YET, plus the event-major join of the books (every
    /// book's quantile grid, in hit order).
    pub fn stage1_cache_capacity(mut self, capacity: usize) -> Self {
        self.stage1_capacity = capacity;
        self
    }

    /// Bound the stage-1 cache by *bytes* instead of (or on top of)
    /// the entry count: after each build publishes, least-recently-used
    /// entries are evicted until the retained entries' estimated
    /// footprints fit `bytes` — an entry is charged its model run
    /// ([`Stage1Output::memory_bytes`]) plus the join of its books
    /// ([`EventJoin::memory_bytes`]) and the DFA factor block
    /// ([`DfaFactors::memory_bytes`]) cached beside it, and an evicted
    /// entry drops all three. The just-published entry always
    /// survives, so a budget smaller than
    /// one model run degrades to caching only the latest run. The
    /// never-blocking leader/follower protocol is unchanged — eviction
    /// happens under the index lock alone and in-flight builds are
    /// never discarded.
    pub fn stage1_cache_bytes(mut self, bytes: u64) -> Self {
        self.stage1_bytes = Some(bytes);
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
    /// wrong answer. Independent of the RAM cache's capacity — it
    /// works even with the RAM cache disabled.
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
    /// Pathological knob combinations are rejected here with
    /// [`RiskError::invalid`] instead of being silently "fixed" at run
    /// time (the [`ShardedFilesStore::new`] zero-shards precedent):
    /// a zero-thread pool ([`RiskSessionBuilder::pool_threads`]`(0)`),
    /// and a stage-1 byte budget with the cache disabled
    /// ([`RiskSessionBuilder::stage1_cache_bytes`] alongside capacity
    /// 0 — a budget over a cache that retains nothing is a
    /// contradiction, not a configuration).
    pub fn build(self) -> RiskResult<RiskSession> {
        if let PoolChoice::Sized(0) = self.pool {
            return Err(RiskError::invalid(
                "session pool needs at least one thread (pool_threads(0))",
            ));
        }
        if self.stage1_capacity == 0 && self.stage1_bytes.is_some() {
            return Err(RiskError::invalid(
                "stage-1 cache byte budget set but the cache is disabled (capacity 0)",
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
            stage1: Stage1Cache::new(self.stage1_capacity, self.stage1_bytes, disk),
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
    /// Default number of distinct stage-1 model runs a session retains
    /// (see [`RiskSessionBuilder::stage1_cache_capacity`]).
    pub const DEFAULT_STAGE1_CACHE_CAPACITY: usize = 8;

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

    /// Drop every retained stage-1 model run (counters survive; they
    /// are cumulative observability, not cache contents).
    pub fn clear_stage1_cache(&self) {
        self.stage1.clear();
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
        self.execute(scenario, None, run)
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

        // lint: allow(C1) — this scope IS the coordinator: run_stream
        // executes on the caller's OS thread (the serving entry point),
        // never on a pool worker. The call-graph path here is a name
        // collision (`SeedStream::stream` linking to this fn's
        // `stream` wrapper); no worker-executed code calls back in.
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
            // With the cache on: keys whose first scenario (the
            // "leader") is in flight and has not yet deposited.
            // Followers of a leader hold back until the leader's
            // stage-1 build publishes (or, if it fails, until its
            // deposit clears the entry so the next same-key slot can
            // retry as leader), so each distinct key's stage-1 model
            // builds exactly once per sweep and no task ever contends
            // on a cache slot another task is filling. With the cache
            // off there is nothing to share or contend on, so no
            // gating.
            let gating = self.stage1.enabled();
            let mut leaders: HashMap<u64, usize> = HashMap::new();
            let spawn_eligible =
                |pending: &mut VecDeque<usize>,
                 in_window: &mut usize,
                 leaders: &mut HashMap<u64, usize>| {
                    let mut held = VecDeque::with_capacity(pending.len());
                    while let Some(i) = pending.pop_front() {
                        if *in_window >= width {
                            held.push_back(i);
                            break;
                        }
                        let key = keys[i];
                        let gated = gating && !self.stage1.is_ready(key);
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
                    // lint: allow(C1) — control loop runs inside the
                    // scope closure on the calling OS thread, not a
                    // pool worker; it is the one legitimate waiter.
                    let mut st = state.lock();
                    while st.arrivals.is_empty() && !st.stage1_published {
                        // lint: allow(C1) — coordinator-side condvar
                        // wait: workers only ever notify here, they
                        // never wait, so no pool thread parks on it.
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

    /// The iterator adapter over [`RiskSession::run_stream`]: reports
    /// arrive in input order as they complete, through a channel
    /// bounded at pool width. Requires `Arc<RiskSession>` because the
    /// sweep runs on a background thread that must co-own the session.
    ///
    /// Dropping the iterator early cancels the sweep: no further
    /// scenarios start, and the drop blocks only until in-flight ones
    /// drain.
    pub fn stream(self: &Arc<Self>, scenarios: Vec<ScenarioConfig>) -> ReportStream {
        let session = Arc::clone(self);
        let (tx, rx) = std::sync::mpsc::sync_channel(self.pool.thread_count().max(1));
        let err_tx = tx.clone();
        let worker = std::thread::Builder::new()
            .name("riskpipe-stream".into())
            .spawn(move || {
                let outcome = session.run_stream(&scenarios, |_, report| {
                    tx.send(Ok(report))
                        .map_err(|_| RiskError::invalid("report stream receiver dropped"))
                });
                if let Err(e) = outcome {
                    // Surface sweep errors in-band; a send failure just
                    // means the consumer is gone.
                    let _ = tx.send(Err(e));
                }
            });
        let worker = match worker {
            Ok(handle) => Some(handle),
            Err(e) => {
                // The OS refused the worker thread: deliver the
                // failure in-band as the stream's one item instead of
                // panicking — the iterator yields `Err` and ends,
                // exactly like a sweep that aborted on its first slot.
                let _ = err_tx.send(Err(e.into()));
                None
            }
        };
        ReportStream {
            rx: Some(rx),
            worker,
        }
    }

    fn next_run_id(&self) -> u64 {
        self.runs.fetch_add(1, Ordering::Relaxed)
    }

    /// The three stages for one scenario.
    fn execute(
        &self,
        scenario: &ScenarioConfig,
        slot: Option<usize>,
        run: u64,
    ) -> RiskResult<PipelineReport> {
        let model = self.acquire_stage1(scenario.stage1_key(), scenario)?;
        self.finish_pipeline(scenario, slot, run, &model)
    }

    /// Stage 1 for one scenario, through the keyed cache: the model run
    /// (catalogue, books, YET) and the join of its books are built or
    /// reused under `key` — the caller's precomputed
    /// [`ScenarioConfig::stage1_key`]. On a hit this is microseconds.
    fn acquire_stage1(&self, key: u64, scenario: &ScenarioConfig) -> RiskResult<Arc<ModelRun>> {
        let _span = riskpipe_obs::span_key("stage1.acquire", key);
        self.stage1.get_or_build(
            key,
            || scenario.build_stage1_counted_on(&self.pool),
            |acquired| self.derive_model_run(key, scenario.seed, acquired),
        )
    }

    /// Complete a cache entry: the per-book secondary tables — adopted
    /// from the disk entry when it carried this session's grids, built
    /// on the session's pool otherwise — joined into the one table
    /// every scenario sharing `key` reads, then stage 3's factor block
    /// on the same pool. Between the two sits the disk write-through:
    /// a fresh build is stored with its grids, and a disk hit whose
    /// entry lacked them (written with secondary uncertainty off, under
    /// another grid size, or before the tier carried grids) is
    /// rewritten with them, so the next process adopts instead of
    /// inverting. The tables depend on the ELTs and the session's
    /// options only; the block on `seed` (the scenario's, which `key`
    /// fingerprints), the YET's trial count and the session's company —
    /// so the cache key needs nothing added.
    fn derive_model_run(&self, key: u64, seed: u64, acquired: Acquired) -> RiskResult<ModelRun> {
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
        let dfa_factors = {
            let _span = riskpipe_obs::span_key("stage3.dfa_factors", key);
            self.dfa
                .simulate_factors(output.yet.trials(), seed ^ 0xDFA, &|n, task| {
                    par_map_collect(&self.pool, n, 1, task)
                })?
        };
        riskpipe_obs::counter_add("stage3.dfa_factor_builds", 1);
        Ok(ModelRun {
            output: Arc::new(output),
            join,
            dfa_factors,
        })
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

        // Materialise the YELT for the first book under the configured
        // store (the drill-down table; at scale this is the artifact
        // that decides memory vs files). Once persisted only its size
        // is reported, so it is dropped before stage 3 allocates —
        // concurrent scenarios' YELTs and DFA columns then never stack.
        let (yelt_rows, yelt_memory_bytes, yelt_file_bytes) = {
            let yelt = Yelt::from_yet_elt(&yet, &bundle.output.books[0].elt);
            let _persist_span = riskpipe_obs::span_key("stage2.persist_yelt", span_key);
            let file_bytes = self.store.persist_yelt(
                RunLabel {
                    scenario: &scenario.name,
                    slot,
                    run,
                },
                &yelt,
            )?;
            (yelt.rows(), yelt.memory_bytes() as u64, file_bytes)
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
        // weighted merge) all read the same two sorts.
        let agg_sorted = ylt.sorted_agg_losses();
        let occ_sorted = ylt.sorted_max_occ_losses();
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

/// The blocking iterator returned by [`RiskSession::stream`]: yields
/// `Ok(report)` per scenario in input order, or one final `Err` if the
/// sweep aborted. Dropping it early cancels the rest of the sweep.
#[derive(Debug)]
pub struct ReportStream {
    rx: Option<std::sync::mpsc::Receiver<RiskResult<PipelineReport>>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Iterator for ReportStream {
    type Item = RiskResult<PipelineReport>;

    fn next(&mut self) -> Option<Self::Item> {
        self.rx.as_ref().and_then(|rx| rx.recv().ok())
    }
}

impl Drop for ReportStream {
    fn drop(&mut self) {
        // Closing the channel makes the producer's next send fail,
        // which aborts the sweep; then reap the worker thread.
        self.rx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
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
    /// YELT in-memory footprint.
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
    /// The paper-scale sizing block for context in reports.
    pub fn paper_scale_context() -> ScaleSpec {
        ScaleSpec::paper_example()
    }

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
mod tests {
    use super::*;

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
        // Clearing drops contents but keeps cumulative counters.
        session.clear_stage1_cache();
        assert_eq!(session.stage1_cache_stats().entries, 0);
        let c = session.run(&scenario).unwrap();
        assert_eq!(c.ylt, a.ylt);
        assert_eq!(session.stage1_cache_stats().misses, 2);
    }

    #[test]
    fn cache_capacity_bounds_entries() {
        let session = RiskSession::builder()
            .pool_threads(2)
            .stage1_cache_capacity(2)
            .build()
            .unwrap();
        for seed in 50..54 {
            session
                .run(&ScenarioConfig::small().with_seed(seed).with_trials(200))
                .unwrap();
        }
        let stats = session.stage1_cache_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        assert!(stats.bytes > 0);
        assert_eq!(stats.builds, 4);
    }

    #[test]
    fn cache_eviction_is_lru_not_fifo() {
        // Access pattern A B A C B with capacity 2. LRU: the A re-access
        // makes B least-recent, so C evicts B and the final B misses
        // (4 misses, 1 hit). FIFO would have evicted A and served the
        // final B from cache (3 misses, 2 hits).
        let session = RiskSession::builder()
            .pool_threads(2)
            .stage1_cache_capacity(2)
            .build()
            .unwrap();
        let scenario = |seed| ScenarioConfig::small().with_seed(seed).with_trials(200);
        let (a, b, c) = (scenario(80), scenario(81), scenario(82));
        for s in [&a, &b, &a, &c, &b] {
            session.run(s).unwrap();
        }
        let stats = session.stage1_cache_stats();
        assert_eq!(stats.misses, 4, "LRU must evict B, not the touched A");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn cache_byte_budget_evicts_lru_but_keeps_latest() {
        // A 1-byte budget is smaller than any model run: after every
        // publish only the just-published entry survives.
        let session = RiskSession::builder()
            .pool_threads(2)
            .stage1_cache_bytes(1)
            .build()
            .unwrap();
        let scenario = |seed| ScenarioConfig::small().with_seed(seed).with_trials(200);
        session.run(&scenario(90)).unwrap();
        assert_eq!(session.stage1_cache_stats().entries, 1);
        session.run(&scenario(91)).unwrap();
        let stats = session.stage1_cache_stats();
        assert_eq!(stats.entries, 1, "budget must keep only the latest run");
        assert_eq!(stats.evictions, 1);
        // The latest run still serves hits.
        session.run(&scenario(91)).unwrap();
        assert_eq!(session.stage1_cache_stats().hits, 1);
    }

    #[test]
    fn cache_byte_budget_retains_what_fits() {
        // A generous budget changes nothing: both runs stay cached.
        let session = RiskSession::builder()
            .pool_threads(2)
            .stage1_cache_bytes(1 << 30)
            .build()
            .unwrap();
        let scenario = |seed| ScenarioConfig::small().with_seed(seed).with_trials(200);
        session.run(&scenario(94)).unwrap();
        session.run(&scenario(95)).unwrap();
        let stats = session.stage1_cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 0);
        assert!(stats.bytes > 0 && stats.bytes <= 1 << 30);
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
    fn disabled_cache_rebuilds_every_time() {
        let session = RiskSession::builder()
            .pool_threads(2)
            .stage1_cache_capacity(0)
            .build()
            .unwrap();
        let scenario = ScenarioConfig::small().with_seed(41).with_trials(300);
        let a = session.run(&scenario).unwrap();
        let b = session.run(&scenario).unwrap();
        assert_eq!(a.ylt, b.ylt);
        let stats = session.stage1_cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
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
    fn byte_budget_without_cache_rejected_at_build_time() {
        // Regression (builder validation): a stage-1 byte budget over a
        // disabled cache is a contradiction, not a configuration.
        for builder in [
            RiskSession::builder()
                .stage1_cache_capacity(0)
                .stage1_cache_bytes(1),
            // Order must not matter.
            RiskSession::builder()
                .stage1_cache_bytes(1 << 20)
                .stage1_cache_capacity(0),
        ] {
            let err = builder.build();
            assert!(err.is_err());
            let msg = format!("{}", err.err().unwrap());
            assert!(msg.contains("byte budget"), "{msg}");
        }
        // The budget with the cache enabled stays valid.
        assert!(RiskSession::builder()
            .stage1_cache_bytes(1 << 20)
            .pool_threads(1)
            .build()
            .is_ok());
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
            fn persist_yelt(&self, _label: RunLabel<'_>, yelt: &Yelt) -> RiskResult<u64> {
                self.rows.fetch_add(yelt.rows() as u64, Ordering::Relaxed);
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
