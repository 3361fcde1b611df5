//! The stage-1 cache: a session's keyed store of model runs, the join of
//! their books and their DFA factor block, with LRU eviction in RAM and
//! an optional write-through disk tier.

use crate::stage1disk::DiskStage1Cache;
use riskpipe_aggregate::{EventJoin, SecondaryTable};
use riskpipe_catmodel::{EltGenCounts, Stage1Output};
use riskpipe_dfa::DfaFactors;
use riskpipe_exec::lockwitness::Mutex;
use riskpipe_types::{RiskError, RiskResult};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Distinct stage-1 model runs a session retains in RAM, least recently
/// used evicted first.
pub(crate) const DEFAULT_STAGE1_CACHE_CAPACITY: usize = 8;

/// Hit/miss counters for a session's stage-1 cache — exposed for
/// observability (how much model-run work a sweep actually shared) and
/// for tests pinning "stage 1 built exactly once per distinct key".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stage1CacheStats {
    /// Lookups served from a cached [`Stage1Output`].
    pub hits: u64,
    /// Lookups the RAM cache could not serve: served by the disk tier
    /// or built.
    pub misses: u64,
    /// Entries displaced by the LRU capacity bound.
    pub evictions: u64,
    /// Distinct keys currently retained.
    pub entries: usize,
    /// Estimated bytes currently retained (observability only; nothing
    /// bounds it but the entry count). Each
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
    /// ([`RiskSessionBuilder::stage1_disk_cache`](crate::RiskSessionBuilder::stage1_disk_cache)) instead of a build.
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
pub(crate) struct ModelRun {
    pub(crate) output: Arc<Stage1Output>,
    /// The books joined in book order — the table the engines read.
    pub(crate) join: EventJoin,
    /// Stage 3's seven factor columns, Iman–Conover already applied;
    /// a scenario only runs the accounting identity over them.
    pub(crate) dfa_factors: DfaFactors,
}

impl ModelRun {
    /// What the entry is charged in [`Stage1CacheStats::bytes`].
    fn memory_bytes(&self) -> usize {
        self.output.memory_bytes() + self.join.memory_bytes() + self.dfa_factors.memory_bytes()
    }
}

/// A model run as a RAM miss obtained it, before anything is derived
/// from it: freshly built, or decoded from the disk tier together with
/// whatever grids its entry carried.
pub(crate) struct Acquired {
    pub(crate) output: Stage1Output,
    /// One secondary table per book, adopted from the disk entry's grid
    /// frames; empty after a build, and when the entry carried none.
    pub(crate) grids: Vec<SecondaryTable>,
    /// Whether the disk tier already holds an entry for the key (a disk
    /// hit). A build still has to be written through.
    pub(crate) on_disk: bool,
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
    /// readable without the state lock so summing them under the index
    /// lock never orders against a slot lock.
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
/// executes. Keys come from [`ScenarioConfig::stage1_key`](crate::ScenarioConfig::stage1_key) — a stable
/// fingerprint of the generating configs — so a sweep that varies only
/// pricing terms (or report names) regenerates nothing. Eviction is
/// LRU over [`DEFAULT_STAGE1_CACHE_CAPACITY`] entries.
pub(crate) struct Stage1Cache {
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
    pub(crate) fn new(disk: Option<DiskStage1Cache>) -> Self {
        Self {
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

    /// Whether `key` has a completed build ready to serve.
    pub(crate) fn is_ready(&self, key: u64) -> bool {
        let slot = match self.index.lock().map.get(&key) {
            Some(slot) => Arc::clone(slot),
            None => return false,
        };
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
    /// finishes first publishes. [`RiskSession::run_stream`](crate::RiskSession::run_stream) holds back
    /// same-key followers until the key's first scenario deposits, so
    /// within one streaming/batch call the redundant path never fires
    /// and stage 1 — `derive` included — runs exactly once per distinct
    /// key.
    pub(crate) fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> RiskResult<(Stage1Output, EltGenCounts)>,
        derive: impl FnOnce(Acquired) -> RiskResult<ModelRun>,
    ) -> RiskResult<Arc<ModelRun>> {
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
                while index.len() >= DEFAULT_STAGE1_CACHE_CAPACITY {
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
    pub(crate) fn disk_store(
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

    pub(crate) fn stats(&self) -> Stage1CacheStats {
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
}
