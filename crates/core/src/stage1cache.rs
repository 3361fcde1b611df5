//! The stage-1 cache: a session's keyed store of what stages 2 and 3
//! read of each model run — its YET and its books' ELTs — with the join
//! of the books and the DFA factor block, LRU eviction in RAM and an
//! optional write-through disk tier; and the functions that build a run
//! on a miss, each taking only its declared inputs.
//!
//! The cache is one lock over published entries. A lookup that finds
//! its key serves the entry; one that does not builds the whole run
//! with no lock held, then publishes it, evicting the least recently
//! used entry if the cache is full. Nothing is inserted before a build
//! succeeds, so a failed build leaves the cache exactly as it found it.
//! Concurrent misses on one key each build (builds are pure functions of
//! the key); the first to publish keeps the entry.

use crate::config::ScenarioConfig;
use crate::stage1disk::{DiskStage1Cache, TierEntry};
use riskpipe_aggregate::{build_secondary, AggregateOptions, EventJoin, SecondaryTable};
use riskpipe_catmodel::EltGenCounts;
use riskpipe_dfa::{DfaEngine, DfaFactors};
use riskpipe_exec::lockwitness::Mutex;
use riskpipe_exec::{par_chunks_mut, par_reduce, suggest_grain, ThreadPool};
use riskpipe_tables::{Elt, YearEventTable};
use riskpipe_types::{RiskError, RiskResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinct stage-1 model runs a session retains in RAM, least recently
/// used evicted first.
pub(crate) const DEFAULT_STAGE1_CACHE_CAPACITY: usize = 8;

/// Hit/miss counters for a session's stage-1 cache — exposed for
/// observability (how much model-run work a sweep actually shared) and
/// for tests pinning "stage 1 built exactly once per distinct key".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stage1CacheStats {
    /// Lookups served from a published entry. A streaming
    /// group's followers count one each: the entry their group acquired
    /// serves them.
    pub hits: u64,
    /// Lookups the RAM cache could not serve: served by the disk tier
    /// or built.
    pub misses: u64,
    /// Entries displaced by the LRU capacity bound.
    pub evictions: u64,
    /// Published entries currently retained, one per distinct key. A
    /// build in progress — or one that failed — holds no entry.
    pub entries: usize,
    /// Estimated bytes currently retained (observability only; nothing
    /// bounds it but the entry count). Each entry is charged what it
    /// keeps: the YET's [`YearEventTable::memory_bytes`], each book's
    /// [`Elt::memory_bytes`], the [`EventJoin::memory_bytes`] of the
    /// join of its books (quantile grids included when the session's
    /// options switch secondary uncertainty on) and the
    /// [`DfaFactors::memory_bytes`] of its stage-3 factor block
    /// (7 × 8 B × trials). The catalogue and the exposures are not
    /// kept, so not charged; a key built in this session and one
    /// loaded from the disk tier are charged the same.
    pub bytes: u64,
    /// Stage-1 model runs actually built: a RAM miss the disk tier also
    /// missed. Racer builds count too — two misses on one key that
    /// overlap both build, and only the first to publish is kept. With a
    /// warm disk tier this stays at zero — the number the "cold process
    /// replays a sweep with zero rebuilds" guarantee pins.
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

/// What one cache entry holds: the parts of a stage-1 model run that
/// stages 2 and 3 read — the YET and the books' ELTs — plus everything
/// they derive from it that no scenario's terms can change: the
/// event-major join of the books, a pure function of the ELTs and the
/// session's fixed [`AggregateOptions`], and the DFA factor block, a
/// pure function of the key's seed and trial count and the session's
/// fixed company. The catalogue and the books' exposures are not kept:
/// nothing after stage 1 reads them, so a build drops them as soon as
/// stage 1 returns, and the disk tier never stores them. Built once per
/// key by [`Stage1Cache::build_model_run`], `Arc`-shared with every
/// scenario of the key.
pub(crate) struct ModelRun {
    /// The pre-simulated YET every scenario of the key scans.
    pub(crate) yet: Arc<YearEventTable>,
    /// The books' ELTs in book order: each scenario layers its terms
    /// over them ([`ScenarioConfig::portfolio_over`]).
    pub(crate) elts: Vec<Arc<Elt>>,
    /// The books joined in book order — the table the engines read.
    pub(crate) join: EventJoin,
    /// Rows of the first book's YELT (the YET joined with book 0's
    /// ELT): every scenario's report carries it, and no scenario's
    /// terms can change it. A count — the table itself is never built.
    pub(crate) yelt_rows: usize,
    /// Stage 3's seven factor columns, Iman–Conover already applied;
    /// a scenario only runs the accounting identity over them.
    pub(crate) dfa_factors: DfaFactors,
}

impl ModelRun {
    /// What the entry is charged in [`Stage1CacheStats::bytes`]: the
    /// four tables it keeps.
    fn memory_bytes(&self) -> usize {
        self.yet.memory_bytes()
            + self
                .elts
                .iter()
                .map(|elt| elt.memory_bytes())
                .sum::<usize>()
            + self.join.memory_bytes()
            + self.dfa_factors.memory_bytes()
    }
}

/// What [`Stage1Cache::derive_model_run`] keeps of a model run for its
/// entry: the YET, the books' ELTs in book order, the join and the YELT
/// row count.
type Derived = (Arc<YearEventTable>, Vec<Arc<Elt>>, EventJoin, usize);

/// A model run as a RAM miss obtained it, before anything is derived
/// from it: decoded from the disk tier together with whatever grids its
/// entry carried, or freshly built (no grids) — the same shape either
/// way, with no catalogue or exposure.
struct Acquired {
    entry: TierEntry,
    /// Whether the disk tier already holds an entry for the key (a disk
    /// hit). A build still has to be written through.
    on_disk: bool,
}

/// A keyed cache of what stages 2 and 3 read of each stage-1 model run
/// — its YET and its books' ELTs — with the join of the books and the
/// DFA factor block ([`ModelRun`]), shared across every scenario a
/// session executes. Keys come from [`ScenarioConfig::stage1_key`] — a
/// stable fingerprint of the generating configs — so a sweep that
/// varies only pricing terms (or report names) regenerates nothing.
/// Eviction is LRU over [`DEFAULT_STAGE1_CACHE_CAPACITY`] entries.
pub(crate) struct Stage1Cache {
    /// Optional durable tier consulted on RAM miss and written through
    /// on every build — survives the process and is shared across
    /// processes (see [`DiskStage1Cache`]).
    disk: Option<DiskStage1Cache>,
    /// The published entries — key, run and the bytes it is charged —
    /// in recency order, least recently used first. At most
    /// [`DEFAULT_STAGE1_CACHE_CAPACITY`] entries, so a lookup scans a
    /// handful of keys. The cache's only lock.
    index: Mutex<Vec<(u64, Arc<ModelRun>, usize)>>,
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
            index: Mutex::new("index", Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
        }
    }

    /// Whether `key` has a published entry ready to serve.
    pub(crate) fn is_ready(&self, key: u64) -> bool {
        self.index.lock().iter().any(|(k, ..)| *k == key)
    }

    /// Look up `key`; on a miss, run `miss` for the whole entry and
    /// publish the result. The session's `miss` is
    /// [`Stage1Cache::build_model_run`]. A miss holds no lock while
    /// `miss` runs, and only a successful run is published — inserted
    /// as the most recently used entry, evicting the least recently
    /// used one if the cache is full. A failed run publishes and evicts
    /// nothing, so a later request simply misses again and retries.
    ///
    /// This NEVER blocks on another request's build. Pipeline tasks run
    /// on pool workers whose nested scopes *steal and inline other
    /// pipeline tasks while they wait*; if a request could park until
    /// "someone else's build" finished, a builder that inlined a
    /// same-key task would block on its own stack (and two builders
    /// could deadlock on each other's keys). Instead a request that
    /// finds no entry builds — correct because builds are pure
    /// functions of the key — and whichever racer publishes first keeps
    /// the entry; a later racer returns its own (bit-identical) run.
    /// [`RiskSession::run_stream`](crate::RiskSession::run_stream)
    /// acquires once per group of same-key scenarios and holds back a
    /// later group of a key until the key's entry is published, so
    /// within one streaming/batch call no two requests race and stage 1
    /// — all of `miss` — runs exactly once per distinct key.
    pub(crate) fn get_or_build(
        &self,
        key: u64,
        miss: impl FnOnce() -> RiskResult<ModelRun>,
    ) -> RiskResult<Arc<ModelRun>> {
        let hit = {
            // lint: allow(C1) — index mutex covers lookup and LRU
            // bookkeeping only; builds never run under it, so the
            // critical section is a few vector operations and the wait
            // is bounded and deadlock-free.
            let mut index = self.index.lock();
            index.iter().position(|(k, ..)| *k == key).map(|i| {
                // A hit moves the key to the back: most recently used.
                let entry = index.remove(i);
                let run = Arc::clone(&entry.1);
                index.push(entry);
                run
            })
        };
        // Counted after the guard drops: the counter takes the
        // telemetry registry's lock, which must not nest under `index`.
        if let Some(run) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            riskpipe_obs::counter_add("stage1.hits", 1);
            return Ok(run);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        riskpipe_obs::counter_add("stage1.misses", 1);
        let run = Arc::new(miss()?);
        // Sized outside the lock: the footprint is a pure accessor.
        let bytes = run.memory_bytes();
        // lint: allow(C1) — publish after an unlocked load or build: a
        // scan and at most a few vector operations, no nested waits.
        let mut index = self.index.lock();
        if !index.iter().any(|(k, ..)| *k == key) {
            while index.len() >= DEFAULT_STAGE1_CACHE_CAPACITY {
                index.remove(0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            index.push((key, Arc::clone(&run), bytes));
        }
        Ok(run)
    }

    /// Count `n` scenarios served by an entry their group already
    /// acquired ([`RiskSession::run_stream`](crate::RiskSession::run_stream)'s
    /// same-key followers): one hit each, as each one's own lookup of
    /// the published entry would have been.
    pub(crate) fn count_followers(&self, n: u64) {
        if n > 0 {
            self.hits.fetch_add(n, Ordering::Relaxed);
            riskpipe_obs::counter_add("stage1.hits", n);
        }
    }

    /// A cache miss's whole entry, on both sides of one pool scope.
    /// Stage 3's factor block has declared inputs — the scenario's trial
    /// count and seed (both fingerprinted by `key`) and the session's
    /// `dfa` engine — and reads nothing stage 1 or 2 produce, so it runs
    /// as its own pool task ([`simulate_dfa_factors`]) alongside the
    /// chain on this thread: the model run loaded or built
    /// ([`Stage1Cache::load_or_build`]), then
    /// [`Stage1Cache::derive_model_run`]. The task writes into a
    /// scope-captured slot, no lock; the scope joins it before anything
    /// is published, and its trial count is checked against the YET's.
    /// A chain error wins over a factor error, as when the block was the
    /// chain's last step.
    pub(crate) fn build_model_run(
        &self,
        key: u64,
        scenario: &ScenarioConfig,
        dfa: &DfaEngine,
        options: &AggregateOptions,
        pool: &ThreadPool,
    ) -> RiskResult<ModelRun> {
        let mut dfa_factors = None;
        // lint: allow(C1) — a waiting scope caller runs queued tasks
        // (`ThreadPool::scope`), so a leader on a 1-worker pool runs the
        // factor task itself instead of parking on it.
        let chain = pool.scope(|s| {
            s.spawn(|| {
                dfa_factors = Some(simulate_dfa_factors(
                    key,
                    scenario.trials,
                    scenario.seed,
                    dfa,
                    pool,
                ));
            });
            self.load_or_build(key, || scenario.build_elts_and_yet_on(pool))
                .and_then(|acquired| self.derive_model_run(key, acquired, options, pool))
        });
        let (yet, elts, join, yelt_rows) = chain?;
        let dfa_factors = dfa_factors
            .ok_or_else(|| RiskError::InvalidState("the DFA factor task never ran".into()))??;
        if dfa_factors.trials() != yet.trials() {
            return Err(RiskError::InvalidState(format!(
                "DFA factor block holds {} trials but the YET has {}",
                dfa_factors.trials(),
                yet.trials()
            )));
        }
        Ok(ModelRun {
            yet,
            elts,
            join,
            yelt_rows,
            dfa_factors,
        })
    }

    /// RAM missed: a complete disk entry serves `key` without a build
    /// (bit-identical — stage 1 is a pure function of the key, and the
    /// codec round trip is exact); otherwise build it. The session's
    /// `build` ([`ScenarioConfig::build_elts_and_yet_on`]) runs the
    /// books one at a time and returns only the ELTs and the YET: each
    /// book's exposure and location index drop as soon as its ELT
    /// exists, and the catalogue when stage 1 returns, so a cold key
    /// never holds more than one book's exposure, and a disk hit none.
    fn load_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> RiskResult<(Vec<Elt>, YearEventTable, EltGenCounts)>,
    ) -> RiskResult<Acquired> {
        if let Some(entry) = self.disk_load(key)? {
            return Ok(Acquired {
                entry,
                on_disk: true,
            });
        }
        let (elts, yet) = self.timed_build(key, build)?;
        let entry = TierEntry {
            yet: Arc::new(yet),
            elts: elts.into_iter().map(Arc::new).collect(),
            grids: Vec::new(),
        };
        Ok(Acquired {
            entry,
            on_disk: false,
        })
    }

    /// The stage-2 half of a cache entry: the per-book secondary tables
    /// — adopted from the disk entry when it carried the grids `options`
    /// tabulate, built on `pool` otherwise — joined into the one table
    /// every scenario sharing `key` reads. Before the join sits the disk
    /// write-through: a fresh build is stored with its grids, and a disk
    /// hit whose entry lacked them (written with secondary uncertainty
    /// off, under another grid size, or before the tier carried grids)
    /// is rewritten with them, so the next process adopts instead of
    /// inverting. The first book's YELT row count follows the join — a
    /// count, not a table: no store needs the YELT built, and the count
    /// depends on the YET and book 0's ELT only. The tables depend on
    /// the ELTs and the session's options only, so the cache key needs
    /// nothing added. What returns is the YET, the ELTs in book order,
    /// the join and the count.
    fn derive_model_run(
        &self,
        key: u64,
        acquired: Acquired,
        options: &AggregateOptions,
        pool: &ThreadPool,
    ) -> RiskResult<Derived> {
        let Acquired {
            entry: TierEntry { yet, elts, grids },
            on_disk,
        } = acquired;
        let books = || elts.iter().map(|elt| &**elt);
        // The grid size the session tabulates, if it tabulates one.
        let grid_points = options
            .secondary_uncertainty
            .then(|| options.quantile_mode.grid_points())
            .flatten();
        let adopted = grid_points.is_some_and(|g| {
            !grids.is_empty() && grids.iter().all(|table| table.grid_points() == g)
        });
        let secondary = if adopted {
            Some(grids)
        } else {
            let _span = options
                .secondary_uncertainty
                .then(|| riskpipe_obs::span_key("stage2.secondary", key));
            let built = build_secondary(books(), options, pool);
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
            self.disk_store(key, &yet, &elts, secondary.as_deref().unwrap_or_default())?;
        }
        let join = {
            let _span = riskpipe_obs::span_key("stage2.join", key);
            EventJoin::build(books(), secondary)?
        };
        riskpipe_obs::counter_add("stage2.join_builds", 1);
        riskpipe_obs::counter_add("stage2.join_hits", join.hits() as u64);
        let yelt_rows = {
            let _span = riskpipe_obs::span_key("stage2.yelt_count", key);
            elts.first()
                .map_or(0, |elt| yelt_row_count(&yet, elt, pool))
        };
        riskpipe_obs::counter_add("stage2.yelt_counts", 1);
        Ok((yet, elts, join, yelt_rows))
    }

    /// Consult the disk tier for `key`. A corrupt or key-mismatched
    /// entry — a damaged grid frame included — self-heals: the bad file
    /// is removed and the lookup reports a miss, so the caller rebuilds
    /// and the write-through atomically replaces it.
    fn disk_load(&self, key: u64) -> RiskResult<Option<TierEntry>> {
        let Some(disk) = &self.disk else {
            return Ok(None);
        };
        match disk.load(key) {
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

    /// Write the model run `yet` + `elts` and its books' `tables` (their
    /// grids; empty for none) through to the disk tier, if attached.
    fn disk_store(
        &self,
        key: u64,
        yet: &YearEventTable,
        elts: &[Arc<Elt>],
        tables: &[SecondaryTable],
    ) -> RiskResult<()> {
        if let Some(disk) = &self.disk {
            disk.store_entry(key, yet, elts, tables)?;
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
        build: impl FnOnce() -> RiskResult<(Vec<Elt>, YearEventTable, EltGenCounts)>,
    ) -> RiskResult<(Vec<Elt>, YearEventTable)> {
        let _build_span = riskpipe_obs::span_key("stage1.build", key);
        let (elts, yet, elt) = build()?;
        self.builds.fetch_add(1, Ordering::Relaxed);
        riskpipe_obs::counter_add("stage1.builds", 1);
        riskpipe_obs::counter_add("stage1.elt_pairs", elt.pairs);
        riskpipe_obs::counter_add("stage1.elt_damaging", elt.damaging);
        Ok((elts, yet))
    }

    pub(crate) fn stats(&self) -> Stage1CacheStats {
        let (entries, bytes) = {
            let index = self.index.lock();
            let bytes = index.iter().map(|(.., bytes)| *bytes as u64);
            (index.len(), bytes.sum())
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

/// Stage 3's factor block for a key's `trials` and scenario `seed`,
/// from `dfa`'s company, its independent pieces each a task on `pool`.
/// Reads nothing stage 1 produces.
fn simulate_dfa_factors(
    key: u64,
    trials: usize,
    seed: u64,
    dfa: &DfaEngine,
    pool: &ThreadPool,
) -> RiskResult<DfaFactors> {
    let _span = riskpipe_obs::span_key("stage3.dfa_factors", key);
    let factors = dfa.simulate_factors(trials, seed ^ 0xDFA, &|slices, task| {
        par_chunks_mut(pool, slices, 1, |i, slice| task(i, slice[0]))
    })?;
    riskpipe_obs::counter_add("stage3.dfa_factor_builds", 1);
    Ok(factors)
}

/// Rows of the YELT joining `yet` with `elt` — the occurrences whose
/// event has a row in the ELT, what `Yelt::from_yet_elt(yet, elt).rows()`
/// counts — as a parallel integer reduce over the YET's event column.
/// Membership is a dense mask over event ids up to the ELT's largest,
/// built once from the ELT's event column, so an occurrence costs one
/// indexed load, not a hash probe; an id past the mask is in no row.
fn yelt_row_count(yet: &YearEventTable, elt: &Elt, pool: &ThreadPool) -> usize {
    let ids = elt.columns().0;
    let mut in_elt = vec![false; ids.iter().max().map_or(0, |&e| e as usize + 1)];
    for &e in ids {
        in_elt[e as usize] = true;
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

#[cfg(test)]
mod tests {
    use crate::{RiskSession, ScenarioConfig};
    use riskpipe_aggregate::AggregateOptions;
    use riskpipe_catmodel::ExposureLocation;
    use riskpipe_exec::ThreadPool;
    use riskpipe_tables::codec::{self, QuantileGrid, TierHeader};
    use riskpipe_types::RiskResult;
    use std::path::Path;
    use std::sync::Arc;

    /// Exposure-heavy, as the benchmark's cold keys are: the books'
    /// locations far outweigh their ELTs.
    fn exposure_heavy() -> ScenarioConfig {
        ScenarioConfig {
            events: 500,
            contracts: 2,
            locations_per_contract: 10_000,
            trials: 200,
            ..ScenarioConfig::small()
        }
    }

    /// A session over the tier at `dir`.
    fn tiered(dir: &Path) -> RiskResult<RiskSession> {
        RiskSession::builder()
            .pool_threads(2)
            .stage1_disk_cache(dir)
            .build()
    }

    #[test]
    fn an_entry_is_charged_what_it_keeps_whether_built_or_loaded() -> RiskResult<()> {
        let dir = std::env::temp_dir().join(format!("riskpipe-s1charge-{}", std::process::id()));
        let scenario = exposure_heavy();
        // One run's stats, and the join and factor-block bytes of the
        // entry it published.
        let charge = || -> RiskResult<_> {
            let session = tiered(&dir)?;
            session.run(&scenario)?;
            let run = Arc::clone(&session.stage1.index.lock()[0].1);
            Ok((
                session.stage1_cache_stats(),
                run.join.memory_bytes() + run.dfa_factors.memory_bytes(),
            ))
        };
        let (built, derived) = charge()?;
        let (warm, _) = charge()?;
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!((built.builds, built.disk_writes), (1, 1));
        assert_eq!((warm.builds, warm.disk_hits, warm.disk_writes), (0, 1, 0));
        assert_eq!(
            warm.bytes, built.bytes,
            "a disk hit must be charged as a build"
        );

        // The charge is the YET, the ELTs, the join and the factor block.
        let output = scenario.build_stage1_output_on(&ThreadPool::new(2))?;
        let elts: usize = output
            .books
            .iter()
            .map(|book| book.elt.memory_bytes())
            .sum();
        let charged = built.bytes as usize;
        assert_eq!(charged, output.yet.memory_bytes() + elts + derived);
        // Beside the same join and factor block, the whole output would
        // be charged more by at least its exposures.
        let exposures: usize = output
            .books
            .iter()
            .map(|book| book.exposure.len() * std::mem::size_of::<ExposureLocation>())
            .sum();
        assert!(
            charged + exposures <= output.memory_bytes() + derived,
            "charged {charged} B, exposures {exposures} B, whole output {} B",
            output.memory_bytes()
        );
        Ok(())
    }

    #[test]
    fn a_tier_entry_is_the_model_run_and_its_grids_with_no_exposure_byte() -> RiskResult<()> {
        let dir = std::env::temp_dir().join(format!("riskpipe-s1entry-{}", std::process::id()));
        let scenario = exposure_heavy();
        tiered(&dir)?.run(&scenario)?;
        let entry = std::fs::read(dir.join(format!("stage1-{:016x}.rps", scenario.stage1_key())));
        std::fs::remove_dir_all(&dir).ok();

        // Each part's length from the codec's own encoding of it.
        let output = scenario.build_stage1_output_on(&ThreadPool::new(2))?;
        let g = AggregateOptions::default().quantile_mode.grid_points();
        let header = TierHeader {
            key: scenario.stage1_key(),
            books: output.books.len() as u64,
            trials: output.yet.trials() as u64,
        };
        let mut want = codec::encode(&header).len() + codec::encode(&*output.yet).len();
        for book in &output.books {
            let rows = book.elt.len();
            let grid = g.map(|g| QuantileGrid {
                rows,
                g,
                cells: vec![0.5; rows * g],
            });
            want += codec::encode(&*book.elt).len() + grid.map_or(0, |q| codec::encode(&q).len());
        }
        assert_eq!(entry?.len(), want);
        // The exposures alone would outweigh the whole entry.
        let exposures: usize = output
            .books
            .iter()
            .map(|book| book.exposure.len() * std::mem::size_of::<ExposureLocation>())
            .sum();
        assert!(
            exposures > want,
            "{exposures} B of exposures, {want} B entry"
        );
        Ok(())
    }
}
