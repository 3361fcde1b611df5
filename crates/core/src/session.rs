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

use crate::config::ScenarioConfig;
use crate::report::PipelineReport;
use crate::stage1cache::{ModelRun, Stage1Cache, Stage1CacheStats};
use crate::stage1disk::DiskStage1Cache;
use crate::store::{InMemoryStore, IntermediateStore, RunLabel};
use riskpipe_aggregate::{
    AggregateEngine, AggregateOptions, AggregateRunner, EngineKind, Portfolio,
};
use riskpipe_dfa::{CompanyConfig, DfaEngine};
use riskpipe_exec::ThreadPool;
use riskpipe_metrics::RiskMeasures;
use riskpipe_tables::{codec, Yelt, Ylt};
use riskpipe_types::stats::quantile_sorted;
use riskpipe_types::{RiskError, RiskResult, RunningStats};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// silently "fixed" at run time (the [`ShardedFilesStore::new`](crate::ShardedFilesStore::new)
    /// zero-shards precedent), and so is a company that fails
    /// [`CompanyConfig::validate`] — a non-finite field would otherwise
    /// surface as a silent number in every report's DFA figures.
    pub fn build(self) -> RiskResult<RiskSession> {
        if let PoolChoice::Sized(0) = self.pool {
            return Err(RiskError::invalid(
                "session pool needs at least one thread (pool_threads(0))",
            ));
        }
        self.company.validate()?;
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
    pub(crate) stage1: Stage1Cache,
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
        let scanned = self.scan_group(std::slice::from_ref(scenario), 0, &model);
        let ylt = scanned
            .into_iter()
            .next()
            .ok_or_else(|| RiskError::InvalidState("a group of one scanned nothing".into()))??;
        self.finish_scenario(scenario, None, run, &model, ylt)
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

    pub(crate) fn next_run_id(&self) -> u64 {
        self.runs.fetch_add(1, Ordering::Relaxed)
    }

    /// Stage 1 for one scenario, through the keyed cache: the model run's
    /// YET and ELTs, the join of its books and the DFA factor block are
    /// built or reused under `key` — the caller's precomputed
    /// [`ScenarioConfig::stage1_key`]. On a hit this is microseconds.
    pub(crate) fn acquire_stage1(
        &self,
        key: u64,
        scenario: &ScenarioConfig,
    ) -> RiskResult<Arc<ModelRun>> {
        let _span = riskpipe_obs::span_key("stage1.acquire", key);
        self.stage1.get_or_build(key, || {
            self.stage1
                .build_model_run(key, scenario, &self.dfa, self.runner.options(), &self.pool)
        })
    }

    /// Stage 2 for a group of scenarios over one acquired model run:
    /// each member's portfolio over the entry's ELTs
    /// ([`ScenarioConfig::portfolio_over`]), then **one** scan of the
    /// trials pricing every member whose terms are good
    /// ([`AggregateEngine::run_group`]) — the join lookup, the grid cell
    /// and the interpolation of every hit are paid once for the group.
    /// Entry `i` is member `i`'s YLT, or its error. The
    /// `stage2.engine` span is the scan's, keyed by `span_key` (the
    /// group's first sweep slot when streaming, 0 for single runs).
    pub(crate) fn scan_group(
        &self,
        scenarios: &[ScenarioConfig],
        span_key: u64,
        model: &ModelRun,
    ) -> Vec<RiskResult<Ylt>> {
        let portfolios: Vec<RiskResult<Portfolio>> = scenarios
            .iter()
            .map(|s| s.portfolio_over(&model.elts))
            .collect();
        let priced: Vec<&Portfolio> = portfolios.iter().flatten().collect();
        let scan = if priced.is_empty() {
            Ok(Vec::new())
        } else {
            let _engine_span = riskpipe_obs::span_key("stage2.engine", span_key);
            riskpipe_obs::counter_add("stage2.scans", 1);
            self.runner.run_group(&priced, &model.yet, &model.join)
        };
        // A failed scan's error goes to the first member it priced: a
        // sweep never delivers past it.
        let (mut ylts, mut error) = match scan {
            Ok(ylts) => (ylts.into_iter(), None),
            Err(e) => (Vec::new().into_iter(), Some(e)),
        };
        portfolios
            .into_iter()
            .map(|portfolio| {
                portfolio?;
                match ylts.next() {
                    Some(ylt) => Ok(ylt),
                    None => Err(error.take().unwrap_or_else(|| {
                        RiskError::InvalidState("the group's scan priced no YLT".into())
                    })),
                }
            })
            .collect()
    }

    /// The rest of one scenario's pipeline once its group's scan has
    /// priced its YLT: the YELT hand-off, stage 3 and the report.
    pub(crate) fn finish_scenario(
        &self,
        scenario: &ScenarioConfig,
        slot: Option<usize>,
        run: u64,
        model: &ModelRun,
        ylt: Ylt,
    ) -> RiskResult<PipelineReport> {
        // Span keys: the sweep slot when streaming, 0 for single runs.
        let span_key = slot.map_or(0, |s| s as u64);
        let yet = &model.yet;

        // The first book's YELT (the drill-down table; at scale this is
        // the artifact that decides memory vs files) goes to the store
        // as the join it is — a files store streams it, an in-memory
        // one keeps nothing — and the report only carries its size,
        // counted once per key, so no scenario ever holds the table.
        let yelt_rows = model.yelt_rows;
        let yelt_memory_bytes = Yelt::memory_bytes_for(yet.trials(), yelt_rows) as u64;
        let yelt_file_bytes = {
            let _persist_span = riskpipe_obs::span_key("stage2.persist_yelt", span_key);
            self.store
                .persist_yelt(RunLabel { slot, run }, yet, &model.elts[0])?
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
            elt_rows: model.elts.iter().map(|elt| elt.len()).sum(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1cache::DEFAULT_STAGE1_CACHE_CAPACITY;

    #[test]
    fn builder_defaults() {
        let session = RiskSession::with_defaults().unwrap();
        assert_eq!(session.engine(), EngineKind::CpuParallel);
        assert_eq!(session.store_name(), "in-memory");
        assert!(session.pool().thread_count() >= 1);
        assert_eq!(session.stage1_cache_stats(), Stage1CacheStats::default());
        let sized = RiskSession::builder().pool_threads(3).build().unwrap();
        assert_eq!(sized.pool().thread_count(), 3);
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
    fn invalid_company_rejected_at_build_time() {
        // Every field's rule lives in `CompanyConfig::validate` (tested
        // field by field in riskpipe-dfa); the builder applies it.
        let mut company = CompanyConfig::typical();
        company.initial_capital = f64::NAN;
        let err = RiskSession::builder().company(company).build().unwrap_err();
        assert!(err.to_string().contains("initial_capital"), "{err}");
        let mut company = CompanyConfig::typical();
        company.reserves = -1.0;
        assert!(RiskSession::builder().company(company).build().is_err());
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
    fn failed_stage1_build_evicts_nothing() {
        // A build publishes only when it succeeds, so one that fails at
        // a full cache neither evicts a good entry nor leaves a dead one.
        let session = RiskSession::builder().pool_threads(2).build().unwrap();
        let k = |i: u64| ScenarioConfig::small().with_seed(120 + i).with_trials(200);
        let cap = DEFAULT_STAGE1_CACHE_CAPACITY as u64;
        for i in 0..cap {
            session.run(&k(i)).unwrap();
        }
        let full = session.stage1_cache_stats();
        assert_eq!(full.entries, DEFAULT_STAGE1_CACHE_CAPACITY);
        // Zero trials fails the scenario's validation inside the build.
        assert!(session
            .run(&ScenarioConfig::small().with_trials(0))
            .is_err());
        let failed = session.stage1_cache_stats();
        assert_eq!(failed.entries, full.entries);
        assert_eq!(failed.evictions, full.evictions);
        assert_eq!(failed.bytes, full.bytes);
        // The least recently used key survived: re-running it is a hit.
        session.run(&k(0)).unwrap();
        let rerun = session.stage1_cache_stats();
        assert_eq!(rerun.hits, full.hits + 1);
        assert_eq!(rerun.builds, full.builds);
    }

    #[test]
    fn racing_runs_of_one_key_publish_one_entry() {
        // Plain `run` calls have no leader gate: misses on one key that
        // overlap each build, and the first to publish keeps the entry.
        let session = RiskSession::builder().pool_threads(2).build().unwrap();
        let scenario = ScenarioConfig::small().with_seed(130).with_trials(300);
        // Released together, so the lookups overlap the first build.
        let start = std::sync::Barrier::new(4);
        let ylts: Vec<Vec<u8>> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        codec::encode(&session.run(&scenario).unwrap().ylt)
                    })
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        assert!(ylts.iter().all(|bits| *bits == ylts[0]));
        let stats = session.stage1_cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits + stats.misses, 4);
        assert_eq!(stats.builds, stats.misses);
    }
}
