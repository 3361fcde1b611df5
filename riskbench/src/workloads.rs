//! The five workloads: what each builds from the seed, what one timed
//! rep does, and what it checks. The product sees only the generated
//! `ScenarioConfig`s; nothing here depends on which workload a later
//! optimisation is aimed at.
//!
//! All reps are closed-loop on one driver thread. Pool width is
//! passed explicitly ([`Env::threads`]) and the warehouse sink shares
//! that pool, so a rep never runs more threads than the machine has.

use crate::machine::ScratchRoot;
use riskpipe_aggregate::EngineKind;
use riskpipe_analytics::{
    Drilldown, DrilldownLayout, ScenarioDims, SessionAnalytics, WarehouseSink,
};
use riskpipe_core::{
    FanoutSink, PersistingSink, PipelineReport, ReportSink, RiskSession, ScenarioConfig,
    ShardedFilesStore, Stage1CacheStats, SweepSummary,
};
use riskpipe_exec::ThreadPool;
use riskpipe_obs::Telemetry;
use riskpipe_types::{RiskError, RiskResult};
use riskpipe_warehouse::{dim, Filter, LevelSelect, Query, SketchCuboid};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One stage-1 key, many attachment points.
    PriceSweep,
    /// Trials far outnumber ELT rows.
    DeepTrials,
    /// Every scenario has its own stage-1 key; disk tier written then read.
    ColdModels,
    /// Stage 2 bypassed: kept reports replayed into the three-consumer sink stack.
    SpillReplay,
    /// The read side: rebuild from a sealed spill, materialise, query.
    RebuildQuery,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 5] = [
        Kind::PriceSweep,
        Kind::DeepTrials,
        Kind::ColdModels,
        Kind::SpillReplay,
        Kind::RebuildQuery,
    ];

    /// The workload's fixed name (later issues cite it).
    pub fn name(self) -> &'static str {
        match self {
            Kind::PriceSweep => "price_sweep",
            Kind::DeepTrials => "deep_trials",
            Kind::ColdModels => "cold_models",
            Kind::SpillReplay => "spill_replay",
            Kind::RebuildQuery => "rebuild_query",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the
    /// same text).
    pub fn why(self) -> &'static str {
        match self {
            Kind::PriceSweep => {
                "8 attachment points over one stage-1 key: per-scenario fixed work \
                 (secondary tables, probes over a shared YET) and the cache-hit path dominate"
            }
            Kind::DeepTrials => {
                "trials far outnumber ELT rows: the compute_trial kernel, YLT sort, YELT \
                 build and DFA dominate, fixed costs fade, and the sketched summary path runs"
            }
            Kind::ColdModels => {
                "4 distinct stage-1 keys, nothing shared: catalogue and ELT builds, stage-1 \
                 encode and durable write, then a second session decoding the warm disk tier"
            }
            Kind::SpillReplay => {
                "stage 2 bypassed: kept reports replayed into summary, persisting and \
                 warehouse sinks, so the write side of stage 3 does all the work"
            }
            Kind::RebuildQuery => {
                "the read side of the same layers: rebuild the warehouse from a sealed \
                 spill, pick views under a byte budget, answer drill-down queries"
            }
        }
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    events: usize,
    contracts: usize,
    locations: usize,
    rate: f64,
    trials: usize,
    /// Attachment points (sweeps), distinct keys (`cold_models`), or
    /// attachment points per (region, peril) key (replay grid).
    points: usize,
    /// Regions × perils of the replay grid (1 × 1 elsewhere).
    regions: u32,
    perils: u32,
    /// Drill-down queries per rep (`rebuild_query`).
    queries: usize,
    /// Nominal ELT rows of `price_sweep`'s model run, summed over
    /// books (see [`pick_seed`]); 0 where no seed is picked.
    target_rows: usize,
}

impl Shape {
    fn of(kind: Kind, smoke: bool) -> Shape {
        let sweep = Shape {
            events: 1_000,
            contracts: 4,
            locations: 400,
            rate: 20.0,
            trials: 5_000,
            points: 8,
            regions: 1,
            perils: 1,
            queries: 0,
            target_rows: 1_650,
        };
        let grid = Shape {
            events: 500,
            contracts: 4,
            locations: 150,
            rate: 20.0,
            trials: 20_000,
            points: 3,
            regions: 2,
            perils: 2,
            queries: 6_000,
            target_rows: 0,
        };
        let full = match kind {
            Kind::PriceSweep => sweep,
            Kind::DeepTrials => Shape {
                events: 300,
                contracts: 16,
                locations: 100,
                trials: 100_000,
                points: 2,
                target_rows: 0,
                ..sweep
            },
            Kind::ColdModels => Shape {
                events: 500,
                locations: 12_000,
                trials: 500,
                points: 4,
                target_rows: 0,
                ..sweep
            },
            Kind::SpillReplay | Kind::RebuildQuery => grid,
        };
        if !smoke {
            return full;
        }
        // Smoke scale: every code path, seconds in a debug build.
        Shape {
            events: 300,
            contracts: full.contracts.min(2),
            locations: 40,
            trials: if kind == Kind::DeepTrials { 6_000 } else { 600 },
            points: full.points.min(3),
            queries: full.queries.min(40),
            target_rows: full.target_rows / 5,
            ..full
        }
    }
}

/// What a rep needs from its surroundings.
#[derive(Debug)]
pub struct Env<'a> {
    /// Pool width of every session and sink.
    pub threads: usize,
    /// Where spills, disk tiers and shuffle work directories go.
    pub scratch: &'a ScratchRoot,
    /// Tiny shapes (tests).
    pub smoke: bool,
    /// Armed in traced reps: attached to sessions through
    /// `RiskSessionBuilder::telemetry`, installed on the driver thread
    /// for the replay workloads (which run sinks without a session).
    pub telemetry: Option<Telemetry>,
}

impl<'a> Env<'a> {
    /// The same surroundings at another pool width or telemetry state.
    pub fn with(&self, threads: usize, telemetry: Option<Telemetry>) -> Env<'a> {
        Env {
            threads,
            scratch: self.scratch,
            smoke: self.smoke,
            telemetry,
        }
    }
}

/// SplitMix64: derives independent scenario seeds from the run seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn base_scenario(shape: &Shape, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        name: "base".into(),
        events: shape.events,
        annual_rate: shape.rate,
        contracts: shape.contracts,
        locations_per_contract: shape.locations,
        trials: shape.trials,
        seed,
        attachment_factor: 0.5,
    }
}

/// Seed-derived candidates [`pick_seed`] chooses among.
const SEED_CANDIDATES: u64 = 16;

/// The model seed of `price_sweep`.
///
/// Nearly all of that sweep's work is the secondary tables, whose cost
/// is proportional to the model run's ELT rows, and its memory follows
/// the first book's rows (the YELT is built from the first book). Both
/// depend on where a seed happens to put the books' exposure clusters
/// relative to the catalogue's events: 1 450 to 1 900 rows across
/// seeds at this shape, and a first book anywhere between a fifth and
/// a third of them. So that runs on different seeds measure the
/// program and not the draw, the seed used is the one of
/// [`SEED_CANDIDATES`] candidates derived from the run seed whose
/// model run comes closest to the nominal size — in total and in its
/// first book. Inputs stay a pure function of the run seed, and the
/// candidate model runs (one trial each) are part of `setup_s`.
fn pick_seed(shape: &Shape, seed: u64, threads: usize) -> RiskResult<u64> {
    let pool = ThreadPool::try_new(threads)?;
    let mut best: Option<(usize, u64)> = None;
    for c in 0..SEED_CANDIDATES {
        let candidate = mix(seed, 1 + c);
        let model = base_scenario(shape, candidate)
            .with_trials(1)
            .build_stage1_output_on(&pool)?;
        let rows: usize = model.books.iter().map(|b| b.elt.len()).sum();
        let first_book = model.books[0].elt.len() * model.books.len();
        let miss = rows.abs_diff(shape.target_rows) + first_book.abs_diff(shape.target_rows);
        if best.is_none_or(|(least, _)| miss < least) {
            best = Some((miss, candidate));
        }
    }
    Ok(best.expect("at least one candidate").1)
}

/// An attachment-factor sweep over one stage-1 key: only the name and
/// the attachment vary, so every point shares one model run.
fn attachment_sweep(base: &ScenarioConfig, points: usize) -> Vec<ScenarioConfig> {
    (0..points)
        .map(|i| {
            base.clone()
                .with_name(format!("attach-{i}"))
                .with_attachment_factor(0.25 + 0.2 * i as f64)
        })
        .collect()
}

/// The kept reports of a replay workload, and what replays them.
pub struct Replay {
    /// One report per grid scenario, sorted columns intact.
    pub reports: Vec<PipelineReport>,
    /// Work directory the warehouse sink spills per-report shards to.
    pub shuffle_dir: PathBuf,
    /// `rebuild_query` only: the sealed spill and the live reference.
    pub sealed: Option<Sealed>,
}

/// A sealed spill of the replay grid plus the warehouse the live sink
/// built from the same reports.
pub struct Sealed {
    /// The store holding run 0's persisted reports and manifest.
    pub store: ShardedFilesStore,
    /// Bytes the persisting sink wrote (frames, measures, manifest).
    pub bytes: u64,
    /// The live sink's warehouse: the rebuild must match it bit for bit.
    pub live: Drilldown,
}

/// Everything a workload's reps run against.
pub struct Fixture {
    /// Which workload this is.
    pub kind: Kind,
    /// The generated scenarios (sweeps run them; the replay workloads
    /// ran them once at set-up).
    pub scenarios: Vec<ScenarioConfig>,
    /// Drill-down coordinates of each scenario.
    pub layout: DrilldownLayout,
    /// Kept reports and friends (`spill_replay`, `rebuild_query`).
    pub replay: Option<Replay>,
    queries: usize,
}

/// View storage a warehouse may spend on materialised views: 0.7 of
/// its base cuboid. On every fixture here that fits the coarse rollup
/// views and not the finer ones, so queries are answered both from
/// views and by on-the-fly rollups of the base.
pub fn view_budget(warehouse: &Drilldown) -> u64 {
    warehouse.base().memory_bytes() as u64 * 7 / 10
}

/// The three e13 acceptance shapes plus the base-level select.
pub fn query_shapes() -> [Query; 4] {
    [
        Query::group_by(LevelSelect([0, 0, 3, 1])),
        Query::group_by(LevelSelect([0, 0, 1, 1])).filter(Filter::slice(dim::GEO, 1)),
        Query::group_by(LevelSelect([0, 0, 3, 0])).filter(Filter {
            dim: dim::TIME,
            codes: vec![6, 7],
        }),
        Query::group_by(LevelSelect([0, 0, 0, 0])),
    ]
}

/// Run `scenarios` once and keep the reports. A closure sink owns each
/// report outright, so the sorted columns the sinks fold stay intact.
pub fn capture_reports(
    env: &Env<'_>,
    scenarios: &[ScenarioConfig],
) -> RiskResult<Vec<PipelineReport>> {
    let session = RiskSession::builder().pool_threads(env.threads).build()?;
    let mut reports = Vec::with_capacity(scenarios.len());
    session.run_stream(scenarios, |_slot: usize, report: PipelineReport| {
        reports.push(report);
        Ok(())
    })?;
    Ok(reports)
}

/// A warehouse sink for `fixture`'s layout on `pool`, spilling under
/// `shuffle_dir`.
pub fn warehouse_sink(
    layout: &DrilldownLayout,
    pool: &Arc<ThreadPool>,
    shuffle_dir: &Path,
) -> RiskResult<WarehouseSink> {
    Ok(WarehouseSink::new(layout.clone())?
        .with_pool(Arc::clone(pool))
        .with_work_dir(shuffle_dir))
}

impl Fixture {
    /// Build the workload's inputs from `seed`.
    pub fn build(kind: Kind, seed: u64, env: &Env<'_>) -> RiskResult<Fixture> {
        let shape = Shape::of(kind, env.smoke);
        let mut scenarios = Vec::new();
        let mut dims = Vec::new();
        match kind {
            Kind::PriceSweep | Kind::DeepTrials => {
                let model_seed = if shape.target_rows > 0 {
                    pick_seed(&shape, seed, env.threads)?
                } else {
                    mix(seed, 1)
                };
                scenarios = attachment_sweep(&base_scenario(&shape, model_seed), shape.points);
            }
            Kind::ColdModels => {
                for i in 0..shape.points {
                    scenarios.push(
                        base_scenario(&shape, mix(seed, 100 + i as u64))
                            .with_name(format!("model-{i}")),
                    );
                }
            }
            Kind::SpillReplay | Kind::RebuildQuery => {
                for region in 0..shape.regions {
                    for peril in 0..shape.perils {
                        let key_seed = mix(seed, 0xE13 + u64::from(region * shape.perils + peril));
                        for attach in 0..shape.points {
                            let s = base_scenario(&shape, key_seed)
                                .with_attachment_factor(0.25 + 0.25 * attach as f64)
                                .with_name(format!("r{region}-p{peril}-a{attach}"));
                            dims.push(ScenarioDims::for_scenario(region, peril, &s));
                            scenarios.push(s);
                        }
                    }
                }
            }
        }
        if dims.is_empty() {
            // Sweeps get synthetic coordinates (two regions, two
            // perils) so the layer table can run the stage-3 calls on
            // their reports too.
            dims = scenarios
                .iter()
                .enumerate()
                .map(|(i, s)| ScenarioDims::for_scenario(i as u32 % 2, (i as u32 / 2) % 2, s))
                .collect();
        }
        let layout = DrilldownLayout::new(dims, EngineKind::CpuParallel)?;
        let replay = match kind {
            Kind::SpillReplay | Kind::RebuildQuery => {
                Some(Replay::build(kind, &scenarios, &layout, env)?)
            }
            _ => None,
        };
        Ok(Fixture {
            kind,
            scenarios,
            layout,
            replay,
            queries: shape.queries,
        })
    }

    /// Trials per scenario.
    pub fn trials(&self) -> usize {
        self.scenarios[0].trials
    }

    /// One rep of the workload.
    pub fn rep(&self, env: &Env<'_>) -> RiskResult<Rep> {
        match self.kind {
            Kind::PriceSweep => self.rep_price_sweep(env),
            Kind::DeepTrials => self.rep_deep_trials(env),
            Kind::ColdModels => self.rep_cold_models(env),
            Kind::SpillReplay => self.rep_spill_replay(env),
            Kind::RebuildQuery => self.rep_rebuild_query(env),
        }
    }

    /// Drill-down queries per rep (`rebuild_query`; 0 elsewhere).
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Operations a rep attempts when it runs to the end — what a rep
    /// that returned `Err` is charged as failed.
    pub fn ops_per_rep(&self) -> u64 {
        let n = self.scenarios.len() as u64;
        match self.kind {
            Kind::ColdModels => 2 * n,
            Kind::RebuildQuery => n + self.queries as u64,
            _ => n,
        }
    }

    fn replay(&self) -> &Replay {
        self.replay
            .as_ref()
            .expect("replay workloads are built with kept reports")
    }
}

impl Replay {
    fn build(
        kind: Kind,
        scenarios: &[ScenarioConfig],
        layout: &DrilldownLayout,
        env: &Env<'_>,
    ) -> RiskResult<Replay> {
        let reports = capture_reports(env, scenarios)?;
        let shuffle_dir = env.scratch.fresh("shuffle");
        let sealed = if kind == Kind::RebuildQuery {
            let pool = Arc::new(ThreadPool::try_new(env.threads)?);
            let store = ShardedFilesStore::new(env.scratch.fresh("sealed"), 2)?;
            let mut persist = PersistingSink::new(Arc::new(store.clone()));
            let mut live = warehouse_sink(layout, &pool, &shuffle_dir)?;
            for (slot, report) in reports.iter().enumerate() {
                persist.accept_shared(slot, report)?;
                live.ingest(slot, &report.ylt)?;
            }
            persist.finish()?;
            Some(Sealed {
                store,
                bytes: persist.bytes_persisted(),
                live: live.finish()?,
            })
        } else {
            None
        };
        Ok(Replay {
            reports,
            shuffle_dir,
            sealed,
        })
    }
}

/// Pool activity of one rep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounts {
    /// Tasks executed by workers and helpers.
    pub executed: u64,
    /// Tasks obtained by stealing.
    pub stolen: u64,
    /// Tasks run by threads waiting on a scope.
    pub helper_runs: u64,
}

impl PoolCounts {
    fn of(pool: &ThreadPool) -> PoolCounts {
        let s = pool.stats();
        PoolCounts {
            executed: s.tasks_executed(),
            stolen: s.tasks_stolen(),
            helper_runs: s.helper_runs(),
        }
    }

    fn plus(self, other: PoolCounts) -> PoolCounts {
        PoolCounts {
            executed: self.executed + other.executed,
            stolen: self.stolen + other.stolen,
            helper_runs: self.helper_runs + other.helper_runs,
        }
    }
}

/// What one rep measured and produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall time of the whole rep, seconds.
    pub wall_s: f64,
    /// Rep start → the first result a user sees, seconds: the first
    /// report reaching the sink (sweeps), the first report durable and
    /// ingested (`spill_replay`), the first query answered
    /// (`rebuild_query`).
    pub first_s: f64,
    /// Named parts of the rep, seconds (detail output only).
    pub phases: Vec<(&'static str, f64)>,
    /// Operations attempted: scenarios delivered, reports persisted,
    /// queries answered, plus every check made.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// What failed, for the log.
    pub notes: Vec<String>,
    /// Result bits that must equal the reference rep's.
    pub digest: Vec<u64>,
    /// Stage-1 cache counters summed over the rep's sessions.
    pub stage1: (u64, u64, u64),
    /// Pool activity summed over the rep's sessions.
    pub pool: PoolCounts,
    /// Payload bytes the rep moved (persisted or reloaded), 0 for sweeps.
    pub bytes: u64,
}

impl Rep {
    fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// A rep that is one sweep: its times, its pooled bits, its counters.
    fn of_sweep(pass: &SweepPass) -> Rep {
        let mut rep = Rep {
            wall_s: pass.wall_s,
            first_s: pass.first_s,
            phases: vec![("sweep", pass.wall_s)],
            digest: vec![tvar_bits(&pass.summary)],
            ..Rep::default()
        };
        rep.absorb(pass);
        rep
    }

    fn absorb(&mut self, pass: &SweepPass) {
        self.ops(pass.delivered as u64);
        self.stage1.0 += pass.stats.builds;
        self.stage1.1 += pass.stats.hits;
        self.stage1.2 += pass.stats.disk_hits;
        self.pool = self.pool.plus(pass.pool);
    }
}

/// Marks when slot 0 reaches the sink stack. Shared delivery is
/// overridden so riding a fan-out costs no report clone.
struct FirstReport {
    t0: Instant,
    at_s: Option<f64>,
}

impl FirstReport {
    fn mark(&mut self, slot: usize) {
        if slot == 0 && self.at_s.is_none() {
            self.at_s = Some(self.t0.elapsed().as_secs_f64());
        }
    }
}

impl ReportSink for &mut FirstReport {
    fn accept(&mut self, slot: usize, _report: PipelineReport) -> RiskResult<()> {
        self.mark(slot);
        Ok(())
    }

    fn accept_shared(&mut self, slot: usize, _report: &PipelineReport) -> RiskResult<()> {
        self.mark(slot);
        Ok(())
    }
}

/// One fresh session driving one summary sweep.
struct SweepPass {
    wall_s: f64,
    first_s: f64,
    delivered: usize,
    summary: SweepSummary,
    stats: Stage1CacheStats,
    pool: PoolCounts,
}

/// A user's process pays one session (pool spawn, cold stage-1 cache)
/// per sweep, so the session is built inside the timed region.
fn sweep_pass(
    env: &Env<'_>,
    scenarios: &[ScenarioConfig],
    disk_tier: Option<&Path>,
) -> RiskResult<SweepPass> {
    let t0 = Instant::now();
    let mut builder = RiskSession::builder().pool_threads(env.threads);
    if let Some(dir) = disk_tier {
        builder = builder.stage1_disk_cache(dir);
    }
    if let Some(telemetry) = &env.telemetry {
        builder = builder.telemetry(telemetry.clone());
    }
    let session = builder.build()?;
    let mut first = FirstReport { t0, at_s: None };
    let outcome = session.sweep(scenarios).summary().drive_with(&mut first)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let delivered = outcome.delivered();
    let summary = outcome
        .into_summary()
        .ok_or_else(|| RiskError::invalid("summary plan returned no summary"))?;
    Ok(SweepPass {
        wall_s,
        first_s: first.at_s.unwrap_or(wall_s),
        delivered,
        summary,
        stats: session.stage1_cache_stats(),
        pool: PoolCounts::of(session.pool()),
    })
}

fn tvar_bits(summary: &SweepSummary) -> u64 {
    summary.pooled_tvar99().map_or(u64::MAX, f64::to_bits)
}

/// `var99`/`tvar99` bits of every cell, in key order.
fn cell_bits(cuboid: &SketchCuboid, out: &mut Vec<u64>) {
    for i in 0..cuboid.cells() {
        let (codes, cell) = cuboid.cell_at(i);
        out.extend(codes.iter().map(|&c| u64::from(c)));
        out.push(cell.var99().map_or(u64::MAX, f64::to_bits));
        out.push(cell.tvar99().map_or(u64::MAX, f64::to_bits));
    }
}

impl Fixture {
    fn rep_price_sweep(&self, env: &Env<'_>) -> RiskResult<Rep> {
        let n = self.scenarios.len();
        let pass = sweep_pass(env, &self.scenarios, None)?;
        let mut rep = Rep::of_sweep(&pass);
        let s = pass.stats;
        rep.check(pass.delivered == n, || {
            format!("delivered {} of {n}", pass.delivered)
        });
        rep.check(
            s.builds == 1 && s.misses == 1 && s.hits == n as u64 - 1,
            || format!("one key must build once and hit {} times: {s:?}", n - 1),
        );
        Ok(rep)
    }

    fn rep_deep_trials(&self, env: &Env<'_>) -> RiskResult<Rep> {
        let n = self.scenarios.len();
        let pass = sweep_pass(env, &self.scenarios, None)?;
        let mut rep = Rep::of_sweep(&pass);
        let want = (n * self.trials()) as u64;
        rep.check(pass.summary.trials() == want, || {
            format!("pooled {} trials, expected {want}", pass.summary.trials())
        });
        rep.check(!pass.summary.analytics_exact(), || {
            "pooled trials must leave the sketch's exact path".into()
        });
        let bound = pass.summary.rank_error_bound();
        rep.check(bound < 0.05, || {
            format!("sketch rank-error bound degraded: {bound}")
        });
        Ok(rep)
    }

    fn rep_cold_models(&self, env: &Env<'_>) -> RiskResult<Rep> {
        let n = self.scenarios.len() as u64;
        let tier = env.scratch.fresh("stage1-tier");
        let passes = sweep_pass(env, &self.scenarios, Some(&tier))
            .and_then(|cold| Ok((cold, sweep_pass(env, &self.scenarios, Some(&tier))?)));
        let _ = std::fs::remove_dir_all(&tier);
        let (cold, warm) = passes?;
        let mut rep = Rep {
            wall_s: cold.wall_s + warm.wall_s,
            first_s: cold.first_s,
            phases: vec![
                ("cold_pass", cold.wall_s),
                ("diskwarm_pass", warm.wall_s),
                ("diskwarm_first_report", warm.first_s),
            ],
            digest: vec![tvar_bits(&cold.summary)],
            ..Rep::default()
        };
        rep.absorb(&cold);
        rep.absorb(&warm);
        let (a, b) = (cold.stats, warm.stats);
        rep.check(a.builds == n && a.disk_writes == n, || {
            format!("empty tier: every key must build and write through: {a:?}")
        });
        rep.check(b.builds == 0 && b.disk_hits == n, || {
            format!("warm tier: no key may rebuild: {b:?}")
        });
        rep.check(tvar_bits(&cold.summary) == tvar_bits(&warm.summary), || {
            "disk-warm pass changed the pooled TVaR99 bits".into()
        });
        Ok(rep)
    }

    fn rep_spill_replay(&self, env: &Env<'_>) -> RiskResult<Rep> {
        let replay = self.replay();
        let _ctx = env.telemetry.as_ref().map(riskpipe_obs::install);
        let dir = env.scratch.fresh("spill");
        let result = self.replay_into(replay, &dir, env.threads);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn replay_into(&self, replay: &Replay, dir: &Path, threads: usize) -> RiskResult<Rep> {
        let n = replay.reports.len();
        let t0 = Instant::now();
        // Like a session, the sink stack's pool is part of what a
        // user's process pays per replay.
        let pool = Arc::new(ThreadPool::try_new(threads)?);
        let store = ShardedFilesStore::new(dir, 2)?;
        let mut summary = SweepSummary::new();
        let mut persist = PersistingSink::new(Arc::new(store.clone()));
        let mut warehouse = warehouse_sink(&self.layout, &pool, &replay.shuffle_dir)?;
        let mut first_s = 0.0;
        {
            let mut fan = FanoutSink::new();
            fan.push(&mut summary);
            fan.push(&mut persist);
            fan.push(&mut warehouse);
            for (slot, report) in replay.reports.iter().enumerate() {
                fan.accept_shared(slot, report)?;
                if slot == 0 {
                    first_s = t0.elapsed().as_secs_f64();
                }
            }
            fan.finish()?;
        }
        let drilldown = warehouse.finish()?;
        let wall_s = t0.elapsed().as_secs_f64();

        let mut rep = Rep {
            wall_s,
            first_s,
            phases: vec![("replay", wall_s)],
            pool: PoolCounts::of(&pool),
            bytes: persist.bytes_persisted(),
            ..Rep::default()
        };
        rep.ops(persist.reports_persisted());
        let slots = store.persisted_report_slots(0)?;
        rep.check(slots == n, || {
            format!("run manifest seals {slots} slots, expected {n}")
        });
        let cells = drilldown.base().cells();
        let bands = riskpipe_analytics::RETURN_PERIOD_BANDS as usize;
        rep.check(cells == n * bands, || {
            format!("{cells} base cells, expected {}", n * bands)
        });
        rep.digest = vec![persist.bytes_persisted(), slots as u64, tvar_bits(&summary)];
        cell_bits(drilldown.base(), &mut rep.digest);
        Ok(rep)
    }

    fn rep_rebuild_query(&self, env: &Env<'_>) -> RiskResult<Rep> {
        let replay = self.replay();
        let sealed = replay
            .sealed
            .as_ref()
            .expect("rebuild_query is built with a sealed spill");
        let _ctx = env.telemetry.as_ref().map(riskpipe_obs::install);
        let shapes = query_shapes();
        let mut rep = Rep::default();

        let t0 = Instant::now();
        let session = RiskSession::builder().pool_threads(env.threads).build()?;
        let mut rebuilt = session
            .analytics(self.layout.clone())
            .rebuild_from_store(&sealed.store, 0)?;
        let rebuild_s = t0.elapsed().as_secs_f64();
        rebuilt.materialize_budget(view_budget(&rebuilt))?;
        let ready_s = t0.elapsed().as_secs_f64();
        for i in 0..self.queries {
            let (rows, cost) = rebuilt.answer(&shapes[i % shapes.len()])?;
            if i == 0 {
                rep.first_s = t0.elapsed().as_secs_f64();
            }
            rep.attempted += 1;
            if rows.is_empty() || cost.facts_read != 0 {
                rep.failed += 1;
                rep.notes.push(format!(
                    "query {i}: {} rows, {} facts read",
                    rows.len(),
                    cost.facts_read
                ));
            }
            if i < shapes.len() {
                for row in &rows {
                    rep.digest.extend(row.codes.iter().map(|&c| u64::from(c)));
                    rep.digest
                        .push(row.cell.var99().map_or(u64::MAX, f64::to_bits));
                    rep.digest
                        .push(row.cell.tvar99().map_or(u64::MAX, f64::to_bits));
                }
            }
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.phases = vec![
            ("rebuild", rebuild_s),
            ("materialize", ready_s - rebuild_s),
            ("queries", rep.wall_s - ready_s),
        ];
        rep.bytes = sealed.bytes;

        // Outside the timed region: the rebuilt cells against the
        // live sink's, cell by cell.
        rep.ops(replay.reports.len() as u64);
        let (mut live_bits, mut rebuilt_bits) = (Vec::new(), Vec::new());
        cell_bits(sealed.live.base(), &mut live_bits);
        cell_bits(rebuilt.base(), &mut rebuilt_bits);
        rep.check(live_bits == rebuilt_bits, || {
            "rebuilt cells differ from the live sink's".into()
        });
        rep.check(rebuilt.ingest_stats() == sealed.live.ingest_stats(), || {
            "rebuild shuffled a different record count than the live sink".into()
        });
        Ok(rep)
    }
}
