//! The aggregate-analysis engines.
//!
//! There are exactly two trial kernels, and every engine's YLT is
//! bit-identical because both add the same paying values in the same
//! order (ascending layer index within an occurrence — the
//! [`EventJoin`] ordering invariant):
//!
//! * **the host kernel** (`joined_trial`) — occurrences-outer,
//!   hits-inner over the [`EventJoin`]: one map lookup per occurrence,
//!   the interpolation cell computed once per occurrence, then a
//!   contiguous, branch-free stream over the event's hits: a hit that
//!   pays nothing adds a +0.0, which moves no bit. It prices a *group*
//!   of scenarios — the same books under K term sets — in one scan,
//!   with one accumulator set per scenario ([`run_block`]), so the
//!   lookup, the cell and the interpolation of every hit are paid once
//!   for all K. [`SequentialEngine`] runs it over the whole trial range
//!   as one block, [`CpuParallelEngine`] splits the range into blocks
//!   across the pool, and [`run_per_layer`] runs its hit stream with
//!   one accumulator set per layer; it is the paper's "pre-join once,
//!   then scan flat tables" applied to stage 2.
//! * **the simulated device's kernel** (`engine/gpu.rs`) —
//!   occurrences-outer, layers-inner with one hash probe per layer, as
//!   in the GPU companion paper, branching on every paying hit and
//!   occurrence. It stays because that access pattern is what
//!   experiment E8 meters: over a join both chunking modes would fetch
//!   each YET row once and staging would have nothing to save. It reads
//!   hit payloads out of the same [`EventJoin`] and prices one scenario
//!   per launch, so it is also the per-scenario oracle of the host
//!   kernel's groups.
//!
//! Two kernels, one table: the cross-engine equality tests are a real
//! cross-kernel oracle — branch-free against branching — not one
//! function called four ways.
//!
//! ## The traffic model (E8)
//!
//! The simulated device's kernel marks the semantic memory events of
//! its inner loop; byte costs follow the table layouts:
//!
//! | event | bytes | meaning |
//! |---|---|---|
//! | occurrence staged | 14 read + 16 write | YET row (event u32 + day u16 + z f64) fetched from global, parked in a shared tile |
//! | occurrence fetch | 14 | the row consumed by one layer's probe (from global if unstaged, from shared if staged) |
//! | hash probe | 8 | one open-addressing slot (key+value u32s) in global memory |
//! | hit payload | 8 / 16 | ELT mean (or two grid cells with secondary uncertainty) |
//! | terms read | 40 | one layer's 5-f64 terms (constant memory) |
//! | output write | 20 | one YLT row (agg f64 + max f64 + count u32) |

mod gpu;
mod par;
mod seq;

pub use gpu::{GpuChunking, GpuEngine};
pub use par::CpuParallelEngine;
pub use seq::SequentialEngine;

use crate::join::EventJoin;
use crate::portfolio::Portfolio;
use crate::secondary::{QuantileMode, SecondaryTable};
use crate::terms::LayerTerms;
use riskpipe_exec::ThreadPool;
use riskpipe_tables::yet::YearEventTable;
use riskpipe_tables::{Elt, Ylt};
use riskpipe_types::{RiskError, RiskResult, TrialId};
use std::ops::Range;
use std::sync::Arc;

/// Options shared by all engines.
#[derive(Debug, Clone, Copy)]
pub struct AggregateOptions {
    /// Whether to apply secondary uncertainty (beta-distributed event
    /// losses driven by the YET's pre-simulated uniforms) or to use the
    /// ELT mean loss deterministically.
    pub secondary_uncertainty: bool,
    /// Beta-quantile evaluation scheme when secondary uncertainty is on.
    pub quantile_mode: QuantileMode,
}

impl Default for AggregateOptions {
    fn default() -> Self {
        Self {
            secondary_uncertainty: true,
            quantile_mode: QuantileMode::default(),
        }
    }
}

/// An aggregate-analysis engine: portfolio × YET → YLT.
///
/// There is one engine path: [`AggregateEngine::run_group`] prices the
/// portfolios of one model run — the same books under different layer
/// terms — over an [`EventJoin`] the caller already holds (the
/// session's stage-1 cache builds one per model run).
/// [`AggregateEngine::run_prepared`] is the group of one, and the
/// provided [`AggregateEngine::run`] is "build the tables the options
/// ask for, join them, then delegate".
pub trait AggregateEngine {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// The pool [`AggregateEngine::run`] builds secondary tables on: the
    /// engine's own, or the global pool for an engine without one.
    fn pool(&self) -> &ThreadPool {
        riskpipe_exec::global_pool()
    }

    /// Run the analysis for every portfolio in `portfolios` over one
    /// prepared join of their books (whether it carries secondary
    /// uncertainty was decided when it was built): one YLT per
    /// portfolio, in order, each bit-identical to the portfolio's own
    /// [`AggregateEngine::run_prepared`]. The host engines price the
    /// whole group in one scan of the trials ([`run_block`], one pass
    /// per eight portfolios); the simulated GPU launches once per
    /// portfolio.
    ///
    /// # Errors
    /// [`RiskError::InvalidParameter`] when `portfolios` or the YET is
    /// empty, or when `join` does not hold exactly one layer per layer
    /// of every portfolio with exactly one row per row of that layer's
    /// ELT.
    fn run_group(
        &self,
        portfolios: &[&Portfolio],
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<Vec<Ylt>>;

    /// Run the analysis over a prepared join of the portfolio's ELTs:
    /// [`AggregateEngine::run_group`] with one portfolio.
    ///
    /// # Errors
    /// As [`AggregateEngine::run_group`].
    fn run_prepared(
        &self,
        portfolio: &Portfolio,
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<Ylt> {
        let mut ylts = self.run_group(&[portfolio], yet, join)?;
        ylts.pop()
            .ok_or_else(|| RiskError::InvalidState("a group of one returned no YLT".into()))
    }

    /// Run the analysis, building the secondary tables `opts` asks for
    /// on [`AggregateEngine::pool`] and joining them first.
    fn run(
        &self,
        portfolio: &Portfolio,
        yet: &YearEventTable,
        opts: &AggregateOptions,
    ) -> RiskResult<Ylt> {
        let join = build_join(portfolio, opts, self.pool())?;
        self.run_prepared(portfolio, yet, &join)
    }
}

/// Validation shared by all engines: non-empty inputs, and a join that
/// lines up with the portfolio layer for layer and row for row (so no
/// kernel can index a layer or a hit out of bounds).
pub(crate) fn check_inputs(
    portfolio: &Portfolio,
    yet: &YearEventTable,
    join: &EventJoin,
) -> RiskResult<()> {
    if portfolio.is_empty() {
        return Err(RiskError::invalid("portfolio has no layers"));
    }
    if yet.trials() == 0 {
        return Err(RiskError::invalid("YET has no trials"));
    }
    if join.layers() != portfolio.len() {
        return Err(RiskError::invalid(format!(
            "join over {} layers for a portfolio of {}",
            join.layers(),
            portfolio.len()
        )));
    }
    for (li, layer) in portfolio.layers().iter().enumerate() {
        if join.layer_rows(li) != layer.elt.len() {
            return Err(RiskError::invalid(format!(
                "join layer {li} has {} rows, the portfolio layer's ELT has {}",
                join.layer_rows(li),
                layer.elt.len()
            )));
        }
    }
    Ok(())
}

/// The ELTs of a portfolio's layers, in layer order.
fn layer_elts(portfolio: &Portfolio) -> impl Iterator<Item = &Elt> {
    portfolio.layers().iter().map(|l| &*l.elt)
}

/// One secondary table per ELT, in order, built on `pool` — or `None`
/// when the options switch secondary uncertainty off. A pure function
/// of the ELTs and [`AggregateOptions::quantile_mode`]; the input of
/// [`EventJoin::build`].
pub fn build_secondary<'a>(
    elts: impl IntoIterator<Item = &'a Elt>,
    opts: &AggregateOptions,
    pool: &ThreadPool,
) -> Option<Vec<SecondaryTable>> {
    opts.secondary_uncertainty
        .then(|| SecondaryTable::build_books_on(elts, opts.quantile_mode, pool))
}

/// The join of a portfolio's ELTs under `opts`, tables built on `pool`.
fn build_join(
    portfolio: &Portfolio,
    opts: &AggregateOptions,
    pool: &ThreadPool,
) -> RiskResult<EventJoin> {
    let tables = build_secondary(layer_elts(portfolio), opts, pool);
    EventJoin::build(layer_elts(portfolio), tables)
}

/// [`check_inputs`] for every portfolio of a group, which must not be
/// empty.
pub(crate) fn check_group(
    portfolios: &[&Portfolio],
    yet: &YearEventTable,
    join: &EventJoin,
) -> RiskResult<()> {
    if portfolios.is_empty() {
        return Err(RiskError::invalid("no portfolio to price"));
    }
    portfolios
        .iter()
        .try_for_each(|portfolio| check_inputs(portfolio, yet, join))
}

/// The term sets of a group of scenarios, one per scenario, each
/// checked to hold one entry per layer of the join.
pub(crate) struct TermSets(Vec<Vec<LayerTerms>>);

impl TermSets {
    /// Copy and check `sets` (one term set per scenario).
    ///
    /// # Errors
    /// [`RiskError::InvalidParameter`] when `sets` is empty or a set
    /// does not hold exactly one entry per joined layer.
    pub(crate) fn new(join: &EventJoin, sets: &[&[LayerTerms]]) -> RiskResult<Self> {
        if sets.is_empty() {
            return Err(RiskError::invalid("no term set to price"));
        }
        let layers = join.layers();
        if let Some(set) = sets.iter().find(|set| set.len() != layers) {
            return Err(RiskError::invalid(format!(
                "a term set of {} layers for a join over {layers}",
                set.len()
            )));
        }
        Ok(Self(sets.iter().map(|set| set.to_vec()).collect()))
    }

    /// The group's portfolios' terms.
    pub(crate) fn of(join: &EventJoin, portfolios: &[&Portfolio]) -> RiskResult<Self> {
        let sets: Vec<Vec<LayerTerms>> = portfolios
            .iter()
            .map(|p| p.layers().iter().map(|l| l.terms).collect())
            .collect();
        let sets: Vec<&[LayerTerms]> = sets.iter().map(Vec::as_slice).collect();
        Self::new(join, &sets)
    }

    /// Scenarios in the group.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Scenarios `first..first + N`'s terms, layer-major: entry `li`
    /// holds layer `li`'s terms for each of the `N` lanes.
    fn lanes<const N: usize>(&self, first: usize) -> Vec<[LayerTerms; N]> {
        let layers = self.0.first().map_or(0, Vec::len);
        (0..layers)
            .map(|li| std::array::from_fn(|lane| self.0[first + lane][li]))
            .collect()
    }
}

/// Scenarios one pass of the kernel prices at once; a larger group
/// takes one pass per `MAX_LANES` of its scenarios.
const MAX_LANES: usize = 8;

/// One trial of aggregate analysis on the host, for `N` scenarios at
/// once (`terms[li]` holds layer `li`'s terms per scenario, `annual` is
/// the per-layer scratch; both one entry per layer). Returns, per
/// scenario, `(aggregate_loss, max_occurrence_loss,
/// loss_causing_occurrences)`.
///
/// Occurrences-outer / hits-inner over the join: one lookup and one
/// interpolation cell per occurrence, then each hit's gross loss is
/// priced under every scenario's terms. Hits arrive in ascending layer
/// order, so each scenario's accumulators see the additions the
/// one-probe-per-layer kernel performs, in its order; scenarios never
/// share an accumulator, so a group's YLTs are its members' lone ones.
///
/// Branch-free: every hit adds its net, and the count and the maximum
/// are computed, not branched on. A hit that pays nothing adds +0.0,
/// which moves no bit: `gross` is ≥ +0.0, so `net = (gross −
/// retention).max(0.0).min(limit)` is never NaN (`f64::max` drops it)
/// nor −0.0; every accumulator starts at +0.0 and so never becomes
/// −0.0, and `max` never has to choose between two zero signs. The YLT
/// equals the branching kernel's (`engine/gpu.rs`) bit for bit.
#[inline]
fn joined_trial<const N: usize>(
    join: &EventJoin,
    terms: &[[LayerTerms; N]],
    events: &[u32],
    zs: &[f64],
    annual: &mut [[f64; N]],
) -> [(f64, f64, u32); N] {
    debug_assert_eq!(annual.len(), terms.len());
    annual.fill([0.0; N]);
    let mut max_occ = [0.0f64; N];
    let mut count = [0u32; N];
    for (&event, &z) in events.iter().zip(zs) {
        let mut occ_total = [0.0f64; N];
        join.for_each_hit(event, z, |li, gross| {
            let (terms, annual) = (&terms[li], &mut annual[li]);
            for s in 0..N {
                let net = terms[s].apply_occurrence(gross);
                annual[s] += net;
                occ_total[s] += net * terms[s].share;
            }
        });
        for s in 0..N {
            count[s] += u32::from(occ_total[s] > 0.0);
            max_occ[s] = max_occ[s].max(occ_total[s]);
        }
    }
    std::array::from_fn(|s| {
        let mut agg_total = 0.0f64;
        for (terms, annual) in terms.iter().zip(annual.iter()) {
            agg_total += terms[s].apply_aggregate(annual[s]);
        }
        (agg_total, max_occ[s], count[s])
    })
}

/// One scenario's YLT rows for a block of trials.
pub(crate) type YltRows<'a> = (&'a mut [f64], &'a mut [f64], &'a mut [u32]);

/// One pass of the kernel over a block of trials starting at `first`
/// for the `N` scenarios from `lane0` on; `rows[s]` receives scenario
/// `lane0 + s`'s rows.
fn fill_lanes<const N: usize>(
    join: &EventJoin,
    yet: &YearEventTable,
    first: usize,
    terms: &TermSets,
    lane0: usize,
    rows: &mut [YltRows<'_>],
) {
    let terms = terms.lanes::<N>(lane0);
    let mut annual = vec![[0.0f64; N]; terms.len()];
    let len = rows.first().map_or(0, |r| r.0.len());
    for j in 0..len {
        let (events, _days, zs) = yet.trial_slices(TrialId::new((first + j) as u32));
        let priced = joined_trial(join, &terms, events, zs, &mut annual);
        for ((aggs, max_occs, counts), (agg, max_occ, count)) in rows.iter_mut().zip(priced) {
            (aggs[j], max_occs[j], counts[j]) = (agg, max_occ, count);
        }
    }
}

/// The host kernel over a block of consecutive trials starting at
/// `first`: `rows[s]` receives scenario `s`'s rows, all `rows` being
/// one length. The one trial loop every host engine runs: one pass per
/// [`MAX_LANES`] scenarios, the kernel instantiated for the pass's
/// width.
pub(crate) fn fill_block(
    join: &EventJoin,
    yet: &YearEventTable,
    first: usize,
    terms: &TermSets,
    rows: &mut [YltRows<'_>],
) {
    debug_assert_eq!(rows.len(), terms.len());
    for (pass, rows) in rows.chunks_mut(MAX_LANES).enumerate() {
        let lane0 = pass * MAX_LANES;
        let fill = match rows.len() {
            1 => fill_lanes::<1>,
            2 => fill_lanes::<2>,
            3 => fill_lanes::<3>,
            4 => fill_lanes::<4>,
            5 => fill_lanes::<5>,
            6 => fill_lanes::<6>,
            7 => fill_lanes::<7>,
            _ => fill_lanes::<MAX_LANES>,
        };
        fill(join, yet, first, terms, lane0, rows);
    }
}

/// `ylts`' columns cut into blocks of `grain` trials: `blocks[b][s]` is
/// scenario `s`'s rows of block `b`.
pub(crate) fn ylt_blocks(ylts: &mut [Ylt], grain: usize) -> Vec<Vec<YltRows<'_>>> {
    let mut blocks: Vec<Vec<YltRows<'_>>> = Vec::new();
    for ylt in ylts {
        let (agg, max_occ, counts) = ylt.columns_mut();
        let cut = agg
            .chunks_mut(grain)
            .zip(max_occ.chunks_mut(grain))
            .zip(counts.chunks_mut(grain));
        for (b, ((agg, max_occ), counts)) in cut.enumerate() {
            if b == blocks.len() {
                blocks.push(Vec::new());
            }
            blocks[b].push((agg, max_occ, counts));
        }
    }
    blocks
}

/// Price `terms.len()` scenarios over trials `trials` of `yet` in one
/// scan of `join` (one pass over the trials per eight term sets) — the
/// host kernel with one accumulator set per term set. Returns one YLT per term set, in order, with `trials.len()`
/// rows: row `j` is trial `trials.start + j`. Each scenario's values
/// are added in the order its lone run adds them, so every YLT is
/// bit-identical to the corresponding rows of a group of one.
///
/// # Errors
/// [`RiskError::InvalidParameter`] when `terms` is empty, a term set
/// does not hold one entry per joined layer, or `trials` reaches past
/// the YET.
pub fn run_block(
    join: &EventJoin,
    yet: &YearEventTable,
    trials: Range<usize>,
    terms: &[&[LayerTerms]],
) -> RiskResult<Vec<Ylt>> {
    if trials.end > yet.trials() || trials.start > trials.end {
        return Err(RiskError::invalid(format!(
            "trials {trials:?} of a YET of {}",
            yet.trials()
        )));
    }
    let terms = TermSets::new(join, terms)?;
    Ok(scan(join, yet, trials, &terms))
}

/// [`run_block`] over checked terms: one block of all of `trials`.
pub(crate) fn scan(
    join: &EventJoin,
    yet: &YearEventTable,
    trials: Range<usize>,
    terms: &TermSets,
) -> Vec<Ylt> {
    let mut ylts: Vec<Ylt> = (0..terms.len())
        .map(|_| Ylt::zeroed(trials.len()))
        .collect();
    let grain = trials.len().max(1);
    if let Some(rows) = ylt_blocks(&mut ylts, grain).first_mut() {
        fill_block(join, yet, trials.start, terms, rows);
    }
    ylts
}

/// Per-layer aggregate analysis: one YLT per portfolio layer, in a
/// single pass over the YET. The portfolio-level YLT's aggregate column
/// equals the per-layer aggregates summed trial-wise (bitwise — same
/// summation order), which `run_per_layer`'s tests pin down; underwriters
/// use the per-layer view for marginal pricing and cession allocation.
///
/// The host kernel's hit stream with one accumulator set per layer
/// instead of one for the portfolio, branch-free like it.
pub fn run_per_layer(
    portfolio: &Portfolio,
    yet: &YearEventTable,
    opts: &AggregateOptions,
) -> RiskResult<Vec<Ylt>> {
    let join = build_join(portfolio, opts, riskpipe_exec::global_pool())?;
    check_inputs(portfolio, yet, &join)?;
    let trials = yet.trials();
    let layers = portfolio.layers();
    let mut ylts: Vec<Ylt> = (0..layers.len()).map(|_| Ylt::zeroed(trials)).collect();
    let mut agg = vec![0.0f64; layers.len()];
    let mut max_occ = vec![0.0f64; layers.len()];
    let mut counts = vec![0u32; layers.len()];
    for t in 0..trials {
        let trial = TrialId::new(t as u32);
        let (events, _days, zs) = yet.trial_slices(trial);
        agg.fill(0.0);
        max_occ.fill(0.0);
        counts.fill(0);
        for (&event, &z) in events.iter().zip(zs) {
            join.for_each_hit(event, z, |li, gross| {
                let terms = &layers[li].terms;
                let net = terms.apply_occurrence(gross);
                agg[li] += net;
                max_occ[li] = max_occ[li].max(net * terms.share);
                counts[li] += u32::from(net > 0.0);
            });
        }
        for (li, layer) in layers.iter().enumerate() {
            ylts[li].set_trial(
                trial,
                layer.terms.apply_aggregate(agg[li]),
                max_occ[li],
                counts[li],
            );
        }
    }
    Ok(ylts)
}

/// Which engine a runner should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The single-threaded reference engine.
    Sequential,
    /// Trials across the work-stealing pool.
    CpuParallel,
    /// The simulated GPU, naive global-memory kernel.
    GpuGlobal,
    /// The simulated GPU with shared-memory chunking (the paper's
    /// design).
    GpuChunked,
}

impl EngineKind {
    /// Every engine, for equivalence sweeps.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Sequential,
        EngineKind::CpuParallel,
        EngineKind::GpuGlobal,
        EngineKind::GpuChunked,
    ];
}

/// Convenience front end selecting an engine by kind — the single
/// engine-dispatch point for everything above this crate (the
/// `RiskSession` facade included). Uses the global thread pool unless
/// one is attached with [`AggregateRunner::with_pool`].
#[derive(Debug, Clone)]
pub struct AggregateRunner {
    kind: EngineKind,
    opts: AggregateOptions,
    pool: Option<Arc<riskpipe_exec::ThreadPool>>,
}

impl AggregateRunner {
    /// A runner for the given engine with default options on the
    /// global pool.
    pub fn new(kind: EngineKind) -> Self {
        Self {
            kind,
            opts: AggregateOptions::default(),
            pool: None,
        }
    }

    /// Replace the options.
    pub fn with_options(mut self, opts: AggregateOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Attach an explicit pool; parallel engines retain it (hence the
    /// `Arc` — everywhere the pool merely crosses a call boundary, use
    /// `&ThreadPool`).
    pub fn with_pool(mut self, pool: Arc<riskpipe_exec::ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The engine this runner dispatches to.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The options every run uses.
    pub fn options(&self) -> &AggregateOptions {
        &self.opts
    }

    /// Run the analysis under the runner's options on the attached pool
    /// (or the global pool), building and joining secondary tables first.
    pub fn run(&self, portfolio: &Portfolio, yet: &YearEventTable) -> RiskResult<Ylt> {
        AggregateEngine::run(self, portfolio, yet, &self.opts)
    }

    /// Hand `f` the engine this runner dispatches to.
    fn with_engine<R>(&self, f: impl FnOnce(&dyn AggregateEngine) -> R) -> R {
        match (&self.pool, self.kind) {
            (_, EngineKind::Sequential) => f(&SequentialEngine),
            (Some(pool), EngineKind::CpuParallel) => f(&CpuParallelEngine::new(Arc::clone(pool))),
            (Some(pool), EngineKind::GpuGlobal) => f(&GpuEngine::new(
                riskpipe_simgpu::DeviceSpec::host_native(pool.thread_count()),
                GpuChunking::GlobalOnly,
                Arc::clone(pool),
            )),
            (Some(pool), EngineKind::GpuChunked) => f(&GpuEngine::new(
                riskpipe_simgpu::DeviceSpec::host_native(pool.thread_count()),
                GpuChunking::SharedTiles,
                Arc::clone(pool),
            )),
            (None, EngineKind::CpuParallel) => f(&CpuParallelEngine::with_pool_ref(
                riskpipe_exec::global_pool(),
            )),
            (None, EngineKind::GpuGlobal) => f(&GpuEngine::on_global_pool(GpuChunking::GlobalOnly)),
            (None, EngineKind::GpuChunked) => {
                f(&GpuEngine::on_global_pool(GpuChunking::SharedTiles))
            }
        }
    }
}

/// The runner is itself an engine: the dispatched engine's prepared
/// path, with the join for [`AggregateEngine::run`] built on the
/// attached pool whichever engine is selected.
impl AggregateEngine for AggregateRunner {
    fn name(&self) -> &'static str {
        self.with_engine(|engine| engine.name())
    }

    fn pool(&self) -> &ThreadPool {
        match &self.pool {
            Some(pool) => pool,
            None => riskpipe_exec::global_pool(),
        }
    }

    fn run_group(
        &self,
        portfolios: &[&Portfolio],
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<Vec<Ylt>> {
        self.with_engine(|engine| engine.run_group(portfolios, yet, join))
    }
}

/// Assert that all engines produce identical YLTs on the given inputs;
/// returns the common YLT. Used by integration tests and examples.
pub fn engines_agree(
    portfolio: &Portfolio,
    yet: &YearEventTable,
    opts: &AggregateOptions,
    pool: Arc<riskpipe_exec::ThreadPool>,
) -> RiskResult<Ylt> {
    // One join for all four runs: it is a pure function of the inputs.
    let join = build_join(portfolio, opts, &pool)?;
    let reference = SequentialEngine.run_prepared(portfolio, yet, &join)?;
    let par = CpuParallelEngine::new(Arc::clone(&pool)).run_prepared(portfolio, yet, &join)?;
    if par != reference {
        return Err(RiskError::InvalidState(
            "CPU-parallel engine diverged from sequential".into(),
        ));
    }
    for chunking in [GpuChunking::GlobalOnly, GpuChunking::SharedTiles] {
        let gpu = GpuEngine::new(
            riskpipe_simgpu::DeviceSpec::fermi_like(),
            chunking,
            Arc::clone(&pool),
        )
        .run_prepared(portfolio, yet, &join)?;
        if gpu != reference {
            return Err(RiskError::InvalidState(format!(
                "GPU engine ({chunking:?}) diverged from sequential"
            )));
        }
    }
    Ok(reference)
}

#[cfg(test)]
mod per_layer_tests {
    use super::*;
    use crate::portfolio::Layer;
    use crate::terms::LayerTerms;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_tables::yet::{Occurrence, YetBuilder};
    use riskpipe_types::rng::{Rng64, SplitMix64};
    use riskpipe_types::{EventId, LayerId};

    fn fixture() -> (Portfolio, YearEventTable) {
        let mut rng = SplitMix64::new(404);
        let mut b = EltBuilder::new();
        for e in 0..150u32 {
            let mean = 20.0 + rng.next_f64() * 900.0;
            b.push(EltRecord {
                event_id: EventId::new(e),
                mean_loss: mean,
                sigma_i: mean * 0.2,
                sigma_c: mean * 0.1,
                exposure: mean * 5.0,
            })
            .unwrap();
        }
        let elt = std::sync::Arc::new(b.build().unwrap());
        let mut p = Portfolio::new();
        p.push(
            Layer::new(
                LayerId::new(0),
                LayerTerms::xl(50.0, 3_000.0),
                std::sync::Arc::clone(&elt),
            )
            .unwrap(),
        );
        p.push(
            Layer::new(
                LayerId::new(1),
                LayerTerms {
                    occ_retention: 0.0,
                    occ_limit: f64::INFINITY,
                    agg_retention: 400.0,
                    agg_limit: 5_000.0,
                    share: 0.4,
                },
                elt,
            )
            .unwrap(),
        );
        let mut yb = YetBuilder::new();
        for _ in 0..800 {
            let n = (rng.next_u64() % 5) as usize;
            let mut occs: Vec<Occurrence> = (0..n)
                .map(|_| Occurrence {
                    event_id: EventId::new((rng.next_u64() % 180) as u32),
                    day: (rng.next_u64() % 365) as u16,
                    z: rng.next_f64_open(),
                })
                .collect();
            occs.sort_by_key(|o| o.day);
            yb.push_trial(&occs);
        }
        (p, yb.build())
    }

    #[test]
    fn per_layer_aggregates_sum_to_portfolio() {
        let (p, yet) = fixture();
        let opts = AggregateOptions::default();
        let portfolio_ylt = SequentialEngine.run(&p, &yet, &opts).unwrap();
        let per_layer = run_per_layer(&p, &yet, &opts).unwrap();
        assert_eq!(per_layer.len(), 2);
        for t in 0..portfolio_ylt.trials() {
            // Summed as the portfolio kernel sums: from +0.0, in layer order.
            let sum = per_layer
                .iter()
                .fold(0.0f64, |acc, y| acc + y.agg_losses()[t]);
            let whole = portfolio_ylt.agg_losses()[t];
            assert_eq!(
                sum.to_bits(),
                whole.to_bits(),
                "trial {t}: per-layer {sum} vs portfolio {whole}"
            );
        }
    }

    #[test]
    fn per_layer_respects_each_layers_terms() {
        let (p, yet) = fixture();
        let opts = AggregateOptions {
            secondary_uncertainty: false,
            ..AggregateOptions::default()
        };
        let per_layer = run_per_layer(&p, &yet, &opts).unwrap();
        // Layer 1 has a 5000 aggregate limit at 40% share: no trial can
        // exceed 2000.
        for &agg in per_layer[1].agg_losses() {
            assert!(agg <= 0.4 * 5_000.0 + 1e-9, "agg {agg}");
        }
        // Per-layer max occurrence never exceeds that layer's aggregate
        // pre-limit... at least counts are consistent.
        for layer_ylt in &per_layer {
            for t in 0..layer_ylt.trials() {
                if layer_ylt.occ_counts()[t] == 0 {
                    assert_eq!(layer_ylt.max_occ_losses()[t], 0.0);
                }
            }
        }
    }
}

/// The branch-free host kernel against its branching form on the zero
/// edge cases: hits whose net is exactly zero, occurrences that pay
/// nothing, and trials where nothing pays.
#[cfg(test)]
mod branch_free_tests {
    use super::*;
    use crate::portfolio::Layer;
    use proptest::prelude::*;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_tables::yet::{Occurrence, YetBuilder};
    use riskpipe_types::{EventId, LayerId};
    use std::collections::BTreeMap;

    /// [`joined_trial`] as it was before it went branch-free: only a
    /// paying hit adds, only a paying occurrence counts and competes for
    /// the maximum.
    fn branching_trial(
        layers: &[Layer],
        join: &EventJoin,
        events: &[u32],
        zs: &[f64],
        scratch: &mut [f64],
    ) -> (f64, f64, u32) {
        scratch.fill(0.0);
        let mut max_occ = 0.0f64;
        let mut count = 0u32;
        for (&event, &z) in events.iter().zip(zs) {
            let mut occ_total = 0.0f64;
            join.for_each_hit(event, z, |li, gross| {
                let terms = &layers[li].terms;
                let net = terms.apply_occurrence(gross);
                if net > 0.0 {
                    scratch[li] += net;
                    occ_total += net * terms.share;
                }
            });
            if occ_total > 0.0 {
                count += 1;
                if occ_total > max_occ {
                    max_occ = occ_total;
                }
            }
        }
        let mut agg_total = 0.0f64;
        for (layer, &annual) in layers.iter().zip(scratch.iter()) {
            agg_total += layer.terms.apply_aggregate(annual);
        }
        (agg_total, max_occ, count)
    }

    /// The oracle's YLT: [`branching_trial`] over every trial.
    fn branching_ylt(portfolio: &Portfolio, yet: &YearEventTable, join: &EventJoin) -> Ylt {
        let layers = portfolio.layers();
        let mut ylt = Ylt::zeroed(yet.trials());
        let mut scratch = vec![0.0f64; layers.len()];
        for t in 0..yet.trials() {
            let trial = TrialId::new(t as u32);
            let (events, _days, zs) = yet.trial_slices(trial);
            let (agg, max_occ, count) = branching_trial(layers, join, events, zs, &mut scratch);
            ylt.set_trial(trial, agg, max_occ, count);
        }
        ylt
    }

    /// The three columns as bits (`==` on `Ylt` lets `0.0 == -0.0`).
    fn bits(ylt: &Ylt) -> (Vec<u64>, Vec<u64>, Vec<u32>) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
        (
            bits(ylt.agg_losses()),
            bits(ylt.max_occ_losses()),
            ylt.occ_counts().to_vec(),
        )
    }

    /// Held by every layer that has a retention, at a gross equal to it:
    /// its occurrences hit but pay nothing.
    const DEAD: u32 = 90;
    /// Held by no layer.
    const MISS: u32 = 91;

    /// One layer from drawn values. Grosses are quarter units, so a
    /// retention equal to one is exact. `retention` picks 0, the gross
    /// of member `pick`, or a quarter above every gross.
    fn layer(
        li: usize,
        members: &BTreeMap<u32, u32>,
        (retention, pick): (u8, usize),
        occ_limit: Option<u32>,
        (agg_retention, agg_limit): (Option<u32>, Option<u32>),
        share: Option<f64>,
    ) -> Layer {
        let grosses: Vec<f64> = members.values().map(|&q| f64::from(q) * 0.25).collect();
        let occ_retention = match retention {
            0 => 0.0,
            1 => grosses[pick % grosses.len()],
            _ => grosses.iter().copied().fold(0.0, f64::max) + 0.25,
        };
        let mut rows: Vec<(u32, f64)> = members.keys().copied().zip(grosses).collect();
        if occ_retention > 0.0 {
            rows.push((DEAD, occ_retention));
        }
        let mut b = EltBuilder::new();
        for (event, mean) in rows {
            b.push(EltRecord {
                event_id: EventId::new(event),
                mean_loss: mean,
                sigma_i: mean * 0.3,
                sigma_c: mean * 0.1,
                exposure: mean * 4.0,
            })
            .unwrap();
        }
        let terms = LayerTerms {
            occ_retention,
            occ_limit: occ_limit.map_or(f64::INFINITY, |q| f64::from(q) * 0.25),
            agg_retention: agg_retention.map_or(0.0, f64::from),
            agg_limit: agg_limit.map_or(f64::INFINITY, f64::from),
            share: share.unwrap_or(1.0),
        };
        Layer::new(LayerId::new(li as u32), terms, Arc::new(b.build().unwrap())).unwrap()
    }

    proptest! {
        /// Mean-payload books with exact values: every engine's YLT, and
        /// every per-layer YLT, equals the branching kernel's bit for
        /// bit; the last trial pays nothing and reads as +0.0 / 0.
        #[test]
        fn the_branch_free_kernel_equals_the_branching_one_bitwise(
            layers in prop::collection::vec(
                (
                    prop::collection::btree_map(0..24u32, 1..64u32, 1..10),
                    (0u8..3, 0..64usize),
                    prop::option::of(1..160u32),
                    (prop::option::of(1..40u32), prop::option::of(1..80u32)),
                    prop::option::of(0.01..1.0f64),
                ),
                1..5,
            ),
            trials in prop::collection::vec(prop::collection::vec(0..26u32, 0..6), 1..600),
        ) {
            let mut portfolio = Portfolio::new();
            for (li, (members, retention, occ_limit, agg, share)) in layers.iter().enumerate() {
                portfolio.push(layer(li, members, *retention, *occ_limit, *agg, *share));
            }
            let mut yb = YetBuilder::new();
            let event = |e: u32| match e {
                24 => DEAD,
                25 => MISS,
                e => e,
            };
            for t in trials.iter().map(Vec::as_slice).chain([[24, 25, 24].as_slice()]) {
                let occs: Vec<Occurrence> = t
                    .iter()
                    .enumerate()
                    .map(|(day, &e)| Occurrence {
                        event_id: EventId::new(event(e)),
                        day: day as u16,
                        z: 0.5,
                    })
                    .collect();
                yb.push_trial(&occs);
            }
            let yet = yb.build();
            let opts = AggregateOptions {
                secondary_uncertainty: false,
                ..AggregateOptions::default()
            };
            let join = build_join(&portfolio, &opts, riskpipe_exec::global_pool()).unwrap();
            let oracle = bits(&branching_ylt(&portfolio, &yet, &join));

            let seq = SequentialEngine.run_prepared(&portfolio, &yet, &join).unwrap();
            prop_assert_eq!(bits(&seq), oracle.clone(), "sequential");
            let last = yet.trials() - 1;
            prop_assert_eq!(
                (seq.agg_losses()[last].to_bits(), seq.max_occ_losses()[last].to_bits()),
                (0, 0)
            );
            prop_assert_eq!(seq.occ_counts()[last], 0);
            for threads in [1, 2, 8] {
                let pool = Arc::new(ThreadPool::new(threads));
                let par = CpuParallelEngine::new(pool).run_prepared(&portfolio, &yet, &join);
                prop_assert_eq!(bits(&par.unwrap()), oracle.clone(), "{} threads", threads);
            }
            let agreed = engines_agree(&portfolio, &yet, &opts, Arc::new(ThreadPool::new(2)));
            prop_assert_eq!(bits(&agreed.unwrap()), oracle, "engines_agree");

            // Layer `li`'s per-layer YLT is the one-layer portfolio's.
            let per_layer = run_per_layer(&portfolio, &yet, &opts).unwrap();
            for (li, layer) in portfolio.layers().iter().enumerate() {
                let mut alone = Portfolio::new();
                alone.push(layer.clone());
                let join = build_join(&alone, &opts, riskpipe_exec::global_pool()).unwrap();
                let want = bits(&branching_ylt(&alone, &yet, &join));
                prop_assert_eq!(bits(&per_layer[li]), want, "layer {}", li);
            }
        }
    }
}

/// A group scan against lone runs: K term sets priced in one scan give
/// each set's lone YLT bit for bit, whatever the block boundaries, the
/// engine or the pool width.
#[cfg(test)]
mod group_tests {
    use super::*;
    use crate::portfolio::Layer;
    use proptest::prelude::*;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_tables::yet::{Occurrence, YetBuilder};
    use riskpipe_types::rng::{Rng64, SplitMix64};
    use riskpipe_types::{EventId, LayerId};

    const LAYERS: usize = 3;
    /// Held by no ELT.
    const MISS: u32 = 10_000;

    /// Three layers over two books and a YET whose last two trials pay
    /// nothing: one is empty, one holds only events no book holds.
    fn fixture(seed: u64) -> (Portfolio, YearEventTable) {
        let mut rng = SplitMix64::new(seed);
        let books: Vec<Arc<Elt>> = (0..2)
            .map(|_| {
                let mut b = EltBuilder::new();
                for e in 0..120u32 {
                    if rng.next_u64().is_multiple_of(3) {
                        continue;
                    }
                    let mean = 20.0 + rng.next_f64() * 900.0;
                    b.push(EltRecord {
                        event_id: EventId::new(e),
                        mean_loss: mean,
                        sigma_i: mean * 0.3,
                        sigma_c: mean * 0.1,
                        exposure: mean * 5.0,
                    })
                    .unwrap();
                }
                Arc::new(b.build().unwrap())
            })
            .collect();
        let mut p = Portfolio::new();
        for li in 0..LAYERS {
            let elt = Arc::clone(&books[li % books.len()]);
            let layer = Layer::new(LayerId::new(li as u32), LayerTerms::pass_through(), elt);
            p.push(layer.unwrap());
        }
        let mut yb = YetBuilder::new();
        for _ in 0..240 {
            let n = (rng.next_u64() % 6) as usize;
            let occs: Vec<Occurrence> = (0..n)
                .map(|day| Occurrence {
                    event_id: EventId::new((rng.next_u64() % 130) as u32),
                    day: day as u16,
                    z: rng.next_f64_open(),
                })
                .collect();
            yb.push_trial(&occs);
        }
        yb.push_trial(&[]);
        let miss = |day| Occurrence {
            event_id: EventId::new(MISS),
            day,
            z: 0.5,
        };
        yb.push_trial(&[miss(1), miss(2)]);
        (p, yb.build())
    }

    /// Terms from drawn picks: zero, finite and infinite limits, zero
    /// and positive retentions.
    fn terms((ret, occ_limit, agg_ret, agg_limit, share): (u8, u8, u8, u8, f64)) -> LayerTerms {
        let pick = |i: u8, values: [f64; 3]| values[usize::from(i)];
        LayerTerms {
            occ_retention: pick(ret, [0.0, 30.0, 400.0]),
            occ_limit: pick(occ_limit, [0.0, f64::INFINITY, 250.0]),
            agg_retention: pick(agg_ret, [0.0, 100.0, 1_000.0]),
            agg_limit: pick(agg_limit, [0.0, f64::INFINITY, 2_000.0]),
            share,
        }
    }

    fn term_set() -> impl Strategy<Value = Vec<LayerTerms>> {
        prop::collection::vec(
            (0u8..3, 0u8..3, 0u8..3, 0u8..3, 0.05..1.0f64).prop_map(terms),
            LAYERS,
        )
    }

    /// The three columns as bits (`==` on `Ylt` lets `0.0 == -0.0`).
    fn bits(ylt: &Ylt) -> (Vec<u64>, Vec<u64>, Vec<u32>) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
        (
            bits(ylt.agg_losses()),
            bits(ylt.max_occ_losses()),
            ylt.occ_counts().to_vec(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn a_group_prices_each_term_set_as_its_lone_run(
            seed in any::<u64>(),
            sets in prop::collection::vec(term_set(), 1..=9),
            secondary in any::<bool>(),
        ) {
            let (base, yet) = fixture(seed);
            let trials = yet.trials();
            let opts = AggregateOptions {
                secondary_uncertainty: secondary,
                ..AggregateOptions::default()
            };
            let join = build_join(&base, &opts, riskpipe_exec::global_pool()).unwrap();
            let refs: Vec<&[LayerTerms]> = sets.iter().map(Vec::as_slice).collect();
            let lone: Vec<_> = refs
                .iter()
                .map(|set| bits(&run_block(&join, &yet, 0..trials, &[set]).unwrap()[0]))
                .collect();
            let group = run_block(&join, &yet, 0..trials, &refs).unwrap();
            prop_assert_eq!(group.len(), sets.len());
            for (s, ylt) in group.iter().enumerate() {
                prop_assert_eq!(bits(ylt), lone[s].clone(), "term set {}", s);
                // The trials where nothing pays read +0.0 / 0.
                for t in [trials - 2, trials - 1] {
                    prop_assert_eq!(ylt.agg_losses()[t].to_bits(), 0);
                    prop_assert_eq!(ylt.max_occ_losses()[t].to_bits(), 0);
                    prop_assert_eq!(ylt.occ_counts()[t], 0);
                }
            }
            // A block is the same rows of the whole range.
            let mid = trials / 3..trials - trials / 4;
            for (s, block) in run_block(&join, &yet, mid.clone(), &refs).unwrap().iter().enumerate() {
                prop_assert_eq!(block.agg_losses(), &group[s].agg_losses()[mid.clone()]);
                prop_assert_eq!(block.occ_counts(), &group[s].occ_counts()[mid.clone()]);
            }

            // The engines' groups, over portfolios of the sets that are
            // valid layer terms, against the device kernel's lone runs.
            let portfolios: Vec<Portfolio> = sets
                .iter()
                .filter(|set| set.iter().all(|t| t.validate().is_ok()))
                .map(|set| {
                    let parts = base.layers().iter().zip(set);
                    Portfolio::from_parts(parts.map(|(l, &t)| (t, Arc::clone(&l.elt))).collect())
                        .unwrap()
                })
                .collect();
            if portfolios.is_empty() {
                return Ok(());
            }
            let group: Vec<&Portfolio> = portfolios.iter().collect();
            let pool = Arc::new(ThreadPool::new(2));
            let gpu = GpuEngine::new(
                riskpipe_simgpu::DeviceSpec::fermi_like(),
                GpuChunking::SharedTiles,
                Arc::clone(&pool),
            );
            let oracle: Vec<_> = portfolios
                .iter()
                .map(|p| bits(&gpu.run_prepared(p, &yet, &join).unwrap()))
                .collect();
            let seq = SequentialEngine.run_group(&group, &yet, &join).unwrap();
            prop_assert_eq!(seq.iter().map(bits).collect::<Vec<_>>(), oracle.clone());
            for threads in [1, 2, 8] {
                let par = CpuParallelEngine::new(Arc::new(ThreadPool::new(threads)))
                    .run_group(&group, &yet, &join)
                    .unwrap();
                prop_assert_eq!(
                    par.iter().map(bits).collect::<Vec<_>>(),
                    oracle.clone(),
                    "{} threads", threads
                );
            }
        }
    }

    #[test]
    fn malformed_groups_are_rejected() {
        let (p, yet) = fixture(5);
        let opts = AggregateOptions::default();
        let join = build_join(&p, &opts, riskpipe_exec::global_pool()).unwrap();
        let set = [LayerTerms::pass_through(); LAYERS];
        let trials = yet.trials();
        assert!(run_block(&join, &yet, 0..trials, &[]).is_err());
        assert!(run_block(&join, &yet, 0..trials, &[&set[..2]]).is_err());
        assert!(run_block(&join, &yet, 0..trials + 1, &[&set]).is_err());
        assert!(SequentialEngine.run_group(&[], &yet, &join).is_err());
        let empty = run_block(&join, &yet, 3..3, &[&set, &set]).unwrap();
        assert!(empty.iter().all(|ylt| ylt.trials() == 0));
    }
}
