//! The aggregate-analysis engines.
//!
//! There are exactly two trial kernels, and every engine's YLT is
//! bit-identical because both add the same values in the same order
//! (ascending layer index within an occurrence — the
//! [`EventJoin`] ordering invariant):
//!
//! * **the host kernel** (`joined_trial`) — occurrences-outer,
//!   hits-inner over the [`EventJoin`]: one map lookup per occurrence,
//!   the interpolation cell computed once per occurrence, then a
//!   contiguous stream over the event's hits. [`SequentialEngine`],
//!   [`CpuParallelEngine`] and [`run_per_layer`] run it; it is the
//!   paper's "pre-join once, then scan flat tables" applied to stage 2.
//! * **the simulated device's kernel** (`engine/gpu.rs`) —
//!   occurrences-outer, layers-inner with one hash probe per layer, as
//!   in the GPU companion paper. It stays because that access pattern
//!   is what experiment E8 meters: over a join both chunking modes
//!   would fetch each YET row once and staging would have nothing to
//!   save. It reads hit payloads out of the same [`EventJoin`].
//!
//! Two kernels, one table: the cross-engine equality tests are a real
//! cross-kernel oracle, not one function called four ways.
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
use crate::portfolio::{Layer, Portfolio};
use crate::secondary::{QuantileMode, SecondaryTable};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::yet::YearEventTable;
use riskpipe_tables::{Elt, Ylt};
use riskpipe_types::{RiskError, RiskResult, TrialId};
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
/// There is one engine path: [`AggregateEngine::run_prepared`] runs the
/// trial loop over an [`EventJoin`] the caller already holds (the
/// session's stage-1 cache builds one per model run), and the provided
/// [`AggregateEngine::run`] is "build the tables the options ask for,
/// join them, then delegate".
pub trait AggregateEngine {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// The pool [`AggregateEngine::run`] builds secondary tables on: the
    /// engine's own, or the global pool for an engine without one.
    fn pool(&self) -> &ThreadPool {
        riskpipe_exec::global_pool()
    }

    /// Run the analysis over a prepared join of the portfolio's ELTs
    /// (whether it carries secondary uncertainty was decided when it
    /// was built).
    ///
    /// # Errors
    /// [`RiskError::InvalidParameter`] when the portfolio or YET is empty,
    /// or when `join` does not hold exactly one layer per portfolio
    /// layer with exactly one row per row of that layer's ELT.
    fn run_prepared(
        &self,
        portfolio: &Portfolio,
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<Ylt>;

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
    opts.secondary_uncertainty.then(|| {
        elts.into_iter()
            .map(|elt| SecondaryTable::build_on(elt, opts.quantile_mode, pool))
            .collect()
    })
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

/// One trial of aggregate analysis on the host: `scratch` must hold one
/// slot per layer; it is reset here. Returns `(aggregate_loss,
/// max_occurrence_loss, loss_causing_occurrences)`.
///
/// Occurrences-outer / hits-inner over the join. Hits arrive in
/// ascending layer order, so the additions below happen in the order
/// the one-probe-per-layer kernel performs them.
#[inline]
pub(crate) fn joined_trial(
    layers: &[Layer],
    join: &EventJoin,
    events: &[u32],
    zs: &[f64],
    scratch: &mut [f64],
) -> (f64, f64, u32) {
    debug_assert_eq!(scratch.len(), layers.len());
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

/// Per-layer aggregate analysis: one YLT per portfolio layer, in a
/// single pass over the YET. The portfolio-level YLT's aggregate column
/// equals the per-layer aggregates summed trial-wise (bitwise — same
/// summation order), which `run_per_layer`'s tests pin down; underwriters
/// use the per-layer view for marginal pricing and cession allocation.
///
/// The host kernel's hit stream with one accumulator set per layer
/// instead of one for the portfolio.
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
                if net > 0.0 {
                    agg[li] += net;
                    let shared = net * terms.share;
                    if shared > max_occ[li] {
                        max_occ[li] = shared;
                    }
                    counts[li] += 1;
                }
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

    fn run_prepared(
        &self,
        portfolio: &Portfolio,
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<Ylt> {
        self.with_engine(|engine| engine.run_prepared(portfolio, yet, join))
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
            let sum: f64 = per_layer.iter().map(|y| y.agg_losses()[t]).sum();
            let whole = portfolio_ylt.agg_losses()[t];
            assert!(
                (sum - whole).abs() <= 1e-9 * whole.abs().max(1.0),
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
