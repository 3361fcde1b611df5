//! The aggregate-analysis engines.
//!
//! All engines share one trial computation (`compute_trial`) so their
//! outputs are bit-identical; they differ only in *where* the loop runs
//! (host thread, thread pool, simulated GPU) and in the memory-traffic
//! metering hooks the GPU engine uses for the chunking experiment.
//!
//! ## The traffic model (E8)
//!
//! The `Meter` trait marks the semantic memory events of the inner
//! loop; byte costs follow the table layouts:
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

use crate::portfolio::Portfolio;
use crate::secondary::{QuantileMode, SecondaryTable};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::yet::YearEventTable;
use riskpipe_tables::{Elt, Ylt};
use riskpipe_types::{EventId, RiskError, RiskResult};
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
/// trial loop over secondary tables the caller already holds (the
/// session's stage-1 cache builds them once per model run), and the
/// provided [`AggregateEngine::run`] is "build the tables the options
/// ask for, then delegate".
pub trait AggregateEngine {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// The pool [`AggregateEngine::run`] builds secondary tables on: the
    /// engine's own, or the global pool for an engine without one.
    fn pool(&self) -> &ThreadPool {
        riskpipe_exec::global_pool()
    }

    /// Run the analysis over prepared secondary tables: `Some(tables)`
    /// applies secondary uncertainty through `tables[i]` for layer `i`,
    /// `None` uses each ELT row's mean loss.
    ///
    /// # Errors
    /// [`RiskError::InvalidParameter`] when the portfolio or YET is empty,
    /// or when `tables` does not hold exactly one table per layer with
    /// exactly one row per row of that layer's ELT.
    fn run_prepared(
        &self,
        portfolio: &Portfolio,
        yet: &YearEventTable,
        secondary: Option<&[SecondaryTable]>,
    ) -> RiskResult<Ylt>;

    /// Run the analysis, building the secondary tables `opts` asks for
    /// on [`AggregateEngine::pool`] first.
    fn run(
        &self,
        portfolio: &Portfolio,
        yet: &YearEventTable,
        opts: &AggregateOptions,
    ) -> RiskResult<Ylt> {
        let secondary = build_secondary(layer_elts(portfolio), opts, self.pool());
        self.run_prepared(portfolio, yet, secondary.as_deref())
    }
}

/// Validation shared by all engines: non-empty inputs, and prepared
/// tables that line up with the portfolio row for row (so the trial
/// loop's `tables[layer].loss(row, z)` can never index out of bounds).
pub(crate) fn check_inputs(
    portfolio: &Portfolio,
    yet: &YearEventTable,
    secondary: Option<&[SecondaryTable]>,
) -> RiskResult<()> {
    if portfolio.is_empty() {
        return Err(RiskError::invalid("portfolio has no layers"));
    }
    if yet.trials() == 0 {
        return Err(RiskError::invalid("YET has no trials"));
    }
    let Some(tables) = secondary else {
        return Ok(());
    };
    if tables.len() != portfolio.len() {
        return Err(RiskError::invalid(format!(
            "{} secondary tables for {} layers",
            tables.len(),
            portfolio.len()
        )));
    }
    for (li, (table, layer)) in tables.iter().zip(portfolio.layers()).enumerate() {
        if table.len() != layer.elt.len() {
            return Err(RiskError::invalid(format!(
                "secondary table {li} has {} rows, its layer's ELT has {}",
                table.len(),
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
/// of the ELTs and [`AggregateOptions::quantile_mode`].
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

/// Semantic memory events of the inner loop; see the module docs.
/// Default impls are no-ops so CPU engines compile the hooks away.
pub(crate) trait Meter {
    /// A YET row moved global → shared (staging).
    #[inline]
    fn on_occurrence_staged(&self) {}
    /// A YET row consumed by one layer.
    #[inline]
    fn on_occurrence_fetch(&self) {}
    /// One hash-probe slot touched.
    #[inline]
    fn on_probe(&self) {}
    /// An ELT hit's payload fetched.
    #[inline]
    fn on_hit_payload(&self, _secondary: bool) {}
    /// One layer's terms fetched.
    #[inline]
    fn on_terms_read(&self) {}
    /// One YLT row written.
    #[inline]
    fn on_output_write(&self) {}
}

/// The no-op meter for CPU engines.
pub(crate) struct NoMeter;
impl Meter for NoMeter {}

/// One trial of aggregate analysis. `scratch` must hold one slot per
/// layer; it is reset here. Returns `(aggregate_loss, max_occurrence
/// _loss, loss_causing_occurrences)`.
///
/// The double loop is occurrences-outer / layers-inner, matching the
/// GPU kernel of the companion paper; every engine calls exactly this
/// function so floating-point order — hence the YLT — is identical
/// everywhere.
#[inline]
pub(crate) fn compute_trial<M: Meter>(
    portfolio: &Portfolio,
    secondary: Option<&[SecondaryTable]>,
    events: &[u32],
    zs: &[f64],
    scratch: &mut [f64],
    meter: &M,
) -> (f64, f64, u32) {
    debug_assert_eq!(scratch.len(), portfolio.len());
    for a in scratch.iter_mut() {
        *a = 0.0;
    }
    let layers = portfolio.layers();
    let mut max_occ = 0.0f64;
    let mut count = 0u32;
    for (i, &e) in events.iter().enumerate() {
        meter.on_occurrence_staged();
        let event = EventId::new(e);
        let mut occ_total = 0.0f64;
        for (li, layer) in layers.iter().enumerate() {
            meter.on_occurrence_fetch();
            meter.on_probe();
            if let Some(row) = layer.elt.row_of(event) {
                let gross = match secondary {
                    Some(tables) => {
                        meter.on_hit_payload(true);
                        tables[li].loss(row, zs[i])
                    }
                    None => {
                        meter.on_hit_payload(false);
                        layer.elt.mean_loss_at(row)
                    }
                };
                let net = layer.terms.apply_occurrence(gross);
                if net > 0.0 {
                    scratch[li] += net;
                    occ_total += net * layer.terms.share;
                }
            }
        }
        if occ_total > 0.0 {
            count += 1;
            if occ_total > max_occ {
                max_occ = occ_total;
            }
        }
    }
    let mut agg_total = 0.0f64;
    for (li, layer) in layers.iter().enumerate() {
        meter.on_terms_read();
        agg_total += layer.terms.apply_aggregate(scratch[li]);
    }
    meter.on_output_write();
    (agg_total, max_occ, count)
}

/// Per-layer aggregate analysis: one YLT per portfolio layer, in a
/// single pass over the YET. The portfolio-level YLT's aggregate column
/// equals the per-layer aggregates summed trial-wise (bitwise — same
/// summation order), which `run_per_layer`'s tests pin down; underwriters
/// use the per-layer view for marginal pricing and cession allocation.
pub fn run_per_layer(
    portfolio: &Portfolio,
    yet: &YearEventTable,
    opts: &AggregateOptions,
) -> RiskResult<Vec<Ylt>> {
    check_inputs(portfolio, yet, None)?;
    let secondary = build_secondary(layer_elts(portfolio), opts, riskpipe_exec::global_pool());
    let trials = yet.trials();
    let layers = portfolio.layers();
    let mut ylts: Vec<Ylt> = (0..layers.len()).map(|_| Ylt::zeroed(trials)).collect();
    let mut agg = vec![0.0f64; layers.len()];
    let mut max_occ = vec![0.0f64; layers.len()];
    let mut counts = vec![0u32; layers.len()];
    for t in 0..trials {
        let trial = riskpipe_types::TrialId::new(t as u32);
        let (events, _days, zs) = yet.trial_slices(trial);
        agg.iter_mut().for_each(|a| *a = 0.0);
        max_occ.iter_mut().for_each(|m| *m = 0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, &e) in events.iter().enumerate() {
            let event = EventId::new(e);
            for (li, layer) in layers.iter().enumerate() {
                if let Some(row) = layer.elt.row_of(event) {
                    let gross = match &secondary {
                        Some(tables) => tables[li].loss(row, zs[i]),
                        None => layer.elt.mean_loss_at(row),
                    };
                    let net = layer.terms.apply_occurrence(gross);
                    if net > 0.0 {
                        agg[li] += net;
                        let shared = net * layer.terms.share;
                        if shared > max_occ[li] {
                            max_occ[li] = shared;
                        }
                        counts[li] += 1;
                    }
                }
            }
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
    /// (or the global pool), building secondary tables first.
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
/// path, with tables for [`AggregateEngine::run`] built on the attached
/// pool whichever engine is selected.
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
        secondary: Option<&[SecondaryTable]>,
    ) -> RiskResult<Ylt> {
        self.with_engine(|engine| engine.run_prepared(portfolio, yet, secondary))
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
    let reference = SequentialEngine.run(portfolio, yet, opts)?;
    let par = CpuParallelEngine::new(Arc::clone(&pool)).run(portfolio, yet, opts)?;
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
        .run(portfolio, yet, opts)?;
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
    use riskpipe_types::LayerId;

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
