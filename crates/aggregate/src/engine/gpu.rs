//! The simulated-GPU engine: the paper's aggregate-analysis kernel —
//! one thread per trial — in naive and chunked forms.
//!
//! **Chunked form** (the paper: "the management of large data in memory
//! employs the notion of chunking, which is utilising shared and
//! constant memory as much as possible"): each block stages its
//! threads' YET rows through a shared-memory tile sized to the device's
//! per-block budget, so each row is fetched from global memory once and
//! then re-read from shared memory by every layer probe; the portfolio's
//! financial terms live in constant memory. **Naive form**: every layer
//! re-fetches the row from global memory.
//!
//! Modelling note: staging is *accounted* (capacity charged against the
//! 48 KiB arena, traffic tallied per the table in the engine module
//! docs) rather than physically copied — on the host, the cache
//! hierarchy plays the role of shared memory, and a physical copy would
//! only distort the host-side wall-clock comparison.
//!
//! This is the one place the paper's one-probe-per-layer loop
//! (`compute_trial`) survives: the traffic model meters exactly that
//! access pattern. It probes each layer's own ELT index and reads the
//! hit's payload out of the shared [`EventJoin`] through its row → hit
//! column, visiting layers in ascending order — the order the host
//! kernel's hit stream has — so loss arithmetic is bit-identical to the
//! other engines although the loop is a different one.

use super::{build_join, check_group, check_inputs, AggregateEngine, AggregateOptions};
use crate::join::EventJoin;
use crate::portfolio::{Layer, Portfolio};
use riskpipe_exec::ThreadPool;
use riskpipe_simgpu::{
    check_const_mem, BlockCtx, DeviceSpec, GlobalBuf, Kernel, LaunchConfig, LaunchStats,
    MemCounters,
};
use riskpipe_tables::yet::YearEventTable;
use riskpipe_tables::Ylt;
use riskpipe_types::{EventId, RiskError, RiskResult, TrialId};
use std::sync::Arc;

/// Bytes of one YET row in the kernel's view (event u32 + day u16 + z f64).
const OCC_READ_BYTES: u64 = 14;
/// Bytes of one staged tile row (u32 + pad + f64, aligned).
const TILE_ROW_BYTES: u64 = 16;
/// Bytes of one hash-probe slot (key + value).
const PROBE_BYTES: u64 = 8;
/// Bytes of an ELT mean-loss fetch.
const MEAN_BYTES: u64 = 8;
/// Bytes of a secondary-uncertainty grid fetch (two grid cells).
const GRID_BYTES: u64 = 16;
/// Bytes of one layer's terms (5 × f64).
const TERMS_BYTES: u64 = 40;
/// Threads per block of every launch.
const BLOCK_THREADS: u32 = 128;

/// Memory strategy of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuChunking {
    /// Naive: every access goes to global memory.
    GlobalOnly,
    /// The paper's design: YET rows staged through shared-memory tiles,
    /// terms in constant memory.
    SharedTiles,
}

/// Semantic memory events of the kernel's inner loop; see the engine
/// module docs for the byte costs.
trait Meter {
    /// A YET row moved global → shared (staging); free for a strategy
    /// that does not stage.
    #[inline]
    fn on_occurrence_staged(&self) {}
    /// A YET row consumed by one layer.
    fn on_occurrence_fetch(&self);
    /// One hash-probe slot touched.
    fn on_probe(&self);
    /// An ELT hit's payload fetched.
    fn on_hit_payload(&self, secondary: bool);
    /// One layer's terms fetched.
    fn on_terms_read(&self);
}

/// One trial of aggregate analysis as the device kernel runs it:
/// occurrences-outer / layers-inner, one metered hash probe per layer,
/// matching the GPU kernel of the companion paper. `scratch` must hold
/// one slot per layer; it is reset here. Returns `(aggregate_loss,
/// max_occurrence_loss, loss_causing_occurrences)`.
#[inline]
fn compute_trial<M: Meter>(
    layers: &[Layer],
    join: &EventJoin,
    events: &[u32],
    zs: &[f64],
    scratch: &mut [f64],
    meter: &M,
) -> (f64, f64, u32) {
    debug_assert_eq!(scratch.len(), layers.len());
    scratch.fill(0.0);
    let secondary = join.has_secondary();
    let mut max_occ = 0.0f64;
    let mut count = 0u32;
    for (&e, &z) in events.iter().zip(zs) {
        meter.on_occurrence_staged();
        let event = EventId::new(e);
        let mut occ_total = 0.0f64;
        for (li, layer) in layers.iter().enumerate() {
            meter.on_occurrence_fetch();
            meter.on_probe();
            if let Some(row) = layer.elt.row_of(event) {
                meter.on_hit_payload(secondary);
                let gross = join.gross_at(join.hit_of(li, row), z);
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
    for (layer, &annual) in layers.iter().zip(scratch.iter()) {
        meter.on_terms_read();
        agg_total += layer.terms.apply_aggregate(annual);
    }
    (agg_total, max_occ, count)
}

// Meters accumulate into per-block `Cell`s and flush to the shared
// atomics once, on drop — a per-access `fetch_add` from every simulated
// SM would serialise the launch on one cache line and distort the very
// wall-times the experiment compares.

struct GlobalMeter<'a> {
    c: &'a MemCounters,
    global: std::cell::Cell<u64>,
    konst: std::cell::Cell<u64>,
}

impl<'a> GlobalMeter<'a> {
    fn new(c: &'a MemCounters) -> Self {
        Self {
            c,
            global: std::cell::Cell::new(0),
            konst: std::cell::Cell::new(0),
        }
    }
}

impl Drop for GlobalMeter<'_> {
    fn drop(&mut self) {
        self.c.global_read(self.global.get());
        self.c.const_read(self.konst.get());
    }
}

impl Meter for GlobalMeter<'_> {
    #[inline]
    fn on_occurrence_fetch(&self) {
        self.global.set(self.global.get() + OCC_READ_BYTES);
    }
    #[inline]
    fn on_probe(&self) {
        self.global.set(self.global.get() + PROBE_BYTES);
    }
    #[inline]
    fn on_hit_payload(&self, secondary: bool) {
        self.global
            .set(self.global.get() + if secondary { GRID_BYTES } else { MEAN_BYTES });
    }
    #[inline]
    fn on_terms_read(&self) {
        self.konst.set(self.konst.get() + TERMS_BYTES);
    }
}

struct TiledMeter<'a> {
    c: &'a MemCounters,
    global: std::cell::Cell<u64>,
    shared_r: std::cell::Cell<u64>,
    shared_w: std::cell::Cell<u64>,
    konst: std::cell::Cell<u64>,
}

impl<'a> TiledMeter<'a> {
    fn new(c: &'a MemCounters) -> Self {
        Self {
            c,
            global: std::cell::Cell::new(0),
            shared_r: std::cell::Cell::new(0),
            shared_w: std::cell::Cell::new(0),
            konst: std::cell::Cell::new(0),
        }
    }
}

impl Drop for TiledMeter<'_> {
    fn drop(&mut self) {
        self.c.global_read(self.global.get());
        self.c.shared_read(self.shared_r.get());
        self.c.shared_write(self.shared_w.get());
        self.c.const_read(self.konst.get());
    }
}

impl Meter for TiledMeter<'_> {
    #[inline]
    fn on_occurrence_staged(&self) {
        self.global.set(self.global.get() + OCC_READ_BYTES);
        self.shared_w.set(self.shared_w.get() + TILE_ROW_BYTES);
    }
    #[inline]
    fn on_occurrence_fetch(&self) {
        self.shared_r.set(self.shared_r.get() + OCC_READ_BYTES);
    }
    #[inline]
    fn on_probe(&self) {
        self.global.set(self.global.get() + PROBE_BYTES);
    }
    #[inline]
    fn on_hit_payload(&self, secondary: bool) {
        self.global
            .set(self.global.get() + if secondary { GRID_BYTES } else { MEAN_BYTES });
    }
    #[inline]
    fn on_terms_read(&self) {
        self.konst.set(self.konst.get() + TERMS_BYTES);
    }
}

struct AggKernel<'a> {
    layers: &'a [Layer],
    join: &'a EventJoin,
    yet: &'a YearEventTable,
    chunking: GpuChunking,
    trials: usize,
    out_agg: GlobalBuf<f64>,
    out_max: GlobalBuf<f64>,
    out_cnt: GlobalBuf<u32>,
}

impl Kernel for AggKernel<'_> {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> RiskResult<()> {
        if self.chunking == GpuChunking::SharedTiles {
            // Per-thread tile rows that fit the block's shared arena;
            // every resident thread needs its slice simultaneously.
            let per_thread = ctx.shared.capacity() / (TILE_ROW_BYTES * ctx.block_threads as u64);
            if per_thread == 0 {
                return Err(RiskError::CapacityExceeded {
                    what: format!(
                        "shared-memory tile ({} threads/block need at least {} bytes/row)",
                        ctx.block_threads, TILE_ROW_BYTES
                    ),
                    requested: TILE_ROW_BYTES * ctx.block_threads as u64,
                    available: ctx.shared.capacity(),
                });
            }
            // Charge the whole block's tile allocation.
            let tile_f64s = (per_thread * ctx.block_threads as u64 * TILE_ROW_BYTES / 8) as usize;
            let _tile = ctx.shared.alloc_f64(tile_f64s)?;
        }
        let mut scratch = vec![0.0f64; self.layers.len()];
        // One meter per block, flushed to the shared counters on drop.
        let global_meter;
        let tiled_meter;
        let mut out_bytes = 0u64;
        match self.chunking {
            GpuChunking::GlobalOnly => {
                global_meter = Some(GlobalMeter::new(ctx.counters));
                tiled_meter = None;
            }
            GpuChunking::SharedTiles => {
                global_meter = None;
                tiled_meter = Some(TiledMeter::new(ctx.counters));
            }
        }
        ctx.for_each_thread(|t| {
            let g = ctx.global_thread(t) as usize;
            if g >= self.trials {
                return;
            }
            let (events, _days, zs) = self.yet.trial_slices(TrialId::new(g as u32));
            let (agg, max_occ, count) = match (&global_meter, &tiled_meter) {
                (Some(m), _) => compute_trial(self.layers, self.join, events, zs, &mut scratch, m),
                (_, Some(m)) => compute_trial(self.layers, self.join, events, zs, &mut scratch, m),
                _ => unreachable!("one meter is always constructed"),
            };
            // Output writes batched with the block's other traffic.
            self.out_agg.write_uncounted(g, agg);
            self.out_max.write_uncounted(g, max_occ);
            self.out_cnt.write_uncounted(g, count);
            out_bytes += 20;
        });
        ctx.counters.global_write(out_bytes);
        Ok(())
    }
}

/// The simulated-GPU aggregate engine.
pub struct GpuEngine {
    device: DeviceSpec,
    chunking: GpuChunking,
    pool: PoolRef,
}

enum PoolRef {
    Owned(Arc<ThreadPool>),
    Global(&'static ThreadPool),
}

impl GpuEngine {
    /// An engine on a specific device and pool.
    pub fn new(device: DeviceSpec, chunking: GpuChunking, pool: Arc<ThreadPool>) -> Self {
        Self {
            device,
            chunking,
            pool: PoolRef::Owned(pool),
        }
    }

    /// A Fermi-like device on the global pool.
    pub fn on_global_pool(chunking: GpuChunking) -> Self {
        Self {
            device: DeviceSpec::fermi_like(),
            chunking,
            pool: PoolRef::Global(riskpipe_exec::global_pool()),
        }
    }

    /// Run and return both the YLT and the launch statistics (traffic
    /// counters, occupancy — the measurements behind the chunking
    /// experiment), building and joining the secondary tables `opts`
    /// asks for first.
    pub fn run_with_stats(
        &self,
        portfolio: &Portfolio,
        yet: &YearEventTable,
        opts: &AggregateOptions,
    ) -> RiskResult<(Ylt, LaunchStats)> {
        let join = build_join(portfolio, opts, self.pool())?;
        self.launch(portfolio, yet, &join)
    }

    /// One kernel launch over a prepared join.
    fn launch(
        &self,
        portfolio: &Portfolio,
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<(Ylt, LaunchStats)> {
        check_inputs(portfolio, yet, join)?;
        let trials = yet.trials();
        // Portfolio terms resident in constant memory: capacity-checked
        // here, reads metered per trial; the values come from `layers`,
        // so every engine applies the very same terms.
        check_const_mem(
            portfolio.len() as u64 * TERMS_BYTES,
            self.device.const_mem_bytes,
        )?;
        let kernel = AggKernel {
            layers: portfolio.layers(),
            join,
            yet,
            chunking: self.chunking,
            trials,
            out_agg: GlobalBuf::new(trials),
            out_max: GlobalBuf::new(trials),
            out_cnt: GlobalBuf::new(trials),
        };
        let cfg = LaunchConfig::cover(trials, BLOCK_THREADS);
        let stats = self.device.launch(&kernel, cfg, self.pool())?;
        let ylt = Ylt::from_columns(
            kernel.out_agg.into_vec(),
            kernel.out_max.into_vec(),
            kernel.out_cnt.into_vec(),
        )?;
        Ok((ylt, stats))
    }
}

impl AggregateEngine for GpuEngine {
    fn name(&self) -> &'static str {
        match self.chunking {
            GpuChunking::GlobalOnly => "sim-gpu-global",
            GpuChunking::SharedTiles => "sim-gpu-chunked",
        }
    }

    fn pool(&self) -> &ThreadPool {
        match &self.pool {
            PoolRef::Owned(p) => p,
            PoolRef::Global(p) => p,
        }
    }

    /// One launch per portfolio: the device kernel prices one scenario
    /// at a time, which keeps it the per-scenario oracle of the host
    /// kernel's groups.
    fn run_group(
        &self,
        portfolios: &[&Portfolio],
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<Vec<Ylt>> {
        check_group(portfolios, yet, join)?;
        portfolios
            .iter()
            .map(|portfolio| self.launch(portfolio, yet, join).map(|(ylt, _)| ylt))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::SequentialEngine;
    use super::*;
    use crate::portfolio::Layer;
    use crate::terms::LayerTerms;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_tables::yet::{Occurrence, YetBuilder};
    use riskpipe_types::rng::{Rng64, SplitMix64};
    use riskpipe_types::{EventId, LayerId};

    fn fixture(layers: usize, trials: usize) -> (Portfolio, YearEventTable) {
        let mut rng = SplitMix64::new(5);
        let mut b = EltBuilder::new();
        for e in 0..300u32 {
            let mean = 10.0 + rng.next_f64() * 500.0;
            b.push(EltRecord {
                event_id: EventId::new(e),
                mean_loss: mean,
                sigma_i: mean * 0.25,
                sigma_c: mean * 0.1,
                exposure: mean * 6.0,
            })
            .unwrap();
        }
        let elt = Arc::new(b.build().unwrap());
        let mut p = Portfolio::new();
        for l in 0..layers {
            p.push(
                Layer::new(
                    LayerId::new(l as u32),
                    LayerTerms::xl(20.0 * l as f64, 2_000.0),
                    Arc::clone(&elt),
                )
                .unwrap(),
            );
        }
        let mut yb = YetBuilder::new();
        for _ in 0..trials {
            let n = (rng.next_u64() % 5) as usize;
            let mut occs: Vec<Occurrence> = (0..n)
                .map(|_| Occurrence {
                    event_id: EventId::new((rng.next_u64() % 350) as u32),
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
    fn both_modes_match_sequential() {
        let (p, yet) = fixture(4, 1_000);
        let opts = AggregateOptions::default();
        let seq = SequentialEngine.run(&p, &yet, &opts).unwrap();
        for chunking in [GpuChunking::GlobalOnly, GpuChunking::SharedTiles] {
            let eng = GpuEngine::new(
                DeviceSpec::fermi_like(),
                chunking,
                Arc::new(ThreadPool::new(4)),
            );
            let gpu = eng.run(&p, &yet, &opts).unwrap();
            assert_eq!(gpu, seq, "{chunking:?} diverged");
        }
    }

    #[test]
    fn chunking_reduces_global_traffic() {
        let (p, yet) = fixture(8, 2_000);
        let opts = AggregateOptions::default();
        let pool = Arc::new(ThreadPool::new(4));
        let naive = GpuEngine::new(
            DeviceSpec::fermi_like(),
            GpuChunking::GlobalOnly,
            Arc::clone(&pool),
        );
        let chunked = GpuEngine::new(DeviceSpec::fermi_like(), GpuChunking::SharedTiles, pool);
        let (_, s_naive) = naive.run_with_stats(&p, &yet, &opts).unwrap();
        let (_, s_chunked) = chunked.run_with_stats(&p, &yet, &opts).unwrap();
        assert!(
            s_chunked.traffic.global_read < s_naive.traffic.global_read,
            "chunked {} !< naive {}",
            s_chunked.traffic.global_read,
            s_naive.traffic.global_read
        );
        // Chunked trades global reads for shared traffic.
        assert!(s_chunked.traffic.shared_read > 0);
        assert!(s_chunked.traffic.shared_write > 0);
        assert_eq!(s_naive.traffic.shared_read, 0);
        // With 8 layers the YET stream shrinks ~8x; total saving is a
        // sizeable share of naive traffic.
        let saved = s_naive.traffic.global_read - s_chunked.traffic.global_read;
        assert!(
            saved as f64 > 0.3 * s_naive.traffic.global_read as f64,
            "saving only {saved} of {}",
            s_naive.traffic.global_read
        );
    }

    #[test]
    fn traffic_accounting_is_exact_for_known_fixture() {
        // 1 trial, 2 occurrences, 1 layer, no secondary uncertainty.
        let mut b = EltBuilder::new();
        b.push(EltRecord {
            event_id: EventId::new(1),
            mean_loss: 100.0,
            sigma_i: 1.0,
            sigma_c: 1.0,
            exposure: 500.0,
        })
        .unwrap();
        let elt = Arc::new(b.build().unwrap());
        let mut p = Portfolio::new();
        p.push(Layer::new(LayerId::new(0), LayerTerms::pass_through(), elt).unwrap());
        let mut yb = YetBuilder::new();
        yb.push_trial(&[
            Occurrence {
                event_id: EventId::new(1),
                day: 0,
                z: 0.5,
            },
            Occurrence {
                event_id: EventId::new(2),
                day: 1,
                z: 0.5,
            },
        ]);
        let yet = yb.build();
        let opts = AggregateOptions {
            secondary_uncertainty: false,
            ..AggregateOptions::default()
        };
        let eng = GpuEngine::new(
            DeviceSpec::fermi_like(),
            GpuChunking::GlobalOnly,
            Arc::new(ThreadPool::new(1)),
        );
        let (_, stats) = eng.run_with_stats(&p, &yet, &opts).unwrap();
        // Expected global reads: 2 occ fetches (14 each) + 2 probes of
        // at least 8 bytes + 1 hit payload (8). Probes may walk more
        // than one slot, so compare against the minimum.
        assert!(stats.traffic.global_read >= 2 * 14 + 2 * 8 + 8);
        // Output: (8 + 8 + 4) bytes per trial, one trial... but the
        // launch covers a whole block of threads; only thread 0 writes.
        assert_eq!(stats.traffic.global_write, 20);
        assert_eq!(stats.traffic.const_read, 40); // 1 layer × 1 trial
    }

    #[test]
    fn tiny_shared_memory_fails_tiled_mode() {
        let (p, yet) = fixture(2, 64);
        let device = DeviceSpec {
            shared_mem_per_block: 64, // too small for a 128-thread tile
            ..DeviceSpec::fermi_like()
        };
        let eng = GpuEngine::new(
            device,
            GpuChunking::SharedTiles,
            Arc::new(ThreadPool::new(2)),
        );
        let err = eng.run(&p, &yet, &AggregateOptions::default()).unwrap_err();
        assert!(matches!(err, RiskError::CapacityExceeded { .. }));
    }

    #[test]
    fn too_many_layers_overflow_const_mem() {
        // 64 KiB / 40 B per layer ≈ 1638 layers max.
        let (p1, yet) = fixture(1, 16);
        let elt = Arc::clone(&p1.layers()[0].elt);
        let mut p = Portfolio::new();
        for l in 0..1_700u32 {
            p.push(
                Layer::new(
                    LayerId::new(l),
                    LayerTerms::pass_through(),
                    Arc::clone(&elt),
                )
                .unwrap(),
            );
        }
        let eng = GpuEngine::on_global_pool(GpuChunking::GlobalOnly);
        let err = eng.run(&p, &yet, &AggregateOptions::default()).unwrap_err();
        assert!(matches!(err, RiskError::CapacityExceeded { .. }));
    }

    #[test]
    fn run_with_stats_reports_the_launch() {
        let (p, yet) = fixture(2, 128);
        let eng = GpuEngine::new(
            DeviceSpec::fermi_like(),
            GpuChunking::SharedTiles,
            Arc::new(ThreadPool::new(2)),
        );
        let (_, stats) = eng
            .run_with_stats(&p, &yet, &AggregateOptions::default())
            .unwrap();
        assert!(stats.blocks >= 1);
        assert!(stats.occupancy > 0.0);
        assert!(stats.peak_shared_bytes > 0);
    }
}
