//! The simulated device: specifications, launch validation, block
//! scheduling and launch statistics.

use crate::kernel::{BlockCtx, Kernel, LaunchConfig};
use crate::memory::{MemCounters, MemTraffic, SharedMem};
use parking_lot::Mutex;
use riskpipe_exec::{par_for, ThreadPool};
use riskpipe_types::{RiskError, RiskResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Specification of a simulated device.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of streaming multiprocessors (block-parallel workers).
    pub sm_count: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SM (occupancy model).
    pub max_threads_per_sm: u32,
    /// Shared memory per block, bytes.
    pub shared_mem_per_block: u64,
    /// Constant memory, bytes.
    pub const_mem_bytes: u64,
}

impl DeviceSpec {
    /// A Fermi-class device like the paper's 2012 experiments used
    /// (Tesla C2050/M2090 era): 14 SMs, 48 KiB shared per block,
    /// 64 KiB constant memory, 1024-thread blocks.
    pub fn fermi_like() -> Self {
        Self {
            name: "sim-fermi-c2050".into(),
            sm_count: 14,
            max_threads_per_block: 1024,
            max_threads_per_sm: 1536,
            shared_mem_per_block: 48 * 1024,
            const_mem_bytes: 64 * 1024,
        }
    }

    /// A device with one simulated SM per host thread — the natural
    /// configuration when the model runs on the CPU pool.
    pub fn host_native(threads: usize) -> Self {
        Self {
            name: format!("sim-host-{threads}sm"),
            sm_count: threads.max(1) as u32,
            ..Self::fermi_like()
        }
    }

    /// Validate a launch configuration against the device limits.
    pub fn validate(&self, cfg: &LaunchConfig) -> RiskResult<()> {
        if cfg.block_threads == 0 || cfg.grid_blocks == 0 {
            return Err(RiskError::invalid("launch dimensions must be positive"));
        }
        if cfg.block_threads > self.max_threads_per_block {
            return Err(RiskError::CapacityExceeded {
                what: "threads per block".into(),
                requested: cfg.block_threads as u64,
                available: self.max_threads_per_block as u64,
            });
        }
        Ok(())
    }

    /// Coarse occupancy estimate given the peak shared-memory use of a
    /// block: how full the SMs can run with that footprint.
    pub fn occupancy(&self, cfg: &LaunchConfig, peak_shared: u64) -> f64 {
        let by_shared = self
            .shared_mem_per_block
            .checked_div(peak_shared)
            .map_or(8, |d| d.clamp(1, 8));
        let resident = (by_shared * cfg.block_threads as u64).min(self.max_threads_per_sm as u64);
        resident as f64 / self.max_threads_per_sm as f64
    }

    /// Launch a kernel on a host pool. Blocks are distributed across the
    /// pool (capped at `sm_count` concurrent workers conceptually; the
    /// scheduling itself is the pool's work stealing).
    pub fn launch<K: Kernel>(
        &self,
        kernel: &K,
        cfg: LaunchConfig,
        pool: &ThreadPool,
    ) -> RiskResult<LaunchStats> {
        self.validate(&cfg)?;
        let counters = MemCounters::new();
        let peak_shared = AtomicU64::new(0);
        let first_error: Mutex<Option<RiskError>> = Mutex::new(None);
        #[expect(
            clippy::disallowed_methods,
            reason = "reading feeds only the LaunchStats elapsed diagnostic; kernel \
                      results are written by the blocks themselves"
        )]
        let start = Instant::now();
        par_for(pool, cfg.grid_blocks as usize, 1, |range| {
            for b in range {
                // Skip remaining blocks once a block has failed (the
                // launch is aborting anyway).
                // lint: allow(C1) — abort-check read of the
                // first-error mutex; holders only read or write one
                // Option and never block, so the wait is bounded.
                if first_error.lock().is_some() {
                    return;
                }
                let mut ctx = BlockCtx {
                    block_idx: b as u32,
                    grid_blocks: cfg.grid_blocks,
                    block_threads: cfg.block_threads,
                    shared: SharedMem::new(self.shared_mem_per_block),
                    counters: &counters,
                };
                let result = kernel.run_block(&mut ctx);
                peak_shared.fetch_max(ctx.shared.peak(), Ordering::Relaxed);
                if let Err(e) = result {
                    // lint: allow(C1) — first-error capture: one
                    // Option write under an otherwise-uncontended
                    // mutex; no holder blocks under it.
                    let mut slot = first_error.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
            }
        });
        if let Some(e) = first_error.into_inner() {
            return Err(e);
        }
        let peak = peak_shared.load(Ordering::Relaxed);
        Ok(LaunchStats {
            blocks: cfg.grid_blocks,
            threads_per_block: cfg.block_threads,
            wall: start.elapsed(),
            traffic: counters.traffic(),
            peak_shared_bytes: peak,
            occupancy: self.occupancy(&cfg, peak),
        })
    }
}

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchStats {
    /// Blocks executed.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Wall-clock duration of the launch (host time).
    pub wall: Duration,
    /// Memory traffic moved by the kernel.
    pub traffic: MemTraffic,
    /// Peak shared-memory bytes used by any block.
    pub peak_shared_bytes: u64,
    /// Estimated occupancy in `[0, 1]`.
    pub occupancy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::GlobalBuf;

    struct SquareKernel {
        out: GlobalBuf<u64>,
        n: usize,
    }

    impl Kernel for SquareKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> RiskResult<()> {
            ctx.for_each_thread(|t| {
                let g = ctx.global_thread(t) as usize;
                if g < self.n {
                    self.out.write(g, (g * g) as u64, ctx.counters);
                }
            });
            Ok(())
        }
    }

    #[test]
    fn kernel_computes_disjoint_outputs() {
        let device = DeviceSpec::fermi_like();
        let pool = ThreadPool::new(4);
        let n = 1000;
        let kernel = SquareKernel {
            out: GlobalBuf::new(n),
            n,
        };
        let cfg = LaunchConfig::cover(n, 128);
        let stats = device.launch(&kernel, cfg, &pool).unwrap();
        assert_eq!(stats.blocks, 8);
        let out = kernel.out.into_vec();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
        // Exactly n global writes of 8 bytes.
        assert_eq!(stats.traffic.global_write, n as u64 * 8);
    }

    struct SharedHog;
    impl Kernel for SharedHog {
        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> RiskResult<()> {
            // 49 KiB > the 48 KiB per-block arena.
            let _tile = ctx.shared.alloc_f64(49 * 1024 / 8 + 1)?;
            Ok(())
        }
    }

    #[test]
    fn over_capacity_kernel_fails_launch() {
        let device = DeviceSpec::fermi_like();
        let pool = ThreadPool::new(2);
        let err = device
            .launch(&SharedHog, LaunchConfig::cover(10, 64), &pool)
            .unwrap_err();
        assert!(matches!(err, RiskError::CapacityExceeded { .. }));
    }

    struct FittingKernel;
    impl Kernel for FittingKernel {
        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> RiskResult<()> {
            let tile = ctx.shared.alloc_f64(1024)?; // 8 KiB
            ctx.counters.shared_write((tile.len() * 8) as u64);
            Ok(())
        }
    }

    #[test]
    fn launch_reports_peak_shared_and_occupancy() {
        let device = DeviceSpec::fermi_like();
        let pool = ThreadPool::new(2);
        let stats = device
            .launch(&FittingKernel, LaunchConfig::cover(512, 256), &pool)
            .unwrap();
        assert_eq!(stats.peak_shared_bytes, 8 * 1024);
        assert!(stats.occupancy > 0.0 && stats.occupancy <= 1.0);
        assert_eq!(stats.traffic.shared_write, 2 * 8 * 1024);
    }

    #[test]
    fn validate_rejects_oversized_blocks() {
        let device = DeviceSpec::fermi_like();
        assert!(device
            .validate(&LaunchConfig {
                grid_blocks: 1,
                block_threads: 2048,
            })
            .is_err());
        assert!(device
            .validate(&LaunchConfig {
                grid_blocks: 0,
                block_threads: 128,
            })
            .is_err());
    }

    #[test]
    fn launches_are_deterministic() {
        let device = DeviceSpec::host_native(8);
        let pool = ThreadPool::new(8);
        let run = || {
            let n = 4096;
            let k = SquareKernel {
                out: GlobalBuf::new(n),
                n,
            };
            device
                .launch(&k, LaunchConfig::cover(n, 64), &pool)
                .unwrap();
            k.out.into_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn occupancy_degrades_with_shared_pressure() {
        let device = DeviceSpec::fermi_like();
        let cfg = LaunchConfig::cover(1024, 128);
        let light = device.occupancy(&cfg, 1024); // 1 KiB per block
        let heavy = device.occupancy(&cfg, 40 * 1024); // 40 KiB per block
        assert!(light > heavy, "light={light} heavy={heavy}");
    }
}
