//! The kernel programming model: grid of blocks, threads within blocks.

use crate::memory::{MemCounters, SharedMem};
use riskpipe_types::RiskResult;

/// Launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
}

impl LaunchConfig {
    /// A launch covering `work_items` with the given block size
    /// (grid = ceil(work/block)).
    pub fn cover(work_items: usize, block_threads: u32) -> Self {
        assert!(block_threads > 0);
        let grid = work_items.div_ceil(block_threads as usize).max(1);
        Self {
            grid_blocks: grid as u32,
            block_threads,
        }
    }
}

/// Execution context handed to a kernel for one block.
pub struct BlockCtx<'a> {
    /// This block's index in the grid.
    pub block_idx: u32,
    /// Blocks in the grid.
    pub grid_blocks: u32,
    /// Threads in this block.
    pub block_threads: u32,
    /// The block's private shared-memory arena.
    pub shared: SharedMem,
    /// Launch-wide traffic counters.
    pub counters: &'a MemCounters,
}

impl BlockCtx<'_> {
    /// Global thread index of thread `t` of this block.
    #[inline]
    pub fn global_thread(&self, t: u32) -> u64 {
        self.block_idx as u64 * self.block_threads as u64 + t as u64
    }

    /// Run `f` once per thread in the block (the model executes block
    /// threads sequentially; parallelism is across blocks).
    pub fn for_each_thread<F: FnMut(u32)>(&self, mut f: F) {
        for t in 0..self.block_threads {
            f(t);
        }
    }
}

/// A GPU-style kernel: invoked once per block; the implementation
/// iterates its threads via [`BlockCtx::for_each_thread`].
///
/// Kernels must be `Sync` (all blocks share `&self`) and must write
/// disjoint global-memory indices per block (see
/// [`crate::memory::GlobalBuf`]).
pub trait Kernel: Sync {
    /// Execute one block.
    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> RiskResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_rounds_up() {
        let c = LaunchConfig::cover(1000, 256);
        assert_eq!(c.grid_blocks, 4);
        assert_eq!(c.block_threads, 256);
        // Zero work still gets one block.
        assert_eq!(LaunchConfig::cover(0, 64).grid_blocks, 1);
        // Exact division.
        assert_eq!(LaunchConfig::cover(512, 256).grid_blocks, 2);
    }

    #[test]
    fn global_thread_indexing() {
        let counters = MemCounters::new();
        let ctx = BlockCtx {
            block_idx: 3,
            grid_blocks: 8,
            block_threads: 128,
            shared: SharedMem::new(1024),
            counters: &counters,
        };
        assert_eq!(ctx.global_thread(0), 384);
        assert_eq!(ctx.global_thread(127), 511);
    }

    #[test]
    fn for_each_thread_visits_all() {
        let counters = MemCounters::new();
        let ctx = BlockCtx {
            block_idx: 0,
            grid_blocks: 1,
            block_threads: 37,
            shared: SharedMem::new(0),
            counters: &counters,
        };
        let mut seen = [false; 37];
        ctx.for_each_thread(|t| seen[t as usize] = true);
        assert!(seen.iter().all(|&s| s));
    }
}
