//! # riskpipe-exec
//!
//! The CPU parallelism substrate for the risk-analytics pipeline: a
//! work-stealing thread pool ([`ThreadPool`]) with scoped task spawning,
//! plus Rayon-style data-parallel helpers ([`par_for`],
//! [`par_map_collect`], [`par_chunks_mut`], [`par_reduce`]) used by the
//! stage-1 ELT generator, the stage-2 aggregate engines and the simulated
//! GPU's block scheduler.
//!
//! Design follows the hpc-parallel guides:
//!
//! * per-worker [`crossbeam_deque`] deques with a shared injector —
//!   tasks go to the injector, idle workers steal from each other;
//! * waiting threads *help*: a thread blocked on [`ThreadPool::scope`]
//!   completion executes queued tasks instead of sleeping, making nested
//!   parallelism deadlock-free;
//! * parking via [`parking_lot`] condvars when there is genuinely no
//!   work, so an idle pool burns no CPU;
//! * execution statistics (tasks run, steals) through relaxed atomics.

#![warn(missing_docs)]
// W1: serving-path library code returns typed errors; a panic aborts a sweep.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod lockwitness;
mod par;
mod partition;
mod pool;
mod stats;

pub use par::{par_chunks_mut, par_for, par_map_collect, par_reduce};
pub use partition::{grain_ranges, suggest_grain};
pub use pool::{Scope, ThreadPool};
pub use stats::ExecStats;

use std::sync::OnceLock;

/// The process-wide default pool, sized to the machine's available
/// parallelism. Created lazily on first use.
pub fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(ThreadPool::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_is_singleton() {
        let a = global_pool() as *const ThreadPool;
        let b = global_pool() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global_pool().thread_count() >= 1);
    }
}
