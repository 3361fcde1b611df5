//! # riskpipe-simgpu
//!
//! A software model of a 2012-era many-core GPU, standing in for the
//! CUDA hardware of the paper's aggregate-analysis experiments.
//!
//! What the model preserves — the properties the paper's claims rest on:
//!
//! * the **kernel/grid/block programming model**: a [`Kernel`] runs once
//!   per block, blocks are scheduled across simulated SMs (worker
//!   threads of a [`riskpipe_exec::ThreadPool`]), threads within a block
//!   iterate a dense index range;
//! * **capacity-limited fast memories**: each block gets a
//!   [`SharedMem`] arena that refuses allocations beyond the device's
//!   per-block shared-memory size (48 KiB on the Fermi-class parts the
//!   paper's experiments used), and read-only constant memory is
//!   bounded at 64 KiB ([`check_const_mem`]) — the constraints that
//!   force the paper's *chunking* design;
//! * **memory-traffic accounting**: explicit [`MemCounters`] tally
//!   global/shared/constant bytes moved, so the chunking ablation (E8)
//!   can show *why* staging ELT tiles into shared memory wins;
//! * **deterministic results**: block execution order is
//!   schedule-dependent but kernels write disjoint outputs
//!   ([`GlobalBuf`]), so launches are bit-reproducible.
//!
//! What it does **not** model: warp divergence, memory coalescing
//! timing, or clock-accurate throughput. Wall-clock numbers from this
//! device are CPU numbers; the experiments report them as such and
//! compare *shapes*, not absolute GPU timings.

#![warn(missing_docs)]

mod device;
mod kernel;
mod memory;

pub use device::{DeviceSpec, LaunchStats};
pub use kernel::{BlockCtx, Kernel, LaunchConfig};
pub use memory::{check_const_mem, GlobalBuf, MemCounters, MemTraffic, SharedMem};
