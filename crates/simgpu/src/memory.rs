//! The simulated device memories: capacity-checked shared and constant
//! memory, traffic counters, and a global-memory buffer with
//! write-disjoint semantics.

use riskpipe_types::{RiskError, RiskResult};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte-level traffic counters for one launch. Incremented with relaxed
/// atomics from all blocks; read once after the launch.
#[derive(Debug, Default)]
pub struct MemCounters {
    global_read: AtomicU64,
    global_write: AtomicU64,
    shared_read: AtomicU64,
    shared_write: AtomicU64,
    const_read: AtomicU64,
}

/// A snapshot of [`MemCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTraffic {
    /// Bytes read from global memory.
    pub global_read: u64,
    /// Bytes written to global memory.
    pub global_write: u64,
    /// Bytes read from shared memory.
    pub shared_read: u64,
    /// Bytes written to shared memory.
    pub shared_write: u64,
    /// Bytes read from constant memory.
    pub const_read: u64,
}

impl MemCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a global-memory read of `bytes`.
    #[inline]
    pub fn global_read(&self, bytes: u64) {
        self.global_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a global-memory write of `bytes`.
    #[inline]
    pub fn global_write(&self, bytes: u64) {
        self.global_write.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a shared-memory read of `bytes`.
    #[inline]
    pub fn shared_read(&self, bytes: u64) {
        self.shared_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a shared-memory write of `bytes`.
    #[inline]
    pub fn shared_write(&self, bytes: u64) {
        self.shared_write.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a constant-memory read of `bytes`.
    #[inline]
    pub fn const_read(&self, bytes: u64) {
        self.const_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The traffic tallied so far.
    pub fn traffic(&self) -> MemTraffic {
        MemTraffic {
            global_read: self.global_read.load(Ordering::Relaxed),
            global_write: self.global_write.load(Ordering::Relaxed),
            shared_read: self.shared_read.load(Ordering::Relaxed),
            shared_write: self.shared_write.load(Ordering::Relaxed),
            const_read: self.const_read.load(Ordering::Relaxed),
        }
    }
}

/// Per-block shared-memory arena.
///
/// Capacity is enforced by byte accounting: allocations are ordinary
/// heap buffers, but the arena refuses to exceed the device's per-block
/// shared memory — which is the constraint that shapes chunked
/// algorithms. Peak usage is tracked for occupancy estimation.
#[derive(Debug)]
pub struct SharedMem {
    capacity: u64,
    used: u64,
    peak: u64,
}

impl SharedMem {
    /// An arena of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            peak: 0,
        }
    }

    /// Allocate a zeroed `f64` buffer of `n` elements from the arena.
    pub fn alloc_f64(&mut self, n: usize) -> RiskResult<Vec<f64>> {
        self.charge((n * 8) as u64)?;
        Ok(vec![0.0; n])
    }

    /// Release `bytes` back to the arena (a kernel reusing its tile
    /// buffer between chunk iterations frees and re-charges).
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }

    fn charge(&mut self, bytes: u64) -> RiskResult<()> {
        if self.used + bytes > self.capacity {
            return Err(RiskError::CapacityExceeded {
                what: "shared memory".into(),
                requested: self.used + bytes,
                available: self.capacity,
            });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of the arena.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Arena capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

/// Check that `bytes` fit read-only constant memory of `capacity`
/// bytes: the bounded broadcast area whose canonical use is the
/// portfolio's financial terms, read by every thread of every block.
/// Kernels meter those reads themselves ([`MemCounters::const_read`]).
pub fn check_const_mem(bytes: u64, capacity: u64) -> RiskResult<()> {
    if bytes > capacity {
        return Err(RiskError::CapacityExceeded {
            what: "constant memory".into(),
            requested: bytes,
            available: capacity,
        });
    }
    Ok(())
}

/// A global-memory output buffer with CUDA-like semantics: any thread
/// may write any index, but — as on real hardware — racing writes to
/// the same index are a bug. The launch contract requires kernels to
/// write disjoint index sets per block.
pub struct GlobalBuf<T> {
    data: UnsafeCell<Box<[T]>>,
    len: usize,
}

// SAFETY: sending a GlobalBuf moves its boxed slice and its length to
// the receiving thread; with `T: Send` that is sound, as for a plain
// `Box<[T]>` — the UnsafeCell adds no thread affinity.
unsafe impl<T: Send> Send for GlobalBuf<T> {}
// SAFETY: sharing `&GlobalBuf` across a launch's threads is sound under
// the kernel-launch contract: each index is written by at most one
// block, and reads of written indices happen only after the launch
// completes (the pool scope is a happens-before edge), so no element is
// ever accessed by two threads without ordering. `T: Send` because a
// block thread writes the `T` it owns. This mirrors CUDA global memory.
unsafe impl<T: Send> Sync for GlobalBuf<T> {}

impl<T: Copy + Default> GlobalBuf<T> {
    /// A zero-initialised buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        Self {
            data: UnsafeCell::new(vec![T::default(); len].into_boxed_slice()),
            len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write element `i` from a kernel, counting global traffic.
    ///
    /// # Safety contract (checked in debug builds only)
    /// At most one thread writes a given index during a launch.
    #[inline]
    pub fn write(&self, i: usize, v: T, counters: &MemCounters) {
        counters.global_write(std::mem::size_of::<T>() as u64);
        // SAFETY: per the launch contract, index i is owned by the
        // calling block; bounds are checked below.
        unsafe {
            let slice = &mut *self.data.get();
            slice[i] = v;
        }
    }

    /// Read element `i` from a kernel, counting global traffic.
    #[inline]
    pub fn read(&self, i: usize, counters: &MemCounters) -> T {
        counters.global_read(std::mem::size_of::<T>() as u64);
        // SAFETY: bounds-checked indexing of a live allocation; the
        // launch contract rules out read/write races on an index.
        unsafe { (*self.data.get())[i] }
    }

    /// Write element `i` without touching the counters — for kernels
    /// that batch their traffic accounting per block (see the aggregate
    /// engine's meters). The safety contract is identical to
    /// [`GlobalBuf::write`].
    #[inline]
    pub fn write_uncounted(&self, i: usize, v: T) {
        // SAFETY: per the launch contract, index i is owned by the
        // calling block; bounds are checked below.
        unsafe {
            let slice = &mut *self.data.get();
            slice[i] = v;
        }
    }

    /// Consume the buffer after a launch, yielding its contents.
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_inner().into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = MemCounters::new();
        c.global_read(8);
        c.global_read(8);
        c.global_write(4);
        c.shared_read(16);
        c.shared_write(32);
        c.const_read(8);
        let t = c.traffic();
        assert_eq!(t.global_read, 16);
        assert_eq!(t.global_write, 4);
        assert_eq!(t.shared_read, 16);
        assert_eq!(t.shared_write, 32);
        assert_eq!(t.const_read, 8);
    }

    #[test]
    fn shared_mem_enforces_capacity() {
        let mut s = SharedMem::new(96);
        let _a = s.alloc_f64(10).unwrap(); // 80 bytes
        assert_eq!(s.used(), 80);
        let err = s.alloc_f64(3).unwrap_err(); // would be 104
        assert!(matches!(err, RiskError::CapacityExceeded { .. }));
        let _b = s.alloc_f64(2).unwrap(); // exactly 96
        assert_eq!(s.used(), 96);
        assert_eq!(s.peak(), 96);
    }

    #[test]
    fn shared_mem_release_allows_reuse() {
        let mut s = SharedMem::new(64);
        let _a = s.alloc_f64(8).unwrap();
        s.release(64);
        assert_eq!(s.used(), 0);
        let _b = s.alloc_f64(8).unwrap();
        assert_eq!(s.peak(), 64);
    }

    #[test]
    fn const_mem_enforces_capacity() {
        assert!(check_const_mem(10_000 * 8, 64 * 1024).is_err());
        assert!(check_const_mem(8192 * 8, 64 * 1024).is_ok());
    }

    #[test]
    fn global_buf_write_read_counts_traffic() {
        let buf: GlobalBuf<f64> = GlobalBuf::new(8);
        let c = MemCounters::new();
        buf.write(3, 7.5, &c);
        assert_eq!(buf.read(3, &c), 7.5);
        assert_eq!(buf.read(0, &c), 0.0);
        let t = c.traffic();
        assert_eq!(t.global_write, 8);
        assert_eq!(t.global_read, 16);
        assert_eq!(buf.len(), 8);
    }

    #[test]
    fn global_buf_into_vec() {
        let buf: GlobalBuf<u32> = GlobalBuf::new(4);
        let c = MemCounters::new();
        for i in 0..4 {
            buf.write(i, (i * i) as u32, &c);
        }
        assert_eq!(buf.into_vec(), vec![0, 1, 4, 9]);
    }
}
