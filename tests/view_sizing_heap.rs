//! View sizing holds only the views it picks.
//! `Drilldown::materialize_budget` sizes every lattice node without
//! rolling it up (the rollup's key grouping, and each pooled sketch's
//! size folded from its sources' per-level item counts) and rolls up
//! only its picks. On the compacting fixture the 31 non-base nodes would
//! hold 5 358 112 B together, against 250 232 B for the four views the
//! budget keeps; the call's high-water above its entry must stay within
//! those four views plus 64 KiB of working memory (the grouping's
//! `(key, cell)` pairs, the shapes, the pool's bookkeeping). A counting
//! global allocator watches the live-byte high-water across the call.
//!
//! This binary holds one test, so no other test allocates while it
//! measures.

mod compacting;

use compacting::{compacting_layout, compacting_ylts};
use riskpipe::analytics::SessionAnalytics;
use riskpipe::core::{PersistingSink, ReportSink, ShardedFilesStore};
use riskpipe::prelude::*;
use riskpipe::warehouse::enumerate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting live bytes and their high-water.
struct Counting;

// Statistics only: neither counter publishes other data.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn note(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY (all four methods): the caller's obligations are those of
    // the `GlobalAlloc` method of the same name and pass unchanged to
    // `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` as in `dealloc`; `new_size` is the
        // caller's to get right.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        new_ptr
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// The views riskbench's budget buys on the compacting fixture, in pick
/// order (`GOLDEN_PICKS` in `tests/drilldown.rs`).
const PICKS: [[u8; 4]; 4] = [[1, 1, 2, 1], [0, 0, 2, 1], [1, 1, 2, 0], [1, 1, 1, 1]];

/// The bytes of the 31 non-base lattice nodes (the sum of the non-base
/// entries of `GOLDEN_LATTICE_BYTES` in `tests/drilldown.rs`).
const NON_BASE_LATTICE_BYTES: usize = 5_358_112;

/// The bytes of the four picks (their entries in `GOLDEN_LATTICE_BYTES`).
const PICKED_BYTES: usize = 250_232;

/// What the call may hold above its entry besides the views it keeps.
const WORKING_BYTES: usize = 64 * 1024;

#[test]
fn view_sizing_holds_under_half_the_lattice_on_a_two_thread_pool() -> RiskResult<()> {
    // The warehouse is rebuilt from a spill, as riskbench's
    // `rebuild_query` does, so its views are sized on the session's
    // 2-thread pool. Each spilled report is a small run's report
    // carrying one of the fixture's YLTs.
    let session = RiskSession::builder().pool_threads(2).build()?;
    let layout = compacting_layout();
    let template = session.run(&ScenarioConfig::small().with_trials(16))?;
    let dir = std::env::temp_dir().join(format!("riskpipe-sizing-heap-{}", std::process::id()));
    let store = Arc::new(ShardedFilesStore::new(&dir, 2)?);
    let mut spill = PersistingSink::new(store.clone());
    for (slot, ylt) in compacting_ylts(&layout).into_iter().enumerate() {
        let report = PipelineReport {
            ylt,
            agg_sorted: Vec::new(),
            occ_sorted: Vec::new(),
            ..template.clone()
        };
        spill.accept(slot, report)?;
    }
    spill.finish()?;
    drop(spill);
    let mut wh = session.analytics(layout).rebuild_from_store(&store, 0)?;
    // The spill has done its job: remove it before any assertion can
    // fail and leave it behind.
    std::fs::remove_dir_all(&dir).ok();
    let budget = wh.base().memory_bytes() as u64 * 7 / 10;

    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let selection = wh.materialize_budget(budget)?;
    let high_water = (PEAK.load(Ordering::Relaxed) - entry) as usize;
    println!("materialize_budget high-water above entry: {high_water} B");

    let lattice: usize = enumerate(wh.schema())
        .into_iter()
        .filter(|&select| select != wh.base().select())
        .map(|select| {
            wh.base()
                .rollup(wh.schema(), select)
                .map(|c| c.memory_bytes())
        })
        .sum::<RiskResult<_>>()?;
    assert_eq!(lattice, NON_BASE_LATTICE_BYTES);
    assert!(
        high_water < lattice / 2,
        "view sizing held {high_water} B, not under half of the {lattice} B lattice"
    );
    let picks: Vec<[u8; 4]> = selection.picked.iter().map(|s| s.0).collect();
    assert_eq!(picks, PICKS.to_vec());
    let picked = wh.memory_bytes() - wh.base().memory_bytes();
    assert_eq!(picked, PICKED_BYTES);
    assert!(
        high_water <= picked + WORKING_BYTES,
        "view sizing held {high_water} B, more than the {picked} B of its picks \
         plus {WORKING_BYTES} B"
    );
    Ok(())
}
