//! Drill-down determinism: the stage-3 subsystem's contract is that
//! every cell-level tail metric is **bit-identical** across thread
//! counts and across the live-sink vs rebuild-from-store paths, and
//! that rollups compose (a parent cell is exactly the merge of its
//! children). Golden VaR99/TVaR99 cell values for the fixture sweep
//! are pinned below; re-pin via the `print_drilldown_golden` probe
//! after an intentional numerical change.

mod compacting;

use compacting::{compacting_layout, compacting_ylts, ylt_of};
use proptest::prelude::*;
use riskpipe::analytics::{band_bounds, band_of_return_period, rp_bands, RETURN_PERIOD_BANDS};
use riskpipe::core::ShardedFilesStore;
use riskpipe::exec::ThreadPool;
use riskpipe::prelude::*;
use riskpipe::tables::{ShardedReader, ShardedWriter};
use riskpipe::warehouse::{
    dim, enumerate, KeyCodec, LevelSelect, SketchCell, SketchCuboid, SketchRow, Source,
    ViewSelection,
};
use riskpipe_mapreduce::YltFactJob;
use riskpipe_types::stats::sort_f64;
use riskpipe_types::{Fingerprint, LocationId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("riskpipe-ddtest-{tag}-{}-{n}", std::process::id()))
}

/// The fixture sweep: 2 regions × 2 perils × 2 attachment points,
/// 200 trials each. Scenarios sharing a (region, peril) book share a
/// stage-1 key, so the sweep also exercises the cache.
fn fixture() -> (Vec<ScenarioConfig>, Vec<ScenarioDims>) {
    let mut scenarios = Vec::new();
    let mut dims = Vec::new();
    for region in 0..2u32 {
        for peril in 0..2u32 {
            for attach in 0..2u32 {
                let factor = 0.25 + 0.25 * attach as f64;
                let scenario = ScenarioConfig::small()
                    .with_seed(0xD211 + (region * 2 + peril) as u64)
                    .with_trials(200)
                    .with_attachment_factor(factor)
                    .with_name(format!("r{region}-p{peril}-a{attach}"));
                dims.push(ScenarioDims::for_scenario(region, peril, &scenario));
                scenarios.push(scenario);
            }
        }
    }
    (scenarios, dims)
}

/// The three acceptance query shapes.
fn queries() -> [Query; 3] {
    [
        // Rollup: pooled per region × peril.
        Query::group_by(LevelSelect([0, 0, 3, 1])),
        // Slice: region 1 only, peril × attachment band.
        Query::group_by(LevelSelect([0, 0, 1, 1])).filter(Filter::slice(dim::GEO, 1)),
        // Dice: tail bands (≥50y) only, per region × peril.
        Query::group_by(LevelSelect([0, 0, 3, 0])).filter(Filter {
            dim: dim::TIME,
            codes: vec![5, 6],
        }),
    ]
}

/// One cell reduced to comparable bits: codes, count, VaR99, TVaR99.
type CellSig = ([u32; 4], u64, u64, u64);

/// A query result reduced to a comparable bit-level signature.
fn signature(rows: &[SketchRow<'_>]) -> Vec<CellSig> {
    rows.iter()
        .map(|r| {
            (
                r.codes,
                r.cell.count,
                r.cell.var99().expect("non-empty cell").to_bits(),
                r.cell.tvar99().expect("non-empty cell").to_bits(),
            )
        })
        .collect()
}

fn warehouse_on(threads: usize) -> Drilldown {
    let (scenarios, dims) = fixture();
    let session = RiskSession::builder()
        .pool_threads(threads)
        .build()
        .unwrap();
    let layout = DrilldownLayout::new(dims, session.engine()).unwrap();
    let mut wh = session
        .sweep(&scenarios)
        .warehouse(layout)
        .drive()
        .unwrap()
        .into_drilldown();
    wh.materialize_budget(256 * 1024).unwrap();
    wh
}

// Golden rollup cells (region × peril, pooled over layers and bands)
// for the fixture sweep, pinned from the 1-thread reference run. The
// pipeline and the drill-down fold are deterministic by construction,
// so these bits are reproducible on any platform with IEEE-754
// doubles.
const GOLDEN_ROLLUP: [CellSig; 4] = [
    ([0, 0, 0, 0], 400, 0x41A3004036E3467C, 0x41A62EDCA0846502),
    ([0, 1, 0, 0], 400, 0x41A19FE7698A7F00, 0x41A4C0E9CC2D5F07),
    ([1, 0, 0, 0], 400, 0x41A35E094F348706, 0x41A3F791AFA41306),
    ([1, 1, 0, 0], 400, 0x41A4C65000922BCF, 0x41A995A51EAEDFEB),
];

#[test]
fn drilldown_cells_bit_identical_across_threads_and_pinned() {
    let reference: Vec<Vec<CellSig>> = {
        let wh = warehouse_on(1);
        queries()
            .iter()
            .map(|q| signature(&wh.answer(q).unwrap().0))
            .collect()
    };
    // Pin the rollup query's cells bit-exactly.
    assert_eq!(
        reference[0],
        GOLDEN_ROLLUP.to_vec(),
        "golden rollup cells drifted; re-pin via print_drilldown_golden \
         only after an intentional numerical change"
    );
    // Every query shape must agree bit-for-bit on 2 and 8 threads.
    for threads in [2usize, 8] {
        let wh = warehouse_on(threads);
        for (i, q) in queries().iter().enumerate() {
            let sig = signature(&wh.answer(q).unwrap().0);
            assert_eq!(sig, reference[i], "query {i} drifted on {threads} threads");
        }
    }
}

/// Everything a pool could move in a warehouse: every base cell (codes,
/// count, sum and max bits, the whole sketch), the budgeted view
/// selection (picks, benefits, costs, bytes held) and the rows of the
/// acceptance queries and riskbench's four shapes.
#[derive(Debug, PartialEq)]
struct WarehousePrint {
    base: Vec<([u32; 4], u64, u64, u64, String)>,
    selection: (Vec<[u8; 4]>, Vec<u64>, u64, u64, usize),
    rows: Vec<Vec<CompactedSig>>,
}

fn warehouse_print(wh: &mut Drilldown) -> WarehousePrint {
    let base = (0..wh.base().cells())
        .map(|i| {
            let (codes, cell) = wh.base().cell_at(i);
            let sketch = format!("{:?}", cell.sketch);
            (
                codes,
                cell.count,
                cell.sum.to_bits(),
                cell.max.to_bits(),
                sketch,
            )
        })
        .collect();
    let budget = wh.base().memory_bytes() as u64 * 7 / 10;
    let sel = wh.materialize_budget(budget).unwrap();
    let picks = sel.picked.iter().map(|s| s.0).collect();
    let selection = (
        picks,
        sel.benefits,
        sel.cost_before,
        sel.cost_after,
        wh.memory_bytes(),
    );
    let rows = queries()
        .into_iter()
        .chain(bench_shapes())
        .map(|q| compacted_signature(&wh.answer(&q).unwrap().0))
        .collect();
    WarehousePrint {
        base,
        selection,
        rows,
    }
}

#[test]
fn live_sink_and_rebuild_agree_bitwise() {
    let (scenarios, dims) = fixture();
    let mut reference: Option<WarehousePrint> = None;
    for threads in [1usize, 2, 8] {
        let session = RiskSession::builder()
            .pool_threads(threads)
            .build()
            .unwrap();
        let layout = DrilldownLayout::new(dims.clone(), session.engine()).unwrap();

        // Path A: live WarehouseSink, riding the same pass as a durable
        // ShardedFilesStore spill.
        let dir = temp("spill");
        let files = Arc::new(ShardedFilesStore::new(&dir, 2).unwrap());
        let outcome = session
            .sweep(&scenarios)
            .persist_to(files.clone())
            .warehouse(layout.clone())
            .drive()
            .unwrap();
        let persisted = outcome.persisted().expect("persistence was requested");
        assert_eq!(persisted.reports(), scenarios.len() as u64);
        let mut live = outcome.into_drilldown();

        // Path C: rebuild from the spill alone, slots reloaded in waves
        // on the session's pool.
        let mut rebuilt = session
            .analytics(layout)
            .rebuild_from_store(&files, 0)
            .unwrap();
        assert_eq!(rebuilt.ingest_stats(), live.ingest_stats());
        assert_eq!(rebuilt.ingest_stats().reports, scenarios.len() as u64);

        let want = warehouse_print(&mut live);
        let got = warehouse_print(&mut rebuilt);
        assert_eq!(
            got, want,
            "rebuild drifted from the live sink on {threads} threads"
        );
        match &reference {
            None => reference = Some(want),
            Some(first) => assert_eq!(&want, first, "{threads} threads drifted from 1"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn budget_selection_respects_budget_and_serves_queries() {
    let mut wh = warehouse_on(2);
    let total_lattice_bytes: u64 = {
        // A huge budget materialises whatever helps; measure its spend.
        let sel = wh.materialize_budget(u64::MAX).unwrap();
        assert!(!sel.picked.is_empty());
        wh.memory_bytes() as u64
    };
    let budget = total_lattice_bytes / 4;
    let sel = wh.materialize_budget(budget).unwrap();
    let views_bytes = wh.memory_bytes() as u64 - wh.base().memory_bytes() as u64;
    assert!(views_bytes <= budget, "{views_bytes} > budget {budget}");
    assert!(sel.cost_after <= sel.cost_before);
    // Queries still answer (from views or the base) with no fact scan.
    for q in queries() {
        let (rows, cost) = wh.answer(&q).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(cost.facts_read, 0);
    }
}

#[test]
#[ignore = "probe: prints the golden drill-down cells to pin after an intentional numerical change"]
fn print_drilldown_golden() {
    let wh = warehouse_on(1);
    let (rows, _) = wh.answer(&queries()[0]).unwrap();
    for (codes, count, var, tvar) in signature(&rows) {
        println!("    ({codes:?}, {count}, 0x{var:016X}, 0x{tvar:016X}),");
    }
}

// ---------------------------------------------------------------------
// Compacted-sketch pins: the goldens above are 400-loss cells that
// never leave the exact path, so they cannot see a change in how a
// sketch compacts or in how a query pools compacted cells.
// ---------------------------------------------------------------------

/// The compacting fixture with no view materialised yet. No pipeline
/// run behind it: the pins move only with the sketch, the cuboid
/// algebra or view selection.
fn compacting_base() -> Drilldown {
    let layout = compacting_layout();
    let ylts = compacting_ylts(&layout);
    let mut sink = WarehouseSink::new(layout).unwrap();
    for (slot, ylt) in ylts.iter().enumerate() {
        sink.ingest(slot, ylt).unwrap();
    }
    sink.finish().unwrap()
}

/// [`compacting_base`] with views picked under riskbench's budget
/// (70 % of the base).
fn compacting_warehouse() -> (Drilldown, ViewSelection) {
    let mut wh = compacting_base();
    let budget = wh.base().memory_bytes() as u64 * 7 / 10;
    let selection = wh.materialize_budget(budget).unwrap();
    (wh, selection)
}

/// riskbench's four query shapes: view-served rollup, geo slice, time
/// dice, base-grain group-by.
fn bench_shapes() -> [Query; 4] {
    [
        Query::group_by(LevelSelect([0, 0, 3, 1])),
        Query::group_by(LevelSelect([0, 0, 1, 1])).filter(Filter::slice(dim::GEO, 1)),
        Query::group_by(LevelSelect([0, 0, 3, 0])).filter(Filter {
            dim: dim::TIME,
            codes: vec![6, 7],
        }),
        Query::group_by(LevelSelect::BASE),
    ]
}

/// Everything a compaction or a pooled copy could move in one row:
/// codes, count, sum / VaR99 / TVaR99 bits, retained items, error
/// bound bits.
type CompactedSig = ([u32; 4], u64, u64, u64, u64, usize, u64);

fn compacted_signature(rows: &[SketchRow<'_>]) -> Vec<CompactedSig> {
    rows.iter()
        .map(|r| {
            (
                r.codes,
                r.cell.count,
                r.cell.sum.to_bits(),
                r.cell.var99().expect("non-empty cell").to_bits(),
                r.cell.tvar99().expect("non-empty cell").to_bits(),
                r.cell.sketch.retained(),
                r.cell.sketch.rank_error_bound().to_bits(),
            )
        })
        .collect()
}

/// FNV-1a over every field of every row, in row order.
fn signature_digest(sigs: &[CompactedSig]) -> u64 {
    let mut fp = Fingerprint::new("drilldown-compacted-rows");
    for &(codes, count, sum, var, tvar, retained, bound) in sigs {
        for c in codes {
            fp.push_u64(u64::from(c));
        }
        for v in [count, sum, var, tvar, retained as u64, bound] {
            fp.push_u64(v);
        }
    }
    fp.finish()
}

/// `memory_bytes()` of every lattice node rolled up from the base, in
/// `enumerate` order — the sizes `materialize_budget` prices with,
/// which it reads off `rollup_memory_bytes` without rolling up: the two
/// must agree on every node.
fn lattice_bytes(wh: &Drilldown) -> Vec<([u8; 4], usize)> {
    enumerate(wh.schema())
        .into_iter()
        .map(|select| {
            let node = wh.base().rollup(wh.schema(), select).unwrap();
            let sized = wh.base().rollup_memory_bytes(wh.schema(), select);
            assert_eq!(sized.unwrap(), node.memory_bytes(), "{select:?}");
            (select.0, node.memory_bytes())
        })
        .collect()
}

// The view-served rollup's rows, pinned field by field.
#[rustfmt::skip]
const GOLDEN_COMPACTED_ROLLUP: [CompactedSig; 4] = [
    ([0, 0, 0, 0], 60000, 0x42BA5C5D50BDBD00, 0x41E415703BA851F8, 0x41E51085465C0000, 2202, 0x3F6FCFF0B550F6DA),
    ([0, 1, 0, 0], 60000, 0x42D0D046C793F400, 0x41F43B6F040D70B3, 0x41F5369946340000, 2202, 0x3F6FCFF0B550F6DA),
    ([1, 0, 0, 0], 60000, 0x42DB0B3519598140, 0x41FE6D6F463547C5, 0x41FFE6B6ABE0E148, 2202, 0x3F6FCFF0B550F6DA),
    ([1, 1, 0, 0], 60000, 0x42E2A1C5FD9B1600, 0x420461B48AA228FD, 0x42054BA7B974B17E, 2202, 0x3F6FCFF0B550F6DA),
];

// Per shape: rows returned and the digest of all of them.
const GOLDEN_SHAPE_DIGESTS: [(usize, u64); 4] = [
    (4, 0xEE2D0E7D1146351E),
    (6, 0x9C05EE8323D75A74),
    (8, 0x9A2EF256063647A0),
    (96, 0x49D2F0FF3357D0F0),
];

// The views riskbench's budget buys, in pick order.
const GOLDEN_PICKS: [[u8; 4]; 4] = [[1, 1, 2, 1], [0, 0, 2, 1], [1, 1, 2, 0], [1, 1, 1, 1]];

const GOLDEN_LATTICE_BYTES: [([u8; 4], usize); 32] = [
    ([0, 0, 0, 0], 365472),
    ([0, 0, 0, 1], 285984),
    ([0, 0, 1, 0], 365472),
    ([0, 0, 1, 1], 285984),
    ([0, 0, 2, 0], 249024),
    ([0, 0, 2, 1], 70592),
    ([0, 0, 3, 0], 249024),
    ([0, 0, 3, 1], 70592),
    ([0, 1, 0, 0], 365472),
    ([0, 1, 0, 1], 285984),
    ([0, 1, 1, 0], 221136),
    ([0, 1, 1, 1], 152592),
    ([0, 1, 2, 0], 134112),
    ([0, 1, 2, 1], 34896),
    ([0, 1, 3, 0], 134112),
    ([0, 1, 3, 1], 34896),
    ([1, 0, 0, 0], 365472),
    ([1, 0, 0, 1], 285984),
    ([1, 0, 1, 0], 221136),
    ([1, 0, 1, 1], 152592),
    ([1, 0, 2, 0], 134112),
    ([1, 0, 2, 1], 34896),
    ([1, 0, 3, 0], 134112),
    ([1, 0, 3, 1], 34896),
    ([1, 1, 0, 0], 365472),
    ([1, 1, 0, 1], 285984),
    ([1, 1, 1, 0], 134568),
    ([1, 1, 1, 1], 90264),
    ([1, 1, 2, 0], 72336),
    ([1, 1, 2, 1], 17040),
    ([1, 1, 3, 0], 72336),
    ([1, 1, 3, 1], 17040),
];

#[test]
fn compacted_cells_through_the_four_bench_shapes_are_pinned() {
    let (wh, selection) = compacting_warehouse();
    // The fixture does what it is for: every base cell of the four
    // most populated bands (10 000, 6 000, 2 000 and 1 200 losses)
    // compacted.
    let compacted = (0..wh.base().cells())
        .filter(|&i| !wh.base().cell_at(i).1.sketch.is_exact())
        .count();
    assert_eq!(compacted, 12 * 4);
    let picks: Vec<[u8; 4]> = selection.picked.iter().map(|s| s.0).collect();
    assert_eq!(picks, GOLDEN_PICKS.to_vec(), "materialize_budget picks");
    assert_eq!(lattice_bytes(&wh), GOLDEN_LATTICE_BYTES.to_vec());

    for (i, q) in bench_shapes().iter().enumerate() {
        let (rows, cost) = wh.answer(q).unwrap();
        assert_eq!(cost.facts_read, 0);
        let sigs = compacted_signature(&rows);
        if i == 0 {
            // Served by a view as coarse as the query: one cell per row.
            assert_ne!(cost.source, Source::Materialized(LevelSelect::BASE));
            assert_eq!(cost.cells_read, cost.rows_out);
            assert!(rows.iter().all(|r| r.cell.sketch.rank_error_bound() > 0.0));
            assert_eq!(sigs, GOLDEN_COMPACTED_ROLLUP.to_vec());
        }
        assert_eq!(
            (sigs.len(), signature_digest(&sigs)),
            GOLDEN_SHAPE_DIGESTS[i],
            "shape {i} drifted; re-pin via print_compacted_golden only \
             after an intentional numerical change"
        );
    }
}

/// Every bit of every row: codes, count, sum and max bits, and the
/// whole sketch (its `Debug` text prints each retained value exactly).
fn row_bits(rows: &[SketchRow<'_>]) -> Vec<([u32; 4], u64, u64, u64, String)> {
    rows.iter()
        .map(|r| {
            (
                r.codes,
                r.cell.count,
                r.cell.sum.to_bits(),
                r.cell.max.to_bits(),
                format!("{:?}", r.cell.sketch),
            )
        })
        .collect()
}

/// `(first, then)` pairs where `first` is a view finer than `then` and
/// smaller than the base, so a planner that rolled `then` up from the
/// smallest retained covering cuboid would pool `first`'s compacted
/// cells instead of the base's. Every `then` is one of the budget's
/// picks.
const VIEW_ORDER_PAIRS: [([u8; 4], [u8; 4]); 3] = [
    ([0, 0, 2, 1], [1, 1, 2, 1]),
    ([1, 1, 2, 0], [1, 1, 2, 1]),
    ([0, 1, 1, 1], [1, 1, 1, 1]),
];

#[test]
fn a_view_has_the_same_bits_whichever_views_came_before_it() {
    let (picked, _) = compacting_warehouse();
    let unviewed = compacting_base();
    for (first, then) in VIEW_ORDER_PAIRS.map(|(a, b)| (LevelSelect(a), LevelSelect(b))) {
        let query = Query::group_by(then);
        // Served from the view at its own grain: one borrowed cell per
        // row, so the rows are the view's cells.
        let view_rows = |wh: &Drilldown| {
            let (rows, cost) = wh.answer(&query).unwrap();
            assert_eq!(cost.source, Source::Materialized(then), "{then:?}");
            assert_eq!(cost.rows_borrowed, rows.len() as u64, "{then:?}");
            row_bits(&rows)
        };

        let mut after = compacting_base();
        after.materialize(first).unwrap();
        after.materialize(then).unwrap();
        let mut alone = compacting_base();
        alone.materialize(then).unwrap();
        let (served, cost) = unviewed.answer(&query).unwrap();
        assert_eq!(cost.source, Source::Materialized(LevelSelect::BASE));
        assert!(picked.views().contains(&then), "{then:?} is a budget pick");

        let want = view_rows(&alone);
        assert_eq!(
            view_rows(&after),
            want,
            "{then:?} after {first:?} differs from {then:?} alone"
        );
        assert_eq!(row_bits(&served), want, "{then:?} from the base");
        assert_eq!(view_rows(&picked), want, "{then:?} as a budget pick");
    }
}

#[test]
#[ignore = "probe: prints the compacted-sketch goldens to pin after an intentional numerical change"]
fn print_compacted_golden() {
    let (wh, selection) = compacting_warehouse();
    println!(
        "picks: {:?}",
        selection.picked.iter().map(|s| s.0).collect::<Vec<_>>()
    );
    for (select, bytes) in lattice_bytes(&wh) {
        println!("    ({select:?}, {bytes}),");
    }
    for (i, q) in bench_shapes().iter().enumerate() {
        let sigs = compacted_signature(&wh.answer(q).unwrap().0);
        println!(
            "shape {i}: ({}, 0x{:016X}),",
            sigs.len(),
            signature_digest(&sigs)
        );
        if i == 0 {
            for (codes, count, sum, var, tvar, retained, bound) in sigs {
                println!(
                    "    ({codes:?}, {count}, 0x{sum:016X}, 0x{var:016X}, 0x{tvar:016X}, {retained}, 0x{bound:016X}),"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Oracle: the slice ingest against the shuffle ingest it replaced.
// ---------------------------------------------------------------------

/// A layout with one slot per loss column.
fn oracle_layout(slots: usize) -> DrilldownLayout {
    let dims = (0..slots as u32)
        .map(|i| ScenarioDims {
            region: i % 2,
            peril: (i / 2) % 2,
            attachment_band: 1,
        })
        .collect();
    DrilldownLayout::new(dims, EngineKind::CpuParallel).unwrap()
}

/// The reference ingest, assembled from public APIs: band every trial
/// by rank (`rp_bands`), spill `(trial, band, loss)` rows to a sharded
/// store, shuffle them through `YltFactJob` on a `threads`-wide pool
/// into per-band sorted columns, fold each into its cell — the
/// MapReduce formulation `WarehouseSink::ingest` used to run.
fn shuffle_ingest(layout: &DrilldownLayout, columns: &[Vec<f64>], threads: usize) -> SketchCuboid {
    let pool = ThreadPool::new(threads);
    let codec = KeyCodec::new(layout.schema(), LevelSelect::BASE).unwrap();
    let mut entries = Vec::new();
    for (slot, losses) in columns.iter().enumerate() {
        let dir = temp("oracle");
        let mut writer = ShardedWriter::create(&dir, 4).unwrap();
        for (t, (&band, &loss)) in rp_bands(losses).iter().zip(losses).enumerate() {
            writer
                .push_row(t as u32, band, LocationId::new(0), loss)
                .unwrap();
        }
        writer.finish().unwrap();
        let reader = ShardedReader::open(&dir).unwrap();
        let (band_columns, _) = YltFactJob { band_map: None }
            .run(&reader, 2, &pool)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let d = layout.dims()[slot];
        for column in band_columns {
            let mut cell = SketchCell::empty(layout.sketch_k());
            cell.absorb_sorted(&column.losses);
            let key = codec.encode([d.region, d.peril, slot as u32, column.band]);
            entries.push((key, cell));
        }
    }
    SketchCuboid::from_entries(layout.schema(), LevelSelect::BASE, entries).unwrap()
}

/// Every cell equal to the bit: codes, count, sum, max and the sketch
/// (exactness, retained size, a quantile ladder, the tail mean).
fn assert_cells_bit_equal(got: &SketchCuboid, want: &SketchCuboid, what: &str) {
    assert_eq!(got.keys(), want.keys(), "{what}: cell keys");
    for i in 0..want.cells() {
        let ((codes, a), (_, b)) = (got.cell_at(i), want.cell_at(i));
        assert_eq!(a.count, b.count, "{what}: count of {codes:?}");
        assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{what}: sum of {codes:?}");
        assert_eq!(a.max.to_bits(), b.max.to_bits(), "{what}: max of {codes:?}");
        assert_eq!(
            a.sketch.is_exact(),
            b.sketch.is_exact(),
            "{what}: {codes:?}"
        );
        assert_eq!(
            a.sketch.retained(),
            b.sketch.retained(),
            "{what}: {codes:?}"
        );
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.996, 1.0] {
            assert_eq!(
                a.sketch.quantile(q).to_bits(),
                b.sketch.quantile(q).to_bits(),
                "{what}: q{q} of {codes:?}"
            );
        }
        assert_eq!(
            a.sketch.tail_mean(0.99).to_bits(),
            b.sketch.tail_mean(0.99).to_bits(),
            "{what}: tail mean of {codes:?}"
        );
    }
}

/// Distinct-looking losses with a heavy tail, deterministic in `n`.
fn scattered(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (((i * 104_729) % 99_991) as f64).powf(1.3))
        .collect()
}

/// Columns chosen to sit on the banding's edges: ties that straddle
/// band boundaries, signed zeros, fewer trials than bands, and trial
/// counts whose return periods land exactly on
/// `RETURN_PERIOD_BAND_EDGES`.
fn awkward_columns() -> Vec<Vec<f64>> {
    let mut columns = vec![
        // All-equal: every boundary splits one tie group.
        vec![5.0; 300],
        // Attachment above most years: 95 % zeros straddle the 2y, 5y,
        // 10y and 20y edges.
        (0..1000)
            .map(|i| if i % 20 == 7 { (i * i) as f64 } else { 0.0 })
            .collect(),
        // -0.0 and 0.0 are equal as floats but distinct (and ordered)
        // under total_cmp, so they are not a tie.
        (0..400)
            .map(|i| match i % 5 {
                0 | 3 => -0.0,
                4 => 1e6 + i as f64,
                _ => 0.0,
            })
            .collect(),
        // Band 0 alone outgrows the default k = 1024 sketch.
        scattered(5000)
            .into_iter()
            .map(|x| x.floor() % 64.0)
            .collect(),
    ];
    for n in [1, 2, 3, 7, 250, 500, 1000] {
        columns.push(scattered(n));
    }
    columns
}

#[test]
fn slice_ingest_matches_shuffle_ingest_on_awkward_columns() {
    let columns = awkward_columns();
    let layout = oracle_layout(columns.len());
    let mut sink = WarehouseSink::new(layout.clone()).unwrap();
    for (slot, losses) in columns.iter().enumerate() {
        sink.ingest(slot, &ylt_of(losses)).unwrap();
    }
    let sliced = sink.finish().unwrap();
    let trials: usize = columns.iter().map(Vec::len).sum();
    assert_eq!(sliced.ingest_stats().reports, columns.len() as u64);
    assert_eq!(sliced.ingest_stats().trials, trials as u64);
    for threads in [1usize, 2, 8] {
        let reference = shuffle_ingest(&layout, &columns, threads);
        assert_eq!(reference.total_count(), trials as u64);
        assert_cells_bit_equal(
            sliced.base(),
            &reference,
            &format!("slice vs {threads}-thread shuffle"),
        );
    }
}

#[test]
fn delivered_reports_match_shuffle_ingest_with_and_without_shared_columns() {
    // Real reports from a sweep, as the delivery paths see them: first
    // with the shared sorted column intact (borrowed), then cleared the
    // way collected batches clear it (ingest falls back to one sort).
    let (scenarios, dims) = fixture();
    let session = RiskSession::builder().pool_threads(2).build().unwrap();
    let layout = DrilldownLayout::new(dims, session.engine()).unwrap();
    let mut reports: Vec<PipelineReport> = Vec::new();
    session
        .run_stream(&scenarios, |_slot: usize, report: PipelineReport| {
            reports.push(report);
            Ok(())
        })
        .unwrap();
    assert!(reports
        .iter()
        .all(|r| r.agg_sorted.len() == r.ylt.trials() && r.ylt.trials() == 200));
    let columns: Vec<Vec<f64>> = reports
        .iter()
        .map(|r| r.ylt.agg_losses().to_vec())
        .collect();
    let reference = shuffle_ingest(&layout, &columns, 2);

    let deliver = |reports: &[PipelineReport]| {
        let mut sink = WarehouseSink::new(layout.clone()).unwrap();
        for (slot, report) in reports.iter().enumerate() {
            sink.accept_shared(slot, report).unwrap();
        }
        sink.finish().unwrap()
    };
    assert_cells_bit_equal(deliver(&reports).base(), &reference, "shared column");
    for report in &mut reports {
        report.agg_sorted = Vec::new();
        report.occ_sorted = Vec::new();
    }
    assert_cells_bit_equal(deliver(&reports).base(), &reference, "cleared column");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `band_bounds(n)` cuts the sorted column exactly where
    /// `rp_bands` assigns trials — and, because ties carry equal bits,
    /// each slice is bit for bit the sorted column of its band's
    /// members.
    #[test]
    fn band_bounds_partition_as_rp_bands_assigns(
        picks in prop::collection::vec(0usize..6, 1..2000),
    ) {
        const VALUES: [f64; 6] = [-0.0, 0.0, 1.0, 1.0e3, 2.5e6, f64::INFINITY];
        let losses: Vec<f64> = picks.iter().map(|&i| VALUES[i]).collect();
        let n = losses.len();
        let bands = rp_bands(&losses);
        let bounds = band_bounds(n);
        prop_assert_eq!(bounds[0], 0);
        prop_assert_eq!(bounds[RETURN_PERIOD_BANDS as usize], n);

        // Trials in rank order (ties by trial index, as rp_bands ranks).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| losses[a].total_cmp(&losses[b]).then(a.cmp(&b)));
        let mut sorted = losses.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        for (band, range) in bounds.windows(2).enumerate() {
            for pos in range[0]..range[1] {
                prop_assert_eq!(bands[order[pos]], band as u32);
                let rp = n as f64 / (n - pos) as f64;
                prop_assert_eq!(band_of_return_period(rp), band as u32);
            }
            let mut members: Vec<f64> = (0..n)
                .filter(|&t| bands[t] == band as u32)
                .map(|t| losses[t])
                .collect();
            members.sort_unstable_by(f64::total_cmp);
            let slice = &sorted[range[0]..range[1]];
            prop_assert_eq!(members.len(), slice.len());
            prop_assert!(members.iter().zip(slice).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

// ---------------------------------------------------------------------
// Rollup composition property: any rollup of child cells merges to the
// parent cell's sketch.
// ---------------------------------------------------------------------

fn prop_layout() -> DrilldownLayout {
    let dims = vec![
        ScenarioDims {
            region: 0,
            peril: 0,
            attachment_band: 1,
        },
        ScenarioDims {
            region: 0,
            peril: 1,
            attachment_band: 2,
        },
        ScenarioDims {
            region: 1,
            peril: 0,
            attachment_band: 1,
        },
        ScenarioDims {
            region: 1,
            peril: 1,
            attachment_band: 2,
        },
    ];
    DrilldownLayout::new(dims, EngineKind::CpuParallel)
        .unwrap()
        .with_sketch_k(4096)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_rollup_of_child_cells_merges_to_the_parent_sketch(
        columns in prop::collection::vec(
            prop::collection::vec(0.0f64..1e9, 0..40),
            32
        ),
        target_geo in 0u8..2, target_event in 0u8..2,
        target_contract in 0u8..4, target_time in 0u8..2,
        mid_scale in 0.0f64..1.0,
    ) {
        let layout = prop_layout();
        let schema = layout.schema().clone();
        let codec = riskpipe::warehouse::KeyCodec::new(&schema, LevelSelect::BASE).unwrap();

        // Base cells: (slot 0..4) × (band 0..8) each with a generated
        // loss column.
        let mut entries = Vec::new();
        for (i, column) in columns.iter().enumerate() {
            if column.is_empty() {
                continue;
            }
            let slot = (i / 8) as u32;
            let band = (i % 8) as u32;
            let d = layout.dims()[slot as usize];
            let mut sorted = column.clone();
            sort_f64(&mut sorted);
            let mut cell = SketchCell::empty(layout.sketch_k());
            cell.absorb_sorted(&sorted);
            entries.push((codec.encode([d.region, d.peril, slot, band]), cell));
        }
        let base = SketchCuboid::from_entries(&schema, LevelSelect::BASE, entries).unwrap();

        let target = LevelSelect([target_geo, target_event, target_contract, target_time]);
        // An intermediate select somewhere between base and target.
        let mid = LevelSelect([
            (target_geo as f64 * mid_scale) as u8,
            (target_event as f64 * mid_scale) as u8,
            (target_contract as f64 * mid_scale) as u8,
            (target_time as f64 * mid_scale) as u8,
        ]);

        let direct = base.rollup(&schema, target).unwrap();
        let via_mid = base.rollup(&schema, mid).unwrap().rollup(&schema, target).unwrap();

        prop_assert_eq!(direct.cells(), via_mid.cells());
        prop_assert_eq!(direct.total_count(), base.total_count());
        for i in 0..direct.cells() {
            let (codes_a, a) = direct.cell_at(i);
            let (codes_b, b) = via_mid.cell_at(i);
            prop_assert_eq!(codes_a, codes_b);
            prop_assert_eq!(a.count, b.count);
            prop_assert_eq!(a.max.to_bits(), b.max.to_bits());
            // Exact path (k = 4096 ≫ pooled sizes): the pooled multiset
            // determines every quantile bit, however the merge grouped.
            prop_assert!(a.sketch.is_exact() && b.sketch.is_exact());
            for q in [0.0, 0.5, 0.99, 1.0] {
                prop_assert_eq!(
                    a.sketch.quantile(q).to_bits(),
                    b.sketch.quantile(q).to_bits()
                );
            }
            // Sums associate differently through the intermediate level.
            prop_assert!((a.sum - b.sum).abs() <= 1e-9 * b.sum.abs().max(1.0));
        }
    }
}
