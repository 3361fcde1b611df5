//! Warehouse integration: the OLAP layer over *real* pipeline data
//! (stage-1 location-level losses), cross-checked against the tables
//! crate's own streaming scans.

use riskpipe::catmodel::{
    simulate_yet, CatalogConfig, EltGenConfig, EventCatalog, ExposureConfig, ExposurePortfolio,
    GroundUpModel, YetConfig,
};
use riskpipe::exec::ThreadPool;
use riskpipe::tables::{ShardedReader, ShardedWriter, Yelt};
use riskpipe::types::{EventId, LocationId, TrialId};
use riskpipe::warehouse::{
    dim, Cuboid, FactBuilder, FactTable, Filter, LevelSelect, Query, Schema, Source, Warehouse,
};
use riskpipe_mapreduce::CubeBuildJob;

const LOCATIONS: u32 = 150;
const EVENTS: u32 = 1_500;
const BOOKS: u32 = 2;
const TRIALS: usize = 800;

/// Build the warehouse fact table from real stage-1/stage-2 artifacts:
/// for every trial occurrence and every book whose ELT covers the
/// event, split the loss to locations exactly as the catastrophe model
/// does. Returns the facts plus the per-book (ELT-joined) YELTs used
/// for cross-checking.
fn pipeline_facts() -> (Schema, FactTable, Vec<Yelt>) {
    let pool = ThreadPool::new(2);
    let catalog = EventCatalog::generate(&CatalogConfig {
        events: EVENTS as usize,
        total_annual_rate: 25.0,
        seed: 301,
        ..CatalogConfig::default()
    })
    .unwrap();
    let yet = simulate_yet(
        &catalog,
        &YetConfig {
            trials: TRIALS,
            seed: 302,
        },
        &pool,
    )
    .unwrap();

    let schema = Schema::standard(LOCATIONS, 5, EVENTS, 3, BOOKS, 2).unwrap();
    let mut builder = FactBuilder::new(&schema);
    builder.set_trials(TRIALS as u32);
    let mut yelts = Vec::new();

    for book in 0..BOOKS {
        let exposure = ExposurePortfolio::generate(&ExposureConfig {
            locations: LOCATIONS as usize,
            seed: 310 + book as u64,
            ..ExposureConfig::default()
        })
        .unwrap();
        let model = GroundUpModel::new(&catalog, &exposure, EltGenConfig::default());
        let elt = model.generate_elt(&pool).unwrap();
        for t in 0..TRIALS {
            let (events, days, _zs) = yet.trial_slices(TrialId::new(t as u32));
            for (k, &e) in events.iter().enumerate() {
                if elt.row_of(EventId::new(e)).is_none() {
                    continue; // below the ELT threshold, as in the YELT join
                }
                let day = days[k].min(364) as u32;
                model.for_each_location_loss(e as usize, |loc, loss| {
                    builder.push([loc.raw(), e, book, day], loss).unwrap();
                });
            }
        }
        yelts.push(Yelt::from_yet_elt(&yet, &elt));
    }
    (schema, builder.build(), yelts)
}

#[test]
fn warehouse_totals_match_yelt_joins() {
    let (schema, facts, yelts) = pipeline_facts();
    assert!(facts.rows() > 10_000, "fixture too small: {}", facts.rows());

    // Apex cell == the sum of both books' YELT losses (location split
    // conserves each event's mean loss).
    let apex = Cuboid::build(&schema, &facts, LevelSelect::apex(&schema), None).unwrap();
    let (_, cell) = apex.cell_at(0);
    let want: f64 = yelts
        .iter()
        .flat_map(|y| (0..y.trials()).map(move |t| y.trial_slices(TrialId::new(t as u32)).2))
        .flatten()
        .sum();
    let rel = (cell.sum - want).abs() / want;
    assert!(
        rel < 1e-6,
        "apex {} vs yelt-join {} (rel {rel})",
        cell.sum,
        want
    );
}

#[test]
fn per_book_slice_matches_single_yelt() {
    let (schema, facts, yelts) = pipeline_facts();
    let w = Warehouse::new(schema, facts);
    for (book, yelt) in yelts.iter().enumerate() {
        let q = Query::group_by(LevelSelect([2, 2, 0, 3]))
            .filter(Filter::slice(dim::CONTRACT, book as u32));
        let (rows, cost) = w.answer(&q).unwrap();
        assert_eq!(cost.source, Source::FactScan);
        assert_eq!(rows.len(), 1);
        let (sums, _) = yelt.scan_aggregate_by_trial();
        let want: f64 = sums.iter().sum();
        let got = rows[0].cell.sum;
        let rel = (got - want).abs() / want;
        assert!(rel < 1e-6, "book {book}: {got} vs {want}");
    }
}

#[test]
fn seasonality_rollup_matches_yelt_scan() {
    let (schema, facts, yelts) = pipeline_facts();
    let mut w = Warehouse::new(schema, facts);
    w.materialize(LevelSelect([1, 1, 0, 1]), None).unwrap();

    // Warehouse months (summed over both books) vs the YELT's own
    // seasonality scan.
    let q = Query::group_by(LevelSelect([2, 2, 2, 1]));
    let (rows, cost) = w.answer(&q).unwrap();
    assert!(matches!(cost.source, Source::Materialized(_)));

    let mut want = [0.0f64; 12];
    for y in &yelts {
        let (m, _) = y.scan_seasonality();
        for (i, v) in m.iter().enumerate() {
            want[i] += v;
        }
    }
    for r in &rows {
        let month = r.codes[dim::TIME] as usize;
        let rel_base = want[month].abs().max(1.0);
        assert!(
            (r.cell.sum - want[month]).abs() < 1e-6 * rel_base,
            "month {month}: {} vs {}",
            r.cell.sum,
            want[month]
        );
    }
    // Every loss-bearing month is present.
    let covered: usize = want.iter().filter(|&&v| v > 0.0).count();
    assert_eq!(rows.len(), covered);
}

#[test]
fn event_contribution_topk_matches_manual_ranking() {
    let (schema, facts, _yelts) = pipeline_facts();
    // Manual: total loss per event across books.
    let mut totals = std::collections::BTreeMap::<u32, f64>::new();
    for row in 0..facts.rows() {
        let codes = facts.row_codes(row);
        *totals.entry(codes[dim::EVENT]).or_insert(0.0) += facts.losses()[row];
    }
    let mut ranked: Vec<(u32, f64)> = totals.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let w = Warehouse::new(schema, facts);
    let q = Query::group_by(LevelSelect([2, 0, 2, 3])).top(10);
    let (rows, _) = w.answer(&q).unwrap();
    assert_eq!(rows.len(), 10.min(ranked.len()));
    for (r, (event, total)) in rows.iter().zip(ranked.iter()) {
        assert_eq!(r.codes[dim::EVENT], *event);
        let rel = (r.cell.sum - total).abs() / total;
        assert!(rel < 1e-9, "event {event}: {} vs {total}", r.cell.sum);
    }
}

#[test]
fn distributed_cube_build_matches_in_memory_warehouse() {
    // The same loss facts held two ways — in memory (warehouse) and as
    // a sharded YELLT on disk (distributed file space) — must produce
    // identical region × peril cubes: the "parallel data warehousing"
    // technique is strategy-agnostic.
    let schema = Schema::standard(60, 4, 300, 3, 1, 1).unwrap();
    let facts_rows = 30_000usize;
    let synthetic = FactTable::synthetic(&schema, facts_rows, 1234);

    let dir = std::env::temp_dir().join(format!("riskpipe-dcube-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = ShardedWriter::create(&dir, 4).unwrap();
    for row in 0..synthetic.rows() {
        let codes = synthetic.row_codes(row);
        writer
            .push_row(
                row as u32 % 500, // synthetic trial id; the cube ignores it
                codes[dim::EVENT],
                LocationId::new(codes[dim::GEO]),
                synthetic.losses()[row],
            )
            .unwrap();
    }
    writer.finish().unwrap();

    // Distributed build: region × peril via the hierarchy LUTs.
    let geo = schema.dim(dim::GEO);
    let ev = schema.dim(dim::EVENT);
    let geo_map: Vec<u32> = (0..geo.cardinality(0)).map(|c| geo.code_at(1, c)).collect();
    let event_map: Vec<u32> = (0..ev.cardinality(0)).map(|c| ev.code_at(1, c)).collect();
    let pool = ThreadPool::new(2);
    let reader = ShardedReader::open(&dir).unwrap();
    let (cells, _) = CubeBuildJob {
        geo_map: Some(geo_map),
        event_map: Some(event_map),
    }
    .run(&reader, 4, &pool)
    .unwrap();

    // In-memory build at the equivalent lattice point.
    let apex_contract = (schema.dim(dim::CONTRACT).level_count() - 1) as u8;
    let apex_time = (schema.dim(dim::TIME).level_count() - 1) as u8;
    let cub = Cuboid::build(
        &schema,
        &synthetic,
        LevelSelect([1, 1, apex_contract, apex_time]),
        None,
    )
    .unwrap();

    assert_eq!(cells.len(), cub.cells());
    for (i, cell) in cells.iter().enumerate() {
        let (codes, c) = cub.cell_at(i);
        assert_eq!((cell.geo, cell.event), (codes[dim::GEO], codes[dim::EVENT]));
        assert_eq!(cell.count, c.count);
        let rel = (cell.sum - c.sum).abs() / c.sum.abs().max(1.0);
        assert!(rel < 1e-9, "cell {i}: {} vs {}", cell.sum, c.sum);
        assert_eq!(cell.max, c.max);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn materialized_pipeline_warehouse_serves_all_query_shapes() {
    let (schema, facts, _) = pipeline_facts();
    let pool = ThreadPool::new(2);
    let cold = Warehouse::new(schema.clone(), facts.clone());
    let mut warm = Warehouse::new(schema, facts);
    warm.materialize_all(&[LevelSelect::BASE, LevelSelect([1, 1, 1, 1])], Some(&pool))
        .unwrap();
    let queries = [
        Query::group_by(LevelSelect([1, 1, 2, 2])),
        Query::group_by(LevelSelect([1, 2, 1, 3])).filter(Filter::slice(dim::GEO, 1)),
        Query::group_by(LevelSelect([2, 1, 1, 1])).top(5),
    ];
    for q in &queries {
        let (a, ca) = cold.answer(q).unwrap();
        let (b, cb) = warm.answer(q).unwrap();
        assert_eq!(ca.source, Source::FactScan);
        assert!(matches!(cb.source, Source::Materialized(_)));
        assert!(cb.rows_read() < ca.rows_read());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.codes, y.codes);
            assert_eq!(x.cell.count, y.cell.count);
            let rel = (x.cell.sum - y.cell.sum).abs() / x.cell.sum.abs().max(1.0);
            assert!(rel < 1e-9);
        }
    }
}
