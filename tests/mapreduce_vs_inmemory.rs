//! The paper's two data-management strategies must agree: YELLT
//! analytics computed in accumulated memory and over distributed file
//! space (MapReduce) give the same answers.

use riskpipe::catmodel::{
    simulate_yet, CatalogConfig, EltGenConfig, EventCatalog, ExposureConfig, ExposurePortfolio,
    GroundUpModel, YetConfig,
};
use riskpipe::exec::ThreadPool;
use riskpipe::tables::{ShardedReader, ShardedWriter, Yellt};
use riskpipe::types::{RiskResult, TrialId};
use riskpipe_mapreduce::{EventContributionJob, LocationRiskJob};
use std::collections::BTreeMap;
use std::path::PathBuf;

struct Fixture {
    yellt: Yellt,
    store_dir: PathBuf,
    trials: usize,
}

/// Build the same YELLT twice: once in memory, once as a sharded store.
fn build_fixture(seed: u64) -> RiskResult<Fixture> {
    let pool = ThreadPool::new(4);
    let trials = 400usize;
    let catalog = EventCatalog::generate(&CatalogConfig {
        events: 1_000,
        total_annual_rate: 15.0,
        seed,
        ..CatalogConfig::default()
    })?;
    let exposure = ExposurePortfolio::generate(&ExposureConfig {
        locations: 80,
        seed: seed ^ 1,
        ..ExposureConfig::default()
    })?;
    let model = GroundUpModel::new(&catalog, &exposure, EltGenConfig::default());
    let yet = simulate_yet(
        &catalog,
        &YetConfig {
            trials,
            seed: seed ^ 2,
        },
        &pool,
    )?;

    let store_dir =
        std::env::temp_dir().join(format!("riskpipe-mrvm-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut writer = ShardedWriter::create(&store_dir, 4)?;
    let mut yellt = Yellt::new();
    for t in 0..trials {
        let (events, _days, _zs) = yet.trial_slices(TrialId::new(t as u32));
        for &e in events {
            model.for_each_location_loss(e as usize, |loc, loss| {
                yellt.push(t as u32, e, loc, loss);
                let _ = writer.push_row(t as u32, e, loc, loss);
            });
        }
    }
    writer.finish()?;
    Ok(Fixture {
        yellt,
        store_dir,
        trials,
    })
}

#[test]
fn location_totals_agree_between_memory_and_mapreduce() {
    let f = build_fixture(61).unwrap();
    let pool = ThreadPool::new(4);

    // In-memory: streaming chunk scan.
    let (mem_by_loc, _) = f.yellt.scan_loss_by_location();

    // Distributed-file-space: MapReduce job (mean × trials = total).
    let reader = ShardedReader::open(&f.store_dir).unwrap();
    let job = LocationRiskJob {
        trials: f.trials,
        alpha: 0.99,
    };
    let (rows, stats) = job.run(&reader, 3, &pool).unwrap();

    assert_eq!(rows.len(), mem_by_loc.len());
    for row in &rows {
        let mem_total = mem_by_loc[&row.location.raw()];
        let mr_total = row.mean_annual_loss * f.trials as f64;
        assert!(
            (mem_total - mr_total).abs() < 1e-6 * mem_total.max(1.0),
            "location {}: memory {mem_total} vs mapreduce {mr_total}",
            row.location
        );
    }
    assert_eq!(stats.input_rows, f.yellt.rows());
    std::fs::remove_dir_all(&f.store_dir).unwrap();
}

#[test]
fn event_contributions_agree_between_memory_and_mapreduce() {
    let f = build_fixture(62).unwrap();
    let pool = ThreadPool::new(2);

    // In-memory reference.
    let mut mem: BTreeMap<u32, f64> = BTreeMap::new();
    for chunk in f.yellt.chunks() {
        for i in 0..chunk.rows() {
            *mem.entry(chunk.events[i]).or_insert(0.0) += chunk.losses[i];
        }
    }

    let reader = ShardedReader::open(&f.store_dir).unwrap();
    let (rows, _) = EventContributionJob.run(&reader, 4, &pool).unwrap();
    assert_eq!(rows.len(), mem.len());
    for (e, total) in &rows {
        let mem_total = mem[e];
        assert!(
            (mem_total - total).abs() < 1e-6 * mem_total.max(1.0),
            "event {e}"
        );
    }
    // Sorted descending.
    for w in rows.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
    std::fs::remove_dir_all(&f.store_dir).unwrap();
}
