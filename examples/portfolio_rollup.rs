//! Full pipeline runs through the `RiskSession` facade: the per-stage
//! timing and data-volume report under both data-management strategies
//! (in-memory and sharded files), then a concurrent scenario batch —
//! the many-scenarios-per-day production shape.
//!
//! ```text
//! cargo run --release --example portfolio_rollup
//! ```

use riskpipe_core::{RiskSession, ScenarioConfig, ShardedFilesStore};
use riskpipe_tables::ScaleSpec;
use riskpipe_types::RiskResult;
use std::sync::Arc;

fn main() -> RiskResult<()> {
    let scenario = ScenarioConfig::small().with_seed(11).with_trials(5_000);

    println!("=== strategy 1: accumulate in memory ===\n");
    let session = RiskSession::builder().build()?;
    let report = session.run(&scenario)?;
    println!("{report}\n");

    println!("\n=== strategy 2: sharded distributed file space ===\n");
    let dir = std::env::temp_dir().join(format!("riskpipe-rollup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sharded = RiskSession::builder()
        .store(Arc::new(ShardedFilesStore::new(&dir, 8)?))
        .build()?;
    let report = sharded.run(&scenario)?;
    println!("{report}\n");
    println!(
        "YELT spilled to {} across 8 shards ({} bytes)",
        dir.display(),
        report.yelt_file_bytes
    );
    std::fs::remove_dir_all(&dir).ok();

    println!("\n=== scenario batch: four books, one shared pool ===\n");
    let scenarios: Vec<ScenarioConfig> = (0..4)
        .map(|i| {
            ScenarioConfig::small()
                .with_seed(40 + i as u64)
                .with_trials(2_000)
        })
        .collect();
    let reports = session
        .sweep(&scenarios)
        .collect()
        .drive()?
        .into_reports()
        .expect("collection was requested");
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "seed", "mean loss", "TVaR99", "100y PML"
    );
    for (s, r) in scenarios.iter().zip(&reports) {
        println!(
            "{:>8} {:>16.0} {:>16.0} {:>16.0}",
            s.seed,
            r.measures.mean,
            r.measures.tvar99,
            r.pml_100.unwrap_or(0.0)
        );
    }

    println!("\n=== the paper's scale, for context ===\n");
    println!("{}", ScaleSpec::paper_example());
    Ok(())
}
