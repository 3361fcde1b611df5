//! Stress and failure-injection tests: the substrate under load and
//! under sabotage.

#![expect(
    clippy::disallowed_methods,
    reason = "tests write damaged bytes on purpose"
)]

use riskpipe::exec::{par_reduce, ThreadPool};
use riskpipe::tables::{shard, ShardedReader, ShardedWriter};
use riskpipe::types::{LocationId, RiskResult};
use riskpipe_mapreduce::LocationRiskJob;
use riskpipe_simgpu::{BlockCtx, DeviceSpec, GlobalBuf, Kernel, LaunchConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("riskpipe-stress-{tag}-{}-{n}", std::process::id()))
}

#[test]
fn pool_survives_a_hundred_thousand_tasks() {
    let pool = ThreadPool::new(4);
    let total = par_reduce(
        &pool,
        100_000,
        64,
        || 0u64,
        |range, acc| acc + range.map(|i| (i % 7) as u64).sum::<u64>(),
        |a, b| a + b,
    );
    let expect: u64 = (0..100_000u64).map(|i| i % 7).sum();
    assert_eq!(total, expect);
    assert!(pool.stats().tasks_executed() + pool.stats().helper_runs() >= 1_000);
}

struct BigLaunchKernel {
    out: GlobalBuf<u64>,
    n: usize,
}

impl Kernel for BigLaunchKernel {
    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> RiskResult<()> {
        // Touch shared memory in every block to stress the arena path.
        let tile = ctx.shared.alloc_f64(256)?;
        std::hint::black_box(&tile);
        ctx.for_each_thread(|t| {
            let g = ctx.global_thread(t) as usize;
            if g < self.n {
                self.out
                    .write_uncounted(g, (g as u64).wrapping_mul(0x9E3779B9));
            }
        });
        Ok(())
    }
}

#[test]
fn simulated_gpu_handles_thousands_of_blocks() {
    let device = DeviceSpec::fermi_like();
    let pool = ThreadPool::new(4);
    let n = 500_000;
    let kernel = BigLaunchKernel {
        out: GlobalBuf::new(n),
        n,
    };
    let cfg = LaunchConfig::cover(n, 128);
    assert!(cfg.grid_blocks > 3_000);
    let stats = device.launch(&kernel, cfg, &pool).unwrap();
    assert_eq!(stats.blocks, cfg.grid_blocks);
    let out = kernel.out.into_vec();
    for (i, &v) in out.iter().enumerate().step_by(9973) {
        assert_eq!(v, (i as u64).wrapping_mul(0x9E3779B9));
    }
}

#[test]
fn sixty_four_shard_store_round_trips() {
    let dir = temp("manyshards");
    let mut w = ShardedWriter::create_with_chunk_rows(&dir, 64, 128).unwrap();
    let rows = 50_000u32;
    for t in 0..rows {
        w.push_row(t, t % 991, LocationId::new(t % 37), t as f64 * 0.5)
            .unwrap();
    }
    let manifest = w.finish().unwrap();
    assert_eq!(manifest.rows, rows as u64);
    let r = ShardedReader::open(&dir).unwrap();
    let mut seen = 0u64;
    let mut checksum = 0.0f64;
    for s in 0..64 {
        for chunk in r.read_shard(s).unwrap() {
            seen += chunk.rows() as u64;
            checksum += chunk.losses.iter().sum::<f64>();
        }
    }
    assert_eq!(seen, rows as u64);
    let expect: f64 = (0..rows).map(|t| t as f64 * 0.5).sum();
    assert!((checksum - expect).abs() < 1e-6 * expect);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mapreduce_fails_loudly_on_corrupted_shard() {
    let dir = temp("mrcorrupt");
    let mut w = ShardedWriter::create_with_chunk_rows(&dir, 2, 16).unwrap();
    for t in 0..200u32 {
        w.push_row(t, t % 5, LocationId::new(t % 3), 1.0).unwrap();
    }
    w.finish().unwrap();
    // Corrupt one shard's payload.
    let victim = shard::shard_path(&dir, 1);
    let mut data = std::fs::read(&victim).unwrap();
    let n = data.len();
    data[n / 2] ^= 0xAA;
    std::fs::write(&victim, data).unwrap();

    let reader = ShardedReader::open(&dir).unwrap();
    let pool = ThreadPool::new(2);
    let result = LocationRiskJob {
        trials: 200,
        alpha: 0.9,
    }
    .run(&reader, 2, &pool);
    assert!(result.is_err(), "corrupted shard must fail the job");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_pipelines_do_not_interfere() {
    use riskpipe::core::{RiskSession, ScenarioConfig};
    // Two scenarios with different seeds on one session's shared pool,
    // batched: results must equal their single-run references.
    let session = RiskSession::builder().pool_threads(4).build().unwrap();
    let (sa, sb) = (
        ScenarioConfig::small().with_seed(91).with_trials(400),
        ScenarioConfig::small().with_seed(92).with_trials(400),
    );
    let ra_ref = session.run(&sa).unwrap();
    let rb_ref = session.run(&sb).unwrap();
    let batch = session
        .sweep(&[sa, sb])
        .collect()
        .drive()
        .unwrap()
        .into_reports()
        .unwrap();
    assert_eq!(batch[0].ylt, ra_ref.ylt);
    assert_eq!(batch[1].ylt, rb_ref.ylt);
}

#[test]
fn warehouse_key_packing_capacity_is_enforced() {
    use riskpipe::types::RiskError;
    use riskpipe::warehouse::{Dimension, KeyCodec, Level, LevelSelect, Schema};
    // Four dimensions of 2^20 codes each need 80 key bits — over the
    // 64-bit budget; the codec must refuse, like every other simulated
    // capacity in the pipeline.
    let wide = |name: &str| {
        Dimension::new(
            name,
            vec![Level {
                name: "base".into(),
                cardinality: 1 << 20,
            }],
            vec![],
        )
        .unwrap()
    };
    let schema = Schema::new(vec![wide("a"), wide("b"), wide("c"), wide("d")]).unwrap();
    let err = KeyCodec::new(&schema, LevelSelect::BASE).unwrap_err();
    assert!(matches!(err, RiskError::CapacityExceeded { .. }), "{err}");
    // Coarsening to "all" on two dimensions brings it inside 64 bits.
    assert!(KeyCodec::new(&schema, LevelSelect([0, 0, 1, 1])).is_ok());
}

#[test]
fn cloud_simulator_handles_degenerate_and_hostile_configs() {
    use riskpipe_cloud::{simulate, FixedPolicy, JobSpec, NodeSpec, Policy, SimConfig, Stage};
    let job = |tasks: u32| JobSpec {
        name: "j".into(),
        stage: Stage::AdHoc,
        arrival_ms: 0,
        tasks,
        task_ms: 10,
        max_parallel: 0,
        deadline_ms: Some(1),
        after: None,
    };
    let cfg = SimConfig {
        node: NodeSpec {
            cores: 1,
            boot_ms: 0,
        },
        tick_ms: 100,
        horizon_ms: 10_000,
        max_sim_ms: 20_000,
    };

    // A policy that boots a node and retires it every consultation:
    // thrash must not break accounting or completion.
    struct Thrasher;
    impl Policy for Thrasher {
        fn name(&self) -> &str {
            "thrasher"
        }
        fn act(&mut self, obs: &riskpipe_cloud::Observation) -> riskpipe_cloud::Action {
            riskpipe_cloud::Action {
                boot: u32::from(obs.ready_nodes + obs.booting_nodes < 2),
                retire_idle: 1,
            }
        }
    }
    let r = simulate(&[job(50)], &mut Thrasher, &cfg).unwrap();
    assert!(r.all_complete());
    assert_eq!(r.busy_core_ms, 500);
    assert!(r.retires > 0, "thrasher must actually thrash");

    // Impossible deadline (1 ms for 500 core-ms): completes, deadline
    // reported missed, nothing panics.
    let mut p = FixedPolicy::new(1);
    let r = simulate(&[job(50)], &mut p, &cfg).unwrap();
    assert!(r.all_complete());
    assert_eq!(r.deadline_attainment(), 0.0);

    // Zero-task validation still guards the entry point.
    let bad = JobSpec { tasks: 0, ..job(1) };
    assert!(simulate(&[bad], &mut FixedPolicy::new(1), &cfg).is_err());
}

// ---------------------------------------------------------------------
// Sharded-store concurrency: sessions spilling at once must not collide,
// and clear_runs must reclaim every per-run directory afterwards.
// ---------------------------------------------------------------------

#[test]
fn concurrent_sessions_spill_to_disjoint_stores_and_clean_up() {
    use riskpipe::core::{RiskSession, ScenarioConfig, ShardedFilesStore};
    use std::sync::Arc;

    let parent = temp("concurrent-sessions");
    std::fs::create_dir_all(&parent).unwrap();
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let dir = parent.join(format!("session-{t}"));
            std::thread::spawn(move || -> RiskResult<PathBuf> {
                let session = RiskSession::builder()
                    .store(Arc::new(ShardedFilesStore::new(&dir, 2)?))
                    .pool_threads(2)
                    .build()?;
                let scenarios = [
                    ScenarioConfig::small().with_seed(500 + t).with_trials(200),
                    ScenarioConfig::small().with_seed(600 + t).with_trials(200),
                ];
                // A batch (run 0: batch-NNN under the base) then a solo
                // run (run 1: run-001), all while three sibling
                // sessions hammer their own directories.
                let reports = session
                    .sweep(&scenarios)
                    .collect()
                    .drive()?
                    .into_reports()
                    .expect("collection was requested");
                let solo = session.run(&scenarios[0])?;
                assert_eq!(solo.ylt, reports[0].ylt);
                for (i, r) in reports.iter().enumerate() {
                    let sub = dir.join(format!("batch-{i:03}"));
                    let reader = ShardedReader::open(&sub)?;
                    assert_eq!(reader.rows() as usize, r.yelt_rows, "{}", sub.display());
                }
                let reader = ShardedReader::open(dir.join("run-001"))?;
                assert_eq!(reader.rows() as usize, solo.yelt_rows);
                // Reclaim this session's spills; the session stays
                // usable and spills fresh directories afterwards.
                session.clear_store()?;
                assert!(ShardedReader::open(dir.join("run-001")).is_err());
                let again = session.run(&scenarios[1])?;
                assert_eq!(again.ylt, reports[1].ylt);
                assert!(ShardedReader::open(dir.join("run-002")).is_ok());
                Ok(dir)
            })
        })
        .collect();
    for h in handles {
        let dir = h.join().expect("session thread panicked").unwrap();
        assert!(dir.exists());
    }
    std::fs::remove_dir_all(&parent).unwrap();
}

#[test]
fn one_session_shared_across_threads_never_collides() {
    use riskpipe::core::{RiskSession, ScenarioConfig, ShardedFilesStore};
    use std::sync::Arc;

    let dir = temp("shared-session");
    let session = Arc::new(
        RiskSession::builder()
            .store(Arc::new(ShardedFilesStore::new(&dir, 2).unwrap()))
            .pool_threads(2)
            .build()
            .unwrap(),
    );
    // Eight concurrent run() calls on one session: the atomic run
    // counter gives each its own spill directory (run 0 takes the base
    // directory itself), so every spill stays readable.
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let session = Arc::clone(&session);
            std::thread::spawn(move || {
                session
                    .run(&ScenarioConfig::small().with_seed(700 + t).with_trials(200))
                    .unwrap()
                    .yelt_rows
            })
        })
        .collect();
    let rows: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut dirs = vec![dir.clone()];
    dirs.extend((1..8).map(|r| dir.join(format!("run-{r:03}"))));
    let mut read_rows: Vec<usize> = dirs
        .iter()
        .map(|d| ShardedReader::open(d).unwrap().rows() as usize)
        .collect();
    // Run ids are claim-ordered, not input-ordered: compare as multisets.
    read_rows.sort_unstable();
    let mut want = rows.clone();
    want.sort_unstable();
    assert_eq!(read_rows, want);
    // clear_store wipes all eight spills in one call.
    session.clear_store().unwrap();
    for d in &dirs {
        assert!(ShardedReader::open(d).is_err(), "{}", d.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
