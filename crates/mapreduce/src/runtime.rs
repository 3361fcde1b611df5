//! The MapReduce runtime: map over shard files, spill partitioned
//! intermediate data to disk, sort-group-reduce.

use crate::kv::{partition_hash, read_records, write_record, KvPair};
use parking_lot::Mutex;
use riskpipe_exec::{par_map_collect, ThreadPool};
use riskpipe_tables::yellt::YelltChunk;
use riskpipe_tables::ShardedReader;
use riskpipe_types::{RiskError, RiskResult};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A map function over YELLT chunks.
pub trait Mapper: Sync {
    /// Process one input chunk, emitting key/value pairs.
    fn map(&self, chunk: &YelltChunk, emit: &mut dyn FnMut(Vec<u8>, Vec<u8>));
}

/// A reduce function over a key's grouped values.
pub trait Reducer: Sync {
    /// Process one key group, emitting output key/value pairs. The
    /// values were read back from spill files: one that does not decode
    /// is an error, which fails the job.
    fn reduce(
        &self,
        key: &[u8],
        values: &[Vec<u8>],
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) -> RiskResult<()>;
}

/// Job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Number of reduce tasks (shuffle partitions).
    pub reduce_tasks: usize,
    /// Scratch directory for spill files (created; cleaned on success).
    pub work_dir: PathBuf,
}

impl JobConfig {
    /// A config with `reduce_tasks` partitions under a fresh temp dir.
    pub fn with_reduce_tasks(reduce_tasks: usize) -> Self {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        Self {
            reduce_tasks,
            work_dir: std::env::temp_dir().join(format!("riskpipe-mr-{}-{n}", std::process::id())),
        }
    }
}

/// Execution metrics of one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Map tasks executed (= input shards).
    pub map_tasks: u64,
    /// Reduce tasks executed.
    pub reduce_tasks: u64,
    /// Input rows read by mappers.
    pub input_rows: u64,
    /// Records emitted by mappers (shuffled).
    pub shuffle_records: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Records emitted by reducers.
    pub output_records: u64,
}

/// Run a MapReduce job over a sharded YELLT store.
///
/// Output pairs are returned sorted by key (the concatenation of the
/// reduce partitions in partition order, each internally key-sorted —
/// with the big-endian key encodings in [`crate::kv`] this is globally
/// deterministic, though only per-partition sorted for arbitrary keys).
pub fn run_job<M: Mapper, R: Reducer>(
    input: &ShardedReader,
    mapper: &M,
    reducer: &R,
    config: &JobConfig,
    pool: &ThreadPool,
) -> RiskResult<(Vec<KvPair>, JobStats)> {
    if config.reduce_tasks == 0 {
        return Err(RiskError::invalid("need at least one reduce task"));
    }
    fs::create_dir_all(&config.work_dir)?;
    let shards = input.shard_count();
    let r = config.reduce_tasks;

    // ---------------- map + spill phase ----------------
    let input_rows = AtomicU64::new(0);
    let shuffle_records = AtomicU64::new(0);
    let spill_bytes = AtomicU64::new(0);
    let map_errors: Mutex<Option<RiskError>> = Mutex::new(None);
    par_map_collect(pool, shards as usize, 1, |m| {
        // One span per map task (key = shard index); the telemetry
        // context reaches this worker via Scope::spawn propagation.
        let _map_span = riskpipe_obs::span_key("shuffle.map", m as u64);
        let task = || -> RiskResult<()> {
            let chunks = input.read_shard(m as u32)?;
            // One spill buffer per reduce partition.
            let mut spills: Vec<Vec<u8>> = vec![Vec::new(); r];
            let mut emitted = 0u64;
            let mut rows = 0u64;
            for chunk in &chunks {
                rows += chunk.rows() as u64;
                let mut emit = |key: Vec<u8>, val: Vec<u8>| {
                    let p = (partition_hash(&key) % r as u64) as usize;
                    write_record(&mut spills[p], &key, &val);
                    emitted += 1;
                };
                mapper.map(chunk, &mut emit);
            }
            for (p, spill) in spills.iter().enumerate() {
                if !spill.is_empty() {
                    let path = config.work_dir.join(format!("map-{m:04}-part-{p:04}.kv"));
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "a per-job scratch intermediate, not a durable artifact: \
                                  the reducers read it back within this job, a crashed job \
                                  is rerun from its input shards, and an fsync plus rename \
                                  per partition file would tax every shuffle"
                    )]
                    fs::write(path, spill)?;
                    spill_bytes.fetch_add(spill.len() as u64, Ordering::Relaxed);
                }
            }
            input_rows.fetch_add(rows, Ordering::Relaxed);
            shuffle_records.fetch_add(emitted, Ordering::Relaxed);
            Ok(())
        };
        if let Err(e) = task() {
            // lint: allow(C1) — first-error capture: the mutex guards
            // one Option write, is uncontended except when tasks fail
            // simultaneously, and no holder blocks under it.
            let mut slot = map_errors.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    });
    if let Some(e) = map_errors.into_inner() {
        let _ = fs::remove_dir_all(&config.work_dir);
        return Err(e);
    }

    // ---------------- reduce phase ----------------
    let reduce_errors: Mutex<Option<RiskError>> = Mutex::new(None);
    let partition_outputs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = par_map_collect(pool, r, 1, |p| {
        // One span per reduce task (key = partition index).
        let _reduce_span = riskpipe_obs::span_key("shuffle.reduce", p as u64);
        let task = || -> RiskResult<Vec<(Vec<u8>, Vec<u8>)>> {
            // Gather this partition's spills from every map task.
            let mut records: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for m in 0..shards {
                let path = config.work_dir.join(format!("map-{:04}-part-{p:04}.kv", m));
                if path.exists() {
                    records.extend(read_records(&fs::read(path)?)?);
                }
            }
            // Sort by key, group runs, reduce.
            records.sort_by(|a, b| a.0.cmp(&b.0));
            let mut out = Vec::new();
            let mut emit = |k: Vec<u8>, v: Vec<u8>| out.push((k, v));
            let mut i = 0;
            while i < records.len() {
                let mut j = i + 1;
                while j < records.len() && records[j].0 == records[i].0 {
                    j += 1;
                }
                let values: Vec<Vec<u8>> = records[i..j].iter().map(|(_, v)| v.clone()).collect();
                reducer.reduce(&records[i].0, &values, &mut emit)?;
                i = j;
            }
            Ok(out)
        };
        match task() {
            Ok(v) => v,
            Err(e) => {
                // lint: allow(C1) — first-error capture, same bounded
                // Option-write discipline as the map phase above.
                let mut slot = reduce_errors.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
                Vec::new()
            }
        }
    });
    if let Some(e) = reduce_errors.into_inner() {
        let _ = fs::remove_dir_all(&config.work_dir);
        return Err(e);
    }

    let mut outputs: Vec<(Vec<u8>, Vec<u8>)> = partition_outputs.into_iter().flatten().collect();
    outputs.sort_by(|a, b| a.0.cmp(&b.0));
    let stats = JobStats {
        map_tasks: shards as u64,
        reduce_tasks: r as u64,
        input_rows: input_rows.into_inner(),
        shuffle_records: shuffle_records.into_inner(),
        spill_bytes: spill_bytes.into_inner(),
        output_records: outputs.len() as u64,
    };
    let _ = fs::remove_dir_all(&config.work_dir);
    // Shuffle metrics are all deterministic quantities (task counts,
    // record counts, spill bytes), so registry snapshots stay
    // bit-identical across thread counts.
    riskpipe_obs::counter_add("shuffle.map_tasks", stats.map_tasks);
    riskpipe_obs::counter_add("shuffle.reduce_tasks", stats.reduce_tasks);
    riskpipe_obs::counter_add("shuffle.records", stats.shuffle_records);
    riskpipe_obs::counter_add("shuffle.spill_bytes", stats.spill_bytes);
    Ok((outputs, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{key_u32, parse_key_u32, parse_val_f64, val_f64};
    use riskpipe_tables::ShardedWriter;
    use riskpipe_types::LocationId;
    use std::sync::atomic::AtomicU64;

    fn make_store(dir: &PathBuf, shards: u32, trials: u32) {
        let mut w = ShardedWriter::create_with_chunk_rows(dir, shards, 64).unwrap();
        for t in 0..trials {
            for l in 0..4u32 {
                w.push_row(t, t % 7, LocationId::new(l), (t + l) as f64)
                    .unwrap();
            }
        }
        w.finish().unwrap();
    }

    fn temp(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("riskpipe-mrtest-{tag}-{}-{n}", std::process::id()))
    }

    /// Sum losses per location.
    struct SumByLocation;
    impl Mapper for SumByLocation {
        fn map(&self, chunk: &YelltChunk, emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
            for i in 0..chunk.rows() {
                emit(key_u32(chunk.locations[i]), val_f64(chunk.losses[i]));
            }
        }
    }
    struct SumReducer;
    impl Reducer for SumReducer {
        fn reduce(
            &self,
            key: &[u8],
            values: &[Vec<u8>],
            emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
        ) -> RiskResult<()> {
            let total: f64 = values
                .iter()
                .map(|v| parse_val_f64(v))
                .sum::<RiskResult<_>>()?;
            emit(key.to_vec(), val_f64(total));
            Ok(())
        }
    }

    #[test]
    fn word_count_style_job_matches_direct_computation() {
        let store = temp("store");
        make_store(&store, 4, 200);
        let reader = ShardedReader::open(&store).unwrap();
        let pool = ThreadPool::new(4);
        let cfg = JobConfig::with_reduce_tasks(3);
        let (out, stats) = run_job(&reader, &SumByLocation, &SumReducer, &cfg, &pool).unwrap();

        // Direct computation: loc l total = sum over t of (t + l).
        let direct = |l: u32| (0..200u32).map(|t| (t + l) as f64).sum::<f64>();
        assert_eq!(out.len(), 4);
        for (k, v) in &out {
            let l = parse_key_u32(k).unwrap();
            let total = parse_val_f64(v).unwrap();
            assert!((total - direct(l)).abs() < 1e-9, "loc {l}");
        }
        assert_eq!(stats.map_tasks, 4);
        assert_eq!(stats.reduce_tasks, 3);
        assert_eq!(stats.input_rows, 800);
        assert_eq!(stats.shuffle_records, 800);
        assert!(stats.spill_bytes > 0);
        assert_eq!(stats.output_records, 4);
        fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn outputs_sorted_by_key() {
        let store = temp("sorted");
        make_store(&store, 2, 50);
        let reader = ShardedReader::open(&store).unwrap();
        let pool = ThreadPool::new(2);
        let (out, _) = run_job(
            &reader,
            &SumByLocation,
            &SumReducer,
            &JobConfig::with_reduce_tasks(4),
            &pool,
        )
        .unwrap();
        let keys: Vec<u32> = out.iter().map(|(k, _)| parse_key_u32(k).unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn deterministic_across_thread_counts_and_partitions() {
        let store = temp("det");
        make_store(&store, 3, 120);
        let reader = ShardedReader::open(&store).unwrap();
        let run = |threads: usize, parts: usize| {
            let pool = ThreadPool::new(threads);
            run_job(
                &reader,
                &SumByLocation,
                &SumReducer,
                &JobConfig::with_reduce_tasks(parts),
                &pool,
            )
            .unwrap()
            .0
        };
        let a = run(1, 1);
        let b = run(4, 5);
        assert_eq!(a, b);
        fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn job_records_shuffle_telemetry() {
        let store = temp("telemetry");
        make_store(&store, 3, 60);
        let reader = ShardedReader::open(&store).unwrap();
        let pool = ThreadPool::new(2);
        let telemetry = riskpipe_obs::Telemetry::new();
        let stats = {
            let _ctx = riskpipe_obs::install(&telemetry);
            run_job(
                &reader,
                &SumByLocation,
                &SumReducer,
                &JobConfig::with_reduce_tasks(2),
                &pool,
            )
            .unwrap()
            .1
        };
        let snap = telemetry.snapshot();
        assert_eq!(snap.metrics().counter("shuffle.map_tasks"), stats.map_tasks);
        assert_eq!(
            snap.metrics().counter("shuffle.reduce_tasks"),
            stats.reduce_tasks
        );
        assert_eq!(
            snap.metrics().counter("shuffle.spill_bytes"),
            stats.spill_bytes
        );
        assert_eq!(
            snap.spans_named("shuffle.map").count() as u64,
            stats.map_tasks
        );
        assert_eq!(
            snap.spans_named("shuffle.reduce").count() as u64,
            stats.reduce_tasks
        );
        fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn zero_reduce_tasks_rejected() {
        let store = temp("zero");
        make_store(&store, 1, 10);
        let reader = ShardedReader::open(&store).unwrap();
        let pool = ThreadPool::new(1);
        let cfg = JobConfig {
            reduce_tasks: 0,
            work_dir: temp("zerowork"),
        };
        assert!(run_job(&reader, &SumByLocation, &SumReducer, &cfg, &pool).is_err());
        fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn work_dir_cleaned_after_success() {
        let store = temp("clean");
        make_store(&store, 2, 30);
        let reader = ShardedReader::open(&store).unwrap();
        let pool = ThreadPool::new(2);
        let cfg = JobConfig::with_reduce_tasks(2);
        let work = cfg.work_dir.clone();
        run_job(&reader, &SumByLocation, &SumReducer, &cfg, &pool).unwrap();
        assert!(!work.exists(), "spill dir should be removed");
        fs::remove_dir_all(&store).unwrap();
    }
}
