//! Canned MapReduce jobs for YELLT-scale drill-down analytics — the
//! analyses the paper says are "almost impossible" in conventional
//! portfolio-management tools.

use crate::kv::{
    bytes_at, key_u32, parse_key_u32, parse_val_f64, parse_val_u32_f64, val_f64, val_u32_f64,
};
use crate::runtime::{run_job, JobConfig, Mapper, Reducer};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::yellt::YelltChunk;
use riskpipe_tables::ShardedReader;
use riskpipe_types::stats::tail_mean_sorted;
use riskpipe_types::{LocationId, RiskResult};

/// Per-location annual tail risk over a sharded YELLT.
///
/// Map: `(location) → (trial, loss)`. Reduce: rebuild the location's
/// per-trial annual losses (zero-filled over all `trials`), then emit
/// the location's mean annual loss and TVaR at `alpha`.
pub struct LocationRiskJob {
    /// Total trial count (needed to include loss-free years in the
    /// distribution — omitting them would bias every metric upward).
    pub trials: usize,
    /// Tail level for TVaR (e.g. 0.99).
    pub alpha: f64,
}

struct LocationMapper;
impl Mapper for LocationMapper {
    fn map(&self, chunk: &YelltChunk, emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for i in 0..chunk.rows() {
            emit(
                key_u32(chunk.locations[i]),
                val_u32_f64(chunk.trials[i], chunk.losses[i]),
            );
        }
    }
}

struct LocationReducer {
    trials: usize,
    alpha: f64,
}
impl Reducer for LocationReducer {
    fn reduce(
        &self,
        key: &[u8],
        values: &[Vec<u8>],
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) -> RiskResult<()> {
        let mut annual = vec![0.0f64; self.trials];
        for v in values {
            let (trial, loss) = parse_val_u32_f64(v)?;
            annual[trial as usize] += loss;
        }
        let mean = annual.iter().sum::<f64>() / self.trials as f64;
        annual.sort_unstable_by(f64::total_cmp);
        let tvar = tail_mean_sorted(&annual, self.alpha);
        // Two output records per location: mean and tvar, tagged by a
        // trailing byte on the key.
        let mut mean_key = key.to_vec();
        mean_key.push(b'm');
        let mut tvar_key = key.to_vec();
        tvar_key.push(b't');
        emit(mean_key, val_f64(mean));
        emit(tvar_key, val_f64(tvar));
        Ok(())
    }
}

/// Result row of [`LocationRiskJob`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationRisk {
    /// The location.
    pub location: LocationId,
    /// Mean annual loss at the location.
    pub mean_annual_loss: f64,
    /// TVaR of the location's annual loss.
    pub tvar: f64,
}

impl LocationRiskJob {
    /// Run the job and decode the per-location results (sorted by
    /// location id).
    pub fn run(
        &self,
        input: &ShardedReader,
        reduce_tasks: usize,
        pool: &ThreadPool,
    ) -> RiskResult<(Vec<LocationRisk>, crate::runtime::JobStats)> {
        let (raw, stats) = run_job(
            input,
            &LocationMapper,
            &LocationReducer {
                trials: self.trials,
                alpha: self.alpha,
            },
            &JobConfig::with_reduce_tasks(reduce_tasks),
            pool,
        )?;
        // Pair up the 'm'/'t' records per location.
        let mut out: Vec<LocationRisk> = Vec::new();
        for (key, val) in raw {
            let (loc_bytes, tag) = key.split_at(key.len() - 1);
            let loc = LocationId::new(parse_key_u32(loc_bytes)?);
            let v = parse_val_f64(&val)?;
            match out.last_mut() {
                Some(last) if last.location == loc => {
                    if tag == b"t" {
                        last.tvar = v;
                    } else {
                        last.mean_annual_loss = v;
                    }
                }
                _ => {
                    let mut row = LocationRisk {
                        location: loc,
                        mean_annual_loss: 0.0,
                        tvar: 0.0,
                    };
                    if tag == b"t" {
                        row.tvar = v;
                    } else {
                        row.mean_annual_loss = v;
                    }
                    out.push(row);
                }
            }
        }
        out.sort_by_key(|r| r.location);
        Ok((out, stats))
    }
}

/// Total loss contribution per catalogue event over a sharded YELLT.
pub struct EventContributionJob;

struct EventMapper;
impl Mapper for EventMapper {
    fn map(&self, chunk: &YelltChunk, emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for i in 0..chunk.rows() {
            emit(key_u32(chunk.events[i]), val_f64(chunk.losses[i]));
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

impl EventContributionJob {
    /// Run the job; returns `(event_id, total_loss)` sorted descending
    /// by loss.
    pub fn run(
        &self,
        input: &ShardedReader,
        reduce_tasks: usize,
        pool: &ThreadPool,
    ) -> RiskResult<(Vec<(u32, f64)>, crate::runtime::JobStats)> {
        let (raw, stats) = run_job(
            input,
            &EventMapper,
            &SumReducer,
            &JobConfig::with_reduce_tasks(reduce_tasks),
            pool,
        )?;
        let mut out: Vec<(u32, f64)> = raw
            .into_iter()
            .map(|(k, v)| Ok((parse_key_u32(&k)?, parse_val_f64(&v)?)))
            .collect::<RiskResult<_>>()?;
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok((out, stats))
    }
}

/// One aggregated cell of a distributed cube build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CubeCell {
    /// Geography group code (location, or coarsened via the job's map).
    pub geo: u32,
    /// Event group code (event, or coarsened via the job's map).
    pub event: u32,
    /// Facts in the cell.
    pub count: u64,
    /// Total loss.
    pub sum: f64,
    /// Largest single loss.
    pub max: f64,
}

/// Distributed cube construction over a sharded YELLT — the
/// "parallel data warehousing" technique running on the paper's
/// *other* data strategy: when the facts live in distributed file
/// space instead of memory, the group-by becomes a MapReduce job.
///
/// Map: `(geo_group, event_group) → loss` with the coarsening applied
/// map-side (the LUTs are the warehouse hierarchy maps). Reduce:
/// count/sum/max per cell. The in-memory warehouse build of the same
/// facts produces identical cells (integration-tested).
pub struct CubeBuildJob {
    /// Location → geography-group lookup (`None` = identity, i.e.
    /// location level).
    pub geo_map: Option<Vec<u32>>,
    /// Event → event-group lookup (`None` = identity).
    pub event_map: Option<Vec<u32>>,
}

struct CubeMapper<'a> {
    geo_map: Option<&'a [u32]>,
    event_map: Option<&'a [u32]>,
}
impl Mapper for CubeMapper<'_> {
    fn map(&self, chunk: &YelltChunk, emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for i in 0..chunk.rows() {
            let geo = match self.geo_map {
                None => chunk.locations[i],
                Some(m) => m[chunk.locations[i] as usize],
            };
            let ev = match self.event_map {
                None => chunk.events[i],
                Some(m) => m[chunk.events[i] as usize],
            };
            // Big-endian (geo, event) so byte order equals numeric
            // (geo, event) order after the shuffle's sort.
            let mut key = Vec::with_capacity(8);
            key.extend_from_slice(&geo.to_be_bytes());
            key.extend_from_slice(&ev.to_be_bytes());
            emit(key, val_f64(chunk.losses[i]));
        }
    }
}

struct CellReducer;
impl Reducer for CellReducer {
    fn reduce(
        &self,
        key: &[u8],
        values: &[Vec<u8>],
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) -> RiskResult<()> {
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        for v in values {
            let loss = parse_val_f64(v)?;
            count += 1;
            sum += loss;
            if loss > max {
                max = loss;
            }
        }
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&max.to_le_bytes());
        emit(key.to_vec(), out);
        Ok(())
    }
}

impl CubeBuildJob {
    /// Run the job; cells come back sorted by `(geo, event)`.
    pub fn run(
        &self,
        input: &ShardedReader,
        reduce_tasks: usize,
        pool: &ThreadPool,
    ) -> RiskResult<(Vec<CubeCell>, crate::runtime::JobStats)> {
        let (raw, stats) = run_job(
            input,
            &CubeMapper {
                geo_map: self.geo_map.as_deref(),
                event_map: self.event_map.as_deref(),
            },
            &CellReducer,
            &JobConfig::with_reduce_tasks(reduce_tasks),
            pool,
        )?;
        let mut out = Vec::with_capacity(raw.len());
        for (key, val) in raw {
            if key.len() != 8 || val.len() != 24 {
                return Err(riskpipe_types::RiskError::corrupt(
                    "malformed cube cell record",
                ));
            }
            out.push(CubeCell {
                geo: u32::from_be_bytes(bytes_at(&key, 0)?),
                event: u32::from_be_bytes(bytes_at(&key, 4)?),
                count: u64::from_le_bytes(bytes_at(&val, 0)?),
                sum: f64::from_le_bytes(bytes_at(&val, 8)?),
                max: f64::from_le_bytes(bytes_at(&val, 16)?),
            });
        }
        out.sort_by_key(|c| (c.geo, c.event));
        Ok((out, stats))
    }
}

/// One return-period band's pooled losses from a [`YltFactJob`] run:
/// the band code and its member losses sorted ascending by
/// [`f64::total_cmp`] — ready to fold into a sketch-valued warehouse
/// cell in one weighted merge.
#[derive(Debug, Clone, PartialEq)]
pub struct YltFactBand {
    /// Band (group) code.
    pub band: u32,
    /// The band's losses, sorted ascending by `total_cmp`.
    pub losses: Vec<f64>,
}

/// Groups a sharded per-report YLT spill into per-return-period-band
/// sorted loss columns — the stage-3 warehouse-ingest analysis in the
/// MapReduce formulation of the companion paper ("High Performance
/// Risk Aggregation … the Hadoop MapReduce Way").
///
/// The spill writer stores each trial's pre-computed band code in the
/// YELLT `event` field (band assignment needs the report's global loss
/// ranks, so it happens before sharding); this job is the shuffle that
/// turns trial-ordered rows back into per-band columns when the report
/// data lives in distributed file space rather than memory.
///
/// Map: `(band) → loss`, with an optional band-coarsening lookup
/// applied map-side exactly like [`CubeBuildJob`]'s geo/event maps.
/// Reduce: sort the band's losses by `total_cmp` and emit them as one
/// record. Output is deterministic for any shard layout, reduce-task
/// count and thread count: the multiset per band is fixed and the
/// reducer sorts it.
pub struct YltFactJob {
    /// Band → group lookup (`None` = identity).
    pub band_map: Option<Vec<u32>>,
}

struct YltFactMapper<'a> {
    band_map: Option<&'a [u32]>,
}
impl Mapper for YltFactMapper<'_> {
    fn map(&self, chunk: &YelltChunk, emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for i in 0..chunk.rows() {
            let band = match self.band_map {
                None => chunk.events[i],
                Some(m) => m[chunk.events[i] as usize],
            };
            emit(key_u32(band), val_f64(chunk.losses[i]));
        }
    }
}

struct SortedColumnReducer;
impl Reducer for SortedColumnReducer {
    fn reduce(
        &self,
        key: &[u8],
        values: &[Vec<u8>],
        emit: &mut dyn FnMut(Vec<u8>, Vec<u8>),
    ) -> RiskResult<()> {
        let mut losses = Vec::with_capacity(values.len());
        for v in values {
            losses.push(parse_val_f64(v)?);
        }
        losses.sort_unstable_by(f64::total_cmp);
        let mut out = Vec::with_capacity(losses.len() * 8);
        for l in losses {
            out.extend_from_slice(&l.to_le_bytes());
        }
        emit(key.to_vec(), out);
        Ok(())
    }
}

impl YltFactJob {
    /// Run the job; bands come back sorted by band code.
    pub fn run(
        &self,
        input: &ShardedReader,
        reduce_tasks: usize,
        pool: &ThreadPool,
    ) -> RiskResult<(Vec<YltFactBand>, crate::runtime::JobStats)> {
        let (raw, stats) = run_job(
            input,
            &YltFactMapper {
                band_map: self.band_map.as_deref(),
            },
            &SortedColumnReducer,
            &JobConfig::with_reduce_tasks(reduce_tasks),
            pool,
        )?;
        let mut out = Vec::with_capacity(raw.len());
        for (key, val) in raw {
            let band = parse_key_u32(&key)?;
            if !val.len().is_multiple_of(8) {
                return Err(riskpipe_types::RiskError::corrupt(
                    "malformed sorted-column record",
                ));
            }
            let mut losses = Vec::with_capacity(val.len() / 8);
            for c in val.chunks_exact(8) {
                losses.push(parse_val_f64(c)?);
            }
            out.push(YltFactBand { band, losses });
        }
        out.sort_by_key(|b| b.band);
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_tables::ShardedWriter;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("riskpipe-jobs-{tag}-{}-{n}", std::process::id()))
    }

    /// A store where location l's losses and per-event totals are
    /// hand-computable: trial t, event e = t % 5, locations 0..3,
    /// loss = (l + 1) · 10 in every trial.
    fn make_store(dir: &PathBuf, trials: u32) {
        let mut w = ShardedWriter::create_with_chunk_rows(dir, 3, 32).unwrap();
        for t in 0..trials {
            for l in 0..3u32 {
                w.push_row(t, t % 5, LocationId::new(l), (l + 1) as f64 * 10.0)
                    .unwrap();
            }
        }
        w.finish().unwrap();
    }

    #[test]
    fn location_risk_job_computes_mean_and_tvar() {
        let dir = temp("locrisk");
        make_store(&dir, 100);
        let reader = ShardedReader::open(&dir).unwrap();
        let pool = ThreadPool::new(4);
        let job = LocationRiskJob {
            trials: 100,
            alpha: 0.95,
        };
        let (rows, stats) = job.run(&reader, 2, &pool).unwrap();
        assert_eq!(rows.len(), 3);
        for (l, row) in rows.iter().enumerate() {
            let expect = (l + 1) as f64 * 10.0;
            // Every trial has exactly this loss → mean = TVaR = loss.
            assert!((row.mean_annual_loss - expect).abs() < 1e-9);
            assert!((row.tvar - expect).abs() < 1e-9);
            assert_eq!(row.location, LocationId::new(l as u32));
        }
        assert_eq!(stats.input_rows, 300);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn location_risk_includes_zero_years() {
        // Locations only hit in trial 0; with 10 trials the mean must be
        // diluted 10x.
        let dir = temp("zeros");
        let mut w = ShardedWriter::create(&dir, 2).unwrap();
        w.push_row(0, 1, LocationId::new(7), 100.0).unwrap();
        w.finish().unwrap();
        let reader = ShardedReader::open(&dir).unwrap();
        let pool = ThreadPool::new(2);
        let job = LocationRiskJob {
            trials: 10,
            alpha: 0.5,
        };
        let (rows, _) = job.run(&reader, 2, &pool).unwrap();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].mean_annual_loss - 10.0).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cube_build_at_identity_level_counts_everything() {
        let dir = temp("cube-id");
        make_store(&dir, 20); // 20 trials × 3 locations, events t%5
        let reader = ShardedReader::open(&dir).unwrap();
        let pool = ThreadPool::new(2);
        let (cells, _) = CubeBuildJob {
            geo_map: None,
            event_map: None,
        }
        .run(&reader, 3, &pool)
        .unwrap();
        // 3 locations × 5 events, each hit in 4 trials.
        assert_eq!(cells.len(), 15);
        assert!(cells.iter().all(|c| c.count == 4));
        let total: f64 = cells.iter().map(|c| c.sum).sum();
        assert!((total - 20.0 * 3.0 * 20.0).abs() < 1e-9);
        // Sorted by (geo, event).
        for w in cells.windows(2) {
            assert!((w[0].geo, w[0].event) < (w[1].geo, w[1].event));
        }
        // Constant per-location loss ⇒ max == sum/count.
        for c in &cells {
            assert!((c.max - c.sum / c.count as f64).abs() < 1e-9);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cube_build_applies_coarsening_maps() {
        let dir = temp("cube-rollup");
        make_store(&dir, 10);
        let reader = ShardedReader::open(&dir).unwrap();
        let pool = ThreadPool::new(2);
        // Locations {0,1} → region 0, {2} → region 1; all events → 0.
        let (cells, _) = CubeBuildJob {
            geo_map: Some(vec![0, 0, 1]),
            event_map: Some(vec![0; 5]),
        }
        .run(&reader, 2, &pool)
        .unwrap();
        assert_eq!(cells.len(), 2);
        // Region 0: locations 0 (loss 10) and 1 (loss 20) × 10 trials.
        assert_eq!(cells[0].count, 20);
        assert!((cells[0].sum - 10.0 * (10.0 + 20.0)).abs() < 1e-9);
        assert_eq!(cells[0].max, 20.0);
        // Region 1: location 2 (loss 30) × 10 trials.
        assert_eq!(cells[1].count, 10);
        assert!((cells[1].sum - 300.0).abs() < 1e-9);
        assert_eq!(cells[1].max, 30.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ylt_fact_job_returns_sorted_band_columns() {
        // Spill rows whose `event` field is a band code: trial t gets
        // band t % 3 and loss 100 - t, so each band's sorted column is
        // hand-computable.
        let dir = temp("factbands");
        let mut w = ShardedWriter::create_with_chunk_rows(&dir, 3, 16).unwrap();
        for t in 0..60u32 {
            w.push_row(t, t % 3, LocationId::new(0), (100 - t) as f64)
                .unwrap();
        }
        w.finish().unwrap();
        let reader = ShardedReader::open(&dir).unwrap();
        let pool = ThreadPool::new(4);
        let (bands, stats) = YltFactJob { band_map: None }
            .run(&reader, 2, &pool)
            .unwrap();
        assert_eq!(bands.len(), 3);
        for (b, rec) in bands.iter().enumerate() {
            assert_eq!(rec.band, b as u32);
            let mut want: Vec<f64> = (0..60u32)
                .filter(|t| t % 3 == b as u32)
                .map(|t| (100 - t) as f64)
                .collect();
            want.sort_unstable_by(f64::total_cmp);
            assert_eq!(rec.losses, want);
        }
        assert_eq!(stats.input_rows, 60);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ylt_fact_job_is_deterministic_and_applies_band_map() {
        let dir = temp("factdet");
        let mut w = ShardedWriter::create_with_chunk_rows(&dir, 4, 8).unwrap();
        for t in 0..100u32 {
            w.push_row(t, t % 5, LocationId::new(0), (t as f64) * 1.5)
                .unwrap();
        }
        w.finish().unwrap();
        let reader = ShardedReader::open(&dir).unwrap();
        let run = |threads: usize, parts: usize| {
            let pool = ThreadPool::new(threads);
            YltFactJob {
                band_map: Some(vec![0, 0, 1, 1, 1]),
            }
            .run(&reader, parts, &pool)
            .unwrap()
            .0
        };
        let a = run(1, 1);
        let b = run(8, 5);
        assert_eq!(a, b, "band columns must not depend on threads/partitions");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].losses.len(), 40); // bands {0,1} of t%5
        assert_eq!(a[1].losses.len(), 60);
        // Sorted ascending within each band.
        for rec in &a {
            assert!(rec.losses.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_contribution_sums_and_sorts() {
        let dir = temp("events");
        make_store(&dir, 100);
        let reader = ShardedReader::open(&dir).unwrap();
        let pool = ThreadPool::new(2);
        let (rows, _) = EventContributionJob.run(&reader, 3, &pool).unwrap();
        assert_eq!(rows.len(), 5); // events 0..5
                                   // Every event occurs in 20 trials × 3 locations × avg loss 20.
        let total: f64 = rows.iter().map(|(_, l)| l).sum();
        assert!((total - 100.0 * 3.0 * 20.0).abs() < 1e-9);
        // Descending by loss.
        for w in rows.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
