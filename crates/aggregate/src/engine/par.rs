//! The multi-core engine: trials partitioned across the work-stealing
//! pool — the paper's "accumulation of large memory" strategy on a
//! many-core host.

use super::{check_group, fill_block, ylt_blocks, AggregateEngine, TermSets};
use crate::join::EventJoin;
use crate::portfolio::Portfolio;
use riskpipe_exec::{par_chunks_mut, suggest_grain, ThreadPool};
use riskpipe_tables::yet::YearEventTable;
use riskpipe_tables::Ylt;
use riskpipe_types::RiskResult;
use std::sync::Arc;

/// Aggregate analysis across a thread pool. Trials are embarrassingly
/// parallel (each reads shared immutable tables and writes its own YLT
/// row), so the engine splits the trial range into blocks of the host
/// kernel across the pool and scales linearly until memory bandwidth
/// saturates.
pub struct CpuParallelEngine {
    pool: PoolRef,
}

enum PoolRef {
    Owned(Arc<ThreadPool>),
    Global(&'static ThreadPool),
}

impl CpuParallelEngine {
    /// An engine on the given pool.
    pub fn new(pool: Arc<ThreadPool>) -> Self {
        Self {
            pool: PoolRef::Owned(pool),
        }
    }

    /// An engine on a borrowed static pool (the global pool).
    pub fn with_pool_ref(pool: &'static ThreadPool) -> Self {
        Self {
            pool: PoolRef::Global(pool),
        }
    }
}

impl AggregateEngine for CpuParallelEngine {
    fn name(&self) -> &'static str {
        "cpu-parallel"
    }

    fn pool(&self) -> &ThreadPool {
        match &self.pool {
            PoolRef::Owned(p) => p,
            PoolRef::Global(p) => p,
        }
    }

    fn run_group(
        &self,
        portfolios: &[&Portfolio],
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<Vec<Ylt>> {
        check_group(portfolios, yet, join)?;
        let terms = TermSets::of(join, portfolios)?;
        let trials = yet.trials();
        let pool = self.pool();
        let grain = suggest_grain(trials, pool.thread_count(), 256);
        let mut ylts: Vec<Ylt> = (0..terms.len()).map(|_| Ylt::zeroed(trials)).collect();
        // Each task owns one grain-sized block of trials — its rows of
        // every scenario's three YLT columns — and scans it once.
        let mut blocks = ylt_blocks(&mut ylts, grain);
        par_chunks_mut(pool, &mut blocks, 1, |block_idx, block| {
            fill_block(join, yet, block_idx * grain, &terms, &mut block[0]);
        });
        Ok(ylts)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AggregateOptions, SequentialEngine};
    use super::*;
    use crate::portfolio::Layer;
    use crate::terms::LayerTerms;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_tables::yet::{Occurrence, YetBuilder};
    use riskpipe_types::rng::{Rng64, SplitMix64};
    use riskpipe_types::{EventId, LayerId};

    /// A randomised portfolio/YET pair large enough to exercise
    /// multi-chunk scheduling.
    fn random_fixture(seed: u64, trials: usize) -> (Portfolio, YearEventTable) {
        let mut rng = SplitMix64::new(seed);
        let mut b = EltBuilder::new();
        for e in 0..200u32 {
            let mean = 10.0 + rng.next_f64() * 1_000.0;
            b.push(EltRecord {
                event_id: EventId::new(e),
                mean_loss: mean,
                sigma_i: mean * 0.3,
                sigma_c: mean * 0.1,
                exposure: mean * (3.0 + rng.next_f64() * 10.0),
            })
            .unwrap();
        }
        let elt = std::sync::Arc::new(b.build().unwrap());
        let mut p = Portfolio::new();
        p.push(
            Layer::new(
                LayerId::new(0),
                LayerTerms::xl(50.0, 5_000.0),
                std::sync::Arc::clone(&elt),
            )
            .unwrap(),
        );
        p.push(
            Layer::new(
                LayerId::new(1),
                LayerTerms {
                    occ_retention: 0.0,
                    occ_limit: f64::INFINITY,
                    agg_retention: 500.0,
                    agg_limit: 10_000.0,
                    share: 0.5,
                },
                elt,
            )
            .unwrap(),
        );
        let mut yb = YetBuilder::new();
        for _ in 0..trials {
            let n = (rng.next_u64() % 6) as usize;
            let mut occs: Vec<Occurrence> = (0..n)
                .map(|_| Occurrence {
                    event_id: EventId::new((rng.next_u64() % 250) as u32),
                    day: (rng.next_u64() % 365) as u16,
                    z: rng.next_f64_open(),
                })
                .collect();
            occs.sort_by_key(|o| o.day);
            yb.push_trial(&occs);
        }
        (p, yb.build())
    }

    #[test]
    fn matches_sequential_bitwise() {
        let (p, yet) = random_fixture(42, 3_000);
        let opts = AggregateOptions::default();
        let seq = SequentialEngine.run(&p, &yet, &opts).unwrap();
        for threads in [1, 2, 4, 8] {
            let eng = CpuParallelEngine::new(Arc::new(ThreadPool::new(threads)));
            let par = eng.run(&p, &yet, &opts).unwrap();
            assert_eq!(par, seq, "{threads} threads diverged");
        }
    }

    #[test]
    fn matches_sequential_without_secondary() {
        let (p, yet) = random_fixture(7, 1_000);
        let opts = AggregateOptions {
            secondary_uncertainty: false,
            ..AggregateOptions::default()
        };
        let seq = SequentialEngine.run(&p, &yet, &opts).unwrap();
        let par = CpuParallelEngine::new(Arc::new(ThreadPool::new(4)))
            .run(&p, &yet, &opts)
            .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn trial_count_below_grain_still_works() {
        let (p, yet) = random_fixture(9, 10);
        let eng = CpuParallelEngine::new(Arc::new(ThreadPool::new(4)));
        let ylt = eng.run(&p, &yet, &AggregateOptions::default()).unwrap();
        assert_eq!(ylt.trials(), 10);
    }

    #[test]
    fn engine_reports_name() {
        let eng = CpuParallelEngine::new(Arc::new(ThreadPool::new(1)));
        assert_eq!(eng.name(), "cpu-parallel");
    }
}
