//! Real-time pricing: the paper's "a 1 million trial aggregate
//! simulation on a typical contract only takes 25 seconds and can
//! therefore support real-time pricing" (experiment E2).
//!
//! The pricer is a thin, latency-focused wrapper over the parallel
//! engine for a *single* layer: it measures wall time, derives the
//! pure premium and a standard-deviation-loaded technical premium, and
//! reports whether the run met an interactivity budget.

use crate::engine::{AggregateEngine, AggregateOptions, CpuParallelEngine};
use crate::portfolio::{Layer, Portfolio};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::yet::YearEventTable;
use riskpipe_types::stats::quantile_sorted;
use riskpipe_types::{RiskResult, RunningStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a pricing run.
#[derive(Debug, Clone)]
pub struct PricingResult {
    /// Trials simulated.
    pub trials: usize,
    /// Mean annual ceded loss (pure premium).
    pub pure_premium: f64,
    /// Standard deviation of annual ceded loss.
    pub sd: f64,
    /// Technical premium: pure premium + loading × sd.
    pub technical_premium: f64,
    /// 99% VaR of the annual ceded loss.
    pub var99: f64,
    /// Wall-clock simulation time.
    pub elapsed: Duration,
    /// Trials per second achieved.
    pub trials_per_second: f64,
}

impl PricingResult {
    /// Whether the run met an interactive latency budget.
    pub fn is_realtime(&self, budget: Duration) -> bool {
        self.elapsed <= budget
    }
}

/// Single-contract pricer.
pub struct RealTimePricer {
    pool: Arc<ThreadPool>,
    /// Standard-deviation loading factor for the technical premium.
    pub sd_loading: f64,
    /// Engine options.
    pub opts: AggregateOptions,
}

impl RealTimePricer {
    /// A pricer on the given pool with the industry-typical 0.3 sd
    /// loading.
    pub fn new(pool: Arc<ThreadPool>) -> Self {
        Self {
            pool,
            sd_loading: 0.3,
            opts: AggregateOptions::default(),
        }
    }

    /// Price one layer against a YET.
    pub fn price(&self, layer: Layer, yet: &YearEventTable) -> RiskResult<PricingResult> {
        let mut portfolio = Portfolio::new();
        portfolio.push(layer);
        let engine = CpuParallelEngine::new(Arc::clone(&self.pool));
        #[expect(
            clippy::disallowed_methods,
            reason = "reading feeds only the reported elapsed-time field of \
                      PricingResult; premiums are computed from the YLT alone"
        )]
        let start = Instant::now();
        let ylt = engine.run(&portfolio, yet, &self.opts)?;
        let elapsed = start.elapsed();
        let stats: RunningStats = ylt.agg_losses().iter().copied().collect();
        let sorted = ylt.sorted_agg_losses();
        let pure = stats.mean();
        let sd = stats.sd();
        Ok(PricingResult {
            trials: ylt.trials(),
            pure_premium: pure,
            sd,
            technical_premium: pure + self.sd_loading * sd,
            var99: quantile_sorted(&sorted, 0.99),
            elapsed,
            trials_per_second: ylt.trials() as f64 / elapsed.as_secs_f64().max(1e-9),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::LayerTerms;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_tables::yet::{Occurrence, YetBuilder};
    use riskpipe_types::rng::{Rng64, SplitMix64};
    use riskpipe_types::{EventId, LayerId};

    fn inputs(trials: usize) -> (Layer, YearEventTable) {
        let mut rng = SplitMix64::new(21);
        let mut b = EltBuilder::new();
        for e in 0..500u32 {
            let mean = 50.0 + rng.next_f64() * 2_000.0;
            b.push(EltRecord {
                event_id: EventId::new(e),
                mean_loss: mean,
                sigma_i: mean * 0.3,
                sigma_c: mean * 0.15,
                exposure: mean * 5.0,
            })
            .unwrap();
        }
        let layer = Layer::new(
            LayerId::new(0),
            LayerTerms::xl(100.0, 10_000.0),
            Arc::new(b.build().unwrap()),
        )
        .unwrap();
        let mut yb = YetBuilder::new();
        for _ in 0..trials {
            let n = (rng.next_u64() % 4) as usize;
            let mut occs: Vec<Occurrence> = (0..n)
                .map(|_| Occurrence {
                    event_id: EventId::new((rng.next_u64() % 500) as u32),
                    day: (rng.next_u64() % 365) as u16,
                    z: rng.next_f64_open(),
                })
                .collect();
            occs.sort_by_key(|o| o.day);
            yb.push_trial(&occs);
        }
        (layer, yb.build())
    }

    #[test]
    fn premium_components_are_consistent() {
        let (layer, yet) = inputs(5_000);
        let pricer = RealTimePricer::new(Arc::new(ThreadPool::new(4)));
        let r = pricer.price(layer, &yet).unwrap();
        assert_eq!(r.trials, 5_000);
        assert!(r.pure_premium > 0.0);
        assert!(r.sd > 0.0);
        assert!((r.technical_premium - (r.pure_premium + 0.3 * r.sd)).abs() < 1e-9);
        assert!(r.var99 >= r.pure_premium); // skewed cat loss
        assert!(r.trials_per_second > 0.0);
    }

    #[test]
    fn realtime_budget_check() {
        let (layer, yet) = inputs(1_000);
        let pricer = RealTimePricer::new(Arc::new(ThreadPool::new(4)));
        let r = pricer.price(layer, &yet).unwrap();
        assert!(r.is_realtime(Duration::from_secs(60)));
        assert!(!r.is_realtime(Duration::from_nanos(1)));
    }

    #[test]
    fn deterministic_premium_across_runs() {
        let (layer, yet) = inputs(2_000);
        let pricer = RealTimePricer::new(Arc::new(ThreadPool::new(4)));
        let a = pricer.price(layer.clone(), &yet).unwrap();
        let b = pricer.price(layer, &yet).unwrap();
        assert_eq!(a.pure_premium.to_bits(), b.pure_premium.to_bits());
        assert_eq!(a.var99.to_bits(), b.var99.to_bits());
    }
}
