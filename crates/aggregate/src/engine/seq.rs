//! The sequential reference engine — the baseline of the paper's "15×
//! faster than the sequential counterpart" comparison.

use super::{check_group, scan, AggregateEngine, TermSets};
use crate::join::EventJoin;
use crate::portfolio::Portfolio;
use riskpipe_tables::yet::YearEventTable;
use riskpipe_tables::Ylt;
use riskpipe_types::RiskResult;

/// Single-threaded aggregate analysis: the whole trial range is one
/// block of the host kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialEngine;

impl AggregateEngine for SequentialEngine {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn run_group(
        &self,
        portfolios: &[&Portfolio],
        yet: &YearEventTable,
        join: &EventJoin,
    ) -> RiskResult<Vec<Ylt>> {
        check_group(portfolios, yet, join)?;
        let terms = TermSets::of(join, portfolios)?;
        Ok(scan(join, yet, 0..yet.trials(), &terms))
    }
}

#[cfg(test)]
mod tests {
    use super::super::AggregateOptions;
    use super::*;
    use crate::portfolio::Layer;
    use crate::terms::LayerTerms;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_tables::yet::{Occurrence, YetBuilder};
    use riskpipe_types::{EventId, LayerId};
    use std::sync::Arc;

    /// Portfolio with hand-computable losses: event 1 → 100, event 2 →
    /// 250, no secondary uncertainty.
    fn fixture() -> (Portfolio, YearEventTable) {
        let mut b = EltBuilder::new();
        b.push(EltRecord {
            event_id: EventId::new(1),
            mean_loss: 100.0,
            sigma_i: 10.0,
            sigma_c: 5.0,
            exposure: 1_000.0,
        })
        .unwrap();
        b.push(EltRecord {
            event_id: EventId::new(2),
            mean_loss: 250.0,
            sigma_i: 20.0,
            sigma_c: 10.0,
            exposure: 2_000.0,
        })
        .unwrap();
        let elt = Arc::new(b.build().unwrap());
        let mut p = Portfolio::new();
        p.push(Layer::new(LayerId::new(0), LayerTerms::pass_through(), elt).unwrap());

        let occ = |e: u32, d: u16| Occurrence {
            event_id: EventId::new(e),
            day: d,
            z: 0.5,
        };
        let mut yb = YetBuilder::new();
        yb.push_trial(&[occ(1, 10), occ(2, 50)]); // trial 0: 100 + 250
        yb.push_trial(&[]); // trial 1: nothing
        yb.push_trial(&[occ(2, 5), occ(2, 6), occ(9, 7)]); // trial 2: 250+250, unknown event
        (p, yb.build())
    }

    fn opts_no_secondary() -> AggregateOptions {
        AggregateOptions {
            secondary_uncertainty: false,
            ..AggregateOptions::default()
        }
    }

    #[test]
    fn hand_computed_losses() {
        let (p, yet) = fixture();
        let ylt = SequentialEngine
            .run(&p, &yet, &opts_no_secondary())
            .unwrap();
        assert_eq!(ylt.trials(), 3);
        assert_eq!(ylt.agg_losses(), &[350.0, 0.0, 500.0]);
        assert_eq!(ylt.max_occ_losses(), &[250.0, 0.0, 250.0]);
        assert_eq!(ylt.occ_counts(), &[2, 0, 2]);
    }

    #[test]
    fn occurrence_terms_attach_and_cap() {
        let (mut p, yet) = fixture();
        // Replace terms: 150 xs; so event 1 (100) is below attachment,
        // event 2 (250) cedes 100.
        let elt = Arc::clone(&p.layers()[0].elt);
        p = Portfolio::new();
        p.push(Layer::new(LayerId::new(0), LayerTerms::xl(150.0, 1_000.0), elt).unwrap());
        let ylt = SequentialEngine
            .run(&p, &yet, &opts_no_secondary())
            .unwrap();
        assert_eq!(ylt.agg_losses(), &[100.0, 0.0, 200.0]);
        assert_eq!(ylt.occ_counts(), &[1, 0, 2]);
    }

    #[test]
    fn aggregate_terms_apply_after_occurrences() {
        let (mut p, yet) = fixture();
        let elt = Arc::clone(&p.layers()[0].elt);
        p = Portfolio::new();
        p.push(
            Layer::new(
                LayerId::new(0),
                LayerTerms {
                    occ_retention: 0.0,
                    occ_limit: f64::INFINITY,
                    agg_retention: 300.0,
                    agg_limit: 150.0,
                    share: 1.0,
                },
                elt,
            )
            .unwrap(),
        );
        let ylt = SequentialEngine
            .run(&p, &yet, &opts_no_secondary())
            .unwrap();
        // Trial 0: annual 350 → (350-300) = 50. Trial 2: 500 → 150 (cap).
        assert_eq!(ylt.agg_losses(), &[50.0, 0.0, 150.0]);
    }

    #[test]
    fn secondary_uncertainty_changes_losses_but_not_structure() {
        let (p, yet) = fixture();
        let det = SequentialEngine
            .run(&p, &yet, &opts_no_secondary())
            .unwrap();
        let stoch = SequentialEngine
            .run(&p, &yet, &AggregateOptions::default())
            .unwrap();
        assert_eq!(det.trials(), stoch.trials());
        // Same events hit, so the same trials are non-zero.
        for t in 0..det.trials() {
            assert_eq!(
                det.agg_losses()[t] > 0.0,
                stoch.agg_losses()[t] > 0.0,
                "trial {t}"
            );
        }
        // But the loss values differ (z=0.5 maps to the median, not the
        // mean, of the skewed beta).
        assert_ne!(det.agg_losses()[0], stoch.agg_losses()[0]);
    }

    #[test]
    fn empty_portfolio_rejected() {
        let (_, yet) = fixture();
        let p = Portfolio::new();
        assert!(SequentialEngine
            .run(&p, &yet, &AggregateOptions::default())
            .is_err());
    }

    #[test]
    fn multi_layer_portfolio_sums_shares() {
        let (p0, yet) = fixture();
        let elt = Arc::clone(&p0.layers()[0].elt);
        let mut p = Portfolio::new();
        p.push(
            Layer::new(
                LayerId::new(0),
                LayerTerms {
                    share: 0.25,
                    ..LayerTerms::pass_through()
                },
                Arc::clone(&elt),
            )
            .unwrap(),
        );
        p.push(
            Layer::new(
                LayerId::new(1),
                LayerTerms {
                    share: 0.75,
                    ..LayerTerms::pass_through()
                },
                elt,
            )
            .unwrap(),
        );
        let ylt = SequentialEngine
            .run(&p, &yet, &opts_no_secondary())
            .unwrap();
        // Shares sum to 1.0 → same as single full-share layer.
        assert_eq!(ylt.agg_losses(), &[350.0, 0.0, 500.0]);
    }
}
