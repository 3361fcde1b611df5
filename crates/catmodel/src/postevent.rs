//! Rapid post-event loss estimation — the real-time companion workflow
//! of the pipeline (the paper's reference \[2\]: *Rapid Post-Event
//! Catastrophe Modelling and Visualisation*).
//!
//! When an actual catastrophe strikes, the reinsurer needs a loss
//! estimate in minutes, not at the weekly batch cadence: run the
//! observed event's footprint — not the whole stochastic catalogue —
//! against the live exposure database.

use crate::catalog::CatalogEvent;
use crate::eltgen::{for_each_pair_loss, EltGenConfig, EventLoss};
use crate::exposure::ExposurePortfolio;
use crate::geo::GeoPoint;
use crate::peril::Peril;
use riskpipe_types::{EventId, LocationId, RiskError, RiskResult};

/// An observed (actual) catastrophe event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedEvent {
    /// The peril.
    pub peril: Peril,
    /// Observed magnitude on the peril's scale.
    pub magnitude: f64,
    /// Observed centre (epicentre / landfall).
    pub center: GeoPoint,
}

/// The rapid estimate for one book of business.
#[derive(Debug, Clone)]
pub struct PostEventEstimate {
    /// Expected insured loss to the book.
    pub mean_loss: f64,
    /// Standard deviation of the loss (independent + correlated parts
    /// combined).
    pub sigma: f64,
    /// Locations with any damaging intensity.
    pub affected_locations: usize,
    /// Largest per-location mean losses, descending — the claims-team
    /// deployment list.
    pub top_locations: Vec<(LocationId, f64)>,
}

/// Estimate the loss of an observed event against an exposure book.
///
/// `top_n` bounds the location breakdown (0 = no breakdown).
pub fn rapid_estimate(
    event: &ObservedEvent,
    exposure: &ExposurePortfolio,
    cfg: &EltGenConfig,
    top_n: usize,
) -> RiskResult<PostEventEstimate> {
    if !event.magnitude.is_finite() || event.magnitude <= 0.0 {
        return Err(RiskError::invalid("magnitude must be positive"));
    }
    if !(event.center.x.is_finite() && event.center.y.is_finite()) {
        return Err(RiskError::invalid("event centre must be finite"));
    }
    // An observed event is a catalogue event that has happened: it
    // has no id and no rate, and the loss chain reads neither.
    let event = CatalogEvent {
        id: EventId::new(0),
        peril: event.peril,
        rate: 0.0,
        magnitude: event.magnitude,
        center: event.center,
    };
    // One event against the whole live book: every location runs the
    // chain — indexing a book pays off only across a catalogue.
    let mut sums = EventLoss::default();
    let mut per_location: Vec<(LocationId, f64)> = Vec::new();
    let locations = exposure.locations();
    for_each_pair_loss(&event, locations, 0..locations.len(), |loc, pair| {
        sums.absorb(loc, &pair);
        if top_n > 0 {
            per_location.push((loc.id, pair.loss));
        }
    });
    let w = cfg.correlation_weight;
    let sigma_i2 = (1.0 - w) * sums.var_sum;
    let sigma_c = w * sums.sd_sum;
    per_location.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
    per_location.truncate(top_n);
    Ok(PostEventEstimate {
        mean_loss: sums.mean,
        sigma: (sigma_i2 + sigma_c * sigma_c).sqrt(),
        affected_locations: sums.damaged,
        top_locations: per_location,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exposure::ExposureConfig;

    fn exposure() -> ExposurePortfolio {
        ExposurePortfolio::generate(&ExposureConfig {
            locations: 400,
            seed: 33,
            ..ExposureConfig::default()
        })
        .unwrap()
    }

    fn event_at(x: f64, y: f64, magnitude: f64) -> ObservedEvent {
        ObservedEvent {
            peril: Peril::Earthquake,
            magnitude,
            center: GeoPoint::new(x, y),
        }
    }

    #[test]
    fn larger_magnitude_means_larger_loss() {
        let exp = exposure();
        let cfg = EltGenConfig::default();
        // Centre on the first location so something is always in range.
        let c = exp.locations()[0].position;
        let small = rapid_estimate(&event_at(c.x, c.y, 6.0), &exp, &cfg, 0).unwrap();
        let large = rapid_estimate(&event_at(c.x, c.y, 8.5), &exp, &cfg, 0).unwrap();
        assert!(large.mean_loss > small.mean_loss);
        assert!(large.affected_locations >= small.affected_locations);
    }

    #[test]
    fn remote_event_causes_nothing() {
        let exp = exposure();
        // Far outside the region (and any peril radius).
        let est = rapid_estimate(
            &event_at(-5_000.0, -5_000.0, 9.0),
            &exp,
            &EltGenConfig::default(),
            5,
        )
        .unwrap();
        assert_eq!(est.mean_loss, 0.0);
        assert_eq!(est.affected_locations, 0);
        assert!(est.top_locations.is_empty());
    }

    #[test]
    fn top_locations_sorted_and_bounded() {
        let exp = exposure();
        let c = exp.locations()[0].position;
        let est =
            rapid_estimate(&event_at(c.x, c.y, 8.0), &exp, &EltGenConfig::default(), 10).unwrap();
        assert!(est.top_locations.len() <= 10);
        for w in est.top_locations.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The breakdown never exceeds the total.
        let top_sum: f64 = est.top_locations.iter().map(|(_, l)| l).sum();
        assert!(top_sum <= est.mean_loss + 1e-9);
    }

    #[test]
    fn sigma_is_positive_when_loss_exists() {
        let exp = exposure();
        let c = exp.locations()[0].position;
        let est =
            rapid_estimate(&event_at(c.x, c.y, 7.5), &exp, &EltGenConfig::default(), 0).unwrap();
        assert!(est.mean_loss > 0.0);
        assert!(est.sigma > 0.0);
    }

    #[test]
    fn non_finite_centre_rejected() {
        let exp = exposure();
        let cfg = EltGenConfig::default();
        for (x, y) in [
            (f64::NAN, 500.0),
            (500.0, f64::NAN),
            (f64::INFINITY, 500.0),
            (500.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
            (0.0, f64::NEG_INFINITY),
        ] {
            let err = rapid_estimate(&event_at(x, y, 7.0), &exp, &cfg, 3).unwrap_err();
            assert!(
                matches!(err, RiskError::InvalidParameter(_)),
                "({x}, {y}): {err}"
            );
        }
    }

    #[test]
    fn invalid_magnitude_rejected() {
        let exp = exposure();
        assert!(
            rapid_estimate(&event_at(0.0, 0.0, -1.0), &exp, &EltGenConfig::default(), 0).is_err()
        );
    }
}
