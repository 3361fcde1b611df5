//! The financial module: ground-up damage → insured loss at the
//! location level.
//!
//! Site terms are the standard pair: a deductible the insured retains
//! and a limit capping the recovery. (Portfolio-level occurrence and
//! aggregate terms belong to stage 2 and live in `riskpipe-aggregate`.)

use crate::exposure::ExposureLocation;

/// Apply site deductible and limit to a ground-up loss.
#[inline]
fn apply_site_terms(ground_up: f64, deductible: f64, limit: f64) -> f64 {
    debug_assert!(deductible >= 0.0 && limit >= 0.0);
    (ground_up - deductible).max(0.0).min(limit)
}

/// Insured loss for a location given a damage ratio.
#[inline]
pub fn location_loss(loc: &ExposureLocation, damage_ratio: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&damage_ratio));
    apply_site_terms(loc.tiv * damage_ratio, loc.deductible, loc.limit)
}

/// The maximum possible insured loss for a location (its contribution
/// to the ELT exposure column).
#[inline]
pub fn location_max_loss(loc: &ExposureLocation) -> f64 {
    apply_site_terms(loc.tiv, loc.deductible, loc.limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;
    use crate::vulnerability::ConstructionClass;
    use riskpipe_types::LocationId;

    fn loc(tiv: f64, ded: f64, lim: f64) -> ExposureLocation {
        ExposureLocation {
            id: LocationId::new(0),
            position: GeoPoint::new(0.0, 0.0),
            tiv,
            construction: ConstructionClass::Wood,
            deductible: ded,
            limit: lim,
        }
    }

    #[test]
    fn deductible_erodes_first() {
        assert_eq!(apply_site_terms(100.0, 20.0, 1000.0), 80.0);
        assert_eq!(apply_site_terms(15.0, 20.0, 1000.0), 0.0);
    }

    #[test]
    fn limit_caps_recovery() {
        assert_eq!(apply_site_terms(500.0, 0.0, 100.0), 100.0);
        assert_eq!(apply_site_terms(500.0, 50.0, 100.0), 100.0);
    }

    #[test]
    fn zero_ground_up_pays_nothing() {
        assert_eq!(apply_site_terms(0.0, 10.0, 100.0), 0.0);
    }

    #[test]
    fn location_loss_scales_with_damage() {
        let l = loc(1_000.0, 10.0, 800.0);
        assert_eq!(location_loss(&l, 0.0), 0.0);
        assert_eq!(location_loss(&l, 0.5), 490.0); // 500 - 10
        assert_eq!(location_loss(&l, 1.0), 800.0); // capped
    }

    #[test]
    fn loss_is_monotone_in_damage_ratio() {
        let l = loc(2_000.0, 25.0, 1_500.0);
        let mut prev = -1.0;
        for i in 0..=20 {
            let v = location_loss(&l, i as f64 / 20.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn max_loss_bounds_any_damage() {
        let l = loc(3_000.0, 100.0, 2_000.0);
        let max = location_max_loss(&l);
        for i in 0..=10 {
            assert!(location_loss(&l, i as f64 / 10.0) <= max);
        }
        assert_eq!(max, 2_000.0);
    }
}
