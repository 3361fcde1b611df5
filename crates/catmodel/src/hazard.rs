//! The hazard module: event + site → local intensity.
//!
//! Intensities are expressed on a common 0–12 scale (MMI-like) for all
//! perils so that one family of vulnerability curves can consume them;
//! each peril has its own attenuation shape:
//!
//! * **Earthquake** — logarithmic decay with distance (standard
//!   intensity-attenuation form `I = c₀ + c₁·M − c₂·ln(d + c₃)`).
//! * **Hurricane** — exponential decay of the wind field away from the
//!   track point.
//! * **Flood** — sharp power-law decay: floods devastate locally and
//!   vanish quickly with distance.

use crate::catalog::CatalogEvent;
use crate::geo::GeoPoint;
use crate::peril::Peril;

/// Intensity produced by `event` at `site`, on the 0–12 scale.
/// Returns 0 outside the peril's maximum radius.
#[inline]
pub fn site_intensity(event: &CatalogEvent, site: &GeoPoint) -> f64 {
    let d = event.center.distance_km(site);
    intensity_at_distance(event.peril, event.magnitude, d)
}

/// Attenuation as a function of peril, magnitude, and distance (km).
#[inline]
pub fn intensity_at_distance(peril: Peril, magnitude: f64, d_km: f64) -> f64 {
    if d_km > peril.max_radius_km() {
        return 0.0;
    }
    attenuation(peril, magnitude, d_km).clamp(0.0, 12.0)
}

/// The peril's attenuation curve before the radius cut-off and the
/// clamp onto the 0–12 scale.
#[inline]
fn attenuation(peril: Peril, magnitude: f64, d_km: f64) -> f64 {
    match peril {
        // I = c0 + c1 M − c2 ln(d + c3): classic intensity attenuation.
        Peril::Earthquake => 0.5 + 1.6 * magnitude - 1.8 * (d_km + 8.0).ln(),
        // Wind-field style: peak scales with magnitude, e-folding 90 km.
        Peril::Hurricane => (1.35 * magnitude) * (-d_km / 90.0).exp(),
        // Sharp local footprint: power-law with small core radius.
        Peril::Flood => (1.45 * magnitude) / (1.0 + (d_km / 6.0).powi(2)),
    }
}

/// Absolute slack [`distance_at_intensity`] takes off the intensity
/// before inverting. Every attenuation curve is a handful of roundings
/// and one `ln` / `exp` on values of magnitude ≤ ~16, so the computed
/// intensity sits within ~1e-14 of the real curve; the slack is five
/// orders of magnitude above that and, on a 0–12 scale whose damage
/// thresholds are of order 1, widens a footprint by well under a metre.
const INTENSITY_MARGIN: f64 = 1e-9;

/// A conservative inverse of [`intensity_at_distance`] in distance: a
/// radius `D ≤ max_radius_km` such that **every** `d > D` has
/// `intensity_at_distance(peril, magnitude, d) < intensity` as
/// computed, not merely on paper — or `None` when that already holds
/// at the event's centre, i.e. the event reaches `intensity` nowhere.
/// For an `intensity` within the margin of zero the answer is the
/// physical cut-off `max_radius_km` (beyond it the computed intensity
/// is exactly 0). Inputs are finite.
///
/// Margin argument: each real curve is decreasing in distance, so the
/// distance at which it equals `intensity − INTENSITY_MARGIN` bounds
/// the real curve beyond `D` by that much under the target, and the
/// computed curve is within ~1e-14 of the real one (the clamp only
/// lowers values above 12 and lifts negative ones to 0, both still
/// below a positive target). The inverse's own rounding moves `D` by a
/// relative ~1e-15, which each curve's slope turns into at most ~1e-14
/// in intensity.
pub fn distance_at_intensity(peril: Peril, magnitude: f64, intensity: f64) -> Option<f64> {
    let r_max = peril.max_radius_km();
    let target = intensity - INTENSITY_MARGIN;
    if target.is_nan() || target <= 0.0 {
        return Some(r_max);
    }
    if attenuation(peril, magnitude, 0.0) < target {
        return None;
    }
    // The curve's peak is at least `target`, so every log / root
    // argument below is ≥ 1 / ≥ 0.
    let d = match peril {
        Peril::Earthquake => ((0.5 + 1.6 * magnitude - target) / 1.8).exp() - 8.0,
        Peril::Hurricane => 90.0 * (1.35 * magnitude / target).ln(),
        Peril::Flood => 6.0 * (1.45 * magnitude / target - 1.0).sqrt(),
    };
    Some(d.clamp(0.0, r_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::EventId;

    fn event(peril: Peril, magnitude: f64) -> CatalogEvent {
        CatalogEvent {
            id: EventId::new(0),
            peril,
            rate: 0.1,
            magnitude,
            center: GeoPoint::new(500.0, 500.0),
        }
    }

    #[test]
    fn intensity_decreases_with_distance() {
        for peril in Peril::ALL {
            let mut prev = f64::INFINITY;
            for d in [0.0, 5.0, 20.0, 50.0, 100.0, 200.0] {
                let i = intensity_at_distance(peril, 7.5, d);
                assert!(
                    i <= prev + 1e-12,
                    "{peril}: intensity rose from {prev} to {i} at d={d}"
                );
                prev = i;
            }
        }
    }

    #[test]
    fn intensity_increases_with_magnitude() {
        for peril in Peril::ALL {
            for d in [0.0, 10.0, 50.0] {
                let lo = intensity_at_distance(peril, 5.5, d);
                let hi = intensity_at_distance(peril, 8.5, d);
                assert!(hi >= lo, "{peril} at d={d}: {hi} < {lo}");
            }
        }
    }

    #[test]
    fn zero_beyond_max_radius() {
        for peril in Peril::ALL {
            let r = peril.max_radius_km();
            assert_eq!(intensity_at_distance(peril, 9.0, r + 1.0), 0.0);
        }
    }

    #[test]
    fn intensity_bounded_by_scale() {
        for peril in Peril::ALL {
            for d in [0.0, 1.0, 10.0] {
                let i = intensity_at_distance(peril, 9.0, d);
                assert!((0.0..=12.0).contains(&i));
            }
        }
    }

    /// The inverse is conservative (proptested in `tests/elt_oracle.rs`)
    /// but not uselessly so: a metre inside it the event still reaches
    /// the target, an unreachable target has no footprint, and a zero
    /// target falls back to the physical radius.
    #[test]
    fn distance_inverse_is_tight_and_total() {
        for peril in Peril::ALL {
            let r_max = peril.max_radius_km();
            for magnitude in [5.0, 6.5, 8.0] {
                for target in [0.5, 1.8, 4.0] {
                    let Some(reach) = distance_at_intensity(peril, magnitude, target) else {
                        assert!(intensity_at_distance(peril, magnitude, 0.0) < target);
                        continue;
                    };
                    assert!(intensity_at_distance(peril, magnitude, reach.next_up()) < target);
                    if reach > 1e-3 && reach < r_max {
                        let inside = intensity_at_distance(peril, magnitude, reach - 1e-3);
                        assert!(inside > target - 1e-3, "{peril} m={magnitude}: {inside}");
                    }
                }
                assert_eq!(distance_at_intensity(peril, magnitude, 0.0), Some(r_max));
                assert_eq!(distance_at_intensity(peril, magnitude, 25.0), None);
                assert_eq!(distance_at_intensity(peril, magnitude, f64::INFINITY), None);
            }
        }
    }

    #[test]
    fn site_intensity_uses_event_center() {
        let e = event(Peril::Earthquake, 8.0);
        let near = site_intensity(&e, &GeoPoint::new(505.0, 500.0));
        let far = site_intensity(&e, &GeoPoint::new(700.0, 500.0));
        assert!(near > far);
        assert!(near > 0.0);
    }

    #[test]
    fn flood_is_more_local_than_earthquake() {
        let at = |p: Peril, d: f64| intensity_at_distance(p, 8.0, d);
        // Relative decay at 50 km is much stronger for flood.
        let eq_ratio = at(Peril::Earthquake, 50.0) / at(Peril::Earthquake, 0.0);
        let fl_ratio = at(Peril::Flood, 50.0) / at(Peril::Flood, 0.0);
        assert!(fl_ratio < eq_ratio * 0.5, "fl={fl_ratio} eq={eq_ratio}");
    }
}
