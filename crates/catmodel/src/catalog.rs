//! The stochastic event catalogue: the first primary input of stage 1.
//!
//! Each catalogue entry is a hypothetical catastrophe with an annual
//! occurrence rate and physical parameters. Frequency-severity coupling
//! follows the standard form: big events are rare. For earthquakes this
//! is Gutenberg–Richter (`log10 N(≥M) = a − bM`); for the other perils
//! an equivalent exponential tilt is applied to the severity scale.

use crate::geo::{GeoPoint, Region};
use crate::peril::Peril;
use riskpipe_types::dist::{Distribution, Uniform};
use riskpipe_types::rng::{Rng64, SplitMix64};
use riskpipe_types::{EventId, RiskError, RiskResult};

/// One stochastic catalogue event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogEvent {
    /// Stable event identifier.
    pub id: EventId,
    /// The peril this event belongs to.
    pub peril: Peril,
    /// Annual occurrence rate (events per year).
    pub rate: f64,
    /// Severity on the peril's magnitude scale (EQ moment magnitude;
    /// hurricane intensity index; flood severity index). Range ~[5, 9].
    pub magnitude: f64,
    /// Event centre (epicentre / landfall / flood centroid).
    pub center: GeoPoint,
}

/// Configuration for catalogue generation.
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Number of events to generate.
    pub events: usize,
    /// Total annual rate across the catalogue (expected event
    /// occurrences per year).
    pub total_annual_rate: f64,
    /// Mix of perils as (earthquake, hurricane, flood) weights.
    pub peril_mix: [f64; 3],
    /// Gutenberg–Richter style b-value controlling how fast rates fall
    /// with magnitude (≈1 for real seismicity).
    pub b_value: f64,
    /// Magnitude range `[min, max]`.
    pub magnitude_range: (f64, f64),
    /// Model region.
    pub region: Region,
    /// Generator seed.
    pub seed: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            events: 10_000,
            total_annual_rate: 100.0,
            peril_mix: [0.4, 0.4, 0.2],
            b_value: 1.0,
            magnitude_range: (5.0, 9.0),
            region: Region::default_region(),
            seed: 0x5EED_CA7A_1060,
        }
    }
}

impl CatalogConfig {
    /// A stable 64-bit key over every field that influences generation.
    /// Two configs with equal fingerprints produce bit-identical
    /// catalogues, so the fingerprint is safe to use as a
    /// cross-scenario cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = riskpipe_types::Fingerprint::new("catmodel::CatalogConfig");
        fp.push_usize(self.events)
            .push_f64(self.total_annual_rate)
            .push_f64(self.peril_mix[0])
            .push_f64(self.peril_mix[1])
            .push_f64(self.peril_mix[2])
            .push_f64(self.b_value)
            .push_f64(self.magnitude_range.0)
            .push_f64(self.magnitude_range.1)
            .push_f64(self.region.width_km)
            .push_f64(self.region.height_km)
            .push_u64(self.seed);
        fp.finish()
    }
}

/// The generated catalogue.
#[derive(Debug, Clone)]
pub struct EventCatalog {
    events: Vec<CatalogEvent>,
    total_rate: f64,
}

impl EventCatalog {
    /// Generate a catalogue from a configuration.
    pub fn generate(cfg: &CatalogConfig) -> RiskResult<Self> {
        if cfg.events == 0 {
            return Err(RiskError::invalid("catalogue needs at least one event"));
        }
        if cfg.total_annual_rate <= 0.0 {
            return Err(RiskError::invalid("total annual rate must be positive"));
        }
        let (m_lo, m_hi) = cfg.magnitude_range;
        #[allow(
            clippy::neg_cmp_op_on_partial_ord,
            reason = "negated on purpose: `!(lo < hi)` also rejects NaN bounds"
        )]
        if !(m_lo < m_hi) {
            return Err(RiskError::invalid("magnitude range must be increasing"));
        }
        let wsum: f64 = cfg.peril_mix.iter().sum();
        if wsum <= 0.0 || cfg.peril_mix.iter().any(|&w| w < 0.0) {
            return Err(RiskError::invalid("peril mix weights must be non-negative"));
        }
        let mut rng = SplitMix64::new(cfg.seed);
        let ux = Uniform::new(0.0, cfg.region.width_km);
        let uy = Uniform::new(0.0, cfg.region.height_km);
        let beta = cfg.b_value * std::f64::consts::LN_10;

        let mut events = Vec::with_capacity(cfg.events);
        let mut raw_rates = Vec::with_capacity(cfg.events);
        for i in 0..cfg.events {
            // Peril by mix.
            let pick = rng.next_f64() * wsum;
            let peril = if pick < cfg.peril_mix[0] {
                Peril::Earthquake
            } else if pick < cfg.peril_mix[0] + cfg.peril_mix[1] {
                Peril::Hurricane
            } else {
                Peril::Flood
            };
            // Truncated-exponential magnitude (Gutenberg–Richter form):
            // F(m) = (1 - e^{-β(m-m0)}) / (1 - e^{-β(m1-m0)}).
            let u = rng.next_f64_open();
            let norm = 1.0 - (-beta * (m_hi - m_lo)).exp();
            let magnitude = m_lo - (1.0 - u * norm).ln() / beta;
            // Rate tilt: rarer with magnitude (the same β), to be
            // normalised to the configured total below.
            let raw_rate = (-beta * (magnitude - m_lo)).exp();
            let center = GeoPoint::new(ux.sample(&mut rng), uy.sample(&mut rng));
            events.push(CatalogEvent {
                id: EventId::new(i as u32),
                peril,
                rate: 0.0,
                magnitude,
                center,
            });
            raw_rates.push(raw_rate);
        }
        let raw_total: f64 = raw_rates.iter().sum();
        let scale = cfg.total_annual_rate / raw_total;
        for (e, raw) in events.iter_mut().zip(raw_rates) {
            e.rate = raw * scale;
        }
        Self::from_parts(events, cfg.total_annual_rate)
    }

    /// Assemble a catalogue from event records — the one door into the
    /// type, used by [`EventCatalog::generate`] and by the
    /// stage-1 output decoder ([`crate::stage1io`]). Event ids must
    /// be dense `0..n` in order (the invariant [`EventCatalog::event`]
    /// indexes by), every event's `rate`, `magnitude` and `center` must
    /// be finite, and `total_rate` is carried verbatim so a round trip
    /// is bit-exact rather than re-derived from a float sum.
    pub fn from_parts(events: Vec<CatalogEvent>, total_rate: f64) -> RiskResult<Self> {
        if events.is_empty() {
            return Err(RiskError::invalid("catalogue needs at least one event"));
        }
        if total_rate <= 0.0 || !total_rate.is_finite() {
            return Err(RiskError::invalid("total annual rate must be positive"));
        }
        for (i, e) in events.iter().enumerate() {
            if e.id.index() != i {
                return Err(RiskError::invalid(format!(
                    "catalogue event ids must be dense 0..n: found {} at {i}",
                    e.id
                )));
            }
            let fields = [e.rate, e.magnitude, e.center.x, e.center.y];
            if !fields.iter().all(|x| x.is_finite()) {
                return Err(RiskError::invalid(format!(
                    "catalogue event {i}: rate, magnitude and centre must be finite"
                )));
            }
        }
        Ok(Self { events, total_rate })
    }

    /// Number of catalogue events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total annual rate (expected occurrences per year).
    pub fn total_rate(&self) -> f64 {
        self.total_rate
    }

    /// The events.
    pub fn events(&self) -> &[CatalogEvent] {
        &self.events
    }

    /// A specific event by id (ids are dense 0..n).
    pub fn event(&self, id: EventId) -> &CatalogEvent {
        &self.events[id.index()]
    }

    /// Per-event annual rates, in id order (alias-table input).
    pub fn rates(&self) -> Vec<f64> {
        self.events.iter().map(|e| e.rate).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_normalise_to_total() {
        let cfg = CatalogConfig {
            events: 5_000,
            total_annual_rate: 42.0,
            ..CatalogConfig::default()
        };
        let cat = EventCatalog::generate(&cfg).unwrap();
        let sum: f64 = cat.rates().iter().sum();
        assert!((sum - 42.0).abs() < 1e-9, "sum={sum}");
        assert_eq!(cat.len(), 5_000);
    }

    #[test]
    fn magnitudes_within_range_and_skewed_low() {
        let cfg = CatalogConfig::default();
        let cat = EventCatalog::generate(&cfg).unwrap();
        let (lo, hi) = cfg.magnitude_range;
        let mut below_mid = 0usize;
        for e in cat.events() {
            assert!(e.magnitude >= lo && e.magnitude <= hi);
            if e.magnitude < (lo + hi) / 2.0 {
                below_mid += 1;
            }
        }
        // Gutenberg–Richter: most events are small.
        assert!(below_mid as f64 > cat.len() as f64 * 0.8);
    }

    #[test]
    fn larger_magnitude_events_are_rarer() {
        let cat = EventCatalog::generate(&CatalogConfig::default()).unwrap();
        // Compare mean rate of bottom vs top magnitude quartiles.
        let mut sorted: Vec<&CatalogEvent> = cat.events().iter().collect();
        sorted.sort_by(|a, b| a.magnitude.total_cmp(&b.magnitude));
        let q = sorted.len() / 4;
        let small_mean: f64 = sorted[..q].iter().map(|e| e.rate).sum::<f64>() / q as f64;
        let large_mean: f64 = sorted[sorted.len() - q..]
            .iter()
            .map(|e| e.rate)
            .sum::<f64>()
            / q as f64;
        // Quartiles of a GR catalogue: the bottom quartile sits in a
        // narrow magnitude band near m_min, the top spans the long tail,
        // so a ~5x mean-rate gap is the expected qualitative signature.
        assert!(
            small_mean > large_mean * 3.0,
            "small {small_mean} vs large {large_mean}"
        );
    }

    #[test]
    fn centers_inside_region() {
        let cfg = CatalogConfig::default();
        let cat = EventCatalog::generate(&cfg).unwrap();
        for e in cat.events() {
            assert!(cfg.region.contains(&e.center));
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let cfg = CatalogConfig::default();
        let a = EventCatalog::generate(&cfg).unwrap();
        let b = EventCatalog::generate(&cfg).unwrap();
        assert_eq!(a.events()[17], b.events()[17]);
        let c = EventCatalog::generate(&CatalogConfig { seed: 99, ..cfg }).unwrap();
        assert_ne!(a.events()[17], c.events()[17]);
    }

    #[test]
    fn peril_mix_respected() {
        let cfg = CatalogConfig {
            peril_mix: [1.0, 0.0, 0.0],
            ..CatalogConfig::default()
        };
        let cat = EventCatalog::generate(&cfg).unwrap();
        assert!(cat.events().iter().all(|e| e.peril == Peril::Earthquake));
    }

    #[test]
    fn from_parts_rejects_non_finite_rows() {
        let good = EventCatalog::generate(&CatalogConfig {
            events: 4,
            ..CatalogConfig::default()
        })
        .unwrap();
        assert!(EventCatalog::from_parts(good.events().to_vec(), good.total_rate()).is_ok());
        type Edit = fn(&mut CatalogEvent);
        let edits: [(&str, Edit); 4] = [
            ("NaN rate", |e| e.rate = f64::NAN),
            ("inf magnitude", |e| e.magnitude = f64::INFINITY),
            ("NaN centre x", |e| e.center.x = f64::NAN),
            ("-inf centre y", |e| e.center.y = f64::NEG_INFINITY),
        ];
        for (what, edit) in edits {
            let mut rows = good.events().to_vec();
            edit(&mut rows[2]);
            let err = EventCatalog::from_parts(rows, good.total_rate()).unwrap_err();
            assert!(
                matches!(err, RiskError::InvalidParameter(_)) && err.to_string().contains('2'),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = CatalogConfig::default();
        assert!(EventCatalog::generate(&CatalogConfig { events: 0, ..base }).is_err());
        assert!(EventCatalog::generate(&CatalogConfig {
            total_annual_rate: 0.0,
            ..base
        })
        .is_err());
        assert!(EventCatalog::generate(&CatalogConfig {
            magnitude_range: (9.0, 5.0),
            ..base
        })
        .is_err());
        assert!(EventCatalog::generate(&CatalogConfig {
            peril_mix: [-1.0, 1.0, 1.0],
            ..base
        })
        .is_err());
    }
}
