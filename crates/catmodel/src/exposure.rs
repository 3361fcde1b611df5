//! The exposure database: the second primary input of stage 1.
//!
//! Synthetic but structurally realistic: locations cluster around urban
//! centres (catastrophe loss is driven by concentration), insured values
//! are lognormal, and each location carries a construction class and
//! site-level insurance terms.

use crate::geo::{GeoPoint, Region};
use crate::vulnerability::ConstructionClass;
use riskpipe_types::dist::{Distribution, LogNormal, Normal, Uniform};
use riskpipe_types::rng::{Rng64, SplitMix64};
use riskpipe_types::{LocationId, RiskError, RiskResult};

/// Locations per block of [`ExposurePortfolio::generate`]'s quantile
/// inversions.
const BLOCK: usize = 8;

/// One insured location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureLocation {
    /// Stable location identifier (dense within a portfolio).
    pub id: LocationId,
    /// Site coordinates.
    pub position: GeoPoint,
    /// Total insured value.
    pub tiv: f64,
    /// Construction class, driving vulnerability.
    pub construction: ConstructionClass,
    /// Site deductible (absolute).
    pub deductible: f64,
    /// Site limit (absolute; the most the policy pays per event).
    pub limit: f64,
}

/// Configuration for exposure generation.
#[derive(Debug, Clone, Copy)]
pub struct ExposureConfig {
    /// Number of locations.
    pub locations: usize,
    /// Number of urban clusters the locations concentrate around.
    pub clusters: usize,
    /// Cluster radius (km, 1 standard deviation).
    pub cluster_radius_km: f64,
    /// Mean insured value per location.
    pub mean_tiv: f64,
    /// Coefficient of variation of insured value.
    pub tiv_cv: f64,
    /// Site deductible as a fraction of TIV.
    pub deductible_fraction: f64,
    /// Site limit as a fraction of TIV.
    pub limit_fraction: f64,
    /// Model region.
    pub region: Region,
    /// Generator seed.
    pub seed: u64,
}

impl Default for ExposureConfig {
    fn default() -> Self {
        Self {
            locations: 1_000,
            clusters: 8,
            cluster_radius_km: 40.0,
            mean_tiv: 5_000_000.0,
            tiv_cv: 1.5,
            deductible_fraction: 0.01,
            limit_fraction: 0.8,
            region: Region::default_region(),
            seed: 0xE4_905_0E5,
        }
    }
}

impl ExposureConfig {
    /// A stable 64-bit key over every field that influences generation
    /// (see [`crate::CatalogConfig::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = riskpipe_types::Fingerprint::new("catmodel::ExposureConfig");
        fp.push_usize(self.locations)
            .push_usize(self.clusters)
            .push_f64(self.cluster_radius_km)
            .push_f64(self.mean_tiv)
            .push_f64(self.tiv_cv)
            .push_f64(self.deductible_fraction)
            .push_f64(self.limit_fraction)
            .push_f64(self.region.width_km)
            .push_f64(self.region.height_km)
            .push_u64(self.seed);
        fp.finish()
    }
}

/// A generated portfolio of insured locations.
#[derive(Debug, Clone)]
pub struct ExposurePortfolio {
    locations: Vec<ExposureLocation>,
    total_tiv: f64,
}

impl ExposurePortfolio {
    /// Generate from a configuration.
    ///
    /// Each location draws, in this order, its cluster (`next_below`),
    /// the two scatter offsets and its TIV (`next_f64_open` each) and
    /// its construction class (`next_f64`); the draw order is part of
    /// the output and fixed. The three normal quantiles are inverted a
    /// block of eight locations at a time
    /// ([`Normal::quantiles_in_place`], [`LogNormal::quantiles_in_place`]),
    /// which returns the scalar quantiles' bits, so the portfolio is
    /// the one location-at-a-time sampling gives.
    pub fn generate(cfg: &ExposureConfig) -> RiskResult<Self> {
        if cfg.locations == 0 {
            return Err(RiskError::invalid("exposure needs at least one location"));
        }
        if cfg.clusters == 0 {
            return Err(RiskError::invalid("need at least one cluster"));
        }
        if cfg.mean_tiv <= 0.0 || cfg.tiv_cv <= 0.0 {
            return Err(RiskError::invalid("TIV parameters must be positive"));
        }
        if !(0.0..1.0).contains(&cfg.deductible_fraction)
            || !(0.0..=1.0).contains(&cfg.limit_fraction)
            || cfg.limit_fraction <= cfg.deductible_fraction
        {
            return Err(RiskError::invalid(
                "need 0 <= deductible_fraction < limit_fraction <= 1",
            ));
        }
        let mut rng = SplitMix64::new(cfg.seed);
        // Urban centres.
        let ux = Uniform::new(0.0, cfg.region.width_km);
        let uy = Uniform::new(0.0, cfg.region.height_km);
        let centres: Vec<GeoPoint> = (0..cfg.clusters)
            .map(|_| GeoPoint::new(ux.sample(&mut rng), uy.sample(&mut rng)))
            .collect();
        let scatter = Normal::new(0.0, cfg.cluster_radius_km);
        let tiv_dist = LogNormal::from_mean_cv(cfg.mean_tiv, cfg.tiv_cv);

        let mut locations = Vec::with_capacity(cfg.locations);
        let mut total_tiv = 0.0;
        let mut centre = [GeoPoint::default(); BLOCK];
        let (mut xs, mut ys, mut tivs) = ([0.0; BLOCK], [0.0; BLOCK], [0.0; BLOCK]);
        let mut construction = [ConstructionClass::Wood; BLOCK];
        for first in (0..cfg.locations).step_by(BLOCK) {
            let n = BLOCK.min(cfg.locations - first);
            for k in 0..n {
                centre[k] = centres[rng.next_below(cfg.clusters as u32) as usize];
                xs[k] = rng.next_f64_open();
                ys[k] = rng.next_f64_open();
                tivs[k] = rng.next_f64_open();
                construction[k] = ConstructionClass::sample(&mut rng);
            }
            scatter.quantiles_in_place(&mut xs[..n]);
            scatter.quantiles_in_place(&mut ys[..n]);
            tiv_dist.quantiles_in_place(&mut tivs[..n]);
            for k in 0..n {
                let position = cfg
                    .region
                    .clamp(GeoPoint::new(centre[k].x + xs[k], centre[k].y + ys[k]));
                let tiv = tivs[k];
                locations.push(ExposureLocation {
                    id: LocationId::new((first + k) as u32),
                    position,
                    tiv,
                    construction: construction[k],
                    deductible: tiv * cfg.deductible_fraction,
                    limit: tiv * cfg.limit_fraction,
                });
                total_tiv += tiv;
            }
        }
        Self::from_parts(locations, total_tiv)
    }

    /// Assemble a portfolio from location records — the one door into
    /// the type, used by [`ExposurePortfolio::generate`] and by the
    /// stage-1 output decoder ([`crate::stage1io`]).
    /// `total_tiv` is carried verbatim so a round trip is bit-exact
    /// rather than re-derived from a float sum.
    ///
    /// Every row is checked, so the loss chain and the ELT generator's
    /// location index never meet a value they cannot order: positions
    /// are finite, `tiv` is finite and positive, `deductible` and
    /// `limit` are finite and non-negative.
    pub fn from_parts(locations: Vec<ExposureLocation>, total_tiv: f64) -> RiskResult<Self> {
        if locations.is_empty() {
            return Err(RiskError::invalid("exposure needs at least one location"));
        }
        if u32::try_from(locations.len()).is_err() {
            return Err(RiskError::invalid(
                "exposure has more locations than a LocationId can number",
            ));
        }
        if total_tiv <= 0.0 || !total_tiv.is_finite() {
            return Err(RiskError::invalid("total TIV must be positive"));
        }
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        for (i, l) in locations.iter().enumerate() {
            if !(l.position.x.is_finite() && l.position.y.is_finite()) {
                return Err(RiskError::invalid(format!(
                    "location {i}: position must be finite"
                )));
            }
            if !(l.tiv.is_finite() && l.tiv > 0.0) {
                return Err(RiskError::invalid(format!(
                    "location {i}: TIV must be finite and positive"
                )));
            }
            if !(non_negative(l.deductible) && non_negative(l.limit)) {
                return Err(RiskError::invalid(format!(
                    "location {i}: deductible and limit must be finite and non-negative"
                )));
            }
        }
        Ok(Self {
            locations,
            total_tiv,
        })
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the portfolio is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// The locations.
    pub fn locations(&self) -> &[ExposureLocation] {
        &self.locations
    }

    /// Sum of insured values.
    pub fn total_tiv(&self) -> f64 {
        self.total_tiv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let p = ExposurePortfolio::generate(&ExposureConfig::default()).unwrap();
        assert_eq!(p.len(), 1_000);
        assert!(p.total_tiv() > 0.0);
    }

    #[test]
    fn locations_inside_region_with_valid_terms() {
        let cfg = ExposureConfig::default();
        let p = ExposurePortfolio::generate(&cfg).unwrap();
        for l in p.locations() {
            assert!(cfg.region.contains(&l.position));
            assert!(l.tiv > 0.0);
            assert!(l.deductible >= 0.0 && l.deductible < l.limit);
            assert!(l.limit <= l.tiv);
        }
    }

    #[test]
    fn exposures_are_clustered() {
        // With few clusters and a modest radius, mean nearest-centroid
        // distance should be far below the uniform-over-region value.
        let cfg = ExposureConfig {
            locations: 500,
            clusters: 3,
            cluster_radius_km: 20.0,
            ..ExposureConfig::default()
        };
        let p = ExposurePortfolio::generate(&cfg).unwrap();
        // Recompute cluster centres as the mean of assigned points is
        // unavailable; instead verify pairwise spread: many points are
        // within 3 sigma of some other point's neighbourhood.
        let close_pairs = p
            .locations()
            .iter()
            .take(100)
            .flat_map(|a| {
                p.locations()
                    .iter()
                    .take(100)
                    .map(move |b| a.position.distance_km(&b.position))
            })
            .filter(|&d| d > 0.0 && d < 4.0 * cfg.cluster_radius_km)
            .count();
        // Uniform points in a 1000 km box would almost never be this
        // close this often.
        assert!(close_pairs > 1_000, "close_pairs={close_pairs}");
    }

    #[test]
    fn tiv_mean_is_roughly_configured() {
        let cfg = ExposureConfig {
            locations: 20_000,
            ..ExposureConfig::default()
        };
        let p = ExposurePortfolio::generate(&cfg).unwrap();
        let mean = p.total_tiv() / p.len() as f64;
        assert!(
            (mean - cfg.mean_tiv).abs() / cfg.mean_tiv < 0.1,
            "mean={mean}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = ExposureConfig::default();
        let a = ExposurePortfolio::generate(&cfg).unwrap();
        let b = ExposurePortfolio::generate(&cfg).unwrap();
        assert_eq!(a.locations()[5], b.locations()[5]);
    }

    #[test]
    fn from_parts_rejects_unusable_rows() {
        let good = ExposurePortfolio::generate(&ExposureConfig {
            locations: 5,
            ..ExposureConfig::default()
        })
        .unwrap();
        let total = good.total_tiv();
        assert!(ExposurePortfolio::from_parts(good.locations().to_vec(), total).is_ok());
        type Edit = fn(&mut ExposureLocation);
        let edits: [(&str, Edit); 10] = [
            ("NaN x", |l| l.position.x = f64::NAN),
            ("inf y", |l| l.position.y = f64::INFINITY),
            ("NaN tiv", |l| l.tiv = f64::NAN),
            ("zero tiv", |l| l.tiv = 0.0),
            ("negative tiv", |l| l.tiv = -1.0),
            ("inf tiv", |l| l.tiv = f64::INFINITY),
            ("NaN deductible", |l| l.deductible = f64::NAN),
            ("negative deductible", |l| l.deductible = -0.5),
            ("inf limit", |l| l.limit = f64::INFINITY),
            ("negative limit", |l| l.limit = -1.0),
        ];
        for (what, edit) in edits {
            let mut rows = good.locations().to_vec();
            edit(&mut rows[3]);
            let err = ExposurePortfolio::from_parts(rows, total).unwrap_err();
            assert!(
                matches!(err, RiskError::InvalidParameter(_)) && err.to_string().contains('3'),
                "{what}: {err}"
            );
        }
        // Zero deductible and zero limit are legitimate terms.
        let mut rows = good.locations().to_vec();
        rows[0].deductible = 0.0;
        rows[1].limit = 0.0;
        assert!(ExposurePortfolio::from_parts(rows, total).is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = ExposureConfig::default();
        assert!(ExposurePortfolio::generate(&ExposureConfig {
            locations: 0,
            ..base
        })
        .is_err());
        assert!(ExposurePortfolio::generate(&ExposureConfig {
            clusters: 0,
            ..base
        })
        .is_err());
        assert!(ExposurePortfolio::generate(&ExposureConfig {
            limit_fraction: 0.005,
            ..base
        })
        .is_err());
    }
}
