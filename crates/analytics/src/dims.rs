//! The drill-down star schema: how a scenario sweep's reports map onto
//! warehouse dimensions.
//!
//! The paper's stage-3 workload slices terabytes of trial data "by
//! peril, region, layer, return-period band". A sweep gives us exactly
//! those coordinates: each scenario *is* one (region, peril, layer)
//! book of business, and within a scenario each trial lands in a
//! return-period band determined by its loss rank. The four warehouse
//! dimensions ([`riskpipe_warehouse::NDIMS`]) carry them as:
//!
//! | dim index (warehouse name) | levels (finest → coarsest)          |
//! |----------------------------|-------------------------------------|
//! | 0 ([`dim::GEO`][GEO])      | region → all                        |
//! | 1 ([`dim::EVENT`][EVENT])  | peril → all                         |
//! | 2 ([`dim::CONTRACT`][CONTRACT]) | layer → attachment band → engine → all |
//! | 3 ([`dim::TIME`][TIME])    | return-period band → all            |
//!
//! The contract hierarchy folds each sweep slot ("layer") into its
//! attachment band, and every band into the session's engine code — a
//! provenance level: all facts of one warehouse come from one engine
//! (the engines are bit-identical, so this tags *which* engine
//! produced the data rather than partitioning it), and it survives
//! rollups and rebuilds.
//!
//! [GEO]: riskpipe_warehouse::dim::GEO
//! [EVENT]: riskpipe_warehouse::dim::EVENT
//! [CONTRACT]: riskpipe_warehouse::dim::CONTRACT
//! [TIME]: riskpipe_warehouse::dim::TIME

use riskpipe_aggregate::EngineKind;
use riskpipe_core::ScenarioConfig;
use riskpipe_types::{RiskError, RiskResult};
use riskpipe_warehouse::{Dimension, Level, Schema};

/// Return-period band edges in years: band `i` holds trials whose
/// empirical return period is in `[edge[i-1], edge[i])`, with band 0
/// below 2 years and the last band open-ended above 250 years. The
/// edges are the standard EP reporting return periods, so a band
/// filter is a "tail slice" in the reporting vocabulary.
pub const RETURN_PERIOD_BAND_EDGES: [f64; 7] = [2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0];

/// Number of return-period bands (the time dimension's cardinality).
pub const RETURN_PERIOD_BANDS: u32 = RETURN_PERIOD_BAND_EDGES.len() as u32 + 1;

/// The band a return period falls in.
pub fn band_of_return_period(rp: f64) -> u32 {
    RETURN_PERIOD_BAND_EDGES
        .iter()
        .take_while(|&&edge| rp >= edge)
        .count() as u32
}

/// Quantise an attachment factor into a coarse pricing band (steps of
/// 0.25, capped at band 15). A factor of +∞ lands in band 15: a layer
/// attached at infinity sits above every finite attachment, so it
/// belongs with the dearest layers, not the cheapest. Non-positive
/// factors (−∞ included) land in band 0, and so does NaN, which
/// `LayerTerms::validate` rejects before any report reaches a band.
pub fn attachment_band(factor: f64) -> u32 {
    if factor.is_nan() || factor <= 0.0 {
        return 0;
    }
    // `as` saturates: +∞ / 0.25 becomes `u32::MAX`, capped to 15.
    ((factor / 0.25) as u32).min(15)
}

/// One sweep slot's drill-down coordinates: which region and peril the
/// scenario's book models, and its pricing (attachment) band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioDims {
    /// Region code of the scenario's book.
    pub region: u32,
    /// Peril code of the scenario's book.
    pub peril: u32,
    /// Attachment band (see [`attachment_band`]).
    pub attachment_band: u32,
}

impl ScenarioDims {
    /// Coordinates for a scenario at `(region, peril)` with the band
    /// derived from its attachment factor.
    pub fn for_scenario(region: u32, peril: u32, scenario: &ScenarioConfig) -> Self {
        Self {
            region,
            peril,
            attachment_band: attachment_band(scenario.attachment_factor),
        }
    }
}

/// The complete drill-down layout of one sweep: the star schema, the
/// per-slot scenario coordinates, the engine provenance code, and the
/// per-cell sketch capacity. Build one per sweep and share it between
/// the ingest sink, the queryable warehouse, and the
/// rebuild-from-store path — all three must agree on it for the
/// bit-identity contract to hold.
#[derive(Debug, Clone)]
pub struct DrilldownLayout {
    schema: Schema,
    dims: Vec<ScenarioDims>,
    engine: EngineKind,
    sketch_k: usize,
}

impl DrilldownLayout {
    /// Default per-cell sketch capacity. Cells hold one scenario ×
    /// band at the base level, so 1024 keeps typical cells exact while
    /// bounding rollup cells that pool many scenarios.
    pub const DEFAULT_SKETCH_K: usize = 1024;

    /// Build the layout for a sweep whose slot `i` has coordinates
    /// `dims[i]`, executed on `engine`.
    pub fn new(dims: Vec<ScenarioDims>, engine: EngineKind) -> RiskResult<Self> {
        if dims.is_empty() {
            return Err(RiskError::invalid("drill-down layout needs scenarios"));
        }
        // `unwrap_or(0)` is unreachable (emptiness was rejected above)
        // but keeps the worker path panic-free.
        let regions = dims.iter().map(|d| d.region).max().unwrap_or(0) + 1;
        let perils = dims.iter().map(|d| d.peril).max().unwrap_or(0) + 1;
        let bands = dims.iter().map(|d| d.attachment_band).max().unwrap_or(0) + 1;
        let layers = dims.len() as u32;
        let engine_code = engine_code(engine);

        let geo = Dimension::new(
            "geography",
            vec![Level {
                name: "region".into(),
                cardinality: regions,
            }],
            vec![],
        )?;
        let event = Dimension::new(
            "event",
            vec![Level {
                name: "peril".into(),
                cardinality: perils,
            }],
            vec![],
        )?;
        let contract = Dimension::new(
            "contract",
            vec![
                Level {
                    name: "layer".into(),
                    cardinality: layers,
                },
                Level {
                    name: "attachment-band".into(),
                    cardinality: bands,
                },
                Level {
                    name: "engine".into(),
                    cardinality: EngineKind::ALL.len() as u32,
                },
            ],
            vec![
                dims.iter().map(|d| d.attachment_band).collect(),
                vec![engine_code; bands as usize],
            ],
        )?;
        let time = Dimension::new(
            "return-period",
            vec![Level {
                name: "rp-band".into(),
                cardinality: RETURN_PERIOD_BANDS,
            }],
            vec![],
        )?;
        Ok(Self {
            schema: Schema::new(vec![geo, event, contract, time])?,
            dims,
            engine,
            sketch_k: Self::DEFAULT_SKETCH_K,
        })
    }

    /// Replace the per-cell sketch capacity (values per level; exact
    /// up to `k` pooled losses per cell).
    pub fn with_sketch_k(mut self, k: usize) -> Self {
        self.sketch_k = k;
        self
    }

    /// The star schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of sweep slots the layout covers.
    pub fn scenarios(&self) -> usize {
        self.dims.len()
    }

    /// Per-slot coordinates.
    pub fn dims(&self) -> &[ScenarioDims] {
        &self.dims
    }

    /// Slot `slot`'s coordinates.
    pub fn slot_dims(&self, slot: usize) -> RiskResult<ScenarioDims> {
        self.dims.get(slot).copied().ok_or_else(|| {
            RiskError::invalid(format!(
                "slot {slot} outside the drill-down layout ({} scenarios)",
                self.dims.len()
            ))
        })
    }

    /// The engine the facts are attributed to.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Per-cell sketch capacity.
    pub fn sketch_k(&self) -> usize {
        self.sketch_k
    }
}

/// The engine's dense code: its position in [`EngineKind::ALL`].
/// Every variant is in `ALL`, so the lookup cannot miss; the fallback
/// keeps the worker path panic-free all the same.
pub fn engine_code(engine: EngineKind) -> u32 {
    EngineKind::ALL
        .iter()
        .position(|&k| k == engine)
        .unwrap_or(0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_warehouse::dim;

    #[test]
    fn band_edges_partition_return_periods() {
        assert_eq!(band_of_return_period(1.0), 0);
        assert_eq!(band_of_return_period(1.99), 0);
        assert_eq!(band_of_return_period(2.0), 1);
        assert_eq!(band_of_return_period(7.0), 2);
        assert_eq!(band_of_return_period(100.0), 6);
        assert_eq!(band_of_return_period(250.0), 7);
        assert_eq!(band_of_return_period(1e9), 7);
        assert_eq!(
            RETURN_PERIOD_BANDS,
            RETURN_PERIOD_BAND_EDGES.len() as u32 + 1
        );
    }

    #[test]
    fn attachment_bands_quantise() {
        assert_eq!(attachment_band(0.1), 0);
        assert_eq!(attachment_band(0.25), 1);
        assert_eq!(attachment_band(0.45), 1);
        assert_eq!(attachment_band(0.5), 2);
        assert_eq!(attachment_band(-1.0), 0);
        assert_eq!(attachment_band(f64::NAN), 0);
        assert_eq!(attachment_band(f64::NEG_INFINITY), 0);
        assert_eq!(attachment_band(1e9), 15);
        assert_eq!(attachment_band(f64::INFINITY), 15);
    }

    #[test]
    fn layout_schema_matches_sweep_shape() {
        let dims = vec![
            ScenarioDims {
                region: 0,
                peril: 0,
                attachment_band: 1,
            },
            ScenarioDims {
                region: 1,
                peril: 1,
                attachment_band: 2,
            },
            ScenarioDims {
                region: 1,
                peril: 0,
                attachment_band: 1,
            },
        ];
        let layout = DrilldownLayout::new(dims, EngineKind::CpuParallel).unwrap();
        let s = layout.schema();
        assert_eq!(s.dim(dim::GEO).cardinality(0), 2);
        assert_eq!(s.dim(dim::EVENT).cardinality(0), 2);
        assert_eq!(s.dim(dim::CONTRACT).cardinality(0), 3); // layers
        assert_eq!(s.dim(dim::CONTRACT).cardinality(1), 3); // bands 0..=2
        assert_eq!(s.dim(dim::CONTRACT).cardinality(2), 4); // engines
        assert_eq!(s.dim(dim::TIME).cardinality(0), 8);
        // Layer → band map follows the dims, band → engine is constant.
        assert_eq!(s.dim(dim::CONTRACT).code_at(1, 0), 1);
        assert_eq!(s.dim(dim::CONTRACT).code_at(1, 1), 2);
        assert_eq!(
            s.dim(dim::CONTRACT).code_at(2, 0),
            engine_code(EngineKind::CpuParallel)
        );
        assert_eq!(layout.scenarios(), 3);
        assert!(layout.slot_dims(3).is_err());
    }

    #[test]
    fn empty_layout_rejected() {
        assert!(DrilldownLayout::new(vec![], EngineKind::Sequential).is_err());
    }
}
