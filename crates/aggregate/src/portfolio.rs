//! The portfolio: the set of reinsurance layers aggregate analysis
//! prices together.

use crate::terms::LayerTerms;
use riskpipe_tables::Elt;
use riskpipe_types::{LayerId, RiskError, RiskResult};
use std::sync::Arc;

/// One reinsurance contract: terms plus the ELT quantifying its risk.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Contract identifier.
    pub id: LayerId,
    /// Financial terms.
    pub terms: LayerTerms,
    /// The contract's event-loss table.
    pub elt: Arc<Elt>,
}

impl Layer {
    /// Create a validated layer.
    pub fn new(id: LayerId, terms: LayerTerms, elt: Arc<Elt>) -> RiskResult<Self> {
        terms.validate()?;
        if elt.is_empty() {
            return Err(RiskError::invalid(format!("layer {id} has an empty ELT")));
        }
        Ok(Self { id, terms, elt })
    }
}

/// A portfolio of layers.
#[derive(Debug, Clone, Default)]
pub struct Portfolio {
    layers: Vec<Layer>,
}

impl Portfolio {
    /// An empty portfolio.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a layer.
    pub fn push(&mut self, layer: Layer) {
        self.layers.push(layer);
    }

    /// Build from parallel term/ELT lists, assigning dense ids.
    pub fn from_parts(parts: Vec<(LayerTerms, Arc<Elt>)>) -> RiskResult<Self> {
        let mut p = Self::new();
        for (i, (terms, elt)) in parts.into_iter().enumerate() {
            p.push(Layer::new(LayerId::new(i as u32), terms, elt)?);
        }
        Ok(p)
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the portfolio has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total ELT rows across layers (a work-size diagnostic).
    pub fn total_elt_rows(&self) -> usize {
        self.layers.iter().map(|l| l.elt.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_types::EventId;

    fn elt() -> Arc<Elt> {
        let mut b = EltBuilder::new();
        b.push(EltRecord {
            event_id: EventId::new(1),
            mean_loss: 100.0,
            sigma_i: 10.0,
            sigma_c: 5.0,
            exposure: 1_000.0,
        })
        .unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn from_parts_assigns_dense_ids() {
        let p = Portfolio::from_parts(vec![
            (LayerTerms::pass_through(), elt()),
            (LayerTerms::xl(10.0, 100.0), elt()),
        ])
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.layers()[0].id, LayerId::new(0));
        assert_eq!(p.layers()[1].id, LayerId::new(1));
        assert_eq!(p.total_elt_rows(), 2);
    }

    #[test]
    fn invalid_terms_rejected() {
        let r = Portfolio::from_parts(vec![(
            LayerTerms {
                share: 2.0,
                ..LayerTerms::pass_through()
            },
            elt(),
        )]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_elt_rejected() {
        let empty = Arc::new(EltBuilder::new().build().unwrap());
        assert!(Layer::new(LayerId::new(0), LayerTerms::pass_through(), empty).is_err());
    }
}
