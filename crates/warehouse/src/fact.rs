//! The loss fact table: the warehouse's single large input.
//!
//! One row per (location, event, layer, day) loss observation — the
//! location-level output of stage 2, i.e. exactly the data the paper
//! says ends up in the YELLT and overwhelms portfolio tools. The
//! warehouse's job (experiment E9) is to make repeated analytical
//! queries over this table cheap by pre-computing aggregates, instead
//! of rescanning the facts for every question.
//!
//! Layout is structure-of-arrays: four dense `u32` code columns (one
//! per [`Schema`] dimension, at each dimension's base level) plus the
//! `f64` loss measure. The table is append-only and scanned, never
//! randomly accessed — the same discipline as the rest of the pipeline.

use crate::dimension::{Schema, NDIMS};
use riskpipe_types::rng::{Rng64, SplitMix64};
use riskpipe_types::{RiskError, RiskResult};

/// Columnar loss fact table.
#[derive(Debug, Clone)]
pub struct FactTable {
    /// Base-level dimension codes, one column per schema dimension.
    codes: [Vec<u32>; NDIMS],
    /// Loss measure per row.
    losses: Vec<f64>,
    /// Number of simulation trials the facts were drawn from (used to
    /// normalise sums into expected annual losses; 0 = unknown).
    trials: u32,
}

/// Validating appender for [`FactTable`].
#[derive(Debug)]
pub struct FactBuilder {
    schema_cards: [u32; NDIMS],
    table: FactTable,
}

impl FactBuilder {
    /// New builder for facts conforming to `schema`.
    pub fn new(schema: &Schema) -> Self {
        let mut cards = [0u32; NDIMS];
        for (i, c) in cards.iter_mut().enumerate() {
            *c = schema.dim(i).cardinality(0);
        }
        Self {
            schema_cards: cards,
            table: FactTable {
                codes: Default::default(),
                losses: Vec::new(),
                trials: 0,
            },
        }
    }

    /// Reserve capacity for `rows` additional facts.
    pub fn reserve(&mut self, rows: usize) {
        for col in &mut self.table.codes {
            col.reserve(rows);
        }
        self.table.losses.reserve(rows);
    }

    /// Append one fact. Codes are base-level (level 0) per dimension.
    pub fn push(&mut self, codes: [u32; NDIMS], loss: f64) -> RiskResult<()> {
        for (d, (&c, &card)) in codes.iter().zip(self.schema_cards.iter()).enumerate() {
            if c >= card {
                return Err(RiskError::invalid(format!(
                    "fact code {c} out of range for dimension {d} (cardinality {card})"
                )));
            }
        }
        if !loss.is_finite() || loss < 0.0 {
            return Err(RiskError::invalid(format!(
                "fact loss must be finite and non-negative, got {loss}"
            )));
        }
        for (col, &c) in self.table.codes.iter_mut().zip(codes.iter()) {
            col.push(c);
        }
        self.table.losses.push(loss);
        Ok(())
    }

    /// Record how many trials produced these facts.
    pub fn set_trials(&mut self, trials: u32) {
        self.table.trials = trials;
    }

    /// Finish, yielding the immutable fact table.
    pub fn build(self) -> FactTable {
        self.table
    }
}

impl FactTable {
    /// Number of fact rows.
    pub fn rows(&self) -> usize {
        self.losses.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.losses.is_empty()
    }

    /// Trial count behind the facts (0 if unset).
    pub fn trials(&self) -> u32 {
        self.trials
    }

    /// The loss column.
    pub fn losses(&self) -> &[f64] {
        &self.losses
    }

    /// One row's codes.
    #[inline]
    pub fn row_codes(&self, row: usize) -> [u32; NDIMS] {
        let mut out = [0u32; NDIMS];
        for (d, col) in self.codes.iter().enumerate() {
            out[d] = col[row];
        }
        out
    }

    /// Total loss across all facts.
    pub fn total_loss(&self) -> f64 {
        let k: riskpipe_types::KahanSum = self.losses.iter().copied().collect();
        k.total()
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.codes.iter().map(|c| c.len() * 4).sum::<usize>() + self.losses.len() * 8
    }

    /// A deterministic synthetic fact table for tests and benches:
    /// `rows` facts with codes drawn uniformly per dimension (skewed
    /// 80/20 toward low event codes, mimicking frequency-ordered
    /// catalogues) and lognormal-ish losses, all from `seed`.
    pub fn synthetic(schema: &Schema, rows: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut b = FactBuilder::new(schema);
        b.reserve(rows);
        let cards = b.schema_cards;
        for _ in 0..rows {
            let mut codes = [0u32; NDIMS];
            for (d, c) in codes.iter_mut().enumerate() {
                let card = cards[d] as u64;
                let u = rng.next_u64();
                // 80% of draws land in the first 20% of codes for the
                // event dimension; others uniform.
                *c = if d == crate::dimension::dim::EVENT && card >= 5 {
                    let hot = (card / 5).max(1);
                    if u % 10 < 8 {
                        ((u >> 8) % hot) as u32
                    } else {
                        (hot + (u >> 8) % (card - hot)) as u32
                    }
                } else {
                    (u % card) as u32
                };
            }
            // Positive, heavy-ish tailed loss in a few orders of
            // magnitude, cheap to compute and fully deterministic.
            let v = rng.next_f64();
            let loss = 1_000.0 * (1.0 / (1.0 - v * 0.9999)).powf(1.3);
            // Codes are `u % card`, in range by construction, so the
            // push cannot be rejected; a dropped row in synthetic data
            // would be harmless either way.
            let _ = b.push(codes, loss);
        }
        b.set_trials(((rows / 100).max(1)) as u32);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::dim;

    fn schema() -> Schema {
        Schema::standard(50, 5, 40, 4, 8, 2).unwrap()
    }

    #[test]
    fn push_validates_codes_and_losses() {
        let s = schema();
        let mut b = FactBuilder::new(&s);
        assert!(b.push([0, 0, 0, 0], 1.0).is_ok());
        assert!(b.push([49, 39, 7, 364], 2.0).is_ok());
        assert!(b.push([50, 0, 0, 0], 1.0).is_err()); // geo out of range
        assert!(b.push([0, 40, 0, 0], 1.0).is_err()); // event out of range
        assert!(b.push([0, 0, 8, 0], 1.0).is_err()); // layer out of range
        assert!(b.push([0, 0, 0, 365], 1.0).is_err()); // day out of range
        assert!(b.push([0, 0, 0, 0], -1.0).is_err());
        assert!(b.push([0, 0, 0, 0], f64::NAN).is_err());
        let t = b.build();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.total_loss(), 3.0);
    }

    #[test]
    fn row_codes_round_trip() {
        let s = schema();
        let mut b = FactBuilder::new(&s);
        b.push([3, 7, 2, 100], 5.0).unwrap();
        b.push([9, 1, 0, 200], 6.0).unwrap();
        let t = b.build();
        assert_eq!(t.row_codes(0), [3, 7, 2, 100]);
        assert_eq!(t.row_codes(1), [9, 1, 0, 200]);
        assert_eq!(t.losses(), &[5.0, 6.0]);
    }

    #[test]
    fn synthetic_is_deterministic_and_in_range() {
        let s = schema();
        let a = FactTable::synthetic(&s, 5_000, 42);
        let b = FactTable::synthetic(&s, 5_000, 42);
        assert_eq!(a.losses(), b.losses());
        assert_eq!(a.codes[0], b.codes[0]);
        let c = FactTable::synthetic(&s, 5_000, 43);
        assert_ne!(a.losses(), c.losses());
        for row in 0..a.rows() {
            let codes = a.row_codes(row);
            for d in 0..NDIMS {
                assert!(codes[d] < s.dim(d).cardinality(0));
            }
            assert!(a.losses()[row] > 0.0 && a.losses()[row].is_finite());
        }
    }

    #[test]
    fn synthetic_event_skew_is_present() {
        let s = schema();
        let t = FactTable::synthetic(&s, 20_000, 7);
        let hot = s.dim(dim::EVENT).cardinality(0) / 5;
        let hot_rows = t.codes[dim::EVENT].iter().filter(|&&e| e < hot).count();
        let frac = hot_rows as f64 / t.rows() as f64;
        assert!(frac > 0.7, "hot fraction {frac}");
    }

    #[test]
    fn memory_and_scan_bytes() {
        let s = schema();
        let t = FactTable::synthetic(&s, 1_000, 1);
        assert_eq!(t.memory_bytes(), 1_000 * (4 * NDIMS + 8));
        assert_eq!(t.trials(), 10);
    }
}
