//! The Year-Event Table (YET): the pre-simulated "alternative views of a
//! contractual year" the paper describes.
//!
//! Each trial is one hypothetical year: an ordered list of catalogue
//! event occurrences, each with a day-of-year and a pre-drawn uniform
//! `z ∈ (0,1)` that downstream engines map through each contract's
//! secondary-uncertainty distribution. Pre-simulating the uniforms is
//! what gives actuaries the paper's "consistent lens": every analysis of
//! the same YET sees the same alternative years.
//!
//! Layout is CSR: `offsets[t]..offsets[t+1]` indexes trial `t`'s
//! occurrences in the parallel column arrays — a pure scan structure.

use riskpipe_types::{EventId, RiskError, RiskResult, TrialId};

/// One event occurrence within a trial (row view).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occurrence {
    /// Which catalogue event occurred.
    pub event_id: EventId,
    /// Day of year, `0..365`.
    pub day: u16,
    /// Pre-drawn uniform for secondary uncertainty, in `(0, 1)`.
    pub z: f64,
}

/// Columnar year-event table (CSR by trial).
#[derive(Debug, Clone)]
pub struct YearEventTable {
    offsets: Vec<u64>,
    event_ids: Vec<u32>,
    days: Vec<u16>,
    z_values: Vec<f64>,
}

impl YearEventTable {
    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total occurrences across all trials.
    pub fn total_occurrences(&self) -> usize {
        self.event_ids.len()
    }

    /// Mean occurrences per trial.
    pub fn mean_occurrences(&self) -> f64 {
        if self.trials() == 0 {
            0.0
        } else {
            self.total_occurrences() as f64 / self.trials() as f64
        }
    }

    /// The occurrence range of a trial, as parallel column slices
    /// `(event_ids, days, z_values)`.
    #[inline]
    pub fn trial_slices(&self, trial: TrialId) -> (&[u32], &[u16], &[f64]) {
        let lo = self.offsets[trial.index()] as usize;
        let hi = self.offsets[trial.index() + 1] as usize;
        (
            &self.event_ids[lo..hi],
            &self.days[lo..hi],
            &self.z_values[lo..hi],
        )
    }

    /// Raw columns `(offsets, event_ids, days, z_values)` for codecs.
    pub fn columns(&self) -> (&[u64], &[u32], &[u16], &[f64]) {
        (&self.offsets, &self.event_ids, &self.days, &self.z_values)
    }

    /// Rebuild from raw columns, validating CSR invariants.
    pub fn from_columns(
        offsets: Vec<u64>,
        event_ids: Vec<u32>,
        days: Vec<u16>,
        z_values: Vec<f64>,
    ) -> RiskResult<Self> {
        let Some(&last) = offsets.last() else {
            return Err(RiskError::corrupt("YET offsets empty"));
        };
        if offsets[0] != 0 {
            return Err(RiskError::corrupt("YET offsets must start at 0"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(RiskError::corrupt("YET offsets must be non-decreasing"));
        }
        let n = last as usize;
        if event_ids.len() != n || days.len() != n || z_values.len() != n {
            return Err(RiskError::corrupt("YET column lengths disagree"));
        }
        if days.iter().any(|&d| d >= 365) {
            return Err(RiskError::corrupt("YET day out of range"));
        }
        if z_values.iter().any(|&z| !(z > 0.0 && z < 1.0)) {
            return Err(RiskError::corrupt("YET z outside (0,1)"));
        }
        Ok(Self {
            offsets,
            event_ids,
            days,
            z_values,
        })
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.event_ids.len() * 4
            + self.days.len() * 2
            + self.z_values.len() * 8
    }
}

/// Incremental builder: trials are appended in order.
#[derive(Debug)]
pub struct YetBuilder {
    offsets: Vec<u64>,
    event_ids: Vec<u32>,
    days: Vec<u16>,
    z_values: Vec<f64>,
}

impl YetBuilder {
    /// Builder pre-sized for an expected trial count.
    pub fn with_capacity(trials: usize, occurrences: usize) -> Self {
        let mut offsets = Vec::with_capacity(trials + 1);
        offsets.push(0);
        Self {
            offsets,
            event_ids: Vec::with_capacity(occurrences),
            days: Vec::with_capacity(occurrences),
            z_values: Vec::with_capacity(occurrences),
        }
    }

    /// Fresh builder.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Append the next trial's occurrences.
    ///
    /// # Panics
    /// Debug-asserts day range and z range; release builds trust the
    /// simulator that produced the occurrences.
    pub fn push_trial(&mut self, occurrences: &[Occurrence]) {
        for o in occurrences {
            debug_assert!(o.day < 365, "day {} out of range", o.day);
            debug_assert!(o.z > 0.0 && o.z < 1.0, "z {} outside (0,1)", o.z);
            self.event_ids.push(o.event_id.raw());
            self.days.push(o.day);
            self.z_values.push(o.z);
        }
        self.offsets.push(self.event_ids.len() as u64);
    }

    /// Trials appended so far.
    pub fn trials(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Finalise.
    pub fn build(self) -> YearEventTable {
        YearEventTable {
            offsets: self.offsets,
            event_ids: self.event_ids,
            days: self.days,
            z_values: self.z_values,
        }
    }
}

impl Default for YetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(e: u32, day: u16, z: f64) -> Occurrence {
        Occurrence {
            event_id: EventId::new(e),
            day,
            z,
        }
    }

    #[test]
    fn build_and_read_back() {
        let mut b = YetBuilder::new();
        b.push_trial(&[occ(1, 10, 0.5), occ(2, 200, 0.25)]);
        b.push_trial(&[]);
        b.push_trial(&[occ(3, 364, 0.75)]);
        let yet = b.build();
        assert_eq!(yet.trials(), 3);
        assert_eq!(yet.total_occurrences(), 3);
        assert!((yet.mean_occurrences() - 1.0).abs() < 1e-12);

        let (e, d, z) = yet.trial_slices(TrialId::new(0));
        assert_eq!(e, &[1, 2]);
        assert_eq!(d, &[10, 200]);
        assert_eq!(z, &[0.5, 0.25]);
        assert!(yet.trial_slices(TrialId::new(1)).0.is_empty());
        let (e, d, z) = yet.trial_slices(TrialId::new(2));
        assert_eq!(e, &[3]);
        assert_eq!(d, &[364]);
        assert_eq!(z, &[0.75]);
    }

    #[test]
    fn from_columns_round_trip() {
        let mut b = YetBuilder::new();
        for t in 0..10u32 {
            let occs: Vec<Occurrence> = (0..t % 4)
                .map(|i| occ(t * 10 + i, (i * 30) as u16, 0.5))
                .collect();
            b.push_trial(&occs);
        }
        let yet = b.build();
        let (o, e, d, z) = yet.columns();
        let back =
            YearEventTable::from_columns(o.to_vec(), e.to_vec(), d.to_vec(), z.to_vec()).unwrap();
        assert_eq!(back.trials(), yet.trials());
        assert_eq!(back.total_occurrences(), yet.total_occurrences());
    }

    #[test]
    fn from_columns_validates() {
        // Bad start.
        assert!(YearEventTable::from_columns(vec![1, 2], vec![1], vec![0], vec![0.5]).is_err());
        // Decreasing offsets.
        assert!(YearEventTable::from_columns(
            vec![0, 2, 1],
            vec![1, 2],
            vec![0, 0],
            vec![0.5, 0.5]
        )
        .is_err());
        // Length mismatch.
        assert!(
            YearEventTable::from_columns(vec![0, 2], vec![1], vec![0, 0], vec![0.5, 0.5]).is_err()
        );
        // Day out of range.
        assert!(YearEventTable::from_columns(vec![0, 1], vec![1], vec![365], vec![0.5]).is_err());
        // z at boundary.
        assert!(YearEventTable::from_columns(vec![0, 1], vec![1], vec![0], vec![0.0]).is_err());
        // Empty offsets.
        assert!(YearEventTable::from_columns(vec![], vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn memory_bytes_positive() {
        let mut b = YetBuilder::with_capacity(2, 4);
        b.push_trial(&[occ(1, 0, 0.1)]);
        let yet = b.build();
        assert!(yet.memory_bytes() > 0);
    }
}
