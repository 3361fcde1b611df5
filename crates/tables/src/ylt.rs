//! The Year-Loss Table (YLT): the output of aggregate analysis and the
//! input to DFA and to every portfolio risk metric.
//!
//! One row per trial: the year's aggregate (annual) loss, the largest
//! single-occurrence loss (for occurrence exceedance curves), and the
//! number of loss-causing occurrences.

use riskpipe_types::stats::sort_f64;
use riskpipe_types::{RiskError, RiskResult, TrialId};

/// Columnar year-loss table.
#[derive(Debug, Clone, PartialEq)]
pub struct Ylt {
    agg_loss: Vec<f64>,
    max_occ_loss: Vec<f64>,
    occ_count: Vec<u32>,
}

impl Ylt {
    /// A zeroed YLT over `trials` trials.
    pub fn zeroed(trials: usize) -> Self {
        Self {
            agg_loss: vec![0.0; trials],
            max_occ_loss: vec![0.0; trials],
            occ_count: vec![0; trials],
        }
    }

    /// Build from per-trial columns.
    pub fn from_columns(
        agg_loss: Vec<f64>,
        max_occ_loss: Vec<f64>,
        occ_count: Vec<u32>,
    ) -> RiskResult<Self> {
        if agg_loss.len() != max_occ_loss.len() || agg_loss.len() != occ_count.len() {
            return Err(RiskError::corrupt("YLT column lengths disagree"));
        }
        if agg_loss
            .iter()
            .zip(max_occ_loss.iter())
            .any(|(&a, &m)| !a.is_finite() || !m.is_finite() || a + 1e-9 < m.min(0.0))
        {
            return Err(RiskError::corrupt("YLT losses must be finite"));
        }
        Ok(Self {
            agg_loss,
            max_occ_loss,
            occ_count,
        })
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.agg_loss.len()
    }

    /// Set one trial's row (used by engines filling preallocated YLTs).
    #[inline]
    pub fn set_trial(&mut self, trial: TrialId, agg: f64, max_occ: f64, count: u32) {
        let t = trial.index();
        self.agg_loss[t] = agg;
        self.max_occ_loss[t] = max_occ;
        self.occ_count[t] = count;
    }

    /// Aggregate annual loss per trial.
    pub fn agg_losses(&self) -> &[f64] {
        &self.agg_loss
    }

    /// Maximum single-occurrence loss per trial.
    pub fn max_occ_losses(&self) -> &[f64] {
        &self.max_occ_loss
    }

    /// Loss-causing occurrence count per trial.
    pub fn occ_counts(&self) -> &[u32] {
        &self.occ_count
    }

    /// Mutable view of the three columns, for engines that fill a
    /// preallocated YLT in parallel over disjoint trial chunks.
    pub fn columns_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [u32]) {
        (
            &mut self.agg_loss,
            &mut self.max_occ_loss,
            &mut self.occ_count,
        )
    }

    /// Mean annual loss across trials (the pure premium).
    pub fn mean_annual_loss(&self) -> f64 {
        if self.agg_loss.is_empty() {
            return 0.0;
        }
        let k: riskpipe_types::KahanSum = self.agg_loss.iter().copied().collect();
        k.total() / self.agg_loss.len() as f64
    }

    /// Add another YLT trial-wise (combining two books of business that
    /// share the same YET). Aggregate losses add; the max-occurrence
    /// column takes the per-trial max of the two (the union's true
    /// occurrence maximum when a single occurrence's loss is not split
    /// across the two books, and a lower bound otherwise).
    pub fn add(&mut self, other: &Ylt) -> RiskResult<()> {
        if other.trials() != self.trials() {
            return Err(RiskError::invalid(format!(
                "cannot add YLTs with {} vs {} trials",
                self.trials(),
                other.trials()
            )));
        }
        for t in 0..self.trials() {
            self.agg_loss[t] += other.agg_loss[t];
            self.max_occ_loss[t] = self.max_occ_loss[t].max(other.max_occ_loss[t]);
            self.occ_count[t] += other.occ_count[t];
        }
        Ok(())
    }

    /// Scale all losses by a factor (share / currency conversion).
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.agg_loss {
            *v *= factor;
        }
        for v in &mut self.max_occ_loss {
            *v *= factor;
        }
    }

    /// Sorted copy of the aggregate losses (ascending) for quantiles.
    pub fn sorted_agg_losses(&self) -> Vec<f64> {
        let mut v = self.agg_loss.clone();
        sort_f64(&mut v);
        v
    }

    /// Sorted copy of the max-occurrence losses (ascending).
    pub fn sorted_max_occ_losses(&self) -> Vec<f64> {
        let mut v = self.max_occ_loss.clone();
        sort_f64(&mut v);
        v
    }

    /// Raw columns for codecs.
    pub fn columns(&self) -> (&[f64], &[f64], &[u32]) {
        (&self.agg_loss, &self.max_occ_loss, &self.occ_count)
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.agg_loss.len() * 8 + self.max_occ_loss.len() * 8 + self.occ_count.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ylt {
        let mut y = Ylt::zeroed(4);
        y.set_trial(TrialId::new(0), 10.0, 6.0, 2);
        y.set_trial(TrialId::new(1), 0.0, 0.0, 0);
        y.set_trial(TrialId::new(2), 30.0, 30.0, 1);
        y.set_trial(TrialId::new(3), 20.0, 12.0, 3);
        y
    }

    #[test]
    fn mean_annual_loss() {
        assert!((sample().mean_annual_loss() - 15.0).abs() < 1e-12);
        assert_eq!(Ylt::zeroed(0).mean_annual_loss(), 0.0);
    }

    #[test]
    fn add_combines_trialwise() {
        let mut a = sample();
        let b = sample();
        a.add(&b).unwrap();
        assert_eq!(a.agg_losses(), &[20.0, 0.0, 60.0, 40.0]);
        assert_eq!(a.max_occ_losses(), &[6.0, 0.0, 30.0, 12.0]);
        assert_eq!(a.occ_counts(), &[4, 0, 2, 6]);
    }

    #[test]
    fn add_rejects_mismatched_trials() {
        let mut a = sample();
        assert!(a.add(&Ylt::zeroed(3)).is_err());
    }

    #[test]
    fn scale_affects_both_loss_columns() {
        let mut y = sample();
        y.scale(0.5);
        assert_eq!(y.agg_losses(), &[5.0, 0.0, 15.0, 10.0]);
        assert_eq!(y.max_occ_losses(), &[3.0, 0.0, 15.0, 6.0]);
        assert_eq!(y.occ_counts(), &[2, 0, 1, 3]); // counts untouched
    }

    #[test]
    fn sorted_losses_ascend() {
        let y = sample();
        assert_eq!(y.sorted_agg_losses(), vec![0.0, 10.0, 20.0, 30.0]);
        assert_eq!(y.sorted_max_occ_losses(), vec![0.0, 6.0, 12.0, 30.0]);
    }

    #[test]
    fn from_columns_validates() {
        assert!(Ylt::from_columns(vec![1.0], vec![1.0, 2.0], vec![1]).is_err());
        assert!(Ylt::from_columns(vec![f64::NAN], vec![0.0], vec![0]).is_err());
        let ok = Ylt::from_columns(vec![5.0], vec![3.0], vec![1]).unwrap();
        assert_eq!(ok.trials(), 1);
    }

    #[test]
    fn columns_mut_allows_chunked_fill() {
        let mut y = Ylt::zeroed(10);
        {
            let (agg, _max, _cnt) = y.columns_mut();
            let (a, b) = agg.split_at_mut(5);
            a[0] = 1.0;
            b[4] = 2.0;
        }
        assert_eq!(y.agg_losses()[0], 1.0);
        assert_eq!(y.agg_losses()[9], 2.0);
    }
}
