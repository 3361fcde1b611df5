//! The Year-Event-Loss Table (YELT): the YET joined with an ELT — per
//! trial, the losses of the events that occurred.
//!
//! The paper positions the YELT as the intermediate scale: ~1000× smaller
//! than the YELLT (no location dimension) and orders of magnitude bigger
//! than the YLT (occurrences, not years). It is scanned for drill-down
//! analytics (per-trial sums, seasonality) that the YLT cannot
//! answer.

use crate::elt::Elt;
use crate::yet::YearEventTable;
use crate::ScanStats;
use riskpipe_types::{EventId, KahanSum, RiskError, RiskResult, TrialId};

/// Columnar year-event-loss table (CSR by trial).
#[derive(Debug, Clone)]
pub struct Yelt {
    offsets: Vec<u64>,
    event_ids: Vec<u32>,
    days: Vec<u16>,
    losses: Vec<f64>,
}

impl Yelt {
    /// Join a YET with an ELT: keep each occurrence whose event has a
    /// row in the ELT, with its mean loss. (Secondary uncertainty is an
    /// engine concern; the YELT records the deterministic join.)
    pub fn from_yet_elt(yet: &YearEventTable, elt: &Elt) -> Self {
        let trials = yet.trials();
        let mut offsets = Vec::with_capacity(trials + 1);
        offsets.push(0u64);
        let mut event_ids = Vec::new();
        let mut days = Vec::new();
        let mut losses = Vec::new();
        for t in 0..trials {
            let (es, ds, _zs) = yet.trial_slices(TrialId::new(t as u32));
            for (i, &e) in es.iter().enumerate() {
                if let Some(row) = elt.row_of(EventId::new(e)) {
                    event_ids.push(e);
                    days.push(ds[i]);
                    losses.push(elt.mean_loss_at(row));
                }
            }
            offsets.push(event_ids.len() as u64);
        }
        Self {
            offsets,
            event_ids,
            days,
            losses,
        }
    }

    /// Rebuild from raw CSR columns (the codec path), validating the CSR
    /// invariants: offsets start at 0, never decrease and end at the row
    /// count, and every row column has that many rows.
    pub fn from_columns(
        offsets: Vec<u64>,
        event_ids: Vec<u32>,
        days: Vec<u16>,
        losses: Vec<f64>,
    ) -> RiskResult<Self> {
        if offsets.first().copied() != Some(0)
            || offsets.windows(2).any(|w| w[0] > w[1])
            || offsets.last().copied().unwrap_or(1) as usize != event_ids.len()
            || event_ids.len() != days.len()
            || event_ids.len() != losses.len()
        {
            return Err(RiskError::corrupt("YELT CSR invariants violated"));
        }
        Ok(Self {
            offsets,
            event_ids,
            days,
            losses,
        })
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total rows (loss-causing occurrences).
    pub fn rows(&self) -> usize {
        self.event_ids.len()
    }

    /// One trial's rows as `(event_ids, days, losses)` slices.
    #[inline]
    pub fn trial_slices(&self, trial: TrialId) -> (&[u32], &[u16], &[f64]) {
        let lo = self.offsets[trial.index()] as usize;
        let hi = self.offsets[trial.index() + 1] as usize;
        (
            &self.event_ids[lo..hi],
            &self.days[lo..hi],
            &self.losses[lo..hi],
        )
    }

    /// Raw columns for codecs.
    pub fn columns(&self) -> (&[u64], &[u32], &[u16], &[f64]) {
        (&self.offsets, &self.event_ids, &self.days, &self.losses)
    }

    /// Streaming scan: per-trial aggregate loss. Returns the per-trial
    /// sums and the scan counters — this is the access pattern the paper
    /// says the data management layer must serve well.
    pub fn scan_aggregate_by_trial(&self) -> (Vec<f64>, ScanStats) {
        let mut out = Vec::with_capacity(self.trials());
        let mut stats = ScanStats::default();
        for t in 0..self.trials() {
            let (_es, _ds, ls) = self.trial_slices(TrialId::new(t as u32));
            let k: KahanSum = ls.iter().copied().collect();
            out.push(k.total());
            stats.rows += ls.len() as u64;
            stats.bytes += (ls.len() * (4 + 2 + 8)) as u64;
        }
        (out, stats)
    }

    /// Streaming scan: total loss by calendar month (day-of-year folded
    /// into twelve 30/31-day bins). Seasonality is the classic YELT
    /// drill-down — hurricane books peak in Q3, winter-storm books in
    /// Q1 — and needs the day column the YLT has already discarded.
    pub fn scan_seasonality(&self) -> ([f64; 12], ScanStats) {
        let mut months = [0.0f64; 12];
        let mut stats = ScanStats::default();
        for (i, &day) in self.days.iter().enumerate() {
            // 365-day year folded into 12 near-equal bins.
            let month = ((day as usize * 12) / 365).min(11);
            months[month] += self.losses[i];
        }
        stats.rows = self.days.len() as u64;
        stats.bytes = (self.days.len() * (2 + 8)) as u64;
        (months, stats)
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        Self::memory_bytes_for(self.trials(), self.rows())
    }

    /// Heap footprint in bytes of a YELT with `trials` trials and `rows`
    /// rows — what [`Yelt::memory_bytes`] reports, known without
    /// building the table.
    pub fn memory_bytes_for(trials: usize, rows: usize) -> usize {
        (trials + 1) * 8 + rows * (4 + 2 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elt::{EltBuilder, EltRecord};
    use crate::yet::{Occurrence, YetBuilder};

    fn elt_with(ids: &[(u32, f64)]) -> Elt {
        let mut b = EltBuilder::new();
        for &(id, mean) in ids {
            b.push(EltRecord {
                event_id: EventId::new(id),
                mean_loss: mean,
                sigma_i: 0.1 * mean,
                sigma_c: 0.1 * mean,
                exposure: mean * 5.0,
            })
            .unwrap();
        }
        b.build().unwrap()
    }

    fn yet_with(trials: &[&[(u32, u16)]]) -> YearEventTable {
        let mut b = YetBuilder::new();
        for t in trials {
            let occs: Vec<Occurrence> = t
                .iter()
                .map(|&(e, d)| Occurrence {
                    event_id: EventId::new(e),
                    day: d,
                    z: 0.5,
                })
                .collect();
            b.push_trial(&occs);
        }
        b.build()
    }

    #[test]
    fn join_keeps_only_elt_events() {
        let elt = elt_with(&[(1, 100.0), (3, 300.0)]);
        let yet = yet_with(&[&[(1, 5), (2, 10), (3, 15)], &[(2, 20)], &[(3, 30), (3, 31)]]);
        let yelt = Yelt::from_yet_elt(&yet, &elt);
        assert_eq!(yelt.trials(), 3);
        assert_eq!(yelt.rows(), 4); // events 1,3 in t0; none in t1; 3,3 in t2
        let (es, ds, ls) = yelt.trial_slices(TrialId::new(0));
        assert_eq!(es, &[1, 3]);
        assert_eq!(ds, &[5, 15]);
        assert_eq!(ls, &[100.0, 300.0]);
        let (es, _, _) = yelt.trial_slices(TrialId::new(1));
        assert!(es.is_empty());
    }

    #[test]
    fn aggregate_scan_sums_per_trial() {
        let elt = elt_with(&[(1, 10.0), (2, 20.0)]);
        let yet = yet_with(&[&[(1, 0), (2, 0)], &[(2, 0), (2, 1)], &[]]);
        let yelt = Yelt::from_yet_elt(&yet, &elt);
        let (sums, stats) = yelt.scan_aggregate_by_trial();
        assert_eq!(sums, vec![30.0, 40.0, 0.0]);
        assert_eq!(stats.rows, 4);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn seasonality_bins_by_day() {
        let elt = elt_with(&[(1, 10.0), (2, 20.0)]);
        // Days 0 (Jan), 180 (≈month 5), 360 (Dec).
        let yet = yet_with(&[&[(1, 0), (2, 180)], &[(1, 360)]]);
        let yelt = Yelt::from_yet_elt(&yet, &elt);
        let (months, stats) = yelt.scan_seasonality();
        assert_eq!(months[0], 10.0);
        assert_eq!(months[(180 * 12) / 365], 20.0);
        assert_eq!(months[11], 10.0);
        assert_eq!(months.iter().sum::<f64>(), 40.0);
        assert_eq!(stats.rows, 3);
    }

    #[test]
    fn raw_round_trip() {
        let elt = elt_with(&[(1, 10.0)]);
        let yet = yet_with(&[&[(1, 0)], &[(1, 1)]]);
        let yelt = Yelt::from_yet_elt(&yet, &elt);
        let (o, e, d, l) = yelt.columns();
        let back = Yelt::from_columns(o.to_vec(), e.to_vec(), d.to_vec(), l.to_vec()).unwrap();
        assert_eq!(back.trials(), 2);
        assert_eq!(back.rows(), 2);
    }
}
