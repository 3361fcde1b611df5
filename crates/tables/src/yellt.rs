//! The Year-Event-Location-Loss Table (YELLT): the finest-grained table
//! in the pipeline, and the paper's headline data challenge — at its
//! example scale (10⁴ contracts × 10⁵ events × 10³ locations × 5×10⁴
//! trials) it exceeds 5×10¹⁶ entries and cannot exist in memory.
//!
//! Consequently the YELLT is never materialised whole: it exists only as
//! a stream of fixed-size [`YelltChunk`]s, produced incrementally and
//! either scanned on the fly or spilled to sharded files for
//! MapReduce-style processing.

use crate::ScanStats;
use riskpipe_types::{LocationId, RiskError, RiskResult};

/// A chunk of YELLT rows in column layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct YelltChunk {
    /// Trial ids.
    pub trials: Vec<u32>,
    /// Event ids.
    pub events: Vec<u32>,
    /// Location ids.
    pub locations: Vec<u32>,
    /// Losses.
    pub losses: Vec<f64>,
}

/// Bytes per YELLT row in this layout (4 + 4 + 4 + 8).
pub const YELLT_BYTES_PER_ROW: usize = 20;

impl YelltChunk {
    /// An empty chunk with reserved capacity.
    pub fn with_capacity(rows: usize) -> Self {
        Self {
            trials: Vec::with_capacity(rows),
            events: Vec::with_capacity(rows),
            locations: Vec::with_capacity(rows),
            losses: Vec::with_capacity(rows),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.trials.len()
    }

    /// Whether the chunk has no rows.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Append one row.
    #[inline]
    pub fn push(&mut self, trial: u32, event: u32, location: LocationId, loss: f64) {
        self.trials.push(trial);
        self.events.push(event);
        self.locations.push(location.raw());
        self.losses.push(loss);
    }

    /// Append a whole trial's rows in one call: `events[i]` pairs with
    /// `losses[i]`, all at `location`, all under `trial`. One capacity
    /// check per column instead of one per row.
    pub fn extend_trial(
        &mut self,
        trial: u32,
        events: &[u32],
        location: LocationId,
        losses: &[f64],
    ) -> RiskResult<()> {
        if events.len() != losses.len() {
            return Err(RiskError::invalid(format!(
                "trial slice lengths disagree: {} events vs {} losses",
                events.len(),
                losses.len()
            )));
        }
        let n = events.len();
        self.trials.extend(std::iter::repeat_n(trial, n));
        self.events.extend_from_slice(events);
        self.locations
            .extend(std::iter::repeat_n(location.raw(), n));
        self.losses.extend_from_slice(losses);
        Ok(())
    }

    /// Validate parallel-column invariants (codec path).
    pub fn validate(&self) -> RiskResult<()> {
        let n = self.trials.len();
        if self.events.len() != n || self.locations.len() != n || self.losses.len() != n {
            return Err(RiskError::corrupt("YELLT chunk column lengths disagree"));
        }
        if self.losses.iter().any(|l| !l.is_finite()) {
            return Err(RiskError::corrupt("YELLT chunk has non-finite loss"));
        }
        Ok(())
    }

    /// Clear all rows, keeping capacity.
    pub fn clear(&mut self) {
        self.trials.clear();
        self.events.clear();
        self.locations.clear();
        self.losses.clear();
    }

    /// Bytes of row data in this chunk.
    fn data_bytes(&self) -> usize {
        self.rows() * YELLT_BYTES_PER_ROW
    }
}

/// An in-memory YELLT held as a sequence of bounded chunks. Only viable
/// at reduced scale — which is precisely the paper's point; the sharded
/// file store handles the rest.
#[derive(Debug, Default)]
pub struct Yellt {
    chunks: Vec<YelltChunk>,
    chunk_rows: usize,
    rows: u64,
}

/// Default rows per chunk (~1.25 MiB per chunk).
pub const DEFAULT_YELLT_CHUNK_ROWS: usize = 64 * 1024;

impl Yellt {
    /// New table with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_rows(DEFAULT_YELLT_CHUNK_ROWS)
    }

    /// New table with a specific chunk row bound.
    fn with_chunk_rows(chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0);
        Self {
            chunks: Vec::new(),
            chunk_rows,
            rows: 0,
        }
    }

    /// Append a row, opening a new chunk when the current one is full.
    pub fn push(&mut self, trial: u32, event: u32, location: LocationId, loss: f64) {
        let need_new = self
            .chunks
            .last()
            .map(|c| c.rows() >= self.chunk_rows)
            .unwrap_or(true);
        if need_new {
            self.chunks.push(YelltChunk::with_capacity(self.chunk_rows));
        }
        #[expect(
            clippy::expect_used,
            reason = "the branch above pushes a chunk whenever the list is empty (or \
                      its last chunk is full), so `last_mut` is `Some` here by \
                      construction; nothing decoded reaches this"
        )]
        let last = self.chunks.last_mut().expect("chunk exists");
        last.push(trial, event, location, loss);
        self.rows += 1;
    }

    /// Total rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Iterate the chunks (the only read path — strictly streaming).
    pub fn chunks(&self) -> impl Iterator<Item = &YelltChunk> {
        self.chunks.iter()
    }

    /// Streaming scan: aggregate loss per location. Returns a dense map
    /// keyed by location id and the scan counters.
    #[expect(
        clippy::disallowed_types,
        reason = "each location sums its rows in chunk order; callers read \
                  totals by key"
    )]
    pub fn scan_loss_by_location(&self) -> (std::collections::HashMap<u32, f64>, ScanStats) {
        let mut acc = std::collections::HashMap::new();
        let mut stats = ScanStats::default();
        for c in &self.chunks {
            for (i, &loc) in c.locations.iter().enumerate() {
                *acc.entry(loc).or_insert(0.0) += c.losses[i];
            }
            stats.rows += c.rows() as u64;
            stats.bytes += c.data_bytes() as u64;
        }
        (acc, stats)
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| {
                c.trials.capacity() * 4
                    + c.events.capacity() * 4
                    + c.locations.capacity() * 4
                    + c.losses.capacity() * 8
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_split_at_bound() {
        let mut y = Yellt::with_chunk_rows(3);
        for i in 0..8u32 {
            y.push(i, i * 10, LocationId::new(i % 2), i as f64);
        }
        assert_eq!(y.rows(), 8);
        let sizes: Vec<usize> = y.chunks().map(|c| c.rows()).collect();
        assert_eq!(sizes, vec![3, 3, 2]);
    }

    #[test]
    fn loss_by_location_accumulates() {
        let mut y = Yellt::with_chunk_rows(2);
        y.push(0, 1, LocationId::new(10), 5.0);
        y.push(0, 1, LocationId::new(11), 7.0);
        y.push(1, 2, LocationId::new(10), 3.0);
        let (by_loc, stats) = y.scan_loss_by_location();
        assert_eq!(by_loc[&10], 8.0);
        assert_eq!(by_loc[&11], 7.0);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.bytes, 3 * YELLT_BYTES_PER_ROW as u64);
    }

    #[test]
    fn chunk_validation() {
        let mut c = YelltChunk::with_capacity(2);
        c.push(0, 1, LocationId::new(2), 3.0);
        assert!(c.validate().is_ok());
        c.losses.push(f64::NAN); // corrupt columns
        assert!(c.validate().is_err());
        c.losses.pop();
        c.trials.push(9); // mismatched lengths
        assert!(c.validate().is_err());
    }

    #[test]
    fn chunk_clear_keeps_capacity() {
        let mut c = YelltChunk::with_capacity(100);
        for i in 0..50u32 {
            c.push(i, i, LocationId::new(i), 1.0);
        }
        let cap = c.trials.capacity();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.trials.capacity(), cap);
    }

    #[test]
    fn data_bytes_match_row_size() {
        let mut c = YelltChunk::default();
        c.push(0, 0, LocationId::new(0), 1.0);
        assert_eq!(c.data_bytes(), YELLT_BYTES_PER_ROW);
    }
}
