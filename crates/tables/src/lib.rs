//! # riskpipe-tables
//!
//! The data-management substrate of the risk-analytics pipeline: the
//! loss tables the paper is about, in scan-oriented columnar layouts.
//!
//! | Table | Keyed by | Produced by | Consumed by |
//! |-------|----------|-------------|-------------|
//! | ELT (event-loss table) | event | stage 1 catastrophe model | stage 2 aggregate analysis |
//! | YET (year-event table) | trial → occurrence list | stage 2 pre-simulation | stage 2 aggregate analysis |
//! | YELT (year-event-loss table) | trial → occurrence list | YET ⋈ ELT | drill-down analytics |
//! | YLT (year-loss table) | trial | stage 2 aggregate analysis | stage 3 DFA, metrics |
//! | YELLT (year-event-location-loss) | trial × event × location | stage 2 at location level | MapReduce analytics |
//!
//! The design point, following the paper: these tables are **scanned,
//! never randomly accessed**. Layouts are structure-of-arrays with
//! CSR-style per-trial offsets; persistence is sharded flat files with
//! CRC-checked binary encoding ([`codec`], [`shard`]) rather than a
//! database. The one random-access structure — the event→row hash used
//! inside aggregate analysis ([`hash::EventRowMap`]) — is a flat
//! open-addressing table built once per ELT and then only probed.
//!
//! [`sizing`] carries the paper's data-volume arithmetic (its
//! 5×10¹⁶-entry YELLT example).

#![warn(missing_docs)]
// W1: serving-path library code returns typed errors; a panic aborts a sweep.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod codec;
pub mod durable;
pub mod elt;
pub mod hash;
pub mod shard;
pub mod sizing;
pub mod yellt;
pub mod yelt;
pub mod yet;
pub mod ylt;

pub use elt::{Elt, EltBuilder, EltRecord};
pub use hash::EventRowMap;
pub use shard::{ShardManifest, ShardedReader, ShardedWriter};
pub use sizing::ScaleSpec;
pub use yellt::{Yellt, YelltChunk};
pub use yelt::Yelt;
pub use yet::{YearEventTable, YetBuilder};
pub use ylt::Ylt;

/// Counters describing a streaming scan, for the scan-vs-random-access
/// experiment (E4). Plain integers — scans are single-threaded per shard.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows visited.
    pub rows: u64,
    /// Bytes of column data visited.
    pub bytes: u64,
}

impl ScanStats {
    /// Accumulate another scan's counters.
    pub fn merge(&mut self, other: ScanStats) {
        self.rows += other.rows;
        self.bytes += other.bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_stats_merge() {
        let mut a = ScanStats {
            rows: 10,
            bytes: 80,
        };
        a.merge(ScanStats { rows: 5, bytes: 40 });
        assert_eq!(
            a,
            ScanStats {
                rows: 15,
                bytes: 120
            }
        );
    }
}
