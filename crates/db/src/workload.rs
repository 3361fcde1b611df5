//! The E4 workload: aggregate analysis phrased against the relational
//! engine, both ways.
//!
//! A YELT (trial, event, day, loss) is loaded into a heap table with a
//! B+-tree index on trial. "Compute each trial's aggregate loss" is
//! then answered by:
//!
//! * **indexed random access** — the natural OLTP phrasing: for each
//!   trial, an index lookup, then row fetches wherever they landed
//!   (random page touches);
//! * **one streaming scan** — the paper's phrasing: a single pass with
//!   a hash aggregate.
//!
//! Both produce identical sums; the page/node counters differ by orders
//! of magnitude, which *is* the paper's argument rendered measurable.

use crate::btree::BPlusTree;
use crate::exec::{hash_aggregate_sum, seq_scan};
use crate::heap::HeapFile;
use crate::value::{ColumnType, Schema, Value};
use riskpipe_tables::Yelt;
use riskpipe_types::{RiskResult, TrialId};

/// A YELT loaded into the relational engine.
pub struct YeltTable {
    heap: HeapFile,
    trial_index: BPlusTree,
    trials: usize,
}

/// I/O cost of one strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCost {
    /// Heap pages touched.
    pub heap_pages: u64,
    /// Index nodes touched.
    pub index_nodes: u64,
}

impl YeltTable {
    /// Load a YELT into a fresh table with a trial index.
    pub fn load(yelt: &Yelt) -> RiskResult<Self> {
        let schema = Schema::new(vec![
            ("trial", ColumnType::U32),
            ("event", ColumnType::U32),
            ("day", ColumnType::U32),
            ("loss", ColumnType::F64),
        ]);
        let mut heap = HeapFile::new(schema);
        let mut trial_index = BPlusTree::new();
        let trials = yelt.trials();
        for t in 0..trials {
            let (events, days, losses) = yelt.trial_slices(TrialId::new(t as u32));
            for i in 0..events.len() {
                let rid = heap.insert(&vec![
                    Value::U32(t as u32),
                    Value::U32(events[i]),
                    Value::U32(days[i] as u32),
                    Value::F64(losses[i]),
                ])?;
                trial_index.insert(t as u64, rid);
            }
        }
        Ok(Self {
            heap,
            trial_index,
            trials,
        })
    }

    /// Rows stored.
    pub fn rows(&self) -> u64 {
        self.heap.rows()
    }

    /// Heap pages.
    pub fn pages(&self) -> usize {
        self.heap.pages()
    }

    /// Trials represented.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Per-trial aggregate loss via indexed random access.
    pub fn aggregate_by_trial_indexed(&self) -> RiskResult<(Vec<f64>, AccessCost)> {
        self.heap.reset_io_counters();
        self.trial_index.reset_io_counters();
        let mut out = Vec::with_capacity(self.trials);
        for t in 0..self.trials {
            let mut total = 0.0;
            for rid in self.trial_index.get_all(t as u64) {
                let row = self.heap.fetch(rid)?;
                total += row[3].as_f64();
            }
            out.push(total);
        }
        Ok((
            out,
            AccessCost {
                heap_pages: self.heap.pages_read(),
                index_nodes: self.trial_index.node_reads(),
            },
        ))
    }

    /// Per-trial aggregate loss via one streaming scan.
    pub fn aggregate_by_trial_scan(&self) -> (Vec<f64>, AccessCost) {
        self.heap.reset_io_counters();
        self.trial_index.reset_io_counters();
        let agg = hash_aggregate_sum(seq_scan(&self.heap), 0, 3);
        let mut out = vec![0.0; self.trials];
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each trial's total lands in its own slot; visit order is invisible"
        )]
        for (t, v) in agg {
            out[t as usize] = v;
        }
        (
            out,
            AccessCost {
                heap_pages: self.heap.pages_read(),
                index_nodes: self.trial_index.node_reads(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_tables::yet::{Occurrence, YetBuilder};
    use riskpipe_types::rng::{Rng64, SplitMix64};
    use riskpipe_types::EventId;

    fn sample_yelt(trials: usize) -> Yelt {
        let mut rng = SplitMix64::new(13);
        let mut b = EltBuilder::new();
        for e in 0..200u32 {
            let mean = 10.0 + rng.next_f64() * 100.0;
            b.push(EltRecord {
                event_id: EventId::new(e),
                mean_loss: mean,
                sigma_i: mean * 0.1,
                sigma_c: mean * 0.1,
                exposure: mean * 4.0,
            })
            .unwrap();
        }
        let elt = b.build().unwrap();
        let mut yb = YetBuilder::new();
        for _ in 0..trials {
            let n = (rng.next_u64() % 6) as usize;
            let mut occs: Vec<Occurrence> = (0..n)
                .map(|_| Occurrence {
                    event_id: EventId::new((rng.next_u64() % 200) as u32),
                    day: (rng.next_u64() % 365) as u16,
                    z: 0.5,
                })
                .collect();
            occs.sort_by_key(|o| o.day);
            yb.push_trial(&occs);
        }
        Yelt::from_yet_elt(&yb.build(), &elt)
    }

    #[test]
    fn both_strategies_agree_with_direct_scan() {
        let yelt = sample_yelt(500);
        let (direct, _) = yelt.scan_aggregate_by_trial();
        let table = YeltTable::load(&yelt).unwrap();
        let (indexed, _) = table.aggregate_by_trial_indexed().unwrap();
        let (scanned, _) = table.aggregate_by_trial_scan();
        assert_eq!(indexed.len(), direct.len());
        for t in 0..direct.len() {
            assert!((indexed[t] - direct[t]).abs() < 1e-9, "indexed trial {t}");
            assert!((scanned[t] - direct[t]).abs() < 1e-9, "scanned trial {t}");
        }
    }

    #[test]
    fn scan_touches_far_fewer_pages() {
        let yelt = sample_yelt(3_000);
        let table = YeltTable::load(&yelt).unwrap();
        let (_, indexed_cost) = table.aggregate_by_trial_indexed().unwrap();
        let (_, scan_cost) = table.aggregate_by_trial_scan();
        assert_eq!(scan_cost.heap_pages, table.pages() as u64);
        assert_eq!(scan_cost.index_nodes, 0);
        assert!(
            indexed_cost.heap_pages + indexed_cost.index_nodes
                > 5 * (scan_cost.heap_pages + scan_cost.index_nodes),
            "indexed {indexed_cost:?} vs scan {scan_cost:?}"
        );
    }

    #[test]
    fn table_metadata_consistent() {
        let yelt = sample_yelt(200);
        let table = YeltTable::load(&yelt).unwrap();
        assert_eq!(table.rows() as usize, yelt.rows());
        assert_eq!(table.trials(), 200);
        assert!(table.pages() >= 1);
    }
}
