//! Volcano-style query operators: composable row iterators.
//!
//! The engine is deliberately minimal — sequential scan, filter,
//! projection and a hash aggregate — which is all the E4 comparison
//! needs, and enough to express the aggregate-analysis queries both
//! ways. Index probes go straight to the [`BPlusTree`](crate::BPlusTree).

use crate::heap::HeapFile;
use crate::value::Row;

/// Sequential scan of a heap file.
pub fn seq_scan(heap: &HeapFile) -> impl Iterator<Item = Row> + '_ {
    heap.scan().map(|(_, row)| row)
}

/// Filter combinator.
pub fn filter<'a, I>(rows: I, pred: impl Fn(&Row) -> bool + 'a) -> impl Iterator<Item = Row> + 'a
where
    I: Iterator<Item = Row> + 'a,
{
    rows.filter(move |r| pred(r))
}

/// Projection combinator (column indices).
pub fn project<'a, I>(rows: I, cols: Vec<usize>) -> impl Iterator<Item = Row> + 'a
where
    I: Iterator<Item = Row> + 'a,
{
    rows.map(move |r| cols.iter().map(|&c| r[c]).collect())
}

/// Hash aggregate: `SELECT group_col, SUM(sum_col) GROUP BY group_col`.
/// Group keys are u32-valued columns.
#[expect(
    clippy::disallowed_types,
    reason = "E4's hash aggregate; each group sums its rows in scan order, and \
              callers read groups by key"
)]
pub fn hash_aggregate_sum(
    rows: impl Iterator<Item = Row>,
    group_col: usize,
    sum_col: usize,
) -> std::collections::HashMap<u32, f64> {
    let mut acc = std::collections::HashMap::new();
    for r in rows {
        *acc.entry(r[group_col].as_u32()).or_insert(0.0) += r[sum_col].as_f64();
    }
    acc
}

/// Scalar aggregate: `SELECT SUM(col)`.
pub fn sum(rows: impl Iterator<Item = Row>, col: usize) -> f64 {
    rows.map(|r| r[col].as_f64()).sum()
}

/// Scalar aggregate: `SELECT COUNT(*)`.
pub fn count(rows: impl Iterator<Item = Row>) -> u64 {
    rows.count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::BPlusTree;
    use crate::value::{ColumnType, Schema, Value};

    fn loaded_heap() -> (HeapFile, BPlusTree) {
        let schema = Schema::new(vec![
            ("trial", ColumnType::U32),
            ("event", ColumnType::U32),
            ("loss", ColumnType::F64),
        ]);
        let mut heap = HeapFile::new(schema);
        let mut index = BPlusTree::new();
        for t in 0..50u32 {
            for e in 0..4u32 {
                let rid = heap
                    .insert(&vec![
                        Value::U32(t),
                        Value::U32(e),
                        Value::F64((t * 10 + e) as f64),
                    ])
                    .unwrap();
                index.insert(t as u64, rid);
            }
        }
        (heap, index)
    }

    #[test]
    fn seq_scan_visits_everything() {
        let (heap, _) = loaded_heap();
        assert_eq!(count(seq_scan(&heap)), 200);
    }

    #[test]
    fn index_lookup_fetches_trial_rows() {
        let (heap, index) = loaded_heap();
        let rids = index.get_all(7);
        assert_eq!(rids.len(), 4);
        for rid in rids {
            assert_eq!(heap.fetch(rid).unwrap()[0].as_u32(), 7);
        }
    }

    #[test]
    fn filter_and_project_compose() {
        let (heap, _) = loaded_heap();
        let out: Vec<Row> = project(
            filter(seq_scan(&heap), |r| r[1] == Value::U32(2)),
            vec![0, 2],
        )
        .collect();
        assert_eq!(out.len(), 50); // one event-2 row per trial
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[10][0].as_u32(), 10);
        assert_eq!(out[10][1].as_f64(), 102.0);
    }

    #[test]
    fn hash_aggregate_matches_manual_sum() {
        let (heap, _) = loaded_heap();
        let agg = hash_aggregate_sum(seq_scan(&heap), 0, 2);
        assert_eq!(agg.len(), 50);
        // trial t total = sum_e (t*10 + e) = 4*10t + 6.
        for t in 0..50u32 {
            assert_eq!(agg[&t], (40 * t + 6) as f64, "trial {t}");
        }
    }

    #[test]
    fn scalar_aggregates() {
        let (heap, _) = loaded_heap();
        let total = sum(seq_scan(&heap), 2);
        let expect: f64 = (0..50u32).map(|t| (40 * t + 6) as f64).sum();
        assert_eq!(total, expect);
    }
}
