//! Sketch-valued cells: cells that answer quantiles, not just sums.
//!
//! A plain [`Cell`](crate::cube::Cell) carries count/sum/max — enough
//! for loss attribution, useless for tail risk: a drill-down cell
//! cannot answer "what is this peril × region slice's VaR99?" from a
//! sum. A [`SketchCell`] additionally carries a mergeable
//! [`QuantileSketch`] of the cell's pooled loss distribution, so every
//! cell of the cube answers VaR/TVaR/EP points — the paper's stage-3
//! drill-down workload — while staying bounded in memory and
//! **deterministic**: the sketch compacts without randomness, cells
//! merge in key order, and the same ingest order yields bit-identical
//! state on any thread count.
//!
//! This module is only the cell. The cuboid around it is the generic
//! [`Cuboid`] — [`SketchCuboid`] and [`SketchRow`] are aliases — so
//! rollups, [`Query`](crate::query::Query) answers and the planner's
//! view pick are the very code the plain cells run through.

use crate::cube::{Cuboid, Measure};
use crate::query::Row;
use riskpipe_metrics::QuantileSketch;

/// One sketch-valued cell: the additive measures of a plain cell plus
/// a quantile sketch of the cell's pooled losses.
#[derive(Debug, Clone)]
pub struct SketchCell {
    /// Number of pooled losses in the cell.
    pub count: u64,
    /// Total loss (accumulated in ascending loss order — deterministic
    /// for a fixed ingest order).
    pub sum: f64,
    /// Largest single loss (by `total_cmp`).
    pub max: f64,
    /// Mergeable sketch of the cell's pooled loss distribution.
    pub sketch: QuantileSketch,
}

/// A cuboid of sketch-valued cells. Every cell must share one sketch
/// capacity so rollups can merge them.
pub type SketchCuboid = Cuboid<SketchCell>;

/// One sketch-valued result row (the merged cell's sketch answers any
/// quantile).
pub type SketchRow<'a> = Row<'a, SketchCell>;

impl SketchCell {
    /// An empty cell whose sketch holds `k` values per level.
    pub fn empty(k: usize) -> Self {
        Self {
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            sketch: QuantileSketch::new(k),
        }
    }

    /// Fold an ascending pre-sorted loss column in: count, sum (in
    /// sorted order), max, and one weighted sketch merge.
    pub fn absorb_sorted(&mut self, sorted: &[f64]) {
        let Some(&last) = sorted.last() else {
            return;
        };
        self.count += sorted.len() as u64;
        for &x in sorted {
            self.sum += x;
        }
        if last.total_cmp(&self.max).is_gt() {
            self.max = last;
        }
        self.sketch.merge_sorted(sorted);
    }

    /// 99% VaR of the cell's pooled losses (`None` when empty).
    pub fn var99(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sketch.quantile(0.99))
    }

    /// 99% TVaR of the cell's pooled losses (`None` when empty).
    pub fn tvar99(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sketch.tail_mean(0.99))
    }
}

impl Measure for SketchCell {
    fn merge(&mut self, other: &SketchCell) {
        self.count += other.count;
        self.sum += other.sum;
        if other.max.total_cmp(&self.max).is_gt() {
            self.max = other.max;
        }
        self.sketch.merge(&other.sketch);
    }

    fn count(&self) -> u64 {
        self.count
    }

    fn sum(&self) -> f64 {
        self.sum
    }

    /// Approximate: the three scalars plus the sketch's retained values.
    fn memory_bytes(&self) -> usize {
        cell_bytes(self.sketch.retained())
    }

    /// The sketches' shapes folded in merge order: how many values the
    /// pooled sketch retains follows from how many each level of each
    /// source holds, not from the values.
    fn pooled_bytes<'a>(first: &'a Self, rest: impl Iterator<Item = &'a Self>) -> usize {
        let mut shape = first.sketch.shape();
        rest.for_each(|cell| shape.merge(&cell.sketch));
        cell_bytes(shape.retained())
    }
}

/// What a sketch cell retaining `retained` values is charged: 24 B of
/// scalars and 8 B per value.
fn cell_bytes(retained: usize) -> usize {
    24 + retained * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::{Cell, KeyCodec, LevelSelect, Lift};
    use crate::dimension::{dim, Schema};
    use crate::query::{Filter, Query};
    use riskpipe_types::stats::{quantile_sorted, sort_f64, tail_mean_sorted};
    use std::borrow::Cow;

    fn schema() -> Schema {
        Schema::standard(6, 2, 4, 2, 3, 1).unwrap()
    }

    /// Deterministic per-(geo,event) loss columns, 10 ascending losses
    /// each, folded into whichever cell `cell_of` makes of a column.
    fn base_of<M: Measure>(s: &Schema, cell_of: impl Fn(&[f64]) -> M) -> Cuboid<M> {
        let codec = KeyCodec::new(s, LevelSelect::BASE).unwrap();
        let mut entries = Vec::new();
        for g in 0..6u32 {
            for e in 0..4u32 {
                let mut losses: Vec<f64> = (0..10)
                    .map(|i| ((g * 31 + e * 7 + i) % 23) as f64 + 1.0)
                    .collect();
                sort_f64(&mut losses);
                entries.push((codec.encode([g, e, 0, 0]), cell_of(&losses)));
            }
        }
        Cuboid::from_entries(s, LevelSelect::BASE, entries).unwrap()
    }

    fn base_cuboid(s: &Schema, k: usize) -> SketchCuboid {
        base_of(s, |losses| {
            let mut cell = SketchCell::empty(k);
            cell.absorb_sorted(losses);
            cell
        })
    }

    /// The plain-cell cuboid over the same loss columns.
    fn plain_cuboid(s: &Schema) -> Cuboid {
        base_of(s, |losses| {
            let mut cell = Cell::EMPTY;
            losses.iter().for_each(|&x| cell.absorb(x));
            cell
        })
    }

    #[test]
    fn absorb_sorted_tracks_count_sum_max_and_quantiles() {
        let mut losses: Vec<f64> = (0..50).map(|i| ((i * 13) % 37) as f64).collect();
        sort_f64(&mut losses);
        let mut cell = SketchCell::empty(64);
        cell.absorb_sorted(&losses);
        assert_eq!(cell.count, 50);
        assert_eq!(cell.max, 36.0);
        let want_sum: f64 = losses.iter().sum();
        assert_eq!(cell.sum.to_bits(), want_sum.to_bits());
        assert_eq!(
            cell.var99().unwrap().to_bits(),
            quantile_sorted(&losses, 0.99).to_bits()
        );
        assert_eq!(
            cell.tvar99().unwrap().to_bits(),
            tail_mean_sorted(&losses, 0.99).to_bits()
        );
        assert_eq!(SketchCell::empty(8).var99(), None);
    }

    #[test]
    fn rollup_cells_equal_pooled_exact_quantiles() {
        let s = schema();
        let base = base_cuboid(&s, 1024);
        // Roll up to region × peril (geo level 1, event level 1).
        let coarse = base.rollup(&s, LevelSelect([1, 1, 1, 1])).unwrap();
        assert!(coarse.cells() > 0);
        for i in 0..coarse.cells() {
            let (codes, cell) = coarse.cell_at(i);
            // Recompute the pooled column by brute force.
            let mut pooled = Vec::new();
            for j in 0..base.cells() {
                let (bc, bcell) = base.cell_at(j);
                let region = s.dim(dim::GEO).code_at(1, bc[dim::GEO]);
                let peril = s.dim(dim::EVENT).code_at(1, bc[dim::EVENT]);
                if region == codes[dim::GEO] && peril == codes[dim::EVENT] {
                    pooled.push(bcell);
                }
            }
            let count: u64 = pooled.iter().map(|c| c.count).sum();
            assert_eq!(cell.count, count);
            // Exact path (k large): quantiles equal the sorted pooled
            // multiset exactly.
            assert!(cell.sketch.is_exact());
        }
        assert_eq!(coarse.total_count(), base.total_count());
    }

    #[test]
    fn rollup_direct_equals_rollup_via_intermediate_on_exact_path() {
        let s = schema();
        let base = base_cuboid(&s, 4096);
        let apex = LevelSelect::apex(&s);
        let direct = base.rollup(&s, apex).unwrap();
        let mid = base.rollup(&s, LevelSelect([1, 1, 1, 1])).unwrap();
        let via_mid = mid.rollup(&s, apex).unwrap();
        assert_eq!(direct.cells(), 1);
        assert_eq!(via_mid.cells(), 1);
        let (_, a) = direct.cell_at(0);
        let (_, b) = via_mid.cell_at(0);
        assert_eq!(a.count, b.count);
        assert_eq!(a.max, b.max);
        // Exact sketches: identical pooled multiset ⇒ identical
        // quantiles, regardless of merge grouping.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                a.sketch.quantile(q).to_bits(),
                b.sketch.quantile(q).to_bits()
            );
        }
        // Sums associate differently; compare within tolerance.
        assert!((a.sum - b.sum).abs() <= 1e-9 * b.sum.abs().max(1.0));
    }

    #[test]
    fn answer_filters_and_merges() {
        fn check<M: Measure>(s: &Schema, base: &Cuboid<M>) {
            // Dice: region×peril, restricted to region 1.
            let q = Query::group_by(LevelSelect([1, 1, 1, 1])).filter(Filter::slice(dim::GEO, 1));
            let (rows, _) = base.answer(s, &q).unwrap();
            assert!(!rows.is_empty());
            assert!(rows.iter().all(|r| r.codes[dim::GEO] == 1));
            // The filtered counts sum to the region's fact share:
            // 3 locations in region 1 × 4 events × 10 losses.
            let total: u64 = rows.iter().map(|r| r.cell.count()).sum();
            assert_eq!(total, 3 * 4 * 10);
            // Rows are a filtered rollup: the same cells, key order.
            let coarse = base.rollup(s, q.select).unwrap();
            for row in &rows {
                let cell = coarse.find(row.codes).unwrap();
                assert_eq!(row.cell.sum().to_bits(), cell.sum().to_bits());
            }
            assert!(rows.windows(2).all(|w| w[0].codes < w[1].codes));
            // Top-k ordering.
            let (top, _) = base
                .answer(s, &Query::group_by(LevelSelect([1, 1, 1, 1])).top(2))
                .unwrap();
            assert_eq!(top.len(), 2);
            assert!(top[0].cell.sum() >= top[1].cell.sum());
            let largest = coarse.measures().iter().map(M::sum).fold(0.0, f64::max);
            assert_eq!(top[0].cell.sum(), largest);
        }
        let s = schema();
        check(&s, &base_cuboid(&s, 1024));
        check(&s, &plain_cuboid(&s));
    }

    #[test]
    fn rows_borrow_single_cells_and_own_pooled_ones() {
        fn check<M: Measure + 'static>(
            s: &Schema,
            base: &Cuboid<M>,
            bits: impl Fn(&M) -> Vec<u64>,
        ) {
            // At the source's own grain every row is the source's cell.
            let own = Query::group_by(base.select());
            let (rows, cost) = base.answer(s, &own).unwrap();
            assert_eq!(rows.len(), base.cells());
            assert_eq!(cost.rows_borrowed, rows.len() as u64);
            assert_eq!(cost.cells_merged, 0);
            for (row, cell) in rows.iter().zip(base.measures()) {
                assert!(matches!(row.cell, Cow::Borrowed(c) if std::ptr::eq(c, cell)));
            }

            // Coarser: a row is owned exactly when it pooled several
            // cells, and is then the rollup's cell to the bit. A region
            // pools its three locations; lifting only the dimensions
            // the fixture keeps at one code pools nothing.
            let pooled = Query::group_by(LevelSelect([1, 0, 1, 1]));
            let single =
                Query::group_by(LevelSelect([0, 0, 1, 1])).filter(Filter::slice(dim::GEO, 2));
            for (q, want_merged) in [(&pooled, base.cells() as u64 - 8), (&single, 0)] {
                let coarse = base.rollup(s, q.select).unwrap();
                let (rows, cost) = base.answer(s, q).unwrap();
                let lift = Lift::new(s, base.select(), q.select);
                let fed = |row: &Row<'_, M>| {
                    let feeds = |i: &usize| {
                        let lifted = lift.apply(base.cell_at(*i).0);
                        lifted == row.codes && q.accepts(&lifted)
                    };
                    (0..base.cells()).filter(feeds).count()
                };
                let mut merged = 0;
                for row in &rows {
                    let sources = fed(row);
                    assert_eq!(row.is_borrowed(), sources == 1, "{:?}", row.codes);
                    merged += sources as u64 - 1;
                    assert_eq!(bits(&row.cell), bits(coarse.find(row.codes).unwrap()));
                }
                assert_eq!(cost.cells_merged, merged);
                assert_eq!(cost.cells_merged, want_merged);
                let borrowed = rows.iter().filter(|r| r.is_borrowed()).count();
                assert_eq!(cost.rows_borrowed, borrowed as u64);
            }

            // The top-k cut orders and truncates borrowed rows like any
            // others, and counts what it returns.
            let (all, _) = base.answer(s, &own).unwrap();
            let (top, cost) = base.answer(s, &own.clone().top(5)).unwrap();
            let mut want: Vec<&Row<'_, M>> = all.iter().collect();
            want.sort_by(|a, b| {
                let by_sum = b.cell.sum().total_cmp(&a.cell.sum());
                by_sum.then_with(|| a.codes.cmp(&b.codes))
            });
            assert_eq!(top.len(), 5);
            assert_eq!((cost.rows_out, cost.rows_borrowed), (5, 5));
            for (got, want) in top.iter().zip(want) {
                assert_eq!(got.codes, want.codes);
                assert!(got.is_borrowed());
            }

            // `into_owned` rows outlive the cuboid that answered.
            let kept: Vec<Row<'static, M>> = {
                let scoped = base.clone();
                let (rows, _) = scoped.answer(s, &own).unwrap();
                rows.into_iter().map(Row::into_owned).collect()
            };
            assert!(kept.iter().all(|r| !r.is_borrowed()));
            for (row, cell) in kept.iter().zip(base.measures()) {
                assert_eq!(bits(&row.cell), bits(cell));
            }
        }
        let s = schema();
        check(&s, &base_cuboid(&s, 16), |c: &SketchCell| {
            let mut out = vec![c.count, c.sum.to_bits(), c.max.to_bits()];
            out.push(c.sketch.retained() as u64);
            out.push(c.sketch.rank_error_bound().to_bits());
            let ladder = c.sketch.quantiles(&[0.0, 0.25, 0.5, 0.9, 0.99, 1.0]);
            out.extend(ladder.iter().map(|q| q.to_bits()));
            out
        });
        check(&s, &plain_cuboid(&s), |c: &Cell| {
            vec![c.count, c.sum.to_bits(), c.max.to_bits()]
        });
    }

    #[test]
    fn answer_rejects_finer_queries_and_bad_filters() {
        fn check<M: Measure>(s: &Schema, base: &Cuboid<M>) {
            let coarse = base.rollup(s, LevelSelect([1, 1, 1, 1])).unwrap();
            assert!(coarse
                .answer(s, &Query::group_by(LevelSelect::BASE))
                .is_err());
            let group = Query::group_by(LevelSelect([1, 1, 1, 1]));
            let bad_code = group.clone().filter(Filter::slice(dim::GEO, 99));
            assert!(base.answer(s, &bad_code).is_err());
            let bad_dim = group.filter(Filter::slice(7, 0));
            assert!(base.answer(s, &bad_dim).is_err());
            assert!(base
                .answer(s, &Query::group_by(LevelSelect([9, 0, 0, 0])))
                .is_err());
        }
        let s = schema();
        check(&s, &base_cuboid(&s, 64));
        check(&s, &plain_cuboid(&s));
    }

    #[test]
    fn from_entries_rejects_duplicates_and_invalid_selects() {
        let s = schema();
        let codec = KeyCodec::new(&s, LevelSelect::BASE).unwrap();
        let k = codec.encode([0, 0, 0, 0]);
        let dup = vec![(k, SketchCell::empty(8)), (k, SketchCell::empty(8))];
        assert!(SketchCuboid::from_entries(&s, LevelSelect::BASE, dup).is_err());
        assert!(SketchCuboid::from_entries(&s, LevelSelect([9, 0, 0, 0]), vec![]).is_err());
    }

    #[test]
    fn memory_bytes_grow_with_cells() {
        let s = schema();
        let base = base_cuboid(&s, 64);
        let apex = base.rollup(&s, LevelSelect::apex(&s)).unwrap();
        assert!(base.memory_bytes() > apex.memory_bytes());
        assert!(apex.memory_bytes() > 0);
        // The formula view selection prices with: 8 B/key plus, per
        // cell, 24 B of scalars and 8 B per retained sketch value.
        let retained: usize = base.measures().iter().map(|c| c.sketch.retained()).sum();
        assert_eq!(base.memory_bytes(), base.cells() * 32 + retained * 8);
    }
}
