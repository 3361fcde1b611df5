//! The warehouse itself: materialised views plus a query planner.
//!
//! A query names a granularity (one level per dimension), optional
//! dice filters, and an optional top-k cut. The planner answers it
//! from the *smallest materialised cuboid that is finer-or-equal on
//! every dimension* ([`Cuboid::smallest_covering`]), rolling up and
//! filtering on the fly; only when no view qualifies does it fall back
//! to scanning the facts. The returned [`QueryCost`] records which
//! source served the query and how many cells/facts it touched — the
//! quantities experiment E9 compares.

use crate::cube::{Cell, Cuboid, KeyCodec, LevelSelect, Lift, Measure};
use crate::dimension::{Schema, NDIMS};
use crate::fact::FactTable;
use riskpipe_exec::ThreadPool;
use riskpipe_types::{RiskError, RiskResult};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A dice filter: keep cells whose code for `dim` (at the query's
/// level for that dimension) is in `codes`.
#[derive(Debug, Clone)]
pub struct Filter {
    /// Dimension index (see [`crate::dimension::dim`]).
    pub dim: usize,
    /// Accepted codes at the query's level for that dimension.
    pub codes: Vec<u32>,
}

impl Filter {
    /// A slice: a single accepted code.
    pub fn slice(dim: usize, code: u32) -> Self {
        Self {
            dim,
            codes: vec![code],
        }
    }
}

/// An analytical query against the warehouse.
#[derive(Debug, Clone)]
pub struct Query {
    /// Result granularity: one level per dimension.
    pub select: LevelSelect,
    /// Dice filters (conjunctive).
    pub filters: Vec<Filter>,
    /// Keep only the `k` cells with the largest loss sum.
    pub top_k: Option<usize>,
}

impl Query {
    /// A plain group-by at `select` with no filters.
    pub fn group_by(select: LevelSelect) -> Self {
        Self {
            select,
            filters: Vec::new(),
            top_k: None,
        }
    }

    /// Add a dice filter.
    pub fn filter(mut self, f: Filter) -> Self {
        self.filters.push(f);
        self
    }

    /// Keep only the top `k` cells by loss sum.
    pub fn top(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Reject a query `schema` cannot express: a level select or filter
    /// dimension out of range, or a filter code beyond its dimension's
    /// cardinality at the query's level.
    pub(crate) fn validate(&self, schema: &Schema) -> RiskResult<()> {
        self.select.check(schema, "query select")?;
        for f in &self.filters {
            if f.dim >= NDIMS {
                return Err(RiskError::invalid(format!(
                    "filter dimension {} out of range",
                    f.dim
                )));
            }
            let card = schema.dim(f.dim).cardinality(self.select.level(f.dim));
            if f.codes.iter().any(|&c| c >= card) {
                return Err(RiskError::invalid(format!(
                    "filter code out of range for dimension {} at query level",
                    f.dim
                )));
            }
        }
        Ok(())
    }

    /// Whether a cell with `codes` (at the query's levels) passes every
    /// dice filter.
    #[inline]
    pub(crate) fn accepts(&self, codes: &[u32; NDIMS]) -> bool {
        self.filters.iter().all(|f| f.codes.contains(&codes[f.dim]))
    }

    /// The top-k cut: with `top_k` set, order `rows` by descending loss
    /// sum (ties by ascending codes) and keep the first `k`; otherwise
    /// return them as given (cell-key order).
    pub(crate) fn cut<'a, M: Measure>(&self, mut rows: Vec<Row<'a, M>>) -> Vec<Row<'a, M>> {
        if let Some(k) = self.top_k {
            rows.sort_by(|a, b| {
                b.cell
                    .sum()
                    .total_cmp(&a.cell.sum())
                    .then_with(|| a.codes.cmp(&b.codes))
            });
            rows.truncate(k);
        }
        rows
    }
}

/// One result row: the cell's codes at the query's levels and the
/// merged cell. A row fed by a single source cell borrows it from the
/// cuboid that served the query (so the rows hold that warehouse
/// borrowed while they live); a row that pooled several cells owns the
/// merge. Either way `row.cell` derefs to the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Row<'a, M: Clone> {
    /// Cell codes, one per dimension at the query's level.
    pub codes: [u32; NDIMS],
    /// The merged cell.
    pub cell: Cow<'a, M>,
}

impl<M: Clone> Row<'_, M> {
    /// Whether the row's cell is the serving cuboid's own (one source
    /// cell, nothing copied).
    pub fn is_borrowed(&self) -> bool {
        matches!(self.cell, Cow::Borrowed(_))
    }

    /// The row with its cell copied out if it was borrowed — for
    /// callers whose rows must outlive (or survive a mutation of) the
    /// warehouse that answered.
    pub fn into_owned(self) -> Row<'static, M>
    where
        M: 'static,
    {
        Row {
            codes: self.codes,
            cell: Cow::Owned(self.cell.into_owned()),
        }
    }
}

/// A result row of plain aggregates.
pub type ResultRow<'a> = Row<'a, Cell>;

/// Where a query was answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A materialised cuboid at this selection.
    Materialized(LevelSelect),
    /// Full scan of the fact table.
    FactScan,
}

/// Cost accounting for one answered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCost {
    /// The source the planner chose.
    pub source: Source,
    /// Aggregated cells read (0 for fact scans).
    pub cells_read: u64,
    /// Fact rows read (0 when served from a view).
    pub facts_read: u64,
    /// Result rows returned.
    pub rows_out: u64,
    /// Returned rows whose cell is borrowed from the source cuboid: one
    /// source cell each, nothing copied.
    pub rows_borrowed: u64,
    /// Source cells merged into a cell an earlier one had started (0
    /// when the source is as coarse as the query). A high share of
    /// `cells_read` says the view set does not fit the query mix.
    pub cells_merged: u64,
}

impl QueryCost {
    /// Rows of *any* kind read to answer the query — the scan-cost
    /// scalar E9 plots.
    pub fn rows_read(&self) -> u64 {
        self.cells_read + self.facts_read
    }
}

/// Materialised views plus the fact table and planner.
#[derive(Debug)]
pub struct Warehouse {
    schema: Schema,
    facts: FactTable,
    views: BTreeMap<LevelSelect, Cuboid>,
}

impl Warehouse {
    /// A warehouse with no materialised views (every query scans).
    pub fn new(schema: Schema, facts: FactTable) -> Self {
        Self {
            schema,
            facts,
            views: BTreeMap::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The fact table.
    pub fn facts(&self) -> &FactTable {
        &self.facts
    }

    /// Currently materialised selections.
    pub fn materialized(&self) -> Vec<LevelSelect> {
        self.views.keys().copied().collect()
    }

    /// Total bytes held by materialised views.
    pub fn views_memory_bytes(&self) -> usize {
        self.views.values().map(|c| c.memory_bytes()).sum()
    }

    /// Materialise the view at `select`, deriving it from the best
    /// existing finer view when one exists (rollup) and from the facts
    /// otherwise. Returns the build cost (rows read).
    pub fn materialize(
        &mut self,
        select: LevelSelect,
        pool: Option<&ThreadPool>,
    ) -> RiskResult<u64> {
        if self.views.contains_key(&select) {
            return Ok(0);
        }
        let rows = self.facts.rows() as u64;
        let (cuboid, cost) = match Cuboid::smallest_covering(self.views.values(), select) {
            Some(src) if (src.cells() as u64) < rows => {
                (src.rollup(&self.schema, select)?, src.cells() as u64)
            }
            _ => (
                Cuboid::build(&self.schema, &self.facts, select, pool)?,
                rows,
            ),
        };
        self.views.insert(select, cuboid);
        Ok(cost)
    }

    /// Materialise several views, finest first so coarser ones derive
    /// from finer ones already in place. Returns total build cost.
    pub fn materialize_all(
        &mut self,
        selects: &[LevelSelect],
        pool: Option<&ThreadPool>,
    ) -> RiskResult<u64> {
        let mut order: Vec<LevelSelect> = selects.to_vec();
        // Finest first: sort by total level (ascending), then key.
        order.sort_by_key(|s| (s.0.iter().map(|&l| l as u32).sum::<u32>(), *s));
        let mut total = 0u64;
        for s in order {
            total += self.materialize(s, pool)?;
        }
        Ok(total)
    }

    /// Answer `query`, returning result rows (sorted by cell key, or
    /// by descending sum when `top_k` is set) and the cost record.
    pub fn answer(&self, query: &Query) -> RiskResult<(Vec<ResultRow<'_>>, QueryCost)> {
        match Cuboid::smallest_covering(self.views.values(), query.select) {
            Some(view) => view.answer(&self.schema, query),
            None => {
                let rows = self.answer_from_facts(query)?;
                let cost = QueryCost {
                    source: Source::FactScan,
                    cells_read: 0,
                    facts_read: self.facts.rows() as u64,
                    rows_out: rows.len() as u64,
                    rows_borrowed: 0,
                    cells_merged: 0,
                };
                Ok((rows, cost))
            }
        }
    }

    /// The fallback when no view covers `query`: one pass over the
    /// facts, filtering before aggregating. Every row owns its cell.
    fn answer_from_facts(&self, query: &Query) -> RiskResult<Vec<ResultRow<'static>>> {
        query.validate(&self.schema)?;
        let codec = KeyCodec::new(&self.schema, query.select)?;
        let lift = Lift::new(&self.schema, LevelSelect::BASE, query.select);
        let losses = self.facts.losses();
        #[expect(
            clippy::disallowed_types,
            reason = "each cell sums its rows in fact order; entries are sorted \
                      by key before emission"
        )]
        let mut scanned = std::collections::HashMap::<u64, Cell>::new();
        for row in 0..self.facts.rows() {
            let out = lift.apply(self.facts.row_codes(row));
            if query.accepts(&out) {
                scanned
                    .entry(codec.encode(out))
                    .or_insert(Cell::EMPTY)
                    .absorb(losses[row]);
            }
        }
        let mut entries: Vec<(u64, Cell)> = scanned.into_iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let rows = entries.into_iter().map(|(k, cell)| Row {
            codes: codec.decode(k),
            cell: Cow::Owned(cell),
        });
        Ok(query.cut(rows.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::{dim, Schema};

    fn wh(materialize_base: bool) -> Warehouse {
        let s = Schema::standard(25, 5, 16, 4, 6, 2).unwrap();
        let facts = FactTable::synthetic(&s, 15_000, 77);
        let mut w = Warehouse::new(s, facts);
        if materialize_base {
            w.materialize(LevelSelect::BASE, None).unwrap();
        }
        w
    }

    #[test]
    fn scan_and_view_answers_agree() {
        let cold = wh(false);
        let warm = wh(true);
        let queries = [
            Query::group_by(LevelSelect([1, 1, 2, 2])),
            Query::group_by(LevelSelect([2, 1, 0, 3])),
            Query::group_by(LevelSelect([1, 2, 2, 1])).filter(Filter::slice(dim::GEO, 2)),
            Query::group_by(LevelSelect([1, 1, 1, 1]))
                .filter(Filter {
                    dim: dim::EVENT,
                    codes: vec![0, 2],
                })
                .top(5),
        ];
        for q in &queries {
            let (a, ca) = cold.answer(q).unwrap();
            let (b, cb) = warm.answer(q).unwrap();
            assert_eq!(ca.source, Source::FactScan);
            assert!(matches!(cb.source, Source::Materialized(_)));
            // A scan aggregates fresh cells: nothing to borrow, no cell
            // merged. The base view pools cells into every one of these
            // coarser rows.
            assert!(a.iter().all(|r| !r.is_borrowed()));
            assert_eq!((ca.rows_borrowed, ca.cells_merged), (0, 0));
            assert!(cb.cells_merged > 0);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.codes, y.codes);
                assert_eq!(x.cell.count, y.cell.count);
                assert!((x.cell.sum - y.cell.sum).abs() <= 1e-9 * x.cell.sum.abs().max(1.0));
                assert_eq!(x.cell.max, y.cell.max);
            }
        }
    }

    #[test]
    fn planner_prefers_smallest_view() {
        let mut w = wh(true);
        w.materialize(LevelSelect([1, 1, 1, 1]), None).unwrap();
        let q = Query::group_by(LevelSelect([2, 1, 2, 2]));
        let (_, cost) = w.answer(&q).unwrap();
        assert_eq!(cost.source, Source::Materialized(LevelSelect([1, 1, 1, 1])));
        // The mid view is much smaller than base.
        let base_cells = w.views[&LevelSelect::BASE].cells() as u64;
        assert!(cost.cells_read < base_cells);
        assert_eq!(cost.facts_read, 0);
    }

    #[test]
    fn view_cannot_serve_finer_query() {
        let mut w = wh(false);
        w.materialize(LevelSelect([1, 1, 1, 1]), None).unwrap();
        // Query at base level: the only view is coarser → fact scan.
        let (_, cost) = w.answer(&Query::group_by(LevelSelect::BASE)).unwrap();
        assert_eq!(cost.source, Source::FactScan);
        assert_eq!(cost.facts_read, 15_000);
    }

    #[test]
    fn filters_restrict_rows() {
        let w = wh(true);
        let all = Query::group_by(LevelSelect([1, 2, 2, 3]));
        let one = Query::group_by(LevelSelect([1, 2, 2, 3])).filter(Filter::slice(dim::GEO, 3));
        let (ra, _) = w.answer(&all).unwrap();
        let (ro, _) = w.answer(&one).unwrap();
        assert!(ro.len() < ra.len());
        assert!(ro.iter().all(|r| r.codes[dim::GEO] == 3));
        // Filtered total equals the matching subset of the unfiltered.
        let want: f64 = ra
            .iter()
            .filter(|r| r.codes[dim::GEO] == 3)
            .map(|r| r.cell.sum)
            .sum();
        let got: f64 = ro.iter().map(|r| r.cell.sum).sum();
        assert!((want - got).abs() <= 1e-9 * want.abs().max(1.0));
    }

    #[test]
    fn top_k_orders_by_sum() {
        let w = wh(true);
        let q = Query::group_by(LevelSelect([2, 0, 2, 3])).top(3);
        let (rows, cost) = w.answer(&q).unwrap();
        assert!(rows.len() <= 3);
        assert_eq!(cost.rows_out, rows.len() as u64);
        for pair in rows.windows(2) {
            assert!(pair[0].cell.sum >= pair[1].cell.sum);
        }
    }

    #[test]
    fn materialize_all_prefers_derivation() {
        let mut w = wh(false);
        let cost = w
            .materialize_all(
                &[
                    LevelSelect([2, 2, 2, 3]), // apex-ish, should derive
                    LevelSelect::BASE,
                    LevelSelect([1, 1, 1, 1]),
                ],
                None,
            )
            .unwrap();
        // base from facts (15000) + mid from base (cells of base) +
        // coarse from mid (cells of mid) — derivations beat rescans.
        let base_cells = w.views[&LevelSelect::BASE].cells() as u64;
        let mid_cells = w.views[&LevelSelect([1, 1, 1, 1])].cells() as u64;
        assert_eq!(cost, 15_000 + base_cells + mid_cells);
        assert_eq!(w.materialized().len(), 3);
        // Re-materialising is free.
        assert_eq!(w.materialize(LevelSelect::BASE, None).unwrap(), 0);
    }

    #[test]
    fn invalid_queries_rejected() {
        let w = wh(true);
        assert!(w
            .answer(&Query::group_by(LevelSelect([9, 0, 0, 0])))
            .is_err());
        let bad_dim = Query::group_by(LevelSelect::BASE).filter(Filter {
            dim: 7,
            codes: vec![0],
        });
        assert!(w.answer(&bad_dim).is_err());
        let bad_code =
            Query::group_by(LevelSelect([1, 1, 1, 1])).filter(Filter::slice(dim::GEO, 99));
        assert!(w.answer(&bad_code).is_err());
    }

    #[test]
    fn costs_record_rows_read() {
        let w = wh(true);
        let (_, cost) = w
            .answer(&Query::group_by(LevelSelect([1, 1, 1, 1])))
            .unwrap();
        assert_eq!(cost.rows_read(), cost.cells_read);
        let cold = wh(false);
        let (_, cost) = cold
            .answer(&Query::group_by(LevelSelect([1, 1, 1, 1])))
            .unwrap();
        assert_eq!(cost.rows_read(), cost.facts_read);
        assert!(cold.views_memory_bytes() == 0);
    }
}
