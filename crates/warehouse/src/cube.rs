//! Cuboids: materialised group-by aggregates over the fact table.
//!
//! A *cuboid* is the fact table grouped by one level choice per
//! dimension — `(region, peril, all, month)` is one cuboid of the
//! 3×3×3×4 lattice. Building the base cuboid once and answering every
//! later query from pre-computed cells is the "pre-computation …
//! parallel data warehousing" technique the paper prescribes for stage
//! 3's data volumes (experiment E9).
//!
//! [`Cuboid`] is generic over its cell ([`Measure`]): the same sorted
//! key column carries plain count/sum/max [`Cell`]s or sketch-valued
//! [`SketchCell`](crate::sketchcube::SketchCell)s, and rolling up and
//! answering a [`Query`] are one private grouping loop over either.
//!
//! Fact-scan builds are chunk-deterministic: facts are partitioned into
//! fixed ranges, each range is aggregated independently (optionally on
//! the thread pool), and partials merge in range order — so the
//! sequential and parallel builds produce bit-identical cells, the same
//! discipline the aggregate-analysis engines follow.

use crate::dimension::{Schema, NDIMS};
use crate::fact::FactTable;
use crate::query::{Query, QueryCost, Row, Source};
use riskpipe_exec::{par_map_collect, ThreadPool};
use riskpipe_types::{RiskError, RiskResult};
use std::borrow::Cow;

/// A choice of hierarchy level per dimension — one node of the cuboid
/// lattice. `0` is each dimension's finest level; the maximum index is
/// the dimension's "all" level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LevelSelect(pub [u8; NDIMS]);

impl LevelSelect {
    /// The base cuboid: every dimension at its finest level.
    pub const BASE: LevelSelect = LevelSelect([0; NDIMS]);

    /// The apex cuboid selector for `schema`: every dimension at "all".
    pub fn apex(schema: &Schema) -> Self {
        let mut s = [0u8; NDIMS];
        for (d, v) in s.iter_mut().enumerate() {
            *v = (schema.dim(d).level_count() - 1) as u8;
        }
        LevelSelect(s)
    }

    /// Whether every level index is valid for `schema`.
    pub fn is_valid(&self, schema: &Schema) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(d, &l)| (l as usize) < schema.dim(d).level_count())
    }

    /// [`LevelSelect::is_valid`] as a typed error naming `what` the
    /// selection was meant to be.
    pub(crate) fn check(&self, schema: &Schema, what: &str) -> RiskResult<()> {
        if self.is_valid(schema) {
            Ok(())
        } else {
            Err(RiskError::invalid(format!(
                "{what} {:?} invalid for schema",
                self.0
            )))
        }
    }

    /// `self` is finer than or equal to `other` on every dimension —
    /// i.e. `other` can be computed from `self` by rolling up.
    pub fn finer_eq(&self, other: &LevelSelect) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a <= b)
    }

    /// Level index for dimension `d`.
    #[inline]
    pub fn level(&self, d: usize) -> usize {
        self.0[d] as usize
    }

    /// Render as "location×event×all×month" using `schema` level names.
    pub fn describe(&self, schema: &Schema) -> String {
        let mut parts = Vec::with_capacity(NDIMS);
        for d in 0..NDIMS {
            parts.push(schema.dim(d).level(self.level(d)).name.clone());
        }
        parts.join("×")
    }
}

/// Bit-packing codec turning the per-dimension codes of one cuboid cell
/// into a single `u64` key (and back). Widths are the minimum bits for
/// each dimension's cardinality at the cuboid's level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyCodec {
    shift: [u8; NDIMS],
    width: [u8; NDIMS],
}

impl KeyCodec {
    /// Codec for `select` under `schema`. Fails if the packed key would
    /// exceed 64 bits (not reachable with the standard schema, but the
    /// capacity check mirrors the simulated-GPU discipline of failing
    /// loudly instead of silently truncating).
    pub fn new(schema: &Schema, select: LevelSelect) -> RiskResult<Self> {
        let mut width = [0u8; NDIMS];
        let mut total = 0u32;
        for d in 0..NDIMS {
            let card = schema.dim(d).cardinality(select.level(d));
            let bits = if card <= 1 {
                0
            } else {
                32 - (card - 1).leading_zeros()
            } as u8;
            width[d] = bits;
            total += bits as u32;
        }
        if total > 64 {
            return Err(RiskError::CapacityExceeded {
                what: "cuboid key bits".into(),
                requested: total as u64,
                available: 64,
            });
        }
        let mut shift = [0u8; NDIMS];
        let mut acc = 0u8;
        // Dimension 0 occupies the most-significant bits so keys sort
        // by (geo, event, contract, time) lexicographically.
        for d in (0..NDIMS).rev() {
            shift[d] = acc;
            acc += width[d];
        }
        Ok(Self { shift, width })
    }

    /// Pack per-dimension codes into a key.
    #[inline]
    pub fn encode(&self, codes: [u32; NDIMS]) -> u64 {
        let mut k = 0u64;
        for d in 0..NDIMS {
            debug_assert!(self.width[d] == 0 || (codes[d] as u64) < (1u64 << self.width[d]));
            k |= (codes[d] as u64) << self.shift[d];
        }
        k
    }

    /// Unpack a key into per-dimension codes.
    #[inline]
    pub fn decode(&self, key: u64) -> [u32; NDIMS] {
        let mut out = [0u32; NDIMS];
        for d in 0..NDIMS {
            let mask = if self.width[d] == 0 {
                0
            } else {
                (1u64 << self.width[d]) - 1
            };
            out[d] = ((key >> self.shift[d]) & mask) as u32;
        }
        out
    }
}

/// Per-dimension code tables lifting cell (or fact) codes from one level
/// selection up to a coarser one — the hierarchy walk resolved once, so
/// the grouping loops do `NDIMS` array reads per cell instead of
/// pointer-chasing the hierarchy.
#[derive(Debug, Clone)]
pub(crate) struct Lift([Option<Vec<u32>>; NDIMS]);

impl Lift {
    /// Tables from `from`'s levels to `to`'s (`None` where they agree).
    /// `from` must be finer-or-equal to `to`; `Lift::new(schema,
    /// LevelSelect::BASE, select)` lifts raw fact codes.
    pub(crate) fn new(schema: &Schema, from: LevelSelect, to: LevelSelect) -> Self {
        Lift(std::array::from_fn(|d| {
            let (f, t) = (from.level(d), to.level(d));
            (f != t).then(|| {
                let dim = schema.dim(d);
                (0..dim.cardinality(f)).map(|c| dim.lift(f, t, c)).collect()
            })
        }))
    }

    /// Lift one cell's codes.
    #[inline]
    pub(crate) fn apply(&self, codes: [u32; NDIMS]) -> [u32; NDIMS] {
        let mut out = codes;
        for d in 0..NDIMS {
            if let Some(lut) = &self.0[d] {
                out[d] = lut[codes[d] as usize];
            }
        }
        out
    }
}

/// What the cuboid algebra asks of a cell — nothing else about a cell
/// is visible to [`Cuboid`], the planner or view selection.
pub trait Measure: Clone {
    /// Merge another cell in. Must be a pure function of the two
    /// operand states, so a fixed merge order (source key order in
    /// every cuboid operation) is bit-reproducible.
    fn merge(&mut self, other: &Self);
    /// Facts pooled in the cell.
    fn count(&self) -> u64;
    /// Total loss — the top-k order of [`Query::top`].
    fn sum(&self) -> f64;
    /// Heap footprint in bytes — what a space-budgeted view selection
    /// charges for the cell.
    fn memory_bytes(&self) -> usize;
}

/// The plain aggregate measures of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Number of facts in the cell.
    pub count: u64,
    /// Total loss.
    pub sum: f64,
    /// Largest single fact loss.
    pub max: f64,
}

impl Cell {
    /// The additive/semigroup identity.
    pub const EMPTY: Cell = Cell {
        count: 0,
        sum: 0.0,
        max: 0.0,
    };

    /// Fold one fact in.
    #[inline]
    pub fn absorb(&mut self, loss: f64) {
        self.count += 1;
        self.sum += loss;
        if loss > self.max {
            self.max = loss;
        }
    }
}

impl Measure for Cell {
    #[inline]
    fn merge(&mut self, other: &Cell) {
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    fn count(&self) -> u64 {
        self.count
    }

    fn sum(&self) -> f64 {
        self.sum
    }

    fn memory_bytes(&self) -> usize {
        24
    }
}

/// A materialised cuboid: sorted keys and their cells, in parallel
/// columns. The cell type decides what a cell can answer — [`Cell`]
/// carries count/sum/max, [`SketchCell`](crate::sketchcube::SketchCell)
/// adds a quantile sketch — and every operation below is written once
/// for both.
#[derive(Debug, Clone)]
pub struct Cuboid<M = Cell> {
    select: LevelSelect,
    codec: KeyCodec,
    keys: Vec<u64>,
    cells: Vec<M>,
}

/// Default fact rows per aggregation chunk.
pub const DEFAULT_BUILD_GRAIN: usize = 64 * 1024;

impl Cuboid<Cell> {
    /// Group the fact table by `select`, sequentially or on `pool`.
    ///
    /// The chunk structure (and therefore every floating-point addition
    /// order) is identical in both modes; only *where* chunks run
    /// differs, so the two modes agree bitwise.
    pub fn build(
        schema: &Schema,
        facts: &FactTable,
        select: LevelSelect,
        pool: Option<&ThreadPool>,
    ) -> RiskResult<Self> {
        Self::build_with_grain(schema, facts, select, pool, DEFAULT_BUILD_GRAIN)
    }

    /// [`Cuboid::build`] with an explicit chunk grain (tests use small
    /// grains to force multi-chunk merges on small inputs).
    #[expect(
        clippy::disallowed_types,
        reason = "per-chunk partials keyed by cell; merged in chunk order and \
                  sorted by key before emission"
    )]
    fn build_with_grain(
        schema: &Schema,
        facts: &FactTable,
        select: LevelSelect,
        pool: Option<&ThreadPool>,
        grain: usize,
    ) -> RiskResult<Self> {
        use std::collections::HashMap;
        select.check(schema, "level select")?;
        let grain = grain.max(1);
        let codec = KeyCodec::new(schema, select)?;
        let lift = Lift::new(schema, LevelSelect::BASE, select);

        let rows = facts.rows();
        let nchunks = rows.div_ceil(grain).max(1);
        let losses = facts.losses();

        let fold_chunk = |ci: usize| -> HashMap<u64, Cell> {
            let lo = ci * grain;
            let hi = ((ci + 1) * grain).min(rows);
            let mut partial: HashMap<u64, Cell> = HashMap::new();
            for row in lo..hi {
                let key = codec.encode(lift.apply(facts.row_codes(row)));
                partial
                    .entry(key)
                    .or_insert(Cell::EMPTY)
                    .absorb(losses[row]);
            }
            partial
        };

        let partials: Vec<HashMap<u64, Cell>> = match pool {
            Some(p) if nchunks > 1 => par_map_collect(p, nchunks, 1, fold_chunk),
            _ => (0..nchunks).map(fold_chunk).collect(),
        };

        // Merge in chunk order (deterministic), then sort cells by key.
        let mut merged: HashMap<u64, Cell> = HashMap::new();
        for part in partials {
            #[expect(
                clippy::iter_over_hash_type,
                reason = "each key occurs at most once per partial, so per-key \
                          merge order is exactly chunk order regardless of the \
                          hash iteration order; entries are sorted by key before \
                          emission"
            )]
            for (k, c) in part {
                merged.entry(k).or_insert(Cell::EMPTY).merge(&c);
            }
        }
        let mut entries: Vec<(u64, Cell)> = merged.into_iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        Ok(Self::from_sorted(select, codec, entries))
    }
}

impl<M: Measure> Cuboid<M> {
    /// Assemble a cuboid from accumulated `(key, cell)` entries
    /// (sorted by key here; duplicate keys are rejected).
    pub fn from_entries(
        schema: &Schema,
        select: LevelSelect,
        mut entries: Vec<(u64, M)>,
    ) -> RiskResult<Self> {
        select.check(schema, "level select")?;
        let codec = KeyCodec::new(schema, select)?;
        entries.sort_by_key(|&(k, _)| k);
        if entries.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(RiskError::invalid("duplicate cuboid cell keys"));
        }
        Ok(Self::from_sorted(select, codec, entries))
    }

    /// Split entries already in strictly ascending key order into the
    /// two columns.
    fn from_sorted(
        select: LevelSelect,
        codec: KeyCodec,
        entries: impl IntoIterator<Item = (u64, M)>,
    ) -> Self {
        let (keys, cells) = entries.into_iter().unzip();
        Self {
            select,
            codec,
            keys,
            cells,
        }
    }

    /// The level selection this cuboid is grouped by.
    pub fn select(&self) -> LevelSelect {
        self.select
    }

    /// The key codec (per-dimension bit packing).
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// Number of cells — also what reading the cuboid costs (rollups
    /// and answers visit every cell once), the planner's cost model.
    pub fn cells(&self) -> usize {
        self.keys.len()
    }

    /// Sorted cell keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The cells, parallel to [`Cuboid::keys`].
    pub(crate) fn measures(&self) -> &[M] {
        &self.cells
    }

    /// Cell at index `i` as `(codes, cell)`.
    #[inline]
    pub fn cell_at(&self, i: usize) -> ([u32; NDIMS], &M) {
        (self.codec.decode(self.keys[i]), &self.cells[i])
    }

    /// Binary-search a cell by its codes. Codes outside the codec's
    /// packing range cannot name any cell and return `None`.
    pub fn find(&self, codes: [u32; NDIMS]) -> Option<&M> {
        if (0..NDIMS).any(|d| codes[d] as u64 >= 1u64 << self.codec.width[d]) {
            return None;
        }
        let key = self.codec.encode(codes);
        self.keys.binary_search(&key).ok().map(|i| &self.cells[i])
    }

    /// Sum of all cell counts (must equal the fact row count).
    pub fn total_count(&self) -> u64 {
        self.cells.iter().map(M::count).sum()
    }

    /// Sum of all cell sums (must equal the fact total loss up to fp
    /// association).
    pub fn total_sum(&self) -> f64 {
        let k: riskpipe_types::KahanSum = self.cells.iter().map(M::sum).collect();
        k.total()
    }

    /// Heap footprint in bytes (keys plus every cell) — the quantity a
    /// byte-budgeted view selection charges.
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * 8 + self.cells.iter().map(M::memory_bytes).sum::<usize>()
    }

    /// The planner's pick rule, for materialising and for answering
    /// alike: among `candidates` finer-or-equal to `select` on every
    /// dimension, the one with the fewest cells; ties go to the
    /// earliest candidate. `None` when no candidate covers `select`.
    pub fn smallest_covering<'a>(
        candidates: impl IntoIterator<Item = &'a Cuboid<M>>,
        select: LevelSelect,
    ) -> Option<&'a Cuboid<M>>
    where
        M: 'a,
    {
        candidates
            .into_iter()
            .filter(|c| c.select.finer_eq(&select))
            .min_by_key(|c| c.cells())
    }

    /// Re-aggregate at the coarser `target` selection — what makes
    /// pre-computation compound: the base cuboid is built from the
    /// facts once, and every coarser view derives from an
    /// already-aggregated cuboid at the cost of its *cells*, which
    /// shrink geometrically up the lattice. Fails unless this cuboid is
    /// finer-or-equal to `target` on every dimension (a cuboid can only
    /// be rolled *up*). Repeated rollups are bit-identical.
    pub fn rollup(&self, schema: &Schema, target: LevelSelect) -> RiskResult<Cuboid<M>> {
        target.check(schema, "rollup target")?;
        if !self.select.finer_eq(&target) {
            return Err(RiskError::invalid(format!(
                "cannot roll up {:?} to {:?}: target must be coarser on every dimension",
                self.select.0, target.0
            )));
        }
        let codec = KeyCodec::new(schema, target)?;
        let lift = Lift::new(schema, self.select, target);
        let (cells, _) = self.group(&lift, &codec, |_| true, |k, cell| (k, cell.into_owned()));
        Ok(Self::from_sorted(target, codec, cells))
    }

    /// Answer `query` from this cuboid: lift each cell to the query's
    /// levels, apply the dice filters, merge cells landing on one
    /// output cell, and apply the top-k cut. Rows come back in cell-key
    /// order, or by descending sum when `top_k` is set, with the cost
    /// record of the read. A row fed by a single cell *borrows* it from
    /// this cuboid — a group-by at the cuboid's own grain copies
    /// nothing; only a row that pooled several cells owns its merged
    /// cell. Fails unless this cuboid is finer-or-equal to the query on
    /// every dimension.
    pub fn answer(
        &self,
        schema: &Schema,
        query: &Query,
    ) -> RiskResult<(Vec<Row<'_, M>>, QueryCost)> {
        query.validate(schema)?;
        if !self.select.finer_eq(&query.select) {
            return Err(RiskError::invalid(format!(
                "cuboid {:?} cannot serve coarser-than-{:?} query",
                self.select.0, query.select.0
            )));
        }
        let codec = KeyCodec::new(schema, query.select)?;
        let lift = Lift::new(schema, self.select, query.select);
        let (rows, cells_merged) = self.group(
            &lift,
            &codec,
            |codes| query.accepts(codes),
            |k, cell| Row {
                codes: codec.decode(k),
                cell,
            },
        );
        let rows = query.cut(rows);
        let cost = QueryCost {
            source: Source::Materialized(self.select),
            cells_read: self.cells() as u64,
            facts_read: 0,
            rows_out: rows.len() as u64,
            rows_borrowed: rows.iter().filter(|r| r.is_borrowed()).count() as u64,
            cells_merged,
        };
        Ok((rows, cost))
    }

    /// The one grouping loop behind [`Cuboid::rollup`] and
    /// [`Cuboid::answer`]. Visit the cells in key order, lift their
    /// codes, drop those `keep` rejects, and pair each survivor's key
    /// under `codec` with its cell index. Lifting to a coarser grain
    /// can break key order, so the pairs are stable-sorted by key when
    /// they are not already ascending (a group-by at the cuboid's own
    /// grain never sorts). Each run of equal keys is then one group:
    /// its first cell is borrowed, and the second makes the group an
    /// owned copy of the first that it and later ones merge into. The
    /// sort is stable, so a run lists its cells in visit order, and
    /// that fixed merge order is what makes every caller
    /// deterministic. Returns what `emit` makes of each group's key and
    /// cell, in ascending key order, and how many cells were merged
    /// into an earlier one. (Starting each group from [`Cell::EMPTY`],
    /// as the fact scans do, differs only for cells no fold from
    /// `EMPTY` can produce — a `-0.0` sum, a negative max — i.e. only
    /// for cells that arrived through `decode_cuboid`.)
    fn group<'a, T>(
        &'a self,
        lift: &Lift,
        codec: &KeyCodec,
        keep: impl Fn(&[u32; NDIMS]) -> bool,
        emit: impl Fn(u64, Cow<'a, M>) -> T,
    ) -> (Vec<T>, u64) {
        let mut picks: Vec<(u64, usize)> = Vec::with_capacity(self.keys.len());
        for (i, &key) in self.keys.iter().enumerate() {
            let out = lift.apply(self.codec.decode(key));
            if keep(&out) {
                picks.push((codec.encode(out), i));
            }
        }
        if !picks.is_sorted_by_key(|&(key, _)| key) {
            picks.sort_by_key(|&(key, _)| key);
        }
        let runs = picks.chunk_by(|a, b| a.0 == b.0);
        let mut grouped = Vec::with_capacity(runs.clone().count());
        let mut merged = 0;
        for run in runs {
            let (key, first) = run[0];
            let mut cell = Cow::Borrowed(&self.cells[first]);
            for &(_, i) in &run[1..] {
                cell.to_mut().merge(&self.cells[i]);
            }
            merged += run.len() as u64 - 1;
            grouped.push(emit(key, cell));
        }
        (grouped, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::{dim, Schema};
    use crate::lattice::enumerate;
    use crate::query::Filter;
    use crate::sketchcube::{SketchCell, SketchCuboid};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::collections::btree_map::{BTreeMap, Entry};

    fn schema() -> Schema {
        Schema::standard(20, 4, 15, 3, 6, 2).unwrap()
    }

    /// The sketch-valued twin of [`Cuboid::build`]: the same facts
    /// grouped at `select`, each cell's losses folded in ascending
    /// order. Same keys and counts as the plain cuboid, so every
    /// cell-agnostic property below runs over both cells.
    fn sketch_build(s: &Schema, facts: &FactTable, select: LevelSelect) -> SketchCuboid {
        let codec = KeyCodec::new(s, select).unwrap();
        let lift = Lift::new(s, LevelSelect::BASE, select);
        let mut columns: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for row in 0..facts.rows() {
            let key = codec.encode(lift.apply(facts.row_codes(row)));
            columns.entry(key).or_default().push(facts.losses()[row]);
        }
        let entries = columns
            .into_iter()
            .map(|(k, mut losses)| {
                riskpipe_types::stats::sort_f64(&mut losses);
                let mut cell = SketchCell::empty(64);
                cell.absorb_sorted(&losses);
                (k, cell)
            })
            .collect();
        SketchCuboid::from_entries(s, select, entries).unwrap()
    }

    /// Same cells up to float association: keys, counts and maxima
    /// exact, sums within tolerance (addition order differs between
    /// cells-of-cells and cells-of-facts).
    fn assert_same_cells<M: Measure>(a: &Cuboid<M>, b: &Cuboid<M>, max: impl Fn(&M) -> f64) {
        assert_eq!(a.select(), b.select());
        assert_eq!(a.keys(), b.keys(), "select {:?}", a.select());
        for (x, y) in a.measures().iter().zip(b.measures()) {
            assert_eq!(x.count(), y.count());
            assert!((x.sum() - y.sum()).abs() <= 1e-9 * y.sum().abs().max(1.0));
            assert_eq!(max(x), max(y));
        }
    }

    #[test]
    fn level_select_ordering_and_validity() {
        let s = schema();
        assert!(LevelSelect::BASE.is_valid(&s));
        let apex = LevelSelect::apex(&s);
        assert_eq!(apex.0, [2, 2, 2, 3]);
        assert!(apex.is_valid(&s));
        assert!(!LevelSelect([3, 0, 0, 0]).is_valid(&s));
        assert!(LevelSelect::BASE.finer_eq(&apex));
        assert!(!apex.finer_eq(&LevelSelect::BASE));
        // Incomparable pair.
        let a = LevelSelect([1, 0, 0, 0]);
        let b = LevelSelect([0, 1, 0, 0]);
        assert!(!a.finer_eq(&b) && !b.finer_eq(&a));
        assert_eq!(LevelSelect::BASE.describe(&s), "location×event×layer×day");
    }

    #[test]
    fn codec_round_trips_all_corners() {
        let s = schema();
        for sel in [
            LevelSelect::BASE,
            LevelSelect([1, 1, 1, 1]),
            LevelSelect::apex(&s),
            LevelSelect([0, 2, 1, 3]),
        ] {
            let codec = KeyCodec::new(&s, sel).unwrap();
            let cards: Vec<u32> = (0..NDIMS)
                .map(|d| s.dim(d).cardinality(sel.level(d)))
                .collect();
            // Corners: all-zero, all-max, mixed.
            let corners = [
                [0, 0, 0, 0],
                [cards[0] - 1, cards[1] - 1, cards[2] - 1, cards[3] - 1],
                [cards[0] / 2, 0, cards[2] - 1, cards[3] / 3],
            ];
            for codes in corners {
                assert_eq!(codec.decode(codec.encode(codes)), codes, "sel {sel:?}");
            }
        }
    }

    #[test]
    fn codec_keys_sort_lexicographically() {
        let s = schema();
        let codec = KeyCodec::new(&s, LevelSelect::BASE).unwrap();
        // Increasing geo dominates any other dimension.
        assert!(codec.encode([1, 0, 0, 0]) > codec.encode([0, 14, 5, 364]));
        assert!(codec.encode([0, 1, 0, 0]) > codec.encode([0, 0, 5, 364]));
    }

    #[test]
    fn base_cuboid_conserves_totals() {
        let s = schema();
        let facts = FactTable::synthetic(&s, 10_000, 11);
        let cub = Cuboid::build(&s, &facts, LevelSelect::BASE, None).unwrap();
        assert_eq!(cub.total_count(), 10_000);
        let err = (cub.total_sum() - facts.total_loss()).abs() / facts.total_loss();
        assert!(err < 1e-12, "relative error {err}");
        // Keys strictly ascending (no duplicate cells).
        assert!(cub.keys().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn apex_cuboid_is_one_cell() {
        let s = schema();
        let facts = FactTable::synthetic(&s, 5_000, 3);
        let apex = Cuboid::build(&s, &facts, LevelSelect::apex(&s), None).unwrap();
        assert_eq!(apex.cells(), 1);
        let (codes, cell) = apex.cell_at(0);
        assert_eq!(codes, [0, 0, 0, 0]);
        assert_eq!(cell.count, 5_000);
    }

    #[test]
    fn sequential_and_parallel_builds_agree_bitwise() {
        let s = schema();
        let facts = FactTable::synthetic(&s, 30_000, 9);
        let pool = ThreadPool::new(4);
        for sel in [
            LevelSelect::BASE,
            LevelSelect([1, 1, 0, 1]),
            LevelSelect([2, 1, 1, 2]),
        ] {
            let seq = Cuboid::build_with_grain(&s, &facts, sel, None, 1024).unwrap();
            let par = Cuboid::build_with_grain(&s, &facts, sel, Some(&pool), 1024).unwrap();
            assert_eq!(seq.keys(), par.keys());
            // Bitwise float equality: same chunking ⇒ same addition order.
            let bits = |c: &Cuboid| -> Vec<(u64, u64, u64)> {
                let cell_bits = |c: &Cell| (c.count, c.sum.to_bits(), c.max.to_bits());
                c.measures().iter().map(cell_bits).collect()
            };
            assert_eq!(bits(&seq), bits(&par), "select {sel:?}");
        }
    }

    #[test]
    fn grouped_cell_matches_manual_filter() {
        let s = schema();
        let facts = FactTable::synthetic(&s, 8_000, 5);
        let sel = LevelSelect([1, 1, 2, 2]); // region × peril × all × season
        let cub = Cuboid::build(&s, &facts, sel, None).unwrap();
        // Manually recompute one cell.
        let (codes, cell) = cub.cell_at(cub.cells() / 2);
        let mut count = 0u64;
        let mut sum = 0.0;
        let mut max = 0.0f64;
        for row in 0..facts.rows() {
            let rc = facts.row_codes(row);
            let region = s.dim(dim::GEO).code_at(1, rc[dim::GEO]);
            let peril = s.dim(dim::EVENT).code_at(1, rc[dim::EVENT]);
            let season = s.dim(dim::TIME).code_at(2, rc[dim::TIME]);
            if [region, peril, 0, season] == codes {
                count += 1;
                sum += facts.losses()[row];
                max = max.max(facts.losses()[row]);
            }
        }
        assert_eq!(cell.count, count);
        assert!((cell.sum - sum).abs() <= 1e-9 * sum.abs().max(1.0));
        assert_eq!(cell.max, max);
    }

    #[test]
    fn find_locates_cells() {
        fn check<M: Measure>(cub: &Cuboid<M>) {
            for i in 0..cub.cells() {
                let (codes, cell) = cub.cell_at(i);
                assert!(cub.find(codes).is_some_and(|c| std::ptr::eq(c, cell)));
            }
            // Region packs into 2 bits: 999, and 4 = 2^width, are out
            // of range (4 would alias onto the next dimension's bits).
            assert!(cub.find([999, 0, 0, 0]).is_none());
            assert!(cub.find([4, 0, 0, 0]).is_none());
            // "All" levels are zero bits wide: only code 0 names a cell.
            assert!(cub.find([0, 1, 0, 0]).is_none());
            assert!(cub.find([0, 0, 0, 1]).is_none());
        }
        let s = schema();
        let facts = FactTable::synthetic(&s, 2_000, 8);
        let sel = LevelSelect([1, 2, 2, 3]);
        check(&Cuboid::build(&s, &facts, sel, None).unwrap());
        check(&sketch_build(&s, &facts, sel));
    }

    #[test]
    fn empty_fact_table_yields_empty_cuboid() {
        let s = schema();
        let facts = crate::fact::FactBuilder::new(&s).build();
        let cub = Cuboid::build(&s, &facts, LevelSelect::BASE, None).unwrap();
        assert_eq!(cub.cells(), 0);
        assert_eq!(cub.total_count(), 0);
    }

    #[test]
    fn invalid_select_rejected() {
        let s = schema();
        let facts = FactTable::synthetic(&s, 10, 1);
        assert!(Cuboid::build(&s, &facts, LevelSelect([9, 0, 0, 0]), None).is_err());
    }

    // Rollup: each property is one generic body, run over the plain
    // base cuboid and its sketch-valued twin.

    fn rollup_setup() -> (Schema, FactTable, Cuboid, SketchCuboid) {
        let s = Schema::standard(24, 4, 18, 3, 6, 3).unwrap();
        let facts = FactTable::synthetic(&s, 12_000, 21);
        let base = Cuboid::build(&s, &facts, LevelSelect::BASE, None).unwrap();
        let sketched = sketch_build(&s, &facts, LevelSelect::BASE);
        (s, facts, base, sketched)
    }

    #[test]
    fn rollup_equals_direct_build() {
        let (s, facts, base, sketched) = rollup_setup();
        for target in [
            LevelSelect([1, 0, 0, 0]),
            LevelSelect([1, 1, 1, 1]),
            LevelSelect([2, 1, 0, 2]),
            LevelSelect::apex(&s),
        ] {
            let direct = Cuboid::build(&s, &facts, target, None).unwrap();
            assert_same_cells(&base.rollup(&s, target).unwrap(), &direct, |c| c.max);
            let direct = sketch_build(&s, &facts, target);
            assert_same_cells(&sketched.rollup(&s, target).unwrap(), &direct, |c| c.max);
        }
    }

    #[test]
    fn rollup_is_transitive() {
        fn check<M: Measure>(s: &Schema, base: &Cuboid<M>, max: impl Fn(&M) -> f64) {
            let mid = base.rollup(s, LevelSelect([1, 1, 0, 1])).unwrap();
            let top_direct = base.rollup(s, LevelSelect([2, 1, 1, 2])).unwrap();
            let top_via_mid = mid.rollup(s, LevelSelect([2, 1, 1, 2])).unwrap();
            assert_same_cells(&top_direct, &top_via_mid, max);
        }
        let (s, _facts, base, sketched) = rollup_setup();
        check(&s, &base, |c| c.max);
        check(&s, &sketched, |c| c.max);
    }

    #[test]
    fn rollup_conserves_totals() {
        fn check<M: Measure>(s: &Schema, facts: &FactTable, base: &Cuboid<M>) {
            let apex = base.rollup(s, LevelSelect::apex(s)).unwrap();
            assert_eq!(apex.cells(), 1);
            let (_, cell) = apex.cell_at(0);
            assert_eq!(cell.count(), facts.rows() as u64);
            let rel = (cell.sum() - facts.total_loss()).abs() / facts.total_loss();
            assert!(rel < 1e-12);
        }
        let (s, facts, base, sketched) = rollup_setup();
        check(&s, &facts, &base);
        check(&s, &facts, &sketched);
    }

    #[test]
    fn rollup_rejects_downward_moves() {
        fn check<M: Measure>(s: &Schema, base: &Cuboid<M>) {
            let coarse = base.rollup(s, LevelSelect([1, 1, 1, 1])).unwrap();
            // Down on geo.
            assert!(coarse.rollup(s, LevelSelect([0, 1, 1, 1])).is_err());
            // Incomparable (down on one, up on another).
            assert!(coarse.rollup(s, LevelSelect([0, 2, 2, 2])).is_err());
            // Invalid level.
            assert!(base.rollup(s, LevelSelect([7, 0, 0, 0])).is_err());
        }
        let (s, _facts, base, sketched) = rollup_setup();
        check(&s, &base);
        check(&s, &sketched);
    }

    #[test]
    fn identity_rollup_is_a_copy() {
        let (s, _facts, base, sketched) = rollup_setup();
        let same = base.rollup(&s, LevelSelect::BASE).unwrap();
        assert_eq!(same.keys(), base.keys());
        assert_eq!(same.measures(), base.measures());
        assert_same_cells(
            &sketched.rollup(&s, LevelSelect::BASE).unwrap(),
            &sketched,
            |c| c.max,
        );
    }

    #[test]
    fn cell_counts_shrink_up_the_lattice() {
        fn check<M: Measure>(s: &Schema, base: &Cuboid<M>) {
            let l1 = base.rollup(s, LevelSelect([1, 1, 1, 1])).unwrap();
            let l2 = l1.rollup(s, LevelSelect([2, 2, 2, 3])).unwrap();
            assert!(base.cells() > l1.cells());
            assert!(l1.cells() > l2.cells());
            assert_eq!(l2.cells(), 1);
            // Cells are the cost model and bytes the budget: both shrink.
            assert!(base.memory_bytes() > l1.memory_bytes());
            assert!(l1.memory_bytes() > l2.memory_bytes());
        }
        let (s, _facts, base, sketched) = rollup_setup();
        check(&s, &base);
        check(&s, &sketched);
        assert_eq!(base.memory_bytes(), base.cells() * 32);
    }

    // The grouping loop before it sorted: a `BTreeMap` keyed by output
    // key, the first cell borrowed and later ones merged into an owned
    // copy in visit order. Kept as the oracle `Cuboid::group` must
    // match on groups, merge order and bits.

    fn btree_group<'a, M: Measure>(
        cuboid: &'a Cuboid<M>,
        lift: &Lift,
        codec: &KeyCodec,
        keep: impl Fn(&[u32; NDIMS]) -> bool,
    ) -> (BTreeMap<u64, Cow<'a, M>>, u64) {
        let mut grouped: BTreeMap<u64, Cow<'a, M>> = BTreeMap::new();
        let mut merged = 0;
        for (&key, cell) in cuboid.keys.iter().zip(&cuboid.cells) {
            let out = lift.apply(cuboid.codec.decode(key));
            if keep(&out) {
                match grouped.entry(codec.encode(out)) {
                    Entry::Occupied(mut slot) => {
                        slot.get_mut().to_mut().merge(cell);
                        merged += 1;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(Cow::Borrowed(cell));
                    }
                }
            }
        }
        (grouped, merged)
    }

    /// [`Cuboid::answer`] over the oracle grouping.
    fn oracle_answer<'a, M: Measure>(
        cuboid: &'a Cuboid<M>,
        s: &Schema,
        query: &Query,
    ) -> (Vec<Row<'a, M>>, QueryCost) {
        let codec = KeyCodec::new(s, query.select).unwrap();
        let lift = Lift::new(s, cuboid.select, query.select);
        let (grouped, cells_merged) = btree_group(cuboid, &lift, &codec, |c| query.accepts(c));
        let rows = grouped.into_iter().map(|(k, cell)| Row {
            codes: codec.decode(k),
            cell,
        });
        let rows = query.cut(rows.collect());
        let cost = QueryCost {
            source: Source::Materialized(cuboid.select),
            cells_read: cuboid.cells() as u64,
            facts_read: 0,
            rows_out: rows.len() as u64,
            rows_borrowed: rows.iter().filter(|r| r.is_borrowed()).count() as u64,
            cells_merged,
        };
        (rows, cost)
    }

    /// [`Cuboid::rollup`]'s `(key, cell)` entries over the oracle
    /// grouping.
    fn oracle_rollup<M: Measure>(
        cuboid: &Cuboid<M>,
        s: &Schema,
        target: LevelSelect,
    ) -> Vec<(u64, M)> {
        let codec = KeyCodec::new(s, target).unwrap();
        let lift = Lift::new(s, cuboid.select, target);
        let (grouped, _) = btree_group(cuboid, &lift, &codec, |_| true);
        grouped
            .into_iter()
            .map(|(k, c)| (k, c.into_owned()))
            .collect()
    }

    /// One random dice per call: up to two filters, each on a random
    /// dimension, accepting a random non-empty set of codes at
    /// `select`'s level (a single code is a slice). Sometimes a top-k
    /// cut too.
    fn random_query(s: &Schema, select: LevelSelect, rng: &mut TestRng) -> Query {
        let mut query = Query::group_by(select);
        for _ in 0..rng.next_u64() % 3 {
            let d = (rng.next_u64() % NDIMS as u64) as usize;
            let card = u64::from(s.dim(d).cardinality(select.level(d)));
            let picks = 1 + rng.next_u64() % card.min(4);
            let codes = (0..picks).map(|_| (rng.next_u64() % card) as u32).collect();
            query = query.filter(Filter { dim: d, codes });
        }
        if rng.next_u64().is_multiple_of(4) {
            query = query.top(1 + (rng.next_u64() % 5) as usize);
        }
        query
    }

    /// A base cuboid of `cells` random cells (duplicate codes keep the
    /// first), over a schema small enough that coarse selects pool many
    /// cells and a filter often empties a query.
    fn random_base<M: Measure>(
        s: &Schema,
        cells: &[([u32; 4], Vec<u32>)],
        cell_of: impl Fn(&[u32]) -> M,
    ) -> Cuboid<M> {
        let codec = KeyCodec::new(s, LevelSelect::BASE).unwrap();
        let mut entries = BTreeMap::new();
        for (codes, values) in cells {
            entries
                .entry(codec.encode(*codes))
                .or_insert_with(|| cell_of(values));
        }
        Cuboid::from_entries(s, LevelSelect::BASE, entries.into_iter().collect()).unwrap()
    }

    /// Every select of the lattice, answered under a random dice and
    /// rolled up, against the oracle: rows (codes, borrowed or owned,
    /// cell bits), cost record and rollup cells must all agree.
    fn check_against_oracle<M: Measure>(
        s: &Schema,
        base: &Cuboid<M>,
        seed: u64,
        bits: impl Fn(&M) -> Vec<u64>,
    ) -> Result<(), String> {
        let mut rng = TestRng::new(seed);
        for select in enumerate(s) {
            let query = random_query(s, select, &mut rng);
            let (rows, cost) = base.answer(s, &query).unwrap();
            let (want, want_cost) = oracle_answer(base, s, &query);
            prop_assert_eq!(cost, want_cost, "{:?}", query);
            prop_assert_eq!(rows.len(), want.len());
            for (got, want) in rows.iter().zip(&want) {
                prop_assert_eq!(got.codes, want.codes);
                prop_assert_eq!(got.is_borrowed(), want.is_borrowed());
                prop_assert_eq!(bits(&got.cell), bits(&want.cell));
            }
            let rolled = base.rollup(s, select).unwrap();
            let want = oracle_rollup(base, s, select);
            prop_assert_eq!(rolled.keys().len(), want.len());
            for ((key, cell), (want_key, want_cell)) in
                rolled.keys().iter().zip(rolled.measures()).zip(&want)
            {
                prop_assert_eq!(key, want_key);
                prop_assert_eq!(bits(cell), bits(want_cell));
            }
        }
        Ok(())
    }

    fn small_schema() -> Schema {
        Schema::standard(6, 2, 4, 2, 3, 1).unwrap()
    }

    /// Random base cells: codes in range for [`small_schema`], and a
    /// short column of raw values each.
    fn random_cells() -> impl Strategy<Value = Vec<([u32; 4], Vec<u32>)>> {
        let codes = (0u32..6, 0u32..4, 0u32..3, 0u32..365).prop_map(|(g, e, c, t)| [g, e, c, t]);
        prop::collection::vec((codes, prop::collection::vec(0u32..100_000, 1..40)), 0..80)
    }

    /// A plain cell of signed sum and max, some maxima negative zero:
    /// a cell `decode_cuboid` could hand back.
    fn plain_cell(v: &[u32]) -> Cell {
        let max = if v[0].is_multiple_of(7) {
            -0.0
        } else {
            f64::from(v[v.len() - 1]) - 20_000.0
        };
        Cell {
            count: v.len() as u64,
            sum: (f64::from(v[0]) - 50_000.0) * 1.25e-3,
            max,
        }
    }

    /// A sketch cell of capacity 8, so that merged cells compact and
    /// the merge order shows in the retained values.
    fn sketch_cell(v: &[u32]) -> SketchCell {
        let mut column: Vec<f64> = v.iter().map(|&x| f64::from(x) * 0.5).collect();
        riskpipe_types::stats::sort_f64(&mut column);
        let mut cell = SketchCell::empty(8);
        cell.absorb_sorted(&column);
        cell
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn grouping_matches_the_btree_oracle_on_plain_cells(
            cells in random_cells(),
            seed in any::<u64>(),
        ) {
            let s = small_schema();
            let base = random_base(&s, &cells, plain_cell);
            check_against_oracle(&s, &base, seed, |c: &Cell| {
                vec![c.count, c.sum.to_bits(), c.max.to_bits()]
            })?;
        }
    }

    proptest! {
        // Sketch merges are the slow part of a case in debug builds.
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn grouping_matches_the_btree_oracle_on_sketch_cells(
            cells in random_cells(),
            seed in any::<u64>(),
        ) {
            let s = small_schema();
            let base = random_base(&s, &cells, sketch_cell);
            check_against_oracle(&s, &base, seed, |c: &SketchCell| {
                let mut out = vec![c.count, c.sum.to_bits(), c.max.to_bits()];
                out.extend(format!("{:?}", c.sketch).bytes().map(u64::from));
                out
            })?;
        }
    }
}
