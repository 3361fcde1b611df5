//! A mergeable streaming quantile sketch for pooled sweep analytics.
//!
//! [`QuantileSketch`] summarises an unbounded loss stream in
//! `O(k · log(n/k))` memory so a scenario sweep can compute pooled
//! AEP/OEP curve points, VaR and TVaR over *all* trials of *all*
//! scenarios without ever retaining a per-scenario YLT. It is the
//! multi-level compactor scheme of KLL/Manku-Rajagopalan sketches with
//! one deliberate twist: compaction is **deterministic** (alternating
//! parity instead of a random coin), so a given push/merge sequence
//! always yields bit-identical state. Combined with
//! `RiskSession::run_stream`'s input-order delivery, pooled sweep
//! analytics are reproducible bit-for-bit on any thread count — the
//! same golden-metrics contract the per-scenario path pins.
//!
//! # Exact and sketched paths
//!
//! Until the first compaction (at most [`QuantileSketch::k`] values,
//! and merges of uncompacted sketches stay uncompacted while they fit)
//! every value is retained, [`QuantileSketch::is_exact`] is true, and
//! [`QuantileSketch::quantile`] / [`QuantileSketch::tail_mean`] are
//! *bit-identical* to
//! [`quantile_sorted`](riskpipe_types::stats::quantile_sorted) /
//! [`tail_mean_sorted`](riskpipe_types::stats::tail_mean_sorted) over
//! the full sample. With the default `k` of 4096 a sweep of, say, 8
//! scenarios × 500 trials never leaves the exact path.
//!
//! # Error bound (sketched path)
//!
//! Each compaction at level `i` (items of weight `2^i`) sorts `2m`
//! items and keeps alternate ones, perturbing the rank of any query by
//! at most `2^i`. The sketch tracks the sum of those worst-case
//! perturbations exactly and reports it — plus the resolution of the
//! coarsest retained weight, since an interpolated estimate can sit
//! anywhere inside one item's weight span — via
//! [`QuantileSketch::rank_error_bound`]: the loss returned for
//! quantile `q` is guaranteed to have true rank within
//! `rank_error_bound() · count()` of `q · (count() - 1)`. The bound is
//! a conservative no-cancellation sum, `O(log(n/k)/k · n)` ranks in
//! the geometric level structure; alternating parity makes consecutive
//! compactions' biases oppose, so observed error is typically several
//! times smaller (the property suite checks both).
//!
//! # Compaction cost
//!
//! Everything that lands in a level is ascending — a `merge_sorted`
//! column, the alternate picks of a sorted buffer, another sketch's
//! level — so a level is a concatenation of a few ascending runs. Each
//! level records where its runs start as values arrive (a [`Runs`]:
//! every append compares only its junction with the level's last
//! value, and a merged level carries the other sketch's offsets
//! across), so compaction *merges* the runs it already knows instead of
//! sorting the buffer or scanning it for them; a level in order, the
//! common case when the cells pooled are bands of one loss column,
//! costs nothing before its picks are taken. Only a `push`-built level,
//! whose runs are single values, falls back to a full sort. Quantile
//! queries merge the levels' runs the same way. The offsets are exactly
//! the descents a scan of the level would find, and the schedule, the
//! parity and the tracked error are untouched: only how the sorted
//! order is obtained differs, and the sorted order of floats is unique
//! to the bit.
//!
//! # Retained counts without the values
//!
//! Which items a compaction promotes depends on the values; how many
//! it promotes does not: the even part of an overfull level is halved
//! into the level above and an odd item stays. So the per-level item
//! counts of a merged sketch follow from its operands' per-level counts
//! alone, folded in merge order on the same schedule
//! ([`SketchShape`]): a view's byte size is known without building it.
//!
//! # Non-finite values
//!
//! Values order by [`f64::total_cmp`] exactly as the batch helpers do:
//! `-inf` below every finite value and `+inf` above, and a NaN by its
//! sign bit — a NaN with the sign bit set before `-inf`, one without it
//! after `+inf`. Where a poisoned stream's NaN lands therefore depends
//! on how it was made: [`f64::NAN`] has the sign bit clear, but on
//! x86-64 the NaN that arithmetic makes (`0.0 / 0.0`, `inf - inf`,
//! `0.0 * inf`) has it set, so it becomes the minimum and the top
//! quantiles, the maximum and the tail means do not show it at all.
//! Check a stream for finiteness before folding it if a NaN must not
//! pass unseen.

use riskpipe_types::KahanSum;

/// A deterministic, mergeable streaming quantile sketch (see the
/// module docs for the scheme and error bounds).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Per-level buffer capacity (compaction threshold).
    k: usize,
    /// Total values folded in (pushes plus merged counts). Weight is
    /// conserved exactly, so this is also the total weight of all
    /// retained items.
    count: u64,
    /// `levels[i]` holds items of weight `2^i`: between compactions a
    /// concatenation of ascending runs, whose starts it tracks.
    levels: Vec<Level>,
    /// Compactions performed so far — drives the parity alternation.
    compactions: u64,
    /// Exact running sum of per-compaction worst-case rank
    /// perturbations (`2^level` each).
    err_ranks: u128,
    /// Exact extrema under `total_cmp` (survive compaction).
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(Self::DEFAULT_K)
    }
}

impl QuantileSketch {
    /// Default per-level capacity: exact up to 4096 pooled losses,
    /// ~32 KiB per level beyond that.
    pub const DEFAULT_K: usize = 4096;

    /// A sketch with per-level capacity `k` (values are exact until
    /// `k` is exceeded).
    ///
    /// # Panics
    /// Panics if `k < 8` or `k` is odd (compaction halves a buffer).
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 8 && k.is_multiple_of(2),
            "sketch capacity must be even and >= 8"
        );
        Self {
            k,
            count: 0,
            levels: vec![Level::default()],
            compactions: 0,
            err_ranks: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The per-level capacity this sketch was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total values folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch still retains every value (no compaction has
    /// happened here or in anything merged in): quantiles are exact.
    pub fn is_exact(&self) -> bool {
        self.compactions == 0 && self.err_ranks == 0
    }

    /// Smallest value folded in (`+inf` when empty). Exact even on the
    /// sketched path.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest value folded in under `total_cmp` (`-inf` when empty;
    /// `NaN` if a NaN without the sign bit was folded in — see the
    /// module docs).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Guaranteed worst-case rank error of [`QuantileSketch::quantile`]
    /// as a fraction of [`QuantileSketch::count`]: 0 on the exact path.
    /// The bound is the tracked sum of per-compaction perturbations
    /// plus the resolution of the coarsest retained weight (an
    /// interpolated estimate can sit anywhere inside one item's weight
    /// span); see the module docs for the analysis.
    pub fn rank_error_bound(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let resolution = self
            .levels
            .iter()
            .enumerate()
            .rev()
            .find(|(_, items)| !items.values.is_empty())
            .map(|(level, _)| (1u128 << level) - 1)
            .unwrap_or(0);
        (self.err_ranks + resolution) as f64 / self.count as f64
    }

    /// Retained items across all levels (the memory footprint is this
    /// many `f64`s plus a fixed header per level: a `Vec` and its run
    /// offsets).
    pub fn retained(&self) -> usize {
        self.levels.iter().map(|level| level.values.len()).sum()
    }

    /// How many items each level holds: what [`SketchShape::merge`]
    /// folds further sketches into without moving a value.
    pub fn shape(&self) -> SketchShape {
        SketchShape {
            k: self.k,
            lens: self.levels.iter().map(|level| level.values.len()).collect(),
        }
    }

    /// Fold one value in.
    pub fn push(&mut self, x: f64) {
        if self.count == 0 || x.total_cmp(&self.min).is_lt() {
            self.min = x;
        }
        if self.count == 0 || x.total_cmp(&self.max).is_gt() {
            self.max = x;
        }
        self.count += 1;
        let level = &mut self.levels[0];
        level.junction(x);
        level.values.push(x);
        self.compact_overfull();
    }

    /// Fold a whole slice in (a report's loss column).
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Fold a whole **pre-sorted** (ascending by [`f64::total_cmp`])
    /// column in as one weighted bulk merge: the column lands in the
    /// level-0 buffer in a single append and compaction runs once at
    /// the end instead of every `k` pushes — one merge of the column
    /// with whatever the level held rather than `n/k` small sorts. One
    /// scan on entry finds the column's runs (a single one for
    /// ascending input), so the level knows them when it compacts.
    ///
    /// While no compaction triggers (the level-0 buffer stays within
    /// `k`), the resulting state is **identical** to pushing the same
    /// values one by one, so the exact path keeps its bit-for-bit
    /// contract. Past `k` the compaction *schedule* differs from the
    /// per-value path (fewer, larger compactions), which yields an
    /// equally valid sketch with an equal-or-smaller tracked error
    /// bound — but not bit-identical state to per-value pushes; pick
    /// one fold style per pooled stream (as riskpipe-core's
    /// `SweepSummary` does) and determinism across thread counts is
    /// preserved.
    ///
    /// Ascending input is the contract. A release build handed a
    /// column out of order still folds it as it stands — its runs and
    /// extrema are found on entry — into the state the same values
    /// appended one by one and compacted on the same schedule would
    /// reach.
    ///
    /// # Panics
    /// Panics (debug only) if `sorted` is not ascending.
    pub fn merge_sorted(&mut self, sorted: &[f64]) {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "merge_sorted input must be ascending by total_cmp"
        );
        let Some((&first, &last)) = sorted.first().zip(sorted.last()) else {
            return;
        };
        let runs = Runs::scan(sorted);
        let (lo, hi) = if runs == Runs::default() {
            (first, last)
        } else {
            sorted.iter().fold((first, last), |(lo, hi), &x| {
                (
                    if x.total_cmp(&lo).is_lt() { x } else { lo },
                    if x.total_cmp(&hi).is_gt() { x } else { hi },
                )
            })
        };
        if self.count == 0 || lo.total_cmp(&self.min).is_lt() {
            self.min = lo;
        }
        if self.count == 0 || hi.total_cmp(&self.max).is_gt() {
            self.max = hi;
        }
        self.count += sorted.len() as u64;
        self.levels[0].append(sorted, runs);
        self.compact_overfull();
    }

    /// Fold another sketch in. Deterministic: the result is a pure
    /// function of the two operand states (so a fixed merge order —
    /// e.g. input order across a sweep's partitions — gives
    /// bit-identical results everywhere). Merging exact sketches whose
    /// union still fits in a level stays exact.
    ///
    /// # Panics
    /// Panics if the capacities differ (sketches must agree on `k` to
    /// share a compaction schedule).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.k, other.k, "cannot merge sketches of different k");
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min.total_cmp(&self.min).is_lt() {
            self.min = other.min;
        }
        if self.count == 0 || other.max.total_cmp(&self.max).is_gt() {
            self.max = other.max;
        }
        while self.levels.len() < other.levels.len() {
            self.levels.push(Level::default());
        }
        for (level, items) in self.levels.iter_mut().zip(&other.levels) {
            level.append(&items.values, items.runs);
        }
        self.count += other.count;
        self.compactions += other.compactions;
        self.err_ranks += other.err_ranks;
        self.compact_overfull();
    }

    /// Compact every level over capacity, cascading upward, on the
    /// schedule [`cascade`] keeps.
    fn compact_overfull(&mut self) {
        let (compactions, err_ranks) = (&mut self.compactions, &mut self.err_ranks);
        cascade(
            &mut self.levels,
            self.k,
            |level| level.values.len(),
            |levels, level| {
                compact(levels, level, (*compactions % 2) as usize);
                *compactions += 1;
                *err_ranks += 1u128 << level;
            },
        );
    }

    /// All retained items with their weights, sorted ascending by
    /// `total_cmp`: the levels laid end to end, then their known runs
    /// merged (a level whose first value does not descend from the
    /// level before it continues that level's last run).
    fn weighted_sorted(&self) -> Vec<(f64, u64)> {
        let mut items: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        let mut runs = Runs::default();
        for (level, Level { values, runs: own }) in self.levels.iter().enumerate() {
            debug_assert_eq!(
                *own,
                Runs::scan(values),
                "level {level}: tracked runs drifted"
            );
            let Some(&first) = values.first() else {
                continue;
            };
            if let Some(&(last, _)) = items.last() {
                runs.junction(items.len(), first, last);
            }
            runs.carry(items.len(), own);
            let w = 1u64 << level;
            items.extend(values.iter().map(|&v| (v, w)));
        }
        merge_runs(&mut items, &runs, |item| item.0);
        debug_assert_eq!(items.iter().map(|&(_, w)| w).sum::<u64>(), self.count);
        items
    }

    /// The value at 0-based rank `rank` of the weight-expanded sorted
    /// multiset.
    fn value_at(items: &[(f64, u64)], rank: u64) -> f64 {
        let mut cum = 0u64;
        for &(v, w) in items {
            cum += w;
            if rank < cum {
                return v;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "both public entry points (`quantile`, `quantiles`) assert \
                      `count > 0` before gathering `items`, and a non-empty sketch \
                      retains at least one item; the documented panic on an empty \
                      sketch is that assert, not this line"
        )]
        items.last().expect("rank query on empty sketch").0
    }

    /// One quantile against an already-gathered sorted item list.
    fn quantile_on(&self, items: &[(f64, u64)], q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
        if self.count == 1 {
            return items[0].0;
        }
        let h = q * (self.count - 1) as f64;
        let lo = h.floor() as u64;
        let hi = h.ceil() as u64;
        let vlo = Self::value_at(items, lo);
        if lo == hi {
            vlo
        } else {
            let w = h - lo as f64;
            let vhi = Self::value_at(items, hi);
            vlo * (1.0 - w) + vhi * w
        }
    }

    /// Linear-interpolated quantile (R type-7), matching
    /// [`quantile_sorted`](riskpipe_types::stats::quantile_sorted) on
    /// the weight-expanded multiset — bit-identical to it on the exact
    /// path.
    ///
    /// # Panics
    /// Panics on an empty sketch or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty sketch");
        self.quantile_on(&self.weighted_sorted(), q)
    }

    /// Many quantiles in one pass: gathers and sorts the retained
    /// items once instead of once per level, bit-identical to calling
    /// [`QuantileSketch::quantile`] per element. Use this for curve
    /// sampling (an EP table asks for ~8 quantiles).
    ///
    /// # Panics
    /// Panics on an empty sketch or any `q` outside `[0, 1]`.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        assert!(self.count > 0, "quantile of empty sketch");
        let items = self.weighted_sorted();
        qs.iter().map(|&q| self.quantile_on(&items, q)).collect()
    }

    /// Mean of the weight-expanded values at or above the `q`-quantile
    /// — the discrete tail-conditional expectation used by TVaR,
    /// matching
    /// [`tail_mean_sorted`](riskpipe_types::stats::tail_mean_sorted)
    /// (bit-identical on the exact path, same Kahan accumulation
    /// order).
    ///
    /// # Panics
    /// Panics on an empty sketch or `q` outside `[0, 1]`.
    pub fn tail_mean(&self, q: f64) -> f64 {
        assert!(self.count > 0, "tail mean of empty sketch");
        assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
        let n = self.count;
        let start = ((q * n as f64).ceil() as u64).min(n - 1);
        let band = self.rank_band_mean(start, n);
        #[expect(
            clippy::expect_used,
            reason = "`count > 0` is asserted above and `start` is clamped to `n - 1`, \
                      so the band `[start, n)` holds at least the final rank and \
                      `rank_band_mean` cannot return `None`"
        )]
        band.expect("tail band [min(ceil(q n), n-1), n) is never empty")
    }

    /// Mean of the weight-expanded values *between* two quantile
    /// levels — the band-conditional expectation behind per-return-
    /// period-band tail metrics (`tail_mean_between(q, 1.0)` equals
    /// [`QuantileSketch::tail_mean`]`(q)` bit for bit, same Kahan
    /// accumulation order, exact on the exact path).
    ///
    /// The band covers 0-based ranks `[min(⌈q_lo·n⌉, n−1), ⌈q_hi·n⌉)`
    /// of the weight-expanded sorted multiset, with `q_hi ≥ 1`
    /// extending through the final rank — the same rank convention as
    /// `tail_mean`, so adjacent bands partition a tail exactly.
    /// Returns `None` when the band resolves to no ranks (e.g. two
    /// levels mapping to the same rank at this `n`).
    ///
    /// # Panics
    /// Panics on an empty sketch, either level outside `[0, 1]` (a
    /// `q_hi` above 1 is clamped, not rejected, so callers can pass
    /// open-ended bands), or `q_lo > q_hi`.
    pub fn tail_mean_between(&self, q_lo: f64, q_hi: f64) -> Option<f64> {
        assert!(self.count > 0, "tail mean of empty sketch");
        assert!(
            (0.0..=1.0).contains(&q_lo),
            "quantile level {q_lo} outside [0,1]"
        );
        assert!(q_lo <= q_hi, "band levels inverted: {q_lo} > {q_hi}");
        let n = self.count;
        let lo = ((q_lo * n as f64).ceil() as u64).min(n - 1);
        let hi = if q_hi >= 1.0 {
            n
        } else {
            ((q_hi * n as f64).ceil() as u64).min(n)
        };
        self.rank_band_mean(lo, hi)
    }

    /// Mean of expanded ranks `[lo, hi)`; `None` when the band is
    /// empty. Expanded entries accumulate ascending one at a time so
    /// the exact path reproduces `tail_mean_sorted`'s bits.
    fn rank_band_mean(&self, lo: u64, hi: u64) -> Option<f64> {
        if lo >= hi {
            return None;
        }
        let items = self.weighted_sorted();
        let mut sum = KahanSum::new();
        let mut band_count = 0u64;
        let mut cum = 0u64;
        for &(v, w) in &items {
            let end = cum + w;
            if end > lo && cum < hi {
                let take = end.min(hi) - lo.max(cum);
                for _ in 0..take {
                    sum.add(v);
                }
                band_count += take;
            }
            cum = end;
        }
        (band_count > 0).then(|| sum.total() / band_count as f64)
    }
}

/// How many items each level of a sketch holds, and nothing else —
/// enough to say how many items a sequence of merges retains without
/// moving a value (see the module docs). Start from
/// [`QuantileSketch::shape`] and [`SketchShape::merge`] the sketches
/// that would be merged, in the same order: [`SketchShape::retained`]
/// is then the merged sketch's [`QuantileSketch::retained`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchShape {
    k: usize,
    /// Items at each level.
    lens: Vec<usize>,
}

impl SketchShape {
    /// Items retained across all levels.
    pub fn retained(&self) -> usize {
        self.lens.iter().sum()
    }

    /// The shape after [`QuantileSketch::merge`] of `other` into the
    /// sketch this shape describes: the levels' counts added, then
    /// compacted on the schedule the sketch itself runs.
    ///
    /// # Panics
    /// Panics if the capacities differ, as the merge does.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.k, other.k, "cannot merge sketches of different k");
        if self.lens.len() < other.levels.len() {
            self.lens.resize(other.levels.len(), 0);
        }
        for (len, level) in self.lens.iter_mut().zip(&other.levels) {
            *len += level.values.len();
        }
        cascade(
            &mut self.lens,
            self.k,
            |&len| len,
            |lens, level| {
                lens[level + 1] += lens[level] / 2;
                lens[level] %= 2;
            },
        );
    }
}

/// The compaction schedule, the one home of it: the sketch runs it on
/// its levels and [`SketchShape`] on their lengths. Levels are visited
/// bottom up, and each holding more than `k` items is compacted by
/// `compact(levels, level)` — which halves its even part into
/// `level + 1` and keeps an odd item — after the level above is opened
/// if `level` is the top one. A level holding exactly `k` items is NOT
/// compacted: that keeps the documented contract that up to (and
/// including) `k` values stay exact.
fn cascade<L: Default>(
    levels: &mut Vec<L>,
    k: usize,
    len: impl Fn(&L) -> usize,
    mut compact: impl FnMut(&mut [L], usize),
) {
    let mut level = 0;
    while level < levels.len() {
        if len(&levels[level]) > k {
            if levels.len() == level + 1 {
                levels.push(L::default());
            }
            compact(levels, level);
        }
        level += 1;
    }
}

/// Sort level `level` by merging its runs and promote alternate items
/// (`start` is the parity, which flips per compaction) to `level + 1`
/// at doubled weight, as one more run there. An odd buffer holds its
/// largest item back so weight is conserved exactly.
fn compact(levels: &mut [Level], level: usize, start: usize) {
    let Level {
        values: mut buf,
        runs,
    } = std::mem::take(&mut levels[level]);
    debug_assert_eq!(
        runs,
        Runs::scan(&buf),
        "level {level}: tracked runs drifted"
    );
    merge_runs(&mut buf, &runs, |&x| x);
    let even_len = buf.len() & !1;
    let promoted = &mut levels[level + 1];
    promoted.junction(buf[start]);
    promoted.values.reserve(even_len / 2);
    let pairs = buf[..even_len].chunks_exact(2);
    promoted.values.extend(pairs.map(|pair| pair[start]));
    if buf.len() > even_len {
        levels[level].values.push(buf[even_len]);
    }
}

/// Most ascending runs [`merge_runs`] merges; a buffer with more is
/// sorted from scratch. Measured (2 vCPU, release, 1 025 / 2 049 /
/// 4 097 items, 400 distinct buffers each) as a fraction of
/// `sort_unstable_by`'s time: runs drawn from one distribution, where
/// every comparison is a coin flip — 0.5 at 2 runs, 0.8 at 4, 1.0 at 7,
/// 1.03–1.11 at 8, 1.4–1.5 at 16; runs whose ranges half-overlap their
/// neighbours' — 0.35 at 2, 0.55 at 8, 0.65 at 16. Eight is three full
/// merge rounds: break-even on the worst input, a win on any more
/// ordered one. riskbench's `rebuild_query` compacts 10 135 levels per
/// rep (seeds 2817, 4404 and 2833 alike): 92 % hold one run, which
/// costs no comparison before the picks now that levels track their
/// runs, 7 % two, 0.8 % three to eight, none more; of the 228 sorted
/// item lists its `var99` / `tvar99` digests gather, 84 % are one run
/// and none is past the cap.
const MAX_MERGE_RUNS: usize = 8;

/// Where a buffer's ascending runs start after the first: the descents,
/// offsets `i` with `buf[i] < buf[i - 1]` under [`f64::total_cmp`], in
/// order. Inline, with no heap allocation: at most
/// `MAX_MERGE_RUNS − 1` offsets, and past that only the mark that there
/// are more (the buffer is then sorted outright).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Runs {
    starts: [u32; MAX_MERGE_RUNS - 1],
    /// Offsets recorded in `starts`, or [`Runs::OVERFLOW`].
    len: u8,
}

impl Runs {
    const OVERFLOW: u8 = u8::MAX;

    /// The descents of `values`, found by one scan.
    fn scan(values: &[f64]) -> Self {
        let mut runs = Self::default();
        for (i, pair) in values.windows(2).enumerate() {
            if pair[1].total_cmp(&pair[0]).is_lt() {
                runs.mark(i + 1);
                if runs.len == Self::OVERFLOW {
                    break;
                }
            }
        }
        runs
    }

    /// The recorded offsets, or `None` past the cap.
    fn starts(&self) -> Option<&[u32]> {
        (self.len != Self::OVERFLOW).then(|| &self.starts[..usize::from(self.len)])
    }

    /// Record a descent at offset `at`, after every one recorded so far.
    fn mark(&mut self, at: usize) {
        let len = usize::from(self.len);
        match u32::try_from(at) {
            Ok(at) if len < self.starts.len() => {
                self.starts[len] = at;
                self.len += 1;
            }
            _ => self.overflow(),
        }
    }

    fn overflow(&mut self) {
        *self = Self {
            starts: [0; MAX_MERGE_RUNS - 1],
            len: Self::OVERFLOW,
        };
    }

    /// A value `first` appended at offset `at` after `last`.
    fn junction(&mut self, at: usize, first: f64, last: f64) {
        if first.total_cmp(&last).is_lt() {
            self.mark(at);
        }
    }

    /// `inner`'s descents, for a buffer appended at offset `at`.
    fn carry(&mut self, at: usize, inner: &Runs) {
        match inner.starts() {
            Some(starts) => starts.iter().for_each(|&s| self.mark(at + s as usize)),
            None => self.overflow(),
        }
    }
}

/// One level of a sketch: its values and where their runs start.
#[derive(Debug, Clone, Default)]
struct Level {
    values: Vec<f64>,
    runs: Runs,
}

impl Level {
    /// Note a descent if `first`, about to be appended, is below the
    /// level's last value.
    fn junction(&mut self, first: f64) {
        if let Some(&last) = self.values.last() {
            self.runs.junction(self.values.len(), first, last);
        }
    }

    /// Append `xs`, whose own descents are `inner`.
    fn append(&mut self, xs: &[f64], inner: Runs) {
        let Some(&first) = xs.first() else {
            return;
        };
        self.junction(first);
        self.runs.carry(self.values.len(), &inner);
        self.values.extend_from_slice(xs);
    }
}

/// Sort `buf` ascending by `key` under [`f64::total_cmp`], given where
/// its ascending runs start: adjacent pairs of runs are merged until one
/// is left, and a buffer of more than [`MAX_MERGE_RUNS`] runs is sorted
/// outright. `total_cmp`-equal floats are bit-equal, so either way
/// leaves the same keys in the same places.
fn merge_runs<T: Copy>(buf: &mut Vec<T>, runs: &Runs, key: impl Fn(&T) -> f64) {
    let Some(starts) = runs.starts() else {
        buf.sort_unstable_by(|a, b| key(a).total_cmp(&key(b)));
        return;
    };
    if starts.is_empty() {
        return;
    }
    // Run `r` is `buf[bounds[r]..bounds[r + 1]]`.
    let mut bounds = [0usize; MAX_MERGE_RUNS + 1];
    for (bound, &start) in bounds[1..].iter_mut().zip(starts) {
        *bound = start as usize;
    }
    let mut runs = starts.len() + 1;
    bounds[runs] = buf.len();
    let mut merged: Vec<T> = Vec::with_capacity(buf.len());
    while runs > 1 {
        merged.clear();
        let mut out_runs = 0;
        for r in (0..runs).step_by(2) {
            let left = &buf[bounds[r]..bounds[r + 1]];
            // An odd run out has no right-hand neighbour this round.
            let right: &[T] = if r + 1 < runs {
                &buf[bounds[r + 1]..bounds[r + 2]]
            } else {
                &[]
            };
            let (mut i, mut j) = (0, 0);
            while i < left.len() && j < right.len() {
                if key(&right[j]).total_cmp(&key(&left[i])).is_lt() {
                    merged.push(right[j]);
                    j += 1;
                } else {
                    merged.push(left[i]);
                    i += 1;
                }
            }
            merged.extend_from_slice(&left[i..]);
            merged.extend_from_slice(&right[j..]);
            // Overwrites a bound at or below `r + 1`; later pairs read
            // from `r + 2` up.
            out_runs += 1;
            bounds[out_runs] = merged.len();
        }
        std::mem::swap(buf, &mut merged);
        runs = out_runs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::stats::{quantile_sorted, sort_f64, tail_mean_sorted};

    fn exact_reference(xs: &[f64]) -> Vec<f64> {
        let mut sorted = xs.to_vec();
        sort_f64(&mut sorted);
        sorted
    }

    #[test]
    fn exact_path_matches_sorted_helpers_bitwise() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 1009) as f64 * 0.37)
            .collect();
        let mut sk = QuantileSketch::new(2048);
        sk.extend(&xs);
        assert!(sk.is_exact());
        assert_eq!(sk.count(), 1000);
        assert_eq!(sk.rank_error_bound(), 0.0);
        let sorted = exact_reference(&xs);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.997, 1.0] {
            assert_eq!(
                sk.quantile(q).to_bits(),
                quantile_sorted(&sorted, q).to_bits()
            );
            assert_eq!(
                sk.tail_mean(q).to_bits(),
                tail_mean_sorted(&sorted, q).to_bits()
            );
        }
        assert_eq!(sk.min(), sorted[0]);
        assert_eq!(sk.max(), sorted[sorted.len() - 1]);
    }

    #[test]
    fn sketched_path_stays_within_reported_bound() {
        let n = 60_000usize;
        let xs: Vec<f64> = (0..n)
            .map(|i| (((i * 104729) % 99991) as f64).powf(1.4))
            .collect();
        let mut sk = QuantileSketch::new(256);
        sk.extend(&xs);
        assert!(!sk.is_exact());
        assert!(sk.retained() < 8 * 256, "retained {} items", sk.retained());
        let sorted = exact_reference(&xs);
        let bound_ranks = sk.rank_error_bound() * n as f64;
        assert!(bound_ranks > 0.0);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = sk.quantile(q);
            // True rank of the estimate vs the requested rank.
            let rank = sorted.partition_point(|&v| v < est) as f64;
            let want = q * (n - 1) as f64;
            assert!(
                (rank - want).abs() <= bound_ranks + 1.0,
                "q={q}: rank {rank} vs {want} (bound {bound_ranks})"
            );
            // Empirically the alternating parity does far better than
            // the no-cancellation bound; pin a 2%-of-n tripwire.
            assert!(
                (rank - want).abs() <= 0.02 * n as f64,
                "q={q}: rank {rank} vs {want}"
            );
        }
    }

    #[test]
    fn merge_is_deterministic_and_conserves_weight() {
        let xs: Vec<f64> = (0..5000).map(|i| ((i * 31) % 977) as f64).collect();
        let build = |chunk: usize| {
            let mut whole = QuantileSketch::new(64);
            for part in xs.chunks(chunk) {
                let mut sk = QuantileSketch::new(64);
                sk.extend(part);
                whole.merge(&sk);
            }
            whole
        };
        let a = build(97);
        let b = build(97);
        assert_eq!(a.count(), xs.len() as u64);
        // Same chunking: bit-identical state.
        for q in [0.0, 0.3, 0.77, 1.0] {
            assert_eq!(a.quantile(q).to_bits(), b.quantile(q).to_bits());
        }
        // Different chunking: same count/extrema, quantiles within the
        // summed bounds of both.
        let c = build(333);
        assert_eq!(c.count(), a.count());
        assert_eq!(c.min(), a.min());
        assert_eq!(c.max(), a.max());
        let sorted = exact_reference(&xs);
        for sk in [&a, &c] {
            let bound = sk.rank_error_bound() * xs.len() as f64 + 1.0;
            for q in [0.25, 0.5, 0.9] {
                let rank = sorted.partition_point(|&v| v < sk.quantile(q)) as f64;
                assert!((rank - q * (xs.len() - 1) as f64).abs() <= bound);
            }
        }
    }

    #[test]
    fn merging_exact_sketches_stays_exact_regardless_of_split() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 13) % 271) as f64 - 35.0).collect();
        let sorted = exact_reference(&xs);
        for chunk in [1, 7, 100, 500] {
            let mut whole = QuantileSketch::new(1024);
            for part in xs.chunks(chunk) {
                let mut sk = QuantileSketch::new(1024);
                sk.extend(part);
                whole.merge(&sk);
            }
            assert!(whole.is_exact(), "chunk={chunk}");
            for q in [0.0, 0.5, 0.95, 1.0] {
                assert_eq!(
                    whole.quantile(q).to_bits(),
                    quantile_sorted(&sorted, q).to_bits(),
                    "chunk={chunk} q={q}"
                );
            }
        }
    }

    #[test]
    fn merge_sorted_matches_pushes_on_exact_path() {
        // Below the compaction threshold the bulk fold must be
        // bit-identical in *state* to per-value pushes: same retained
        // buffer, same count, same extrema.
        let mut xs: Vec<f64> = (0..700).map(|i| ((i * 37) % 211) as f64 * 0.5).collect();
        sort_f64(&mut xs);
        let mut pushed = QuantileSketch::new(1024);
        pushed.extend(&xs);
        let mut folded = QuantileSketch::new(1024);
        folded.merge_sorted(&xs);
        assert!(folded.is_exact());
        assert_eq!(folded.count(), pushed.count());
        assert_eq!(folded.min(), pushed.min());
        assert_eq!(folded.max(), pushed.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(folded.quantile(q).to_bits(), pushed.quantile(q).to_bits());
            assert_eq!(folded.tail_mean(q).to_bits(), pushed.tail_mean(q).to_bits());
        }
    }

    #[test]
    fn merge_sorted_past_k_stays_within_bound_with_fewer_compactions() {
        let n = 50_000usize;
        let mut xs: Vec<f64> = (0..n)
            .map(|i| (((i * 104729) % 99991) as f64).powf(1.2))
            .collect();
        sort_f64(&mut xs);
        let mut pushed = QuantileSketch::new(256);
        pushed.extend(&xs);
        let mut folded = QuantileSketch::new(256);
        // Fold in report-sized sorted chunks, the sweep-sink shape.
        for part in xs.chunks(10_000) {
            folded.merge_sorted(part);
        }
        assert_eq!(folded.count(), n as u64);
        assert!(!folded.is_exact());
        // The bulk fold compacts less often, so its tracked bound must
        // not be worse than the per-value path's.
        assert!(folded.rank_error_bound() <= pushed.rank_error_bound());
        let bound_ranks = folded.rank_error_bound() * n as f64 + 1.0;
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = folded.quantile(q);
            let rank = xs.partition_point(|&v| v < est) as f64;
            assert!(
                (rank - q * (n - 1) as f64).abs() <= bound_ranks,
                "q={q}: rank {rank}"
            );
        }
    }

    #[test]
    fn merge_sorted_empty_and_nonfinite_edges() {
        let mut sk = QuantileSketch::new(8);
        sk.merge_sorted(&[]);
        assert_eq!(sk.count(), 0);
        let mut poisoned = vec![f64::NEG_INFINITY, 1.0, 2.0, f64::NAN];
        sort_f64(&mut poisoned);
        sk.merge_sorted(&poisoned);
        assert_eq!(sk.min(), f64::NEG_INFINITY);
        assert!(sk.max().is_nan());
    }

    #[test]
    fn tail_mean_between_matches_exact_band_mean_bitwise() {
        use riskpipe_types::KahanSum;
        let xs: Vec<f64> = (0..900)
            .map(|i| ((i * 7919) % 1009) as f64 * 0.37)
            .collect();
        let mut sk = QuantileSketch::new(1024);
        sk.extend(&xs);
        assert!(sk.is_exact());
        let sorted = exact_reference(&xs);
        let n = sorted.len() as f64;
        for (q_lo, q_hi) in [(0.0, 0.5), (0.5, 0.9), (0.9, 0.99), (0.99, 1.0)] {
            // Reference: the same rank convention over the sorted
            // sample, Kahan-accumulated ascending.
            let lo = ((q_lo * n).ceil() as usize).min(sorted.len() - 1);
            let hi = if q_hi >= 1.0 {
                sorted.len()
            } else {
                ((q_hi * n).ceil() as usize).min(sorted.len())
            };
            let band = &sorted[lo..hi];
            let k: KahanSum = band.iter().copied().collect();
            let want = k.total() / band.len() as f64;
            assert_eq!(
                sk.tail_mean_between(q_lo, q_hi).unwrap().to_bits(),
                want.to_bits(),
                "band [{q_lo}, {q_hi})"
            );
        }
        // The open-ended band is tail_mean, bit for bit.
        for q in [0.0, 0.5, 0.95, 0.99] {
            assert_eq!(
                sk.tail_mean_between(q, 1.0).unwrap().to_bits(),
                sk.tail_mean(q).to_bits()
            );
        }
    }

    #[test]
    fn tail_mean_between_partitions_the_tail() {
        // Adjacent bands cover disjoint ranks: their count-weighted
        // means recombine to the whole tail mean.
        let xs: Vec<f64> = (0..500).map(|i| ((i * 31) % 977) as f64).collect();
        let mut sk = QuantileSketch::new(1024);
        sk.extend(&xs);
        let n = xs.len() as f64;
        let (a, b, c) = (0.9, 0.96, 1.0);
        let ranks = |q_lo: f64, q_hi: f64| {
            let lo = ((q_lo * n).ceil() as u64).min(xs.len() as u64 - 1);
            let hi = if q_hi >= 1.0 {
                xs.len() as u64
            } else {
                ((q_hi * n).ceil() as u64).min(xs.len() as u64)
            };
            (hi - lo) as f64
        };
        let (w1, w2) = (ranks(a, b), ranks(b, c));
        let recombined = (sk.tail_mean_between(a, b).unwrap() * w1
            + sk.tail_mean_between(b, c).unwrap() * w2)
            / (w1 + w2);
        assert!((recombined - sk.tail_mean(a)).abs() < 1e-9 * recombined.abs().max(1.0));
    }

    #[test]
    fn tail_mean_between_empty_band_is_none() {
        let mut sk = QuantileSketch::new(8);
        sk.extend(&[1.0, 2.0, 3.0, 4.0]);
        // Both levels land on the same rank at n = 4.
        assert_eq!(sk.tail_mean_between(0.5, 0.5), None);
        // Degenerate zero-width band below the clamp row.
        assert_eq!(sk.tail_mean_between(0.1, 0.1), None);
        // A non-empty sliver still answers.
        assert!(sk.tail_mean_between(0.5, 0.75).is_some());
    }

    #[test]
    #[should_panic]
    fn tail_mean_between_inverted_band_panics() {
        let mut sk = QuantileSketch::new(8);
        sk.push(1.0);
        sk.tail_mean_between(0.9, 0.1);
    }

    #[test]
    fn non_finite_values_order_like_total_cmp() {
        let mut sk = QuantileSketch::new(16);
        sk.extend(&[1.0, f64::NAN, 3.0, f64::NEG_INFINITY, 2.0]);
        assert_eq!(sk.min(), f64::NEG_INFINITY);
        assert!(sk.max().is_nan());
        assert!(sk.quantile(1.0).is_nan());
        assert_eq!(sk.quantile(0.0), f64::NEG_INFINITY);
        assert!(sk.tail_mean(0.9).is_nan());
    }

    #[test]
    fn an_arithmetic_nan_lands_by_its_sign_bit() {
        let nan = std::hint::black_box(0.0f64) / std::hint::black_box(0.0);
        // x86-64 arithmetic makes a NaN with the sign bit set.
        #[cfg(target_arch = "x86_64")]
        assert!(nan.is_sign_negative());
        let mut sk = QuantileSketch::new(16);
        sk.extend(&[1.0, nan, 3.0, f64::NEG_INFINITY, 2.0]);
        if nan.is_sign_negative() {
            // Below -inf: the minimum, and invisible at the top.
            assert!(sk.min().is_nan());
            assert_eq!(sk.quantile(0.25), f64::NEG_INFINITY);
            assert_eq!(sk.max(), 3.0);
            assert_eq!(sk.quantile(1.0), 3.0);
            assert_eq!(sk.tail_mean(0.9), 3.0);
        } else {
            assert_eq!(sk.min(), f64::NEG_INFINITY);
            assert!(sk.max().is_nan());
            assert!(sk.quantile(1.0).is_nan());
        }
    }

    // -----------------------------------------------------------------
    // Shapes: retained counts folded from per-level lengths alone.
    // -----------------------------------------------------------------

    /// Random pools of sketches driven by pushes, sorted columns (empty
    /// ones included) and merges; before every merge the fold of the
    /// operands' shapes predicts the merged shape, and every few steps a
    /// run of the pool is folded in order against merging it for real.
    fn shape_fold_predicts_merges(seed: u64, steps: usize) {
        for k in [8usize, 10, 1024] {
            let mut rng = Lcg(seed ^ k as u64);
            let mut pool: Vec<QuantileSketch> = (0..5).map(|_| QuantileSketch::new(k)).collect();
            let mut deepest = 0;
            for step in 0..steps {
                let i = rng.below(pool.len());
                match rng.below(5) {
                    0 => {
                        for _ in 0..rng.below(3 * k.min(64)) {
                            pool[i].push(rng.value());
                        }
                    }
                    1 | 2 => {
                        let len = match rng.below(4) {
                            0 => 0,
                            1 => rng.below(4 * k),
                            _ => rng.below(k + 2),
                        };
                        let column = rng.sorted_column(len);
                        pool[i].merge_sorted(&column);
                    }
                    _ => {
                        let other = pool[rng.below(pool.len())].clone();
                        let mut predicted = pool[i].shape();
                        predicted.merge(&other);
                        pool[i].merge(&other);
                        let what = format!("k={k} step {step}");
                        assert_eq!(pool[i].shape(), predicted, "{what}");
                        assert_eq!(predicted.retained(), pool[i].retained(), "{what}");
                    }
                }
                if step % 7 == 0 {
                    // Fold a run of the pool, first to last, as a
                    // rollup pools a run of cells.
                    let from = rng.below(pool.len());
                    let run = &pool[from..(from + 1 + rng.below(pool.len() - from))];
                    let mut merged = run[0].clone();
                    let mut shape = run[0].shape();
                    for sketch in &run[1..] {
                        merged.merge(sketch);
                        shape.merge(sketch);
                    }
                    assert_eq!(shape.retained(), merged.retained(), "k={k} step {step}");
                    assert_eq!(merged.shape(), shape, "k={k} step {step}");
                }
                deepest = deepest.max(pool.iter().map(|sk| sk.levels.len()).max().unwrap_or(0));
            }
            // The sequences cascaded through several levels.
            assert!(deepest >= 3, "k={k}: {deepest} levels");
        }
    }

    #[test]
    fn shape_fold_equals_the_retained_count_after_merges() {
        shape_fold_predicts_merges(0x5A9E, 300);
    }

    /// The same property over sixteen times the steps and its own seed:
    /// `cargo test --release -p riskpipe-metrics shape_fold -- --ignored`.
    #[test]
    #[ignore = "nightly: sixteen times the steps; run with --ignored"]
    fn shape_fold_equals_the_retained_count_after_merges_nightly() {
        shape_fold_predicts_merges(0x5A9E_2417, 16 * 300);
    }

    #[test]
    fn exact_at_exactly_k_compacts_at_k_plus_one() {
        // Boundary regression: a pooled sample of exactly k values must
        // stay on the exact path (the docs promise "up to k").
        let mut sk = QuantileSketch::new(8);
        for i in 0..8 {
            sk.push(i as f64);
        }
        assert!(sk.is_exact());
        assert_eq!(sk.quantile(0.5), 3.5);
        sk.push(8.0);
        assert!(!sk.is_exact());
        assert_eq!(sk.count(), 9);
    }

    #[test]
    fn single_value_and_empty_edges() {
        let mut sk = QuantileSketch::new(8);
        sk.push(42.0);
        assert_eq!(sk.quantile(0.0), 42.0);
        assert_eq!(sk.quantile(1.0), 42.0);
        assert_eq!(sk.tail_mean(0.5), 42.0);
        let empty = QuantileSketch::default();
        assert_eq!(empty.count(), 0);
        assert!(empty.is_exact());
    }

    // -----------------------------------------------------------------
    // Oracle: compaction by run-merge against compaction by full sort.
    // -----------------------------------------------------------------

    /// What merging known runs replaced, kept as the reference.
    fn reference_sort<T: Copy>(buf: &mut [T], key: impl Fn(&T) -> f64) {
        buf.sort_unstable_by(|a, b| key(a).total_cmp(&key(b)));
    }

    /// The sketch as it was before compaction merged runs: the same
    /// schedule and parity, every overfull level sorted from scratch,
    /// nothing tracked.
    #[derive(Clone)]
    struct RefSketch {
        k: usize,
        count: u64,
        levels: Vec<Vec<f64>>,
        compactions: u64,
        err_ranks: u128,
        min: f64,
        max: f64,
    }

    impl RefSketch {
        fn new(k: usize) -> Self {
            Self {
                k,
                count: 0,
                levels: vec![Vec::new()],
                compactions: 0,
                err_ranks: 0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }
        }

        /// Stretch the extrema over `[lo, hi]` (before `count` grows).
        fn widen(&mut self, lo: f64, hi: f64) {
            if self.count == 0 || lo.total_cmp(&self.min).is_lt() {
                self.min = lo;
            }
            if self.count == 0 || hi.total_cmp(&self.max).is_gt() {
                self.max = hi;
            }
        }

        /// `push` (one value) and `merge_sorted` (a sorted column).
        fn fold(&mut self, xs: &[f64]) {
            for &x in xs {
                self.widen(x, x);
                self.count += 1;
            }
            self.levels[0].extend_from_slice(xs);
            self.compact_overfull();
        }

        fn merge(&mut self, other: &RefSketch) {
            if other.count == 0 {
                return;
            }
            self.widen(other.min, other.max);
            self.count += other.count;
            while self.levels.len() < other.levels.len() {
                self.levels.push(Vec::new());
            }
            for (level, items) in other.levels.iter().enumerate() {
                self.levels[level].extend_from_slice(items);
            }
            self.compactions += other.compactions;
            self.err_ranks += other.err_ranks;
            self.compact_overfull();
        }

        fn compact_overfull(&mut self) {
            let mut level = 0;
            while level < self.levels.len() {
                if self.levels[level].len() > self.k {
                    if self.levels.len() == level + 1 {
                        self.levels.push(Vec::new());
                    }
                    let mut buf = std::mem::take(&mut self.levels[level]);
                    reference_sort(&mut buf, |&x| x);
                    let even_len = buf.len() & !1;
                    for i in ((self.compactions % 2) as usize..even_len).step_by(2) {
                        self.levels[level + 1].push(buf[i]);
                    }
                    if buf.len() > even_len {
                        self.levels[level].push(buf[even_len]);
                    }
                    self.compactions += 1;
                    self.err_ranks += 1u128 << level;
                }
                level += 1;
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_state(sk: &QuantileSketch, reference: &RefSketch, what: &str) {
        assert_eq!(sk.count, reference.count, "{what}: count");
        assert_eq!(sk.compactions, reference.compactions, "{what}: compactions");
        assert_eq!(sk.err_ranks, reference.err_ranks, "{what}: err_ranks");
        assert_eq!(sk.min.to_bits(), reference.min.to_bits(), "{what}: min");
        assert_eq!(sk.max.to_bits(), reference.max.to_bits(), "{what}: max");
        assert_eq!(sk.levels.len(), reference.levels.len(), "{what}: levels");
        for (level, (a, b)) in sk.levels.iter().zip(&reference.levels).enumerate() {
            assert_eq!(bits(&a.values), bits(b), "{what}: level {level}");
            let scanned = Runs::scan(&a.values);
            assert_eq!(a.runs, scanned, "{what}: level {level}'s tracked runs");
        }
    }

    /// A small deterministic generator (the crate has no proptest).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: usize) -> usize {
            self.next() as usize % n
        }

        /// A loss: usually from a range narrow enough to tie often,
        /// sometimes one of the values orderings get wrong.
        fn value(&mut self) -> f64 {
            const AWKWARD: [f64; 8] = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                f64::MAX,
                f64::MIN_POSITIVE,
                -1.5,
            ];
            match self.below(8) {
                0 => AWKWARD[self.below(AWKWARD.len())],
                1 => -f64::NAN,
                _ => self.below(40) as f64 * 0.25,
            }
        }

        fn sorted_column(&mut self, len: usize) -> Vec<f64> {
            let mut xs: Vec<f64> = (0..len).map(|_| self.value()).collect();
            sort_f64(&mut xs);
            xs
        }
    }

    fn assert_sorts_like_reference(buf: &[f64], what: &str) {
        let runs = Runs::scan(buf);
        let (mut merged, mut sorted) = (buf.to_vec(), buf.to_vec());
        merge_runs(&mut merged, &runs, |&x| x);
        reference_sort(&mut sorted, |&x| x);
        assert_eq!(bits(&merged), bits(&sorted), "{what}: {buf:?}");

        // Weighted items, as `weighted_sorted` sorts them: ties may
        // order their weights either way, so compare the keys in place
        // and the items as a multiset.
        let weigh = |xs: &[f64]| -> Vec<(f64, u64)> {
            let weighted = xs.iter().enumerate();
            weighted.map(|(i, &x)| (x, 1u64 << (i % 5))).collect()
        };
        let (mut merged, mut sorted) = (weigh(buf), weigh(buf));
        merge_runs(&mut merged, &runs, |item| item.0);
        reference_sort(&mut sorted, |item| item.0);
        let keys = |items: &[(f64, u64)]| -> Vec<u64> {
            items.iter().map(|item| item.0.to_bits()).collect()
        };
        assert_eq!(keys(&merged), keys(&sorted), "{what}: weighted keys");
        let multiset = |items: &[(f64, u64)]| {
            let mut all: Vec<(u64, u64)> = items.iter().map(|&(x, w)| (x.to_bits(), w)).collect();
            all.sort_unstable();
            all
        };
        assert_eq!(
            multiset(&merged),
            multiset(&sorted),
            "{what}: weighted items"
        );
    }

    #[test]
    fn run_merge_leaves_the_buffer_a_full_sort_would() {
        // Hand-picked shapes.
        let descending: Vec<f64> = (0..41).rev().map(f64::from).collect();
        let plateau = [vec![2.0; 30], vec![1.0; 31], vec![2.0; 7]].concat();
        let zeros = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, f64::NAN, -0.0];
        let nans = [
            f64::NAN,
            1.0,
            -f64::NAN,
            f64::INFINITY,
            f64::NAN,
            f64::NEG_INFINITY,
        ];
        // The level-0 shape: one held-back largest item, then a column.
        let held_back = [vec![9.0], (0..20).map(f64::from).collect()].concat();
        for (what, buf) in [
            ("empty", &[][..]),
            ("single", &[1.0][..]),
            ("descending", &descending),
            ("plateau", &plateau),
            ("signed zeros", &zeros),
            ("nans", &nans),
            ("held back", &held_back),
        ] {
            assert_sorts_like_reference(buf, what);
        }

        // Generated: run counts either side of the fall-back bound, odd
        // and even lengths, empty and one-item runs among long ones.
        let mut rng = Lcg(0x5EED);
        for case in 0..600 {
            let runs = 1 + rng.below(2 * MAX_MERGE_RUNS + 2);
            let mut buf = Vec::new();
            for _ in 0..runs {
                let len = match rng.below(4) {
                    0 => rng.below(2),
                    _ => rng.below(60),
                };
                buf.extend(rng.sorted_column(len));
            }
            assert_sorts_like_reference(&buf, &format!("case {case}, {runs} runs"));
        }
        // Exactly at, and one past, the bound.
        for runs in [MAX_MERGE_RUNS, MAX_MERGE_RUNS + 1] {
            let buf: Vec<f64> = (0..runs)
                .flat_map(|r| (0..5).map(move |i| (i * 3 + r) as f64))
                .collect();
            assert_sorts_like_reference(&buf, &format!("{runs} interleaved runs"));
        }
    }

    #[test]
    fn sketch_state_equals_the_sort_compacting_reference() {
        for (seed, k) in [(1u64, 8usize), (2, 8), (3, 16), (4, 16), (5, 64), (6, 256)] {
            let mut rng = Lcg(seed);
            let mut pool: Vec<(QuantileSketch, RefSketch)> = (0..4)
                .map(|_| (QuantileSketch::new(k), RefSketch::new(k)))
                .collect();
            for step in 0..400 {
                let i = rng.below(pool.len());
                let what = match rng.below(4) {
                    0 => {
                        // A burst of pushes: one-item runs, many of them.
                        for _ in 0..rng.below(3 * k) {
                            let x = rng.value();
                            pool[i].0.push(x);
                            pool[i].1.fold(&[x]);
                        }
                        "push"
                    }
                    1 | 2 => {
                        let len = rng.below(4 * k);
                        let column = rng.sorted_column(len);
                        pool[i].0.merge_sorted(&column);
                        pool[i].1.fold(&column);
                        "merge_sorted"
                    }
                    _ => {
                        let other = pool[(i + 1 + rng.below(pool.len() - 1)) % pool.len()].clone();
                        pool[i].0.merge(&other.0);
                        pool[i].1.merge(&other.1);
                        "merge"
                    }
                };
                let (sk, reference) = &pool[i];
                assert_same_state(sk, reference, &format!("seed {seed} step {step} ({what})"));
                let retained: Vec<f64> = sk.levels.iter().flat_map(|l| l.values.clone()).collect();
                assert_sorts_like_reference(&retained, "retained items");
            }
            // The sequences went somewhere: several levels deep.
            assert!(pool.iter().any(|(sk, _)| sk.levels.len() >= 4), "k={k}");
        }
    }

    /// A sketch and its reference, driven in lockstep and compared
    /// after every operation.
    #[derive(Clone)]
    struct Twin(QuantileSketch, RefSketch);

    impl Twin {
        fn new(k: usize) -> Self {
            Self(QuantileSketch::new(k), RefSketch::new(k))
        }

        fn push(&mut self, x: f64, what: &str) {
            self.0.push(x);
            self.1.fold(&[x]);
            assert_same_state(&self.0, &self.1, what);
        }

        fn merge_sorted(&mut self, column: &[f64], what: &str) {
            self.0.merge_sorted(column);
            self.1.fold(column);
            assert_same_state(&self.0, &self.1, what);
        }

        fn merge(&mut self, other: &Twin, what: &str) {
            self.0.merge(&other.0);
            self.1.merge(&other.1);
            assert_same_state(&self.0, &self.1, what);
        }
    }

    /// `runs` ascending columns, each starting below where the one
    /// before it ended (so every seam between them is a descent) and
    /// overlapping it, `len` values in all.
    fn descending_columns(runs: usize, len: usize) -> Vec<Vec<f64>> {
        (0..runs)
            .map(|r| {
                let n = len / runs + usize::from(r < len % runs);
                let base = (runs - r) as f64;
                (0..n).map(|j| base + j as f64 * 0.75).collect()
            })
            .collect()
    }

    #[test]
    fn merged_levels_of_1_7_8_and_9_plus_runs_compact_like_the_reference() {
        for k in [8usize, 16, 64] {
            for runs in [1, 2, 7, 8, 9, 12, 2 * k] {
                for warm in [false, true] {
                    let what = format!("k={k} runs={runs} warm={warm}");
                    let (mut left, mut right) = (Twin::new(k), Twin::new(k));
                    if warm {
                        // Compacted levels above, so the merge carries
                        // runs there too.
                        let column: Vec<f64> = (0..3 * k + 1).map(|i| i as f64 * 0.5).collect();
                        left.merge_sorted(&column, &what);
                        right.merge_sorted(&column[k..], &what);
                    }
                    // Split the runs across the two sides at the middle
                    // value, most often inside a run: the seam the
                    // merge meets is then no descent.
                    let len = (k + 1).max(runs).min(2 * k);
                    let mut seen = 0;
                    for column in descending_columns(runs, len) {
                        let cut = (len / 2).saturating_sub(seen).min(column.len());
                        left.merge_sorted(&column[..cut], &what);
                        right.merge_sorted(&column[cut..], &what);
                        seen += column.len();
                    }
                    if !warm {
                        let level0 = [&left, &right].map(|twin| twin.0.levels[0].values.clone());
                        let descents = Runs::scan(&level0.concat()).starts().map(<[u32]>::len);
                        let want = (runs <= MAX_MERGE_RUNS).then_some(runs - 1);
                        assert_eq!(descents, want, "{what}: runs the merge meets");
                    }
                    left.merge(&right, &what);
                    assert!(left.0.compactions > 0, "{what}: nothing compacted");
                }
            }
        }
    }

    #[test]
    fn push_built_descending_streams_compact_like_the_reference() {
        for k in [8usize, 16, 64] {
            let mut twin = Twin::new(k);
            for i in (0..6 * k).rev() {
                twin.push(i as f64, &format!("k={k} push {i}"));
            }
            // Several overflowing level-0 compactions, each promoting a
            // run that sits below the last.
            assert!(twin.0.levels.len() >= 3, "k={k}");
            let mut other = Twin::new(k);
            for i in (0..2 * k).rev() {
                other.push(i as f64 * 3.0, &format!("k={k} other push {i}"));
            }
            twin.merge(&other, &format!("k={k} merge of descending streams"));
        }
    }

    #[test]
    fn awkward_junctions_are_descents_exactly_under_total_cmp() {
        let nan = f64::NAN;
        let (inf, neg_inf) = (f64::INFINITY, f64::NEG_INFINITY);
        // (last value before the seam, first value after it).
        let seams = [
            (2.0, 2.0),
            (0.0, -0.0),
            (-0.0, 0.0),
            (0.0, 0.0),
            (nan, 1.0),
            (nan, nan),
            (1.0, nan),
            (1.0, -nan),
            (-nan, -nan),
            (inf, neg_inf),
            (inf, inf),
            (neg_inf, inf),
            (inf, nan),
            (nan, inf),
        ];
        for k in [8usize, 16, 64] {
            let mut rng = Lcg(k as u64 + 0xA11);
            for (s, &(last, first)) in seams.iter().enumerate() {
                let what = format!("k={k} seam {s} ({last:?} then {first:?})");
                // Columns ending in `last` and starting at `first`, long
                // enough together to compact.
                let side = k / 2 + 1;
                let column = |rng: &mut Lcg, keep: &dyn Fn(f64) -> bool| {
                    let mut xs: Vec<f64> = Vec::new();
                    while xs.len() < side - 1 {
                        let x = rng.value();
                        if keep(x) {
                            xs.push(x);
                        }
                    }
                    sort_f64(&mut xs);
                    xs
                };
                let below = column(&mut rng, &|x: f64| x.total_cmp(&last).is_le());
                let above = column(&mut rng, &|x: f64| x.total_cmp(&first).is_ge());
                let before = [below, vec![last]].concat();
                let after = [vec![first], above].concat();

                // The seam met by a merge of two levels …
                let (mut left, mut right) = (Twin::new(k), Twin::new(k));
                left.merge_sorted(&before, &what);
                right.merge_sorted(&after, &what);
                left.merge(&right, &what);
                // … by a column folded onto a level …
                let mut folded = Twin::new(k);
                folded.merge_sorted(&before, &what);
                folded.merge_sorted(&after, &what);
                // … and by single pushes.
                let mut pushed = Twin::new(k);
                for &x in before.iter().chain(&after) {
                    pushed.push(x, &what);
                }
                for twin in [&left, &folded, &pushed] {
                    assert!(twin.0.compactions > 0, "{what}: nothing compacted");
                }
            }
        }
    }

    #[test]
    fn empty_and_single_value_columns_keep_the_runs() {
        for k in [8usize, 16, 64] {
            let mut rng = Lcg(k as u64 + 0xE5);
            let mut twin = Twin::new(k);
            for step in 0..40 * k {
                let what = format!("k={k} step {step}");
                match rng.below(3) {
                    0 => twin.merge_sorted(&[], &what),
                    1 => twin.merge_sorted(&[rng.value()], &what),
                    _ => {
                        let len = rng.below(4);
                        let column = rng.sorted_column(len);
                        twin.merge_sorted(&column, &what);
                    }
                }
            }
            assert!(twin.0.levels.len() >= 3, "k={k}");
        }
    }

    #[test]
    fn merging_a_clone_into_itself_compacts_like_the_reference() {
        for k in [8usize, 16, 64] {
            let mut rng = Lcg(k as u64 + 0xC10);
            let mut twin = Twin::new(k);
            for step in 0..12 {
                let what = format!("k={k} step {step}");
                let len = rng.below(k);
                let column = rng.sorted_column(len);
                twin.merge_sorted(&column, &what);
                twin.push(rng.value(), &what);
                let copy = twin.clone();
                twin.merge(&copy, &format!("{what}: merged into itself"));
            }
            assert!(twin.0.levels.len() >= 4, "k={k}");
        }
    }

    /// `merge_sorted`'s contract is ascending input, asserted in debug
    /// builds. A release build given a column out of order still folds
    /// it as it stands: the state is the reference's, which appends the
    /// values in the order given and sorts every compaction outright.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_merge_sorted_of_an_unsorted_column_reaches_the_reference_state() {
        for k in [8usize, 16, 64] {
            let mut rng = Lcg(k as u64 + 0x0DD);
            let mut twin = Twin::new(k);
            for step in 0..200 {
                let column: Vec<f64> = (0..rng.below(3 * k)).map(|_| rng.value()).collect();
                twin.merge_sorted(&column, &format!("k={k} step {step}"));
            }
            assert!(twin.0.levels.len() >= 3, "k={k}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_quantile_panics() {
        QuantileSketch::default().quantile(0.5);
    }

    #[test]
    #[should_panic]
    fn mismatched_k_merge_panics() {
        let mut a = QuantileSketch::new(8);
        a.merge(&QuantileSketch::new(16));
    }

    #[test]
    #[should_panic]
    fn odd_capacity_rejected() {
        QuantileSketch::new(9);
    }
}
