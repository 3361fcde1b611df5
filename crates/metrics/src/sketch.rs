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
//! Non-finite values order by [`f64::total_cmp`] exactly as the batch
//! helpers do: `-inf` first, `NaN` last — so a poisoned stream
//! surfaces as `NaN`/`inf` top quantiles rather than silently vanishing.

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
    /// `levels[i]` holds items of weight `2^i`, unsorted between
    /// compactions.
    levels: Vec<Vec<f64>>,
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
            levels: vec![Vec::new()],
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
    /// `NaN` if any `NaN` was folded in).
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
            .find(|(_, items)| !items.is_empty())
            .map(|(level, _)| (1u128 << level) - 1)
            .unwrap_or(0);
        (self.err_ranks + resolution) as f64 / self.count as f64
    }

    /// Retained items across all levels (the memory footprint is this
    /// many `f64`s plus per-level `Vec` headers).
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
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
        self.levels[0].push(x);
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
    /// the end instead of every `k` pushes — one big sort over an
    /// almost-sorted buffer rather than `n/k` small ones.
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
        if self.count == 0 || first.total_cmp(&self.min).is_lt() {
            self.min = first;
        }
        if self.count == 0 || last.total_cmp(&self.max).is_gt() {
            self.max = last;
        }
        self.count += sorted.len() as u64;
        self.levels[0].extend_from_slice(sorted);
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
            self.levels.push(Vec::new());
        }
        for (level, items) in other.levels.iter().enumerate() {
            self.levels[level].extend_from_slice(items);
        }
        self.count += other.count;
        self.compactions += other.compactions;
        self.err_ranks += other.err_ranks;
        self.compact_overfull();
    }

    /// Compact every level over capacity, cascading upward. A level
    /// holding exactly `k` items is NOT compacted — that keeps the
    /// documented contract that up to (and including) `k` values stay
    /// exact.
    fn compact_overfull(&mut self) {
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() > self.k {
                self.compact(level);
            }
            level += 1;
        }
    }

    /// Sort level `level` and promote alternate items (parity flips per
    /// compaction) to `level + 1` at doubled weight. An odd buffer
    /// holds its largest item back so weight is conserved exactly.
    fn compact(&mut self, level: usize) {
        if self.levels.len() == level + 1 {
            self.levels.push(Vec::new());
        }
        let mut buf = std::mem::take(&mut self.levels[level]);
        buf.sort_unstable_by(f64::total_cmp);
        let even_len = buf.len() & !1;
        let start = (self.compactions % 2) as usize;
        for i in (start..even_len).step_by(2) {
            self.levels[level + 1].push(buf[i]);
        }
        if buf.len() > even_len {
            self.levels[level].push(buf[even_len]);
        }
        self.compactions += 1;
        self.err_ranks += 1u128 << level;
    }

    /// All retained items with their weights, sorted ascending by
    /// `total_cmp`.
    fn weighted_sorted(&self) -> Vec<(f64, u64)> {
        let mut items: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        for (level, values) in self.levels.iter().enumerate() {
            let w = 1u64 << level;
            items.extend(values.iter().map(|&v| (v, w)));
        }
        items.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
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
        // lint: allow(W1) — both public entry points (`quantile`,
        // `quantiles`) assert `count > 0` before gathering `items`, and a
        // non-empty sketch retains at least one item; the documented
        // panic on an empty sketch is that assert, not this line.
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
        // lint: allow(W1) — `count > 0` is asserted above and `start` is
        // clamped to `n - 1`, so the band `[start, n)` holds at least the
        // final rank and `rank_band_mean` cannot return `None`.
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
