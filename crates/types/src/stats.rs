//! Streaming and batch statistics: Welford accumulators (with the
//! parallel-merge form of Chan et al.), quantiles, ranks and correlation.
//!
//! These are the primitives the metrics crate builds exceedance curves
//! from, and that tests use to validate samplers against analytic moments.

use crate::money::KahanSum;

/// Numerically stable streaming moments (Welford), with min/max tracking
/// and an exact parallel `merge` (Chan, Golub & LeVeque).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add an observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Fold another accumulator in; the result is identical (up to float
    /// association) to having pushed both streams into one accumulator.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation (sd / mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.sd() / m
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Sort a slice of `f64` ascending by [`f64::total_cmp`]: `-inf` below
/// every finite value and `+inf` above, `-0.0` before `+0.0`, and a NaN
/// by its sign bit — a NaN with the sign bit set (what x86-64 arithmetic
/// makes of `0.0 / 0.0`) before everything, one without it
/// ([`f64::NAN`]) after everything.
///
/// The sort runs on integers: every value is mapped in place to its
/// [`total_order_key`], the keys are sorted, and the values are mapped
/// back. The key is a bijection whose order is `total_cmp`'s, and
/// `total_cmp` is a strict total order, so the result is bit for bit
/// the one `sort_unstable_by(f64::total_cmp)` leaves, with no extra
/// memory.
pub fn sort_f64(xs: &mut [f64]) {
    by_total_order_key(xs, |keys| keys.sort_unstable_by_key(|k| k.to_bits()));
}

/// The `u64` whose unsigned order is [`f64::total_cmp`]'s order of
/// `x`: the transform `total_cmp` applies before its signed compare (a
/// negative value's bits below the sign flipped), with the sign bit
/// flipped too, so negatives land below positives. A bijection;
/// [`from_total_order_key`] inverts it.
pub fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | SIGN_BIT)
}

/// The value whose [`total_order_key`] is `key`.
pub fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(key ^ ((((!key as i64) >> 63) as u64) | SIGN_BIT))
}

const SIGN_BIT: u64 = 1 << 63;

/// Run `f` over `xs` with every value replaced by the bits of its
/// [`total_order_key`], then map them back. Ordering the slice by
/// `to_bits()` inside `f` orders the values by `total_cmp`.
fn by_total_order_key(xs: &mut [f64], f: impl FnOnce(&mut [f64])) {
    for x in xs.iter_mut() {
        *x = f64::from_bits(total_order_key(*x));
    }
    f(xs);
    for x in xs.iter_mut() {
        *x = from_total_order_key(x.to_bits());
    }
}

/// Linear-interpolated quantile (R type-7, the numpy default) on an
/// already-sorted ascending slice. `q` in `[0, 1]`.
///
/// # Panics
/// Panics on an empty slice or `q` outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = h - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Mean of the elements at or above the `q`-quantile of a sorted slice —
/// the discrete tail-conditional expectation used by TVaR.
pub fn tail_mean_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let tail = &sorted[tail_start(sorted.len(), q)..];
    let k: KahanSum = tail.iter().copied().collect();
    k.total() / tail.len() as f64
}

/// [`tail_mean_sorted`] of `values` once sorted by `total_cmp`, without
/// sorting all of them: `values` is partitioned at the tail's first
/// rank and only the tail is sorted, both on the values'
/// [`total_order_key`]s, as [`sort_f64`] sorts. `total_cmp` is a total
/// order, so the sorted tail — and the sum over it — is bit for bit the
/// one a full sort gives. Leaves `values` partitioned.
pub fn tail_mean_unsorted(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty());
    let start = tail_start(values.len(), q);
    by_total_order_key(values, |keys| {
        keys.select_nth_unstable_by_key(start, |k| k.to_bits());
        keys[start..].sort_unstable_by_key(|k| k.to_bits());
    });
    let tail = &values[start..];
    let k: KahanSum = tail.iter().copied().collect();
    k.total() / tail.len() as f64
}

/// The first rank of the tail at or above the `q`-quantile of `n`
/// sorted values (never past the last one).
fn tail_start(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).min(n - 1)
}

/// Average ranks (1-based; ties get the average of their positions), the
/// form required by rank-correlation methods such as Iman–Conover.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_unstable_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut r = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the average rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Pearson correlation of two equal-length samples.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Spearman rank correlation (Pearson correlation of the rank vectors).
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    pearson(&ranks(xs), &ranks(ys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mean_unsorted_equals_the_sorted_tail_mean_bitwise() {
        let mut rng = crate::rng::SplitMix64::new(17);
        for n in [1usize, 2, 3, 99, 100, 101, 1_000] {
            // Ties, signed zeros and a wide range of magnitudes.
            let values: Vec<f64> = (0..n)
                .map(|i| match i % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 42.0,
                    _ => (crate::rng::Rng64::next_f64(&mut rng) - 0.3) * 1e6,
                })
                .collect();
            let mut sorted = values.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            for q in [0.0, 0.5, 0.9, 0.99, 0.999] {
                let mut scratch = values.clone();
                assert_eq!(
                    tail_mean_unsorted(&mut scratch, q).to_bits(),
                    tail_mean_sorted(&sorted, q).to_bits(),
                    "n = {n}, q = {q}"
                );
            }
        }
    }

    /// A value from the corners `total_cmp` orders: signed zeros and
    /// infinities, subnormals, both signs of [`f64::NAN`], NaNs with a
    /// payload (quiet and signalling), the NaN x86-64 arithmetic makes,
    /// a few values that repeat, or any bit pattern at all.
    fn awkward(rng: &mut crate::rng::SplitMix64) -> f64 {
        use crate::rng::Rng64;
        let runtime_nan = std::hint::black_box(0.0f64) / std::hint::black_box(0.0);
        let corners = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF0_0000_0000_0001),
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF),
            runtime_nan,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        match rng.next_u64() % 4 {
            0 => corners[(rng.next_u64() % corners.len() as u64) as usize],
            1 => (rng.next_u64() % 5) as f64 - 2.0,
            2 => f64::from_bits(rng.next_u64()),
            _ => (rng.next_f64() - 0.5) * 1e6,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `cases` slices of lengths 0–64, then one of 20 000 values, each
    /// sorted by [`sort_f64`] and by `total_cmp` directly.
    fn sort_f64_matches_total_cmp(seed: u64, cases: usize) {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        for case in 0..=cases {
            let len = if case == cases { 20_000 } else { case % 65 };
            let xs: Vec<f64> = (0..len).map(|_| awkward(&mut rng)).collect();
            let (mut got, mut want) = (xs.clone(), xs.clone());
            sort_f64(&mut got);
            want.sort_unstable_by(f64::total_cmp);
            assert_eq!(bits(&got), bits(&want), "case {case}: {xs:?}");
            for pair in xs.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let by_key = total_order_key(a).cmp(&total_order_key(b));
                assert_eq!(by_key, a.total_cmp(&b), "{a:?} vs {b:?}");
                assert_eq!(
                    from_total_order_key(total_order_key(a)).to_bits(),
                    a.to_bits()
                );
            }
        }
    }

    #[test]
    fn sort_f64_equals_the_total_cmp_sort_bitwise() {
        sort_f64_matches_total_cmp(0x50F7, 650);
    }

    /// The same property over sixteen times the cases and its own seed:
    /// `cargo test --release -p riskpipe-types sort_f64 -- --ignored`.
    #[test]
    #[ignore = "nightly: sixteen times the cases; run with --ignored"]
    fn sort_f64_equals_the_total_cmp_sort_bitwise_nightly() {
        sort_f64_matches_total_cmp(0x50F7_2417, 16 * 650);
    }

    #[test]
    fn a_nan_sorts_by_its_sign_bit() {
        let runtime_nan = std::hint::black_box(0.0f64) / std::hint::black_box(0.0);
        // x86-64's default NaN carries the sign bit; aarch64's does not.
        #[cfg(target_arch = "x86_64")]
        assert!(runtime_nan.is_sign_negative());
        let mut xs = [1.0, f64::NAN, runtime_nan, f64::NEG_INFINITY, -f64::NAN];
        sort_f64(&mut xs);
        let sign_set = runtime_nan.is_sign_negative();
        let nans_first = if sign_set { 2 } else { 1 };
        assert!(xs[..nans_first].iter().all(|x| x.is_nan()));
        assert_eq!(xs[nans_first], f64::NEG_INFINITY);
        assert!(xs[nans_first + 2..].iter().all(|x| x.is_nan()));
        assert_eq!(xs[4].to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn welford_matches_closed_form() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let s: RunningStats = xs.iter().copied().collect();
        assert_eq!(s.count(), 10);
        assert!((s.mean() - 5.5).abs() < 1e-12);
        // Var of 1..10 (sample) = 55/6 ≈ 9.1667.
        assert!((s.variance() - 55.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.31).collect();
        let whole: RunningStats = xs.iter().copied().collect();
        let mut parts = RunningStats::new();
        for chunk in xs.chunks(97) {
            let s: RunningStats = chunk.iter().copied().collect();
            parts.merge(&s);
        }
        assert_eq!(parts.count(), whole.count());
        assert!((parts.mean() - whole.mean()).abs() < 1e-10);
        assert!((parts.variance() - whole.variance()).abs() < 1e-8);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&RunningStats::new());
        assert_eq!((a.count(), a.mean(), a.variance()), before);
        let mut e = RunningStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 3);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 25.0);
        // h = 0.25*3 = 0.75 → 10 + 0.75*(20-10) = 17.5
        assert_eq!(quantile_sorted(&sorted, 0.25), 17.5);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile_sorted(&[7.0], 0.3), 7.0);
    }

    #[test]
    #[should_panic]
    fn quantile_empty_panics() {
        quantile_sorted(&[], 0.5);
    }

    #[test]
    fn tail_mean_is_tvar_like() {
        let sorted = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        // q = 0.8 → start index ceil(8) = 8 → mean of {8, 9} = 8.5
        assert_eq!(tail_mean_sorted(&sorted, 0.8), 8.5);
        // q = 0 → whole sample mean = 4.5
        assert_eq!(tail_mean_sorted(&sorted, 0.0), 4.5);
        // q → 1 clamps to last element.
        assert_eq!(tail_mean_sorted(&sorted, 1.0), 9.0);
    }

    #[test]
    fn ranks_handle_ties() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0];
        let r = ranks(&xs);
        // sorted: 1,1,3,4,5 → the two 1s share rank (1+2)/2 = 1.5.
        assert_eq!(r, vec![3.0, 1.5, 4.0, 1.5, 5.0]);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &zs) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_input_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn spearman_monotone_transform_invariant() {
        let xs = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }
}
