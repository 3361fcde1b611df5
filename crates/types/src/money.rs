//! Monetary helpers: the `Loss` scalar and compensated summation.
//!
//! Losses are plain `f64` — aggregate analysis is Monte-Carlo and the
//! sampling error dominates representation error by many orders of
//! magnitude, so a decimal type would cost speed for no statistical
//! benefit. What *does* matter is summation error when accumulating
//! millions of per-event losses into year totals, hence [`KahanSum`].

/// A monetary loss amount. Always non-negative in ground-up tables;
/// net results in DFA may be negative (profit).
pub type Loss = f64;

/// Kahan–Babuška compensated summation.
///
/// Adding `n` doubles naively accrues `O(n·ε)` relative error; Kahan
/// summation reduces this to `O(ε)` independent of `n`, which keeps the
/// year-loss tables produced by different engines (sequential, parallel,
/// simulated-GPU) bit-comparable after reordering-insensitive reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// A new accumulator at zero.
    #[inline]
    pub const fn new() -> Self {
        Self {
            sum: 0.0,
            compensation: 0.0,
        }
    }

    /// Add a term (Neumaier's variant, robust when the term exceeds the
    /// running sum in magnitude). Non-finite totals carry through with
    /// IEEE semantics: without the guard, the compensation term would
    /// evaluate `inf - inf = NaN` and turn a legitimately infinite sum
    /// into `NaN`.
    #[inline]
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if t.is_finite() {
            if self.sum.abs() >= value.abs() {
                self.compensation += (self.sum - t) + value;
            } else {
                self.compensation += (value - t) + self.sum;
            }
        } else {
            self.compensation = 0.0;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum + self.compensation
    }

    /// Merge another accumulator into this one (used by parallel
    /// reductions; associative up to the compensation term).
    #[inline]
    pub fn merge(&mut self, other: &KahanSum) {
        self.add(other.sum);
        self.add(other.compensation);
    }
}

impl std::iter::FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut k = KahanSum::new();
        for v in iter {
            k.add(v);
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_beats_naive_on_ill_conditioned_sum() {
        // 1.0 followed by many tiny values that naive f64 summation drops.
        let tiny = 1e-16;
        let n = 1_000_000usize;
        let mut naive = 1.0f64;
        let mut kahan = KahanSum::new();
        kahan.add(1.0);
        for _ in 0..n {
            naive += tiny;
            kahan.add(tiny);
        }
        let exact = 1.0 + tiny * n as f64;
        let naive_err = (naive - exact).abs();
        let kahan_err = (kahan.total() - exact).abs();
        assert!(
            kahan_err < naive_err / 100.0 || kahan_err < 1e-18,
            "kahan_err={kahan_err}, naive_err={naive_err}"
        );
    }

    #[test]
    fn neumaier_handles_large_then_small() {
        // Classic case where plain Kahan fails: big, small, -big.
        let mut k = KahanSum::new();
        k.add(1e100);
        k.add(1.0);
        k.add(-1e100);
        assert_eq!(k.total(), 1.0);
    }

    #[test]
    fn non_finite_terms_keep_ieee_semantics() {
        // Regression: the Neumaier compensation used to compute
        // `inf - inf = NaN`, reporting NaN for a sum that is
        // legitimately infinite.
        let mut k = KahanSum::new();
        k.add(1.0);
        k.add(f64::INFINITY);
        k.add(2.0);
        assert_eq!(k.total(), f64::INFINITY);
        let mut opposed = KahanSum::new();
        opposed.add(f64::INFINITY);
        opposed.add(f64::NEG_INFINITY);
        assert!(opposed.total().is_nan(), "inf + -inf is NaN in IEEE");
        let mut nan = KahanSum::new();
        nan.add(f64::NAN);
        nan.add(5.0);
        assert!(nan.total().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.1).collect();
        let seq: KahanSum = xs.iter().copied().collect();
        let (a, b) = xs.split_at(500);
        let mut ka: KahanSum = a.iter().copied().collect();
        let kb: KahanSum = b.iter().copied().collect();
        ka.merge(&kb);
        assert!((ka.total() - seq.total()).abs() < 1e-9);
    }

    #[test]
    fn from_iterator_and_helper_agree() {
        let xs = [1.5, 2.5, 3.25];
        let k: KahanSum = xs.iter().copied().collect();
        assert_eq!(k.total(), 7.25);
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(KahanSum::new().total(), 0.0);
        assert_eq!(std::iter::empty().collect::<KahanSum>().total(), 0.0);
    }
}
