//! Distribution samplers over the [`crate::rng::Rng64`] generators.
//!
//! The inversion-based samplers ([`Uniform`], [`Normal`],
//! [`LogNormal`], [`Exponential`], [`Beta`]) draw exactly **one**
//! uniform per variate and invert the distribution's CDF (via
//! [`crate::special`]), so their sample streams are pure functions of
//! the generator stream — the property that lets the engines split
//! trials across threads by splitting counter-based generators, with
//! no cached state (as a Box-Muller pair would carry) to break
//! reproducibility. [`Gamma`] (rejection sampling) and the discrete
//! samplers below consume a *variable* number of draws per variate:
//! still deterministic per seed, but not positionally alignable —
//! don't interleave them on a stream that other consumers index by
//! variate count.
//!
//! Discrete samplers: [`Poisson`] event counts (exact, by Knuth's
//! product method over ≤32-mean chunks) and the Walker [`AliasTable`]
//! for O(1) catalogue-event selection (two draws per sample).

use crate::error::{RiskError, RiskResult};
use crate::rng::Rng64;
use crate::special::{inv_inc_beta, normal_icdf, normal_icdf_in_place, BetaNewton};

/// A real-valued distribution that can be sampled from an [`Rng64`].
pub trait Distribution {
    /// Draw one variate.
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draw `n` variates.
    fn sample_n<R: Rng64 + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// A uniform distribution on `[lo, hi)` (degenerate at `lo` when
    /// `hi <= lo`).
    pub fn new(lo: f64, hi: f64) -> Self {
        Self { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + rng.next_f64() * (self.hi - self.lo).max(0.0)
    }
}

/// Normal (Gaussian) with the given mean and standard deviation,
/// sampled by quantile inversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// A normal distribution with the given mean and standard
    /// deviation (`sd < 0` is treated as 0).
    pub fn new(mean: f64, sd: f64) -> Self {
        Self {
            mean,
            sd: sd.max(0.0),
        }
    }

    /// The distribution's quantile at `p ∈ (0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sd * normal_icdf(p)
    }

    /// `p ← self.quantile(p)` for every element, bit for bit, with the
    /// standard quantiles inverted in lanes by
    /// [`normal_icdf_in_place`].
    ///
    /// # Panics
    /// Unless every element satisfies `0 < p < 1`.
    pub fn quantiles_in_place(&self, ps: &mut [f64]) {
        normal_icdf_in_place(ps);
        for v in ps {
            *v = self.mean + self.sd * *v;
        }
    }
}

impl Distribution for Normal {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.next_f64_open())
    }
}

/// Lognormal: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// From the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        Self {
            mu,
            sigma: sigma.max(0.0),
        }
    }

    /// From the lognormal's own mean and coefficient of variation —
    /// the parametrisation exposure and severity models are quoted in.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        let mean = mean.max(f64::MIN_POSITIVE);
        let cv = cv.max(0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        Self {
            mu: mean.ln() - 0.5 * sigma2,
            sigma: sigma2.sqrt(),
        }
    }

    /// The distribution's quantile at `p ∈ (0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * normal_icdf(p)).exp()
    }

    /// `p ← self.quantile(p)` for every element, bit for bit, with the
    /// normal quantiles inverted in lanes by
    /// [`normal_icdf_in_place`].
    ///
    /// # Panics
    /// Unless every element satisfies `0 < p < 1`.
    pub fn quantiles_in_place(&self, ps: &mut [f64]) {
        normal_icdf_in_place(ps);
        for v in ps {
            *v = (self.mu + self.sigma * *v).exp();
        }
    }
}

impl Distribution for LogNormal {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.next_f64_open())
    }
}

/// Exponential with the given rate (mean `1 / rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// An exponential distribution with the given rate.
    pub fn new(rate: f64) -> Self {
        Self {
            rate: rate.max(f64::MIN_POSITIVE),
        }
    }
}

impl Distribution for Exponential {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - u ∈ (0, 1]: ln never sees 0.
        -(1.0 - rng.next_f64()).ln() / self.rate
    }
}

/// Gamma with shape `k` and scale `theta`, via Marsaglia–Tsang
/// squeeze (shape ≥ 1) with the boost trick for shape < 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// A gamma distribution with the given shape and scale.
    pub fn new(shape: f64, scale: f64) -> Self {
        Self {
            shape: shape.max(f64::MIN_POSITIVE),
            scale: scale.max(0.0),
        }
    }

    fn sample_standard<R: Rng64 + ?Sized>(shape: f64, rng: &mut R) -> f64 {
        if shape < 1.0 {
            // Boost: X_k = X_{k+1} * U^{1/k}.
            let x = Self::sample_standard(shape + 1.0, rng);
            return x * rng.next_f64_open().powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = normal_icdf(rng.next_f64_open());
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.next_f64_open();
            if u.ln() < 0.5 * z * z + d - d * v3 + d * v3.ln() {
                return d * v3;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        Self::sample_standard(self.shape, rng) * self.scale
    }
}

/// Poisson event counts with the given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Mean per chunk of Knuth's product method — keeps
    /// `exp(-lambda)` comfortably above underflow.
    const CHUNK: f64 = 32.0;

    /// A Poisson distribution with mean `lambda` (clamped ≥ 0).
    pub fn new(lambda: f64) -> Self {
        Self {
            lambda: lambda.max(0.0),
        }
    }

    /// The distribution's mean.
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// The means of the ≤32-mean chunks [`Self::sample_count`] samples,
    /// in order — the one schedule that [`Self::draws_for`] counts too.
    fn chunks(&self) -> impl Iterator<Item = f64> {
        let mut remaining = self.lambda;
        std::iter::from_fn(move || {
            (remaining > 0.0).then(|| {
                let chunk = remaining.min(Self::CHUNK);
                remaining -= chunk;
                chunk
            })
        })
    }

    /// How many uniforms [`Self::sample_count`] drew when it returned
    /// `count`: one per event, plus the one per chunk that fell below
    /// the chunk's limit. A stream that skips this many draws stands
    /// exactly where the sampler left it.
    pub fn draws_for(&self, count: u64) -> u64 {
        count + self.chunks().count() as u64
    }

    /// Draw one event count. Exact for any mean: a Poisson(λ) count
    /// is the sum of independent Poisson(λᵢ) counts with Σλᵢ = λ, so
    /// large means are split into ≤32-mean chunks, each sampled by
    /// Knuth's product method.
    pub fn sample_count<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut total = 0u64;
        for chunk in self.chunks() {
            let limit = (-chunk).exp();
            let mut product = rng.next_f64_open();
            while product > limit {
                total += 1;
                product *= rng.next_f64_open();
            }
        }
        total
    }
}

impl Distribution for Poisson {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_count(rng) as f64
    }
}

/// Beta on `(0, 1)`, evaluated by quantile inversion — the damage-
/// ratio distribution of the secondary-uncertainty model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    a: f64,
    b: f64,
}

impl Beta {
    /// Narrowest admissible spread when clamping (keeps `a`, `b`
    /// finite and the quantile well-conditioned).
    const EPS: f64 = 1e-6;

    /// A beta distribution with the given shape parameters.
    pub fn new(a: f64, b: f64) -> Self {
        Self {
            a: a.max(Self::EPS),
            b: b.max(Self::EPS),
        }
    }

    /// Method-of-moments fit from a mean and standard deviation, with
    /// both clamped into the beta-admissible region: mean into
    /// `(EPS, 1 - EPS)`, variance into `(0, mean·(1-mean))`. ELT rows
    /// quote mean damage ratios and deviations measured from data, so
    /// out-of-domain combinations must degrade gracefully rather than
    /// reject the row.
    pub fn from_mean_sd_clamped(mean: f64, sd: f64) -> Self {
        let m = mean.clamp(Self::EPS, 1.0 - Self::EPS);
        let max_var = m * (1.0 - m);
        let var = (sd * sd).clamp(Self::EPS * max_var, (1.0 - Self::EPS) * max_var);
        let nu = max_var / var - 1.0;
        Self::new(m * nu, (1.0 - m) * nu)
    }

    /// The first shape parameter.
    pub fn alpha(&self) -> f64 {
        self.a
    }

    /// The second shape parameter.
    pub fn beta(&self) -> f64 {
        self.b
    }

    /// The distribution's mean `a / (a + b)`.
    pub fn mean(&self) -> f64 {
        self.a / (self.a + self.b)
    }

    /// The distribution's quantile at `u` (clamped into `(0, 1)`).
    pub fn quantile(&self, u: f64) -> f64 {
        inv_inc_beta(u.clamp(Self::EPS, 1.0 - Self::EPS), self.a, self.b)
    }

    /// `out[k] = self.quantile(us[k])` for every `k`, bit for bit, with
    /// everything that does not depend on `u` evaluated once for the
    /// batch: `ln B(a, b)` and the start iterate at the mean. The
    /// abscissae are solved in order over one trail of iterates, so a
    /// CDF evaluation an earlier solve already ran at the same step and
    /// the same `x` bits is reused, not repeated (see `BetaNewton` in
    /// [`crate::special`]). The tabulation kernel of the
    /// secondary-uncertainty grid. Returns the CDF evaluations it ran,
    /// the start point's included.
    ///
    /// # Panics
    /// If `us` and `out` differ in length.
    pub fn quantiles_into(&self, us: &[f64], out: &mut [f64]) -> u64 {
        assert_eq!(us.len(), out.len(), "one output slot per abscissa");
        let mut newton = BetaNewton::new(self.a, self.b);
        for (q, &u) in out.iter_mut().zip(us) {
            *q = newton.solve(u.clamp(Self::EPS, 1.0 - Self::EPS));
        }
        newton.evals()
    }
}

impl Distribution for Beta {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.next_f64_open())
    }
}

/// Walker's alias method: O(1) sampling from a discrete distribution
/// over `0..n` — how each YET occurrence picks its catalogue event.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from (unnormalised) non-negative weights.
    pub fn new(weights: &[f64]) -> RiskResult<Self> {
        if weights.is_empty() {
            return Err(RiskError::invalid("alias table needs at least one weight"));
        }
        if weights.len() > u32::MAX as usize {
            return Err(RiskError::invalid("alias table too large"));
        }
        let mut total = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(RiskError::invalid(format!(
                    "alias weights must be finite and non-negative, got {w}"
                )));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(RiskError::invalid("alias weights sum to zero"));
        }
        let n = weights.len();
        // Scaled probabilities: mean 1.
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut prob = vec![1.0f64; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers (numerical residue) keep probability 1 of
        // selecting themselves.
        Ok(Self { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one category index.
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.next_below(self.prob.len() as u32) as usize;
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Pcg64, SplitMix64};
    use crate::stats::RunningStats;

    fn moments(d: &impl Distribution, n: usize, seed: u64) -> RunningStats {
        let mut rng = Pcg64::new(seed);
        let mut st = RunningStats::new();
        for _ in 0..n {
            st.push(d.sample(&mut rng));
        }
        st
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        let st = moments(&d, 100_000, 2);
        assert!((st.mean() - 4.0).abs() < 0.02);
    }

    #[test]
    fn normal_moments() {
        let st = moments(&Normal::new(10.0, 3.0), 200_000, 3);
        assert!((st.mean() - 10.0).abs() < 0.05);
        assert!((st.sd() - 3.0).abs() < 0.05);
    }

    #[test]
    fn lognormal_mean_cv_parametrisation() {
        let d = LogNormal::from_mean_cv(1_000.0, 0.8);
        let st = moments(&d, 400_000, 4);
        assert!(
            (st.mean() - 1_000.0).abs() < 0.02 * 1_000.0,
            "mean {}",
            st.mean()
        );
        let cv = st.sd() / st.mean();
        assert!((cv - 0.8).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn exponential_mean() {
        let st = moments(&Exponential::new(0.01), 200_000, 5);
        assert!((st.mean() - 100.0).abs() < 1.5, "mean {}", st.mean());
    }

    #[test]
    fn gamma_moments() {
        let d = Gamma::new(3.0, 2.0);
        let st = moments(&d, 200_000, 6);
        assert!((st.mean() - 6.0).abs() < 0.1, "mean {}", st.mean());
        assert!((st.sd() - 12.0f64.sqrt()).abs() < 0.1, "sd {}", st.sd());
    }

    #[test]
    fn poisson_small_and_large_means() {
        for &lambda in &[0.0, 0.3, 4.0, 20.0, 250.0] {
            let d = Poisson::new(lambda);
            let mut rng = Pcg64::new(7 + lambda as u64);
            let n = 40_000;
            let mut sum = 0.0;
            for _ in 0..n {
                sum += d.sample_count(&mut rng) as f64;
            }
            let mean = sum / n as f64;
            let tol = 3.0 * (lambda / n as f64).sqrt().max(1e-9) + 1e-9;
            assert!(
                (mean - lambda).abs() <= tol.max(0.05 * lambda.max(0.02)),
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    /// An [`Rng64`] that counts the draws taken from it.
    struct Counting<R> {
        inner: R,
        draws: u64,
    }

    impl<R: Rng64> Rng64 for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn draws_for_counts_what_sample_count_drew() {
        // Chunk boundaries included: one chunk at 32, a second tiny one
        // at 32.5, seven at 200, none at 0.
        for lambda in [0.0, 0.5, 20.0, 32.0, 32.5, 200.0] {
            let d = Poisson::new(lambda);
            let mut rng = Counting {
                inner: Pcg64::new(lambda.to_bits()),
                draws: 0,
            };
            for _ in 0..2_000 {
                let before = rng.draws;
                let count = d.sample_count(&mut rng);
                assert_eq!(d.draws_for(count), rng.draws - before, "lambda {lambda}");
            }
        }
    }

    #[test]
    fn beta_quantile_monotone_and_mean_respected() {
        let b = Beta::from_mean_sd_clamped(0.3, 0.1);
        assert!((b.mean() - 0.3).abs() < 1e-9);
        let mut last = 0.0;
        for k in 1..100 {
            let q = b.quantile(k as f64 / 100.0);
            assert!((0.0..=1.0).contains(&q));
            assert!(q >= last, "quantile not monotone at {k}");
            last = q;
        }
        let st = moments(&b, 100_000, 8);
        assert!((st.mean() - 0.3).abs() < 0.01, "mean {}", st.mean());
    }

    #[test]
    fn beta_clamps_out_of_domain_moments() {
        // sd too large for the mean: must clamp, not NaN.
        let b = Beta::from_mean_sd_clamped(0.9, 5.0);
        let q = b.quantile(0.5);
        assert!(q.is_finite() && (0.0..=1.0).contains(&q));
        // Degenerate inputs survive too.
        let b = Beta::from_mean_sd_clamped(0.0, 0.0);
        assert!(b.quantile(0.5).is_finite());
    }

    /// `g` grid abscissae `(k + 0.5) / g`, as the secondary table lays
    /// them out.
    fn grid(g: usize) -> Vec<f64> {
        (0..g).map(|k| (k as f64 + 0.5) / g as f64).collect()
    }

    #[test]
    fn beta_batched_quantiles_equal_single_lookups_bitwise() {
        // The batch reuses iterates across abscissae; every cell must
        // still be the single lookup's bits, whatever the abscissae's
        // order. Out-of-range abscissae included: both paths clamp
        // alike.
        let mut rng = SplitMix64::new(0xBE7A);
        // Clamp corners, then the (a, b) shapes the workloads produce.
        let corners = [
            (0.3, 0.1),
            (0.02, 0.05),
            (0.9, 5.0),
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (-1.0, 0.5),
            (2.0, 0.0),
            (0.5, 1e-12),
            (1e-9, 1.0),
        ];
        let mut betas: Vec<Beta> = corners
            .iter()
            .map(|&(mean, sd)| Beta::from_mean_sd_clamped(mean, sd))
            .collect();
        let shapes = [(1e-6, 1e-6), (5.8e-5, 0.024), (0.105, 7.6), (0.56, 17.8)];
        betas.extend(shapes.iter().map(|&(a, b)| Beta::new(a, b)));
        // 2 000 drawn pairs: the mean log-uniform over (1e-7, 1) from
        // either end, the sd a log-uniform fraction of its largest
        // admissible value (past 1, so the variance clamp fires too).
        for _ in 0..2_000 {
            let tail = 10f64.powf(-7.0 * rng.next_f64());
            let mean = if rng.next_below(2) == 0 {
                tail
            } else {
                1.0 - tail
            };
            let sd = (mean * (1.0 - mean)).sqrt() * 10f64.powf(4.5 * rng.next_f64() - 4.0);
            betas.push(Beta::from_mean_sd_clamped(mean, sd));
        }
        let edges = vec![-0.5, 0.0, 1e-9, 0.015, 0.3, 0.5, 0.77, 0.985, 1.0, 2.0];
        let descending: Vec<f64> = grid(33).into_iter().rev().collect();
        let duplicated: Vec<f64> = grid(17).iter().flat_map(|&u| [u, u]).collect();
        let mut shuffled = grid(33);
        for (i, beta) in betas.iter().enumerate() {
            let us = match i % 9 {
                0 => grid(2),
                1 => grid(17),
                2 => grid(33),
                3 => grid(65),
                4 => grid(129),
                5 => {
                    for k in (1..shuffled.len()).rev() {
                        shuffled.swap(k, rng.next_below(k as u32 + 1) as usize);
                    }
                    shuffled.clone()
                }
                6 => descending.clone(),
                7 => duplicated.clone(),
                _ => edges.clone(),
            };
            let mut out = vec![0.0; us.len()];
            beta.quantiles_into(&us, &mut out);
            for (k, (q, &u)) in out.iter().zip(&us).enumerate() {
                assert_eq!(
                    q.to_bits(),
                    beta.quantile(u).to_bits(),
                    "{beta:?}, cell {k} of {} at {u}",
                    us.len()
                );
            }
        }
    }

    #[test]
    fn one_batch_runs_fewer_evaluations_than_one_per_abscissa() {
        // A `price_sweep`-shaped row on the default 33-point grid: the
        // solves share most of their descent.
        let beta = Beta::new(0.105, 7.6);
        let us = grid(33);
        let mut out = vec![0.0; 33];
        let batched = beta.quantiles_into(&us, &mut out);
        let one_by_one: u64 = us
            .iter()
            .zip(&mut out)
            .map(|(u, q)| beta.quantiles_into(std::slice::from_ref(u), std::slice::from_mut(q)))
            .sum();
        assert!(
            batched * 2 < one_by_one,
            "{batched} evaluations batched vs {one_by_one} one by one"
        );
    }

    #[test]
    fn alias_table_matches_weights() {
        let weights = [1.0, 3.0, 6.0];
        let t = AliasTable::new(&weights).unwrap();
        assert_eq!(t.len(), 3);
        let mut rng = Pcg64::new(9);
        let mut counts = [0u64; 3];
        let n = 300_000;
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / 10.0;
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "category {i}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn alias_table_rejects_bad_weights() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0, 0.0]).is_err());
        assert!(AliasTable::new(&[1.0, -2.0]).is_err());
        assert!(AliasTable::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = LogNormal::from_mean_cv(500.0, 1.2);
        let mut a = Pcg64::new(11);
        let mut b = Pcg64::new(11);
        for _ in 0..1_000 {
            assert_eq!(d.sample(&mut a).to_bits(), d.sample(&mut b).to_bits());
        }
    }
}
