//! Special functions needed by the samplers and the secondary-uncertainty
//! path of aggregate analysis: `ln Γ`, the regularized incomplete beta
//! function and its inverse, and the normal CDF / quantile.
//!
//! The incomplete-beta inverse is the workhorse: industry catastrophe
//! models represent per-event loss uncertainty as a beta distribution over
//! the damage ratio, and aggregate analysis maps a pre-simulated uniform
//! `z` to a loss through `exposure · F⁻¹_Beta(z; α, β)`.
//!
//! The normal quantile comes in two shapes over one algorithm:
//! [`normal_icdf`] for one value and [`normal_icdf_in_place`] for a
//! slice, which runs the same stage helpers over blocks of eight values
//! so that their `exp` calls overlap. Both share one coefficient table
//! and perform the same IEEE operations per value, in the same order —
//! Rust never fuses a multiply-add on its own, and every lane calls the
//! same libm `exp` — so the two agree bit for bit.

use std::f64::consts::PI;

const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_8; // ln(sqrt(2π))

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Absolute error below 1e-13 over the positive reals; the reflection
/// formula handles `x < 0.5`.
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_809_9;
    for (i, c) in COEF.iter().enumerate() {
        a += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    LN_SQRT_2PI + (x + 0.5) * t.ln() - t + (2.506_628_274_631_000_5 * a / (2.0 * PI).sqrt()).ln()
}

/// Natural log of the beta function `B(a, b)`.
#[inline]
fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Continued-fraction evaluation for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-16;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)` — the CDF of the
/// Beta(a, b) distribution at `x` (`a, b > 0`, `x ∈ [0, 1]`).
///
/// The caller supplies `ln_b = ln_beta(a, b)`, `ln_x = x.ln()` and
/// `ln_1mx = (1 - x).ln()`: a Newton inversion would otherwise repeat
/// three Lanczos evaluations on every iteration, and the beta pdf at
/// `x` is built from the same two logarithms, so a step takes each once.
fn inc_beta_from_logs(a: f64, b: f64, x: f64, ln_x: f64, ln_1mx: f64, ln_b: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0, "inc_beta requires a,b > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_bt = a * ln_x + b * ln_1mx - ln_b;
    let bt = ln_bt.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * beta_cf(a, b, x) / a
    } else {
        1.0 - bt * beta_cf(b, a, 1.0 - x) / b
    }
}

/// One iterate of the Beta(a, b) quantile search: where the iteration
/// stands, the CDF there and the (floored) pdf there — all the next
/// step reads, and none of it depends on the target `p`.
#[derive(Debug, Clone, Copy)]
struct Iterate {
    x: f64,
    cdf: f64,
    pdf: f64,
}

impl Iterate {
    /// An unwritten trail slot: NaN shares its bits with no iterate
    /// (every step lands on a finite `x`), so it never matches.
    const EMPTY: Self = Self {
        x: f64::NAN,
        cdf: f64::NAN,
        pdf: f64::NAN,
    };

    fn at(a: f64, b: f64, ln_b: f64, x: f64) -> Self {
        let (ln_x, ln_1mx) = (x.ln(), (1.0 - x).ln());
        let cdf = inc_beta_from_logs(a, b, x, ln_x, ln_1mx, ln_b);
        let ln_pdf = (a - 1.0) * ln_x + (b - 1.0) * ln_1mx - ln_b;
        Self {
            x,
            cdf,
            pdf: ln_pdf.exp().max(1e-290),
        }
    }
}

/// Most steps one solve takes — and so the trail's length.
const MAX_STEPS: usize = 100;

/// The Beta(a, b) quantile solver: a bracketed Newton iteration from
/// the mean, plus the trail of the iterates its solves have visited.
///
/// **One descent per grid row.** Every solve starts at the same point
/// with the same bracket `(0, 1)`, and most of its steps are bisections
/// (Newton overshoots the bracket), so solves for nearby targets walk
/// one shared ladder of iterates down from the mean before they part.
/// The trail keeps, for each step index `i`, the last iterate a solve
/// reached at step `i`. When a solve's step `i` lands on an `x` with
/// the same bits, its CDF and pdf are read from the trail instead of
/// being evaluated. An iterate is a pure function of `(a, b, ln B, x)`,
/// so a reused one is the very value a fresh evaluation would return:
/// every quantile is bit-identical to a solve with an empty trail, in
/// any target order. On the benchmark's 33-point grids this skips
/// 72–81 % of the CDF evaluations. The start point, both tolerances,
/// the bisection rule and the step cap decide the bits; none of them
/// depends on the trail.
#[derive(Debug)]
pub(crate) struct BetaNewton {
    a: f64,
    b: f64,
    ln_b: f64,
    /// The mean, clamped into `(0, 1)`: robust for the moderate
    /// `(a, b)` that moment-matched damage ratios produce. Evaluated
    /// once, it serves any number of targets.
    start: Iterate,
    /// `trail[i]` is the iterate some solve reached after `i + 1` steps.
    trail: [Iterate; MAX_STEPS],
    /// CDF evaluations run so far, the start point's included.
    evals: u64,
}

impl BetaNewton {
    /// A solver for Beta(a, b) with an empty trail.
    pub(crate) fn new(a: f64, b: f64) -> Self {
        debug_assert!(a > 0.0 && b > 0.0);
        let ln_b = ln_beta(a, b);
        let x = (a / (a + b)).clamp(1e-12, 1.0 - 1e-12);
        Self {
            a,
            b,
            ln_b,
            start: Iterate::at(a, b, ln_b, x),
            trail: [Iterate::EMPTY; MAX_STEPS],
            evals: 1,
        }
    }

    /// CDF evaluations this solver has run, the start point's included.
    pub(crate) fn evals(&self) -> u64 {
        self.evals
    }

    /// Solve `I_x(a, b) = p` with a bracketed Newton iteration (the beta
    /// pdf is the derivative; a bisection fallback keeps it
    /// unconditionally convergent). Accuracy ~1e-12 in `x`. Each step's
    /// iterate comes from the trail when its `x` matches bit for bit.
    pub(crate) fn solve(&mut self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        let mut it = self.start;
        for step in 0..MAX_STEPS {
            let f = it.cdf - p;
            if f > 0.0 {
                hi = it.x;
            } else {
                lo = it.x;
            }
            if f.abs() < 1e-14 {
                break;
            }
            let mut next = it.x - f / it.pdf;
            if !next.is_finite() || next <= lo || next >= hi {
                next = 0.5 * (lo + hi);
            }
            if (next - it.x).abs() < 1e-15 {
                return next;
            }
            let slot = &mut self.trail[step];
            if slot.x.to_bits() != next.to_bits() {
                *slot = Iterate::at(self.a, self.b, self.ln_b, next);
                self.evals += 1;
            }
            it = *slot;
        }
        it.x
    }
}

/// Inverse of the regularized incomplete beta: the Beta(a, b) quantile
/// — one `BetaNewton::solve` with an empty trail.
pub fn inv_inc_beta(p: f64, a: f64, b: f64) -> f64 {
    BetaNewton::new(a, b).solve(p)
}

/// Complementary error function, Chebyshev fit (Numerical Recipes
/// `erfcc`), split around its one `exp` so a batch can issue the `exp`
/// calls of many values together: [`Erfc::at`] computes everything
/// before the call, [`Erfc::finish`] everything after it. Fractional
/// error below 1.2e-7 everywhere.
#[derive(Debug, Clone, Copy, Default)]
struct Erfc {
    /// The argument.
    x: f64,
    /// The rational factor `1 / (1 + |x| / 2)`.
    t: f64,
    /// `erfc(|x|) = t · exp(exponent)`.
    exponent: f64,
}

impl Erfc {
    fn at(x: f64) -> Self {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let exponent = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        Self { x, t, exponent }
    }

    /// `erfc(x)`, given `exp_exponent = self.exponent.exp()`.
    #[inline]
    fn finish(&self, exp_exponent: f64) -> f64 {
        let ans = self.t * exp_exponent;
        if self.x >= 0.0 {
            ans
        } else {
            2.0 - ans
        }
    }
}

/// Where the lower tail of Acklam's approximation ends (and, mirrored,
/// where the upper one starts).
const ACKLAM_P_LOW: f64 = 0.024_25;

/// The quantile's domain check, shared by the scalar and batched paths.
#[inline]
fn check_open_unit(p: f64) {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_icdf requires p in (0,1), got {p}"
    );
}

/// Stage 1 of `Φ⁻¹(p)`: Acklam's rational estimate — numerator `A`
/// over denominator `B` in the central region, `C` over `D` in both
/// tails.
#[inline]
fn acklam(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];

    if p < ACKLAM_P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - ACKLAM_P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Stage 2: what the Halley step at the estimate `x` takes the `exp`
/// of — `erfc` at `−x/√2` (for `Φ(x)`) and `x²/2`. Neither exponent
/// reads the other's `exp`.
#[inline]
fn halley_exponents(x: f64) -> (Erfc, f64) {
    (Erfc::at(-x * std::f64::consts::FRAC_1_SQRT_2), x * x / 2.0)
}

/// Stage 3: one Halley refinement of `x` against `Φ(x) = erfc / 2`,
/// given both exponentials.
#[inline]
fn halley_step(p: f64, x: f64, erfc: &Erfc, exp_erfc: f64, exp_half_x2: f64) -> f64 {
    let e = 0.5 * erfc.finish(exp_erfc) - p;
    let u = e * (2.0 * PI).sqrt() * exp_half_x2;
    x - u / (1.0 + x * u / 2.0)
}

/// Standard normal quantile `Φ⁻¹(p)`, Acklam's rational approximation
/// refined with one Halley step against the normal CDF. Absolute error
/// is bounded by the CDF's own ~1e-7 accuracy — ample for Monte-Carlo
/// use.
///
/// # Panics
/// Unless `0 < p < 1`.
pub fn normal_icdf(p: f64) -> f64 {
    check_open_unit(p);
    let x = acklam(p);
    let (erfc, half_x2) = halley_exponents(x);
    halley_step(p, x, &erfc, erfc.exponent.exp(), half_x2.exp())
}

/// Values per lane block of [`normal_icdf_in_place`].
const LANES: usize = 8;

/// `p ← normal_icdf(p)` for every element, bit for bit, eight values at
/// a time.
///
/// One scalar quantile is a single dependency chain — rational function,
/// `erfc`, `exp`, Halley step — so the core mostly waits on latency.
/// Here each stage runs as a plain loop over a block of eight values
/// (the tail is padded with `0.5`), and the two libm `exp` calls of
/// every value, which do not depend on each other, are issued in one
/// loop, so sixteen independent calls overlap.
///
/// **Why the bits cannot move.** Every lane runs the very helpers the
/// scalar path runs (`acklam`, the `Erfc` stages and the Halley
/// step), so each value sees the same IEEE operations in the same order
/// on the same operands; only *which value* goes next changes. Rust
/// never contracts `a * b + c` into a fused multiply-add, and each `exp`
/// is the same libm call per lane, not a vector approximation.
///
/// # Panics
/// Unless every element satisfies `0 < p < 1`, with the scalar's
/// message; a panic leaves the values of the failing block unchanged.
pub fn normal_icdf_in_place(ps: &mut [f64]) {
    let (blocks, tail) = ps.as_chunks_mut::<LANES>();
    for block in blocks {
        normal_icdf_lanes(block);
    }
    if !tail.is_empty() {
        let mut padded = [0.5; LANES];
        padded[..tail.len()].copy_from_slice(tail);
        normal_icdf_lanes(&mut padded);
        tail.copy_from_slice(&padded[..tail.len()]);
    }
}

/// [`normal_icdf`] over one block, stage by stage.
fn normal_icdf_lanes(ps: &mut [f64; LANES]) {
    let mut x = [0.0; LANES];
    for (x, &p) in x.iter_mut().zip(ps.iter()) {
        check_open_unit(p);
        *x = acklam(p);
    }
    let mut erfc = [Erfc::default(); LANES];
    let mut half_x2 = [0.0; LANES];
    for i in 0..LANES {
        (erfc[i], half_x2[i]) = halley_exponents(x[i]);
    }
    let mut exp_erfc = [0.0; LANES];
    let mut exp_half_x2 = [0.0; LANES];
    for i in 0..LANES {
        exp_erfc[i] = erfc[i].exponent.exp();
        exp_half_x2[i] = half_x2[i].exp();
    }
    for i in 0..LANES {
        ps[i] = halley_step(ps[i], x[i], &erfc[i], exp_erfc[i], exp_half_x2[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `I_x(a, b)` from its inputs alone: the CDF oracle the inverse is
    /// checked against.
    fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
        inc_beta_from_logs(a, b, x, x.ln(), (1.0 - x).ln(), ln_beta(a, b))
    }

    fn erfc(x: f64) -> f64 {
        let parts = Erfc::at(x);
        parts.finish(parts.exponent.exp())
    }

    /// Standard normal CDF `Φ(x)`: the function the Halley step refines
    /// against.
    fn normal_cdf(x: f64) -> f64 {
        0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((n + 1) as f64);
            assert!(
                (lg - f.ln()).abs() < 1e-10,
                "n={n} lg={lg} expect={}",
                f.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - PI.sqrt().ln()).abs() < 1e-12);
        // Γ(3/2) = √π/2.
        assert!((ln_gamma(1.5) - (PI.sqrt() / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn inc_beta_uniform_case() {
        // Beta(1,1) is uniform: I_x(1,1) = x.
        for x in [0.0, 0.1, 0.25, 0.5, 0.77, 1.0] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn inc_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (0.5, 0.5, 0.8), (5.0, 1.5, 0.45)] {
            let lhs = inc_beta(a, b, x);
            let rhs = 1.0 - inc_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-12, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn inc_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry; I_{0.5}(2, 5):
        // CDF of Beta(2,5) at 0.5 = 1 - (1-x)^5 (1+5x) ... compute directly:
        // F(x) = 6x^5 - ... easier: use closed form for integer a,b via
        // binomial sum: I_x(a,b) = sum_{j=a}^{a+b-1} C(a+b-1,j) x^j (1-x)^(a+b-1-j)
        let x: f64 = 0.5;
        let n = 6; // a+b-1
        let mut expect = 0.0;
        for j in 2..=n {
            let c = (1..=n).product::<usize>() as f64
                / ((1..=j).product::<usize>() as f64 * (1..=(n - j)).product::<usize>() as f64);
            expect += c * x.powi(j as i32) * (1.0 - x).powi((n - j) as i32);
        }
        assert!((inc_beta(2.0, 5.0, 0.5) - expect).abs() < 1e-10);
    }

    #[test]
    fn inv_inc_beta_round_trips() {
        for &(a, b) in &[(2.0, 5.0), (0.5, 0.5), (1.0, 1.0), (10.0, 3.0), (3.3, 7.7)] {
            for &p in &[0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
                let x = inv_inc_beta(p, a, b);
                let back = inc_beta(a, b, x);
                assert!(
                    (back - p).abs() < 1e-9,
                    "a={a} b={b} p={p} x={x} back={back}"
                );
            }
        }
    }

    #[test]
    fn inv_inc_beta_edges() {
        assert_eq!(inv_inc_beta(0.0, 2.0, 3.0), 0.0);
        assert_eq!(inv_inc_beta(1.0, 2.0, 3.0), 1.0);
    }

    #[test]
    fn normal_cdf_reference_points() {
        // erfc carries ~1.2e-7 relative error, so tolerances reflect that.
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.0) - 0.841_344_746).abs() < 1e-6);
        assert!((normal_cdf(-1.96) - 0.024_997_895).abs() < 1e-6);
        assert!((normal_cdf(3.0) - 0.998_650_102).abs() < 1e-6);
    }

    #[test]
    fn normal_icdf_round_trips() {
        for &p in &[1e-6, 1e-3, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1.0 - 1e-6] {
            let x = normal_icdf(p);
            assert!((normal_cdf(x) - p).abs() < 1e-7, "p={p} x={x}");
        }
    }

    #[test]
    fn normal_icdf_symmetry() {
        for &p in &[0.01, 0.1, 0.3] {
            assert!((normal_icdf(p) + normal_icdf(1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn normal_icdf_rejects_zero() {
        normal_icdf(0.0);
    }

    /// Where the quantile's branches and its float range end: the
    /// smallest normal and a deep-tail `p`, the largest `p` below 1,
    /// the centre, and `P_LOW` and `1 − P_LOW` with their neighbours.
    /// Then `p` within 1e-7 of the centre, where the estimate `x` is so
    /// small that the Halley correction decides most of the bits.
    fn edge_ps() -> Vec<f64> {
        let hair = |p: f64| {
            [
                f64::from_bits(p.to_bits() - 1),
                p,
                f64::from_bits(p.to_bits() + 1),
            ]
        };
        let mut ps = vec![f64::MIN_POSITIVE, 1e-300, 1.0 - f64::EPSILON / 2.0, 0.5];
        ps.extend(hair(ACKLAM_P_LOW));
        ps.extend(hair(1.0 - ACKLAM_P_LOW));
        ps.extend((1..=8).flat_map(|j| [0.5 - j as f64 * 1.25e-8, 0.5 + j as f64 * 1.25e-8]));
        ps
    }

    #[test]
    fn normal_icdf_bits_are_pinned() {
        // The scalar quantile is the batch's oracle, so its own bits are
        // pinned: a 4 096-point grid over (0, 1) plus every edge.
        let grid = (0..4_096).map(|k| (k as f64 + 0.5) / 4_096.0);
        let mut fp = crate::Fingerprint::new("normal_icdf");
        for p in grid.chain(edge_ps()) {
            fp.push_f64(normal_icdf(p));
        }
        assert_eq!(fp.finish(), 13_362_518_031_720_520_382);
    }

    mod batched {
        use super::*;
        use crate::dist::{LogNormal, Normal};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every length from empty through two blocks plus a padded
            /// tail; each element an edge, a 53-bit `p` in (0, 1) or a
            /// `p` within 5e-7 of the centre.
            #[test]
            fn normal_icdf_in_place_equals_the_scalar_bitwise(
                picks in prop::collection::vec((1u64..1 << 53, 0usize..48), 0..=17),
                (mu, sigma) in (-5.0f64..15.0, 0.0f64..3.0),
            ) {
                let edges = edge_ps();
                let ps: Vec<f64> = picks
                    .iter()
                    .map(|&(k, pick)| {
                        let u = k as f64 / (1u64 << 53) as f64;
                        match edges.get(pick) {
                            Some(&edge) => edge,
                            None if pick < 40 => u,
                            None => 0.5 + (u - 0.5) * 1e-6,
                        }
                    })
                    .collect();
                let mut zs = ps.clone();
                normal_icdf_in_place(&mut zs);
                for (z, &p) in zs.iter().zip(&ps) {
                    prop_assert_eq!(z.to_bits(), normal_icdf(p).to_bits(), "p = {:e}", p);
                }
                let d = LogNormal::new(mu, sigma);
                let mut qs = ps.clone();
                d.quantiles_in_place(&mut qs);
                for (q, &p) in qs.iter().zip(&ps) {
                    prop_assert_eq!(q.to_bits(), d.quantile(p).to_bits(), "p = {:e}", p);
                }
                let d = Normal::new(mu, sigma);
                let mut qs = ps.clone();
                d.quantiles_in_place(&mut qs);
                for (q, &p) in qs.iter().zip(&ps) {
                    prop_assert_eq!(q.to_bits(), d.quantile(p).to_bits(), "p = {:e}", p);
                }
            }
        }

        #[test]
        fn every_edge_in_one_batch_equals_the_scalar_bitwise() {
            let ps = edge_ps();
            let mut zs = ps.clone();
            normal_icdf_in_place(&mut zs);
            for (z, &p) in zs.iter().zip(&ps) {
                assert_eq!(z.to_bits(), normal_icdf(p).to_bits(), "p = {p:e}");
            }
        }

        /// A batch of eleven: a full block, then a padded tail holding
        /// `bad`.
        fn batch_with(bad: f64) {
            let mut ps = [0.3; 11];
            ps[9] = bad;
            normal_icdf_in_place(&mut ps);
        }

        #[test]
        #[should_panic(expected = "normal_icdf requires p in (0,1), got 0")]
        fn rejects_zero_inside_a_batch() {
            batch_with(0.0);
        }

        #[test]
        #[should_panic(expected = "normal_icdf requires p in (0,1), got 1")]
        fn rejects_one_inside_a_batch() {
            batch_with(1.0);
        }

        #[test]
        #[should_panic(expected = "normal_icdf requires p in (0,1), got NaN")]
        fn rejects_nan_inside_a_batch() {
            batch_with(f64::NAN);
        }
    }

    #[test]
    fn erfc_limits() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(6.0) < 1e-15);
        assert!((erfc(-6.0) - 2.0).abs() < 1e-15);
    }
}
