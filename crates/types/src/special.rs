//! Special functions needed by the samplers and the secondary-uncertainty
//! path of aggregate analysis: `ln Γ`, the regularized incomplete beta
//! function and its inverse, and the normal CDF / quantile.
//!
//! The incomplete-beta inverse is the workhorse: industry catastrophe
//! models represent per-event loss uncertainty as a beta distribution over
//! the damage ratio, and aggregate analysis maps a pre-simulated uniform
//! `z` to a loss through `exposure · F⁻¹_Beta(z; α, β)`.

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
/// `erfcc`). Fractional error below 1.2e-7 everywhere.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal CDF `Φ(x)`.
#[inline]
fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Standard normal quantile `Φ⁻¹(p)`, Acklam's rational approximation
/// refined with one Halley step against `normal_cdf`. Absolute error is
/// bounded by the CDF's own ~1e-7 accuracy — ample for Monte-Carlo use.
pub fn normal_icdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_icdf requires p in (0,1), got {p}"
    );
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
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement against the accurate CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `I_x(a, b)` from its inputs alone: the CDF oracle the inverse is
    /// checked against.
    fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
        inc_beta_from_logs(a, b, x, x.ln(), (1.0 - x).ln(), ln_beta(a, b))
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

    #[test]
    fn erfc_limits() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(6.0) < 1e-15);
        assert!((erfc(-6.0) - 2.0).abs() < 1e-15);
    }
}
