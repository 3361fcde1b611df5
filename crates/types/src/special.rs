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
//!
//! The beta quantile likewise: [`inv_inc_beta`] solves one target, and
//! `inv_inc_beta_rows` (behind `Beta::quantile_rows`) tabulates rows of
//! targets eight rows at a time. Both run one step function
//! (`BetaNewton::advance`) and one CDF evaluator (`iterates`, of which
//! the lone evaluation is the width-1 case), so they agree bit for bit
//! too.

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

/// A Beta(a, b) distribution's shape, with `ln B(a, b)` evaluated once:
/// a Newton inversion would otherwise repeat three Lanczos evaluations
/// on every iteration.
#[derive(Debug, Clone, Copy)]
struct Shape {
    a: f64,
    b: f64,
    ln_b: f64,
}

impl Shape {
    /// What an idle lane holds: [`iterates`] never evaluates it.
    const PAD: Self = Self {
        a: 1.0,
        b: 1.0,
        ln_b: 0.0,
    };

    fn new(a: f64, b: f64) -> Self {
        debug_assert!(a > 0.0 && b > 0.0, "inc_beta requires a,b > 0");
        Self {
            a,
            b,
            ln_b: ln_beta(a, b),
        }
    }

    /// Where every solve starts: the mean, clamped into `(0, 1)` —
    /// robust for the moderate `(a, b)` that moment-matched damage
    /// ratios produce.
    fn start_x(&self) -> f64 {
        (self.a / (self.a + self.b)).clamp(1e-12, 1.0 - 1e-12)
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

    /// The iterate at `x`: [`iterates`] at width 1.
    fn at(shape: &Shape, x: f64) -> Self {
        iterates(&[*shape], &[x], 1)[0]
    }
}

/// The iterates at `x[i]` of the Beta distributions `shape[i]`, for the
/// first `n` lanes (the rest are padding and come back unspecified).
///
/// Each libm call runs once per lane in its own loop — `ln x`, then
/// `ln(1 − x)`, then the lockstep continued fraction, then both `exp`s
/// — so the lanes' calls, which do not depend on each other, overlap.
/// The CDF is the regularized incomplete beta `I_x(a, b)`; the beta
/// pdf at `x` is built from the same two logarithms.
///
/// **Why the bits cannot move.** Each lane sees the IEEE operations of
/// a lone evaluation, in the same order, on the same operands: the
/// lockstep continued fraction freezes a lane by select once it has
/// converged and carries its state unchanged into narrower lanes, Rust
/// never contracts `a * b + c` into a fused multiply-add, and every
/// `ln` / `exp` is the same libm call per lane.
/// Width 1 is [`Iterate::at`], so the scalar solve and the lanes share
/// this one formulation.
fn iterates<const N: usize>(shape: &[Shape; N], x: &[f64; N], n: usize) -> [Iterate; N] {
    let mut ln_x = [0.0; N];
    for i in 0..n {
        ln_x[i] = x[i].ln();
    }
    let mut ln_1mx = [0.0; N];
    for i in 0..n {
        ln_1mx[i] = (1.0 - x[i]).ln();
    }
    // The fraction converges fast below the mean-ish split point; above
    // it, `I_x(a, b) = 1 − I_{1−x}(b, a)` evaluates the mirror image.
    // Lanes at or past the ends of `[0, 1]` have their CDF without it.
    let mut mirrored = [false; N];
    let (mut cf_a, mut cf_b, mut cf_x) = ([1.0; N], [1.0; N], [0.5; N]);
    let mut skip = [true; N];
    for i in 0..n {
        let Shape { a, b, .. } = shape[i];
        mirrored[i] = x[i] >= (a + 1.0) / (a + b + 2.0);
        (cf_a[i], cf_b[i], cf_x[i]) = if mirrored[i] {
            (b, a, 1.0 - x[i])
        } else {
            (a, b, x[i])
        };
        skip[i] = x[i] <= 0.0 || x[i] >= 1.0;
    }
    let cf = beta_cf(cf_a, cf_b, cf_x, skip);
    let mut bt = [0.0; N];
    let mut pdf = [0.0; N];
    for i in 0..n {
        let Shape { a, b, ln_b } = shape[i];
        bt[i] = (a * ln_x[i] + b * ln_1mx[i] - ln_b).exp();
        pdf[i] = ((a - 1.0) * ln_x[i] + (b - 1.0) * ln_1mx[i] - ln_b).exp();
    }
    let mut out = [Iterate::EMPTY; N];
    for i in 0..n {
        let Shape { a, b, .. } = shape[i];
        let cdf = if x[i] <= 0.0 {
            0.0
        } else if x[i] >= 1.0 {
            1.0
        } else if mirrored[i] {
            1.0 - bt[i] * cf[i] / b
        } else {
            bt[i] * cf[i] / a
        };
        out[i] = Iterate {
            x: x[i],
            cdf,
            pdf: pdf[i].max(1e-290),
        };
    }
    out
}

/// The incomplete beta's continued fraction (modified Lentz) for
/// Beta(`a[i]`, `b[i]`) at `x[i]`, in `N` lanes; the lanes `skip` masks
/// out come back unspecified. See [`Lentz`].
fn beta_cf<const N: usize>(a: [f64; N], b: [f64; N], x: [f64; N], skip: [bool; N]) -> [f64; N] {
    let d = std::array::from_fn(|i| 1.0 / not_tiny(1.0 - (a[i] + b[i]) * x[i] / (a[i] + 1.0)));
    let mut cf = Lentz {
        a,
        b,
        x,
        c: [1.0; N],
        d,
        h: d,
        done: std::array::from_fn(|i| if skip[i] { !0 } else { 0 }),
    };
    cf.finish(1);
    cf.h
}

/// Lentz's guard against a vanishing denominator: one this close to 0
/// is taken as `FPMIN`. A select, not a branch.
#[inline(always)]
fn not_tiny(v: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    if v.abs() < FPMIN {
        FPMIN
    } else {
        v
    }
}

/// The continued fraction's state in `N` lockstep lanes.
///
/// A round runs every lane's even and odd step. A lane that has
/// converged — `done` all ones — or that was masked out from the start
/// keeps its `c`, `d` and `h` by a bitwise select, and the FPMIN clamps
/// are selects too, so a round is branch-free. Lanes converge unevenly:
/// most stop after a few rounds while one often runs several more. So
/// once at most half the lanes are live, they move — state and round
/// number — into lanes half as wide (down to two) and carry on there.
/// A lane runs the same operations on the same operands at any width,
/// so where it runs moves no bit.
struct Lentz<const N: usize> {
    a: [f64; N],
    b: [f64; N],
    x: [f64; N],
    c: [f64; N],
    d: [f64; N],
    h: [f64; N],
    done: [u64; N],
}

impl<const N: usize> Lentz<N> {
    /// Rounds a lane runs at most.
    const MAX_ITER: usize = 300;

    fn live(&self) -> usize {
        self.done.iter().filter(|&&done| done == 0).count()
    }

    /// Run every lane until it converges or round `MAX_ITER` ends,
    /// from round `m` on.
    fn finish(&mut self, m: usize) {
        if N > 4 {
            let m = self.rounds(m, 4);
            self.narrow::<4>(m);
        } else if N > 2 {
            let m = self.rounds(m, 2);
            self.narrow::<2>(m);
        } else {
            self.rounds(m, 0);
        }
    }

    /// Run rounds from `m` on while more than `live` lanes are live;
    /// returns the next round's number.
    fn rounds(&mut self, mut m: usize, live: usize) -> usize {
        const EPS: f64 = 3e-16;
        let keep = |done: u64, old: f64, new: f64| {
            f64::from_bits((old.to_bits() & done) | (new.to_bits() & !done))
        };
        while m <= Self::MAX_ITER && self.live() > live {
            let (mf, m2) = (m as f64, 2.0 * m as f64);
            for i in 0..N {
                let (a, b, x) = (self.a[i], self.b[i], self.x[i]);
                let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
                // Even step.
                let aa = mf * (b - mf) * x / ((qam + m2) * (a + m2));
                let d_even = 1.0 / not_tiny(1.0 + aa * self.d[i]);
                let c_even = not_tiny(1.0 + aa / self.c[i]);
                let h_even = self.h[i] * (d_even * c_even);
                // Odd step.
                let aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2));
                let d_odd = 1.0 / not_tiny(1.0 + aa * d_even);
                let c_odd = not_tiny(1.0 + aa / c_even);
                let del = d_odd * c_odd;
                let done = self.done[i];
                self.c[i] = keep(done, self.c[i], c_odd);
                self.d[i] = keep(done, self.d[i], d_odd);
                self.h[i] = keep(done, self.h[i], h_even * del);
                self.done[i] = done | if (del - 1.0).abs() < EPS { !0 } else { 0 };
            }
            m += 1;
        }
        m
    }

    /// Finish the live lanes — at most `M` of them — in `M` lanes, from
    /// round `m` on.
    fn narrow<const M: usize>(&mut self, m: usize) {
        if m > Self::MAX_ITER || self.live() == 0 {
            return;
        }
        let mut narrow = Lentz {
            a: [1.0; M],
            b: [1.0; M],
            x: [0.5; M],
            c: [1.0; M],
            d: [1.0; M],
            h: [1.0; M],
            done: [!0; M],
        };
        let mut from = [0; M];
        let mut n = 0;
        for i in (0..N).filter(|&i| self.done[i] == 0) {
            from[n] = i;
            narrow.a[n] = self.a[i];
            narrow.b[n] = self.b[i];
            narrow.x[n] = self.x[i];
            narrow.c[n] = self.c[i];
            narrow.d[n] = self.d[i];
            narrow.h[n] = self.h[i];
            narrow.done[n] = 0;
            n += 1;
        }
        narrow.finish(m);
        for (&i, &h) in from[..n].iter().zip(&narrow.h) {
            self.h[i] = h;
        }
    }
}

/// Most steps one solve takes — and so the trail's length.
const MAX_STEPS: usize = 100;

/// One quantile solve in flight: its target, its bracket, the iterate
/// it stands on and how many steps it has taken.
#[derive(Debug, Clone, Copy)]
struct Solve {
    p: f64,
    lo: f64,
    hi: f64,
    it: Iterate,
    step: usize,
}

/// What a solve needs next.
enum Step {
    /// It has ended on this quantile.
    Done(f64),
    /// Its next iterate is at this `x`, which the trail does not hold.
    Evaluate(f64),
}

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
///
/// The step control is [`BetaNewton::advance`], which runs a solve up
/// to its next evaluation; who evaluates is the caller's choice — the
/// lone [`BetaNewton::solve`] one iterate at a time, the lanes of
/// [`inv_inc_beta_rows`] eight rows' iterates at once.
#[derive(Debug)]
struct BetaNewton {
    shape: Shape,
    /// The iterate at [`Shape::start_x`]. Evaluated once, it serves any
    /// number of targets.
    start: Iterate,
    /// `trail[i]` is the iterate some solve reached after `i + 1` steps.
    trail: [Iterate; MAX_STEPS],
    /// CDF evaluations run so far, the start point's included.
    evals: u64,
}

impl BetaNewton {
    /// A solver of no distribution yet: what an idle lane holds.
    const BLANK: Self = Self {
        shape: Shape::PAD,
        start: Iterate::EMPTY,
        trail: [Iterate::EMPTY; MAX_STEPS],
        evals: 0,
    };

    /// A solver for Beta(a, b) with an empty trail.
    fn new(a: f64, b: f64) -> Self {
        let shape = Shape::new(a, b);
        let mut newton = Self {
            shape,
            ..Self::BLANK
        };
        newton.restart(Iterate::at(&shape, shape.start_x()));
        newton
    }

    /// Empty the trail, given the iterate at the start point of the
    /// solver's shape.
    fn restart(&mut self, start: Iterate) {
        self.start = start;
        self.trail = [Iterate::EMPTY; MAX_STEPS];
        self.evals = 1;
    }

    /// A solve of `I_x(a, b) = p` from the start point. A target at or
    /// past an end of `[0, 1]` is a solve that has already ended there.
    fn begin(&self, p: f64) -> Solve {
        let (it, step) = if p <= 0.0 {
            (
                Iterate {
                    x: 0.0,
                    ..self.start
                },
                MAX_STEPS,
            )
        } else if p >= 1.0 {
            (
                Iterate {
                    x: 1.0,
                    ..self.start
                },
                MAX_STEPS,
            )
        } else {
            (self.start, 0)
        };
        Solve {
            p,
            lo: 0.0,
            hi: 1.0,
            it,
            step,
        }
    }

    /// Run `s` — a bracketed Newton iteration (the beta pdf is the
    /// derivative; a bisection fallback keeps it unconditionally
    /// convergent; accuracy ~1e-12 in `x`) — until it ends or its next
    /// step lands on an `x` the trail does not hold at that step.
    /// Trail hits are taken on the way.
    fn advance(&self, s: &mut Solve) -> Step {
        while s.step < MAX_STEPS {
            let f = s.it.cdf - s.p;
            // Selects, not branches: which side the iterate falls on is
            // a coin toss to the branch predictor.
            let above = f > 0.0;
            s.hi = if above { s.it.x } else { s.hi };
            s.lo = if above { s.lo } else { s.it.x };
            if f.abs() < 1e-14 {
                return Step::Done(s.it.x);
            }
            // A Newton step outside the bracket — or not finite, which
            // fails both comparisons — bisects instead.
            let newton = s.it.x - f / s.it.pdf;
            let inside = newton > s.lo && newton < s.hi;
            let next = if inside { newton } else { 0.5 * (s.lo + s.hi) };
            if (next - s.it.x).abs() < 1e-15 {
                return Step::Done(next);
            }
            let slot = self.trail[s.step];
            if slot.x.to_bits() != next.to_bits() {
                return Step::Evaluate(next);
            }
            s.it = slot;
            s.step += 1;
        }
        Step::Done(s.it.x)
    }

    /// Take `it`, evaluated at the `x` that [`BetaNewton::advance`] last
    /// asked for, as `s`'s next iterate, and keep it on the trail.
    fn record(&mut self, s: &mut Solve, it: Iterate) {
        self.trail[s.step] = it;
        self.evals += 1;
        s.it = it;
        s.step += 1;
    }

    /// Solve `I_x(a, b) = p`, one evaluation at a time.
    fn solve(&mut self, p: f64) -> f64 {
        let mut s = self.begin(p);
        loop {
            match self.advance(&mut s) {
                Step::Done(q) => return q,
                Step::Evaluate(x) => {
                    let it = Iterate::at(&self.shape, x);
                    self.record(&mut s, it);
                }
            }
        }
    }
}

/// Inverse of the regularized incomplete beta: the Beta(a, b) quantile
/// — one `BetaNewton::solve` with an empty trail.
pub fn inv_inc_beta(p: f64, a: f64, b: f64) -> f64 {
    BetaNewton::new(a, b).solve(p)
}

/// Rows of a block that [`inv_inc_beta_rows`] solves side by side.
const ROW_LANES: usize = 8;

/// What one lane of [`inv_inc_beta_rows`] is doing.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// The block has no rows left for it.
    Idle,
    /// Its row's start point at this `x` awaits evaluation.
    Start(f64),
    /// It is solving its row's abscissa `k`.
    Cell { k: usize, solve: Solve },
}

/// One lane: a row's solver and trail, and where it stands.
#[derive(Debug)]
struct Lane {
    newton: BetaNewton,
    /// The row the lane solves, as an index into the block.
    row: usize,
    phase: Phase,
}

impl Lane {
    /// Take the block's next row, or go idle when there is none.
    fn load(&mut self, rows: &mut impl Iterator<Item = (usize, (f64, f64))>) {
        self.phase = match rows.next() {
            Some((row, (a, b))) => {
                self.row = row;
                self.newton.shape = Shape::new(a, b);
                Phase::Start(self.newton.shape.start_x())
            }
            None => Phase::Idle,
        };
    }

    /// Run the lane until it needs an iterate — its `x` — refilling
    /// from `rows` whenever its row ends, writing every finished cell
    /// to `out` and adding every finished row's evaluations to `evals`.
    /// `None` once the block has no rows left for it.
    fn next_x(
        &mut self,
        rows: &mut impl Iterator<Item = (usize, (f64, f64))>,
        ps: &[f64],
        out: &mut [f64],
        evals: &mut u64,
    ) -> Option<f64> {
        loop {
            let (k, next_p) = match &mut self.phase {
                Phase::Idle => return None,
                Phase::Start(x) => return Some(*x),
                Phase::Cell { k, solve } => match self.newton.advance(solve) {
                    Step::Evaluate(x) => return Some(x),
                    Step::Done(q) => {
                        out[self.row * ps.len() + *k] = q;
                        (*k + 1, ps.get(*k + 1))
                    }
                },
            };
            match next_p {
                Some(&p) => {
                    let solve = self.newton.begin(p);
                    self.phase = Phase::Cell { k, solve };
                }
                None => {
                    *evals += self.newton.evals;
                    self.load(rows);
                }
            }
        }
    }

    /// Hand the lane the iterate at the `x` it asked for.
    fn deliver(&mut self, it: Iterate, ps: &[f64]) {
        match &mut self.phase {
            Phase::Start(_) => {
                self.newton.restart(it);
                let solve = self.newton.begin(ps[0]);
                self.phase = Phase::Cell { k: 0, solve };
            }
            Phase::Cell { solve, .. } => self.newton.record(solve, it),
            Phase::Idle => unreachable!("an idle lane asked for no iterate"),
        }
    }
}

/// `out[r · g + k] = inv_inc_beta(ps[k], a_r, b_r)` for every row
/// `(a_r, b_r)` of `shapes` and every abscissa (`g = ps.len()`), bit
/// for bit; returns the CDF evaluations run, every row's start point
/// included (none without abscissae).
///
/// Each row is one [`BetaNewton`] solving its abscissae in order over
/// its own trail, exactly as a lone solver would. Eight lanes run eight
/// rows: each lane advances its solve until it needs an iterate the
/// trail does not hold, and once every live lane has asked, the round's
/// iterates are evaluated together by [`iterates`]. A lane whose row
/// ends takes the block's next row at once; lanes go idle only when
/// no row is left. Only asked-for iterates are evaluated and counted,
/// so the count is the sum of the rows' lone counts.
///
/// # Panics
/// If `out` is shorter than `shapes` × `ps`.
pub(crate) fn inv_inc_beta_rows(
    shapes: impl IntoIterator<Item = (f64, f64)>,
    ps: &[f64],
    out: &mut [f64],
) -> u64 {
    if ps.is_empty() {
        return 0;
    }
    let mut rows = shapes.into_iter().enumerate();
    let mut lanes: [Lane; ROW_LANES] = std::array::from_fn(|_| Lane {
        newton: BetaNewton::BLANK,
        row: 0,
        phase: Phase::Idle,
    });
    for lane in &mut lanes {
        lane.load(&mut rows);
    }
    let mut evals = 0;
    loop {
        let mut shape = [Shape::PAD; ROW_LANES];
        let mut x = [0.5; ROW_LANES];
        let mut asking = [0usize; ROW_LANES];
        let mut n = 0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            if let Some(lane_x) = lane.next_x(&mut rows, ps, out, &mut evals) {
                (shape[n], x[n], asking[n]) = (lane.newton.shape, lane_x, l);
                n += 1;
            }
        }
        if n == 0 {
            return evals;
        }
        let its = iterates(&shape, &x, n);
        for (&l, &it) in asking[..n].iter().zip(&its) {
            lanes[l].deliver(it, ps);
        }
    }
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
        Iterate::at(&Shape::new(a, b), x).cdf
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
