//! Dependence between risk factors: a small dense correlation-matrix
//! type with Cholesky factorisation, and the Iman–Conover method for
//! inducing a target rank correlation on independently simulated
//! marginal samples.
//!
//! Iman–Conover is the standard DFA tool because it is
//! distribution-free: each factor keeps its exact marginal (the values
//! are only *reordered*), while the reordering imposes the desired
//! Spearman correlation structure.
//!
//! # What may run in pieces, and what may not
//!
//! Iman–Conover hands its independent pieces to a [`TaskMap`] (the
//! session's pool under [`DfaEngine::simulate_factors`], [`serial_map`]
//! under [`iman_conover`]) as disjoint slices of buffers allocated at
//! final size, and must return the same bits whatever that map does
//! with them:
//!
//! * **Chunk-addressable** (cut at fixed [`TASK_CHUNK`] row
//!   boundaries): the van der Waerden scores — `normal_icdf(i / (n+1))`
//!   is a function of the row index alone; a chunk writes its plotting
//!   positions and inverts them in place, eight lanes at a time, with
//!   the scalar quantile's bits — and the `M·A` product, kept
//!   column-major and cut per (column, row chunk): element `(r, c)`
//!   reads row `r` of `M` and column `c` of the k×k matrix `A`, its own
//!   k-term sum in a fixed order.
//! * **Column-addressable** (one task per column, 2k in all): the k
//!   sorts of the data columns, in place, ride in the same map call as
//!   the `M·A` chunks — they read nothing else, and only the sorted
//!   order is used afterwards. Then step 4 runs k tasks, each sorting
//!   one score column's `(score, row)` pairs and writing every tie
//!   group's data value straight over that score column, which becomes
//!   the output. Column `c` reads nothing of column `c'`; both sorts use
//!   `total_cmp`, so ties are bit-equal, neither the sorted data nor the
//!   tie groups depend on how the sort broke them, and a group's value
//!   depends only on its sorted positions.
//! * **Order-bound, always serial:** the k Fisher–Yates shuffles draw
//!   from *one* sequential `Pcg64` — column `c`'s permutation starts
//!   where column `c − 1`'s stopped, so neither the columns nor the
//!   swaps within one can be reordered — and the k(k+1)/2 distinct
//!   score-correlation entries (the matrix is symmetric; the lower
//!   triangle mirrors the upper) are each a running floating-point sum
//!   over all `n` rows: splitting a sum into per-chunk partials changes
//!   its rounding.
//!   Both are O(n·k) with tiny constants next to the pieces above.
//!
//! [`DfaEngine::simulate_factors`]: crate::DfaEngine::simulate_factors

use riskpipe_types::rng::{Pcg64, Rng64};
use riskpipe_types::special::normal_icdf_in_place;
use riskpipe_types::{RiskError, RiskResult};

/// A symmetric positive-definite correlation matrix (dense, small k).
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationMatrix {
    k: usize,
    /// Row-major k×k entries.
    data: Vec<f64>,
}

impl CorrelationMatrix {
    /// The identity (independence) matrix of dimension `k`.
    pub fn identity(k: usize) -> Self {
        let mut data = vec![0.0; k * k];
        for i in 0..k {
            data[i * k + i] = 1.0;
        }
        Self { k, data }
    }

    /// Build from row-major entries, validating symmetry, the unit
    /// diagonal and positive-definiteness (via Cholesky).
    pub fn new(k: usize, data: Vec<f64>) -> RiskResult<Self> {
        if data.len() != k * k {
            return Err(RiskError::invalid("correlation matrix size mismatch"));
        }
        let m = Self { k, data };
        for i in 0..k {
            if (m.get(i, i) - 1.0).abs() > 1e-12 {
                return Err(RiskError::invalid("diagonal must be 1"));
            }
            for j in 0..i {
                if (m.get(i, j) - m.get(j, i)).abs() > 1e-12 {
                    return Err(RiskError::invalid("matrix must be symmetric"));
                }
                if m.get(i, j).abs() > 1.0 {
                    return Err(RiskError::invalid("correlations must be in [-1,1]"));
                }
            }
        }
        m.cholesky()?; // PD check
        Ok(m)
    }

    /// A matrix with a single off-diagonal value everywhere
    /// (exchangeable correlation).
    pub fn exchangeable(k: usize, rho: f64) -> RiskResult<Self> {
        let mut data = vec![rho; k * k];
        for i in 0..k {
            data[i * k + i] = 1.0;
        }
        Self::new(k, data)
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.k
    }

    /// Entry (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.k + j]
    }

    /// Lower-triangular Cholesky factor `L` with `L Lᵀ = Σ`.
    fn cholesky(&self) -> RiskResult<Vec<f64>> {
        let k = self.k;
        let mut l = vec![0.0f64; k * k];
        for i in 0..k {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for p in 0..j {
                    sum -= l[i * k + p] * l[j * k + p];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(RiskError::invalid(
                            "correlation matrix is not positive definite",
                        ));
                    }
                    l[i * k + i] = sum.sqrt();
                } else {
                    l[i * k + j] = sum / l[j * k + j];
                }
            }
        }
        Ok(l)
    }
}

/// Invert a lower-triangular matrix (row-major k×k).
fn invert_lower(l: &[f64], k: usize) -> Vec<f64> {
    let mut inv = vec![0.0f64; k * k];
    for i in 0..k {
        inv[i * k + i] = 1.0 / l[i * k + i];
        for j in 0..i {
            let mut sum = 0.0;
            for p in j..i {
                sum += l[i * k + p] * inv[p * k + j];
            }
            inv[i * k + j] = -sum / l[i * k + i];
        }
    }
    inv
}

/// Rows (or trials) per task wherever the factor block is cut into
/// independent pieces. Fixed — never derived from a thread count — so
/// the pieces, and with them every bit of the result, are the same on
/// any pool.
pub const TASK_CHUNK: usize = 8_192;

/// How the factor block runs its independent pieces: `map(slices,
/// task)` calls `task(i, slices[i])` once for every `i` — in any order,
/// on any threads. The caller cuts the slices (disjoint pieces of the
/// output, mostly [`TASK_CHUNK`] rows each), so every task writes its
/// result in place at final size. Taking this as a parameter keeps the
/// crate free of a thread-pool dependency; the session hands each slice
/// to its own pool task, everything else passes [`serial_map`].
pub type TaskMap<'a> = dyn Fn(&mut [&mut [f64]], &(dyn Fn(usize, &mut [f64]) + Sync)) + 'a;

/// The in-order, single-threaded [`TaskMap`].
pub fn serial_map(slices: &mut [&mut [f64]], task: &(dyn Fn(usize, &mut [f64]) + Sync)) {
    for (i, slice) in slices.iter_mut().enumerate() {
        task(i, slice);
    }
}

/// Reorder `columns` in place so their Spearman rank correlation
/// approximates `target`, preserving each column's marginal exactly
/// (Iman & Conover, 1982).
///
/// All columns must share the same length `n`, with more rows than
/// columns (`n > columns.len()`: the score sample's correlation must
/// have full rank); `columns.len()` must equal `target.dim()`.
pub fn iman_conover(
    columns: &mut [Vec<f64>],
    target: &CorrelationMatrix,
    seed: u64,
) -> RiskResult<()> {
    iman_conover_on(columns, target, seed, &serial_map)
}

/// [`iman_conover`] with its independent pieces run through `map`; the
/// result is bit-identical for every conforming [`TaskMap`] (see the
/// module docs for which pieces those are).
pub(crate) fn iman_conover_on(
    columns: &mut [Vec<f64>],
    target: &CorrelationMatrix,
    seed: u64,
    map: &TaskMap<'_>,
) -> RiskResult<()> {
    let k = columns.len();
    if k != target.dim() {
        return Err(RiskError::invalid(format!(
            "{} columns but target correlation is {}x{}",
            k,
            target.dim(),
            target.dim()
        )));
    }
    if k == 0 {
        return Ok(());
    }
    let n = columns[0].len();
    if columns.iter().any(|c| c.len() != n) {
        return Err(RiskError::invalid("columns must have equal length"));
    }
    if n <= k {
        // With n ≤ k rows the k score columns are linearly dependent,
        // their sample correlation is singular and step 3's Cholesky
        // would fail — blaming a matrix the caller never supplied.
        return Err(RiskError::invalid(format!(
            "Iman–Conover needs more rows than columns: {n} rows for {k} columns"
        )));
    }
    let chunks = n.div_ceil(TASK_CHUNK);

    // 1. Score matrix: van der Waerden scores, independently shuffled
    //    per column (row-major n×k). The scores are a pure function of
    //    the row index; the shuffles share one sequential generator.
    let mut base_scores = vec![0.0f64; n];
    map(
        &mut base_scores.chunks_mut(TASK_CHUNK).collect::<Vec<_>>(),
        &|i, out| {
            for (r, score) in (i * TASK_CHUNK..).zip(out.iter_mut()) {
                *score = (r + 1) as f64 / (n + 1) as f64;
            }
            normal_icdf_in_place(out);
        },
    );
    let mut rng = Pcg64::new(seed);
    let mut m = vec![0.0f64; n * k];
    for c in 0..k {
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher–Yates.
        for i in (1..n).rev() {
            let j = rng.next_below(i as u32 + 1) as usize;
            perm.swap(i, j);
        }
        for r in 0..n {
            m[r * k + c] = base_scores[perm[r]];
        }
    }
    drop(base_scores);

    // 2. Current correlation of the scores. Each entry is one running
    //    sum over all rows, in row order. The matrix is symmetric and
    //    IEEE `×` commutes, so entry (b, a) is entry (a, b)'s bits: the
    //    upper triangle is summed and mirrored.
    let mut cur = vec![0.0f64; k * k];
    for a in 0..k {
        for b in a..k {
            let mut s = 0.0;
            for r in 0..n {
                s += m[r * k + a] * m[r * k + b];
            }
            cur[a * k + b] = s / (n as f64 - 1.0);
            cur[b * k + a] = cur[a * k + b];
        }
    }
    // Normalise to a unit diagonal (scores are near-unit variance).
    let mut cur_norm = CorrelationMatrix::identity(k);
    for a in 0..k {
        for b in 0..k {
            cur_norm.data[a * k + b] =
                cur[a * k + b] / (cur[a * k + a].sqrt() * cur[b * k + b].sqrt());
        }
    }

    // 3. Transform: M* = M (Q⁻¹)ᵀ Tᵀ with Q = chol(cur), T = chol(target).
    // n > k makes a singular score sample unlikely, not impossible (two
    // columns can draw the same permutation when n is tiny): name it,
    // so the target matrix is not blamed for it.
    let q = cur_norm.cholesky().map_err(|_| {
        RiskError::invalid(format!(
            "Iman–Conover's shuffled score sample ({n} rows x {k} columns) is \
             rank-deficient under this seed; use more rows"
        ))
    })?;
    let t = target.cholesky()?;
    let q_inv = invert_lower(&q, k);
    // A = (Q⁻¹)ᵀ Tᵀ, i.e. A[p][c] = Σ_w q_inv[w][p] * t[c][w].
    let mut a = vec![0.0f64; k * k];
    for p in 0..k {
        for c in 0..k {
            let mut s = 0.0;
            for w in 0..k {
                s += q_inv[w * k + p] * t[c * k + w];
            }
            a[p * k + c] = s;
        }
    }
    // M* is kept column-major, one score column per data column:
    // element (r, c) reads row r of M only, so one task per (column,
    // row chunk). The data columns' sorts (step 4's first half) ride
    // along, one task each: they read nothing else, and only their
    // sorted order is used.
    let mut scores = vec![vec![0.0f64; n]; k];
    let mut slices: Vec<&mut [f64]> = scores
        .iter_mut()
        .flat_map(|column| column.chunks_mut(TASK_CHUNK))
        .collect();
    slices.extend(columns.iter_mut().map(Vec::as_mut_slice));
    map(&mut slices, &|i, out| {
        if i >= k * chunks {
            out.sort_unstable_by(f64::total_cmp);
            return;
        }
        let c = i / chunks;
        for (r, o) in ((i % chunks) * TASK_CHUNK..).zip(out) {
            let mut s = 0.0;
            for p in 0..k {
                s += m[r * k + p] * a[p * k + c];
            }
            *o = s;
        }
    });
    drop(m);

    // 4. Reorder each data column to match the ranks of its score
    //    column: the smallest data value goes where the smallest score
    //    sits, and so on. Column c reads column c only: one task each,
    //    which sorts the column's (score, row) pairs once and writes
    //    each tie group's value straight over the scores, row by row.
    //    A group at sorted positions i..=j shares the 1-based average
    //    rank (i + j)/2 + 1, rounded as `stats::ranks` + `round` would.
    let sorted: &[Vec<f64>] = columns;
    let mut slices: Vec<&mut [f64]> = scores.iter_mut().map(Vec::as_mut_slice).collect();
    map(&mut slices, &|c, out| {
        let mut pairs: Vec<(f64, usize)> = out.iter().copied().zip(0..).collect();
        pairs.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
        let mut i = 0;
        while i < n {
            let mut j = i;
            while j + 1 < n && pairs[j + 1].0 == pairs[i].0 {
                j += 1;
            }
            let rank = (i + j) as f64 / 2.0 + 1.0;
            // rank 1 → smallest.
            let value = sorted[c][(rank.round() as usize - 1).min(n - 1)];
            for &(_, row) in &pairs[i..=j] {
                out[row] = value;
            }
            i = j + 1;
        }
    });
    for (column, reordered) in columns.iter_mut().zip(scores) {
        *column = reordered;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_types::dist::{Distribution, Exponential, LogNormal};
    use riskpipe_types::stats::spearman;

    #[test]
    fn identity_and_exchangeable_construct() {
        let id = CorrelationMatrix::identity(3);
        assert_eq!(id.get(0, 0), 1.0);
        assert_eq!(id.get(0, 1), 0.0);
        let ex = CorrelationMatrix::exchangeable(3, 0.5).unwrap();
        assert_eq!(ex.get(0, 1), 0.5);
        assert_eq!(ex.get(2, 2), 1.0);
    }

    #[test]
    fn invalid_matrices_rejected() {
        // Asymmetric.
        assert!(CorrelationMatrix::new(2, vec![1.0, 0.5, 0.4, 1.0]).is_err());
        // Bad diagonal.
        assert!(CorrelationMatrix::new(2, vec![2.0, 0.0, 0.0, 1.0]).is_err());
        // Not PD (rho = -1 exchangeable in 3 dims).
        assert!(CorrelationMatrix::exchangeable(3, -0.9).is_err());
        // Out of range.
        assert!(CorrelationMatrix::new(2, vec![1.0, 1.5, 1.5, 1.0]).is_err());
    }

    #[test]
    fn cholesky_reconstructs() {
        let m = CorrelationMatrix::exchangeable(3, 0.4).unwrap();
        let l = m.cholesky().unwrap();
        // L Lᵀ = Σ.
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for p in 0..3 {
                    s += l[i * 3 + p] * l[j * 3 + p];
                }
                assert!((s - m.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    fn sample_columns(n: usize) -> Vec<Vec<f64>> {
        let mut rng = Pcg64::new(77);
        let ln = LogNormal::from_mean_cv(100.0, 1.0);
        let ex = Exponential::new(0.01);
        let c0: Vec<f64> = ln.sample_n(&mut rng, n);
        let c1: Vec<f64> = ex.sample_n(&mut rng, n);
        let c2: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0).collect();
        vec![c0, c1, c2]
    }

    #[test]
    fn marginals_preserved_exactly() {
        let mut cols = sample_columns(2_000);
        let before: Vec<Vec<f64>> = cols
            .iter()
            .map(|c| {
                let mut s = c.clone();
                s.sort_unstable_by(f64::total_cmp);
                s
            })
            .collect();
        let target = CorrelationMatrix::exchangeable(3, 0.6).unwrap();
        iman_conover(&mut cols, &target, 9).unwrap();
        for (c, b) in cols.iter().zip(before.iter()) {
            let mut s = c.clone();
            s.sort_unstable_by(f64::total_cmp);
            assert_eq!(&s, b, "marginal changed");
        }
    }

    #[test]
    fn reordered_columns_are_pinned() {
        // Every bit of one Iman–Conover output: scores, shuffles, the
        // transform and the gather together.
        let mut cols = sample_columns(2_000);
        let target = CorrelationMatrix::exchangeable(3, 0.6).unwrap();
        iman_conover(&mut cols, &target, 9).unwrap();
        let mut fp = riskpipe_types::Fingerprint::new("dfa::iman_conover");
        for x in cols.iter().flatten() {
            fp.push_f64(*x);
        }
        assert_eq!(fp.finish(), 16_442_952_483_788_950_565);
    }

    #[test]
    fn induced_rank_correlation_near_target() {
        let mut cols = sample_columns(4_000);
        let target = CorrelationMatrix::exchangeable(3, 0.7).unwrap();
        iman_conover(&mut cols, &target, 4).unwrap();
        for a in 0..3 {
            for b in (a + 1)..3 {
                let r = spearman(&cols[a], &cols[b]);
                assert!((r - 0.7).abs() < 0.05, "spearman({a},{b}) = {r}, want ~0.7");
            }
        }
    }

    #[test]
    fn negative_correlation_works() {
        let mut cols = sample_columns(3_000);
        let target =
            CorrelationMatrix::new(3, vec![1.0, -0.5, 0.0, -0.5, 1.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        iman_conover(&mut cols, &target, 11).unwrap();
        let r01 = spearman(&cols[0], &cols[1]);
        let r02 = spearman(&cols[0], &cols[2]);
        assert!((r01 + 0.5).abs() < 0.06, "r01={r01}");
        assert!(r02.abs() < 0.06, "r02={r02}");
    }

    #[test]
    fn identity_target_leaves_near_independence() {
        let mut cols = sample_columns(3_000);
        iman_conover(&mut cols, &CorrelationMatrix::identity(3), 2).unwrap();
        for a in 0..3 {
            for b in (a + 1)..3 {
                assert!(spearman(&cols[a], &cols[b]).abs() < 0.06);
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut cols = sample_columns(100);
        let target = CorrelationMatrix::identity(2);
        assert!(iman_conover(&mut cols, &target, 1).is_err());
        let mut uneven = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(iman_conover(&mut uneven, &CorrelationMatrix::identity(2), 1).is_err());
    }

    #[test]
    fn too_few_rows_rejected_by_name() {
        // n ≤ k rows make the score sample rank-deficient; the error
        // must say so instead of calling the target "not positive
        // definite".
        let target = CorrelationMatrix::exchangeable(3, 0.5).unwrap();
        for n in 0..=3 {
            let mut cols = sample_columns(n);
            let msg = iman_conover(&mut cols, &target, 1).unwrap_err().to_string();
            assert!(
                msg.contains(&format!("{n} rows for 3 columns")),
                "n = {n}: {msg}"
            );
        }
        let mut cols = sample_columns(4);
        iman_conover(&mut cols, &target, 1).unwrap();
    }
}
