//! Secondary uncertainty: turning an occurrence's pre-simulated uniform
//! `z` into an event loss.
//!
//! An ELT row gives the loss distribution's mean, independent/correlated
//! sds and exposure. Industry practice models the *damage ratio*
//! `loss / exposure` as a Beta distribution moment-matched to
//! `(mean/exposure, sigma/exposure)`; the occurrence's loss is then
//! `exposure · F⁻¹_Beta(z)`.
//!
//! Because the beta quantile costs tens of incomplete-beta evaluations,
//! the table supports the interpolation scheme the GPU papers use:
//! pre-compute each row's quantile function on a fixed grid once, then
//! answer lookups with linear interpolation. The approximation is
//! monotone in `z` and identical across all engines (they share the
//! table), preserving cross-engine bit-equality.
//!
//! ## One descent per grid row, eight rows at a time
//!
//! A row's `g` inversions share their work. Each solve starts at the
//! mean inside the bracket `(0, 1)` and mostly bisects, so solves for
//! neighbouring abscissae walk the same ladder of iterates before they
//! part. The row's solves run in abscissa order over one trail of
//! iterates: when step `i` of a solve lands on an `x` with the same bits
//! as the trail's step `i`, the CDF and pdf there are read from the
//! trail, not evaluated. They are pure functions of the row's beta and
//! that `x`, so each cell is bit-identical to a lone `Beta::quantile`.
//! On the benchmark's models a 33-point row runs ≈ 4.5 CDF evaluations
//! per cell instead of ≈ 22 (`stage2.secondary_evals` counts them).
//!
//! What is left is a chain of dependent evaluations per row, so rows
//! run side by side: a task's block of rows is one call,
//! [`Beta::quantile_rows`], which solves eight rows in lanes. Each lane
//! keeps its own row's trail and step control; once every busy lane
//! needs an evaluation, the eight are evaluated together (each libm
//! call once per lane in a loop, the continued fraction in lockstep),
//! and a lane whose row ends takes the block's next row at once. A
//! lane runs exactly the operations of a lone solve, so the cells and
//! the evaluation count are what one solver per row produces.
//!
//! ## Who builds the table, and when
//!
//! A table is a pure function of `(ELT, QuantileMode)` — layer terms
//! never enter it — so it belongs to the *model run*, not to the
//! analysis run. It is also not what the engines read: tables are the
//! *input* of [`EventJoin::build`](crate::EventJoin::build), which
//! moves their rows into event-major hit order and drops them.
//! `RiskSession` obtains one table per book and joins them **once per
//! cached model run**: the stage-1 cache leader does both on the
//! session's pool right after the model run is built or decoded from
//! the disk tier, retains the join beside the `Stage1Output` under the
//! same LRU/byte budget, and every scenario sharing the `stage1_key`
//! reads it through the engines' prepared entry point
//! ([`AggregateEngine::run_prepared`](crate::AggregateEngine::run_prepared)).
//! Only the options-taking `run(.., opts)` convenience builds tables
//! and a join itself, once per call, on the engine's own pool.
//!
//! "Obtains", because a table has a cheap part and an expensive part.
//! Exposure and the per-row betas are a handful of flops per ELT row;
//! the interpolation grid is `rows × g` Newton inversions and is
//! essentially the whole build. So the grid — and only the grid — is
//! what a tier-attached session persists: after
//! [`SecondaryTable::build_books_on`] (every book's rows in one parallel
//! loop) the leader appends each book's grid to
//! the key's disk entry ([`SecondaryTable::encode_grid_into`], one
//! CRC-checked frame per book), and a later process that decodes the
//! entry calls [`SecondaryTable::adopt_grid`] instead of building:
//! the cheap part recomputed from the decoded ELT, the grid taken from
//! the frame after checking it is one a build over that ELT could have
//! produced. The adopted table is the built one bit for bit, and the
//! join is rebuilt from it exactly as after a build — no join structure
//! is ever serialised. Exact mode has no grid and persists nothing.

use riskpipe_exec::{par_chunks_mut, suggest_grain, ThreadPool};
use riskpipe_tables::codec::{self, FrameWriter, QuantileGrid, TableKind};
use riskpipe_tables::Elt;
use riskpipe_types::dist::Beta;
use riskpipe_types::{RiskError, RiskResult};
use std::sync::atomic::{AtomicU64, Ordering};

/// How beta quantiles are evaluated at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileMode {
    /// Exact inverse incomplete beta per lookup (slow, reference).
    Exact,
    /// Pre-tabulated quantiles at `n` grid points, linear interpolation
    /// between them (the GPU-paper scheme). `n >= 2`.
    Interpolated(u32),
}

impl QuantileMode {
    /// Grid points per row a table built under this mode tabulates —
    /// `None` for [`QuantileMode::Exact`], which has no grid.
    pub fn grid_points(self) -> Option<usize> {
        match self {
            QuantileMode::Exact => None,
            QuantileMode::Interpolated(g) => Some(g.max(2) as usize),
        }
    }
}

impl Default for QuantileMode {
    fn default() -> Self {
        // 33 points keeps the grid cache-friendly (264 B/row) while the
        // interpolation error stays ~1e-3 of exposure in the body.
        QuantileMode::Interpolated(33)
    }
}

/// Where a uniform `z` falls on a `g`-point quantile grid with
/// abscissae `u_k = (k + 0.5) / g`. It depends on `z` and `g` alone, so
/// the joined kernel locates it once per occurrence and reads every
/// hit's row through it; [`SecondaryTable::loss`] locates it per lookup.
/// Both go through these two functions, so the arithmetic — and the
/// bits — cannot drift apart.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GridCell {
    /// At or below the first abscissa: the row's first cell.
    First,
    /// At or beyond the last abscissa: the row's last cell.
    Last,
    /// Between abscissae `k` and `k + 1`, a fraction `w` of the way.
    Between { k: usize, w: f64 },
}

impl GridCell {
    /// Invert `z` to a fractional grid index, clamped to the grid ends.
    #[inline]
    pub(crate) fn locate(z: f64, g: usize) -> Self {
        let pos = z * g as f64 - 0.5;
        if pos <= 0.0 {
            return GridCell::First;
        }
        let k = pos as usize;
        if k + 1 >= g {
            return GridCell::Last;
        }
        GridCell::Between {
            k,
            w: pos - k as f64,
        }
    }

    /// The linearly interpolated quantile from one row's `g` cells.
    #[inline]
    pub(crate) fn read(self, row: &[f64]) -> f64 {
        match self {
            GridCell::First => row[0],
            GridCell::Last => row[row.len() - 1],
            GridCell::Between { k, w } => row[k] * (1.0 - w) + row[k + 1] * w,
        }
    }
}

/// Per-ELT-row secondary-uncertainty parameters, precomputed once per
/// cached model run (see the module docs). Fields are crate-visible so
/// [`EventJoin::build`](crate::EventJoin::build) can move the rows out.
#[derive(Debug, Clone)]
pub struct SecondaryTable {
    pub(crate) exposure: Vec<f64>,
    /// Per-row beta parameters (exact mode).
    pub(crate) betas: Vec<Beta>,
    /// Interpolation grid (empty in exact mode): row-major
    /// `rows × grid_n` quantile values.
    pub(crate) grid: Vec<f64>,
    pub(crate) grid_n: usize,
    /// Beta CDF evaluations the grid's inversion ran (0 without one).
    cdf_evals: u64,
}

impl SecondaryTable {
    /// Build the table for an ELT on the global pool.
    pub fn build(elt: &Elt, mode: QuantileMode) -> Self {
        Self::build_on(elt, mode, riskpipe_exec::global_pool())
    }

    /// Build the table for an ELT, tabulating rows in parallel on
    /// `pool`: the one-book case of [`SecondaryTable::build_books_on`].
    pub fn build_on(elt: &Elt, mode: QuantileMode, pool: &ThreadPool) -> Self {
        Self::build_books_on([elt], mode, pool).remove(0)
    }

    /// One table per ELT, in order, every book's rows tabulated in one
    /// parallel loop on `pool` — so small books share tasks' worth of
    /// rows instead of each forking and joining on its own. The tables
    /// are identical on any pool and thread count.
    pub fn build_books_on<'a>(
        elts: impl IntoIterator<Item = &'a Elt>,
        mode: QuantileMode,
        pool: &ThreadPool,
    ) -> Vec<Self> {
        let elts: Vec<&Elt> = elts.into_iter().collect();
        let betas: Vec<Vec<Beta>> = elts.iter().map(|elt| row_betas(elt)).collect();
        let g = mode.grid_points().unwrap_or(0);
        let mut grids: Vec<Vec<f64>> = betas.iter().map(|b| vec![0.0f64; b.len() * g]).collect();
        let cdf_evals: Vec<AtomicU64> = elts.iter().map(|_| AtomicU64::new(0)).collect();
        if g > 0 {
            // Grid over (0,1) excluding the exact endpoints:
            // u_k = (k + 0.5) / g keeps quantiles finite.
            let us: Vec<f64> = (0..g).map(|k| (k as f64 + 0.5) / g as f64).collect();
            // Each row's grid is independent and the Newton inversions
            // dominate the build, so tasks tabulate disjoint row blocks
            // of one book straight into that book's allocation, one
            // `quantile_rows` call per block (row `i` always lands at
            // `i * g`, so the table, and thus every engine's output, is
            // deterministic). A book's evaluation count is a sum of
            // per-row counts, so it too is the same on any split.
            let rows: usize = betas.iter().map(Vec::len).sum();
            let rows_per_task = suggest_grain(rows, pool.thread_count(), 8);
            let mut blocks: Vec<(usize, usize, &mut [f64])> = grids
                .iter_mut()
                .enumerate()
                .flat_map(|(book, grid)| {
                    grid.chunks_mut(rows_per_task * g)
                        .enumerate()
                        .map(move |(i, block)| (book, i * rows_per_task, block))
                })
                .collect();
            par_chunks_mut(pool, &mut blocks, 1, |_, task| {
                for (book, first, block) in task {
                    let rows = &betas[*book][*first..*first + block.len() / g];
                    let evals = Beta::quantile_rows(rows, &us, block);
                    cdf_evals[*book].fetch_add(evals, Ordering::Relaxed);
                }
            });
        }
        elts.into_iter()
            .zip(betas)
            .zip(grids)
            .zip(cdf_evals)
            .map(|(((elt, betas), grid), cdf_evals)| Self {
                exposure: elt.columns().4.to_vec(),
                betas,
                grid,
                grid_n: g,
                cdf_evals: cdf_evals.into_inner(),
            })
            .collect()
    }

    /// Grid points per row (0 in exact mode).
    pub fn grid_points(&self) -> usize {
        self.grid_n
    }

    /// Beta CDF evaluations [`SecondaryTable::build_on`] ran to invert
    /// this table's grid, each row's start point included — what the
    /// `stage2.secondary_evals` counter sums. 0 for an adopted grid
    /// and in exact mode.
    pub fn cdf_evals(&self) -> u64 {
        self.cdf_evals
    }

    /// Append the table's grid to `out` as one CRC-checked
    /// [`codec::TableKind::QuantileGrid`] frame — the expensive part of
    /// the table, and the only part [`SecondaryTable::adopt_grid`] does
    /// not recompute. An exact-mode table has no grid and appends
    /// nothing.
    pub fn encode_grid_into(&self, out: &mut Vec<u8>) {
        if self.grid_n > 0 {
            let mut w = FrameWriter::new(out, TableKind::QuantileGrid);
            QuantileGrid::put_cells(&mut w, self.grid_n, &self.grid);
            w.finish();
        }
    }

    /// The table for `elt` around the grid frame at the front of `data`
    /// instead of a fresh inversion; returns it and the bytes consumed.
    /// Exposure and betas are recomputed from the ELT, so a table
    /// adopted from the bytes [`SecondaryTable::encode_grid_into`] wrote
    /// for the same ELT equals the built one bit for bit.
    ///
    /// # Errors
    /// [`RiskError::Corrupt`] unless the frame verifies and holds what a
    /// build over this ELT could have produced: one row per ELT row, at
    /// least two points per row, every cell a damage-ratio quantile —
    /// finite and in `[0, 1]`. (Which grid size the caller wants is the
    /// caller's check: [`SecondaryTable::grid_points`].)
    pub fn adopt_grid(elt: &Elt, data: &[u8]) -> RiskResult<(Self, usize)> {
        let (frame, used) = codec::decode_prefix::<QuantileGrid>(data)?;
        if frame.rows != elt.len() || frame.g < 2 {
            return Err(RiskError::corrupt(format!(
                "quantile grid of {} rows x {} points for an ELT of {} rows",
                frame.rows,
                frame.g,
                elt.len()
            )));
        }
        if let Some(i) = frame.cells.iter().position(|q| !(0.0..=1.0).contains(q)) {
            return Err(RiskError::corrupt(format!(
                "quantile grid cell {i} is {}, not a damage ratio",
                frame.cells[i]
            )));
        }
        let table = Self {
            exposure: elt.columns().4.to_vec(),
            betas: row_betas(elt),
            grid: frame.cells,
            grid_n: frame.g,
            cdf_evals: 0,
        };
        Ok((table, used))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.exposure.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.exposure.is_empty()
    }

    /// The loss for ELT row `row` at uniform `z`.
    #[inline]
    pub fn loss(&self, row: u32, z: f64) -> f64 {
        let r = row as usize;
        let dr = if self.grid_n == 0 {
            self.betas[r].quantile(z)
        } else {
            self.interp(r, z)
        };
        self.exposure[r] * dr
    }

    /// Linear interpolation into the row's quantile grid.
    #[inline]
    fn interp(&self, row: usize, z: f64) -> f64 {
        let g = self.grid_n;
        GridCell::locate(z, g).read(&self.grid[row * g..(row + 1) * g])
    }

    /// Heap footprint in bytes (the interpolation grid dominates).
    pub fn memory_bytes(&self) -> usize {
        self.exposure.len() * 8 + self.betas.len() * 16 + self.grid.len() * 8
    }
}

/// Each ELT row's damage-ratio beta, moment-matched to
/// `(mean / exposure, sigma / exposure)`.
fn row_betas(elt: &Elt) -> Vec<Beta> {
    let (_ids, mean, sigma_i, sigma_c, exposure) = elt.columns();
    (0..mean.len())
        .map(|i| {
            let sigma = (sigma_i[i] * sigma_i[i] + sigma_c[i] * sigma_c[i]).sqrt();
            Beta::from_mean_sd_clamped(mean[i] / exposure[i], sigma / exposure[i])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};
    use riskpipe_types::EventId;

    fn sample_elt() -> Elt {
        elt_of(20, 1_000.0)
    }

    /// `rows` rows of growing mean loss, `scale` per step.
    fn elt_of(rows: u32, scale: f64) -> Elt {
        let mut b = EltBuilder::new();
        for i in 1..=rows {
            let mean = scale * i as f64;
            b.push(EltRecord {
                event_id: EventId::new(i),
                mean_loss: mean,
                sigma_i: mean * 0.4,
                sigma_c: mean * 0.2,
                exposure: mean * 8.0,
            })
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn loss_monotone_in_z() {
        let elt = sample_elt();
        for mode in [QuantileMode::Exact, QuantileMode::Interpolated(33)] {
            let t = SecondaryTable::build(&elt, mode);
            for row in [0u32, 7, 19] {
                let mut prev = -1.0;
                for k in 1..100 {
                    let l = t.loss(row, k as f64 / 100.0);
                    assert!(l >= prev, "{mode:?} row {row} non-monotone");
                    prev = l;
                }
            }
        }
    }

    #[test]
    fn loss_bounded_by_exposure() {
        let elt = sample_elt();
        let t = SecondaryTable::build(&elt, QuantileMode::Exact);
        let (_, _, _, _, exposure) = elt.columns();
        for row in 0..elt.len() as u32 {
            for &z in &[0.001, 0.5, 0.999] {
                let l = t.loss(row, z);
                assert!(l >= 0.0);
                assert!(l <= exposure[row as usize]);
            }
        }
    }

    #[test]
    fn mean_of_quantiles_recovers_elt_mean() {
        // E[loss] = exposure * E[Beta] = exposure * mean_dr = mean_loss;
        // averaging the quantile over u approximates the expectation.
        let elt = sample_elt();
        let t = SecondaryTable::build(&elt, QuantileMode::Exact);
        let n = 2_000;
        let row = 4u32;
        let mut sum = 0.0;
        for k in 0..n {
            sum += t.loss(row, (k as f64 + 0.5) / n as f64);
        }
        let mean = sum / n as f64;
        let expect = elt.mean_loss_at(row);
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean {mean} vs elt {expect}"
        );
    }

    #[test]
    fn interpolated_tracks_exact() {
        let elt = sample_elt();
        let exact = SecondaryTable::build(&elt, QuantileMode::Exact);
        let interp = SecondaryTable::build(&elt, QuantileMode::Interpolated(65));
        let (_, _, _, _, exposure) = elt.columns();
        for row in 0..elt.len() as u32 {
            for k in 1..50 {
                let z = k as f64 / 50.0;
                let e = exact.loss(row, z);
                let i = interp.loss(row, z);
                assert!(
                    (e - i).abs() <= 0.02 * exposure[row as usize],
                    "row {row} z {z}: exact {e} vs interp {i}"
                );
            }
        }
    }

    #[test]
    fn extreme_z_clamps_to_grid_ends() {
        let elt = sample_elt();
        let t = SecondaryTable::build(&elt, QuantileMode::Interpolated(17));
        let near0 = t.loss(0, 1e-12);
        let near1 = t.loss(0, 1.0 - 1e-12);
        assert!(near0 >= 0.0);
        assert!(near1 >= near0);
    }

    #[test]
    fn grid_cells_are_the_rows_exact_quantiles_bitwise() {
        // The batched build kernel (one ln B(a, b) per row, rows
        // written in place by pool tasks) must tabulate exactly what a
        // per-cell `Beta::quantile` would, on any pool width.
        let elt = sample_elt();
        let (_, mean, sigma_i, sigma_c, exposure) = elt.columns();
        for g in [2usize, 17, 33] {
            let mode = QuantileMode::Interpolated(g as u32);
            let reference = SecondaryTable::build(&elt, mode);
            assert_eq!(reference.grid.len(), elt.len() * g);
            for row in 0..elt.len() {
                let sigma = (sigma_i[row] * sigma_i[row] + sigma_c[row] * sigma_c[row]).sqrt();
                let beta =
                    Beta::from_mean_sd_clamped(mean[row] / exposure[row], sigma / exposure[row]);
                for k in 0..g {
                    let want = beta.quantile((k as f64 + 0.5) / g as f64);
                    assert_eq!(
                        reference.grid[row * g + k].to_bits(),
                        want.to_bits(),
                        "g {g} row {row} cell {k}"
                    );
                }
            }
            for threads in [1usize, 3] {
                let pool = ThreadPool::new(threads);
                let t = SecondaryTable::build_on(&elt, mode, &pool);
                assert_eq!(t.grid, reference.grid, "g {g} on {threads} threads");
            }
        }
    }

    #[test]
    fn books_tabulated_in_one_loop_are_each_books_own_table() {
        // Blocks never straddle books, so a book's rows, its evaluation
        // count and its grid land where its lone build puts them —
        // whatever the pool cuts, and with books smaller than a task.
        let elts = [elt_of(20, 1_000.0), elt_of(3, 700.0), elt_of(41, 90.0)];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mode in [QuantileMode::Exact, QuantileMode::Interpolated(9)] {
            let alone: Vec<SecondaryTable> = elts
                .iter()
                .map(|elt| SecondaryTable::build_on(elt, mode, &ThreadPool::new(1)))
                .collect();
            for threads in [1usize, 2, 8] {
                let pool = ThreadPool::new(threads);
                let together = SecondaryTable::build_books_on(&elts, mode, &pool);
                assert_eq!(together.len(), elts.len());
                for (book, (t, a)) in together.iter().zip(&alone).enumerate() {
                    let what = format!("{mode:?}, book {book}, {threads} threads");
                    assert_eq!(bits(&t.grid), bits(&a.grid), "{what}");
                    assert_eq!(bits(&t.exposure), bits(&a.exposure), "{what}");
                    assert_eq!(t.betas, a.betas, "{what}");
                    assert_eq!(t.grid_points(), a.grid_points(), "{what}");
                    assert_eq!(t.cdf_evals(), a.cdf_evals(), "{what}");
                }
            }
        }
    }

    /// `rows` rows whose damage-ratio betas differ from row to row:
    /// exposure, spread and correlated share cycle with the row index.
    fn varied_elt(rows: u32, scale: f64) -> Elt {
        let mut b = EltBuilder::new();
        for i in 1..=rows {
            let mean = scale * i as f64;
            b.push(EltRecord {
                event_id: EventId::new(i),
                mean_loss: mean,
                sigma_i: mean * (0.1 + 0.15 * (i % 5) as f64),
                sigma_c: mean * 0.05 * (i % 3) as f64,
                exposure: mean * (1.5 + (i % 7) as f64),
            })
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn a_books_evaluation_count_is_the_sum_of_its_rows_lone_counts() {
        // Books of 5, 8, 9, 18, 11, 20, 14 and 23 rows: every remainder
        // mod 8 (one book smaller than a lane block), so blocks end with
        // lanes idle and padding, on every pool width.
        let sizes = [5u32, 8, 9, 18, 11, 20, 14, 23];
        let elts: Vec<Elt> = (1..)
            .zip(sizes)
            .map(|(k, rows)| varied_elt(rows, 50.0 * k as f64))
            .collect();
        let g = 33;
        let us: Vec<f64> = (0..g).map(|k| (k as f64 + 0.5) / g as f64).collect();
        // Each row alone: its start point plus the trail misses of its
        // own solves.
        let lone: Vec<u64> = elts
            .iter()
            .map(|elt| {
                let mut row = vec![0.0; g];
                row_betas(elt)
                    .iter()
                    .map(|beta| Beta::quantile_rows(std::slice::from_ref(beta), &us, &mut row))
                    .sum()
            })
            .collect();
        // What one scalar solver per row, over its own trail, counted on
        // these books: every evaluation a lane runs is one a lone solve
        // runs too, and none is run twice.
        assert_eq!(lone, [760, 1_221, 1_370, 2_684, 1_674, 2_993, 2_079, 3_437]);
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let tables =
                SecondaryTable::build_books_on(&elts, QuantileMode::Interpolated(33), &pool);
            let counts: Vec<u64> = tables.iter().map(SecondaryTable::cdf_evals).collect();
            assert_eq!(counts, lone, "{threads} threads");
        }
    }

    #[test]
    fn adopted_grid_is_the_built_table_bit_for_bit() {
        let elt = sample_elt();
        let built = SecondaryTable::build(&elt, QuantileMode::Interpolated(17));
        let mut bytes = vec![0xAA]; // frames append; they do not own `out`
        built.encode_grid_into(&mut bytes);
        let (adopted, used) = SecondaryTable::adopt_grid(&elt, &bytes[1..]).unwrap();
        assert_eq!(used, bytes.len() - 1);
        assert_eq!(adopted.grid_points(), 17);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&adopted.grid), bits(&built.grid));
        assert_eq!(bits(&adopted.exposure), bits(&built.exposure));
        assert_eq!(adopted.betas, built.betas);
        // Exact mode has no grid to persist.
        let mut none = Vec::new();
        SecondaryTable::build(&elt, QuantileMode::Exact).encode_grid_into(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn crc_valid_grids_no_build_could_produce_are_corrupt() {
        // The CRC vouches for the bytes, not for their meaning: every
        // frame here verifies, and none is adopted.
        let elt = sample_elt();
        let g = 5;
        let good: Vec<f64> = SecondaryTable::build(&elt, QuantileMode::Interpolated(g as u32)).grid;
        let grid = |g: usize, cells: &[f64]| {
            codec::encode(&QuantileGrid {
                rows: cells.len() / g,
                g,
                cells: cells.to_vec(),
            })
        };
        let patched = |cell: usize, value: f64| {
            let mut cells = good.clone();
            cells[cell] = value;
            grid(g, &cells)
        };
        let frames = [
            ("NaN cell", patched(7, f64::NAN)),
            ("cell above 1", patched(0, 1.5)),
            ("negative cell", patched(99, -1e-9)),
            ("infinite cell", patched(50, f64::INFINITY)),
            ("one row short", grid(g, &good[g..])),
            ("one-point grid", grid(1, &good[..elt.len()])),
            // rows × g is the right cell count, transposed.
            ("transposed", grid(elt.len(), &good)),
        ];
        for (what, frame) in frames {
            match SecondaryTable::adopt_grid(&elt, &frame) {
                Err(RiskError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {:?}", other.map(|(_, n)| n)),
            }
        }
        assert!(SecondaryTable::adopt_grid(&elt, &grid(g, &good)).is_ok());
    }

    #[test]
    fn memory_scales_with_grid() {
        let elt = sample_elt();
        let small = SecondaryTable::build(&elt, QuantileMode::Interpolated(9));
        let big = SecondaryTable::build(&elt, QuantileMode::Interpolated(129));
        assert!(big.memory_bytes() > small.memory_bytes());
        assert_eq!(small.len(), elt.len());
    }
}
