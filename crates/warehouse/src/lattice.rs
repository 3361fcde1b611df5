//! The cuboid lattice and greedy view selection.
//!
//! Materialising every cuboid wastes memory; materialising none makes
//! every query a fact scan. The classic answer — Harinarayan,
//! Rajaraman & Ullman's greedy algorithm ("Implementing Data Cubes
//! Efficiently", SIGMOD 1996) — picks the `k` views whose
//! materialisation most reduces the total cost of answering the whole
//! lattice, assuming each cuboid is answered from its cheapest
//! materialised ancestor. We run it with *exact* sizes rather than
//! estimates, and without building the nodes to measure them:
//! [`Cuboid::rollup_memory_bytes`](crate::Cuboid::rollup_memory_bytes)
//! groups the base cuboid's keys as the rollup would and prices each
//! group from its cells' sizes (a sketch cell's from its sketches'
//! per-level item counts), so only the views picked are ever rolled
//! up.

use crate::cube::LevelSelect;
use crate::dimension::{Schema, NDIMS};

/// Enumerate every level selection of the lattice (row-major over
/// dimension levels; base first, apex last).
pub fn enumerate(schema: &Schema) -> Vec<LevelSelect> {
    let counts = schema.level_counts();
    let total: usize = counts.iter().product();
    let mut out = Vec::with_capacity(total);
    let mut cur = [0u8; NDIMS];
    loop {
        out.push(LevelSelect(cur));
        // Odometer increment, last dimension fastest.
        let mut d = NDIMS;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            cur[d] += 1;
            if (cur[d] as usize) < counts[d] {
                break;
            }
            cur[d] = 0;
        }
    }
}

/// Immediate parents of `select` in the lattice: one dimension coarser
/// by exactly one level.
pub fn parents(schema: &Schema, select: LevelSelect) -> Vec<LevelSelect> {
    let counts = schema.level_counts();
    let mut out = Vec::new();
    for d in 0..NDIMS {
        if (select.0[d] as usize) + 1 < counts[d] {
            let mut s = select.0;
            s[d] += 1;
            out.push(LevelSelect(s));
        }
    }
    out
}

/// The outcome of greedy view selection.
#[derive(Debug, Clone)]
pub struct ViewSelection {
    /// Views picked, in pick order (the base cuboid is implicit and
    /// not listed).
    pub picked: Vec<LevelSelect>,
    /// Benefit (total lattice cost reduction, in cells) of each pick.
    pub benefits: Vec<u64>,
    /// Total cost of answering every lattice node once, before any
    /// picks (everything answered from the base cuboid).
    pub cost_before: u64,
    /// Same total after materialising the picked views.
    pub cost_after: u64,
}

/// Greedy (HRU) selection of `k` views to materialise, given the exact
/// cell count of every lattice node and the base cuboid's count.
///
/// Cost model: answering cuboid `w` costs the cell count of the
/// smallest materialised view `v` with `v.finer_eq(w)`; the base
/// cuboid is always materialised. Each greedy round picks the view
/// maximising the total cost reduction across the lattice; ties break
/// toward the lexicographically smaller select (deterministic).
pub fn greedy_select(sizes: &[(LevelSelect, u64)], k: usize) -> ViewSelection {
    greedy(sizes, k, u64::MAX, |benefit, _| benefit)
}

/// Greedy selection under a *space budget* in the units of `sizes`
/// (cells, or bytes when the caller measured bytes): picks views by
/// benefit per unit of storage (the HRU "benefit per unit space"
/// variant) until nothing that still helps fits. Use when the
/// constraint is memory, not view count — a small view with modest
/// benefit can beat a huge view with slightly more.
pub fn greedy_select_budget(sizes: &[(LevelSelect, u64)], budget: u64) -> ViewSelection {
    greedy(sizes, usize::MAX, budget, |benefit, size| {
        benefit as f64 / size.max(1) as f64
    })
}

/// The greedy loop behind both selections: at most `max_picks` rounds,
/// each picking — among the views that still fit in `space` and still
/// reduce some node's cost — the one `score(benefit, size)` ranks
/// highest, ties to the smaller select; stops early when no view
/// qualifies.
fn greedy<S: PartialOrd>(
    sizes: &[(LevelSelect, u64)],
    max_picks: usize,
    mut space: u64,
    score: impl Fn(u64, u64) -> S,
) -> ViewSelection {
    // Cost of answering each node from the current materialised set.
    // Initially: everything from base.
    let base_size = sizes
        .iter()
        .find(|(s, _)| *s == LevelSelect::BASE)
        .map_or(0, |&(_, n)| n);
    let mut cost = vec![base_size; sizes.len()];
    let cost_before: u64 = cost.iter().sum();
    let mut picked: Vec<LevelSelect> = Vec::new();
    let mut benefits: Vec<u64> = Vec::new();

    while picked.len() < max_picks {
        let mut best: Option<(S, u64, LevelSelect, u64)> = None; // (score, benefit, view, size)
        for &(v, v_size) in sizes {
            if v == LevelSelect::BASE || picked.contains(&v) || v_size > space {
                continue;
            }
            // Benefit: every node w that v can answer (v finer_eq w)
            // improves from cost[w] to min(cost[w], v_size).
            let mut benefit = 0u64;
            for (i, &(w, _)) in sizes.iter().enumerate() {
                if v.finer_eq(&w) && v_size < cost[i] {
                    benefit += cost[i] - v_size;
                }
            }
            if benefit == 0 {
                continue;
            }
            let rank = score(benefit, v_size);
            let better = match &best {
                None => true,
                Some((top, _, top_view, _)) => rank > *top || (rank == *top && v < *top_view),
            };
            if better {
                best = Some((rank, benefit, v, v_size));
            }
        }
        let Some((_, benefit, view, view_size)) = best else {
            break; // No remaining view both fits and helps.
        };
        for (i, &(w, _)) in sizes.iter().enumerate() {
            if view.finer_eq(&w) && view_size < cost[i] {
                cost[i] = view_size;
            }
        }
        picked.push(view);
        benefits.push(benefit);
        space -= view_size;
    }

    ViewSelection {
        picked,
        benefits,
        cost_before,
        cost_after: cost.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::Schema;

    /// Upper bound on a cuboid's cell count: the product of level
    /// cardinalities, capped by the fact row count — the sizes the
    /// selection tests feed the greedy picker without building cuboids.
    fn estimate_cells(schema: &Schema, select: LevelSelect, fact_rows: u64) -> u64 {
        let mut prod: u128 = 1;
        for d in 0..NDIMS {
            prod = prod.saturating_mul(schema.dim(d).cardinality(select.level(d)) as u128);
        }
        (prod.min(fact_rows as u128)) as u64
    }

    fn schema() -> Schema {
        Schema::standard(30, 3, 20, 2, 8, 2).unwrap()
    }

    #[test]
    fn enumerate_covers_full_product() {
        let s = schema();
        let all = enumerate(&s);
        // 3 × 3 × 3 × 4 with the implicit "all" levels.
        assert_eq!(all.len(), 3 * 3 * 3 * 4);
        assert_eq!(all[0], LevelSelect([0, 0, 0, 0]));
        assert_eq!(*all.last().unwrap(), LevelSelect::apex(&s));
        // No duplicates.
        let set: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        // Every element valid.
        assert!(all.iter().all(|l| l.is_valid(&s)));
    }

    #[test]
    fn parents_step_one_level() {
        let s = schema();
        let p = parents(&s, LevelSelect([0, 0, 0, 0]));
        assert_eq!(p.len(), 4);
        assert!(p.contains(&LevelSelect([1, 0, 0, 0])));
        assert!(p.contains(&LevelSelect([0, 0, 0, 1])));
        // Apex has no parents.
        assert!(parents(&s, LevelSelect::apex(&s)).is_empty());
        // Mixed: saturated dims skip.
        let p = parents(&s, LevelSelect([2, 2, 2, 2]));
        assert_eq!(p, vec![LevelSelect([2, 2, 2, 3])]);
    }

    #[test]
    fn estimate_caps_at_fact_rows() {
        let s = schema();
        let base = estimate_cells(&s, LevelSelect([0, 0, 0, 0]), 1_000);
        assert_eq!(base, 1_000); // 30·20·8·365 ≫ 1000
        let apex = estimate_cells(&s, LevelSelect::apex(&s), 1_000);
        assert_eq!(apex, 1);
        let coarse = estimate_cells(&s, LevelSelect([1, 1, 1, 2]), 1_000_000);
        assert_eq!(coarse, 3 * 2 * 2 * 4);
    }

    #[test]
    fn greedy_picks_highest_benefit_first() {
        // A hand-built 4-node lattice: base (100 cells), two middles
        // (small=5 cells answering 2 nodes, large=50 cells answering 2
        // nodes), apex (1).
        let base = LevelSelect([0, 0, 0, 0]);
        let small = LevelSelect([1, 1, 1, 1]); // answers itself + apex
        let large = LevelSelect([1, 0, 0, 0]); // answers itself, small, apex
        let apex = LevelSelect([2, 2, 2, 3]);
        let sizes = vec![(base, 100u64), (large, 50), (small, 5), (apex, 1)];
        let sel = greedy_select(&sizes, 2);
        // small saves (100−5) on itself + (100−5) on apex = 190;
        // large saves (100−50)·3 = 150 → small first.
        assert_eq!(sel.picked[0], small);
        assert_eq!(sel.benefits[0], 190);
        // Second round: large now saves only on itself (100→50): 50.
        assert_eq!(sel.picked[1], large);
        assert_eq!(sel.benefits[1], 50);
        assert_eq!(sel.cost_before, 400);
        assert_eq!(sel.cost_after, 400 - 190 - 50);
    }

    #[test]
    fn greedy_stops_when_no_benefit() {
        let base = LevelSelect([0, 0, 0, 0]);
        let sizes = vec![(base, 10u64)];
        let sel = greedy_select(&sizes, 3);
        assert!(sel.picked.is_empty());
        assert_eq!(sel.cost_before, sel.cost_after);
    }

    #[test]
    fn budget_selection_respects_the_budget() {
        let s = schema();
        let all = enumerate(&s);
        let sizes: Vec<(LevelSelect, u64)> = all
            .iter()
            .map(|&l| (l, estimate_cells(&s, l, 100_000)))
            .collect();
        for budget in [0u64, 100, 10_000, 1_000_000] {
            let sel = greedy_select_budget(&sizes, budget);
            let spent: u64 = sel
                .picked
                .iter()
                .map(|v| sizes.iter().find(|(s, _)| s == v).unwrap().1)
                .sum();
            assert!(spent <= budget, "budget {budget}: spent {spent}");
            assert!(sel.cost_after <= sel.cost_before);
        }
        // Zero budget picks nothing.
        assert!(greedy_select_budget(&sizes, 0).picked.is_empty());
    }

    #[test]
    fn budget_selection_prefers_benefit_density() {
        // Densities: apex 99/1 = 99, small 190/5 = 38, large 150/50 = 3
        // → density order is apex, small, large (count-based greedy
        // would have taken small first for its bigger raw benefit).
        let base = LevelSelect([0, 0, 0, 0]);
        let small = LevelSelect([1, 1, 1, 1]);
        let large = LevelSelect([1, 0, 0, 0]);
        let apex = LevelSelect([2, 2, 2, 3]);
        let sizes = vec![(base, 100u64), (large, 50), (small, 5), (apex, 1)];
        let sel = greedy_select_budget(&sizes, 56);
        assert_eq!(sel.picked, vec![apex, small, large]);
        // Tight budget: apex fits, small (5 cells) no longer does.
        let sel = greedy_select_budget(&sizes, 5);
        assert_eq!(sel.picked, vec![apex]);
        // Budget 6: apex then small.
        let sel = greedy_select_budget(&sizes, 6);
        assert_eq!(sel.picked, vec![apex, small]);
    }

    #[test]
    fn greedy_never_picks_base_or_duplicates() {
        let s = schema();
        let all = enumerate(&s);
        let sizes: Vec<(LevelSelect, u64)> = all
            .iter()
            .map(|&l| (l, estimate_cells(&s, l, 100_000)))
            .collect();
        let sel = greedy_select(&sizes, 8);
        assert!(sel.picked.len() <= 8);
        assert!(!sel.picked.contains(&LevelSelect([0; NDIMS])));
        let set: std::collections::BTreeSet<_> = sel.picked.iter().collect();
        assert_eq!(set.len(), sel.picked.len());
        // Monotone: each pick's benefit no larger than the previous.
        for w in sel.benefits.windows(2) {
            assert!(w[0] >= w[1], "benefits {:?}", sel.benefits);
        }
        assert!(sel.cost_after <= sel.cost_before);
    }
}
