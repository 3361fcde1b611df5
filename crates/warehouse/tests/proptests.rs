//! Property tests over the warehouse invariants.

use proptest::prelude::*;
use riskpipe_warehouse::{
    Cuboid, FactBuilder, FactTable, KeyCodec, LevelSelect, Query, Schema, Source, Warehouse, NDIMS,
};

fn small_schema() -> Schema {
    Schema::standard(12, 3, 10, 2, 4, 2).unwrap()
}

/// Arbitrary valid level selects for the standard schema shape [3,3,3,4].
fn any_select() -> impl Strategy<Value = LevelSelect> {
    (0u8..3, 0u8..3, 0u8..3, 0u8..4).prop_map(|(a, b, c, d)| LevelSelect([a, b, c, d]))
}

/// Arbitrary fact tables over the small schema.
fn any_facts() -> impl Strategy<Value = FactTable> {
    prop::collection::vec(
        (0u32..12, 0u32..10, 0u32..4, 0u32..365, 0.0f64..1e6),
        0..400,
    )
    .prop_map(|rows| {
        let s = small_schema();
        let mut b = FactBuilder::new(&s);
        for (g, e, c, t, loss) in rows {
            b.push([g, e, c, t], loss).unwrap();
        }
        b.build()
    })
}

proptest! {
    #[test]
    fn codec_round_trips_any_codes(sel in any_select(), seedless in 0u64..1_000_000) {
        let s = small_schema();
        let codec = KeyCodec::new(&s, sel).unwrap();
        // Derive in-range codes from the seed.
        let mut codes = [0u32; NDIMS];
        let mut x = seedless;
        for (d, code) in codes.iter_mut().enumerate() {
            let card = s.dim(d).cardinality(sel.level(d));
            *code = u32::try_from(x % u64::from(card)).unwrap();
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        prop_assert_eq!(codec.decode(codec.encode(codes)), codes);
    }

    #[test]
    fn cuboid_conserves_count_and_sum(facts in any_facts(), sel in any_select()) {
        let s = small_schema();
        let cub = Cuboid::build(&s, &facts, sel, None).unwrap();
        prop_assert_eq!(cub.total_count(), facts.rows() as u64);
        let total = facts.total_loss();
        prop_assert!((cub.total_sum() - total).abs() <= 1e-9 * total.abs().max(1.0));
        // Keys strictly ascending.
        prop_assert!(cub.keys().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rollup_matches_direct_build(facts in any_facts(), fine in any_select(), coarse in any_select()) {
        // Force comparability: lift `coarse` to be ≥ `fine` per dim.
        let coarse = LevelSelect(std::array::from_fn(|d| coarse.0[d].max(fine.0[d])));
        let s = small_schema();
        let base = Cuboid::build(&s, &facts, fine, None).unwrap();
        let up = base.rollup(&s, coarse).unwrap();
        let direct = Cuboid::build(&s, &facts, coarse, None).unwrap();
        prop_assert_eq!(up.keys(), direct.keys());
        for i in 0..direct.cells() {
            let (_, a) = up.cell_at(i);
            let (_, b) = direct.cell_at(i);
            prop_assert_eq!(a.count, b.count);
            prop_assert!((a.sum - b.sum).abs() <= 1e-9 * b.sum.abs().max(1.0));
            prop_assert_eq!(a.max.to_bits(), b.max.to_bits());
        }
    }

    #[test]
    fn warehouse_view_answers_equal_fact_scans(facts in any_facts(), q in any_select()) {
        let s = small_schema();
        let cold = Warehouse::new(s.clone(), facts.clone());
        let mut warm = Warehouse::new(s, facts);
        warm.materialize(LevelSelect::BASE, None).unwrap();
        let query = Query::group_by(q);
        let (a, ca) = cold.answer(&query).unwrap();
        let (b, cb) = warm.answer(&query).unwrap();
        prop_assert_eq!(ca.source, Source::FactScan);
        prop_assert!(matches!(cb.source, Source::Materialized(_)));
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.codes, y.codes);
            prop_assert_eq!(x.cell.count, y.cell.count);
            prop_assert!((x.cell.sum - y.cell.sum).abs() <= 1e-9 * x.cell.sum.abs().max(1.0));
        }
    }
}
