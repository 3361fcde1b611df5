//! Cross-engine equivalence: the sequential, CPU-parallel and both
//! simulated-GPU engines must produce bit-identical Year-Loss Tables on
//! the same inputs — the property that makes the speedup comparisons of
//! experiment E1 meaningful.
//!
//! The host engines run the joined kernel (one lookup per occurrence,
//! then a stream over the event's hits) and the simulated-GPU engines
//! the one-probe-per-layer kernel, so equality across `EngineKind`s is
//! a cross-kernel oracle: the fixtures below are the shapes a join
//! could plausibly get wrong.

#[allow(dead_code, reason = "each test binary uses part of the shared oracle")]
#[macro_use]
mod oracle;

use oracle::{model, Case, Shape};
use proptest::prelude::*;
use riskpipe::aggregate::{
    build_secondary, AggregateEngine, AggregateOptions, AggregateRunner, EngineKind, EventJoin,
    Layer, LayerTerms, Portfolio, QuantileMode, SecondaryTable,
};
use riskpipe::core::ScenarioConfig;
use riskpipe::exec::ThreadPool;
use riskpipe::tables::elt::{EltBuilder, EltRecord};
use riskpipe::tables::yet::{Occurrence, YetBuilder};
use riskpipe::tables::{Elt, YearEventTable, Ylt};
use riskpipe::types::rng::{Rng64, SplitMix64};
use riskpipe::types::{EventId, LayerId, RiskError};
use std::sync::Arc;

/// Every engine's `run` under option shape `options` (of
/// [`oracle::option_shapes`]) against the sequential reference.
fn every_engine(options: usize, seed: u64) -> [Case; 4] {
    let options = oracle::option_shapes()[options];
    let case = Case {
        options,
        threads: 4,
        ..Case::new(vec![model(seed)], Shape::Run)
    };
    EngineKind::ALL.map(|engine| Case {
        engine,
        ..case.clone()
    })
}

pinned! {
    all_engines_agree_on_scenario_with_secondary_uncertainty => every_engine(0, 31);
    all_engines_agree_without_secondary_uncertainty => every_engine(1, 32);
    all_engines_agree_with_exact_quantiles => every_engine(2, 33);
}

/// The join of a portfolio's ELTs under `opts`, as a session's cache
/// leader builds it.
fn join_of(portfolio: &Portfolio, opts: &AggregateOptions) -> EventJoin {
    let elts = || portfolio.layers().iter().map(|l| &*l.elt);
    let tables = build_secondary(elts(), opts, &ThreadPool::new(2));
    EventJoin::build(elts(), tables).expect("tables built for these ELTs")
}

/// Bit-for-bit column equality (`==` on `Ylt` would let `0.0 == -0.0`
/// through).
fn assert_bits_eq(a: &Ylt, b: &Ylt, what: &str) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a.agg_losses()), bits(b.agg_losses()), "{what}: agg");
    assert_eq!(
        bits(a.max_occ_losses()),
        bits(b.max_occ_losses()),
        "{what}: max occurrence"
    );
    assert_eq!(a.occ_counts(), b.occ_counts(), "{what}: counts");
}

/// Every engine, under every option shape, equals the sequential
/// engine bit for bit; returns nothing — the assertion is the point.
fn assert_all_engines_bitwise_equal(portfolio: &Portfolio, yet: &YearEventTable, what: &str) {
    let pool = Arc::new(ThreadPool::new(3));
    for opts in oracle::option_shapes() {
        let run = |kind| {
            AggregateRunner::new(kind)
                .with_options(opts)
                .with_pool(Arc::clone(&pool))
                .run(portfolio, yet)
                .unwrap()
        };
        let reference = run(EngineKind::Sequential);
        for kind in EngineKind::ALL {
            assert_bits_eq(
                &run(kind),
                &reference,
                &format!("{what}: {kind:?} under {opts:?}"),
            );
        }
    }
}

fn elt_of(events: impl IntoIterator<Item = u32>) -> Arc<Elt> {
    let mut b = EltBuilder::new();
    for e in events {
        // Means vary with the event so no two rows price alike.
        let mean = 40.0 + 13.0 * (e % 97) as f64;
        b.push(EltRecord {
            event_id: EventId::new(e),
            mean_loss: mean,
            sigma_i: mean * 0.3,
            sigma_c: mean * 0.15,
            exposure: mean * (4.0 + (e % 5) as f64),
        })
        .unwrap();
    }
    Arc::new(b.build().unwrap())
}

/// Terms that differ per layer: attachment, limit, aggregate terms and
/// share all vary, so a hit credited to the wrong layer changes bits.
fn terms_of(li: usize) -> LayerTerms {
    LayerTerms {
        occ_retention: 15.0 * (li % 7) as f64,
        occ_limit: 600.0 + 90.0 * (li % 5) as f64,
        agg_retention: 25.0 * (li % 3) as f64,
        agg_limit: 2_500.0 + 400.0 * (li % 4) as f64,
        share: 1.0 / (1.0 + (li % 4) as f64),
    }
}

/// `n` layers over a deliberately awkward set of books:
///
/// * layers 0 and 1 (when there are two) share one `Arc<Elt>`;
/// * event 1 is in every layer, event `100 + li` in layer `li >= 2` only,
///   event 777 in none (events 2, 3 and 100 only in the shared book);
/// * the last layer of a portfolio of three or more holds events the
///   YET never draws (9 000..9 004) and nothing else.
fn awkward_portfolio(n: usize) -> Portfolio {
    let shared = elt_of([1, 2, 3, 100]);
    let mut p = Portfolio::new();
    for li in 0..n {
        let elt = if li < 2 {
            Arc::clone(&shared)
        } else if li + 1 == n {
            elt_of(9_000..9_005)
        } else {
            elt_of([1, 100 + li as u32, 200 + (li as u32 % 3)])
        };
        p.push(Layer::new(LayerId::new(li as u32), terms_of(li), elt).unwrap());
    }
    p
}

/// A YET aimed at the join's edge cases: an empty trial, a trial of
/// misses only, every membership shape of [`awkward_portfolio`], and
/// `z` at both clamp edges and exactly on grid abscissae
/// (`(k + 0.5) / g` for the 33- and 2-point grids).
fn awkward_yet() -> YearEventTable {
    let occ = |e: u32, day: u16, z: f64| Occurrence {
        event_id: EventId::new(e),
        day,
        z,
    };
    // A uniform strictly inside (0, 1) from a draw in 0..9 998.
    let rng_z = |draw: u64| (draw + 1) as f64 / 10_000.0;
    let mut yb = YetBuilder::new();
    yb.push_trial(&[]);
    yb.push_trial(&[occ(777, 3, 0.4), occ(778, 9, 0.6)]);
    yb.push_trial(&[
        occ(1, 10, 1e-12),
        occ(1, 11, 1.0 - 1e-12),
        occ(1, 12, 0.5 / 33.0),
        occ(1, 13, 32.5 / 33.0),
        occ(1, 14, 0.5),
        occ(1, 15, 3.5 / 33.0),
        occ(1, 16, 0.25),
        occ(1, 17, 0.75),
    ]);
    yb.push_trial(&[
        occ(100, 20, 0.31),
        occ(102, 21, 0.62),
        occ(777, 22, 0.5),
        occ(2, 23, 0.93),
        occ(201, 24, 0.07),
    ]);
    yb.push_trial(&[]);
    // A block of ordinary years over the whole id range.
    let mut rng = SplitMix64::new(0xA3);
    let mut next = |n: u64| rng.next_u64() % n;
    for _ in 0..300 {
        let occs: Vec<Occurrence> = (0..next(6))
            .map(|i| {
                let e = match next(4) {
                    0 => 1,
                    1 => next(4) as u32,
                    2 => 100 + next(45) as u32,
                    _ => 200 + next(4) as u32,
                };
                occ(e, (i * 40) as u16, rng_z(next(9_998)))
            })
            .collect();
        yb.push_trial(&occs);
    }
    yb.build()
}

#[test]
fn awkward_joins_agree_across_kernels_from_1_to_40_layers() {
    let yet = awkward_yet();
    for n in [1usize, 2, 3, 40] {
        assert_all_engines_bitwise_equal(&awkward_portfolio(n), &yet, &format!("{n} layers"));
    }
}

#[test]
fn a_portfolio_wholly_disjoint_from_the_yet_prices_to_zero_on_every_engine() {
    let mut p = Portfolio::new();
    p.push(Layer::new(LayerId::new(0), terms_of(0), elt_of(9_000..9_010)).unwrap());
    let yet = awkward_yet();
    assert_all_engines_bitwise_equal(&p, &yet, "disjoint");
    let ylt = AggregateRunner::new(EngineKind::Sequential)
        .run(&p, &yet)
        .unwrap();
    assert!(ylt.agg_losses().iter().all(|&x| x.to_bits() == 0));
    assert!(ylt.occ_counts().iter().all(|&c| c == 0));
}

#[test]
fn prepared_join_runs_equal_option_runs_bitwise_on_every_engine() {
    let stage1 = ScenarioConfig::small()
        .with_seed(34)
        .with_trials(300)
        .build_stage1()
        .unwrap();
    let (portfolio, yet) = (stage1.portfolio(), stage1.year_event_table());
    let pool = Arc::new(ThreadPool::new(3));
    for opts in oracle::option_shapes() {
        // Built once, on a pool none of the runners use: the join is a
        // pure function of (ELTs, mode).
        let join = join_of(&portfolio, &opts);
        for kind in EngineKind::ALL {
            for attached in [None, Some(Arc::clone(&pool))] {
                let mut runner = AggregateRunner::new(kind).with_options(opts);
                if let Some(pool) = attached {
                    runner = runner.with_pool(pool);
                }
                let built = runner.run(&portfolio, &yet).unwrap();
                let prepared = runner.run_prepared(&portfolio, &yet, &join).unwrap();
                assert_bits_eq(&prepared, &built, &format!("{kind:?} under {opts:?}"));
            }
        }
    }
}

#[test]
fn mismatched_tables_are_a_typed_error_at_the_join() {
    let stage1 = ScenarioConfig::small()
        .with_seed(35)
        .with_trials(50)
        .build_stage1()
        .unwrap();
    let portfolio = stage1.portfolio();
    let elts = || portfolio.layers().iter().map(|l| &*l.elt);
    let tables = |mode| -> Vec<SecondaryTable> {
        elts().map(|elt| SecondaryTable::build(elt, mode)).collect()
    };
    let good = tables(QuantileMode::default());
    // One table too few, one too many, the right count with one table
    // built for a differently sized ELT (the out-of-bounds hazard), and
    // the right shapes under mixed modes / grid sizes (no single
    // hit-major stride).
    let other = good
        .iter()
        .find(|t| t.len() != good[0].len())
        .expect("books differ in ELT rows");
    let mut wrong_rows = good.clone();
    wrong_rows[0] = other.clone();
    let mut extra = good.clone();
    extra.push(good[0].clone());
    let mut mixed_mode = good.clone();
    mixed_mode[1] = tables(QuantileMode::Exact).swap_remove(1);
    let mut mixed_grid = good.clone();
    mixed_grid[1] = tables(QuantileMode::Interpolated(9)).swap_remove(1);
    for (what, bad) in [
        ("too few", good[1..].to_vec()),
        ("too many", extra),
        ("wrong rows", wrong_rows),
        ("mixed modes", mixed_mode),
        ("mixed grids", mixed_grid),
    ] {
        let err = EventJoin::build(elts(), Some(bad)).unwrap_err();
        assert!(
            matches!(err, RiskError::InvalidParameter(_)),
            "{what}: {err}"
        );
    }
    EventJoin::build(elts(), Some(good)).expect("matching tables join");
}

#[test]
fn a_join_of_other_books_is_a_typed_error_on_every_engine() {
    let stage1 = ScenarioConfig::small()
        .with_seed(35)
        .with_trials(50)
        .build_stage1()
        .unwrap();
    let (portfolio, yet) = (stage1.portfolio(), stage1.year_event_table());
    let opts = AggregateOptions::default();
    let good = join_of(&portfolio, &opts);
    // A join over fewer layers, over more, and over the right number
    // with one layer's ELT swapped for a differently sized one.
    let layers = portfolio.layers();
    let rebuilt = |layers: Vec<Layer>| {
        let mut p = Portfolio::new();
        layers.into_iter().for_each(|l| p.push(l));
        join_of(&p, &opts)
    };
    let other = layers
        .iter()
        .position(|l| l.elt.len() != layers[0].elt.len())
        .expect("books differ in ELT rows");
    let mut swapped = layers.to_vec();
    swapped[0] = layers[other].clone();
    let mut longer = layers.to_vec();
    longer.push(layers[0].clone());
    let bad_joins = [
        rebuilt(layers[1..].to_vec()),
        rebuilt(longer),
        rebuilt(swapped),
    ];
    for kind in EngineKind::ALL {
        let runner = AggregateRunner::new(kind).with_pool(Arc::new(ThreadPool::new(2)));
        for join in &bad_joins {
            let err = runner.run_prepared(&portfolio, &yet, join).unwrap_err();
            assert!(
                matches!(err, RiskError::InvalidParameter(_)),
                "{kind:?}: {err}"
            );
        }
        runner
            .run_prepared(&portfolio, &yet, &good)
            .expect("the portfolio's own join runs");
    }
}

/// Strategy: per layer, its ELT membership (event → mean loss) and
/// terms `(occ_retention, occ_limit, agg_retention, agg_limit, share)`.
#[allow(
    clippy::type_complexity,
    reason = "the strategy's value type is the layer tuple spelled out in the doc above"
)]
fn arb_layers() -> impl Strategy<Value = Vec<(Vec<(u32, f64)>, (f64, f64, f64, f64, f64))>> {
    let membership = prop::collection::btree_map(0..60u32, 10.0..4_000.0f64, 1..30)
        .prop_map(|m| m.into_iter().collect());
    let terms = (
        0.0..1_500.0f64,
        50.0..20_000.0f64,
        0.0..3_000.0f64,
        100.0..60_000.0f64,
        0.05..1.0f64,
    );
    prop::collection::vec((membership, terms), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random ELT membership × terms × YET: the joined host kernel and
    /// the per-layer-probe kernel agree to the bit.
    #[test]
    fn joined_kernel_equals_per_layer_probe_kernel(
        layers in arb_layers(),
        trials in prop::collection::vec(
            prop::collection::vec((0..80u32, 0.0005..0.9995f64), 0..7),
            1..30,
        ),
        grid in 2..40u32,
    ) {
        let mut portfolio = Portfolio::new();
        for (li, (rows, (ret, lim, agg_ret, agg_lim, share))) in layers.iter().enumerate() {
            let mut b = EltBuilder::new();
            for &(e, mean) in rows {
                b.push(EltRecord {
                    event_id: EventId::new(e),
                    mean_loss: mean,
                    sigma_i: mean * 0.35,
                    sigma_c: mean * 0.1,
                    exposure: mean * 5.0,
                })
                .unwrap();
            }
            let terms = LayerTerms {
                occ_retention: *ret,
                occ_limit: *lim,
                agg_retention: *agg_ret,
                agg_limit: *agg_lim,
                share: *share,
            };
            portfolio.push(
                Layer::new(LayerId::new(li as u32), terms, Arc::new(b.build().unwrap())).unwrap(),
            );
        }
        let mut yb = YetBuilder::new();
        for t in &trials {
            let occs: Vec<Occurrence> = t
                .iter()
                .enumerate()
                .map(|(i, &(e, z))| Occurrence {
                    event_id: EventId::new(e),
                    day: (i * 50) as u16,
                    z,
                })
                .collect();
            yb.push_trial(&occs);
        }
        let yet = yb.build();
        for opts in [
            AggregateOptions {
                secondary_uncertainty: true,
                quantile_mode: QuantileMode::Interpolated(grid),
            },
            AggregateOptions {
                secondary_uncertainty: false,
                ..AggregateOptions::default()
            },
        ] {
            let join = join_of(&portfolio, &opts);
            let run = |kind| {
                AggregateRunner::new(kind)
                    .run_prepared(&portfolio, &yet, &join)
                    .unwrap()
            };
            let host = run(EngineKind::Sequential);
            let device = run(EngineKind::GpuGlobal);
            assert_bits_eq(&host, &device, &format!("{opts:?}"));
        }
    }
}

/// Prefix stability: the YLT of `n` trials is bit for bit the first `n`
/// rows of the YLT of `N > n` trials with the same seed, on every engine
/// and pool width. It holds because trial `t`'s occurrences come from
/// its own random stream, seeded by `t` itself, and every kernel prices
/// each trial from its own occurrences alone. The DFA factor block is
/// *not* prefix-stable: Iman–Conover reorders each factor column by
/// ranks taken over all trials, so the stage-3 figures of `n` trials are
/// not those of the first `n` of `N`.
#[test]
fn a_shorter_run_is_a_prefix_of_a_longer_one() {
    let (n, long) = (700, 1_000);
    let stage1 = |trials| {
        ScenarioConfig::small()
            .with_seed(36)
            .with_trials(trials)
            .build_stage1()
            .unwrap()
    };
    let (short, long) = (stage1(n), stage1(long));
    let portfolio = short.portfolio();
    let join = join_of(&portfolio, &AggregateOptions::default());
    let (short_yet, long_yet) = (short.year_event_table(), long.year_event_table());
    for threads in [1, 2, 8] {
        let pool = Arc::new(ThreadPool::new(threads));
        for kind in EngineKind::ALL {
            let runner = AggregateRunner::new(kind).with_pool(Arc::clone(&pool));
            let head = runner.run_prepared(&portfolio, &short_yet, &join).unwrap();
            let whole = runner.run_prepared(&portfolio, &long_yet, &join).unwrap();
            let (agg, max_occ, counts) = whole.columns();
            let prefix = Ylt::from_columns(
                agg[..n].to_vec(),
                max_occ[..n].to_vec(),
                counts[..n].to_vec(),
            )
            .unwrap();
            assert_bits_eq(&head, &prefix, &format!("{kind:?} on {threads} threads"));
        }
    }
}
