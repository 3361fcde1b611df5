//! Cross-engine equivalence: the sequential, CPU-parallel and both
//! simulated-GPU engines must produce bit-identical Year-Loss Tables on
//! the same inputs — the property that makes the speedup comparisons of
//! experiment E1 meaningful.

use riskpipe::aggregate::{
    build_secondary, engines_agree, AggregateEngine, AggregateOptions, AggregateRunner, EngineKind,
    QuantileMode, SecondaryTable,
};
use riskpipe::core::ScenarioConfig;
use riskpipe::exec::ThreadPool;
use riskpipe::types::RiskError;
use std::sync::Arc;

#[test]
fn all_engines_agree_on_scenario_with_secondary_uncertainty() {
    let stage1 = ScenarioConfig::small()
        .with_seed(31)
        .build_stage1()
        .unwrap();
    let pool = Arc::new(ThreadPool::new(4));
    let ylt = engines_agree(
        &stage1.portfolio(),
        &stage1.year_event_table(),
        &AggregateOptions::default(),
        pool,
    )
    .expect("engines diverged");
    assert_eq!(ylt.trials(), 2_000);
    assert!(ylt.mean_annual_loss() > 0.0);
}

#[test]
fn all_engines_agree_without_secondary_uncertainty() {
    let stage1 = ScenarioConfig::small()
        .with_seed(32)
        .build_stage1()
        .unwrap();
    let pool = Arc::new(ThreadPool::new(2));
    engines_agree(
        &stage1.portfolio(),
        &stage1.year_event_table(),
        &AggregateOptions {
            secondary_uncertainty: false,
            ..AggregateOptions::default()
        },
        pool,
    )
    .expect("engines diverged");
}

#[test]
fn all_engines_agree_with_exact_quantiles() {
    // The exact beta-inverse path is slower, so shrink the scenario.
    let stage1 = ScenarioConfig::small()
        .with_seed(33)
        .with_trials(300)
        .build_stage1()
        .unwrap();
    let pool = Arc::new(ThreadPool::new(4));
    engines_agree(
        &stage1.portfolio(),
        &stage1.year_event_table(),
        &AggregateOptions {
            secondary_uncertainty: true,
            quantile_mode: QuantileMode::Exact,
        },
        pool,
    )
    .expect("engines diverged");
}

/// The three option shapes the engines distinguish.
fn option_shapes() -> [AggregateOptions; 3] {
    [
        AggregateOptions::default(),
        AggregateOptions {
            secondary_uncertainty: false,
            ..AggregateOptions::default()
        },
        AggregateOptions {
            secondary_uncertainty: true,
            quantile_mode: QuantileMode::Exact,
        },
    ]
}

#[test]
fn prepared_tables_runs_equal_option_runs_bitwise_on_every_engine() {
    let stage1 = ScenarioConfig::small()
        .with_seed(34)
        .with_trials(300)
        .build_stage1()
        .unwrap();
    let (portfolio, yet) = (stage1.portfolio(), stage1.year_event_table());
    let pool = Arc::new(ThreadPool::new(3));
    for opts in option_shapes() {
        // Built once, on a pool none of the runners use: the tables are
        // a pure function of (ELT, mode).
        let elts = portfolio.layers().iter().map(|l| &*l.elt);
        let tables = build_secondary(elts, &opts, &ThreadPool::new(2));
        assert_eq!(tables.is_some(), opts.secondary_uncertainty);
        for kind in EngineKind::ALL {
            for attached in [None, Some(Arc::clone(&pool))] {
                let mut runner = AggregateRunner::new(kind).with_options(opts);
                if let Some(pool) = attached {
                    runner = runner.with_pool(pool);
                }
                let built = runner.run(&portfolio, &yet).unwrap();
                let prepared = runner
                    .run_prepared(&portfolio, &yet, tables.as_deref())
                    .unwrap();
                assert_eq!(prepared, built, "{kind:?} under {opts:?}");
            }
        }
    }
}

#[test]
fn mismatched_prepared_tables_are_a_typed_error_on_every_engine() {
    let stage1 = ScenarioConfig::small()
        .with_seed(35)
        .with_trials(50)
        .build_stage1()
        .unwrap();
    let (portfolio, yet) = (stage1.portfolio(), stage1.year_event_table());
    let mode = QuantileMode::default();
    let good: Vec<SecondaryTable> = portfolio
        .layers()
        .iter()
        .map(|l| SecondaryTable::build(&l.elt, mode))
        .collect();
    // One table too few, one too many, and the right count with one
    // table built for a differently sized ELT (the out-of-bounds hazard).
    let other = good
        .iter()
        .find(|t| t.len() != good[0].len())
        .expect("books differ in ELT rows");
    let mut wrong_rows = good.clone();
    wrong_rows[0] = other.clone();
    let mut extra = good.clone();
    extra.push(good[0].clone());
    let bad_shapes = [&good[1..], &extra[..], &wrong_rows[..]];
    for kind in EngineKind::ALL {
        let runner = AggregateRunner::new(kind).with_pool(Arc::new(ThreadPool::new(2)));
        for tables in bad_shapes {
            let err = runner
                .run_prepared(&portfolio, &yet, Some(tables))
                .unwrap_err();
            assert!(
                matches!(err, RiskError::InvalidParameter(_)),
                "{kind:?}: {err}"
            );
        }
        runner
            .run_prepared(&portfolio, &yet, Some(&good))
            .expect("matching tables run");
    }
}
