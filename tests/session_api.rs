//! The `RiskSession` facade: builder defaults, then pinned cases of
//! the session oracle (`tests/oracle/mod.rs`; the drawn property is
//! `tests/session_oracle.rs`): every engine and store yields the
//! reference bits, and a collecting sweep keeps input order on any
//! thread count.

#[allow(dead_code, reason = "each test binary uses part of the shared oracle")]
#[macro_use]
mod oracle;

use oracle::{model, Case, Shape, Tail};
use riskpipe::aggregate::EngineKind;
use riskpipe::core::RiskSession;
use riskpipe::types::RiskResult;

#[test]
fn builder_defaults_are_sensible() -> RiskResult<()> {
    let session = RiskSession::builder().build()?;
    assert_eq!(session.engine(), EngineKind::CpuParallel);
    assert_eq!(session.store_name(), "in-memory");
    assert!(session.pool().thread_count() >= 1);

    let sized = RiskSession::builder().pool_threads(3).build()?;
    assert_eq!(sized.pool().thread_count(), 3);
    Ok(())
}

pinned! {
    every_engine_and_store_yields_the_same_ylt => EngineKind::ALL.into_iter().flat_map(|engine| {
        [0, 3].map(|shards| Case { engine, shards, ..Case::new(vec![model(8)], Shape::Run) })
    });
    run_batch_matches_sequential_runs_on_any_thread_count => [1, 2, 8].map(|threads| {
        let scenarios = vec![model(21), model(22), model(23)];
        Case { threads, ..Case::plan(scenarios, "collect", Tail::Bare) }
    });
    run_batch_keeps_input_order => {
        let scenarios = (100..106).map(|seed| model(seed).with_trials(200)).collect();
        [Case { threads: 4, ..Case::plan(scenarios, "collect", Tail::Bare) }]
    };
    one_session_serves_many_scenarios_and_stores_stay_isolated => {
        let scenarios = vec![model(31), model(32)];
        [Case { shards: 2, ..Case::plan(scenarios, "collect", Tail::Bare) }]
    };
}
