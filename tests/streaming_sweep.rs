//! The streaming execution contract. `run_stream`, collecting sweeps,
//! fan-outs and the stage-1 cache (RAM and disk tier) give the bits of
//! solo runs on any thread count, and each distinct key derives its
//! tables, join and factor block once: pinned cases of the session
//! oracle (`tests/oracle/mod.rs`; the drawn property is
//! `tests/session_oracle.rs`). Below them, what the oracle cannot see:
//! the cache's byte charges, the tier's grid upgrades, the DFA factor
//! block on any pool, and the DFA minimum as a named error.

#[allow(dead_code, reason = "each test binary uses part of the shared oracle")]
#[macro_use]
mod oracle;

use oracle::{model, pricing_sweep, text, Cache, Case, Shape, Tail};
use riskpipe::aggregate::{build_secondary, AggregateOptions, EventJoin, QuantileMode};
use riskpipe::core::{PipelineReport, RiskSession, ScenarioConfig, Stage1CacheStats, SweepSummary};
use riskpipe::dfa::{serial_map, CompanyConfig, DfaEngine, TASK_CHUNK};
use riskpipe::exec::par_chunks_mut;
use riskpipe::exec::ThreadPool;
use riskpipe::obs::Telemetry;
use riskpipe::types::{RiskError, RiskResult};

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small().with_seed(seed).with_trials(300)
}

/// Two keys of `points` scenarios each, one key after the other.
fn two_keys(seed: u64, points: usize) -> Vec<ScenarioConfig> {
    let mut scenarios = pricing_sweep(seed, points);
    scenarios.extend(pricing_sweep(seed + 1, points));
    scenarios
}

pinned! {
    run_stream_is_bit_identical_to_batch_and_solo_on_any_thread_count => {
        let scenarios: Vec<_> = (81..85).map(model).collect();
        let batch = Case::plan(scenarios.clone(), "collect", Tail::Bare);
        let shapes = [batch, Case::new(scenarios, Shape::Stream)];
        [1, 2, 8].into_iter().flat_map(move |threads| shapes.clone().map(|c| Case { threads, ..c }))
    };
    caching_never_changes_results => [Cache::Warm, Cache::Evicted, Cache::DiskWarm].map(|cache| {
        Case { cache, threads: 4, ..Case::plan(pricing_sweep(91, 4), "collect", Tail::Bare) }
    });
    /// Six scenarios, one key, eight workers: one build.
    shared_key_sweep_builds_stage1_exactly_once => {
        [Case { threads: 8, ..Case::plan(pricing_sweep(92, 6), "collect", Tail::Bare) }]
    };
    distinct_keys_each_build_once => {
        [Case { threads: 8, ..Case::plan(two_keys(101, 3), "collect", Tail::Bare) }]
    };
    stream_propagates_scenario_errors_in_input_order => {
        let mut bad = model(130);
        bad.trials = 0;
        [Case { threads: 8, ..Case::new(vec![model(131), bad, model(132)], Shape::Stream) }]
    };
    pooled_sweep_analytics_bit_identical_across_threads => [1, 2, 8].map(|threads| {
        Case { threads, ..Case::plan(pricing_sweep(170, 8), "summary", Tail::Bare) }
    });
    persisting_sink_spills_each_report_and_pools_analytics => {
        [Case { shards: 2, ..Case::new(pricing_sweep(180, 4), Shape::Fanout(3)) }]
    };
    persisting_sink_through_default_store_is_memory_only => {
        [Case::new(pricing_sweep(190, 3), Shape::Fanout(3))]
    };
    run_after_stream_reuses_the_cache => {
        [Case { cache: Cache::Warm, ..Case::new(pricing_sweep(160, 3), Shape::Run) }]
    };
    same_key_sweep_builds_tables_and_join_once_per_key_on_any_thread_count => {
        [1, 2, 8].into_iter().flat_map(|threads| {
            [pricing_sweep(200, 8), two_keys(201, 4)]
                .map(|scenarios| Case { threads, ..Case::new(scenarios, Shape::Stream) })
        })
    };
    disk_warm_session_adopts_the_stored_grids_and_inverts_no_beta => [Shape::Stream, Shape::Run]
        .map(|shape| Case { cache: Cache::DiskWarm, ..Case::new(two_keys(220, 3), shape) });
}

#[test]
fn sweep_summary_accumulates_without_retaining_reports() -> RiskResult<()> {
    let scenarios = pricing_sweep(150, 5);
    let session = RiskSession::builder().pool_threads(2).build()?;
    // A SweepSummary *is* a ReportSink: pass it straight in.
    let mut summary = SweepSummary::new();
    session.run_stream(&scenarios, &mut summary)?;
    assert_eq!(summary.scenarios(), 5);
    assert_eq!(summary.trials(), 5 * 300);
    assert!(summary.mean_tvar99() > 0.0);
    let (worst, tvar) = summary.worst().expect("non-empty sweep");
    // Lower attachments retain more loss: attach-0 is the worst book.
    assert_eq!(worst, "attach-0");
    assert!(tvar >= summary.mean_tvar99());
    // Pooled analytics over all 1500 trials came along for free.
    assert!(summary.analytics_exact());
    assert!(summary.pooled_tvar99().unwrap() >= summary.pooled_var99().unwrap());
    let text = summary.to_string();
    assert!(text.contains("scenarios"), "{text}");
    assert!(text.contains("pooled TVaR99"), "{text}");
    Ok(())
}

// ---------------------------------------------------------------------
// The join of a model run's books and stage 3's DFA factor block ride
// the stage-1 cache entry: charged in the cache's byte count, adopted
// from or written to the disk tier with the right grids, and never
// visible in a result bit.
// ---------------------------------------------------------------------

fn collect_stream(
    session: &RiskSession,
    scenarios: &[ScenarioConfig],
) -> RiskResult<Vec<PipelineReport>> {
    let mut reports = Vec::new();
    session.run_stream(scenarios, |_, report| {
        reports.push(report);
        Ok(())
    })?;
    Ok(reports)
}

#[test]
fn cache_bytes_charge_the_join_and_eviction_drops_it() -> RiskResult<()> {
    let a = scenario(210);
    let no_secondary = AggregateOptions {
        secondary_uncertainty: false,
        ..AggregateOptions::default()
    };
    // What an entry for `s` must be charged under `opts`: what it keeps
    // of the model run (the YET and the books' ELTs; not the catalogue
    // or the exposures) plus the join of its books plus the DFA factor
    // block.
    let entry_bytes = |s: &ScenarioConfig, opts: &AggregateOptions| -> RiskResult<u64> {
        let output = s.build_stage1()?.output;
        let elts = || output.books.iter().map(|book| &*book.elt);
        let tables = build_secondary(elts(), opts, &ThreadPool::new(2));
        let join = EventJoin::build(elts(), tables)?;
        let factors = DfaEngine::typical(CompanyConfig::typical()).simulate_factors(
            s.trials,
            s.seed ^ 0xDFA,
            &serial_map,
        )?;
        assert_eq!(factors.memory_bytes(), 7 * 8 * s.trials);
        let kept = output.yet.memory_bytes() + elts().map(|elt| elt.memory_bytes()).sum::<usize>();
        Ok((kept + join.memory_bytes() + factors.memory_bytes()) as u64)
    };

    // With secondary uncertainty the join carries every book's quantile
    // grid, without it only mean losses — the charge follows.
    let with_grids = RiskSession::builder().pool_threads(2).build()?;
    let without = RiskSession::builder()
        .pool_threads(2)
        .options(no_secondary)
        .build()?;
    let first = with_grids.run(&a)?;
    without.run(&a)?;
    let charged = with_grids.stage1_cache_stats().bytes;
    assert_eq!(charged, entry_bytes(&a, &AggregateOptions::default())?);
    assert_eq!(
        without.stage1_cache_stats().bytes,
        entry_bytes(&a, &no_secondary)?
    );
    assert!(charged > without.stage1_cache_stats().bytes);

    // A session retains eight keys: the ninth evicts A — its join and
    // factor block with it — and coming back to A rebuilds all three,
    // bit-equal.
    let others: Vec<_> = (211..219).map(scenario).collect();
    let (newest, older) = others.split_last().expect("eight other keys");
    let telemetry = Telemetry::new();
    let session = RiskSession::builder()
        .pool_threads(2)
        .telemetry(telemetry.clone())
        .build()?;
    session.run(&a)?;
    assert_eq!(session.stage1_cache_stats().bytes, charged);
    for s in older {
        session.run(s)?;
    }
    let full = session.stage1_cache_stats();
    assert_eq!((full.entries, full.evictions), (8, 0));
    session.run(newest)?;
    let stats = session.stage1_cache_stats();
    assert_eq!((stats.entries, stats.evictions), (8, 1));
    assert_eq!(
        stats.bytes,
        full.bytes - charged + {
            let solo = RiskSession::builder().pool_threads(2).build()?;
            solo.run(newest)?;
            solo.stage1_cache_stats().bytes
        },
        "A's model run, join and factor block are no longer charged"
    );
    let again = session.run(&a)?;
    assert_eq!(session.stage1_cache_stats().builds, 10);
    let metrics = telemetry.snapshot().metrics().clone();
    assert_eq!(metrics.counter("stage2.secondary_builds"), 10);
    assert_eq!(metrics.counter("stage2.join_builds"), 10);
    assert_eq!(metrics.counter("stage3.dfa_factor_builds"), 10);
    assert_eq!(text(&again), text(&first));
    Ok(())
}

/// A fresh tier directory for one test.
fn tier_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("riskpipe-s1{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One tier-attached sweep under `options` on a fresh, telemetry-armed
/// session: its reports, cache stats and the three derive counters
/// `(secondary_builds, join_builds, dfa_factor_builds)`.
fn tier_sweep(
    dir: &std::path::Path,
    options: AggregateOptions,
    scenarios: &[ScenarioConfig],
) -> RiskResult<(Vec<PipelineReport>, Stage1CacheStats, [u64; 3])> {
    let telemetry = Telemetry::new();
    let session = RiskSession::builder()
        .pool_threads(2)
        .options(options)
        .stage1_disk_cache(dir)
        .telemetry(telemetry.clone())
        .build()?;
    let reports = collect_stream(&session, scenarios)?;
    let metrics = telemetry.snapshot().metrics().clone();
    let derived = [
        metrics.counter("stage2.secondary_builds"),
        metrics.counter("stage2.join_builds"),
        metrics.counter("stage3.dfa_factor_builds"),
    ];
    Ok((reports, session.stage1_cache_stats(), derived))
}

/// Each report as the oracle's bit-exact text.
fn texts(reports: &[PipelineReport]) -> Vec<String> {
    reports.iter().map(text).collect()
}

#[test]
fn gridless_tier_entry_is_upgraded_by_the_first_session_that_wants_grids() -> RiskResult<()> {
    // What the parent commit's tier looks like to this one, and what a
    // secondary-off session still writes: stage-1 frames only.
    let dir = tier_dir("upgrade");
    let scenarios = [scenario(240), scenario(241)];
    let mean_only = AggregateOptions {
        secondary_uncertainty: false,
        ..AggregateOptions::default()
    };
    let (_, writer, derived) = tier_sweep(&dir, mean_only, &scenarios)?;
    assert_eq!((writer.builds, writer.disk_writes), (2, 2));
    assert_eq!(derived[0], 0, "no tables, so no grids to store");

    let plain = RiskSession::builder().pool_threads(2).build()?;
    let want = collect_stream(&plain, &scenarios)?;

    // Not corrupt: the stage-1 part is served from disk, the grids are
    // derived once and the entry is rewritten with them.
    let opts = AggregateOptions::default();
    let (got, upgrade, derived) = tier_sweep(&dir, opts, &scenarios)?;
    assert_eq!(
        (upgrade.builds, upgrade.disk_hits, upgrade.disk_writes),
        (0, 2, 2)
    );
    assert_eq!(derived[0], 2);
    assert_eq!(texts(&got), texts(&want), "upgrading session");

    let (got, third, derived) = tier_sweep(&dir, opts, &scenarios)?;
    assert_eq!(
        (third.builds, third.disk_hits, third.disk_writes),
        (0, 2, 0)
    );
    assert_eq!(derived[0], 0, "the rewrite made the next process warm");
    assert_eq!(texts(&got), texts(&want), "third session");

    // A session with no use for grids leaves them where they are.
    let (_, reader, _) = tier_sweep(&dir, mean_only, &scenarios)?;
    assert_eq!(
        (reader.builds, reader.disk_hits, reader.disk_writes),
        (0, 2, 0)
    );
    let (_, fourth, derived) = tier_sweep(&dir, opts, &scenarios)?;
    assert_eq!((fourth.disk_writes, derived[0]), (0, 0));
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn grids_of_another_size_are_rederived_not_reported_corrupt() -> RiskResult<()> {
    let dir = tier_dir("gridsize");
    let scenarios = [scenario(250)];
    let coarse = AggregateOptions {
        quantile_mode: QuantileMode::Interpolated(17),
        ..AggregateOptions::default()
    };
    let (_, writer, _) = tier_sweep(&dir, coarse, &scenarios)?;
    assert_eq!((writer.builds, writer.disk_writes), (1, 1));

    let plain = RiskSession::builder().pool_threads(2).build()?;
    let want = collect_stream(&plain, &scenarios)?;
    // A corrupt entry would self-heal through a rebuild; a 17-point
    // entry read by a 33-point session is merely not what it wants.
    let (got, reader, derived) = tier_sweep(&dir, AggregateOptions::default(), &scenarios)?;
    assert_eq!(
        (reader.builds, reader.disk_hits, reader.disk_writes),
        (0, 1, 1)
    );
    assert_eq!(derived[0], 1);
    assert_eq!(
        texts(&got),
        texts(&want),
        "33-point session over a 17-point entry"
    );

    // Exact mode tabulates nothing: it builds its (cheap) tables and
    // leaves the 33-point entry for whoever wants it.
    let exact = AggregateOptions {
        quantile_mode: QuantileMode::Exact,
        ..AggregateOptions::default()
    };
    let (_, reader, derived) = tier_sweep(&dir, exact, &scenarios)?;
    assert_eq!((reader.builds, reader.disk_writes, derived[0]), (0, 0, 1));
    let (got, again, derived) = tier_sweep(&dir, AggregateOptions::default(), &scenarios)?;
    assert_eq!((again.builds, again.disk_writes, derived[0]), (0, 0, 0));
    assert_eq!(texts(&got), texts(&want), "adopting session");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn dfa_factor_block_is_bit_identical_on_any_pool() -> RiskResult<()> {
    // The session hands each slice of the block to its own pool task;
    // `DfaEngine::run` builds it serially. Same
    // columns, bit for bit, at trial counts on both sides of every
    // chunk seam.
    let engine = DfaEngine::typical(CompanyConfig::typical());
    let bits = |trials: usize, map: &riskpipe::dfa::TaskMap<'_>| -> RiskResult<Vec<Vec<u64>>> {
        let block = engine.simulate_factors(trials, 0xDFA ^ 230, map)?;
        let col = |c: &Vec<f64>| c.iter().map(|x| x.to_bits()).collect();
        Ok(block.columns().iter().map(col).collect())
    };
    let pools: Vec<ThreadPool> = [1, 2, 8].into_iter().map(ThreadPool::new).collect();
    for trials in [
        300,
        TASK_CHUNK - 1,
        TASK_CHUNK,
        TASK_CHUNK + 1,
        2 * TASK_CHUNK + 777,
    ] {
        let want = bits(trials, &serial_map)?;
        for pool in &pools {
            let got = bits(trials, &|slices, task| {
                par_chunks_mut(pool, slices, 1, |i, slice| task(i, slice[0]))
            })?;
            assert!(
                got == want,
                "{trials} trials on {} threads",
                pool.thread_count()
            );
        }
    }
    Ok(())
}

#[test]
fn too_few_trials_for_dfa_is_a_named_error_not_a_blamed_matrix() -> RiskResult<()> {
    // The factor block is a pool task of its own beside the stage-1
    // chain. On one worker the leader must run it itself: `run` leads
    // from the caller's thread, a stream from the only worker.
    let bad = scenario(231).with_trials(3);
    for threads in [1, 2] {
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let errors = [
            session.run(&bad),
            collect_stream(&session, std::slice::from_ref(&bad)).map(|mut r| r.remove(0)),
            session.run(&bad),
        ];
        for err in errors {
            let err = err.expect_err("3 trials cannot carry a 5-column Iman–Conover");
            assert!(matches!(err, RiskError::InvalidParameter(_)), "{err}");
            let msg = err.to_string();
            assert_eq!(
                msg, "invalid parameter: DFA needs at least 6 trials, got 3",
                "{threads} threads"
            );
        }
        // Nothing was published for the failed key — every attempt
        // missed, and no entry is charged a byte — so it is not
        // poisoned: the session then runs valid scenarios (the minimum
        // really is 6) bit for bit as a fresh session does.
        let stats = session.stage1_cache_stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.bytes),
            (3, 0, 0),
            "{threads} threads"
        );
        for valid in [scenario(231).with_trials(6), scenario(231)] {
            let fresh = RiskSession::builder().pool_threads(threads).build()?;
            assert_eq!(
                text(&session.run(&valid)?),
                text(&fresh.run(&valid)?),
                "{threads} threads, {} trials",
                valid.trials
            );
        }
    }
    Ok(())
}
