//! The streaming execution contract: `run_stream` delivers
//! input-ordered reports bit-identical to a collecting sweep and to
//! solo `run` calls on any thread count, the shared stage-1
//! cache rebuilds the model run exactly once per distinct key, and
//! sweep sinks (`SweepSummary`, `PersistingSink`, and the two together
//! on one `FanoutSink`) produce pooled analytics / durable artifacts
//! without retaining per-scenario YLTs.

use riskpipe::aggregate::{build_secondary, AggregateOptions, EventJoin, QuantileMode};
use riskpipe::core::{
    FanoutSink, PersistingSink, PipelineReport, RiskSession, ScenarioConfig, ShardedFilesStore,
    Stage1CacheStats, SweepSummary,
};
use riskpipe::dfa::{serial_map, CompanyConfig, DfaEngine, TASK_CHUNK};
use riskpipe::exec::par_map_collect;
use riskpipe::exec::ThreadPool;
use riskpipe::obs::Telemetry;
use riskpipe::types::{RiskError, RiskResult};
use std::sync::Arc;

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig::small().with_seed(seed).with_trials(300)
}

/// Every report of one sweep, collected in input order.
fn collected(
    session: &RiskSession,
    scenarios: &[ScenarioConfig],
) -> RiskResult<Vec<PipelineReport>> {
    let outcome = session.sweep(scenarios).collect().drive()?;
    Ok(outcome.into_reports().unwrap_or_default())
}

/// An attachment-factor sweep: every scenario shares one stage-1 key.
fn pricing_sweep(seed: u64, points: usize) -> Vec<ScenarioConfig> {
    (0..points)
        .map(|i| {
            ScenarioConfig::small()
                .with_seed(seed)
                .with_trials(300)
                .with_name(format!("attach-{i}"))
                .with_attachment_factor(0.25 + 0.25 * i as f64)
        })
        .collect()
}

#[test]
fn run_stream_is_bit_identical_to_batch_and_solo_on_any_thread_count() -> RiskResult<()> {
    let scenarios = [scenario(81), scenario(82), scenario(83), scenario(84)];

    // Reference: each scenario alone on its own fresh single-threaded
    // session (the most conservative configuration: nothing is shared).
    let reference: Vec<_> = scenarios
        .iter()
        .map(|s| RiskSession::builder().pool_threads(1).build()?.run(s))
        .collect::<RiskResult<_>>()?;

    for threads in [1, 2, 8] {
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let batch = collected(&session, &scenarios)?;

        let mut streamed = Vec::new();
        let delivered = session.run_stream(&scenarios, |i, report| {
            streamed.push((i, report));
            Ok(())
        })?;
        assert_eq!(delivered, scenarios.len());
        assert_eq!(streamed.len(), scenarios.len());

        for (i, want) in reference.iter().enumerate() {
            let (slot, got) = &streamed[i];
            assert_eq!(*slot, i, "stream delivered out of input order");
            assert_eq!(got.scenario_name, scenarios[i].name);
            assert_eq!(got.ylt, want.ylt, "stream slot {i} on {threads} threads");
            assert_eq!(got.measures, want.measures);
            assert_eq!(
                batch[i].ylt, want.ylt,
                "batch slot {i} on {threads} threads"
            );
        }
    }
    Ok(())
}

#[test]
fn caching_never_changes_results() -> RiskResult<()> {
    let scenarios = pricing_sweep(91, 4);
    let cached = RiskSession::builder().pool_threads(4).build()?;
    let a = collected(&cached, &scenarios)?;
    assert!(cached.stage1_cache_stats().hits > 0);
    // Reference: a fresh session per scenario shares nothing.
    for (x, s) in a.iter().zip(&scenarios) {
        let fresh = RiskSession::builder().pool_threads(4).build()?;
        let y = fresh.run(s)?;
        assert_eq!(fresh.stage1_cache_stats().hits, 0);
        assert_eq!(x.ylt, y.ylt);
        assert_eq!(x.measures, y.measures);
    }
    Ok(())
}

#[test]
fn shared_key_sweep_builds_stage1_exactly_once() -> RiskResult<()> {
    // 6 scenarios, one catalogue, 4 workers racing on the same key: the
    // per-key lock must still serialise to a single build.
    let scenarios = pricing_sweep(92, 6);
    let key = scenarios[0].stage1_key();
    for s in &scenarios {
        assert_eq!(s.stage1_key(), key, "sweep must share one stage-1 key");
    }
    let session = RiskSession::builder().pool_threads(4).build()?;
    let reports = collected(&session, &scenarios)?;
    assert_eq!(reports.len(), 6);
    let stats = session.stage1_cache_stats();
    assert_eq!(stats.misses, 1, "stage 1 must build exactly once per key");
    assert_eq!(stats.hits, 5);
    assert_eq!(stats.entries, 1);
    // Distinct attachments genuinely price differently.
    assert_ne!(reports[0].ylt, reports[5].ylt);
    Ok(())
}

#[test]
fn distinct_keys_each_build_once() -> RiskResult<()> {
    let mut scenarios = Vec::new();
    for seed in [101, 102] {
        scenarios.extend(pricing_sweep(seed, 3));
    }
    let session = RiskSession::builder().pool_threads(4).build()?;
    collected(&session, &scenarios)?;
    let stats = session.stage1_cache_stats();
    assert_eq!(stats.misses, 2, "one build per distinct key");
    assert_eq!(stats.hits, 4);
    assert_eq!(stats.entries, 2);
    Ok(())
}

#[test]
fn stream_propagates_scenario_errors_in_input_order() -> RiskResult<()> {
    let session = RiskSession::builder().pool_threads(4).build()?;
    let mut bad = scenario(130);
    bad.trials = 0;
    let scenarios = [scenario(131), bad, scenario(132)];
    let mut delivered = Vec::new();
    let err = session.run_stream(&scenarios, |i, _| {
        delivered.push(i);
        Ok(())
    });
    assert!(err.is_err());
    // Only the slot before the failure was delivered.
    assert_eq!(delivered, vec![0]);
    Ok(())
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

/// The tentpole contract: a sweep of >= 8 scenarios yields pooled
/// AEP/OEP points, VaR99/TVaR99 and PML over the pooled distribution
/// through `SweepSummary`, bit-identical on 1/2/8 threads, and equal
/// to the exact computation over the concatenated (batch-collected)
/// losses — while the streaming path dropped every report after its
/// sink call.
#[test]
fn pooled_sweep_analytics_bit_identical_across_threads() -> RiskResult<()> {
    use riskpipe::types::stats::{quantile_sorted, sort_f64, tail_mean_sorted};
    let scenarios = pricing_sweep(170, 8);

    // Exact reference: pool every trial of every report from a batch
    // run (which retains YLTs) and sort once.
    let reference_session = RiskSession::builder().pool_threads(1).build()?;
    let reports = collected(&reference_session, &scenarios)?;
    let mut pooled: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.ylt.agg_losses().iter().copied())
        .collect();
    sort_f64(&mut pooled);
    let want_var99 = quantile_sorted(&pooled, 0.99).to_bits();
    let want_tvar99 = tail_mean_sorted(&pooled, 0.99).to_bits();
    let want_pml100 = quantile_sorted(&pooled, 1.0 - 1.0 / 100.0).to_bits();

    struct PooledBits {
        var99: u64,
        tvar99: u64,
        pml100: u64,
        aep: Vec<u64>,
        oep: Vec<u64>,
    }
    let mut seen: Vec<PooledBits> = Vec::new();
    for threads in [1, 2, 8] {
        let session = RiskSession::builder().pool_threads(threads).build()?;
        let mut summary = SweepSummary::new();
        let delivered = session.run_stream(&scenarios, &mut summary)?;
        assert_eq!(delivered, 8);
        assert_eq!(summary.scenarios(), 8);
        assert_eq!(summary.trials(), 8 * 300);
        // 2400 pooled trials stay under the sketch's exact threshold.
        assert!(summary.analytics_exact());
        assert_eq!(summary.rank_error_bound(), 0.0);
        let aep: Vec<u64> = summary
            .aep_points()
            .iter()
            .map(|p| p.loss.to_bits())
            .collect();
        let oep: Vec<u64> = summary
            .oep_points()
            .iter()
            .map(|p| p.loss.to_bits())
            .collect();
        assert_eq!(aep.len(), 8, "2400 trials resolve all standard RPs");
        seen.push(PooledBits {
            var99: summary.pooled_var99().unwrap().to_bits(),
            tvar99: summary.pooled_tvar99().unwrap().to_bits(),
            pml100: summary.pooled_pml(100.0).unwrap().to_bits(),
            aep,
            oep,
        });
    }
    // Identical across thread counts…
    for other in &seen[1..] {
        assert_eq!(seen[0].var99, other.var99);
        assert_eq!(seen[0].tvar99, other.tvar99);
        assert_eq!(seen[0].pml100, other.pml100);
        assert_eq!(seen[0].aep, other.aep);
        assert_eq!(seen[0].oep, other.oep);
    }
    // …and bit-identical to the exact pooled computation.
    assert_eq!(seen[0].var99, want_var99);
    assert_eq!(seen[0].tvar99, want_tvar99);
    assert_eq!(seen[0].pml100, want_pml100);
    Ok(())
}

#[test]
fn persisting_sink_spills_each_report_and_pools_analytics() -> RiskResult<()> {
    let dir = std::env::temp_dir().join(format!("riskpipe-psink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ShardedFilesStore::new(&dir, 2)?);
    let scenarios = pricing_sweep(180, 4);
    // The session itself keeps intermediates in memory; the *sink*
    // persists each completed report as it arrives, then drops it,
    // while a summary member of the same fan-out pools analytics.
    let session = RiskSession::builder().pool_threads(2).build()?;
    let mut summary = SweepSummary::new();
    let mut sink = PersistingSink::new(store.clone());
    session.run_stream(
        &scenarios,
        FanoutSink::new().with(&mut summary).with(&mut sink),
    )?;
    assert_eq!(sink.reports_persisted(), 4);
    assert!(sink.bytes_persisted() > 0);
    assert_eq!(summary.scenarios(), 4);
    assert!(summary.pooled_tvar99().is_some());

    // Every slot produced a decodable YLT plus rendered measures.
    let solo = session.run(&scenarios[2])?;
    let slot_dir = dir.join("batch-002");
    let encoded = std::fs::read(slot_dir.join(ShardedFilesStore::YLT_FILE))?;
    let ylt: riskpipe::tables::Ylt = riskpipe::tables::codec::decode(&encoded)?;
    assert_eq!(ylt, solo.ylt, "persisted YLT must round-trip bit-exactly");
    let measures = std::fs::read_to_string(slot_dir.join(ShardedFilesStore::MEASURES_FILE))?;
    assert!(measures.contains("TVaR 99%"), "{measures}");

    // clear_runs reclaims the persisted-report artifacts too.
    store.clear_runs()?;
    assert!(!slot_dir.exists());
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn persisting_sink_through_default_store_is_memory_only() -> RiskResult<()> {
    // InMemoryStore's persist_report default keeps nothing durable but
    // the sink still counts every report, and a summary riding the
    // same fan-out still pools analytics.
    let session = RiskSession::builder().pool_threads(2).build()?;
    let scenarios = pricing_sweep(190, 3);
    let mut summary = SweepSummary::new();
    let mut sink = PersistingSink::new(Arc::new(riskpipe::core::InMemoryStore));
    session.run_stream(
        &scenarios,
        FanoutSink::new().with(&mut summary).with(&mut sink),
    )?;
    assert_eq!(sink.reports_persisted(), 3);
    assert_eq!(sink.bytes_persisted(), 0);
    assert_eq!(summary.scenarios(), 3);
    Ok(())
}

#[test]
fn run_after_stream_reuses_the_cache() -> RiskResult<()> {
    let scenarios = pricing_sweep(160, 3);
    let session = RiskSession::builder().pool_threads(2).build()?;
    session.run_stream(&scenarios, |_, _| Ok(()))?;
    let misses_after_sweep = session.stage1_cache_stats().misses;
    assert_eq!(misses_after_sweep, 1);
    // A solo run over the same catalogue is a pure hit.
    session.run(&scenarios[0])?;
    let stats = session.stage1_cache_stats();
    assert_eq!(stats.misses, misses_after_sweep);
    assert!(stats.hits >= 3);
    Ok(())
}

// ---------------------------------------------------------------------
// The event-major join of a model run's books (secondary tables moved
// into hit order) and stage 3's DFA factor block ride the stage-1 cache
// entry: built once per distinct key by the key's leader, charged in the
// cache's byte count, rebuilt from the decoded model run on a disk-tier hit —
// and never visible in a result bit.
// ---------------------------------------------------------------------

/// Everything a report derives from its YLT — the stage-3 DFA metrics
/// included — for bit comparisons.
fn result_bits(report: &PipelineReport) -> (Vec<u64>, Vec<u64>, Vec<u32>, [u64; 4]) {
    let (agg, max_occ, counts) = report.ylt.columns();
    (
        agg.iter().map(|x| x.to_bits()).collect(),
        max_occ.iter().map(|x| x.to_bits()).collect(),
        counts.to_vec(),
        [
            report.measures.tvar99.to_bits(),
            report.prob_ruin.to_bits(),
            report.mean_net_income.to_bits(),
            report.economic_capital.to_bits(),
        ],
    )
}

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
fn same_key_sweep_builds_tables_and_join_once_per_key_on_any_thread_count() -> RiskResult<()> {
    let sweep = pricing_sweep(200, 8);
    let mut two_keys = pricing_sweep(201, 4);
    two_keys.extend(pricing_sweep(202, 4));

    // Reference: a fresh session per scenario shares nothing, so every
    // scenario builds its own tables, join and factor block.
    let fresh_telemetry = Telemetry::new();
    let want: Vec<_> = sweep
        .iter()
        .map(|s| {
            let fresh = RiskSession::builder()
                .pool_threads(2)
                .telemetry(fresh_telemetry.clone())
                .build()?;
            Ok(result_bits(&fresh.run(s)?))
        })
        .collect::<RiskResult<_>>()?;
    let metrics = fresh_telemetry.snapshot().metrics().clone();
    assert_eq!(metrics.counter("stage2.secondary_builds"), 8);
    assert_eq!(metrics.counter("stage2.join_builds"), 8);
    assert_eq!(metrics.counter("stage3.dfa_factor_builds"), 8);

    for threads in [1, 2, 8] {
        let telemetry = Telemetry::new();
        let session = RiskSession::builder()
            .pool_threads(threads)
            .telemetry(telemetry.clone())
            .build()?;
        let got = collect_stream(&session, &sweep)?;
        let stats = session.stage1_cache_stats();
        assert_eq!(
            (stats.builds, stats.misses, stats.hits),
            (1, 1, 7),
            "{threads} threads"
        );
        let metrics = telemetry.snapshot().metrics().clone();
        assert_eq!(
            metrics.counter("stage2.secondary_builds"),
            1,
            "{threads} threads: one table set for the one key"
        );
        assert_eq!(
            metrics.counter("stage2.join_builds"),
            1,
            "{threads} threads: one join for the one key"
        );
        assert_eq!(
            metrics.counter("stage2.join_hits"),
            got[0].elt_rows as u64,
            "one hit per ELT row over the key's books"
        );
        assert_eq!(
            metrics.counter("stage3.dfa_factor_builds"),
            1,
            "{threads} threads: one factor block for the one key"
        );
        for (slot, report) in got.iter().enumerate() {
            assert_eq!(
                result_bits(report),
                want[slot],
                "slot {slot} on {threads} threads vs fresh sessions"
            );
        }

        telemetry.reset();
        collect_stream(&session, &two_keys)?;
        let metrics = telemetry.snapshot().metrics().clone();
        assert_eq!(metrics.counter("stage2.secondary_builds"), 2);
        assert_eq!(metrics.counter("stage2.join_builds"), 2);
        assert_eq!(metrics.counter("stage3.dfa_factor_builds"), 2);
        assert_eq!(metrics.counter("stage1.builds"), 2);
    }
    Ok(())
}

#[test]
fn cache_bytes_charge_the_join_and_eviction_drops_it() -> RiskResult<()> {
    let a = scenario(210);
    let no_secondary = AggregateOptions {
        secondary_uncertainty: false,
        ..AggregateOptions::default()
    };
    // What an entry for `s` must be charged under `opts`: the model run
    // plus the join of its books plus the DFA factor block.
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
        Ok((output.memory_bytes() + join.memory_bytes() + factors.memory_bytes()) as u64)
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
    assert_eq!(result_bits(&again), result_bits(&first));
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

fn assert_same_bits(got: &[PipelineReport], want: &[PipelineReport], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (slot, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(result_bits(g), result_bits(w), "{what}: slot {slot}");
    }
}

#[test]
fn disk_warm_session_adopts_the_stored_grids_and_inverts_no_beta() -> RiskResult<()> {
    let dir = tier_dir("grids");
    let mut scenarios = pricing_sweep(220, 3);
    scenarios.extend(pricing_sweep(221, 3));
    let opts = AggregateOptions::default();

    let (want, cold, derived) = tier_sweep(&dir, opts, &scenarios)?;
    assert_eq!((cold.builds, cold.disk_writes), (2, 2));
    assert_eq!(derived, [2, 2, 2], "a cold key derives everything once");

    // A second process: the model run *and* its quantile grids come
    // off the disk; only the cheap parts are derived again.
    let (got, warm, derived) = tier_sweep(&dir, opts, &scenarios)?;
    assert_eq!((warm.builds, warm.disk_hits, warm.disk_writes), (0, 2, 0));
    assert_eq!(
        derived,
        [0, 2, 2],
        "no beta is inverted; the join and the factor block are not in the tier"
    );
    assert_same_bits(&got, &want, "disk-warm");

    // A fresh session per scenario shares no RAM entry, so every lookup
    // is a disk hit — still zero inversions, and nothing is written back.
    for (slot, s) in scenarios.iter().enumerate() {
        let (got, fresh, derived) = tier_sweep(&dir, opts, std::slice::from_ref(s))?;
        assert_eq!(
            (fresh.builds, fresh.disk_hits, fresh.disk_writes),
            (0, 1, 0)
        );
        assert_eq!(derived, [0, 1, 1]);
        assert_same_bits(&got, &want[slot..=slot], "disk-warm, fresh session");
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
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
    assert_same_bits(&got, &want, "upgrading session");

    let (got, third, derived) = tier_sweep(&dir, opts, &scenarios)?;
    assert_eq!(
        (third.builds, third.disk_hits, third.disk_writes),
        (0, 2, 0)
    );
    assert_eq!(derived[0], 0, "the rewrite made the next process warm");
    assert_same_bits(&got, &want, "third session");

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
    assert_same_bits(&got, &want, "33-point session over a 17-point entry");

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
    assert_same_bits(&got, &want, "adopting session");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn dfa_factor_block_is_bit_identical_on_any_pool() -> RiskResult<()> {
    // The session builds the block through its pool's
    // `par_map_collect`; `DfaEngine::run` builds it serially. Same
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
            let got = bits(trials, &|n, task| par_map_collect(pool, n, 1, task))?;
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
    let session = RiskSession::builder().pool_threads(2).build()?;
    let err = session
        .run(&scenario(231).with_trials(3))
        .expect_err("3 trials cannot carry a 5-column Iman–Conover");
    assert!(matches!(err, RiskError::InvalidParameter(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("at least 6 trials, got 3"), "{msg}");
    // The failed key is not poisoned, and the minimum really is 6.
    assert!(session.run(&scenario(231).with_trials(3)).is_err());
    assert_eq!(session.run(&scenario(231).with_trials(6))?.ylt.trials(), 6);
    Ok(())
}
