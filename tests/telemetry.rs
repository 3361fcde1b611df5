//! The telemetry contract: a session built with a [`Telemetry`] handle
//! records a span for every stage of a driven plan (stage-1 builds,
//! stage-2 scenarios, per-sink deliveries, shuffle tasks, durable
//! writes), its metrics registry snapshots **bit-identically across
//! thread counts** (timings are spans-only, never metrics), a session
//! built without one records nothing anywhere, and the JSON export
//! schema stays pinned at version 2.

use riskpipe::analytics::{DrilldownLayout, ScenarioDims, SessionAnalytics, SweepPlanAnalytics};
use riskpipe::catmodel::financial::location_loss;
use riskpipe::catmodel::site_intensity;
use riskpipe::core::{
    InMemoryStore, PipelineReport, RiskSession, ScenarioConfig, ShardedFilesStore,
};
use riskpipe::obs::JSON_SCHEMA_VERSION;
use riskpipe::prelude::{MetricsSnapshot, Query, RiskResult, Telemetry};
use riskpipe::tables::Yelt;
use riskpipe::warehouse::{LevelSelect, Source};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("riskpipe-obs-{tag}-{}-{n}", std::process::id()))
}

/// A 2-region × 2-peril grid (distinct stage-1 keys) for plans that
/// exercise every consumer.
fn grid(seed: u64) -> (Vec<ScenarioConfig>, Vec<ScenarioDims>) {
    let mut scenarios = Vec::new();
    let mut dims = Vec::new();
    for region in 0..2u32 {
        for peril in 0..2u32 {
            let s = ScenarioConfig::small()
                .with_seed(seed + (region * 2 + peril) as u64)
                .with_trials(300)
                .with_name(format!("r{region}-p{peril}"));
            dims.push(ScenarioDims::for_scenario(region, peril, &s));
            scenarios.push(s);
        }
    }
    (scenarios, dims)
}

/// How many (event, location) pairs of a scenario's model run produce
/// a positive insured loss, counted the exhaustive way: every event of
/// the catalogue against every location of every book, through the
/// public hazard → vulnerability → financial functions. The oracle for
/// `stage1.elt_damaging`; also returns the size of that product.
fn exhaustive_damaging(scenario: &ScenarioConfig) -> RiskResult<(u64, u64)> {
    let output = scenario.build_stage1()?.output;
    let (mut damaging, mut product) = (0u64, 0u64);
    for book in &output.books {
        for event in output.catalog.events() {
            for loc in book.exposure.locations() {
                let mdr = loc
                    .construction
                    .mean_damage_ratio(site_intensity(event, &loc.position));
                damaging += u64::from(mdr > 0.0 && location_loss(loc, mdr) > 0.0);
                product += 1;
            }
        }
    }
    Ok((damaging, product))
}

/// Drive the full summary + persist + warehouse plan on a fresh
/// telemetry-bearing session and return the registry snapshot.
fn drive_full_plan(threads: usize, seed: u64) -> RiskResult<MetricsSnapshot> {
    let telemetry = Telemetry::new();
    let (scenarios, dims) = grid(seed);
    let dir = temp("metrics");
    let store = Arc::new(ShardedFilesStore::new(&dir, 2)?);
    let session = RiskSession::builder()
        .pool_threads(threads)
        .telemetry(telemetry.clone())
        .build()?;
    let layout = DrilldownLayout::new(dims, session.engine())?;
    let outcome = session
        .sweep(&scenarios)
        .summary()
        .persist_to(store)
        .warehouse(layout)
        .drive()?;
    assert_eq!(outcome.delivered(), scenarios.len());
    let metrics = telemetry.snapshot().metrics().clone();
    std::fs::remove_dir_all(&dir).ok();
    Ok(metrics)
}

/// The headline determinism guarantee: the metrics registry holds only
/// deterministic integer quantities, so the same logical sweep yields
/// **bit-identical** snapshots on 1, 2 and 8 threads.
#[test]
fn metrics_snapshots_are_bit_identical_across_thread_counts() -> RiskResult<()> {
    let seen: Vec<MetricsSnapshot> = [1usize, 2, 8]
        .iter()
        .map(|&threads| drive_full_plan(threads, 0x0B5))
        .collect::<RiskResult<_>>()?;
    assert_eq!(seen[0], seen[1], "1-thread vs 2-thread metrics diverged");
    assert_eq!(seen[1], seen[2], "2-thread vs 8-thread metrics diverged");

    // And the snapshot is substantive, not vacuously equal: every
    // pipeline layer contributed.
    let m = &seen[0];
    assert_eq!(m.counter("stage1.builds"), 4, "one build per distinct key");
    assert_eq!(m.counter("stage1.misses"), 4);
    assert_eq!(m.counter("stage2.scenarios"), 4);
    assert_eq!(m.counter("stage2.scans"), 4, "distinct keys: one scan each");
    assert_eq!(
        m.counter("stage2.secondary_builds"),
        4,
        "one table set per distinct key"
    );
    assert_eq!(
        m.counter("stage2.join_builds"),
        4,
        "one join per distinct key"
    );
    assert_eq!(
        m.counter("stage3.dfa_factor_builds"),
        4,
        "one DFA factor block per distinct key"
    );
    assert_eq!(
        m.counter("stage2.yelt_counts"),
        m.counter("stage2.join_builds"),
        "the first book's YELT rows are counted once per distinct key"
    );
    let (mut elt_rows, mut yelt_rows) = (0, 0);
    for s in &grid(0x0B5).0 {
        let stage1 = s.build_stage1()?;
        elt_rows += stage1.portfolio().total_elt_rows();
        yelt_rows += Yelt::from_yet_elt(&stage1.output.yet, &stage1.output.books[0].elt).rows();
    }
    assert_eq!(
        m.counter("stage2.join_hits"),
        elt_rows as u64,
        "one hit per ELT row over every key's books"
    );
    assert_eq!(
        m.counter("stage2.yelt_rows"),
        yelt_rows as u64,
        "every scenario reports its materialised YELT's row count"
    );
    // The grid inversions report their work as a count: at least each
    // row's start point, and the same on every split of rows to tasks.
    assert!(
        m.counter("stage2.secondary_evals") >= elt_rows as u64,
        "every inverted row evaluates its start point"
    );
    // ... and a row's solves share one descent: at most 12.7 beta CDF
    // evaluations per grid cell (33 cells per row). On this grid a
    // shared trail runs 4.50 per cell, and solving every cell from
    // scratch 23.56.
    let cells = m.counter("stage2.join_hits") * 33;
    assert!(
        m.counter("stage2.secondary_evals") as f64 <= 12.7 * cells as f64,
        "{} beta CDF evaluations over {cells} grid cells: a row's solves \
         stopped sharing their descent",
        m.counter("stage2.secondary_evals")
    );
    // ELT generation reports its work as counts: the damaging pairs
    // are exactly the exhaustive loop's, and the pairs that ran the
    // exact chain lie between them and the full product.
    let (mut damaging, mut product) = (0, 0);
    for s in &grid(0x0B5).0 {
        let (d, p) = exhaustive_damaging(s)?;
        damaging += d;
        product += p;
    }
    assert_eq!(m.counter("stage1.elt_damaging"), damaging);
    let pairs = m.counter("stage1.elt_pairs");
    assert!(damaging > 0 && pairs >= damaging && pairs < product);
    assert_eq!(m.counter("sweep.delivered"), 4);
    assert!(m.counter("sink.deliveries") >= 4, "fan-out delivered");
    assert_eq!(m.counter("warehouse.reports"), 4);
    assert!(m.counter("warehouse.trials") > 0);
    // Warehouse ingest folds slices of the report's sorted column: it
    // runs no MapReduce job, so the shuffle counters are not merely
    // zero but never registered (the `shuffle.*` instrumentation is
    // pinned where it lives, in riskpipe-mapreduce's runtime tests).
    for name in [
        "shuffle.map_tasks",
        "shuffle.reduce_tasks",
        "shuffle.records",
    ] {
        assert!(!m.counters.contains_key(name), "{name} registered");
    }
    assert!(m.counter("durable.writes") > 0, "persistence wrote files");
    assert!(m.counter("durable.bytes") > 0);
    let trials = m
        .histograms
        .get("stage2.trials")
        .expect("stage2 trial histogram registered");
    assert_eq!(trials.total, 4, "one histogram sample per scenario");
    assert_eq!(trials.sum, 4 * 300);
    Ok(())
}

/// On a `cold_models`-sized book (12 000 clustered locations) the
/// footprint walk evaluates under 5 % of the event × location product
/// — a regression to the all-pairs loop shows up as a count, on any
/// machine — while the damaging pairs stay exactly the exhaustive
/// loop's, on 1, 2 and 8 threads alike.
#[test]
fn elt_counters_show_the_footprint_walk_is_selective() -> RiskResult<()> {
    let scenario = ScenarioConfig {
        name: "one-large-book".into(),
        events: 150,
        annual_rate: 20.0,
        contracts: 1,
        locations_per_contract: 12_000,
        trials: 100,
        seed: 12_345,
        attachment_factor: 0.5,
    };
    let (damaging, product) = exhaustive_damaging(&scenario)?;
    assert_eq!(product, 150 * 12_000);
    for threads in [1usize, 2, 8] {
        let telemetry = Telemetry::new();
        let session = RiskSession::builder()
            .pool_threads(threads)
            .telemetry(telemetry.clone())
            .build()?;
        session.run(&scenario)?;
        let m = telemetry.snapshot().metrics().clone();
        assert_eq!(m.counter("stage1.builds"), 1);
        assert_eq!(
            m.counter("stage1.elt_damaging"),
            damaging,
            "{threads} threads"
        );
        let pairs = m.counter("stage1.elt_pairs");
        assert!(pairs >= damaging);
        assert!(
            pairs * 20 < product,
            "{threads} threads: {pairs} of {product} pairs ran the chain"
        );
    }
    Ok(())
}

/// Each answered drill-down query reports how its rows came to be: a
/// query a view serves at its own grain reads the view's cells, borrows
/// every row and merges nothing; one rolled up from the base reads every
/// base cell, owns every row and merged the cells behind them. With the
/// queries and cells read counted, the merged share of the cells read —
/// the operator's signal that the view set does not fit the query mix —
/// comes from telemetry alone, and, being counts of cells, is the same
/// on 1, 2 and 8 threads.
#[test]
fn answer_counters_tell_borrowed_rows_from_merged_cells() -> RiskResult<()> {
    let by_book = LevelSelect([0, 0, 3, 1]);
    let by_layer = LevelSelect([0, 0, 0, 1]);
    let mut seen = Vec::new();
    for threads in [1usize, 2, 8] {
        let telemetry = Telemetry::new();
        let (scenarios, dims) = grid(0x0BA);
        let session = RiskSession::builder()
            .pool_threads(threads)
            .telemetry(telemetry.clone())
            .build()?;
        let layout = DrilldownLayout::new(dims, session.engine())?;
        let mut wh = session
            .sweep(&scenarios)
            .warehouse(layout)
            .drive()?
            .into_drilldown();
        wh.materialize(by_book)?;

        // Queries run on the caller's thread: install the handle there.
        let _ctx = riskpipe::obs::install(&telemetry);
        let counters = || {
            let m = telemetry.snapshot().metrics().clone();
            (
                m.counter("warehouse.answer.queries"),
                m.counter("warehouse.answer.cells_read"),
                m.counter("warehouse.answer.rows_borrowed"),
                m.counter("warehouse.answer.cells_merged"),
            )
        };
        assert_eq!(counters(), (0, 0, 0, 0), "the sweep answers no query");

        let (rows, cost) = wh.answer(&Query::group_by(by_book))?;
        assert_eq!(cost.source, Source::Materialized(by_book));
        assert!(rows.iter().all(|r| r.is_borrowed()));
        let view_served = counters();
        assert_eq!(
            view_served,
            (1, 4, 4, 0),
            "the view's 4 cells read, one borrowed row per book"
        );

        let (rows, cost) = wh.answer(&Query::group_by(by_layer))?;
        assert_eq!(cost.source, Source::Materialized(LevelSelect::BASE));
        assert!(rows.iter().all(|r| !r.is_borrowed()));
        let base_cells = wh.base().cells() as u64;
        let rolled_up = counters();
        assert_eq!(
            rolled_up,
            (2, 4 + base_cells, 4, base_cells - 4),
            "every base cell read, and all but each row's first merged"
        );
        seen.push((view_served, rolled_up));
    }
    assert_eq!(seen[0], seen[1], "1-thread vs 2-thread counters diverged");
    assert_eq!(seen[1], seen[2], "2-thread vs 8-thread counters diverged");
    Ok(())
}

/// One telemetry-enabled drive of a summary + persist + warehouse plan
/// records a span for every stage the ISSUE names: stage-1 builds,
/// stage-2 engine runs per scenario, per-sink deliveries, one
/// warehouse ingest per scenario (and no shuffle beneath it), and
/// durable write/fsync.
#[test]
fn span_tree_covers_every_stage_of_a_full_plan() -> RiskResult<()> {
    let telemetry = Telemetry::new();
    let (scenarios, dims) = grid(0x0B6);
    let dir = temp("spans");
    let store = Arc::new(ShardedFilesStore::new(&dir, 2)?);
    let session = RiskSession::builder()
        .pool_threads(2)
        .telemetry(telemetry.clone())
        .build()?;
    let layout = DrilldownLayout::new(dims, session.engine())?;
    let outcome = session
        .sweep(&scenarios)
        .summary()
        .persist_to(store)
        .warehouse(layout)
        .drive()?;

    // The outcome carries the snapshot; the flight recorder lost
    // nothing at this scale.
    let snap = outcome.telemetry().expect("session has telemetry");
    assert_eq!(snap.dropped(), 0);

    // Exactly-once stages pin their counts; fan-in stages just have to
    // be present (task splits vary with thread count).
    let n = scenarios.len();
    let exact = [
        ("sweep.drive", 1),
        ("sweep.run_stream", 1),
        ("sweep.scenario", n),
        ("stage1.acquire", n),
        ("stage1.build", n),       // distinct seeds → one build each
        ("stage2.secondary", n),   // … and one table set each
        ("stage2.join", n),        // … joined once each
        ("stage2.yelt_count", n),  // … its first book's YELT counted once
        ("stage3.dfa_factors", n), // … and one DFA factor block each
        ("stage2.engine", n),      // … and one scan each
        ("stage2.persist_yelt", n),
        ("stage3.dfa", n),
        ("warehouse.ingest", n),
        ("persist.handoff", n), // one write handed to the writer per report
    ];
    for (name, want) in exact {
        assert_eq!(
            snap.spans_named(name).count(),
            want,
            "span count for {name}"
        );
    }
    let present = [
        "pool.task",
        "sink.deliver",
        "durable.write",
        "durable.fsync",
    ];
    for name in present {
        assert!(
            snap.spans_named(name).count() > 0,
            "no {name} span recorded"
        );
    }

    // Ingest is a leaf: no per-report job, so no shuffle spans.
    for name in ["shuffle.map", "shuffle.reduce"] {
        assert_eq!(snap.spans_named(name).count(), 0, "{name} span recorded");
    }

    // The secondary tables, the join of the books, the YELT row count
    // and the DFA factor block belong to the cached model run: each
    // build is keyed by `stage1_key` and runs inside its key's
    // `stage1.acquire`. The first three are children of the acquire on
    // its thread — siblings, tables first. The factor block is a pool
    // task of its own beside them, so it may run on any thread, at any
    // depth: only its key and its time window are pinned.
    let acquire_of = |derived: &riskpipe::obs::SpanRecord| {
        assert!(scenarios.iter().any(|s| s.stage1_key() == derived.key));
        let parent = snap
            .spans_named("stage1.acquire")
            .find(|a| a.key == derived.key)
            .expect("an acquire span for the same stage-1 key");
        assert!(parent.start_ns <= derived.start_ns);
        assert!(derived.start_ns + derived.dur_ns <= parent.start_ns + parent.dur_ns);
        parent
    };
    for derived in snap
        .spans_named("stage2.secondary")
        .chain(snap.spans_named("stage2.join"))
        .chain(snap.spans_named("stage2.yelt_count"))
    {
        let parent = acquire_of(derived);
        assert_eq!(parent.thread, derived.thread);
        assert_eq!(parent.depth + 1, derived.depth);
    }
    for factors in snap.spans_named("stage3.dfa_factors") {
        acquire_of(factors);
    }

    // Each handoff is keyed by its slot and waits on the delivering
    // thread, inside the persisting member's delivery span; the
    // reports' durable writes run on the sink's writer thread.
    let mut slots: Vec<u64> = snap.spans_named("persist.handoff").map(|h| h.key).collect();
    slots.sort_unstable();
    assert_eq!(slots, (0..n as u64).collect::<Vec<_>>());
    for handoff in snap.spans_named("persist.handoff") {
        assert!(
            snap.spans_named("sink.deliver")
                .any(|d| d.thread == handoff.thread
                    && d.depth + 1 == handoff.depth
                    && d.start_ns <= handoff.start_ns
                    && handoff.start_ns + handoff.dur_ns <= d.start_ns + d.dur_ns),
            "a persist.handoff outside any delivery"
        );
    }
    let delivering = snap.spans_named("persist.handoff").next().unwrap().thread;
    assert_eq!(
        snap.spans_named("durable.write")
            .filter(|w| w.thread == delivering)
            .count(),
        1,
        "only the run manifest is written on the delivering thread"
    );

    // Stitched order is deterministic: thread-then-sequence.
    let spans = snap.spans();
    assert!(spans
        .windows(2)
        .all(|w| (w[0].thread, w[0].seq) < (w[1].thread, w[1].seq)));

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// The read side of stage 3 records one span per call, each on the
/// calling thread: `warehouse.rebuild` around a reload (installed from
/// the session's handle; the slot folds are its children there, while
/// the reads run on the pool) and `warehouse.materialize` around view
/// sizing (recorded under whatever context the caller installed).
/// `warehouse.materialize.rollups` counts the rollups that run, which
/// are the views built (sizing rolls nothing up), the same on every
/// pool.
#[test]
fn rebuild_and_view_sizing_record_one_span_per_call() -> RiskResult<()> {
    let (scenarios, dims) = grid(0x0BB);
    let mut rollups_per_call = Vec::new();
    for threads in [1usize, 2, 8] {
        let telemetry = Telemetry::new();
        let dir = temp("rebuild");
        let store = Arc::new(ShardedFilesStore::new(&dir, 2)?);
        let session = RiskSession::builder()
            .pool_threads(threads)
            .telemetry(telemetry.clone())
            .build()?;
        let layout = DrilldownLayout::new(dims.clone(), session.engine())?;
        session
            .sweep(&scenarios)
            .persist_to(store.clone())
            .drive()?;
        telemetry.reset();

        let mut rollups = 0;
        for call in 1..=2usize {
            let mut wh = session
                .analytics(layout.clone())
                .rebuild_from_store(&store, 0)?;
            {
                let _ctx = riskpipe::obs::install(&telemetry);
                wh.materialize_budget(64 * 1024)?;
            }
            assert!(!wh.views().is_empty(), "the budget buys a view");
            // Sizing rolls nothing up: the only rollups are the views.
            rollups = wh.views().len() as u64;
            let snap = telemetry.snapshot();
            assert_eq!(snap.spans_named("warehouse.rebuild").count(), call);
            assert_eq!(snap.spans_named("warehouse.materialize").count(), call);
            assert_eq!(
                snap.spans_named("warehouse.ingest").count(),
                call * scenarios.len()
            );
            assert_eq!(
                snap.metrics().counter("warehouse.materialize.rollups"),
                call as u64 * rollups,
                "{threads} threads, call {call}"
            );
            let rebuild = snap
                .spans_named("warehouse.rebuild")
                .last()
                .expect("a rebuild span");
            for ingest in snap.spans_named("warehouse.ingest") {
                assert_eq!(ingest.thread, rebuild.thread);
            }
            let ingest = snap
                .spans_named("warehouse.ingest")
                .find(|s| s.start_ns >= rebuild.start_ns)
                .expect("this call's slot folds");
            assert_eq!(ingest.depth, rebuild.depth + 1);
            for sizing in snap.spans_named("warehouse.materialize") {
                assert_eq!(sizing.thread, rebuild.thread);
            }
        }
        rollups_per_call.push(rollups);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(rollups_per_call, vec![rollups_per_call[0]; 3]);
    Ok(())
}

/// `sink.deliveries` counts one delivery per fan-out member per report,
/// the collector included: a summary + persist + collect plan over `n`
/// scenarios delivers `3n` times, each under its own `sink.deliver`
/// span, and no other combinator sits between the plan and its
/// consumers.
#[test]
fn delivery_counter_counts_every_member_of_the_plan() -> RiskResult<()> {
    let telemetry = Telemetry::new();
    let (scenarios, _) = grid(0x0BB);
    let session = RiskSession::builder()
        .pool_threads(2)
        .telemetry(telemetry.clone())
        .build()?;
    let outcome = session
        .sweep(&scenarios)
        .summary()
        .persist_to(Arc::new(InMemoryStore))
        .collect()
        .drive()?;
    let n = scenarios.len();
    assert_eq!(outcome.reports().map(<[_]>::len), Some(n));
    let snap = outcome.telemetry().expect("session has telemetry");
    assert_eq!(snap.metrics().counter("sink.deliveries"), 3 * n as u64);
    assert_eq!(snap.spans_named("sink.deliver").count(), 3 * n);
    assert_eq!(snap.spans_named("sink.tee").count(), 0);
    Ok(())
}

/// A session built *without* a telemetry handle records nothing: the
/// outcome carries no snapshot, and a bystander handle that was never
/// installed stays empty even though the sweep ran on this thread.
#[test]
fn disabled_recorder_emits_nothing() -> RiskResult<()> {
    let bystander = Telemetry::new();
    let (scenarios, _) = grid(0x0B7);
    let session = RiskSession::builder().pool_threads(2).build()?;
    let outcome = session.sweep(&scenarios).summary().drive()?;
    assert_eq!(outcome.delivered(), scenarios.len());
    assert!(outcome.telemetry().is_none(), "no handle, no snapshot");

    let snap = bystander.snapshot();
    assert!(snap.spans().is_empty());
    assert_eq!(snap.dropped(), 0);
    assert_eq!(snap.metrics(), &MetricsSnapshot::default());
    Ok(())
}

/// `SweepOutcome::telemetry` is cumulative over the session handle;
/// `Telemetry::reset` opens a fresh window, after which a re-drive of
/// the same scenarios shows cache hits instead of builds.
#[test]
fn reset_windows_cumulative_telemetry() -> RiskResult<()> {
    let telemetry = Telemetry::new();
    let (scenarios, _) = grid(0x0B8);
    let session = RiskSession::builder()
        .pool_threads(2)
        .telemetry(telemetry.clone())
        .build()?;

    let first = session.sweep(&scenarios).summary().drive()?;
    let m1 = first.telemetry().expect("telemetry requested").metrics();
    assert_eq!(m1.counter("stage1.builds"), 4);
    assert_eq!(m1.counter("stage1.hits"), 0);

    telemetry.reset();
    let second = session.sweep(&scenarios).summary().drive()?;
    let m2 = second.telemetry().expect("telemetry requested").metrics();
    assert_eq!(m2.counter("stage1.builds"), 0, "warm cache: no rebuilds");
    assert_eq!(
        m2.counter("stage2.secondary_builds"),
        0,
        "tables cached too"
    );
    assert_eq!(
        m2.counter("stage2.secondary_evals"),
        0,
        "so no beta is inverted"
    );
    assert_eq!(m2.counter("stage2.join_builds"), 0, "and the join");
    assert_eq!(
        m2.counter("stage3.dfa_factor_builds"),
        0,
        "and the DFA factor block"
    );
    assert_eq!(m2.counter("stage1.hits"), 4);
    assert_eq!(m2.counter("stage2.scenarios"), 4, "fresh window counts");
    Ok(())
}

/// Consecutive scenarios of one stage-1 key are priced by one scan: a
/// sweep of two keys, three attachment points each, makes two scans —
/// one `stage2.engine` span per scan, keyed by its group's first slot —
/// and each key acquires once, its followers counted as hits. The
/// counters are the same on 1, 2 and 8 threads.
#[test]
fn one_scan_prices_every_scenario_of_a_key() -> RiskResult<()> {
    let base = |seed: u64| ScenarioConfig::small().with_seed(seed).with_trials(300);
    let scenarios: Vec<ScenarioConfig> = [0x0C1, 0x0C2]
        .into_iter()
        .flat_map(|seed| {
            (0..3).map(move |a| base(seed).with_attachment_factor(0.5 + 0.25 * f64::from(a)))
        })
        .collect();
    let mut seen = Vec::new();
    for threads in [1, 2, 8] {
        let telemetry = Telemetry::new();
        let session = RiskSession::builder()
            .pool_threads(threads)
            .telemetry(telemetry.clone())
            .build()?;
        session.sweep(&scenarios).summary().drive()?;
        let snap = telemetry.snapshot();
        let m = snap.metrics();
        assert_eq!(m.counter("stage2.scans"), 2);
        assert_eq!(m.counter("stage2.scenarios"), 6);
        assert_eq!(m.counter("stage1.builds"), 2);
        assert_eq!(m.counter("stage1.hits"), 4, "two followers per key");
        let mut scans: Vec<u64> = snap.spans_named("stage2.engine").map(|s| s.key).collect();
        scans.sort_unstable();
        assert_eq!(scans, [0, 3], "one scan per group, keyed by its first slot");
        assert_eq!(snap.spans_named("stage1.acquire").count(), 2);
        assert_eq!(snap.spans_named("sweep.scenario").count(), 6);
        assert_eq!(snap.spans_named("stage3.dfa").count(), 6);
        seen.push(m.clone());
    }
    assert_eq!(seen[0], seen[1], "1-thread vs 2-thread metrics diverged");
    assert_eq!(seen[1], seen[2], "2-thread vs 8-thread metrics diverged");
    Ok(())
}

/// A report's YLT columns and risk measures, as bits.
fn report_bits(report: &PipelineReport) -> (Vec<u64>, Vec<u64>, Vec<u32>, [u64; 6]) {
    let (agg, max_occ, counts) = report.ylt.columns();
    let m = &report.measures;
    (
        agg.iter().map(|x| x.to_bits()).collect(),
        max_occ.iter().map(|x| x.to_bits()).collect(),
        counts.to_vec(),
        [m.mean, m.sd, m.var99, m.tvar99, m.var996, m.oep_pml100].map(f64::to_bits),
    )
}

/// YLTs over the group cap still pair up: two same-key 30 000-trial
/// scenarios (20 B × 30 000 each, over the 400 KiB cap) make one scan
/// and one build on 1, 2 and 8 threads, and each report is bit for bit
/// the scenario's lone `run`.
#[test]
fn a_pair_of_large_ylts_is_priced_in_one_scan() -> RiskResult<()> {
    let scenarios: Vec<ScenarioConfig> = [0.5, 0.75]
        .into_iter()
        .map(|a| {
            ScenarioConfig::small()
                .with_seed(0x0C3)
                .with_trials(30_000)
                .with_attachment_factor(a)
        })
        .collect();
    let lone = RiskSession::builder().pool_threads(1).build()?;
    let want = scenarios
        .iter()
        .map(|s| lone.run(s).map(|r| report_bits(&r)))
        .collect::<RiskResult<Vec<_>>>()?;
    for threads in [1, 2, 8] {
        let telemetry = Telemetry::new();
        let session = RiskSession::builder()
            .pool_threads(threads)
            .telemetry(telemetry.clone())
            .build()?;
        let mut got = Vec::new();
        session.run_stream(&scenarios, |_, report| {
            got.push(report_bits(&report));
            Ok(())
        })?;
        assert_eq!(got, want, "{threads} threads");
        let snap = telemetry.snapshot();
        let m = snap.metrics();
        assert_eq!(m.counter("stage2.scans"), 1, "{threads} threads");
        assert_eq!(m.counter("stage1.builds"), 1, "{threads} threads");
        assert_eq!(snap.spans_named("stage2.engine").count(), 1);
    }
    Ok(())
}

/// The export schema is pinned: version 2, fixed key order, spans in
/// stitched order, metrics name-ordered; the chrome trace is complete
/// ("ph":"X") events.
#[test]
fn json_export_schema_is_pinned() -> RiskResult<()> {
    assert_eq!(JSON_SCHEMA_VERSION, 2);

    let telemetry = Telemetry::new();
    let (scenarios, _) = grid(0x0B9);
    let session = RiskSession::builder()
        .pool_threads(2)
        .telemetry(telemetry.clone())
        .build()?;
    session.sweep(&scenarios).summary().drive()?;

    let snap = telemetry.snapshot();
    let json = snap.to_json();
    assert!(json.starts_with("{\"version\":2,\"dropped\":0,\"spans\":["));
    assert!(json.contains("\"metrics\":{\"counters\":{"));
    assert!(json.contains("\"stage1.builds\":4"));
    assert!(json.contains("\"stage2.scenarios\":4"));
    assert!(json.contains("\"stage2.scans\":4"));
    assert!(json.contains("\"name\":\"sweep.run_stream\""));
    assert!(json.contains("\"histograms\":{"));
    assert!(json.ends_with("}}}"));
    // Counters serialise in name order (BTreeMap), so stage1.builds
    // precedes stage2.scenarios which precedes sweep.delivered.
    let a = json.find("\"stage1.builds\"").unwrap();
    let b = json.find("\"stage2.scenarios\"").unwrap();
    let c = json.find("\"sweep.delivered\"").unwrap();
    assert!(a < b && b < c, "counters must be name-ordered");

    let trace = snap.to_chrome_trace();
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("\"name\":\"stage2.engine\""));
    assert!(trace.ends_with("]}"));
    Ok(())
}
