//! Crash-safety acceptance: interrupted or damaged persistence is
//! *detectably* absent or corrupt — never a panic, never a silently
//! shorter rebuild — and the disk-backed stage-1 cache tier lets a
//! cold session replay a sweep with zero stage-1 builds, bit-exactly.

#![expect(
    clippy::disallowed_methods,
    reason = "tests plant torn and damaged files"
)]

use riskpipe::analytics::{DrilldownLayout, ScenarioDims, SessionAnalytics, SweepPlanAnalytics};
use riskpipe::core::{
    DiskStage1Cache, RiskSession, ScenarioConfig, ShardedFilesStore, SweepSummary,
};
use riskpipe::prelude::{LevelSelect, Query};
use riskpipe_types::RiskError;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("riskpipe-durab-{tag}-{}-{n}", std::process::id()))
}

/// A 2-region × 2-peril grid: four scenarios, four distinct stage-1
/// keys.
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

/// Pooled analytics as comparable bits.
fn summary_bits(s: &SweepSummary) -> Vec<u64> {
    vec![
        s.trials(),
        s.scenarios() as u64,
        s.pooled_var99().unwrap().to_bits(),
        s.pooled_tvar99().unwrap().to_bits(),
        s.pooled_pml(100.0).unwrap().to_bits(),
    ]
}

/// Every base warehouse cell as comparable bits.
fn warehouse_bits(wh: &riskpipe::analytics::Drilldown) -> Vec<(Vec<u32>, u64, u64)> {
    let (rows, _) = wh.answer(&Query::group_by(LevelSelect::BASE)).unwrap();
    rows.iter()
        .map(|r| {
            (
                r.codes.to_vec(),
                r.cell.count,
                r.cell.tvar99().unwrap().to_bits(),
            )
        })
        .collect()
}

/// Persist the grid sweep through a fresh store, returning the store.
fn persist_grid(dir: &PathBuf, seed: u64) -> Arc<ShardedFilesStore> {
    let (scenarios, _) = grid(seed);
    let store = Arc::new(ShardedFilesStore::new(dir, 2).unwrap());
    let session = RiskSession::builder().pool_threads(2).build().unwrap();
    session
        .sweep(&scenarios)
        .persist_to(store.clone())
        .drive()
        .unwrap();
    store
}

// ---------------------------------------------------------------------
// Gap detection: the run manifest promises N slots, and rebuilds must
// surface any missing one as corrupt — not a smaller result.
// ---------------------------------------------------------------------

#[test]
fn deleted_middle_slot_is_corrupt_not_a_smaller_rebuild() {
    let dir = temp("gap");
    let store = persist_grid(&dir, 0xD0);
    let (scenarios, dims) = grid(0xD0);

    // The manifest still promises every slot...
    assert_eq!(store.persisted_report_slots(0).unwrap(), scenarios.len());

    // ...so losing a *middle* slot must poison the rebuild, not
    // shorten it.
    fs::remove_file(dir.join("batch-001").join(ShardedFilesStore::YLT_FILE)).unwrap();
    let session = RiskSession::builder().pool_threads(2).build().unwrap();
    let layout = DrilldownLayout::new(dims, session.engine()).unwrap();
    let err = session
        .analytics(layout.clone())
        .rebuild_from_store(&store, 0)
        .expect_err("a lost slot must not rebuild");
    assert!(matches!(err, RiskError::Corrupt(_)), "{err:?}");

    // Removing the slot's whole directory is just as detectable.
    fs::remove_dir_all(dir.join("batch-001")).unwrap();
    let err = session
        .analytics(layout)
        .rebuild_from_store(&store, 0)
        .expect_err("a lost slot directory must not rebuild");
    assert!(matches!(err, RiskError::Corrupt(_)), "{err:?}");

    fs::remove_dir_all(&dir).ok();
}

/// A damaged slot names its file, and when several are damaged the
/// rebuild reports the lowest-numbered one, whatever the pool width
/// (one slot per wave on 1 thread, both damaged slots in one wave on
/// 8).
#[test]
fn damaged_slot_frames_name_the_lowest_slot_on_any_pool() {
    let dir = temp("flip");
    let store = persist_grid(&dir, 0xD4);
    let (_, dims) = grid(0xD4);
    for slot in ["batch-001", "batch-003"] {
        let path = dir.join(slot).join(ShardedFilesStore::YLT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
    }
    for threads in [1usize, 2, 8] {
        let session = RiskSession::builder()
            .pool_threads(threads)
            .build()
            .unwrap();
        let layout = DrilldownLayout::new(dims.clone(), session.engine()).unwrap();
        let err = session
            .analytics(layout)
            .rebuild_from_store(&store, 0)
            .expect_err("a damaged slot must not rebuild");
        match &err {
            RiskError::Corrupt(msg) => {
                assert!(msg.contains("batch-001"), "{threads} threads: {msg}");
                assert!(!msg.contains("batch-003"), "{threads} threads: {msg}");
            }
            other => panic!("{threads} threads: {other:?}"),
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_run_manifest_means_sweep_never_completed() {
    let dir = temp("manifest");
    let store = persist_grid(&dir, 0xD1);
    let (_, dims) = grid(0xD1);
    let session = RiskSession::builder().pool_threads(2).build().unwrap();
    let layout = DrilldownLayout::new(dims, session.engine()).unwrap();

    // A crash between the last slot write and the manifest write
    // leaves every slot present but no manifest: the run must read as
    // incomplete, not as "whatever slots happen to exist".
    fs::remove_file(dir.join(ShardedFilesStore::RUN_MANIFEST_FILE)).unwrap();
    let err = store
        .persisted_report_slots(0)
        .expect_err("no manifest, no run");
    assert!(matches!(err, RiskError::Corrupt(_)), "{err:?}");
    assert!(session
        .analytics(layout)
        .rebuild_from_store(&store, 0)
        .is_err());

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_run_manifest_is_corrupt_never_panics() {
    let dir = temp("badmanifest");
    let store = persist_grid(&dir, 0xD2);
    let manifest_path = dir.join(ShardedFilesStore::RUN_MANIFEST_FILE);
    let original = fs::read(&manifest_path).unwrap();

    // Truncate at every length and flip every byte: always corrupt.
    for cut in 0..original.len() {
        fs::write(&manifest_path, &original[..cut]).unwrap();
        let err = store
            .persisted_report_slots(0)
            .expect_err("truncated manifest accepted");
        assert!(matches!(err, RiskError::Corrupt(_)), "cut {cut}: {err:?}");
    }
    for pos in 0..original.len() {
        if pos == 7 {
            continue; // the header pad byte is unauthenticated
        }
        let mut bad = original.clone();
        bad[pos] ^= 0x10;
        fs::write(&manifest_path, &bad).unwrap();
        let err = store
            .persisted_report_slots(0)
            .expect_err("damaged manifest accepted");
        assert!(matches!(err, RiskError::Corrupt(_)), "byte {pos}: {err:?}");
    }

    // Restoring the true manifest restores the run.
    fs::write(&manifest_path, &original).unwrap();
    assert_eq!(store.persisted_report_slots(0).unwrap(), 4);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_write_leftovers_are_inert_and_reclaimed() {
    let dir = temp("leftover");
    let store = persist_grid(&dir, 0xD3);
    let (scenarios, dims) = grid(0xD3);

    // Simulate a crash mid-write: a stale atomic-write tmp file and an
    // in-flight shard file appear next to the completed artifacts.
    let tmp = dir.join("YLT.bin.999-7.rptmp");
    let inflight = dir.join("shard-0000.rpt.inflight");
    fs::write(&tmp, b"torn half-written bytes").unwrap();
    fs::write(&inflight, b"unrenamed shard").unwrap();

    // Leftovers are invisible to every load path.
    assert_eq!(store.persisted_report_slots(0).unwrap(), scenarios.len());
    let session = RiskSession::builder().pool_threads(2).build().unwrap();
    let layout = DrilldownLayout::new(dims, session.engine()).unwrap();
    let rebuilt = session
        .analytics(layout)
        .rebuild_from_store(&store, 0)
        .unwrap();
    assert_eq!(rebuilt.ingest_stats().reports, scenarios.len() as u64);

    // And reclamation sweeps them with the run artifacts.
    store.clear_runs().unwrap();
    assert!(!tmp.exists(), "stale tmp file survived clear_runs");
    assert!(!inflight.exists(), "in-flight shard survived clear_runs");

    fs::remove_dir_all(&dir).ok();
}

/// Every file under `dir`, recursively.
fn files_under(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

/// A persisted write that fails names its file, and the sweep seals
/// nothing. Each broken slot's `YLT.bin` path is planted as a
/// directory before the sweep, so the write's final rename fails. The
/// writes run behind delivery but in slot order, so on any pool width
/// the error is the lowest broken slot's, the slots before it are
/// whole under their final names, and no temporary is left behind.
/// The seal itself is a durable write too: with `RUN_MANIFEST.bin`
/// planted as a directory, every slot lands and the error names the
/// manifest.
#[test]
fn a_failed_persisted_write_names_its_file_and_seals_nothing() {
    let scenarios: Vec<ScenarioConfig> = (0..6)
        .map(|i| {
            ScenarioConfig::small()
                .with_seed(0xD8)
                .with_trials(300)
                .with_name(format!("attach-{i}"))
                .with_attachment_factor(0.25 + 0.25 * i as f64)
        })
        .collect();
    for broken in [&[2usize][..], &[2, 4]] {
        for threads in [1usize, 2, 8] {
            let dir = temp("eisdir");
            for slot in broken {
                let ylt = dir
                    .join(format!("batch-{slot:03}"))
                    .join(ShardedFilesStore::YLT_FILE);
                fs::create_dir_all(&ylt).unwrap();
            }
            let store = Arc::new(ShardedFilesStore::new(&dir, 2).unwrap());
            let session = RiskSession::builder()
                .pool_threads(threads)
                .build()
                .unwrap();
            let err = session
                .sweep(&scenarios)
                .summary()
                .persist_to(store.clone())
                .drive()
                .expect_err("a slot whose write fails must fail the sweep");
            let what = format!("{broken:?} on {threads} threads: {err}");
            match &err {
                RiskError::Io(e) => {
                    let msg = e.to_string();
                    assert!(msg.contains("batch-002"), "{what}");
                    assert!(msg.contains(ShardedFilesStore::YLT_FILE), "{what}");
                    assert!(!msg.contains("batch-004"), "{what}");
                    assert_eq!(e.kind(), std::io::ErrorKind::IsADirectory, "{what}");
                }
                other => panic!("{what}: {other:?}"),
            }
            assert!(
                !dir.join(ShardedFilesStore::RUN_MANIFEST_FILE).exists(),
                "{what}: a failed sweep was sealed"
            );
            assert!(store.persisted_report_slots(0).is_err(), "{what}");
            let tmps: Vec<_> = files_under(&dir)
                .into_iter()
                .filter(|p| p.to_string_lossy().ends_with(".rptmp"))
                .collect();
            assert!(tmps.is_empty(), "{what}: left {tmps:?}");
            for slot in 0..2 {
                let ylt = store.load_report_ylt(Some(slot), 0).unwrap();
                assert_eq!(ylt.trials(), 300, "{what}: slot {slot}");
            }
            fs::remove_dir_all(&dir).ok();
        }
    }
    for threads in [1usize, 2, 8] {
        let dir = temp("eisdir-seal");
        let seal = dir.join(ShardedFilesStore::RUN_MANIFEST_FILE);
        fs::create_dir_all(&seal).unwrap();
        let store = Arc::new(ShardedFilesStore::new(&dir, 2).unwrap());
        let session = RiskSession::builder()
            .pool_threads(threads)
            .build()
            .unwrap();
        let err = session
            .sweep(&scenarios)
            .persist_to(store.clone())
            .drive()
            .expect_err("a failed seal must fail the sweep");
        let what = format!("seal on {threads} threads: {err}");
        match &err {
            RiskError::Io(e) => {
                assert!(
                    e.to_string().starts_with(&seal.display().to_string()),
                    "{what}"
                );
                assert_eq!(e.kind(), std::io::ErrorKind::IsADirectory, "{what}");
            }
            other => panic!("{what}: {other:?}"),
        }
        assert!(seal.is_dir(), "{what}");
        assert!(store.persisted_report_slots(0).is_err(), "{what}");
        for slot in 0..scenarios.len() {
            let ylt = store.load_report_ylt(Some(slot), 0).unwrap();
            assert_eq!(ylt.trials(), 300, "{what}: slot {slot}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// The disk-backed stage-1 tier: cold sessions replay warm sweeps with
// zero stage-1 builds and bit-identical results.
// ---------------------------------------------------------------------

#[test]
fn cold_session_over_warm_disk_tier_builds_nothing_and_matches_bitwise() {
    let tier = temp("tier");
    let (scenarios, dims) = grid(0xD4);
    let distinct_keys = {
        let mut keys: Vec<u64> = scenarios.iter().map(|s| s.stage1_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    };

    let run = |threads: usize| {
        let session = RiskSession::builder()
            .pool_threads(threads)
            .stage1_disk_cache(&tier)
            .build()
            .unwrap();
        let layout = DrilldownLayout::new(dims.clone(), session.engine()).unwrap();
        let outcome = session
            .sweep(&scenarios)
            .summary()
            .warehouse(layout)
            .drive()
            .unwrap();
        let bits = (
            summary_bits(outcome.summary().unwrap()),
            warehouse_bits(outcome.drilldown()),
        );
        (bits, session.stage1_cache_stats())
    };

    // First session: every key is built once and written through.
    let (reference, stats) = run(2);
    assert_eq!(stats.builds, distinct_keys);
    assert_eq!(stats.disk_writes, distinct_keys);
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(
        DiskStage1Cache::new(&tier).unwrap().entries().unwrap(),
        distinct_keys as usize
    );

    // A fresh session (cold RAM cache — the in-process stand-in for a
    // cold process) replays the sweep from the tier alone.
    let (replay, stats) = run(4);
    assert_eq!(stats.builds, 0, "warm tier must eliminate stage-1 builds");
    assert_eq!(stats.disk_hits, distinct_keys);
    assert_eq!(stats.disk_writes, 0);
    assert_eq!(replay, reference, "disk-tier replay drifted");

    // A fresh session per scenario shares no RAM entry: the tier serves
    // every lookup, bit-equal to a fresh session without a tier.
    for s in &scenarios {
        let tiered = RiskSession::builder()
            .pool_threads(2)
            .stage1_disk_cache(&tier)
            .build()
            .unwrap();
        let plain = RiskSession::builder().pool_threads(2).build().unwrap();
        assert_eq!(tiered.run(s).unwrap().ylt, plain.run(s).unwrap().ylt);
        let stats = tiered.stage1_cache_stats();
        assert_eq!((stats.builds, stats.disk_hits), (0, 1));
    }

    fs::remove_dir_all(&tier).ok();
}

#[test]
fn corrupt_disk_tier_entry_self_heals_with_identical_results() {
    let tier = temp("heal");
    let (scenarios, _) = grid(0xD5);
    let n_keys = scenarios.len() as u64;

    let sweep = |label: &str| {
        let session = RiskSession::builder()
            .pool_threads(2)
            .stage1_disk_cache(&tier)
            .build()
            .unwrap();
        let outcome = session.sweep(&scenarios).summary().drive().unwrap();
        let bits = summary_bits(outcome.summary().unwrap());
        println!("{label}: {:?}", session.stage1_cache_stats());
        (bits, session.stage1_cache_stats())
    };

    let (reference, _) = sweep("warm-up");

    // Flip one payload byte in one tier entry.
    let entry = fs::read_dir(&tier)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "rps"))
        .expect("tier holds entries");
    let mut bytes = fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&entry, &bytes).unwrap();

    // The damaged entry reads as a miss (self-heal): exactly one key
    // rebuilds, the rest serve from disk, and the results are the same
    // bits as before the damage.
    let (healed, stats) = sweep("healing");
    assert_eq!(stats.builds, 1, "only the damaged key may rebuild");
    assert_eq!(stats.disk_hits, n_keys - 1);
    assert_eq!(stats.disk_writes, 1, "the healed entry is rewritten");
    assert_eq!(healed, reference, "self-heal changed the answer");

    // The rewrite repaired the tier: the next cold session builds
    // nothing again.
    let (after, stats) = sweep("repaired");
    assert_eq!(stats.builds, 0);
    assert_eq!(stats.disk_hits, n_keys);
    assert_eq!(after, reference);

    fs::remove_dir_all(&tier).ok();
}

#[test]
fn damage_in_any_frame_of_a_tier_entry_heals_with_exactly_one_rebuild() {
    use riskpipe::tables::codec;
    let tier = temp("healframes");
    let (scenarios, _) = grid(0xD6);
    let n_keys = scenarios.len() as u64;
    let sweep = || {
        let telemetry = riskpipe::obs::Telemetry::new();
        let session = RiskSession::builder()
            .pool_threads(2)
            .stage1_disk_cache(&tier)
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let outcome = session.sweep(&scenarios).summary().drive().unwrap();
        let inversions = telemetry
            .snapshot()
            .metrics()
            .counter("stage2.secondary_builds");
        (
            summary_bits(outcome.summary().unwrap()),
            session.stage1_cache_stats(),
            inversions,
        )
    };
    let (reference, _, _) = sweep();

    let entry = fs::read_dir(&tier)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "rps"))
        .expect("tier holds entries");
    let intact = fs::read(&entry).unwrap();
    // Entry = header frame, one ELT frame per book, the YET frame, one
    // grid frame per book.
    let mut starts = vec![0usize];
    while *starts.last().unwrap() < intact.len() {
        let at = *starts.last().unwrap();
        starts.push(at + codec::frame_len(&intact[at..]).unwrap());
    }
    let books = ScenarioConfig::small().contracts;
    assert_eq!(starts.len() - 1, 1 + books + 1 + books);
    let mid = |frame: usize| (starts[frame] + codec::HEADER_BYTES + starts[frame + 1]) / 2;
    let flip = |at: usize| {
        let mut bytes = intact.clone();
        bytes[at] ^= 0x04;
        bytes
    };
    let damaged: [(&str, Vec<u8>); 7] = [
        ("bit flip in the header frame", flip(mid(0))),
        ("bit flip in an ELT frame", flip(mid(2))),
        ("bit flip in the YET frame", flip(mid(1 + books))),
        ("bit flip in the first grid frame", flip(mid(2 + books))),
        ("bit flip in the last grid frame", flip(intact.len() - 1)),
        ("cut inside a grid frame", intact[..mid(2 + books)].to_vec()),
        (
            "cut between grid frames",
            intact[..starts[3 + books]].to_vec(),
        ),
    ];
    for (what, bytes) in damaged {
        fs::write(&entry, bytes).unwrap();
        let (healed, stats, inversions) = sweep();
        assert_eq!(stats.builds, 1, "{what}: only the damaged key rebuilds");
        assert_eq!(stats.disk_hits, n_keys - 1, "{what}");
        assert_eq!(
            stats.disk_writes, 1,
            "{what}: the healed entry is rewritten"
        );
        assert_eq!(inversions, 1, "{what}: the other keys' grids are adopted");
        assert_eq!(healed, reference, "{what}: self-heal changed the answer");
        assert_eq!(
            fs::read(&entry).unwrap(),
            intact,
            "{what}: the rewrite is the entry a clean build stores"
        );
    }
    let (after, stats, inversions) = sweep();
    assert_eq!((stats.builds, stats.disk_hits), (0, n_keys));
    assert_eq!((stats.disk_writes, inversions), (0, 0));
    assert_eq!(after, reference);
    fs::remove_dir_all(&tier).ok();
}

#[test]
fn an_entry_in_the_older_layout_heals_like_a_corrupt_one() {
    use riskpipe::aggregate::{QuantileMode, SecondaryTable};
    use riskpipe::catmodel::stage1io::encode_stage1;
    let tier = temp("oldlayout");
    let (mut scenarios, _) = grid(0xD7);
    scenarios.truncate(3);
    let sweep = || {
        let session = RiskSession::builder()
            .pool_threads(2)
            .stage1_disk_cache(&tier)
            .build()
            .unwrap();
        let outcome = session.sweep(&scenarios).summary().drive().unwrap();
        (
            summary_bits(outcome.summary().unwrap()),
            session.stage1_cache_stats(),
        )
    };
    let (reference, cold) = sweep();
    assert_eq!((cold.builds, cold.disk_writes), (3, 3));

    // Plant, for the first key, the entry the tier wrote before it
    // dropped the exposures: the whole encoded stage-1 output, then
    // each book's grid at the default size.
    let key = scenarios[0].stage1_key();
    let path = DiskStage1Cache::new(&tier).unwrap().path_for(key);
    let clean = fs::read(&path).unwrap();
    let pool = riskpipe::exec::ThreadPool::new(2);
    let output = scenarios[0].build_stage1_output_on(&pool).unwrap();
    let mut old = encode_stage1(key, &output);
    for book in &output.books {
        SecondaryTable::build_on(&book.elt, QuantileMode::default(), &pool)
            .encode_grid_into(&mut old);
    }
    assert!(old.len() > clean.len());
    fs::write(&path, &old).unwrap();

    let (healed, stats) = sweep();
    assert_eq!(
        (stats.builds, stats.disk_writes, stats.disk_hits),
        (1, 1, 2),
        "only the old entry's key rebuilds, and its entry is rewritten"
    );
    assert_eq!(
        fs::read(&path).unwrap(),
        clean,
        "the rewrite is a clean build's entry"
    );
    assert_eq!(healed, reference, "healing changed the answer");
    fs::remove_dir_all(&tier).ok();
}

#[test]
fn disk_tier_sweeps_stale_tmp_files_on_open() {
    let tier = temp("tiertmp");
    fs::create_dir_all(&tier).unwrap();
    // A pid no live process has, so never this one's (whose
    // temporaries the sweep spares).
    let stale = tier.join(format!("stage1-00deadbeef.rps.{}-1.rptmp", u32::MAX));
    fs::write(&stale, b"half a cache entry").unwrap();
    let cache = DiskStage1Cache::new(&tier).unwrap();
    assert!(!stale.exists(), "stale tmp survived tier open");
    assert_eq!(cache.entries().unwrap(), 0);
    fs::remove_dir_all(&tier).ok();
}
