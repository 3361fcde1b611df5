//! Persistence integration: every table survives the encode → file →
//! decode round trip, and corruption is detected, end to end.

use proptest::prelude::*;
use riskpipe::aggregate::{AggregateRunner, EngineKind};
use riskpipe::core::ScenarioConfig;
use riskpipe::tables::codec::Framed;
use riskpipe::tables::codec::HEADER_BYTES;
use riskpipe::tables::{codec, shard};
use riskpipe::tables::{Elt, YearEventTable, Yelt, Ylt};
use riskpipe_types::{RiskError, RiskResult};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("riskpipe-persist-{tag}-{}", std::process::id()))
}

#[test]
fn full_scenario_tables_round_trip_through_files() {
    let stage1 = ScenarioConfig::small()
        .with_seed(51)
        .build_stage1()
        .unwrap();
    let dir = temp("tables");
    fs::create_dir_all(&dir).unwrap();

    // ELT.
    let elt = &stage1.output.books[0].elt;
    let path = dir.join("book0.elt");
    shard::write_table_file(&path, &codec::encode(&**elt)).unwrap();
    let elt_back: Elt = shard::read_table_file(&path).unwrap();
    assert_eq!(elt_back.len(), elt.len());
    assert_eq!(elt_back.total_mean_loss(), elt.total_mean_loss());

    // YET.
    let yet = stage1.year_event_table();
    let path = dir.join("scenario.yet");
    shard::write_table_file(&path, &codec::encode(&*yet)).unwrap();
    let yet_back: YearEventTable = shard::read_table_file(&path).unwrap();
    assert_eq!(yet_back.trials(), yet.trials());
    assert_eq!(yet_back.total_occurrences(), yet.total_occurrences());

    // YELT built from the persisted inputs equals the in-memory join.
    let yelt_mem = Yelt::from_yet_elt(&yet, elt);
    let yelt_file = Yelt::from_yet_elt(&yet_back, &elt_back);
    assert_eq!(yelt_mem.rows(), yelt_file.rows());
    let path = dir.join("book0.yelt");
    shard::write_table_file(&path, &codec::encode(&yelt_mem)).unwrap();
    let yelt_back: Yelt = shard::read_table_file(&path).unwrap();
    let (sums_a, _) = yelt_mem.scan_aggregate_by_trial();
    let (sums_b, _) = yelt_back.scan_aggregate_by_trial();
    assert_eq!(sums_a, sums_b);

    // YLT: the analysis of decoded inputs is bit-identical.
    let portfolio = stage1.portfolio();
    let ylt = AggregateRunner::new(EngineKind::Sequential)
        .run(&portfolio, &yet)
        .unwrap();
    let path = dir.join("portfolio.ylt");
    shard::write_table_file(&path, &codec::encode(&ylt)).unwrap();
    let ylt_back: Ylt = shard::read_table_file(&path).unwrap();
    assert_eq!(ylt_back, ylt);

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_files_are_rejected_not_misread() {
    let stage1 = ScenarioConfig::small()
        .with_seed(52)
        .with_trials(200)
        .build_stage1()
        .unwrap();
    let dir = temp("corrupt");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.yet");
    shard::write_table_file(&path, &codec::encode(&*stage1.year_event_table())).unwrap();

    let original = fs::read(&path).unwrap();
    // Flip one byte at several positions: header, length, payload.
    for pos in [0usize, 5, 10, original.len() / 2, original.len() - 1] {
        let mut bad = original.clone();
        bad[pos] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        assert!(
            shard::read_table_file::<YearEventTable>(&path).is_err(),
            "corruption at byte {pos} went undetected"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Exhaustive damage coverage over a persisted YLT: any truncation and
// any single-byte flip must surface as `RiskError::Corrupt` at load —
// never a panic, never a silently wrong table.
// ---------------------------------------------------------------------

/// The encoded YLT fixture, built once for the whole damage suite.
fn encoded_ylt() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let stage1 = ScenarioConfig::small()
            .with_seed(53)
            .with_trials(200)
            .build_stage1()
            .unwrap();
        let ylt = AggregateRunner::new(EngineKind::Sequential)
            .run(&stage1.portfolio(), &stage1.year_event_table())
            .unwrap();
        codec::encode(&ylt)
    })
}

/// Write `bytes` to a scratch file and load it back as a YLT.
fn load_damaged(bytes: &[u8], tag: &str) -> RiskResult<Ylt> {
    let path = temp(tag);
    fs::write(&path, bytes).unwrap();
    let result = shard::read_table_file(&path);
    fs::remove_file(&path).ok();
    result
}

#[test]
fn ylt_truncated_at_every_frame_boundary_is_corrupt() {
    let full = encoded_ylt();
    // The file is one frame: its boundaries are the empty prefix, the
    // header/payload seam, and every header field edge; a handful of
    // interior payload cuts ride along.
    let mut cuts = vec![
        0,
        1,
        4,
        6,
        8,
        16,
        HEADER_BYTES - 1,
        HEADER_BYTES,
        HEADER_BYTES + 1,
        full.len() / 2,
        full.len() - 1,
    ];
    cuts.dedup();
    for cut in cuts {
        let result = load_damaged(&full[..cut], "cutfix");
        assert!(
            matches!(result, Err(RiskError::Corrupt(_))),
            "truncation to {cut} bytes: {result:?}"
        );
    }
}

#[test]
fn ylt_one_flip_per_header_region_is_corrupt() {
    let full = encoded_ylt();
    // One representative byte per frame region: magic, version, kind,
    // length, checksum, payload (the pad byte is the one byte the
    // format does not authenticate).
    for (region, pos) in [
        ("magic", 0usize),
        ("version", 4),
        ("kind", 6),
        ("len", 12),
        ("crc", 16),
        ("payload", HEADER_BYTES + full.len() / 3),
    ] {
        let mut bad = full.to_vec();
        bad[pos] ^= 0x01;
        let result = load_damaged(&bad, "flipfix");
        assert!(
            matches!(result, Err(RiskError::Corrupt(_))),
            "flip in {region} (byte {pos}): {result:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Byte pins: the length and CRC-32 of every persisted encoding, from
// small fixed fixtures. A codec change that moves any byte of any frame
// kind, of a stage-1 disk-tier entry, of a persisted `YLT.bin` or of a
// sharded YELT spill fails here.
// ---------------------------------------------------------------------

/// `(artifact, byte length, crc32)` of every pinned encoding.
const BYTE_PINS: &[(&str, usize, u32)] = &[
    ("elt", 276, 0xef381774),
    ("yet", 156, 0xe897600a),
    ("yelt", 156, 0xa8285898),
    ("ylt", 124, 0x7ef10041),
    ("yellt_chunk", 152, 0xbca9936c),
    ("cuboid", 1168, 0xc03940f0),
    ("stage1", 60884, 0x8e1a6c2b),
    ("run_manifest", 36, 0x39ba46be),
    ("quantile_grid", 92, 0x3c6a5954),
    ("tier_entry", 61140, 0xc6f654f6),
    ("spill/MANIFEST.txt", 59, 0xa9f76b4a),
    ("spill/shard-0000.rpt", 72, 0x8771e09a),
    ("spill/shard-0001.rpt", 72, 0x392fe211),
    ("spill/YLT.bin", 4044, 0x3b5a8b49),
];

/// The hand-built tables every frame kind is pinned over.
fn pinned_tables() -> (
    riskpipe::tables::Elt,
    riskpipe::tables::YearEventTable,
    riskpipe::tables::Ylt,
    riskpipe::tables::YelltChunk,
) {
    use riskpipe::tables::{EltBuilder, EltRecord, YelltChunk, YetBuilder, Ylt};
    use riskpipe_types::{EventId, LocationId, TrialId};
    let mut b = EltBuilder::new();
    for i in 1..=6u32 {
        b.push(EltRecord {
            event_id: EventId::new(i * 3),
            mean_loss: 1000.25 * i as f64,
            sigma_i: 100.5 * i as f64,
            sigma_c: 50.125 * i as f64,
            exposure: 20_000.0 * i as f64,
        })
        .unwrap();
    }
    let elt = b.build().unwrap();
    let mut yb = YetBuilder::new();
    for t in 0..5u32 {
        let occs: Vec<riskpipe::tables::yet::Occurrence> = (0..t % 3)
            .map(|k| riskpipe::tables::yet::Occurrence {
                event_id: EventId::new(3 * (1 + (t + k) % 7)),
                day: (40 * t + 11 * k) as u16,
                z: 0.125 + 0.25 * k as f64,
            })
            .collect();
        yb.push_trial(&occs);
    }
    let yet = yb.build();
    let mut ylt = Ylt::zeroed(4);
    for t in 0..4u32 {
        ylt.set_trial(TrialId::new(t), 10.5 * t as f64, 7.25 * t as f64, t);
    }
    let mut chunk = YelltChunk::with_capacity(5);
    for i in 0..5u32 {
        chunk.push(i / 2, 3 * i, LocationId::new(i % 2), 2.5 * i as f64);
    }
    (elt, yet, ylt, chunk)
}

/// A small mid-level warehouse cuboid and its schema.
fn pinned_cuboid() -> (riskpipe::warehouse::Schema, riskpipe::warehouse::Cuboid) {
    use riskpipe::warehouse::{Cuboid, FactTable, LevelSelect, Schema};
    let schema = Schema::standard(6, 2, 5, 2, 3, 2).unwrap();
    let facts = FactTable::synthetic(&schema, 200, 5);
    let cuboid = Cuboid::build(&schema, &facts, LevelSelect([1, 1, 1, 1]), None).unwrap();
    (schema, cuboid)
}

/// A two-book scenario small enough to encode in a test.
fn pinned_scenario() -> ScenarioConfig {
    let mut scenario = ScenarioConfig::small().with_seed(0xB17E).with_trials(200);
    scenario.events = 30;
    scenario.contracts = 2;
    scenario.locations_per_contract = 8;
    scenario
}

/// The pinned scenario's stage-1 model run and its books' 3-point
/// secondary tables.
fn pinned_stage1() -> (
    riskpipe::catmodel::Stage1Output,
    Vec<riskpipe::aggregate::SecondaryTable>,
) {
    use riskpipe::aggregate::{QuantileMode, SecondaryTable};
    let pool = riskpipe::exec::ThreadPool::new(1);
    let output = pinned_scenario().build_stage1_output_on(&pool).unwrap();
    let tables = output
        .books
        .iter()
        .map(|b| SecondaryTable::build_on(&b.elt, QuantileMode::Interpolated(3), &pool))
        .collect();
    (output, tables)
}

#[test]
fn every_frame_kind_is_byte_pinned() {
    use riskpipe::core::{DiskStage1Cache, RiskSession, ShardedFilesStore};
    use riskpipe::tables::codec::{QuantileGrid, RunManifest};
    use riskpipe::warehouse::encode_cuboid;
    use std::sync::Arc;

    let (elt, yet, ylt, chunk) = pinned_tables();
    let yelt = Yelt::from_yet_elt(&yet, &elt);
    let (_, cuboid) = pinned_cuboid();
    let grid: Vec<f64> = (0..6).map(|i| i as f64 / 8.0).collect();
    let (output, tables) = pinned_stage1();

    let mut encoded: Vec<(String, Vec<u8>)> = vec![
        ("elt".into(), codec::encode(&elt)),
        ("yet".into(), codec::encode(&yet)),
        ("yelt".into(), codec::encode(&yelt)),
        ("ylt".into(), codec::encode(&ylt)),
        ("yellt_chunk".into(), codec::encode(&chunk)),
        ("cuboid".into(), encode_cuboid(&cuboid).unwrap()),
        (
            "stage1".into(),
            riskpipe::catmodel::stage1io::encode_stage1(0x5EED, &output),
        ),
        (
            "run_manifest".into(),
            codec::encode(&RunManifest { run: 7, slots: 42 }),
        ),
        (
            "quantile_grid".into(),
            codec::encode(&QuantileGrid {
                rows: 2,
                g: 3,
                cells: grid,
            }),
        ),
    ];

    // A stage-1 disk-tier entry with grids, as the tier writes it.
    let dir = temp("pins");
    let _ = fs::remove_dir_all(&dir);
    let tier = DiskStage1Cache::new(dir.join("tier")).unwrap();
    tier.store_entry(0x5EED, &output, &tables).unwrap();
    encoded.push((
        "tier_entry".into(),
        fs::read(tier.path_for(0x5EED)).unwrap(),
    ));

    // A one-scenario persisted sweep through a 2-shard files store: the
    // YELT spill (shard files + manifest) and the persisted YLT.
    let spill = dir.join("spill");
    let store = Arc::new(ShardedFilesStore::new(&spill, 2).unwrap());
    let session = RiskSession::builder()
        .pool_threads(1)
        .store(store.clone())
        .build()
        .unwrap();
    session
        .sweep(&[pinned_scenario()])
        .persist_to(store)
        .drive()
        .unwrap();
    let slot = spill.join("batch-000");
    let mut spilled: Vec<String> = fs::read_dir(&slot)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("shard-") || name == "MANIFEST.txt")
        .collect();
    spilled.sort();
    assert_eq!(
        spilled,
        ["MANIFEST.txt", "shard-0000.rpt", "shard-0001.rpt"],
        "a 2-shard spill is two shard files and a manifest"
    );
    spilled.push("YLT.bin".into());
    for name in spilled {
        encoded.push((format!("spill/{name}"), fs::read(slot.join(&name)).unwrap()));
    }
    fs::remove_dir_all(&dir).unwrap();

    let actual: Vec<(&str, usize, u32)> = encoded
        .iter()
        .map(|(name, bytes)| (name.as_str(), bytes.len(), codec::crc32(bytes)))
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(name, len, crc)| format!("    ({name:?}, {len}, {crc:#010x}),\n"))
        .collect();
    assert_eq!(
        actual, BYTE_PINS,
        "persisted bytes moved; actual pins:\n{rendered}"
    );
}

/// Write `bytes` to a scratch file, `load` it, and remove it.
fn load_file(bytes: &[u8], tag: &str, load: impl Fn(&Path) -> RiskResult<()>) -> RiskResult<()> {
    let path = temp(tag);
    fs::write(&path, bytes).unwrap();
    let result = load(&path);
    fs::remove_file(&path).ok();
    result
}

/// Decodes a buffer, or loads a file holding one, discarding the table.
type Check = Box<dyn Fn(&[u8]) -> RiskResult<()>>;

/// A self-contained frame kind's encoding, its decode, and its load
/// through the whole-file reader.
fn framed_kind<T: Framed + 'static>(
    name: &'static str,
    table: &T,
) -> (&'static str, Vec<u8>, Check, Check) {
    (
        name,
        codec::encode(table),
        Box::new(|bytes| codec::decode::<T>(bytes).map(drop)),
        Box::new(move |bytes| load_file(bytes, name, |p| shard::read_table_file::<T>(p).map(drop))),
    )
}

#[test]
fn a_trailing_byte_after_any_frame_kind_is_corrupt() {
    use riskpipe::catmodel::stage1io::{decode_stage1, encode_stage1};
    use riskpipe::core::DiskStage1Cache;
    use riskpipe::tables::codec::{QuantileGrid, RunManifest};
    use riskpipe::warehouse::{decode_cuboid, encode_cuboid, load_views};

    let (elt, yet, ylt, chunk) = pinned_tables();
    let yelt = Yelt::from_yet_elt(&yet, &elt);
    let grid = QuantileGrid {
        rows: 2,
        g: 2,
        cells: vec![0.25, 0.5, 0.5, 0.75],
    };
    let (schema, cuboid) = pinned_cuboid();
    let view_schema = schema.clone();
    let (output, _) = pinned_stage1();
    let dir = temp("trailing");
    let _ = fs::remove_dir_all(&dir);
    let tier = DiskStage1Cache::new(&dir).unwrap();

    let cases: Vec<(&str, Vec<u8>, Check, Check)> = vec![
        framed_kind("elt", &elt),
        framed_kind("yet", &yet),
        framed_kind("yelt", &yelt),
        framed_kind("ylt", &ylt),
        framed_kind("yellt_chunk", &chunk),
        framed_kind("quantile_grid", &grid),
        framed_kind("run_manifest", &RunManifest { run: 3, slots: 4 }),
        (
            "cuboid",
            encode_cuboid(&cuboid).unwrap(),
            Box::new(move |bytes| decode_cuboid(bytes, &schema).map(drop)),
            Box::new(move |bytes| {
                load_file(bytes, "views", |p| load_views(p, &view_schema).map(drop))
            }),
        ),
        (
            "stage1",
            encode_stage1(1, &output),
            Box::new(|bytes| decode_stage1(bytes).map(drop)),
            Box::new(move |bytes| {
                fs::write(tier.path_for(1), bytes).unwrap();
                tier.load_entry(1).map(drop)
            }),
        ),
    ];
    for (name, bytes, decode, load) in cases {
        decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        load(&bytes).unwrap_or_else(|e| panic!("{name} file: {e}"));
        // A CRC-valid leading frame whose payload has a byte after its
        // last field, the rest of the stream as it was.
        let (kind, payload, used) = codec::unframe(&bytes).unwrap();
        let mut reframed = codec::frame(kind, &[payload, &[0]].concat());
        reframed.extend_from_slice(&bytes[used..]);
        assert!(
            matches!(decode(&reframed), Err(RiskError::Corrupt(_))),
            "{name}: a trailing payload byte was accepted"
        );
        // A file holding the encoding and one more byte.
        let longer = [&bytes[..], &[0]].concat();
        assert!(
            matches!(load(&longer), Err(RiskError::Corrupt(_))),
            "{name}: a trailing file byte was accepted"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at *any* offset is corrupt, never a panic and never
    /// a shorter-but-readable table.
    #[test]
    fn ylt_truncated_anywhere_is_corrupt(cut_raw in any::<u64>()) {
        let full = encoded_ylt();
        let cut = (cut_raw % full.len() as u64) as usize;
        let result = load_damaged(&full[..cut], "cut");
        prop_assert!(
            matches!(result, Err(RiskError::Corrupt(_))),
            "truncation to {} bytes: {:?}", cut, result
        );
    }

    /// Any single-bit flip outside the unauthenticated pad byte is
    /// corrupt — including flips in the length field, which must not
    /// panic however implausible the resulting length is.
    #[test]
    fn ylt_single_bit_flip_is_corrupt(
        pos_raw in any::<u64>(),
        bit in 0u8..8,
    ) {
        let full = encoded_ylt();
        let pos = (pos_raw % full.len() as u64) as usize;
        // Byte 7 is the header pad: ignored by design, not covered by
        // the payload checksum.
        prop_assume!(pos != 7);
        let mut bad = full.to_vec();
        bad[pos] ^= 1 << bit;
        let result = load_damaged(&bad, "flip");
        prop_assert!(
            matches!(result, Err(RiskError::Corrupt(_))),
            "flip at byte {} bit {}: {:?}", pos, bit, result
        );
    }
}
