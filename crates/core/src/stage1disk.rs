//! The disk-backed stage-1 cache tier: each entry is what a session's
//! cache keeps of one model run — the books' ELTs and the YET — keyed
//! by `ScenarioConfig::stage1_key` and shared across processes.
//!
//! The RAM cache inside a [`RiskSession`](crate::RiskSession) dies with
//! the process; this tier does not. Each entry is one file,
//! `stage1-<key:016x>.rps`, built in one buffer — every frame written
//! in place by the [`riskpipe_tables::codec`] writer, nothing copied —
//! and published by a single [`riskpipe_tables::durable::write_atomic`]:
//!
//! ```text
//! header frame               key, book count, trial count (codec::TierHeader)
//! ELT frame × books          in book order
//! YET frame
//! grid frame × (0 | books)   each book's inverted secondary-uncertainty
//!                            quantile grid (codec::QuantileGrid)
//! ```
//!
//! The header says what follows, and the reader holds the entry to it:
//! the key must be the one the file is named for, exactly `books` ELT
//! frames precede the YET frame, and the YET has `trials` trials.
//!
//! The entry holds no catalogue and no exposures. Nothing after stage 1
//! reads them — the join, the engines, the YELT count and stage 3 read
//! the ELTs and the YET only — so a build drops them as soon as stage 1
//! returns and a disk hit never allocates them. An entry in the older
//! layout, which led with the whole encoded stage-1 output
//! (`riskpipe_catmodel::stage1io`), fails the header's kind check and
//! heals like any other corrupt entry.
//!
//! The grid frames are the one derivation that dominates a cold key —
//! `rows × g` beta inversions per book — so a tier-attached session
//! whose options tabulate a grid stores them beside the model run, and
//! a later process adopts them instead of inverting
//! ([`SecondaryTable::adopt_grid`]). They are optional: an entry
//! written by a session with secondary uncertainty off or in exact mode
//! ends at the YET frame and is just as valid; its reader derives the
//! grids and rewrites the entry. Nothing else derived from the model
//! run is stored. The join rebuilds from the ELTs and the adopted grids
//! in ≈ 0.1 ms per key, so no join structure has to be serialised or
//! validated. The DFA factor block depends on the session's
//! `CompanyConfig` as well as the key's seed and trial count; the key
//! does not fingerprint the company and the tier is shared across
//! sessions, so a stored block could be served to a session with
//! another company. It is rebuilt on the pool instead.
//!
//! A corrupt or truncated entry — any frame, grid frames included — is
//! surfaced by [`DiskStage1Cache::load`] as `RiskError::corrupt`; the
//! cache in front treats that as a miss, deletes the bad file and
//! rebuilds — self-healing, never silently wrong.
//!
//! ## What sharing a directory guarantees
//!
//! * **Readers never see a torn entry.** Every write is tmp file →
//!   fsync → rename; a process killed mid-write leaves only a
//!   `*.<pid>-<seq>.rptmp` file beside the previous entry (or none).
//! * **Racing writers of one key are harmless.** Each publishes a
//!   complete file and the last rename wins; the model-run frames are a
//!   pure function of the key, and the grid frames a pure function of
//!   those and the writer's grid size, so any winner serves any reader
//!   (at worst one that wanted another grid size re-derives).
//! * **Within a process, opening the tier never disturbs a writer.**
//!   [`DiskStage1Cache::new`] sweeps leftover temporaries, but never
//!   this process's own: those belong to writes still in flight on
//!   other threads, whose writer removes them itself on error.
//! * **Across processes, it can.** A temporary carrying another pid is
//!   indistinguishable from a crashed writer's, so opening the tier
//!   sweeps it; if that process was in fact alive between create and
//!   rename, its write fails with an I/O error (`NotFound` on rename),
//!   the scenario that needed the key errors, and a retry rebuilds —
//!   nothing torn is ever published. Open a shared tier before other
//!   processes start writing to it, or tolerate that retry.

use riskpipe_aggregate::SecondaryTable;
use riskpipe_catmodel::Stage1Output;
use riskpipe_tables::codec::{self, TierHeader};
use riskpipe_tables::{durable, Elt, YearEventTable};
use riskpipe_types::{RiskError, RiskResult};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File extension of cached stage-1 entries.
const ENTRY_EXT: &str = "rps";

/// A directory of durable stage-1 model runs, one file per cache key.
#[derive(Debug, Clone)]
pub struct DiskStage1Cache {
    dir: PathBuf,
}

/// One decoded tier entry: the model run as a session's cache keeps it
/// — the YET and the books' ELTs in book order — and, when the entry
/// carries grid frames, one adopted [`SecondaryTable`] per book.
#[derive(Debug)]
pub struct TierEntry {
    /// The YET every scenario of the key scans.
    pub yet: Arc<YearEventTable>,
    /// The books' ELTs, in book order.
    pub elts: Vec<Arc<Elt>>,
    /// One table per book, adopted from the entry's grid frames; empty
    /// when the entry ends at the YET frame. Their grid size is
    /// whatever the writer used; whether it is the one a reader wants
    /// is the reader's check.
    pub grids: Vec<SecondaryTable>,
}

impl DiskStage1Cache {
    /// Open (creating if absent) a disk tier rooted at `dir`. Leftover
    /// temporary files from interrupted writes of *other* processes are
    /// swept eagerly (see the module docs for what that means for a
    /// process that is still alive).
    pub fn new(dir: impl Into<PathBuf>) -> RiskResult<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        durable::remove_stale_tmps(&dir)?;
        Ok(Self { dir })
    }

    /// The tier's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key's entry lives in.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("stage1-{key:016x}.{ENTRY_EXT}"))
    }

    /// Load the entry for `key`. `Ok(None)` means absent (a miss);
    /// `Err(RiskError::Corrupt)` means present but torn, truncated, in
    /// another layout, recorded under a different key, not the shape
    /// its header states, or carrying grids no build over its own ELTs
    /// could have produced — callers decide whether to surface that or
    /// self-heal via [`DiskStage1Cache::remove`].
    pub fn load(&self, key: u64) -> RiskResult<Option<TierEntry>> {
        let _span = riskpipe_obs::span_key("stage1.disk.load", key);
        let path = self.path_for(key);
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        decode_entry(key, &data)
            .map(Some)
            .map_err(|e| RiskError::corrupt(format!("stage1 cache entry {}: {e}", path.display())))
    }

    /// Durably store `output`'s ELTs and YET under `key` with no grids
    /// (atomic replace) — [`DiskStage1Cache::store_entry`] for a caller
    /// holding a whole stage-1 output. The catalogue and the exposures
    /// are not stored. Returns the encoded size in bytes.
    pub fn store(&self, key: u64, output: &Stage1Output) -> RiskResult<u64> {
        let elts: Vec<Arc<Elt>> = output.books.iter().map(|b| Arc::clone(&b.elt)).collect();
        self.store_entry(key, &output.yet, &elts, &[])
    }

    /// Durably store the model run `yet` + `elts` (the books' ELTs in
    /// book order) under `key` (atomic replace), followed by the grid
    /// of each of `tables` — the books' secondary tables in book order,
    /// or empty to store none (exact-mode tables have no grid and add
    /// nothing either). One write: a reader sees the whole entry or the
    /// previous one. Returns the encoded size in bytes.
    pub fn store_entry(
        &self,
        key: u64,
        yet: &YearEventTable,
        elts: &[Arc<Elt>],
        tables: &[SecondaryTable],
    ) -> RiskResult<u64> {
        let _span = riskpipe_obs::span_key("stage1.disk.store", key);
        let mut bytes = Vec::new();
        let header = TierHeader {
            key,
            books: elts.len() as u64,
            trials: yet.trials() as u64,
        };
        codec::encode_into(&mut bytes, &header);
        for elt in elts {
            codec::encode_into(&mut bytes, &**elt);
        }
        codec::encode_into(&mut bytes, yet);
        for table in tables {
            table.encode_grid_into(&mut bytes);
        }
        durable::write_atomic(&self.path_for(key), &bytes)?;
        riskpipe_obs::counter_add("stage1.disk_bytes", bytes.len() as u64);
        Ok(bytes.len() as u64)
    }

    /// Remove the entry for `key` (absent is fine).
    pub fn remove(&self, key: u64) -> RiskResult<()> {
        match fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(()),
            Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Number of complete entries currently on disk.
    pub fn entries(&self) -> RiskResult<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("stage1-") && name.ends_with(&format!(".{ENTRY_EXT}")) {
                n += 1;
            }
        }
        Ok(n)
    }
}

/// Decode the entry `data` of the file named for `key`, holding it to
/// its header: the key, then exactly the stated books' ELT frames, then
/// a YET of the stated trials, then no grid frame or one per book, and
/// nothing after.
fn decode_entry(key: u64, data: &[u8]) -> RiskResult<TierEntry> {
    let (header, mut off) = codec::decode_prefix::<TierHeader>(data)?;
    if header.key != key {
        return Err(RiskError::corrupt(format!(
            "records key {:#x}, expected {key:#x}",
            header.key
        )));
    }
    // No capacity from the header: a count the frames do not back fails
    // at the first frame that is not an ELT.
    let mut elts = Vec::new();
    for _ in 0..header.books {
        let (elt, used) = codec::decode_prefix::<Elt>(&data[off..])?;
        off += used;
        elts.push(Arc::new(elt));
    }
    let (yet, used) = codec::decode_prefix::<YearEventTable>(&data[off..])?;
    off += used;
    if yet.trials() as u64 != header.trials {
        return Err(RiskError::corrupt(format!(
            "header states {} trials, the YET holds {}",
            header.trials,
            yet.trials()
        )));
    }
    let mut grids = Vec::new();
    if off < data.len() {
        for elt in &elts {
            let (table, used) = SecondaryTable::adopt_grid(elt, &data[off..])?;
            off += used;
            grids.push(table);
        }
    }
    if off != data.len() {
        return Err(RiskError::corrupt(format!(
            "{} trailing bytes after the grid frames",
            data.len() - off
        )));
    }
    Ok(TierEntry {
        yet: Arc::new(yet),
        elts,
        grids,
    })
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests plant damaged tier entries"
)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use riskpipe_aggregate::QuantileMode;
    use riskpipe_exec::ThreadPool;
    use riskpipe_tables::codec::{QuantileGrid, TableKind};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    fn temp(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("riskpipe-s1disk-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A two-book model run small enough to decode thousands of times
    /// — its YET, its ELTs and its books' `g`-point tables — and the
    /// whole stage-1 output it came from.
    fn tiny(g: u32) -> (TierEntry, Stage1Output) {
        let mut scenario = ScenarioConfig::small().with_seed(0x51D).with_trials(12);
        scenario.events = 40;
        scenario.contracts = 2;
        scenario.locations_per_contract = 12;
        let pool = ThreadPool::new(1);
        let output = scenario.build_stage1_output_on(&pool).unwrap();
        let entry = TierEntry {
            yet: Arc::clone(&output.yet),
            elts: output.books.iter().map(|b| Arc::clone(&b.elt)).collect(),
            grids: output
                .books
                .iter()
                .map(|b| SecondaryTable::build_on(&b.elt, QuantileMode::Interpolated(g), &pool))
                .collect(),
        };
        assert!(entry.elts.iter().all(|elt| !elt.is_empty()));
        (entry, output)
    }

    /// Store `entry`, grids included, under `key`.
    fn store(tier: &DiskStage1Cache, key: u64, entry: &TierEntry) -> u64 {
        tier.store_entry(key, &entry.yet, &entry.elts, &entry.grids)
            .unwrap()
    }

    /// Byte offset of every frame of an entry, plus the entry's length.
    fn frame_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = vec![0];
        while starts[starts.len() - 1] < bytes.len() {
            let at = starts[starts.len() - 1];
            starts.push(at + codec::frame_len(&bytes[at..]).unwrap());
        }
        starts
    }

    fn is_corrupt<T>(r: RiskResult<T>) -> bool {
        matches!(r, Err(RiskError::Corrupt(_)))
    }

    #[test]
    fn entry_round_trips_with_and_without_grids() {
        let (entry, output) = tiny(5);
        let tier = DiskStage1Cache::new(temp("roundtrip")).unwrap();
        let bare = tier.store(7, &output).unwrap();
        assert!(tier.load(7).unwrap().unwrap().grids.is_empty());
        let full = store(&tier, 7, &entry);
        let cells: usize = entry.elts.iter().map(|elt| elt.len() * 5).sum();
        let per_frame = codec::HEADER_BYTES + 3 * 8;
        assert_eq!(
            full - bare,
            (cells * 8 + entry.grids.len() * per_frame) as u64
        );
        let back = tier.load(7).unwrap().unwrap();
        assert_eq!(codec::encode(&*back.yet), codec::encode(&*entry.yet));
        assert_eq!(back.elts.len(), entry.elts.len());
        for (got, want) in back.elts.iter().zip(&entry.elts) {
            assert_eq!(codec::encode(&**got), codec::encode(&**want));
        }
        assert_eq!(back.grids.len(), entry.grids.len());
        for (got, want) in back.grids.iter().zip(&entry.grids) {
            assert_eq!(got.grid_points(), 5);
            let mut a = Vec::new();
            let mut b = Vec::new();
            got.encode_grid_into(&mut a);
            want.encode_grid_into(&mut b);
            assert_eq!(a, b);
        }
        // An entry filed under a key it was not written for is corrupt.
        fs::rename(tier.path_for(7), tier.path_for(9)).unwrap();
        assert!(is_corrupt(tier.load(9)));
        fs::remove_dir_all(tier.dir()).ok();
    }

    #[test]
    fn every_truncation_of_an_entry_is_corrupt_or_the_gridless_entry() {
        let (entry, _) = tiny(3);
        let tier = DiskStage1Cache::new(temp("trunc")).unwrap();
        store(&tier, 1, &entry);
        let path = tier.path_for(1);
        let bytes = fs::read(&path).unwrap();
        let starts = frame_starts(&bytes);
        // header + 2 ELTs + YET + 2 grids.
        assert_eq!(starts.len(), 7);
        let gridless = starts[4];
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let got = tier.load(1);
            if cut == gridless {
                // Exactly the model run: a well-formed entry that
                // simply carries no grids (what `store` writes).
                assert!(got.unwrap().unwrap().grids.is_empty());
            } else {
                assert!(is_corrupt(got), "truncation at {cut} of {}", bytes.len());
            }
        }
        fs::remove_dir_all(tier.dir()).ok();
    }

    #[test]
    fn a_flipped_bit_in_any_frame_is_corrupt() {
        let (entry, _) = tiny(3);
        let tier = DiskStage1Cache::new(temp("flip")).unwrap();
        store(&tier, 1, &entry);
        let path = tier.path_for(1);
        let bytes = fs::read(&path).unwrap();
        let starts = frame_starts(&bytes);
        for frame in starts.windows(2) {
            // The frame's magic, its stored CRC, the middle and the
            // last byte of its payload (byte 7 is the ignored pad).
            let sites = [
                frame[0],
                frame[0] + 16,
                (frame[0] + codec::HEADER_BYTES + frame[1]) / 2,
                frame[1] - 1,
            ];
            for at in sites {
                let mut bad = bytes.clone();
                bad[at] ^= 0x10;
                fs::write(&path, &bad).unwrap();
                assert!(is_corrupt(tier.load(1)), "flip at {at}");
            }
        }
        fs::write(&path, &bytes).unwrap();
        assert!(tier.load(1).unwrap().is_some());
        fs::remove_dir_all(tier.dir()).ok();
    }

    #[test]
    fn crc_valid_grid_frames_that_do_not_fit_the_entry_are_corrupt() {
        let (entry, _) = tiny(3);
        let tier = DiskStage1Cache::new(temp("misfit")).unwrap();
        store(&tier, 1, &entry);
        let path = tier.path_for(1);
        let bytes = fs::read(&path).unwrap();
        let starts = frame_starts(&bytes);
        let (run, after_header, grid_a, grid_b) = (
            &bytes[..starts[4]],
            &bytes[starts[1]..],
            &bytes[starts[4]..starts[5]],
            &bytes[starts[5]..],
        );
        let last: QuantileGrid = codec::decode(grid_b).unwrap();
        // What tells the books' grids apart is their row count.
        assert_ne!(entry.elts[0].len(), entry.elts[1].len());
        let patched = |cell: usize, value: f64| {
            let mut cells = last.cells.clone();
            cells[cell] = value;
            codec::encode(&QuantileGrid {
                cells,
                ..last.clone()
            })
        };
        let empty = codec::frame(TableKind::QuantileGrid, &[]);
        let (nan, high) = (patched(0, f64::NAN), patched(1, 1.5));
        // Re-framed headers: a valid CRC over a shape the frames after
        // it do not have, or over another key.
        let header: TierHeader = codec::decode_prefix(&bytes).unwrap().0;
        let reheader = |edit: fn(&mut TierHeader)| {
            let mut h = header;
            edit(&mut h);
            codec::encode(&h)
        };
        let more_books = reheader(|h| h.books += 1);
        let fewer_books = reheader(|h| h.books -= 1);
        let other_trials = reheader(|h| h.trials += 1);
        let other_key = reheader(|h| h.key ^= 0x40);
        let cases: [(&str, Vec<&[u8]>); 11] = [
            ("one grid for two books", vec![run, grid_a]),
            (
                "three grids for two books",
                vec![run, grid_a, grid_b, grid_b],
            ),
            ("grids in the wrong book order", vec![run, grid_b, grid_a]),
            ("NaN cell", vec![run, grid_a, &nan]),
            ("cell of 1.5", vec![run, grid_a, &high]),
            ("empty grid payload", vec![run, grid_a, &empty]),
            (
                "a non-grid frame after the YET",
                vec![run, &bytes[starts[1]..starts[2]]],
            ),
            (
                "a book more than the ELT frames",
                vec![&more_books, after_header],
            ),
            (
                "a book fewer than the ELT frames",
                vec![&fewer_books, after_header],
            ),
            (
                "a trial count not the YET's",
                vec![&other_trials, after_header],
            ),
            ("a key not the file's", vec![&other_key, after_header]),
        ];
        for (what, parts) in cases {
            fs::write(&path, parts.concat()).unwrap();
            assert!(is_corrupt(tier.load(1)), "{what}");
        }
        // The unpatched header re-framed the same way still loads: the
        // table above fails for its edits, not for the re-frame.
        let same = reheader(|_| {});
        fs::write(&path, [&same[..], after_header].concat()).unwrap();
        assert_eq!(tier.load(1).unwrap().unwrap().grids.len(), 2);
        fs::remove_dir_all(tier.dir()).ok();
    }

    #[test]
    fn opening_the_tier_never_breaks_a_write_in_this_process() {
        // A second session opening the tier sweeps temporaries; a
        // writer of this process between its create and its rename
        // must not lose its file. Stores and opens race until the
        // writer is done: before the sweep spared this pid, the first
        // unlucky interleaving failed a `store` with NotFound.
        let (entry, _) = tiny(3);
        let dir = temp("race");
        let tier = DiskStage1Cache::new(&dir).unwrap();
        let foreign = dir.join(format!(
            "stage1-00.rps.{}-0.rptmp",
            std::process::id().wrapping_add(1)
        ));
        fs::write(&foreign, b"a crashed process's leftovers").unwrap();
        let (start, done) = (Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|scope| {
            let opener = scope.spawn(|| {
                start.wait();
                let mut opens = 0u32;
                while !done.load(Ordering::SeqCst) || opens == 0 {
                    DiskStage1Cache::new(&dir).unwrap();
                    opens += 1;
                }
                opens
            });
            start.wait();
            let stored: RiskResult<()> = (0..40u64).try_for_each(|key| {
                tier.store_entry(key % 3, &entry.yet, &entry.elts, &entry.grids)
                    .map(|_| ())
            });
            done.store(true, Ordering::SeqCst);
            assert!(opener.join().unwrap() > 0);
            stored.expect("a store raced by DiskStage1Cache::new failed");
        });
        assert!(!foreign.exists(), "another process's temporary is swept");
        assert_eq!(tier.entries().unwrap(), 3);
        assert!(tier.load(2).unwrap().is_some());
        fs::remove_dir_all(&dir).ok();
    }
}
