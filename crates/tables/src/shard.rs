//! Sharded flat-file persistence — the "accumulation of large
//! distributed file space" strategy of the paper, simulated on the local
//! filesystem.
//!
//! A sharded store is a directory holding `shard-NNNN.rpt` files plus a
//! `MANIFEST.txt`. Rows are routed to shards by `trial % shards`, so a
//! MapReduce job can assign one map task per shard and know that a
//! trial's rows never straddle shards. Within a shard file, rows are
//! framed [`YelltChunk`]s (see [`crate::codec`]), each CRC-checked.
//!
//! Single-frame tables (ELT/YET/YELT/YLT) use the simpler
//! [`write_table_file`] / [`read_table_file`] pair.

use crate::codec::{self, Framed, TableKind};
use crate::durable;
use crate::yellt::YelltChunk;
use riskpipe_types::{LocationId, RiskError, RiskResult};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Rows buffered per shard before a frame is flushed.
pub const DEFAULT_SHARD_CHUNK_ROWS: usize = 32 * 1024;

/// Metadata describing a sharded store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Kind of frames in the shard files.
    pub kind: TableKind,
    /// Number of shard files.
    pub shards: u32,
    /// Total rows across all shards.
    pub rows: u64,
}

impl ShardManifest {
    fn render(&self) -> String {
        format!(
            "riskpipe-shard-manifest v1\nkind={:?}\nshards={}\nrows={}\n",
            self.kind, self.shards, self.rows
        )
    }

    fn parse(text: &str) -> RiskResult<Self> {
        let mut lines = text.lines();
        match lines.next() {
            Some("riskpipe-shard-manifest v1") => {}
            other => {
                return Err(RiskError::corrupt(format!(
                    "bad manifest header: {other:?}"
                )))
            }
        }
        let mut kind = None;
        let mut shards = None;
        let mut rows = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| RiskError::corrupt(format!("bad manifest line: {line}")))?;
            match k {
                // Shard files hold YELLT chunk frames only: that is all
                // `ShardedWriter` writes and all `read_shard` decodes.
                "kind" if v == "YelltChunk" => kind = Some(TableKind::YelltChunk),
                "kind" => {
                    return Err(RiskError::corrupt(format!(
                        "shard manifest kind {v}: shard stores hold YelltChunk frames"
                    )))
                }
                "shards" => {
                    shards =
                        Some(v.parse::<u32>().map_err(|e| {
                            RiskError::corrupt(format!("bad shards value {v}: {e}"))
                        })?)
                }
                "rows" => {
                    rows = Some(
                        v.parse::<u64>()
                            .map_err(|e| RiskError::corrupt(format!("bad rows value {v}: {e}")))?,
                    )
                }
                _ => {} // forward compatible: ignore unknown keys
            }
        }
        Ok(ShardManifest {
            kind: kind.ok_or_else(|| RiskError::corrupt("manifest missing kind"))?,
            shards: shards.ok_or_else(|| RiskError::corrupt("manifest missing shards"))?,
            rows: rows.ok_or_else(|| RiskError::corrupt("manifest missing rows"))?,
        })
    }
}

/// Path of shard `i` in `dir`.
pub fn shard_path(dir: &Path, i: u32) -> PathBuf {
    dir.join(format!("shard-{i:04}.rpt"))
}

/// In-flight path shard `i` is written under until [`ShardedWriter::finish`]
/// publishes it. A crash mid-write leaves only `.inflight` files and no
/// manifest, so readers reject the store as absent rather than reading a
/// torn shard.
fn shard_inflight_path(dir: &Path, i: u32) -> PathBuf {
    dir.join(format!("shard-{i:04}.rpt.inflight"))
}

/// Streaming writer routing YELLT rows to shard files by trial.
pub struct ShardedWriter {
    dir: PathBuf,
    writers: Vec<BufWriter<fs::File>>,
    buffers: Vec<YelltChunk>,
    chunk_rows: usize,
    rows: u64,
}

impl ShardedWriter {
    /// Create a store in `dir` (created if absent; must not already
    /// contain a manifest) with `shards` shard files.
    pub fn create(dir: impl Into<PathBuf>, shards: u32) -> RiskResult<Self> {
        Self::create_with_chunk_rows(dir, shards, DEFAULT_SHARD_CHUNK_ROWS)
    }

    /// As [`ShardedWriter::create`] with an explicit per-shard buffer.
    pub fn create_with_chunk_rows(
        dir: impl Into<PathBuf>,
        shards: u32,
        chunk_rows: usize,
    ) -> RiskResult<Self> {
        if shards == 0 {
            return Err(RiskError::invalid("shard count must be positive"));
        }
        if chunk_rows == 0 {
            return Err(RiskError::invalid("chunk rows must be positive"));
        }
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if dir.join("MANIFEST.txt").exists() {
            return Err(RiskError::InvalidState(format!(
                "shard store already exists at {}",
                dir.display()
            )));
        }
        let mut writers = Vec::with_capacity(shards as usize);
        let mut buffers = Vec::with_capacity(shards as usize);
        for i in 0..shards {
            // lint: allow(C2) — this create IS the inflight protocol:
            // shards stream into `.rpt.inflight` names the manifest
            // never references, are fsynced, and only then renamed to
            // their final names by `finish()`; a crash mid-write
            // leaves only ignorable inflight files, never a torn
            // artifact a reader could open.
            let f = fs::File::create(shard_inflight_path(&dir, i))?;
            writers.push(BufWriter::new(f));
            buffers.push(YelltChunk::with_capacity(chunk_rows));
        }
        Ok(Self {
            dir,
            writers,
            buffers,
            chunk_rows,
            rows: 0,
        })
    }

    /// Shard index a trial routes to.
    #[inline]
    pub fn shard_of(&self, trial: u32) -> u32 {
        trial % self.writers.len() as u32
    }

    /// Append one YELLT row.
    pub fn push_row(
        &mut self,
        trial: u32,
        event: u32,
        location: LocationId,
        loss: f64,
    ) -> RiskResult<()> {
        let s = self.shard_of(trial) as usize;
        self.buffers[s].push(trial, event, location, loss);
        self.rows += 1;
        if self.buffers[s].rows() >= self.chunk_rows {
            self.flush_shard(s)?;
        }
        Ok(())
    }

    /// Append a whole trial's YELLT rows in one call: `events[i]` pairs
    /// with `losses[i]`, all at `location`. Because rows route to
    /// shards by `trial % shards`, an entire trial lands in a single
    /// shard — so the route is computed once and the columns extended
    /// in bulk, instead of paying the route + bounds-check + capacity
    /// dance per row as [`ShardedWriter::push_row`] does. This is the
    /// hot path of the stage-2 YELT spill.
    pub fn push_trial(
        &mut self,
        trial: u32,
        events: &[u32],
        location: LocationId,
        losses: &[f64],
    ) -> RiskResult<()> {
        let s = self.shard_of(trial) as usize;
        self.buffers[s].extend_trial(trial, events, location, losses)?;
        self.rows += events.len() as u64;
        if self.buffers[s].rows() >= self.chunk_rows {
            self.flush_shard(s)?;
        }
        Ok(())
    }

    /// Append a whole chunk (rows are re-routed individually).
    pub fn push_chunk(&mut self, chunk: &YelltChunk) -> RiskResult<()> {
        chunk.validate()?;
        for i in 0..chunk.rows() {
            self.push_row(
                chunk.trials[i],
                chunk.events[i],
                LocationId::new(chunk.locations[i]),
                chunk.losses[i],
            )?;
        }
        Ok(())
    }

    fn flush_shard(&mut self, s: usize) -> RiskResult<()> {
        if self.buffers[s].is_empty() {
            return Ok(());
        }
        self.writers[s].write_all(&codec::encode(&self.buffers[s]))?;
        self.buffers[s].clear();
        Ok(())
    }

    /// Flush buffers, durably publish the shard files, write the
    /// manifest *last*, and return it.
    ///
    /// Publication order is the crash-safety contract: each shard is
    /// flushed, `sync_all`'d, and renamed from its `.inflight` name to
    /// its final name before the manifest is written (itself via the
    /// atomic tmp-rename path). Readers require the manifest, so a
    /// crash at any point here leaves a store that is detectably
    /// absent, never one that parses but is missing rows.
    pub fn finish(mut self) -> RiskResult<ShardManifest> {
        for s in 0..self.writers.len() {
            self.flush_shard(s)?;
        }
        let shards = self.writers.len() as u32;
        for (i, w) in self.writers.drain(..).enumerate() {
            let f = w.into_inner().map_err(|e| RiskError::Io(e.into_error()))?;
            f.sync_all()?;
            let i = i as u32;
            fs::rename(shard_inflight_path(&self.dir, i), shard_path(&self.dir, i))?;
        }
        let manifest = ShardManifest {
            kind: TableKind::YelltChunk,
            shards,
            rows: self.rows,
        };
        durable::write_atomic(&self.dir.join("MANIFEST.txt"), manifest.render().as_bytes())?;
        Ok(manifest)
    }
}

/// Reader over a sharded store.
pub struct ShardedReader {
    dir: PathBuf,
    manifest: ShardManifest,
}

impl ShardedReader {
    /// Open a store directory, validating its manifest.
    pub fn open(dir: impl Into<PathBuf>) -> RiskResult<Self> {
        let dir = dir.into();
        let text = fs::read_to_string(dir.join("MANIFEST.txt")).map_err(|e| {
            RiskError::Corrupt(format!("cannot read manifest in {}: {e}", dir.display()))
        })?;
        let manifest = ShardManifest::parse(&text)?;
        for i in 0..manifest.shards {
            if !shard_path(&dir, i).exists() {
                return Err(RiskError::corrupt(format!("missing shard file {i}")));
            }
        }
        Ok(Self { dir, manifest })
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.manifest.shards
    }

    /// Path of shard `i` (for external processors such as MapReduce map
    /// tasks).
    pub fn shard_file(&self, i: u32) -> PathBuf {
        shard_path(&self.dir, i)
    }

    /// Read every chunk of shard `i`.
    pub fn read_shard(&self, i: u32) -> RiskResult<Vec<YelltChunk>> {
        if i >= self.manifest.shards {
            return Err(RiskError::NotFound(format!("shard {i}")));
        }
        let data = fs::read(self.shard_file(i))?;
        let mut chunks = Vec::new();
        let mut off = 0usize;
        while off < data.len() {
            let (chunk, used) = codec::decode_prefix::<YelltChunk>(&data[off..])?;
            chunks.push(chunk);
            off += used;
        }
        Ok(chunks)
    }

    /// Total rows claimed by the manifest.
    pub fn rows(&self) -> u64 {
        self.manifest.rows
    }
}

// ---------------------------------------------------------------------
// Single-frame table files.
// ---------------------------------------------------------------------

/// Durably write a pre-encoded single-frame table to a file (tmp +
/// fsync + atomic rename; see [`crate::durable`]).
pub fn write_table_file(path: &Path, encoded: &[u8]) -> RiskResult<()> {
    durable::write_atomic(path, encoded)
}

/// Read a table from a file that must be exactly its one frame: a
/// byte after the frame is corruption, not slack.
pub fn read_table_file<T: Framed>(path: &Path) -> RiskResult<T> {
    codec::decode(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "riskpipe-shard-test-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn write_read_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut w = ShardedWriter::create_with_chunk_rows(&dir, 4, 8).unwrap();
        for t in 0..100u32 {
            for l in 0..3u32 {
                w.push_row(t, t * 2, LocationId::new(l), (t + l) as f64)
                    .unwrap();
            }
        }
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.rows, 300);
        assert_eq!(manifest.shards, 4);

        let r = ShardedReader::open(&dir).unwrap();
        assert_eq!(r.rows(), 300);
        let mut seen = 0u64;
        for s in 0..r.shard_count() {
            for chunk in r.read_shard(s).unwrap() {
                chunk.validate().unwrap();
                // Routing invariant: every row in shard s has trial % 4 == s.
                for &t in &chunk.trials {
                    assert_eq!(t % 4, s);
                }
                seen += chunk.rows() as u64;
            }
        }
        assert_eq!(seen, 300);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn push_trial_equals_per_row_pushes() {
        let dir_rows = temp_dir("perrow");
        let dir_trial = temp_dir("pertrial");
        let mut by_row = ShardedWriter::create_with_chunk_rows(&dir_rows, 3, 16).unwrap();
        let mut by_trial = ShardedWriter::create_with_chunk_rows(&dir_trial, 3, 16).unwrap();
        for t in 0..50u32 {
            let events: Vec<u32> = (0..(t % 7)).map(|k| t * 10 + k).collect();
            let losses: Vec<f64> = events.iter().map(|&e| e as f64 * 1.5).collect();
            for (i, &e) in events.iter().enumerate() {
                by_row
                    .push_row(t, e, LocationId::new(9), losses[i])
                    .unwrap();
            }
            by_trial
                .push_trial(t, &events, LocationId::new(9), &losses)
                .unwrap();
        }
        let m_rows = by_row.finish().unwrap();
        let m_trial = by_trial.finish().unwrap();
        assert_eq!(m_rows, m_trial);
        // Chunk framing may differ (per-row vs per-trial flush points);
        // the row streams must not.
        let flatten = |dir: &PathBuf| {
            let r = ShardedReader::open(dir).unwrap();
            (0..3u32)
                .flat_map(|s| {
                    r.read_shard(s).unwrap().into_iter().flat_map(|c| {
                        (0..c.rows())
                            .map(|i| (c.trials[i], c.events[i], c.locations[i], c.losses[i]))
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(flatten(&dir_rows), flatten(&dir_trial));
        fs::remove_dir_all(&dir_rows).unwrap();
        fs::remove_dir_all(&dir_trial).unwrap();
    }

    #[test]
    fn push_trial_rejects_mismatched_slices() {
        let dir = temp_dir("mismatch");
        let mut w = ShardedWriter::create(&dir, 2).unwrap();
        let err = w.push_trial(0, &[1, 2], LocationId::new(0), &[1.0]);
        assert!(err.is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trials_never_straddle_shards() {
        let dir = temp_dir("routing");
        let mut w = ShardedWriter::create(&dir, 3).unwrap();
        for t in 0..30u32 {
            w.push_row(t, 0, LocationId::new(0), 1.0).unwrap();
            w.push_row(t, 1, LocationId::new(1), 2.0).unwrap();
        }
        w.finish().unwrap();
        let r = ShardedReader::open(&dir).unwrap();
        for s in 0..3u32 {
            for chunk in r.read_shard(s).unwrap() {
                assert!(chunk.trials.iter().all(|&t| t % 3 == s));
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_rejected() {
        let dir = temp_dir("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(ShardedReader::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let dir = temp_dir("badmanifest");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST.txt"), "not a manifest").unwrap();
        assert!(ShardedReader::open(&dir).is_err());
        fs::write(
            dir.join("MANIFEST.txt"),
            "riskpipe-shard-manifest v1\nkind=YelltChunk\nshards=2\n",
        )
        .unwrap();
        // Missing rows key.
        assert!(ShardedReader::open(&dir).is_err());
        // A kind no shard holds: rejected at open, not at first read.
        fs::write(
            dir.join("MANIFEST.txt"),
            "riskpipe-shard-manifest v1\nkind=Ylt\nshards=0\nrows=0\n",
        )
        .unwrap();
        assert!(matches!(
            ShardedReader::open(&dir),
            Err(RiskError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_data_rejected_on_read() {
        let dir = temp_dir("badshard");
        let mut w = ShardedWriter::create_with_chunk_rows(&dir, 1, 4).unwrap();
        for t in 0..10u32 {
            w.push_row(t, 0, LocationId::new(0), 1.0).unwrap();
        }
        w.finish().unwrap();
        // Flip a byte in the shard file payload.
        let p = shard_path(&dir, 0);
        let mut data = fs::read(&p).unwrap();
        let n = data.len();
        data[n - 1] ^= 0x55;
        fs::write(&p, data).unwrap();
        let r = ShardedReader::open(&dir).unwrap();
        assert!(r.read_shard(0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn existing_store_not_overwritten() {
        let dir = temp_dir("nooverwrite");
        let w = ShardedWriter::create(&dir, 2).unwrap();
        w.finish().unwrap();
        assert!(ShardedWriter::create(&dir, 2).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_zero_shards() {
        let dir = temp_dir("zeroshards");
        assert!(ShardedWriter::create(&dir, 0).is_err());
    }

    #[test]
    fn out_of_range_shard_read() {
        let dir = temp_dir("range");
        ShardedWriter::create(&dir, 2).unwrap().finish().unwrap();
        let r = ShardedReader::open(&dir).unwrap();
        assert!(r.read_shard(2).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_file_helpers_round_trip() {
        use crate::elt::{EltBuilder, EltRecord};
        use riskpipe_types::EventId;
        let dir = temp_dir("tablefile");
        fs::create_dir_all(&dir).unwrap();
        let mut b = EltBuilder::new();
        b.push(EltRecord {
            event_id: EventId::new(3),
            mean_loss: 10.0,
            sigma_i: 1.0,
            sigma_c: 1.0,
            exposure: 100.0,
        })
        .unwrap();
        let elt = b.build().unwrap();
        let path = dir.join("t.elt");
        write_table_file(&path, &codec::encode(&elt)).unwrap();
        let back: crate::elt::Elt = read_table_file(&path).unwrap();
        assert_eq!(back.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
