//! Binary encoding of the pipeline's tables: framed, CRC-checked,
//! little-endian column dumps.
//!
//! Frame layout:
//!
//! ```text
//! magic   u32   "RPTB" (0x42545052 LE)
//! version u16   format version (currently 1)
//! kind    u8    table kind (see TableKind)
//! _pad    u8    reserved, zero
//! len     u64   payload byte length
//! crc32   u32   IEEE CRC-32 of the payload
//! payload [u8]  the kind's scalars and columns, in schema order
//! ```
//!
//! Every frame is written in place by a [`FrameWriter`] and read by a
//! [`FrameReader`], which bounds-checks every read and fails on any
//! unconsumed byte. A scalar is its little-endian bytes; a column is a
//! `u64` element count, then the elements.
//!
//! ## Schema
//!
//! A table that decodes from its frame alone implements [`Framed`];
//! [`encode`] / [`decode`] add the frame, kind check and exact
//! consumption. Columns, except where marked scalar:
//!
//! | kind | payload, in order | validated by |
//! |---|---|---|
//! | ELT | ids u32, mean f64, σi f64, σc f64, exposure f64 | `elt_from_columns` |
//! | YET | offsets u64, events u32, days u16, z f64 | `YearEventTable::from_columns` |
//! | YELT | offsets u64, events u32, days u16, losses f64 | `Yelt::from_columns` |
//! | YLT | agg f64, max_occ f64, count u32 | `Ylt::from_columns` |
//! | YELLT chunk | trials u32, events u32, locations u32, losses f64 | `YelltChunk::validate` |
//! | QuantileGrid | rows u64, g u64 (scalars), cells f64 | `rows × g == cells` |
//! | RunManifest | run u64, slots u64 (scalars) | — |
//!
//! The stage-1 header (`riskpipe-catmodel::stage1io`) and a warehouse
//! cuboid (`riskpipe-warehouse::store`) need outside context to decode,
//! so they drive the writer and reader themselves.
//!
//! Frames may be concatenated in one file (a shard holds one per YELLT
//! chunk, a stage-1 cache entry one per table): [`decode_prefix`]
//! reports where the next frame starts, and [`frame_len`] skips a frame
//! from its header alone.

use crate::elt::{elt_from_columns, Elt};
use crate::yellt::YelltChunk;
use crate::yelt::Yelt;
use crate::yet::YearEventTable;
use crate::ylt::Ylt;
use riskpipe_types::{RiskError, RiskResult};

/// Frame magic: "RPTB" little-endian.
pub const MAGIC: u32 = 0x4254_5052;
/// Current format version.
pub const VERSION: u16 = 1;
/// Frame header size in bytes.
pub const HEADER_BYTES: usize = 4 + 2 + 1 + 1 + 8 + 4;

/// Table kinds carried in frame headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TableKind {
    /// Event-loss table.
    Elt = 1,
    /// Year-event table.
    Yet = 2,
    /// Year-event-loss table.
    Yelt = 3,
    /// Year-loss table.
    Ylt = 4,
    /// A chunk of year-event-location-loss rows.
    YelltChunk = 5,
    /// A materialised warehouse cuboid (payload layout owned by
    /// `riskpipe-warehouse::store`).
    Cuboid = 6,
    /// The leading frame of a cached stage-1 output (payload layout
    /// owned by `riskpipe-catmodel::stage1io`).
    Stage1 = 7,
    /// A per-run manifest enumerating the slots a sweep persisted
    /// ([`RunManifest`]). Written last, so its presence certifies the
    /// run completed.
    RunManifest = 8,
    /// One book's inverted secondary-uncertainty quantile grid
    /// ([`QuantileGrid`]), carried at the tail of a stage-1 disk-tier
    /// entry and adopted by `riskpipe-aggregate::secondary`.
    QuantileGrid = 9,
}

impl TableKind {
    /// Parse from the header byte.
    pub fn from_u8(v: u8) -> RiskResult<Self> {
        match v {
            1 => Ok(TableKind::Elt),
            2 => Ok(TableKind::Yet),
            3 => Ok(TableKind::Yelt),
            4 => Ok(TableKind::Ylt),
            5 => Ok(TableKind::YelltChunk),
            6 => Ok(TableKind::Cuboid),
            7 => Ok(TableKind::Stage1),
            8 => Ok(TableKind::RunManifest),
            9 => Ok(TableKind::QuantileGrid),
            _ => Err(RiskError::corrupt(format!("unknown table kind {v}"))),
        }
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slice-by-8, tables computed at compile time.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte that is followed by `k` more bytes of the same
/// 8-byte word, so one word costs eight independent lookups instead of
/// eight dependent ones.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        // lint: allow(S2) — loop bound keeps i < 256, so the usize
        // table index always fits u32.
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// Advance the (pre-inverted) CRC register over `data` one byte at a
/// time: the tail of [`crc32`], and the whole of the test oracle.
fn crc32_bytes(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 of a byte slice (polynomial 0xEDB88320, reflected) —
/// slice-by-8: eight bytes per step, the same value the byte-at-a-time
/// loop gives, so every frame ever written still verifies.
pub fn crc32(data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    let mut c = 0xFFFF_FFFFu32;
    for w in words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][w[4] as usize]
            ^ CRC_TABLES[2][w[5] as usize]
            ^ CRC_TABLES[1][w[6] as usize]
            ^ CRC_TABLES[0][w[7] as usize];
    }
    crc32_bytes(c, tail) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// The writer and the reader.
// ---------------------------------------------------------------------

/// A fixed-width little-endian value a frame carries: a scalar, or one
/// element of a column.
pub trait LeValue: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Write the value into `dst` (exactly [`LeValue::WIDTH`] bytes).
    fn write_le(self, dst: &mut [u8]);
    /// Read the value from `src` (exactly [`LeValue::WIDTH`] bytes).
    fn read_le(src: &[u8]) -> Self;
}

macro_rules! le_value {
    ($($t:ty),*) => {$(
        impl LeValue for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(src: &[u8]) -> Self {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(src);
                <$t>::from_le_bytes(b)
            }
        }
    )*};
}
le_value!(u8, u16, u32, u64, f64);

/// Appends one frame to a caller's buffer. The header goes in first with
/// its length and CRC as placeholders, the payload is written in place
/// after it, and [`FrameWriter::finish`] patches both in — so a
/// multi-frame stream is built in one buffer, each column written once.
#[must_use = "a frame's length and CRC are placeholders until `finish`"]
pub struct FrameWriter<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
}

impl<'a> FrameWriter<'a> {
    /// Start a `kind` frame at the end of `out`.
    pub fn new(out: &'a mut Vec<u8>, kind: TableKind) -> Self {
        let start = out.len();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        // lint: allow(S2) — TableKind is #[repr(u8)], so the discriminant
        // cast is lossless by construction.
        out.push(kind as u8);
        // The zero pad byte, then the length and CRC placeholders.
        out.resize(start + HEADER_BYTES, 0);
        Self { out, start }
    }

    /// Append one scalar.
    pub fn put<T: LeValue>(&mut self, x: T) {
        self.put_elems(std::slice::from_ref(&x));
    }

    /// Append a column: its element count, then its elements.
    pub fn put_column<T: LeValue>(&mut self, xs: &[T]) {
        self.put(xs.len() as u64);
        self.put_elems(xs);
    }

    /// Append raw payload bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn put_elems<T: LeValue>(&mut self, xs: &[T]) {
        let at = self.out.len();
        self.out.resize(at + xs.len() * T::WIDTH, 0);
        for (dst, &x) in self.out[at..].chunks_exact_mut(T::WIDTH).zip(xs) {
            x.write_le(dst);
        }
    }

    /// Patch the payload's length and CRC into the header.
    pub fn finish(self) {
        let payload = &self.out[self.start + HEADER_BYTES..];
        let (len, crc) = (payload.len() as u64, crc32(payload));
        // Header bytes 8..16 hold the length, 16..20 the CRC.
        let header = &mut self.out[self.start..self.start + HEADER_BYTES];
        header[8..16].copy_from_slice(&len.to_le_bytes());
        header[16..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Reads one CRC-verified payload front to back. Every read checks the
/// bytes left first and fails as [`RiskError::Corrupt`], never past the
/// end; [`FrameReader::finish`] fails on any byte left unread.
#[derive(Debug)]
pub struct FrameReader<'a> {
    rest: &'a [u8],
}

impl<'a> FrameReader<'a> {
    /// Verify the frame at the front of `data` — header, CRC, and that
    /// it is a `kind` frame — and read its payload. Also returns the
    /// frame's total length: where the next frame starts.
    pub fn open(data: &'a [u8], kind: TableKind) -> RiskResult<(Self, usize)> {
        let (found, payload, used) = unframe(data)?;
        if found != kind {
            return Err(RiskError::corrupt(format!(
                "expected {kind:?} frame, got {found:?}"
            )));
        }
        Ok((Self { rest: payload }, used))
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> RiskResult<&'a [u8]> {
        if self.rest.len() < n {
            return Err(RiskError::corrupt(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.rest.len()
            )));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// One scalar.
    pub fn get<T: LeValue>(&mut self, what: &str) -> RiskResult<T> {
        self.take(T::WIDTH, what).map(T::read_le)
    }

    /// A `u64` count of items each at least `min_bytes` long in the rest
    /// of the payload. A count the bytes left cannot hold is corrupt
    /// here, before anything is allocated for it.
    pub fn get_count(&mut self, what: &str, min_bytes: usize) -> RiskResult<usize> {
        let (n, left) = (self.get::<u64>(what)?, self.rest.len());
        match usize::try_from(n) {
            Ok(n) if n.saturating_mul(min_bytes) <= left => Ok(n),
            _ => Err(RiskError::corrupt(format!(
                "implausible count {n} for {what}: {left} bytes left"
            ))),
        }
    }

    /// A column: its element count, then its elements.
    pub fn get_column<T: LeValue>(&mut self, what: &str) -> RiskResult<Vec<T>> {
        let n = self.get_count(what, T::WIDTH)?;
        self.get_elems(n, what)
    }

    /// `n` elements with no count before them.
    pub fn get_elems<T: LeValue>(&mut self, n: usize, what: &str) -> RiskResult<Vec<T>> {
        // A hostile count must not wrap into a bounds check that passes.
        let bytes = n.checked_mul(T::WIDTH).ok_or_else(|| {
            RiskError::corrupt(format!("{what}: {n} elements overflow the byte count"))
        })?;
        let column = self.take(bytes, what)?;
        Ok(column.chunks_exact(T::WIDTH).map(T::read_le).collect())
    }

    /// The unread rest of the payload, for a decoder that reports how
    /// much it used (the caller then [`take`](FrameReader::take)s that).
    pub fn remaining(&self) -> &'a [u8] {
        self.rest
    }

    /// End the payload: an unread byte is corruption.
    pub fn finish(self) -> RiskResult<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(RiskError::corrupt(format!("{n} trailing payload bytes"))),
        }
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Wrap a payload in a checked frame.
pub fn frame(kind: TableKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    let mut w = FrameWriter::new(&mut out, kind);
    w.put_bytes(payload);
    w.finish();
    out
}

/// The header fields of the frame at the front of `data`: kind, stored
/// CRC, and the frame's total length (header + payload), which is
/// checked to lie inside `data`.
fn parse_header(data: &[u8]) -> RiskResult<(TableKind, u32, usize)> {
    let mut h = FrameReader { rest: data };
    let magic: u32 = h.get("frame magic")?;
    if magic != MAGIC {
        return Err(RiskError::corrupt(format!("bad magic {magic:#010x}")));
    }
    let version: u16 = h.get("frame version")?;
    if version != VERSION {
        return Err(RiskError::corrupt(format!("unsupported version {version}")));
    }
    let kind = TableKind::from_u8(h.get("frame kind")?)?;
    let _pad: u8 = h.get("frame pad")?;
    let len: u64 = h.get("frame length")?;
    let crc_expect: u32 = h.get("frame crc")?;
    // A corrupt header can carry any 64-bit length; the addition must
    // not wrap into a bounds check that passes.
    let total = usize::try_from(len)
        .ok()
        .and_then(|len| HEADER_BYTES.checked_add(len))
        .ok_or_else(|| RiskError::corrupt(format!("implausible frame length {len}")))?;
    if data.len() < total {
        return Err(RiskError::corrupt(format!(
            "frame payload truncated: want {len} bytes"
        )));
    }
    Ok((kind, crc_expect, total))
}

/// Total length of the frame at the front of `data`, from its header
/// alone — for a reader walking concatenated frames without verifying
/// them.
pub fn frame_len(data: &[u8]) -> RiskResult<usize> {
    parse_header(data).map(|(_, _, total)| total)
}

/// Parse the next frame from `data`, returning `(kind, payload,
/// bytes_consumed)`.
pub fn unframe(data: &[u8]) -> RiskResult<(TableKind, &[u8], usize)> {
    let (kind, crc_expect, total) = parse_header(data)?;
    let payload = &data[HEADER_BYTES..total];
    let crc_actual = crc32(payload);
    if crc_actual != crc_expect {
        return Err(RiskError::corrupt(format!(
            "crc mismatch: stored {crc_expect:#010x}, computed {crc_actual:#010x}"
        )));
    }
    Ok((kind, payload, total))
}

// ---------------------------------------------------------------------
// Table schemas.
// ---------------------------------------------------------------------

/// A table that decodes from its frame alone (see the module docs'
/// schema): its frame kind, how its payload is written, and how it is
/// read back and validated.
pub trait Framed: Sized {
    /// The kind in this table's frame header.
    const KIND: TableKind;
    /// Write the payload.
    fn put(&self, w: &mut FrameWriter<'_>);
    /// Read and validate the payload (the caller checks that it ends).
    fn get(r: &mut FrameReader<'_>) -> RiskResult<Self>;
}

/// Encode a table as one frame.
pub fn encode<T: Framed>(table: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, table);
    out
}

/// Append a table's frame to `out`.
pub fn encode_into<T: Framed>(out: &mut Vec<u8>, table: &T) {
    let mut w = FrameWriter::new(out, T::KIND);
    table.put(&mut w);
    w.finish();
}

/// Decode `data`, which must be exactly one `T` frame.
pub fn decode<T: Framed>(data: &[u8]) -> RiskResult<T> {
    match decode_prefix(data)? {
        (table, used) if used == data.len() => Ok(table),
        (_, used) => Err(RiskError::corrupt(format!(
            "{} bytes after the {:?} frame",
            data.len() - used,
            T::KIND
        ))),
    }
}

/// Decode the `T` frame at the front of `data`, returning it and the
/// bytes consumed; what follows is the caller's.
pub fn decode_prefix<T: Framed>(data: &[u8]) -> RiskResult<(T, usize)> {
    let (mut r, used) = FrameReader::open(data, T::KIND)?;
    let table = T::get(&mut r)?;
    r.finish()?;
    Ok((table, used))
}

impl Framed for Elt {
    const KIND: TableKind = TableKind::Elt;

    fn put(&self, w: &mut FrameWriter<'_>) {
        let (ids, mean, si, sc, exp) = self.columns();
        w.put_column(ids);
        w.put_column(mean);
        w.put_column(si);
        w.put_column(sc);
        w.put_column(exp);
    }

    fn get(r: &mut FrameReader<'_>) -> RiskResult<Self> {
        elt_from_columns(
            r.get_column("elt.event_ids")?,
            r.get_column("elt.mean_loss")?,
            r.get_column("elt.sigma_i")?,
            r.get_column("elt.sigma_c")?,
            r.get_column("elt.exposure")?,
        )
    }
}

impl Framed for YearEventTable {
    const KIND: TableKind = TableKind::Yet;

    fn put(&self, w: &mut FrameWriter<'_>) {
        let (off, ids, days, z) = self.columns();
        w.put_column(off);
        w.put_column(ids);
        w.put_column(days);
        w.put_column(z);
    }

    fn get(r: &mut FrameReader<'_>) -> RiskResult<Self> {
        YearEventTable::from_columns(
            r.get_column("yet.offsets")?,
            r.get_column("yet.event_ids")?,
            r.get_column("yet.days")?,
            r.get_column("yet.z")?,
        )
    }
}

impl Framed for Yelt {
    const KIND: TableKind = TableKind::Yelt;

    fn put(&self, w: &mut FrameWriter<'_>) {
        let (off, ids, days, losses) = self.columns();
        w.put_column(off);
        w.put_column(ids);
        w.put_column(days);
        w.put_column(losses);
    }

    fn get(r: &mut FrameReader<'_>) -> RiskResult<Self> {
        Yelt::from_columns(
            r.get_column("yelt.offsets")?,
            r.get_column("yelt.event_ids")?,
            r.get_column("yelt.days")?,
            r.get_column("yelt.losses")?,
        )
    }
}

impl Framed for Ylt {
    const KIND: TableKind = TableKind::Ylt;

    fn put(&self, w: &mut FrameWriter<'_>) {
        let (agg, maxo, cnt) = self.columns();
        w.put_column(agg);
        w.put_column(maxo);
        w.put_column(cnt);
    }

    fn get(r: &mut FrameReader<'_>) -> RiskResult<Self> {
        Ylt::from_columns(
            r.get_column("ylt.agg")?,
            r.get_column("ylt.max_occ")?,
            r.get_column("ylt.count")?,
        )
    }
}

impl Framed for YelltChunk {
    const KIND: TableKind = TableKind::YelltChunk;

    fn put(&self, w: &mut FrameWriter<'_>) {
        w.put_column(&self.trials);
        w.put_column(&self.events);
        w.put_column(&self.locations);
        w.put_column(&self.losses);
    }

    fn get(r: &mut FrameReader<'_>) -> RiskResult<Self> {
        let chunk = YelltChunk {
            trials: r.get_column("yellt.trials")?,
            events: r.get_column("yellt.events")?,
            locations: r.get_column("yellt.locations")?,
            losses: r.get_column("yellt.losses")?,
        };
        chunk.validate()?;
        Ok(chunk)
    }
}

/// A per-run manifest: the run number and the number of consecutive
/// slots (from 0) the run persisted. Written *last* by a completed
/// persisted sweep, so its presence certifies the run's per-slot
/// artifacts are all expected to exist — a rebuild that finds the
/// manifest but not a slot has found corruption, not a shorter sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunManifest {
    /// The run the manifest certifies.
    pub run: u64,
    /// Slots `0..slots` the run persisted.
    pub slots: u64,
}

impl Framed for RunManifest {
    const KIND: TableKind = TableKind::RunManifest;

    fn put(&self, w: &mut FrameWriter<'_>) {
        w.put(self.run);
        w.put(self.slots);
    }

    fn get(r: &mut FrameReader<'_>) -> RiskResult<Self> {
        Ok(Self {
            run: r.get("run_manifest.run")?,
            slots: r.get("run_manifest.slots")?,
        })
    }
}

/// One book's inverted secondary-uncertainty quantile grid as a
/// stage-1 disk-tier entry carries it: `rows × g` cells, row-major.
/// `rows` is framed beside the cell column so a decoder can tell a
/// `g × rows` transposition — same byte count — from the grid it
/// expects. Decoding checks the shape only; whether the cells are
/// quantiles, and of which ELT, is the adopter's call.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileGrid {
    /// ELT rows the grid was tabulated for.
    pub rows: usize,
    /// Grid points per row.
    pub g: usize,
    /// The `rows × g` quantile cells, row `i` at `i * g`.
    pub cells: Vec<f64>,
}

impl QuantileGrid {
    /// [`Framed::put`] over borrowed cells: the payload of a row-major
    /// `g`-point grid of `cells.len() / g` rows, for a caller that keeps
    /// its cells rather than move them into a `QuantileGrid`.
    pub fn put_cells(w: &mut FrameWriter<'_>, g: usize, cells: &[f64]) {
        w.put(cells.len().checked_div(g).unwrap_or(0) as u64);
        w.put(g as u64);
        w.put_column(cells);
    }
}

impl Framed for QuantileGrid {
    const KIND: TableKind = TableKind::QuantileGrid;

    fn put(&self, w: &mut FrameWriter<'_>) {
        Self::put_cells(w, self.g, &self.cells);
    }

    fn get(r: &mut FrameReader<'_>) -> RiskResult<Self> {
        let rows = r.get_count("grid.rows", 0)?;
        let g = r.get_count("grid.g", 0)?;
        let cells: Vec<f64> = r.get_column("grid.cells")?;
        if rows.checked_mul(g) != Some(cells.len()) {
            return Err(RiskError::corrupt(format!(
                "quantile grid of {rows} rows x {g} points carries {} cells",
                cells.len()
            )));
        }
        Ok(Self { rows, g, cells })
    }
}

/// [`encode`] for a YLT — kept only because the frozen benchmark harness
/// (`riskbench`) names it; it goes when the harness is unfrozen
/// (ROADMAP item 1).
pub fn encode_ylt(ylt: &Ylt) -> Vec<u8> {
    encode(ylt)
}

/// [`decode`] for a YLT — kept only because the frozen benchmark harness
/// (`riskbench`) names it; it goes when the harness is unfrozen
/// (ROADMAP item 1).
pub fn decode_ylt(data: &[u8]) -> RiskResult<Ylt> {
    decode(data)
}

/// The exact size [`encode`] produces for a YLT of `trials` rows,
/// without materialising the encoding. The format is uncompressed —
/// frame header, three length-prefixed columns (two `f64`, one `u32`)
/// — so the size is a pure function of the trial count; reports that
/// only need the byte count (sizing tables, memory-vs-file
/// comparisons) use this instead of a throwaway encode.
pub const fn encoded_ylt_len(trials: usize) -> usize {
    HEADER_BYTES + 3 * 8 + trials * (8 + 8 + 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elt::{EltBuilder, EltRecord};
    use crate::yet::{Occurrence, YetBuilder};
    use riskpipe_types::{EventId, LocationId, TrialId};

    fn sample_elt() -> Elt {
        let mut b = EltBuilder::new();
        for i in 1..=50u32 {
            b.push(EltRecord {
                event_id: EventId::new(i * 2),
                mean_loss: i as f64 * 1000.0,
                sigma_i: i as f64 * 100.0,
                sigma_c: i as f64 * 50.0,
                exposure: i as f64 * 10_000.0,
            })
            .unwrap();
        }
        b.build().unwrap()
    }

    fn sample_yet() -> YearEventTable {
        let mut b = YetBuilder::new();
        for t in 0..20u32 {
            let occs: Vec<Occurrence> = (0..t % 5)
                .map(|i| Occurrence {
                    event_id: EventId::new((t + i) * 2),
                    day: ((t * 13 + i * 7) % 365) as u16,
                    z: 0.1 + 0.8 * (i as f64 / 5.0),
                })
                .collect();
            b.push_trial(&occs);
        }
        b.build()
    }

    /// The byte-at-a-time CRC every frame before the slice-by-8 kernel
    /// was written with — the oracle for [`crc32`].
    pub(super) fn crc32_bytewise(data: &[u8]) -> u32 {
        crc32_bytes(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_bytewise_loop_at_every_short_length_and_offset() {
        // Every split of a buffer into 8-byte words + tail, at every
        // alignment of its first byte.
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(167) ^ (i >> 2)) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn frame_written_before_slice_by_8_still_unframes() {
        // The encoding of a 3-trial YLT, bytes as the byte-at-a-time
        // commit (c6ac945) wrote them: the stored CRC must still match.
        const OLD: &str = "52505442010004005400000000000000b541d3b70300000000000000\
            0000000000448f400000000000449f40000000000073a74003000000000000000000\
            0000007287400000000000729740000000008095a140030000000000000001000000\
            0200000003000000";
        let hex: Vec<u8> = OLD.bytes().filter(u8::is_ascii_hexdigit).collect();
        let bytes: Vec<u8> = hex
            .chunks_exact(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect();
        let (kind, payload, used) = unframe(&bytes).unwrap();
        assert_eq!((kind, used), (TableKind::Ylt, bytes.len()));
        assert_eq!(crc32(payload), 0xB7D3_41B5);
        let mut ylt = Ylt::zeroed(3);
        for t in 0..3u32 {
            let k = (t + 1) as f64;
            ylt.set_trial(TrialId::new(t), 1000.5 * k, 750.25 * k, t + 1);
        }
        assert_eq!(decode::<Ylt>(&bytes).unwrap(), ylt);
        assert_eq!(encode(&ylt), bytes, "and today's encoder agrees");
    }

    #[test]
    fn quantile_grid_round_trip_and_shape_checks() {
        let cells: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        let grid = QuantileGrid {
            rows: 3,
            g: 4,
            cells,
        };
        let bytes = encode(&grid);
        let (back, used) = decode_prefix::<QuantileGrid>(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, grid);
        assert!(decode::<QuantileGrid>(&encode(&Ylt::zeroed(2))).is_err());
        // Valid CRC, wrong shape: a transposed header, an overflowing
        // product, a short column, trailing payload bytes.
        let (_, payload, _) = unframe(&bytes).unwrap();
        let reframed = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut p = payload.to_vec();
            edit(&mut p);
            decode::<QuantileGrid>(&frame(TableKind::QuantileGrid, &p))
        };
        assert!(reframed(&|_| {}).is_ok());
        for (what, rows, g) in [
            ("rows off by one", 4u64, 4u64),
            ("rows x g overflows", 1 << 40, 1 << 40),
            ("zero g", 3, 0),
        ] {
            let bad = reframed(&|p| {
                p[..8].copy_from_slice(&rows.to_le_bytes());
                p[8..16].copy_from_slice(&g.to_le_bytes());
            });
            assert!(matches!(bad, Err(RiskError::Corrupt(_))), "{what}");
        }
        assert!(reframed(&|p| p.push(0)).is_err());
        assert!(reframed(&|p| p.truncate(p.len() - 8)).is_err());
    }

    #[test]
    fn elt_round_trip() {
        let elt = sample_elt();
        let back: Elt = decode(&encode(&elt)).unwrap();
        assert_eq!(back.len(), elt.len());
        for (a, b) in back.iter().zip(elt.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn yet_round_trip() {
        let yet = sample_yet();
        let back: YearEventTable = decode(&encode(&yet)).unwrap();
        assert_eq!(back.trials(), yet.trials());
        assert_eq!(back.total_occurrences(), yet.total_occurrences());
        for t in 0..yet.trials() {
            let t = TrialId::new(t as u32);
            assert_eq!(back.trial_slices(t), yet.trial_slices(t));
        }
    }

    #[test]
    fn yelt_round_trip() {
        let yelt = Yelt::from_yet_elt(&sample_yet(), &sample_elt());
        let back: Yelt = decode(&encode(&yelt)).unwrap();
        assert_eq!(back.trials(), yelt.trials());
        assert_eq!(back.rows(), yelt.rows());
        let (a, _) = back.scan_aggregate_by_trial();
        let (b, _) = yelt.scan_aggregate_by_trial();
        assert_eq!(a, b);
    }

    #[test]
    fn ylt_round_trip() {
        let mut ylt = Ylt::zeroed(10);
        for t in 0..10 {
            ylt.set_trial(TrialId::new(t), t as f64 * 5.0, t as f64 * 3.0, t);
        }
        assert_eq!(decode::<Ylt>(&encode(&ylt)).unwrap(), ylt);
    }

    #[test]
    fn encoded_ylt_len_matches_actual_encoding() {
        for trials in [0usize, 1, 10, 500] {
            let ylt = Ylt::zeroed(trials);
            assert_eq!(
                encode(&ylt).len(),
                encoded_ylt_len(trials),
                "trials={trials}"
            );
        }
    }

    #[test]
    fn yellt_chunk_round_trip() {
        let mut c = YelltChunk::with_capacity(10);
        for i in 0..10u32 {
            c.push(i, i * 2, LocationId::new(i % 3), i as f64 * 1.5);
        }
        let bytes = encode(&c);
        let (back, consumed) = decode_prefix::<YelltChunk>(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn run_manifest_round_trip() {
        let manifest = RunManifest { run: 7, slots: 42 };
        let bytes = encode(&manifest);
        assert_eq!(decode::<RunManifest>(&bytes).unwrap(), manifest);
        // Wrong kind and trailing garbage are both rejected.
        assert!(decode::<RunManifest>(&encode(&sample_elt())).is_err());
        let mut long = bytes[HEADER_BYTES..].to_vec();
        long.push(0);
        assert!(decode::<RunManifest>(&frame(TableKind::RunManifest, &long)).is_err());
    }

    #[test]
    fn huge_len_header_is_corrupt_not_panic() {
        let mut bytes = encode(&sample_elt());
        // Overwrite the len field (bytes 8..16) with u64::MAX.
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode::<Elt>(&bytes).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "got: {err}");
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut bytes = encode(&sample_elt());
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a payload bit
        let err = decode::<Elt>(&bytes).unwrap_err();
        assert!(err.to_string().contains("crc"), "got: {err}");
    }

    #[test]
    fn corrupted_magic_fails() {
        let mut bytes = encode(&sample_elt());
        bytes[0] = 0;
        assert!(decode::<Elt>(&bytes).is_err());
    }

    #[test]
    fn truncated_frame_fails() {
        let bytes = encode(&sample_elt());
        assert!(decode::<Elt>(&bytes[..HEADER_BYTES - 1]).is_err());
        assert!(decode::<Elt>(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = encode(&sample_elt());
        assert!(decode::<YearEventTable>(&bytes).is_err());
        assert!(decode::<Ylt>(&bytes).is_err());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut c1 = YelltChunk::with_capacity(2);
        c1.push(0, 1, LocationId::new(0), 1.0);
        let mut c2 = YelltChunk::with_capacity(2);
        c2.push(1, 2, LocationId::new(1), 2.0);
        let mut stream = encode(&c1);
        encode_into(&mut stream, &c2);
        let (back1, used1) = decode_prefix::<YelltChunk>(&stream).unwrap();
        let (back2, used2) = decode_prefix::<YelltChunk>(&stream[used1..]).unwrap();
        assert_eq!(back1, c1);
        assert_eq!(back2, c2);
        assert_eq!(used1 + used2, stream.len());
        // The whole stream is not one frame.
        assert!(decode::<YelltChunk>(&stream).is_err());
    }

    #[test]
    fn unframe_rejects_future_version() {
        let mut bytes = encode(&sample_elt());
        bytes[4] = 99; // version low byte
        assert!(decode::<Elt>(&bytes).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::elt::{EltBuilder, EltRecord};
    use crate::yet::{Occurrence, YetBuilder};
    use crate::ylt::Ylt;
    use proptest::prelude::*;
    use riskpipe_types::{EventId, LocationId, TrialId};

    /// What every [`Framed`] kind must pass: the round trip is exact
    /// (re-encoding the decoded table gives the same bytes), and every
    /// strict prefix and every `flip` of a byte but the reserved pad
    /// (byte 7) fails to decode.
    fn damage_is_detected<T: Framed>(table: &T, flip: u8) -> Result<(), String> {
        let bytes = encode(table);
        let back: T = decode(&bytes).map_err(|e| format!("{:?}: {e}", T::KIND))?;
        prop_assert_eq!(&encode(&back), &bytes, "{:?} round trip", T::KIND);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode::<T>(&bytes[..cut]).is_err(),
                "{:?} prefix {cut}",
                T::KIND
            );
        }
        for pos in (0..bytes.len()).filter(|&pos| pos != 7) {
            let mut bad = bytes.clone();
            bad[pos] ^= flip;
            prop_assert!(decode::<T>(&bad).is_err(), "{:?} flip at {pos}", T::KIND);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Slice-by-8 and the byte-at-a-time loop agree on arbitrary
        /// bytes at arbitrary alignment.
        #[test]
        fn crc32_equals_the_bytewise_loop(
            data in prop::collection::vec(0u8..=255, 0..600),
            skip in 0usize..8,
        ) {
            let data = &data[skip.min(data.len())..];
            prop_assert_eq!(crc32(data), super::tests::crc32_bytewise(data));
        }

        /// Arbitrary valid ELTs survive the frame round trip exactly.
        #[test]
        fn elt_round_trips(rows in prop::collection::btree_map(
            0u32..10_000, (1.0..1e9f64, 0.0..1e8f64, 0.0..1e8f64, 1.0..10.0f64), 1..100)
        ) {
            let mut b = EltBuilder::new();
            for (&id, &(mean, si, sc, exp_factor)) in &rows {
                b.push(EltRecord {
                    event_id: EventId::new(id),
                    mean_loss: mean,
                    sigma_i: si,
                    sigma_c: sc,
                    exposure: mean * exp_factor,
                }).unwrap();
            }
            let elt = b.build().unwrap();
            let back: Elt = decode(&encode(&elt)).unwrap();
            prop_assert_eq!(back.len(), elt.len());
            for (a, b) in back.iter().zip(elt.iter()) {
                prop_assert_eq!(a, b);
            }
        }

        /// Arbitrary YETs survive the frame round trip exactly.
        #[test]
        fn yet_round_trips(trials in prop::collection::vec(
            prop::collection::vec((0u32..5_000, 0u16..365, 0.001..0.999f64), 0..8), 1..50)
        ) {
            let mut yb = YetBuilder::new();
            for t in &trials {
                let occs: Vec<Occurrence> = t.iter().map(|&(e, d, z)| Occurrence {
                    event_id: EventId::new(e), day: d, z,
                }).collect();
                yb.push_trial(&occs);
            }
            let yet = yb.build();
            let back: YearEventTable = decode(&encode(&yet)).unwrap();
            prop_assert_eq!(back.trials(), yet.trials());
            for t in 0..yet.trials() {
                let t = TrialId::new(t as u32);
                prop_assert_eq!(back.trial_slices(t), yet.trial_slices(t));
            }
        }

        /// Arbitrary YLTs survive the frame round trip exactly (bitwise,
        /// including negative values from DFA nets).
        #[test]
        fn ylt_round_trips(rows in prop::collection::vec((0.0..1e12f64, 0.0..1e12f64, 0u32..100), 1..200)) {
            let mut ylt = Ylt::zeroed(rows.len());
            for (t, &(agg, max, cnt)) in rows.iter().enumerate() {
                // Keep the invariant max <= agg for realism (not required
                // by the codec).
                ylt.set_trial(TrialId::new(t as u32), agg.max(max), max, cnt);
            }
            let back: Ylt = decode(&encode(&ylt)).unwrap();
            prop_assert_eq!(back, ylt);
        }

        /// Arbitrary YELLT chunks survive the frame round trip; truncating
        /// the frame anywhere fails loudly rather than misreading.
        #[test]
        fn yellt_chunk_round_trips_and_rejects_truncation(
            rows in prop::collection::vec((0u32..1000, 0u32..1000, 0u32..100, 0.0..1e9f64), 1..100),
            cut_frac in 0.1..0.95f64,
        ) {
            let mut c = YelltChunk::with_capacity(rows.len());
            for &(t, e, l, loss) in &rows {
                c.push(t, e, LocationId::new(l), loss);
            }
            let bytes = encode(&c);
            let (back, used) = decode_prefix::<YelltChunk>(&bytes).unwrap();
            prop_assert_eq!(&back, &c);
            prop_assert_eq!(used, bytes.len());
            // Any strict prefix must fail.
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            prop_assert!(decode::<YelltChunk>(&bytes[..cut]).is_err());
        }

        /// Every [`Framed`] kind, built from one set of small random
        /// rows, round-trips exactly, and any truncation or single-byte
        /// flip outside the pad byte is detected (CRC or structural
        /// validation) — never silently accepted as a different table.
        #[test]
        fn single_byte_corruption_detected(
            rows in prop::collection::btree_map(
                0u32..64, (1.0..1e6f64, 0u16..365, 0u32..9), 1..10),
            trials in prop::collection::vec(prop::collection::vec(0u32..64, 0..4), 1..6),
            g in 1usize..4,
            manifest in (any::<u64>(), any::<u64>()),
            bit in 0u8..8,
        ) {
            let flip = 1u8 << bit;
            let mut b = EltBuilder::new();
            for (&id, &(loss, _, _)) in &rows {
                b.push(EltRecord {
                    event_id: EventId::new(id),
                    mean_loss: loss,
                    sigma_i: loss / 4.0,
                    sigma_c: loss / 8.0,
                    exposure: 2.0 * loss + 1.0,
                }).unwrap();
            }
            let elt = b.build().unwrap();
            let mut yb = YetBuilder::new();
            for (t, events) in trials.iter().enumerate() {
                let occs: Vec<Occurrence> = events.iter().enumerate().map(|(k, &e)| Occurrence {
                    event_id: EventId::new(e),
                    day: (t * 31 + k) as u16,
                    z: (k as f64 + 0.5) / 4.0,
                }).collect();
                yb.push_trial(&occs);
            }
            let yet = yb.build();
            let mut ylt = Ylt::zeroed(rows.len());
            let mut chunk = YelltChunk::with_capacity(rows.len());
            for (t, (&id, &(loss, day, count))) in rows.iter().enumerate() {
                ylt.set_trial(TrialId::new(t as u32), loss, loss / 2.0, count);
                chunk.push(t as u32, id, LocationId::new(u32::from(day)), loss);
            }
            let cells: Vec<f64> = rows.values().take(rows.len() / g * g).map(|r| r.0).collect();
            damage_is_detected(&elt, flip)?;
            damage_is_detected(&yet, flip)?;
            damage_is_detected(&Yelt::from_yet_elt(&yet, &elt), flip)?;
            damage_is_detected(&ylt, flip)?;
            damage_is_detected(&chunk, flip)?;
            damage_is_detected(&QuantileGrid { rows: cells.len() / g, g, cells }, flip)?;
            damage_is_detected(&RunManifest { run: manifest.0, slots: manifest.1 }, flip)?;
        }
    }
}
