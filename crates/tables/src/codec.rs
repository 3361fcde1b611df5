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
//! payload [u8]  column data: per column, a u64 element count followed
//!               by the raw little-endian element bytes
//! ```
//!
//! Several frames may be concatenated in one file (the sharded YELLT
//! spill writes one frame per chunk), so decoding is streaming-friendly:
//! a reader can skip a frame from its header alone.

use crate::elt::{elt_from_columns, Elt};
use crate::yellt::YelltChunk;
use crate::yelt::Yelt;
use crate::yet::YearEventTable;
use crate::ylt::Ylt;
use bytes::{Buf, BufMut, Bytes, BytesMut};
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
    /// (payload layout owned by `riskpipe-core::session`). Written
    /// last, so its presence certifies the run completed.
    RunManifest = 8,
    /// One book's inverted secondary-uncertainty quantile grid, carried
    /// at the tail of a stage-1 disk-tier entry (see
    /// [`encode_quantile_grid`]; adopted by
    /// `riskpipe-aggregate::secondary`).
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
// Column put/get helpers: a u64 element count, then the elements'
// little-endian bytes, moved in one pass over the whole column.
// ---------------------------------------------------------------------

/// A column element of fixed little-endian width.
trait LeElem: Copy {
    const WIDTH: usize;
    fn write_le(self, dst: &mut [u8]);
    fn read_le(src: &[u8]) -> Self;
}

macro_rules! le_elem {
    ($($t:ty),*) => {$(
        impl LeElem for $t {
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
le_elem!(u16, u32, u64, f64);

/// Encoded size of a column of `n` elements of `T`.
const fn column_len<T: LeElem>(n: usize) -> usize {
    8 + n * T::WIDTH
}

fn put_column<T: LeElem>(buf: &mut Vec<u8>, xs: &[T]) {
    buf.put_u64_le(xs.len() as u64);
    let start = buf.len();
    buf.resize(start + xs.len() * T::WIDTH, 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(T::WIDTH).zip(xs) {
        x.write_le(dst);
    }
}

fn check_remaining(buf: &[u8], need: usize, what: &str) -> RiskResult<()> {
    if buf.len() < need {
        return Err(RiskError::corrupt(format!(
            "truncated column {what}: need {need} bytes, have {}",
            buf.len()
        )));
    }
    Ok(())
}

fn get_len(buf: &mut &[u8], what: &str) -> RiskResult<usize> {
    check_remaining(buf, 8, what)?;
    let n = buf.get_u64_le();
    if n > (1 << 40) {
        return Err(RiskError::corrupt(format!(
            "implausible column length {n} for {what}"
        )));
    }
    Ok(n as usize)
}

/// `n * width` with overflow surfaced as corruption, not a wrap or a
/// debug-build panic: a hostile length field must never turn into a
/// too-small bounds check.
fn column_bytes(n: usize, width: usize, what: &str) -> RiskResult<usize> {
    n.checked_mul(width).ok_or_else(|| {
        RiskError::corrupt(format!(
            "column byte count overflows for {what}: {n} x {width}"
        ))
    })
}

fn get_column<T: LeElem>(buf: &mut &[u8], what: &str) -> RiskResult<Vec<T>> {
    let n = get_len(buf, what)?;
    let bytes = column_bytes(n, T::WIDTH, what)?;
    check_remaining(buf, bytes, what)?;
    let (column, rest) = buf.split_at(bytes);
    *buf = rest;
    Ok(column.chunks_exact(T::WIDTH).map(T::read_le).collect())
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Wrap a payload in a checked frame.
pub fn frame(kind: TableKind, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + payload.len());
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    // lint: allow(S2) — TableKind is #[repr(u8)], so the discriminant
    // cast is lossless by construction.
    buf.put_u8(kind as u8);
    buf.put_u8(0);
    buf.put_u64_le(payload.len() as u64);
    buf.put_u32_le(crc32(payload));
    buf.put_slice(payload);
    buf.freeze()
}

/// The header fields of the frame at the front of `data`: kind, stored
/// CRC, and the frame's total length (header + payload), which is
/// checked to lie inside `data`.
fn parse_header(data: &[u8]) -> RiskResult<(TableKind, u32, usize)> {
    if data.len() < HEADER_BYTES {
        return Err(RiskError::corrupt("frame header truncated"));
    }
    let mut h = &data[..HEADER_BYTES];
    let magic = h.get_u32_le();
    if magic != MAGIC {
        return Err(RiskError::corrupt(format!("bad magic {magic:#010x}")));
    }
    let version = h.get_u16_le();
    if version != VERSION {
        return Err(RiskError::corrupt(format!("unsupported version {version}")));
    }
    let kind = TableKind::from_u8(h.get_u8())?;
    let _pad = h.get_u8();
    let len = h.get_u64_le() as usize;
    let crc_expect = h.get_u32_le();
    // A corrupt header can carry any 64-bit length; the addition must
    // not wrap into a bounds check that passes.
    let total = HEADER_BYTES
        .checked_add(len)
        .ok_or_else(|| RiskError::corrupt(format!("implausible frame length {len}")))?;
    if data.len() < total {
        return Err(RiskError::corrupt(format!(
            "frame payload truncated: want {len} bytes"
        )));
    }
    Ok((kind, crc_expect, total))
}

/// Total length of the frame at the front of `data`, from its header
/// alone — for a reader walking concatenated frames that hands each to
/// a decoder (which verifies the payload) and should not checksum it
/// twice.
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
// Table codecs.
// ---------------------------------------------------------------------

/// Encode an ELT as one frame.
pub fn encode_elt(elt: &Elt) -> Bytes {
    let (ids, mean, si, sc, exp) = elt.columns();
    let n = ids.len();
    let mut p = Vec::with_capacity(column_len::<u32>(n) + 4 * column_len::<f64>(n));
    put_column(&mut p, ids);
    put_column(&mut p, mean);
    put_column(&mut p, si);
    put_column(&mut p, sc);
    put_column(&mut p, exp);
    frame(TableKind::Elt, &p)
}

/// Decode an ELT frame.
pub fn decode_elt(data: &[u8]) -> RiskResult<Elt> {
    let (kind, payload, _) = unframe(data)?;
    if kind != TableKind::Elt {
        return Err(RiskError::corrupt(format!(
            "expected ELT frame, got {kind:?}"
        )));
    }
    let mut p = payload;
    let ids = get_column(&mut p, "elt.event_ids")?;
    let mean = get_column(&mut p, "elt.mean_loss")?;
    let si = get_column(&mut p, "elt.sigma_i")?;
    let sc = get_column(&mut p, "elt.sigma_c")?;
    let exp = get_column(&mut p, "elt.exposure")?;
    elt_from_columns(ids, mean, si, sc, exp)
}

/// Encode a YET as one frame.
pub fn encode_yet(yet: &YearEventTable) -> Bytes {
    let (off, ids, days, z) = yet.columns();
    let mut p = Vec::with_capacity(
        column_len::<u64>(off.len())
            + column_len::<u32>(ids.len())
            + column_len::<u16>(days.len())
            + column_len::<f64>(z.len()),
    );
    put_column(&mut p, off);
    put_column(&mut p, ids);
    put_column(&mut p, days);
    put_column(&mut p, z);
    frame(TableKind::Yet, &p)
}

/// Decode a YET frame.
pub fn decode_yet(data: &[u8]) -> RiskResult<YearEventTable> {
    let (kind, payload, _) = unframe(data)?;
    if kind != TableKind::Yet {
        return Err(RiskError::corrupt(format!(
            "expected YET frame, got {kind:?}"
        )));
    }
    let mut p = payload;
    let off = get_column(&mut p, "yet.offsets")?;
    let ids = get_column(&mut p, "yet.event_ids")?;
    let days = get_column(&mut p, "yet.days")?;
    let z = get_column(&mut p, "yet.z")?;
    YearEventTable::from_columns(off, ids, days, z)
}

/// Encode a YELT as one frame.
pub fn encode_yelt(yelt: &Yelt) -> Bytes {
    let (off, ids, days, losses) = yelt.columns();
    let mut p = Vec::with_capacity(
        column_len::<u64>(off.len())
            + column_len::<u32>(ids.len())
            + column_len::<u16>(days.len())
            + column_len::<f64>(losses.len()),
    );
    put_column(&mut p, off);
    put_column(&mut p, ids);
    put_column(&mut p, days);
    put_column(&mut p, losses);
    frame(TableKind::Yelt, &p)
}

/// Decode a YELT frame.
pub fn decode_yelt(data: &[u8]) -> RiskResult<Yelt> {
    let (kind, payload, _) = unframe(data)?;
    if kind != TableKind::Yelt {
        return Err(RiskError::corrupt(format!(
            "expected YELT frame, got {kind:?}"
        )));
    }
    let mut p = payload;
    let off = get_column(&mut p, "yelt.offsets")?;
    let ids = get_column(&mut p, "yelt.event_ids")?;
    let days = get_column(&mut p, "yelt.days")?;
    let losses = get_column(&mut p, "yelt.losses")?;
    // Validate CSR before constructing.
    if off.first().copied() != Some(0)
        || off.windows(2).any(|w| w[0] > w[1])
        || off.last().copied().unwrap_or(1) as usize != ids.len()
        || ids.len() != days.len()
        || ids.len() != losses.len()
    {
        return Err(RiskError::corrupt("YELT CSR invariants violated"));
    }
    Ok(Yelt::from_raw(off, ids, days, losses))
}

/// Encode a YLT as one frame.
pub fn encode_ylt(ylt: &Ylt) -> Bytes {
    let (agg, maxo, cnt) = ylt.columns();
    let mut p = Vec::with_capacity(encoded_ylt_len(agg.len()) - HEADER_BYTES);
    put_column(&mut p, agg);
    put_column(&mut p, maxo);
    put_column(&mut p, cnt);
    frame(TableKind::Ylt, &p)
}

/// The exact size [`encode_ylt`] produces for a YLT of `trials` rows,
/// without materialising the encoding. The format is uncompressed —
/// frame header, three length-prefixed columns (two `f64`, one `u32`)
/// — so the size is a pure function of the trial count; reports that
/// only need the byte count (sizing tables, memory-vs-file
/// comparisons) use this instead of a throwaway encode.
pub const fn encoded_ylt_len(trials: usize) -> usize {
    HEADER_BYTES + 3 * 8 + trials * (8 + 8 + 4)
}

/// Decode a YLT frame.
pub fn decode_ylt(data: &[u8]) -> RiskResult<Ylt> {
    let (kind, payload, _) = unframe(data)?;
    if kind != TableKind::Ylt {
        return Err(RiskError::corrupt(format!(
            "expected YLT frame, got {kind:?}"
        )));
    }
    let mut p = payload;
    let agg = get_column(&mut p, "ylt.agg")?;
    let maxo = get_column(&mut p, "ylt.max_occ")?;
    let cnt = get_column(&mut p, "ylt.count")?;
    Ylt::from_columns(agg, maxo, cnt)
}

/// Encode a per-run manifest frame: the run number and the number of
/// consecutive slots (from 0) the run persisted. Written *last* by a
/// completed persisted sweep, so its presence certifies the run's
/// per-slot artifacts are all expected to exist — a rebuild that finds
/// the manifest but not a slot has found corruption, not a shorter
/// sweep.
pub fn encode_run_manifest(run: u64, slots: u64) -> Bytes {
    let mut p = Vec::with_capacity(16);
    p.put_u64_le(run);
    p.put_u64_le(slots);
    frame(TableKind::RunManifest, &p)
}

/// Decode a per-run manifest frame into `(run, slots)`.
pub fn decode_run_manifest(data: &[u8]) -> RiskResult<(u64, u64)> {
    let (kind, payload, _) = unframe(data)?;
    if kind != TableKind::RunManifest {
        return Err(RiskError::corrupt(format!(
            "expected run-manifest frame, got {kind:?}"
        )));
    }
    let mut p = payload;
    check_remaining(p, 16, "run_manifest")?;
    let run = p.get_u64_le();
    let slots = p.get_u64_le();
    if p.has_remaining() {
        return Err(RiskError::corrupt(format!(
            "run-manifest frame has {} trailing bytes",
            p.remaining()
        )));
    }
    Ok((run, slots))
}

/// One book's inverted secondary-uncertainty quantile grid as a
/// stage-1 disk-tier entry carries it: `rows × g` cells, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileGrid {
    /// ELT rows the grid was tabulated for.
    pub rows: usize,
    /// Grid points per row.
    pub g: usize,
    /// The `rows × g` quantile cells, row `i` at `i * g`.
    pub cells: Vec<f64>,
}

/// Encode a row-major `g`-point quantile grid as one frame: `rows u64`,
/// `g u64`, then the cell column. `rows` is recorded beside the column
/// length so a decoder can tell a `g × rows` transposition — same byte
/// count — from the grid it expects.
pub fn encode_quantile_grid(g: usize, cells: &[f64]) -> Bytes {
    let rows = cells.len().checked_div(g).unwrap_or(0);
    let mut p = Vec::with_capacity(16 + column_len::<f64>(cells.len()));
    p.put_u64_le(rows as u64);
    p.put_u64_le(g as u64);
    put_column(&mut p, cells);
    frame(TableKind::QuantileGrid, &p)
}

/// Decode the quantile-grid frame at the front of `data`, returning it
/// and the bytes consumed. Checks the shape only — `rows × g` (by
/// `checked_mul`) must be the column's length and the payload must end
/// there; whether the cells are quantiles, and of which ELT, is the
/// adopter's call.
pub fn decode_quantile_grid(data: &[u8]) -> RiskResult<(QuantileGrid, usize)> {
    let (kind, payload, consumed) = unframe(data)?;
    if kind != TableKind::QuantileGrid {
        return Err(RiskError::corrupt(format!(
            "expected quantile-grid frame, got {kind:?}"
        )));
    }
    let mut p = payload;
    let rows = get_len(&mut p, "grid.rows")?;
    let g = get_len(&mut p, "grid.g")?;
    let cells: Vec<f64> = get_column(&mut p, "grid.cells")?;
    if rows.checked_mul(g) != Some(cells.len()) || !p.is_empty() {
        return Err(RiskError::corrupt(format!(
            "quantile grid of {rows} rows x {g} points carries {} cells and {} trailing bytes",
            cells.len(),
            p.len()
        )));
    }
    Ok((QuantileGrid { rows, g, cells }, consumed))
}

/// Encode one YELLT chunk as one frame.
pub fn encode_yellt_chunk(chunk: &YelltChunk) -> Bytes {
    let n = chunk.trials.len();
    let mut p = Vec::with_capacity(3 * column_len::<u32>(n) + column_len::<f64>(n));
    put_column(&mut p, &chunk.trials);
    put_column(&mut p, &chunk.events);
    put_column(&mut p, &chunk.locations);
    put_column(&mut p, &chunk.losses);
    frame(TableKind::YelltChunk, &p)
}

/// Decode one YELLT chunk frame.
pub fn decode_yellt_chunk(data: &[u8]) -> RiskResult<(YelltChunk, usize)> {
    let (kind, payload, consumed) = unframe(data)?;
    if kind != TableKind::YelltChunk {
        return Err(RiskError::corrupt(format!(
            "expected YELLT chunk frame, got {kind:?}"
        )));
    }
    let mut p = payload;
    let chunk = YelltChunk {
        trials: get_column(&mut p, "yellt.trials")?,
        events: get_column(&mut p, "yellt.events")?,
        locations: get_column(&mut p, "yellt.locations")?,
        losses: get_column(&mut p, "yellt.losses")?,
    };
    chunk.validate()?;
    Ok((chunk, consumed))
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
        // `encode_ylt` of a 3-trial YLT, bytes as the byte-at-a-time
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
        assert_eq!(decode_ylt(&bytes).unwrap(), ylt);
        assert_eq!(&*encode_ylt(&ylt), &bytes[..], "and today's encoder agrees");
    }

    #[test]
    fn quantile_grid_round_trip_and_shape_checks() {
        let cells: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        let bytes = encode_quantile_grid(4, &cells);
        let (grid, used) = decode_quantile_grid(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!((grid.rows, grid.g), (3, 4));
        assert_eq!(grid.cells, cells);
        assert!(decode_quantile_grid(&encode_ylt(&Ylt::zeroed(2))).is_err());
        // Valid CRC, wrong shape: a transposed header, an overflowing
        // product, a short column, trailing payload bytes.
        let (_, payload, _) = unframe(&bytes).unwrap();
        let reframed = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut p = payload.to_vec();
            edit(&mut p);
            decode_quantile_grid(&frame(TableKind::QuantileGrid, &p))
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
        let bytes = encode_elt(&elt);
        let back = decode_elt(&bytes).unwrap();
        assert_eq!(back.len(), elt.len());
        for (a, b) in back.iter().zip(elt.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn yet_round_trip() {
        let yet = sample_yet();
        let bytes = encode_yet(&yet);
        let back = decode_yet(&bytes).unwrap();
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
        let bytes = encode_yelt(&yelt);
        let back = decode_yelt(&bytes).unwrap();
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
        let back = decode_ylt(&encode_ylt(&ylt)).unwrap();
        assert_eq!(back, ylt);
    }

    #[test]
    fn encoded_ylt_len_matches_actual_encoding() {
        for trials in [0usize, 1, 10, 500] {
            let ylt = Ylt::zeroed(trials);
            assert_eq!(
                encode_ylt(&ylt).len(),
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
        let bytes = encode_yellt_chunk(&c);
        let (back, consumed) = decode_yellt_chunk(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn run_manifest_round_trip() {
        let bytes = encode_run_manifest(7, 42);
        assert_eq!(decode_run_manifest(&bytes).unwrap(), (7, 42));
        // Wrong kind and trailing garbage are both rejected.
        assert!(decode_run_manifest(&encode_elt(&sample_elt())).is_err());
        let mut long = BytesMut::new();
        long.put_u64_le(7);
        long.put_u64_le(42);
        long.put_u8(0);
        assert!(decode_run_manifest(&frame(TableKind::RunManifest, &long)).is_err());
    }

    #[test]
    fn huge_len_header_is_corrupt_not_panic() {
        let mut bytes = encode_elt(&sample_elt()).to_vec();
        // Overwrite the len field (bytes 8..16) with u64::MAX.
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_elt(&bytes).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "got: {err}");
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let elt = sample_elt();
        let mut bytes = encode_elt(&elt).to_vec();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a payload bit
        let err = decode_elt(&bytes).unwrap_err();
        assert!(err.to_string().contains("crc"), "got: {err}");
    }

    #[test]
    fn corrupted_magic_fails() {
        let mut bytes = encode_elt(&sample_elt()).to_vec();
        bytes[0] = 0;
        assert!(decode_elt(&bytes).is_err());
    }

    #[test]
    fn truncated_frame_fails() {
        let bytes = encode_elt(&sample_elt());
        assert!(decode_elt(&bytes[..HEADER_BYTES - 1]).is_err());
        assert!(decode_elt(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = encode_elt(&sample_elt());
        assert!(decode_yet(&bytes).is_err());
        assert!(decode_ylt(&bytes).is_err());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut c1 = YelltChunk::with_capacity(2);
        c1.push(0, 1, LocationId::new(0), 1.0);
        let mut c2 = YelltChunk::with_capacity(2);
        c2.push(1, 2, LocationId::new(1), 2.0);
        let mut stream = encode_yellt_chunk(&c1).to_vec();
        stream.extend_from_slice(&encode_yellt_chunk(&c2));
        let (back1, used1) = decode_yellt_chunk(&stream).unwrap();
        let (back2, used2) = decode_yellt_chunk(&stream[used1..]).unwrap();
        assert_eq!(back1, c1);
        assert_eq!(back2, c2);
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn unframe_rejects_future_version() {
        let mut bytes = encode_elt(&sample_elt()).to_vec();
        bytes[4] = 99; // version low byte
        assert!(decode_elt(&bytes).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::elt::{EltBuilder, EltRecord};
    use crate::yet::YetBuilder;
    use crate::ylt::Ylt;
    use proptest::prelude::*;
    use riskpipe_types::{EventId, LocationId, TrialId};

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
            let back = decode_elt(&encode_elt(&elt)).unwrap();
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
                let occs: Vec<crate::yet::Occurrence> = t.iter().map(|&(e, d, z)| crate::yet::Occurrence {
                    event_id: EventId::new(e), day: d, z,
                }).collect();
                yb.push_trial(&occs);
            }
            let yet = yb.build();
            let back = decode_yet(&encode_yet(&yet)).unwrap();
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
            let back = decode_ylt(&encode_ylt(&ylt)).unwrap();
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
            let bytes = encode_yellt_chunk(&c);
            let (back, used) = decode_yellt_chunk(&bytes).unwrap();
            prop_assert_eq!(&back, &c);
            prop_assert_eq!(used, bytes.len());
            // Any strict prefix must fail.
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            prop_assert!(decode_yellt_chunk(&bytes[..cut]).is_err());
        }

        /// Flipping any single byte of an encoded frame is detected (CRC
        /// or structural validation), never silently accepted as a
        /// different table.
        #[test]
        fn single_byte_corruption_detected(pos_seed in 0usize..10_000) {
            let mut b = EltBuilder::new();
            for i in 1..=20u32 {
                b.push(EltRecord {
                    event_id: EventId::new(i),
                    mean_loss: i as f64,
                    sigma_i: 0.1,
                    sigma_c: 0.1,
                    exposure: i as f64 * 2.0,
                }).unwrap();
            }
            let bytes = encode_elt(&b.build().unwrap()).to_vec();
            let pos = pos_seed % bytes.len();
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            match decode_elt(&bad) {
                Err(_) => {} // detected
                Ok(decoded) => {
                    // The only acceptable "success" is a flip in the
                    // reserved pad byte (byte 7), which the format
                    // ignores by design.
                    prop_assert_eq!(pos, 7, "corruption at byte {} accepted", pos);
                    prop_assert_eq!(decoded.len(), 20);
                }
            }
        }
    }
}
