//! Lightweight column compression for shard files: LEB128 varints plus
//! delta encoding for sorted id columns.
//!
//! The paper's stage-2/3 bottleneck is moving tens-of-terabytes tables;
//! YELLT/YELT columns are extremely compressible — trial ids arrive
//! sorted (delta ≈ 0), event ids are small integers — so a byte-level
//! scheme with cheap decode pays for itself in file-space terms without
//! bringing in a general-purpose compressor dependency.

// S2: a truncated length, offset or id corrupts an artifact before any CRC.
#![deny(clippy::cast_possible_truncation)]

use riskpipe_types::{RiskError, RiskResult};

/// Append one u64 as LEB128.
#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read one LEB128 u64; returns `(value, bytes_consumed)`.
#[inline]
fn get_varint(data: &[u8]) -> RiskResult<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in data.iter().enumerate() {
        if shift >= 64 {
            return Err(RiskError::corrupt("varint overflow"));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(RiskError::corrupt("truncated varint"))
}

/// A decoded element count, checked against the `remaining` payload
/// bytes. Every element takes at least one byte, so a valid count can
/// never exceed them — reject (rather than pre-allocate for) a corrupt
/// length field.
fn column_len(n: u64, remaining: usize) -> RiskResult<usize> {
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= remaining)
        .ok_or_else(|| RiskError::corrupt("implausible compressed column length"))
}

/// Compress a u32 column with delta + varint coding. Works best when
/// the column is sorted or nearly so (trial ids within a shard chunk);
/// still correct — just larger — otherwise (deltas are zigzag-coded).
fn compress_u32s(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    put_varint(&mut out, values.len() as u64);
    let mut prev = 0i64;
    for &v in values {
        let delta = v as i64 - prev;
        // Zigzag: map signed deltas to unsigned.
        let zz = ((delta << 1) ^ (delta >> 63)) as u64;
        put_varint(&mut out, zz);
        prev = v as i64;
    }
    out
}

/// Compress a strictly-or-weakly ascending u64 column with plain
/// delta-then-varint coding (no zigzag: monotone input means
/// non-negative deltas). Sorted cuboid keys and CSR offsets are the
/// target — dense keys become 1-byte deltas.
///
/// Fails fast at encode time if the input is not ascending.
pub fn compress_u64s_sorted(values: &[u64]) -> RiskResult<Vec<u8>> {
    let mut out = Vec::with_capacity(values.len() + 8);
    put_varint(&mut out, values.len() as u64);
    let mut prev = 0u64;
    for (i, &v) in values.iter().enumerate() {
        if i > 0 && v < prev {
            return Err(RiskError::invalid(
                "compress_u64s_sorted requires an ascending column",
            ));
        }
        put_varint(&mut out, v - if i == 0 { 0 } else { prev });
        prev = v;
    }
    Ok(out)
}

/// Decompress a [`compress_u64s_sorted`] buffer; returns `(values,
/// bytes_consumed)`.
pub fn decompress_u64s_sorted(data: &[u8]) -> RiskResult<(Vec<u64>, usize)> {
    let (n, mut off) = get_varint(data)?;
    let n = column_len(n, data.len() - off)?;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u64;
    for i in 0..n {
        let (delta, used) = get_varint(&data[off..])?;
        off += used;
        let v = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .ok_or_else(|| RiskError::corrupt("delta overflow in sorted u64 column"))?
        };
        out.push(v);
        prev = v;
    }
    Ok((out, off))
}

/// Compress an arbitrary u64 column with plain varints (no delta):
/// right for small-magnitude columns such as cell counts.
pub fn compress_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() + 8);
    put_varint(&mut out, values.len() as u64);
    for &v in values {
        put_varint(&mut out, v);
    }
    out
}

/// Decompress a [`compress_u64s`] buffer; returns `(values,
/// bytes_consumed)`.
pub fn decompress_u64s(data: &[u8]) -> RiskResult<(Vec<u64>, usize)> {
    let (n, mut off) = get_varint(data)?;
    let n = column_len(n, data.len() - off)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (v, used) = get_varint(&data[off..])?;
        off += used;
        out.push(v);
    }
    Ok((out, off))
}

/// Compression ratio achieved on a column (raw bytes / compressed
/// bytes); diagnostic for reports.
pub fn ratio_u32(values: &[u32]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let compressed = compress_u32s(values).len();
    (values.len() * 4) as f64 / compressed as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decode a [`compress_u32s`] buffer into `(values, bytes_consumed)`:
    /// the oracle that the coding [`ratio_u32`] measures is lossless.
    fn decompress_u32s(data: &[u8]) -> (Vec<u32>, usize) {
        let (n, mut off) = get_varint(data).unwrap();
        let mut out = Vec::new();
        let mut prev = 0i64;
        for _ in 0..n {
            let (zz, used) = get_varint(&data[off..]).unwrap();
            off += used;
            prev += ((zz >> 1) as i64) ^ -((zz & 1) as i64);
            out.push(u32::try_from(prev).unwrap());
        }
        (out, off)
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (back, used) = get_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn truncated_varint_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert!(get_varint(&buf[..buf.len() - 1]).is_err());
        assert!(get_varint(&[]).is_err());
    }

    #[test]
    fn sorted_column_compresses_hard() {
        // Trial ids within a shard chunk: sorted with small gaps.
        let values: Vec<u32> = (0..10_000u32).map(|i| i * 3).collect();
        let ratio = ratio_u32(&values);
        assert!(ratio > 3.0, "ratio {ratio}");
        let compressed = compress_u32s(&values);
        let (back, used) = decompress_u32s(&compressed);
        assert_eq!(back, values);
        assert_eq!(used, compressed.len());
    }

    #[test]
    fn constant_column_is_tiny() {
        let values = vec![42u32; 50_000];
        let compressed = compress_u32s(&values);
        // First value +49,999 zero deltas + length ≈ ~50 KB→50 KB? No:
        // zero deltas are 1 byte each → ~50 KB vs 200 KB raw.
        assert!((compressed.len() as f64) < 0.3 * (values.len() * 4) as f64);
        let (back, _) = decompress_u32s(&compressed);
        assert_eq!(back, values);
    }

    #[test]
    fn empty_column() {
        let compressed = compress_u32s(&[]);
        let (back, used) = decompress_u32s(&compressed);
        assert!(back.is_empty());
        assert_eq!(used, compressed.len());
        assert_eq!(ratio_u32(&[]), 1.0);
    }

    #[test]
    fn sorted_u64_round_trip_and_density() {
        let values: Vec<u64> = (0..20_000u64).map(|i| i * 7 + 3).collect();
        let compressed = compress_u64s_sorted(&values).unwrap();
        // Dense deltas: ~1 byte each vs 8 raw.
        assert!(
            compressed.len() < values.len() * 2,
            "{} bytes",
            compressed.len()
        );
        let (back, used) = decompress_u64s_sorted(&compressed).unwrap();
        assert_eq!(back, values);
        assert_eq!(used, compressed.len());
        // Unsorted input rejected at encode time.
        assert!(compress_u64s_sorted(&[5, 3]).is_err());
        // Empty is fine.
        let c = compress_u64s_sorted(&[]).unwrap();
        assert_eq!(decompress_u64s_sorted(&c).unwrap().0, Vec::<u64>::new());
    }

    #[test]
    fn plain_u64_round_trip() {
        let values = vec![0u64, 1, 300, u64::MAX, 42];
        let compressed = compress_u64s(&values);
        let (back, used) = decompress_u64s(&compressed).unwrap();
        assert_eq!(back, values);
        assert_eq!(used, compressed.len());
    }

    proptest! {
        #[test]
        fn sorted_u64_columns_round_trip(mut values in prop::collection::vec(0u64..u64::MAX / 2, 0..1_000)) {
            values.sort_unstable();
            let compressed = compress_u64s_sorted(&values).unwrap();
            let (back, used) = decompress_u64s_sorted(&compressed).unwrap();
            prop_assert_eq!(back, values);
            prop_assert_eq!(used, compressed.len());
        }

        #[test]
        fn corrupt_u64_streams_never_panic(data in prop::collection::vec(any::<u8>(), 0..400)) {
            let _ = decompress_u64s_sorted(&data);
            let _ = decompress_u64s(&data);
        }

        #[test]
        fn arbitrary_columns_round_trip(values in prop::collection::vec(any::<u32>(), 0..2_000)) {
            let compressed = compress_u32s(&values);
            let (back, used) = decompress_u32s(&compressed);
            prop_assert_eq!(back, values);
            prop_assert_eq!(used, compressed.len());
        }
    }
}
