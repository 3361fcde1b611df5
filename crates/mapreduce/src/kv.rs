//! Key/value byte encodings for shuffle records.
//!
//! Keys use big-endian integer encodings so that the reduce phase's
//! lexicographic sort is also numeric sort; values use little-endian
//! fixed layouts. A spill file is a flat sequence of
//! `(key_len u32, val_len u32, key, val)` records.

use bytes::{Buf, BufMut};
use riskpipe_types::{RiskError, RiskResult};

/// One shuffle record: `(key bytes, value bytes)`.
pub type KvPair = (Vec<u8>, Vec<u8>);

/// Encode a `u32` key (big-endian: lexicographic = numeric order).
pub fn key_u32(k: u32) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

/// Decode a `u32` key.
pub fn parse_key_u32(key: &[u8]) -> RiskResult<u32> {
    let arr: [u8; 4] = key
        .try_into()
        .map_err(|_| RiskError::corrupt("key is not 4 bytes"))?;
    Ok(u32::from_be_bytes(arr))
}

/// Encode an `f64` value.
pub fn val_f64(v: f64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// Decode an `f64` value.
pub fn parse_val_f64(val: &[u8]) -> RiskResult<f64> {
    let arr: [u8; 8] = val
        .try_into()
        .map_err(|_| RiskError::corrupt("value is not 8 bytes"))?;
    Ok(f64::from_le_bytes(arr))
}

/// Encode a `(u32, f64)` value (e.g. trial id + loss).
pub fn val_u32_f64(a: u32, b: f64) -> Vec<u8> {
    let mut v = Vec::with_capacity(12);
    v.extend_from_slice(&a.to_le_bytes());
    v.extend_from_slice(&b.to_le_bytes());
    v
}

/// Decode a `(u32, f64)` value.
pub fn parse_val_u32_f64(val: &[u8]) -> RiskResult<(u32, f64)> {
    if val.len() != 12 {
        return Err(RiskError::corrupt("value is not 12 bytes"));
    }
    let a = u32::from_le_bytes(bytes_at(val, 0)?);
    let b = f64::from_le_bytes(bytes_at(val, 4)?);
    Ok((a, b))
}

/// The `N` bytes at offset `at` of a fixed-layout record — every
/// multi-field key or value is taken apart through this, so a record
/// that came back from a spill file shorter than its layout is a typed
/// corruption error on the reduce task, never a slice panic.
pub fn bytes_at<const N: usize>(record: &[u8], at: usize) -> RiskResult<[u8; N]> {
    record
        .get(at..at + N)
        .and_then(|bytes| bytes.try_into().ok())
        .ok_or_else(|| RiskError::corrupt("shuffle record shorter than its layout"))
}

/// Append one record to a spill buffer.
pub fn write_record(buf: &mut Vec<u8>, key: &[u8], val: &[u8]) {
    buf.put_u32_le(key.len() as u32);
    buf.put_u32_le(val.len() as u32);
    buf.extend_from_slice(key);
    buf.extend_from_slice(val);
}

/// Read every record from a spill buffer.
pub fn read_records(mut data: &[u8]) -> RiskResult<Vec<KvPair>> {
    let mut out = Vec::new();
    while data.has_remaining() {
        if data.remaining() < 8 {
            return Err(RiskError::corrupt("truncated spill record header"));
        }
        let klen = data.get_u32_le() as usize;
        let vlen = data.get_u32_le() as usize;
        if data.remaining() < klen + vlen {
            return Err(RiskError::corrupt("truncated spill record body"));
        }
        let key = data[..klen].to_vec();
        data.advance(klen);
        let val = data[..vlen].to_vec();
        data.advance(vlen);
        out.push((key, val));
    }
    Ok(out)
}

/// FNV-1a hash of a key, for shuffle partitioning (stable across runs
/// and platforms, unlike `std`'s randomised hasher).
pub fn partition_hash(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encoding_preserves_order() {
        let keys = [0u32, 1, 255, 256, 65_536, u32::MAX];
        let encoded: Vec<Vec<u8>> = keys.iter().map(|&k| key_u32(k)).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(sorted, encoded, "lexicographic != numeric");
        for (&k, e) in keys.iter().zip(&encoded) {
            assert_eq!(parse_key_u32(e).unwrap(), k);
        }
    }

    #[test]
    fn value_round_trips() {
        assert_eq!(parse_val_f64(&val_f64(3.25)).unwrap(), 3.25);
        assert_eq!(parse_val_u32_f64(&val_u32_f64(7, -1.5)).unwrap(), (7, -1.5));
    }

    #[test]
    fn parse_rejects_wrong_sizes() {
        assert!(parse_key_u32(&[1, 2]).is_err());
        assert!(parse_val_f64(&[0; 7]).is_err());
        assert!(parse_val_u32_f64(&[0; 11]).is_err());
        assert_eq!(bytes_at::<2>(&[1, 2, 3], 1).unwrap(), [2, 3]);
        assert!(bytes_at::<4>(&[1, 2, 3], 0).is_err());
        assert!(bytes_at::<2>(&[1, 2, 3], 2).is_err());
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"alpha", b"1");
        write_record(&mut buf, b"", b"empty-key");
        write_record(&mut buf, b"k", b"");
        let records = read_records(&buf).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], (b"alpha".to_vec(), b"1".to_vec()));
        assert_eq!(records[1].0, b"");
        assert_eq!(records[2].1, b"");
    }

    #[test]
    fn truncated_records_rejected() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"key", b"value");
        assert!(read_records(&buf[..buf.len() - 1]).is_err());
        assert!(read_records(&buf[..5]).is_err());
    }

    #[test]
    fn partition_hash_is_stable_and_spreads() {
        assert_eq!(partition_hash(b"abc"), partition_hash(b"abc"));
        assert_ne!(partition_hash(b"abc"), partition_hash(b"abd"));
        // Spread check over many keys and 8 partitions.
        let mut counts = [0usize; 8];
        for k in 0u32..8_000 {
            counts[(partition_hash(&key_u32(k)) % 8) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "partition starved: {counts:?}");
        }
    }
}
