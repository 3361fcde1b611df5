//! Persisting materialised views through the pipeline's checked
//! binary format.
//!
//! A production warehouse pre-computes overnight and serves queries
//! all week, which means views must survive the process: cuboids are
//! framed with the same magic/version/CRC envelope as every other
//! riskpipe table ([`riskpipe_tables::codec`]), so a flipped byte in a
//! view file is detected at load, never silently aggregated. A cuboid
//! decodes only against a warehouse [`Schema`], so it is not a codec
//! `Framed` table: it drives the codec's [`FrameWriter`] /
//! [`FrameReader`] directly, and its frame, like every other, is
//! consumed exactly.
//!
//! ```text
//! select    NDIMS × u8        the cuboid's level per dimension
//! cells     u64               cell count
//! keys      varint, sorted    delta-packed cell keys
//! counts    varint            per-cell fact counts
//! sums      cells × f64
//! maxs      cells × f64
//! ```

use crate::cube::{Cell, Cuboid, KeyCodec, LevelSelect};
use crate::dimension::{Schema, NDIMS};
use riskpipe_tables::codec::{FrameReader, FrameWriter, TableKind};
use riskpipe_tables::compress::{
    compress_u64s, compress_u64s_sorted, decompress_u64s, decompress_u64s_sorted,
};
use riskpipe_tables::durable;
use riskpipe_types::{RiskError, RiskResult};
use std::path::Path;

/// Encode one cuboid as a checked frame.
///
/// Keys are sorted, so they delta-varint-compress to ~1–2 bytes per
/// cell instead of 8; counts are small integers and varint-compress
/// likewise. Measures stay raw `f64` (effectively incompressible and
/// bit-exactness matters).
pub fn encode_cuboid(cuboid: &Cuboid) -> RiskResult<Vec<u8>> {
    let (keys, cells) = (cuboid.keys(), cuboid.measures());
    // Cuboid keys are sorted by construction; a violation surfaces as
    // a typed error rather than a worker-path panic.
    let packed_keys = compress_u64s_sorted(keys)?;
    let counts: Vec<u64> = cells.iter().map(|c| c.count).collect();
    let mut out = Vec::new();
    let mut w = FrameWriter::new(&mut out, TableKind::Cuboid);
    for d in 0..NDIMS {
        w.put(cuboid.select().0[d]);
    }
    w.put(keys.len() as u64);
    w.put_bytes(&packed_keys);
    w.put_bytes(&compress_u64s(&counts));
    for c in cells {
        w.put(c.sum);
    }
    for c in cells {
        w.put(c.max);
    }
    w.finish();
    Ok(out)
}

/// Decode one cuboid frame, validating the selection against `schema`
/// and every key against the codec's packing range. Returns the
/// cuboid and the bytes consumed.
pub fn decode_cuboid(data: &[u8], schema: &Schema) -> RiskResult<(Cuboid, usize)> {
    let (mut r, consumed) = FrameReader::open(data, TableKind::Cuboid)?;
    let mut sel = [0u8; NDIMS];
    for s in sel.iter_mut() {
        *s = r.get("cuboid.select")?;
    }
    let select = LevelSelect(sel);
    if !select.is_valid(schema) {
        return Err(RiskError::corrupt(format!(
            "cuboid selection {sel:?} invalid for this schema"
        )));
    }
    let codec = KeyCodec::new(schema, select)?;
    // Each cell carries at least its two raw measures.
    let cells = r.get_count("cuboid.cells", 16)?;
    let (keys, used) = decompress_u64s_sorted(r.remaining())?;
    r.take(used, "cuboid.keys")?;
    let (counts, used) = decompress_u64s(r.remaining())?;
    r.take(used, "cuboid.counts")?;
    if keys.len() != cells || counts.len() != cells {
        return Err(RiskError::corrupt(format!(
            "cuboid columns disagree: header {cells}, keys {}, counts {}",
            keys.len(),
            counts.len()
        )));
    }
    let sums: Vec<f64> = r.get_elems(cells, "cuboid.sums")?;
    let maxs: Vec<f64> = r.get_elems(cells, "cuboid.maxs")?;
    r.finish()?;

    // Integrity beyond the CRC: keys strictly ascending (sorted, no
    // duplicates), codes within the schema's cardinalities, finite
    // measures.
    if keys.windows(2).any(|w| w[0] >= w[1]) {
        return Err(RiskError::corrupt("cuboid keys not strictly ascending"));
    }
    for &k in &keys {
        let codes = codec.decode(k);
        if codec.encode(codes) != k {
            return Err(RiskError::corrupt("cuboid key has bits outside the codec"));
        }
        for d in 0..NDIMS {
            if codes[d] >= schema.dim(d).cardinality(select.level(d)) {
                return Err(RiskError::corrupt(format!(
                    "cuboid cell code {} out of range for dimension {d}",
                    codes[d]
                )));
            }
        }
    }
    if sums.iter().chain(maxs.iter()).any(|v| !v.is_finite()) {
        return Err(RiskError::corrupt("cuboid measures must be finite"));
    }
    let entries: Vec<(u64, Cell)> = keys
        .into_iter()
        .zip(counts)
        .zip(sums)
        .zip(maxs)
        .map(|(((k, count), sum), max)| (k, Cell { count, sum, max }))
        .collect();
    Ok((Cuboid::from_entries(schema, select, entries)?, consumed))
}

/// Write a set of views to one file as consecutive frames. The write
/// is atomic (tmp file + fsync + rename): a crash mid-save leaves the
/// previous file intact, never a torn view set.
pub fn save_views(path: &Path, views: &[&Cuboid]) -> RiskResult<()> {
    let mut bytes = Vec::new();
    for v in views {
        bytes.extend_from_slice(&encode_cuboid(v)?);
    }
    durable::write_atomic(path, &bytes)
}

/// Load every view frame from a file written by [`save_views`].
pub fn load_views(path: &Path, schema: &Schema) -> RiskResult<Vec<Cuboid>> {
    let data = std::fs::read(path)?;
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        let (cuboid, consumed) = decode_cuboid(&data[off..], schema)?;
        out.push(cuboid);
        off += consumed;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::FactTable;

    fn setup() -> (Schema, Vec<Cuboid>) {
        let s = Schema::standard(30, 5, 25, 3, 8, 2).unwrap();
        let facts = FactTable::synthetic(&s, 9_000, 17);
        let base = Cuboid::build(&s, &facts, LevelSelect::BASE, None).unwrap();
        let mid = Cuboid::build(&s, &facts, LevelSelect([1, 1, 1, 1]), None).unwrap();
        let apex = Cuboid::build(&s, &facts, LevelSelect::apex(&s), None).unwrap();
        (s, vec![base, mid, apex])
    }

    #[test]
    fn cuboid_round_trips_exactly() {
        let (s, views) = setup();
        for v in &views {
            let bytes = encode_cuboid(v).unwrap();
            let (back, consumed) = decode_cuboid(&bytes, &s).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(back.select(), v.select());
            assert_eq!(back.keys(), v.keys());
            for (a, b) in v.measures().iter().zip(back.measures()) {
                assert_eq!(a.count, b.count);
                // Bitwise: persistence must not perturb sums.
                assert_eq!(a.sum.to_bits(), b.sum.to_bits());
                assert_eq!(a.max, b.max);
            }
        }
    }

    #[test]
    fn dense_views_compress_well() {
        let (_s, views) = setup();
        let base = &views[0];
        let raw_bytes = base.cells() * 32; // 4 × 8-byte columns
        let encoded = encode_cuboid(base).unwrap().len();
        // Keys+counts shrink to a few bytes per cell; measures stay
        // raw. Expect well under 70% of the raw cell bytes.
        assert!(
            (encoded as f64) < 0.7 * raw_bytes as f64,
            "{encoded} vs raw {raw_bytes}"
        );
    }

    #[test]
    fn file_round_trip_preserves_order() {
        let (s, views) = setup();
        let path = std::env::temp_dir().join(format!("riskpipe-views-{}.bin", std::process::id()));
        let refs: Vec<&Cuboid> = views.iter().collect();
        save_views(&path, &refs).unwrap();
        let back = load_views(&path, &s).unwrap();
        assert_eq!(back.len(), views.len());
        for (a, b) in back.iter().zip(views.iter()) {
            assert_eq!(a.select(), b.select());
            assert_eq!(a.cells(), b.cells());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let (s, views) = setup();
        let bytes = encode_cuboid(&views[2]).unwrap(); // apex: small frame
                                                       // Flip each byte in turn; every corruption must surface as an
                                                       // error (CRC for payload bytes, header checks otherwise) —
                                                       // never a silently different cuboid.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_cuboid(&bad, &s) {
                Err(_) => {}
                Ok((back, _)) => {
                    // The flipped bit landed in the header padding or
                    // produced an identical logical value — accept only
                    // if the decoded cuboid is exactly the original.
                    assert_eq!(
                        back.keys(),
                        views[2].keys(),
                        "byte {i} silently changed data"
                    );
                    for (a, b) in views[2].measures().iter().zip(back.measures()) {
                        assert_eq!((a.count, a.sum), (b.count, b.sum), "byte {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let (s, views) = setup();
        let bytes = encode_cuboid(&views[1]).unwrap();
        for cut in [1usize, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_cuboid(&bytes[..cut], &s).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let (s, views) = setup();
        let bytes = encode_cuboid(&views[0]).unwrap(); // base cuboid, location codes up to 29
                                                       // A schema with fewer locations cannot hold these codes.
        let smaller = Schema::standard(10, 5, 25, 3, 8, 2).unwrap();
        let r = decode_cuboid(&bytes, &smaller);
        assert!(r.is_err(), "foreign schema accepted");
        let _ = s;
    }

    #[test]
    fn wrong_frame_kind_is_rejected() {
        let (s, _views) = setup();
        let ylt = riskpipe_tables::Ylt::zeroed(4);
        let bytes = riskpipe_tables::codec::encode(&ylt);
        assert!(decode_cuboid(&bytes, &s).is_err());
    }
}
