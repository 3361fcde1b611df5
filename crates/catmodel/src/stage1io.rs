//! Frame codec for a complete [`Stage1Output`], catalogue and exposures
//! included.
//!
//! This is not the stage-1 disk tier's format: a tier entry
//! (`riskpipe-core::stage1disk`) holds only what a session keeps of a
//! model run — the ELTs and the YET — behind a header frame of its own.
//! The whole-output encoding is kept for the benchmark harness's
//! stage-1 encode and decode rows (`riskbench`), until those rows move
//! onto the tier's entry (ROADMAP item 30).
//!
//! The encoding is a run of [`riskpipe_tables::codec`] frames written
//! into one buffer: a leading [`TableKind::Stage1`] frame carries the
//! cache key plus the generated catalogue and per-book exposure records
//! (the parts no table schema covers), followed by one ELT frame per
//! book and the YET frame. The header payload needs no schema of its
//! own: it goes straight through the codec's [`FrameWriter`] and
//! [`FrameReader`], whose counts are checked against the bytes left
//! before anything is allocated. Every frame is CRC-checked
//! independently and consumed exactly, so a truncated or corrupted
//! cache file surfaces as [`RiskError::corrupt`](riskpipe_types::RiskError)
//! — a disk tier can then treat it as a miss and rebuild.
//!
//! ```text
//! stage-1 frame        key, catalogue, per-book exposure (below)
//! ELT frame × n_books  riskpipe_tables::codec schema
//! YET frame            riskpipe_tables::codec schema
//! ```
//!
//! That is the whole of [`encode_stage1`] / [`decode_stage1`].
//!
//! Stage-1 header payload, little-endian:
//!
//! ```text
//! key         u64   ScenarioConfig::stage1_key this output was built for
//! n_events    u64   catalogue size
//! total_rate  f64   catalogue total annual rate (verbatim, bit-exact)
//! events      n_events × { id u32, peril u8, rate f64, magnitude f64,
//!                          cx f64, cy f64 }
//! n_books     u64   number of per-contract books
//! books       n_books × { total_tiv f64, n_locs u64,
//!                         locs n_locs × { id u32, px f64, py f64,
//!                                         tiv f64, construction u8,
//!                                         deductible f64, limit f64 } }
//! ```

// S2: a truncated length, offset or id corrupts an artifact before any CRC.
#![deny(clippy::cast_possible_truncation)]

use crate::catalog::{CatalogEvent, EventCatalog};
use crate::eltgen::{Book, Stage1Output};
use crate::exposure::{ExposureLocation, ExposurePortfolio};
use crate::geo::GeoPoint;
use crate::peril::Peril;
use crate::vulnerability::ConstructionClass;
use riskpipe_tables::codec::{self, FrameReader, FrameWriter, TableKind};
use riskpipe_tables::{Elt, YearEventTable};
use riskpipe_types::{EventId, LocationId, RiskError, RiskResult};
use std::sync::Arc;

/// Encoded bytes of one catalogue event in the header payload.
const EVENT_BYTES: usize = 4 + 1 + 4 * 8;
/// Encoded bytes of one exposure location in the header payload.
const LOCATION_BYTES: usize = 4 + 3 * 8 + 1 + 2 * 8;
/// Encoded bytes of a book's header before its locations.
const BOOK_BYTES: usize = 8 + 8;

/// Encode a complete stage-1 output (keyed by its
/// `ScenarioConfig::stage1_key`) as a self-contained multi-frame byte
/// stream.
pub fn encode_stage1(key: u64, out: &Stage1Output) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = FrameWriter::new(&mut bytes, TableKind::Stage1);
    w.put(key);
    w.put(out.catalog.len() as u64);
    w.put(out.catalog.total_rate());
    for e in out.catalog.events() {
        w.put(e.id.raw());
        w.put(e.peril.code());
        w.put(e.rate);
        w.put(e.magnitude);
        w.put(e.center.x);
        w.put(e.center.y);
    }
    w.put(out.books.len() as u64);
    for book in &out.books {
        w.put(book.exposure.total_tiv());
        w.put(book.exposure.len() as u64);
        for l in book.exposure.locations() {
            w.put(l.id.raw());
            w.put(l.position.x);
            w.put(l.position.y);
            w.put(l.tiv);
            w.put(l.construction.code());
            w.put(l.deductible);
            w.put(l.limit);
        }
    }
    w.finish();
    for book in &out.books {
        codec::encode_into(&mut bytes, &*book.elt);
    }
    codec::encode_into(&mut bytes, &*out.yet);
    bytes
}

fn decode_header(
    r: &mut FrameReader<'_>,
) -> RiskResult<(u64, EventCatalog, Vec<ExposurePortfolio>)> {
    let key = r.get("key")?;
    let n_events = r.get_count("n_events", EVENT_BYTES)?;
    let total_rate = r.get("total_rate")?;
    let mut events = Vec::with_capacity(n_events);
    for i in 0..n_events {
        let id = EventId::new(r.get("event.id")?);
        let peril_code = r.get("event.peril")?;
        let peril = Peril::from_code(peril_code).ok_or_else(|| {
            RiskError::corrupt(format!("unknown peril code {peril_code} at event {i}"))
        })?;
        let rate = r.get("event.rate")?;
        let magnitude = r.get("event.magnitude")?;
        let center = GeoPoint {
            x: r.get("event.cx")?,
            y: r.get("event.cy")?,
        };
        events.push(CatalogEvent {
            id,
            peril,
            rate,
            magnitude,
            center,
        });
    }
    let catalog = EventCatalog::from_parts(events, total_rate)
        .map_err(|e| RiskError::corrupt(format!("stage1 catalogue rejected: {e}")))?;
    let n_books = r.get_count("n_books", BOOK_BYTES)?;
    let mut exposures = Vec::with_capacity(n_books);
    for _ in 0..n_books {
        let total_tiv = r.get("book.total_tiv")?;
        let n_locs = r.get_count("book.n_locs", LOCATION_BYTES)?;
        let mut locations = Vec::with_capacity(n_locs);
        for i in 0..n_locs {
            let id = LocationId::new(r.get("loc.id")?);
            let position = GeoPoint {
                x: r.get("loc.px")?,
                y: r.get("loc.py")?,
            };
            let tiv = r.get("loc.tiv")?;
            let cons_code = r.get("loc.construction")?;
            let construction = ConstructionClass::from_code(cons_code).ok_or_else(|| {
                RiskError::corrupt(format!(
                    "unknown construction code {cons_code} at location {i}"
                ))
            })?;
            let deductible = r.get("loc.deductible")?;
            let limit = r.get("loc.limit")?;
            locations.push(ExposureLocation {
                id,
                position,
                tiv,
                construction,
                deductible,
                limit,
            });
        }
        let exposure = ExposurePortfolio::from_parts(locations, total_tiv)
            .map_err(|e| RiskError::corrupt(format!("stage1 exposure rejected: {e}")))?;
        exposures.push(exposure);
    }
    Ok((key, catalog, exposures))
}

/// Decode a byte stream produced by [`encode_stage1`], returning the
/// cache key and the reconstructed output. Rejects wrong kinds,
/// truncation anywhere, trailing bytes, CRC mismatches and structurally
/// invalid tables — always with `RiskError::corrupt`-family errors,
/// never a panic.
pub fn decode_stage1(data: &[u8]) -> RiskResult<(u64, Stage1Output)> {
    let (mut r, mut off) = FrameReader::open(data, TableKind::Stage1)?;
    let (key, catalog, exposures) = decode_header(&mut r)?;
    r.finish()?;
    let mut books = Vec::with_capacity(exposures.len());
    for exposure in exposures {
        let (elt, used) = codec::decode_prefix::<Elt>(&data[off..])?;
        off += used;
        books.push(Book {
            exposure: Arc::new(exposure),
            elt: Arc::new(elt),
        });
    }
    let (yet, used) = codec::decode_prefix::<YearEventTable>(&data[off..])?;
    off += used;
    if off != data.len() {
        return Err(RiskError::corrupt(format!(
            "stage1 stream has {} trailing bytes",
            data.len() - off
        )));
    }
    let output = Stage1Output {
        catalog: Arc::new(catalog),
        books,
        yet: Arc::new(yet),
    };
    Ok((key, output))
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "fixtures cast small trial indices"
)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::eltgen::EltGenConfig;
    use crate::exposure::ExposureConfig;
    use crate::yetgen::YetConfig;
    use riskpipe_exec::ThreadPool;
    use riskpipe_types::TrialId;

    fn sample_output() -> Stage1Output {
        let pool = ThreadPool::new(2);
        let catalog = EventCatalog::generate(&CatalogConfig {
            events: 200,
            seed: 0x51A6E1,
            ..CatalogConfig::default()
        })
        .unwrap();
        let expo_a = ExposurePortfolio::generate(&ExposureConfig {
            locations: 60,
            seed: 0xA,
            ..ExposureConfig::default()
        })
        .unwrap();
        let expo_b = ExposurePortfolio::generate(&ExposureConfig {
            locations: 40,
            seed: 0xB,
            ..ExposureConfig::default()
        })
        .unwrap();
        Stage1Output::build(
            catalog,
            [Ok(expo_a), Ok(expo_b)],
            EltGenConfig::default(),
            YetConfig {
                trials: 50,
                ..YetConfig::default()
            },
            &pool,
        )
        .unwrap()
        .0
    }

    fn assert_outputs_identical(a: &Stage1Output, b: &Stage1Output) {
        assert_eq!(a.catalog.len(), b.catalog.len());
        assert_eq!(
            a.catalog.total_rate().to_bits(),
            b.catalog.total_rate().to_bits()
        );
        for (x, y) in a.catalog.events().iter().zip(b.catalog.events()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.peril, y.peril);
            assert_eq!(x.rate.to_bits(), y.rate.to_bits());
            assert_eq!(x.magnitude.to_bits(), y.magnitude.to_bits());
            assert_eq!(x.center.x.to_bits(), y.center.x.to_bits());
            assert_eq!(x.center.y.to_bits(), y.center.y.to_bits());
        }
        assert_eq!(a.books.len(), b.books.len());
        for (ba, bb) in a.books.iter().zip(&b.books) {
            assert_eq!(
                ba.exposure.total_tiv().to_bits(),
                bb.exposure.total_tiv().to_bits()
            );
            assert_eq!(ba.exposure.locations().len(), bb.exposure.locations().len());
            for (x, y) in ba.exposure.locations().iter().zip(bb.exposure.locations()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.tiv.to_bits(), y.tiv.to_bits());
                assert_eq!(x.construction, y.construction);
                assert_eq!(x.deductible.to_bits(), y.deductible.to_bits());
                assert_eq!(x.limit.to_bits(), y.limit.to_bits());
            }
            assert_eq!(ba.elt.len(), bb.elt.len());
            for (x, y) in ba.elt.iter().zip(bb.elt.iter()) {
                assert_eq!(x, y);
            }
        }
        assert_eq!(a.yet.trials(), b.yet.trials());
        for t in 0..a.yet.trials() {
            let t = TrialId::new(t as u32);
            assert_eq!(a.yet.trial_slices(t), b.yet.trial_slices(t));
        }
        assert_eq!(a.memory_bytes(), b.memory_bytes());
    }

    #[test]
    fn stage1_round_trip_is_bit_exact() {
        let out = sample_output();
        let bytes = encode_stage1(0xDEADBEEF, &out);
        let (key, back) = decode_stage1(&bytes).unwrap();
        assert_eq!(key, 0xDEADBEEF);
        assert_outputs_identical(&out, &back);
    }

    #[test]
    fn truncation_anywhere_is_corrupt() {
        let out = sample_output();
        let bytes = encode_stage1(1, &out);
        // Every frame boundary plus a spread of interior offsets.
        let mut cuts = vec![0, 1, codec::HEADER_BYTES, bytes.len() - 1];
        let mut off = 0usize;
        while off < bytes.len() {
            let (_, _, used) = codec::unframe(&bytes[off..]).unwrap();
            off += used;
            if off < bytes.len() {
                cuts.push(off);
                cuts.push(off + codec::HEADER_BYTES / 2);
            }
        }
        for cut in cuts {
            assert!(
                decode_stage1(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let out = sample_output();
        let mut bytes = encode_stage1(1, &out);
        bytes.push(0);
        assert!(decode_stage1(&bytes).is_err());
    }

    #[test]
    fn wrong_leading_kind_is_corrupt() {
        let out = sample_output();
        let bytes = codec::encode(&*out.yet);
        assert!(decode_stage1(&bytes).is_err());
    }

    /// Rows a CRC cannot vouch for: the header frame is patched and
    /// then *re-framed*, so the checksum is valid and only the row
    /// validation in `from_parts` stands between a non-finite or
    /// negative field and the loss chain. Typed error, never a panic.
    #[test]
    fn crc_valid_unusable_rows_are_corrupt() {
        let out = sample_output();
        let bytes = encode_stage1(7, &out);
        let (_, payload, header_len) = codec::unframe(&bytes).unwrap();
        // Layout (see the module docs): 24 header bytes, 37 per event,
        // then n_books (8) + the first book's total_tiv and n_locs (16).
        let event0 = 24;
        let loc0 = 24 + 37 * out.catalog.len() + 8 + 16;
        let patches: [(&str, usize, f64); 13] = [
            ("event rate NaN", event0 + 5, f64::NAN),
            ("event magnitude inf", event0 + 13, f64::INFINITY),
            ("event cx NaN", event0 + 21, f64::NAN),
            ("event cy -inf", event0 + 29, f64::NEG_INFINITY),
            ("loc px NaN", loc0 + 4, f64::NAN),
            ("loc py inf", loc0 + 12, f64::INFINITY),
            ("loc tiv NaN", loc0 + 20, f64::NAN),
            ("loc tiv zero", loc0 + 20, 0.0),
            ("loc tiv negative", loc0 + 20, -5.0),
            ("loc deductible NaN", loc0 + 29, f64::NAN),
            ("loc deductible negative", loc0 + 29, -1.0),
            ("loc limit inf", loc0 + 37, f64::INFINITY),
            ("loc limit negative", loc0 + 37, -1.0),
        ];
        // Counts the payload cannot hold: corrupt before anything is
        // allocated for them.
        let counts = [
            ("n_events 2^32", 8, (1u64 << 32).to_le_bytes()),
            ("n_books u64::MAX", loc0 - 24, u64::MAX.to_le_bytes()),
            ("n_locs 2^32", loc0 - 8, (1u64 << 32).to_le_bytes()),
        ];
        let rows = patches.map(|(what, at, value)| (what, at, value.to_le_bytes()));
        for (what, at, value) in rows.into_iter().chain(counts) {
            let mut p = payload.to_vec();
            p[at..at + 8].copy_from_slice(&value);
            let mut bad = codec::frame(TableKind::Stage1, &p);
            bad.extend_from_slice(&bytes[header_len..]);
            match decode_stage1(&bad) {
                Err(RiskError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {:?}", other.map(|(k, _)| k)),
            }
        }
        // The unpatched payload re-framed the same way still decodes:
        // the table above fails for its patches, not for the re-frame.
        let mut same = codec::frame(TableKind::Stage1, payload);
        same.extend_from_slice(&bytes[header_len..]);
        assert!(decode_stage1(&same).is_ok());
    }

    #[test]
    fn bad_peril_code_is_corrupt() {
        let out = sample_output();
        let bytes = encode_stage1(1, &out);
        // The first event's peril byte sits after the frame header and
        // key/n_events/total_rate (24 bytes) and the event id (4).
        let peril_pos = codec::HEADER_BYTES + 24 + 4;
        let mut bad = bytes.clone();
        bad[peril_pos] = 9;
        // Re-CRC would be cheating: the flip is caught by the CRC
        // first, which is also a corrupt error.
        assert!(decode_stage1(&bad).is_err());
    }
}
