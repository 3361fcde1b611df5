//! A build-time-only spatial index over one book's locations.
//!
//! ELT generation asks one question per event: *which locations lie
//! within `reach` km of this centre?* The index answers it without
//! looking at the rest of the book: location positions are bucketed on
//! a uniform grid over the book's bounding box (a counting sort,
//! O(locations)), stored cell-major as plain columns, and a query scans
//! only the cell rows the disc's bounding square overlaps. A hit sets
//! one bit in a bitset over location indices (one `u64` word per 64
//! locations); reading the set bits word by word yields the hits in
//! ascending location index — the order the loss chain's sums need —
//! without a sort. The index lives inside a [`crate::GroundUpModel`]
//! and is dropped with it; nothing downstream of ELT generation ever
//! sees it.
//!
//! Both tests a query applies are *conservative*: a location is left
//! out only when the distance the loss chain would compute for it
//! ([`GeoPoint::distance_km`]) is certainly greater than `reach`. See
//! [`padded`] for the margin argument.

use crate::exposure::ExposureLocation;
use crate::geo::GeoPoint;

/// Mean cell occupancy the grid resolution aims for.
const LOCATIONS_PER_CELL: f64 = 4.0;

/// Cap on cells per axis: bounds the offset table at 256 KiB however
/// large the book.
const MAX_CELLS_PER_AXIS: usize = 256;

/// Relative *and* absolute (km) widening applied by [`padded`].
const PAD: f64 = 1e-9;

/// Widen a distance bound before a cheaper test stands in for the one
/// it was derived for.
///
/// A query makes two such substitutions. The squared distance
/// `dx² + dy²` is compared against `padded(reach)²` in place of
/// comparing its square root against `reach`; and a coordinate
/// difference is compared against `padded(padded(reach))` (via the cell
/// range) in place of comparing the squared distance. Rounding moves
/// each of the quantities involved — a difference, a product, a sum, a
/// square root — by a relative 2⁻⁵³ ≈ 1.1e-16 per operation, seven
/// orders of magnitude inside the relative term; the absolute term (a
/// micrometre) keeps the bound above the range where `dx²` underflows
/// and the relative argument stops holding.
fn padded(r: f64) -> f64 {
    r * (1.0 + PAD) + PAD
}

/// Cell-major position columns of one book (20 B per location).
pub(crate) struct ExposureIndex {
    /// South-west corner of the book's bounding box.
    origin: GeoPoint,
    /// Grid resolution per axis; 0 on an axis the book has no extent
    /// along, which puts every coordinate in cell 0 of that axis.
    cells_per_km: (f64, f64),
    /// Cells per axis.
    n: usize,
    /// CSR offsets into the columns, cells in row-major order
    /// (`row * n + col`), `n * n + 1` entries.
    cell_start: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Index of the location in the portfolio.
    ids: Vec<u32>,
}

impl ExposureIndex {
    /// Bucket `locations` (finite positions, at most `u32::MAX` of
    /// them — [`crate::ExposurePortfolio::from_parts`] guarantees both).
    pub(crate) fn build(locations: &[ExposureLocation]) -> Self {
        let mut lo = GeoPoint::new(f64::INFINITY, f64::INFINITY);
        let mut hi = GeoPoint::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for l in locations {
            lo = GeoPoint::new(lo.x.min(l.position.x), lo.y.min(l.position.y));
            hi = GeoPoint::new(hi.x.max(l.position.x), hi.y.max(l.position.y));
        }
        let len = locations.len();
        let n =
            ((len as f64 / LOCATIONS_PER_CELL).sqrt().ceil() as usize).clamp(1, MAX_CELLS_PER_AXIS);
        let per_km = |extent: f64| if extent > 0.0 { n as f64 / extent } else { 0.0 };
        let mut index = Self {
            origin: lo,
            cells_per_km: (per_km(hi.x - lo.x), per_km(hi.y - lo.y)),
            n,
            cell_start: vec![0; n * n + 1],
            xs: vec![0.0; len],
            ys: vec![0.0; len],
            ids: vec![0; len],
        };
        // Counting sort by cell. Filling in portfolio order leaves each
        // cell's run in ascending location index.
        for l in locations {
            let cell = index.cell_of(&l.position);
            index.cell_start[cell + 1] += 1;
        }
        for c in 0..n * n {
            index.cell_start[c + 1] += index.cell_start[c];
        }
        let mut next = index.cell_start.clone();
        for (i, l) in locations.iter().enumerate() {
            let cell = index.cell_of(&l.position);
            let k = next[cell] as usize;
            next[cell] += 1;
            index.xs[k] = l.position.x;
            index.ys[k] = l.position.y;
            index.ids[k] = i as u32;
        }
        index
    }

    /// Grid coordinate of `v` along one axis: non-decreasing in `v`,
    /// clamped onto the grid (the float → integer cast saturates, so
    /// anything west / south of the box lands in cell 0).
    fn axis_cell(&self, v: f64, origin: f64, cells_per_km: f64) -> usize {
        (((v - origin) * cells_per_km) as usize).min(self.n - 1)
    }

    fn col(&self, x: f64) -> usize {
        self.axis_cell(x, self.origin.x, self.cells_per_km.0)
    }

    fn row(&self, y: f64) -> usize {
        self.axis_cell(y, self.origin.y, self.cells_per_km.1)
    }

    fn cell_of(&self, p: &GeoPoint) -> usize {
        self.row(p.y) * self.n + self.col(p.x)
    }

    /// Portfolio indices, **ascending**, of every location whose
    /// computed distance from `center` may be `≤ reach` — a superset of
    /// the disc, never a subset.
    pub(crate) fn within(&self, center: GeoPoint, reach: f64) -> Vec<u32> {
        let cut = padded(reach);
        let cut2 = cut * cut;
        let half = padded(cut);
        let (c0, c1) = (self.col(center.x - half), self.col(center.x + half));
        let (r0, r1) = (self.row(center.y - half), self.row(center.y + half));
        // One bit per location, so reading the words in order lists the
        // candidates in ascending index whatever cell they came from.
        let mut words = vec![0u64; self.ids.len().div_ceil(64)];
        for row in r0..=r1 {
            // The cells of one grid row are adjacent in the columns.
            let lo = self.cell_start[row * self.n + c0] as usize;
            let hi = self.cell_start[row * self.n + c1 + 1] as usize;
            let run = self.xs[lo..hi].iter().zip(&self.ys[lo..hi]);
            for ((x, y), &id) in run.zip(&self.ids[lo..hi]) {
                // Same expression as `GeoPoint::distance_km`, unrooted.
                let (dx, dy) = (center.x - x, center.y - y);
                if dx * dx + dy * dy <= cut2 {
                    words[(id / 64) as usize] |= 1 << (id % 64);
                }
            }
        }
        let mut out = Vec::new();
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vulnerability::ConstructionClass;
    use riskpipe_types::LocationId;

    fn at(i: u32, x: f64, y: f64) -> ExposureLocation {
        ExposureLocation {
            id: LocationId::new(i),
            position: GeoPoint::new(x, y),
            tiv: 1.0,
            construction: ConstructionClass::Wood,
            deductible: 0.0,
            limit: 1.0,
        }
    }

    /// Every location inside the disc, by the loss chain's own distance.
    fn disc(locations: &[ExposureLocation], center: GeoPoint, reach: f64) -> Vec<u32> {
        (0..locations.len() as u32)
            .filter(|&i| center.distance_km(&locations[i as usize].position) <= reach)
            .collect()
    }

    #[test]
    fn query_is_an_ascending_superset_of_the_disc() {
        // A lattice with a coincident clump and a far outlier.
        let mut locations = Vec::new();
        for i in 0..400u32 {
            locations.push(at(i, (i % 20) as f64 * 7.5, (i / 20) as f64 * 3.25));
        }
        for i in 400..420 {
            locations.push(at(i, 33.0, 33.0));
        }
        locations.push(at(420, -4_000.0, 9_000.0));
        let index = ExposureIndex::build(&locations);
        for &(cx, cy) in &[(0.0, 0.0), (33.0, 33.0), (71.2, 30.9), (-500.0, 20.0)] {
            for reach in [0.0, 1e-12, 3.25, 7.5, 40.0, 600.0, 1e5] {
                let center = GeoPoint::new(cx, cy);
                let got = index.within(center, reach);
                assert!(got.windows(2).all(|w| w[0] < w[1]), "not ascending");
                for i in disc(&locations, center, reach) {
                    assert!(got.contains(&i), "({cx},{cy}) r={reach}: lost {i}");
                }
                // And it is a filter, not a pass-through: nothing
                // farther than the padded reach survives.
                for &i in &got {
                    let d = center.distance_km(&locations[i as usize].position);
                    assert!(d <= padded(padded(reach)), "kept {i} at {d} > {reach}");
                }
            }
        }
    }

    #[test]
    fn degenerate_books_index_into_one_cell() {
        let single = [at(0, 12.0, -7.0)];
        let index = ExposureIndex::build(&single);
        assert_eq!(index.within(GeoPoint::new(12.0, -7.0), 0.0), [0]);
        assert_eq!(index.within(GeoPoint::new(500.0, 500.0), 1.0), [0u32; 0]);
        // All on one vertical line: no extent along x.
        let line: Vec<_> = (0..50).map(|i| at(i, 5.0, i as f64)).collect();
        let index = ExposureIndex::build(&line);
        assert_eq!(
            index.within(GeoPoint::new(5.0, 10.0), 2.0),
            [8, 9, 10, 11, 12]
        );
        assert_eq!(index.within(GeoPoint::new(-90.0, 10.0), 2.0), [0u32; 0]);
    }

    /// The bitset's seams: hits straddling a word boundary (ids 63, 64,
    /// 65), hits in the last, partial word, a query that hits nothing,
    /// and a one-location book (a single partial word).
    #[test]
    fn bitset_word_seams_read_back_ascending() {
        // 130 locations = two full words and two bits of a third, on a
        // line of 1 km steps.
        let line: Vec<_> = (0..130).map(|i| at(i, i as f64, 0.0)).collect();
        let index = ExposureIndex::build(&line);
        assert_eq!(index.within(GeoPoint::new(64.0, 0.0), 1.5), [63, 64, 65]);
        assert_eq!(
            index.within(GeoPoint::new(127.5, 0.0), 2.0),
            [126, 127, 128, 129]
        );
        assert_eq!(index.within(GeoPoint::new(129.0, 0.0), 0.5), [129]);
        assert_eq!(index.within(GeoPoint::new(64.0, 50.0), 1.0), [0u32; 0]);
        assert_eq!(index.within(GeoPoint::new(64.0, 0.0), 0.25), [64]);

        let single = [at(0, 3.0, 4.0)];
        let index = ExposureIndex::build(&single);
        assert_eq!(index.within(GeoPoint::new(0.0, 0.0), 5.0), [0]);
        assert_eq!(index.within(GeoPoint::new(0.0, 0.0), 4.5), [0u32; 0]);
    }

    /// Locations whose index order is unrelated to their grid cells:
    /// the query reads back exactly the disc, ascending, with ids from
    /// many cells and words interleaved.
    #[test]
    fn scattered_ids_read_back_in_index_order() {
        let scattered: Vec<_> = (0..1_000u32)
            .map(|i| at(i, ((i * 37) % 100) as f64, ((i * 61) % 97) as f64))
            .collect();
        let index = ExposureIndex::build(&scattered);
        for &(cx, cy, reach) in &[(50.2, 48.7, 20.5), (0.3, 0.1, 30.0), (99.9, 96.4, 70.0)] {
            let center = GeoPoint::new(cx, cy);
            let want = disc(&scattered, center, reach);
            assert!(want.len() > 64, "fixture: only {} hits", want.len());
            assert_eq!(index.within(center, reach), want, "({cx},{cy}) r={reach}");
        }
    }
}
