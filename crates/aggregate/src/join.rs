//! The event-major join of a model run's books — the one table the
//! stage-2 host kernel reads.
//!
//! The paper's stage-2 prescription is "pre-join once, then scan flat
//! tables; keep random access out of the inner loop". Per-layer ELT
//! indexes make the trial loop hash every occurrence into every layer
//! (most probes miss) and chase `table → grid → row` per hit. The join
//! turns that inside out: **one** `event → span` map over all books,
//! and per event a contiguous run of *hits* — one per `(layer, row)`
//! whose ELT holds the event — each carrying what the kernel needs to
//! price it. An occurrence costs one lookup, then a stream.
//!
//! ## The ordering invariant
//!
//! Hits are sorted by `(event id, layer index)`. Within one occurrence
//! the host kernel therefore visits layers in ascending order, which is
//! exactly the order the one-probe-per-layer kernel (`engine/gpu.rs`)
//! visits them — so `scratch[layer] += net` and `occ_total += net ·
//! share` add the same paying values in the same order, and every
//! engine's YLT is bit-identical. (The host kernel also adds each
//! non-paying hit's net, a +0.0 that leaves every accumulator's bits
//! as they were.) Nothing else about the layout is observable.

use crate::secondary::{GridCell, SecondaryTable};
use riskpipe_tables::{Elt, EventRowMap};
use riskpipe_types::dist::Beta;
use riskpipe_types::{EventId, RiskError, RiskResult};

/// What a hit carries, stored hit-major (hit `h`'s payload at index `h`).
#[derive(Debug, Clone)]
enum Payload {
    /// Secondary uncertainty off: the ELT row's mean loss.
    Mean(Vec<f64>),
    /// [`QuantileMode::Exact`](crate::QuantileMode::Exact): exposure and
    /// the row's moment-matched beta.
    Exact {
        exposure: Vec<f64>,
        betas: Vec<Beta>,
    },
    /// [`QuantileMode::Interpolated`](crate::QuantileMode::Interpolated):
    /// exposure and the row's `g`-cell quantile grid at `h * g`.
    Grid {
        exposure: Vec<f64>,
        grid: Vec<f64>,
        g: usize,
    },
}

/// All books of one model run joined on event id (see the module docs):
/// a CSR over events whose entries are the `(layer, row)` hits, with
/// each hit's loss payload stored in hit order.
///
/// The join is the *prepared form* of stage 2: a pure function of the
/// ELTs and the quantile mode, built once per model run and shared by
/// every scenario over it (layer terms never enter it).
///
/// **Invariant:** hits are sorted by `(event id, layer index)`, so an
/// occurrence's hits stream in ascending layer order — the order the
/// one-probe-per-layer kernel visits layers. Cross-engine bit-identity
/// rests on this and on nothing else about the layout.
#[derive(Debug, Clone)]
pub struct EventJoin {
    /// Event → slot; slot `s`'s hits are `offsets[s]..offsets[s + 1]`.
    index: EventRowMap,
    offsets: Vec<u32>,
    /// Per hit: the layer it belongs to.
    layer: Vec<u32>,
    payload: Payload,
    /// Per `(layer, row)`: the hit holding that row — layer `li`'s rows
    /// start at `row_base[li]`. The inverse of the join, for the
    /// one-probe-per-layer kernel.
    row_hit: Vec<u32>,
    row_base: Vec<u32>,
}

impl EventJoin {
    /// Join `elts` (one per layer, in layer order). `Some(tables)`
    /// applies secondary uncertainty through `tables[i]` for layer `i`
    /// — the tables are consumed, their rows moved into hit order —
    /// and `None` carries each row's mean loss.
    ///
    /// # Errors
    /// [`RiskError::InvalidParameter`] when `tables` is not one table
    /// per ELT with one row per ELT row, when the tables were built
    /// under different quantile modes or grid sizes, or when the books
    /// hold more than `u32::MAX` rows in total.
    pub fn build<'a>(
        elts: impl IntoIterator<Item = &'a Elt>,
        secondary: Option<Vec<SecondaryTable>>,
    ) -> RiskResult<Self> {
        let elts: Vec<&Elt> = elts.into_iter().collect();
        if let Some(tables) = &secondary {
            check_tables(&elts, tables)?;
        }
        let total_rows: usize = elts.iter().map(|e| e.len()).sum();
        if u32::try_from(total_rows).is_err() {
            return Err(RiskError::invalid(format!(
                "{total_rows} ELT rows exceed the join's u32 hit index"
            )));
        }

        // One hit per (layer, row); sorting by (event, layer) is the
        // ordering invariant. Event ids are unique within an ELT, so
        // keys never tie and the order is canonical.
        let mut hits: Vec<(u32, u32, u32)> = Vec::with_capacity(total_rows);
        let mut row_base = Vec::with_capacity(elts.len() + 1);
        for (li, elt) in elts.iter().enumerate() {
            row_base.push(hits.len() as u32);
            let (event_ids, ..) = elt.columns();
            hits.extend(
                event_ids
                    .iter()
                    .enumerate()
                    .map(|(row, &event)| (event, li as u32, row as u32)),
            );
        }
        row_base.push(hits.len() as u32);
        hits.sort_unstable();

        let events = hits.chunk_by(|a, b| a.0 == b.0).count();
        let mut index = EventRowMap::with_capacity(events);
        let mut offsets = Vec::with_capacity(events + 1);
        let mut row_hit = vec![0u32; hits.len()];
        for (h, &(event, li, row)) in hits.iter().enumerate() {
            if h == 0 || hits[h - 1].0 != event {
                index.insert(EventId::new(event), offsets.len() as u32);
                offsets.push(h as u32);
            }
            row_hit[(row_base[li as usize] + row) as usize] = h as u32;
        }
        offsets.push(hits.len() as u32);

        let payload = match &secondary {
            None => Payload::Mean(gather(&hits, |li, row| elts[li].mean_loss_at(row as u32))),
            Some(tables) => {
                let exposure = gather(&hits, |li, row| tables[li].exposure[row]);
                match tables.first().map_or(0, |t| t.grid_n) {
                    0 => Payload::Exact {
                        exposure,
                        betas: gather(&hits, |li, row| tables[li].betas[row]),
                    },
                    g => {
                        let mut grid = Vec::with_capacity(hits.len() * g);
                        for &(_, li, row) in &hits {
                            let row = row as usize;
                            grid.extend_from_slice(
                                &tables[li as usize].grid[row * g..(row + 1) * g],
                            );
                        }
                        Payload::Grid { exposure, grid, g }
                    }
                }
            }
        };
        Ok(Self {
            index,
            offsets,
            layer: hits.iter().map(|&(_, li, _)| li).collect(),
            payload,
            row_hit,
            row_base,
        })
    }

    /// Number of layers (ELTs) joined.
    pub fn layers(&self) -> usize {
        self.row_base.len() - 1
    }

    /// Rows of layer `li`'s ELT.
    pub fn layer_rows(&self, li: usize) -> usize {
        (self.row_base[li + 1] - self.row_base[li]) as usize
    }

    /// Total hits — Σ ELT rows over the joined layers.
    pub fn hits(&self) -> usize {
        self.layer.len()
    }

    /// Heap footprint in bytes: the sum of the join's columns (the
    /// payload dominates; the index adds ≈ 20 B per ELT row).
    pub fn memory_bytes(&self) -> usize {
        let payload = match &self.payload {
            Payload::Mean(mean) => mean.len() * 8,
            Payload::Exact { exposure, betas } => exposure.len() * 8 + betas.len() * 16,
            Payload::Grid { exposure, grid, .. } => exposure.len() * 8 + grid.len() * 8,
        };
        self.index.memory_bytes()
            + (self.offsets.len() + self.layer.len() + self.row_hit.len() + self.row_base.len()) * 4
            + payload
    }

    /// The host kernel's inner loop: one lookup for the occurrence
    /// `(event, z)`, then `f(layer, gross_loss)` for each of the event's
    /// hits in ascending layer order. Whatever depends on the occurrence
    /// alone — the interpolation cell — is computed once, before the
    /// stream.
    #[inline]
    pub(crate) fn for_each_hit(&self, event: u32, z: f64, mut f: impl FnMut(usize, f64)) {
        let Some(slot) = self.index.get(EventId::new(event)) else {
            return;
        };
        let span = self.offsets[slot as usize] as usize..self.offsets[slot as usize + 1] as usize;
        let layers = &self.layer[span.clone()];
        match &self.payload {
            Payload::Mean(mean) => {
                for (&li, &gross) in layers.iter().zip(&mean[span]) {
                    f(li as usize, gross);
                }
            }
            Payload::Exact { exposure, betas } => {
                for ((&li, &exp), beta) in
                    layers.iter().zip(&exposure[span.clone()]).zip(&betas[span])
                {
                    f(li as usize, exp * beta.quantile(z));
                }
            }
            Payload::Grid { exposure, grid, g } => {
                let cell = GridCell::locate(z, *g);
                let rows = grid[span.start * g..span.end * g].chunks_exact(*g);
                for ((&li, &exp), row) in layers.iter().zip(&exposure[span]).zip(rows) {
                    f(li as usize, exp * cell.read(row));
                }
            }
        }
    }

    /// The hit holding layer `li`'s ELT row `row`.
    #[inline]
    pub(crate) fn hit_of(&self, li: usize, row: u32) -> usize {
        self.row_hit[(self.row_base[li] + row) as usize] as usize
    }

    /// One hit's gross loss at uniform `z` — the per-probe form of
    /// [`EventJoin::for_each_hit`]'s arithmetic, for the kernel that
    /// reaches a hit through its layer's own index.
    #[inline]
    pub(crate) fn gross_at(&self, hit: usize, z: f64) -> f64 {
        match &self.payload {
            Payload::Mean(mean) => mean[hit],
            Payload::Exact { exposure, betas } => exposure[hit] * betas[hit].quantile(z),
            Payload::Grid { exposure, grid, g } => {
                exposure[hit] * GridCell::locate(z, *g).read(&grid[hit * g..(hit + 1) * g])
            }
        }
    }

    /// Whether the payload is a secondary-uncertainty sample (two grid
    /// cells or a beta) rather than a mean — what the traffic model
    /// charges a hit.
    pub(crate) fn has_secondary(&self) -> bool {
        !matches!(self.payload, Payload::Mean(_))
    }
}

/// One value per hit, in hit order, read from `(layer, row)`.
fn gather<T>(hits: &[(u32, u32, u32)], at: impl Fn(usize, usize) -> T) -> Vec<T> {
    hits.iter()
        .map(|&(_, li, row)| at(li as usize, row as usize))
        .collect()
}

/// Tables must line up with the ELTs row for row and share one mode: a
/// hit-major payload has a single stride.
fn check_tables(elts: &[&Elt], tables: &[SecondaryTable]) -> RiskResult<()> {
    if tables.len() != elts.len() {
        return Err(RiskError::invalid(format!(
            "{} secondary tables for {} ELTs",
            tables.len(),
            elts.len()
        )));
    }
    for (li, (table, elt)) in tables.iter().zip(elts).enumerate() {
        if table.len() != elt.len() {
            return Err(RiskError::invalid(format!(
                "secondary table {li} has {} rows, its ELT has {}",
                table.len(),
                elt.len()
            )));
        }
        if table.grid_n != tables[0].grid_n {
            return Err(RiskError::invalid(format!(
                "secondary table {li} has a {}-point grid, table 0 a {}-point one \
                 (0 = exact): one join needs one quantile mode",
                table.grid_n, tables[0].grid_n
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secondary::QuantileMode;
    use riskpipe_tables::elt::{EltBuilder, EltRecord};

    fn elt_of(events: &[u32]) -> Elt {
        let mut b = EltBuilder::new();
        for &e in events {
            let mean = 50.0 + 7.0 * e as f64;
            b.push(EltRecord {
                event_id: EventId::new(e),
                mean_loss: mean,
                sigma_i: mean * 0.3,
                sigma_c: mean * 0.1,
                exposure: mean * 6.0,
            })
            .unwrap();
        }
        b.build().unwrap()
    }

    /// Event 5 in every book, 9 in one, 40 in two; the middle book
    /// shares nothing else with its neighbours.
    fn books() -> Vec<Elt> {
        vec![
            elt_of(&[5, 9, 12, 40]),
            elt_of(&[3, 5, 77]),
            elt_of(&[5, 12, 40, 41, 42]),
        ]
    }

    const MODES: [Option<QuantileMode>; 3] = [
        None,
        Some(QuantileMode::Exact),
        Some(QuantileMode::Interpolated(5)),
    ];

    fn tables(elts: &[Elt], mode: Option<QuantileMode>) -> Option<Vec<SecondaryTable>> {
        mode.map(|m| elts.iter().map(|e| SecondaryTable::build(e, m)).collect())
    }

    #[test]
    fn every_layer_row_is_exactly_one_hit_and_the_row_column_inverts_the_join() {
        let elts = books();
        for mode in MODES {
            let join = EventJoin::build(&elts, tables(&elts, mode)).unwrap();
            assert_eq!(join.layers(), 3);
            assert_eq!(join.hits(), 12);
            let mut seen = vec![false; join.hits()];
            for (li, elt) in elts.iter().enumerate() {
                assert_eq!(join.layer_rows(li), elt.len());
                let (event_ids, ..) = elt.columns();
                for (row, &event) in event_ids.iter().enumerate() {
                    let hit = join.hit_of(li, row as u32);
                    assert!(!std::mem::replace(&mut seen[hit], true), "hit {hit} twice");
                    assert_eq!(join.layer[hit] as usize, li);
                    let slot = join.index.get(EventId::new(event)).unwrap() as usize;
                    assert!((join.offsets[slot]..join.offsets[slot + 1]).contains(&(hit as u32)));
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn offsets_are_monotone_and_hits_ascend_by_layer_within_an_event() {
        let elts = books();
        let join = EventJoin::build(&elts, None).unwrap();
        // 3, 5, 9, 12, 40, 41, 42, 77.
        assert_eq!(join.offsets.len(), 8 + 1);
        assert_eq!(join.offsets[0], 0);
        assert_eq!(*join.offsets.last().unwrap() as usize, join.hits());
        for span in join.offsets.windows(2) {
            assert!(span[0] < span[1], "every event has a hit");
            let layers = &join.layer[span[0] as usize..span[1] as usize];
            assert!(layers.windows(2).all(|w| w[0] < w[1]), "{layers:?}");
        }
        let slot = join.index.get(EventId::new(5)).unwrap() as usize;
        assert_eq!(join.offsets[slot + 1] - join.offsets[slot], 3);
        assert!(join.index.get(EventId::new(6)).is_none());
    }

    #[test]
    fn the_stream_and_the_per_row_form_price_like_the_tables() {
        let elts = books();
        for mode in MODES {
            let reference = tables(&elts, mode);
            let join = EventJoin::build(&elts, tables(&elts, mode)).unwrap();
            assert_eq!(join.has_secondary(), mode.is_some());
            for z in [1e-9, 0.1, 0.3, 0.5, 0.77, 1.0 - 1e-9] {
                for event in [3u32, 5, 6, 9, 12, 40, 41, 42, 77] {
                    // What one probe per layer, in layer order, finds.
                    let mut want = Vec::new();
                    for (li, elt) in elts.iter().enumerate() {
                        if let Some(row) = elt.index().get(EventId::new(event)) {
                            let gross = match &reference {
                                Some(tables) => tables[li].loss(row, z),
                                None => elt.mean_loss_at(row),
                            };
                            assert_eq!(
                                join.gross_at(join.hit_of(li, row), z).to_bits(),
                                gross.to_bits()
                            );
                            want.push((li, gross.to_bits()));
                        }
                    }
                    let mut got = Vec::new();
                    join.for_each_hit(event, z, |li, gross| got.push((li, gross.to_bits())));
                    assert_eq!(got, want, "{mode:?} event {event} z {z}");
                }
            }
        }
    }

    #[test]
    fn memory_bytes_is_the_sum_of_the_columns() {
        let elts = books();
        // 12 hits over 8 events in 3 layers: offsets 9, layer 12,
        // row → hit 12, row bases 4 — all u32.
        let columns = (9 + 12 + 12 + 4) * 4;
        for (mode, payload_per_hit) in [
            (None, 8),
            (Some(QuantileMode::Exact), 8 + 16),
            (Some(QuantileMode::Interpolated(5)), 8 + 5 * 8),
        ] {
            let join = EventJoin::build(&elts, tables(&elts, mode)).unwrap();
            assert_eq!(
                join.memory_bytes(),
                join.index.memory_bytes() + columns + 12 * payload_per_hit,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn an_empty_book_list_joins_to_nothing() {
        let join = EventJoin::build(std::iter::empty(), None).unwrap();
        assert_eq!((join.layers(), join.hits()), (0, 0));
        join.for_each_hit(1, 0.5, |_, _| panic!("no hits"));
    }
}
