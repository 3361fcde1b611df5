//! ELT generation: footprint → candidates → exact chain.
//!
//! This is the compute-intensive half of stage 1 (the paper: "risk
//! modelling is highly compute and data intensive ... data organised in
//! a small number of very large tables and streamed by independent
//! processes, further to which the results need to be aggregated"). An
//! Event-Loss Table row is the sum, over the locations an event
//! damages, of the hazard → vulnerability → financial chain — and on a
//! realistic book that is a few percent of the event × location
//! product. The generator therefore never forms the product:
//!
//! 1. **Footprint.** Per book, [`GroundUpModel::new`] finds the lowest
//!    intensity at which *any* of its locations can pay (`tiv × mdr`
//!    must exceed the site deductible; the smallest such damage ratio
//!    per construction class, through
//!    [`ConstructionClass::intensity_at_damage_ratio`]). Per event,
//!    [`distance_at_intensity`] turns that intensity into the radius
//!    beyond which the event cannot reach it, capped by the peril's
//!    physical cut-off. A book with a zero deductible has a paying
//!    intensity of 0 and so falls back to the cut-off alone.
//! 2. **Candidates.** A per-book location index (`index.rs`, built in
//!    O(locations), dropped with the model) lists the locations within
//!    that radius, in ascending location index (read off a bitset, not
//!    sorted).
//! 3. **Exact chain.** The candidates run `for_each_pair_loss` — the
//!    one place `distance → intensity → mean_damage_ratio →
//!    location_loss` is written — in lanes of eight: each stage is one
//!    loop over a block, so the libm calls of different candidates
//!    overlap instead of queueing behind one another. The survivors
//!    leave the block one at a time, in candidate order, and are
//!    accumulated. `rapid_estimate` runs the same kernel over a whole
//!    book.
//!
//! **Skip rule.** A pair is left out only when the chain would have
//! ended at one of its three early exits (intensity ≤ 0, damage ratio
//! ≤ 0, insured loss ≤ 0). Both inverses and both index tests are
//! conservative against rounding, each with its margin argument written
//! beside it, so the rule holds for the values the chain *computes*,
//! not just for the curves on paper. **Ordering invariant.** Survivors
//! are visited in ascending location index, the order the exhaustive
//! event × location loop used, so every floating-point accumulator sees
//! the same addends in the same order and every ELT row is bit-identical
//! to that loop's (the loop itself survives as the oracle in
//! `tests/elt_oracle.rs`). Lanes do not disturb it: every lane computes
//! its pair's values with the very calls the one-pair chain makes, and
//! only the hand-off to the accumulator — which is in order — adds.
//!
//! **Book by book.** [`generate_elts`] is the one ELT loop: it takes the
//! books' exposures from a lazy source, one at a time, and for each
//! builds the book's model (and its location index), generates its ELT
//! in one pool scope over the book's events — each event's row is
//! independent — and assembles the rows into the columnar ELT: exactly
//! the paper's stream-then-aggregate shape. Only then does it hand the
//! exposure to the caller's sink, and only then does it ask for the next
//! one. So at most one book's exposure and index are alive at a time
//! unless the sink keeps them: the exposures are a stage's few very
//! large tables (48 B per location; ≈ 480 MB for the paper's 10 000
//! contracts × 1 000 locations), while an ELT is a row per damaging
//! event. A session keeps none ([`Stage1Output::build`] keeps them
//! all). Each book's ELT is a pure function of the catalogue, its
//! exposure and [`EltGenConfig`], so the order changes no bit.

use crate::catalog::{CatalogEvent, EventCatalog};
use crate::exposure::{ExposureLocation, ExposurePortfolio};
use crate::financial::{location_loss, location_max_loss};
use crate::hazard::{distance_at_intensity, intensity_at_distance};
use crate::index::ExposureIndex;
use crate::vulnerability::ConstructionClass;
use crate::yetgen::{simulate_yet, YetConfig};
use riskpipe_exec::{par_map_collect, suggest_grain, ThreadPool};
use riskpipe_tables::elt::{Elt, EltBuilder, EltRecord};
use riskpipe_tables::yet::YearEventTable;
use riskpipe_types::{LocationId, RiskResult};
use std::array::from_fn;
use std::sync::Arc;

/// Configuration of the ELT generator.
#[derive(Debug, Clone, Copy)]
pub struct EltGenConfig {
    /// Mean-loss threshold below which an event gets no ELT row
    /// (vendor models prune negligible rows the same way).
    pub min_mean_loss: f64,
    /// Fraction of per-location loss uncertainty that is correlated
    /// across locations (0 = fully independent, 1 = fully correlated).
    pub correlation_weight: f64,
}

impl Default for EltGenConfig {
    fn default() -> Self {
        Self {
            min_mean_loss: 1.0,
            correlation_weight: 0.3,
        }
    }
}

impl EltGenConfig {
    /// A stable 64-bit key over every field that influences ELT
    /// generation (see [`crate::CatalogConfig::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = riskpipe_types::Fingerprint::new("catmodel::EltGenConfig");
        fp.push_f64(self.min_mean_loss)
            .push_f64(self.correlation_weight);
        fp.finish()
    }
}

/// How much work an ELT generation did — deterministic counts, equal
/// on any pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EltGenCounts {
    /// (event, location) pairs that ran the exact loss chain.
    pub pairs: u64,
    /// Pairs among them that produced a positive insured loss.
    pub damaging: u64,
}

/// What the loss chain yields for a location an event damages.
pub(crate) struct PairLoss {
    /// Mean damage ratio at the site.
    pub(crate) mdr: f64,
    /// Mean insured loss after site terms; positive.
    pub(crate) loss: f64,
}

/// Candidates per block of [`for_each_pair_loss`].
const LANES: usize = 8;

/// The exact hazard → vulnerability → financial chain for `event` at
/// each of `candidates` (indices into `locations`), eight at a time.
/// `f` gets every pair that passes the chain's three early exits
/// (intensity ≤ 0, damage ratio ≤ 0, insured loss ≤ 0), one at a time
/// in candidate order. Returns how many candidates ran the chain.
///
/// This is the one place the chain is written. Each of its stages —
/// distance, intensity, mean damage ratio, loss — runs as one loop over
/// a block, so the `sqrt`, `ln` / `exp` calls of different lanes do not
/// wait on each other. Every lane calls the same functions on the same
/// operands as one pair on its own would, so the values are the same
/// bits; a lane past an early exit still runs the later stages (on
/// intensity ≤ 0 the damage ratio is 0, and a zero ratio pays nothing)
/// and is dropped at the hand-off.
pub(crate) fn for_each_pair_loss(
    event: &CatalogEvent,
    locations: &[ExposureLocation],
    candidates: impl IntoIterator<Item = usize>,
    mut f: impl FnMut(&ExposureLocation, PairLoss),
) -> u64 {
    let mut block = [0usize; LANES];
    let mut filled = 0;
    let mut pairs = 0u64;
    for i in candidates {
        block[filled] = i;
        filled += 1;
        if filled == LANES {
            chain_lanes(event, locations, &block, &mut f);
            pairs += LANES as u64;
            filled = 0;
        }
    }
    chain_lanes(event, locations, &block[..filled], &mut f);
    pairs + filled as u64
}

/// [`for_each_pair_loss`] over one block of at most [`LANES`]
/// candidates, stage by stage. A short block is padded with its first
/// location, whose extra lanes are never handed out.
fn chain_lanes(
    event: &CatalogEvent,
    locations: &[ExposureLocation],
    ids: &[usize],
    f: &mut impl FnMut(&ExposureLocation, PairLoss),
) {
    let Some(&first) = ids.first() else {
        return;
    };
    let locs: [&ExposureLocation; LANES] =
        from_fn(|lane| &locations[ids.get(lane).copied().unwrap_or(first)]);
    let distance = locs.map(|loc| event.center.distance_km(&loc.position));
    // The peril is the event's, so every lane takes the same branch.
    let intensity = distance.map(|d| intensity_at_distance(event.peril, event.magnitude, d));
    let mdr: [f64; LANES] =
        from_fn(|lane| locs[lane].construction.mean_damage_ratio(intensity[lane]));
    let loss: [f64; LANES] = from_fn(|lane| location_loss(locs[lane], mdr[lane]));
    for lane in 0..ids.len() {
        if intensity[lane] > 0.0 && mdr[lane] > 0.0 && loss[lane] > 0.0 {
            let pair = PairLoss {
                mdr: mdr[lane],
                loss: loss[lane],
            };
            f(locs[lane], pair);
        }
    }
}

/// Running loss moments of one event over the locations it damages,
/// in the order they are absorbed. The variance decomposition follows
/// the industry convention: per-location sds combine in quadrature
/// (`var_sum`, the independent part) and linearly (`sd_sum`, the
/// correlated part).
#[derive(Default)]
pub(crate) struct EventLoss {
    pub(crate) mean: f64,
    pub(crate) var_sum: f64,
    pub(crate) sd_sum: f64,
    pub(crate) damaged: usize,
}

impl EventLoss {
    #[inline]
    pub(crate) fn absorb(&mut self, loc: &ExposureLocation, pair: &PairLoss) {
        let sd_loc = loc.construction.damage_ratio_sd(pair.mdr) * loc.tiv;
        self.mean += pair.loss;
        self.var_sum += sd_loc * sd_loc;
        self.sd_sum += sd_loc;
        self.damaged += 1;
    }
}

/// The lowest intensity at which any of `locations` can pay — a lower
/// bound, so that below it the chain certainly ends at a deductible.
///
/// A location pays when `tiv × mdr − deductible > 0`, which needs
/// `mdr ≥ deductible / tiv` in the reals. The computed quotient is
/// within half an ulp of the real one, so a damage ratio *strictly
/// below the computed quotient* is a whole ulp below it and therefore
/// below the real one: `tiv × mdr < deductible`, the rounded product is
/// at most the deductible, and the loss is 0. Per construction class
/// the smallest quotient goes through the conservative logistic
/// inverse; the book's answer is the smallest of the four (`+inf` for
/// an absent class, and for a class that can never pay).
fn lowest_paying_intensity(locations: &[ExposureLocation]) -> f64 {
    let mut min_ratio = [f64::INFINITY; ConstructionClass::ALL.len()];
    for loc in locations {
        let r = &mut min_ratio[loc.construction.code() as usize];
        *r = r.min(loc.deductible / loc.tiv);
    }
    ConstructionClass::ALL
        .iter()
        .zip(min_ratio)
        .map(|(class, ratio)| class.intensity_at_damage_ratio(ratio))
        .fold(f64::INFINITY, f64::min)
}

/// The hazard-vulnerability-financial composition for one (catalogue,
/// exposure) pair: computes per-location and per-event loss statistics.
pub struct GroundUpModel<'a> {
    catalog: &'a EventCatalog,
    exposure: &'a ExposurePortfolio,
    cfg: EltGenConfig,
    index: ExposureIndex,
    pay_intensity: f64,
}

impl<'a> GroundUpModel<'a> {
    /// Bind a catalogue and an exposure portfolio, indexing the
    /// portfolio's locations (O(locations)).
    pub fn new(
        catalog: &'a EventCatalog,
        exposure: &'a ExposurePortfolio,
        cfg: EltGenConfig,
    ) -> Self {
        Self {
            catalog,
            exposure,
            cfg,
            index: ExposureIndex::build(exposure.locations()),
            pay_intensity: lowest_paying_intensity(exposure.locations()),
        }
    }

    /// Hand `f` every location `event` damages, in ascending location
    /// index, and return how many pairs ran the exact chain to find
    /// them (see the module docs for why the rest may be skipped).
    fn for_each_damaged(
        &self,
        event: &CatalogEvent,
        f: impl FnMut(&ExposureLocation, PairLoss),
    ) -> u64 {
        let Some(reach) = distance_at_intensity(event.peril, event.magnitude, self.pay_intensity)
        else {
            return 0;
        };
        let candidates = self.index.within(event.center, reach);
        let ids = candidates.iter().map(|&i| i as usize);
        for_each_pair_loss(event, self.exposure.locations(), ids, f)
    }

    /// Stream the mean insured loss of every affected location for one
    /// event. This is the YELLT emission path: nothing is materialised.
    pub fn for_each_location_loss(&self, event_index: usize, mut f: impl FnMut(LocationId, f64)) {
        let event = &self.catalog.events()[event_index];
        self.for_each_damaged(event, |loc, pair| f(loc.id, pair.loss));
    }

    /// The ELT row for one event, or `None` if the event's mean loss is
    /// below threshold: σᵢ from the independent part of
    /// `EventLoss`, σc from the correlated part weighted by the
    /// correlation weight.
    pub fn event_record(&self, event_index: usize) -> Option<EltRecord> {
        self.event_row(event_index).0
    }

    fn event_row(&self, event_index: usize) -> (Option<EltRecord>, EltGenCounts) {
        let event = &self.catalog.events()[event_index];
        let mut sums = EventLoss::default();
        let mut exposure = 0.0f64;
        let pairs = self.for_each_damaged(event, |loc, pair| {
            sums.absorb(loc, &pair);
            exposure += location_max_loss(loc);
        });
        let counts = EltGenCounts {
            pairs,
            damaging: sums.damaged as u64,
        };
        if sums.mean < self.cfg.min_mean_loss {
            return (None, counts);
        }
        let w = self.cfg.correlation_weight;
        let record = EltRecord {
            event_id: event.id,
            mean_loss: sums.mean,
            sigma_i: ((1.0 - w) * sums.var_sum).sqrt(),
            sigma_c: w * sums.sd_sum,
            exposure: exposure.max(sums.mean),
        };
        (Some(record), counts)
    }

    /// Generate the full ELT, parallelised over events.
    pub fn generate_elt(&self, pool: &ThreadPool) -> RiskResult<Elt> {
        Ok(self.generate_counted(pool)?.0)
    }

    /// The full ELT, one pool scope over the catalogue's events, with
    /// the work its generation did.
    fn generate_counted(&self, pool: &ThreadPool) -> RiskResult<(Elt, EltGenCounts)> {
        let events = self.catalog.len();
        let grain = suggest_grain(events, pool.thread_count(), 16);
        let rows = par_map_collect(pool, events, grain, |event| self.event_row(event));
        let mut counts = EltGenCounts::default();
        let mut builder = EltBuilder::with_capacity(events);
        for (record, row_counts) in rows {
            counts.pairs += row_counts.pairs;
            counts.damaging += row_counts.damaging;
            if let Some(record) = record {
                builder.push(record)?;
            }
        }
        Ok((builder.build()?, counts))
    }
}

/// Generate one ELT per book of `exposures`, book by book, with the
/// work the generation did. For each book in turn: take its exposure
/// from `exposures` (a lazy source is asked for book *b* + 1 only after
/// book *b* is done), build its [`GroundUpModel`], generate its ELT on
/// `pool`, drop the model and its location index, and hand the exposure
/// to `keep` by value — which drops it, or keeps it. The first error,
/// from the source or a book, ends the run.
pub fn generate_elts(
    catalog: &EventCatalog,
    exposures: impl IntoIterator<Item = RiskResult<ExposurePortfolio>>,
    cfg: EltGenConfig,
    pool: &ThreadPool,
    mut keep: impl FnMut(ExposurePortfolio),
) -> RiskResult<(Vec<Elt>, EltGenCounts)> {
    let mut counts = EltGenCounts::default();
    let mut elts = Vec::new();
    for exposure in exposures {
        let exposure = exposure?;
        let (elt, book) = GroundUpModel::new(catalog, &exposure, cfg).generate_counted(pool)?;
        counts.pairs += book.pairs;
        counts.damaging += book.damaging;
        elts.push(elt);
        keep(exposure);
    }
    Ok((elts, counts))
}

/// One contract's book of business: its exposure and the ELT the model
/// produced for it.
#[derive(Debug, Clone)]
pub struct Book {
    /// The contract's exposure portfolio.
    pub exposure: Arc<ExposurePortfolio>,
    /// The contract's event-loss table.
    pub elt: Arc<Elt>,
}

/// Everything stage 1 hands to stage 2: catalogue, per-contract books,
/// and the pre-simulated year-event table.
#[derive(Debug, Clone)]
pub struct Stage1Output {
    /// The stochastic event catalogue.
    pub catalog: Arc<EventCatalog>,
    /// One book per contract.
    pub books: Vec<Book>,
    /// The pre-simulated YET shared by all contracts.
    pub yet: Arc<YearEventTable>,
}

impl Stage1Output {
    /// Run stage 1 end-to-end: one ELT per exposure portfolio, book by
    /// book ([`generate_elts`], which hands each exposure back here to
    /// be kept in its book), then the YET pre-simulation. A caller
    /// that keeps no exposure runs [`generate_elts`] itself, so that
    /// only one book's exposure is ever alive; this output keeps them
    /// all. Returns the ELT generation's work counts beside the output.
    pub fn build(
        catalog: EventCatalog,
        exposures: impl IntoIterator<Item = RiskResult<ExposurePortfolio>>,
        elt_cfg: EltGenConfig,
        yet_cfg: YetConfig,
        pool: &ThreadPool,
    ) -> RiskResult<(Self, EltGenCounts)> {
        let catalog = Arc::new(catalog);
        let mut kept = Vec::new();
        let (elts, counts) = generate_elts(&catalog, exposures, elt_cfg, pool, |exposure| {
            kept.push(Arc::new(exposure));
        })?;
        let books = kept
            .into_iter()
            .zip(elts)
            .map(|(exposure, elt)| Book {
                exposure,
                elt: Arc::new(elt),
            })
            .collect();
        let yet = simulate_yet(&catalog, &yet_cfg, pool)?;
        let output = Self {
            catalog,
            books,
            yet: Arc::new(yet),
        };
        Ok((output, counts))
    }

    /// Approximate heap footprint of one retained model run — what a
    /// byte-budgeted stage-1 cache charges per entry: the catalogue's
    /// event records, each book's exposure locations and ELT columns,
    /// and the pre-simulated YET.
    pub fn memory_bytes(&self) -> usize {
        let catalog = self.catalog.len() * std::mem::size_of::<crate::catalog::CatalogEvent>();
        let books: usize = self
            .books
            .iter()
            .map(|b| {
                b.elt.memory_bytes()
                    + b.exposure.len() * std::mem::size_of::<crate::exposure::ExposureLocation>()
            })
            .sum();
        catalog + books + self.yet.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::exposure::ExposureConfig;
    use crate::geo::GeoPoint;
    use crate::hazard::site_intensity;
    use crate::peril::Peril;
    use riskpipe_types::EventId;

    /// How the scalar chain ends for one pair.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Exit {
        Intensity,
        Ratio,
        Loss,
        Pays { mdr: u64, loss: u64 },
    }

    /// The chain one pair at a time, with its early exits as branches:
    /// the lane kernel's oracle.
    fn scalar_chain(event: &CatalogEvent, loc: &ExposureLocation) -> Exit {
        let intensity = site_intensity(event, &loc.position);
        if intensity <= 0.0 {
            return Exit::Intensity;
        }
        let mdr = loc.construction.mean_damage_ratio(intensity);
        if mdr <= 0.0 {
            return Exit::Ratio;
        }
        let loss = location_loss(loc, mdr);
        if loss <= 0.0 {
            return Exit::Loss;
        }
        Exit::Pays {
            mdr: mdr.to_bits(),
            loss: loss.to_bits(),
        }
    }

    /// Blocks of 0, 1, 7, 8, 9, 16 and 17 candidates whose lanes end at
    /// every exit of the chain — intensity ≤ 0 (past the footprint),
    /// damage ratio ≤ 0 (an intensity too small to lift the logistic
    /// off its floor), insured loss ≤ 0 (a deductible as large as the
    /// TIV) — or pay, in every lane position: the kernel hands out
    /// exactly the oracle's survivors, in candidate order, with the
    /// oracle's bits.
    #[test]
    fn lane_kernel_matches_the_scalar_chain_at_every_block_seam() {
        let event = |peril, magnitude| CatalogEvent {
            id: EventId::new(0),
            peril,
            rate: 0.01,
            magnitude,
            center: GeoPoint::new(0.0, 0.0),
        };
        // Five kinds of site (km east of the centre, class, deductible
        // ratio), cycled over a book of 41 with a period prime to the
        // block width.
        let kinds: [(f64, ConstructionClass, f64); 5] = [
            (0.0, ConstructionClass::Masonry, 0.0),
            (450.0, ConstructionClass::Wood, 0.0),
            (350.0, ConstructionClass::Steel, 0.0),
            (5.0, ConstructionClass::Wood, 1.0),
            (20.0, ConstructionClass::Concrete, 0.0),
        ];
        let locations: Vec<ExposureLocation> = (0..41u32)
            .map(|i| {
                let (x, construction, ratio) = kinds[i as usize % kinds.len()];
                let tiv = 1.0e6 + 1_000.0 * f64::from(i);
                ExposureLocation {
                    id: LocationId::new(i),
                    position: GeoPoint::new(x, 0.0),
                    tiv,
                    construction,
                    deductible: tiv * ratio,
                    limit: tiv * 0.8,
                }
            })
            .collect();
        // A hurricane so weak that 350 km out its intensity, though
        // positive, vanishes against the logistic's midpoint (damage
        // ratio 0), beside two ordinary events.
        let faint = event(Peril::Hurricane, 1e-14);
        let events = [
            faint,
            event(Peril::Earthquake, 7.0),
            event(Peril::Hurricane, 8.5),
        ];
        let faint_exits: Vec<Exit> = locations[..17]
            .iter()
            .map(|l| scalar_chain(&faint, l))
            .collect();
        for want in [Exit::Intensity, Exit::Ratio, Exit::Loss] {
            assert!(faint_exits.contains(&want), "fixture: no {want:?} exit");
        }
        for event in &events {
            let exits: Vec<Exit> = locations.iter().map(|l| scalar_chain(event, l)).collect();
            let paying = exits.iter().filter(|e| matches!(e, Exit::Pays { .. }));
            assert!(paying.count() >= 16, "fixture: too few paying sites");
            for count in [0usize, 1, 7, 8, 9, 16, 17] {
                for stride in [1usize, 2] {
                    let candidates: Vec<usize> = (0..count).map(|k| k * stride).collect();
                    let mut got = Vec::new();
                    let pairs =
                        for_each_pair_loss(event, &locations, candidates.clone(), |l, p| {
                            got.push((l.id, p.mdr.to_bits(), p.loss.to_bits()))
                        });
                    let want: Vec<_> = candidates
                        .iter()
                        .filter_map(|&i| match exits[i] {
                            Exit::Pays { mdr, loss } => Some((locations[i].id, mdr, loss)),
                            _ => None,
                        })
                        .collect();
                    let label = format!("{} {count} candidates, stride {stride}", event.peril);
                    assert_eq!(pairs, count as u64, "{label}");
                    assert_eq!(got, want, "{label}");
                }
            }
        }
    }

    fn small_inputs() -> (EventCatalog, ExposurePortfolio) {
        let cat = EventCatalog::generate(&CatalogConfig {
            events: 300,
            total_annual_rate: 20.0,
            seed: 11,
            ..CatalogConfig::default()
        })
        .unwrap();
        let exp = ExposurePortfolio::generate(&ExposureConfig {
            locations: 200,
            seed: 12,
            ..ExposureConfig::default()
        })
        .unwrap();
        (cat, exp)
    }

    #[test]
    fn elt_rows_satisfy_invariants() {
        let (cat, exp) = small_inputs();
        let model = GroundUpModel::new(&cat, &exp, EltGenConfig::default());
        let pool = ThreadPool::new(2);
        let elt = model.generate_elt(&pool).unwrap();
        assert!(!elt.is_empty(), "expected some loss-causing events");
        for r in elt.iter() {
            assert!(r.mean_loss > 0.0);
            assert!(r.sigma_i >= 0.0 && r.sigma_c >= 0.0);
            assert!(r.exposure >= r.mean_loss);
            // Total portfolio value bounds any event's exposure.
            assert!(r.exposure <= exp.total_tiv());
        }
    }

    #[test]
    fn parallel_and_serial_elt_agree() {
        let (cat, exp) = small_inputs();
        let model = GroundUpModel::new(&cat, &exp, EltGenConfig::default());
        let p1 = ThreadPool::new(1);
        let p4 = ThreadPool::new(4);
        let a = model.generate_elt(&p1).unwrap();
        let b = model.generate_elt(&p4).unwrap();
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn event_record_matches_location_stream() {
        let (cat, exp) = small_inputs();
        let model = GroundUpModel::new(&cat, &exp, EltGenConfig::default());
        // Find an event with a record and cross-check its mean against
        // the per-location stream.
        let mut checked = 0;
        for i in 0..cat.len() {
            if let Some(rec) = model.event_record(i) {
                let mut sum = 0.0;
                model.for_each_location_loss(i, |_, l| sum += l);
                assert!(
                    (sum - rec.mean_loss).abs() < 1e-6 * rec.mean_loss.max(1.0),
                    "event {i}: stream {sum} vs record {}",
                    rec.mean_loss
                );
                checked += 1;
                if checked > 10 {
                    break;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn higher_correlation_weight_shifts_sigma() {
        let (cat, exp) = small_inputs();
        let low = GroundUpModel::new(
            &cat,
            &exp,
            EltGenConfig {
                correlation_weight: 0.0,
                ..EltGenConfig::default()
            },
        );
        let high = GroundUpModel::new(
            &cat,
            &exp,
            EltGenConfig {
                correlation_weight: 0.9,
                ..EltGenConfig::default()
            },
        );
        let mut found = false;
        for i in 0..cat.len() {
            if let (Some(a), Some(b)) = (low.event_record(i), high.event_record(i)) {
                assert!(a.sigma_c <= b.sigma_c);
                assert!(a.sigma_i >= b.sigma_i);
                assert_eq!(a.mean_loss, b.mean_loss);
                found = true;
                break;
            }
        }
        assert!(found);
    }

    /// Every column of an ELT as raw bits.
    fn elt_bits(elt: &Elt) -> Vec<Vec<u64>> {
        let (ids, mean, sigma_i, sigma_c, exposure) = elt.columns();
        let mut bits = vec![ids.iter().map(|&id| u64::from(id)).collect::<Vec<_>>()];
        for column in [mean, sigma_i, sigma_c, exposure] {
            bits.push(column.iter().map(|v| v.to_bits()).collect());
        }
        bits
    }

    /// The loop holds one book at a time. Over four books of a lazy
    /// source, it asks for book b + 1's exposure only after it has
    /// handed book b's exposure, by value, to the sink — a loop that
    /// generated every exposure before the first ELT would hand book 0
    /// over with all four asked for. Its ELTs and counts are
    /// `Stage1Output::build`'s, bit for bit, and the sink got the very
    /// portfolios the source made.
    #[test]
    fn books_run_one_at_a_time_and_match_the_kept_output() {
        let (cat, _) = small_inputs();
        let book = |b: usize| {
            ExposurePortfolio::generate(&ExposureConfig {
                locations: 150 + 37 * b,
                seed: 40 + b as u64,
                ..ExposureConfig::default()
            })
        };
        let asked = std::cell::Cell::new(0usize);
        let source = (0..4).map(|b| {
            asked.set(asked.get() + 1);
            book(b)
        });
        let mut handed = Vec::new();
        let cfg = EltGenConfig::default();
        let pool = ThreadPool::new(2);
        let (elts, counts) = generate_elts(&cat, source, cfg, &pool, |exposure| {
            handed.push((asked.get(), exposure));
        })
        .unwrap();
        let asked_when_handed: Vec<usize> = handed.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            asked_when_handed,
            [1, 2, 3, 4],
            "more than one book in flight"
        );
        for (b, (_, exposure)) in handed.iter().enumerate() {
            assert_eq!(
                exposure.locations(),
                book(b).unwrap().locations(),
                "book {b}"
            );
        }

        let yet_cfg = YetConfig {
            trials: 20,
            seed: 3,
        };
        let (out, want) = Stage1Output::build(cat, (0..4).map(book), cfg, yet_cfg, &pool).unwrap();
        assert_eq!(counts, want);
        assert!(counts.damaging > 0);
        assert_eq!(elts.len(), out.books.len());
        for (b, (elt, kept)) in elts.iter().zip(&out.books).enumerate() {
            assert!(!elt.is_empty(), "book {b}: fixture has no rows");
            assert_eq!(elt_bits(elt), elt_bits(&kept.elt), "book {b}");
            assert_eq!(kept.exposure.locations(), book(b).unwrap().locations());
        }
    }

    #[test]
    fn stage1_build_produces_books_and_yet() {
        let (cat, exp) = small_inputs();
        let pool = ThreadPool::new(2);
        let (out, counts) = Stage1Output::build(
            cat,
            [Ok(exp)],
            EltGenConfig::default(),
            YetConfig {
                trials: 50,
                seed: 5,
            },
            &pool,
        )
        .unwrap();
        assert!(counts.damaging > 0 && counts.damaging <= counts.pairs);
        assert_eq!(out.books.len(), 1);
        assert!(!out.books[0].elt.is_empty());
        assert_eq!(out.yet.trials(), 50);
    }
}
