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
//!    that radius, in ascending location index.
//! 3. **Exact chain.** Each candidate runs [`pair_loss`] — the one
//!    place `site_intensity → mean_damage_ratio → location_loss` is
//!    written — and the survivors are accumulated.
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
//! `tests/elt_oracle.rs`).
//!
//! The generator parallelises over (book, event) pairs — each is
//! independent — in one pool scope for all books of a model run, and
//! assembles the per-event rows into the columnar ELTs at the end:
//! exactly the paper's stream-then-aggregate shape.

use crate::catalog::{CatalogEvent, EventCatalog};
use crate::exposure::{ExposureLocation, ExposurePortfolio};
use crate::financial::{location_loss, location_max_loss};
use crate::hazard::{distance_at_intensity, site_intensity};
use crate::index::ExposureIndex;
use crate::vulnerability::ConstructionClass;
use crate::yetgen::{simulate_yet, YetConfig};
use riskpipe_exec::{par_map_collect, suggest_grain, ThreadPool};
use riskpipe_tables::elt::{Elt, EltBuilder, EltRecord};
use riskpipe_tables::yet::YearEventTable;
use riskpipe_types::{LocationId, RiskResult};
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

/// The exact hazard → vulnerability → financial chain for one
/// (event, location) pair, or `None` at any of its three early exits.
#[inline]
pub(crate) fn pair_loss(event: &CatalogEvent, loc: &ExposureLocation) -> Option<PairLoss> {
    let intensity = site_intensity(event, &loc.position);
    if intensity <= 0.0 {
        return None;
    }
    let mdr = loc.construction.mean_damage_ratio(intensity);
    if mdr <= 0.0 {
        return None;
    }
    let loss = location_loss(loc, mdr);
    if loss <= 0.0 {
        return None;
    }
    Some(PairLoss { mdr, loss })
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
        mut f: impl FnMut(&ExposureLocation, PairLoss),
    ) -> u64 {
        let Some(reach) = distance_at_intensity(event.peril, event.magnitude, self.pay_intensity)
        else {
            return 0;
        };
        let candidates = self.index.within(event.center, reach);
        let locations = self.exposure.locations();
        for &i in &candidates {
            let loc = &locations[i as usize];
            if let Some(pair) = pair_loss(event, loc) {
                f(loc, pair);
            }
        }
        candidates.len() as u64
    }

    /// Stream the mean insured loss of every affected location for one
    /// event. This is the YELLT emission path: nothing is materialised.
    pub fn for_each_location_loss(&self, event_index: usize, mut f: impl FnMut(LocationId, f64)) {
        let event = &self.catalog.events()[event_index];
        self.for_each_damaged(event, |loc, pair| f(loc.id, pair.loss));
    }

    /// The ELT row for one event, or `None` if the event's mean loss is
    /// below threshold: σᵢ from the independent part of
    /// [`EventLoss`], σc from the correlated part weighted by the
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
        let (elts, _) = generate_elts(std::slice::from_ref(self), pool)?;
        Ok(elts.into_iter().next().expect("one ELT per model"))
    }
}

/// Generate one ELT per model — the books of one model run — in a
/// single pool scope over every (book, event) pair, with the work the
/// generation did.
pub fn generate_elts(
    models: &[GroundUpModel<'_>],
    pool: &ThreadPool,
) -> RiskResult<(Vec<Elt>, EltGenCounts)> {
    // Event `e` of model `m` is task `ends[m - 1] + e`.
    let ends: Vec<usize> = models
        .iter()
        .scan(0usize, |end, m| {
            *end += m.catalog.len();
            Some(*end)
        })
        .collect();
    let total = ends.last().copied().unwrap_or(0);
    let grain = suggest_grain(total, pool.thread_count(), 16);
    let rows = par_map_collect(pool, total, grain, |task| {
        let m = ends.partition_point(|&end| end <= task);
        let first = if m == 0 { 0 } else { ends[m - 1] };
        models[m].event_row(task - first)
    });
    let mut rows = rows.into_iter();
    let mut counts = EltGenCounts::default();
    let mut elts = Vec::with_capacity(models.len());
    for model in models {
        let events = model.catalog.len();
        let mut builder = EltBuilder::with_capacity(events);
        for (record, row_counts) in rows.by_ref().take(events) {
            counts.pairs += row_counts.pairs;
            counts.damaging += row_counts.damaging;
            if let Some(record) = record {
                builder.push(record)?;
            }
        }
        elts.push(builder.build()?);
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
    /// Run stage 1 end-to-end: one ELT per exposure portfolio (all
    /// generated in one pool scope) plus the YET pre-simulation.
    /// Returns the ELT generation's work counts beside the output.
    pub fn build(
        catalog: EventCatalog,
        exposures: Vec<ExposurePortfolio>,
        elt_cfg: EltGenConfig,
        yet_cfg: YetConfig,
        pool: &ThreadPool,
    ) -> RiskResult<(Self, EltGenCounts)> {
        let catalog = Arc::new(catalog);
        let (elts, counts) = {
            let models: Vec<GroundUpModel<'_>> = exposures
                .iter()
                .map(|exposure| GroundUpModel::new(&catalog, exposure, elt_cfg))
                .collect();
            generate_elts(&models, pool)?
        };
        let books = exposures
            .into_iter()
            .zip(elts)
            .map(|(exposure, elt)| Book {
                exposure: Arc::new(exposure),
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

    #[test]
    fn stage1_build_produces_books_and_yet() {
        let (cat, exp) = small_inputs();
        let pool = ThreadPool::new(2);
        let (out, counts) = Stage1Output::build(
            cat,
            vec![exp],
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
