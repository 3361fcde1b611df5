//! Bit pins for the stage-1 book kernels at a scale where they run in
//! lanes.
//!
//! Exposure generation inverts its normal quantiles in blocks of eight
//! locations, and ELT generation runs the loss chain over blocks of
//! eight candidates. Both must produce exactly the bits that one
//! location, or one pair, at a time gives. The portfolios here have a
//! few thousand locations whose counts are not multiples of eight, so
//! full blocks and short tails both occur, and the catalogue holds all
//! three perils. Every pinned value is an FNV-1a hash over the raw bits
//! of every field; never edit one to make a change pass.

use riskpipe_catmodel::eltgen::generate_elts;
use riskpipe_catmodel::{
    rapid_estimate, CatalogConfig, EltGenConfig, EventCatalog, ExposureConfig, ExposurePortfolio,
    ObservedEvent, Peril,
};
use riskpipe_exec::ThreadPool;
use riskpipe_tables::elt::Elt;

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn float(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }
}

/// Two books: 3 001 and 3 013 locations (tails of 1 and 5 after the
/// full blocks of eight), one of them without a deductible so that its
/// footprint falls back to the physical radius.
fn portfolios() -> [ExposurePortfolio; 2] {
    let a = ExposurePortfolio::generate(&ExposureConfig {
        locations: 3_001,
        seed: 0x5EED_0001,
        ..ExposureConfig::default()
    })
    .unwrap();
    let b = ExposurePortfolio::generate(&ExposureConfig {
        locations: 3_013,
        clusters: 5,
        cluster_radius_km: 65.0,
        deductible_fraction: 0.0,
        seed: 0x5EED_0002,
        ..ExposureConfig::default()
    })
    .unwrap();
    [a, b]
}

fn catalog() -> EventCatalog {
    let cat = EventCatalog::generate(&CatalogConfig {
        events: 240,
        seed: 0xCA7_0038,
        ..CatalogConfig::default()
    })
    .unwrap();
    for peril in Peril::ALL {
        assert!(
            cat.events().iter().any(|e| e.peril == peril),
            "fixture: no {peril} event"
        );
    }
    cat
}

fn portfolio_hash(p: &ExposurePortfolio) -> u64 {
    let mut h = Fnv::new();
    h.word(p.len() as u64).float(p.total_tiv());
    for l in p.locations() {
        h.word(u64::from(l.id.raw()))
            .float(l.position.x)
            .float(l.position.y)
            .float(l.tiv)
            .word(u64::from(l.construction.code()))
            .float(l.deductible)
            .float(l.limit);
    }
    h.0
}

fn elt_hash(elt: &Elt) -> u64 {
    let (ids, mean, sigma_i, sigma_c, exposure) = elt.columns();
    let mut h = Fnv::new();
    h.word(elt.len() as u64);
    for &id in ids {
        h.word(u64::from(id));
    }
    for column in [mean, sigma_i, sigma_c, exposure] {
        for &v in column {
            h.float(v);
        }
    }
    h.0
}

#[test]
fn generated_portfolios_are_pinned() {
    let [a, b] = portfolios();
    let got = [portfolio_hash(&a), portfolio_hash(&b)];
    assert_eq!(
        got,
        [0x122e_a89f_b9e1_89a9, 0x1d35_13d9_0810_b2de],
        "portfolio bits moved: {got:#x?}"
    );
}

#[test]
fn elts_and_counts_are_pinned() {
    let cat = catalog();
    let pool = ThreadPool::new(2);
    let books = portfolios().map(Ok);
    let (elts, counts) = generate_elts(&cat, books, EltGenConfig::default(), &pool, drop).unwrap();
    let got = [elt_hash(&elts[0]), elt_hash(&elts[1])];
    assert_eq!(
        (elts[0].len(), elts[1].len(), counts.pairs, counts.damaging),
        (131, 182, 153_472, 117_251),
        "ELT shape or work counts moved"
    );
    assert_eq!(
        got,
        [0x1e9c_a466_e412_eb1b, 0x7c2e_e6c5_cddd_92a9],
        "ELT bits moved: {got:#x?}"
    );
}

#[test]
fn a_rapid_estimate_is_pinned() {
    let [book, _] = portfolios();
    let anchor = book.locations()[17].position;
    let observed = ObservedEvent {
        peril: Peril::Earthquake,
        magnitude: 7.4,
        center: riskpipe_catmodel::GeoPoint::new(anchor.x + 4.5, anchor.y - 3.0),
    };
    let est = rapid_estimate(&observed, &book, &EltGenConfig::default(), 12).unwrap();
    let mut h = Fnv::new();
    h.float(est.mean_loss)
        .float(est.sigma)
        .word(est.affected_locations as u64);
    for &(id, loss) in &est.top_locations {
        h.word(u64::from(id.raw())).float(loss);
    }
    assert_eq!(
        (est.affected_locations, est.top_locations.len(), h.0),
        (426, 12, 0xcfb6_5b90_7572_cc9a),
        "rapid estimate moved"
    );
}
