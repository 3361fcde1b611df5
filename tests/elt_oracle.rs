//! The ELT generator against its oracle.
//!
//! `GroundUpModel` walks each event's damaging footprint through a
//! per-book location index instead of running every event against
//! every location. The contract is that nobody can tell: the ELT it
//! emits is **bit-identical** — all five columns, and which events get a
//! row at all — to the exhaustive event × location loop it replaced, on
//! any pool. That loop is kept here, verbatim, as the oracle, together
//! with the old hand-written bodies of the two other paths that now
//! share the pair kernel (`for_each_location_loss`, `rapid_estimate`).
//!
//! The fixtures aim at the places a footprint cut could go wrong: no
//! deductible (the cut falls back to the physical radius), deductibles
//! nothing can clear, mixed deductible ratios and classes, degenerate
//! grids, coincident points on the region boundary, both ends of the
//! magnitude range, and locations placed exactly on the cut distance
//! and one ulp either side of it. Proptests hold the two inverses the
//! cut is derived from to their conservative contracts.

use proptest::prelude::*;
use riskpipe::catmodel::eltgen::generate_elts;
use riskpipe::catmodel::financial::{location_loss, location_max_loss};
use riskpipe::catmodel::hazard::{distance_at_intensity, intensity_at_distance};
use riskpipe::catmodel::{
    rapid_estimate, site_intensity, CatalogConfig, CatalogEvent, ConstructionClass, EltGenConfig,
    EventCatalog, ExposureConfig, ExposureLocation, ExposurePortfolio, GeoPoint, GroundUpModel,
    ObservedEvent, Peril,
};
use riskpipe::exec::ThreadPool;
use riskpipe::tables::elt::EltRecord;
use riskpipe::types::{EventId, LocationId};

/// The exhaustive loop's ELT row for one event, and how many locations
/// paid — the body of the old `GroundUpModel::event_record`.
fn exhaustive_row(
    event: &CatalogEvent,
    exposure: &ExposurePortfolio,
    cfg: &EltGenConfig,
) -> (Option<EltRecord>, u64) {
    let mut mean = 0.0f64;
    let mut var_sum = 0.0f64;
    let mut sd_sum = 0.0f64;
    let mut exposed = 0.0f64;
    let mut damaging = 0u64;
    for loc in exposure.locations() {
        let intensity = site_intensity(event, &loc.position);
        if intensity <= 0.0 {
            continue;
        }
        let mdr = loc.construction.mean_damage_ratio(intensity);
        if mdr <= 0.0 {
            continue;
        }
        let loss = location_loss(loc, mdr);
        if loss <= 0.0 {
            continue;
        }
        let sd_loc = loc.construction.damage_ratio_sd(mdr) * loc.tiv;
        mean += loss;
        var_sum += sd_loc * sd_loc;
        sd_sum += sd_loc;
        exposed += location_max_loss(loc);
        damaging += 1;
    }
    if mean < cfg.min_mean_loss {
        return (None, damaging);
    }
    let w = cfg.correlation_weight;
    let record = EltRecord {
        event_id: event.id,
        mean_loss: mean,
        sigma_i: ((1.0 - w) * var_sum).sqrt(),
        sigma_c: w * sd_sum,
        exposure: exposed.max(mean),
    };
    (Some(record), damaging)
}

/// The old `for_each_location_loss` body: every location, in order.
fn exhaustive_stream(event: &CatalogEvent, exposure: &ExposurePortfolio) -> Vec<(LocationId, u64)> {
    let mut out = Vec::new();
    for loc in exposure.locations() {
        let intensity = site_intensity(event, &loc.position);
        if intensity <= 0.0 {
            continue;
        }
        let mdr = loc.construction.mean_damage_ratio(intensity);
        if mdr <= 0.0 {
            continue;
        }
        let loss = location_loss(loc, mdr);
        if loss > 0.0 {
            out.push((loc.id, loss.to_bits()));
        }
    }
    out
}

fn record_bits(r: &EltRecord) -> (u32, [u64; 4]) {
    (
        r.event_id.raw(),
        [
            r.mean_loss.to_bits(),
            r.sigma_i.to_bits(),
            r.sigma_c.to_bits(),
            r.exposure.to_bits(),
        ],
    )
}

/// Indexed generation `==` exhaustive generation for this (catalogue,
/// book): ELT rows and row presence `to_bits`-equal on 1/2/8-thread
/// pools, the damaging count equal to the oracle's, the per-event
/// record and the location-loss stream equal too. Returns the oracle's
/// row count and the pairs the indexed generator evaluated.
fn assert_matches_oracle(
    label: &str,
    catalog: &EventCatalog,
    exposure: &ExposurePortfolio,
) -> (usize, u64) {
    let cfg = EltGenConfig::default();
    // Per event: the oracle's row (if any) and its damaged locations.
    let mut want_per_event = Vec::new();
    let mut want_damaging = 0u64;
    for event in catalog.events() {
        let (record, damaging) = exhaustive_row(event, exposure, &cfg);
        want_per_event.push(record.as_ref().map(record_bits));
        want_damaging += damaging;
    }
    let want_rows: Vec<_> = want_per_event.iter().flatten().copied().collect();
    let model = GroundUpModel::new(catalog, exposure, cfg);
    let mut pairs_seen = None;
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let book = [Ok(exposure.clone())];
        let (elts, counts) = generate_elts(catalog, book, cfg, &pool, drop).unwrap();
        let got_rows: Vec<_> = elts[0].iter().map(|r| record_bits(&r)).collect();
        assert_eq!(
            got_rows, want_rows,
            "{label}: ELT differs on {threads} threads"
        );
        assert_eq!(counts.damaging, want_damaging, "{label}: damaging count");
        assert!(counts.pairs >= counts.damaging, "{label}: pairs < damaging");
        assert!(
            counts.pairs <= (catalog.len() * exposure.len()) as u64,
            "{label}: more pairs than the product"
        );
        assert_eq!(
            *pairs_seen.get_or_insert(counts.pairs),
            counts.pairs,
            "{label}: pair count depends on the pool"
        );
    }
    for (i, event) in catalog.events().iter().enumerate() {
        assert_eq!(
            model.event_record(i).as_ref().map(record_bits),
            want_per_event[i],
            "{label}: event_record({i})"
        );
        let mut stream = Vec::new();
        model.for_each_location_loss(i, |id, loss| stream.push((id, loss.to_bits())));
        assert_eq!(
            stream,
            exhaustive_stream(event, exposure),
            "{label}: location-loss stream of event {i}"
        );
    }
    (want_rows.len(), pairs_seen.unwrap())
}

fn catalog(events: usize, seed: u64) -> EventCatalog {
    EventCatalog::generate(&CatalogConfig {
        events,
        seed,
        ..CatalogConfig::default()
    })
    .unwrap()
}

fn book(cfg: ExposureConfig) -> ExposurePortfolio {
    ExposurePortfolio::generate(&cfg).unwrap()
}

fn event(i: u32, peril: Peril, magnitude: f64, x: f64, y: f64) -> CatalogEvent {
    CatalogEvent {
        id: EventId::new(i),
        peril,
        rate: 0.01,
        magnitude,
        center: GeoPoint::new(x, y),
    }
}

fn events(list: Vec<CatalogEvent>) -> EventCatalog {
    EventCatalog::from_parts(list, 1.0).unwrap()
}

fn site(
    i: usize,
    x: f64,
    y: f64,
    class: ConstructionClass,
    deductible_ratio: f64,
) -> ExposureLocation {
    let tiv = 1.0e6 + 37_000.0 * i as f64;
    ExposureLocation {
        id: LocationId::new(i as u32),
        position: GeoPoint::new(x, y),
        tiv,
        construction: class,
        deductible: tiv * deductible_ratio,
        limit: tiv * 0.8,
    }
}

fn sites(list: Vec<ExposureLocation>) -> ExposurePortfolio {
    let total = list.iter().map(|l| l.tiv).sum();
    ExposurePortfolio::from_parts(list, total).unwrap()
}

/// The `cold_models` shape (one catalogue, large clustered books) cut
/// down for a debug build, over several seeds — and the footprint walk
/// must actually be selective on it, not merely correct.
#[test]
fn cold_models_shape_matches_the_exhaustive_loop() {
    for seed in [12_345u64, 7, 41, 0xC01D] {
        let cat = catalog(160, seed ^ 0xCA_7A_06);
        let exp = book(ExposureConfig {
            locations: 2_000,
            seed: seed ^ 0xE4905,
            ..ExposureConfig::default()
        });
        let (rows, pairs) = assert_matches_oracle(&format!("seed {seed}"), &cat, &exp);
        assert!(rows > 0, "seed {seed}: fixture produced no ELT rows");
        let product = (cat.len() * exp.len()) as u64;
        assert!(
            pairs * 10 < product,
            "seed {seed}: {pairs} of {product} pairs evaluated — footprint not selective"
        );
    }
}

/// No deductible: any positive damage pays, so the footprint is the
/// peril's physical radius and nothing inside it may be skipped.
#[test]
fn zero_deductible_falls_back_to_the_physical_radius() {
    let cat = catalog(120, 99);
    let exp = book(ExposureConfig {
        locations: 600,
        deductible_fraction: 0.0,
        seed: 5,
        ..ExposureConfig::default()
    });
    let (rows, _) = assert_matches_oracle("zero deductible", &cat, &exp);
    assert!(rows > 0);
}

/// Deductible ≥ TIV everywhere: no location can ever pay, so there are
/// no rows — and the generator knows without evaluating a single pair.
#[test]
fn deductible_at_or_above_tiv_pays_nothing() {
    let cat = catalog(80, 3);
    let list = (0..300)
        .map(|i| {
            let ratio = if i % 2 == 0 { 1.0 } else { 2.5 };
            let class = ConstructionClass::ALL[i % 4];
            site(
                i,
                10.0 + 3.1 * i as f64,
                990.0 - 2.9 * i as f64,
                class,
                ratio,
            )
        })
        .collect();
    let (rows, pairs) = assert_matches_oracle("deductible >= tiv", &cat, &sites(list));
    assert_eq!((rows, pairs), (0, 0));
}

/// A hand-assembled book: all four classes, deductible ratios from 0
/// to 60 % (one location per class with none at all), scattered over
/// the region.
#[test]
fn mixed_deductible_ratios_and_classes() {
    let cat = catalog(200, 17);
    let ratios = [0.0, 1e-7, 0.002, 0.01, 0.05, 0.25, 0.6];
    let list = (0..420)
        .map(|i| {
            let (x, y) = ((i * 37 % 1000) as f64, (i * 91 % 1000) as f64 + 0.25);
            site(i, x, y, ConstructionClass::ALL[i % 4], ratios[i % 7])
        })
        .collect();
    let (rows, _) = assert_matches_oracle("mixed book", &cat, &sites(list));
    assert!(rows > 0);
    // The same book without its zero-deductible locations has a real
    // footprint cut; it must hold there too.
    let list = (0..420)
        .filter(|i| ratios[i % 7] >= 0.002)
        .enumerate()
        .map(|(k, i)| {
            let (x, y) = ((i * 37 % 1000) as f64, (i * 91 % 1000) as f64 + 0.25);
            site(k, x, y, ConstructionClass::ALL[i % 4], ratios[i % 7])
        })
        .collect();
    let (rows, _) = assert_matches_oracle("mixed book, deductibles only", &cat, &sites(list));
    assert!(rows > 0);
}

/// Degenerate grids: one location; many coincident locations (a book
/// with no extent); a tight clump that one far outlier squeezes into a
/// single cell of a huge bounding box.
#[test]
fn degenerate_grids() {
    let cat = catalog(300, 23);
    let centre = cat.events()[0].center;
    let single = sites(vec![site(
        0,
        centre.x + 3.0,
        centre.y - 4.0,
        ConstructionClass::Masonry,
        0.01,
    )]);
    assert_matches_oracle("single location", &cat, &single);

    let coincident = sites(
        (0..64)
            .map(|i| site(i, centre.x, centre.y, ConstructionClass::ALL[i % 4], 0.01))
            .collect(),
    );
    let (rows, _) = assert_matches_oracle("coincident", &cat, &coincident);
    assert!(rows > 0, "event 0 sits on the clump");

    let mut clump: Vec<_> = (0..200)
        .map(|i| {
            let (dx, dy) = ((i % 15) as f64 * 0.01, (i / 15) as f64 * 0.01);
            site(
                i,
                centre.x + dx,
                centre.y + dy,
                ConstructionClass::ALL[i % 4],
                0.01,
            )
        })
        .collect();
    clump.push(site(200, 4.0e6, -9.0e6, ConstructionClass::Wood, 0.01));
    let (rows, _) = assert_matches_oracle("one cell + outlier", &cat, &sites(clump));
    assert!(rows > 0);
}

/// Clusters far wider than the region pile locations onto its boundary
/// (clamping makes many of them coincide), and the events sit on the
/// boundary and its corners too.
#[test]
fn region_boundary() {
    let exp = book(ExposureConfig {
        locations: 800,
        clusters: 3,
        cluster_radius_km: 900.0,
        seed: 77,
        ..ExposureConfig::default()
    });
    let on_edge = exp
        .locations()
        .iter()
        .filter(|l| [0.0, 1000.0].contains(&l.position.x) || [0.0, 1000.0].contains(&l.position.y))
        .count();
    assert!(on_edge > 200, "fixture: only {on_edge} clamped locations");
    let mut list = Vec::new();
    for (k, &(x, y)) in [
        (0.0, 0.0),
        (1000.0, 1000.0),
        (0.0, 1000.0),
        (1000.0, 431.0),
        (0.0, 250.0),
        (612.5, 0.0),
        (333.0, 1000.0),
    ]
    .iter()
    .enumerate()
    {
        for (p, peril) in Peril::ALL.into_iter().enumerate() {
            list.push(event((k * 3 + p) as u32, peril, 6.0 + 0.4 * k as f64, x, y));
        }
    }
    let (rows, _) = assert_matches_oracle("boundary", &events(list), &exp);
    assert!(rows > 0);
}

/// Both ends of the magnitude range (and a step beyond each) for every
/// peril: the smallest footprints, which may be empty, and the largest,
/// which the physical radius caps.
#[test]
fn magnitude_extremes_per_peril() {
    let exp = book(ExposureConfig {
        locations: 900,
        seed: 8,
        ..ExposureConfig::default()
    });
    let anchor = exp.locations()[0].position;
    let mut list = Vec::new();
    for peril in Peril::ALL {
        for magnitude in [0.5, 5.0, 5.0001, 8.9999, 9.0, 12.0] {
            for (dx, dy) in [(0.0, 0.0), (35.0, -20.0), (-140.0, 90.0)] {
                let id = list.len() as u32;
                list.push(event(id, peril, magnitude, anchor.x + dx, anchor.y + dy));
            }
        }
    }
    let (rows, _) = assert_matches_oracle("magnitude extremes", &events(list), &exp);
    assert!(rows > 0);
}

/// Locations exactly on the cut distance and one ulp either side, for
/// both kinds of cut: the damaging footprint of a one-class,
/// one-ratio book (whose paying intensity the public inverses give),
/// and the physical radius of a zero-deductible book.
#[test]
fn locations_on_the_cut_distance() {
    let class = ConstructionClass::Masonry;
    for ratio in [0.01, 0.0] {
        let pay_intensity = class.intensity_at_damage_ratio(ratio);
        let mut list = Vec::new();
        let mut placed = Vec::new();
        for (k, peril) in Peril::ALL.into_iter().enumerate() {
            for (j, magnitude) in [5.3, 6.8, 8.4].into_iter().enumerate() {
                // Spread the events so their probe rings do not overlap.
                let (cx, cy) = (1_500.0 * k as f64, 1_500.0 * j as f64 + 0.1);
                list.push(event(list.len() as u32, peril, magnitude, cx, cy));
                let Some(reach) = distance_at_intensity(peril, magnitude, pay_intensity) else {
                    continue;
                };
                // East and north of the centre the distance *is* the
                // coordinate offset, up to one rounding; the diagonal
                // probes go through the full dx² + dy² path.
                let diag = reach / 2f64.sqrt();
                for r in [reach, reach * (1.0 + 1e-9) + 1e-9, peril.max_radius_km()] {
                    for x in [cx + r, (cx + r).next_up(), (cx + r).next_down()] {
                        placed.push((x, cy));
                    }
                    for y in [cy + r, (cy + r).next_up(), (cy + r).next_down()] {
                        placed.push((cx, y));
                    }
                }
                for d in [diag, diag.next_up(), diag.next_down()] {
                    placed.push((cx + d, cy + d));
                    placed.push((cx - d, cy - d));
                }
                placed.push((cx, cy));
            }
        }
        let list_sites = placed
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| site(i, x, y, class, ratio))
            .collect();
        let label = format!("cut distance, ratio {ratio}");
        let (rows, _) = assert_matches_oracle(&label, &events(list), &sites(list_sites));
        assert!(rows > 0, "{label}: centre probes must pay");
    }
}

/// `rapid_estimate` shares the pair kernel; its numbers are the old
/// hand-written loop's, bit for bit.
#[test]
fn rapid_estimate_matches_its_old_loop() {
    let exp = book(ExposureConfig {
        locations: 700,
        seed: 33,
        ..ExposureConfig::default()
    });
    let cfg = EltGenConfig::default();
    let anchor = exp.locations()[3].position;
    for peril in Peril::ALL {
        for magnitude in [5.5, 7.0, 8.8] {
            let observed = ObservedEvent {
                peril,
                magnitude,
                center: GeoPoint::new(anchor.x + 6.0, anchor.y - 2.5),
            };
            let as_catalog = event(0, peril, magnitude, observed.center.x, observed.center.y);
            let mut mean = 0.0f64;
            let mut var_sum = 0.0f64;
            let mut sd_sum = 0.0f64;
            let mut affected = 0usize;
            let mut per_location = Vec::new();
            for loc in exp.locations() {
                let d = observed.center.distance_km(&loc.position);
                let intensity = intensity_at_distance(peril, magnitude, d);
                if intensity <= 0.0 {
                    continue;
                }
                let mdr = loc.construction.mean_damage_ratio(intensity);
                if mdr <= 0.0 {
                    continue;
                }
                let loss = location_loss(loc, mdr);
                if loss <= 0.0 {
                    continue;
                }
                affected += 1;
                mean += loss;
                let sd_loc = loc.construction.damage_ratio_sd(mdr) * loc.tiv;
                var_sum += sd_loc * sd_loc;
                sd_sum += sd_loc;
                per_location.push((loc.id, loss));
            }
            let w = cfg.correlation_weight;
            let sigma_c = w * sd_sum;
            let sigma = ((1.0 - w) * var_sum + sigma_c * sigma_c).sqrt();
            per_location.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
            per_location.truncate(10);

            let got = rapid_estimate(&observed, &exp, &cfg, 10).unwrap();
            assert_eq!(
                got.mean_loss.to_bits(),
                mean.to_bits(),
                "{peril} {magnitude}"
            );
            assert_eq!(got.sigma.to_bits(), sigma.to_bits(), "{peril} {magnitude}");
            assert_eq!(got.affected_locations, affected);
            assert_eq!(got.top_locations, per_location);
            // The same event through the ELT path damages the same
            // locations.
            assert_eq!(exhaustive_row(&as_catalog, &exp, &cfg).1 as usize, affected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Past `distance_at_intensity` the computed intensity is below
    /// the target (or exactly 0, past the physical radius) — at the
    /// very next float, just past, and anywhere beyond.
    #[test]
    fn distance_inverse_is_conservative(
        peril in 0usize..3,
        magnitude in 0.1f64..10.0,
        target in -0.5f64..13.5,
        shrink in 0u32..40,
        beyond in 0.0f64..1.0,
    ) {
        let peril = Peril::ALL[peril];
        // Sweep the target over many decades: footprint thresholds can
        // be tiny (a near-zero deductible) as well as of order 1.
        let target = target / f64::powi(2.0, shrink as i32);
        let r_max = peril.max_radius_km();
        let probes = |from: f64| {
            [from.next_up(), from + 1e-9, from + 1e-3, from + beyond * (r_max + 5.0 - from)]
        };
        match distance_at_intensity(peril, magnitude, target) {
            None => {
                for d in [0.0, 1e-300, 1e-9, beyond * r_max] {
                    let i = intensity_at_distance(peril, magnitude, d);
                    prop_assert!(i < target, "{peril} m={magnitude} d={d}: {i} >= {target}");
                }
            }
            Some(reach) => {
                prop_assert!((0.0..=r_max).contains(&reach));
                for d in probes(reach) {
                    let i = intensity_at_distance(peril, magnitude, d);
                    prop_assert!(
                        i <= 0.0 || i < target,
                        "{peril} m={magnitude} reach={reach} d={d}: {i} >= {target}"
                    );
                }
            }
        }
    }

    /// Below `intensity_at_damage_ratio` the computed damage ratio is
    /// below the target.
    #[test]
    fn logistic_inverse_is_conservative(
        class in 0usize..4,
        target in -0.1f64..1.2,
        shrink in 0u32..40,
        below in 0.0f64..1.0,
    ) {
        let class = ConstructionClass::ALL[class];
        let target = target / f64::powi(2.0, shrink as i32);
        let cut = class.intensity_at_damage_ratio(target);
        prop_assert!(cut >= 0.0);
        let probes = if cut.is_finite() {
            [cut.next_down(), cut - 1e-9, cut * below, cut * below * below]
        } else {
            [12.0, 50.0, 1e6, f64::MAX]
        };
        for i in probes {
            if i > 0.0 {
                let mdr = class.mean_damage_ratio(i);
                prop_assert!(mdr < target, "{class:?} cut={cut} i={i}: {mdr} >= {target}");
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small books against random small catalogues: deductible
    /// ratios, classes, positions and catalogue seeds all drawn.
    #[test]
    fn random_books_match_the_exhaustive_loop(
        cat_seed in any::<u64>(),
        spread in 1.0f64..1500.0,
        rows in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0usize..4, 0usize..6),
            1..120,
        ),
    ) {
        let ratios = [0.0, 1e-6, 0.004, 0.03, 0.3, 1.0];
        let list = rows
            .iter()
            .enumerate()
            .map(|(i, &(u, v, class, ratio))| {
                site(i, 500.0 + (u - 0.5) * spread, 500.0 + (v - 0.5) * spread,
                     ConstructionClass::ALL[class], ratios[ratio])
            })
            .collect();
        assert_matches_oracle("random book", &catalog(40, cat_seed), &sites(list));
    }
}
