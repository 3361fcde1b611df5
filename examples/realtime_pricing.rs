//! Real-time contract pricing — the paper's §II claim that "a 1 million
//! trial aggregate simulation on a typical contract only takes 25
//! seconds and can therefore support real-time pricing".
//!
//! ```text
//! cargo run --release --example realtime_pricing [trials]
//! ```
//!
//! Prices one excess-of-loss layer against a 1M-trial YET and reports
//! premium components and throughput. (Debug builds are ~10x slower;
//! use --release for the headline number.)

use riskpipe_aggregate::{
    price_with_reinstatements, run_per_layer, AggregateOptions, Layer, LayerTerms, Portfolio,
    RealTimePricer, ReinstatementTerms,
};
use riskpipe_catmodel::{
    simulate_yet, CatalogConfig, EltGenConfig, EventCatalog, ExposureConfig, ExposurePortfolio,
    GroundUpModel, YetConfig,
};
use riskpipe_exec::ThreadPool;
use riskpipe_types::{LayerId, RiskResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> RiskResult<()> {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let pool = Arc::new(ThreadPool::default());
    println!(
        "real-time pricing: {} trials on {} threads",
        trials,
        pool.thread_count()
    );

    // Stage-1 inputs for one "typical contract".
    #[expect(
        clippy::disallowed_methods,
        reason = "demo-only build-time printout; the catalogue and ELT are seeded \
                  and deterministic"
    )]
    let t0 = Instant::now();
    let catalog = EventCatalog::generate(&CatalogConfig {
        events: 10_000,
        total_annual_rate: 50.0,
        seed: 7,
        ..CatalogConfig::default()
    })?;
    let exposure = ExposurePortfolio::generate(&ExposureConfig {
        locations: 500,
        seed: 8,
        ..ExposureConfig::default()
    })?;
    let model = GroundUpModel::new(&catalog, &exposure, EltGenConfig::default());
    let elt = Arc::new(model.generate_elt(&pool)?);
    println!(
        "  contract ELT: {} rows (built in {:.2}s)",
        elt.len(),
        t0.elapsed().as_secs_f64()
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "demo-only simulation-time printout; the YET is seeded and deterministic"
    )]
    let t0 = Instant::now();
    let yet = simulate_yet(&catalog, &YetConfig { trials, seed: 99 }, &pool)?;
    println!(
        "  YET: {} occurrences over {} trials (pre-simulated in {:.2}s)",
        yet.total_occurrences(),
        yet.trials(),
        t0.elapsed().as_secs_f64()
    );

    // The layer being priced: attaches at half the mean event loss.
    let mean_event = elt.total_mean_loss() / elt.len() as f64;
    let elt_arc = Arc::clone(&elt);
    let layer = Layer::new(
        LayerId::new(0),
        LayerTerms::xl(0.5 * mean_event, 100.0 * mean_event),
        elt,
    )?;

    let pricer = RealTimePricer::new(Arc::clone(&pool));
    let result = pricer.price(layer, &yet)?;

    println!("\npricing result:");
    println!("  pure premium      : {:>16.2}", result.pure_premium);
    println!("  sd of annual loss : {:>16.2}", result.sd);
    println!("  technical premium : {:>16.2}", result.technical_premium);
    println!("  VaR 99%           : {:>16.2}", result.var99);
    println!(
        "  simulation        : {:.3}s ({:.0} trials/s)",
        result.elapsed.as_secs_f64(),
        result.trials_per_second
    );
    println!(
        "  real-time (<25s paper budget): {}",
        result.is_realtime(Duration::from_secs(25))
    );

    // The same contract quoted with paid reinstatements: two
    // reinstatements at 100%, aggregate limit 3 × the layer width.
    let reinst = ReinstatementTerms::flat(2, 1.0);
    let terms = reinst.apply_to(LayerTerms::xl(0.5 * mean_event, 100.0 * mean_event))?;
    let portfolio = Portfolio::from_parts(vec![(terms, Arc::clone(&elt_arc))])?;
    #[expect(
        clippy::disallowed_methods,
        reason = "demo-only quote-latency printout; the quote is computed from the \
                  deterministic per-layer YLT"
    )]
    let t0 = Instant::now();
    let layer_ylts = run_per_layer(&portfolio, &yet, &AggregateOptions::default())?;
    let quote = price_with_reinstatements(&terms, &reinst, &layer_ylts[0])?;
    println!("\nquoted with 2 reinstatements @ 100% (agg limit 3x layer):");
    println!("  expected recovery : {:>16.2}", quote.expected_recovery);
    println!("  deposit premium   : {:>16.2}", quote.base_premium);
    println!(
        "  E[reinst premium] : {:>16.2}  (fraction {:.4})",
        quote.expected_reinstatement_premium, quote.expected_premium_fraction
    );
    println!(
        "  rate on line      : {:>15.2}%",
        quote.rate_on_line * 100.0
    );
    println!("  (per-layer YLT pass: {:.2}s)", t0.elapsed().as_secs_f64());
    Ok(())
}
