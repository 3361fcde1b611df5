//! Rapid post-event loss estimation: an actual catastrophe has just
//! happened; estimate the book's loss and the hardest-hit locations in
//! milliseconds — the real-time companion workflow to the batch
//! pipeline (the paper's reference [2]).
//!
//! ```text
//! cargo run --release --example post_event
//! ```

use riskpipe_catmodel::{
    postevent::{rapid_estimate, ObservedEvent},
    EltGenConfig, ExposureConfig, ExposurePortfolio, GeoPoint, Peril,
};
use riskpipe_types::RiskResult;
use std::time::Instant;

fn main() -> RiskResult<()> {
    // The live exposure database (in production: loaded, not generated).
    let exposure = ExposurePortfolio::generate(&ExposureConfig {
        locations: 2_000,
        seed: 99,
        ..ExposureConfig::default()
    })?;
    println!(
        "exposure book: {} locations, {:.0} total insured value",
        exposure.len(),
        exposure.total_tiv()
    );

    // News wire: M7.8 earthquake near the largest concentration.
    let epicentre = exposure.locations()[0].position;
    let event = ObservedEvent {
        peril: Peril::Earthquake,
        magnitude: 7.8,
        center: GeoPoint::new(epicentre.x + 15.0, epicentre.y - 10.0),
    };
    println!(
        "\nobserved event: M{:.1} {} at ({:.0} km, {:.0} km)",
        event.magnitude, event.peril, event.center.x, event.center.y
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "demo-only latency printout; the estimate itself is seeded and deterministic"
    )]
    let t0 = Instant::now();
    let estimate = rapid_estimate(&event, &exposure, &EltGenConfig::default(), 10)?;
    let elapsed = t0.elapsed();

    println!("\nrapid estimate ({:.1} ms):", elapsed.as_secs_f64() * 1e3);
    println!("  expected insured loss : {:>16.0}", estimate.mean_loss);
    println!("  loss std deviation    : {:>16.0}", estimate.sigma);
    println!(
        "  affected locations    : {:>16}",
        estimate.affected_locations
    );
    println!("\nclaims-team deployment list (top locations by expected loss):");
    println!("{:>10} {:>16}", "location", "expected loss");
    for (loc, loss) in &estimate.top_locations {
        println!("{:>10} {:>16.0}", loc.raw(), loss);
    }
    Ok(())
}
