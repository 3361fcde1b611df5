//! Pricing the pipeline's processor burst: one simulated week under
//! fixed and elastic provisioning.
//!
//! ```text
//! cargo run --release --example cloud_burst
//! ```

use riskpipe::types::RiskResult;
use riskpipe_cloud::{
    peak_deadline_demand, pipeline_week, simulate, total_work_core_ms, FixedPolicy,
    PipelineWeekSpec, Policy, ReactivePolicy, ScheduledPolicy, SimConfig, Stage, DAY_MS, HOUR_MS,
    WEEK_MS,
};

fn main() -> RiskResult<()> {
    let spec = PipelineWeekSpec::default();
    let jobs = pipeline_week(&spec)?;
    let cfg = SimConfig::default();

    let work_ch = total_work_core_ms(&jobs) as f64 / 3_600_000.0;
    let peak_cores = peak_deadline_demand(&jobs, WEEK_MS);
    let peak_nodes = ((peak_cores as f64 * 1.25) as u64).div_ceil(cfg.node.cores as u64) as u32;
    println!(
        "one pipeline week: {} jobs, {:.0} core-hours; deadline-peak {} cores\n",
        jobs.len(),
        work_ch,
        peak_cores
    );

    let burst = 4 * DAY_MS + 17 * HOUR_MS;
    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(FixedPolicy::new(4)),
        Box::new(FixedPolicy::new(peak_nodes)),
        Box::new(ReactivePolicy::new(2, peak_nodes)),
        Box::new(ScheduledPolicy {
            windows: vec![(burst, burst + 14 * HOUR_MS, peak_nodes)],
            base_nodes: 2,
        }),
    ];

    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>11} {:>10}",
        "policy", "complete", "deadlines", "core-hours", "utilization", "peak nodes"
    );
    for p in policies.iter_mut() {
        let r = simulate(&jobs, p.as_mut(), &cfg)?;
        println!(
            "{:<12} {:>10} {:>11.1}% {:>12.0} {:>10.1}% {:>10}",
            r.policy,
            if r.all_complete() { "all" } else { "NO" },
            r.deadline_attainment() * 100.0,
            r.core_hours(),
            r.utilization() * 100.0,
            r.peak_nodes
        );
        let rollup = r
            .jobs
            .iter()
            .find(|j| j.stage == Stage::PortfolioRollup)
            .expect("rollup job");
        println!(
            "{:<12} stage-2 roll-up: span {}, deadline met: {}",
            "",
            rollup
                .span_ms()
                .map(|s| format!("{:.1} h", s as f64 / 3_600_000.0))
                .unwrap_or_else(|| "never finished".into()),
            rollup
                .deadline_met()
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
    println!(
        "\nthe burst is the story: a cluster sized for the week's average\n\
         blows the Friday-night reporting deadline; sized for the burst it\n\
         idles six days out of seven. Elastic provisioning meets the deadline\n\
         at roughly a tenth of the fixed-peak cost."
    );
    Ok(())
}
