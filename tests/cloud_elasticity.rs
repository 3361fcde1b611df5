//! Elasticity integration: the E10 cost/attainment comparison as
//! assertions, plus cross-checks between the discrete-event simulator
//! and the E6 analytic elasticity model.

use riskpipe_cloud::{
    peak_deadline_demand, pipeline_week, simulate, total_work_core_ms, FixedPolicy,
    PipelineWeekSpec, ReactivePolicy, ScheduledPolicy, SimConfig, Stage, DAY_MS, HOUR_MS, WEEK_MS,
};
use riskpipe_cloud::{JobSpec, NodeSpec};

fn peak_nodes(jobs: &[JobSpec], cfg: &SimConfig) -> u32 {
    ((peak_deadline_demand(jobs, WEEK_MS) as f64 * 1.25) as u64).div_ceil(cfg.node.cores as u64)
        as u32
}

#[test]
fn fixed_average_misses_the_reporting_deadline() {
    let jobs = pipeline_week(&PipelineWeekSpec::default()).unwrap();
    let cfg = SimConfig::default();
    let avg_nodes =
        ((total_work_core_ms(&jobs) as f64 / cfg.horizon_ms as f64 / cfg.node.cores as f64).ceil()
            as u32)
            .max(1);
    let mut p = FixedPolicy::new(avg_nodes);
    let r = simulate(&jobs, &mut p, &cfg).unwrap();
    let rollup = r
        .jobs
        .iter()
        .find(|j| j.stage == Stage::PortfolioRollup)
        .unwrap();
    // The average-sized cluster finishes the work eventually…
    assert!(r.all_complete());
    // …but blows the stage-2 reporting window: that is the paper's
    // case against static provisioning.
    assert_eq!(rollup.deadline_met(), Some(false));
}

#[test]
fn elastic_policies_match_peak_attainment_at_fraction_of_cost() {
    let jobs = pipeline_week(&PipelineWeekSpec::default()).unwrap();
    let cfg = SimConfig::default();
    let peak = peak_nodes(&jobs, &cfg);

    let mut fixed = FixedPolicy::new(peak);
    let rf = simulate(&jobs, &mut fixed, &cfg).unwrap();
    assert!(rf.all_complete());
    assert!(rf.deadline_attainment() > 0.99);

    let mut reactive = ReactivePolicy::new(2, peak);
    let rr = simulate(&jobs, &mut reactive, &cfg).unwrap();
    assert!(rr.all_complete());
    assert!(
        rr.deadline_attainment() > 0.99,
        "reactive attainment {}",
        rr.deadline_attainment()
    );

    let burst = 4 * DAY_MS + 17 * HOUR_MS;
    let mut sched = ScheduledPolicy {
        windows: vec![(burst, burst + 14 * HOUR_MS, peak)],
        base_nodes: 2,
    };
    let rs = simulate(&jobs, &mut sched, &cfg).unwrap();
    assert!(rs.all_complete());
    assert!(rs.deadline_attainment() > 0.99);

    // The elastic runs pay well under a quarter of the fixed-peak
    // bill for the same outcomes — the quantified "cloud is
    // attractive" claim.
    assert!(rr.core_hours() < 0.25 * rf.core_hours());
    assert!(rs.core_hours() < 0.25 * rf.core_hours());
    // And use their capacity much better.
    assert!(rr.utilization() > 2.0 * rf.utilization());
}

#[test]
fn busy_core_time_is_conserved_across_policies() {
    let jobs = pipeline_week(&PipelineWeekSpec::default()).unwrap();
    let cfg = SimConfig::default();
    let total = total_work_core_ms(&jobs);
    let peak = peak_nodes(&jobs, &cfg);
    for mut p in [
        Box::new(FixedPolicy::new(peak)) as Box<dyn riskpipe_cloud::Policy>,
        Box::new(ReactivePolicy::new(2, peak)),
    ] {
        let r = simulate(&jobs, p.as_mut(), &cfg).unwrap();
        assert!(r.all_complete());
        // Exactly the workload's core-time is executed, no more, no
        // less, regardless of who provisioned what.
        assert_eq!(r.busy_core_ms, total, "policy {}", r.policy);
        assert!(r.capacity_core_ms >= r.busy_core_ms);
    }
}

#[test]
fn boot_latency_visible_in_reactive_wait_times() {
    let jobs = pipeline_week(&PipelineWeekSpec::default()).unwrap();
    let slow = SimConfig {
        node: NodeSpec {
            cores: 8,
            boot_ms: 20 * 60_000, // 20-minute instances
        },
        ..SimConfig::default()
    };
    let fast = SimConfig::default(); // 2-minute boots
    let peak = peak_nodes(&jobs, &fast);
    let run = |cfg: &SimConfig| {
        let mut p = ReactivePolicy::new(2, peak);
        simulate(&jobs, &mut p, cfg).unwrap()
    };
    let r_slow = run(&slow);
    let r_fast = run(&fast);
    let span = |r: &riskpipe_cloud::SimResult| {
        r.jobs
            .iter()
            .find(|j| j.stage == Stage::PortfolioRollup)
            .unwrap()
            .span_ms()
            .unwrap()
    };
    // Slower boots stretch the burst job.
    assert!(span(&r_slow) >= span(&r_fast));
}

#[test]
fn stage1_fits_on_a_handful_of_nodes_all_week() {
    // The paper: "in the first stage less than ten processors may be
    // sufficient". Run *only* the stage-1 jobs on a 1-node cluster and
    // watch every daily deadline hold.
    let jobs: Vec<JobSpec> = pipeline_week(&PipelineWeekSpec::default())
        .unwrap()
        .into_iter()
        .filter(|j| j.stage == Stage::RiskModelling)
        .map(|mut j| {
            j.after = None; // dependencies pointed at filtered-out jobs
            j
        })
        .collect();
    assert_eq!(jobs.len(), 7);
    let cfg = SimConfig::default(); // 8-core node
    let mut p = FixedPolicy::new(1);
    let r = simulate(&jobs, &mut p, &cfg).unwrap();
    assert!(r.all_complete());
    assert!((r.deadline_attainment() - 1.0).abs() < 1e-12);
}
