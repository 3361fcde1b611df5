//! Provisioning policies: how many nodes to run, and when.
//!
//! The paper's argument — "the elastic demand for the storage of data,
//! data retrieval, data processing and data integration makes
//! cloud-based computing attractive" — is a comparison among exactly
//! these policies: a fixed cluster sized for the average starves the
//! burst; a fixed cluster sized for the burst idles all week; an
//! elastic policy follows the demand curve. Experiment E10 runs all
//! three against the same simulated week.

/// What a policy sees when consulted.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Current simulated time (ms).
    pub now_ms: u64,
    /// Tasks waiting for a core.
    pub queued_tasks: u64,
    /// Tasks currently executing.
    pub running_tasks: u64,
    /// Ready nodes.
    pub ready_nodes: u32,
    /// Nodes still booting.
    pub booting_nodes: u32,
    /// Cores per node (cluster shape).
    pub cores_per_node: u32,
    /// Free (ready, unclaimed) cores.
    pub free_cores: u32,
}

/// What a policy decides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Action {
    /// Nodes to boot now.
    pub boot: u32,
    /// Idle nodes to retire now.
    pub retire_idle: u32,
}

impl Action {
    /// Do nothing.
    pub const NONE: Action = Action {
        boot: 0,
        retire_idle: 0,
    };
}

/// A provisioning policy. Consulted at time zero, on every job
/// arrival/completion, and on a periodic tick.
pub trait Policy {
    /// Short name for reports.
    fn name(&self) -> &str;
    /// Decide an action for the observed state.
    fn act(&mut self, obs: &Observation) -> Action;
}

/// A fixed-size cluster: boot `nodes` at time zero, never change.
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    /// Cluster size in nodes.
    pub nodes: u32,
    booted: bool,
    label: String,
}

impl FixedPolicy {
    /// A fixed cluster of `nodes` nodes.
    pub fn new(nodes: u32) -> Self {
        Self {
            nodes,
            booted: false,
            label: format!("fixed-{nodes}"),
        }
    }
}

impl Policy for FixedPolicy {
    fn name(&self) -> &str {
        &self.label
    }

    fn act(&mut self, _obs: &Observation) -> Action {
        if self.booted {
            Action::NONE
        } else {
            self.booted = true;
            Action {
                boot: self.nodes,
                retire_idle: 0,
            }
        }
    }
}

/// Reactive autoscaling: boot when the queue outgrows the cores on
/// hand, retire idle nodes after the queue drains. The boot step is
/// proportional to the backlog, so a sudden burst provisions in one or
/// two decisions rather than creeping up.
#[derive(Debug, Clone)]
pub struct ReactivePolicy {
    /// Keep at least this many nodes.
    pub min_nodes: u32,
    /// Never exceed this many nodes.
    pub max_nodes: u32,
    /// Target: queued tasks per provisioned core before scaling up.
    pub queue_per_core: f64,
    /// Minimum ms between scale-up decisions.
    pub cooldown_ms: u64,
    /// Retire idle capacity only after the queue has been empty this
    /// long (hysteresis against thrash).
    pub idle_grace_ms: u64,
    last_scale_up: Option<u64>,
    idle_since: Option<u64>,
    started: bool,
}

impl ReactivePolicy {
    /// A reactive policy with the given bounds and a 5-minute cooldown
    /// / 10-minute idle grace.
    pub fn new(min_nodes: u32, max_nodes: u32) -> Self {
        Self {
            min_nodes,
            max_nodes,
            queue_per_core: 2.0,
            cooldown_ms: 5 * 60_000,
            idle_grace_ms: 10 * 60_000,
            last_scale_up: None,
            idle_since: None,
            started: false,
        }
    }
}

impl Policy for ReactivePolicy {
    fn name(&self) -> &str {
        "reactive"
    }

    fn act(&mut self, obs: &Observation) -> Action {
        let mut action = Action::NONE;
        let provisioned = obs.ready_nodes + obs.booting_nodes;
        if !self.started {
            self.started = true;
            action.boot = self.min_nodes.saturating_sub(provisioned);
        }
        let provisioned_cores =
            (provisioned as u64 + action.boot as u64) * obs.cores_per_node as u64;

        // Scale up: backlog beyond what provisioned cores will absorb.
        let backlog = obs.queued_tasks;
        let threshold = (provisioned_cores as f64 * self.queue_per_core) as u64;
        let cooled = self
            .last_scale_up
            .map(|t| obs.now_ms >= t + self.cooldown_ms)
            .unwrap_or(true);
        if backlog > threshold && cooled {
            // Size the step to the backlog: enough nodes that the queue
            // per core falls to the target.
            let want_cores = (backlog as f64 / self.queue_per_core).ceil() as u64;
            let want_nodes = want_cores.div_ceil(obs.cores_per_node as u64) as u32;
            let target = want_nodes.clamp(self.min_nodes, self.max_nodes);
            let grow = target.saturating_sub(provisioned + action.boot);
            if grow > 0 {
                action.boot += grow;
                self.last_scale_up = Some(obs.now_ms);
            }
        }

        // Scale down: nothing queued or running beyond the floor.
        if obs.queued_tasks == 0 && obs.free_cores > 0 {
            let since = *self.idle_since.get_or_insert(obs.now_ms);
            if obs.now_ms >= since + self.idle_grace_ms {
                let idle_nodes = obs.free_cores / obs.cores_per_node;
                let floor = self.min_nodes;
                let above = (obs.ready_nodes + obs.booting_nodes).saturating_sub(floor);
                action.retire_idle = idle_nodes.min(above);
            }
        } else {
            self.idle_since = None;
        }
        action
    }
}

/// Scheduled (calendar) scaling: a target node count per time window.
/// The operator knows Friday night is roll-up night and provisions
/// ahead of the burst — trading foresight for reaction lag.
#[derive(Debug, Clone)]
pub struct ScheduledPolicy {
    /// `(start_ms, end_ms, nodes)` windows; outside every window the
    /// target is `base_nodes`. Windows must not overlap.
    pub windows: Vec<(u64, u64, u32)>,
    /// Node count outside all windows.
    pub base_nodes: u32,
}

impl ScheduledPolicy {
    /// Target nodes at `now`.
    fn target_at(&self, now_ms: u64) -> u32 {
        for &(s, e, n) in &self.windows {
            if now_ms >= s && now_ms < e {
                return n;
            }
        }
        self.base_nodes
    }
}

impl Policy for ScheduledPolicy {
    fn name(&self) -> &str {
        "scheduled"
    }

    fn act(&mut self, obs: &Observation) -> Action {
        let target = self.target_at(obs.now_ms);
        let provisioned = obs.ready_nodes + obs.booting_nodes;
        if provisioned < target {
            Action {
                boot: target - provisioned,
                retire_idle: 0,
            }
        } else if provisioned > target {
            Action {
                boot: 0,
                retire_idle: provisioned - target,
            }
        } else {
            Action::NONE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now_ms: u64, queued: u64, ready_nodes: u32, free_cores: u32) -> Observation {
        Observation {
            now_ms,
            queued_tasks: queued,
            running_tasks: 0,
            ready_nodes,
            booting_nodes: 0,
            cores_per_node: 4,
            free_cores,
        }
    }

    #[test]
    fn fixed_boots_once() {
        let mut p = FixedPolicy::new(10);
        assert_eq!(p.act(&obs(0, 0, 0, 0)).boot, 10);
        assert_eq!(p.act(&obs(100, 1_000, 10, 0)), Action::NONE);
        assert_eq!(p.name(), "fixed-10");
    }

    #[test]
    fn reactive_starts_at_floor() {
        let mut p = ReactivePolicy::new(2, 100);
        let a = p.act(&obs(0, 0, 0, 0));
        assert_eq!(a.boot, 2);
    }

    #[test]
    fn reactive_scales_with_backlog() {
        let mut p = ReactivePolicy::new(1, 1000);
        p.act(&obs(0, 0, 0, 0)); // floor boot
                                 // Huge backlog: 8000 queued on 1 node × 4 cores at target 2/core
                                 // wants 1000 cores → 250 nodes.
        let a = p.act(&obs(1, 8_000, 1, 0));
        assert_eq!(a.boot, 999); // 1000 target − 1 provisioned
    }

    #[test]
    fn reactive_respects_max_and_cooldown() {
        let mut p = ReactivePolicy::new(1, 10);
        p.act(&obs(0, 0, 0, 0));
        let a = p.act(&obs(1, 100_000, 1, 0));
        assert_eq!(a.boot, 9); // capped at max_nodes
                               // Immediately after: cooldown blocks further scale-up.
        let a = p.act(&obs(2, 100_000, 10, 0));
        assert_eq!(a.boot, 0);
        // After the cooldown it may fire again (but already at max).
        let a = p.act(&obs(10 * 60_000, 100_000, 10, 0));
        assert_eq!(a.boot, 0);
    }

    #[test]
    fn reactive_retires_after_grace() {
        let mut p = ReactivePolicy::new(1, 100);
        p.act(&obs(0, 0, 0, 0));
        // Queue empty, 5 idle nodes — but grace not elapsed.
        let a = p.act(&obs(1_000, 0, 5, 20));
        assert_eq!(a.retire_idle, 0);
        // Still idle after the grace window: retire down to the floor.
        let a = p.act(&obs(1_000 + 10 * 60_000, 0, 5, 20));
        assert_eq!(a.retire_idle, 4);
    }

    #[test]
    fn reactive_busy_resets_idle_clock() {
        let mut p = ReactivePolicy::new(1, 100);
        p.act(&obs(0, 0, 0, 0));
        p.act(&obs(1_000, 0, 5, 20)); // idle clock starts
        p.act(&obs(2_000, 7, 5, 0)); // work arrives: clock resets
        let a = p.act(&obs(1_000 + 10 * 60_000, 0, 5, 20));
        assert_eq!(a.retire_idle, 0, "grace must restart after busy spell");
    }

    #[test]
    fn scheduled_follows_windows() {
        let mut p = ScheduledPolicy {
            windows: vec![(100, 200, 50)],
            base_nodes: 2,
        };
        assert_eq!(p.target_at(0), 2);
        assert_eq!(p.target_at(150), 50);
        assert_eq!(p.target_at(200), 2);
        let a = p.act(&obs(0, 0, 0, 0));
        assert_eq!(a.boot, 2);
        let a = p.act(&obs(150, 0, 2, 8));
        assert_eq!(a.boot, 48);
        let a = p.act(&obs(250, 0, 50, 200));
        assert_eq!(a.retire_idle, 48);
        assert_eq!(p.name(), "scheduled");
    }
}
