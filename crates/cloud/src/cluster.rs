//! The simulated cluster: homogeneous nodes with boot latency and
//! core-time accounting.
//!
//! Nodes are the unit of provisioning (a cloud instance); cores are the
//! unit of scheduling (one aggregate-analysis worker). The cluster
//! integrates two quantities over simulated time — *capacity* core-ms
//! (what the reinsurer pays for) and *busy* core-ms (what the pipeline
//! actually used) — whose ratio is the utilisation number experiment
//! E10 reports.

use riskpipe_types::{RiskError, RiskResult};

/// Shape of every node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Cores per node.
    pub cores: u32,
    /// Milliseconds from boot request to the node accepting work —
    /// cloud instances are not instant, and the boot lag is what makes
    /// purely reactive scaling miss very tight deadlines.
    pub boot_ms: u64,
}

impl NodeSpec {
    /// Validate the spec.
    pub fn validate(&self) -> RiskResult<()> {
        if self.cores == 0 {
            return Err(RiskError::invalid("node must have at least one core"));
        }
        Ok(())
    }
}

/// Lifecycle of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Boot requested; accepts work at `ready_at`.
    Booting,
    /// Accepting work.
    Ready,
    /// Shut down; no longer billed.
    Retired,
}

/// One provisioned node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Lifecycle state.
    pub state: NodeState,
    /// When the node was requested.
    pub booted_at: u64,
    /// When the node becomes/became ready.
    pub ready_at: u64,
    /// When the node retired (meaningful in `Retired`).
    pub retired_at: u64,
    /// Busy cores (≤ spec cores).
    pub busy: u32,
}

/// The cluster: node list plus time-integrated accounting.
#[derive(Debug)]
pub struct Cluster {
    spec: NodeSpec,
    nodes: Vec<Node>,
    clock_ms: u64,
    capacity_core_ms: u64,
    busy_core_ms: u64,
    boots: u64,
    retires: u64,
    peak_ready_nodes: u32,
    ready_node_count: u32,
    busy_core_count: u32,
    free_core_count: u32,
    /// No ready node below this index has a free core (packing cursor;
    /// keeps [`Cluster::claim_core`] amortised O(1) instead of O(nodes)
    /// per task on big clusters).
    scan_hint: usize,
}

impl Cluster {
    /// An empty cluster of `spec`-shaped nodes.
    pub fn new(spec: NodeSpec) -> RiskResult<Self> {
        spec.validate()?;
        Ok(Self {
            spec,
            nodes: Vec::new(),
            clock_ms: 0,
            capacity_core_ms: 0,
            busy_core_ms: 0,
            boots: 0,
            retires: 0,
            peak_ready_nodes: 0,
            ready_node_count: 0,
            busy_core_count: 0,
            free_core_count: 0,
            scan_hint: 0,
        })
    }

    /// The node shape.
    pub fn spec(&self) -> NodeSpec {
        self.spec
    }

    /// Current simulated time.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Advance the clock, accruing capacity and busy integrals.
    ///
    /// # Panics
    /// Panics if `now` is in the past — the discrete-event loop must
    /// deliver events in time order.
    pub fn advance_to(&mut self, now: u64) {
        assert!(now >= self.clock_ms, "time went backwards");
        let dt = now - self.clock_ms;
        if dt > 0 {
            let ready_cores = self.ready_cores() as u64;
            let busy_cores = self.busy_cores() as u64;
            self.capacity_core_ms += ready_cores * dt;
            self.busy_core_ms += busy_cores * dt;
            self.clock_ms = now;
        }
    }

    /// Request `n` new nodes at the current time. Returns the time they
    /// will become ready.
    pub fn boot(&mut self, n: u32) -> u64 {
        let ready_at = self.clock_ms + self.spec.boot_ms;
        for _ in 0..n {
            self.nodes.push(Node {
                state: NodeState::Booting,
                booted_at: self.clock_ms,
                ready_at,
                retired_at: 0,
                busy: 0,
            });
        }
        self.boots += n as u64;
        ready_at
    }

    /// Transition nodes whose `ready_at` has arrived to `Ready`.
    /// Returns how many came up.
    pub fn activate_ready(&mut self) -> u32 {
        let now = self.clock_ms;
        let mut n = 0;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.state == NodeState::Booting && node.ready_at <= now {
                node.state = NodeState::Ready;
                n += 1;
                self.ready_node_count += 1;
                self.free_core_count += self.spec.cores;
                if i < self.scan_hint {
                    self.scan_hint = i;
                }
            }
        }
        if self.ready_node_count > self.peak_ready_nodes {
            self.peak_ready_nodes = self.ready_node_count;
        }
        n
    }

    /// Retire up to `n` *idle* ready nodes (busy nodes never retire —
    /// the policy can only stop paying for capacity it is not using).
    /// Returns how many actually retired.
    pub fn retire_idle(&mut self, n: u32) -> u32 {
        let now = self.clock_ms;
        let mut done = 0;
        // Retire from the high indices down: the packing cursor fills
        // low nodes first, so idle capacity concentrates at the top.
        for node in self.nodes.iter_mut().rev() {
            if done == n {
                break;
            }
            if node.state == NodeState::Ready && node.busy == 0 {
                node.state = NodeState::Retired;
                node.retired_at = now;
                done += 1;
                self.ready_node_count -= 1;
                self.free_core_count -= self.spec.cores;
            }
        }
        self.retires += done as u64;
        done
    }

    /// Claim one free core. Packing is lowest-index-first, so idle
    /// nodes concentrate at high indices and stay retireable. Amortised
    /// O(1): a counter short-circuits the full case and a cursor skips
    /// known-full prefixes.
    pub fn claim_core(&mut self) -> Option<usize> {
        if self.free_core_count == 0 {
            return None;
        }
        let mut i = self.scan_hint;
        loop {
            debug_assert!(i < self.nodes.len(), "free_core_count out of sync");
            let node = &mut self.nodes[i];
            if node.state == NodeState::Ready && node.busy < self.spec.cores {
                node.busy += 1;
                self.busy_core_count += 1;
                self.free_core_count -= 1;
                self.scan_hint = i;
                return Some(i);
            }
            i += 1;
        }
    }

    /// Release a previously claimed core on `node`.
    ///
    /// # Panics
    /// Panics if the node has no busy cores — a task finished on a core
    /// that was never claimed.
    pub fn release_core(&mut self, node: usize) {
        let n = &mut self.nodes[node];
        assert!(n.busy > 0, "releasing an idle node's core");
        n.busy -= 1;
        self.busy_core_count -= 1;
        self.free_core_count += 1;
        if node < self.scan_hint {
            self.scan_hint = node;
        }
    }

    /// Nodes currently ready.
    pub fn ready_nodes(&self) -> u32 {
        self.ready_node_count
    }

    /// Nodes booting.
    pub fn booting_nodes(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Booting)
            .count() as u32
    }

    /// Ready cores (busy + free).
    fn ready_cores(&self) -> u32 {
        self.ready_node_count * self.spec.cores
    }

    /// Busy cores.
    pub fn busy_cores(&self) -> u32 {
        self.busy_core_count
    }

    /// Free (ready, unclaimed) cores.
    pub fn free_cores(&self) -> u32 {
        self.free_core_count
    }

    /// Paid capacity so far, in core-milliseconds.
    pub fn capacity_core_ms(&self) -> u64 {
        self.capacity_core_ms
    }

    /// Used capacity so far, in core-milliseconds.
    pub fn busy_core_ms(&self) -> u64 {
        self.busy_core_ms
    }

    /// Boot requests served.
    pub fn boots(&self) -> u64 {
        self.boots
    }

    /// Nodes retired.
    pub fn retires(&self) -> u64 {
        self.retires
    }

    /// Highest simultaneous ready-node count observed.
    pub fn peak_ready_nodes(&self) -> u32 {
        self.peak_ready_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(cores: u32, boot_ms: u64) -> Cluster {
        Cluster::new(NodeSpec { cores, boot_ms }).unwrap()
    }

    #[test]
    fn boot_latency_gates_readiness() {
        let mut c = cluster(4, 1_000);
        let ready_at = c.boot(2);
        assert_eq!(ready_at, 1_000);
        assert_eq!(c.ready_cores(), 0);
        assert_eq!(c.booting_nodes(), 2);
        c.advance_to(999);
        assert_eq!(c.activate_ready(), 0);
        c.advance_to(1_000);
        assert_eq!(c.activate_ready(), 2);
        assert_eq!(c.ready_cores(), 8);
        assert_eq!(c.booting_nodes(), 0);
    }

    #[test]
    fn capacity_integral_counts_ready_time_only() {
        let mut c = cluster(2, 500);
        c.boot(1);
        c.advance_to(500);
        c.activate_ready();
        // 500 ms booting: no capacity accrued.
        assert_eq!(c.capacity_core_ms(), 0);
        c.advance_to(1_500);
        // 1000 ms ready × 2 cores.
        assert_eq!(c.capacity_core_ms(), 2_000);
        assert_eq!(c.busy_core_ms(), 0);
    }

    #[test]
    fn busy_integral_tracks_claims() {
        let mut c = cluster(2, 0);
        c.boot(1);
        c.activate_ready();
        let n = c.claim_core().unwrap();
        c.advance_to(100);
        c.release_core(n);
        c.advance_to(200);
        assert_eq!(c.busy_core_ms(), 100);
        assert_eq!(c.capacity_core_ms(), 400);
    }

    #[test]
    fn claim_packs_one_node_before_spilling() {
        let mut c = cluster(2, 0);
        c.boot(2);
        c.activate_ready();
        let a = c.claim_core().unwrap();
        // Second claim should land on the same node (pack it full).
        let b = c.claim_core().unwrap();
        assert_eq!(a, b);
        // Third claim spills to the other node.
        let d = c.claim_core().unwrap();
        assert_ne!(a, d);
        assert_eq!(c.free_cores(), 1);
        // Fourth fills the cluster; fifth fails.
        assert!(c.claim_core().is_some());
        assert!(c.claim_core().is_none());
        assert_eq!(c.free_cores(), 0);
    }

    #[test]
    fn only_idle_nodes_retire() {
        let mut c = cluster(1, 0);
        c.boot(3);
        c.activate_ready();
        let _busy = c.claim_core().unwrap();
        // Ask to retire all three: only the two idle ones go.
        assert_eq!(c.retire_idle(3), 2);
        assert_eq!(c.ready_nodes(), 1);
        assert_eq!(c.busy_cores(), 1);
        assert_eq!(c.retires(), 2);
    }

    #[test]
    fn peak_nodes_and_boot_counters() {
        let mut c = cluster(1, 0);
        c.boot(5);
        c.activate_ready();
        assert_eq!(c.peak_ready_nodes(), 5);
        c.retire_idle(4);
        assert_eq!(c.peak_ready_nodes(), 5); // peak is sticky
        assert_eq!(c.boots(), 5);
        c.boot(1);
        c.activate_ready();
        assert_eq!(c.boots(), 6);
        assert_eq!(c.ready_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn clock_must_be_monotone() {
        let mut c = cluster(1, 0);
        c.advance_to(10);
        c.advance_to(5);
    }

    #[test]
    #[should_panic(expected = "releasing an idle")]
    fn release_without_claim_panics() {
        let mut c = cluster(1, 0);
        c.boot(1);
        c.activate_ready();
        c.release_core(0);
    }

    #[test]
    fn zero_core_spec_rejected() {
        assert!(Cluster::new(NodeSpec {
            cores: 0,
            boot_ms: 0
        })
        .is_err());
    }
}
