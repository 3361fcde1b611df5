//! Pass 2 of the workspace analysis: link per-file summaries into a
//! call graph, run reachability from pool-task roots (C1), and compose
//! per-fn guard spans into the workspace lock-order graph (L1/L2/L3).
//!
//! Linking is by bare name (with per-file `use`-alias resolution) —
//! deliberately an *over*-approximation: a call named `merge` links to
//! every non-test fn named `merge` in the workspace. For a deny rule
//! that is the right bias — a false edge costs one audited per-site
//! suppression, a missed edge costs the no-blocking invariant. A small
//! stoplist of hyper-generic method names (`next`, `drop`, `clone`,
//! `get`, …) keeps the noise floor workable; those names are so common
//! that an edge through them carries no signal.
//!
//! The linker and its deduplicated call adjacency are built once per
//! run, and every call-graph rule walks it with one multi-source BFS,
//! `reach_from`: C1 forward from the roots, so each finding can print
//! the *shortest* call chain root → … → blocking site; the lock rules
//! backward from the lock and boundary sites. C1 findings are anchored
//! at the blocking site itself: one suppression there silences every
//! chain through it, which is exactly the audit granularity the rule
//! wants (the site is sound or it is not — how many paths reach it is
//! irrelevant).

use crate::summary::{BlockKind, FileSummary, FnNode, GuardSpan};
use crate::{RawFinding, RuleId, TraceFrame, LOCK_LEAF_CRATE};
use std::collections::{BTreeMap, BTreeSet};

/// Method/function names too generic to carry call-graph signal. An
/// edge is never created *into* a definition with one of these names
/// (`ThreadPool::drop` joins its workers — coordinator-side by
/// construction, and every `drop()` call in the workspace would
/// otherwise link to it).
const STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "next",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "clear",
    "extend",
    "collect",
    "map",
    "filter",
    "fold",
    "for_each",
    "write",
    "read",
    "flush",
    "min",
    "max",
    "sum",
    "abs",
    "sqrt",
    "from",
    "into",
    "try_from",
    "try_into",
    "as_ref",
    "as_mut",
    "to_string",
    "to_owned",
    "to_vec",
    "index",
    "deref",
    "deref_mut",
    "borrow",
    "borrow_mut",
    "add",
    "sub",
    "mul",
    "div",
    "call",
    "load",
    "store",
    "swap",
    "take",
    "send",
    "expect",
    "unwrap",
    "ok",
    "err",
    "as_str",
    "as_slice",
    "as_bytes",
    "split",
    "join",
    "lock",
    "wait",
    "wait_for",
    "notify_one",
    "notify_all",
    "recv",
    "build",
    "run",
    "enumerate",
    "finish",
];

fn linkable(name: &str) -> bool {
    name.len() > 2 && !STOPLIST.contains(&name)
}

/// The flattened, name-linked view of all summaries that both the C1
/// reachability pass and the L1/L2/L3 lock-flow pass walk: node ids,
/// the name→definition index, alias-aware call resolution, and the
/// call adjacency both ways.
struct Linker<'a> {
    summaries: &'a [FileSummary],
    /// Node id → (file index, fn index).
    nodes: Vec<(usize, usize)>,
    /// Name → definition nodes (non-test, linkable names only).
    index: BTreeMap<&'a str, Vec<usize>>,
    /// Node id → the distinct nodes its calls link to, in call order.
    callees: Vec<Vec<usize>>,
    /// Node id → the distinct nodes whose calls link to it, ascending.
    callers: Vec<Vec<usize>>,
}

impl<'a> Linker<'a> {
    fn build(summaries: &'a [FileSummary]) -> Self {
        let mut nodes: Vec<(usize, usize)> = Vec::new();
        for (fi, s) in summaries.iter().enumerate() {
            for gi in 0..s.fns.len() {
                nodes.push((fi, gi));
            }
        }
        let mut index: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, &(fi, gi)) in nodes.iter().enumerate() {
            let f = &summaries[fi].fns[gi];
            if !f.is_test && linkable(&f.name) {
                index.entry(f.name.as_str()).or_default().push(id);
            }
        }
        let mut lk = Linker {
            summaries,
            nodes,
            index,
            callees: Vec::new(),
            callers: Vec::new(),
        };
        let n = lk.nodes.len();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, out) in callees.iter_mut().enumerate() {
            let (fi, _) = lk.nodes[id];
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for call in &lk.fun(id).calls {
                for &t in lk.resolve(fi, &call.name) {
                    if seen.insert(t) {
                        out.push(t);
                        callers[t].push(id);
                    }
                }
            }
        }
        lk.callees = callees;
        lk.callers = callers;
        lk
    }

    fn fun(&self, id: usize) -> &'a FnNode {
        let (fi, gi) = self.nodes[id];
        &self.summaries[fi].fns[gi]
    }

    fn path(&self, id: usize) -> &'a str {
        &self.summaries[self.nodes[id].0].path
    }

    /// Definition nodes a call named `name` from file `fi` links to
    /// (per-file alias resolution, stoplist applied).
    fn resolve(&self, fi: usize, name: &str) -> &[usize] {
        let resolved = self.summaries[fi]
            .aliases
            .get(name)
            .map(String::as_str)
            .unwrap_or(name);
        if !linkable(resolved) {
            return &[];
        }
        self.index.get(resolved).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A trace frame for a node's definition.
    fn def_frame(&self, id: usize) -> TraceFrame {
        let f = self.fun(id);
        TraceFrame {
            path: self.path(id).to_string(),
            line: f.line,
            name: f.display.clone(),
        }
    }
}

/// Run every call-graph rule over all summaries, on one linked graph:
/// C1 reachability, then the L1/L2/L3 lock-flow analysis. Returns raw
/// findings grouped by file path, ready for the per-file suppression
/// pass, plus the lock-order graph for `--emit-lock-graph`.
pub fn check(summaries: &[FileSummary]) -> (BTreeMap<String, Vec<RawFinding>>, LockGraph) {
    let lk = Linker::build(summaries);
    let mut out: BTreeMap<String, Vec<RawFinding>> = BTreeMap::new();
    blocking_reach(&lk, &mut out);
    let graph = lock_flow(&lk, &mut out);
    (out, graph)
}

/// How [`reach_from`] reached a node: it is a source itself, or it was
/// first reached from the given neighbour.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hop {
    Here,
    Via(usize),
}

/// Multi-source BFS from `sources` over `adj`: each node's [`Hop`],
/// and the reached nodes in visit order. Over the callers adjacency,
/// `Via` names the next hop toward the nearest source; over the callees
/// adjacency, the caller one step nearer the root. Sources come in
/// ascending node id and the adjacency keeps call order, so every
/// choice is deterministic and shortest-path.
fn reach_from(sources: &[usize], adj: &[Vec<usize>]) -> (Vec<Option<Hop>>, Vec<usize>) {
    let mut hop: Vec<Option<Hop>> = vec![None; adj.len()];
    let mut order: Vec<usize> = Vec::new();
    for &s in sources {
        if hop[s].is_none() {
            hop[s] = Some(Hop::Here);
            order.push(s);
        }
    }
    let mut next = 0;
    while let Some(&v) = order.get(next) {
        next += 1;
        for &u in &adj[v] {
            if hop[u].is_none() {
                hop[u] = Some(Hop::Via(v));
                order.push(u);
            }
        }
    }
    (hop, order)
}

/// C1: every blocking site in a node reachable from a pool-task root,
/// with the shortest root → … → site chain. Node order is deterministic
/// (files arrive sorted, fns in token order), so chains are stable
/// across runs.
fn blocking_reach(lk: &Linker, out: &mut BTreeMap<String, Vec<RawFinding>>) {
    let roots: Vec<usize> = (0..lk.nodes.len())
        .filter(|&id| lk.fun(id).root.is_some())
        .collect();
    let (reach, _) = reach_from(&roots, &lk.callees);
    for (id, hop) in reach.iter().enumerate() {
        let node = lk.fun(id);
        if hop.is_none() || node.blocking.is_empty() {
            continue;
        }
        // Chain root → … → this node.
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(Hop::Via(p)) = reach[cur] {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        let root = lk.fun(chain[0]);
        let root_at = format!(
            "{} at {}:{}",
            root.root
                .as_ref()
                .map(|r| r.describe())
                .unwrap_or_else(|| "root".to_string()),
            lk.path(chain[0]),
            root.line
        );
        for site in &node.blocking {
            let mut trace: Vec<TraceFrame> = chain.iter().map(|&cid| lk.def_frame(cid)).collect();
            trace.push(TraceFrame {
                path: lk.path(id).to_string(),
                line: site.line,
                name: site.what.clone(),
            });
            out.entry(lk.path(id).to_string())
                .or_default()
                .push(RawFinding {
                    rule: RuleId::C1,
                    line: site.line,
                    message: format!(
                        "blocking {} reachable from a pool-task root ({root_at}, \
                         {} hop(s)): pool workers must never park on work that \
                         other queued tasks produce — restructure, move the \
                         blocking to the coordinator thread, or suppress with a \
                         written proof the wait is bounded and deadlock-free",
                        site.what,
                        chain.len() - 1
                    ),
                    trace,
                    chains: Vec::new(),
                });
        }
    }
}

/// One "held → acquired" edge of the workspace lock-order graph, with
/// the shortest hold-site → acquisition-site chain as evidence.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub chain: Vec<TraceFrame>,
}

/// The workspace lock-order graph the L1/L2/L3 pass derives. Nodes are
/// lock identities (receiver binding names), edges record "a thread
/// acquired `acquired` while holding `held`". Exported as the witness
/// manifest the runtime `lockwitness` feature asserts against.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Every lock identity seen in non-test code, sorted.
    pub locks: Vec<String>,
    /// Ordered edges, sorted by (held, acquired), first evidence kept.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// The runtime witness manifest: the line-based format
    /// `riskpipe_exec::lockwitness` loads and asserts observed
    /// acquisition orders against (via the manifest's transitive
    /// closure).
    pub fn render_manifest(&self) -> String {
        let mut out = String::from(
            "# riskpipe lock-order manifest v1\n\
             # generated by riskpipe-lint --emit-lock-graph — regenerate, do not hand-edit\n",
        );
        for l in &self.locks {
            out.push_str(&format!("lock {l}\n"));
        }
        for e in &self.edges {
            out.push_str(&format!("edge {} {}\n", e.held, e.acquired));
        }
        out
    }
}

/// The crate a workspace-relative path belongs to (`crates/<name>`),
/// or `""` for the root package — L3's cross-crate test.
fn crate_of(path: &str) -> &str {
    let mut it = path.split('/');
    if it.next() == Some("crates") {
        if let Some(name) = it.next() {
            return &path[..("crates/".len() + name.len())];
        }
    }
    ""
}

/// Is `kind` an L2 boundary — a park-style primitive a guard must not
/// be held across? Lock acquisitions are excluded: holding one lock
/// while taking another is L1's domain (an order edge), not L2's.
fn is_boundary(kind: BlockKind) -> bool {
    !matches!(kind, BlockKind::Mutex | BlockKind::RwLock)
}

/// The lock-flow analysis: compose per-fn guard spans through the
/// call graph into the workspace lock-order graph, then fire
/// L1 (order cycle), L2 (guard held across a boundary), and
/// L3 (guard held across a cross-crate call).
fn lock_flow(lk: &Linker, out: &mut BTreeMap<String, Vec<RawFinding>>) -> LockGraph {
    let n = lk.nodes.len();

    // Lock universe: every identity acquired in non-test code. `_`
    // (unknown receiver) carries no identity and joins no edges.
    let mut locks: BTreeSet<String> = BTreeSet::new();
    for id in 0..n {
        let f = lk.fun(id);
        if f.is_test {
            continue;
        }
        for a in &f.acquires {
            if a.lock != "_" {
                locks.insert(a.lock.clone());
            }
        }
    }

    // Per-lock transitive reach (next-hop toward the nearest direct
    // acquisition), plus the same for L2 boundaries.
    let direct_acquirers = |lock: &str| -> Vec<usize> {
        (0..n)
            .filter(|&id| {
                let f = lk.fun(id);
                !f.is_test && f.acquires.iter().any(|a| a.lock == lock)
            })
            .collect()
    };
    let lock_reach: BTreeMap<&str, Vec<Option<Hop>>> = locks
        .iter()
        .map(|l| (l.as_str(), reach_from(&direct_acquirers(l), &lk.callers).0))
        .collect();
    let boundary_sources: Vec<usize> = (0..n)
        .filter(|&id| {
            let f = lk.fun(id);
            !f.is_test && (!f.spawns.is_empty() || f.blocking.iter().any(|b| is_boundary(b.kind)))
        })
        .collect();
    let (boundary_reach, _) = reach_from(&boundary_sources, &lk.callers);

    // Walk a next-hop chain from `start` to the node satisfying
    // `stop`, appending def frames, then the site frame `stop` yields.
    let walk_chain = |chain: &mut Vec<TraceFrame>,
                      start: usize,
                      hop: &[Option<Hop>],
                      site_of: &dyn Fn(usize) -> Option<TraceFrame>| {
        let mut cur = start;
        loop {
            chain.push(lk.def_frame(cur));
            match hop[cur] {
                Some(Hop::Via(next)) => cur = next,
                _ => break,
            }
        }
        if let Some(site) = site_of(cur) {
            chain.push(site);
        }
    };

    // A guard span's anchoring frame: where the lock was taken.
    let guard_frame = |id: usize, g: &GuardSpan| TraceFrame {
        path: lk.path(id).to_string(),
        line: g.line,
        name: format!("{} held in {}", g.what, lk.fun(id).display),
    };

    // Build the lock-order edges: direct nested acquisitions plus
    // call-composed ones. First evidence per (held, acquired) pair
    // wins; iteration order is node id → guard → event, so evidence is
    // stable across runs.
    let mut edges: BTreeMap<(String, String), Vec<TraceFrame>> = BTreeMap::new();
    for id in 0..n {
        let f = lk.fun(id);
        if f.is_test {
            continue;
        }
        let (fi, _) = lk.nodes[id];
        for g in &f.guards {
            if g.lock != "_" {
                for acq in g.acquires.iter().filter(|a| a.lock != "_") {
                    if acq.lock == g.lock {
                        // Same-identity re-acquisition: with name-merged
                        // identities this is nearly always two distinct
                        // mutexes sharing a binding name; the runtime
                        // witness catches true self-deadlock.
                        continue;
                    }
                    edges
                        .entry((g.lock.clone(), acq.lock.clone()))
                        .or_insert_with(|| {
                            vec![
                                guard_frame(id, g),
                                TraceFrame {
                                    path: lk.path(id).to_string(),
                                    line: acq.line,
                                    name: acq.what.clone(),
                                },
                            ]
                        });
                }
                for call in &g.calls {
                    for &t in lk.resolve(fi, &call.name) {
                        for (lock, hop) in &lock_reach {
                            if *lock == g.lock || hop[t].is_none() {
                                continue;
                            }
                            edges
                                .entry((g.lock.clone(), lock.to_string()))
                                .or_insert_with(|| {
                                    let mut chain = vec![guard_frame(id, g)];
                                    walk_chain(&mut chain, t, hop, &|d| {
                                        lk.fun(d).acquires.iter().find(|a| a.lock == *lock).map(
                                            |a| TraceFrame {
                                                path: lk.path(d).to_string(),
                                                line: a.line,
                                                name: a.what.clone(),
                                            },
                                        )
                                    });
                                    chain
                                });
                        }
                    }
                }
            }

            // L2: guard held across a boundary — directly …
            for site in &g.crossings {
                out.entry(lk.path(id).to_string())
                    .or_default()
                    .push(RawFinding {
                        rule: RuleId::L2,
                        line: site.line,
                        message: format!(
                            "guard on `{}` (taken line {}) held across {} — a pool \
                             worker parked here still owns the lock, and any task it \
                             inline-steals (or that another worker runs) deadlocks \
                             the moment it needs `{}`; drop or narrow the guard \
                             before the boundary, or suppress with a written proof \
                             no queued task takes this lock",
                            g.lock, g.line, site.what, g.lock
                        ),
                        trace: vec![
                            guard_frame(id, g),
                            TraceFrame {
                                path: lk.path(id).to_string(),
                                line: site.line,
                                name: site.what.clone(),
                            },
                        ],
                        chains: Vec::new(),
                    });
            }
            // … or transitively through a call (first offending call
            // per guard keeps the noise at audit granularity).
            'transitive: for call in &g.calls {
                for &t in lk.resolve(fi, &call.name) {
                    if boundary_reach[t].is_some() {
                        let mut trace = vec![guard_frame(id, g)];
                        walk_chain(&mut trace, t, &boundary_reach, &|d| {
                            let df = lk.fun(d);
                            df.blocking
                                .iter()
                                .filter(|b| is_boundary(b.kind))
                                .map(|b| (b.line, b.what.clone()))
                                .chain(df.spawns.iter().map(|s| (s.line, s.what.clone())))
                                .min()
                                .map(|(line, name)| TraceFrame {
                                    path: lk.path(d).to_string(),
                                    line,
                                    name,
                                })
                        });
                        let boundary = trace
                            .last()
                            .map(|f| f.name.clone())
                            .unwrap_or_else(|| "a blocking boundary".to_string());
                        out.entry(lk.path(id).to_string())
                            .or_default()
                            .push(RawFinding {
                                rule: RuleId::L2,
                                line: call.line,
                                message: format!(
                                    "guard on `{}` (taken line {}) held across \
                                     `{}(..)`, which can reach {} — drop the guard \
                                     before the call, or suppress with a written \
                                     proof the callee never parks while this lock \
                                     is needed elsewhere",
                                    g.lock, g.line, call.name, boundary
                                ),
                                trace,
                                chains: Vec::new(),
                            });
                        break 'transitive;
                    }
                }
            }

            // L3: guard held across a call whose every resolution is in
            // another crate (order-opacity smell; leaf crates whose
            // locks never nest are exempt).
            let home = crate_of(lk.path(id));
            for call in &g.calls {
                let targets = lk.resolve(fi, &call.name);
                if targets.is_empty() {
                    continue;
                }
                let foreign = targets.iter().all(|&t| {
                    let tc = crate_of(lk.path(t));
                    tc != home && !lk.path(t).starts_with(LOCK_LEAF_CRATE)
                });
                if foreign {
                    let mut trace = vec![guard_frame(id, g)];
                    trace.push(lk.def_frame(targets[0]));
                    out.entry(lk.path(id).to_string())
                        .or_default()
                        .push(RawFinding {
                            rule: RuleId::L3,
                            line: call.line,
                            message: format!(
                                "guard on `{}` (taken line {}) held across the \
                                 cross-crate call `{}(..)` into {} — lock order \
                                 across crate boundaries is invisible to readers; \
                                 drop the guard first, or keep the callee lock-free",
                                g.lock,
                                g.line,
                                call.name,
                                crate_of(lk.path(targets[0]))
                            ),
                            trace,
                            chains: Vec::new(),
                        });
                }
            }
        }
    }

    // L1: a cycle in the lock-order graph. Mutual-reachability closure
    // over the (tiny) lock set; one finding per strongly-connected
    // component, reported as the shortest cycle through its
    // lexicographically smallest lock with one evidence chain per edge.
    let names: Vec<&String> = locks.iter().collect();
    let idx: BTreeMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i))
        .collect();
    let k = names.len();
    let mut adj = vec![vec![false; k]; k];
    for (held, acquired) in edges.keys() {
        adj[idx[held.as_str()]][idx[acquired.as_str()]] = true;
    }
    let mut reach = adj.clone();
    for m in 0..k {
        // Row `m` cannot gain entries during its own pass (the update
        // is `reach[m][j] |= reach[m][m] && reach[m][j]`), so the
        // clone sidesteps the aliasing borrow without changing the
        // closure computed.
        let via = reach[m].clone();
        for row in reach.iter_mut() {
            if row[m] {
                for (slot, &step) in row.iter_mut().zip(via.iter()) {
                    *slot |= step;
                }
            }
        }
    }
    let mut assigned = vec![false; k];
    for start in 0..k {
        if assigned[start] {
            continue;
        }
        let scc: Vec<usize> = (start..k)
            .filter(|&j| j == start || (reach[start][j] && reach[j][start]))
            .collect();
        for &j in &scc {
            assigned[j] = true;
        }
        if scc.len() < 2 || !reach[start][start] {
            continue;
        }
        // Shortest cycle through `start` inside the SCC: the first node
        // the walk from `start` visits with an edge back to it closes it.
        let scc_adj: Vec<Vec<usize>> = (0..k)
            .map(|v| (0..k).filter(|&j| adj[v][j] && scc.contains(&j)).collect())
            .collect();
        let (parent, order) = reach_from(&[start], &scc_adj);
        let Some(&closer) = order.iter().find(|&&v| adj[v][start]) else {
            continue;
        };
        let mut cycle = vec![closer];
        let mut cur = closer;
        while let Some(Hop::Via(p)) = parent[cur] {
            cycle.push(p);
            cur = p;
        }
        cycle.reverse();
        cycle.push(start);
        let chains: Vec<Vec<TraceFrame>> = cycle
            .windows(2)
            .map(|w| edges[&(names[w[0]].clone(), names[w[1]].clone())].clone())
            .collect();
        let order = cycle
            .iter()
            .map(|&j| format!("`{}`", names[j]))
            .collect::<Vec<_>>()
            .join(" -> ");
        let anchor = chains[0].last().expect("edge chains are non-empty").clone();
        out.entry(anchor.path.clone())
            .or_default()
            .push(RawFinding {
                rule: RuleId::L1,
                line: anchor.line,
                message: format!(
                    "lock-order cycle {order}: two threads taking these locks in \
                 opposite orders deadlock; impose one global order (each chain \
                 below shows where an edge is created), narrow one guard, or \
                 suppress with a written proof the orders can never interleave"
                ),
                trace: Vec::new(),
                chains,
            });
    }

    LockGraph {
        locks: locks.into_iter().collect(),
        edges: edges
            .into_iter()
            .map(|((held, acquired), chain)| LockEdge {
                held,
                acquired,
                chain,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FileModel;
    use crate::lexer::lex;
    use crate::summary::summarize;

    fn graph_findings(files: &[(&str, &str)]) -> BTreeMap<String, Vec<RawFinding>> {
        let summaries: Vec<FileSummary> = files
            .iter()
            .map(|(p, s)| summarize(&FileModel::build(p, lex(s))))
            .collect();
        check(&summaries).0
    }

    #[test]
    fn cross_file_chain_is_reported_shortest_first() {
        let a = "fn drive(pool: &ThreadPool) {\n\
                 pool.scope(|s| {\n    s.spawn(move || { stage_kernel(7); });\n});\n}";
        let b = "pub fn stage_kernel(x: u64) -> u64 {\n    gate_barrier(x)\n}\n\
                 fn gate_barrier(x: u64) -> u64 {\n    let g = GATE.lock();\n    x\n}";
        let out = graph_findings(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)]);
        let findings = &out["crates/x/src/b.rs"];
        assert_eq!(findings.len(), 1);
        let f = &findings[0];
        assert_eq!(f.rule, RuleId::C1);
        assert_eq!(f.line, 5);
        // Chain: spawn closure → stage_kernel → gate_barrier → lock.
        assert_eq!(f.trace.len(), 4);
        assert!(f.trace[0].name.contains("task closure"));
        assert!(f.trace[1].name.contains("stage_kernel"));
        assert!(f.trace[2].name.contains("gate_barrier"));
        assert!(f.trace[3].name.contains("lock"));
    }

    #[test]
    fn unreachable_blocking_is_clean() {
        let a = "fn coordinator(m: &Mutex<u32>) {\n    let g = m.lock();\n}";
        let out = graph_findings(&[("crates/x/src/a.rs", a)]);
        assert!(out.is_empty());
    }

    #[test]
    fn alias_resolved_calls_still_link() {
        let a = "use helpers::{stage_kernel as kern};\n\
                 fn drive(pool: &ThreadPool) {\n\
                 pool.scope(|s| {\n    s.spawn(move || { kern(7); });\n});\n}";
        let b = "pub fn stage_kernel(x: u64) -> u64 {\n    let g = GATE.lock();\n    x\n}";
        let out = graph_findings(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)]);
        assert_eq!(out["crates/x/src/b.rs"].len(), 1);
    }

    #[test]
    fn stoplisted_names_do_not_attract_edges() {
        // A def named `next` holding a recv must not be reached via a
        // generic `.next()` call in a task body.
        let a = "fn drive(pool: &ThreadPool) {\n\
                 pool.scope(|s| {\n    s.spawn(move || { it.next(); });\n});\n}";
        let b = "fn next(rx: &Receiver<u32>) -> Option<u32> {\n    rx.recv().ok()\n}";
        let out = graph_findings(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)]);
        assert!(out.is_empty());
    }
}
