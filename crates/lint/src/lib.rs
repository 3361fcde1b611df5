//! `riskpipe-lint` — the workspace determinism & safety pass.
//!
//! Every artifact this engine produces is contractually bit-identical
//! across engines, thread counts, and live/rebuild paths (the pinned
//! goldens in `tests/golden_metrics.rs` and `tests/drilldown.rs`, and
//! the session oracle, `tests/oracle/mod.rs`). The goldens catch a
//! nondeterminism bug *after the fact*; this pass catches the patterns
//! that cause them *at the diff*. It tokenizes every `.rs` file in `crates/`, `src/`,
//! `examples/` and `tests/` with a hand-rolled lexer (no external
//! dependencies — the workspace builds offline) and enforces the rule
//! catalogue [`RuleId::ALL`]:
//!
//! * **D2** — no `sort_by`/`max_by`/`min_by` comparators built on
//!   `partial_cmp` (use `f64::total_cmp`);
//! * **C1** — no blocking primitive (`lock`, condvar `wait`, channel
//!   `recv`, `join`, `park`, nested `.scope`) *reachable* from code that
//!   executes on pool workers — checked over a workspace call graph,
//!   with the full root→site chain in every finding;
//! * **L1**/**L2**/**L3** — the lock-flow rules over the same call
//!   graph: no cycle in the workspace lock-order graph, no guard held
//!   across a spawn/`par_*`/scope boundary or a blocking site, no guard
//!   held across a call into another crate.
//!
//! These are the rules clippy cannot say: D2 as a `disallowed-methods`
//! entry would also fire inside every `#[derive(PartialOrd)]`, and C1
//! and L1–L3 need the whole-workspace call and lock graphs. The
//! workspace's other determinism and safety rules are clippy
//! configuration — the root `clippy.toml`, the root manifest's
//! `[workspace.lints]` and inner lint attributes — checked by the
//! `workspace_clean` test's clippy run:
//!
//! | rule | clippy lint |
//! |------|-------------|
//! | D1 (hash-order folds) | `iter_over_hash_type`; `disallowed_types`: `HashMap`, `HashSet` |
//! | D3 (wall clocks) | `disallowed_methods`: `Instant::now`, `SystemTime::now` |
//! | D4 (entropy seeds) | `disallowed_types`: `RandomState` |
//! | C2 (raw fs writes) | `disallowed_methods`: `fs::write`, `File::create`, `OpenOptions::truncate` |
//! | S1 (unaudited `unsafe`) | `undocumented_unsafe_blocks` |
//! | S2 (narrowing casts in codecs) | `cast_possible_truncation`, denied per codec module |
//! | W1 (serving-path panics) | `unwrap_used`, `expect_used`, `panic`, denied per serving crate |
//!
//! There is one severity: every finding fails the run, an unused
//! suppression included.
//!
//! The engine is two sequential passes: pass 1 lexes and summarises
//! each file in turn (definitions, call sites, aliases, blocking
//! sites, task closures) and runs the per-file rules; pass 2 links the
//! summaries into a call graph and runs reachability from the
//! pool-task roots (see [`crate::graph`]). A whole-workspace scan is
//! about a tenth of a second in release, so there is no thread
//! fan-out and no cache to keep coherent.
//!
//! Suppression is per-site and auditable. The engine's rules take a
//! comment:
//!
//! ```text
//! // lint: allow(C1) — 200 µs timed wait, entered only after the
//! // steal found nothing; the timeout bounds any missed wakeup.
//! ```
//!
//! A suppression must name the rule and carry a non-empty reason after
//! a dash; a malformed or unused suppression is itself a finding (rule
//! `SUP`) — so the audit trail can never silently rot. The clippy rules take
//! `#[expect(<lint>, reason = "…")]`, under the same discipline:
//! `clippy::allow_attributes_without_reason` is denied workspace-wide
//! and rustc reports an expectation nothing fulfils.
//!
//! The lint crate eats its own dog food: its sources use `BTreeMap`
//! throughout and are part of the workspace scan run by the tier-1
//! `workspace_clean` test.

mod analysis;
pub mod graph;
mod lexer;
mod rules;
pub mod summary;

pub use analysis::{FileModel, Suppression};
pub use lexer::{lex, Tok, TokKind};
pub use rules::RawFinding;
pub use summary::{FileSummary, FnNode, RootKind};

use std::fmt;
use std::path::{Path, PathBuf};

/// The rule catalogue identifiers. `Sup` is the engine's own rule:
/// findings about the suppression comments themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    D2,
    C1,
    L1,
    L2,
    L3,
    Sup,
}

impl RuleId {
    pub const ALL: [RuleId; 6] = [
        RuleId::D2,
        RuleId::C1,
        RuleId::L1,
        RuleId::L2,
        RuleId::L3,
        RuleId::Sup,
    ];

    pub fn code(self) -> &'static str {
        match self {
            RuleId::D2 => "D2",
            RuleId::C1 => "C1",
            RuleId::L1 => "L1",
            RuleId::L2 => "L2",
            RuleId::L3 => "L3",
            RuleId::Sup => "SUP",
        }
    }

    pub fn from_code(code: &str) -> Option<RuleId> {
        let code = code.to_ascii_uppercase();
        RuleId::ALL.into_iter().find(|r| r.code() == code)
    }

    /// The catalogue's codes, space-separated, for "known rules"
    /// messages. `SUP` can be explained but is not a rule a suppression
    /// can name, so the suppression message leaves it out.
    pub fn code_list(with_sup: bool) -> String {
        let codes: Vec<&str> = RuleId::ALL
            .iter()
            .filter(|r| with_sup || **r != RuleId::Sup)
            .map(|r| r.code())
            .collect();
        codes.join(" ")
    }

    /// One-line summary for `--rules` listings.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D2 => "no sort_by/max_by/min_by comparators built on partial_cmp",
            RuleId::C1 => "no blocking primitive reachable from pool-task roots (call-graph rule)",
            RuleId::L1 => "no cycle in the workspace lock-order graph (call-graph rule)",
            RuleId::L2 => "no guard held across a spawn/par_*/scope boundary or blocking site",
            RuleId::L3 => "no guard held across a call into another crate",
            RuleId::Sup => "suppressions must name a known rule and carry a reason, and be used",
        }
    }

    /// Full `--explain` text.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::D2 => {
                "D2 — partial_cmp-based comparators\n\
                 \n\
                 WHY   `partial_cmp` on floats returns None for NaN, so comparators\n\
                 built on it either panic (unwrap) or fall back to an arbitrary\n\
                 ordering — and the sort order of equal-or-NaN keys then depends on\n\
                 input arrangement and sort algorithm. A NaN that reaches a sort key\n\
                 must order deterministically, not by accident.\n\
                 \n\
                 FIRES on sort_by/sort_unstable_by/max_by/min_by whose comparator\n\
                 mentions partial_cmp.\n\
                 \n\
                 FIX   Use `f64::total_cmp` (total order, NaN sorted high/low by\n\
                 sign bit) or an integer/Ord key. Tie-break float keys with a\n\
                 stable secondary key when equal values must order reproducibly.\n\
                 \n\
                 NOT CLIPPY  A `disallowed-methods` entry for\n\
                 `PartialOrd::partial_cmp` also fires inside every\n\
                 `#[derive(PartialOrd)]` expansion; this rule looks at the\n\
                 comparator argument of a sort or extremum only."
            }
            RuleId::C1 => {
                "C1 — blocking primitives reachable from pool-task roots\n\
                 \n\
                 WHY   The pool has a fixed worker count and tasks spawn tasks. A\n\
                 worker that parks on a lock, condvar, channel, or join that only\n\
                 *other queued tasks* can release is a deadlock: the releasing task\n\
                 may be queued behind the parked worker. The engine's whole design\n\
                 (inline task-stealing in nested scopes, the never-parking stage-1\n\
                 cache, redundant racer builds) exists to uphold this invariant.\n\
                 \n\
                 FIRES via a workspace call graph: pass 1 summarises every file\n\
                 (definitions, call sites, `use` aliases, closures attached to\n\
                 their spawning expression); pass 2 runs reachability from the\n\
                 pool-task roots — `Scope::spawn` closures, `par_*` helper\n\
                 closures, and the worker-executed fns `accept` and\n\
                 `accept_shared` — to Mutex `lock`, RwLock `read`/`write`,\n\
                 condvar `wait*`, channel `recv*`, argless `join`, `thread::park`,\n\
                 and nested `.scope(..)` sites. Every finding prints the full call\n\
                 chain root → … → blocking site. Linking is name-based and\n\
                 deliberately over-approximate: a false edge costs one audited\n\
                 suppression, a missed edge costs the invariant.\n\
                 \n\
                 FIX   Restructure to atomics/message passing, move the blocking\n\
                 to the coordinator thread, or suppress at the blocking site with\n\
                 a written proof the wait is bounded and cannot form a cycle\n\
                 (e.g. `// lint: allow(C1) — wake-gate only: 200µs bounded wait,\n\
                 holder never blocks`). The suppression silences every chain\n\
                 through that site — the site is sound or it is not."
            }
            RuleId::L1 => {
                "L1 — cycle in the workspace lock-order graph\n\
                 \n\
                 WHY   Two threads that acquire the same two locks in opposite\n\
                 orders can deadlock: each holds the lock the other wants. The\n\
                 hand-written C1 suppressions permit specific blocking sites;\n\
                 this rule proves the *order* of the acquisitions they permit is\n\
                 globally consistent — the moral equivalent of lockdep, but at\n\
                 the diff instead of at runtime.\n\
                 \n\
                 FIRES via lock-flow analysis: pass 1 attaches each acquisition\n\
                 to the binding it locks (`self.index.lock()` acquires lock\n\
                 `index`) and tracks guard lifetimes (binding of the returned\n\
                 guard, scope end, explicit `drop(..)`); every lock acquired\n\
                 while another guard is held — directly or through a call\n\
                 chain — becomes an edge `held -> acquired` of a workspace\n\
                 lock-order graph. A cycle in that graph is a potential\n\
                 deadlock; the finding carries every chain that closes it\n\
                 (holder site -> ... -> nested acquisition, one chain per\n\
                 edge). Lock identity is the receiver binding name —\n\
                 deliberately over-approximate, like the call graph: merged\n\
                 same-name locks can only add edges, never hide one.\n\
                 \n\
                 FIX   Pick one global order (document it at the lock\n\
                 declarations) and restructure the minority site: narrow the\n\
                 first guard's scope with a block or `drop(..)` before taking\n\
                 the second lock, or copy the needed data out. Suppress at the\n\
                 nested acquisition the finding anchors on only with a written\n\
                 proof the two chains can never run concurrently. The exported\n\
                 manifest (`--emit-lock-graph`) is what the runtime\n\
                 lockwitness asserts against, so the order you prove here is\n\
                 re-checked on every lockwitness-enabled test run."
            }
            RuleId::L2 => {
                "L2 — guard held across a spawn/par_*/scope boundary or a\n\
                 C1-class blocking site\n\
                 \n\
                 WHY   The pool inline-steals: a thread inside `.scope(..)`\n\
                 (and any worker between tasks) executes *other queued tasks*.\n\
                 A guard held across such a boundary is held while arbitrary\n\
                 stolen work runs — if that work wants the same lock, the\n\
                 thread deadlocks on itself; a guard held across a condvar\n\
                 wait, channel receive, or join extends the hold for an\n\
                 unbounded park. This is the self-deadlock shape the session's\n\
                 leader-gate suppressions argue about by hand; L2 checks it\n\
                 mechanically.\n\
                 \n\
                 FIRES when a tracked guard is live across a `Scope::spawn` /\n\
                 `par_*` call, a nested `.scope(..)`, or a wait/recv/join/park\n\
                 site — in the same fn, or through a call chain to a fn that\n\
                 transitively reaches one. A condvar wait that names the\n\
                 guard's binding in its arguments is exempt (the wait releases\n\
                 that mutex while parked); any *other* guard held across it\n\
                 still fires.\n\
                 \n\
                 FIX   End the guard first (block scope or `drop(..)`), copy\n\
                 the data out, or move the spawn/wait outside the critical\n\
                 section. Suppress only with a written proof the held lock is\n\
                 never touched by work reachable from the boundary."
            }
            RuleId::L3 => {
                "L3 — guard held across a call into another crate\n\
                 \n\
                 WHY   A cross-crate call made while holding a lock makes the\n\
                 lock order depend on a callee the holder's crate does not\n\
                 control — today's leaf call is tomorrow's callback that takes\n\
                 another lock, and the order edge it creates is invisible at\n\
                 the call site. Order-opaque holds are how lock hierarchies\n\
                 rot; the rule keeps each one an audited suppression.\n\
                 \n\
                 FIRES when a tracked guard is live across a call whose every\n\
                 resolved definition lives in a different crate (same-crate\n\
                 candidates win — Rust resolution prefers local items).\n\
                 Calls into the audited lock-leaf crate riskpipe-obs, whose\n\
                 registry locks never call back out, are exempt.\n\
                 \n\
                 FIX   Narrow the guard (copy data out, drop before calling),\n\
                 or suppress with a written argument that the callee takes no\n\
                 lock."
            }
            RuleId::Sup => {
                "SUP — suppression hygiene\n\
                 \n\
                 WHY   Suppressions are the audit trail that keeps the pass honest.\n\
                 One that names no known rule or gives no reason is unreviewable;\n\
                 one that no longer suppresses anything is stale documentation.\n\
                 \n\
                 SYNTAX  // lint: allow(C1) — reason\n\
                 \t// lint: allow(C1, L2) - reason   (plain hyphen also accepted)\n\
                 The comment covers its own line and the next code line.\n\
                 \n\
                 FIRES on allow() naming an unknown rule or missing the\n\
                 reason, and on a suppression that matched no finding.\n\
                 \n\
                 The rules that are clippy lints take #[expect(<lint>, reason =\n\
                 \"...\")] instead; clippy's allow_attributes_without_reason and\n\
                 rustc's unfulfilled_lint_expectations are their SUP."
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One frame of a C1 call-chain trace: a function definition (or the
/// final blocking site) on the path from a pool-task root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFrame {
    pub path: String,
    pub line: u32,
    /// Display name: the fn, the task closure, or the blocking
    /// primitive for the final frame.
    pub name: String,
}

/// One reportable finding. Every finding fails the run.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub line: u32,
    pub message: String,
    /// Call-chain trace from root to blocking site (C1/L2/L3; empty
    /// for the per-file rules).
    pub trace: Vec<TraceFrame>,
    /// The chains closing a lock-order cycle (L1 only): one chain per
    /// edge, holder site → … → nested acquisition.
    pub chains: Vec<Vec<TraceFrame>>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )?;
        for (i, frame) in self.trace.iter().enumerate() {
            let head = if i == 0 { "chain:" } else { "   ->" };
            write!(
                f,
                "\n    {head} {}:{} {}",
                frame.path, frame.line, frame.name
            )?;
        }
        for (c, chain) in self.chains.iter().enumerate() {
            for (i, frame) in chain.iter().enumerate() {
                if i == 0 {
                    write!(f, "\n    chain {}:", c + 1)?;
                } else {
                    write!(f, "\n       ->")?;
                }
                write!(f, " {}:{} {}", frame.path, frame.line, frame.name)?;
            }
        }
        Ok(())
    }
}

/// Directory names skipped during the walk. `fixtures` is excluded
/// because lint fixture trees are intentionally violating inputs.
const EXCLUDED_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// Function names whose bodies execute on pool workers (C1 roots, in
/// addition to spawned/`par_*` closures).
const ROOT_FNS: [&str; 2] = ["accept", "accept_shared"];

/// Path prefix of the crate audited as a lock *leaf*: its internal
/// locks never call back out of the crate, so a guard held across a
/// call into it creates no opaque order edge (L3 exempts it — the
/// telemetry registry is the canonical case).
const LOCK_LEAF_CRATE: &str = "crates/obs/";

/// The roots (relative to the workspace root) a full workspace pass
/// scans.
const WORKSPACE_SCAN_ROOTS: [&str; 4] = ["crates", "src", "examples", "tests"];

/// Lint one file's source text. Returns the post-suppression findings
/// (including any `SUP` findings about the suppressions themselves).
/// The call-graph pass runs file-locally here, so single-file C1
/// chains still fire; cross-file chains need [`lint_sources`].
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_sources(&[(path.to_string(), source.to_string())]).findings
}

/// Lint a set of already-read sources as one workspace: per-file rules
/// plus the cross-file call-graph passes (C1 reachability and the
/// L1/L2/L3 lock-flow analysis), then per-file suppression processing
/// over the combined findings.
pub fn lint_sources(files: &[(String, String)]) -> Report {
    // Pass 1, file by file in input order. Only the summary, the raw
    // per-file findings and the suppressions outlive a file's tokens.
    let mut summaries = Vec::with_capacity(files.len());
    let mut per_file = Vec::with_capacity(files.len());
    for (path, source) in files {
        let model = FileModel::build(path, lex(source));
        let raw = rules::run_all(&model);
        summaries.push(summary::summarize(&model));
        per_file.push((raw, model.suppressions));
    }
    let (mut graph_findings, lock_graph) = graph::check(&summaries);

    let mut report = Report {
        findings: Vec::new(),
        files_scanned: files.len(),
        lock_graph,
    };
    for (summary, (mut raw, suppressions)) in summaries.iter().zip(per_file) {
        if let Some(mut extra) = graph_findings.remove(&summary.path) {
            raw.append(&mut extra);
        }
        raw.sort_by_key(|a| (a.line, a.rule));
        report
            .findings
            .extend(apply_suppressions(&summary.path, &suppressions, raw));
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// Apply the file's suppressions to its raw findings and append the
/// `SUP` hygiene findings.
fn apply_suppressions(
    path: &str,
    suppressions: &[Suppression],
    raw: Vec<RawFinding>,
) -> Vec<Finding> {
    let mut used = vec![false; suppressions.len()];
    let mut findings: Vec<Finding> = Vec::new();

    'finding: for f in raw {
        for (si, sup) in suppressions.iter().enumerate() {
            let names_rule = sup.rules.iter().any(|r| r == f.rule.code());
            if names_rule && sup.has_reason && sup.covers.contains(&f.line) {
                used[si] = true;
                continue 'finding;
            }
        }
        findings.push(Finding {
            rule: f.rule,
            path: path.to_string(),
            line: f.line,
            message: f.message,
            trace: f.trace,
            chains: f.chains,
        });
    }

    // Suppression hygiene.
    for (si, sup) in suppressions.iter().enumerate() {
        for r in &sup.rules {
            if RuleId::from_code(r).is_none() {
                findings.push(Finding {
                    rule: RuleId::Sup,
                    path: path.to_string(),
                    line: sup.line,
                    message: format!(
                        "suppression names unknown rule `{r}` — known rules: {}",
                        RuleId::code_list(false)
                    ),
                    trace: Vec::new(),
                    chains: Vec::new(),
                });
            }
        }
        if !sup.has_reason {
            findings.push(Finding {
                rule: RuleId::Sup,
                path: path.to_string(),
                line: sup.line,
                message: "suppression carries no reason — write \
                          `// lint: allow(<rule>) — <why this site is sound>`"
                    .to_string(),
                trace: Vec::new(),
                chains: Vec::new(),
            });
        } else if !used[si] && sup.rules.iter().all(|r| RuleId::from_code(r).is_some()) {
            findings.push(Finding {
                rule: RuleId::Sup,
                path: path.to_string(),
                line: sup.line,
                message: format!(
                    "unused suppression for {}: no finding matched — delete it \
                     or move it next to the site it covers",
                    sup.rules.join(", ")
                ),
                trace: Vec::new(),
                chains: Vec::new(),
            });
        }
    }

    findings.sort_by_key(|a| (a.line, a.rule));
    findings
}

/// A full run's results.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// The workspace lock-order graph the L1/L2/L3 pass derived —
    /// exported by `--emit-lock-graph` as the runtime witness manifest.
    pub lock_graph: graph::LockGraph,
}

impl Report {
    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "riskpipe-lint: {} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }
}

/// Collect the `.rs` files a scan of `paths` (relative to `root`)
/// covers, in sorted order — the pass itself must be deterministic.
/// A path that does not exist, or a scan that finds no file at all, is
/// an error: a typo in a CI step must not turn the gate into "0 files
/// scanned, 0 findings".
pub fn collect_rs_files(root: &Path, paths: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() {
            p.clone()
        } else {
            root.join(p)
        };
        if abs.is_file() {
            out.push(abs);
        } else if abs.is_dir() {
            walk_dir(&abs, &mut out)?;
        } else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no such file or directory: {}", abs.display()),
            ));
        }
    }
    if out.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no .rs file under the given paths — nothing to lint",
        ));
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if EXCLUDED_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk_dir(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint `paths` (files or directories, relative to `root`) as one
/// workspace: every collected file feeds the shared call graph.
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> std::io::Result<Report> {
    let files = collect_rs_files(root, paths)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(file)?));
    }
    Ok(lint_sources(&sources))
}

/// Lint the whole workspace under `root` (the standard scan roots).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let paths: Vec<PathBuf> = WORKSPACE_SCAN_ROOTS.iter().map(PathBuf::from).collect();
    lint_paths(root, &paths)
}

/// Find the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/clippy.rs"]
mod clippy_harness;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_with_reason_silences_a_finding() {
        let src = "fn f(v: &mut [f64]) {\n\
                   // lint: allow(D2) — demo ranking, NaN-free by construction\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        let findings = lint_source("crates/x/src/a.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn suppression_without_reason_is_deny_and_does_not_suppress() {
        let src = "fn f(v: &mut [f64]) {\n// lint: allow(D2)\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        let findings = lint_source("crates/x/src/a.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.rule == RuleId::D2));
        assert!(findings.iter().any(|f| f.rule == RuleId::Sup));
    }

    #[test]
    fn unknown_rule_in_suppression_is_deny() {
        // D1 and D4 are clippy configuration now: naming them is as
        // wrong as naming a code that never existed.
        for code in ["D9", "D1", "D4"] {
            let src = format!("fn f() {{\n// lint: allow({code}) — whatever\nlet x = 1;\n}}");
            let findings = lint_source("crates/x/src/a.rs", &src);
            assert!(
                findings.iter().any(|f| f.rule == RuleId::Sup),
                "{code}: {findings:?}"
            );
        }
    }

    #[test]
    fn unused_suppression_is_a_finding() {
        let src = "fn f() {\n// lint: allow(D2) — stale\nlet x = 1;\n}";
        let findings = lint_source("crates/x/src/a.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::Sup);
    }

    #[test]
    fn wrong_rule_suppression_does_not_silence() {
        let src = "fn f(v: &mut [f64]) {\n\
                   // lint: allow(C1) — wrong rule named\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        let findings = lint_source("crates/x/src/a.rs", src);
        assert!(findings.iter().any(|f| f.rule == RuleId::D2));
    }

    fn frame(p: &str, l: u32, n: &str) -> TraceFrame {
        TraceFrame {
            path: p.into(),
            line: l,
            name: n.into(),
        }
    }

    // This test and the next keep the names they had when a JSON report
    // sat beside the text one; the text rendering they check is unchanged.
    #[test]
    fn json_v3_trace_field_and_text_chain() {
        let finding = Finding {
            rule: RuleId::C1,
            path: "crates/x/src/b.rs".into(),
            line: 9,
            message: "blocking".into(),
            chains: Vec::new(),
            trace: vec![
                frame("crates/x/src/a.rs", 3, "task closure in `drive`"),
                frame("crates/x/src/b.rs", 9, "`m.lock()` (Mutex acquisition)"),
            ],
        };
        let text = finding.to_string();
        assert!(
            text.starts_with("crates/x/src/b.rs:9: [C1] blocking"),
            "{text}"
        );
        assert!(text.contains("chain: crates/x/src/a.rs:3 task closure"));
        assert!(text.contains("-> crates/x/src/b.rs:9"));
        let report = Report {
            findings: vec![finding],
            files_scanned: 2,
            ..Report::default()
        };
        let text = report.render_text();
        assert!(
            text.ends_with("riskpipe-lint: 2 file(s) scanned, 1 finding(s)\n"),
            "{text}"
        );
    }

    #[test]
    fn json_v3_chains_field_and_text_rendering() {
        let finding = Finding {
            rule: RuleId::L1,
            path: "crates/x/src/a.rs".into(),
            line: 4,
            message: "lock-order cycle".into(),
            trace: Vec::new(),
            chains: vec![
                vec![
                    frame("crates/x/src/a.rs", 2, "`a`"),
                    frame("crates/x/src/a.rs", 4, "`b.lock()`"),
                ],
                vec![
                    frame("crates/x/src/b.rs", 7, "`c`"),
                    frame("crates/x/src/b.rs", 9, "`a.lock()`"),
                ],
            ],
        };
        let text = finding.to_string();
        assert!(text.contains("chain 1: crates/x/src/a.rs:2"), "{text}");
        assert!(text.contains("chain 2: crates/x/src/b.rs:7"), "{text}");
        let report = Report {
            findings: vec![finding.clone(), finding],
            files_scanned: 3,
            ..Report::default()
        };
        let text = report.render_text();
        assert!(
            text.ends_with("riskpipe-lint: 3 file(s) scanned, 2 finding(s)\n"),
            "{text}"
        );
    }

    #[test]
    fn rule_codes_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::from_code(r.code()), Some(r));
        }
        assert_eq!(RuleId::from_code("d2"), Some(RuleId::D2));
        assert_eq!(RuleId::from_code("Z9"), None);
    }
}
