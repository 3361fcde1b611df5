//! `riskpipe-lint` — the workspace determinism & safety pass.
//!
//! Every artifact this engine produces is contractually bit-identical
//! across engines, thread counts, and live/rebuild paths (the pinned
//! goldens in `tests/golden_metrics.rs`, `tests/sweep_plan.rs`,
//! `tests/drilldown.rs`). The goldens catch a nondeterminism bug *after
//! the fact*; this pass catches the patterns that cause them *at the
//! diff*. It tokenizes every `.rs` file in `crates/`, `src/`,
//! `examples/` and `tests/` with a hand-rolled lexer (no external
//! dependencies — the workspace builds offline) and enforces the rule
//! catalogue [`RuleId::ALL`]:
//!
//! * **D1** — no iteration over `HashMap`/`HashSet` in
//!   fold/merge/sink/rollup code (use `BTreeMap` or a sorted drain);
//! * **D2** — no `sort_by`/`max_by`/`min_by` comparators built on
//!   `partial_cmp` (use `f64::total_cmp`);
//! * **D3** — no `Instant::now`/`SystemTime::now` outside designated
//!   timing modules (timings flow through stats/counter structs only);
//! * **D4** — no entropy-seeded RNG construction (seeds are explicit);
//! * **S1** — every `unsafe` site carries a `// SAFETY:` audit comment;
//! * **S2** — narrowing `as` casts in codec/decode paths need a checked
//!   conversion or an annotation (graduated from warn to deny once the
//!   durable-format work landed and the workspace was clean);
//! * **C1** — no blocking primitive (`lock`, condvar `wait`, channel
//!   `recv`, `join`, `park`, nested `.scope`) *reachable* from code that
//!   executes on pool workers — checked over a workspace call graph,
//!   with the full root→site chain in every finding;
//! * **C2** — no raw filesystem writes (`fs::write`, `File::create`,
//!   truncating `OpenOptions`) in persistence paths outside
//!   `riskpipe_tables::durable`;
//! * **L1**/**L2**/**L3** — the lock-flow rules over the same call
//!   graph: no cycle in the workspace lock-order graph, no guard held
//!   across a spawn/`par_*`/scope boundary or a blocking site, no guard
//!   held across a call into another crate;
//! * **W1** — no `unwrap`/`expect`/`panic!` in non-test library code of
//!   the serving-path crates.
//!
//! Every rule is deny-level; the only warn-level finding today is an
//! unused suppression (`--deny-warnings` fails on those too, and is
//! what CI runs).
//!
//! The engine is two sequential passes: pass 1 lexes and summarises
//! each file in turn (definitions, call sites, aliases, blocking
//! sites, task closures) and runs the per-file rules; pass 2 links the
//! summaries into a call graph and runs reachability from the
//! pool-task roots (see [`crate::graph`]). A whole-workspace scan is
//! about a tenth of a second in release, so there is no thread
//! fan-out and no cache to keep coherent.
//!
//! Suppression is per-site and auditable:
//!
//! ```text
//! // lint: allow(D1) — each key occurs once per partial; entries are
//! // sorted before they can reach any output.
//! ```
//!
//! A suppression must name the rule and carry a non-empty reason after
//! a dash; a malformed suppression is itself a deny-level finding
//! (rule `SUP`), and an unused one a warn-level finding — so the audit
//! trail can never silently rot.
//!
//! The lint crate eats its own dog food: its sources use `BTreeMap`
//! throughout, bind no wall clocks, and are part of the workspace scan
//! run by the tier-1 `workspace_clean` test.

mod analysis;
pub mod graph;
mod lexer;
mod rules;
pub mod summary;

pub use analysis::{FileModel, HashKind, Scope, Suppression};
pub use lexer::{lex, Tok, TokKind};
pub use rules::RawFinding;
pub use summary::{FileSummary, FnNode, RootKind};

use std::fmt;
use std::path::{Path, PathBuf};

/// The rule catalogue identifiers. `Sup` is the engine's own rule:
/// findings about the suppression comments themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    D1,
    D2,
    D3,
    D4,
    S1,
    S2,
    C1,
    C2,
    L1,
    L2,
    L3,
    W1,
    Sup,
}

impl RuleId {
    pub const ALL: [RuleId; 13] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::S1,
        RuleId::S2,
        RuleId::C1,
        RuleId::C2,
        RuleId::L1,
        RuleId::L2,
        RuleId::L3,
        RuleId::W1,
        RuleId::Sup,
    ];

    pub fn code(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::S1 => "S1",
            RuleId::S2 => "S2",
            RuleId::C1 => "C1",
            RuleId::C2 => "C2",
            RuleId::L1 => "L1",
            RuleId::L2 => "L2",
            RuleId::L3 => "L3",
            RuleId::W1 => "W1",
            RuleId::Sup => "SUP",
        }
    }

    pub fn from_code(code: &str) -> Option<RuleId> {
        let code = code.to_ascii_uppercase();
        RuleId::ALL.into_iter().find(|r| r.code() == code)
    }

    /// Default severity. New rules enter the catalogue at `Warn` and
    /// graduate to `Deny` once the workspace is clean; every rule in
    /// the catalogue has graduated (S2 with the durable-format work,
    /// W1 and L3 when their last sites were burned down), so a new
    /// rule's warning period is the only reason to add a `Warn` arm
    /// here.
    pub fn severity(self) -> Severity {
        Severity::Deny
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
            RuleId::D1 => "no HashMap/HashSet iteration in fold/merge/sink/rollup code",
            RuleId::D2 => "no sort_by/max_by/min_by comparators built on partial_cmp",
            RuleId::D3 => "no Instant::now/SystemTime::now outside designated timing modules",
            RuleId::D4 => "no entropy-seeded RNG construction (seeds must be explicit)",
            RuleId::S1 => "every unsafe site carries a // SAFETY: audit comment",
            RuleId::S2 => "narrowing `as` casts in codec/decode paths need a checked conversion",
            RuleId::C1 => "no blocking primitive reachable from pool-task roots (call-graph rule)",
            RuleId::C2 => "no raw fs writes in persistence paths outside riskpipe_tables::durable",
            RuleId::L1 => "no cycle in the workspace lock-order graph (call-graph rule)",
            RuleId::L2 => "no guard held across a spawn/par_*/scope boundary or blocking site",
            RuleId::L3 => "no guard held across a call into another crate",
            RuleId::W1 => "no unwrap/expect/panic! in serving-path library code",
            RuleId::Sup => "suppressions must name a known rule and carry a reason, and be used",
        }
    }

    /// Full `--explain` text.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "D1 — hash-container iteration in merge-sensitive code (deny)\n\
                 \n\
                 WHY   std::collections::HashMap/HashSet iterate in an order that is\n\
                 randomized per process (SipHash keys differ per run). When a fold,\n\
                 merge, sink, or rollup visits entries in that order, any non-\n\
                 commutative step — floating-point accumulation, output emission,\n\
                 first-wins conflict resolution — produces run-dependent artifacts,\n\
                 which breaks the engine's bit-identical contract (and makes sharded\n\
                 MapReduce merges untrustworthy).\n\
                 \n\
                 FIRES on `for .. in <hash>` and `<hash>.iter()/drain()/keys()/...`\n\
                 when an enclosing fn/closure/file name looks like fold/merge/sink/\n\
                 rollup code, or the loop body calls merge/fold/absorb/reduce.\n\
                 \n\
                 FIX   Use BTreeMap/BTreeSet, collect::<BTreeMap<_,_>>(), or the\n\
                 sorted-drain idiom the rule recognises:\n\
                 \n\
                 \tlet mut v: Vec<_> = map.into_iter().collect();\n\
                 \tv.sort_unstable_by_key(|e| e.0);\n\
                 \n\
                 Suppress a provably order-independent site with\n\
                 `// lint: allow(D1) — <why order cannot leak>`."
            }
            RuleId::D2 => {
                "D2 — partial_cmp-based comparators (deny)\n\
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
                 stable secondary key when equal values must order reproducibly."
            }
            RuleId::D3 => {
                "D3 — wall-clock reads outside designated timing modules (deny)\n\
                 \n\
                 WHY   Instant::now/SystemTime::now readings differ every run. They\n\
                 are fine as *measurements* (stats, counters, benchmark reports) but\n\
                 poison determinism the moment one flows into a numeric result, a\n\
                 seed, a cache key, or control flow near the numeric path.\n\
                 \n\
                 FIRES on Instant::now/SystemTime::now in any file outside the\n\
                 designated timing modules (default: crates/bench/ — the benchmark\n\
                 and perf-gate harness). Inline #[cfg(test)] modules are exempt.\n\
                 \n\
                 FIX   Route the timing through the existing stats/counter structs\n\
                 (ExecStats, Stage1CacheStats...) or telemetry spans in a designated\n\
                 module, or suppress with a reason documenting exactly where the\n\
                 reading flows and why it cannot reach numeric output."
            }
            RuleId::D4 => {
                "D4 — entropy-seeded RNG construction (deny)\n\
                 \n\
                 WHY   Every random stream in the pipeline must be replayable: the\n\
                 paper's workloads (and the goldens) depend on simulations being\n\
                 bit-identical given a scenario seed. thread_rng/from_entropy/OsRng\n\
                 draw from process entropy, so two runs can never agree.\n\
                 \n\
                 FIRES on thread_rng / from_entropy / OsRng / getrandom tokens.\n\
                 \n\
                 FIX   Construct RNGs from explicit caller-provided seeds (the\n\
                 riskpipe_types::dist generators all take u64 seeds) and derive\n\
                 per-task streams by mixing stable identifiers into the seed."
            }
            RuleId::S1 => {
                "S1 — unsafe without a SAFETY audit (deny)\n\
                 \n\
                 WHY   Every unsafe block/fn/impl in the workspace encodes an\n\
                 invariant the compiler cannot check (disjoint slot ownership in the\n\
                 pool's scoped spawns, the simulated-GPU launch contract, lifetime\n\
                 erasure in work-stealing). An unwritten invariant is one refactor\n\
                 away from being violated silently; the audit comment is the\n\
                 reviewable contract.\n\
                 \n\
                 FIRES on any `unsafe` token without a comment containing `SAFETY`\n\
                 within the preceding six lines (trailing same-line comments count).\n\
                 This rule applies in test code too.\n\
                 \n\
                 FIX   Write `// SAFETY: <the invariant and why it holds here>`\n\
                 immediately above the unsafe site."
            }
            RuleId::S2 => {
                "S2 — narrowing casts in codec/decode paths (deny)\n\
                 \n\
                 WHY   `x as u32` silently truncates. In codec/decode paths a\n\
                 truncated length, offset, or id corrupts persisted artifacts in\n\
                 ways the checksums of a future frame format may not even catch\n\
                 (the truncation happens before encoding). The rule entered the\n\
                 catalogue at warn and graduated to deny when the durable-format\n\
                 work in the ROADMAP landed.\n\
                 \n\
                 FIRES on `as u8/u16/u32/i8/i16/i32/f32` inside functions or files\n\
                 whose name marks them as codec/encode/decode/compress/frame code.\n\
                 \n\
                 FIX   Use TryFrom/try_into with an error path, assert the bound\n\
                 first, or suppress with a reason proving the value fits\n\
                 (`// lint: allow(S2) — shard count is capped at 4096 above`)."
            }
            RuleId::C1 => {
                "C1 — blocking primitives reachable from pool-task roots (deny)\n\
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
                 closures, and the worker-executed fns `accept`/`accept_shared`/\n\
                 `build_stage1_output_on` — to Mutex `lock`, RwLock `read`/`write`,\n\
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
            RuleId::C2 => {
                "C2 — raw filesystem writes in persistence paths (deny)\n\
                 \n\
                 WHY   Durable artifacts are crash-consistent only because every\n\
                 byte lands via `riskpipe_tables::durable::write_atomic` (tmp file\n\
                 + sync_all + rename + parent fsync) or the sharded inflight-then-\n\
                 rename protocol, with the manifest written last. One bare\n\
                 `fs::write` in a persistence path reintroduces torn frames that\n\
                 the crash-recovery tests cannot see until a real crash does.\n\
                 \n\
                 FIRES on `fs::write`, `File::create`, and `OpenOptions`\n\
                 `.truncate(true)` in non-test code whose file stem or enclosing\n\
                 fn name marks it as persistence code (persist/store/shard/\n\
                 manifest/snapshot/checkpoint/save/spill), outside the durable\n\
                 module itself.\n\
                 \n\
                 FIX   Route the bytes through `durable::write_atomic`, or\n\
                 suppress with a written crash-consistency argument (e.g. the\n\
                 shard writer streams to an `.inflight` name and renames at seal,\n\
                 so a torn inflight file is unreferenced garbage by construction)."
            }
            RuleId::L1 => {
                "L1 — cycle in the workspace lock-order graph (deny)\n\
                 \n\
                 WHY   Two threads that acquire the same two locks in opposite\n\
                 orders can deadlock: each holds the lock the other wants. The\n\
                 22 hand-written C1 suppressions permit specific blocking sites;\n\
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
                 C1-class blocking site (deny)\n\
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
                "L3 — guard held across a call into another crate (deny)\n\
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
                 Calls into designated lock-leaf crates (default: riskpipe-obs,\n\
                 whose registry locks never call back out) are exempt, the\n\
                 same shape as D3's timing modules.\n\
                 \n\
                 FIX   Narrow the guard (copy data out, drop before calling),\n\
                 or suppress with a written argument that the callee takes no\n\
                 lock; promote a genuinely leaf-like callee crate into\n\
                 `lock_leaf_crates` only with an audit that its internal locks\n\
                 never call out."
            }
            RuleId::W1 => {
                "W1 — unwrap/expect/panic! in serving-path library code (deny)\n\
                 \n\
                 WHY   A panic inside a pool task aborts the whole pipeline run\n\
                 and poisons shared mutexes; the serving path should surface\n\
                 typed errors instead — above all for a value that was decoded\n\
                 from a frame or a spill file, which a torn write can make\n\
                 anything.\n\
                 \n\
                 FIRES on `.unwrap(`, `.expect(`, and `panic!` in non-test code\n\
                 under the serving-path crates (core, exec, tables, metrics,\n\
                 warehouse, analytics, mapreduce, obs).\n\
                 \n\
                 FIX   Return a Result (`RiskError::corrupt` for anything read\n\
                 from a decoded frame) or use unwrap_or/_default. Where the\n\
                 value is infallible by an invariant established a few lines\n\
                 up, keep the call under `// lint: allow(W1) — <the invariant,\n\
                 in words>`; never on a site that reads decoded bytes."
            }
            RuleId::Sup => {
                "SUP — suppression hygiene (deny for malformed, warn for unused)\n\
                 \n\
                 WHY   Suppressions are the audit trail that keeps the pass honest.\n\
                 One that names no known rule or gives no reason is unreviewable;\n\
                 one that no longer suppresses anything is stale documentation.\n\
                 \n\
                 SYNTAX  // lint: allow(D1) — reason\n\
                 \t// lint: allow(D3, S1) - reason   (plain hyphen also accepted)\n\
                 The comment covers its own line and the next code line.\n\
                 \n\
                 FIRES (deny) on allow() naming an unknown rule or missing the\n\
                 reason; (warn) on a suppression that matched no finding."
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Finding severity. `Deny` findings fail the build; `Warn` findings
/// are reported (and fail only under `--deny-warnings`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Deny,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
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

/// One reportable finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub line: u32,
    pub message: String,
    /// Call-chain trace from root to blocking site (C1/L2/L3; empty
    /// for the per-file rules).
    pub trace: Vec<TraceFrame>,
    /// The chains closing a lock-order cycle (L1 only): one chain per
    /// edge, holder site → … → nested acquisition. JSON schema v3
    /// reports these under `chains`.
    pub chains: Vec<Vec<TraceFrame>>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.path,
            self.line,
            self.rule,
            self.severity.as_str(),
            self.message
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

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path substrings designating timing modules (D3 allowlist).
    pub timing_modules: Vec<String>,
    /// Directory names skipped during the walk. `fixtures` is excluded
    /// because lint fixture trees are intentionally violating inputs.
    pub exclude_dirs: Vec<String>,
    /// Path prefixes of the serving-path crates (W1 scope).
    pub serving_crates: Vec<String>,
    /// Path substrings of the sanctioned durable-write modules (C2
    /// exempts them — they *are* the atomic-write protocol).
    pub durable_modules: Vec<String>,
    /// Function names whose bodies execute on pool workers (C1 roots,
    /// in addition to spawned/`par_*` closures).
    pub root_fns: Vec<String>,
    /// Path prefixes of crates audited as lock *leaves*: their internal
    /// locks never call back out of the crate, so a guard held across a
    /// call into them creates no opaque order edge (L3 exempts them —
    /// the telemetry registry is the canonical case).
    pub lock_leaf_crates: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            timing_modules: vec![
                "crates/bench/".to_string(),
                // The telemetry subsystem is the one library home for
                // wall clocks: span timings are diagnostic-only and
                // never feed loss numerics (enforced by its own docs
                // and the registry's integers-only discipline).
                "crates/obs/".to_string(),
            ],
            exclude_dirs: vec![
                "target".to_string(),
                "vendor".to_string(),
                "fixtures".to_string(),
                ".git".to_string(),
            ],
            serving_crates: vec![
                "crates/core/src/".to_string(),
                "crates/exec/src/".to_string(),
                "crates/tables/src/".to_string(),
                "crates/metrics/src/".to_string(),
                "crates/warehouse/src/".to_string(),
                "crates/analytics/src/".to_string(),
                "crates/mapreduce/src/".to_string(),
                "crates/obs/src/".to_string(),
            ],
            durable_modules: vec!["crates/tables/src/durable.rs".to_string()],
            root_fns: vec![
                "accept".to_string(),
                "accept_shared".to_string(),
                "build_stage1_output_on".to_string(),
            ],
            lock_leaf_crates: vec!["crates/obs/".to_string()],
        }
    }
}

/// The roots (relative to the workspace root) a full workspace pass
/// scans.
pub const WORKSPACE_SCAN_ROOTS: [&str; 4] = ["crates", "src", "examples", "tests"];

/// Lint one file's source text. Returns the post-suppression findings
/// (including any `SUP` findings about the suppressions themselves).
/// The call-graph pass runs file-locally here, so single-file C1
/// chains still fire; cross-file chains need [`lint_sources`].
pub fn lint_source(path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let report = lint_sources(&[(path.to_string(), source.to_string())], cfg);
    report.findings
}

/// Lint a set of already-read sources as one workspace: per-file rules
/// plus the cross-file call-graph passes (C1 reachability and the
/// L1/L2/L3 lock-flow analysis), then per-file suppression processing
/// over the combined findings.
pub fn lint_sources(files: &[(String, String)], cfg: &Config) -> Report {
    // Pass 1, file by file in input order. Only the summary, the raw
    // per-file findings and the suppressions outlive a file's tokens.
    let mut summaries = Vec::with_capacity(files.len());
    let mut per_file = Vec::with_capacity(files.len());
    for (path, source) in files {
        let model = FileModel::build(path, lex(source));
        let raw = rules::run_all(&model, cfg);
        summaries.push(summary::summarize(&model, cfg));
        per_file.push((raw, model.suppressions));
    }
    let mut graph_findings = graph::check(&summaries);
    let (lock_findings, lock_graph) = graph::lock_analysis(&summaries, cfg);
    for (path, mut extra) in lock_findings {
        graph_findings.entry(path).or_default().append(&mut extra);
    }

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
            severity: f.rule.severity(),
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
                    severity: Severity::Deny,
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
                severity: Severity::Deny,
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
                severity: Severity::Warn,
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
    /// exported by `--emit-lock-graph` as DOT plus the runtime witness
    /// manifest.
    pub lock_graph: graph::LockGraph,
}

impl Report {
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "riskpipe-lint: {} file(s) scanned, {} deny, {} warn\n",
            self.files_scanned,
            self.deny_count(),
            self.warn_count()
        ));
        out
    }

    /// Machine-readable report (stable JSON, hand-rolled — no deps).
    /// Schema v3: findings carry a `trace` array (the C1 call chain)
    /// when non-empty, and a `chains` array-of-arrays (the root→site
    /// chains closing an L1 cycle, one per cycle edge) when non-empty.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 3,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"counts\": {{\"deny\": {}, \"warn\": {}}},\n",
            self.deny_count(),
            self.warn_count()
        ));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\"",
                f.rule,
                f.severity.as_str(),
                json_escape(&f.path),
                f.line,
                json_escape(&f.message)
            ));
            if !f.trace.is_empty() {
                out.push_str(", \"trace\": [");
                for (j, frame) in f.trace.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"path\": \"{}\", \"line\": {}, \"name\": \"{}\"}}",
                        json_escape(&frame.path),
                        frame.line,
                        json_escape(&frame.name)
                    ));
                }
                out.push(']');
            }
            if !f.chains.is_empty() {
                out.push_str(", \"chains\": [");
                for (ci, chain) in f.chains.iter().enumerate() {
                    if ci > 0 {
                        out.push_str(", ");
                    }
                    out.push('[');
                    for (j, frame) in chain.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!(
                            "{{\"path\": \"{}\", \"line\": {}, \"name\": \"{}\"}}",
                            json_escape(&frame.path),
                            frame.line,
                            json_escape(&frame.name)
                        ));
                    }
                    out.push(']');
                }
                out.push(']');
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Collect the `.rs` files a scan of `paths` (relative to `root`)
/// covers, in sorted order — the pass itself must be deterministic.
/// A path that does not exist, or a scan that finds no file at all, is
/// an error: a typo in a CI step must not turn the gate into "0 files
/// scanned, 0 findings".
pub fn collect_rs_files(
    root: &Path,
    paths: &[PathBuf],
    cfg: &Config,
) -> std::io::Result<Vec<PathBuf>> {
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
            walk_dir(&abs, cfg, &mut out)?;
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

fn walk_dir(dir: &Path, cfg: &Config, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if cfg.exclude_dirs.iter().any(|d| d == &name) {
                continue;
            }
            walk_dir(&path, cfg, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint `paths` (files or directories, relative to `root`) as one
/// workspace: every collected file feeds the shared call graph.
pub fn lint_paths(root: &Path, paths: &[PathBuf], cfg: &Config) -> std::io::Result<Report> {
    let files = collect_rs_files(root, paths, cfg)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(file)?));
    }
    Ok(lint_sources(&sources, cfg))
}

/// Lint the whole workspace under `root` (the standard scan roots).
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let paths: Vec<PathBuf> = WORKSPACE_SCAN_ROOTS.iter().map(PathBuf::from).collect();
    lint_paths(root, &paths, cfg)
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
mod tests {
    use super::*;

    #[test]
    fn suppression_with_reason_silences_a_finding() {
        let src = "fn f() {\n\
                   // lint: allow(D4) — demo stream, not a simulation input\n\
                   let r = thread_rng();\n}";
        let findings = lint_source("crates/x/src/a.rs", src, &Config::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn suppression_without_reason_is_deny_and_does_not_suppress() {
        let src = "fn f() {\n// lint: allow(D4)\nlet r = thread_rng();\n}";
        let findings = lint_source("crates/x/src/a.rs", src, &Config::default());
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.rule == RuleId::D4));
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::Sup && f.severity == Severity::Deny));
    }

    #[test]
    fn unknown_rule_in_suppression_is_deny() {
        let src = "fn f() {\n// lint: allow(D9) — whatever\nlet x = 1;\n}";
        let findings = lint_source("crates/x/src/a.rs", src, &Config::default());
        assert!(findings
            .iter()
            .any(|f| f.rule == RuleId::Sup && f.severity == Severity::Deny));
    }

    #[test]
    fn unused_suppression_is_warn() {
        let src = "fn f() {\n// lint: allow(D4) — stale\nlet x = 1;\n}";
        let findings = lint_source("crates/x/src/a.rs", src, &Config::default());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RuleId::Sup);
        assert_eq!(findings[0].severity, Severity::Warn);
    }

    #[test]
    fn wrong_rule_suppression_does_not_silence() {
        let src = "fn f() {\n\
                   // lint: allow(D3) — wrong rule named\n\
                   let r = thread_rng();\n}";
        let findings = lint_source("crates/x/src/a.rs", src, &Config::default());
        assert!(findings.iter().any(|f| f.rule == RuleId::D4));
    }

    #[test]
    fn json_escapes_and_counts() {
        let report = Report {
            findings: vec![Finding {
                rule: RuleId::D2,
                severity: Severity::Deny,
                path: "a\\b.rs".into(),
                line: 3,
                message: "say \"hi\"".into(),
                trace: Vec::new(),
                chains: Vec::new(),
            }],
            files_scanned: 1,
            ..Report::default()
        };
        let json = report.render_json();
        assert!(json.contains("\"version\": 3"));
        assert!(json.contains("\"rule\": \"D2\""));
        assert!(json.contains("a\\\\b.rs"));
        assert!(json.contains("say \\\"hi\\\""));
        assert!(json.contains("\"counts\": {\"deny\": 1, \"warn\": 0}"));
        // No trace → no trace key; no chains → no chains key.
        assert!(!json.contains("\"trace\""));
        assert!(!json.contains("\"chains\""));
    }

    #[test]
    fn json_v3_trace_field_and_text_chain() {
        let finding = Finding {
            rule: RuleId::C1,
            severity: Severity::Deny,
            path: "crates/x/src/b.rs".into(),
            line: 9,
            message: "blocking".into(),
            chains: Vec::new(),
            trace: vec![
                TraceFrame {
                    path: "crates/x/src/a.rs".into(),
                    line: 3,
                    name: "task closure in `drive`".into(),
                },
                TraceFrame {
                    path: "crates/x/src/b.rs".into(),
                    line: 9,
                    name: "`m.lock()` (Mutex acquisition)".into(),
                },
            ],
        };
        let text = finding.to_string();
        assert!(text.contains("chain: crates/x/src/a.rs:3 task closure"));
        assert!(text.contains("-> crates/x/src/b.rs:9"));
        let report = Report {
            findings: vec![finding],
            files_scanned: 2,
            ..Report::default()
        };
        let json = report.render_json();
        assert!(json.contains("\"trace\": [{\"path\": \"crates/x/src/a.rs\", \"line\": 3"));
    }

    #[test]
    fn json_v3_chains_field_and_text_rendering() {
        let frame = |p: &str, l: u32, n: &str| TraceFrame {
            path: p.into(),
            line: l,
            name: n.into(),
        };
        let finding = Finding {
            rule: RuleId::L1,
            severity: Severity::Deny,
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
            findings: vec![finding],
            files_scanned: 2,
            ..Report::default()
        };
        let json = report.render_json();
        assert!(
            json.contains("\"chains\": [[{\"path\": \"crates/x/src/a.rs\", \"line\": 2"),
            "{json}"
        );
        assert!(
            json.contains("[{\"path\": \"crates/x/src/b.rs\", \"line\": 7"),
            "{json}"
        );
    }

    #[test]
    fn rule_codes_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::from_code(r.code()), Some(r));
        }
        assert_eq!(RuleId::from_code("d1"), Some(RuleId::D1));
        assert_eq!(RuleId::from_code("Z9"), None);
    }
}
