//! Pass 1 of the workspace analysis: one [`FileSummary`] per file.
//!
//! The summary is everything the cross-file pass needs and nothing
//! more: function/method definitions, call sites by name, `use`-alias
//! pairs, blocking-primitive sites, and — crucially — closure bodies
//! attached to the expression that spawns them. A closure handed to
//! `Scope::spawn` or one of the `par_*` helpers *is* a pipeline task
//! body, so it becomes its own graph node and a reachability root; a
//! closure handed to `pool.scope(..)` runs inline on the calling
//! thread and stays part of the enclosing function.
//!
//! Like everything in this crate the extraction is heuristic (no type
//! inference), tuned so the graph *over*-approximates reachability:
//! a false edge costs one audited suppression, a missed edge costs an
//! invariant.

use crate::analysis::{is_test_path, FileModel};
use crate::lexer::TokKind;
use std::collections::{BTreeMap, BTreeSet};

/// Why a function node is a reachability root (code that executes on
/// pool workers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RootKind {
    /// Closure handed to `Scope::spawn` — a queued pipeline task body.
    SpawnClosure,
    /// Closure handed to a `par_*` data-parallel helper (the helper
    /// spawns it once per chunk).
    ParClosure(String),
    /// A function whose name marks it as worker-executed: sink
    /// delivery (`accept`/`accept_shared`) and stage-1 builds.
    RootFn,
}

impl RootKind {
    pub fn describe(&self) -> String {
        match self {
            RootKind::SpawnClosure => "spawned task closure".to_string(),
            RootKind::ParClosure(h) => format!("`{h}` task closure"),
            RootKind::RootFn => "worker-executed fn".to_string(),
        }
    }
}

/// One call site inside a function body (name-based; resolution
/// happens in the graph pass).
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub line: u32,
}

/// What kind of blocking primitive a [`BlockSite`] is. The lock-flow
/// pass cares about the distinction: `Mutex`/`RwLock` acquisitions are
/// lock-order *edges* (rule L1's domain), everything else is a
/// *boundary* a guard must not be held across (rule L2's domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    Mutex,
    RwLock,
    Wait,
    Recv,
    Join,
    Park,
    Scope,
    /// A `Scope::spawn`/`par_*` task-spawn site — never a C1 blocking
    /// site itself, but an L2 boundary when a guard is held across it.
    Spawn,
}

/// One blocking-primitive site inside a function body.
#[derive(Debug, Clone)]
pub struct BlockSite {
    pub line: u32,
    pub kind: BlockKind,
    /// Human description, e.g. "`sleep_lock.lock()` (Mutex acquisition)".
    pub what: String,
}

/// One lock acquisition, identified by the *binding* it locks (the
/// receiver of `.lock()`/`.read()`/`.write()` — `self.index.lock()`
/// acquires lock `index`). Name-based identity is deliberately
/// over-approximate, like the call graph: two distinct mutexes that
/// share a binding name merge into one lock-order node, which can only
/// add edges, never hide them.
#[derive(Debug, Clone)]
pub struct LockAcquire {
    pub lock: String,
    pub line: u32,
    pub what: String,
}

/// The lifetime of one guard inside one fn: the lock it holds plus
/// everything observed *while it is held* — nested acquisitions
/// (lock-order edges), calls (composed through the call graph), and
/// boundary crossings (spawns, condvar waits, channel receives, …).
///
/// A guard's span starts at the acquisition and ends at the enclosing
/// scope's `}`, at an explicit `drop(<binding>)`, or — for guards never
/// bound to a name — at the end of the statement. Shadowing does *not*
/// end a span (Rust drops the shadowed value at scope end, not at the
/// rebinding), and an `if let`-temporary guard conservatively stays
/// held through the body it gates.
#[derive(Debug, Clone)]
pub struct GuardSpan {
    /// Lock identity (receiver binding name).
    pub lock: String,
    /// Acquisition line.
    pub line: u32,
    pub what: String,
    /// Locks acquired while this guard was held (intra-fn order edges).
    pub acquires: Vec<LockAcquire>,
    /// Calls made while this guard was held (composed in pass 2).
    pub calls: Vec<CallSite>,
    /// Spawn/wait/recv/join/park/scope boundaries crossed while held.
    /// A condvar wait that names this guard's binding in its arguments
    /// is exempt — the wait releases the mutex while parked.
    pub crossings: Vec<BlockSite>,
}

/// A function, method, or pool-task closure with its calls and
/// blocking sites.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Link name — what call sites resolve against. Empty for
    /// closures: nothing calls them by name.
    pub name: String,
    /// Display name for traces, e.g. "`run_stream`" or
    /// "task closure in `run_stream`".
    pub display: String,
    pub line: u32,
    pub is_test: bool,
    pub root: Option<RootKind>,
    pub calls: Vec<CallSite>,
    pub blocking: Vec<BlockSite>,
    /// Every Mutex/RwLock acquisition in the body (held or not) — the
    /// raw material pass 2 composes into transitive lock reach.
    pub acquires: Vec<LockAcquire>,
    /// Guard lifetimes with the events observed while held.
    pub guards: Vec<GuardSpan>,
    /// `Scope::spawn`/`par_*` task-spawn sites in the body (L2
    /// boundary sources for the transitive hold-across-call check).
    pub spawns: Vec<BlockSite>,
}

/// Pass-1 product for one file.
#[derive(Debug, Clone, Default)]
pub struct FileSummary {
    pub path: String,
    pub fns: Vec<FnNode>,
    /// `use path::orig as alias;` → alias → orig (last segment only —
    /// the graph links by bare name).
    pub aliases: BTreeMap<String, String>,
}

/// Helpers whose closure argument executes on pool workers.
const PAR_HELPERS: &[&str] = &["par_for", "par_map_collect", "par_chunks_mut", "par_reduce"];

/// Condvar wait methods (all parking).
const WAIT_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
];

/// Blocking channel receives (`try_recv` is non-blocking and exempt).
const RECV_METHODS: &[&str] = &["recv", "recv_timeout", "recv_deadline"];

/// Keywords and control-flow idents that look like calls but are not.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "let", "in", "as", "move", "mut", "ref",
    "pub", "use", "mod", "impl", "struct", "enum", "trait", "type", "where", "unsafe", "const",
    "static", "crate", "super", "else", "break", "continue", "dyn", "box", "await", "async",
    "yield", "true", "false", "Some", "None", "Ok", "Err",
];

/// A guard whose span is still open while the token walk is inside it.
struct ActiveGuard {
    /// Owning [`FnNode`] index — events in nested *root* closures
    /// (which run on other threads) never attribute to this guard.
    node: usize,
    /// The `let` binding holding the guard; `None` for a temporary
    /// guard that dies at the end of its statement.
    binding: Option<String>,
    /// `stack.len()` at acquisition (temporaries end at the first `;`
    /// at or below this depth).
    stack_depth: usize,
    /// Number of open braces at acquisition (bound guards end when the
    /// enclosing block closes).
    brace_count: usize,
    span: GuardSpan,
}

fn finish_guard(fns: &mut [FnNode], g: ActiveGuard) {
    // Event-free spans carry no lock-flow signal; drop them to keep
    // summaries lean.
    if !(g.span.acquires.is_empty() && g.span.calls.is_empty() && g.span.crossings.is_empty()) {
        fns[g.node].guards.push(g.span);
    }
}

/// Extract the pass-1 summary from an analysed file.
pub fn summarize(model: &FileModel) -> FileSummary {
    let file_test = is_test_path(&model.path);
    let rwlocks = rwlock_idents(model);
    let mut fns: Vec<FnNode> = Vec::new();

    enum Close {
        Brace,
        Paren,
    }
    struct Frame {
        close: Close,
        node: Option<usize>,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut active: Vec<ActiveGuard> = Vec::new();
    let mut pending_fn: Option<(String, u32)> = None;
    let mut square_depth = 0i32;

    let current_node =
        |stack: &[Frame]| -> Option<usize> { stack.iter().rev().find_map(|f| f.node) };
    let brace_count = |stack: &[Frame]| -> usize {
        stack
            .iter()
            .filter(|f| matches!(f.close, Close::Brace))
            .count()
    };

    let n = model.code.len();
    let mut hint_idx = 0usize;
    for ci in 0..n {
        let t = model.ct(ci).expect("in range").clone();
        // `lint: calls(NAME)` hints: declared call edges the
        // name-linker cannot see. Injected as ordinary calls on the
        // enclosing function (and any guard held there), attributed at
        // the hint's bound line.
        while hint_idx < model.call_hints.len() && t.line >= model.call_hints[hint_idx].line {
            let hint = &model.call_hints[hint_idx];
            hint_idx += 1;
            let Some(ni) = current_node(&stack) else {
                continue;
            };
            for callee in &hint.callees {
                let site = CallSite {
                    name: callee.clone(),
                    line: hint.line,
                };
                fns[ni].calls.push(site.clone());
                for g in active.iter_mut().filter(|g| g.node == ni) {
                    g.span.calls.push(site.clone());
                }
            }
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fn") => {
                if let Some(name) = model.ct(ci + 1).filter(|u| u.kind == TokKind::Ident) {
                    pending_fn = Some((name.text.clone(), name.line));
                }
            }
            (TokKind::Punct, "[") => square_depth += 1,
            (TokKind::Punct, "]") => square_depth -= 1,
            (TokKind::Punct, ";")
                if square_depth == 0
                    && stack.last().is_none_or(|f| matches!(f.close, Close::Brace)) =>
            {
                // A trait-method signature without a body.
                pending_fn = None;
                // Statement end: temporary guards die here (a bound
                // guard lives to its scope's `}` or an explicit drop).
                let depth = stack.len();
                let (done, kept): (Vec<_>, Vec<_>) = active
                    .drain(..)
                    .partition(|g| g.binding.is_none() && depth <= g.stack_depth);
                active = kept;
                for g in done {
                    finish_guard(&mut fns, g);
                }
            }
            (TokKind::Punct, "{") => {
                let node = pending_fn.take().map(|(name, line)| {
                    let is_test = file_test || model.in_test_code(line);
                    let root = (!is_test && crate::ROOT_FNS.contains(&name.as_str()))
                        .then_some(RootKind::RootFn);
                    fns.push(FnNode {
                        display: format!("`{name}`"),
                        name,
                        line,
                        is_test,
                        root,
                        calls: Vec::new(),
                        blocking: Vec::new(),
                        acquires: Vec::new(),
                        guards: Vec::new(),
                        spawns: Vec::new(),
                    });
                    fns.len() - 1
                });
                stack.push(Frame {
                    close: Close::Brace,
                    node,
                });
            }
            (TokKind::Punct, "}") => {
                while let Some(f) = stack.pop() {
                    if matches!(f.close, Close::Brace) {
                        break;
                    }
                }
                // Scope end: guards bound inside the closed block die.
                let braces = brace_count(&stack);
                let (done, kept): (Vec<_>, Vec<_>) =
                    active.drain(..).partition(|g| g.brace_count > braces);
                active = kept;
                for g in done {
                    finish_guard(&mut fns, g);
                }
            }
            (TokKind::Punct, "(") => {
                // Was this paren opened by a call? `NAME (` with NAME
                // not a keyword and not a definition (`fn NAME (`).
                let mut node = None;
                let prev_is_def = ci >= 2 && model.ct(ci - 2).is_some_and(|u| u.is_ident("fn"));
                if let Some(prev) = ci.checked_sub(1).and_then(|j| model.ct(j)) {
                    if prev.kind == TokKind::Ident
                        && !prev_is_def
                        && !NON_CALL_IDENTS.contains(&prev.text.as_str())
                    {
                        let callee = prev.text.clone();
                        let is_method =
                            ci >= 2 && model.ct(ci - 2).is_some_and(|u| u.is_punct("."));
                        let host = current_node(&stack);
                        if let Some(ni) = host {
                            fns[ni].calls.push(CallSite {
                                name: callee.clone(),
                                line: prev.line,
                            });
                            for g in active.iter_mut().filter(|g| g.node == ni) {
                                g.span.calls.push(CallSite {
                                    name: callee.clone(),
                                    line: prev.line,
                                });
                            }
                        }
                        // Does this call's argument run on pool workers?
                        let in_test = file_test || model.in_test_code(prev.line);
                        let root = if in_test {
                            None
                        } else if is_method
                            && callee == "spawn"
                            && !stmt_back_has(model, ci - 1, &["thread", "Builder"])
                        {
                            Some(RootKind::SpawnClosure)
                        } else if PAR_HELPERS.contains(&callee.as_str()) {
                            Some(RootKind::ParClosure(callee.clone()))
                        } else {
                            None
                        };
                        if let Some(root) = root {
                            let spawn_site = BlockSite {
                                line: prev.line,
                                kind: BlockKind::Spawn,
                                what: match &root {
                                    RootKind::ParClosure(h) => {
                                        format!("`{h}(..)` (parallel task spawn)")
                                    }
                                    _ => "`.spawn(..)` (task spawn)".to_string(),
                                },
                            };
                            if let Some(ni) = host {
                                fns[ni].spawns.push(spawn_site.clone());
                                for g in active.iter_mut().filter(|g| g.node == ni) {
                                    g.span.crossings.push(spawn_site.clone());
                                }
                            }
                            let host_name = host
                                .map(|ni| fns[ni].display.clone())
                                .unwrap_or_else(|| "top level".to_string());
                            fns.push(FnNode {
                                name: String::new(),
                                display: format!("task closure in {host_name}"),
                                line: prev.line,
                                is_test: false,
                                root: Some(root),
                                calls: Vec::new(),
                                blocking: Vec::new(),
                                acquires: Vec::new(),
                                guards: Vec::new(),
                                spawns: Vec::new(),
                            });
                            node = Some(fns.len() - 1);
                        }
                    }
                }
                stack.push(Frame {
                    close: Close::Paren,
                    node,
                });
            }
            (TokKind::Punct, ")") => {
                while let Some(f) = stack.pop() {
                    if matches!(f.close, Close::Paren) {
                        break;
                    }
                }
            }
            (TokKind::Ident, _) => {
                if file_test || model.in_test_code(t.line) {
                    continue;
                }
                let Some(ni) = current_node(&stack) else {
                    continue;
                };
                // `drop(<binding>)` ends the named guard's span early.
                if t.text == "drop"
                    && model.ct(ci + 1).is_some_and(|u| u.is_punct("("))
                    && model.ct(ci + 3).is_some_and(|u| u.is_punct(")"))
                {
                    if let Some(victim) = model.ct(ci + 2).filter(|u| u.kind == TokKind::Ident) {
                        let name = victim.text.clone();
                        let (done, kept): (Vec<_>, Vec<_>) = active.drain(..).partition(|g| {
                            g.node == ni && g.binding.as_deref() == Some(name.as_str())
                        });
                        active = kept;
                        for g in done {
                            finish_guard(&mut fns, g);
                        }
                    }
                }
                if let Some(site) = blocking_site(model, ci, &rwlocks) {
                    match site.kind {
                        BlockKind::Mutex | BlockKind::RwLock => {
                            let lock = receiver_name(model, ci);
                            let acq = LockAcquire {
                                lock: lock.clone(),
                                line: site.line,
                                what: site.what.clone(),
                            };
                            for g in active.iter_mut().filter(|g| g.node == ni) {
                                g.span.acquires.push(acq.clone());
                            }
                            fns[ni].acquires.push(acq);
                            let binding = guard_binding(model, ci);
                            // `let _ = x.lock();` drops the guard
                            // immediately — no span at all.
                            if binding.as_deref() != Some("_") {
                                active.push(ActiveGuard {
                                    node: ni,
                                    binding,
                                    stack_depth: stack.len(),
                                    brace_count: brace_count(&stack),
                                    span: GuardSpan {
                                        lock,
                                        line: site.line,
                                        what: site.what.clone(),
                                        acquires: Vec::new(),
                                        calls: Vec::new(),
                                        crossings: Vec::new(),
                                    },
                                });
                            }
                        }
                        BlockKind::Wait => {
                            // A condvar wait *releases* the mutex whose
                            // guard it is passed — only guards not named
                            // in the argument list stay held across it.
                            for g in active.iter_mut().filter(|g| g.node == ni) {
                                let released = g
                                    .binding
                                    .as_deref()
                                    .is_some_and(|b| call_args_mention(model, ci, b));
                                if !released {
                                    g.span.crossings.push(site.clone());
                                }
                            }
                        }
                        _ => {
                            for g in active.iter_mut().filter(|g| g.node == ni) {
                                g.span.crossings.push(site.clone());
                            }
                        }
                    }
                    fns[ni].blocking.push(site);
                }
            }
            _ => {}
        }
    }
    for g in active.drain(..) {
        finish_guard(&mut fns, g);
    }

    FileSummary {
        path: model.path.clone(),
        fns,
        aliases: use_aliases(model),
    }
}

/// Is the code-token at `ci` a blocking-primitive site?
fn blocking_site(model: &FileModel, ci: usize, rwlocks: &BTreeSet<String>) -> Option<BlockSite> {
    let t = model.ct(ci)?;
    let prev_dot = ci >= 1 && model.ct(ci - 1).is_some_and(|u| u.is_punct("."));
    let argless = model.ct(ci + 1).is_some_and(|u| u.is_punct("("))
        && model.ct(ci + 2).is_some_and(|u| u.is_punct(")"));
    let called = model.ct(ci + 1).is_some_and(|u| u.is_punct("("));
    let receiver = || receiver_name(model, ci);
    let (kind, what) = match t.text.as_str() {
        "lock" if prev_dot && argless => (
            BlockKind::Mutex,
            format!("`{}.lock()` (Mutex acquisition)", receiver()),
        ),
        "read" | "write" if prev_dot && argless && rwlocks.contains(&receiver()) => (
            BlockKind::RwLock,
            format!("`{}.{}()` (RwLock acquisition)", receiver(), t.text),
        ),
        m if prev_dot && called && WAIT_METHODS.contains(&m) => {
            (BlockKind::Wait, format!("`.{m}(..)` (condvar wait)"))
        }
        m if prev_dot && called && RECV_METHODS.contains(&m) => (
            BlockKind::Recv,
            format!("`.{m}()` (blocking channel receive)"),
        ),
        "join" if prev_dot && argless => (
            BlockKind::Join,
            format!("`{}.join()` (thread join)", receiver()),
        ),
        "park"
            if ci >= 2
                && model.ct(ci - 1).is_some_and(|u| u.is_punct("::"))
                && model.ct(ci - 2).is_some_and(|u| u.is_ident("thread")) =>
        {
            (BlockKind::Park, "`thread::park()`".to_string())
        }
        "scope" if prev_dot && called => (
            BlockKind::Scope,
            "`.scope(..)` (nested pool scope)".to_string(),
        ),
        _ => return None,
    };
    Some(BlockSite {
        line: t.line,
        kind,
        what,
    })
}

/// The receiver binding of a method call at `ci` — the identifier two
/// code tokens back (`index . lock`), or `_` when there is none. This
/// is the lock-identity heuristic: locks are named by the binding they
/// are reached through.
fn receiver_name(model: &FileModel, ci: usize) -> String {
    match ci.checked_sub(2).and_then(|j| model.ct(j)) {
        Some(u) if u.kind == TokKind::Ident => u.text.clone(),
        _ => "_".to_string(),
    }
}

/// If the acquisition at `ci` is the *entire* initialiser of a `let`
/// (`let [mut] NAME = <receiver chain>.lock();`), the guard is bound
/// to NAME and lives to scope end. Anything else — a deref, a method
/// chained after the lock call, an `if let` scrutinee — is a
/// temporary whose guard dies at the end of the statement.
fn guard_binding(model: &FileModel, ci: usize) -> Option<String> {
    if !model.ct(ci + 3).is_some_and(|u| u.is_punct(";")) {
        return None;
    }
    // Walk back over the receiver chain (idents, `.`, `::`) to `=`.
    let mut j = ci.checked_sub(1)?;
    loop {
        let t = model.ct(j)?;
        let chainy =
            (t.kind == TokKind::Ident && !t.is_ident("let")) || t.is_punct(".") || t.is_punct("::");
        if !chainy {
            break;
        }
        j = j.checked_sub(1)?;
    }
    if !model.ct(j).is_some_and(|u| u.is_punct("=")) {
        return None;
    }
    let name = model
        .ct(j.checked_sub(1)?)
        .filter(|u| u.kind == TokKind::Ident && !u.is_ident("mut"))?
        .text
        .clone();
    let mut k = j.checked_sub(2)?;
    if model.ct(k).is_some_and(|u| u.is_ident("mut")) {
        k = k.checked_sub(1)?;
    }
    if !model.ct(k).is_some_and(|u| u.is_ident("let")) {
        return None;
    }
    Some(name)
}

/// Does the argument list of the call whose method name sits at `ci`
/// mention `ident`? Used to recognise `cv.wait(&mut guard)` releasing
/// `guard` while parked.
fn call_args_mention(model: &FileModel, ci: usize, ident: &str) -> bool {
    if !model.ct(ci + 1).is_some_and(|u| u.is_punct("(")) {
        return false;
    }
    let mut depth = 0i32;
    let mut j = ci + 1;
    while let Some(t) = model.ct(j) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") => depth += 1,
            (TokKind::Punct, ")") => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            (TokKind::Ident, s) if s == ident => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Does the statement containing code-token `ci` mention any of
/// `idents` before `ci`? Used to tell an OS-thread
/// `Builder::new()..spawn(..)` from a pool `scope.spawn(..)`.
fn stmt_back_has(model: &FileModel, ci: usize, idents: &[&str]) -> bool {
    let mut depth = 0i32;
    for j in (0..ci).rev() {
        let Some(t) = model.ct(j) else { break };
        if t.kind == TokKind::Ident && idents.contains(&t.text.as_str()) {
            return true;
        }
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                if depth == 0 {
                    return false; // start of the enclosing argument list
                }
                depth -= 1;
            }
            "{" | "}" | ";" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// Identifiers bound to `RwLock` values in this file (annotation or
/// initialiser mentions `RwLock` in the binding statement).
fn rwlock_idents(model: &FileModel) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let n = model.code.len();
    for ci in 0..n {
        let Some(t) = model.ct(ci) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = match t.text.as_str() {
            "let" => {
                let mut j = ci + 1;
                if model.ct(j).is_some_and(|u| u.is_ident("mut")) {
                    j += 1;
                }
                match model.ct(j) {
                    Some(u) if u.kind == TokKind::Ident => u.text.clone(),
                    _ => continue,
                }
            }
            _ => {
                // `NAME : <type>` — fields and params.
                if !model.ct(ci + 1).is_some_and(|u| u.is_punct(":")) {
                    continue;
                }
                t.text.clone()
            }
        };
        // Scan the rest of the binding region for `RwLock`.
        for j in ci + 1..(ci + 32).min(n) {
            let Some(u) = model.ct(j) else { break };
            if u.kind == TokKind::Punct && (u.text == ";" || u.text == "{") {
                break;
            }
            if u.is_ident("RwLock") {
                out.insert(name);
                break;
            }
        }
    }
    out
}

/// Collect `A as B` pairs from `use` statements: alias → original.
fn use_aliases(model: &FileModel) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let n = model.code.len();
    let mut ci = 0usize;
    while ci < n {
        let Some(t) = model.ct(ci) else { break };
        if !t.is_ident("use") {
            ci += 1;
            continue;
        }
        // Scan to the terminating `;`, recording `IDENT as IDENT`.
        let mut j = ci + 1;
        while j < n {
            let Some(u) = model.ct(j) else { break };
            if u.is_punct(";") {
                break;
            }
            if u.is_ident("as") {
                let orig = model.ct(j - 1).filter(|p| p.kind == TokKind::Ident);
                let alias = model.ct(j + 1).filter(|p| p.kind == TokKind::Ident);
                if let (Some(orig), Some(alias)) = (orig, alias) {
                    out.insert(alias.text.clone(), orig.text.clone());
                }
            }
            j += 1;
        }
        ci = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FileModel;
    use crate::lexer::lex;

    fn summary(path: &str, src: &str) -> FileSummary {
        let model = FileModel::build(path, lex(src));
        summarize(&model)
    }

    #[test]
    fn spawn_closure_becomes_a_root_node() {
        let s = summary(
            "crates/x/src/a.rs",
            "fn drive(pool: &ThreadPool) {\n\
             pool.scope(|s| {\n    s.spawn(move || { work(); });\n});\n}",
        );
        let root = s
            .fns
            .iter()
            .find(|f| f.root == Some(RootKind::SpawnClosure))
            .expect("root node");
        assert!(root.display.contains("drive"));
        assert!(root.calls.iter().any(|c| c.name == "work"));
        // `drive` itself is not a root; its nested `.scope(` is a
        // blocking site attributed to `drive`.
        let drive = s.fns.iter().find(|f| f.name == "drive").unwrap();
        assert!(drive.root.is_none());
        assert!(drive.blocking.iter().any(|b| b.what.contains("scope")));
    }

    #[test]
    fn os_thread_spawn_is_not_a_root() {
        let s = summary(
            "crates/x/src/a.rs",
            "fn start() {\n\
             let h = std::thread::Builder::new().name(n).spawn(move || loop_fn()).unwrap();\n}",
        );
        assert!(s.fns.iter().all(|f| f.root.is_none()));
    }

    #[test]
    fn par_helper_closures_are_roots() {
        let s = summary(
            "crates/x/src/a.rs",
            "fn launch(pool: &ThreadPool, xs: &mut [u64]) {\n\
             par_for(pool, xs, 1, |chunk| { handle(chunk); });\n}",
        );
        let root = s
            .fns
            .iter()
            .find(|f| matches!(f.root, Some(RootKind::ParClosure(_))))
            .expect("par root");
        assert!(root.calls.iter().any(|c| c.name == "handle"));
    }

    #[test]
    fn named_root_fns_and_blocking_sites() {
        let s = summary(
            "crates/x/src/sink.rs",
            "fn accept(&mut self, r: Report) {\n    self.state.lock();\n}\n\
             fn other(rx: &Receiver<u32>) {\n    let v = rx.recv();\n}",
        );
        let accept = s.fns.iter().find(|f| f.name == "accept").unwrap();
        assert_eq!(accept.root, Some(RootKind::RootFn));
        assert!(accept.blocking.iter().any(|b| b.what.contains("lock")));
        let other = s.fns.iter().find(|f| f.name == "other").unwrap();
        assert!(other.root.is_none());
        assert!(other.blocking.iter().any(|b| b.what.contains("recv")));
    }

    #[test]
    fn argful_join_is_path_join_not_blocking() {
        let s = summary(
            "crates/x/src/a.rs",
            "fn f(dir: &Path, h: JoinHandle<()>) {\n\
             let p = dir.join(\"x.bin\");\n    h.join();\n}",
        );
        let f = &s.fns[0];
        assert_eq!(f.blocking.len(), 1);
        assert!(f.blocking[0].what.contains("h.join()"));
    }

    #[test]
    fn rwlock_read_write_only_on_registered_bindings() {
        let s = summary(
            "crates/x/src/a.rs",
            "fn f(gate: &RwLock<u32>, file: &mut File) {\n\
             let g = gate.read();\n    file.read();\n}",
        );
        let f = &s.fns[0];
        assert_eq!(f.blocking.len(), 1);
        assert!(f.blocking[0].what.contains("gate.read()"));
    }

    #[test]
    fn use_alias_pairs_are_collected() {
        let s = summary(
            "crates/x/src/a.rs",
            "use riskpipe_exec::par::{par_for as pfor, par_reduce};\nfn f() {}\n",
        );
        assert_eq!(s.aliases.get("pfor").map(String::as_str), Some("par_for"));
    }

    #[test]
    fn test_code_has_no_roots_or_blocking_sites() {
        let s = summary(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests {\n\
             fn t(pool: &ThreadPool, m: &Mutex<u32>) {\n\
             pool.scope(|s| { s.spawn(move || { m.lock(); }); });\n}\n}",
        );
        assert!(s.fns.iter().all(|f| f.root.is_none()));
        assert!(s.fns.iter().all(|f| f.blocking.is_empty()));
    }

    // ---- guard lifetimes -------------------------------------------
    //
    // The L1/L2/L3 rules are only as good as the guard spans pass 1
    // extracts, so the span boundary cases get their own battery:
    // early `drop`, shadowing, nested scopes, statement temporaries,
    // `if let` temporaries, and the condvar-wait release exemption.

    fn fn_node<'a>(s: &'a FileSummary, name: &str) -> &'a FnNode {
        s.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn `{name}`"))
    }

    fn span_calls(g: &GuardSpan, callee: &str) -> bool {
        g.calls.iter().any(|c| c.name == callee)
    }

    #[test]
    fn explicit_drop_ends_the_guard_span() {
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S) {\n\
                 let g = st.alpha.lock();\n\
                 before_drop(st);\n\
                 drop(g);\n\
                 after_drop(st);\n\
             }\n",
        );
        let f = fn_node(&s, "f");
        assert_eq!(f.guards.len(), 1);
        let g = &f.guards[0];
        assert_eq!(g.lock, "alpha");
        assert!(span_calls(g, "before_drop"));
        assert!(!span_calls(g, "after_drop"));
        // The fn itself still records both calls — only the guard
        // attribution stops at the drop.
        assert!(f.calls.iter().any(|c| c.name == "after_drop"));
    }

    #[test]
    fn shadowing_rebind_keeps_the_first_span_open() {
        // Rust drops a shadowed guard at scope end, not at the
        // rebinding `let` — both spans must stay open to the `}` and
        // the second acquisition must register as an alpha → beta edge.
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S) {\n\
                 let g = st.alpha.lock();\n\
                 let g = st.beta.lock();\n\
                 poke(st);\n\
             }\n",
        );
        let f = fn_node(&s, "f");
        assert_eq!(f.guards.len(), 2);
        let alpha = f.guards.iter().find(|g| g.lock == "alpha").unwrap();
        let beta = f.guards.iter().find(|g| g.lock == "beta").unwrap();
        assert!(alpha.acquires.iter().any(|a| a.lock == "beta"));
        assert!(span_calls(alpha, "poke"));
        assert!(span_calls(beta, "poke"));
    }

    #[test]
    fn nested_scope_closes_the_inner_guard_at_its_brace() {
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S) {\n\
                 let outer = st.alpha.lock();\n\
                 {\n\
                     let inner = st.beta.lock();\n\
                     in_scope(st);\n\
                 }\n\
                 out_scope(st);\n\
             }\n",
        );
        let f = fn_node(&s, "f");
        let alpha = f.guards.iter().find(|g| g.lock == "alpha").unwrap();
        let beta = f.guards.iter().find(|g| g.lock == "beta").unwrap();
        // The outer guard sees everything, including the nested
        // acquisition; the inner guard dies at the block's `}`.
        assert!(alpha.acquires.iter().any(|a| a.lock == "beta"));
        assert!(span_calls(alpha, "in_scope") && span_calls(alpha, "out_scope"));
        assert!(span_calls(beta, "in_scope"));
        assert!(!span_calls(beta, "out_scope"));
    }

    #[test]
    fn statement_temporary_guard_dies_at_the_semicolon() {
        // `st.alpha.lock().len()` never binds the guard — it is gone
        // at the end of the statement, so the next call is unheld.
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S) {\n\
                 let n = st.alpha.lock().len();\n\
                 later_call(st, n);\n\
             }\n",
        );
        let f = fn_node(&s, "f");
        assert!(f
            .guards
            .iter()
            .filter(|g| g.lock == "alpha")
            .all(|g| !span_calls(g, "later_call")));
    }

    #[test]
    fn if_let_temporary_guard_covers_the_gated_body() {
        // The guard temporary in an `if let` scrutinee lives through
        // the body it gates — calls there happen under the lock.
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S) {\n\
                 if let Some(v) = st.alpha.lock().front() {\n\
                     body_call(st, v);\n\
                 }\n\
             }\n",
        );
        let f = fn_node(&s, "f");
        assert!(f
            .guards
            .iter()
            .any(|g| g.lock == "alpha" && span_calls(g, "body_call")));
    }

    #[test]
    fn underscore_binding_drops_the_guard_immediately() {
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S) {\n\
                 let _ = st.alpha.lock();\n\
                 later_call(st);\n\
             }\n",
        );
        let f = fn_node(&s, "f");
        assert!(f.guards.is_empty());
        // The acquisition itself is still on record for the lock graph.
        assert!(f.acquires.iter().any(|a| a.lock == "alpha"));
    }

    #[test]
    fn condvar_wait_naming_the_guard_is_exempt_from_crossings() {
        // `cv.wait(&mut g)` releases `g`'s mutex while parked, so the
        // wait is not a held-across-boundary crossing for that guard —
        // but a wait that does NOT name the binding still is.
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S) {\n\
                 let mut g = st.alpha.lock();\n\
                 st.cv.wait(&mut g);\n\
                 poke(st);\n\
             }\n",
        );
        let f = fn_node(&s, "f");
        let alpha = f.guards.iter().find(|g| g.lock == "alpha").unwrap();
        assert!(alpha.crossings.is_empty(), "{:?}", alpha.crossings);

        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S, other: &mut Thing) {\n\
                 let g = st.alpha.lock();\n\
                 st.cv.wait(other);\n\
                 poke(st);\n\
             }\n",
        );
        let alpha = fn_node(&s, "f")
            .guards
            .iter()
            .find(|g| g.lock == "alpha")
            .unwrap();
        assert!(alpha.crossings.iter().any(|c| c.what.contains("wait")));
    }

    #[test]
    fn blocking_recv_under_a_guard_is_a_crossing() {
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S, rx: &Receiver) {\n\
                 let g = st.alpha.lock();\n\
                 let v = rx.recv();\n\
                 poke(st, v);\n\
             }\n",
        );
        let alpha = fn_node(&s, "f")
            .guards
            .iter()
            .find(|g| g.lock == "alpha")
            .unwrap();
        assert!(alpha.crossings.iter().any(|c| c.what.contains("recv")));
    }

    #[test]
    fn calls_hint_injects_edges_into_fn_and_held_guard() {
        // `lint: calls(NAME)` declares an edge the name-linker cannot
        // see; it lands on the enclosing fn and any guard held there.
        let s = summary(
            "crates/app/src/a.rs",
            "fn f(st: &S) {\n\
                 let g = st.alpha.lock();\n\
                 // lint: calls(run_job) — `.run(..)` is too generic to link\n\
                 st.job.run(st);\n\
             }\n",
        );
        let f = fn_node(&s, "f");
        assert!(f.calls.iter().any(|c| c.name == "run_job"));
        let alpha = f.guards.iter().find(|g| g.lock == "alpha").unwrap();
        assert!(span_calls(alpha, "run_job"));
    }
}
