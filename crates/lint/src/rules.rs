//! The determinism & safety rule implementations.
//!
//! Every rule is a pattern over the [`FileModel`] token stream. Rules
//! are heuristic by construction (see the module docs on
//! [`crate::analysis`]); each one is tuned so that a *true* finding is
//! a genuine threat to bit-identical artifacts, and a false positive
//! is cheap to silence with an auditable per-site suppression.
//!
//! | Rule | Fires on |
//! |------|----------|
//! | D1   | iteration over `HashMap`/`HashSet` in fold/merge/sink/rollup code without a sorted drain |
//! | D2   | `sort_by`/`max_by`/`min_by` comparators built on `partial_cmp` |
//! | D3   | `Instant::now`/`SystemTime::now` outside designated timing modules |
//! | D4   | entropy-seeded RNG construction (`thread_rng`, `from_entropy`, `OsRng`, …) |
//! | S1   | `unsafe` without an adjacent `// SAFETY:` audit comment |
//! | S2   | narrowing `as` casts inside codec/decode code |

use crate::analysis::{is_test_path, FileModel, HashKind};
use crate::lexer::TokKind;
use crate::{Config, RuleId, TraceFrame};

/// A finding before suppression processing.
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub rule: RuleId,
    pub line: u32,
    pub message: String,
    /// Call-chain trace (C1/L2/L3 findings only; empty otherwise).
    pub trace: Vec<TraceFrame>,
    /// Root→site chains closing a lock-order cycle, one per cycle
    /// edge (L1 findings only; empty otherwise).
    pub chains: Vec<Vec<TraceFrame>>,
}

/// Function/closure/file-name markers that put code in D1's
/// merge-sensitive scope.
const D1_SCOPE_MARKERS: &[&str] = &[
    "fold",
    "merge",
    "sink",
    "rollup",
    "reduce",
    "finish",
    "aggregate",
    "accumulate",
    "ingest",
    "absorb",
    "flush",
    "drain",
    "scan",
    "emit",
];

/// Idents that mark a statement/loop body as merge-like even when the
/// enclosing names don't (content-based scoping).
const D1_MERGE_CALLS: &[&str] = &["merge", "absorb", "fold", "reduce"];

/// Iterator-producing methods on hash containers.
const D1_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
];

/// Comparator-taking methods D2 inspects.
const D2_METHODS: &[&str] = &["sort_by", "sort_unstable_by", "max_by", "min_by"];

/// Entropy-sourced RNG constructors D4 bans.
const D4_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Cast targets S2 treats as narrowing.
const S2_NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// File/function-name markers that put code in S2's codec/decode scope.
const S2_SCOPE_MARKERS: &[&str] = &[
    "codec",
    "encode",
    "decode",
    "compress",
    "serial",
    "frame",
    "pack",
    "from_bytes",
    "to_bytes",
];

/// How many lines above an `unsafe` token S1 searches for `SAFETY:`.
const S1_WINDOW: u32 = 6;

/// File/function-name markers that put code in C2's persistence scope.
const C2_SCOPE_MARKERS: &[&str] = &[
    "persist",
    "store",
    "durable",
    "manifest",
    "shard",
    "snapshot",
    "checkpoint",
    "save",
    "spill",
];

/// Run every rule over one analysed file. (C1 is the cross-file
/// reachability rule and lives in [`crate::graph`].)
pub fn run_all(model: &FileModel, cfg: &Config) -> Vec<RawFinding> {
    let mut out = Vec::new();
    d1_hash_iteration(model, &mut out);
    d2_partial_cmp(model, &mut out);
    d3_wall_clock(model, cfg, &mut out);
    d4_entropy_rng(model, &mut out);
    s1_unsafe_audit(model, &mut out);
    s2_narrowing_casts(model, &mut out);
    c2_raw_persistence_writes(model, cfg, &mut out);
    w1_panic_paths(model, cfg, &mut out);
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

fn name_matches(name: &str, markers: &[&str]) -> bool {
    markers.iter().any(|m| name.contains(m))
}

/// Does any enclosing scope name or the file stem match `markers`?
fn scoped_by_name(model: &FileModel, line: u32, markers: &[&str]) -> bool {
    name_matches(&model.stem(), markers)
        || model
            .scopes_at(line)
            .iter()
            .any(|s| name_matches(s, markers))
}

/// Code index of the end of the statement containing `ci` (the `;` at
/// bracket depth 0, or the end of file).
fn statement_end(model: &FileModel, ci: usize) -> usize {
    let mut depth = 0i32;
    for j in ci..model.code.len() {
        let t = model.ct(j).expect("in range");
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                if depth == 0 {
                    return j; // end of the enclosing argument list
                }
                depth -= 1;
            }
            // A depth-0 brace means a block starts or the enclosing one
            // ends — either way the simple statement stops here.
            "{" | "}" if depth == 0 => return j,
            ";" if depth == 0 => return j,
            _ => {}
        }
    }
    model.code.len().saturating_sub(1)
}

/// Code index of the start of the statement containing `ci` (just
/// after the previous depth-0 `;`, `{` or `}`).
fn statement_start(model: &FileModel, ci: usize) -> usize {
    let mut depth = 0i32;
    for j in (0..ci).rev() {
        let t = model.ct(j).expect("in range");
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                if depth == 0 {
                    return j + 1;
                }
                depth -= 1;
            }
            // A depth-0 brace walking backwards is the end of a
            // preceding block (or the start of the enclosing one) —
            // the current simple statement begins after it.
            "{" | "}" if depth == 0 => return j + 1,
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
    }
    0
}

/// Does the code range `[from, to)` contain any of `idents`?
fn range_has_ident(model: &FileModel, from: usize, to: usize, idents: &[&str]) -> bool {
    (from..to.min(model.code.len())).any(|j| {
        model
            .ct(j)
            .is_some_and(|t| t.kind == TokKind::Ident && idents.contains(&t.text.as_str()))
    })
}

/// **D1** — iteration over `HashMap`/`HashSet` in merge-sensitive code.
///
/// Fires on `for .. in <hash>` and on `<hash>.iter()/drain()/keys()/…`
/// chains when (a) an enclosing fn/closure/file name looks like
/// fold/merge/sink/rollup code, or (b) the loop body / statement calls
/// `merge`/`fold`/`absorb`/`reduce`. Two escapes encode the sanctioned
/// patterns: collecting into a `BTreeMap`/`BTreeSet`, and the explicit
/// sorted drain `let v = map.into_iter()...collect(); v.sort..()`.
fn d1_hash_iteration(model: &FileModel, out: &mut Vec<RawFinding>) {
    let n = model.code.len();
    for ci in 0..n {
        let t = model.ct(ci).expect("in range");
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "for" {
            if let Some(f) = d1_check_for_loop(model, ci) {
                out.push(f);
            }
        } else if model.hash_idents.get(&t.text) == Some(&HashKind::Hash) {
            if let Some(f) = d1_check_method_chain(model, ci) {
                out.push(f);
            }
        }
    }
}

fn d1_check_for_loop(model: &FileModel, for_ci: usize) -> Option<RawFinding> {
    // Locate `in` at depth 0, then the loop-body `{` at depth 0.
    let mut depth = 0i32;
    let mut in_ci = None;
    for j in for_ci + 1..(for_ci + 64).min(model.code.len()) {
        let t = model.ct(j)?;
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
            (TokKind::Ident, "in") if depth == 0 => {
                in_ci = Some(j);
                break;
            }
            _ => {}
        }
    }
    let in_ci = in_ci?;
    let mut body_open = None;
    depth = 0;
    for j in in_ci + 1..(in_ci + 96).min(model.code.len()) {
        let t = model.ct(j)?;
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
            (TokKind::Punct, "{") if depth == 0 => {
                body_open = Some(j);
                break;
            }
            _ => {}
        }
    }
    let body_open = body_open?;
    // The iterated expression: `[&] [mut] [self .] IDENT`, nothing else.
    let mut j = in_ci + 1;
    while model
        .ct(j)
        .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
    {
        j += 1;
    }
    if model.ct(j).is_some_and(|t| t.is_ident("self"))
        && model.ct(j + 1).is_some_and(|t| t.is_punct("."))
    {
        j += 2;
    }
    let name_tok = model.ct(j)?;
    if j + 1 != body_open
        || name_tok.kind != TokKind::Ident
        || model.hash_idents.get(&name_tok.text) != Some(&HashKind::Hash)
    {
        return None;
    }
    let line = name_tok.line;
    if model.in_test_code(line) {
        return None;
    }
    // Scope: enclosing names, or a merge-like call in the loop body.
    let body_end = matching_close(model, body_open);
    let in_scope = scoped_by_name(model, line, D1_SCOPE_MARKERS)
        || range_has_ident(model, body_open, body_end, D1_MERGE_CALLS);
    if !in_scope {
        return None;
    }
    Some(RawFinding {
        rule: RuleId::D1,
        line,
        message: format!(
            "iteration over hash container `{}` in merge-sensitive code: \
             visit order is nondeterministic and can leak into folded \
             output — use a BTreeMap/BTreeSet or an explicit sorted drain",
            name_tok.text
        ),
        trace: Vec::new(),
        chains: Vec::new(),
    })
}

/// Code index just past the `}` matching the `{` at `open_ci`.
fn matching_close(model: &FileModel, open_ci: usize) -> usize {
    let mut depth = 0i32;
    for j in open_ci..model.code.len() {
        let t = model.ct(j).expect("in range");
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    model.code.len()
}

fn d1_check_method_chain(model: &FileModel, name_ci: usize) -> Option<RawFinding> {
    let name_tok = model.ct(name_ci)?;
    if !model.ct(name_ci + 1).is_some_and(|t| t.is_punct(".")) {
        return None;
    }
    let method = model.ct(name_ci + 2)?;
    if method.kind != TokKind::Ident || !D1_ITER_METHODS.contains(&method.text.as_str()) {
        return None;
    }
    if !model.ct(name_ci + 3).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let line = name_tok.line;
    if model.in_test_code(line) {
        return None;
    }
    let stmt_start = statement_start(model, name_ci);
    let stmt_end = statement_end(model, name_ci);
    // Scope: enclosing names, or a merge-like call in the statement.
    let in_scope = scoped_by_name(model, line, D1_SCOPE_MARKERS)
        || range_has_ident(model, stmt_start, stmt_end, D1_MERGE_CALLS);
    if !in_scope {
        return None;
    }
    // Escape 1: the chain collects into an ordered container.
    if collects_into_btree(model, name_ci, stmt_end) {
        return None;
    }
    // Escape 2: explicit sorted drain —
    // `let [mut] OUT [: T] = <hash>...collect();` then `OUT.sort..`.
    if sorted_drain(model, stmt_start, stmt_end) {
        return None;
    }
    Some(RawFinding {
        rule: RuleId::D1,
        line,
        message: format!(
            "`{}.{}()` iterates a hash container in merge-sensitive code: \
             order is nondeterministic — use a BTreeMap/BTreeSet, collect \
             into a BTree, or sort the drained entries before use",
            name_tok.text, method.text
        ),
        trace: Vec::new(),
        chains: Vec::new(),
    })
}

fn collects_into_btree(model: &FileModel, from: usize, to: usize) -> bool {
    for j in from..to.min(model.code.len()) {
        let t = model.ct(j).expect("in range");
        if t.is_ident("collect")
            && model.ct(j + 1).is_some_and(|t| t.is_punct("::"))
            && model.ct(j + 2).is_some_and(|t| t.is_punct("<"))
            && model
                .ct(j + 3)
                .is_some_and(|t| t.is_ident("BTreeMap") || t.is_ident("BTreeSet"))
        {
            return true;
        }
    }
    false
}

fn sorted_drain(model: &FileModel, stmt_start: usize, stmt_end: usize) -> bool {
    // Statement shape: `let [mut] OUT ... collect ( ) ;`
    if !model.ct(stmt_start).is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    let mut j = stmt_start + 1;
    if model.ct(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let out_name = match model.ct(j) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => return false,
    };
    if !range_has_ident(model, j, stmt_end, &["collect"]) {
        return false;
    }
    // Next statement must begin `OUT.sort…`.
    model
        .ct(stmt_end + 1)
        .is_some_and(|t| t.is_ident(&out_name))
        && model.ct(stmt_end + 2).is_some_and(|t| t.is_punct("."))
        && model
            .ct(stmt_end + 3)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("sort"))
}

/// **D2** — `partial_cmp`-based comparators in sorts and extrema.
fn d2_partial_cmp(model: &FileModel, out: &mut Vec<RawFinding>) {
    for ci in 0..model.code.len() {
        let t = model.ct(ci).expect("in range");
        if t.kind != TokKind::Ident || !D2_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if !model.ct(ci + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        if model.in_test_code(t.line) {
            continue;
        }
        // Scan the balanced argument list for `partial_cmp`.
        let mut depth = 0i32;
        for j in ci + 1..model.code.len() {
            let u = model.ct(j).expect("in range");
            match (u.kind, u.text.as_str()) {
                (TokKind::Punct, "(") => depth += 1,
                (TokKind::Punct, ")") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokKind::Ident, "partial_cmp") => {
                    out.push(RawFinding {
                        rule: RuleId::D2,
                        line: t.line,
                        message: format!(
                            "`{}` comparator built on `partial_cmp`: NaN makes \
                             the comparator non-total, and unwrap/ordering \
                             fallbacks diverge across inputs — use \
                             `f64::total_cmp` (or `Ord` keys)",
                            t.text
                        ),
                        trace: Vec::new(),
                        chains: Vec::new(),
                    });
                    break;
                }
                _ => {}
            }
        }
    }
}

/// **D3** — wall-clock reads outside designated timing modules.
fn d3_wall_clock(model: &FileModel, cfg: &Config, out: &mut Vec<RawFinding>) {
    if cfg
        .timing_modules
        .iter()
        .any(|m| model.path.contains(m.as_str()))
    {
        return;
    }
    for ci in 0..model.code.len() {
        let t = model.ct(ci).expect("in range");
        if t.kind != TokKind::Ident || (t.text != "Instant" && t.text != "SystemTime") {
            continue;
        }
        if !(model.ct(ci + 1).is_some_and(|u| u.is_punct("::"))
            && model.ct(ci + 2).is_some_and(|u| u.is_ident("now")))
        {
            continue;
        }
        if model.in_test_code(t.line) {
            continue;
        }
        out.push(RawFinding {
            rule: RuleId::D3,
            line: t.line,
            message: format!(
                "`{}::now()` outside a designated timing module: wall-clock \
                 readings must flow only into stats/counter structs, never \
                 into numeric results — move the timing into a designated \
                 module or suppress with a reason documenting where the \
                 reading flows",
                t.text
            ),
            trace: Vec::new(),
            chains: Vec::new(),
        });
    }
}

/// **D4** — entropy-seeded RNG construction.
fn d4_entropy_rng(model: &FileModel, out: &mut Vec<RawFinding>) {
    for ci in 0..model.code.len() {
        let t = model.ct(ci).expect("in range");
        if t.kind != TokKind::Ident || !D4_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        if model.in_test_code(t.line) {
            continue;
        }
        out.push(RawFinding {
            rule: RuleId::D4,
            line: t.line,
            message: format!(
                "`{}` constructs an entropy-seeded RNG: every random stream \
                 must derive from an explicit caller-provided seed so runs \
                 are replayable bit-for-bit",
                t.text
            ),
            trace: Vec::new(),
            chains: Vec::new(),
        });
    }
}

/// **S1** — `unsafe` without an adjacent `// SAFETY:` audit.
fn s1_unsafe_audit(model: &FileModel, out: &mut Vec<RawFinding>) {
    for (i, t) in model.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let lo = t.line.saturating_sub(S1_WINDOW);
        let audited = model.toks.iter().any(|c| {
            c.kind == TokKind::Comment
                && c.line >= lo
                && c.line <= t.line
                && c.text.contains("SAFETY")
        });
        if audited {
            continue;
        }
        // Describe what kind of unsafe construct this is.
        let next = model.toks[i + 1..]
            .iter()
            .find(|u| u.kind != TokKind::Comment);
        let what = match next {
            Some(u) if u.is_ident("impl") => "unsafe impl",
            Some(u) if u.is_ident("fn") => "unsafe fn",
            _ => "unsafe block",
        };
        out.push(RawFinding {
            rule: RuleId::S1,
            line: t.line,
            message: format!(
                "{what} without a `// SAFETY:` comment in the preceding \
                 {S1_WINDOW} lines: every unsafe site must carry a written \
                 audit of the invariants that make it sound"
            ),
            trace: Vec::new(),
            chains: Vec::new(),
        });
    }
}

/// **S2** — narrowing `as` casts in codec/decode code.
fn s2_narrowing_casts(model: &FileModel, out: &mut Vec<RawFinding>) {
    for ci in 0..model.code.len() {
        let t = model.ct(ci).expect("in range");
        if t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        let Some(target) = model.ct(ci + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !S2_NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        if model.in_test_code(t.line) || !scoped_by_name(model, t.line, S2_SCOPE_MARKERS) {
            continue;
        }
        out.push(RawFinding {
            rule: RuleId::S2,
            line: t.line,
            message: format!(
                "narrowing `as {}` cast in codec/decode code: a silent \
                 truncation here corrupts decoded artifacts — use \
                 `try_from`/checked conversion, or annotate why the value \
                 provably fits",
                target.text
            ),
            trace: Vec::new(),
            chains: Vec::new(),
        });
    }
}

/// **C2** — raw filesystem writes in persistence paths outside the
/// sanctioned durable module.
///
/// Every durable artifact must land via `riskpipe_tables::durable`
/// (tmp file + `sync_all` + rename + parent fsync) or the sharded
/// inflight-then-rename protocol built on it. A bare `fs::write`,
/// `File::create`, or truncating `OpenOptions` in persistence code is
/// a torn-write waiting for a crash. Scope: non-test code whose file
/// stem or enclosing fn name marks it as persistence
/// (persist/store/shard/manifest/…), excluding the durable module
/// itself.
fn c2_raw_persistence_writes(model: &FileModel, cfg: &Config, out: &mut Vec<RawFinding>) {
    if cfg
        .durable_modules
        .iter()
        .any(|m| model.path.contains(m.as_str()))
        || is_test_path(&model.path)
    {
        return;
    }
    for ci in 0..model.code.len() {
        let t = model.ct(ci).expect("in range");
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_path = |who: &str| {
            ci >= 2
                && model.ct(ci - 1).is_some_and(|u| u.is_punct("::"))
                && model.ct(ci - 2).is_some_and(|u| u.is_ident(who))
        };
        let what = match t.text.as_str() {
            "write" if prev_path("fs") => "`fs::write`",
            "create" if prev_path("File") => "`File::create`",
            "truncate"
                if ci >= 1
                    && model.ct(ci - 1).is_some_and(|u| u.is_punct("."))
                    && model.ct(ci + 1).is_some_and(|u| u.is_punct("("))
                    && model.ct(ci + 2).is_some_and(|u| u.is_ident("true")) =>
            {
                "truncating `OpenOptions`"
            }
            _ => continue,
        };
        if model.in_test_code(t.line) || !scoped_by_name(model, t.line, C2_SCOPE_MARKERS) {
            continue;
        }
        out.push(RawFinding {
            rule: RuleId::C2,
            line: t.line,
            message: format!(
                "{what} in a persistence path outside `riskpipe_tables::durable`: \
                 a crash mid-write leaves a torn artifact that the manifest may \
                 still reference — route the bytes through `durable::write_atomic` \
                 (or the inflight-then-rename shard protocol), or suppress with a \
                 written crash-consistency proof"
            ),
            trace: Vec::new(),
            chains: Vec::new(),
        });
    }
}

/// **W1** — `unwrap`/`expect`/`panic!` in non-test library code of the
/// serving-path crates.
fn w1_panic_paths(model: &FileModel, cfg: &Config, out: &mut Vec<RawFinding>) {
    if !cfg
        .serving_crates
        .iter()
        .any(|p| model.path.starts_with(p.as_str()))
        || is_test_path(&model.path)
    {
        return;
    }
    for ci in 0..model.code.len() {
        let t = model.ct(ci).expect("in range");
        if t.kind != TokKind::Ident {
            continue;
        }
        let what = match t.text.as_str() {
            m @ ("unwrap" | "expect")
                if ci >= 1
                    && model.ct(ci - 1).is_some_and(|u| u.is_punct("."))
                    && model.ct(ci + 1).is_some_and(|u| u.is_punct("(")) =>
            {
                format!("`.{m}(..)`")
            }
            "panic" if model.ct(ci + 1).is_some_and(|u| u.is_punct("!")) => "`panic!`".to_string(),
            _ => continue,
        };
        if model.in_test_code(t.line) {
            continue;
        }
        out.push(RawFinding {
            rule: RuleId::W1,
            line: t.line,
            message: format!(
                "{what} in non-test library code of a serving-path crate: a \
                 panic on the worker path aborts the whole pipeline (and poisons \
                 shared state) — surface a typed error, or document the invariant \
                 that makes the value infallible"
            ),
            trace: Vec::new(),
            chains: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FileModel;
    use crate::lexer::lex;

    fn findings_in(path: &str, src: &str) -> Vec<RawFinding> {
        let model = FileModel::build(path, lex(src));
        run_all(&model, &Config::default())
    }

    #[test]
    fn d1_sorted_drain_escape() {
        let src = "fn merge_parts(acc: HashMap<u64, f64>) {\n\
                   let mut v: Vec<(u64, f64)> = acc.into_iter().collect();\n\
                   v.sort_unstable_by_key(|e| e.0);\n}";
        assert!(findings_in("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn d1_btree_collect_escape() {
        let src = "fn merge_parts(acc: HashMap<u64, f64>) {\n\
                   let v = acc.into_iter().collect::<BTreeMap<u64, f64>>();\n\
                   use_it(v);\n}";
        assert!(findings_in("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn d1_out_of_scope_iteration_is_clean() {
        // No merge-ish scope name, no merge-like call in the body.
        let src = "fn count(acc: HashMap<u64, f64>) -> usize {\n\
                   acc.keys().count()\n}";
        assert!(findings_in("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn d1_content_scoping_via_merge_call() {
        let src = "fn build(part: HashMap<u64, f64>, out: &mut Cell) {\n\
                   for (k, v) in part {\n    out.merge(k, v);\n}\n}";
        let f = findings_in("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::D1);
    }

    #[test]
    fn d3_allowlisted_module_is_clean() {
        let src = "fn t() { let t0 = Instant::now(); }";
        assert!(findings_in("crates/bench/src/bin/x.rs", src).is_empty());
        assert_eq!(findings_in("crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn rules_skip_inline_test_modules_except_s1() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn t() { let t0 = Instant::now(); let r = thread_rng(); }\n\
                   fn u() { unsafe { danger() } }\n}";
        let f = findings_in("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::S1);
    }

    #[test]
    fn s1_accepts_nearby_safety_comment() {
        let src = "fn f() {\n    // SAFETY: slot i is exclusively owned here.\n\
                   unsafe { write(i) }\n}";
        assert!(findings_in("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn c2_fires_only_in_persistence_scope() {
        let src = "fn persist_frame(dir: &Path, b: &[u8]) {\n\
                   fs::write(dir.join(\"f.bin\"), b);\n}";
        let f = findings_in("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::C2);
        let src2 = "fn dump_debug(dir: &Path, b: &[u8]) {\n\
                    fs::write(dir.join(\"f.bin\"), b);\n}";
        assert!(findings_in("crates/x/src/a.rs", src2).is_empty());
    }

    #[test]
    fn c2_exempts_the_durable_module_itself() {
        let src = "fn persist_bytes(tmp: &Path) {\n    let f = File::create(tmp);\n}";
        assert!(findings_in("crates/tables/src/durable.rs", src).is_empty());
        assert_eq!(findings_in("crates/tables/src/shard.rs", src).len(), 1);
    }

    #[test]
    fn w1_scopes_to_serving_crate_library_code() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = findings_in("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::W1);
        assert!(findings_in("crates/bench/src/x.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n\
                        fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}";
        assert!(findings_in("crates/core/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn s2_only_in_codec_scope() {
        let src = "fn decode_frame(x: u64) -> u32 { x as u32 }";
        assert_eq!(findings_in("crates/x/src/a.rs", src).len(), 1);
        let src2 = "fn widen(x: u64) -> u32 { x as u32 }";
        assert!(findings_in("crates/x/src/a.rs", src2).is_empty());
    }
}
