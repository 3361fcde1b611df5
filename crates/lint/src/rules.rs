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
//! | D4   | entropy-seeded RNG construction (`thread_rng`, `from_entropy`, `OsRng`, …) |

use crate::analysis::{FileModel, HashKind};
use crate::lexer::TokKind;
use crate::{RuleId, TraceFrame};

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

/// Run every rule over one analysed file. (C1 is the cross-file
/// reachability rule and lives in [`crate::graph`].)
pub fn run_all(model: &FileModel) -> Vec<RawFinding> {
    let mut out = Vec::new();
    d1_hash_iteration(model, &mut out);
    d2_partial_cmp(model, &mut out);
    d4_entropy_rng(model, &mut out);
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// Does the file stem or any enclosing scope name mark `line` as
/// merge-sensitive (D1's scope)?
fn in_merge_scope(model: &FileModel, line: u32) -> bool {
    let named = |name: &str| D1_SCOPE_MARKERS.iter().any(|m| name.contains(m));
    named(&model.stem()) || model.scopes_at(line).into_iter().any(named)
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
    let in_scope =
        in_merge_scope(model, line) || range_has_ident(model, body_open, body_end, D1_MERGE_CALLS);
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
    let in_scope =
        in_merge_scope(model, line) || range_has_ident(model, stmt_start, stmt_end, D1_MERGE_CALLS);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FileModel;
    use crate::clippy_harness::{verdict, At, BENCH_ROOT, CODEC, CORE};
    use crate::lexer::lex;

    fn findings_in(path: &str, src: &str) -> Vec<RawFinding> {
        run_all(&FileModel::build(path, lex(src)))
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

    // The rules below are clippy configuration now: these run clippy on
    // the shared fixtures, staged under the real attributes of the crate
    // or module each names (see tests/support/clippy.rs).

    const DISALLOWED: &str = "clippy::disallowed_methods";

    #[test]
    fn d3_allowlisted_module_is_clean() {
        let bench = verdict("d3_fire.rs", At::Root(BENCH_ROOT));
        assert_eq!(bench.count(DISALLOWED), 0, "{bench:?}");
        assert_eq!(verdict("d3_fire.rs", At::Plain).denied(DISALLOWED), 2);
    }

    #[test]
    fn rules_skip_inline_test_modules_except_s1() {
        // D1, D2 and D4 skip `#[cfg(test)]` modules...
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn merge(part: HashMap<u64, f64>, acc: &mut Acc) {\n\
                   for (k, v) in part {\n    acc.merge(k, v);\n}\n}\n\
                   fn rank(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n\
                   fn t() { let r = thread_rng(); }\n}";
        let f = findings_in("crates/x/src/a.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // ...while clippy's unsafe audit still fires inside one.
        let v = verdict("test_mod.rs", At::Root(CORE));
        assert_eq!(v.denied("clippy::undocumented_unsafe_blocks"), 1, "{v:?}");
    }

    #[test]
    fn s1_accepts_nearby_safety_comment() {
        let v = verdict("s1_clean.rs", At::Plain);
        assert_eq!(v.count("clippy::undocumented_unsafe_blocks"), 0, "{v:?}");
    }

    #[test]
    fn c2_fires_only_in_persistence_scope() {
        // Every module but the durable layer is persistence scope: clippy
        // matches the call, whatever the enclosing fn is named.
        assert_eq!(verdict("c2_fire.rs", At::Plain).denied(DISALLOWED), 2);
    }

    #[test]
    fn c2_exempts_the_durable_module_itself() {
        let durable = At::Module("crates/tables/src/durable.rs");
        assert_eq!(verdict("c2_fire.rs", durable).count(DISALLOWED), 0);
        let shard = At::Module("crates/tables/src/shard.rs");
        assert_eq!(verdict("c2_fire.rs", shard).denied(DISALLOWED), 2);
    }

    #[test]
    fn w1_scopes_to_serving_crate_library_code() {
        // Denied in core's library code; silent in a non-serving crate,
        // in core's integration tests and in a `#[cfg(test)]` module.
        let library = verdict("w1_fire.rs", At::Root(CORE));
        let silent = [
            verdict("w1_fire.rs", At::Root("crates/catmodel/src/lib.rs")),
            verdict("w1_fire.rs", At::TestOf(CORE)),
            verdict("test_mod.rs", At::Root(CORE)),
        ];
        for lint in [
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
        ] {
            assert_eq!(library.denied(lint), 1, "{lint}: {library:?}");
            for v in silent {
                assert_eq!(v.count(lint), 0, "{lint}: {v:?}");
            }
        }
    }

    #[test]
    fn s2_only_in_codec_scope() {
        let lint = "clippy::cast_possible_truncation";
        assert_eq!(verdict("s2_fire.rs", At::Module(CODEC)).denied(lint), 2);
        assert_eq!(verdict("s2_fire.rs", At::Plain).count(lint), 0);
    }
}
