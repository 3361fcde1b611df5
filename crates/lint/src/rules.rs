//! The per-file rule implementations.
//!
//! A rule is a pattern over the [`FileModel`] token stream. Rules are
//! heuristic by construction (see the module docs on
//! [`crate::analysis`]); each one is tuned so that a *true* finding is
//! a genuine threat to bit-identical artifacts, and a false positive
//! is cheap to silence with an auditable per-site suppression.
//!
//! | Rule | Fires on |
//! |------|----------|
//! | D2   | `sort_by`/`max_by`/`min_by` comparators built on `partial_cmp` |

use crate::analysis::FileModel;
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

/// Comparator-taking methods D2 inspects.
const D2_METHODS: &[&str] = &["sort_by", "sort_unstable_by", "max_by", "min_by"];

/// Run every per-file rule over one analysed file. (The call-graph
/// rules C1 and L1–L3 live in [`crate::graph`].)
pub fn run_all(model: &FileModel) -> Vec<RawFinding> {
    let mut out = Vec::new();
    d2_partial_cmp(model, &mut out);
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FileModel;
    use crate::clippy_harness::{verdict, At, BENCH_ROOT, CODEC, CORE};
    use crate::lexer::lex;

    fn findings_in(path: &str, src: &str) -> Vec<RawFinding> {
        run_all(&FileModel::build(path, lex(src)))
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
        // D2 skips `#[cfg(test)]` modules...
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn rank(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n}";
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
