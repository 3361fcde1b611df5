//! Per-file token analysis shared by the rules.
//!
//! One pass over the token stream produces a [`FileModel`]: inline
//! `#[cfg(test)] mod` regions and the parsed suppression comments. The
//! rules in [`crate::rules`] and the summaries in [`crate::summary`]
//! then pattern-match against the model instead of re-deriving
//! structure.
//!
//! Everything here is heuristic — a lexer cannot do type inference —
//! and the heuristics deliberately favour *predictability* over
//! cleverness. What the heuristics miss, review still catches; what
//! they hit is machine-checked on every run.

use crate::lexer::{Tok, TokKind};

/// Is this a test-only path (an integration-test tree)? Inline
/// `#[cfg(test)]` modules are tracked separately per file.
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// One `// lint: calls(NAME, ...) — reason` comment: an explicit call
/// edge from the enclosing function to each named function, declared
/// where the name-linker cannot see the call (hyper-generic method
/// names like `.run(..)` are stoplisted, trait objects erase the
/// callee, macros hide it). Hints only *add* edges — an unjustified
/// hint makes the analysis more conservative, never less — so unlike
/// suppressions they carry no audit rule; the reason text is still
/// required by convention for the reader.
#[derive(Debug, Clone)]
pub struct CallHint {
    /// Callee link names, as written.
    pub callees: Vec<String>,
    /// The line the hint binds to: the comment's own line when code
    /// shares it (trailing style), else the next line carrying code.
    pub line: u32,
}

/// One `// lint: allow(RULE, ...) — reason` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule codes named in the comment, upper-cased.
    pub rules: Vec<String>,
    /// The line of the comment itself.
    pub line: u32,
    /// Lines the suppression covers: its own line plus the next line
    /// that carries code.
    pub covers: Vec<u32>,
    /// Whether a non-empty reason followed the rule list.
    pub has_reason: bool,
}

/// The analysed file: tokens plus derived structure.
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Line ranges of inline `#[cfg(test)] mod` bodies.
    pub test_ranges: Vec<(u32, u32)>,
    pub suppressions: Vec<Suppression>,
    /// Explicit call-edge declarations (see `CallHint`).
    pub call_hints: Vec<CallHint>,
}

impl FileModel {
    pub fn build(path: &str, toks: Vec<Tok>) -> Self {
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokKind::Comment)
            .map(|(i, _)| i)
            .collect();
        let mut model = FileModel {
            path: path.to_string(),
            test_ranges: Vec::new(),
            suppressions: Vec::new(),
            call_hints: Vec::new(),
            toks,
            code,
        };
        model.find_test_ranges();
        model.find_suppressions();
        model
    }

    /// Code token at code-position `ci` (not a raw token index).
    pub fn ct(&self, ci: usize) -> Option<&Tok> {
        self.code.get(ci).map(|&i| &self.toks[i])
    }

    /// Is `line` inside an inline `#[cfg(test)] mod` body?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// Test ranges: one pass tracking brace depth. `#[cfg(test)]`
    /// followed by `mod` marks the next block opened as a test range.
    fn find_test_ranges(&mut self) {
        let mut test_ranges: Vec<(u32, u32)> = Vec::new();
        // One entry per open block: its start line if it is a test
        // module's body.
        let mut stack: Vec<Option<u32>> = Vec::new();
        let mut pending_test = false;
        let mut cfg_test_attr = false;
        for ci in 0..self.code.len() {
            let t = self.ct(ci).expect("in range");
            match (t.kind, t.text.as_str()) {
                // `#[cfg(test)]` — look at the attribute tokens. Also
                // matches the conjunction form `#[cfg(all(test, ...))]`
                // used by feature-gated test modules.
                (TokKind::Punct, "#")
                    if {
                        let attr = self.code_slice_text(ci + 1, ci + 9);
                        attr.starts_with("[cfg(test)")
                            || attr.starts_with("[cfg(all(test,")
                            || attr.starts_with("[cfg(all(test)")
                    } =>
                {
                    cfg_test_attr = true;
                }
                (TokKind::Ident, "mod") if cfg_test_attr => {
                    pending_test = true;
                    cfg_test_attr = false;
                }
                // `#[cfg(test)] mod name;` opens no block.
                (TokKind::Punct, ";") => pending_test = false,
                (TokKind::Punct, "{") => {
                    stack.push(pending_test.then_some(t.line));
                    pending_test = false;
                }
                (TokKind::Punct, "}") => {
                    if let Some(Some(start_line)) = stack.pop() {
                        test_ranges.push((start_line, t.line));
                    }
                }
                _ => {}
            }
        }
        self.test_ranges = test_ranges;
    }

    /// Concatenated text of code tokens `[from, to)` — for cheap
    /// attribute matching.
    fn code_slice_text(&self, from: usize, to: usize) -> String {
        (from..to)
            .filter_map(|ci| self.ct(ci))
            .map(|t| t.text.as_str())
            .collect()
    }

    /// Parse `lint: allow(...)` and `lint: calls(...)` comments.
    /// Grammar (inside any `//` or `/* */` comment):
    ///
    /// ```text
    /// lint: allow(D2)            — reason text          (em dash)
    /// lint: allow(C1, L2) - reason text                 (hyphen)
    /// lint: calls(run_job) — reason text                (call edge)
    /// ```
    ///
    /// The suppression covers its own line and the next line carrying
    /// code, so it works both trailing (`code // lint: allow(..)`) and
    /// on the line above the finding. A `calls` hint binds the same
    /// way: to its own line when code shares it, else to the next line
    /// carrying code.
    fn find_suppressions(&mut self) {
        let mut found: Vec<Suppression> = Vec::new();
        let mut hints: Vec<CallHint> = Vec::new();
        for (i, t) in self.toks.iter().enumerate() {
            if t.kind != TokKind::Comment {
                continue;
            }
            // Doc comments never carry suppressions — they are prose
            // (and often *quote* the suppression syntax, as the crate
            // docs of riskpipe-lint itself do).
            if t.text.starts_with("///")
                || t.text.starts_with("//!")
                || t.text.starts_with("/**")
                || t.text.starts_with("/*!")
            {
                continue;
            }
            let Some(at) = t.text.find("lint:") else {
                continue;
            };
            let rest = t.text[at + "lint:".len()..].trim_start();
            let (is_hint, rest) = match rest.strip_prefix("allow") {
                Some(r) => (false, r),
                None => match rest.strip_prefix("calls") {
                    Some(r) => (true, r),
                    None => continue,
                },
            };
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix('(') else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                continue;
            };
            let names: Vec<String> = rest[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            let rules: Vec<String> = names.iter().map(|r| r.to_ascii_uppercase()).collect();
            let tail = rest[close + 1..].trim_start();
            let has_reason = ["—", "–", "-"].iter().any(|dash| {
                tail.strip_prefix(dash)
                    .is_some_and(|reason| !reason.trim().is_empty())
            });
            // The next line with code after the comment line —
            // skipping attribute lines (`#[...]`, `#![...]`) so a
            // suppression written above a decorated item binds to the
            // item itself, not to the attribute that happens to sit
            // between them. (Doc comments are already skipped: they
            // lex as comments.)
            let code_after: Vec<&Tok> = self.toks[i + 1..]
                .iter()
                .filter(|t2| t2.kind != TokKind::Comment && t2.line > t.line)
                .collect();
            let mut next_code_line = None;
            let mut k = 0usize;
            while k < code_after.len() {
                let t2 = code_after[k];
                if t2.kind == TokKind::Punct && t2.text == "#" {
                    let mut j = k + 1;
                    if code_after
                        .get(j)
                        .is_some_and(|u| u.kind == TokKind::Punct && u.text == "!")
                    {
                        j += 1;
                    }
                    if code_after
                        .get(j)
                        .is_some_and(|u| u.kind == TokKind::Punct && u.text == "[")
                    {
                        // Skip the balanced `[...]` attribute body.
                        let mut depth = 0i32;
                        while j < code_after.len() {
                            let u = code_after[j];
                            if u.kind == TokKind::Punct {
                                match u.text.as_str() {
                                    "[" => depth += 1,
                                    "]" => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                            }
                            j += 1;
                        }
                        k = j + 1;
                        continue;
                    }
                }
                next_code_line = Some(t2.line);
                break;
            }
            if is_hint {
                // Trailing style binds to the comment's own line when
                // code shares it; otherwise to the next code line.
                let own_line_has_code = self.code.iter().any(|&j| self.toks[j].line == t.line);
                let line = if own_line_has_code {
                    t.line
                } else {
                    next_code_line.unwrap_or(t.line)
                };
                hints.push(CallHint {
                    callees: names,
                    line,
                });
                continue;
            }
            let mut covers = vec![t.line];
            covers.extend(next_code_line);
            found.push(Suppression {
                rules,
                line: t.line,
                covers,
                has_reason,
            });
        }
        self.suppressions = found;
        hints.sort_by_key(|h| h.line);
        self.call_hints = hints;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        FileModel::build("crates/x/src/demo.rs", lex(src))
    }

    #[test]
    fn cfg_test_mod_ranges() {
        let m = model("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n");
        assert!(!m.in_test_code(1));
        assert!(m.in_test_code(4));
    }

    #[test]
    fn suppression_parsing_with_and_without_reason() {
        let m = model(
            "fn f() {\n\
             // lint: allow(C1) — bounded wait, holder never blocks\n\
             let a = 1;\n\
             // lint: allow(D2, L1) -\n\
             let b = 2;\n}",
        );
        assert_eq!(m.suppressions.len(), 2);
        let s0 = &m.suppressions[0];
        assert_eq!(s0.rules, vec!["C1"]);
        assert!(s0.has_reason);
        assert!(s0.covers.contains(&3));
        let s1 = &m.suppressions[1];
        assert_eq!(s1.rules, vec!["D2", "L1"]);
        assert!(!s1.has_reason);
    }

    #[test]
    fn suppression_above_attributes_binds_to_the_item() {
        // The comment sits above two stacked attributes; it must cover
        // the decorated item line (4), not the attribute lines.
        let m = model(
            "// lint: allow(D2) — demo ranking, NaN-free by construction\n\
             #[cfg(feature = \"demo\")]\n\
             #[inline]\n\
             fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
        );
        assert_eq!(m.suppressions.len(), 1);
        assert!(
            m.suppressions[0].covers.contains(&4),
            "{:?}",
            m.suppressions[0]
        );
        assert!(!m.suppressions[0].covers.contains(&2));
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let m = model("fn f() {\n    let a = 1; // lint: allow(D2) — keys are never NaN\n}\n");
        assert!(m.suppressions[0].covers.contains(&2));
    }
}
