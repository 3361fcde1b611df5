//! Per-file token analysis shared by the rules.
//!
//! One pass over the token stream produces a [`FileModel`]: named
//! scopes (functions and named closures, with line ranges), inline
//! `#[cfg(test)] mod` regions, the set of identifiers bound to hash
//! containers, and the parsed suppression comments. The rules in
//! [`crate::rules`] then pattern-match against the model instead of
//! re-deriving structure.
//!
//! Everything here is heuristic — a lexer cannot do type inference —
//! and the heuristics deliberately favour *predictability* over
//! cleverness: a binding counts as a hash container iff its type
//! annotation or initialiser says `HashMap`/`HashSet` in this file.
//! What the heuristics miss, review still catches; what they hit is
//! machine-checked on every run.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// Is this a test-only path (an integration-test tree)? Inline
/// `#[cfg(test)]` modules are tracked separately per file.
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// How an identifier relates to hash containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashKind {
    /// The binding *is* a `HashMap`/`HashSet`.
    Hash,
    /// The binding is a sequence of hash containers
    /// (e.g. `Vec<HashMap<..>>`); iterating it yields `Hash` items.
    SeqOfHash,
}

/// A named lexical scope (fn or named closure) with its line extent.
#[derive(Debug, Clone)]
pub struct Scope {
    pub name: String,
    pub start_line: u32,
    pub end_line: u32,
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
    pub scopes: Vec<Scope>,
    /// Line ranges of inline `#[cfg(test)] mod` bodies.
    pub test_ranges: Vec<(u32, u32)>,
    /// Identifier → hash-container kind (file-global; good enough in
    /// practice, and a false positive is one suppression away).
    pub hash_idents: BTreeMap<String, HashKind>,
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
            scopes: Vec::new(),
            test_ranges: Vec::new(),
            hash_idents: BTreeMap::new(),
            suppressions: Vec::new(),
            call_hints: Vec::new(),
            toks,
            code,
        };
        model.find_scopes_and_test_ranges();
        model.find_hash_bindings();
        model.find_suppressions();
        model
    }

    /// The file stem, lower-cased (`crates/warehouse/src/lattice.rs` →
    /// `lattice`).
    pub fn stem(&self) -> String {
        self.path
            .rsplit('/')
            .next()
            .unwrap_or(&self.path)
            .trim_end_matches(".rs")
            .to_ascii_lowercase()
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

    /// Names of every scope containing `line`, innermost last.
    pub fn scopes_at(&self, line: u32) -> Vec<&str> {
        self.scopes
            .iter()
            .filter(|s| line >= s.start_line && line <= s.end_line)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Scopes: one pass tracking brace depth. A `fn NAME` or
    /// `let NAME = [move] |...|` seen at depth *d* names the next block
    /// opened at depth *d*. `#[cfg(test)]` followed by `mod` marks the
    /// next block as a test range.
    fn find_scopes_and_test_ranges(&mut self) {
        struct Frame {
            name: Option<String>,
            is_test: bool,
            start_line: u32,
        }
        let mut scopes: Vec<Scope> = Vec::new();
        let mut test_ranges: Vec<(u32, u32)> = Vec::new();
        let mut stack: Vec<Frame> = Vec::new();
        let mut pending_name: Option<String> = None;
        let mut pending_test = false;
        let mut cfg_test_attr = false;

        let n = self.code.len();
        let mut ci = 0usize;
        while ci < n {
            let t = self.ct(ci).expect("in range").clone();
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
                (TokKind::Ident, "fn") => {
                    if let Some(name) = self.ct(ci + 1) {
                        if name.kind == TokKind::Ident {
                            pending_name = Some(name.text.to_ascii_lowercase());
                        }
                    }
                }
                (TokKind::Ident, "let") => {
                    // `let [mut] NAME = [move] |` names a closure.
                    let mut j = ci + 1;
                    if self.ct(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    let name = match self.ct(j) {
                        Some(t) if t.kind == TokKind::Ident => t.text.to_ascii_lowercase(),
                        _ => {
                            ci += 1;
                            continue;
                        }
                    };
                    if self.ct(j + 1).is_some_and(|t| t.is_punct("=")) {
                        let mut k = j + 2;
                        if self.ct(k).is_some_and(|t| t.is_ident("move")) {
                            k += 1;
                        }
                        if self.ct(k).is_some_and(|t| t.is_punct("|")) {
                            pending_name = Some(name);
                        }
                    }
                }
                (TokKind::Punct, ";") => {
                    // A signature without a body (trait method) or a
                    // closure that never opened a block.
                    pending_name = None;
                    pending_test = false;
                }
                (TokKind::Punct, "{") => {
                    stack.push(Frame {
                        name: pending_name.take(),
                        is_test: pending_test,
                        start_line: t.line,
                    });
                    pending_test = false;
                }
                (TokKind::Punct, "}") => {
                    if let Some(frame) = stack.pop() {
                        if let Some(name) = frame.name {
                            scopes.push(Scope {
                                name,
                                start_line: frame.start_line,
                                end_line: t.line,
                            });
                        }
                        if frame.is_test {
                            test_ranges.push((frame.start_line, t.line));
                        }
                    }
                }
                _ => {}
            }
            ci += 1;
        }
        // Pop order is innermost-first; present outermost-first.
        scopes.sort_by_key(|s| (s.start_line, std::cmp::Reverse(s.end_line)));
        self.scopes = scopes;
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

    /// Register identifiers bound to hash containers:
    /// * `NAME : <type containing HashMap/HashSet>` — lets, fn params,
    ///   struct fields alike;
    /// * `let [mut] NAME = [std::collections::]HashMap::...` —
    ///   inferred lets;
    /// * `for NAME in SEQ` where `SEQ` is a registered sequence of hash
    ///   containers — the loop variable is itself a hash container.
    fn find_hash_bindings(&mut self) {
        let mut idents: BTreeMap<String, HashKind> = BTreeMap::new();
        let n = self.code.len();
        for ci in 0..n {
            let t = self.ct(ci).expect("in range").clone();
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "let" => {
                    let mut j = ci + 1;
                    if self.ct(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    let Some(name) = self.ct(j).filter(|t| t.kind == TokKind::Ident) else {
                        continue;
                    };
                    let name = name.text.clone();
                    if self.ct(j + 1).is_some_and(|t| t.is_punct("=")) {
                        // `let x = HashMap::new()` (with or without a
                        // `std::collections::` path prefix).
                        let init = self.code_slice_text(j + 2, j + 8);
                        if init.starts_with("HashMap::")
                            || init.starts_with("HashSet::")
                            || init.starts_with("std::collections::HashMap")
                            || init.starts_with("std::collections::HashSet")
                        {
                            idents.insert(name, HashKind::Hash);
                        }
                    }
                    // `let x: Type = ...` falls through to the generic
                    // `NAME :` case below on a later iteration.
                }
                "for" => {
                    // `for NAME in SEQ` with SEQ a sequence-of-hash.
                    let Some(name) = self.ct(ci + 1).filter(|t| t.kind == TokKind::Ident) else {
                        continue;
                    };
                    let name = name.text.clone();
                    if !self.ct(ci + 2).is_some_and(|t| t.is_ident("in")) {
                        continue;
                    }
                    if let Some(seq) = self.ct(ci + 3) {
                        if seq.kind == TokKind::Ident
                            && idents.get(&seq.text) == Some(&HashKind::SeqOfHash)
                        {
                            idents.insert(name, HashKind::Hash);
                        }
                    }
                }
                _ => {
                    // `NAME : <type>` — scan the type region.
                    if !self.ct(ci + 1).is_some_and(|t| t.is_punct(":")) {
                        continue;
                    }
                    if let Some(kind) = self.hash_type_after(ci + 2) {
                        idents.insert(t.text, kind);
                    }
                }
            }
        }
        self.hash_idents = idents;
    }

    /// Inspect a type region starting at code index `start`: collect
    /// tokens until a depth-0 terminator and decide whether the type
    /// contains a hash container, and if so whether a sequence wraps it.
    fn hash_type_after(&self, start: usize) -> Option<HashKind> {
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut seq_seen = false;
        for ci in start..(start + 48).min(self.code.len()) {
            let t = self.ct(ci)?;
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") => {
                    angle -= 1;
                    if angle < 0 {
                        return None;
                    }
                }
                (TokKind::Punct, "(") | (TokKind::Punct, "[") => paren += 1,
                (TokKind::Punct, ")") | (TokKind::Punct, "]") => {
                    if paren == 0 {
                        return None; // end of the param list
                    }
                    paren -= 1;
                }
                (TokKind::Punct, ",") if angle == 0 && paren == 0 => return None,
                (TokKind::Punct, ";") | (TokKind::Punct, "=") | (TokKind::Punct, "{")
                    if angle == 0 && paren == 0 =>
                {
                    return None
                }
                (TokKind::Ident, "Vec") | (TokKind::Ident, "VecDeque") => seq_seen = true,
                (TokKind::Ident, "HashMap") | (TokKind::Ident, "HashSet") => {
                    return Some(if seq_seen {
                        HashKind::SeqOfHash
                    } else {
                        HashKind::Hash
                    });
                }
                _ => {}
            }
        }
        None
    }

    /// Parse `lint: allow(...)` and `lint: calls(...)` comments.
    /// Grammar (inside any `//` or `/* */` comment):
    ///
    /// ```text
    /// lint: allow(D1)            — reason text          (em dash)
    /// lint: allow(D1, D2) - reason text                 (hyphen)
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
    fn scopes_cover_fn_bodies() {
        let m = model("fn outer() {\n    fn inner() {\n        1;\n    }\n}\n");
        assert_eq!(m.scopes_at(3), vec!["outer", "inner"]);
        assert_eq!(m.scopes_at(1), vec!["outer"]);
    }

    #[test]
    fn named_closures_become_scopes() {
        let m = model("fn f() {\n    let fold_chunk = |i: usize| {\n        i + 1\n    };\n}\n");
        assert!(m.scopes_at(3).contains(&"fold_chunk"));
    }

    #[test]
    fn cfg_test_mod_ranges() {
        let m = model("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n");
        assert!(!m.in_test_code(1));
        assert!(m.in_test_code(4));
    }

    #[test]
    fn hash_bindings_from_annotations_and_initialisers() {
        let m = model(
            "fn f(acc: &mut HashMap<u64, Cell>) {\n\
             let inferred = HashMap::new();\n\
             let seq: Vec<HashMap<u32, f64>> = Vec::new();\n\
             for part in seq {\n    part;\n}\n\
             let plain: Vec<u32> = Vec::new();\n}",
        );
        assert_eq!(m.hash_idents.get("acc"), Some(&HashKind::Hash));
        assert_eq!(m.hash_idents.get("inferred"), Some(&HashKind::Hash));
        assert_eq!(m.hash_idents.get("seq"), Some(&HashKind::SeqOfHash));
        assert_eq!(m.hash_idents.get("part"), Some(&HashKind::Hash));
        assert_eq!(m.hash_idents.get("plain"), None);
    }

    #[test]
    fn suppression_parsing_with_and_without_reason() {
        let m = model(
            "fn f() {\n\
             // lint: allow(D1) — keys merged once per partial\n\
             let a = 1;\n\
             // lint: allow(D2, L1) -\n\
             let b = 2;\n}",
        );
        assert_eq!(m.suppressions.len(), 2);
        let s0 = &m.suppressions[0];
        assert_eq!(s0.rules, vec!["D1"]);
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
            "// lint: allow(D4) — demo stream, not a simulation input\n\
             #[cfg(feature = \"demo\")]\n\
             #[inline]\n\
             fn f() { let r = thread_rng(); }\n",
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
        let m = model("fn f() {\n    let a = 1; // lint: allow(D4) — seeded upstream\n}\n");
        assert!(m.suppressions[0].covers.contains(&2));
    }
}
