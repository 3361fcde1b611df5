//! Clippy verdicts on the fixtures of the rules the workspace states as
//! clippy configuration (`clippy.toml`, `[workspace.lints]`, inner lint
//! attributes). Each (fixture, context) pair is staged as a module or
//! an integration test of a crate in a throwaway workspace under the
//! target directory, under the inner lint attributes of the real crate
//! root or module its [`At`] names; the workspace copies the real
//! `[workspace.lints]` and `CLIPPY_CONF_DIR` points at the real
//! `clippy.toml`, so deleting any of those settings changes a verdict.
//! Clippy runs once per test binary, over every pair.

#![expect(clippy::disallowed_methods, reason = "stages a scratch workspace")]

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

pub const CORE: &str = "crates/core/src/lib.rs";
pub const BENCH_ROOT: &str = "crates/bench/src/bin/perf_gate.rs";
pub const CODEC: &str = "crates/tables/src/codec.rs";

/// The crate roots that deny W1's lints.
pub const SERVING_ROOTS: [&str; 8] = [
    CORE,
    "crates/exec/src/lib.rs",
    "crates/tables/src/lib.rs",
    "crates/metrics/src/lib.rs",
    "crates/warehouse/src/lib.rs",
    "crates/analytics/src/lib.rs",
    "crates/mapreduce/src/lib.rs",
    "crates/obs/src/lib.rs",
];

/// The codec modules that deny S2's lint.
pub const S2_MODULES: [&str; 2] = [CODEC, "crates/catmodel/src/stage1io.rs"];

/// The lint context a fixture is compiled in.
#[derive(Clone, Copy)]
pub enum At {
    /// A module of a crate with only the workspace lints.
    Plain,
    /// A module of a crate with the inner lint attributes of this
    /// workspace-relative crate root.
    Root(&'static str),
    /// A module headed by the inner lint attributes of this
    /// workspace-relative module, in the `Plain` crate.
    Module(&'static str),
    /// An integration test of a crate staged like `Root` of this path.
    TestOf(&'static str),
}

fn cases() -> Vec<(&'static str, At)> {
    let mut cases = vec![
        ("d1_fire.rs", At::Plain),
        ("d1_clean.rs", At::Plain),
        ("entropy_fire.rs", At::Plain),
        ("entropy_clean.rs", At::Plain),
        ("d3_fire.rs", At::Plain),
        ("d3_fire.rs", At::Root(BENCH_ROOT)),
        ("d3_clean.rs", At::Plain),
        ("s1_fire.rs", At::Plain),
        ("s1_clean.rs", At::Plain),
        ("s2_fire.rs", At::Plain),
        ("s2_clean.rs", At::Module(CODEC)),
        ("c2_fire.rs", At::Plain),
        ("c2_fire.rs", At::Module("crates/tables/src/durable.rs")),
        ("c2_fire.rs", At::Module("crates/tables/src/shard.rs")),
        ("c2_clean.rs", At::Plain),
        ("w1_fire.rs", At::Root("crates/catmodel/src/lib.rs")),
        ("w1_fire.rs", At::TestOf(CORE)),
        ("w1_clean.rs", At::Root(CORE)),
        ("test_mod.rs", At::Root(CORE)),
        ("sup_expect.rs", At::Root(CORE)),
    ];
    cases.extend(S2_MODULES.map(|m| ("s2_fire.rs", At::Module(m))));
    cases.extend(SERVING_ROOTS.map(|r| ("w1_fire.rs", At::Root(r))));
    cases
}

/// The lints clippy reported on one staged fixture, with their levels.
#[derive(Debug, Default)]
pub struct Verdict(Vec<(String, String)>);

impl Verdict {
    /// Diagnostics of `lint`, at any level.
    pub fn count(&self, lint: &str) -> usize {
        self.0.iter().filter(|d| d.0 == lint).count()
    }

    /// Diagnostics of `lint` at error level: denied, so `cargo clippy`
    /// fails on them without `-D warnings`.
    pub fn denied(&self, lint: &str) -> usize {
        self.0
            .iter()
            .filter(|d| d.0 == lint && d.1 == "error")
            .count()
    }
}

/// Clippy's verdict on `fixture` staged in context `at`.
pub fn verdict(fixture: &str, at: At) -> &'static Verdict {
    static VERDICTS: OnceLock<BTreeMap<String, Verdict>> = OnceLock::new();
    let name = module_name(fixture, at);
    VERDICTS
        .get_or_init(run)
        .get(&name)
        .unwrap_or_else(|| panic!("`{fixture}` is not staged in that context ({name})"))
}

fn ident(path: &str) -> String {
    path.trim_end_matches(".rs").replace(['/', '-', '.'], "_")
}

fn module_name(fixture: &str, at: At) -> String {
    let (kind, path) = match at {
        At::Plain => ("plain", ""),
        At::Root(p) => ("root", p),
        At::Module(p) => ("module", p),
        At::TestOf(p) => ("test", p),
    };
    format!("{}_{kind}_{}", ident(fixture), ident(path))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn write(path: &Path, text: &str) {
    std::fs::create_dir_all(path.parent().expect("a parent")).expect("mkdir");
    std::fs::write(path, text).expect("stage a file");
}

/// The inner lint attributes (`#![deny(..)]`, `#![expect(..)]`, …) at
/// the top of a workspace file.
fn lint_attrs(path: &str) -> String {
    let text = read(repo_root().join(path));
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"));
    let mut attrs = String::new();
    while let Some(line) = lines.next().filter(|l| l.starts_with("#![")) {
        let mut attr = line.to_string();
        while attr.matches('[').count() > attr.matches(']').count() {
            attr = attr + "\n" + lines.next().expect("the attribute closes");
        }
        let levels = ["#![allow", "#![warn", "#![deny", "#![expect"];
        if levels.iter().any(|l| attr.starts_with(l)) {
            attrs = attrs + &attr + "\n";
        }
    }
    attrs
}

fn run() -> BTreeMap<String, Verdict> {
    // Unit-test binaries are not given CARGO_TARGET_TMPDIR; they live in
    // `<target>/<profile>/deps/`, and the directory is `<target>/tmp`.
    let tmp = option_env!("CARGO_TARGET_TMPDIR").map_or_else(
        || {
            let exe = std::env::current_exe().expect("test binary path");
            exe.ancestors().nth(3).expect("target dir").join("tmp")
        },
        PathBuf::from,
    );
    let ws = tmp.join(format!("clippy-cases-{}", env!("CARGO_CRATE_NAME")));
    let cases_dir = ws.join("cases");
    if cases_dir.exists() {
        std::fs::remove_dir_all(&cases_dir).expect("clear the staged cases");
    }

    let mut verdicts = BTreeMap::new();
    let mut roots: BTreeMap<String, String> = BTreeMap::new();
    let mut tests = Vec::new();
    for (fixture, at) in cases() {
        let name = module_name(fixture, at);
        let (krate, header) = match at {
            At::Plain => ("plain".to_string(), String::new()),
            At::Module(p) => ("plain".to_string(), lint_attrs(p)),
            At::Root(p) => (format!("root_{}", ident(p)), String::new()),
            At::TestOf(p) => (format!("test_{}", ident(p)), String::new()),
        };
        let root = roots.entry(krate.clone()).or_insert_with(|| match at {
            At::Root(p) | At::TestOf(p) => lint_attrs(p),
            At::Plain | At::Module(_) => String::new(),
        });
        let dir = if let At::TestOf(_) = at {
            tests.push(name.clone());
            "tests"
        } else {
            root.push_str(&format!("pub mod {name};\n"));
            "src"
        };
        let text = header + &read(repo_root().join("crates/lint/tests/fixtures").join(fixture));
        write(
            &cases_dir.join(&krate).join(dir).join(format!("{name}.rs")),
            &text,
        );
        verdicts.insert(name, Verdict::default());
    }
    for (krate, root) in &roots {
        write(&cases_dir.join(krate).join("src/lib.rs"), root);
        let manifest = format!(
            "[package]\nname = \"{krate}\"\nedition = \"2021\"\n[lints]\nworkspace = true\n"
        );
        write(&cases_dir.join(krate).join("Cargo.toml"), &manifest);
    }
    let real = read(repo_root().join("Cargo.toml"));
    let lints: String = real
        .split("\n[")
        .filter(|table| table.starts_with("workspace.lints"))
        .map(|table| format!("\n[{table}\n"))
        .collect();
    assert!(
        !lints.is_empty(),
        "the root manifest has no [workspace.lints]"
    );
    let manifest = format!("[workspace]\nresolver = \"2\"\nmembers = [\"cases/*\"]\n{lints}");
    write(&ws.join("Cargo.toml"), &manifest);

    let out = Command::new(env!("CARGO"))
        .current_dir(&ws)
        .env("CLIPPY_CONF_DIR", repo_root())
        .env("CARGO_TARGET_DIR", ws.join("target"))
        .args(["clippy", "--offline", "--keep-going", "--workspace"])
        .args(["--all-targets", "--message-format=json"])
        .output()
        .expect("run cargo clippy");

    // One JSON message per line. A diagnostic's children (with codes,
    // levels and spans of their own) come before its own `level`,
    // `spans` and `code`. Keys are structural, never inside a string,
    // where quotes are escaped.
    let value = |text: &str| -> String {
        let text = text.strip_prefix('"').unwrap_or(text);
        text.split(['"', ',', '}']).next().unwrap_or("").to_string()
    };
    let field = |text: &str, key: &str| {
        text.split_once(&format!("\"{key}\":"))
            .map_or(String::new(), |s| value(s.1))
    };
    let mut checked = BTreeSet::new();
    let mut sites = BTreeSet::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        checked.insert(field(line, "name"));
        let Some((_, tail)) = line.rsplit_once("\"level\":") else {
            continue;
        };
        // The last `"code":` is the lint's name, or `null`.
        let lint = tail
            .rsplit_once("\"code\":")
            .map_or(String::new(), |s| value(s.1));
        // The primary span's `file_name` is the last one before its
        // `is_primary`: a macro expansion (a desugared `for` loop) sits
        // ahead of it in the span and names other files.
        let file = tail
            .split_once("\"is_primary\":true")
            .and_then(|(span, _)| span.rsplit_once("\"file_name\":"))
            .map_or(String::new(), |s| value(s.1));
        let level = value(tail);
        if file.is_empty() {
            continue;
        }
        let hard_error = level == "error" && (lint == "null" || lint.starts_with('E'));
        assert!(!hard_error, "a staged fixture does not compile: {line}");
        // A crate checked as a library and as a test reports the sites
        // both share twice.
        let stem = file
            .rsplit('/')
            .next()
            .unwrap_or("")
            .trim_end_matches(".rs");
        if let Some(v) = verdicts.get_mut(stem) {
            if sites.insert((file.clone(), field(tail, "byte_start"), lint.clone())) {
                v.0.push((lint, level));
            }
        }
    }
    for target in roots.keys().chain(&tests) {
        assert!(
            checked.contains(target),
            "clippy never checked `{target}`:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    verdicts
}
