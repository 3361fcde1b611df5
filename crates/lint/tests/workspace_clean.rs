//! Tier-1 gate: the real workspace must carry zero lint findings —
//! including the cross-file C1 reachability and L1–L3 lock-flow rules
//! and unused suppressions — and the two-pass engine must stay fast
//! enough to sit in the inner CI loop: this test is the same gate as
//! CI's `riskpipe-lint` step. The rules the workspace states as clippy
//! configuration are gated here too, by running the same clippy command
//! CI once ran as its own step.

use riskpipe_lint::{lint_workspace, RuleId};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Generous wall-time budget for the full two-pass workspace scan.
/// The scan finishes in about a tenth of a second in release mode
/// (under half a second in debug); the budget only has to catch an
/// accidental quadratic blowup (or a graph pass gone runaway), not
/// enforce a tight number under a loaded debug-mode CI runner.
const SCAN_BUDGET: Duration = Duration::from_secs(30);

fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("workspace root")
}

#[test]
fn workspace_has_no_deny_findings() {
    let root = workspace_root();
    #[expect(
        clippy::disallowed_methods,
        reason = "test-only wall-clock budget on the scan itself; no pipeline \
                  artifact depends on the reading"
    )]
    let started = std::time::Instant::now();
    let report = lint_workspace(&root).expect("lint workspace");
    let elapsed = started.elapsed();

    assert!(
        report.files_scanned > 100,
        "suspiciously small scan ({} files) — did the walk roots move?",
        report.files_scanned
    );
    assert!(
        elapsed < SCAN_BUDGET,
        "workspace scan took {elapsed:?} (budget {SCAN_BUDGET:?}) — \
         the two-pass engine regressed badly enough to drag CI"
    );

    // Findings print in full (chains included).
    for f in &report.findings {
        eprintln!("{f}");
    }
    assert!(
        report.findings.is_empty(),
        "{} lint finding(s) — fix the site or add a reasoned \
         `// lint: allow(<rule>)` (see `riskpipe-lint --explain <rule>`)",
        report.findings.len()
    );
}

#[test]
fn reachability_rules_are_active_at_deny() {
    // The workspace gate above is only meaningful if the call-graph
    // rules actually run: every finding fails, so a rule dropped from
    // the catalogue must not slip through a refactor silently.
    for rule in [RuleId::C1, RuleId::L1, RuleId::L2, RuleId::L3] {
        assert!(RuleId::ALL.contains(&rule), "{rule}");
    }
}

#[test]
fn workspace_is_clippy_clean_with_warnings_denied() {
    // Holds the workspace to the rules in clippy.toml, [workspace.lints]
    // and inner attributes. All features, so the lockwitness-only sites
    // are checked; a target dir of its own, so the outer build's lock is
    // never contended.
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("workspace-clippy");
    let out = Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .env("CARGO_TARGET_DIR", target)
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--all-features", "--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy -D warnings failed — fix the site or add \
         `#[expect(<lint>, reason = \"...\")]`:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn committed_lock_manifest_matches_the_derived_graph() {
    // The runtime lockwitness (crates/exec, `--features lockwitness`)
    // embeds `lock-order.manifest` from the repo root at compile time
    // and asserts every observed acquisition order against it. That
    // check is only as good as the manifest's freshness: if the
    // derived graph drifts from the committed file, regenerate with
    //     cargo run -p riskpipe-lint -- --emit-lock-graph .
    let root = workspace_root();
    let report = lint_workspace(&root).expect("lint workspace");
    let committed = std::fs::read_to_string(root.join("lock-order.manifest"))
        .expect("lock-order.manifest at the workspace root");
    let derived = report.lock_graph.render_manifest();
    assert!(
        committed == derived,
        "lock-order.manifest is stale — the derived lock graph changed.\n\
         Regenerate it:  cargo run -p riskpipe-lint -- --emit-lock-graph .\n\
         \n--- committed ---\n{committed}\n--- derived ---\n{derived}"
    );
}
