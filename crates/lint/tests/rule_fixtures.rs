//! Per-rule fixture tests: every rule in the catalogue, and every rule
//! the workspace states as clippy configuration, has a firing fixture
//! that fails without it and a clean fixture that stays silent. The
//! fixtures live in `tests/fixtures/` — a directory name the workspace
//! walk excludes, because the firing fixtures are intentionally
//! violating input, and one cargo never compiles on its own (only
//! direct children of `tests/` become test binaries). The clippy
//! fixtures are compiled by the harness in `tests/support/clippy.rs`.
//!
//! The fixtures are read with `fs`, never embedded as string literals:
//! embedding them would put the violating tokens inside *this* file,
//! which the workspace pass does scan.

#![expect(
    clippy::disallowed_methods,
    reason = "the CLI tests stage scratch trees"
)]

#[path = "support/clippy.rs"]
mod clippy_harness;

use clippy_harness::{verdict, At, Verdict, BENCH_ROOT, CODEC, CORE, S2_MODULES, SERVING_ROOTS};
use riskpipe_lint::{lint_source, lint_sources, Finding, RuleId};
use std::path::Path;
use std::process::Command;

const DISALLOWED: &str = "clippy::disallowed_methods";
const HASH_ITER: &str = "clippy::iter_over_hash_type";
const HASH_TYPES: &str = "clippy::disallowed_types";
const W1: [&str; 3] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
];

/// W1's lints, reported at any level.
fn w1_count(v: &Verdict) -> usize {
    W1.iter().map(|lint| v.count(lint)).sum()
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as if it lived at `as_path` in the workspace.
fn lint_fixture(name: &str, as_path: &str) -> Vec<Finding> {
    lint_source(as_path, &fixture(name))
}

fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_fires_on_hash_iteration_in_merge_code() {
    let v = verdict("d1_fire.rs", At::Plain);
    assert_eq!(v.denied(HASH_ITER), 1, "the inner loop over a map: {v:?}");
    // The `use`, the parameter and the dedupe's `HashSet`.
    assert_eq!(v.denied(HASH_TYPES), 3, "{v:?}");
}

#[test]
fn d1_clean_btree_and_sorted_drain_pass() {
    // The sorted drain's `#[expect]` is fulfilled, so it is reported
    // neither as a hash type nor as an unfulfilled expectation.
    let v = verdict("d1_clean.rs", At::Plain);
    for lint in [HASH_ITER, HASH_TYPES, "unfulfilled_lint_expectations"] {
        assert_eq!(v.count(lint), 0, "{lint}: {v:?}");
    }
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fires_on_partial_cmp_comparators() {
    let findings = lint_fixture("d2_fire.rs", "crates/app/src/rank.rs");
    let d2: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::D2).collect();
    assert_eq!(
        d2.len(),
        2,
        "sort_by and max_by should both fire: {findings:?}"
    );
}

#[test]
fn d2_clean_total_cmp_passes() {
    let findings = lint_fixture("d2_clean.rs", "crates/app/src/rank.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_fires_outside_timing_modules() {
    let v = verdict("d3_fire.rs", At::Plain);
    assert_eq!(
        v.denied(DISALLOWED),
        2,
        "Instant::now and SystemTime::now: {v:?}"
    );
}

#[test]
fn d3_same_source_is_exempt_in_a_timing_module() {
    // The very same firing source is clean under a bench binary root's
    // `#![expect]` (and fulfils it).
    let v = verdict("d3_fire.rs", At::Root(BENCH_ROOT));
    assert_eq!(v.count(DISALLOWED), 0, "{v:?}");
}

#[test]
fn d3_clean_duration_data_passes() {
    assert_eq!(verdict("d3_clean.rs", At::Plain).count(DISALLOWED), 0);
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_fires_on_entropy_seeded_rng() {
    // `RandomState`, reached through `hash_map`'s re-export.
    let v = verdict("entropy_fire.rs", At::Plain);
    assert_eq!(v.denied(HASH_TYPES), 1, "{v:?}");
}

#[test]
fn d4_clean_explicit_seeds_pass() {
    assert_eq!(verdict("entropy_clean.rs", At::Plain).count(HASH_TYPES), 0);
}

// ---------------------------------------------------------------- S1

#[test]
fn s1_fires_on_unaudited_unsafe() {
    let v = verdict("s1_fire.rs", At::Plain);
    let unaudited = v.denied("clippy::undocumented_unsafe_blocks");
    assert_eq!(unaudited, 2, "the unsafe impl and the unsafe block: {v:?}");
}

#[test]
fn s1_clean_audited_unsafe_passes() {
    let v = verdict("s1_clean.rs", At::Plain);
    assert_eq!(v.count("clippy::undocumented_unsafe_blocks"), 0, "{v:?}");
}

// ---------------------------------------------------------------- S2

#[test]
fn s2_fires_as_deny_on_narrowing_casts_in_decode_code() {
    for module in S2_MODULES {
        let v = verdict("s2_fire.rs", At::Module(module));
        let denied = v.denied("clippy::cast_possible_truncation");
        assert_eq!(denied, 2, "{module} must deny both casts: {v:?}");
    }
}

#[test]
fn s2_clean_checked_and_widening_casts_pass() {
    let v = verdict("s2_clean.rs", At::Module(CODEC));
    assert_eq!(v.count("clippy::cast_possible_truncation"), 0, "{v:?}");
}

#[test]
fn clippy_harness_denies_graduated_s2() {
    // S2 is denied in codec modules, not warned: `cargo clippy` fails on
    // the firing fixture without needing `-D warnings`.
    let v = verdict("s2_fire.rs", At::Module(CODEC));
    assert_eq!(v.count("clippy::cast_possible_truncation"), 2, "{v:?}");
    assert_eq!(v.denied("clippy::cast_possible_truncation"), 2, "{v:?}");
}

// ---------------------------------------------------------------- C1

/// Lint the cross-file firing pair as two workspace files.
fn lint_c1_pair() -> Vec<Finding> {
    let files = vec![
        (
            "crates/app/src/drive.rs".to_string(),
            fixture("c1_fire_root.rs"),
        ),
        (
            "crates/app/src/gate.rs".to_string(),
            fixture("c1_fire_leaf.rs"),
        ),
    ];
    lint_sources(&files).findings
}

#[test]
fn c1_cross_file_chain_fires_two_hops_from_the_pool_task() {
    let findings = lint_c1_pair();
    let c1: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::C1).collect();
    assert_eq!(c1.len(), 1, "{findings:?}");
    let f = c1[0];
    // The finding anchors at the blocking site in the leaf file...
    assert_eq!(f.path, "crates/app/src/gate.rs");
    assert!(f.message.contains("2 hop(s)"), "{}", f.message);
    // ...and carries the full chain: task closure → stage_kernel →
    // gate_barrier → the lock itself.
    assert_eq!(f.trace.len(), 4, "{:?}", f.trace);
    assert_eq!(f.trace[0].path, "crates/app/src/drive.rs");
    assert!(f.trace[0].name.contains("task closure"), "{:?}", f.trace);
    assert!(f.trace[1].name.contains("stage_kernel"), "{:?}", f.trace);
    assert!(f.trace[2].name.contains("gate_barrier"), "{:?}", f.trace);
    assert!(f.trace[3].name.contains("lock"), "{:?}", f.trace);
}

#[test]
fn c1_text_rendering_prints_the_call_chain() {
    let findings = lint_c1_pair();
    let text = findings
        .iter()
        .find(|f| f.rule == RuleId::C1)
        .expect("C1 finding")
        .to_string();
    assert!(text.contains("chain: crates/app/src/drive.rs"), "{text}");
    assert!(text.contains("-> crates/app/src/gate.rs"), "{text}");
}

#[test]
fn c1_clean_coordinator_side_blocking_passes() {
    let findings = lint_fixture("c1_clean.rs", "crates/app/src/drain.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn c1_root_in_a_test_path_is_exempt() {
    // The same firing pair linted under a tests/ path spawns no roots,
    // so the chain never forms.
    let files = vec![
        (
            "crates/app/tests/drive.rs".to_string(),
            fixture("c1_fire_root.rs"),
        ),
        (
            "crates/app/tests/gate.rs".to_string(),
            fixture("c1_fire_leaf.rs"),
        ),
    ];
    let findings = lint_sources(&files).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- C2

#[test]
fn c2_fires_on_raw_writes_in_persistence_scope() {
    let v = verdict("c2_fire.rs", At::Plain);
    assert_eq!(
        v.denied(DISALLOWED),
        2,
        "fs::write and .truncate(true): {v:?}"
    );
}

#[test]
fn c2_clean_durable_routed_persistence_passes() {
    assert_eq!(verdict("c2_clean.rs", At::Plain).count(DISALLOWED), 0);
}

#[test]
fn c2_same_source_is_exempt_inside_the_durable_module() {
    // The firing source is clean under the durable module's own
    // `#![expect]`, and fulfils it.
    let v = verdict("c2_fire.rs", At::Module("crates/tables/src/durable.rs"));
    assert_eq!(v.count(DISALLOWED), 0, "{v:?}");
    assert_eq!(v.count("unfulfilled_lint_expectations"), 0, "{v:?}");
}

// ---------------------------------------------------------------- L1

/// Lint the cross-file cycle pair as two files of one crate.
fn lint_l1_pair(alpha: &str, beta: &str) -> riskpipe_lint::Report {
    let files = vec![
        ("crates/app/src/alpha.rs".to_string(), fixture(alpha)),
        ("crates/app/src/beta.rs".to_string(), fixture(beta)),
    ];
    lint_sources(&files)
}

#[test]
fn l1_cross_file_cycle_fires_with_one_chain_per_edge() {
    let report = lint_l1_pair("l1_fire_alpha.rs", "l1_fire_beta.rs");
    let l1: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RuleId::L1)
        .collect();
    assert_eq!(l1.len(), 1, "one finding per cycle: {:?}", report.findings);
    let f = l1[0];
    assert!(f.message.contains("lock-order cycle"), "{}", f.message);
    assert!(
        f.message.contains("journal") && f.message.contains("registry"),
        "{}",
        f.message
    );
    // Two cycle edges (`journal` -> `registry` -> `journal`), each
    // proven by its own root→site chain.
    assert_eq!(f.chains.len(), 2, "{:?}", f.chains);
    assert!(f.chains.iter().all(|c| !c.is_empty()), "{:?}", f.chains);
    // One edge is created in each file: the chains together must span
    // both halves of the pair.
    let chain_paths: Vec<&str> = f
        .chains
        .iter()
        .flat_map(|c| c.iter().map(|fr| fr.path.as_str()))
        .collect();
    assert!(
        chain_paths.contains(&"crates/app/src/alpha.rs"),
        "{chain_paths:?}"
    );
    assert!(
        chain_paths.contains(&"crates/app/src/beta.rs"),
        "{chain_paths:?}"
    );
}

#[test]
fn l1_text_renders_every_chain() {
    let report = lint_l1_pair("l1_fire_alpha.rs", "l1_fire_beta.rs");
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == RuleId::L1)
        .expect("L1 finding");
    let text = f.to_string();
    assert!(text.contains("chain 1:"), "{text}");
    assert!(text.contains("chain 2:"), "{text}");
}

#[test]
fn l1_clean_consistent_order_passes() {
    let report = lint_l1_pair("l1_clean_alpha.rs", "l1_clean_beta.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    // The graph itself is still derived: both locks, edges one-way.
    assert!(report.lock_graph.locks.contains(&"journal".to_string()));
    assert!(report.lock_graph.locks.contains(&"registry".to_string()));
    assert!(
        report
            .lock_graph
            .edges
            .iter()
            .all(|e| !(e.held == "journal" && e.acquired == "registry")),
        "clean pair must not create the reversed edge"
    );
}

// ---------------------------------------------------------------- L2

#[test]
fn l2_fires_on_guard_across_spawn_and_across_recv() {
    let findings = lint_fixture("l2_fire.rs", "crates/app/src/fanout.rs");
    let l2: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::L2).collect();
    assert!(
        l2.len() >= 2,
        "both the spawn hold and the recv hold should fire: {findings:?}"
    );
    assert!(
        l2.iter().any(|f| f.message.contains("`queue`")),
        "{findings:?}"
    );
    assert!(
        l2.iter()
            .any(|f| f.message.contains("`results`") && f.message.contains("recv")),
        "{findings:?}"
    );
}

#[test]
fn l2_clean_guard_scoped_out_before_the_boundary_passes() {
    let findings = lint_fixture("l2_clean.rs", "crates/app/src/fanout.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- L3

#[test]
fn l3_fires_on_guard_across_cross_crate_call() {
    let files = vec![
        (
            "crates/feed/src/publish.rs".to_string(),
            fixture("l3_fire_holder.rs"),
        ),
        (
            "crates/relay/src/forward.rs".to_string(),
            fixture("l3_fire_callee.rs"),
        ),
    ];
    let findings = lint_sources(&files).findings;
    let l3: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::L3).collect();
    assert_eq!(l3.len(), 1, "{findings:?}");
    let f = l3[0];
    assert!(f.message.contains("cross-crate"), "{}", f.message);
    assert!(f.message.contains("`outbox`"), "{}", f.message);
}

#[test]
fn l3_same_crate_call_is_silent() {
    // The identical pair linted as one crate: order is readable
    // in-crate, so no finding.
    let files = vec![
        (
            "crates/feed/src/publish.rs".to_string(),
            fixture("l3_fire_holder.rs"),
        ),
        (
            "crates/feed/src/forward.rs".to_string(),
            fixture("l3_fire_callee.rs"),
        ),
    ];
    let findings = lint_sources(&files).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn l3_lock_leaf_crates_are_exempt() {
    // The callee linted under the lock-leaf crate, crates/obs: its
    // locks never call back out, so the hold creates no opaque edge.
    let files = vec![
        (
            "crates/feed/src/publish.rs".to_string(),
            fixture("l3_fire_holder.rs"),
        ),
        (
            "crates/obs/src/forward.rs".to_string(),
            fixture("l3_fire_callee.rs"),
        ),
    ];
    let findings = lint_sources(&files).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- W1

#[test]
fn w1_fires_on_panic_paths_in_serving_crates() {
    for root in SERVING_ROOTS {
        let v = verdict("w1_fire.rs", At::Root(root));
        let denied: usize = W1.iter().map(|lint| v.denied(lint)).sum();
        assert_eq!(denied, 3, "{root}: the unwrap, expect and panic!: {v:?}");
    }
}

#[test]
fn w1_is_scoped_to_serving_crates_and_library_code() {
    // Silent outside the serving set, and in a serving crate's
    // integration test.
    for at in [At::Root("crates/catmodel/src/lib.rs"), At::TestOf(CORE)] {
        let v = verdict("w1_fire.rs", at);
        assert_eq!(w1_count(v), 0, "{v:?}");
    }
}

#[test]
fn w1_clean_total_function_passes() {
    let v = verdict("w1_clean.rs", At::Root(CORE));
    assert_eq!(w1_count(v), 0, "{v:?}");
}

// ------------------------------------------------------ suppressions

#[test]
fn reasoned_suppression_silences_exactly_its_site() {
    let findings = lint_fixture("suppressed.rs", "crates/app/src/demo.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn suppression_above_an_attribute_stack_binds_to_the_item() {
    // Regression: the allow sits above `#[cfg(...)]`/`#[inline]`; it
    // must skip the attributes and cover the decorated fn, so neither
    // the D2 on the item nor an unused-suppression finding appears.
    let findings = lint_fixture("sup_attr.rs", "crates/app/src/demo.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn bad_suppressions_are_deny_and_do_not_suppress() {
    let findings = lint_fixture("bad_suppression.rs", "crates/app/src/demo.rs");
    // The reasonless allow(D2) does not silence the comparator finding...
    assert!(rules_of(&findings).contains(&RuleId::D2), "{findings:?}");
    // ...and both the reasonless and the unknown-rule suppression are
    // SUP findings.
    let sup: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::Sup).collect();
    assert_eq!(sup.len(), 2, "{findings:?}");
}

#[test]
fn reasonless_or_unfulfilled_expect_fails_clippy() {
    // SUP for the clippy rules: a reasonless `#[expect]` is denied even
    // though what it expects fires, and an expectation nothing fulfils
    // is reported (CI's `-D warnings` denies it).
    let v = verdict("sup_expect.rs", At::Root(CORE));
    assert_eq!(
        v.denied("clippy::allow_attributes_without_reason"),
        1,
        "{v:?}"
    );
    assert_eq!(v.count("unfulfilled_lint_expectations"), 1, "{v:?}");
}

// ------------------------------------------------------- CLI surface

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_riskpipe-lint"))
}

/// Run the binary; return its exit code and stdout.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = bin().args(args).output().expect("run riskpipe-lint");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    (out.status.code(), stdout)
}

#[test]
fn cli_reports_a_firing_fixture_and_exits_1() {
    let root = env!("CARGO_MANIFEST_DIR");
    let (code, text) = run(&["--root", root, "tests/fixtures/d2_fire.rs"]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("tests/fixtures/d2_fire.rs:"), "{text}");
    assert!(text.contains("[D2]"), "{text}");
}

#[test]
fn cli_unused_suppression_exits_1_with_no_flag() {
    let root = env!("CARGO_MANIFEST_DIR");
    let (code, text) = run(&["--root", root, "tests/fixtures/sup_unused.rs"]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("[SUP] unused suppression"), "{text}");
}

#[test]
fn cli_prints_the_c1_call_chain_and_exits_1() {
    // The fixture pair must live under a src/ layout — tests/fixtures
    // paths spawn no C1 roots — so stage a tiny workspace in tmp.
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("c1_cli");
    let src = tmp.join("crates/app/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(src.join("drive.rs"), fixture("c1_fire_root.rs")).expect("write");
    std::fs::write(src.join("gate.rs"), fixture("c1_fire_leaf.rs")).expect("write");
    let (code, text) = run(&["--root", tmp.to_str().expect("utf8 path"), "crates"]);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("crates/app/src/gate.rs:9: [C1]"), "{text}");
    assert!(text.contains("chain: crates/app/src/drive.rs:7"), "{text}");
    assert!(
        text.contains("-> crates/app/src/gate.rs:4 `stage_kernel`"),
        "{text}"
    );
    assert!(
        text.contains("-> crates/app/src/gate.rs:9 `inner.lock()`"),
        "{text}"
    );
}

#[test]
fn cli_mistyped_path_is_a_usage_error_not_a_clean_scan() {
    let root = env!("CARGO_MANIFEST_DIR");
    // A PATH that does not exist must not lint clean...
    let typo = bin()
        .args(["--root", root, "tests/fixturez"])
        .output()
        .expect("run riskpipe-lint");
    assert_eq!(typo.status.code(), Some(2), "{typo:?}");
    assert!(typo.stdout.is_empty(), "{typo:?}");
    let stderr = String::from_utf8(typo.stderr).expect("utf8");
    assert!(stderr.contains("tests/fixturez"), "{stderr}");
    // ...and neither must an existing directory with no `.rs` file in it.
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no_rs_files");
    std::fs::create_dir_all(tmp.join("crates")).expect("mkdir");
    let nothing = bin()
        .args(["--root", tmp.to_str().expect("utf8 path"), "crates"])
        .output()
        .expect("run riskpipe-lint");
    assert_eq!(nothing.status.code(), Some(2), "{nothing:?}");
    assert!(nothing.stdout.is_empty(), "{nothing:?}");
}

#[test]
fn cli_explain_covers_every_rule() {
    for rule in RuleId::ALL {
        let out = bin()
            .args(["--explain", rule.code()])
            .output()
            .expect("run riskpipe-lint");
        assert_eq!(out.status.code(), Some(0), "--explain {}", rule.code());
        let text = String::from_utf8(out.stdout).expect("utf8");
        assert!(
            text.contains(rule.code()),
            "--explain {} output: {text}",
            rule.code()
        );
    }
}
