//! The `report` binary as a process: what `cargo run --bin report`
//! does from a fresh checkout, with nothing else built beside it.

use std::process::Command;

const IDS: [&str; 11] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "ablation",
];

fn report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_report"))
}

#[test]
fn unknown_id_exits_nonzero_and_lists_the_valid_ids() {
    let out = report().arg("e0").output().unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no report may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown report id `e0`"), "{stderr}");
    assert!(IDS.iter().all(|id| stderr.contains(id)), "{stderr}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs all eleven reports: ~2.5 min unoptimised; CI runs it under `cargo test --release`"
)]
fn all_writes_every_report_from_a_fresh_dir() {
    let dir = std::env::temp_dir().join(format!("riskpipe-report-all-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = report().arg("all").current_dir(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for id in IDS {
        let text = std::fs::read_to_string(dir.join("reports").join(format!("{id}.txt"))).unwrap();
        // Each report opens with its own title line ("E3 — ...").
        assert!(
            text.to_lowercase().starts_with(&format!("{id} —")),
            "{id}.txt: {text}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
