//! The one command: every workload, both passes, one result document.
//!
//! Each (workload, pass) runs in a child process — a re-exec of this
//! binary with `--workload` — so `peak_rss_mb` is per workload and one
//! workload's allocator state never warms another's. The parent prints
//! what the children print and assembles their result lines into one
//! JSON document (`--out`), the input of `--compare`.

use crate::json::Json;
use crate::workloads::Kind;
use crate::{machine, DETAIL_PREFIX, END_TO_END};
use std::path::Path;
use std::process::{Command, Stdio};

/// Version tag of the result document.
pub const DOCUMENT_VERSION: f64 = 1.0;

/// One child run: its result line (parsed), its detail line (parsed).
fn run_child(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child and drains its pipe.
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = Json::Null;
    let mut result = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix(DETAIL_PREFIX) {
            detail = Json::parse(rest).map_err(|e| format!("{}: detail line: {e}", kind.name()))?;
        } else if line.starts_with('{') {
            result =
                Some(Json::parse(line).map_err(|e| format!("{}: result line: {e}", kind.name()))?);
        } else {
            println!("{line}");
        }
    }
    let Some(Json::Obj(mut members)) = result else {
        return Err(format!(
            "the {} child (trace {}) exited with {} and printed no result",
            kind.name(),
            u8::from(trace),
            output.status
        ));
    };
    members.insert("detail".into(), detail);
    Ok(Json::Obj(members))
}

/// Run every workload untraced then traced, print every metric, and
/// write the result document to `out` if given. `Ok(true)` when every
/// run was correct.
pub fn run_all(seed: u64, seconds: f64, smoke: bool, out: Option<&Path>) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for kind in Kind::ALL {
        let untraced = run_child(kind, seed, seconds, false, smoke)?;
        let traced = run_child(kind, seed, seconds, true, smoke)?;
        for run in [&untraced, &traced] {
            all_correct &= run.get("correct").and_then(Json::as_bool) == Some(true);
        }
        workloads.push((
            kind.name(),
            Json::obj([
                ("why", Json::str(kind.why())),
                ("untraced", untraced),
                ("traced", traced),
            ]),
        ));
    }
    let spec = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let document = Json::obj([
        ("riskbench", Json::Num(DOCUMENT_VERSION)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("machine", machine::descriptor()),
        ("end_to_end", Json::Arr(spec.collect())),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(path) = out {
        let mut text = document.to_line();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("result document written to {}", path.display());
    }
    println!(
        "riskbench: {} workloads, seed {seed}, {}",
        Kind::ALL.len(),
        if all_correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_correct)
}
