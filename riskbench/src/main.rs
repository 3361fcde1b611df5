//! `riskbench` — see the crate docs and `README.md`.
//!
//! ```text
//! riskbench                                  every workload, both passes
//! riskbench --workload price_sweep --seed 7 --seconds 10 --trace 0
//! riskbench --compare a.json b.json
//! ```

use riskbench::machine::ScratchRoot;
use riskbench::workloads::Kind;
use riskbench::{compare, suite, RunConfig, DEFAULT_SECONDS, DEFAULT_SEED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const USAGE: &str = "usage: riskbench [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--smoke] [--out <path>] | --compare <a.json> <b.json>";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(&v).ok_or(format!("--seed: not a u64: {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or(format!("--seconds: expected 0..=600, got {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// Exit codes: 0 done (a workload's result line may still say
/// `correct: false`), 1 a comparison found a regression or a suite
/// workload failed, 2 the run could not produce a result.
fn real_main() -> i32 {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("riskbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare_files(a, b) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("riskbench: {e}");
                2
            }
        };
    }
    let Some(kind) = args.workload else {
        return match suite::run_all(args.seed, args.seconds, args.smoke, args.out.as_deref()) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("riskbench: {e}");
                2
            }
        };
    };
    let cfg = RunConfig {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    // The scratch guard sits outside the unwind boundary, so a panic in
    // a workload still removes every directory the run created.
    let scratch = match ScratchRoot::create() {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("riskbench: cannot create the scratch root: {e}");
            return 2;
        }
    };
    match catch_unwind(AssertUnwindSafe(|| riskbench::run(&cfg, &scratch))) {
        Ok(Ok(output)) => {
            output.print();
            0
        }
        Ok(Err(e)) => {
            eprintln!("riskbench: {}: {e}", kind.name());
            2
        }
        Err(_) => {
            eprintln!("riskbench: {}: panicked", kind.name());
            2
        }
    }
}

fn main() {
    // `exit` skips destructors, so everything that owns a resource
    // lives (and dies) inside `real_main`.
    std::process::exit(real_main());
}
