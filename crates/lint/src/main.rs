//! The `riskpipe-lint` command-line front-end.
//!
//! ```text
//! riskpipe-lint                      # lint the whole workspace
//! riskpipe-lint crates/warehouse     # lint one subtree
//! riskpipe-lint --explain L1         # why a rule exists and how to fix
//! riskpipe-lint --rules              # list the catalogue
//! ```
//!
//! Exit codes: 0 clean, 1 any finding, 2 usage or I/O error (a PATH
//! that does not exist, or a scan that finds no file, is a usage error
//! — never a clean run).

use riskpipe_lint::{find_workspace_root, lint_paths, lint_workspace, RuleId};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
riskpipe-lint — workspace determinism & safety static-analysis pass

USAGE:
    riskpipe-lint [OPTIONS] [PATHS...]

ARGS:
    [PATHS...]        files or directories to lint, relative to the
                      workspace root (default: crates src examples tests)

OPTIONS:
    --root <DIR>      workspace root (default: nearest ancestor with a
                      [workspace] Cargo.toml)
    --emit-lock-graph <DIR>  write the workspace lock-order graph to
                      DIR/lock-order.manifest (the runtime lockwitness
                      asserts against it)
    --explain <RULE>  print the rationale and fix guidance for one rule
    --rules           list the rule catalogue
    -h, --help        this text
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut emit_lock_graph: Option<PathBuf> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--rules" => {
                for r in RuleId::ALL {
                    println!("{:4} {}", r.code(), r.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let Some(code) = args.next() else {
                    eprintln!(
                        "--explain needs a rule code (one of {})",
                        RuleId::code_list(true)
                    );
                    return ExitCode::from(2);
                };
                match RuleId::from_code(&code) {
                    Some(rule) => {
                        println!("{}", rule.explain());
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!("unknown rule `{code}` — known: {}", RuleId::code_list(true));
                        return ExitCode::from(2);
                    }
                }
            }
            "--emit-lock-graph" => {
                let Some(dir) = args.next() else {
                    eprintln!("--emit-lock-graph needs a directory");
                    return ExitCode::from(2);
                };
                emit_lock_graph = Some(PathBuf::from(dir));
            }
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(dir));
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("could not find a workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };

    let scan = if paths.is_empty() {
        lint_workspace(&root)
    } else {
        lint_paths(&root, &paths)
    };
    let report = match scan {
        Ok(r) => r,
        Err(e) => {
            eprintln!("riskpipe-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(dir) = &emit_lock_graph {
        #[expect(
            clippy::disallowed_methods,
            reason = "the lock graph is developer output regenerated on demand; this \
                      crate is dependency-free, so riskpipe_tables::durable is out of reach"
        )]
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            std::fs::write(
                dir.join("lock-order.manifest"),
                report.lock_graph.render_manifest(),
            )
        };
        if let Err(e) = write() {
            eprintln!(
                "riskpipe-lint: cannot write lock graph to {}: {e}",
                dir.display()
            );
            return ExitCode::from(2);
        }
        eprintln!(
            "riskpipe-lint: lock graph ({} lock(s), {} edge(s)) written to {}",
            report.lock_graph.locks.len(),
            report.lock_graph.edges.len(),
            dir.display()
        );
    }

    print!("{}", report.render_text());
    if !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
