//! CLI entry point for the workspace lint engine.
//!
//! ```text
//! cargo run -p sflow-audit                  # exit 1 on any finding
//! cargo run -p sflow-audit -- --list-rules
//! ```

#![forbid(unsafe_code)]
#![expect(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;

use sflow_audit::{audit_workspace, find_root, RULES};

const HELP: &str = "\
sflow-audit: token-stream workspace lint engine

Lexes every workspace source into a token stream (idents, literals,
punctuation, brace depth) and enforces over it the sflow discipline rules
that need flow or cross-file knowledge (see --list-rules). Exits non-zero if
any finding remains.

USAGE: sflow-audit [--root DIR] [--list-rules]

  --root DIR     workspace root (default: walk up from cwd)
  --list-rules   print the rule catalogue and exit

Suppress a finding at its site with an `audit:allow(<rule>)` comment on the
same line or the line directly above; a directive that suppresses nothing
is itself flagged by unused-suppression.";

fn main() -> ExitCode {
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-rules" => {
                for r in RULES {
                    println!("{:<20} {}", r.name, r.description);
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("sflow-audit: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sflow-audit: unknown flag: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let Some(root) =
        root.or_else(|| find_root(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))))
    else {
        eprintln!("sflow-audit: no workspace root found (no Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };
    let report = match audit_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sflow-audit: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
