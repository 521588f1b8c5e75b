//! The `or-analyze` CLI: the repository's one static-analysis entry point.
//!
//! ```text
//! or-analyze lint         [--root PATH]   # source lint (L01–L06)
//! or-analyze verify-plans [--root PATH]   # plan verification (V01–V10, V06 retired)
//! ```
//!
//! Both subcommands print findings as `file:line [Lxx] …` /
//! `context [Vxx] …` lines and exit non-zero when anything
//! deny-severity is found, so CI can gate on them directly.

use std::path::PathBuf;
use std::process::ExitCode;

use or_analyze::{lint_repo, verify_repo_plans};

fn usage() -> ExitCode {
    eprintln!("usage: or-analyze <lint|verify-plans> [--root PATH]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return usage();
    };
    let mut root = PathBuf::from(".");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    match command.as_str() {
        "lint" => {
            let findings = lint_repo(&root);
            for finding in &findings {
                println!("{finding}");
            }
            if findings.is_empty() {
                println!("or-analyze lint: clean");
                ExitCode::SUCCESS
            } else {
                println!("or-analyze lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        "verify-plans" => match verify_repo_plans(&root) {
            Ok(report) => {
                let mut denies = 0;
                for check in &report.checks {
                    for violation in &check.violations {
                        if violation.is_deny() {
                            denies += 1;
                            println!("DENY {}: `{}`: {violation}", check.context, check.statement);
                        } else {
                            println!("warn {}: `{}`: {violation}", check.context, check.statement);
                        }
                    }
                }
                println!(
                    "or-analyze verify-plans: {} plan(s) verified, {} interpreter fallback(s), \
                     {} deny / {} warn",
                    report.checks.len(),
                    report.fallbacks.len(),
                    report.deny_count(),
                    report.warn_count(),
                );
                if denies == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("or-analyze verify-plans: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
