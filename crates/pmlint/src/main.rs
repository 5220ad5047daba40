//! CLI entry point:
//! `cargo run -p pmlint -- [--deny] [--root DIR] [--sarif OUT] [--github]
//! [--suppress FILE] [--explain RULE]`.
//!
//! Lints the workspace and prints findings; with `--deny`, exits 1 when
//! any finding survives (the CI contract). `--sarif` writes a SARIF
//! 2.1.0 report, `--github` prints workflow-command annotations, and
//! `--explain` documents a rule and exits.
//!
//! Exit codes are distinct so CI can tell "the tree is dirty" from "the
//! linter could not run": 0 = clean, 1 = findings under `--deny`,
//! 2 = usage error, 3 = I/O or internal error (unreadable tree,
//! unwritable report).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut sarif_out: Option<PathBuf> = None;
    let mut github = false;
    let mut suppress: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--github" => github = true,
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("pmlint: --root needs a directory");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            "--sarif" => {
                let Some(out) = args.next() else {
                    eprintln!("pmlint: --sarif needs an output path");
                    return ExitCode::from(2);
                };
                sarif_out = Some(PathBuf::from(out));
            }
            "--suppress" => {
                let Some(file) = args.next() else {
                    eprintln!("pmlint: --suppress needs a file");
                    return ExitCode::from(2);
                };
                suppress = Some(PathBuf::from(file));
            }
            "--explain" => {
                let Some(rule) = args.next() else {
                    eprintln!("pmlint: --explain needs a rule name; known rules:");
                    for r in pmlint::explained_rules() {
                        eprintln!("  {r}");
                    }
                    return ExitCode::from(2);
                };
                return match pmlint::explain(&rule) {
                    Some(text) => {
                        println!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("pmlint: unknown rule {rule:?}; known rules:");
                        for r in pmlint::explained_rules() {
                            eprintln!("  {r}");
                        }
                        ExitCode::from(2)
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: pmlint [--deny] [--root DIR] [--sarif OUT] [--github] \
                     [--suppress FILE] [--explain RULE]\n\
                     \n\
                     exit codes:\n\
                     \x20 0  clean (or findings without --deny)\n\
                     \x20 1  findings, with --deny (the CI gate tripped)\n\
                     \x20 2  usage error (unknown flag, missing operand, unknown rule)\n\
                     \x20 3  I/O or internal error (unreadable tree or suppress file,\n\
                     \x20    unwritable SARIF report) — the lint did not run to completion"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pmlint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    if !root.is_dir() {
        eprintln!("pmlint: root {} is not a directory", root.display());
        return ExitCode::from(3);
    }

    let mut cfg = pmlint::Config::tree_default();
    match &suppress {
        Some(file) => match std::fs::read_to_string(file) {
            Ok(text) => cfg
                .suppressions
                .extend(pmlint::Config::parse_suppressions(&text)),
            Err(e) => {
                eprintln!("pmlint: cannot read {}: {e}", file.display());
                return ExitCode::from(3);
            }
        },
        None => pmlint::load_suppressions(&root, &mut cfg),
    }

    let findings = match pmlint::lint_tree(&root, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("pmlint: cannot walk tree at {}: {e}", root.display());
            return ExitCode::from(3);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if github && !findings.is_empty() {
        println!("{}", pmlint::sarif::to_github_annotations(&findings));
    }
    if let Some(out) = sarif_out {
        let doc = pmlint::sarif::to_sarif(&findings);
        if let Err(e) = std::fs::write(&out, doc) {
            eprintln!("pmlint: cannot write {}: {e}", out.display());
            return ExitCode::from(3);
        }
        println!("pmlint: SARIF report written to {}", out.display());
    }
    println!(
        "pmlint: {} finding(s); {} publish label(s) of {} protocol(s) bound",
        findings.len(),
        nvm::publish_labels().len(),
        nvm::protocol_registry().len(),
    );
    if deny && !findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
