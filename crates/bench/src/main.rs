//! `hyrise-nv-bench <experiment>|all [--quick]` — run experiments of the
//! registry; exits 1 when one fails a verdict it enforces, 2 on usage.

use std::path::Path;
use std::process::ExitCode;

use benchkit::experiments::{select, REGISTRY};
use benchkit::harness::run_experiment;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    eprintln!("{problem}\nusage: hyrise-nv-bench <experiment>|all [--quick]");
    eprintln!("experiments: {}", names.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut name = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => return usage(&format!("unexpected argument {arg:?}")),
        }
    }
    let name = name.unwrap_or_default();
    let selected = select(&name);
    if selected.is_empty() {
        return usage(&format!("no experiment {name:?}"));
    }
    let mut failed = Vec::new();
    for exp in selected {
        println!("\n#### {} ####", exp.name);
        if let Err(e) = run_experiment(exp, quick, Path::new("results")) {
            eprintln!("{}: FAILED: {e}", exp.name);
            failed.push(exp.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}
