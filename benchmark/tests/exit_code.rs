//! The command itself: a clean `--quick` run prints a correct result line
//! and exits 0; with a lost write injected it reports `"correct": false`
//! and exits non-zero; `compare` refuses `--quick` results.

use std::path::PathBuf;
use std::process::{Command, Output};

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .unwrap()
}

fn last_line(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().last().unwrap_or_default().to_string()
}

#[test]
fn quick_run_is_correct_and_an_injected_lost_write_fails_it() {
    let dir = out_dir("run");
    let out = dir.to_str().unwrap();
    let common = [
        "--workload",
        "update_uniform",
        "--quick",
        "--seed",
        "5",
        "--out",
        out,
    ];

    let clean = benchmark(&common);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let line = last_line(&clean);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(
        line.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "),
        "{line}"
    );

    let traced = benchmark(&[&common[..], &["--trace", "1"]].concat());
    assert_eq!(
        traced.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    assert!(last_line(&traced).contains("\"core.unattributed_frac\": {\"value\": "));
    assert!(dir.join("trace-update_uniform.jsonl").exists());

    let broken = benchmark(&[&common[..], &["--inject-lost-write"]].concat());
    assert_eq!(broken.status.code(), Some(1));
    assert!(last_line(&broken).starts_with("{\"correct\": false, "));

    // `compare` must not take these for measurements.
    let compared = benchmark(&["compare", out, out]);
    assert_eq!(compared.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&compared.stderr).contains("--quick"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
