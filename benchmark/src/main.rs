//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--dir DIR] [--out DIR] [--inject-lost-write]
//! benchmark compare <parent results dir> <change results dir>
//! ```

mod compare;
mod engine;
mod gen;
mod json;
mod layers;
mod metrics;
mod probes;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use engine::Place;
use json::Json;
use metrics::{Def, END_TO_END, PER_LAYER};
use run::{Ctx, Outcome};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// `--quick` runs every workload, probe and check at this fraction of size.
pub const QUICK_DIV: usize = 20;

pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    inject_lost_write: bool,
    dir: Option<PathBuf>,
    out: PathBuf,
}

fn parse(args: &[String]) -> Res<Args> {
    let mut a = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        quick: false,
        inject_lost_write: false,
        dir: None,
        out: default_out_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse()?,
            "--seconds" => a.seconds = value()?.parse()?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}").into()),
                }
            }
            "--quick" => a.quick = true,
            "--inject-lost-write" => a.inject_lost_write = true,
            "--dir" => a.dir = Some(value()?.into()),
            "--out" => a.out = value()?.into(),
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(table: &'static [Def], outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .values
            .in_order(table)
            .into_iter()
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
                )
            })
            .collect(),
    )
}

/// Run one workload, print its metrics and checks, write the result file.
/// Returns whether every check passed.
fn run_workload(spec: &gen::Spec, args: &Args, place: &Place) -> Res<bool> {
    let scaled;
    let spec = if args.quick {
        scaled = spec.scaled(QUICK_DIV);
        &scaled
    } else {
        spec
    };
    let ctx = Ctx {
        spec,
        seed: args.seed,
        seconds: if args.quick {
            args.seconds / QUICK_DIV as f64
        } else {
            args.seconds
        },
        place,
        quick: args.quick,
        inject_lost_write: args.inject_lost_write,
    };
    let started = Instant::now();
    let (outcome, table) = if args.trace {
        (layers::per_layer(&ctx, &args.out)?, PER_LAYER)
    } else {
        (run::end_to_end(&ctx)?, END_TO_END)
    };

    println!(
        "# {} seed={} seconds={} trace={} quick={} medium={} fingerprint={:016x} ({:.1} s)",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.quick,
        place.medium(),
        outcome.fingerprint,
        started.elapsed().as_secs_f64(),
    );
    println!("# why: {}", spec.why);
    for (d, v) in outcome.values.in_order(table) {
        println!(
            "{:<36} {:>18.4} {:<6} ({} is better)",
            d.name, v, d.unit, d.better
        );
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("check {verdict} {:<28} {}", c.name, c.detail);
    }
    println!(
        "harness.cpu_wall_ratio={:.4} harness.block_iqr_frac={:.4}",
        outcome.cpu_wall_ratio, outcome.block_iqr_frac
    );

    // The contract's result line; the result file holds it under a header.
    let result = Json::members([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(table, &outcome)),
    ]);
    let mut file = Json::members([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("medium", Json::Str(place.medium())),
        (
            "fingerprint",
            Json::Str(format!("{:016x}", outcome.fingerprint)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_wall_ratio", Json::Num(outcome.cpu_wall_ratio)),
        ("block_iqr_frac", Json::Num(outcome.block_iqr_frac)),
        (
            "window_medians",
            Json::Obj(
                outcome
                    .medians
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    file.extend(result.iter().cloned());
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)?
        .as_millis();
    let path = args.out.join(format!(
        "result-{}-seed{}-trace{}-{stamp}.json",
        spec.name, args.seed, args.trace as u8
    ));
    std::fs::write(&path, Json::Obj(file).to_string() + "\n")?;
    // The last line of standard output.
    println!("{}", Json::Obj(result));
    Ok(outcome.correct())
}

fn real_main() -> Res<bool> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = parse(&argv)?;
    std::fs::create_dir_all(&args.out)?;
    if let Some(d) = &args.dir {
        std::fs::create_dir_all(d)?;
    }
    let place = Place {
        out: args.out.clone(),
        dir: args.dir.clone(),
    };
    let specs: Vec<&gen::Spec> = if args.workload == "all" {
        workloads::WORKLOADS.iter().collect()
    } else {
        vec![workloads::find(&args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?]
    };
    let mut ok = true;
    for spec in specs {
        ok &= run_workload(spec, &args, &place)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
