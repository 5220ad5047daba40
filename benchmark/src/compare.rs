//! `benchmark compare <parent dir> <change dir>`: one row per workload ×
//! end-to-end metric with each side's median and quartiles, the bound from
//! `BENCHMARK.json` and a verdict.
//!
//! * `worse` — the change's median is worse than the parent's by more than
//!   the bound;
//! * `improved` — it is better by more than the parent's own quartile spread;
//! * `unresolved` — the parent's spread exceeds the bound, a side has fewer
//!   than three runs, or a run was flagged noisy (`cpu_wall_ratio` below
//!   0.97), so that neither of the above can be told from noise;
//! * `unchanged` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::Res;

const MIN_RUNS: usize = 3;
const NOISY_CPU_WALL_RATIO: f64 = 0.97;

/// The untraced, full-size results of one side: workload → metric → values.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Workloads with at least one run flagged noisy.
    noisy: Vec<String>,
}

fn load(dir: &Path) -> Res<Side> {
    let mut side = Side::default();
    let mut files: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    for file in files {
        let doc = Json::parse(&std::fs::read_to_string(&file)?)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        let flag = |k: &str| doc.get(k).and_then(Json::as_bool).unwrap_or(false);
        if flag("quick") {
            return Err(
                format!("{}: a --quick result is not a measurement", file.display()).into(),
            );
        }
        if flag("trace") {
            continue;
        }
        if !flag("correct") {
            return Err(format!("{}: the run failed its checks", file.display()).into());
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("result without a workload")?
            .to_string();
        let ratio = doc.get("cpu_wall_ratio").and_then(Json::as_f64);
        if ratio.is_some_and(|r| r < NOISY_CPU_WALL_RATIO) && !side.noisy.contains(&workload) {
            side.noisy.push(workload.clone());
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no metrics", file.display()).into());
        };
        let per_metric = side.values.entry(workload).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without a value")?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(side)
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The end-to-end metrics of `BENCHMARK.json` with direction and bound.
fn bounds(benchmark_json: &str) -> Res<Vec<Bound>> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

/// The verdict on one metric of one workload.
fn verdict(parent: &[f64], change: &[f64], b: &Bound, noisy: bool) -> Verdict {
    if parent.len() < MIN_RUNS || change.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let Some([q1, pm, q3]) = quartiles(parent).filter(|q| q[1] != 0.0) else {
        return Verdict::Unresolved;
    };
    let spread = (q3 - q1) / pm.abs();
    // Positive when the change is worse, as a share of the parent's median.
    let sign = if b.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (median(change) - pm) / pm.abs();
    if noisy || spread > b.bound {
        Verdict::Unresolved
    } else if worse_by > b.bound {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:>14.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        None => format!("{:>14.4} n={}", median(values), values.len()),
    }
}

/// Returns whether no metric of no workload came out `worse`.
pub fn main(args: &[String]) -> Res<bool> {
    let [parent_dir, change_dir] = args else {
        return Err("usage: benchmark compare <parent results dir> <change results dir>".into());
    };
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = bounds(&std::fs::read_to_string(&spec)?)?;
    let parent = load(Path::new(parent_dir))?;
    let change = load(Path::new(change_dir))?;
    let mut ok = true;
    for (workload, metrics) in &parent.values {
        let noisy = parent.noisy.contains(workload) || change.noisy.contains(workload);
        println!(
            "== {workload}{}",
            if noisy {
                " (a run was flagged noisy)"
            } else {
                ""
            }
        );
        for b in &bounds {
            let none = Vec::new();
            let p = metrics.get(&b.name).unwrap_or(&none);
            let c = change
                .values
                .get(workload)
                .and_then(|m| m.get(&b.name))
                .unwrap_or(&none);
            let v = verdict(p, c, b, noisy);
            ok &= v != Verdict::Worse;
            println!(
                "{:<26} parent {}  change {}  bound {:>4.0}%  {}",
                b.name,
                summary(p),
                summary(c),
                b.bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let hi = b(false, 0.10);
        assert_eq!(
            verdict(&parent, &[100.0, 100.2, 99.9], &hi, false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&parent, &[85.0, 86.0, 84.0], &hi, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &[120.0, 121.0, 119.0], &hi, false),
            Verdict::Improved
        );
        // Lower is better: the same numbers read the other way round.
        let lo = b(true, 0.10);
        assert_eq!(
            verdict(&parent, &[85.0, 86.0, 84.0], &lo, false),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &[120.0, 121.0, 119.0], &lo, false),
            Verdict::Worse
        );
        // A parent noisier than the bound, a flagged run or too few runs
        // resolve nothing.
        let wild = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            verdict(&wild, &[50.0, 51.0, 49.0], &hi, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&parent, &[85.0, 86.0, 84.0], &hi, true),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&parent, &[85.0, 86.0], &hi, false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&parent[..2], &[85.0, 86.0, 84.0], &hi, false),
            Verdict::Unresolved
        );
    }
}
