//! The one repetition harness: what every experiment shares — `--quick`
//! scaling, one warm-up plus a fixed number of measured repetitions on fresh
//! state, median / p5 / p95 of every wall-clock cell, and result emission.

use std::cell::Cell;
use std::path::Path;
use std::time::Instant;

use crate::results::{render_table, write_json};

pub use crate::results::Row;

/// Median and spread of one wall-clock cell over `n` repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// 50th percentile.
    pub median: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Samples behind the three values.
    pub n: usize,
}

impl Stat {
    /// Summarize `samples`; fewer than `required` is an error, so a cell can
    /// never silently rest on a single run.
    pub fn of(samples: &[f64], required: usize) -> Result<Stat, String> {
        if samples.len() < required {
            return Err(format!(
                "{} repetitions measured, {required} required",
                samples.len()
            ));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Stat {
            median: percentile(&sorted, 0.50),
            p5: percentile(&sorted, 0.05),
            p95: percentile(&sorted, 0.95),
            n: sorted.len(),
        })
    }
}

/// Percentile of a sorted, non-empty sample by linear interpolation between
/// the two nearest ranks.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One experiment of the registry.
pub struct Experiment {
    /// Subcommand and `results/<name>.jsonl` stem.
    pub name: &'static str,
    /// Body: measures through the [`Run`], tabulates into it, and reports
    /// every verdict it enforces through [`Run::fail`].
    pub run: fn(&mut Run),
}

/// What an experiment body sees of the harness.
#[derive(Default)]
pub struct Run {
    quick: bool,
    rows: Vec<Row>,
    failures: Cell<u64>,
}

impl Run {
    /// `full` on a full run, `quick` under `--quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Measured repetitions per wall-clock cell: 5, or 3 under `--quick`.
    pub fn reps(&self) -> usize {
        self.pick(5, 3)
    }

    /// Run `rep` once as a warm-up and then [`Run::reps`] times, each on the
    /// fresh state it builds itself. Returns the last repetition's rows with
    /// every wall-clock sample turned into cells summarizing it over all
    /// measured repetitions (after the row's other cells); counts and
    /// verdicts are the last repetition's. A failing repetition, or a cell
    /// some repetition did not sample, is a failed verdict and yields no rows.
    pub fn measure(&self, rep: impl FnMut() -> Result<Vec<Row>, String>) -> Vec<Row> {
        self.summarize(rep).unwrap_or_else(|e| {
            self.fail(e);
            Vec::new()
        })
    }

    fn summarize(
        &self,
        mut rep: impl FnMut() -> Result<Vec<Row>, String>,
    ) -> Result<Vec<Row>, String> {
        rep()?;
        let mut runs = (0..self.reps())
            .map(|_| rep())
            .collect::<Result<Vec<_>, _>>()?;
        let last = runs.pop().unwrap_or_default();
        let summary_of = |(i, mut row): (usize, Row)| {
            for (key, value, decimals) in std::mem::take(&mut row.samples) {
                // The same cell of the same row in the earlier repetitions.
                let earlier = runs.iter().filter_map(|r| {
                    let mut samples = r.get(i)?.samples.iter();
                    samples.find(|s| s.0 == key).map(|s| s.1)
                });
                let samples: Vec<f64> = earlier.chain([value]).collect();
                let stat = Stat::of(&samples, self.reps()).map_err(|e| format!("{key}: {e}"))?;
                row = row.stat(&key, &stat, decimals);
            }
            Ok(row)
        };
        last.into_iter().enumerate().map(summary_of).collect()
    }

    /// Print a finished table and keep its rows for the results file.
    pub fn table(&mut self, title: &str, rows: Vec<Row>) {
        let measured = rows.iter().all(|r| r.samples.is_empty());
        assert!(measured, "wall-clock sample tabulated without Run::measure");
        print!("{}", render_table(title, &rows));
        self.rows.extend(rows);
    }

    /// Record a failed verdict. The experiment goes on — its tables show
    /// what else it measured — and fails when its body returns.
    pub fn fail(&self, what: impl std::fmt::Display) {
        eprintln!("FAILED: {what}");
        self.failures.set(self.failures.get() + 1);
    }
}

/// Run one experiment. Only a full run without a failed verdict replaces
/// `<results_dir>/<name>.jsonl`: `--quick` and failed runs leave the
/// committed results alone.
pub fn run_experiment(exp: &Experiment, quick: bool, results_dir: &Path) -> Result<(), String> {
    let mut run = Run {
        quick,
        ..Run::default()
    };
    (exp.run)(&mut run);
    match run.failures.get() {
        0 if quick => Ok(()),
        0 => write_json(results_dir, exp.name, &run.rows)
            .map_err(|e| format!("could not write results for {}: {e}", exp.name)),
        n => Err(format!("{n} failed verdicts (over all repetitions)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(quick: bool) -> Run {
        Run {
            quick,
            ..Run::default()
        }
    }

    #[test]
    fn stat_of_known_samples() {
        // Order must not matter; ranks 0.2 / 2 / 3.8 of five samples.
        let s = Stat::of(&[50.0, 10.0, 40.0, 20.0, 30.0], 5).unwrap();
        assert_eq!((s.median, s.n), (30.0, 5));
        assert!((s.p5 - 12.0).abs() < 1e-9 && (s.p95 - 48.0).abs() < 1e-9);
        let s = Stat::of(&[3.0, 1.0, 2.0], 3).unwrap();
        assert_eq!(s.median, 2.0);
        assert!((s.p5 - 1.1).abs() < 1e-9 && (s.p95 - 2.9).abs() < 1e-9);
        let s = Stat::of(&[7.0; 5], 5).unwrap();
        assert_eq!((s.p5, s.median, s.p95), (7.0, 7.0, 7.0));
    }

    #[test]
    fn too_few_repetitions_is_an_error() {
        assert!(Stat::of(&[1.0], 3).is_err());
        assert!(Stat::of(&[], 1).is_err());
        // A repetition that lacks a cell the last one has starves that cell
        // instead of shrinking its sample.
        let mut calls = 0;
        let ragged = run(true).summarize(|| {
            calls += 1;
            let row = Row::new().wall("a_ms", 1.0, 1);
            Ok(vec![if calls == 2 {
                row
            } else {
                row.wall("b_ms", 2.0, 1)
            }])
        });
        assert_eq!(
            ragged.unwrap_err(),
            "b_ms: 2 repetitions measured, 3 required"
        );
    }

    #[test]
    fn measure_warms_up_once_and_repeats() {
        for (quick, reps) in [(false, 5), (true, 3)] {
            let mut calls = 0;
            let sample = |calls: usize| Row::new().with("call", calls).wall("ms", calls as f64, 1);
            let rows = run(quick).summarize(|| {
                calls += 1;
                Ok(vec![sample(calls)])
            });
            assert_eq!(calls, reps + 1);
            // Counts are the last repetition's; the warm-up's sample (1.0)
            // is discarded, so the measured samples are 2.0 ..= reps + 1.
            let expected = Row::new().with("call", calls).stat(
                "ms",
                &Stat::of(&(2..=calls).map(|c| c as f64).collect::<Vec<_>>(), reps).unwrap(),
                1,
            );
            assert_eq!(rows.unwrap(), [expected]);
        }
    }

    #[test]
    fn only_full_successful_runs_write_results() {
        fn passing(run: &mut Run) {
            run.table("t", vec![Row::new().with("a", run.pick("full", "quick"))]);
        }
        fn unmeasurable(run: &mut Run) {
            passing(run);
            let rows = run.measure(|| Err("recovered 3 rows, expected 4".into()));
            assert!(rows.is_empty());
        }
        fn failed_verdict(run: &mut Run) {
            run.fail("1 violation");
            passing(run);
        }
        let dir = std::env::temp_dir().join(format!("bench-harness-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = dir.join("x.jsonl");
        let go = |run, quick| run_experiment(&Experiment { name: "x", run }, quick, &dir);
        go(passing, true).unwrap();
        assert!(!file.exists(), "--quick must not write results");
        go(passing, false).unwrap();
        go(passing, false).unwrap(); // replaces the file, does not append
        assert_eq!(
            std::fs::read_to_string(&file).unwrap(),
            "{\"a\":\"full\"}\n"
        );
        assert!(go(unmeasurable, false).is_err() && go(failed_verdict, false).is_err());
        assert!(go(unmeasurable, true).is_err() && go(failed_verdict, true).is_err());
        assert_eq!(
            std::fs::read_to_string(&file).unwrap(),
            "{\"a\":\"full\"}\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
