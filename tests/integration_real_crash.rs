//! Out-of-process kill(-9) crash torture: a parent test spawns the
//! `torture_child` binary against a file-backed (`MAP_SHARED` mmap)
//! database, SIGKILLs it at randomized points — exact fence boundaries,
//! transaction boundaries, asynchronous heartbeat-paced instants, and
//! mid-recovery (chained to depth 3) — then reopens the file **in the
//! parent**, runs the recovery ladder, and checks the four crash-torture
//! invariants plus a sim-vs-real conformance pass:
//!
//! 1. committed-prefix durability, 2. no uncommitted effects,
//!    3. allocator leak-freedom, 4. index↔table agreement (see
//!    `hyrise_nv::torture`), and
//! 5. **conformance** — replaying the same seeded schedule on the
//!    simulated backend with `CrashPoint::AtFence` at the same fence must
//!    recover a committed prefix that is a subset (≤ `last_cts`) of what
//!    the real kill preserved: a real `kill -9` keeps every store in the
//!    kernel page cache, while the simulator adversarially drops unflushed
//!    lines, so sim survivors lower-bound real survivors.
//!
//! The SIGTERM scenarios assert the graceful-shutdown distinction: a
//! terminated child takes the clean path, and the reopened database skips
//! the MVCC undo pass entirely (`clean_shutdown == true`); a SIGKILLed
//! child never does.
//!
//! Scenario count scales with `REAL_CRASH_SCENARIOS` (default ≥ 100 kills);
//! failures append a bounded repro line to `results/real_crash_repro.jsonl`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use hyrise_nv::torture::{
    check_invariants, crash_scenario, env_usize, gen_workload, traced_run, write_repro, Adversity,
    Ledger, Oracle, TortureTxn, TortureViolation,
};
use hyrise_nv::{Database, DurabilityConfig, RecoveryReport};
use nvm::{send_sigterm, CrashPoint, LatencyModel};
use util::rng::{Rng, SmallRng};

const CAPACITY: u64 = 4 << 20;

fn child_bin() -> &'static str {
    env!("CARGO_BIN_EXE_torture_child")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("real-crash-{}-{tag}.img", std::process::id()))
}

fn file_config(path: &Path) -> DurabilityConfig {
    DurabilityConfig::nvm_file(path, CAPACITY, LatencyModel::zero())
}

/// What the child process reported before it ended.
#[derive(Debug, Default)]
struct ChildLog {
    heartbeats: Vec<(usize, u64)>,
    workload_fences: Option<u64>,
    recovered: Option<(u64, bool, u64, bool)>, // (last_cts, clean, attempt, undo)
    clean_cts: Option<u64>,
    err: Option<String>,
}

fn parse_line(log: &mut ChildLog, line: &str) {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("HB") => {
            let i = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            let c = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            log.heartbeats.push((i, c));
        }
        Some("FENCES") => log.workload_fences = parts.next().and_then(|s| s.parse().ok()),
        Some("RECOVERED") => {
            let get = |key: &str| -> u64 {
                line.split_whitespace()
                    .find_map(|p| p.strip_prefix(key))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            };
            log.recovered = Some((
                get("last_cts="),
                get("clean=") == 1,
                get("attempt="),
                get("undo=") == 1,
            ));
        }
        Some("CLEAN") => log.clean_cts = parts.next().and_then(|s| s.parse().ok()),
        Some("ERR") => log.err = Some(line.to_string()),
        _ => {}
    }
}

/// Spawn the child with `extra` args, drain its stdout, wait for exit.
/// Returns the parsed log plus whether SIGKILL ended it.
fn run_child(path: &Path, seed: u64, extra: &[String]) -> (ChildLog, bool) {
    let mut child = spawn_child(path, seed, extra);
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut log = ChildLog::default();
    for line in BufReader::new(stdout).lines().map_while(|l| l.ok()) {
        parse_line(&mut log, &line);
    }
    let status = child.wait().expect("child wait");
    let killed = status.signal() == Some(9);
    assert!(log.err.is_none(), "child error: {:?}", log.err);
    (log, killed)
}

fn spawn_child(path: &Path, seed: u64, extra: &[String]) -> Child {
    Command::new(child_bin())
        .arg("--path")
        .arg(path)
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--capacity")
        .arg(CAPACITY.to_string())
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn torture_child")
}

fn sargs(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// The simulated twin of the child's device: same capacity, so the engine
/// issues the same persist sequence on both.
fn sim_twin() -> DurabilityConfig {
    DurabilityConfig::nvm(CAPACITY, LatencyModel::zero())
}

/// Full no-crash run on the simulated backend: the commit ledger the parent
/// uses as oracle, plus the number of fences the workload issues (identical
/// across backends — the engine's persist sequence is deterministic).
fn sim_reference(seed: u64, txns: &[TortureTxn]) -> (Ledger, u64) {
    let (_db, _t, region, snaps) =
        traced_run(sim_twin(), seed, txns, Adversity::None, None).unwrap();
    (snaps, region.trace_stop().unwrap().fences)
}

/// Conformance replay: the crash-torture scenario on the simulated twin
/// with a scheduled crash at `fence` (invariants are checked inside).
fn sim_crash_at_fence(seed: u64, txns: &[TortureTxn], fence: u64) -> RecoveryReport {
    let point = CrashPoint::AtFence { fence };
    match crash_scenario(sim_twin(), seed, txns, point, &[], Adversity::None) {
        Ok(rec) => rec.report,
        Err(v) => panic!(
            "sim conformance replay violated `{}`: {}",
            v.invariant, v.detail
        ),
    }
}

/// Reopen the killed child's file in the parent and verify everything.
fn reopen_and_verify(
    path: &Path,
    seed: u64,
    snaps: &[(u64, Oracle)],
) -> Result<RecoveryReport, TortureViolation> {
    let (mut db, report) = Database::open(file_config(path)).map_err(|e| TortureViolation {
        invariant: "recovery",
        detail: format!("seed {seed}: reopen failed: {e}"),
    })?;
    let t = db.table_id("t").ok_or_else(|| TortureViolation {
        invariant: "recovery",
        detail: format!("seed {seed}: table `t` missing after reopen"),
    })?;
    check_invariants(&mut db, t, snaps, report.last_cts, seed)?;
    Ok(report)
}

fn verify_or_die(
    path: &Path,
    seed: u64,
    snaps: &[(u64, Oracle)],
    scenario: &str,
) -> RecoveryReport {
    match reopen_and_verify(path, seed, snaps) {
        Ok(r) => r,
        Err(v) => {
            write_repro(
                "real_crash_repro.jsonl",
                "real_crash",
                seed,
                &[
                    ("scenario", scenario),
                    ("invariant", v.invariant),
                    ("detail", &v.detail),
                ],
            );
            panic!(
                "seed {seed:#x} scenario `{scenario}`: invariant `{}` violated (repro \
                 written to results/real_crash_repro.jsonl): {}",
                v.invariant, v.detail
            );
        }
    }
}

/// Measure how many fences a recovery of `path`'s current image issues —
/// and how many of them the allocator's redo issues before the recovery
/// attempt is even counted — by recovering a throwaway copy in-process. The
/// copy's recovery mutates only the copy, so the real image stays exactly
/// as the kill left it.
fn recovery_fences(path: &Path, tag: &str) -> (u64, u64) {
    let copy = scratch(&format!("{tag}-probe"));
    std::fs::copy(path, &copy).expect("copy image for fence probe");
    let (db, report) = Database::open(file_config(&copy)).expect("probe recovery");
    let fences = db.nv_backend().unwrap().region().stats().fences;
    drop(db);
    let _ = std::fs::remove_file(&copy);
    (fences, report.phases[0].persist.fences)
}

/// The main torture loop: ≥ `REAL_CRASH_SCENARIOS` (default 100) real
/// SIGKILLs across four scenario families, every one followed by an
/// in-parent reopen + four-invariant check, deterministic-fence kills also
/// cross-checked against the simulated backend.
#[test]
fn real_kill_scenarios_uphold_invariants() {
    let target = env_usize("REAL_CRASH_SCENARIOS", 100);
    let seeds: Vec<u64> = (0..6).map(|i| 0x4EA1_0C11u64 ^ (i << 8)).collect();
    let mut kills = 0usize;

    // Family A: deterministic fence kills + sim conformance + determinism.
    let per_seed = ((target * 55 / 100) / seeds.len()).max(2);
    for &seed in &seeds {
        let txns = gen_workload(seed);
        let (snaps, fences) = sim_reference(seed, &txns);
        assert!(fences > 2, "workload issues too few fences");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFE);
        let mut fence_points: Vec<u64> = (0..per_seed)
            .map(|_| rng.gen_range_u64(1, fences + 1))
            .collect();
        fence_points.push(1);
        fence_points.push(fences);
        let mut first_result: BTreeMap<u64, u64> = BTreeMap::new();
        for (pi, &fence) in fence_points.iter().enumerate() {
            let scenario = format!("fence-kill@{fence}");
            let path = scratch(&format!("a-{seed:x}-{pi}"));
            let _ = std::fs::remove_file(&path);
            let (_log, killed) =
                run_child(&path, seed, &sargs(&["--kill-fence", &fence.to_string()]));
            assert!(killed, "seed {seed:#x}: child survived armed fence {fence}");
            kills += 1;
            let report = verify_or_die(&path, seed, &snaps, &scenario);
            assert!(!report.clean_shutdown, "hard kill must not look clean");
            assert!(
                report.phases.iter().any(|p| p.name == "mvcc undo pass"),
                "hard kill must run the undo pass"
            );

            // Conformance: the sim's adversarial crash at the same fence
            // recovers a prefix no newer than what the real kill preserved.
            let sim = sim_crash_at_fence(seed, &txns, fence);
            assert!(
                sim.last_cts <= report.last_cts,
                "seed {seed:#x} fence {fence}: sim recovered cts {} beyond real {}",
                sim.last_cts,
                report.last_cts
            );
            assert!(!sim.clean_shutdown);

            // Determinism: same seed + same fence ⇒ same recovered
            // watermark on the real backend.
            if let Some(&prev) = first_result.get(&fence) {
                assert_eq!(
                    prev, report.last_cts,
                    "seed {seed:#x} fence {fence}: real recovery not deterministic"
                );
            }
            first_result.insert(fence, report.last_cts);
            let _ = std::fs::remove_file(&path);
        }
    }

    // Family B: transaction-boundary kills — everything up to and including
    // the last heartbeat's commit must be durable, and nothing newer exists.
    let per_seed_b = ((target * 10 / 100) / 2).max(2);
    for &seed in &seeds[..2] {
        let txns = gen_workload(seed);
        let (snaps, _) = sim_reference(seed, &txns);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB0);
        for pi in 0..per_seed_b {
            let n = rng.gen_range_usize(1, txns.len().max(2));
            let scenario = format!("txn-kill@{n}");
            let path = scratch(&format!("b-{seed:x}-{pi}"));
            let _ = std::fs::remove_file(&path);
            let (log, killed) =
                run_child(&path, seed, &sargs(&["--kill-after-txns", &n.to_string()]));
            assert!(killed, "seed {seed:#x}: child survived txn kill at {n}");
            kills += 1;
            let hb_cts = log.heartbeats.last().map(|(_, c)| *c).unwrap_or(0);
            let report = verify_or_die(&path, seed, &snaps, &scenario);
            assert_eq!(
                report.last_cts, hb_cts,
                "seed {seed:#x}: kill at idle txn boundary {n} must preserve exactly \
                 the heartbeated prefix"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    // Family C: asynchronous parent-timed kills — the parent SIGKILLs after
    // observing the K-th heartbeat, so commits it saw must survive.
    let per_seed_c = ((target * 20 / 100) / 3).max(2);
    for &seed in &seeds[..3] {
        let txns = gen_workload(seed);
        let (snaps, _) = sim_reference(seed, &txns);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0);
        for pi in 0..per_seed_c {
            let k = rng.gen_range_usize(1, txns.len().max(2));
            let scenario = format!("async-kill@hb{k}");
            let path = scratch(&format!("c-{seed:x}-{pi}"));
            let _ = std::fs::remove_file(&path);
            let mut child = spawn_child(&path, seed, &sargs(&["--wait-term"]));
            let stdout = child.stdout.take().expect("stdout");
            let mut log = ChildLog::default();
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut seen = 0usize;
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let l = line.trim();
                parse_line(&mut log, l);
                if l.starts_with("HB") {
                    seen += 1;
                    if seen >= k {
                        break;
                    }
                }
                if l.starts_with("WAITING") {
                    break;
                }
            }
            child.kill().expect("SIGKILL child");
            let status = child.wait().expect("wait");
            assert_eq!(status.signal(), Some(9));
            kills += 1;
            let hb_cts = log.heartbeats.last().map(|(_, c)| *c).unwrap_or(0);
            let report = verify_or_die(&path, seed, &snaps, &scenario);
            assert!(
                report.last_cts >= hb_cts,
                "seed {seed:#x}: commit {hb_cts} was heartbeated before the kill but \
                 recovery only reached {}",
                report.last_cts
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    // Family D: mid-recovery kills chained to depth 3 — recovery itself is
    // killed, its re-entrant successor is killed, and so on; the final
    // attempt must still satisfy every invariant.
    let chains = (target / 16).max(2);
    for ci in 0..chains {
        let seed = seeds[ci % seeds.len()];
        let txns = gen_workload(seed);
        let (snaps, fences) = sim_reference(seed, &txns);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD0 ^ (ci as u64) << 16);
        let path = scratch(&format!("d-{seed:x}-{ci}"));
        let _ = std::fs::remove_file(&path);
        let f0 = rng.gen_range_u64(1, fences + 1);
        let (_log, killed) = run_child(&path, seed, &sargs(&["--kill-fence", &f0.to_string()]));
        assert!(killed, "chain {ci}: workload kill at fence {f0} missed");
        kills += 1;
        for depth in 1..=3u64 {
            let (rec_fences, before_bump) =
                recovery_fences(&path, &format!("d-{seed:x}-{ci}-{depth}"));
            if rec_fences == 0 {
                break;
            }
            // Kill inside the first half of recovery: past the attempt
            // bump — the first fence after the allocator's redo of a
            // half-done allocation, which a kill would only repeat — but
            // before the finishing reset (which precedes only the final
            // fence) — otherwise the "recovery" was effectively complete
            // and the chain would not actually re-enter.
            let bump = before_bump + 1;
            let rf = rng.gen_range_u64(bump, (rec_fences / 2).max(bump) + 1);
            let (_log, killed) = run_child(
                &path,
                seed,
                &sargs(&["--recover", "--kill-fence", &rf.to_string()]),
            );
            assert!(
                killed,
                "chain {ci} depth {depth}: recovery survived armed fence {rf}/{rec_fences}"
            );
            kills += 1;
        }
        let scenario = format!("recovery-chain@{f0}");
        let report = verify_or_die(&path, seed, &snaps, &scenario);
        assert!(
            report.attempt >= 2,
            "chain {ci}: final recovery should observe earlier interrupted attempts \
             (attempt={})",
            report.attempt
        );
        assert!(!report.clean_shutdown);
        let _ = std::fs::remove_file(&path);
    }

    assert!(
        kills >= target,
        "only {kills} kill scenarios ran (target {target})"
    );
    eprintln!("real-crash torture: {kills} kill(-9) scenarios survived");
}

/// SIGTERM vs SIGKILL: a terminated child shuts down cleanly, the reopened
/// database reports `clean_shutdown` and skips the MVCC undo pass — and the
/// marker is strictly one-shot.
#[test]
fn sigterm_takes_the_clean_path_and_skips_undo() {
    for seed in [0x51C7E21Au64, 0x51C7E21Bu64] {
        let txns = gen_workload(seed);
        let (snaps, _) = sim_reference(seed, &txns);
        let full = snaps.last().unwrap().0;
        let path = scratch(&format!("term-{seed:x}"));
        let _ = std::fs::remove_file(&path);

        let mut child = spawn_child(&path, seed, &sargs(&["--wait-term"]));
        let stdout = child.stdout.take().expect("stdout");
        let mut reader = BufReader::new(stdout);
        let mut log = ChildLog::default();
        let mut line = String::new();
        // Wait until the workload is done and the child is idling.
        loop {
            line.clear();
            assert!(
                reader.read_line(&mut line).unwrap_or(0) > 0,
                "child ended before WAITING"
            );
            parse_line(&mut log, line.trim());
            if line.starts_with("WAITING") {
                break;
            }
        }
        assert!(send_sigterm(child.id()), "SIGTERM delivery failed");
        for l in reader.lines().map_while(|l| l.ok()) {
            parse_line(&mut log, &l);
        }
        let status = child.wait().expect("wait");
        assert!(
            status.success(),
            "SIGTERM child must exit 0, got {status:?}"
        );
        assert_eq!(
            log.clean_cts,
            Some(full),
            "clean shutdown after full workload"
        );

        // Reopen: clean marker honoured, undo pass skipped.
        let report = verify_or_die(&path, seed, &snaps, "sigterm-clean");
        assert!(report.clean_shutdown, "marker must be visible on reopen");
        assert!(
            !report.phases.iter().any(|p| p.name == "mvcc undo pass"),
            "clean restart must skip the undo pass, phases: {:?}",
            report.phases.iter().map(|p| p.name).collect::<Vec<_>>()
        );
        assert_eq!(report.last_cts, full);

        // The marker is one-shot: that reopen consumed it without writing a
        // new one, so the next reopen is a crash-style restart again.
        let report2 = verify_or_die(&path, seed, &snaps, "sigterm-reopen");
        assert!(
            !report2.clean_shutdown,
            "clean marker must not survive into the run it admitted"
        );
        assert!(report2.phases.iter().any(|p| p.name == "mvcc undo pass"));
        let _ = std::fs::remove_file(&path);
    }
}

/// A child that finishes its workload and dies hard while idle: everything
/// is durable, but the restart is still a crash restart (no clean marker).
#[test]
fn idle_hard_exit_is_not_clean() {
    let seed = 0x1D7Eu64;
    let txns = gen_workload(seed);
    let (snaps, _) = sim_reference(seed, &txns);
    let path = scratch("hard-exit");
    let _ = std::fs::remove_file(&path);
    let (log, killed) = run_child(&path, seed, &sargs(&["--hard-exit"]));
    assert!(killed);
    let hb_cts = log.heartbeats.last().map(|(_, c)| *c).unwrap_or(0);
    assert_eq!(
        hb_cts,
        snaps.last().unwrap().0,
        "workload ran to completion"
    );
    let report = verify_or_die(&path, seed, &snaps, "idle-hard-exit");
    assert!(!report.clean_shutdown);
    assert_eq!(report.last_cts, hb_cts);
    assert!(report.phases.iter().any(|p| p.name == "mvcc undo pass"));
    let _ = std::fs::remove_file(&path);
}

/// Same seed, no crash, both backends: the file-backed engine and the
/// simulator agree on the full commit ledger and final state.
#[test]
fn clean_runs_conform_between_sim_and_real() {
    let seed = 0xC0F0u64;
    let txns = gen_workload(seed);
    let (snaps, _) = sim_reference(seed, &txns);
    let path = scratch("conform");
    let _ = std::fs::remove_file(&path);
    let (log, killed) = run_child(&path, seed, &[]);
    assert!(!killed, "no kill was armed");
    assert_eq!(
        log.clean_cts,
        Some(snaps.last().unwrap().0),
        "real backend's final cts must match the sim ledger"
    );
    let report = verify_or_die(&path, seed, &snaps, "clean-conform");
    assert!(report.clean_shutdown);
    let _ = std::fs::remove_file(&path);
}
