//! Out-of-process torture child: runs a seeded deterministic workload
//! against a file-backed database so a parent test can SIGKILL it at
//! randomized points — including mid-recovery — and then reopen the file
//! itself to verify the crash invariants.
//!
//! Protocol (one line per event on stdout, flushed eagerly):
//!
//! - `HB <txn_index> <last_cts>` — heartbeat after every transaction.
//! - `FENCES <n>` — fences issued by the workload (after it completes).
//! - `WAITING` — idle loop entered (`--wait-term`), safe to SIGTERM.
//! - `RECOVERED last_cts=<c> clean=<0|1> attempt=<a> rung=<r> undo=<0|1>`
//!   — recover mode succeeded.
//! - `CLEAN <last_cts>` — graceful shutdown completed.
//! - `ERR <detail>` — any engine error (exit code 3).
//!
//! Kill points: `--kill-fence N` arms a process-wide SIGKILL at the Nth
//! fence after setup (create mode) or before open (recover mode);
//! `--kill-after-txns N` raises SIGKILL right after the Nth transaction.
//! Without either, the child runs to completion and (unless `--hard-exit`)
//! shuts down cleanly.

use std::io::Write as _;
use std::path::PathBuf;

use hyrise_nv::torture::{apply_workload, gen_workload, setup, Oracle};
use hyrise_nv::{Database, DurabilityConfig};
use nvm::{arm_kill_at_fence, install_sigterm_hook, raise_sigkill, sigterm_seen, LatencyModel};

struct Args {
    path: PathBuf,
    seed: u64,
    capacity: u64,
    recover: bool,
    kill_fence: Option<u64>,
    kill_after_txns: Option<usize>,
    wait_term: bool,
    hard_exit: bool,
    graceful: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: torture_child --path FILE --seed N [--capacity BYTES] [--recover] \
         [--kill-fence N] [--kill-after-txns N] [--wait-term] [--hard-exit] [--graceful]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        path: PathBuf::new(),
        seed: 0,
        capacity: 4 << 20,
        recover: false,
        kill_fence: None,
        kill_after_txns: None,
        wait_term: false,
        hard_exit: false,
        graceful: false,
    };
    let mut it = std::env::args().skip(1);
    let mut have_path = false;
    let mut have_seed = false;
    while let Some(a) = it.next() {
        let val = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--path" => {
                args.path = PathBuf::from(val(&mut it));
                have_path = true;
            }
            "--seed" => {
                args.seed = val(&mut it).parse().unwrap_or_else(|_| usage());
                have_seed = true;
            }
            "--capacity" => args.capacity = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--recover" => args.recover = true,
            "--kill-fence" => {
                args.kill_fence = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--kill-after-txns" => {
                args.kill_after_txns = Some(val(&mut it).parse().unwrap_or_else(|_| usage()))
            }
            "--wait-term" => args.wait_term = true,
            "--hard-exit" => args.hard_exit = true,
            "--graceful" => args.graceful = true,
            _ => usage(),
        }
    }
    if !have_path || !have_seed {
        usage();
    }
    args
}

fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn fail(e: impl std::fmt::Display) -> ! {
    emit(&format!("ERR {e}"));
    std::process::exit(3);
}

fn config(args: &Args) -> DurabilityConfig {
    DurabilityConfig::nvm_file(&args.path, args.capacity, LatencyModel::zero())
}

/// Recover mode: reopen an existing image, optionally dying mid-recovery.
fn run_recover(args: &Args) -> ! {
    if let Some(n) = args.kill_fence {
        arm_kill_at_fence(n);
    }
    let (db, report) = match Database::open(config(args)) {
        Ok(v) => v,
        Err(e) => fail(e),
    };
    arm_kill_at_fence(0);
    let undo = report.phases.iter().any(|p| p.name == "mvcc undo pass");
    emit(&format!(
        "RECOVERED last_cts={} clean={} attempt={} rung={} undo={}",
        report.last_cts, report.clean_shutdown as u8, report.attempt, report.rung, undo as u8
    ));
    if args.graceful {
        let last = report.last_cts;
        if let Err(e) = db.shutdown() {
            fail(e);
        }
        emit(&format!("CLEAN {last}"));
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    install_sigterm_hook();
    if args.recover {
        run_recover(&args);
    }

    let (mut db, t) = match setup(config(&args)) {
        Ok(v) => v,
        Err(e) => fail(e),
    };

    let txns = gen_workload(args.seed);
    let region = match db.nv_backend() {
        Some(b) => b.region().clone(),
        None => fail("no NVM backend on file-backed config"),
    };
    let fences_before = region.stats().fences;
    if let Some(n) = args.kill_fence {
        arm_kill_at_fence(n);
    }

    // One transaction at a time so SIGTERM between transactions can take
    // the graceful path mid-workload, and txn-boundary kills are exact.
    let mut snaps: Vec<(u64, Oracle)> = vec![(0, Oracle::new())];
    for (i, txn) in txns.iter().enumerate() {
        if sigterm_seen() {
            break;
        }
        if let Err(e) = apply_workload(
            &mut db,
            t,
            std::slice::from_ref(txn),
            &mut snaps,
            |_, cts| emit(&format!("HB {i} {cts}")),
        ) {
            fail(e);
        }
        if args.kill_after_txns == Some(i + 1) {
            raise_sigkill();
        }
    }
    arm_kill_at_fence(0);
    emit(&format!("FENCES {}", region.stats().fences - fences_before));

    if args.wait_term {
        while !sigterm_seen() {
            emit("WAITING");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
    if args.hard_exit {
        raise_sigkill();
    }
    let last = snaps.last().map(|(c, _)| *c).unwrap_or(0);
    if let Err(e) = db.shutdown() {
        fail(e);
    }
    emit(&format!("CLEAN {last}"));
    std::process::exit(0);
}
