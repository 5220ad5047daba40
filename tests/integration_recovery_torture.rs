//! Crash-during-recovery torture: nested crash chains scheduled *inside*
//! recovery itself, recursively to depth 3, across all three durability
//! backends and composed with media faults and capacity exhaustion.
//!
//! A chain is one workload crash `p0` followed by `k-1` crashes scheduled
//! at sampled fence/mid-epoch points of the recovery that follows — each
//! `restart_scheduled_traced(p_i)` call models one power cycle whose
//! recovery is itself cut down by the next scheduled point. After the
//! terminal recovery the harness checks the four crash-torture invariants
//! (committed-prefix durability, no uncommitted effects, allocator
//! leak-freedom, index↔table agreement) **plus convergence**: the chain
//! must land in exactly the logical state of the single-crash oracle run
//! (same seed, same `p0`, no nested crashes), because everything recovery
//! writes is either re-derivable or guarded by the monotone
//! recovery-progress word.
//!
//! Chain counts scale with `RECOVERY_TORTURE_SCENARIOS` (default 100 per
//! scenario class) and nesting with `RECOVERY_TORTURE_DEPTH` (default 3);
//! failures shrink to the smallest nested chain that still reproduces and
//! are written as replay artifacts under `results/`.

use hyrise_nv::torture::{
    apply_workload, check_invariants, crash_scenario, env_usize, gen_workload, setup, sim_config,
    traced_run, write_repro, Adversity, Recovered, TortureTxn, TortureViolation,
};
use hyrise_nv::DurabilityConfig;
use nvm::{CrashPoint, CrashSchedule};

/// Which NVM-backed durability mode a scenario class runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NvKind {
    /// Plain NVM: flush/fence ordering only, no shadow WAL.
    Plain,
    /// NVM primary plus shadow WAL (enables the full recovery ladder).
    WithWal,
}

/// Run one nested-crash chain (the shared scenario): workload crashed at
/// `p0`, then one power cycle per nested point, then a terminal recovery
/// and the four invariants; convergence is the caller's job (it needs the
/// oracle run).
fn run_chain(
    kind: NvKind,
    seed: u64,
    txns: &[TortureTxn],
    p0: CrashPoint,
    nested: &[CrashPoint],
    adversity: Adversity,
) -> Result<Recovered, TortureViolation> {
    let config = sim_config(kind == NvKind::WithWal);
    crash_scenario(config, seed, txns, p0, nested, adversity)
}

/// Reference run: how many fences does the recovery after `p0` issue?
/// Nested points are sampled from this budget; later recoveries of a chain may issue slightly more or
/// fewer, and an out-of-range fence simply degrades to a crash at the end
/// of a completed recovery.
fn recovery_fence_budget(
    kind: NvKind,
    seed: u64,
    txns: &[TortureTxn],
    p0: CrashPoint,
    adversity: Adversity,
) -> u64 {
    let config = sim_config(kind == NvKind::WithWal);
    let (mut db, _t, region, _snaps) = traced_run(config, seed, txns, adversity, Some(p0)).unwrap();
    db.restart_scheduled_traced(None).unwrap();
    region.trace_fences().max(1)
}

/// Workload-phase fence budget for `p0` sampling.
fn workload_fence_budget(
    kind: NvKind,
    seed: u64,
    txns: &[TortureTxn],
    adversity: Adversity,
) -> u64 {
    let config = sim_config(kind == NvKind::WithWal);
    let (_db, _t, region, _snaps) = traced_run(config, seed, txns, adversity, None).unwrap();
    let fences = region.trace_stop().unwrap().fences;
    assert!(fences > 0);
    fences
}

/// Replay artifact: seed, workload point, and the full nested chain, so a
/// failure reproduces with one targeted run.
fn write_chain_repro(
    class: &str,
    seed: u64,
    p0: CrashPoint,
    nested: &[CrashPoint],
    shrunk: &[CrashPoint],
    v: &TortureViolation,
) {
    write_repro(
        "recovery_torture_repro.jsonl",
        &format!("recovery_torture/{class}"),
        seed,
        &[
            ("workload_point", &format!("{p0:?}")),
            ("nested_chain", &format!("{nested:?}")),
            ("shrunk_chain", &format!("{shrunk:?}")),
            ("invariant", v.invariant),
            ("detail", &v.detail),
        ],
    );
}

/// Shrink a failing nested chain: first drop points from the tail (a
/// shorter chain that still fails is strictly more informative), then
/// lower the last surviving point to the smallest fence that reproduces.
fn shrink_chain(
    kind: NvKind,
    seed: u64,
    txns: &[TortureTxn],
    p0: CrashPoint,
    nested: &[CrashPoint],
    adversity: Adversity,
) -> (Vec<CrashPoint>, TortureViolation) {
    let mut chain: Vec<CrashPoint> = nested.to_vec();
    let mut last_v = None;
    while chain.len() > 1 {
        let shorter = &chain[..chain.len() - 1];
        match run_chain(kind, seed, txns, p0, shorter, adversity) {
            Err(v) => {
                chain.pop();
                last_v = Some(v);
            }
            Ok(_) => break,
        }
    }
    if let Some(last) = chain.last().copied() {
        let limit = last.trip_fence().min(24);
        for fence in 1..=limit {
            let mut candidate = chain.clone();
            *candidate.last_mut().unwrap() = CrashPoint::AtFence { fence };
            if let Err(v) = run_chain(kind, seed, txns, p0, &candidate, adversity) {
                return (candidate, v);
            }
        }
    }
    match last_v {
        Some(v) => (chain, v),
        None => {
            let v = run_chain(kind, seed, txns, p0, &chain, adversity)
                .err()
                .expect("failure must reproduce");
            (chain, v)
        }
    }
}

fn scenario_count() -> usize {
    env_usize("RECOVERY_TORTURE_SCENARIOS", 100)
}

fn max_depth() -> usize {
    env_usize("RECOVERY_TORTURE_DEPTH", 3).clamp(1, 3)
}

/// One scenario class: `chains` nested-crash chains against `kind`, with
/// nesting depth cycling 1..=max_depth and convergence checked against the
/// per-`p0` single-crash oracle.
fn torture_class(class: &'static str, kind: NvKind, adversity: Adversity, seed_base: u64) {
    let chains = scenario_count();
    let depth_cap = max_depth();
    let per_seed = 20usize;
    let nseeds = chains.div_ceil(per_seed).max(1);
    let mut run = 0usize;
    let mut attempts_seen = 0u64;
    let mut lints = 0usize;
    for s in 0..nseeds {
        if run >= chains {
            break;
        }
        let seed = seed_base.wrapping_add(s as u64 * 0x9E37_79B9);
        let txns = gen_workload(seed);
        let f_work = workload_fence_budget(kind, seed, &txns, adversity);
        let want = per_seed.min(chains - run);
        let p0s = CrashSchedule::sample(f_work, want, seed ^ 0xA4);
        // One recovery-fence reference run per workload seed: nested
        // points for all of this seed's chains are sampled from it.
        let f_rec = recovery_fence_budget(kind, seed, &txns, p0s[0], adversity);
        for (i, p0) in p0s.iter().enumerate() {
            // Depth cycles 1..=cap so every class covers plain re-entry
            // (depth 1 ≡ the oracle itself) through doubly nested chains.
            let depth = 1 + (run % depth_cap);
            let nested = if depth > 1 {
                CrashSchedule::sample(f_rec, depth - 1, seed ^ (i as u64) << 16)
            } else {
                Vec::new()
            };

            let oracle = run_chain(kind, seed, &txns, *p0, &[], adversity).unwrap_or_else(|v| {
                panic!(
                    "{class}: seed {seed:#x} {p0:?}: single-crash oracle run violated \
                     `{}`: {}",
                    v.invariant, v.detail
                )
            });
            match run_chain(kind, seed, &txns, *p0, &nested, adversity) {
                Ok(chain) => {
                    if chain.state != oracle.state
                        || chain.report.last_cts != oracle.report.last_cts
                    {
                        let v = TortureViolation {
                            invariant: "convergence",
                            detail: format!(
                                "seed {seed:#x}: chain (cts {}, {} rows) diverges from \
                                 single-crash oracle (cts {}, {} rows)",
                                chain.report.last_cts,
                                chain.state.len(),
                                oracle.report.last_cts,
                                oracle.state.len()
                            ),
                        };
                        write_chain_repro(class, seed, *p0, &nested, &nested, &v);
                        panic!(
                            "{class}: chain {run} {p0:?} + {nested:?}: {} — {}",
                            v.invariant, v.detail
                        );
                    }
                    attempts_seen = attempts_seen.max(chain.report.attempt);
                    lints += chain.report.lint_findings.len();
                }
                Err(_) => {
                    let (shrunk, v) = shrink_chain(kind, seed, &txns, *p0, &nested, adversity);
                    write_chain_repro(class, seed, *p0, &nested, &shrunk, &v);
                    panic!(
                        "{class}: chain {run} seed {seed:#x} {p0:?} + {nested:?}: invariant \
                         `{}` violated (shrunk to {shrunk:?}, repro written to \
                         results/recovery_torture_repro.jsonl): {}",
                        v.invariant, v.detail
                    );
                }
            }
            run += 1;
        }
    }
    eprintln!(
        "{class}: {run} chains converged (max recovery attempt #{attempts_seen}, \
         {lints} informational lint reads)"
    );
}

/// Depth-1..3 nested chains against NVM + shadow WAL — the full recovery
/// ladder (undo pass, poison retries, shadow re-baseline) re-entered under
/// arbitrary mid-recovery crashes.
#[test]
fn nested_chains_converge_nvm_with_wal() {
    torture_class(
        "nvm-with-wal",
        NvKind::WithWal,
        Adversity::None,
        0xA7_0001u64,
    );
}

/// Depth-1..3 nested chains against the plain NVM backend (no shadow WAL):
/// convergence must come from idempotent re-derivation alone.
#[test]
fn nested_chains_converge_plain_nvm() {
    torture_class("nvm-plain", NvKind::Plain, Adversity::None, 0xA7_0002u64);
}

/// Media-fault composition: the crash image carries a scribbled
/// checksummed extent, so every recovery of the chain must detect the
/// damage and climb the ladder — and a crash *inside* that repair must
/// still converge to the single-crash (same-fault) oracle.
#[test]
fn media_fault_chains_converge() {
    torture_class(
        "media-fault",
        NvKind::WithWal,
        Adversity::MediaFault,
        0xA7_0003u64,
    );
}

/// Exhaustion composition: the first post-crash recovery attempt hits a
/// one-shot allocation fault while repairing damaged media. The attempt
/// fails (or degrades) without panicking or leaking, and the next power
/// cycle retries to full convergence.
#[test]
fn failed_recovery_attempt_retries_to_convergence() {
    let chains = scenario_count().div_ceil(4).max(4);
    let mut retried = 0usize;
    for c in 0..chains {
        let seed = 0xA7_0004u64.wrapping_add(c as u64 * 0x9E37_79B9);
        let txns = gen_workload(seed);
        let f_work = workload_fence_budget(NvKind::WithWal, seed, &txns, Adversity::MediaFault);
        let p0 = CrashSchedule::sample(f_work, 1, seed ^ 0xA4)[0];

        let oracle = run_chain(NvKind::WithWal, seed, &txns, p0, &[], Adversity::MediaFault)
            .unwrap_or_else(|v| {
                panic!(
                    "seed {seed:#x}: media-fault oracle violated `{}`: {}",
                    v.invariant, v.detail
                )
            });
        // The chain takes the same crash and the same media damage, but
        // its first recovery attempt is cut down by the allocation fault;
        // `run_chain` retries via the terminal power cycle.
        let chain = run_chain(
            NvKind::WithWal,
            seed,
            &txns,
            p0,
            &[CrashPoint::AtFence { fence: u64::MAX }],
            Adversity::MediaFaultThenAllocFault,
        )
        .unwrap_or_else(|v| {
            panic!(
                "seed {seed:#x}: alloc-faulted chain violated `{}`: {}",
                v.invariant, v.detail
            )
        });
        assert_eq!(
            chain.state, oracle.state,
            "seed {seed:#x}: retried recovery diverges from the single-crash oracle"
        );
        assert_eq!(
            chain.report.last_cts, oracle.report.last_cts,
            "seed {seed:#x}"
        );
        if chain.report.attempt > 1 {
            retried += 1;
        }
    }
    eprintln!("alloc-fault composition: {retried}/{chains} chains recorded a re-entrant attempt");
}

/// WAL-backend class: file-based recovery durable-writes nothing until it
/// completes, so a crash at *any* point inside it is equivalent to a crash
/// at entry — chains of k power cycles are modeled as k repeated restarts
/// and must converge to the single-restart oracle.
#[test]
fn wal_backend_chains_converge_by_repeated_restart() {
    let chains = scenario_count();
    let depth_cap = max_depth();
    for c in 0..chains {
        let seed = 0xA7_0005u64.wrapping_add(c as u64 * 0x9E37_79B9);
        let txns = gen_workload(seed);
        let depth = 1 + (c % depth_cap);

        let run = |cycles: usize| {
            let (mut db, t) = setup(DurabilityConfig::wal_temp()).unwrap();
            let mut snaps = vec![Default::default()];
            apply_workload(&mut db, t, &txns, &mut snaps, |_, _| {}).unwrap();
            let mut last_cts = 0;
            for _ in 0..cycles {
                last_cts = db.restart_after_crash().unwrap().last_cts;
            }
            let got = check_invariants(&mut db, t, &snaps, last_cts, seed)
                .unwrap_or_else(|v| panic!("cycles {cycles}: `{}`: {}", v.invariant, v.detail));
            (got, last_cts)
        };

        let oracle = run(1);
        let chain = run(depth);
        assert_eq!(
            chain, oracle,
            "seed {seed:#x}: {depth} restarts diverge from a single restart"
        );
    }
}

/// Nested chains while the allocator is at the brim: the workload drives
/// the heap against a capacity clamp before crashing, so every recovery of
/// the chain re-enters against near-exhausted space.
#[test]
fn exhaustion_chains_converge() {
    let chains = scenario_count().div_ceil(4).max(4);
    let depth_cap = max_depth();
    for c in 0..chains {
        let seed = 0xA7_0006u64.wrapping_add(c as u64 * 0x9E37_79B9);
        let txns = gen_workload(seed);

        // Clamp the heap to just above its post-workload live size, then
        // crash: recovery runs with almost no free space.
        let clamp = {
            let (db, ..) =
                traced_run(sim_config(true), seed, &txns, Adversity::None, None).unwrap();
            let s = db.heap_stats().unwrap();
            (s.high_water - s.free_bytes) + 32 * 1024
        };

        // Not `crash_scenario`: the clamp lands between the workload and
        // the crash, so every recovery — not the workload — runs at the brim.
        let run = |nested: &[CrashPoint]| {
            let (mut db, t, region, snaps) =
                traced_run(sim_config(true), seed, &txns, Adversity::None, None).unwrap();
            db.set_capacity_clamp(Some(clamp)).unwrap();
            region
                .arm_crash(CrashPoint::AtFence { fence: u64::MAX })
                .unwrap();
            for p in nested {
                db.restart_scheduled_traced(Some(*p))
                    .unwrap_or_else(|e| panic!("seed {seed:#x}: brim recovery failed: {e}"));
            }
            let last_cts = db
                .restart_scheduled()
                .unwrap_or_else(|e| panic!("seed {seed:#x}: brim recovery failed: {e}"))
                .last_cts;
            let state = check_invariants(&mut db, t, &snaps, last_cts, seed)
                .unwrap_or_else(|v| panic!("brim chain: `{}`: {}", v.invariant, v.detail));
            (state, last_cts)
        };

        let oracle = run(&[]);
        let depth = 1 + (c % depth_cap);
        let nested: Vec<CrashPoint> = (0..depth - 1)
            .map(|i| CrashPoint::AtFence {
                fence: 1 + (seed >> (8 * i)) % 8,
            })
            .collect();
        assert_eq!(
            run(&nested),
            oracle,
            "seed {seed:#x}: brim chain diverges from single-crash oracle"
        );
    }
}
