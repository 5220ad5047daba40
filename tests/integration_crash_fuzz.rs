//! Randomized crash-consistency fuzzing.
//!
//! Seeded random operation sequences run against the engine alongside an
//! in-memory oracle. A crash is injected — at the end of the run (optionally
//! with random cache-line eviction) or *mid-run* through the persist-trace
//! crash scheduler — and after recovery the engine must contain exactly the
//! oracle state of the durable committed prefix: every published commit
//! durable, no uncommitted effect visible, MVCC invariants intact.

use hyrise_nv::torture::{
    apply_workload, check_invariants, engine_state, schema, setup, sim_config, Ledger, TortureOp,
    TortureTxn,
};
use hyrise_nv::{Database, DurabilityConfig, TableId};
use nvm::{CrashSchedule, TraceConfig};
use storage::Value;
use util::rng::{Rng, SmallRng};

/// Key universe — wide enough that runs mix fresh inserts with updates and
/// deletes of existing keys rather than hammering a handful of rows.
const KEY_SPACE: i64 = 500;

// This suite's generator differs from `torture::gen_workload` on purpose:
// half the key space (denser update/delete hits), full 32-bit versions,
// more aborts, and caller-chosen lengths down to a single transaction.
fn gen_op(rng: &mut SmallRng) -> TortureOp {
    let key = rng.gen_range_i64(0, KEY_SPACE);
    match rng.gen_range_u64(0, 3) {
        0 => TortureOp::Insert { key },
        1 => TortureOp::Update {
            key,
            version: rng.next_u64() as u32 as i64,
        },
        _ => TortureOp::Delete { key },
    }
}

fn gen_txn(rng: &mut SmallRng) -> TortureTxn {
    let n = rng.gen_range_usize(1, 6);
    TortureTxn {
        ops: (0..n).map(|_| gen_op(rng)).collect(),
        commit: rng.gen_bool(0.75),
    }
}

fn gen_txns(rng: &mut SmallRng, lo: usize, hi: usize) -> Vec<TortureTxn> {
    let n = rng.gen_range_usize(lo, hi);
    (0..n).map(|_| gen_txn(rng)).collect()
}

/// Apply `txns` on top of the ledger's last state; that state afterwards is
/// the committed oracle.
fn apply_all(db: &mut Database, t: TableId, txns: &[TortureTxn], snaps: &mut Ledger) {
    apply_workload(db, t, txns, snaps, |_, _| {}).unwrap();
}

#[test]
fn nvm_crash_recovery_matches_oracle() {
    for case in 0u64..24 {
        let mut rng = SmallRng::seed_from_u64(0xF0 << 8 | case);
        let txns = gen_txns(&mut rng, 1, 20);
        let evict = rng.gen_bool(0.5);
        let eviction_seed = rng.next_u64();

        let (mut db, t) = setup(sim_config(false)).unwrap();
        let mut snaps = vec![Default::default()];
        apply_all(&mut db, t, &txns, &mut snaps);
        let oracle = &snaps.last().unwrap().1;

        let policy = if evict {
            nvm::CrashPolicy::RandomEviction {
                p: 0.5,
                seed: eviction_seed,
            }
        } else {
            nvm::CrashPolicy::DropUnflushed
        };
        db.restart(policy).unwrap();
        assert_eq!(&engine_state(&mut db, t).unwrap(), oracle, "case {case}");

        // Index agreement after recovery.
        let tx = db.begin();
        for (k, v) in oracle {
            let hits = db.index_lookup(&tx, t, 0, &Value::Int(*k)).unwrap();
            assert_eq!(
                hits.len(),
                1,
                "case {case}: key {k} must have one visible version"
            );
            assert_eq!(hits[0].values[1], Value::Int(*v), "case {case}: key {k}");
        }
        let integrity = db.verify_integrity().unwrap();
        assert!(integrity.is_clean(), "case {case}: {}", integrity.render());
    }
}

/// Crash *mid-run* at sampled fence boundaries / mid-epoch survival
/// subsets: the recovered state must equal the oracle ledger entry at the
/// durably published commit timestamp — no more (uncommitted leak), no
/// less (lost commit) — and every structural invariant must hold.
#[test]
fn mid_run_scheduled_crashes_match_committed_prefix() {
    for case in 0u64..6 {
        let mut rng = SmallRng::seed_from_u64(0x5C_4ED ^ case);
        let txns = gen_txns(&mut rng, 8, 24);

        // One traced run of this suite's workload with `point` armed (the
        // reference run arms none).
        let traced = |point| {
            let (mut db, t) = setup(sim_config(false)).unwrap();
            let region = db.nv_backend().unwrap().region().clone();
            region.trace_start(TraceConfig { keep_events: false });
            if let Some(point) = point {
                region.arm_crash(point).unwrap();
            }
            let mut snaps = vec![Default::default()];
            apply_all(&mut db, t, &txns, &mut snaps);
            (db, t, region, snaps)
        };
        let total_fences = traced(None).2.trace_stop().unwrap().fences;
        assert!(total_fences > 0, "case {case}: workload issued no fences");

        for (i, point) in CrashSchedule::sample(total_fences, 8, 0xD00 ^ case)
            .into_iter()
            .enumerate()
        {
            let (mut db, t, _, snaps) = traced(Some(point));
            let report = db.restart_scheduled().unwrap();
            check_invariants(&mut db, t, &snaps, report.last_cts, case).unwrap_or_else(|v| {
                panic!(
                    "case {case} point {i} ({point:?}): `{}`: {}",
                    v.invariant, v.detail
                )
            });
        }
    }
}

#[test]
fn wal_crash_recovery_matches_oracle() {
    for case in 0u64..16 {
        let mut rng = SmallRng::seed_from_u64(0x3A1 ^ case);
        let txns = gen_txns(&mut rng, 1, 15);
        let (mut db, t) = setup(DurabilityConfig::wal_temp()).unwrap();
        let mut snaps = vec![Default::default()];
        apply_all(&mut db, t, &txns, &mut snaps);
        db.restart_after_crash().unwrap();
        let oracle = &snaps.last().unwrap().1;
        assert_eq!(&engine_state(&mut db, t).unwrap(), oracle, "case {case}");
    }
}

#[test]
fn merge_then_crash_preserves_state() {
    for case in 0u64..12 {
        let mut rng = SmallRng::seed_from_u64(0x4E6E ^ case);
        let txns = gen_txns(&mut rng, 2, 12);
        let split = rng.gen_range_usize(0, txns.len() + 1);
        let (mut db, t) = setup(sim_config(false)).unwrap();
        let mut snaps = vec![Default::default()];
        apply_all(&mut db, t, &txns[..split], &mut snaps);
        db.merge(t).unwrap();
        let state = engine_state(&mut db, t).unwrap();
        assert_eq!(state, snaps.last().unwrap().1, "case {case} post-merge");
        apply_all(&mut db, t, &txns[split..], &mut snaps);
        db.restart_after_crash().unwrap();
        let state = engine_state(&mut db, t).unwrap();
        assert_eq!(state, snaps.last().unwrap().1, "case {case}");
    }
}

#[test]
fn ycsb_style_sequence_survives_eviction_crashes() {
    for case in 0u64..16 {
        let mut rng = SmallRng::seed_from_u64(0x9C5B ^ case);
        // Flat single-op transactions, heavier volume, always-evict crash.
        let nops = rng.gen_range_usize(5, 60);
        let (mut db, t) = setup(sim_config(false)).unwrap();
        let mut snaps = vec![Default::default()];
        for _ in 0..nops {
            let key = rng.gen_range_i64(0, KEY_SPACE);
            let txn = TortureTxn {
                ops: vec![match rng.gen_range_u64(0, 3) {
                    0 => TortureOp::Insert { key },
                    1 => TortureOp::Update {
                        key,
                        version: key * 7,
                    },
                    _ => TortureOp::Delete { key },
                }],
                commit: true,
            };
            apply_all(&mut db, t, &[txn], &mut snaps);
        }
        let seed = rng.next_u64();
        db.restart(nvm::CrashPolicy::RandomEviction { p: 0.3, seed })
            .unwrap();
        let state = engine_state(&mut db, t).unwrap();
        assert_eq!(state, snaps.last().unwrap().1, "case {case}");
    }
}

/// Restart is idempotent on every durability backend: a second and third
/// power cycle (each one a fresh recovery over the state the previous
/// recovery left behind) must reproduce the first recovery's state
/// exactly. This is the cheap backend-parameterized face of the nested
/// crash-chain convergence property in `integration_recovery_torture`.
#[test]
fn triple_restart_idempotent_across_backends() {
    type ConfigFn = fn() -> DurabilityConfig;
    let configs: [(&str, ConfigFn); 3] = [
        ("volatile", || DurabilityConfig::Volatile),
        ("wal", DurabilityConfig::wal_temp),
        ("nvm+shadow-wal", || sim_config(true)),
    ];
    for (mode, cfg) in configs {
        let mut db = Database::create(cfg()).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        let mut tx = db.begin();
        for k in 0..20 {
            db.insert(&mut tx, t, &[Value::Int(k), Value::Int(0)])
                .unwrap();
        }
        db.commit(&mut tx).unwrap();
        if mode == "volatile" {
            // Volatile restarts lose everything including DDL; the
            // idempotence check is that every cycle lands on the same
            // empty catalogue.
            for cycle in 1..=3 {
                db.restart_after_crash().unwrap();
                assert_eq!(db.table_count(), 0, "volatile restart #{cycle}");
            }
            continue;
        }
        db.restart_after_crash().unwrap();
        let s1 = engine_state(&mut db, t).unwrap();
        for cycle in 2..=3 {
            db.restart_after_crash().unwrap();
            let s = engine_state(&mut db, t).unwrap();
            assert_eq!(s1, s, "{mode}: restart #{cycle} diverged from restart #1");
        }
        assert_eq!(s1.len(), 20, "{mode}: committed rows must survive");
        let rep = db.verify_integrity().unwrap();
        assert!(rep.is_clean(), "{mode}: {}", rep.render());
    }
}

#[test]
fn crash_immediately_after_create_table() {
    let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
    let _t = db.create_table("t", schema()).unwrap();
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rows_recovered, 0);
    assert_eq!(db.table_count(), 1, "DDL must be durable");
}

#[test]
fn crash_with_empty_database() {
    let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rows_recovered, 0);
    assert_eq!(db.table_count(), 0);
    // Still usable afterwards.
    let t = db.create_table("t", schema()).unwrap();
    let mut tx = db.begin();
    db.insert(&mut tx, t, &[Value::Int(1), Value::Int(0)])
        .unwrap();
    db.commit(&mut tx).unwrap();
}
