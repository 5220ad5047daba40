//! Media-fault torture harness: hammer the NVM-with-shadow-WAL backend with
//! seeded media faults (bit flips, torn lines, scribbled blocks, poisoned
//! lines) aimed at checksummed table extents and verify two properties
//! after every injection:
//!
//! 1. **No silent corruption** — with a fault planted in a checksummed
//!    extent, every read either returns the oracle value or a typed error,
//!    and media verification either passes with the data still correct or
//!    fails with a typed error. Valid-looking wrong bytes never escape.
//! 2. **Self-healing recovery** — a restart after the fault climbs the
//!    recovery ladder (rung 1: bounded poison retries and index rebuilds;
//!    rung 2: per-table shadow-WAL replay) and restores exactly the
//!    committed oracle state, with media verification and the structural
//!    integrity checks clean afterwards.
//!
//! Scenario counts scale with `FAULT_TORTURE_SCENARIOS` (default 100 per
//! fault class) so CI can run a quick smoke while local runs go deeper.
//! Every class run writes a summary artifact under `results/` whose
//! filename and body carry the seed base, fault class, and fault rate;
//! failures append a repro line with the exact seed and target offset.

use hyrise_nv::torture::{
    engine_state, env_usize, fault_extents, fault_scenario, preload, results_path, setup,
    sim_config, write_repro, Oracle,
};
use hyrise_nv::{Database, TableId};
use nvm::{FaultClass, FaultSpec, CACHE_LINE};
use storage::Value;

/// The scripted tests' database: NVM + shadow WAL holding the shared
/// committed load (merged main, populated delta, both index kinds).
fn build_db(seed: u64) -> (Database, TableId, Oracle) {
    let (mut db, t) = setup(sim_config(true)).unwrap();
    let (_, oracle) = preload(&mut db, t, seed, true).unwrap();
    (db, t, oracle)
}

fn inject(db: &Database, class: FaultClass, offset: u64, seed: u64) {
    let spec = FaultSpec {
        class,
        offset,
        seed,
    };
    let backend = db.nv_backend().unwrap();
    backend.region().inject_fault(&spec).unwrap();
}

/// Per-class summary artifact: seed base, fault class, and fault rate are
/// in both the filename and the JSON body.
fn write_class_artifact(
    class: &FaultClass,
    seed_base: u64,
    scenarios: usize,
    detected: usize,
    rungs: &[usize; 3],
) {
    // One fault per scenario — the "rate" the torture matrix runs at.
    let name = format!(
        "fault_torture_{}_seed{seed_base:#x}_rate1.json",
        class.name()
    );
    let seed_s = format!("{seed_base:#x}");
    let scenarios_s = scenarios.to_string();
    let detected_s = detected.to_string();
    let class_s = format!("{class}");
    let rungs_s = format!("{}/{}/{}", rungs[0], rungs[1], rungs[2]);
    let body = util::json::object([
        ("suite", "fault_torture"),
        ("fault_class", class.name()),
        ("fault_class_detail", class_s.as_str()),
        ("seed_base", seed_s.as_str()),
        ("faults_per_scenario", "1"),
        ("scenarios", scenarios_s.as_str()),
        ("detected", detected_s.as_str()),
        ("rungs_0_1_2", rungs_s.as_str()),
        ("silent_corruption", "0"),
    ]);
    let _ = std::fs::write(results_path(&name), body + "\n");
}

/// The torture matrix: every fault class × N seeded scenarios, each aimed
/// at a random interior slice of a random checksummed extent.
#[test]
fn torture_media_faults_no_silent_corruption() {
    let scenarios = env_usize("FAULT_TORTURE_SCENARIOS", 100);
    let classes = [
        FaultClass::BitFlip { bits: 3 },
        FaultClass::TornLine,
        FaultClass::ScribbledBlock { len: 256 },
        FaultClass::PoisonTransient { failures: 3 },
        FaultClass::PoisonPermanent,
    ];
    for class in classes {
        let seed_base = 0xFA_0700u64 ^ ((class.name().len() as u64) << 32);
        let mut detected = 0usize;
        let mut rungs = [0usize; 3];
        for i in 0..scenarios {
            let seed = seed_base.wrapping_add(i as u64 * 0x9E37_79B9);
            // A violation and an engine panic under the fault take the
            // same exit: a repro line, then the panic.
            let outcome = std::panic::catch_unwind(|| {
                fault_scenario(class, 1, seed)
                    .unwrap_or_else(|v| panic!("{class}: `{}` violated: {}", v.invariant, v.detail))
            });
            match outcome {
                Ok((seen, rec)) => {
                    detected += seen as usize;
                    rungs[rec.report.rung.min(2) as usize] += 1;
                }
                Err(payload) => {
                    write_repro(
                        &format!("fault_torture_repro_{}.jsonl", class.name()),
                        &format!("fault_torture/{}", class.name()),
                        seed,
                        &[
                            ("fault_class", class.name()),
                            ("fault_class_detail", &class.to_string()),
                            ("faults_per_scenario", "1"),
                        ],
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
        write_class_artifact(&class, seed_base, scenarios, detected, &rungs);
        eprintln!(
            "{}: {scenarios} scenarios, {detected} detected pre-restart, rungs 0/1/2 = \
             {}/{}/{}",
            class.name(),
            rungs[0],
            rungs[1],
            rungs[2]
        );
        // Content-destroying classes must never sneak past verification:
        // every scenario is either detected before restart or (for poison)
        // surfaces as a typed read error during recovery — witnessed by the
        // ladder climbing past rung 0.
        match class {
            FaultClass::ScribbledBlock { .. } | FaultClass::PoisonPermanent => {
                assert_eq!(
                    rungs[2],
                    scenarios,
                    "{}: every scenario must reach rung 2",
                    class.name()
                );
            }
            _ => {}
        }
    }
}

/// Deterministic rung-2 demonstration: scribble a merged table's main
/// dictionary and watch the shadow-WAL fallback rebuild the table.
#[test]
fn scribbled_table_recovers_via_wal_rung2() {
    let (mut db, t, oracle) = build_db(0xBEEF);
    let extents = db.media_extents(t).unwrap();
    let e = extents
        .iter()
        .find(|e| e.what == "main-dict")
        .expect("merged table has a main dictionary");
    let class = FaultClass::ScribbledBlock {
        len: e.len.min(512),
    };
    inject(&db, class, e.offset, 7);
    assert!(db.verify_media().is_err(), "scribble must be detected");

    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rung, 2, "table damage must climb to the WAL rung");
    assert!(report.structures_rebuilt >= 1);
    assert!(report.blocks_quarantined >= 1);
    assert!(report.log_records_replayed > 0);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
    assert!(db.verify_media().is_ok());
    assert!(db.verify_integrity().unwrap().is_clean());
}

/// A transiently poisoned line is repaired in place by bounded retries —
/// no rebuild, no quarantine, rung ≤ 1.
#[test]
fn transient_poison_repairs_at_rung1() {
    let (mut db, t, oracle) = build_db(0xCAFE);
    let e = fault_extents(&db, t).unwrap()[0];
    let class = FaultClass::PoisonTransient { failures: 2 };
    inject(&db, class, e.offset + CACHE_LINE, 9);

    let report = db.restart_after_crash().unwrap();
    assert!(
        report.rung <= 1,
        "transient poison must not need the WAL rung"
    );
    assert_eq!(report.structures_rebuilt, 0);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
    assert!(db.verify_media().is_ok());
}

/// Clean restarts in NVM+WAL mode stay on rung 0: media verification runs,
/// nothing is rebuilt, and the shadow log's existence does not disturb the
/// committed state.
#[test]
fn nvm_with_wal_clean_restart_is_rung0() {
    let (mut db, t, oracle) = build_db(0xD00D);
    assert!(db.wal_stats().records > 0, "shadow log must see traffic");
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rung, 0);
    assert_eq!(report.structures_rebuilt, 0);
    assert_eq!(report.blocks_quarantined, 0);
    assert!(report.media_structures_verified > 0);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);

    // And the mode keeps working after recovery: new commits land in both
    // the NVM image and the re-baselined shadow log, surviving a second
    // (faulty) restart.
    let mut tx = db.begin();
    db.insert(&mut tx, t, &[Value::Int(9_999_999), Value::Int(1)])
        .unwrap();
    db.commit(&mut tx).unwrap();
    let extents = db.media_extents(t).unwrap();
    let e = extents.iter().find(|e| e.checksummed).unwrap();
    inject(&db, FaultClass::ScribbledBlock { len: 64 }, e.offset, 3);
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rung, 2);
    let mut expected = oracle;
    expected.insert(9_999_999, 1);
    assert_eq!(engine_state(&mut db, t).unwrap(), expected);
}

/// A merge whose swap is durable has happened, whatever its clean-up meets.
/// The header line of an old-main block is poisoned — the merge's plan
/// never reads it, only the free after the swap does — so reclaiming the
/// old tree fails part-way. The merge still returns `Ok`, leaking what it
/// could not free, and the new pair's indexes stay in place: lookups
/// through both index kinds and the sweep match the model, before and
/// after a reopen.
#[test]
fn merge_survives_a_failed_free_after_its_swap() {
    let (mut db, t) = setup(sim_config(false)).unwrap();
    let (_, oracle) = preload(&mut db, t, 0xF1EE, true).unwrap();
    let extents = db.media_extents(t).unwrap();
    let dict = extents.iter().find(|e| e.what == "main-dict").unwrap();
    let header = dict.offset - nvm::ALLOC_BLOCK_HEADER;
    inject(&db, FaultClass::PoisonTransient { failures: 1 }, header, 5);

    let stats = db.merge(t).expect("a merge past its swap returns Ok");
    assert_eq!(stats.rows_merged, oracle.len() as u64);
    assert_eq!(db.nv_backend().unwrap().region().poisoned_lines(), 0);
    for reopened in [false, true] {
        if reopened {
            db.restart_after_crash().unwrap();
        }
        let tx = db.begin();
        for (k, ver) in &oracle {
            let row = vec![Value::Int(*k), Value::Int(*ver)];
            for (column, key) in [(0, &row[0]), (1, &row[1])] {
                let hits = db.index_lookup(&tx, t, column, key).unwrap();
                assert!(
                    hits.iter().any(|h| h.values == row),
                    "{row:?} via column {column}"
                );
            }
        }
        assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
        assert!(db.verify_integrity().unwrap().index.is_clean());
    }
}
