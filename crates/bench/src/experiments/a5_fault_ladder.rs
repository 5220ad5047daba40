//! A5 (ablation) — fault ladder: sweep media-fault classes × fault rates
//! over the NVM+shadow-WAL backend and report, per cell, how the recovery
//! ladder held up: detection rate at the media-verification gate, repair
//! rate after recovery, the rung distribution, and per-rung recovery cost.
//!
//! Fault classes (see `nvm::FaultClass`):
//! * `bitflip`          — random bit upsets inside a cache line.
//! * `tornline`         — a partially written-back line.
//! * `scribble`         — a misdirected multi-byte write.
//! * `poison-transient` — a line that fails reads a bounded number of times.
//! * `poison-permanent` — a line that fails every read.
//!
//! Faults are aimed at checksummed table extents (`Database::media_extents`),
//! so every content-destroying hit **must** be detected; the harness exits
//! non-zero on any silent corruption or failed repair. A scripted rung-2
//! demonstration at the end scribbles a merged table's main dictionary and
//! prints the phase breakdown of the shadow-WAL fallback that rebuilds it.

use crate::harness::{Row, Run};
use hyrise_nv::torture::{engine_state, fault_scenario, preload, setup, sim_config};
use nvm::{FaultClass, FaultSpec};

#[derive(Default)]
struct CellStats {
    scenarios: u64,
    detected: u64,
    repaired: u64,
    rungs: [u64; 3],
    recovery_wall_ns_by_rung: [u128; 3],
    retries: u64,
    rebuilt: u64,
}

fn run_cell(h: &Run, class: FaultClass, rate: u32, scenarios: u64, seed_base: u64) -> CellStats {
    let mut stats = CellStats {
        scenarios,
        ..Default::default()
    };
    for i in 0..scenarios {
        let seed = seed_base.wrapping_add(i * 0x9E37_79B9);
        // The fault-torture suite's scenario, `rate` faults per run.
        match fault_scenario(class, rate, seed) {
            Ok((detected, rec)) => {
                let rung = rec.report.rung.min(2) as usize;
                stats.detected += detected as u64;
                stats.repaired += 1;
                stats.rungs[rung] += 1;
                stats.recovery_wall_ns_by_rung[rung] += rec.wall.as_nanos();
                stats.retries += rec.report.poison_retries;
                stats.rebuilt += rec.report.structures_rebuilt;
            }
            Err(v) => h.fail(format_args!(
                "class {class} rate {rate}: `{}`: {}",
                v.invariant, v.detail
            )),
        }
    }
    stats
}

pub fn run(h: &mut Run) {
    let scenarios: u64 = h.pick(25, 4);
    let rates: &[u32] = h.pick(&[1, 2, 4], &[1]);
    let classes = [
        FaultClass::BitFlip { bits: 3 },
        FaultClass::TornLine,
        FaultClass::ScribbledBlock { len: 256 },
        FaultClass::PoisonTransient { failures: 3 },
        FaultClass::PoisonPermanent,
    ];

    let mut rows = Vec::new();
    for class in classes {
        for &rate in rates {
            let seed_base =
                0xA5_0500u64 ^ ((class.name().len() as u64) << 32) ^ ((rate as u64) << 16);
            // Detection, repair and rungs repeat exactly per seed; only
            // the recovery times vary.
            rows.extend(h.measure(|| {
                let stats = run_cell(h, class, rate, scenarios, seed_base);
                let avg_us = |idx: usize| match stats.rungs[idx] {
                    0 => f64::NAN,
                    n => stats.recovery_wall_ns_by_rung[idx] as f64 / n as f64 / 1e3,
                };
                let pct = |n: u64| format!("{:.0}", 100.0 * n as f64 / stats.scenarios as f64);
                Ok(vec![Row::new()
                    .with("class", class.name())
                    .with("rate", rate)
                    .with("scenarios", stats.scenarios)
                    .with("detect_pct", pct(stats.detected))
                    .with("repair_pct", pct(stats.repaired))
                    .with(
                        "rungs_0/1/2",
                        format!("{}/{}/{}", stats.rungs[0], stats.rungs[1], stats.rungs[2]),
                    )
                    .with("retries", stats.retries)
                    .with("rebuilt", stats.rebuilt)
                    .wall("rung0_us", avg_us(0), 1)
                    .wall("rung1_us", avg_us(1), 1)
                    .wall("rung2_us", avg_us(2), 1)])
            }));
        }
    }

    h.table(
        "A5: fault ladder (detection/repair per fault class × rate; avg recovery wall µs by rung)",
        rows,
    );

    // Scripted rung-2 demonstration: scribble a merged table's main
    // dictionary, then show the ladder rebuilding it from the shadow WAL.
    println!("\n== A5: rung-2 walkthrough (scribbled main dictionary) ==");
    let (mut db, t) = setup(sim_config(true)).unwrap();
    let (_, oracle) = preload(&mut db, t, 0xA5_DE30, true).unwrap();
    let e = db
        .media_extents(t)
        .unwrap()
        .into_iter()
        .find(|e| e.what == "main-dict")
        .expect("merged table has a main dictionary");
    db.nv_backend()
        .unwrap()
        .region()
        .inject_fault(&FaultSpec {
            class: FaultClass::ScribbledBlock {
                len: e.len.min(512),
            },
            offset: e.offset,
            seed: 0xA5,
        })
        .unwrap();
    println!(
        "scribbled {} bytes into {:?} @ {:#x}; verification: {}",
        e.len.min(512),
        e.what,
        e.offset,
        match db.verify_media() {
            Ok(_) => "CLEAN (unexpected)".to_string(),
            Err(err) => format!("detected — {err}"),
        }
    );
    let report = db.restart_after_crash().unwrap();
    print!("{}", report.render());
    let recovered = engine_state(&mut db, t).unwrap() == oracle
        && db.verify_media().is_ok()
        && report.rung == 2;
    match recovered {
        true => println!("rung-2 fallback: {} rows match the oracle", oracle.len()),
        false => h.fail("the rung-2 walkthrough did not restore the committed oracle"),
    }
}
