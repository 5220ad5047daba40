//! E4 — Sensitivity of Hyrise-NV throughput to NVM latency.
//!
//! Paper family: NVM is expected slower than DRAM; the evaluation sweeps
//! the emulated latency and shows throughput degrading gracefully because
//! only the write path's flush points pay it. Here the simulated
//! flush-line latency sweeps 0–8× the PCM-ish base; the modeled throughput
//! (wall + simulated ledger) reproduces the curve.

use std::time::Instant;

use crate::driver::{load_ycsb, run_ycsb_op};
use crate::harness::{Row, Run};
use hyrise_nv::{Database, DurabilityConfig};
use nvm::LatencyModel;
use workload::{YcsbConfig, YcsbGenerator, YcsbMix};

pub fn run(h: &mut Run) {
    let (records, op_count) = h.pick((10_000, 15_000), (2_000, 2_000));

    let factors: &[u64] = &[0, 1, 2, 4, 8];
    let mixes: Vec<(&str, YcsbMix)> = vec![
        ("insert-heavy", YcsbMix::INSERT_HEAVY),
        ("A 50r/50u", YcsbMix::A),
        ("C read-only", YcsbMix::C),
    ];

    let mut rows_out = Vec::new();
    for (mix_name, mix) in &mixes {
        for &f in factors {
            let latency = if f == 0 {
                LatencyModel::zero()
            } else {
                LatencyModel::scaled(f)
            };
            rows_out.extend(h.measure(|| {
                let mut db =
                    Database::create(DurabilityConfig::nvm(512 << 20, latency)).expect("create");
                let cfg = YcsbConfig {
                    record_count: records,
                    mix: *mix,
                    ..Default::default()
                };
                let table = load_ycsb(&mut db, records, true).expect("load");
                let mut generator = YcsbGenerator::new(cfg);
                let ops = generator.ops(op_count);

                let sim0 = db.simulated_ns();
                let t0 = Instant::now();
                for op in &ops {
                    run_ycsb_op(&mut db, table, op).expect("op");
                }
                let wall = t0.elapsed().as_secs_f64();
                let sim = (db.simulated_ns() - sim0) as f64 / 1e9;
                Ok(vec![Row::new()
                    .with("mix", *mix_name)
                    .with("flush_ns", latency.flush_line_ns)
                    .wall("kops_modeled", op_count as f64 / (wall + sim) / 1e3, 1)
                    .wall("sim_share_pct", 100.0 * sim / (wall + sim), 1)])
            }));
        }
    }

    h.table(
        "E4: Hyrise-NV throughput vs simulated NVM flush latency",
        rows_out,
    );
}
