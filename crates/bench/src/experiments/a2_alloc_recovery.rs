//! A2 (ablation) — allocator recovery scan cost vs heap population.
//!
//! The one restart phase of Hyrise-NV that grows at all is the
//! nvm_malloc-style recovery scan over block headers (it rebuilds the
//! volatile free bins and completes interrupted operations). This sweep
//! shows the scan is linear in the *number of blocks* — metadata, not data
//! bytes — and stays orders of magnitude below log replay.

use std::sync::Arc;
use std::time::Instant;

use crate::harness::{Row, Run};
use nvm::{CrashPolicy, LatencyModel, NvmHeap, NvmRegion};

pub fn run(h: &mut Run) {
    let sizes: &[u64] = h.pick(&[1_000, 10_000, 100_000, 400_000], &[1_000, 10_000]);

    let mut rows_out = Vec::new();
    for &n in sizes {
        rows_out.extend(h.measure(|| {
            let region = Arc::new(NvmRegion::new(
                (n * 256).max(64 << 20),
                LatencyModel::zero(),
            ));
            let heap = NvmHeap::format(region.clone()).unwrap();
            for i in 0..n {
                // A mix of live, freed, and reserved blocks, as a real heap
                // would have after a crash.
                let p = heap.reserve(64).unwrap();
                match i % 10 {
                    0..=6 => heap.activate(p, None, None).unwrap(),
                    7..=8 => {
                        heap.activate(p, None, None).unwrap();
                        heap.free(p, None).unwrap();
                    }
                    _ => {} // left Reserved: reclaimed by recovery
                }
            }
            region.crash(CrashPolicy::DropUnflushed);

            let t0 = Instant::now();
            let (_heap, report) = NvmHeap::open(region.clone()).unwrap();
            let wall = t0.elapsed();

            Ok(vec![Row::new()
                .with("blocks", n)
                .with("live", report.live_blocks)
                .with("reclaimed_reserved", report.reclaimed_reserved)
                .with("free", report.free_blocks)
                .wall("scan_ms", wall.as_secs_f64() * 1e3, 3)
                .wall(
                    "ns_per_block",
                    wall.as_nanos() as f64 / n as f64,
                    0,
                )])
        }));
    }

    h.table("A2: allocator recovery scan vs heap population", rows_out);
}
