//! The five workloads. Names, order and reasons are mirrored in
//! `BENCHMARK.json` (a self-test compares them); sizes are fixed here so
//! that both sides of a comparison run the same work per block.

use crate::gen::{BlockShape, Dist, Spec};

pub static WORKLOADS: [Spec; 5] = [
    Spec {
        name: "point_read",
        why: "all-main zipfian point lookups: medium reads, hash probe and main decode only, with no fence, log write or merge",
        rows: 50_000,
        ordered: false,
        dist: Dist::Zipf(0.99),
        block: BlockShape::Reads { ops: 10_000 },
        lat_rounds: 4,
        lat_reads: 2_000,
        lat_writes: 1_000,
        live_delta_ops: 0,
    },
    Spec {
        name: "update_uniform",
        why: "50/50 reads and single-row update transactions on uniform keys with a merge per block: flush/fence, delta append, commit publish, and a live delta at restart",
        rows: 50_000,
        ordered: false,
        dist: Dist::Uniform,
        block: BlockShape::Mixed { ops: 5_000 },
        lat_rounds: 4,
        lat_reads: 2_000,
        lat_writes: 1_000,
        live_delta_ops: 2_500,
    },
    Spec {
        name: "update_hot",
        why: "the update mix on zipfian keys: hot keys grow version chains, so index and version traversal and merge garbage-drop dominate instead of fences",
        rows: 50_000,
        ordered: false,
        dist: Dist::Zipf(0.99),
        block: BlockShape::Mixed { ops: 5_000 },
        lat_rounds: 4,
        lat_reads: 2_000,
        lat_writes: 1_000,
        live_delta_ops: 2_500,
    },
    Spec {
        name: "ingest_merge",
        why: "bulk insert in 256-row transactions with merges of growing size: allocator, dictionary append, batched commit and merge rebuild, ending on an all-main image several times point_read's",
        rows: 5_000,
        ordered: false,
        dist: Dist::Uniform,
        block: BlockShape::Ingest {
            rows: 12_800,
            merge_every: 6_400,
        },
        lat_rounds: 4,
        lat_reads: 2_000,
        lat_writes: 40,
        live_delta_ops: 0,
    },
    Spec {
        name: "scan_large",
        why: "range lookups through the ordered index and equality scans of an un-indexed column on a table larger than the CPU caches: the columnar read path point_read never touches",
        rows: 100_000,
        ordered: true,
        dist: Dist::Uniform,
        block: BlockShape::Scans {
            ranges: 245,
            scans: 5,
        },
        lat_rounds: 4,
        lat_reads: 1_000,
        lat_writes: 1_000,
        live_delta_ops: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
