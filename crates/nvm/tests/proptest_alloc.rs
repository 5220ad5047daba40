//! Randomized tests for the persistent allocator and containers: random
//! operation sequences, crashes with random cache-line eviction, and
//! recovery invariants. Each case is driven by a seeded in-tree RNG so
//! failures reproduce exactly.

use std::sync::Arc;

use nvm::{
    AllocState, CrashPolicy, LatencyModel, NvmHeap, NvmRegion, PSlab, PVec, PSLAB_HEADER,
    PVEC_HEADER,
};
use util::rng::{Rng, SmallRng};

fn heap(bytes: u64) -> NvmHeap {
    NvmHeap::format(Arc::new(NvmRegion::new(bytes, LatencyModel::zero()))).unwrap()
}

/// After any alloc/free sequence + crash (with random eviction), the
/// recovery scan terminates, agrees with the set of fully-activated
/// blocks, and the heap stays usable.
#[test]
fn allocator_recovers_from_any_sequence() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xA110C ^ case);
        let h = heap(4 << 20);
        let mut live: Vec<u64> = Vec::new();
        let nops = rng.gen_range_usize(1, 60);
        for _ in 0..nops {
            if rng.gen_bool(0.5) {
                let size = rng.gen_range_u64(8, 512);
                let off = h.reserve(size).unwrap();
                h.region().write_pod(off, &0xAAu8).unwrap();
                h.region().persist(off, 1).unwrap();
                h.activate(off, None, None).unwrap();
                live.push(off);
            } else if !live.is_empty() {
                let i = rng.gen_range_usize(0, live.len());
                let off = live.swap_remove(i);
                h.free(off, None).unwrap();
            }
        }
        let p = rng.gen_f64();
        let seed = rng.next_u64();
        h.region().crash(CrashPolicy::RandomEviction { p, seed });
        let (h2, report) = NvmHeap::open(h.region().clone()).unwrap();
        assert_eq!(report.live_blocks as usize, live.len(), "case {case}");
        // Walk agrees with the report.
        let blocks = h2.walk().unwrap();
        let walked_live = blocks
            .iter()
            .filter(|b| b.state == AllocState::Allocated)
            .count();
        assert_eq!(walked_live, live.len(), "case {case}");
        // Every surviving allocation is among the walked live blocks.
        for off in &live {
            assert!(
                blocks
                    .iter()
                    .any(|b| b.payload_off == *off && b.state == AllocState::Allocated),
                "case {case}: block {off} lost"
            );
        }
        // Heap still usable: allocate something new.
        let p2 = h2.reserve(64).unwrap();
        h2.activate(p2, None, None).unwrap();
    }
}

/// PVec appends are prefix-durable: after a crash, the vector contains
/// exactly a prefix of what was pushed (the published prefix), intact.
#[test]
fn pvec_crash_leaves_valid_prefix() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x9EC ^ case);
        let h = heap(4 << 20);
        let hdr = h.alloc(PVEC_HEADER).unwrap();
        let v = PVec::<u64>::create(&h, hdr, 4).unwrap();
        let values: Vec<u64> = (0..rng.gen_range_usize(1, 200))
            .map(|_| rng.next_u64())
            .collect();
        let crash_after = rng.gen_range_usize(0, 200).min(values.len());
        // Published in batches of up to seven; the rest stays staged.
        let mut published = 0;
        for (i, x) in values[..crash_after].iter().enumerate() {
            v.stage(&h, i as u64, x).unwrap();
            if i % 7 == 6 || i + 1 == crash_after {
                h.region().fence();
                v.publish_len(h.region(), i as u64 + 1).unwrap();
                published = i + 1;
            }
        }
        assert_eq!(published, crash_after);
        // Staged garbage beyond the tail must never surface.
        for (i, x) in values[crash_after..].iter().enumerate() {
            v.stage(&h, (crash_after + i) as u64, x).unwrap();
        }
        let seed = rng.next_u64();
        h.region()
            .crash(CrashPolicy::RandomEviction { p: 0.5, seed });
        let (_h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let v2 = PVec::<u64>::open(hdr);
        let got = v2.to_vec(h.region()).unwrap();
        assert_eq!(got.as_slice(), &values[..crash_after], "case {case}");
    }
}

/// PSlab under external length management: elements persisted via
/// `store` survive any crash; `ensure` growth never corrupts the live
/// prefix.
#[test]
fn pslab_grow_store_crash() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0x51AB ^ case);
        let h = heap(4 << 20);
        let hdr = h.alloc(PSLAB_HEADER).unwrap();
        let s = PSlab::<u64>::create(&h, hdr, 4).unwrap();
        let n = rng.gen_range_u64(1, 300);
        for i in 0..n {
            s.ensure(&h, i, i).unwrap();
            s.store(h.region(), i, &(i * 31 + 7)).unwrap();
        }
        let seed = rng.next_u64();
        h.region()
            .crash(CrashPolicy::RandomEviction { p: 0.3, seed });
        let (_h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let s2 = PSlab::<u64>::open(hdr);
        let got = s2.prefix(h.region(), n).unwrap();
        for (i, x) in got.iter().enumerate() {
            assert_eq!(*x, i as u64 * 31 + 7, "case {case} idx {i}");
        }
    }
}

/// Byte-blob appends are run-durable: published runs read back intact
/// after crashes, across growth relocations.
#[test]
fn blob_runs_survive_crash() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xB10B ^ case);
        let h = heap(4 << 20);
        let hdr = h.alloc(PVEC_HEADER).unwrap();
        let blob = PVec::<u8>::create(&h, hdr, 8).unwrap();
        let runs: Vec<Vec<u8>> = (0..rng.gen_range_usize(1, 40))
            .map(|_| {
                (0..rng.gen_range_usize(1, 64))
                    .map(|_| rng.next_u64() as u8)
                    .collect()
            })
            .collect();
        let mut offsets = Vec::new();
        let mut at = 0u64;
        for run in &runs {
            blob.stage_bytes(&h, at, run).unwrap();
            offsets.push(at);
            at += run.len() as u64;
        }
        h.region().fence();
        blob.publish_len(h.region(), at).unwrap();
        h.region().fence();
        h.region().crash(CrashPolicy::DropUnflushed);
        let (_h2, _) = NvmHeap::open(h.region().clone()).unwrap();
        let blob2 = PVec::<u8>::open(hdr);
        for (off, run) in offsets.iter().zip(&runs) {
            let got = blob2
                .read_bytes_at(h.region(), *off, run.len() as u64)
                .unwrap();
            assert_eq!(&got, run, "case {case}");
        }
    }
}

#[test]
fn interleaved_vec_and_slab_on_one_heap() {
    // Multiple structures sharing one heap must not interfere across
    // crashes (regression guard for allocator bin reuse).
    let h = heap(8 << 20);
    let vhdr = h.alloc(PVEC_HEADER).unwrap();
    let shdr = h.alloc(PSLAB_HEADER).unwrap();
    let v = PVec::<u64>::create(&h, vhdr, 4).unwrap();
    let s = PSlab::<u32>::create(&h, shdr, 4).unwrap();
    for i in 0..500u64 {
        v.stage(&h, i, &(i * 2)).unwrap();
        s.ensure(&h, i, i).unwrap();
        s.store(h.region(), i, &(i as u32 * 3)).unwrap();
    }
    v.publish_len(h.region(), 500).unwrap();
    h.region().fence();
    h.region().crash(CrashPolicy::DropUnflushed);
    let (_h2, _) = NvmHeap::open(h.region().clone()).unwrap();
    let v2 = PVec::<u64>::open(vhdr).to_vec(h.region()).unwrap();
    let s2 = PSlab::<u32>::open(shdr).prefix(h.region(), 500).unwrap();
    assert!(v2.iter().enumerate().all(|(i, x)| *x == i as u64 * 2));
    assert!(s2.iter().enumerate().all(|(i, x)| *x == i as u32 * 3));
}
