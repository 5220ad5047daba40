//! The traced run: every per-layer metric of one workload. Probes time each
//! layer's public functions on their own; the workload then runs on the
//! `nvm` backend, first untraced and then with a span around every façade
//! call, and the counters of the region, heap and log are sampled at block,
//! merge and reopen boundaries. End-to-end metrics never come from here.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hyrise_nv::DurabilityConfig;
use nvm::{NvmHeap, NvmRegion};

use crate::engine::{Backend, Instance};
use crate::gen::{BlockShape, Gen, BATCH_ROWS, PAYLOAD_LEN, RANGE_LEN};
use crate::probes::{self, ProbeFences};
use crate::run::{run_ops, sim_crash_lost_writes, Clock, Ctx, Lane, Latency, Outcome};
use crate::stats::{iqr_frac, min, percentile_sorted, pmax_sorted};
use crate::trace::{NoTrace, Spans, Tracer};
use crate::{Res, QUICK_DIV};

/// Share of `--seconds` the blocks of the untraced cycle get.
const PLAIN_SHARE: f64 = 0.25;
/// Blocks of the traced cycle.
const TRACED_BLOCKS: usize = 3;

fn p50_us(spans: &Spans, name: &str) -> f64 {
    let mut d = spans.durations(name);
    d.sort_unstable();
    percentile_sorted(&d, 50.0) as f64 / 1e3
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

pub fn per_layer(ctx: &Ctx, out_dir: &Path) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut tr = Spans::new();
    let spec = ctx.spec;
    let div = if ctx.quick { QUICK_DIV } else { 1 };
    let probe_fences = probes::run(&mut out.values, out_dir, div, &mut tr)?;

    let mut gen = Gen::new(spec, ctx.seed);
    gen.load();
    let t0 = Instant::now();
    let block = gen.block();
    out.values.set(
        "harness.gen_ns_per_op",
        t0.elapsed().as_nanos() as f64 / block.ops.len() as f64,
    );
    drop((gen, block));

    // --- nvm: one cycle untraced, then one with a span around every call ---
    let (inst, _) = Instance::setup(ctx.place, Backend::Nvm, spec, ctx.seed)?;
    let mut plain = Lane::new(inst);
    plain.cycle(ctx, ctx.seconds * PLAIN_SHARE, usize::MAX, &mut NoTrace)?;
    let plain_sections = plain.sections();
    let Lane {
        inst,
        thr: plain_thr,
        lat: plain_lat,
        ..
    } = plain;
    let mut traced = Lane::new(inst);
    tr.open(spec.name);
    traced.cycle(ctx, f64::INFINITY, TRACED_BLOCKS, &mut tr)?;
    let traced_sections = traced.sections();
    let Lane {
        mut inst,
        thr: traced_thr,
        lat,
        restart: re,
        ..
    } = traced;

    out.fingerprint = plain_thr.fingerprint;
    out.block_iqr_frac = iqr_frac(&plain_thr.rates());
    let blocks = plain_thr.total();
    out.cpu_wall_ratio = blocks.cpu_secs / blocks.secs;
    let v = &mut out.values;
    v.set("harness.block_iqr_frac", out.block_iqr_frac);
    v.set("harness.cpu_wall_ratio", out.cpu_wall_ratio);
    v.set(
        "harness.trace_overhead_frac",
        1.0 - traced_thr.quiet_rate() / plain_thr.quiet_rate(),
    );
    v.set(
        "nvm.bytes_read_per_op",
        blocks.per_op(blocks.nvm.bytes_read),
    );
    v.set(
        "nvm.bytes_written_per_op",
        blocks.per_op(blocks.nvm.bytes_written),
    );
    let w = &lat.writes;
    v.set("nvm.flushes_per_write", w.per_op(w.nvm.flush_calls));
    v.set("nvm.lines_flushed_per_write", w.per_op(w.nvm.lines_flushed));
    v.set("nvm.fences_per_write", w.per_op(w.nvm.fences));
    v.set(
        "nvm.fences_per_merge",
        lat.merges.per_op(lat.merges.nvm.fences),
    );
    v.set(
        "nvm.fences_per_read",
        lat.reads.per_op(lat.reads.nvm.fences),
    );

    for (metric, span) in [
        ("core.begin_p50_us", "core.begin"),
        ("core.index_lookup_p50_us", "core.index_lookup"),
        ("core.range_lookup_p50_us", "core.range_lookup"),
        ("core.scan_eq_p50_us", "core.scan_eq"),
        ("core.update_p50_us", "core.update"),
        ("core.insert_p50_us", "core.insert"),
        ("core.commit_p50_us", "core.commit"),
    ] {
        v.set(metric, p50_us(&tr, span));
    }
    let mut commits = tr.durations("core.commit");
    commits.sort_unstable();
    v.set(
        "core.commit_p99_us",
        percentile_sorted(&commits, 99.0) as f64 / 1e3,
    );
    v.set("core.merge_p50_ms", p50_us(&tr, "core.merge") / 1e3);
    let mut op_ns: Vec<u64> = tr
        .spans
        .iter()
        .filter(|s| s.name.starts_with("op.") && s.name != "op.merge")
        .map(|s| s.dur_ns())
        .collect();
    op_ns.sort_unstable();
    let (pct, pmax) = pmax_sorted(&op_ns).unwrap_or((0.0, 0));
    v.set("core.op_pmax_us", pmax as f64 / 1e3);
    v.set("core.op_pmax_pct", pct);
    v.set("core.op_samples", op_ns.len() as f64);

    let sections = plain_sections.iter().chain(&traced_sections);
    out.attempted = sections.clone().map(|s| s.ops).sum();
    out.failed = sections.map(|s| s.failed).sum();
    out.values.set("txn.commits", commits.len() as f64);
    out.values.set("txn.aborts", out.failed as f64);
    out.check(
        "reads_fence_nothing",
        lat.reads.nvm.fences == 0,
        format!(
            "{} fences in {} timed reads",
            lat.reads.nvm.fences, lat.reads.ops
        ),
    );
    unattributed(&mut out, ctx, &plain_lat, &probe_fences);

    // --- the image the traced cycle left, reopened after a kill ---
    let heap = inst.db().heap_stats().ok_or("nvm backend without a heap")?;
    let v = &mut out.values;
    v.set(
        "nvm.heap_live_bytes",
        (heap.high_water - heap.free_bytes) as f64,
    );
    v.set("nvm.heap_free_bytes", heap.free_bytes as f64);
    let t0 = Instant::now();
    tr.call("core.verify_media", || inst.db().verify_media())?;
    v.set("core.verify_media_ms", ms(t0));
    let mut lost = inst.sweep()?;

    v.set("core.reopen.heap_ms", min(&re.heap_ms));
    v.set("core.reopen.catalogue_ms", min(&re.catalogue_ms));
    v.set("core.reopen.undo_ms", min(&re.undo_ms));
    v.set("core.reopen.first_query_ms", min(&re.first_query_ms));
    v.set("nvm.heap_blocks", re.heap_blocks as f64);

    let key = inst.gen.live_rows() as i64 / 2;
    inst.shutdown()?;
    let t0 = Instant::now();
    tr.open("core.reopen_clean");
    let report = inst.reopen()?;
    let verified = inst.verify_key(key)?;
    tr.close();
    v.set("core.reopen_clean_ms", ms(t0));
    out.check(
        "reopen_first_query",
        re.unverified == 0 && verified && report.clean_shutdown,
        "first lookup after every reopen returns the acknowledged row".into(),
    );

    inst.kill();
    let DurabilityConfig::NvmFile {
        path,
        capacity,
        latency,
        ..
    } = inst.cfg().clone()
    else {
        return Err("nvm instance without a file config".into());
    };
    let region = Arc::new(NvmRegion::open_file(&path, capacity, latency)?);
    let t0 = Instant::now();
    tr.call("nvm.heap_open", || NvmHeap::open(region))?;
    out.values.set("nvm.heap_open_ms", ms(t0));
    drop(inst);
    tr.close();

    // --- wal: log volume of one block, then the baseline's restart ---
    let (mut wal, _) = Instance::setup(ctx.place, Backend::Wal, spec, ctx.seed)?;
    let block = wal.gen.block();
    let s0 = wal.db().wal_stats();
    let section = run_ops(&mut wal, &block.ops, "wal.block", Clock::Whole, &mut tr);
    let s1 = wal.db().wal_stats();
    out.attempted += section.ops;
    out.failed += section.failed;
    let rows_written: usize = block
        .ops
        .iter()
        .filter(|o| o.is_write())
        .map(|o| o.expect())
        .sum();
    let per = |count: u64, base: u64| {
        if base == 0 {
            0.0
        } else {
            count as f64 / base as f64
        }
    };
    let v = &mut out.values;
    v.set(
        "wal.syncs_per_write",
        per(s1.syncs - s0.syncs, block.writes),
    );
    v.set(
        "wal.bytes_per_user_byte",
        per(
            s1.bytes - s0.bytes,
            (rows_written * (8 + PAYLOAD_LEN)) as u64,
        ),
    );
    tr.open("wal.restart");
    let report = wal.db().restart_after_crash()?;
    for p in &report.phases {
        tr.child(p.name, p.wall.as_nanos() as u64);
    }
    tr.close();
    v.set("wal.restart_ms", report.total_wall().as_secs_f64() * 1e3);
    let replay_s: f64 = report
        .phases
        .iter()
        .filter(|p| p.name.contains("replay"))
        .map(|p| p.wall.as_secs_f64())
        .sum();
    v.set(
        "wal.replay_records_per_s",
        if replay_s > 0.0 {
            report.log_records_replayed as f64 / replay_s
        } else {
            0.0
        },
    );
    let after = wal.sweep()?;
    lost.lost += after.lost;
    lost.phantom += after.phantom;
    drop(wal);

    out.values
        .set("core.lost_acked_writes", (lost.lost + lost.phantom) as f64);
    out.check_sweep("sweeps", lost);
    let sim = sim_crash_lost_writes(ctx)?;
    out.values.set(
        "core.sim_crash_lost_writes",
        (sim.lost + sim.phantom) as f64,
    );
    out.check_sweep("sim_crash_lost_writes", sim);

    let file = out_dir.join(format!("trace-{}.jsonl", spec.name));
    let written = tr.write_jsonl(&file)?;
    eprintln!(
        "{} of {} spans written to {}",
        written,
        tr.spans.len(),
        file.display()
    );
    Ok(out)
}

/// `core.unattributed_frac`: the share of the median op time that
/// calls-per-op × probe time of index, storage, txn and persistence does
/// not cover — the façade's own cost plus whatever the probes miss. An
/// estimate: probes run cache-hot on their own small table.
fn unattributed(out: &mut Outcome, ctx: &Ctx, lat: &Latency, fences: &ProbeFences) {
    let v = &out.values;
    let g = |name: &str| v.get(name).unwrap_or(0.0);
    let spec = ctx.spec;
    let row = g("storage.row_values_main_ns");
    let read_model = [
        ("txn", g("txn.begin_ns")),
        (
            "index",
            if spec.ordered {
                g("index.nvordered_range100_ns")
            } else {
                g("index.nvhash_lookup_ns")
            },
        ),
        (
            "storage",
            row * if spec.ordered { RANGE_LEN as f64 } else { 1.0 },
        ),
        ("persistence", 0.0),
    ];
    let ingest = spec.ingests();
    let rows = if ingest { BATCH_ROWS as f64 } else { 1.0 };
    let index_insert = g("index.nvhash_insert_ns")
        + if spec.ordered {
            g("index.nvordered_insert_ns")
        } else {
            0.0
        };
    // Fences the probed calls issue themselves are already in their time;
    // only the rest (registry, commit publish) is charged at fence cost.
    let inside = rows * (fences.insert_version + fences.nvhash_insert)
        + if ingest { 0.0 } else { fences.invalidate }
        + if spec.ordered {
            fences.nvordered_insert
        } else {
            0.0
        };
    let outside = (g("nvm.fences_per_write") - inside).max(0.0);
    let write_model = [
        (
            "txn",
            g("txn.begin_ns")
                + if ingest {
                    g("txn.commit_256w_ns")
                } else {
                    g("txn.commit_1w_ns")
                },
        ),
        (
            "index",
            rows * index_insert
                + if ingest {
                    0.0
                } else {
                    g("index.nvhash_lookup_ns")
                },
        ),
        (
            "storage",
            rows * g("storage.insert_version_ns")
                + if ingest {
                    0.0
                } else {
                    row + g("storage.invalidate_ns")
                },
        ),
        ("persistence", outside * g("nvm.fence_ns")),
    ];
    // Weights: the share of reads and writes among the ops of a block.
    let write_share = match spec.block {
        BlockShape::Reads { .. } | BlockShape::Scans { .. } => 0.0,
        BlockShape::Mixed { .. } => 0.5,
        BlockShape::Ingest { .. } => 1.0,
    };
    let (mut measured, mut modelled) = (0.0, 0.0);
    for (kind, share, samples, model) in [
        ("read", 1.0 - write_share, &lat.read_p50_us, &read_model),
        ("write", write_share, &lat.write_p50_us, &write_model),
    ] {
        let m = min(samples) * 1e3;
        let covered: f64 = model.iter().map(|(_, ns)| ns).sum();
        measured += share * m;
        modelled += share * covered;
        let parts: Vec<String> = model
            .iter()
            .map(|(layer, ns)| format!("{layer} {:.3}", ns / 1e3))
            .collect();
        println!(
            "split {kind:<5} (weight {share:.2}) median {:.3} us = {} + unattributed {:.3}",
            m / 1e3,
            parts.join(" + "),
            (m - covered) / 1e3
        );
    }
    out.values
        .set("core.unattributed_frac", 1.0 - modelled / measured);
}
