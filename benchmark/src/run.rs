//! The phases every workload goes through — set-up, timed blocks, latency
//! rounds, kill and reopen, sweep — and the end-to-end metrics of an
//! untraced run. Every phase takes a `Tracer`; the untraced run passes
//! `NoTrace`, the traced run (`layers.rs`) passes `Spans`.

use std::time::Instant;

use nvm::StatsSnapshot;

use crate::engine::{Backend, Instance, Place, Sweep};
use crate::gen::{Op, Spec};
use crate::metrics::Values;
use crate::stats::{iqr_frac, median, min, percentile_sorted};
use crate::sys::thread_cpu_ns;
use crate::trace::{NoTrace, Tracer};
use crate::Res;

/// Set-ups per backend; `setup_s` sums the per-backend medians.
const SETUPS: usize = 3;
/// A run is this many cycles of: timed blocks on each backend and, on
/// `nvm`, latency windows, a merge, a kill and reopen cycles. Every metric
/// so draws its samples from windows spread over the whole run.
const CYCLES: usize = 5;
/// Kill -> open -> first verified query, this many times per cycle.
const REOPENS_PER_CYCLE: usize = 10;
const MAX_BLOCKS: usize = 4096;
/// Share of `--seconds` each backend's timed blocks get. The rest of a run
/// (set-up, latency windows, merges, reopen cycles, sweeps) is fixed work.
const SHARE: [(Backend, f64); 3] = [
    (Backend::Nvm, 0.45),
    (Backend::Wal, 0.30),
    (Backend::Volatile, 0.25),
];
/// The simulator oracle replays the workload at this fraction of its size.
const ORACLE_DIV: usize = 10;

pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    pub place: &'a Place,
    /// `--quick`: probes shrink as the workload did.
    pub quick: bool,
    /// Self-test hook: claim one more acknowledged write than was sent, so
    /// that the sweep must fail the run.
    pub inject_lost_write: bool,
}

/// A named pass/fail; any failure makes the run incorrect.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What a run hands to `main` for printing.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Fingerprint of the op stream up to the end of the first timed block.
    pub fingerprint: u64,
    pub cpu_wall_ratio: f64,
    pub block_iqr_frac: f64,
    /// The median over the same windows of every metric reported as the
    /// best of its windows; for the result file only.
    pub medians: Vec<(String, f64)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn tally(&mut self, s: &Section) {
        self.attempted += s.ops;
        self.failed += s.failed;
    }

    pub fn check_sweep(&mut self, name: &'static str, sweep: Sweep) {
        self.check(name, sweep.clean(), format!("{sweep:?}"));
    }
}

/// Counters of one run of consecutive ops.
#[derive(Default, Clone, Copy)]
pub struct Section {
    pub ops: u64,
    pub failed: u64,
    pub secs: f64,
    pub cpu_secs: f64,
    pub nvm: StatsSnapshot,
}

impl Section {
    pub fn add(&mut self, o: &Section) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.secs += o.secs;
        self.cpu_secs += o.cpu_secs;
        self.nvm = sum(&self.nvm, &o.nvm);
    }

    pub fn per_op(&self, count: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            count as f64 / self.ops as f64
        }
    }
}

fn sum(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        flush_calls: a.flush_calls + b.flush_calls,
        lines_flushed: a.lines_flushed + b.lines_flushed,
        fences: a.fences + b.fences,
        bytes_written: a.bytes_written + b.bytes_written,
        bytes_read: a.bytes_read + b.bytes_read,
        ..*a
    }
}

/// Ops per segment of a block that is timed in segments.
const SEGMENT_OPS: usize = 250;

/// Which clock readings the loop over a list of ops takes.
pub enum Clock<'a> {
    /// None inside the loop.
    Whole,
    /// One after every `SEGMENT_OPS` ops, around every merge and around
    /// every insert transaction; the segment times in seconds.
    Segments(&'a mut Vec<f64>),
    /// Around every op; the op times in nanoseconds.
    PerOp(&'a mut Vec<u64>),
}

/// End the current segment, unless no op has run in it yet.
fn cut(segments: &mut Vec<f64>, since: &mut Instant, ops: &mut usize) {
    if *ops > 0 {
        let now = Instant::now();
        segments.push((now - *since).as_secs_f64());
        (*since, *ops) = (now, 0);
    }
}

/// Run `ops` back to back under a span called `name`.
pub fn run_ops<T: Tracer>(
    inst: &mut Instance,
    ops: &[Op],
    name: &'static str,
    mut clock: Clock,
    tr: &mut T,
) -> Section {
    let mut failed = 0;
    inst.pristine = false;
    let nvm0 = inst.db().nvm_stats();
    let cpu0 = thread_cpu_ns();
    tr.open(name);
    let t0 = Instant::now();
    let (mut since, mut in_segment) = (t0, 0);
    for op in ops {
        let own_segment = matches!(op, Op::Merge | Op::Insert { .. });
        if let (Clock::Segments(segments), true) = (&mut clock, own_segment) {
            cut(segments, &mut since, &mut in_segment);
        }
        tr.open_op(op.kind());
        let res = match &mut clock {
            Clock::PerOp(samples) => {
                let t = Instant::now();
                let res = inst.exec(op, tr);
                samples.push(t.elapsed().as_nanos() as u64);
                res
            }
            _ => inst.exec(op, tr),
        };
        tr.close();
        if !matches!(res, Ok(n) if n == op.expect()) {
            failed += 1;
        }
        if let Clock::Segments(segments) = &mut clock {
            in_segment += 1;
            if own_segment || in_segment == SEGMENT_OPS {
                cut(segments, &mut since, &mut in_segment);
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    if let Clock::Segments(segments) = &mut clock {
        cut(segments, &mut since, &mut in_segment);
    }
    tr.close();
    Section {
        ops: ops.len() as u64,
        failed,
        secs,
        cpu_secs: (thread_cpu_ns() - cpu0) as f64 / 1e9,
        nvm: inst.db().nvm_stats().since(&nvm0),
    }
}

/// One timed block and what throughput counts in it.
pub struct BlockOut {
    pub section: Section,
    pub units: u64,
    pub writes: u64,
    /// The block's wall time, cut into segments where the block contains
    /// merges (one entry otherwise). Every block of a workload has the
    /// same shape, so entry `j` times the same work in each.
    pub segments: Vec<f64>,
}

impl BlockOut {
    pub fn units_per_s(&self) -> f64 {
        self.units as f64 / self.section.secs
    }
}

/// The timed blocks of one backend, over all cycles.
#[derive(Default)]
pub struct Throughput {
    pub blocks: Vec<BlockOut>,
    /// Set-up times of the instances built for blocks that start afresh.
    pub setups: Vec<f64>,
    /// Fingerprint of the op stream up to the end of the first block.
    pub fingerprint: u64,
}

impl Throughput {
    pub fn rates(&self) -> Vec<f64> {
        self.blocks.iter().map(BlockOut::units_per_s).collect()
    }

    pub fn total(&self) -> Section {
        let mut t = Section::default();
        self.blocks.iter().for_each(|b| t.add(&b.section));
        t
    }

    /// Units per second of a block rebuilt from the quietest run of each of
    /// its segments: for a block without merges, the rate of the fastest
    /// block.
    pub fn quiet_rate(&self) -> f64 {
        let segments = self.blocks.iter().map(|b| b.segments.len()).min();
        let quiet_secs: f64 = (0..segments.unwrap_or(0))
            .map(|j| {
                let times = self.blocks.iter().map(|b| b.segments[j]);
                times.fold(f64::INFINITY, f64::min)
            })
            .sum();
        self.blocks
            .first()
            .map_or(0.0, |b| b.units as f64 / quiet_secs)
    }
}

/// Timed blocks on `inst` until `budget_s` of wall time is used: at least
/// one, at most `max_blocks`. A block of an ingest workload starts on a
/// database set up afresh, which replaces `inst`.
pub fn throughput<T: Tracer>(
    ctx: &Ctx,
    inst: &mut Instance,
    budget_s: f64,
    max_blocks: usize,
    acc: &mut Throughput,
    tr: &mut T,
) -> Res<()> {
    let fresh = ctx.spec.ingests();
    let t0 = Instant::now();
    for _ in 0..max_blocks {
        if fresh && !inst.pristine {
            let (next, took) = Instance::setup(ctx.place, inst.backend, ctx.spec, ctx.seed)?;
            *inst = next;
            acc.setups.push(took.as_secs_f64());
        }
        let block = inst.gen.block();
        if acc.blocks.is_empty() {
            acc.fingerprint = inst.gen.fingerprint();
        }
        let mut segments = Vec::new();
        let section = if block.ops.iter().any(|o| matches!(o, Op::Merge)) {
            run_ops(
                inst,
                &block.ops,
                "block",
                Clock::Segments(&mut segments),
                tr,
            )
        } else {
            run_ops(inst, &block.ops, "block", Clock::Whole, tr)
        };
        if segments.is_empty() {
            segments.push(section.secs);
        }
        acc.blocks.push(BlockOut {
            section,
            units: block.units,
            writes: block.writes,
            segments,
        });
        if t0.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    Ok(())
}

/// The latency windows of all cycles. A window is one run of timed reads
/// or timed writes; its p50 and p99 are kept, not its samples.
#[derive(Default)]
pub struct Latency {
    pub read_p50_us: Vec<f64>,
    pub read_p99_us: Vec<f64>,
    pub write_p50_us: Vec<f64>,
    pub write_p99_us: Vec<f64>,
    pub merge_ms: Vec<f64>,
    pub reads: Section,
    pub writes: Section,
    pub merges: Section,
}

fn window(samples: &mut [u64], p50: &mut Vec<f64>, p99: &mut Vec<f64>) {
    samples.sort_unstable();
    p50.push(percentile_sorted(samples, 50.0) as f64 / 1e3);
    p99.push(percentile_sorted(samples, 99.0) as f64 / 1e3);
}

/// `lat_rounds` windows of timed reads, then as many of timed write
/// transactions, on whatever state the timed blocks left, then one timed
/// merge. Reads come first so that every read window sees the state the
/// last merge left, not the writes of the window before it.
pub fn latency<T: Tracer>(inst: &mut Instance, acc: &mut Latency, tr: &mut T) {
    let spec = inst.gen.spec.clone();
    let mut ns = Vec::new();
    for _ in 0..spec.lat_rounds {
        let reads: Vec<Op> = (0..spec.lat_reads).map(|_| inst.gen.lat_read()).collect();
        ns.clear();
        acc.reads.add(&run_ops(
            inst,
            &reads,
            "lat.reads",
            Clock::PerOp(&mut ns),
            tr,
        ));
        window(&mut ns, &mut acc.read_p50_us, &mut acc.read_p99_us);
    }
    for _ in 0..spec.lat_rounds {
        let writes: Vec<Op> = (0..spec.lat_writes).map(|_| inst.gen.lat_write()).collect();
        ns.clear();
        acc.writes.add(&run_ops(
            inst,
            &writes,
            "lat.writes",
            Clock::PerOp(&mut ns),
            tr,
        ));
        window(&mut ns, &mut acc.write_p50_us, &mut acc.write_p99_us);
    }
    ns.clear();
    acc.merges.add(&run_ops(
        inst,
        &[Op::Merge],
        "lat.merge",
        Clock::PerOp(&mut ns),
        tr,
    ));
    acc.merge_ms.push(ns[0] as f64 / 1e6);
}

/// Timings of the kill -> open -> first verified query cycles.
#[derive(Default)]
pub struct Restart {
    pub cycle_ms: Vec<f64>,
    pub heap_ms: Vec<f64>,
    pub catalogue_ms: Vec<f64>,
    pub undo_ms: Vec<f64>,
    pub first_query_ms: Vec<f64>,
    pub heap_blocks: u64,
    /// Cycles whose first query did not return the row the model expects.
    pub unverified: u64,
}

/// `cycles` times: drop the database without `shutdown()`, open it, find
/// the table, run one verified lookup. Leaves the instance open.
pub fn restart<T: Tracer>(
    inst: &mut Instance,
    cycles: usize,
    acc: &mut Restart,
    tr: &mut T,
) -> Res<()> {
    let key = inst.gen.live_rows() as i64 / 2;
    for _ in 0..cycles {
        inst.kill();
        tr.open("core.reopen");
        let t0 = Instant::now();
        let report = inst.reopen()?;
        for p in &report.phases {
            tr.child(p.name, p.wall.as_nanos() as u64);
            let ms = p.wall.as_secs_f64() * 1e3;
            if p.name.contains("heap") {
                acc.heap_ms.push(ms);
            } else if p.name.contains("catalogue") {
                acc.catalogue_ms.push(ms);
            } else if p.name.contains("undo") {
                acc.undo_ms.push(ms);
            }
        }
        let t1 = Instant::now();
        if !tr.call("core.reopen.first_query", || inst.verify_key(key))? {
            acc.unverified += 1;
        }
        acc.first_query_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        acc.cycle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.close();
        acc.heap_blocks = report.heap_blocks_scanned;
    }
    Ok(())
}

/// What one backend accumulates over the cycles of a run.
pub struct Lane {
    pub inst: Instance,
    pub thr: Throughput,
    pub lat: Latency,
    pub restart: Restart,
    /// The updates that left a live delta before each kill.
    pub tails: Section,
}

impl Lane {
    pub fn new(inst: Instance) -> Lane {
        Lane {
            inst,
            thr: Throughput::default(),
            lat: Latency::default(),
            restart: Restart::default(),
            tails: Section::default(),
        }
    }

    /// One cycle: timed blocks for `budget_s` and, on the `nvm` backend,
    /// latency windows, a merge, the updates that leave a live delta, a
    /// kill and the reopen cycles. The run continues on the reopened image.
    pub fn cycle<T: Tracer>(
        &mut self,
        ctx: &Ctx,
        budget_s: f64,
        max_blocks: usize,
        tr: &mut T,
    ) -> Res<()> {
        throughput(ctx, &mut self.inst, budget_s, max_blocks, &mut self.thr, tr)?;
        if self.inst.backend == Backend::Nvm {
            latency(&mut self.inst, &mut self.lat, tr);
            let tail = self.inst.gen.live_delta();
            self.tails.add(&run_ops(
                &mut self.inst,
                &tail.ops,
                "live_delta",
                Clock::Whole,
                tr,
            ));
            restart(&mut self.inst, REOPENS_PER_CYCLE, &mut self.restart, tr)?;
        }
        Ok(())
    }

    /// Every section of ops the lane ran.
    pub fn sections(&self) -> [Section; 5] {
        [
            self.thr.total(),
            self.lat.reads,
            self.lat.writes,
            self.lat.merges,
            self.tails,
        ]
    }
}

/// The durability oracle a process kill cannot give: replay the workload at
/// reduced size on the simulator, crash it so that every unflushed line is
/// dropped, recover, and count acknowledged writes that are gone.
pub fn sim_crash_lost_writes(ctx: &Ctx) -> Res<Sweep> {
    let spec = ctx.spec.scaled(ORACLE_DIV);
    let (mut inst, _) = Instance::setup(ctx.place, Backend::Sim, &spec, ctx.seed)?;
    let mut failed = 0;
    for _ in 0..2 {
        let block = inst.gen.block();
        failed += run_ops(&mut inst, &block.ops, "oracle", Clock::Whole, &mut NoTrace).failed;
    }
    let tail = inst.gen.live_delta();
    failed += run_ops(&mut inst, &tail.ops, "oracle", Clock::Whole, &mut NoTrace).failed;
    inst.db().restart_after_crash()?;
    let mut sweep = inst.sweep()?;
    sweep.lost += failed;
    Ok(sweep)
}

/// Set `backend` up `SETUPS` times; keep the last instance.
fn setups(ctx: &Ctx, backend: Backend) -> Res<(Instance, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (inst, took) = Instance::setup(ctx.place, backend, ctx.spec, ctx.seed)?;
        times.push(took.as_secs_f64());
        last = Some(inst);
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// The untraced run: every end-to-end metric of one workload.
///
/// A run's value is the best of its windows — the fastest block, the
/// quietest latency window, merge and reopen cycle. Other tenants of the
/// machine only ever slow a window down, and their bursts last seconds, so
/// the best of many windows spread over the run estimates the undisturbed
/// machine far more steadily than their median does (the medians go into
/// the result file beside it).
pub fn end_to_end(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut lanes = Vec::new();
    let mut setup_times = Vec::new();
    for (backend, _) in SHARE {
        let (inst, times) = setups(ctx, backend)?;
        lanes.push(Lane::new(inst));
        setup_times.push(times);
    }
    for _ in 0..CYCLES {
        for (lane, (_, share)) in lanes.iter_mut().zip(SHARE) {
            let budget_s = ctx.seconds * share / CYCLES as f64;
            lane.cycle(ctx, budget_s, MAX_BLOCKS, &mut NoTrace)?;
        }
    }

    let (mut cpu, mut wall, mut setup_s) = (0.0, 0.0, 0.0);
    for (lane, times) in lanes.iter_mut().zip(&mut setup_times) {
        let backend = lane.inst.backend;
        times.extend(&lane.thr.setups);
        setup_s += median(times);
        let rates = lane.thr.rates();
        out.values.set(
            &format!("ops_per_s.{}", backend.name()),
            lane.thr.quiet_rate(),
        );
        out.medians
            .push((format!("ops_per_s.{}", backend.name()), median(&rates)));
        eprintln!(
            "{}: set-up {:.3} s (median of {}), {} blocks in {:.2} s",
            backend.name(),
            median(times),
            times.len(),
            rates.len(),
            lane.thr.total().secs
        );
        for s in lane.sections() {
            out.tally(&s);
        }
        if backend != Backend::Wal {
            // A log sync waits for a device; the other two only compute.
            cpu += lane.thr.total().cpu_secs;
            wall += lane.thr.total().secs;
        }
        if ctx.inject_lost_write && backend == Backend::Volatile {
            lane.inst.gen.inject_lost_write(0);
        }
        out.check_sweep("post_run_sweep", lane.inst.sweep()?);
    }
    out.values.set("setup_s", setup_s);
    out.cpu_wall_ratio = cpu / wall;

    let nvm = &mut lanes[0];
    out.fingerprint = nvm.thr.fingerprint;
    out.block_iqr_frac = iqr_frac(&nvm.thr.rates());
    let quiet = nvm
        .thr
        .blocks
        .iter()
        .filter(|b| b.writes == 0)
        .all(|b| b.section.nvm.fences == 0 && b.section.nvm.bytes_written == 0);
    out.check(
        "read_blocks_write_nothing",
        quiet,
        "blocks without a write op fence nothing and store nothing".into(),
    );
    let lat = &nvm.lat;
    for (name, windows) in [
        ("read_p50_us.nvm", &lat.read_p50_us),
        ("read_p99_us.nvm", &lat.read_p99_us),
        ("write_p50_us.nvm", &lat.write_p50_us),
        ("write_p99_us.nvm", &lat.write_p99_us),
        ("merge_pause_ms.nvm", &lat.merge_ms),
        ("reopen_ms.nvm", &nvm.restart.cycle_ms),
    ] {
        out.values.set(name, min(windows));
        out.medians.push((name.to_string(), median(windows)));
    }
    out.values.set(
        "fences_per_write.nvm",
        lat.writes.per_op(lat.writes.nvm.fences),
    );
    out.check(
        "reads_fence_nothing",
        lat.reads.nvm.fences == 0,
        format!(
            "{} fences in {} timed reads",
            lat.reads.nvm.fences, lat.reads.ops
        ),
    );
    out.check(
        "reopen_first_query",
        nvm.restart.unverified == 0,
        "first lookup after every reopen returns the acknowledged row".into(),
    );
    // The last cycle ended in a reopen: this sweep is the post-reopen one,
    // over a live delta where the workload leaves one.
    let heap = nvm
        .inst
        .db()
        .heap_stats()
        .ok_or("nvm backend without a heap")?;
    out.values.set(
        "nvm_bytes_per_user_byte",
        (heap.high_water - heap.free_bytes) as f64 / nvm.inst.gen.user_bytes() as f64,
    );
    drop(lanes);

    out.check_sweep("sim_crash_lost_writes", sim_crash_lost_writes(ctx)?);
    Ok(out)
}
