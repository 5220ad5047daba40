//! The one torture harness: the seeded workload, the commit-ledger oracle,
//! the four-invariant check, fault targeting, repro artifacts and the crash
//! and media-fault scenarios shared by the suites under `tests/`, the
//! kill(-9) child (`torture_child`) and the A4–A7 sweeps — a table in
//! EXPERIMENTS.md and a red X in CI judge a seed through the same code.
//!
//! Everything here is a pure function of the seed: the same transactions,
//! the same begin/commit sequence and therefore the same commit-timestamp
//! ledger on every backend. That is what lets a parent process reconstruct
//! the oracle for a child it killed without ever seeing its memory.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvm::{
    AllocFaultClass, AllocFaultSpec, CrashPoint, FaultClass, FaultSpec, LatencyModel, NvmRegion,
    TraceConfig, CACHE_LINE,
};
use storage::nv::MediaExtent;
use storage::{ColumnDef, DataType, Schema, Value};
use util::rng::{Rng, SmallRng};

use crate::{Database, DurabilityConfig, EngineError, IndexKind, RecoveryReport, Result, TableId};

/// Key → version oracle of the committed state.
pub type Oracle = BTreeMap<i64, i64>;

/// The commit ledger: `(cts, state after that commit)`; entry 0 is the
/// state before the workload.
pub type Ledger = Vec<(u64, Oracle)>;

/// One operation of a torture transaction.
#[derive(Debug, Clone)]
pub enum TortureOp {
    /// Insert `key` with version 0 (skipped if present).
    Insert {
        /// Row key.
        key: i64,
    },
    /// Bump `key` to `version` (skipped if absent).
    Update {
        /// Row key.
        key: i64,
        /// New version value.
        version: i64,
    },
    /// Remove `key` (skipped if absent).
    Delete {
        /// Row key.
        key: i64,
    },
}

/// One torture transaction: a short op list plus its commit/abort verdict.
#[derive(Debug, Clone)]
pub struct TortureTxn {
    /// Operations in order.
    pub ops: Vec<TortureOp>,
    /// True to commit, false to abort.
    pub commit: bool,
}

/// Deterministic workload for a case seed: a mix of multi-op transactions
/// over a wide key space, with aborts sprinkled in.
pub fn gen_workload(seed: u64) -> Vec<TortureTxn> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ntxns = rng.gen_range_usize(10, 26);
    (0..ntxns)
        .map(|_| {
            let nops = rng.gen_range_usize(1, 6);
            let ops = (0..nops)
                .map(|_| {
                    let key = rng.gen_range_i64(0, 1000);
                    match rng.gen_range_u64(0, 3) {
                        0 => TortureOp::Insert { key },
                        1 => TortureOp::Update {
                            key,
                            version: rng.next_u64() as i64 & 0xFFFF,
                        },
                        _ => TortureOp::Delete { key },
                    }
                })
                .collect();
            TortureTxn {
                ops,
                commit: rng.gen_bool(0.8),
            }
        })
        .collect()
}

/// The two-column `(k, ver)` schema every torture table uses.
pub fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("ver", DataType::Int),
    ])
}

/// The simulated-NVM device the in-process scenarios run on: 16 MiB, zero
/// latency; `wal` adds the shadow log, i.e. the full recovery ladder.
pub fn sim_config(wal: bool) -> DurabilityConfig {
    let config = [DurabilityConfig::nvm, DurabilityConfig::nvm_with_wal][wal as usize];
    config(16 << 20, LatencyModel::zero())
}

/// A fresh database holding the torture table `t` with a hash index on `k`
/// and an ordered index on `ver` — created in this order on every backend
/// so the engines consume identical timestamp/heap sequences.
pub fn setup(config: DurabilityConfig) -> Result<(Database, TableId)> {
    let mut db = Database::create(config)?;
    let t = db.create_table("t", schema())?;
    db.create_index(t, 0, IndexKind::Hash)?;
    db.create_index(t, 1, IndexKind::Ordered)?;
    Ok((db, t))
}

/// Run the workload, recording the `(cts, oracle)` ledger entry after every
/// commit. The `heartbeat` callback fires after each transaction (commit or
/// abort) with the transaction index and the last durable cts — the child
/// process uses it to emit progress lines the parent can pace asynchronous
/// kills against.
pub fn apply_workload(
    db: &mut Database,
    t: TableId,
    txns: &[TortureTxn],
    snaps: &mut Ledger,
    mut heartbeat: impl FnMut(usize, u64),
) -> Result<()> {
    let mut oracle = snaps.last().map(|(_, o)| o.clone()).unwrap_or_default();
    for (i, txn) in txns.iter().enumerate() {
        let mut shadow = oracle.clone();
        let mut tx = db.begin();
        for op in &txn.ops {
            match op {
                TortureOp::Insert { key } => {
                    if !shadow.contains_key(key) {
                        db.insert(&mut tx, t, &[Value::Int(*key), Value::Int(0)])?;
                        shadow.insert(*key, 0);
                    }
                }
                TortureOp::Update { key, version } => {
                    let hits = db.scan_eq(&tx, t, 0, &Value::Int(*key))?;
                    if let Some(hit) = hits.first() {
                        let row = [Value::Int(*key), Value::Int(*version)];
                        db.update(&mut tx, t, hit.row, &row)?;
                        shadow.insert(*key, *version);
                    }
                }
                TortureOp::Delete { key } => {
                    let hits = db.scan_eq(&tx, t, 0, &Value::Int(*key))?;
                    if let Some(hit) = hits.first() {
                        db.delete(&mut tx, t, hit.row)?;
                        shadow.remove(key);
                    }
                }
            }
        }
        if txn.commit {
            let cts = db.commit(&mut tx)?;
            oracle = shadow;
            snaps.push((cts, oracle.clone()));
        } else {
            db.abort(&mut tx)?;
        }
        let last = snaps.last().map(|(c, _)| *c).unwrap_or(0);
        heartbeat(i, last);
    }
    Ok(())
}

/// Commit 12 insert-only transactions (≤ 10 fresh keys of 0..4000 each,
/// seeded versions), merging after the 7th when `merge`: a checksummed main
/// partition under a live delta — the layout media faults are aimed at.
/// Returns the ledger entry `(last cts, committed state)`.
pub fn preload(db: &mut Database, t: TableId, seed: u64, merge: bool) -> Result<(u64, Oracle)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = Oracle::new();
    let mut cts = 0;
    for txn_i in 0..12 {
        let mut tx = db.begin();
        for _ in 0..10 {
            let key = rng.gen_range_i64(0, 4000);
            if oracle.contains_key(&key) {
                continue;
            }
            let ver = rng.next_u64() as i64 & 0xFFFF;
            db.insert(&mut tx, t, &[Value::Int(key), Value::Int(ver)])?;
            oracle.insert(key, ver);
        }
        cts = db.commit(&mut tx)?;
        if merge && txn_i == 6 {
            db.merge(t)?;
        }
    }
    Ok((cts, oracle))
}

/// Scan the engine's visible state into an oracle map.
pub fn engine_state(db: &mut Database, t: TableId) -> Result<Oracle> {
    let tx = db.begin();
    Ok(db
        .scan_all(&tx, t)?
        .into_iter()
        .filter_map(|r| Some((r.values[0].as_int()?, r.values[1].as_int()?)))
        .collect())
}

/// An invariant violation found by [`check_invariants`] or a scenario.
#[derive(Debug)]
pub struct TortureViolation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable diagnosis, starting with the seed.
    pub detail: String,
}

fn violation(invariant: &'static str, seed: u64, detail: String) -> TortureViolation {
    let detail = format!("seed {seed:#x}: {detail}");
    TortureViolation { invariant, detail }
}

/// Check the four crash-torture invariants against a recovered database:
/// committed-prefix durability, no uncommitted effects, allocator
/// leak-freedom, and index↔table agreement. `last_cts` is the watermark the
/// recovery reported; `snaps` is the seeded commit ledger. Returns the
/// visible state the checks passed on.
pub fn check_invariants(
    db: &mut Database,
    t: TableId,
    snaps: &[(u64, Oracle)],
    last_cts: u64,
    seed: u64,
) -> std::result::Result<Oracle, TortureViolation> {
    let Some((_, expected)) = snaps.iter().rev().find(|(cts, _)| *cts <= last_cts) else {
        let detail = format!("recovered last_cts {last_cts} matches no ledger entry");
        return Err(violation("committed-prefix", seed, detail));
    };
    let got = engine_state(db, t)
        .map_err(|e| violation("committed-prefix", seed, format!("scan failed: {e}")))?;
    if got != *expected {
        let missing: Vec<_> = expected.keys().filter(|k| !got.contains_key(k)).collect();
        let extra: Vec<_> = got.keys().filter(|k| !expected.contains_key(k)).collect();
        let inv = if extra.is_empty() {
            "committed-prefix-durability"
        } else {
            "no-uncommitted-effects"
        };
        let detail = format!(
            "state diverges at last_cts {last_cts}: {} rows expected, {} visible; missing \
             {missing:?}, extra {extra:?}",
            expected.len(),
            got.len()
        );
        return Err(violation(inv, seed, detail));
    }

    let integrity = db
        .verify_integrity()
        .map_err(|e| violation("integrity-check", seed, format!("verify_integrity: {e}")))?;
    let broken = if integrity.heap_limbo_blocks != 0 {
        "allocator-leak-free"
    } else if !integrity.mvcc.is_clean() {
        "no-uncommitted-effects"
    } else if !integrity.index.is_clean() {
        "index-table-agreement"
    } else {
        return Ok(got);
    };
    Err(violation(broken, seed, integrity.render()))
}

/// The extents a media fault may be aimed at: checksummed, so every
/// content-destroying hit must be detected, and spanning ≥ 3 cache lines,
/// so they have an interior line.
pub fn fault_extents(db: &Database, t: TableId) -> Result<Vec<MediaExtent>> {
    let mut extents = db.media_extents(t)?;
    extents.retain(|e| e.checksummed && e.len >= 3 * CACHE_LINE);
    Ok(extents)
}

/// Aim `class` at a random interior slice of a random extent of
/// [`fault_extents`] — interior cache lines only, so line-granular damage
/// cannot spill into a neighbouring structure that shares the extent's edge
/// lines; scribbles are cut to end inside the extent. The layout is a pure
/// function of the workload seed, so two runs of one scenario pick the same
/// target. Returns the spec and the extent's label.
pub fn aim_fault(
    db: &Database,
    t: TableId,
    rng: &mut SmallRng,
    class: FaultClass,
    seed: u64,
) -> Result<(FaultSpec, &'static str)> {
    let extents = fault_extents(db, t)?;
    if extents.is_empty() {
        let why = "workload must produce checksummed extents spanning ≥3 cache lines";
        return Err(EngineError::Unsupported(why));
    }
    let e = extents[rng.gen_range_usize(0, extents.len())];
    let (lo, hi) = (e.offset + CACHE_LINE, e.offset + e.len - CACHE_LINE);
    let offset = lo + rng.gen_range_u64(0, hi - lo);
    let class = match class {
        FaultClass::ScribbledBlock { len } => FaultClass::ScribbledBlock {
            len: len.min((hi - offset).max(8)),
        },
        c => c,
    };
    let spec = FaultSpec {
        class,
        offset,
        seed,
    };
    Ok((spec, e.what))
}

/// `results/<name>` under the workspace root (the directory is created).
pub fn results_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

/// Record a failing `(suite, seed)` in `results/<file>` so it reproduces
/// with one targeted run; deduped and bounded by [`util::repro`].
pub fn write_repro(file: &str, suite: &str, seed: u64, extra: &[(&str, &str)]) {
    util::repro::write(&results_path(file), suite, seed, extra.iter().copied());
}

/// A suite's scale knob: `name` from the environment, else `default`.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The live half of a scenario, up to the instant of the crash: the engine
/// (crash armed, not yet materialized), its table, its region with the
/// persist trace running, and the run's commit ledger.
pub type Run = (Database, TableId, Arc<NvmRegion>, Ledger);

/// Set up `config` (NVM-backed), trace, arm `p0` and apply `txns`. Under an
/// `adversity` the run starts from [`preload`]ed merged data — loaded before
/// the trace starts, so it shifts no fence numbering — and ends with the
/// adversity planted, ready for the crash. With `p0 = None` this is the
/// reference run whose `region.trace_stop()` yields the workload's fence
/// budget.
pub fn traced_run(
    config: DurabilityConfig,
    seed: u64,
    txns: &[TortureTxn],
    adversity: Adversity,
    p0: Option<CrashPoint>,
) -> Result<Run> {
    let faulty = adversity != Adversity::None;
    let (mut db, t) = setup(config)?;
    let mut snaps = vec![match faulty {
        true => preload(&mut db, t, seed, true)?,
        false => (0, Oracle::new()),
    }];
    let nvm_only = EngineError::Unsupported("traced scenarios run on NVM");
    let region = db.nv_backend().ok_or(nvm_only)?.region().clone();
    region.trace_start(TraceConfig { keep_events: false });
    if let Some(p0) = p0 {
        region.arm_crash(p0)?;
    }
    apply_workload(&mut db, t, txns, &mut snaps, |_, _| {})?;
    if faulty {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA01_7A6E);
        let class = FaultClass::ScribbledBlock { len: 96 };
        let (spec, _) = aim_fault(&db, t, &mut rng, class, seed)?;
        region.inject_fault(&spec)?;
    }
    if adversity == Adversity::MediaFaultThenAllocFault {
        let class = AllocFaultClass::FailNth { nth: 0 };
        db.arm_alloc_fault(AllocFaultSpec { class, seed })?;
    }
    Ok((db, t, region, snaps))
}

/// One instance of a write-side protocol, short enough that *every* crash
/// point inside it can be enumerated rather than sampled (see
/// [`protocol_scenario`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolOp {
    /// One `Database::merge` of a table with a main, a delta holding
    /// updated and deleted versions, and both indexes.
    Merge,
    /// One committed single-row update transaction.
    Update,
    /// One committed transaction inserting 256 fresh rows.
    Insert256,
}

/// The first half of [`protocol_scenario`]: [`setup`], then 40 committed
/// rows, a merge, 13 updates and 7 deletes (so the table has a main, a live
/// delta with dead versions, and indexes built once in bulk and grown by
/// inserts since), then — traced, with `p0` armed — the one `op`. With
/// `p0 = None` this is the reference run whose `region.trace_stop()` yields
/// the op's fence budget.
pub fn protocol_run(
    config: DurabilityConfig,
    seed: u64,
    op: ProtocolOp,
    p0: Option<CrashPoint>,
) -> Result<Run> {
    let (mut db, t) = setup(config)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = Oracle::new();
    let mut cts = 0;
    let row = |k: i64, v: i64| [Value::Int(k), Value::Int(v)];
    let live_row = |db: &Database, tx: &txn::Transaction, k: i64| -> Result<storage::RowId> {
        let hits = db.index_lookup(tx, t, 0, &Value::Int(k))?;
        let hit = hits.first();
        Ok(hit.ok_or(EngineError::Unsupported("preloaded key"))?.row)
    };
    for chunk in 0..4i64 {
        let mut tx = db.begin();
        for k in chunk * 10..chunk * 10 + 10 {
            let ver = rng.next_u64() as i64 & 0xFFFF;
            db.insert(&mut tx, t, &row(k, ver))?;
            oracle.insert(k, ver);
        }
        cts = db.commit(&mut tx)?;
    }
    db.merge(t)?;
    for k in (0..40i64).filter(|k| k % 2 == 0) {
        let mut tx = db.begin();
        let hit = live_row(&db, &tx, k)?;
        if k % 6 == 0 {
            db.delete(&mut tx, t, hit)?;
            oracle.remove(&k);
        } else {
            let ver = rng.next_u64() as i64 & 0xFFFF;
            db.update(&mut tx, t, hit, &row(k, ver))?;
            oracle.insert(k, ver);
        }
        cts = db.commit(&mut tx)?;
    }
    let mut snaps = vec![(cts, oracle.clone())];

    let nvm_only = EngineError::Unsupported("traced scenarios run on NVM");
    let region = db.nv_backend().ok_or(nvm_only)?.region().clone();
    region.trace_start(TraceConfig { keep_events: false });
    if let Some(p0) = p0 {
        region.arm_crash(p0)?;
    }
    match op {
        ProtocolOp::Merge => {
            db.merge(t)?;
        }
        ProtocolOp::Update => {
            let mut tx = db.begin();
            let hit = live_row(&db, &tx, 7)?;
            db.update(&mut tx, t, hit, &row(7, -1))?;
            oracle.insert(7, -1);
            snaps.push((db.commit(&mut tx)?, oracle));
        }
        ProtocolOp::Insert256 => {
            let mut tx = db.begin();
            for k in 1000..1256i64 {
                db.insert(&mut tx, t, &row(k, k % 97))?;
                oracle.insert(k, k % 97);
            }
            snaps.push((db.commit(&mut tx)?, oracle));
        }
    }
    Ok((db, t, region, snaps))
}

/// The enumeration scenario of the crash-torture suite: [`protocol_run`]
/// crashed at `p0`, recovered, and checked against the four invariants —
/// which include index↔table agreement, so a merge that published its
/// table without its indexes fails here.
pub fn protocol_scenario(
    config: DurabilityConfig,
    seed: u64,
    op: ProtocolOp,
    p0: CrashPoint,
) -> std::result::Result<Recovered, TortureViolation> {
    let (mut db, t, _, snaps) = protocol_run(config, seed, op, Some(p0))
        .map_err(|e| violation("harness", seed, e.to_string()))?;
    let t0 = Instant::now();
    let report = db
        .restart_scheduled()
        .map_err(|e| violation("recovery", seed, format!("recovery failed: {e}")))?;
    let wall = t0.elapsed();
    Ok(Recovered {
        state: check_invariants(&mut db, t, &snaps, report.last_cts, seed)?,
        report,
        wall,
    })
}

/// Adversity a [`traced_run`] plants between its workload and the crash, for
/// the recoveries of a [`crash_scenario`] to face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversity {
    /// A plain crash.
    None,
    /// Scribble a checksummed extent in *both* images, so the damage survives
    /// the crash and every recovery of the chain faces the same media.
    MediaFault,
    /// Additionally arm a one-shot allocation fault: the first recovery that
    /// needs heap space (the media repair) fails and the next cycle retries.
    MediaFaultThenAllocFault,
}

/// What a scenario recovered to.
pub struct Recovered {
    /// The terminal recovery's report, nested recoveries' lints prepended.
    pub report: RecoveryReport,
    /// Wall time of the terminal recovery.
    pub wall: Duration,
    /// The visible state the invariants were checked on.
    pub state: Oracle,
}

/// The crash scenario of the crash- and recovery-torture suites, the A4 and
/// A7 sweeps and the sim side of real-crash conformance: run `txns` crashed
/// at `p0`, spend one power cycle per `nested` point (each traced restart
/// materializes the previous crash and arms the next inside its own
/// recovery), recover, check the four invariants. Comparing a chain with
/// its `nested = &[]` oracle run (convergence) is the caller's job.
pub fn crash_scenario(
    config: DurabilityConfig,
    seed: u64,
    txns: &[TortureTxn],
    p0: CrashPoint,
    nested: &[CrashPoint],
    adversity: Adversity,
) -> std::result::Result<Recovered, TortureViolation> {
    let (mut db, t, _, snaps) = traced_run(config, seed, txns, adversity, Some(p0))
        .map_err(|e| violation("harness", seed, e.to_string()))?;
    let mut lints = Vec::new();
    for p in nested {
        match db.restart_scheduled_traced(Some(*p)) {
            Ok(rep) => lints.extend(rep.lint_findings),
            // The one-shot allocation fault fired: the failed attempt leaves
            // the trace active and the crashed image untouched, and the next
            // power cycle retries.
            Err(_) if adversity == Adversity::MediaFaultThenAllocFault => {}
            Err(e) => return Err(violation("recovery", seed, format!("nested recovery: {e}"))),
        }
    }
    let t0 = Instant::now();
    let mut report = db
        .restart_scheduled()
        .map_err(|e| violation("recovery", seed, format!("recovery failed: {e}")))?;
    let wall = t0.elapsed();
    lints.append(&mut report.lint_findings);
    report.lint_findings = lints;
    Ok(Recovered {
        state: check_invariants(&mut db, t, &snaps, report.last_cts, seed)?,
        report,
        wall,
    })
}

/// The media-fault scenario of the fault-torture suite and the A5 sweep:
/// plant `rate` faults of `class` in [`preload`]ed data (merged on even
/// seeds) on NVM + shadow WAL and check (1) no silent corruption — under
/// clean media verification a successful read-back is exactly the committed
/// state — and (2) self-healing — a restart restores that state with media
/// and invariants clean. Also returns whether verification saw the damage.
pub fn fault_scenario(
    class: FaultClass,
    rate: u32,
    seed: u64,
) -> std::result::Result<(bool, Recovered), TortureViolation> {
    let faulted = || -> Result<(Database, TableId, (u64, Oracle), String)> {
        let (mut db, t) = setup(sim_config(true))?;
        let loaded = preload(&mut db, t, seed, seed & 1 == 0)?;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA01_7A6E);
        let mut aimed = String::new();
        for _ in 0..rate {
            let (spec, what) = aim_fault(&db, t, &mut rng, class, seed)?;
            let nvm_only = EngineError::Unsupported("sim_config is NVM-backed");
            let backend = db.nv_backend().ok_or(nvm_only)?;
            backend.region().inject_fault(&spec)?;
            aimed += &format!("{spec} in {what:?}, ");
        }
        Ok((db, t, loaded, aimed))
    };
    let (mut db, t, loaded, aimed) =
        faulted().map_err(|e| violation("harness", seed, e.to_string()))?;
    // Verification first (it is the detection point), then a full read-back
    // either way; a typed read error is an acceptable outcome.
    let detected = db.verify_media().is_err();
    let read = engine_state(&mut db, t);
    if !detected && read.is_ok_and(|state| state != loaded.1) {
        let detail = format!("{aimed}wrong data read back, media verification clean");
        return Err(violation("no-silent-corruption", seed, detail));
    }
    let t0 = Instant::now();
    let report = db
        .restart_after_crash()
        .map_err(|e| violation("recovery", seed, format!("{aimed}recovery failed: {e}")))?;
    let wall = t0.elapsed();
    let state = check_invariants(&mut db, t, &[loaded], u64::MAX, seed).map_err(|mut v| {
        v.detail = format!("{aimed}rung {}: {}", report.rung, v.detail);
        v
    })?;
    let verified = db.verify_media();
    if !verified.as_ref().is_ok_and(|structures| *structures > 0) {
        let detail = format!("{aimed}after recovery: verify_media = {verified:?}");
        return Err(violation("media-clean", seed, detail));
    }
    let rec = Recovered {
        report,
        wall,
        state,
    };
    Ok((detected, rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeds keep their meaning: op lists and commit flags of three seeds
    /// the suites run, fingerprinted at the commit before the fold.
    #[test]
    fn workload_is_deterministic() {
        let fingerprint = |seed| util::hash::fnv1a(format!("{:?}", gen_workload(seed)).as_bytes());
        assert_eq!(fingerprint(0x7011_7012), 0x514f_4657_8308_924d);
        assert_eq!(fingerprint(0x4EA1_0C11), 0xa140_eade_f8d8_53a8);
        assert_eq!(fingerprint(0xA7_0001), 0x25e5_eac0_049f_8ae5);
    }

    #[test]
    fn ledger_matches_engine_on_sim_backend() {
        let (config, txns) = (sim_config(false), gen_workload(7));
        let (mut db, t, _, snaps) = traced_run(config, 7, &txns, Adversity::None, None).unwrap();
        let last = snaps.last().unwrap();
        assert_eq!(engine_state(&mut db, t).unwrap(), last.1);
        check_invariants(&mut db, t, &snaps, last.0, 7).unwrap();
        // A watermark no ledger entry covers is a violation through the one
        // checker — never "the empty state", as the A4 sweep once had it.
        let v = check_invariants(&mut db, t, &snaps[1..], 0, 7).unwrap_err();
        assert_eq!(v.invariant, "committed-prefix");
    }
}
