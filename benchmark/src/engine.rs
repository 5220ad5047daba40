//! One database instance under test: where its bytes live, how it is set
//! up, how one generated op is run against the `Database` façade, and how
//! its contents are compared with the generator's shadow model.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hyrise_nv::{Database, DurabilityConfig, EngineError, IndexKind, RecoveryReport, TableId};
use hyrise_nv::{Result as EngineResult, WalConfig};
use nvm::LatencyModel;
use storage::{ColumnDef, DataType, Schema, Value};

use crate::gen::{Gen, Op, Spec};
use crate::sys::Memfd;
use crate::trace::Tracer;
use crate::Res;

pub const TABLE: &str = "usertable";
/// Capacity of the mapped image; pages are only backed once touched.
const IMAGE_BYTES: u64 = 1 << 30;
/// Capacity of the simulator region of the durability oracle.
const SIM_BYTES: u64 = 256 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `DurabilityConfig::NvmFile`: a `MAP_SHARED` mapping, every fence an
    /// `msync(MS_SYNC)`.
    Nvm,
    /// `DurabilityConfig::Wal`, every commit an `fsync`.
    Wal,
    Volatile,
    /// `DurabilityConfig::Nvm`, the simulator, whose crash drops every
    /// unflushed line (only the durability oracle uses it).
    Sim,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Nvm => "nvm",
            Backend::Wal => "wal",
            Backend::Volatile => "volatile",
            Backend::Sim => "sim",
        }
    }
}

/// Where instances keep their files.
pub struct Place {
    /// The benchmark's output directory; the WAL lives below it.
    pub out: PathBuf,
    /// `--dir`: keep the NVM image in a named file there (and the WAL
    /// beside it) instead of an anonymous memory file.
    pub dir: Option<PathBuf>,
}

impl Place {
    pub fn medium(&self) -> String {
        match &self.dir {
            Some(d) => format!("file:{}", d.display()),
            None => "memfd".to_string(),
        }
    }

    fn fresh_path(&self, what: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.dir
            .as_ref()
            .unwrap_or(&self.out)
            .join(format!("{what}-{}-{n}", std::process::id()))
    }
}

pub struct Instance {
    pub backend: Backend,
    /// `None` between a kill and the next reopen.
    db: Option<Database>,
    pub table: TableId,
    pub gen: Gen,
    /// No op has run since set-up.
    pub pristine: bool,
    cfg: DurabilityConfig,
    _image: Option<Memfd>,
    /// Files to delete when the instance goes away.
    litter: Option<PathBuf>,
}

impl Drop for Instance {
    fn drop(&mut self) {
        self.db = None;
        if let Some(p) = &self.litter {
            let _ = if p.is_dir() {
                std::fs::remove_dir_all(p)
            } else {
                std::fs::remove_file(p)
            };
        }
    }
}

impl Instance {
    /// Create the database, table and indexes, load and merge the
    /// workload's rows; checkpoint the WAL backend. Returns the instance
    /// and how long all of that took (row generation excluded).
    pub fn setup(
        place: &Place,
        backend: Backend,
        spec: &Spec,
        seed: u64,
    ) -> Res<(Instance, Duration)> {
        let mut gen = Gen::new(spec, seed);
        let load = gen.load();
        let (mut image, mut litter) = (None, None);
        let cfg = match backend {
            Backend::Nvm => {
                let path = match &place.dir {
                    Some(_) => litter.insert(place.fresh_path("image")).clone(),
                    None => image.insert(Memfd::new()?).path(),
                };
                DurabilityConfig::nvm_file(path, IMAGE_BYTES, LatencyModel::zero())
            }
            Backend::Wal => DurabilityConfig::Wal(WalConfig {
                dir: litter.insert(place.fresh_path("wal")).clone(),
                sync_latency_ns: 0,
                sync_every_n_commits: 1,
            }),
            Backend::Volatile => DurabilityConfig::Volatile,
            Backend::Sim => DurabilityConfig::nvm(SIM_BYTES, LatencyModel::zero()),
        };
        let t0 = Instant::now();
        let mut db = Database::create(cfg.clone())?;
        let table = db.create_table(
            TABLE,
            Schema::new(vec![
                ColumnDef::new("key", DataType::Int),
                ColumnDef::new("payload", DataType::Text),
            ]),
        )?;
        db.create_index(table, 0, IndexKind::Hash)?;
        if spec.ordered {
            db.create_index(table, 0, IndexKind::Ordered)?;
        }
        for op in &load.ops {
            let n = exec(&mut db, table, op, &mut crate::trace::NoTrace)?;
            if n != op.expect() {
                return Err(format!("set-up {} touched {n} rows", op.kind()).into());
            }
        }
        db.checkpoint()?;
        let took = t0.elapsed();
        Ok((
            Instance {
                backend,
                db: Some(db),
                table,
                gen,
                pristine: true,
                cfg,
                _image: image,
                litter,
            },
            took,
        ))
    }

    pub fn db(&mut self) -> &mut Database {
        self.db.as_mut().expect("database is open")
    }

    pub fn cfg(&self) -> &DurabilityConfig {
        &self.cfg
    }

    /// Run one op; `Err` or a row count other than `op.expect()` is a
    /// failed op.
    pub fn exec<T: Tracer>(&mut self, op: &Op, tr: &mut T) -> EngineResult<usize> {
        let table = self.table;
        exec(self.db(), table, op, tr)
    }

    /// What SIGKILL leaves: the mapping is gone and nothing was shut down,
    /// while the page cache (here: the memory file) keeps every byte.
    pub fn kill(&mut self) {
        self.db = None;
    }

    /// `Database::open` on the image a kill left behind.
    pub fn reopen(&mut self) -> Res<RecoveryReport> {
        let (db, report) = Database::open(self.cfg.clone())?;
        self.table = db.table_id(TABLE).ok_or("table lost by reopen")?;
        self.db = Some(db);
        Ok(report)
    }

    /// Clean shutdown, leaving the instance as after a kill.
    pub fn shutdown(&mut self) -> Res<()> {
        Ok(self.db.take().expect("database is open").shutdown()?)
    }

    /// One verified point lookup: exactly one row, holding the payload the
    /// model expects.
    pub fn verify_key(&mut self, key: i64) -> Res<bool> {
        let expected = self.gen.expected(key).ok_or("key outside the model")?;
        let table = self.table;
        let db = self.db();
        let tx = db.begin();
        let hits = db.index_lookup(&tx, table, 0, &Value::Int(key))?;
        Ok(hits.len() == 1 && hits[0].values.get(1) == Some(&Value::Text(expected)))
    }

    /// Compare every key with the shadow model. `lost` counts keys whose
    /// acknowledged version is not what a lookup returns, `phantom` rows
    /// visible beyond the model.
    pub fn sweep(&mut self) -> Res<Sweep> {
        let mut out = Sweep::default();
        let live = self.gen.live_rows();
        for key in 0..live as i64 {
            if !self.verify_key(key)? {
                out.lost += 1;
            }
        }
        let table = self.table;
        let db = self.db();
        let tx = db.begin();
        let visible = db.scan_all(&tx, table)?.len();
        out.phantom = visible.saturating_sub(live) as u64;
        out.lost += live.saturating_sub(visible) as u64;
        Ok(out)
    }
}

#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    pub lost: u64,
    pub phantom: u64,
}

impl Sweep {
    pub fn clean(&self) -> bool {
        self.lost == 0 && self.phantom == 0
    }
}

/// One op = one transaction through the façade, with a span around every
/// façade call.
fn exec<T: Tracer>(db: &mut Database, t: TableId, op: &Op, tr: &mut T) -> EngineResult<usize> {
    match op {
        Op::Read { key } => {
            let tx = tr.call("core.begin", || db.begin());
            Ok(tr
                .call("core.index_lookup", || db.index_lookup(&tx, t, 0, key))?
                .len())
        }
        Op::Range { lo, hi } => {
            let tx = tr.call("core.begin", || db.begin());
            Ok(tr
                .call("core.range_lookup", || {
                    db.index_range_lookup(&tx, t, 0, Some(lo), Some(hi))
                })?
                .len())
        }
        Op::ScanEq { payload } => {
            let tx = tr.call("core.begin", || db.begin());
            Ok(tr
                .call("core.scan_eq", || db.scan_eq(&tx, t, 1, payload))?
                .len())
        }
        Op::Update { key, row } => {
            let mut tx = tr.call("core.begin", || db.begin());
            let done = (|| {
                let hits = tr.call("core.index_lookup", || db.index_lookup(&tx, t, 0, key))?;
                let hit = hits
                    .first()
                    .ok_or_else(|| EngineError::Catalog("update of a missing key".into()))?;
                tr.call("core.update", || db.update(&mut tx, t, hit.row, row))?;
                tr.call("core.commit", || db.commit(&mut tx))?;
                Ok(1)
            })();
            if done.is_err() {
                let _ = db.abort(&mut tx);
            }
            done
        }
        Op::Insert { rows } => {
            let mut tx = tr.call("core.begin", || db.begin());
            let done = (|| {
                for row in rows {
                    tr.call("core.insert", || db.insert(&mut tx, t, row))?;
                }
                tr.call("core.commit", || db.commit(&mut tx))?;
                Ok(rows.len())
            })();
            if done.is_err() {
                let _ = db.abort(&mut tx);
            }
            done
        }
        Op::Merge => {
            tr.call("core.merge", || db.merge(t))?;
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NoTrace;
    use crate::workloads::WORKLOADS;

    fn place() -> Place {
        let out = crate::default_out_dir();
        std::fs::create_dir_all(&out).unwrap();
        Place { out, dir: None }
    }

    fn run_block(inst: &mut Instance) {
        let block = inst.gen.block();
        for op in &block.ops {
            assert_eq!(inst.exec(op, &mut NoTrace).unwrap(), op.expect(), "{op:?}");
        }
    }

    #[test]
    fn sweep_catches_an_injected_lost_write() {
        let spec = WORKLOADS[1].scaled(50);
        let (mut inst, _) = Instance::setup(&place(), Backend::Volatile, &spec, 7).unwrap();
        run_block(&mut inst);
        assert!(inst.sweep().unwrap().clean());
        inst.gen.inject_lost_write(3);
        assert_eq!(
            inst.sweep().unwrap(),
            Sweep {
                lost: 1,
                phantom: 0
            }
        );
        assert!(!inst.verify_key(3).unwrap());
        assert!(inst.verify_key(4).unwrap());
    }

    #[test]
    fn every_workload_runs_on_every_backend_and_survives_a_kill() {
        for spec in WORKLOADS.iter() {
            let spec = spec.scaled(50);
            for backend in [Backend::Nvm, Backend::Wal, Backend::Volatile, Backend::Sim] {
                let (mut inst, _) = Instance::setup(&place(), backend, &spec, 11).unwrap();
                run_block(&mut inst);
                let tail = inst.gen.live_delta();
                for op in &tail.ops {
                    assert_eq!(inst.exec(op, &mut NoTrace).unwrap(), 1);
                }
                if backend == Backend::Nvm {
                    inst.kill();
                    inst.reopen().unwrap();
                }
                assert!(inst.sweep().unwrap().clean(), "{} {backend:?}", spec.name);
            }
        }
    }
}
