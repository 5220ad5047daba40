//! Checkpointing: a full serialized image of the database's tables.
//!
//! The checkpoint is the baseline's answer to unbounded log growth; its
//! *load* time is linear in data size and dominates the baseline's restart
//! (the `restart` experiment's `wal` rows). Format (all little-endian):
//!
//! ```text
//! magic u64 | version u64 | last_cts u64 | covered_log_pos u64 | ntables u32
//! per table: name | schema | main(rows, per-col dict+packed av+width, end_ts)
//!            | delta(rows, per-col dict+av, begin_ts, end_ts)
//! crc32 u32 (over everything before it)
//! ```
//!
//! The file is written to a temp name and renamed, so a crash during
//! checkpointing leaves the previous checkpoint intact.

use std::path::Path;

use util::buf::{BufRead, ByteBuf};

use storage::bitpack::BitPacked;
use storage::{Schema, TableStore, VDelta, VMain, VTable};

use crate::record::{crc32, decode_value, encode_value};
use crate::{Result, WalError};

const CKPT_MAGIC: u64 = 0x4348_4B50_545F_4E56; // "CHKPT_NV"
const CKPT_VERSION: u64 = 1;

/// Header information of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Last commit timestamp covered by the image.
    pub last_cts: u64,
    /// Log position up to which the image covers; replay starts here.
    pub covered_log_pos: u64,
    /// Table names in catalogue order.
    pub table_names: Vec<String>,
}

fn corrupt(reason: &str) -> WalError {
    WalError::Corrupt {
        reason: reason.to_owned(),
        offset: None,
    }
}

/// Serialize `tables` (with their names) to `path` atomically.
pub fn write_checkpoint(
    path: &Path,
    tables: &[(String, &VTable)],
    last_cts: u64,
    covered_log_pos: u64,
) -> Result<u64> {
    let mut b = ByteBuf::with_capacity(1 << 16);
    b.put_u64_le(CKPT_MAGIC);
    b.put_u64_le(CKPT_VERSION);
    b.put_u64_le(last_cts);
    b.put_u64_le(covered_log_pos);
    b.put_u32_le(tables.len() as u32);
    for (name, t) in tables {
        put_bytes(&mut b, name.as_bytes());
        put_bytes(&mut b, &t.schema().to_bytes());
        encode_main(&mut b, t.main());
        encode_delta(&mut b, t.delta());
    }
    let crc = crc32(b.as_slice());
    b.put_u32_le(crc);

    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, b.as_slice())?;
    let f = std::fs::File::open(&tmp)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(b.len() as u64)
}

/// Load a checkpoint, returning its meta and the reconstructed tables.
pub fn load_checkpoint(path: &Path) -> Result<(CheckpointMeta, Vec<VTable>)> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 40 {
        return Err(corrupt("checkpoint too short"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(
        crc_bytes
            .try_into()
            .map_err(|_| corrupt("checkpoint crc truncated"))?,
    );
    if crc32(body) != stored {
        return Err(corrupt("checkpoint crc mismatch"));
    }
    let mut b = body;
    if b.get_u64_le() != CKPT_MAGIC {
        return Err(corrupt("bad checkpoint magic"));
    }
    if b.get_u64_le() != CKPT_VERSION {
        return Err(corrupt("unsupported checkpoint version"));
    }
    let last_cts = b.get_u64_le();
    let covered_log_pos = b.get_u64_le();
    let ntables = b.get_u32_le() as usize;
    if ntables > 4096 {
        return Err(corrupt("implausible table count"));
    }
    let mut names = Vec::with_capacity(ntables);
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = String::from_utf8(take_bytes(&mut b)?).map_err(|_| corrupt("name utf-8"))?;
        let schema =
            Schema::from_bytes(&take_bytes(&mut b)?).map_err(|_| corrupt("schema image"))?;
        let ncols = schema.len();
        let main = decode_main(&mut b, ncols)?;
        let delta = decode_delta(&mut b, ncols)?;
        names.push(name);
        tables.push(VTable::from_parts(schema, main, delta));
    }
    Ok((
        CheckpointMeta {
            last_cts,
            covered_log_pos,
            table_names: names,
        },
        tables,
    ))
}

fn put_bytes(b: &mut ByteBuf, bytes: &[u8]) {
    b.put_u32_le(bytes.len() as u32);
    b.put_slice(bytes);
}

fn take_bytes(b: &mut &[u8]) -> Result<Vec<u8>> {
    if b.remaining() < 4 {
        return Err(corrupt("truncated length"));
    }
    let n = b.get_u32_le() as usize;
    let out = b
        .get(..n)
        .ok_or_else(|| corrupt("truncated bytes"))?
        .to_vec();
    b.advance(n);
    Ok(out)
}

fn encode_main(b: &mut ByteBuf, m: &VMain) {
    b.put_u64_le(m.rows());
    b.put_u32_le(m.dicts.len() as u32);
    for c in 0..m.dicts.len() {
        b.put_u32_le(m.dicts[c].len() as u32);
        for v in &m.dicts[c] {
            encode_value(b, v);
        }
        let av = &m.avs[c];
        b.put_u32_le(av.width());
        b.put_u64_le(av.len());
        b.put_u64_le(av.words().len() as u64);
        for w in av.words() {
            b.put_u64_le(*w);
        }
    }
    for e in &m.end_ts {
        b.put_u64_le(*e);
    }
}

fn decode_main(b: &mut &[u8], ncols: usize) -> Result<VMain> {
    if b.remaining() < 12 {
        return Err(corrupt("truncated main header"));
    }
    let rows = b.get_u64_le();
    let stored_cols = b.get_u32_le() as usize;
    if stored_cols != ncols {
        return Err(corrupt("main column count mismatch"));
    }
    let mut dicts = Vec::with_capacity(ncols);
    let mut avs = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        if b.remaining() < 4 {
            return Err(corrupt("truncated main dict"));
        }
        let dn = b.get_u32_le() as usize;
        let mut dict = Vec::with_capacity(dn);
        for _ in 0..dn {
            dict.push(decode_value(b)?);
        }
        if b.remaining() < 20 {
            return Err(corrupt("truncated main av header"));
        }
        let width = b.get_u32_le();
        let len = b.get_u64_le();
        let nwords = b.get_u64_le() as usize;
        if b.remaining() < nwords * 8 {
            return Err(corrupt("truncated main av words"));
        }
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(b.get_u64_le());
        }
        // width 0 only occurs for a default (empty) packed vector.
        if (width == 0 && len > 0) || width > 64 {
            return Err(corrupt("bad av width"));
        }
        avs.push(BitPacked::from_raw(words, width, len));
        dicts.push(dict);
    }
    if b.remaining() < rows as usize * 8 {
        return Err(corrupt("truncated main end_ts"));
    }
    let mut end_ts = Vec::with_capacity(rows as usize);
    for _ in 0..rows {
        end_ts.push(b.get_u64_le());
    }
    Ok(VMain { dicts, avs, end_ts })
}

fn encode_delta(b: &mut ByteBuf, d: &VDelta) {
    b.put_u64_le(d.rows());
    b.put_u32_le(d.dicts.len() as u32);
    for c in 0..d.dicts.len() {
        b.put_u32_le(d.dicts[c].len() as u32);
        for v in &d.dicts[c] {
            encode_value(b, v);
        }
        b.put_u64_le(d.avs[c].len() as u64);
        for id in &d.avs[c] {
            b.put_u32_le(*id);
        }
    }
    for ts in &d.begin_ts {
        b.put_u64_le(*ts);
    }
    for ts in &d.end_ts {
        b.put_u64_le(*ts);
    }
}

fn decode_delta(b: &mut &[u8], ncols: usize) -> Result<VDelta> {
    if b.remaining() < 12 {
        return Err(corrupt("truncated delta header"));
    }
    let rows = b.get_u64_le() as usize;
    let stored_cols = b.get_u32_le() as usize;
    if stored_cols != ncols {
        return Err(corrupt("delta column count mismatch"));
    }
    let mut dicts = Vec::with_capacity(ncols);
    let mut avs = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        if b.remaining() < 4 {
            return Err(corrupt("truncated delta dict"));
        }
        let dn = b.get_u32_le() as usize;
        let mut dict = Vec::with_capacity(dn);
        for _ in 0..dn {
            dict.push(decode_value(b)?);
        }
        if b.remaining() < 8 {
            return Err(corrupt("truncated delta av header"));
        }
        let an = b.get_u64_le() as usize;
        if an != rows {
            return Err(corrupt("delta av length mismatch"));
        }
        if b.remaining() < an * 4 {
            return Err(corrupt("truncated delta av"));
        }
        let mut av = Vec::with_capacity(an);
        for _ in 0..an {
            av.push(b.get_u32_le());
        }
        dicts.push(dict);
        avs.push(av);
    }
    if b.remaining() < rows * 16 {
        return Err(corrupt("truncated delta timestamps"));
    }
    let mut begin_ts = Vec::with_capacity(rows);
    for _ in 0..rows {
        begin_ts.push(b.get_u64_le());
    }
    let mut end_ts = Vec::with_capacity(rows);
    for _ in 0..rows {
        end_ts.push(b.get_u64_le());
    }
    Ok(VDelta {
        probes: vec![Default::default(); ncols],
        dicts,
        avs,
        begin_ts,
        end_ts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{ColumnDef, DataType, TableStore, Value};

    fn tmpfile(name: &str) -> crate::TestPath {
        crate::TestPath::new(&format!("ckpt-{name}"), Some("checkpoint.bin"))
    }

    fn build_table() -> VTable {
        let mut t = VTable::new(Schema::new(vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("s", DataType::Text),
        ]));
        for i in 0..20i64 {
            t.insert_version(&[Value::Int(i % 5), format!("s{}", i % 3).into()], 1)
                .unwrap();
        }
        t.merge(1).unwrap();
        for i in 0..7i64 {
            t.insert_version(&[Value::Int(i), format!("d{i}").into()], 2)
                .unwrap();
        }
        t.try_invalidate(3, storage::mvcc::pending(9)).unwrap();
        t.commit_invalidate(3, 3).unwrap();
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = build_table();
        let path = tmpfile("roundtrip");
        write_checkpoint(&path, &[("orders".to_owned(), &t)], 3, 1234).unwrap();
        let (meta, tables) = load_checkpoint(&path).unwrap();
        assert_eq!(meta.last_cts, 3);
        assert_eq!(meta.covered_log_pos, 1234);
        assert_eq!(meta.table_names, vec!["orders"]);
        let t2 = &tables[0];
        assert_eq!(t2.row_count(), t.row_count());
        assert_eq!(t2.main_rows(), t.main_rows());
        for r in 0..t.row_count() {
            assert_eq!(t2.row_values(r).unwrap(), t.row_values(r).unwrap());
            assert_eq!(t2.begin_ts(r).unwrap(), t.begin_ts(r).unwrap());
            assert_eq!(t2.end_ts(r).unwrap(), t.end_ts(r).unwrap());
        }
        // Probe maps were rebuilt: interning works.
        let mut t2m = tables.into_iter().next().unwrap();
        let before = t2m.delta().dicts[1].len();
        t2m.insert_version(&[Value::Int(0), "d0".into()], 4)
            .unwrap();
        assert_eq!(t2m.delta().dicts[1].len(), before);
    }

    #[test]
    fn corruption_detected() {
        let t = build_table();
        let path = tmpfile("corrupt");
        write_checkpoint(&path, &[("t".to_owned(), &t)], 1, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn multiple_tables() {
        let t1 = build_table();
        let t2 = VTable::new(Schema::new(vec![ColumnDef::new("x", DataType::Double)]));
        let path = tmpfile("multi");
        write_checkpoint(&path, &[("a".to_owned(), &t1), ("b".to_owned(), &t2)], 9, 0).unwrap();
        let (meta, tables) = load_checkpoint(&path).unwrap();
        assert_eq!(meta.table_names, vec!["a", "b"]);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[1].row_count(), 0);
    }
}
