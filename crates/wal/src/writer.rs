//! Log writer (append + group commit) and reader (sequential scan).

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use nvm::SimClock;

use crate::record::{crc32, LogRecord};
use crate::{Result, WalError};

/// Volatile counters describing log activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Bytes appended (framed).
    pub bytes: u64,
    /// Sync (group commit) calls.
    pub syncs: u64,
}

/// A class of log-device exhaustion fault, armed on a [`LogWriter`] via
/// [`LogWriter::arm_fault`]. Models a full disk (ENOSPC) and the nastier
/// short-write variant where a prefix of the frame reaches the file before
/// the device refuses the rest — which is byte-for-byte the torn tail
/// [`LogReader`] and `replay_log_bounded` already tolerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFaultClass {
    /// The target append fails before any byte is written.
    AppendEnospc,
    /// The target append writes only a prefix of the framed record (the
    /// prefix reaches the file) and then fails.
    AppendShortWrite,
    /// The target sync fails; buffered bytes may or may not have reached
    /// the medium.
    SyncEnospc,
}

impl WalFaultClass {
    /// Short stable name used in artifact filenames and reports.
    pub fn name(&self) -> &'static str {
        match self {
            WalFaultClass::AppendEnospc => "wal-enospc",
            WalFaultClass::AppendShortWrite => "wal-shortwrite",
            WalFaultClass::SyncEnospc => "wal-sync-enospc",
        }
    }
}

/// One deterministic log-exhaustion fault: fail the `nth` operation of the
/// armed class (0-based, counted from arming).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalFaultSpec {
    /// Which operation class fails.
    pub class: WalFaultClass,
    /// Zero-based index of the operation (of that class) to fail.
    pub nth: u64,
}

impl std::fmt::Display for WalFaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.class.name(), self.nth)
    }
}

/// Appends framed records to the log file, charging each sync to the shared
/// simulated clock.
///
/// The writer buffers appends; [`LogWriter::sync`] flushes the buffer and
/// `fsync`s the file, then charges `sync_latency_ns`. Group commit = calling
/// `sync` once for a batch of commit records.
///
/// After an out-of-space failure (injected or real) the writer **wedges**:
/// the on-disk tail is suspect (a frame may be half-written), so every later
/// append/sync fails fast with [`WalError::Full`] until
/// [`LogWriter::truncate`] re-establishes a clean log.
pub struct LogWriter {
    file: BufWriter<File>,
    clock: Arc<SimClock>,
    sync_latency_ns: u64,
    stats: WalStats,
    /// Bytes appended so far (== next record's offset).
    position: u64,
    /// Armed exhaustion fault plus the per-class operation count since
    /// arming; `None` outside fault sessions.
    fault: Option<(WalFaultSpec, u64)>,
    /// Set by the first `Full` failure; cleared by `truncate`.
    wedged: bool,
}

impl LogWriter {
    /// Open (or create) the log at `path`, appending after any existing
    /// content.
    pub fn open(path: &Path, clock: Arc<SimClock>, sync_latency_ns: u64) -> Result<LogWriter> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let position = file.seek(SeekFrom::End(0))?;
        Ok(LogWriter {
            file: BufWriter::new(file),
            clock,
            sync_latency_ns,
            stats: WalStats::default(),
            position,
            fault: None,
            wedged: false,
        })
    }

    /// Arm a deterministic exhaustion fault (see [`WalFaultSpec`]).
    /// Replaces any armed fault and restarts its operation count.
    pub fn arm_fault(&mut self, spec: WalFaultSpec) {
        self.fault = Some((spec, 0));
    }

    /// Disarm any armed fault (a wedged writer stays wedged).
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// True after an out-of-space failure, until [`LogWriter::truncate`].
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// If a fault of `class` is armed and this is its target operation,
    /// consume it and return true. Advances the count for every operation
    /// of the armed class.
    fn fault_fires(&mut self, class: WalFaultClass) -> bool {
        match &mut self.fault {
            Some((spec, seen)) if spec.class == class => {
                let n = *seen;
                *seen += 1;
                if n == spec.nth {
                    self.fault = None;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Append a record (buffered; durable only after [`LogWriter::sync`]).
    /// Returns the record's starting offset.
    pub fn append(&mut self, record: &LogRecord) -> Result<u64> {
        if self.wedged {
            return Err(WalError::Full {
                op: "append",
                wedged: true,
            });
        }
        if self.fault_fires(WalFaultClass::AppendEnospc) {
            self.wedged = true;
            return Err(WalError::Full {
                op: "append",
                wedged: false,
            });
        }
        let framed = record.encode_framed();
        if self.fault_fires(WalFaultClass::AppendShortWrite) {
            // A prefix of the frame reaches the device before the refusal;
            // flush it through so the on-disk tail really is torn. The
            // logical position does not advance — the record was not
            // appended.
            let cut = (framed.len() / 2).max(1);
            self.file.write_all(&framed[..cut])?;
            self.file.flush()?;
            self.wedged = true;
            return Err(WalError::Full {
                op: "append (short write)",
                wedged: false,
            });
        }
        let at = self.position;
        self.file.write_all(&framed)?;
        self.position += framed.len() as u64;
        self.stats.records += 1;
        self.stats.bytes += framed.len() as u64;
        Ok(at)
    }

    /// Flush and fsync the log; the group-commit boundary.
    pub fn sync(&mut self) -> Result<()> {
        if self.wedged {
            return Err(WalError::Full {
                op: "sync",
                wedged: true,
            });
        }
        if self.fault_fires(WalFaultClass::SyncEnospc) {
            self.wedged = true;
            return Err(WalError::Full {
                op: "sync",
                wedged: false,
            });
        }
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.stats.syncs += 1;
        self.clock.charge(self.sync_latency_ns);
        Ok(())
    }

    /// Current append position (next record offset).
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// End the writer the way a power failure does: appends no
    /// [`LogWriter::sync`] pushed to the file are lost, where dropping the
    /// writer would flush them.
    pub fn discard(self) {
        let _ = self.file.into_parts();
    }

    /// Truncate the log to zero length (after a checkpoint covers it).
    /// Discards any half-written tail and un-wedges the writer — with an
    /// empty log covered by a checkpoint, appends are safe again.
    pub fn truncate(&mut self) -> Result<()> {
        // A wedged writer may hold unwritable buffered bytes; drop them
        // rather than flushing into the file we are about to clear.
        let _ = self.file.flush();
        self.file.get_ref().set_len(0)?;
        self.file.get_ref().sync_data()?;
        self.file.seek(SeekFrom::Start(0))?;
        self.position = 0;
        self.wedged = false;
        Ok(())
    }
}

impl std::fmt::Debug for LogWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogWriter")
            .field("position", &self.position)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Sequentially decodes framed records from a log file starting at a given
/// offset. Tolerates a torn tail (a final partial record is treated as
/// end-of-log, as a crashed append would leave).
pub struct LogReader {
    file: BufReader<File>,
    offset: u64,
}

impl LogReader {
    /// Open the log at `path`, positioned at `start`.
    pub fn open(path: &Path, start: u64) -> Result<LogReader> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(start))?;
        Ok(LogReader {
            file: BufReader::new(file),
            offset: start,
        })
    }

    /// Read the next record; `Ok(None)` at end-of-log (including a torn
    /// tail). A CRC mismatch is a hard error — it means corruption *before*
    /// the tail.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>> {
        let mut hdr = [0u8; 8];
        match read_exact_or_eof(&mut self.file, &mut hdr)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Partial => return Ok(None), // torn tail
            ReadOutcome::Full => {}
        }
        let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
        let crc = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
        if len > 1 << 26 {
            return Err(WalError::Corrupt {
                reason: "implausible record length".to_owned(),
                offset: Some(self.offset),
            });
        }
        let mut body = vec![0u8; len];
        match read_exact_or_eof(&mut self.file, &mut body)? {
            ReadOutcome::Full => {}
            _ => return Ok(None), // torn tail
        }
        if crc32(&body) != crc {
            // A torn tail can also corrupt the last record's body when the
            // length header made it to disk but the body did not. We cannot
            // distinguish that from mid-log corruption without a successor
            // record; treat it as end-of-log if nothing follows.
            let mut probe = [0u8; 1];
            return match read_exact_or_eof(&mut self.file, &mut probe)? {
                ReadOutcome::Eof => Ok(None),
                _ => Err(WalError::Corrupt {
                    reason: "crc mismatch".to_owned(),
                    offset: Some(self.offset),
                }),
            };
        }
        self.offset += 8 + len as u64;
        let rec = LogRecord::decode_body(&body).map_err(|e| match e {
            WalError::Corrupt { reason, .. } => WalError::Corrupt {
                reason,
                offset: Some(self.offset),
            },
            other => other,
        })?;
        Ok(Some(rec))
    }

    /// Offset of the next unread record.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Collect all remaining records.
    pub fn read_to_end(&mut self) -> Result<Vec<LogRecord>> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(if filled == 0 {
                ReadOutcome::Eof
            } else {
                ReadOutcome::Partial
            });
        }
        filled += n;
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::Value;

    fn tmpdir() -> crate::TestPath {
        crate::TestPath::new("waltest", None)
    }

    #[test]
    fn write_sync_read_roundtrip() {
        let dir = tmpdir();
        let path = dir.join("wal.log");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock.clone(), 1000).unwrap();
        let recs = vec![
            LogRecord::Insert {
                tid: 1,
                table: 0,
                row: 0,
                values: vec![Value::Int(5), "x".into()],
            },
            LogRecord::Commit { tid: 1, cts: 1 },
        ];
        for r in &recs {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.stats().records, 2);
        assert_eq!(w.stats().syncs, 1);
        assert_eq!(clock.now_ns(), 1000);

        let mut r = LogReader::open(&path, 0).unwrap();
        assert_eq!(r.read_to_end().unwrap(), recs);
    }

    #[test]
    fn torn_tail_tolerated() {
        let dir = tmpdir();
        let path = dir.join("wal.log");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        // Chop off the last 5 bytes, simulating a crash mid-append.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let mut r = LogReader::open(&path, 0).unwrap();
        let recs = r.read_to_end().unwrap();
        assert_eq!(recs, vec![LogRecord::Commit { tid: 1, cts: 1 }]);
    }

    #[test]
    fn mid_log_corruption_detected() {
        let dir = tmpdir();
        let path = dir.join("wal.log");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF; // corrupt first record body
        std::fs::write(&path, &bytes).unwrap();
        let mut r = LogReader::open(&path, 0).unwrap();
        assert!(matches!(r.next_record(), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn reopen_appends_after_existing_content() {
        let dir = tmpdir();
        let path = dir.join("wal.log");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock.clone(), 0).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap();
        let pos = w.position();
        drop(w);
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        assert_eq!(w.position(), pos);
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        let mut r = LogReader::open(&path, 0).unwrap();
        assert_eq!(r.read_to_end().unwrap().len(), 2);
    }

    #[test]
    fn append_enospc_wedges_writer() {
        let dir = tmpdir();
        let path = dir.join("wal.log");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap();
        w.arm_fault(WalFaultSpec {
            class: WalFaultClass::AppendEnospc,
            nth: 0,
        });
        let err = w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap_err();
        assert!(matches!(err, WalError::Full { wedged: false, .. }));
        assert!(w.is_wedged());
        // Wedged: later appends and syncs fail fast…
        assert!(matches!(
            w.append(&LogRecord::Commit { tid: 3, cts: 3 }),
            Err(WalError::Full { wedged: true, .. })
        ));
        assert!(w.sync().is_err());
        // …until truncate re-establishes a clean log.
        w.truncate().unwrap();
        assert!(!w.is_wedged());
        w.append(&LogRecord::Commit { tid: 4, cts: 4 }).unwrap();
        w.sync().unwrap();
        let mut r = LogReader::open(&path, 0).unwrap();
        assert_eq!(
            r.read_to_end().unwrap(),
            vec![LogRecord::Commit { tid: 4, cts: 4 }]
        );
    }

    #[test]
    fn short_write_leaves_torn_tail() {
        let dir = tmpdir();
        let path = dir.join("wal.log");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap();
        let good = w.position();
        w.arm_fault(WalFaultSpec {
            class: WalFaultClass::AppendShortWrite,
            nth: 0,
        });
        let err = w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap_err();
        assert!(err.is_full());
        assert_eq!(w.position(), good, "failed append does not advance");
        drop(w);
        // The on-disk tail holds a partial frame — exactly a torn tail,
        // which the reader must treat as end-of-log.
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert!(on_disk > good, "a prefix of the frame reached the file");
        let mut r = LogReader::open(&path, 0).unwrap();
        assert_eq!(
            r.read_to_end().unwrap(),
            vec![LogRecord::Commit { tid: 1, cts: 1 }]
        );
    }

    #[test]
    fn sync_enospc_counts_target_operation() {
        let dir = tmpdir();
        let path = dir.join("wal.log");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.arm_fault(WalFaultSpec {
            class: WalFaultClass::SyncEnospc,
            nth: 1,
        });
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap(); // sync #0 passes
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        assert!(w.sync().unwrap_err().is_full()); // sync #1 fires
        assert!(w.is_wedged());
    }

    #[test]
    fn truncate_resets_log() {
        let dir = tmpdir();
        let path = dir.join("wal.log");
        let clock = Arc::new(SimClock::new());
        let mut w = LogWriter::open(&path, clock, 0).unwrap();
        w.append(&LogRecord::Commit { tid: 1, cts: 1 }).unwrap();
        w.sync().unwrap();
        w.truncate().unwrap();
        assert_eq!(w.position(), 0);
        w.append(&LogRecord::Commit { tid: 2, cts: 2 }).unwrap();
        w.sync().unwrap();
        let mut r = LogReader::open(&path, 0).unwrap();
        assert_eq!(
            r.read_to_end().unwrap(),
            vec![LogRecord::Commit { tid: 2, cts: 2 }]
        );
    }
}
