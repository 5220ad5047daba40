//! A persistent seqlock: optimistic, retry-based reads over an NVM
//! payload, published by release/acquire bumps of a sequence word.
//!
//! This is the concurrency primitive behind the zero-copy read era the
//! roadmap is heading into: writers never block readers, readers never
//! take a lock, and the protocol is both *visibility*-correct (the even
//! sequence bump is a release store, observed by acquire loads, so a
//! reader that sees an even, stable sequence also sees the payload bytes
//! the writer stored before the bump) and *durability*-correct (the odd
//! bump, the payload, and the even bump are each persisted in order, per
//! the `seqlock-write` protocol spec — a crash mid-write leaves an odd
//! sequence on the medium, telling recovery the payload is torn).
//!
//! The write and read paths are annotated for `pmlint`'s atomics-ordering
//! pass (`publish(seqlock-seq)` / `observe(seqlock-seq)`) and mirror the
//! `seqlock-write` / `seqlock-read` specs in [`crate::protocol::registry`].

use std::sync::Arc;

use crate::region::NvmRegion;
use crate::Result;

/// A seqlock over a fixed payload range of a shared region.
///
/// Layout: one naturally aligned `u64` sequence word at `seq_off`, plus
/// `payload_len` payload bytes at `payload_off` (disjoint from the
/// sequence word). Even sequence = stable payload; odd = write (or crash)
/// in progress.
#[derive(Clone)]
pub struct SeqLock {
    region: Arc<NvmRegion>,
    seq_off: u64,
    payload_off: u64,
    payload_len: u64,
}

impl SeqLock {
    /// Wrap an existing sequence word + payload range. The caller owns
    /// layout: `seq_off` must be 8-aligned and both ranges in bounds
    /// (checked on first access).
    pub fn new(
        region: Arc<NvmRegion>,
        seq_off: u64,
        payload_off: u64,
        payload_len: u64,
    ) -> SeqLock {
        SeqLock {
            region,
            seq_off,
            payload_off,
            payload_len,
        }
    }

    /// The current sequence word (acquire).
    pub fn sequence(&self) -> Result<u64> {
        // pmlint: observe(seqlock-seq)
        self.region.load_u64_acquire(self.seq_off)
    }

    /// True when the sequence word is odd: a writer is mid-window, or a
    /// crash landed inside one and the payload must be treated as torn.
    pub fn is_torn(&self) -> Result<bool> {
        Ok(self.sequence()? % 2 == 1)
    }

    /// Run one guarded write: bump the sequence odd (opening the window),
    /// let `f` store the new payload through the region, persist it, then
    /// publish with the even bump. Every step is persisted in protocol
    /// order, so a crash anywhere leaves either the old payload (window
    /// never durably opened), or an odd sequence marking the payload torn.
    ///
    /// If `f` fails the window is left open (odd, persisted) on purpose —
    /// the payload may be half-stored, and readers/recovery must see it
    /// as torn.
    pub fn write(&self, f: impl FnOnce(&NvmRegion) -> Result<()>) -> Result<()> {
        let seq = self.sequence()?;
        debug_assert_eq!(seq % 2, 0, "seqlock write inside an open window");
        // Open the window: readers seeing an odd sequence retry.
        self.region.store_u64_release(self.seq_off, seq + 1)?;
        self.region.persist(self.seq_off, 8)?;
        f(&self.region)?;
        self.region.persist(self.payload_off, self.payload_len)?;
        // Close the window: the even bump is the publish store — every
        // payload byte stored above is visible to an acquire reader that
        // observes it, and durable before it per the persists above.
        // pmlint: publish(seqlock-seq)
        self.region.store_u64_release(self.seq_off, seq + 2)?;
        self.region.persist(self.seq_off, 8)?;
        Ok(())
    }

    /// One optimistic read: acquire-load the sequence, run `f` over the
    /// payload bytes, acquire-re-read and validate. Retries while a write
    /// window is open or the sequence moved mid-read. `f` may run
    /// multiple times and must be side-effect free until the read
    /// validates.
    pub fn read<R>(&self, mut f: impl FnMut(&[u8]) -> R) -> Result<R> {
        loop {
            // pmlint: observe(seqlock-seq)
            let s1 = self.region.load_u64_acquire(self.seq_off)?;
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let r = self
                .region
                .with_slice(self.payload_off, self.payload_len, &mut f)?;
            // Validating re-read: unchanged and even ⇒ `r` is consistent.
            // pmlint: observe(seqlock-seq)
            let s2 = self.region.load_u64_acquire(self.seq_off)?;
            if s1 == s2 {
                return Ok(r);
            }
        }
    }
}

impl std::fmt::Debug for SeqLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqLock")
            .field("seq_off", &self.seq_off)
            .field("payload_off", &self.payload_off)
            .field("payload_len", &self.payload_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::region::CrashPolicy;
    use crate::TraceConfig;

    fn lock() -> SeqLock {
        let region = Arc::new(NvmRegion::new(4096, LatencyModel::zero()));
        SeqLock::new(region, 0, 64, 16)
    }

    #[test]
    fn write_then_read_roundtrips() {
        let l = lock();
        l.write(|r| r.write_bytes(64, &[7u8; 16])).unwrap();
        let sum: u32 = l.read(|b| b.iter().map(|x| *x as u32).sum()).unwrap();
        assert_eq!(sum, 7 * 16);
        assert_eq!(l.sequence().unwrap(), 2, "one write = two bumps");
        assert!(!l.is_torn().unwrap());
    }

    #[test]
    fn failed_write_leaves_window_open() {
        let l = lock();
        let err = l.write(|r| r.write_bytes(1 << 20, &[1])); // out of bounds
        assert!(err.is_err());
        assert!(
            l.is_torn().unwrap(),
            "window stays open after a failed write"
        );
    }

    #[test]
    fn crash_mid_window_is_detectable_as_torn() {
        let l = lock();
        l.write(|r| r.write_bytes(64, &[1u8; 16])).unwrap();
        // Open a window by hand and crash before closing it.
        let region = l.region.clone();
        region.store_u64_release(0, 3).unwrap();
        region.persist(0, 8).unwrap();
        region.write_bytes(64, &[2u8; 8]).unwrap(); // unpersisted half-write
        region.crash(CrashPolicy::DropUnflushed);
        assert!(l.is_torn().unwrap(), "odd sequence survives the crash");
    }

    #[test]
    fn concurrent_readers_never_observe_torn_payload() {
        // The payload is written as [i; 16] per version i: a torn read
        // would mix bytes of two versions. Readers validate every result.
        // Iteration counts shrink under Miri so the interpreter finishes
        // in reasonable time while still exploring the interleavings.
        let (writes, reads) = if cfg!(miri) {
            (5u8, 10usize)
        } else {
            (50u8, 200usize)
        };
        let l = lock();
        l.write(|r| r.write_bytes(64, &[0u8; 16])).unwrap();
        let writer = {
            let l = l.clone();
            std::thread::spawn(move || {
                for i in 1..=writes {
                    l.write(|r| r.write_bytes(64, &[i; 16])).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for _ in 0..reads {
                        let bytes: Vec<u8> = l.read(|b| b.to_vec()).unwrap();
                        assert!(bytes.iter().all(|x| *x == bytes[0]), "torn read: {bytes:?}");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(l.read(|b| b[0]).unwrap(), writes);
    }

    #[test]
    fn read_started_inside_an_open_window_returns_only_the_new_payload() {
        // Deterministic interleaving, channel-paced (Miri-runnable):
        //
        //   writer: open window ── block ── store payload, close window
        //   reader:            └ observe odd seq, enter read() ┘ validate
        //
        // The writer blocks *between* region calls, so no region lock is
        // held while it waits. The reader provably sees the open window
        // (is_torn) before calling read() — it acknowledges the odd
        // sequence over a channel, and only then is the writer resumed, so
        // the close cannot race the observation. The sequence is monotonic,
        // so the read can never validate against the pre-open payload — the
        // only validatable outcome is the complete post-write payload.
        // `f` runs exactly once: while the window is odd the read spins
        // without invoking it, and after the even close nothing moves the
        // sequence again.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{mpsc, Arc as StdArc};

        let l = lock();
        l.write(|r| r.write_bytes(64, &[1u8; 16])).unwrap();

        let (opened_tx, opened_rx) = mpsc::channel::<()>();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let writer = {
            let l = l.clone();
            std::thread::spawn(move || {
                l.write(move |r| {
                    opened_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                    r.write_bytes(64, &[2u8; 16])
                })
                .unwrap();
            })
        };
        opened_rx.recv().unwrap();
        assert!(l.is_torn().unwrap(), "window durably open before payload");

        let calls = StdArc::new(AtomicUsize::new(0));
        let (seen_tx, seen_rx) = mpsc::channel::<bool>();
        let reader = {
            let l = l.clone();
            let calls = calls.clone();
            std::thread::spawn(move || {
                seen_tx.send(l.is_torn().unwrap()).unwrap();
                l.read(move |b| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    b.to_vec()
                })
                .unwrap()
            })
        };
        assert!(seen_rx.recv().unwrap(), "reader enters during the window");
        resume_tx.send(()).unwrap();
        writer.join().unwrap();
        let bytes = reader.join().unwrap();
        assert_eq!(bytes, vec![2u8; 16], "only the published payload validates");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "payload closure runs once: spins while odd never invoke it"
        );
    }

    #[test]
    fn traced_write_conforms_to_seqlock_write_spec() {
        use crate::protocol::{check_trace, registry, RangeBinding};
        let l = lock();
        let region = l.region.clone();
        region.trace_start(TraceConfig::default());
        for i in 1..=3u8 {
            l.write(|r| r.write_bytes(64, &[i; 16])).unwrap();
        }
        let trace = region.trace_stop().unwrap();
        let spec = registry()
            .into_iter()
            .find(|s| s.name == "seqlock-write")
            .unwrap();
        let bindings = vec![
            RangeBinding::new("seqlock-payload", vec![(64, 16)]),
            RangeBinding::new("seqlock-seq", vec![(0, 8)]),
        ];
        let report = check_trace(&spec, &bindings, &trace);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(
            report.publish_instances, 6,
            "odd + even bump per write, three writes"
        );
        assert!(report.bound_stores_checked >= 3);
    }
}
