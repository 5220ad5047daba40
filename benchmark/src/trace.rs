//! Spans around the calls into each layer, kept in memory and written out
//! when the run ends. All spans are recorded from the benchmark's side of
//! the public API; nothing inside the engine is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Op span trees written per block; the rest of a block's op spans only feed
/// the metrics, so that a trace file stays a few megabytes.
const OP_TREES_WRITTEN_PER_BLOCK: u32 = 500;

/// What the phases call around every op and every façade call. `NoTrace`
/// compiles to the bare call, so untraced and traced runs share one code
/// path and differ only by this parameter.
pub trait Tracer {
    /// Open a span under the innermost open one.
    fn open(&mut self, name: &'static str);
    /// Close the innermost open span.
    fn close(&mut self);
    /// Start a new op: spans opened until the matching `close` share its id.
    fn open_op(&mut self, name: &'static str);
    /// A child of the innermost open span whose duration was measured
    /// elsewhere (a recovery phase reported by the engine).
    fn child(&mut self, name: &'static str, dur_ns: u64);

    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }
}

pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn open(&mut self, _: &'static str) {}
    #[inline(always)]
    fn close(&mut self) {}
    #[inline(always)]
    fn open_op(&mut self, _: &'static str) {}
    #[inline(always)]
    fn child(&mut self, _: &'static str, _: u64) {}
}

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Shared by the spans of one op; 0 outside ops.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u32,
    op: u32,
    /// Depth at which the current op was opened.
    op_depth: usize,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            op: 0,
            op_depth: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            op: self.op,
            start_ns,
            end_ns,
        });
        id
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// One JSON object per line: id, parent, op, name, start, duration and
    /// self time (duration minus what the direct children cover).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        // An op tree is written when its op is among the first of its block.
        let mut first_op_of_block = vec![0u32; self.spans.len()];
        let mut block_first = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.op == 0 {
                block_first = 0;
            } else if block_first == 0 {
                block_first = s.op;
            }
            first_op_of_block[i] = block_first;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.op != 0 && s.op - first_op_of_block[i] >= OP_TREES_WRITTEN_PER_BLOCK {
                continue;
            }
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}",
                s.op,
                s.name,
                s.start_ns,
                s.dur_ns(),
                s.dur_ns().saturating_sub(child_ns[i]),
            )?;
            written += 1;
        }
        out.flush()?;
        Ok(written)
    }
}

impl Tracer for Spans {
    fn open(&mut self, name: &'static str) {
        let now = self.now();
        let id = self.push(name, now, now);
        self.stack.push(id);
    }

    fn close(&mut self) {
        let now = self.now();
        let id = self.stack.pop().expect("close without open");
        self.spans[id as usize].end_ns = now;
        if self.op != 0 && self.stack.len() == self.op_depth {
            self.op = 0;
        }
    }

    fn open_op(&mut self, name: &'static str) {
        self.next_op += 1;
        self.op = self.next_op;
        self.op_depth = self.stack.len();
        self.open(name);
    }

    fn child(&mut self, name: &'static str, dur_ns: u64) {
        // Laid end to end after the sibling recorded just before.
        let parent = *self.stack.last().expect("child without parent");
        let start = match self.spans.last() {
            Some(s) if s.parent == parent => s.end_ns,
            _ => self.spans[parent as usize].start_ns,
        };
        self.push(name, start, start + dur_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_share_op_ids_and_report_self_time() {
        let mut t = Spans::new();
        t.open("block");
        t.open_op("op.read");
        let v = t.call("core.begin", || 7);
        t.call("core.index_lookup", || ());
        t.close();
        t.open_op("op.read");
        t.close();
        t.open("core.reopen");
        t.child("heap", 30);
        t.child("catalogue", 12);
        t.close();
        t.close();
        assert_eq!(v, 7);

        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("block", u32::MAX, 0),
                ("op.read", 0, 1),
                ("core.begin", 1, 1),
                ("core.index_lookup", 1, 1),
                ("op.read", 0, 2),
                ("core.reopen", 0, 0),
                ("heap", 5, 0),
                ("catalogue", 5, 0),
            ]
        );
        assert_eq!(t.spans[7].start_ns, t.spans[6].end_ns);
        assert_eq!(t.spans[7].dur_ns(), 12);
        assert_eq!(t.durations("op.read").len(), 2);
        assert!(t.spans[1].dur_ns() >= t.spans[2].dur_ns() + t.spans[3].dur_ns());

        let path = crate::default_out_dir().join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        assert_eq!(t.write_jsonl(&path).unwrap(), 8);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"catalogue\",\"start_ns\""));
    }
}
