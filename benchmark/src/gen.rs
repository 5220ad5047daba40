//! The benchmark's own seeded load generator and shadow model. Nothing here
//! depends on an engine crate beyond `storage::Value`, so no engine change
//! can alter the load. The program under test sees only the generated ops.

use storage::Value;

/// Rows per load/ingest transaction.
pub const BATCH_ROWS: usize = 256;
/// Keys covered by one range lookup.
pub const RANGE_LEN: i64 = 100;
/// Bytes of one payload.
pub const PAYLOAD_LEN: usize = 32;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* seeded through splitmix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n` (Gray et al., as YCSB draws them): rank 0 is
/// the most popular.
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Probability of rank 0.
    #[cfg(test)]
    pub fn top_mass(&self) -> f64 {
        1.0 / self.zetan
    }

    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.n - 1)
        }
    }
}

/// How a workload picks the key of an op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    Uniform,
    /// Zipfian with this theta over the loaded rows, ranks scattered over
    /// the key space so that hot keys are not neighbours in the main.
    Zipf(f64),
}

/// What the timed blocks of a workload consist of.
#[derive(Clone, Copy, Debug)]
pub enum BlockShape {
    /// `ops` point lookups.
    Reads { ops: usize },
    /// `ops` ops, half point lookups and half single-row update
    /// transactions, then one merge inside the block.
    Mixed { ops: usize },
    /// `ranges` range lookups of `RANGE_LEN` keys and `scans` equality
    /// scans of the un-indexed payload column.
    Scans { ranges: usize, scans: usize },
    /// `rows` new rows in `BATCH_ROWS`-row transactions with a merge every
    /// `merge_every` rows, into a database set up afresh for every block.
    Ingest { rows: usize, merge_every: usize },
}

/// One workload: data shape, key choice and op mix.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Rows loaded (and merged) by set-up.
    pub rows: usize,
    /// Ordered index beside the hash index on `key`.
    pub ordered: bool,
    pub dist: Dist,
    pub block: BlockShape,
    /// Latency phase of a cycle: `lat_rounds` windows of `lat_reads` timed
    /// reads, as many of `lat_writes` timed write transactions, one merge.
    pub lat_rounds: usize,
    pub lat_reads: usize,
    pub lat_writes: usize,
    /// Update transactions run after the last merge, so that the restart
    /// finds a live delta (0: the image is all main).
    pub live_delta_ops: usize,
}

impl Spec {
    /// The same workload at `1/div` of its size (`--quick`, the simulator
    /// oracle). Round counts stay: they set how many samples a median has.
    pub fn scaled(&self, div: usize) -> Spec {
        let d = |n: usize| if n == 0 { 0 } else { (n / div).max(1) };
        Spec {
            rows: d(self.rows).max(RANGE_LEN as usize * 2),
            block: match self.block {
                BlockShape::Reads { ops } => BlockShape::Reads { ops: d(ops) },
                BlockShape::Mixed { ops } => BlockShape::Mixed { ops: d(ops) },
                BlockShape::Scans { ranges, scans } => BlockShape::Scans {
                    ranges: d(ranges),
                    scans: d(scans),
                },
                BlockShape::Ingest { rows, merge_every } => BlockShape::Ingest {
                    rows: d(rows),
                    merge_every: d(merge_every),
                },
            },
            lat_reads: d(self.lat_reads),
            lat_writes: d(self.lat_writes),
            live_delta_ops: d(self.live_delta_ops),
            ..self.clone()
        }
    }

    /// Blocks insert new rows into a database set up afresh.
    pub fn ingests(&self) -> bool {
        matches!(self.block, BlockShape::Ingest { .. })
    }
}

/// One generated operation, with every `Value` it needs already built.
#[derive(Debug)]
pub enum Op {
    /// Point lookup of `key` through the hash index: exactly one row.
    Read { key: Value },
    /// Look `key` up, replace its row with `row`, commit.
    Update { key: Value, row: [Value; 2] },
    /// Insert `rows` in one transaction.
    Insert { rows: Vec<[Value; 2]> },
    /// Range lookup `lo <= key < hi` through the ordered index.
    Range { lo: Value, hi: Value },
    /// Equality scan of the payload column: exactly one row.
    ScanEq { payload: Value },
    /// Merge the table's delta into its main.
    Merge,
}

impl Op {
    /// Rows the op must return or write for it to count as succeeded.
    pub fn expect(&self) -> usize {
        match self {
            Op::Read { .. } | Op::Update { .. } | Op::ScanEq { .. } => 1,
            Op::Insert { rows } => rows.len(),
            Op::Range { .. } => RANGE_LEN as usize,
            Op::Merge => 0,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Op::Read { .. } => "op.read",
            Op::Update { .. } => "op.update",
            Op::Insert { .. } => "op.insert",
            Op::Range { .. } => "op.range",
            Op::ScanEq { .. } => "op.scan_eq",
            Op::Merge => "op.merge",
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Update { .. } | Op::Insert { .. })
    }
}

/// A list of ops timed as one unit.
pub struct Block {
    pub ops: Vec<Op>,
    /// What throughput counts: rows for an ingest block, ops otherwise.
    pub units: u64,
    /// Write transactions among the ops.
    pub writes: u64,
}

impl Block {
    fn new(ops: Vec<Op>, units: u64) -> Block {
        let writes = ops.iter().filter(|o| o.is_write()).count() as u64;
        Block { ops, units, writes }
    }
}

/// The payload of version `version` of `key` under the seed's `salt`: 32
/// hex characters, distinct for every (key, version).
pub fn payload(salt: u64, key: i64, version: u32) -> String {
    let tag = salt ^ (((key as u64) << 24) | u64::from(version));
    format!("{:016x}{:016x}", splitmix(tag), splitmix(!tag))
}

/// Generator and shadow model of one database instance. `versions[k]` is the
/// version of key `k` the database must hold once every op generated so far
/// has been acknowledged; keys are dense, `0..versions.len()`.
pub struct Gen {
    pub spec: Spec,
    rng: Rng,
    zipf: Option<Zipf>,
    /// Mixed into every payload, so that even a stream of sequential
    /// inserts differs from seed to seed.
    salt: u64,
    versions: Vec<u32>,
    fnv: u64,
}

impl Gen {
    pub fn new(spec: &Spec, seed: u64) -> Gen {
        let zipf = match spec.dist {
            Dist::Zipf(theta) => Some(Zipf::new(spec.rows as u64, theta)),
            Dist::Uniform => None,
        };
        // Each workload draws from its own stream of the seed.
        let mut rng = Rng::new(seed ^ fnv1a(FNV_OFFSET, spec.name.as_bytes()));
        let salt = rng.next_u64();
        Gen {
            spec: spec.clone(),
            rng,
            zipf,
            salt,
            versions: Vec::new(),
            fnv: fnv1a(FNV_OFFSET, &salt.to_le_bytes()),
        }
    }

    /// FNV-1a fingerprint of every op generated so far.
    pub fn fingerprint(&self) -> u64 {
        self.fnv
    }

    pub fn live_rows(&self) -> usize {
        self.versions.len()
    }

    /// Bytes of user data the model holds: 8 for the key plus the payload.
    pub fn user_bytes(&self) -> u64 {
        (self.versions.len() * (8 + PAYLOAD_LEN)) as u64
    }

    /// What a lookup of `key` must return, if the key exists.
    pub fn expected(&self, key: i64) -> Option<String> {
        let v = *self.versions.get(usize::try_from(key).ok()?)?;
        Some(payload(self.salt, key, v))
    }

    fn row(&self, key: i64, version: u32) -> [Value; 2] {
        [
            Value::Int(key),
            Value::Text(payload(self.salt, key, version)),
        ]
    }

    /// Self-test hook: pretend one more update of `key` was acknowledged
    /// than the database was sent, which a sweep must report as a lost write.
    pub fn inject_lost_write(&mut self, key: i64) {
        self.versions[key as usize] += 1;
    }

    fn note(&mut self, tag: u8, a: i64, b: u32) {
        let mut bytes = [0u8; 13];
        bytes[0] = tag;
        bytes[1..9].copy_from_slice(&a.to_le_bytes());
        bytes[9..].copy_from_slice(&b.to_le_bytes());
        self.fnv = fnv1a(self.fnv, &bytes);
    }

    fn pick_key(&mut self) -> i64 {
        let n = self.versions.len() as u64;
        match &self.zipf {
            // A multiplier coprime to every n below it scatters the ranks.
            Some(z) => ((z.rank(&mut self.rng) as u128 * 2_654_435_761 % n as u128) as u64) as i64,
            None => self.rng.below(n) as i64,
        }
    }

    fn read(&mut self) -> Op {
        let key = self.pick_key();
        self.note(1, key, 0);
        Op::Read {
            key: Value::Int(key),
        }
    }

    fn update(&mut self) -> Op {
        let key = self.pick_key();
        let v = &mut self.versions[key as usize];
        *v += 1;
        let v = *v;
        self.note(2, key, v);
        Op::Update {
            key: Value::Int(key),
            row: self.row(key, v),
        }
    }

    /// One transaction inserting the next `n` keys.
    fn insert(&mut self, n: usize) -> Op {
        let first = self.versions.len() as i64;
        self.versions.resize(self.versions.len() + n, 1);
        self.note(3, first, n as u32);
        Op::Insert {
            rows: (first..first + n as i64).map(|k| self.row(k, 1)).collect(),
        }
    }

    fn range(&mut self) -> Op {
        let lo = self
            .rng
            .below(self.versions.len() as u64 - RANGE_LEN as u64 + 1) as i64;
        self.note(4, lo, 0);
        Op::Range {
            lo: Value::Int(lo),
            hi: Value::Int(lo + RANGE_LEN),
        }
    }

    fn scan_eq(&mut self) -> Op {
        let key = self.rng.below(self.versions.len() as u64) as i64;
        self.note(5, key, 0);
        Op::ScanEq {
            payload: Value::Text(payload(self.salt, key, self.versions[key as usize])),
        }
    }

    fn inserts(&mut self, rows: usize, merge_every: usize, ops: &mut Vec<Op>) {
        let mut since_merge = 0;
        let mut left = rows;
        while left > 0 {
            let n = left.min(BATCH_ROWS).min(merge_every - since_merge);
            ops.push(self.insert(n));
            left -= n;
            since_merge += n;
            if since_merge == merge_every {
                ops.push(Op::Merge);
                since_merge = 0;
            }
        }
    }

    /// Set-up: load `spec.rows` rows in `BATCH_ROWS`-row transactions, then
    /// merge, so that every workload starts on an all-main image.
    pub fn load(&mut self) -> Block {
        let mut ops = Vec::new();
        let rows = self.spec.rows;
        self.inserts(rows, rows, &mut ops);
        Block::new(ops, rows as u64)
    }

    /// The next timed block of the workload.
    pub fn block(&mut self) -> Block {
        let mut ops = Vec::new();
        match self.spec.block {
            BlockShape::Reads { ops: n } => {
                ops.extend((0..n).map(|_| self.read()));
                Block::new(ops, n as u64)
            }
            BlockShape::Mixed { ops: n } => {
                // Strictly alternating, so that every segment of a block
                // holds the same number of reads and of updates.
                for i in 0..n {
                    let op = if i % 2 == 0 {
                        self.read()
                    } else {
                        self.update()
                    };
                    ops.push(op);
                }
                ops.push(Op::Merge);
                Block::new(ops, n as u64)
            }
            BlockShape::Scans { ranges, scans } => {
                // Spread the scans evenly among the range lookups.
                let every = (ranges + scans) / scans.max(1);
                for i in 0..ranges + scans {
                    let op = if scans > 0 && i % every == every - 1 && i / every < scans {
                        self.scan_eq()
                    } else {
                        self.range()
                    };
                    ops.push(op);
                }
                Block::new(ops, (ranges + scans) as u64)
            }
            BlockShape::Ingest { rows, merge_every } => {
                self.inserts(rows, merge_every, &mut ops);
                Block::new(ops, rows as u64)
            }
        }
    }

    /// The read op of the latency phase: a range lookup where the workload
    /// has an ordered index, a point lookup elsewhere.
    pub fn lat_read(&mut self) -> Op {
        if self.spec.ordered {
            self.range()
        } else {
            self.read()
        }
    }

    /// The write transaction of the latency phase: the workload's own kind.
    pub fn lat_write(&mut self) -> Op {
        if self.spec.ingests() {
            self.insert(BATCH_ROWS)
        } else {
            self.update()
        }
    }

    /// Single-row updates that leave a live delta behind.
    pub fn live_delta(&mut self) -> Block {
        let n = self.spec.live_delta_ops;
        let ops: Vec<Op> = (0..n).map(|_| self.update()).collect();
        Block::new(ops, n as u64)
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn stream_fingerprint(spec: &Spec, seed: u64) -> u64 {
        let mut g = Gen::new(&spec.scaled(20), seed);
        g.load();
        g.block();
        g.block();
        g.fingerprint()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in WORKLOADS.iter() {
            assert_eq!(stream_fingerprint(spec, 42), stream_fingerprint(spec, 42));
            assert_ne!(
                stream_fingerprint(spec, 42),
                stream_fingerprint(spec, 43),
                "{}",
                spec.name
            );
        }
        // Workloads with the same shape still draw different streams.
        assert_ne!(
            stream_fingerprint(&WORKLOADS[1], 42),
            stream_fingerprint(&WORKLOADS[2], 42)
        );
    }

    #[test]
    fn zipf_top_key_mass() {
        let z = Zipf::new(100_000, 0.99);
        let mut rng = Rng::new(7);
        let n = 400_000;
        let top = (0..n).filter(|_| z.rank(&mut rng) == 0).count() as f64 / n as f64;
        assert!((z.top_mass() - 0.0778).abs() < 0.002, "{}", z.top_mass());
        assert!((top - z.top_mass()).abs() < 0.004, "{top}");
        assert!((0..n).all(|_| z.rank(&mut rng) < 100_000));
    }

    #[test]
    fn uniform_draws_cover_the_range() {
        let mut rng = Rng::new(1);
        let mut seen = [0u32; 10];
        for _ in 0..10_000 {
            seen[rng.below(10) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| (800..1200).contains(&c)), "{seen:?}");
        assert!((0..1000).all(|_| (0.0..1.0).contains(&rng.unit())));
    }

    #[test]
    fn blocks_have_the_declared_shape() {
        let spec = Spec {
            block: BlockShape::Scans {
                ranges: 49,
                scans: 1,
            },
            ..WORKLOADS[4].scaled(20)
        };
        let mut g = Gen::new(&spec, 1);
        g.load();
        let b = g.block();
        assert_eq!(b.ops.len(), 50);
        assert_eq!(
            b.ops
                .iter()
                .filter(|o| matches!(o, Op::ScanEq { .. }))
                .count(),
            1
        );

        let mut g = Gen::new(
            &Spec {
                block: BlockShape::Ingest {
                    rows: 1000,
                    merge_every: 300,
                },
                ..WORKLOADS[3].scaled(20)
            },
            1,
        );
        let before = g.live_rows();
        let b = g.block();
        assert_eq!(b.units, 1000);
        assert_eq!(g.live_rows(), before + 1000);
        assert_eq!(b.ops.iter().filter(|o| matches!(o, Op::Merge)).count(), 3);
        let inserted: usize = b.ops.iter().map(|o| o.expect()).sum();
        assert_eq!(inserted, 1000);
    }

    #[test]
    fn payloads_are_distinct_per_key_and_version() {
        assert_eq!(payload(9, 5, 1).len(), PAYLOAD_LEN);
        assert_ne!(payload(9, 5, 1), payload(9, 5, 2));
        assert_ne!(payload(9, 5, 1), payload(9, 6, 1));
        assert_ne!(payload(9, 5, 1), payload(8, 5, 1));
    }
}
