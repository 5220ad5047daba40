//! Persist-order protocol specifications and trace conformance checking.
//!
//! Every crash-consistency guarantee the engine makes rests on a small set
//! of *commit/publish protocols*: ordered sequences of durable stores,
//! cache-line flushes, and store fences that end in a single publish store
//! which makes the preceding work reachable. Until now those orderings
//! lived only in code and comments; this module makes them first-class
//! data:
//!
//! * a [`ProtocolSpec`] declares a protocol as a happens-before DAG of
//!   [`StepKind::Store`], [`StepKind::Flush`], [`StepKind::Fence`], and
//!   [`StepKind::Publish`] steps;
//! * [`ProtocolSpec::validate`] statically checks *happens-before
//!   completeness*: every durable store must be dominated by a flush that
//!   covers it and a following fence, all ordered before the publish
//!   point, and the publish store itself must be flushed and fenced;
//! * [`check_trace`] conformance-checks a recorded [`PersistTrace`]
//!   against a spec, given [`RangeBinding`]s that map the spec's labels to
//!   concrete byte ranges of the region — replacing the ad-hoc assertions
//!   the crash-torture suites used to hand-roll.
//!
//! The declared protocols of the engine live in [`registry`]; `pmlint`
//! validates all of them at lint time and the integration suite
//! conformance-checks recorded traces of the real engine against them.

use std::collections::HashMap;

use crate::layout::line_span;
use crate::trace::{PersistTrace, TraceEvent};

/// Index of a step within its [`ProtocolSpec`].
pub type StepId = usize;

/// Memory-ordering annotation on a protocol step: the visibility half of
/// the publication contract, complementing the durability half (flush +
/// fence) the rest of the spec machinery proves. A publish step annotated
/// `Release` promises that the engine performs the store with
/// release semantics ([`NvmRegion::store_u64_release`](crate::NvmRegion::store_u64_release));
/// an [`StepKind::AtomicLoad`] annotated `Acquire` is the matching
/// observation. `pmlint`'s atomics-ordering pass enforces the annotations
/// against the actual source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrder {
    /// No inter-thread ordering (never valid for publication).
    Relaxed,
    /// Load half of a release/acquire pair.
    Acquire,
    /// Store half of a release/acquire pair.
    Release,
    /// Combined acquire+release (read-modify-write only).
    AcqRel,
    /// Sequentially consistent (subsumes acquire and release).
    SeqCst,
}

impl std::fmt::Display for MemOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MemOrder::Relaxed => "Relaxed",
            MemOrder::Acquire => "Acquire",
            MemOrder::Release => "Release",
            MemOrder::AcqRel => "AcqRel",
            MemOrder::SeqCst => "SeqCst",
        };
        f.write_str(s)
    }
}

/// What one protocol step does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepKind {
    /// A durable store into the labelled range. `checksummed` marks
    /// publish-once payloads that must additionally be covered by a content
    /// checksum registered in the media-extent map (lint rule
    /// `publish-once-media`).
    Store {
        /// Stable label naming the target structure (matches the
        /// media-extent labels where one exists).
        label: &'static str,
        /// The payload is sealed by a content checksum once published.
        checksummed: bool,
    },
    /// A cache-line write-back covering the stores named in `covers`.
    Flush {
        /// Labels of the store/publish steps whose lines this flush covers.
        covers: &'static [&'static str],
    },
    /// A store fence: drains every preceding flush to the medium.
    Fence,
    /// The publish point — the single store that makes everything before
    /// it reachable (root swap, counter bump, timestamp publish).
    Publish {
        /// Label of the publish word.
        label: &'static str,
    },
    /// A durability step outside the NVM trace (e.g. a shadow-log fsync).
    /// Declared for ordering documentation; not observable in a persist
    /// trace, so conformance checking skips it.
    External {
        /// What must become durable externally.
        label: &'static str,
    },
    /// An atomic load of a publish word on the observation side of a
    /// protocol (seqlock read, recovery-path probe). Loads produce no
    /// trace events, so conformance checking skips them; the static
    /// validator requires an acquire-or-stronger [`MemOrder`] annotation,
    /// and `pmlint` checks the annotated source sites.
    AtomicLoad {
        /// Label of the publish word being observed.
        label: &'static str,
    },
}

/// One node of a protocol's happens-before DAG.
#[derive(Debug, Clone)]
pub struct ProtocolStep {
    /// What the step does.
    pub kind: StepKind,
    /// Steps (by index) that must happen before this one.
    pub after: Vec<StepId>,
    /// An optional step may be absent from a conforming trace (e.g. the
    /// end-timestamp stamp of a commit that performed no deletes).
    pub optional: bool,
    /// Memory-ordering annotation: how the store/load of this step must be
    /// performed for concurrent readers, independent of durability.
    /// `None` means the step carries no visibility obligation (plain
    /// store, flush, fence, external).
    pub order: Option<MemOrder>,
}

impl ProtocolStep {
    fn new(kind: StepKind, after: &[StepId]) -> ProtocolStep {
        ProtocolStep {
            kind,
            after: after.to_vec(),
            optional: false,
            order: None,
        }
    }

    fn optional(kind: StepKind, after: &[StepId]) -> ProtocolStep {
        ProtocolStep {
            kind,
            after: after.to_vec(),
            optional: true,
            order: None,
        }
    }

    fn with_order(mut self, order: MemOrder) -> ProtocolStep {
        self.order = Some(order);
        self
    }
}

/// A declared persist-order protocol: an ordered store/flush/fence DAG
/// ending in one publish point.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Stable protocol name (usable in artifacts and docs).
    pub name: &'static str,
    /// One-line description of what the protocol publishes.
    pub what: &'static str,
    /// The steps, in declaration order; `after` edges reference indices.
    pub steps: Vec<ProtocolStep>,
}

/// Static persistence-cost bound of one protocol instance, derived from
/// the spec DAG alone.
///
/// Fences are exact per step: one [`StepKind::Fence`] is one sfence, so
/// `min_fences` counts the required fence steps and `max_fences` adds the
/// optional ones. Flushes are bounded per *covered label*: a
/// [`StepKind::Flush`] covering N labels may be realised as up to N
/// cache-line write-backs (one per column, say) but never fewer than one,
/// so `min_flushes` counts required flush steps and `max_flushes` sums
/// `covers.len()` over all flush steps including optional ones. A live
/// trace of one conforming instance must land inside both intervals;
/// traffic above `max_fences`/`max_flushes` means the implementation pays
/// for persistence the protocol does not require.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticCost {
    /// Required durable stores (store + publish steps, optional excluded).
    pub min_stores: usize,
    /// All durable stores (optional included).
    pub max_stores: usize,
    /// Required flush steps (each is at least one write-back).
    pub min_flushes: usize,
    /// Upper bound on write-backs: sum of covered labels over every flush
    /// step, optional included.
    pub max_flushes: usize,
    /// Required fence steps.
    pub min_fences: usize,
    /// All fence steps (optional included).
    pub max_fences: usize,
}

/// A static defect in a [`ProtocolSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// An `after` edge references a step that does not exist.
    DanglingEdge {
        /// The step holding the bad edge.
        step: StepId,
        /// The missing target.
        target: StepId,
    },
    /// The happens-before relation has a cycle.
    Cycle,
    /// The spec declares no publish point, or more than one.
    PublishCount {
        /// Number of publish steps found.
        found: usize,
    },
    /// A flush covers a label no store or publish step declares.
    UnknownCoverLabel {
        /// The flush step.
        step: StepId,
        /// The label nothing declares.
        label: &'static str,
    },
    /// A durable store is not dominated by a flush covering it plus a
    /// following fence before the publish point.
    UnpersistedStore {
        /// Label of the store that can reach the publish point unflushed
        /// or unfenced.
        label: &'static str,
    },
    /// The publish store itself is never flushed and fenced.
    UnpersistedPublish {
        /// Label of the publish word.
        label: &'static str,
    },
    /// A step's memory-ordering annotation is missing or too weak for its
    /// role (publish stores need release-or-stronger, atomic loads need
    /// acquire-or-stronger).
    OrderMismatch {
        /// The offending step.
        step: StepId,
        /// The step's label.
        label: &'static str,
        /// The annotation found (`None` = unannotated).
        found: Option<MemOrder>,
        /// What the role requires.
        need: &'static str,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::DanglingEdge { step, target } => {
                write!(f, "step {step} orders after missing step {target}")
            }
            SpecError::Cycle => write!(f, "happens-before relation has a cycle"),
            SpecError::PublishCount { found } => {
                write!(f, "expected exactly one publish step, found {found}")
            }
            SpecError::UnknownCoverLabel { step, label } => {
                write!(f, "flush step {step} covers unknown label {label:?}")
            }
            SpecError::UnpersistedStore { label } => write!(
                f,
                "store {label:?} is not dominated by flush+fence before the publish point"
            ),
            SpecError::UnpersistedPublish { label } => {
                write!(f, "publish {label:?} is never flushed and fenced")
            }
            SpecError::OrderMismatch {
                step,
                label,
                found,
                need,
            } => match found {
                Some(o) => write!(
                    f,
                    "step {step} ({label:?}) is annotated {o} but its role requires {need}"
                ),
                None => write!(
                    f,
                    "step {step} ({label:?}) has no memory-order annotation; its role requires {need}"
                ),
            },
        }
    }
}

impl ProtocolSpec {
    /// The label of the spec's publish step, or `None` for an observe-side
    /// spec (one that only declares [`StepKind::AtomicLoad`] steps, like
    /// `seqlock-read`).
    pub fn try_publish_label(&self) -> Option<&'static str> {
        self.steps.iter().find_map(|s| match s.kind {
            StepKind::Publish { label } => Some(label),
            _ => None,
        })
    }

    /// The label of the spec's publish step.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no publish step; use
    /// [`ProtocolSpec::try_publish_label`] when the spec may be an
    /// observe-side spec.
    pub fn publish_label(&self) -> &'static str {
        self.try_publish_label().expect("spec has a publish step")
    }

    /// True for an observe-side spec: no publish point, at least one
    /// atomic load of someone else's publish word.
    pub fn is_observe(&self) -> bool {
        self.try_publish_label().is_none()
            && self
                .steps
                .iter()
                .any(|s| matches!(s.kind, StepKind::AtomicLoad { .. }))
    }

    /// Labels of every durable store step, with their checksum flag.
    pub fn store_labels(&self) -> Vec<(&'static str, bool)> {
        self.steps
            .iter()
            .filter_map(|s| match s.kind {
                StepKind::Store { label, checksummed } => Some((label, checksummed)),
                _ => None,
            })
            .collect()
    }

    /// The spec's static persistence-cost bound: how many durable stores,
    /// cache-line write-backs, and fences one conforming protocol instance
    /// may issue. See [`StaticCost`] for the exact interval semantics.
    pub fn static_cost(&self) -> StaticCost {
        let mut c = StaticCost {
            min_stores: 0,
            max_stores: 0,
            min_flushes: 0,
            max_flushes: 0,
            min_fences: 0,
            max_fences: 0,
        };
        for s in &self.steps {
            match s.kind {
                StepKind::Store { .. } | StepKind::Publish { .. } => {
                    c.max_stores += 1;
                    if !s.optional {
                        c.min_stores += 1;
                    }
                }
                StepKind::Flush { covers } => {
                    c.max_flushes += covers.len().max(1);
                    if !s.optional {
                        c.min_flushes += 1;
                    }
                }
                StepKind::Fence => {
                    c.max_fences += 1;
                    if !s.optional {
                        c.min_fences += 1;
                    }
                }
                StepKind::External { .. } | StepKind::AtomicLoad { .. } => {}
            }
        }
        c
    }

    /// Statically validate the spec for happens-before completeness.
    ///
    /// Checks, in order: every `after` edge resolves; the relation is
    /// acyclic; there is exactly one publish step; every flush covers only
    /// declared labels; every durable store is dominated by a covering
    /// flush and a following fence, all happens-before the publish point;
    /// and the publish store itself is followed by a covering flush and a
    /// fence.
    pub fn validate(&self) -> Result<(), SpecError> {
        let n = self.steps.len();
        for (i, s) in self.steps.iter().enumerate() {
            for &t in &s.after {
                if t >= n {
                    return Err(SpecError::DanglingEdge { step: i, target: t });
                }
            }
        }
        let order = topo_order(&self.steps).ok_or(SpecError::Cycle)?;

        let publishes: Vec<StepId> = self
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, StepKind::Publish { .. }))
            .map(|(i, _)| i)
            .collect();
        let has_atomic_load = self
            .steps
            .iter()
            .any(|s| matches!(s.kind, StepKind::AtomicLoad { .. }));
        // Observe-side specs (seqlock-read) have no publish point of their
        // own: they describe how someone else's publish word is read.
        let publish = match publishes.len() {
            1 => Some(publishes[0]),
            0 if has_atomic_load => None,
            found => return Err(SpecError::PublishCount { found }),
        };

        // Ordering annotations: a publish store annotated for visibility
        // must be release-or-stronger; an atomic load must always be
        // annotated acquire-or-stronger (an unordered observation of a
        // publish word is exactly the bug the annotation exists to rule
        // out).
        for (i, s) in self.steps.iter().enumerate() {
            match s.kind {
                StepKind::Publish { label } => {
                    if let Some(o) = s.order {
                        if !matches!(o, MemOrder::Release | MemOrder::SeqCst) {
                            return Err(SpecError::OrderMismatch {
                                step: i,
                                label,
                                found: Some(o),
                                need: "Release or SeqCst",
                            });
                        }
                    }
                }
                StepKind::AtomicLoad { label } => match s.order {
                    Some(MemOrder::Acquire | MemOrder::SeqCst) => {}
                    other => {
                        return Err(SpecError::OrderMismatch {
                            step: i,
                            label,
                            found: other,
                            need: "Acquire or SeqCst",
                        });
                    }
                },
                _ => {}
            }
        }

        let declared: Vec<&'static str> = self
            .steps
            .iter()
            .filter_map(|s| match s.kind {
                StepKind::Store { label, .. } | StepKind::Publish { label } => Some(label),
                _ => None,
            })
            .collect();
        for (i, s) in self.steps.iter().enumerate() {
            if let StepKind::Flush { covers } = s.kind {
                for label in covers {
                    if !declared.contains(label) {
                        return Err(SpecError::UnknownCoverLabel { step: i, label });
                    }
                }
            }
        }

        // happens-before reachability: hb[a] holds the set of steps that
        // `a` precedes (transitively).
        let reach = reachability(&self.steps, &order);
        let before = |a: StepId, b: StepId| reach[a][b];

        // Every durable store needs store → flush(covering) → fence →
        // publish, all ordered (no deadline in an observe-side spec).
        for (i, s) in self.steps.iter().enumerate() {
            let StepKind::Store { label, .. } = s.kind else {
                continue;
            };
            if !store_is_persisted_before(&self.steps, &before, i, label, publish) {
                return Err(SpecError::UnpersistedStore { label });
            }
        }

        // The publish store itself must be made durable (no deadline — it
        // is the last step of the protocol). The index was found above, so
        // a mismatch here is a spec-table inconsistency, not a crash.
        if let Some(publish) = publish {
            let StepKind::Publish { label } = self.steps[publish].kind else {
                return Err(SpecError::PublishCount { found: 0 });
            };
            if !store_is_persisted_before(&self.steps, &before, publish, label, None) {
                return Err(SpecError::UnpersistedPublish { label });
            }
        }
        Ok(())
    }
}

/// Does a flush covering `label` exist after step `store`, with a fence
/// after the flush, and (when `deadline` is given) the fence ordered
/// before the deadline step?
fn store_is_persisted_before(
    steps: &[ProtocolStep],
    before: &impl Fn(StepId, StepId) -> bool,
    store: StepId,
    label: &'static str,
    deadline: Option<StepId>,
) -> bool {
    for (fi, fs) in steps.iter().enumerate() {
        let StepKind::Flush { covers } = fs.kind else {
            continue;
        };
        if !covers.contains(&label) || !before(store, fi) {
            continue;
        }
        for (zi, zs) in steps.iter().enumerate() {
            if !matches!(zs.kind, StepKind::Fence) || !before(fi, zi) {
                continue;
            }
            match deadline {
                Some(d) => {
                    if before(zi, d) {
                        return true;
                    }
                }
                None => return true,
            }
        }
    }
    false
}

/// Kahn topological order; `None` on a cycle.
fn topo_order(steps: &[ProtocolStep]) -> Option<Vec<StepId>> {
    let n = steps.len();
    let mut indeg = vec![0usize; n];
    for s in steps {
        for &_t in &s.after {
            // edge t -> current; indegree of current counts its `after`s
        }
    }
    for (i, s) in steps.iter().enumerate() {
        indeg[i] = s.after.len();
    }
    let mut ready: Vec<StepId> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = ready.pop() {
        order.push(i);
        for (j, s) in steps.iter().enumerate() {
            if s.after.contains(&i) {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(j);
                }
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Transitive happens-before matrix: `reach[a][b]` iff `a` precedes `b`.
fn reachability(steps: &[ProtocolStep], order: &[StepId]) -> Vec<Vec<bool>> {
    let n = steps.len();
    let mut reach = vec![vec![false; n]; n];
    // Process in topological order so predecessors' rows are complete.
    for &j in order {
        for &p in &steps[j].after {
            reach[p][j] = true;
            for row in reach.iter_mut() {
                if row[p] {
                    row[j] = true;
                }
            }
        }
    }
    // Propagate once more to close over orderings discovered late (the
    // loop above fills rows in topo order, so one pass suffices; this
    // second pass is defensive and cheap at these sizes).
    for k in 0..n {
        let via = reach[k].clone();
        for row in reach.iter_mut() {
            if row[k] {
                for (dst, &src) in row.iter_mut().zip(via.iter()) {
                    *dst = *dst || src;
                }
            }
        }
    }
    reach
}

// ---------------------------------------------------------------------------
// Trace conformance
// ---------------------------------------------------------------------------

/// Binds a spec label to the concrete byte ranges it occupies in the
/// region for one recorded run. Labels without a binding are skipped by
/// the conformance checker (their offsets were not observable).
#[derive(Debug, Clone)]
pub struct RangeBinding {
    /// The spec label (store or publish).
    pub label: &'static str,
    /// `(offset, len)` ranges; a label may be scattered (one range per
    /// column, say).
    pub ranges: Vec<(u64, u64)>,
}

impl RangeBinding {
    /// Convenience constructor.
    pub fn new(label: &'static str, ranges: Vec<(u64, u64)>) -> RangeBinding {
        RangeBinding { label, ranges }
    }
}

/// One conformance violation found in a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceViolation {
    /// A bound durable store had not been flushed+fenced when the publish
    /// store was issued — on real hardware the published state could
    /// reference bytes that never reached the medium.
    UnpersistedStoreAtPublish {
        /// Label of the offending store.
        label: &'static str,
        /// The cache line still in flight.
        line: u64,
        /// Sequence number of the store.
        store_seq: u64,
        /// Sequence number of the publish store that overtook it.
        publish_seq: u64,
    },
    /// A previous instance's publish store was still not durable when the
    /// next publish was issued.
    PublishNotPersisted {
        /// Sequence number of the unpersisted publish store.
        publish_seq: u64,
    },
    /// A bound store remained unpersisted at the end of the trace.
    UnpersistedAtEnd {
        /// Label of the store.
        label: &'static str,
        /// The cache line.
        line: u64,
        /// Sequence number of the store.
        store_seq: u64,
    },
    /// A required, bound step produced no store event in the whole trace.
    StepNeverObserved {
        /// The label that never appeared.
        label: &'static str,
    },
}

impl std::fmt::Display for ConformanceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConformanceViolation::UnpersistedStoreAtPublish {
                label,
                line,
                store_seq,
                publish_seq,
            } => write!(
                f,
                "store #{store_seq} into {label:?} (line {line}) not flushed+fenced before publish store #{publish_seq}"
            ),
            ConformanceViolation::PublishNotPersisted { publish_seq } => {
                write!(f, "publish store #{publish_seq} never became durable")
            }
            ConformanceViolation::UnpersistedAtEnd {
                label,
                line,
                store_seq,
            } => write!(
                f,
                "store #{store_seq} into {label:?} (line {line}) still unpersisted at end of trace"
            ),
            ConformanceViolation::StepNeverObserved { label } => {
                write!(f, "required step {label:?} produced no store event")
            }
        }
    }
}

/// Result of conformance-checking one trace against one spec.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Name of the spec checked.
    pub spec: &'static str,
    /// Publish store events observed (protocol instances).
    pub publish_instances: u64,
    /// Bound store events checked.
    pub bound_stores_checked: u64,
    /// Everything that violated the declared ordering.
    pub violations: Vec<ConformanceViolation>,
}

impl ConformanceReport {
    /// True when the trace conforms to the spec.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Dirty,
    InFlight,
}

struct TrackedLine {
    label: &'static str,
    seq: u64,
    state: LineState,
    is_publish: bool,
}

/// Conformance-check a recorded trace against a validated spec.
///
/// The checker replays the event log with per-cache-line persistence
/// states. Stores that intersect a bound label's ranges are *tracked*:
/// a flush of the line moves it in flight, a fence makes it durable. At
/// every publish store event (a store intersecting the publish label's
/// binding), any tracked line that is not durable is a violation — the
/// publish overtook a store the spec orders before it. The publish line
/// itself must be durable by the next publish (or end of trace).
///
/// Requires [`TraceConfig::keep_events`](crate::TraceConfig) recording.
/// Unbound labels are skipped; bound, required labels with no store events
/// at all are reported as [`ConformanceViolation::StepNeverObserved`].
pub fn check_trace(
    spec: &ProtocolSpec,
    bindings: &[RangeBinding],
    trace: &PersistTrace,
) -> ConformanceReport {
    // Observe-side specs (atomic loads only) produce no store events:
    // there is nothing a persist trace could check.
    let Some(publish_label) = spec.try_publish_label() else {
        return ConformanceReport {
            spec: spec.name,
            publish_instances: 0,
            bound_stores_checked: 0,
            violations: Vec::new(),
        };
    };
    let publish_ranges: Vec<(u64, u64)> = bindings
        .iter()
        .filter(|b| b.label == publish_label)
        .flat_map(|b| b.ranges.iter().copied())
        .collect();
    let store_bindings: Vec<&RangeBinding> = bindings
        .iter()
        .filter(|b| b.label != publish_label)
        .collect();

    let mut report = ConformanceReport {
        spec: spec.name,
        publish_instances: 0,
        bound_stores_checked: 0,
        violations: Vec::new(),
    };
    let mut tracked: HashMap<u64, TrackedLine> = HashMap::new();
    let mut observed: HashMap<&'static str, u64> = HashMap::new();

    let intersects =
        |off: u64, len: u64, (ro, rl): (u64, u64)| rl > 0 && off < ro + rl && ro < off + len;

    for ev in &trace.events {
        match *ev {
            TraceEvent::Store { seq, off, len, .. } => {
                if len == 0 {
                    continue;
                }
                let hits_publish = publish_ranges.iter().any(|&r| intersects(off, len, r));
                if hits_publish {
                    report.publish_instances += 1;
                    *observed.entry(publish_label).or_insert(0) += 1;
                    // Everything the spec orders before the publish must be
                    // durable by now.
                    for (line, t) in tracked.iter() {
                        report.violations.push(if t.is_publish {
                            ConformanceViolation::PublishNotPersisted { publish_seq: t.seq }
                        } else {
                            ConformanceViolation::UnpersistedStoreAtPublish {
                                label: t.label,
                                line: *line,
                                store_seq: t.seq,
                                publish_seq: seq,
                            }
                        });
                    }
                    tracked.retain(|_, t| t.is_publish);
                    let (a, b) = line_span(off, len);
                    for line in a..=b {
                        tracked.insert(
                            line,
                            TrackedLine {
                                label: publish_label,
                                seq,
                                state: LineState::Dirty,
                                is_publish: true,
                            },
                        );
                    }
                    continue;
                }
                for binding in &store_bindings {
                    if binding.ranges.iter().any(|&r| intersects(off, len, r)) {
                        report.bound_stores_checked += 1;
                        *observed.entry(binding.label).or_insert(0) += 1;
                        let (a, b) = line_span(off, len);
                        for line in a..=b {
                            tracked.insert(
                                line,
                                TrackedLine {
                                    label: binding.label,
                                    seq,
                                    state: LineState::Dirty,
                                    is_publish: false,
                                },
                            );
                        }
                        break;
                    }
                }
            }
            TraceEvent::Flush { line, .. } => {
                if let Some(t) = tracked.get_mut(&line) {
                    if t.state == LineState::Dirty {
                        t.state = LineState::InFlight;
                    }
                }
            }
            TraceEvent::Fence { .. } => {
                tracked.retain(|_, t| t.state != LineState::InFlight);
            }
        }
    }

    // Whatever is still tracked never became durable inside the trace.
    for (line, t) in &tracked {
        report.violations.push(if t.is_publish {
            ConformanceViolation::PublishNotPersisted { publish_seq: t.seq }
        } else {
            ConformanceViolation::UnpersistedAtEnd {
                label: t.label,
                line: *line,
                store_seq: t.seq,
            }
        });
    }

    // Required steps that were bound but never seen.
    for step in &spec.steps {
        let StepKind::Store { label, .. } = step.kind else {
            continue;
        };
        if step.optional {
            continue;
        }
        let bound = store_bindings.iter().any(|b| b.label == label);
        if bound && observed.get(label).copied().unwrap_or(0) == 0 {
            report
                .violations
                .push(ConformanceViolation::StepNeverObserved { label });
        }
    }
    report
}

// ---------------------------------------------------------------------------
// The engine's declared protocols
// ---------------------------------------------------------------------------

/// A publish label exported for static-analysis binding: the label of a
/// spec's publish step plus the spec that declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishLabel {
    /// Publish-step label (e.g. `"delta-rows"`).
    pub label: &'static str,
    /// Name of the declaring [`ProtocolSpec`].
    pub spec: &'static str,
    /// Memory-ordering annotation on the publish step, when the spec
    /// declares one. `Release`/`SeqCst` means the engine must perform
    /// the publish with a release store and observe it with acquire
    /// loads — `pmlint`'s atomics-ordering pass enforces this.
    pub order: Option<MemOrder>,
}

/// Every distinct publish label declared by the [`registry`], in
/// first-declaration order. `pmlint` binds `// pmlint: publish(<label>)`
/// source annotations against this set: unknown labels and labels with
/// no annotated site are both findings.
pub fn publish_labels() -> Vec<PublishLabel> {
    let mut out: Vec<PublishLabel> = Vec::new();
    for spec in registry() {
        let Some(label) = spec.try_publish_label() else {
            continue; // observe-side spec: no publish word of its own
        };
        if !out.iter().any(|p| p.label == label) {
            let order = spec
                .steps
                .iter()
                .find(|st| matches!(st.kind, StepKind::Publish { .. }))
                .and_then(|st| st.order);
            out.push(PublishLabel {
                label,
                spec: spec.name,
                order,
            });
        }
    }
    out
}

/// Every persist-order protocol the engine implements, as validated,
/// machine-checkable specs. `pmlint` validates each spec and checks that
/// every checksummed label is registered in the media-extent map; the
/// integration suite conformance-checks recorded traces against them.
pub fn registry() -> Vec<ProtocolSpec> {
    use StepKind::*;
    vec![
        // Commit: stamp the MVCC words of every write (each write-back
        // issued without draining), drain once — one fence for all touched
        // tables, which share the region — then one 8-byte publish of the
        // commit timestamp in the catalogue. One batched flush step covers
        // all begin/end stamps — realised as one write-back per stamped
        // word — so a W-write commit pays two fences, not W+1. (The
        // registry slot clear that follows is written back without a fence
        // of its own.)
        ProtocolSpec {
            name: "txn-commit-publish",
            what: "commit-timestamp publish after batched per-row MVCC stamps",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "delta-begin",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::optional(
                    Store {
                        label: "delta-end",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &["delta-begin", "delta-end"],
                    },
                    &[0, 1],
                ),
                ProtocolStep::new(Fence, &[2]),
                ProtocolStep::new(
                    Publish {
                        label: "catalog-cts",
                    },
                    &[3],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["catalog-cts"],
                    },
                    &[4],
                ),
                ProtocolStep::new(Fence, &[5]),
            ],
        },
        // Delta append, one instance per commit and table, covering every
        // row staged since the last one: dictionary/blob entries, cells and
        // MVCC words are staged (written back, no fence) as the rows are
        // inserted; the commit drains them once, publishes the dictionary
        // and blob length words — they seal the content they cover, so
        // they follow its drain — fences, and only then lets the row
        // counter cover the rows (a cell must never be reachable before its
        // dictionary entry is). Without a new dictionary entry the middle
        // fence is skipped: two or three fences per instance, none per row.
        ProtocolSpec {
            name: "delta-append",
            what: "rows staged into the delta store, published by the row counter",
            steps: vec![
                ProtocolStep::optional(
                    Store {
                        label: "delta-dict",
                        checksummed: true,
                    },
                    &[],
                ),
                ProtocolStep::optional(
                    Store {
                        label: "delta-blob",
                        checksummed: true,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Store {
                        label: "delta-av",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Store {
                        label: "delta-begin",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Store {
                        label: "delta-end",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &[
                            "delta-dict",
                            "delta-blob",
                            "delta-av",
                            "delta-begin",
                            "delta-end",
                        ],
                    },
                    &[0, 1, 2, 3, 4],
                ),
                ProtocolStep::new(Fence, &[5]),
                ProtocolStep::optional(
                    Store {
                        label: "delta-lens",
                        checksummed: false,
                    },
                    &[6],
                ),
                ProtocolStep::optional(
                    Flush {
                        covers: &["delta-lens"],
                    },
                    &[7],
                ),
                ProtocolStep::optional(Fence, &[8]),
                ProtocolStep::new(
                    Publish {
                        label: "delta-rows",
                    },
                    &[6, 9],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["delta-rows"],
                    },
                    &[10],
                ),
                ProtocolStep::new(Fence, &[11]),
            ],
        },
        // Merge: the new main tree (checksummed payloads), the fresh delta
        // descriptor, the replacement indexes and the pair block that names
        // them all are staged with bulk stores and range write-backs — no
        // one can reach them — and drained by one fence before the pair
        // pointer swaps to them. The only other fences of a merge belong to
        // the allocator's reserve/activate/free protocols, one set per
        // block: a merge costs O(blocks), never O(rows).
        ProtocolSpec {
            name: "merge-publish",
            what: "delta→main merge with its indexes, published by the root pair swap",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "main-dict",
                        checksummed: true,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Store {
                        label: "main-av",
                        checksummed: true,
                    },
                    &[],
                ),
                ProtocolStep::optional(
                    Store {
                        label: "main-blob",
                        checksummed: true,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Store {
                        label: "main-end",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::optional(
                    Store {
                        label: "index-structure",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Store {
                        label: "merge-pair",
                        checksummed: false,
                    },
                    &[0, 1, 2, 3, 4],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &[
                            "main-dict",
                            "main-av",
                            "main-blob",
                            "main-end",
                            "index-structure",
                            "merge-pair",
                        ],
                    },
                    &[5],
                ),
                ProtocolStep::new(Fence, &[6]),
                ProtocolStep::new(
                    Publish {
                        label: "table-pair",
                    },
                    &[7],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["table-pair"],
                    },
                    &[8],
                ),
                ProtocolStep::new(Fence, &[9]),
            ],
        },
        // DDL: the catalogue entry (name, root, index block) is durable
        // before the table count publishes it.
        ProtocolSpec {
            name: "ddl-create-table",
            what: "CREATE TABLE, published by the catalogue table count",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "catalog-entry",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &["catalog-entry"],
                    },
                    &[0],
                ),
                ProtocolStep::new(Fence, &[1]),
                ProtocolStep::new(
                    Publish {
                        label: "catalog-ntables",
                    },
                    &[2],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["catalog-ntables"],
                    },
                    &[3],
                ),
                ProtocolStep::new(Fence, &[4]),
            ],
        },
        // Index registration (create_index): the bulk-built index — one
        // store and one range write-back per block — and its registration
        // (catalogue entry plus the descriptor word in the table's pair
        // block) share one drain before the per-table index count
        // publishes them.
        ProtocolSpec {
            name: "index-register",
            what: "bulk-built persistent index and its registration, published by the index count",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "index-structure",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Store {
                        label: "index-entry",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &["index-structure", "index-entry"],
                    },
                    &[0, 1],
                ),
                ProtocolStep::new(Fence, &[2]),
                ProtocolStep::new(
                    Publish {
                        label: "index-count",
                    },
                    &[3],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["index-count"],
                    },
                    &[4],
                ),
                ProtocolStep::new(Fence, &[5]),
            ],
        },
        // Index rebuild (recovery rung 1): the bulk-built structure is
        // staged like any other and drained once before the descriptor
        // word — an aux word of the table's pair block — swaps to it. (A
        // merge's replacement indexes ride `merge-publish` instead.)
        ProtocolSpec {
            name: "index-desc-swap",
            what: "bulk index rebuild, published by the descriptor word swap",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "index-structure",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &["index-structure"],
                    },
                    &[0],
                ),
                ProtocolStep::new(Fence, &[1]),
                ProtocolStep::new(
                    Publish {
                        label: "index-desc",
                    },
                    &[2],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["index-desc"],
                    },
                    &[3],
                ),
                ProtocolStep::new(Fence, &[4]),
            ],
        },
        // Shadow-WAL commit: the log is synced (external durability)
        // strictly before the NVM commit-timestamp publish — the
        // `log ⊇ published state` invariant rung 2 relies on.
        ProtocolSpec {
            name: "shadow-wal-commit",
            what: "log-before-publish ordering of the shadow redo log",
            steps: vec![
                ProtocolStep::new(
                    External {
                        label: "shadow-log-sync",
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Publish {
                        label: "catalog-cts",
                    },
                    &[0],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["catalog-cts"],
                    },
                    &[1],
                ),
                ProtocolStep::new(Fence, &[2]),
            ],
        },
        // Recovery rung 2: the rebuilt table tree is durable before the
        // catalogue root pointer swaps to it (quarantining the old tree).
        ProtocolSpec {
            name: "recovery-root-swap",
            what: "rung-2 table rebuild, published by the catalogue root swap",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "rebuilt-table",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &["rebuilt-table"],
                    },
                    &[0],
                ),
                ProtocolStep::new(Fence, &[1]),
                ProtocolStep::new(
                    Publish {
                        label: "catalog-table-root",
                    },
                    &[2],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["catalog-table-root"],
                    },
                    &[3],
                ),
                ProtocolStep::new(Fence, &[4]),
            ],
        },
        // Recovery attempt accounting: the progress word is the one
        // deliberately non-idempotent recovery-time store (a monotone
        // attempt counter bumped at attempt start, zeroed on success).
        // It is a single word, so the bump itself is the publish and
        // must be fenced before any other recovery mutation depends on
        // the attempt having been registered.
        ProtocolSpec {
            name: "recovery-progress",
            what: "recovery attempt counter, published before recovery mutates state",
            steps: vec![
                ProtocolStep::new(
                    Publish {
                        label: "recovery-progress",
                    },
                    &[],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["recovery-progress"],
                    },
                    &[0],
                ),
                ProtocolStep::new(Fence, &[1]),
            ],
        },
        // Recovery undo pass: per-row MVCC repairs are persisted strictly
        // before the registry slot is released (tid zeroed). A crash
        // between the two replays the repairs — they are idempotent at a
        // fixed last-cts — while releasing first could strand a
        // half-repaired row with no registry entry pointing at it.
        ProtocolSpec {
            name: "recovery-undo-release",
            what: "undo-pass row repairs durable before the registry slot clear",
            steps: vec![
                ProtocolStep::optional(
                    Store {
                        label: "mvcc-repair",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::optional(
                    Flush {
                        covers: &["mvcc-repair"],
                    },
                    &[0],
                ),
                ProtocolStep::optional(Fence, &[1]),
                ProtocolStep::new(
                    Publish {
                        label: "registry-slot-clear",
                    },
                    &[2],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["registry-slot-clear"],
                    },
                    &[3],
                ),
                ProtocolStep::new(Fence, &[4]),
            ],
        },
        // Seqlock write: the odd sequence bump opens the write window
        // (readers retry), the payload is stored and persisted, and the
        // even bump publishes it. Both bumps are release stores of the
        // same word; only the closing bump is the publish step — the odd
        // bump is declared as an (unbound in traces) store so the DAG
        // shows the window ordering.
        ProtocolSpec {
            name: "seqlock-write",
            what: "seqlock payload publish between odd/even sequence bumps",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "seqlock-seq-odd",
                        checksummed: false,
                    },
                    &[],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["seqlock-seq-odd"],
                    },
                    &[0],
                ),
                ProtocolStep::new(Fence, &[1]),
                ProtocolStep::new(
                    Store {
                        label: "seqlock-payload",
                        checksummed: false,
                    },
                    &[2],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &["seqlock-payload"],
                    },
                    &[3],
                ),
                ProtocolStep::new(Fence, &[4]),
                ProtocolStep::new(
                    Publish {
                        label: "seqlock-seq",
                    },
                    &[5],
                )
                .with_order(MemOrder::Release),
                ProtocolStep::new(
                    Flush {
                        covers: &["seqlock-seq"],
                    },
                    &[6],
                ),
                ProtocolStep::new(Fence, &[7]),
            ],
        },
        // Seqlock read — the observe side of `seqlock-write`: an acquire
        // load of the sequence word, the payload read, and a validating
        // acquire re-read (equal and even ⇒ the payload is consistent).
        // Static-only: loads produce no persist-trace events.
        ProtocolSpec {
            name: "seqlock-read",
            what: "optimistic seqlock read validated by acquire re-read",
            steps: vec![
                ProtocolStep::new(
                    AtomicLoad {
                        label: "seqlock-seq",
                    },
                    &[],
                )
                .with_order(MemOrder::Acquire),
                ProtocolStep::new(
                    AtomicLoad {
                        label: "seqlock-seq",
                    },
                    &[0],
                )
                .with_order(MemOrder::Acquire),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatencyModel, NvmRegion, TraceConfig};

    #[test]
    fn registry_specs_all_validate() {
        for spec in registry() {
            assert!(
                spec.validate().is_ok(),
                "spec {} failed validation: {:?}",
                spec.name,
                spec.validate()
            );
            // Every spec names its publish point — or is an observe-side
            // spec made of acquire loads.
            assert!(
                spec.try_publish_label().is_some() || spec.is_observe(),
                "spec {} has neither publish nor atomic-load steps",
                spec.name
            );
        }
        assert!(registry().len() >= 6, "at least six declared protocols");
    }

    #[test]
    fn registry_publish_steps_are_release_annotated() {
        for spec in registry() {
            for s in &spec.steps {
                if matches!(s.kind, StepKind::Publish { .. }) {
                    assert_eq!(
                        s.order,
                        Some(MemOrder::Release),
                        "publish step of {} must carry a Release annotation",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn static_cost_bounds_are_consistent() {
        for spec in registry() {
            let c = spec.static_cost();
            assert!(c.min_stores <= c.max_stores, "{}: store bounds", spec.name);
            assert!(
                c.min_flushes <= c.max_flushes,
                "{}: flush bounds",
                spec.name
            );
            assert!(c.min_fences <= c.max_fences, "{}: fence bounds", spec.name);
            if !spec.is_observe() {
                // Every publish-side protocol must fence at least once: the
                // publish word itself has to drain to the medium.
                assert!(c.min_fences >= 1, "{}: publish without a fence", spec.name);
                assert!(c.min_flushes >= 1, "{}: publish without a flush", spec.name);
            } else {
                assert_eq!(c.max_fences, 0, "{}: observe-side spec fences", spec.name);
            }
        }
    }

    #[test]
    fn static_cost_of_delta_append() {
        let spec = registry()
            .into_iter()
            .find(|s| s.name == "delta-append")
            .unwrap();
        let c = spec.static_cost();
        // Required: av/begin/end stores + the publish; optional dict/blob
        // and their length words.
        assert_eq!(c.min_stores, 4);
        assert_eq!(c.max_stores, 7);
        // One batched flush plus the publish flush; the batch may be
        // realised as up to five per-column write-backs, the length words
        // add one.
        assert_eq!(c.min_flushes, 2);
        assert_eq!(c.max_flushes, 7);
        // One fence drains the batch, one seals the publish word; a new
        // dictionary entry puts one more between them.
        assert_eq!(c.min_fences, 2);
        assert_eq!(c.max_fences, 3);
    }

    #[test]
    fn relaxed_publish_annotation_fails_validation() {
        use StepKind::*;
        let spec = ProtocolSpec {
            name: "bad-relaxed-publish",
            what: "publish annotated Relaxed",
            steps: vec![
                ProtocolStep::new(Publish { label: "p" }, &[]).with_order(MemOrder::Relaxed),
                ProtocolStep::new(Flush { covers: &["p"] }, &[0]),
                ProtocolStep::new(Fence, &[1]),
            ],
        };
        assert!(matches!(
            spec.validate(),
            Err(SpecError::OrderMismatch {
                label: "p",
                found: Some(MemOrder::Relaxed),
                ..
            })
        ));
    }

    #[test]
    fn unannotated_atomic_load_fails_validation() {
        use StepKind::*;
        let spec = ProtocolSpec {
            name: "bad-bare-load",
            what: "atomic load without an order annotation",
            steps: vec![ProtocolStep::new(AtomicLoad { label: "p" }, &[])],
        };
        assert!(matches!(
            spec.validate(),
            Err(SpecError::OrderMismatch {
                label: "p",
                found: None,
                ..
            })
        ));
        let relaxed = ProtocolSpec {
            name: "bad-relaxed-load",
            what: "atomic load annotated Relaxed",
            steps: vec![
                ProtocolStep::new(AtomicLoad { label: "p" }, &[]).with_order(MemOrder::Relaxed)
            ],
        };
        assert!(matches!(
            relaxed.validate(),
            Err(SpecError::OrderMismatch {
                found: Some(MemOrder::Relaxed),
                ..
            })
        ));
    }

    #[test]
    fn observe_spec_skips_trace_conformance() {
        let r = NvmRegion::new(4096, LatencyModel::zero());
        r.trace_start(TraceConfig::default());
        r.write_pod(64, &1u64).unwrap();
        r.persist(64, 8).unwrap();
        let trace = r.trace_stop().unwrap();
        let spec = registry()
            .into_iter()
            .find(|s| s.name == "seqlock-read")
            .unwrap();
        assert!(spec.is_observe());
        let report = check_trace(&spec, &[], &trace);
        assert!(report.is_clean());
        assert_eq!(report.publish_instances, 0);
    }

    #[test]
    fn missing_fence_fails_validation() {
        use StepKind::*;
        let spec = ProtocolSpec {
            name: "bad-no-fence",
            what: "store flushed but never fenced before publish",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "x",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(Flush { covers: &["x"] }, &[0]),
                ProtocolStep::new(Publish { label: "p" }, &[1]),
                ProtocolStep::new(Flush { covers: &["p"] }, &[2]),
                ProtocolStep::new(Fence, &[3]),
            ],
        };
        assert_eq!(
            spec.validate(),
            Err(SpecError::UnpersistedStore { label: "x" })
        );
    }

    #[test]
    fn missing_flush_fails_validation() {
        use StepKind::*;
        let spec = ProtocolSpec {
            name: "bad-no-flush",
            what: "store fenced but never flushed",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "x",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(Fence, &[0]),
                ProtocolStep::new(Publish { label: "p" }, &[1]),
                ProtocolStep::new(Flush { covers: &["p"] }, &[2]),
                ProtocolStep::new(Fence, &[3]),
            ],
        };
        assert_eq!(
            spec.validate(),
            Err(SpecError::UnpersistedStore { label: "x" })
        );
    }

    #[test]
    fn unpersisted_publish_fails_validation() {
        use StepKind::*;
        let spec = ProtocolSpec {
            name: "bad-publish",
            what: "publish never persisted",
            steps: vec![ProtocolStep::new(Publish { label: "p" }, &[])],
        };
        assert_eq!(
            spec.validate(),
            Err(SpecError::UnpersistedPublish { label: "p" })
        );
    }

    #[test]
    fn cycle_detected() {
        use StepKind::*;
        let spec = ProtocolSpec {
            name: "bad-cycle",
            what: "a before b before a",
            steps: vec![
                ProtocolStep::new(Fence, &[1]),
                ProtocolStep::new(Fence, &[0]),
            ],
        };
        assert_eq!(spec.validate(), Err(SpecError::Cycle));
    }

    /// Helper: a simple "store then publish" spec bound to two lines.
    fn simple_spec() -> ProtocolSpec {
        use StepKind::*;
        ProtocolSpec {
            name: "test-simple",
            what: "one store, one publish",
            steps: vec![
                ProtocolStep::new(
                    Store {
                        label: "payload",
                        checksummed: false,
                    },
                    &[],
                ),
                ProtocolStep::new(
                    Flush {
                        covers: &["payload"],
                    },
                    &[0],
                ),
                ProtocolStep::new(Fence, &[1]),
                ProtocolStep::new(Publish { label: "publish" }, &[2]),
                ProtocolStep::new(
                    Flush {
                        covers: &["publish"],
                    },
                    &[3],
                ),
                ProtocolStep::new(Fence, &[4]),
            ],
        }
    }

    fn bindings() -> Vec<RangeBinding> {
        vec![
            RangeBinding::new("payload", vec![(64, 8)]),
            RangeBinding::new("publish", vec![(128, 8)]),
        ]
    }

    #[test]
    fn conforming_trace_is_clean() {
        let r = NvmRegion::new(4096, LatencyModel::zero());
        r.trace_start(TraceConfig::default());
        r.write_pod(64, &1u64).unwrap();
        r.persist(64, 8).unwrap();
        r.write_pod(128, &2u64).unwrap();
        r.persist(128, 8).unwrap();
        let trace = r.trace_stop().unwrap();
        let report = check_trace(&simple_spec(), &bindings(), &trace);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.publish_instances, 1);
        assert_eq!(report.bound_stores_checked, 1);
    }

    #[test]
    fn publish_overtaking_unflushed_store_is_flagged() {
        let r = NvmRegion::new(4096, LatencyModel::zero());
        r.trace_start(TraceConfig::default());
        r.write_pod(64, &1u64).unwrap(); // never flushed
        r.write_pod(128, &2u64).unwrap();
        r.persist(128, 8).unwrap();
        let trace = r.trace_stop().unwrap();
        let report = check_trace(&simple_spec(), &bindings(), &trace);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            ConformanceViolation::UnpersistedStoreAtPublish {
                label: "payload",
                line: 1,
                ..
            }
        ));
    }

    #[test]
    fn flushed_but_unfenced_store_is_flagged() {
        let r = NvmRegion::new(4096, LatencyModel::zero());
        r.trace_start(TraceConfig::default());
        r.write_pod(64, &1u64).unwrap();
        r.flush(64, 8).unwrap(); // no fence before publish
        r.write_pod(128, &2u64).unwrap();
        r.persist(128, 8).unwrap();
        let trace = r.trace_stop().unwrap();
        let report = check_trace(&simple_spec(), &bindings(), &trace);
        assert!(matches!(
            report.violations[0],
            ConformanceViolation::UnpersistedStoreAtPublish {
                label: "payload",
                ..
            }
        ));
    }

    #[test]
    fn unpublished_tail_store_is_flagged() {
        let r = NvmRegion::new(4096, LatencyModel::zero());
        r.trace_start(TraceConfig::default());
        r.write_pod(64, &1u64).unwrap();
        r.persist(64, 8).unwrap();
        r.write_pod(128, &2u64).unwrap();
        r.persist(128, 8).unwrap();
        r.write_pod(64, &3u64).unwrap(); // dirty at end of trace
        let trace = r.trace_stop().unwrap();
        let report = check_trace(&simple_spec(), &bindings(), &trace);
        assert!(matches!(
            report.violations[0],
            ConformanceViolation::UnpersistedAtEnd {
                label: "payload",
                ..
            }
        ));
    }

    #[test]
    fn required_step_never_observed_is_flagged() {
        let r = NvmRegion::new(4096, LatencyModel::zero());
        r.trace_start(TraceConfig::default());
        r.write_pod(128, &2u64).unwrap();
        r.persist(128, 8).unwrap();
        let trace = r.trace_stop().unwrap();
        let report = check_trace(&simple_spec(), &bindings(), &trace);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            ConformanceViolation::StepNeverObserved { label: "payload" }
        )));
    }

    #[test]
    fn multi_instance_commit_stream_conforms() {
        // Ten instances of store+persist then publish+persist.
        let r = NvmRegion::new(1 << 16, LatencyModel::zero());
        r.trace_start(TraceConfig::default());
        for i in 0..10u64 {
            r.write_pod(64, &i).unwrap();
            r.persist(64, 8).unwrap();
            r.write_pod(128, &i).unwrap();
            r.persist(128, 8).unwrap();
        }
        let trace = r.trace_stop().unwrap();
        let report = check_trace(&simple_spec(), &bindings(), &trace);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.publish_instances, 10);
    }
}
