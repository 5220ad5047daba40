//! Persist-order protocols and trace conformance checking.
//!
//! Every crash-consistency guarantee the engine makes rests on a small set
//! of *commit/publish protocols*, and every one has the write path's shape
//! (DESIGN.md "The write path"): staged phases of durable stores, each
//! drained by one write-back set and one fence before the next phase
//! begins, then one release store of a publish word that makes the staged
//! work reachable, itself flushed and fenced. A [`ProtocolSpec`] is one row
//! of that shape — its staged phases and its publish label — so every
//! declared protocol orders each store before its publish by construction,
//! and [`registry`] is the engine's table of rows:
//!
//! * [`ProtocolSpec::static_cost`] bounds the stores, write-backs and fences
//!   one instance may issue;
//! * [`check_trace`] conformance-checks a recorded [`PersistTrace`] against
//!   a row, given [`RangeBinding`]s that map its labels to concrete byte
//!   ranges of the region;
//! * [`publish_labels`] is the set `pmlint` binds source annotations to.

use std::collections::HashMap;

use crate::layout::line_span;
use crate::trace::{PersistTrace, TraceEvent};

/// One staged store of a protocol phase: `(label, checksummed, optional)`.
/// The label names the target structure (the media-extent label where one
/// exists). A checksummed store is a publish-once payload that a content
/// checksum in the media-extent map seals (lint rule `publish-once-media`).
/// An optional store may be absent from a conforming instance (the end
/// stamp of a commit that performed no deletes).
type Staged = (&'static str, bool, bool);

/// A declared persist-order protocol: staged phases, each drained by one
/// write-back set and one fence before the next begins, then one release
/// publish store, itself flushed and fenced. A phase whose stores are all
/// optional has an optional write-back set and fence.
#[derive(Debug)]
pub struct ProtocolSpec {
    /// Stable protocol name (usable in artifacts and docs).
    pub name: &'static str,
    /// One-line description of what the protocol publishes.
    pub what: &'static str,
    /// Staged phases, in order.
    phases: &'static [&'static [Staged]],
    /// Label of the publish word.
    publish: &'static str,
}

/// Static persistence-cost bound of one protocol instance, derived from
/// its row alone.
///
/// Fences are exact per phase: each phase is drained by one fence and the
/// publish word by one more, so `min_fences` counts the required phases
/// plus one and `max_fences` adds the optional ones. Flushes are bounded
/// per staged store: a phase's write-back set may be realised as up to one
/// write-back per store (one per column, say) but never fewer than one, so
/// `min_flushes` counts required phases plus the publish word and
/// `max_flushes` counts every staged store plus the publish word. A live
/// trace of one conforming instance must land inside both intervals;
/// traffic above `max_fences`/`max_flushes` means the implementation pays
/// for persistence the protocol does not require.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticCost {
    /// Required durable stores (the publish and every required staged store).
    pub min_stores: usize,
    /// All durable stores (optional included).
    pub max_stores: usize,
    /// Required write-back sets (each is at least one write-back).
    pub min_flushes: usize,
    /// Upper bound on write-backs: one per staged store, plus the publish.
    pub max_flushes: usize,
    /// Required fences.
    pub min_fences: usize,
    /// All fences (optional phases included).
    pub max_fences: usize,
}

impl ProtocolSpec {
    /// The label of the protocol's publish word.
    pub fn publish_label(&self) -> &'static str {
        self.publish
    }

    /// Every staged store, in phase order.
    fn stores(&self) -> impl Iterator<Item = &'static Staged> {
        self.phases.iter().flat_map(|phase| phase.iter())
    }

    /// Labels of every staged store, with their checksum flag.
    pub fn store_labels(&self) -> Vec<(&'static str, bool)> {
        self.stores().map(|&(label, sum, _)| (label, sum)).collect()
    }

    /// The protocol's static persistence-cost bound: how many durable
    /// stores, cache-line write-backs, and fences one conforming instance
    /// may issue. See [`StaticCost`] for the exact interval semantics.
    pub fn static_cost(&self) -> StaticCost {
        // The publish store, its write-back and its fence.
        let mut c = StaticCost {
            min_stores: 1,
            max_stores: 1,
            min_flushes: 1,
            max_flushes: 1,
            min_fences: 1,
            max_fences: 1,
        };
        for phase in self.phases {
            let required = phase.iter().filter(|s| !s.2).count();
            let drained = usize::from(required > 0);
            c.min_stores += required;
            c.max_stores += phase.len();
            c.min_flushes += drained;
            c.max_flushes += phase.len();
            c.min_fences += drained;
            c.max_fences += 1;
        }
        c
    }
}

// ---------------------------------------------------------------------------
// Trace conformance
// ---------------------------------------------------------------------------

/// Binds a protocol label to the concrete byte ranges it occupies in the
/// region for one recorded run. Labels without a binding are skipped by
/// the conformance checker (their offsets were not observable).
#[derive(Debug, Clone)]
pub struct RangeBinding {
    /// The protocol label (staged store or publish).
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
    /// A required, bound store produced no store event in the whole trace.
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

/// Result of conformance-checking one trace against one protocol.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Name of the protocol checked.
    pub spec: &'static str,
    /// Publish store events observed (protocol instances).
    pub publish_instances: u64,
    /// Bound store events checked.
    pub bound_stores_checked: u64,
    /// Everything that violated the declared ordering.
    pub violations: Vec<ConformanceViolation>,
}

impl ConformanceReport {
    /// True when the trace conforms to the protocol.
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

/// Conformance-check a recorded trace against a protocol.
///
/// The checker replays the event log with per-cache-line persistence
/// states. Stores that intersect a bound label's ranges are *tracked*:
/// a flush of the line moves it in flight, a fence makes it durable. At
/// every publish store event (a store intersecting the publish label's
/// binding), any tracked line that is not durable is a violation — the
/// publish overtook a store the protocol orders before it. The publish
/// line itself must be durable by the next publish (or end of trace).
///
/// Requires [`TraceConfig::keep_events`](crate::TraceConfig) recording.
/// Unbound labels are skipped; bound, required labels with no store events
/// at all are reported as [`ConformanceViolation::StepNeverObserved`].
pub fn check_trace(
    spec: &ProtocolSpec,
    bindings: &[RangeBinding],
    trace: &PersistTrace,
) -> ConformanceReport {
    let publish_label = spec.publish;
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
                    // Everything the protocol orders before the publish
                    // must be durable by now.
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

    // Required stores that were bound but never seen.
    for &(label, _, optional) in spec.stores() {
        let bound = store_bindings.iter().any(|b| b.label == label);
        if !optional && bound && !observed.contains_key(label) {
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

const REGISTRY: &[ProtocolSpec] = &[
    // Commit: stamp the MVCC words of every write (each write-back issued
    // without draining), drain once — one fence for all touched tables,
    // which share the region — then one 8-byte publish of the commit
    // timestamp in the catalogue. One batched write-back set covers all
    // begin/end stamps — realised as one write-back per stamped word — so a
    // W-write commit pays two fences, not W+1. (The registry slot clear
    // that follows is written back without a fence of its own.)
    ProtocolSpec {
        name: "txn-commit-publish",
        what: "commit-timestamp publish after batched per-row MVCC stamps",
        phases: &[&[("delta-begin", false, false), ("delta-end", false, true)]],
        publish: "catalog-cts",
    },
    // Delta append, one instance per commit and table, covering every row
    // staged since the last one: dictionary/blob entries, cells and MVCC
    // words are staged (written back, no fence) as the rows are inserted;
    // the commit drains them once, publishes the dictionary and blob length
    // words — they seal the content they cover, so they follow its drain —
    // fences, and only then lets the row counter cover the rows (a cell
    // must never be reachable before its dictionary entry is). Without a new
    // dictionary entry the middle fence is skipped: two or three fences per
    // instance, none per row.
    ProtocolSpec {
        name: "delta-append",
        what: "rows staged into the delta store, published by the row counter",
        phases: &[
            &[
                ("delta-dict", true, true),
                ("delta-blob", true, true),
                ("delta-av", false, false),
                ("delta-begin", false, false),
                ("delta-end", false, false),
            ],
            &[("delta-lens", false, true)],
        ],
        publish: "delta-rows",
    },
    // Merge: the new main tree (checksummed payloads), the fresh delta
    // descriptor, the replacement indexes and the pair block that names
    // them all are staged with bulk stores and range write-backs — no one
    // can reach them — and drained by one fence before the pair pointer
    // swaps to them. The only other fences of a merge belong to the
    // allocator's reserve/activate/free protocols, one set per block: a
    // merge costs O(blocks), never O(rows).
    ProtocolSpec {
        name: "merge-publish",
        what: "delta→main merge with its indexes, published by the root pair swap",
        phases: &[&[
            ("main-dict", true, false),
            ("main-av", true, false),
            ("main-blob", true, true),
            ("main-end", false, false),
            ("index-structure", false, true),
            ("merge-pair", false, false),
        ]],
        publish: "table-pair",
    },
    // DDL: the catalogue entry (name, root, index block) is durable before
    // the table count publishes it.
    ProtocolSpec {
        name: "ddl-create-table",
        what: "CREATE TABLE, published by the catalogue table count",
        phases: &[&[("catalog-entry", false, false)]],
        publish: "catalog-ntables",
    },
    // Index registration (create_index): the bulk-built index — one store
    // and one range write-back per block — and its registration (catalogue
    // entry plus the descriptor word in the table's pair block) share one
    // drain before the per-table index count publishes them.
    ProtocolSpec {
        name: "index-register",
        what: "bulk-built persistent index and its registration, published by the index count",
        phases: &[&[
            ("index-structure", false, false),
            ("index-entry", false, false),
        ]],
        publish: "index-count",
    },
    // Index rebuild (recovery rung 1): the bulk-built structure is staged
    // like any other and drained once before the descriptor word — an aux
    // word of the table's pair block — swaps to it. (A merge's replacement
    // indexes ride `merge-publish` instead.)
    ProtocolSpec {
        name: "index-desc-swap",
        what: "bulk index rebuild, published by the descriptor word swap",
        phases: &[&[("index-structure", false, false)]],
        publish: "index-desc",
    },
    // Shadow-WAL commit: the log is synced strictly before the NVM
    // commit-timestamp publish — the `log ⊇ published state` invariant
    // rung 2 relies on. The sync is a file operation outside the medium,
    // which no persist trace observes, so the row stages nothing.
    ProtocolSpec {
        name: "shadow-wal-commit",
        what: "log-before-publish ordering of the shadow redo log",
        phases: &[],
        publish: "catalog-cts",
    },
    // Recovery rung 2: the rebuilt table tree is durable before the
    // catalogue root pointer swaps to it (quarantining the old tree).
    ProtocolSpec {
        name: "recovery-root-swap",
        what: "rung-2 table rebuild, published by the catalogue root swap",
        phases: &[&[("rebuilt-table", false, false)]],
        publish: "catalog-table-root",
    },
    // Recovery attempt accounting: the progress word is the one
    // deliberately non-idempotent recovery-time store (a monotone attempt
    // counter bumped at attempt start, zeroed on success). It is a single
    // word, so the bump itself is the publish and must be fenced before any
    // other recovery mutation depends on the attempt having been
    // registered.
    ProtocolSpec {
        name: "recovery-progress",
        what: "recovery attempt counter, published before recovery mutates state",
        phases: &[],
        publish: "recovery-progress",
    },
    // Recovery undo pass: per-row MVCC repairs are persisted strictly
    // before the registry slot is released (tid zeroed). A crash between
    // the two replays the repairs — they are idempotent at a fixed last-cts
    // — while releasing first could strand a half-repaired row with no
    // registry entry pointing at it.
    ProtocolSpec {
        name: "recovery-undo-release",
        what: "undo-pass row repairs durable before the registry slot clear",
        phases: &[&[("mvcc-repair", false, true)]],
        publish: "registry-slot-clear",
    },
];

/// Every persist-order protocol the engine implements. `pmlint` checks
/// that every checksummed label is registered in the media-extent map; the
/// integration suite conformance-checks recorded traces against them.
pub fn registry() -> &'static [ProtocolSpec] {
    REGISTRY
}

/// Every distinct publish label declared by the [`registry`], in
/// first-declaration order. Each is published with a release store
/// ([`NvmRegion::store_u64_release`](crate::NvmRegion::store_u64_release))
/// and observed with acquire loads. `pmlint` binds
/// `// pmlint: publish(<label>)` source annotations against this set:
/// unknown labels and labels with no annotated site are both findings.
pub fn publish_labels() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for spec in REGISTRY {
        if !out.contains(&spec.publish) {
            out.push(spec.publish);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatencyModel, NvmRegion, TraceConfig};

    /// Every row is well formed: a unique name, no empty phase, and a
    /// publish word that is not also one of its staged stores.
    #[test]
    fn registry_specs_all_validate() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "protocol names are unique");
        for spec in registry() {
            assert!(
                spec.phases.iter().all(|p| !p.is_empty()),
                "{}: an empty phase",
                spec.name
            );
            assert!(
                spec.stores().all(|s| s.0 != spec.publish),
                "{}: the publish word is also staged",
                spec.name
            );
        }
        assert!(registry().len() >= 6, "at least six declared protocols");
    }

    /// The registry as its consumers see it, pinned: name, publish label,
    /// checksummed and optional store labels, and the six
    /// `static_cost()` bounds as min-max of stores, flushes and fences.
    #[test]
    fn registry_shape_is_pinned() {
        const SHAPES: [&str; 10] = [
            "txn-commit-publish: publish catalog-cts | checksummed  | optional delta-end | cost 2-3 2-3 2-2",
            "delta-append: publish delta-rows | checksummed delta-dict delta-blob | optional delta-dict delta-blob delta-lens | cost 4-7 2-7 2-3",
            "merge-publish: publish table-pair | checksummed main-dict main-av main-blob | optional main-blob index-structure | cost 5-7 2-7 2-2",
            "ddl-create-table: publish catalog-ntables | checksummed  | optional  | cost 2-2 2-2 2-2",
            "index-register: publish index-count | checksummed  | optional  | cost 3-3 2-3 2-2",
            "index-desc-swap: publish index-desc | checksummed  | optional  | cost 2-2 2-2 2-2",
            "shadow-wal-commit: publish catalog-cts | checksummed  | optional  | cost 1-1 1-1 1-1",
            "recovery-root-swap: publish catalog-table-root | checksummed  | optional  | cost 2-2 2-2 2-2",
            "recovery-progress: publish recovery-progress | checksummed  | optional  | cost 1-1 1-1 1-1",
            "recovery-undo-release: publish registry-slot-clear | checksummed  | optional mvcc-repair | cost 1-2 1-2 1-2",
        ];
        let shape = |spec: &ProtocolSpec| {
            let stores = |pick: fn(&Staged) -> bool| {
                let picked = spec.stores().filter(|s| pick(s)).map(|s| s.0);
                picked.collect::<Vec<_>>().join(" ")
            };
            let c = spec.static_cost();
            format!(
                "{}: publish {} | checksummed {} | optional {} | cost {}-{} {}-{} {}-{}",
                spec.name,
                spec.publish_label(),
                stores(|s| s.1),
                stores(|s| s.2),
                c.min_stores,
                c.max_stores,
                c.min_flushes,
                c.max_flushes,
                c.min_fences,
                c.max_fences,
            )
        };
        assert_eq!(registry().iter().map(shape).collect::<Vec<_>>(), SHAPES);
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
            // Every protocol must fence at least once: the publish word
            // itself has to drain to the medium.
            assert!(c.min_fences >= 1, "{}: publish without a fence", spec.name);
            assert!(c.min_flushes >= 1, "{}: publish without a flush", spec.name);
        }
    }

    #[test]
    fn static_cost_of_delta_append() {
        let spec = registry()
            .iter()
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

    /// Helper: a simple "store then publish" protocol bound to two lines.
    fn simple_spec() -> ProtocolSpec {
        ProtocolSpec {
            name: "test-simple",
            what: "one store, one publish",
            phases: &[&[("payload", false, false)]],
            publish: "publish",
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

    /// A publish store never written back before the next instance
    /// publishes again.
    #[test]
    fn unpersisted_publish_fails_validation() {
        let r = NvmRegion::new(4096, LatencyModel::zero());
        r.trace_start(TraceConfig::default());
        for i in 0..2u64 {
            r.write_pod(64, &i).unwrap();
            r.persist(64, 8).unwrap();
            r.write_pod(128, &i).unwrap();
        }
        r.persist(128, 8).unwrap();
        let trace = r.trace_stop().unwrap();
        let report = check_trace(&simple_spec(), &bindings(), &trace);
        assert_eq!(report.publish_instances, 2);
        assert!(
            matches!(
                report.violations[..],
                [ConformanceViolation::PublishNotPersisted { .. }]
            ),
            "violations: {:?}",
            report.violations
        );
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
