//! Every metric the benchmark prints, by name, with its unit and the
//! direction in which it improves. `BENCHMARK.json` lists the same names
//! (a self-test compares the two); the regression bounds live only there.

use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the engine sees. Printed by an untraced run.
pub static END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    hi("ops_per_s.nvm", "1/s"),
    hi("ops_per_s.wal", "1/s"),
    hi("ops_per_s.volatile", "1/s"),
    lo("read_p50_us.nvm", "us"),
    lo("read_p99_us.nvm", "us"),
    lo("write_p50_us.nvm", "us"),
    lo("write_p99_us.nvm", "us"),
    lo("merge_pause_ms.nvm", "ms"),
    lo("reopen_ms.nvm", "ms"),
    lo("fences_per_write.nvm", "count"),
    lo("nvm_bytes_per_user_byte", "B/B"),
];

/// Single layers (the crates), from probes of their public functions and
/// from the traced run. Printed by a traced run; 0 means "this workload does
/// not exercise it".
pub static PER_LAYER: &[Def] = &[
    // nvm: medium access
    lo("nvm.read_pod_ns", "ns"),
    lo("nvm.with_slice64_ns", "ns"),
    lo("nvm.write_pod_ns", "ns"),
    lo("nvm.load_acquire_ns", "ns"),
    lo("nvm.bytes_read_per_op", "B/op"),
    lo("nvm.bytes_written_per_op", "B/op"),
    // nvm: persistence primitives
    lo("nvm.flush_line_ns", "ns"),
    lo("nvm.fence_ns", "ns"),
    lo("nvm.persist64_ns", "ns"),
    lo("nvm.flushes_per_write", "count"),
    lo("nvm.lines_flushed_per_write", "count"),
    lo("nvm.fences_per_write", "count"),
    lo("nvm.fences_per_merge", "count"),
    lo("nvm.fences_per_read", "count"),
    // nvm: allocator
    lo("nvm.alloc64_ns", "ns"),
    lo("nvm.free64_ns", "ns"),
    lo("nvm.heap_open_ms", "ms"),
    lo("nvm.heap_blocks", "count"),
    lo("nvm.heap_live_bytes", "B"),
    lo("nvm.heap_free_bytes", "B"),
    // storage
    lo("storage.row_values_main_ns", "ns"),
    lo("storage.row_values_delta_ns", "ns"),
    lo("storage.insert_version_ns", "ns"),
    lo("storage.invalidate_ns", "ns"),
    lo("storage.scan_eq_ns_per_row", "ns"),
    lo("storage.scan_visible_ns_per_row", "ns"),
    lo("storage.bitpack_get_ns", "ns"),
    lo("storage.merge_ms", "ms"),
    hi("storage.merge_rows_per_s", "1/s"),
    lo("storage.open_ms", "ms"),
    lo("storage.v_row_values_main_ns", "ns"),
    // index
    lo("index.nvhash_lookup_ns", "ns"),
    lo("index.nvhash_lookup_chain1000_ns", "ns"),
    lo("index.nvhash_insert_ns", "ns"),
    lo("index.nvordered_range100_ns", "ns"),
    lo("index.nvordered_insert_ns", "ns"),
    lo("index.build_from_rows_ms", "ms"),
    lo("index.vhash_lookup_ns", "ns"),
    lo("index.vordered_range100_ns", "ns"),
    // txn
    lo("txn.begin_ns", "ns"),
    lo("txn.commit_1w_ns", "ns"),
    lo("txn.commit_256w_ns", "ns"),
    lo("txn.abort_1w_ns", "ns"),
    hi("txn.commits", "count"),
    lo("txn.aborts", "count"),
    // wal
    lo("wal.append_ns", "ns"),
    lo("wal.sync_ns", "ns"),
    lo("wal.syncs_per_write", "count"),
    lo("wal.bytes_per_user_byte", "B/B"),
    lo("wal.restart_ms", "ms"),
    hi("wal.replay_records_per_s", "1/s"),
    // core: façade spans of the traced nvm run
    lo("core.begin_p50_us", "us"),
    lo("core.index_lookup_p50_us", "us"),
    lo("core.range_lookup_p50_us", "us"),
    lo("core.scan_eq_p50_us", "us"),
    lo("core.update_p50_us", "us"),
    lo("core.insert_p50_us", "us"),
    lo("core.commit_p50_us", "us"),
    lo("core.commit_p99_us", "us"),
    lo("core.merge_p50_ms", "ms"),
    lo("core.op_pmax_us", "us"),
    hi("core.op_pmax_pct", "%"),
    hi("core.op_samples", "count"),
    lo("core.reopen.heap_ms", "ms"),
    lo("core.reopen.catalogue_ms", "ms"),
    lo("core.reopen.undo_ms", "ms"),
    lo("core.reopen.first_query_ms", "ms"),
    lo("core.reopen_clean_ms", "ms"),
    lo("core.verify_media_ms", "ms"),
    lo("core.unattributed_frac", "frac"),
    lo("core.lost_acked_writes", "count"),
    lo("core.sim_crash_lost_writes", "count"),
    // harness: how far to trust the numbers above
    lo("harness.gen_ns_per_op", "ns"),
    lo("harness.clock_ns", "ns"),
    lo("harness.trace_overhead_frac", "frac"),
    lo("harness.block_iqr_frac", "frac"),
    hi("harness.cpu_wall_ratio", "frac"),
];

fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Measured values, keyed by a name from the tables above.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        self.0.insert(d.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values of `table` in table order; a name that was never set is a
    /// bug in the harness, not a measurement.
    pub fn in_order(&self, table: &'static [Def]) -> Vec<(&'static Def, f64)> {
        table
            .iter()
            .map(|d| {
                let v = self.get(d.name);
                (
                    d,
                    v.unwrap_or_else(|| panic!("metric {} was not measured", d.name)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).unwrap()
    }

    fn text<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).unwrap()
    }

    fn well_formed_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn well_formed_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    /// The names, units and directions the program prints are exactly those
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn printed_metrics_equal_the_declared_ones() {
        let doc = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, m) in table.iter().zip(declared) {
                assert_eq!(text(m, "name"), d.name);
                assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(m, "better"), d.better, "{}", d.name);
                assert!(well_formed_name(d.name), "{}", d.name);
                assert!(well_formed_unit(d.unit), "{}", d.unit);
                let bound = m.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert!((0.0..=0.25).contains(&bound.unwrap()), "{}", d.name);
                } else {
                    assert_eq!(bound, None, "{}", d.name);
                }
            }
        }
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
    }

    #[test]
    fn workloads_equal_the_declared_ones() {
        let doc = benchmark_json();
        let declared = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(declared.len(), WORKLOADS.len());
        for (spec, w) in WORKLOADS.iter().zip(declared) {
            assert_eq!(text(w, "name"), spec.name);
            assert_eq!(text(w, "why"), spec.why);
            assert!(well_formed_name(spec.name));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::str("benchmark")]);
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
