//! The per-layer metrics of a traced run. Every workload reports every
//! metric; a layer a workload does not load on its per-op path reads 0.

use std::collections::HashMap;

use crate::measure::Report;
use crate::spans::{SelfTimes, OPERATORS};

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sql.parse_us", "us"),
    ("core.optimize_ms", "ms"),
    ("core.memo_groups", "count"),
    ("core.physical_considered", "count"),
    ("core.pruned_by_bound", "count"),
    ("plan.startup_us", "us"),
    ("plan.nodes", "count"),
    ("plan.choose_nodes", "count"),
    ("service.statement_hit_rate", "fraction"),
    ("service.decision_hit_rate", "fraction"),
    ("service.queue_wait_ms", "ms"),
    ("service.self_us", "us"),
    ("service.unreconciled", "count"),
    ("executor.compile_us", "us"),
    ("executor.execute_ms", "ms"),
    ("executor.scan.self_ms", "ms"),
    ("executor.filter.self_ms", "ms"),
    ("executor.hash_join.self_ms", "ms"),
    ("executor.index_join.self_ms", "ms"),
    ("executor.merge_join.self_ms", "ms"),
    ("executor.sort.self_ms", "ms"),
    ("executor.choose.self_ms", "ms"),
    ("storage.pages_read_per_op", "pages"),
    ("storage.pages_written_per_op", "pages"),
    ("storage.write_us_per_row", "us"),
    ("shard.net_bytes_per_op", "bytes"),
    ("shard.net_frames_per_op", "frames"),
    ("shard.row_skew", "ratio"),
    ("shard.divergent_nodes_per_op", "count"),
    ("shard.credit_wait_ms", "ms"),
    ("shard.frame_encode_ms", "ms"),
    ("shard.frame_decode_ms", "ms"),
    ("live.rows_propagated_per_commit", "rows"),
    ("live.rearbitrations", "count"),
    ("live.maintain_us_per_commit", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.sampled_ops", "count"),
];

/// Values of one traced run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(HashMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Per-op operator self times from accumulated trace reports.
    pub fn set_operators(&mut self, times: &SelfTimes, ops: usize) {
        for (i, op) in OPERATORS.iter().enumerate() {
            self.set(
                &format!("executor.{op}.self_ms"),
                times.ns[i] as f64 / 1e6 / ops.max(1) as f64,
            );
        }
    }

    /// Writes every per-layer metric into `report`, 0 where unset.
    pub fn into_report(self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
