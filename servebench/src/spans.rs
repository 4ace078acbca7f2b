//! Per-operator self time read from the executor's `TraceReport`.

use dqep_executor::TraceReport;

/// Operator categories reported as `executor.<name>.self_ms`.
pub const OPERATORS: [&str; 7] = [
    "scan",
    "filter",
    "hash_join",
    "index_join",
    "merge_join",
    "sort",
    "choose",
];

fn category(kind: &str) -> Option<usize> {
    let name = match kind {
        "File-Scan" | "B-tree-Scan" | "Filter-B-tree-Scan" => "scan",
        "Filter" => "filter",
        "Hash-Join" => "hash_join",
        "Index-Join" => "index_join",
        "Merge-Join" => "merge_join",
        "Sort" => "sort",
        "Choose-Plan" => "choose",
        _ => return None,
    };
    OPERATORS.iter().position(|&o| o == name)
}

/// Accumulated self time per operator category, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct SelfTimes {
    pub ns: [u64; OPERATORS.len()],
    /// Credit-backpressure wait on network sends, nanoseconds.
    pub credit_wait_ns: u64,
}

impl SelfTimes {
    /// Adds one report. A span's self time is its inclusive wall time
    /// (`open` + `next`) minus that of its direct children; spans of
    /// other kinds (network, shard, coordinator roots) carry no operator
    /// time and only pass their children through.
    pub fn add(&mut self, report: &TraceReport) {
        let inclusive = |i: usize| {
            let s = &report.spans[i].stats;
            s.open_wall_ns + s.next_wall_ns
        };
        let mut child_ns = vec![0u64; report.spans.len()];
        for span in &report.spans {
            if let Some(parent) = span.parent {
                if let Some(slot) = child_ns.get_mut(parent.0) {
                    *slot += inclusive(span.id.0);
                }
            }
        }
        for span in &report.spans {
            if let Some(net) = span.net {
                self.credit_wait_ns += net.credit_wait_ns;
            }
            if let Some(c) = category(span.kind) {
                self.ns[c] += inclusive(span.id.0).saturating_sub(child_ns[span.id.0]);
            }
        }
    }
}
