//! Figure 8: run-time optimization versus dynamic plans.
//!
//! Compares the per-invocation run-time components: `a + d̄` for run-time
//! optimization against `f + ḡ` for dynamic plans. "For other than the
//! simplest queries, there is a significant overall decrease in execution
//! time when using dynamic plans. For query 5, the decrease exceeds a
//! factor of 2. This substantial difference is primarily due to the cost
//! of the start-up-time optimization, which is large when compared to the
//! relatively small run-time overhead of dynamic plans."
//!
//! **Measurement note.** The decisive comparison is between two *measured
//! CPU* quantities: re-optimizing the query (`a`) versus re-evaluating the
//! cost functions over the dynamic plan's DAG (`f_cpu`); the paper's
//! conclusion rests on `f_cpu ≪ a`. The access-module read time (`f_io`)
//! is *modeled* with the paper's 1994 disk constants and is reported
//! separately: mixing a 1994-modeled I/O constant into a 2020s-measured
//! CPU comparison would let the model term dominate and invert the
//! comparison for reasons unrelated to the algorithm (on the paper's
//! hardware `a` was tens of seconds; on a modern laptop it is microseconds
//! while the modeled module read stays constant).

use crate::report::{fmt_ratio, fmt_secs, Table};

use super::QueryResults;

/// One data point.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// Query number.
    pub query: usize,
    /// Uncertain variables.
    pub uncertain_vars: usize,
    /// Measured per-invocation optimization seconds of the run-time
    /// optimizer (`a`).
    pub runtime_opt_seconds: f64,
    /// Average execution seconds under run-time optimization (`d̄`).
    pub runtime_exec: f64,
    /// Measured per-invocation start-up CPU of the dynamic plan
    /// (`f_cpu`: cost re-evaluation + choose-plan decisions).
    pub dynamic_startup_cpu: f64,
    /// Modeled per-invocation module-read I/O of the dynamic plan
    /// (`f_io`, 1994 disk constants).
    pub dynamic_module_io: f64,
    /// Average execution seconds of the dynamic plan (`ḡ`).
    pub dynamic_exec: f64,
}

impl Fig8Row {
    /// Measured-CPU ratio `a / f_cpu` — the paper's core claim is that
    /// this is large.
    #[must_use]
    pub fn cpu_ratio(&self) -> f64 {
        self.runtime_opt_seconds / self.dynamic_startup_cpu
    }

    /// Full per-invocation comparison `(a + d̄) / (f_cpu + f_io + ḡ)`,
    /// mixing measured CPU with the modeled module read.
    #[must_use]
    pub fn full_ratio(&self) -> f64 {
        (self.runtime_opt_seconds + self.runtime_exec)
            / (self.dynamic_startup_cpu + self.dynamic_module_io + self.dynamic_exec)
    }
}

/// Extracts data points.
#[must_use]
pub fn rows(results: &[QueryResults]) -> Vec<Fig8Row> {
    results
        .iter()
        .map(|r| {
            let cfg = &r.workload.catalog.config;
            Fig8Row {
                query: r.query,
                uncertain_vars: r.uncertain_vars,
                runtime_opt_seconds: r.runtime_sel.optimize_seconds,
                runtime_exec: r.runtime_sel.avg_exec(),
                dynamic_startup_cpu: r.dynamic_sel.measured_startup_cpu,
                dynamic_module_io: cfg.module_read_time(r.dynamic_sel.plan_nodes),
                dynamic_exec: r.dynamic_sel.avg_exec(),
            }
        })
        .collect()
}

/// Renders the figure as a table.
#[must_use]
pub fn table(results: &[QueryResults]) -> Table {
    let mut t = Table::new(
        "Figure 8: run-time optimization vs dynamic plans, per invocation \
         (paper: dynamic wins by > 2x for query 5; core mechanism a >> f_cpu)",
        &[
            "query",
            "#vars",
            "a (reopt, meas)",
            "f_cpu (meas)",
            "a/f_cpu",
            "f_io (model)",
            "d_avg",
            "g_avg",
            "(a+d)/(f+g)",
        ],
    );
    for row in rows(results) {
        t.row(vec![
            row.query.to_string(),
            row.uncertain_vars.to_string(),
            fmt_secs(row.runtime_opt_seconds),
            fmt_secs(row.dynamic_startup_cpu),
            fmt_ratio(row.cpu_ratio()),
            fmt_secs(row.dynamic_module_io),
            fmt_secs(row.runtime_exec),
            fmt_secs(row.dynamic_exec),
            fmt_ratio(row.full_ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_query;
    use crate::params::ExperimentParams;

    /// Interleaved repetitions behind each wall-clock comparison.
    const REPETITIONS: usize = 5;

    #[test]
    fn dynamic_execution_matches_runtime_opt_execution() {
        let params = ExperimentParams {
            invocations: 8,
            with_memory_uncertainty: false,
            ..ExperimentParams::paper()
        };
        let results = vec![run_query(2, &params)];
        let r = &rows(&results)[0];
        // ḡ = d̄ — identical plans are chosen.
        assert!(
            (r.dynamic_exec - r.runtime_exec).abs() < 1e-6,
            "g {} vs d {}",
            r.dynamic_exec,
            r.runtime_exec
        );
        assert!(table(&results).render().contains("Figure 8"));
    }

    #[test]
    fn startup_is_cheaper_than_reoptimization() {
        // The paper's mechanism: evaluating the decision procedures is
        // much faster than optimizing the query (f_cpu << a). Use the
        // 4-way join where optimization is substantial.
        let params = ExperimentParams {
            invocations: 8,
            with_memory_uncertainty: false,
            ..ExperimentParams::paper()
        };
        // Both sides are wall-clock measurements: take each one's minimum
        // over interleaved repetitions (every repetition times both), so
        // one scheduling hiccup on a busy host cannot flip the comparison.
        let results: Vec<_> = (0..REPETITIONS).map(|_| run_query(3, &params)).collect();
        let reps = rows(&results);
        let min = |f: fn(&Fig8Row) -> f64| reps.iter().map(f).fold(f64::INFINITY, f64::min);
        let startup = min(|r| r.dynamic_startup_cpu);
        let optimize = min(|r| r.runtime_opt_seconds);
        assert!(
            startup < optimize,
            "f_cpu {startup} should be below a {optimize}"
        );
    }
}
