//! Figure 3: the three optimization scenarios, as measured timelines.
//!
//! The paper's Figure 3 is a schematic of when work happens in each
//! scenario. This module renders the measured/modeled values of the
//! schematic's symbols for one query: `a, b, c̄` (static), `a, d̄`
//! (run-time optimization), `e, f, ḡ` (dynamic plans), plus the total
//! effort over `N` invocations.

use crate::report::{fmt_secs, Table};

use super::QueryResults;

/// Renders the scenario comparison for one query's results.
#[must_use]
pub fn table(r: &QueryResults) -> Table {
    let n = r.static_sel.exec_seconds.len();
    let mut t = Table::new(
        format!(
            "Figure 3: optimization scenarios for query {} over N={} invocations",
            r.query, n
        ),
        &[
            "scenario",
            "compile-opt",
            "per-inv opt",
            "activate/inv",
            "avg exec",
            "total effort",
        ],
    );
    let total_static = r.static_sel.optimize_seconds + r.static_sel.runtime_effort();
    t.row(vec![
        "static".into(),
        fmt_secs(r.static_sel.optimize_seconds),
        "0".into(),
        fmt_secs(r.static_sel.activation_seconds),
        fmt_secs(r.static_sel.avg_exec()),
        fmt_secs(total_static),
    ]);
    t.row(vec![
        "run-time opt".into(),
        "0".into(),
        fmt_secs(r.runtime_sel.optimize_seconds),
        "0".into(),
        fmt_secs(r.runtime_sel.avg_exec()),
        fmt_secs(r.runtime_sel.runtime_effort()),
    ]);
    let total_dynamic = r.dynamic_sel.optimize_seconds + r.dynamic_sel.runtime_effort();
    t.row(vec![
        "dynamic".into(),
        fmt_secs(r.dynamic_sel.optimize_seconds),
        "0".into(),
        fmt_secs(r.dynamic_sel.activation_seconds),
        fmt_secs(r.dynamic_sel.avg_exec()),
        fmt_secs(total_dynamic),
    ]);
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
    fn dynamic_total_effort_wins_over_both() {
        // The paper's claim: over many invocations,
        // e + N·f + Σg < a + N·b + Σc and e + N·f + Σg < N·a + Σd.
        let params = ExperimentParams {
            invocations: 25,
            with_memory_uncertainty: false,
            ..ExperimentParams::paper()
        };
        // The optimization and start-up times are wall-clock
        // measurements: each is the minimum over interleaved repetitions
        // (every repetition times all scenarios), so one scheduling hiccup
        // on a busy host cannot flip a comparison. The modeled terms
        // (activation, predicted execution) are identical across them.
        let reps: Vec<QueryResults> = (0..REPETITIONS).map(|_| run_query(2, &params)).collect();
        let min = |f: fn(&QueryResults) -> f64| reps.iter().map(f).fold(f64::INFINITY, f64::min);
        let r = &reps[0];
        let total_static = min(|q| q.static_sel.optimize_seconds) + r.static_sel.runtime_effort();
        let total_dynamic =
            min(|q| q.dynamic_sel.optimize_seconds) + r.dynamic_sel.runtime_effort();
        assert!(
            total_dynamic < total_static,
            "dynamic {total_dynamic} vs static {total_static}"
        );
        // vs run-time optimization, compare measured CPU effort (see the
        // fig8 measurement note): e + N*f_cpu + sum(g) < N*a + sum(d).
        let n = 25.0;
        let dynamic_cpu = min(|q| q.dynamic_sel.optimize_seconds)
            + n * min(|q| q.dynamic_sel.measured_startup_cpu)
            + r.dynamic_sel.exec_seconds.iter().sum::<f64>();
        let runtime_cpu = n * min(|q| q.runtime_sel.optimize_seconds)
            + r.runtime_sel.exec_seconds.iter().sum::<f64>();
        assert!(
            dynamic_cpu < runtime_cpu,
            "dynamic CPU effort {dynamic_cpu} vs run-time opt {runtime_cpu}"
        );
        let t = table(r);
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("run-time opt"));
    }
}
