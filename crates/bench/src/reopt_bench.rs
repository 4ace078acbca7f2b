//! Mid-query re-optimization benchmark fixtures: the same query executed
//! startup-only (arbitrate once at `open`, then commit) and with runtime
//! checkpoints (`execute` with a `ReoptState` on the context).
//!
//! Shared by the `bench_reopt` binary that emits `BENCH_reopt.json`. The
//! measurements gate on *simulated* seconds — the deterministic CPU + I/O
//! cost accounting both paths share — so the comparison is exact and
//! host-independent:
//!
//! * **drift-free**: uniformly distributed data, where the bind-time
//!   estimates hold. Checkpoints observe cardinalities inside their
//!   intervals, nothing escapes, and the whole apparatus must cost
//!   (almost) nothing — the overhead gate.
//! * **skew**: Zipf-distributed data under the same uniform estimates.
//!   The first checkpoint escapes its interval, the remainder is
//!   re-arbitrated with the observed cardinality, and the adopted plan
//!   must beat the startup-only decision — the win gate.

use std::sync::Arc;

use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment};
use dqep_executor::{execute, ExecContext, ExecMode, ReoptConfig, ReoptCounters, ReoptState, Sink};
use dqep_plan::PlanNode;
use dqep_storage::{StoredDatabase, ValueDistribution};

/// One re-optimization benchmark: a stored database and an optimized
/// dynamic plan whose estimates either hold (drift-free) or drift (skew).
pub struct ReoptBenchCase {
    /// Benchmark name, stable across runs (used as the JSON key).
    pub name: &'static str,
    catalog: Catalog,
    db: StoredDatabase,
    plan: Arc<PlanNode>,
    env: Environment,
    bindings: Bindings,
}

/// Simulated-cost comparison of the two execution paths on one case.
#[derive(Debug, Clone, Copy)]
pub struct ReoptMeasurement {
    /// Result rows (identical on both paths — asserted).
    pub rows: u64,
    /// Simulated seconds of the startup-only execution.
    pub startup_seconds: f64,
    /// Simulated seconds of the re-optimizing execution.
    pub reopt_seconds: f64,
    /// Re-optimization counters from the checkpointed run.
    pub counters: ReoptCounters,
}

impl ReoptMeasurement {
    /// Re-optimizing cost relative to startup-only (1.0 = identical,
    /// below 1.0 = re-optimization won).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.reopt_seconds / self.startup_seconds.max(f64::MIN_POSITIVE)
    }
}

impl ReoptBenchCase {
    /// Runs both paths once and compares their simulated cost. Simulated
    /// accounting is deterministic, so a single execution per path is the
    /// whole measurement.
    ///
    /// # Panics
    /// Panics if either path fails or the result multisets diverge —
    /// benchmark plans run ungoverned against fault-free storage, so both
    /// are bugs (and parity is pinned down by `tests/reopt_parity.rs`).
    #[must_use]
    pub fn measure(&self) -> ReoptMeasurement {
        let run = |ctx: ExecContext| {
            let ctx = ctx.with_mode(ExecMode::Batch);
            execute(
                &self.plan,
                &self.db,
                &self.catalog,
                &self.env,
                &self.bindings,
                &ctx,
                Sink::Count,
            )
        };
        let summary = run(ExecContext::default())
            .expect("startup-only execution must succeed")
            .summary;
        let config = ReoptConfig {
            backoff_base_ms: 0,
            ..ReoptConfig::default()
        };
        let reopt = run(ExecContext::default().with_reopt(Arc::new(ReoptState::new(config))))
            .expect("re-optimizing execution must succeed");
        assert_eq!(
            summary.rows, reopt.summary.rows,
            "{}: result row counts diverged",
            self.name
        );
        ReoptMeasurement {
            rows: summary.rows,
            startup_seconds: summary.simulated_seconds(&self.catalog.config),
            reopt_seconds: reopt.summary.simulated_seconds(&self.catalog.config),
            counters: reopt.reopt.map(|o| o.report.counters).unwrap_or_default(),
        }
    }
}

/// A three-relation chain `(σ_{a<v} r ⋈ s) ⋈ t` whose first join is a
/// hash join — its build side (the filtered `r`) is the runtime
/// checkpoint — and whose *second* join picks between an index join into
/// `t` (cheap when few rows flow up) and a bulk hash join (cheap when
/// many do). The filter's true cardinality is the decision input that
/// estimates get wrong under skew: Zipf mass concentrates at small `a`,
/// so `a < v` keeps far more rows than the uniform estimate claims, and
/// the checkpoint's escape flips the second join from per-row probing to
/// the bulk plan.
///
/// `bound`: `Some(v)` applies that filter; `None` joins the bare
/// relations, whose cardinalities are known exactly, so no checkpoint can
/// escape regardless of the distribution.
fn case(
    name: &'static str,
    filter_dist: ValueDistribution,
    scale: u64,
    bound: Option<i64>,
    seed: u64,
) -> ReoptBenchCase {
    let jdom = (scale / 4) as f64;
    let kdom = (scale * 8) as f64;
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", scale, 512, |r| {
            r.attr("a", scale as f64).attr("j", jdom).btree("a", false).btree("j", false)
        })
        .relation("s", scale / 2, 512, |r| {
            r.attr("j", jdom).attr("k", kdom).btree("j", false).btree("k", false)
        })
        .relation("t", scale * 8, 512, |r| {
            r.attr("k", kdom).attr("b", 64.0).btree("k", false)
        })
        .build()
        .expect("bench catalog");
    let r = catalog.relation_by_name("r").expect("relation");
    // Skew only the filter column `r.a`: the join columns stay uniform,
    // so the join-size estimates the re-planner relies on remain sound
    // and the filter's drift is the one mis-estimate in the query.
    let r_id = r.id;
    let db = StoredDatabase::generate_profiled(&catalog, seed, |rel, ai| {
        if rel == r_id && ai == 0 {
            filter_dist
        } else {
            ValueDistribution::Uniform
        }
    });
    let s = catalog.relation_by_name("s").expect("relation");
    let t = catalog.relation_by_name("t").expect("relation");
    let mut outer = LogicalExpr::get(r.id);
    let mut bindings = Bindings::new();
    if let Some(v) = bound {
        outer = outer.select(SelectPred::unbound(
            r.attr_id("a").expect("attr"),
            CompareOp::Lt,
            HostVar(0),
        ));
        bindings = bindings.with_value(HostVar(0), v);
    }
    let query = outer
        .join(
            LogicalExpr::get(s.id),
            vec![JoinPred::new(r.attr_id("j").expect("attr"), s.attr_id("j").expect("attr"))],
        )
        .join(
            LogicalExpr::get(t.id),
            vec![JoinPred::new(s.attr_id("k").expect("attr"), t.attr_id("k").expect("attr"))],
        );
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env)
        .optimize(&query)
        .expect("bench plan optimizes")
        .plan;
    ReoptBenchCase { name, catalog, db, plan, env, bindings }
}

/// The standard re-optimization suite: one drift-free case (uniform data,
/// estimates hold) and one skew case (Zipf data, estimates drift).
#[must_use]
pub fn reopt_cases(scale: u64, seed: u64) -> Vec<ReoptBenchCase> {
    let bound = (scale / 25) as i64;
    vec![
        case("drift_free", ValueDistribution::Uniform, scale, None, seed),
        case("skew", ValueDistribution::Zipf { exponent: 1.1 }, scale, Some(bound), seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two fixtures behave as designed: nothing escapes on uniform
    /// data, and the skew case escapes, re-plans, and does not regress.
    #[test]
    fn fixtures_split_cleanly() {
        let cases = reopt_cases(800, 3);
        let drift_free = cases[0].measure();
        assert_eq!(drift_free.counters.escapes, 0, "{:?}", drift_free.counters);
        assert!(
            drift_free.ratio() <= 1.05,
            "drift-free overhead {:.4} above 5%",
            drift_free.ratio()
        );
        let skew = cases[1].measure();
        assert!(skew.counters.escapes >= 1, "{:?}", skew.counters);
        assert!(skew.counters.replans_adopted >= 1, "{:?}", skew.counters);
        assert!(
            skew.ratio() <= 1.0 + 1e-9,
            "skew case must not regress: ratio {:.4}",
            skew.ratio()
        );
    }
}

