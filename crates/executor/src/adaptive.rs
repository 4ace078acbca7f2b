//! Run-time adaptive execution: decisions delayed *beyond* start-up.
//!
//! The paper's final section sketches the next step past start-up-time
//! decisions: "our initial approach has been to handle inaccurate expected
//! values by evaluating subplans as part of choose-plan decision
//! procedures. When a subplan has been evaluated into a temporary result,
//! its logical and physical properties (e.g., result cardinality and value
//! distributions) are known and therefore may contribute to decisions with
//! increased confidence."
//!
//! [`execute_adaptive`] implements that loop:
//!
//! 1. find a subplan **shared by all alternatives** of the plan's root
//!    choose-plan whose compile-time cardinality is *uncertain* (the
//!    deepest such node — cheapest to pilot);
//! 2. execute it (the "temporary result") and observe its actual
//!    cardinality;
//! 3. re-run the start-up decision procedure with the observation
//!    overriding the estimate ([`dqep_plan::evaluate_startup_observed`]);
//! 4. execute the chosen plan.
//!
//! The pilot's cost is reported separately, but it is *not* repeated:
//! the pilot's materialized rows are retained (via the mid-query
//! re-optimization machinery, [`crate::ReoptState`]) and the main
//! execution serves them through a [`crate::MaterializedScanExec`]
//! wherever the shared subplan appears — so the observation's only
//! overhead is materializing once what the main execution would have
//! computed anyway. That makes the pilot worthwhile whenever estimates
//! are bad enough that the default start-up decision could pick the
//! wrong plan (e.g. skewed data without histograms).

use std::collections::HashSet;
use std::sync::Arc;

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_plan::{dag, evaluate_startup, PlanNode, StartupResult};
use dqep_storage::StoredDatabase;

use crate::compile::execute;
use crate::error::ExecError;
use crate::exec::Sink;
use crate::governor::ExecContext;
use crate::metrics::ExecSummary;
use crate::reopt::{ReoptConfig, ReoptState};

/// Result of one adaptive execution.
#[derive(Debug)]
pub struct AdaptiveResult {
    /// The subplan observed (root of the pilot), if any was eligible.
    pub observed: Option<dqep_plan::NodeId>,
    /// The pilot's observed cardinality, if a pilot ran.
    pub observed_rows: Option<u64>,
    /// Cost of the pilot execution (simulated I/O + CPU).
    pub pilot: Option<ExecSummary>,
    /// The start-up decision made with the observation applied.
    pub startup: StartupResult,
    /// The main execution.
    pub main: ExecSummary,
}

impl AdaptiveResult {
    /// Total simulated seconds including the pilot overhead.
    #[must_use]
    pub fn total_seconds(&self, config: &dqep_catalog::SystemConfig) -> f64 {
        self.main.simulated_seconds(config)
            + self
                .pilot
                .map(|p| p.simulated_seconds(config))
                .unwrap_or(0.0)
    }
}

/// Picks the pilot subplan: the largest (deepest) subplan that (a) appears
/// in every alternative of the root choose-plan and (b) has an uncertain
/// compile-time cardinality. The pilot may itself contain choose-plans —
/// it executes through the run-time choose-plan operator, which resolves
/// its inner decisions lazily. Returns `None` when the plan has no root
/// choose-plan or no eligible shared subplan.
#[must_use]
pub fn pick_pilot(plan: &Arc<PlanNode>) -> Option<Arc<PlanNode>> {
    if !plan.is_choose_plan() {
        return None;
    }
    // Node sets per alternative.
    let mut shared: Option<HashSet<_>> = None;
    for alt in &plan.children {
        let mut ids = HashSet::new();
        dag::walk_dag(alt, &mut |n| {
            ids.insert(n.id);
        });
        shared = Some(match shared {
            None => ids,
            Some(prev) => prev.intersection(&ids).copied().collect(),
        });
    }
    let shared = shared?;
    // Among shared nodes, pick the deepest eligible one.
    let mut best: Option<(usize, Arc<PlanNode>)> = None;
    dag::walk_dag(plan, &mut |n| {
        if !shared.contains(&n.id) {
            return;
        }
        if n.stats.card.is_point() {
            return; // nothing to learn
        }
        let depth = dag::depth(n);
        let better = match &best {
            None => true,
            Some((d, _)) => depth > *d,
        };
        if better {
            best = Some((depth, Arc::clone(n)));
        }
    });
    best.map(|(_, n)| n)
}

/// Executes a dynamic plan with one round of run-time observation (see the
/// module docs). Falls back to ordinary start-up execution when no pilot
/// subplan is eligible.
///
/// # Errors
/// Any [`ExecError`] from the pilot or main execution.
pub fn execute_adaptive(
    plan: &Arc<PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
) -> Result<AdaptiveResult, ExecError> {
    let Some(pilot) = pick_pilot(plan) else {
        // Nothing to observe: ordinary start-up execution.
        let startup = evaluate_startup(plan, catalog, env, bindings);
        let ctx = ExecContext::default();
        let main = execute(&startup.resolved, db, catalog, env, bindings, &ctx, Sink::Count)?;
        return Ok(AdaptiveResult {
            observed: None,
            observed_rows: None,
            pilot: None,
            startup,
            main: main.summary,
        });
    };

    let ctx = ExecContext::default();
    let pilot_run = execute(&pilot, db, catalog, env, bindings, &ctx, Sink::Collect)?;
    let rows = pilot_run.summary.rows;
    // Retain the temporary result: the main execution serves it as a
    // materialized scan instead of recomputing the shared subplan. A zero
    // re-plan budget keeps this one observation the only adaptation.
    let state = Arc::new(ReoptState::new(ReoptConfig {
        max_replans: 0,
        ..ReoptConfig::default()
    }));
    let ctx = ExecContext::default().with_reopt(Arc::clone(&state));
    state.observe_checkpoint(pilot.id, pilot.op.name(), pilot.stats.card, rows);
    let layout = crate::choose::layout_of(&pilot, catalog);
    let _ = state.try_retain(&ctx.governor, pilot.id, layout, pilot_run.rows);

    // Execute the *original* dynamic plan (its node ids key the
    // substitution): the run-time choose-plan arbitrates with the
    // observation, and the compiler serves the pilot's rows in place of
    // its subtree.
    let main = execute(plan, db, catalog, env, bindings, &ctx, Sink::Count)?;
    let startup = match main.reopt {
        Some(outcome) => outcome.startup,
        None => evaluate_startup(plan, catalog, env, bindings),
    };
    Ok(AdaptiveResult {
        observed: Some(pilot.id),
        observed_rows: Some(rows),
        pilot: Some(pilot_run.summary),
        startup,
        main: main.summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_plan::evaluate_startup;
    use dqep_storage::ValueDistribution;

    /// A join whose uncertain input is Zipf-skewed: uniform estimates are
    /// badly wrong, so the plain start-up decision misfires while the
    /// observed decision does not.
    fn skewed_join() -> (Catalog, StoredDatabase, LogicalExpr) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 800, 512, |r| {
                r.attr("a", 800.0).attr("j", 200.0).btree("a", false).btree("j", false)
            })
            .relation("s", 400, 512, |r| {
                r.attr("a", 400.0).attr("j", 200.0).btree("j", false)
            })
            .build()
            .unwrap();
        let db =
            StoredDatabase::generate_with(&cat, 3, ValueDistribution::Zipf { exponent: 1.1 });
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let q = LogicalExpr::get(r.id)
            .select(SelectPred::unbound(
                r.attr_id("a").unwrap(),
                CompareOp::Lt,
                HostVar(0),
            ))
            .join(
                LogicalExpr::get(s.id),
                vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
            );
        (cat, db, q)
    }

    #[test]
    fn pilot_is_a_shared_uncertain_subplan() {
        let (cat, _db, q) = skewed_join();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        // Query-1-shaped plans have a root choose-plan over scan variants.
        if let Some(pilot) = pick_pilot(&plan) {
            assert!(!pilot.stats.card.is_point());
        }
        // A static plan never yields a pilot.
        let senv = Environment::static_compile_time(&cat.config);
        let splan = Optimizer::new(&cat, &senv).optimize(&q).unwrap().plan;
        assert!(pick_pilot(&splan).is_none());
    }

    #[test]
    fn observation_corrects_skew_blind_decisions() {
        let (cat, db, q) = skewed_join();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;

        // A binding that looks selective (30/800 ≈ 4%) but matches most of
        // the Zipf-skewed relation.
        let bindings = Bindings::new().with_value(HostVar(0), 30);

        // Plain start-up execution (estimation-blind).
        let blind = evaluate_startup(&plan, &cat, &env, &bindings);
        let ctx = ExecContext::default();
        let blind_exec = execute(&plan, &db, &cat, &env, &bindings, &ctx, Sink::Count)
            .unwrap()
            .summary;

        // Adaptive execution with one observation round.
        let adaptive = execute_adaptive(&plan, &db, &cat, &env, &bindings).unwrap();
        assert_eq!(adaptive.main.rows, blind_exec.rows, "same logical result");

        if let Some(rows) = adaptive.observed_rows {
            // The observation must be the true pilot cardinality, far from
            // the uniform estimate.
            assert!(rows > 100, "zipf: most rows qualify, got {rows}");
        }
        let cfg = &cat.config;
        // The adaptive MAIN execution is no slower than the blind one
        // (it may equal it when the blind decision was already right).
        assert!(
            adaptive.main.simulated_seconds(cfg)
                <= blind_exec.simulated_seconds(cfg) + 1e-9,
            "adaptive main {:.4}s vs blind {:.4}s",
            adaptive.main.simulated_seconds(cfg),
            blind_exec.simulated_seconds(cfg)
        );
        let _ = blind;
    }

    #[test]
    fn pilot_rows_are_reused_not_recomputed() {
        let (cat, db, q) = skewed_join();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 30);
        let adaptive = execute_adaptive(&plan, &db, &cat, &env, &bindings).unwrap();
        let pilot = adaptive.pilot.expect("join fixture has a pilot");
        assert!(pilot.io.total() > 0, "pilot reads its base relation");

        // What the same chosen plan costs when executed from scratch.
        let ctx = ExecContext::default();
        let scratch = execute(
            &adaptive.startup.resolved,
            &db,
            &cat,
            &env,
            &bindings,
            &ctx,
            Sink::Count,
        )
        .unwrap()
        .summary;
        let (rows, scratch_io) = (scratch.rows, scratch.io);

        assert_eq!(rows, adaptive.main.rows, "same logical result");
        assert!(
            adaptive.main.io.total() < scratch_io.total(),
            "serving the retained pilot rows must save the pilot subtree's \
             I/O: main {:?} vs from-scratch {:?}",
            adaptive.main.io,
            scratch_io
        );
    }

    #[test]
    fn adaptive_on_uniform_data_changes_nothing() {
        // With accurate estimates the observation agrees with the
        // estimate and the same plan is chosen.
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 500, 512, |r| r.attr("a", 500.0).btree("a", false))
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 5);
        let rel = cat.relation_by_name("r").unwrap();
        let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
            rel.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ));
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 400);

        let blind = evaluate_startup(&plan, &cat, &env, &bindings);
        let adaptive = execute_adaptive(&plan, &db, &cat, &env, &bindings).unwrap();
        assert_eq!(
            adaptive.startup.resolved.op.name(),
            blind.resolved.op.name(),
            "accurate estimates: observation should not change the choice"
        );
        assert!(adaptive.total_seconds(&cat.config) > 0.0);
    }
}
