//! The run-time choose-plan operator (Graefe & Ward, SIGMOD 1989).
//!
//! The 1989 paper defined choose-plan as an *operator in the query
//! evaluation plan*: an iterator that, when opened, runs its decision
//! procedure and from then on delegates `next` to the chosen input. This
//! module provides exactly that — [`ChoosePlanExec`] — so dynamic plans
//! can be compiled *as they are* and decide lazily inside the Volcano
//! tree, instead of being resolved up front.
//!
//! [`compile_dynamic_plan`] compiles any plan, mapping choose-plan nodes
//! to [`ChoosePlanExec`]; `open()` evaluates the node's subtree costs with
//! the actual bindings (the Section 4 decision procedure of the 1994
//! paper), compiles only the winning alternative, and opens it. Losing
//! alternatives are never compiled — mirroring how an access module never
//! instantiates the plans it does not run.
//!
//! Having every alternative at hand also buys **graceful degradation**:
//! when opening the chosen alternative fails *retryably* (an injected
//! storage fault, a memory grant the governor refuses to cover), the
//! operator falls back to the next alternative in predicted-cost order
//! instead of failing the query, recording each fallback in the query's
//! counters ([`crate::ExecSummary::fallbacks`]). Fatal errors —
//! cancellation, exceeded query-wide budgets, malformed plans — propagate
//! immediately.

use std::sync::Arc;

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_plan::{evaluate_startup, evaluate_startup_observed, PlanNode, StartupResult};
use dqep_storage::StoredDatabase;

use crate::error::ExecError;
use crate::governor::ExecContext;
use crate::trace::{AltAudit, AttemptAudit, ChooseAudit};
use crate::tuple::{Tuple, TupleLayout};
use crate::{BoxedOperator, Operator};

/// The run-time choose-plan operator: decides at `open()`.
pub struct ChoosePlanExec<'a> {
    node: Arc<PlanNode>,
    db: &'a StoredDatabase,
    catalog: &'a Catalog,
    env: Environment,
    bindings: Bindings,
    memory_bytes: usize,
    ctx: ExecContext,
    /// Filled at `open()`: the compiled winning alternative.
    chosen: Option<BoxedOperator<'a>>,
    /// Index of the alternative actually running (for observability).
    chosen_index: Option<usize>,
    layout: TupleLayout,
    /// Column permutation rewriting the winner's tuples into the declared
    /// layout, when the winner is a commuted alternative whose column
    /// order differs. `None` — the common case — passes tuples through
    /// untouched.
    remap: Option<Vec<usize>>,
}

impl<'a> ChoosePlanExec<'a> {
    /// Creates the operator for a choose-plan `node`.
    ///
    /// # Panics
    /// Panics if `node` is not a choose-plan.
    #[must_use]
    pub fn new(
        node: Arc<PlanNode>,
        db: &'a StoredDatabase,
        catalog: &'a Catalog,
        env: Environment,
        bindings: Bindings,
        memory_bytes: usize,
        ctx: ExecContext,
    ) -> Self {
        assert!(node.is_choose_plan(), "ChoosePlanExec needs a choose-plan node");
        // All alternatives share the logical result; take the first
        // alternative's layout (identical relation sets).
        let layout = layout_of(&node.children[0], catalog);
        ChoosePlanExec {
            node,
            db,
            catalog,
            env,
            bindings,
            memory_bytes,
            ctx,
            chosen: None,
            chosen_index: None,
            layout,
            remap: None,
        }
    }

    /// Which alternative is running (after `open`). With fallbacks this
    /// may differ from the decision procedure's first pick.
    #[must_use]
    pub fn chosen_index(&self) -> Option<usize> {
        self.chosen_index
    }

    /// The decision procedure for `node` (the choose-plan itself or one
    /// alternative): plain start-up evaluation, or — when the context
    /// carries mid-query re-optimization state — the observed variant with
    /// the checkpoint observations applied, so a re-arbitration after a
    /// cardinality escape decides from what the query actually saw.
    fn arbitrate(&self, node: &Arc<PlanNode>) -> StartupResult {
        match self.ctx.reopt.as_ref() {
            Some(state) => evaluate_startup_observed(
                node,
                self.catalog,
                &self.env,
                &self.bindings,
                &state.observations(),
            ),
            None => evaluate_startup(node, self.catalog, &self.env, &self.bindings),
        }
    }

    /// The order in which to attempt alternatives: the decision
    /// procedure's pick first, then the rest by their individually
    /// predicted run time, ascending.
    fn attempt_order(&self, preferred: usize) -> Vec<usize> {
        let mut rest: Vec<(usize, f64)> = self
            .node
            .children
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != preferred)
            .map(|(i, alt)| {
                let cost = self.arbitrate(alt).predicted_run_seconds;
                (i, cost)
            })
            .collect();
        rest.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut order = Vec::with_capacity(self.node.children.len());
        order.push(preferred);
        order.extend(rest.into_iter().map(|(i, _)| i));
        order
    }

    /// Hands a completed arbitration audit to the tracer, if tracing, and
    /// records the arbitration outcome in the flight-recorder journal.
    fn flush_audit(&self, audit: ChooseAudit) {
        if let Some(tracer) = self.ctx.tracer.as_ref() {
            crate::journal::journal().record(
                crate::journal::EventKind::ArbitrationWinner,
                tracer.trace_id(),
                crate::journal::NO_ID,
                audit.node,
                audit.winner.map_or(crate::journal::NO_ID, |w| w as u64),
                audit.fallbacks,
            );
            tracer.audit(audit);
        }
    }
}

/// The tuple layout a plan subtree produces (base relations in DAG
/// leaf-visit order, matching how join operators concatenate).
pub(crate) fn layout_of(node: &Arc<PlanNode>, catalog: &Catalog) -> TupleLayout {
    use dqep_algebra::PhysicalOp::*;
    match &node.op {
        FileScan { relation } | BtreeScan { relation, .. } | FilterBtreeScan { relation, .. } => {
            TupleLayout::base(catalog, *relation)
        }
        Filter { .. } | Sort { .. } => layout_of(&node.children[0], catalog),
        HashJoin { .. } | MergeJoin { .. } => layout_of(&node.children[0], catalog)
            .concat(&layout_of(&node.children[1], catalog)),
        IndexJoin { inner, .. } => {
            layout_of(&node.children[0], catalog).concat(&TupleLayout::base(catalog, *inner))
        }
        ChoosePlan => layout_of(&node.children[0], catalog),
    }
}

impl Operator for ChoosePlanExec<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        // Decision procedure: re-evaluate the alternatives' cost functions
        // with the actual bindings (and any checkpoint observations), once
        // per DAG node.
        let startup = self.arbitrate(&self.node);
        if let Some(state) = self.ctx.reopt.as_ref() {
            let observed = state.observations().len();
            if observed > 0 {
                state.record_arbitration(
                    self.node.id,
                    &format!("arbitrated with {observed} checkpoint observation(s)"),
                );
            }
        }
        let preferred = startup
            .decisions
            .iter()
            .find(|d| d.choose_plan == self.node.id)
            .map(|d| d.chosen_index)
            .unwrap_or(0);
        // With tracing on, record the full arbitration audit trail: every
        // alternative with its bind-time prediction, the bound values, the
        // attempts in order, and the eventual winner. Costs nothing when
        // tracing is off (the map never runs).
        let mut audit = self.ctx.tracer.as_ref().map(|_| ChooseAudit {
            node: self.node.id.0,
            bind_values: self
                .bindings
                .values
                .iter()
                .map(|(var, value)| (var.to_string(), *value))
                .collect(),
            memory_pages: self.bindings.memory_pages,
            alternatives: self
                .node
                .children
                .iter()
                .enumerate()
                .map(|(index, alt)| AltAudit {
                    index,
                    label: alt.op.to_string(),
                    predicted_seconds: self.arbitrate(alt).predicted_run_seconds,
                })
                .collect(),
            preferred,
            attempts: Vec::new(),
            winner: None,
            fallbacks: 0,
        });
        let mut last_err: Option<ExecError> = None;
        for idx in self.attempt_order(preferred) {
            let alt = &self.node.children[idx];
            let attempt = compile_dynamic_plan(
                alt,
                self.db,
                self.catalog,
                &self.env,
                &self.bindings,
                self.memory_bytes,
                &self.ctx,
            )
            .and_then(|mut op| match op.open() {
                Ok(()) => Ok(op),
                Err(e) => {
                    // Release whatever the failed attempt still holds
                    // (buffered rows, memory reservations).
                    op.close();
                    Err(e)
                }
            });
            match attempt {
                Ok(op) => {
                    // Alternatives share a relation *set*, not an order:
                    // a commuted join delivers the same rows with the
                    // columns permuted. Remap into the declared layout so
                    // parents (and callers) see one stable column order
                    // regardless of which alternative arbitration picked.
                    self.remap = self.layout.projection_from(op.layout());
                    self.chosen_index = Some(idx);
                    self.chosen = Some(op);
                    if let Some(mut audit) = audit.take() {
                        audit.attempts.push(AttemptAudit {
                            index: idx,
                            outcome: "opened".into(),
                        });
                        audit.winner = Some(idx);
                        self.flush_audit(audit);
                    }
                    return Ok(());
                }
                Err(e) if e.is_retryable() => {
                    self.ctx.counters.add_fallbacks(1);
                    if let Some(audit) = audit.as_mut() {
                        audit.attempts.push(AttemptAudit {
                            index: idx,
                            outcome: e.to_string(),
                        });
                        audit.fallbacks += 1;
                    }
                    last_err = Some(e);
                }
                Err(e) => {
                    if let Some(mut audit) = audit.take() {
                        audit.attempts.push(AttemptAudit {
                            index: idx,
                            outcome: e.to_string(),
                        });
                        self.flush_audit(audit);
                    }
                    return Err(e);
                }
            }
        }
        if let Some(audit) = audit.take() {
            self.flush_audit(audit);
        }
        Err(last_err
            .unwrap_or_else(|| ExecError::Internal("choose-plan has no alternatives".into())))
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        let Some(op) = self.chosen.as_mut() else {
            return Err(ExecError::Internal("choose-plan next() before open()".into()));
        };
        let Some(row) = op.next()? else {
            return Ok(None);
        };
        Ok(Some(match &self.remap {
            Some(proj) => proj.iter().map(|&i| row[i]).collect(),
            None => row,
        }))
    }

    /// Batches pass straight through to the chosen alternative, so the
    /// vectorized path keeps the identical fallback-at-`open` semantics —
    /// by the time batches flow, the decision (and any fallbacks) already
    /// happened. A commuted winner's batches are rewritten into the
    /// declared column order, exactly like the tuple path.
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<crate::RowBatch>, ExecError> {
        let Some(op) = self.chosen.as_mut() else {
            return Err(ExecError::Internal("choose-plan next_batch() before open()".into()));
        };
        let Some(batch) = op.next_batch(max_rows)? else {
            return Ok(None);
        };
        let Some(proj) = &self.remap else {
            return Ok(Some(batch));
        };
        let live: Vec<usize> = batch.selected_indices().collect();
        let mut out = crate::RowBatch::with_capacity(self.layout.width(), live.len());
        out.extend_rows_with(live.len(), |cols| {
            for (col, &src) in cols.iter_mut().zip(proj) {
                let from = batch.column(src);
                col.extend(live.iter().map(|&i| from[i]));
            }
        });
        Ok(Some(out))
    }

    fn close(&mut self) {
        if let Some(mut op) = self.chosen.take() {
            op.close();
        }
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        self.chosen.as_ref().and_then(|op| op.estimated_rows())
    }
}

/// Compiles a plan that may contain choose-plan operators: choose-plan
/// nodes — at the root or nested anywhere inside the tree — become
/// [`ChoosePlanExec`] (deciding at `open()`); everything else compiles as
/// usual. Original plan-node identities are preserved end to end, so
/// mid-query re-optimization can substitute retained intermediates and
/// apply checkpoint observations at any depth.
///
/// # Errors
/// Any compilation [`ExecError`]; choose-plan nodes themselves never fail
/// to compile (their alternatives compile lazily at `open`).
pub fn compile_dynamic_plan<'a>(
    node: &Arc<PlanNode>,
    db: &'a StoredDatabase,
    catalog: &'a Catalog,
    env: &Environment,
    bindings: &Bindings,
    memory_bytes: usize,
    ctx: &ExecContext,
) -> Result<BoxedOperator<'a>, ExecError> {
    crate::compile::compile_node(node, db, catalog, Some(env), bindings, memory_bytes, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_plan;
    use crate::exec::drain;
    use crate::governor::ExecMode;
    use crate::metrics::SharedCounters;
    use dqep_algebra::{CompareOp, HostVar, LogicalExpr, PhysicalOp, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;

    fn fixture() -> (Catalog, StoredDatabase, LogicalExpr) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 600, 512, |r| r.attr("a", 600.0).btree("a", false))
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 77);
        let rel = cat.relation_by_name("r").unwrap();
        let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
            rel.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ));
        (cat, db, q)
    }

    #[test]
    fn runtime_operator_decides_at_open() {
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        assert!(plan.is_choose_plan());

        for (v, expect_index) in [(5i64, true), (550, false)] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            let ctx = ExecContext::new(SharedCounters::new());
            let mut op = ChoosePlanExec::new(
                plan.clone(),
                &db,
                &cat,
                env.clone(),
                bindings.clone(),
                64 * 2048,
                ctx,
            );
            assert!(op.chosen_index().is_none(), "no decision before open");
            op.open().unwrap();
            let idx = op.chosen_index().expect("decided at open");
            let is_index_plan = matches!(
                plan.children[idx].op,
                PhysicalOp::FilterBtreeScan { .. }
            );
            assert_eq!(is_index_plan, expect_index, "binding {v}");
            let rows = {
                let mut n = 0;
                while op.next().unwrap().is_some() {
                    n += 1;
                }
                n
            };
            op.close();
            // Ground truth.
            let table = db.table(cat.relation_by_name("r").unwrap().id);
            let expected = table
                .heap
                .scan()
                .map(Result::unwrap)
                .filter(|rec| table.decode(rec)[0] < v)
                .count();
            assert_eq!(rows, expected);
        }
    }

    #[test]
    fn dynamic_compile_matches_resolve_then_compile() {
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        for v in [10i64, 200, 580] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            // Path 1: run-time operator.
            let ctx = ExecContext::new(SharedCounters::new());
            let mut lazy =
                compile_dynamic_plan(&plan, &db, &cat, &env, &bindings, 64 * 2048, &ctx).unwrap();
            let lazy_rows = drain(lazy.as_mut(), ExecMode::Tuple).unwrap().len();
            // Path 2: resolve first.
            let startup = evaluate_startup(&plan, &cat, &env, &bindings);
            let ctx = ExecContext::new(SharedCounters::new());
            let mut eager =
                compile_plan(&startup.resolved, &db, &cat, &bindings, 64 * 2048, &ctx).unwrap();
            let eager_rows = drain(eager.as_mut(), ExecMode::Tuple).unwrap().len();
            assert_eq!(lazy_rows, eager_rows, "binding {v}");
        }
    }

    #[test]
    fn losing_alternatives_are_never_compiled() {
        // Observable through I/O: opening the run-time operator with a
        // selective binding must not scan the file (the file-scan
        // alternative is never compiled or opened).
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 3);
        let before = db.disk.stats();
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op =
            compile_dynamic_plan(&plan, &db, &cat, &env, &bindings, 64 * 2048, &ctx).unwrap();
        let rows = drain(op.as_mut(), ExecMode::Tuple).unwrap().len();
        let io = db.disk.stats().since(&before);
        // A full file scan would read ~150 pages; the index path touches
        // only the B-tree descent plus a handful of fetches.
        assert!(rows <= 10);
        assert!(
            io.total() < 20,
            "expected index-path I/O only, saw {io:?}"
        );
    }

    #[test]
    fn next_before_open_is_an_internal_error() {
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op = ChoosePlanExec::new(
            plan,
            &db,
            &cat,
            env,
            Bindings::new().with_value(HostVar(0), 10),
            64 * 2048,
            ctx,
        );
        assert!(matches!(op.next(), Err(ExecError::Internal(_))));
    }

    #[test]
    fn faulted_alternative_falls_back_and_still_answers() {
        use dqep_storage::FaultPlan;
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        assert!(plan.children.len() >= 2);

        // Selective binding: the index path wins and is opened first. Its
        // open() materializes rids via a B-tree descent — fail the very
        // first accounted read so that descent dies and the operator must
        // fall back to the file scan.
        let bindings = Bindings::new().with_value(HostVar(0), 5);
        let ctx = ExecContext::new(SharedCounters::new());
        let mut op = compile_dynamic_plan(
            &plan, &db, &cat, &env, &bindings, 64 * 2048, &ctx,
        )
        .unwrap();
        db.disk.set_fault_plan(FaultPlan::nth_read(1));
        let rows = drain(op.as_mut(), ExecMode::Tuple).unwrap().len();
        db.disk.set_fault_plan(FaultPlan::none());
        assert!(ctx.counters.fallbacks() >= 1, "fallback must be recorded");
        // Same answer as a clean run.
        let table = db.table(cat.relation_by_name("r").unwrap().id);
        let expected = table
            .heap
            .scan()
            .map(Result::unwrap)
            .filter(|rec| table.decode(rec)[0] < 5)
            .count();
        assert_eq!(rows, expected);
    }
}
