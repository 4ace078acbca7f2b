//! Plan compilation: physical plan nodes → executable operator trees.

use std::sync::Arc;

use dqep_algebra::{JoinPred, PhysicalOp, Scalar, SelectPred};
use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_plan::PlanNode;
use dqep_storage::StoredDatabase;

use crate::batch::RowBatch;
use crate::error::ExecError;
use crate::exec::{pull, Drained, Sink};
use crate::filter::{FilterExec, ResolvedPred};
use crate::governor::ExecContext;
use crate::hash_join::HashJoinExec;
use crate::index_join::IndexJoinExec;
use crate::merge_join::MergeJoinExec;
use crate::metrics::ExecSummary;
use crate::reopt::ReoptOutcome;
use crate::scan::{BtreeScanExec, FileScanExec, FilterBtreeScanExec};
use crate::sort::SortExec;
use crate::trace::TraceReport;
use crate::tuple::{Tuple, TupleLayout};
use crate::BoxedOperator;

fn pred_value(pred: &SelectPred, bindings: &Bindings) -> Result<i64, ExecError> {
    match pred.rhs {
        Scalar::Const(v) => Ok(v),
        Scalar::Host(h) => bindings.value(h).ok_or(ExecError::UnboundHostVar(h)),
    }
}

pub(crate) fn resolve_pred(
    pred: &SelectPred,
    layout: &TupleLayout,
    bindings: &Bindings,
) -> Result<ResolvedPred, ExecError> {
    let pos = layout
        .position(pred.attr)
        .ok_or_else(|| ExecError::PredicateMismatch(pred.to_string()))?;
    Ok(ResolvedPred {
        pos,
        op: pred.op,
        value: pred_value(pred, bindings)?,
    })
}

/// Orients a join predicate so its first position indexes `left` and its
/// second indexes `right`.
pub(crate) fn orient(
    pred: &JoinPred,
    left: &TupleLayout,
    right: &TupleLayout,
) -> Result<(usize, usize), ExecError> {
    if let (Some(l), Some(r)) = (left.position(pred.left), right.position(pred.right)) {
        return Ok((l, r));
    }
    if let (Some(l), Some(r)) = (left.position(pred.right), right.position(pred.left)) {
        return Ok((l, r));
    }
    Err(ExecError::PredicateMismatch(pred.to_string()))
}

/// Compiles a **resolved** (choose-plan-free) physical plan into an
/// executable operator tree. All operators share `ctx` — its counters for
/// simulated-CPU accounting and its governor for resource enforcement.
///
/// # Errors
/// [`ExecError::UnresolvedChoosePlan`] on a choose-plan node (compile
/// those with [`crate::compile_dynamic_plan`]); unbound-host-variable and
/// predicate errors from resolution; storage errors from operator setup.
pub fn compile_plan<'a>(
    node: &Arc<PlanNode>,
    db: &'a StoredDatabase,
    catalog: &'a Catalog,
    bindings: &Bindings,
    memory_bytes: usize,
    ctx: &ExecContext,
) -> Result<BoxedOperator<'a>, ExecError> {
    compile_node(node, db, catalog, None, bindings, memory_bytes, ctx)
}

/// Shared compiler body behind [`compile_plan`] (`env = None`: choose-plan
/// nodes are an error) and [`crate::compile_dynamic_plan`] (`env = Some`:
/// choose-plan nodes — at the root or anywhere inside the tree — become
/// run-time [`crate::ChoosePlanExec`] operators deciding lazily at
/// `open()`).
#[allow(clippy::too_many_lines)]
pub(crate) fn compile_node<'a>(
    node: &Arc<PlanNode>,
    db: &'a StoredDatabase,
    catalog: &'a Catalog,
    env: Option<&Environment>,
    bindings: &Bindings,
    memory_bytes: usize,
    ctx: &ExecContext,
) -> Result<BoxedOperator<'a>, ExecError> {
    // With a tracer in the context, every node gets a span and its
    // operator a `TracedExec` wrapper; children compile under `traced`'s
    // context so their spans nest. Without one, this is a single branch.
    let traced = crate::trace::node_span(ctx, node);
    let ctx = traced.as_ref().map_or(ctx, |(_, tctx)| tctx);
    // Mid-query re-optimization: a node whose result was retained at a
    // checkpoint compiles to a scan over the retained rows — the
    // substitution that keeps a re-plan from ever repeating finished work.
    if let Some(state) = ctx.reopt.as_ref() {
        if let Some((layout, rows)) = state.materialized(node.id) {
            let op: BoxedOperator<'a> =
                Box::new(crate::reopt::MaterializedScanExec::new(rows, layout, ctx.clone()));
            return Ok(match traced {
                Some((span, _)) => crate::trace::wrap_span(op, span, ctx, Some(db.disk.clone())),
                None => op,
            });
        }
    }
    // A checkpoint probe for a pipeline-breaker input, unless that input
    // is already served from retained rows (its cardinality is known).
    let probe_for = |input: &Arc<PlanNode>| {
        let state = ctx.reopt.as_ref()?;
        if state.materialized(input.id).is_some() {
            return None;
        }
        Some(crate::reopt::ReoptProbe::new(
            Arc::clone(state),
            input.id,
            input.op.name(),
            input.stats.card,
        ))
    };
    let op: BoxedOperator<'a> = match &node.op {
        PhysicalOp::FileScan { relation } => {
            let table = db.table(*relation);
            // The one place parallelism enters a compiled tree: a DOP > 1
            // file scan becomes an exchange over morsel-scan workers.
            // Every other operator reads `ctx.dop` itself.
            if ctx.dop > 1 && table.heap.page_count() >= 2 {
                let mut exchange = crate::exchange::parallel_scan(
                    table,
                    TupleLayout::base(catalog, *relation),
                    ctx,
                );
                // The exchange's worker join is a pipeline breaker: all
                // workers' output is merged before anything flows on.
                if let Some(probe) = probe_for(node) {
                    exchange = exchange.with_checkpoint(probe);
                }
                Box::new(exchange)
            } else {
                Box::new(FileScanExec::new(
                    table,
                    TupleLayout::base(catalog, *relation),
                    ctx.clone(),
                ))
            }
        }
        PhysicalOp::BtreeScan {
            relation, index, ..
        } => Box::new(BtreeScanExec::new(
            db.table(*relation),
            *index,
            TupleLayout::base(catalog, *relation),
            ctx.clone(),
        )),
        PhysicalOp::FilterBtreeScan {
            relation,
            index,
            predicate,
        } => {
            let layout = TupleLayout::base(catalog, *relation);
            let resolved = resolve_pred(predicate, &layout, bindings)?;
            Box::new(FilterBtreeScanExec::new(
                db.table(*relation),
                *index,
                resolved.key_range(),
                layout,
                ctx.clone(),
            ))
        }
        PhysicalOp::Filter { predicate } => {
            let child = compile_node(&node.children[0], db, catalog, env, bindings, memory_bytes, ctx)?;
            let resolved = resolve_pred(predicate, child.layout(), bindings)?;
            Box::new(FilterExec::new(child, resolved, ctx.clone()))
        }
        PhysicalOp::HashJoin { predicates } => {
            let build =
                compile_node(&node.children[0], db, catalog, env, bindings, memory_bytes, ctx)?;
            let probe =
                compile_node(&node.children[1], db, catalog, env, bindings, memory_bytes, ctx)?;
            let keys = predicates
                .iter()
                .map(|p| orient(p, build.layout(), probe.layout()))
                .collect::<Result<Vec<_>, _>>()?;
            let mut join = HashJoinExec::new(
                build,
                probe,
                keys,
                ctx.clone(),
                db.disk.clone(),
                memory_bytes,
            );
            if let Some(cp) = probe_for(&node.children[0]) {
                join = join.with_checkpoint(cp);
            }
            Box::new(join)
        }
        PhysicalOp::MergeJoin { predicates } => {
            let left =
                compile_node(&node.children[0], db, catalog, env, bindings, memory_bytes, ctx)?;
            let right =
                compile_node(&node.children[1], db, catalog, env, bindings, memory_bytes, ctx)?;
            let mut keys = predicates
                .iter()
                .map(|p| orient(p, left.layout(), right.layout()))
                .collect::<Result<Vec<_>, _>>()?;
            let (lk, rk) = keys.remove(0);
            Box::new(MergeJoinExec::new(left, right, lk, rk, keys, ctx.clone()))
        }
        PhysicalOp::IndexJoin {
            predicates,
            inner,
            index,
            residual,
        } => {
            let outer =
                compile_node(&node.children[0], db, catalog, env, bindings, memory_bytes, ctx)?;
            let inner_layout = TupleLayout::base(catalog, *inner);
            let mut keys = predicates
                .iter()
                .map(|p| orient(p, outer.layout(), &inner_layout))
                .collect::<Result<Vec<_>, _>>()?;
            let (outer_key, _) = keys.remove(0);
            let residual = residual
                .as_ref()
                .map(|p| resolve_pred(p, &inner_layout, bindings))
                .transpose()?;
            Box::new(IndexJoinExec::new(
                outer,
                db.table(*inner),
                &inner_layout,
                *index,
                outer_key,
                keys,
                residual,
                ctx.clone(),
                memory_bytes / dqep_storage::PAGE_SIZE,
            )?)
        }
        PhysicalOp::Sort { attr } => {
            let child = compile_node(&node.children[0], db, catalog, env, bindings, memory_bytes, ctx)?;
            let key = child
                .layout()
                .position(*attr)
                .ok_or_else(|| ExecError::PredicateMismatch(format!("sort key {attr}")))?;
            let mut sort = SortExec::new(
                child,
                key,
                ctx.clone(),
                db.disk.clone(),
                memory_bytes,
            );
            if let Some(cp) = probe_for(&node.children[0]) {
                sort = sort.with_checkpoint(cp);
            }
            Box::new(sort)
        }
        PhysicalOp::ChoosePlan => match env {
            // Dynamic compilation: the choose-plan becomes its run-time
            // operator, deciding (with any checkpoint observations) at
            // `open()`. It keeps the traced child context so alternatives
            // compiled lazily nest their spans under its span.
            Some(env) => Box::new(crate::choose::ChoosePlanExec::new(
                Arc::clone(node),
                db,
                catalog,
                env.clone(),
                bindings.clone(),
                memory_bytes,
                ctx.clone(),
            )),
            None => return Err(ExecError::UnresolvedChoosePlan),
        },
    };
    Ok(match traced {
        Some((span, _)) => crate::trace::wrap_span(op, span, ctx, Some(db.disk.clone())),
        None => op,
    })
}

/// What one [`execute`] call reports back.
#[derive(Debug)]
pub struct Execution {
    /// Accounting for this call: result rows, simulated CPU (the context's
    /// counters, cumulative if the caller reuses them), the I/O performed
    /// during the call, and choose-plan fallbacks taken.
    pub summary: ExecSummary,
    /// The result rows under [`Sink::Collect`]; empty otherwise.
    pub rows: Vec<Tuple>,
    /// The root's result batches under [`Sink::Batches`] (selection
    /// vectors kept, batches without live rows dropped); empty otherwise.
    pub batches: Vec<RowBatch>,
    /// The span tree and choose-plan audits, when the context's tracer
    /// records spans. With re-optimization on, its `reopt` field carries
    /// the audit trail too.
    pub trace: Option<TraceReport>,
    /// The re-optimization outcome, when the context carries
    /// [`ExecContext::reopt`] state.
    pub reopt: Option<ReoptOutcome>,
}

/// The memory grant in bytes a query runs under: the bindings' grant in
/// pages, or the environment's expected grant, at the catalog's page size.
pub(crate) fn grant_bytes(bindings: &Bindings, env: &Environment, catalog: &Catalog) -> usize {
    let pages = bindings
        .memory_pages
        .unwrap_or_else(|| env.memory.expected());
    (pages * catalog.config.page_size as f64) as usize
}

/// Executes a (static, dynamic or already resolved) plan: the one
/// execution entry point. See DESIGN.md §6 for the contract.
///
/// The plan is compiled under `ctx` with the memory grant derived from
/// `bindings`/`env` — choose-plan nodes become run-time
/// [`crate::ChoosePlanExec`] operators that arbitrate at `open()` and fall
/// back to the next alternative on a retryable failure; a resolved plan
/// compiles to exactly its operators — then drained at the root. The
/// context supplies everything else: `mode` picks the tuple or batch
/// pipeline, `dop` the intra-query parallelism, `governor` the budgets
/// (result rows are charged against the row budget), `counters` the
/// accounting, `tracer` per-operator spans, and `reopt` mid-query
/// re-optimization (checkpoints, bounded re-plans, intermediate reuse —
/// see the `reopt` module). `sink` chooses whether result rows are only
/// counted or also collected.
///
/// Execution does no start-up evaluation of its own beyond what the
/// run-time choose-plan operators (and, with `reopt`, the checkpoint
/// driver) need; callers that want the [`dqep_plan::StartupResult`] call
/// [`dqep_plan::evaluate_startup`].
///
/// # Errors
/// Any [`ExecError`] from compilation or execution, including
/// [`ExecError::ResourceExhausted`] when a budget is exceeded.
pub fn execute(
    plan: &Arc<PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
    sink: Sink,
) -> Result<Execution, ExecError> {
    let io_before = db.disk.stats();
    let (drained, reopt) = crate::reopt::drive(plan, db, catalog, env, bindings, ctx, sink)?;
    let io = db.disk.stats().since(&io_before);
    let trace = ctx.tracer.as_ref().filter(|t| t.records_spans()).map(|t| {
        let mut report = t.report();
        if let Some(outcome) = &reopt {
            report.reopt = outcome.report.clone();
        }
        report
    });
    Ok(Execution {
        summary: ExecSummary {
            rows: drained.rows,
            cpu: ctx.counters.snapshot(),
            io,
            fallbacks: ctx.counters.fallbacks(),
            ..ExecSummary::default()
        },
        rows: drained.tuples,
        batches: drained.batches,
        trace,
        reopt,
    })
}

/// Compiles `plan` dynamically under `ctx` with the grant `bindings`
/// implies and drains it at the root, charging result rows against the
/// row budget.
pub(crate) fn run(
    plan: &Arc<PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
    sink: Sink,
) -> Result<Drained, ExecError> {
    let memory_bytes = grant_bytes(bindings, env, catalog);
    let mut op = compile_node(plan, db, catalog, Some(env), bindings, memory_bytes, ctx)?;
    pull(op.as_mut(), ctx.mode, Some(&ctx.governor), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BATCH_CAPACITY;
    use crate::exec::drain;
    use crate::governor::{ExecMode, ResourceLimits};
    use crate::metrics::SharedCounters;
    use dqep_algebra::{CompareOp, HostVar, LogicalExpr};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_plan::evaluate_startup;

    /// Two small relations joined on `j`, selection on `r.a`.
    fn fixture() -> (Catalog, StoredDatabase) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 400, 512, |r| {
                r.attr("a", 400.0).attr("j", 50.0).btree("a", false).btree("j", false)
            })
            .relation("s", 300, 512, |r| {
                r.attr("a", 300.0).attr("j", 50.0).btree("a", false).btree("j", false)
            })
            .build()
            .unwrap();
        let db = StoredDatabase::generate(&cat, 99);
        (cat, db)
    }

    fn run_limited(
        plan: &Arc<PlanNode>,
        db: &StoredDatabase,
        cat: &Catalog,
        env: &Environment,
        bindings: &Bindings,
        limits: ResourceLimits,
    ) -> Result<Execution, ExecError> {
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
        execute(plan, db, cat, env, bindings, &ctx, Sink::Count)
    }

    fn select_query(cat: &Catalog) -> LogicalExpr {
        let r = cat.relation_by_name("r").unwrap();
        LogicalExpr::get(r.id).select(SelectPred::unbound(
            r.attr_id("a").unwrap(),
            CompareOp::Lt,
            HostVar(0),
        ))
    }

    #[test]
    fn executes_resolved_selection_and_counts_match_ground_truth() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env)
            .optimize(&select_query(&cat))
            .unwrap()
            .plan;
        for v in [0i64, 40, 200, 400] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            let ctx = ExecContext::default();
            let summary = execute(&plan, &db, &cat, &env, &bindings, &ctx, Sink::Count)
                .unwrap()
                .summary;
            // Ground truth from a raw heap scan.
            let table = db.table(cat.relation_by_name("r").unwrap().id);
            let expected = table
                .heap
                .scan()
                .map(Result::unwrap)
                .filter(|rec| table.decode(rec)[0] < v)
                .count() as u64;
            assert_eq!(summary.rows, expected, "binding {v}");
        }
    }

    #[test]
    fn alternative_plans_agree_on_results() {
        // Both alternatives of the Figure 1 choose-plan produce the same
        // rows; only their cost differs.
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env)
            .optimize(&select_query(&cat))
            .unwrap()
            .plan;
        assert!(plan.is_choose_plan());
        let bindings = Bindings::new().with_value(HostVar(0), 120);
        let ctx = ExecContext::new(SharedCounters::new());
        let mut results: Vec<u64> = Vec::new();
        for alt in &plan.children {
            let mut op = compile_plan(alt, &db, &cat, &bindings, 1 << 20, &ctx).unwrap();
            results.push(drain(op.as_mut(), ExecMode::Tuple).unwrap().len() as u64);
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
    }

    #[test]
    fn chosen_alternative_is_faster_in_simulated_time() {
        // The headline validation: the start-up decision picks the plan
        // that is actually faster when executed on stored data.
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env)
            .optimize(&select_query(&cat))
            .unwrap()
            .plan;
        for v in [4i64, 396] {
            let bindings = Bindings::new().with_value(HostVar(0), v);
            let startup = evaluate_startup(&plan, &cat, &env, &bindings);
            let mut times = Vec::new();
            for alt in &plan.children {
                let ctx = ExecContext::new(SharedCounters::new());
                let before = db.disk.stats();
                let mut op = compile_plan(alt, &db, &cat, &bindings, 1 << 20, &ctx).unwrap();
                let _ = drain(op.as_mut(), ExecMode::Tuple).unwrap();
                let io = db.disk.stats().since(&before);
                let summary = ExecSummary {
                    rows: 0,
                    cpu: ctx.counters.snapshot(),
                    io,
                    ..ExecSummary::default()
                };
                times.push(summary.simulated_seconds(&cat.config));
            }
            let chosen = startup.decisions[0].chosen_index;
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                times[chosen] <= min * 1.3 + 1e-9,
                "binding {v}: chose {chosen} ({:.4}s) but best is {min:.4}s ({times:?})",
                times[chosen]
            );
        }
    }

    #[test]
    fn join_query_executes_and_matches_nested_loop_ground_truth() {
        let (cat, db) = fixture();
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
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;

        let bindings = Bindings::new().with_value(HostVar(0), 100);
        let ctx = ExecContext::default();
        let summary = execute(&plan, &db, &cat, &env, &bindings, &ctx, Sink::Count)
            .unwrap()
            .summary;

        // Ground truth: nested loops over raw heap scans.
        let rt = db.table(r.id);
        let st = db.table(s.id);
        let r_rows: Vec<Vec<i64>> =
            rt.heap.scan().map(|rec| rt.decode(&rec.unwrap())).collect();
        let s_rows: Vec<Vec<i64>> =
            st.heap.scan().map(|rec| st.decode(&rec.unwrap())).collect();
        let expected = r_rows
            .iter()
            .filter(|row| row[0] < 100)
            .map(|row| s_rows.iter().filter(|srow| srow[1] == row[1]).count() as u64)
            .sum::<u64>();
        assert_eq!(summary.rows, expected);
        assert!(summary.io.total() > 0);
        assert!(summary.cpu.records > 0);
        assert_eq!(summary.fallbacks, 0, "no faults: no fallbacks");
    }

    #[test]
    fn batches_sink_keeps_the_collected_rows_in_both_modes() {
        // A join with a selection: filtered (selection-vector) batches in
        // batch mode, several batches' worth of rows at the wide binding.
        let (cat, db) = fixture();
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
                vec![JoinPred::new(
                    r.attr_id("j").unwrap(),
                    s.attr_id("j").unwrap(),
                )],
            );
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        for mode in [ExecMode::Tuple, ExecMode::Batch] {
            let run = |v: i64, limits: ResourceLimits, sink: Sink| {
                let bindings = Bindings::new().with_value(HostVar(0), v);
                let ctx = ExecContext::with_limits(SharedCounters::new(), limits).with_mode(mode);
                execute(&plan, &db, &cat, &env, &bindings, &ctx, sink)
            };
            for v in [0i64, 37, 400] {
                let unlimited = ResourceLimits::default();
                let collected = run(v, unlimited, Sink::Collect).unwrap();
                let batched = run(v, unlimited, Sink::Batches).unwrap();
                assert!(collected.batches.is_empty() && batched.rows.is_empty());
                assert_eq!(batched.summary.rows, collected.summary.rows);
                let rows: Vec<Tuple> = batched.batches.iter().flat_map(RowBatch::iter).collect();
                assert_eq!(rows, collected.rows, "{mode:?} v={v}");
                assert!(
                    batched.batches.iter().all(|b| !b.is_empty()),
                    "no empty batches kept"
                );
                if mode == ExecMode::Tuple {
                    let n = batched.batches.len();
                    for (i, b) in batched.batches.iter().enumerate() {
                        assert!(b.selection().is_none(), "tuple mode packs dense batches");
                        assert!(
                            i + 1 == n || b.rows() == BATCH_CAPACITY,
                            "full but the last"
                        );
                    }
                }
                assert!(run(v, unlimited, Sink::Count).unwrap().rows.is_empty());
            }
            let total = run(400, ResourceLimits::default(), Sink::Count)
                .unwrap()
                .summary
                .rows;
            assert!(
                total > BATCH_CAPACITY as u64,
                "the wide binding spans batches"
            );
            for limit in [1u64, 10, total - 1, total] {
                let limits = ResourceLimits {
                    max_rows: Some(limit),
                    ..ResourceLimits::default()
                };
                let collected = run(400, limits, Sink::Collect).map(|e| e.summary.rows);
                let batched = run(400, limits, Sink::Batches).map(|e| e.summary.rows);
                assert_eq!(batched, collected, "{mode:?} max_rows={limit}");
                assert_eq!(collected.is_ok(), limit >= total);
            }
        }
    }

    #[test]
    fn unbound_host_var_is_reported() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env)
            .optimize(&select_query(&cat))
            .unwrap()
            .plan;
        let ctx = ExecContext::default();
        let err = execute(&plan, &db, &cat, &env, &Bindings::new(), &ctx, Sink::Count);
        // Arbitration falls back to defaults, but compilation of a
        // predicate with no binding must fail.
        assert_eq!(err.unwrap_err(), ExecError::UnboundHostVar(HostVar(0)));
    }

    #[test]
    fn choose_plan_rejected_by_direct_compile() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env)
            .optimize(&select_query(&cat))
            .unwrap()
            .plan;
        assert!(plan.is_choose_plan());
        let err = compile_plan(
            &plan,
            &db,
            &cat,
            &Bindings::new().with_value(HostVar(0), 1),
            1 << 20,
            &ExecContext::new(SharedCounters::new()),
        );
        assert_eq!(err.err(), Some(ExecError::UnresolvedChoosePlan));
    }

    #[test]
    fn row_limit_aborts_execution() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env)
            .optimize(&select_query(&cat))
            .unwrap()
            .plan;
        let bindings = Bindings::new().with_value(HostVar(0), 400);
        let limits = ResourceLimits {
            max_rows: Some(10),
            ..ResourceLimits::default()
        };
        let err = run_limited(&plan, &db, &cat, &env, &bindings, limits).unwrap_err();
        assert_eq!(
            err,
            ExecError::ResourceExhausted(crate::error::Resource::Rows { limit: 10 })
        );
        // The same query under a generous limit succeeds.
        let limits = ResourceLimits {
            max_rows: Some(1_000_000),
            ..ResourceLimits::default()
        };
        assert!(run_limited(&plan, &db, &cat, &env, &bindings, limits).is_ok());
    }

    #[test]
    fn io_limit_aborts_execution() {
        let (cat, db) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env)
            .optimize(&select_query(&cat))
            .unwrap()
            .plan;
        let bindings = Bindings::new().with_value(HostVar(0), 400);
        let limits = ResourceLimits {
            max_io: Some(2),
            ..ResourceLimits::default()
        };
        let err = run_limited(&plan, &db, &cat, &env, &bindings, limits).unwrap_err();
        assert_eq!(
            err,
            ExecError::ResourceExhausted(crate::error::Resource::Io { limit: 2 })
        );
    }
}
