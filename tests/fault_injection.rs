//! Fault-injection integration tests: the execution pipeline under
//! storage faults and resource pressure.
//!
//! Three invariants:
//! 1. injected storage faults surface as `Err(ExecError::Storage)` — the
//!    pipeline never panics and never fabricates rows;
//! 2. when a choose-plan's preferred alternative cannot get its memory
//!    grant, execution degrades to the next alternative and still produces
//!    exactly the rows that alternative produces when run directly;
//! 3. under *random* fault plans, draining any optimized plan either
//!    succeeds with the correct result or fails cleanly — never panics.

use std::sync::Arc;

use dqep::algebra::{CompareOp, HostVar, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Cost, Environment, PlanStats};
use dqep::executor::{
    compile_dynamic_plan, drain, execute, ExecContext, ExecError, ExecMode, ResourceLimits,
    SharedCounters, Sink,
};
use dqep::interval::Interval;
use dqep::optimizer::Optimizer;
use dqep::plan::{PlanNode, PlanNodeBuilder};
use dqep::storage::{FaultPlan, StoredDatabase};
use proptest::prelude::*;

fn fixture() -> (Catalog, StoredDatabase, LogicalExpr) {
    let cat = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 400, 512, |r| r.attr("a", 400.0).btree("a", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&cat, 99);
    let rel = cat.relation_by_name("r").unwrap();
    let q = LogicalExpr::get(rel.id).select(SelectPred::unbound(
        rel.attr_id("a").unwrap(),
        CompareOp::Lt,
        HostVar(0),
    ));
    (cat, db, q)
}

/// Ground truth computed with faults disabled, through the unaccounted
/// (fault-exempt) load path.
fn expected_rows(cat: &Catalog, db: &StoredDatabase, v: i64) -> u64 {
    let table = db.table(cat.relation_by_name("r").unwrap().id);
    table
        .heap
        .scan()
        .map(Result::unwrap)
        .filter(|rec| table.decode(rec)[0] < v)
        .count() as u64
}

/// Every accounted read failing: execution reports a storage error — it
/// does not panic, and the error is classified retryable.
#[test]
fn total_read_failure_is_an_error_not_a_panic() {
    let (cat, db, q) = fixture();
    let env = Environment::dynamic_compile_time(&cat.config);
    let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
    let bindings = Bindings::new().with_value(HostVar(0), 200);

    db.disk.set_fault_plan(FaultPlan::probabilistic(1.0, 1));
    let ctx = ExecContext::default();
    let result = execute(&plan, &db, &cat, &env, &bindings, &ctx, Sink::Count);
    db.disk.set_fault_plan(FaultPlan::none());

    let err = result.expect_err("all reads fail: execution cannot succeed");
    assert!(matches!(err, ExecError::Storage(_)), "got {err:?}");
    assert!(err.is_retryable());

    // The same query succeeds once the faults are gone.
    let ctx = ExecContext::default();
    let summary = execute(&plan, &db, &cat, &env, &bindings, &ctx, Sink::Count)
        .unwrap()
        .summary;
    assert_eq!(summary.rows, expected_rows(&cat, &db, 200));
}

/// A write fault during a forced sort spill surfaces as an error too —
/// the write path is as governed as the read path.
#[test]
fn spill_write_failure_is_an_error_not_a_panic() {
    let (cat, db, _) = fixture();
    let rel = cat.relation_by_name("r").unwrap();
    let ra = rel.attr_id("a").unwrap();
    let mut b = PlanNodeBuilder::new();
    let scan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, vec![]);
    let sort = node(&mut b, PhysicalOp::Sort { attr: ra }, vec![scan]);

    let ctx = ExecContext::new(SharedCounters::new());
    // One page of memory forces external runs; the first spill write dies.
    let mut op =
        dqep::executor::compile_plan(&sort, &db, &cat, &Bindings::new(), 2048, &ctx).unwrap();
    db.disk.set_fault_plan(FaultPlan::parse("nth-write=1").unwrap());
    let result = drain(op.as_mut(), ExecMode::Tuple);
    db.disk.set_fault_plan(FaultPlan::none());
    assert!(
        matches!(result, Err(ExecError::Storage(_))),
        "got {result:?}"
    );
    // The failed query released its memory reservations on close.
    assert_eq!(ctx.governor.memory_used(), 0);
}

fn node(
    b: &mut PlanNodeBuilder,
    op: PhysicalOp,
    children: Vec<Arc<PlanNode>>,
) -> Arc<PlanNode> {
    b.node(
        op,
        children,
        PlanStats::new(Interval::point(0.0), 512.0),
        Cost::ZERO,
    )
}

/// A choose-plan whose memory-hungry alternative is refused its grant by
/// the governor falls back to the grant-free alternative — and produces
/// exactly the rows that alternative produces when run directly.
#[test]
fn memory_exhausted_alternative_falls_back_to_the_same_rows() {
    let (cat, db, _) = fixture();
    let rel = cat.relation_by_name("r").unwrap();
    let ra = rel.attr_id("a").unwrap();
    let (idx, _) = cat.index_on_attr(ra).unwrap();

    // Alternative 0: Sort(FileScan) — buffers rows, needs the grant.
    // Alternative 1: BtreeScan — streams in key order, no grant needed.
    let mut b = PlanNodeBuilder::new();
    let scan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, vec![]);
    let sorted = node(&mut b, PhysicalOp::Sort { attr: ra }, vec![scan]);
    let btree = node(
        &mut b,
        PhysicalOp::BtreeScan { relation: rel.id, index: idx, key_attr: ra },
        vec![],
    );
    let choose = node(&mut b, PhysicalOp::ChoosePlan, vec![sorted, btree.clone()]);

    let env = Environment::dynamic_compile_time(&cat.config);
    let bindings = Bindings::new();

    // Direct run of the fallback alternative, ungoverned.
    let ctx = ExecContext::new(SharedCounters::new());
    let mut direct = dqep::executor::compile_plan(&btree, &db, &cat, &bindings, 2048, &ctx).unwrap();
    let direct_rows = drain(direct.as_mut(), ExecMode::Tuple).unwrap();

    // Governed run: the sort alternative cannot reserve even one page.
    let limits = ResourceLimits {
        memory_bytes: Some(512),
        ..ResourceLimits::unlimited()
    };
    let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
    let mut op =
        compile_dynamic_plan(&choose, &db, &cat, &env, &bindings, 64 * 2048, &ctx).unwrap();
    let rows = drain(op.as_mut(), ExecMode::Tuple).unwrap();

    assert_eq!(rows, direct_rows, "fallback must deliver the fallback plan's rows");
    assert_eq!(rows.len(), 400);
    assert!(
        ctx.counters.fallbacks() >= 1,
        "memory-refused alternative must be recorded as a fallback"
    );
    assert_eq!(ctx.governor.memory_used(), 0, "failed attempt leaked its reservation");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under arbitrary fault plans, execution never panics: it either
    /// completes with the correct answer or returns a clean error.
    #[test]
    fn drain_never_panics_under_random_fault_plans(
        v in 0i64..400,
        prob in 0.0f64..0.3,
        seed in 0u64..1000,
        nth in 1u64..40,
    ) {
        let (cat, db, q) = fixture();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), v);
        let truth = expected_rows(&cat, &db, v);

        let mut fault = FaultPlan::probabilistic(prob, seed);
        fault.fail_nth_reads.push(nth);
        db.disk.set_fault_plan(fault);
        let ctx = ExecContext::default();
        let result = execute(&plan, &db, &cat, &env, &bindings, &ctx, Sink::Count);
        db.disk.set_fault_plan(FaultPlan::none());

        match result {
            Ok(exec) => prop_assert_eq!(exec.summary.rows, truth),
            Err(e) => prop_assert!(
                matches!(e, ExecError::Storage(_)),
                "only storage faults are injected, got {:?}", e
            ),
        }
    }
}
