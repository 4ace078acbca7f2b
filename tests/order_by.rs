//! ORDER BY end to end: interesting orders through the whole stack.
//!
//! Sort order is the physical property System R's "interesting orders"
//! generalized and the Volcano optimizer generator carries per
//! optimization goal. These tests drive it from the SQL front end through
//! `optimize_with_props` to executed, sorted output — covering
//! order-delivering access paths (B-tree scans), Sort enforcers, and the
//! choose-plan alternatives that arise among them under interval costs.

use dqep::algebra::SortOrder;
use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::cost::Environment;
use dqep::executor::{execute, ExecContext, Sink};
use dqep::optimizer::Optimizer;
use dqep::sql::parse_query;
use dqep::storage::StoredDatabase;

fn fixture() -> dqep::catalog::Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 500, 512, |r| {
            r.attr("a", 500.0).attr("j", 100.0).btree("a", false).btree("j", false)
        })
        .relation("s", 300, 512, |r| r.attr("j", 100.0).btree("j", false))
        .build()
        .unwrap()
}

#[test]
fn ordered_plans_deliver_the_order() {
    let cat = fixture();
    let q = parse_query("SELECT * FROM r WHERE r.a < :x ORDER BY r.a", &cat).unwrap();
    let attr = q.order_by.unwrap();
    let env = Environment::dynamic_compile_time(&cat.config);
    let result = Optimizer::new(&cat, &env)
        .optimize_with_props(&q.expr, q.required_props())
        .unwrap();
    assert_eq!(
        result.plan.order,
        SortOrder::Asc(attr),
        "the plan must guarantee the requested order"
    );
    result.plan.check_invariants().unwrap();
}

#[test]
fn ordered_execution_is_sorted_for_all_bindings() {
    let cat = fixture();
    let q = parse_query("SELECT * FROM r WHERE r.a < :x ORDER BY r.a", &cat).unwrap();
    let env = Environment::dynamic_compile_time(&cat.config);
    let plan = Optimizer::new(&cat, &env)
        .optimize_with_props(&q.expr, q.required_props())
        .unwrap()
        .plan;
    let db = StoredDatabase::generate(&cat, 31);
    for x in [10i64, 120, 480] {
        let bindings = q.bindings(&[("x", x)]).unwrap();
        let startup = dqep::plan::evaluate_startup(&plan, &cat, &env, &bindings);
        assert_eq!(startup.resolved.order, SortOrder::Asc(q.order_by.unwrap()));

        // Execute and verify the stream really is sorted on `a`.
        let ctx = dqep::executor::ExecContext::new(dqep::executor::SharedCounters::new());
        let mut op = dqep::executor::compile_plan(
            &startup.resolved,
            &db,
            &cat,
            &bindings,
            64 * 2048,
            &ctx,
        )
        .unwrap();
        op.open().unwrap();
        let mut values = Vec::new();
        while let Some(t) = op.next().unwrap() {
            values.push(t[0]);
        }
        op.close();
        assert!(values.windows(2).all(|w| w[0] <= w[1]), ":x={x}");
        // Same rows as the unordered plan.
        let unordered = Optimizer::new(&cat, &env).optimize(&q.expr).unwrap().plan;
        let ctx = ExecContext::default();
        let summary = execute(&unordered, &db, &cat, &env, &bindings, &ctx, Sink::Count)
            .unwrap()
            .summary;
        assert_eq!(values.len() as u64, summary.rows);
    }
}

#[test]
fn ordered_join_works() {
    let cat = fixture();
    let q = parse_query(
        "SELECT * FROM r, s WHERE r.j = s.j AND r.a < :x ORDER BY r.j",
        &cat,
    )
    .unwrap();
    let env = Environment::dynamic_compile_time(&cat.config);
    let plan = Optimizer::new(&cat, &env)
        .optimize_with_props(&q.expr, q.required_props())
        .unwrap()
        .plan;
    assert_eq!(plan.order, SortOrder::Asc(q.order_by.unwrap()));

    let db = StoredDatabase::generate(&cat, 32);
    let bindings = q.bindings(&[("x", 200)]).unwrap();
    let startup = dqep::plan::evaluate_startup(&plan, &cat, &env, &bindings);
    let ctx = dqep::executor::ExecContext::new(dqep::executor::SharedCounters::new());
    let mut op = dqep::executor::compile_plan(
        &startup.resolved,
        &db,
        &cat,
        &bindings,
        64 * 2048,
        &ctx,
    )
    .unwrap();
    op.open().unwrap();
    let key = op
        .layout()
        .position(q.order_by.unwrap())
        .expect("order attribute in output");
    let mut keys = Vec::new();
    while let Some(t) = op.next().unwrap() {
        keys.push(t[key]);
    }
    op.close();
    assert!(!keys.is_empty());
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn static_mode_ordered_plans_too() {
    let cat = fixture();
    let q = parse_query("SELECT * FROM r ORDER BY r.a", &cat).unwrap();
    let env = Environment::static_compile_time(&cat.config);
    let plan = Optimizer::new(&cat, &env)
        .optimize_with_props(&q.expr, q.required_props())
        .unwrap()
        .plan;
    assert!(!plan.is_dynamic());
    assert_eq!(plan.order, SortOrder::Asc(q.order_by.unwrap()));
}
