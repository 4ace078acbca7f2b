//! Run-time adaptive execution (the paper's Section 7 direction).
//!
//! On Zipf-skewed data the uniform selectivity model misleads even the
//! start-up-time decision: the binding is known, but the fraction of rows
//! it selects is not. This example compares three strategies on the same
//! skewed join:
//!
//! 1. **blind** — the ordinary start-up decision with uniform estimates;
//! 2. **histograms** — equi-width statistics repair the estimate;
//! 3. **adaptive** — a pilot execution of the uncertain subplan observes
//!    its true cardinality before deciding ("when a subplan has been
//!    evaluated into a temporary result, its logical and physical
//!    properties are known").
//!
//! Run with `cargo run --release --example adaptive_execution`.

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep::catalog::{CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{execute, execute_adaptive, ExecContext, Sink};
use dqep::optimizer::Optimizer;
use dqep::plan::evaluate_startup;
use dqep::storage::{install_histograms, StoredDatabase, ValueDistribution};

fn main() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("events", 800, 512, |r| {
            r.attr("kind", 800.0).attr("user", 200.0).btree("kind", false).btree("user", false)
        })
        .relation("users", 400, 512, |r| r.attr("id", 200.0).btree("id", false))
        .build()
        .expect("catalog");
    // Event kinds are Zipf-distributed: a few kinds dominate.
    let db = StoredDatabase::generate_with(&catalog, 9, ValueDistribution::Zipf { exponent: 1.1 });

    let events = catalog.relation_by_name("events").expect("events");
    let users = catalog.relation_by_name("users").expect("users");
    let query = LogicalExpr::get(events.id)
        .select(SelectPred::unbound(
            events.attr_id("kind").expect("attr"),
            CompareOp::Lt,
            HostVar(0),
        ))
        .join(
            LogicalExpr::get(users.id),
            vec![JoinPred::new(
                events.attr_id("user").expect("attr"),
                users.attr_id("id").expect("attr"),
            )],
        );

    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&query).expect("optimize").plan;

    // :kind < 25 — the uniform model estimates ~3% of events; with Zipf
    // skew the true fraction is the majority.
    let bindings = Bindings::new().with_value(HostVar(0), 25);
    let cfg = &catalog.config;

    let blind_startup = evaluate_startup(&plan, &catalog, &env, &bindings);
    let ctx = ExecContext::default();
    let blind = execute(&plan, &db, &catalog, &env, &bindings, &ctx, Sink::Count)
        .expect("execute")
        .summary;
    println!(
        "blind      : {:8} rows  {:.4}s  (root: {})",
        blind.rows,
        blind.simulated_seconds(cfg),
        blind_startup.resolved.op.name()
    );

    let mut hist_catalog = catalog.clone();
    install_histograms(&db, &mut hist_catalog, 32).expect("histograms");
    let hist_plan = Optimizer::new(&hist_catalog, &env)
        .optimize(&query)
        .expect("optimize")
        .plan;
    let hist_startup = evaluate_startup(&hist_plan, &hist_catalog, &env, &bindings);
    let ctx = ExecContext::default();
    let hist = execute(
        &hist_plan,
        &db,
        &hist_catalog,
        &env,
        &bindings,
        &ctx,
        Sink::Count,
    )
    .expect("execute")
    .summary;
    println!(
        "histograms : {:8} rows  {:.4}s  (root: {})",
        hist.rows,
        hist.simulated_seconds(cfg),
        hist_startup.resolved.op.name()
    );

    let adaptive = execute_adaptive(&plan, &db, &catalog, &env, &bindings).expect("execute");
    println!(
        "adaptive   : {:8} rows  {:.4}s main + {:.4}s pilot (observed {} rows; root: {})",
        adaptive.main.rows,
        adaptive.main.simulated_seconds(cfg),
        adaptive
            .pilot
            .map(|p| p.simulated_seconds(cfg))
            .unwrap_or(0.0),
        adaptive.observed_rows.unwrap_or(0),
        adaptive.startup.resolved.op.name()
    );

    assert_eq!(blind.rows, hist.rows);
    assert_eq!(blind.rows, adaptive.main.rows);
}
