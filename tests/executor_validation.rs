//! End-to-end validation: executed (simulated) behaviour agrees with the
//! optimizer's decisions and predictions.

use dqep::cost::{Bindings, Environment};
use dqep::executor::{compile_plan, execute, ExecContext, ExecSummary, SharedCounters, Sink};
use dqep::harness::{paper_query, BindingSampler};
use dqep::optimizer::Optimizer;
use dqep::plan::evaluate_startup;
use dqep::storage::StoredDatabase;

fn drain_rows(
    plan: &std::sync::Arc<dqep::plan::PlanNode>,
    db: &StoredDatabase,
    catalog: &dqep::catalog::Catalog,
    bindings: &Bindings,
) -> (u64, f64) {
    let ctx = ExecContext::new(SharedCounters::new());
    let before = db.disk.stats();
    let mut op = compile_plan(plan, db, catalog, bindings, 64 * 2048, &ctx).unwrap();
    op.open().unwrap();
    let mut rows = 0;
    while op.next().unwrap().is_some() {
        rows += 1;
    }
    op.close();
    let io = db.disk.stats().since(&before);
    let summary = ExecSummary {
        rows,
        cpu: ctx.counters.snapshot(),
        io,
        ..ExecSummary::default()
    };
    (rows, summary.simulated_seconds(&catalog.config))
}

/// All alternatives under the root choose-plan compute the same result set
/// size, and the start-up choice is (near-)optimal in executed simulated
/// time.
#[test]
fn startup_choice_is_execution_optimal_for_selection_query() {
    let w = paper_query(1, 42);
    let env = Environment::dynamic_compile_time(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
    assert!(plan.is_choose_plan());
    let db = StoredDatabase::generate(&w.catalog, 7);

    let mut sampler = BindingSampler::new(3, false);
    for b in sampler.sample_n(&w, 12) {
        let startup = evaluate_startup(&plan, &w.catalog, &env, &b);
        let mut rows_seen = Vec::new();
        let mut times = Vec::new();
        for alt in &plan.children {
            let (rows, secs) = drain_rows(alt, &db, &w.catalog, &b);
            rows_seen.push(rows);
            times.push(secs);
        }
        assert!(
            rows_seen.windows(2).all(|w| w[0] == w[1]),
            "alternatives disagree on results: {rows_seen:?}"
        );
        let chosen = startup.decisions[0].chosen_index;
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        // The cost model is a model; allow a modest factor of slack.
        assert!(
            times[chosen] <= best * 1.5 + 1e-6,
            "chose {chosen} at {:.4}s, best was {best:.4}s ({times:?})",
            times[chosen]
        );
    }
}

/// The dynamic plan's executed time is never much worse than the static
/// plan's on the same binding, and usually much better — the executed
/// counterpart of Figure 4.
#[test]
fn executed_dynamic_beats_executed_static_on_average() {
    let w = paper_query(2, 43);
    let static_env = Environment::static_compile_time(&w.catalog.config);
    let dynamic_env = Environment::dynamic_compile_time(&w.catalog.config);
    let static_plan = Optimizer::new(&w.catalog, &static_env)
        .optimize(&w.query)
        .unwrap()
        .plan;
    let dynamic_plan = Optimizer::new(&w.catalog, &dynamic_env)
        .optimize(&w.query)
        .unwrap()
        .plan;
    let db = StoredDatabase::generate(&w.catalog, 8);

    let mut sampler = BindingSampler::new(4, false);
    let (mut static_total, mut dynamic_total) = (0.0, 0.0);
    for b in sampler.sample_n(&w, 15) {
        let ctx = ExecContext::default();
        let st = execute(
            &static_plan,
            &db,
            &w.catalog,
            &static_env,
            &b,
            &ctx,
            Sink::Count,
        )
        .unwrap()
        .summary;
        let ctx = ExecContext::default();
        let dy = execute(
            &dynamic_plan,
            &db,
            &w.catalog,
            &dynamic_env,
            &b,
            &ctx,
            Sink::Count,
        )
        .unwrap()
        .summary;
        assert_eq!(st.rows, dy.rows, "plans must agree on results");
        static_total += st.simulated_seconds(&w.catalog.config);
        dynamic_total += dy.simulated_seconds(&w.catalog.config);
    }
    assert!(
        dynamic_total < static_total,
        "dynamic executed {dynamic_total:.2}s vs static {static_total:.2}s"
    );
}

/// Predicted and executed costs agree in *ranking* across bindings: when
/// the model says one binding is much more expensive than another, the
/// simulator agrees.
#[test]
fn predicted_and_executed_costs_correlate() {
    let w = paper_query(1, 44);
    let env = Environment::static_compile_time(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
    let db = StoredDatabase::generate(&w.catalog, 9);

    let attr = w.host_vars[0].1;
    let domain = w.catalog.attribute(attr).domain_size;
    let mut points = Vec::new();
    for sel in [0.02f64, 0.2, 0.5, 0.9] {
        let b = Bindings::new().with_value(w.host_vars[0].0, (sel * domain) as i64);
        let predicted = evaluate_startup(&plan, &w.catalog, &env, &b).predicted_run_seconds;
        let ctx = ExecContext::default();
        let summary = execute(&plan, &db, &w.catalog, &env, &b, &ctx, Sink::Count)
            .unwrap()
            .summary;
        points.push((predicted, summary.simulated_seconds(&w.catalog.config)));
    }
    for pair in points.windows(2) {
        assert!(
            pair[0].0 < pair[1].0 && pair[0].1 < pair[1].1,
            "both model and simulator must be monotone in selectivity: {points:?}"
        );
    }
    // Absolute agreement within a factor of two (same constants, modelled
    // formulas vs actual access patterns).
    for (predicted, executed) in &points {
        let ratio = executed / predicted;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "predicted {predicted:.4}s vs executed {executed:.4}s"
        );
    }
}

/// Executing a 4-way join produces the same row count through whichever
/// path the choose-plans select, across memory grants.
#[test]
fn join_results_invariant_across_memory_grants() {
    let w = paper_query(3, 45);
    let env = Environment::dynamic_uncertain_memory(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env).optimize(&w.query).unwrap().plan;
    let db = StoredDatabase::generate(&w.catalog, 10);

    let mut base = Bindings::new();
    for &(var, attr) in &w.host_vars {
        let domain = w.catalog.attribute(attr).domain_size;
        base = base.with_value(var, (0.4 * domain) as i64);
    }
    let mut rows_by_memory = Vec::new();
    for mem in [16.0f64, 64.0, 112.0] {
        let b = base.clone().with_memory(mem);
        let ctx = ExecContext::default();
        let summary = execute(&plan, &db, &w.catalog, &env, &b, &ctx, Sink::Count)
            .unwrap()
            .summary;
        rows_by_memory.push(summary.rows);
    }
    assert!(
        rows_by_memory.windows(2).all(|w| w[0] == w[1]),
        "row counts varied with memory: {rows_by_memory:?}"
    );
}
