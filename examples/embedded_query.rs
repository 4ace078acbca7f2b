//! An embedded query with host variables, invoked many times.
//!
//! The motivating workload for dynamic plans: an application program runs
//! the same two-way join repeatedly, each time with different host
//! variables. A static plan is optimal only for bindings near the
//! compile-time assumption (selectivity 0.05); a dynamic plan adapts every
//! invocation and — unlike re-optimizing each time — pays the optimizer
//! only once.
//!
//! Run with `cargo run --release --example embedded_query`.

use dqep::cost::Environment;
use dqep::executor::{execute, ExecContext, Sink};
use dqep::harness::{paper_query, BindingSampler};
use dqep::optimizer::Optimizer;
use dqep::storage::StoredDatabase;

fn main() {
    let n = 50;
    let workload = paper_query(2, 7); // 2-way join, 2 unbound predicates
    let catalog = &workload.catalog;
    let db = StoredDatabase::generate(catalog, 99);
    let mut sampler = BindingSampler::new(3, false);
    let bindings = sampler.sample_n(&workload, n);

    let static_env = Environment::static_compile_time(&catalog.config);
    let dynamic_env = Environment::dynamic_compile_time(&catalog.config);
    let static_plan = Optimizer::new(catalog, &static_env)
        .optimize(&workload.query)
        .expect("optimize")
        .plan;
    let dynamic_plan = Optimizer::new(catalog, &dynamic_env)
        .optimize(&workload.query)
        .expect("optimize")
        .plan;

    println!("{n} invocations of a 2-way join with host variables\n");
    println!(
        "{:>4}  {:>12}  {:>12}  {:>8}",
        "inv", "static [s]", "dynamic [s]", "saving"
    );
    let (mut total_static, mut total_dynamic) = (0.0, 0.0);
    for (i, b) in bindings.iter().enumerate() {
        let ctx = ExecContext::default();
        let st = execute(
            &static_plan,
            &db,
            catalog,
            &static_env,
            b,
            &ctx,
            Sink::Count,
        )
        .expect("exec")
        .summary;
        let ctx = ExecContext::default();
        let dy = execute(
            &dynamic_plan,
            &db,
            catalog,
            &dynamic_env,
            b,
            &ctx,
            Sink::Count,
        )
        .expect("exec")
        .summary;
        let st_s = st.simulated_seconds(&catalog.config);
        let dy_s = dy.simulated_seconds(&catalog.config);
        assert_eq!(st.rows, dy.rows, "both plans compute the same result");
        total_static += st_s;
        total_dynamic += dy_s;
        if i < 8 {
            println!("{:>4}  {:>12.4}  {:>12.4}  {:>7.1}x", i, st_s, dy_s, st_s / dy_s);
        }
    }
    println!(" ...");
    println!(
        "\ntotals over {n} invocations: static {total_static:.2}s, dynamic \
         {total_dynamic:.2}s ({:.1}x improvement, simulated time)",
        total_static / total_dynamic
    );
}
