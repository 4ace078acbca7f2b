//! Mid-query re-optimization parity: a re-optimizing execution must be
//! observationally equivalent to plain dynamic execution — the same
//! result tuples as a *multiset* — across random plans, bindings, DOPs,
//! both execution modes, injected storage faults, and tight memory
//! grants. Re-optimization may legitimately *survive* a hazard that
//! fails the plain path (that is the degradation ladder doing its job),
//! but it must never fail where the plain path succeeds, and it must be
//! deterministic: identical inputs reproduce the identical audit trail.

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    compile_dynamic_plan, drain, execute, ExecContext, ExecError, ExecMode, ReoptConfig,
    ReoptState, ResourceLimits, SharedCounters, Sink, Tuple,
};
use dqep::optimizer::Optimizer;
use dqep::storage::{FaultPlan, StoredDatabase, ValueDistribution};
use proptest::prelude::*;

/// Re-plan budget with the backoff sleep disabled: the machinery itself
/// is deterministic, the sleeps only cost wall-clock in tests.
fn quick() -> ReoptConfig {
    ReoptConfig {
        backoff_base_ms: 0,
        ..ReoptConfig::default()
    }
}

/// The same randomized 1–3 relation chain workload as the other parity
/// suites, generated over Zipf-skewed data so uniform compile-time
/// estimates drift and checkpoints actually escape.
#[derive(Debug, Clone)]
struct RandomWorkload {
    cards: Vec<u64>,
    domain_factors: Vec<f64>,
    selected: Vec<bool>,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..=3).prop_flat_map(|n| {
        (
            proptest::collection::vec(40u64..400, n),
            proptest::collection::vec(0.2f64..1.25, n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(cards, domain_factors, mut selected)| {
                if !selected.iter().any(|s| *s) {
                    selected[0] = true;
                }
                RandomWorkload {
                    cards,
                    domain_factors,
                    selected,
                }
            })
    })
}

fn build(w: &RandomWorkload) -> (Catalog, LogicalExpr, Vec<(HostVar, f64)>) {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for (i, (&card, &f)) in w.cards.iter().zip(&w.domain_factors).enumerate() {
        let name = format!("t{i}");
        let jdomain = (card as f64 * f).max(1.0).round();
        builder = builder.relation(&name, card, 512, |r| {
            r.attr("a", card as f64)
                .attr("j", jdomain)
                .btree("a", false)
                .btree("j", false)
        });
    }
    let catalog = builder.build().expect("valid random catalog");
    let rels: Vec<_> = catalog.relations().to_vec();
    let mut hosts = Vec::new();
    let leaf = |i: usize, hosts: &mut Vec<(HostVar, f64)>| {
        let mut e = LogicalExpr::get(rels[i].id);
        if w.selected[i] {
            let var = HostVar(i as u32);
            hosts.push((var, rels[i].attributes[0].domain_size));
            e = e.select(SelectPred::unbound(
                rels[i].attr_id("a").expect("attr"),
                CompareOp::Lt,
                var,
            ));
        }
        e
    };
    let mut q = leaf(0, &mut hosts);
    for i in 1..w.cards.len() {
        q = q.join(
            leaf(i, &mut hosts),
            vec![JoinPred::new(
                rels[i - 1].attr_id("j").expect("attr"),
                rels[i].attr_id("j").expect("attr"),
            )],
        );
    }
    (catalog, q, hosts)
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable();
    rows
}

/// Drains the plain dynamic plan — the baseline every re-optimizing run
/// is compared against. The memory grant mirrors the reopt driver's
/// (the environment's expected grant, absent an explicit binding).
#[allow(clippy::too_many_arguments)]
fn plain_rows(
    plan: &std::sync::Arc<dqep::plan::PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    limits: ResourceLimits,
    mode: ExecMode,
    dop: usize,
) -> Result<Vec<Tuple>, ExecError> {
    let memory = (env.memory.expected() * catalog.config.page_size as f64) as usize;
    let ctx = ExecContext::with_limits(SharedCounters::new(), limits)
        .with_mode(mode)
        .with_dop(dop);
    let mut op = compile_dynamic_plan(plan, db, catalog, env, bindings, memory, &ctx)?;
    drain(op.as_mut(), mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random optimized plans over skewed data, re-optimized under one of
    /// three hazards — none, injected page faults, or a tight memory
    /// grant — at DOP 1/2/4 in both modes: identical result multisets
    /// when both paths succeed, and re-optimization never failing where
    /// plain execution succeeds. (The converse is allowed: surviving a
    /// hazard via the degradation ladder is the feature under test.)
    #[test]
    fn reopt_matches_plain_execution(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        fault_lo in 0u32..40,
        fault_span in 0u32..4,
        mem_kb in 1u64..64,
        mode in prop_oneof![Just(ExecMode::Tuple), Just(ExecMode::Batch)],
        dop in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let (catalog, query, hosts) = build(&w);
        let db = StoredDatabase::generate_with(
            &catalog,
            seed,
            ValueDistribution::Zipf { exponent: 1.1 },
        );
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }
        let limits = ResourceLimits {
            memory_bytes: (hazard == 2).then_some(mem_kb * 1024),
            ..ResourceLimits::unlimited()
        };
        let fault = if hazard == 1 {
            FaultPlan::page_range(fault_lo, fault_lo + fault_span)
        } else {
            FaultPlan::none()
        };

        db.disk.set_fault_plan(fault.clone());
        let baseline = plain_rows(&plan, &db, &catalog, &env, &bindings, limits, mode, dop);
        db.disk.set_fault_plan(fault);
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits)
            .with_mode(mode)
            .with_dop(dop)
            .with_reopt(std::sync::Arc::new(ReoptState::new(quick())));
        let reopt = execute(&plan, &db, &catalog, &env, &bindings, &ctx, Sink::Collect);
        db.disk.set_fault_plan(FaultPlan::none());

        match (baseline, reopt) {
            (Ok(b), Ok(r)) => prop_assert_eq!(
                sorted(b),
                sorted(r.rows),
                "result multisets diverged ({:?} dop={} hazard={})", mode, dop, hazard
            ),
            (Err(_), Err(_)) => {} // hazard fatal to both — consistent
            (Err(_), Ok(_)) => {}  // graceful degradation survived the hazard
            (Ok(_), Err(e)) => prop_assert!(
                false,
                "re-optimization failed where plain execution succeeded \
                 ({:?} dop={} hazard={}): {:?}", mode, dop, hazard, e
            ),
        }
    }

    /// The machinery is deterministic: two runs over identical inputs
    /// reproduce the same result multiset *and* the same counter totals
    /// (checkpoints, escapes, re-plans), and release every governor
    /// reservation.
    #[test]
    fn reopt_is_deterministic_for_a_fixed_seed(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let (catalog, query, hosts) = build(&w);
        let db = StoredDatabase::generate_with(
            &catalog,
            seed,
            ValueDistribution::Zipf { exponent: 1.1 },
        );
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }

        let mut runs = Vec::new();
        for _ in 0..2 {
            let ctx = ExecContext::with_limits(SharedCounters::new(), ResourceLimits::unlimited())
                .with_mode(ExecMode::Tuple)
                .with_reopt(std::sync::Arc::new(ReoptState::new(quick())));
            let exec = execute(&plan, &db, &catalog, &env, &bindings, &ctx, Sink::Collect).unwrap();
            let counters = exec.reopt.map(|o| o.report.counters).unwrap_or_default();
            prop_assert_eq!(
                ctx.governor.memory_used(), 0,
                "leaked governor reservation after a re-optimizing run"
            );
            runs.push((sorted(exec.rows), counters));
        }
        prop_assert_eq!(&runs[0].0, &runs[1].0, "result multisets diverged across reruns");
        prop_assert_eq!(runs[0].1, runs[1].1, "reopt counters diverged across reruns");
    }
}
