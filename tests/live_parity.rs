//! Live-view parity: an incrementally maintained view must equal a full
//! re-run of its query after **every** commit — across random chain
//! queries, random interleaved insert/delete streams, DOP 1/2/4, injected
//! storage write faults (which cut a commit to its applied prefix), and
//! tight memory grants (which refuse delta-state growth). A commit may
//! legitimately fail under a hazard, but it must never leave the view
//! silently diverged from the stored data it claims to mirror.
//!
//! A deterministic companion test drives enough drift to force a
//! choose-plan re-arbitration that *switches* the winning alternative and
//! checks parity holds straight through the rebuild.

use std::sync::Arc;

use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::Environment;
use dqep::executor::{compile_plan, drain, ExecContext, ExecMode, ResourceLimits, SharedCounters};
use dqep::optimizer::Optimizer;
use dqep::plan::evaluate_startup;
use dqep::service::{
    LiveConfig, LiveViewRegistry, MetricsRegistry, ServiceError, WriteOp,
};
use dqep::sql::parse_query;
use dqep::storage::{FaultPlan, StoredDatabase};
use proptest::prelude::*;

/// A randomized 1–2 relation chain workload: per-relation cardinalities,
/// a filter bound as a fraction of the domain, and a stream of commits.
#[derive(Debug, Clone)]
struct RandomWorkload {
    cards: Vec<u64>,
    sel: f64,
    /// Commits; each op is `(relation index, insert?, a, j)`.
    commits: Vec<Vec<(usize, bool, i64, i64)>>,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..=2).prop_flat_map(|n| {
        (
            proptest::collection::vec(40u64..250, n),
            0.1f64..=1.0,
            proptest::collection::vec(
                proptest::collection::vec(
                    (0..n, any::<bool>(), 0i64..250, 0i64..40),
                    1..6,
                ),
                1..4,
            ),
        )
            .prop_map(|(cards, sel, commits)| RandomWorkload { cards, sel, commits })
    })
}

/// Builds the catalog and the canonical SQL for the chain: every relation
/// carries a filter column `a` (indexed, so the optimizer has an index
/// scan vs. file scan choice to arbitrate) and a join column `j`.
fn build(w: &RandomWorkload) -> (Catalog, String) {
    let mut builder = CatalogBuilder::new(SystemConfig::paper_1994());
    for (i, &card) in w.cards.iter().enumerate() {
        let name = format!("t{i}");
        builder = builder.relation(&name, card, 512, |r| {
            r.attr("a", card as f64).attr("j", 40.0).btree("a", false)
        });
    }
    let catalog = builder.build().expect("valid random catalog");
    let sql = if w.cards.len() == 1 {
        "SELECT * FROM t0 WHERE t0.a < :v0".to_string()
    } else {
        "SELECT * FROM t0, t1 WHERE t0.j = t1.j AND t0.a < :v0".to_string()
    };
    (catalog, sql)
}

/// Ground truth: arbitrate and execute `sql` fresh over the registry's
/// *current* stored data, sorted for multiset comparison.
fn full_rerun(reg: &LiveViewRegistry, sql: &str, binds: &[(&str, i64)]) -> Vec<Vec<i64>> {
    let cat = reg.catalog();
    let env = Environment::dynamic_compile_time(&cat.config);
    let query = parse_query(sql, cat).expect("canonical sql parses");
    let plan = Optimizer::new(cat, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .expect("plan optimizes")
        .plan;
    let bindings = query.bindings(binds).expect("bindings resolve");
    let startup = evaluate_startup(&plan, cat, &env, &bindings);
    let ctx = ExecContext::new(SharedCounters::new());
    let mut op = compile_plan(&startup.resolved, reg.database(), cat, &bindings, 1 << 22, &ctx)
        .expect("ground truth compiles");
    let mut rows = drain(op.as_mut(), ExecMode::Tuple).expect("ground truth executes");
    rows.sort_unstable();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random chain views under random write streams, at DOP 1/2/4 in
    /// both execution modes, under one of three hazards — none, an
    /// injected storage write fault, or a tight memory grant. After every
    /// commit that returns (even one cut short by a fault), the snapshot
    /// must equal a full re-run over the stored data. A commit refused
    /// outright by the governor (memory hazard) is allowed to fail — but
    /// only with a retryable error, and it ends the sequence rather than
    /// excusing divergence.
    #[test]
    fn live_view_matches_full_rerun_after_every_commit(
        w in workload_strategy(),
        seed in 0u64..1000,
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        fault_nth in 1u64..6,
        mem_kb in 24u64..96,
        mode in prop_oneof![Just(ExecMode::Tuple), Just(ExecMode::Batch)],
        dop in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let (catalog, sql) = build(&w);
        let db = StoredDatabase::generate(&catalog, seed);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let bound = (w.sel * w.cards[0] as f64) as i64;
        let binds = [("v0", bound)];
        let config = LiveConfig {
            limits: ResourceLimits {
                memory_bytes: (hazard == 2).then_some(mem_kb * 1024),
                ..ResourceLimits::unlimited()
            },
            mode,
            dop,
            ..LiveConfig::default()
        };
        let mut reg = LiveViewRegistry::new(
            catalog, db, env, config, Arc::new(MetricsRegistry::new()),
        );
        match reg.register("v", &sql, &binds) {
            Ok(()) => {}
            Err(ServiceError::Exec(e)) if hazard == 2 && e.is_retryable() => {
                // The grant was too small to even seed the view: a clean
                // refusal, nothing registered, nothing to diverge.
                prop_assert!(reg.views().is_empty());
                return;
            }
            Err(e) => prop_assert!(false, "registration failed without a hazard: {e}"),
        }
        prop_assert_eq!(
            reg.snapshot("v").expect("registered"),
            full_rerun(&reg, &sql, &binds),
            "materialization diverged"
        );

        if hazard == 1 {
            reg.database_mut().disk.set_fault_plan(FaultPlan {
                fail_nth_writes: vec![fault_nth],
                ..FaultPlan::none()
            });
        }

        let rels: Vec<_> = reg.catalog().relations().iter().map(|r| r.id).collect();
        for commit in &w.commits {
            let ops: Vec<WriteOp> = commit
                .iter()
                .map(|&(ri, ins, a, j)| {
                    let relation = rels[ri.min(rels.len() - 1)];
                    let values = vec![a, j];
                    if ins {
                        WriteOp::Insert { relation, values }
                    } else {
                        WriteOp::Delete { relation, values }
                    }
                })
                .collect();
            match reg.commit(&ops) {
                Ok(outcome) => {
                    prop_assert!(outcome.applied <= outcome.attempted);
                    prop_assert_eq!(
                        outcome.storage_error.is_some(),
                        outcome.applied < outcome.attempted,
                        "a short commit must carry its storage error"
                    );
                }
                Err(ServiceError::Exec(e)) if hazard == 2 && e.is_retryable() => {
                    // The governor refused delta-state growth mid-commit.
                    // The write prefix is durable and the view may lag it;
                    // the registry reports the failure instead of serving
                    // a silently wrong snapshot, so the sequence ends.
                    return;
                }
                Err(e) => prop_assert!(false, "commit failed without a hazard: {e}"),
            }
            prop_assert_eq!(
                reg.snapshot("v").expect("registered"),
                full_rerun(&reg, &sql, &binds),
                "snapshot diverged from full re-run after a commit"
            );
        }
    }
}

/// Enough one-sided growth (600 skewed inserts against a 1000-row base)
/// pushes the observed view cardinality out of the bind-time interval
/// even after tolerance widening: the drift check must re-fire start-up
/// arbitration, the refreshed statistics must *switch* the winning
/// choose-plan alternative, and the rebuilt view must still equal a full
/// re-run. A subsequent small commit must not re-fire.
#[test]
fn drift_rearbitration_switches_winner_and_keeps_parity() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 1000, 512, |r| r.attr("a", 1000.0).attr("j", 64.0).btree("a", false))
        .build()
        .expect("catalog");
    let db = StoredDatabase::generate(&catalog, 13);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let sql = "SELECT * FROM r WHERE r.a < :v";
    let binds = [("v", 10)];
    let metrics = Arc::new(MetricsRegistry::new());
    let mut reg = LiveViewRegistry::new(
        catalog,
        db,
        env,
        LiveConfig::default(),
        Arc::clone(&metrics),
    );
    reg.register("hot", sql, &binds).expect("registers");
    let before = reg.views()[0].decisions.clone();

    // Every insert lands under the filter bound: the view grows far past
    // its bind-time estimate while the relation grows modestly.
    let r = reg.catalog().relation_by_name("r").expect("relation").id;
    let mut rearbitrations = 0;
    let mut switches = 0;
    for chunk in 0..20 {
        let ops: Vec<WriteOp> = (0..30)
            .map(|i| WriteOp::Insert { relation: r, values: vec![(chunk * 30 + i) % 9, i % 64] })
            .collect();
        let outcome = reg.commit(&ops).expect("commit succeeds");
        rearbitrations += outcome.rearbitrations;
        switches += outcome.plan_switches;
        assert_eq!(
            reg.snapshot("hot").expect("registered"),
            full_rerun(&reg, sql, &binds),
            "parity must hold through drift rebuilds (chunk {chunk})"
        );
    }
    assert!(rearbitrations > 0, "600 in-filter inserts must escape the drift band");
    assert!(switches > 0, "refreshed statistics must switch the winning alternative");
    let after = reg.views()[0].decisions.clone();
    assert_ne!(before, after, "the recorded choose-plan decisions must change");
    assert_eq!(metrics.live_rearbitrations(), rearbitrations);

    // Stable tail: a small commit against the re-priced interval.
    let outcome = reg
        .commit(&[WriteOp::Insert { relation: r, values: vec![500, 1] }])
        .expect("commit succeeds");
    assert_eq!(outcome.rearbitrations, 0, "a stable workload must stay incremental");
}

/// A memory grant too small to seed the retained join state: every
/// registration attempt is refused by the governor, the error is
/// retryable (the degradation ladder's signal), no view is registered,
/// and the registry stays fully usable — a later commit still succeeds
/// against the write path. (A filter-only view retains nothing; the join
/// is what has state to refuse.)
#[test]
fn memory_refusal_leaves_registry_consistent() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 2000, 512, |r| r.attr("a", 2000.0).attr("j", 64.0).btree("a", false))
        .relation("s", 1000, 512, |r| r.attr("j", 64.0).attr("k", 16.0).btree("j", false))
        .build()
        .expect("catalog");
    let db = StoredDatabase::generate(&catalog, 5);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let mut reg = LiveViewRegistry::new(
        catalog,
        db,
        env,
        LiveConfig {
            limits: ResourceLimits { memory_bytes: Some(2048), ..ResourceLimits::unlimited() },
            ..LiveConfig::default()
        },
        Arc::new(MetricsRegistry::new()),
    );
    let err = reg
        .register("big", "SELECT * FROM r, s WHERE r.j = s.j", &[])
        .expect_err("a 2 KiB grant cannot hold 3000 rows of retained join state");
    match err {
        ServiceError::Exec(e) => assert!(e.is_retryable(), "memory refusal is retryable: {e:?}"),
        other => panic!("expected an executor memory refusal, got {other}"),
    }
    assert!(reg.views().is_empty(), "a refused registration must not leave a view behind");

    let r = reg.catalog().relation_by_name("r").expect("relation").id;
    let outcome = reg
        .commit(&[WriteOp::Insert { relation: r, values: vec![1, 2] }])
        .expect("the write path outlives the refusal");
    assert_eq!(outcome.applied, 1);
}
