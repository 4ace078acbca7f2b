//! Batch/tuple execution parity: the vectorized pipeline must be
//! observationally identical to the Volcano `next()` pipeline.
//!
//! "Identical" is strict: same result tuples in the same order, same
//! CPU counter totals (records, compares, hashes — so
//! `ExecSummary::simulated_seconds` agrees between modes), same
//! accounted I/O (so deterministic fault-plan ordinals trip at the same
//! reads), and the same number of choose-plan fallbacks under injected
//! storage faults and refused memory grants. When a run fails, both
//! modes must fail with the same kind of error.

use std::sync::Arc;

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Cost, Environment, PlanStats};
use dqep::executor::{
    compile_dynamic_plan, drain, execute, ExecContext, ExecError, ExecMode, ExecSummary,
    ResourceLimits, SharedCounters, Sink,
};
use dqep::interval::Interval;
use dqep::optimizer::Optimizer;
use dqep::plan::{PlanNode, PlanNodeBuilder};
use dqep::storage::{FaultPlan, StoredDatabase};
use proptest::prelude::*;

/// Executes `plan` end to end under `limits` in `mode`.
fn run_mode(
    plan: &Arc<PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    limits: ResourceLimits,
    mode: ExecMode,
) -> Result<ExecSummary, ExecError> {
    let ctx = ExecContext::with_limits(SharedCounters::new(), limits).with_mode(mode);
    execute(plan, db, catalog, env, bindings, &ctx, Sink::Count).map(|exec| exec.summary)
}

/// Coarse error class: variant (and resource kind) only. Exact payloads
/// may legitimately differ — e.g. a refused memory reservation reports
/// the *requested* bytes, and the batch path reserves a batch at a time.
fn classify(e: &ExecError) -> String {
    match e {
        ExecError::Storage(_) => "storage".into(),
        ExecError::ResourceExhausted(r) => {
            let kind = match r {
                dqep::executor::Resource::Memory { .. } => "memory",
                dqep::executor::Resource::Rows { .. } => "rows",
                dqep::executor::Resource::Io { .. } => "io",
                dqep::executor::Resource::WallClock { .. } => "wall-clock",
            };
            format!("resource:{kind}")
        }
        other => format!("{other:?}"),
    }
}

/// Asserts two `ExecSummary`s agree on everything parity promises.
fn assert_summaries_equal(t: &ExecSummary, b: &ExecSummary) {
    assert_eq!(t.rows, b.rows, "result row counts diverged");
    assert_eq!(t.fallbacks, b.fallbacks, "fallback counts diverged");
    assert_eq!(t.cpu, b.cpu, "CPU counter totals diverged");
    assert_eq!(t.io, b.io, "accounted I/O diverged");
}

/// A randomized 1–3 relation chain workload (mirrors `proptests.rs`,
/// with smaller cardinalities since every case also generates and
/// executes against stored data).
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

fn node(b: &mut PlanNodeBuilder, op: PhysicalOp, children: Vec<Arc<PlanNode>>) -> Arc<PlanNode> {
    b.node(
        op,
        children,
        PlanStats::new(Interval::point(0.0), 512.0),
        Cost::ZERO,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random optimized plans over random data, executed in both modes
    /// under one of three hazards — none, injected storage faults, or a
    /// tight memory limit: identical summaries when both succeed, same
    /// error class when both fail, never success in one mode and failure
    /// in the other. After a *memory-refusal* fallback the abandoned
    /// attempt's partial work may differ by up to a batch (batch
    /// production is eager), so counters are only compared bit-for-bit
    /// when no fallback was taken; under storage faults the scan's
    /// deferred-error delivery makes even fallback runs exact.
    #[test]
    fn random_plans_execute_identically_in_both_modes(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        prob in 0.0f64..0.05,
        nth in 1u64..60,
        mem_kb in 1u64..64,
    ) {
        let (catalog, query, hosts) = build(&w);
        let db = StoredDatabase::generate(&catalog, seed);
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
            let mut f = FaultPlan::probabilistic(prob, seed);
            f.fail_nth_reads.push(nth);
            f
        } else {
            FaultPlan::none()
        };

        // `set_fault_plan` resets the fault ordinals, so each mode sees
        // the exact same fault sequence.
        db.disk.set_fault_plan(fault.clone());
        let tuple = run_mode(&plan, &db, &catalog, &env, &bindings, limits, ExecMode::Tuple);
        db.disk.set_fault_plan(fault);
        let batch = run_mode(&plan, &db, &catalog, &env, &bindings, limits, ExecMode::Batch);
        db.disk.set_fault_plan(FaultPlan::none());

        match (tuple, batch) {
            (Ok(t), Ok(b)) => {
                prop_assert_eq!(t.rows, b.rows, "result row counts diverged");
                prop_assert_eq!(t.fallbacks, b.fallbacks, "fallback counts diverged");
                if hazard != 2 || t.fallbacks == 0 {
                    assert_summaries_equal(&t, &b);
                }
            }
            (Err(te), Err(be)) => prop_assert_eq!(
                classify(&te), classify(&be),
                "error classes diverged: tuple={:?} batch={:?}", te, be
            ),
            (t, b) => prop_assert!(
                false,
                "one mode succeeded while the other failed: tuple={:?} batch={:?}",
                t.map(|s| s.rows), b.map(|s| s.rows)
            ),
        }
    }

    /// `drain` in tuple and in batch mode over the same compiled plan return the
    /// *same tuples in the same order*, not just the same count.
    #[test]
    fn drained_tuples_are_identical(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let (catalog, query, hosts) = build(&w);
        let db = StoredDatabase::generate(&catalog, seed);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let plan = Optimizer::new(&catalog, &env).optimize(&query).unwrap().plan;
        let mut bindings = Bindings::new();
        for &(var, domain) in &hosts {
            bindings = bindings.with_value(var, (sel * domain) as i64);
        }
        let memory = 64 * 2048;

        let ctx = ExecContext::new(SharedCounters::new()).with_mode(ExecMode::Tuple);
        let mut op = compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, memory, &ctx).unwrap();
        let tuple_rows = drain(op.as_mut(), ExecMode::Tuple).unwrap();

        let ctx = ExecContext::new(SharedCounters::new()).with_mode(ExecMode::Batch);
        let mut op = compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, memory, &ctx).unwrap();
        let batch_rows = drain(op.as_mut(), ExecMode::Batch).unwrap();

        prop_assert_eq!(tuple_rows, batch_rows);
    }
}

/// A choose-plan whose preferred alternative is refused its memory grant
/// falls back identically in both modes: same rows, one recorded
/// fallback each, no leaked reservations.
#[test]
fn memory_refusal_fallback_is_mode_independent() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 400, 512, |r| r.attr("a", 400.0).btree("a", false))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 7);
    let rel = catalog.relation_by_name("r").unwrap();
    let ra = rel.attr_id("a").unwrap();
    let (idx, _) = catalog.index_on_attr(ra).unwrap();

    // Alternative 0: Sort(FileScan) — needs a grant the governor refuses.
    // Alternative 1: BtreeScan — streams in key order, grant-free.
    let mut b = PlanNodeBuilder::new();
    let scan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, vec![]);
    let sorted = node(&mut b, PhysicalOp::Sort { attr: ra }, vec![scan]);
    let btree = node(
        &mut b,
        PhysicalOp::BtreeScan { relation: rel.id, index: idx, key_attr: ra },
        vec![],
    );
    let choose = node(&mut b, PhysicalOp::ChoosePlan, vec![sorted, btree]);

    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = Bindings::new();
    let limits = ResourceLimits {
        memory_bytes: Some(512),
        ..ResourceLimits::unlimited()
    };

    let mut results = Vec::new();
    for mode in [ExecMode::Tuple, ExecMode::Batch] {
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits).with_mode(mode);
        let mut op =
            compile_dynamic_plan(&choose, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
        let rows = drain(op.as_mut(), mode).unwrap();
        assert_eq!(ctx.counters.fallbacks(), 1, "{mode:?}: expected one fallback");
        assert_eq!(ctx.governor.memory_used(), 0, "{mode:?}: leaked reservation");
        results.push((rows, ctx.counters.snapshot()));
    }
    assert_eq!(results[0], results[1], "modes diverged after fallback");
    assert_eq!(results[0].0.len(), 400);
}

/// Columnar selection-vector semantics on [`RowBatch`] itself: an
/// absent selection, a fully-selected vector, and a sparse vector must
/// agree on live-row accessors, and the physical columns must stay
/// untouched underneath.
#[test]
fn selection_vector_dense_sparse_and_empty_semantics() {
    let rows: Vec<Vec<i64>> = (0..8).map(|i| vec![i, 10 * i]).collect();
    let mut dense = dqep::executor::RowBatch::with_capacity(2, rows.len());
    for row in &rows {
        dense.push_row(row);
    }

    // No selection: every physical row is live.
    assert_eq!(dense.rows(), 8);
    assert_eq!(dense.len(), 8);
    assert_eq!(dense.to_tuples(), rows);
    assert_eq!(dense.selected_indices().collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());

    // Fully-selected vector: identical live view, selection now present.
    let mut full = dense.clone();
    full.set_selection((0..8).collect());
    assert_eq!(full.len(), 8);
    assert_eq!(full.to_tuples(), dense.to_tuples());
    assert!(full.selection().is_some());

    // Sparse vector: live accessors shrink, physical accessors do not.
    let mut sparse = dense.clone();
    sparse.set_selection(vec![1, 4, 6]);
    assert_eq!(sparse.rows(), 8, "selection must not drop physical rows");
    assert_eq!(sparse.len(), 3);
    assert_eq!(sparse.to_tuples(), vec![rows[1].clone(), rows[4].clone(), rows[6].clone()]);
    assert_eq!(sparse.selected_indices().collect::<Vec<_>>(), vec![1, 4, 6]);
    assert_eq!(sparse.column(0), dense.column(0), "columns are physical");
    assert_eq!(sparse.row_vec(4), rows[4], "row_vec indexes physical rows");

    // Empty vector: no live rows, still width-2 and 8 physical rows.
    let mut empty = dense.clone();
    empty.set_selection(Vec::new());
    assert!(empty.is_empty());
    assert_eq!(empty.rows(), 8);
    assert!(empty.to_tuples().is_empty());
    assert_eq!(empty.width(), 2);
}

/// Filter selectivities that produce empty, sparse, and fully-selected
/// batches feeding a hash-join probe: the selection-aware batch kernels
/// must agree with the tuple path on tuples *and* counters at each
/// density.
#[test]
fn filtered_probe_batches_join_identically_at_every_density() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("dim", 60, 512, |r| r.attr("k", 60.0).attr("v", 40.0))
        .relation("fact", 300, 512, |r| r.attr("fk", 60.0).attr("m", 300.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 13);
    let dim = catalog.relation_by_name("dim").unwrap();
    let fact = catalog.relation_by_name("fact").unwrap();
    let fm = fact.attr_id("m").unwrap();

    // m < 0 -> every probe batch carries an empty selection; m < 20 ->
    // sparse selections; m < 1000 -> fully selected batches.
    for cutoff in [0i64, 20, 1000] {
        let mut b = PlanNodeBuilder::new();
        let build = node(&mut b, PhysicalOp::FileScan { relation: dim.id }, vec![]);
        let probe_scan = node(&mut b, PhysicalOp::FileScan { relation: fact.id }, vec![]);
        let probe = node(
            &mut b,
            PhysicalOp::Filter { predicate: SelectPred::bound(fm, CompareOp::Lt, cutoff) },
            vec![probe_scan],
        );
        let join = node(
            &mut b,
            PhysicalOp::HashJoin {
                predicates: vec![JoinPred::new(
                    dim.attr_id("k").unwrap(),
                    fact.attr_id("fk").unwrap(),
                )],
            },
            vec![build, probe],
        );
        let env = Environment::dynamic_compile_time(&catalog.config);
        let bindings = Bindings::new();

        let ctx = ExecContext::new(SharedCounters::new()).with_mode(ExecMode::Tuple);
        let mut op =
            compile_dynamic_plan(&join, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
        let tuple_rows = drain(op.as_mut(), ExecMode::Tuple).unwrap();
        let tuple_counters = ctx.counters.snapshot();

        let ctx = ExecContext::new(SharedCounters::new()).with_mode(ExecMode::Batch);
        let mut op =
            compile_dynamic_plan(&join, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
        let batch_rows = drain(op.as_mut(), ExecMode::Batch).unwrap();
        let batch_counters = ctx.counters.snapshot();

        assert_eq!(tuple_rows, batch_rows, "cutoff {cutoff}: tuples diverged");
        assert_eq!(tuple_counters, batch_counters, "cutoff {cutoff}: counters diverged");
        if cutoff == 0 {
            assert!(tuple_rows.is_empty(), "cutoff 0 must produce no joins");
        } else {
            assert!(!tuple_rows.is_empty(), "cutoff {cutoff} must produce joins");
        }
    }
}

/// A read fault landing mid-batch defers: the scan delivers the rows it
/// decoded before the fault, and the *next* call raises the error. Both
/// modes see the same rows before the same error.
#[test]
fn mid_batch_fault_is_deferred_to_the_next_call() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 600, 512, |r| r.attr("a", 600.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 3);
    let rel = catalog.relation_by_name("r").unwrap();
    let mut b = PlanNodeBuilder::new();
    let plan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, vec![]);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = Bindings::new();

    // Tuple mode: count rows delivered before the fault surfaces.
    db.disk.set_fault_plan(FaultPlan::parse("nth-read=2").unwrap());
    let ctx = ExecContext::new(SharedCounters::new()).with_mode(ExecMode::Tuple);
    let mut op = compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
    let mut tuple_rows = Vec::new();
    let tuple_err = loop {
        match op.next() {
            Ok(Some(row)) => tuple_rows.push(row),
            Ok(None) => panic!("fault never surfaced in tuple mode"),
            Err(e) => break e,
        }
    };
    op.close();
    assert!(!tuple_rows.is_empty(), "page 1 rows must precede the page-2 fault");

    // Batch mode: a huge max_rows spans the faulting page, so the first
    // call returns page 1's rows and stashes the error for the second.
    db.disk.set_fault_plan(FaultPlan::parse("nth-read=2").unwrap());
    let ctx = ExecContext::new(SharedCounters::new()).with_mode(ExecMode::Batch);
    let mut op = compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, 64 * 2048, &ctx).unwrap();
    let first = op
        .next_batch(10_000)
        .expect("first batch precedes the fault")
        .expect("first batch is non-empty");
    let batch_rows = first.to_tuples();
    let batch_err = op.next_batch(10_000).expect_err("deferred fault surfaces on the next call");
    op.close();
    db.disk.set_fault_plan(FaultPlan::none());

    assert_eq!(tuple_rows, batch_rows, "pre-fault rows diverged across modes");
    assert_eq!(classify(&tuple_err), classify(&batch_err), "error classes diverged");
    assert_eq!(classify(&batch_err), "storage");
}

/// Row-budget refusals at batch boundaries: a budget that exactly covers
/// the result admits both modes with identical summaries; a budget one
/// row short refuses both with the same resource class (the batch path
/// checks its budget per batch, never overshooting past a boundary).
#[test]
fn row_budget_refusals_are_mode_independent_at_batch_boundaries() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 500, 512, |r| r.attr("a", 500.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 9);
    let rel = catalog.relation_by_name("r").unwrap();
    let q = LogicalExpr::get(rel.id);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&q).unwrap().plan;
    let bindings = Bindings::new();

    for (max_rows, should_pass) in [(500u64, true), (499, false), (1, false)] {
        let limits = ResourceLimits {
            max_rows: Some(max_rows),
            ..ResourceLimits::unlimited()
        };
        let mut outcomes = Vec::new();
        for mode in [ExecMode::Tuple, ExecMode::Batch] {
            let result = run_mode(&plan, &db, &catalog, &env, &bindings, limits, mode);
            outcomes.push(match result {
                Ok(s) => format!("ok:{}:{:?}:{:?}", s.rows, s.io, s.cpu),
                Err(e) => format!("err:{}", classify(&e)),
            });
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "max_rows={max_rows} diverged across modes"
        );
        if should_pass {
            assert!(outcomes[0].starts_with("ok:500:"), "budget {max_rows} should admit");
        } else {
            assert_eq!(outcomes[0], "err:resource:rows", "budget {max_rows} should refuse");
        }
    }
}

/// Injected mid-scan faults trip at the same accounted read in both
/// modes (batch scans charge I/O page by page, in the same order).
#[test]
fn fault_ordinals_trip_identically_in_both_modes() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", 600, 512, |r| r.attr("a", 600.0))
        .build()
        .unwrap();
    let db = StoredDatabase::generate(&catalog, 21);
    let rel = catalog.relation_by_name("r").unwrap();
    let q = LogicalExpr::get(rel.id).select(SelectPred::bound(
        rel.attr_id("a").unwrap(),
        CompareOp::Lt,
        300,
    ));
    let env = Environment::dynamic_compile_time(&catalog.config);
    let plan = Optimizer::new(&catalog, &env).optimize(&q).unwrap().plan;
    let bindings = Bindings::new();

    for nth in [1u64, 2, 3] {
        let mut outcomes = Vec::new();
        for mode in [ExecMode::Tuple, ExecMode::Batch] {
            db.disk.set_fault_plan(FaultPlan::parse(&format!("nth-read={nth}")).unwrap());
            let result = run_mode(
                &plan,
                &db,
                &catalog,
                &env,
                &bindings,
                ResourceLimits::unlimited(),
                mode,
            );
            db.disk.set_fault_plan(FaultPlan::none());
            outcomes.push(match result {
                Ok(s) => format!("ok:{}", s.rows),
                Err(e) => format!("err:{}", classify(&e)),
            });
        }
        assert_eq!(outcomes[0], outcomes[1], "nth-read={nth} diverged across modes");
    }
}
