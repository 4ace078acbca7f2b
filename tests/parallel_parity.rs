//! Parallel/serial execution parity: the exchange-parallel pipeline must
//! be observationally equivalent to serial execution at every DOP.
//!
//! "Equivalent" here means: the same result tuples as a *multiset*
//! (exchange concatenates worker outputs, so inter-worker order is one
//! thing parallelism may change), the same CPU counter totals (records,
//! compares, hashes — parallel operators hash each row exactly once and
//! charge sort compares by the same formula), the same *total* accounted
//! I/O and the same write count (interleaved morsel workers can break
//! the disk's sequential-run detection, so the seq/random split of reads
//! may shift — pages touched may not), the same number of choose-plan
//! fallbacks under injected page faults and refused memory grants, and
//! no leaked governor reservations. Faults are injected by *page
//! identity* (`FaultPlan::page_range`), which is deterministic under any
//! read interleaving; read-ordinal faults are only meaningful at DOP 1
//! and stay in `batch_parity.rs`.

use std::sync::Arc;

use dqep::algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, PhysicalOp, SelectPred};
use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Cost, Environment, PlanStats};
use dqep::executor::{
    compile_dynamic_plan, drain, execute, ExecContext, ExecError, ExecMode, ExecSummary,
    ResourceLimits, SharedCounters, Sink, Tuple,
};
use dqep::interval::Interval;
use dqep::optimizer::Optimizer;
use dqep::plan::{PlanNode, PlanNodeBuilder};
use dqep::storage::{FaultPlan, StoredDatabase};
use proptest::prelude::*;

/// Executes `plan` end to end under `limits` in `mode` at `dop`.
#[allow(clippy::too_many_arguments)]
fn run_dop(
    plan: &Arc<PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    limits: ResourceLimits,
    mode: ExecMode,
    dop: usize,
) -> Result<ExecSummary, ExecError> {
    let ctx = ExecContext::with_limits(SharedCounters::new(), limits)
        .with_mode(mode)
        .with_dop(dop);
    execute(plan, db, catalog, env, bindings, &ctx, Sink::Count).map(|exec| exec.summary)
}

/// Coarse error class: variant (and resource kind) only, as in
/// `batch_parity.rs` — payloads may differ (a parallel worker reports the
/// reservation *it* was refused).
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

/// Asserts a parallel summary agrees with the serial baseline on
/// everything DOP parity promises.
fn assert_summaries_equal(serial: &ExecSummary, parallel: &ExecSummary, what: &str) {
    assert_eq!(serial.rows, parallel.rows, "{what}: result row counts diverged");
    assert_eq!(serial.fallbacks, parallel.fallbacks, "{what}: fallback counts diverged");
    assert_eq!(serial.cpu, parallel.cpu, "{what}: CPU counter totals diverged");
    assert_eq!(
        serial.io.total(),
        parallel.io.total(),
        "{what}: total accounted I/O diverged (serial={:?} parallel={:?})",
        serial.io,
        parallel.io
    );
    assert_eq!(serial.io.writes, parallel.io.writes, "{what}: accounted writes diverged");
}

/// The same randomized 1–3 relation chain workload as `batch_parity.rs`.
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

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random optimized plans over random data, executed serially and at
    /// DOP 2 and 4 in both modes, under one of three hazards — none,
    /// injected page faults, or a tight memory limit: identical summaries
    /// when both succeed, same error class when both fail, never success
    /// at one DOP and failure at another. After *any* fallback the
    /// abandoned attempt's partial work may legitimately differ — a
    /// parallel exchange runs its workers eagerly in `open`, so an
    /// alternative that fails mid-drain has already scanned everything
    /// the serial attempt would have stopped short of — so counters are
    /// compared bit-for-bit only on fallback-free runs (the final,
    /// surviving alternative is what parity promises).
    #[test]
    fn random_plans_execute_identically_across_dops(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        fault_lo in 0u32..40,
        fault_span in 0u32..4,
        mem_kb in 1u64..64,
        mode in prop_oneof![Just(ExecMode::Tuple), Just(ExecMode::Batch)],
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
            FaultPlan::page_range(fault_lo, fault_lo + fault_span)
        } else {
            FaultPlan::none()
        };

        // Page-identity faults carry no ordinal state, so one plan serves
        // every run; `set_fault_plan` still resets between runs for
        // uniformity with the batch parity suite.
        db.disk.set_fault_plan(fault.clone());
        let serial = run_dop(
            &plan, &db, &catalog, &env, &bindings, limits, mode, 1,
        );
        for dop in [2usize, 4] {
            db.disk.set_fault_plan(fault.clone());
            let parallel = run_dop(
                &plan, &db, &catalog, &env, &bindings, limits, mode, dop,
            );
            let what = format!("{mode:?} dop={dop}");
            match (&serial, &parallel) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(s.rows, p.rows, "{}: result row counts diverged", &what);
                    prop_assert_eq!(
                        s.fallbacks, p.fallbacks, "{}: fallback counts diverged", &what
                    );
                    if s.fallbacks == 0 {
                        assert_summaries_equal(s, p, &what);
                    }
                }
                (Err(se), Err(pe)) => prop_assert_eq!(
                    classify(se), classify(pe),
                    "{}: error classes diverged: serial={:?} parallel={:?}", &what, se, pe
                ),
                (s, p) => prop_assert!(
                    false,
                    "{}: one DOP succeeded while the other failed: serial={:?} parallel={:?}",
                    &what,
                    s.as_ref().map(|s| s.rows),
                    p.as_ref().map(|s| s.rows)
                ),
            }
        }
        db.disk.set_fault_plan(FaultPlan::none());
    }

    /// Draining the same compiled plan at DOP 1, 2, and 4 returns the
    /// same tuples as a *multiset*, in both modes, with no reservation
    /// left behind in any governor.
    #[test]
    fn drained_tuples_are_identical_as_multisets(
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

        for mode in [ExecMode::Tuple, ExecMode::Batch] {
            let mut baseline: Option<Vec<Tuple>> = None;
            for dop in [1usize, 2, 4] {
                let ctx = ExecContext::new(SharedCounters::new())
                    .with_mode(mode)
                    .with_dop(dop);
                let mut op =
                    compile_dynamic_plan(&plan, &db, &catalog, &env, &bindings, memory, &ctx)
                        .unwrap();
                let rows = drain(op.as_mut(), mode).unwrap();
                prop_assert_eq!(
                    ctx.governor.memory_used(), 0,
                    "{:?} dop={}: leaked reservation", mode, dop
                );
                let rows = sorted(rows);
                match &baseline {
                    None => baseline = Some(rows),
                    Some(expect) => prop_assert_eq!(
                        expect, &rows, "{:?} dop={}: result multisets diverged", mode, dop
                    ),
                }
            }
        }
    }
}

/// A choose-plan whose preferred alternative is refused its memory grant
/// falls back identically at every DOP: same rows, one recorded fallback,
/// no leaked reservations — the parallel sort's workers reserve through
/// the same governor, so the refusal still fires during the alternative's
/// `open`. The *abandoned* attempt's partial counters legitimately differ
/// across DOPs (the parallel scan below the sort runs eagerly before the
/// refusal lands), so counter snapshots are compared across modes at the
/// same DOP, not across DOPs.
#[test]
fn memory_refusal_fallback_is_dop_independent() {
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
    let sorted_alt = node(&mut b, PhysicalOp::Sort { attr: ra }, vec![scan]);
    let btree = node(
        &mut b,
        PhysicalOp::BtreeScan { relation: rel.id, index: idx, key_attr: ra },
        vec![],
    );
    let choose = node(&mut b, PhysicalOp::ChoosePlan, vec![sorted_alt, btree]);

    let env = Environment::dynamic_compile_time(&catalog.config);
    let bindings = Bindings::new();
    let limits = ResourceLimits {
        memory_bytes: Some(512),
        ..ResourceLimits::unlimited()
    };

    let mut rows_by_run = Vec::new();
    for dop in [1usize, 2, 4] {
        let mut per_mode = Vec::new();
        for mode in [ExecMode::Tuple, ExecMode::Batch] {
            let ctx = ExecContext::with_limits(SharedCounters::new(), limits)
                .with_mode(mode)
                .with_dop(dop);
            let mut op =
                compile_dynamic_plan(&choose, &db, &catalog, &env, &bindings, 64 * 2048, &ctx)
                    .unwrap();
            let rows = drain(op.as_mut(), mode).unwrap();
            assert_eq!(
                ctx.counters.fallbacks(),
                1,
                "{mode:?} dop={dop}: expected one fallback"
            );
            assert_eq!(
                ctx.governor.memory_used(),
                0,
                "{mode:?} dop={dop}: leaked reservation"
            );
            let rows = sorted(rows);
            rows_by_run.push(rows.clone());
            per_mode.push((rows, ctx.counters.snapshot()));
        }
        assert_eq!(per_mode[0], per_mode[1], "dop={dop}: modes diverged after fallback");
    }
    assert_eq!(rows_by_run[0].len(), 400);
    for r in &rows_by_run[1..] {
        assert_eq!(r, &rows_by_run[0], "result rows diverged across DOPs after fallback");
    }
}

/// Page-identity faults produce the same outcome at every DOP: a fault on
/// a page the plan reads fails all of them with the same error class
/// (parallel scans defer worker errors to the first `next`, preserving
/// the serial failure phase); a fault on a page outside the relation hits
/// none of them.
#[test]
fn page_faults_trip_identically_across_dops() {
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

    let heap_pages = db.table(rel.id).heap.pages().to_vec();
    assert!(heap_pages.len() >= 4, "need a multi-page heap to fault mid-relation");
    // A mid-heap page, and one far past every allocated page.
    for fault_page in [heap_pages[heap_pages.len() / 2].0, 1_000_000] {
        let mut outcomes = Vec::new();
        for mode in [ExecMode::Tuple, ExecMode::Batch] {
            for dop in [1usize, 2, 4] {
                db.disk
                    .set_fault_plan(FaultPlan::page_range(fault_page, fault_page));
                let result = run_dop(
                    &plan,
                    &db,
                    &catalog,
                    &env,
                    &bindings,
                    ResourceLimits::unlimited(),
                    mode,
                    dop,
                );
                db.disk.set_fault_plan(FaultPlan::none());
                outcomes.push(match result {
                    Ok(s) => format!("ok:{}", s.rows),
                    Err(e) => format!("err:{}", classify(&e)),
                });
            }
        }
        for o in &outcomes[1..] {
            assert_eq!(o, &outcomes[0], "fault on page {fault_page} diverged across DOPs");
        }
    }
}
