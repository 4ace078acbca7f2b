//! Executor micro-benchmark fixtures: tuple vs batch execution over the
//! same physical plans.
//!
//! Shared by the criterion bench (`benches/executor_batch.rs`) and the
//! `bench_executor` binary that emits `BENCH_executor.json`. Each case
//! holds a generated database plus a physical plan and can be executed in
//! either [`ExecMode`]; measurements report wall-clock rows/sec and
//! ns/row, which isolates interpretation overhead — the simulated-time
//! accounting is identical between modes by construction (the
//! batch-parity tests pin that down).

use std::sync::Arc;
use std::time::Instant;

use dqep_algebra::{CompareOp, JoinPred, PhysicalOp, SelectPred};
use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Cost, Environment, PlanStats};
use dqep_executor::{execute, ExecContext, ExecMode, Sink};
use dqep_harness::{paper_query, BindingSampler};
use dqep_interval::Interval;
use dqep_plan::{PlanNode, PlanNodeBuilder};
use dqep_storage::StoredDatabase;

/// One executor benchmark: a stored database and a plan over it.
pub struct ExecBenchCase {
    /// Benchmark name, stable across runs (used as the JSON key).
    pub name: &'static str,
    catalog: Catalog,
    db: StoredDatabase,
    plan: Arc<PlanNode>,
    env: Environment,
    bindings: Bindings,
}

/// Wall-clock measurement of one case in one mode.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Result rows per execution.
    pub rows: u64,
    /// Mean wall-clock nanoseconds per *input* row processed (we
    /// normalize by result rows, the stable denominator across modes).
    pub ns_per_row: f64,
    /// Result rows per second.
    pub rows_per_sec: f64,
}

impl ExecBenchCase {
    /// Executes the case once, returning the result row count.
    ///
    /// # Panics
    /// Panics if execution fails — benchmark plans run ungoverned against
    /// fault-free storage, so failure is a bug.
    pub fn run(&self, mode: ExecMode) -> u64 {
        let ctx = ExecContext::default().with_mode(mode);
        execute(
            &self.plan,
            &self.db,
            &self.catalog,
            &self.env,
            &self.bindings,
            &ctx,
            Sink::Count,
        )
        .expect("benchmark plan must execute")
        .summary
        .rows
    }

    /// Times `iters` executions and averages.
    ///
    /// # Panics
    /// As [`Self::run`]; also panics if the case returns zero rows (the
    /// normalization would be meaningless).
    pub fn measure(&self, mode: ExecMode, iters: u32) -> Measurement {
        // One warm-up run, untimed.
        let rows = self.run(mode);
        assert!(rows > 0, "benchmark case {} produced no rows", self.name);
        let start = Instant::now();
        for _ in 0..iters.max(1) {
            std::hint::black_box(self.run(mode));
        }
        let nanos = start.elapsed().as_nanos() as f64 / f64::from(iters.max(1));
        Measurement {
            rows,
            ns_per_row: nanos / rows as f64,
            rows_per_sec: rows as f64 * 1e9 / nanos,
        }
    }
}

fn node(
    b: &mut PlanNodeBuilder,
    op: PhysicalOp,
    children: Vec<Arc<PlanNode>>,
    rows: f64,
) -> Arc<PlanNode> {
    b.node(op, children, PlanStats::new(Interval::point(rows), 512.0), Cost::ZERO)
}

/// Full sequential scan of `rows` base rows.
fn scan_case(rows: u64, seed: u64) -> ExecBenchCase {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("big", rows, 16, |r| r.attr("a", rows as f64).attr("b", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let rel = catalog.relation_by_name("big").expect("relation");
    let mut b = PlanNodeBuilder::new();
    let plan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, vec![], rows as f64);
    let env = Environment::dynamic_compile_time(&catalog.config);
    ExecBenchCase { name: "scan", catalog, db, plan, env, bindings: Bindings::new() }
}

/// Filter over a sequential scan, ~50% selectivity — the headline
/// vectorization case: the batch path evaluates the predicate into a
/// selection vector without copying rows.
fn scan_filter_case(rows: u64, seed: u64) -> ExecBenchCase {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("big", rows, 16, |r| r.attr("a", rows as f64).attr("b", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let rel = catalog.relation_by_name("big").expect("relation");
    let ra = rel.attr_id("a").expect("attr");
    let mut b = PlanNodeBuilder::new();
    let scan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, vec![], rows as f64);
    let plan = node(
        &mut b,
        PhysicalOp::Filter { predicate: SelectPred::bound(ra, CompareOp::Lt, (rows / 2) as i64) },
        vec![scan],
        rows as f64 / 2.0,
    );
    let env = Environment::dynamic_compile_time(&catalog.config);
    ExecBenchCase { name: "scan_filter", catalog, db, plan, env, bindings: Bindings::new() }
}

/// In-memory hash join: build on the smaller left input, probe with the
/// larger right (~1 match per probe row).
fn hash_join_case(rows: u64, seed: u64) -> ExecBenchCase {
    let build_rows = (rows / 8).max(1);
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("dim", build_rows, 16, |r| {
            r.attr("k", build_rows as f64).attr("v", 64.0)
        })
        .relation("fact", rows, 16, |r| r.attr("fk", build_rows as f64).attr("m", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let dim = catalog.relation_by_name("dim").expect("relation");
    let fact = catalog.relation_by_name("fact").expect("relation");
    let mut b = PlanNodeBuilder::new();
    let build = node(&mut b, PhysicalOp::FileScan { relation: dim.id }, vec![], build_rows as f64);
    let probe = node(&mut b, PhysicalOp::FileScan { relation: fact.id }, vec![], rows as f64);
    let plan = node(
        &mut b,
        PhysicalOp::HashJoin {
            predicates: vec![JoinPred::new(
                dim.attr_id("k").expect("attr"),
                fact.attr_id("fk").expect("attr"),
            )],
        },
        vec![build, probe],
        rows as f64,
    );
    let env = Environment::dynamic_compile_time(&catalog.config);
    // Grant enough memory to keep the build in memory: this benchmark
    // targets the vectorized probe loop, not Grace partitioning.
    let bindings = Bindings::new().with_memory((build_rows as f64 / 4.0).max(64.0));
    ExecBenchCase { name: "hash_join", catalog, db, plan, env, bindings }
}

/// External sort over a sequential scan on a non-key attribute, with a
/// memory grant large enough to sort in memory — the batch path fills
/// the sort buffer column-wise and streams sorted output in batches.
fn sort_case(rows: u64, seed: u64) -> ExecBenchCase {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("big", rows, 16, |r| r.attr("a", rows as f64).attr("b", 64.0))
        .build()
        .expect("bench catalog");
    let db = StoredDatabase::generate(&catalog, seed);
    let rel = catalog.relation_by_name("big").expect("relation");
    let rb = rel.attr_id("b").expect("attr");
    let mut b = PlanNodeBuilder::new();
    let scan = node(&mut b, PhysicalOp::FileScan { relation: rel.id }, vec![], rows as f64);
    let plan = node(&mut b, PhysicalOp::Sort { attr: rb }, vec![scan], rows as f64);
    let env = Environment::dynamic_compile_time(&catalog.config);
    // Grant enough memory to keep the sort in-memory: this benchmark
    // targets the fill/emit loops, not external-merge I/O.
    let bindings = Bindings::new().with_memory((rows as f64).max(64.0));
    ExecBenchCase { name: "sort", catalog, db, plan, env, bindings }
}

/// The paper's query 3 (4-relation chain) through the optimizer, at
/// mid-range selectivities — end-to-end interpretation overhead on a
/// realistic dynamic plan.
fn paper_query_case(seed: u64) -> ExecBenchCase {
    let w = paper_query(3, seed);
    let env = Environment::dynamic_compile_time(&w.catalog.config);
    let plan = Optimizer::new(&w.catalog, &env)
        .optimize(&w.query)
        .expect("paper query optimizes")
        .plan;
    let db = StoredDatabase::generate(&w.catalog, seed);
    let bindings = BindingSampler::new(seed, false).sample(&w);
    ExecBenchCase { name: "paper_q3", catalog: w.catalog, db, plan, env, bindings }
}

/// The standard suite: scan, scan+filter, hash join, sort, paper query 3.
/// `scale` is the large-table row count (the hash-join probe side).
#[must_use]
pub fn standard_cases(scale: u64, seed: u64) -> Vec<ExecBenchCase> {
    vec![
        scan_case(scale, seed),
        scan_filter_case(scale, seed),
        hash_join_case(scale, seed),
        sort_case(scale, seed),
        paper_query_case(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every case runs in both modes and produces identical row counts.
    #[test]
    fn cases_execute_in_both_modes() {
        for case in standard_cases(2_000, 5) {
            let t = case.run(ExecMode::Tuple);
            let b = case.run(ExecMode::Batch);
            assert_eq!(t, b, "{}: tuple and batch row counts differ", case.name);
            assert!(t > 0, "{}: no rows", case.name);
        }
    }
}
