//! Live-view maintenance benchmark: a registered view refreshed
//! incrementally through the delta pipeline versus re-materialized from
//! scratch after every commit.
//!
//! Shared by the `bench_live` binary that emits `BENCH_live.json`. Unlike
//! the re-optimization bench, the comparison here is **wall-clock**: the
//! delta pipeline does its work on in-memory batches outside the simulated
//! I/O accounting, so simulated seconds would be blind to exactly the cost
//! being measured. The workload is shaped so the gap dwarfs host noise —
//! a large stored base, a handful of rows per commit — and the gate
//! (incremental at least 5x faster than full re-runs) leaves an order of
//! magnitude of headroom on any machine.
//!
//! Every commit also asserts parity: the incrementally maintained snapshot
//! must equal the freshly executed query, so the timing can never be won
//! by drifting away from the correct contents.

use std::sync::Arc;
use std::time::Instant;

use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_core::Optimizer;
use dqep_cost::Environment;
use dqep_executor::{execute, ExecContext, Sink};
use dqep_service::{LiveConfig, LiveViewRegistry, MetricsRegistry, WriteOp};
use dqep_sql::parse_query;
use dqep_storage::StoredDatabase;

/// The registered view: a filtered two-way join, the same shape the
/// service-level live tests pin down.
const VIEW_SQL: &str = "SELECT * FROM r, s WHERE r.j = s.j AND r.a < :v";

/// One live-maintenance benchmark: a stored base, a registered view, and
/// a stream of small commits applied both ways.
pub struct LiveBenchCase {
    /// Benchmark name, stable across runs (used as the JSON key).
    pub name: &'static str,
    /// Rows in the larger base relation.
    pub scale: u64,
    /// Commits in the write stream.
    pub commits: u64,
    /// Write operations per commit.
    pub delta_rows: u64,
    seed: u64,
}

/// Wall-clock comparison of incremental refresh and full re-runs over one
/// write stream.
#[derive(Debug, Clone, Copy)]
pub struct LiveMeasurement {
    /// Stored rows across both base relations at registration time.
    pub base_rows: u64,
    /// View rows after the final commit (identical on both paths —
    /// asserted after every commit).
    pub view_rows: u64,
    /// Total wall-clock seconds spent in `commit` across the stream
    /// (storage writes, stat refresh, and delta propagation).
    pub incremental_seconds: f64,
    /// Total wall-clock seconds spent re-materializing the view from
    /// scratch after each commit (arbitrate, compile, execute).
    pub full_seconds: f64,
    /// Drift re-arbitrations fired during the stream (expected 0: the
    /// deltas are too small to escape the tolerance band).
    pub rearbitrations: u64,
}

impl LiveMeasurement {
    /// Full-re-run cost relative to incremental refresh (above 1.0 =
    /// incremental maintenance won).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.full_seconds / self.incremental_seconds.max(f64::MIN_POSITIVE)
    }
}

/// Builds the bench catalog: `r` (`scale` rows, filter column `a`, join
/// column `j`) and `s` (`scale / 2` rows, join column `j`).
fn bench_catalog(scale: u64) -> Catalog {
    let jdom = (scale / 8).max(8) as f64;
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("r", scale, 512, |r| {
            r.attr("a", scale as f64).attr("j", jdom).btree("a", false)
        })
        .relation("s", scale / 2, 512, |r| r.attr("j", jdom).attr("k", 64.0).btree("j", false))
        .build()
        .expect("bench catalog")
}

impl LiveBenchCase {
    /// Runs the write stream once, timing each commit's incremental
    /// refresh and a from-scratch re-materialization of the same view
    /// over the same (mutated) stored data.
    ///
    /// # Panics
    /// Panics if registration, a commit, or a re-run fails, or if the
    /// maintained snapshot ever diverges from the fresh execution —
    /// benchmark workloads run ungoverned against fault-free storage, so
    /// all are bugs (parity under faults is `tests/live_parity.rs`'s job).
    #[must_use]
    pub fn measure(&self) -> LiveMeasurement {
        let catalog = bench_catalog(self.scale);
        let db = StoredDatabase::generate(&catalog, self.seed);
        let env = Environment::dynamic_compile_time(&catalog.config);
        let base_rows: u64 = catalog.relations().iter().map(|r| r.stats.cardinality).sum();
        let bound = (self.scale / 2) as i64;
        let binds = [("v", bound)];

        let mut reg = LiveViewRegistry::new(
            catalog,
            db,
            env,
            LiveConfig::default(),
            Arc::new(MetricsRegistry::new()),
        );
        reg.register("bench", VIEW_SQL, &binds).expect("view registers");

        // The full-path plan is parsed and optimized once: the timer only
        // charges the re-run for what it must repeat per refresh —
        // arbitration over current statistics, compilation, execution.
        let cat = reg.catalog();
        let query = parse_query(VIEW_SQL, cat).expect("view sql parses");
        let plan = Optimizer::new(cat, &Environment::dynamic_compile_time(&cat.config))
            .optimize_with_props(&query.expr, query.required_props())
            .expect("view plan optimizes")
            .plan;
        let bindings = query.bindings(&binds).expect("bindings resolve");
        let full_env = Environment::dynamic_compile_time(&cat.config);

        let r = reg.catalog().relation_by_name("r").expect("relation").id;
        let s = reg.catalog().relation_by_name("s").expect("relation").id;
        let jdom = (self.scale / 8).max(8) as i64;

        let mut incremental = 0.0f64;
        let mut full = 0.0f64;
        let mut rearbitrations = 0;
        let mut next = 0i64;
        for _ in 0..self.commits {
            let mut ops = Vec::with_capacity(self.delta_rows as usize);
            for _ in 0..self.delta_rows {
                // Alternate sides; land half the `r` rows inside the
                // filter so every commit actually moves the view.
                let j = next % jdom;
                if next % 2 == 0 {
                    let a = (next * 37) % self.scale as i64;
                    ops.push(WriteOp::Insert { relation: r, values: vec![a, j] });
                } else {
                    ops.push(WriteOp::Insert { relation: s, values: vec![j, next % 64] });
                }
                next += 1;
            }

            let t = Instant::now();
            let outcome = reg.commit(&ops).expect("commit succeeds");
            incremental += t.elapsed().as_secs_f64();
            assert_eq!(outcome.applied, ops.len(), "{}: fault-free commit applied all ops", self.name);
            rearbitrations += outcome.rearbitrations;

            let t = Instant::now();
            let ctx = ExecContext::default();
            let mut rows = execute(
                &plan,
                reg.database(),
                reg.catalog(),
                &full_env,
                &bindings,
                &ctx,
                Sink::Collect,
            )
            .expect("full re-run executes")
            .rows;
            full += t.elapsed().as_secs_f64();

            rows.sort_unstable();
            assert_eq!(
                reg.snapshot("bench").expect("view exists"),
                rows,
                "{}: incremental snapshot diverged from full re-run",
                self.name
            );
        }

        let view_rows = reg.views()[0].rows;
        LiveMeasurement {
            base_rows,
            view_rows,
            incremental_seconds: incremental,
            full_seconds: full,
            rearbitrations,
        }
    }
}

/// The standard live-maintenance suite: one small-delta case. `scale`
/// sets the stored base; each commit touches `delta_rows` rows.
#[must_use]
pub fn live_cases(scale: u64, commits: u64, seed: u64) -> Vec<LiveBenchCase> {
    vec![LiveBenchCase { name: "small_delta", scale, commits, delta_rows: 8, seed }]
}
