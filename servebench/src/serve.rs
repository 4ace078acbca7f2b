//! `serve_hot`: two closed-loop clients on a two-worker `QueryService`.
//!
//! The clients repeat four prepared statements whose one host variable
//! and memory grant are drawn across their whole range: after warm-up the
//! registry and the decision cache answer nearly every op, so execution
//! and storage do the work (the paper's `f + g_i`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dqep_catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep_core::{Optimizer, OptimizerStats};
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    compile_plan, ExecContext, ExecMode, ResourceLimits, SharedCounters, Tracer, BATCH_CAPACITY,
};
use dqep_plan::{dag, evaluate_startup_observed, Observations, PlanNode};
use dqep_service::{normalize_sql, QueryService, Request, ServiceConfig, SessionResult};
use dqep_sql::{parse_query, Query};
use dqep_storage::StoredDatabase;

use crate::layers::Layers;
use crate::measure::{median, peak_rss_mb, process_cpu_seconds, E2e, Report, Rng, WINDOW_S};
use crate::reference::{Join, RefQuery, Sel};
use crate::spans::SelfTimes;

/// Service worker threads.
const WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Closed-loop client threads, one per worker.
const CLIENTS: usize = 2;
/// Memory grants (pages) drawn by ops. Every grant keeps the hash joins
/// and sorts of these statements in memory (spilling would leave temp
/// pages on the simulated disk, which never frees them); each grant lands
/// in its own 16-page decision-cache memory bucket.
const HOT_MEMORY_PAGES: [f64; 4] = [2048.0, 4096.0, 8192.0, 16384.0];
/// Phase sums must match single-client wall time within this share of
/// the wall time, or within [`RECONCILE_ABS_US`], whichever is larger.
pub const RECONCILE_REL: f64 = 0.25;
pub const RECONCILE_ABS_US: f64 = 2000.0;

/// One op: a statement, its binding and memory grant.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index of the statement (reference counts are precomputed per
    /// statement).
    pub stmt: usize,
    pub sql: String,
    pub binds: Vec<(String, i64)>,
    pub memory_pages: Option<f64>,
}

impl Op {
    fn request(&self) -> Request {
        Request {
            sql: self.sql.clone(),
            binds: self.binds.clone(),
            memory_pages: self.memory_pages,
            ..Request::default()
        }
    }
}

/// The workload's catalog and op-stream generator.
#[derive(Debug)]
pub struct Workload {
    /// Seed of the op stream and of the stored data (every replica is
    /// generated from it).
    pub seed: u64,
    pub catalog: Catalog,
    /// The statements: text, reference, host variable's domain.
    stmts: Vec<(String, RefQuery, i64)>,
}

fn chain_attr(name: &str) -> usize {
    match name {
        "a" => 0,
        "jl" => 1,
        _ => 2,
    }
}

/// `R{l}.jr = R{r}.jl` between `FROM` positions `l` and `r`.
fn chain_join(l: usize, r: usize) -> Join {
    Join {
        left: (l, chain_attr("jr")),
        right: (r, chain_attr("jl")),
    }
}

fn var_sel(rel: usize, name: &str) -> Sel {
    Sel {
        rel,
        attr: chain_attr("a"),
        var: name.to_string(),
    }
}

/// `serve_hot`'s catalog: three relations of 5·10³–2·10⁴ rows with
/// B-tree indexes on every attribute. Join domains keep every join's
/// result at most ~2·10⁴ rows.
fn hot_catalog() -> Catalog {
    let rel = |b: CatalogBuilder, name: &str, card: u64, jl: f64, jr: f64| {
        b.relation(name, card, 64, |r| {
            r.attr("a", card as f64)
                .attr("jl", jl)
                .attr("jr", jr)
                .btree("a", false)
                .btree("jl", false)
                .btree("jr", false)
        })
    };
    let b = CatalogBuilder::new(SystemConfig::paper_1994());
    let b = rel(b, "R1", 20_000, 20_000.0, 5_000.0);
    let b = rel(b, "R2", 5_000, 5_000.0, 10_000.0);
    let b = rel(b, "R3", 10_000, 10_000.0, 10_000.0);
    b.build().expect("the serve_hot catalog is well formed")
}

impl Workload {
    #[must_use]
    pub fn new(seed: u64) -> Workload {
        let catalog = hot_catalog();
        let rq = |rels: &[&str], joins: Vec<Join>, sel: usize, order_by| RefQuery {
            rels: rels.iter().map(|r| (*r).to_string()).collect(),
            joins,
            sels: vec![var_sel(sel, "v")],
            order_by,
        };
        let stmts = [
            (
                "SELECT * FROM R1 WHERE R1.a < :v",
                rq(&["R1"], vec![], 0, None),
            ),
            (
                "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R2.a < :v",
                rq(&["R1", "R2"], vec![chain_join(0, 1)], 1, None),
            ),
            (
                "SELECT * FROM R2, R3 WHERE R2.jr = R3.jl AND R2.a < :v ORDER BY R3.a",
                rq(
                    &["R2", "R3"],
                    vec![chain_join(0, 1)],
                    0,
                    Some((1, chain_attr("a"))),
                ),
            ),
            (
                "SELECT * FROM R1, R2, R3 WHERE R1.jr = R2.jl AND R2.jr = R3.jl \
                 AND R2.a < :v",
                rq(
                    &["R1", "R2", "R3"],
                    vec![chain_join(0, 1), chain_join(1, 2)],
                    1,
                    None,
                ),
            ),
        ];
        let stmts = stmts
            .into_iter()
            .map(|(sql, q)| {
                let sel_rel = &q.rels[q.sels[0].rel];
                let domain = catalog
                    .relation_by_name(sel_rel)
                    .expect("hot relation exists")
                    .stats
                    .cardinality as i64;
                (sql.to_string(), q, domain)
            })
            .collect();
        Workload {
            seed,
            catalog,
            stmts,
        }
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: WORKERS,
            data_seed: self.seed,
            io_latency_micros: 0,
            ..ServiceConfig::default()
        }
    }

    /// Op `index` of the stream: a function of the seed and index only.
    #[must_use]
    pub fn op(&self, index: u64) -> Op {
        let mut rng = Rng::for_op(self.seed, index);
        let stmt = rng.below(self.stmts.len() as u64) as usize;
        let v = (rng.selectivity(1e-3) * self.stmts[stmt].2 as f64).round() as i64;
        let pages = HOT_MEMORY_PAGES[rng.below(HOT_MEMORY_PAGES.len() as u64) as usize];
        self.make_op(stmt, v, pages)
    }

    fn make_op(&self, stmt: usize, v: i64, pages: f64) -> Op {
        Op {
            stmt,
            sql: self.stmts[stmt].0.clone(),
            binds: vec![("v".to_string(), v)],
            memory_pages: Some(pages),
        }
    }

    /// Warm-up ops: every statement at every decision-cache bucket of its
    /// variable and every memory grant, so the timed window starts with
    /// both caches full.
    fn warmup(&self) -> Vec<Op> {
        let buckets = ServiceConfig::default().decision_buckets;
        let mut ops = Vec::new();
        for (stmt, (_, _, domain)) in self.stmts.iter().enumerate() {
            for b in 0..buckets {
                let v = ((f64::from(b) + 0.5) / f64::from(buckets) * *domain as f64) as i64;
                for pages in HOT_MEMORY_PAGES {
                    ops.push(self.make_op(stmt, v, pages));
                }
            }
        }
        ops
    }

    /// Builds the service and warms it up; returns it with the seconds
    /// taken and whether every warm-up op succeeded.
    fn set_up(&self) -> (QueryService, f64, bool) {
        let started = Instant::now();
        let service = QueryService::new(self.catalog.clone(), self.service_config());
        let requests = self.warmup().iter().map(Op::request).collect();
        let ok = service.run_batch(requests).iter().all(Result::is_ok);
        (service, started.elapsed().as_secs_f64(), ok)
    }
}

/// A completed op as kept for the check after the window: its index and
/// the rows it returned, `None` when it failed. Twelve bytes an op.
type Checked = (u32, Option<u32>);

fn checked(index: u64, result: &Result<SessionResult, String>) -> Checked {
    let index = u32::try_from(index).expect("fewer than 2^32 ops in a run");
    match result {
        Ok(r) => (
            index,
            Some(u32::try_from(r.summary.rows).unwrap_or(u32::MAX)),
        ),
        Err(e) => {
            eprintln!("FAILED op {index}: {e}");
            (index, None)
        }
    }
}

/// Runs `clients` closed-loop clients from op 0 on for `budget`. Each
/// completed op goes to `done` on its client's thread, with that client's
/// state; `mark` gets the seconds since the start at the start, every
/// [`WINDOW_S`], and at the end. Returns every client's state.
fn closed_loop<T: Default + Send>(
    service: &QueryService,
    w: &Workload,
    clients: usize,
    budget: Duration,
    done: impl Fn(&mut T, u64, Duration, Result<SessionResult, String>) + Sync,
    mut mark: impl FnMut(f64),
) -> Vec<T> {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    mark(0.0);
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = T::default();
                    while started.elapsed() < budget {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let request = w.op(index).request();
                        let t = Instant::now();
                        let result = service.execute(request).map_err(|e| e.to_string());
                        done(&mut state, index, t.elapsed(), result);
                    }
                    state
                })
            })
            .collect();
        let mut due = Duration::from_secs_f64(WINDOW_S);
        while due < budget {
            std::thread::sleep(due.saturating_sub(started.elapsed()));
            mark(started.elapsed().as_secs_f64());
            due += Duration::from_secs_f64(WINDOW_S);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    mark(started.elapsed().as_secs_f64());
    states
}

/// Reference row counts: exact per op, from the exported rows of a
/// replica generated with the service's seed.
struct Checker {
    export: HashMap<dqep_catalog::RelationId, Vec<Vec<i64>>>,
    /// Per hot statement: ascending values of the selection column over
    /// the statement's result with the variable unbounded. The count for
    /// `v` is the number of values below `v`.
    hot_keys: Vec<Vec<i64>>,
}

impl Checker {
    fn new(w: &Workload) -> Checker {
        let export = StoredDatabase::generate(&w.catalog, w.seed).export_rows();
        let mut checker = Checker {
            export,
            hot_keys: Vec::new(),
        };
        for (_, refq, _) in &w.stmts {
            let rows = checker.evaluate(w, refq, &[("v".to_string(), i64::MAX)]);
            let sel = &refq.sels[0];
            let widths: Vec<usize> = refq
                .rels
                .iter()
                .map(|name| {
                    w.catalog
                        .relation_by_name(name)
                        .expect("relation exists")
                        .attributes
                        .len()
                })
                .collect();
            let col = refq.column(&widths, sel.rel, sel.attr);
            let mut keys: Vec<i64> = rows.iter().map(|r| r[col]).collect();
            keys.sort_unstable();
            checker.hot_keys.push(keys);
        }
        checker
    }

    fn evaluate(&self, w: &Workload, refq: &RefQuery, binds: &[(String, i64)]) -> Vec<Vec<i64>> {
        let tables: Vec<&[Vec<i64>]> = refq
            .rels
            .iter()
            .map(|name| {
                let id = w
                    .catalog
                    .relation_by_name(name)
                    .expect("relation exists")
                    .id;
                self.export[&id].as_slice()
            })
            .collect();
        refq.evaluate(&tables, binds)
    }

    fn expected_rows(&self, op: &Op) -> u64 {
        let v = op.binds[0].1;
        self.hot_keys[op.stmt].partition_point(|&k| k < v) as u64
    }

    /// Counts failed and mismatched ops, printing each mismatch (failures
    /// were printed when they happened).
    fn failures(&self, w: &Workload, checked: &[Checked]) -> u64 {
        let mut failed = 0;
        for &(index, rows) in checked {
            let op = w.op(u64::from(index));
            let expected = self.expected_rows(&op);
            let ok = rows.is_some_and(|r| u64::from(r) == expected);
            if let (false, Some(r)) = (ok, rows) {
                eprintln!(
                    "MISMATCH op {index}: {r} rows, reference {expected}: {} {:?}",
                    op.sql, op.binds
                );
            }
            failed += u64::from(!ok);
        }
        failed
    }
}

/// The untraced run: end-to-end metrics.
#[must_use]
pub fn run(seed: u64, budget: Duration) -> Report {
    let w = Workload::new(seed);
    let mut e2e = E2e::default();
    let mut warm_ok = true;
    let mut service = None;
    for _ in 0..SETUPS {
        drop(service.take());
        let (s, secs, ok) = w.set_up();
        e2e.setups_s.push(secs);
        warm_ok &= ok;
        service = Some(s);
    }
    let service = service.expect("at least one set-up");
    let config = &w.catalog.config;
    let e2e = Mutex::new(e2e);
    let kept: Vec<Checked> = closed_loop(
        &service,
        &w,
        CLIENTS,
        budget,
        |kept: &mut Vec<Checked>, index, latency, result| {
            if let Ok(r) = &result {
                e2e.lock().expect("no client panicked").record(
                    latency.as_secs_f64() * 1e3,
                    r.summary.io.seconds(config) * 1e3,
                );
            }
            kept.push(checked(index, &result));
        },
        |t| {
            e2e.lock()
                .expect("no client panicked")
                .mark(t, true, process_cpu_seconds);
        },
    )
    .concat();
    let mut e2e = e2e.into_inner().expect("no client panicked");
    e2e.attempted = kept.len() as u64;
    let stats = service.stats();
    drop(service);
    // Peak memory is read before the reference replica exists.
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.failed = Checker::new(&w).failures(&w, &kept);
    let mut report = Report::from_e2e(&e2e, e2e.failed == 0 && warm_ok);
    report.note(format!(
        "statement hit rate {:.4}, decision hit rate {:.4} (warm-up included)",
        stats.registry.hit_rate(),
        stats.decision_hit_rate()
    ));
    report
}

/// A statement parsed and optimized once by the replay.
struct Prepared {
    query: Query,
    plan: Arc<PlanNode>,
    stats: OptimizerStats,
    parse_s: f64,
    optimize_s: f64,
}

/// Phase times of one replayed op, in seconds.
#[derive(Default)]
struct Phases {
    parse: f64,
    optimize: f64,
    startup: f64,
    compile: f64,
    execute: f64,
}

impl Phases {
    fn sum(&self) -> f64 {
        self.parse + self.optimize + self.startup + self.compile + self.execute
    }
}

/// Compiles and drains `plan`; returns `(rows, compile s, execute s)`.
fn compile_and_drain(
    plan: &Arc<PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    bindings: &Bindings,
    memory_bytes: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(u64, f64, f64), String> {
    let mut ctx = ExecContext::with_limits(SharedCounters::new(), ResourceLimits::unlimited())
        .with_mode(ExecMode::Batch);
    if let Some(t) = tracer {
        ctx = ctx.with_tracer(Arc::clone(t));
    }
    let t = Instant::now();
    let mut op =
        compile_plan(plan, db, catalog, bindings, memory_bytes, &ctx).map_err(|e| e.to_string())?;
    let compile = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut rows = 0u64;
    let result = (|| {
        op.open()?;
        while let Some(batch) = op.next_batch(BATCH_CAPACITY)? {
            rows += batch.len() as u64;
        }
        Ok::<(), dqep_executor::ExecError>(())
    })();
    op.close();
    result.map_err(|e| e.to_string())?;
    Ok((rows, compile, t.elapsed().as_secs_f64()))
}

/// The traced run: per-layer metrics. The closed loop measures
/// the service's caches, queue wait and I/O; then single ops are replayed
/// phase by phase through each layer's public functions and reconciled
/// with the same op's single-client `QueryService::execute` wall time.
#[must_use]
pub fn run_traced(seed: u64, budget: Duration) -> Report {
    let w = Workload::new(seed);
    let (service, _, warm_ok) = w.set_up();
    let config = w.catalog.config;

    let before = service.stats();
    let loop_results: Vec<(u64, Result<SessionResult, String>)> = closed_loop(
        &service,
        &w,
        CLIENTS,
        budget.mul_f64(0.4),
        |kept: &mut Vec<_>, index, _, result| kept.push((index, result)),
        |_| {},
    )
    .concat();
    let after = service.stats();
    let mut layers = Layers::default();
    let lookups = |h: u64, m: u64| (h as f64) / ((h + m) as f64).max(1.0);
    layers.set(
        "service.statement_hit_rate",
        lookups(
            after.registry.hits - before.registry.hits,
            after.registry.misses - before.registry.misses,
        ),
    );
    layers.set(
        "service.decision_hit_rate",
        lookups(
            after.decision_hits - before.decision_hits,
            after.decision_misses - before.decision_misses,
        ),
    );
    let ok: Vec<&SessionResult> = loop_results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .collect();
    let n = ok.len().max(1) as f64;
    layers.set(
        "service.queue_wait_ms",
        ok.iter()
            .map(|r| r.queue_wait.as_secs_f64() * 1e3)
            .sum::<f64>()
            / n,
    );
    layers.set(
        "storage.pages_read_per_op",
        ok.iter()
            .map(|r| (r.summary.io.seq_reads + r.summary.io.random_reads) as f64)
            .sum::<f64>()
            / n,
    );
    layers.set(
        "storage.pages_written_per_op",
        ok.iter().map(|r| r.summary.io.writes as f64).sum::<f64>() / n,
    );

    // Replay: the bench's own replica is bit-identical to the workers'.
    let db = StoredDatabase::generate(&w.catalog, w.seed);
    let env = Environment::dynamic_compile_time(&config);
    let mut prepared: HashMap<String, Prepared> = HashMap::new();
    let mut replay_checked = Vec::new();
    let mut replay_rows_bad = 0u64;
    let (mut phases_total, mut self_us) = (Phases::default(), Vec::new());
    let (mut counts, mut unreconciled) = ([0f64; 5], 0u64);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut op_times = SelfTimes::default();
    let replay_budget = budget.mul_f64(0.6);
    let started = Instant::now();
    let mut index = loop_results.iter().map(|(i, _)| i + 1).max().unwrap_or(0);
    while started.elapsed() < replay_budget {
        let op = w.op(index);
        let t = Instant::now();
        let result = service.execute(op.request());
        let wall = t.elapsed();
        let result = result.map_err(|e| e.to_string());
        let served = result.as_ref().ok().map(|r| {
            (
                r.summary.plan_cache.statement_hit == Some(true),
                r.summary.plan_cache.decision_hit == Some(true),
                r.summary.rows,
            )
        });
        replay_checked.push(checked(index, &result));
        index += 1;
        let Some((statement_hit, decision_hit, served_rows)) = served else {
            continue;
        };

        let normalized = normalize_sql(&op.sql);
        let p = prepared.entry(normalized.clone()).or_insert_with(|| {
            let t = Instant::now();
            let query = parse_query(&normalized, &w.catalog).expect("benchmark SQL parses");
            let parse_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let out = Optimizer::new(&w.catalog, &env)
                .optimize_with_props(&query.expr, query.required_props())
                .expect("benchmark SQL optimizes");
            let optimize_s = t.elapsed().as_secs_f64();
            Prepared {
                query,
                plan: out.plan,
                stats: out.stats,
                parse_s,
                optimize_s,
            }
        });
        let mut ph = Phases::default();
        if !statement_hit {
            // The service parsed and optimized this op: charge the
            // replay's timing of the same statement.
            (ph.parse, ph.optimize) = (p.parse_s, p.optimize_s);
        }
        let binds: Vec<(&str, i64)> = op.binds.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let mut bindings = p.query.bindings(&binds).expect("benchmark binds resolve");
        if let Some(pages) = op.memory_pages {
            bindings = bindings.with_memory(pages);
        }
        let pages = bindings
            .memory_pages
            .unwrap_or_else(|| env.memory.expected());
        let memory_bytes = (pages * f64::from(config.page_size)) as usize;
        let t = Instant::now();
        let startup =
            evaluate_startup_observed(&p.plan, &w.catalog, &env, &bindings, &Observations::new());
        if !decision_hit {
            ph.startup = t.elapsed().as_secs_f64();
        }
        let tracer = Arc::new(Tracer::new());
        let drain = |tracer: Option<&Arc<Tracer>>| {
            compile_and_drain(
                &startup.resolved,
                &db,
                &w.catalog,
                &bindings,
                memory_bytes,
                tracer,
            )
        };
        // Alternate which run goes first, so neither always finds the
        // caches warm.
        let (plain, traced) = if index % 2 == 0 {
            let plain = drain(None);
            (plain, drain(Some(&tracer)))
        } else {
            let traced = drain(Some(&tracer));
            (drain(None), traced)
        };
        let (Ok((rows, compile, execute)), Ok((traced_rows, tc, te))) = (plain, traced) else {
            replay_rows_bad += 1;
            continue;
        };
        replay_rows_bad += u64::from(rows != traced_rows || rows != served_rows);
        (ph.compile, ph.execute) = (compile, execute);
        untraced_s += compile + execute;
        traced_s += tc + te;
        op_times.add(&tracer.report());

        let (wall_us, sum_us) = (wall.as_secs_f64() * 1e6, ph.sum() * 1e6);
        let remainder = wall_us - sum_us;
        self_us.push(remainder);
        if remainder.abs() > (RECONCILE_REL * wall_us).max(RECONCILE_ABS_US) {
            unreconciled += 1;
            eprintln!(
                "UNRECONCILED op {}: wall {wall_us:.0} us, phases {sum_us:.0} us \
                 (parse {:.0} optimize {:.0} startup {:.0} compile {:.0} execute {:.0})",
                index - 1,
                ph.parse * 1e6,
                ph.optimize * 1e6,
                ph.startup * 1e6,
                ph.compile * 1e6,
                ph.execute * 1e6
            );
        }
        phases_total.parse += ph.parse;
        phases_total.optimize += ph.optimize;
        phases_total.startup += ph.startup;
        phases_total.compile += ph.compile;
        phases_total.execute += ph.execute;
        counts[0] += p.stats.groups as f64;
        counts[1] += p.stats.physical_considered as f64;
        counts[2] += p.stats.pruned_by_bound as f64;
        counts[3] += dag::node_count(&p.plan) as f64;
        counts[4] += dag::choose_plan_count(&p.plan) as f64;
    }
    let replayed = self_us.len();
    let r = replayed.max(1) as f64;
    layers.set("sql.parse_us", phases_total.parse * 1e6 / r);
    layers.set("core.optimize_ms", phases_total.optimize * 1e3 / r);
    layers.set("core.memo_groups", counts[0] / r);
    layers.set("core.physical_considered", counts[1] / r);
    layers.set("core.pruned_by_bound", counts[2] / r);
    layers.set("plan.startup_us", phases_total.startup * 1e6 / r);
    layers.set("plan.nodes", counts[3] / r);
    layers.set("plan.choose_nodes", counts[4] / r);
    layers.set("service.self_us", median(&self_us));
    layers.set("service.unreconciled", unreconciled as f64);
    layers.set("executor.compile_us", phases_total.compile * 1e6 / r);
    layers.set("executor.execute_ms", phases_total.execute * 1e3 / r);
    layers.set_operators(&op_times, replayed);
    layers.set(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s.max(1e-12) * 100.0,
    );
    layers.set("trace.sampled_ops", replayed as f64);
    drop(service);

    let checker = Checker::new(&w);
    let loop_checked: Vec<Checked> = loop_results.iter().map(|(i, r)| checked(*i, r)).collect();
    let failed = checker.failures(&w, &loop_checked)
        + checker.failures(&w, &replay_checked)
        + replay_rows_bad;
    let mut report = Report {
        attempted: (loop_checked.len() + replay_checked.len()) as u64,
        failed,
        correct: failed == 0 && warm_ok,
        ..Report::default()
    };
    report.note(format!(
        "phase reconciliation: {unreconciled} of {replayed} replayed ops outside \
         ±max({:.0}% of wall, {RECONCILE_ABS_US:.0} us)",
        RECONCILE_REL * 100.0
    ));
    layers.into_report(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_repeats_for_a_seed() {
        let (a, b, c) = (Workload::new(5), Workload::new(5), Workload::new(6));
        let ops = |w: &Workload| {
            (0..50)
                .map(|i| {
                    let op = w.op(i);
                    (op.sql, op.binds, op.memory_pages.map(f64::to_bits))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(&a), ops(&b), "same seed, same stream");
        assert_ne!(ops(&a), ops(&c), "another seed, another stream");
    }

    #[test]
    fn service_row_counts_match_the_reference() {
        let w = Workload::new(3);
        let (service, _, ok) = w.set_up();
        assert!(ok);
        let kept: Vec<Checked> = closed_loop(
            &service,
            &w,
            1,
            Duration::from_millis(200),
            |kept: &mut Vec<Checked>, index, _, result| kept.push(checked(index, &result)),
            |_| {},
        )
        .concat();
        assert!(!kept.is_empty());
        assert_eq!(Checker::new(&w).failures(&w, &kept), 0);
    }
}
