//! The [`QueryService`]: session lifecycle from submission to completion.
//!
//! A fixed pool of worker threads drains a shared job queue. Each worker
//! owns a **replica** of the stored database, generated deterministically
//! from the same catalog and seed — replicas are bit-identical, every
//! session's I/O is accounted on its worker's private disk, and
//! per-session [`dqep_executor::SharedCounters`] snapshots are merged
//! into service totals only at completion, so concurrent queries never
//! bleed work into each other's accounting.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dqep_catalog::Catalog;
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    execute, ExecContext, ExecMode, ExecSummary, PlanCacheInfo, ReoptConfig, ReoptState,
    ResourceLimits, SharedCounters, Sink,
};
use dqep_plan::evaluate_startup_observed;
use dqep_sql::parse_query;
use dqep_storage::{FaultPlan, StoredDatabase, ValueDistribution};
use parking_lot::Mutex;

use crate::admission::MemoryPool;
use crate::decision::{region_key, CachedDecision};
use crate::error::ServiceError;
use crate::metrics::{MetricsRegistry, MetricsReport};
use crate::registry::{normalize_sql, PreparedRegistry, PreparedStatement, RegistryStats};

/// Service-wide tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (concurrent sessions). Minimum 1.
    pub workers: usize,
    /// Prepared-statement registry capacity (LRU-evicted past this).
    pub registry_capacity: usize,
    /// Buckets per host variable in the decision-cache region key.
    pub decision_buckets: u32,
    /// Feedback tolerance: an observed root cardinality outside the
    /// estimate interval widened by this factor invalidates the
    /// statement's cached decisions.
    pub feedback_tolerance: f64,
    /// Global memory-grant pool shared by all sessions, in bytes.
    pub global_memory_bytes: u64,
    /// How long a session may wait for admission (queue + memory grant)
    /// before failing with [`ServiceError::AdmissionTimeout`].
    pub queue_timeout_ms: u64,
    /// Default per-session resource budgets (a [`Request`] may override).
    pub session_limits: ResourceLimits,
    /// Tuple or batch execution for all sessions.
    pub exec_mode: ExecMode,
    /// Seed for the deterministic per-worker database replicas.
    pub data_seed: u64,
    /// Zipf exponent for stored values (`None`: uniform).
    pub skew: Option<f64>,
    /// Simulated per-page-I/O device latency, in microseconds, applied to
    /// every worker replica's disk. Zero disables pacing.
    pub io_latency_micros: u64,
    /// Requested intra-query parallelism per session. The DOP a session
    /// actually runs with is bounded by its admitted memory grant — see
    /// [`ServiceConfig::effective_dop`].
    pub dop: usize,
    /// Mid-query re-optimization budget. `Some`: every session executes
    /// with a [`ReoptState`] on its context — checkpoints at the pipeline
    /// breakers, bounded re-planning on cardinality escape — and its
    /// escape observations feed the statement's decision cache.
    /// `None` (the default): sessions run the cached-decision fast path.
    pub reopt: Option<ReoptConfig>,
}

impl ServiceConfig {
    /// The degree of intra-query parallelism a session admitted with
    /// `memory_bytes` of grant may use: the configured `dop`, but never
    /// more than one worker thread per 16 pages of admitted grant. Tying
    /// DOP to the admission-controlled memory pool keeps `sessions × dop`
    /// from oversubscribing what admission handed out — a session that
    /// squeezed in with a tiny grant does not also get to fan out.
    #[must_use]
    pub fn effective_dop(&self, memory_bytes: u64) -> usize {
        let bytes_per_worker = 16 * dqep_storage::PAGE_SIZE as u64;
        self.dop
            .max(1)
            .min((memory_bytes / bytes_per_worker).max(1) as usize)
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            registry_capacity: 64,
            decision_buckets: 16,
            feedback_tolerance: 2.0,
            global_memory_bytes: 64 << 20,
            queue_timeout_ms: 10_000,
            session_limits: ResourceLimits::unlimited(),
            exec_mode: ExecMode::default(),
            data_seed: 42,
            skew: None,
            io_latency_micros: 0,
            dop: 1,
            reopt: None,
        }
    }
}

/// One query submission: statement text plus per-execution parameters.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// The SQL text (normalized internally for registry keying).
    pub sql: String,
    /// Host-variable bindings by name.
    pub binds: Vec<(String, i64)>,
    /// Memory grant in pages (`None`: the environment's expected grant).
    pub memory_pages: Option<f64>,
    /// Per-session budget override (`None`: the service default).
    pub limits: Option<ResourceLimits>,
    /// Storage faults to inject on this session's worker disk for the
    /// duration of the execution (testing and chaos drills).
    pub fault_plan: Option<FaultPlan>,
}

impl Request {
    /// A request with bindings and all other parameters defaulted.
    #[must_use]
    pub fn new(sql: &str, binds: &[(&str, i64)]) -> Request {
        Request {
            sql: sql.to_string(),
            binds: binds.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            ..Request::default()
        }
    }
}

/// What one completed session reports back.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Execution accounting, including plan-cache provenance.
    pub summary: ExecSummary,
    /// Predicted run time of the plan the arbitration chose, in seconds.
    pub predicted_seconds: f64,
    /// Time between submission and a worker picking the session up.
    pub queue_wait: Duration,
    /// Index of the worker that ran the session.
    pub worker: usize,
}

/// Service-level accounting: totals across all completed sessions plus
/// cache and feedback counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Accumulated execution summaries of successful sessions.
    pub totals: ExecSummary,
    /// Sessions completed successfully.
    pub completed: u64,
    /// Sessions that failed (any [`ServiceError`]).
    pub failed: u64,
    /// Executions whose start-up decision was served from the cache.
    pub decision_hits: u64,
    /// Executions that ran the full start-up decision procedure.
    pub decision_misses: u64,
    /// Cached resolved plans that failed retryably and were re-arbitrated
    /// through the full choose-plan path.
    pub cached_plan_retries: u64,
    /// Decision-cache invalidations triggered by cardinality feedback.
    pub feedback_invalidations: u64,
    /// Prepared-statement registry accounting.
    pub registry: RegistryStats,
}

impl ServiceStats {
    /// Decision-cache hits over all arbitrations, in `[0, 1]`; 1.0 when
    /// nothing was arbitrated yet.
    #[must_use]
    pub fn decision_hit_rate(&self) -> f64 {
        let total = self.decision_hits + self.decision_misses;
        if total == 0 {
            1.0
        } else {
            self.decision_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    totals: ExecSummary,
    completed: u64,
    failed: u64,
    decision_hits: u64,
    decision_misses: u64,
    cached_plan_retries: u64,
    feedback_invalidations: u64,
}

struct Job {
    request: Request,
    ctx: ExecContext,
    submitted: Instant,
    deadline: Instant,
    reply: Sender<Result<SessionResult, ServiceError>>,
}

/// A submitted session: await its result, or cancel it cooperatively.
#[derive(Debug)]
pub struct SessionHandle {
    rx: Receiver<Result<SessionResult, ServiceError>>,
    ctx: ExecContext,
}

impl SessionHandle {
    /// Requests cooperative cancellation; the session fails with
    /// [`dqep_executor::ExecError::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.ctx.governor.cancel();
    }

    /// Blocks until the session completes.
    ///
    /// # Errors
    /// The session's [`ServiceError`], or [`ServiceError::Shutdown`] if
    /// the service dropped the session without answering.
    pub fn wait(self) -> Result<SessionResult, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }
}

/// The prepared-query service. See the crate docs for the architecture.
///
/// Dropping the service closes the queue, lets the workers drain every
/// already-submitted session, and joins them.
pub struct QueryService {
    catalog: Arc<Catalog>,
    config: ServiceConfig,
    registry: Arc<PreparedRegistry>,
    stats: Arc<Mutex<StatsInner>>,
    metrics: Arc<MetricsRegistry>,
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("workers", &self.workers.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl QueryService {
    /// Starts a service over `catalog`: spawns the worker pool, each
    /// worker generating its own deterministic database replica
    /// (identical across workers — same catalog, seed, and distribution).
    #[must_use]
    pub fn new(catalog: Catalog, config: ServiceConfig) -> QueryService {
        let catalog = Arc::new(catalog);
        let registry = Arc::new(PreparedRegistry::new(config.registry_capacity));
        let pool = MemoryPool::new(config.global_memory_bytes);
        let stats = Arc::new(Mutex::new(StatsInner::default()));
        let metrics = Arc::new(MetricsRegistry::new());
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let worker = Worker {
                    index,
                    catalog: Arc::clone(&catalog),
                    config: config.clone(),
                    registry: Arc::clone(&registry),
                    pool: Arc::clone(&pool),
                    stats: Arc::clone(&stats),
                    metrics: Arc::clone(&metrics),
                };
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker.run(&rx))
            })
            .collect();
        QueryService {
            catalog,
            config,
            registry,
            stats,
            metrics,
            tx: Some(tx),
            workers,
        }
    }

    /// The catalog the service serves.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a session and returns a handle to await or cancel it.
    /// The admission clock starts now: queue wait counts against the
    /// configured queue timeout, and any wall-clock budget in the
    /// session's [`ResourceLimits`] covers queue wait plus execution (a
    /// submission-to-completion latency bound).
    pub fn submit(&self, request: Request) -> SessionHandle {
        let limits = request.limits.unwrap_or(self.config.session_limits);
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits)
            .with_mode(self.config.exec_mode);
        let submitted = Instant::now();
        let (reply, rx) = mpsc::channel();
        let job = Job {
            request,
            ctx: ctx.clone(),
            submitted,
            deadline: submitted + Duration::from_millis(self.config.queue_timeout_ms),
            reply,
        };
        if let Some(tx) = &self.tx {
            // A send can only fail once workers are gone; the handle then
            // observes Shutdown.
            let _ = tx.send(job);
        }
        SessionHandle { rx, ctx }
    }

    /// Submits a request and blocks for its result.
    ///
    /// # Errors
    /// The session's [`ServiceError`].
    pub fn execute(&self, request: Request) -> Result<SessionResult, ServiceError> {
        self.submit(request).wait()
    }

    /// Submits every request up front — keeping all workers busy — then
    /// collects the results in request order.
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Result<SessionResult, ServiceError>> {
        let handles: Vec<SessionHandle> = requests.into_iter().map(|r| self.submit(r)).collect();
        handles.into_iter().map(SessionHandle::wait).collect()
    }

    /// Accounting snapshot across all sessions so far.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let inner = self.stats.lock();
        ServiceStats {
            totals: inner.totals,
            completed: inner.completed,
            failed: inner.failed,
            decision_hits: inner.decision_hits,
            decision_misses: inner.decision_misses,
            cached_plan_retries: inner.cached_plan_retries,
            feedback_invalidations: inner.feedback_invalidations,
            registry: self.registry.stats(),
        }
    }

    /// Metrics snapshot: latency and queue-wait histograms, refusal
    /// counters, plus the session/cache accounting of [`Self::stats`].
    #[must_use]
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.report(self.stats())
    }

    /// [`Self::metrics`] serialized as a JSON document.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// [`Self::metrics`] in Prometheus text exposition format.
    #[must_use]
    pub fn metrics_prom(&self) -> String {
        self.metrics().to_prometheus()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Closing the channel lets workers drain queued sessions and exit.
        self.tx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

struct Worker {
    index: usize,
    catalog: Arc<Catalog>,
    config: ServiceConfig,
    registry: Arc<PreparedRegistry>,
    pool: Arc<MemoryPool>,
    stats: Arc<Mutex<StatsInner>>,
    metrics: Arc<MetricsRegistry>,
}

impl Worker {
    fn run(&self, rx: &Mutex<Receiver<Job>>) {
        let dist = match self.config.skew {
            Some(exponent) => ValueDistribution::Zipf { exponent },
            None => ValueDistribution::Uniform,
        };
        let db = StoredDatabase::generate_with(&self.catalog, self.config.data_seed, dist);
        db.disk.set_io_latency_micros(self.config.io_latency_micros);
        let env = Environment::dynamic_compile_time(&self.catalog.config);
        loop {
            // Holding the lock only while blocked on recv: the next idle
            // worker takes over the queue as soon as a job is handed out.
            let job = match rx.lock().recv() {
                Ok(job) => job,
                Err(_) => return, // service dropped, queue drained
            };
            let queue_wait = job.submitted.elapsed();
            let result = self.session(&db, &env, &job, queue_wait);
            self.metrics.record_outcome(&result, job.submitted.elapsed());
            {
                let mut stats = self.stats.lock();
                match &result {
                    Ok(r) => {
                        stats.completed += 1;
                        stats.totals.accumulate(&r.summary);
                    }
                    Err(_) => stats.failed += 1,
                }
            }
            // A dropped handle just means nobody is waiting for the answer.
            let _ = job.reply.send(result);
        }
    }

    fn session(
        &self,
        db: &StoredDatabase,
        env: &Environment,
        job: &Job,
        queue_wait: Duration,
    ) -> Result<SessionResult, ServiceError> {
        let (stmt, statement_hit) = self.prepare(&job.request.sql, env)?;

        let binds: Vec<(&str, i64)> = job
            .request
            .binds
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let mut bindings = stmt.query.bindings(&binds).map_err(ServiceError::Bind)?;
        if let Some(pages) = job.request.memory_pages {
            bindings = bindings.with_memory(pages);
        }
        let memory_pages = bindings.memory_pages.unwrap_or_else(|| env.memory.expected());
        let memory_bytes = (memory_pages * self.catalog.config.page_size as f64) as u64;

        // Admission: the grant is held for the whole execution and
        // returned on drop (including every error path below). A
        // transient timeout gets one jittered retry, bounded by a tenth
        // of the queue timeout.
        let retry_extension = Duration::from_millis(self.config.queue_timeout_ms / 10);
        let (_grant, retried) =
            self.pool.acquire_retry(memory_bytes, job.deadline, retry_extension)?;
        if retried {
            self.metrics.record_admission_retry();
        }
        // Intra-query parallelism is rationed by the admitted grant:
        // the execution context shares the handle's counters and
        // governor (cancellation still works), only the DOP differs.
        let ctx = job
            .ctx
            .clone()
            .with_dop(self.config.effective_dop(memory_bytes));

        if let Some(faults) = &job.request.fault_plan {
            db.disk.set_fault_plan(faults.clone());
        }
        let io_before = db.disk.stats();
        let outcome = match self.config.reopt {
            Some(reopt_config) => {
                self.execute_reopt(db, env, &ctx, &stmt, &bindings, reopt_config)
            }
            None => {
                let key = region_key(
                    &stmt.query,
                    &self.catalog,
                    &bindings,
                    self.config.decision_buckets,
                    memory_pages,
                );
                let (decision, decision_hit) = match stmt.decision(&key) {
                    Some(cached) => (cached, true),
                    None => {
                        let startup = evaluate_startup_observed(
                            &stmt.plan,
                            &self.catalog,
                            env,
                            &bindings,
                            &stmt.observations(),
                        );
                        let fresh = CachedDecision {
                            resolved: startup.resolved,
                            predicted_seconds: startup.predicted_run_seconds,
                        };
                        stmt.store_decision(key.clone(), fresh.clone());
                        (fresh, false)
                    }
                };
                self.execute_arbitrated(db, env, &ctx, &stmt, &key, &decision, &bindings)
                    .map(|rows| (rows, decision.predicted_seconds, decision_hit))
            }
        };
        let io = db.disk.stats().since(&io_before);
        if job.request.fault_plan.is_some() {
            db.disk.set_fault_plan(FaultPlan::none());
        }
        let (rows, predicted_seconds, decision_hit) = outcome?;

        if stmt.record_feedback(rows, self.config.feedback_tolerance) {
            self.stats.lock().feedback_invalidations += 1;
        }
        {
            let mut stats = self.stats.lock();
            if decision_hit {
                stats.decision_hits += 1;
            } else {
                stats.decision_misses += 1;
            }
        }

        Ok(SessionResult {
            summary: ExecSummary {
                rows,
                cpu: job.ctx.counters.snapshot(),
                io,
                fallbacks: job.ctx.counters.fallbacks(),
                plan_cache: PlanCacheInfo {
                    statement_hit: Some(statement_hit),
                    decision_hit: Some(decision_hit),
                },
            },
            predicted_seconds,
            queue_wait,
            worker: self.index,
        })
    }

    /// Runs a session through the mid-query re-optimization driver. The
    /// decision cache is *fed*, not consulted: the driver gathers its own
    /// checkpoint observations, and every escape is pinned back onto the
    /// statement — clearing its cached decisions so later fast-path
    /// sessions arbitrate against the observed cardinalities.
    fn execute_reopt(
        &self,
        db: &StoredDatabase,
        env: &Environment,
        ctx: &ExecContext,
        stmt: &PreparedStatement,
        bindings: &Bindings,
        reopt_config: ReoptConfig,
    ) -> Result<(u64, f64, bool), ServiceError> {
        let ctx = ctx
            .clone()
            .with_reopt(Arc::new(ReoptState::new(reopt_config)));
        let exec = execute(
            &stmt.plan,
            db,
            &self.catalog,
            env,
            bindings,
            &ctx,
            Sink::Count,
        )
        .map_err(ServiceError::Exec)?;
        let mut predicted_seconds = 0.0;
        if let Some(outcome) = &exec.reopt {
            self.metrics.record_reopt(&outcome.report.counters);
            let escaped = outcome.report.escaped_observations();
            if !escaped.is_empty() {
                for (node, cardinality) in &escaped {
                    stmt.observe(*node, *cardinality);
                }
                self.stats.lock().feedback_invalidations += 1;
            }
            predicted_seconds = outcome.startup.predicted_run_seconds;
        }
        Ok((exec.summary.rows, predicted_seconds, false))
    }

    /// Registry lookup, or parse + optimize on a miss. The double-checked
    /// insert keeps one canonical [`PreparedStatement`] per text even when
    /// two workers prepare the same statement concurrently.
    fn prepare(
        &self,
        sql: &str,
        env: &Environment,
    ) -> Result<(Arc<PreparedStatement>, bool), ServiceError> {
        let normalized = normalize_sql(sql);
        if let Some(stmt) = self.registry.get(&normalized) {
            return Ok((stmt, true));
        }
        let query = parse_query(&normalized, &self.catalog)
            .map_err(|e| ServiceError::Sql(e.to_string()))?;
        let props = query.required_props();
        let plan = Optimizer::new(&self.catalog, env)
            .optimize_with_props(&query.expr, props)
            .map_err(|e| ServiceError::Optimizer(e.to_string()))?
            .plan;
        let stmt = Arc::new(PreparedStatement::new(normalized.clone(), query, plan));
        Ok((self.registry.insert(normalized, stmt), false))
    }

    /// Runs the arbitrated resolved plan. If a *cached* plan fails
    /// retryably (a storage fault, a refused memory reservation), the
    /// memoized decision is dropped and the session re-arbitrates through
    /// the full dynamic plan — whose choose-plan operators can then fall
    /// back alternative by alternative. The retry is accounted as one
    /// fallback: a preferred plan failed and execution degraded.
    #[allow(clippy::too_many_arguments)]
    fn execute_arbitrated(
        &self,
        db: &StoredDatabase,
        env: &Environment,
        ctx: &ExecContext,
        stmt: &PreparedStatement,
        key: &crate::decision::RegionKey,
        decision: &CachedDecision,
        bindings: &Bindings,
    ) -> Result<u64, ServiceError> {
        let run = |plan| execute(plan, db, &self.catalog, env, bindings, ctx, Sink::Count);
        match run(&decision.resolved) {
            Ok(exec) => Ok(exec.summary.rows),
            Err(e) if e.is_retryable() => {
                stmt.invalidate_decision(key);
                self.stats.lock().cached_plan_retries += 1;
                ctx.counters.add_fallbacks(1);
                run(&stmt.plan)
                    .map(|exec| exec.summary.rows)
                    .map_err(ServiceError::Exec)
            }
            Err(e) => Err(ServiceError::Exec(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{make_chain_catalog, SyntheticSpec, SystemConfig};

    fn chain_sql(n: usize) -> String {
        let from: Vec<String> = (1..=n).map(|i| format!("R{i}")).collect();
        let mut preds: Vec<String> =
            (1..n).map(|i| format!("R{i}.jr = R{}.jl", i + 1)).collect();
        preds.extend((1..=n).map(|i| format!("R{i}.a < :v{i}")));
        format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "))
    }

    fn service(workers: usize) -> QueryService {
        let catalog =
            make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        QueryService::new(
            catalog,
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn repeated_statement_hits_both_caches() {
        let svc = service(1);
        let sql = chain_sql(2);
        let first = svc.execute(Request::new(&sql, &[("v1", 500), ("v2", 500)])).unwrap();
        assert_eq!(first.summary.plan_cache.statement_hit, Some(false));
        assert_eq!(first.summary.plan_cache.decision_hit, Some(false));
        let second = svc.execute(Request::new(&sql, &[("v1", 510), ("v2", 505)])).unwrap();
        assert_eq!(second.summary.plan_cache.statement_hit, Some(true));
        assert_eq!(second.summary.plan_cache.decision_hit, Some(true), "nearby binding region");
        assert_eq!(first.summary.rows, svc.execute(Request::new(&sql, &[("v1", 500), ("v2", 500)])).unwrap().summary.rows);
        let stats = svc.stats();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.registry.misses, 1);
        assert_eq!(stats.registry.hits, 2);
    }

    #[test]
    fn distant_bindings_rerun_arbitration() {
        let svc = service(1);
        let sql = chain_sql(2);
        svc.execute(Request::new(&sql, &[("v1", 50), ("v2", 50)])).unwrap();
        let far = svc.execute(Request::new(&sql, &[("v1", 950), ("v2", 950)])).unwrap();
        assert_eq!(far.summary.plan_cache.statement_hit, Some(true));
        assert_eq!(far.summary.plan_cache.decision_hit, Some(false), "different region");
    }

    #[test]
    fn parse_errors_fail_the_session_only() {
        let svc = service(1);
        let err = svc.execute(Request::new("SELECT * FROM nosuch", &[])).unwrap_err();
        assert!(matches!(err, ServiceError::Sql(_)));
        let ok = svc.execute(Request::new(&chain_sql(2), &[("v1", 100), ("v2", 100)]));
        assert!(ok.is_ok(), "service still serves after a failed session");
        let stats = svc.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn oversized_grant_is_rejected_not_queued() {
        let catalog =
            make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        let svc = QueryService::new(
            catalog,
            ServiceConfig {
                workers: 1,
                global_memory_bytes: 4096,
                ..ServiceConfig::default()
            },
        );
        let mut request = Request::new(&chain_sql(2), &[("v1", 100), ("v2", 100)]);
        request.memory_pages = Some(1024.0);
        let err = svc.execute(request).unwrap_err();
        assert!(matches!(err, ServiceError::GrantTooLarge { .. }));
    }

    #[test]
    fn effective_dop_is_bounded_by_the_admitted_grant() {
        let config = ServiceConfig {
            dop: 8,
            ..ServiceConfig::default()
        };
        let page = dqep_storage::PAGE_SIZE as u64;
        assert_eq!(config.effective_dop(1024 * page), 8, "big grant: full dop");
        assert_eq!(config.effective_dop(32 * page), 2, "32 pages admit 2 workers");
        assert_eq!(config.effective_dop(page), 1, "tiny grant runs serial");
        let serial = ServiceConfig::default();
        assert_eq!(serial.effective_dop(1024 * page), 1, "dop off by default");
    }

    #[test]
    fn parallel_sessions_match_serial_results_and_accounting() {
        let sql = chain_sql(2);
        let binds = [("v1", 500i64), ("v2", 500i64)];
        let serial = service(1).execute(Request::new(&sql, &binds)).unwrap();
        let catalog =
            make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
        let svc = QueryService::new(
            catalog,
            ServiceConfig {
                workers: 2,
                dop: 4,
                ..ServiceConfig::default()
            },
        );
        let par = svc.execute(Request::new(&sql, &binds)).unwrap();
        assert_eq!(par.summary.rows, serial.summary.rows);
        assert_eq!(
            par.summary.cpu.records, serial.summary.cpu.records,
            "worker counters merge to the serial totals"
        );
        assert_eq!(par.summary.io.total(), serial.summary.io.total());
    }

    #[test]
    fn reopt_sessions_match_the_fast_path_and_export_counters() {
        let sql = chain_sql(2);
        let binds = [("v1", 100i64), ("v2", 900i64)];
        let mk = |reopt| {
            let catalog =
                make_chain_catalog(&SyntheticSpec::paper(2, 7), SystemConfig::paper_1994());
            QueryService::new(
                catalog,
                ServiceConfig {
                    workers: 1,
                    skew: Some(1.1),
                    reopt,
                    ..ServiceConfig::default()
                },
            )
        };
        let plain = mk(None).execute(Request::new(&sql, &binds)).unwrap();
        let svc = mk(Some(ReoptConfig::default()));
        let first = svc.execute(Request::new(&sql, &binds)).unwrap();
        assert_eq!(first.summary.rows, plain.summary.rows, "reopt preserves results");
        let second = svc.execute(Request::new(&sql, &binds)).unwrap();
        assert_eq!(second.summary.rows, plain.summary.rows);
        let report = svc.metrics();
        assert!(report.reopt_checkpoints >= 2, "each session observes its checkpoints: {report:?}");
        let doc = dqep_executor::parse_json(&svc.metrics_json()).unwrap();
        assert!(
            doc.get("reopt").and_then(|r| r.get("checkpoints")).is_some(),
            "reopt counters are exported"
        );
    }

    #[test]
    fn drop_drains_submitted_sessions() {
        let svc = service(2);
        let sql = chain_sql(2);
        let handles: Vec<SessionHandle> = (0..6)
            .map(|i| svc.submit(Request::new(&sql, &[("v1", 300 + i), ("v2", 400)])))
            .collect();
        drop(svc);
        for handle in handles {
            assert!(handle.wait().is_ok(), "queued sessions complete during shutdown");
        }
    }
}
