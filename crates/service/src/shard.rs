//! Sharded query execution: partitioned replicas, repartitioning network
//! exchange, and **per-shard** dynamic-plan arbitration.
//!
//! A [`ShardedService`] partitions every relation of one generated
//! database across `N` shard replicas (hash or range routing on a chosen
//! attribute). Each shard owns its own [`StoredDatabase`], its own
//! **local catalog statistics** (cardinalities refreshed and histograms
//! rebuilt from its partition alone), its own resource governor, and its
//! own tracer. The coordinator optimizes each query **once** into
//! dynamic per-relation access plans and broadcasts them; every shard
//! then resolves its *own* winner at bind time, because choose-plan
//! arbitration runs against the shard-local catalog. On skewed
//! partitions the shards legitimately disagree — a shard holding three
//! rows of a relation picks the index plan while a shard holding the
//! bulk scans — which is the paper's start-up-time decision procedure
//! applied per data partition. `force_uniform_winner` disables exactly
//! this: the coordinator resolves the plans against its *global*
//! statistics and broadcasts the already-resolved (choose-free) plans,
//! the baseline the shard benchmark beats.
//!
//! Joins run as hash-repartitioning exchange stages: both sides are
//! routed with the batched multiply-xor kernel
//! ([`dqep_executor::shard_route`]) on the first join key, so
//! co-partitioning is guaranteed by construction and the union of
//! shard-local joins is exactly the global join; further equi-join
//! predicates between the two sides are extra keys of the same join.
//! Batches travel as length-prefixed columnar frames over a simulated
//! network ([`SimNet`]) with per-link pacing, deterministic fault
//! injection, and credit-based backpressure; every byte is accounted.
//! The final gather merges order-preservingly (k-way merge by the
//! `ORDER BY` column) or deterministically concatenates in shard order.
//!
//! The data path is columnar end to end: access stages hand over the
//! executor root's [`RowBatch`]es ([`Sink::Batches`]), the scatter
//! extends per-destination batches column by column, received frames
//! stay decoded batches, the shard-local join is the executor's batch
//! hash join kernel ([`join_batches`]), the `ORDER BY` sort is a stable
//! permutation gathered column-wise, and the gather ships dense
//! [`BATCH_CAPACITY`]-row frames. Rows become tuples exactly once, when
//! the coordinator materializes [`ShardOutcome::rows`].

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use dqep_algebra::LogicalExpr;
use dqep_catalog::{AttrId, Catalog, RelationId};
use dqep_core::Optimizer;
use dqep_cost::{Bindings, Environment};
use dqep_executor::{
    credit_frames, decode_frame_traced, encode_frame_traced, execute, join_batches, journal,
    merge_distributed, presized_batch, scatter_by_shard, BuildSide, ChooseAudit, EventKind,
    ExecContext, ExecError, ExecMode, FrameTrace, JoinInput, LinkFaultPlan, NetChannel, NetConfig,
    NetSpanStats, NetStats, ReoptConfig, ReoptState, ResourceLimits, RowBatch, SharedCounters,
    SimNet, Sink, SpanId, SpanStats, TraceReport, Tracer, Tuple, TupleLayout, BATCH_CAPACITY,
    NO_ID,
};
use dqep_plan::{evaluate_startup, PlanNode};
use dqep_sql::{parse_query, ParsedPredicate};
use dqep_storage::{install_histograms, refresh_histograms, StoredDatabase, ValueDistribution};

use crate::error::ServiceError;
use crate::metrics::MetricsRegistry;

/// How base rows are placed on shards at load time. Repartitioning
/// exchanges always hash on the *join key* regardless — this only decides
/// the initial layout, and with it how skewed the per-shard statistics
/// come out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRouting {
    /// Hash the given attribute index through the batched multiply-xor
    /// kernel: near-uniform placement whatever the value distribution.
    Hash {
        /// Attribute index to hash (clamped to the relation's arity).
        attr: u32,
    },
    /// Contiguous ranges of the attribute's domain: shard
    /// `⌊value · N / domain⌋`. Under a skewed value distribution this
    /// deliberately produces *unequal* partitions — the setting where
    /// per-shard arbitration diverges from the global winner.
    Range {
        /// Attribute index to range-partition on (clamped to arity).
        attr: u32,
    },
}

impl ShardRouting {
    fn attr_index(self, arity: usize) -> usize {
        let attr = match self {
            ShardRouting::Hash { attr } | ShardRouting::Range { attr } => attr as usize,
        };
        attr.min(arity.saturating_sub(1))
    }
}

/// Tuning knobs of a [`ShardedService`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard replicas (minimum 1).
    pub shards: usize,
    /// Pacing of every inter-shard link.
    pub net: NetConfig,
    /// Deterministic link faults installed on the network at start.
    pub link_faults: LinkFaultPlan,
    /// Base-data placement policy.
    pub routing: ShardRouting,
    /// Buckets of the per-shard histograms (and the coordinator's).
    pub histogram_buckets: usize,
    /// Tuple or batch execution on every shard.
    pub exec_mode: ExecMode,
    /// Intra-shard degree of parallelism for local access plans.
    pub dop: usize,
    /// Per-shard resource budgets (each shard gets its own governor).
    pub limits: ResourceLimits,
    /// Simulated per-page I/O latency on every shard's disk, µs.
    pub io_latency_micros: u64,
    /// Seed of the deterministic global database the partitions are
    /// routed from.
    pub data_seed: u64,
    /// Zipf exponent applied to the *selection* attribute (index 0) of
    /// every relation; join attributes stay uniform. `None`: uniform.
    pub skew: Option<f64>,
    /// Memory grant in pages for bind-time arbitration (`None`: the
    /// environment's expected grant). Each shard arbitrates and executes
    /// under this grant independently — a shard is its own node.
    pub memory_pages: Option<f64>,
    /// Mid-query re-optimization budget for the per-shard access stages;
    /// `None` (default) arbitrates once at bind time.
    pub reopt: Option<ReoptConfig>,
    /// Resolve every choose-plan at the coordinator against the global
    /// statistics and broadcast the resolved plan — the "single-node
    /// winner everywhere" baseline. Default `false`: per-shard winners.
    pub force_uniform_winner: bool,
    /// Record a full distributed trace: coordinator and shard operator
    /// spans plus network-exchange spans, merged into one connected
    /// timeline in [`ShardOutcome::trace`]. Default `false`: shards run
    /// audit-only tracers (arbitration audits still flow, no per-operator
    /// wrapper cost).
    pub trace: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 2,
            net: NetConfig::default(),
            link_faults: LinkFaultPlan::none(),
            routing: ShardRouting::Hash { attr: 0 },
            histogram_buckets: 16,
            exec_mode: ExecMode::default(),
            dop: 1,
            limits: ResourceLimits::unlimited(),
            io_latency_micros: 0,
            data_seed: 42,
            skew: None,
            memory_pages: None,
            reopt: None,
            force_uniform_winner: false,
            trace: false,
        }
    }
}

/// One shard replica: its partition of the data plus its local view of
/// the statistics.
#[derive(Debug)]
pub struct Shard {
    /// The shard's partition, with all catalog indexes built.
    pub db: StoredDatabase,
    /// The shard-local catalog: global schema, **local** cardinalities
    /// and histograms. This is what makes per-shard arbitration differ —
    /// the same dynamic plan costed against different statistics.
    pub catalog: Catalog,
}

/// What one sharded query returns.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The merged result rows, in [`ShardOutcome::layout`] order.
    pub rows: Vec<Tuple>,
    /// Column layout of the result: the query's relations concatenated
    /// in `FROM` order (the canonical layout parity tests remap to).
    pub layout: TupleLayout,
    /// Result rows contributed by each shard.
    pub per_shard_rows: Vec<u64>,
    /// Choose-plan audit trails per shard, in arbitration order. Audits
    /// for the same plan node carry the same `node` id on every shard,
    /// so winners are comparable across shards.
    pub audits: Vec<Vec<ChooseAudit>>,
    /// Plan nodes whose winning alternative differed between shards.
    pub divergent_nodes: Vec<u64>,
    /// Wire traffic of this query alone (cross-shard + gather frames).
    pub net: NetStats,
    /// Per-link wire traffic of this query, in deterministic link order
    /// (stage by stage, then the gather links). Only links that carried
    /// at least one transmission appear.
    pub links: Vec<LinkTraffic>,
    /// Retryable failures absorbed across all shards (choose-plan
    /// fallbacks plus chunked-join degradations).
    pub fallbacks: u64,
    /// The merged distributed trace (coordinator + every shard + network
    /// exchange spans), present when [`ShardConfig::trace`] was set.
    pub trace: Option<TraceReport>,
}

/// One link's wire traffic for one query. Channels are created fresh per
/// query, so the channel counters *are* the query's per-link delta.
#[derive(Debug, Clone, Copy)]
pub struct LinkTraffic {
    /// Sending node (shards `0..n`; the coordinator is node `n`).
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// The link's traffic counters.
    pub stats: NetStats,
}

impl ShardOutcome {
    /// How often each alternative index won a per-shard arbitration.
    #[must_use]
    pub fn winner_counts(&self) -> BTreeMap<usize, u64> {
        let mut counts = BTreeMap::new();
        for audit in self.audits.iter().flatten() {
            if let Some(w) = audit.winner {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Whether at least one choose node resolved differently on
    /// different shards.
    #[must_use]
    pub fn divergent(&self) -> bool {
        !self.divergent_nodes.is_empty()
    }
}

/// The distributed form of one parsed query: per-relation dynamic access
/// plans plus the repartitioning join chain gluing them together.
struct DistPlan {
    rels: Vec<RelationId>,
    access: Vec<Arc<PlanNode>>,
    joins: Vec<JoinStage>,
    order_by: Option<AttrId>,
}

/// One repartitioning join stage: the accumulated left side joins
/// `rels[index + 1]` on every `(left, right)` equi-join predicate between
/// the two sides. Both sides repartition on the first pair; the others
/// (residual predicates) are further keys of the same hash join.
struct JoinStage {
    keys: Vec<(AttrId, AttrId)>,
}

/// Per-stage channel fan-out/fan-in of one shard. `None` marks the
/// shard's own slot (self-partitions never touch the wire).
struct StageWires {
    left_out: Vec<Option<NetChannel>>,
    left_in: Vec<Option<NetChannel>>,
    right_out: Vec<Option<NetChannel>>,
    right_in: Vec<Option<NetChannel>>,
}

struct ShardWires {
    stages: Vec<StageWires>,
    gather: NetChannel,
}

/// Accumulates the receive side of one link so a single receive span can
/// be recorded once the link drains: row/batch totals plus the first
/// propagated remote span id recovered from the frame headers.
#[derive(Default)]
struct RecvTrace {
    rows: u64,
    batches: u64,
    remote: Option<u64>,
}

impl RecvTrace {
    fn observe(&mut self, batch: &RowBatch, ft: FrameTrace) {
        self.rows += batch.len() as u64;
        self.batches += 1;
        if self.remote.is_none() {
            self.remote = ft.span;
        }
    }

    /// Records the receive span under `parent` when any frame arrived.
    /// Receive spans carry no byte accounting (the send side owns it, so
    /// totals never double count) — just the delivered rows and the
    /// propagated remote span.
    fn flush(&self, tracer: &Tracer, parent: Option<SpanId>, ch: &NetChannel) {
        if self.batches == 0 || !tracer.records_spans() {
            return;
        }
        let span = tracer.span(
            format!("Net-Recv {}<-{}", ch.to_node(), ch.from_node()),
            "Net-Recv",
            None,
            None,
            parent,
            1,
        );
        tracer.merge_span(
            span,
            &SpanStats { rows: self.rows, batches: self.batches, ..SpanStats::default() },
        );
        tracer.set_net(
            span,
            NetSpanStats {
                from: ch.from_node(),
                to: ch.to_node(),
                sent: false,
                remote_span: self.remote,
                ..NetSpanStats::default()
            },
        );
    }
}

/// What a shard worker reports back besides the rows it pushed over its
/// gather link.
struct ShardRun {
    rows_out: u64,
    fallbacks: u64,
    /// Audits synthesized from start-up decisions on the re-optimizing
    /// path (where resolved plans carry no choose operators to audit).
    synth_audits: Vec<ChooseAudit>,
}

/// A sharded query service: `N` partitioned replicas joined by a
/// simulated repartitioning network, with per-shard bind-time
/// arbitration. See the module docs for the architecture.
pub struct ShardedService {
    catalog: Catalog,
    env: Environment,
    config: ShardConfig,
    shards: Vec<Shard>,
    net: SimNet,
    metrics: Arc<MetricsRegistry>,
    completed: std::sync::atomic::AtomicU64,
    failed: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ShardedService {
    /// Builds the service: generates the global database
    /// deterministically, routes every relation's rows to its shard,
    /// loads each partition with all indexes, and refreshes each shard's
    /// catalog statistics (cardinalities *and* histograms) from its
    /// partition alone. The coordinator keeps global statistics with
    /// histograms over the full data.
    ///
    /// # Panics
    /// Panics when the catalog's page size differs from the storage page
    /// size (misconfiguration, same contract as database generation).
    #[must_use]
    pub fn new(mut catalog: Catalog, config: ShardConfig) -> ShardedService {
        let shards = config.shards.max(1);
        let dist = config.skew.map_or(ValueDistribution::Uniform, |exponent| {
            ValueDistribution::Zipf { exponent }
        });
        // Skew only the selection attribute; join columns stay uniform so
        // estimation error is localized where the routing can see it.
        let global = StoredDatabase::generate_profiled(&catalog, config.data_seed, |_, ai| {
            if ai == 0 {
                dist
            } else {
                ValueDistribution::Uniform
            }
        });
        install_histograms(&global, &mut catalog, config.histogram_buckets)
            .unwrap_or_else(|e| unreachable!("fresh disk cannot fault: {e}"));

        let rows = global.export_rows();
        let parts = partition_rows(&catalog, &rows, config.routing, shards);
        let shards: Vec<Shard> = parts
            .iter()
            .map(|part| {
                let db = StoredDatabase::from_rows(&catalog, part);
                db.disk.set_io_latency_micros(config.io_latency_micros);
                let mut local = catalog.clone();
                db.refresh_stats(&mut local);
                refresh_histograms(&db, &mut local, config.histogram_buckets);
                Shard { db, catalog: local }
            })
            .collect();

        let net = SimNet::new(config.net);
        net.set_link_faults(config.link_faults.clone());
        let env = Environment::dynamic_compile_time(&catalog.config);
        ShardedService {
            catalog,
            env,
            config,
            shards,
            net,
            metrics: Arc::new(MetricsRegistry::new()),
            completed: std::sync::atomic::AtomicU64::new(0),
            failed: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The coordinator's (global-statistics) catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shard replicas, for inspection in tests and benchmarks.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shared metrics registry (cross-shard traffic, queue-wait,
    /// winner counts accumulate here across queries).
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Replaces the link fault plan for subsequent queries.
    pub fn set_link_faults(&self, plan: LinkFaultPlan) {
        self.net.set_link_faults(plan);
    }

    /// The metrics snapshot — the same schema the serving layer exports,
    /// with the `shard` section populated (cross-shard traffic, per-link
    /// queue-wait histogram, winner counts, divergence).
    #[must_use]
    pub fn metrics_report(&self) -> crate::MetricsReport {
        use std::sync::atomic::Ordering;
        let stats = crate::ServiceStats {
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            ..crate::ServiceStats::default()
        };
        self.metrics.report(stats)
    }

    /// [`Self::metrics_report`] serialized as a JSON document.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.metrics_report().to_json()
    }

    /// [`Self::metrics_report`] in Prometheus text exposition format.
    #[must_use]
    pub fn metrics_prom(&self) -> String {
        self.metrics_report().to_prometheus()
    }

    /// Parses, distributes, and executes one query across all shards.
    ///
    /// # Errors
    /// [`ServiceError::Sql`] / [`ServiceError::Optimizer`] /
    /// [`ServiceError::Bind`] for coordinator-side failures;
    /// [`ServiceError::Exec`] when any shard fails (network faults past
    /// the retransmission budget included).
    pub fn execute(&self, sql: &str, binds: &[(&str, i64)]) -> Result<ShardOutcome, ServiceError> {
        let query = parse_query(sql, &self.catalog).map_err(|e| ServiceError::Sql(e.to_string()))?;
        let mut bindings = query.bindings(binds).map_err(ServiceError::Bind)?;
        if let Some(pages) = self.config.memory_pages {
            bindings = bindings.with_memory(pages);
        }
        let plan = self.distribute(&query.expr, &query.predicates, query.order_by, &bindings)?;
        let outcome = self.run(&plan, &bindings);
        match &outcome {
            Ok(ok) => {
                for audit in ok.audits.iter().flatten() {
                    if let Some(w) = audit.winner {
                        self.metrics.record_shard_winner(w);
                    }
                }
                self.metrics.record_shard_query(ok.divergent_nodes.len() as u64);
                self.metrics.record_net(&ok.net);
                self.completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            Err(e) => {
                self.metrics.record_shard_query(0);
                self.metrics.classify_failure(e);
                self.failed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Splits the query into per-relation dynamic access plans (optimized
    /// once, at the coordinator) and the join chain between them.
    fn distribute(
        &self,
        expr: &LogicalExpr,
        predicates: &[ParsedPredicate],
        order_by: Option<AttrId>,
        bindings: &Bindings,
    ) -> Result<DistPlan, ServiceError> {
        let mut rels = Vec::new();
        collect_relations(expr, &mut rels);

        let optimizer = Optimizer::new(&self.catalog, &self.env);
        let mut access = Vec::with_capacity(rels.len());
        for &rel in &rels {
            let mut node = LogicalExpr::Get { relation: rel };
            for pred in predicates {
                if let ParsedPredicate::Select(sp) = pred {
                    if sp.attr.relation == rel {
                        node = LogicalExpr::Select {
                            input: Box::new(node),
                            predicate: *sp,
                        };
                    }
                }
            }
            let mut plan = optimizer
                .optimize(&node)
                .map_err(|e| ServiceError::Optimizer(e.to_string()))?
                .plan;
            if self.config.force_uniform_winner {
                // The baseline: one global arbitration, broadcast resolved.
                plan = evaluate_startup(&plan, &self.catalog, &self.env, bindings).resolved;
            }
            access.push(plan);
        }

        let mut joins = Vec::with_capacity(rels.len().saturating_sub(1));
        for i in 1..rels.len() {
            let joined = &rels[..i];
            let next = rels[i];
            let mut applicable: Vec<(AttrId, AttrId)> = Vec::new();
            for pred in predicates {
                if let ParsedPredicate::Join(jp) = pred {
                    if joined.contains(&jp.left.relation) && jp.right.relation == next {
                        applicable.push((jp.left, jp.right));
                    } else if joined.contains(&jp.right.relation) && jp.left.relation == next {
                        applicable.push((jp.right, jp.left));
                    }
                }
            }
            if applicable.is_empty() {
                return Err(ServiceError::Sql(format!(
                    "sharded execution needs an equi-join predicate connecting relation {next} \
                     to the preceding FROM relations (cross products are not distributed)"
                )));
            }
            joins.push(JoinStage { keys: applicable });
        }
        Ok(DistPlan { rels, access, joins, order_by })
    }

    /// Runs the distributed plan: one worker thread per shard, the
    /// coordinator draining the gather links on the current thread.
    fn run(&self, plan: &DistPlan, bindings: &Bindings) -> Result<ShardOutcome, ServiceError> {
        let n = self.shards.len();
        let net_before = self.net.stats();
        let (mut wires, gather_rx, link_handles) = self.wire_up(plan, n);
        // With tracing on, the coordinator owns the trace id and every
        // shard tracer joins it; off, shards run audit-only tracers so
        // arbitration audits still flow with no per-operator span cost.
        let coord_tracer = self.config.trace.then(|| Arc::new(Tracer::new()));
        let coord_root = coord_tracer.as_ref().map(|t| {
            t.span(format!("Coordinator x{n}"), "Coordinator", None, None, None, 1)
        });
        let tracers: Vec<Arc<Tracer>> = (0..n)
            .map(|_| match coord_tracer.as_ref() {
                Some(coord) => Arc::new(Tracer::with_trace_id(coord.trace_id())),
                None => Arc::new(Tracer::audit_only()),
            })
            .collect();

        let (runs, per_shard) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (s, shard) in self.shards.iter().enumerate() {
                let shard_wires = wires.remove(0);
                let tracer = Arc::clone(&tracers[s]);
                let metrics = Arc::clone(&self.metrics);
                let (env, config) = (&self.env, &self.config);
                handles.push(scope.spawn(move || {
                    let result = run_shard(
                        s,
                        shard,
                        plan,
                        &shard_wires,
                        env,
                        bindings,
                        config,
                        tracer,
                        &metrics,
                    );
                    // Whatever happened, unblock every peer: close this
                    // shard's fan-in and fan-out (idempotent), so neither
                    // senders nor receivers wait on a dead shard.
                    for stage in &shard_wires.stages {
                        for ch in stage
                            .left_out
                            .iter()
                            .chain(&stage.left_in)
                            .chain(&stage.right_out)
                            .chain(&stage.right_in)
                            .flatten()
                        {
                            ch.close();
                        }
                    }
                    shard_wires.gather.close();
                    result
                }));
            }

            // The coordinator gathers while the shards run; draining one
            // link fully before the next keeps the merge deterministic.
            let mut per_shard: Vec<Result<Vec<RowBatch>, ExecError>> = Vec::with_capacity(n);
            for rx in &gather_rx {
                let mut batches = Vec::new();
                let received = receive(rx, coord_tracer.as_deref(), coord_root, &mut batches);
                per_shard.push(received.map(|()| batches));
            }
            let runs: Vec<Result<ShardRun, ExecError>> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(ExecError::Network("shard worker panicked".into())))
                })
                .collect();
            (runs, per_shard)
        });

        let mut shard_rows = Vec::with_capacity(n);
        let mut fallbacks = 0;
        let mut audits: Vec<Vec<ChooseAudit>> = Vec::with_capacity(n);
        for (s, run) in runs.into_iter().enumerate() {
            let run = run.map_err(ServiceError::Exec)?;
            let rows = match per_shard[s].as_ref() {
                Ok(batches) => live_rows(batches),
                Err(e) => return Err(ServiceError::Exec(e.clone())),
            };
            debug_assert_eq!(rows, run.rows_out, "gather lost frames");
            fallbacks += run.fallbacks;
            let mut shard_audits = tracers[s].report().audits;
            shard_audits.extend(run.synth_audits);
            audits.push(shard_audits);
            shard_rows.push(rows);
        }
        let per_shard: Vec<Vec<RowBatch>> = per_shard
            .into_iter()
            .map(|r| r.unwrap_or_default()) // errors already returned above
            .collect();

        // The one place rows become tuples: the public result.
        let layout = canonical_layout(&self.catalog, &plan.rels);
        let rows = match plan.order_by {
            Some(attr) => kway_merge(&per_shard, layout.require(attr)),
            None => {
                let mut rows = Vec::with_capacity(shard_rows.iter().sum::<u64>() as usize);
                rows.extend(per_shard.iter().flatten().flat_map(RowBatch::iter));
                rows
            }
        };

        let mut winners_by_node: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        for audit in audits.iter().flatten() {
            if let Some(w) = audit.winner {
                winners_by_node.entry(audit.node).or_default().insert(w);
            }
        }
        let divergent_nodes: Vec<u64> = winners_by_node
            .iter()
            .filter(|(_, winners)| winners.len() > 1)
            .map(|(&node, _)| node)
            .collect();
        let trace_id = coord_tracer.as_ref().map_or(0, |t| t.trace_id());
        for (&node, winners) in &winners_by_node {
            if winners.len() > 1 {
                journal().record(
                    EventKind::ShardDivergence,
                    trace_id,
                    NO_ID,
                    node,
                    winners.len() as u64,
                    NO_ID,
                );
            }
        }

        // Per-link deltas: channels are created fresh per query, so each
        // channel's own counters are exactly this query's traffic.
        let links: Vec<LinkTraffic> = link_handles
            .iter()
            .map(|ch| LinkTraffic { from: ch.from_node(), to: ch.to_node(), stats: ch.stats() })
            .filter(|l| l.stats.frames > 0 || l.stats.bytes > 0)
            .collect();

        // The merged timeline: the coordinator's spans (root + gather
        // receives) plus every shard's report, re-parented under the
        // coordinator root. Synthesized re-opt audits stay out of the
        // merged report (they carry no alternatives); they remain in
        // `ShardOutcome::audits` for winner accounting.
        let trace = coord_tracer
            .as_ref()
            .map(|coord| {
                let shard_reports: Vec<TraceReport> =
                    tracers.iter().map(|t| t.report()).collect();
                merge_distributed(&coord.report(), &shard_reports)
            });

        Ok(ShardOutcome {
            rows,
            layout,
            per_shard_rows: shard_rows,
            audits,
            divergent_nodes,
            net: self.net.stats().since(&net_before),
            links,
            fallbacks,
            trace,
        })
    }

    /// Creates the full channel matrix: per join stage, a left-side and a
    /// right-side link for every ordered shard pair, plus one gather link
    /// per shard to the coordinator (node `n`). Channel credits are
    /// pre-sized from the coordinator's cardinality estimates — the same
    /// `estimated_rows` pre-sizing the in-memory exchange applies to its
    /// merge buffer.
    fn wire_up(
        &self,
        plan: &DistPlan,
        n: usize,
    ) -> (Vec<ShardWires>, Vec<NetChannel>, Vec<NetChannel>) {
        let mut wires: Vec<ShardWires> = (0..n)
            .map(|s| ShardWires {
                stages: (0..plan.joins.len())
                    .map(|_| StageWires {
                        left_out: (0..n).map(|_| None).collect(),
                        left_in: (0..n).map(|_| None).collect(),
                        right_out: (0..n).map(|_| None).collect(),
                        right_in: (0..n).map(|_| None).collect(),
                    })
                    .collect(),
                gather: self.net.channel(s, n, credit_frames(None)),
            })
            .collect();
        let gather_rx: Vec<NetChannel> = wires.iter().map(|w| w.gather.clone()).collect();
        // Keep a clone of every channel in deterministic order so the
        // coordinator can read per-link deltas after the query finishes.
        let mut links: Vec<NetChannel> = Vec::new();
        for (j, _) in plan.joins.iter().enumerate() {
            // The right side of stage j is base relation j+1: its scan
            // cardinality is known, and each of the n² links carries
            // roughly a 1/n² share of it.
            let right_card = self.catalog.relation(plan.rels[j + 1]).stats.cardinality;
            let per_link = (right_card / (n * n).max(1) as u64).max(1);
            for from in 0..n {
                for to in 0..n {
                    if from == to {
                        continue;
                    }
                    let left = self.net.channel(from, to, credit_frames(None));
                    links.push(left.clone());
                    wires[to].stages[j].left_in[from] = Some(left.clone());
                    wires[from].stages[j].left_out[to] = Some(left);
                    let right = self.net.channel(from, to, credit_frames(Some(per_link)));
                    links.push(right.clone());
                    wires[to].stages[j].right_in[from] = Some(right.clone());
                    wires[from].stages[j].right_out[to] = Some(right);
                }
            }
        }
        links.extend(gather_rx.iter().cloned());
        (wires, gather_rx, links)
    }
}

/// The result layout: the query's relations concatenated in `FROM`
/// order. The distributed join chain produces exactly this order on
/// every shard.
fn canonical_layout(catalog: &Catalog, rels: &[RelationId]) -> TupleLayout {
    let mut layout = TupleLayout::base(catalog, rels[0]);
    for &rel in &rels[1..] {
        layout = layout.concat(&TupleLayout::base(catalog, rel));
    }
    layout
}

fn collect_relations(expr: &LogicalExpr, out: &mut Vec<RelationId>) {
    match expr {
        LogicalExpr::Get { relation } => out.push(*relation),
        LogicalExpr::Select { input, .. } => collect_relations(input, out),
        LogicalExpr::Join { left, right, .. } => {
            collect_relations(left, out);
            collect_relations(right, out);
        }
    }
}

/// Order-preserving k-way merge of per-shard runs of batches already
/// sorted on column `key`, materializing the merged rows; ties resolve by
/// shard index, so the merge is fully deterministic.
fn kway_merge(runs: &[Vec<RowBatch>], key: usize) -> Vec<Tuple> {
    let total: u64 = runs.iter().map(|run| live_rows(run)).sum();
    // Per run: (batch, live position within it).
    let mut heads = vec![(0usize, 0usize); runs.len()];
    let mut out = Vec::with_capacity(total as usize);
    loop {
        let mut best: Option<(i64, usize, usize)> = None;
        for (s, run) in runs.iter().enumerate() {
            let (b, pos) = &mut heads[s];
            while run.get(*b).is_some_and(|batch| *pos >= batch.len()) {
                (*b, *pos) = (*b + 1, 0);
            }
            let Some(batch) = run.get(*b) else { continue };
            let phys = batch.selection().map_or(*pos, |sel| sel[*pos] as usize);
            let k = batch.column(key)[phys];
            if best.is_none_or(|(bk, _, _)| k < bk) {
                best = Some((k, s, phys));
            }
        }
        let Some((_, s, phys)) = best else { break };
        let (b, pos) = &mut heads[s];
        out.push(runs[s][*b].row_vec(phys));
        *pos += 1;
    }
    out
}

/// Live rows across `batches`.
fn live_rows(batches: &[RowBatch]) -> u64 {
    batches.iter().map(|b| b.len() as u64).sum()
}

/// The body of one shard worker: local access stages with shard-local
/// arbitration, repartitioning joins, optional local sort, gather.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    s: usize,
    shard: &Shard,
    plan: &DistPlan,
    wires: &ShardWires,
    env: &Environment,
    bindings: &Bindings,
    config: &ShardConfig,
    tracer: Arc<Tracer>,
    metrics: &MetricsRegistry,
) -> Result<ShardRun, ExecError> {
    // With tracing on, everything the shard does — operators, sends,
    // receives — nests under one per-shard root span; the coordinator
    // re-parents these roots under its own when merging.
    let root = tracer
        .records_spans()
        .then(|| tracer.span(format!("Shard {s}"), "Shard", None, None, None, config.dop.max(1)));
    let mut ctx = ExecContext::with_limits(SharedCounters::new(), config.limits)
        .with_mode(config.exec_mode)
        .with_dop(config.dop)
        .with_tracer(Arc::clone(&tracer));
    if let Some(root) = root {
        ctx = ctx.with_span_parent(root);
    }
    let mut synth_audits = Vec::new();

    let mut current = run_access(
        shard,
        &plan.access[0],
        env,
        bindings,
        config,
        &ctx,
        metrics,
        &mut synth_audits,
    )?;
    let mut layout = TupleLayout::base(&shard.catalog, plan.rels[0]);

    for (j, stage) in plan.joins.iter().enumerate() {
        let right_rel = plan.rels[j + 1];
        let right = run_access(
            shard,
            &plan.access[j + 1],
            env,
            bindings,
            config,
            &ctx,
            metrics,
            &mut synth_audits,
        )?;
        let right_layout = TupleLayout::base(&shard.catalog, right_rel);
        let keys: Vec<(usize, usize)> = stage
            .keys
            .iter()
            .map(|&(la, ra)| (layout.require(la), right_layout.require(ra)))
            .collect();
        let (lkey, rkey) = keys[0];

        let stage_wires = &wires.stages[j];
        let left_mine = repartition(
            s,
            &current,
            layout.width(),
            lkey,
            &stage_wires.left_out,
            &stage_wires.left_in,
            metrics,
            &tracer,
            root,
        )?;
        let right_mine = repartition(
            s,
            &right,
            right_layout.width(),
            rkey,
            &stage_wires.right_out,
            &stage_wires.right_in,
            metrics,
            &tracer,
            root,
        )?;
        let left_in = JoinInput {
            batches: &left_mine,
            width: layout.width(),
        };
        let right_in = JoinInput {
            batches: &right_mine,
            width: right_layout.width(),
        };
        current = traced_stage(
            &ctx,
            root,
            "Hash-Join",
            || format!("Hash-Join[stage {j}]"),
            || local_hash_join(left_in, right_in, &keys, &ctx),
            |joined| joined,
        )?;
        layout = layout.concat(&right_layout);
    }

    if let Some(attr) = plan.order_by {
        let (c, width) = (layout.require(attr), layout.width());
        current = traced_stage(
            &ctx,
            root,
            "Sort",
            || format!("Sort[#{c}]"),
            || Ok(sort_order(&current, c)),
            |order| gather_sorted(&current, &order, width),
        )?;
    }

    send_rows(&wires.gather, &current, layout.width(), metrics, &tracer, root)?;
    Ok(ShardRun {
        rows_out: live_rows(&current),
        fallbacks: ctx.counters.fallbacks(),
        synth_audits,
    })
}

/// Runs one blocking shard-local operator — the join or the `ORDER BY`
/// sort — in two phases: `open` does the work, `next` delivers the
/// output batches. When the context's tracer records spans, the operator
/// gets a span of `kind` under `parent` (the shard root) with the two
/// phases' wall times, its output rows and batches, and the CPU counters
/// it charged, so a traced run attributes its time like an executor
/// operator's.
fn traced_stage<T>(
    ctx: &ExecContext,
    parent: Option<SpanId>,
    kind: &'static str,
    label: impl FnOnce() -> String,
    open: impl FnOnce() -> Result<T, ExecError>,
    next: impl FnOnce(T) -> Vec<RowBatch>,
) -> Result<Vec<RowBatch>, ExecError> {
    let Some(tracer) = ctx.tracer.as_ref().filter(|t| t.records_spans()) else {
        return open().map(next);
    };
    let span = tracer.span(label(), kind, None, None, parent, 1);
    let cpu_before = ctx.counters.snapshot();
    let elapsed_ns = |t: Instant| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let started = Instant::now();
    let opened = open();
    let mut stats = SpanStats {
        opens: 1,
        open_wall_ns: elapsed_ns(started),
        ..SpanStats::default()
    };
    let result = opened.map(|state| {
        let started = Instant::now();
        let out = next(state);
        stats.next_wall_ns = elapsed_ns(started);
        stats.rows = live_rows(&out);
        stats.batches = out.len() as u64;
        out
    });
    stats.errors = u64::from(result.is_err());
    stats.cpu = ctx.counters.snapshot().since(&cpu_before);
    stats.mem_peak = ctx.governor.memory_peak();
    tracer.merge_span(span, &stats);
    result
}

/// The `ORDER BY` permutation: every live row of `batches` as (key,
/// batch, physical row), stably sorted on column `key` — rows with equal
/// keys keep their arrival order.
fn sort_order(batches: &[RowBatch], key: usize) -> Vec<(i64, u32, u32)> {
    let mut order = Vec::with_capacity(live_rows(batches) as usize);
    for (b, batch) in batches.iter().enumerate() {
        let col = batch.column(key);
        order.extend(
            batch
                .selected_indices()
                .map(|i| (col[i], b as u32, i as u32)),
        );
    }
    order.sort_by_key(|&(k, _, _)| k);
    order
}

/// Gathers `batches` in permutation `order` into dense batches of
/// [`BATCH_CAPACITY`] rows, column by column.
fn gather_sorted(batches: &[RowBatch], order: &[(i64, u32, u32)], width: usize) -> Vec<RowBatch> {
    order
        .chunks(BATCH_CAPACITY)
        .map(|chunk| {
            let mut out = RowBatch::with_capacity(width, chunk.len());
            out.extend_rows_with(chunk.len(), |cols| {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.extend(
                        chunk
                            .iter()
                            .map(|&(_, b, i)| batches[b as usize].column(c)[i as usize]),
                    );
                }
            });
            out
        })
        .collect()
}

/// Runs one per-relation access plan locally. The plan still carries its
/// choose operators (unless the coordinator pre-resolved them), so
/// executing against the *shard's* catalog is what turns bind-time
/// arbitration into a per-shard decision — the audit lands in the
/// shard's tracer. With re-optimization enabled, the access stage runs
/// with a fresh [`ReoptState`] on its context, and the start-up
/// decisions are synthesized into audits.
#[allow(clippy::too_many_arguments)]
fn run_access(
    shard: &Shard,
    plan: &Arc<PlanNode>,
    env: &Environment,
    bindings: &Bindings,
    config: &ShardConfig,
    ctx: &ExecContext,
    metrics: &MetricsRegistry,
    synth_audits: &mut Vec<ChooseAudit>,
) -> Result<Vec<RowBatch>, ExecError> {
    let ctx = match config.reopt {
        Some(reopt) => ctx.clone().with_reopt(Arc::new(ReoptState::new(reopt))),
        None => ctx.clone(),
    };
    let exec = execute(
        plan,
        &shard.db,
        &shard.catalog,
        env,
        bindings,
        &ctx,
        Sink::Batches,
    )?;
    if let Some(outcome) = &exec.reopt {
        metrics.record_reopt(&outcome.report.counters);
        for d in &outcome.startup.decisions {
            synth_audits.push(ChooseAudit {
                node: d.choose_plan.0,
                bind_values: Vec::new(),
                memory_pages: bindings.memory_pages,
                alternatives: Vec::new(),
                preferred: d.chosen_index,
                attempts: Vec::new(),
                winner: Some(d.chosen_index),
                fallbacks: 0,
            });
        }
    }
    Ok(exec.batches)
}

/// One repartitioning exchange: hash-scatters `batches` on `key` across
/// all shards, sending cross-shard partitions as columnar frames and
/// keeping the self-partition local. Returns this shard's partition as
/// batches: the received ones (link by link, in arrival order), then the
/// local ones. A dedicated sender thread keeps this shard receiving while
/// it sends, so bounded credits can never deadlock the all-to-all:
/// receivers are always live, and the sender closes its links the moment
/// it finishes.
#[allow(clippy::too_many_arguments)]
fn repartition(
    s: usize,
    batches: &[RowBatch],
    width: usize,
    key: usize,
    outs: &[Option<NetChannel>],
    ins: &[Option<NetChannel>],
    metrics: &MetricsRegistry,
    tracer: &Arc<Tracer>,
    parent: Option<SpanId>,
) -> Result<Vec<RowBatch>, ExecError> {
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let result = send_partitions(s, batches, width, key, outs, metrics, tracer, parent);
            for ch in outs.iter().flatten() {
                ch.close();
            }
            result
        });
        let mut mine: Vec<RowBatch> = Vec::new();
        let mut recv_err: Option<ExecError> = None;
        for ch in ins.iter().flatten() {
            if let Err(e) = receive(ch, Some(tracer), parent, &mut mine) {
                recv_err.get_or_insert(e);
            }
        }
        let local = sender
            .join()
            .unwrap_or_else(|_| Err(ExecError::Network("repartition sender panicked".into())))?;
        if let Some(e) = recv_err {
            return Err(e);
        }
        mine.extend(local);
        Ok(mine)
    })
}

/// Drains one incoming link, appending its decoded batches to `out`.
/// After a malformed frame the link is still drained, so its sender never
/// blocks on a dead receiver, and the first error is returned. When
/// `tracer` records spans, the link's receive span lands under `parent`.
fn receive(
    ch: &NetChannel,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    out: &mut Vec<RowBatch>,
) -> Result<(), ExecError> {
    let mut err = None;
    let mut recv = RecvTrace::default();
    while let Some(frame) = ch.recv() {
        if err.is_some() {
            continue;
        }
        match decode_frame_traced(&frame) {
            Ok((batch, ft)) => {
                recv.observe(&batch, ft);
                out.push(batch);
            }
            Err(e) => err = Some(e),
        }
    }
    if let Some(tracer) = tracer {
        recv.flush(tracer, parent, ch);
    }
    err.map_or(Ok(()), Err)
}

/// Opens this shard's send span on `ch` at its first frame when the
/// tracer records spans, so the span id can ride in every frame header.
fn send_span(
    span: &mut Option<SpanId>,
    ch: &NetChannel,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    tracer.records_spans().then(|| {
        *span.get_or_insert_with(|| {
            tracer.span(
                format!("Net-Send {}->{}", ch.from_node(), ch.to_node()),
                "Net-Send",
                None,
                None,
                parent,
                1,
            )
        })
    })
}

/// Encodes `batch` as one frame stamped with the trace context and sends
/// it, feeding any credit wait into the queue-wait histogram.
fn send_frame(
    ch: &NetChannel,
    batch: &RowBatch,
    tracer: &Tracer,
    span: Option<SpanId>,
    metrics: &MetricsRegistry,
) -> Result<(), ExecError> {
    let frame = encode_frame_traced(
        batch,
        FrameTrace {
            trace_id: tracer.trace_id(),
            span: span.map(|sp| sp.0 as u64),
        },
    );
    let waited = ch.send(frame)?;
    if !waited.is_zero() {
        metrics.net_queue_wait.record(waited);
    }
    Ok(())
}

/// Scatter-and-send half of [`repartition`]: routes each input batch
/// column-wise with the multiply-xor kernel, flushes per-destination
/// batches as frames once they reach [`BATCH_CAPACITY`] rows, and returns
/// the self-partition's batches. Destination batches are pre-sized from
/// the expected per-shard share.
#[allow(clippy::too_many_arguments)]
fn send_partitions(
    s: usize,
    batches: &[RowBatch],
    width: usize,
    key: usize,
    outs: &[Option<NetChannel>],
    metrics: &MetricsRegistry,
    tracer: &Arc<Tracer>,
    parent: Option<SpanId>,
) -> Result<Vec<RowBatch>, ExecError> {
    let shards = outs.len();
    let per_shard = (live_rows(batches) / shards.max(1) as u64).max(1);
    let fresh = || presized_batch(width, Some(per_shard));
    let mut dest: Vec<RowBatch> = (0..shards).map(|_| fresh()).collect();
    let mut local: Vec<RowBatch> = Vec::new();
    let (mut hashes, mut dests) = (Vec::new(), Vec::new());
    let mut spans: Vec<Option<SpanId>> = vec![None; shards];
    let mut flush = |t: usize, batch: &mut RowBatch| -> Result<(), ExecError> {
        if batch.rows() == 0 {
            return Ok(());
        }
        if t == s {
            local.push(std::mem::replace(batch, fresh()));
        } else if let Some(ch) = &outs[t] {
            let span = send_span(&mut spans[t], ch, tracer, parent);
            send_frame(ch, batch, tracer, span, metrics)?;
            batch.clear();
        }
        Ok(())
    };
    let result = (|| {
        for input in batches {
            scatter_by_shard(input, &[key], &mut dest, &mut hashes, &mut dests);
            for (t, batch) in dest.iter_mut().enumerate() {
                if batch.rows() >= BATCH_CAPACITY {
                    flush(t, batch)?;
                }
            }
        }
        for (t, batch) in dest.iter_mut().enumerate() {
            flush(t, batch)?;
        }
        Ok(())
    })();
    // Whatever happened — including a send that exhausted its
    // retransmission budget — reconcile each opened span against its
    // channel's own counters, so span byte totals match `NetStats`
    // exactly.
    for (t, span) in spans.iter().enumerate() {
        if let (Some(span), Some(ch)) = (span, &outs[t]) {
            tracer.set_net(*span, send_net_stats(ch));
        }
    }
    result.map(|()| local)
}

/// The send-side [`NetSpanStats`] of one channel: the channel's
/// per-link counters verbatim (each channel has exactly one sender and
/// lives for one query, so its counters are the span's traffic).
fn send_net_stats(ch: &NetChannel) -> NetSpanStats {
    let st = ch.stats();
    NetSpanStats {
        from: ch.from_node(),
        to: ch.to_node(),
        sent: true,
        bytes: st.bytes,
        frames: st.frames,
        retransmits: st.retransmits,
        credit_stalls: st.credit_stalls,
        credit_wait_ns: st.credit_wait_ns,
        remote_span: None,
    }
}

/// Streams result batches over the gather link as dense columnar frames
/// of [`BATCH_CAPACITY`] rows (the last one shorter): full dense batches
/// go out as they are, anything else is re-chunked column-wise.
fn send_rows(
    ch: &NetChannel,
    batches: &[RowBatch],
    width: usize,
    metrics: &MetricsRegistry,
    tracer: &Arc<Tracer>,
    parent: Option<SpanId>,
) -> Result<(), ExecError> {
    let mut span: Option<SpanId> = None;
    let mut send = |batch: &RowBatch| {
        let sp = send_span(&mut span, ch, tracer, parent);
        send_frame(ch, batch, tracer, sp, metrics)
    };
    let result = (|| {
        let mut acc = RowBatch::with_capacity(width, BATCH_CAPACITY);
        for batch in batches {
            if acc.rows() == 0 && batch.selection().is_none() && batch.rows() == BATCH_CAPACITY {
                send(batch)?;
                continue;
            }
            let mut pos = 0;
            while pos < batch.len() {
                let take = (BATCH_CAPACITY - acc.rows()).min(batch.len() - pos);
                acc.extend_from_live(batch, pos..pos + take);
                pos += take;
                if acc.rows() == BATCH_CAPACITY {
                    send(&acc)?;
                    acc.clear();
                }
            }
        }
        if acc.rows() > 0 {
            send(&acc)?;
        }
        Ok(())
    })();
    if let Some(span) = span {
        tracer.set_net(span, send_net_stats(ch));
    }
    result
}

/// Shard-local hash join of two co-partitioned inputs through the
/// executor's batch join kernel ([`join_batches`]), emitting `left ⊗
/// right`. The build side is the smaller input; its hash table memory is
/// reserved with the shard's governor, and a refusal degrades (/2, /4,
/// /8) to a **chunked build** — the build side hashed in grant-sized
/// pieces, each probed by the whole other input — instead of failing,
/// counted as one fallback: the same graceful-degradation contract
/// choose-plan gives retryable opens.
fn local_hash_join(
    left: JoinInput<'_>,
    right: JoinInput<'_>,
    keys: &[(usize, usize)],
    ctx: &ExecContext,
) -> Result<Vec<RowBatch>, ExecError> {
    let (left_rows, right_rows) = (live_rows(left.batches), live_rows(right.batches));
    let (build, build_rows, build_width) = if left_rows <= right_rows {
        (BuildSide::Left, left_rows, left.width)
    } else {
        (BuildSide::Right, right_rows, right.width)
    };
    // Per-row footprint: the row's columns plus its table entry.
    let bytes_per_row = (build_width * 8 + 48) as u64;
    let full = build_rows.saturating_mul(bytes_per_row).max(1);

    let mut granted = 0u64;
    let mut refusal = None;
    for divisor in [1u64, 2, 4, 8] {
        let ask = (full / divisor).max(bytes_per_row);
        match ctx.governor.try_reserve_memory(ask) {
            Ok(()) => {
                granted = ask;
                break;
            }
            Err(e) if e.is_retryable() => refusal = Some(e),
            Err(e) => return Err(e),
        }
    }
    if granted == 0 {
        return Err(refusal.unwrap_or_else(|| {
            ExecError::Network("memory reservation failed without an error".into())
        }));
    }
    if granted < full {
        ctx.counters.add_fallbacks(1);
    }
    let chunk_rows = usize::try_from(granted / bytes_per_row)
        .unwrap_or(usize::MAX)
        .max(1);
    let out = join_batches(left, right, keys, build, chunk_rows, &ctx.counters);
    ctx.governor.release_memory(granted);
    Ok(out)
}

/// Routes every relation's exported rows to its shard. Hash routing goes
/// through the batched kernel ([`shard_route`] via a throwaway batch);
/// range routing slices the attribute's domain into `shards` contiguous
/// stripes.
fn partition_rows(
    catalog: &Catalog,
    rows: &HashMap<RelationId, Vec<Vec<i64>>>,
    routing: ShardRouting,
    shards: usize,
) -> Vec<HashMap<RelationId, Vec<Vec<i64>>>> {
    let mut parts: Vec<HashMap<RelationId, Vec<Vec<i64>>>> =
        (0..shards).map(|_| HashMap::new()).collect();
    static EMPTY: Vec<Vec<i64>> = Vec::new();
    for rel in catalog.relations() {
        let rel_rows = rows.get(&rel.id).unwrap_or(&EMPTY);
        let attr = routing.attr_index(rel.attributes.len());
        let dests: Vec<usize> = match routing {
            ShardRouting::Hash { .. } => {
                let mut dests = Vec::with_capacity(rel_rows.len());
                let (mut hash_scratch, mut dest_scratch) = (Vec::new(), Vec::new());
                let width = rel.attributes.len();
                let mut batch = RowBatch::with_capacity(width, BATCH_CAPACITY);
                for chunk in rel_rows.chunks(BATCH_CAPACITY) {
                    batch.clear();
                    for row in chunk {
                        batch.push_row(row);
                    }
                    dqep_executor::shard_route(
                        &batch,
                        &[attr],
                        shards,
                        &mut hash_scratch,
                        &mut dest_scratch,
                    );
                    dests.extend(dest_scratch.iter().map(|&d| d as usize));
                }
                dests
            }
            ShardRouting::Range { .. } => {
                let domain = rel.attributes[attr].domain_size.max(1.0);
                rel_rows
                    .iter()
                    .map(|row| {
                        let v = row[attr].max(0) as f64;
                        ((v * shards as f64 / domain) as usize).min(shards - 1)
                    })
                    .collect()
            }
        };
        for part in &mut parts {
            part.insert(rel.id, Vec::new());
        }
        for (row, &d) in rel_rows.iter().zip(&dests) {
            if let Some(bucket) = parts[d].get_mut(&rel.id) {
                bucket.push(row.clone());
            }
        }
    }
    parts
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

    fn catalog(relations: usize) -> Catalog {
        make_chain_catalog(&SyntheticSpec::paper(relations, 7), SystemConfig::paper_1994())
    }

    fn single_node_rows(relations: usize, binds: &[(&str, i64)], sql: &str) -> Vec<Tuple> {
        // The single-node baseline shares catalog, seed, and distribution
        // with the sharded service's global database.
        let svc = ShardedService::new(
            catalog(relations),
            ShardConfig { shards: 1, ..ShardConfig::default() },
        );
        svc.execute(sql, binds).expect("single shard executes").rows
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    #[test]
    fn partitions_cover_the_data_exactly() {
        let cat = catalog(2);
        let config = ShardConfig { shards: 4, ..ShardConfig::default() };
        let svc = ShardedService::new(cat, config);
        for rel in svc.catalog().relations() {
            let total: u64 = svc
                .shards()
                .iter()
                .map(|s| s.db.table(rel.id).heap.record_count())
                .sum();
            assert_eq!(total, rel.stats.cardinality, "{}", rel.name);
            // Shard-local catalogs hold the partition's cardinality.
            for shard in svc.shards() {
                assert_eq!(
                    shard.catalog.relation(rel.id).stats.cardinality,
                    shard.db.table(rel.id).heap.record_count()
                );
            }
        }
    }

    #[test]
    fn sharded_join_matches_single_node_multiset() {
        let sql = chain_sql(2);
        let binds = [("v1", 600i64), ("v2", 600i64)];
        let baseline = single_node_rows(2, &binds, &sql);
        for shards in [2usize, 4] {
            let svc = ShardedService::new(
                catalog(2),
                ShardConfig { shards, ..ShardConfig::default() },
            );
            let out = svc.execute(&sql, &binds).expect("sharded run");
            assert_eq!(
                sorted(out.rows.clone()),
                sorted(baseline.clone()),
                "{shards} shards"
            );
            assert_eq!(out.per_shard_rows.len(), shards);
            if shards > 1 {
                assert!(out.net.frames > 0, "joins repartition over the wire");
                assert!(out.net.bytes > 0);
            }
        }
    }

    #[test]
    fn order_by_merges_order_preservingly() {
        let sql = format!("{} ORDER BY R1.a", chain_sql(2));
        let binds = [("v1", 500i64), ("v2", 500i64)];
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig { shards: 3, ..ShardConfig::default() },
        );
        let out = svc.execute(&sql, &binds).expect("sorted run");
        let key = out.layout.require(
            svc.catalog().relation_by_name("R1").expect("R1").attr_id("a").expect("a"),
        );
        assert!(out.rows.windows(2).all(|w| w[0][key] <= w[1][key]), "globally ordered");
        assert_eq!(
            sorted(out.rows.clone()),
            sorted(single_node_rows(2, &binds, &sql))
        );
    }

    #[test]
    fn per_shard_arbitration_audits_are_recorded() {
        let svc = ShardedService::new(
            catalog(1),
            ShardConfig { shards: 2, ..ShardConfig::default() },
        );
        let out = svc
            .execute("SELECT * FROM R1 WHERE R1.a < :v1", &[("v1", 30)])
            .expect("runs");
        assert_eq!(out.audits.len(), 2);
        for shard_audits in &out.audits {
            assert!(
                shard_audits.iter().all(|a| a.winner.is_some()),
                "every arbitration resolved"
            );
        }
        assert!(!out.winner_counts().is_empty(), "winners counted");
    }

    #[test]
    fn link_faults_within_budget_preserve_results() {
        let sql = chain_sql(2);
        let binds = [("v1", 700i64), ("v2", 700i64)];
        let baseline = single_node_rows(2, &binds, &sql);
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig {
                shards: 2,
                link_faults: LinkFaultPlan {
                    fail_nth_frames: vec![1, 2],
                    max_retransmits: 4,
                },
                ..ShardConfig::default()
            },
        );
        let out = svc.execute(&sql, &binds).expect("faults absorbed");
        assert_eq!(sorted(out.rows.clone()), sorted(baseline));
        assert!(out.net.retransmits > 0, "drops were retransmitted");
    }

    #[test]
    fn exhausted_retransmission_budget_fails_the_query() {
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig {
                shards: 2,
                link_faults: LinkFaultPlan {
                    fail_nth_frames: vec![1, 1, 1],
                    max_retransmits: 1,
                },
                ..ShardConfig::default()
            },
        );
        let err = svc
            .execute(&chain_sql(2), &[("v1", 900), ("v2", 900)])
            .expect_err("budget exhausted");
        assert!(
            matches!(err, ServiceError::Exec(ExecError::Network(_))),
            "{err:?}"
        );
    }

    #[test]
    fn range_routing_with_skew_diverges_winners() {
        let svc = ShardedService::new(
            catalog(1),
            ShardConfig {
                shards: 4,
                routing: ShardRouting::Range { attr: 0 },
                skew: Some(1.2),
                ..ShardConfig::default()
            },
        );
        // A selective predicate: shards with almost no matching rows
        // favour the index path, the bulk shard favours the scan.
        let out = svc
            .execute("SELECT * FROM R1 WHERE R1.a < :v1", &[("v1", 40)])
            .expect("runs");
        assert!(
            out.divergent(),
            "skewed range partitions should disagree: {:?}",
            out.winner_counts()
        );
        // Forcing the global winner removes the divergence.
        let forced = ShardedService::new(
            catalog(1),
            ShardConfig {
                shards: 4,
                routing: ShardRouting::Range { attr: 0 },
                skew: Some(1.2),
                force_uniform_winner: true,
                ..ShardConfig::default()
            },
        );
        let fout = forced
            .execute("SELECT * FROM R1 WHERE R1.a < :v1", &[("v1", 40)])
            .expect("runs");
        assert!(!fout.divergent(), "resolved broadcast cannot diverge");
        assert_eq!(sorted(out.rows), sorted(fout.rows), "same result either way");
    }

    #[test]
    fn metrics_accumulate_shard_counters() {
        let svc = ShardedService::new(
            catalog(2),
            ShardConfig { shards: 2, ..ShardConfig::default() },
        );
        svc.execute(&chain_sql(2), &[("v1", 500), ("v2", 500)]).expect("runs");
        let m = svc.metrics();
        assert_eq!(m.shard_queries(), 1);
        assert!(m.net_bytes() > 0);
        assert!(m.net_frames() > 0);
        assert!(m.shard_winners().iter().sum::<u64>() > 0);
    }

    #[test]
    fn memory_ladder_degrades_to_a_chunked_build_with_one_fallback() {
        // 600 build rows (the smaller, left side) with duplicate keys.
        let left: Vec<[i64; 2]> = (0..600).map(|i| [i % 97, i]).collect();
        let right: Vec<[i64; 2]> = (0..900).map(|i| [i % 89, -i]).collect();
        let (left, right) = (batches(&[&left]), batches(&[&right]));
        let join = |limit: Option<u64>| {
            let limits = ResourceLimits {
                memory_bytes: limit,
                ..ResourceLimits::unlimited()
            };
            let ctx = ExecContext::with_limits(SharedCounters::new(), limits);
            let out = local_hash_join(
                JoinInput {
                    batches: &left,
                    width: 2,
                },
                JoinInput {
                    batches: &right,
                    width: 2,
                },
                &[(0, 0)],
                &ctx,
            );
            assert_eq!(ctx.governor.memory_used(), 0, "the reservation is released");
            out.map(|b| {
                let mut rows: Vec<Tuple> = b.iter().flat_map(RowBatch::iter).collect();
                rows.sort_unstable();
                (rows, ctx.counters.fallbacks())
            })
        };
        let (expected, fallbacks) = join(None).expect("unlimited join");
        assert_eq!(fallbacks, 0);
        assert!(expected
            .iter()
            .all(|r| r.len() == 4 && r[0] == r[2] && r[1] >= 0));
        let full = 600 * (2 * 8 + 48);
        for divisor in [2u64, 4, 8] {
            let (rows, fallbacks) = join(Some(full / divisor)).expect("degraded join");
            assert_eq!(rows, expected, "/{divisor}");
            assert_eq!(fallbacks, 1, "one fallback at /{divisor}");
        }
        let refused = join(Some(full / 8 - 1)).expect_err("below the last rung");
        assert!(refused.is_retryable(), "{refused:?}");
    }

    fn batches(runs: &[&[[i64; 2]]]) -> Vec<RowBatch> {
        runs.iter()
            .map(|rows| {
                let mut b = RowBatch::new(2);
                for row in *rows {
                    b.push_row(row);
                }
                b
            })
            .collect()
    }

    #[test]
    fn kway_merge_is_ordered_and_complete() {
        let mut filtered = batches(&[&[[0, 0], [4, 11], [5, 5]]]);
        filtered[0].set_selection(vec![1]);
        let runs = vec![
            [batches(&[&[[1, 10]]]), filtered].concat(),
            batches(&[&[[2, 20]]]),
            Vec::new(),
            batches(&[&[], &[[2, 30], [9, 31]]]),
        ];
        let merged = kway_merge(&runs, 0);
        let keys: Vec<i64> = merged.iter().map(|r| r[0]).collect();
        assert_eq!(keys, vec![1, 2, 2, 4, 9]);
        // Ties resolve by shard index: shard 1's row precedes shard 3's.
        assert_eq!(merged[1], vec![2, 20]);
        assert_eq!(merged[2], vec![2, 30]);
    }
}
