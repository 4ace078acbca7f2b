//! Mid-query adaptive re-optimization: runtime checkpoints, bounded
//! re-planning, and graceful degradation under drift and memory pressure.
//!
//! Start-up-time arbitration (the paper's choose-plan decision) is only
//! as good as its compile-time intervals. When the data is skewed or the
//! estimates drift, a running query discovers the truth at its **pipeline
//! breakers** — the build side of a hash join, the input of a sort, an
//! exchange's worker join — where an entire intermediate result is
//! materialized and its actual cardinality is known exactly.
//!
//! [`crate::execute`] under a context carrying a [`ReoptState`]
//! ([`ExecContext::with_reopt`]) closes the loop the EXPLAIN ANALYZE drift
//! detector only observes:
//!
//! 1. **Checkpoints.** Blocking inputs along the arbitrated path are
//!    materialized deepest-first ([`dqep_plan::next_blocking_input`]).
//!    Each materialization is a checkpoint: the observed cardinality is
//!    compared against the bind-time interval with the drift detector's
//!    escape predicate ([`Interval::escapes`]).
//! 2. **Bounded re-planning.** On escape, the *remaining* plan is
//!    re-arbitrated via [`dqep_plan::evaluate_startup_observed`] with the
//!    observation applied — under a per-query re-optimization budget (max
//!    re-plans, a wall-clock cap, exponential backoff between attempts)
//!    enforced with the [`ResourceGovernor`], so recovery can never cost
//!    more than the misestimate it fixes.
//! 3. **No repeated work.** Retained intermediates are substituted into
//!    the re-planned execution as [`MaterializedScanExec`] leaves, keyed
//!    by original plan-node id — the build table that triggered the
//!    re-plan is never recomputed (verifiable by I/O counters).
//! 4. **Graceful degradation.** A governor refusal to retain an
//!    intermediate degrades the memory grant the re-arbitration plans
//!    with (steering toward the cheapest-memory alternatives) instead of
//!    failing the query; a retryable failure *during* a checkpoint or of
//!    a re-planned run falls back to continuing the original plan
//!    (observations suppressed); only then does a governed failure
//!    surface. The ladder: re-plan → cheaper alternative → original plan
//!    → governed failure.
//!
//! Every step is recorded as a [`ReoptEvent`] in the [`ReoptReport`],
//! rendered by EXPLAIN ANALYZE and exported by the service metrics.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dqep_catalog::Catalog;
use dqep_cost::{Bindings, Environment};
use dqep_interval::{Interval, Slack};
use dqep_plan::{
    chosen_map, evaluate_startup_observed, next_blocking_input, NodeId, Observations, PlanNode,
    StartupResult,
};
use dqep_storage::StoredDatabase;
use parking_lot::Mutex;

use crate::batch::RowBatch;
use crate::compile::{grant_bytes, run};
use crate::error::ExecError;
use crate::exec::{drain, Drained, Operator, Sink};
use crate::governor::{ExecContext, ResourceGovernor};
use crate::tuple::{Tuple, TupleLayout};

/// The per-query re-optimization budget.
#[derive(Debug, Clone, Copy)]
pub struct ReoptConfig {
    /// Maximum re-plans adopted per query.
    pub max_replans: u32,
    /// Wall-clock cap on the whole re-optimization machinery, measured
    /// from query start: past this, re-plan requests are denied and the
    /// current plan runs to completion.
    pub wall_clock_ms: u64,
    /// Base of the exponential backoff slept before the n-th re-plan
    /// (`base · 2ⁿ` ms, capped at one second). Zero disables the sleep
    /// (deterministic tests).
    pub backoff_base_ms: u64,
}

impl Default for ReoptConfig {
    fn default() -> ReoptConfig {
        ReoptConfig {
            max_replans: 2,
            wall_clock_ms: 10_000,
            backoff_base_ms: 1,
        }
    }
}

/// What happened at one step of the re-optimization machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptEventKind {
    /// A pipeline breaker completed and its cardinality was observed.
    Checkpoint,
    /// A checkpoint observation escaped its compile-time interval.
    Escape,
    /// The remaining plan was re-arbitrated with observations applied.
    Replan,
    /// A re-plan request was denied by the budget.
    ReplanDenied,
    /// A checkpoint or re-plan failed; the original plan continues.
    ReplanFailed,
    /// The governor refused to retain an intermediate; the memory grant
    /// the re-arbitration plans with was degraded instead.
    MemoryDegrade,
    /// A choose-plan operator arbitrated with checkpoint observations.
    Arbitration,
    /// A re-planned run failed and execution reverted to the original
    /// arbitration.
    Fallback,
}

impl ReoptEventKind {
    /// Stable lowercase label (JSON key and rendering).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReoptEventKind::Checkpoint => "checkpoint",
            ReoptEventKind::Escape => "escape",
            ReoptEventKind::Replan => "replan",
            ReoptEventKind::ReplanDenied => "replan-denied",
            ReoptEventKind::ReplanFailed => "replan-failed",
            ReoptEventKind::MemoryDegrade => "memory-degrade",
            ReoptEventKind::Arbitration => "arbitration",
            ReoptEventKind::Fallback => "fallback",
        }
    }
}

/// One audit-trail entry of the re-optimization machinery.
#[derive(Debug, Clone)]
pub struct ReoptEvent {
    /// What happened.
    pub kind: ReoptEventKind,
    /// The plan node concerned, when the event is node-specific.
    pub node: Option<NodeId>,
    /// The compile-time cardinality interval, for checkpoint/escape
    /// events.
    pub estimate: Option<(f64, f64)>,
    /// The observed cardinality, for checkpoint/escape events.
    pub observed: Option<f64>,
    /// Human-readable context.
    pub detail: String,
}

/// Counter totals across one query's re-optimization machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReoptCounters {
    /// Pipeline-breaker checkpoints observed.
    pub checkpoints: u64,
    /// Checkpoint observations that escaped their interval.
    pub escapes: u64,
    /// Re-plans requested (granted or not).
    pub replans_attempted: u64,
    /// Re-plans granted and adopted.
    pub replans_adopted: u64,
    /// Re-plan requests denied by the budget.
    pub replans_denied: u64,
    /// Checkpoints or re-plans that failed retryably (original plan
    /// continued).
    pub replan_failures: u64,
    /// Governor refusals absorbed by degrading the planning memory grant.
    pub memory_degradations: u64,
    /// Choose-plan arbitrations that applied checkpoint observations.
    pub observed_arbitrations: u64,
    /// Re-planned runs that reverted to the original arbitration.
    pub fallbacks: u64,
}

/// The re-optimization audit trail of one query: every event plus the
/// counter totals. Attached to [`crate::TraceReport`] and rendered by EXPLAIN
/// ANALYZE.
#[derive(Debug, Clone, Default)]
pub struct ReoptReport {
    /// Events in occurrence order.
    pub events: Vec<ReoptEvent>,
    /// Counter totals.
    pub counters: ReoptCounters,
}

impl ReoptReport {
    /// The escape observations as `(node, observed)` pairs — the feed for
    /// the service decision cache. Empty when execution fell back to the
    /// original arbitration: a reverted run proved nothing about which
    /// alternative the observations should steer future sessions toward.
    #[must_use]
    pub fn escaped_observations(&self) -> Vec<(NodeId, f64)> {
        if self.counters.fallbacks > 0 {
            return Vec::new();
        }
        self.events
            .iter()
            .filter(|e| e.kind == ReoptEventKind::Escape)
            .filter_map(|e| Some((e.node?, e.observed?)))
            .collect()
    }
}

#[derive(Debug, Default)]
struct ReoptInner {
    events: Vec<ReoptEvent>,
    counters: ReoptCounters,
    /// Re-plans granted so far (budget consumption).
    attempts: u32,
    observations: Observations,
    /// Set when execution reverted to the original plan: the getter then
    /// serves no observations, so arbitrations reproduce the original
    /// decisions.
    suppressed: bool,
    materialized: Vec<(NodeId, TupleLayout, Arc<Vec<Tuple>>)>,
    reserved_bytes: u64,
}

/// Shared state of one query's re-optimization machinery: checkpoint
/// observations, retained intermediates, the re-plan budget, and the
/// audit trail. Carried on [`ExecContext::reopt`] and shared by the
/// driver, the compiler hooks, and the operator probes.
#[derive(Debug)]
pub struct ReoptState {
    config: ReoptConfig,
    started: Instant,
    inner: Mutex<ReoptInner>,
}

impl ReoptState {
    /// Fresh state under `config`, with the wall clock starting now.
    #[must_use]
    pub fn new(config: ReoptConfig) -> ReoptState {
        ReoptState {
            config,
            started: Instant::now(),
            inner: Mutex::new(ReoptInner::default()),
        }
    }

    /// The checkpoint observations accumulated so far (empty after a
    /// fallback suppressed them), keyed by original plan-node id.
    #[must_use]
    pub fn observations(&self) -> Observations {
        let inner = self.inner.lock();
        if inner.suppressed {
            Observations::new()
        } else {
            inner.observations.clone()
        }
    }

    /// Records a checkpoint: `actual` rows observed at `node`, whose
    /// compile-time estimate was `card`. Returns whether the observation
    /// escaped the interval (an [`ReoptEventKind::Escape`] event).
    pub fn observe_checkpoint(
        &self,
        node: NodeId,
        label: &str,
        card: Interval,
        actual: u64,
    ) -> bool {
        let escaped = card.escapes(actual as f64, 1.0, Slack::ROWS);
        let mut inner = self.inner.lock();
        inner.counters.checkpoints += 1;
        inner.events.push(ReoptEvent {
            kind: ReoptEventKind::Checkpoint,
            node: Some(node),
            estimate: Some((card.lo(), card.hi())),
            observed: Some(actual as f64),
            detail: label.to_string(),
        });
        inner.observations.insert(node, actual as f64);
        if escaped {
            inner.counters.escapes += 1;
            inner.events.push(ReoptEvent {
                kind: ReoptEventKind::Escape,
                node: Some(node),
                estimate: Some((card.lo(), card.hi())),
                observed: Some(actual as f64),
                detail: format!(
                    "{label}: observed {actual} outside [{:.0}, {:.0}]",
                    card.lo(),
                    card.hi()
                ),
            });
            crate::journal::journal().record(
                crate::journal::EventKind::IntervalEscape,
                0,
                crate::journal::NO_ID,
                node.0,
                actual,
                card.hi() as u64,
            );
        }
        escaped
    }

    /// Requests one re-plan against the budget. Grants consume an attempt
    /// and sleep the exponential backoff; denials (budget exhausted, wall
    /// cap passed, or the governor objecting) record a
    /// [`ReoptEventKind::ReplanDenied`] event.
    pub fn request_replan(&self, governor: &ResourceGovernor) -> bool {
        let mut inner = self.inner.lock();
        inner.counters.replans_attempted += 1;
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        let denied = if inner.attempts >= self.config.max_replans {
            Some(format!(
                "re-plan budget exhausted ({} of {})",
                inner.attempts, self.config.max_replans
            ))
        } else if elapsed_ms > self.config.wall_clock_ms {
            Some(format!(
                "wall-clock cap passed ({elapsed_ms}ms > {}ms)",
                self.config.wall_clock_ms
            ))
        } else {
            // The governor has the last word: a cancelled query or a spent
            // wall-clock budget must not buy more planning.
            match governor.check_batch(64) {
                Ok(()) => None,
                Err(e) => Some(format!("governor refused: {e}")),
            }
        };
        if let Some(reason) = denied {
            inner.counters.replans_denied += 1;
            inner.events.push(ReoptEvent {
                kind: ReoptEventKind::ReplanDenied,
                node: None,
                estimate: None,
                observed: None,
                detail: reason,
            });
            return false;
        }
        let backoff_ms = self
            .config
            .backoff_base_ms
            .saturating_mul(1u64 << inner.attempts.min(10))
            .min(1_000);
        inner.attempts += 1;
        drop(inner);
        if backoff_ms > 0 {
            std::thread::sleep(Duration::from_millis(backoff_ms));
        }
        true
    }

    /// Records an adopted re-plan.
    pub fn record_replan(&self, node: NodeId, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.replans_adopted += 1;
        inner.events.push(ReoptEvent {
            kind: ReoptEventKind::Replan,
            node: Some(node),
            estimate: None,
            observed: None,
            detail: detail.to_string(),
        });
        crate::journal::journal().record(
            crate::journal::EventKind::Replan,
            0,
            crate::journal::NO_ID,
            node.0,
            inner.counters.replans_adopted,
            crate::journal::NO_ID,
        );
    }

    /// Records a retryably failed checkpoint or re-plan (the original
    /// plan continues).
    pub fn record_replan_failure(&self, node: Option<NodeId>, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.replan_failures += 1;
        inner.events.push(ReoptEvent {
            kind: ReoptEventKind::ReplanFailed,
            node,
            estimate: None,
            observed: None,
            detail: detail.to_string(),
        });
    }

    /// Records a governor refusal absorbed by degrading the planning
    /// memory grant.
    pub fn record_memory_degrade(&self, node: NodeId, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.memory_degradations += 1;
        inner.events.push(ReoptEvent {
            kind: ReoptEventKind::MemoryDegrade,
            node: Some(node),
            estimate: None,
            observed: None,
            detail: detail.to_string(),
        });
        crate::journal::journal().record(
            crate::journal::EventKind::DegradationStep,
            0,
            crate::journal::NO_ID,
            node.0,
            inner.counters.memory_degradations,
            crate::journal::NO_ID,
        );
    }

    /// Records a choose-plan arbitration that applied checkpoint
    /// observations.
    pub fn record_arbitration(&self, node: NodeId, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.observed_arbitrations += 1;
        inner.events.push(ReoptEvent {
            kind: ReoptEventKind::Arbitration,
            node: Some(node),
            estimate: None,
            observed: None,
            detail: detail.to_string(),
        });
    }

    /// Reverts to the original plan: records a fallback and suppresses
    /// the observations so subsequent arbitrations reproduce the original
    /// decisions. Retained intermediates stay substitutable — they are
    /// the original plan's own subtree results.
    pub fn record_fallback(&self, detail: &str) {
        let mut inner = self.inner.lock();
        inner.counters.fallbacks += 1;
        inner.suppressed = true;
        inner.events.push(ReoptEvent {
            kind: ReoptEventKind::Fallback,
            node: None,
            estimate: None,
            observed: None,
            detail: detail.to_string(),
        });
    }

    /// Retains a materialized intermediate for reuse, reserving its bytes
    /// with the governor. Returns `false` (and retains nothing) when the
    /// governor refuses — the caller degrades instead of failing.
    pub fn try_retain(
        &self,
        governor: &ResourceGovernor,
        node: NodeId,
        layout: TupleLayout,
        rows: Vec<Tuple>,
    ) -> bool {
        let bytes = (rows.len() * layout.row_bytes) as u64;
        if governor.try_reserve_memory(bytes).is_err() {
            return false;
        }
        let mut inner = self.inner.lock();
        inner.reserved_bytes += bytes;
        inner.materialized.push((node, layout, Arc::new(rows)));
        true
    }

    /// The retained intermediate for `node`, if any — shared, so a plan
    /// that references the node twice serves the same rows twice.
    #[must_use]
    pub fn materialized(&self, node: NodeId) -> Option<(TupleLayout, Arc<Vec<Tuple>>)> {
        self.inner
            .lock()
            .materialized
            .iter()
            .find(|(id, _, _)| *id == node)
            .map(|(_, layout, rows)| (layout.clone(), Arc::clone(rows)))
    }

    /// Returns every retention reservation to the governor (the rows stay
    /// available). Called once before the final run: operators consuming a
    /// [`MaterializedScanExec`] re-reserve as they buffer, and holding the
    /// retention reservation across that would double-charge the grant.
    pub fn release_reservations(&self, governor: &ResourceGovernor) {
        let mut inner = self.inner.lock();
        let bytes = std::mem::take(&mut inner.reserved_bytes);
        drop(inner);
        if bytes > 0 {
            governor.release_memory(bytes);
        }
    }

    /// Counter totals so far.
    #[must_use]
    pub fn counters(&self) -> ReoptCounters {
        self.inner.lock().counters
    }

    /// Escape observations so far — see
    /// [`ReoptReport::escaped_observations`].
    #[must_use]
    pub fn escaped_observations(&self) -> Vec<(NodeId, f64)> {
        self.report().escaped_observations()
    }

    /// The full audit trail.
    #[must_use]
    pub fn report(&self) -> ReoptReport {
        let inner = self.inner.lock();
        ReoptReport {
            events: inner.events.clone(),
            counters: inner.counters,
        }
    }
}

/// A checkpoint probe attached to a pipeline breaker (hash-join build,
/// sort ingest, exchange worker join). Fired once per `open` with the
/// actual cardinality the breaker materialized.
#[derive(Debug, Clone)]
pub(crate) struct ReoptProbe {
    state: Arc<ReoptState>,
    node: NodeId,
    label: String,
    card: Interval,
}

impl ReoptProbe {
    pub(crate) fn new(
        state: Arc<ReoptState>,
        node: NodeId,
        label: &str,
        card: Interval,
    ) -> ReoptProbe {
        ReoptProbe {
            state,
            node,
            label: label.to_string(),
            card,
        }
    }

    /// Records the checkpoint observation.
    pub(crate) fn observe(&self, actual: u64) {
        self.state
            .observe_checkpoint(self.node, &self.label, self.card, actual);
    }
}

/// Serves a retained intermediate result as an ordinary [`Operator`]:
/// the executor's leaf form of "already-materialized work". Like the
/// exchange's merge buffer this is pure transport — the rows were charged
/// (CPU and I/O) when they were first produced, so serving them again
/// charges nothing, keeping counter totals identical to a one-pass run.
pub struct MaterializedScanExec {
    rows: Arc<Vec<Tuple>>,
    layout: TupleLayout,
    ctx: ExecContext,
    pos: usize,
}

impl MaterializedScanExec {
    /// An operator serving `rows` with `layout`.
    #[must_use]
    pub fn new(rows: Arc<Vec<Tuple>>, layout: TupleLayout, ctx: ExecContext) -> Self {
        MaterializedScanExec {
            rows,
            layout,
            ctx,
            pos: 0,
        }
    }
}

impl Operator for MaterializedScanExec {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>, ExecError> {
        self.ctx.governor.check()?;
        let Some(row) = self.rows.get(self.pos) else {
            return Ok(None);
        };
        self.pos += 1;
        Ok(Some(row.clone()))
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<RowBatch>, ExecError> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + max_rows).min(self.rows.len());
        let mut batch = RowBatch::with_capacity(self.layout.width(), end - self.pos);
        for row in &self.rows[self.pos..end] {
            batch.push_row(row);
        }
        self.pos = end;
        self.ctx.governor.check_batch(batch.len() as u64)?;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.pos = 0;
    }

    fn layout(&self) -> &TupleLayout {
        &self.layout
    }

    fn estimated_rows(&self) -> Option<u64> {
        Some((self.rows.len() - self.pos.min(self.rows.len())) as u64)
    }
}

/// What one re-optimizing execution reports back alongside the
/// [`crate::Execution`] it belongs to.
#[derive(Debug)]
pub struct ReoptOutcome {
    /// The arbitration in force at completion (the original one if the
    /// query fell back).
    pub startup: StartupResult,
    /// The re-optimization audit trail.
    pub report: ReoptReport,
}

/// Materializes one checkpoint subtree, in the context's execution mode.
/// Compiled dynamically: a checkpoint target may itself contain
/// choose-plan operators, which arbitrate at `open` with the observations
/// accumulated so far.
fn materialize(
    target: &Arc<PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
) -> Result<Vec<Tuple>, ExecError> {
    let memory_bytes = grant_bytes(bindings, env, catalog);
    let mut op = crate::choose::compile_dynamic_plan(
        target,
        db,
        catalog,
        env,
        bindings,
        memory_bytes,
        ctx,
    )?;
    drain(op.as_mut(), ctx.mode)
}

/// The body of [`crate::execute`]. Without [`ExecContext::reopt`] state
/// this is one compile-and-drain run. With it, the checkpoint loop (see
/// the module docs) runs first: checkpoint the blocking inputs, re-arbitrate
/// the remainder on escape within the [`ReoptConfig`] budget, reuse every
/// retained intermediate, degrade gracefully under memory pressure, and
/// fall back to the original plan when re-planning itself fails.
///
/// # Errors
/// Any non-retryable [`ExecError`], or a retryable one that survived the
/// whole degradation ladder.
pub(crate) fn drive(
    plan: &Arc<PlanNode>,
    db: &StoredDatabase,
    catalog: &Catalog,
    env: &Environment,
    bindings: &Bindings,
    ctx: &ExecContext,
    sink: Sink,
) -> Result<(Drained, Option<ReoptOutcome>), ExecError> {
    let Some(state) = ctx.reopt.as_ref() else {
        return Ok((run(plan, db, catalog, env, bindings, ctx, sink)?, None));
    };

    let mut exec_bindings = bindings.clone();
    let mut startup =
        evaluate_startup_observed(plan, catalog, env, &exec_bindings, &state.observations());
    let mut done: HashSet<NodeId> = HashSet::new();
    let mut replanned = false;

    // Checkpoint loop: materialize the blocking inputs along the chosen
    // path deepest-first, observing each and re-arbitrating on escape.
    loop {
        let chosen = chosen_map(&startup.decisions);
        let Some(target) = next_blocking_input(plan, &chosen, &done) else {
            break;
        };
        done.insert(target.id);
        let rows = match materialize(&target, db, catalog, env, &exec_bindings, ctx) {
            Ok(rows) => rows,
            Err(e) if e.is_retryable() => {
                // A faulted checkpoint is abandoned, not fatal: the final
                // run recomputes the subtree on the original plan.
                state.record_replan_failure(
                    Some(target.id),
                    &format!("checkpoint failed ({e}); continuing original plan"),
                );
                break;
            }
            Err(e) => return Err(e),
        };
        let actual = rows.len() as u64;
        // Escape against the *bind-time* estimate: host variables are
        // bound and prior observations applied, so this interval is what
        // the in-force arbitration actually believed. The compile-time
        // interval on the node is kept deliberately wide for unbound
        // parameters and would mask real drift.
        let estimate = startup
            .estimates
            .get(&target.id)
            .copied()
            .unwrap_or(target.stats.card);
        let escaped = state.observe_checkpoint(target.id, target.op.name(), estimate, actual);
        let layout = crate::choose::layout_of(&target, catalog);
        if !state.try_retain(&ctx.governor, target.id, layout, rows) {
            // Memory pressure: drop the intermediate and re-arbitrate
            // with a halved planning grant, steering the remaining
            // decisions toward the cheapest-memory alternatives.
            let pages = exec_bindings
                .memory_pages
                .unwrap_or_else(|| env.memory.expected());
            let degraded = (pages / 2.0).max(1.0);
            state.record_memory_degrade(
                target.id,
                &format!(
                    "governor refused to retain {actual} rows; planning grant {pages:.0} -> \
                     {degraded:.0} pages"
                ),
            );
            exec_bindings = exec_bindings.with_memory(degraded);
            startup = evaluate_startup_observed(
                plan,
                catalog,
                env,
                &exec_bindings,
                &state.observations(),
            );
            continue;
        }
        if escaped {
            if state.request_replan(&ctx.governor) {
                startup = evaluate_startup_observed(
                    plan,
                    catalog,
                    env,
                    &exec_bindings,
                    &state.observations(),
                );
                state.record_replan(
                    target.id,
                    "re-arbitrated remaining plan with checkpoint observation",
                );
                replanned = true;
            } else {
                break;
            }
        }
    }

    // Final run over the original dynamic plan: choose-plan operators
    // arbitrate with the observations applied and the compiler serves
    // retained intermediates in place of their subtrees.
    state.release_reservations(&ctx.governor);
    let drained = match run(plan, db, catalog, env, &exec_bindings, ctx, sink) {
        Ok(drained) => drained,
        Err(e) if e.is_retryable() && replanned => {
            // Last rung before governed failure: suppress the
            // observations and continue the original plan.
            state.record_fallback(&format!(
                "re-planned run failed ({e}); reverting to original arbitration"
            ));
            ctx.counters.add_fallbacks(1);
            exec_bindings = bindings.clone();
            run(plan, db, catalog, env, &exec_bindings, ctx, sink)?
        }
        Err(e) => return Err(e),
    };

    // Report the arbitration actually in force at completion (identical
    // inputs reproduce the choose-plan operators' own decisions).
    let startup =
        evaluate_startup_observed(plan, catalog, env, &exec_bindings, &state.observations());
    let report = state.report();
    Ok((drained, Some(ReoptOutcome { startup, report })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::execute;
    use crate::governor::{ExecMode, ResourceLimits};
    use crate::metrics::SharedCounters;
    use dqep_algebra::{CompareOp, HostVar, JoinPred, LogicalExpr, SelectPred};
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_storage::{FaultPlan, ValueDistribution};

    /// The adaptive module's skewed-join shape: a filtered Zipf relation
    /// joined to a second relation. Uniform estimates are badly wrong
    /// about `a < 30`, so the first checkpoint escapes its interval.
    fn skewed_fixture() -> (Catalog, StoredDatabase, Arc<PlanNode>, Environment, Bindings) {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 800, 512, |r| {
                r.attr("a", 800.0).attr("j", 200.0).btree("a", false).btree("j", false)
            })
            .relation("s", 400, 512, |r| {
                r.attr("a", 400.0).attr("j", 200.0).btree("j", false)
            })
            .build()
            .unwrap();
        let db =
            StoredDatabase::generate_with(&cat, 3, ValueDistribution::Zipf { exponent: 1.1 });
        let r = cat.relation_by_name("r").unwrap();
        let s = cat.relation_by_name("s").unwrap();
        let q = LogicalExpr::get(r.id)
            .select(SelectPred::unbound(
                r.attr_id("a").unwrap(),
                CompareOp::Lt,
                HostVar(0),
            ))
            .join(
                LogicalExpr::get(s.id),
                vec![JoinPred::new(r.attr_id("j").unwrap(), s.attr_id("j").unwrap())],
            );
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&q).unwrap().plan;
        let bindings = Bindings::new().with_value(HostVar(0), 30);
        (cat, db, plan, env, bindings)
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    fn quick_config() -> ReoptConfig {
        ReoptConfig {
            backoff_base_ms: 0,
            ..ReoptConfig::default()
        }
    }

    /// A re-optimizing batch-mode execution collecting its rows.
    fn reopt_run(
        plan: &Arc<PlanNode>,
        db: &StoredDatabase,
        cat: &Catalog,
        env: &Environment,
        bindings: &Bindings,
        limits: ResourceLimits,
    ) -> ReoptRun {
        let ctx = ExecContext::with_limits(SharedCounters::new(), limits)
            .with_reopt(Arc::new(ReoptState::new(quick_config())));
        let exec = execute(plan, db, cat, env, bindings, &ctx, Sink::Collect).unwrap();
        let ReoptOutcome { startup, report } = exec.reopt.unwrap();
        ReoptRun {
            summary: exec.summary,
            startup,
            report,
            rows: exec.rows,
        }
    }

    struct ReoptRun {
        summary: crate::metrics::ExecSummary,
        startup: StartupResult,
        report: ReoptReport,
        rows: Vec<Tuple>,
    }

    /// Baseline result and I/O of the plain dynamic execution.
    fn baseline(
        plan: &Arc<PlanNode>,
        db: &StoredDatabase,
        cat: &Catalog,
        env: &Environment,
        bindings: &Bindings,
    ) -> Vec<Tuple> {
        execute(
            plan,
            db,
            cat,
            env,
            bindings,
            &ExecContext::default(),
            Sink::Collect,
        )
        .unwrap()
        .rows
    }

    #[test]
    fn escape_replans_and_reuses_the_intermediate() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let grant = grant_bytes(&bindings, &env, &cat);
        let base_rows = baseline(&plan, &db, &cat, &env, &bindings);

        // The checkpoint subtree's own I/O, measured standalone.
        let startup =
            evaluate_startup_observed(&plan, &cat, &env, &bindings, &Observations::new());
        let target =
            next_blocking_input(&plan, &chosen_map(&startup.decisions), &HashSet::new())
                .expect("the join fixture has a blocking input");
        let before = db.disk.stats();
        materialize(&target, &db, &cat, &env, &bindings, &ExecContext::default()).unwrap();
        let subtree_io = db.disk.stats().since(&before);
        assert!(subtree_io.total() > 0, "the build side reads its relation");

        let before = db.disk.stats();
        let outcome = reopt_run(
            &plan,
            &db,
            &cat,
            &env,
            &bindings,
            ResourceLimits::unlimited(),
        );
        assert_eq!(
            sorted(outcome.rows.clone()),
            sorted(base_rows),
            "re-optimization must preserve the result multiset"
        );
        let c = outcome.report.counters;
        assert!(c.checkpoints >= 1, "blocking input must checkpoint: {c:?}");
        assert!(c.escapes >= 1, "zipf skew must escape the uniform interval: {c:?}");
        assert!(c.replans_adopted >= 1, "escape within budget must re-plan: {c:?}");

        // Intermediate reuse, verified by I/O counters: the adopted plan
        // run from scratch repeats the build side's reads; the reopt run
        // must not (no duplicate build-side reads).
        let reopt_io = db.disk.stats().since(&before);
        let before = db.disk.stats();
        let ctx = ExecContext::new(SharedCounters::new());
        let mut scratch = crate::compile::compile_plan(
            &outcome.startup.resolved,
            &db,
            &cat,
            &bindings,
            grant,
            &ctx,
        )
        .unwrap();
        let scratch_rows = drain(scratch.as_mut(), ExecMode::Tuple).unwrap().len();
        let scratch_io = db.disk.stats().since(&before);
        assert_eq!(scratch_rows, outcome.rows.len(), "same adopted plan");
        assert!(
            reopt_io.total() < subtree_io.total() + scratch_io.total(),
            "substituting the retained build side must not repeat its reads: \
             reopt {reopt_io:?} vs subtree {subtree_io:?} + scratch {scratch_io:?}"
        );
        assert_eq!(outcome.summary.io.total(), reopt_io.total(), "summary reports query I/O");
    }

    #[test]
    fn faulted_checkpoint_continues_the_original_plan() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let base_rows = baseline(&plan, &db, &cat, &env, &bindings);

        // Fail the first read of *every* checkpoint alternative (the
        // choose-plan target has two), so the checkpoint itself dies
        // retryably; the final run's reads start past the schedule and
        // succeed on the original plan.
        db.disk.set_fault_plan(FaultPlan {
            fail_nth_reads: vec![1, 2],
            ..FaultPlan::default()
        });
        let outcome = reopt_run(
            &plan,
            &db,
            &cat,
            &env,
            &bindings,
            ResourceLimits::unlimited(),
        );
        db.disk.set_fault_plan(FaultPlan::none());
        assert_eq!(
            sorted(outcome.rows.clone()),
            sorted(base_rows),
            "a failed checkpoint must not change the answer"
        );
        let c = outcome.report.counters;
        assert!(
            c.replan_failures >= 1,
            "the faulted checkpoint must be recorded: {c:?}"
        );
        assert_eq!(c.replans_adopted, 0, "no observation, no re-plan: {c:?}");
        assert!(outcome
            .report
            .events
            .iter()
            .any(|e| e.kind == ReoptEventKind::ReplanFailed));
    }

    #[test]
    fn memory_pressure_degrades_the_grant_instead_of_failing() {
        let (cat, db, plan, env, bindings) = skewed_fixture();
        let base_rows = baseline(&plan, &db, &cat, &env, &bindings);

        // A memory ceiling too small to retain the materialized build side
        // (hundreds of 512-byte rows): retention is refused, the planning
        // grant degrades, and the query still answers.
        let limits = ResourceLimits {
            memory_bytes: Some(64 * 1024),
            ..ResourceLimits::default()
        };
        let outcome = reopt_run(&plan, &db, &cat, &env, &bindings, limits);
        assert_eq!(
            sorted(outcome.rows.clone()),
            sorted(base_rows),
            "degradation must not change the answer"
        );
        let c = outcome.report.counters;
        assert!(
            c.memory_degradations >= 1,
            "the refused retention must degrade, not fail: {c:?}"
        );
    }

    #[test]
    fn budget_denies_past_max_replans_and_counts() {
        let state = ReoptState::new(ReoptConfig {
            max_replans: 1,
            wall_clock_ms: u64::MAX,
            backoff_base_ms: 0,
        });
        let gov = ResourceGovernor::unlimited();
        assert!(state.request_replan(&gov));
        assert!(!state.request_replan(&gov), "budget of 1 exhausted");
        let counters = state.counters();
        assert_eq!(counters.replans_attempted, 2);
        assert_eq!(counters.replans_denied, 1);
        assert!(state
            .report()
            .events
            .iter()
            .any(|e| e.kind == ReoptEventKind::ReplanDenied));
    }

    #[test]
    fn wall_cap_and_cancellation_deny_replans() {
        let state = ReoptState::new(ReoptConfig {
            max_replans: 10,
            wall_clock_ms: 0,
            backoff_base_ms: 0,
        });
        std::thread::sleep(Duration::from_millis(2));
        assert!(!state.request_replan(&ResourceGovernor::unlimited()));

        let state = ReoptState::new(ReoptConfig {
            max_replans: 10,
            wall_clock_ms: u64::MAX,
            backoff_base_ms: 0,
        });
        let gov = ResourceGovernor::unlimited();
        gov.cancel();
        assert!(!state.request_replan(&gov), "governor has the last word");
    }

    #[test]
    fn retention_is_governed_and_released() {
        let layout = TupleLayout::for_tests(1, 100);
        let gov = ResourceGovernor::new(ResourceLimits {
            memory_bytes: Some(250),
            ..ResourceLimits::default()
        });
        let state = ReoptState::new(ReoptConfig::default());
        assert!(state.try_retain(&gov, NodeId(1), layout.clone(), vec![vec![1], vec![2]]));
        assert_eq!(gov.memory_used(), 200);
        assert!(
            !state.try_retain(&gov, NodeId(2), layout.clone(), vec![vec![3]]),
            "second retention exceeds the grant"
        );
        assert_eq!(gov.memory_used(), 200, "refused retention reserves nothing");
        assert!(state.materialized(NodeId(1)).is_some());
        assert!(state.materialized(NodeId(2)).is_none());
        state.release_reservations(&gov);
        assert_eq!(gov.memory_used(), 0);
        assert!(
            state.materialized(NodeId(1)).is_some(),
            "rows stay available after the reservation returns"
        );
    }

    #[test]
    fn fallback_suppresses_observations() {
        let state = ReoptState::new(ReoptConfig::default());
        state.observe_checkpoint(NodeId(7), "Sort", Interval::new(0.0, 5.0), 100);
        assert_eq!(state.observations().len(), 1);
        assert_eq!(state.escaped_observations(), vec![(NodeId(7), 100.0)]);
        state.record_fallback("test");
        assert!(state.observations().is_empty());
        assert_eq!(state.counters().fallbacks, 1);
    }

    #[test]
    fn materialized_scan_serves_rows_in_both_modes() {
        let layout = TupleLayout::for_tests(1, 16);
        let rows = Arc::new(vec![vec![1i64], vec![2], vec![3]]);
        for mode in [ExecMode::Tuple, ExecMode::Batch] {
            let ctx = ExecContext::new(SharedCounters::new()).with_mode(mode);
            let mut op = MaterializedScanExec::new(Arc::clone(&rows), layout.clone(), ctx);
            let got = drain(&mut op, mode).unwrap();
            assert_eq!(got, *rows);
            // Re-open serves again from the start.
            let again = drain(&mut op, ExecMode::Tuple).unwrap();
            assert_eq!(again, *rows);
        }
    }
}
