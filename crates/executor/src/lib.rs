//! Volcano-style iterator execution engine.
//!
//! Executes (resolved) physical plans against a [`dqep_storage`] database:
//! file scans, B-tree scans and range probes, filters, in-memory and
//! partitioned (Grace) hash joins, merge joins, index nested-loop joins,
//! and external sort — every algorithm of the paper's physical algebra
//! (Table 1). Every plan runs through one entry point, [`execute`]: it
//! compiles the plan under an [`ExecContext`] — choose-plan nodes become
//! run-time [`ChoosePlanExec`] operators that resolve the plan with the
//! actual bindings at start-up (the Section 4 decision procedure) — and
//! drains it, counting the result, collecting it as tuples, or keeping the
//! root's batches ([`Sink`]).
//!
//! Execution is *simulated-time measured*: every page access is accounted
//! by the simulated disk and every record/comparison/hash by CPU counters,
//! and [`ExecSummary::simulated_seconds`] converts both with the same
//! constants the cost model uses. The end-to-end validation tests rely on
//! this: the alternative the choose-plan operator picks at start-up must
//! also be the faster one when actually executed.
//!
//! The pipeline is **fallible end to end**: `open`/`next` return
//! `Result`, storage faults surface as [`ExecError::Storage`], and every
//! query runs under a [`ResourceGovernor`] enforcing its memory grant plus
//! optional row / I/O / wall-clock budgets with cooperative cancellation
//! ([`ExecContext::with_limits`]). A choose-plan whose chosen alternative fails
//! *retryably* at `open` falls back to the next alternative in cost order,
//! recording the fallback in [`ExecSummary::fallbacks`].
//!
//! Execution is **vectorized by default**: operators exchange
//! [`RowBatch`]es of ~[`BATCH_CAPACITY`] rows through
//! [`Operator::next_batch`], with native batch implementations for the
//! hot operators (scans, filter, hash join, sort) and a tuple-looping
//! default for the rest. The tuple path remains fully supported
//! ([`ExecMode::Tuple`], [`ExecContext::with_mode`]) and the two paths
//! produce identical results, accounting, and fallback behavior. The same
//! context selects intra-query parallelism ([`ExecContext::with_dop`]),
//! per-operator tracing ([`ExecContext::with_tracer`]) and mid-query
//! re-optimization ([`ExecContext::with_reopt`]).

#![warn(missing_docs)]
// Runtime executor code must propagate errors, not panic: unwrap/expect
// are reserved for tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// The executor is the hot path; keep the perf lint group clean.
#![deny(clippy::perf)]

pub mod adaptive;
mod batch;
mod choose;
mod compile;
mod delta;
mod error;
mod exchange;
mod exec;
mod explain;
mod filter;
mod governor;
mod hash_join;
mod index_join;
mod journal;
mod merge_join;
mod metrics;
mod netexchange;
mod reopt;
mod scan;
mod sort;
mod trace;
mod tuple;

pub use adaptive::{execute_adaptive, AdaptiveResult};
pub use batch::{RowBatch, RowBatchIter, BATCH_CAPACITY};
pub use choose::{compile_dynamic_plan, ChoosePlanExec};
pub use compile::{compile_plan, execute, Execution};
pub use delta::{compile_delta_plan, BaseDeltas, Delta, DeltaPipeline};
pub use error::{ExecError, Resource};
pub use exchange::{parallel_scan, ExchangeExec};
pub use exec::{drain, BoxedOperator, Operator, Sink};
pub use explain::{
    card_drift, cost_drift, explain_json, parse_json, render_explain, validate_explain_json,
    JsonValue,
};
pub use governor::{ExecContext, ExecMode, ResourceGovernor, ResourceLimits};
pub use hash_join::{
    fold_hash_column, hash_key, join_batches, mix, BuildSide, JoinInput, HASH_SEED,
};
pub use journal::{
    journal, monotonic_ns, validate_journal_json, EventKind, Journal, JournalEvent,
    JOURNAL_CAPACITY, NO_ID,
};
pub use metrics::{CpuCounters, ExecSummary, PlanCacheInfo, SharedCounters};
pub use netexchange::{
    credit_frames, decode_frame, decode_frame_traced, encode_frame, encode_frame_traced,
    frame_encoded_len, presized_batch, scatter_by_shard, shard_route, FrameTrace, LinkFaultPlan,
    NetChannel, NetConfig, NetStats, SimNet, FRAME_HEADER_BYTES,
};
pub use reopt::{
    MaterializedScanExec, ReoptConfig, ReoptCounters, ReoptEvent, ReoptEventKind, ReoptOutcome,
    ReoptReport, ReoptState,
};
pub use trace::{
    merge_distributed, AltAudit, AttemptAudit, ChooseAudit, NetSpanStats, NodeEstimate, SpanId,
    SpanRecord, SpanStats, TraceReport, TracedExec, Tracer,
};
pub use tuple::{Tuple, TupleLayout};
