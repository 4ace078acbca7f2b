//! `shard_join`: one closed-loop client on a two-shard `ShardedService`
//! with hash routing and DOP 1. Its ops mix a repartitioned equi-join,
//! the same join with `ORDER BY` (a k-way merging gather) and a
//! single-relation gather — the only workload that loads `netexchange`,
//! the coordinator and per-shard arbitration.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dqep_algebra::LogicalExpr;
use dqep_catalog::{Catalog, CatalogBuilder, RelationId, SystemConfig};
use dqep_core::Optimizer;
use dqep_cost::Environment;
use dqep_executor::{decode_frame, encode_frame, RowBatch, BATCH_CAPACITY};
use dqep_plan::dag;
use dqep_service::{ShardConfig, ShardOutcome, ShardRouting, ShardedService};
use dqep_sql::{parse_query, ParsedPredicate, Query};
use dqep_storage::IoStats;

use crate::layers::Layers;
use crate::measure::{median, mix, peak_rss_mb, process_cpu_seconds, E2e, Excluded, Report, Rng};
use crate::reference::{Join, RefQuery, Sel};
use crate::serve::SETUPS;
use crate::spans::SelfTimes;

const SHARDS: usize = 2;
/// Untimed ops run after building the service.
const WARMUP_OPS: u64 = 24;

/// The three statements, each with its reference description.
fn statements() -> Vec<(&'static str, RefQuery)> {
    let sel = |rel| Sel {
        rel,
        attr: 0,
        var: "v".to_string(),
    };
    let join = RefQuery {
        rels: vec!["R1".into(), "R2".into()],
        joins: vec![Join {
            left: (0, 2),
            right: (1, 1),
        }],
        sels: vec![sel(0)],
        order_by: None,
    };
    vec![
        (
            "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :v",
            join.clone(),
        ),
        (
            "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :v ORDER BY R1.a",
            RefQuery {
                order_by: Some((0, 0)),
                ..join
            },
        ),
        (
            "SELECT * FROM R2 WHERE R2.a < :v",
            RefQuery {
                rels: vec!["R2".into()],
                sels: vec![sel(0)],
                ..RefQuery::default()
            },
        ),
    ]
}

fn catalog() -> Catalog {
    CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("R1", 20_000, 256, |r| {
            r.attr("a", 20_000.0)
                .attr("jl", 20_000.0)
                .attr("jr", 10_000.0)
                .btree("a", false)
                .btree("jr", false)
        })
        .relation("R2", 10_000, 256, |r| {
            r.attr("a", 10_000.0)
                .attr("jl", 10_000.0)
                .attr("jr", 10_000.0)
                .btree("a", false)
                .btree("jl", false)
        })
        .build()
        .expect("the shard_join catalog is well formed")
}

/// Op `index`: statement and binding. Bindings are log-uniform over the
/// selectivity range, so most results are small and a few are the
/// whole join.
fn op(seed: u64, index: u64) -> (usize, i64) {
    let mut rng = Rng::for_op(seed, index);
    let stmt = rng.below(3) as usize;
    let domain = if stmt == 2 { 10_000.0 } else { 20_000.0 };
    (stmt, (rng.selectivity(1e-3) * domain).round() as i64)
}

fn build(seed: u64, trace: bool) -> ShardedService {
    ShardedService::new(
        catalog(),
        ShardConfig {
            shards: SHARDS,
            routing: ShardRouting::Hash { attr: 0 },
            dop: 1,
            io_latency_micros: 0,
            data_seed: seed,
            trace,
            ..ShardConfig::default()
        },
    )
}

fn disk_stats(service: &ShardedService) -> IoStats {
    service
        .shards()
        .iter()
        .fold(IoStats::default(), |mut acc, s| {
            let io = s.db.disk.stats();
            acc.seq_reads += io.seq_reads;
            acc.random_reads += io.random_reads;
            acc.writes += io.writes;
            acc
        })
}

/// Reference results per statement, from the union of the shards'
/// exported rows: the result with the variable unbounded, sorted on the
/// selection column, so op `v`'s result is the prefix below `v`.
struct Checker {
    stmts: Vec<(&'static str, RefQuery)>,
    full: Vec<Vec<Vec<i64>>>,
}

impl Checker {
    fn new(service: &ShardedService) -> Checker {
        let mut tables: HashMap<String, Vec<Vec<i64>>> = HashMap::new();
        for shard in service.shards() {
            for (rel, rows) in shard.db.export_rows() {
                let name = service.catalog().relation(rel).name.clone();
                tables.entry(name).or_default().extend(rows);
            }
        }
        let stmts = statements();
        let full = stmts
            .iter()
            .map(|(_, q)| {
                let t: Vec<&[Vec<i64>]> = q.rels.iter().map(|n| tables[n].as_slice()).collect();
                let mut rows = q.evaluate(&t, &[("v".to_string(), i64::MAX)]);
                rows.sort_by_key(|r| r[0]);
                rows
            })
            .collect();
        Checker { stmts, full }
    }

    /// The digest of the reference rows of `(stmt, v)`. The selection
    /// column is column 0 of every statement's result.
    fn expected(&self, (stmt, v): (usize, i64)) -> u64 {
        let full = &self.full[stmt];
        digest(&full[..full.partition_point(|r| r[0] < v)])
    }

    /// Whether `outcome` holds exactly the reference rows of `(stmt, v)`,
    /// in `ORDER BY` order where the statement has one.
    fn check(&self, op: (usize, i64), outcome: &ShardOutcome) -> bool {
        self.expected(op) == got(&self.stmts, op.0, outcome)
    }
}

/// A digest of `rows` as a multiset: their count and the wrapping sum of
/// a mixing hash of each row, so neither cloning nor sorting is needed.
fn digest(rows: &[Vec<i64>]) -> u64 {
    rows.iter().fold(mix(rows.len() as u64), |acc, row| {
        acc.wrapping_add(
            row.iter()
                .fold(0x243F_6A88_85A3_08D3, |h, &v| mix(h ^ v as u64)),
        )
    })
}

/// What the untraced run keeps of one outcome until it is checked after
/// the window: the digest of its rows, or 0 when an `ORDER BY`
/// statement's rows came out of order. Keeping only this, and building
/// the reference results after reading the peak memory, leaves the
/// reference out of `peak_rss_mb`.
fn got(stmts: &[(&'static str, RefQuery)], stmt: usize, outcome: &ShardOutcome) -> u64 {
    let ordered =
        stmts[stmt].1.order_by.is_none() || outcome.rows.windows(2).all(|w| w[0][0] <= w[1][0]);
    if ordered {
        digest(&outcome.rows)
    } else {
        0
    }
}

/// The untraced run: end-to-end metrics.
#[must_use]
pub fn run(seed: u64, budget: Duration) -> Report {
    let stmts = statements();
    let mut e2e = E2e::default();
    let mut service = None;
    for _ in 0..SETUPS {
        drop(service.take());
        let started = Instant::now();
        let s = build(seed, false);
        for i in 0..WARMUP_OPS {
            let (stmt, v) = op(seed, u64::MAX - i);
            let _ = s.execute(stmts[stmt].0, &[("v", v)]);
        }
        e2e.setups_s.push(started.elapsed().as_secs_f64());
        service = Some(s);
    }
    let service = service.expect("at least one set-up");

    let config = service.catalog().config;
    let mut excluded = Excluded::default();
    let started = Instant::now();
    let mut index = 0;
    let mut outcomes = Vec::new();
    while started.elapsed() - excluded.wall < budget {
        e2e.mark(
            (started.elapsed() - excluded.wall).as_secs_f64(),
            false,
            || process_cpu_seconds() - excluded.cpu_s,
        );
        let (stmt, v) = op(seed, index);
        index += 1;
        let io_before = disk_stats(&service);
        let t = Instant::now();
        let result = service.execute(stmts[stmt].0, &[("v", v)]);
        let latency = t.elapsed();
        let io = disk_stats(&service).since(&io_before);
        e2e.attempted += 1;
        match &result {
            Ok(outcome) => {
                e2e.record(latency.as_secs_f64() * 1e3, io.seconds(&config) * 1e3);
                let got = excluded.run(|| got(&stmts, stmt, outcome));
                let i = u32::try_from(index - 1).expect("fewer than 2^32 ops in a run");
                outcomes.push((i, got));
            }
            Err(e) => {
                eprintln!("FAILED op {}: {e}", index - 1);
                e2e.failed += 1;
            }
        }
    }
    e2e.mark(
        (started.elapsed() - excluded.wall).as_secs_f64(),
        true,
        || process_cpu_seconds() - excluded.cpu_s,
    );
    e2e.peak_rss_mb = peak_rss_mb();
    let checker = Checker::new(&service);
    for &(i, got) in &outcomes {
        let (stmt, v) = op(seed, u64::from(i));
        if checker.expected((stmt, v)) != got {
            e2e.failed += 1;
            eprintln!("MISMATCH op {i}: {} v={v}", stmts[stmt].0);
        }
    }
    Report::from_e2e(&e2e, e2e.failed == 0)
}

/// Wall seconds to encode `rows` into frames and decode them back, the
/// codec work a gather pays per result row; `None` when the round trip
/// loses rows.
fn frame_codec(rows: &[Vec<i64>]) -> Option<(f64, f64)> {
    let Some(width) = rows.first().map(Vec::len) else {
        return Some((0.0, 0.0));
    };
    let mut frames = Vec::new();
    let t = Instant::now();
    for chunk in rows.chunks(BATCH_CAPACITY) {
        let mut batch = RowBatch::with_capacity(width, chunk.len());
        for row in chunk {
            batch.push_row(row);
        }
        frames.push(encode_frame(&batch));
    }
    let encode = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decoded: usize = frames
        .iter()
        .map(|f| decode_frame(f).map_or(0, |b| b.len()))
        .sum();
    let decode = t.elapsed().as_secs_f64();
    (decoded == rows.len()).then_some((encode, decode))
}

/// The coordinator's per-relation access nodes, as `ShardedService`
/// builds them before optimizing each: `Get`, under every selection on
/// that relation in source order.
fn access_nodes(query: &Query) -> Vec<LogicalExpr> {
    fn relations(expr: &LogicalExpr, out: &mut Vec<RelationId>) {
        match expr {
            LogicalExpr::Get { relation } => out.push(*relation),
            LogicalExpr::Select { input, .. } => relations(input, out),
            LogicalExpr::Join { left, right, .. } => {
                relations(left, out);
                relations(right, out);
            }
        }
    }
    let mut rels = Vec::new();
    relations(&query.expr, &mut rels);
    rels.into_iter()
        .map(|rel| {
            let mut node = LogicalExpr::Get { relation: rel };
            for pred in &query.predicates {
                if let ParsedPredicate::Select(sp) = pred {
                    if sp.attr.relation == rel {
                        node = LogicalExpr::Select {
                            input: Box::new(node),
                            predicate: *sp,
                        };
                    }
                }
            }
            node
        })
        .collect()
}

/// The traced run: an untraced and a traced service over the same data
/// run the same ops alternately; the traced outcomes give the network,
/// skew and operator numbers, the pair gives the tracing overhead.
#[must_use]
pub fn run_traced(seed: u64, budget: Duration) -> Report {
    let stmts = statements();
    let (plain, traced) = (build(seed, false), build(seed, true));
    let checker = Checker::new(&traced);
    let config = traced.catalog().config;
    let env = Environment::dynamic_compile_time(&config);
    for i in 0..WARMUP_OPS {
        let (stmt, v) = op(seed, u64::MAX - i);
        let _ = plain.execute(stmts[stmt].0, &[("v", v)]);
        let _ = traced.execute(stmts[stmt].0, &[("v", v)]);
    }
    let mut layers = Layers::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut bytes, mut frames, mut divergent) = (0u64, 0u64, 0usize);
    let (mut skews, mut encode, mut decode) = (Vec::new(), 0.0, 0.0);
    let (mut parse, mut optimize, mut counts) = (0.0, 0.0, [0f64; 5]);
    let mut times = SelfTimes::default();
    let io_before = disk_stats(&traced);
    let started = Instant::now();
    let mut index = 0;
    while started.elapsed() < budget {
        let (stmt, v) = op(seed, index);
        index += 1;
        let sql = stmts[stmt].0;
        // Alternate which service goes first, so neither always runs warm.
        let timed = |s: &ShardedService| {
            let t = Instant::now();
            let r = s.execute(sql, &[("v", v)]);
            (r, t.elapsed().as_secs_f64())
        };
        let ((p, pt), (r, tt)) = if index % 2 == 0 {
            let a = timed(&plain);
            (a, timed(&traced))
        } else {
            let b = timed(&traced);
            (timed(&plain), b)
        };
        attempted += 2;
        let (Ok(p), Ok(r)) = (p, r) else {
            failed += 1;
            continue;
        };
        let good = checker.check((stmt, v), &p) && checker.check((stmt, v), &r);
        failed += u64::from(!good);
        plain_s += pt;
        traced_s += tt;
        bytes += r.net.bytes;
        frames += r.net.frames;
        divergent += r.divergent_nodes.len();
        let total: u64 = r.per_shard_rows.iter().sum();
        if total > 0 {
            let max = r.per_shard_rows.iter().copied().max().unwrap_or(0);
            skews.push(max as f64 * r.per_shard_rows.len() as f64 / total as f64);
        }
        if let Some(trace) = &r.trace {
            times.add(trace);
        }
        let Some((e, d)) = frame_codec(&r.rows) else {
            failed += 1;
            continue;
        };
        encode += e;
        decode += d;

        // The coordinator parses every statement and optimizes one
        // access node per relation; replay both on its catalog.
        let t = Instant::now();
        let query = parse_query(sql, traced.catalog()).expect("benchmark SQL parses");
        parse += t.elapsed().as_secs_f64();
        let nodes = access_nodes(&query);
        let optimizer = Optimizer::new(traced.catalog(), &env);
        let t = Instant::now();
        let outs: Vec<_> = nodes
            .iter()
            .map(|node| optimizer.optimize(node).expect("benchmark SQL optimizes"))
            .collect();
        optimize += t.elapsed().as_secs_f64();
        for out in &outs {
            counts[0] += out.stats.groups as f64;
            counts[1] += out.stats.physical_considered as f64;
            counts[2] += out.stats.pruned_by_bound as f64;
            counts[3] += dag::node_count(&out.plan) as f64;
            counts[4] += dag::choose_plan_count(&out.plan) as f64;
        }
    }
    let ops = index.max(1) as f64;
    let io = disk_stats(&traced).since(&io_before);
    layers.set("sql.parse_us", parse * 1e6 / ops);
    layers.set("core.optimize_ms", optimize * 1e3 / ops);
    layers.set("core.memo_groups", counts[0] / ops);
    layers.set("core.physical_considered", counts[1] / ops);
    layers.set("core.pruned_by_bound", counts[2] / ops);
    // The coordinator runs no global start-up decision: each shard
    // arbitrates its own access plans inside its execution.
    layers.set("plan.startup_us", 0.0);
    layers.set("plan.nodes", counts[3] / ops);
    layers.set("plan.choose_nodes", counts[4] / ops);
    layers.set("executor.execute_ms", traced_s * 1e3 / ops);
    layers.set_operators(&times, index as usize);
    layers.set(
        "storage.pages_read_per_op",
        (io.seq_reads + io.random_reads) as f64 / ops,
    );
    layers.set("storage.pages_written_per_op", io.writes as f64 / ops);
    layers.set("shard.net_bytes_per_op", bytes as f64 / ops);
    layers.set("shard.net_frames_per_op", frames as f64 / ops);
    layers.set("shard.row_skew", median(&skews));
    layers.set("shard.divergent_nodes_per_op", divergent as f64 / ops);
    layers.set(
        "shard.credit_wait_ms",
        times.credit_wait_ns as f64 / 1e6 / ops,
    );
    layers.set("shard.frame_encode_ms", encode * 1e3 / ops);
    layers.set("shard.frame_decode_ms", decode * 1e3 / ops);
    layers.set(
        "trace.overhead_pct",
        (traced_s - plain_s) / plain_s.max(1e-12) * 100.0,
    );
    layers.set("trace.sampled_ops", index as f64);
    let mut report = Report {
        attempted,
        failed,
        correct: failed == 0,
        ..Report::default()
    };
    layers.into_report(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_free_and_sees_each_row() {
        let rows = vec![vec![1, 2], vec![3, 4], vec![3, 4], vec![5, 6]];
        let mut shuffled = rows.clone();
        shuffled.reverse();
        assert_eq!(digest(&rows), digest(&shuffled));
        assert_ne!(digest(&rows), digest(&rows[..3]));
        assert_ne!(digest(&rows), digest(&[&rows[..3], &rows[..1]].concat()));
        assert_ne!(digest(&[vec![1, 2]]), digest(&[vec![2, 1]]));
    }

    #[test]
    fn op_stream_repeats_for_a_seed() {
        let stream = |seed| (0..100).map(|i| op(seed, i)).collect::<Vec<_>>();
        assert_eq!(stream(8), stream(8));
        assert_ne!(stream(8), stream(9));
        assert!((0..3).all(|s| stream(8).iter().any(|&(stmt, _)| stmt == s)));
    }
}
