//! `live_churn`: a `LiveViewRegistry` with a filtered join view and a
//! filtered `ORDER BY` view receives small commits, about three inserts
//! to one delete of an existing row. Inserted selection values drift
//! into the views' filters, so view cardinalities leave their bind-time
//! intervals (drift re-arbitration), and the tables grow past the
//! histogram-refresh threshold many times: the write path of storage and
//! the `delta` pipeline, beside the read-only workloads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dqep_catalog::{Catalog, CatalogBuilder, RelationId, SystemConfig};
use dqep_cost::Environment;
use dqep_service::{LiveConfig, LiveViewRegistry, MetricsRegistry, WriteOp};
use dqep_storage::StoredDatabase;

use crate::layers::Layers;
use crate::measure::{
    peak_rss_mb, process_cpu_seconds, reset_peak_rss, E2e, Excluded, Report, Rng,
};
use crate::reference::{Join, RefQuery, Sel};
use crate::serve::SETUPS;

/// Write operations per commit.
const OPS_PER_COMMIT: usize = 8;
/// Untimed commits after registering the views.
const WARMUP_COMMITS: u64 = 20;
/// Commits per epoch. With three inserts per delete the tables grow
/// without bound, so a run is a sequence of epochs, each starting from a
/// freshly generated database: latency and memory stay stationary over
/// the run while every epoch still doubles the tables, crossing the 10%
/// histogram-refresh threshold seven times.
const EPOCH_COMMITS: u64 = 5_000;
/// Commits over which the share of inserts landing inside the views'
/// filters ramps from 0 to its cap.
const DRIFT_COMMITS: f64 = 1_500.0;
const DRIFT_CAP: f64 = 0.5;
const R1_ROWS: u64 = 20_000;
const R2_ROWS: u64 = 8_000;
const JOIN_DOMAIN: i64 = 4_000;
/// View bindings: 5% of each relation's selection domain.
const V1_BOUND: i64 = 1_000;
const V2_BOUND: i64 = 400;

const VIEWS: [(&str, &str, &str, i64); 2] = [
    (
        "join",
        "SELECT * FROM R1, R2 WHERE R1.jr = R2.jl AND R1.a < :v",
        "v",
        V1_BOUND,
    ),
    (
        "ordered",
        "SELECT * FROM R2 WHERE R2.a < :w ORDER BY R2.a",
        "w",
        V2_BOUND,
    ),
];

fn refs() -> [RefQuery; 2] {
    let sel = |name: &str| Sel {
        rel: 0,
        attr: 0,
        var: name.to_string(),
    };
    [
        RefQuery {
            rels: vec!["R1".into(), "R2".into()],
            joins: vec![Join {
                left: (0, 2),
                right: (1, 1),
            }],
            sels: vec![sel("v")],
            order_by: None,
        },
        RefQuery {
            rels: vec!["R2".into()],
            sels: vec![sel("w")],
            order_by: Some((0, 0)),
            ..RefQuery::default()
        },
    ]
}

fn catalog() -> Catalog {
    let rel = |b: CatalogBuilder, name: &str, card: u64| {
        b.relation(name, card, 64, |r| {
            r.attr("a", card as f64)
                .attr("jl", JOIN_DOMAIN as f64)
                .attr("jr", JOIN_DOMAIN as f64)
                .btree("a", false)
                .btree("jl", false)
                .btree("jr", false)
        })
    };
    let b = rel(
        CatalogBuilder::new(SystemConfig::paper_1994()),
        "R1",
        R1_ROWS,
    );
    rel(b, "R2", R2_ROWS)
        .build()
        .expect("the live_churn catalog is well formed")
}

/// The deterministic commit stream. Deletes name existing rows, so the
/// generator mirrors the tables' contents.
pub struct Stream {
    seed: u64,
    next: u64,
    rels: [RelationId; 2],
    mirror: [Vec<Vec<i64>>; 2],
}

impl Stream {
    fn new(seed: u64, catalog: &Catalog, db: &StoredDatabase) -> Stream {
        let rels = ["R1", "R2"].map(|n| catalog.relation_by_name(n).expect("relation exists").id);
        let mut export = db.export_rows();
        let mirror = rels.map(|r| export.remove(&r).unwrap_or_default());
        Stream {
            seed,
            next: 0,
            rels,
            mirror,
        }
    }

    /// The next commit's write operations.
    fn commit(&mut self) -> Vec<WriteOp> {
        let mut rng = Rng::for_op(self.seed, self.next);
        let hot_share = (self.next as f64 / DRIFT_COMMITS).min(1.0) * DRIFT_CAP;
        self.next += 1;
        (0..OPS_PER_COMMIT)
            .map(|_| {
                let r = rng.below(2) as usize;
                let relation = self.rels[r];
                let rows = &mut self.mirror[r];
                if rng.below(4) == 0 && !rows.is_empty() {
                    let victim = rows.swap_remove(rng.below(rows.len() as u64) as usize);
                    return WriteOp::Delete {
                        relation,
                        values: victim,
                    };
                }
                let (domain, bound) = if r == 0 {
                    (R1_ROWS, V1_BOUND)
                } else {
                    (R2_ROWS, V2_BOUND)
                };
                let a = if rng.unit() < hot_share {
                    rng.below(bound as u64) as i64
                } else {
                    rng.below(domain) as i64
                };
                let values = vec![
                    a,
                    rng.below(JOIN_DOMAIN as u64) as i64,
                    rng.below(JOIN_DOMAIN as u64) as i64,
                ];
                rows.push(values.clone());
                WriteOp::Insert { relation, values }
            })
            .collect()
    }
}

/// The seed of epoch `epoch` of a run seeded with `seed`.
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    seed ^ (epoch << 40)
}

/// A registry with both views registered and warmed up, and its stream.
fn set_up(seed: u64) -> Result<(LiveViewRegistry, Stream), String> {
    let catalog = catalog();
    let db = StoredDatabase::generate(&catalog, seed);
    let mut stream = Stream::new(seed, &catalog, &db);
    let env = Environment::dynamic_compile_time(&catalog.config);
    let mut reg = LiveViewRegistry::new(
        catalog,
        db,
        env,
        LiveConfig::default(),
        Arc::new(MetricsRegistry::new()),
    );
    for (name, sql, var, bound) in VIEWS {
        reg.register(name, sql, &[(var, bound)])
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..WARMUP_COMMITS {
        reg.commit(&stream.commit()).map_err(|e| e.to_string())?;
    }
    Ok((reg, stream))
}

/// Checks both views' snapshots against the reference evaluator over the
/// registry's exported rows. The join view's column layout follows its
/// current plan, so either concatenation order of R1 and R2 is accepted.
fn check(reg: &LiveViewRegistry) -> bool {
    let export = reg.database().export_rows();
    let table = |name: &str| {
        let id = reg
            .catalog()
            .relation_by_name(name)
            .expect("relation exists")
            .id;
        export.get(&id).map_or(&[][..], Vec::as_slice)
    };
    let mut ok = true;
    for ((name, _, var, bound), refq) in VIEWS.iter().zip(refs()) {
        let tables: Vec<&[Vec<i64>]> = refq.rels.iter().map(|n| table(n)).collect();
        let mut expected = refq.evaluate(&tables, &[((*var).to_string(), *bound)]);
        let Some(snapshot) = reg.snapshot(name) else {
            return false;
        };
        let view_ok = if refq.order_by.is_some() {
            let ordered = snapshot.windows(2).all(|w| w[0][0] <= w[1][0]);
            let mut got = snapshot;
            got.sort_unstable();
            expected.sort_unstable();
            ordered && got == expected
        } else {
            let mut got = snapshot;
            got.sort_unstable();
            let mut swapped: Vec<Vec<i64>> = expected
                .iter()
                .map(|r| [&r[3..], &r[..3]].concat())
                .collect();
            swapped.sort_unstable();
            got == expected || got == swapped
        };
        if !view_ok {
            eprintln!("MISMATCH view {name}");
        }
        ok &= view_ok;
    }
    ok
}

/// The untraced run: end-to-end metrics, one op per commit. Ending an
/// epoch (checking the views, dropping the registry, building the next)
/// is excluded from the measured window and from `peak_rss_mb`: the peak
/// is read before it and reset to the resident size after it.
#[must_use]
pub fn run(seed: u64, budget: Duration) -> Report {
    let mut e2e = E2e::default();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let started = Instant::now();
        match set_up(seed) {
            Ok(s) => state = Some(s),
            Err(e) => {
                eprintln!("FAILED set-up: {e}");
                return Report {
                    attempted: 1,
                    failed: 1,
                    correct: false,
                    ..Report::default()
                };
            }
        }
        e2e.setups_s.push(started.elapsed().as_secs_f64());
    }
    let config = catalog().config;
    let mut excluded = Excluded::default();
    let (mut correct, mut epoch, mut rearbitrations) = (true, 0, 0);
    let started = Instant::now();
    let mut commits = 0u64;
    while started.elapsed() - excluded.wall < budget {
        let (reg, stream) = state.as_mut().expect("a live registry");
        e2e.mark(
            (started.elapsed() - excluded.wall).as_secs_f64(),
            false,
            || process_cpu_seconds() - excluded.cpu_s,
        );
        let ops = stream.commit();
        let io_before = reg.database().disk.stats();
        let t = Instant::now();
        let outcome = reg.commit(&ops);
        let latency = t.elapsed();
        let io = reg.database().disk.stats().since(&io_before);
        e2e.attempted += 1;
        commits += 1;
        match outcome {
            Ok(o) if o.applied == o.attempted => {
                e2e.record(latency.as_secs_f64() * 1e3, io.seconds(&config) * 1e3);
            }
            other => {
                eprintln!("FAILED commit {commits}: {other:?}");
                e2e.failed += 1;
            }
        }
        if commits.is_multiple_of(EPOCH_COMMITS) {
            e2e.peak_rss_mb = e2e.peak_rss_mb.max(peak_rss_mb());
            let next = excluded.run(|| {
                let (reg, stream) = state.take().expect("a live registry");
                correct &= check(&reg);
                rearbitrations += reg.views().iter().map(|v| v.rearbitrations).sum::<u64>();
                drop((reg, stream));
                epoch += 1;
                let next = set_up(epoch_seed(seed, epoch));
                if !reset_peak_rss() {
                    eprintln!("peak_rss_mb: cannot reset the peak; it includes epoch set-up");
                }
                next
            });
            match next {
                Ok(s) => state = Some(s),
                Err(e) => {
                    eprintln!("FAILED set-up of epoch {epoch}: {e}");
                    e2e.failed += 1;
                    break;
                }
            }
        }
    }
    e2e.mark(
        (started.elapsed() - excluded.wall).as_secs_f64(),
        true,
        || process_cpu_seconds() - excluded.cpu_s,
    );
    e2e.peak_rss_mb = e2e.peak_rss_mb.max(peak_rss_mb());
    if let Some((reg, _)) = &state {
        rearbitrations += reg.views().iter().map(|v| v.rearbitrations).sum::<u64>();
        correct &= check(reg);
    }
    if !correct {
        e2e.failed += 1;
    }
    let mut report = Report::from_e2e(&e2e, correct && e2e.failed == 0);
    report.note(format!(
        "commits {commits} in {} epochs, drift re-arbitrations {rearbitrations}",
        epoch + 1
    ));
    report
}

/// The traced run. A registry takes the commit stream, and the same
/// writes are replayed straight into a second database through
/// `StoredDatabase::insert`/`delete`: the replay is the storage layer's
/// share of a commit, the rest is view maintenance. No program tracer
/// exists on this path, so `trace.overhead_pct` reads 0.
#[must_use]
pub fn run_traced(seed: u64, budget: Duration) -> Report {
    let catalog = catalog();
    let (mut commit_s, mut replay_s) = (0.0, 0.0);
    let (mut rows_written, mut propagated, mut rearbitrations) = (0u64, 0u64, 0u64);
    let (mut attempted, mut failed, mut commits) = (0u64, 0u64, 0u64);
    let (mut reads, mut writes) = (0u64, 0u64);
    let started = Instant::now();
    let mut epoch = 0;
    while started.elapsed() < budget {
        let epoch_seed = epoch_seed(seed, epoch);
        epoch += 1;
        let Ok((mut reg, mut stream)) = set_up(epoch_seed) else {
            eprintln!("FAILED set-up of epoch {epoch}");
            attempted += 1;
            failed += 1;
            break;
        };
        // The replay database takes the warm-up commits too.
        let mut replay = StoredDatabase::generate(&catalog, epoch_seed);
        let mut warm = Stream::new(epoch_seed, &catalog, &replay);
        for _ in 0..WARMUP_COMMITS {
            for op in warm.commit() {
                failed += u64::from(!apply(&mut replay, &catalog, &op));
            }
        }
        let io_before = reg.database().disk.stats();
        for _ in 0..EPOCH_COMMITS {
            if started.elapsed() >= budget {
                break;
            }
            let ops = stream.commit();
            let t = Instant::now();
            let outcome = reg.commit(&ops);
            commit_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let replayed = ops
                .iter()
                .filter(|op| apply(&mut replay, &catalog, op))
                .count();
            replay_s += t.elapsed().as_secs_f64();
            failed += u64::from(replayed != ops.len());
            rows_written += ops.len() as u64;
            commits += 1;
            attempted += 1;
            match &outcome {
                Ok(o) if o.applied == o.attempted => {
                    propagated += o.rows_propagated;
                    rearbitrations += o.rearbitrations;
                }
                _ => failed += 1,
            }
        }
        failed += u64::from(!check(&reg));
        let io = reg.database().disk.stats().since(&io_before);
        reads += io.seq_reads + io.random_reads;
        writes += io.writes;
    }
    let n = commits.max(1) as f64;
    let mut layers = Layers::default();
    layers.set("storage.pages_read_per_op", reads as f64 / n);
    layers.set("storage.pages_written_per_op", writes as f64 / n);
    layers.set(
        "storage.write_us_per_row",
        replay_s * 1e6 / rows_written.max(1) as f64,
    );
    layers.set("live.rows_propagated_per_commit", propagated as f64 / n);
    layers.set("live.rearbitrations", rearbitrations as f64);
    layers.set(
        "live.maintain_us_per_commit",
        (commit_s - replay_s) * 1e6 / n,
    );
    layers.set("trace.overhead_pct", 0.0);
    layers.set("trace.sampled_ops", n);
    let mut report = Report {
        attempted,
        failed,
        correct: failed == 0,
        ..Report::default()
    };
    layers.into_report(&mut report);
    report
}

/// Applies one write straight to storage; `false` when it failed or a
/// delete found no row (the stream only deletes rows it inserted or
/// loaded).
fn apply(db: &mut StoredDatabase, catalog: &Catalog, op: &WriteOp) -> bool {
    match op {
        WriteOp::Insert { relation, values } => db.insert(catalog, *relation, values).is_ok(),
        WriteOp::Delete { relation, values } => {
            matches!(db.delete(catalog, *relation, values), Ok(Some(_)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_stream_repeats_for_a_seed() {
        let catalog = catalog();
        let stream = |seed| {
            let db = StoredDatabase::generate(&catalog, seed);
            let mut s = Stream::new(seed, &catalog, &db);
            (0..200).map(|_| s.commit()).collect::<Vec<_>>()
        };
        let first = stream(4);
        assert_eq!(first, stream(4));
        assert_ne!(first, stream(5));
        let ops: Vec<&WriteOp> = first.iter().flatten().collect();
        let deletes = ops
            .iter()
            .filter(|o| matches!(o, WriteOp::Delete { .. }))
            .count();
        let share = deletes as f64 / ops.len() as f64;
        assert!((0.18..0.32).contains(&share), "delete share {share}");
    }

    #[test]
    fn views_match_the_reference_after_commits() {
        let (mut reg, mut stream) = set_up(2).expect("set-up succeeds");
        for _ in 0..300 {
            reg.commit(&stream.commit()).expect("commit succeeds");
        }
        assert!(check(&reg));
    }
}
