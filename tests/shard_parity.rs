//! Sharded-execution parity: a query distributed across shard replicas
//! with repartitioning exchange and per-shard arbitration must produce
//! the same result **multiset** as plain single-node dynamic execution —
//! across random chain workloads, shard counts {1, 2, 4}, DOP {1, 2},
//! both execution modes, injected link faults (within the retransmission
//! budget), and governed memory. Divergent per-shard winners are a
//! legitimate — and asserted — behaviour, never a correctness excuse.

use dqep::catalog::{Catalog, CatalogBuilder, SystemConfig};
use dqep::cost::{Bindings, Environment};
use dqep::executor::{
    compile_dynamic_plan, drain, ExecContext, ExecError, ExecMode, LinkFaultPlan, Resource,
    ResourceLimits, SharedCounters, Tuple, TupleLayout,
};
use dqep::optimizer::Optimizer;
use dqep::service::{ServiceError, ShardConfig, ShardRouting, ShardedService};
use dqep::sql::parse_query;
use dqep::storage::{StoredDatabase, ValueDistribution};
use proptest::prelude::*;

/// The same randomized 1–3 relation chain workload as the other parity
/// suites, expressed through the SQL front end so the sharded service's
/// whole path (parse → distribute → arbitrate → exchange → merge) is
/// under test.
#[derive(Debug, Clone)]
struct RandomWorkload {
    cards: Vec<u64>,
    domain_factors: Vec<f64>,
    selected: Vec<bool>,
    order_by: bool,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..=3).prop_flat_map(|n| {
        (
            proptest::collection::vec(40u64..400, n),
            proptest::collection::vec(0.2f64..1.25, n),
            proptest::collection::vec(any::<bool>(), n),
            any::<bool>(),
        )
            .prop_map(|(cards, domain_factors, mut selected, order_by)| {
                if !selected.iter().any(|s| *s) {
                    selected[0] = true;
                }
                RandomWorkload {
                    cards,
                    domain_factors,
                    selected,
                    order_by,
                }
            })
    })
}

/// Builds the catalog plus the SQL text and host-variable bindings of
/// the workload's chain query.
fn build(w: &RandomWorkload, sel: f64) -> (Catalog, String, Vec<(String, i64)>) {
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

    let from: Vec<String> = (0..w.cards.len()).map(|i| format!("t{i}")).collect();
    let mut preds: Vec<String> = (1..w.cards.len())
        .map(|i| format!("t{}.j = t{i}.j", i - 1))
        .collect();
    let mut binds = Vec::new();
    for (i, &selected) in w.selected.iter().enumerate() {
        if selected {
            preds.push(format!("t{i}.a < :v{i}"));
            let domain = catalog.relations()[i].attributes[0].domain_size;
            binds.push((format!("v{i}"), (sel * domain) as i64));
        }
    }
    let mut sql = format!("SELECT * FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
    if w.order_by {
        sql.push_str(" ORDER BY t0.a");
    }
    (catalog, sql, binds)
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_unstable();
    rows
}

/// Plain single-node execution over a database generated with the exact
/// seed and per-attribute distribution profile the sharded service uses
/// for its global data, remapped to the canonical `FROM`-order layout
/// the sharded result uses.
fn single_node_rows(
    catalog: &Catalog,
    sql: &str,
    binds: &[(&str, i64)],
    config: &ShardConfig,
    canonical: &TupleLayout,
) -> Result<Vec<Tuple>, ExecError> {
    let dist = config.skew.map_or(ValueDistribution::Uniform, |exponent| {
        ValueDistribution::Zipf { exponent }
    });
    let db = StoredDatabase::generate_profiled(catalog, config.data_seed, |_, ai| {
        if ai == 0 {
            dist
        } else {
            ValueDistribution::Uniform
        }
    });
    let env = Environment::dynamic_compile_time(&catalog.config);
    let query = parse_query(sql, catalog).expect("workload SQL parses");
    let mut bindings = Bindings::new();
    for &(name, value) in binds {
        let var = query.host_var(name).expect("known host var");
        bindings = bindings.with_value(var, value);
    }
    let memory = (env.memory.expected() * f64::from(catalog.config.page_size)) as usize;
    let plan = Optimizer::new(catalog, &env)
        .optimize_with_props(&query.expr, query.required_props())
        .expect("workload optimizes")
        .plan;
    let ctx = ExecContext::with_limits(SharedCounters::new(), config.limits)
        .with_mode(config.exec_mode)
        .with_dop(config.dop);
    let mut op = compile_dynamic_plan(&plan, &db, catalog, &env, &bindings, memory, &ctx)?;
    let layout = op.layout().clone();
    let rows = drain(op.as_mut(), config.exec_mode)?;
    Ok(match canonical.projection_from(&layout) {
        None => rows,
        Some(proj) => rows
            .iter()
            .map(|row| proj.iter().map(|&i| row[i]).collect())
            .collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random chain queries over shard counts {1, 2, 4} × DOP {1, 2} in
    /// both execution modes, optionally under link faults (inside the
    /// retransmission budget) or a governed per-shard memory budget:
    /// identical result multisets whenever both paths succeed. A sharded
    /// failure where single-node succeeds is acceptable **only** as a
    /// governed memory refusal — never as a network or logic error.
    #[test]
    fn sharded_matches_single_node(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
        dop in prop_oneof![Just(1usize), Just(2)],
        mode in prop_oneof![Just(ExecMode::Tuple), Just(ExecMode::Batch)],
        hazard in prop_oneof![Just(0u8), Just(1), Just(2)],
        fault_frames in proptest::collection::vec(1u64..6, 0..3),
        mem_kb in 8u64..128,
    ) {
        let (catalog, sql, binds) = build(&w, sel);
        let limits = ResourceLimits {
            memory_bytes: (hazard == 2).then_some(mem_kb * 1024),
            ..ResourceLimits::unlimited()
        };
        let link_faults = if hazard == 1 {
            // Every injected drop retransmits within budget: parity must
            // survive the fault plan untouched.
            LinkFaultPlan {
                max_retransmits: fault_frames.len() as u32 + 2,
                fail_nth_frames: fault_frames,
            }
        } else {
            LinkFaultPlan::none()
        };
        let config = ShardConfig {
            shards,
            dop,
            exec_mode: mode,
            limits,
            link_faults,
            data_seed: seed,
            ..ShardConfig::default()
        };

        let svc = ShardedService::new(catalog.clone(), config.clone());
        let outcome = svc.execute(&sql, &bind_refs(&binds));

        match outcome {
            Ok(out) => {
                let baseline = single_node_rows(
                    &catalog, &sql, &bind_refs(&binds), &config, &out.layout,
                );
                if let Ok(expected) = baseline {
                    prop_assert_eq!(
                        sorted(out.rows.clone()),
                        sorted(expected),
                        "multisets diverged (shards={} dop={} mode={:?} hazard={})",
                        shards, dop, mode, hazard
                    );
                }
                // else: single-node refused under the same governed
                // budget the shards absorbed — graceful degradation.
                if w.order_by {
                    let key = out.layout.require(
                        catalog.relations()[0].attr_id("a").expect("attr a"),
                    );
                    prop_assert!(
                        out.rows.windows(2).all(|p| p[0][key] <= p[1][key]),
                        "ORDER BY violated after gather merge"
                    );
                }
            }
            Err(ServiceError::Exec(ExecError::ResourceExhausted(Resource::Memory { .. })))
                if hazard == 2 => {} // governed refusal under a tight grant
            Err(e) => prop_assert!(
                false,
                "sharded execution failed where it must not \
                 (shards={shards} dop={dop} hazard={hazard}): {e:?}"
            ),
        }
    }

    /// Determinism: the same workload executed twice on identically
    /// configured services reproduces the identical row order, audit
    /// winners, and per-shard row counts.
    #[test]
    fn sharded_execution_is_deterministic(
        w in workload_strategy(),
        sel in 0.0f64..=1.0,
        seed in 0u64..1000,
        shards in prop_oneof![Just(2usize), Just(4)],
    ) {
        let (catalog, sql, binds) = build(&w, sel);
        let config = ShardConfig { shards, data_seed: seed, ..ShardConfig::default() };
        let run = |cat: Catalog| {
            ShardedService::new(cat, config.clone())
                .execute(&sql, &bind_refs(&binds))
                .expect("unhazarded run succeeds")
        };
        let (a, b) = (run(catalog.clone()), run(catalog));
        prop_assert_eq!(a.rows, b.rows, "row order must be reproducible");
        prop_assert_eq!(a.per_shard_rows, b.per_shard_rows);
        let winners = |o: &dqep::service::ShardOutcome| -> Vec<Vec<Option<usize>>> {
            o.audits
                .iter()
                .map(|s| s.iter().map(|audit| audit.winner).collect())
                .collect()
        };
        prop_assert_eq!(winners(&a), winners(&b), "audit trails must be reproducible");
    }
}

fn bind_refs(binds: &[(String, i64)]) -> Vec<(&str, i64)> {
    binds.iter().map(|(n, v)| (n.as_str(), *v)).collect()
}

/// Deterministic divergent-winner scenario: range partitioning over
/// Zipf-skewed data concentrates the matching values on few shards, so
/// bind-time arbitration legitimately resolves differently per shard —
/// asserted through the choose-plan audit trail — while the merged
/// result stays equal to forcing the single-node winner everywhere.
#[test]
fn divergent_winners_are_audited_and_parity_preserving() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("t0", 4_000, 512, |r| {
            r.attr("a", 4_000.0).attr("j", 400.0).btree("a", false).btree("j", false)
        })
        .build()
        .expect("catalog");
    let skewed = |force: bool| ShardConfig {
        shards: 4,
        routing: ShardRouting::Range { attr: 0 },
        skew: Some(1.2),
        force_uniform_winner: force,
        ..ShardConfig::default()
    };
    let sql = "SELECT * FROM t0 WHERE t0.a < :v0";
    let binds = [("v0", 120i64)];

    let per_shard = ShardedService::new(catalog.clone(), skewed(false))
        .execute(sql, &binds)
        .expect("per-shard arbitration runs");
    let forced = ShardedService::new(catalog, skewed(true))
        .execute(sql, &binds)
        .expect("forced-uniform run");

    assert!(
        per_shard.divergent(),
        "skewed range partitions must produce divergent winners, got {:?}",
        per_shard.winner_counts()
    );
    assert!(
        per_shard.winner_counts().len() >= 2,
        "at least two distinct alternatives must win somewhere"
    );
    assert!(
        !forced.divergent(),
        "a coordinator-resolved broadcast has nothing left to diverge"
    );
    assert_eq!(
        sorted(per_shard.rows),
        sorted(forced.rows),
        "winner choice never changes the result multiset"
    );
}

/// Residual join predicates — every equi-join predicate between a stage's
/// two sides after the one both sides repartition on — against plain
/// single-node execution: two predicates between the same pair of
/// relations, and a 3-relation cycle whose closing predicate joins the
/// third relation to both earlier ones. Each at shards {2, 4} in both
/// execution modes.
#[test]
fn residual_join_predicates_match_single_node() {
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("t0", 240, 512, |r| {
            r.attr("a", 240.0)
                .attr("j", 12.0)
                .attr("k", 6.0)
                .btree("a", false)
        })
        .relation("t1", 200, 512, |r| {
            r.attr("a", 200.0).attr("j", 12.0).attr("k", 6.0)
        })
        .relation("t2", 160, 512, |r| {
            r.attr("a", 160.0).attr("j", 12.0).attr("k", 6.0)
        })
        .build()
        .expect("catalog");
    let queries = [
        "SELECT * FROM t0, t1 WHERE t0.j = t1.j AND t0.k = t1.k AND t0.a < :v0",
        "SELECT * FROM t0, t1, t2 \
         WHERE t0.j = t1.j AND t1.k = t2.k AND t0.k = t2.j AND t0.a < :v0",
    ];
    let binds = [("v0", 150i64)];
    for sql in queries {
        for shards in [2usize, 4] {
            for mode in [ExecMode::Tuple, ExecMode::Batch] {
                let config = ShardConfig {
                    shards,
                    exec_mode: mode,
                    data_seed: 11,
                    ..ShardConfig::default()
                };
                let out = ShardedService::new(catalog.clone(), config.clone())
                    .execute(sql, &binds)
                    .expect("sharded run");
                let expected = single_node_rows(&catalog, sql, &binds, &config, &out.layout)
                    .expect("single-node run");
                assert!(!expected.is_empty(), "a vacuous case proves nothing: {sql}");
                assert_eq!(
                    sorted(out.rows),
                    sorted(expected),
                    "{sql} (shards={shards} mode={mode:?})"
                );
            }
        }
    }
}
