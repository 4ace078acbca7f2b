//! The prepared-statement registry: parse/optimize once, execute many.
//!
//! This is the serving-layer realization of the paper's economics:
//! compile-time optimization of a dynamic plan is expensive and performed
//! **once**; each execution then pays only the cheap start-up decision.
//! The registry keys statements by normalized text, bounds its size with
//! LRU eviction, and owns the per-statement decision cache and
//! observed-cardinality feedback state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dqep_interval::{Interval, Slack};
use dqep_plan::{NodeId, Observations, PlanNode};
use dqep_sql::Query;
use parking_lot::Mutex;

use crate::decision::{CachedDecision, RegionKey};

/// Normalizes statement text for registry keying: trims, collapses
/// whitespace runs to single spaces, and drops a trailing `;`. Identifier
/// case is preserved (the catalog is case-sensitive), so normalization
/// never changes what a statement means — only how it is keyed.
#[must_use]
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    for token in sql.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(token);
    }
    while out.ends_with(';') {
        out.pop();
        while out.ends_with(' ') {
            out.pop();
        }
    }
    out
}

/// A statement optimized once into a dynamic plan, plus its per-statement
/// run-time state: the bind-time decision cache and the cardinality
/// observations fed back from completed executions.
#[derive(Debug)]
pub struct PreparedStatement {
    /// Normalized statement text (the registry key).
    pub sql: String,
    /// The parsed query: host-variable names, predicates, order-by.
    pub query: Query,
    /// The compile-time dynamic plan (choose-plan nodes included).
    pub plan: Arc<PlanNode>,
    decisions: Mutex<HashMap<RegionKey, CachedDecision>>,
    observations: Mutex<Observations>,
    invalidations: AtomicU64,
}

impl PreparedStatement {
    /// Wraps a freshly optimized statement.
    #[must_use]
    pub fn new(sql: String, query: Query, plan: Arc<PlanNode>) -> PreparedStatement {
        PreparedStatement {
            sql,
            query,
            plan,
            decisions: Mutex::new(HashMap::new()),
            observations: Mutex::new(Observations::new()),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The cached decision for a binding region, if any.
    #[must_use]
    pub fn decision(&self, key: &RegionKey) -> Option<CachedDecision> {
        self.decisions.lock().get(key).cloned()
    }

    /// Memoizes the arbitration outcome for a binding region.
    pub fn store_decision(&self, key: RegionKey, decision: CachedDecision) {
        self.decisions.lock().insert(key, decision);
    }

    /// Drops one region's cached decision (e.g. after its resolved plan
    /// failed retryably and execution fell back to full arbitration).
    pub fn invalidate_decision(&self, key: &RegionKey) {
        self.decisions.lock().remove(key);
    }

    /// Number of cached decisions currently held.
    #[must_use]
    pub fn cached_decisions(&self) -> usize {
        self.decisions.lock().len()
    }

    /// Snapshot of the statement's cardinality observations, for
    /// `evaluate_startup_observed`.
    #[must_use]
    pub fn observations(&self) -> Observations {
        self.observations.lock().clone()
    }

    /// Pins an observed cardinality for a plan node and clears the
    /// decision cache (used by tests and external feedback sources; the
    /// service's own loop goes through [`PreparedStatement::record_feedback`]).
    pub fn observe(&self, node: NodeId, cardinality: f64) {
        self.observations.lock().insert(node, cardinality);
        self.decisions.lock().clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Feeds one execution's observed root cardinality back into the
    /// statement. If the observation leaves the current estimate interval
    /// — the compile-time interval, or a previously pinned observation —
    /// by more than a factor of `tolerance` (plus half a row,
    /// [`Interval::escapes`]), the observation is recorded
    /// (keyed by the dynamic plan root, so choose-plan equivalence-class
    /// expansion propagates it to every alternative), the decision cache
    /// is cleared, and later arbitrations re-optimize against the observed
    /// value. Returns whether an invalidation happened.
    pub fn record_feedback(&self, observed_rows: u64, tolerance: f64) -> bool {
        // Cardinalities below one row are read as one: an empty result
        // says nothing a one-row estimate did not.
        let mut observations = self.observations.lock();
        let estimate = match observations.get(&self.plan.id) {
            Some(&pinned) => Interval::point(pinned.max(1.0)),
            None => {
                let card = self.plan.stats.card;
                Interval::new(card.lo().max(1.0), card.hi().max(1.0))
            }
        };
        if !estimate.escapes((observed_rows as f64).max(1.0), tolerance, Slack::ROWS) {
            return false;
        }
        observations.insert(self.plan.id, observed_rows as f64);
        drop(observations);
        self.decisions.lock().clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// How many times feedback invalidated this statement's decisions.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

/// Registry hit/miss/eviction accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh parse + optimize.
    pub misses: u64,
    /// Statements evicted by the LRU policy.
    pub evictions: u64,
    /// Statements currently resident.
    pub resident: usize,
}

impl RegistryStats {
    /// Hits over all lookups, in `[0, 1]`; 1.0 for an untouched registry.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Slot {
    stmt: Arc<PreparedStatement>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    map: HashMap<String, Slot>,
    tick: u64,
}

/// A bounded, LRU-evicting map from normalized statement text to
/// [`PreparedStatement`]. Lookups bump recency; inserts past capacity
/// evict the least recently used entry.
#[derive(Debug)]
pub struct PreparedRegistry {
    inner: Mutex<RegistryInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PreparedRegistry {
    /// A registry holding at most `capacity` statements (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> PreparedRegistry {
        PreparedRegistry {
            inner: Mutex::new(RegistryInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a normalized statement, bumping its recency. Counts a hit
    /// or a miss.
    #[must_use]
    pub fn get(&self, normalized: &str) -> Option<Arc<PreparedStatement>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(normalized) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.stmt))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly prepared statement, evicting the LRU entry when
    /// over capacity. If another session inserted the same statement
    /// concurrently, the incumbent wins and is returned — callers always
    /// use the returned statement so feedback state is never split.
    pub fn insert(
        &self,
        normalized: String,
        stmt: Arc<PreparedStatement>,
    ) -> Arc<PreparedStatement> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.map.get_mut(&normalized) {
            slot.last_used = tick;
            return Arc::clone(&slot.stmt);
        }
        inner.map.insert(
            normalized,
            Slot {
                stmt: Arc::clone(&stmt),
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            // O(n) victim scan: capacities are small (dozens) and inserts
            // are rare once the working set is resident.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        stmt
    }

    /// Accounting snapshot.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: self.inner.lock().map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqep_catalog::{CatalogBuilder, SystemConfig};
    use dqep_core::Optimizer;
    use dqep_cost::Environment;
    use dqep_sql::parse_query;

    fn prepared(sql: &str) -> Arc<PreparedStatement> {
        let cat = CatalogBuilder::new(SystemConfig::paper_1994())
            .relation("r", 1000, 512, |r| r.attr("a", 1000.0).btree("a", false))
            .build()
            .unwrap();
        let norm = normalize_sql(sql);
        let query = parse_query(&norm, &cat).unwrap();
        let env = Environment::dynamic_compile_time(&cat.config);
        let plan = Optimizer::new(&cat, &env).optimize(&query.expr).unwrap().plan;
        Arc::new(PreparedStatement::new(norm, query, plan))
    }

    #[test]
    fn normalization_collapses_whitespace_only() {
        assert_eq!(
            normalize_sql("  SELECT *\n FROM  r\tWHERE r.a < :x ; "),
            "SELECT * FROM r WHERE r.a < :x"
        );
        // Identifier case is preserved.
        assert_eq!(normalize_sql("SELECT * FROM R1"), "SELECT * FROM R1");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let reg = PreparedRegistry::new(2);
        let a = prepared("SELECT * FROM r WHERE r.a < :x");
        let b = prepared("SELECT * FROM r WHERE r.a > :x");
        let c = prepared("SELECT * FROM r WHERE r.a = :x");
        reg.insert(a.sql.clone(), Arc::clone(&a));
        reg.insert(b.sql.clone(), Arc::clone(&b));
        // Touch `a`, making `b` the LRU victim.
        assert!(reg.get(&a.sql).is_some());
        reg.insert(c.sql.clone(), Arc::clone(&c));
        assert!(reg.get(&a.sql).is_some());
        assert!(reg.get(&b.sql).is_none(), "b was evicted");
        assert!(reg.get(&c.sql).is_some());
        let stats = reg.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident, 2);
    }

    #[test]
    fn racing_inserts_keep_the_incumbent() {
        let reg = PreparedRegistry::new(4);
        let first = prepared("SELECT * FROM r WHERE r.a < :x");
        let second = prepared("SELECT * FROM r WHERE r.a < :x");
        let kept = reg.insert(first.sql.clone(), Arc::clone(&first));
        assert!(Arc::ptr_eq(&kept, &first));
        let kept = reg.insert(second.sql.clone(), Arc::clone(&second));
        assert!(Arc::ptr_eq(&kept, &first), "incumbent wins the race");
    }

    #[test]
    fn feedback_outside_interval_invalidates_once() {
        let stmt = prepared("SELECT * FROM r WHERE r.a < :x");
        let hi = stmt.plan.stats.card.hi();
        // Observation far above the estimate interval: invalidates.
        let breach = (hi * 10.0) as u64;
        assert!(stmt.record_feedback(breach, 2.0));
        assert_eq!(stmt.invalidations(), 1);
        assert!(
            stmt.observations().contains_key(&stmt.plan.id),
            "observation pinned at the plan root"
        );
        // The same observation again is now *inside* the pinned interval:
        // no repeated invalidation on a stable workload.
        assert!(!stmt.record_feedback(breach, 2.0));
        assert_eq!(stmt.invalidations(), 1);
    }

    #[test]
    fn feedback_inside_interval_is_accepted_silently() {
        let stmt = prepared("SELECT * FROM r WHERE r.a < :x");
        let inside = stmt.plan.stats.card.lo().max(1.0) as u64;
        assert!(!stmt.record_feedback(inside, 2.0));
        assert_eq!(stmt.invalidations(), 0);
        assert!(stmt.observations().is_empty());
    }
}
