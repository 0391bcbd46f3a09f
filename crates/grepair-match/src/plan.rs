//! The planning context behind the matcher.
//!
//! A [`Planner`] bundles two things the per-call [`crate::Matcher`]
//! cannot own itself (it borrows a graph and dies with the borrow):
//!
//! - a **plan cache** — compiled patterns keyed by (pattern fingerprint,
//!   anchor variable, label/attr-key vocabulary sizes, matcher
//!   configuration). Interners are append-only, so equal vocabulary
//!   sizes guarantee the cached label resolutions are still valid, and
//!   a plan survives every graph mutation that interns no new name. The
//!   join order is the greedy candidate-count order, taken from the
//!   graph at compile time; the search still picks each step's access
//!   path per binding, so an order that has gone stale costs time,
//!   never results.
//! - a **search-state pool** — backtracking buffers reused across calls,
//!   so a fixpoint loop issuing thousands of small `find_touching`
//!   queries stops paying per-call allocations.
//!
//! The cache and the pool sit behind short-lived locks, so the planner
//! is `Sync`.
//!
//! # One graph lineage per planner
//!
//! A planner must only ever serve matchers over **one graph's lineage**
//! — the graph itself across mutations. The cache-validity argument
//! (append-only interners ⇒ equal vocabulary sizes prove cached label
//! resolutions still hold) only works within a lineage; two *unrelated* graphs can intern the
//! same names in different orders while agreeing on vocabulary sizes,
//! and a plan cached against one would silently resolve the wrong
//! `LabelId`s on the other. Use a fresh planner per graph — they are
//! cheap to create (the engine builds one per repair run).
//!
//! ```
//! use grepair_graph::Graph;
//! use grepair_match::{MatchConfig, Matcher, Pattern, Planner};
//!
//! let mut g = Graph::new();
//! let ann = g.add_node_named("Person");
//! let oslo = g.add_node_named("City");
//! g.add_edge_named(ann, oslo, "livesIn").unwrap();
//!
//! let mut b = Pattern::builder();
//! let x = b.node("x", Some("Person"));
//! let c = b.node("c", Some("City"));
//! b.edge(x, c, "livesIn");
//! let pattern = b.build().unwrap();
//!
//! let planner = Planner::new();
//! let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
//! assert_eq!(m.find_all(&pattern).len(), 1);
//! m.find_all(&pattern); // second call: served from the plan cache
//! assert_eq!(planner.compile_count(), 1);
//! assert_eq!(planner.cache_hit_count(), 1);
//! ```

use crate::matcher::{Compiled, Matcher, SearchState, TouchSet};
use crate::pattern::Pattern;
use grepair_graph::Graph;
use grepair_obs as obs;
use rustc_hash::FxHashMap;
use std::sync::{Arc, Mutex};

/// Cache key of one compiled plan. See the module docs for why each
/// component is sufficient for validity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Structural pattern fingerprint ([`Pattern::fingerprint`]).
    fingerprint: u64,
    /// Anchor variable (`usize::MAX` = unanchored full scan).
    anchor: usize,
    /// Label vocabulary size at compile time.
    labels: usize,
    /// Attribute-key vocabulary size at compile time.
    attr_keys: usize,
    /// Matcher configuration bits.
    cfg: u8,
}

/// Soft bound on cached plans; hit only by degenerate workloads (the cap
/// clears the map rather than evicting, keeping the common path lock-free
/// of bookkeeping).
const MAX_CACHED_PLANS: usize = 4096;

/// Retained pooled search states.
const MAX_POOLED_STATES: usize = 64;

/// Shared planning context: a compiled-plan cache and a search-state
/// pool. See the module docs.
pub struct Planner {
    cache: Mutex<FxHashMap<PlanKey, Option<Arc<Compiled>>>>,
    /// Per-planner children of the global `planner.*` registry counters:
    /// reading one gives this planner's own count (the per-run delta
    /// semantics `RepairReport` depends on) while every increment also
    /// propagates into the process-wide metrics registry.
    compiles: obs::Counter,
    hits: obs::Counter,
    /// Latency of cache-miss compiles (recorded only while telemetry is
    /// enabled).
    compile_ns: Arc<obs::Histogram>,
    pool: Mutex<Vec<SearchState>>,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            cache: Mutex::default(),
            compiles: obs::counter("planner.pattern_compiles").child(),
            hits: obs::counter("planner.plan_cache_hits").child(),
            compile_ns: obs::histogram("plan.compile_ns"),
            pool: Mutex::default(),
        }
    }
}

impl Planner {
    /// Empty planner: empty cache and pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does nothing and returns `false`: plans no longer depend on
    /// graph statistics. Kept only for the e2e benchmark's
    /// `crates/grepair-bench/src/bin/e2e/api.rs`, its one caller, until
    /// the benchmark re-baseline (ROADMAP item 1) deletes it.
    #[doc(hidden)]
    pub fn refresh_stats(&self, _g: &Graph) -> bool {
        false
    }

    /// Always `0`: there are no statistics to refresh. Kept only for the
    /// e2e benchmark's `crates/grepair-bench/src/bin/e2e/api.rs`, its one
    /// caller, until the benchmark re-baseline (ROADMAP item 1) deletes
    /// it.
    #[doc(hidden)]
    pub fn stats_epoch(&self) -> u64 {
        0
    }

    /// Patterns actually compiled through this planner.
    pub fn compile_count(&self) -> u64 {
        self.compiles.get()
    }

    /// Compiles avoided by the plan cache.
    pub fn cache_hit_count(&self) -> u64 {
        self.hits.get()
    }

    /// Cached-or-fresh compile of `pattern` for `m`'s graph and
    /// configuration. `None` is cached too — a pattern unmatchable under
    /// the current vocabulary stays unmatchable until the vocabulary
    /// grows, which changes the key.
    pub(crate) fn compiled(
        &self,
        m: &Matcher<'_>,
        pattern: &Pattern,
        anchor: Option<usize>,
        touched: &TouchSet,
    ) -> Option<Arc<Compiled>> {
        let key = PlanKey {
            fingerprint: pattern.fingerprint(),
            anchor: anchor.unwrap_or(usize::MAX),
            labels: m.graph().labels().len(),
            attr_keys: m.graph().attr_keys().len(),
            cfg: m.config_bits(),
        };
        if let Some(found) = self.cache.lock().unwrap().get(&key) {
            self.hits.inc();
            return found.clone();
        }
        self.compiles.inc();
        let _span = obs::span("plan.compile", "plan");
        let started = obs::timer();
        let comp = m.compile(pattern, anchor, touched).map(Arc::new);
        obs::record_since(&self.compile_ns, started);
        let mut cache = self.cache.lock().unwrap();
        if cache.len() >= MAX_CACHED_PLANS {
            cache.clear();
        }
        cache.insert(key, comp.clone());
        comp
    }

    pub(crate) fn pool_pop(&self) -> Option<SearchState> {
        self.pool.lock().unwrap().pop()
    }

    pub(crate) fn pool_push(&self, st: SearchState) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < MAX_POOLED_STATES {
            pool.push(st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{MatchConfig, Matcher, PlanAccess};

    fn lives_pattern() -> Pattern {
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let c = b.node("c", Some("City"));
        b.edge(x, c, "livesIn");
        b.build().unwrap()
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node_named("Person");
        let b = g.add_node_named("Person");
        let c = g.add_node_named("City");
        g.add_edge_named(a, c, "livesIn").unwrap();
        g.add_edge_named(b, c, "livesIn").unwrap();
        g
    }

    #[test]
    fn plans_are_cached_and_counted() {
        let g = sample();
        let planner = Planner::new();
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        let p = lives_pattern();
        assert_eq!(m.find_all(&p).len(), 2);
        assert_eq!(m.find_all(&p).len(), 2);
        assert_eq!(m.count(&p), 2);
        assert_eq!(planner.compile_count(), 1);
        assert_eq!(planner.cache_hit_count(), 2);
    }

    #[test]
    fn unmatchable_compiles_are_cached_until_vocabulary_grows() {
        let mut g = Graph::new();
        g.add_node_named("City");
        let planner = Planner::new();
        let p = lives_pattern(); // "Person" not interned yet
        {
            let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
            assert!(m.find_all(&p).is_empty());
            assert!(m.find_all(&p).is_empty());
        }
        assert_eq!(planner.compile_count(), 1);
        assert_eq!(planner.cache_hit_count(), 1);

        // Interning the missing vocabulary changes the key: the stale
        // "unmatchable" verdict cannot be served again.
        let a = g.add_node_named("Person");
        let c = g.nodes().next().unwrap();
        g.add_edge_named(a, c, "livesIn").unwrap();
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        assert_eq!(m.find_all(&p).len(), 1);
        assert_eq!(planner.compile_count(), 2);
    }

    /// The statistics hooks kept for the e2e benchmark are inert:
    /// `refresh_stats` reports no refresh, the epoch stays `0`, and a
    /// cached plan is never retired by them. The name is kept from the
    /// statistics epoch these stubs stand in for.
    #[test]
    fn stats_refresh_bumps_epoch_and_retires_plans() {
        let mut g = sample();
        let planner = Planner::new();
        let p = lives_pattern();
        assert!(!planner.refresh_stats(&g));
        Matcher::with_planner(&g, MatchConfig::default(), &planner).find_all(&p);
        let a = g.add_node_named("Person");
        let city = g.try_label("City").unwrap();
        let c = g.nodes().find(|&n| g.node_label(n).unwrap() == city).unwrap();
        g.add_edge_named(a, c, "livesIn").unwrap();
        assert!(!planner.refresh_stats(&g));
        assert_eq!(planner.stats_epoch(), 0);
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        assert_eq!(m.find_all(&p).len(), 3);
        assert_eq!(planner.compile_count(), 1, "a refresh retires no plan");
    }

    /// A plan compiled once survives mutations that intern no new name
    /// and finds the new matches. The name is kept from the drift-driven
    /// statistics refresh that once decided whether a plan survived.
    #[test]
    fn drift_refresh_tolerates_small_changes() {
        let mut g = sample();
        let planner = Planner::new();
        let p = lives_pattern();
        {
            let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
            assert_eq!(m.find_all(&p).len(), 2);
        }
        // Grow the graph well past its compiled size, interning no new
        // name: the cached plan keeps serving, and sees the new matches.
        let city = g.try_label("City").unwrap();
        let person = g.try_label("Person").unwrap();
        let lives = g.try_label("livesIn").unwrap();
        let c2 = g.add_node(city);
        for _ in 0..20 {
            let x = g.add_node(person);
            g.add_edge(x, c2, lives).unwrap();
        }
        let first = g.nodes().next().unwrap();
        g.remove_node(first).unwrap();
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        assert_eq!(m.find_all(&p).len(), 21);
        assert_eq!(planner.compile_count(), 1, "no new name, no recompile");
        assert_eq!(planner.cache_hit_count(), 1);
    }

    #[test]
    fn explain_shows_the_greedy_connected_order() {
        // Every variable has the same label count, so the root is the
        // first declared variable and each later step extends along an
        // edge from the matched prefix.
        let mut g = Graph::new();
        let p = g.label("P");
        let follows = g.label("follows");
        let rare = g.label("rare");
        let nodes: Vec<_> = (0..60).map(|_| g.add_node(p)).collect();
        for i in 0..60 {
            for j in 1..=5 {
                g.add_edge(nodes[i], nodes[(i + j) % 60], follows).unwrap();
            }
        }
        g.add_edge(nodes[0], nodes[1], rare).unwrap();

        let mut b = Pattern::builder();
        let a = b.node("a", Some("P"));
        let bb = b.node("b", Some("P"));
        let c = b.node("c", Some("P"));
        b.edge(a, bb, "follows");
        b.edge(bb, c, "rare");
        let pat = b.build().unwrap();

        let planner = Planner::new();
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        let ex = m.explain(&pat);
        assert!(ex.satisfiable);
        let order: Vec<_> = ex.steps.iter().map(|s| (s.var.as_str(), s.access)).collect();
        assert_eq!(
            order,
            [
                ("a", PlanAccess::LabelIndex),
                ("b", PlanAccess::Extension),
                ("c", PlanAccess::Extension),
            ]
        );
        assert_eq!(ex.steps[0].estimate, 60.0);
        assert!(ex.estimated_cost > 0.0);

        // And the plan finds exactly what the declaration-order matcher
        // finds.
        let naive = Matcher::with_config(&g, MatchConfig::naive()).find_all(&pat);
        let planned = m.find_all(&pat);
        let key = |ms: &[crate::Match]| {
            let mut v: Vec<_> = ms.iter().map(|m| m.nodes.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(key(&planned), key(&naive));
        assert_eq!(planned.len(), 5, "a --follows--> b --rare--> c");
    }

    #[test]
    fn explain_reports_unsatisfiable_patterns() {
        let g = sample();
        let planner = Planner::new();
        let mut b = Pattern::builder();
        b.node("x", Some("Ghost"));
        let p = b.build().unwrap();
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        let ex = m.explain(&p);
        assert!(!ex.satisfiable);
        assert!(ex.steps.is_empty());
    }
}
