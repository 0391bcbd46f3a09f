//! The statistics-driven planning subsystem behind the matcher.
//!
//! A [`Planner`] bundles three things the per-call [`crate::Matcher`]
//! cannot own itself (it borrows a graph and dies with the borrow):
//!
//! - a **statistics slot** — an [`CardinalityStats`] snapshot computed
//!   from the live graph, refreshed explicitly by the caller. The
//!   matcher's cost model reads it to order joins by estimated extension
//!   fan-out instead of raw node-label counts.
//! - a **plan cache** — compiled patterns keyed by (pattern fingerprint,
//!   anchor variable, label/attr-key vocabulary sizes, statistics epoch,
//!   matcher configuration). Interners are append-only, so equal
//!   vocabulary sizes guarantee the cached label resolutions are still
//!   valid; the statistics epoch only bumps when statistics are
//!   recomputed, so plans survive graph mutations between refreshes
//!   (stale statistics degrade plan quality, never correctness).
//! - a **search-state pool** — backtracking buffers reused across calls,
//!   so a fixpoint loop issuing thousands of small `find_touching`
//!   queries stops paying per-call allocations.
//!
//! The planner is `Sync`: full scans fan out over rayon workers and every
//! worker shares the same cache and pool behind short-lived locks.
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
//! let planner = Planner::new();
//! planner.refresh_stats(&g);
//!
//! let mut b = Pattern::builder();
//! let x = b.node("x", Some("Person"));
//! let c = b.node("c", Some("City"));
//! b.edge(x, c, "livesIn");
//! let pattern = b.build().unwrap();
//!
//! let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
//! assert_eq!(m.find_all(&pattern).len(), 1);
//! m.find_all(&pattern); // second call: served from the plan cache
//! assert_eq!(planner.compile_count(), 1);
//! assert_eq!(planner.cache_hit_count(), 1);
//! ```

use crate::matcher::{Compiled, Matcher, SearchState, TouchSet};
use crate::pattern::Pattern;
use grepair_graph::{CardinalityStats, Graph};
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
    /// Statistics epoch the plan order was derived from.
    stats_epoch: u64,
    /// Matcher configuration bits.
    cfg: u8,
}

/// Soft bound on cached plans; hit only by degenerate workloads (the cap
/// clears the map rather than evicting, keeping the common path lock-free
/// of bookkeeping).
const MAX_CACHED_PLANS: usize = 4096;

/// Retained pooled search states.
const MAX_POOLED_STATES: usize = 64;

/// Relative node/edge-count drift beyond which
/// [`Planner::refresh_if_drifted`] considers statistics stale.
const DRIFT_RATIO: f64 = 0.1;

/// How the planner's current statistics snapshot was obtained — surfaced
/// by `explain` so plan regressions are diagnosable from the terminal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsSource {
    /// Adopted from [`Graph::maintained_stats`] — the graph kept them
    /// current on its write path, so the refresh cost only the clone of
    /// the (label/triple/attr-key–sized, not graph-sized) counter maps.
    Maintained,
    /// Recomputed by a full `O(V + E)` pass over the graph.
    Computed,
}

impl std::fmt::Display for StatsSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StatsSource::Maintained => "maintained",
            StatsSource::Computed => "recomputed",
        })
    }
}

#[derive(Default)]
struct StatsSlot {
    stats: Option<Arc<CardinalityStats>>,
    /// Bumped on every *refresh*; part of every plan-cache key.
    /// [`Planner::patch_stats`] deliberately installs a snapshot
    /// without bumping it, so stats installs and epoch bumps are not
    /// 1:1 — the epoch tracks cache retirements, not snapshot changes.
    epoch: u64,
    source: Option<StatsSource>,
}

/// Obtain a statistics snapshot for `g`: adopt the write-path–maintained
/// one when present, recompute otherwise — the one acquisition policy
/// shared by refreshes and adaptive patches.
fn snapshot_from(g: &Graph) -> (CardinalityStats, StatsSource) {
    match g.maintained_stats() {
        Some(ms) => (ms.clone(), StatsSource::Maintained),
        None => (CardinalityStats::compute(g), StatsSource::Computed),
    }
}

/// Relative node/edge-count drift of `g` against a statistics snapshot
/// (the larger of the two ratios) — the one definition shared by the
/// [`Planner::refresh_if_drifted`] gate and the [`Planner::drift`]
/// diagnostic.
fn drift_ratio(s: &CardinalityStats, g: &Graph) -> f64 {
    let d = |old: u64, new: u64| (new as f64 - old as f64).abs() / (old.max(1) as f64);
    d(s.nodes, g.num_nodes() as u64).max(d(s.edges, g.num_edges() as u64))
}

/// Shared planning context: cardinality statistics, a compiled-plan
/// cache, and a search-state pool. See the module docs.
pub struct Planner {
    cache: Mutex<FxHashMap<PlanKey, Option<Arc<Compiled>>>>,
    stats: Mutex<StatsSlot>,
    /// Per-planner children of the global `planner.*` registry counters:
    /// reading one gives this planner's own count (the per-run delta
    /// semantics `RepairReport` depends on) while every increment also
    /// propagates into the process-wide metrics registry.
    compiles: obs::Counter,
    hits: obs::Counter,
    replans: obs::Counter,
    /// Latency of cache-miss compiles (recorded only while telemetry is
    /// enabled).
    compile_ns: Arc<obs::Histogram>,
    pool: Mutex<Vec<SearchState>>,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            cache: Mutex::default(),
            stats: Mutex::default(),
            compiles: obs::counter("planner.pattern_compiles").child(),
            hits: obs::counter("planner.plan_cache_hits").child(),
            replans: obs::counter("planner.plan_replans").child(),
            compile_ns: obs::histogram("plan.compile_ns"),
            pool: Mutex::default(),
        }
    }
}

impl Planner {
    /// Empty planner: no statistics yet (matchers fall back to the
    /// greedy candidate-count order), empty cache and pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bring statistics up to `g`'s current version unless the snapshot
    /// already matches `g.version()`. Returns whether a refresh happened.
    /// A refresh bumps the statistics epoch, retiring every cached plan
    /// (their join orders were derived from the old estimates).
    ///
    /// For graphs in [`Graph::maintain_stats`] mode the refresh *adopts*
    /// the write-path–maintained snapshot — a clone of counter maps
    /// sized by the label/triple/attr-key vocabularies, not by the
    /// graph — retiring the full `O(V + E)` recompute from the hot
    /// path. Unmaintained graphs still pay the one-pass compute.
    pub fn refresh_stats(&self, g: &Graph) -> bool {
        {
            let slot = self.stats.lock().unwrap();
            if let Some(s) = &slot.stats {
                if s.version == g.version() {
                    return false;
                }
            }
        }
        self.install_from(g);
        true
    }

    /// Like [`Planner::refresh_stats`], but tolerant of small drift:
    /// only refreshes when no snapshot exists yet or the live node/edge
    /// counts moved more than 10% from the snapshot. The fixpoint
    /// engines call this between rounds — retiring every cached plan per
    /// mutation would defeat the cache, while estimates a few percent
    /// stale still pick the same join orders. (For maintained graphs the
    /// tolerance is purely a cache-retention policy; the refresh itself
    /// is already cheap.)
    pub fn refresh_if_drifted(&self, g: &Graph) -> bool {
        {
            let slot = self.stats.lock().unwrap();
            if let Some(s) = &slot.stats {
                if s.version == g.version() {
                    return false;
                }
                if drift_ratio(s, g) <= DRIFT_RATIO {
                    return false;
                }
            }
        }
        self.install_from(g);
        true
    }

    fn install_from(&self, g: &Graph) {
        let (stats, source) = snapshot_from(g);
        self.install_stats(stats, source);
    }

    /// Update the statistics snapshot to `g`'s current truth **without**
    /// bumping the epoch or touching the plan cache — the adaptive
    /// re-plan path. An epoch bump would retire every cached plan, but
    /// by the cache-validity design stale statistics only ever affect
    /// plan *order*: the other patterns' warm plans are still correct
    /// and keeping them is the whole point of always-warm planning. The
    /// one blown pattern's cache entry is replaced separately via
    /// [`Planner::store_plan`]; the next epoch bump (a drift refresh)
    /// re-derives everything from one consistent snapshot again.
    ///
    /// Returns whether the snapshot actually changed.
    pub(crate) fn patch_stats(&self, g: &Graph) -> bool {
        {
            let slot = self.stats.lock().unwrap();
            if let Some(s) = &slot.stats {
                if s.version == g.version() {
                    return false;
                }
            }
        }
        let (stats, source) = snapshot_from(g);
        let mut slot = self.stats.lock().unwrap();
        slot.stats = Some(Arc::new(stats));
        slot.source = Some(source);
        true
    }

    /// The cache key for `(pattern, anchor)` under `m`'s graph and
    /// configuration — the one construction shared by lookup
    /// ([`Planner::compiled`]) and replacement ([`Planner::store_plan`]).
    fn plan_key(
        &self,
        m: &Matcher<'_>,
        pattern: &Pattern,
        anchor: Option<usize>,
    ) -> PlanKey {
        PlanKey {
            fingerprint: pattern.fingerprint(),
            anchor: anchor.unwrap_or(usize::MAX),
            labels: m.graph().labels().len(),
            attr_keys: m.graph().attr_keys().len(),
            stats_epoch: self.stats.lock().unwrap().epoch,
            cfg: m.config_bits(),
        }
    }

    /// Replace the cached plan for `(pattern, anchor)` under `m`'s graph
    /// and configuration — the adaptive re-plan installs its corrected
    /// plan here so subsequent calls use it directly instead of
    /// re-tripping the monitor on the old one.
    pub(crate) fn store_plan(
        &self,
        m: &Matcher<'_>,
        pattern: &Pattern,
        anchor: Option<usize>,
        comp: Arc<Compiled>,
    ) {
        let key = self.plan_key(m, pattern, anchor);
        self.cache.lock().unwrap().insert(key, Some(comp));
    }

    fn install_stats(&self, stats: CardinalityStats, source: StatsSource) {
        let mut slot = self.stats.lock().unwrap();
        slot.stats = Some(Arc::new(stats));
        slot.epoch += 1;
        slot.source = Some(source);
        drop(slot);
        // Old-epoch plans can never be hit again; drop them eagerly.
        self.cache.lock().unwrap().clear();
    }

    /// The current statistics snapshot, if any.
    pub fn stats(&self) -> Option<Arc<CardinalityStats>> {
        self.stats.lock().unwrap().stats.clone()
    }

    /// The current statistics epoch (0 = never refreshed). Every refresh
    /// bumps it; plans are cached per epoch.
    pub fn stats_epoch(&self) -> u64 {
        self.stats.lock().unwrap().epoch
    }

    /// How the current statistics snapshot was obtained.
    pub fn stats_source(&self) -> Option<StatsSource> {
        self.stats.lock().unwrap().source
    }

    /// Relative node/edge-count drift of `g` against the current
    /// snapshot; `None` without a snapshot. This is the same measure
    /// [`Planner::refresh_if_drifted`] gates on (tolerance 10%).
    pub fn drift(&self, g: &Graph) -> Option<f64> {
        let slot = self.stats.lock().unwrap();
        slot.stats.as_ref().map(|s| drift_ratio(s, g))
    }

    /// Patterns actually compiled through this planner.
    pub fn compile_count(&self) -> u64 {
        self.compiles.get()
    }

    /// Compiles avoided by the plan cache.
    pub fn cache_hit_count(&self) -> u64 {
        self.hits.get()
    }

    /// Adaptive re-plans triggered through this planner (a matcher
    /// observed a frontier blowing past its estimate, aborted, and
    /// re-planned with patched statistics).
    pub fn replan_count(&self) -> u64 {
        self.replans.get()
    }

    pub(crate) fn note_replan(&self) {
        self.replans.inc();
    }

    /// Count a compile that happened outside [`Planner::compiled`] (the
    /// adaptive re-plan path) so [`Planner::compile_count`] reflects all
    /// real compilation work.
    pub(crate) fn note_compile(&self) {
        self.compiles.inc();
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
        let key = self.plan_key(m, pattern, anchor);
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
        planner.refresh_stats(&g);
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
        planner.refresh_stats(&g);
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

    #[test]
    fn stats_refresh_bumps_epoch_and_retires_plans() {
        let mut g = sample();
        let planner = Planner::new();
        planner.refresh_stats(&g);
        let v0 = planner.stats().unwrap().version;
        let p = lives_pattern();
        {
            let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
            assert_eq!(m.find_all(&p).len(), 2);
        }
        assert_eq!(planner.compile_count(), 1);

        // Same version: refresh is a no-op.
        assert!(!planner.refresh_stats(&g));

        // Mutate → version bump → forced refresh recomputes and retires
        // the cached plan (fresh compile on next use).
        let d = g.add_node_named("Person");
        let c = g.nodes().nth(2).unwrap();
        g.add_edge_named(d, c, "livesIn").unwrap();
        assert!(planner.refresh_stats(&g));
        let s = planner.stats().unwrap();
        assert!(s.version > v0);
        assert_eq!(s.nodes, 4);
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        assert_eq!(m.find_all(&p).len(), 3);
        assert_eq!(planner.compile_count(), 2, "old-epoch plan must not be reused");
    }

    #[test]
    fn drift_refresh_tolerates_small_changes() {
        let mut g = Graph::new();
        for _ in 0..100 {
            g.add_node_named("P");
        }
        let planner = Planner::new();
        assert!(planner.refresh_if_drifted(&g), "first refresh always computes");
        // A couple of mutations: within tolerance, keep the snapshot.
        g.add_node_named("P");
        assert!(!planner.refresh_if_drifted(&g));
        // Large drift: recompute.
        for _ in 0..50 {
            g.add_node_named("P");
        }
        assert!(planner.refresh_if_drifted(&g));
        assert_eq!(planner.stats().unwrap().nodes, 151);
    }

    #[test]
    fn cost_plan_orders_by_fanout_and_explains() {
        // `rare` edges are 100x scarcer than `follows`; the cost model
        // must root the join at a variable whose extension kills the
        // frontier, while the greedy order starts at declaration order
        // (all labels have identical counts).
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
        planner.refresh_stats(&g);
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        let ex = m.explain(&pat);
        assert!(ex.satisfiable);
        assert_eq!(ex.stats_version, Some(g.version()));
        assert_eq!(ex.steps.len(), 3);
        // Root at b or c (the rare edge's endpoints), never at a.
        assert_ne!(ex.steps[0].var, "a");
        assert_eq!(ex.steps[1].access, PlanAccess::Extension);
        assert!(ex.estimated_cost > 0.0);

        // And the plan still finds exactly the greedy matcher's results.
        let plain = Matcher::new(&g).find_all(&pat);
        let cost = m.find_all(&pat);
        let key = |ms: &[crate::Match]| {
            let mut v: Vec<_> = ms.iter().map(|m| m.nodes.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(key(&cost), key(&plain));
        assert_eq!(cost.len(), 5, "a --follows--> b --rare--> c");
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
        assert_eq!(ex.stats_version, None);
    }
}
