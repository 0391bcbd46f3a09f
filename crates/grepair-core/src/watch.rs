//! Incremental violation watching across external edits.
//!
//! The repair engine fixes everything at once; real deployments instead
//! interleave *user edits* with *validation*. A [`Watcher`] owns a rule
//! set and maintains the live violation list incrementally: after each
//! batch of external edits, pass the touched nodes to
//! [`Watcher::update`] and only the affected neighborhood is re-matched
//! (the same delta discipline as the incremental engine).

use crate::rule::Grr;
use grepair_graph::{Graph, NodeId};
use grepair_match::{CompiledPattern, Match, MatchConfig, Matcher, Planner, TouchSet};
use rustc_hash::FxHashMap;

/// A currently outstanding violation.
#[derive(Clone, Debug)]
pub struct LiveViolation {
    /// Index of the violated rule.
    pub rule: usize,
    /// The violating match.
    pub m: Match,
}

/// Incrementally maintained violation view over a graph.
///
/// The watcher does not hold the graph; callers pass it to each call and
/// are responsible for reporting every touched node. Stale entries are
/// pruned lazily via revalidation.
///
/// The watcher *does* own a long-lived [`Planner`]: every update matches
/// through one warm plan cache, so the steady-state cost of watching is
/// delta re-matching alone, with no per-call pattern compilation.
pub struct Watcher {
    rules: Vec<Grr>,
    /// Key: (rule, nodes) → violation. Deduplicates across updates.
    live: FxHashMap<(usize, Vec<NodeId>), LiveViolation>,
    /// Warm planning state carried across every update call.
    planner: Planner,
}

impl Watcher {
    /// Create a watcher and run the initial full scan.
    pub fn new(g: &Graph, rules: Vec<Grr>) -> Self {
        let mut w = Watcher {
            rules,
            live: FxHashMap::default(),
            planner: Planner::new(),
        };
        let matcher = Matcher::with_planner(g, MatchConfig::default(), &w.planner);
        for (ri, rule) in w.rules.iter().enumerate() {
            for m in matcher.find_all(&rule.pattern) {
                w.live.insert((ri, m.nodes.clone()), LiveViolation { rule: ri, m });
            }
        }
        w
    }

    /// The rules being watched.
    pub fn rules(&self) -> &[Grr] {
        &self.rules
    }

    /// The watcher's long-lived planner (plan-cache introspection).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Current number of outstanding violations (after pruning stale
    /// entries against `g`).
    pub fn violation_count(&mut self, g: &Graph) -> usize {
        self.prune(g);
        self.live.len()
    }

    /// Current violations, revalidated against `g`, in deterministic
    /// order.
    pub fn violations(&mut self, g: &Graph) -> Vec<LiveViolation> {
        self.prune(g);
        let mut out: Vec<LiveViolation> = self.live.values().cloned().collect();
        out.sort_by(|a, b| (a.rule, &a.m.nodes).cmp(&(b.rule, &b.m.nodes)));
        out
    }

    fn prune(&mut self, g: &Graph) {
        let checks: Vec<CompiledPattern> =
            self.rules.iter().map(|r| CompiledPattern::new(g, &r.pattern)).collect();
        self.live.retain(|_, v| checks[v.rule].holds(g, &mut v.m));
    }

    /// Report externally touched nodes; discovers new violations in their
    /// neighborhood. Returns how many new violations appeared.
    pub fn update(&mut self, g: &Graph, touched: &TouchSet) -> usize {
        let matcher = Matcher::with_planner(g, MatchConfig::default(), &self.planner);
        let mut added = 0usize;
        for (ri, rule) in self.rules.iter().enumerate() {
            for m in matcher.find_touching(&rule.pattern, touched) {
                let key = (ri, m.nodes.clone());
                if let std::collections::hash_map::Entry::Vacant(e) = self.live.entry(key) {
                    e.insert(LiveViolation { rule: ri, m });
                    added += 1;
                }
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_rules;
    use grepair_graph::Graph;

    fn setup() -> (Graph, Watcher) {
        let mut g = Graph::new();
        let p = g.add_node_named("Person");
        let c = g.add_node_named("City");
        let k = g.add_node_named("Country");
        g.add_edge_named(p, c, "livesIn").unwrap();
        g.add_edge_named(c, k, "inCountry").unwrap();
        g.add_edge_named(p, k, "citizenOf").unwrap();
        let rules = parse_rules(
            "rule add_citizenship [incompleteness]
             match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
             where not (x)-[citizenOf]->(k)
             repair insert edge (x)-[citizenOf]->(k)

             rule no_self_knows [conflict]
             match (x:Person)-[knows]->(x)
             repair delete edge (x)-[knows]->(x)",
        )
        .unwrap();
        let w = Watcher::new(&g, rules);
        (g, w)
    }

    #[test]
    fn clean_graph_watches_zero() {
        let (g, mut w) = setup();
        assert_eq!(w.violation_count(&g), 0);
    }

    #[test]
    fn external_edit_surfaces_violation_incrementally() {
        let (mut g, mut w) = setup();
        // External edit: a new person moves into the city (no
        // citizenship yet).
        let p2 = g.add_node_named("Person");
        let city = g.nodes().find(|&n| g.label_name(g.node_label(n).unwrap()) == "City").unwrap();
        g.add_edge_named(p2, city, "livesIn").unwrap();

        let touched: TouchSet = [p2, city].into_iter().collect();
        let added = w.update(&g, &touched);
        assert_eq!(added, 1);
        let v = w.violations(&g);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, 0);
        assert!(v[0].m.nodes.contains(&p2));
    }

    #[test]
    fn stale_violations_prune_after_manual_fix() {
        let (mut g, mut w) = setup();
        let p2 = g.add_node_named("Person");
        let city = g.nodes().find(|&n| g.label_name(g.node_label(n).unwrap()) == "City").unwrap();
        g.add_edge_named(p2, city, "livesIn").unwrap();
        w.update(&g, &[p2, city].into_iter().collect());
        assert_eq!(w.violation_count(&g), 1);

        // The user fixes it by hand.
        let country = g.nodes().find(|&n| g.label_name(g.node_label(n).unwrap()) == "Country").unwrap();
        g.add_edge_named(p2, country, "citizenOf").unwrap();
        assert_eq!(w.violation_count(&g), 0);
    }

    #[test]
    fn watcher_planner_stays_warm_across_updates() {
        // Edits that intern no new name keep every plan key: the cache
        // must survive the whole session.
        let mut g = Graph::new();
        let city = g.add_node_named("City");
        let country = g.add_node_named("Country");
        g.add_edge_named(city, country, "inCountry").unwrap();
        for _ in 0..100 {
            let p = g.add_node_named("Person");
            g.add_edge_named(p, city, "livesIn").unwrap();
            g.add_edge_named(p, country, "citizenOf").unwrap();
        }
        let rules = parse_rules(
            "rule add_citizenship [incompleteness]
             match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
             where not (x)-[citizenOf]->(k)
             repair insert edge (x)-[citizenOf]->(k)",
        )
        .unwrap();
        let mut w = Watcher::new(&g, rules);
        assert_eq!(w.violation_count(&g), 0);

        // Warm-up edit: compiles the per-anchor delta plans once.
        let p = g.add_node_named("Person");
        g.add_edge_named(p, city, "livesIn").unwrap();
        w.update(&g, &[p, city].into_iter().collect());
        let warm_compiles = w.planner().compile_count();
        assert!(warm_compiles > 0);

        // Every later edit matches through the warmed cache.
        for _ in 0..3 {
            let p = g.add_node_named("Person");
            g.add_edge_named(p, city, "livesIn").unwrap();
            w.update(&g, &[p, city].into_iter().collect());
        }
        assert_eq!(
            w.planner().compile_count(),
            warm_compiles,
            "updates must not recompile cached per-anchor plans"
        );
        assert!(w.planner().cache_hit_count() > 0);
        assert_eq!(w.violation_count(&g), 4);
    }

    #[test]
    fn duplicate_updates_do_not_double_count() {
        let (mut g, mut w) = setup();
        let p2 = g.add_node_named("Person");
        let city = g
            .nodes()
            .find(|&n| g.label_name(g.node_label(n).unwrap()) == "City")
            .unwrap();
        g.add_edge_named(p2, city, "livesIn").unwrap();
        let touched: TouchSet = [p2, city].into_iter().collect();
        assert_eq!(w.update(&g, &touched), 1);
        assert_eq!(w.update(&g, &touched), 0, "idempotent update");
        assert_eq!(w.violation_count(&g), 1);
    }
}
