//! Property tests: the optimized matcher agrees with the brute-force
//! oracle on random graphs and patterns, under every configuration, and
//! so does re-checking an old match after the graph changed.
//!
//! About half the patterns are planted in their graph (see
//! [`build_pattern`]): wholly random ones rarely match, and two empty
//! match sets agree on nothing.

use grepair_graph::{EdgeId, Graph, NodeId, Value};
use grepair_match::{
    oracle, CompiledPattern, Match, MatchConfig, Matcher, Pattern, Planner, TouchSet,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const NODE_LABELS: [&str; 3] = ["P", "Q", "R"];
const EDGE_LABELS: [&str; 3] = ["a", "b", "c"];
const KEYS: [&str; 2] = ["k0", "k1"];

#[derive(Clone, Debug)]
struct RandGraph {
    labels: Vec<u8>,
    edges: Vec<(u8, u8, u8)>,
    attrs: Vec<(u8, u8, i64)>,
}

fn graph_strategy() -> impl Strategy<Value = RandGraph> {
    (
        prop::collection::vec(any::<u8>(), 1..7),
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..10),
        prop::collection::vec((any::<u8>(), any::<u8>(), 0i64..4), 0..6),
    )
        .prop_map(|(labels, edges, attrs)| RandGraph {
            labels,
            edges,
            attrs,
        })
}

fn build_graph(rg: &RandGraph) -> Graph {
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = rg
        .labels
        .iter()
        .map(|l| g.add_node_named(NODE_LABELS[*l as usize % NODE_LABELS.len()]))
        .collect();
    for (s, d, l) in &rg.edges {
        let s = nodes[*s as usize % nodes.len()];
        let d = nodes[*d as usize % nodes.len()];
        g.add_edge_named(s, d, EDGE_LABELS[*l as usize % EDGE_LABELS.len()])
            .unwrap();
    }
    for (n, k, v) in &rg.attrs {
        let n = nodes[*n as usize % nodes.len()];
        let k = g.attr_key(KEYS[*k as usize % KEYS.len()]);
        g.set_attr(n, k, Value::Int(*v)).unwrap();
    }
    g
}

#[derive(Clone, Debug)]
struct RandPattern {
    labels: Vec<Option<u8>>,
    edges: Vec<(u8, u8, Option<u8>)>,
    neg_edges: Vec<(u8, u8, Option<u8>)>,
    eq_constraint: Option<(u8, u8, u8, u8)>,
    no_out: Option<(u8, Option<u8>)>,
    /// Plant the pattern in the graph, along a walk from this node.
    plant: Option<u8>,
}

fn pattern_strategy() -> impl Strategy<Value = RandPattern> {
    (
        prop::collection::vec(prop::option::of(any::<u8>()), 1..4),
        prop::collection::vec((any::<u8>(), any::<u8>(), prop::option::of(any::<u8>())), 0..4),
        prop::collection::vec((any::<u8>(), any::<u8>(), prop::option::of(any::<u8>())), 0..2),
        prop::option::of((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())),
        prop::option::of((any::<u8>(), prop::option::of(any::<u8>()))),
        prop::option::of(any::<u8>()),
    )
        .prop_map(|(labels, edges, neg_edges, eq_constraint, no_out, plant)| RandPattern {
            labels,
            edges,
            neg_edges,
            eq_constraint,
            no_out,
            plant,
        })
}

/// Up to `len` distinct live nodes of `g`: `start`, then each time a
/// neighbour of the nodes so far (any node when there is none).
fn walk(g: &Graph, start: u8, len: usize) -> Vec<NodeId> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut walk: Vec<NodeId> = nodes
        .get(start as usize % nodes.len().max(1))
        .into_iter()
        .copied()
        .collect();
    while walk.len() < len {
        let other_end = |e: EdgeId, n: NodeId| {
            let er = g.edge(e).unwrap();
            if er.src == n {
                er.dst
            } else {
                er.src
            }
        };
        let neighbours = walk.iter().flat_map(|&n| {
            g.out_edges(n)
                .chain(g.in_edges(n))
                .map(move |e| other_end(e, n))
        });
        let fresh = neighbours
            .chain(nodes.iter().copied())
            .find(|n| !walk.contains(n));
        match fresh {
            Some(n) => walk.push(n),
            None => break,
        }
    }
    walk
}

/// The pattern `rp` describes. A planted one (`rp.plant`) is pinned to a
/// [`walk`] through `g`, so that it mostly has matches: variable `i`
/// takes the label of the walk's `i`-th node, and an edge of `rp` between
/// two variables becomes the label of an edge `g` has between their
/// nodes (in either direction; dropped when there is none). Where `rp`
/// leaves a label out, so does the pattern. A negative edge or constraint
/// of `rp` that the walk's nodes violate is dropped; the others stay, and
/// may still exclude other matches.
fn build_pattern(rp: &RandPattern, g: &Graph) -> Pattern {
    let planted = rp
        .plant
        .map(|start| walk(g, start, rp.labels.len()))
        .filter(|w| !w.is_empty());
    let mut b = Pattern::builder();
    let n = planted.as_ref().map_or(rp.labels.len(), Vec::len).max(1);
    let vars: Vec<_> = rp.labels[..n]
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let label = match &planted {
                Some(walk) => l.map(|_| g.label_name(g.node_label(walk[i]).unwrap())),
                None => l.map(|l| NODE_LABELS[l as usize % NODE_LABELS.len()]),
            };
            b.node(&format!("v{i}"), label)
        })
        .collect();
    for (s, d, l) in &rp.edges {
        let (mut s, mut d) = (*s as usize % n, *d as usize % n);
        let label = match &planted {
            Some(walk) => {
                let between = |s: usize, d: usize| g.find_edge_any(walk[s], walk[d]);
                let Some(e) = between(s, d).or_else(|| {
                    (s, d) = (d, s);
                    between(s, d)
                }) else {
                    continue;
                };
                l.map(|_| g.label_name(g.edge(e).unwrap().label))
            }
            None => l.map(|l| EDGE_LABELS[l as usize % EDGE_LABELS.len()]),
        };
        match label {
            Some(label) => b.edge(vars[s], vars[d], label),
            None => b.edge_any(vars[s], vars[d]),
        };
    }
    // Whether `walk`'s nodes `s`, `d` have an edge labelled `l` (any
    // label for `None`).
    let joined = |walk: &[NodeId], s: usize, d: usize, l: Option<&str>| match l {
        Some(l) => g
            .try_label(l)
            .is_some_and(|l| g.has_edge_labeled(walk[s], walk[d], l)),
        None => g.edges_between(walk[s], walk[d]).next().is_some(),
    };
    for (s, d, l) in &rp.neg_edges {
        let (s, d) = (*s as usize % n, *d as usize % n);
        let l = l.map(|l| EDGE_LABELS[l as usize % EDGE_LABELS.len()]);
        if planted.as_ref().is_some_and(|walk| joined(walk, s, d, l)) {
            continue;
        }
        match l {
            Some(l) => b.neg_edge(vars[s], vars[d], l),
            None => b.neg_edge_any(vars[s], vars[d]),
        };
    }
    if let Some((a, ka, bb, kb)) = &rp.eq_constraint {
        let (a, ka) = (*a as usize % n, KEYS[*ka as usize % KEYS.len()]);
        let (bb, kb) = (*bb as usize % n, KEYS[*kb as usize % KEYS.len()]);
        let attr =
            |walk: &[NodeId], v: usize, k: &str| g.try_attr_key(k).and_then(|k| g.attr(walk[v], k));
        let equal =
            |walk: &Vec<NodeId>| attr(walk, a, ka).is_some_and(|x| Some(x) == attr(walk, bb, kb));
        if planted.as_ref().is_none_or(equal) {
            b.attr_eq_var(vars[a], ka, vars[bb], kb);
        }
    }
    if let Some((v, l)) = &rp.no_out {
        let (v, l) = (
            *v as usize % n,
            l.map(|l| EDGE_LABELS[l as usize % EDGE_LABELS.len()]),
        );
        let has_out = |walk: &Vec<NodeId>| {
            g.out_edges(walk[v])
                .any(|e| l.is_none_or(|l| g.label_name(g.edge(e).unwrap().label) == l))
        };
        if !planted.as_ref().is_some_and(has_out) {
            b.no_out_edge(vars[v], l);
        }
    }
    b.build().unwrap()
}

/// Remove some nodes so the graph carries dead slots.
fn punch_tombstones(g: &mut Graph, kill_mask: u8) {
    let victims: Vec<NodeId> = g
        .nodes()
        .enumerate()
        .filter(|(i, _)| kill_mask & (1 << (i % 8)) != 0 && i % 3 == 0)
        .map(|(_, n)| n)
        .collect();
    for v in victims {
        g.remove_node(v).unwrap();
    }
}

/// One graph edit between finding matches and re-checking them.
#[derive(Clone, Debug)]
enum Mutation {
    /// Tombstone a live node (and its edges).
    Kill(u8),
    /// Relabel a live node; index 3 is a label no pattern names.
    Relabel(u8, u8),
    /// Add an edge; label index 3 is one no pattern names.
    AddEdge(u8, u8, u8),
    /// Add a parallel copy of a live edge.
    Duplicate(u8),
    /// Replace a live edge by a parallel copy (a new witness).
    Replace(u8),
    /// Remove a live edge.
    RemoveEdge(u8),
    /// Set an attribute; key index 2 is one no pattern names.
    SetAttr(u8, u8, i64),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<u8>().prop_map(Mutation::Kill),
        (any::<u8>(), 0u8..4).prop_map(|(n, l)| Mutation::Relabel(n, l)),
        (any::<u8>(), any::<u8>(), 0u8..4).prop_map(|(s, d, l)| Mutation::AddEdge(s, d, l)),
        any::<u8>().prop_map(Mutation::Duplicate),
        any::<u8>().prop_map(Mutation::Replace),
        any::<u8>().prop_map(Mutation::RemoveEdge),
        (any::<u8>(), 0u8..3, 0i64..4).prop_map(|(n, k, v)| Mutation::SetAttr(n, k, v)),
    ]
}

/// Apply `mu`, aimed at `focus` — its live nodes and witness edges,
/// else the live nodes' out-edges, else the whole graph — so that edits
/// hit the match it re-checks.
fn apply_mutation(g: &mut Graph, mu: &Mutation, focus: Option<&Match>) {
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    if let Some(m) = focus {
        nodes.extend(m.nodes.iter().copied().filter(|&n| g.contains_node(n)));
        edges.extend(m.edges.iter().copied().filter(|&e| g.edge(e).is_ok()));
        if edges.is_empty() {
            edges.extend(nodes.iter().flat_map(|&n| g.out_edges(n)));
        }
    }
    if nodes.is_empty() {
        nodes = g.nodes().collect();
    }
    if edges.is_empty() {
        edges = g.edges().collect();
    }
    let node = |i: u8| nodes[i as usize % nodes.len()];
    let edge = |i: u8| edges[i as usize % edges.len()];
    let node_label = |i: u8| *NODE_LABELS.get(i as usize).unwrap_or(&"S");
    let edge_label = |i: u8| *EDGE_LABELS.get(i as usize).unwrap_or(&"d");
    match *mu {
        _ if nodes.is_empty() => {}
        Mutation::Kill(n) => {
            g.remove_node(node(n)).unwrap();
        }
        Mutation::Relabel(n, l) => {
            let l = g.label(node_label(l));
            g.set_node_label(node(n), l).unwrap();
        }
        Mutation::AddEdge(s, d, l) => {
            g.add_edge_named(node(s), node(d), edge_label(l)).unwrap();
        }
        Mutation::Duplicate(_) | Mutation::Replace(_) | Mutation::RemoveEdge(_)
            if edges.is_empty() => {}
        Mutation::Duplicate(e) => {
            let er = g.edge(edge(e)).unwrap();
            g.add_edge(er.src, er.dst, er.label).unwrap();
        }
        Mutation::Replace(e) => {
            let er = g.edge(edge(e)).unwrap();
            g.add_edge(er.src, er.dst, er.label).unwrap();
            g.remove_edge(edge(e)).unwrap();
        }
        Mutation::RemoveEdge(e) => g.remove_edge(edge(e)).unwrap(),
        Mutation::SetAttr(n, k, v) => {
            let k = g.attr_key(KEYS.get(k as usize).unwrap_or(&"k2"));
            g.set_attr(node(n), k, Value::Int(v)).unwrap();
        }
    }
}

/// Which of the names a pattern can mention `g` has interned.
fn known_names(g: &Graph) -> Vec<bool> {
    let labels = NODE_LABELS.iter().chain(&EDGE_LABELS).map(|l| g.try_label(l).is_some());
    labels.chain(KEYS.iter().map(|k| g.try_attr_key(k).is_some())).collect()
}

/// `ms` ordered by nodes.
fn sorted(mut ms: Vec<Match>) -> Vec<Match> {
    ms.sort_by(|a, b| a.nodes.cmp(&b.nodes));
    ms
}

fn node_sets(ms: &[Match]) -> Vec<Vec<NodeId>> {
    let mut v: Vec<Vec<NodeId>> = ms.iter().map(|m| m.nodes.clone()).collect();
    v.sort();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The optimized matcher finds exactly the oracle's match set.
    #[test]
    fn matcher_agrees_with_oracle(rg in graph_strategy(), rp in pattern_strategy()) {
        let g = build_graph(&rg);
        let p = build_pattern(&rp, &g);
        let expected = node_sets(&oracle::brute_force_matches(&g, &p));
        let got = node_sets(&Matcher::new(&g).find_all(&p));
        prop_assert_eq!(got, expected);
    }

    /// Every ablated configuration still finds the oracle's match set,
    /// also on a graph with tombstoned slots.
    #[test]
    fn all_configs_agree_with_oracle(
        rg in graph_strategy(),
        rp in pattern_strategy(),
        kill_mask in any::<u8>(),
    ) {
        let mut g = build_graph(&rg);
        punch_tombstones(&mut g, kill_mask);
        let p = build_pattern(&rp, &g);
        let expected = node_sets(&oracle::brute_force_matches(&g, &p));
        let full = MatchConfig::default();
        for cfg in [
            full,
            MatchConfig::naive(),
            MatchConfig { use_attr_index: false, ..full },
            MatchConfig { connected_order: false, ..full },
        ] {
            let got = node_sets(&Matcher::with_config(&g, cfg).find_all(&p));
            prop_assert_eq!(got, expected.clone(), "config {:?}", cfg);
        }
    }

    /// `find_touching` over the full node set equals `find_all`, with no
    /// duplicates; over a subset it returns exactly the matches whose
    /// image intersects the subset.
    #[test]
    fn find_touching_is_exact(rg in graph_strategy(), rp in pattern_strategy(), mask in any::<u64>()) {
        let g = build_graph(&rg);
        let p = build_pattern(&rp, &g);
        let m = Matcher::new(&g);
        let all = m.find_all(&p);

        let full: TouchSet = g.nodes().collect();
        let touching_all = m.find_touching(&p, &full);
        prop_assert_eq!(touching_all.len(), all.len(), "dedup violated");
        prop_assert_eq!(node_sets(&touching_all), node_sets(&all));

        let subset: TouchSet = g
            .nodes()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
            .map(|(_, n)| n)
            .collect();
        let touching = m.find_touching(&p, &subset);
        let expected: Vec<_> = all
            .iter()
            .filter(|m| m.nodes.iter().any(|n| subset.contains(n)))
            .cloned()
            .collect();
        prop_assert_eq!(node_sets(&touching), node_sets(&expected));
        prop_assert_eq!(touching.len(), expected.len());
    }

    /// Planner-backed plans (greedy candidate-count order, cached)
    /// enumerate exactly the match set of the declaration-order naive
    /// plan — the F5 ablation extended to the planner: join order is a
    /// pure performance choice. Also pins the count-only emission path
    /// and plan-cache stability (repeated runs return byte-identical
    /// sequences).
    #[test]
    fn greedy_plans_agree_with_declaration_order(rg in graph_strategy(), rp in pattern_strategy()) {
        let g = build_graph(&rg);
        let p = build_pattern(&rp, &g);
        let naive = node_sets(&Matcher::with_config(&g, MatchConfig::naive()).find_all(&p));

        let planner = Planner::new();
        let planned = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        let first = planned.find_all(&p);
        prop_assert_eq!(node_sets(&first), naive);
        prop_assert_eq!(planned.count(&p), first.len());
        prop_assert_eq!(planned.exists(&p), !first.is_empty());
        prop_assert_eq!(&planned.find_all(&p), &first, "cached plan must replay identically");
    }

    /// `find_touching` through the planner's per-anchor plan cache
    /// returns exactly the planner-less matcher's result.
    #[test]
    fn planner_find_touching_matches_plain(
        rg in graph_strategy(),
        rp in pattern_strategy(),
        mask in any::<u64>(),
    ) {
        let g = build_graph(&rg);
        let p = build_pattern(&rp, &g);
        let subset: TouchSet = g
            .nodes()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
            .map(|(_, n)| n)
            .collect();
        let plain = Matcher::new(&g).find_touching(&p, &subset);
        let planner = Planner::new();
        let cached = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        // Twice: the second call is served from the per-anchor cache.
        prop_assert_eq!(node_sets(&cached.find_touching(&p, &subset)), node_sets(&plain));
        prop_assert_eq!(node_sets(&cached.find_touching(&p, &subset)), node_sets(&plain));
    }

    /// A plan cached before a mutation keeps serving after it (deleting
    /// nodes interns no name, so the key is unchanged) and stays
    /// oracle-exact on the mutated graph.
    #[test]
    fn cached_plans_stay_exact_after_mutation(
        rg in graph_strategy(),
        rp in pattern_strategy(),
        kill_mask in any::<u8>(),
    ) {
        let mut g = build_graph(&rg);
        let p = build_pattern(&rp, &g);
        let planner = Planner::new();
        Matcher::with_planner(&g, MatchConfig::default(), &planner).find_all(&p);
        let compiles = planner.compile_count();

        punch_tombstones(&mut g, kill_mask);
        let expected = node_sets(&oracle::brute_force_matches(&g, &p));
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        prop_assert_eq!(node_sets(&m.find_all(&p)), expected);
        prop_assert_eq!(planner.compile_count(), compiles, "no new name, no recompile");
    }

    /// For every footprint — every subset of the pattern's variables —
    /// `find_distinct` returns, per footprint binding, the member of
    /// `find_all` with the smallest nodes, witnesses included, under
    /// either configuration and through a planner. `find_touching_distinct`
    /// does the same over the matches touching a subset, and
    /// `min_witness` / `count_witnesses` find each binding's smallest
    /// match and its number of matches.
    #[test]
    fn distinct_matches_are_the_smallest_per_footprint_binding(
        rg in graph_strategy(),
        rp in pattern_strategy(),
        mask in any::<u64>(),
    ) {
        let g = build_graph(&rg);
        let p = build_pattern(&rp, &g);
        let all = Matcher::new(&g).find_all(&p);
        let subset: TouchSet = g
            .nodes()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
            .map(|(_, n)| n)
            .collect();
        let planner = Planner::new();
        let matchers = [
            Matcher::new(&g),
            Matcher::with_config(&g, MatchConfig::naive()),
            Matcher::with_planner(&g, MatchConfig::default(), &planner),
        ];
        for footprint in 0..=p.all_vars() {
            let binding = |m: &Match| -> Vec<NodeId> {
                (0..p.num_vars()).filter(|v| footprint >> v & 1 == 1).map(|v| m.nodes[v]).collect()
            };
            // Per binding: the smallest match and how many there are.
            let fold = |ms: &mut dyn Iterator<Item = &Match>| {
                let mut by_binding: BTreeMap<Vec<NodeId>, (Match, usize)> = BTreeMap::new();
                for m in ms {
                    let (min, n) = by_binding.entry(binding(m)).or_insert((m.clone(), 0));
                    if m.nodes < min.nodes {
                        *min = m.clone();
                    }
                    *n += 1;
                }
                by_binding
            };
            let expected = fold(&mut all.iter());
            let smallest = |by: &BTreeMap<_, (Match, usize)>| {
                sorted(by.values().map(|(m, _)| m.clone()).collect())
            };
            for m in &matchers {
                prop_assert_eq!(
                    sorted(m.find_distinct(&p, footprint)),
                    smallest(&expected),
                    "footprint {:#b}", footprint
                );
            }
            let touching = fold(&mut all.iter().filter(|m| m.nodes.iter().any(|n| subset.contains(n))));
            prop_assert_eq!(
                sorted(matchers[2].find_touching_distinct(&p, footprint, &subset)),
                smallest(&touching),
                "footprint {:#b}", footprint
            );
            for (min, n) in expected.values() {
                let m = &matchers[2];
                prop_assert_eq!(m.min_witness(&p, footprint, &min.nodes), Some(min.clone()));
                prop_assert_eq!(m.count_witnesses(&p, footprint, &min.nodes), *n);
            }
        }
    }

    /// Witness edges are always live, correctly labelled, and connect the
    /// matched endpoints.
    #[test]
    fn witnesses_are_valid(rg in graph_strategy(), rp in pattern_strategy()) {
        let g = build_graph(&rg);
        let p = build_pattern(&rp, &g);
        for m in Matcher::new(&g).find_all(&p) {
            for (i, pe) in p.edges.iter().enumerate() {
                let er = g.edge(m.edges[i]).unwrap();
                prop_assert_eq!(er.src, m.nodes[pe.src.index()]);
                prop_assert_eq!(er.dst, m.nodes[pe.dst.index()]);
                if let Some(want) = &pe.label {
                    prop_assert_eq!(g.label_name(er.label), want.as_str());
                }
            }
        }
    }
}

proptest! {
    // Most random patterns match little, so this property draws more
    // cases to re-check enough matches.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Re-checking a match after a random edit sequence agrees with the
    /// oracle: `CompiledPattern::holds` on the edited graph is true
    /// exactly when the oracle still finds the match's nodes, and then
    /// rewrites the witnesses to the oracle's (live, correctly labelled,
    /// lowest-id) edges. A resolution built before the edits reports
    /// itself stale when they interned a name a pattern can mention; one
    /// that is not stale gives the same answers.
    #[test]
    fn holds_agrees_with_oracle_after_mutation(
        rg in graph_strategy(),
        rp in pattern_strategy(),
        mutations in prop::collection::vec(mutation_strategy(), 0..8),
    ) {
        let mut g = build_graph(&rg);
        let p = build_pattern(&rp, &g);
        let before = CompiledPattern::new(&g, &p);
        let found = Matcher::new(&g).find_all(&p);
        let known_before = known_names(&g);
        for mu in &mutations {
            apply_mutation(&mut g, mu, found.first());
        }
        if known_names(&g) != known_before {
            prop_assert!(before.is_stale(&g), "a name was interned");
        }

        let now: HashMap<Vec<NodeId>, Vec<EdgeId>> = oracle::brute_force_matches(&g, &p)
            .into_iter()
            .map(|m| (m.nodes, m.edges))
            .collect();
        let after = CompiledPattern::new(&g, &p);
        prop_assert!(!after.is_stale(&g));
        for m in found {
            let mut rechecked = m.clone();
            let holds = after.holds(&g, &mut rechecked);
            prop_assert_eq!(holds, now.contains_key(&m.nodes), "match {:?}", m.nodes);
            if holds {
                prop_assert_eq!(&rechecked.edges, &now[&m.nodes]);
                for (pe, &e) in p.edges.iter().zip(&rechecked.edges) {
                    let er = g.edge(e).unwrap();
                    prop_assert_eq!(er.src, m.nodes[pe.src.index()]);
                    prop_assert_eq!(er.dst, m.nodes[pe.dst.index()]);
                    if let Some(want) = &pe.label {
                        prop_assert_eq!(g.label_name(er.label), want.as_str());
                    }
                }
            }
            if !before.is_stale(&g) {
                prop_assert_eq!(before.holds(&g, &mut m.clone()), holds);
            }
        }
    }
}
