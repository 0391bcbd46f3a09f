//! Property tests: the optimized matcher agrees with the brute-force
//! oracle on random graphs and patterns, under every configuration.

use grepair_graph::{Graph, NodeId, Value};
use grepair_match::{oracle, Match, MatchConfig, Matcher, Pattern, Planner, TouchSet};
use proptest::prelude::*;

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
}

fn pattern_strategy() -> impl Strategy<Value = RandPattern> {
    (
        prop::collection::vec(prop::option::of(any::<u8>()), 1..4),
        prop::collection::vec((any::<u8>(), any::<u8>(), prop::option::of(any::<u8>())), 0..4),
        prop::collection::vec((any::<u8>(), any::<u8>(), prop::option::of(any::<u8>())), 0..2),
        prop::option::of((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())),
        prop::option::of((any::<u8>(), prop::option::of(any::<u8>()))),
    )
        .prop_map(|(labels, edges, neg_edges, eq_constraint, no_out)| RandPattern {
            labels,
            edges,
            neg_edges,
            eq_constraint,
            no_out,
        })
}

fn build_pattern(rp: &RandPattern) -> Pattern {
    let mut b = Pattern::builder();
    let n = rp.labels.len();
    let vars: Vec<_> = rp
        .labels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            b.node(
                &format!("v{i}"),
                l.map(|l| NODE_LABELS[l as usize % NODE_LABELS.len()]),
            )
        })
        .collect();
    for (s, d, l) in &rp.edges {
        let s = vars[*s as usize % n];
        let d = vars[*d as usize % n];
        match l {
            Some(l) => b.edge(s, d, EDGE_LABELS[*l as usize % EDGE_LABELS.len()]),
            None => b.edge_any(s, d),
        };
    }
    for (s, d, l) in &rp.neg_edges {
        let s = vars[*s as usize % n];
        let d = vars[*d as usize % n];
        match l {
            Some(l) => b.neg_edge(s, d, EDGE_LABELS[*l as usize % EDGE_LABELS.len()]),
            None => b.neg_edge_any(s, d),
        };
    }
    if let Some((a, ka, bb, kb)) = &rp.eq_constraint {
        b.attr_eq_var(
            vars[*a as usize % n],
            KEYS[*ka as usize % KEYS.len()],
            vars[*bb as usize % n],
            KEYS[*kb as usize % KEYS.len()],
        );
    }
    if let Some((v, l)) = &rp.no_out {
        b.no_out_edge(
            vars[*v as usize % n],
            l.map(|l| EDGE_LABELS[l as usize % EDGE_LABELS.len()]),
        );
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
        let p = build_pattern(&rp);
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
        let p = build_pattern(&rp);
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
        let p = build_pattern(&rp);
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
    /// sequences). The name is kept from the statistics-priced planner
    /// the greedy order replaced.
    #[test]
    fn cost_based_plans_agree_with_declaration_order(rg in graph_strategy(), rp in pattern_strategy()) {
        let g = build_graph(&rg);
        let p = build_pattern(&rp);
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
        let p = build_pattern(&rp);
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
        let p = build_pattern(&rp);
        let planner = Planner::new();
        Matcher::with_planner(&g, MatchConfig::default(), &planner).find_all(&p);
        let compiles = planner.compile_count();

        punch_tombstones(&mut g, kill_mask);
        let expected = node_sets(&oracle::brute_force_matches(&g, &p));
        let m = Matcher::with_planner(&g, MatchConfig::default(), &planner);
        prop_assert_eq!(node_sets(&m.find_all(&p)), expected);
        prop_assert_eq!(planner.compile_count(), compiles, "no new name, no recompile");
    }

    /// Witness edges are always live, correctly labelled, and connect the
    /// matched endpoints.
    #[test]
    fn witnesses_are_valid(rg in graph_strategy(), rp in pattern_strategy()) {
        let g = build_graph(&rg);
        let p = build_pattern(&rp);
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
