//! Property tests for the repair engines: convergence, fixpoint
//! stability, invariant preservation, and matcher equivalence on random
//! graphs and random (terminating) rule sets.

use grepair_core::{check_effectiveness, Effectiveness, RepairEngine, RuleSet};
use grepair_graph::{Graph, NodeId, Value};
use grepair_match::MatchConfig;
use proptest::prelude::*;

const NODE_LABELS: [&str; 3] = ["P", "Q", "R"];
const EDGE_LABELS: [&str; 3] = ["a", "b", "c"];

#[derive(Clone, Debug)]
struct RandGraph {
    labels: Vec<u8>,
    edges: Vec<(u8, u8, u8)>,
    attrs: Vec<(u8, i64)>,
}

fn graph_strategy() -> impl Strategy<Value = RandGraph> {
    (
        prop::collection::vec(any::<u8>(), 1..12),
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..24),
        prop::collection::vec((any::<u8>(), 0i64..4), 0..8),
    )
        .prop_map(|(labels, edges, attrs)| RandGraph {
            labels,
            edges,
            attrs,
        })
}

fn build_graph(rg: &RandGraph) -> Graph {
    let mut g = Graph::new();
    let key = g.attr_key("ssn");
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
    for (n, v) in &rg.attrs {
        let n = nodes[*n as usize % nodes.len()];
        g.set_attr(n, key, Value::Int(*v)).unwrap();
    }
    g
}

/// A random *terminating* rule set: decreasing rules only (deletions and
/// merges never enable insert-style rules here).
fn rules_strategy() -> impl Strategy<Value = RuleSet> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..4).prop_map(
        |specs| {
            let mut src = String::new();
            for (i, (a, b, l, merge)) in specs.into_iter().enumerate() {
                let la = NODE_LABELS[a as usize % NODE_LABELS.len()];
                let lb = NODE_LABELS[b as usize % NODE_LABELS.len()];
                let rel = EDGE_LABELS[l as usize % EDGE_LABELS.len()];
                if merge {
                    src.push_str(&format!(
                        "rule m{i} [redundancy]
                         match (x:{la}), (y:{la})
                         where x.ssn == y.ssn
                         repair merge y into x\n"
                    ));
                } else {
                    src.push_str(&format!(
                        "rule d{i} [conflict]
                         match (x:{la})-[{rel}]->(y:{lb})
                         repair delete edge (x)-[{rel}]->(y)\n"
                    ));
                }
            }
            RuleSet::from_dsl("prop", &src).expect("generated rules parse")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Decreasing rule sets always converge, preserve invariants, and the
    /// fixpoint is stable under a second run.
    #[test]
    fn decreasing_rules_converge(rg in graph_strategy(), rules in rules_strategy()) {
        let mut g = build_graph(&rg);
        let engine = RepairEngine::default();
        let report = engine.repair(&mut g, &rules.rules);
        prop_assert!(report.converged, "residual {}", report.violations_remaining);
        prop_assert!(g.check_invariants().is_ok());

        let again = engine.repair(&mut g, &rules.rules);
        prop_assert!(again.converged);
        prop_assert_eq!(again.repairs_applied, 0, "fixpoint must be stable");
    }

    /// The engine over the optimized and the unoptimized matcher ends with
    /// zero violations and identical graph sizes on deletion/merge rule
    /// sets (confluent up to element identity).
    #[test]
    fn engines_agree_on_fixpoint_shape(rg in graph_strategy(), rules in rules_strategy()) {
        let base = build_graph(&rg);
        let mut g1 = base.clone();
        let r1 = RepairEngine::default().repair(&mut g1, &rules.rules);
        let mut g2 = base.clone();
        let r2 = RepairEngine::new(MatchConfig::naive()).repair(&mut g2, &rules.rules);
        prop_assert!(r1.converged && r2.converged);
        prop_assert_eq!(g1.num_nodes(), g2.num_nodes());
        prop_assert_eq!(g1.num_edges(), g2.num_edges());
    }

    /// Every generated rule passes the semantic effectiveness check.
    #[test]
    fn generated_rules_are_effective(rules in rules_strategy()) {
        for r in &rules.rules {
            prop_assert_ne!(
                check_effectiveness(r),
                Effectiveness::Ineffective,
                "rule {} judged ineffective", r.name
            );
        }
    }

    /// Report accounting: per-rule sums equal totals; cost is non-negative
    /// and zero iff nothing was applied.
    #[test]
    fn report_accounting(rg in graph_strategy(), rules in rules_strategy()) {
        let mut g = build_graph(&rg);
        let report = RepairEngine::default().repair(&mut g, &rules.rules);
        let per_rule: usize = report.per_rule.iter().map(|s| s.repairs_applied).sum();
        prop_assert_eq!(per_rule, report.repairs_applied);
        prop_assert!(report.total_cost >= 0.0);
        prop_assert_eq!(report.total_cost == 0.0, report.repairs_applied == 0);
        prop_assert_eq!(report.ops_applied == 0, report.repairs_applied == 0);
    }
}
