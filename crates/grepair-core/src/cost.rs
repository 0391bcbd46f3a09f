//! The repair cost model: graph-edit-distance weights over repair
//! operations.
//!
//! The paper selects the "best" repair by edit-distance cost when several
//! rules (or several matches of one rule) can fix the same violation. Two
//! entry points:
//!
//! - [`op_cost`] — exact cost of an [`AppliedOp`] already performed
//!   (repair-report accounting, F7).
//! - [`estimate_cost`] — predicted cost of applying a rule to a match
//!   *without* mutating the graph (repair arbitration in the engine). The
//!   estimate equals the applied cost whenever the graph is unchanged
//!   between estimation and application; racing repairs can only lower the
//!   real cost (idempotent skips).

use crate::apply::{ActionIds, AppliedOp};
use crate::rule::{Action, Grr, PatternEdgeRef, Target, ValueSource};
use grepair_graph::{AttrKeyId, EditCosts, Graph, NodeId};
use grepair_match::Match;

/// Exact edit cost of a performed operation.
pub fn op_cost(op: &AppliedOp, costs: &EditCosts) -> f64 {
    match op {
        AppliedOp::InsertNode { attrs, .. } => {
            costs.node_insert + attrs.len() as f64 * costs.attr_change
        }
        AppliedOp::InsertEdge { .. } => costs.edge_insert,
        AppliedOp::DeleteNode { removed_edges, .. } => {
            costs.node_delete + *removed_edges as f64 * costs.edge_delete
        }
        AppliedOp::DeleteEdge { .. } => costs.edge_delete,
        AppliedOp::RelabelNode { .. } => costs.node_relabel,
        AppliedOp::SetAttr { .. } | AppliedOp::RemoveAttr { .. } => costs.attr_change,
        AppliedOp::RelabelEdge { .. } => costs.edge_relabel,
        // A merge deletes one node; rewired edges preserve information and
        // dropped parallels are deduplication, both free under the paper's
        // "preserve as much as possible" reading.
        AppliedOp::Merge { .. } => costs.node_delete,
    }
}

/// Predicted cost of applying `rule` at `m` against the current graph.
///
/// Idempotent sub-operations (inserting an existing edge, relabelling to
/// the current label, setting an attribute to its current value, deleting
/// a dead element) are predicted at zero, mirroring
/// [`crate::apply::apply_rule`]'s no-op behaviour.
pub fn estimate_cost(g: &Graph, rule: &Grr, m: &Match, costs: &EditCosts) -> f64 {
    estimate_with(g, rule, &ActionIds::new(g, rule), m, costs)
}

/// [`estimate_cost`]'s body, reading the rule's names through `ids`
/// (resolved for `g`).
pub(crate) fn estimate_with<'a>(
    g: &'a Graph,
    rule: &'a Grr,
    ids: &ActionIds,
    m: &Match,
    costs: &EditCosts,
) -> f64 {
    let vocabulary = ids.vocabulary;
    let attr = |n: NodeId, key: Option<AttrKeyId>, name: &str| {
        vocabulary.key(g, key, name).and_then(|kk| g.attr(n, kk))
    };
    let value_of = |src: &'a ValueSource, key: Option<AttrKeyId>| match src {
        ValueSource::Const(v) => Some(v),
        ValueSource::CopyAttr(v, k) => attr(m.nodes[v.index()], key, k),
    };
    let mut total = 0.0;
    for (action, ids) in rule.actions.iter().zip(&ids.actions) {
        match action {
            Action::InsertNode { attrs, .. } => {
                let settable = attrs
                    .iter()
                    .zip(&ids.set)
                    .filter(|((_, src), (_, src_key))| value_of(src, *src_key).is_some())
                    .count();
                total += costs.node_insert + settable as f64 * costs.attr_change;
            }
            Action::InsertEdge { src, dst, label } => {
                let exists = match (src, dst) {
                    (Target::Var(s), Target::Var(d)) => {
                        let (sn, dn) = (m.nodes[s.index()], m.nodes[d.index()]);
                        vocabulary
                            .label(g, ids.label, label)
                            .is_some_and(|l| g.has_edge_labeled(sn, dn, l))
                    }
                    // An edge to/from a fresh node can never pre-exist.
                    _ => false,
                };
                if !exists {
                    total += costs.edge_insert;
                }
            }
            Action::DeleteNode(v) => {
                let n = m.nodes[v.index()];
                if g.contains_node(n) {
                    total += costs.node_delete + g.degree(n) as f64 * costs.edge_delete;
                }
            }
            Action::DeleteEdge(PatternEdgeRef(i)) => {
                if m.edges.get(*i).is_some_and(|&e| g.contains_edge(e)) {
                    total += costs.edge_delete;
                }
            }
            Action::UpdateNode {
                node,
                set_label,
                set_attrs,
                del_attrs,
            } => {
                let n = m.nodes[node.index()];
                if !g.contains_node(n) {
                    continue;
                }
                if let Some(new_label) = set_label {
                    if vocabulary.label(g, ids.label, new_label) != g.node_label(n).ok() {
                        total += costs.node_relabel;
                    }
                }
                for ((key, src), (kk, src_key)) in set_attrs.iter().zip(&ids.set) {
                    let Some(value) = value_of(src, *src_key) else { continue };
                    if attr(n, *kk, key) != Some(value) {
                        total += costs.attr_change;
                    }
                }
                for (key, kk) in del_attrs.iter().zip(&ids.del) {
                    if attr(n, *kk, key).is_some() {
                        total += costs.attr_change;
                    }
                }
            }
            Action::UpdateEdgeLabel {
                edge: PatternEdgeRef(i),
                label,
            } => {
                if let Some(&e) = m.edges.get(*i) {
                    if let Ok(er) = g.edge(e) {
                        if vocabulary.label(g, ids.label, label) != Some(er.label) {
                            total += costs.edge_relabel;
                        }
                    }
                }
            }
            Action::MergeNodes { keep, merged } => {
                let (k, d) = (m.nodes[keep.index()], m.nodes[merged.index()]);
                if g.contains_node(k) && g.contains_node(d) && k != d {
                    total += costs.node_delete;
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_rule;
    use crate::rule::{Category, Grr};
    use grepair_graph::Value;
    use grepair_match::{Matcher, Pattern};

    /// estimate == actual for every op kind on a static graph.
    #[test]
    fn estimate_matches_actual_cost() {
        let mut g = Graph::new();
        let a = g.add_node_named("Person");
        let b = g.add_node_named("Person");
        let ssn = g.attr_key("ssn");
        g.set_attr(a, ssn, Value::Int(1)).unwrap();
        g.set_attr(b, ssn, Value::Int(1)).unwrap();
        g.add_edge_named(a, b, "dupOf").unwrap();

        let mut pb = Pattern::builder();
        let vx = pb.node("x", Some("Person"));
        let vy = pb.node("y", Some("Person"));
        pb.edge(vx, vy, "dupOf");
        let rule = Grr::new(
            "merge-dups",
            Category::Redundancy,
            pb.build().unwrap(),
            vec![
                crate::rule::Action::DeleteEdge(PatternEdgeRef(0)),
                crate::rule::Action::MergeNodes {
                    keep: grepair_match::Var(0),
                    merged: grepair_match::Var(1),
                },
            ],
        )
        .unwrap();
        let costs = EditCosts::default();
        let m = Matcher::new(&g).find_all(&rule.pattern).remove(0);
        let est = estimate_cost(&g, &rule, &m, &costs);
        let mut g2 = g.clone();
        let applied = apply_rule(&mut g2, &rule, &m, &costs).unwrap();
        assert!((est - applied.cost).abs() < 1e-9, "est {est} vs {}", applied.cost);
    }

    #[test]
    fn idempotent_ops_cost_zero() {
        let mut g = Graph::new();
        let a = g.add_node_named("Person");
        let c = g.add_node_named("City");
        g.add_edge_named(a, c, "livesIn").unwrap();

        let mut pb = Pattern::builder();
        let vx = pb.node("x", Some("Person"));
        let vc = pb.node("c", Some("City"));
        pb.edge(vx, vc, "livesIn");
        // Rule inserting the edge that already exists.
        let rule = Grr::new(
            "noop-insert",
            Category::Incompleteness,
            pb.build().unwrap(),
            vec![crate::rule::Action::InsertEdge {
                src: Target::Var(grepair_match::Var(0)),
                dst: Target::Var(grepair_match::Var(1)),
                label: "livesIn".into(),
            }],
        )
        .unwrap();
        let m = Matcher::new(&g).find_all(&rule.pattern).remove(0);
        assert_eq!(estimate_cost(&g, &rule, &m, &EditCosts::default()), 0.0);
    }

    #[test]
    fn delete_node_cost_includes_degree() {
        let mut g = Graph::new();
        let hub = g.add_node_named("Spam");
        for _ in 0..4 {
            let n = g.add_node_named("Person");
            g.add_edge_named(hub, n, "follows").unwrap();
        }
        let mut pb = Pattern::builder();
        pb.node("x", Some("Spam"));
        let rule = Grr::new(
            "kill",
            Category::Conflict,
            pb.build().unwrap(),
            vec![crate::rule::Action::DeleteNode(grepair_match::Var(0))],
        )
        .unwrap();
        let costs = EditCosts::default();
        let m = Matcher::new(&g).find_all(&rule.pattern).remove(0);
        let est = estimate_cost(&g, &rule, &m, &costs);
        assert_eq!(est, costs.node_delete + 4.0 * costs.edge_delete);
        let mut g2 = g.clone();
        let applied = apply_rule(&mut g2, &rule, &m, &costs).unwrap();
        assert_eq!(est, applied.cost);
    }
}
