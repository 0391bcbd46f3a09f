//! Applying a GRR to a concrete match.
//!
//! Application is **idempotent where possible** (inserting an edge that
//! already exists, deleting an element already gone, setting an attribute
//! to its current value are all no-ops) so that queued violations whose
//! repairs partially overlap do not corrupt the graph. Every applied
//! operation is logged as an [`AppliedOp`] — the repair report, the cost
//! accounting (F7), and the quality metrics all consume this log.

use crate::cost::op_cost;
use crate::rule::{Action, Grr, PatternEdgeRef, Target, ValueSource};
use grepair_graph::{EditCosts, EdgeId, Graph, GraphError, NodeId, Value};
use grepair_match::{Match, TouchSet};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// A concrete repair operation that was applied to the graph.
///
/// Labels and keys are recorded as strings so the log survives graph
/// re-interning and can be serialized into experiment artifacts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AppliedOp {
    /// A node was created.
    InsertNode {
        /// New node.
        node: NodeId,
        /// Its label.
        label: String,
        /// Attributes set at creation, in application order. Recorded in
        /// full (not just a count) so the op log is *replayable* — a
        /// durable store can re-derive the exact graph state from the
        /// log alone.
        attrs: Vec<(String, Value)>,
    },
    /// An edge was created.
    InsertEdge {
        /// New edge.
        edge: EdgeId,
        /// Source node.
        src: NodeId,
        /// Target node.
        dst: NodeId,
        /// Relation label.
        label: String,
    },
    /// A node (and its incident edges) was deleted.
    DeleteNode {
        /// Deleted node.
        node: NodeId,
        /// Label it carried.
        label: String,
        /// Incident edges removed along with it.
        removed_edges: usize,
    },
    /// An edge was deleted.
    DeleteEdge {
        /// Deleted edge.
        edge: EdgeId,
        /// Its source.
        src: NodeId,
        /// Its target.
        dst: NodeId,
        /// Its label.
        label: String,
    },
    /// A node was relabelled.
    RelabelNode {
        /// The node.
        node: NodeId,
        /// Previous label.
        from: String,
        /// New label.
        to: String,
    },
    /// An attribute was set (created or overwritten).
    SetAttr {
        /// The node.
        node: NodeId,
        /// Attribute key.
        key: String,
        /// New value.
        value: Value,
        /// Previous value, if overwritten.
        old: Option<Value>,
    },
    /// An attribute was removed.
    RemoveAttr {
        /// The node.
        node: NodeId,
        /// Attribute key.
        key: String,
        /// Removed value.
        old: Value,
    },
    /// An edge was relabelled.
    RelabelEdge {
        /// The edge.
        edge: EdgeId,
        /// Previous label.
        from: String,
        /// New label.
        to: String,
    },
    /// Two nodes were merged.
    Merge {
        /// Surviving node.
        keep: NodeId,
        /// Absorbed node.
        merged: NodeId,
        /// Edges redirected onto `keep`.
        rewired: usize,
        /// Parallel duplicates dropped.
        dropped: usize,
    },
}

/// Result of applying one rule to one match.
#[derive(Clone, Debug, Default)]
pub struct Applied {
    /// Concrete operations performed (no-ops omitted).
    pub ops: Vec<AppliedOp>,
    /// Nodes whose structure/attributes changed — the delta anchor set for
    /// incremental re-matching. Includes surviving neighbors of deleted
    /// nodes and endpoints of touched edges.
    pub touched: TouchSet,
    /// Summed edit cost of `ops`.
    pub cost: f64,
}

impl Applied {
    /// Whether the application changed anything.
    pub fn is_noop(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Apply `rule`'s actions to `g` under the variable assignment `m`.
///
/// The caller is expected to have checked that the match still holds
/// ([`grepair_match::CompiledPattern::holds`]); stale element references
/// inside the match degrade to no-ops rather than errors, so a repair
/// raced by an earlier repair in the same round is safe.
pub fn apply_rule(
    g: &mut Graph,
    rule: &Grr,
    m: &Match,
    costs: &EditCosts,
) -> Result<Applied, GraphError> {
    let mut out = Applied::default();
    let mut fresh: FxHashMap<&str, NodeId> = FxHashMap::default();

    let node_of = |t: &Target, fresh: &FxHashMap<&str, NodeId>| -> Option<NodeId> {
        match t {
            Target::Var(v) => m.nodes.get(v.index()).copied(),
            Target::Fresh(b) => fresh.get(b.as_str()).copied(),
        }
    };

    for action in &rule.actions {
        match action {
            Action::InsertNode {
                binder,
                label,
                attrs,
            } => {
                let l = g.label(label);
                let node = g.add_node(l);
                let mut set = Vec::new();
                for (key, src) in attrs {
                    let value = match src {
                        ValueSource::Const(v) => Some(v.clone()),
                        ValueSource::CopyAttr(v, k) => {
                            let src_node = m.nodes[v.index()];
                            g.try_attr_key(k)
                                .and_then(|kk| g.attr(src_node, kk))
                                .cloned()
                        }
                    };
                    if let Some(value) = value {
                        let kk = g.attr_key(key);
                        g.set_attr(node, kk, value.clone())?;
                        set.push((key.clone(), value));
                    }
                }
                fresh.insert(binder.as_str(), node);
                out.touched.insert(node);
                record(&mut out, costs, AppliedOp::InsertNode {
                    node,
                    label: label.clone(),
                    attrs: set,
                });
            }
            Action::InsertEdge { src, dst, label } => {
                let (Some(s), Some(d)) = (node_of(src, &fresh), node_of(dst, &fresh)) else {
                    continue;
                };
                if !g.contains_node(s) || !g.contains_node(d) {
                    continue; // deleted by an earlier racing repair
                }
                let l = g.label(label);
                if g.has_edge_labeled(s, d, l) {
                    continue; // idempotent
                }
                let edge = g.add_edge(s, d, l)?;
                out.touched.insert(s);
                out.touched.insert(d);
                record(&mut out, costs, AppliedOp::InsertEdge {
                    edge,
                    src: s,
                    dst: d,
                    label: label.clone(),
                });
            }
            Action::DeleteNode(v) => {
                let node = m.nodes[v.index()];
                if !g.contains_node(node) {
                    continue;
                }
                let label = g.label_name(g.node_label(node)?).to_owned();
                // Neighbors survive and their adjacency changes.
                let neighbors: Vec<NodeId> = g
                    .incident_edges(node)
                    .filter_map(|e| {
                        let er = g.edge(e).ok()?;
                        Some(if er.src == node { er.dst } else { er.src })
                    })
                    .filter(|&n| n != node)
                    .collect();
                let removed = g.remove_node(node)?;
                out.touched.extend(neighbors);
                record(&mut out, costs, AppliedOp::DeleteNode {
                    node,
                    label,
                    removed_edges: removed.len(),
                });
            }
            Action::DeleteEdge(PatternEdgeRef(i)) => {
                let Some(&edge) = m.edges.get(*i) else { continue };
                let Ok(er) = g.edge(edge) else { continue };
                let label = g.label_name(er.label).to_owned();
                g.remove_edge(edge)?;
                out.touched.insert(er.src);
                out.touched.insert(er.dst);
                record(&mut out, costs, AppliedOp::DeleteEdge {
                    edge,
                    src: er.src,
                    dst: er.dst,
                    label,
                });
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
                    let from = g.label_name(g.node_label(n)?).to_owned();
                    if &from != new_label {
                        let l = g.label(new_label);
                        g.set_node_label(n, l)?;
                        out.touched.insert(n);
                        record(&mut out, costs, AppliedOp::RelabelNode {
                            node: n,
                            from,
                            to: new_label.clone(),
                        });
                    }
                }
                for (key, src) in set_attrs {
                    let value = match src {
                        ValueSource::Const(v) => Some(v.clone()),
                        ValueSource::CopyAttr(v, k) => {
                            let src_node = m.nodes[v.index()];
                            g.try_attr_key(k)
                                .and_then(|kk| g.attr(src_node, kk))
                                .cloned()
                        }
                    };
                    let Some(value) = value else { continue };
                    let kk = g.attr_key(key);
                    if g.attr(n, kk) == Some(&value) {
                        continue; // idempotent
                    }
                    let old = g.set_attr(n, kk, value.clone())?;
                    out.touched.insert(n);
                    record(&mut out, costs, AppliedOp::SetAttr {
                        node: n,
                        key: key.clone(),
                        value,
                        old,
                    });
                }
                for key in del_attrs {
                    let Some(kk) = g.try_attr_key(key) else { continue };
                    if let Some(old) = g.remove_attr(n, kk)? {
                        out.touched.insert(n);
                        record(&mut out, costs, AppliedOp::RemoveAttr {
                            node: n,
                            key: key.clone(),
                            old,
                        });
                    }
                }
            }
            Action::UpdateEdgeLabel {
                edge: PatternEdgeRef(i),
                label,
            } => {
                let Some(&edge) = m.edges.get(*i) else { continue };
                let Ok(er) = g.edge(edge) else { continue };
                let from = g.label_name(er.label).to_owned();
                if &from == label {
                    continue;
                }
                let l = g.label(label);
                g.set_edge_label(edge, l)?;
                out.touched.insert(er.src);
                out.touched.insert(er.dst);
                record(&mut out, costs, AppliedOp::RelabelEdge {
                    edge,
                    from,
                    to: label.clone(),
                });
            }
            Action::MergeNodes { keep, merged } => {
                let k = m.nodes[keep.index()];
                let d = m.nodes[merged.index()];
                if !g.contains_node(k) || !g.contains_node(d) || k == d {
                    continue;
                }
                let outcome = g.merge_nodes(k, d, true)?;
                out.touched.insert(k);
                for &e in &outcome.rewired {
                    if let Ok(er) = g.edge(e) {
                        out.touched.insert(er.src);
                        out.touched.insert(er.dst);
                    }
                }
                record(&mut out, costs, AppliedOp::Merge {
                    keep: k,
                    merged: d,
                    rewired: outcome.rewired.len(),
                    dropped: outcome.dropped.len(),
                });
            }
        }
    }
    Ok(out)
}

fn record(out: &mut Applied, costs: &EditCosts, op: AppliedOp) {
    out.cost += op_cost(&op, costs);
    out.ops.push(op);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Category;
    use grepair_match::{Matcher, Pattern, Var};

    /// Person lives in city with country; missing citizenship.
    fn incompleteness_fixture() -> (Graph, Grr) {
        let mut g = Graph::new();
        let x = g.add_node_named("Person");
        let c = g.add_node_named("City");
        let k = g.add_node_named("Country");
        g.add_edge_named(x, c, "livesIn").unwrap();
        g.add_edge_named(c, k, "inCountry").unwrap();

        let mut b = Pattern::builder();
        let vx = b.node("x", Some("Person"));
        let vc = b.node("c", Some("City"));
        let vk = b.node("k", Some("Country"));
        b.edge(vx, vc, "livesIn");
        b.edge(vc, vk, "inCountry");
        b.neg_edge(vx, vk, "citizenOf");
        let rule = Grr::new(
            "add-citizenship",
            Category::Incompleteness,
            b.build().unwrap(),
            vec![Action::InsertEdge {
                src: Target::Var(vx),
                dst: Target::Var(vk),
                label: "citizenOf".into(),
            }],
        )
        .unwrap();
        (g, rule)
    }

    #[test]
    fn insert_edge_repair_eliminates_violation() {
        let (mut g, rule) = incompleteness_fixture();
        let matches = Matcher::new(&g).find_all(&rule.pattern);
        assert_eq!(matches.len(), 1);
        let applied = apply_rule(&mut g, &rule, &matches[0], &EditCosts::default()).unwrap();
        assert_eq!(applied.ops.len(), 1);
        assert!(applied.cost > 0.0);
        assert!(Matcher::new(&g).find_all(&rule.pattern).is_empty());
        // Idempotent: applying again is a no-op.
        let again = apply_rule(&mut g, &rule, &matches[0], &EditCosts::default()).unwrap();
        assert!(again.is_noop());
        g.check_invariants().unwrap();
    }

    #[test]
    fn insert_node_with_binder_and_copied_attr() {
        let mut g = Graph::new();
        let x = g.add_node_named("Person");
        let name_k = g.attr_key("name");
        g.set_attr(x, name_k, Value::from("Ann")).unwrap();

        let mut b = Pattern::builder();
        let vx = b.node("x", Some("Person"));
        b.missing_attr(vx, "profileId");
        let rule = Grr::new(
            "create-profile",
            Category::Incompleteness,
            b.build().unwrap(),
            vec![
                Action::InsertNode {
                    binder: "p".into(),
                    label: "Profile".into(),
                    attrs: vec![
                        ("owner".into(), ValueSource::CopyAttr(vx, "name".into())),
                        ("ghost".into(), ValueSource::CopyAttr(vx, "missing".into())),
                    ],
                },
                Action::InsertEdge {
                    src: Target::Var(vx),
                    dst: Target::Fresh("p".into()),
                    label: "hasProfile".into(),
                },
                Action::UpdateNode {
                    node: vx,
                    set_label: None,
                    set_attrs: vec![(
                        "profileId".into(),
                        ValueSource::Const(Value::Int(1)),
                    )],
                    del_attrs: vec![],
                },
            ],
        )
        .unwrap();
        let matches = Matcher::new(&g).find_all(&rule.pattern);
        assert_eq!(matches.len(), 1);
        let applied = apply_rule(&mut g, &rule, &matches[0], &EditCosts::default()).unwrap();
        // insert-node + insert-edge + set-attr (the absent copy source was skipped).
        assert_eq!(applied.ops.len(), 3);
        let profile = g
            .nodes()
            .find(|&n| g.label_name(g.node_label(n).unwrap()) == "Profile")
            .unwrap();
        let owner = g.try_attr_key("owner").unwrap();
        assert_eq!(g.attr(profile, owner), Some(&Value::from("Ann")));
        assert!(g.try_attr_key("ghost").is_none() || g.attr(profile, g.try_attr_key("ghost").unwrap()).is_none());
        assert!(Matcher::new(&g).find_all(&rule.pattern).is_empty());
        g.check_invariants().unwrap();
    }

    #[test]
    fn delete_and_update_ops() {
        let mut g = Graph::new();
        let a = g.add_node_named("Person");
        let b_ = g.add_node_named("Person");
        g.add_edge_named(a, b_, "marriedTo").unwrap();
        g.add_edge_named(b_, a, "marriedTo").unwrap();
        g.add_edge_named(a, a, "marriedTo").unwrap(); // conflict: self marriage

        let mut pb = Pattern::builder();
        let vx = pb.node("x", Some("Person"));
        pb.edge(vx, vx, "marriedTo");
        let rule = Grr::new(
            "no-self-marriage",
            Category::Conflict,
            pb.build().unwrap(),
            vec![Action::DeleteEdge(PatternEdgeRef(0))],
        )
        .unwrap();
        let matches = Matcher::new(&g).find_all(&rule.pattern);
        assert_eq!(matches.len(), 1);
        let applied = apply_rule(&mut g, &rule, &matches[0], &EditCosts::default()).unwrap();
        assert!(matches!(applied.ops[0], AppliedOp::DeleteEdge { .. }));
        assert_eq!(g.num_edges(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn merge_repair() {
        let mut g = Graph::new();
        let ssn = g.attr_key("ssn");
        let a = g.add_node_named("Person");
        let b_ = g.add_node_named("Person");
        g.set_attr(a, ssn, Value::Int(123)).unwrap();
        g.set_attr(b_, ssn, Value::Int(123)).unwrap();
        let city = g.add_node_named("City");
        g.add_edge_named(a, city, "livesIn").unwrap();
        g.add_edge_named(b_, city, "livesIn").unwrap();

        let mut pb = Pattern::builder();
        let vx = pb.node("x", Some("Person"));
        let vy = pb.node("y", Some("Person"));
        pb.attr_eq_var(vx, "ssn", vy, "ssn");
        let rule = Grr::new(
            "dedup-person",
            Category::Redundancy,
            pb.build().unwrap(),
            vec![Action::MergeNodes {
                keep: vx,
                merged: vy,
            }],
        )
        .unwrap();
        let mut matches = Matcher::new(&g).find_all(&rule.pattern);
        assert_eq!(matches.len(), 2); // symmetric
        matches.sort_by_key(|m| m.nodes.clone());
        let applied = apply_rule(&mut g, &rule, &matches[0], &EditCosts::default()).unwrap();
        assert!(matches!(applied.ops[0], AppliedOp::Merge { .. }));
        assert_eq!(g.num_nodes(), 2);
        // Duplicate livesIn edge deduped by merge.
        assert_eq!(g.num_edges(), 1);
        assert!(Matcher::new(&g).find_all(&rule.pattern).is_empty());
        // The stale symmetric match degrades to a no-op.
        let again = apply_rule(&mut g, &rule, &matches[1], &EditCosts::default()).unwrap();
        assert!(again.is_noop());
        g.check_invariants().unwrap();
    }

    #[test]
    fn update_node_relabel_and_attr_semantics() {
        let mut g = Graph::new();
        let n = g.add_node_named("Typo");
        let k = g.attr_key("verified");
        g.set_attr(n, k, Value::Bool(false)).unwrap();

        let mut pb = Pattern::builder();
        let vx = pb.node("x", Some("Typo"));
        let rule = Grr::new(
            "fix-label",
            Category::Conflict,
            pb.build().unwrap(),
            vec![Action::UpdateNode {
                node: vx,
                set_label: Some("Person".into()),
                set_attrs: vec![("verified".into(), ValueSource::Const(Value::Bool(true)))],
                del_attrs: vec!["verified_old".into()],
            }],
        )
        .unwrap();
        let matches = Matcher::new(&g).find_all(&rule.pattern);
        let applied = apply_rule(&mut g, &rule, &matches[0], &EditCosts::default()).unwrap();
        // relabel + set-attr; del of absent attr is a no-op.
        assert_eq!(applied.ops.len(), 2);
        assert_eq!(g.label_name(g.node_label(n).unwrap()), "Person");
        assert_eq!(g.attr(n, k), Some(&Value::Bool(true)));
    }

    #[test]
    fn touched_set_covers_neighbors_of_deleted_node() {
        let mut g = Graph::new();
        let bad = g.add_node_named("Spam");
        let v1 = g.add_node_named("Person");
        let v2 = g.add_node_named("Person");
        g.add_edge_named(bad, v1, "follows").unwrap();
        g.add_edge_named(v2, bad, "follows").unwrap();

        let mut pb = Pattern::builder();
        let vx = pb.node("x", Some("Spam"));
        let _ = vx;
        let rule = Grr::new(
            "kill-spam",
            Category::Conflict,
            pb.build().unwrap(),
            vec![Action::DeleteNode(Var(0))],
        )
        .unwrap();
        let matches = Matcher::new(&g).find_all(&rule.pattern);
        let applied = apply_rule(&mut g, &rule, &matches[0], &EditCosts::default()).unwrap();
        assert!(applied.touched.contains(&v1));
        assert!(applied.touched.contains(&v2));
        assert!(!g.contains_node(bad));
    }
}
