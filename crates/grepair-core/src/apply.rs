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
use grepair_graph::{AttrKeyId, EditCosts, EdgeId, Graph, GraphError, LabelId, NodeId, Value};
use grepair_match::{Match, TouchSet};
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
    apply_into(g, rule, &mut ActionIds::new(g, rule), m, costs, &mut out)?;
    Ok(out)
}

/// Label and attribute-key vocabulary sizes of a graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Vocabulary(usize, usize);

impl Vocabulary {
    fn of(g: &Graph) -> Self {
        Vocabulary(g.labels().len(), g.attr_keys().len())
    }

    /// The id of label `name`, `slot` as resolved against `self`: `None`
    /// there is looked up again only if `g` has interned names since.
    pub(crate) fn label(self, g: &Graph, slot: Option<LabelId>, name: &str) -> Option<LabelId> {
        match slot {
            None if self != Vocabulary::of(g) => g.try_label(name),
            _ => slot,
        }
    }

    /// [`Vocabulary::label`] for attribute key `name`.
    pub(crate) fn key(self, g: &Graph, slot: Option<AttrKeyId>, name: &str) -> Option<AttrKeyId> {
        match slot {
            None if self != Vocabulary::of(g) => g.try_attr_key(name),
            _ => slot,
        }
    }
}

/// A rule's action names resolved to one graph's ids: what applying
/// ([`apply_into`]) and pricing ([`crate::cost::estimate_with`]) the rule
/// read instead of its names. The engine keeps one per rule for a run;
/// [`apply_rule`] and [`crate::estimate_cost`] resolve one per call.
///
/// Interners are append-only, so a resolved id stays valid within the
/// graph's lineage, and a name absent at resolution (`None`) stays absent
/// until the vocabulary grows: a read then looks it up
/// ([`Vocabulary::label`]), until [`ActionIds::refresh`] resolves the rule
/// again. An application interns an absent name where it first writes it,
/// as the graph's name-keyed calls would.
#[derive(Clone, Debug)]
pub(crate) struct ActionIds {
    /// One entry per action, in rule order.
    pub(crate) actions: Vec<Ids>,
    /// The vocabulary the ids were resolved against.
    pub(crate) vocabulary: Vocabulary,
}

/// One action's names as ids (`None`: not interned).
#[derive(Clone, Debug, Default)]
pub(crate) struct Ids {
    /// The label the action writes: `InsertNode`'s, `InsertEdge`'s,
    /// `UpdateNode`'s `set_label`, `UpdateEdgeLabel`'s.
    pub(crate) label: Option<LabelId>,
    /// Per attribute the action sets: its key, and the key its
    /// [`ValueSource::CopyAttr`] source reads.
    pub(crate) set: Vec<(Option<AttrKeyId>, Option<AttrKeyId>)>,
    /// Per attribute `UpdateNode` removes: its key.
    pub(crate) del: Vec<Option<AttrKeyId>>,
    /// `InsertEdge`'s source and target, when fresh: the ordinal, among
    /// the rule's `InsertNode`s, of the one binding it.
    fresh: [Option<usize>; 2],
}

impl ActionIds {
    /// Resolve `rule`'s action names against `g`'s interners.
    pub(crate) fn new(g: &Graph, rule: &Grr) -> Self {
        let key = |k: &str| g.try_attr_key(k);
        let set = |attrs: &[(String, ValueSource)]| {
            let source = |s: &ValueSource| match s {
                ValueSource::CopyAttr(_, k) => key(k),
                ValueSource::Const(_) => None,
            };
            attrs.iter().map(|(k, s)| (key(k), source(s))).collect()
        };
        let mut binders: Vec<&str> = Vec::new();
        let actions = rule
            .actions
            .iter()
            .map(|action| match action {
                Action::InsertNode {
                    binder,
                    label,
                    attrs,
                } => {
                    binders.push(binder);
                    Ids {
                        label: g.try_label(label),
                        set: set(attrs),
                        ..Ids::default()
                    }
                }
                Action::InsertEdge { src, dst, label } => {
                    let fresh = |t: &Target| match t {
                        Target::Fresh(b) => binders.iter().rposition(|x| x == b),
                        Target::Var(_) => None,
                    };
                    Ids {
                        label: g.try_label(label),
                        fresh: [fresh(src), fresh(dst)],
                        ..Ids::default()
                    }
                }
                Action::UpdateNode {
                    set_label,
                    set_attrs,
                    del_attrs,
                    ..
                } => Ids {
                    label: set_label.as_deref().and_then(|l| g.try_label(l)),
                    set: set(set_attrs),
                    del: del_attrs.iter().map(|k| key(k)).collect(),
                    ..Ids::default()
                },
                Action::UpdateEdgeLabel { label, .. } => Ids {
                    label: g.try_label(label),
                    ..Ids::default()
                },
                Action::DeleteNode(_) | Action::DeleteEdge(_) | Action::MergeNodes { .. } => {
                    Ids::default()
                }
            })
            .collect();
        ActionIds {
            actions,
            vocabulary: Vocabulary::of(g),
        }
    }

    /// Resolve `rule` — the one `self` was built from — again if `g` has
    /// interned a label or attribute key since.
    pub(crate) fn refresh(&mut self, g: &Graph, rule: &Grr) {
        if self.vocabulary != Vocabulary::of(g) {
            *self = ActionIds::new(g, rule);
        }
    }
}

/// [`apply_rule`]'s body: apply `rule` at `m` into `out`, which it clears
/// first, reading the rule's names through `ids` (resolved for `g`) and
/// filling in the id of each name it interns.
pub(crate) fn apply_into(
    g: &mut Graph,
    rule: &Grr,
    ids: &mut ActionIds,
    m: &Match,
    costs: &EditCosts,
    out: &mut Applied,
) -> Result<(), GraphError> {
    out.ops.clear();
    out.touched.clear();
    out.cost = 0.0;
    let vocabulary = ids.vocabulary;
    let value_of = |g: &Graph, src: &ValueSource, key: Option<AttrKeyId>| match src {
        ValueSource::Const(v) => Some(v.clone()),
        ValueSource::CopyAttr(v, k) => vocabulary
            .key(g, key, k)
            .and_then(|kk| g.attr(m.nodes[v.index()], kk))
            .cloned(),
    };

    for (action, ids) in rule.actions.iter().zip(&mut ids.actions) {
        match action {
            Action::InsertNode { label, attrs, .. } => {
                let l = *ids.label.get_or_insert_with(|| g.label(label));
                let node = g.add_node(l);
                let mut set = Vec::new();
                for ((key, src), (kk, src_kk)) in attrs.iter().zip(&mut ids.set) {
                    if let Some(value) = value_of(g, src, *src_kk) {
                        let kk = *kk.get_or_insert_with(|| g.attr_key(key));
                        g.set_attr(node, kk, value.clone())?;
                        set.push((key.clone(), value));
                    }
                }
                out.touched.insert(node);
                record(out, costs, AppliedOp::InsertNode {
                    node,
                    label: label.clone(),
                    attrs: set,
                });
            }
            Action::InsertEdge { src, dst, label } => {
                // A fresh endpoint is the node its `InsertNode` recorded.
                let node_of = |t: &Target, fresh: Option<usize>| match t {
                    Target::Var(v) => m.nodes.get(v.index()).copied(),
                    Target::Fresh(_) => {
                        let mut created = out.ops.iter().filter_map(|op| match op {
                            AppliedOp::InsertNode { node, .. } => Some(*node),
                            _ => None,
                        });
                        fresh.and_then(|n| created.nth(n))
                    }
                };
                let [src_fresh, dst_fresh] = ids.fresh;
                let (Some(s), Some(d)) = (node_of(src, src_fresh), node_of(dst, dst_fresh)) else {
                    continue;
                };
                if !g.contains_node(s) || !g.contains_node(d) {
                    continue; // deleted by an earlier racing repair
                }
                let l = *ids.label.get_or_insert_with(|| g.label(label));
                if g.has_edge_labeled(s, d, l) {
                    continue; // idempotent
                }
                let edge = g.add_edge(s, d, l)?;
                out.touched.insert(s);
                out.touched.insert(d);
                record(out, costs, AppliedOp::InsertEdge {
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
                for e in g.incident_edges(node) {
                    if let Ok(er) = g.edge(e) {
                        let n = if er.src == node { er.dst } else { er.src };
                        if n != node {
                            out.touched.insert(n);
                        }
                    }
                }
                let removed = g.remove_node(node)?;
                record(out, costs, AppliedOp::DeleteNode {
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
                record(out, costs, AppliedOp::DeleteEdge {
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
                    let from = g.node_label(n)?;
                    if vocabulary.label(g, ids.label, new_label) != Some(from) {
                        let from = g.label_name(from).to_owned();
                        let l = *ids.label.get_or_insert_with(|| g.label(new_label));
                        g.set_node_label(n, l)?;
                        out.touched.insert(n);
                        record(out, costs, AppliedOp::RelabelNode {
                            node: n,
                            from,
                            to: new_label.clone(),
                        });
                    }
                }
                for ((key, src), (kk, src_kk)) in set_attrs.iter().zip(&mut ids.set) {
                    let Some(value) = value_of(g, src, *src_kk) else { continue };
                    let kk = *kk.get_or_insert_with(|| g.attr_key(key));
                    if g.attr(n, kk) == Some(&value) {
                        continue; // idempotent
                    }
                    let old = g.set_attr(n, kk, value.clone())?;
                    out.touched.insert(n);
                    record(out, costs, AppliedOp::SetAttr {
                        node: n,
                        key: key.clone(),
                        value,
                        old,
                    });
                }
                for (key, kk) in del_attrs.iter().zip(&ids.del) {
                    let Some(kk) = vocabulary.key(g, *kk, key) else { continue };
                    if let Some(old) = g.remove_attr(n, kk)? {
                        out.touched.insert(n);
                        record(out, costs, AppliedOp::RemoveAttr {
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
                if vocabulary.label(g, ids.label, label) == Some(er.label) {
                    continue;
                }
                let from = g.label_name(er.label).to_owned();
                let l = *ids.label.get_or_insert_with(|| g.label(label));
                g.set_edge_label(edge, l)?;
                out.touched.insert(er.src);
                out.touched.insert(er.dst);
                record(out, costs, AppliedOp::RelabelEdge {
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
                record(out, costs, AppliedOp::Merge {
                    keep: k,
                    merged: d,
                    rewired: outcome.rewired.len(),
                    dropped: outcome.dropped.len(),
                });
            }
        }
    }
    Ok(())
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
    fn a_key_an_earlier_action_interned_reads_as_present() {
        // `k` has no id when the rule's names are resolved; the first
        // action interns it, and the second must copy its new value.
        let rules = crate::dsl::parse_rules(
            "rule copy [incompleteness] match (x:P) where missing(x.k)
             repair set x.k = 1; set x.j = x.k",
        )
        .unwrap();
        let mut g = Graph::new();
        let x = g.add_node_named("P");
        let m = Matcher::new(&g).find_all(&rules[0].pattern).remove(0);
        let applied = apply_rule(&mut g, &rules[0], &m, &EditCosts::default()).unwrap();
        assert_eq!(applied.ops.len(), 2);
        let j = g.try_attr_key("j").unwrap();
        assert_eq!(g.attr(x, j), Some(&Value::Int(1)));
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
