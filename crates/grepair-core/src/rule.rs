//! Graph Repairing Rules (GRRs).
//!
//! A [`Grr`] couples a *pattern* (what an inconsistency looks like — see
//! [`grepair_match::Pattern`]) with *repair semantics*: an ordered list of
//! [`Action`]s over the matched variables. This is the paper's central
//! object — unlike detection-only constraints (GFDs, keys), a GRR says how
//! to fix what it finds.
//!
//! The action vocabulary is exactly the paper's **seven repair
//! operations**:
//!
//! | # | Action | typical inconsistency class |
//! |---|--------|------------------------------|
//! | 1 | [`Action::InsertNode`]      | incompleteness |
//! | 2 | [`Action::InsertEdge`]      | incompleteness |
//! | 3 | [`Action::DeleteNode`]      | conflict |
//! | 4 | [`Action::DeleteEdge`]      | conflict / redundancy |
//! | 5 | [`Action::UpdateNode`]      | conflict (labels & attributes) |
//! | 6 | [`Action::UpdateEdgeLabel`] | conflict |
//! | 7 | [`Action::MergeNodes`]      | redundancy |

use grepair_match::{Pattern, Var};
use grepair_graph::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's three inconsistency classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Missing nodes, edges, or attribute values.
    Incompleteness,
    /// Contradictory labels, edges, or attribute values.
    Conflict,
    /// Duplicate entities or duplicated edges.
    Redundancy,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::Incompleteness => write!(f, "incompleteness"),
            Category::Conflict => write!(f, "conflict"),
            Category::Redundancy => write!(f, "redundancy"),
        }
    }
}

/// Where an action's attribute value comes from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ValueSource {
    /// A constant value.
    Const(Value),
    /// Copied from a matched variable's attribute at repair time. If the
    /// source attribute is absent, the assignment is skipped.
    CopyAttr(Var, String),
}

/// Endpoint of an inserted edge: a matched variable or a node freshly
/// created by a preceding [`Action::InsertNode`] in the same rule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Target {
    /// A pattern variable.
    Var(Var),
    /// A fresh node, referenced by the binder name given at insertion.
    Fresh(String),
}

/// Reference to a matched edge: the index of a *positive* pattern edge —
/// the repair acts on that edge's witness in the match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PatternEdgeRef(pub usize);

/// One repair operation, parameterised over the match.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// (1) Create a fresh node; `binder` names it for later
    /// [`Action::InsertEdge`] targets.
    InsertNode {
        /// Name under which subsequent actions can reference the node.
        binder: String,
        /// Label of the new node.
        label: String,
        /// Initial attributes.
        attrs: Vec<(String, ValueSource)>,
    },
    /// (2) Insert an edge (skipped if an identical edge already exists —
    /// repairs are idempotent).
    InsertEdge {
        /// Source endpoint.
        src: Target,
        /// Target endpoint.
        dst: Target,
        /// Relation label.
        label: String,
    },
    /// (3) Delete a matched node (and its incident edges).
    DeleteNode(Var),
    /// (4) Delete a matched edge.
    DeleteEdge(PatternEdgeRef),
    /// (5) Update a matched node: relabel and/or set/remove attributes.
    UpdateNode {
        /// The node to update.
        node: Var,
        /// New label, if relabelling.
        set_label: Option<String>,
        /// Attributes to set.
        set_attrs: Vec<(String, ValueSource)>,
        /// Attribute keys to remove.
        del_attrs: Vec<String>,
    },
    /// (6) Relabel a matched edge.
    UpdateEdgeLabel {
        /// The edge to relabel.
        edge: PatternEdgeRef,
        /// The new relation label.
        label: String,
    },
    /// (7) Merge `merged` into `keep`: redirect edges, union attributes
    /// (`keep` wins conflicts), delete `merged`.
    MergeNodes {
        /// Surviving node.
        keep: Var,
        /// Node absorbed and deleted.
        merged: Var,
    },
}

impl Action {
    /// Pattern variables read or written by this action.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            Action::InsertNode { attrs, .. } => attrs
                .iter()
                .filter_map(|(_, s)| match s {
                    ValueSource::CopyAttr(v, _) => Some(*v),
                    ValueSource::Const(_) => None,
                })
                .collect(),
            Action::InsertEdge { src, dst, .. } => [src, dst]
                .into_iter()
                .filter_map(|t| match t {
                    Target::Var(v) => Some(*v),
                    Target::Fresh(_) => None,
                })
                .collect(),
            Action::DeleteNode(v) => vec![*v],
            Action::DeleteEdge(_) => vec![],
            Action::UpdateNode {
                node, set_attrs, ..
            } => {
                let mut vs = vec![*node];
                for (_, s) in set_attrs {
                    if let ValueSource::CopyAttr(v, _) = s {
                        vs.push(*v);
                    }
                }
                vs
            }
            Action::UpdateEdgeLabel { .. } => vec![],
            Action::MergeNodes { keep, merged } => vec![*keep, *merged],
        }
    }

    /// Short operation name (for reports and the T2 analysis table).
    pub fn op_name(&self) -> &'static str {
        match self {
            Action::InsertNode { .. } => "insert-node",
            Action::InsertEdge { .. } => "insert-edge",
            Action::DeleteNode(_) => "delete-node",
            Action::DeleteEdge(_) => "delete-edge",
            Action::UpdateNode { .. } => "update-node",
            Action::UpdateEdgeLabel { .. } => "update-edge-label",
            Action::MergeNodes { .. } => "merge-nodes",
        }
    }
}

/// A Graph Repairing Rule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Grr {
    /// Unique rule name.
    pub name: String,
    /// Inconsistency class this rule addresses.
    pub category: Category,
    /// The matching half: pattern + condition.
    pub pattern: Pattern,
    /// The repairing half: ordered operations.
    pub actions: Vec<Action>,
    /// Higher priority wins cost ties during repair arbitration.
    pub priority: i32,
}

/// Rule validation error.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleError {
    /// The pattern itself is malformed.
    Pattern(String),
    /// An action is malformed (unknown var, edge index, binder, …).
    Action {
        /// Index of the offending action.
        index: usize,
        /// Explanation.
        reason: String,
    },
    /// The rule has no actions — it detects but cannot repair.
    NoActions,
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::Pattern(msg) => write!(f, "invalid pattern: {msg}"),
            RuleError::Action { index, reason } => {
                write!(f, "invalid action #{index}: {reason}")
            }
            RuleError::NoActions => write!(f, "rule has no repair actions"),
        }
    }
}

impl std::error::Error for RuleError {}

impl Grr {
    /// Construct and validate a rule.
    pub fn new(
        name: impl Into<String>,
        category: Category,
        pattern: Pattern,
        actions: Vec<Action>,
    ) -> Result<Self, RuleError> {
        let rule = Grr {
            name: name.into(),
            category,
            pattern,
            actions,
            priority: 0,
        };
        rule.validate()?;
        Ok(rule)
    }

    /// Set the arbitration priority (builder style).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// The pattern variables the repair reads, as a mask (bit `i` is
    /// `Var(i)`): every variable an action names ([`Action::vars`]) and
    /// both endpoints of every pattern edge a [`Action::DeleteEdge`] or
    /// [`Action::UpdateEdgeLabel`] references, whose witness is the
    /// lowest-id edge between them. [`crate::apply_rule`] and
    /// [`crate::estimate_cost`] read nothing else of a match, so all
    /// matches that agree on the footprint get the same repair at the same
    /// cost; the other variables are existential.
    pub fn footprint(&self) -> u64 {
        let bit = |v: Var| 1u64 << v.index();
        let mut mask = 0;
        for action in &self.actions {
            mask |= action.vars().into_iter().map(bit).fold(0, |a, b| a | b);
            if let Action::DeleteEdge(PatternEdgeRef(e))
            | Action::UpdateEdgeLabel {
                edge: PatternEdgeRef(e),
                ..
            } = action
            {
                let edge = &self.pattern.edges[*e];
                mask |= bit(edge.src) | bit(edge.dst);
            }
        }
        mask
    }

    /// Validate structure: pattern well-formed, every action references
    /// existing variables / pattern edges / previously bound fresh binders,
    /// and no variable is used after being deleted or merged away.
    pub fn validate(&self) -> Result<(), RuleError> {
        self.pattern.validate().map_err(RuleError::Pattern)?;
        if self.actions.is_empty() {
            return Err(RuleError::NoActions);
        }
        let nvars = self.pattern.num_vars();
        let nedges = self.pattern.edges.len();
        let mut binders: Vec<String> = Vec::new();
        let mut dead: Vec<Var> = Vec::new();

        let check_var = |v: Var, i: usize, dead: &[Var]| -> Result<(), RuleError> {
            if v.index() >= nvars {
                return Err(RuleError::Action {
                    index: i,
                    reason: format!("unknown variable {v:?}"),
                });
            }
            if dead.contains(&v) {
                return Err(RuleError::Action {
                    index: i,
                    reason: format!("variable {v:?} used after delete/merge"),
                });
            }
            Ok(())
        };

        for (i, a) in self.actions.iter().enumerate() {
            match a {
                Action::InsertNode { binder, attrs, .. } => {
                    if binders.iter().any(|b| b == binder)
                        || self.pattern.var(binder).is_some()
                    {
                        return Err(RuleError::Action {
                            index: i,
                            reason: format!("binder {binder:?} shadows an existing name"),
                        });
                    }
                    for (_, s) in attrs {
                        if let ValueSource::CopyAttr(v, _) = s {
                            check_var(*v, i, &dead)?;
                        }
                    }
                    binders.push(binder.clone());
                }
                Action::InsertEdge { src, dst, .. } => {
                    for t in [src, dst] {
                        match t {
                            Target::Var(v) => check_var(*v, i, &dead)?,
                            Target::Fresh(b) => {
                                if !binders.iter().any(|x| x == b) {
                                    return Err(RuleError::Action {
                                        index: i,
                                        reason: format!("unknown fresh binder {b:?}"),
                                    });
                                }
                            }
                        }
                    }
                }
                Action::DeleteNode(v) => {
                    check_var(*v, i, &dead)?;
                    dead.push(*v);
                }
                Action::DeleteEdge(PatternEdgeRef(e)) => {
                    if *e >= nedges {
                        return Err(RuleError::Action {
                            index: i,
                            reason: format!("pattern edge index {e} out of range"),
                        });
                    }
                }
                Action::UpdateNode {
                    node, set_attrs, ..
                } => {
                    check_var(*node, i, &dead)?;
                    for (_, s) in set_attrs {
                        if let ValueSource::CopyAttr(v, _) = s {
                            check_var(*v, i, &dead)?;
                        }
                    }
                }
                Action::UpdateEdgeLabel {
                    edge: PatternEdgeRef(e),
                    ..
                } => {
                    if *e >= nedges {
                        return Err(RuleError::Action {
                            index: i,
                            reason: format!("pattern edge index {e} out of range"),
                        });
                    }
                }
                Action::MergeNodes { keep, merged } => {
                    check_var(*keep, i, &dead)?;
                    check_var(*merged, i, &dead)?;
                    if keep == merged {
                        return Err(RuleError::Action {
                            index: i,
                            reason: "cannot merge a variable with itself".into(),
                        });
                    }
                    dead.push(*merged);
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Grr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule {} [{}]: match {} repair ",
            self.name, self.category, self.pattern
        )?;
        for (i, a) in self.actions.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}", a.op_name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_match::Pattern;

    fn two_var_pattern() -> Pattern {
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let c = b.node("c", Some("City"));
        b.edge(x, c, "livesIn");
        b.build().unwrap()
    }

    #[test]
    fn footprint_is_what_the_repair_reads() {
        let rules = crate::dsl::parse_rules(
            "rule citizenship [incompleteness]
             match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
             where not (x)-[citizenOf]->(k)
             repair insert edge (x)-[citizenOf]->(k)

             rule fill_country [incompleteness]
             match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
             where missing(x.country)
             repair set x.country = k.name

             rule bigamy [conflict]
             match (x:Person)-[marriedTo]->(y:Person)-[marriedTo]->(x), (x)-[marriedTo]->(z:Person)
             where not (z)-[marriedTo]->(x)
             repair delete edge (x)-[marriedTo]->(z)

             rule mistyped [conflict]
             match (x:Person)-[livesIn]->(k:Country)
             repair relabel edge (x)-[livesIn]->(k) to citizenOf

             rule grow [incompleteness]
             match (x:P)
             repair insert node (y:Q)

             rule dedup [redundancy]
             match (x:Person), (y:Person)
             where x.ssn == y.ssn
             repair merge y into x",
        )
        .unwrap();
        let footprints: Vec<u64> = rules.iter().map(Grr::footprint).collect();
        // `c` and `y` (bit 1) are existential in the first three.
        assert_eq!(footprints, [0b101, 0b101, 0b101, 0b11, 0, 0b11]);
    }

    #[test]
    fn valid_rule_builds() {
        let p = two_var_pattern();
        let r = Grr::new(
            "del-live",
            Category::Conflict,
            p,
            vec![Action::DeleteEdge(PatternEdgeRef(0))],
        )
        .unwrap();
        assert_eq!(r.priority, 0);
        assert!(r.to_string().contains("delete-edge"));
    }

    #[test]
    fn no_actions_rejected() {
        let p = two_var_pattern();
        assert_eq!(
            Grr::new("noop", Category::Conflict, p, vec![]).unwrap_err(),
            RuleError::NoActions
        );
    }

    #[test]
    fn unknown_var_rejected() {
        let p = two_var_pattern();
        let err = Grr::new(
            "bad",
            Category::Conflict,
            p,
            vec![Action::DeleteNode(Var(9))],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::Action { index: 0, .. }));
    }

    #[test]
    fn use_after_delete_rejected() {
        let p = two_var_pattern();
        let err = Grr::new(
            "uad",
            Category::Conflict,
            p,
            vec![
                Action::DeleteNode(Var(0)),
                Action::UpdateNode {
                    node: Var(0),
                    set_label: Some("Robot".into()),
                    set_attrs: vec![],
                    del_attrs: vec![],
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::Action { index: 1, .. }));
    }

    #[test]
    fn use_after_merge_rejected() {
        let mut b = Pattern::builder();
        let x = b.node("x", Some("P"));
        let y = b.node("y", Some("P"));
        let _ = (x, y);
        let p = b.build().unwrap();
        let err = Grr::new(
            "uam",
            Category::Redundancy,
            p,
            vec![
                Action::MergeNodes {
                    keep: Var(0),
                    merged: Var(1),
                },
                Action::DeleteNode(Var(1)),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::Action { index: 1, .. }));
    }

    #[test]
    fn fresh_binder_scoping() {
        let p = two_var_pattern();
        // Edge to unbound binder: error.
        let err = Grr::new(
            "bad-binder",
            Category::Incompleteness,
            p.clone(),
            vec![Action::InsertEdge {
                src: Target::Var(Var(0)),
                dst: Target::Fresh("k".into()),
                label: "citizenOf".into(),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::Action { index: 0, .. }));

        // Bound first: ok.
        Grr::new(
            "good-binder",
            Category::Incompleteness,
            p.clone(),
            vec![
                Action::InsertNode {
                    binder: "k".into(),
                    label: "Country".into(),
                    attrs: vec![],
                },
                Action::InsertEdge {
                    src: Target::Var(Var(0)),
                    dst: Target::Fresh("k".into()),
                    label: "citizenOf".into(),
                },
            ],
        )
        .unwrap();

        // Binder shadowing a pattern var name: error.
        let err = Grr::new(
            "shadow",
            Category::Incompleteness,
            p,
            vec![Action::InsertNode {
                binder: "x".into(),
                label: "Country".into(),
                attrs: vec![],
            }],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::Action { index: 0, .. }));
    }

    #[test]
    fn edge_index_bounds_checked() {
        let p = two_var_pattern();
        let err = Grr::new(
            "bad-edge",
            Category::Conflict,
            p,
            vec![Action::DeleteEdge(PatternEdgeRef(5))],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::Action { index: 0, .. }));
    }

    #[test]
    fn self_merge_rejected() {
        let p = two_var_pattern();
        let err = Grr::new(
            "self-merge",
            Category::Redundancy,
            p,
            vec![Action::MergeNodes {
                keep: Var(0),
                merged: Var(0),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, RuleError::Action { index: 0, .. }));
    }

    #[test]
    fn action_vars_reported() {
        let a = Action::UpdateNode {
            node: Var(0),
            set_label: None,
            set_attrs: vec![("x".into(), ValueSource::CopyAttr(Var(1), "y".into()))],
            del_attrs: vec![],
        };
        assert_eq!(a.vars(), vec![Var(0), Var(1)]);
        assert_eq!(a.op_name(), "update-node");
    }

    #[test]
    fn serde_round_trip() {
        let p = two_var_pattern();
        let r = Grr::new(
            "rt",
            Category::Conflict,
            p,
            vec![Action::DeleteEdge(PatternEdgeRef(0))],
        )
        .unwrap();
        let json = serde_json::to_string(&r).unwrap();
        let back: Grr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
