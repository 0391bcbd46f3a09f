//! Static analyses over GRR sets.
//!
//! The paper studies fundamental rule-set problems, all intractable in
//! general (reductions from subgraph isomorphism / rule reachability);
//! this module implements the practical counterparts used for the T2
//! experiment table:
//!
//! - **Effectiveness** ([`check_effectiveness`]): does applying a rule
//!   actually eliminate the violation it matched? Checked *semantically* by
//!   materialising a canonical instance of the rule's own pattern, applying
//!   the rule, and re-matching. Exact when a canonical instance exists;
//!   `Unknown` when the constraint set cannot be solved constructively.
//! - **Termination** ([`trigger_graph`], [`is_terminating`]): build the
//!   label-level trigger over-approximation "r₁ can enable r₂"; an acyclic
//!   trigger graph proves termination of any repair run. Cycles are
//!   returned as SCC witnesses; cyclic sets are still *run* safely thanks
//!   to the engine's churn guards.
//! - **Consistency** ([`find_conflicts`]): can two rules prescribe
//!   contradictory repairs on unifiable elements (set-set with different
//!   values, delete-vs-use, insert-vs-delete, relabel clashes)?
//! - **Implication** ([`find_implications`]): is a rule subsumed by another
//!   (pattern embeds, condition implied, identical actions under the
//!   embedding)? Reported implications are sound; the search is not
//!   complete — a conservative analysis.

use crate::apply::apply_rule;
use crate::rule::{Action, Grr, PatternEdgeRef, Target, ValueSource};
use grepair_graph::{EditCosts, Graph, Value};
use grepair_match::{CompiledPattern, Constraint, Match, Matcher, Pattern, Rhs, Var};
use serde::{Deserialize, Serialize};
use std::fmt;

// ---------------------------------------------------------------------------
// Effectiveness
// ---------------------------------------------------------------------------

/// Verdict of the semantic effectiveness check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Effectiveness {
    /// Applying the rule to its canonical violation eliminates every match.
    Effective,
    /// The pattern still matches after repair — the rule does not fix what
    /// it finds (or re-creates it).
    Ineffective,
    /// No canonical instance could be constructed (unsolvable or
    /// non-constructive constraints); the check is inconclusive.
    Unknown,
}

/// Build a minimal graph that matches `pattern` exactly at the identity
/// assignment (variable *i* ↦ node *i*), or `None` if the constraint set
/// resists constructive solving.
pub fn canonical_instance(pattern: &Pattern) -> Option<(Graph, Match)> {
    let mut g = Graph::new();
    let mut nodes = Vec::with_capacity(pattern.num_vars());
    for (i, pn) in pattern.nodes.iter().enumerate() {
        let label = match &pn.label {
            Some(l) => l.clone(),
            None => format!("⟂Any{i}"),
        };
        nodes.push(g.add_node_named(&label));
    }
    let mut witnesses = Vec::with_capacity(pattern.edges.len());
    for (i, pe) in pattern.edges.iter().enumerate() {
        let label = match &pe.label {
            Some(l) => l.clone(),
            None => format!("⟂rel{i}"),
        };
        let e = g
            .add_edge_named(nodes[pe.src.index()], nodes[pe.dst.index()], &label)
            .ok()?;
        witnesses.push(e);
    }

    // Constructive constraint solving, one pass in declaration order.
    for c in &pattern.constraints {
        match c {
            Constraint::HasAttr(v, k) => {
                let kk = g.attr_key(k);
                if g.attr(nodes[v.index()], kk).is_none() {
                    g.set_attr(nodes[v.index()], kk, Value::Int(0)).ok()?;
                }
            }
            Constraint::MissingAttr(v, k) => {
                if let Some(kk) = g.try_attr_key(k) {
                    if g.attr(nodes[v.index()], kk).is_some() {
                        return None; // contradictory with an earlier constraint
                    }
                }
            }
            Constraint::Cmp { var, key, op, rhs } => {
                let kk = g.attr_key(key);
                let n = nodes[var.index()];
                match rhs {
                    Rhs::Const(val) => {
                        let want = solve_unary(*op, val)?;
                        match g.attr(n, kk) {
                            Some(existing) => {
                                if !op.eval(existing, val) {
                                    return None;
                                }
                            }
                            None => {
                                g.set_attr(n, kk, want).ok()?;
                            }
                        }
                    }
                    Rhs::Attr(o, k2) => {
                        let kk2 = g.attr_key(k2);
                        let m = nodes[o.index()];
                        let lhs = g.attr(n, kk).cloned();
                        let rhs_v = g.attr(m, kk2).cloned();
                        match (lhs, rhs_v) {
                            (Some(a), Some(b)) => {
                                if !op.eval(&a, &b) {
                                    return None;
                                }
                            }
                            (Some(a), None) => {
                                let b = solve_binary_rhs(*op, &a)?;
                                g.set_attr(m, kk2, b).ok()?;
                            }
                            (None, Some(b)) => {
                                let a = solve_unary(*op, &b)?;
                                g.set_attr(n, kk, a).ok()?;
                            }
                            (None, None) => {
                                let (a, b) = solve_binary_fresh(*op);
                                g.set_attr(n, kk, a).ok()?;
                                g.set_attr(m, kk2, b).ok()?;
                            }
                        }
                    }
                }
            }
            Constraint::NoOutEdge(v, l) => {
                let n = nodes[v.index()];
                let violates = g.out_edges(n).any(|e| match l {
                    None => true,
                    Some(name) => {
                        let er = g.edge(e).unwrap();
                        g.label_name(er.label) == name
                    }
                });
                if violates {
                    return None; // positive part contradicts the condition
                }
            }
            Constraint::NoInEdge(v, l) => {
                let n = nodes[v.index()];
                let violates = g.in_edges(n).any(|e| match l {
                    None => true,
                    Some(name) => {
                        let er = g.edge(e).unwrap();
                        g.label_name(er.label) == name
                    }
                });
                if violates {
                    return None;
                }
            }
        }
    }

    let m = Match {
        nodes,
        edges: witnesses,
    };
    // Verify: the identity assignment must really match (catches unsolved
    // interactions, e.g. negative edges colliding with positive ones).
    let mut check = m.clone();
    if !CompiledPattern::new(&g, pattern).holds(&g, &mut check) {
        return None;
    }
    Some((g, m))
}

/// Value satisfying `x OP rhs` for a fresh left side.
fn solve_unary(op: CmpOpAlias, rhs: &Value) -> Option<Value> {
    use grepair_match::CmpOp::*;
    Some(match op {
        Eq => rhs.clone(),
        Ne => match rhs {
            Value::Int(i) => Value::Int(i.wrapping_add(1)),
            Value::Bool(b) => Value::Bool(!b),
            Value::Float(f) => Value::Float(f + 1.0),
            Value::Str(s) => Value::Str(format!("{s}≠")),
        },
        Lt | Le => match rhs {
            Value::Int(i) => Value::Int(i.checked_sub(1)?),
            Value::Float(f) => Value::Float(f - 1.0),
            Value::Str(_) => Value::Str(String::new()),
            Value::Bool(_) => return None,
        },
        Gt | Ge => match rhs {
            Value::Int(i) => Value::Int(i.checked_add(1)?),
            Value::Float(f) => Value::Float(f + 1.0),
            Value::Str(s) => Value::Str(format!("{s}~")),
            Value::Bool(_) => return None,
        },
    })
}

type CmpOpAlias = grepair_match::CmpOp;

/// Value for the right side satisfying `lhs OP x`, `lhs` known.
fn solve_binary_rhs(op: CmpOpAlias, lhs: &Value) -> Option<Value> {
    use grepair_match::CmpOp::*;
    // lhs OP x  ⇔  x OP⁻¹ lhs for the flipped operator.
    let flipped = match op {
        Eq => Eq,
        Ne => Ne,
        Lt => Gt,
        Le => Ge,
        Gt => Lt,
        Ge => Le,
    };
    solve_unary(flipped, lhs)
}

/// Fresh pair satisfying `a OP b`.
fn solve_binary_fresh(op: CmpOpAlias) -> (Value, Value) {
    use grepair_match::CmpOp::*;
    match op {
        Eq => (Value::Int(7), Value::Int(7)),
        Ne => (Value::Int(1), Value::Int(2)),
        Lt | Le => (Value::Int(1), Value::Int(2)),
        Gt | Ge => (Value::Int(2), Value::Int(1)),
    }
}

/// Semantically check that a rule repairs its own canonical violation.
pub fn check_effectiveness(rule: &Grr) -> Effectiveness {
    let Some((mut g, m)) = canonical_instance(&rule.pattern) else {
        return Effectiveness::Unknown;
    };
    if apply_rule(&mut g, rule, &m, &EditCosts::default()).is_err() {
        return Effectiveness::Unknown;
    }
    if Matcher::new(&g).exists(&rule.pattern) {
        Effectiveness::Ineffective
    } else {
        Effectiveness::Effective
    }
}

// ---------------------------------------------------------------------------
// Trigger graph & termination
// ---------------------------------------------------------------------------

/// Why one rule may enable another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TriggerReason {
    /// An inserted/relabelled edge can satisfy a positive pattern edge.
    AddsEdge,
    /// An inserted node / relabelled node can satisfy a pattern node.
    AddsNode,
    /// A deleted edge (or node, or merge-dedup) can satisfy a negative
    /// edge or no-edge condition.
    RemovesEdge,
    /// A set attribute can satisfy `has`/comparison constraints.
    SetsAttr,
    /// A removed attribute can satisfy a `missing` constraint.
    RemovesAttr,
}

/// Label-level over-approximation of "applying `from` can create a new
/// match of `to`".
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TriggerGraph {
    /// Number of rules.
    pub n: usize,
    /// Directed trigger edges.
    pub edges: Vec<(usize, usize, TriggerReason)>,
}

/// `None` = any/unknown label (⊤); `Some(l)` a concrete label.
pub(crate) type L = Option<String>;

pub(crate) fn l_overlap(a: &L, b: &L) -> bool {
    match (a, b) {
        (None, _) | (_, None) => true,
        (Some(x), Some(y)) => x == y,
    }
}

#[derive(Default, Debug)]
struct Effects {
    adds_edge: Vec<L>,
    adds_node: Vec<L>,
    removes_edge: Vec<L>,
    sets_attr: Vec<L>,
    removes_attr: Vec<L>,
}

fn effects_of(rule: &Grr) -> Effects {
    let mut fx = Effects::default();
    let labels = |at, i| edge_labels_at(rule, at, i).map(|l: Option<&str>| l.map(str::to_owned));
    for (at, a) in rule.actions.iter().enumerate() {
        match a {
            Action::InsertNode { label, attrs, .. } => {
                fx.adds_node.push(Some(label.clone()));
                for (k, _) in attrs {
                    fx.sets_attr.push(Some(k.clone()));
                }
            }
            Action::InsertEdge { label, .. } => fx.adds_edge.push(Some(label.clone())),
            Action::DeleteNode(_) => {
                // Deleting a node removes incident edges of unknown labels.
                fx.removes_edge.push(None);
            }
            Action::DeleteEdge(PatternEdgeRef(i)) => fx.removes_edge.extend(labels(at, *i)),
            Action::UpdateNode {
                set_label,
                set_attrs,
                del_attrs,
                ..
            } => {
                if let Some(l) = set_label {
                    fx.adds_node.push(Some(l.clone()));
                }
                for (k, _) in set_attrs {
                    fx.sets_attr.push(Some(k.clone()));
                }
                for k in del_attrs {
                    fx.removes_attr.push(Some(k.clone()));
                }
            }
            Action::UpdateEdgeLabel {
                edge: PatternEdgeRef(i),
                label,
            } => {
                fx.adds_edge.push(Some(label.clone()));
                fx.removes_edge.extend(labels(at, *i));
            }
            Action::MergeNodes { .. } => {
                // Rewired edges carry unknown labels; dedup removes
                // parallels; copied attrs set unknown keys.
                fx.adds_edge.push(None);
                fx.removes_edge.push(None);
                fx.sets_attr.push(None);
            }
        }
    }
    fx
}

/// The labels the witness of pattern edge `i` can carry when `rule`'s
/// action `at` runs: the pattern's (`None`: any label), then the label of
/// each earlier action that relabels that edge.
pub(crate) fn edge_labels_at(rule: &Grr, at: usize, i: usize) -> impl Iterator<Item = Option<&str>> {
    let matched = rule.pattern.edges.get(i).and_then(|e| e.label.as_deref());
    let relabelled = rule.actions[..at].iter().filter_map(move |a| match a {
        Action::UpdateEdgeLabel {
            edge: PatternEdgeRef(j),
            label,
        } if *j == i => Some(Some(label.as_str())),
        _ => None,
    });
    std::iter::once(matched).chain(relabelled)
}

/// Label-level preconditions of a rule (what kinds of graph changes can
/// enable a new match). Shared with the engine's trigger filter.
#[derive(Default, Debug)]
pub(crate) struct Preconditions {
    pub(crate) pos_edge: Vec<L>,
    pub(crate) node_label: Vec<L>,
    pub(crate) neg_edge: Vec<L>,
    pub(crate) missing_attr: Vec<L>,
    pub(crate) needs_attr: Vec<L>,
}

pub(crate) fn preconditions_of(rule: &Grr) -> Preconditions {
    let mut pre = Preconditions::default();
    for e in &rule.pattern.edges {
        pre.pos_edge.push(e.label.clone());
    }
    for n in &rule.pattern.nodes {
        pre.node_label.push(n.label.clone());
    }
    for e in &rule.pattern.neg_edges {
        pre.neg_edge.push(e.label.clone());
    }
    for c in &rule.pattern.constraints {
        match c {
            Constraint::MissingAttr(_, k) => pre.missing_attr.push(Some(k.clone())),
            Constraint::HasAttr(_, k) => pre.needs_attr.push(Some(k.clone())),
            Constraint::Cmp { key, rhs, .. } => {
                pre.needs_attr.push(Some(key.clone()));
                if let Rhs::Attr(_, k2) = rhs {
                    pre.needs_attr.push(Some(k2.clone()));
                }
            }
            Constraint::NoOutEdge(_, l) | Constraint::NoInEdge(_, l) => {
                pre.neg_edge.push(l.clone())
            }
        }
    }
    pre
}

/// Build the trigger graph for a rule set.
pub fn trigger_graph(rules: &[Grr]) -> TriggerGraph {
    let effects: Vec<Effects> = rules.iter().map(effects_of).collect();
    let pres: Vec<Preconditions> = rules.iter().map(preconditions_of).collect();
    let mut tg = TriggerGraph {
        n: rules.len(),
        edges: Vec::new(),
    };
    for (i, fx) in effects.iter().enumerate() {
        for (j, pre) in pres.iter().enumerate() {
            let mut push = |reason| tg.edges.push((i, j, reason));
            if fx
                .adds_edge
                .iter()
                .any(|a| pre.pos_edge.iter().any(|p| l_overlap(a, p)))
            {
                push(TriggerReason::AddsEdge);
            }
            if fx
                .adds_node
                .iter()
                .any(|a| pre.node_label.iter().any(|p| l_overlap(a, p)))
            {
                push(TriggerReason::AddsNode);
            }
            if fx
                .removes_edge
                .iter()
                .any(|a| pre.neg_edge.iter().any(|p| l_overlap(a, p)))
            {
                push(TriggerReason::RemovesEdge);
            }
            if fx
                .sets_attr
                .iter()
                .any(|a| pre.needs_attr.iter().any(|p| l_overlap(a, p)))
            {
                push(TriggerReason::SetsAttr);
            }
            if fx
                .removes_attr
                .iter()
                .any(|a| pre.missing_attr.iter().any(|p| l_overlap(a, p)))
            {
                push(TriggerReason::RemovesAttr);
            }
        }
    }
    tg
}

impl TriggerGraph {
    /// Strongly connected components with ≥2 rules, plus self-loops —
    /// the potential non-termination witnesses.
    pub fn cycles(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n];
        let mut self_loop = vec![false; self.n];
        for &(a, b, _) in &self.edges {
            if a == b {
                self_loop[a] = true;
            } else {
                adj[a].push(b);
            }
        }
        let sccs = tarjan_sccs(self.n, &adj);
        let mut out: Vec<Vec<usize>> = sccs.into_iter().filter(|c| c.len() >= 2).collect();
        for (i, &sl) in self_loop.iter().enumerate() {
            if sl && !out.iter().any(|c| c.contains(&i)) {
                out.push(vec![i]);
            }
        }
        out.sort();
        out
    }

    /// Whether the trigger graph proves termination (no cycles at all).
    pub fn is_terminating(&self) -> bool {
        self.cycles().is_empty()
    }
}

/// Sufficient termination condition for a rule set.
pub fn is_terminating(rules: &[Grr]) -> bool {
    trigger_graph(rules).is_terminating()
}

/// Topologically stratify an **acyclic** trigger graph: rules grouped by
/// longest-path level, so every trigger edge points from an earlier
/// stratum to a strictly later one and no two rules in the same stratum
/// can enable each other. Running strata in order, each to fixpoint,
/// therefore never needs to revisit an earlier stratum — the scheduling
/// consequence of the paper's termination analysis. Returns `None` when
/// the trigger graph has any cycle (including self-loops).
pub fn stratify(tg: &TriggerGraph) -> Option<Vec<Vec<usize>>> {
    let mut indeg = vec![0usize; tg.n];
    let mut adj = vec![Vec::new(); tg.n];
    for &(a, b, _) in &tg.edges {
        if a == b {
            return None;
        }
        adj[a].push(b);
        indeg[b] += 1;
    }
    let mut level = vec![0usize; tg.n];
    let mut queue: Vec<usize> = (0..tg.n).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let lu = level[u];
        for &v in &adj[u] {
            level[v] = level[v].max(lu + 1);
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    if head != tg.n {
        return None; // a cycle kept some rule's in-degree positive
    }
    let depth = level.iter().copied().max().map_or(0, |m| m + 1);
    let mut strata = vec![Vec::new(); depth];
    for (i, &l) in level.iter().enumerate() {
        strata[l].push(i);
    }
    Some(strata)
}

/// Fingerprint of a rule set covering everything scheduling depends on:
/// pattern structure, actions, and priorities. The durable store keys
/// its clean mark (the rule set its graph is a verified fixpoint of) on
/// it.
pub fn set_fingerprint(rules: &[Grr]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = rustc_hash::FxHasher::default();
    rules.len().hash(&mut h);
    for r in rules {
        r.pattern.fingerprint().hash(&mut h);
        r.priority.hash(&mut h);
        // Actions have no Hash impl; their Debug form is deterministic
        // and covers every field the trigger graph reads.
        format!("{:?}", r.actions).hash(&mut h);
    }
    h.finish()
}

fn tarjan_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct St<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        out: Vec<Vec<usize>>,
    }
    fn visit(st: &mut St<'_>, v: usize) {
        st.index[v] = Some(st.next);
        st.low[v] = st.next;
        st.next += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for i in 0..st.adj[v].len() {
            let w = st.adj[v][i];
            if st.index[w].is_none() {
                visit(st, w);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w].unwrap());
            }
        }
        if st.low[v] == st.index[v].unwrap() {
            let mut comp = Vec::new();
            loop {
                let w = st.stack.pop().unwrap();
                st.on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.sort_unstable();
            st.out.push(comp);
        }
    }
    let mut st = St {
        adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            visit(&mut st, v);
        }
    }
    st.out
}

// ---------------------------------------------------------------------------
// Conflicts (consistency)
// ---------------------------------------------------------------------------

/// The kind of contradiction two rules can prescribe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConflictKind {
    /// Both set the same attribute of unifiable nodes to different
    /// constants.
    AttrSetClash,
    /// Both relabel unifiable nodes to different labels.
    NodeRelabelClash,
    /// Both relabel unifiable edges to different labels.
    EdgeRelabelClash,
    /// One deletes a node the other updates / merges / attaches edges to.
    DeleteVsUse,
    /// One inserts an edge the other deletes.
    InsertVsDelete,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConflictKind::AttrSetClash => "attr-set clash",
            ConflictKind::NodeRelabelClash => "node-relabel clash",
            ConflictKind::EdgeRelabelClash => "edge-relabel clash",
            ConflictKind::DeleteVsUse => "delete vs use",
            ConflictKind::InsertVsDelete => "insert vs delete",
        };
        f.write_str(s)
    }
}

/// A potential contradiction between two rules.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RuleConflict {
    /// First rule index.
    pub a: usize,
    /// Second rule index.
    pub b: usize,
    /// Contradiction kind.
    pub kind: ConflictKind,
    /// Human-readable witness description.
    pub detail: String,
}

fn var_label(rule: &Grr, v: Var) -> &L {
    &rule.pattern.nodes[v.index()].label
}

/// Detect pairwise prescription conflicts between distinct rules.
///
/// Unification is label-level (two variables unify if their label
/// requirements overlap), which over-approximates: every *real* runtime
/// contradiction is reported, plus possibly benign pairs whose patterns can
/// never co-match. The engine resolves reported pairs at runtime by cost.
pub fn find_conflicts(rules: &[Grr]) -> Vec<RuleConflict> {
    let mut out = Vec::new();
    for a in 0..rules.len() {
        for b in (a + 1)..rules.len() {
            conflicts_between(rules, a, b, &mut out);
        }
    }
    out
}

fn conflicts_between(rules: &[Grr], ai: usize, bi: usize, out: &mut Vec<RuleConflict>) {
    let ra = &rules[ai];
    let rb = &rules[bi];
    let mut push = |kind, detail: String| {
        out.push(RuleConflict {
            a: ai,
            b: bi,
            kind,
            detail,
        })
    };

    // Variables a rule *uses* (updates, merges, attaches edges to).
    fn used_vars(r: &Grr) -> Vec<(Var, &'static str)> {
        let mut out = Vec::new();
        for act in &r.actions {
            match act {
                Action::UpdateNode { node, .. } => out.push((*node, "update")),
                Action::MergeNodes { keep, .. } => out.push((*keep, "merge-keep")),
                Action::InsertEdge { src, dst, .. } => {
                    for t in [src, dst] {
                        if let Target::Var(v) = t {
                            out.push((*v, "edge-endpoint"));
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }
    fn deleted_vars(r: &Grr) -> Vec<Var> {
        r.actions
            .iter()
            .filter_map(|a| match a {
                Action::DeleteNode(v) => Some(*v),
                Action::MergeNodes { merged, .. } => Some(*merged),
                _ => None,
            })
            .collect()
    }

    // Delete vs use, both directions.
    for (del_rule, del_idx, use_rule) in [(ra, ai, rb), (rb, bi, ra)] {
        for dv in deleted_vars(del_rule) {
            for (uv, how) in used_vars(use_rule) {
                if l_overlap(var_label(del_rule, dv), var_label(use_rule, uv)) {
                    push(
                        ConflictKind::DeleteVsUse,
                        format!(
                            "rule #{del_idx} deletes {:?}-labelled nodes that the other rule \
                             touches ({how})",
                            var_label(del_rule, dv).as_deref().unwrap_or("*"),
                        ),
                    );
                }
            }
        }
    }

    // Attr set / relabel clashes and insert-vs-delete.
    for act_a in &ra.actions {
        for act_b in &rb.actions {
            match (act_a, act_b) {
                (
                    Action::UpdateNode {
                        node: va,
                        set_attrs: sa,
                        set_label: la,
                        ..
                    },
                    Action::UpdateNode {
                        node: vb,
                        set_attrs: sb,
                        set_label: lb,
                        ..
                    },
                ) => {
                    if !l_overlap(var_label(ra, *va), var_label(rb, *vb)) {
                        continue;
                    }
                    if let (Some(x), Some(y)) = (la, lb) {
                        if x != y {
                            push(
                                ConflictKind::NodeRelabelClash,
                                format!("relabel to {x:?} vs {y:?}"),
                            );
                        }
                    }
                    for (ka, srca) in sa {
                        for (kb, srcb) in sb {
                            if ka != kb {
                                continue;
                            }
                            if let (ValueSource::Const(x), ValueSource::Const(y)) = (srca, srcb)
                            {
                                if x != y {
                                    push(
                                        ConflictKind::AttrSetClash,
                                        format!("both set .{ka}: {x} vs {y}"),
                                    );
                                }
                            }
                        }
                    }
                }
                (
                    Action::UpdateEdgeLabel {
                        edge: PatternEdgeRef(ea),
                        label: la,
                    },
                    Action::UpdateEdgeLabel {
                        edge: PatternEdgeRef(eb),
                        label: lb,
                    },
                ) => {
                    if la == lb {
                        continue;
                    }
                    let pea = &ra.pattern.edges[*ea];
                    let peb = &rb.pattern.edges[*eb];
                    if l_overlap(&pea.label, &peb.label)
                        && l_overlap(var_label(ra, pea.src), var_label(rb, peb.src))
                        && l_overlap(var_label(ra, pea.dst), var_label(rb, peb.dst))
                    {
                        push(
                            ConflictKind::EdgeRelabelClash,
                            format!("relabel edge to {la:?} vs {lb:?}"),
                        );
                    }
                }
                _ => {}
            }
        }
    }

    // Insert vs delete, both directions.
    for (ins_rule, del_rule) in [(ra, rb), (rb, ra)] {
        for act_i in &ins_rule.actions {
            let Action::InsertEdge { src, dst, label } = act_i else {
                continue;
            };
            let (Target::Var(sv), Target::Var(dv)) = (src, dst) else {
                continue; // fresh endpoints can't clash with matched edges
            };
            for act_d in &del_rule.actions {
                let Action::DeleteEdge(PatternEdgeRef(i)) = act_d else {
                    continue;
                };
                let pe = &del_rule.pattern.edges[*i];
                if l_overlap(&Some(label.clone()), &pe.label)
                    && l_overlap(var_label(ins_rule, *sv), var_label(del_rule, pe.src))
                    && l_overlap(var_label(ins_rule, *dv), var_label(del_rule, pe.dst))
                {
                    push(
                        ConflictKind::InsertVsDelete,
                        format!("one inserts and one deletes {label:?} edges"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Implication (rule redundancy)
// ---------------------------------------------------------------------------

/// `redundant` is subsumed by `by`: wherever `redundant` fires, `by` fires
/// with the identical repair.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Implication {
    /// Index of the subsumed rule.
    pub redundant: usize,
    /// Index of the subsuming rule.
    pub by: usize,
}

/// Find rules implied by other rules in the set.
///
/// Sound (every reported implication is a true subsumption) but not
/// complete (the embedding search commits to the first consistent edge
/// mapping).
pub fn find_implications(rules: &[Grr]) -> Vec<Implication> {
    let mut out = Vec::new();
    for r in 0..rules.len() {
        for b in 0..rules.len() {
            if r != b && subsumes(&rules[b], &rules[r]) {
                out.push(Implication {
                    redundant: r,
                    by: b,
                });
            }
        }
    }
    out
}

/// Does `general` subsume `specific`? Searches injective variable
/// embeddings h : vars(general) ↪ vars(specific).
fn subsumes(general: &Grr, specific: &Grr) -> bool {
    let gn = general.pattern.num_vars();
    let sn = specific.pattern.num_vars();
    if gn > sn {
        return false;
    }
    let mut map: Vec<Option<usize>> = vec![None; gn];
    let mut used = vec![false; sn];
    try_embed(general, specific, &mut map, &mut used, 0)
}

fn label_implies(general: &L, specific: &L) -> bool {
    match (general, specific) {
        (None, _) => true,
        (Some(g), Some(s)) => g == s,
        (Some(_), None) => false,
    }
}

fn try_embed(
    general: &Grr,
    specific: &Grr,
    map: &mut Vec<Option<usize>>,
    used: &mut Vec<bool>,
    v: usize,
) -> bool {
    if v == map.len() {
        return check_embedding(general, specific, map);
    }
    let glabel = &general.pattern.nodes[v].label;
    for s in 0..used.len() {
        if used[s] {
            continue;
        }
        if !label_implies(glabel, &specific.pattern.nodes[s].label) {
            continue;
        }
        map[v] = Some(s);
        used[s] = true;
        if try_embed(general, specific, map, used, v + 1) {
            return true;
        }
        map[v] = None;
        used[s] = false;
    }
    false
}

fn check_embedding(general: &Grr, specific: &Grr, map: &[Option<usize>]) -> bool {
    let h = |v: Var| Var(map[v.index()].unwrap() as u8);

    // Positive edges of `general` map to positive edges of `specific`
    // (recording the edge correspondence for action comparison).
    let mut edge_map: Vec<usize> = Vec::with_capacity(general.pattern.edges.len());
    for ge in &general.pattern.edges {
        let found = specific.pattern.edges.iter().position(|se| {
            se.src == h(ge.src) && se.dst == h(ge.dst) && label_implies(&ge.label, &se.label)
        });
        match found {
            Some(i) => edge_map.push(i),
            None => return false,
        }
    }
    // Negative conditions of `general` must be implied by `specific`'s.
    for ge in &general.pattern.neg_edges {
        let ok = specific.pattern.neg_edges.iter().any(|se| {
            se.src == h(ge.src)
                && se.dst == h(ge.dst)
                && match (&se.label, &ge.label) {
                    (None, _) => true, // specific forbids all ⇒ forbids l
                    (Some(s), Some(g)) => s == g,
                    (Some(_), None) => false,
                }
        }) || specific.pattern.constraints.iter().any(|c| {
            // A no-out-edge condition on the mapped source also implies the
            // absence of the specific negative edge.
            matches!(c, Constraint::NoOutEdge(v, l)
                if *v == h(ge.src) && match (l, &ge.label) {
                    (None, _) => true,
                    (Some(s), Some(g)) => s == g,
                    (Some(_), None) => false,
                })
        });
        if !ok {
            return false;
        }
    }
    // Constraints of `general` must appear in `specific` under h.
    for gc in &general.pattern.constraints {
        let mapped = map_constraint(gc, &h);
        let ok = specific.pattern.constraints.iter().any(|sc| {
            constraint_implies(sc, &mapped)
        });
        if !ok {
            return false;
        }
    }
    // Actions must be identical under h (and the edge correspondence).
    if general.actions.len() != specific.actions.len() {
        return false;
    }
    for (ga, sa) in general.actions.iter().zip(&specific.actions) {
        if map_action(ga, &h, &edge_map) != *sa {
            return false;
        }
    }
    true
}

fn map_constraint(c: &Constraint, h: &impl Fn(Var) -> Var) -> Constraint {
    match c {
        Constraint::HasAttr(v, k) => Constraint::HasAttr(h(*v), k.clone()),
        Constraint::MissingAttr(v, k) => Constraint::MissingAttr(h(*v), k.clone()),
        Constraint::Cmp { var, key, op, rhs } => Constraint::Cmp {
            var: h(*var),
            key: key.clone(),
            op: *op,
            rhs: match rhs {
                Rhs::Const(v) => Rhs::Const(v.clone()),
                Rhs::Attr(o, k2) => Rhs::Attr(h(*o), k2.clone()),
            },
        },
        Constraint::NoOutEdge(v, l) => Constraint::NoOutEdge(h(*v), l.clone()),
        Constraint::NoInEdge(v, l) => Constraint::NoInEdge(h(*v), l.clone()),
    }
}

/// Does constraint `specific` imply constraint `general_mapped`?
fn constraint_implies(specific: &Constraint, general_mapped: &Constraint) -> bool {
    if specific == general_mapped {
        return true;
    }
    // No-edge conditions: forbidding all edges implies forbidding one label.
    match (specific, general_mapped) {
        (Constraint::NoOutEdge(sv, None), Constraint::NoOutEdge(gv, Some(_))) => sv == gv,
        (Constraint::NoInEdge(sv, None), Constraint::NoInEdge(gv, Some(_))) => sv == gv,
        _ => false,
    }
}

fn map_action(a: &Action, h: &impl Fn(Var) -> Var, edge_map: &[usize]) -> Action {
    let map_target = |t: &Target| match t {
        Target::Var(v) => Target::Var(h(*v)),
        Target::Fresh(b) => Target::Fresh(b.clone()),
    };
    let map_vs = |s: &ValueSource| match s {
        ValueSource::Const(v) => ValueSource::Const(v.clone()),
        ValueSource::CopyAttr(v, k) => ValueSource::CopyAttr(h(*v), k.clone()),
    };
    match a {
        Action::InsertNode {
            binder,
            label,
            attrs,
        } => Action::InsertNode {
            binder: binder.clone(),
            label: label.clone(),
            attrs: attrs.iter().map(|(k, s)| (k.clone(), map_vs(s))).collect(),
        },
        Action::InsertEdge { src, dst, label } => Action::InsertEdge {
            src: map_target(src),
            dst: map_target(dst),
            label: label.clone(),
        },
        Action::DeleteNode(v) => Action::DeleteNode(h(*v)),
        Action::DeleteEdge(PatternEdgeRef(i)) => {
            Action::DeleteEdge(PatternEdgeRef(edge_map.get(*i).copied().unwrap_or(usize::MAX)))
        }
        Action::UpdateNode {
            node,
            set_label,
            set_attrs,
            del_attrs,
        } => Action::UpdateNode {
            node: h(*node),
            set_label: set_label.clone(),
            set_attrs: set_attrs
                .iter()
                .map(|(k, s)| (k.clone(), map_vs(s)))
                .collect(),
            del_attrs: del_attrs.clone(),
        },
        Action::UpdateEdgeLabel {
            edge: PatternEdgeRef(i),
            label,
        } => Action::UpdateEdgeLabel {
            edge: PatternEdgeRef(edge_map.get(*i).copied().unwrap_or(usize::MAX)),
            label: label.clone(),
        },
        Action::MergeNodes { keep, merged } => Action::MergeNodes {
            keep: h(*keep),
            merged: h(*merged),
        },
    }
}

// ---------------------------------------------------------------------------
// Aggregate report
// ---------------------------------------------------------------------------

/// Combined static-analysis report for a rule set (the T2 table row).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Per-rule effectiveness verdicts.
    pub effectiveness: Vec<Effectiveness>,
    /// Whether the trigger graph proves termination.
    pub terminating: bool,
    /// Potential non-termination witnesses (trigger-graph cycles).
    pub cycles: Vec<Vec<usize>>,
    /// Prescription conflicts.
    pub conflicts: Vec<RuleConflict>,
    /// Subsumed rules.
    pub implications: Vec<Implication>,
    /// Wall time of the whole analysis, in microseconds.
    pub micros: u128,
}

/// Run all analyses over a rule set.
pub fn analyze(rules: &[Grr]) -> AnalysisReport {
    let start = std::time::Instant::now();
    let effectiveness = rules.iter().map(check_effectiveness).collect();
    let tg = trigger_graph(rules);
    let cycles = tg.cycles();
    let conflicts = find_conflicts(rules);
    let implications = find_implications(rules);
    AnalysisReport {
        effectiveness,
        terminating: cycles.is_empty(),
        cycles,
        conflicts,
        implications,
        micros: start.elapsed().as_micros(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_rule;

    fn citizenship() -> Grr {
        parse_rule(
            "rule add_citizenship [incompleteness]
             match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
             where not (x)-[citizenOf]->(k)
             repair insert edge (x)-[citizenOf]->(k)",
        )
        .unwrap()
    }

    #[test]
    fn canonical_instance_matches_identity() {
        let r = citizenship();
        let (g, m) = canonical_instance(&r.pattern).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        let found = Matcher::new(&g).find_all(&r.pattern);
        assert!(found.iter().any(|f| f.nodes == m.nodes));
    }

    #[test]
    fn canonical_instance_solves_constraints() {
        let r = parse_rule(
            "rule c [conflict]
             match (x:P), (y:P)
             where x.a == y.a, x.b != y.b, x.n >= 10, has(x.c), missing(y.c)
             repair delete node y",
        )
        .unwrap();
        let (g, m) = canonical_instance(&r.pattern).unwrap();
        let mut chk = m.clone();
        assert!(CompiledPattern::new(&g, &r.pattern).holds(&g, &mut chk));
    }

    #[test]
    fn canonical_instance_detects_contradiction() {
        let r = parse_rule(
            "rule c [conflict]
             match (x:P)
             where has(x.a), missing(x.a)
             repair delete node x",
        )
        .unwrap();
        assert!(canonical_instance(&r.pattern).is_none());
    }

    #[test]
    fn effective_rule_detected() {
        assert_eq!(check_effectiveness(&citizenship()), Effectiveness::Effective);
    }

    #[test]
    fn ineffective_rule_detected() {
        // Repair does not touch the violation: sets an unrelated attribute.
        let r = parse_rule(
            "rule pointless [conflict]
             match (x:P)-[r]->(y:P)
             repair set x.seen = true",
        )
        .unwrap();
        assert_eq!(check_effectiveness(&r), Effectiveness::Ineffective);
    }

    #[test]
    fn delete_repair_is_effective() {
        let r = parse_rule(
            "rule drop [conflict]
             match (x:P)-[bad]->(y:P)
             repair delete edge (x)-[bad]->(y)",
        )
        .unwrap();
        assert_eq!(check_effectiveness(&r), Effectiveness::Effective);
    }

    #[test]
    fn trigger_graph_detects_enabling() {
        let r1 = parse_rule(
            "rule mk_edge [incompleteness]
             match (x:A) where not (x)-[r]->(*)
             repair insert node (y:B); insert edge (x)-[r]->(y)",
        )
        .unwrap();
        let r2 = parse_rule(
            "rule use_edge [conflict]
             match (x:A)-[r]->(y:B)
             repair delete edge (x)-[r]->(y)",
        )
        .unwrap();
        let tg = trigger_graph(&[r1, r2]);
        // r1 adds r-edges and B-nodes → triggers r2; r2 removes r-edges →
        // triggers r1's no-out-edge condition: a 2-cycle.
        assert!(tg.edges.iter().any(|&(a, b, _)| (a, b) == (0, 1)));
        assert!(tg.edges.iter().any(|&(a, b, _)| (a, b) == (1, 0)));
        assert!(!tg.is_terminating());
        assert_eq!(tg.cycles(), vec![vec![0, 1]]);
    }

    #[test]
    fn independent_rules_terminate() {
        let r1 = parse_rule(
            "rule a [conflict] match (x:A)-[p]->(y:A) repair delete edge (x)-[p]->(y)",
        )
        .unwrap();
        let r2 = parse_rule(
            "rule b [conflict] match (x:B)-[q]->(y:B) repair delete edge (x)-[q]->(y)",
        )
        .unwrap();
        assert!(is_terminating(&[r1, r2]));
    }

    #[test]
    fn self_loop_detected() {
        // Inserting an edge of the same label the pattern requires.
        let r = parse_rule(
            "rule grow [incompleteness]
             match (x:A)-[r]->(y:A)
             repair insert node (z:A); insert edge (y)-[r]->(z)",
        )
        .unwrap();
        let tg = trigger_graph(std::slice::from_ref(&r));
        assert!(!tg.is_terminating());
        assert_eq!(tg.cycles(), vec![vec![0]]);
    }

    #[test]
    fn stratify_levels_a_chain() {
        // stage0 enables stage1 enables stage2: three singleton strata in
        // topological order; an unrelated rule lands in stratum 0.
        let mut rules: Vec<Grr> = (0..3)
            .map(|i| {
                parse_rule(&format!(
                    "rule stage{i} [incompleteness]
                     match (x:T) where has(x.a{i}), missing(x.a{})
                     repair set x.a{} = true",
                    i + 1,
                    i + 1
                ))
                .unwrap()
            })
            .collect();
        rules.push(
            parse_rule(
                "rule unrelated [conflict]
                 match (x:Q)-[rel]->(y:Q)
                 repair delete edge (x)-[rel]->(y)",
            )
            .unwrap(),
        );
        let strata = stratify(&trigger_graph(&rules)).expect("chain is acyclic");
        assert_eq!(strata, vec![vec![0, 3], vec![1], vec![2]]);
    }

    #[test]
    fn stratify_declines_cycles_and_self_loops() {
        let r1 = parse_rule(
            "rule mk_edge [incompleteness]
             match (x:A) where not (x)-[r]->(*)
             repair insert node (y:B); insert edge (x)-[r]->(y)",
        )
        .unwrap();
        let r2 = parse_rule(
            "rule use_edge [conflict]
             match (x:A)-[r]->(y:B)
             repair delete edge (x)-[r]->(y)",
        )
        .unwrap();
        assert_eq!(stratify(&trigger_graph(&[r1, r2])), None);

        let grow = parse_rule(
            "rule grow [incompleteness]
             match (x:A)-[r]->(y:A)
             repair insert node (z:A); insert edge (y)-[r]->(z)",
        )
        .unwrap();
        assert_eq!(stratify(&trigger_graph(std::slice::from_ref(&grow))), None);

        // Empty sets stratify trivially.
        assert_eq!(stratify(&trigger_graph(&[])), Some(vec![]));
    }

    #[test]
    fn set_fingerprint_tracks_scheduling_inputs() {
        let a = parse_rule(
            "rule a [conflict] match (x:A)-[p]->(y:A) repair delete edge (x)-[p]->(y)",
        )
        .unwrap();
        let b = parse_rule(
            "rule b [conflict] match (x:B)-[q]->(y:B) repair delete edge (x)-[q]->(y)",
        )
        .unwrap();
        let fp = set_fingerprint(&[a.clone(), b.clone()]);
        assert_eq!(fp, set_fingerprint(&[a.clone(), b.clone()]), "deterministic");
        assert_ne!(fp, set_fingerprint(&[b.clone(), a.clone()]), "order matters");
        assert_ne!(fp, set_fingerprint(std::slice::from_ref(&a)));
        let a_pri = a.clone().with_priority(7);
        assert_ne!(fp, set_fingerprint(&[a_pri, b]));
    }

    #[test]
    fn conflicts_detected() {
        let r1 = parse_rule(
            "rule set_a [conflict] match (x:P) where has(x.k) repair set x.v = 1",
        )
        .unwrap();
        let r2 = parse_rule(
            "rule set_b [conflict] match (y:P) where has(y.k) repair set y.v = 2",
        )
        .unwrap();
        let r3 = parse_rule(
            "rule del [conflict] match (z:P) where z.spam == true repair delete node z",
        )
        .unwrap();
        let found = find_conflicts(&[r1, r2, r3]);
        assert!(found
            .iter()
            .any(|c| c.kind == ConflictKind::AttrSetClash && (c.a, c.b) == (0, 1)));
        assert!(found.iter().any(|c| c.kind == ConflictKind::DeleteVsUse));
    }

    #[test]
    fn insert_delete_conflict() {
        let r1 = parse_rule(
            "rule ins [incompleteness]
             match (x:P), (y:Q) where not (x)-[r]->(y)
             repair insert edge (x)-[r]->(y)",
        )
        .unwrap();
        let r2 = parse_rule(
            "rule del [conflict]
             match (x:P)-[r]->(y:Q)
             repair delete edge (x)-[r]->(y)",
        )
        .unwrap();
        let found = find_conflicts(&[r1, r2]);
        assert!(found.iter().any(|c| c.kind == ConflictKind::InsertVsDelete));
    }

    #[test]
    fn disjoint_labels_do_not_conflict() {
        let r1 =
            parse_rule("rule a [conflict] match (x:A) repair set x.v = 1").unwrap();
        let r2 =
            parse_rule("rule b [conflict] match (x:B) repair set x.v = 2").unwrap();
        assert!(find_conflicts(&[r1, r2]).is_empty());
    }

    #[test]
    fn implication_found_for_specialization() {
        let general = parse_rule(
            "rule general [conflict]
             match (x:P)-[bad]->(y:P)
             repair delete edge (x)-[bad]->(y)",
        )
        .unwrap();
        let specific = parse_rule(
            "rule specific [conflict]
             match (x:P)-[bad]->(y:P)
             where x.vip == true
             repair delete edge (x)-[bad]->(y)",
        )
        .unwrap();
        let imps = find_implications(&[general, specific]);
        assert_eq!(
            imps,
            vec![Implication {
                redundant: 1,
                by: 0
            }]
        );
    }

    #[test]
    fn different_actions_are_not_implied() {
        let r1 = parse_rule(
            "rule a [conflict] match (x:P)-[bad]->(y:P) repair delete edge (x)-[bad]->(y)",
        )
        .unwrap();
        let r2 = parse_rule(
            "rule b [conflict] match (x:P)-[bad]->(y:P) repair delete node y",
        )
        .unwrap();
        assert!(find_implications(&[r1, r2]).is_empty());
    }

    #[test]
    fn aggregate_report() {
        let rules = vec![citizenship()];
        let report = analyze(&rules);
        assert_eq!(report.effectiveness, vec![Effectiveness::Effective]);
        assert!(report.conflicts.is_empty());
        assert!(report.implications.is_empty());
    }
}
