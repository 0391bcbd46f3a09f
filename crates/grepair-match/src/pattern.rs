//! The pattern language of Graph Repairing Rules.
//!
//! A [`Pattern`] is a small graph template: *pattern nodes* are variables
//! with an optional label requirement, *pattern edges* must be present in
//! any match (positive edges) or absent (negative edges), and
//! [`Constraint`]s restrict attribute values — including cross-variable
//! comparisons, which is how conflict and redundancy rules express
//! "two nodes claiming the same identity" or "contradicting values".
//!
//! Patterns are **graph-independent**: labels and attribute keys are plain
//! strings, resolved against a concrete [`grepair_graph::Graph`]'s interners
//! at match time. Matches are *injective* (subgraph isomorphism), so two
//! distinct variables always bind distinct nodes — exactly the semantics
//! redundancy rules need.

use grepair_graph::{Graph, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A pattern variable: index of a pattern node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Var(pub u8);

impl Var {
    /// Raw index into the pattern's node list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// A pattern node: a variable with an optional label requirement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PatternNode {
    /// Human-readable variable name (used by the rule DSL and diagnostics).
    pub name: String,
    /// Required node label; `None` matches any label.
    pub label: Option<String>,
}

/// A pattern edge between two variables.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PatternEdge {
    /// Source variable.
    pub src: Var,
    /// Target variable.
    pub dst: Var,
    /// Required edge label; `None` matches any label. Negative edges with
    /// `None` forbid *any* edge `src → dst`.
    pub label: Option<String>,
}

/// Comparison operator for attribute constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (numeric or lexicographic).
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate the operator on two values.
    ///
    /// `Eq`/`Ne` use [`Value`] equality (type-sensitive). Ordering
    /// operators compare numbers numerically (with int/float coercion) and
    /// strings lexicographically; mixed or unordered types yield `false`
    /// for `Lt/Le/Gt/Ge` — a constraint on incomparable data does not hold.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ => {
                let ord = match (a.as_number(), b.as_number()) {
                    (Some(x), Some(y)) => x.partial_cmp(&y),
                    _ => match (a.as_str(), b.as_str()) {
                        (Some(x), Some(y)) => Some(x.cmp(y)),
                        _ => None,
                    },
                };
                matches!(
                    (self, ord),
                    (CmpOp::Lt, Some(Less))
                        | (CmpOp::Le, Some(Less | Equal))
                        | (CmpOp::Gt, Some(Greater))
                        | (CmpOp::Ge, Some(Greater | Equal))
                )
            }
        }
    }

    /// Parser-facing symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Right-hand side of an attribute comparison.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Rhs {
    /// A constant value.
    Const(Value),
    /// Another variable's attribute.
    Attr(Var, String),
}

/// An attribute constraint over pattern variables.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Constraint {
    /// The variable must carry the attribute key (any value).
    HasAttr(Var, String),
    /// The variable must *not* carry the attribute key — the incompleteness
    /// trigger.
    MissingAttr(Var, String),
    /// `var.key OP rhs`. If `var.key` is absent the constraint is `false`
    /// (absent values satisfy nothing; use [`Constraint::MissingAttr`] to
    /// target absence).
    Cmp {
        /// Left-hand variable.
        var: Var,
        /// Left-hand attribute key.
        key: String,
        /// Operator.
        op: CmpOp,
        /// Right-hand side.
        rhs: Rhs,
    },
    /// The variable has *no outgoing edge at all* with the given label
    /// (`None` = any label). This is the universally-quantified negation
    /// behind incompleteness triggers like "city with no country edge" —
    /// distinct from a negative [`PatternEdge`], which only forbids an edge
    /// between two *matched* endpoints.
    NoOutEdge(Var, Option<String>),
    /// The variable has no incoming edge with the given label.
    NoInEdge(Var, Option<String>),
}

impl Constraint {
    /// Variables mentioned by this constraint.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            Constraint::HasAttr(v, _)
            | Constraint::MissingAttr(v, _)
            | Constraint::NoOutEdge(v, _)
            | Constraint::NoInEdge(v, _) => vec![*v],
            Constraint::Cmp { var, rhs, .. } => match rhs {
                Rhs::Const(_) => vec![*var],
                Rhs::Attr(o, _) => vec![*var, *o],
            },
        }
    }

    /// Attribute keys mentioned by this constraint.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Constraint::HasAttr(_, k) | Constraint::MissingAttr(_, k) => vec![k],
            Constraint::Cmp { key, rhs, .. } => match rhs {
                Rhs::Const(_) => vec![key],
                Rhs::Attr(_, k2) => vec![key, k2],
            },
            Constraint::NoOutEdge(..) | Constraint::NoInEdge(..) => vec![],
        }
    }
}

/// A complete pattern: the matching half of a GRR.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[derive(Default)]
pub struct Pattern {
    /// Pattern nodes; `Var(i)` indexes this list.
    pub nodes: Vec<PatternNode>,
    /// Positive edges (must exist in a match).
    pub edges: Vec<PatternEdge>,
    /// Negative edges (must be absent in a match).
    pub neg_edges: Vec<PatternEdge>,
    /// Attribute constraints (conjunction).
    pub constraints: Vec<Constraint>,
}

impl Pattern {
    /// Start building a pattern.
    pub fn builder() -> PatternBuilder {
        PatternBuilder::default()
    }

    /// Number of pattern nodes.
    pub fn num_vars(&self) -> usize {
        self.nodes.len()
    }

    /// Every variable as a mask, bit `i` for `Var(i)` — the form
    /// [`crate::Matcher::find_distinct`] takes a footprint in. A pattern has
    /// at most 64 variables ([`Pattern::validate`]).
    pub fn all_vars(&self) -> u64 {
        1u64.checked_shl(self.nodes.len() as u32)
            .unwrap_or(0)
            .wrapping_sub(1)
    }

    /// How many of the names the pattern reads — the labels of its nodes,
    /// edges, negative edges and no-edge conditions, the attribute keys
    /// of its constraints — `g` has interned. Interners are append-only,
    /// so while the count holds, no name has changed whether it resolves.
    pub(crate) fn resolved_names(&self, g: &Graph) -> usize {
        let no_edge = self.constraints.iter().filter_map(|c| match c {
            Constraint::NoOutEdge(_, l) | Constraint::NoInEdge(_, l) => Some(l),
            _ => None,
        });
        let labels = self.nodes.iter().map(|n| &n.label);
        let labels = labels.chain(self.edges.iter().chain(&self.neg_edges).map(|e| &e.label));
        let keys = self.constraints.iter().flat_map(|c| match c {
            Constraint::HasAttr(_, k) | Constraint::MissingAttr(_, k) => [Some(k), None],
            Constraint::Cmp { key, rhs, .. } => [Some(key), match rhs {
                Rhs::Attr(_, k) => Some(k),
                Rhs::Const(_) => None,
            }],
            Constraint::NoOutEdge(..) | Constraint::NoInEdge(..) => [None, None],
        });
        let labels = labels.chain(no_edge).flatten().filter(|l| g.try_label(l).is_some());
        labels.count() + keys.flatten().filter(|k| g.try_attr_key(k).is_some()).count()
    }

    /// Look up a variable by name.
    pub fn var(&self, name: &str) -> Option<Var> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| Var(i as u8))
    }

    /// Name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.nodes[v.index()].name
    }

    /// Structural fingerprint: a 64-bit hash over every match-relevant
    /// field (labels, edges, negative edges, constraints — variable
    /// *names* excluded, they don't affect matching). Plan caches use it
    /// as the pattern component of their key, so patterns that match
    /// identically share cached plans even across distinct allocations.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        let hash_opt = |h: &mut rustc_hash::FxHasher, s: &Option<String>| match s {
            None => 0u8.hash(h),
            Some(s) => {
                1u8.hash(h);
                s.hash(h);
            }
        };
        self.nodes.len().hash(&mut h);
        for n in &self.nodes {
            hash_opt(&mut h, &n.label);
        }
        for (tag, edges) in [(1u8, &self.edges), (2u8, &self.neg_edges)] {
            tag.hash(&mut h);
            edges.len().hash(&mut h);
            for e in edges {
                e.src.hash(&mut h);
                e.dst.hash(&mut h);
                hash_opt(&mut h, &e.label);
            }
        }
        self.constraints.len().hash(&mut h);
        for c in &self.constraints {
            match c {
                Constraint::HasAttr(v, k) => {
                    (3u8, v, k).hash(&mut h);
                }
                Constraint::MissingAttr(v, k) => {
                    (4u8, v, k).hash(&mut h);
                }
                Constraint::Cmp { var, key, op, rhs } => {
                    (5u8, var, key, *op as u8).hash(&mut h);
                    match rhs {
                        Rhs::Const(v) => {
                            6u8.hash(&mut h);
                            v.hash(&mut h);
                        }
                        Rhs::Attr(o, k2) => {
                            (7u8, o, k2).hash(&mut h);
                        }
                    }
                }
                Constraint::NoOutEdge(v, l) => {
                    (8u8, v).hash(&mut h);
                    hash_opt(&mut h, l);
                }
                Constraint::NoInEdge(v, l) => {
                    (9u8, v).hash(&mut h);
                    hash_opt(&mut h, l);
                }
            }
        }
        h.finish()
    }

    /// Whether the positive part (nodes + positive edges) is connected.
    ///
    /// Disconnected patterns are legal but match as a cartesian product of
    /// their components — the matcher warns via plan metadata and the rule
    /// validator flags them.
    pub fn is_connected(&self) -> bool {
        let n = self.nodes.len();
        if n <= 1 {
            return true;
        }
        let mut adj = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.src.index()].push(e.dst.index());
            adj[e.dst.index()].push(e.src.index());
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Validate internal consistency (variable ranges).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("pattern has no nodes".into());
        }
        if self.nodes.len() > 64 {
            return Err("pattern exceeds 64 variables".into());
        }
        let in_range = |v: Var| v.index() < self.nodes.len();
        for e in self.edges.iter().chain(&self.neg_edges) {
            if !in_range(e.src) || !in_range(e.dst) {
                return Err(format!("edge {:?}→{:?} references unknown var", e.src, e.dst));
            }
        }
        for c in &self.constraints {
            for v in c.vars() {
                if !in_range(v) {
                    return Err(format!("constraint references unknown var {v:?}"));
                }
            }
        }
        let mut names = std::collections::HashSet::new();
        for n in &self.nodes {
            if !names.insert(&n.name) {
                return Err(format!("duplicate variable name {:?}", n.name));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_var = |v: Var| -> String {
            let n = &self.nodes[v.index()];
            match &n.label {
                Some(l) => format!("{}:{}", n.name, l),
                None => n.name.clone(),
            }
        };
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            Ok(())
        };
        for e in &self.edges {
            sep(f)?;
            write!(
                f,
                "({})-[{}]->({})",
                fmt_var(e.src),
                e.label.as_deref().unwrap_or("*"),
                fmt_var(e.dst)
            )?;
        }
        for e in &self.neg_edges {
            sep(f)?;
            write!(
                f,
                "!({})-[{}]->({})",
                fmt_var(e.src),
                e.label.as_deref().unwrap_or("*"),
                fmt_var(e.dst)
            )?;
        }
        for i in 0..self.nodes.len() {
            let v = Var(i as u8);
            let used = self
                .edges
                .iter()
                .chain(&self.neg_edges)
                .any(|e| e.src == v || e.dst == v);
            if !used {
                sep(f)?;
                write!(f, "({})", fmt_var(v))?;
            }
        }
        for c in &self.constraints {
            sep(f)?;
            match c {
                Constraint::HasAttr(v, k) => write!(f, "has({}.{k})", self.var_name(*v))?,
                Constraint::MissingAttr(v, k) => write!(f, "missing({}.{k})", self.var_name(*v))?,
                Constraint::Cmp { var, key, op, rhs } => {
                    write!(f, "{}.{key} {} ", self.var_name(*var), op.symbol())?;
                    match rhs {
                        Rhs::Const(v) => write!(f, "{v}")?,
                        Rhs::Attr(o, k2) => write!(f, "{}.{k2}", self.var_name(*o))?,
                    }
                }
                Constraint::NoOutEdge(v, l) => write!(
                    f,
                    "!({})-[{}]->(*)",
                    self.var_name(*v),
                    l.as_deref().unwrap_or("*")
                )?,
                Constraint::NoInEdge(v, l) => write!(
                    f,
                    "!(*)-[{}]->({})",
                    l.as_deref().unwrap_or("*"),
                    self.var_name(*v)
                )?,
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`Pattern`].
#[derive(Clone, Debug, Default)]
pub struct PatternBuilder {
    pattern: Pattern,
}


impl PatternBuilder {
    /// Add a node with an optional label requirement; returns its variable.
    pub fn node(&mut self, name: &str, label: Option<&str>) -> Var {
        let v = Var(self.pattern.nodes.len() as u8);
        self.pattern.nodes.push(PatternNode {
            name: name.to_owned(),
            label: label.map(str::to_owned),
        });
        v
    }

    /// Add a positive edge.
    pub fn edge(&mut self, src: Var, dst: Var, label: &str) -> &mut Self {
        self.pattern.edges.push(PatternEdge {
            src,
            dst,
            label: Some(label.to_owned()),
        });
        self
    }

    /// Add a positive edge matching any label.
    pub fn edge_any(&mut self, src: Var, dst: Var) -> &mut Self {
        self.pattern.edges.push(PatternEdge {
            src,
            dst,
            label: None,
        });
        self
    }

    /// Add a negative edge (must be absent).
    pub fn neg_edge(&mut self, src: Var, dst: Var, label: &str) -> &mut Self {
        self.pattern.neg_edges.push(PatternEdge {
            src,
            dst,
            label: Some(label.to_owned()),
        });
        self
    }

    /// Add a negative edge forbidding any `src → dst` edge.
    pub fn neg_edge_any(&mut self, src: Var, dst: Var) -> &mut Self {
        self.pattern.neg_edges.push(PatternEdge {
            src,
            dst,
            label: None,
        });
        self
    }

    /// Add an arbitrary constraint.
    pub fn constraint(&mut self, c: Constraint) -> &mut Self {
        self.pattern.constraints.push(c);
        self
    }

    /// Require `var.key == value`.
    pub fn attr_eq(&mut self, var: Var, key: &str, value: impl Into<Value>) -> &mut Self {
        self.constraint(Constraint::Cmp {
            var,
            key: key.to_owned(),
            op: CmpOp::Eq,
            rhs: Rhs::Const(value.into()),
        })
    }

    /// Require `var.key op value` for an arbitrary comparison operator.
    pub fn attr_cmp(
        &mut self,
        var: Var,
        key: &str,
        op: CmpOp,
        value: impl Into<Value>,
    ) -> &mut Self {
        self.constraint(Constraint::Cmp {
            var,
            key: key.to_owned(),
            op,
            rhs: Rhs::Const(value.into()),
        })
    }

    /// Require `a.key == b.key2`.
    pub fn attr_eq_var(&mut self, a: Var, key: &str, b: Var, key2: &str) -> &mut Self {
        self.constraint(Constraint::Cmp {
            var: a,
            key: key.to_owned(),
            op: CmpOp::Eq,
            rhs: Rhs::Attr(b, key2.to_owned()),
        })
    }

    /// Require `a.key != b.key2`.
    pub fn attr_ne_var(&mut self, a: Var, key: &str, b: Var, key2: &str) -> &mut Self {
        self.constraint(Constraint::Cmp {
            var: a,
            key: key.to_owned(),
            op: CmpOp::Ne,
            rhs: Rhs::Attr(b, key2.to_owned()),
        })
    }

    /// Require the attribute to be present.
    pub fn has_attr(&mut self, var: Var, key: &str) -> &mut Self {
        self.constraint(Constraint::HasAttr(var, key.to_owned()))
    }

    /// Require the attribute to be absent.
    pub fn missing_attr(&mut self, var: Var, key: &str) -> &mut Self {
        self.constraint(Constraint::MissingAttr(var, key.to_owned()))
    }

    /// Require the node to have no outgoing edge with the given label
    /// (`None` = no outgoing edge at all).
    pub fn no_out_edge(&mut self, var: Var, label: Option<&str>) -> &mut Self {
        self.constraint(Constraint::NoOutEdge(var, label.map(str::to_owned)))
    }

    /// Require the node to have no incoming edge with the given label.
    pub fn no_in_edge(&mut self, var: Var, label: Option<&str>) -> &mut Self {
        self.constraint(Constraint::NoInEdge(var, label.map(str::to_owned)))
    }

    /// Finish, validating the pattern.
    pub fn build(self) -> Result<Pattern, String> {
        self.pattern.validate()?;
        Ok(self.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lives_pattern() -> Pattern {
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let c = b.node("c", Some("City"));
        b.edge(x, c, "livesIn");
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_pattern() {
        let p = lives_pattern();
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.var("x"), Some(Var(0)));
        assert_eq!(p.var("c"), Some(Var(1)));
        assert_eq!(p.var("zzz"), None);
        assert!(p.is_connected());
    }

    #[test]
    fn validation_catches_bad_vars() {
        let p = Pattern {
            nodes: vec![PatternNode {
                name: "x".into(),
                label: None,
            }],
            edges: vec![PatternEdge {
                src: Var(0),
                dst: Var(5),
                label: None,
            }],
            neg_edges: vec![],
            constraints: vec![],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_duplicate_names() {
        let mut b = Pattern::builder();
        b.node("x", None);
        b.node("x", None);
        assert!(b.build().is_err());
    }

    #[test]
    fn validation_rejects_empty() {
        assert!(Pattern::default().validate().is_err());
    }

    #[test]
    fn connectivity_detection() {
        let mut b = Pattern::builder();
        let x = b.node("x", None);
        let y = b.node("y", None);
        b.node("z", None); // isolated
        b.edge(x, y, "r");
        let p = b.build().unwrap();
        assert!(!p.is_connected());
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.eval(&Value::Int(1), &Value::Int(1)));
        assert!(CmpOp::Ne.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Float(1.5)));
        assert!(CmpOp::Ge.eval(&Value::Float(2.0), &Value::Int(2)));
        assert!(CmpOp::Lt.eval(&Value::from("a"), &Value::from("b")));
        // Incomparable types never satisfy ordering ops.
        assert!(!CmpOp::Lt.eval(&Value::from("a"), &Value::Int(1)));
        assert!(!CmpOp::Ge.eval(&Value::Bool(true), &Value::Int(1)));
        // But Ne is type-sensitive equality.
        assert!(CmpOp::Ne.eval(&Value::from("1"), &Value::Int(1)));
    }

    #[test]
    fn constraint_vars_and_keys() {
        let c = Constraint::Cmp {
            var: Var(0),
            key: "name".into(),
            op: CmpOp::Eq,
            rhs: Rhs::Attr(Var(1), "alias".into()),
        };
        assert_eq!(c.vars(), vec![Var(0), Var(1)]);
        assert_eq!(c.keys(), vec!["name", "alias"]);
    }

    #[test]
    fn display_is_readable() {
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let k = b.node("k", Some("Country"));
        b.neg_edge(x, k, "citizenOf");
        b.missing_attr(x, "ssn");
        let p = b.build().unwrap();
        let s = p.to_string();
        assert!(s.contains("!(x:Person)-[citizenOf]->(k:Country)"), "{s}");
        assert!(s.contains("missing(x.ssn)"), "{s}");
    }

    #[test]
    fn serde_round_trip() {
        let p = lives_pattern();
        let json = serde_json::to_string(&p).unwrap();
        let back: Pattern = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
