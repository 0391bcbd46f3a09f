//! # grepair-match
//!
//! Pattern language and subgraph-isomorphism engine for Graph Repairing
//! Rules (GRRs). A GRR's matching half is a [`Pattern`]: labelled node
//! variables, positive edges (required), negative edges (forbidden), and
//! attribute [`pattern::Constraint`]s — the vocabulary needed to describe
//! the paper's three inconsistency classes (incompleteness, conflicts,
//! redundancy).
//!
//! [`Matcher`] enumerates injective matches, taking candidates from the
//! graph's label index; its two optimizations (connected join order,
//! attribute-index equality joins) are individually switchable through
//! [`MatchConfig`] so the F5 ablation can quantify each.
//! [`Matcher::find_touching`] is the delta-driven entry point behind the
//! incremental repair engine, and [`CompiledPattern::holds`] re-checks
//! one match it found after the graph changed.
//! [`Matcher::find_distinct`] and [`Matcher::find_touching_distinct`]
//! return one match per binding of a rule's footprint, the variables its
//! repair reads. [`oracle`] holds the
//! brute-force reference implementation used by property tests.
//!
//! ```
//! use grepair_graph::Graph;
//! use grepair_match::{Matcher, Pattern};
//!
//! let mut g = Graph::new();
//! let ann = g.add_node_named("Person");
//! let oslo = g.add_node_named("City");
//! g.add_edge_named(ann, oslo, "livesIn").unwrap();
//!
//! let mut b = Pattern::builder();
//! let x = b.node("x", Some("Person"));
//! let c = b.node("c", Some("City"));
//! b.edge(x, c, "livesIn");
//! let pattern = b.build().unwrap();
//!
//! let matches = Matcher::new(&g).find_all(&pattern);
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].nodes, vec![ann, oslo]);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod matcher;
pub mod oracle;
pub mod pattern;
pub mod plan;
pub mod sat;

pub use matcher::{
    CompiledPattern, ExplainStep, Match, MatchConfig, Matcher, PlanAccess, PlanExplanation,
    PlanStep, TouchSet,
};
pub use pattern::{CmpOp, Constraint, Pattern, PatternBuilder, PatternEdge, PatternNode, Rhs, Var};
pub use plan::Planner;
pub use sat::unsatisfiable;
