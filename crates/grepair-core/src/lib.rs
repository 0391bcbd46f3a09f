//! # grepair-core
//!
//! Graph Repairing Rules (GRRs) — the primary contribution of
//! *"Rule-Based Graph Repairing: Semantic and Efficient Repairing
//! Methods"* (ICDE 2018), reconstructed in Rust.
//!
//! A [`Grr`] pairs a pattern (what an inconsistency looks like) with
//! repair actions (how to fix it) drawn from the paper's seven operations.
//! This crate provides:
//!
//! - the rule model ([`rule`]) and a text DSL ([`dsl`]);
//! - rule application with idempotent semantics and revalidation
//!   ([`apply`]);
//! - the edit-distance repair cost model ([`cost`]);
//! - static rule-set analyses: effectiveness, termination, consistency,
//!   implication ([`analysis`]);
//! - the repair engine: one cost-ordered worklist with cost-based
//!   best-repair arbitration, run per stratum on acyclic rule sets
//!   ([`engine`]);
//! - rule-set containers and serialization ([`ruleset`]).
//!
//! ```
//! use grepair_core::{RepairEngine, RuleSet};
//! use grepair_graph::Graph;
//!
//! let mut g = Graph::new();
//! let p = g.add_node_named("Person");
//! let c = g.add_node_named("City");
//! let k = g.add_node_named("Country");
//! g.add_edge_named(p, c, "livesIn").unwrap();
//! g.add_edge_named(c, k, "inCountry").unwrap();
//!
//! let rules = RuleSet::from_dsl(
//!     "demo",
//!     "rule add_citizenship [incompleteness]
//!      match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
//!      where not (x)-[citizenOf]->(k)
//!      repair insert edge (x)-[citizenOf]->(k)",
//! )
//! .unwrap();
//!
//! let report = RepairEngine::default().repair(&mut g, &rules.rules);
//! assert!(report.converged);
//! assert_eq!(report.repairs_applied, 1);
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod apply;
pub mod cost;
pub mod dsl;
pub mod engine;
pub mod lint;
pub mod watch;
pub mod printer;
pub mod rule;
pub mod ruleset;

pub use analysis::{
    analyze, canonical_instance, check_effectiveness, find_conflicts, find_implications,
    is_terminating, set_fingerprint, stratify, trigger_graph, AnalysisReport, ConflictKind,
    Effectiveness, Implication, RuleConflict, TriggerGraph, TriggerReason,
};
pub use lint::{lint_rules, Finding, LintCode, LintPolicy, LintReport, Severity};
pub use apply::{apply_rule, revalidate, Applied, AppliedOp};
pub use cost::{estimate_cost, op_cost};
pub use dsl::{parse_rule, parse_rules, parse_rules_with_spans, ParseError, RuleSpan};
pub use engine::{RepairEngine, RepairOutcome, RepairReport, RepairSeed, RepairSink, RuleStats};
// Re-exported so downstream crates (the store's repair hook, the CLI)
// can hold a long-lived planner and a repair seed without depending on
// grepair-match directly.
pub use grepair_match::{Planner, TouchSet};
pub use printer::{rule_to_dsl, ruleset_to_dsl};
pub use watch::{LiveViolation, Watcher};
pub use rule::{Action, Category, Grr, PatternEdgeRef, RuleError, Target, ValueSource};
pub use ruleset::{RuleSet, RuleSetError};
