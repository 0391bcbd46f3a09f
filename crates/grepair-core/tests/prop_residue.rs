//! The fixpoint by construction: a repair run's `violations_remaining`,
//! counted from what its worklist left unrepaired, equals a fresh
//! [`RepairEngine::count_violations`] of the graph it leaves.
//!
//! Random graphs meet random rule sets of every action kind — edge and
//! node inserts, edge and node deletes, attribute sets and unsets,
//! relabels, merges — with negative-edge patterns, self-triggering rules
//! and cyclic pairs, so runs end at a fixpoint, with churn-refused or
//! no-op residue, or at the repair cap. Each set is repaired from a full
//! seed; when that leaves the graph clean, random edits follow and the
//! set is repaired again from a [`RepairSeed::Touched`] seed of the
//! nodes the edits touched, as [`grepair_core::Applied::touched`]
//! defines them. On acyclic sets no stratum may re-match its own rules.
//! Runs under an op cap or a cancel schedule either end on the trip or
//! count what a fresh count finds.

use grepair_core::{
    AppliedOp, Grr, Planner, RepairEngine, RepairOutcome, RepairReport, RepairSeed, RuleSet,
    TouchSet,
};
use grepair_graph::{EdgeId, Graph, NodeId, Value};
use proptest::prelude::*;

const NODE_LABELS: [&str; 2] = ["P", "Q"];
const EDGE_LABELS: [&str; 2] = ["a", "b"];
const KEYS: [&str; 2] = ["k", "j"];

#[derive(Clone, Debug)]
struct RandGraph {
    labels: Vec<u8>,
    edges: Vec<(u8, u8, u8)>,
    attrs: Vec<(u8, u8, u8)>,
}

fn graph_strategy() -> impl Strategy<Value = RandGraph> {
    (
        prop::collection::vec(any::<u8>(), 1..10),
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..10),
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..16),
    )
        .prop_map(|(labels, edges, attrs)| RandGraph {
            labels,
            edges,
            attrs,
        })
}

fn pick<T: Copy>(items: &[T], sel: u8) -> T {
    items[sel as usize % items.len()]
}

fn build_graph(rg: &RandGraph) -> Graph {
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = rg
        .labels
        .iter()
        .map(|&l| g.add_node_named(pick(&NODE_LABELS, l)))
        .collect();
    for &(s, d, l) in &rg.edges {
        let (s, d) = (pick(&nodes, s), pick(&nodes, d));
        g.add_edge_named(s, d, pick(&EDGE_LABELS, l)).unwrap();
    }
    for &(n, k, v) in &rg.attrs {
        let key = g.attr_key(pick(&KEYS, k));
        g.set_attr(pick(&nodes, n), key, Value::Int(v as i64 % 3))
            .unwrap();
    }
    g
}

/// One rule: a template and the selectors it draws names and values
/// from.
type RuleSpec = (u8, u8, u8, u8, u8);

/// Rule `i` of template `t`. Selectors pick two node labels, two edge
/// labels, two keys and two values, so a set can hold rules that enable
/// each other both ways, and a rule can enable itself.
fn rule_src(i: usize, &(t, p0, p1, p2, p3): &RuleSpec) -> String {
    let (la, lb) = (pick(&NODE_LABELS, p0), pick(&NODE_LABELS, p1));
    let (ea, eb) = (pick(&EDGE_LABELS, p2), pick(&EDGE_LABELS, p3));
    let (ka, kb) = (pick(&KEYS, p2 / 2), pick(&KEYS, p3 / 2));
    let (v1, v2) = (p0 / 2 % 3, p1 / 2 % 3);
    let body = match t % 14 {
        // Symmetric closure through a negative edge.
        0 => format!(
            "match (x:{la})-[{ea}]->(y:{lb}) where not (y)-[{eb}]->(x)
             repair insert edge (y)-[{eb}]->(x)"
        ),
        // Inserts an edge that may already exist: a no-op repair whose
        // match persists.
        1 => format!(
            "match (x:{la})-[{ea}]->(y:{lb})
             repair insert edge (y)-[{eb}]->(x)"
        ),
        2 => format!(
            "match (x:{la})-[{ea}]->(y:{lb})
             repair delete edge (x)-[{ea}]->(y)"
        ),
        // One match per in-edge, one repair per target.
        3 => format!(
            "match (x:{la})-[{ea}]->(y:{lb}) where missing(y.{ka})
             repair set y.{ka} = {v1}"
        ),
        // Two of these with swapped values are a cyclic pair; equal
        // values make a no-op.
        4 => format!(
            "match (x:{la}) where x.{ka} == {v1}
             repair set x.{ka} = {v2}"
        ),
        5 => format!(
            "match (x:{la}) where has(x.{ka}), not (x)-[{ea}]->(x)
             repair unset x.{ka}"
        ),
        6 => format!(
            "match (x:{la}) where x.{ka} == {v1}
             repair relabel node x to {lb}"
        ),
        7 => format!(
            "match (x:{la})-[{ea}]->(y:{lb})
             repair relabel edge (x)-[{ea}]->(y) to {eb}"
        ),
        8 => format!(
            "match (x:{la})-[{ea}]->(y:{lb}) where missing(y.{ka})
             repair delete node y"
        ),
        // Negative edges to or from any node: enabled by a deleted
        // neighbour.
        9 => {
            let no_edge = match p3 % 3 {
                0 => "not (x)-[*]->(*)".to_owned(),
                1 => format!("not (x)-[{ea}]->(*)"),
                _ => format!("not (*)-[{ea}]->(x)"),
            };
            format!(
                "match (x:{la}) where {no_edge}, missing(x.{ka})
                 repair set x.{ka} = {v1}"
            )
        }
        10 => format!(
            "match (x:{la}), (y:{la}) where x.{ka} == y.{ka}
             repair merge y into x"
        ),
        // Inserts a node and marks its own match away.
        11 => format!(
            "match (x:{la}) where missing(x.{kb})
             repair insert node (n:{lb} {{{ka}: {v1}}}); insert edge (x)-[{ea}]->(n); set x.{kb} = {v2}"
        ),
        // A negative edge between two joined, not adjacent, nodes.
        12 => format!(
            "match (x:{la}), (y:{lb}) where x.{ka} == y.{ka}, not (x)-[{ea}]->(y)
             repair insert edge (x)-[{ea}]->(y)"
        ),
        // Never falsifies its match: grows until the repair cap stops
        // it inside its stratum, or the churn guard on a cyclic set.
        _ => format!(
            "match (x:{la}) where x.{ka} == {v1}
             repair insert node (n:{lb})"
        ),
    };
    format!("rule r{i} [conflict] {body}\n")
}

fn rules_strategy() -> impl Strategy<Value = Vec<RuleSpec>> {
    let b = any::<u8>;
    prop::collection::vec((b(), b(), b(), b(), b()), 1..6)
}

fn build_rules(specs: &[RuleSpec]) -> Vec<Grr> {
    let src: String = specs
        .iter()
        .enumerate()
        .map(|(i, s)| rule_src(i, s))
        .collect();
    RuleSet::from_dsl("prop", &src)
        .unwrap_or_else(|e| panic!("generated rules must parse: {e}\n{src}"))
        .rules
}

/// An edit of a repaired graph: a kind and its selectors, taken modulo
/// the live population when it runs.
type Edit = (u8, u8, u8, u8);

fn edits_strategy() -> impl Strategy<Value = Vec<Edit>> {
    let b = any::<u8>;
    prop::collection::vec((b(), b(), b(), b()), 1..6)
}

/// Apply `edits` to `g` and return the nodes they touched — the node of
/// a node edit, both endpoints of an edge edit, the surviving neighbours
/// of a deleted node, and a merge's survivor plus the endpoints of its
/// rewired edges.
fn edit(g: &mut Graph, edits: &[Edit]) -> TouchSet {
    let mut touched = TouchSet::default();
    for &(kind, s0, s1, s2) in edits {
        let nodes: Vec<NodeId> = g.nodes().collect();
        let edges: Vec<EdgeId> = g.edges().collect();
        let node = |sel: u8| (!nodes.is_empty()).then(|| pick(&nodes, sel));
        let edge = |sel: u8| (!edges.is_empty()).then(|| pick(&edges, sel));
        match kind % 9 {
            0 => {
                touched.insert(g.add_node_named(pick(&NODE_LABELS, s0)));
            }
            1 => {
                if let (Some(s), Some(d)) = (node(s0), node(s1)) {
                    g.add_edge_named(s, d, pick(&EDGE_LABELS, s2)).unwrap();
                    touched.extend([s, d]);
                }
            }
            2 => {
                if let Some(e) = edge(s0) {
                    let er = g.edge(e).unwrap();
                    g.remove_edge(e).unwrap();
                    touched.extend([er.src, er.dst]);
                }
            }
            3 => {
                if let Some(n) = node(s0) {
                    let neighbours: Vec<NodeId> = g
                        .incident_edges(n)
                        .map(|e| g.edge(e).unwrap())
                        .map(|er| if er.src == n { er.dst } else { er.src })
                        .filter(|&m| m != n)
                        .collect();
                    g.remove_node(n).unwrap();
                    touched.extend(neighbours);
                }
            }
            4 => {
                if let Some(n) = node(s0) {
                    let key = g.attr_key(pick(&KEYS, s1));
                    g.set_attr(n, key, Value::Int(s2 as i64 % 3)).unwrap();
                    touched.insert(n);
                }
            }
            5 => {
                if let (Some(n), Some(key)) = (node(s0), g.try_attr_key(pick(&KEYS, s1))) {
                    g.remove_attr(n, key).unwrap();
                    touched.insert(n);
                }
            }
            6 => {
                if let Some(n) = node(s0) {
                    let label = g.label(pick(&NODE_LABELS, s1));
                    g.set_node_label(n, label).unwrap();
                    touched.insert(n);
                }
            }
            7 => {
                if let Some(e) = edge(s0) {
                    let label = g.label(pick(&EDGE_LABELS, s1));
                    let er = g.edge(e).unwrap();
                    g.set_edge_label(e, label).unwrap();
                    touched.extend([er.src, er.dst]);
                }
            }
            _ => {
                if let (Some(keep), Some(merged)) = (node(s0), node(s1)) {
                    if keep != merged {
                        let outcome = g.merge_nodes(keep, merged, true).unwrap();
                        touched.insert(keep);
                        for e in outcome.rewired {
                            let er = g.edge(e).unwrap();
                            touched.extend([er.src, er.dst]);
                        }
                    }
                }
            }
        }
    }
    touched
}

/// Repair `g` from `seed`; returns the report, the applied ops and how
/// many times a stratum re-matched its own rules meanwhile.
fn repair(
    g: &mut Graph,
    rules: &[Grr],
    seed: RepairSeed<'_>,
) -> (RepairReport, Vec<AppliedOp>, u64) {
    repair_by(&RepairEngine::default(), g, rules, seed)
}

fn repair_by(
    engine: &RepairEngine,
    g: &mut Graph,
    rules: &[Grr],
    seed: RepairSeed<'_>,
) -> (RepairReport, Vec<AppliedOp>, u64) {
    let rematches = grepair_obs::counter("engine.stratum_rematches");
    let before = rematches.get();
    let mut ops: Vec<AppliedOp> = Vec::new();
    let sink = |round: &[AppliedOp]| ops.extend_from_slice(round);
    let report = engine.repair_with(g, rules, &Planner::new(), seed, sink);
    (report, ops, rematches.get() - before)
}

/// The residue's count is the graph's count; an acyclic set's strata
/// never re-match their own rules.
fn check(
    g: &Graph,
    rules: &[Grr],
    report: &RepairReport,
    rematches: u64,
) -> Result<(), TestCaseError> {
    prop_assert!(!report.outcome.is_budget_trip());
    let fresh = RepairEngine::default().count_violations(g, rules);
    prop_assert_eq!(
        report.violations_remaining,
        fresh,
        "outcome {}",
        report.outcome
    );
    prop_assert_eq!(report.converged, fresh == 0);
    if report.strata > 0 {
        prop_assert_eq!(rematches, 0, "a stratum re-matched its own rules");
    }
    prop_assert!(g.check_invariants().is_ok());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn violations_remaining_is_a_fresh_count(
        rg in graph_strategy(),
        specs in rules_strategy(),
        edits in edits_strategy(),
    ) {
        let rules = build_rules(&specs);
        let mut g = build_graph(&rg);
        let (report, _, rematches) = repair(&mut g, &rules, RepairSeed::Full);
        check(&g, &rules, &report, rematches)?;
        if !(report.converged && report.outcome == RepairOutcome::Completed) {
            return Ok(());
        }

        // From the clean graph, edited: a delta seed and a full seed
        // find the same violations and apply the same ops.
        let touched = edit(&mut g, &edits);
        let mut full = g.clone();
        let (full_report, full_ops, rematches) = repair(&mut full, &rules, RepairSeed::Full);
        check(&full, &rules, &full_report, rematches)?;
        let (delta_report, delta_ops, rematches) =
            repair(&mut g, &rules, RepairSeed::Touched(&touched));
        check(&g, &rules, &delta_report, rematches)?;
        prop_assert_eq!(delta_report.outcome, full_report.outcome);
        prop_assert_eq!(delta_ops, full_ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A budget can trip inside a search the worklist never observes at
    /// a pop — the re-match after the repair that reaches an op cap, a
    /// cancel at one of the matcher's own checkpoints — leaving the
    /// residue partial. Such a run must end on the trip; one that does
    /// not must count what a fresh count finds.
    #[test]
    fn a_budget_trip_is_never_a_fixpoint(
        rg in graph_strategy(),
        specs in rules_strategy(),
        cap in (any::<bool>(), 1u64..24),
    ) {
        let (cancel, n) = cap;
        let rules = build_rules(&specs);
        let mut g = build_graph(&rg);
        let budget = match cancel {
            true => grepair_obs::Budget::unlimited().cancel_at_check(n),
            false => grepair_obs::Budget::unlimited().with_op_cap(n),
        };
        let engine = RepairEngine::default().with_budget(&budget);
        let (report, _, rematches) = repair_by(&engine, &mut g, &rules, RepairSeed::Full);
        if report.outcome.is_budget_trip() {
            prop_assert!(!report.converged);
            prop_assert_eq!(report.violations_remaining, 0);
            prop_assert!(g.check_invariants().is_ok());
        } else {
            check(&g, &rules, &report, rematches)?;
        }
    }
}

/// The outcome mix the generator reaches, so that a change to it cannot
/// silently stop exercising a residue source.
#[test]
fn generated_runs_reach_every_ending() {
    let (mut cyclic, mut acyclic, mut residual, mut capped, mut clean) = (0, 0, 0, 0, 0);
    for case in 0..160 {
        let mut runner = proptest::TestRunner::new("generated_runs_reach_every_ending", case);
        let rules = build_rules(&rules_strategy().generate(&mut runner));
        let mut g = build_graph(&graph_strategy().generate(&mut runner));
        let (report, _, _) = repair(&mut g, &rules, RepairSeed::Full);
        match report.strata {
            0 => cyclic += 1,
            _ => acyclic += 1,
        }
        match report.outcome {
            RepairOutcome::RoundLimit => capped += 1,
            _ if report.converged => clean += 1,
            _ => residual += 1,
        }
    }
    let mix = [cyclic, acyclic, residual, capped, clean];
    assert!(
        mix.iter().all(|&n| n > 0),
        "cyclic/acyclic/residual/capped/clean: {mix:?}"
    );
}
