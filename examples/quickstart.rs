//! Quickstart: define a graph, write three repairing rules, repair.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use grepair_core::{AppliedOp, Planner, RepairEngine, RepairSeed, RuleSet};
use grepair_graph::{Graph, Value};

fn main() {
    // A tiny knowledge graph with one error of each class.
    let mut g = Graph::new();
    let ssn = g.attr_key("ssn");

    // Ann lives in Oslo, Oslo is in Norway — but Ann's citizenship is
    // missing (incompleteness).
    let ann = g.add_node_named("Person");
    g.set_attr(ann, ssn, Value::Int(1)).unwrap();
    let oslo = g.add_node_named("City");
    let norway = g.add_node_named("Country");
    g.add_edge_named(ann, oslo, "livesIn").unwrap();
    g.add_edge_named(oslo, norway, "inCountry").unwrap();

    // Bob is married to himself (conflict).
    let bob = g.add_node_named("Person");
    g.set_attr(bob, ssn, Value::Int(2)).unwrap();
    g.add_edge_named(bob, bob, "marriedTo").unwrap();

    // Ann appears twice (redundancy).
    let ann2 = g.add_node_named("Person");
    g.set_attr(ann2, ssn, Value::Int(1)).unwrap();
    g.add_edge_named(ann2, oslo, "livesIn").unwrap();

    println!("before: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // Three Graph Repairing Rules, one per inconsistency class.
    let rules = RuleSet::from_dsl(
        "quickstart",
        r#"
        rule add_citizenship [incompleteness]
        match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
        where not (x)-[citizenOf]->(k)
        repair insert edge (x)-[citizenOf]->(k)

        rule no_self_marriage [conflict]
        match (x:Person)-[marriedTo]->(x)
        repair delete edge (x)-[marriedTo]->(x)

        rule dedup_person [redundancy]
        match (x:Person), (y:Person)
        where x.ssn == y.ssn
        repair merge y into x
        "#,
    )
    .expect("rules parse");

    // The engine hands each applied repair's operations to a sink, once,
    // as one round; the report carries only counts. A closure that keeps
    // every round is the run's op log.
    let mut log: Vec<AppliedOp> = Vec::new();
    let sink = |round: &[AppliedOp]| log.extend_from_slice(round);
    let (planner, full) = (Planner::new(), RepairSeed::Full);
    let report = RepairEngine::default().repair_with(&mut g, &rules.rules, &planner, full, sink);

    println!("after:  {} nodes, {} edges", g.num_nodes(), g.num_edges());
    println!(
        "repairs applied: {} (converged: {}, total edit cost {:.1})",
        report.repairs_applied, report.converged, report.total_cost
    );
    for s in &report.per_rule {
        println!(
            "  {:<20} matches {:>2}  repairs {:>2}  cost {:>4.1}",
            s.name, s.matches_found, s.repairs_applied, s.cost
        );
    }
    assert_eq!(log.len(), report.ops_applied);
    for op in &log {
        println!("  op: {op:?}");
    }
    assert!(report.converged);
}
