//! End-to-end knowledge-graph cleaning: generate a clean KG, inject the
//! paper's three inconsistency classes, repair with the gold GRR catalog,
//! and score the repair against ground truth — including the delete-only
//! baseline for contrast.
//!
//! ```text
//! cargo run --release --example knowledge_graph_cleaning
//! ```

use grepair_core::{AppliedOp, Planner, RepairEngine, RepairSeed};
use grepair_eval::{delete_only_rules, evaluate_repair};
use grepair_gen::{generate_kg, gold_kg_rules, inject_kg_noise, KgConfig, NoiseConfig};
use grepair_graph::GraphStats;

fn main() {
    let persons = 2_000;
    println!("generating clean KG with {persons} persons…");
    let (clean, refs) = generate_kg(&KgConfig::with_persons(persons));
    println!("  {}", GraphStats::compute(&clean));

    let mut dirty = clean.clone();
    let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
    let (inc, con, red) = truth.class_counts();
    println!(
        "injected {} errors (incompleteness {inc}, conflict {con}, redundancy {red})",
        truth.len()
    );

    let gold = gold_kg_rules();
    let engine = RepairEngine::default();
    println!(
        "violations detected: {}",
        engine.count_violations(&dirty, &gold.rules)
    );

    // Semantic repair with the gold GRR catalog. Scoring needs the op
    // log (merges map removed nodes to their survivors), which a closure
    // sink collects one applied repair at a time.
    let mut repaired = dirty.clone();
    let mut ops: Vec<AppliedOp> = Vec::new();
    let sink = |round: &[AppliedOp]| ops.extend_from_slice(round);
    let (planner, full) = (Planner::new(), RepairSeed::Full);
    let report = engine.repair_with(&mut repaired, &gold.rules, &planner, full, sink);
    let q = evaluate_repair(&clean, &dirty, &repaired, &truth, &ops);
    println!(
        "\nGRR repair ({} repairs, {:?}):",
        report.repairs_applied, report.wall
    );
    println!(
        "  precision {:.3}  recall {:.3}  F1 {:.3}  (made {} / needed {})",
        q.precision, q.recall, q.f1, q.made, q.needed
    );

    // Delete-only baseline: same detection, destructive repair.
    let mut deleted = dirty.clone();
    let del_rules = delete_only_rules(&gold);
    let mut del_ops: Vec<AppliedOp> = Vec::new();
    let sink = |round: &[AppliedOp]| del_ops.extend_from_slice(round);
    let del_report =
        engine.repair_with(&mut deleted, &del_rules.rules, &Planner::new(), full, sink);
    let qd = evaluate_repair(&clean, &dirty, &deleted, &truth, &del_ops);
    println!(
        "\ndelete-only baseline ({} repairs):",
        del_report.repairs_applied
    );
    println!(
        "  precision {:.3}  recall {:.3}  F1 {:.3}",
        qd.precision, qd.recall, qd.f1
    );

    assert!(report.converged, "gold repair must converge");
    assert!(q.f1 > qd.f1, "semantic repair must beat deletion");
    println!(
        "\nsemantic repair beats deletion by ΔF1 = {:.3}",
        q.f1 - qd.f1
    );
}
