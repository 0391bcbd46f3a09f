//! Golden op sequences of the engine's two schedules.
//!
//! The arbitration queue and the trigger filter decide *which* repair
//! lands next and *which* matches are re-discovered, so any change to one
//! of them that is not order-preserving moves these pins. Each run has
//! two: a hash over every applied operation (ids included), in order, and
//! each rule's `matches_found` as a literal. The worklist's op hash was
//! computed with one `BinaryHeap<Violation>` as the queue and a linear
//! walk over Σ as the filter; the stratified one with a round loop that
//! scanned each stratum and applied its violations cheapest-first. The
//! one worklist that now runs both schedules must reproduce them bit for
//! bit.
//!
//! `matches_found` counts the violations queued, one per (rule, footprint
//! binding). Its pins moved when the queue stopped holding one entry per
//! existential witness (`syn_fire_7` and `syn_fire_15` each read 7 897
//! before, 1 509 after); the op hashes did not, because the witness kept
//! per binding is the one the old queue popped first.

use grepair_core::{
    parse_rules, AppliedOp, Grr, Planner, RepairEngine, RepairOutcome, RepairReport, RepairSeed,
};
use grepair_gen::{
    generate_kg, gold_kg_rules, inject_kg_noise, synthetic_rules, KgConfig, NoiseConfig,
};
use grepair_graph::{Graph, Value};

/// FNV-1a — stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Repair `g` to fixpoint, collecting the applied ops with a closure sink.
fn repair_logged(g: &mut Graph, rules: &[Grr]) -> (RepairReport, Vec<AppliedOp>) {
    let mut ops = Vec::new();
    let sink = |round: &[AppliedOp]| ops.extend_from_slice(round);
    let report =
        RepairEngine::default().repair_with(g, rules, &Planner::new(), RepairSeed::Full, sink);
    (report, ops)
}

/// `(ops applied, fnv1a(ops))` of a finished run.
fn digest((report, ops): &(RepairReport, Vec<AppliedOp>)) -> (usize, u64) {
    assert_eq!(report.outcome, RepairOutcome::Completed);
    assert!(report.converged);
    assert_eq!(report.ops_applied, ops.len());
    (ops.len(), fnv1a(format!("{:?}", ops).as_bytes()))
}

/// Each rule's `matches_found`, in rule order.
fn found((report, _): &(RepairReport, Vec<AppliedOp>)) -> Vec<usize> {
    report.per_rule.iter().map(|s| s.matches_found).collect()
}

/// A seeded noisy 2 000-person KG and a cyclic 26-rule set over it.
fn seeded_kg() -> (Graph, Vec<Grr>) {
    let seed = 20_180_416;
    let (mut g, refs) = generate_kg(&KgConfig {
        seed,
        ..KgConfig::with_persons(2_000)
    });
    inject_kg_noise(
        &mut g,
        &refs,
        &NoiseConfig {
            seed,
            ..NoiseConfig::default()
        },
    );
    let mut rules: Vec<Grr> = gold_kg_rules().rules;
    rules.extend(synthetic_rules(16).rules);
    (g, rules)
}

#[test]
fn worklist_op_sequence_is_pinned() {
    let (mut g, rules) = seeded_kg();
    let run = repair_logged(&mut g, &rules);
    assert_eq!(run.0.strata, 0, "the set is cyclic: the worklist must run");
    assert_eq!(digest(&run), (3240, 6_981_751_195_945_549_861));
    // The gold rules, then `syn_scan_0`…`syn_scan_6`, `syn_fire_7`,
    // `syn_scan_8`…`syn_scan_14`, `syn_fire_15`.
    let gold = [52, 18, 25, 19, 20, 0, 6, 22, 153, 132];
    let synthetic = [0, 0, 0, 0, 0, 0, 0, 1509, 0, 0, 0, 0, 0, 0, 0, 1509];
    assert_eq!(found(&run), [&gold[..], &synthetic[..]].concat());
}

#[test]
fn stratified_op_sequence_is_pinned() {
    // An 8-stage attribute cascade: stage i sets a{i+1} wherever a{i} is
    // present and a{i+1} missing, so the trigger graph is a chain.
    let src: String = (0..8)
        .map(|i| {
            format!(
                "rule stage{i} [incompleteness]
                 match (x:T) where has(x.a{i}), missing(x.a{next})
                 repair set x.a{next} = true\n",
                next = i + 1
            )
        })
        .collect();
    let rules = parse_rules(&src).unwrap();
    let mut g = Graph::new();
    let a0 = g.attr_key("a0");
    for _ in 0..3_000 {
        let node = g.add_node_named("T");
        g.set_attr(node, a0, Value::Bool(true)).unwrap();
    }
    let run = repair_logged(&mut g, &rules);
    assert!(run.0.strata > 0, "the set is acyclic: strata must run");
    assert_eq!(digest(&run), (24_000, 4_689_357_107_826_199_073));
    assert_eq!(found(&run), [3000; 8]);
}
