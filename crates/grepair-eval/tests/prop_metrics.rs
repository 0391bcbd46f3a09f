//! Property tests for the quality metrics: bounds, monotonicity, and the
//! perfect/no-op calibration points, across random pipeline instances.

use grepair_core::{AppliedOp, Grr, Planner, RepairEngine, RepairReport, RepairSeed};
use grepair_eval::{delete_only_rules, evaluate_repair};
use grepair_gen::{generate_kg, gold_kg_rules, inject_kg_noise, KgConfig, NoiseConfig};
use grepair_graph::Graph;
use proptest::prelude::*;

/// Repair `g` to fixpoint, collecting the applied ops with a closure sink.
fn repair_logged(g: &mut Graph, rules: &[Grr]) -> (RepairReport, Vec<AppliedOp>) {
    let mut ops = Vec::new();
    let sink = |round: &[AppliedOp]| ops.extend_from_slice(round);
    let report =
        RepairEngine::default().repair_with(g, rules, &Planner::new(), RepairSeed::Full, sink);
    (report, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Metric bounds hold on arbitrary pipeline instances, for both the
    /// gold repair and the delete-only baseline.
    #[test]
    fn metric_bounds(
        persons in 60usize..180,
        rate in 0.02f64..0.2,
        seed in 0u64..300,
    ) {
        let (clean, refs) = generate_kg(&KgConfig { seed, ..KgConfig::with_persons(persons) });
        let mut dirty = clean.clone();
        let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig { rate, seed, ..NoiseConfig::default() });
        let gold = gold_kg_rules();

        for method in 0..2 {
            let mut g = dirty.clone();
            let (_, ops) = if method == 0 {
                repair_logged(&mut g, &gold.rules)
            } else {
                let del = delete_only_rules(&gold);
                repair_logged(&mut g, &del.rules)
            };
            let q = evaluate_repair(&clean, &dirty, &g, &truth, &ops);
            prop_assert!((0.0..=1.0).contains(&q.precision), "{q:?}");
            prop_assert!((0.0..=1.0).contains(&q.recall), "{q:?}");
            prop_assert!((0.0..=1.0).contains(&q.f1), "{q:?}");
            prop_assert!(q.correct <= q.made, "{q:?}");
            prop_assert!(q.correct <= q.needed, "{q:?}");
            prop_assert!(q.needed > 0, "noise must require edits");
        }
    }

    /// Calibration: the no-op repair has recall 0 / vacuous precision 1;
    /// a repaired graph equal to the clean graph scores a perfect F1.
    #[test]
    fn calibration_points(
        persons in 60usize..150,
        seed in 0u64..300,
    ) {
        let (clean, refs) = generate_kg(&KgConfig { seed, ..KgConfig::with_persons(persons) });
        let mut dirty = clean.clone();
        let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig { seed, ..NoiseConfig::default() });

        let noop = evaluate_repair(&clean, &dirty, &dirty, &truth, &[]);
        prop_assert_eq!(noop.recall, 0.0);
        prop_assert_eq!(noop.precision, 1.0);
        prop_assert_eq!(noop.made, 0);

        // The gold repair on this workload reconstructs the clean graph's
        // canonical triples; F1 is high (≥0.9 at these scales).
        let gold = gold_kg_rules();
        let mut g = dirty.clone();
        let (_, ops) = repair_logged(&mut g, &gold.rules);
        let q = evaluate_repair(&clean, &dirty, &g, &truth, &ops);
        prop_assert!(q.f1 >= 0.9, "{q:?}");
    }
}
