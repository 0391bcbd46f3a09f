//! Cross-crate integration: the full clean → noise → repair → metrics
//! pipeline, per inconsistency class and mixed.

use grepair_core::{AppliedOp, Planner, RepairEngine, RepairSeed, RuleSet};
use grepair_eval::evaluate_repair;
use grepair_gen::{
    generate_kg, gold_kg_rules, inject_kg_noise, ErrorClass, KgConfig, NoiseConfig,
};

fn run_class(class: Option<ErrorClass>, rate: f64, seed: u64) -> (bool, f64, f64, f64) {
    let (clean, refs) = generate_kg(&KgConfig::with_persons(400));
    let mut dirty = clean.clone();
    let cfg = match class {
        Some(c) => NoiseConfig::single_class(c, rate, seed),
        None => NoiseConfig {
            rate,
            seed,
            ..NoiseConfig::default()
        },
    };
    let truth = inject_kg_noise(&mut dirty, &refs, &cfg);
    assert!(!truth.is_empty(), "noise must inject something");

    let mut repaired = dirty.clone();
    let rules = gold_kg_rules();
    let mut ops = Vec::new();
    let sink = |round: &[AppliedOp]| ops.extend_from_slice(round);
    let (planner, full) = (Planner::new(), RepairSeed::Full);
    let report =
        RepairEngine::default().repair_with(&mut repaired, &rules.rules, &planner, full, sink);
    repaired.check_invariants().expect("invariants after repair");
    let q = evaluate_repair(&clean, &dirty, &repaired, &truth, &ops);
    (report.converged, q.precision, q.recall, q.f1)
}

#[test]
fn incompleteness_pipeline() {
    let (converged, p, r, f1) = run_class(Some(ErrorClass::Incompleteness), 0.1, 1);
    assert!(converged);
    assert!(p > 0.95, "precision {p}");
    assert!(r > 0.95, "recall {r}");
    assert!(f1 > 0.95, "f1 {f1}");
}

#[test]
fn conflict_pipeline() {
    let (converged, p, r, f1) = run_class(Some(ErrorClass::Conflict), 0.1, 2);
    assert!(converged);
    assert!(p > 0.9, "precision {p}");
    assert!(r > 0.9, "recall {r}");
    assert!(f1 > 0.9, "f1 {f1}");
}

#[test]
fn redundancy_pipeline() {
    let (converged, p, r, f1) = run_class(Some(ErrorClass::Redundancy), 0.1, 3);
    assert!(converged);
    assert!(p > 0.9, "precision {p}");
    assert!(r > 0.9, "recall {r}");
    assert!(f1 > 0.9, "f1 {f1}");
}

#[test]
fn mixed_pipeline_multiple_seeds() {
    for seed in [1, 2, 3, 4] {
        let (converged, _, _, f1) = run_class(None, 0.12, seed);
        assert!(converged, "seed {seed} did not converge");
        assert!(f1 > 0.9, "seed {seed}: f1 {f1}");
    }
}

#[test]
fn repair_then_renoise_then_repair() {
    // A repaired graph can be re-noised and re-repaired — the engine does
    // not depend on pristine generator state.
    let (clean, refs) = generate_kg(&KgConfig::with_persons(300));
    let mut g = clean.clone();
    let rules = gold_kg_rules();
    let engine = RepairEngine::default();
    for round in 0..3 {
        inject_kg_noise(
            &mut g,
            &refs,
            &NoiseConfig {
                rate: 0.05,
                seed: 100 + round,
                ..NoiseConfig::default()
            },
        );
        let report = engine.repair(&mut g, &rules.rules);
        assert!(report.converged, "round {round}");
        g.check_invariants().unwrap();
    }
}

#[test]
fn dsl_rule_set_round_trips_through_json_and_still_repairs() {
    let rules = gold_kg_rules();
    let json = rules.to_json();
    let rules2 = RuleSet::from_json(&json).expect("round trip");
    assert_eq!(rules, rules2);

    let (clean, refs) = generate_kg(&KgConfig::with_persons(200));
    let mut dirty = clean.clone();
    inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
    let report = RepairEngine::default().repair(&mut dirty, &rules2.rules);
    assert!(report.converged);
}
