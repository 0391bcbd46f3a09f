//! The reproduction contract as executable assertions: the qualitative
//! *shapes* of the reconstructed evaluation must hold (the tables the
//! `experiments` binary prints; see the README's "Paper experiments").

use grepair_core::{EngineConfig, RepairEngine};
use grepair_eval::{delete_only_rules, evaluate_repair, random_repair};
use grepair_gen::{generate_kg, gold_kg_rules, inject_kg_noise, KgConfig, NoiseConfig};
use std::time::Instant;

/// F1 shape: GRR dominates the baselines in F-measure at every noise rate.
#[test]
fn grr_dominates_baselines_across_noise_rates() {
    let gold = gold_kg_rules();
    for rate in [0.05, 0.1, 0.2] {
        let (clean, refs) = generate_kg(&KgConfig::with_persons(400));
        let mut dirty = clean.clone();
        let truth = inject_kg_noise(
            &mut dirty,
            &refs,
            &NoiseConfig {
                rate,
                seed: 21,
                ..NoiseConfig::default()
            },
        );

        let mut g = dirty.clone();
        let rep = RepairEngine::default().repair(&mut g, &gold.rules);
        let q_grr = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);

        let mut g = dirty.clone();
        let del = delete_only_rules(&gold);
        let rep = RepairEngine::default().repair(&mut g, &del.rules);
        let q_del = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);

        let mut g = dirty.clone();
        let rep = random_repair(&mut g, &gold.rules, 13, 64);
        let q_rnd = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);

        assert!(
            q_grr.f1 > q_del.f1 && q_del.f1 > q_rnd.f1,
            "rate {rate}: expected grr ({:.3}) > delete-only ({:.3}) > random ({:.3})",
            q_grr.f1,
            q_del.f1,
            q_rnd.f1
        );
    }
}

/// F3 shape: at growing |G|, the incremental engine's advantage over the
/// naive full-matcher engine grows.
#[test]
fn incremental_speedup_grows_with_graph_size() {
    let gold = gold_kg_rules();
    let mut speedups = Vec::new();
    for persons in [200usize, 800] {
        let (clean, refs) = generate_kg(&KgConfig::with_persons(persons));
        let mut dirty = clean.clone();
        inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());

        let mut g = dirty.clone();
        let t0 = Instant::now();
        let rep = RepairEngine::default().repair(&mut g, &gold.rules);
        let inc = t0.elapsed();
        assert!(rep.converged);

        let mut g = dirty.clone();
        let t0 = Instant::now();
        RepairEngine::new(EngineConfig::naive()).repair(&mut g, &gold.rules);
        let naive = t0.elapsed();

        speedups.push(naive.as_secs_f64() / inc.as_secs_f64().max(1e-9));
    }
    assert!(
        speedups[1] > speedups[0],
        "speedup must grow with |G|: {speedups:?}"
    );
    assert!(speedups[1] > 2.0, "large-graph speedup too small: {speedups:?}");
}

/// F7 shape: GRR repairs make fewer, better-targeted edits than the
/// delete-only baseline.
#[test]
fn grr_edits_are_closer_to_ground_truth() {
    let gold = gold_kg_rules();
    let (clean, refs) = generate_kg(&KgConfig::with_persons(400));
    let mut dirty = clean.clone();
    let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());

    let mut g = dirty.clone();
    let rep = RepairEngine::default().repair(&mut g, &gold.rules);
    let q_grr = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);

    let mut g = dirty.clone();
    let del = delete_only_rules(&gold);
    let rep = RepairEngine::default().repair(&mut g, &del.rules);
    let q_del = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);

    // GRR's made-edits are nearly all needed; delete-only wastes edits.
    let waste_grr = q_grr.made - q_grr.correct;
    let waste_del = q_del.made - q_del.correct;
    assert!(
        waste_grr < waste_del,
        "grr wasted {waste_grr} edits, delete-only {waste_del}"
    );
    assert!(q_grr.correct >= q_del.correct);
}

/// Determinism: the whole pipeline is reproducible end to end.
#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let gold = gold_kg_rules();
        let (clean, refs) = generate_kg(&KgConfig::with_persons(300));
        let mut dirty = clean.clone();
        let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
        let mut g = dirty.clone();
        let rep = RepairEngine::default().repair(&mut g, &gold.rules);
        let q = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);
        (rep.repairs_applied, q.made, q.correct, g.to_doc().to_json())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3, "final graphs must be byte-identical");
}
