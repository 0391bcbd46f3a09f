//! Cross-engine differential property suite.
//!
//! On generated knowledge-graph scenarios with injected noise and
//! (already dirty) social scenarios, every engine configuration — Naive,
//! NaiveWithIndexes, Incremental, and the parallel sweep — must:
//!
//! - converge, and agree on the residual violation count as measured by
//!   one canonical counter;
//! - leave a structurally valid graph (`check_invariants`);
//! - agree on the repaired graph's shape (node/edge counts — element ids
//!   may differ between engines, the content may not).
//!
//! Sizes are kept small because the fully naive engine (no indexes, no
//! join ordering) is intentionally exponential-ish; the point here is
//! differential coverage, not throughput.

use grepair_core::{EngineConfig, RepairEngine};
use grepair_gen::{
    generate_kg, generate_social, gold_kg_rules, inject_kg_noise, social_rules, KgConfig,
    NoiseConfig, SocialConfig,
};
use grepair_graph::Graph;
use grepair_core::Grr;
use proptest::prelude::*;

/// Every engine configuration under differential test, labelled.
fn engine_matrix() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("incremental", EngineConfig::default()),
        ("naive-indexed", EngineConfig::naive_with_indexes()),
        ("naive-full", EngineConfig::naive()),
        (
            "parallel-sweep",
            EngineConfig {
                parallel: true,
                ..EngineConfig::default()
            },
        ),
    ]
}

/// Repair `base` under every configuration and cross-check the outcomes.
fn assert_engines_agree(base: &Graph, rules: &[Grr], ctx: &str) -> Result<(), TestCaseError> {
    // One canonical counter for residuals, so engine-specific matcher
    // configuration cannot mask a divergence.
    let canonical = RepairEngine::default();
    let mut outcomes = Vec::new();
    for (name, cfg) in engine_matrix() {
        let mut g = base.clone();
        let report = RepairEngine::new(cfg).repair(&mut g, rules);
        prop_assert!(
            g.check_invariants().is_ok(),
            "{ctx}/{name}: invariants broken: {:?}",
            g.check_invariants()
        );
        let residual = canonical.count_violations(&g, rules);
        prop_assert_eq!(
            residual,
            report.violations_remaining,
            "{}/{}: engine's own residual count disagrees with canonical",
            ctx,
            name
        );
        prop_assert!(
            report.converged,
            "{ctx}/{name}: residual {residual} violations"
        );
        outcomes.push((name, residual, g.num_nodes(), g.num_edges()));
    }
    let (_, r0, n0, e0) = outcomes[0];
    for (name, r, n, e) in &outcomes {
        prop_assert_eq!(
            (*r, *n, *e),
            (r0, n0, e0),
            "{}/{} diverged: {:?}",
            ctx,
            name,
            outcomes
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// KG scenarios: clean generation + mixed-class noise injection.
    #[test]
    fn engines_agree_on_noisy_kg(
        persons in 8usize..28,
        gen_seed in 0u64..1_000,
        noise_seed in 0u64..1_000,
        rate in 0.05f64..0.3,
    ) {
        let (mut g, refs) = generate_kg(&KgConfig {
            seed: gen_seed,
            ..KgConfig::with_persons(persons)
        });
        inject_kg_noise(
            &mut g,
            &refs,
            &NoiseConfig {
                rate,
                seed: noise_seed,
                ..NoiseConfig::default()
            },
        );
        let rules = gold_kg_rules();
        assert_engines_agree(&g, &rules.rules, &format!("kg-{persons}p"))?;
    }

    /// Social scenarios: the generator's built-in dirt (duplicate
    /// handles, bots, self-follows, missing names).
    #[test]
    fn engines_agree_on_dirty_social(
        accounts in 8usize..24,
        seed in 0u64..1_000,
    ) {
        let (g, _) = generate_social(&SocialConfig {
            accounts,
            seed,
            ..SocialConfig::default()
        });
        let rules = social_rules();
        assert_engines_agree(&g, &rules.rules, &format!("social-{accounts}a"))?;
    }
}
