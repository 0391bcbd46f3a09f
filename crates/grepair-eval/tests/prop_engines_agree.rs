//! Differential property suite: the engine against the textbook rescan
//! loop.
//!
//! On generated knowledge-graph scenarios with injected noise and
//! (already dirty) social scenarios, the engine over the optimized and
//! the unoptimized matcher, and [`rescan_repair`] over both, must:
//!
//! - converge, by their own verdict and by one canonical counter's;
//! - leave a structurally valid graph (`check_invariants`);
//! - agree on the repaired graph's shape (node/edge counts — element ids
//!   may differ between loops, the content may not).
//!
//! Sizes are kept small because the unoptimized matcher (no indexes, no
//! join ordering) is intentionally exponential-ish; the point here is
//! differential coverage, not throughput.

use grepair_core::{Grr, RepairEngine};
use grepair_eval::rescan_repair;
use grepair_gen::{
    generate_kg, generate_social, gold_kg_rules, inject_kg_noise, social_rules, KgConfig,
    NoiseConfig, SocialConfig,
};
use grepair_graph::Graph;
use grepair_match::MatchConfig;
use proptest::prelude::*;

/// Repair `base` with every loop and matcher and cross-check the outcomes.
fn assert_engines_agree(base: &Graph, rules: &[Grr], ctx: &str) -> Result<(), TestCaseError> {
    // One canonical counter for residuals, so a loop's matcher
    // configuration cannot mask a divergence.
    let canonical = RepairEngine::default();
    let mut outcomes = Vec::new();
    for (name, matcher) in [("", MatchConfig::default()), ("-naive", MatchConfig::naive())] {
        let mut engine_g = base.clone();
        let report = RepairEngine::new(matcher).repair(&mut engine_g, rules);
        let mut rescan_g = base.clone();
        let rescan = rescan_repair(&mut rescan_g, rules, matcher, 64);
        for (loop_name, g, converged) in [
            ("engine", &engine_g, report.converged),
            ("rescan", &rescan_g, rescan.converged),
        ] {
            prop_assert!(
                g.check_invariants().is_ok(),
                "{ctx}/{loop_name}{name}: invariants broken: {:?}",
                g.check_invariants()
            );
            let residual = canonical.count_violations(g, rules);
            prop_assert!(
                converged && residual == 0,
                "{ctx}/{loop_name}{name}: residual {residual} violations"
            );
            outcomes.push((loop_name, name, g.num_nodes(), g.num_edges()));
        }
    }
    let (_, _, n0, e0) = outcomes[0];
    for (loop_name, name, n, e) in &outcomes {
        let diverged = format!("{ctx}/{loop_name}{name} diverged: {outcomes:?}");
        prop_assert_eq!((*n, *e), (n0, e0), "{}", diverged);
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
