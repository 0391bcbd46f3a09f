//! Stratified-scheduling property suite: the engine against the
//! textbook rescan loop on acyclic rule sets.
//!
//! On randomly generated *acyclic* cascade rule sets over KG and social
//! substrates:
//!
//! - the analysis must prove the trigger graph acyclic and the engine
//!   must schedule the run into one topological stratum per layer;
//! - the run must terminate and converge even though the stratified path
//!   carries no churn guard and does not cap its seed and cascade work,
//!   also past the depth at which the cyclic worklist's `10·(|V|+|E|+1)`
//!   cap would stop it;
//! - its repaired document must equal the one [`rescan_repair`] — which
//!   has no schedule and no guard, only rounds of full scans — reaches.

use grepair_core::{stratify, trigger_graph, RepairEngine, RuleSet};
use grepair_eval::rescan_repair;
use grepair_gen::{generate_kg, generate_social, KgConfig, SocialConfig};
use grepair_graph::{Graph, Value};
use grepair_match::MatchConfig;
use proptest::prelude::*;

/// Deterministically derive a layered cascade rule set from `seed`:
/// `stages` layers of 1–3 rules each, every rule guarded by one attribute
/// of the previous layer and filling one attribute of its own layer. The
/// attribute flow is strictly forward, so the trigger graph is a DAG.
fn cascade_rules(label: &str, stages: usize, seed: u64) -> RuleSet {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize) % bound.max(1)
    };
    let mut widths = vec![1usize];
    for _ in 1..stages {
        widths.push(1 + next(3));
    }
    let mut src = String::new();
    for (stage, &width) in widths.iter().enumerate() {
        for slot in 0..width {
            if stage == 0 {
                src.push_str(&format!(
                    "rule seed{slot} [incompleteness]
                     match (x:{label})
                     where missing(x.s0_{slot})
                     repair set x.s0_{slot} = true\n"
                ));
            } else {
                let from = next(widths[stage - 1]);
                src.push_str(&format!(
                    "rule fill{stage}_{slot} [incompleteness]
                     match (x:{label})
                     where has(x.s{prev}_{from}), missing(x.s{stage}_{slot})
                     repair set x.s{stage}_{slot} = true\n",
                    prev = stage - 1,
                ));
            }
        }
    }
    RuleSet::from_dsl("cascade", &src).expect("cascade DSL must parse")
}

/// The stratified run must terminate churn-free and reach the rescan
/// loop's fixpoint.
fn assert_stratified_agrees(base: &Graph, rules: &RuleSet, stages: usize, ctx: &str) -> Result<(), TestCaseError> {
    let strata = stratify(&trigger_graph(&rules.rules));
    prop_assert!(strata.is_some(), "{ctx}: cascade must be acyclic");
    prop_assert_eq!(strata.unwrap().len(), stages, "{}: one stratum per layer", ctx);

    let mut g1 = base.clone();
    let strat = RepairEngine::default().repair(&mut g1, &rules.rules);
    prop_assert_eq!(strat.strata, stages, "{}: stratified path must run", ctx);
    prop_assert!(strat.converged, "{ctx}: residual {}", strat.violations_remaining);

    let mut g2 = base.clone();
    let rescan = rescan_repair(&mut g2, &rules.rules, MatchConfig::default(), 64);
    prop_assert!(rescan.converged, "{ctx}: the rescan loop did not converge");
    prop_assert_eq!(
        strat.repairs_applied,
        rescan.repairs_applied,
        "{}: repair counts diverged",
        ctx
    );
    prop_assert_eq!(g1.to_doc(), g2.to_doc(), "{}: fixpoints diverged", ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// KG substrate: Person nodes pick up the full cascade.
    #[test]
    fn stratified_terminates_churn_free_on_kg(
        persons in 6usize..24,
        stages in 2usize..14,
        seed in 0u64..1_000,
    ) {
        let (g, _) = generate_kg(&KgConfig {
            seed,
            ..KgConfig::with_persons(persons)
        });
        let rules = cascade_rules("Person", stages, seed);
        assert_stratified_agrees(&g, &rules, stages, &format!("kg-{persons}p-{stages}s"))?;
    }

    /// Social substrate: Account nodes, including the generator's
    /// built-in dirty duplicates and bots.
    #[test]
    fn stratified_terminates_churn_free_on_social(
        accounts in 6usize..20,
        stages in 2usize..14,
        seed in 0u64..1_000,
    ) {
        let (g, _) = generate_social(&SocialConfig {
            accounts,
            seed,
            ..SocialConfig::default()
        });
        let rules = cascade_rules("Account", stages, seed);
        assert_stratified_agrees(&g, &rules, stages, &format!("social-{accounts}a-{stages}s"))?;
    }
}

/// A 12-stage attribute cascade over 20k isolated nodes needs 240,000
/// repairs, more than the `10·(|V|+|E|+1)` = 200,010 cap of a cyclic
/// worklist on the same graph. The stratified run caps only requeues: it must
/// end `Completed` at the rescan loop's fixpoint.
#[test]
fn deep_cascade_past_the_repair_cap_reaches_the_rescan_fixpoint() {
    const STAGES: usize = 12;
    const NODES: usize = 20_000;
    let src: String = (0..STAGES)
        .map(|i| {
            format!(
                "rule stage{i} [incompleteness]
                 match (x:T) where has(x.a{i}), missing(x.a{next})
                 repair set x.a{next} = true\n",
                next = i + 1
            )
        })
        .collect();
    let rules = RuleSet::from_dsl("deep-cascade", &src).unwrap();
    let mut base = Graph::new();
    let a0 = base.attr_key("a0");
    for _ in 0..NODES {
        let n = base.add_node_named("T");
        base.set_attr(n, a0, Value::Bool(true)).unwrap();
    }

    let mut g1 = base.clone();
    let strat = RepairEngine::default().repair(&mut g1, &rules.rules);
    assert_eq!(strat.strata, STAGES);
    assert_eq!(strat.outcome, grepair_core::RepairOutcome::Completed);
    assert!(strat.converged, "residual {}", strat.violations_remaining);
    assert_eq!(strat.repairs_applied, STAGES * NODES);

    let mut g2 = base;
    let rescan = rescan_repair(&mut g2, &rules.rules, MatchConfig::default(), STAGES + 2);
    assert!(rescan.converged);
    assert_eq!(rescan.repairs_applied, STAGES * NODES);
    assert_eq!(g1.to_doc(), g2.to_doc(), "fixpoints diverged");
}
