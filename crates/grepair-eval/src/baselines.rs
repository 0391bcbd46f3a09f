//! Comparison baselines for the efficiency (F3/F4/F6) and quality
//! (F1/F2/F7) experiments.
//!
//! Re-implementations of the repair strategies the paper compares
//! against, run over the *same* violation detection (the GRR patterns) so
//! the comparison isolates repair *discovery* or *semantics*:
//!
//! - [`rescan_repair`] — the textbook rescan loop: the gold rules'
//!   repairs, but every round re-matches every rule over the whole graph.
//!   The efficiency baseline for the engine's worklist, and the reference
//!   model its fixpoints are checked against.
//! - [`delete_only_rules`] — constraint-cleaning style: every violation is
//!   fixed by deleting a violating element (what GFD/key-based cleaners
//!   do). Detects exactly what the gold rules detect but can never restore
//!   information, so recall on incompleteness errors collapses — the
//!   paper's central quality argument.
//! - [`random_repair`] — picks a uniformly random element of each
//!   violation to delete; the sanity-check floor.

use grepair_core::{
    apply_rule, estimate_cost, revalidate, Action, AppliedOp, Grr, PatternEdgeRef, RuleSet,
};
use grepair_graph::{EditCosts, Graph};
use grepair_match::{Match, MatchConfig, Matcher, Planner, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derive the delete-only variant of a rule set: same patterns, repairs
/// replaced by "delete a witness edge, else delete the first matched
/// node".
pub fn delete_only_rules(rules: &RuleSet) -> RuleSet {
    let derived = rules
        .rules
        .iter()
        .map(|r| {
            let actions = if !r.pattern.edges.is_empty() {
                vec![Action::DeleteEdge(PatternEdgeRef(0))]
            } else {
                vec![Action::DeleteNode(Var(0))]
            };
            Grr {
                name: format!("{}__delete_only", r.name),
                category: r.category,
                pattern: r.pattern.clone(),
                actions,
                priority: r.priority,
            }
        })
        .collect();
    RuleSet::new(format!("{}-delete-only", rules.name), derived)
        .expect("derived delete-only rules are structurally valid")
}

/// Outcome of a baseline repair loop.
#[derive(Clone, Debug, Default)]
pub struct BaselineReport {
    /// Operations applied.
    pub ops: Vec<AppliedOp>,
    /// Number of repair steps.
    pub repairs_applied: usize,
    /// Full scans of the rule set.
    pub rounds: usize,
    /// Violations the scans found (pre-revalidation).
    pub matches_found: usize,
    /// Whether no violations remained at the end.
    pub converged: bool,
}

/// The textbook rescan loop: scan every rule over the whole graph, apply
/// the round's violations cheapest-first (edit-cost estimate, then
/// higher priority, then rule and node order), each revalidated against
/// the graph the earlier ones left, then rescan. Stops when a scan finds
/// nothing, a round applies nothing, or after `max_rounds` rounds.
///
/// The matcher runs with `cfg` and one planner whose plan cache serves
/// every round, so `MatchConfig::default()` isolates what
/// incremental discovery buys and `MatchConfig::naive()` is the
/// unoptimised baseline.
pub fn rescan_repair(
    g: &mut Graph,
    rules: &[Grr],
    cfg: MatchConfig,
    max_rounds: usize,
) -> BaselineReport {
    let costs = EditCosts::default();
    let planner = Planner::new();
    let mut report = BaselineReport::default();
    for _ in 0..max_rounds {
        let mut violations: Vec<(f64, usize, Match)> =
            scan(&Matcher::with_planner(g, cfg, &planner), rules)
                .into_iter()
                .map(|(ri, m)| (estimate_cost(g, &rules[ri], &m, &costs), ri, m))
                .collect();
        report.rounds += 1;
        report.matches_found += violations.len();
        if violations.is_empty() {
            report.converged = true;
            return report;
        }
        violations.sort_by(|(ca, ra, ma), (cb, rb, mb)| {
            let (pa, pb) = (rules[*ra].priority, rules[*rb].priority);
            ca.total_cmp(cb).then((pb, ra, &ma.nodes).cmp(&(pa, rb, &mb.nodes)))
        });
        let mut progressed = false;
        for (_, ri, mut m) in violations {
            if !revalidate(g, &rules[ri].pattern, &mut m) {
                continue;
            }
            let applied = apply_rule(g, &rules[ri], &m, &costs)
                .expect("a validated rule applies to a revalidated match");
            if !applied.is_noop() {
                report.repairs_applied += 1;
                report.ops.extend(applied.ops);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    report.converged = is_clean(&Matcher::with_planner(g, cfg, &planner), rules);
    report
}

/// Every (rule index, match) `matcher` finds, rule by rule.
fn scan(matcher: &Matcher<'_>, rules: &[Grr]) -> Vec<(usize, Match)> {
    let found = rules.iter().enumerate().map(|(ri, r)| (ri, matcher.find_all(&r.pattern)));
    found.flat_map(|(ri, ms)| ms.into_iter().map(move |m| (ri, m))).collect()
}

/// Whether no rule has a match.
fn is_clean(matcher: &Matcher<'_>, rules: &[Grr]) -> bool {
    rules.iter().all(|r| !matcher.exists(&r.pattern))
}

/// Random-deletion repair: per violation, delete a uniformly random
/// element of the match (witness edge or matched node).
pub fn random_repair(
    g: &mut Graph,
    rules: &[Grr],
    seed: u64,
    max_rounds: usize,
) -> BaselineReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = BaselineReport::default();
    let costs = EditCosts::default();
    for _ in 0..max_rounds {
        let mut progressed = false;
        let violations = scan(&Matcher::new(g), rules);
        report.rounds += 1;
        report.matches_found += violations.len();
        if violations.is_empty() {
            report.converged = true;
            return report;
        }
        for (ri, mut m) in violations {
            let rule = &rules[ri];
            if !revalidate(g, &rule.pattern, &mut m) {
                continue;
            }
            // Choose a random victim: a witness edge or a matched node.
            let n_edges = m.edges.len();
            let n_nodes = m.nodes.len();
            let pick = rng.gen_range(0..(n_edges + n_nodes));
            let action = if pick < n_edges {
                Action::DeleteEdge(PatternEdgeRef(pick))
            } else {
                Action::DeleteNode(Var((pick - n_edges) as u8))
            };
            let scratch = Grr {
                name: "random".into(),
                category: rule.category,
                pattern: rule.pattern.clone(),
                actions: vec![action],
                priority: 0,
            };
            let applied = apply_rule(g, &scratch, &m, &costs).expect("delete ops cannot fail");
            if !applied.is_noop() {
                report.repairs_applied += 1;
                report.ops.extend(applied.ops);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    report.converged = is_clean(&Matcher::new(g), rules);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_repair;
    use grepair_core::RepairEngine;
    use grepair_gen::{generate_kg, gold_kg_rules, inject_kg_noise, KgConfig, NoiseConfig};

    #[test]
    fn delete_only_derivation() {
        let gold = gold_kg_rules();
        let del = delete_only_rules(&gold);
        assert_eq!(del.len(), gold.len());
        for r in &del.rules {
            assert_eq!(r.actions.len(), 1);
            assert!(matches!(
                r.actions[0],
                Action::DeleteEdge(_) | Action::DeleteNode(_)
            ));
        }
    }

    #[test]
    fn baselines_lose_to_gold_rules() {
        let (clean, refs) = generate_kg(&KgConfig::with_persons(300));
        let mut dirty = clean.clone();
        let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
        let gold = gold_kg_rules();

        let mut g_gold = dirty.clone();
        let rep_gold = RepairEngine::default().repair(&mut g_gold, &gold.rules);
        let q_gold = evaluate_repair(&clean, &dirty, &g_gold, &truth, &rep_gold.ops);

        let mut g_del = dirty.clone();
        let del = delete_only_rules(&gold);
        let rep_del = RepairEngine::default().repair(&mut g_del, &del.rules);
        let q_del = evaluate_repair(&clean, &dirty, &g_del, &truth, &rep_del.ops);

        let mut g_rand = dirty.clone();
        let rep_rand = random_repair(&mut g_rand, &gold.rules, 5, 16);
        let q_rand = evaluate_repair(&clean, &dirty, &g_rand, &truth, &rep_rand.ops);

        assert!(
            q_gold.f1 > q_del.f1 && q_gold.f1 > q_rand.f1,
            "gold {:.3} must beat delete-only {:.3} and random {:.3}",
            q_gold.f1,
            q_del.f1,
            q_rand.f1
        );
        g_del.check_invariants().unwrap();
        g_rand.check_invariants().unwrap();
    }

    #[test]
    fn random_repair_eventually_silences_violations() {
        let (clean, refs) = generate_kg(&KgConfig::with_persons(150));
        let mut dirty = clean.clone();
        inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
        let gold = gold_kg_rules();
        let report = random_repair(&mut dirty, &gold.rules, 1, 64);
        assert!(report.repairs_applied > 0);
        // Deletion always terminates; convergence expected on small inputs.
        assert!(report.converged);
    }
}
