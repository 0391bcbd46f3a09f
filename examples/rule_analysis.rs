//! Static rule-set analysis: effectiveness, termination, consistency,
//! and implication checking over a deliberately flawed rule set.
//!
//! ```text
//! cargo run --example rule_analysis
//! ```

use grepair_core::{analyze, Effectiveness, RuleSet};

fn main() {
    let rules = RuleSet::from_dsl(
        "flawed-demo",
        r#"
        # Fine: effective, self-contained.
        rule drop_self_loop [conflict]
        match (x:Person)-[marriedTo]->(x)
        repair delete edge (x)-[marriedTo]->(x)

        # Ineffective: the repair never touches the violation.
        rule pointless [conflict]
        match (x:Person)-[marriedTo]->(x)
        repair set x.reviewed = true

        # Oscillating pair: each re-enables the other (non-terminating).
        rule flip_up [conflict]
        match (x:Flag) where x.v == 0
        repair set x.v = 1

        rule flip_down [conflict]
        match (x:Flag) where x.v == 1
        repair set x.v = 0

        # Contradiction: clashes with flip_up on unifiable nodes.
        rule force_zero [conflict]
        match (y:Flag) where has(y.v)
        repair set y.v = 0

        # Redundant: subsumed by drop_self_loop.
        rule drop_self_loop_vip [conflict]
        match (x:Person)-[marriedTo]->(x)
        where x.vip == true
        repair delete edge (x)-[marriedTo]->(x)
        "#,
    )
    .expect("rules parse");

    let report = analyze(&rules.rules);
    println!("analysed {} rules in {}µs\n", rules.len(), report.micros);

    println!("effectiveness:");
    for (rule, eff) in rules.rules.iter().zip(&report.effectiveness) {
        let verdict = match eff {
            Effectiveness::Effective => "effective",
            Effectiveness::Ineffective => "INEFFECTIVE — repair does not fix the violation",
            Effectiveness::Unknown => "unknown (no canonical instance)",
        };
        println!("  {:<22} {verdict}", rule.name);
    }

    println!("\ntermination: {}", report.terminating);
    for cycle in &report.cycles {
        let names: Vec<&str> = cycle
            .iter()
            .map(|&i| rules.rules[i].name.as_str())
            .collect();
        println!("  potential cycle: {}", names.join(" → "));
    }

    println!("\nconflicts ({}):", report.conflicts.len());
    for c in &report.conflicts {
        println!(
            "  {} ↔ {} [{}]: {}",
            rules.rules[c.a].name, rules.rules[c.b].name, c.kind, c.detail
        );
    }

    println!("\nimplications ({}):", report.implications.len());
    for imp in &report.implications {
        println!(
            "  {} is subsumed by {}",
            rules.rules[imp.redundant].name, rules.rules[imp.by].name
        );
    }

    // The demo rule set is flawed in exactly the advertised ways.
    assert!(report
        .effectiveness.contains(&Effectiveness::Ineffective));
    assert!(!report.terminating);
    assert!(!report.conflicts.is_empty());
    assert!(!report.implications.is_empty());
}
