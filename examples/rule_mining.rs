//! Rule discovery: mine Graph Repairing Rules from a (mostly clean)
//! knowledge graph, print them as DSL, then use them to repair a noisy
//! copy — the full closed loop from data to rules to repairs.
//!
//! ```text
//! cargo run --release --example rule_mining
//! ```

use grepair_core::{rule_to_dsl, RepairEngine};
use grepair_gen::{generate_kg, inject_kg_noise, KgConfig, NoiseConfig};
use grepair_mine::{mine_all, MinerConfig};

fn main() {
    println!("generating a clean KG (1500 persons)…");
    let (clean, refs) = generate_kg(&KgConfig::with_persons(1500));

    println!("mining rules…\n");
    let mined = mine_all(&clean, &MinerConfig::default());
    for m in &mined {
        println!(
            "# {:?}: support {}, confidence {:.3}",
            m.kind, m.support, m.confidence
        );
        print!("{}", rule_to_dsl(&m.rule));
        println!();
    }

    let rules: Vec<_> = mined.into_iter().map(|m| m.rule).collect();
    println!("mined {} rules; injecting noise and repairing with them…", rules.len());

    let mut dirty = clean.clone();
    let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
    let engine = RepairEngine::default();
    let before = engine.count_violations(&dirty, &rules);
    let report = engine.repair(&mut dirty, &rules);
    println!(
        "violations before: {before}; repairs applied: {}; converged: {} \
         (injected errors: {})",
        report.repairs_applied,
        report.converged,
        truth.len()
    );
    assert!(report.converged);
}
