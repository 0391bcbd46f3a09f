//! Golden op sequence of the worklist engine.
//!
//! The arbitration queue and the trigger filter decide *which* repair
//! lands next and *which* matches are re-discovered, so any change to
//! either that is not order-preserving moves this hash: it covers every
//! applied operation (ids included), in order, and each rule's
//! `matches_found`. The pinned value was computed with one
//! `BinaryHeap<Violation>` as the queue and a linear walk over Σ as the
//! filter; a faster queue or filter must reproduce it bit for bit.

use grepair_core::{Grr, RepairEngine, RepairOutcome};
use grepair_gen::{
    generate_kg, gold_kg_rules, inject_kg_noise, synthetic_rules, KgConfig, NoiseConfig,
};

/// FNV-1a — stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn worklist_op_sequence_is_pinned() {
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

    let report = RepairEngine::default().repair(&mut g, &rules);
    assert_eq!(report.strata, 0, "the set is cyclic: the worklist must run");
    assert_eq!(report.outcome, RepairOutcome::Completed);
    assert!(report.converged);

    let found: Vec<usize> = report.per_rule.iter().map(|s| s.matches_found).collect();
    let digest = fnv1a(format!("{:?}|{:?}", report.ops, found).as_bytes());
    assert_eq!(
        (report.ops.len(), digest),
        (3240, 16_561_389_111_087_361_895),
        "applied ops or per-rule matches_found moved (matches_found = {found:?})"
    );
}
