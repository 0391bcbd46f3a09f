//! Engine-equivalence and configuration integration tests: the engine and
//! the textbook rescan loop (`grepair_eval::rescan_repair`) must reach
//! equivalent fixpoints; ablated matcher configurations must not change
//! results, only speed.

use grepair_core::{EngineConfig, RepairEngine};
use grepair_eval::rescan_repair;
use grepair_gen::{generate_kg, gold_kg_rules, inject_kg_noise, KgConfig, NoiseConfig};
use grepair_graph::{Graph, GraphStats};
use grepair_match::MatchConfig;

fn dirty(persons: usize, seed: u64) -> Graph {
    let (mut g, refs) = generate_kg(&KgConfig::with_persons(persons));
    inject_kg_noise(
        &mut g,
        &refs,
        &NoiseConfig {
            seed,
            ..NoiseConfig::default()
        },
    );
    g
}

#[test]
fn all_engine_configs_converge_to_violation_free_graphs() {
    let rules = gold_kg_rules();
    let base = dirty(300, 5);
    let mut shapes = Vec::new();
    let mut record = |name: &'static str, g: &Graph, converged: bool| {
        assert!(converged, "{name} did not converge");
        g.check_invariants().unwrap();
        let s = GraphStats::compute(g);
        shapes.push((name, s.nodes, s.edges));
    };
    for (name, cfg) in [
        ("incremental", EngineConfig::default()),
        ("incremental-naive-matcher", EngineConfig::naive()),
    ] {
        let mut g = base.clone();
        let report = RepairEngine::new(cfg).repair(&mut g, &rules.rules);
        record(name, &g, report.converged);
    }
    for (name, cfg) in [
        ("rescan-indexed", MatchConfig::default()),
        ("rescan-naive", MatchConfig::naive()),
    ] {
        let mut g = base.clone();
        let report = rescan_repair(&mut g, &rules.rules, cfg, 64);
        record(name, &g, report.converged);
    }
    // All engines must end at the same graph size (repairs are confluent
    // on this workload).
    let (n0, e0) = (shapes[0].1, shapes[0].2);
    for (name, n, e) in &shapes {
        assert_eq!((*n, *e), (n0, e0), "{name} diverged: {shapes:?}");
    }
}

#[test]
fn ablated_matchers_find_identical_violations() {
    let rules = gold_kg_rules();
    let g = dirty(300, 6);
    let full = MatchConfig::default();
    let configs = [
        full,
        MatchConfig {
            use_label_index: false,
            ..full
        },
        MatchConfig {
            use_signature: false,
            ..full
        },
        MatchConfig {
            use_degree_filter: false,
            ..full
        },
        MatchConfig {
            use_attr_index: false,
            ..full
        },
        MatchConfig {
            connected_order: false,
            ..full
        },
        MatchConfig::naive(),
    ];
    let counts: Vec<usize> = configs
        .iter()
        .map(|cfg| {
            RepairEngine::new(EngineConfig {
                match_config: *cfg,
                ..EngineConfig::default()
            })
            .count_violations(&g, &rules.rules)
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "violation counts diverged: {counts:?}"
    );
    assert!(counts[0] > 0);
}

#[test]
fn incremental_needs_one_scan_where_rescan_needs_rounds() {
    let rules = gold_kg_rules();
    let base = dirty(500, 7);

    let mut g1 = base.clone();
    let inc = RepairEngine::default().repair(&mut g1, &rules.rules);
    let mut g2 = base.clone();
    let naive = rescan_repair(&mut g2, &rules.rules, MatchConfig::default(), 64);

    assert!(inc.converged && naive.converged);
    // The incremental engine performs exactly one full scan; all follow-up
    // discovery is delta-anchored. The rescan loop needs at least one
    // repair round plus the empty fixpoint round.
    assert_eq!(inc.rounds, 1);
    assert!(naive.rounds >= 2, "rescan rounds: {}", naive.rounds);
    // Both reach the same fixpoint.
    assert_eq!(g1.num_nodes(), g2.num_nodes());
    assert_eq!(g1.num_edges(), g2.num_edges());
}

/// On cascading rule chains — where fixing one violation creates the next
/// — the rescan loop pays a full multi-pattern scan per stage while the
/// incremental engine only re-matches around the repaired node.
#[test]
fn cascading_chain_favours_incremental() {
    const STAGES: usize = 8;
    let mut src = String::new();
    for i in 0..STAGES {
        src.push_str(&format!(
            "rule stage{i} [incompleteness]
             match (x:T)
             where has(x.a{i}), missing(x.a{next})
             repair set x.a{next} = true\n",
            next = i + 1
        ));
    }
    let rules = grepair_core::RuleSet::from_dsl("chain", &src).unwrap();
    let mut base = Graph::new();
    let a0 = base.attr_key("a0");
    for _ in 0..50 {
        let n = base.add_node_named("T");
        base.set_attr(n, a0, grepair_graph::Value::Bool(true)).unwrap();
    }

    // The chain's trigger graph is acyclic, so the default engine would
    // run it stratified; pin stratification off to compare one worklist
    // over the whole set with the rescan loop.
    let mut g1 = base.clone();
    let inc = RepairEngine::new(EngineConfig {
        stratify: false,
        ..EngineConfig::default()
    })
    .repair(&mut g1, &rules.rules);
    let mut g2 = base.clone();
    let naive = rescan_repair(&mut g2, &rules.rules, MatchConfig::default(), 64);

    assert!(inc.converged && naive.converged);
    assert_eq!(inc.repairs_applied, STAGES * 50);
    assert_eq!(naive.repairs_applied, STAGES * 50);
    assert_eq!(inc.rounds, 1);
    assert!(
        naive.rounds >= 2,
        "chain must force multiple rescan rounds, got {}",
        naive.rounds
    );

    // The stratified schedule reaches the same fixpoint with one worklist
    // per stage and no churn accounting at all.
    let mut g3 = base.clone();
    let strat = RepairEngine::default().repair(&mut g3, &rules.rules);
    assert_eq!(strat.strata, STAGES);
    assert!(strat.converged);
    assert_eq!(strat.repairs_applied, STAGES * 50);
    assert_eq!(g3.to_doc(), g1.to_doc(), "fixpoints must match");
}

#[test]
fn report_serializes_to_json() {
    let rules = gold_kg_rules();
    let mut g = dirty(150, 8);
    let report = RepairEngine::default().repair(&mut g, &rules.rules);
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("repairs_applied"));
    assert!(json.contains("per_rule"));
}
