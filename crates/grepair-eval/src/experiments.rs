//! The experiment harness: one function per reconstructed table/figure.
//!
//! Every experiment id (`t1`, `t2`, `f1`–`f7`) maps to one `exp_*`
//! function here; the `experiments` binary in `grepair-bench` prints the
//! same rows/series the paper reports (the README's "Paper experiments"
//! section lists what each id measures). Profiles control workload sizes
//! so the full suite stays laptop-scale.

use crate::baselines::{delete_only_rules, random_repair, rescan_repair};
use crate::metrics::{evaluate_repair, RepairQuality};
use crate::table::{f3, ms, Table};
use grepair_core::{analyze, RepairEngine, RuleSet};
use grepair_gen::{
    generate_kg, generate_social, gold_kg_rules, inject_kg_noise, synthetic_rules, ErrorClass,
    KgConfig, NoiseConfig, SocialConfig,
};
use grepair_graph::{Graph, GraphStats};
use grepair_match::MatchConfig;
use std::time::{Duration, Instant};

/// Workload sizes for the harness.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Person counts of the small/medium/large KGs (T1, F1/F2 use medium).
    pub kg_sizes: [usize; 3],
    /// Person counts of the |G| scaling sweep (F3).
    pub scale_points: Vec<usize>,
    /// Largest size at which the unoptimized rescan loop still runs in F3/F4
    /// (beyond it the harness reports `timeout`, like the paper's plots).
    pub naive_cutoff: usize,
    /// Rule counts for the |Σ| sweep (T2, F4).
    pub rule_points: Vec<usize>,
    /// Noise rates for F1.
    pub noise_rates: Vec<f64>,
    /// Seeds averaged over in quality experiments.
    pub seeds: Vec<u64>,
}

impl Profile {
    /// Seconds-scale profile for tests and CI.
    pub fn quick() -> Self {
        Profile {
            kg_sizes: [200, 500, 1_000],
            scale_points: vec![200, 500, 1_000],
            naive_cutoff: 500,
            rule_points: vec![5, 10, 20],
            noise_rates: vec![0.05, 0.1],
            seeds: vec![1],
        }
    }

    /// The full evaluation profile (minutes-scale).
    pub fn standard() -> Self {
        Profile {
            kg_sizes: [1_000, 5_000, 20_000],
            scale_points: vec![500, 1_000, 2_000, 5_000, 10_000, 20_000],
            naive_cutoff: 2_000,
            rule_points: vec![10, 20, 40, 80, 160],
            noise_rates: vec![0.02, 0.05, 0.10, 0.15, 0.20],
            seeds: vec![1, 2, 3],
        }
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Clean graph + dirty copy + ledger for one (size, rate, seed) cell.
fn dirty_kg(
    persons: usize,
    rate: f64,
    seed: u64,
    classes: Option<ErrorClass>,
) -> (Graph, Graph, grepair_gen::GroundTruth) {
    let (clean, refs) = generate_kg(&KgConfig {
        seed: seed.wrapping_mul(31).wrapping_add(7),
        ..KgConfig::with_persons(persons)
    });
    let mut dirty = clean.clone();
    let cfg = match classes {
        Some(c) => NoiseConfig::single_class(c, rate, seed),
        None => NoiseConfig {
            rate,
            seed,
            ..NoiseConfig::default()
        },
    };
    let truth = inject_kg_noise(&mut dirty, &refs, &cfg);
    (clean, dirty, truth)
}

// ---------------------------------------------------------------------------
// T1 — dataset statistics
// ---------------------------------------------------------------------------

/// T1: the dataset table.
pub fn exp_datasets(p: &Profile) -> Table {
    let mut t = Table::new(
        "t1",
        "dataset statistics",
        &[
            "dataset", "|V|", "|E|", "node-labels", "edge-labels", "avg-deg", "max-deg", "|Σ|",
        ],
    );
    let gold = gold_kg_rules();
    for (name, persons) in [
        ("kg-small", p.kg_sizes[0]),
        ("kg-medium", p.kg_sizes[1]),
        ("kg-large", p.kg_sizes[2]),
    ] {
        let (g, _) = generate_kg(&KgConfig::with_persons(persons));
        let s = GraphStats::compute(&g);
        t.row(vec![
            name.into(),
            s.nodes.to_string(),
            s.edges.to_string(),
            s.node_labels.to_string(),
            s.edge_labels.to_string(),
            format!("{:.2}", s.avg_degree),
            s.max_degree.to_string(),
            gold.len().to_string(),
        ]);
    }
    let (g, _) = generate_social(&SocialConfig {
        accounts: p.kg_sizes[1],
        ..SocialConfig::default()
    });
    let s = GraphStats::compute(&g);
    let social = grepair_gen::social_rules();
    t.row(vec![
        "social".into(),
        s.nodes.to_string(),
        s.edges.to_string(),
        s.node_labels.to_string(),
        s.edge_labels.to_string(),
        format!("{:.2}", s.avg_degree),
        s.max_degree.to_string(),
        social.len().to_string(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// T2 — static rule-set analysis
// ---------------------------------------------------------------------------

/// T2: consistency/implication/termination checking vs |Σ|.
pub fn exp_static_analysis(p: &Profile) -> Table {
    let mut t = Table::new(
        "t2",
        "static rule-set analysis vs |Σ|",
        &[
            "rule set",
            "|Σ|",
            "effective",
            "terminating",
            "conflicts",
            "implied",
            "time",
        ],
    );
    let mut sets: Vec<RuleSet> = vec![gold_kg_rules()];
    for &n in &p.rule_points {
        sets.push(synthetic_rules(n));
    }
    for set in sets {
        let (report, _) = time(|| analyze(&set.rules));
        let effective = report
            .effectiveness
            .iter()
            .filter(|e| **e == grepair_core::Effectiveness::Effective)
            .count();
        t.row(vec![
            set.name.clone(),
            set.len().to_string(),
            format!("{effective}/{}", set.len()),
            report.terminating.to_string(),
            report.conflicts.len().to_string(),
            report.implications.len().to_string(),
            format!("{:.2}ms", report.micros as f64 / 1000.0),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// F1 / F2 — repair quality
// ---------------------------------------------------------------------------

fn quality_row(
    clean: &Graph,
    dirty: &Graph,
    truth: &grepair_gen::GroundTruth,
    method: &str,
) -> RepairQuality {
    let gold = gold_kg_rules();
    match method {
        "grr" => {
            let mut g = dirty.clone();
            let report = RepairEngine::default().repair(&mut g, &gold.rules);
            evaluate_repair(clean, dirty, &g, truth, &report.ops)
        }
        "delete-only" => {
            let mut g = dirty.clone();
            let del = delete_only_rules(&gold);
            let report = RepairEngine::default().repair(&mut g, &del.rules);
            evaluate_repair(clean, dirty, &g, truth, &report.ops)
        }
        "random" => {
            let mut g = dirty.clone();
            let report = random_repair(&mut g, &gold.rules, 17, 64);
            evaluate_repair(clean, dirty, &g, truth, &report.ops)
        }
        other => panic!("unknown method {other}"),
    }
}

fn averaged_quality(
    p: &Profile,
    persons: usize,
    rate: f64,
    class: Option<ErrorClass>,
    method: &str,
) -> RepairQuality {
    let mut acc = RepairQuality::default();
    for &seed in &p.seeds {
        let (clean, dirty, truth) = dirty_kg(persons, rate, seed, class);
        let q = quality_row(&clean, &dirty, &truth, method);
        acc.precision += q.precision;
        acc.recall += q.recall;
        acc.f1 += q.f1;
        acc.needed += q.needed;
        acc.made += q.made;
        acc.correct += q.correct;
    }
    let n = p.seeds.len() as f64;
    acc.precision /= n;
    acc.recall /= n;
    acc.f1 /= n;
    acc
}

/// F1: P/R/F1 vs noise rate, GRR vs baselines.
pub fn exp_quality_noise(p: &Profile) -> Table {
    let mut t = Table::new(
        "f1",
        "repair quality vs noise rate (medium KG)",
        &[
            "noise", "method", "precision", "recall", "F1",
        ],
    );
    let persons = p.kg_sizes[1];
    for &rate in &p.noise_rates {
        for method in ["grr", "delete-only", "random"] {
            let q = averaged_quality(p, persons, rate, None, method);
            t.row(vec![
                format!("{:.0}%", rate * 100.0),
                method.into(),
                f3(q.precision),
                f3(q.recall),
                f3(q.f1),
            ]);
        }
    }
    t
}

/// F2: per-inconsistency-class quality at 10% noise.
pub fn exp_quality_class(p: &Profile) -> Table {
    let mut t = Table::new(
        "f2",
        "repair quality per inconsistency class (10% single-class noise)",
        &["class", "method", "precision", "recall", "F1"],
    );
    let persons = p.kg_sizes[1];
    for (class, name) in [
        (ErrorClass::Incompleteness, "incompleteness"),
        (ErrorClass::Conflict, "conflict"),
        (ErrorClass::Redundancy, "redundancy"),
    ] {
        for method in ["grr", "delete-only", "random"] {
            let q = averaged_quality(p, persons, 0.10, Some(class), method);
            t.row(vec![
                name.into(),
                method.into(),
                f3(q.precision),
                f3(q.recall),
                f3(q.f1),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// F3 / F4 — efficiency scaling
// ---------------------------------------------------------------------------

/// Round cap of the [`rescan_repair`] baselines in F3/F4/F6.
const RESCAN_ROUNDS: usize = 64;

/// F3: repair wall-time vs |G|: the engine against the textbook rescan
/// loop, over the optimized (`naive+idx`) and unoptimized (`naive`)
/// matcher.
pub fn exp_scale_graph(p: &Profile) -> Table {
    let mut t = Table::new(
        "f3",
        "repair wall-time vs |G| (10% noise)",
        &[
            "persons", "|V|", "|E|", "incremental", "naive+idx", "naive", "speedup",
        ],
    );
    for &persons in &p.scale_points {
        let (_, dirty, _) = dirty_kg(persons, 0.10, 1, None);
        let gold = gold_kg_rules();
        let stats = GraphStats::compute(&dirty);

        let mut g1 = dirty.clone();
        let (rep_inc, d_inc) =
            time(|| RepairEngine::default().repair(&mut g1, &gold.rules));
        assert!(rep_inc.converged, "incremental must converge");

        let mut g2 = dirty.clone();
        let (_, d_naive_idx) = time(|| {
            rescan_repair(&mut g2, &gold.rules, MatchConfig::default(), RESCAN_ROUNDS)
        });

        let naive_cell = if persons <= p.naive_cutoff {
            let mut g3 = dirty.clone();
            let (_, d_naive) = time(|| {
                rescan_repair(&mut g3, &gold.rules, MatchConfig::naive(), RESCAN_ROUNDS)
            });
            ms(d_naive)
        } else {
            "timeout".into()
        };

        t.row(vec![
            persons.to_string(),
            stats.nodes.to_string(),
            stats.edges.to_string(),
            ms(d_inc),
            ms(d_naive_idx),
            naive_cell,
            format!("{:.1}×", d_naive_idx.as_secs_f64() / d_inc.as_secs_f64().max(1e-9)),
        ]);
    }
    t
}

/// F4: repair wall-time vs |Σ| (synthetic rules on the medium KG).
pub fn exp_scale_rules(p: &Profile) -> Table {
    let mut t = Table::new(
        "f4",
        "repair wall-time vs |Σ| (medium KG, 10% noise)",
        &["|Σ|", "incremental", "naive+idx", "naive"],
    );
    let persons = p.kg_sizes[1];
    let (_, dirty, _) = dirty_kg(persons, 0.10, 1, None);
    for &n in &p.rule_points {
        let mut rules = gold_kg_rules().rules;
        rules.extend(synthetic_rules(n).rules);

        let mut g1 = dirty.clone();
        let (_, d_inc) = time(|| RepairEngine::default().repair(&mut g1, &rules));
        let mut g2 = dirty.clone();
        let (_, d_idx) =
            time(|| rescan_repair(&mut g2, &rules, MatchConfig::default(), RESCAN_ROUNDS));
        let naive_cell = if n <= p.naive_cutoff.min(40) {
            let mut g3 = dirty.clone();
            let (_, d) =
                time(|| rescan_repair(&mut g3, &rules, MatchConfig::naive(), RESCAN_ROUNDS));
            ms(d)
        } else {
            "timeout".into()
        };
        t.row(vec![
            format!("{}", n + 10),
            ms(d_inc),
            ms(d_idx),
            naive_cell,
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// F5 / F6 — ablations
// ---------------------------------------------------------------------------

/// F5: matcher-optimization ablation (violation-scan time on the dirty
/// medium KG).
pub fn exp_ablation_matching(p: &Profile) -> Table {
    let mut t = Table::new(
        "f5",
        "matcher ablation: full violation scan on dirty medium KG",
        &["configuration", "scan time", "violations"],
    );
    let (_, dirty, _) = dirty_kg(p.kg_sizes[1], 0.10, 1, None);
    let gold = gold_kg_rules();
    let full = MatchConfig::default();
    let configs: Vec<(&str, MatchConfig)> = vec![
        ("full", full),
        (
            "-attr-index",
            MatchConfig {
                use_attr_index: false,
                ..full
            },
        ),
        (
            "-join-order",
            MatchConfig {
                connected_order: false,
                ..full
            },
        ),
        ("naive (both off)", MatchConfig::naive()),
    ];
    for (name, cfg) in configs {
        let engine = RepairEngine::new(cfg);
        let (count, d) = time(|| engine.count_violations(&dirty, &gold.rules));
        t.row(vec![name.into(), ms(d), count.to_string()]);
    }
    t
}

/// F6: incremental maintenance ablation: the engine's work against the
/// textbook rescan loop's on the same matcher.
pub fn exp_ablation_incremental(p: &Profile) -> Table {
    let mut t = Table::new(
        "f6",
        "incremental-maintenance ablation (dirty medium KG)",
        &[
            "engine", "wall", "rounds", "matches-examined", "repairs",
        ],
    );
    let (_, dirty, _) = dirty_kg(p.kg_sizes[1], 0.10, 1, None);
    let gold = gold_kg_rules();
    let mut g = dirty.clone();
    let (report, d) = time(|| RepairEngine::default().repair(&mut g, &gold.rules));
    let examined = report.per_rule.iter().map(|s| s.matches_found).sum();
    let mut g = dirty.clone();
    let (rescan, d_rescan) =
        time(|| rescan_repair(&mut g, &gold.rules, MatchConfig::default(), RESCAN_ROUNDS));
    for (name, d, rounds, examined, repairs) in [
        ("incremental", d, report.rounds, examined, report.repairs_applied),
        ("full-rescan", d_rescan, rescan.rounds, rescan.matches_found, rescan.repairs_applied),
    ] {
        let counts = [rounds, examined, repairs].map(|c: usize| c.to_string());
        t.row([vec![name.into(), ms(d)], counts.to_vec()].concat());
    }
    t
}

// ---------------------------------------------------------------------------
// F7 — repair cost (best-repair selection)
// ---------------------------------------------------------------------------

/// F7: edit cost and closeness-to-truth of the produced repairs.
pub fn exp_cost(p: &Profile) -> Table {
    let mut t = Table::new(
        "f7",
        "repair cost: edit distance of produced repairs (medium KG, 10% noise)",
        &[
            "method", "repairs", "edits made", "edits needed", "correct", "F1",
        ],
    );
    let persons = p.kg_sizes[1];
    let (clean, dirty, truth) = dirty_kg(persons, 0.10, 1, None);
    let gold = gold_kg_rules();

    let mut g = dirty.clone();
    let rep = RepairEngine::default().repair(&mut g, &gold.rules);
    let q = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);
    t.row(vec![
        "grr".into(),
        rep.repairs_applied.to_string(),
        q.made.to_string(),
        q.needed.to_string(),
        q.correct.to_string(),
        f3(q.f1),
    ]);

    let mut g = dirty.clone();
    let del = delete_only_rules(&gold);
    let rep = RepairEngine::default().repair(&mut g, &del.rules);
    let q = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);
    t.row(vec![
        "delete-only".into(),
        rep.repairs_applied.to_string(),
        q.made.to_string(),
        q.needed.to_string(),
        q.correct.to_string(),
        f3(q.f1),
    ]);

    let mut g = dirty.clone();
    let rep = random_repair(&mut g, &gold.rules, 17, 64);
    let q = evaluate_repair(&clean, &dirty, &g, &truth, &rep.ops);
    t.row(vec![
        "random".into(),
        rep.repairs_applied.to_string(),
        q.made.to_string(),
        q.needed.to_string(),
        q.correct.to_string(),
        f3(q.f1),
    ]);
    t
}

/// An experiment entry point.
type ExpFn = fn(&Profile) -> Table;

/// Run experiments by id (`"all"` runs everything).
pub fn run(id: &str, p: &Profile) -> Vec<Table> {
    let all: Vec<(&str, ExpFn)> = vec![
        ("t1", exp_datasets),
        ("t2", exp_static_analysis),
        ("f1", exp_quality_noise),
        ("f2", exp_quality_class),
        ("f3", exp_scale_graph),
        ("f4", exp_scale_rules),
        ("f5", exp_ablation_matching),
        ("f6", exp_ablation_incremental),
        ("f7", exp_cost),
    ];
    all.iter()
        .filter(|(eid, _)| id == "all" || *eid == id)
        .map(|(_, f)| f(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Profile {
        Profile {
            kg_sizes: [100, 150, 200],
            scale_points: vec![100, 200],
            naive_cutoff: 200,
            rule_points: vec![3, 6],
            noise_rates: vec![0.1],
            seeds: vec![1],
        }
    }

    #[test]
    fn t1_t2_smoke() {
        let p = tiny();
        let t1 = exp_datasets(&p);
        assert_eq!(t1.rows.len(), 4);
        let t2 = exp_static_analysis(&p);
        assert_eq!(t2.rows.len(), 3);
        assert!(!t1.to_string().is_empty());
    }

    #[test]
    fn f1_grr_beats_baselines() {
        let p = tiny();
        let t = exp_quality_noise(&p);
        // rows per rate: grr, delete-only, random.
        let f1_of = |method: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[1] == method)
                .map(|r| r[4].parse().unwrap())
                .unwrap()
        };
        assert!(f1_of("grr") > f1_of("delete-only"));
        assert!(f1_of("grr") > f1_of("random"));
    }

    #[test]
    fn f3_converges_and_reports() {
        let p = tiny();
        let t = exp_scale_graph(&p);
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert!(!row[3].is_empty());
        }
    }

    #[test]
    fn f5_f6_smoke() {
        let p = tiny();
        let t5 = exp_ablation_matching(&p);
        assert_eq!(t5.rows.len(), 4);
        // All configs must agree on the violation count.
        let counts: Vec<&String> = t5.rows.iter().map(|r| &r[2]).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{t5}");
        let t6 = exp_ablation_incremental(&p);
        assert_eq!(t6.rows.len(), 2);
    }

    #[test]
    fn f7_smoke() {
        let p = tiny();
        let t7 = exp_cost(&p);
        assert_eq!(t7.rows.len(), 3);
    }

    #[test]
    fn run_dispatch() {
        let p = tiny();
        assert_eq!(run("t1", &p).len(), 1);
        assert_eq!(run("zzz", &p).len(), 0);
    }
}
