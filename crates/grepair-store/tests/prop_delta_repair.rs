//! Delta-seeded ≡ full-seeded durable repair.
//!
//! [`DurableGraph::repair`] seeds from the nodes touched since the last
//! verified fixpoint instead of scanning the graph. The property: a
//! random program of every mutator, repairs, compactions and reopens,
//! run against a store and against a plain [`Graph`] that receives the
//! same mutations and `RepairEngine::default().repair` (always a full
//! scan), yields after every repair the same document, the same applied
//! operations, and a `violations_remaining` equal to a fresh count.
//!
//! The unit tests below pin each way the store forgets it was clean;
//! every one must be followed by a full scan, which
//! [`RuleStats::scans`](grepair_core::RuleStats) shows (it counts full
//! sweeps only: 1 per rule after a full seed, 0 after a delta seed).

use grepair_core::{
    parse_rules, AppliedOp, Grr, Planner, RepairEngine, RepairOutcome, RepairReport, RepairSeed,
};
use grepair_gen::{
    generate_kg, generate_social, gold_kg_rules, inject_kg_noise, social_rules, KgConfig,
    NoiseConfig, SocialConfig,
};
use grepair_graph::{EdgeId, Graph, NodeId, Value};
use grepair_obs::Budget;
use grepair_store::codec::ByteWriter;
use grepair_store::{record, wal, DurableGraph, StoreConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "grepair-delta-{tag}-{}-{:?}-{n}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every record the store in `dir` journaled after seq `after`, in seq
/// order, each as the bytes of its record body.
fn journaled_since(dir: &Path, after: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (base, path) in wal::list_segments(dir).unwrap() {
        for rec in wal::read_segment(&path, Some(base)).unwrap().records {
            if rec.seq > after {
                let mut w = ByteWriter::new();
                rec.mutation.encode(&mut w);
                out.push(w.into_bytes());
            }
        }
    }
    out
}

/// The record bodies a store journals for `ops`.
fn journal_of(ops: &[AppliedOp]) -> Vec<Vec<u8>> {
    let encode = |op| {
        let mut w = ByteWriter::new();
        record::encode_applied(&mut w, op);
        w.into_bytes()
    };
    ops.iter().map(encode).collect()
}

/// The names a domain's rules read, for mutations that can matter.
struct Vocab {
    node_labels: &'static [&'static str],
    edge_labels: &'static [&'static str],
    attr_keys: &'static [&'static str],
}

const KG: Vocab = Vocab {
    node_labels: &["Person", "City", "Country"],
    edge_labels: &["livesIn", "inCountry", "citizenOf", "marriedTo", "knows"],
    attr_keys: &["country", "name", "ssn"],
};

const SOCIAL: Vocab = Vocab {
    node_labels: &["Account", "Page"],
    edge_labels: &["follows", "likes"],
    attr_keys: &["handle", "displayName", "flagged"],
};

/// A dirty graph of the domain, its rules and its vocabulary.
fn domain(social: bool, seed: u64) -> (Graph, Vec<Grr>, &'static Vocab) {
    if social {
        let g = generate_social(&SocialConfig {
            accounts: 60,
            seed,
            ..SocialConfig::default()
        })
        .0;
        (g, social_rules().rules, &SOCIAL)
    } else {
        let (mut g, refs) = generate_kg(&KgConfig {
            seed,
            ..KgConfig::with_persons(50)
        });
        inject_kg_noise(
            &mut g,
            &refs,
            &NoiseConfig {
                rate: 0.1,
                seed,
                ..NoiseConfig::default()
            },
        );
        (g, gold_kg_rules().rules, &KG)
    }
}

/// One step of a program; selectors are taken modulo the live
/// population (or the vocabulary) when the step runs.
#[derive(Clone, Debug)]
enum Step {
    AddNode(u8),
    AddNodeWithAttrs(u8, u8, u8),
    RemoveNode(u8),
    AddEdge(u8, u8, u8),
    RemoveEdge(u8),
    SetNodeLabel(u8, u8),
    SetEdgeLabel(u8, u8),
    SetAttr(u8, u8, u8),
    RemoveAttr(u8, u8),
    Merge(u8, u8),
    Repair,
    /// Repair with the last rule left out: a different fingerprint.
    RepairOtherSet,
    Compact,
    Reopen,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let b = any::<u8>;
    // Repairs are frequent so that most deltas stay small; mutators that
    // create violations (edges, attribute copies) are repeated.
    prop_oneof![
        b().prop_map(Step::AddNode),
        (b(), b(), b()).prop_map(|(l, k, v)| Step::AddNodeWithAttrs(l, k, v)),
        (b(), b(), b()).prop_map(|(l, k, v)| Step::AddNodeWithAttrs(l, k, v)),
        b().prop_map(Step::RemoveNode),
        (b(), b(), b()).prop_map(|(s, d, l)| Step::AddEdge(s, d, l)),
        (b(), b(), b()).prop_map(|(s, d, l)| Step::AddEdge(s, d, l)),
        b().prop_map(Step::RemoveEdge),
        (b(), b()).prop_map(|(n, l)| Step::SetNodeLabel(n, l)),
        (b(), b()).prop_map(|(e, l)| Step::SetEdgeLabel(e, l)),
        (b(), b(), b()).prop_map(|(n, k, v)| Step::SetAttr(n, k, v)),
        (b(), b(), b()).prop_map(|(n, k, v)| Step::SetAttr(n, k, v)),
        (b(), b()).prop_map(|(n, k)| Step::RemoveAttr(n, k)),
        (b(), b()).prop_map(|(a, b)| Step::Merge(a, b)),
        Just(Step::Repair),
        Just(Step::Repair),
        Just(Step::Repair),
        Just(Step::Repair),
        Just(Step::RepairOtherSet),
        Just(Step::Compact),
        Just(Step::Reopen),
    ]
}

fn pick<T: Clone>(items: &[T], sel: u8) -> Option<T> {
    (!items.is_empty()).then(|| items[sel as usize % items.len()].clone())
}

/// A value for `key`: the one another node already holds (so equality
/// rules fire), or a flag.
fn value_for(g: &Graph, key: &str, sel: u8) -> Value {
    let holders: Vec<Value> = match g.try_attr_key(key) {
        Some(k) => g.nodes().filter_map(|n| g.attr(n, k).cloned()).collect(),
        None => Vec::new(),
    };
    pick(&holders, sel).unwrap_or(Value::Bool(true))
}

/// The store and its full-scan twin.
struct Pair {
    dir: PathBuf,
    store: Option<DurableGraph>,
    plain: Graph,
}

impl Pair {
    fn new(tag: &str, g: Graph) -> Self {
        let dir = tmpdir(tag);
        let store = DurableGraph::create_with(&dir, StoreConfig::default(), g.clone()).unwrap();
        Pair {
            dir,
            store: Some(store),
            plain: g,
        }
    }

    fn store(&mut self) -> &mut DurableGraph {
        self.store.as_mut().unwrap()
    }

    fn reopen(&mut self) {
        self.store().commit().unwrap();
        self.store = None;
        self.store = Some(DurableGraph::open(&self.dir, StoreConfig::default()).unwrap());
    }

    /// Run one mutator on both sides, through the store's ten methods on
    /// one and the graph's own on the other.
    fn mutate(&mut self, step: &Step, v: &Vocab) {
        let store = self.store.as_mut().unwrap();
        let plain = &mut self.plain;
        let nodes: Vec<NodeId> = store.graph().nodes().collect();
        let edges: Vec<EdgeId> = store.graph().edges().collect();
        match *step {
            Step::AddNode(l) => {
                let label = pick(v.node_labels, l).unwrap();
                let n = store.add_node(label).unwrap();
                assert_eq!(plain.add_node_named(label), n);
            }
            Step::AddNodeWithAttrs(l, k, val) => {
                let label = pick(v.node_labels, l).unwrap();
                let key = pick(v.attr_keys, k).unwrap();
                let value = value_for(store.graph(), key, val);
                let n = store
                    .add_node_with_attrs(label, &[(key.to_owned(), value.clone())])
                    .unwrap();
                assert_eq!(plain.add_node_named(label), n);
                let kk = plain.attr_key(key);
                plain.set_attr(n, kk, value).unwrap();
            }
            Step::RemoveNode(sel) => {
                if let Some(n) = pick(&nodes, sel) {
                    store.remove_node(n).unwrap();
                    plain.remove_node(n).unwrap();
                }
            }
            Step::AddEdge(s, d, l) => {
                if let (Some(s), Some(d)) = (pick(&nodes, s), pick(&nodes, d)) {
                    let label = pick(v.edge_labels, l).unwrap();
                    let e = store.add_edge(s, d, label).unwrap();
                    assert_eq!(plain.add_edge_named(s, d, label).unwrap(), e);
                }
            }
            Step::RemoveEdge(sel) => {
                if let Some(e) = pick(&edges, sel) {
                    store.remove_edge(e).unwrap();
                    plain.remove_edge(e).unwrap();
                }
            }
            Step::SetNodeLabel(sel, l) => {
                if let Some(n) = pick(&nodes, sel) {
                    let label = pick(v.node_labels, l).unwrap();
                    store.set_node_label(n, label).unwrap();
                    let l = plain.label(label);
                    plain.set_node_label(n, l).unwrap();
                }
            }
            Step::SetEdgeLabel(sel, l) => {
                if let Some(e) = pick(&edges, sel) {
                    let label = pick(v.edge_labels, l).unwrap();
                    store.set_edge_label(e, label).unwrap();
                    let l = plain.label(label);
                    plain.set_edge_label(e, l).unwrap();
                }
            }
            Step::SetAttr(sel, k, val) => {
                if let Some(n) = pick(&nodes, sel) {
                    let key = pick(v.attr_keys, k).unwrap();
                    let value = value_for(store.graph(), key, val);
                    store.set_attr(n, key, value.clone()).unwrap();
                    let kk = plain.attr_key(key);
                    plain.set_attr(n, kk, value).unwrap();
                }
            }
            Step::RemoveAttr(sel, k) => {
                if let Some(n) = pick(&nodes, sel) {
                    let key = pick(v.attr_keys, k).unwrap();
                    store.remove_attr(n, key).unwrap();
                    let kk = plain.attr_key(key);
                    plain.remove_attr(n, kk).unwrap();
                }
            }
            Step::Merge(a, b) => {
                if let (Some(keep), Some(merged)) = (pick(&nodes, a), pick(&nodes, b)) {
                    if keep != merged {
                        store.merge_nodes(keep, merged, a % 2 == 0).unwrap();
                        plain.merge_nodes(keep, merged, a % 2 == 0).unwrap();
                    }
                }
            }
            Step::Repair | Step::RepairOtherSet | Step::Compact | Step::Reopen => unreachable!(),
        }
    }

    /// Repair both sides and hold them to the property. Returns the
    /// store's report.
    fn repair(&mut self, rules: &[Grr]) -> RepairReport {
        let engine = RepairEngine::default();
        let before = self.store().last_seq();
        let report = self.store().repair(&engine, rules).unwrap();
        let mut ops = Vec::new();
        let sink = |round: &[AppliedOp]| ops.extend_from_slice(round);
        let (planner, full) = (Planner::new(), RepairSeed::Full);
        let reference = engine.repair_with(&mut self.plain, rules, &planner, full, sink);
        let store = self.store.as_ref().unwrap();
        assert_eq!(
            journaled_since(&self.dir, before),
            journal_of(&ops),
            "applied operations differ"
        );
        assert_eq!(store.graph().to_doc(), self.plain.to_doc(), "graphs differ");
        assert_eq!(report.outcome, reference.outcome);
        assert_eq!(
            report.violations_remaining,
            engine.count_violations(store.graph(), rules),
            "violations_remaining is not the global count"
        );
        store.graph().check_invariants().unwrap();
        report
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        self.store = None;
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Full sweeps per rule: all 1 after a full seed, all 0 after a delta.
fn scans(report: &RepairReport) -> Vec<usize> {
    report.per_rule.iter().map(|r| r.scans).collect()
}

fn assert_full_scan(report: &RepairReport, why: &str) {
    assert!(scans(report).iter().all(|&s| s == 1), "{why}: {:?}", scans(report));
}

fn assert_delta(report: &RepairReport, why: &str) {
    assert!(scans(report).iter().all(|&s| s == 0), "{why}: {:?}", scans(report));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delta_seeded_repair_equals_full_seeded(
        social in any::<bool>(),
        seed in 0u64..1000,
        steps in prop::collection::vec(step_strategy(), 1..40),
    ) {
        let (g, rules, vocab) = domain(social, seed);
        let other = &rules[..rules.len() - 1];
        let mut pair = Pair::new("prop", g);

        // Fixed prelude, so every case takes the delta path at least
        // once whatever the program does: clean, one new node, repair.
        assert_full_scan(&pair.repair(&rules), "first repair after create");
        pair.mutate(&Step::AddNodeWithAttrs(0, 0, seed as u8), vocab);
        let report = pair.repair(&rules);
        prop_assert_eq!(report.outcome, RepairOutcome::Completed);
        assert_delta(&report, "one node after a verified fixpoint");

        for step in &steps {
            match step {
                Step::Repair => drop(pair.repair(&rules)),
                Step::RepairOtherSet => drop(pair.repair(other)),
                Step::Compact => drop(pair.store().compact().unwrap()),
                Step::Reopen => pair.reopen(),
                mutator => pair.mutate(mutator, vocab),
            }
        }
        pair.repair(&rules);
    }
}

// ---- each way the mark drops ------------------------------------------------

/// A store at a verified fixpoint of the social rules.
fn clean_social(tag: &str) -> (Pair, Vec<Grr>) {
    let (g, rules, _) = domain(true, 11);
    let mut pair = Pair::new(tag, g);
    let report = pair.repair(&rules);
    assert!(report.converged && report.repairs_applied > 0);
    (pair, rules)
}

/// One new account with a handle someone else holds: a duplicate.
fn add_duplicate(pair: &mut Pair) {
    pair.mutate(&Step::AddNodeWithAttrs(0, 0, 3), &SOCIAL);
}

#[test]
fn a_small_delta_is_matched_without_a_scan_and_compaction_keeps_the_mark() {
    let (mut pair, rules) = clean_social("small");
    add_duplicate(&mut pair);
    pair.store().compact().unwrap();
    let report = pair.repair(&rules);
    assert_delta(&report, "small delta");
    assert!(report.repairs_applied > 0, "the duplicate is merged away");
    assert!(report.converged);

    // Nothing touched since: nothing to match around.
    let report = pair.repair(&rules);
    assert_delta(&report, "empty delta");
    assert_eq!(report.per_rule.iter().map(|r| r.matches_found).sum::<usize>(), 0);
    assert_eq!((report.pattern_compiles, report.plan_cache_hits), (0, 0));
}

#[test]
fn a_different_rule_set_scans_and_then_owns_the_mark() {
    let (mut pair, rules) = clean_social("fingerprint");
    let other = &rules[..rules.len() - 1];
    add_duplicate(&mut pair);
    assert_full_scan(&pair.repair(other), "clean for another fingerprint");
    add_duplicate(&mut pair);
    assert_delta(&pair.repair(other), "clean for this fingerprint now");
    assert_full_scan(&pair.repair(&rules), "the first set's mark is gone");
}

#[test]
fn a_reopened_store_scans() {
    let (mut pair, rules) = clean_social("reopen");
    pair.reopen();
    assert_full_scan(&pair.repair(&rules), "recovered graph is unverified");
}

#[test]
fn a_tripped_repair_drops_the_mark() {
    let (mut pair, rules) = clean_social("trip");
    add_duplicate(&mut pair);
    add_duplicate(&mut pair);
    let budget = Budget::unlimited().cancel_at_check(2);
    let engine = RepairEngine::default().with_budget(&budget);
    let tripped = pair.store().repair(&engine, &rules).unwrap();
    assert_eq!(tripped.outcome, RepairOutcome::Cancelled);
    assert_delta(&tripped, "the tripped run itself was delta-seeded");
    pair.plain = pair.store().graph().clone();
    let report = pair.repair(&rules);
    assert_full_scan(&report, "after a budget trip");
    assert!(report.converged);
}

#[test]
fn residual_violations_never_set_the_mark() {
    // Two rules that undo each other: the churn guard ends the run with
    // a violation left.
    let rules = parse_rules(
        "rule up [conflict] match (x:P) where x.v == 0 repair set x.v = 1
         rule down [conflict] match (x:P) where x.v == 1 repair set x.v = 0",
    )
    .unwrap();
    let mut g = Graph::new();
    let n = g.add_node_named("P");
    let k = g.attr_key("v");
    g.set_attr(n, k, Value::Int(0)).unwrap();
    // Bystanders raise the engine's size-derived repair cap above the
    // churn guard, so the run ends `Completed`, not `RoundLimit`.
    for _ in 0..10 {
        g.add_node_named("Q");
    }
    let mut pair = Pair::new("residual", g);
    for _ in 0..2 {
        let report = pair.repair(&rules);
        assert_eq!(report.outcome, RepairOutcome::Completed);
        assert!(report.violations_remaining > 0);
        assert_full_scan(&report, "no fixpoint was ever verified");
    }
}

#[test]
fn an_overgrown_delta_drops_the_mark() {
    let (mut pair, rules) = clean_social("overflow");
    let nodes: Vec<NodeId> = pair.store().graph().nodes().collect();
    // Touch every other node: well past the store's quarter.
    for &n in nodes.iter().step_by(2) {
        pair.store().set_attr(n, "seen", Value::Bool(true)).unwrap();
        let k = pair.plain.attr_key("seen");
        pair.plain.set_attr(n, k, Value::Bool(true)).unwrap();
    }
    assert_full_scan(&pair.repair(&rules), "delta outgrew its bound");
    add_duplicate(&mut pair);
    assert_delta(&pair.repair(&rules), "and the mark is back after it");
}
