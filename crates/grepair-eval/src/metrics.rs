//! Repair-quality metrics: precision / recall / F1 of repairs.
//!
//! The standard data-repair accounting: view each graph as a **multiset of
//! canonical triples** (node existence, edges, attributes, all expressed
//! over *identity-canonicalised* node representatives), then compare the
//! *changes the repair made* (dirty → repaired) against the *changes that
//! were needed* (dirty → clean):
//!
//! ```text
//! needed  = Δ(dirty → clean)          (ground truth edits)
//! made    = Δ(dirty → repaired)       (what the system did)
//! correct = made ∩ needed             (multiset intersection, per side)
//! precision = |correct| / |made|      recall = |correct| / |needed|
//! ```
//!
//! Identity canonicalisation maps every node to a stable representative:
//! injected clones map to their originals (from the noise ledger) and
//! merge survivors inherit the merged-away node's class (from the repair
//! op log) — so a duplicate shows up as *multiplicity 2* of the original's
//! triples, and a correct merge shows up as exactly the multiplicity
//! reduction the ground truth demands.

use grepair_core::{AppliedOp, Grr, Planner, RepairEngine, RepairReport, RepairSeed};
use grepair_gen::GroundTruth;
use grepair_graph::{Graph, NodeId, Value};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

/// A canonical graph fact.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Triple {
    /// A node with its label.
    Node(NodeId, String),
    /// An edge (by canonical endpoints and label).
    Edge(NodeId, String, NodeId),
    /// An attribute value.
    Attr(NodeId, String, Value),
}

type Multiset = FxHashMap<Triple, i64>;

/// Node-identity canonicalisation map.
#[derive(Clone, Debug, Default)]
pub struct CanonMap {
    /// merged node → surviving node (from repair ops; chains resolved at
    /// lookup).
    merges: FxHashMap<NodeId, NodeId>,
    /// clone → original (from the noise ledger).
    clone_of: FxHashMap<NodeId, NodeId>,
}

impl CanonMap {
    /// Build from the noise ledger and the repair operation log.
    pub fn new(truth: &GroundTruth, ops: &[AppliedOp]) -> Self {
        let mut merges = FxHashMap::default();
        for op in ops {
            if let AppliedOp::Merge { keep, merged, .. } = op {
                merges.insert(*merged, *keep);
            }
        }
        CanonMap {
            merges,
            clone_of: truth.clone_of.clone(),
        }
    }

    /// Canonical representative of a node.
    pub fn rep(&self, mut n: NodeId) -> NodeId {
        // Resolve merge chains (bounded: merges form a forest).
        let mut hops = 0;
        while let Some(&next) = self.merges.get(&n) {
            n = next;
            hops += 1;
            if hops > 64 {
                break; // defensive: malformed op logs must not hang metrics
            }
        }
        self.clone_of.get(&n).copied().unwrap_or(n)
    }
}

fn triples(g: &Graph, canon: &CanonMap) -> Multiset {
    let mut m: Multiset = FxHashMap::default();
    for n in g.nodes() {
        let rep = canon.rep(n);
        let label = g.label_name(g.node_label(n).unwrap()).to_owned();
        *m.entry(Triple::Node(rep, label)).or_default() += 1;
        for (k, v) in g.attrs(n) {
            let key = g.attr_key_name(*k).to_owned();
            *m.entry(Triple::Attr(rep, key, v.clone())).or_default() += 1;
        }
    }
    for e in g.edges() {
        let er = g.edge(e).unwrap();
        let label = g.label_name(er.label).to_owned();
        *m.entry(Triple::Edge(canon.rep(er.src), label, canon.rep(er.dst)))
            .or_default() += 1;
    }
    m
}

/// `from → to` delta: additions and removals as non-negative multisets.
fn delta(from: &Multiset, to: &Multiset) -> (Multiset, Multiset) {
    let mut adds: Multiset = FxHashMap::default();
    let mut dels: Multiset = FxHashMap::default();
    for (t, &ct) in to {
        let cf = from.get(t).copied().unwrap_or(0);
        if ct > cf {
            adds.insert(t.clone(), ct - cf);
        }
    }
    for (t, &cf) in from {
        let ct = to.get(t).copied().unwrap_or(0);
        if cf > ct {
            dels.insert(t.clone(), cf - ct);
        }
    }
    (adds, dels)
}

fn overlap(a: &Multiset, b: &Multiset) -> i64 {
    a.iter()
        .map(|(t, &ca)| ca.min(b.get(t).copied().unwrap_or(0)))
        .sum()
}

fn total(m: &Multiset) -> i64 {
    m.values().sum()
}

/// Precision / recall / F1 of a repair run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairQuality {
    /// Fraction of made changes that were needed.
    pub precision: f64,
    /// Fraction of needed changes that were made.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
    /// Ground-truth edit count (dirty → clean).
    pub needed: i64,
    /// Edit count performed by the system (dirty → repaired).
    pub made: i64,
    /// Edits that were both made and needed.
    pub correct: i64,
}

impl RepairQuality {
    fn from_counts(needed: i64, made: i64, correct: i64) -> Self {
        let precision = if made == 0 {
            1.0
        } else {
            correct as f64 / made as f64
        };
        let recall = if needed == 0 {
            1.0
        } else {
            correct as f64 / needed as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        RepairQuality {
            precision,
            recall,
            f1,
            needed,
            made,
            correct,
        }
    }
}

/// Evaluate a repair run.
///
/// `clean` is the pre-noise graph, `dirty` the graph after noise (before
/// repair), `repaired` the graph after repair; `truth` is the noise
/// ledger and `ops` the repair op log (for merge canonicalisation).
pub fn evaluate_repair(
    clean: &Graph,
    dirty: &Graph,
    repaired: &Graph,
    truth: &GroundTruth,
    ops: &[AppliedOp],
) -> RepairQuality {
    let _span = grepair_obs::span("eval.evaluate_repair", "eval");
    grepair_obs::counter("eval.evaluations").inc();
    let canon = CanonMap::new(truth, ops);
    let c = triples(clean, &canon);
    let d = triples(dirty, &canon);
    let r = triples(repaired, &canon);

    let (need_add, need_del) = delta(&d, &c);
    let (made_add, made_del) = delta(&d, &r);
    let correct = overlap(&need_add, &made_add) + overlap(&need_del, &made_del);
    RepairQuality::from_counts(
        total(&need_add) + total(&need_del),
        total(&made_add) + total(&made_del),
        correct,
    )
}

/// Repair `g` to fixpoint with the default engine, collecting the op log
/// [`evaluate_repair`] needs with a closure sink.
pub(crate) fn repair_logged(g: &mut Graph, rules: &[Grr]) -> (RepairReport, Vec<AppliedOp>) {
    let mut ops = Vec::new();
    let sink = |round: &[AppliedOp]| ops.extend_from_slice(round);
    let report =
        RepairEngine::default().repair_with(g, rules, &Planner::new(), RepairSeed::Full, sink);
    (report, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_core::RuleSet;
    use grepair_gen::{generate_kg, gold_kg_rules, inject_kg_noise, KgConfig, NoiseConfig};

    fn pipeline(rate: f64, seed: u64) -> RepairQuality {
        let (clean, refs) = generate_kg(&KgConfig::with_persons(300));
        let mut dirty = clean.clone();
        let truth = inject_kg_noise(
            &mut dirty,
            &refs,
            &NoiseConfig {
                rate,
                seed,
                ..NoiseConfig::default()
            },
        );
        let mut repaired = dirty.clone();
        let rules = gold_kg_rules();
        let (_, ops) = repair_logged(&mut repaired, &rules.rules);
        evaluate_repair(&clean, &dirty, &repaired, &truth, &ops)
    }

    #[test]
    fn perfect_repair_on_untouched_graph() {
        let (clean, _) = generate_kg(&KgConfig::with_persons(100));
        let q = evaluate_repair(&clean, &clean, &clean, &GroundTruth::default(), &[]);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.needed, 0);
    }

    #[test]
    fn no_repair_scores_zero_recall() {
        let (clean, refs) = generate_kg(&KgConfig::with_persons(200));
        let mut dirty = clean.clone();
        let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
        let q = evaluate_repair(&clean, &dirty, &dirty, &truth, &[]);
        assert!(q.needed > 0);
        assert_eq!(q.made, 0);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.precision, 1.0, "vacuous precision when nothing made");
    }

    #[test]
    fn gold_rules_score_high_f1() {
        let q = pipeline(0.1, 3);
        assert!(q.f1 > 0.9, "gold repair should be near-perfect: {q:?}");
        assert!(q.precision > 0.9, "{q:?}");
        assert!(q.recall > 0.9, "{q:?}");
    }

    #[test]
    fn destructive_repair_scores_low() {
        // Deleting every violating person fixes violations but not the data.
        let (clean, refs) = generate_kg(&KgConfig::with_persons(200));
        let mut dirty = clean.clone();
        let truth = inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
        let mut repaired = dirty.clone();
        let delete_rules = RuleSet::from_dsl(
            "deleter",
            "rule nuke [conflict]
             match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
             where not (x)-[citizenOf]->(k)
             repair delete node x",
        )
        .unwrap();
        let (_, ops) = repair_logged(&mut repaired, &delete_rules.rules);
        let q = evaluate_repair(&clean, &dirty, &repaired, &truth, &ops);
        let gold = pipeline(0.1, 7);
        assert!(
            q.f1 < gold.f1,
            "destructive {:.3} must underperform semantic {:.3}",
            q.f1,
            gold.f1
        );
    }

    #[test]
    fn canon_map_resolves_chains() {
        let mut truth = GroundTruth::default();
        truth.clone_of.insert(NodeId(10), NodeId(1));
        let ops = vec![
            AppliedOp::Merge {
                keep: NodeId(10),
                merged: NodeId(1),
                rewired: 0,
                dropped: 0,
            },
            AppliedOp::Merge {
                keep: NodeId(20),
                merged: NodeId(10),
                rewired: 0,
                dropped: 0,
            },
        ];
        let canon = CanonMap::new(&truth, &ops);
        // 1 → 10 → 20, then 20 has no clone mapping.
        assert_eq!(canon.rep(NodeId(1)), NodeId(20));
        // 10 → 20 directly.
        assert_eq!(canon.rep(NodeId(10)), NodeId(20));
        // Clone resolution applies after merge resolution.
        assert_eq!(canon.rep(NodeId(30)), NodeId(30));
    }

    #[test]
    fn quality_counts_are_consistent() {
        let q = pipeline(0.15, 11);
        assert!(q.correct <= q.made);
        assert!(q.correct <= q.needed);
        assert!(q.f1 <= 1.0 && q.f1 >= 0.0);
    }
}
