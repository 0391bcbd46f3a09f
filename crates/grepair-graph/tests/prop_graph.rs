//! Property tests for the storage substrate: arbitrary mutation sequences
//! must preserve every structural invariant, documents must round-trip,
//! and the edit-distance bounds must hold.

use grepair_graph::{
    ged_lower_bound, graph_edit_distance, EdgeDoc, EdgeId, EditCosts, Graph, GraphDoc, NodeDoc,
    NodeId, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Characters the text format must quote, escape or pass through intact:
/// both token separators, a blank it does not split on (U+00A0), quote,
/// backslash, `=`, `#` (a comment when leading), control characters and
/// multi-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', '-', '.', ' ', '\t', '\u{a0}', '"', '\\', '=', '#', '\n', '\r', '\0', '\u{7}',
    'é', '日', '🦀',
];

/// Strings over [`ALPHABET`] (the proptest shim has no string strategy).
fn string_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), len)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Every value kind, weighted toward the edges of each domain.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0), any::<i64>()].prop_map(Value::Int),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(5e-324),
            Just(1e300),
            any::<f64>(),
        ]
        .prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        string_strategy(0..6).prop_map(Value::Str),
    ]
}

/// Documents with arbitrary (distinct) handles, names over [`ALPHABET`]
/// and edges between existing handles.
fn doc_strategy() -> impl Strategy<Value = GraphDoc> {
    let attrs = prop::collection::vec((string_strategy(0..5), value_strategy()), 0..5);
    let nodes = prop::collection::vec((any::<u32>(), string_strategy(0..5), attrs), 0..8);
    let edges = prop::collection::vec((any::<u8>(), string_strategy(0..5), any::<u8>()), 0..10);
    (nodes, edges).prop_map(|(nodes, edges)| {
        let mut seen = BTreeSet::new();
        let nodes: Vec<NodeDoc> = nodes
            .into_iter()
            .filter(|(id, _, _)| seen.insert(*id))
            .map(|(id, label, attrs)| NodeDoc {
                id,
                label,
                attrs: attrs.into_iter().collect(),
            })
            .collect();
        let edges = if nodes.is_empty() {
            Vec::new()
        } else {
            let pick = |sel: u8| nodes[sel as usize % nodes.len()].id;
            edges
                .into_iter()
                .map(|(s, label, d)| EdgeDoc {
                    src: pick(s),
                    dst: pick(d),
                    label,
                })
                .collect()
        };
        GraphDoc { nodes, edges }
    })
}

/// Fragments of (mostly) malformed fixture text: directives, numbers at
/// and past the `u32` range, quotes, escapes, `=`, blanks and line breaks.
const SOUP: &[&str] = &[
    "node ",
    "edge ",
    "0",
    "7 ",
    "4294967295",
    "4294967296",
    "-1",
    "=",
    "\"",
    "\\",
    "\\u{",
    "\\u{1F980}",
    "\\u{d800}",
    "}",
    "x",
    "\"k\"=",
    "=\"v\"",
    "1.5",
    "true",
    " ",
    "\t",
    "\n",
    "\r\n",
    "# c\n",
];

fn soup_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            (0..SOUP.len()).prop_map(|i| SOUP[i].to_owned()),
            (0..ALPHABET.len()).prop_map(|i| ALPHABET[i].to_string()),
        ],
        0..40,
    )
    .prop_map(|frags| frags.concat())
}

/// A mutation in a random op sequence.
#[derive(Clone, Debug)]
enum Op {
    AddNode(u8),
    AddNodeWithAttrs(u8, u8, i64),
    AddEdge(u8, u8, u8),
    RemoveNode(u8),
    RemoveEdge(u8),
    RelabelNode(u8, u8),
    RelabelEdge(u8, u8),
    SetAttr(u8, u8, i64),
    SetAttrFloat(u8, u8, i64),
    SetAttrStr(u8, u8),
    RemoveAttr(u8, u8),
    Merge(u8, u8, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::AddNode),
        (any::<u8>(), any::<u8>(), any::<i64>())
            .prop_map(|(l, k, v)| Op::AddNodeWithAttrs(l, k, v)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, l)| Op::AddEdge(a, b, l)),
        any::<u8>().prop_map(Op::RemoveNode),
        any::<u8>().prop_map(Op::RemoveEdge),
        (any::<u8>(), any::<u8>()).prop_map(|(n, l)| Op::RelabelNode(n, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(e, l)| Op::RelabelEdge(e, l)),
        (any::<u8>(), any::<u8>(), any::<i64>()).prop_map(|(n, k, v)| Op::SetAttr(n, k, v)),
        (any::<u8>(), any::<u8>(), any::<i64>()).prop_map(|(n, k, v)| Op::SetAttrFloat(n, k, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(n, k)| Op::SetAttrStr(n, k)),
        (any::<u8>(), any::<u8>()).prop_map(|(n, k)| Op::RemoveAttr(n, k)),
        (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(a, b, d)| Op::Merge(a, b, d)),
    ]
}

/// Apply ops best-effort: ids are taken modulo the live population, so
/// every op targets a plausible element when one exists.
fn apply_ops(ops: &[Op]) -> Graph {
    let mut g = Graph::new();
    apply_ops_to(&mut g, ops);
    g
}

/// [`apply_ops`] continued on an existing graph (interning the same
/// labels and keys is idempotent).
fn apply_ops_to(g: &mut Graph, ops: &[Op]) {
    let labels: Vec<_> = (0..4).map(|i| g.label(&format!("L{i}"))).collect();
    let keys: Vec<_> = (0..3).map(|i| g.attr_key(&format!("k{i}"))).collect();
    let pick_node = |g: &Graph, sel: u8| -> Option<NodeId> {
        let nodes: Vec<NodeId> = g.nodes().collect();
        if nodes.is_empty() {
            None
        } else {
            Some(nodes[sel as usize % nodes.len()])
        }
    };
    let pick_edge = |g: &Graph, sel: u8| -> Option<EdgeId> {
        let edges: Vec<EdgeId> = g.edges().collect();
        if edges.is_empty() {
            None
        } else {
            Some(edges[sel as usize % edges.len()])
        }
    };
    for op in ops {
        match op {
            Op::AddNode(l) => {
                g.add_node(labels[*l as usize % labels.len()]);
            }
            Op::AddNodeWithAttrs(l, k, v) => {
                let attrs = vec![(keys[*k as usize % keys.len()], Value::Int(*v % 8))];
                g.add_node_with_attrs(labels[*l as usize % labels.len()], attrs);
            }
            Op::AddEdge(a, b, l) => {
                if let (Some(s), Some(d)) = (pick_node(g, *a), pick_node(g, *b)) {
                    g.add_edge(s, d, labels[*l as usize % labels.len()])
                        .unwrap();
                }
            }
            Op::RemoveNode(n) => {
                if let Some(n) = pick_node(g, *n) {
                    g.remove_node(n).unwrap();
                }
            }
            Op::RemoveEdge(e) => {
                if let Some(e) = pick_edge(g, *e) {
                    g.remove_edge(e).unwrap();
                }
            }
            Op::RelabelNode(n, l) => {
                if let Some(n) = pick_node(g, *n) {
                    g.set_node_label(n, labels[*l as usize % labels.len()])
                        .unwrap();
                }
            }
            Op::RelabelEdge(e, l) => {
                if let Some(e) = pick_edge(g, *e) {
                    g.set_edge_label(e, labels[*l as usize % labels.len()])
                        .unwrap();
                }
            }
            Op::SetAttr(n, k, v) => {
                if let Some(n) = pick_node(g, *n) {
                    g.set_attr(n, keys[*k as usize % keys.len()], Value::Int(*v % 8))
                        .unwrap();
                }
            }
            Op::SetAttrFloat(n, k, v) => {
                if let Some(n) = pick_node(g, *n) {
                    let v = Value::Float((*v % 8) as f64 / 2.0);
                    g.set_attr(n, keys[*k as usize % keys.len()], v).unwrap();
                }
            }
            Op::SetAttrStr(n, k) => {
                if let Some(n) = pick_node(g, *n) {
                    g.set_attr(n, keys[*k as usize % keys.len()], Value::from("s"))
                        .unwrap();
                }
            }
            Op::RemoveAttr(n, k) => {
                if let Some(n) = pick_node(g, *n) {
                    g.remove_attr(n, keys[*k as usize % keys.len()]).unwrap();
                }
            }
            Op::Merge(a, b, dedup) => {
                if let (Some(keep), Some(merged)) = (pick_node(g, *a), pick_node(g, *b)) {
                    if keep != merged {
                        g.merge_nodes(keep, merged, *dedup).unwrap();
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The headline invariant: any op sequence leaves the graph
    /// structurally sound (adjacency symmetry, index freshness,
    /// signatures, counts — see `Graph::check_invariants`).
    #[test]
    fn mutation_sequences_preserve_invariants(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let g = apply_ops(&ops);
        prop_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
    }

    /// A slot-image restore and a clone are both sound graphs that
    /// allocate the ids the original would: the same further ops leave
    /// all three with identical slot images (tombstone reuse included)
    /// and every invariant intact.
    #[test]
    fn restored_and_cloned_graphs_stay_sound(
        ops in prop::collection::vec(op_strategy(), 0..40),
        more in prop::collection::vec(op_strategy(), 0..20),
    ) {
        let mut g = apply_ops(&ops);
        let mut restored = Graph::restore_slots(&g.dump_slots()).unwrap();
        let mut cloned = g.clone();
        for h in [&mut g, &mut restored, &mut cloned] {
            apply_ops_to(h, &more);
            prop_assert!(h.check_invariants().is_ok(), "{:?}", h.check_invariants());
        }
        prop_assert_eq!(restored.dump_slots(), g.dump_slots());
        prop_assert_eq!(cloned.dump_slots(), g.dump_slots());
    }

    /// Documents round-trip: graph → doc → graph → doc is a fixpoint.
    #[test]
    fn doc_round_trip(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let g = apply_ops(&ops);
        let doc = g.to_doc();
        let g2 = Graph::from_doc(&doc).unwrap();
        prop_assert_eq!(g2.to_doc(), doc.clone());
        // And through JSON.
        let doc3 = GraphDoc::from_json(&doc.to_json()).unwrap();
        prop_assert_eq!(doc3, doc);
    }

    /// Node/edge counts agree with iterator lengths after any history.
    #[test]
    fn counts_agree_with_iterators(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let g = apply_ops(&ops);
        prop_assert_eq!(g.nodes().count(), g.num_nodes());
        prop_assert_eq!(g.edges().count(), g.num_edges());
        let degree_sum: usize = g.nodes().map(|n| g.degree(n)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    /// GED properties on small graphs: identity is 0, symmetry under unit
    /// costs, and the label lower bound is sound.
    #[test]
    fn ged_properties(
        ops_a in prop::collection::vec(op_strategy(), 0..14),
        ops_b in prop::collection::vec(op_strategy(), 0..14),
    ) {
        let a = apply_ops(&ops_a);
        let b = apply_ops(&ops_b);
        prop_assume!(a.num_nodes() <= 5 && b.num_nodes() <= 5);
        let costs = EditCosts::unit();
        let d_aa = graph_edit_distance(&a, &a, &costs, 6).unwrap();
        prop_assert_eq!(d_aa, 0.0);
        let d_ab = graph_edit_distance(&a, &b, &costs, 6).unwrap();
        let d_ba = graph_edit_distance(&b, &a, &costs, 6).unwrap();
        prop_assert!((d_ab - d_ba).abs() < 1e-9, "asymmetric: {d_ab} vs {d_ba}");
        let lb = ged_lower_bound(&a, &b, &costs);
        prop_assert!(lb <= d_ab + 1e-9, "lb {lb} > exact {d_ab}");
    }

    /// The attribute value index agrees with a full scan — also where
    /// it was built mid-sequence. At a random point a lookup builds the
    /// indexes of a random subset of the keys; the rest of the sequence
    /// (removals, merges, overwrites) must keep them exact, in the graph
    /// and in a clone taken right after the build.
    #[test]
    fn attr_index_agrees_with_scan(
        ops in prop::collection::vec(op_strategy(), 0..60),
        split in 0usize..61,
        built in 0u8..8,
    ) {
        let (head, tail) = ops.split_at(split.min(ops.len()));
        let mut g = apply_ops(head);
        let keys: Vec<_> = (0..3).map(|i| g.try_attr_key(&format!("k{i}")).unwrap()).collect();
        for (i, &key) in keys.iter().enumerate() {
            if built >> i & 1 == 1 {
                g.count_nodes_with_attr(key, &Value::Int(0));
            }
        }
        let mut copy = g.clone();
        apply_ops_to(&mut g, tail);
        apply_ops_to(&mut copy, tail);
        for g in [&g, &copy] {
            prop_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
            for &key in &keys {
                for v in -7..8i64 {
                    let val = Value::Int(v);
                    let mut indexed = g.nodes_with_attr(key, &val);
                    indexed.sort_unstable();
                    let mut scanned: Vec<_> = g
                        .nodes()
                        .filter(|&n| g.attr(n, key) == Some(&val))
                        .collect();
                    scanned.sort_unstable();
                    prop_assert_eq!(indexed, scanned);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The text format is lossless for every document it can spell, and
    /// what it reads back builds a sound graph.
    #[test]
    fn text_round_trip(doc in doc_strategy()) {
        let text = doc.to_text();
        let back = GraphDoc::from_text(&text);
        prop_assert!(back.is_ok(), "{:?}\n{text}", back);
        let back = back.unwrap();
        prop_assert_eq!(&back, &doc, "{text}");
        let g = Graph::from_doc(&back).unwrap();
        prop_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
    }

    /// Hostile text yields `Ok` or `Err`, never a panic — on its own and
    /// spliced into valid text at any character boundary.
    #[test]
    fn text_parse_never_panics(
        soup in soup_strategy(),
        doc in doc_strategy(),
        at in any::<usize>(),
    ) {
        if let Ok(d) = GraphDoc::from_text(&soup) {
            let _ = Graph::from_doc(&d);
        }
        let mut text = doc.to_text();
        let cuts: Vec<usize> = text.char_indices().map(|(i, _)| i).chain([text.len()]).collect();
        text.insert_str(cuts[at % cuts.len()], &soup);
        if let Ok(d) = GraphDoc::from_text(&text) {
            let _ = Graph::from_doc(&d);
        }
    }
}
