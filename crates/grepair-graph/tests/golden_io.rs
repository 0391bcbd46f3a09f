//! Golden-file round-trip tests for `grepair_graph::io`.
//!
//! Each golden file under `tests/golden/` is the canonical serialization
//! of a fixture graph. The tests assert byte-exact stability of the
//! serializers (`parse(golden) → graph → serialize == golden`) and deep
//! equality of the document model through every round trip — including
//! fixtures whose build history leaves free-list tombstones, which the
//! doc exporter must compact.
//!
//! Regenerate after an intentional format change with
//! `GOLDEN_REGEN=1 cargo test -p grepair-graph --test golden_io`.

use grepair_graph::{Graph, GraphDoc, Value};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the golden file, or rewrite it under
/// `GOLDEN_REGEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name} drifted from its golden file; run with GOLDEN_REGEN=1 if intentional"
    );
}

/// A small KG exercising every value type, quoted strings, parallel
/// edges and a self-loop.
fn clean_fixture() -> Graph {
    let mut g = Graph::new();
    let person = g.label("Person");
    let city = g.label("City");
    let lives = g.label("livesIn");
    let knows = g.label("knows");
    let name = g.attr_key("name");
    let age = g.attr_key("age");
    let score = g.attr_key("score");
    let active = g.attr_key("active");
    let ann = g.add_node_with_attrs(
        person,
        vec![
            (name, Value::from("Ann \"The Graph\" Lee")),
            (age, Value::Int(34)),
            (score, Value::Float(0.5)),
            (active, Value::Bool(true)),
        ],
    );
    let bob = g.add_node_with_attrs(person, vec![(name, Value::from("Bob"))]);
    let oslo = g.add_node(city);
    g.add_edge(ann, oslo, lives).unwrap();
    g.add_edge(bob, oslo, lives).unwrap();
    g.add_edge(ann, bob, knows).unwrap();
    g.add_edge(ann, bob, knows).unwrap(); // parallel
    g.add_edge(bob, bob, knows).unwrap(); // self-loop
    g
}

/// The same shape built through deletions, leaving node and edge
/// tombstones in the free lists (plus one recycled slot).
fn tombstoned_fixture() -> Graph {
    let mut g = clean_fixture();
    let org = g.add_node_named("Org");
    let person = g.try_label("Person").unwrap();
    let doomed = g.add_node(person);
    let city = g.try_label("City").unwrap();
    let oslo = g.nodes_with_label(city)[0];
    let lives = g.try_label("livesIn").unwrap();
    let e = g.add_edge(doomed, oslo, lives).unwrap();
    g.remove_edge(e).unwrap();
    g.remove_node(doomed).unwrap();
    g.remove_node(org).unwrap();
    // Recycle one freed slot so doc handles and node ids diverge.
    g.add_node(city);
    g.remove_node(g.nodes_with_label(city)[1]).unwrap();
    g
}

#[test]
fn json_golden_round_trip() {
    let g = clean_fixture();
    let doc = g.to_doc();
    let json = doc.to_json();
    assert_golden("kg_small.json", &json);

    let parsed = GraphDoc::from_json(&json).unwrap();
    assert_eq!(parsed, doc, "parse(serialize(doc)) must deep-equal doc");
    let rebuilt = Graph::from_doc(&parsed).unwrap();
    assert_eq!(rebuilt.to_doc(), doc, "graph round trip must be stable");
    assert_eq!(rebuilt.to_doc().to_json(), json);
}

#[test]
fn text_golden_round_trip() {
    let g = clean_fixture();
    let doc = g.to_doc();
    let text = doc.to_text();
    assert_golden("kg_small.txt", &text);

    let parsed = GraphDoc::from_text(&text).unwrap();
    assert_eq!(parsed, doc);
    let rebuilt = Graph::from_doc(&parsed).unwrap();
    assert_eq!(rebuilt.to_doc().to_text(), text);
}

#[test]
fn tombstoned_graph_round_trips_compactly() {
    let g = tombstoned_fixture();
    g.check_invariants().unwrap();
    let doc = g.to_doc();
    // The doc only carries live elements, densely renumbered.
    assert_eq!(doc.nodes.len(), g.num_nodes());
    assert_eq!(doc.edges.len(), g.num_edges());
    let json = doc.to_json();
    assert_golden("kg_tombstoned.json", &json);

    let rebuilt = Graph::from_doc(&GraphDoc::from_json(&json).unwrap()).unwrap();
    assert_eq!(rebuilt.to_doc(), doc);
    rebuilt.check_invariants().unwrap();

    // Text format agrees on the same fixture.
    let text = doc.to_text();
    assert_golden("kg_tombstoned.txt", &text);
    assert_eq!(GraphDoc::from_text(&text).unwrap(), doc);
}
