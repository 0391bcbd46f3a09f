//! Exact slot-level images of a [`Graph`](crate::Graph): the
//! in-memory form tests compare graphs by.
//!
//! [`crate::GraphDoc`] deliberately renumbers: doc handles are dense and
//! tombstoned slots disappear, which is right for interchange but wrong
//! for a durable store whose write-ahead log references *concrete*
//! [`NodeId`](crate::NodeId)/[`EdgeId`](crate::EdgeId) slots. A
//! [`SlotDump`] is the GraphDoc-derived superset that closes the gap:
//!
//! - the embedded [`GraphDoc`] uses **raw slot ids as handles** (so holes
//!   are allowed) and lists edges in **edge-id order**, with
//!   [`SlotDump::edge_ids`] carrying each edge's slot id;
//! - the free lists are recorded **verbatim, in stack order** — slot
//!   reuse pops the same ids in the same order after a restore as it
//!   would have in the dumped graph, which is what makes
//!   snapshot-then-replay-log recovery byte-exact;
//! - total slot counts pin the tombstone population.
//!
//! Interner numbering is intentionally *not* part of the image: labels
//! and keys travel as strings and re-intern on restore. Numeric label
//! ids are process-local derived state (they only feed index layout,
//! never slot allocation), so two processes may legally disagree on them
//! while agreeing on every slot.
//!
//! Durable snapshots carry the same image but never build a `SlotDump`:
//! the store encodes it straight from the graph's slots
//! ([`Graph::node_slots`](crate::Graph::node_slots),
//! [`Graph::free_node_slots`](crate::Graph::free_node_slots), …) and
//! decodes it through [`SlotLoader`](crate::SlotLoader), the one
//! validating loader that [`Graph::restore_slots`](crate::Graph::restore_slots)
//! also feeds. [`Graph::dump_slots`](crate::Graph::dump_slots), the
//! loader and `restore_slots` live in [`crate::graph`] (they need
//! private slot access); this module owns the image type and its
//! validation-focused tests.

use crate::io::GraphDoc;
use serde::{Deserialize, Serialize};

/// Exact, portable image of a [`Graph`]'s slot state.
///
/// Equality of two dumps implies the graphs are indistinguishable to any
/// caller holding element ids — same live elements, same labels and
/// attributes (by name), same tombstones, and the same future slot-reuse
/// order. The mutation version counter is carried so staleness tracking
/// survives a restore.
///
/// [`Graph`]: crate::Graph
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SlotDump {
    /// Nodes (handles = raw slot ids, ascending) and edges (edge-id
    /// order, endpoints = raw slot ids).
    pub doc: GraphDoc,
    /// Slot id of `doc.edges[i]`, ascending.
    pub edge_ids: Vec<u32>,
    /// Node free list, verbatim stack order (last entry pops first).
    pub free_nodes: Vec<u32>,
    /// Edge free list, verbatim stack order.
    pub free_edges: Vec<u32>,
    /// Total node slots, live + tombstoned.
    pub node_slots: u32,
    /// Total edge slots, live + tombstoned.
    pub edge_slots: u32,
    /// Mutation version counter at dump time.
    pub version: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::value::Value;

    fn churned_graph() -> Graph {
        let mut g = Graph::new();
        let p = g.label("Person");
        let c = g.label("City");
        let lives = g.label("livesIn");
        let knows = g.label("knows");
        let name = g.attr_key("name");
        let nodes: Vec<_> = (0..8).map(|_| g.add_node(p)).collect();
        let city = g.add_node(c);
        for (i, &n) in nodes.iter().enumerate() {
            g.add_edge(n, city, lives).unwrap();
            g.set_attr(n, name, Value::from(format!("p{i}"))).unwrap();
            if i > 0 {
                g.add_edge(nodes[i - 1], n, knows).unwrap();
            }
        }
        // Leave tombstones in both slabs, in a non-trivial order.
        g.remove_node(nodes[3]).unwrap();
        g.remove_node(nodes[6]).unwrap();
        let e = g.find_edge(nodes[0], city, lives).unwrap();
        g.remove_edge(e).unwrap();
        g
    }

    #[test]
    fn dump_restore_round_trip_is_exact() {
        let g = churned_graph();
        let dump = g.dump_slots();
        let restored = Graph::restore_slots(&dump).unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(restored.dump_slots(), dump);
        assert_eq!(restored.num_nodes(), g.num_nodes());
        assert_eq!(restored.num_edges(), g.num_edges());
        assert_eq!(restored.to_doc(), g.to_doc());
        assert_eq!(restored.version(), g.version());
    }

    #[test]
    fn restore_preserves_slot_reuse_order() {
        let mut g = churned_graph();
        let dump = g.dump_slots();
        let mut restored = Graph::restore_slots(&dump).unwrap();
        // Future allocations must pop the same tombstones in the same
        // order on both sides.
        for _ in 0..3 {
            let a = g.add_node_named("Fresh");
            let b = restored.add_node_named("Fresh");
            assert_eq!(a, b, "node slot reuse must match");
        }
        let ga = g.nodes().next().unwrap();
        let gb = g.nodes().nth(1).unwrap();
        for _ in 0..2 {
            let ea = g.add_edge_named(ga, gb, "rel").unwrap();
            let eb = restored.add_edge_named(ga, gb, "rel").unwrap();
            assert_eq!(ea, eb, "edge slot reuse must match");
        }
        restored.check_invariants().unwrap();
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new();
        let dump = g.dump_slots();
        assert_eq!(dump.node_slots, 0);
        let restored = Graph::restore_slots(&dump).unwrap();
        assert_eq!(restored.num_nodes(), 0);
        assert_eq!(restored.dump_slots(), dump);
    }

    #[test]
    fn restore_rejects_inconsistent_dumps() {
        let g = churned_graph();
        // A slot that is neither live nor free.
        let mut d = g.dump_slots();
        d.free_nodes.pop();
        assert!(Graph::restore_slots(&d).is_err());
        // A slot that is both live and free.
        let mut d = g.dump_slots();
        let live = d.doc.nodes[0].id;
        *d.free_nodes.last_mut().unwrap() = live;
        assert!(Graph::restore_slots(&d).is_err());
        // Handle out of range.
        let mut d = g.dump_slots();
        d.doc.nodes[0].id = d.node_slots;
        assert!(Graph::restore_slots(&d).is_err());
        // Edge referencing a dead endpoint.
        let mut d = g.dump_slots();
        let dead = d.free_nodes[0];
        d.doc.edges[0].src = dead;
        assert!(Graph::restore_slots(&d).is_err());
        // Edge id / edge count mismatch.
        let mut d = g.dump_slots();
        d.edge_ids.pop();
        assert!(Graph::restore_slots(&d).is_err());
        // Duplicate edge slot.
        let mut d = g.dump_slots();
        d.edge_ids[1] = d.edge_ids[0];
        assert!(Graph::restore_slots(&d).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let dump = churned_graph().dump_slots();
        let json = serde_json::to_string(&dump).unwrap();
        let back: SlotDump = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dump);
    }
}
