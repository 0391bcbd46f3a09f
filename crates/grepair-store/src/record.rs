//! The journaled mutation vocabulary and its binary codec.
//!
//! A [`Mutation`] mirrors the [`Graph`] mutation API one-to-one (the
//! paper's seven repair operations plus attribute removal), carrying
//! labels and attribute keys **as strings** — interner numbering is
//! process-local — and element ids as raw slot numbers. Insertions also
//! record the id they allocated at write time, so replay can verify the
//! log is still deterministic ([`StoreError::ReplayDivergence`]
//! otherwise) instead of silently rebuilding a different graph.
//!
//! The store never builds a [`Mutation`]: recovery, fsck and the
//! read-only open decode each record into a `MutationRef`, whose names
//! borrow the record bytes and whose values are moved into the graph by
//! `MutationRef::apply`. That decoder and that apply routine are the
//! only ones — the owned [`Mutation`], the tests' record type, decodes
//! and applies through them too.
//!
//! Replay calls exactly the live-path method sequence (`AddNode` =
//! `add_node` + one `set_attr` per attribute, `MergeNodes` =
//! `merge_nodes`, …), which — combined with the graph's canonical
//! incident-edge ordering — makes slot allocation a pure function of
//! the op sequence.

use crate::codec::{ByteReader, ByteWriter, DecodeError};
use crate::error::{Result, StoreError};
use grepair_core::AppliedOp;
use grepair_graph::{EdgeId, Graph, NodeId, Value};

/// One journaled graph mutation, owned: the record type of the tests'
/// reader ([`crate::wal::read_segment`]) and writer
/// ([`crate::SegmentWriter::append`]). The store journals from borrowed
/// arguments and replays borrowed records.
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// A node was created (id recorded for replay verification), then
    /// its attributes set in order.
    AddNode {
        /// Slot the insertion allocated.
        node: NodeId,
        /// Node label.
        label: String,
        /// Attributes set at creation, in application order.
        attrs: Vec<(String, Value)>,
    },
    /// A node (and its incident edges) was deleted.
    RemoveNode {
        /// The deleted node.
        node: NodeId,
    },
    /// An edge was created.
    AddEdge {
        /// Slot the insertion allocated.
        edge: EdgeId,
        /// Source node.
        src: NodeId,
        /// Target node.
        dst: NodeId,
        /// Relation label.
        label: String,
    },
    /// An edge was deleted.
    RemoveEdge {
        /// The deleted edge.
        edge: EdgeId,
    },
    /// A node was relabelled.
    SetNodeLabel {
        /// The node.
        node: NodeId,
        /// New label.
        label: String,
    },
    /// An edge was relabelled.
    SetEdgeLabel {
        /// The edge.
        edge: EdgeId,
        /// New label.
        label: String,
    },
    /// An attribute was set (created or overwritten).
    SetAttr {
        /// The node.
        node: NodeId,
        /// Attribute key.
        key: String,
        /// New value.
        value: Value,
    },
    /// An attribute was removed.
    RemoveAttr {
        /// The node.
        node: NodeId,
        /// Attribute key.
        key: String,
    },
    /// Two nodes were merged.
    MergeNodes {
        /// Surviving node.
        keep: NodeId,
        /// Absorbed node.
        merged: NodeId,
        /// Whether parallel duplicates were dropped.
        dedup_parallel: bool,
    },
}

const OP_ADD_NODE: u8 = 1;
const OP_REMOVE_NODE: u8 = 2;
const OP_ADD_EDGE: u8 = 3;
const OP_REMOVE_EDGE: u8 = 4;
const OP_SET_NODE_LABEL: u8 = 5;
const OP_SET_EDGE_LABEL: u8 = 6;
const OP_SET_ATTR: u8 = 7;
const OP_REMOVE_ATTR: u8 = 8;
const OP_MERGE_NODES: u8 = 9;

/// Encode a [`Value`] (tag byte + payload).
pub fn encode_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Str(s) => {
            w.u8(0);
            w.str(s);
        }
        Value::Int(i) => {
            w.u8(1);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(2);
            w.u64(f.to_bits());
        }
        Value::Bool(b) => {
            w.u8(3);
            w.u8(*b as u8);
        }
    }
}

/// Decode a [`Value`].
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, DecodeError> {
    match r.u8()? {
        0 => Ok(Value::Str(r.str_ref()?.to_owned())),
        1 => Ok(Value::Int(r.i64()?)),
        2 => Ok(Value::Float(f64::from_bits(r.u64()?))),
        3 => Ok(Value::Bool(r.u8()? != 0)),
        t => Err(DecodeError(format!("unknown value tag {t}"))),
    }
}

// One encoder per opcode. `Mutation::encode` and the store's mutators
// both go through these, so a mutator can journal straight from its
// borrowed arguments without building an owned `Mutation` first.

pub(crate) fn encode_add_node(
    w: &mut ByteWriter,
    node: NodeId,
    label: &str,
    attrs: &[(String, Value)],
) {
    w.u8(OP_ADD_NODE);
    w.u32(node.0);
    w.str(label);
    w.u32(attrs.len() as u32);
    for (k, v) in attrs {
        w.str(k);
        encode_value(w, v);
    }
}

pub(crate) fn encode_remove_node(w: &mut ByteWriter, node: NodeId) {
    w.u8(OP_REMOVE_NODE);
    w.u32(node.0);
}

pub(crate) fn encode_add_edge(
    w: &mut ByteWriter,
    edge: EdgeId,
    src: NodeId,
    dst: NodeId,
    label: &str,
) {
    w.u8(OP_ADD_EDGE);
    w.u32(edge.0);
    w.u32(src.0);
    w.u32(dst.0);
    w.str(label);
}

pub(crate) fn encode_remove_edge(w: &mut ByteWriter, edge: EdgeId) {
    w.u8(OP_REMOVE_EDGE);
    w.u32(edge.0);
}

pub(crate) fn encode_set_node_label(w: &mut ByteWriter, node: NodeId, label: &str) {
    w.u8(OP_SET_NODE_LABEL);
    w.u32(node.0);
    w.str(label);
}

pub(crate) fn encode_set_edge_label(w: &mut ByteWriter, edge: EdgeId, label: &str) {
    w.u8(OP_SET_EDGE_LABEL);
    w.u32(edge.0);
    w.str(label);
}

pub(crate) fn encode_set_attr(w: &mut ByteWriter, node: NodeId, key: &str, value: &Value) {
    w.u8(OP_SET_ATTR);
    w.u32(node.0);
    w.str(key);
    encode_value(w, value);
}

pub(crate) fn encode_remove_attr(w: &mut ByteWriter, node: NodeId, key: &str) {
    w.u8(OP_REMOVE_ATTR);
    w.u32(node.0);
    w.str(key);
}

pub(crate) fn encode_merge_nodes(
    w: &mut ByteWriter,
    keep: NodeId,
    merged: NodeId,
    dedup_parallel: bool,
) {
    w.u8(OP_MERGE_NODES);
    w.u32(keep.0);
    w.u32(merged.0);
    w.u8(dedup_parallel as u8);
}

/// Append the journal record of an engine-applied repair operation to
/// `w` — the bytes [`Mutation::encode`] writes for the same mutation.
///
/// [`AppliedOp`]s record what [`grepair_core::apply_rule`] actually did,
/// in the exact call order, so the mapping is mechanical; what an op
/// carries beyond that (`old` values, `from` labels, counts) is a
/// function of the pre-state and is not journaled.
pub fn encode_applied(w: &mut ByteWriter, op: &AppliedOp) {
    match op {
        AppliedOp::InsertNode { node, label, attrs } => encode_add_node(w, *node, label, attrs),
        AppliedOp::InsertEdge {
            edge,
            src,
            dst,
            label,
        } => encode_add_edge(w, *edge, *src, *dst, label),
        AppliedOp::DeleteNode { node, .. } => encode_remove_node(w, *node),
        AppliedOp::DeleteEdge { edge, .. } => encode_remove_edge(w, *edge),
        AppliedOp::RelabelNode { node, to, .. } => encode_set_node_label(w, *node, to),
        AppliedOp::RelabelEdge { edge, to, .. } => encode_set_edge_label(w, *edge, to),
        AppliedOp::SetAttr {
            node, key, value, ..
        } => encode_set_attr(w, *node, key, value),
        AppliedOp::RemoveAttr { node, key, .. } => encode_remove_attr(w, *node, key),
        // apply_rule always merges with parallel-dedup on.
        AppliedOp::Merge { keep, merged, .. } => encode_merge_nodes(w, *keep, *merged, true),
    }
}

impl Mutation {
    /// Append the binary form to `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        match self {
            Mutation::AddNode { node, label, attrs } => encode_add_node(w, *node, label, attrs),
            Mutation::RemoveNode { node } => encode_remove_node(w, *node),
            Mutation::AddEdge {
                edge,
                src,
                dst,
                label,
            } => encode_add_edge(w, *edge, *src, *dst, label),
            Mutation::RemoveEdge { edge } => encode_remove_edge(w, *edge),
            Mutation::SetNodeLabel { node, label } => encode_set_node_label(w, *node, label),
            Mutation::SetEdgeLabel { edge, label } => encode_set_edge_label(w, *edge, label),
            Mutation::SetAttr { node, key, value } => encode_set_attr(w, *node, key, value),
            Mutation::RemoveAttr { node, key } => encode_remove_attr(w, *node, key),
            Mutation::MergeNodes {
                keep,
                merged,
                dedup_parallel,
            } => encode_merge_nodes(w, *keep, *merged, *dedup_parallel),
        }
    }

    /// Decode one mutation from `r` (through the decoder recovery uses).
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        MutationRef::decode(r).map(MutationRef::into_owned)
    }

    /// This mutation as a `MutationRef`: names borrowed, values cloned.
    fn view(&self) -> MutationRef<'_> {
        match self {
            Mutation::AddNode { node, label, attrs } => MutationRef::AddNode {
                node: *node,
                label,
                attrs: attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect(),
            },
            Mutation::RemoveNode { node } => MutationRef::RemoveNode { node: *node },
            Mutation::AddEdge {
                edge,
                src,
                dst,
                label,
            } => MutationRef::AddEdge {
                edge: *edge,
                src: *src,
                dst: *dst,
                label,
            },
            Mutation::RemoveEdge { edge } => MutationRef::RemoveEdge { edge: *edge },
            Mutation::SetNodeLabel { node, label } => {
                MutationRef::SetNodeLabel { node: *node, label }
            }
            Mutation::SetEdgeLabel { edge, label } => {
                MutationRef::SetEdgeLabel { edge: *edge, label }
            }
            Mutation::SetAttr { node, key, value } => MutationRef::SetAttr {
                node: *node,
                key,
                value: value.clone(),
            },
            Mutation::RemoveAttr { node, key } => MutationRef::RemoveAttr { node: *node, key },
            Mutation::MergeNodes {
                keep,
                merged,
                dedup_parallel,
            } => MutationRef::MergeNodes {
                keep: *keep,
                merged: *merged,
                dedup_parallel: *dedup_parallel,
            },
        }
    }

    /// Re-apply this mutation to `g` (through the apply routine recovery
    /// uses).
    pub fn apply(&self, g: &mut Graph) -> Result<()> {
        self.view().apply(g)
    }
}

/// One journaled mutation as recovery decodes it: label and key names
/// borrow the record bytes, values are owned. The variants mirror
/// [`Mutation`]'s field for field.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum MutationRef<'a> {
    AddNode {
        node: NodeId,
        label: &'a str,
        attrs: Vec<(&'a str, Value)>,
    },
    RemoveNode {
        node: NodeId,
    },
    AddEdge {
        edge: EdgeId,
        src: NodeId,
        dst: NodeId,
        label: &'a str,
    },
    RemoveEdge {
        edge: EdgeId,
    },
    SetNodeLabel {
        node: NodeId,
        label: &'a str,
    },
    SetEdgeLabel {
        edge: EdgeId,
        label: &'a str,
    },
    SetAttr {
        node: NodeId,
        key: &'a str,
        value: Value,
    },
    RemoveAttr {
        node: NodeId,
        key: &'a str,
    },
    MergeNodes {
        keep: NodeId,
        merged: NodeId,
        dedup_parallel: bool,
    },
}

impl<'a> MutationRef<'a> {
    /// Decode one record body from `r`: the one wire decoder. Names are
    /// borrowed from `r`'s buffer; only string values allocate.
    pub fn decode(r: &mut ByteReader<'a>) -> Result<Self, DecodeError> {
        match r.u8()? {
            OP_ADD_NODE => {
                let node = NodeId(r.u32()?);
                let label = r.str_ref()?;
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(DecodeError(format!("attr count {n} exceeds payload")));
                }
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = r.str_ref()?;
                    let v = decode_value(r)?;
                    attrs.push((k, v));
                }
                Ok(MutationRef::AddNode { node, label, attrs })
            }
            OP_REMOVE_NODE => Ok(MutationRef::RemoveNode {
                node: NodeId(r.u32()?),
            }),
            OP_ADD_EDGE => Ok(MutationRef::AddEdge {
                edge: EdgeId(r.u32()?),
                src: NodeId(r.u32()?),
                dst: NodeId(r.u32()?),
                label: r.str_ref()?,
            }),
            OP_REMOVE_EDGE => Ok(MutationRef::RemoveEdge {
                edge: EdgeId(r.u32()?),
            }),
            OP_SET_NODE_LABEL => Ok(MutationRef::SetNodeLabel {
                node: NodeId(r.u32()?),
                label: r.str_ref()?,
            }),
            OP_SET_EDGE_LABEL => Ok(MutationRef::SetEdgeLabel {
                edge: EdgeId(r.u32()?),
                label: r.str_ref()?,
            }),
            OP_SET_ATTR => Ok(MutationRef::SetAttr {
                node: NodeId(r.u32()?),
                key: r.str_ref()?,
                value: decode_value(r)?,
            }),
            OP_REMOVE_ATTR => Ok(MutationRef::RemoveAttr {
                node: NodeId(r.u32()?),
                key: r.str_ref()?,
            }),
            OP_MERGE_NODES => Ok(MutationRef::MergeNodes {
                keep: NodeId(r.u32()?),
                merged: NodeId(r.u32()?),
                dedup_parallel: r.u8()? != 0,
            }),
            t => Err(DecodeError(format!("unknown mutation opcode {t}"))),
        }
    }

    /// The owned form.
    pub fn into_owned(self) -> Mutation {
        match self {
            MutationRef::AddNode { node, label, attrs } => Mutation::AddNode {
                node,
                label: label.to_owned(),
                attrs: attrs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
            },
            MutationRef::RemoveNode { node } => Mutation::RemoveNode { node },
            MutationRef::AddEdge {
                edge,
                src,
                dst,
                label,
            } => Mutation::AddEdge {
                edge,
                src,
                dst,
                label: label.to_owned(),
            },
            MutationRef::RemoveEdge { edge } => Mutation::RemoveEdge { edge },
            MutationRef::SetNodeLabel { node, label } => Mutation::SetNodeLabel {
                node,
                label: label.to_owned(),
            },
            MutationRef::SetEdgeLabel { edge, label } => Mutation::SetEdgeLabel {
                edge,
                label: label.to_owned(),
            },
            MutationRef::SetAttr { node, key, value } => Mutation::SetAttr {
                node,
                key: key.to_owned(),
                value,
            },
            MutationRef::RemoveAttr { node, key } => Mutation::RemoveAttr {
                node,
                key: key.to_owned(),
            },
            MutationRef::MergeNodes {
                keep,
                merged,
                dedup_parallel,
            } => Mutation::MergeNodes {
                keep,
                merged,
                dedup_parallel,
            },
        }
    }

    /// Re-apply this mutation to `g` during recovery — the one apply
    /// routine. Values move into the graph.
    ///
    /// Graph-level failures and id divergence become errors (`seq` is
    /// interpolated into the message by the caller); they indicate a
    /// damaged log, never a normal condition — the live path validated
    /// every op before journaling it.
    pub fn apply(self, g: &mut Graph) -> Result<()> {
        let diverged = |detail: String| {
            Err(StoreError::ReplayDivergence { seq: 0, detail })
        };
        match self {
            MutationRef::AddNode { node, label, attrs } => {
                let l = g.label(label);
                let got = g.add_node(l);
                if got != node {
                    return diverged(format!("AddNode allocated {got}, journal says {node}"));
                }
                for (k, v) in attrs {
                    let kk = g.attr_key(k);
                    g.set_attr(got, kk, v)?;
                }
                Ok(())
            }
            MutationRef::RemoveNode { node } => {
                g.remove_node(node)?;
                Ok(())
            }
            MutationRef::AddEdge {
                edge,
                src,
                dst,
                label,
            } => {
                let l = g.label(label);
                let got = g.add_edge(src, dst, l)?;
                if got != edge {
                    return diverged(format!("AddEdge allocated {got}, journal says {edge}"));
                }
                Ok(())
            }
            MutationRef::RemoveEdge { edge } => {
                g.remove_edge(edge)?;
                Ok(())
            }
            MutationRef::SetNodeLabel { node, label } => {
                let l = g.label(label);
                g.set_node_label(node, l)?;
                Ok(())
            }
            MutationRef::SetEdgeLabel { edge, label } => {
                let l = g.label(label);
                g.set_edge_label(edge, l)?;
                Ok(())
            }
            MutationRef::SetAttr { node, key, value } => {
                let k = g.attr_key(key);
                g.set_attr(node, k, value)?;
                Ok(())
            }
            MutationRef::RemoveAttr { node, key } => {
                let k = g.attr_key(key);
                g.remove_attr(node, k)?;
                Ok(())
            }
            MutationRef::MergeNodes {
                keep,
                merged,
                dedup_parallel,
            } => {
                g.merge_nodes(keep, merged, dedup_parallel)?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Mutation> {
        vec![
            Mutation::AddNode {
                node: NodeId(3),
                label: "Person".into(),
                attrs: vec![
                    ("name".into(), Value::from("Ann Lee")),
                    ("age".into(), Value::Int(-7)),
                    ("score".into(), Value::Float(f64::NAN)),
                    ("ok".into(), Value::Bool(true)),
                ],
            },
            Mutation::RemoveNode { node: NodeId(0) },
            Mutation::AddEdge {
                edge: EdgeId(9),
                src: NodeId(1),
                dst: NodeId(2),
                label: "knows".into(),
            },
            Mutation::RemoveEdge { edge: EdgeId(4) },
            Mutation::SetNodeLabel {
                node: NodeId(5),
                label: "Robot".into(),
            },
            Mutation::SetEdgeLabel {
                edge: EdgeId(6),
                label: "hates".into(),
            },
            Mutation::SetAttr {
                node: NodeId(7),
                key: "bio".into(),
                value: Value::from("line1\nline2"),
            },
            Mutation::RemoveAttr {
                node: NodeId(8),
                key: "tmp".into(),
            },
            Mutation::MergeNodes {
                keep: NodeId(1),
                merged: NodeId(2),
                dedup_parallel: true,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for m in samples() {
            let mut w = ByteWriter::new();
            m.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = Mutation::decode(&mut r).unwrap();
            assert_eq!(back, m);
            assert_eq!(r.remaining(), 0, "no trailing bytes for {m:?}");
        }
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        for m in samples() {
            let mut w = ByteWriter::new();
            m.encode(&mut w);
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                let mut r = ByteReader::new(&bytes[..cut]);
                assert!(
                    Mutation::decode(&mut r).is_err(),
                    "{m:?} truncated at {cut} must fail to decode"
                );
            }
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut r = ByteReader::new(&[0xAB, 0, 0, 0, 0]);
        assert!(Mutation::decode(&mut r).is_err());
    }

    #[test]
    fn replay_verifies_allocated_ids() {
        let mut g = Graph::new();
        let m = Mutation::AddNode {
            node: NodeId(5), // wrong: a fresh graph allocates n0
            label: "P".into(),
            attrs: vec![],
        };
        let err = m.apply(&mut g).unwrap_err();
        assert!(matches!(err, StoreError::ReplayDivergence { .. }), "{err}");
    }

    #[test]
    fn applied_op_mapping_is_replayable() {
        // One op of every `AppliedOp` variant, each produced by
        // `apply_rule` on the graph the previous steps left. Each must
        // journal as exactly the bytes of the hand-written mutation, and
        // replaying the decoded records on a copy of the starting graph
        // must reproduce the live graph's slots.
        let mut g = Graph::new();
        let (a, b, c) = (g.add_node_named("A"), g.add_node_named("B"), g.add_node_named("C"));
        let k = g.attr_key("k");
        g.set_attr(a, k, Value::Int(1)).unwrap();
        g.set_attr(b, k, Value::Int(1)).unwrap();
        let ab = g.add_edge_named(a, b, "r").unwrap();
        let bc = g.add_edge_named(b, c, "t").unwrap();
        let mut replayed = Graph::restore_slots(&g.dump_slots()).unwrap();
        let z = NodeId(3);
        let s = |x: &str| x.to_owned();
        let steps = [
            (r#"match (x:A) repair insert node (z:Z {name: "n"})"#,
             Mutation::AddNode { node: z, label: s("Z"), attrs: vec![(s("name"), Value::from("n"))] }),
            ("match (x:A), (y:C) repair insert edge (x)-[s]->(y)",
             Mutation::AddEdge { edge: EdgeId(2), src: a, dst: c, label: s("s") }),
            ("match (x:A)-[r]->(y:B) repair relabel edge (x)-[r]->(y) to r2",
             Mutation::SetEdgeLabel { edge: ab, label: s("r2") }),
            ("match (x:A) repair set x.k = 2",
             Mutation::SetAttr { node: a, key: s("k"), value: Value::Int(2) }),
            ("match (x:B) repair unset x.k", Mutation::RemoveAttr { node: b, key: s("k") }),
            ("match (x:C) repair relabel node x to C2",
             Mutation::SetNodeLabel { node: c, label: s("C2") }),
            ("match (x:B)-[t]->(y:C2) repair delete edge (x)-[t]->(y)",
             Mutation::RemoveEdge { edge: bc }),
            ("match (x:Z) repair delete node x", Mutation::RemoveNode { node: z }),
            ("match (x:A), (y:B) repair merge y into x",
             Mutation::MergeNodes { keep: a, merged: b, dedup_parallel: true }),
        ];
        for (step, expected) in steps {
            let rule = &grepair_core::parse_rules(&format!("rule step {step}")).unwrap()[0];
            let m = grepair_match::Matcher::new(&g).find_all(&rule.pattern).remove(0);
            let costs = grepair_graph::EditCosts::default();
            let ops = grepair_core::apply_rule(&mut g, rule, &m, &costs).unwrap().ops;
            assert_eq!(ops.len(), 1, "{step}: {ops:?}");
            let (mut got, mut want) = (ByteWriter::new(), ByteWriter::new());
            encode_applied(&mut got, &ops[0]);
            expected.encode(&mut want);
            let bytes = got.into_bytes();
            assert_eq!(bytes, want.into_bytes(), "{:?} must journal as {expected:?}", ops[0]);
            let record = Mutation::decode(&mut ByteReader::new(&bytes)).unwrap();
            record.apply(&mut replayed).unwrap();
        }
        assert_eq!(replayed.dump_slots(), g.dump_slots());
    }
}
