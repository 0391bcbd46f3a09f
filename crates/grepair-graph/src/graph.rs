//! Mutable directed labelled property-graph storage.
//!
//! Design goals, in order:
//!
//! 1. **Stable ids under mutation** — repairs mutate the graph while
//!    violation queues still hold element ids; ids of live elements never
//!    move. Deleted slots are tombstoned and recycled by later insertions.
//! 2. **O(1)-amortized mutations** — every repair operation (the paper's
//!    seven) maps to a constant number of slot updates plus incident-edge
//!    work where unavoidable (node deletion, merge).
//! 3. **Index support for matching** — a per-label node index (swap-remove
//!    position-tracked, deterministic given the op history), maintained
//!    incrementally, is where the matcher takes its candidates.
//!
//! Adjacency is stored as per-node `Vec<EdgeId>` for both directions;
//! removal swap-removes using per-edge back-pointers would add 16 bytes per
//! edge, so instead removal does a linear scan of the endpoint adjacency —
//! O(deg), which profiling on the bench workloads shows is dwarfed by match
//! enumeration.

use crate::dump::SlotDump;
use crate::error::{GraphError, Result};
use crate::ids::{AttrKeyId, EdgeId, LabelId, NodeId};
use crate::interner::Interner;
use crate::io::{EdgeDoc, GraphDoc, NodeDoc};
use crate::value::Value;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::OnceLock;

/// Read-only view of an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRef {
    /// Source node.
    pub src: NodeId,
    /// Target node.
    pub dst: NodeId,
    /// Relation label.
    pub label: LabelId,
}

/// Outcome of a node merge, for delta tracking by callers.
#[derive(Clone, Debug, Default)]
pub struct MergeOutcome {
    /// Edges whose endpoint was redirected to the kept node.
    pub rewired: Vec<EdgeId>,
    /// Edges dropped because an identical parallel edge already existed.
    pub dropped: Vec<EdgeId>,
    /// Attribute keys copied from the merged node onto the kept node.
    pub copied_attrs: Vec<AttrKeyId>,
}

#[derive(Clone, Debug)]
struct NodeSlot {
    label: LabelId,
    /// Sorted by key id; graphs in this domain have few attrs per node, so
    /// a sorted vec beats a hash map on both memory and lookup.
    attrs: Vec<(AttrKeyId, Value)>,
    out: Vec<EdgeId>,
    inc: Vec<EdgeId>,
    /// Position of this node inside `label_index[label]`, for O(1) removal.
    label_pos: u32,
    alive: bool,
}

#[derive(Clone, Debug)]
struct EdgeSlot {
    src: NodeId,
    dst: NodeId,
    label: LabelId,
    alive: bool,
}

/// One attribute key's value index: value → live nodes carrying it.
/// Buckets are removed when they empty, so an index always equals a
/// fresh build from the nodes.
#[derive(Clone, Debug, Default, PartialEq)]
struct KeyIndex {
    buckets: FxHashMap<Value, FxHashSet<NodeId>>,
}

impl KeyIndex {
    fn insert(&mut self, id: NodeId, value: &Value) {
        match self.buckets.get_mut(value) {
            Some(bucket) => bucket.insert(id),
            None => self.buckets.entry(value.clone()).or_default().insert(id),
        };
    }

    fn remove(&mut self, id: NodeId, value: &Value) {
        let Some(bucket) = self.buckets.get_mut(value) else {
            return;
        };
        if bucket.remove(&id) && bucket.is_empty() {
            self.buckets.remove(value);
        }
    }
}

/// Record that node `id` gained `key = value` in the key's value index,
/// if it is built. A free function over the field so callers can pass a
/// value borrowed from a node slot.
fn index_attr(value_index: &mut [OnceLock<KeyIndex>], id: NodeId, key: AttrKeyId, value: &Value) {
    if let Some(ix) = value_index[key.index()].get_mut() {
        ix.insert(id, value);
    }
}

/// Record that node `id` lost `key = value` (see [`index_attr`]).
fn unindex_attr(value_index: &mut [OnceLock<KeyIndex>], id: NodeId, key: AttrKeyId, value: &Value) {
    if let Some(ix) = value_index[key.index()].get_mut() {
        ix.remove(id, value);
    }
}

/// Mutable directed labelled property graph.
///
/// `Send + Sync + Clone` (asserted at compile time below): lookups that
/// build a value index go through a `OnceLock`, so a `&Graph` can be
/// shared across threads.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: Vec<NodeSlot>,
    edges: Vec<EdgeSlot>,
    free_nodes: Vec<NodeId>,
    free_edges: Vec<EdgeId>,
    labels: Interner,
    attr_keys: Interner,
    /// Per label: live nodes carrying it. Swap-remove with back pointers.
    label_index: Vec<Vec<NodeId>>,
    /// Value index per attribute key, indexed by [`AttrKeyId`]: value →
    /// nodes carrying exactly that attribute. Powers equi-join candidate
    /// retrieval in the matcher (redundancy rules like "same ssn ⇒ same
    /// person" would otherwise be O(|V|²)). A key's index is built by
    /// the first lookup on that key and maintained by every write after
    /// it; writes to a key nobody has looked up touch no index.
    value_index: Vec<OnceLock<KeyIndex>>,
    n_nodes: usize,
    n_edges: usize,
    version: u64,
}

const _: () = {
    const fn send_sync_clone<T: Send + Sync + Clone>() {}
    send_sync_clone::<Graph>();
};

impl Graph {
    /// New empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- interners -------------------------------------------------------

    /// Intern a label name.
    pub fn label(&mut self, name: &str) -> LabelId {
        let id = LabelId(self.labels.intern(name));
        self.ensure_label_tables(id);
        id
    }

    /// Look up a label without interning.
    pub fn try_label(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name).map(LabelId)
    }

    /// Resolve a label id to its name.
    pub fn label_name(&self, id: LabelId) -> &str {
        self.labels.resolve(id.0)
    }

    /// Intern an attribute key.
    pub fn attr_key(&mut self, name: &str) -> AttrKeyId {
        let id = AttrKeyId(self.attr_keys.intern(name));
        if self.value_index.len() <= id.index() {
            self.value_index.resize_with(id.index() + 1, OnceLock::new);
        }
        id
    }

    /// Look up an attribute key without interning.
    pub fn try_attr_key(&self, name: &str) -> Option<AttrKeyId> {
        self.attr_keys.get(name).map(AttrKeyId)
    }

    /// Resolve an attribute key id to its name.
    pub fn attr_key_name(&self, id: AttrKeyId) -> &str {
        self.attr_keys.resolve(id.0)
    }

    /// The label interner (read access).
    pub fn labels(&self) -> &Interner {
        &self.labels
    }

    /// The attribute-key interner (read access).
    pub fn attr_keys(&self) -> &Interner {
        &self.attr_keys
    }

    fn ensure_label_tables(&mut self, id: LabelId) {
        let need = id.index() + 1;
        if self.label_index.len() < need {
            self.label_index.resize_with(need, Vec::new);
        }
    }

    // ---- structure: nodes ------------------------------------------------

    /// Insert a node with the given label and no attributes.
    pub fn add_node(&mut self, label: LabelId) -> NodeId {
        self.add_node_with_attrs(label, Vec::new())
    }

    /// Insert a node with the given label name (interning it).
    pub fn add_node_named(&mut self, label: &str) -> NodeId {
        let l = self.label(label);
        self.add_node(l)
    }

    /// Insert a node with attributes (any key order; sorted internally).
    ///
    /// A key given more than once keeps its **last** value, exactly as
    /// [`Graph::add_node`] followed by one [`Graph::set_attr`] per pair
    /// in order would — and as the durable store and its journal replay
    /// do.
    pub fn add_node_with_attrs(
        &mut self,
        label: LabelId,
        mut attrs: Vec<(AttrKeyId, Value)>,
    ) -> NodeId {
        self.ensure_label_tables(label);
        attrs.sort_by_key(|(k, _)| *k);
        if attrs.windows(2).any(|w| w[0].0 == w[1].0) {
            keep_last_of_each_key(&mut attrs);
        }
        let id = self
            .free_nodes
            .pop()
            .unwrap_or_else(|| NodeId::from_index(self.nodes.len()));
        for (k, v) in &attrs {
            index_attr(&mut self.value_index, id, *k, v);
        }
        let slot = NodeSlot {
            label,
            attrs,
            out: Vec::new(),
            inc: Vec::new(),
            label_pos: 0,
            alive: true,
        };
        match self.nodes.get_mut(id.index()) {
            Some(dead) => *dead = slot,
            None => self.nodes.push(slot),
        }
        self.index_node(id, label);
        self.n_nodes += 1;
        self.version += 1;
        id
    }

    /// `key`'s value index, built by this call if it is the first
    /// lookup on `key`: one pass over the live nodes. `None` for a key
    /// this graph never interned.
    fn key_index(&self, key: AttrKeyId) -> Option<&KeyIndex> {
        let cell = self.value_index.get(key.index())?;
        Some(cell.get_or_init(|| self.build_key_index(key)))
    }

    fn build_key_index(&self, key: AttrKeyId) -> KeyIndex {
        let mut ix = KeyIndex::default();
        for (i, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.alive) {
            if let Ok(pos) = n.attrs.binary_search_by_key(&key, |(k, _)| *k) {
                ix.insert(NodeId::from_index(i), &n.attrs[pos].1);
            }
        }
        ix
    }

    /// Live nodes whose attribute `key` equals `value` (unordered).
    pub fn nodes_with_attr(&self, key: AttrKeyId, value: &Value) -> Vec<NodeId> {
        self.key_index(key)
            .and_then(|ix| ix.buckets.get(value))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Count of live nodes whose attribute `key` equals `value`.
    pub fn count_nodes_with_attr(&self, key: AttrKeyId, value: &Value) -> usize {
        self.key_index(key)
            .and_then(|ix| ix.buckets.get(value))
            .map_or(0, |s| s.len())
    }

    fn index_node(&mut self, id: NodeId, label: LabelId) {
        let bucket = &mut self.label_index[label.index()];
        self.nodes[id.index()].label_pos = bucket.len() as u32;
        bucket.push(id);
    }

    fn unindex_node(&mut self, id: NodeId, label: LabelId) {
        let pos = self.nodes[id.index()].label_pos as usize;
        let bucket = &mut self.label_index[label.index()];
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.nodes[moved.index()].label_pos = pos as u32;
        }
    }

    /// Delete a node and all incident edges; returns the removed edge ids
    /// in ascending id order.
    ///
    /// Incident edges are removed in **sorted edge-id order**, not
    /// adjacency order: adjacency lists are reordered by swap-removes, so
    /// their order is history-dependent, while the freed-slot order must
    /// be a function of slot state alone for log replay over a restored
    /// snapshot ([`Graph::restore_slots`]) to reuse identical ids.
    pub fn remove_node(&mut self, id: NodeId) -> Result<Vec<EdgeId>> {
        if !self.contains_node(id) {
            return Err(GraphError::NodeNotFound(id));
        }
        let incident = self.incident_edges_sorted(id);
        let mut removed = Vec::with_capacity(incident.len());
        for e in incident {
            self.remove_edge(e)?;
            removed.push(e);
        }
        let label = self.nodes[id.index()].label;
        self.unindex_node(id, label);
        let attrs = std::mem::take(&mut self.nodes[id.index()].attrs);
        for (k, v) in &attrs {
            unindex_attr(&mut self.value_index, id, *k, v);
        }
        self.nodes[id.index()].alive = false;
        self.free_nodes.push(id);
        self.n_nodes -= 1;
        self.version += 1;
        Ok(removed)
    }

    /// Whether `id` refers to a live node.
    #[inline]
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.alive)
    }

    /// Label of a live node.
    pub fn node_label(&self, id: NodeId) -> Result<LabelId> {
        self.live_node(id).map(|n| n.label)
    }

    /// Replace a node's label; returns the previous label.
    pub fn set_node_label(&mut self, id: NodeId, label: LabelId) -> Result<LabelId> {
        self.ensure_label_tables(label);
        let old = self.node_label(id)?;
        if old == label {
            return Ok(old);
        }
        self.unindex_node(id, old);
        self.nodes[id.index()].label = label;
        self.index_node(id, label);
        self.version += 1;
        Ok(old)
    }

    /// Incident edge ids, ascending and deduplicated (self-loops once).
    fn incident_edges_sorted(&self, id: NodeId) -> Vec<EdgeId> {
        let mut incident: Vec<EdgeId> = self.nodes[id.index()]
            .out
            .iter()
            .chain(self.nodes[id.index()].inc.iter())
            .copied()
            .collect();
        incident.sort_unstable();
        incident.dedup();
        incident
    }

    #[inline]
    fn live_node(&self, id: NodeId) -> Result<&NodeSlot> {
        match self.nodes.get(id.index()) {
            Some(n) if n.alive => Ok(n),
            _ => Err(GraphError::NodeNotFound(id)),
        }
    }

    #[inline]
    fn live_edge(&self, id: EdgeId) -> Result<&EdgeSlot> {
        match self.edges.get(id.index()) {
            Some(e) if e.alive => Ok(e),
            _ => Err(GraphError::EdgeNotFound(id)),
        }
    }

    // ---- structure: edges ------------------------------------------------

    /// Insert a directed edge. Parallel edges are allowed.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: LabelId) -> Result<EdgeId> {
        self.ensure_label_tables(label);
        if !self.contains_node(src) {
            return Err(GraphError::NodeNotFound(src));
        }
        if !self.contains_node(dst) {
            return Err(GraphError::NodeNotFound(dst));
        }
        let slot = EdgeSlot {
            src,
            dst,
            label,
            alive: true,
        };
        let id = match self.free_edges.pop() {
            Some(id) => {
                self.edges[id.index()] = slot;
                id
            }
            None => {
                let id = EdgeId::from_index(self.edges.len());
                self.edges.push(slot);
                id
            }
        };
        self.nodes[src.index()].out.push(id);
        self.nodes[dst.index()].inc.push(id);
        self.n_edges += 1;
        self.version += 1;
        Ok(id)
    }

    /// Insert an edge using label names (interning them).
    pub fn add_edge_named(&mut self, src: NodeId, dst: NodeId, label: &str) -> Result<EdgeId> {
        let l = self.label(label);
        self.add_edge(src, dst, l)
    }

    /// Delete an edge.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<()> {
        let (src, dst) = {
            let e = self.live_edge(id)?;
            (e.src, e.dst)
        };
        let out = &mut self.nodes[src.index()].out;
        if let Some(pos) = out.iter().position(|&e| e == id) {
            out.swap_remove(pos);
        }
        let inc = &mut self.nodes[dst.index()].inc;
        if let Some(pos) = inc.iter().position(|&e| e == id) {
            inc.swap_remove(pos);
        }
        self.edges[id.index()].alive = false;
        self.free_edges.push(id);
        self.n_edges -= 1;
        self.version += 1;
        Ok(())
    }

    /// Whether `id` refers to a live edge.
    #[inline]
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).is_some_and(|e| e.alive)
    }

    /// Read-only view of a live edge.
    pub fn edge(&self, id: EdgeId) -> Result<EdgeRef> {
        self.live_edge(id).map(|e| EdgeRef {
            src: e.src,
            dst: e.dst,
            label: e.label,
        })
    }

    /// Replace an edge's label; returns the previous label.
    pub fn set_edge_label(&mut self, id: EdgeId, label: LabelId) -> Result<LabelId> {
        self.ensure_label_tables(label);
        let old = self.live_edge(id)?.label;
        if old == label {
            return Ok(old);
        }
        self.edges[id.index()].label = label;
        self.version += 1;
        Ok(old)
    }

    // ---- attributes --------------------------------------------------------

    /// Get an attribute value.
    pub fn attr(&self, node: NodeId, key: AttrKeyId) -> Option<&Value> {
        let n = self.live_node(node).ok()?;
        n.attrs
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &n.attrs[i].1)
    }

    /// All attributes of a node, sorted by key id.
    pub fn attrs(&self, node: NodeId) -> &[(AttrKeyId, Value)] {
        self.live_node(node).map(|n| n.attrs.as_slice()).unwrap_or(&[])
    }

    /// Set (insert or overwrite) an attribute; returns the previous value.
    pub fn set_attr(&mut self, node: NodeId, key: AttrKeyId, value: Value) -> Result<Option<Value>> {
        self.live_node(node)?;
        self.version += 1;
        let attrs = &mut self.nodes[node.index()].attrs;
        let (i, old) = match attrs.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => (i, Some(std::mem::replace(&mut attrs[i].1, value))),
            Err(i) => {
                attrs.insert(i, (key, value));
                (i, None)
            }
        };
        if let Some(old_v) = &old {
            unindex_attr(&mut self.value_index, node, key, old_v);
        }
        index_attr(&mut self.value_index, node, key, &attrs[i].1);
        Ok(old)
    }

    /// Remove an attribute; returns the removed value, if any.
    pub fn remove_attr(&mut self, node: NodeId, key: AttrKeyId) -> Result<Option<Value>> {
        self.live_node(node)?;
        let attrs = &mut self.nodes[node.index()].attrs;
        match attrs.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => {
                self.version += 1;
                let (_, v) = attrs.remove(i);
                unindex_attr(&mut self.value_index, node, key, &v);
                Ok(Some(v))
            }
            Err(_) => Ok(None),
        }
    }

    // ---- merge -------------------------------------------------------------

    /// Merge `merged` into `keep`: redirect all of `merged`'s edges to
    /// `keep`, copy attributes `keep` lacks, and delete `merged`.
    ///
    /// With `dedup_parallel`, redirected edges that would duplicate an
    /// existing `(src, dst, label)` triple at `keep` are dropped instead.
    /// Self-loops `merged → merged` become `keep → keep`.
    pub fn merge_nodes(
        &mut self,
        keep: NodeId,
        merged: NodeId,
        dedup_parallel: bool,
    ) -> Result<MergeOutcome> {
        if keep == merged {
            return Err(GraphError::SelfMerge(keep));
        }
        self.live_node(keep)?;
        self.live_node(merged)?;
        let mut outcome = MergeOutcome::default();

        // Sorted-id order for the same replay-determinism reason as
        // [`Graph::remove_node`]: rewired edges allocate fresh slots, so
        // the processing order must not depend on adjacency history.
        let incident = self.incident_edges_sorted(merged);
        for e in incident {
            let s = &self.edges[e.index()];
            let new_src = if s.src == merged { keep } else { s.src };
            let new_dst = if s.dst == merged { keep } else { s.dst };
            let label = s.label;
            let duplicate = dedup_parallel
                && (self.has_edge_labeled(new_src, new_dst, label)
                    // Edges between keep and merged collapse to keep-loops;
                    // treat those as duplicates of nothing unless dedup also
                    // finds an existing loop.
                    );
            self.remove_edge(e)?;
            if duplicate {
                outcome.dropped.push(e);
            } else {
                let ne = self.add_edge(new_src, new_dst, label)?;
                outcome.rewired.push(ne);
            }
        }

        let merged_attrs = self.nodes[merged.index()].attrs.clone();
        for (k, v) in merged_attrs {
            if self.attr(keep, k).is_none() {
                self.set_attr(keep, k, v)?;
                outcome.copied_attrs.push(k);
            }
        }
        self.remove_node(merged)?;
        Ok(outcome)
    }

    // ---- queries -----------------------------------------------------------

    /// Number of live nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of live edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.n_edges
    }

    /// Monotone version counter, bumped on every mutation.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Iterate live node ids in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Iterate live edge ids in id order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| EdgeId::from_index(i))
    }

    /// Outgoing edge ids of a node (unspecified order).
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.live_node(id)
            .map(|n| n.out.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Incoming edge ids of a node (unspecified order).
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.live_node(id)
            .map(|n| n.inc.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// All incident edges (out then in; self-loops appear twice).
    pub fn incident_edges(&self, id: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges(id).chain(self.in_edges(id))
    }

    /// Out-degree.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.live_node(id).map(|n| n.out.len()).unwrap_or(0)
    }

    /// In-degree.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.live_node(id).map(|n| n.inc.len()).unwrap_or(0)
    }

    /// Total degree (self-loops count twice).
    pub fn degree(&self, id: NodeId) -> usize {
        self.out_degree(id) + self.in_degree(id)
    }

    /// Live nodes carrying `label` (order deterministic per op history).
    pub fn nodes_with_label(&self, label: LabelId) -> &[NodeId] {
        self.label_index
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Count of live nodes with `label`.
    pub fn count_nodes_with_label(&self, label: LabelId) -> usize {
        self.nodes_with_label(label).len()
    }

    /// Whether some live edge `src --label--> dst` exists.
    ///
    /// Short-circuits on the first hit — unlike [`Graph::find_edge`],
    /// which must walk the full adjacency to find the minimal id.
    pub fn has_edge_labeled(&self, src: NodeId, dst: NodeId, label: LabelId) -> bool {
        let Ok(n) = self.live_node(src) else {
            return false;
        };
        n.out.iter().any(|&e| {
            let s = &self.edges[e.index()];
            s.dst == dst && s.label == label
        })
    }

    /// Minimal live edge id `src --label--> dst`, if any.
    ///
    /// Among parallel duplicates the *lowest* edge id wins, independent of
    /// adjacency-list order — the matcher's witness convention.
    pub fn find_edge(&self, src: NodeId, dst: NodeId, label: LabelId) -> Option<EdgeId> {
        let n = self.live_node(src).ok()?;
        n.out
            .iter()
            .copied()
            .filter(|&e| {
                let s = &self.edges[e.index()];
                s.dst == dst && s.label == label
            })
            .min()
    }

    /// Minimal live edge id `src --*--> dst` over any label, if any. Same
    /// min-id convention as [`Graph::find_edge`].
    pub fn find_edge_any(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.edges_between(src, dst).min()
    }

    /// All live edges `src --*--> dst`.
    pub fn edges_between(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges(src)
            .filter(move |&e| self.edges[e.index()].dst == dst)
    }

    /// Check internal invariants; used by tests and `debug_assert!` hooks.
    ///
    /// Verifies: adjacency symmetry, index membership/positions, live
    /// counts, every built value index.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut n_alive = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            n_alive += 1;
            let id = NodeId::from_index(i);
            for &e in &n.out {
                let s = self
                    .edges
                    .get(e.index())
                    .ok_or_else(|| format!("{id}: dangling out edge {e}"))?;
                if !s.alive {
                    return Err(format!("{id}: dead out edge {e}"));
                }
                if s.src != id {
                    return Err(format!("{id}: out edge {e} has src {}", s.src));
                }
            }
            for &e in &n.inc {
                let s = self
                    .edges
                    .get(e.index())
                    .ok_or_else(|| format!("{id}: dangling in edge {e}"))?;
                if !s.alive {
                    return Err(format!("{id}: dead in edge {e}"));
                }
                if s.dst != id {
                    return Err(format!("{id}: in edge {e} has dst {}", s.dst));
                }
            }
            let bucket = &self.label_index[n.label.index()];
            if bucket.get(n.label_pos as usize) != Some(&id) {
                return Err(format!("{id}: label index position stale"));
            }
            if !n.attrs.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("{id}: attrs not strictly sorted"));
            }
        }
        if n_alive != self.n_nodes {
            return Err(format!(
                "node count mismatch: counted {n_alive}, stored {}",
                self.n_nodes
            ));
        }
        let mut n_edges = 0usize;
        for (i, e) in self.edges.iter().enumerate() {
            if !e.alive {
                continue;
            }
            n_edges += 1;
            let id = EdgeId::from_index(i);
            let src = &self.nodes[e.src.index()];
            let dst = &self.nodes[e.dst.index()];
            if !src.alive || !dst.alive {
                return Err(format!("{id}: endpoint dead"));
            }
            if !src.out.contains(&id) {
                return Err(format!("{id}: missing from src adjacency"));
            }
            if !dst.inc.contains(&id) {
                return Err(format!("{id}: missing from dst adjacency"));
            }
        }
        if n_edges != self.n_edges {
            return Err(format!(
                "edge count mismatch: counted {n_edges}, stored {}",
                self.n_edges
            ));
        }
        // Every built value index equals a fresh build from the nodes.
        for (k, cell) in self.value_index.iter().enumerate() {
            let Some(ix) = cell.get() else {
                continue;
            };
            let key = AttrKeyId::from_index(k);
            if *ix != self.build_key_index(key) {
                return Err(format!("value index of {key:?} diverged from a scan"));
            }
        }
        Ok(())
    }

    // ---- exact slot dumps (durable snapshots) ------------------------------

    /// Exact slot-level image of this graph — see [`SlotDump`].
    pub fn dump_slots(&self) -> SlotDump {
        let mut doc = GraphDoc::default();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            doc.nodes.push(NodeDoc {
                id: i as u32,
                label: self.labels.resolve(n.label.0).to_owned(),
                attrs: n
                    .attrs
                    .iter()
                    .map(|(k, v)| (self.attr_keys.resolve(k.0).to_owned(), v.clone()))
                    .collect(),
            });
        }
        let mut edge_ids = Vec::with_capacity(self.n_edges);
        for (i, e) in self.edges.iter().enumerate() {
            if !e.alive {
                continue;
            }
            edge_ids.push(i as u32);
            doc.edges.push(EdgeDoc {
                src: e.src.0,
                dst: e.dst.0,
                label: self.labels.resolve(e.label.0).to_owned(),
            });
        }
        SlotDump {
            doc,
            edge_ids,
            free_nodes: self.free_nodes.iter().map(|n| n.0).collect(),
            free_edges: self.free_edges.iter().map(|e| e.0).collect(),
            node_slots: self.nodes.len() as u32,
            edge_slots: self.edges.len() as u32,
            version: self.version,
        }
    }

    /// Total node slots, live and tombstoned.
    pub fn node_slots(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Total edge slots, live and tombstoned.
    pub fn edge_slots(&self) -> u32 {
        self.edges.len() as u32
    }

    /// The node free list, in stack order: the last entry is the slot
    /// the next node insertion reuses.
    pub fn free_node_slots(&self) -> &[NodeId] {
        &self.free_nodes
    }

    /// The edge free list, in stack order (see
    /// [`Graph::free_node_slots`]).
    pub fn free_edge_slots(&self) -> &[EdgeId] {
        &self.free_edges
    }

    /// Rebuild a graph from a [`SlotDump`], placing every element at its
    /// recorded slot and restoring the free lists verbatim, so subsequent
    /// mutations allocate exactly the ids the dumped graph would have.
    ///
    /// A thin feed of the dump into a [`SlotLoader`], which validates
    /// every slot; inconsistencies yield [`GraphError::Parse`], never a
    /// panic.
    pub fn restore_slots(dump: &SlotDump) -> Result<Self> {
        let corrupt = |msg: String| GraphError::Parse(format!("slot image: {msg}"));
        // Checked before the loader allocates its placeholders, so the
        // slot counts a dump claims are bounded by what it holds.
        if dump.doc.nodes.len() + dump.free_nodes.len() != dump.node_slots as usize
            || dump.doc.edges.len() + dump.free_edges.len() != dump.edge_slots as usize
        {
            return Err(corrupt(format!(
                "{} + {} node and {} + {} edge entries for {} and {} slots",
                dump.doc.nodes.len(),
                dump.free_nodes.len(),
                dump.doc.edges.len(),
                dump.free_edges.len(),
                dump.node_slots,
                dump.edge_slots
            )));
        }
        if dump.doc.edges.len() != dump.edge_ids.len() {
            return Err(corrupt(format!(
                "{} edges but {} edge ids",
                dump.doc.edges.len(),
                dump.edge_ids.len()
            )));
        }
        let mut loader = SlotLoader::new(dump.node_slots, dump.edge_slots);
        for nd in &dump.doc.nodes {
            let attrs = nd.attrs.iter().map(|(k, v)| (k.as_str(), v.clone()));
            loader.node(nd.id, &nd.label, attrs)?;
        }
        for (ed, &eid) in dump.doc.edges.iter().zip(&dump.edge_ids) {
            loader.edge(eid, ed.src, ed.dst, &ed.label)?;
        }
        loader.finish(
            dump.free_nodes.iter().map(|&f| NodeId(f)).collect(),
            dump.free_edges.iter().map(|&f| EdgeId(f)).collect(),
            dump.version,
        )
    }
}

/// Builds a [`Graph`] slot by slot from an exact slot image: the one
/// validating path behind [`Graph::restore_slots`] and the durable
/// store's snapshot decoder, which feeds it straight from the file.
///
/// Place every live node with [`SlotLoader::node`] before the edges
/// that reference it ([`SlotLoader::edge`]), then hand the free lists
/// to [`SlotLoader::finish`]. Each call validates what it places (ids
/// in range, no slot placed twice, edge endpoints live) and `finish`
/// checks that every slot is live or free exactly once, so a
/// subsequent mutation allocates exactly the ids the imaged graph
/// would have. Inconsistencies yield [`GraphError::Parse`], never a
/// panic: slot images arrive from disk.
///
/// Labels and keys are interned in the order they are fed.
#[derive(Debug)]
pub struct SlotLoader {
    g: Graph,
}

impl SlotLoader {
    /// A loader for `node_slots` node and `edge_slots` edge slots, all
    /// tombstoned until placed. This allocates one placeholder per slot:
    /// bound the counts by the size of their source before calling it.
    pub fn new(node_slots: u32, edge_slots: u32) -> Self {
        let mut g = Graph::new();
        // The placeholder label id is never read while a slot is dead.
        g.nodes = (0..node_slots)
            .map(|_| NodeSlot {
                label: LabelId(0),
                attrs: Vec::new(),
                out: Vec::new(),
                inc: Vec::new(),
                label_pos: 0,
                alive: false,
            })
            .collect();
        g.edges = (0..edge_slots)
            .map(|_| EdgeSlot {
                src: NodeId(0),
                dst: NodeId(0),
                label: LabelId(0),
                alive: false,
            })
            .collect();
        Self { g }
    }

    fn corrupt(msg: String) -> GraphError {
        GraphError::Parse(format!("slot image: {msg}"))
    }

    /// Place live node `id` with its label and attributes (any key
    /// order; a repeated key keeps its last value).
    pub fn node<'s>(
        &mut self,
        id: u32,
        label: &str,
        attrs: impl IntoIterator<Item = (&'s str, Value)>,
    ) -> Result<()> {
        let g = &mut self.g;
        let i = id as usize;
        match g.nodes.get(i) {
            None => return Err(Self::corrupt(format!("node handle {id} out of range"))),
            Some(slot) if slot.alive => {
                return Err(Self::corrupt(format!("duplicate node handle {id}")))
            }
            Some(_) => {}
        }
        let label = g.label(label);
        let mut attrs: Vec<(AttrKeyId, Value)> =
            attrs.into_iter().map(|(k, v)| (g.attr_key(k), v)).collect();
        attrs.sort_by_key(|(k, _)| *k);
        if attrs.windows(2).any(|w| w[0].0 == w[1].0) {
            keep_last_of_each_key(&mut attrs);
        }
        // A fresh graph has no value index built, so the attributes
        // need no indexing here.
        let slot = &mut g.nodes[i];
        slot.label = label;
        slot.attrs = attrs;
        slot.alive = true;
        g.index_node(NodeId(id), label);
        g.n_nodes += 1;
        Ok(())
    }

    /// Place live edge `id` from `src` to `dst`; both must be placed
    /// live nodes.
    pub fn edge(&mut self, id: u32, src: u32, dst: u32, label: &str) -> Result<()> {
        let g = &mut self.g;
        let i = id as usize;
        match g.edges.get(i) {
            None => return Err(Self::corrupt(format!("edge id {id} out of range"))),
            Some(slot) if slot.alive => {
                return Err(Self::corrupt(format!("duplicate edge id {id}")))
            }
            Some(_) => {}
        }
        let (src, dst) = (NodeId(src), NodeId(dst));
        if !g.contains_node(src) || !g.contains_node(dst) {
            return Err(Self::corrupt(format!("edge {id} endpoint not live")));
        }
        let label = g.label(label);
        g.edges[i] = EdgeSlot {
            src,
            dst,
            label,
            alive: true,
        };
        g.nodes[src.index()].out.push(EdgeId(id));
        g.nodes[dst.index()].inc.push(EdgeId(id));
        g.n_edges += 1;
        Ok(())
    }

    /// Install the free lists (verbatim stack order) and the mutation
    /// version counter, and check that every slot is accounted for
    /// exactly once.
    pub fn finish(
        self,
        free_nodes: Vec<NodeId>,
        free_edges: Vec<EdgeId>,
        version: u64,
    ) -> Result<Graph> {
        let mut g = self.g;
        let corrupt = Self::corrupt;
        if g.n_nodes + free_nodes.len() != g.nodes.len() {
            return Err(corrupt(format!(
                "{} live + {} free node slots != {} total",
                g.n_nodes,
                free_nodes.len(),
                g.nodes.len()
            )));
        }
        if g.n_edges + free_edges.len() != g.edges.len() {
            return Err(corrupt(format!(
                "{} live + {} free edge slots != {} total",
                g.n_edges,
                free_edges.len(),
                g.edges.len()
            )));
        }
        // live + free == total and no double-live/double-free implies
        // every slot is accounted for exactly once — unless a free list
        // repeats an id, which the count check alone misses.
        let mut seen = vec![false; g.nodes.len()];
        for &f in &free_nodes {
            match g.nodes.get(f.index()) {
                None => return Err(corrupt(format!("free node {f} out of range"))),
                Some(slot) if slot.alive => return Err(corrupt(format!("free node {f} is live"))),
                Some(_) if std::mem::replace(&mut seen[f.index()], true) => {
                    return Err(corrupt(format!("free node {f} listed twice")))
                }
                Some(_) => {}
            }
        }
        let mut seen = vec![false; g.edges.len()];
        for &f in &free_edges {
            match g.edges.get(f.index()) {
                None => return Err(corrupt(format!("free edge {f} out of range"))),
                Some(slot) if slot.alive => return Err(corrupt(format!("free edge {f} is live"))),
                Some(_) if std::mem::replace(&mut seen[f.index()], true) => {
                    return Err(corrupt(format!("free edge {f} listed twice")))
                }
                Some(_) => {}
            }
        }
        g.free_nodes = free_nodes;
        g.free_edges = free_edges;
        g.version = version;
        debug_assert!(g.check_invariants().is_ok());
        Ok(g)
    }
}

/// Drop all but the last value of each key from key-sorted `attrs`. The
/// sort was stable, so equal keys are still in argument order; moving
/// each later duplicate into the slot `dedup_by` keeps makes it
/// last-wins. Out of line: duplicate keys are rare.
#[cold]
fn keep_last_of_each_key(attrs: &mut Vec<(AttrKeyId, Value)>) {
    attrs.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let person = g.label("Person");
        let city = g.label("City");
        let a = g.add_node(person);
        let b = g.add_node(person);
        let c = g.add_node(city);
        (g, a, b, c)
    }

    #[test]
    fn add_and_query_nodes() {
        let (g, a, b, c) = small();
        assert_eq!(g.num_nodes(), 3);
        assert!(g.contains_node(a));
        let person = g.try_label("Person").unwrap();
        assert_eq!(g.node_label(a).unwrap(), person);
        assert_eq!(g.nodes_with_label(person), &[a, b]);
        let city = g.try_label("City").unwrap();
        assert_eq!(g.nodes_with_label(city), &[c]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn repeated_attr_key_keeps_the_last_value() {
        let mut g = Graph::new();
        let p = g.label("P");
        let (k, j) = (g.attr_key("k"), g.attr_key("j"));
        let attrs = vec![
            (k, Value::Int(1)),
            (j, Value::from("x")),
            (k, Value::Int(2)),
            (k, Value::Int(3)),
        ];
        let built = g.add_node_with_attrs(p, attrs.clone());
        assert_eq!(g.attr(built, k), Some(&Value::Int(3)));
        assert_eq!(g.attr(built, j), Some(&Value::from("x")));
        // Same result as one `set_attr` per pair, in order.
        let stepwise = g.add_node(p);
        for (key, v) in attrs {
            g.set_attr(stepwise, key, v).unwrap();
        }
        assert_eq!(g.attrs(built), g.attrs(stepwise));
        assert_eq!(g.nodes_with_attr(k, &Value::Int(3)).len(), 2);
        assert!(g.nodes_with_attr(k, &Value::Int(1)).is_empty());
        g.check_invariants().unwrap();
    }

    fn edges_labeled(g: &Graph, label: LabelId) -> usize {
        g.edges().filter(|&e| g.edge(e).unwrap().label == label).count()
    }

    #[test]
    fn add_and_remove_edges() {
        let (mut g, a, b, c) = small();
        let knows = g.label("knows");
        let lives = g.label("livesIn");
        let e1 = g.add_edge(a, b, knows).unwrap();
        let e2 = g.add_edge(a, c, lives).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge_labeled(a, b, knows));
        assert!(!g.has_edge_labeled(b, a, knows));
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(c), 1);
        assert_eq!(edges_labeled(&g, knows), 1);
        g.check_invariants().unwrap();

        g.remove_edge(e1).unwrap();
        assert!(!g.contains_edge(e1));
        assert!(g.contains_edge(e2));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(edges_labeled(&g, knows), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, a, b, c) = small();
        let knows = g.label("knows");
        g.add_edge(a, b, knows).unwrap();
        g.add_edge(b, c, knows).unwrap();
        g.add_edge(c, a, knows).unwrap();
        let removed = g.remove_node(a).unwrap();
        assert_eq!(removed.len(), 2);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert!(!g.contains_node(a));
        g.check_invariants().unwrap();
    }

    #[test]
    fn self_loop_removed_once() {
        let (mut g, a, _, _) = small();
        let knows = g.label("knows");
        g.add_edge(a, a, knows).unwrap();
        assert_eq!(g.degree(a), 2);
        let removed = g.remove_node(a).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(g.num_edges(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn slot_reuse_after_delete() {
        let (mut g, a, _, _) = small();
        g.remove_node(a).unwrap();
        let person = g.try_label("Person").unwrap();
        let d = g.add_node(person);
        assert_eq!(d, a, "freed slot should be reused");
        assert!(g.contains_node(d));
        g.check_invariants().unwrap();
    }

    #[test]
    fn relabel_node_updates_index_and_sigs() {
        let (mut g, a, b, _) = small();
        let knows = g.label("knows");
        g.add_edge(a, b, knows).unwrap();
        let robot = g.label("Robot");
        let person = g.try_label("Person").unwrap();
        let old = g.set_node_label(b, robot).unwrap();
        assert_eq!(old, person);
        assert_eq!(g.nodes_with_label(robot), &[b]);
        assert!(!g.nodes_with_label(person).contains(&b));
        g.check_invariants().unwrap();
    }

    #[test]
    fn relabel_edge_updates_counts_and_sigs() {
        let (mut g, a, b, _) = small();
        let knows = g.label("knows");
        let hates = g.label("hates");
        let e = g.add_edge(a, b, knows).unwrap();
        g.set_edge_label(e, hates).unwrap();
        assert_eq!(edges_labeled(&g, knows), 0);
        assert_eq!(edges_labeled(&g, hates), 1);
        assert!(g.has_edge_labeled(a, b, hates));
        g.check_invariants().unwrap();
    }

    #[test]
    fn attrs_sorted_and_overwritable() {
        let (mut g, a, _, _) = small();
        let name = g.attr_key("name");
        let age = g.attr_key("age");
        assert_eq!(g.set_attr(a, age, Value::Int(30)).unwrap(), None);
        assert_eq!(g.set_attr(a, name, Value::from("Ann")).unwrap(), None);
        assert_eq!(
            g.set_attr(a, age, Value::Int(31)).unwrap(),
            Some(Value::Int(30))
        );
        assert_eq!(g.attr(a, age), Some(&Value::Int(31)));
        assert_eq!(g.attrs(a).len(), 2);
        assert_eq!(g.remove_attr(a, name).unwrap(), Some(Value::from("Ann")));
        assert_eq!(g.remove_attr(a, name).unwrap(), None);
        g.check_invariants().unwrap();
    }

    #[test]
    fn attr_on_dead_node_errors() {
        let (mut g, a, _, _) = small();
        let k = g.attr_key("x");
        g.remove_node(a).unwrap();
        assert!(g.set_attr(a, k, Value::Int(1)).is_err());
        assert_eq!(g.attr(a, k), None);
    }

    #[test]
    fn merge_rewires_edges_and_copies_attrs() {
        let mut g = Graph::new();
        let person = g.label("Person");
        let city = g.label("City");
        let lives = g.label("livesIn");
        let keep = g.add_node(person);
        let dup = g.add_node(person);
        let c1 = g.add_node(city);
        let c2 = g.add_node(city);
        g.add_edge(keep, c1, lives).unwrap();
        g.add_edge(dup, c2, lives).unwrap();
        let name = g.attr_key("name");
        let email = g.attr_key("email");
        g.set_attr(keep, name, Value::from("Ann")).unwrap();
        g.set_attr(dup, name, Value::from("Anne")).unwrap();
        g.set_attr(dup, email, Value::from("a@x.com")).unwrap();

        let out = g.merge_nodes(keep, dup, true).unwrap();
        assert!(!g.contains_node(dup));
        assert_eq!(g.num_nodes(), 3);
        assert!(g.has_edge_labeled(keep, c2, lives));
        // keep's own name wins; email copied.
        assert_eq!(g.attr(keep, name), Some(&Value::from("Ann")));
        assert_eq!(g.attr(keep, email), Some(&Value::from("a@x.com")));
        assert_eq!(out.rewired.len(), 1);
        assert_eq!(out.copied_attrs, vec![email]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn merge_dedups_parallel_edges() {
        let mut g = Graph::new();
        let person = g.label("Person");
        let city = g.label("City");
        let lives = g.label("livesIn");
        let keep = g.add_node(person);
        let dup = g.add_node(person);
        let c = g.add_node(city);
        g.add_edge(keep, c, lives).unwrap();
        g.add_edge(dup, c, lives).unwrap();
        let out = g.merge_nodes(keep, dup, true).unwrap();
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(g.edges_between(keep, c).count(), 1);
        g.check_invariants().unwrap();

        // Without dedup, parallel edges survive.
        let dup2 = g.add_node(person);
        g.add_edge(dup2, c, lives).unwrap();
        let out2 = g.merge_nodes(keep, dup2, false).unwrap();
        assert_eq!(out2.rewired.len(), 1);
        assert_eq!(g.edges_between(keep, c).count(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn merge_collapses_inter_edges_to_loops() {
        let mut g = Graph::new();
        let p = g.label("P");
        let r = g.label("r");
        let keep = g.add_node(p);
        let dup = g.add_node(p);
        g.add_edge(keep, dup, r).unwrap();
        g.merge_nodes(keep, dup, false).unwrap();
        assert!(g.has_edge_labeled(keep, keep, r));
        g.check_invariants().unwrap();
    }

    #[test]
    fn merge_self_is_error() {
        let (mut g, a, _, _) = small();
        assert_eq!(
            g.merge_nodes(a, a, true).unwrap_err(),
            GraphError::SelfMerge(a)
        );
    }

    #[test]
    fn version_bumps_on_mutation() {
        let (mut g, a, b, _) = small();
        let v0 = g.version();
        let knows = g.label("knows");
        g.add_edge(a, b, knows).unwrap();
        assert!(g.version() > v0);
    }

    #[test]
    fn attr_value_index_tracks_mutations() {
        let (mut g, a, b, _) = small();
        let ssn = g.attr_key("ssn");
        g.set_attr(a, ssn, Value::Int(7)).unwrap();
        g.set_attr(b, ssn, Value::Int(7)).unwrap();
        let mut hits = g.nodes_with_attr(ssn, &Value::Int(7));
        hits.sort_unstable();
        assert_eq!(hits, vec![a, b]);
        assert_eq!(g.count_nodes_with_attr(ssn, &Value::Int(7)), 2);

        // Overwrite moves the node between buckets.
        g.set_attr(b, ssn, Value::Int(8)).unwrap();
        assert_eq!(g.nodes_with_attr(ssn, &Value::Int(7)), vec![a]);
        assert_eq!(g.nodes_with_attr(ssn, &Value::Int(8)), vec![b]);

        // Removal and node deletion clean up.
        g.remove_attr(b, ssn).unwrap();
        assert!(g.nodes_with_attr(ssn, &Value::Int(8)).is_empty());
        g.remove_node(a).unwrap();
        assert!(g.nodes_with_attr(ssn, &Value::Int(7)).is_empty());
        g.check_invariants().unwrap();
    }

    #[test]
    fn value_index_is_built_per_key_on_first_lookup() {
        let (mut g, a, b, _) = small();
        let (ssn, name) = (g.attr_key("ssn"), g.attr_key("name"));
        let built = |g: &Graph| -> Vec<bool> {
            g.value_index.iter().map(|ix| ix.get().is_some()).collect()
        };
        g.set_attr(a, ssn, Value::Int(7)).unwrap();
        g.set_attr(b, name, Value::from("Bo")).unwrap();
        assert_eq!(built(&g), [false, false], "writes build nothing");
        assert_eq!(g.count_nodes_with_attr(ssn, &Value::Int(7)), 1);
        assert_eq!(built(&g), [true, false], "one lookup builds its key only");
        // From now on writes to `ssn` maintain its index; `name` stays
        // unbuilt.
        g.set_attr(b, ssn, Value::Int(7)).unwrap();
        g.set_attr(a, name, Value::from("Al")).unwrap();
        assert_eq!(built(&g), [true, false]);
        assert_eq!(g.count_nodes_with_attr(ssn, &Value::Int(7)), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn attr_index_survives_merge() {
        let (mut g, a, b, _) = small();
        let k = g.attr_key("email");
        g.set_attr(b, k, Value::from("x@y.z")).unwrap();
        g.merge_nodes(a, b, true).unwrap();
        assert_eq!(g.nodes_with_attr(k, &Value::from("x@y.z")), vec![a]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn find_edge_and_edges_between() {
        let (mut g, a, b, _) = small();
        let knows = g.label("knows");
        let likes = g.label("likes");
        let e1 = g.add_edge(a, b, knows).unwrap();
        let e2 = g.add_edge(a, b, likes).unwrap();
        assert_eq!(g.find_edge(a, b, knows), Some(e1));
        assert_eq!(g.find_edge(a, b, likes), Some(e2));
        assert_eq!(g.find_edge(b, a, knows), None);
        let between: Vec<_> = g.edges_between(a, b).collect();
        assert_eq!(between.len(), 2);
    }
}
