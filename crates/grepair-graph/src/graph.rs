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
use crate::stats::{CardinalityStats, StatsMaintenance};
use crate::value::Value;

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

/// Mutable directed labelled property graph.
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
    /// Per label: number of live edges carrying it.
    edge_label_counts: Vec<u64>,
    /// Value index: (key, value) → nodes carrying exactly that attribute.
    /// Powers equi-join candidate retrieval in the matcher (redundancy
    /// rules like "same ssn ⇒ same person" would otherwise be O(|V|²)).
    attr_index: rustc_hash::FxHashMap<(AttrKeyId, Value), rustc_hash::FxHashSet<NodeId>>,
    n_nodes: usize,
    n_edges: usize,
    version: u64,
    /// Maintained-statistics mode ([`Graph::maintain_stats`]): a
    /// [`CardinalityStats`] kept exactly current by every mutator (plus
    /// its numeric-distribution support structure), so planners read
    /// fresh statistics without an `O(V + E)` recompute.
    stats: Option<Box<StatsMaintenance>>,
}

impl Graph {
    /// New empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- maintained statistics -------------------------------------------

    /// Switch incremental statistics maintenance on or off.
    ///
    /// Enabling computes one fresh [`CardinalityStats`] snapshot (a
    /// single `O(V + E)` pass) and from then on every mutation updates
    /// it in place — triple counts, label marginals, attribute buckets,
    /// range summaries and degree totals all move with the write, so
    /// [`Graph::maintained_stats`] is always exactly
    /// [`CardinalityStats::compute`] of the current graph at zero read
    /// cost. Disabling drops the snapshot.
    ///
    /// The sustained overhead is a handful of hash-map updates per
    /// mutation (bounded by the touched element's incident edges for
    /// relabels).
    pub fn maintain_stats(&mut self, on: bool) {
        self.stats = if on {
            Some(Box::new(StatsMaintenance::build(self)))
        } else {
            None
        };
    }

    /// The incrementally maintained statistics, when
    /// [`Graph::maintain_stats`] is on. Always stamped with the current
    /// [`Graph::version`].
    pub fn maintained_stats(&self) -> Option<&CardinalityStats> {
        self.stats.as_deref().map(|m| &m.stats)
    }

    /// Stamp the maintained snapshot with the just-bumped version; every
    /// mutator calls this after its delta updates.
    #[inline]
    fn sync_stats_version(&mut self) {
        let v = self.version;
        if let Some(m) = self.stats.as_deref_mut() {
            m.stats.version = v;
        }
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
        AttrKeyId(self.attr_keys.intern(name))
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
            self.edge_label_counts.resize(need, 0);
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
        let slot = NodeSlot {
            label,
            attrs,
            out: Vec::new(),
            inc: Vec::new(),
            label_pos: 0,
            alive: true,
        };
        let id = match self.free_nodes.pop() {
            Some(id) => {
                self.nodes[id.index()] = slot;
                id
            }
            None => {
                let id = NodeId::from_index(self.nodes.len());
                self.nodes.push(slot);
                id
            }
        };
        self.index_node(id, label);
        for i in 0..self.nodes[id.index()].attrs.len() {
            let (k, v) = self.nodes[id.index()].attrs[i].clone();
            self.index_attr(id, k, v);
        }
        self.n_nodes += 1;
        if let Some(m) = self.stats.as_deref_mut() {
            m.stats.node_delta(label, 1);
        }
        self.version += 1;
        self.sync_stats_version();
        id
    }

    fn index_attr(&mut self, id: NodeId, key: AttrKeyId, value: Value) {
        // Kind/number are extracted up front so the value can move into
        // the index key without a clone, maintained statistics or not.
        let kind = crate::stats::kind_index(&value);
        let num = value.as_number();
        let (new_bucket, inserted) = {
            let bucket = self.attr_index.entry((key, value)).or_default();
            let new_bucket = bucket.is_empty();
            (new_bucket, bucket.insert(id))
        };
        if inserted {
            if let Some(m) = self.stats.as_deref_mut() {
                m.attr_insert(key, kind, num, new_bucket);
            }
        }
    }

    fn unindex_attr(&mut self, id: NodeId, key: AttrKeyId, value: &Value) {
        // Temporary clone of the key tuple; buckets are removed when empty
        // so the index never accumulates tombstones.
        let Some(bucket) = self.attr_index.get_mut(&(key, value.clone())) else {
            return;
        };
        if !bucket.remove(&id) {
            return;
        }
        let emptied = bucket.is_empty();
        if emptied {
            self.attr_index.remove(&(key, value.clone()));
        }
        if let Some(s) = self.stats.as_deref_mut() {
            s.attr_remove(key, value, emptied);
        }
    }

    /// Live nodes whose attribute `key` equals `value` (unordered).
    pub fn nodes_with_attr(&self, key: AttrKeyId, value: &Value) -> Vec<NodeId> {
        self.attr_index
            .get(&(key, value.clone()))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Count of live nodes whose attribute `key` equals `value`.
    pub fn count_nodes_with_attr(&self, key: AttrKeyId, value: &Value) -> usize {
        self.attr_index
            .get(&(key, value.clone()))
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// Per-key summary of the attribute value index: `key → (distinct
    /// values, total entries)`. One pass over the index buckets —
    /// `O(distinct (key, value) pairs)`, not `O(|V|)` — this is the raw
    /// input behind [`crate::CardinalityStats`]'s equality-join
    /// selectivity (`entries / distinct ≈ expected bucket size`).
    pub fn attr_bucket_stats(&self) -> rustc_hash::FxHashMap<AttrKeyId, (u64, u64)> {
        let mut out: rustc_hash::FxHashMap<AttrKeyId, (u64, u64)> =
            rustc_hash::FxHashMap::default();
        for ((key, _), bucket) in &self.attr_index {
            let e = out.entry(*key).or_insert((0, 0));
            e.0 += 1;
            e.1 += bucket.len() as u64;
        }
        out
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
            self.unindex_attr(id, *k, v);
        }
        self.nodes[id.index()].alive = false;
        self.free_nodes.push(id);
        self.n_nodes -= 1;
        if let Some(m) = self.stats.as_deref_mut() {
            m.stats.node_delta(label, -1);
        }
        self.version += 1;
        self.sync_stats_version();
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
        // Maintained statistics: the node moves between label marginals,
        // and every incident edge's triple/degree attribution moves with
        // it. Old/new labels are substituted explicitly so self-loops
        // (both endpoints relabelled at once) stay exact. The snapshot
        // is taken out of `self` for the duration so the loop can read
        // slot state while mutating it.
        if let Some(mut m) = self.stats.take() {
            for e in self.incident_edges_sorted(id) {
                let es = &self.edges[e.index()];
                let sl_old = if es.src == id { old } else { self.nodes[es.src.index()].label };
                let dl_old = if es.dst == id { old } else { self.nodes[es.dst.index()].label };
                let sl_new = if es.src == id { label } else { sl_old };
                let dl_new = if es.dst == id { label } else { dl_old };
                m.stats.edge_delta(es.label, sl_old, dl_old, -1);
                m.stats.edge_delta(es.label, sl_new, dl_new, 1);
            }
            m.stats.node_relabel(old, label);
            self.stats = Some(m);
        }
        self.unindex_node(id, old);
        self.nodes[id.index()].label = label;
        self.index_node(id, label);
        self.version += 1;
        self.sync_stats_version();
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
        let src_label = self.nodes[src.index()].label;
        let dst_label = self.nodes[dst.index()].label;
        self.edge_label_counts[label.index()] += 1;
        self.n_edges += 1;
        if let Some(m) = self.stats.as_deref_mut() {
            m.stats.edge_delta(label, src_label, dst_label, 1);
        }
        self.version += 1;
        self.sync_stats_version();
        Ok(id)
    }

    /// Insert an edge using label names (interning them).
    pub fn add_edge_named(&mut self, src: NodeId, dst: NodeId, label: &str) -> Result<EdgeId> {
        let l = self.label(label);
        self.add_edge(src, dst, l)
    }

    /// Delete an edge.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<()> {
        let (src, dst, label) = {
            let e = self.live_edge(id)?;
            (e.src, e.dst, e.label)
        };
        let src_label = self.nodes[src.index()].label;
        let dst_label = self.nodes[dst.index()].label;
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
        self.edge_label_counts[label.index()] -= 1;
        self.n_edges -= 1;
        if let Some(m) = self.stats.as_deref_mut() {
            m.stats.edge_delta(label, src_label, dst_label, -1);
        }
        self.version += 1;
        self.sync_stats_version();
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
        let (src, dst, old) = {
            let e = self.live_edge(id)?;
            (e.src, e.dst, e.label)
        };
        if old == label {
            return Ok(old);
        }
        self.edges[id.index()].label = label;
        self.edge_label_counts[old.index()] -= 1;
        self.edge_label_counts[label.index()] += 1;
        if self.stats.is_some() {
            let sl = self.nodes[src.index()].label;
            let dl = self.nodes[dst.index()].label;
            let m = self.stats.as_deref_mut().expect("checked above");
            m.stats.edge_delta(old, sl, dl, -1);
            m.stats.edge_delta(label, sl, dl, 1);
        }
        self.version += 1;
        self.sync_stats_version();
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
        let old = match attrs.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => Some(std::mem::replace(&mut attrs[i].1, value.clone())),
            Err(i) => {
                attrs.insert(i, (key, value.clone()));
                None
            }
        };
        if let Some(old_v) = &old {
            self.unindex_attr(node, key, old_v);
        }
        self.index_attr(node, key, value);
        self.sync_stats_version();
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
                self.unindex_attr(node, key, &v);
                self.sync_stats_version();
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

    /// Count of live edges with `label`.
    pub fn count_edges_with_label(&self, label: LabelId) -> u64 {
        self.edge_label_counts
            .get(label.index())
            .copied()
            .unwrap_or(0)
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
    /// counts, edge label counts.
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
        let mut label_counts = vec![0u64; self.edge_label_counts.len()];
        for (i, e) in self.edges.iter().enumerate() {
            if !e.alive {
                continue;
            }
            n_edges += 1;
            let id = EdgeId::from_index(i);
            label_counts[e.label.index()] += 1;
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
        if label_counts != self.edge_label_counts {
            return Err("edge label counts stale".into());
        }
        // Attr index: every live (node, key, value) present; no extras.
        let mut attr_total = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            let id = NodeId::from_index(i);
            attr_total += n.attrs.len();
            for (k, v) in &n.attrs {
                let in_index = self
                    .attr_index
                    .get(&(*k, v.clone()))
                    .is_some_and(|b| b.contains(&id));
                if !in_index {
                    return Err(format!("{id}: attr {k:?} missing from value index"));
                }
            }
        }
        let index_total: usize = self.attr_index.values().map(|b| b.len()).sum();
        if index_total != attr_total {
            return Err(format!(
                "value index has {index_total} entries, graph has {attr_total} attrs"
            ));
        }
        // Maintained statistics must equal a fresh full recompute — the
        // differential oracle for the write-path deltas.
        if let Some(s) = self.maintained_stats() {
            let fresh = CardinalityStats::compute(self);
            if *s != fresh {
                return Err(format!(
                    "maintained statistics diverged from recompute:\n  maintained: {s:?}\n  computed:   {fresh:?}"
                ));
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

    /// Rebuild a graph from a [`SlotDump`], placing every element at its
    /// recorded slot and restoring the free lists verbatim, so subsequent
    /// mutations allocate exactly the ids the dumped graph would have.
    ///
    /// The dump is fully validated first (every slot accounted for exactly
    /// once, endpoints live, handles in range); inconsistencies yield
    /// [`GraphError::Parse`], never a panic — dumps arrive from disk.
    pub fn restore_slots(dump: &SlotDump) -> Result<Self> {
        let corrupt = |msg: String| GraphError::Parse(format!("slot dump: {msg}"));
        let n_slots = dump.node_slots as usize;
        let e_slots = dump.edge_slots as usize;
        if dump.doc.nodes.len() + dump.free_nodes.len() != n_slots {
            return Err(corrupt(format!(
                "{} live + {} free node slots != {n_slots} total",
                dump.doc.nodes.len(),
                dump.free_nodes.len()
            )));
        }
        if dump.doc.edges.len() != dump.edge_ids.len() {
            return Err(corrupt(format!(
                "{} edges but {} edge ids",
                dump.doc.edges.len(),
                dump.edge_ids.len()
            )));
        }
        if dump.doc.edges.len() + dump.free_edges.len() != e_slots {
            return Err(corrupt(format!(
                "{} live + {} free edge slots != {e_slots} total",
                dump.doc.edges.len(),
                dump.free_edges.len()
            )));
        }

        let mut g = Graph::new();
        // Dead placeholders; every slot is either resurrected below or
        // listed free. The placeholder label id is never read while dead.
        g.nodes = (0..n_slots)
            .map(|_| NodeSlot {
                label: LabelId(0),
                attrs: Vec::new(),
                out: Vec::new(),
                inc: Vec::new(),
                label_pos: 0,
                alive: false,
            })
            .collect();
        g.edges = (0..e_slots)
            .map(|_| EdgeSlot {
                src: NodeId(0),
                dst: NodeId(0),
                label: LabelId(0),
                alive: false,
            })
            .collect();

        for nd in &dump.doc.nodes {
            let i = nd.id as usize;
            if i >= n_slots {
                return Err(corrupt(format!("node handle {} out of range", nd.id)));
            }
            if g.nodes[i].alive {
                return Err(corrupt(format!("duplicate node handle {}", nd.id)));
            }
            let label = g.label(&nd.label);
            let mut attrs: Vec<(AttrKeyId, Value)> = nd
                .attrs
                .iter()
                .map(|(k, v)| (g.attr_key(k), v.clone()))
                .collect();
            attrs.sort_by_key(|(k, _)| *k);
            let id = NodeId(nd.id);
            for (k, v) in &attrs {
                g.index_attr(id, *k, v.clone());
            }
            g.nodes[i].label = label;
            g.nodes[i].attrs = attrs;
            g.nodes[i].alive = true;
            g.index_node(id, label);
            g.n_nodes += 1;
        }
        for &f in &dump.free_nodes {
            match g.nodes.get(f as usize) {
                None => return Err(corrupt(format!("free node {f} out of range"))),
                Some(slot) if slot.alive => {
                    return Err(corrupt(format!("free node {f} is live")))
                }
                Some(_) => g.free_nodes.push(NodeId(f)),
            }
        }
        // live + free == total and no double-live/double-free implies every
        // slot is accounted for exactly once — unless the free list itself
        // repeats an id, which the count check alone misses.
        let mut seen = vec![false; n_slots];
        for n in &g.free_nodes {
            if std::mem::replace(&mut seen[n.index()], true) {
                return Err(corrupt(format!("free node {n} listed twice")));
            }
        }

        for (ed, &eid) in dump.doc.edges.iter().zip(&dump.edge_ids) {
            let i = eid as usize;
            if i >= e_slots {
                return Err(corrupt(format!("edge id {eid} out of range")));
            }
            if g.edges[i].alive {
                return Err(corrupt(format!("duplicate edge id {eid}")));
            }
            let (src, dst) = (NodeId(ed.src), NodeId(ed.dst));
            if !g.contains_node(src) || !g.contains_node(dst) {
                return Err(corrupt(format!("edge {eid} endpoint not live")));
            }
            let label = g.label(&ed.label);
            g.edges[i] = EdgeSlot {
                src,
                dst,
                label,
                alive: true,
            };
            g.nodes[src.index()].out.push(EdgeId(eid));
            g.nodes[dst.index()].inc.push(EdgeId(eid));
            g.edge_label_counts[label.index()] += 1;
            g.n_edges += 1;
        }
        for &f in &dump.free_edges {
            match g.edges.get(f as usize) {
                None => return Err(corrupt(format!("free edge {f} out of range"))),
                Some(slot) if slot.alive => {
                    return Err(corrupt(format!("free edge {f} is live")))
                }
                Some(_) => g.free_edges.push(EdgeId(f)),
            }
        }
        let mut seen = vec![false; e_slots];
        for e in &g.free_edges {
            if std::mem::replace(&mut seen[e.index()], true) {
                return Err(corrupt(format!("free edge {e} listed twice")));
            }
        }

        g.version = dump.version;
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
        assert_eq!(g.count_edges_with_label(knows), 1);
        g.check_invariants().unwrap();

        g.remove_edge(e1).unwrap();
        assert!(!g.contains_edge(e1));
        assert!(g.contains_edge(e2));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.count_edges_with_label(knows), 0);
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
        assert_eq!(g.count_edges_with_label(knows), 0);
        assert_eq!(g.count_edges_with_label(hates), 1);
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
