//! Summary statistics over a graph, used for the T1 dataset table, for
//! selectivity sanity checks in the experiment harness, and — via
//! [`CardinalityStats`] — for the matcher's cost-based join planner.

use crate::graph::Graph;
use crate::ids::{AttrKeyId, Direction, LabelId};
use crate::value::Value;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics of a graph.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct GraphStats {
    /// Live node count.
    pub nodes: usize,
    /// Live edge count.
    pub edges: usize,
    /// Distinct node labels in use.
    pub node_labels: usize,
    /// Distinct edge labels in use.
    pub edge_labels: usize,
    /// Mean total degree.
    pub avg_degree: f64,
    /// Maximum total degree.
    pub max_degree: usize,
    /// Degree histogram with power-of-two buckets: `hist[i]` counts nodes
    /// with degree in `[2^i, 2^(i+1))`; `hist[0]` covers degrees 0 and 1.
    pub degree_hist: Vec<usize>,
}

impl GraphStats {
    /// Compute statistics in one pass.
    pub fn compute(g: &Graph) -> Self {
        let mut node_labels = rustc_hash::FxHashSet::default();
        let mut edge_labels = rustc_hash::FxHashSet::default();
        let mut max_degree = 0usize;
        let mut total_degree = 0usize;
        let mut degree_hist: Vec<usize> = Vec::new();
        for n in g.nodes() {
            node_labels.insert(g.node_label(n).unwrap());
            let d = g.degree(n);
            total_degree += d;
            max_degree = max_degree.max(d);
            let bucket = if d <= 1 {
                0
            } else {
                (usize::BITS - d.leading_zeros()) as usize - 1
            };
            if degree_hist.len() <= bucket {
                degree_hist.resize(bucket + 1, 0);
            }
            degree_hist[bucket] += 1;
        }
        for e in g.edges() {
            edge_labels.insert(g.edge(e).unwrap().label);
        }
        let nodes = g.num_nodes();
        GraphStats {
            nodes,
            edges: g.num_edges(),
            node_labels: node_labels.len(),
            edge_labels: edge_labels.len(),
            avg_degree: if nodes == 0 {
                0.0
            } else {
                total_degree as f64 / nodes as f64
            },
            max_degree,
            degree_hist,
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|V|={} |E|={} node-labels={} edge-labels={} avg-deg={:.2} max-deg={}",
            self.nodes, self.edges, self.node_labels, self.edge_labels, self.avg_degree, self.max_degree
        )
    }
}

/// Order-preserving `u64` encoding of an `f64` (IEEE-754 total order):
/// flip the sign bit for non-negatives, all bits for negatives. Strictly
/// monotone, so a `BTreeMap` keyed on it iterates numeric values in
/// ascending order, and exactly invertible via [`num_order_decode`].
#[inline]
fn num_order_encode(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

#[inline]
fn num_order_decode(e: u64) -> f64 {
    f64::from_bits(if e >> 63 == 1 { e & !(1 << 63) } else { !e })
}

/// Tag index into the per-key value-kind counters (`Value::Str` = 0,
/// `Int` = 1, `Float` = 2, `Bool` = 3).
#[inline]
fn kind_index(v: &Value) -> usize {
    match v {
        Value::Str(_) => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Bool(_) => 3,
    }
}

/// Per-attr-key summary of the attribute's entries over live nodes.
///
/// Deliberately **vocabulary-sized**: only counters and the encoded
/// min/max live here, never a per-value distribution — snapshots are
/// cloned into planners on every refresh, so they must stay cheap even
/// when an attribute is near-unique across millions of nodes. The
/// distribution needed to keep min/max exact under removal lives in
/// [`StatsMaintenance`], which stays on the graph and is never cloned.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct AttrStats {
    /// Total entries (node × key pairs).
    entries: u64,
    /// Entries per value kind, indexed by [`kind_index`].
    kinds: [u64; 4],
    /// Order-encoded ([`num_order_encode`]) min/max over the numeric
    /// entries (`Int`/`Float` coerced to `f64`); `None` without numeric
    /// entries. Stored encoded so `PartialEq` stays exact even for NaN
    /// payloads.
    range: Option<(u64, u64)>,
}

/// Cardinality statistics backing the matcher's cost-based join planner.
///
/// Everything a selectivity estimate needs, stamped with
/// [`Graph::version`] so callers can detect staleness:
///
/// - **triple counts** — live edges per `(edge-label, src-label,
///   dst-label)`, plus the `(edge, src, *)` / `(edge, *, dst)` / `(edge,
///   *, *)` marginals, which turn into extension fan-out estimates
///   (`triples / |src-label|`);
/// - **range summaries** — per attr key, value-kind counts and the full
///   numeric value distribution (min/max via its extremes), feeding
///   [`CardinalityStats::range_selectivity`]'s linear-interpolation
///   estimate for `<` / `>=`-style constraints;
/// - **degree summaries** — total out/in degree per node label, the
///   fallback fan-out for pattern edges with no label requirement.
///
/// Two ways to obtain one: [`CardinalityStats::compute`] scans the graph
/// in one `O(V + E)` pass, and [`Graph::maintain_stats`] keeps a copy
/// up to date *on the mutation path* — every `add_node` / `add_edge` /
/// `remove_*` / `set_*` / `merge_nodes` applies an `O(1)`-ish delta (per
/// touched element), so reading fresh statistics is free. The two are
/// exactly equal after any mutation sequence (`compute` is the
/// differential oracle; [`Graph::check_invariants`] asserts it).
///
/// Estimates only steer *plan order*; they are never consulted for match
/// correctness, so stale statistics degrade performance, not results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CardinalityStats {
    /// [`Graph::version`] at compute time.
    pub version: u64,
    /// Live node count at compute time.
    pub nodes: u64,
    /// Live edge count at compute time.
    pub edges: u64,
    /// Node label → live node count.
    label_nodes: FxHashMap<u32, u64>,
    /// (edge label, src label, dst label) → live edge count.
    triples: FxHashMap<(u32, u32, u32), u64>,
    /// (edge label, src label) → live edge count (dst marginalized).
    edge_src: FxHashMap<(u32, u32), u64>,
    /// (edge label, dst label) → live edge count (src marginalized).
    edge_dst: FxHashMap<(u32, u32), u64>,
    /// Edge label → live edge count.
    edge_total: FxHashMap<u32, u64>,
    /// Node label → total out-degree of its nodes.
    out_deg: FxHashMap<u32, u64>,
    /// Node label → total in-degree of its nodes.
    in_deg: FxHashMap<u32, u64>,
    /// Attr key → value-index population summary.
    attrs: FxHashMap<u32, AttrStats>,
}

/// Add a signed delta to a counter map, removing the entry when it hits
/// zero — maintained maps stay structurally identical to freshly
/// computed ones (which never hold zero entries), so `==` is the
/// differential check.
fn bump<K: std::hash::Hash + Eq>(map: &mut FxHashMap<K, u64>, key: K, d: i64) {
    use std::collections::hash_map::Entry;
    match map.entry(key) {
        Entry::Occupied(mut e) => {
            let v = *e.get() as i64 + d;
            debug_assert!(v >= 0, "stats counter went negative");
            if v <= 0 {
                e.remove();
            } else {
                *e.get_mut() = v as u64;
            }
        }
        Entry::Vacant(e) => {
            debug_assert!(d >= 0, "decrement of absent stats counter");
            if d > 0 {
                e.insert(d as u64);
            }
        }
    }
}

impl CardinalityStats {
    /// Compute statistics in one pass over live nodes and edges.
    pub fn compute(g: &Graph) -> Self {
        let mut s = CardinalityStats {
            version: g.version(),
            nodes: g.num_nodes() as u64,
            edges: g.num_edges() as u64,
            ..CardinalityStats::default()
        };
        for n in g.nodes() {
            let l = g.node_label(n).expect("live node has a label");
            *s.label_nodes.entry(l.0).or_insert(0) += 1;
            for (k, v) in g.attrs(n) {
                let a = s.attrs.entry(k.0).or_default();
                a.entries += 1;
                a.kinds[kind_index(v)] += 1;
                if let Some(x) = v.as_number() {
                    let e = num_order_encode(x);
                    a.range = Some(match a.range {
                        None => (e, e),
                        Some((lo, hi)) => (lo.min(e), hi.max(e)),
                    });
                }
            }
        }
        for e in g.edges() {
            let er = g.edge(e).expect("live edge");
            let sl = g.node_label(er.src).expect("live endpoint");
            let dl = g.node_label(er.dst).expect("live endpoint");
            let el = er.label;
            *s.triples.entry((el.0, sl.0, dl.0)).or_insert(0) += 1;
            *s.edge_src.entry((el.0, sl.0)).or_insert(0) += 1;
            *s.edge_dst.entry((el.0, dl.0)).or_insert(0) += 1;
            *s.edge_total.entry(el.0).or_insert(0) += 1;
            *s.out_deg.entry(sl.0).or_insert(0) += 1;
            *s.in_deg.entry(dl.0).or_insert(0) += 1;
        }
        s
    }

    // ---- write-path deltas (driven by `Graph` in maintained mode) ------

    /// A node with `label` was added (`d = 1`) or removed (`d = -1`).
    pub(crate) fn node_delta(&mut self, label: LabelId, d: i64) {
        self.nodes = (self.nodes as i64 + d) as u64;
        bump(&mut self.label_nodes, label.0, d);
    }

    /// A live node moved from label `from` to label `to` (its incident
    /// edges are reported separately via [`CardinalityStats::edge_delta`]).
    pub(crate) fn node_relabel(&mut self, from: LabelId, to: LabelId) {
        bump(&mut self.label_nodes, from.0, -1);
        bump(&mut self.label_nodes, to.0, 1);
    }

    /// An edge `src-label --edge--> dst-label` appeared (`d = 1`) or
    /// disappeared (`d = -1`) — also the building block for relabels
    /// (one `-1` for the old triple, one `+1` for the new).
    pub(crate) fn edge_delta(&mut self, edge: LabelId, src: LabelId, dst: LabelId, d: i64) {
        self.edges = (self.edges as i64 + d) as u64;
        bump(&mut self.triples, (edge.0, src.0, dst.0), d);
        bump(&mut self.edge_src, (edge.0, src.0), d);
        bump(&mut self.edge_dst, (edge.0, dst.0), d);
        bump(&mut self.edge_total, edge.0, d);
        bump(&mut self.out_deg, src.0, d);
        bump(&mut self.in_deg, dst.0, d);
    }

    /// A node gained attribute `key = value`. Numeric min/max is *not*
    /// updated here — [`StatsMaintenance`] owns the distribution and
    /// pushes fresh extremes via [`CardinalityStats::set_numeric_range`].
    pub(crate) fn attr_insert(&mut self, key: AttrKeyId, value: &Value) {
        let a = self.attrs.entry(key.0).or_default();
        a.entries += 1;
        a.kinds[kind_index(value)] += 1;
    }

    /// A node lost attribute `key = value`.
    pub(crate) fn attr_remove(&mut self, key: AttrKeyId, value: &Value) {
        let std::collections::hash_map::Entry::Occupied(mut e) = self.attrs.entry(key.0)
        else {
            debug_assert!(false, "attr_remove for untracked key");
            return;
        };
        let a = e.get_mut();
        a.entries -= 1;
        a.kinds[kind_index(value)] -= 1;
        if a.entries == 0 {
            e.remove();
        }
    }

    /// Install the current encoded numeric min/max of `key` (pushed by
    /// [`StatsMaintenance`] after every numeric entry change).
    pub(crate) fn set_numeric_range(&mut self, key: AttrKeyId, range: Option<(u64, u64)>) {
        if let Some(a) = self.attrs.get_mut(&key.0) {
            a.range = range;
        } else {
            debug_assert!(range.is_none(), "numeric range for untracked key");
        }
    }

    /// Live nodes carrying `label` (`None` = all nodes).
    pub fn label_count(&self, label: Option<LabelId>) -> u64 {
        match label {
            None => self.nodes,
            Some(l) => self.label_nodes.get(&l.0).copied().unwrap_or(0),
        }
    }

    /// Live edges matching the (possibly partially specified) triple.
    pub fn triple_count(
        &self,
        edge: LabelId,
        src: Option<LabelId>,
        dst: Option<LabelId>,
    ) -> u64 {
        match (src, dst) {
            (Some(s), Some(d)) => self.triples.get(&(edge.0, s.0, d.0)).copied().unwrap_or(0),
            (Some(s), None) => self.edge_src.get(&(edge.0, s.0)).copied().unwrap_or(0),
            (None, Some(d)) => self.edge_dst.get(&(edge.0, d.0)).copied().unwrap_or(0),
            (None, None) => self.edge_total.get(&edge.0).copied().unwrap_or(0),
        }
    }

    /// Expected number of `dir`-oriented neighbors a node with label
    /// `from` contributes along an edge with label `edge` toward a node
    /// with label `to` — the planner's extension fan-out. `None` labels
    /// marginalize; an unlabelled edge falls back to the label's average
    /// degree in that direction.
    pub fn extension_fanout(
        &self,
        edge: Option<LabelId>,
        from: Option<LabelId>,
        to: Option<LabelId>,
        dir: Direction,
    ) -> f64 {
        let denom = self.label_count(from).max(1) as f64;
        let numer = match edge {
            Some(el) => match dir {
                Direction::Out => self.triple_count(el, from, to),
                Direction::In => self.triple_count(el, to, from),
            },
            None => {
                let deg = match (dir, from) {
                    (Direction::Out, Some(l)) => {
                        self.out_deg.get(&l.0).copied().unwrap_or(0)
                    }
                    (Direction::In, Some(l)) => self.in_deg.get(&l.0).copied().unwrap_or(0),
                    (_, None) => self.edges,
                };
                return deg as f64 / denom;
            }
        };
        numer as f64 / denom
    }

    /// Entries of attribute `key` per value kind, in
    /// `[str, int, float, bool]` order; `None` when no node carries it.
    pub fn value_kinds(&self, key: AttrKeyId) -> Option<[u64; 4]> {
        self.attrs.get(&key.0).map(|a| a.kinds)
    }

    /// Observed numeric min/max of attribute `key` (`Int`/`Float`
    /// coerced to `f64`); `None` without numeric entries.
    pub fn numeric_range(&self, key: AttrKeyId) -> Option<(f64, f64)> {
        let (lo, hi) = self.attrs.get(&key.0)?.range?;
        Some((num_order_decode(lo), num_order_decode(hi)))
    }

    /// Estimated fraction of `key`'s entries satisfying a
    /// numeric range predicate against `bound`: `less = true` for
    /// `< / <=`, `false` for `> / >=`. Linear interpolation between the
    /// observed min and max (equi-width assumption), scaled by the
    /// fraction of entries that are numeric at all (non-numeric entries
    /// can never satisfy a numeric comparison). `None` when the key has
    /// no numeric entries — the caller keeps its label-count estimate.
    pub fn range_selectivity(&self, key: AttrKeyId, less: bool, bound: f64) -> Option<f64> {
        let a = self.attrs.get(&key.0)?;
        let (min, max) = self.numeric_range(key)?;
        let numeric: u64 = a.kinds[1] + a.kinds[2];
        if numeric == 0 || a.entries == 0 || !bound.is_finite() {
            return None;
        }
        let below = if max > min {
            ((bound - min) / (max - min)).clamp(0.0, 1.0)
        } else if bound >= min {
            1.0
        } else {
            0.0
        };
        let frac = if less { below } else { 1.0 - below };
        Some(frac * numeric as f64 / a.entries as f64)
    }
}

/// The graph-side machinery behind [`Graph::maintain_stats`]: the
/// maintained [`CardinalityStats`] snapshot plus its support structure —
/// a per-key counted distribution of order-encoded numeric attribute
/// values, which is what makes min/max exact under *removal* (dropping
/// the current minimum just exposes the next map key).
///
/// The distribution is `O(distinct numeric values)`, but it stays here
/// on the graph and is never part of the snapshot planners clone; the
/// snapshot only carries the current extremes.
#[derive(Clone, Debug)]
pub(crate) struct StatsMaintenance {
    /// The maintained snapshot ([`Graph::maintained_stats`] hands out a
    /// borrow of this).
    pub(crate) stats: CardinalityStats,
    /// Attr key → order-encoded numeric value → live entry count.
    numeric: FxHashMap<u32, BTreeMap<u64, u64>>,
}

impl StatsMaintenance {
    /// One-pass build over the current graph (stats + numeric support).
    pub(crate) fn build(g: &Graph) -> Self {
        let mut numeric: FxHashMap<u32, BTreeMap<u64, u64>> = FxHashMap::default();
        for n in g.nodes() {
            for (k, v) in g.attrs(n) {
                if let Some(x) = v.as_number() {
                    *numeric
                        .entry(k.0)
                        .or_default()
                        .entry(num_order_encode(x))
                        .or_insert(0) += 1;
                }
            }
        }
        Self {
            stats: CardinalityStats::compute(g),
            numeric,
        }
    }

    fn extremes(m: &BTreeMap<u64, u64>) -> Option<(u64, u64)> {
        Some((*m.keys().next()?, *m.keys().next_back()?))
    }

    /// A node gained attribute `key = value`.
    pub(crate) fn attr_insert(&mut self, key: AttrKeyId, value: &Value) {
        self.stats.attr_insert(key, value);
        if let Some(x) = value.as_number() {
            let m = self.numeric.entry(key.0).or_default();
            *m.entry(num_order_encode(x)).or_insert(0) += 1;
            let range = Self::extremes(m);
            self.stats.set_numeric_range(key, range);
        }
    }

    /// A node lost attribute `key = value`.
    pub(crate) fn attr_remove(&mut self, key: AttrKeyId, value: &Value) {
        self.stats.attr_remove(key, value);
        if let Some(x) = value.as_number() {
            let std::collections::hash_map::Entry::Occupied(mut e) =
                self.numeric.entry(key.0)
            else {
                debug_assert!(false, "numeric removal for untracked key");
                return;
            };
            let m = e.get_mut();
            let enc = num_order_encode(x);
            if let Some(c) = m.get_mut(&enc) {
                *c -= 1;
                if *c == 0 {
                    m.remove(&enc);
                }
            }
            let range = Self::extremes(m);
            if range.is_none() {
                e.remove();
            }
            self.stats.set_numeric_range(key, range);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_stats() {
        let s = GraphStats::compute(&Graph::new());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert!(s.degree_hist.is_empty());
    }

    #[test]
    fn small_graph_stats() {
        let mut g = Graph::new();
        let a = g.add_node_named("P");
        let b = g.add_node_named("P");
        let c = g.add_node_named("C");
        g.add_edge_named(a, b, "knows").unwrap();
        g.add_edge_named(a, c, "lives").unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.node_labels, 2);
        assert_eq!(s.edge_labels, 2);
        assert_eq!(s.max_degree, 2);
        assert!((s.avg_degree - 4.0 / 3.0).abs() < 1e-9);
        // a has degree 2 → bucket 1; b, c have degree 1 → bucket 0.
        assert_eq!(s.degree_hist, vec![2, 1]);
        assert!(s.to_string().contains("|V|=3"));
    }

    #[test]
    fn cardinality_stats_count_triples_degrees_and_buckets() {
        let mut g = Graph::new();
        let p = g.label("P");
        let c = g.label("C");
        let lives = g.label("lives");
        let knows = g.label("knows");
        let a = g.add_node(p);
        let b = g.add_node(p);
        let c1 = g.add_node(c);
        g.add_edge(a, c1, lives).unwrap();
        g.add_edge(b, c1, lives).unwrap();
        g.add_edge(a, b, knows).unwrap();
        let ssn = g.attr_key("ssn");
        g.set_attr(a, ssn, crate::Value::Int(1)).unwrap();
        g.set_attr(b, ssn, crate::Value::Int(1)).unwrap();
        g.set_attr(c1, ssn, crate::Value::Int(2)).unwrap();

        let s = CardinalityStats::compute(&g);
        assert_eq!(s.version, g.version());
        assert_eq!((s.nodes, s.edges), (3, 3));
        assert_eq!(s.label_count(Some(p)), 2);
        assert_eq!(s.label_count(None), 3);
        assert_eq!(s.triple_count(lives, Some(p), Some(c)), 2);
        assert_eq!(s.triple_count(lives, Some(p), None), 2);
        assert_eq!(s.triple_count(lives, None, Some(c)), 2);
        assert_eq!(s.triple_count(lives, None, None), 2);
        assert_eq!(s.triple_count(knows, Some(p), Some(c)), 0);
        // Out fan-out of a P along lives toward C: 2 edges / 2 P nodes.
        assert!((s.extension_fanout(Some(lives), Some(p), Some(c), Direction::Out) - 1.0).abs() < 1e-9);
        // In fan-out of a C along lives from P: 2 edges / 1 C node.
        assert!((s.extension_fanout(Some(lives), Some(c), Some(p), Direction::In) - 2.0).abs() < 1e-9);
        // Unlabelled edge falls back to average degree: P nodes have
        // 3 out-edges total over 2 nodes.
        assert!((s.extension_fanout(None, Some(p), None, Direction::Out) - 1.5).abs() < 1e-9);
        // ssn has 2 distinct values over 3 entries.
        assert!((g.avg_bucket(ssn) - 1.5).abs() < 1e-9);
        assert_eq!(g.avg_bucket(AttrKeyId(99)), 0.0);
    }

    #[test]
    fn attr_bucket_stats_track_index() {
        let mut g = Graph::new();
        let a = g.add_node_named("P");
        let b = g.add_node_named("P");
        let k = g.attr_key("k");
        g.set_attr(a, k, crate::Value::Int(1)).unwrap();
        g.set_attr(b, k, crate::Value::Int(2)).unwrap();
        assert_eq!(g.avg_bucket(k), 1.0);
        g.set_attr(b, k, crate::Value::Int(1)).unwrap();
        assert_eq!(g.avg_bucket(k), 2.0);
        g.remove_node(a).unwrap();
        g.remove_node(b).unwrap();
        assert_eq!(g.avg_bucket(k), 0.0);
    }

    #[test]
    fn range_stats_interpolate_and_track_kinds() {
        let mut g = Graph::new();
        let age = g.attr_key("age");
        let tag = g.attr_key("tag");
        let mut nodes = Vec::new();
        for i in 0..10 {
            let n = g.add_node_named("P");
            g.set_attr(n, age, crate::Value::Int(i)).unwrap();
            nodes.push(n);
        }
        g.set_attr(nodes[0], tag, crate::Value::from("a")).unwrap();

        let s = CardinalityStats::compute(&g);
        assert_eq!(s.value_kinds(age), Some([0, 10, 0, 0]));
        assert_eq!(s.value_kinds(tag), Some([1, 0, 0, 0]));
        assert_eq!(s.numeric_range(age), Some((0.0, 9.0)));
        assert_eq!(s.numeric_range(tag), None);
        // age < 4.5 → interpolated 50%.
        assert!((s.range_selectivity(age, true, 4.5).unwrap() - 0.5).abs() < 1e-9);
        assert!((s.range_selectivity(age, false, 4.5).unwrap() - 0.5).abs() < 1e-9);
        // Out-of-range bounds clamp.
        assert_eq!(s.range_selectivity(age, true, -1.0), Some(0.0));
        assert_eq!(s.range_selectivity(age, true, 100.0), Some(1.0));
        // Non-numeric key yields no estimate.
        assert_eq!(s.range_selectivity(tag, true, 1.0), None);
        assert_eq!(s.range_selectivity(AttrKeyId(99), true, 1.0), None);

        // Degenerate single-value distribution: all-or-nothing.
        let mut g1 = Graph::new();
        let k = g1.attr_key("k");
        let n = g1.add_node_named("P");
        g1.set_attr(n, k, crate::Value::Float(3.0)).unwrap();
        let s1 = CardinalityStats::compute(&g1);
        assert_eq!(s1.range_selectivity(k, true, 3.5), Some(1.0));
        assert_eq!(s1.range_selectivity(k, true, 2.5), Some(0.0));
    }

    #[test]
    fn maintained_stats_follow_mutations_exactly() {
        let mut g = Graph::new();
        g.maintain_stats(true);
        let p = g.label("P");
        let q = g.label("Q");
        let r = g.label("r");
        let k = g.attr_key("k");
        let differential = |g: &Graph| {
            assert_eq!(
                g.maintained_stats().unwrap(),
                &CardinalityStats::compute(g),
                "maintained stats must equal a fresh recompute"
            );
        };
        let a = g.add_node(p);
        let b = g.add_node(p);
        let c = g.add_node(q);
        differential(&g);
        let e1 = g.add_edge(a, b, r).unwrap();
        g.add_edge(b, c, r).unwrap();
        let loop_edge = g.add_edge(c, c, r).unwrap();
        differential(&g);
        g.set_attr(a, k, crate::Value::Int(1)).unwrap();
        g.set_attr(b, k, crate::Value::Int(1)).unwrap();
        g.set_attr(c, k, crate::Value::from("s")).unwrap();
        differential(&g);
        // Overwrite moves buckets; removal empties them.
        g.set_attr(b, k, crate::Value::Int(2)).unwrap();
        g.remove_attr(a, k).unwrap();
        differential(&g);
        // Relabels move triples, including the self-loop's both ends.
        g.set_node_label(c, p).unwrap();
        differential(&g);
        let s_label = g.label("s");
        g.set_edge_label(e1, s_label).unwrap();
        differential(&g);
        g.remove_edge(loop_edge).unwrap();
        g.remove_node(b).unwrap();
        differential(&g);
        // Tombstone reuse.
        let d = g.add_node(q);
        assert_eq!(d, b, "slot reuse expected");
        differential(&g);
        g.merge_nodes(a, d, true).unwrap();
        differential(&g);
        assert_eq!(g.maintained_stats().unwrap().version, g.version());
        g.check_invariants().unwrap();
        // Switching off drops the snapshot.
        g.maintain_stats(false);
        assert!(g.maintained_stats().is_none());
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut g = Graph::new();
        let hub = g.add_node_named("H");
        for _ in 0..5 {
            let n = g.add_node_named("L");
            g.add_edge_named(hub, n, "r").unwrap();
        }
        let s = GraphStats::compute(&g);
        // hub degree 5 → bucket 2 ([4,8)); leaves degree 1 → bucket 0.
        assert_eq!(s.degree_hist[0], 5);
        assert_eq!(s.degree_hist[2], 1);
    }
}
