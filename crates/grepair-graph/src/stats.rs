//! Summary statistics over a graph, used for the T1 dataset table and
//! for selectivity sanity checks in the experiment harness.

use crate::graph::Graph;
use serde::{Deserialize, Serialize};
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
