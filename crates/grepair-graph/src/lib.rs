//! # grepair-graph
//!
//! Property-graph substrate for the `grepair` workspace — the storage layer
//! under the Rule-Based Graph Repairing (GRR) engine (Cheng, Chen, Yuan,
//! Wang; ICDE 2018 reconstruction).
//!
//! A [`Graph`] is a directed, labelled multigraph whose nodes carry a typed
//! label plus a small attribute map, and whose edges carry a relation
//! label. The storage is mutation-oriented: every one of the paper's seven
//! repair operations (insert/delete node, insert/delete edge, update node
//! label/attr, update edge label, merge nodes) is a first-class method with
//! stable-id semantics, so repair engines can hold element ids across
//! mutations.
//!
//! ## Quick tour
//!
//! ```
//! use grepair_graph::{Graph, Value};
//!
//! let mut g = Graph::new();
//! let ann = g.add_node_named("Person");
//! let name = g.attr_key("name");
//! g.set_attr(ann, name, Value::from("Ann")).unwrap();
//! let oslo = g.add_node_named("City");
//! g.add_edge_named(ann, oslo, "livesIn").unwrap();
//!
//! assert_eq!(g.num_nodes(), 2);
//! let lives = g.try_label("livesIn").unwrap();
//! assert!(g.has_edge_labeled(ann, oslo, lives));
//! ```
//!
//! ## Module map
//!
//! - [`graph`] — the storage itself, its label indexes and the
//!   [`SlotLoader`] that rebuilds it from a slot image.
//! - [`ids`] — `u32` newtype identifiers.
//! - [`value`] — dynamic attribute values.
//! - [`interner`] — label/attr-key interning.
//! - [`edit_distance`] — graph edit distance (cost table + exact small-graph
//!   solver + lower bound), backing the paper's "best repair" selection.
//! - [`io`] — portable JSON / plain-text documents.
//! - [`dump`] — exact slot-level images (tombstones and free lists
//!   included), the form tests compare graphs by; durable snapshots
//!   load through [`SlotLoader`].
//! - [`stats`] — dataset statistics (T1 table).

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dump;
pub mod edit_distance;
pub mod error;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod io;
pub mod stats;
mod value;

pub use dump::SlotDump;
pub use edit_distance::{ged_lower_bound, graph_edit_distance, EditCosts};
pub use error::{GraphError, Result};
pub use graph::{EdgeRef, Graph, MergeOutcome, SlotLoader};
pub use ids::{AttrKeyId, Direction, EdgeId, LabelId, NodeId};
pub use interner::Interner;
pub use io::{EdgeDoc, GraphDoc, NodeDoc};
pub use stats::{CardinalityStats, GraphStats};
pub use value::Value;
