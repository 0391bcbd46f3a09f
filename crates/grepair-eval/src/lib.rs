//! # grepair-eval
//!
//! Evaluation substrate: repair-quality metrics, comparison baselines,
//! and the experiment harness that regenerates every table and figure of
//! the reconstructed ICDE 2018 evaluation (the `experiments` binary in
//! `grepair-bench`; see the README's "Paper experiments" section).
//!
//! - [`metrics`] — precision/recall/F1 over canonical triple-multiset
//!   deltas (made-changes vs needed-changes).
//! - [`baselines`] — the textbook rescan loop, delete-only constraint
//!   cleaning and random repair.
//! - [`experiments`] — one `exp_*` function per table/figure; run them
//!   via `cargo run -p grepair-bench --release --bin experiments`.
//! - [`table`] — aligned text/CSV table rendering.

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod experiments;
pub mod metrics;
pub mod table;

pub use baselines::{delete_only_rules, random_repair, rescan_repair, BaselineReport};
pub use experiments::{run, Profile};
pub use metrics::{evaluate_repair, CanonMap, RepairQuality};
pub use table::Table;
