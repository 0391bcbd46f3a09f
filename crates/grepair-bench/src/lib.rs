//! # grepair-bench
//!
//! Criterion benchmarks and the `experiments` binary that regenerates the
//! reconstructed evaluation tables/figures (see the README's "Paper
//! experiments" section).
//!
//! Shared fixtures for the benches live here so every bench measures the
//! same workloads the experiment harness reports on.

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use grepair_gen::{generate_kg, inject_kg_noise, KgConfig, NoiseConfig};
use grepair_graph::Graph;

/// A dirty KG fixture at the given person count (10% mixed noise, fixed
/// seeds — identical across benches).
pub fn dirty_kg_fixture(persons: usize) -> Graph {
    let (mut g, refs) = generate_kg(&KgConfig::with_persons(persons));
    inject_kg_noise(&mut g, &refs, &NoiseConfig::default());
    g
}

/// A clean KG fixture.
pub fn clean_kg_fixture(persons: usize) -> Graph {
    generate_kg(&KgConfig::with_persons(persons)).0
}

/// Rule DSL for an attribute cascade: `stage{i}` fires when `a{i}` is
/// set and `a{i+1}` is missing, setting `a{i+1}` — each repair enables
/// exactly the next stage. The canonical repeated-round fixture for
/// plan-cache and dirty-rule-scheduling measurements (the engine's unit
/// tests pin the same shape).
pub fn cascade_rules_dsl(stages: usize) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    for i in 0..stages {
        writeln!(
            src,
            "rule stage{i} [incompleteness]
             match (x:T) where has(x.a{i}), missing(x.a{next})
             repair set x.a{next} = true",
            next = i + 1
        )
        .unwrap();
    }
    src
}
