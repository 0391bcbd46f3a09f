//! The only file of the benchmark that names a library item.
//!
//! Every call goes through here with **default configuration**
//! (`EngineConfig::default()`, `StoreConfig::default()`,
//! `MatchConfig::default()`, `LintPolicy::default()`, default cargo
//! features), so a PR that changes a default moves the numbers and a PR
//! that only adds a knob does not. An API-collapsing refactor (ROADMAP
//! item 3) has exactly this file to update; the README lists the entry
//! points used.
//!
//! No timing happens here: `jobs.rs` wraps each call in a span.

use std::path::Path;

pub use grepair_core::{Grr, RepairOutcome, RepairReport, Watcher};
pub use grepair_graph::{Graph, GraphDoc, NodeDoc, NodeId, Value};
pub use grepair_match::TouchSet;
pub use grepair_store::{CompactionStats, StoreStatus};

use grepair_core::{LintPolicy, RepairEngine};
use grepair_gen::{KgConfig, NoiseConfig, SocialConfig};
use grepair_match::{MatchConfig, Matcher, Planner};
use grepair_store::StoreConfig;

/// The durable store under default type parameters.
pub type Store = grepair_store::DurableGraph;

fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---- input generation (set-up only) ---------------------------------------

/// Gold KG rule DSL (10 rules).
pub const KG_RULES_DSL: &str = grepair_gen::catalog::GOLD_KG_DSL;
/// Gold social rule DSL (4 rules).
pub const SOCIAL_RULES_DSL: &str = grepair_gen::catalog::SOCIAL_DSL;

/// A noisy knowledge graph: `generate_kg` + `inject_kg_noise` at the
/// default noise rate, both seeded from `seed`.
pub fn noisy_kg(persons: usize, seed: u64) -> Graph {
    let (mut g, refs) = grepair_gen::generate_kg(&KgConfig {
        seed,
        ..KgConfig::with_persons(persons)
    });
    grepair_gen::inject_kg_noise(
        &mut g,
        &refs,
        &NoiseConfig {
            seed,
            ..NoiseConfig::default()
        },
    );
    g
}

/// The born-dirty social graph.
pub fn dirty_social(accounts: usize, seed: u64) -> Graph {
    grepair_gen::generate_social(&SocialConfig {
        accounts,
        seed,
        ..SocialConfig::default()
    })
    .0
}

/// DSL of `n` synthetic scan-heavy rules over the KG schema.
pub fn synthetic_rules_dsl(n: usize) -> String {
    grepair_core::ruleset_to_dsl(&grepair_gen::synthetic_rules(n))
}

// ---- grepair-graph: io ----------------------------------------------------

/// `GraphDoc::from_text`.
pub fn parse_graph_text(text: &str) -> Result<GraphDoc, String> {
    GraphDoc::from_text(text).map_err(s)
}

/// `GraphDoc::to_text`.
pub fn doc_to_text(doc: &GraphDoc) -> String {
    doc.to_text()
}

/// `Graph::from_doc`; consumes the document as a loader would.
pub fn build_graph(doc: GraphDoc) -> Result<Graph, String> {
    Graph::from_doc(&doc).map_err(s)
}

/// `Graph::to_doc`.
pub fn doc_of(g: &Graph) -> GraphDoc {
    g.to_doc()
}

/// `to_doc().to_text()` — the CLI's `repair -o` rendering.
pub fn export_text(g: &Graph) -> String {
    g.to_doc().to_text()
}

/// Live nodes + edges.
pub fn elements(g: &Graph) -> usize {
    g.num_nodes() + g.num_edges()
}

/// Live nodes carrying `label`, with the string value of `key` each holds.
pub fn nodes_with_string_attr(g: &Graph, label: &str, key: &str) -> Vec<(NodeId, String)> {
    let (Some(l), Some(k)) = (g.try_label(label), g.try_attr_key(key)) else {
        return Vec::new();
    };
    g.nodes_with_label(l)
        .iter()
        .filter_map(|&n| match g.attr(n, k) {
            Some(Value::Str(v)) => Some((n, v.clone())),
            _ => None,
        })
        .collect()
}

/// In-memory counterpart of [`store_add_node`].
pub fn graph_add_node(g: &mut Graph, label: &str, attrs: &[(String, Value)]) -> NodeId {
    let l = g.label(label);
    let attrs = attrs
        .iter()
        .map(|(k, v)| (g.attr_key(k), v.clone()))
        .collect();
    g.add_node_with_attrs(l, attrs)
}

/// In-memory counterpart of [`store_add_edge`].
pub fn graph_add_edge(g: &mut Graph, src: NodeId, dst: NodeId, label: &str) -> Result<(), String> {
    g.add_edge_named(src, dst, label).map(drop).map_err(s)
}

// ---- grepair-core: dsl / lint / analysis ------------------------------------

/// Parsed rules with the source spans lint attaches to findings.
pub struct Rules {
    /// The rule set.
    pub rules: Vec<Grr>,
    spans: Vec<grepair_core::RuleSpan>,
}

/// `parse_rules_with_spans`.
pub fn parse_rules(dsl: &str) -> Result<Rules, String> {
    let (rules, spans) = grepair_core::parse_rules_with_spans(dsl).map_err(s)?;
    Ok(Rules { rules, spans })
}

/// `lint_rules` under the default policy → (findings, deny-level findings).
pub fn lint(rules: &Rules) -> (usize, usize) {
    let report = grepair_core::lint_rules(&rules.rules, &rules.spans, &LintPolicy::default());
    (report.findings.len(), report.deny_count())
}

/// `trigger_graph` + `stratify` + `set_fingerprint` — what the engine's
/// scheduler derives from a rule set. Returns the stratum count (0 for
/// a cyclic set) and the fingerprint.
pub fn schedule(rules: &[Grr]) -> (usize, u64) {
    let tg = grepair_core::trigger_graph(rules);
    let strata = grepair_core::stratify(&tg).map_or(0, |levels| levels.len());
    (strata, grepair_core::set_fingerprint(rules))
}

// ---- grepair-match ----------------------------------------------------------

/// The `check` sweep: one planner, `find_all` per rule. Returns the
/// number of matches (violations) found.
pub fn check_sweep(g: &Graph, rules: &[Grr]) -> usize {
    let planner = Planner::new();
    planner.refresh_stats(g);
    let matcher = Matcher::with_planner(g, MatchConfig::default(), &planner);
    rules
        .iter()
        .map(|r| matcher.find_all(&r.pattern).len())
        .sum()
}

// ---- grepair-core: engine / watch -------------------------------------------

/// `RepairEngine::default().repair`.
pub fn repair_in_memory(g: &mut Graph, rules: &[Grr]) -> RepairReport {
    RepairEngine::default().repair(g, rules)
}

/// `RepairEngine::default().count_violations`.
pub fn count_violations(g: &Graph, rules: &[Grr]) -> usize {
    RepairEngine::default().count_violations(g, rules)
}

/// `Watcher::new` (runs the initial full scan).
pub fn watcher_new(g: &Graph, rules: &[Grr]) -> Watcher {
    Watcher::new(g, rules.to_vec())
}

/// `Watcher::update` → fresh violations around `touched`.
pub fn watcher_update(w: &mut Watcher, g: &Graph, touched: &TouchSet) -> usize {
    w.update(g, touched)
}

// ---- grepair-store ----------------------------------------------------------

/// `DurableGraph::create`.
pub fn store_create(dir: &Path) -> Result<Store, String> {
    Store::create(dir, StoreConfig::default()).map_err(s)
}

/// `DurableGraph::create_with`.
pub fn store_create_with(dir: &Path, graph: Graph) -> Result<Store, String> {
    Store::create_with(dir, StoreConfig::default(), graph).map_err(s)
}

/// `DurableGraph::open` → the store and how many log records recovery
/// replayed.
pub fn store_open(dir: &Path) -> Result<(Store, u64), String> {
    let store = Store::open(dir, StoreConfig::default()).map_err(s)?;
    let replayed = store.last_recovery().records_replayed;
    Ok((store, replayed))
}

/// `DurableGraph::add_node_with_attrs`.
pub fn store_add_node(
    store: &mut Store,
    label: &str,
    attrs: &[(String, Value)],
) -> Result<NodeId, String> {
    store.add_node_with_attrs(label, attrs).map_err(s)
}

/// `DurableGraph::add_edge`.
pub fn store_add_edge(
    store: &mut Store,
    src: NodeId,
    dst: NodeId,
    label: &str,
) -> Result<(), String> {
    store.add_edge(src, dst, label).map(drop).map_err(s)
}

/// `DurableGraph::commit`.
pub fn store_commit(store: &mut Store) -> Result<(), String> {
    store.commit().map_err(s)
}

/// `DurableGraph::repair` with the default engine (journals every
/// applied op and commits).
pub fn store_repair(store: &mut Store, rules: &[Grr]) -> Result<RepairReport, String> {
    store.repair(&RepairEngine::default(), rules).map_err(s)
}

/// `DurableGraph::compact`.
pub fn store_compact(store: &mut Store) -> Result<CompactionStats, String> {
    store.compact().map_err(s)
}

/// `DurableGraph::maybe_compact`.
pub fn store_maybe_compact(store: &mut Store) -> Result<Option<CompactionStats>, String> {
    store.maybe_compact().map_err(s)
}

/// `DurableGraph::status`.
pub fn store_status(store: &Store) -> Result<StoreStatus, String> {
    store.status().map_err(s)
}

/// `DurableGraph::last_seq`.
pub fn store_last_seq(store: &Store) -> u64 {
    store.last_seq()
}

/// `DurableGraph::planner().stats_epoch()`: moves when the store's
/// long-lived planner refreshes its statistics (and drops its plans).
pub fn store_stats_epoch(store: &Store) -> u64 {
    store.planner().stats_epoch()
}

/// `DurableGraph::graph`.
pub fn store_graph(store: &Store) -> &Graph {
    store.graph()
}

/// `DurableGraph::into_graph`.
pub fn store_into_graph(store: Store) -> Graph {
    store.into_graph()
}

/// Name of the store's lock file: process state, not data, so directory
/// copies skip it.
pub const STORE_LOCK_FILE: &str = grepair_store::lock::LOCK_FILE_NAME;

// ---- grepair-obs ------------------------------------------------------------

/// `set_tracing`.
pub fn set_tracing(on: bool) {
    grepair_obs::set_tracing(on);
}

/// `take_events`: drain the library's trace buffers → how many span and
/// instant events the traced rep recorded.
pub fn drain_library_trace() -> usize {
    grepair_obs::take_events().len()
}

/// `snapshot_json` of the global metrics registry.
pub fn metrics_snapshot_json() -> String {
    grepair_obs::snapshot_json()
}
