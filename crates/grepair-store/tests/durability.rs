//! Kill-and-reopen durability: the acceptance test for the store.
//!
//! Build a dirty graph, repair it through a [`DurableGraph`] (every
//! engine-applied repair journaled), then simulate a crash mid-write by
//! appending a torn tail to the active segment. Reopening must recover
//! exactly the last durably committed state — all applied repairs
//! intact, the torn garbage discarded.

use grepair_core::{RepairEngine, RepairOutcome, RuleSet};
use grepair_gen::{generate_kg, gold_kg_rules, inject_kg_noise, KgConfig, NoiseConfig};
use grepair_store::{DurableGraph, StdFs, StoreConfig};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "grepair-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dirty_kg(persons: usize) -> grepair_graph::Graph {
    let (mut g, refs) = generate_kg(&KgConfig {
        seed: 7,
        ..KgConfig::with_persons(persons)
    });
    inject_kg_noise(
        &mut g,
        &refs,
        &NoiseConfig {
            rate: 0.1,
            seed: 7,
            ..NoiseConfig::default()
        },
    );
    g
}

#[test]
fn repair_survives_torn_tail_crash() {
    let dir = tmpdir("repair-crash");
    let rules: RuleSet = gold_kg_rules();

    // Import a dirty graph, repair it durably.
    let mut store =
        DurableGraph::create_with(&dir, StoreConfig::default(), dirty_kg(150)).unwrap();
    let engine = RepairEngine::default();
    let violations_before = engine.count_violations(store.graph(), &rules.rules);
    assert!(violations_before > 0, "fixture must be dirty");
    let report = store.repair(&engine, &rules.rules).unwrap();
    assert!(report.converged, "residual: {}", report.violations_remaining);
    assert!(report.repairs_applied > 0);
    let committed = store.graph().dump_slots();
    let committed_seq = store.last_seq();
    assert_eq!(committed_seq, report.ops.len() as u64);
    drop(store);

    // Crash simulation: a torn half-record lands on the active segment.
    let (_, seg) = grepair_store::wal::list_segments(&dir)
        .unwrap()
        .pop()
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x13, 0x37, 0x00, 0x00, 0xFF]);
    std::fs::write(&seg, &bytes).unwrap();

    // Reopen: recovered graph == last durably committed state, repairs
    // intact, zero residual violations, torn tail accounted for.
    let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.graph().dump_slots(), committed);
    assert_eq!(store.last_seq(), committed_seq);
    assert_eq!(store.last_recovery().torn_tail_bytes, 5);
    assert_eq!(store.last_recovery().records_replayed, committed_seq);
    assert_eq!(
        engine.count_violations(store.graph(), &rules.rules),
        0,
        "recovered graph must keep all repairs"
    );
    store.graph().check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_then_compact_then_crash_recovers_from_snapshot() {
    let dir = tmpdir("repair-compact-crash");
    let rules: RuleSet = gold_kg_rules();
    let mut store =
        DurableGraph::create_with(&dir, StoreConfig::default(), dirty_kg(100)).unwrap();
    let engine = RepairEngine::default();
    store.repair(&engine, &rules.rules).unwrap();
    let cstats = store.compact().unwrap();
    assert!(cstats.snapshot_seq > 0);

    // Post-compaction edits (durably committed), then a crash that tears
    // BOTH a fresh half-record and trashes nothing else.
    let newcomer = store.add_node("Person").unwrap();
    store
        .set_attr(newcomer, "name", grepair_graph::Value::from("late arrival"))
        .unwrap();
    store.commit().unwrap();
    let committed = store.graph().dump_slots();
    drop(store);
    let (_, seg) = grepair_store::wal::list_segments(&dir)
        .unwrap()
        .pop()
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0xAB; 3]);
    std::fs::write(&seg, &bytes).unwrap();

    let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.last_recovery().snapshot_seq, cstats.snapshot_seq);
    assert_eq!(store.last_recovery().records_replayed, 2);
    assert_eq!(store.last_recovery().torn_tail_bytes, 3);
    assert_eq!(store.graph().dump_slots(), committed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_repair_cycles_stay_replayable_across_sessions() {
    // A persistent deployment: ingest → repair → close, several times,
    // with noise injected between sessions. Every reopen must replay to
    // the exact pre-close state.
    let dir = tmpdir("sessions");
    let rules: RuleSet = gold_kg_rules();
    let engine = RepairEngine::default();

    let mut store =
        DurableGraph::create_with(&dir, StoreConfig::default(), dirty_kg(80)).unwrap();
    let mut expected = None;
    for session in 0..3 {
        if let Some(expected) = expected.take() {
            let expected: grepair_graph::SlotDump = expected;
            assert_eq!(
                store.graph().dump_slots(),
                expected,
                "session {session}: reopen must restore pre-close state"
            );
        }
        // Some manual dirt through the durable API.
        let p = store.add_node("Person").unwrap();
        let q = store.add_node("Person").unwrap();
        store
            .set_attr(p, "ssn", grepair_graph::Value::Int(900_000 + session))
            .unwrap();
        store
            .set_attr(q, "ssn", grepair_graph::Value::Int(900_000 + session))
            .unwrap();
        let report = store.repair(&engine, &rules.rules).unwrap();
        assert!(report.converged);
        if session == 1 {
            store.compact().unwrap();
        }
        store.commit().unwrap();
        expected = Some(store.graph().dump_slots());
        drop(store);
        store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    }
    let expected: grepair_graph::SlotDump = expected.unwrap();
    assert_eq!(store.graph().dump_slots(), expected);
    assert_eq!(engine.count_violations(store.graph(), &rules.rules), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stratified_repairs_are_journaled_identically() {
    // An acyclic 3-stage attribute cascade runs one worklist per stratum,
    // each applied repair its own committed round: the journal must hold
    // exactly the in-memory run's ops and replay to the same slots.
    let dir = tmpdir("stratified");
    let rules = RuleSet::from_dsl(
        "cascade",
        "rule s0 [incompleteness] match (x:T) where has(x.a0), missing(x.a1) repair set x.a1 = 1
         rule s1 [incompleteness] match (x:T) where has(x.a1), missing(x.a2) repair set x.a2 = 1
         rule s2 [incompleteness] match (x:T) where has(x.a2), missing(x.a3) repair set x.a3 = 1",
    )
    .unwrap();
    let mut g = grepair_graph::Graph::new();
    let a0 = g.attr_key("a0");
    for _ in 0..40 {
        let n = g.add_node_named("T");
        g.set_attr(n, a0, grepair_graph::Value::Int(1)).unwrap();
    }
    let mut in_memory = g.clone();
    let expected = RepairEngine::default().repair(&mut in_memory, &rules.rules);

    let mut store = DurableGraph::create_with(&dir, StoreConfig::default(), g).unwrap();
    let report = store.repair(&RepairEngine::default(), &rules.rules).unwrap();
    assert_eq!(report.strata, 3);
    assert!(report.converged);
    assert_eq!(report.ops, expected.ops);
    assert_eq!(store.last_seq(), report.ops.len() as u64);
    let committed = store.graph().dump_slots();
    assert_eq!(committed, in_memory.dump_slots());
    drop(store);
    let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.last_recovery().records_replayed, report.ops.len() as u64);
    assert_eq!(store.graph().dump_slots(), committed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replayed_graph_keeps_its_invariants() {
    // A WAL-replayed graph over a snapshot — node and edge inserts, an
    // attribute write and a node removal with its incident edge — is
    // structurally sound and equals the graph that was committed.
    let dir = tmpdir("replayed-invariants");
    let committed = {
        let mut store =
            DurableGraph::create_with(&dir, StoreConfig::default(), dirty_kg(60)).unwrap();
        let a = store.add_node("Person").unwrap();
        let b = store.add_node("City").unwrap();
        store.add_edge(a, b, "livesIn").unwrap();
        store
            .set_attr(a, "age", grepair_graph::Value::Int(30))
            .unwrap();
        store.remove_node(b).unwrap();
        store.commit().unwrap();
        store.graph().dump_slots()
    };
    let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    assert!(store.last_recovery().records_replayed > 0);
    assert_eq!(store.graph().dump_slots(), committed);
    store.graph().check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_planner_stays_warm_across_repairs() {
    // The store's owned planner carries compiled plans across repair
    // runs: the second run must plan entirely from cache.
    let dir = tmpdir("warm-planner");
    let rules: RuleSet = gold_kg_rules();
    let engine = RepairEngine::default();
    let mut store =
        DurableGraph::create_with(&dir, StoreConfig::default(), dirty_kg(80)).unwrap();
    let r1 = store.repair(&engine, &rules.rules).unwrap();
    assert!(r1.converged);
    assert!(r1.repairs_applied > 0);
    assert!(r1.pattern_compiles > 0, "cold planner compiles on run 1");

    // Run 1 verified the graph clean and nothing has changed since:
    // there is nothing to match around, so a back-to-back repair plans
    // nothing at all.
    let r = store.repair(&engine, &rules.rules).unwrap();
    assert_eq!(r.outcome, RepairOutcome::Completed);
    assert_eq!(r.violations_remaining, 0);
    assert_eq!(r.repairs_applied, 0, "fixpoint is stable");
    assert_eq!((r.pattern_compiles, r.plan_cache_hits), (0, 0));

    // One journaled ingest later, run 2 matches around the new node
    // through the anchored plans run 1 compiled for its cascades.
    let city = store.graph().try_label("City").unwrap();
    let city = store.graph().nodes_with_label(city)[0];
    let p = store.add_node("Person").unwrap();
    store.add_edge(p, city, "livesIn").unwrap();
    let r2 = store.repair(&engine, &rules.rules).unwrap();
    assert!(r2.converged);
    assert_eq!(
        r2.pattern_compiles, 0,
        "run 2 must be served from the warmed plan cache (hits: {})",
        r2.plan_cache_hits
    );
    assert!(r2.plan_cache_hits > 0);

    // The warm planner survives store reopen only as far as the store
    // object lives — a fresh open starts cold but must behave the same.
    drop(store);
    let mut store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    let r3 = store.repair(&engine, &rules.rules).unwrap();
    assert!(r3.converged);
    assert_eq!(r3.repairs_applied, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelled_durable_repair_recovers_committed_round_prefix() {
    // Cancel a durable repair at a handful of checkpoint boundaries.
    // The journal must hold exactly the committed rounds: the in-memory
    // graph at return and the reopened graph are identical, and the log
    // length equals the reported op count.
    let rules: RuleSet = gold_kg_rules();
    for cancel_at in [1u64, 2, 3, 5, 8, 13] {
        let dir = tmpdir(&format!("cancel-prefix-{cancel_at}"));
        let mut store =
            DurableGraph::create_with(&dir, StoreConfig::default(), dirty_kg(80)).unwrap();
        let budget = grepair_obs::Budget::unlimited().cancel_at_check(cancel_at);
        let engine = RepairEngine::default().with_budget(&budget);
        let report = store.repair(&engine, &rules.rules).unwrap();
        let in_memory = store.graph().dump_slots();
        let last_seq = store.last_seq();
        assert_eq!(
            last_seq,
            report.ops.len() as u64,
            "cancel_at {cancel_at}: journal length == reported ops"
        );
        drop(store);

        let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            store.graph().dump_slots(),
            in_memory,
            "cancel_at {cancel_at}: outcome {:?}: reopened state must equal \
             the committed-round prefix the engine returned",
            report.outcome
        );
        store.graph().check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn op_budget_tripped_durable_repair_journals_whole_rounds() {
    let rules: RuleSet = gold_kg_rules();
    let dir = tmpdir("op-budget-prefix");
    let mut store =
        DurableGraph::create_with(&dir, StoreConfig::default(), dirty_kg(80)).unwrap();
    let budget = grepair_obs::Budget::unlimited().with_op_cap(3);
    let engine = RepairEngine::default().with_budget(&budget);
    let report = store.repair(&engine, &rules.rules).unwrap();
    assert_eq!(report.outcome, grepair_core::RepairOutcome::OpBudget);
    assert!(!report.ops.is_empty(), "cap of 3 lands after a round");
    let in_memory = store.graph().dump_slots();
    drop(store);
    let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.graph().dump_slots(), in_memory);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_recovery_is_side_effect_free() {
    let rules: RuleSet = gold_kg_rules();
    let dir = tmpdir("interrupted-recovery");
    let mut store =
        DurableGraph::create_with(&dir, StoreConfig::default(), dirty_kg(80)).unwrap();
    store.repair(&RepairEngine::default(), &rules.rules).unwrap();
    let committed = store.graph().dump_slots();
    drop(store);

    // A pre-cancelled budget trips at the first segment boundary.
    let cancelled = grepair_obs::Budget::unlimited();
    cancelled.cancel();
    match DurableGraph::open_on_with_budget(StdFs, &dir, StoreConfig::default(), &cancelled) {
        Err(grepair_store::StoreError::Interrupted(reason)) => {
            assert_eq!(reason, grepair_obs::TripReason::Cancelled);
        }
        Err(other) => panic!("expected Interrupted, got {other}"),
        Ok(_) => panic!("expected Interrupted, got a successful open"),
    }

    // Replay is read-only and the lock was released: a plain reopen
    // recovers everything.
    let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(store.graph().dump_slots(), committed);
    std::fs::remove_dir_all(&dir).ok();
}
