//! Persistent repair-on-ingest: a durable graph store fed by a stream of
//! edits, with incremental violation watching and durable repairs —
//! including a simulated crash and recovery between sessions.
//!
//! ```text
//! cargo run --example incremental_watch
//! ```
//!
//! The loop each "session":
//!
//! 1. open (or create) the store — recovery replays the journal;
//! 2. ingest a batch of external edits through the durable API;
//! 3. re-match only the touched neighborhoods ([`Watcher::update`]);
//! 4. repair durably ([`grepair_store::DurableGraph::repair`] journals
//!    every applied op);
//! 5. compact once the log outgrows its threshold.
//!
//! Between sessions 2 and 3 the "process" dies mid-write: garbage lands
//! on the active segment. Recovery truncates the torn tail and the graph
//! comes back exactly as last committed.

use grepair_core::{RepairEngine, RuleSet, Watcher};
use grepair_gen::gold_kg_rules;
use grepair_graph::Value;
use grepair_match::TouchSet;
use grepair_store::{DurableGraph, StoreConfig};

fn main() {
    let dir = std::env::temp_dir().join(format!("grepair-watch-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        compact_log_bytes: 1024, // compact eagerly for the demo
        ..StoreConfig::default()
    };
    let rules: RuleSet = gold_kg_rules();
    let engine = RepairEngine::default();

    // Session 1: bootstrap the store with a seed city/country skeleton.
    println!("=== session 1: bootstrap ===");
    let mut store = DurableGraph::create(&dir, config.clone()).expect("create store");
    let country = store.add_node("Country").unwrap();
    store.set_attr(country, "name", Value::from("Norway")).unwrap();
    let city = store.add_node("City").unwrap();
    store.set_attr(city, "name", Value::from("Oslo")).unwrap();
    store.add_edge(city, country, "inCountry").unwrap();
    store.commit().unwrap();
    println!(
        "seeded {} nodes / {} edges (journal seq {})",
        store.graph().num_nodes(),
        store.graph().num_edges(),
        store.last_seq()
    );

    // Session 2: ingest people with incremental watching.
    println!("\n=== session 2: repair-on-ingest ===");
    let mut watcher = Watcher::new(store.graph(), rules.rules.clone());
    for batch in 0..3 {
        let mut touched = TouchSet::default();
        for i in 0..4 {
            let person = store.add_node("Person").unwrap();
            store
                .set_attr(person, "ssn", Value::Int(1000 + batch * 10 + i))
                .unwrap();
            // Moves to Oslo but never declares citizenship — a violation
            // the incompleteness rule will repair.
            store.add_edge(person, city, "livesIn").unwrap();
            touched.insert(person);
        }
        touched.insert(city);
        let fresh = watcher.update(store.graph(), &touched);
        println!(
            "batch {batch}: ingested 4 persons, {fresh} new violations in touched neighborhood"
        );
        let report = store.repair(&engine, &rules.rules).expect("durable repair");
        println!(
            "  repaired {} violations durably (journal seq {})",
            report.repairs_applied,
            store.last_seq()
        );
        if let Some(c) = store.maybe_compact().unwrap() {
            println!("  compacted: snapshot at seq {}", c.snapshot_seq);
        }
    }
    assert_eq!(watcher.violation_count(store.graph()), 0);
    let committed = store.graph().dump_slots();
    let committed_seq = store.last_seq();
    drop(store);

    // The crash: a torn half-record on the active segment.
    println!("\n=== crash: torn record on the active segment ===");
    let (_, seg) = grepair_store::wal::list_segments(&dir).unwrap().pop().unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
    std::fs::write(&seg, &bytes).unwrap();
    println!("appended 3 garbage bytes to {}", seg.display());

    // Session 3: recovery, then business as usual.
    println!("\n=== session 3: recovery ===");
    let mut store = DurableGraph::open(&dir, config).expect("recover store");
    let r = store.last_recovery();
    println!(
        "recovered from snapshot seq {} (loaded in {:?}) + {} records replayed in {:?} \
         (truncated {} torn bytes)",
        r.snapshot_seq, r.snapshot_load, r.records_replayed, r.replay, r.torn_tail_bytes
    );
    assert_eq!(store.graph().dump_slots(), committed, "exact committed state");
    assert_eq!(store.last_seq(), committed_seq);

    // Ingest after recovery: a duplicate person, caught and merged.
    let mut watcher = Watcher::new(store.graph(), rules.rules.clone());
    let dup = store.add_node("Person").unwrap();
    store.set_attr(dup, "ssn", Value::Int(1000)).unwrap();
    store.add_edge(dup, city, "livesIn").unwrap();
    let fresh = watcher.update(store.graph(), &[dup, city].into_iter().collect());
    println!("ingested a duplicate person: {fresh} new violations");
    let report = store.repair(&engine, &rules.rules).unwrap();
    println!(
        "repaired {} violations durably (journal seq {})",
        report.repairs_applied,
        store.last_seq()
    );
    assert_eq!(watcher.violation_count(store.graph()), 0);

    let status = store.status().unwrap();
    println!("\nfinal store status:\n{status}");
    store.graph().check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    println!("\nok: repairs survived the crash; store verified.");
}
