//! End-to-end telemetry: every layer of the stack contributes spans and
//! histograms to a full `repair --store` run, and the counters the
//! observability layer reports agree with the reports they describe.
//!
//! Tracing state is process-global, so every test here serialises on one
//! mutex and works in counter/histogram *deltas* (the registry is
//! cumulative and shared with whatever ran before).

use grepair_core::{EngineConfig, RepairEngine};
use grepair_gen::{
    generate_kg, gold_kg_rules, inject_kg_noise, synthetic_rules, KgConfig, NoiseConfig,
};
use grepair_obs::TraceEvent;
use grepair_store::{DurableGraph, StoreConfig};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "grepair-telemetry-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `f` with tracing enabled and return its result plus the span
/// buffer it produced (cleared of anything buffered beforehand).
fn with_tracing<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    grepair_obs::take_events();
    grepair_obs::set_tracing(true);
    let out = f();
    grepair_obs::set_tracing(false);
    (out, grepair_obs::take_events())
}

/// The tentpole acceptance check: a full repair over a durable store
/// leaves ≥ 1 span and ≥ 1 histogram sample from every layer — engine,
/// matcher, planner, and WAL.
#[test]
fn every_layer_contributes_spans_and_histograms() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("layers");

    let (clean, refs) = generate_kg(&KgConfig::with_persons(200));
    let mut dirty = clean.clone();
    inject_kg_noise(&mut dirty, &refs, &NoiseConfig::default());
    let rules = gold_kg_rules();
    let engine = RepairEngine::default();

    let layer_histograms = [
        ("engine", "engine.rule_repair_ns"),
        ("matcher", "match.find_all_ns"),
        ("planner", "plan.compile_ns"),
        ("wal", "wal.append_ns"),
        ("wal", "store.recovery_ns"),
    ];
    let before: Vec<u64> = layer_histograms
        .iter()
        .map(|(_, n)| grepair_obs::histogram(n).count())
        .collect();

    let ((), events) = with_tracing(|| {
        let mut store = DurableGraph::create_with(&dir, StoreConfig::default(), dirty).unwrap();
        let report = store.repair(&engine, &rules.rules).unwrap();
        assert!(report.converged, "gold rules must converge");
        assert!(report.repairs_applied > 0, "noise must need repairs");
        drop(store);
        // Reopen so recovery (WAL replay) contributes too.
        let reopened = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert!(reopened.last_recovery().records_replayed > 0);
    });

    let layer_spans = [
        ("engine", "engine.repair"),
        ("engine", "engine.round"),
        ("matcher", "match.find_all"),
        ("planner", "plan.compile"),
        ("wal", "store.recovery"),
    ];
    for (layer, span) in layer_spans {
        assert!(
            events.iter().any(|e| e.ph == 'X' && e.name == span),
            "layer {layer} contributed no {span} span"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| e.ph == 'i' && e.name == "engine.outcome.completed"),
        "converged run must tag its outcome in the trace"
    );
    grepair_obs::spans_well_formed(&events).expect("trace must nest properly");

    for ((layer, name), before) in layer_histograms.iter().zip(before) {
        let after = grepair_obs::histogram(name).count();
        assert!(
            after > before,
            "layer {layer} recorded no {name} samples ({before} -> {after})"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// "Did this repair rescan the world?" is answered by always-on
/// counters (tracing off): a full seed bumps `engine.seed_full` and one
/// `engine.rule_scans` per rule; a delta seed bumps `engine.seed_delta`,
/// records its size in `engine.seed_nodes` and sweeps nothing.
#[test]
fn seed_counters_tell_a_rescan_from_a_delta() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("seed");
    let (mut g, refs) = generate_kg(&KgConfig::with_persons(120));
    inject_kg_noise(&mut g, &refs, &NoiseConfig::default());
    let rules = gold_kg_rules().rules;
    let engine = RepairEngine::default();
    let read = || {
        let nodes = grepair_obs::histogram("engine.seed_nodes");
        [
            grepair_obs::counter("engine.seed_full").get(),
            grepair_obs::counter("engine.seed_delta").get(),
            grepair_obs::counter("engine.rule_scans").get(),
            nodes.count(),
            nodes.sum(),
        ]
    };
    let delta = |after: [u64; 5], before: [u64; 5]| std::array::from_fn(|i| after[i] - before[i]);

    let mut store = DurableGraph::create_with(&dir, StoreConfig::default(), g).unwrap();
    let t0 = read();
    assert!(store.repair(&engine, &rules).unwrap().converged);
    let t1 = read();
    assert_eq!(delta(t1, t0), [1, 0, rules.len() as u64, 0, 0], "first repair scans");

    let city = store.graph().try_label("City").unwrap();
    let city = store.graph().nodes_with_label(city)[0];
    let p = store.add_node("Person").unwrap();
    store.add_edge(p, city, "livesIn").unwrap();
    let report = store.repair(&engine, &rules).unwrap();
    assert!(report.converged && report.repairs_applied > 0);
    assert_eq!(delta(read(), t1), [0, 1, 0, 1, 2], "two touched nodes, no sweep");
    std::fs::remove_dir_all(&dir).ok();
}

/// "Did per-repair work grow with |Σ|?" is answered by the always-on
/// `engine.rematch_rules` histogram: one sample per repair the worklist
/// applies, holding how many rules the trigger index handed to
/// `find_touching`. The synthetic set's firing rules set attributes no
/// rule reads, so every sample is 0 however many rules the set has; the
/// gold KG rules feed each other, so theirs are not.
#[test]
fn rematch_rules_histogram_counts_the_rules_each_repair_enables() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (mut g, refs) = generate_kg(&KgConfig::with_persons(120));
    inject_kg_noise(&mut g, &refs, &NoiseConfig::default());
    let h = grepair_obs::histogram("engine.rematch_rules");
    let read = || [h.count(), h.sum()];
    let engine = RepairEngine::default();

    let t0 = read();
    let report = engine.repair(&mut g.clone(), &synthetic_rules(16).rules);
    assert_eq!(report.strata, 0, "cyclic set: the worklist runs");
    assert!(report.repairs_applied > 0);
    let t1 = read();
    assert_eq!(
        [t1[0] - t0[0], t1[1] - t0[1]],
        [report.repairs_applied as u64, 0],
        "one sample per repair, every one of them 0"
    );

    let report = engine.repair(&mut g, &gold_kg_rules().rules);
    assert_eq!(report.strata, 0);
    let t2 = read();
    assert_eq!(t2[0] - t1[0], report.repairs_applied as u64);
    assert!(t2[1] > t1[1], "gold repairs enable other gold rules");
}

/// Guardrail trips are telemetry-covered too: a repair cut short by an
/// expired deadline bumps `limit.deadline_trips` exactly once (the trip
/// is sticky and first-wins), emits the `limit.trip` warn event, and
/// tags the run's outcome with an `engine.outcome.deadline` instant in
/// the trace — so a truncated trace is distinguishable from a completed
/// one without out-of-band context.
#[test]
fn tripped_deadline_run_contributes_limit_counters_and_outcome_instant() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());

    let (mut g, refs) = generate_kg(&KgConfig::with_persons(150));
    inject_kg_noise(&mut g, &refs, &NoiseConfig::default());
    let rules = gold_kg_rules();

    let clock = grepair_obs::TestClock::new();
    let budget = grepair_obs::Budget::unlimited()
        .with_test_clock(&clock)
        .with_deadline(std::time::Duration::from_millis(5));
    clock.advance(std::time::Duration::from_secs(1));

    let trips = grepair_obs::counter("limit.deadline_trips");
    let trips_before = trips.get();
    let (report, events) = with_tracing(|| {
        RepairEngine::new(EngineConfig::default())
            .with_budget(&budget)
            .repair(&mut g, &rules.rules)
    });

    assert_eq!(report.outcome, grepair_core::RepairOutcome::Deadline);
    assert_eq!(
        trips.get(),
        trips_before + 1,
        "sticky trip must bump limit.deadline_trips exactly once"
    );
    assert!(
        events
            .iter()
            .any(|e| e.ph == 'i' && e.name == "engine.outcome.deadline"),
        "tripped run must tag its outcome in the trace"
    );
    grepair_obs::spans_well_formed(&events).expect("tripped trace must still nest");
}

/// The fault path is telemetry-covered too: a damaged snapshot skipped
/// during writable recovery records `store.fault`, and a degraded
/// read-only open of a mid-log-damaged store records `store.degraded`
/// plus an `store.fsck` span and histogram sample from its dry-run
/// recovery walk.
#[test]
fn fault_path_contributes_counters_and_spans() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("faults");

    let mut store = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
    let mut nodes = Vec::new();
    for _ in 0..50 {
        nodes.push(store.add_node("Person").unwrap());
    }
    store.commit().unwrap();
    store.compact().unwrap();
    for w in nodes.windows(2) {
        store.add_edge(w[0], w[1], "knows").unwrap();
    }
    store.commit().unwrap();
    store.compact().unwrap(); // second snapshot; the first stays retained
    for n in &nodes {
        store
            .set_attr(*n, "checked", grepair_graph::Value::Int(1))
            .unwrap();
    }
    store.commit().unwrap();
    let full_seq = store.last_seq();
    drop(store);

    let fault_ctr = grepair_obs::counter("store.fault");
    let degraded_ctr = grepair_obs::counter("store.degraded");
    let fsck_runs = grepair_obs::counter("store.fsck_runs");
    let fsck_hist = grepair_obs::histogram("store.fsck_ns");

    // Damage the newest snapshot: writable recovery skips it, falls
    // back to the older one, and records the skip as a store.fault.
    let (_, snap) = grepair_store::snapshot::list_snapshots(&dir)
        .unwrap()
        .pop()
        .unwrap();
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, bytes).unwrap();

    let faults_before = fault_ctr.get();
    let reopened = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(reopened.last_recovery().snapshots_skipped, 1);
    assert_eq!(reopened.last_seq(), full_seq, "log must cover the damage");
    assert!(
        fault_ctr.get() > faults_before,
        "skipped snapshot must record store.fault"
    );
    drop(reopened);

    // Mid-log damage (a flipped byte with CRC-valid frames after it):
    // writable open refuses; the degraded read-only open serves a prefix
    // and emits store.degraded plus the fsck span + histogram sample.
    let (_, seg) = grepair_store::wal::list_segments(&dir).unwrap().pop().unwrap();
    let clean = std::fs::read(&seg).unwrap();
    let header = grepair_store::wal::SEGMENT_HEADER_LEN as usize;
    let mut bytes = clean.clone();
    bytes[header + 10] ^= 0xFF;
    bytes.extend_from_slice(&clean[header..]);
    std::fs::write(&seg, bytes).unwrap();
    assert!(DurableGraph::open(&dir, StoreConfig::default()).is_err());

    let (degraded_before, runs_before, hist_before) =
        (degraded_ctr.get(), fsck_runs.get(), fsck_hist.count());
    let (ro, events) = with_tracing(|| grepair_store::ReadOnlyStore::open(&dir).unwrap());
    assert!(ro.degraded());
    assert!(ro.last_seq() < full_seq, "damage must cost some tail records");
    assert!(!ro.issues().is_empty());
    assert!(
        degraded_ctr.get() > degraded_before,
        "degraded open must record store.degraded"
    );
    assert!(fsck_runs.get() > runs_before);
    assert!(fsck_hist.count() > hist_before);
    assert!(
        events.iter().any(|e| e.ph == 'X' && e.name == "store.fsck"),
        "degraded open contributed no store.fsck span"
    );
    grepair_obs::spans_well_formed(&events).expect("fault-path trace must nest");

    std::fs::remove_dir_all(&dir).ok();
}

/// Typed mirror of the Chrome trace schema — the derive rejects missing
/// required fields, so parsing *is* the schema check.
#[derive(serde::Deserialize)]
#[allow(non_snake_case)]
struct TraceFile {
    traceEvents: Vec<TraceRow>,
}

#[derive(serde::Deserialize)]
struct TraceRow {
    name: String,
    cat: String,
    ph: char,
    ts: f64,
    /// Complete (`X`) spans carry a duration…
    dur: Option<f64>,
    /// …instants carry a scope instead.
    s: Option<String>,
    pid: u64,
    tid: u64,
}

/// The example trace committed at `examples/trace_repair.json` (produced
/// by `grepair repair --trace` over a noisy 150-person KG) stays valid
/// Chrome trace format: loadable in `chrome://tracing` / Perfetto, spans
/// from every hot layer, proper nesting per thread.
#[test]
fn committed_example_trace_is_valid_chrome_trace() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/trace_repair.json");
    let text = std::fs::read_to_string(path).expect("examples/trace_repair.json must exist");
    let parsed: TraceFile = serde_json::from_str(&text).expect("must parse as Chrome trace");
    assert!(!parsed.traceEvents.is_empty());

    let mut spans: Vec<(u64, u64, u64)> = Vec::new(); // (tid, ts_ns, end_ns)
    for e in &parsed.traceEvents {
        assert!(!e.name.is_empty() && !e.cat.is_empty());
        assert_eq!(e.pid, 1);
        assert!(e.ts >= 0.0);
        match e.ph {
            'X' => {
                let dur = e.dur.unwrap_or_else(|| panic!("span {} missing dur", e.name));
                let ts_ns = (e.ts * 1_000.0) as u64;
                spans.push((e.tid, ts_ns, ts_ns + (dur * 1_000.0) as u64));
            }
            'i' => assert_eq!(e.s.as_deref(), Some("t"), "instant {} missing scope", e.name),
            other => panic!("unexpected phase {other:?} on {}", e.name),
        }
    }

    // Every hot layer shows up.
    let names: Vec<&str> = parsed.traceEvents.iter().map(|e| e.name.as_str()).collect();
    for span in ["engine.repair", "engine.round", "match.find_all", "plan.compile"] {
        assert!(names.contains(&span), "missing {span} in {names:?}");
    }

    // Per-tid spans nest (disjoint or strictly contained).
    spans.sort_by_key(|&(tid, ts, end)| (tid, ts, std::cmp::Reverse(end)));
    let mut stack: Vec<(u64, u64)> = Vec::new(); // (end, tid)
    for (tid, ts, end) in spans {
        while matches!(stack.last(), Some(&(top_end, top_tid)) if top_tid != tid || top_end <= ts)
        {
            stack.pop();
        }
        if let Some(&(top_end, _)) = stack.last() {
            assert!(end <= top_end, "span [{ts}, {end}) straddles parent end {top_end}");
        }
        stack.push((end, tid));
    }
}

/// WAL replay telemetry agrees with the recovery report: the
/// `wal.records_replayed` counter moves by exactly `records_replayed`,
/// and the recovery span is well-formed.
#[test]
fn wal_replay_telemetry_counts_every_replayed_record() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("replay");

    // Small segments force several files, so replay crosses segment
    // boundaries.
    let config = StoreConfig {
        segment_max_bytes: 4096,
        sync_on_commit: false,
        ..StoreConfig::default()
    };
    let mut store = DurableGraph::create(&dir, config.clone()).unwrap();
    let mut nodes = Vec::new();
    for _ in 0..300 {
        nodes.push(store.add_node("Person").unwrap());
    }
    for w in nodes.windows(2) {
        store.add_edge(w[0], w[1], "knows").unwrap();
    }
    store.commit().unwrap();
    let expected = store.last_seq();
    drop(store);
    assert!(expected >= 599, "test must generate a real log");

    let replayed_ctr = grepair_obs::counter("wal.records_replayed");
    let before = replayed_ctr.get();
    let (store, events) = with_tracing(|| DurableGraph::open(&dir, config).unwrap());
    assert_eq!(store.last_recovery().records_replayed, expected);
    assert_eq!(store.graph().nodes().count(), 300);
    assert!(
        events
            .iter()
            .any(|e| e.ph == 'X' && e.name == "store.recovery"),
        "no recovery span"
    );
    grepair_obs::spans_well_formed(&events).expect("recovery trace must nest");
    assert_eq!(replayed_ctr.get() - before, expected);

    std::fs::remove_dir_all(&dir).ok();
}

/// Every metric and span the README's taxonomy table names is emitted
/// somewhere in the source: each backticked `layer.name` in the table
/// must appear as the string literal `"layer.name"` under
/// `crates/*/src`. A name deleted from the code must leave the table.
#[test]
fn readme_metric_table_names_are_emitted() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let table: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| Layer | Spans | Metrics"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(
        !table.is_empty(),
        "README lost its span/metric taxonomy table"
    );
    let names: Vec<&str> = table
        .iter()
        .flat_map(|row| row.split('`').skip(1).step_by(2))
        .filter(|tok| {
            tok.split_once('.').is_some_and(|(layer, name)| {
                [layer, name].iter().all(|part| {
                    !part.is_empty() && part.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                })
            })
        })
        .collect();
    assert!(names.len() >= 20, "too few names parsed: {names:?}");

    let mut source = String::new();
    let mut dirs: Vec<std::path::PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .collect();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                source.push_str(&std::fs::read_to_string(&path).unwrap());
            }
        }
    }
    let missing: Vec<&&str> = names
        .iter()
        .filter(|n| !source.contains(&format!("\"{n}\"")))
        .collect();
    assert!(
        missing.is_empty(),
        "README names metrics no source emits: {missing:?}"
    );
}

/// The runtime half of the taxonomy check: after a store ingest, a
/// durable repair, an in-memory stratified repair and a `Watcher`
/// update, every counter, gauge and histogram the registry holds is
/// named in the README table — including whatever the other tests of
/// this binary registered first. A name added to the code must enter
/// the table.
#[test]
fn every_registered_metric_is_in_the_readme_table() {
    let _lock = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("registry");
    let (mut g, refs) = generate_kg(&KgConfig::with_persons(60));
    inject_kg_noise(&mut g, &refs, &NoiseConfig::default());
    let rules = gold_kg_rules().rules;
    let engine = RepairEngine::default();

    let mut store = DurableGraph::create_with(&dir, StoreConfig::default(), g.clone()).unwrap();
    let p = store.add_node("Person").unwrap();
    let c = store.add_node("City").unwrap();
    store.add_edge(p, c, "livesIn").unwrap();
    assert!(store.repair(&engine, &rules).unwrap().converged);
    drop(store);

    let cascade = grepair_core::parse_rules(
        "rule s0 [incompleteness] match (x:T) where has(x.a0), missing(x.a1) repair set x.a1 = 1
         rule s1 [incompleteness] match (x:T) where has(x.a1), missing(x.a2) repair set x.a2 = 1",
    )
    .unwrap();
    let mut chain = grepair_graph::Graph::new();
    let (t, a0) = (chain.add_node_named("T"), chain.attr_key("a0"));
    chain.set_attr(t, a0, grepair_graph::Value::Int(1)).unwrap();
    assert_eq!(engine.repair(&mut chain, &cascade).strata, 2);

    let mut watcher = grepair_core::Watcher::new(&g, rules);
    let p = g.add_node_named("Person");
    watcher.update(&g, &[p].into_iter().collect());

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let table: String = readme
        .lines()
        .skip_while(|l| !l.starts_with("| Layer | Spans | Metrics"))
        .take_while(|l| l.starts_with('|'))
        .collect();
    // One `    "name": …` line per counter, gauge and histogram.
    let snapshot = grepair_obs::snapshot_json();
    let names: Vec<&str> = snapshot
        .lines()
        .filter_map(|l| l.strip_prefix("    \""))
        .filter_map(|l| l.split_once('"').map(|(name, _)| name))
        .collect();
    assert!(names.contains(&"engine.strata") && names.contains(&"wal.append_ns"), "{names:?}");
    let undocumented: Vec<&&str> = names
        .iter()
        .filter(|name| !table.contains(&format!("`{name}`")))
        .collect();
    assert!(undocumented.is_empty(), "registered but not in the README table: {undocumented:?}");
    std::fs::remove_dir_all(&dir).ok();
}
