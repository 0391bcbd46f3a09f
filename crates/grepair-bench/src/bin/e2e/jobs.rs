//! The four jobs. Each runs once per rep under one [`Recorder`], one
//! call after the other on one thread (a closed loop with one client):
//! every library call is a span, every `Result`, every `RepairReport`
//! and every comparison counts into [`Checks`].

use crate::api::{self, Graph, GraphDoc, Grr, NodeId, RepairReport, Store, TouchSet};
use crate::inputs::{Batch, Input};
use crate::spans::{Recorder, BATCH, JOB, VERIFY};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Attempted/failed accounting behind `attempted`, `failed` and the
/// exit code.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human reading stderr.
    pub failures: Vec<String>,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Count a library call that returned a `Result`.
    pub fn call<T>(&mut self, what: &str, result: Result<T, String>) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            let msg = format!("{what}: {e}");
            self.fail(msg.clone());
            msg
        })
    }

    /// Count a correctness check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A repair must end `Completed` with nothing left to repair.
    pub fn fixpoint(&mut self, what: &str, report: &RepairReport) {
        self.expect(
            report.outcome == api::RepairOutcome::Completed && report.violations_remaining == 0,
            || {
                format!(
                    "{what}: outcome {} with {} violations remaining",
                    report.outcome, report.violations_remaining
                )
            },
        );
    }

    /// A reopened (or copied) store must hold exactly the acknowledged
    /// state.
    pub fn same_state(&mut self, what: &str, store: &Store, acked: &Acked) {
        let seq = api::store_last_seq(store);
        self.expect(seq == acked.seq, || {
            format!("{what}: last_seq {seq}, acknowledged {}", acked.seq)
        });
        let elements = api::elements(api::store_graph(store));
        self.expect(elements == acked.elements, || {
            format!(
                "{what}: {elements} elements, acknowledged {}",
                acked.elements
            )
        });
        if let Some(doc) = &acked.doc {
            self.expect(api::doc_of(api::store_graph(store)) == *doc, || {
                format!("{what}: to_doc() differs from the acknowledged state")
            });
        }
    }
}

/// The state a store acknowledged before it was closed.
pub struct Acked {
    pub seq: u64,
    pub elements: usize,
    /// Only taken in full-verification reps: `to_doc` walks the graph.
    pub doc: Option<GraphDoc>,
}

impl Acked {
    fn of(store: &Store, full: bool) -> Acked {
        let g = api::store_graph(store);
        Acked {
            seq: api::store_last_seq(store),
            elements: api::elements(g),
            doc: full.then(|| api::doc_of(g)),
        }
    }
}

/// Exact counts and sizes a rep observed, keyed by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// One rep's state.
pub struct Rep<'a> {
    pub rec: Recorder,
    pub counts: Counts,
    pub ck: &'a mut Checks,
    /// Compare whole documents (warm-up and traced reps), not just
    /// sequence numbers and element counts.
    pub full: bool,
    /// Also repair the same input in memory and compare (traced rep);
    /// gives `engine.repair_s` and `store.journal_tax_ratio` on the
    /// durable workloads.
    pub reference: bool,
}

impl<'a> Rep<'a> {
    pub fn new(ck: &'a mut Checks, full: bool, reference: bool) -> Self {
        Rep {
            rec: Recorder::new(),
            counts: Counts::new(),
            ck,
            full,
            reference,
        }
    }

    fn add(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    fn set(&mut self, name: &'static str, n: f64) {
        self.counts.insert(name, n);
    }

    /// Time a fallible library call as a span and count its outcome.
    fn call<T>(
        &mut self,
        span: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let result = self.rec.time(span, f);
        self.ck.call(span, result)
    }

    fn note_report(&mut self, what: &str, report: &RepairReport) {
        self.ck.fixpoint(what, report);
        self.add("plan.compiles", report.pattern_compiles as f64);
        self.add("plan.cache_hits", report.plan_cache_hits as f64);
        self.add("plan.replans", report.plan_replans as f64);
        self.add("engine.rounds", report.rounds as f64);
        self.add("engine.repairs_applied", report.repairs_applied as f64);
        self.add("engine.residual", report.violations_remaining as f64);
        self.set("engine.strata", report.strata as f64);
        let scheduled = self.counts.get("core.strata").copied();
        self.ck.expect(scheduled == Some(report.strata as f64), || {
            format!(
                "{what}: ran {} strata, `stratify` scheduled {scheduled:?}",
                report.strata
            )
        });
        for rule in &report.per_rule {
            self.add("engine.rule_scans", rule.scans as f64);
            self.add("engine.matches_found", rule.matches_found as f64);
        }
    }

    /// DSL parse → lint → schedule: what every job does with its rule
    /// text before the first match.
    fn prepare_rules(&mut self, dsl: &str) -> Result<Vec<Grr>, String> {
        let rules = self.call("core.dsl_parse", || api::parse_rules(dsl))?;
        let (findings, denials) = self.rec.time("core.lint", || api::lint(&rules));
        self.set("core.lint_findings", findings as f64);
        self.ck.expect(denials == 0, || {
            format!("lint denies {denials} rule(s) of a catalogue rule set")
        });
        let (strata, _fingerprint) = self
            .rec
            .time("core.schedule", || api::schedule(&rules.rules));
        self.set("core.strata", strata as f64);
        Ok(rules.rules)
    }

    /// Close a store (releases its `LOCK`).
    fn close(&mut self, store: Store) {
        self.rec.time("store.close", || drop(store));
    }

    /// Final verdict shared by all jobs: the persisted result, read back,
    /// has no violation left.
    fn expect_clean(&mut self, g: &Graph, rules: &[Grr]) {
        let left = self.rec.time("engine.count_violations", || {
            api::count_violations(g, rules)
        });
        self.ck
            .expect(left == 0, || format!("{left} violations after read-back"));
    }

    /// Record what the job left on disk (or in its export) per live element.
    fn note_persisted(&mut self, bytes: u64, elements: usize) {
        self.set("bench.persisted_bytes", bytes as f64);
        self.set("bench.live_elements", elements as f64);
    }
}

/// A store directory's data files: everything but the lock, which is
/// process state.
fn data_files(dir: &Path) -> Result<Vec<std::fs::DirEntry>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_name() != api::STORE_LOCK_FILE {
            files.push(entry);
        }
    }
    Ok(files)
}

/// Bytes a store directory holds.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for file in data_files(dir)? {
        total += file.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

/// Copy a store directory's data files into a fresh `to`.
pub fn copy_store_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for file in data_files(from)? {
        std::fs::copy(file.path(), to.join(file.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Journal every node and edge of `doc` through the durable API.
/// Returns how many records that was.
fn ingest_doc(store: &mut Store, doc: GraphDoc) -> Result<u64, String> {
    let records = (doc.nodes.len() + doc.edges.len()) as u64;
    let mut ids: Vec<Option<NodeId>> = Vec::new();
    for node in doc.nodes {
        let attrs: Vec<_> = node.attrs.into_iter().collect();
        let id = api::store_add_node(store, &node.label, &attrs)?;
        let slot = node.id as usize;
        if ids.len() <= slot {
            ids.resize(slot + 1, None);
        }
        ids[slot] = Some(id);
    }
    let resolve = |handle: u32| {
        ids.get(handle as usize)
            .copied()
            .flatten()
            .ok_or_else(|| format!("edge names unknown node {handle}"))
    };
    for edge in &doc.edges {
        api::store_add_edge(store, resolve(edge.src)?, resolve(edge.dst)?, &edge.label)?;
    }
    Ok(records)
}

/// `kg-bulk-durable`: text → store (journaled ingest) → commit → reopen
/// by WAL replay → rules → durable repair → compact → reopen from the
/// snapshot → verify clean.
fn kg_bulk_durable(
    rep: &mut Rep<'_>,
    text: &str,
    rules_dsl: &str,
    dir: &Path,
) -> Result<(Vec<Grr>, Acked), String> {
    let doc = rep.call("graph.parse_text", || api::parse_graph_text(text))?;
    rep.set("graph.elements", (doc.nodes.len() + doc.edges.len()) as f64);
    let mut store = rep.call("store.create", || api::store_create(dir))?;
    let ingested = rep.call("store.ingest", || ingest_doc(&mut store, doc))?;
    rep.ck.attempted += ingested - 1;
    rep.set("bench.ingested_records", ingested as f64);
    rep.call("store.commit", || api::store_commit(&mut store))?;
    let acked = rep.rec.time(VERIFY, || Acked::of(&store, rep.full));
    rep.ck.expect(acked.seq == ingested, || {
        format!("{ingested} records ingested but last_seq is {}", acked.seq)
    });
    rep.close(store);

    let (mut store, replayed) = rep.call("store.open_replay", || api::store_open(dir))?;
    rep.add("store.records_replayed", replayed as f64);
    rep.rec.time(VERIFY, || {
        rep.ck.same_state("open by WAL replay", &store, &acked)
    });
    drop(acked);

    let rules = rep.prepare_rules(rules_dsl)?;
    let report = rep.call("store.repair", || api::store_repair(&mut store, &rules))?;
    rep.note_report("DurableGraph::repair", &report);
    drop(report);
    let before_compact = rep.rec.time(VERIFY, || api::store_status(&store));
    let before_compact = rep.ck.call("store.status", before_compact)?;
    let compaction = rep.call("store.compact", || api::store_compact(&mut store))?;

    let verify = rep.rec.enter(VERIFY);
    let status = rep.ck.call("store.status", api::store_status(&store))?;
    // The explicit commit after ingest, and the one `repair` ends with.
    rep.set("store.commits", 2.0);
    rep.set("store.records", status.last_seq as f64);
    rep.set("store.wal_bytes", before_compact.segment_bytes as f64);
    rep.set("store.compactions", 1.0);
    rep.set("store.snapshot_bytes", status.snapshot_bytes as f64);
    rep.set("store.segments_retired", compaction.segments_retired as f64);
    let persisted = rep.ck.call("dir_bytes", dir_bytes(dir))?;
    rep.note_persisted(persisted, status.live_nodes + status.live_edges);
    let acked = Acked::of(&store, rep.full);
    rep.rec.exit(verify);
    rep.close(store);

    let (store, replayed) = rep.call("store.open_snapshot", || api::store_open(dir))?;
    rep.add("store.records_replayed", replayed as f64);
    rep.rec.time(VERIFY, || {
        rep.ck.same_state("open from snapshot", &store, &acked)
    });
    rep.expect_clean(api::store_graph(&store), &rules);
    rep.close(store);
    Ok((rules, acked))
}

/// Repair the bulk input without a store and compare with what the
/// store ended at.
fn reference_bulk(
    rep: &mut Rep<'_>,
    text: &str,
    rules: &[Grr],
    acked: &Acked,
) -> Result<(), String> {
    let mut g = api::build_graph(api::parse_graph_text(text)?)?;
    let started = Instant::now();
    let report = api::repair_in_memory(&mut g, rules);
    rep.set("ref.engine_repair_s", started.elapsed().as_secs_f64());
    rep.ck.fixpoint("reference in-memory repair", &report);
    rep.ck.expect(Some(api::doc_of(&g)) == acked.doc, || {
        "in-memory repair of the same input differs from the store's graph".to_owned()
    });
    Ok(())
}

/// The in-memory jobs (`kg-manyrules-inmem`, `cascade-rounds-inmem`),
/// i.e. the CLI's `repair -g -o` path: text → graph → rules → check
/// sweep → repair → export → read the export back → verify clean.
fn repair_in_memory(rep: &mut Rep<'_>, text: &str, rules_dsl: &str) -> Result<(), String> {
    let doc = rep.call("graph.parse_text", || api::parse_graph_text(text))?;
    rep.set("graph.elements", (doc.nodes.len() + doc.edges.len()) as f64);
    let mut g = rep.call("graph.build", || api::build_graph(doc))?;
    let rules = rep.prepare_rules(rules_dsl)?;
    let matches = rep.rec.time("match.check", || api::check_sweep(&g, &rules));
    rep.set("match.matches", matches as f64);
    let report = rep
        .rec
        .time("engine.repair", || api::repair_in_memory(&mut g, &rules));
    rep.note_report("RepairEngine::repair", &report);
    drop(report);
    let exported = rep.rec.time("graph.export", || api::export_text(&g));
    rep.note_persisted(exported.len() as u64, api::elements(&g));

    let reloaded = rep.call("graph.reload", || {
        api::parse_graph_text(&exported).and_then(api::build_graph)
    })?;
    rep.rec.time(VERIFY, || {
        rep.ck
            .expect(api::elements(&reloaded) == api::elements(&g), || {
                "export read back with a different element count".to_owned()
            });
        if rep.full {
            rep.ck
                .expect(api::doc_of(&reloaded) == api::doc_of(&g), || {
                    "export read back as a different graph".to_owned()
                });
        }
    });
    rep.expect_clean(&reloaded, &rules);
    Ok(())
}

/// Apply one batch through the durable API; returns the touched nodes
/// (new accounts and whom they follow) and the number of journaled calls.
fn ingest_batch(store: &mut Store, batch: &Batch) -> Result<(TouchSet, u64), String> {
    let mut touched = TouchSet::default();
    let mut calls = 0;
    for account in batch {
        let id = api::store_add_node(store, "Account", &account.attrs)?;
        touched.insert(id);
        for &target in &account.follows {
            api::store_add_edge(store, id, target, "follows")?;
            touched.insert(target);
        }
        if account.self_follow {
            api::store_add_edge(store, id, id, "follows")?;
        }
        calls += 1 + account.follows.len() as u64 + account.self_follow as u64;
    }
    Ok((touched, calls))
}

/// In-memory twin of [`ingest_batch`] for the reference run.
fn ingest_batch_in_memory(g: &mut Graph, batch: &Batch) -> Result<(), String> {
    for account in batch {
        let id = api::graph_add_node(g, "Account", &account.attrs);
        for &target in &account.follows {
            api::graph_add_edge(g, id, target, "follows")?;
        }
        if account.self_follow {
            api::graph_add_edge(g, id, id, "follows")?;
        }
    }
    Ok(())
}

/// `social-stream-durable`: open the clean store → watch → per batch
/// { journaled ingest → `Watcher::update` → durable repair →
/// `maybe_compact` } → commit → reopen → verify clean.
fn social_stream_durable(
    rep: &mut Rep<'_>,
    fixture_seq: u64,
    rules_dsl: &str,
    batches: &[Batch],
    dir: &Path,
) -> Result<(Vec<Grr>, Acked), String> {
    let (mut store, replayed) = rep.call("store.open_snapshot", || api::store_open(dir))?;
    rep.add("store.records_replayed", replayed as f64);
    rep.ck
        .expect(api::store_last_seq(&store) == fixture_seq, || {
            format!(
                "fixture closed at seq {fixture_seq}, opened at {}",
                api::store_last_seq(&store)
            )
        });
    rep.set(
        "graph.elements",
        api::elements(api::store_graph(&store)) as f64,
    );
    let rules = rep.prepare_rules(rules_dsl)?;
    let mut watcher = rep.rec.time("watch.new", || {
        api::watcher_new(api::store_graph(&store), &rules)
    });

    let mut stats_epoch = api::store_stats_epoch(&store);
    for (i, batch) in batches.iter().enumerate() {
        let span = rep.rec.enter(BATCH);
        let (touched, calls) = rep.call("store.ingest", || ingest_batch(&mut store, batch))?;
        rep.ck.attempted += calls - 1;
        rep.add("bench.ingested_records", calls as f64);
        let fresh = rep.rec.time("watch.update", || {
            api::watcher_update(&mut watcher, api::store_graph(&store), &touched)
        });
        let report = rep.call("store.repair", || api::store_repair(&mut store, &rules))?;
        let compacted = rep.call("store.maybe_compact", || {
            api::store_maybe_compact(&mut store)
        })?;
        rep.rec.exit(span);

        rep.add("watch.fresh_violations", fresh as f64);
        rep.add("store.compactions", compacted.is_some() as u8 as f64);
        rep.note_report("DurableGraph::repair (batch)", &report);
        // The store's planner is warm after the first batch: later ones
        // must reuse its plans, and may compile only when the planner
        // refreshed its statistics (it does once the graph has drifted
        // 10% from them, which drops the cached plans).
        let epoch = api::store_stats_epoch(&store);
        if i > 0 {
            let warm = report.plan_cache_hits > 0
                && (report.pattern_compiles == 0 || epoch != stats_epoch);
            rep.ck.expect(warm, || {
                format!(
                    "batch {i}: {} plan-cache hits, {} compiles on a warm planner",
                    report.plan_cache_hits, report.pattern_compiles
                )
            });
        }
        stats_epoch = epoch;
    }
    rep.call("store.commit", || api::store_commit(&mut store))?;

    let verify = rep.rec.enter(VERIFY);
    let status = rep.ck.call("store.status", api::store_status(&store))?;
    rep.set("store.commits", (batches.len() + 1) as f64);
    rep.set("store.records", (status.last_seq - fixture_seq) as f64);
    rep.set("store.wal_bytes", status.segment_bytes as f64);
    rep.set("store.snapshot_bytes", status.snapshot_bytes as f64);
    let persisted = rep.ck.call("dir_bytes", dir_bytes(dir))?;
    rep.note_persisted(persisted, status.live_nodes + status.live_edges);
    let acked = Acked::of(&store, rep.full);
    if rep.full {
        // Acknowledged-write check: the bytes on disk at this instant,
        // copied elsewhere and opened, are the acknowledged state. This
        // shows commit wrote everything it acknowledged — not that the
        // bytes survive power loss (the OS cache is intact here).
        let copy = dir.with_extension("acked-copy");
        rep.ck.call("copy store", copy_store_dir(dir, &copy))?;
        let (copied, _) = rep.ck.call("open copy", api::store_open(&copy))?;
        rep.ck
            .same_state("copy of the acknowledged bytes", &copied, &acked);
        drop(copied);
        let _ = std::fs::remove_dir_all(&copy);
    }
    rep.rec.exit(verify);
    rep.close(store);

    let (store, replayed) = rep.call("store.open_snapshot", || api::store_open(dir))?;
    rep.add("store.records_replayed", replayed as f64);
    rep.rec.time(VERIFY, || {
        rep.ck.same_state("open after the stream", &store, &acked)
    });
    rep.expect_clean(api::store_graph(&store), &rules);
    rep.close(store);
    Ok((rules, acked))
}

/// Run the same stream against a plain graph and compare with what the
/// store ended at.
fn reference_stream(
    rep: &mut Rep<'_>,
    fixture: &Path,
    batches: &[Batch],
    rules: &[Grr],
    acked: &Acked,
    scratch: &Path,
) -> Result<(), String> {
    copy_store_dir(fixture, scratch)?;
    let mut g = api::store_into_graph(api::store_open(scratch)?.0);
    let _ = std::fs::remove_dir_all(scratch);
    let mut repair_s = 0.0;
    for batch in batches {
        ingest_batch_in_memory(&mut g, batch)?;
        let started = Instant::now();
        let report = api::repair_in_memory(&mut g, rules);
        repair_s += started.elapsed().as_secs_f64();
        rep.ck
            .fixpoint("reference in-memory repair (batch)", &report);
    }
    rep.set("ref.engine_repair_s", repair_s);
    rep.ck.expect(Some(api::doc_of(&g)) == acked.doc, || {
        "in-memory run of the same stream differs from the store's graph".to_owned()
    });
    Ok(())
}

/// Run one rep of the job `input` describes under the [`JOB`] span, then
/// — outside it — the in-memory reference when the rep asks for one.
/// `dir` is a fresh path the rep may create a store at.
pub fn run(rep: &mut Rep<'_>, input: &Input, dir: &Path) -> Result<(), String> {
    match input {
        Input::InMemory {
            graph_text,
            rules_dsl,
        } => {
            let job = rep.rec.enter(JOB);
            repair_in_memory(rep, graph_text, rules_dsl)?;
            rep.rec.exit(job);
        }
        Input::Bulk {
            graph_text,
            rules_dsl,
        } => {
            let job = rep.rec.enter(JOB);
            let (rules, acked) = kg_bulk_durable(rep, graph_text, rules_dsl, dir)?;
            rep.rec.exit(job);
            if rep.reference {
                reference_bulk(rep, graph_text, &rules, &acked)?;
            }
        }
        Input::Stream {
            fixture,
            fixture_seq,
            rules_dsl,
            batches,
        } => {
            copy_store_dir(fixture, dir)?;
            let job = rep.rec.enter(JOB);
            let (rules, acked) = social_stream_durable(rep, *fixture_seq, rules_dsl, batches, dir)?;
            rep.rec.exit(job);
            if rep.reference {
                let scratch = dir.with_extension("reference");
                reference_stream(rep, fixture, batches, &rules, &acked, &scratch)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_last_seq_is_a_failed_check() {
        let dir = std::env::temp_dir().join(format!("grepair-e2e-seq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = api::store_create(&dir).unwrap();
        api::store_add_node(&mut store, "Account", &[]).unwrap();
        api::store_commit(&mut store).unwrap();
        let mut acked = Acked::of(&store, true);
        drop(store);

        let (store, _) = api::store_open(&dir).unwrap();
        let mut ck = Checks::default();
        ck.same_state("reopen", &store, &acked);
        assert_eq!((ck.attempted, ck.failed), (3, 0));

        acked.seq += 1;
        ck.same_state("reopen", &store, &acked);
        assert_eq!(ck.failed, 1);
        assert!(
            ck.failures[0].contains("last_seq 1, acknowledged 2"),
            "{:?}",
            ck.failures
        );
        // `main` exits non-zero on exactly this condition.
        let outcome = crate::report::Outcome {
            timed_job_s: Vec::new(),
            host_steal_share: 0.0,
            end_to_end: Vec::new(),
            per_layer: None,
            attempted: ck.attempted,
            failed: ck.failed,
            failures: ck.failures,
        };
        assert!(!outcome.correct());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
