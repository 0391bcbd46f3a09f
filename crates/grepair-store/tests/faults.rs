//! Deterministic fault injection and crash-point exploration.
//!
//! The centerpiece walks a scripted mutation/commit/compact sequence
//! over the in-memory [`FaultyFs`] backend and simulates a crash at
//! **every** file-operation index along it: operation `k` and everything
//! after it fail, un-synced writes and un-synced directory entries are
//! dropped, the surviving (durable) image is materialized to a real
//! directory and reopened with the production [`StdFs`] backend. Every
//! such recovery must yield a graph equal to the state after some prefix
//! of the successfully applied mutations, must never lose a commit that
//! was acknowledged before the crash, and must never panic — damage
//! surfaces only as typed [`StoreError`]s.
//!
//! Around it: fsync failures must poison the store (fsyncgate),
//! failed or ENOSPC-torn journal writes must poison mutators while the
//! valid prefix stays committable, transient interruptions must be
//! retried away, the `LOCK` file must keep second writers out, and
//! [`ReadOnlyStore`] must serve a prefix of a store too damaged for a
//! writable open.

use grepair_graph::{NodeId, SlotDump, Value};
use grepair_store::{
    DurableGraph, FaultOp, FaultOpCounts, FaultyFs, InjectedError, ReadOnlyStore, StoreConfig,
    StoreError,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "grepair-faults-{tag}-{}-{:?}-{n}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_config() -> StoreConfig {
    StoreConfig {
        segment_max_bytes: 160, // rotate every few records
        compact_log_bytes: u64::MAX,
        keep_snapshots: 2,
        sync_on_commit: true,
    }
}

/// What the script observed: the graph after every successfully applied
/// mutation (keyed by its sequence number) and the highest sequence an
/// acknowledged `commit` covered.
#[derive(Default)]
struct Trace {
    dumps: BTreeMap<u64, SlotDump>,
    acked: u64,
}

impl Trace {
    fn record(&mut self, s: &DurableGraph<FaultyFs>) {
        self.dumps.insert(s.last_seq(), s.graph().dump_slots());
    }
}

/// The scripted sequence: enough mutations to rotate segments several
/// times, two compactions (snapshot + retirement), interleaved commits.
/// Every step tolerates failure — after the simulated crash point each
/// operation returns a typed error, and the script just carries on, the
/// way exploration requires.
fn run_script(fs: &FaultyFs, dir: &Path) -> Trace {
    let mut trace = Trace::default();
    let Ok(mut s) = DurableGraph::create_on(fs.clone(), dir, small_config()) else {
        return trace; // crash before the store durably existed
    };
    trace.record(&s);
    let mut nodes: Vec<NodeId> = Vec::new();
    for i in 0..5 {
        if let Ok(n) = s.add_node(&format!("P{i}")) {
            nodes.push(n);
            trace.record(&s);
        }
    }
    if s.commit().is_ok() {
        trace.acked = s.last_seq();
    }
    for w in nodes.windows(2) {
        if s.add_edge(w[0], w[1], "knows").is_ok() {
            trace.record(&s);
        }
    }
    if s.commit().is_ok() {
        trace.acked = s.last_seq();
    }
    let _ = s.compact();
    if let (Some(&first), Some(&last)) = (nodes.first(), nodes.last()) {
        if s.set_attr(first, "name", Value::from("zero")).is_ok() {
            trace.record(&s);
        }
        if first != last && s.remove_node(last).is_ok() {
            trace.record(&s);
        }
    }
    if s.commit().is_ok() {
        trace.acked = s.last_seq();
    }
    let _ = s.compact();
    if s.add_node("Late").is_ok() {
        trace.record(&s);
    }
    if s.commit().is_ok() {
        trace.acked = s.last_seq();
    }
    trace
}

/// Materialize the durable (crash-surviving) image and recover it with
/// the real backend, asserting the store's whole crash contract.
fn assert_recovers_a_prefix(fs: &FaultyFs, trace: &Trace, label: &str) {
    let target = tmpdir("image");
    fs.materialize_durable(&target).unwrap();
    // The crashed process is dead by construction; its LOCK (if the
    // name ever became durable) is stale. Staleness detection is pid
    // and boot-id based, which a same-process test cannot exercise, so
    // the harness removes the file the way a stale-lock steal would.
    let _ = std::fs::remove_file(target.join("LOCK"));

    match DurableGraph::open(&target, small_config()) {
        Ok(s) => {
            let seq = s.last_seq();
            assert!(
                seq >= trace.acked,
                "{label}: acknowledged commit lost — recovered seq {seq} < acked {}",
                trace.acked
            );
            let expect = trace.dumps.get(&seq).unwrap_or_else(|| {
                panic!("{label}: recovered seq {seq} matches no applied-mutation state")
            });
            assert_eq!(
                &s.graph().dump_slots(),
                expect,
                "{label}: recovered graph is not the prefix state at seq {seq}"
            );
            s.graph().check_invariants().unwrap();
        }
        Err(StoreError::NotAStore(_)) => {
            // Legal only if the crash predates the store's first durable
            // directory sync — nothing was ever acknowledged.
            assert_eq!(trace.acked, 0, "{label}: acked commits but no store on disk");
            assert!(
                trace.dumps.is_empty(),
                "{label}: store creation returned Ok but nothing is durable"
            );
        }
        Err(e) => panic!("{label}: recovery failed on a crash image: {e}"),
    }
    std::fs::remove_dir_all(&target).ok();
}

/// Crash-point exploration: simulate a clean-cut crash (no torn write)
/// at every file-operation index of the scripted run.
#[test]
fn crash_at_every_operation_recovers_a_committed_prefix() {
    let vdir = PathBuf::from("/store");
    // Clean run to count the injection points.
    let clean = FaultyFs::new();
    let clean_trace = run_script(&clean, &vdir);
    assert!(clean_trace.acked > 0, "clean run must acknowledge commits");
    assert_recovers_a_prefix(&clean, &clean_trace, "clean");
    let total_ops = clean.ops();
    assert!(total_ops > 40, "script too small to be interesting: {total_ops}");
    let counts = clean.op_counts();
    assert!(counts.syncs > 0 && counts.renames > 0 && counts.dir_syncs > 0);

    for crash_at in 0..total_ops {
        let fs = FaultyFs::new();
        fs.set_crash_point(crash_at);
        let trace = run_script(&fs, &vdir);
        assert_recovers_a_prefix(&fs, &trace, &format!("crash at op {crash_at}"));
    }
}

/// Same exploration with the crash *tearing* the in-flight write: a few
/// bytes of the buffer land before everything goes dark. Recovery must
/// treat the partial frame as a torn tail, never as data.
#[test]
fn torn_write_crash_at_every_operation_recovers_a_committed_prefix() {
    let vdir = PathBuf::from("/store");
    let clean = FaultyFs::new();
    run_script(&clean, &vdir);
    let total_ops = clean.ops();

    for keep in [1usize, 9] {
        for crash_at in 0..total_ops {
            let fs = FaultyFs::new();
            fs.set_torn_crash_point(crash_at, keep);
            let trace = run_script(&fs, &vdir);
            assert_recovers_a_prefix(
                &fs,
                &trace,
                &format!("torn({keep}) crash at op {crash_at}"),
            );
        }
    }
}

/// Recovery reads and never writes: a writable open of the script's
/// store creates and writes only its `LOCK`, reopens the active segment
/// for appending, and on drop removes the `LOCK` — nothing else.
#[test]
fn writable_open_writes_only_its_lock() {
    let vdir = PathBuf::from("/store");
    let fs = FaultyFs::new();
    let trace = run_script(&fs, &vdir);
    let before = fs.op_counts();
    let s = DurableGraph::open_on(fs.clone(), &vdir, small_config()).unwrap();
    assert_eq!(s.last_seq(), trace.acked);
    drop(s);
    assert_eq!(
        fs.op_counts(),
        FaultOpCounts {
            creates: before.creates + 1,
            opens: before.opens + 1,
            writes: before.writes + 1,
            removes: before.removes + 1,
            ..before
        }
    );
}

/// fsyncgate: a failed commit fsync must poison the store hard — no
/// retrying the sync, no further mutations, no further commits — while
/// reopening the directory recovers what truly landed.
#[test]
fn failed_commit_fsync_poisons_against_retry() {
    let vdir = PathBuf::from("/store");
    let fs = FaultyFs::new();
    let mut s = DurableGraph::create_on(fs.clone(), &vdir, small_config()).unwrap();
    let n = s.add_node("P").unwrap();
    s.commit().unwrap();

    s.add_node("Q").unwrap();
    fs.inject(FaultOp::Sync, 0, InjectedError::Eio);
    let err = s.commit().unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "typed io error: {err}");
    assert!(s.is_poisoned());
    // Retrying the commit must refuse — the kernel may have dropped the
    // dirty pages while clearing the error, so a second fsync could
    // "succeed" with the data gone.
    assert!(matches!(s.commit(), Err(StoreError::Poisoned)));
    assert!(matches!(s.add_node("R"), Err(StoreError::Poisoned)));
    assert!(matches!(s.set_attr(n, "k", Value::Int(1)), Err(StoreError::Poisoned)));
    assert!(matches!(s.compact(), Err(StoreError::Poisoned)));
    drop(s);

    // Reopen over the same (healthy again) backend: recovery re-reads
    // the log and serves whatever is actually there, unpoisoned.
    let s = DurableGraph::open_on(fs, &vdir, small_config()).unwrap();
    assert!(!s.is_poisoned());
    s.graph().check_invariants().unwrap();
}

/// ENOSPC tearing the write that flushes journaled records: the call
/// that flushed (here `commit`) reports a typed error and poisons
/// further mutation, but committing the valid prefix — everything
/// before the torn write — stays allowed, and recovery discards the
/// partial frame.
#[test]
fn enospc_torn_append_poisons_mutators_but_prefix_commits() {
    let vdir = PathBuf::from("/store");
    let fs = FaultyFs::new();
    let mut s = DurableGraph::create_on(fs.clone(), &vdir, small_config()).unwrap();
    s.add_node("P").unwrap();
    s.commit().unwrap();
    let good_seq = s.last_seq();
    let durable = s.graph().dump_slots();

    // Q is journaled in memory; the write that flushes it tears.
    s.add_node("Q").unwrap();
    fs.inject_torn_write(0, 3, InjectedError::Enospc);
    let err = s.commit().unwrap_err();
    match &err {
        StoreError::Io(e) => assert_eq!(e.raw_os_error(), Some(28), "{e}"),
        other => panic!("expected Io(ENOSPC), got {other}"),
    }
    assert!(s.is_poisoned());
    assert!(matches!(s.add_node("R"), Err(StoreError::Poisoned)));
    // An append-poisoned store may still fsync its valid journaled
    // prefix (that is safe — the in-memory drift is never journaled).
    s.commit().unwrap();
    drop(s);

    let s = DurableGraph::open_on(fs, &vdir, small_config()).unwrap();
    assert_eq!(s.last_seq(), good_seq, "torn frame must not replay");
    assert_eq!(s.graph().dump_slots(), durable);
    assert!(
        s.last_recovery().torn_tail_bytes > 0,
        "the partial ENOSPC frame is crash residue"
    );
}

/// Mutators buffer their records; the one whose record pushes the
/// buffer past its flush threshold issues the write. When that write
/// fails, the mutator reports it and the store is poisoned; committing
/// the prefix already in the file stays allowed, the writer never
/// writes again — not even when the store is dropped — and a reopen
/// serves exactly the last commit.
#[test]
fn failed_buffer_flush_poisons_and_never_writes_again() {
    let vdir = PathBuf::from("/store");
    let fs = FaultyFs::new();
    let config = StoreConfig {
        segment_max_bytes: 1 << 30, // no rotation: only the buffer flushes
        ..small_config()
    };
    let mut s = DurableGraph::create_on(fs.clone(), &vdir, config.clone()).unwrap();
    s.add_node("P").unwrap();
    s.commit().unwrap();
    let committed_seq = s.last_seq();
    let committed = s.graph().dump_slots();

    let writes_before = fs.op_counts().writes;
    fs.inject(FaultOp::Write, 0, InjectedError::Eio);
    let bio = Value::from("x".repeat(4096));
    let mut buffered = 0;
    let err = loop {
        match s.add_node_with_attrs("Q", &[("bio".to_owned(), bio.clone())]) {
            Ok(_) => buffered += 1,
            Err(e) => break e,
        }
        assert!(buffered < 1000, "the buffer never flushed");
    };
    assert!(
        buffered > 1,
        "several mutations were buffered first: {buffered}"
    );
    assert!(
        matches!(&err, StoreError::Io(e) if e.raw_os_error() == Some(5)),
        "{err}"
    );
    assert_eq!(
        fs.op_counts().writes,
        writes_before + 1,
        "one write: the failed flush"
    );
    assert!(s.is_poisoned());
    assert!(matches!(s.add_node("R"), Err(StoreError::Poisoned)));
    assert!(matches!(s.compact(), Err(StoreError::Poisoned)));
    s.commit().unwrap();
    drop(s);
    assert_eq!(
        fs.op_counts().writes,
        writes_before + 1,
        "nothing written after the failed flush, drop included"
    );

    let s = DurableGraph::open_on(fs, &vdir, config).unwrap();
    assert_eq!(s.last_seq(), committed_seq);
    assert_eq!(s.graph().dump_slots(), committed);
    assert_eq!(s.last_recovery().torn_tail_bytes, 0);
}

/// Transient `EINTR`-class failures on retryable operations (here: the
/// append re-open during recovery) are absorbed by bounded retry and
/// recorded on the `store.retry` counter.
#[test]
fn transient_interruption_on_open_is_retried_away() {
    let vdir = PathBuf::from("/store");
    let fs = FaultyFs::new();
    let mut s = DurableGraph::create_on(fs.clone(), &vdir, small_config()).unwrap();
    s.add_node("P").unwrap();
    s.commit().unwrap();
    drop(s);

    let before = grepair_obs::counter("store.retry").get();
    fs.inject(FaultOp::Open, 0, InjectedError::Interrupted);
    let s = DurableGraph::open_on(fs, &vdir, small_config()).unwrap();
    assert_eq!(s.graph().num_nodes(), 1);
    assert!(
        grepair_obs::counter("store.retry").get() > before,
        "the retry must be visible in telemetry"
    );
}

/// The `LOCK` file enforces single-writer: a second writable open fails
/// with a typed `Locked` error naming the live holder, while read-only
/// opens pass, and the lock dies with the holder.
#[test]
fn live_lock_refuses_second_writer_but_not_readers() {
    let dir = tmpdir("lock");
    let mut holder = DurableGraph::create(&dir, small_config()).unwrap();
    holder.add_node("P").unwrap();
    holder.commit().unwrap();

    match DurableGraph::open(&dir, small_config()) {
        Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
        Err(other) => panic!("second writer must see Locked, got {other}"),
        Ok(_) => panic!("second writer must see Locked, got a store"),
    }
    // Read-only opens take no lock — they work beside the live writer.
    let ro = ReadOnlyStore::open(&dir).unwrap();
    assert_eq!(ro.graph().num_nodes(), 1);
    assert!(!ro.degraded());

    drop(holder); // releases the lock
    let s = DurableGraph::open(&dir, small_config()).unwrap();
    assert_eq!(s.graph().num_nodes(), 1);
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

/// A store with mid-log damage refuses a writable open but serves its
/// longest consistent prefix through the degraded read-only path.
#[test]
fn read_only_open_serves_prefix_of_damaged_store() {
    let dir = tmpdir("degraded");
    let mut dumps: BTreeMap<u64, SlotDump> = BTreeMap::new();
    let mut s = DurableGraph::create(&dir, small_config()).unwrap();
    dumps.insert(0, s.graph().dump_slots());
    for i in 0..20 {
        s.add_node(&format!("P{i}")).unwrap();
        dumps.insert(s.last_seq(), s.graph().dump_slots());
    }
    s.commit().unwrap();
    let full_seq = s.last_seq();
    drop(s);

    // Bit-flip inside the second of several segments: mid-log damage.
    let segs = grepair_store::wal::list_segments(&dir).unwrap();
    assert!(segs.len() > 2, "need rotation: {}", segs.len());
    let mut bytes = std::fs::read(&segs[1].1).unwrap();
    let target = grepair_store::wal::SEGMENT_HEADER_LEN as usize + 10;
    bytes[target] ^= 0xFF;
    std::fs::write(&segs[1].1, &bytes).unwrap();

    assert!(
        matches!(
            DurableGraph::open(&dir, small_config()),
            Err(StoreError::Corrupt { .. })
        ),
        "writable open must fail closed on mid-log damage"
    );

    let ro = ReadOnlyStore::open(&dir).unwrap();
    assert!(ro.degraded());
    assert!(!ro.issues().is_empty());
    assert!(ro.last_seq() < full_seq, "the damaged suffix is not served");
    assert_eq!(
        &ro.graph().dump_slots(),
        dumps.get(&ro.last_seq()).unwrap(),
        "served graph must be the exact prefix state at seq {}",
        ro.last_seq()
    );
    ro.graph().check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
