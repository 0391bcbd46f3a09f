//! Property-based crash-point exploration.
//!
//! Where `faults.rs` explores one hand-written script exhaustively, this
//! test lets proptest pick the *script*: a random sequence of mutations,
//! commits and compactions runs over the [`FaultyFs`] backend, and a
//! crash is injected at **every** file-operation boundary of that run —
//! write, fsync, rename, remove, directory-sync alike. Each crash image
//! (durable bytes only) is materialized and reopened with the real
//! backend; the recovered graph must equal the state after some prefix
//! of the successfully applied mutations, and no commit acknowledged
//! before the crash may be lost. Typed errors only — a panic anywhere
//! fails the test.
//!
//! Every image is also opened the two other ways — `fsck` and the
//! read-only open — and the three openers must agree, on the crash image
//! itself and again after one random byte flip in one of its segments.

use grepair_graph::{NodeId, SlotDump, Value};
use grepair_store::{
    fsck, DurableGraph, FaultyFs, FsckVerdict, ReadOnlyStore, StoreConfig, StoreError,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One scripted step. Selectors index the live population modulo its
/// size at application time, so any byte sequence is a valid script.
#[derive(Clone, Debug)]
enum Step {
    AddNode(u8),
    AddEdge(u8, u8),
    RemoveNode(u8),
    SetAttr(u8, i64),
    Commit,
    Compact,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let add = || any::<u8>().prop_map(Step::AddNode);
    prop_oneof![
        add(),
        add(),
        add(),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::AddEdge(a, b)),
        any::<u8>().prop_map(Step::RemoveNode),
        (any::<u8>(), any::<i64>()).prop_map(|(n, v)| Step::SetAttr(n, v)),
        Just(Step::Commit),
        Just(Step::Commit),
        Just(Step::Compact),
    ]
}

fn pick(nodes: &[NodeId], sel: u8) -> Option<NodeId> {
    (!nodes.is_empty()).then(|| nodes[sel as usize % nodes.len()])
}

#[derive(Default)]
struct Trace {
    dumps: BTreeMap<u64, SlotDump>,
    acked: u64,
}

/// Run the script, tolerating failures (after a crash point every store
/// call returns an error; the script carries on regardless, which is
/// itself part of the property: no panics, only typed errors).
fn run_script(fs: &FaultyFs, dir: &Path, steps: &[Step]) -> Trace {
    let config = StoreConfig {
        segment_max_bytes: 192,
        compact_log_bytes: u64::MAX,
        keep_snapshots: 2,
        sync_on_commit: true,
    };
    let mut trace = Trace::default();
    let Ok(mut s) = DurableGraph::create_on(fs.clone(), dir, config) else {
        return trace;
    };
    trace.dumps.insert(0, s.graph().dump_slots());
    let mut nodes: Vec<NodeId> = Vec::new();
    for step in steps {
        let mutated = match step {
            Step::AddNode(l) => match s.add_node(&format!("L{}", l % 4)) {
                Ok(n) => {
                    nodes.push(n);
                    true
                }
                Err(_) => false,
            },
            Step::AddEdge(a, b) => match (pick(&nodes, *a), pick(&nodes, *b)) {
                (Some(x), Some(y)) => s.add_edge(x, y, "r").is_ok(),
                _ => false,
            },
            Step::RemoveNode(sel) => match pick(&nodes, *sel) {
                Some(n) => {
                    let removed = s.remove_node(n).is_ok();
                    if removed {
                        nodes.retain(|&m| m != n);
                    }
                    removed
                }
                None => false,
            },
            Step::SetAttr(sel, v) => match pick(&nodes, *sel) {
                Some(n) => s.set_attr(n, "k", Value::Int(*v)).is_ok(),
                None => false,
            },
            Step::Commit => {
                if s.commit().is_ok() {
                    trace.acked = s.last_seq();
                }
                false
            }
            Step::Compact => {
                let _ = s.compact();
                false
            }
        };
        if mutated {
            trace.dumps.insert(s.last_seq(), s.graph().dump_slots());
        }
    }
    if s.commit().is_ok() {
        trace.acked = s.last_seq();
    }
    trace
}

fn tmpdir() -> PathBuf {
    static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "grepair-propfault-{}-{:?}-{n}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Open `dir` three ways and check that they agree: fsck calls the
/// store degraded exactly when a writable open fails; where the open
/// succeeds, the read-only open serves the same sequence and graph and
/// fsck names the same sequence; where it fails, the read-only graph is
/// the script's state at the sequence it serves. All three refuse a
/// directory with no store alike. Returns what the writable open
/// recovered, `None` for no store.
fn openers_agree(
    dir: &Path,
    trace: &Trace,
    label: &str,
) -> Result<Option<(u64, SlotDump)>, TestCaseError> {
    // fsck and the read-only open first: a writable open truncates a
    // torn tail and rewrites a torn header.
    let report = fsck(dir);
    let ro = ReadOnlyStore::open(dir);
    let open = DurableGraph::open(dir, StoreConfig::default());
    let (report, ro) = match (report, ro, open) {
        (
            Err(StoreError::NotAStore(_)),
            Err(StoreError::NotAStore(_)),
            Err(StoreError::NotAStore(_)),
        ) => return Ok(None),
        (Ok(report), Ok(ro), Ok(s)) => {
            prop_assert_ne!(
                report.verdict,
                FsckVerdict::Degraded,
                "{}: open succeeded",
                label
            );
            let seq = s.last_seq();
            let dump = s.graph().dump_slots();
            s.graph().check_invariants().unwrap();
            prop_assert_eq!(report.last_seq, seq, "{}: fsck's seq", label);
            prop_assert_eq!(ro.last_seq(), seq, "{}: read-only seq", label);
            prop_assert!(!ro.degraded(), "{}", label);
            prop_assert_eq!(
                &ro.graph().dump_slots(),
                &dump,
                "{}: read-only graph",
                label
            );
            return Ok(Some((seq, dump)));
        }
        (Ok(report), Ok(ro), Err(e)) => {
            prop_assert_eq!(
                report.verdict,
                FsckVerdict::Degraded,
                "{}: open failed ({}) on a store fsck passes",
                label,
                e
            );
            (report, ro)
        }
        (report, ro, open) => {
            return Err(TestCaseError::fail(format!(
                "{label}: openers disagree: fsck {:?}, read-only {:?}, open {:?}",
                report.map(|r| r.verdict),
                ro.map(|r| r.last_seq()),
                open.map(|s| s.last_seq())
            )));
        }
    };
    prop_assert!(ro.degraded(), "{}", label);
    prop_assert_eq!(report.last_seq, ro.last_seq(), "{}: fsck's seq", label);
    let expect = trace.dumps.get(&ro.last_seq());
    prop_assert!(
        expect.is_some(),
        "{}: read-only seq {} matches no applied state",
        label,
        ro.last_seq()
    );
    prop_assert_eq!(
        &ro.graph().dump_slots(),
        expect.unwrap(),
        "{}: read-only graph",
        label
    );
    ro.graph().check_invariants().unwrap();
    Ok(None)
}

/// Materialize the durable image of the run crashed at `crash_at` into
/// a fresh directory, without the dead process's `LOCK` (removed the way
/// a stale-lock steal would).
fn crash_image(steps: &[Step], crash_at: usize, torn_keep: Option<usize>) -> (PathBuf, Trace) {
    let fs = FaultyFs::new();
    match torn_keep {
        Some(keep) => fs.set_torn_crash_point(crash_at, keep),
        None => fs.set_crash_point(crash_at),
    }
    let trace = run_script(&fs, Path::new("/store"), steps);
    let target = tmpdir();
    let _ = std::fs::remove_dir_all(&target);
    fs.materialize_durable(&target).unwrap();
    let _ = std::fs::remove_file(target.join("LOCK"));
    (target, trace)
}

/// The clean run's file-operation count: the crash points to explore.
fn crash_points(steps: &[Step]) -> usize {
    let clean = FaultyFs::new();
    run_script(&clean, Path::new("/store"), steps);
    clean.ops()
}

/// SplitMix64: the per-crash-point flip drawn from one proptest seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

proptest! {
    // Each case replays the whole script once per file operation it
    // performs (about 30 crash points on average), so the case count is
    // modest; coverage comes from the inner exhaustiveness.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn crash_at_every_boundary_recovers_a_committed_prefix(
        steps in prop::collection::vec(step_strategy(), 5..30),
        torn_keep in prop::option::of(1usize..12),
    ) {
        for crash_at in 0..crash_points(&steps) {
            let (target, trace) = crash_image(&steps, crash_at, torn_keep);
            match openers_agree(&target, &trace, &format!("crash at {crash_at}"))? {
                Some((seq, dump)) => {
                    prop_assert!(
                        seq >= trace.acked,
                        "crash at {}: acked commit lost ({} < {})",
                        crash_at, seq, trace.acked
                    );
                    let expect = trace.dumps.get(&seq);
                    prop_assert!(
                        expect.is_some(),
                        "crash at {}: recovered seq {} matches no applied state",
                        crash_at, seq
                    );
                    prop_assert_eq!(
                        &dump,
                        expect.unwrap(),
                        "crash at {}: wrong graph at seq {}",
                        crash_at, seq
                    );
                }
                None => {
                    prop_assert_eq!(trace.acked, 0, "crash at {}: acked but no store", crash_at);
                    prop_assert!(trace.dumps.is_empty());
                }
            }
            std::fs::remove_dir_all(&target).ok();
        }
    }

    /// The same crash images, each with one random byte of one random
    /// segment flipped: damage anywhere in the log, torn tail or not,
    /// still leaves fsck, the read-only open and the writable open in
    /// agreement.
    #[test]
    fn openers_agree_on_every_crash_image_with_a_byte_flip(
        steps in prop::collection::vec(step_strategy(), 5..30),
        torn_keep in prop::option::of(1usize..12),
        seed in any::<u64>(),
    ) {
        for crash_at in 0..crash_points(&steps) {
            let (target, trace) = crash_image(&steps, crash_at, torn_keep);
            let segments = grepair_store::wal::list_segments(&target).unwrap();
            let draw = mix(seed ^ crash_at as u64);
            if let Some((_, seg)) = segments.get(draw as usize % segments.len().max(1)) {
                let mut bytes = std::fs::read(seg).unwrap();
                if !bytes.is_empty() {
                    let at = (draw >> 16) as usize % bytes.len();
                    bytes[at] ^= 1 + (draw >> 8) as u8 % 255;
                    std::fs::write(seg, &bytes).unwrap();
                }
            }
            openers_agree(&target, &trace, &format!("flipped crash at {crash_at}"))?;
            std::fs::remove_dir_all(&target).ok();
        }
    }
}
