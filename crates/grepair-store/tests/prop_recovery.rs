//! Crash-recovery property tests.
//!
//! Two properties pin the store's durability contract:
//!
//! 1. **Journal-replay exactness** — replaying the WAL of a random
//!    mutation sequence reproduces the live graph *exactly*: same live
//!    elements, same labels/attrs, same tombstones and free-list order
//!    ([`SlotDump`] equality), so ids allocate identically forever
//!    after.
//! 2. **Prefix consistency under truncation** — cutting the WAL at
//!    *every byte boundary* and recovering yields precisely the graph
//!    produced by the longest record prefix that survived the cut;
//!    recovery never crashes and never invents state.

use grepair_graph::{EdgeId, Graph, NodeId, SlotDump, Value};
use grepair_store::{DurableGraph, StoreConfig};
use proptest::prelude::*;
use std::path::PathBuf;

/// A mutation in a random op sequence; element selectors are taken
/// modulo the live population at application time.
#[derive(Clone, Debug)]
enum Op {
    AddNode(u8, bool),
    AddEdge(u8, u8, u8),
    RemoveNode(u8),
    RemoveEdge(u8),
    RelabelNode(u8, u8),
    RelabelEdge(u8, u8),
    SetAttr(u8, u8, i64),
    RemoveAttr(u8, u8),
    Merge(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Insertion arms repeated: the shim's `prop_oneof!` is uniform, and
    // insertion-heavy sequences grow enough population to delete from.
    let add_node = || (any::<u8>(), any::<bool>()).prop_map(|(l, a)| Op::AddNode(l, a));
    let add_edge =
        || (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, l)| Op::AddEdge(a, b, l));
    prop_oneof![
        add_node(),
        add_node(),
        add_node(),
        add_edge(),
        add_edge(),
        add_edge(),
        any::<u8>().prop_map(Op::RemoveNode),
        any::<u8>().prop_map(Op::RemoveEdge),
        (any::<u8>(), any::<u8>()).prop_map(|(n, l)| Op::RelabelNode(n, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(e, l)| Op::RelabelEdge(e, l)),
        (any::<u8>(), any::<u8>(), any::<i64>()).prop_map(|(n, k, v)| Op::SetAttr(n, k, v)),
        (any::<u8>(), any::<u8>(), any::<i64>()).prop_map(|(n, k, v)| Op::SetAttr(n, k, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(n, k)| Op::RemoveAttr(n, k)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Merge(a, b)),
    ]
}

fn pick_node(g: &Graph, sel: u8) -> Option<NodeId> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    (!nodes.is_empty()).then(|| nodes[sel as usize % nodes.len()])
}

fn pick_edge(g: &Graph, sel: u8) -> Option<EdgeId> {
    let edges: Vec<EdgeId> = g.edges().collect();
    (!edges.is_empty()).then(|| edges[sel as usize % edges.len()])
}

/// Apply one op through the durable store, best-effort (ops aimed at an
/// empty population are skipped). Returns whether a mutation happened.
fn apply_op(s: &mut DurableGraph, op: &Op) -> bool {
    match op {
        Op::AddNode(l, with_attr) => {
            let label = format!("L{}", l % 4);
            if *with_attr {
                s.add_node_with_attrs(&label, &[("k0".to_owned(), Value::Int(*l as i64))])
                    .unwrap();
            } else {
                s.add_node(&label).unwrap();
            }
            true
        }
        Op::AddEdge(a, b, l) => {
            let (Some(x), Some(y)) = (pick_node(s.graph(), *a), pick_node(s.graph(), *b))
            else {
                return false;
            };
            s.add_edge(x, y, &format!("r{}", l % 4)).unwrap();
            true
        }
        Op::RemoveNode(sel) => match pick_node(s.graph(), *sel) {
            Some(n) => {
                s.remove_node(n).unwrap();
                true
            }
            None => false,
        },
        Op::RemoveEdge(sel) => match pick_edge(s.graph(), *sel) {
            Some(e) => {
                s.remove_edge(e).unwrap();
                true
            }
            None => false,
        },
        Op::RelabelNode(sel, l) => match pick_node(s.graph(), *sel) {
            Some(n) => {
                s.set_node_label(n, &format!("L{}", l % 4)).unwrap();
                true
            }
            None => false,
        },
        Op::RelabelEdge(sel, l) => match pick_edge(s.graph(), *sel) {
            Some(e) => {
                s.set_edge_label(e, &format!("r{}", l % 4)).unwrap();
                true
            }
            None => false,
        },
        Op::SetAttr(sel, k, v) => match pick_node(s.graph(), *sel) {
            Some(n) => {
                s.set_attr(n, &format!("k{}", k % 3), Value::Int(*v)).unwrap();
                true
            }
            None => false,
        },
        Op::RemoveAttr(sel, k) => match pick_node(s.graph(), *sel) {
            Some(n) => {
                s.remove_attr(n, &format!("k{}", k % 3)).unwrap();
                true
            }
            None => false,
        },
        Op::Merge(a, b) => {
            let (Some(x), Some(y)) = (pick_node(s.graph(), *a), pick_node(s.graph(), *b))
            else {
                return false;
            };
            if x == y {
                return false;
            }
            s.merge_nodes(x, y, *a % 2 == 0).unwrap();
            true
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "grepair-prop-{tag}-{}-{:?}-{n}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: reopen-from-journal reproduces the live graph exactly,
    /// tombstones and free-list order included.
    #[test]
    fn journal_replay_reproduces_graph_exactly(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let dir = tmpdir("replay");
        let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        for op in &ops {
            apply_op(&mut s, op);
        }
        s.commit().unwrap();
        let live: SlotDump = s.graph().dump_slots();
        s.graph().check_invariants().unwrap();
        drop(s);

        let recovered = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        prop_assert_eq!(recovered.graph().dump_slots(), live);
        recovered.graph().check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Parallel decode-ahead replay recovers byte-identical state to
    /// serial recovery across thread counts {1, 2, 8}, with a tiny
    /// segment cap so real multi-segment logs (including tombstoned
    /// slots from removals/merges) exercise the concurrent decode.
    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_replay_identical_across_thread_counts(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let dir = tmpdir("par-replay");
        let config = StoreConfig {
            segment_max_bytes: 256,
            ..StoreConfig::default()
        };
        let mut s = DurableGraph::create(&dir, config.clone()).unwrap();
        for op in &ops {
            apply_op(&mut s, op);
        }
        s.commit().unwrap();
        let live: SlotDump = s.graph().dump_slots();
        drop(s);

        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let recovered = pool
                .install(|| DurableGraph::open(&dir, config.clone()))
                .unwrap();
            prop_assert_eq!(
                recovered.graph().dump_slots(),
                live.clone(),
                "{} replay threads",
                threads
            );
            recovered.graph().check_invariants().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Property 1b: exactness also holds across a mid-sequence compaction
    /// (snapshot restore + suffix replay instead of full replay).
    #[test]
    fn snapshot_plus_suffix_replay_is_exact(
        ops in prop::collection::vec(op_strategy(), 2..50),
        split in 0usize..50,
    ) {
        let dir = tmpdir("snapsplit");
        let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        let split = split % ops.len();
        let mut journaled_before = 0u64;
        for op in &ops[..split] {
            journaled_before += apply_op(&mut s, op) as u64;
        }
        s.compact().unwrap();
        for op in &ops[split..] {
            apply_op(&mut s, op);
        }
        s.commit().unwrap();
        let live = s.graph().dump_slots();
        drop(s);

        let recovered = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        prop_assert_eq!(recovered.graph().dump_slots(), live);
        prop_assert_eq!(recovered.last_recovery().snapshot_seq, journaled_before);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    // Each case tries every byte boundary of the WAL, so a case is
    // hundreds of recoveries; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 2: truncating the WAL at EVERY byte boundary recovers the
    /// graph of the longest surviving record prefix — no crash, no
    /// invented state, no lost acknowledged-and-synced prefix.
    #[test]
    fn every_byte_truncation_recovers_a_prefix(ops in prop::collection::vec(op_strategy(), 1..25)) {
        let dir = tmpdir("cut");
        let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        // States after each journaled record, plus frame boundaries.
        let mut dumps: Vec<SlotDump> = vec![s.graph().dump_slots()];
        let seg_path = {
            let mut segs = grepair_store::wal::list_segments(&dir).unwrap();
            prop_assert_eq!(segs.len(), 1);
            segs.pop().unwrap().1
        };
        // Frame ends from the writer's logical length: records reach the
        // file only when the journal is flushed (at the latest by commit).
        let active_len = |s: &DurableGraph| s.status().unwrap().active_log_bytes;
        let mut frame_ends: Vec<u64> = vec![active_len(&s)];
        for op in &ops {
            if apply_op(&mut s, op) {
                dumps.push(s.graph().dump_slots());
                frame_ends.push(active_len(&s));
            }
        }
        s.commit().unwrap();
        drop(s);
        let full = std::fs::read(&seg_path).unwrap();
        prop_assert_eq!(*frame_ends.last().unwrap(), full.len() as u64);
        let seg_name = seg_path.file_name().unwrap().to_owned();

        let probe = tmpdir("cut-probe");
        for cut in 0..=full.len() {
            let _ = std::fs::remove_dir_all(&probe);
            std::fs::create_dir_all(&probe).unwrap();
            std::fs::write(probe.join(&seg_name), &full[..cut]).unwrap();
            let recovered = DurableGraph::open(&probe, StoreConfig::default()).unwrap();
            // Longest record prefix fully below the cut.
            let k = frame_ends.iter().filter(|&&e| e <= cut as u64).count();
            let expect = if k == 0 { &dumps[0] } else { &dumps[k - 1] };
            prop_assert_eq!(
                &recovered.graph().dump_slots(),
                expect,
                "cut at byte {} of {}",
                cut,
                full.len()
            );
            let torn = recovered.last_recovery().torn_tail_bytes;
            let valid = if k == 0 { 0 } else { frame_ends[k - 1] };
            prop_assert_eq!(torn, cut as u64 - valid);
            // The truncated store stays writable: recovery re-opened the
            // log at the last valid frame.
            let mut recovered = recovered;
            recovered.add_node("PostCrash").unwrap();
            recovered.commit().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&probe).ok();
    }
}
