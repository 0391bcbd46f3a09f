//! Binary snapshot files.
//!
//! A snapshot named `snap-<seq:016x>.snap` captures the exact slot state
//! of the graph — live elements, tombstones and free-list order — after
//! applying every log record up to and including sequence `seq`.
//! Layout:
//!
//! ```text
//! magic "GRSNAP1\n" · version u32 · seq u64 · payload_len u64 · crc u32 · payload
//! payload = graph version u64 · node slots u32 · edge slots u32
//!         · live nodes u32 · (id u32 · label · attr count u32 · (key · value)*)*
//!         · live edges u32 · (id u32 · src u32 · dst u32 · label)*
//!         · free nodes u32 · id u32* · free edges u32 · id u32*
//! ```
//!
//! Nodes and edges appear in slot order, a node's attributes in key-name
//! order, the free lists in stack order. The payload is encoded straight
//! from the graph's slots, names borrowed from its interners, and decoded
//! straight into a [`SlotLoader`] with names borrowed from the file
//! buffer — no intermediate image on either side.
//!
//! The CRC-32 covers the payload. Snapshots are written to a temp file
//! and atomically renamed into place, so a crash mid-snapshot leaves at
//! worst a stray `*.tmp` — never a half snapshot under a valid name.
//! Readers treat any validation failure as [`StoreError::Corrupt`];
//! recovery falls back to the next older snapshot (or genesis) and
//! replays a longer log suffix instead.

use crate::codec::{crc32, ByteReader, ByteWriter, DecodeError};
use crate::error::{Result, StoreError};
use crate::record::{decode_value, encode_value};
use crate::vfs::{with_retry, StdFs, Vfs, VfsFile};
use grepair_graph::{EdgeId, Graph, NodeId, SlotLoader};
use std::path::{Path, PathBuf};

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GRSNAP1\n";
/// On-disk snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Fixed header size: magic + version + seq + payload_len + crc.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4;

/// File name of the snapshot taken at log sequence `seq`.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snap-{seq:016x}.snap")
}

/// Parse a snapshot file name back to its sequence number.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The whole snapshot file for `g` at `seq`: the payload is encoded
/// behind a header placeholder, which is then patched in place.
fn encode_snapshot(g: &Graph, seq: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.as_mut_vec().resize(HEADER_LEN, 0);
    w.u64(g.version());
    w.u32(g.node_slots());
    w.u32(g.edge_slots());

    // Attributes are written in key-name order (the order the format
    // was first written in): rank every key id by its name once.
    let keys = g.attr_keys();
    let mut by_name: Vec<u32> = (0..keys.len() as u32).collect();
    by_name.sort_unstable_by_key(|&k| keys.resolve(k));
    let mut rank = vec![0u32; by_name.len()];
    for (r, &k) in by_name.iter().enumerate() {
        rank[k as usize] = r as u32;
    }
    let mut order: Vec<usize> = Vec::new();
    w.u32(g.num_nodes() as u32);
    for n in g.nodes() {
        let label = g.node_label(n).expect("iterated nodes are live");
        let attrs = g.attrs(n);
        w.u32(n.0);
        w.str(g.label_name(label));
        w.u32(attrs.len() as u32);
        order.clear();
        order.extend(0..attrs.len());
        order.sort_unstable_by_key(|&i| rank[attrs[i].0.index()]);
        for &i in &order {
            let (k, v) = &attrs[i];
            w.str(keys.resolve(k.0));
            encode_value(&mut w, v);
        }
    }
    w.u32(g.num_edges() as u32);
    for e in g.edges() {
        let er = g.edge(e).expect("iterated edges are live");
        w.u32(e.0);
        w.u32(er.src.0);
        w.u32(er.dst.0);
        w.str(g.label_name(er.label));
    }
    let free_nodes = g.free_node_slots();
    w.u32(free_nodes.len() as u32);
    for f in free_nodes {
        w.u32(f.0);
    }
    let free_edges = g.free_edge_slots();
    w.u32(free_edges.len() as u32);
    for f in free_edges {
        w.u32(f.0);
    }

    let mut bytes = w.into_bytes();
    let payload_len = (bytes.len() - HEADER_LEN) as u64;
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    bytes[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes[12..20].copy_from_slice(&seq.to_le_bytes());
    bytes[20..28].copy_from_slice(&payload_len.to_le_bytes());
    bytes[28..32].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Decode a snapshot payload straight into a graph. Every string is
/// borrowed from `payload`; values move into the graph.
fn decode_graph(payload: &[u8]) -> Result<Graph, DecodeError> {
    let mut r = ByteReader::new(payload);
    let version = r.u64()?;
    let node_slots = r.u32()?;
    let edge_slots = r.u32()?;
    // Every slot is a live element or a free-list entry, and each costs
    // at least 4 payload bytes: a header claiming more slots than that
    // is corrupt, and is refused before one placeholder is allocated.
    if (node_slots as u64 + edge_slots as u64) * 4 > payload.len() as u64 {
        return Err(DecodeError(format!(
            "{node_slots} node + {edge_slots} edge slots cannot fit in a {}-byte payload",
            payload.len()
        )));
    }
    let mut loader = SlotLoader::new(node_slots, edge_slots);
    let n_nodes = r.u32()?;
    if n_nodes > node_slots {
        return Err(DecodeError(format!(
            "{n_nodes} nodes exceed {node_slots} slots"
        )));
    }
    let mut attrs = Vec::new();
    for _ in 0..n_nodes {
        let id = r.u32()?;
        let label = r.str_ref()?;
        let n_attrs = r.u32()? as usize;
        if n_attrs > r.remaining() {
            return Err(DecodeError(format!("attr count {n_attrs} exceeds payload")));
        }
        for _ in 0..n_attrs {
            let k = r.str_ref()?;
            attrs.push((k, decode_value(&mut r)?));
        }
        loader
            .node(id, label, attrs.drain(..))
            .map_err(|e| DecodeError(e.to_string()))?;
    }
    let n_edges = r.u32()?;
    if n_edges > edge_slots {
        return Err(DecodeError(format!(
            "{n_edges} edges exceed {edge_slots} slots"
        )));
    }
    for _ in 0..n_edges {
        let (id, src, dst) = (r.u32()?, r.u32()?, r.u32()?);
        loader
            .edge(id, src, dst, r.str_ref()?)
            .map_err(|e| DecodeError(e.to_string()))?;
    }
    let n_free = r.u32()?;
    if n_free > node_slots {
        return Err(DecodeError("free-node list exceeds slot count".into()));
    }
    let free_nodes = (0..n_free)
        .map(|_| r.u32().map(NodeId))
        .collect::<Result<_, _>>()?;
    let n_free = r.u32()?;
    if n_free > edge_slots {
        return Err(DecodeError("free-edge list exceeds slot count".into()));
    }
    let free_edges = (0..n_free)
        .map(|_| r.u32().map(EdgeId))
        .collect::<Result<_, _>>()?;
    if r.remaining() != 0 {
        return Err(DecodeError(format!(
            "{} trailing bytes after the slot image",
            r.remaining()
        )));
    }
    loader
        .finish(free_nodes, free_edges, version)
        .map_err(|e| DecodeError(e.to_string()))
}

/// Write a snapshot of `g` at sequence `seq` into `dir`, atomically
/// (temp file + rename + durable directory entry).
pub fn write_snapshot(dir: &Path, seq: u64, g: &Graph) -> Result<PathBuf> {
    write_snapshot_in(&StdFs, dir, seq, g)
}

/// [`write_snapshot`] against an explicit backend.
pub fn write_snapshot_in<V: Vfs>(vfs: &V, dir: &Path, seq: u64, g: &Graph) -> Result<PathBuf> {
    let bytes = encode_snapshot(g, seq);
    let final_path = dir.join(snapshot_file_name(seq));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(seq)));
    {
        let mut f = with_retry("snapshot.create", || vfs.create(&tmp_path))?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    with_retry("snapshot.rename", || vfs.rename(&tmp_path, &final_path))?;
    // Make the rename durable. This must propagate: the caller is about
    // to retire the segments this snapshot replaces, and a crash that
    // undoes an unsynced rename after those removals land would leave
    // recovery with neither the snapshot nor the log that produced it.
    vfs.sync_dir(dir)?;
    Ok(final_path)
}

/// Read and fully validate a snapshot file, loading it into a graph;
/// returns `(seq, graph)`.
pub fn read_snapshot(path: &Path) -> Result<(u64, Graph)> {
    read_snapshot_in(&StdFs, path)
}

/// [`read_snapshot`] against an explicit backend.
pub fn read_snapshot_in<V: Vfs>(vfs: &V, path: &Path) -> Result<(u64, Graph)> {
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let bytes = with_retry("snapshot.read", || vfs.read(path))?;
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!("{} bytes is too short", bytes.len())));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad snapshot magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let seq = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
    if (bytes.len() - HEADER_LEN) as u64 != payload_len {
        return Err(corrupt(format!(
            "payload length {payload_len} disagrees with file size {}",
            bytes.len()
        )));
    }
    let payload = &bytes[HEADER_LEN..];
    if crc32(payload) != crc {
        return Err(corrupt("snapshot checksum mismatch".into()));
    }
    let graph = decode_graph(payload).map_err(|e| corrupt(e.to_string()))?;
    Ok((seq, graph))
}

/// Sorted `(seq, path)` list of the snapshot files in `dir`, ascending.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    list_snapshots_in(&StdFs, dir)
}

/// [`list_snapshots`] against an explicit backend.
pub fn list_snapshots_in<V: Vfs>(vfs: &V, dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for name in vfs.list_dir(dir)? {
        if let Some(seq) = parse_snapshot_name(&name) {
            out.push((seq, dir.join(name)));
        }
    }
    out.sort_by_key(|(s, _)| *s);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_graph::{SlotDump, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "grepair-snap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node_named("Person");
        let b = g.add_node_named("City in space");
        let c = g.add_node_named("Person");
        let k = g.attr_key("name");
        g.set_attr(a, k, Value::from("Ann")).unwrap();
        g.add_edge_named(a, b, "livesIn").unwrap();
        let e = g.add_edge_named(c, b, "livesIn").unwrap();
        g.remove_edge(e).unwrap();
        g.remove_node(c).unwrap();
        g
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let dir = tmpdir("rt");
        let g = sample_graph();
        let path = write_snapshot(&dir, 42, &g).unwrap();
        assert_eq!(path.file_name().unwrap().to_str(), Some("snap-000000000000002a.snap"));
        let (seq, back) = read_snapshot(&path).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(back.dump_slots(), g.dump_slots());
        back.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_and_any_bitflip_is_rejected() {
        let dir = tmpdir("fuzz");
        let path = write_snapshot(&dir, 1, &sample_graph()).unwrap();
        let full = std::fs::read(&path).unwrap();
        let p = dir.join("probe.snap");
        // Every truncation fails closed.
        for cut in 0..full.len() {
            std::fs::write(&p, &full[..cut]).unwrap();
            assert!(read_snapshot(&p).is_err(), "cut at {cut}");
        }
        // A sample of single-bit flips across the payload fails closed.
        for target in (32..full.len()).step_by(7) {
            let mut bytes = full.clone();
            bytes[target] ^= 0x10;
            std::fs::write(&p, &bytes).unwrap();
            assert!(read_snapshot(&p).is_err(), "flip at {target}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn listing_skips_foreign_files() {
        let dir = tmpdir("list");
        write_snapshot(&dir, 5, &Graph::new()).unwrap();
        write_snapshot(&dir, 2, &Graph::new()).unwrap();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::write(dir.join("snap-zz.snap"), "x").unwrap();
        let seqs: Vec<u64> = list_snapshots(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `payload` behind a valid header and checksum: what reaches the
    /// payload decoder.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn slot_counts_past_the_payload_are_corrupt_before_allocating() {
        let dir = tmpdir("huge");
        // A CRC-valid, otherwise empty image claiming u32::MAX node
        // slots: its placeholders alone would need hundreds of GiB.
        let mut w = ByteWriter::new();
        w.u64(0);
        w.u32(u32::MAX);
        for _ in 0..5 {
            w.u32(0);
        }
        let p = dir.join(snapshot_file_name(1));
        std::fs::write(&p, framed(&w.into_bytes())).unwrap();
        let err = read_snapshot(&p).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { detail, .. } if detail.contains("cannot fit")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The payload decoder itself, past the checksum: arbitrary bytes,
        /// and a valid image cut short with random bytes overwritten, each
        /// behind a correct header and CRC, come back `Ok` (a graph whose
        /// invariants hold) or a typed `Err` — never a panic, and never an
        /// allocation the payload does not bound.
        #[test]
        fn crc_valid_payloads_never_panic_the_decoder(
            soup in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            cut in proptest::prelude::any::<u16>(),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()),
                0..4,
            ),
        ) {
            let dir = tmpdir("payload");
            let p = dir.join(snapshot_file_name(1));
            std::fs::write(&p, framed(&soup)).unwrap();
            if let Ok((_, g)) = read_snapshot(&p) {
                g.check_invariants().unwrap();
            }

            let valid = encode_snapshot(&sample_graph(), 1);
            let mut payload = valid[HEADER_LEN..].to_vec();
            payload.truncate(cut as usize % (payload.len() + 1));
            for &(at, byte) in &edits {
                if !payload.is_empty() {
                    let i = at as usize % payload.len();
                    payload[i] = byte;
                }
            }
            std::fs::write(&p, framed(&payload)).unwrap();
            if let Ok((_, g)) = read_snapshot(&p) {
                g.check_invariants().unwrap();
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A small churned graph, written as a store's genesis snapshot:
    /// tombstones and non-empty free lists in both slabs, a node whose
    /// key-name order differs from its key-id order, and all four value
    /// kinds. The exact file bytes are pinned, so the snapshot encoder
    /// cannot drift from the format existing stores were written in.
    #[test]
    fn snapshot_bytes_are_pinned() {
        use crate::store::{DurableGraph, StoreConfig};
        let dir = tmpdir("pinned");
        let mut g = Graph::new();
        // Interned first, so "zeta" has the lower key id.
        let zeta = g.attr_key("zeta");
        let alpha = g.attr_key("alpha");
        let a = g.add_node_named("Person");
        let b = g.add_node_named("City");
        let c = g.add_node_named("Person");
        let d = g.add_node_named("Tag");
        g.set_attr(a, zeta, Value::from("Ann")).unwrap();
        g.set_attr(a, alpha, Value::Int(-7)).unwrap();
        g.set_attr(b, alpha, Value::Float(2.5)).unwrap();
        g.set_attr(b, zeta, Value::Bool(true)).unwrap();
        g.add_edge_named(a, b, "livesIn").unwrap();
        let e1 = g.add_edge_named(c, b, "livesIn").unwrap();
        g.add_edge_named(a, c, "knows").unwrap();
        g.add_edge_named(b, a, "near").unwrap();
        g.remove_edge(e1).unwrap();
        g.remove_node(c).unwrap();
        g.remove_node(d).unwrap();
        let image = g.dump_slots();

        drop(DurableGraph::create_with(&dir, StoreConfig::default(), g).unwrap());
        let bytes = std::fs::read(dir.join(snapshot_file_name(0))).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        // Header (magic · version · seq · payload_len · crc), then the
        // payload: graph version · slot counts · live-node count, one
        // group per node (id · label · attrs in key-name order), the
        // edges (count, then id · src · dst · label each), and the two
        // free lists — taken from the format as first written.
        assert_eq!(
            hex,
            concat!(
                "4752534e4150310a010000000000000000000000bb0000000000000010bc3eca",
                "1000000000000000040000000400000002000000",
                "0000000006000000506572736f6e02000000",
                "05000000616c70686101f9ffffffffffffff",
                "040000007a6574610003000000416e6e",
                "01000000040000004369747902000000",
                "05000000616c706861020000000000000440",
                "040000007a6574610301",
                "02000000",
                "000000000000000001000000070000006c69766573496e",
                "030000000100000000000000040000006e656172",
                "020000000200000003000000",
                "020000000100000002000000",
            )
        );
        let s = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.graph().dump_slots(), image);
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dump_round_trips() {
        let dir = tmpdir("empty");
        let path = write_snapshot(&dir, 0, &Graph::new()).unwrap();
        let (seq, g) = read_snapshot(&path).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(g.dump_slots(), SlotDump::default());
        std::fs::remove_dir_all(&dir).ok();
    }
}
