//! The durable store: a [`Graph`] wrapped so that every mutation — and
//! every engine-applied repair — is journaled before the call returns.
//!
//! ## Directory layout
//!
//! ```text
//! store/
//!   wal-<base_seq:016x>.seg    append-only mutation segments
//!   snap-<seq:016x>.snap       binary snapshots (slot-exact)
//! ```
//!
//! ## Recovery
//!
//! `open` = take the lock, run the recovery walk (newest loadable
//! snapshot + replay of every record with a higher sequence number),
//! then reopen the active segment. A snapshot that fails validation
//! falls back to the next older one (replaying a longer suffix); a torn
//! tail on the *active* segment is truncated and reported in
//! [`RecoveryStats`]; damage anywhere else refuses to open rather than
//! serve a graph with a hole in its history. [`ReadOnlyStore`] and
//! [`crate::fsck::fsck`] run the same walk and keep going past damage.
//!
//! ## Compaction
//!
//! [`DurableGraph::compact`] snapshots the current state, rotates to a
//! fresh segment, then retires every older segment and all but the
//! newest [`StoreConfig::keep_snapshots`] snapshots. Ids never change —
//! snapshots are slot-exact — so outstanding [`grepair_graph::NodeId`]s
//! stay valid across compaction.

use crate::codec::ByteWriter;
use crate::error::{Result, StoreError};
use crate::fsck::{fsck_with_graph_in, FsckReport, FsckVerdict};
use crate::lock;
use crate::record;
use crate::recovery::{require_store, walk, Scope};
use crate::snapshot::{list_snapshots_in, write_snapshot_in};
use crate::vfs::{with_retry, StdFs, Vfs};
use crate::wal::{list_segments_in, SegmentWriter, SEGMENT_HEADER_LEN};
use grepair_core::{
    set_fingerprint, AppliedOp, Grr, Planner, RepairEngine, RepairOutcome, RepairReport,
    RepairSeed, RepairSink, TouchSet,
};
use grepair_graph::{EdgeId, Graph, MergeOutcome, NodeId, Value};
use grepair_obs as obs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Record a `store.fault` counter tick and warn event — the single
/// funnel for "something on the durability path went wrong but was
/// handled" (skipped snapshot, truncated tail, failed fsync, tolerated
/// best-effort sync).
pub(crate) fn record_fault(detail: impl Into<String>) {
    obs::counter("store.fault").inc();
    obs::event(obs::Level::Warn, "store.fault", detail);
}

/// Tuning knobs for a [`DurableGraph`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// [`DurableGraph::maybe_compact`] compacts once the log carries at
    /// least this many bytes written after the newest snapshot.
    pub compact_log_bytes: u64,
    /// Snapshots retained after compaction (the newest ones). Keeping
    /// more than one lets recovery survive a latent bad block in the
    /// newest snapshot at the price of disk space.
    pub keep_snapshots: usize,
    /// `fsync` the active segment in [`DurableGraph::commit`] (and at
    /// the end of [`DurableGraph::repair`]). Disable only for bulk
    /// loads you are prepared to redo.
    pub sync_on_commit: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_max_bytes: 8 * 1024 * 1024,
            compact_log_bytes: 32 * 1024 * 1024,
            keep_snapshots: 2,
            sync_on_commit: true,
        }
    }
}

/// What recovery found and did while opening a store.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Sequence of the snapshot recovery started from (0 = genesis).
    pub snapshot_seq: u64,
    /// Snapshots that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// Log records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Torn-tail bytes truncated from the active segment.
    pub torn_tail_bytes: u64,
    /// Segment files read.
    pub segments_read: usize,
    /// Time spent loading the newest loadable snapshot, damaged ones
    /// skipped on the way included.
    pub snapshot_load: Duration,
    /// Time spent reading, checking and replaying the log segments.
    pub replay: Duration,
    /// Wall-clock time of the whole open: snapshot load, replay and
    /// reopening the active segment.
    pub wall: Duration,
}

/// Point-in-time introspection of a store directory.
#[derive(Clone, Debug, Default)]
pub struct StoreStatus {
    /// Segment files on disk.
    pub segments: usize,
    /// Total segment bytes on disk.
    pub segment_bytes: u64,
    /// Snapshot files on disk.
    pub snapshots: usize,
    /// Total snapshot bytes on disk.
    pub snapshot_bytes: u64,
    /// Highest journaled sequence number.
    pub last_seq: u64,
    /// Sequence covered by the newest snapshot.
    pub snapshot_seq: u64,
    /// Record bytes journaled after the newest snapshot.
    pub log_bytes_since_snapshot: u64,
    /// Live nodes in the graph.
    pub live_nodes: usize,
    /// Live edges in the graph.
    pub live_edges: usize,
    /// Journaled sequences not yet covered by a snapshot
    /// (`last_seq - snapshot_seq`) — how much replay a recovery pays.
    pub snapshot_age_seqs: u64,
    /// Bytes in the active (append) segment.
    pub active_log_bytes: u64,
}

impl std::fmt::Display for StoreStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "|V|={} |E|={} last_seq={} snapshot_seq={}",
            self.live_nodes, self.live_edges, self.last_seq, self.snapshot_seq
        )?;
        writeln!(
            f,
            "segments: {} ({} bytes), snapshots: {} ({} bytes)",
            self.segments, self.segment_bytes, self.snapshots, self.snapshot_bytes
        )?;
        writeln!(
            f,
            "log bytes since snapshot: {}",
            self.log_bytes_since_snapshot
        )?;
        write!(
            f,
            "snapshot age: {} seqs, active log: {} bytes",
            self.snapshot_age_seqs, self.active_log_bytes
        )
    }
}

/// Outcome of a compaction.
#[derive(Clone, Debug, Default)]
pub struct CompactionStats {
    /// Sequence the new snapshot covers.
    pub snapshot_seq: u64,
    /// Segment files deleted.
    pub segments_retired: usize,
    /// Snapshot files deleted.
    pub snapshots_retired: usize,
    /// Bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// Pre-interned handles into the global metrics registry, held for the
/// store's lifetime so the per-record write path pays atomic updates
/// only — never a registry lookup.
struct StoreTelemetry {
    append_ns: std::sync::Arc<obs::Histogram>,
    snapshot_age: std::sync::Arc<obs::Gauge>,
    active_log_bytes: std::sync::Arc<obs::Gauge>,
}

impl Default for StoreTelemetry {
    fn default() -> Self {
        StoreTelemetry {
            append_ns: obs::histogram("wal.append_ns"),
            snapshot_age: obs::gauge("store.snapshot_age_seqs"),
            active_log_bytes: obs::gauge("store.active_log_bytes"),
        }
    }
}

impl StoreTelemetry {
    fn set_gauges(&self, last_seq: u64, snapshot_seq: u64, active_log_bytes: u64) {
        self.snapshot_age.set((last_seq - snapshot_seq) as i64);
        self.active_log_bytes.set(active_log_bytes as i64);
    }
}

/// A [`Graph`] whose every mutation is journaled to a checksummed WAL,
/// with snapshot-based compaction and crash recovery.
///
/// Mutators mirror the `Graph` API but take labels and attribute keys
/// **by name** (interner numbering is process-local and therefore never
/// journaled). Reads go through [`DurableGraph::graph`].
///
/// A mutator's `Ok` means its record is in the journal: encoded into the
/// active segment's buffer, which reaches the file in 64 KiB batches.
/// [`DurableGraph::commit`] (and [`DurableGraph::compact`], and the
/// commit ending [`DurableGraph::repair`]) writes the buffer and fsyncs;
/// only that acknowledges durability. A crash may drop records journaled
/// since the last commit — recovery then serves a shorter prefix, still
/// containing every committed record.
///
/// Single-writer, enforced: create/open take a `LOCK` file in the
/// directory (pid + boot id); a second writable open fails with
/// [`StoreError::Locked`] while the holder lives, and locks left by
/// crashed processes or previous boots are detected as stale and
/// stolen. [`ReadOnlyStore`] opens take no lock.
///
/// Generic over the storage backend [`Vfs`]; production code uses the
/// default [`StdFs`] passthrough (static dispatch, zero overhead), and
/// the fault-injection tests drive the same code over a `FaultyFs`.
pub struct DurableGraph<V: Vfs = StdFs> {
    vfs: V,
    dir: PathBuf,
    config: StoreConfig,
    graph: Graph,
    writer: SegmentWriter<V>,
    telemetry: StoreTelemetry,
    /// Long-lived planning state for [`DurableGraph::repair`]: plans
    /// compiled in one repair run serve every later run against this
    /// store.
    planner: Planner,
    /// `Some((fp, delta))`: the graph was at a verified fixpoint of the
    /// rule set with [`set_fingerprint`] `fp`, and `delta` holds every
    /// node an edit has affected since — what the next
    /// [`DurableGraph::repair`] of that rule set seeds from instead of
    /// scanning. In memory only: a recovered graph is unverified.
    clean: Option<(u64, TouchSet)>,
    last_seq: u64,
    snapshot_seq: u64,
    bytes_since_snapshot: u64,
    last_recovery: RecoveryStats,
    poison: Option<Poison>,
    locked: bool,
}

/// The clean mark is dropped once its delta exceeds 1/`DELTA_MAX_SHARE`
/// of the live nodes: matching around a delta runs one anchored search
/// per pattern variable per node where a full seed runs one scan, and
/// past the crossover the scan is cheaper. Measured on clean graphs with
/// evenly spread deltas, a warm planner and no closing pass on either
/// side (release build; delta-seeded ÷ full-seeded repair time, median
/// of 7 sweeps of 7 runs each): social 7.8k nodes / 4 rules — 1/8 0.26x,
/// 1/4 0.46x, 1/3 0.68x, 1/2 1.02x, all 1.94x; gold KG 17k nodes / 10
/// rules — 1/8 0.42x, 1/4 0.71x, 1/3 0.91x, 1/2 1.25x, all 1.71x. A
/// quarter sits below the crossover; it also bounds the set.
const DELTA_MAX_SHARE: usize = 4;

/// Why a store refuses further work (see [`StoreError::Poisoned`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Poison {
    /// A journal append — or the write of buffered records — failed:
    /// the in-memory graph may be ahead of the log, so any further
    /// journaled record could reference state replay cannot reproduce.
    /// Mutators refuse; the on-disk log stays a valid replayable prefix,
    /// [`DurableGraph::commit`] may still sync it, and reopening
    /// recovers it.
    Append,
    /// An fsync failed: the kernel may have dropped the dirty pages
    /// while clearing the error, so a later "successful" fsync could
    /// acknowledge data that is gone (fsyncgate). Mutators *and*
    /// [`DurableGraph::commit`] refuse; reopening re-reads the file and
    /// recovers whatever truly landed.
    Fsync,
}

/// `true` if the directory holds at least one segment or snapshot.
pub(crate) fn dir_has_store_in<V: Vfs>(vfs: &V, dir: &Path) -> Result<bool> {
    Ok(!list_segments_in(vfs, dir)?.is_empty() || !list_snapshots_in(vfs, dir)?.is_empty())
}

impl DurableGraph<StdFs> {
    /// Create a fresh, empty store in `dir` (created if missing; must
    /// not already contain a store).
    pub fn create(dir: &Path, config: StoreConfig) -> Result<Self> {
        Self::create_on(StdFs, dir, config)
    }

    /// Create a store in `dir` seeded with `graph`, written as the
    /// genesis snapshot (sequence 0) — the fast path for importing an
    /// existing dataset.
    pub fn create_with(dir: &Path, config: StoreConfig, graph: Graph) -> Result<Self> {
        Self::create_with_on(StdFs, dir, config, graph)
    }

    /// Open an existing store, running full recovery (snapshot load +
    /// log replay + torn-tail truncation).
    pub fn open(dir: &Path, config: StoreConfig) -> Result<Self> {
        Self::open_on(StdFs, dir, config)
    }

}

impl<V: Vfs> DurableGraph<V> {
    /// [`DurableGraph::create`] against an explicit backend.
    pub fn create_on(vfs: V, dir: &Path, config: StoreConfig) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        if dir_has_store_in(&vfs, dir)? {
            return Err(StoreError::AlreadyExists(dir.to_path_buf()));
        }
        lock::acquire(&vfs, dir)?;
        let writer = SegmentWriter::create_in(&vfs, dir, 1).inspect_err(|_| {
            lock::release(&vfs, dir);
        })?;
        Ok(Self {
            vfs,
            dir: dir.to_path_buf(),
            config,
            graph: Graph::new(),
            writer,
            telemetry: StoreTelemetry::default(),
            planner: Planner::new(),
            clean: None,
            last_seq: 0,
            snapshot_seq: 0,
            bytes_since_snapshot: 0,
            last_recovery: RecoveryStats::default(),
            poison: None,
            locked: true,
        })
    }

    /// [`DurableGraph::create_with`] against an explicit backend.
    pub fn create_with_on(vfs: V, dir: &Path, config: StoreConfig, graph: Graph) -> Result<Self> {
        let mut s = Self::create_on(vfs, dir, config)?;
        write_snapshot_in(&s.vfs, &s.dir, 0, &graph)?;
        s.graph = graph;
        Ok(s)
    }

    /// [`DurableGraph::open`] against an explicit backend.
    pub fn open_on(vfs: V, dir: &Path, config: StoreConfig) -> Result<Self> {
        Self::open_on_with_budget(vfs, dir, config, &obs::Budget::unlimited())
    }

    /// [`DurableGraph::open_on`] under a runtime [`obs::Budget`]:
    /// recovery observes the budget between segment applications and
    /// returns [`StoreError::Interrupted`] on a trip. Replay is
    /// read-only, so an interrupted open leaves the directory exactly
    /// as it was (the lock is released); reopen with a fresh budget to
    /// recover in full.
    pub fn open_on_with_budget(
        vfs: V,
        dir: &Path,
        config: StoreConfig,
        budget: &obs::Budget,
    ) -> Result<Self> {
        require_store(&vfs, dir)?;
        lock::acquire(&vfs, dir)?;
        let start = Instant::now();
        let _span = obs::span("store.recovery", "store");
        let recovery_started = obs::timer();
        let opened = walk(&vfs, dir, Scope::Open(budget)).and_then(|w| {
            // Reopen (or recreate) the active segment for appending,
            // dropping any torn tail so new records follow valid ones.
            let writer = match &w.active {
                Some((path, base, valid_len)) if *valid_len >= SEGMENT_HEADER_LEN => {
                    SegmentWriter::open_end_in(&vfs, path, *base, *valid_len)?
                }
                Some((path, base, _)) => {
                    // Header itself was torn — rewrite the segment fresh.
                    with_retry("wal.remove", || vfs.remove_file(path))?;
                    SegmentWriter::create_in(&vfs, dir, *base)?
                }
                None => SegmentWriter::create_in(&vfs, dir, w.last_seq + 1)?,
            };
            Ok((w, writer))
        });
        let (mut w, writer) = opened.inspect_err(|_| lock::release(&vfs, dir))?;
        w.stats.wall = start.elapsed();
        obs::record_since_named("store.recovery_ns", recovery_started);
        obs::counter("wal.records_replayed").add(w.stats.records_replayed);
        let s = Self {
            vfs,
            dir: dir.to_path_buf(),
            config,
            graph: w.graph,
            writer,
            telemetry: StoreTelemetry::default(),
            planner: Planner::new(),
            clean: None,
            last_seq: w.last_seq,
            snapshot_seq: w.stats.snapshot_seq,
            bytes_since_snapshot: w.bytes_since_snapshot,
            last_recovery: w.stats,
            poison: None,
            locked: true,
        };
        s.telemetry
            .set_gauges(s.last_seq, s.snapshot_seq, s.writer.len());
        Ok(s)
    }

    /// The wrapped graph (all reads go through here).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consume the store and keep just the graph (read-only workflows
    /// that open, inspect and exit). Releases the `LOCK` file.
    pub fn into_graph(mut self) -> Graph {
        std::mem::replace(&mut self.graph, Graph::new())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's long-lived repair planner (plan-cache introspection;
    /// warmed by [`DurableGraph::repair`]).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Highest journaled sequence number.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// What the most recent [`DurableGraph::open`] found and did.
    pub fn last_recovery(&self) -> &RecoveryStats {
        &self.last_recovery
    }

    /// Scan the directory and report current store shape.
    pub fn status(&self) -> Result<StoreStatus> {
        let mut st = StoreStatus {
            last_seq: self.last_seq,
            snapshot_seq: self.snapshot_seq,
            log_bytes_since_snapshot: self.bytes_since_snapshot,
            live_nodes: self.graph.num_nodes(),
            live_edges: self.graph.num_edges(),
            snapshot_age_seqs: self.last_seq - self.snapshot_seq,
            active_log_bytes: self.writer.len(),
            ..StoreStatus::default()
        };
        for (_, path) in list_segments_in(&self.vfs, &self.dir)? {
            st.segments += 1;
            // The active segment's tail may still be buffered.
            st.segment_bytes += if path == self.writer.path() {
                self.writer.len()
            } else {
                self.vfs.file_len(&path)?
            };
        }
        for (_, path) in list_snapshots_in(&self.vfs, &self.dir)? {
            st.snapshots += 1;
            st.snapshot_bytes += self.vfs.file_len(&path)?;
        }
        Ok(st)
    }

    // ---- journaling core ---------------------------------------------------

    /// Whether a journal failure has poisoned this instance (see
    /// [`StoreError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_some()
    }

    fn ensure_writable(&self) -> Result<()> {
        if self.poison.is_some() {
            return Err(StoreError::Poisoned);
        }
        Ok(())
    }

    /// Note the nodes an edit affected — [`grepair_core::Applied`]'s
    /// definition of `touched` — while the graph is marked clean.
    fn touch(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        let Some((_, delta)) = &mut self.clean else {
            return;
        };
        delta.extend(nodes);
        if delta.len() * DELTA_MAX_SHARE > self.graph.num_nodes() {
            self.clean = None;
        }
    }

    /// [`DurableGraph::touch`] for an edge's two endpoints.
    fn touch_endpoints(&mut self, edge: EdgeId) {
        if self.clean.is_some() {
            match self.graph.edge(edge) {
                Ok(e) => self.touch([e.src, e.dst]),
                Err(_) => self.clean = None,
            }
        }
    }

    /// Journal the record `encode` writes (one of the `record`
    /// encoders). `Ok` means the record is in the journal — buffered by
    /// the segment writer; [`DurableGraph::commit`] puts it on disk.
    fn append(&mut self, encode: impl FnOnce(&mut ByteWriter)) -> Result<()> {
        let seq = self.last_seq + 1;
        let append_started = obs::timer();
        match append_with_rotation(
            &self.vfs,
            &mut self.writer,
            &self.dir,
            self.config.segment_max_bytes,
            seq,
            encode,
        ) {
            Ok(written) => {
                obs::record_since(&self.telemetry.append_ns, append_started);
                self.last_seq = seq;
                self.bytes_since_snapshot += written;
                self.telemetry
                    .set_gauges(self.last_seq, self.snapshot_seq, self.writer.len());
                Ok(())
            }
            Err(e) => {
                // The graph mutation this record describes has already
                // been applied in memory; without the record the log can
                // no longer reproduce the in-memory state.
                self.poison = Some(Poison::Append);
                record_fault(format!("journal append failed; store poisoned: {e}"));
                Err(e)
            }
        }
    }

    /// Write the journal's buffered records to the active segment. A
    /// failed write poisons like a failed append ([`Poison::Append`]):
    /// records the mutators acknowledged are not in the file, and the
    /// writer will not write after the torn bytes.
    fn flush(&mut self) -> Result<()> {
        self.writer.flush().inspect_err(|e| {
            self.poison = Some(Poison::Append);
            record_fault(format!("journal write failed; store poisoned: {e}"));
        })
    }

    /// Write the journal's buffered records to the active segment, then
    /// `fsync` it — everything journaled so far is durable once this
    /// returns.
    ///
    /// A failed write is an append poison and is returned before any
    /// fsync. An fsync failure is final: the store poisons itself
    /// against any further commit or mutation (retrying an fsync after
    /// a failure can silently lose the very pages the first call failed
    /// on). An append-poisoned store may still commit: syncing the
    /// valid journaled prefix already in the file is safe.
    pub fn commit(&mut self) -> Result<()> {
        if self.poison == Some(Poison::Fsync) {
            return Err(StoreError::Poisoned);
        }
        let commit_started = obs::timer();
        self.flush()?;
        if self.config.sync_on_commit {
            let fsync_started = obs::timer();
            if let Err(e) = self.writer.sync() {
                self.poison = Some(Poison::Fsync);
                record_fault(format!("commit fsync failed; store poisoned: {e}"));
                return Err(e);
            }
            obs::record_since_named("wal.fsync_ns", fsync_started);
        }
        obs::record_since_named("store.commit_ns", commit_started);
        Ok(())
    }

    // ---- mutators ----------------------------------------------------------

    /// Insert a node; journals and returns the allocated id.
    pub fn add_node(&mut self, label: &str) -> Result<NodeId> {
        self.add_node_with_attrs(label, &[])
    }

    /// Insert a node with attributes (applied in the given order).
    pub fn add_node_with_attrs(
        &mut self,
        label: &str,
        attrs: &[(String, Value)],
    ) -> Result<NodeId> {
        self.ensure_writable()?;
        let l = self.graph.label(label);
        let node = self.graph.add_node(l);
        self.touch([node]);
        for (k, v) in attrs {
            let kk = self.graph.attr_key(k);
            self.graph.set_attr(node, kk, v.clone())?;
        }
        self.append(|w| record::encode_add_node(w, node, label, attrs))?;
        Ok(node)
    }

    /// Delete a node and its incident edges.
    pub fn remove_node(&mut self, node: NodeId) -> Result<Vec<EdgeId>> {
        self.ensure_writable()?;
        // The neighbours survive with changed adjacency; the call below
        // destroys the edges that name them.
        let neighbours: Vec<NodeId> = match self.clean {
            Some(_) => self
                .graph
                .incident_edges(node)
                .filter_map(|e| self.graph.edge(e).ok())
                .map(|e| if e.src == node { e.dst } else { e.src })
                .filter(|&n| n != node)
                .collect(),
            None => Vec::new(),
        };
        let removed = self.graph.remove_node(node)?;
        self.touch(neighbours);
        self.append(|w| record::encode_remove_node(w, node))?;
        Ok(removed)
    }

    /// Insert an edge; journals and returns the allocated id.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: &str) -> Result<EdgeId> {
        self.ensure_writable()?;
        let l = self.graph.label(label);
        let edge = self.graph.add_edge(src, dst, l)?;
        self.touch([src, dst]);
        self.append(|w| record::encode_add_edge(w, edge, src, dst, label))?;
        Ok(edge)
    }

    /// Delete an edge.
    pub fn remove_edge(&mut self, edge: EdgeId) -> Result<()> {
        self.ensure_writable()?;
        let ends = self.graph.edge(edge)?;
        self.graph.remove_edge(edge)?;
        self.touch([ends.src, ends.dst]);
        self.append(|w| record::encode_remove_edge(w, edge))?;
        Ok(())
    }

    /// Replace a node's label; returns the previous label's name.
    pub fn set_node_label(&mut self, node: NodeId, label: &str) -> Result<String> {
        self.ensure_writable()?;
        let l = self.graph.label(label);
        let old = self.graph.set_node_label(node, l)?;
        self.touch([node]);
        let old = self.graph.label_name(old).to_owned();
        self.append(|w| record::encode_set_node_label(w, node, label))?;
        Ok(old)
    }

    /// Replace an edge's label; returns the previous label's name.
    pub fn set_edge_label(&mut self, edge: EdgeId, label: &str) -> Result<String> {
        self.ensure_writable()?;
        let l = self.graph.label(label);
        let old = self.graph.set_edge_label(edge, l)?;
        self.touch_endpoints(edge);
        let old = self.graph.label_name(old).to_owned();
        self.append(|w| record::encode_set_edge_label(w, edge, label))?;
        Ok(old)
    }

    /// Set an attribute; returns the previous value, if any.
    pub fn set_attr(&mut self, node: NodeId, key: &str, value: Value) -> Result<Option<Value>> {
        self.ensure_writable()?;
        let k = self.graph.attr_key(key);
        let old = self.graph.set_attr(node, k, value.clone())?;
        self.touch([node]);
        self.append(|w| record::encode_set_attr(w, node, key, &value))?;
        Ok(old)
    }

    /// Remove an attribute; returns the removed value, if any.
    pub fn remove_attr(&mut self, node: NodeId, key: &str) -> Result<Option<Value>> {
        self.ensure_writable()?;
        let k = self.graph.attr_key(key);
        let old = self.graph.remove_attr(node, k)?;
        self.touch([node]);
        self.append(|w| record::encode_remove_attr(w, node, key))?;
        Ok(old)
    }

    /// Merge `merged` into `keep` (see [`Graph::merge_nodes`]).
    pub fn merge_nodes(
        &mut self,
        keep: NodeId,
        merged: NodeId,
        dedup_parallel: bool,
    ) -> Result<MergeOutcome> {
        self.ensure_writable()?;
        let outcome = self.graph.merge_nodes(keep, merged, dedup_parallel)?;
        self.touch([keep]);
        for &e in &outcome.rewired {
            self.touch_endpoints(e);
        }
        self.append(|w| record::encode_merge_nodes(w, keep, merged, dedup_parallel))?;
        Ok(outcome)
    }

    // ---- repairs -----------------------------------------------------------

    /// Run a repair to fixpoint with applied operations journaled
    /// round-atomically, then commit (fsync). The engine hands the store
    /// one committed round per applied repair, and the store encodes
    /// that round's ops straight into the WAL buffer, so the journal
    /// only ever holds whole rounds: a crash — or a
    /// [budget](RepairEngine::with_budget) trip, which makes the engine
    /// abandon the in-flight round before applying anything — recovers
    /// to exactly a committed-round prefix, a consistent graph, never a
    /// torn one. Cancellation is never observed between an append and
    /// the final fsync: the budget is the engine's concern, and the
    /// flush path here runs straight through.
    ///
    /// Planning is always warm: the store owns a long-lived
    /// [`Planner`], so plans compiled during one repair serve every
    /// later repair of this store. Later calls that have anything to
    /// match report `plan_cache_hits` with zero
    /// `pattern_compiles`.
    ///
    /// Matching is proportional to what changed: a repair that ends
    /// [`RepairOutcome::Completed`] with a verified
    /// `violations_remaining == 0` marks the graph clean for that rule
    /// set, every mutator then notes the nodes it affects, and the next
    /// repair of the same rule set ([`set_fingerprint`]) matches only
    /// around those nodes ([`RepairSeed::Touched`]) — no scan of the
    /// graph, and no closing check: the engine counts what remains from
    /// its residue ([`RepairReport::violations_remaining`]). The mark is
    /// in memory only and is dropped by anything that leaves the graph
    /// unverified: a reopen (the first repair after
    /// [`DurableGraph::open`] is a full scan), a repair that trips its
    /// budget, leaves residual violations or fails to journal, a repair
    /// of a different rule set, and a
    /// delta grown past a quarter of the live nodes (a scan is cheaper
    /// then).
    /// [`DurableGraph::compact`] keeps it. Applied operations, allocated
    /// ids and journaled records are byte-identical either way: with no
    /// match anywhere else, both seeds find the same violations, and the
    /// engine's arbitration order over them is total.
    ///
    /// If an append fails mid-run the engine may still apply further
    /// repairs in memory before the run winds down; the store is then
    /// [poisoned](StoreError::Poisoned) — it refuses all further
    /// mutations so the drifted in-memory state can never contaminate
    /// the journal. Reopen the directory to recover the last durable
    /// state.
    pub fn repair(&mut self, engine: &RepairEngine, rules: &[Grr]) -> Result<RepairReport> {
        self.ensure_writable()?;
        let fp = set_fingerprint(rules);
        // Taken, not borrowed: whatever happens below, the mark only
        // comes back through the verified-clean assignment at the end.
        let mark = self.clean.take();
        let seed = match &mark {
            Some((clean_fp, delta)) if *clean_fp == fp => RepairSeed::Touched(delta),
            _ => RepairSeed::Full,
        };
        let DurableGraph {
            vfs,
            graph,
            writer,
            dir,
            config,
            planner,
            last_seq,
            bytes_since_snapshot,
            telemetry,
            ..
        } = self;
        let mut io_err: Option<StoreError> = None;
        let sink = WalRoundSink {
            vfs,
            writer,
            dir,
            segment_max_bytes: config.segment_max_bytes,
            last_seq,
            bytes_since_snapshot,
            telemetry,
            io_err: &mut io_err,
        };
        let report = engine.repair_with(graph, rules, planner, seed, sink);
        if let Some(e) = io_err {
            self.poison = Some(Poison::Append);
            record_fault(format!("repair journaling failed; store poisoned: {e}"));
            return Err(e);
        }
        self.commit()?;
        self.telemetry
            .set_gauges(self.last_seq, self.snapshot_seq, self.writer.len());
        // `converged` is only ever set by the engine's residual count,
        // which a budget trip skips.
        if report.outcome == RepairOutcome::Completed && report.converged {
            self.clean = Some((fp, TouchSet::default()));
        }
        Ok(report)
    }

    // ---- compaction --------------------------------------------------------

    /// Snapshot the current state, rotate the log, and retire segments
    /// and snapshots that recovery no longer needs.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        let _span = obs::span("store.compaction", "store");
        let compaction_started = obs::timer();
        // A poisoned store must not snapshot: the in-memory graph may
        // hold unjournaled mutations, and persisting them would launder
        // the drift into a recovery point.
        self.ensure_writable()?;
        // Everything the snapshot will cover must be durable first: if
        // the snapshot landed but its covered records did not, a crash
        // would recover *ahead* of the log. A failed write or fsync here
        // poisons like one in commit (same fsyncgate hazard).
        self.flush()?;
        if let Err(e) = self.writer.sync() {
            self.poison = Some(Poison::Fsync);
            record_fault(format!("pre-snapshot fsync failed; store poisoned: {e}"));
            return Err(e);
        }
        write_snapshot_in(&self.vfs, &self.dir, self.last_seq, &self.graph)?;
        let mut stats = CompactionStats {
            snapshot_seq: self.last_seq,
            ..CompactionStats::default()
        };

        // Rotate so the active segment holds only post-snapshot records —
        // unless it is already a fresh, empty segment at the right base
        // (fresh store, or back-to-back compactions).
        if !(self.writer.is_empty() && self.writer.base_seq() == self.last_seq + 1) {
            self.writer = SegmentWriter::create_in(&self.vfs, &self.dir, self.last_seq + 1)?;
        }

        // Retire snapshots beyond the retention window first; the oldest
        // *kept* snapshot then bounds which segments are still needed —
        // recovery must be able to fall back to it and replay forward,
        // so segments covering (oldest_kept, now] stay.
        let snapshots = list_snapshots_in(&self.vfs, &self.dir)?;
        let keep = self.config.keep_snapshots.max(1);
        let cutoff = snapshots.len().saturating_sub(keep);
        for (_, path) in &snapshots[..cutoff] {
            stats.bytes_reclaimed += self.vfs.file_len(path)?;
            with_retry("snapshot.retire", || self.vfs.remove_file(path))?;
            stats.snapshots_retired += 1;
        }
        let oldest_kept = snapshots[cutoff].0;

        // A segment covers [base, next_base); it is retirable once the
        // oldest kept snapshot covers all of it. The active segment has
        // no successor and is never retired.
        let segments = list_segments_in(&self.vfs, &self.dir)?;
        for (i, (_, path)) in segments.iter().enumerate() {
            match segments.get(i + 1) {
                Some((next_base, _)) if *next_base <= oldest_kept + 1 => {
                    stats.bytes_reclaimed += self.vfs.file_len(path)?;
                    with_retry("wal.retire", || self.vfs.remove_file(path))?;
                    stats.segments_retired += 1;
                }
                _ => break,
            }
        }
        // Make the removals durable — best effort *by design*: if this
        // directory sync is lost to a crash, the retired files reappear
        // on reopen, where recovery skips fully-covered segments and
        // ignores superseded snapshots. Stale files cost disk space,
        // never correctness, so a failure here is recorded as a
        // `store.fault` warn event instead of failing the compaction.
        if stats.snapshots_retired + stats.segments_retired > 0 {
            if let Err(e) = self.vfs.sync_dir(&self.dir) {
                record_fault(format!(
                    "post-retirement dir sync failed (best-effort; stale files may \
                     reappear after a crash): {e}"
                ));
            }
        }
        self.snapshot_seq = self.last_seq;
        self.bytes_since_snapshot = 0;
        self.telemetry
            .set_gauges(self.last_seq, self.snapshot_seq, self.writer.len());
        obs::record_since_named("store.compaction_ns", compaction_started);
        Ok(stats)
    }

    /// Compact if the post-snapshot log exceeds
    /// [`StoreConfig::compact_log_bytes`].
    pub fn maybe_compact(&mut self) -> Result<Option<CompactionStats>> {
        if self.bytes_since_snapshot >= self.config.compact_log_bytes {
            return self.compact().map(Some);
        }
        Ok(None)
    }
}

impl<V: Vfs> Drop for DurableGraph<V> {
    fn drop(&mut self) {
        // Hand buffered records to the OS (no fsync) while the lock is
        // still held, so no write lands after another process may own
        // the directory.
        let _ = self.flush();
        if self.locked {
            lock::release(&self.vfs, &self.dir);
        }
    }
}

/// A degradation-tolerant, read-only view of a store directory.
///
/// Where [`DurableGraph::open`] fails closed on any damage outside the
/// active segment's torn tail, a read-only open serves the **newest
/// loadable snapshot plus the longest cleanly replayable log prefix**,
/// reporting what it had to give up. It takes no `LOCK` (it never
/// writes), so it also works beside a live writer — the graph is then a
/// point-in-time prefix of that writer's history.
pub struct ReadOnlyStore {
    graph: Graph,
    /// What the recovery walk found when it rebuilt `graph`.
    report: FsckReport,
}

impl ReadOnlyStore {
    /// Open `dir` read-only; never takes a lock, never writes, and
    /// tolerates damage by serving the longest consistent prefix.
    /// Emits a `store.degraded` warn event when damage forced it to
    /// stop short of the full log.
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_on(&StdFs, dir)
    }

    /// [`ReadOnlyStore::open`] against an explicit backend.
    pub fn open_on<V: Vfs>(vfs: &V, dir: &Path) -> Result<Self> {
        let (report, graph) = fsck_with_graph_in(vfs, dir)?;
        let s = Self { graph, report };
        if s.degraded() {
            obs::counter("store.degraded").inc();
            obs::event(
                obs::Level::Warn,
                "store.degraded",
                format!(
                    "read-only open of {} serving seq {} of a damaged log: {}",
                    dir.display(),
                    s.last_seq(),
                    s.issues().join("; ")
                ),
            );
        }
        Ok(s)
    }

    /// The recovered graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consume the view and keep just the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Highest sequence number the served graph reflects.
    pub fn last_seq(&self) -> u64 {
        self.report.last_seq
    }

    /// Sequence of the snapshot the graph was rebuilt from.
    pub fn snapshot_seq(&self) -> u64 {
        self.report.usable_snapshot_seq
    }

    /// Log records replayed on top of that snapshot.
    pub fn records_replayed(&self) -> u64 {
        self.report.records_replayable
    }

    /// Whether damage forced recovery to stop before the end of the
    /// log (a writable [`DurableGraph::open`] would have failed).
    pub fn degraded(&self) -> bool {
        self.report.verdict == FsckVerdict::Degraded
    }

    /// Human-readable descriptions of everything recovery gave up on.
    pub fn issues(&self) -> &[String] {
        &self.report.issues
    }
}

/// Append one record, rotating to a fresh segment first if the active
/// one is over budget. Free function so [`DurableGraph::repair`]'s sink
/// can call it with split borrows.
fn append_with_rotation<V: Vfs>(
    vfs: &V,
    writer: &mut SegmentWriter<V>,
    dir: &Path,
    segment_max_bytes: u64,
    seq: u64,
    encode: impl FnOnce(&mut ByteWriter),
) -> Result<u64> {
    if writer.len() >= segment_max_bytes && !writer.is_empty() {
        writer.sync()?;
        *writer = SegmentWriter::create_in(vfs, dir, seq)?;
    }
    writer.append_encoded(seq, encode)
}

/// Journal sink for [`DurableGraph::repair`]: the engine hands it each
/// committed round — one applied repair — and every op of the round is
/// encoded straight from the borrowed [`AppliedOp`] into the WAL buffer
/// ([`record::encode_applied`]). The engine abandons a budget-tripped
/// round *before* applying anything, so the journal only ever holds
/// whole rounds and a cancelled durable repair recovers to exactly a
/// committed-round prefix.
struct WalRoundSink<'a, V: Vfs> {
    vfs: &'a V,
    writer: &'a mut SegmentWriter<V>,
    dir: &'a Path,
    segment_max_bytes: u64,
    last_seq: &'a mut u64,
    bytes_since_snapshot: &'a mut u64,
    telemetry: &'a StoreTelemetry,
    io_err: &'a mut Option<StoreError>,
}

impl<V: Vfs> RepairSink for WalRoundSink<'_, V> {
    fn round(&mut self, ops: &[AppliedOp]) {
        // After a failed append the log can no longer reproduce the
        // in-memory state; stop journaling and let the caller poison.
        if self.io_err.is_some() {
            return;
        }
        for op in ops {
            let seq = *self.last_seq + 1;
            let append_started = obs::timer();
            match append_with_rotation(
                self.vfs,
                self.writer,
                self.dir,
                self.segment_max_bytes,
                seq,
                |w| record::encode_applied(w, op),
            ) {
                Ok(written) => {
                    obs::record_since(&self.telemetry.append_ns, append_started);
                    *self.last_seq = seq;
                    *self.bytes_since_snapshot += written;
                }
                Err(e) => {
                    *self.io_err = Some(e);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::list_snapshots;
    use crate::wal::list_segments;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "grepair-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            segment_max_bytes: 256, // force frequent rotation in tests
            compact_log_bytes: 1024,
            keep_snapshots: 2,
            sync_on_commit: true,
        }
    }

    fn populate(s: &mut DurableGraph, persons: usize) -> Vec<NodeId> {
        let city = s.add_node("City").unwrap();
        let mut out = Vec::new();
        for i in 0..persons {
            let n = s
                .add_node_with_attrs(
                    "Person",
                    &[("name".to_owned(), Value::from(format!("p{i}")))],
                )
                .unwrap();
            s.add_edge(n, city, "livesIn").unwrap();
            out.push(n);
        }
        out
    }

    #[test]
    fn create_open_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut s = DurableGraph::create(&dir, small_config()).unwrap();
        let persons = populate(&mut s, 10);
        s.remove_node(persons[3]).unwrap();
        s.commit().unwrap();
        let dump = s.graph().dump_slots();
        let last_seq = s.last_seq();
        drop(s);

        let s = DurableGraph::open(&dir, small_config()).unwrap();
        assert_eq!(s.graph().dump_slots(), dump);
        assert_eq!(s.last_seq(), last_seq);
        assert_eq!(s.last_recovery().records_replayed, last_seq);
        assert_eq!(s.last_recovery().torn_tail_bytes, 0);
        s.graph().check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmpdir("rotate");
        let mut s = DurableGraph::create(&dir, small_config()).unwrap();
        populate(&mut s, 30);
        s.commit().unwrap();
        let status = s.status().unwrap();
        assert!(status.segments > 1, "expected rotation: {status:?}");
        let dump = s.graph().dump_slots();
        drop(s);
        let s = DurableGraph::open(&dir, small_config()).unwrap();
        assert_eq!(s.graph().dump_slots(), dump);
        assert!(s.last_recovery().segments_read > 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_retires_segments_and_preserves_state() {
        let dir = tmpdir("compact");
        let mut s = DurableGraph::create(&dir, small_config()).unwrap();
        let persons = populate(&mut s, 30);
        let before = s.status().unwrap();
        assert!(before.segments > 1);
        let cstats = s.compact().unwrap();
        assert!(cstats.segments_retired >= before.segments);
        assert_eq!(cstats.snapshot_seq, s.last_seq());
        let after = s.status().unwrap();
        assert_eq!(after.segments, 1, "only the fresh active segment remains");
        assert_eq!(after.log_bytes_since_snapshot, 0);

        // Ids remain stable across compaction, and post-compaction
        // mutations land in the new segment.
        s.set_attr(persons[0], "name", Value::from("renamed")).unwrap();
        s.commit().unwrap();
        let dump = s.graph().dump_slots();
        drop(s);
        let s = DurableGraph::open(&dir, small_config()).unwrap();
        assert_eq!(s.graph().dump_slots(), dump);
        assert_eq!(s.last_recovery().snapshot_seq, cstats.snapshot_seq);
        assert_eq!(s.last_recovery().records_replayed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maybe_compact_honors_threshold() {
        let dir = tmpdir("maybe");
        let mut s = DurableGraph::create(&dir, small_config()).unwrap();
        assert!(s.maybe_compact().unwrap().is_none());
        populate(&mut s, 40); // well past 1024 log bytes
        assert!(s.maybe_compact().unwrap().is_some());
        assert!(s.maybe_compact().unwrap().is_none(), "freshly compacted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = tmpdir("torn");
        let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        populate(&mut s, 5);
        s.commit().unwrap();
        let dump = s.graph().dump_slots();
        let last_seq = s.last_seq();
        drop(s);
        // Simulate a crash mid-append: garbage at the tail of the
        // (single) active segment.
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0xAA; 13]);
        std::fs::write(&seg, &bytes).unwrap();

        let mut s = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.last_recovery().torn_tail_bytes, 13);
        assert_eq!(s.graph().dump_slots(), dump);
        assert_eq!(s.last_seq(), last_seq);
        // New appends go after the truncated tail and survive reopen.
        s.add_node("Late").unwrap();
        s.commit().unwrap();
        drop(s);
        let s = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.last_seq(), last_seq + 1);
        assert_eq!(s.last_recovery().torn_tail_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_one() {
        let dir = tmpdir("snapfall");
        let mut s = DurableGraph::create(&dir, small_config()).unwrap();
        populate(&mut s, 10);
        s.compact().unwrap(); // snapshot A
        s.add_node("Extra").unwrap();
        s.compact().unwrap(); // snapshot B (A retained: keep_snapshots=2)
        s.add_node("Post").unwrap();
        s.commit().unwrap();
        let dump = s.graph().dump_slots();
        drop(s);

        // Trash the newest snapshot's payload.
        let (_, newest) = list_snapshots(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() - 3;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let s = DurableGraph::open(&dir, small_config()).unwrap();
        assert_eq!(s.last_recovery().snapshots_skipped, 1);
        assert_eq!(s.graph().dump_slots(), dump, "older snapshot + log replay");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A writable open reads only the newest loadable snapshot and the
    /// segments it does not cover, so damage confined to a superseded
    /// snapshot and a covered segment cannot stop it. fsck reads every
    /// file, reports both, and still calls the store clean.
    #[test]
    fn open_reads_neither_a_superseded_snapshot_nor_a_covered_segment() {
        let dir = tmpdir("unread");
        let mut s = DurableGraph::create(&dir, small_config()).unwrap();
        populate(&mut s, 10);
        s.compact().unwrap(); // snapshot A
        populate(&mut s, 10); // rotates past the segment A starts
        s.compact().unwrap(); // snapshot B; A and its segments retained
        let dump = s.graph().dump_slots();
        drop(s);

        let (superseded, snap) = list_snapshots(&dir).unwrap().remove(0);
        std::fs::write(&snap, b"not a snapshot").unwrap();
        let (covered, seg) = list_segments(&dir).unwrap().remove(0);
        assert_eq!(covered, superseded + 1, "the segment snapshot A started");
        std::fs::write(&seg, b"not a segment header").unwrap();

        let s = DurableGraph::open(&dir, small_config()).unwrap();
        assert_eq!(s.graph().dump_slots(), dump);
        assert_eq!(s.last_recovery().snapshots_skipped, 0);
        assert_eq!(s.last_recovery().segments_read, 1, "the active one");
        let last_seq = s.last_seq();
        drop(s);

        let report = crate::fsck::fsck(&dir).unwrap();
        assert_eq!(report.verdict, FsckVerdict::Clean, "{:?}", report.issues);
        assert_eq!(report.last_seq, last_seq);
        assert_eq!(report.issues.len(), 2, "{:?}", report.issues);
        assert!(report.issues[0].starts_with(&format!("snapshot seq {superseded}:")));
        assert!(report.issues[1].starts_with(&format!("segment base {covered}:")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A missing middle segment is a sequence gap in both scopes of the
    /// recovery walk: the writable open fails with it, and fsck and the
    /// read-only open stop at the last record before it.
    #[test]
    fn a_missing_segment_is_a_sequence_gap_in_both_scopes() {
        let dir = tmpdir("gap");
        let mut s = DurableGraph::create(&dir, small_config()).unwrap();
        populate(&mut s, 10);
        s.commit().unwrap();
        drop(s);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2, "need rotation: {segments:?}");
        std::fs::remove_file(&segments[1].1).unwrap();
        let (expected, found) = (segments[1].0, segments[2].0);
        let gap = format!("sequence gap: expected {expected}, found {found}");

        match DurableGraph::open(&dir, small_config()).err() {
            Some(StoreError::Corrupt { detail, .. }) => assert_eq!(detail, gap),
            other => panic!("expected the gap, got {other:?}"),
        }
        let report = crate::fsck::fsck(&dir).unwrap();
        assert_eq!(report.verdict, FsckVerdict::Degraded);
        assert_eq!(report.issues, [format!("segment base {found}: {gap}")]);
        let ro = ReadOnlyStore::open(&dir).unwrap();
        assert_eq!(ro.last_seq(), expected - 1);
        assert_eq!(ro.records_replayed(), expected - 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_store_and_open_refuses_empty_dir() {
        let dir = tmpdir("guards");
        let s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        drop(s);
        assert!(matches!(
            DurableGraph::create(&dir, StoreConfig::default()),
            Err(StoreError::AlreadyExists(_))
        ));
        let empty = tmpdir("guards-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            DurableGraph::open(&empty, StoreConfig::default()),
            Err(StoreError::NotAStore(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn create_with_seeds_genesis_snapshot() {
        let dir = tmpdir("seeded");
        let mut g = Graph::new();
        let a = g.add_node_named("P");
        let b = g.add_node_named("Q");
        g.add_edge_named(a, b, "r").unwrap();
        let dump = g.dump_slots();
        let s = DurableGraph::create_with(&dir, StoreConfig::default(), g).unwrap();
        assert_eq!(s.graph().dump_slots(), dump);
        drop(s);
        let s = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.graph().dump_slots(), dump);
        assert_eq!(s.last_recovery().records_replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutators_validate_before_journaling() {
        let dir = tmpdir("validate");
        let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        let n = s.add_node("P").unwrap();
        let seq = s.last_seq();
        // Rejected ops journal nothing.
        assert!(s.remove_node(NodeId(99)).is_err());
        assert!(s.add_edge(n, NodeId(99), "r").is_err());
        assert!(s.merge_nodes(n, n, true).is_err());
        assert!(s.set_attr(NodeId(99), "k", Value::Int(1)).is_err());
        assert_eq!(s.last_seq(), seq, "failed mutations must not journal");
        drop(s);
        let s = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.last_seq(), seq);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_store_refuses_mutation_but_recovers_on_reopen() {
        let dir = tmpdir("poison");
        let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        let n = s.add_node("P").unwrap();
        s.commit().unwrap();
        let durable = s.graph().dump_slots();
        let seq = s.last_seq();

        // Simulate a journal failure having happened (the state every
        // append error sets).
        s.poison = Some(Poison::Append);
        assert!(s.is_poisoned());
        assert!(matches!(s.add_node("Q"), Err(StoreError::Poisoned)));
        assert!(matches!(s.remove_node(n), Err(StoreError::Poisoned)));
        assert!(matches!(
            s.set_attr(n, "k", Value::Int(1)),
            Err(StoreError::Poisoned)
        ));
        assert!(matches!(s.compact(), Err(StoreError::Poisoned)));
        assert!(matches!(
            s.repair(&grepair_core::RepairEngine::default(), &[]),
            Err(StoreError::Poisoned)
        ));
        // Reads and fsync of the valid prefix stay available.
        assert_eq!(s.graph().num_nodes(), 1);
        s.commit().unwrap();
        assert_eq!(s.last_seq(), seq, "nothing journaled while poisoned");
        drop(s);

        // Reopen recovers the last durable state, unpoisoned.
        let mut s = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert!(!s.is_poisoned());
        assert_eq!(s.graph().dump_slots(), durable);
        s.add_node("Q").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_attr_key_is_last_wins_in_graph_store_and_replay() {
        let dir = tmpdir("dupkey");
        let attrs = [
            ("k".to_owned(), Value::Int(1)),
            ("k".to_owned(), Value::Int(2)),
        ];
        let mut g = Graph::new();
        let p = g.label("P");
        let keyed: Vec<_> = attrs
            .iter()
            .map(|(k, v)| (g.attr_key(k), v.clone()))
            .collect();
        let n = g.add_node_with_attrs(p, keyed);
        let k = g.try_attr_key("k").unwrap();
        assert_eq!(g.attr(n, k), Some(&Value::Int(2)));

        let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        s.add_node_with_attrs("P", &attrs).unwrap();
        s.commit().unwrap();
        assert_eq!(s.graph().to_doc(), g.to_doc(), "live store");
        drop(s);
        let s = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.graph().to_doc(), g.to_doc(), "reopened store");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_counts_buffered_records_in_the_active_segment() {
        let dir = tmpdir("status-buffered");
        let mut s = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
        populate(&mut s, 3);
        let buffered = s.status().unwrap();
        assert_eq!(buffered.segment_bytes, buffered.active_log_bytes);
        assert!(buffered.active_log_bytes > SEGMENT_HEADER_LEN);
        s.commit().unwrap();
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            buffered.segment_bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_reports_shape() {
        let dir = tmpdir("status");
        let mut s = DurableGraph::create(&dir, small_config()).unwrap();
        populate(&mut s, 8);
        let st = s.status().unwrap();
        assert_eq!(st.live_nodes, 9);
        assert_eq!(st.live_edges, 8);
        assert_eq!(st.last_seq, s.last_seq());
        assert!(st.log_bytes_since_snapshot > 0);
        assert!(st.segment_bytes > 0);
        assert_eq!(st.snapshot_age_seqs, s.last_seq(), "no snapshot yet");
        assert!(st.active_log_bytes > 0);
        let text = st.to_string();
        assert!(text.contains("|V|=9"), "{text}");
        assert!(text.contains("snapshot age:"), "{text}");

        // After compaction the snapshot covers everything journaled.
        s.compact().unwrap();
        let st = s.status().unwrap();
        assert_eq!(st.snapshot_age_seqs, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

}
