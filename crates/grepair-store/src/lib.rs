//! # grepair-store
//!
//! Durable persistence for the `grepair` stack: an append-only,
//! checksummed write-ahead log of graph mutations, compact binary
//! snapshots, and crash recovery by snapshot-load + log-replay.
//!
//! The reproduction's repair engine targets graphs that outlive a
//! single process; this crate is the layer that makes applied repairs
//! survive it. The central type is [`DurableGraph`]: a
//! [`grepair_graph::Graph`] wrapper that journals every mutation —
//! including every repair the engine applies, via the op sink of
//! [`grepair_core::RepairEngine::repair_with`] — before
//! acknowledging it.
//!
//! ## Guarantees
//!
//! - **Prefix consistency.** The durable state is always the graph
//!   produced by some prefix of the journaled mutation sequence that
//!   contains every committed mutation (the journal buffers records;
//!   `commit` writes and fsyncs them). A crash mid-write leaves a torn
//!   tail that recovery truncates at the first bad checksum; it never
//!   panics on a partial record and never applies a record it cannot
//!   validate.
//! - **Slot exactness.** Snapshots record tombstones and free-list
//!   order, so element ids — which the engine's violation queues hold
//!   across mutations — are identical after recovery, and log records
//!   referencing concrete ids replay byte-exactly on top of any
//!   snapshot. A snapshot is encoded straight from the graph's slots
//!   and loads through [`grepair_graph::SlotLoader`], the graph's one
//!   validating slot loader.
//! - **Recovery at the cost of the bytes.** Replay scans each segment
//!   frame by frame and applies each record as it is decoded: names are
//!   borrowed from the file buffer and values move into the graph, so no
//!   owned record or segment-wide record list is built.
//! - **Fail-closed validation.** Every record and snapshot is covered
//!   by a CRC-32; damage outside the torn tail refuses recovery with a
//!   precise [`StoreError`] instead of serving a graph with holes.
//!
//! ## Quick tour
//!
//! ```
//! use grepair_store::{DurableGraph, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("grepair-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! let mut store = DurableGraph::create(&dir, StoreConfig::default()).unwrap();
//! let ann = store.add_node("Person").unwrap();
//! let oslo = store.add_node("City").unwrap();
//! store.add_edge(ann, oslo, "livesIn").unwrap();
//! store.commit().unwrap();
//! drop(store);
//!
//! // Reopen: recovery replays the journal.
//! let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
//! assert_eq!(store.graph().num_nodes(), 2);
//! assert_eq!(store.last_recovery().records_replayed, 3);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! ## Fault tolerance
//!
//! Every file operation goes through the [`vfs::Vfs`] trait; production
//! code uses the zero-cost [`StdFs`] passthrough (static dispatch via a
//! default type parameter), while the fault-injection tests drive the
//! identical code paths over an in-memory `FaultyFs` that can fail the
//! Nth fsync, tear a write, or crash at any chosen operation. A failed
//! fsync *poisons* the store (retrying an fsync after a failure can
//! silently lose the pages the first call failed on); transient errors
//! on metadata operations are retried with bounded backoff; a
//! cross-process `LOCK` file (pid + boot id, staleness-detected)
//! enforces the single-writer contract; and [`ReadOnlyStore`] /
//! [`fsck::fsck`] serve and diagnose stores too damaged for a writable
//! open.
//!
//! ## Module map
//!
//! - [`store`] — [`DurableGraph`], compaction, introspection,
//!   [`ReadOnlyStore`].
//! - `recovery` (private) — the one recovery walk (snapshot load, then
//!   segment replay) that the writable open, [`ReadOnlyStore::open`] and
//!   [`fsck::fsck`] share.
//! - [`wal`] — segment files, framing, the frame scanner recovery
//!   applies through, torn-tail detection.
//! - [`snapshot`] — binary snapshot files, encoded from and decoded
//!   into a [`grepair_graph::Graph`] directly.
//! - [`record`] — the journaled record codec and the borrowed form
//!   recovery decodes and applies; the owned [`Mutation`] is the tests'
//!   record type.
//! - [`codec`] — byte-level encoding and the CRC-32.
//! - [`vfs`] — the storage backend trait, [`StdFs`], retry policy, and
//!   the fault-injection backend (tests / `fault-injection` feature).
//! - [`lock`] — the `LOCK` file and staleness detection.
//! - [`fsck`](mod@fsck) — the recovery walk's health report.
//! - [`error`] — [`StoreError`].

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod error;
pub mod fsck;
pub mod lock;
pub mod record;
mod recovery;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wal;

pub use error::{Result, StoreError};
pub use fsck::{fsck, FsckReport, FsckVerdict, SegmentHealth, SnapshotHealth};
pub use lock::LockStatus;
pub use record::Mutation;
pub use store::{
    CompactionStats, DurableGraph, ReadOnlyStore, RecoveryStats, StoreConfig, StoreStatus,
};
pub use vfs::{StdFs, Vfs, VfsFile};
#[cfg(any(test, feature = "fault-injection"))]
pub use vfs::{FaultOp, FaultOpCounts, FaultyFile, FaultyFs, InjectedError};
pub use wal::{SegmentContents, SegmentWriter, WalRecord};
