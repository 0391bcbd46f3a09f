//! Store health checking: dry-run recovery without taking the lock.
//!
//! [`fsck`] *is* the recovery walk a writable [`crate::DurableGraph::open`]
//! runs, in the scope that diagnoses instead of failing: every snapshot
//! and segment gets a health row, damage is collected as issues and ends
//! replay but not the walk, and the report says where recovery stops and
//! whether a writable open would succeed ([`FsckVerdict`]). Nothing is
//! modified: no truncation, no lock file, no segment rewrite.
//!
//! [`crate::ReadOnlyStore`] serves the graph the same walk rebuilds: the
//! newest loadable snapshot plus the longest cleanly replayable log
//! prefix of a damaged store.

use crate::error::Result;
use crate::lock::{self, LockStatus};
use crate::recovery::{require_store, walk, Scope};
use crate::vfs::{StdFs, Vfs};
use grepair_graph::Graph;
use grepair_obs as obs;
use std::path::{Path, PathBuf};

/// Overall health classification — keyed to what a *writable*
/// [`crate::DurableGraph::open`] of the same directory would do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsckVerdict {
    /// Every file validates end to end; open would replay everything.
    Clean,
    /// The only damage is a torn tail on the active segment — the
    /// normal residue of a crash mid-append. Open succeeds and
    /// truncates it.
    TornTail,
    /// Damage a writable open refuses to absorb (mid-log corruption,
    /// sequence gap, torn non-active segment, undecodable record).
    /// Only [`crate::ReadOnlyStore`] can serve this store, as a prefix.
    Degraded,
}

impl std::fmt::Display for FsckVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckVerdict::Clean => write!(f, "clean"),
            FsckVerdict::TornTail => write!(f, "torn-tail"),
            FsckVerdict::Degraded => write!(f, "degraded"),
        }
    }
}

/// Health of one snapshot file.
#[derive(Clone, Debug)]
pub struct SnapshotHealth {
    /// Sequence the snapshot claims to cover.
    pub seq: u64,
    /// The file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// `true` if the snapshot reads, checksums and restores cleanly.
    pub loadable: bool,
    /// Human-readable status (`ok`, `superseded`, `damaged: …`).
    pub status: String,
}

/// Health of one WAL segment file.
#[derive(Clone, Debug)]
pub struct SegmentHealth {
    /// Base sequence from the file name.
    pub base_seq: u64,
    /// The file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Decodable records in the file (replayed or not).
    pub records: u64,
    /// Bytes past the last valid frame.
    pub torn_bytes: u64,
    /// Human-readable status (`clean`, `covered by snapshot`,
    /// `torn tail`, `damaged: …`).
    pub status: String,
}

/// Everything [`fsck`] learned about a store directory.
#[derive(Clone, Debug)]
pub struct FsckReport {
    /// The directory examined.
    pub dir: PathBuf,
    /// State of the `LOCK` file.
    pub lock: LockStatus,
    /// One row per snapshot file, newest first.
    pub snapshots: Vec<SnapshotHealth>,
    /// One row per segment file, in base-sequence order.
    pub segments: Vec<SegmentHealth>,
    /// Sequence of the newest snapshot that loads cleanly (0 = genesis).
    pub usable_snapshot_seq: u64,
    /// Highest sequence recovery can serve (snapshot + replayable prefix).
    pub last_seq: u64,
    /// Log records replayable on top of the usable snapshot.
    pub records_replayable: u64,
    /// Where valid data ends, if recovery stops short of the end of a
    /// file: `(file, byte offset)`. A writable open truncates here (torn
    /// tail) or refuses (mid-log damage).
    pub truncation: Option<(PathBuf, u64)>,
    /// Human-readable descriptions of every problem found.
    pub issues: Vec<String>,
    /// Overall classification.
    pub verdict: FsckVerdict,
}

impl FsckReport {
    /// Multi-line human-readable rendering (the CLI's default output).
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "fsck {}: {}", self.dir.display(), self.verdict);
        let _ = writeln!(out, "lock: {}", self.lock);
        let _ = writeln!(
            out,
            "recoverable: seq {} ({} snapshot + {} replayable records)",
            self.last_seq, self.usable_snapshot_seq, self.records_replayable
        );
        if let Some((path, off)) = &self.truncation {
            let _ = writeln!(out, "valid data ends at byte {off} of {}", path.display());
        }
        let _ = writeln!(out, "snapshots: {}", self.snapshots.len());
        for s in &self.snapshots {
            let _ = writeln!(
                out,
                "  snap seq {} ({} bytes): {}",
                s.seq, s.bytes, s.status
            );
        }
        let _ = writeln!(out, "segments: {}", self.segments.len());
        for s in &self.segments {
            let _ = writeln!(
                out,
                "  wal base {} ({} bytes, {} records): {}",
                s.base_seq, s.bytes, s.records, s.status
            );
        }
        if self.issues.is_empty() {
            let _ = writeln!(out, "issues: none");
        } else {
            let _ = writeln!(out, "issues: {}", self.issues.len());
            for i in &self.issues {
                let _ = writeln!(out, "  - {i}");
            }
        }
        out
    }

    /// Single-object JSON rendering (the CLI's `--format json` output).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"dir\":\"{}\",\"verdict\":\"{}\",\"lock\":\"{}\",\
             \"usable_snapshot_seq\":{},\"last_seq\":{},\"records_replayable\":{}",
            esc(&self.dir.display().to_string()),
            self.verdict,
            esc(&self.lock.to_string()),
            self.usable_snapshot_seq,
            self.last_seq,
            self.records_replayable
        );
        match &self.truncation {
            Some((path, off)) => {
                let _ = write!(
                    out,
                    ",\"truncation\":{{\"path\":\"{}\",\"valid_len\":{off}}}",
                    esc(&path.display().to_string())
                );
            }
            None => out.push_str(",\"truncation\":null"),
        }
        out.push_str(",\"snapshots\":[");
        for (i, s) in self.snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"path\":\"{}\",\"bytes\":{},\"loadable\":{},\"status\":\"{}\"}}",
                s.seq,
                esc(&s.path.display().to_string()),
                s.bytes,
                s.loadable,
                esc(&s.status)
            );
        }
        out.push_str("],\"segments\":[");
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"base_seq\":{},\"path\":\"{}\",\"bytes\":{},\"records\":{},\
                 \"torn_bytes\":{},\"status\":\"{}\"}}",
                s.base_seq,
                esc(&s.path.display().to_string()),
                s.bytes,
                s.records,
                s.torn_bytes,
                esc(&s.status)
            );
        }
        out.push_str("],\"issues\":[");
        for (i, issue) in self.issues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", esc(issue));
        }
        out.push_str("]}");
        out
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Check the store in `dir` without modifying anything.
pub fn fsck(dir: &Path) -> Result<FsckReport> {
    fsck_in(&StdFs, dir)
}

/// [`fsck`] against an explicit backend.
pub fn fsck_in<V: Vfs>(vfs: &V, dir: &Path) -> Result<FsckReport> {
    fsck_with_graph_in(vfs, dir).map(|(report, _)| report)
}

/// The [`Scope::Inspect`] walk as a report, with the graph it rebuilt
/// (the newest loadable snapshot plus every cleanly replayable record):
/// what [`crate::ReadOnlyStore::open`] serves.
pub(crate) fn fsck_with_graph_in<V: Vfs>(vfs: &V, dir: &Path) -> Result<(FsckReport, Graph)> {
    let _span = obs::span("store.fsck", "store");
    let fsck_started = obs::timer();
    require_store(vfs, dir)?;
    let w = walk(vfs, dir, Scope::Inspect)?;
    let report = FsckReport {
        dir: dir.to_path_buf(),
        lock: lock::status(vfs, dir),
        snapshots: w.snapshots,
        segments: w.segments,
        usable_snapshot_seq: w.stats.snapshot_seq,
        last_seq: w.last_seq,
        records_replayable: w.stats.records_replayed,
        truncation: w.truncation,
        issues: w.issues,
        verdict: if w.degraded {
            FsckVerdict::Degraded
        } else if w.stats.torn_tail_bytes > 0 {
            FsckVerdict::TornTail
        } else {
            FsckVerdict::Clean
        },
    };
    obs::record_since_named("store.fsck_ns", fsck_started);
    obs::counter("store.fsck_runs").inc();
    Ok((report, w.graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::store::{DurableGraph, StoreConfig};
    use crate::wal::list_segments;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "grepair-fsck-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            segment_max_bytes: 256,
            compact_log_bytes: 1024,
            keep_snapshots: 2,
            sync_on_commit: true,
        }
    }

    fn build(dir: &Path, n: usize) -> DurableGraph {
        let mut s = DurableGraph::create(dir, small_config()).unwrap();
        let city = s.add_node("City").unwrap();
        for i in 0..n {
            let p = s.add_node(&format!("P{i}")).unwrap();
            s.add_edge(p, city, "livesIn").unwrap();
        }
        s.commit().unwrap();
        s
    }

    #[test]
    fn clean_store_is_clean() {
        let dir = tmpdir("clean");
        let s = build(&dir, 10);
        let last_seq = s.last_seq();
        drop(s);
        let report = fsck(&dir).unwrap();
        assert_eq!(report.verdict, FsckVerdict::Clean);
        assert_eq!(report.last_seq, last_seq);
        assert_eq!(report.records_replayable, last_seq);
        assert!(report.issues.is_empty(), "{:?}", report.issues);
        assert_eq!(report.lock, LockStatus::Unlocked);
        assert!(report.truncation.is_none());
        assert!(report.render_text().contains("clean"));
        assert!(report.to_json().contains("\"verdict\":\"clean\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_reported_with_truncation_point() {
        let dir = tmpdir("torn");
        let s = build(&dir, 3);
        let last_seq = s.last_seq();
        drop(s);
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let valid = std::fs::metadata(&seg).unwrap().len();
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0xAA; 9]);
        std::fs::write(&seg, &bytes).unwrap();

        let report = fsck(&dir).unwrap();
        assert_eq!(report.verdict, FsckVerdict::TornTail);
        assert_eq!(report.last_seq, last_seq, "tail damage loses no records");
        assert_eq!(report.truncation, Some((seg, valid)));
        // And a writable open still succeeds, as the verdict promises.
        assert!(DurableGraph::open(&dir, small_config()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_log_damage_is_degraded_with_prefix_counted() {
        let dir = tmpdir("midlog");
        let s = build(&dir, 20); // rotates: several segments
        drop(s);
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 2, "need rotation for this test");
        // Zero out a byte early in the SECOND segment's first record.
        let victim = &segs[1].1;
        let mut bytes = std::fs::read(victim).unwrap();
        let target = crate::wal::SEGMENT_HEADER_LEN as usize + 10;
        bytes[target] ^= 0xFF;
        std::fs::write(victim, &bytes).unwrap();

        let report = fsck(&dir).unwrap();
        assert_eq!(report.verdict, FsckVerdict::Degraded);
        // The first segment's records are still replayable…
        assert!(report.records_replayable > 0);
        // …and the segments past the damage are visible but unreached.
        assert!(report
            .segments
            .iter()
            .any(|s| s.status.starts_with("unreachable")));
        // A writable open refuses, as the verdict promises.
        assert!(DurableGraph::open(&dir, small_config()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_newest_snapshot_is_an_issue_but_not_degraded() {
        let dir = tmpdir("snapbad");
        let mut s = build(&dir, 10);
        s.compact().unwrap();
        s.add_node("After").unwrap();
        s.compact().unwrap(); // two snapshots retained
        drop(s);
        let (_, newest) = crate::snapshot::list_snapshots(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() - 3;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let report = fsck(&dir).unwrap();
        assert_eq!(report.verdict, FsckVerdict::Clean, "{:?}", report.issues);
        assert!(!report.issues.is_empty());
        assert!(report.snapshots.iter().any(|s| !s.loadable));
        assert!(report.snapshots.iter().any(|s| s.loadable));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_refuses_non_store_directories() {
        let dir = tmpdir("nonstore");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(fsck(&dir), Err(StoreError::NotAStore(_))));
        assert!(matches!(
            fsck(&dir.join("missing")),
            Err(StoreError::NotAStore(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
