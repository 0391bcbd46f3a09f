//! The one recovery walk over a store directory: the newest loadable
//! snapshot, then every segment in base order, each record applied as
//! the frame scanner decodes it. The rules that decide which committed
//! prefix a store recovers are written here once:
//!
//! - **Snapshots**, newest first: the first that reads, checksums and
//!   restores is the base. A damaged newer one is skipped — the log still
//!   holds its records, so recovery replays a longer suffix.
//! - **Covered segments**: a segment whose successor starts at or below
//!   the first sequence the base needs holds nothing to replay.
//! - **Ordering**: records the base covers are skipped; the next record
//!   must carry the next sequence number (else a gap) and must replay to
//!   the ids it journaled (else a divergence).
//! - **Torn tail vs damage**: invalid bytes ending the last segment with
//!   no valid frame after them are a crash's torn tail; invalid bytes
//!   anywhere else are damage.
//!
//! A [`Scope`] says how much each caller reads and what it does at
//! damage.

use crate::error::{Result, StoreError};
use crate::fsck::{SegmentHealth, SnapshotHealth};
use crate::snapshot::{list_snapshots_in, read_snapshot_in};
use crate::store::{dir_has_store_in, record_fault, RecoveryStats};
use crate::vfs::{with_retry, Vfs};
use crate::wal::{list_segments_in, scan_segment};
use grepair_graph::Graph;
use grepair_obs as obs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How much of a store [`walk`] reads, and what it does at damage. No
/// scope writes.
#[derive(Clone, Copy)]
pub(crate) enum Scope<'a> {
    /// The writable [`crate::DurableGraph::open`]: the newest loadable
    /// snapshot and the uncovered segments only, the budget observed
    /// between segments, and the typed error of the first damage.
    Open(&'a obs::Budget),
    /// [`crate::fsck::fsck`] and [`crate::ReadOnlyStore::open`]: every
    /// file gets a health row, and damage ends replay but not the walk,
    /// whose later records are counted and not applied.
    Inspect,
}

/// What [`walk`] recovered and found. The health rows, `truncation` and
/// `issues` are [`crate::FsckReport`]'s, filled in [`Scope::Inspect`]
/// only.
#[derive(Default)]
pub(crate) struct Walk {
    /// The base snapshot plus every replayed record.
    pub graph: Graph,
    /// Counts and timings; the caller sets `wall`.
    pub stats: RecoveryStats,
    /// Highest sequence the graph reflects.
    pub last_seq: u64,
    /// Frame bytes of the replayed records.
    pub bytes_since_snapshot: u64,
    /// The last segment — path, base sequence and valid length — where a
    /// writable open resumes appending.
    pub active: Option<(PathBuf, u64, u64)>,
    pub snapshots: Vec<SnapshotHealth>,
    pub segments: Vec<SegmentHealth>,
    pub truncation: Option<(PathBuf, u64)>,
    pub issues: Vec<String>,
    /// Damage ended replay ([`Scope::Inspect`] only: an open fails).
    pub degraded: bool,
}

impl Walk {
    /// Damage where replay was going: [`Scope::Open`] fails with `err`;
    /// [`Scope::Inspect`] records `issue` and stops replaying.
    fn damage(&mut self, scope: Scope<'_>, err: StoreError, issue: String) -> Result<()> {
        if let Scope::Open(_) = scope {
            return Err(err);
        }
        self.issues.push(issue);
        self.degraded = true;
        Ok(())
    }
}

/// [`StoreError::NotAStore`] unless `dir` is a directory holding at
/// least one segment or snapshot. A listing failure (permissions, fd
/// exhaustion) propagates: calling it `NotAStore` would invite the user
/// to re-init over a valid store.
pub(crate) fn require_store<V: Vfs>(vfs: &V, dir: &Path) -> Result<()> {
    if vfs.is_dir(dir) && dir_has_store_in(vfs, dir)? {
        Ok(())
    } else {
        Err(StoreError::NotAStore(dir.to_path_buf()))
    }
}

/// Walk the store in `dir` (see the module doc). Reads only.
pub(crate) fn walk<V: Vfs>(vfs: &V, dir: &Path, scope: Scope<'_>) -> Result<Walk> {
    let started = Instant::now();
    let inspect = matches!(scope, Scope::Inspect);
    let mut w = Walk::default();

    let mut based = false;
    for (seq, path) in list_snapshots_in(vfs, dir)?.into_iter().rev() {
        if based && !inspect {
            break;
        }
        let (loadable, status) = match read_snapshot_in(vfs, &path) {
            Ok((s, g)) if !based => {
                based = true;
                w.graph = g;
                w.stats.snapshot_seq = s;
                (true, "ok".to_owned())
            }
            Ok(_) => (true, "superseded".to_owned()),
            Err(e) => {
                w.stats.snapshots_skipped += 1;
                match scope {
                    Scope::Open(_) => record_fault(format!("skipping damaged snapshot: {e}")),
                    Scope::Inspect => w.issues.push(format!("snapshot seq {seq}: {e}")),
                }
                (false, format!("damaged: {e}"))
            }
        };
        if inspect {
            let bytes = vfs.file_len(&path).unwrap_or(0);
            w.snapshots.push(SnapshotHealth {
                seq,
                path,
                bytes,
                loadable,
                status,
            });
        }
    }
    w.stats.snapshot_load = started.elapsed();

    let replay_started = Instant::now();
    let segments = list_segments_in(vfs, dir)?;
    let mut next_seq = w.stats.snapshot_seq + 1;
    for (i, (base, path)) in segments.iter().enumerate() {
        if let Scope::Open(budget) = scope {
            // Between segments only: a segment replays whole once
            // started, and nothing here writes, so an interrupted open
            // leaves the directory as it was.
            if let Some(reason) = budget.checkpoint() {
                return Err(StoreError::Interrupted(reason));
            }
        }
        let is_last = i + 1 == segments.len();
        let stopped = w.degraded;
        let covered = !stopped
            && segments
                .get(i + 1)
                .is_some_and(|(next, _)| *next <= next_seq);
        if covered && !inspect {
            continue;
        }
        let replay = !covered && !stopped;
        let mut frames = 0u64;
        let mut halt: Option<StoreError> = None;
        let scan = with_retry("wal.read", || vfs.read(path))
            .map_err(StoreError::from)
            .and_then(|bytes| {
                scan_segment(path, &bytes, Some(*base), |seq, m, frame_len| {
                    frames += 1;
                    if !replay || halt.is_some() || seq < next_seq {
                        return;
                    }
                    if seq != next_seq {
                        halt = Some(StoreError::Corrupt {
                            path: path.clone(),
                            detail: format!("sequence gap: expected {next_seq}, found {seq}"),
                        });
                        return;
                    }
                    halt = match m.apply(&mut w.graph) {
                        Ok(()) => {
                            w.stats.records_replayed += 1;
                            w.bytes_since_snapshot += frame_len;
                            next_seq += 1;
                            return;
                        }
                        Err(StoreError::ReplayDivergence { detail, .. }) => {
                            Some(StoreError::ReplayDivergence { seq, detail })
                        }
                        Err(StoreError::Graph(g)) => Some(StoreError::ReplayDivergence {
                            seq,
                            detail: format!("graph rejected journaled op: {g}"),
                        }),
                        Err(other) => Some(other),
                    };
                })
            });
        w.stats.segments_read += 1;
        let bytes = if inspect {
            vfs.file_len(path).unwrap_or(0)
        } else {
            0
        };

        // A segment's damage ranks: a file the scanner rejects, then the
        // record replay refused, then invalid bytes that a valid frame or
        // a later segment follows.
        let (torn_bytes, status) = match scan {
            Err(e) => {
                // Not one record is attributable to a file the scanner
                // rejects.
                let status = format!("damaged: {e}");
                let issue = format!("segment base {base}: {e}");
                if replay {
                    w.damage(scope, e, issue)?;
                } else {
                    w.issues.push(issue);
                }
                (bytes, status)
            }
            Ok(scan) => {
                let status = if covered {
                    if scan.torn_bytes > 0 {
                        // Harmless — a writable open never reads this
                        // file — but the damage predates the snapshot.
                        w.issues.push(format!(
                            "segment base {base}: {} invalid bytes (covered by snapshot; \
                             recovery unaffected)",
                            scan.torn_bytes
                        ));
                    }
                    "covered by snapshot".to_owned()
                } else if stopped {
                    format!("unreachable ({frames} records beyond the damage point)")
                } else if let Some(e) = halt {
                    let detail = match &e {
                        StoreError::Corrupt { detail, .. } => detail.clone(),
                        e => e.to_string(),
                    };
                    let status = format!("damaged: {detail}");
                    w.damage(scope, e, format!("segment base {base}: {detail}"))?;
                    status
                } else if scan.mid_log_damage || (scan.torn_bytes > 0 && !is_last) {
                    w.truncation = Some((path.clone(), scan.valid_len));
                    let issue = format!(
                        "segment base {base}: {} invalid bytes mid-log with committed \
                         records after them",
                        scan.torn_bytes
                    );
                    w.damage(scope, scan.corrupt(path), issue)?;
                    "damaged: invalid bytes mid-log".to_owned()
                } else if scan.torn_bytes > 0 {
                    // The one damage a writable open absorbs: it
                    // truncates the tail before appending.
                    w.truncation = Some((path.clone(), scan.valid_len));
                    w.stats.torn_tail_bytes = scan.torn_bytes;
                    match scope {
                        Scope::Open(_) => record_fault(format!(
                            "truncating {} torn tail bytes from {}",
                            scan.torn_bytes,
                            path.display()
                        )),
                        Scope::Inspect => w.issues.push(format!(
                            "segment base {base}: {} torn tail bytes (crash residue; \
                             a writable open truncates them)",
                            scan.torn_bytes
                        )),
                    }
                    "torn tail".to_owned()
                } else {
                    "clean".to_owned()
                };
                if is_last {
                    w.active = Some((path.clone(), *base, scan.valid_len));
                }
                (scan.torn_bytes, status)
            }
        };
        if inspect {
            w.segments.push(SegmentHealth {
                base_seq: *base,
                path: path.clone(),
                bytes,
                records: frames,
                torn_bytes,
                status,
            });
        }
    }
    w.stats.replay = replay_started.elapsed();
    w.last_seq = next_seq - 1;
    Ok(w)
}
