//! Append-only, checksummed WAL segments.
//!
//! A store's log is a sequence of segment files named
//! `wal-<base_seq:016x>.seg`. Each segment starts with a fixed header
//! (magic, format version, base sequence number — which must agree with
//! the file name) followed by framed records:
//!
//! ```text
//! ┌─────────┬─────────┬────────────────────────────┐
//! │ len u32 │ crc u32 │ payload (len bytes)        │
//! └─────────┴─────────┴────────────────────────────┘
//! payload = seq u64 · Mutation (see `record`)
//! ```
//!
//! The CRC-32 covers the payload only; `len` is implicitly validated by
//! the CRC (a corrupt length either exceeds the file — torn — or
//! misframes the payload and fails the checksum). Reading stops at the
//! first frame that is incomplete or fails its checksum; the byte offset
//! of that frame is the segment's *valid length*. On the active (last)
//! segment this is the crash-torn tail and is truncated away on open;
//! anywhere else it is corruption and refuses recovery. A torn tail is
//! only accepted when nothing decodable follows it: if a valid frame
//! exists anywhere past the first invalid one, the damage is mid-log
//! (truncating would drop committed records) and reading fails closed
//! with [`StoreError::Corrupt`].

use crate::codec::{crc32, ByteReader, ByteWriter};
use crate::error::{Result, StoreError};
use crate::record::{Mutation, MutationRef};
use crate::vfs::{with_retry, StdFs, Vfs, VfsFile};
use grepair_obs as obs;
use std::path::{Path, PathBuf};

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 8] = *b"GRWAL1\n\0";
/// On-disk format version.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed segment header size: magic + version + base_seq.
pub const SEGMENT_HEADER_LEN: u64 = 8 + 4 + 8;
/// Upper bound on a single record's payload, to keep a corrupt length
/// field from driving a giant allocation.
pub const MAX_RECORD_LEN: u32 = 1 << 28;

/// File name of the segment whose first record has sequence `base_seq`.
pub fn segment_file_name(base_seq: u64) -> String {
    format!("wal-{base_seq:016x}.seg")
}

/// Parse a segment file name back to its base sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Buffered frames are handed to the file once they reach this many
/// bytes (and before every sync), so a bulk ingest pays one `write(2)`
/// per 64 KiB instead of one per record.
const FLUSH_BYTES: usize = 64 * 1024;

/// Append handle on one segment file. Generic over the storage backend;
/// the default is the production passthrough [`StdFs`].
///
/// Frames are encoded in place at the end of a private buffer and
/// written out in batches: when the buffer reaches 64 KiB, before every
/// [`SegmentWriter::sync`], and on drop (without an fsync). An appended
/// record is therefore in the journal, not yet in the file; only a sync
/// puts it on disk. After a failed write the writer drops its buffer
/// and never writes again — not even on drop: a valid frame landing
/// after torn bytes would turn a recoverable torn tail into mid-log
/// corruption.
pub struct SegmentWriter<V: Vfs = StdFs> {
    file: V::File,
    path: PathBuf,
    base_seq: u64,
    /// Logical length: bytes in the file plus bytes buffered.
    len: u64,
    pending: ByteWriter,
    failed: bool,
}

/// One `write_all` by a segment writer, counted on `wal.writes`.
fn write_counted<F: VfsFile>(file: &mut F, bytes: &[u8]) -> std::io::Result<()> {
    obs::counter("wal.writes").inc();
    file.write_all(bytes)
}

impl SegmentWriter<StdFs> {
    /// Create a fresh segment (fails if the file exists).
    pub fn create(dir: &Path, base_seq: u64) -> Result<Self> {
        Self::create_in(&StdFs, dir, base_seq)
    }

    /// Reopen an existing segment for appending, first truncating it to
    /// `valid_len` (dropping a crash-torn tail, if any).
    pub fn open_end(path: &Path, base_seq: u64, valid_len: u64) -> Result<Self> {
        Self::open_end_in(&StdFs, path, base_seq, valid_len)
    }
}

impl<V: Vfs> SegmentWriter<V> {
    /// [`SegmentWriter::create`] against an explicit backend.
    pub fn create_in(vfs: &V, dir: &Path, base_seq: u64) -> Result<Self> {
        let path = dir.join(segment_file_name(base_seq));
        let mut file = with_retry("wal.create", || vfs.create_new(&path))?;
        let mut bytes = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        bytes.extend_from_slice(&SEGMENT_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&base_seq.to_le_bytes());
        write_counted(&mut file, &bytes)?;
        file.sync_data()?;
        // Persist the directory entry too: without this, a power cut can
        // erase the whole (acknowledged) segment on journaling file
        // systems — the file's data was synced but its name was not.
        // This is the commit path (every acknowledged record in this
        // segment depends on the name surviving), so the result
        // propagates as a hard error rather than being dropped.
        vfs.sync_dir(dir)?;
        Ok(Self::new(file, path, base_seq, SEGMENT_HEADER_LEN))
    }

    /// [`SegmentWriter::open_end`] against an explicit backend.
    pub fn open_end_in(vfs: &V, path: &Path, base_seq: u64, valid_len: u64) -> Result<Self> {
        let file = with_retry("wal.open", || vfs.open_append(path, valid_len))?;
        Ok(Self::new(file, path.to_path_buf(), base_seq, valid_len))
    }

    fn new(file: V::File, path: PathBuf, base_seq: u64, len: u64) -> Self {
        Self {
            file,
            path,
            base_seq,
            len,
            pending: ByteWriter::new(),
            failed: false,
        }
    }

    /// Append one framed record; returns the frame size in bytes.
    ///
    /// A payload over [`MAX_RECORD_LEN`] is rejected before the frame is
    /// kept: the reader treats oversized lengths as torn, so an
    /// accepted-but-unreadable record would be silently truncated away
    /// (with everything after it) on the next recovery.
    pub fn append(&mut self, seq: u64, m: &Mutation) -> Result<u64> {
        self.append_encoded(seq, |w| m.encode(w))
    }

    /// [`SegmentWriter::append`] for a payload `encode` writes: the
    /// store's mutators journal from their borrowed arguments through
    /// the `record` encoders, without an owned [`Mutation`]. Returns an
    /// error — the record is not journaled — if the buffer had to be
    /// flushed first and that write failed, or if this writer failed
    /// before.
    pub(crate) fn append_encoded(
        &mut self,
        seq: u64,
        encode: impl FnOnce(&mut ByteWriter),
    ) -> Result<u64> {
        if self.failed {
            return Err(StoreError::Io(std::io::Error::other(
                "segment writer failed earlier; it takes no more records",
            )));
        }
        if self.pending.as_mut_vec().len() >= FLUSH_BYTES {
            self.flush()?;
        }
        // Frame in place: an 8-byte len/crc placeholder, the payload,
        // then the placeholder patched.
        let start = self.pending.as_mut_vec().len();
        self.pending.u64(0);
        self.pending.u64(seq);
        encode(&mut self.pending);
        let buf = self.pending.as_mut_vec();
        let payload_len = buf.len() - start - 8;
        if payload_len > MAX_RECORD_LEN as usize {
            buf.truncate(start);
            // Give back what the oversized payload grew the buffer to.
            buf.shrink_to(2 * FLUSH_BYTES);
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "record payload of {payload_len} bytes exceeds the {MAX_RECORD_LEN}-byte limit"
                ),
            )));
        }
        let crc = crc32(&buf[start + 8..]);
        buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        let frame_len = 8 + payload_len as u64;
        self.len += frame_len;
        Ok(frame_len)
    }

    /// Write the buffered frames to the file, without an fsync. A failed
    /// write is final: the buffer is dropped and the writer refuses
    /// every later append, so nothing ever lands after torn bytes.
    pub(crate) fn flush(&mut self) -> Result<()> {
        let buf = self.pending.as_mut_vec();
        if buf.is_empty() {
            return Ok(());
        }
        match write_counted(&mut self.file, buf) {
            Ok(()) => {
                buf.clear();
                Ok(())
            }
            Err(e) => {
                self.failed = true;
                *buf = Vec::new();
                Err(e.into())
            }
        }
    }

    /// Write out the buffered frames, then flush to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Logical segment length in bytes (header included): what the file
    /// holds once the buffered frames are written.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.len == SEGMENT_HEADER_LEN
    }

    /// First sequence number this segment may hold.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl<V: Vfs> Drop for SegmentWriter<V> {
    /// Hand the buffered frames to the OS, as a write-through writer
    /// would already have; no fsync — durability is what `sync` is for.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// One decoded record, as [`read_segment`] collects it.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Log sequence number.
    pub seq: u64,
    /// The mutation.
    pub mutation: Mutation,
    /// On-disk frame size in bytes.
    pub frame_len: u64,
}

/// Everything [`read_segment`] recovers from one segment file.
#[derive(Debug)]
pub struct SegmentContents {
    /// Base sequence from the header.
    pub base_seq: u64,
    /// Records in order, up to the first invalid frame.
    pub records: Vec<WalRecord>,
    /// Byte offset of the first invalid frame (file length if clean).
    pub valid_len: u64,
    /// Bytes past `valid_len` — the torn tail.
    pub torn_bytes: u64,
}

impl SegmentContents {
    /// Whether the file ended with a torn (incomplete or checksum-failed)
    /// frame.
    pub fn is_torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// Read a segment into owned records, stopping cleanly at the first
/// invalid frame: the tests' record reader (the store never collects
/// records).
///
/// Returns [`StoreError::Corrupt`] only for header-level damage (bad
/// magic, unsupported version, base mismatch with the file name), for
/// a CRC-*valid* record that fails to decode — both mean the file is not
/// what we wrote, not that a write was interrupted — or for mid-log
/// damage. An `expected_base` of `None` skips the name cross-check.
pub fn read_segment(path: &Path, expected_base: Option<u64>) -> Result<SegmentContents> {
    let bytes = with_retry("wal.read", || StdFs.read(path))?;
    let mut records = Vec::new();
    let scan = scan_segment(path, &bytes, expected_base, |seq, m, frame_len| {
        records.push(WalRecord {
            seq,
            mutation: m.into_owned(),
            frame_len,
        });
    })?;
    if scan.mid_log_damage {
        return Err(scan.corrupt(path));
    }
    Ok(SegmentContents {
        base_seq: scan.base_seq,
        records,
        valid_len: scan.valid_len,
        torn_bytes: scan.torn_bytes,
    })
}

/// What [`scan_segment`] found in one segment file.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// Base sequence from the header.
    pub base_seq: u64,
    /// Byte offset of the first invalid frame (file length if clean).
    pub valid_len: u64,
    /// Bytes past `valid_len` — the torn tail.
    pub torn_bytes: u64,
    /// Whether a complete, CRC-valid, decodable frame exists *past* the
    /// first invalid one. A genuine crash tears only the tail, so this
    /// marks mid-log damage (bad block, bit rot): truncating at
    /// `valid_len` would silently drop the committed records after it.
    pub mid_log_damage: bool,
}

impl SegmentScan {
    /// The error for invalid bytes in the segment at `path` that a
    /// writable open cannot truncate: [`SegmentScan::mid_log_damage`],
    /// or else a torn tail on a segment that is not the last.
    pub fn corrupt(&self, path: &Path) -> StoreError {
        let detail = if self.mid_log_damage {
            format!(
                "invalid frame at offset {} with valid frames after it (mid-segment corruption)",
                self.valid_len
            )
        } else {
            format!("{} torn bytes in a non-active segment", self.torn_bytes)
        };
        StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        }
    }
}

/// The one frame scanner: walk `bytes` frame by frame up to the first
/// invalid frame, and hand each CRC-valid record to `visit` as it is
/// decoded — its sequence number, the record (names borrowed from
/// `bytes`) and its frame size. Nothing is collected; recovery applies
/// each record inside `visit`.
///
/// Errors (all [`StoreError::Corrupt`]): header-level damage and a
/// CRC-valid record that fails to decode. Mid-log damage is reported in
/// [`SegmentScan::mid_log_damage`], for the caller to rank. A sub-header
/// file is a torn file with zero records.
pub(crate) fn scan_segment<'a>(
    path: &Path,
    bytes: &'a [u8],
    expected_base: Option<u64>,
    mut visit: impl FnMut(u64, MutationRef<'a>, u64),
) -> Result<SegmentScan> {
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        // A crash can tear even the header of a freshly rotated segment;
        // that is a torn file with zero records, not corruption.
        return Ok(SegmentScan {
            base_seq: expected_base.unwrap_or(0),
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
            mid_log_damage: false,
        });
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(corrupt("bad segment magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let base_seq = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if let Some(expect) = expected_base {
        if expect != base_seq {
            return Err(corrupt(format!(
                "header base seq {base_seq} disagrees with file name ({expect})"
            )));
        }
    }

    let mut pos = SEGMENT_HEADER_LEN as usize;
    while let Some(payload) = frame_at(bytes, pos) {
        let mut r = ByteReader::new(payload);
        let seq = r
            .u64()
            .map_err(|e| corrupt(format!("checksummed record too short: {e}")))?;
        let mutation = MutationRef::decode(&mut r)
            .map_err(|e| corrupt(format!("record seq {seq} undecodable: {e}")))?;
        if r.remaining() != 0 {
            return Err(corrupt(format!(
                "record seq {seq} has {} trailing payload bytes",
                r.remaining()
            )));
        }
        let frame_len = 8 + payload.len() as u64;
        visit(seq, mutation, frame_len);
        pos += frame_len as usize;
    }
    // Torn-vs-corrupt: a crash tears the *tail* — nothing meaningful can
    // follow the partial frame. If a byte-complete, checksum-valid,
    // decodable frame exists anywhere past the first invalid one, the
    // damage is mid-log (bad block, bit rot) and truncation would
    // silently drop committed records.
    Ok(SegmentScan {
        base_seq,
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
        mid_log_damage: pos < bytes.len() && contains_valid_frame(&bytes[pos + 1..]),
    })
}

/// The payload of the frame starting at `pos`, if a complete frame with
/// a matching checksum starts there.
fn frame_at(bytes: &[u8], pos: usize) -> Option<&[u8]> {
    if bytes.len() - pos < 8 {
        return None; // incomplete frame header: torn
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
    if len > MAX_RECORD_LEN || bytes.len() - pos - 8 < len as usize {
        return None; // frame longer than the file: torn
    }
    let payload = &bytes[pos + 8..pos + 8 + len as usize];
    // A checksum failure reads as torn.
    (crc32(payload) == crc).then_some(payload)
}

/// Whether any byte offset in `tail` starts a complete, CRC-valid,
/// decodable record frame. Linear scan — the region after a genuine
/// torn tail is at most one partial frame, so this is cheap in the
/// common case and only grows with actual mid-log damage.
fn contains_valid_frame(tail: &[u8]) -> bool {
    if tail.len() < 8 {
        return false;
    }
    (0..tail.len() - 8).any(|o| {
        frame_at(tail, o).is_some_and(|payload| {
            let mut r = ByteReader::new(payload);
            r.u64().is_ok() && MutationRef::decode(&mut r).is_ok() && r.remaining() == 0
        })
    })
}

/// Sorted `(base_seq, path)` list of the segment files in `dir`.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    list_segments_in(&StdFs, dir)
}

/// [`list_segments`] against an explicit backend.
pub fn list_segments_in<V: Vfs>(vfs: &V, dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for name in vfs.list_dir(dir)? {
        if let Some(base) = parse_segment_name(&name) {
            out.push((base, dir.join(name)));
        }
    }
    out.sort_by_key(|(b, _)| *b);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_graph::NodeId;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "grepair-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mutations(n: usize) -> Vec<Mutation> {
        (0..n)
            .map(|i| Mutation::AddNode {
                node: NodeId(i as u32),
                label: format!("L{i}"),
                attrs: vec![],
            })
            .collect()
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = tmpdir("rt");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        for (i, m) in mutations(10).iter().enumerate() {
            w.append(1 + i as u64, m).unwrap();
        }
        w.sync().unwrap();
        let c = read_segment(w.path(), Some(1)).unwrap();
        assert_eq!(c.base_seq, 1);
        assert_eq!(c.records.len(), 10);
        assert!(!c.is_torn());
        assert_eq!(c.valid_len, w.len());
        assert_eq!(c.records[3].seq, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_yields_a_record_prefix() {
        let dir = tmpdir("trunc");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        let ms = mutations(6);
        let mut frame_ends = vec![SEGMENT_HEADER_LEN];
        for (i, m) in ms.iter().enumerate() {
            w.append(1 + i as u64, m).unwrap();
            frame_ends.push(w.len());
        }
        w.sync().unwrap();
        let full = std::fs::read(w.path()).unwrap();
        for cut in SEGMENT_HEADER_LEN as usize..=full.len() {
            let p = dir.join("cut.seg");
            std::fs::write(&p, &full[..cut]).unwrap();
            let c = read_segment(&p, Some(1)).unwrap();
            // Longest record prefix that fits entirely below the cut.
            let expect = frame_ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
            assert_eq!(c.records.len(), expect, "cut at {cut}");
            assert_eq!(c.is_torn(), frame_ends[expect] != cut as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_in_payload_is_detected() {
        let dir = tmpdir("flip");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        for (i, m) in mutations(3).iter().enumerate() {
            w.append(1 + i as u64, m).unwrap();
        }
        w.sync().unwrap();
        let mut bytes = std::fs::read(w.path()).unwrap();
        // Flip one bit inside the LAST record's payload: nothing valid
        // follows, so this reads as a torn tail.
        let target = bytes.len() - 5;
        bytes[target] ^= 0x40;
        let p = dir.join("flipped.seg");
        std::fs::write(&p, &bytes).unwrap();
        let c = read_segment(&p, Some(1)).unwrap();
        assert!(c.is_torn());
        assert!(c.records.len() < 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_segment_corruption_fails_closed() {
        let dir = tmpdir("midflip");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        let mut frame_starts = Vec::new();
        for (i, m) in mutations(4).iter().enumerate() {
            frame_starts.push(w.len());
            w.append(1 + i as u64, m).unwrap();
        }
        w.sync().unwrap();
        let mut bytes = std::fs::read(w.path()).unwrap();
        // Damage the SECOND record's payload: valid committed frames
        // follow, so truncation would silently drop them — must refuse.
        let target = frame_starts[1] as usize + 10;
        bytes[target] ^= 0x01;
        let p = dir.join("midflipped.seg");
        std::fs::write(&p, &bytes).unwrap();
        let err = read_segment(&p, Some(1)).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { detail, .. } if detail.contains("mid-segment")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_damage_is_corrupt_not_torn() {
        let dir = tmpdir("hdr");
        let mut w = SegmentWriter::create(&dir, 7).unwrap();
        w.append(7, &mutations(1)[0]).unwrap();
        let mut bytes = std::fs::read(w.path()).unwrap();
        bytes[0] ^= 0xFF;
        let p = dir.join(segment_file_name(7));
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_segment(&p, Some(7)),
            Err(StoreError::Corrupt { .. })
        ));
        // Name/header base mismatch.
        let fresh = SegmentWriter::create(&dir, 9).unwrap();
        assert!(matches!(
            read_segment(fresh.path(), Some(10)),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sub_header_file_is_torn_with_no_records() {
        let dir = tmpdir("stub");
        let p = dir.join(segment_file_name(3));
        std::fs::write(&p, b"GRW").unwrap();
        let c = read_segment(&p, Some(3)).unwrap();
        assert!(c.records.is_empty());
        assert!(c.is_torn());
        assert_eq!(c.valid_len, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_end_truncates_torn_tail_and_appends() {
        let dir = tmpdir("reopen");
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        for (i, m) in mutations(4).iter().enumerate() {
            w.append(1 + i as u64, m).unwrap();
        }
        let path = w.path().to_path_buf();
        drop(w);
        // Simulate a crash mid-append.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x55; 7]);
        std::fs::write(&path, &bytes).unwrap();
        let c = read_segment(&path, Some(1)).unwrap();
        assert!(c.is_torn());
        let mut w = SegmentWriter::open_end(&path, 1, c.valid_len).unwrap();
        w.append(5, &mutations(1)[0]).unwrap();
        w.sync().unwrap();
        let c = read_segment(&path, Some(1)).unwrap();
        assert!(!c.is_torn());
        assert_eq!(c.records.len(), 5);
        assert_eq!(c.records.last().unwrap().seq, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One record of every opcode, `Str`/`Int`/`Float(NaN)`/`Bool`
    /// values included, across a rotation: the exact segment bytes are
    /// pinned, so the in-place framer and the per-opcode encoders cannot
    /// drift from the format existing stores were written in.
    #[test]
    fn segment_bytes_are_pinned() {
        use grepair_graph::{EdgeId, Value};
        let dir = tmpdir("pinned");
        let ms = [
            Mutation::AddNode {
                node: NodeId(0),
                label: "Person".into(),
                attrs: vec![
                    ("name".into(), Value::from("Ann")),
                    ("age".into(), Value::Int(-7)),
                    ("score".into(), Value::Float(f64::NAN)),
                    ("ok".into(), Value::Bool(true)),
                ],
            },
            Mutation::AddEdge {
                edge: EdgeId(0),
                src: NodeId(0),
                dst: NodeId(1),
                label: "knows".into(),
            },
            Mutation::SetNodeLabel {
                node: NodeId(1),
                label: "City".into(),
            },
            Mutation::SetEdgeLabel {
                edge: EdgeId(0),
                label: "livesIn".into(),
            },
            Mutation::SetAttr {
                node: NodeId(0),
                key: "bio".into(),
                value: Value::from("a\nb"),
            },
            Mutation::RemoveAttr {
                node: NodeId(0),
                key: "ok".into(),
            },
            Mutation::MergeNodes {
                keep: NodeId(0),
                merged: NodeId(2),
                dedup_parallel: true,
            },
            Mutation::RemoveEdge { edge: EdgeId(3) },
            Mutation::RemoveNode { node: NodeId(1) },
        ];
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        for (i, m) in ms[..5].iter().enumerate() {
            w.append(1 + i as u64, m).unwrap();
        }
        // Rotation: sync the full segment, continue in a fresh one.
        w.sync().unwrap();
        let mut w = SegmentWriter::create(&dir, 6).unwrap();
        for (i, m) in ms[5..].iter().enumerate() {
            w.append(6 + i as u64, m).unwrap();
        }
        w.sync().unwrap();
        let hex = |base: u64| -> String {
            let bytes = std::fs::read(dir.join(segment_file_name(base))).unwrap();
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        };
        // Header, then one frame per group of lines (len · crc · seq ·
        // opcode · fields), taken from the format as first written.
        assert_eq!(
            hex(1),
            concat!(
                "475257414c310a00010000000100000000000000",
                "55000000ab49d50f0100000000000000010000000006000000506572736f6e04",
                "000000040000006e616d650003000000416e6e0300000061676501f9ffffffff",
                "ffffff0500000073636f726502000000000000f87f020000006f6b0301",
                "1e000000e94c5e09020000000000000003000000000000000001000000050000",
                "006b6e6f7773",
                "15000000f8c4f794030000000000000005010000000400000043697479",
                "180000005f2cec7404000000000000000600000000070000006c69766573496e",
                "1c00000028af15f0050000000000000007000000000300000062696f00030000",
                "00610a62",
            )
        );
        assert_eq!(
            hex(6),
            concat!(
                "475257414c310a00010000000600000000000000",
                "130000008a4dda8806000000000000000800000000020000006f6b",
                "12000000158de777070000000000000009000000000200000001",
                "0d000000c19c42b208000000000000000403000000",
                "0d0000006f789d4a09000000000000000201000000",
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Hostile bytes never panic the reader: arbitrary soup (with and
        /// without a valid header in front), and a valid segment cut at a
        /// random length with random bit flips, all come back `Ok` or a
        /// typed `Err`.
        #[test]
        fn read_segment_never_panics(
            soup in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            with_header in proptest::prelude::any::<bool>(),
            records in 0usize..8,
            cut in proptest::prelude::any::<u16>(),
            flips in proptest::collection::vec(
                (proptest::prelude::any::<u16>(), 0u8..8),
                0..4,
            ),
        ) {
            let dir = tmpdir("nopanic");
            let probe = dir.join(segment_file_name(1));
            let mut bytes = Vec::new();
            if with_header {
                bytes.extend_from_slice(&SEGMENT_MAGIC);
                bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
                bytes.extend_from_slice(&1u64.to_le_bytes());
            }
            bytes.extend_from_slice(&soup);
            std::fs::write(&probe, &bytes).unwrap();
            let _ = read_segment(&probe, Some(1));
            let _ = read_segment(&probe, None);

            let mut w = SegmentWriter::create(&dir, 2).unwrap();
            for (i, m) in mutations(records).iter().enumerate() {
                w.append(2 + i as u64, m).unwrap();
            }
            w.sync().unwrap();
            let mut bytes = std::fs::read(w.path()).unwrap();
            bytes.truncate(cut as usize % (bytes.len() + 1));
            for &(at, bit) in &flips {
                if !bytes.is_empty() {
                    let i = at as usize % bytes.len();
                    bytes[i] ^= 1 << bit;
                }
            }
            std::fs::write(&probe, &bytes).unwrap();
            let _ = read_segment(&probe, Some(2));
            let _ = read_segment(&probe, None);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// One record of every opcode, for mutation fuzzing.
    fn one_of_each() -> Vec<Mutation> {
        use grepair_graph::{EdgeId, Value};
        vec![
            Mutation::AddNode {
                node: NodeId(3),
                label: "P".into(),
                attrs: vec![
                    ("s".into(), Value::from("x")),
                    ("i".into(), Value::Int(-1)),
                    ("f".into(), Value::Float(0.5)),
                    ("b".into(), Value::Bool(true)),
                ],
            },
            Mutation::RemoveNode { node: NodeId(1) },
            Mutation::AddEdge {
                edge: EdgeId(2),
                src: NodeId(0),
                dst: NodeId(1),
                label: "r".into(),
            },
            Mutation::RemoveEdge { edge: EdgeId(0) },
            Mutation::SetNodeLabel {
                node: NodeId(0),
                label: "Q".into(),
            },
            Mutation::SetEdgeLabel {
                edge: EdgeId(1),
                label: "s".into(),
            },
            Mutation::SetAttr {
                node: NodeId(2),
                key: "k".into(),
                value: Value::from("v"),
            },
            Mutation::RemoveAttr {
                node: NodeId(0),
                key: "s".into(),
            },
            Mutation::MergeNodes {
                keep: NodeId(0),
                merged: NodeId(2),
                dedup_parallel: true,
            },
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The record decoder and apply routine themselves, past the
        /// checksum: arbitrary payload bytes, and a valid record of any
        /// opcode cut short with random bytes overwritten, each framed
        /// with a correct length and CRC behind a valid header, read back
        /// `Ok` or a typed `Err`. What reads back replays onto a small
        /// graph without a panic.
        #[test]
        fn crc_valid_frames_never_panic_the_decoder(
            soup in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..120),
            which in 0usize..9,
            cut in proptest::prelude::any::<u16>(),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()),
                0..4,
            ),
        ) {
            let dir = tmpdir("frame");
            let probe = dir.join(segment_file_name(1));
            let mut valid = ByteWriter::new();
            valid.u64(1);
            one_of_each()[which].encode(&mut valid);
            let mut mutated = valid.into_bytes();
            mutated.truncate(cut as usize % (mutated.len() + 1));
            for &(at, byte) in &edits {
                if !mutated.is_empty() {
                    let i = at as usize % mutated.len();
                    mutated[i] = byte;
                }
            }
            for payload in [&soup, &mutated] {
                let mut bytes = Vec::new();
                bytes.extend_from_slice(&SEGMENT_MAGIC);
                bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
                bytes.extend_from_slice(&1u64.to_le_bytes());
                bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&crc32(payload).to_le_bytes());
                bytes.extend_from_slice(payload);
                std::fs::write(&probe, &bytes).unwrap();
                if let Ok(c) = read_segment(&probe, Some(1)) {
                    let mut g = grepair_graph::Graph::new();
                    let a = g.add_node_named("P");
                    let b = g.add_node_named("Q");
                    let c2 = g.add_node_named("P");
                    g.add_edge_named(a, b, "r").unwrap();
                    g.add_edge_named(b, c2, "r").unwrap();
                    for rec in &c.records {
                        let _ = rec.mutation.apply(&mut g);
                    }
                    g.check_invariants().unwrap();
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(parse_segment_name(&segment_file_name(0)), Some(0));
        assert_eq!(
            parse_segment_name(&segment_file_name(u64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(parse_segment_name("wal-zz.seg"), None);
        assert_eq!(parse_segment_name("snap-0000000000000001.snap"), None);
    }
}
