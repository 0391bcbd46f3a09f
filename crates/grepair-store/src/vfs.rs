//! Storage-backend abstraction: every file operation the store performs
//! goes through a [`Vfs`], so the durability logic can be exercised
//! against a deterministic fault-injecting backend (`FaultyFs`) while
//! production runs on the zero-cost passthrough [`StdFs`].
//!
//! The trait surface is exactly the operations the store needs — create,
//! append, read-whole-file, rename, remove, list, length, data sync and
//! directory sync — nothing more. Keeping it narrow is what makes the
//! fault model exhaustive: `FaultyFs` can enumerate *every* injection
//! point because every side effect funnels through these methods.
//!
//! ## Retry policy
//!
//! `with_retry` wraps *whole-file and metadata* operations (create,
//! open, read, rename, remove) in a bounded retry-with-backoff for
//! transient `Interrupted`/`WouldBlock`/`TimedOut` errors, recording a
//! `store.retry` counter and warn event per attempt. Two operation
//! classes are deliberately **never** retried:
//!
//! - **Writes** — a failed `write_all` may have landed a prefix of the
//!   buffer; blindly re-writing would duplicate bytes mid-frame and
//!   corrupt the log. The caller poisons the store instead.
//! - **Fsyncs** — after a failed `fsync` the kernel may drop the dirty
//!   pages *and clear the error*, so a retried fsync can report success
//!   while the data is gone (the "fsyncgate" failure mode). The caller
//!   treats the first failure as final and poisons the store.

use std::io;
use std::path::Path;

/// An open file handle obtained from a [`Vfs`].
///
/// Writes always append at the handle's position (the store only ever
/// appends or writes fresh files front to back).
pub trait VfsFile: Send {
    /// Write the whole buffer at the current position.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file *data* to stable storage (`fdatasync` semantics).
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The file operations the store performs, as a swappable backend.
///
/// Production uses [`StdFs`]; tests use `FaultyFs`. Static dispatch
/// throughout — [`crate::DurableGraph`] defaults its backend parameter
/// to `StdFs`, so the production build pays no indirection.
pub trait Vfs: Send + Sync {
    /// The backend's file handle type.
    type File: VfsFile;

    /// Create a file that must not already exist.
    fn create_new(&self, path: &Path) -> io::Result<Self::File>;
    /// Create a file, truncating it if it exists.
    fn create(&self, path: &Path) -> io::Result<Self::File>;
    /// Open an existing file for appending, first truncating it to
    /// `truncate_to` bytes (dropping a crash-torn tail).
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Self::File>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` to `to` (replacing `to` if it exists).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Whether `path` is an existing directory.
    fn is_dir(&self, path: &Path) -> bool;
    /// File names (not paths) of the entries in `dir`.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Current length of the file at `path`.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Flush the *directory entry table* of `dir` to stable storage —
    /// what makes creations, renames and removals in it survive a crash.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The production backend: a zero-sized passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdFs;

impl VfsFile for std::fs::File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }
}

impl Vfs for StdFs {
    type File = std::fs::File;

    fn create_new(&self, path: &Path) -> io::Result<Self::File> {
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
    }
    fn create(&self, path: &Path) -> io::Result<Self::File> {
        std::fs::File::create(path)
    }
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Self::File> {
        let file = std::fs::OpenOptions::new().write(true).read(true).open(path)?;
        file.set_len(truncate_to)?;
        let mut file = file;
        io::Seek::seek(&mut file, io::SeekFrom::End(0))?;
        Ok(file)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                out.push(name.to_owned());
            }
        }
        Ok(out)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }
}

/// Bounded retry-with-backoff for transient errors on operations that
/// are safe to repeat (see the module docs for why writes and fsyncs
/// are excluded). Each retry records a `store.retry` counter tick and a
/// warn event naming the operation.
pub(crate) fn with_retry<T>(
    what: &'static str,
    mut f: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    const ATTEMPTS: u32 = 3;
    let mut delay = std::time::Duration::from_micros(200);
    let mut attempt = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(e.kind()) && attempt + 1 < ATTEMPTS => {
                grepair_obs::counter("store.retry").inc();
                grepair_obs::event(
                    grepair_obs::Level::Warn,
                    "store.retry",
                    format!("{what}: transient {e}; retrying (attempt {})", attempt + 1),
                );
                std::thread::sleep(delay);
                delay *= 4;
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// ---- fault injection -------------------------------------------------------

/// The injectable operation classes (each one is an injection point).
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// `create_new` / `create`.
    Create,
    /// `open_append`.
    Open,
    /// `VfsFile::write_all`.
    Write,
    /// `VfsFile::sync_data`.
    Sync,
    /// `rename`.
    Rename,
    /// `remove_file`.
    Remove,
    /// `sync_dir`.
    SyncDir,
}

/// The error an injected fault surfaces as.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedError {
    /// `ENOSPC` — the disk filled up.
    Enospc,
    /// `EIO` — a hard device error.
    Eio,
    /// `EINTR` — a transient interruption ([`with_retry`]-class).
    Interrupted,
}

#[cfg(any(test, feature = "fault-injection"))]
impl InjectedError {
    fn to_io(self) -> io::Error {
        match self {
            // Raw errno values (Linux) so the error carries a realistic
            // kind without depending on unstable `ErrorKind` variants.
            InjectedError::Enospc => io::Error::from_raw_os_error(28),
            InjectedError::Eio => io::Error::from_raw_os_error(5),
            InjectedError::Interrupted => io::ErrorKind::Interrupted.into(),
        }
    }
}

/// How many operations of each class a [`FaultyFs`] has seen.
#[cfg(any(test, feature = "fault-injection"))]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultOpCounts {
    /// File creations.
    pub creates: usize,
    /// Append re-opens.
    pub opens: usize,
    /// Buffer writes.
    pub writes: usize,
    /// File data syncs.
    pub syncs: usize,
    /// Renames.
    pub renames: usize,
    /// File removals.
    pub removes: usize,
    /// Directory syncs.
    pub dir_syncs: usize,
}

#[cfg(any(test, feature = "fault-injection"))]
mod faulty {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Inode {
        /// Content as the running process sees it.
        current: Vec<u8>,
        /// Content as of the last successful `sync_data` — what survives
        /// a crash (if the name survives too).
        durable: Vec<u8>,
    }

    struct Pending {
        op: FaultOp,
        countdown: usize,
        err: InjectedError,
        /// For `Write` faults: bytes of the buffer that land before the
        /// error (a torn write).
        torn_keep: Option<usize>,
    }

    #[derive(Default)]
    struct State {
        dirs: std::collections::BTreeSet<PathBuf>,
        /// Directory view of the running process.
        names: BTreeMap<PathBuf, usize>,
        /// Directory view after a crash: updated only by `sync_dir`.
        durable_names: BTreeMap<PathBuf, usize>,
        inodes: Vec<Inode>,
        ops: usize,
        crash_at: Option<usize>,
        /// If the crash-point op is a write, land this many bytes first.
        crash_torn_keep: Option<usize>,
        pending: Vec<Pending>,
        counts: FaultOpCounts,
    }

    impl State {
        /// Count the op, then decide its fate: proceed, fail with an
        /// injected error, or fail as part of a simulated crash. For
        /// `Write` ops the returned `Option<usize>` carries the torn
        /// prefix length to land before failing.
        fn gate(&mut self, op: FaultOp) -> Result<(), (io::Error, Option<usize>)> {
            let idx = self.ops;
            self.ops += 1;
            match op {
                FaultOp::Create => self.counts.creates += 1,
                FaultOp::Open => self.counts.opens += 1,
                FaultOp::Write => self.counts.writes += 1,
                FaultOp::Sync => self.counts.syncs += 1,
                FaultOp::Rename => self.counts.renames += 1,
                FaultOp::Remove => self.counts.removes += 1,
                FaultOp::SyncDir => self.counts.dir_syncs += 1,
            }
            if let Some(c) = self.crash_at {
                if idx >= c {
                    let torn = if idx == c && op == FaultOp::Write {
                        self.crash_torn_keep
                    } else {
                        None
                    };
                    return Err((
                        io::Error::other(format!("simulated crash at op {c}")),
                        torn,
                    ));
                }
            }
            if let Some(i) = self.pending.iter().position(|p| p.op == op) {
                if self.pending[i].countdown == 0 {
                    let p = self.pending.remove(i);
                    return Err((p.err.to_io(), p.torn_keep));
                }
                self.pending[i].countdown -= 1;
            }
            Ok(())
        }
    }

    /// A deterministic, in-memory fault-injection backend.
    ///
    /// Models one directory tree where every file has *current* content
    /// (what the process sees) and *durable* content (what survives a
    /// crash): `sync_data` makes a file's bytes durable, `sync_dir`
    /// makes the current name set durable. A simulated crash is simply
    /// "fail every operation from index `k` on"; the durable image can
    /// then be [materialized](FaultyFs::materialize_durable) to a real
    /// directory and reopened with [`StdFs`] to drive real recovery.
    ///
    /// Clonable handle (shared state), so tests keep one while the
    /// store owns another.
    #[derive(Clone, Default)]
    pub struct FaultyFs {
        state: Arc<Mutex<State>>,
    }

    /// Handle into a [`FaultyFs`] file; writes append.
    pub struct FaultyFile {
        state: Arc<Mutex<State>>,
        inode: usize,
    }

    impl std::fmt::Debug for FaultyFile {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("FaultyFile").field("inode", &self.inode).finish()
        }
    }

    impl FaultyFs {
        /// A fresh, empty, fault-free filesystem.
        pub fn new() -> Self {
            Self::default()
        }

        /// Total faultable operations performed so far — the number of
        /// injection points a clean run exposes.
        pub fn ops(&self) -> usize {
            self.state.lock().unwrap().ops
        }

        /// Per-class operation counts.
        pub fn op_counts(&self) -> FaultOpCounts {
            self.state.lock().unwrap().counts
        }

        /// Simulate a crash at operation index `at` (0-based): that
        /// operation and every later one fail, with no effect on state.
        pub fn set_crash_point(&self, at: usize) {
            let mut st = self.state.lock().unwrap();
            st.crash_at = Some(at);
            st.crash_torn_keep = None;
        }

        /// Like [`FaultyFs::set_crash_point`], but if the crash-point
        /// operation is a write, its first `keep` bytes land — a write
        /// torn mid-frame by the crash.
        pub fn set_torn_crash_point(&self, at: usize, keep: usize) {
            let mut st = self.state.lock().unwrap();
            st.crash_at = Some(at);
            st.crash_torn_keep = Some(keep);
        }

        /// Fail the `nth` upcoming operation of class `op` (0-based,
        /// counted from now) with `err`; one-shot.
        pub fn inject(&self, op: FaultOp, nth: usize, err: InjectedError) {
            self.state.lock().unwrap().pending.push(Pending {
                op,
                countdown: nth,
                err,
                torn_keep: None,
            });
        }

        /// Fail the `nth` upcoming write after landing only its first
        /// `keep` bytes (torn write, e.g. ENOSPC mid-frame); one-shot.
        pub fn inject_torn_write(&self, nth: usize, keep: usize, err: InjectedError) {
            self.state.lock().unwrap().pending.push(Pending {
                op: FaultOp::Write,
                countdown: nth,
                err,
                torn_keep: Some(keep),
            });
        }

        /// The crash-surviving image: every durable name with its
        /// durable content.
        pub fn durable_image(&self) -> Vec<(PathBuf, Vec<u8>)> {
            let st = self.state.lock().unwrap();
            st.durable_names
                .iter()
                .map(|(p, &i)| (p.clone(), st.inodes[i].durable.clone()))
                .collect()
        }

        /// Write the durable image into a real directory (flattened by
        /// file name — the store keeps everything in one directory), so
        /// recovery can run against it with [`StdFs`].
        pub fn materialize_durable(&self, target: &Path) -> io::Result<()> {
            std::fs::create_dir_all(target)?;
            for (path, bytes) in self.durable_image() {
                let name = path
                    .file_name()
                    .ok_or_else(|| io::Error::other("unnamed durable file"))?;
                std::fs::write(target.join(name), bytes)?;
            }
            Ok(())
        }

        fn gate(&self, op: FaultOp) -> io::Result<()> {
            self.state
                .lock()
                .unwrap()
                .gate(op)
                .map_err(|(e, _torn)| e)
        }
    }

    impl VfsFile for FaultyFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            let mut st = self.state.lock().unwrap();
            match st.gate(FaultOp::Write) {
                Ok(()) => {
                    st.inodes[self.inode].current.extend_from_slice(buf);
                    Ok(())
                }
                Err((e, torn)) => {
                    if let Some(keep) = torn {
                        let keep = keep.min(buf.len());
                        st.inodes[self.inode]
                            .current
                            .extend_from_slice(&buf[..keep]);
                    }
                    Err(e)
                }
            }
        }
        fn sync_data(&mut self) -> io::Result<()> {
            let mut st = self.state.lock().unwrap();
            st.gate(FaultOp::Sync).map_err(|(e, _)| e)?;
            let durable = st.inodes[self.inode].current.clone();
            st.inodes[self.inode].durable = durable;
            Ok(())
        }
    }

    impl Vfs for FaultyFs {
        type File = FaultyFile;

        fn create_new(&self, path: &Path) -> io::Result<Self::File> {
            let mut st = self.state.lock().unwrap();
            st.gate(FaultOp::Create).map_err(|(e, _)| e)?;
            if st.names.contains_key(path) {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            st.inodes.push(Inode::default());
            let inode = st.inodes.len() - 1;
            st.names.insert(path.to_path_buf(), inode);
            Ok(FaultyFile {
                state: Arc::clone(&self.state),
                inode,
            })
        }
        fn create(&self, path: &Path) -> io::Result<Self::File> {
            let mut st = self.state.lock().unwrap();
            st.gate(FaultOp::Create).map_err(|(e, _)| e)?;
            let inode = match st.names.get(path) {
                Some(&i) => {
                    st.inodes[i].current.clear();
                    i
                }
                None => {
                    st.inodes.push(Inode::default());
                    let i = st.inodes.len() - 1;
                    st.names.insert(path.to_path_buf(), i);
                    i
                }
            };
            Ok(FaultyFile {
                state: Arc::clone(&self.state),
                inode,
            })
        }
        fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Self::File> {
            let mut st = self.state.lock().unwrap();
            st.gate(FaultOp::Open).map_err(|(e, _)| e)?;
            let inode = *st
                .names
                .get(path)
                .ok_or(io::Error::from(io::ErrorKind::NotFound))?;
            st.inodes[inode].current.truncate(truncate_to as usize);
            Ok(FaultyFile {
                state: Arc::clone(&self.state),
                inode,
            })
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            let st = self.state.lock().unwrap();
            st.names
                .get(path)
                .map(|&i| st.inodes[i].current.clone())
                .ok_or_else(|| io::ErrorKind::NotFound.into())
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.gate(FaultOp::Rename)?;
            let mut st = self.state.lock().unwrap();
            let inode = st
                .names
                .remove(from)
                .ok_or(io::Error::from(io::ErrorKind::NotFound))?;
            st.names.insert(to.to_path_buf(), inode);
            Ok(())
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.gate(FaultOp::Remove)?;
            let mut st = self.state.lock().unwrap();
            st.names
                .remove(path)
                .map(|_| ())
                .ok_or_else(|| io::ErrorKind::NotFound.into())
        }
        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.state.lock().unwrap().dirs.insert(path.to_path_buf());
            Ok(())
        }
        fn is_dir(&self, path: &Path) -> bool {
            self.state.lock().unwrap().dirs.contains(path)
        }
        fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
            let st = self.state.lock().unwrap();
            if !st.dirs.contains(dir) {
                return Err(io::ErrorKind::NotFound.into());
            }
            Ok(st
                .names
                .keys()
                .filter(|p| p.parent() == Some(dir))
                .filter_map(|p| p.file_name().and_then(|n| n.to_str()))
                .map(str::to_owned)
                .collect())
        }
        fn file_len(&self, path: &Path) -> io::Result<u64> {
            let st = self.state.lock().unwrap();
            st.names
                .get(path)
                .map(|&i| st.inodes[i].current.len() as u64)
                .ok_or_else(|| io::ErrorKind::NotFound.into())
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.gate(FaultOp::SyncDir)?;
            let mut st = self.state.lock().unwrap();
            let _ = dir; // one flat directory: persist the whole name set
            st.durable_names = st.names.clone();
            Ok(())
        }
    }
}

#[cfg(any(test, feature = "fault-injection"))]
pub use faulty::{FaultyFile, FaultyFs};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn dir() -> PathBuf {
        PathBuf::from("/vdir")
    }

    #[test]
    fn unsynced_data_and_names_die_in_a_crash() {
        let fs = FaultyFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let a = dir().join("a");
        let mut f = fs.create_new(&a).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        fs.sync_dir(&dir()).unwrap();
        // More data written but never synced, and a second file whose
        // name was never made durable.
        f.write_all(b" world").unwrap();
        let b = dir().join("b");
        let mut g = fs.create_new(&b).unwrap();
        g.write_all(b"gone").unwrap();
        g.sync_data().unwrap(); // data durable, name is not

        let image: std::collections::BTreeMap<_, _> =
            fs.durable_image().into_iter().collect();
        assert_eq!(image.len(), 1);
        assert_eq!(image[&a], b"hello".to_vec());
        // The live view still sees everything.
        assert_eq!(fs.read(&a).unwrap(), b"hello world");
        assert_eq!(fs.read(&b).unwrap(), b"gone");
    }

    #[test]
    fn crash_point_fails_everything_from_there_on() {
        let fs = FaultyFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let a = dir().join("a");
        {
            let mut f = fs.create_new(&a).unwrap();
            f.write_all(b"x").unwrap();
            f.sync_data().unwrap();
            fs.sync_dir(&dir()).unwrap();
        }
        let n = fs.ops();
        assert_eq!(n, 4); // create, write, sync, sync_dir
        fs.set_crash_point(n);
        let b = dir().join("b");
        assert!(fs.create_new(&b).is_err());
        assert!(fs.rename(&a, &b).is_err());
        assert!(fs.sync_dir(&dir()).is_err());
        // Reads still serve the (doomed) live view; durable image is
        // untouched by the failed ops.
        assert_eq!(fs.read(&a).unwrap(), b"x");
        assert_eq!(fs.durable_image().len(), 1);
    }

    #[test]
    fn torn_crash_write_lands_a_prefix() {
        let fs = FaultyFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let a = dir().join("a");
        let mut f = fs.create_new(&a).unwrap();
        f.write_all(b"head-").unwrap();
        fs.set_torn_crash_point(fs.ops(), 3);
        assert!(f.write_all(b"tail").is_err());
        assert_eq!(fs.read(&a).unwrap(), b"head-tai".to_vec());
        assert!(f.write_all(b"more").is_err(), "still crashed");
    }

    #[test]
    fn injected_errors_hit_the_nth_op_and_are_one_shot() {
        let fs = FaultyFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let a = dir().join("a");
        let mut f = fs.create_new(&a).unwrap();
        fs.inject(FaultOp::Sync, 1, InjectedError::Eio);
        f.sync_data().unwrap(); // nth=1: first sync passes
        let err = f.sync_data().unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        f.sync_data().unwrap(); // one-shot: consumed

        fs.inject(FaultOp::Create, 0, InjectedError::Enospc);
        let err = fs.create_new(&dir().join("b")).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(fs.read(&dir().join("b")).is_err(), "failed create has no effect");
    }

    #[test]
    fn retry_recovers_from_transient_interruptions_only() {
        let fs = FaultyFs::new();
        fs.create_dir_all(&dir()).unwrap();
        fs.inject(FaultOp::Create, 0, InjectedError::Interrupted);
        let before = grepair_obs::counter("store.retry").get();
        let got = with_retry("test.create", || fs.create_new(&dir().join("a")));
        assert!(got.is_ok(), "transient error must be retried away");
        assert!(grepair_obs::counter("store.retry").get() > before);
        // Hard errors are not retried.
        fs.inject(FaultOp::Create, 0, InjectedError::Eio);
        assert!(with_retry("test.create", || fs.create_new(&dir().join("b"))).is_err());
    }

    #[test]
    fn materialize_round_trips_through_a_real_directory() {
        let fs = FaultyFs::new();
        fs.create_dir_all(&dir()).unwrap();
        let mut f = fs.create_new(&dir().join("data.bin")).unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
        f.sync_data().unwrap();
        fs.sync_dir(&dir()).unwrap();
        let target = std::env::temp_dir().join(format!(
            "grepair-vfs-mat-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&target);
        fs.materialize_durable(&target).unwrap();
        assert_eq!(std::fs::read(target.join("data.bin")).unwrap(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&target).ok();
    }
}
