//! Cross-process `LOCK` file with staleness detection.
//!
//! A writable store holds a `LOCK` file in its directory recording the
//! owning pid and the machine's boot id. A second open of the same
//! directory fails with [`StoreError::Locked`] while the holder is
//! alive; a lock left behind by a crash is detected as stale — the pid
//! no longer exists, or the boot id differs (same pid numbers recur
//! across reboots) — and stolen silently with a `store.lock_stale`
//! warn event.
//!
//! The lock file's content is written but never fsynced: it protects
//! *live* processes from each other, while crash-left locks are handled
//! by staleness, so durability buys nothing. Read-only opens
//! ([`crate::ReadOnlyStore`]) take no lock at all.
//!
//! On platforms without `/proc` the liveness probe cannot run; locks
//! are then never considered stale (fail safe: refuse to steal).

use crate::error::{Result, StoreError};
use crate::vfs::{Vfs, VfsFile};
use std::path::Path;

/// Name of the lock file inside a store directory.
pub const LOCK_FILE_NAME: &str = "LOCK";

/// What the `LOCK` file says about the store's writer, as reported by
/// [`crate::fsck()`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockStatus {
    /// No lock file.
    Unlocked,
    /// Held by a process that looks alive on this boot.
    Held {
        /// The holder's pid.
        pid: u32,
    },
    /// Left behind by a dead process or a previous boot (`pid` is
    /// `None` when the file content was unreadable — e.g. the writing
    /// process crashed mid-write).
    Stale {
        /// The recorded pid, if parseable.
        pid: Option<u32>,
    },
}

impl std::fmt::Display for LockStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockStatus::Unlocked => write!(f, "unlocked"),
            LockStatus::Held { pid } => write!(f, "held by live pid {pid}"),
            LockStatus::Stale { pid: Some(pid) } => write!(f, "stale (dead pid {pid})"),
            LockStatus::Stale { pid: None } => write!(f, "stale (unreadable)"),
        }
    }
}

/// The current machine boot id, or `None` where unavailable.
fn boot_id() -> Option<String> {
    std::fs::read_to_string("/proc/sys/kernel/random/boot_id")
        .ok()
        .map(|s| s.trim().to_owned())
}

/// Whether `pid` is alive on this machine. `None` = cannot tell.
fn pid_alive(pid: u32) -> Option<bool> {
    if !Path::new("/proc").is_dir() {
        return None;
    }
    Some(Path::new(&format!("/proc/{pid}")).exists())
}

fn parse(content: &[u8]) -> Option<(u32, String)> {
    let text = std::str::from_utf8(content).ok()?;
    let mut pid = None;
    let mut boot = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("pid ") {
            pid = v.trim().parse::<u32>().ok();
        } else if let Some(v) = line.strip_prefix("boot ") {
            boot = Some(v.trim().to_owned());
        }
    }
    Some((pid?, boot?))
}

/// Classify the lock in `dir` without touching it.
pub(crate) fn status<V: Vfs>(vfs: &V, dir: &Path) -> LockStatus {
    let content = match vfs.read(&dir.join(LOCK_FILE_NAME)) {
        Ok(c) => c,
        Err(_) => return LockStatus::Unlocked,
    };
    let Some((pid, boot)) = parse(&content) else {
        // A torn LOCK write means the writer died before acknowledging
        // anything under this lock — stale by construction.
        return LockStatus::Stale { pid: None };
    };
    if let Some(current) = boot_id() {
        if current != boot {
            return LockStatus::Stale { pid: Some(pid) };
        }
    }
    match pid_alive(pid) {
        Some(false) => LockStatus::Stale { pid: Some(pid) },
        // Alive, or unknowable: refuse to steal.
        Some(true) | None => LockStatus::Held { pid },
    }
}

/// Take the lock for this process, stealing stale ones. Fails with
/// [`StoreError::Locked`] if a live holder exists.
pub(crate) fn acquire<V: Vfs>(vfs: &V, dir: &Path) -> Result<()> {
    let path = dir.join(LOCK_FILE_NAME);
    // Bounded: each loop either succeeds, returns Locked, or removes a
    // stale file; more than a couple of iterations means another
    // process is racing us for the same store — report it as locked.
    for _ in 0..4 {
        match vfs.create_new(&path) {
            Ok(mut f) => {
                let content = format!(
                    "pid {}\nboot {}\n",
                    std::process::id(),
                    boot_id().unwrap_or_else(|| "unknown".to_owned())
                );
                f.write_all(content.as_bytes())?;
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => match status(vfs, dir) {
                LockStatus::Held { pid } => {
                    return Err(StoreError::Locked { path, pid });
                }
                stale => {
                    grepair_obs::counter("store.fault").inc();
                    grepair_obs::event(
                        grepair_obs::Level::Warn,
                        "store.lock_stale",
                        format!("stealing {} lock at {}", stale, path.display()),
                    );
                    match vfs.remove_file(&path) {
                        Ok(()) => {}
                        // Lost a removal race; re-evaluate on next loop.
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            },
            Err(e) => return Err(e.into()),
        }
    }
    Err(StoreError::Locked { path, pid: 0 })
}

/// Drop the lock (best effort — a leftover is stale next time).
pub(crate) fn release<V: Vfs>(vfs: &V, dir: &Path) {
    let _ = vfs.remove_file(&dir.join(LOCK_FILE_NAME));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdFs;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "grepair-lock-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_then_status_then_release() {
        let dir = tmpdir("basic");
        assert_eq!(status(&StdFs, &dir), LockStatus::Unlocked);
        acquire(&StdFs, &dir).unwrap();
        assert_eq!(
            status(&StdFs, &dir),
            LockStatus::Held {
                pid: std::process::id()
            }
        );
        // A second acquire by "another process" (same pid, so it looks
        // alive) must refuse.
        assert!(matches!(
            acquire(&StdFs, &dir),
            Err(StoreError::Locked { pid, .. }) if pid == std::process::id()
        ));
        release(&StdFs, &dir);
        assert_eq!(status(&StdFs, &dir), LockStatus::Unlocked);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_pid_and_foreign_boot_are_stale_and_stolen() {
        let dir = tmpdir("stale");
        // Pid far above any default pid_max.
        std::fs::write(
            dir.join(LOCK_FILE_NAME),
            format!(
                "pid 999999999\nboot {}\n",
                boot_id().unwrap_or_else(|| "unknown".into())
            ),
        )
        .unwrap();
        if pid_alive(999999999) == Some(false) {
            assert_eq!(status(&StdFs, &dir), LockStatus::Stale { pid: Some(999999999) });
            acquire(&StdFs, &dir).unwrap();
            release(&StdFs, &dir);
        }
        // Our own live pid but a different boot: same pid numbers recur
        // across reboots, so this lock is from a dead world.
        std::fs::write(
            dir.join(LOCK_FILE_NAME),
            format!("pid {}\nboot not-this-boot\n", std::process::id()),
        )
        .unwrap();
        if boot_id().is_some() {
            assert!(matches!(status(&StdFs, &dir), LockStatus::Stale { .. }));
            acquire(&StdFs, &dir).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_lock_content_is_stale() {
        let dir = tmpdir("torn");
        std::fs::write(dir.join(LOCK_FILE_NAME), b"pi").unwrap();
        assert_eq!(status(&StdFs, &dir), LockStatus::Stale { pid: None });
        acquire(&StdFs, &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
