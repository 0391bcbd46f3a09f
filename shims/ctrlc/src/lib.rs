//! In-tree shim of the `ctrlc` crate: a minimal SIGINT handler.
//!
//! The real signal handler does the absolute minimum that is
//! async-signal-safe — it flips one static atomic (first ^C) or calls
//! `_exit(130)` (second ^C, the "I really mean it" escape hatch). A
//! plain watcher thread polls the atomic every ~50 ms and invokes the
//! user's closure from ordinary thread context, so the closure is free
//! to take locks, allocate, and log. This mirrors how cooperative
//! cancellation wants to be fed: the closure typically just flips a
//! `CancelToken`, and the application winds down at its own pace.
//!
//! Unsafe is confined to the two `extern "C"` calls in
//! `sys::install_handler`; everything above them is safe Rust. On
//! non-unix targets [`set_handler`] is a no-op that still spawns the
//! watcher (the flag simply never fires).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Set by the signal handler on the first SIGINT; consumed (reset) by
/// the watcher thread right before it invokes the user closure.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// How many SIGINTs have ever arrived. The handler hard-exits on the
/// second one so a wedged shutdown can always be escaped.
static SIGINT_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Guards against installing two watcher threads.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Error returned by [`set_handler`].
#[derive(Debug)]
pub enum Error {
    /// `set_handler` was called twice in one process.
    MultipleHandlers,
    /// The OS rejected the signal registration.
    System(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::MultipleHandlers => write!(f, "a ctrl-c handler is already installed"),
            Error::System(e) => write!(f, "failed to install signal handler: {e}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(unix)]
mod sys {
    use std::sync::atomic::Ordering;

    pub const SIGINT: i32 = 2;
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(status: i32) -> !;
        fn raise(signum: i32) -> i32;
    }

    /// The actual signal handler: async-signal-safe by construction —
    /// one atomic store, one atomic add, and (second time only) _exit.
    extern "C" fn on_sigint(_signum: i32) {
        if super::SIGINT_COUNT.fetch_add(1, Ordering::SeqCst) >= 1 {
            // Second ^C: the graceful path is taking too long or is
            // wedged. 130 = 128 + SIGINT, the shell convention.
            unsafe { _exit(130) }
        }
        super::INTERRUPTED.store(true, Ordering::SeqCst);
    }

    pub fn install_handler() -> std::io::Result<()> {
        let handler = on_sigint as extern "C" fn(i32) as *const () as usize;
        let prev = unsafe { signal(SIGINT, handler) };
        if prev == SIG_ERR {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Deliver SIGINT to the current process (tests only).
    pub fn raise_sigint() {
        unsafe {
            raise(SIGINT);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn install_handler() -> std::io::Result<()> {
        Ok(())
    }
    pub fn raise_sigint() {}
}

/// Install `handler` to run (on a plain thread, not in signal context)
/// after each SIGINT. A second SIGINT while the first is being handled
/// hard-exits the process with status 130.
pub fn set_handler<F>(handler: F) -> Result<(), Error>
where
    F: FnMut() + Send + 'static,
{
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return Err(Error::MultipleHandlers);
    }
    sys::install_handler().map_err(Error::System)?;
    let mut handler = handler;
    std::thread::Builder::new()
        .name("ctrlc-watcher".into())
        .spawn(move || loop {
            if INTERRUPTED.swap(false, Ordering::SeqCst) {
                handler();
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .map_err(Error::System)?;
    Ok(())
}

/// Deliver a SIGINT to this process — lets integration tests drive the
/// installed handler without an interactive terminal.
pub fn raise_for_test() {
    sys::raise_sigint();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn handler_runs_after_raise_and_double_install_fails() {
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        set_handler(move || {
            f.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(matches!(
            set_handler(|| {}),
            Err(Error::MultipleHandlers)
        ));

        raise_for_test();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "handler never fired after raise(SIGINT)"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }
}
