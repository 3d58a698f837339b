//! A minimal, std-only wrapper over `poll(2)`: the readiness wait of
//! the [`crate::RemoteRuntimeNode`] event loop.
//!
//! This is the workspace's only `unsafe` code: one foreign call whose
//! arguments are a borrowed slice of `#[repr(C)]` descriptors.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

/// Readable (or, on a listener, a connection is ready to accept).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition (always reported, never requested).
pub(crate) const POLLERR: c_short = 0x008;
/// Hung up: both directions are shut (always reported).
pub(crate) const POLLHUP: c_short = 0x010;
/// The descriptor is not open (always reported).
pub(crate) const POLLNVAL: c_short = 0x020;

/// One `struct pollfd`: the descriptor, the events of interest, and
/// the events the kernel reports back.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events` (0 still reports errors and hang-ups).
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The events reported by the last [`wait`].
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until at least one descriptor in `fds` is ready, or until
/// `timeout` passes (`None` waits indefinitely). Fills each entry's
/// [`revents`](PollFd::revents) and returns how many are non-zero.
/// A wait interrupted by a signal is retried.
///
/// # Errors
/// The `poll(2)` error: invalid arguments or kernel memory exhaustion.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_millis().max(1)).unwrap_or(c_int::MAX)
    });
    loop {
        // SAFETY: `fds` is an exclusively borrowed, initialized slice
        // of `#[repr(C)]` values laid out exactly like `struct pollfd`,
        // and `nfds` is its length, so the kernel reads and writes only
        // memory this call owns for its duration. Unknown or closed
        // descriptors are reported through `revents` (POLLNVAL), never
        // dereferenced.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if let Ok(ready) = usize::try_from(ready) {
            return Ok(ready);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readiness_and_times_out() {
        let (mut tx, rx) = UnixStream::pair().expect("pair");
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let idle = wait(&mut fds, Some(Duration::from_millis(1))).expect("waits");
        assert_eq!((idle, fds[0].revents()), (0, 0));
        tx.write_all(&[1]).expect("writes");
        assert_eq!(wait(&mut fds, None).expect("waits"), 1);
        assert_eq!(fds[0].revents() & POLLIN, POLLIN);
        drop(tx);
        let mut fds = [PollFd::new(rx.as_raw_fd(), 0)];
        assert_eq!(wait(&mut fds, None).expect("waits"), 1);
        assert_ne!(fds[0].revents() & POLLHUP, 0, "hang-up is always reported");
    }
}
