//! A thin single-threaded reactor over the vendored `epoll` crate.
//!
//! The daemon and the transport tests need exactly one primitive: "wake me when
//! any of these descriptors is ready, or after a timeout".  The [`Reactor`] wraps
//! the [`epoll::Epoll`] instance with an internal event buffer and re-exports the
//! registration [`Interest`] and the readiness [`IoEvent`] so callers never
//! depend on the compat crate directly.
//!
//! Registrations are level-triggered: a connection with unread bytes or a
//! non-empty write queue keeps waking the loop until it is drained, which makes
//! the daemon's state machine restartable at any point — the property the
//! partial-write proptests lean on.

use std::io;
use std::os::unix::io::RawFd;

pub use epoll::{Event as IoEvent, Interest};

/// A single-threaded epoll reactor.
#[derive(Debug)]
pub struct Reactor {
    epoll: epoll::Epoll,
    events: Vec<IoEvent>,
}

impl Reactor {
    /// Creates the underlying epoll instance.
    pub fn new() -> io::Result<Reactor> {
        Ok(Reactor {
            epoll: epoll::Epoll::new()?,
            events: Vec::new(),
        })
    }

    /// Registers `fd` under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.add(fd, token, interest)
    }

    /// Updates the interest (and token) of a registered descriptor.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.modify(fd, token, interest)
    }

    /// Removes a registration.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.epoll.delete(fd)
    }

    /// Waits up to `timeout_ms` (`None` = forever) and returns the ready events;
    /// an empty slice means the timeout elapsed.
    pub fn poll(&mut self, timeout_ms: Option<u64>) -> io::Result<&[IoEvent]> {
        self.events.clear();
        self.epoll.wait(timeout_ms, &mut self.events)?;
        Ok(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reactor_reports_readable_peers() {
        let (mut a, b) = UnixStream::pair().expect("pair");
        b.set_nonblocking(true).expect("nonblocking");
        let mut reactor = Reactor::new().expect("reactor");
        reactor
            .register(b.as_raw_fd(), 11, Interest::READABLE)
            .expect("register");
        assert!(reactor.poll(Some(20)).expect("poll").is_empty());
        a.write_all(b"x").expect("write");
        let events = reactor.poll(Some(1000)).expect("poll");
        assert!(events.iter().any(|e| e.token == 11 && e.readable));
        reactor.deregister(b.as_raw_fd()).expect("deregister");
    }
}
