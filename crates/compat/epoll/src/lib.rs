//! A minimal safe wrapper over the Linux `epoll` syscalls.
//!
//! The workspace has no access to crates.io, so — like the `rand` and `proptest`
//! stand-ins next door — the readiness primitive underlying the
//! `dlrv-net` reactor is vendored here.  The surface is the small subset the
//! reactor needs: create an epoll instance, register/modify/deregister file
//! descriptors with a caller-chosen `u64` token, and wait (level-triggered) with a
//! millisecond timeout.
//!
//! This is the only crate in the workspace allowed to contain `unsafe` code (the
//! dlrv-* crates all `forbid(unsafe_code)`; the workspace lint table is not
//! inherited under `crates/compat/`).  The unsafety is confined to the four
//! `extern "C"` syscall wrappers; everything above them is safe: the [`Epoll`]
//! handle owns its file descriptor and closes it on drop, and `wait` only writes
//! into a buffer it sized itself.

#![cfg(target_os = "linux")]

use std::io;
use std::os::unix::io::RawFd;

// Values from <sys/epoll.h> (stable kernel ABI).
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`.  On x86-64 the kernel ABI packs the 64-bit
/// payload directly after the 32-bit mask; other architectures use natural
/// alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut RawEpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Which readiness conditions a registration asks for (level-triggered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or a peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification returned by [`Epoll::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// The descriptor is readable.
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// An error condition is pending (read/write will surface it).
    pub error: bool,
    /// The peer closed its end.
    pub hangup: bool,
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a new (close-on-exec) epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = RawEpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it synchronously.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given token and interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the token/interest of an already-registered descriptor.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL on kernels ≥ 2.6.9 but must be
        // non-null for portability; reuse a zeroed registration.
        let mut ev = RawEpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`.
        let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits up to `timeout_ms` milliseconds (`None` blocks indefinitely) and
    /// appends the ready events to `out`.  Returns the number of events appended;
    /// `0` means the timeout elapsed.  Interrupted waits (`EINTR`) retry.
    pub fn wait(&self, timeout_ms: Option<u64>, out: &mut Vec<Event>) -> io::Result<usize> {
        const CAPACITY: usize = 64;
        let mut raw = [RawEpollEvent { events: 0, data: 0 }; CAPACITY];
        let timeout = match timeout_ms {
            None => -1i32,
            Some(ms) => i32::try_from(ms).unwrap_or(i32::MAX),
        };
        loop {
            // SAFETY: `raw` is a valid buffer of CAPACITY entries; the kernel
            // writes at most `maxevents` of them.
            let n = unsafe { epoll_wait(self.fd, raw.as_mut_ptr(), CAPACITY as i32, timeout) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            let n = n as usize;
            for ev in raw.iter().take(n) {
                // Copy out of the (possibly packed) struct before testing bits.
                let mask = ev.events;
                let token = ev.data;
                out.push(Event {
                    token,
                    readable: mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: mask & EPOLLOUT != 0,
                    error: mask & EPOLLERR != 0,
                    hangup: mask & (EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            return Ok(n);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this handle and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn socketpair_readiness_round_trip() {
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).expect("nonblocking");
        b.set_nonblocking(true).expect("nonblocking");
        let epoll = Epoll::new().expect("epoll_create1");
        epoll.add(a.as_raw_fd(), 1, Interest::BOTH).expect("add a");
        epoll
            .add(b.as_raw_fd(), 2, Interest::READABLE)
            .expect("add b");

        // An idle pair: `a` is writable (asked for BOTH), `b` has nothing to read.
        let mut events = Vec::new();
        epoll.wait(Some(100), &mut events).expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        assert!(!events.iter().any(|e| e.token == 2 && e.readable));

        // Data written on `a` makes `b` readable.
        a.write_all(b"ping").expect("write");
        events.clear();
        epoll.wait(Some(1000), &mut events).expect("wait");
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        let mut buf = [0u8; 8];
        let n = b.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");

        // Re-arm `a` read-only: no spurious writable wakeups afterwards.
        epoll
            .modify(a.as_raw_fd(), 7, Interest::READABLE)
            .expect("modify");
        events.clear();
        epoll.wait(Some(50), &mut events).expect("wait");
        assert!(events.iter().all(|e| e.token != 7 || !e.writable));

        // Dropping `b` hangs `a` up.
        drop(b);
        events.clear();
        epoll.wait(Some(1000), &mut events).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.hangup));

        epoll.delete(a.as_raw_fd()).expect("delete");
        events.clear();
        epoll.wait(Some(20), &mut events).expect("wait");
        assert!(events.is_empty(), "deregistered fd must not report events");
    }

    #[test]
    fn timeout_returns_zero_events() {
        let epoll = Epoll::new().expect("epoll");
        let mut events = Vec::new();
        let n = epoll.wait(Some(10), &mut events).expect("wait");
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }
}
