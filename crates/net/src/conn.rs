//! Framed, non-blocking connections carrying [`WireMsg`]s.
//!
//! The deploy protocol reuses the `dlrv-stream` framing (see
//! [`dlrv_stream::wire`]): control, peer and fault-shim frames all travel through
//! the same [`FramedConn`], each frame declaring in its header whether its
//! payload is JSON or binary.
//!
//! A [`FramedConn`] wraps a non-blocking [`Socket`] with an incremental
//! [`FrameSplitter`] on the read side and a frame-boundary-aware write queue on
//! the write side: [`flush`](FramedConn::flush) writes as much as the kernel
//! accepts and remembers the offset inside a partially-written frame, so the
//! reactor can resume exactly where `EWOULDBLOCK` interrupted.  The
//! [`frames_flushed`](FramedConn::frames_flushed) counter — frames fully handed to
//! the kernel — is the `sent` side of the deploy quiescence barrier.

use crate::endpoint::Socket;
use crate::reactor::{Interest, Reactor};
use crate::wire::{self, WireMsg};
use dlrv_stream::FrameSplitter;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::os::unix::io::RawFd;
use std::time::{Duration, Instant};

/// Error of the transport layer: framing, JSON or socket I/O.
#[derive(Debug)]
pub struct NetError {
    /// Human-readable description.
    pub message: String,
}

impl NetError {
    /// Creates an error from a message.
    pub fn msg(message: impl Into<String>) -> Self {
        NetError {
            message: message.into(),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::msg(format!("socket I/O: {e}"))
    }
}

impl From<dlrv_json::JsonError> for NetError {
    fn from(e: dlrv_json::JsonError) -> Self {
        NetError::msg(format!("wire JSON: {e}"))
    }
}

impl From<dlrv_stream::StreamError> for NetError {
    fn from(e: dlrv_stream::StreamError) -> Self {
        NetError::msg(format!("wire codec: {e}"))
    }
}

/// A non-blocking socket carrying framed deploy messages in both directions.
#[derive(Debug)]
pub struct FramedConn {
    sock: Socket,
    frames: FrameSplitter,
    /// Outgoing frames not yet fully written; `out_pos` bytes of the front frame
    /// are already on the wire.
    outq: VecDeque<Vec<u8>>,
    out_pos: usize,
    frames_flushed: u64,
    eof: bool,
    read_chunk: Vec<u8>,
}

impl FramedConn {
    /// Wraps an established non-blocking socket.
    pub fn new(sock: Socket) -> Self {
        FramedConn {
            sock,
            frames: FrameSplitter::new(),
            outq: VecDeque::new(),
            out_pos: 0,
            frames_flushed: 0,
            eof: false,
            read_chunk: vec![0u8; 64 * 1024],
        }
    }

    /// Does nothing: the deploy wire has one format, so a connection has no
    /// mode to select.  Kept for the benchmark's connection probes, which
    /// always pass `true`; ROADMAP.md item 8(d) removes it together with them.
    pub fn set_binary_wire(&mut self, _on: bool) {}

    /// The raw descriptor, for reactor registration.
    pub fn raw_fd(&self) -> RawFd {
        self.sock.raw_fd()
    }

    /// True once the peer closed its write side.
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Reads everything currently available and returns the complete deploy
    /// messages decoded from it (possibly none), each frame per its own header
    /// flag.  Sets [`is_eof`](Self::is_eof) on a clean peer close; trailing
    /// bytes of a truncated frame at EOF are an error.
    pub fn on_readable_msgs(&mut self) -> Result<Vec<WireMsg>, NetError> {
        self.fill_from_socket()?;
        let mut msgs = Vec::new();
        while let Some((binary, payload)) = self.frames.next_frame()? {
            msgs.push(wire::decode_wire_frame(binary, payload)?);
        }
        if self.eof && self.frames.pending_bytes() > 0 {
            return Err(NetError::msg(format!(
                "peer closed mid-frame ({} trailing bytes)",
                self.frames.pending_bytes()
            )));
        }
        Ok(msgs)
    }

    /// Pulls every available byte off the socket into the frame splitter.
    fn fill_from_socket(&mut self) -> Result<(), NetError> {
        loop {
            match self.sock.read(&mut self.read_chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => self.frames.push(&self.read_chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Queues one deploy message (see [`wire::encode_frame`]) and attempts an
    /// immediate flush.
    pub fn send_msg(&mut self, msg: &WireMsg) -> Result<(), NetError> {
        self.queue_bytes(wire::encode_frame(msg));
        self.flush()?;
        Ok(())
    }

    /// Queues an already-encoded frame without flushing (the fault shim re-emits
    /// byte-identical frames, possibly delayed).
    pub fn queue_bytes(&mut self, frame: Vec<u8>) {
        debug_assert!(frame.len() >= 4, "frames carry a 4-byte length prefix");
        self.outq.push_back(frame);
    }

    /// Writes queued frames until the kernel pushes back.  Returns `true` when the
    /// queue drained completely.
    pub fn flush(&mut self) -> Result<bool, NetError> {
        while let Some(front) = self.outq.front() {
            match self.sock.write(&front[self.out_pos..]) {
                Ok(n) => {
                    self.out_pos += n;
                    if self.out_pos == front.len() {
                        self.outq.pop_front();
                        self.out_pos = 0;
                        self.frames_flushed += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }

    /// Writes the whole queue out, waiting on the socket — not on the clock —
    /// whenever the kernel pushes back.  Returns `false` when `timeout` passed with
    /// frames still queued.
    pub fn flush_blocking(&mut self, timeout: Duration) -> Result<bool, NetError> {
        if self.flush()? {
            return Ok(true);
        }
        // A reactor of its own: only this socket's writability ends the wait.
        let mut reactor = Reactor::new()?;
        reactor.register(self.raw_fd(), 0, Interest::WRITABLE)?;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(false);
            }
            reactor.poll(Some(left.as_millis().max(1) as u64))?;
            if self.flush()? {
                return Ok(true);
            }
        }
    }

    /// True while queued frames are waiting for the socket to become writable.
    pub fn wants_write(&self) -> bool {
        !self.outq.is_empty()
    }

    /// Number of queued (not fully written) frames.
    pub fn queued_frames(&self) -> usize {
        self.outq.len()
    }

    /// Frames fully handed to the kernel since the connection opened.
    pub fn frames_flushed(&self) -> u64 {
        self.frames_flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{connect_with_retry, Endpoint, Listener};

    fn loopback_pair() -> (FramedConn, FramedConn) {
        let listener =
            Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").expect("parse")).expect("bind");
        let local = listener.local_endpoint().expect("local");
        let client = connect_with_retry(&local, Duration::from_secs(2)).expect("connect");
        let server = loop {
            if let Some(sock) = listener.accept().expect("accept") {
                break sock;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        (FramedConn::new(client), FramedConn::new(server))
    }

    fn pump_until(rx: &mut FramedConn, want: usize, timeout: Duration) -> Vec<WireMsg> {
        let deadline = Instant::now() + timeout;
        let mut got = Vec::new();
        while got.len() < want {
            assert!(
                Instant::now() < deadline,
                "timed out with {} frames",
                got.len()
            );
            got.extend(rx.on_readable_msgs().expect("read"));
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn frames_round_trip_over_a_real_socket() {
        let (mut tx, mut rx) = loopback_pair();
        let msgs: Vec<WireMsg> = (0..12usize)
            .map(|i| match i % 4 {
                0 => WireMsg::PeerHello { from: i },
                1 => WireMsg::Finish { time: i as f64 },
                2 => WireMsg::Release,
                _ => WireMsg::ReleaseOk,
            })
            .collect();
        for m in &msgs {
            tx.send_msg(m).expect("send");
        }
        // Finish any partial flush.
        let deadline = Instant::now() + Duration::from_secs(2);
        while tx.wants_write() && Instant::now() < deadline {
            tx.flush().expect("flush");
        }
        assert_eq!(tx.frames_flushed(), msgs.len() as u64);
        let got = pump_until(&mut rx, msgs.len(), Duration::from_secs(2));
        assert_eq!(got, msgs);
    }

    #[test]
    fn flush_blocking_waits_for_the_reader_and_gives_up_at_the_timeout() {
        // The reading end is a bare stream: nothing here depends on what a frame says.
        let (a, mut b) = std::os::unix::net::UnixStream::pair().expect("pair");
        a.set_nonblocking(true).expect("nonblocking");
        let mut tx = FramedConn::new(Socket::Unix(a));
        // Far more than a socket buffer holds, so the first flush stops short.
        const FRAMES: usize = 8;
        for _ in 0..FRAMES {
            tx.queue_bytes(vec![0u8; 1 << 20]);
        }
        // Nobody reads: the wait ends at the timeout with frames still queued.
        let started = Instant::now();
        assert!(!tx.flush_blocking(Duration::from_millis(30)).expect("flush"));
        assert!(started.elapsed() >= Duration::from_millis(30) && tx.wants_write());
        // A reader that starts late: the wait ends as soon as the queue is out.
        let reader = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let (mut sink, mut total) = (vec![0u8; 1 << 16], 0);
            while total < FRAMES << 20 {
                total += std::io::Read::read(&mut b, &mut sink).expect("read");
            }
            total
        });
        assert!(tx.flush_blocking(Duration::from_secs(10)).expect("flush"));
        assert_eq!(tx.frames_flushed(), FRAMES as u64);
        assert_eq!(reader.join().expect("reader"), FRAMES << 20);
    }
}
