//! Property-based tests of the socket transport: the framing layer must
//! reassemble any chunking, coalescing or partial-write pattern the kernel (or a
//! hostile sender) produces, and no byte sequence may panic the decoder.  The
//! wire never guarantees frame-aligned reads — a length prefix may arrive one
//! byte at a time, ten frames may coalesce into one `read`, and a non-blocking
//! `write` may stop inside a payload — so both directions are driven through the
//! epoll [`Reactor`], exactly like the `monitord` event loop.

use dlrv_ltl::{Assignment, Verdicts};
use dlrv_monitor::{ConjunctEval, EvalState, MonitorMsg, Token, TokenTransition};
use dlrv_net::{
    connect_with_retry, decode_wire_frame, encode_frame, Endpoint, FramedConn, Interest, Listener,
    Reactor, Socket, WireMsg,
};
use dlrv_stream::FrameSplitter;
use dlrv_vclock::{Event, EventKind, VectorClock};
use proptest::prelude::*;
use std::io;
use std::time::{Duration, Instant};

/// SplitMix64 step: expands one seed into a reproducible pseudo-random sequence.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    *seed >> 17
}

/// An arbitrary JSON frame (an `error` message padded to size): sizes range from
/// a few bytes to well past the 64 KiB read-chunk size, so reassembly crosses
/// every internal buffer boundary.
fn frame_from_seed(seed: &mut u64, index: usize) -> WireMsg {
    let fill = (b'a' + (mix(seed) % 26) as u8) as char;
    let len = match mix(seed) % 4 {
        0 => mix(seed) % 8,               // tiny: several coalesce into one read
        1 => 64 + mix(seed) % 1024,       // medium: typical token frame
        2 => 4096 + mix(seed) % 4096,     // large: spans several TCP segments
        _ => 60_000 + mix(seed) % 20_000, // huge: larger than the 64 KiB read chunk
    } as usize;
    WireMsg::Error {
        message: format!("{index}:{}", fill.to_string().repeat(len)),
    }
}

/// An arbitrary hot-path wire message — the frames the binary codec covers.
/// Events and monitor tokens scale with the trace, so these are exactly the
/// shapes a connection carries at volume; a quarter are control frames.
fn hot_msg_from_seed(seed: &mut u64) -> WireMsg {
    let n = 2 + (mix(seed) % 4) as usize;
    let vc = |seed: &mut u64| VectorClock::from_entries((0..n).map(|_| mix(seed) % 500).collect());
    let transition = |seed: &mut u64| {
        let mut t = TokenTransition::new((mix(seed) % 32) as usize, n);
        let (gcut, depend) = t.cuts_mut();
        for entry in gcut.iter_mut().chain(depend) {
            *entry = mix(seed) % 500;
        }
        t.gstate = Assignment(mix(seed));
        for p in 0..n {
            let c = match mix(seed) % 4 {
                0 => ConjunctEval::NotInvolved,
                1 => ConjunctEval::Unset,
                2 => ConjunctEval::True,
                _ => ConjunctEval::False,
            };
            t.set_conjunct(p, c);
        }
        t.next_target_process = (mix(seed) % n as u64) as usize;
        t.next_target_event = mix(seed) % 1000;
        t.eval = match mix(seed) % 3 {
            0 => EvalState::Unset,
            1 => EvalState::Enabled,
            _ => EvalState::Disabled,
        };
        t
    };
    let token = |seed: &mut u64| Token {
        property: (mix(seed) % 4) as u32,
        parent: (mix(seed) % n as u64) as usize,
        parent_gv: mix(seed),
        known: Verdicts::from_bits((mix(seed) % 4) as u8).expect("two bits"),
        transitions: (0..1 + mix(seed) % 3).map(|_| transition(seed)).collect(),
    };
    match mix(seed) % 4 {
        0 => {
            let process = (mix(seed) % n as u64) as usize;
            WireMsg::Event {
                event: Event {
                    process,
                    kind: match mix(seed) % 3 {
                        0 => EventKind::Internal,
                        1 => EventKind::Send {
                            to: (process + 1) % n,
                            msg_id: mix(seed),
                        },
                        _ => EventKind::Receive {
                            from: (process + 1) % n,
                            msg_id: mix(seed),
                        },
                    },
                    sn: 1 + mix(seed) % 500,
                    vc: vc(seed),
                    state: Assignment(mix(seed)),
                    time: (mix(seed) % 1_000_000) as f64 * 0.001,
                },
            }
        }
        1 | 2 => WireMsg::Monitor {
            from: (mix(seed) % n as u64) as usize,
            seq: mix(seed),
            time: (mix(seed) % 1_000_000) as f64 * 0.001,
            msg: MonitorMsg {
                tokens: (0..1 + mix(seed) % 4).map(|_| token(seed)).collect(),
            },
        },
        // Control frames are JSON; interleave some so the decoder's per-frame
        // format bit is exercised both ways.
        _ => match mix(seed) % 3 {
            0 => WireMsg::Finish {
                time: (mix(seed) % 1_000_000) as f64 * 0.001,
            },
            1 => WireMsg::Release,
            _ => WireMsg::ReleaseOk,
        },
    }
}

/// A connected non-blocking loopback pair (client, server).
fn loopback_sockets() -> (Socket, Socket) {
    let listener =
        Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").expect("parse")).expect("bind");
    let local = listener.local_endpoint().expect("local endpoint");
    let client = connect_with_retry(&local, Duration::from_secs(5)).expect("connect");
    let server = loop {
        if let Some(sock) = listener.accept().expect("accept") {
            break sock;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    (client, server)
}

/// Writes as much of `chunk` as the kernel accepts right now (possibly zero
/// bytes), without blocking — the raw-write primitive of the chunking test.
fn write_some(sock: &mut Socket, chunk: &[u8]) -> Result<usize, io::Error> {
    match sock.write(chunk) {
        Ok(n) => Ok(n),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
        Err(e) => Err(e),
    }
}

/// Pushes `wire` through a loopback socket in arbitrary slices (single bytes
/// up to multi-frame coalescings), with the reactor deciding when the receiving
/// [`FramedConn`] reads, until `want` messages came out.
fn pump_chunked(wire: &[u8], want: usize, s: &mut u64) -> Result<Vec<WireMsg>, String> {
    let (mut tx, server) = loopback_sockets();
    let mut rx = FramedConn::new(server);
    let mut reactor = Reactor::new().expect("reactor");
    reactor
        .register(rx.raw_fd(), 1, Interest::READABLE)
        .expect("register rx");

    let mut sent = 0usize;
    let mut got: Vec<WireMsg> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while got.len() < want {
        prop_assert!(
            Instant::now() < deadline,
            "timed out with {} messages",
            got.len()
        );
        // Push one arbitrary-sized slice (1 byte .. ~100 KiB) while data remains.
        if sent < wire.len() {
            let max = wire.len() - sent;
            let chunk = match mix(s) % 3 {
                0 => 1 + (mix(s) % 7) as usize,       // byte-dribble
                1 => 1 + (mix(s) % 1500) as usize,    // segment-ish
                _ => 1 + (mix(s) % 100_000) as usize, // coalesce frames
            }
            .min(max);
            match write_some(&mut tx, &wire[sent..sent + chunk]) {
                Ok(n) => sent += n,
                Err(e) => prop_assert!(false, "write: {e}"),
            }
        }
        let ready = reactor
            .poll(Some(50))
            .expect("poll")
            .iter()
            .any(|e| e.token == 1 && e.readable);
        if ready || sent == wire.len() {
            match rx.on_readable_msgs() {
                Ok(decoded) => got.extend(decoded),
                Err(e) => prop_assert!(false, "read: {e}"),
            }
        }
    }
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw chunked writes: the concatenated byte stream of many frames is pushed
    /// through the socket in arbitrary slices (single bytes up to multi-frame
    /// coalescings), with the reactor deciding when the receiver reads.  The
    /// decoder must reproduce every frame, in order, bit-for-bit.
    #[test]
    fn arbitrary_chunking_reassembles_every_frame(seed in 0u64..1 << 48) {
        let mut s = seed;
        let n_frames = 2 + (mix(&mut s) % 24) as usize;
        let frames: Vec<WireMsg> = (0..n_frames).map(|i| frame_from_seed(&mut s, i)).collect();
        let mut wire: Vec<u8> = Vec::new();
        for f in &frames {
            wire.extend(encode_frame(f));
        }

        let got = pump_chunked(&wire, frames.len(), &mut s)?;
        prop_assert_eq!(got, frames);
    }

    /// Partial writes through [`FramedConn`]: every frame is queued up front, the
    /// writer flushes only when the reactor reports the socket writable, and the
    /// reader drains concurrently.  With more queued bytes than the socket buffers
    /// hold, `flush` must stop mid-frame on `EWOULDBLOCK` and resume exactly
    /// where it left off; `frames_flushed` must count every frame exactly once.
    #[test]
    fn partial_writes_resume_across_reactor_wakeups(seed in 0u64..1 << 48) {
        let mut s = seed;
        let n_frames = 8 + (mix(&mut s) % 24) as usize;
        let frames: Vec<WireMsg> = (0..n_frames).map(|i| frame_from_seed(&mut s, i)).collect();

        let (client, server) = loopback_sockets();
        let mut tx = FramedConn::new(client);
        let mut rx = FramedConn::new(server);
        let mut reactor = Reactor::new().expect("reactor");
        reactor
            .register(tx.raw_fd(), 0, Interest::BOTH)
            .expect("register tx");
        reactor
            .register(rx.raw_fd(), 1, Interest::READABLE)
            .expect("register rx");

        for f in &frames {
            tx.queue_bytes(encode_frame(f));
        }
        let mut got: Vec<WireMsg> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while got.len() < frames.len() {
            prop_assert!(Instant::now() < deadline, "timed out with {} frames", got.len());
            let events: Vec<_> = reactor.poll(Some(50)).expect("poll").to_vec();
            for event in events {
                if event.token == 0 && event.writable && tx.wants_write() {
                    match tx.flush() {
                        Ok(_) => {}
                        Err(e) => prop_assert!(false, "flush: {e}"),
                    }
                }
                if event.token == 1 && event.readable {
                    match rx.on_readable_msgs() {
                        Ok(decoded) => got.extend(decoded),
                        Err(e) => prop_assert!(false, "read: {e}"),
                    }
                }
            }
        }
        prop_assert!(!tx.wants_write(), "queue must drain completely");
        prop_assert_eq!(tx.frames_flushed(), frames.len() as u64);
        prop_assert_eq!(got, frames);
    }

    /// Differential transport, control frames JSON and hot frames binary: a
    /// stream interleaving both (as every real connection does) is pushed in
    /// arbitrary slices, each frame's header must declare the format its type
    /// decides, and the typed receive path must reproduce every message exactly.
    #[test]
    fn control_json_and_hot_binary_frames_reassemble_typed(seed in 0u64..1 << 48) {
        let mut s = seed;
        let n_msgs = 2 + (mix(&mut s) % 24) as usize;
        let msgs: Vec<WireMsg> = (0..n_msgs)
            .map(|i| match mix(&mut s) % 4 {
                0 => frame_from_seed(&mut s, i),
                _ => hot_msg_from_seed(&mut s),
            })
            .collect();
        let mut wire: Vec<u8> = Vec::new();
        for msg in &msgs {
            let frame = encode_frame(msg);
            let mut splitter = FrameSplitter::new();
            splitter.push(&frame);
            let (binary, _) = splitter.next_frame().expect("split").expect("one frame");
            let hot = matches!(msg, WireMsg::Event { .. } | WireMsg::Monitor { .. });
            prop_assert!(binary == hot, "header format bit {binary} for {msg:?}");
            wire.extend(frame);
        }

        let got = pump_chunked(&wire, msgs.len(), &mut s)?;
        prop_assert_eq!(got, msgs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile input, generated: arbitrary bytes under either format flag end in
    /// a message or an error, never a panic.
    #[test]
    fn arbitrary_payloads_never_panic_the_wire_decoder(seed in 0u64..1 << 48) {
        let mut s = seed;
        let len = (mix(&mut s) % 256) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| mix(&mut s) as u8).collect();
        for binary in [false, true] {
            let _ = decode_wire_frame(binary, &bytes);
        }
        // The same noise behind a plausible head, so the decoder gets past the tags.
        for (i, b) in [2u8, 0, 0].into_iter().enumerate().take(len) {
            bytes[i] = b;
        }
        let _ = decode_wire_frame(true, &bytes);
    }

    /// Hostile input, mutated: at every position of a valid frame's payload, a
    /// flipped byte, a truncation, and the byte replaced by a varint claiming
    /// 2²⁷ (what a corrupted length prefix looks like) all end in a message or
    /// an error.  The unmutated payload decodes to the message it encodes.
    #[test]
    fn mutated_wire_frames_decode_or_error(seed in 0u64..1 << 48) {
        let mut s = seed;
        let msg = hot_msg_from_seed(&mut s);
        let mut splitter = FrameSplitter::new();
        splitter.push(&encode_frame(&msg));
        let (binary, payload) = splitter.next_frame().expect("split").expect("one frame");
        match decode_wire_frame(binary, payload) {
            Ok(back) => prop_assert_eq!(back, msg),
            Err(e) => prop_assert!(false, "valid frame rejected: {e}"),
        }
        for i in 0..payload.len() {
            let mut flipped = payload.to_vec();
            flipped[i] ^= 1 + (mix(&mut s) % 255) as u8;
            let _ = decode_wire_frame(binary, &flipped);
            let _ = decode_wire_frame(binary, &payload[..i]);
            let mut inflated = payload[..i].to_vec();
            inflated.extend_from_slice(&[0x80, 0x80, 0x80, 0x40]);
            inflated.extend_from_slice(&payload[i + 1..]);
            let _ = decode_wire_frame(binary, &inflated);
        }
    }
}
