//! Single-layer probes of the traced run: the vector-clock, stream-codec and
//! net layers driven alone over the workload's own data.  Each probe repeats its
//! body until it has run for [`PROBE_NANOS`], so nanosecond-scale calls are
//! timed over millions of calls, and passes inputs and results through
//! `black_box` so the work cannot be optimized away.

use crate::reference::for_each_record;
use crate::stats::nanos_since;
use crate::workload::Inputs;
use dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_ltl::Assignment;
use dlrv_monitor::{DecentralizedMonitor, MonitorMsg, MonitorOptions};
use dlrv_net::{decode_wire_frame, encode_wire_frame, DaemonStatus, FramedConn, Socket, WireMsg};
use dlrv_stream::{encode_stream, BinaryStreamEncoder, SessionStream, StreamRecord};
use dlrv_vclock::{compare_many, VectorClock};
use std::collections::VecDeque;
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

/// How long one probe body is repeated for.
const PROBE_NANOS: u64 = 100_000_000;

/// Nanoseconds per operation of `body`, which returns how many operations one
/// call performed.
fn nanos_per_op(mut body: impl FnMut() -> usize) -> f64 {
    let started = Instant::now();
    let mut ops = 0usize;
    loop {
        ops += body();
        let elapsed = nanos_since(started);
        if elapsed >= PROBE_NANOS {
            return elapsed as f64 / ops.max(1) as f64;
        }
    }
}

/// A probe's results: per-layer metric names (as declared in
/// [`PER_LAYER`](crate::layers::PER_LAYER)) with their values.
pub type Values = Vec<(&'static str, f64)>;

/// `vclock`: one `partial_cmp_clock` of two event clocks, `compare_many` of one
/// clock against 16 (per clock compared) and one `merge` into an accumulator,
/// over up to 4096 clocks of the workload's first sessions.
pub fn vclock(sessions: &[SessionStream]) -> Values {
    let clocks: Vec<VectorClock> = sessions
        .iter()
        .flat_map(|s| s.events.iter().map(|e| e.vc.clone()))
        .take(4096)
        .collect();
    assert!(clocks.len() > 17, "workload too small for the vclock probe");
    let compare_nanos = nanos_per_op(|| {
        for pair in clocks.windows(2) {
            black_box(black_box(&pair[0]).partial_cmp_clock(black_box(&pair[1])));
        }
        clocks.len() - 1
    });
    let mut out = Vec::new();
    let compare_many_nanos_per_clock = nanos_per_op(|| {
        for window in clocks.windows(17) {
            compare_many(black_box(&window[0]), &window[1..], &mut out);
            black_box(&out);
        }
        (clocks.len() - 16) * 16
    });
    let merge_nanos = nanos_per_op(|| {
        let mut acc = VectorClock::zero(clocks[0].len());
        for clock in &clocks {
            acc.merge(black_box(clock));
        }
        black_box(acc);
        clocks.len()
    });
    vec![
        ("vclock.compare_ns", compare_nanos),
        (
            "vclock.compare_many_ns_per_clock",
            compare_many_nanos_per_clock,
        ),
        ("vclock.merge_ns", merge_nanos),
    ]
}

fn decode_all(bytes: &[u8]) -> usize {
    let mut records = 0usize;
    for_each_record(bytes, |record| {
        black_box(record);
        records += 1;
    });
    records
}

/// `stream.codec`: `FrameDecoder` over the binary stream in 64 KiB chunks and
/// `BinaryStreamEncoder` over its records, then the same through the JSON
/// encoding.  `records` is the decoded form of `bytes`; the JSON half runs over
/// the first 50 000 records (JSON is the control/fixture format, an order of
/// magnitude slower, and its per-record cost does not depend on position).
pub fn codec(bytes: &[u8], records: &[StreamRecord], n_events: usize) -> Values {
    let per_event = |nanos: u64, of: &[StreamRecord]| {
        let events = of
            .iter()
            .filter(|r| matches!(r, StreamRecord::Event { .. }))
            .count();
        nanos as f64 / events.max(1) as f64
    };
    let t = Instant::now();
    assert_eq!(decode_all(black_box(bytes)), records.len());
    let decode_nanos = nanos_since(t);

    let t = Instant::now();
    let mut encoder = BinaryStreamEncoder::new();
    let mut out = Vec::with_capacity(bytes.len());
    for record in records {
        encoder.encode_frame_into(black_box(record), &mut out);
    }
    let encode_nanos = nanos_since(t);
    assert_eq!(out.len(), bytes.len(), "re-encoding reproduces the stream");

    let head = &records[..records.len().min(50_000)];
    let t = Instant::now();
    let json = encode_stream(black_box(head));
    let json_encode_nanos = nanos_since(t);
    let t = Instant::now();
    assert_eq!(decode_all(black_box(&json)), head.len());
    let json_decode_nanos = nanos_since(t);

    vec![
        (
            "stream.codec.decode_ns_per_event",
            per_event(decode_nanos, records),
        ),
        (
            "stream.codec.encode_ns_per_event",
            per_event(encode_nanos, records),
        ),
        (
            "stream.codec.bytes_per_event",
            bytes.len() as f64 / n_events as f64,
        ),
        (
            "stream.codec.json_decode_ns_per_event",
            per_event(json_decode_nanos, head),
        ),
        (
            "stream.codec.json_encode_ns_per_event",
            per_event(json_encode_nanos, head),
        ),
    ]
}

/// Drives the session's decentralized monitors by hand, exactly as
/// `FeedSession` does, to collect what `monitord` daemons put on the wire: one
/// `event` frame per program event and one `monitor` frame per token message.
fn wire_messages(inputs: &Inputs, stream: &SessionStream) -> Vec<WireMsg> {
    let n = stream.n_processes;
    let member = &inputs.compiled.members[0];
    let mut monitors: Vec<DecentralizedMonitor> = (0..n)
        .map(|i| {
            DecentralizedMonitor::new(
                i,
                n,
                member.automaton.clone(),
                inputs.compiled.registry.clone(),
                Assignment(stream.initial_state),
                MonitorOptions::default(),
            )
        })
        .collect();
    let mut wire = Vec::new();
    let mut inflight: VecDeque<(usize, usize, MonitorMsg)> = VecDeque::new();
    let mut outbox: Vec<(usize, MonitorMsg)> = Vec::new();
    let mut seq = 0u64;
    for event in &stream.events {
        wire.push(WireMsg::Event {
            event: event.clone(),
        });
        let shared = Arc::new(event.clone());
        let p = event.process;
        monitors[p].on_local_event(
            &shared,
            &mut MonitorContext::new(p, n, event.time, &mut outbox),
        );
        inflight.extend(outbox.drain(..).map(|(to, msg)| (p, to, msg)));
        while let Some((from, to, msg)) = inflight.pop_front() {
            seq += 1;
            wire.push(WireMsg::Monitor {
                from,
                seq,
                time: event.time,
                msg: msg.clone(),
            });
            monitors[to].on_monitor_message(
                from,
                msg,
                &mut MonitorContext::new(to, n, event.time, &mut outbox),
            );
            inflight.extend(outbox.drain(..).map(|(dest, msg)| (to, dest, msg)));
        }
    }
    wire
}

/// `net`: `encode_wire_frame`/`decode_wire_frame` over the binary `event` and
/// `monitor` frames of the deploy workload's own events and tokens, over the
/// JSON `status`/`status_ok` frames of the barrier, and one frame there and back
/// between two `FramedConn`s over a Unix socket pair.
pub fn net(inputs: &Inputs) -> Result<Values, String> {
    let n = inputs.workload.n_processes;
    let hot = wire_messages(inputs, &inputs.sessions[0]);
    let frames: Vec<Vec<u8>> = hot.iter().map(|m| encode_wire_frame(m, true)).collect();
    let encode_nanos_per_msg = nanos_per_op(|| {
        for msg in &hot {
            black_box(encode_wire_frame(black_box(msg), true));
        }
        hot.len()
    });
    let decode_nanos_per_msg = nanos_per_op(|| {
        for frame in &frames {
            black_box(decode_wire_frame(true, black_box(&frame[4..])).expect("own frame decodes"));
        }
        frames.len()
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();

    let control = [
        WireMsg::Status,
        WireMsg::StatusOk(DaemonStatus {
            process: 1,
            events_seen: 118,
            sent: (0..n as u64).map(|j| 40 + j).collect(),
            received: (0..n as u64).map(|j| 38 + j).collect(),
            pending: 0,
            dropped: 0,
        }),
    ];
    let control_frames: Vec<Vec<u8>> = control.iter().map(|m| encode_wire_frame(m, true)).collect();
    let json_encode_nanos_per_msg = nanos_per_op(|| {
        for msg in &control {
            black_box(encode_wire_frame(black_box(msg), true));
        }
        control.len()
    });
    let json_decode_nanos_per_msg = nanos_per_op(|| {
        for frame in &control_frames {
            black_box(decode_wire_frame(false, black_box(&frame[4..])).expect("own frame decodes"));
        }
        control_frames.len()
    });

    Ok(vec![
        ("net.wire.encode_ns_per_msg", encode_nanos_per_msg),
        ("net.wire.decode_ns_per_msg", decode_nanos_per_msg),
        ("net.wire.bytes_per_msg", bytes as f64 / frames.len() as f64),
        ("net.wire.json_encode_ns_per_msg", json_encode_nanos_per_msg),
        ("net.wire.json_decode_ns_per_msg", json_decode_nanos_per_msg),
        ("net.conn.roundtrip_us", roundtrip_micros(&hot[0])?),
    ])
}

/// Blocks (polling, as `run_deploy` and `monitord` do between reactor wakeups)
/// until `conn` yields a message.
fn recv_one(conn: &mut FramedConn) -> Result<Option<WireMsg>, String> {
    loop {
        let mut msgs = conn.on_readable_msgs().map_err(|e| e.to_string())?;
        if let Some(msg) = msgs.pop() {
            return Ok(Some(msg));
        }
        if conn.is_eof() {
            return Ok(None);
        }
        std::hint::spin_loop();
    }
}

fn send_one(conn: &mut FramedConn, msg: &WireMsg) -> Result<(), String> {
    conn.send_msg(msg).map_err(|e| e.to_string())?;
    while conn.wants_write() {
        conn.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Mean of 2000 ping-pongs of `msg` between two `FramedConn`s over
/// a Unix socket pair; the far end is an echo thread.
fn roundtrip_micros(msg: &WireMsg) -> Result<f64, String> {
    const ROUNDS: usize = 2000;
    let (near, far) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
    for sock in [&near, &far] {
        sock.set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
    }
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let mut conn = FramedConn::new(Socket::Unix(far));
        conn.set_binary_wire(true);
        while let Some(msg) = recv_one(&mut conn)? {
            send_one(&mut conn, &msg)?;
        }
        Ok(())
    });
    let mut conn = FramedConn::new(Socket::Unix(near));
    conn.set_binary_wire(true);
    let mut ping_pong = || -> Result<(), String> {
        send_one(&mut conn, msg)?;
        recv_one(&mut conn)?.ok_or("echo thread hung up")?;
        Ok(())
    };
    for _ in 0..100 {
        ping_pong()?;
    }
    let t = Instant::now();
    for _ in 0..ROUNDS {
        ping_pong()?;
    }
    let nanos = nanos_since(t);
    drop(conn);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())??;
    Ok(nanos as f64 / ROUNDS as f64 / 1e3)
}
