//! The deploy wire protocol: every frame exchanged between the orchestrator, the
//! `monitord` daemons and their peer mesh.
//!
//! There is one wire format.  The two message types whose count scales with the
//! trace, `event` and `monitor`, always travel as a compact binary body (its
//! grammar is the comment above the binary codec, further down this file);
//! every other message is a self-describing JSON object with a `type` tag.  The
//! frame header's format bit says which, and a JSON-headed `event` or `monitor`
//! frame is a decode error.  Framing, the bounds-checked [`Reader`] and the
//! vector clock's binary form come from [`dlrv_stream::wire`], which this codec
//! shares with the session-stream codec.  Three planes share one message enum:
//!
//! * **control** (orchestrator ↔ daemon): `hello`/`hello_ok` handshake, `event`
//!   delivery, `status` quiescence polls, `finish` (end-of-trace: terminate and
//!   hold) and `release` (send what termination emitted), `report` (metrics
//!   collection) and `shutdown`;
//! * **peer** (daemon ↔ daemon): `peer_hello` identification and `monitor`
//!   frames carrying a [`MonitorMsg`] — a token or a §4.3.1 batch — plus the
//!   simulated timestamp it was sent at, so the receiving monitor processes it
//!   at exactly the time a co-located
//!   [`FeedSession`](dlrv_monitor::FeedSession) would have;
//! * **property payloads** stay opaque here: `hello` carries the property and the
//!   monitor options as raw [`Json`] interpreted by `dlrv-core`'s results codec,
//!   keeping this crate independent of the spec pipeline (and free of the
//!   dependency cycle `net → core → net`).

use crate::conn::NetError;
use crate::fault::{FaultSpec, FaultStats};
use dlrv_json::{object, Json, JsonError};
use dlrv_ltl::{Assignment, Verdicts};
use dlrv_monitor::{ConjunctEval, EvalState, MonitorMetrics, MonitorMsg, Token, TokenTransition};
use dlrv_stream::wire::{
    json_frame, json_payload, write_clock_entries, write_frame, Reader, StreamError,
};
use dlrv_stream::{event_from_binary, event_to_binary, varint};
use dlrv_vclock::Event;

/// One daemon's transport counters, polled by the orchestrator's quiescence
/// barrier after every fed event.
///
/// The system is quiescent when, across all daemons, `sent[i][j] == received[j][i]`
/// for every pair, every `pending` is zero, and two consecutive polls agree — the
/// classic counter-balance termination test, with `dropped` excluded from `sent`
/// so deliberately lossy channels still drain.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonStatus {
    /// The reporting daemon's process index.
    pub process: usize,
    /// Program events delivered to this daemon so far.
    pub events_seen: u64,
    /// Monitor frames fully handed to the kernel, per destination process
    /// (duplicates counted individually, drops excluded).
    pub sent: Vec<u64>,
    /// Monitor frames decoded from each source process.
    pub received: Vec<u64>,
    /// Frames still inside this daemon: queued on sockets, held by the reorder
    /// shim, or waiting in the delay queue.
    pub pending: u64,
    /// Frames the fault shim discarded.
    pub dropped: u64,
}

impl DaemonStatus {
    /// Serializes the status.
    pub fn to_json(&self) -> Json {
        object([
            ("process", Json::from(self.process)),
            ("events_seen", Json::from(self.events_seen)),
            (
                "sent",
                Json::Array(self.sent.iter().map(|&c| Json::from(c)).collect()),
            ),
            (
                "received",
                Json::Array(self.received.iter().map(|&c| Json::from(c)).collect()),
            ),
            ("pending", Json::from(self.pending)),
            ("dropped", Json::from(self.dropped)),
        ])
    }

    /// Parses the status back.
    pub fn from_json(v: &Json) -> Result<DaemonStatus, JsonError> {
        let counts = |key: &str| -> Result<Vec<u64>, JsonError> {
            v.get(key)?.as_array()?.iter().map(Json::as_u64).collect()
        };
        Ok(DaemonStatus {
            process: v.get("process")?.as_usize()?,
            events_seen: v.get("events_seen")?.as_u64()?,
            sent: counts("sent")?,
            received: counts("received")?,
            pending: v.get("pending")?.as_u64()?,
            dropped: v.get("dropped")?.as_u64()?,
        })
    }
}

/// One daemon's end-of-run report.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonReport {
    /// The reporting daemon's process index.
    pub process: usize,
    /// Its monitor's metrics, exactly as a co-located monitor would report them.
    pub metrics: MonitorMetrics,
    /// Logical monitor messages this daemon's monitor emitted (pre-shim: the
    /// number a [`FeedSession`](dlrv_monitor::FeedSession) would count).
    pub logical_monitor_msgs: u64,
    /// What the fault shim did across all of this daemon's outgoing channels.
    pub fault_stats: FaultStats,
    /// The daemon process's peak RSS in bytes (`VmHWM`); `0` when not measured.
    pub peak_rss_bytes: u64,
}

impl DaemonReport {
    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        object([
            ("process", Json::from(self.process)),
            ("metrics", self.metrics.to_json()),
            (
                "logical_monitor_msgs",
                Json::from(self.logical_monitor_msgs),
            ),
            ("fault_stats", self.fault_stats.to_json()),
            ("peak_rss_bytes", Json::from(self.peak_rss_bytes)),
        ])
    }

    /// Parses the report back.
    pub fn from_json(v: &Json) -> Result<DaemonReport, JsonError> {
        Ok(DaemonReport {
            process: v.get("process")?.as_usize()?,
            metrics: MonitorMetrics::from_json(v.get("metrics")?)?,
            logical_monitor_msgs: v.get("logical_monitor_msgs")?.as_u64()?,
            fault_stats: FaultStats::from_json(v.get("fault_stats")?)?,
            peak_rss_bytes: v.get("peak_rss_bytes")?.as_u64()?,
        })
    }
}

/// One live progress sample from a running daemon (see [`WireMsg::Telemetry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonTelemetry {
    /// The reporting daemon's process index.
    pub process: usize,
    /// Program events observed so far (the cadence anchor: samples are taken at
    /// fixed event counts, so two runs of the same trace sample at the same
    /// points).
    pub events_seen: u64,
    /// Global views currently alive in the monitor.
    pub live_views: u64,
    /// Tokens sent so far.
    pub tokens_sent: u64,
    /// Tokens received so far.
    pub tokens_received: u64,
    /// Monitor-to-monitor frames currently queued (delay shim + unflushed).
    pub queued_frames: u64,
    /// The daemon's peak RSS in bytes at sample time (`0` = not measured).
    pub peak_rss_bytes: u64,
}

impl DaemonTelemetry {
    /// Serializes the sample (also the JSONL timeline row format the deploy
    /// orchestrator writes to `telemetry-daemon<i>.jsonl`).
    pub fn to_json(&self) -> Json {
        object([
            ("process", Json::from(self.process)),
            ("events_seen", Json::from(self.events_seen)),
            ("live_views", Json::from(self.live_views)),
            ("tokens_sent", Json::from(self.tokens_sent)),
            ("tokens_received", Json::from(self.tokens_received)),
            ("queued_frames", Json::from(self.queued_frames)),
            ("peak_rss_bytes", Json::from(self.peak_rss_bytes)),
        ])
    }

    /// Parses the sample back.
    pub fn from_json(v: &Json) -> Result<DaemonTelemetry, JsonError> {
        Ok(DaemonTelemetry {
            process: v.get("process")?.as_usize()?,
            events_seen: v.get("events_seen")?.as_u64()?,
            live_views: v.get("live_views")?.as_u64()?,
            tokens_sent: v.get("tokens_sent")?.as_u64()?,
            tokens_received: v.get("tokens_received")?.as_u64()?,
            queued_frames: v.get("queued_frames")?.as_u64()?,
            peak_rss_bytes: v.get("peak_rss_bytes")?.as_u64()?,
        })
    }
}

/// A daemon emits one [`WireMsg::Telemetry`] sample each time `events_seen`
/// crosses a multiple of this count (and one final sample at release time).
pub const TELEMETRY_EVERY_EVENTS: u64 = 16;

/// Every frame of the deploy protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Orchestrator → daemon: configuration + mesh topology.  `property` and
    /// `options` are opaque payloads decoded by the daemon via `dlrv-core`.
    Hello {
        /// The daemon's process index.
        process: usize,
        /// Total number of monitor processes.
        n_processes: usize,
        /// Property payload (a `dlrv_core::results::property_to_json` document).
        property: Json,
        /// Monitor options payload (`dlrv_core::results::options_to_json`).
        options: Json,
        /// Initial global state, as raw [`Assignment`] bits.
        initial_state: u64,
        /// Fault spec applied to this daemon's *outgoing* peer channels.
        fault: Option<FaultSpec>,
        /// Listen endpoints of all daemons, indexed by process.
        peers: Vec<String>,
    },
    /// Daemon → orchestrator: mesh established, ready for events.
    HelloOk {
        /// The daemon's process index.
        process: usize,
    },
    /// Orchestrator → daemon: one program event of the daemon's process.
    Event {
        /// The event, exactly as a co-located monitor would observe it.
        event: Event,
    },
    /// Orchestrator → daemon: report transport counters.
    Status,
    /// Daemon → orchestrator: the counters.
    StatusOk(DaemonStatus),
    /// Orchestrator → daemon: end-of-trace at simulated time `time` — run local
    /// termination and *hold* the messages it emits until [`WireMsg::Release`].
    /// The orchestrator finishes every daemon before it releases any, so no
    /// monitor hears from a peer before it has learnt that its own process ended,
    /// exactly as in `FeedSession::finish`.
    Finish {
        /// The global last event timestamp (every daemon terminates at the same
        /// simulated time, mirroring `FeedSession::finish`).
        time: f64,
    },
    /// Daemon → orchestrator: termination processed, its messages held.
    FinishOk,
    /// Orchestrator → daemon: send the messages held since `finish`, at the
    /// finish time.  A `release` before `finish` is a protocol failure.
    Release,
    /// Daemon → orchestrator: the held messages are on the wire.
    ReleaseOk,
    /// Orchestrator → daemon: report metrics.
    Report,
    /// Daemon → orchestrator: the end-of-run report.
    ReportOk(DaemonReport),
    /// Orchestrator → daemon: drain and exit 0.
    Shutdown,
    /// Daemon → orchestrator: about to exit.
    ShutdownOk,
    /// Daemon → orchestrator: unsolicited live progress, emitted on the control
    /// connection every `TELEMETRY_EVERY_EVENTS` observed events (an event-count
    /// cadence, not a timer, so runs stay deterministic).  The orchestrator
    /// folds these into per-daemon timelines in the run artifact directory;
    /// peers that never send them are simply quiet (the frame is additive).
    Telemetry(DaemonTelemetry),
    /// Daemon → orchestrator: fatal protocol error (the daemon exits non-zero).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Daemon → daemon: identifies the dialing peer.
    PeerHello {
        /// The dialing daemon's process index.
        from: usize,
    },
    /// Daemon → daemon: one monitor message at simulated time `time`.
    Monitor {
        /// The sending process.
        from: usize,
        /// Per-channel sequence number, assigned by the sender *before* the fault
        /// shim.  Receivers use it to suppress duplicated frames: without the
        /// suppression, every duplicate provokes monitor responses that are
        /// themselves duplicated, and at `dup=1` the traffic amplifies
        /// geometrically per token hop instead of quiescing.
        seq: u64,
        /// The simulated timestamp of the activation that produced the message.
        time: f64,
        /// The payload.
        msg: MonitorMsg,
    },
}

// ---------------------------------------------------------------------------
// Binary frame format for the two per-event hot messages.
//
// Control-plane traffic (hello, status, report, …) is a handful of frames per
// run; only `event` and `monitor` frames scale with the trace, so only they get
// a binary body, and they always do.  The frame header is `dlrv_stream::wire`'s, so one
// [`crate::conn::FramedConn`] reads JSON and binary frames from the same
// connection, frame by frame.  Payload grammar (unsigned LEB128 varints unless
// noted; `vc` and events exactly as in `dlrv_stream`'s binary codec):
//
//   payload    = 0x01 event | 0x02 monitor
//   event      = event-binary                      -- dlrv_stream::event_to_binary
//   monitor    = from seq time(8-byte LE f64) n-tokens token+   -- n-tokens >= 1
//   token      = property parent parent_gv known n-transitions transition*
//   known      = one byte, 0..=3: the sender's detected/learnt verdicts (1 = ⊥, 2 = ⊤)
//   transition = id vc(gcut) vc(depend) gstate n-conjuncts conjunct-byte* next_p next_e eval-byte
//                -- gcut, depend and the conjuncts of one transition have one width
//   conjunct   = 0 not-involved | 1 unset | 2 true | 3 false
//   eval       = 0 unset | 1 enabled | 2 disabled
//
// No intern table, so the codec is stateless: the fault shim may drop, delay,
// duplicate or reorder whole frames without desynchronizing the decoder.
// ---------------------------------------------------------------------------

const NET_EVENT: u8 = 1;
const NET_MONITOR: u8 = 2;

/// Fewest bytes an encoded transition can take: eight one-byte fields (two of
/// them empty clocks, one an empty conjunct list).
const MIN_TRANSITION_BYTES: usize = 8;
/// Fewest bytes an encoded token can take: five one-byte fields, no transitions.
const MIN_TOKEN_BYTES: usize = 5;

fn transition_to_binary(t: &TokenTransition, out: &mut Vec<u8>) {
    varint::write_u64(out, t.transition_id as u64);
    write_clock_entries(out, t.gcut());
    write_clock_entries(out, t.depend());
    varint::write_u64(out, t.gstate.0);
    varint::write_u64(out, t.width() as u64);
    // `ConjunctEval`'s discriminants are the grammar's conjunct bytes.
    out.extend(t.conjuncts().map(|c| c as u8));
    varint::write_u64(out, t.next_target_process as u64);
    varint::write_u64(out, t.next_target_event);
    out.push(match t.eval {
        EvalState::Unset => 0,
        EvalState::Enabled => 1,
        EvalState::Disabled => 2,
    });
}

/// Decodes one transition.  Its cut fixes its width: a `depend` or a conjunct
/// list of another width is corrupt, since the three share one block.
fn transition_from_binary(r: &mut Reader<'_>) -> Result<TokenTransition, StreamError> {
    let transition_id = r.usize("transition id")?;
    let n = r.count("transition gcut", 1)?;
    let mut t = TokenTransition::new(transition_id, n);
    for entry in t.gcut_mut() {
        *entry = r.uv("transition gcut")?;
    }
    let width = |r: &mut Reader<'_>, what: &str| match r.count(what, 1)? {
        w if w == n => Ok(()),
        w => Err(r.corrupt(&format!("{what} {w} in a transition of width {n}"))),
    };
    width(r, "transition depend")?;
    for entry in t.depend_mut() {
        *entry = r.uv("transition depend")?;
    }
    t.gstate = Assignment(r.uv("transition gstate")?);
    width(r, "conjunct count")?;
    for p in 0..n {
        let c = match r.byte("conjunct")? {
            0 => ConjunctEval::NotInvolved,
            1 => ConjunctEval::Unset,
            2 => ConjunctEval::True,
            3 => ConjunctEval::False,
            other => return Err(r.corrupt(&format!("conjunct byte {other}"))),
        };
        t.set_conjunct(p, c);
    }
    t.next_target_process = r.usize("transition next_p")?;
    t.next_target_event = r.uv("transition next_e")?;
    t.eval = match r.byte("eval state")? {
        0 => EvalState::Unset,
        1 => EvalState::Enabled,
        2 => EvalState::Disabled,
        other => return Err(r.corrupt(&format!("eval byte {other}"))),
    };
    Ok(t)
}

fn token_to_binary(t: &Token, out: &mut Vec<u8>) {
    varint::write_u64(out, t.property as u64);
    varint::write_u64(out, t.parent as u64);
    varint::write_u64(out, t.parent_gv);
    out.push(t.known.bits());
    varint::write_u64(out, t.transitions.len() as u64);
    for tran in &t.transitions {
        transition_to_binary(tran, out);
    }
}

fn token_from_binary(r: &mut Reader<'_>) -> Result<Token, StreamError> {
    Ok(Token {
        property: r.u32("token property")?,
        parent: r.usize("token parent")?,
        parent_gv: r.uv("token parent_gv")?,
        known: match r.byte("token known")? {
            known @ 0..=3 => Verdicts::from_bits(known).expect("0..=3 is a set of ⊤/⊥"),
            other => return Err(r.corrupt(&format!("known byte {other}"))),
        },
        transitions: r.seq(
            "transition count",
            MIN_TRANSITION_BYTES,
            transition_from_binary,
        )?,
    })
}

fn monitor_msg_to_binary(msg: &MonitorMsg, out: &mut Vec<u8>) {
    varint::write_u64(out, msg.tokens.len() as u64);
    for t in &msg.tokens {
        token_to_binary(t, out);
    }
}

fn monitor_msg_from_binary(r: &mut Reader<'_>) -> Result<MonitorMsg, StreamError> {
    let tokens = r.seq("token count", MIN_TOKEN_BYTES, token_from_binary)?;
    if tokens.is_empty() {
        return Err(r.corrupt("token count 0"));
    }
    Ok(MonitorMsg { tokens })
}

/// Encodes one deploy frame (header + payload) for `msg`.
///
/// `event` and `monitor` messages — the only frame types whose count scales
/// with the trace — get the binary body above (bit 31 of the header set); every
/// other message travels as a self-describing JSON object tagged with its
/// `type`.  [`decode_wire_frame`] dispatches on the header bit.
pub fn encode_frame(msg: &WireMsg) -> Vec<u8> {
    let control = match msg {
        WireMsg::Event { event } => {
            return binary_frame(|out| {
                out.push(NET_EVENT);
                event_to_binary(event, out);
            })
        }
        WireMsg::Monitor {
            from,
            seq,
            time,
            msg,
        } => {
            return binary_frame(|out| {
                out.push(NET_MONITOR);
                varint::write_u64(out, *from as u64);
                varint::write_u64(out, *seq);
                out.extend_from_slice(&time.to_bits().to_le_bytes());
                monitor_msg_to_binary(msg, out);
            })
        }
        WireMsg::Hello {
            process,
            n_processes,
            property,
            options,
            initial_state,
            fault,
            peers,
        } => object([
            ("type", Json::from("hello")),
            ("process", Json::from(*process)),
            ("n_processes", Json::from(*n_processes)),
            ("property", property.clone()),
            ("options", options.clone()),
            ("initial_state", Json::from(*initial_state)),
            (
                "fault",
                fault.as_ref().map_or(Json::Null, FaultSpec::to_json),
            ),
            (
                "peers",
                Json::Array(peers.iter().map(|p| Json::from(p.as_str())).collect()),
            ),
        ]),
        WireMsg::HelloOk { process } => object([
            ("type", Json::from("hello_ok")),
            ("process", Json::from(*process)),
        ]),
        WireMsg::Status => object([("type", Json::from("status"))]),
        WireMsg::StatusOk(status) => object([
            ("type", Json::from("status_ok")),
            ("status", status.to_json()),
        ]),
        WireMsg::Finish { time } => {
            object([("type", Json::from("finish")), ("time", Json::from(*time))])
        }
        WireMsg::FinishOk => object([("type", Json::from("finish_ok"))]),
        WireMsg::Release => object([("type", Json::from("release"))]),
        WireMsg::ReleaseOk => object([("type", Json::from("release_ok"))]),
        WireMsg::Report => object([("type", Json::from("report"))]),
        WireMsg::ReportOk(report) => object([
            ("type", Json::from("report_ok")),
            ("report", report.to_json()),
        ]),
        WireMsg::Shutdown => object([("type", Json::from("shutdown"))]),
        WireMsg::ShutdownOk => object([("type", Json::from("shutdown_ok"))]),
        WireMsg::Telemetry(sample) => object([
            ("type", Json::from("telemetry")),
            ("sample", sample.to_json()),
        ]),
        WireMsg::Error { message } => object([
            ("type", Json::from("error")),
            ("message", Json::from(message.as_str())),
        ]),
        WireMsg::PeerHello { from } => object([
            ("type", Json::from("peer_hello")),
            ("from", Json::from(*from)),
        ]),
    };
    json_frame(&control)
}

fn binary_frame(payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, true, payload);
    out
}

/// [`encode_frame`] under its former two-argument signature: `_binary` is
/// ignored, because the frame's type alone decides its format.  Kept for the
/// benchmark's wire probes, which always pass `true`; ROADMAP.md item 8(d)
/// removes it together with them.
pub fn encode_wire_frame(msg: &WireMsg, _binary: bool) -> Vec<u8> {
    encode_frame(msg)
}

fn wire_msg_from_binary(payload: &[u8]) -> Result<WireMsg, StreamError> {
    let mut r = Reader::new(payload);
    let msg = match r.byte("frame tag")? {
        NET_EVENT => WireMsg::Event {
            event: event_from_binary(&mut r)?,
        },
        NET_MONITOR => WireMsg::Monitor {
            from: r.usize("monitor from")?,
            seq: r.uv("monitor seq")?,
            time: r.f64("monitor time")?,
            msg: monitor_msg_from_binary(&mut r)?,
        },
        other => return Err(r.corrupt(&format!("frame tag {other}"))),
    };
    r.finish()?;
    Ok(msg)
}

/// Parses a control message back from the JSON object [`encode_frame`] writes.
fn control_from_json(v: &Json) -> Result<WireMsg, JsonError> {
    match v.get("type")?.as_str()? {
        "hello" => Ok(WireMsg::Hello {
            process: v.get("process")?.as_usize()?,
            n_processes: v.get("n_processes")?.as_usize()?,
            property: v.get("property")?.clone(),
            options: v.get("options")?.clone(),
            initial_state: v.get("initial_state")?.as_u64()?,
            fault: match v.get("fault")? {
                Json::Null => None,
                spec => Some(FaultSpec::from_json(spec)?),
            },
            peers: v
                .get("peers")?
                .as_array()?
                .iter()
                .map(|p| Ok(p.as_str()?.to_string()))
                .collect::<Result<_, JsonError>>()?,
        }),
        "hello_ok" => Ok(WireMsg::HelloOk {
            process: v.get("process")?.as_usize()?,
        }),
        "status" => Ok(WireMsg::Status),
        "status_ok" => Ok(WireMsg::StatusOk(DaemonStatus::from_json(
            v.get("status")?,
        )?)),
        "finish" => Ok(WireMsg::Finish {
            time: v.get("time")?.as_f64()?,
        }),
        "finish_ok" => Ok(WireMsg::FinishOk),
        "release" => Ok(WireMsg::Release),
        "release_ok" => Ok(WireMsg::ReleaseOk),
        "report" => Ok(WireMsg::Report),
        "report_ok" => Ok(WireMsg::ReportOk(DaemonReport::from_json(
            v.get("report")?,
        )?)),
        "shutdown" => Ok(WireMsg::Shutdown),
        "shutdown_ok" => Ok(WireMsg::ShutdownOk),
        "telemetry" => Ok(WireMsg::Telemetry(DaemonTelemetry::from_json(
            v.get("sample")?,
        )?)),
        "error" => Ok(WireMsg::Error {
            message: v.get("message")?.as_str()?.to_string(),
        }),
        "peer_hello" => Ok(WireMsg::PeerHello {
            from: v.get("from")?.as_usize()?,
        }),
        hot @ ("event" | "monitor") => Err(JsonError::msg(format!(
            "a JSON-headed `{hot}` frame: `{hot}` frames are binary"
        ))),
        other => Err(JsonError::msg(format!("unknown wire message `{other}`"))),
    }
}

/// Decodes one deploy frame payload; `binary` is the header's bit-31 flag.
pub fn decode_wire_frame(binary: bool, payload: &[u8]) -> Result<WireMsg, NetError> {
    if binary {
        Ok(wire_msg_from_binary(payload)?)
    } else {
        Ok(control_from_json(&json_payload(payload)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_stream::FrameSplitter;
    use dlrv_vclock::{EventKind, VectorClock};

    fn sample_token(seq: u64) -> Token {
        Token {
            property: (seq % 3) as u32,
            parent: 1,
            parent_gv: 40 + seq,
            known: Verdicts::from_bits((seq % 4) as u8).expect("two bits"),
            transitions: vec![
                transition(
                    7,
                    [[1, 2, 0], [1, 2, 3]],
                    [
                        ConjunctEval::True,
                        ConjunctEval::NotInvolved,
                        ConjunctEval::Unset,
                    ],
                    (Assignment(0b110), 2, 4, EvalState::Unset),
                ),
                transition(
                    9,
                    [[0, 0, 0], [0, 0, 0]],
                    [ConjunctEval::False, ConjunctEval::Unset, ConjunctEval::True],
                    (Assignment::ALL_FALSE, 0, 1, EvalState::Disabled),
                ),
            ],
        }
    }

    /// Transition `id` of three processes with cut and `depend` `cuts`, the
    /// conjuncts `conjuncts`, and state, next process, next event and
    /// evaluation `rest`.
    fn transition(
        id: usize,
        cuts: [[u64; 3]; 2],
        conjuncts: [ConjunctEval; 3],
        rest: (Assignment, usize, u64, EvalState),
    ) -> TokenTransition {
        let mut t = TokenTransition::new(id, 3);
        t.gcut_mut().copy_from_slice(&cuts[0]);
        t.depend_mut().copy_from_slice(&cuts[1]);
        for (p, c) in conjuncts.into_iter().enumerate() {
            t.set_conjunct(p, c);
        }
        (t.gstate, t.next_target_process, t.next_target_event, t.eval) = rest;
        t
    }

    #[test]
    fn every_wire_message_round_trips() {
        let event = Event {
            process: 0,
            kind: EventKind::Broadcast { msg_id: 5 },
            sn: 2,
            vc: VectorClock::from_entries(vec![2, 0, 1]),
            state: Assignment(0b01),
            time: 6.5,
        };
        let metrics = MonitorMetrics {
            tokens_sent: 4,
            tokens_received: 3,
            global_views_created: 7,
            last_activity_time: 9.25,
            detected_final_verdicts: dlrv_ltl::Verdict::True.into(),
            ..MonitorMetrics::default()
        };
        let messages = vec![
            WireMsg::Hello {
                process: 1,
                n_processes: 3,
                property: Json::from("B"),
                options: object([("aggregate_tokens", Json::from(true))]),
                initial_state: 0b101,
                fault: Some(FaultSpec::parse("drop=0.5,seed=3").expect("spec")),
                peers: vec![
                    "tcp:127.0.0.1:4000".to_string(),
                    "tcp:127.0.0.1:4001".to_string(),
                    "tcp:127.0.0.1:4002".to_string(),
                ],
            },
            WireMsg::Hello {
                process: 0,
                n_processes: 2,
                property: Json::from("A"),
                options: Json::Null,
                initial_state: 0,
                fault: None,
                peers: vec![],
            },
            WireMsg::HelloOk { process: 1 },
            WireMsg::Event { event },
            WireMsg::Status,
            WireMsg::StatusOk(DaemonStatus {
                process: 1,
                events_seen: 12,
                sent: vec![3, 0, 9],
                received: vec![2, 0, 4],
                pending: 1,
                dropped: 2,
            }),
            WireMsg::Finish { time: 61.75 },
            WireMsg::FinishOk,
            WireMsg::Release,
            WireMsg::ReleaseOk,
            WireMsg::Report,
            WireMsg::ReportOk(DaemonReport {
                process: 1,
                metrics,
                logical_monitor_msgs: 15,
                fault_stats: FaultStats {
                    passed: 13,
                    dropped: 2,
                    duplicated: 0,
                    reordered: 1,
                },
                peak_rss_bytes: 7 << 20,
            }),
            WireMsg::Shutdown,
            WireMsg::ShutdownOk,
            WireMsg::Telemetry(DaemonTelemetry {
                process: 2,
                events_seen: 48,
                live_views: 5,
                tokens_sent: 17,
                tokens_received: 13,
                queued_frames: 2,
                peak_rss_bytes: 9 << 20,
            }),
            WireMsg::Error {
                message: "boom".to_string(),
            },
            WireMsg::PeerHello { from: 2 },
            WireMsg::Monitor {
                from: 0,
                seq: 11,
                time: 3.5,
                msg: MonitorMsg {
                    tokens: vec![sample_token(3)],
                },
            },
            WireMsg::Monitor {
                from: 2,
                seq: 12,
                time: 4.0,
                msg: MonitorMsg {
                    tokens: vec![sample_token(1), sample_token(2)],
                },
            },
        ];
        for msg in messages {
            // The hot frames through their binary bodies, everything else as JSON.
            let mut splitter = FrameSplitter::new();
            splitter.push(&encode_frame(&msg));
            let (is_binary, payload) = splitter.next_frame().expect("split").expect("frame");
            let hot = matches!(msg, WireMsg::Event { .. } | WireMsg::Monitor { .. });
            assert_eq!(is_binary, hot, "exactly the hot frames go binary");
            let back = decode_wire_frame(is_binary, payload).expect("decode frame");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn json_headed_event_and_monitor_frames_are_rejected() {
        // Both shapes exactly as the retired all-JSON wire wrote them.
        let event = Event {
            process: 0,
            kind: EventKind::Internal,
            sn: 1,
            vc: VectorClock::from_entries(vec![1, 0]),
            state: Assignment(0b1),
            time: 1.0,
        };
        let json_event = object([
            ("type", Json::from("event")),
            ("event", dlrv_stream::event_to_json(&event)),
        ]);
        let json_monitor = object([
            ("type", Json::from("monitor")),
            ("from", Json::from(1usize)),
            ("seq", Json::from(0u64)),
            ("time", Json::from(0.5)),
            (
                "msg",
                object([
                    ("type", Json::from("batch")),
                    ("tokens", Json::Array(vec![])),
                ]),
            ),
        ]);
        for (frame, kind) in [(json_event, "event"), (json_monitor, "monitor")] {
            let err = decode_wire_frame(false, frame.to_string_compact().as_bytes())
                .expect_err("a JSON hot frame is an error");
            let named = format!("JSON-headed `{kind}` frame");
            assert!(
                err.message.contains(&named),
                "`{named}` missing from: {err}"
            );
        }
    }

    #[test]
    fn corrupt_binary_frames_are_rejected() {
        // Unknown frame tag.
        assert!(decode_wire_frame(true, &[9]).is_err());
        // Truncation at every prefix of a valid monitor frame.
        let msg = WireMsg::Monitor {
            from: 1,
            seq: 2,
            time: 0.5,
            msg: MonitorMsg {
                tokens: vec![sample_token(0)],
            },
        };
        let frame = encode_frame(&msg);
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            assert!(
                decode_wire_frame(true, &payload[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage after a complete message.
        let mut padded = payload.to_vec();
        padded.push(0);
        assert!(decode_wire_frame(true, &padded).is_err());
    }

    /// A 64-byte binary `monitor` payload: the fixed head, then `body`, zero-padded.
    fn monitor_payload(body: &[u8]) -> Vec<u8> {
        let mut payload = vec![NET_MONITOR, 0, 0]; // from 0, seq 0
        payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        payload.extend_from_slice(body);
        assert!(payload.len() <= 64);
        payload.resize(64, 0);
        payload
    }

    #[test]
    fn counts_no_payload_can_hold_are_rejected_before_reserving() {
        let mut million = Vec::new();
        varint::write_u64(&mut million, 1 << 20);
        // (field, bytes before the count, minimum item size named in the error)
        let cases: [(&str, Vec<u8>, usize); 4] = [
            ("token count", vec![], MIN_TOKEN_BYTES),
            (
                "transition count",
                vec![1, 0, 0, 0, 0],
                MIN_TRANSITION_BYTES,
            ),
            ("transition gcut", vec![1, 0, 0, 0, 0, 1, 0], 1),
            ("conjunct count", vec![1, 0, 0, 0, 0, 1, 0, 0, 0, 0], 1),
        ];
        for (field, mut body, min) in cases {
            let offset = 11 + body.len();
            body.extend_from_slice(&million);
            let err = decode_wire_frame(true, &monitor_payload(&body)).expect_err(field);
            for part in [
                field.to_string(),
                format!("byte offset {offset}"),
                format!("1048576 items of at least {min} bytes"),
            ] {
                assert!(err.message.contains(&part), "`{part}` missing from: {err}");
            }
        }
    }

    /// A binary `monitor` payload: the fixed head, then `body`, not padded.
    fn exact_monitor_payload(body: &[u8]) -> Vec<u8> {
        let mut payload = monitor_payload(body);
        payload.truncate(11 + body.len());
        payload
    }

    #[test]
    fn the_retired_termination_notice_is_rejected() {
        // Binary tag 2, with the two varints the notice used to carry: read as a
        // count of two tokens, which three bytes cannot hold.
        let err = decode_wire_frame(true, &exact_monitor_payload(&[2, 1, 17]))
            .expect_err("the retired notice does not decode");
        for part in [
            "token count",
            "byte offset 11",
            "2 items of at least 5 bytes",
        ] {
            assert!(err.message.contains(part), "`{part}` missing from: {err}");
        }
    }

    #[test]
    fn a_monitor_message_with_no_token_is_rejected() {
        let err = decode_wire_frame(true, &exact_monitor_payload(&[0]))
            .expect_err("a monitor message carries at least one token");
        for part in ["token count 0", "byte offset 11"] {
            assert!(err.message.contains(part), "`{part}` missing from: {err}");
        }
        // One token with no transitions is the shortest message there is.
        let one = exact_monitor_payload(&[1, 0, 0, 0, 0, 0]);
        assert_eq!(
            decode_wire_frame(true, &one).expect("one bare token"),
            WireMsg::Monitor {
                from: 0,
                seq: 0,
                time: 0.5,
                msg: MonitorMsg {
                    tokens: vec![Token {
                        property: 0,
                        parent: 0,
                        parent_gv: 0,
                        known: Verdicts::EMPTY,
                        transitions: vec![]
                    }],
                },
            }
        );
    }

    #[test]
    fn a_transition_whose_widths_differ_is_rejected() {
        // One token of one transition: id 0, then `cuts` (a clock of width 2, a
        // clock of width `depend`'s), state 0, `conjuncts` bytes, next process 0,
        // next event 1, undecided.
        let frame = |depend: &[u8], conjuncts: &[u8]| {
            let mut body = vec![1, 0, 1, 0, 0, 1, 0, 2, 0, 1];
            body.extend_from_slice(depend);
            body.push(0);
            body.extend_from_slice(conjuncts);
            body.extend_from_slice(&[0, 1, 0]);
            exact_monitor_payload(&body)
        };
        let WireMsg::Monitor { msg, .. } =
            decode_wire_frame(true, &frame(&[2, 0, 1], &[2, 1, 2])).expect("one width")
        else {
            panic!("a monitor frame decodes as one");
        };
        let t = &msg.tokens[0].transitions[0];
        assert_eq!((t.gcut(), t.depend()), (&[0, 1][..], &[0, 1][..]));
        assert_eq!(
            t.conjuncts().collect::<Vec<_>>(),
            [ConjunctEval::Unset, ConjunctEval::True]
        );
        for (depend, conjuncts, parts) in [
            (
                &[3, 0, 1, 2][..],
                &[2, 1, 2][..],
                [
                    "transition depend 3 in a transition of width 2",
                    "byte offset 21",
                ],
            ),
            (
                &[1, 0][..],
                &[2, 1, 2][..],
                [
                    "transition depend 1 in a transition of width 2",
                    "byte offset 21",
                ],
            ),
            (
                &[2, 0, 1][..],
                &[3, 1, 2, 2][..],
                [
                    "conjunct count 3 in a transition of width 2",
                    "byte offset 25",
                ],
            ),
            (
                &[2, 0, 1][..],
                &[0][..],
                [
                    "conjunct count 0 in a transition of width 2",
                    "byte offset 25",
                ],
            ),
        ] {
            let err =
                decode_wire_frame(true, &frame(depend, conjuncts)).expect_err("widths that differ");
            for part in parts {
                assert!(err.message.contains(part), "`{part}` missing from: {err}");
            }
        }
    }

    #[test]
    fn a_known_byte_above_3_is_rejected() {
        // A token's `known` holds two verdict bits; every other value is corrupt.
        for known in 0..=3 {
            let payload = exact_monitor_payload(&[1, 0, 0, 0, known, 0]);
            let WireMsg::Monitor { msg, .. } = decode_wire_frame(true, &payload).expect("0..=3")
            else {
                panic!("a monitor frame decodes as one");
            };
            assert_eq!(msg.tokens[0].known.bits(), known);
        }
        for known in [4, 0x80, 0xff] {
            let err = decode_wire_frame(true, &exact_monitor_payload(&[1, 0, 0, 0, known, 0]))
                .expect_err("known past 3");
            for part in [format!("known byte {known}"), "byte offset 15".to_string()] {
                assert!(err.message.contains(&part), "`{part}` missing from: {err}");
            }
        }
    }

    #[test]
    fn the_known_byte_of_a_final_verdict_set_is_0_to_3() {
        use dlrv_ltl::Verdict::{False, True};
        for (known, byte) in [
            (Verdicts::EMPTY, 0),
            (Verdicts::from([False]), 1),
            (Verdicts::from([True]), 2),
            (Verdicts::from([False, True]), 3),
        ] {
            let token = Token {
                property: 0,
                parent: 0,
                parent_gv: 0,
                known,
                transitions: vec![],
            };
            let mut out = Vec::new();
            token_to_binary(&token, &mut out);
            assert_eq!(out, [0, 0, 0, byte, 0], "{known:?}");
        }
    }

    #[test]
    fn property_ids_beyond_u32_are_rejected_not_truncated() {
        let mut token = sample_token(0);
        token.property = u32::MAX;
        let msg = WireMsg::Monitor {
            from: 1,
            seq: 2,
            time: 0.5,
            msg: MonitorMsg {
                tokens: vec![token],
            },
        };
        let frame = encode_frame(&msg);
        assert_eq!(
            decode_wire_frame(true, &frame[4..]).expect("u32::MAX fits"),
            msg
        );

        let mut body = vec![1];
        varint::write_u64(&mut body, 1 << 32);
        let err = decode_wire_frame(true, &monitor_payload(&body)).expect_err("2^32");
        assert!(err.message.contains("token property"), "{err}");
    }
}
