//! The record codec of the streaming runtime: [`StreamRecord`]s as JSON or binary
//! frame payloads.
//!
//! A stream is a sequence of frames (see [`crate::wire`] for the framing), each
//! carrying one [`StreamRecord`]: a session opening, one program event of a
//! session, or a session close.  The payload is either
//!
//! * **JSON** (over the in-tree [`dlrv_json`] — this build environment has no
//!   serde), the original self-describing format, or
//! * the compact **binary** format of [`BinaryStreamEncoder`]: varint-packed
//!   integers, a one-byte record tag, and property names interned per stream so
//!   each name travels once.
//!
//! Each frame's header says which, so [`FrameDecoder`] reads either format — or a
//! mix — which is what lets the binary path be introduced per-connection without
//! a protocol version bump.
//!
//! [`EventSource`] abstracts where records come from: an in-memory vector
//! ([`VecSource`]), any [`std::io::Read`] ([`ReaderSource`]), or something custom
//! (a socket acceptor, a replay file).  The sharded runtime only ever sees the trait.

use crate::varint;
use crate::wire::{
    clock_from_json, clock_to_json, json_frame, json_payload, write_clock, write_frame,
    FrameSplitter, Reader, StreamError,
};
use dlrv_json::{object, Json, JsonError};
use dlrv_ltl::{Assignment, ProcessId};
use dlrv_vclock::{Event, EventKind};
use std::io::Read;

/// Identifies one monitored session within a stream.
pub type SessionId = u64;

/// One record of the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamRecord {
    /// Opens session `session`: subsequent events belong to a fresh set of monitors.
    Open {
        /// The session being opened.
        session: SessionId,
        /// Name of the monitored property (resolved by the receiver; for the
        /// repository's workloads this is a paper property letter `A`–`F`).
        property: String,
        /// Number of processes in the monitored execution.
        n_processes: usize,
        /// Initial global state of the session's propositions, as raw
        /// [`Assignment`] bits.
        initial_state: u64,
    },
    /// One program event of an open session.
    Event {
        /// The session the event belongs to.
        session: SessionId,
        /// The event, exactly as a co-located monitor would observe it.
        event: Event,
    },
    /// Closes session `session`: end-of-stream for its monitors, final verdict due.
    Close {
        /// The session being closed.
        session: SessionId,
    },
}

impl StreamRecord {
    /// The session this record addresses.
    pub fn session(&self) -> SessionId {
        match self {
            StreamRecord::Open { session, .. }
            | StreamRecord::Event { session, .. }
            | StreamRecord::Close { session } => *session,
        }
    }
}

/// Serializes an event kind as a tagged object.
fn kind_to_json(kind: &EventKind) -> Json {
    match kind {
        EventKind::Internal => object([("kind", Json::from("internal"))]),
        EventKind::Send { to, msg_id } => object([
            ("kind", Json::from("send")),
            ("to", Json::from(*to)),
            ("msg_id", Json::from(*msg_id)),
        ]),
        EventKind::Broadcast { msg_id } => object([
            ("kind", Json::from("broadcast")),
            ("msg_id", Json::from(*msg_id)),
        ]),
        EventKind::Receive { from, msg_id } => object([
            ("kind", Json::from("receive")),
            ("from", Json::from(*from)),
            ("msg_id", Json::from(*msg_id)),
        ]),
    }
}

fn kind_from_json(v: &Json) -> Result<EventKind, JsonError> {
    match v.get("kind")?.as_str()? {
        "internal" => Ok(EventKind::Internal),
        "send" => Ok(EventKind::Send {
            to: v.get("to")?.as_usize()?,
            msg_id: v.get("msg_id")?.as_u64()?,
        }),
        "broadcast" => Ok(EventKind::Broadcast {
            msg_id: v.get("msg_id")?.as_u64()?,
        }),
        "receive" => Ok(EventKind::Receive {
            from: v.get("from")?.as_usize()?,
            msg_id: v.get("msg_id")?.as_u64()?,
        }),
        other => Err(JsonError::msg(format!("unknown event kind `{other}`"))),
    }
}

/// Serializes a program event.  The local state travels as raw [`Assignment`] bits
/// (an atom-indexed bitmask), and the vector clock as a plain array.
pub fn event_to_json(event: &Event) -> Json {
    object([
        ("process", Json::from(event.process)),
        ("kind", kind_to_json(&event.kind)),
        ("sn", Json::from(event.sn)),
        ("vc", clock_to_json(&event.vc)),
        ("state", Json::from(event.state.0)),
        ("time", Json::from(event.time)),
    ])
}

/// Parses a program event back from its [`event_to_json`] form.
pub fn event_from_json(v: &Json) -> Result<Event, JsonError> {
    let process: ProcessId = v.get("process")?.as_usize()?;
    let vc = clock_from_json(v.get("vc")?)?;
    if process >= vc.len() {
        return Err(JsonError::msg(format!(
            "event process {process} out of range for a {}-entry vector clock",
            vc.len()
        )));
    }
    Ok(Event {
        process,
        kind: kind_from_json(v.get("kind")?)?,
        sn: v.get("sn")?.as_u64()?,
        vc,
        state: Assignment(v.get("state")?.as_u64()?),
        time: v.get("time")?.as_f64()?,
    })
}

/// Serializes one wire record as a tagged JSON object (the frame payload).
pub fn record_to_json(record: &StreamRecord) -> Json {
    match record {
        StreamRecord::Open {
            session,
            property,
            n_processes,
            initial_state,
        } => object([
            ("type", Json::from("open")),
            ("session", Json::from(*session)),
            ("property", Json::from(property.as_str())),
            ("n_processes", Json::from(*n_processes)),
            ("initial_state", Json::from(*initial_state)),
        ]),
        StreamRecord::Event { session, event } => object([
            ("type", Json::from("event")),
            ("session", Json::from(*session)),
            ("event", event_to_json(event)),
        ]),
        StreamRecord::Close { session } => object([
            ("type", Json::from("close")),
            ("session", Json::from(*session)),
        ]),
    }
}

/// Parses one wire record.
pub fn record_from_json(v: &Json) -> Result<StreamRecord, JsonError> {
    let session = v.get("session")?.as_u64()?;
    match v.get("type")?.as_str()? {
        "open" => Ok(StreamRecord::Open {
            session,
            property: v.get("property")?.as_str()?.to_string(),
            n_processes: v.get("n_processes")?.as_usize()?,
            initial_state: v.get("initial_state")?.as_u64()?,
        }),
        "event" => Ok(StreamRecord::Event {
            session,
            event: event_from_json(v.get("event")?)?,
        }),
        "close" => Ok(StreamRecord::Close { session }),
        other => Err(JsonError::msg(format!("unknown record type `{other}`"))),
    }
}

/// Encodes one record as a JSON frame (compact, no whitespace).
pub fn encode_frame(record: &StreamRecord) -> Vec<u8> {
    json_frame(&record_to_json(record))
}

/// Encodes a whole record sequence into one byte stream.
pub fn encode_stream(records: &[StreamRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&encode_frame(r));
    }
    out
}

// ---------------------------------------------------------------------------
// Binary payload format.
//
// Payload grammar (all integers unsigned LEB128 varints unless noted):
//
//   record  = 0x00 open | 0x01 event | 0x02 close
//   open    = session prop-ref n_processes initial_state
//   event   = session process kind sn vc state time
//   close   = session
//   prop-ref= index                      -- index < table len: back-reference
//           | index len name-bytes       -- index == table len: new entry
//   kind    = 0x00                       -- internal
//           | 0x01 to msg_id             -- send
//           | 0x02 msg_id                -- broadcast
//           | 0x03 from msg_id           -- receive
//   vc      = len entry*
//   time    = 8-byte little-endian f64 bits
//
// The property table is per-stream state shared by encoder and decoder: each
// distinct property name is transmitted once (on first use) and referenced by
// index afterwards, so a 400-session open burst costs one string, not 400.
// ---------------------------------------------------------------------------

const REC_OPEN: u8 = 0;
const REC_EVENT: u8 = 1;
const REC_CLOSE: u8 = 2;

const KIND_INTERNAL: u8 = 0;
const KIND_SEND: u8 = 1;
const KIND_BROADCAST: u8 = 2;
const KIND_RECEIVE: u8 = 3;

/// Appends the binary encoding of one program event to `out`.  Public so the
/// `dlrv-net` message codec embeds events byte-identically to the stream codec.
pub fn event_to_binary(event: &Event, out: &mut Vec<u8>) {
    varint::write_u64(out, event.process as u64);
    match &event.kind {
        EventKind::Internal => out.push(KIND_INTERNAL),
        EventKind::Send { to, msg_id } => {
            out.push(KIND_SEND);
            varint::write_u64(out, *to as u64);
            varint::write_u64(out, *msg_id);
        }
        EventKind::Broadcast { msg_id } => {
            out.push(KIND_BROADCAST);
            varint::write_u64(out, *msg_id);
        }
        EventKind::Receive { from, msg_id } => {
            out.push(KIND_RECEIVE);
            varint::write_u64(out, *from as u64);
            varint::write_u64(out, *msg_id);
        }
    }
    varint::write_u64(out, event.sn);
    write_clock(out, &event.vc);
    varint::write_u64(out, event.state.0);
    out.extend_from_slice(&event.time.to_bits().to_le_bytes());
}

/// Decodes one program event from its [`event_to_binary`] form.
pub fn event_from_binary(r: &mut Reader<'_>) -> Result<Event, StreamError> {
    let process = r.usize("event process")?;
    let kind = match r.byte("event kind")? {
        KIND_INTERNAL => EventKind::Internal,
        KIND_SEND => EventKind::Send {
            to: r.usize("send target")?,
            msg_id: r.uv("send msg_id")?,
        },
        KIND_BROADCAST => EventKind::Broadcast {
            msg_id: r.uv("broadcast msg_id")?,
        },
        KIND_RECEIVE => EventKind::Receive {
            from: r.usize("receive source")?,
            msg_id: r.uv("receive msg_id")?,
        },
        other => return Err(r.corrupt(&format!("event kind tag {other}"))),
    };
    let sn = r.uv("event sn")?;
    let vc = r.clock("event vector clock")?;
    if process >= vc.len() {
        return Err(StreamError::msg(format!(
            "event process {process} out of range for a {}-entry vector clock",
            vc.len()
        )));
    }
    Ok(Event {
        process,
        kind,
        sn,
        vc,
        state: Assignment(r.uv("event state")?),
        time: r.f64("event time")?,
    })
}

/// Stateful encoder for the binary frame format.
///
/// The only state is the property-name intern table, which must march in step
/// with the receiving [`FrameDecoder`]'s — so use one encoder per stream (or
/// per connection) and encode records in transmission order.
#[derive(Debug, Default)]
pub struct BinaryStreamEncoder {
    props: Vec<String>,
}

impl BinaryStreamEncoder {
    /// An encoder with an empty property table.
    pub fn new() -> Self {
        BinaryStreamEncoder::default()
    }

    fn write_prop_ref(&mut self, name: &str, out: &mut Vec<u8>) {
        if let Some(idx) = self.props.iter().position(|p| p == name) {
            varint::write_u64(out, idx as u64);
        } else {
            varint::write_u64(out, self.props.len() as u64);
            varint::write_bytes(out, name.as_bytes());
            self.props.push(name.to_string());
        }
    }

    /// Appends one complete binary frame (header + payload) for `record` to `out`.
    pub fn encode_frame_into(&mut self, record: &StreamRecord, out: &mut Vec<u8>) {
        write_frame(out, true, |out| match record {
            StreamRecord::Open {
                session,
                property,
                n_processes,
                initial_state,
            } => {
                out.push(REC_OPEN);
                varint::write_u64(out, *session);
                self.write_prop_ref(property, out);
                varint::write_u64(out, *n_processes as u64);
                varint::write_u64(out, *initial_state);
            }
            StreamRecord::Event { session, event } => {
                out.push(REC_EVENT);
                varint::write_u64(out, *session);
                event_to_binary(event, out);
            }
            StreamRecord::Close { session } => {
                out.push(REC_CLOSE);
                varint::write_u64(out, *session);
            }
        });
    }
}

/// Encodes a whole record sequence into one binary byte stream (the compact
/// counterpart of [`encode_stream`]; [`FrameDecoder`] reads either, or a mix).
pub fn encode_stream_binary(records: &[StreamRecord]) -> Vec<u8> {
    let mut encoder = BinaryStreamEncoder::new();
    let mut out = Vec::new();
    for r in records {
        encoder.encode_frame_into(r, &mut out);
    }
    out
}

fn decode_binary_record(
    payload: &[u8],
    props: &mut Vec<String>,
) -> Result<StreamRecord, StreamError> {
    let mut r = Reader::new(payload);
    let record = match r.byte("record tag")? {
        REC_OPEN => {
            let session = r.uv("open session")?;
            let idx = r.usize("property index")?;
            let property = if idx < props.len() {
                props[idx].clone()
            } else if idx == props.len() {
                let name = std::str::from_utf8(r.bytes("property name")?)
                    .map_err(|_| StreamError::msg("property name is not UTF-8"))?
                    .to_string();
                props.push(name.clone());
                name
            } else {
                return Err(StreamError::msg(format!(
                    "property index {idx} skips ahead of a {}-entry intern table",
                    props.len()
                )));
            };
            StreamRecord::Open {
                session,
                property,
                n_processes: r.usize("open n_processes")?,
                initial_state: r.uv("open initial_state")?,
            }
        }
        REC_EVENT => StreamRecord::Event {
            session: r.uv("event session")?,
            event: event_from_binary(&mut r)?,
        },
        REC_CLOSE => StreamRecord::Close {
            session: r.uv("close session")?,
        },
        other => return Err(r.corrupt(&format!("record tag {other}"))),
    };
    r.finish()?;
    Ok(record)
}

/// One session's worth of wire input for [`interleave_sessions`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStream {
    /// The session id the records will carry.
    pub session: SessionId,
    /// Property name for the [`StreamRecord::Open`].
    pub property: String,
    /// Process count for the open record.
    pub n_processes: usize,
    /// Initial-state bits for the open record.
    pub initial_state: u64,
    /// The session's events, already in delivery (timestamp) order.
    pub events: Vec<Event>,
}

/// Builds the canonical multi-session record sequence: every session's `Open`
/// first, then events interleaved round-robin across sessions (so every shard
/// juggles many live sessions at once instead of one after another), then every
/// `Close`.
///
/// Both the throughput runner and the stream-equivalence test construct their wire
/// streams through this function, so they always exercise the same record shape.
pub fn interleave_sessions(sessions: &[SessionStream]) -> Vec<StreamRecord> {
    let events: usize = sessions.iter().map(|s| s.events.len()).sum();
    let mut records = Vec::with_capacity(2 * sessions.len() + events);
    for s in sessions {
        records.push(StreamRecord::Open {
            session: s.session,
            property: s.property.clone(),
            n_processes: s.n_processes,
            initial_state: s.initial_state,
        });
    }
    let longest = sessions.iter().map(|s| s.events.len()).max().unwrap_or(0);
    for k in 0..longest {
        for s in sessions {
            if let Some(event) = s.events.get(k) {
                records.push(StreamRecord::Event {
                    session: s.session,
                    event: event.clone(),
                });
            }
        }
    }
    for s in sessions {
        records.push(StreamRecord::Close { session: s.session });
    }
    records
}

/// An incremental record decoder: feed it byte chunks of any size, pull complete
/// records out.  Each frame's header says whether its payload is JSON or binary,
/// so one decoder handles either format — or a mix.  An error is terminal for
/// the stream: the offending frame is not offered again.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    frames: FrameSplitter,
    /// Property-name intern table for binary frames, mirroring the sending
    /// [`BinaryStreamEncoder`]'s table entry for entry.
    props: Vec<String>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        self.frames.push(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn pending_bytes(&self) -> usize {
        self.frames.pending_bytes()
    }

    /// Decodes the next complete record, or `None` when more bytes are needed.
    pub fn next_record(&mut self) -> Result<Option<StreamRecord>, StreamError> {
        Ok(match self.frames.next_frame()? {
            None => None,
            Some((true, payload)) => Some(decode_binary_record(payload, &mut self.props)?),
            Some((false, payload)) => Some(record_from_json(&json_payload(payload)?)?),
        })
    }
}

/// Where the runtime's records come from.
pub trait EventSource {
    /// The next record, `None` at end-of-stream.
    fn next_record(&mut self) -> Result<Option<StreamRecord>, StreamError>;
}

/// An in-memory record source (already-decoded records, no wire bytes involved).
#[derive(Debug)]
pub struct VecSource {
    records: std::vec::IntoIter<StreamRecord>,
}

impl VecSource {
    /// A source yielding `records` in order.
    pub fn new(records: Vec<StreamRecord>) -> Self {
        VecSource {
            records: records.into_iter(),
        }
    }
}

impl EventSource for VecSource {
    fn next_record(&mut self) -> Result<Option<StreamRecord>, StreamError> {
        Ok(self.records.next())
    }
}

/// Decodes framed records from any [`Read`] — a file, a socket, an in-memory cursor.
#[derive(Debug)]
pub struct ReaderSource<R: Read> {
    reader: R,
    decoder: FrameDecoder,
    chunk: Vec<u8>,
    eof: bool,
}

impl<R: Read> ReaderSource<R> {
    /// Wraps `reader`; bytes are pulled in fixed-size chunks as records are needed.
    pub fn new(reader: R) -> Self {
        ReaderSource {
            reader,
            decoder: FrameDecoder::new(),
            chunk: vec![0u8; 64 * 1024],
            eof: false,
        }
    }
}

impl<R: Read> EventSource for ReaderSource<R> {
    fn next_record(&mut self) -> Result<Option<StreamRecord>, StreamError> {
        loop {
            if let Some(record) = self.decoder.next_record()? {
                return Ok(Some(record));
            }
            if self.eof {
                if self.decoder.pending_bytes() > 0 {
                    return Err(StreamError::msg(format!(
                        "stream ends mid-frame ({} trailing bytes)",
                        self.decoder.pending_bytes()
                    )));
                }
                return Ok(None);
            }
            let n = self.reader.read(&mut self.chunk)?;
            if n == 0 {
                self.eof = true;
            } else {
                self.decoder.push(&self.chunk[..n]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_vclock::VectorClock;

    fn sample_event() -> Event {
        Event {
            process: 1,
            kind: EventKind::Receive { from: 0, msg_id: 7 },
            sn: 3,
            vc: VectorClock::from_entries(vec![2, 3]),
            state: Assignment(0b1010),
            time: 4.25,
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = [
            StreamRecord::Open {
                session: 42,
                property: "C".to_string(),
                n_processes: 2,
                initial_state: 5,
            },
            StreamRecord::Event {
                session: 42,
                event: sample_event(),
            },
            StreamRecord::Close { session: 42 },
        ];
        for r in &records {
            let text = record_to_json(r).to_string_pretty();
            let back = record_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn every_event_kind_round_trips() {
        for kind in [
            EventKind::Internal,
            EventKind::Send { to: 2, msg_id: 9 },
            EventKind::Broadcast { msg_id: 1 },
            EventKind::Receive { from: 1, msg_id: 3 },
        ] {
            let event = Event {
                kind,
                process: 0,
                sn: 1,
                vc: VectorClock::from_entries(vec![1, 0, 0]),
                state: Assignment::ALL_FALSE,
                time: 0.5,
            };
            let back = event_from_json(&event_to_json(&event)).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn frame_decoder_handles_byte_at_a_time_input() {
        let records = vec![
            StreamRecord::Open {
                session: 1,
                property: "B".to_string(),
                n_processes: 3,
                initial_state: 0,
            },
            StreamRecord::Event {
                session: 1,
                event: sample_event(),
            },
            StreamRecord::Close { session: 1 },
        ];
        let bytes = encode_stream(&records);
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for b in bytes {
            decoder.push(&[b]);
            while let Some(r) = decoder.next_record().unwrap() {
                decoded.push(r);
            }
        }
        assert_eq!(decoded, records);
        assert_eq!(decoder.pending_bytes(), 0);
    }

    #[test]
    fn reader_source_round_trips_and_rejects_truncation() {
        let records = vec![
            StreamRecord::Open {
                session: 9,
                property: "A".to_string(),
                n_processes: 2,
                initial_state: 1,
            },
            StreamRecord::Close { session: 9 },
        ];
        let bytes = encode_stream(&records);
        let mut source = ReaderSource::new(&bytes[..]);
        let mut decoded = Vec::new();
        while let Some(r) = source.next_record().unwrap() {
            decoded.push(r);
        }
        assert_eq!(decoded, records);

        // Truncated stream: the decoder must error, not silently stop.
        let mut truncated = ReaderSource::new(&bytes[..bytes.len() - 3]);
        assert!(truncated.next_record().unwrap().is_some());
        assert!(truncated.next_record().is_err());
    }

    #[test]
    fn oversized_frame_lengths_are_rejected() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&u32::MAX.to_be_bytes());
        assert!(decoder.next_record().is_err());
    }

    #[test]
    fn malformed_events_are_rejected() {
        // A process index outside its own vector clock must fail at parse time.
        let bad = object([
            ("process", Json::from(5usize)),
            ("kind", object([("kind", Json::from("internal"))])),
            ("sn", Json::from(1u64)),
            ("vc", Json::Array(vec![Json::from(1u64)])),
            ("state", Json::from(0u64)),
            ("time", Json::from(1.0)),
        ]);
        assert!(event_from_json(&bad).is_err());
    }

    fn sample_records() -> Vec<StreamRecord> {
        vec![
            StreamRecord::Open {
                session: 42,
                property: "C".to_string(),
                n_processes: 2,
                initial_state: 5,
            },
            StreamRecord::Open {
                session: 43,
                property: "C".to_string(),
                n_processes: 2,
                initial_state: 0,
            },
            StreamRecord::Open {
                session: 44,
                property: "x-custom".to_string(),
                n_processes: 4,
                initial_state: u64::MAX,
            },
            StreamRecord::Event {
                session: 42,
                event: sample_event(),
            },
            StreamRecord::Event {
                session: 44,
                event: Event {
                    process: 3,
                    kind: EventKind::Broadcast { msg_id: u64::MAX },
                    sn: 1 << 40,
                    vc: VectorClock::from_entries(vec![0, u64::MAX, 7, 1]),
                    state: Assignment(0),
                    time: -0.0,
                },
            },
            StreamRecord::Close { session: 43 },
            StreamRecord::Close { session: 42 },
            StreamRecord::Close { session: 44 },
        ]
    }

    #[test]
    fn binary_stream_round_trips() {
        let records = sample_records();
        let bytes = encode_stream_binary(&records);
        let json_bytes = encode_stream(&records);
        assert!(
            bytes.len() < json_bytes.len() / 2,
            "binary ({}) should be well under half of JSON ({})",
            bytes.len(),
            json_bytes.len()
        );
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        let mut decoded = Vec::new();
        while let Some(r) = decoder.next_record().unwrap() {
            decoded.push(r);
        }
        assert_eq!(decoded, records);
        assert_eq!(decoder.pending_bytes(), 0);
    }

    #[test]
    fn binary_frames_survive_byte_at_a_time_input() {
        let records = sample_records();
        let bytes = encode_stream_binary(&records);
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for b in bytes {
            decoder.push(&[b]);
            while let Some(r) = decoder.next_record().unwrap() {
                decoded.push(r);
            }
        }
        assert_eq!(decoded, records);
    }

    #[test]
    fn mixed_json_and_binary_frames_decode_in_one_stream() {
        let records = sample_records();
        let mut encoder = BinaryStreamEncoder::new();
        let mut bytes = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if i % 2 == 0 {
                encoder.encode_frame_into(r, &mut bytes);
            } else {
                bytes.extend_from_slice(&encode_frame(r));
            }
        }
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        let mut decoded = Vec::new();
        while let Some(r) = decoder.next_record().unwrap() {
            decoded.push(r);
        }
        assert_eq!(decoded, records);
    }

    #[test]
    fn binary_event_round_trips_every_kind_and_f64_bit_pattern() {
        for kind in [
            EventKind::Internal,
            EventKind::Send { to: 2, msg_id: 9 },
            EventKind::Broadcast { msg_id: 1 },
            EventKind::Receive { from: 1, msg_id: 3 },
        ] {
            for time in [0.0, -0.0, 1.5e300, f64::MIN_POSITIVE, 4.25] {
                let event = Event {
                    kind,
                    process: 0,
                    sn: 1,
                    vc: VectorClock::from_entries(vec![1, 0, 0]),
                    state: Assignment(0b11),
                    time,
                };
                let mut buf = Vec::new();
                event_to_binary(&event, &mut buf);
                let mut r = Reader::new(&buf);
                let back = event_from_binary(&mut r).unwrap();
                r.finish().unwrap();
                assert_eq!(back.time.to_bits(), event.time.to_bits());
                assert_eq!(back, event);
            }
        }
    }

    /// Decodes `payload` as the single binary frame of a fresh stream.
    fn decode_binary_payload(payload: &[u8]) -> Result<Option<StreamRecord>, StreamError> {
        let mut frame = Vec::new();
        write_frame(&mut frame, true, |out| out.extend_from_slice(payload));
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame);
        decoder.next_record()
    }

    #[test]
    fn binary_decoder_rejects_corruption() {
        // Unknown record tag.
        assert!(decode_binary_payload(&[9]).is_err());

        // Truncated payload: a valid event frame with its last byte dropped
        // (header length shortened to match) must error, not decode.
        let full = encode_stream_binary(&[StreamRecord::Event {
            session: 1,
            event: sample_event(),
        }]);
        assert!(decode_binary_payload(&full[4..]).unwrap().is_some());
        assert!(decode_binary_payload(&full[4..full.len() - 1]).is_err());

        // A property back-reference that skips ahead of the intern table.
        let mut payload = vec![REC_OPEN];
        varint::write_u64(&mut payload, 1); // session
        varint::write_u64(&mut payload, 3); // index 3 into an empty table
        assert!(decode_binary_payload(&payload).is_err());

        // Out-of-range process index, exactly like the JSON codec rejects.
        let mut payload = vec![REC_EVENT];
        varint::write_u64(&mut payload, 1); // session
        varint::write_u64(&mut payload, 5); // process 5
        payload.push(KIND_INTERNAL);
        varint::write_u64(&mut payload, 1); // sn
        varint::write_u64(&mut payload, 1); // vc len 1
        varint::write_u64(&mut payload, 1); // vc[0]
        varint::write_u64(&mut payload, 0); // state
        payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(decode_binary_payload(&payload).is_err());
    }

    #[test]
    fn property_interning_sends_each_name_once() {
        let opens: Vec<StreamRecord> = (0..50)
            .map(|s| StreamRecord::Open {
                session: s,
                property: "SomeLongPropertyName".to_string(),
                n_processes: 2,
                initial_state: 0,
            })
            .collect();
        let bytes = encode_stream_binary(&opens);
        let name_count = bytes
            .windows(b"SomeLongPropertyName".len())
            .filter(|w| *w == b"SomeLongPropertyName")
            .count();
        assert_eq!(name_count, 1, "the property name travels exactly once");
    }

    #[test]
    fn interleaving_opens_all_then_round_robins_into_exact_capacity() {
        let session = |session: SessionId, events: usize| SessionStream {
            session,
            property: "C".to_string(),
            n_processes: 2,
            initial_state: 0,
            events: vec![sample_event(); events],
        };
        let records = interleave_sessions(&[session(7, 2), session(9, 1)]);
        let shape: Vec<(char, SessionId)> = records
            .iter()
            .map(|r| match r {
                StreamRecord::Open { session, .. } => ('o', *session),
                StreamRecord::Event { session, .. } => ('e', *session),
                StreamRecord::Close { session } => ('c', *session),
            })
            .collect();
        assert_eq!(
            shape,
            [
                ('o', 7),
                ('o', 9),
                ('e', 7),
                ('e', 9),
                ('e', 7),
                ('c', 7),
                ('c', 9)
            ]
        );
        assert_eq!(
            records.capacity(),
            records.len(),
            "one allocation, no spare"
        );
    }
}
