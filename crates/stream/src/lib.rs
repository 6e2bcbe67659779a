//! Online sharded multi-session monitoring runtime.
//!
//! Everything else in this workspace monitors one recorded execution at a time,
//! offline: `dlrv-trace` materializes a full trace, a substrate replays it, metrics
//! come out.  This crate is the *online* ingestion path the production road map
//! needs: events arrive incrementally — possibly as raw bytes — and many independent
//! monitored executions ("sessions") run concurrently over a fixed pool of worker
//! shards.
//!
//! * [`wire`] — the one wire layer under this crate's record codec and
//!   `dlrv-net`'s deploy codec: the frame header ([`FrameSplitter`] on the read
//!   side, [`wire::write_frame`] on the write side), the bounds-checked binary
//!   [`Reader`], and the vector clock's JSON and binary forms.
//! * [`varint`] — the LEB128 integer primitive inside binary payloads.
//! * [`codec`] — records ([`StreamRecord`]) as JSON (over the in-tree
//!   `dlrv-json`) or as the compact binary format of [`BinaryStreamEncoder`]
//!   (each frame's header says which), an incremental [`FrameDecoder`] that
//!   reads either, and the [`EventSource`] abstraction ([`VecSource`] for
//!   in-memory records, [`ReaderSource`] for any `std::io::Read`).
//! * [`ring`] — bounded SPSC rings with park/unpark backpressure: every
//!   shard's one mailbox.
//! * [`runtime`] — the [`ShardedRuntime`]: hash-sharded session routing onto N
//!   worker threads, bounded mailboxes with backpressure, batched event
//!   application, session open/feed/close lifecycle, graceful drain/shutdown, and
//!   per-shard [`ShardMetrics`](dlrv_monitor::ShardMetrics).
//!
//! Each session is an incremental [`FeedSession`](dlrv_monitor::FeedSession) of
//! decentralized token-algorithm monitors, so a streamed session produces exactly
//! the verdicts of the offline replay of the same events — the repository's
//! `stream_equivalence` integration test pins this for every paper property.
//!
//! # Example
//!
//! The wire format survives arbitrary chunking: frames encoded with
//! [`encode_stream`] decode record-for-record through a [`FrameDecoder`] even when
//! the bytes arrive one at a time:
//!
//! ```
//! use dlrv_stream::{encode_stream, FrameDecoder, StreamRecord};
//!
//! let records = vec![
//!     StreamRecord::Open {
//!         session: 7,
//!         property: "B".to_string(),
//!         n_processes: 2,
//!         initial_state: 0,
//!     },
//!     StreamRecord::Close { session: 7 },
//! ];
//! let bytes = encode_stream(&records);
//!
//! let mut decoder = FrameDecoder::new();
//! let mut decoded = Vec::new();
//! for chunk in bytes.chunks(1) {
//!     decoder.push(chunk);
//!     while let Some(record) = decoder.next_record().unwrap() {
//!         decoded.push(record);
//!     }
//! }
//! assert_eq!(decoded, records);
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod ring;
pub mod runtime;
pub mod varint;
pub mod wire;

pub use codec::{
    encode_frame, encode_stream, encode_stream_binary, event_from_binary, event_from_json,
    event_to_binary, event_to_json, interleave_sessions, record_from_json, record_to_json,
    BinaryStreamEncoder, EventSource, FrameDecoder, ReaderSource, SessionId, SessionStream,
    StreamRecord, VecSource,
};
/// A fleet session's per-member outcome ([`SessionOutcome::per_property`]): the
/// record a run's `fleet_per_property` slices are summed in.
pub use dlrv_monitor::PropertyOutcome;
pub use ring::{PopState, SpscRing};
pub use runtime::{
    FleetMemberSpec, OpenRequest, SessionOutcome, SessionSpec, ShardedRuntime, StreamConfig,
    StreamReport,
};
pub use wire::{FrameSplitter, Reader, StreamError, BINARY_FRAME_FLAG, MAX_FRAME_LEN};
