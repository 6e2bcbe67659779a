//! Real-socket transport for decentralized monitors.
//!
//! `dlrv-net` turns the `dlrv-stream` wire layer into a true multi-process
//! transport: TCP/Unix [endpoints](endpoint), framed non-blocking
//! [connections](conn), a vendored epoll [reactor], a deterministic
//! seeded [fault-injection shim](fault) and the [deploy wire protocol](wire)
//! spoken between the orchestrator (`dlrv-core`'s `deploy` module), the
//! `monitord` daemons and their peer mesh.
//!
//! Layering: this crate sits below `dlrv-core` (which orchestrates deploy
//! scenarios) and beside `dlrv-stream` (whose framing and event codec it
//! reuses).  Property and option payloads travel as opaque [`dlrv_json::Json`]
//! so the spec pipeline stays in `dlrv-core`.

#![forbid(unsafe_code)]

pub mod conn;
pub mod endpoint;
pub mod fault;
pub mod reactor;
pub mod wire;

pub use conn::{FramedConn, NetError};
pub use endpoint::{connect_with_retry, Endpoint, Listener, Socket};
pub use fault::{FaultInjector, FaultSpec, FaultStats};
pub use reactor::{Interest, IoEvent, Reactor};
pub use wire::{
    decode_wire_frame, encode_frame, encode_wire_frame, DaemonReport, DaemonStatus,
    DaemonTelemetry, WireMsg, TELEMETRY_EVERY_EVENTS,
};
