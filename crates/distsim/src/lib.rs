//! Distributed-program execution substrate for decentralized runtime verification.
//!
//! The paper evaluates its algorithm on a network of iOS devices running trace-driven
//! programs over WiFi.  This crate is the reproduction's substitute substrate (see
//! `docs/ARCHITECTURE.md`, "Ch. 5 testbed"): it executes the same trace-driven programs over reliable
//! FIFO channels, co-locates a monitor with every process and routes monitor-to-monitor
//! messages.  [`engine`] is a deterministic discrete-event simulator: seeded,
//! reproducible, and recording the full [`dlrv_vclock::Computation`] for oracle
//! comparison.  (Genuine asynchrony — one OS process per monitor over real sockets,
//! with an actual quiescence test — is `dlrv-net`'s `monitord` under
//! `dlrv-core`'s `run_deploy`.)
//!
//! Monitors plug in through the [`MonitorBehavior`] trait.

#![forbid(unsafe_code)]

pub mod behavior;
pub mod engine;

pub use behavior::{MonitorBehavior, MonitorContext, NullMonitor};
pub use engine::{initial_global_state, run_simulation, SimConfig, SimReport};
