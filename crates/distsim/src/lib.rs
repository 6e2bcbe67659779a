//! Distributed-program execution substrate for decentralized runtime verification.
//!
//! The paper evaluates its algorithm on a network of iOS devices running trace-driven
//! programs over WiFi.  This crate is the reproduction's substitute substrate (see
//! `docs/ARCHITECTURE.md`, "Ch. 5 testbed"): it executes the same trace-driven programs over reliable
//! FIFO channels, co-locates a monitor with every process and routes monitor-to-monitor
//! messages, in two flavours:
//!
//! * [`engine`] — a deterministic discrete-event simulator (the primary substrate for
//!   experiments: seeded, reproducible, records the full [`dlrv_vclock::Computation`]
//!   for oracle comparison).
//! * [`threaded`] — a real multi-threaded runtime over `std::sync::mpsc` channels
//!   (one OS thread per process), demonstrating the same monitor code under genuine
//!   asynchrony.
//!
//! Monitors plug in through the [`MonitorBehavior`] trait.

#![forbid(unsafe_code)]

pub mod behavior;
pub mod engine;
pub mod threaded;

pub use behavior::{MonitorBehavior, MonitorContext, NullMonitor};
pub use engine::{initial_global_state, run_simulation, SimConfig, SimReport};
pub use threaded::{run_threaded, ThreadedConfig, ThreadedReport};
