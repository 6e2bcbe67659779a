//! Workload and trace generation for monitoring experiments.
//!
//! The evaluation chapter of the thesis (§5.1–§5.2) drives each device with a trace
//! file: a sequence of events, each preceded by a wait time drawn from a normal
//! distribution.  Events are either local proposition-value changes (each process has
//! two propositions `p` and `q`) or communication events (a broadcast to every other
//! process).  This crate reproduces that workload model:
//!
//! * [`distribution`] — normal sampling (Box–Muller over `rand`, to stay within the
//!   allowed dependency set).
//! * [`workload`] — the [`WorkloadConfig`] parameter set (`Evtµ`, `Evtσ`, `Commµ`,
//!   `Commσ`, process count, events per process, seed) and the generator producing
//!   [`ProcessTrace`]s, designed — like the paper's traces — so that some lattice path
//!   can reach a final automaton state.  Beyond the paper's single shape, workloads
//!   are parameterized by an [`ArrivalModel`] (normally-distributed or bursty event
//!   arrivals) and a [`CommTopology`] (broadcast, ring, pipeline, or hotspot
//!   communication), which is what the scenario registry in `dlrv-core` builds on.
//! * [`mod@format`] — the JSON forms of [`ArrivalModel`] and [`CommTopology`] that
//!   the results document records.

#![forbid(unsafe_code)]

pub mod distribution;
pub mod format;
pub mod workload;

pub use distribution::NormalSampler;
pub use workload::{
    generate_workload, ArrivalModel, CommTopology, ProcessTrace, TraceAction, TraceEntry, Workload,
    WorkloadConfig,
};
