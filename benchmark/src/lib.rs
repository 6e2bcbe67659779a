//! The repository benchmark: five named workloads driven through the public
//! functions of the three substrates, checked against an in-process reference,
//! reported end to end (tracing off) and per layer (a separate traced run).
//! See `README.md` next to this crate.

#![forbid(unsafe_code)]

pub mod endtoend;
pub mod layers;
pub mod pipeline;
pub mod probes;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
