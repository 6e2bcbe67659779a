//! Umbrella crate of the decentralized LTL runtime-verification reproduction.
//!
//! It re-exports [`dlrv_core`] (and, transitively, every workspace crate) so the
//! repository-level examples and integration tests have a single dependency root.
//! See `docs/ARCHITECTURE.md` for the paper-to-code map.
//!
//! # Quickstart
//!
//! Monitor a three-process system for an LTL₃ property with fully decentralized
//! monitors:
//!
//! ```
//! use dlrv::dlrv_trace::WorkloadConfig;
//! use dlrv::MonitoredSystem;
//!
//! let outcome = MonitoredSystem::new(3)
//!     .property("F (P0.p && P1.p && P2.p)")
//!     .expect("the property parses")
//!     .generate_workload(WorkloadConfig {
//!         events_per_process: 8,
//!         seed: 2024,
//!         ..WorkloadConfig::default()
//!     })
//!     .run();
//!
//! assert!(outcome.metrics.total_events > 0);
//! // The generated workload ends with every proposition true, so the reachability
//! // property is detected as satisfied (⊤) at run time.
//! assert!(outcome.satisfaction_detected());
//! ```
//!
//! # Scenario registry
//!
//! Every experiment the repository knows how to run — the paper's sweeps plus
//! extended workload shapes (bursty arrivals, ring/pipeline/hotspot topologies,
//! large-N) — is a named [`Scenario`] in the [`ScenarioRegistry`]:
//!
//! ```
//! use dlrv::ScenarioRegistry;
//!
//! let registry = ScenarioRegistry::standard();
//! let mut scenario = registry.get("ring-B-n4").expect("registered").clone();
//! scenario.config.events_per_process = 5; // scale down for the doc test
//! scenario.config.seeds = vec![1];
//! let result = scenario.run();
//! assert!(result.avg.monitor_messages > 0);
//! ```

//!
//! The `experiments` binary is the [`cli`] module behind a `main`.

#![forbid(unsafe_code)]

pub mod cli;

pub use dlrv_core::*;
