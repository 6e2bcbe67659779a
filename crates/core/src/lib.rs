//! High-level public API of the decentralized LTL runtime-verification framework.
//!
//! This crate ties the workspace together for downstream users:
//!
//! * [`MonitoredSystem`] — builder API: declare a distributed system, attach an LTL
//!   property (text or AST), pick or generate a workload, run it with decentralized
//!   monitors and read verdicts/metrics.
//! * [`PropertySpec`] / [`CompiledProperty`] — first-class properties: the paper's
//!   six letters or arbitrary user LTL text, compiled once (formula + registry +
//!   synthesized monitor) and threaded through every layer below.
//! * [`PaperProperty`] — the six evaluation properties A–F of the thesis,
//!   parameterized by process count; thin constructors of [`PropertySpec`]s.
//! * [`ExperimentConfig`] / [`run_experiment`] — the experiment runner, and
//!   [`tables`] — every table the `experiments` binary prints and the report
//!   renders, as column lists behind one text and one markdown renderer.
//! * [`Scenario`] / [`ScenarioRegistry`] — every experiment the repository knows how
//!   to run, by stable name: the paper's sweeps plus extended workload shapes
//!   (bursty arrivals, ring/pipeline/hotspot topologies, large-N runs) and the
//!   online throughput family ([`StreamParams`], `--target throughput`).
//! * [`throughput`] — the one streamed runner ([`run_streamed`]): hundreds–thousands
//!   of concurrent sessions encoded to wire bytes and pumped through the sharded
//!   [`dlrv_stream`] runtime, one property or a whole [`fleet`] per session.
//! * [`deploy`] — the real-socket deployment runner: one `monitord` OS process
//!   per monitor over TCP/Unix sockets ([`DeployParams`], `--target deploy`),
//!   with deterministic fault injection on every channel ([`dlrv_net`]).
//! * [`results`] — the machine-readable `BENCH_results.json` pipeline: sweep
//!   results serialized over [`dlrv_json`] and parsed back field-for-field.
//! * [`analysis`] — spec-level entry points into the static analyzer
//!   ([`dlrv_analyze`]): monitorability classification, automaton hygiene and
//!   configuration lints without running a workload (`--target analyze`).
//!
//! The lower-level building blocks are re-exported from their crates: LTL syntax
//! ([`dlrv_ltl`]), monitor-automaton synthesis ([`dlrv_automaton`]), vector clocks and
//! lattices ([`dlrv_vclock`]), workload generation ([`dlrv_trace`]), the execution
//! substrates ([`dlrv_distsim`]) and the monitoring algorithms ([`dlrv_monitor`]).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod deploy;
pub mod experiment;
pub mod figures;
pub mod fleet;
pub mod properties;
pub mod report;
pub mod results;
pub mod scenario;
pub mod spec;
pub mod system;
pub mod tables;
pub mod throughput;

pub use analysis::{analyze_spec, analyze_to_dot};
pub use deploy::{run_deploy, DeployOutcome, DeployParams, DeployTransport};
pub use experiment::{
    average_metrics, effective_jobs, parallel_map_indexed, run_experiment,
    run_experiment_with_options, run_single, session_seed, set_jobs, simulate_session,
    ExperimentConfig, ExperimentResult, SimulatedSession,
};
pub use figures::{transition_counts, TransitionRow, PROCESS_COUNTS};
pub use fleet::{compile_fleet, CompiledFleetMember, FleetParams};
pub use properties::PaperProperty;
pub use report::{render_report, RenderedReport, TrendPoint};
pub use results::{
    records_to_json, sweep_from_json, sweep_to_json, ScenarioRecord, RESULTS_SCHEMA_VERSION,
};
pub use scenario::{Scenario, ScenarioFamily, ScenarioRegistry, StreamParams, Substrate};
pub use spec::{CompiledProperty, PropertySpec, PropertySpecError, MAX_SPEC_ATOMS};
pub use system::{MonitoredSystem, MonitoringOutcome};
pub use throughput::run_streamed;

pub use dlrv_analyze;
pub use dlrv_automaton;
pub use dlrv_distsim;
pub use dlrv_json;
pub use dlrv_ltl;
pub use dlrv_monitor;
pub use dlrv_net;
pub use dlrv_obs;
pub use dlrv_stream;
pub use dlrv_trace;
pub use dlrv_vclock;
