//! The five named workloads and their seeded input generation.
//!
//! A workload is a shape (property, process count, trace length, session count,
//! how many sessions are live at once); `--seed` picks the concrete traces.  The
//! program under test sees only what [`prepare`] returns: an encoded byte stream
//! for the stream substrates, an [`ExperimentConfig`] for `run_deploy`.

use crate::stats::nanos_since;
use dlrv_core::{
    compile_fleet, CompiledFleetMember, ExperimentConfig, FleetParams, PaperProperty, PropertySpec,
};
use dlrv_distsim::{initial_global_state, run_simulation, NullMonitor, SimConfig};
use dlrv_ltl::AtomRegistry;
use dlrv_monitor::timestamp_order;
use dlrv_stream::{encode_stream_binary, interleave_sessions, SessionStream, StreamRecord};
use dlrv_trace::generate_workload;
use std::sync::Arc;
use std::time::Instant;

/// Which substrate a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Bytes → `ReaderSource` → `ShardedRuntime::pump` → `shutdown`.
    Stream,
    /// `run_deploy`: one `monitord` OS process per monitor over Unix sockets.
    Deploy,
}

/// One benchmark workload.  Names are stable: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The stable workload name (`--workload`).
    pub name: &'static str,
    /// The substrate under test.
    pub substrate: Substrate,
    /// Monitored properties; more than one makes every session a fleet session.
    pub properties: &'static [PaperProperty],
    /// Processes per monitored execution.
    pub n_processes: usize,
    /// Internal events per process (communication events come on top).
    pub events_per_process: usize,
    /// Sessions in one pass over the inputs.
    pub sessions: usize,
    /// Sessions interleaved at once; the stream is `sessions / wave` back-to-back
    /// waves, so `wave == sessions` keeps every session live for the whole pass.
    pub wave: usize,
    /// `Some(s)`: the traces are a fixture drawn from seed `s` whatever `--seed`
    /// says (see [`WORKLOADS`] on `deploy-lockstep`).
    pub fixed_trace_seed: Option<u64>,
    /// Events per second of the open-loop probe of the traced run: fixed per
    /// workload (never derived from a measurement, so it compares across commits)
    /// and set below the workload's closed-loop rate on the 2-core reference box.
    pub paced_rate: u64,
}

/// The benchmark's workloads, in reporting order.  Why each exists is recorded
/// in `BENCHMARK.json` and `benchmark/README.md`.
///
/// Session counts are set by seed-to-seed steadiness, not only by run time.  An
/// until-property session exchanges tokens until its verdict is final, and the
/// generator falsifies a proposition with probability 0.1 per event, so the
/// time to a verdict — and with it the session's message count — is
/// geometric: per-session messages per event have a coefficient of variation
/// near 1 (up to 2.7 on long traces).  `stream-heavy` and `fleet-6` therefore
/// run many short sessions (1000 and 1200) rather than few long ones, which
/// brings the spread of `monitor_msgs_per_event` across seeds to 2–4 %.
/// `deploy-lockstep` cannot do that at 5 ms per event: one 354-event trace
/// ranges from 0.04 to 46 messages per event by seed, so its trace is a
/// fixture (`fixed_trace_seed`) and `--seed` does not change it.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stream-waves",
        substrate: Substrate::Stream,
        properties: &[PaperProperty::B],
        n_processes: 3,
        events_per_process: 10,
        sessions: 5000,
        wave: 400,
        fixed_trace_seed: None,
        paced_rate: 100_000,
    },
    Workload {
        name: "stream-wide",
        substrate: Substrate::Stream,
        properties: &[PaperProperty::B],
        n_processes: 3,
        events_per_process: 10,
        sessions: 5000,
        wave: 5000,
        fixed_trace_seed: None,
        paced_rate: 100_000,
    },
    Workload {
        name: "stream-heavy",
        substrate: Substrate::Stream,
        properties: &[PaperProperty::A],
        n_processes: 4,
        events_per_process: 8,
        sessions: 1000,
        wave: 125,
        fixed_trace_seed: None,
        paced_rate: 40_000,
    },
    Workload {
        name: "fleet-6",
        substrate: Substrate::Stream,
        properties: &PaperProperty::ALL,
        n_processes: 3,
        events_per_process: 4,
        sessions: 1200,
        wave: 400,
        fixed_trace_seed: None,
        paced_rate: 20_000,
    },
    Workload {
        name: "deploy-lockstep",
        substrate: Substrate::Deploy,
        properties: &[PaperProperty::C],
        n_processes: 3,
        events_per_process: 30,
        sessions: 1,
        wave: 1,
        fixed_trace_seed: Some(1),
        paced_rate: 0,
    },
];

impl Workload {
    /// The workload with the given name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The `--quick` variant: the same shape shrunk so a whole run takes under two
    /// seconds (for the determinism tests; its numbers mean nothing).
    pub fn quick(self) -> Workload {
        let sessions = (self.sessions / 80).max(1);
        Workload {
            sessions,
            wave: (self.wave / 80).clamp(1, sessions),
            events_per_process: self.events_per_process.min(10),
            ..self
        }
    }

    /// True when every session monitors the whole property fleet in one pass.
    pub fn is_fleet(&self) -> bool {
        self.properties.len() > 1
    }

    /// The name sessions announce in their `Open` record.
    pub fn property_name(&self) -> String {
        self.fleet_params().joined_name()
    }

    fn fleet_params(&self) -> FleetParams {
        FleetParams::new(
            self.properties
                .iter()
                .map(|&p| PropertySpec::from(p))
                .collect(),
        )
    }

    /// The experiment configuration of session `index` under run seed `seed`:
    /// paper-default arrivals `N(3,1)` and broadcast communication, one trace.
    /// The lead (first) property shapes the trace's initial channel values.
    pub fn session_config(&self, seed: u64, index: u64) -> ExperimentConfig {
        ExperimentConfig {
            events_per_process: self.events_per_process,
            seeds: vec![mix(self.fixed_trace_seed.unwrap_or(seed), index)],
            ..ExperimentConfig::paper_default(self.properties[0], self.n_processes)
        }
    }
}

/// The workload seed of session `index` under run seed `seed` (SplitMix64 over
/// both, so neighbouring run seeds share no session trace).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The properties of a workload compiled over one shared atom registry.
pub struct Compiled {
    /// The atom registry every member interprets events with.
    pub registry: Arc<AtomRegistry>,
    /// One synthesized automaton per property, in workload order.
    pub members: Vec<CompiledFleetMember>,
}

/// Everything a run needs, generated from `(workload, seed)` alone.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The run seed.
    pub seed: u64,
    /// The compiled properties.
    pub compiled: Compiled,
    /// Per-session event sequences in delivery order (session id = index).
    pub sessions: Vec<SessionStream>,
    /// The binary wire stream of all sessions, wave after wave.
    pub bytes: Vec<u8>,
    /// Program events in the stream.
    pub n_events: usize,
}

/// Nanoseconds each set-up stage took; `setup_s` is their sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupNanos {
    /// Automaton synthesis of every property (`compile_fleet`).
    pub synthesize: u64,
    /// `generate_workload` over all sessions.
    pub generate: u64,
    /// `run_simulation` + `timestamp_order` over all sessions.
    pub simulate: u64,
    /// Interleaving + `BinaryStreamEncoder` over all records.
    pub encode: u64,
}

impl SetupNanos {
    /// Total set-up time in seconds.
    pub fn total_secs(&self) -> f64 {
        (self.synthesize + self.generate + self.simulate + self.encode) as f64 / 1e9
    }
}

/// Generates the inputs of `workload` under `seed`: compile, generate, simulate,
/// encode.  Deterministic: the same arguments give byte-identical `bytes`.
pub fn prepare(workload: Workload, seed: u64) -> (Inputs, SetupNanos) {
    let mut nanos = SetupNanos::default();

    let t = Instant::now();
    let (registry, members) = compile_fleet(&workload.fleet_params(), workload.n_processes);
    let compiled = Compiled { registry, members };
    nanos.synthesize = nanos_since(t);

    let property = workload.property_name();
    let mut sessions = Vec::with_capacity(workload.sessions);
    let mut n_events = 0usize;
    for index in 0..workload.sessions as u64 {
        let config = workload.session_config(seed, index);
        let t = Instant::now();
        let generated = generate_workload(&config.workload_config(config.seeds[0]));
        nanos.generate += nanos_since(t);

        let t = Instant::now();
        let report = run_simulation(
            &generated,
            &compiled.registry,
            &SimConfig::default(),
            |_| NullMonitor::default(),
        );
        let events: Vec<_> = timestamp_order(&report.computation)
            .into_iter()
            .map(|(_, p, sn)| report.computation.events[p][(sn - 1) as usize].clone())
            .collect();
        nanos.simulate += nanos_since(t);

        n_events += events.len();
        sessions.push(SessionStream {
            session: index,
            property: property.clone(),
            n_processes: workload.n_processes,
            initial_state: initial_global_state(&generated, &compiled.registry).0,
            events,
        });
    }

    // Waves of `wave` interleaved sessions, back to back, in the binary format.
    let t = Instant::now();
    let records: Vec<StreamRecord> = sessions
        .chunks(workload.wave)
        .flat_map(interleave_sessions)
        .collect();
    let bytes = encode_stream_binary(&records);
    drop(records);
    nanos.encode = nanos_since(t);

    let inputs = Inputs {
        workload,
        seed,
        compiled,
        sessions,
        bytes,
        n_events,
    };
    (inputs, nanos)
}
