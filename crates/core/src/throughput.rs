//! The streamed runner: drives hundreds–thousands of concurrent monitored sessions
//! through the online [`ShardedRuntime`] and measures ingestion throughput — one
//! property per session (the throughput family) or a whole property fleet per
//! session (the fleet family).
//!
//! One streamed run works end-to-end over the wire path:
//!
//! 1. For every session, a seeded workload is generated and executed under the
//!    deterministic simulator with no-op monitors ([`simulate_session`]) to obtain
//!    its vector-clocked event sequence — the stand-in for a live distributed
//!    program emitting events.
//! 2. All sessions' records (open, events in round-robin interleaving across
//!    sessions, close) are **encoded into one framed byte stream** with the
//!    `dlrv-stream` binary codec.
//! 3. The byte stream is pumped through a [`ReaderSource`] into the sharded runtime:
//!    frames are decoded, hash-routed to shards, applied in batches by the
//!    per-session decentralized monitors — every member of a fleet at once.  The
//!    bytes are pumped exactly once; what a fleet costs against N solo passes is
//!    measured by the benchmark's `monitor.fleet.*_amortization_ratio` probes
//!    (see `docs/FLEET.md`).
//! 4. The shutdown report is folded into [`RunMetrics`]: aggregate events/sec,
//!    wall-clock duration and per-shard measurements next to the usual monitoring
//!    metrics (messages, global views, verdicts), plus — for a fleet —
//!    `fleet_size` and a per-property metrics slice.
//!
//! The timed region (`wall_clock_secs`, `events_per_sec`) is `pump` + `shutdown`;
//! spawning the shard threads happens before the clock starts, which is the
//! definition `benchmark/README.md` uses.  `peak_rss_bytes` stays `0` ("not
//! measured"): the process-wide high-water mark says nothing about one run.
//!
//! Because each session's events are fed in timestamp order, every session's
//! verdicts equal the offline replay of the same trace (pinned by the
//! `stream_equivalence` integration test), and every fleet member's verdicts and
//! token counts equal its solo run (`fleet_equivalence`) — the streamed families
//! measure the online engine, they do not change what is detected.

use crate::experiment::{simulate_session, ExperimentConfig, ExperimentResult};
use crate::fleet::{compile_fleet, CompiledFleetMember, FleetParams};
use crate::scenario::StreamParams;
use crate::spec::CompiledProperty;
use dlrv_ltl::AtomRegistry;
use dlrv_monitor::{combined_verdict, MonitorOptions, PropertyOutcome, RunMetrics};
use dlrv_stream::{
    encode_stream_binary, interleave_sessions, FleetMemberSpec, ReaderSource, SessionSpec,
    SessionStream, ShardedRuntime, StreamConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// Derives the workload seed of one session from the run seed; sessions must not
/// share traces, and the mixing keeps run seeds 1, 2, 3 … from overlapping.
fn session_seed(run_seed: u64, session: u64) -> u64 {
    run_seed
        .wrapping_mul(0x100_0003)
        .wrapping_add(session)
        .wrapping_add(1)
}

/// Runs `params.n_sessions` concurrent sessions of `config`'s workload through the
/// sharded streaming runtime, once per seed in `config.seeds`, and averages the
/// metrics exactly like the offline experiment runner.
///
/// With `fleet` absent every session monitors `config.property`.  With a fleet,
/// every session monitors all of its members in one pass and `config.property`
/// should be the lead member (it only shapes the workload).
pub fn run_streamed(
    config: &ExperimentConfig,
    params: &StreamParams,
    fleet: Option<&FleetParams>,
    opts: MonitorOptions,
) -> ExperimentResult {
    let (registry, members) = match fleet {
        Some(fleet) => compile_fleet(fleet, config.n_processes),
        None => {
            let compiled = CompiledProperty::compile(&config.property, config.n_processes);
            let solo = CompiledFleetMember {
                name: config.property.name().to_string(),
                automaton: compiled.automaton,
            };
            (compiled.registry, vec![solo])
        }
    };
    let per_seed = config
        .seeds
        .iter()
        .map(|&seed| run_once(config, params, fleet, opts, seed, &registry, &members))
        .collect();
    ExperimentResult::from_seeds(config, per_seed)
}

/// One streamed run: generate all session inputs, encode the wire stream, pump it
/// once through a fresh runtime, fold the report into [`RunMetrics`].
fn run_once(
    config: &ExperimentConfig,
    params: &StreamParams,
    fleet: Option<&FleetParams>,
    opts: MonitorOptions,
    seed: u64,
    registry: &Arc<AtomRegistry>,
    members: &[CompiledFleetMember],
) -> RunMetrics {
    // Phase 1: workload generation (the simulated "live programs").  Not measured:
    // the scenario times the ingestion engine, not the trace generator.
    let property = fleet.map_or_else(
        || config.property.name().to_string(),
        FleetParams::joined_name,
    );
    let mut inputs = Vec::with_capacity(params.n_sessions);
    let mut program_messages = 0usize;
    let mut program_time = 0.0f64;
    for s in 0..params.n_sessions {
        let session = simulate_session(
            &config.workload_config(session_seed(seed, s as u64)),
            registry,
        );
        program_messages += session.report.program_messages;
        program_time = program_time.max(session.report.program_end_time);
        inputs.push(SessionStream {
            session: s as u64,
            property: property.clone(),
            n_processes: config.n_processes,
            initial_state: session.initial_state.0,
            events: session.events,
        });
    }

    // Phase 2: the canonical interleaved wire stream.
    let bytes = encode_stream_binary(&interleave_sessions(&inputs));

    // Phase 3: pump the bytes through a fresh runtime (decode + route + monitor).
    // Sessions share automata and registry; only the initial state differs.  A
    // solo run has no fleet members, so every session monitors the lead alone.
    let fleet_members = if fleet.is_some() { members } else { &[] };
    let runtime = ShardedRuntime::start(StreamConfig {
        n_shards: params.n_shards,
        ..StreamConfig::default()
    });
    let started = Instant::now();
    let mut source = ReaderSource::new(&bytes[..]);
    runtime
        .pump(&mut source, &mut |open| {
            Ok(Arc::new(SessionSpec {
                n_processes: open.n_processes,
                automaton: members[0].automaton.clone(),
                registry: registry.clone(),
                initial_state: open.initial_state,
                options: opts,
                fleet: fleet_members
                    .iter()
                    .map(|m| FleetMemberSpec {
                        property: m.name.clone(),
                        automaton: m.automaton.clone(),
                        registry: registry.clone(),
                        initial_state: open.initial_state,
                    })
                    .collect(),
            }))
        })
        .expect("a freshly encoded stream must decode");
    let report = runtime.shutdown();
    let wall_clock_secs = started.elapsed().as_secs_f64();

    // Phase 4: fold the report into RunMetrics and, for a fleet, attach the
    // per-property slice.
    debug_assert_eq!(report.sessions.len(), params.n_sessions);
    debug_assert!(
        report.per_shard.iter().all(|m| m.routing_errors == 0),
        "a well-formed generated stream must not misroute"
    );
    let mut metrics = RunMetrics {
        n_processes: config.n_processes,
        total_events: report.total_events,
        program_messages,
        program_time,
        wall_clock_secs,
        events_per_sec: if wall_clock_secs > 0.0 {
            report.total_events as f64 / wall_clock_secs
        } else {
            0.0
        },
        per_shard: report.per_shard,
        ..RunMetrics::default()
    };
    metrics.fleet_size = fleet_members.len();
    let mut per_property: Vec<PropertyOutcome> = fleet_members
        .iter()
        .map(|m| PropertyOutcome {
            property: m.name.clone(),
            ..PropertyOutcome::default()
        })
        .collect();
    for outcome in report.sessions.values() {
        metrics.monitor_messages += outcome.monitor_messages;
        metrics.monitor_tokens += outcome.monitor_tokens;
        metrics.total_global_views += outcome.global_views;
        metrics.peak_global_views += outcome.peak_global_views;
        metrics.detected_final_verdicts |= outcome.detected_verdicts;
        metrics.possible_verdicts |= outcome.possible_verdicts;
        for (agg, slice) in per_property.iter_mut().zip(&outcome.per_property) {
            agg.monitor_tokens += slice.monitor_tokens;
            agg.global_views += slice.global_views;
            agg.peak_global_views += slice.peak_global_views;
            agg.detected_verdicts |= slice.detected_verdicts;
            agg.possible_verdicts |= slice.possible_verdicts;
        }
    }
    for agg in &mut per_property {
        agg.verdict = combined_verdict(&agg.detected_verdicts);
    }
    metrics.fleet_per_property = per_property;
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::PaperProperty;
    use dlrv_ltl::Verdict;

    #[test]
    fn throughput_run_produces_streaming_metrics() {
        let params = StreamParams::sized(20, 3);
        let config = ExperimentConfig {
            events_per_process: 5,
            seeds: vec![1],
            ..ExperimentConfig::paper_default(PaperProperty::B, 2)
        };
        let result = run_streamed(&config, &params, None, MonitorOptions::default());
        let m = &result.avg;
        assert!(m.total_events > 0);
        assert!(m.wall_clock_secs > 0.0);
        assert!(m.events_per_sec > 0.0);
        assert_eq!(m.per_shard.len(), 3);
        let shard_events: usize = m.per_shard.iter().map(|s| s.events_processed).sum();
        assert_eq!(shard_events, m.total_events);
        let opened: usize = m.per_shard.iter().map(|s| s.sessions_opened).sum();
        assert_eq!(opened, params.n_sessions);
        // A solo run carries no fleet fields.
        assert_eq!(m.fleet_size, 0);
        assert!(m.fleet_per_property.is_empty());
        // The workload's goal tail satisfies reachability property B in
        // every session.
        assert!(result.detected_verdicts.contains(&Verdict::True));
    }

    #[test]
    fn session_seeds_do_not_collide_across_runs() {
        let mut seen = std::collections::BTreeSet::new();
        for run_seed in 1..=3u64 {
            for s in 0..100u64 {
                assert!(
                    seen.insert(session_seed(run_seed, s)),
                    "collision at run {run_seed}, session {s}"
                );
            }
        }
    }
}
