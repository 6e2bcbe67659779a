//! Online/offline equivalence: streaming a seeded workload through the sharded
//! runtime — over the wire, bytes and all — must produce **identical verdicts** to
//! the offline replay of the same trace, for every paper property and several shard
//! counts.
//!
//! This is the soundness anchor of the streaming subsystem: `ShardedRuntime` may
//! batch, interleave sessions and apply backpressure however it likes, but a
//! session's monitors must see exactly the event sequence the replay driver delivers,
//! so detected and possible verdicts (and even the token-message count) match
//! one-for-one.

use dlrv::dlrv_monitor::{replay_decentralized, MonitorOptions};
use dlrv::dlrv_stream::{
    encode_stream, encode_stream_binary, interleave_sessions, ReaderSource, SessionSpec,
    SessionStream, ShardedRuntime, StreamConfig,
};
use dlrv::{simulate_session, CompiledProperty, ExperimentConfig, PaperProperty, PropertySpec};
use dlrv_automaton::MonitorAutomaton;
use std::sync::Arc;

/// One prepared session: its wire input plus the offline baseline.
struct Baseline {
    input: SessionStream,
    detected: dlrv::dlrv_ltl::Verdicts,
    possible: dlrv::dlrv_ltl::Verdicts,
    monitor_messages: usize,
}

/// The wire formats, JSON and binary frames (`binary_wire`).  Every test sweeps
/// both against the same offline oracle: the frame format must never change
/// what a session detects.
const WIRE_FORMATS: [bool; 2] = [false, true];

/// Encodes the interleaved wire stream in the chosen frame format.
fn wire_bytes(inputs: &[SessionStream], binary_wire: bool) -> Vec<u8> {
    let records = interleave_sessions(inputs);
    if binary_wire {
        encode_stream_binary(&records)
    } else {
        encode_stream(&records)
    }
}

#[test]
fn streamed_verdicts_equal_offline_replay_for_every_flag_combination() {
    // §4.3 ablation over the wire: for every setting of the optimization switches
    // crossed with both wire formats, streaming must still match the offline
    // replay *run with the same switches* — verdict-for-verdict and token-for-token.
    // Property C at 3 processes is the paper's message-overhead worst case, so it
    // exercises every optimization.
    let property = PaperProperty::C;
    let config = ExperimentConfig {
        events_per_process: 6,
        ..ExperimentConfig::paper_default(property, 3)
    };
    let (formula, registry) = property.build(config.n_processes);
    let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
    let registry = Arc::new(registry);

    let session = simulate_session(&config.workload_config(77), &registry);
    let report = session.report;
    let input = SessionStream {
        session: 0,
        property: property.name().to_string(),
        n_processes: config.n_processes,
        initial_state: session.initial_state.0,
        events: session.events,
    };
    for opts in MonitorOptions::all_combinations() {
        let replay = replay_decentralized(&report.computation, &registry, &automaton, opts);

        for binary_wire in WIRE_FORMATS {
            let bytes = wire_bytes(std::slice::from_ref(&input), binary_wire);
            let runtime = ShardedRuntime::start(StreamConfig {
                n_shards: 2,
                mailbox_capacity: 8,
                batch_size: 4,
                ..StreamConfig::default()
            });
            let mut source = ReaderSource::new(&bytes[..]);
            runtime
                .pump(&mut source, &mut |open| {
                    Ok(Arc::new(SessionSpec {
                        n_processes: open.n_processes,
                        automaton: automaton.clone(),
                        registry: registry.clone(),
                        initial_state: open.initial_state,
                        options: opts,
                        fleet: Vec::new(),
                    }))
                })
                .expect("freshly encoded stream must decode");
            let outcome = &runtime.shutdown().sessions[&0];

            let engine = format!("binary_wire={binary_wire}");
            assert_eq!(
                outcome.detected_verdicts,
                replay.detected_final_verdicts(),
                "{opts:?}, {engine}: detected verdicts diverge"
            );
            assert_eq!(
                outcome.possible_verdicts,
                replay.possible_verdicts(),
                "{opts:?}, {engine}: possible verdicts diverge"
            );
            assert_eq!(
                outcome.monitor_messages, replay.monitor_messages,
                "{opts:?}, {engine}: message counts diverge"
            );
        }
    }
}

#[test]
fn streamed_verdicts_equal_offline_replay_for_custom_properties() {
    // The same online/offline anchor for user-supplied LTL specs: the `PropertySpec`
    // pipeline (parse → layout-bound workloads → synthesis) must stream exactly like
    // it replays, across several shard counts — custom formulas get the same
    // soundness guarantee as the paper's six.
    let specs = [
        PropertySpec::parse_named("reqack", "G(P0.req -> F P1.ack)").expect("valid LTL"),
        PropertySpec::parse_named("nested-until", "G(P0.p U (P1.p U P2.p))").expect("valid LTL"),
    ];
    let opts = MonitorOptions::default();
    for spec in &specs {
        let n_processes = spec.min_processes();
        let config = ExperimentConfig {
            events_per_process: 8,
            ..ExperimentConfig::paper_default(spec.clone(), n_processes)
        };
        let compiled = CompiledProperty::compile(spec, n_processes);
        let (automaton, registry) = (&compiled.automaton, &compiled.registry);

        let mut baselines = Vec::new();
        for (s, seed) in [7u64, 19, 31].into_iter().enumerate() {
            let session = simulate_session(&config.workload_config(seed), registry);
            let replay =
                replay_decentralized(&session.report.computation, registry, automaton, opts);
            baselines.push(Baseline {
                input: SessionStream {
                    session: s as u64,
                    property: spec.name().to_string(),
                    n_processes,
                    initial_state: session.initial_state.0,
                    events: session.events,
                },
                detected: replay.detected_final_verdicts(),
                possible: replay.possible_verdicts(),
                monitor_messages: replay.monitor_messages,
            });
        }

        let inputs: Vec<SessionStream> = baselines.iter().map(|b| b.input.clone()).collect();

        for binary_wire in WIRE_FORMATS {
            let bytes = wire_bytes(&inputs, binary_wire);
            for n_shards in [1usize, 2, 4] {
                let runtime = ShardedRuntime::start(StreamConfig {
                    n_shards,
                    mailbox_capacity: 8,
                    batch_size: 4,
                    ..StreamConfig::default()
                });
                let mut source = ReaderSource::new(&bytes[..]);
                runtime
                    .pump(&mut source, &mut |open| {
                        assert_eq!(open.property, spec.name());
                        Ok(Arc::new(SessionSpec {
                            n_processes: open.n_processes,
                            automaton: automaton.clone(),
                            registry: registry.clone(),
                            initial_state: open.initial_state,
                            options: opts,
                            fleet: Vec::new(),
                        }))
                    })
                    .expect("freshly encoded stream must decode");
                let report = runtime.shutdown();

                let tag = format!("{}, binary={binary_wire}", spec.name());
                assert_eq!(report.sessions.len(), baselines.len(), "{tag}");
                for (s, baseline) in baselines.iter().enumerate() {
                    let outcome = &report.sessions[&(s as u64)];
                    assert_eq!(
                        outcome.detected_verdicts, baseline.detected,
                        "{tag}, session {s}, {n_shards} shards: detected verdicts diverge"
                    );
                    assert_eq!(
                        outcome.possible_verdicts, baseline.possible,
                        "{tag}, session {s}, {n_shards} shards: possible verdicts diverge"
                    );
                    assert_eq!(
                        outcome.monitor_messages, baseline.monitor_messages,
                        "{tag}, session {s}, {n_shards} shards: token counts diverge"
                    );
                }
            }
        }
    }
}

#[test]
fn streamed_verdicts_equal_offline_replay_for_every_property() {
    for property in PaperProperty::ALL {
        let config = ExperimentConfig {
            events_per_process: 8,
            ..ExperimentConfig::paper_default(property, 3)
        };
        let (formula, registry) = property.build(config.n_processes);
        let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
        let registry = Arc::new(registry);

        // Per session: generate a seeded trace, record the computation, replay it
        // offline for the baseline verdicts.
        let mut baselines = Vec::new();
        for (s, seed) in [11u64, 22, 33, 44, 55].into_iter().enumerate() {
            let session = simulate_session(&config.workload_config(seed), &registry);
            let replay = replay_decentralized(
                &session.report.computation,
                &registry,
                &automaton,
                MonitorOptions::default(),
            );
            baselines.push(Baseline {
                input: SessionStream {
                    session: s as u64,
                    property: property.name().to_string(),
                    n_processes: config.n_processes,
                    initial_state: session.initial_state.0,
                    events: session.events,
                },
                detected: replay.detected_final_verdicts(),
                possible: replay.possible_verdicts(),
                monitor_messages: replay.monitor_messages,
            });
        }

        // Encode all sessions into one interleaved wire stream — the same
        // construction the streamed runner uses — once per frame format.
        let inputs: Vec<SessionStream> = baselines.iter().map(|b| b.input.clone()).collect();

        // Pump the same records in both wire formats through 1, 2 and 4 shards:
        // neither sharding nor the frame format may change any session's outcome.
        for binary_wire in WIRE_FORMATS {
            let bytes = wire_bytes(&inputs, binary_wire);
            for n_shards in [1usize, 2, 4] {
                let runtime = ShardedRuntime::start(StreamConfig {
                    n_shards,
                    mailbox_capacity: 8, // small mailbox: force the backpressure path
                    batch_size: 4,
                    ..StreamConfig::default()
                });
                let mut source = ReaderSource::new(&bytes[..]);
                runtime
                    .pump(&mut source, &mut |open| {
                        assert_eq!(open.property, property.name());
                        Ok(Arc::new(SessionSpec {
                            n_processes: open.n_processes,
                            automaton: automaton.clone(),
                            registry: registry.clone(),
                            initial_state: open.initial_state,
                            options: MonitorOptions::default(),
                            fleet: Vec::new(),
                        }))
                    })
                    .expect("freshly encoded stream must decode");
                let report = runtime.shutdown();

                let tag = format!("{property}, binary={binary_wire}");
                assert_eq!(report.sessions.len(), baselines.len(), "{tag}");
                for (s, baseline) in baselines.iter().enumerate() {
                    let outcome = &report.sessions[&(s as u64)];
                    assert_eq!(
                        outcome.detected_verdicts, baseline.detected,
                        "{tag}, session {s}, {n_shards} shards: detected verdicts diverge"
                    );
                    assert_eq!(
                        outcome.possible_verdicts, baseline.possible,
                        "{tag}, session {s}, {n_shards} shards: possible verdicts diverge"
                    );
                    assert_eq!(
                        outcome.monitor_messages, baseline.monitor_messages,
                        "{tag}, session {s}, {n_shards} shards: token counts diverge"
                    );
                    assert_eq!(
                        outcome.events,
                        baseline.input.events.len(),
                        "{tag}, session {s}"
                    );
                    assert!(!outcome.drained, "every session was explicitly closed");
                }
                assert!(
                    report.per_shard.iter().all(|m| m.routing_errors == 0),
                    "{tag}: no record may misroute"
                );
            }
        }
    }
}
