//! Fleet/solo equivalence: monitoring N properties as one fleet — one decode,
//! batched token transport — must be **observationally
//! invisible**.  For every fleet member, across shard counts and every §4.3
//! optimization combination, the fleet's per-property verdicts and token counts
//! must equal a solo run of that member over the same wire bytes.
//!
//! This is the soundness anchor of the fleet subsystem: amortizing shared work
//! is only a perf optimization if nothing a member monitor computes changes.

use dlrv::dlrv_ltl::{Assignment, AtomRegistry};
use dlrv::dlrv_monitor::MonitorOptions;
use dlrv::dlrv_stream::{
    encode_stream_binary, interleave_sessions, FleetMemberSpec, ReaderSource, SessionOutcome,
    SessionSpec, SessionStream, ShardedRuntime, StreamConfig,
};
use dlrv::{
    compile_fleet, simulate_session, CompiledFleetMember, ExperimentConfig, FleetParams,
    PaperProperty, PropertySpec, ScenarioFamily, ScenarioRegistry, Substrate,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds a paper-letter fleet.
fn paper_fleet(letters: &[PaperProperty]) -> FleetParams {
    FleetParams::new(letters.iter().map(|&p| PropertySpec::from(p)).collect())
}

/// Generates `n_sessions` session streams against the fleet's shared registry
/// and encodes them into one binary wire stream (the canonical fleet path).
fn fleet_wire(
    config: &ExperimentConfig,
    registry: &Arc<AtomRegistry>,
    n_sessions: usize,
) -> Vec<u8> {
    let mut inputs = Vec::with_capacity(n_sessions);
    for s in 0..n_sessions {
        let session = simulate_session(&config.workload_config(1000 + s as u64), registry);
        inputs.push(SessionStream {
            session: s as u64,
            property: "fleet".to_string(),
            n_processes: config.n_processes,
            initial_state: session.initial_state.0,
            events: session.events,
        });
    }
    encode_stream_binary(&interleave_sessions(&inputs))
}

/// Pumps `bytes` once with a fleet spec over all `members`.
fn run_as_fleet(
    bytes: &[u8],
    registry: &Arc<AtomRegistry>,
    members: &[CompiledFleetMember],
    opts: MonitorOptions,
    n_shards: usize,
) -> BTreeMap<u64, SessionOutcome> {
    run_as_fleet_from(bytes, registry, members, opts, n_shards, &|_, state| state)
}

/// [`run_as_fleet`] with member `k` of every session opened in
/// `initial(k, the session's initial state)`.
fn run_as_fleet_from(
    bytes: &[u8],
    registry: &Arc<AtomRegistry>,
    members: &[CompiledFleetMember],
    opts: MonitorOptions,
    n_shards: usize,
    initial: &dyn Fn(usize, Assignment) -> Assignment,
) -> BTreeMap<u64, SessionOutcome> {
    let runtime = ShardedRuntime::start(StreamConfig {
        n_shards,
        mailbox_capacity: 8,
        batch_size: 4,
        ..StreamConfig::default()
    });
    let mut source = ReaderSource::new(bytes);
    runtime
        .pump(&mut source, &mut |open| {
            Ok(Arc::new(SessionSpec {
                n_processes: open.n_processes,
                automaton: members[0].automaton.clone(),
                registry: registry.clone(),
                initial_state: open.initial_state,
                options: opts,
                fleet: members
                    .iter()
                    .enumerate()
                    .map(|(k, m)| FleetMemberSpec {
                        property: m.name.clone(),
                        automaton: m.automaton.clone(),
                        registry: registry.clone(),
                        initial_state: initial(k, open.initial_state),
                    })
                    .collect(),
            }))
        })
        .expect("freshly encoded stream must decode");
    runtime.shutdown().sessions
}

/// Pumps `bytes` once monitoring only `member` (the solo baseline).
fn run_as_solo(
    bytes: &[u8],
    registry: &Arc<AtomRegistry>,
    member: &CompiledFleetMember,
    opts: MonitorOptions,
    n_shards: usize,
) -> BTreeMap<u64, SessionOutcome> {
    run_as_solo_from(bytes, registry, member, opts, n_shards, &|state| state)
}

/// [`run_as_solo`] with every session opened in `initial(its initial state)`.
fn run_as_solo_from(
    bytes: &[u8],
    registry: &Arc<AtomRegistry>,
    member: &CompiledFleetMember,
    opts: MonitorOptions,
    n_shards: usize,
    initial: &dyn Fn(Assignment) -> Assignment,
) -> BTreeMap<u64, SessionOutcome> {
    let runtime = ShardedRuntime::start(StreamConfig {
        n_shards,
        mailbox_capacity: 8,
        batch_size: 4,
        ..StreamConfig::default()
    });
    let mut source = ReaderSource::new(bytes);
    runtime
        .pump(&mut source, &mut |open| {
            Ok(Arc::new(SessionSpec {
                n_processes: open.n_processes,
                automaton: member.automaton.clone(),
                registry: registry.clone(),
                initial_state: initial(open.initial_state),
                options: opts,
                fleet: Vec::new(),
            }))
        })
        .expect("freshly encoded stream must decode");
    runtime.shutdown().sessions
}

/// Asserts, session by session, that fleet member `k` matches its solo run.
fn assert_member_matches(
    fleet: &BTreeMap<u64, SessionOutcome>,
    solo: &BTreeMap<u64, SessionOutcome>,
    k: usize,
    tag: &str,
) {
    assert_eq!(fleet.len(), solo.len(), "{tag}: session counts diverge");
    for (session, solo_outcome) in solo {
        let member = &fleet[session].per_property[k];
        assert_eq!(
            member.detected_verdicts, solo_outcome.detected_verdicts,
            "{tag}, member {k}, session {session}: detected verdicts diverge"
        );
        assert_eq!(
            member.possible_verdicts, solo_outcome.possible_verdicts,
            "{tag}, member {k}, session {session}: possible verdicts diverge"
        );
        assert_eq!(
            member.verdict, solo_outcome.verdict,
            "{tag}, member {k}, session {session}: combined verdicts diverge"
        );
        assert_eq!(
            member.monitor_tokens, solo_outcome.monitor_tokens,
            "{tag}, member {k}, session {session}: token counts diverge"
        );
        assert_eq!(
            member.global_views, solo_outcome.global_views,
            "{tag}, member {k}, session {session}: view counts diverge"
        );
        assert_eq!(
            member.peak_global_views, solo_outcome.peak_global_views,
            "{tag}, member {k}, session {session}: peak view counts diverge"
        );
    }
}

#[test]
fn fleet_members_equal_solo_runs_for_every_flag_combination() {
    // The §4.3 ablation over the fleet: every optimization combination (token
    // aggregation changes how fleet tokens share messages; view dedup and
    // pruning change per-member internals) crossed with 1, 2 and 4 shards.  Properties A, B and C share the p-atoms, so the shared registry
    // path is genuinely exercised.
    let fleet = paper_fleet(&[PaperProperty::A, PaperProperty::B, PaperProperty::C]);
    let config = ExperimentConfig {
        events_per_process: 6,
        ..ExperimentConfig::paper_default(PaperProperty::A, 3)
    };
    let (registry, members) = compile_fleet(&fleet, config.n_processes);
    let bytes = fleet_wire(&config, &registry, 4);

    for opts in MonitorOptions::all_combinations() {
        for n_shards in [1usize, 2, 4] {
            let tag = format!("{opts:?}, {n_shards} shards");
            let fleet_sessions = run_as_fleet(&bytes, &registry, &members, opts, n_shards);
            for (k, member) in members.iter().enumerate() {
                let solo = run_as_solo(&bytes, &registry, member, opts, n_shards);
                assert_member_matches(&fleet_sessions, &solo, k, &tag);
            }
        }
    }
}

#[test]
fn six_property_fleet_equals_solo_runs() {
    // The headline shape: all six paper properties monitored at once.  Default
    // options, every shard count the BENCH scenarios use.
    let fleet = paper_fleet(&PaperProperty::ALL);
    let config = ExperimentConfig {
        events_per_process: 6,
        ..ExperimentConfig::paper_default(PaperProperty::A, 3)
    };
    let (registry, members) = compile_fleet(&fleet, config.n_processes);
    let bytes = fleet_wire(&config, &registry, 6);

    for n_shards in [1usize, 4] {
        let tag = format!("A-F fleet, {n_shards} shards");
        let fleet_sessions = run_as_fleet(
            &bytes,
            &registry,
            &members,
            MonitorOptions::default(),
            n_shards,
        );
        // Every session carries all six per-property slices, in member order.
        for outcome in fleet_sessions.values() {
            assert_eq!(outcome.per_property.len(), 6, "{tag}");
        }
        let names: Vec<&str> = fleet_sessions[&0]
            .per_property
            .iter()
            .map(|p| p.property.as_str())
            .collect();
        assert_eq!(names, ["A", "B", "C", "D", "E", "F"], "{tag}");
        for (k, member) in members.iter().enumerate() {
            let solo = run_as_solo(
                &bytes,
                &registry,
                member,
                MonitorOptions::default(),
                n_shards,
            );
            assert_member_matches(&fleet_sessions, &solo, k, &tag);
        }
    }
}

#[test]
fn registry_fleet_scenarios_equal_solo_runs() {
    // Every `--target fleet` scenario on its own shape: its members, its options
    // (the `-noopt` ablation included), its shard count, its workload shape and
    // its session count.
    let registry = ScenarioRegistry::standard();
    let mut scenarios = 0;
    for scenario in registry.family(ScenarioFamily::Fleet) {
        let Substrate::Fleet(stream, fleet) = &scenario.substrate else {
            panic!("a fleet scenario is streamed and has members")
        };
        let (atoms, members) = compile_fleet(fleet, scenario.config.n_processes);
        let bytes = fleet_wire(&scenario.config, &atoms, stream.n_sessions);
        let fleet_sessions =
            run_as_fleet(&bytes, &atoms, &members, scenario.options, stream.n_shards);
        for (k, member) in members.iter().enumerate() {
            let solo = run_as_solo(&bytes, &atoms, member, scenario.options, stream.n_shards);
            assert_member_matches(&fleet_sessions, &solo, k, &scenario.name);
        }
        scenarios += 1;
    }
    assert!(
        scenarios >= 9,
        "the registry has {scenarios} fleet scenarios"
    );
}

#[test]
fn fleet_of_one_is_a_solo_run() {
    // Degenerate fleet: a single member must behave exactly like the plain
    // (non-fleet) session path, including the session-level message count.
    let fleet = paper_fleet(&[PaperProperty::D]);
    let config = ExperimentConfig {
        events_per_process: 6,
        ..ExperimentConfig::paper_default(PaperProperty::D, 3)
    };
    let (registry, members) = compile_fleet(&fleet, config.n_processes);
    let bytes = fleet_wire(&config, &registry, 3);

    let fleet_sessions = run_as_fleet(&bytes, &registry, &members, MonitorOptions::default(), 2);
    let solo = run_as_solo(&bytes, &registry, &members[0], MonitorOptions::default(), 2);
    assert_member_matches(&fleet_sessions, &solo, 0, "fleet of one");
    for (session, outcome) in &solo {
        assert_eq!(
            fleet_sessions[session].monitor_messages, outcome.monitor_messages,
            "session {session}: a fleet of one must send exactly the solo messages"
        );
        assert_eq!(
            fleet_sessions[session].events, outcome.events,
            "session {session}"
        );
    }
}

#[test]
fn one_automaton_from_two_initial_states_is_two_questions() {
    // C twice — one automaton `Arc`, one registry — but opened in two states,
    // both open for C (`P0.p` holds, `P1.p ∧ P2.p` does not).  A monitor is a
    // function of its initial state too, so the two members must not share:
    // each matches a solo run from its own state, and with aggregation off the
    // fleet sends exactly what the two solo runs send.  Opened in one state they
    // do share, and the second member's messages are not sent.
    let fleet = paper_fleet(&[PaperProperty::C, PaperProperty::C]);
    let config = ExperimentConfig {
        events_per_process: 6,
        ..ExperimentConfig::paper_default(PaperProperty::C, 3)
    };
    let (registry, members) = compile_fleet(&fleet, config.n_processes);
    assert!(Arc::ptr_eq(&members[0].automaton, &members[1].automaton));
    let atom = |name: &str| registry.lookup(name).expect("a p atom of three processes");
    let (p0, p1, p2) = (atom("P0.p"), atom("P1.p"), atom("P2.p"));
    let state_of =
        |k: usize, state: Assignment| state.with(p0, true).with(p1, k == 1).with(p2, k == 0);
    let bytes = fleet_wire(&config, &registry, 6);

    for opts in [MonitorOptions::ALL_OFF, MonitorOptions::default()] {
        let tag = format!("C from two states, {opts:?}");
        let two = run_as_fleet_from(&bytes, &registry, &members, opts, 2, &state_of);
        let solos: Vec<_> = (0..2)
            .map(|k| run_as_solo_from(&bytes, &registry, &members[k], opts, 2, &|s| state_of(k, s)))
            .collect();
        for (k, solo) in solos.iter().enumerate() {
            assert_member_matches(&two, solo, k, &tag);
        }
        if !opts.aggregate_tokens {
            let one =
                run_as_fleet_from(&bytes, &registry, &members, opts, 2, &|_, s| state_of(0, s));
            let mut sent = 0;
            for (session, outcome) in &two {
                let [first, second] = [&solos[0][session], &solos[1][session]];
                assert_eq!(
                    outcome.monitor_messages,
                    first.monitor_messages + second.monitor_messages,
                    "{tag}, session {session}: two questions send both solo runs' messages"
                );
                assert_eq!(
                    one[session].monitor_messages, first.monitor_messages,
                    "{tag}, session {session}: one question is sent once"
                );
                sent += first.monitor_messages.min(second.monitor_messages);
            }
            assert!(sent > 0, "{tag}: both solo runs must send");
        }
    }
}
