//! What a shard keeps of a session it has closed, in heap.
//!
//! A shard appends one packed record per closed session to its log and builds no
//! outcome until shutdown, so a closed `fleet-6` session (paper properties A–F,
//! three processes) must leave about its record's 33 bytes behind.  The sessions
//! are opened the way the benchmark's resolver opens them, each with a fresh
//! `Arc<SessionSpec>`: the log names the member list of the first and keeps no
//! other spec.  Measured through a one-shard runtime with the counting allocator
//! of `session_footprint`.
//!
//! One `#[test]` only: the allocator counts the whole process, so a second test
//! running beside it would be counted too.

#![allow(unsafe_code)]

#[path = "common/counting_alloc.rs"]
#[allow(dead_code)]
mod counting_alloc;

use counting_alloc::{live_bytes, Counting};
use dlrv::dlrv_monitor::MonitorOptions;
use dlrv::dlrv_stream::{FleetMemberSpec, SessionSpec, ShardedRuntime, StreamConfig};
use dlrv::{
    compile_fleet, simulate_session, ExperimentConfig, FleetParams, PaperProperty, PropertySpec,
    SimulatedSession,
};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: usize = 100;
const SESSIONS: usize = 1000;
/// Heap a shard keeps per closed `fleet-6` session, in bytes.  Measured: 61 —
/// the packed record plus the spare capacity the log's doubling leaves, which
/// lies between none and one record's worth per record, plus what the thread's
/// arena pools gain over the measured sessions, a one-off spread over a
/// thousand of them.  It read 56 while a token transition's two cuts went back
/// to the clock pool, which the warm-up then filled; now only views' cuts do,
/// and the pool fills over the measured sessions (58 with clock pooling off).
/// It read 60 before
/// tokens carried their sender's detected verdicts, 62 (a 33 B record) with a
/// monitor per member, 451 while the
/// log kept every fleet session's spec for its member names, and 1 160 while
/// the shard kept every closed session's `SessionOutcome`.
const BYTES_PER_CLOSED_FLEET_SESSION: usize = 72;

#[test]
fn a_closed_fleet_session_leaves_only_its_record() {
    let config = ExperimentConfig {
        events_per_process: 4,
        ..ExperimentConfig::paper_default(PaperProperty::A, 3)
    };
    let n = config.n_processes;
    let fleet = FleetParams::new(PaperProperty::ALL.map(PropertySpec::from).to_vec());
    let (registry, members) = compile_fleet(&fleet, n);
    // A fresh spec per session, as a resolver building one per open makes them.
    let spec = |input: &SimulatedSession| {
        Arc::new(SessionSpec {
            n_processes: n,
            automaton: members[0].automaton.clone(),
            registry: registry.clone(),
            initial_state: input.initial_state,
            options: MonitorOptions::default(),
            fleet: members
                .iter()
                .map(|m| FleetMemberSpec {
                    property: m.name.clone(),
                    automaton: m.automaton.clone(),
                    registry: registry.clone(),
                    initial_state: input.initial_state,
                })
                .collect(),
        })
    };
    let inputs: Vec<SimulatedSession> = (0..(WARM_UP + SESSIONS) as u64)
        .map(|seed| simulate_session(&config.workload_config(seed), &registry))
        .collect();

    // One shard, one-record mailbox and batches: once a second record past a
    // session's close has been sent, the shard has taken the first, so it has
    // finished the close.  Closing an unknown session allocates nothing.
    let runtime = ShardedRuntime::start(StreamConfig {
        n_shards: 1,
        mailbox_capacity: 1,
        batch_size: 1,
        ..StreamConfig::default()
    });
    let settle = || {
        runtime.close_session(u64::MAX);
        runtime.close_session(u64::MAX);
    };
    let run = |id: usize| {
        let input = &inputs[id];
        runtime.open_session(id as u64, spec(input));
        for event in &input.events {
            runtime.feed_event(id as u64, event.clone());
        }
        runtime.close_session(id as u64);
    };

    // The first session is the warm-up: the shard's first allocations, the log's
    // first block and the list of member names.
    (0..WARM_UP).for_each(run);
    settle();
    let before = live_bytes();
    (WARM_UP..WARM_UP + SESSIONS).for_each(run);
    settle();
    let kept = live_bytes() - before;

    let per_session = kept / SESSIONS;
    println!("{per_session} bytes kept per closed fleet-6 session ({kept} for {SESSIONS})");
    assert!(
        per_session <= BYTES_PER_CLOSED_FLEET_SESSION,
        "a shard keeps {per_session} bytes per closed fleet-6 session, budget \
         {BYTES_PER_CLOSED_FLEET_SESSION}"
    );

    let report = runtime.shutdown();
    assert_eq!(report.sessions.len(), WARM_UP + SESSIONS);
    assert!(report.sessions.values().all(|o| o.per_property.len() == 6));
}
