//! What a live decentralized session costs in heap, per fed event.
//!
//! Chapter 5 of the paper counts memory among the overheads of decentralized
//! monitoring, and a stream runtime holds thousands of sessions open at once, so the
//! bytes a session keeps per event it has seen are a budget, pinned here with a
//! counting allocator: a monitor keeps one record of `n + 1` words (a clock and a
//! state) per run of local events with one state and one set of remote clock
//! entries, plus the session's fixed set-up — no per-event allocation, no
//! per-monitor pools.  Everything a session allocates must also come back when it
//! is finished and dropped; the only thing allowed to stay is the thread's bounded
//! scratch arena.
//!
//! One `#[test]` only: the allocator counts the whole process, so a second test
//! running beside it would be counted too.

#![allow(unsafe_code)]

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{open_feed_finish, Counting, ARENA_SLACK};
use dlrv::dlrv_monitor::{decentralized_session, MonitorOptions};
use dlrv::{simulate_session, ExperimentConfig, PaperProperty, SimulatedSession};
use dlrv_automaton::MonitorAutomaton;
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SESSIONS: usize = 200;
/// Live heap a session may hold per event it has been fed, set-up included.  The
/// `Arc<Event>` histories, per-view `VecDeque`s and per-monitor pools this replaced
/// held 267; the map nodes of the parked-token index and the in-flight counts, 79;
/// views at ⊤/⊥ held instead of retired, 68; pool-sized view sets, parked-token
/// payloads and a session-long outbox and message queue kept between events, 64;
/// a flat history of `n + 1` words per event, 57; monitors keeping a staging map,
/// two verdict sets and an emptied in-flight buffer, 41.  Measured: 37 (budget
/// 48 → 40).
const BYTES_PER_EVENT: usize = 40;

#[test]
fn live_sessions_stay_within_the_per_event_budget_and_give_everything_back() {
    let property = PaperProperty::B;
    let config = ExperimentConfig {
        events_per_process: 10,
        ..ExperimentConfig::paper_default(property, 3)
    };
    let (formula, registry) = property.build(config.n_processes);
    let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
    let registry = Arc::new(registry);
    let open = |initial_state| {
        decentralized_session(
            config.n_processes,
            &automaton,
            &registry,
            initial_state,
            MonitorOptions::default(),
        )
    };

    let inputs: Vec<SimulatedSession> = (0..SESSIONS as u64)
        .map(|seed| simulate_session(&config.workload_config(seed), &registry))
        .collect();
    let total_events: usize = inputs.iter().map(|s| s.events.len()).sum();
    assert!(total_events >= SESSIONS * 3 * 10, "every process produces its 10 events");

    // The first round is the warm-up: it fills the thread's arena (and pays any
    // other first-use allocation), so the second round measures sessions only.
    open_feed_finish(&inputs, open);
    let (held, left) = open_feed_finish(&inputs, open);

    let per_event = held / total_events;
    println!("{held} live bytes over {total_events} fed events: {per_event} B/event");
    assert!(
        per_event <= BYTES_PER_EVENT,
        "{SESSIONS} live sessions hold {held} bytes for {total_events} events: \
         {per_event} B/event, budget {BYTES_PER_EVENT}"
    );
    println!("{left} bytes left after finishing and dropping every session");
    assert!(
        left <= ARENA_SLACK,
        "{left} bytes still allocated after every session was finished and dropped"
    );
}
