//! What a live decentralized session costs in heap, per fed event.
//!
//! Chapter 5 of the paper counts memory among the overheads of decentralized
//! monitoring, and a stream runtime holds thousands of sessions open at once, so the
//! bytes a session keeps per event it has seen are a budget, pinned here with a
//! counting allocator: a monitor keeps of each local event its clock and its state,
//! flat (`n + 1` words), plus the session's fixed set-up — no per-event allocation,
//! no per-monitor pools.  Everything a session allocates must also come back when it
//! is finished and dropped; the only thing allowed to stay is the thread's bounded
//! scratch arena.
//!
//! One `#[test]` only: the allocator counts the whole process, so a second test
//! running beside it would be counted too.

#![allow(unsafe_code)]

use dlrv::dlrv_monitor::{decentralized_session, DecentralizedSession, MonitorOptions};
use dlrv::dlrv_ltl::Assignment;
use dlrv::{simulate_session, ExperimentConfig, PaperProperty, SimulatedSession};
use dlrv_automaton::MonitorAutomaton;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes currently allocated, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc`/`realloc` above, i.e. by `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

const SESSIONS: usize = 200;
/// Live heap a session may hold per event it has been fed, set-up included.  The
/// `Arc<Event>` histories, per-view `VecDeque`s and per-monitor pools this replaced
/// held 267; the map nodes of the parked-token index and the in-flight counts, 79.
/// Measured: 68.
const BYTES_PER_EVENT: usize = 100;
/// What may stay allocated after every session is gone: late growth of the thread's
/// scratch arena, whose pools are capped at 64 small buffers each (about 25 KB once
/// they are all full, which the warm-up round below all but guarantees).
const ARENA_SLACK: usize = 8 * 1024;

/// Opens one session per input, all together, feeds them interleaved as a stream
/// would deliver them, then finishes and drops them all.  Returns the heap the live
/// sessions held just before the first `finish`, and what was still allocated after
/// the last drop — both relative to the level before the first open.
fn open_feed_finish(
    inputs: &[SimulatedSession],
    open: impl Fn(Assignment) -> DecentralizedSession,
) -> (usize, usize) {
    let longest = inputs.iter().map(|s| s.events.len()).max().unwrap_or(0);
    let mut sessions: Vec<DecentralizedSession> = Vec::with_capacity(inputs.len());
    let before = live_bytes();

    sessions.extend(inputs.iter().map(|s| open(s.initial_state)));
    for i in 0..longest {
        for (session, input) in sessions.iter_mut().zip(inputs) {
            if let Some(event) = input.events.get(i) {
                session.feed_event(event);
            }
        }
    }
    let held = live_bytes() - before;

    for session in &mut sessions {
        session.finish();
    }
    sessions.clear();
    (held, live_bytes().saturating_sub(before))
}

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
