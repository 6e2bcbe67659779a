//! What a live fleet session costs in heap, against the solo sessions it replaces.
//!
//! A fleet attaches one monitor per open question to every process, and what those
//! monitors share must be held once: the process's part — its recorded history,
//! termination flag, options and latest event time — is held once per process and
//! borrowed by each member for its activations, not copied per member, and the
//! fleet parks no buffer pool or regroup table of its own; nor does it hold a
//! monitor for a member decided at open, or a second one for a member asking an
//! earlier member's question.  So a `fleet-6`-shaped
//! session (paper properties A–F, three processes, four events per process) has
//! to hold clearly less than the six solo sessions monitoring the
//! same stream — pinned here with the counting allocator of `session_footprint`.
//! Before the history was shared the fleet held 1.14× the six-solo sum.  A ratio
//! alone would let a regression that inflates fleet and solos alike through, so the
//! fleet session's own live bytes are pinned too.
//!
//! One `#[test]` only: the allocator counts the whole process, so a second test
//! running beside it would be counted too.

#![allow(unsafe_code)]

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{open_feed_finish, Counting, ARENA_SLACK};
use dlrv::dlrv_monitor::{decentralized_session, fleet_session, FleetMember, MonitorOptions};
use dlrv::{
    compile_fleet, simulate_session, ExperimentConfig, FleetParams, PaperProperty, PropertySpec,
    SimulatedSession,
};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SESSIONS: usize = 400;
/// Live heap of the fleet sessions over the live heap of their solo sessions, in
/// percent.  Measured: 45.5 (4 502 / 9 903; pin 70 → 56 → 66 → 73 → 48 → 46):
/// B and F are decided at open in these sessions and hold no monitor, and A and
/// C are one formula at three processes and share one, so the fleet holds three
/// monitors per process to the solo sessions' six.  It read 47.3 (5 010 /
/// 10 598) while a token transition held its cut, `depend` and conjuncts in
/// three heap blocks beside 112 B inline, 47.3 (5 154 / 10 886) while a
/// monitor kept two unread counters, 48.8 (5 467 /
/// 11 214) before tokens carried their sender's detected verdicts, which cut
/// explorations on both sides, and 73.1 (8 202 / 11 214) with a monitor per
/// member.  The two
/// upward moves are the history records', each by its measured amount: a
/// narrower record shrinks every history, six solo sessions hold 18 histories to
/// a fleet's 3, so the solo side sheds six times the bytes while the fleet's own
/// fall too.  It read 65.2 (8 998 / 13 796) with records of `n + 2` half-width
/// (`u32`) words, 56.0 (9 537 / 17 031) with records of `n + 1` full-width
/// (`u64`) words.  It read 66.7
/// (11 745 / 17 607) while every member was a whole monitor — its own delivered
/// count, arena slot, options, termination flag and three counters its history
/// repeats — and every fleet kept a regroup table; 70.05 (13 710 / 19 572) while
/// a monitor kept a staging map, two verdict sets and an emptied in-flight buffer;
/// 70.4 while a token carried its own routing target and launch state, 62 with a
/// flat history of `n + 1` words per event, 79 while view sets, parked tokens and
/// the fleet's staging kept pool-sized buffers between activations, 78 while
/// views at ⊤/⊥ were held instead of retired, 114 with a history per member and
/// the token pool.
const FLEET_OVER_SOLOS_PERCENT: usize = 46;
/// Live heap of one fleet session, in bytes.  Measured: 4 502 (budget 15 000 →
/// 10 000 → 9 450 → 8 600 → 5 600 → 4 700), with a token transition's cut,
/// `depend` and conjuncts in one block of `u64` words and an in-flight count
/// in 8 B.  It read 5 010 with three blocks per transition and 16 B per
/// in-flight count, 5 154 while a monitor kept two unread counters, and 5 467
/// before tokens carried their
/// sender's detected verdicts, and 8 202 with a monitor per member:
/// B's, F's and a second one for A and C at each process were 1 944 B
/// (3 × 3 × 216) of the difference, and the views, parked tokens and in-flight
/// counts the second one repeated 903 B; the session's member → slot map and
/// each process's map pointer and activation time add back 112 B.
/// It read 8 640 with a parked token's vector keeping
/// spare slots, 8 998 with history records of `n + 2` half-width (`u32`) words,
/// 9 537 with records of `n + 1` full-width (`u64`) words; 11 745 while every
/// member was a whole monitor and every
/// fleet kept a regroup table; 13 710 while a monitor kept a staging map, two
/// verdict sets and an emptied in-flight buffer; 13 934 while a token carried its
/// own routing target and launch state, 14 930 with a flat history of `n + 1`
/// words per event, 24 078 with the pool-sized buffers above.
const BYTES_PER_FLEET_SESSION: usize = 4_700;

#[test]
fn live_fleet_sessions_hold_less_than_their_solo_sessions_and_give_everything_back() {
    let config = ExperimentConfig {
        events_per_process: 4,
        ..ExperimentConfig::paper_default(PaperProperty::A, 3)
    };
    let n = config.n_processes;
    let fleet = FleetParams::new(PaperProperty::ALL.map(PropertySpec::from).to_vec());
    let (registry, members) = compile_fleet(&fleet, n);
    let opts = MonitorOptions::default();
    let open_fleet = |initial_state| {
        let members: Vec<FleetMember> = members
            .iter()
            .map(|m| FleetMember {
                automaton: m.automaton.clone(),
                registry: registry.clone(),
                initial_state,
            })
            .collect();
        fleet_session(n, &members, opts)
    };
    // Member by member: live bytes add up, and the thread's arena is shared anyway.
    let open_feed_finish_solos = |inputs: &[SimulatedSession]| {
        members.iter().fold((0, 0), |(held, left), m| {
            let (h, l) = open_feed_finish(inputs, |initial_state| {
                decentralized_session(n, &m.automaton, &registry, initial_state, opts)
            });
            (held + h, left + l)
        })
    };

    let inputs: Vec<SimulatedSession> = (0..SESSIONS as u64)
        .map(|seed| simulate_session(&config.workload_config(seed), &registry))
        .collect();

    // The first round of each is the warm-up: it fills the thread's arena (and pays
    // any other first-use allocation), so the second round measures sessions only.
    open_feed_finish(&inputs, open_fleet);
    let (fleet_held, fleet_left) = open_feed_finish(&inputs, open_fleet);
    open_feed_finish_solos(&inputs);
    let (solos_held, _) = open_feed_finish_solos(&inputs);

    let percent = fleet_held * 100 / solos_held;
    let per_fleet = fleet_held / SESSIONS;
    println!(
        "{per_fleet} live bytes per fleet session, {} per six solo sessions: {percent} %",
        solos_held / SESSIONS
    );
    assert!(
        per_fleet <= BYTES_PER_FLEET_SESSION,
        "a live fleet session holds {per_fleet} bytes, budget {BYTES_PER_FLEET_SESSION}"
    );
    assert!(
        percent <= FLEET_OVER_SOLOS_PERCENT,
        "{SESSIONS} live fleet sessions hold {fleet_held} bytes, their solo sessions \
         {solos_held}: {percent} %, budget {FLEET_OVER_SOLOS_PERCENT} %"
    );
    println!("{fleet_left} bytes left after finishing and dropping every fleet session");
    assert!(
        fleet_left <= ARENA_SLACK,
        "{fleet_left} bytes still allocated after every fleet session was finished and dropped"
    );
}
