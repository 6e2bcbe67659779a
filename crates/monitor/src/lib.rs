//! The decentralized LTL₃ runtime-verification algorithm (the paper's contribution).
//!
//! * [`decentralized`] — the token-based decentralized monitor of Chapter 4:
//!   [`DecentralizedMonitor`] (its process's part and one [`PropertyMonitor`])
//!   implements [`MonitorBehavior`](dlrv_distsim::MonitorBehavior) and can be run
//!   on either execution substrate.  Optimizations of §4.3 are switchable via
//!   [`MonitorOptions`].
//! * [`messages`] — tokens, the monitor message (one or more tokens, §4.3.1) and the
//!   parked-token index.
//! * [`global_view`] — the per-monitor exploration state.
//! * [`metrics`] — per-monitor and per-run measurements matching Chapter 5.
//! * [`replay`] — a zero-latency driver over recorded computations, used by the
//!   soundness/completeness test-suite to compare monitors against the lattice oracle.
//! * [`feed`] — the incremental feed API: a [`FeedSession`] delivers events one at a
//!   time (`feed_event(&mut self, &Event) -> Verdict`) so monitors no longer require
//!   a complete trace up front; the event is only lent — a monitor copies its clock
//!   and state into a run-length history and keeps nothing else.  The substrate of
//!   the online `dlrv-stream` runtime.
//! * [`fleet`] — fleet monitoring: a [`FleetMonitor`] holds its process's part
//!   once and one [`PropertyMonitor`] per property behind a single behavior, so N
//!   properties share one decoded event stream, one history per process and one
//!   batched token transport (see `docs/FLEET.md`).
//!
//! The §4.3 optimizations (token aggregation, global-view dedup/merge, disjunctive
//! pruning) are switchable per monitor through [`MonitorOptions`]; see
//! `docs/MONITORING.md` at the repository root for the worked walkthrough.
//!
//! # Example
//!
//! Monitor `F (P0.p ∧ P1.p)` — "eventually both processes raise `p`" — over two
//! processes whose goal states are *concurrent* (neither heard from the other), so
//! only the token exploration can witness the conjunction:
//!
//! ```
//! use dlrv_automaton::MonitorAutomaton;
//! use dlrv_ltl::{Assignment, AtomRegistry, Formula, Verdict};
//! use dlrv_monitor::{decentralized_session, MonitorOptions};
//! use dlrv_vclock::{Event, EventKind, VectorClock};
//! use std::sync::Arc;
//!
//! let mut reg = AtomRegistry::new();
//! let a = reg.intern("P0.p", 0);
//! let b = reg.intern("P1.p", 1);
//! let phi = Formula::eventually(Formula::and(Formula::Atom(a), Formula::Atom(b)));
//! let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
//! let registry = Arc::new(reg);
//!
//! let mut session =
//!     decentralized_session(2, &automaton, &registry, Assignment::ALL_FALSE,
//!                           MonitorOptions::default());
//! let event = |process, vc: Vec<u64>, state, time| Event {
//!     process, kind: EventKind::Internal, sn: 1,
//!     vc: VectorClock::from_entries(vc), state, time,
//! };
//! // P0 raises its p, then P1 raises its own — concurrently ([1,0] vs [0,1]).
//! session.feed_event(&event(0, vec![1, 0], Assignment::from_true_atoms([a]), 1.0));
//! session.feed_event(&event(1, vec![0, 1], Assignment::from_true_atoms([b]), 2.0));
//! assert_eq!(session.finish(), Verdict::True);
//! assert!(session.monitor_messages() > 0, "the witness needed token traffic");
//! ```

#![forbid(unsafe_code)]

pub mod decentralized;
pub mod feed;
pub mod fleet;
pub mod global_view;
pub mod messages;
pub mod metrics;
pub mod replay;

pub use decentralized::{DecentralizedMonitor, MonitorOptions, PropertyMonitor, MAX_CLOCK_ENTRY};
pub use feed::{
    check_next_event, combined_verdict, decentralized_session, DecentralizedSession, FeedSession,
    SessionVerdicts,
};
pub use fleet::{
    fleet_member_detected, fleet_member_metrics, fleet_member_possible, fleet_session, FleetMember,
    FleetMonitor, FleetSession,
};
pub use global_view::{GlobalView, GvState};
pub use messages::{ConjunctEval, EvalState, MonitorMsg, Token, TokenTransition};
pub use metrics::{
    verdicts_from_json, verdicts_to_json, MonitorMetrics, PropertyOutcome, RunMetrics, ShardMetrics,
};
pub use replay::{replay_decentralized, timestamp_order, ReplayResult};
