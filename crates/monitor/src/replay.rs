//! A zero-latency replay driver: runs a set of monitors directly over a recorded
//! [`Computation`], delivering events in timestamp order and draining monitor messages
//! to quiescence after every step.
//!
//! This driver is the workhorse of the soundness/completeness test suite: it produces
//! the exact same event interleaving the oracle sees, removes message-latency
//! nondeterminism, and lets property-based tests compare the union of monitor verdicts
//! against the lattice oracle on thousands of random computations.

use crate::decentralized::{DecentralizedMonitor, MonitorOptions};
use crate::feed::decentralized_session;
use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::{AtomRegistry, ProcessId, Verdicts};
use dlrv_vclock::Computation;
use std::sync::Arc;

/// The result of a replay run.
#[derive(Debug)]
pub struct ReplayResult {
    /// The monitors after the run.
    pub monitors: Vec<DecentralizedMonitor>,
    /// Total number of monitor messages exchanged.
    pub monitor_messages: usize,
}

impl ReplayResult {
    /// Union of the verdicts any monitor considers possible.
    pub fn possible_verdicts(&self) -> Verdicts {
        self.monitors
            .iter()
            .fold(Verdicts::EMPTY, |set, m| set | m.possible_verdicts())
    }

    /// Union of ⊤/⊥ verdicts detected by any monitor.
    pub fn detected_final_verdicts(&self) -> Verdicts {
        self.monitors
            .iter()
            .fold(Verdicts::EMPTY, |set, m| set | m.detected_final_verdicts())
    }
}

/// Merges a computation's events into one timestamp-ordered `(time, process, sn)`
/// sequence (ties broken by process id, then sequence number, which respects each
/// process's local order).  This is the canonical delivery order of both the replay
/// driver and the streaming runtime's session feeds.
pub fn timestamp_order(comp: &Computation) -> Vec<(f64, ProcessId, u64)> {
    let mut all: Vec<(f64, ProcessId, u64)> = Vec::new();
    for (p, events) in comp.events.iter().enumerate() {
        for e in events {
            all.push((e.time, p, e.sn));
        }
    }
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    all
}

/// Replays `comp` through freshly created decentralized monitors for `automaton`.
///
/// Implemented as an incremental [`FeedSession`](crate::feed::FeedSession) fed the
/// computation's events in [`timestamp_order`], so the offline path and the online
/// (streamed) path are the same code driving the same monitors.
pub fn replay_decentralized(
    comp: &Computation,
    registry: &Arc<AtomRegistry>,
    automaton: &Arc<MonitorAutomaton>,
    opts: MonitorOptions,
) -> ReplayResult {
    let n = comp.n_processes();
    let initial_gstate = comp.global_state(&vec![0; n], registry);
    let mut session = decentralized_session(n, automaton, registry, initial_gstate, opts);
    for (_, p, sn) in timestamp_order(comp) {
        session.feed_owned(comp.events[p][(sn - 1) as usize].clone());
    }
    session.finish();
    let monitor_messages = session.monitor_messages();
    ReplayResult {
        monitors: session.into_monitors(),
        monitor_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::{Formula, Verdict};
    use dlrv_vclock::fixtures::running_example;

    #[test]
    fn replay_on_running_example_detects_interleaving_violation() {
        // G !(x1>=5 && !(x2>=15)): violated on paths where x1 reaches 5 before x2
        // reaches 15 — exactly the concurrency the decentralized monitor must explore.
        let (comp, mut reg) = running_example();
        let a0 = reg.lookup("x1>=5").unwrap();
        let a1 = reg.lookup("x2>=15").unwrap();
        let phi = Formula::globally(Formula::not(Formula::and(
            Formula::Atom(a0),
            Formula::not(Formula::Atom(a1)),
        )));
        let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
        let registry = Arc::new(std::mem::take(&mut reg));
        let result = replay_decentralized(&comp, &registry, &automaton, MonitorOptions::default());
        // The violating interleaving must be discovered by some monitor...
        assert!(
            result.detected_final_verdicts().contains(&Verdict::False),
            "the concurrent violation must be detected: {:?}",
            result.possible_verdicts()
        );
        // ...and the non-violating interleaving must also remain possible.
        assert!(result.possible_verdicts().contains(&Verdict::Unknown));
        assert!(result.monitor_messages > 0, "exploration requires tokens");
    }

    #[test]
    fn replay_without_communication_detects_concurrent_conjunction() {
        use dlrv_ltl::Assignment;
        use dlrv_vclock::{Event, EventKind, VectorClock};
        // Two processes, no program messages.  P0 raises a at t=1, P1 raises b at t=5.
        // F (a && b) is ⊤-reachable only through the concurrent cut {a=1,b=1}.
        let mut reg = AtomRegistry::new();
        let a = reg.intern("P0.p", 0);
        let b = reg.intern("P1.p", 1);
        let mut comp = Computation::new(vec![Assignment::ALL_FALSE, Assignment::ALL_FALSE]);
        comp.push(Event {
            process: 0,
            kind: EventKind::Internal,
            sn: 1,
            vc: VectorClock::from_entries(vec![1, 0]),
            state: Assignment::from_true_atoms([a]),
            time: 1.0,
        });
        comp.push(Event {
            process: 1,
            kind: EventKind::Internal,
            sn: 1,
            vc: VectorClock::from_entries(vec![0, 1]),
            state: Assignment::from_true_atoms([b]),
            time: 5.0,
        });
        let phi = Formula::eventually(Formula::and(Formula::Atom(a), Formula::Atom(b)));
        let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
        let registry = Arc::new(reg);
        let result = replay_decentralized(&comp, &registry, &automaton, MonitorOptions::default());
        assert!(
            result.detected_final_verdicts().contains(&Verdict::True),
            "F(a && b) must be satisfied on the cut where both hold: {:?}",
            result.possible_verdicts()
        );
    }
}
