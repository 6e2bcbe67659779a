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
///
/// Each process's events are already in time order (the simulator records them as
/// they happen), so this is a k-way merge of the per-process lists; it equals a
/// full `(time, process, sn)` sort of all events.
pub fn timestamp_order(comp: &Computation) -> Vec<(f64, ProcessId, u64)> {
    debug_assert!(
        comp.events.iter().all(|events| events
            .windows(2)
            .all(|w| w[0].time.total_cmp(&w[1].time).is_le())),
        "every process's event times must be nondecreasing"
    );
    let mut next = vec![0usize; comp.events.len()];
    let mut order = Vec::with_capacity(comp.n_events());
    loop {
        // The earliest head; a tie goes to the lower process.
        let mut earliest: Option<(f64, ProcessId)> = None;
        for (p, events) in comp.events.iter().enumerate() {
            if let Some(e) = events.get(next[p]) {
                if earliest.is_none_or(|(time, _)| e.time.total_cmp(&time).is_lt()) {
                    earliest = Some((e.time, p));
                }
            }
        }
        let Some((time, p)) = earliest else {
            return order;
        };
        order.push((time, p, comp.events[p][next[p]].sn));
        next[p] += 1;
    }
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
        session.feed_event(&comp.events[p][(sn - 1) as usize]);
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

    /// The reference order: every event, fully sorted by `(time, process, sn)`.
    fn full_sort(comp: &Computation) -> Vec<(f64, ProcessId, u64)> {
        let mut all: Vec<(f64, ProcessId, u64)> = Vec::new();
        for (p, events) in comp.events.iter().enumerate() {
            for e in events {
                all.push((e.time, p, e.sn));
            }
        }
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        all
    }

    #[test]
    fn timestamp_order_equals_a_full_sort_on_simulator_computations() {
        use dlrv_distsim::{run_simulation, NullMonitor, SimConfig};
        use dlrv_trace::{generate_workload, CommTopology, WorkloadConfig};
        for n in 2..=5 {
            let mut reg = AtomRegistry::new();
            for i in 0..n {
                reg.intern(&format!("P{i}.p"), i);
                reg.intern(&format!("P{i}.q"), i);
            }
            for seed in 1..=4 {
                let configs = [
                    ("broadcast", WorkloadConfig::paper_default(n, seed)),
                    (
                        "ring",
                        WorkloadConfig::with_topology(n, CommTopology::Ring, seed),
                    ),
                    (
                        "hotspot",
                        WorkloadConfig::with_topology(n, CommTopology::Hotspot { hub: 0 }, seed),
                    ),
                    ("no-comm", WorkloadConfig::comm_sweep(n, None, seed)),
                ];
                for (topology, config) in configs {
                    let report = run_simulation(
                        &generate_workload(&config),
                        &reg,
                        &SimConfig::default(),
                        |_| NullMonitor::default(),
                    );
                    let comp = &report.computation;
                    assert_eq!(
                        timestamp_order(comp),
                        full_sort(comp),
                        "{topology}, n = {n}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn timestamp_order_equals_a_full_sort_on_the_running_example_and_on_ties() {
        use dlrv_ltl::Assignment;
        use dlrv_vclock::{Event, EventKind, VectorClock};
        let (comp, _) = running_example();
        assert_eq!(timestamp_order(&comp), full_sort(&comp), "running example");
        // Equal times across and within processes: the lower process goes first,
        // and a process's own events keep their sequence order.
        let mut comp = Computation::new(vec![Assignment::ALL_FALSE; 3]);
        for (process, times) in [
            (0, [1.0, 2.0, 2.0]),
            (1, [0.5, 2.0, 3.0]),
            (2, [2.0, 2.0, 2.0]),
        ] {
            for (k, time) in times.into_iter().enumerate() {
                let mut entries = vec![0; 3];
                entries[process] = k as u64 + 1;
                comp.push(Event {
                    process,
                    kind: EventKind::Internal,
                    sn: k as u64 + 1,
                    vc: VectorClock::from_entries(entries),
                    state: Assignment::ALL_FALSE,
                    time,
                });
            }
        }
        assert_eq!(timestamp_order(&comp), full_sort(&comp), "ties");
        let order: Vec<(ProcessId, u64)> = timestamp_order(&comp)
            .into_iter()
            .map(|(_, p, sn)| (p, sn))
            .collect();
        assert_eq!(
            order,
            [
                (1, 1),
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (2, 1),
                (2, 2),
                (2, 3),
                (1, 3)
            ]
        );
    }

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
