//! The centralized-monitoring baseline (§1.2.2, Fig. 1.1a).
//!
//! One designated process hosts the central monitor; every other process's monitor
//! simply forwards each local event to it.  The central monitor collects the whole
//! computation and, once every process has terminated, builds the computation lattice
//! and evaluates all paths (exactly the oracle of Chapter 3).  This baseline is what
//! the decentralized algorithm is compared against in the ablation benchmarks: it pays
//! one message per event plus the cost of central lattice exploration.

use crate::metrics::MonitorMetrics;
use dlrv_automaton::MonitorAutomaton;
use dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_ltl::{Assignment, AtomRegistry, ProcessId, Verdict};
use dlrv_vclock::{oracle_evaluate, Computation, Event, Lattice};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Messages of the centralized configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum CentralMsg {
    /// A forwarded program event.
    Event(Event),
    /// The sending process has terminated.
    Done(ProcessId),
}

/// A monitor participating in the centralized configuration.
///
/// The monitor attached to the `central` process collects events; all others
/// forward.
#[derive(Debug, Clone)]
pub struct CentralizedMonitor {
    /// The process this monitor runs at.
    pid: ProcessId,
    /// The process hosting the central collector.
    central: ProcessId,
    automaton: Arc<MonitorAutomaton>,
    registry: Arc<AtomRegistry>,
    /// Collected computation (central node only).
    computation: Computation,
    /// Which processes have signalled termination (central node only).
    done: Vec<bool>,
    /// Verdicts computed at the end (central node only).
    pub final_verdicts: BTreeSet<Verdict>,
    /// Whether a ⊥/⊤ verdict is reachable on some lattice path (central node only).
    pub violation_reachable: bool,
    /// Metrics (messages counted by the substrate; events and views counted here).
    metrics: MonitorMetrics,
    /// Size of the lattice explored by the central node (its memory overhead analogue).
    pub lattice_size: usize,
}

impl CentralizedMonitor {
    /// Creates the monitor for process `pid`; the collector lives at `central`.
    pub fn new(
        pid: ProcessId,
        n: usize,
        central: ProcessId,
        automaton: Arc<MonitorAutomaton>,
        registry: Arc<AtomRegistry>,
        initial_states: Vec<Assignment>,
    ) -> Self {
        CentralizedMonitor {
            pid,
            central,
            automaton,
            registry,
            computation: Computation::new(initial_states),
            done: vec![false; n],
            final_verdicts: BTreeSet::new(),
            violation_reachable: false,
            metrics: MonitorMetrics::default(),
            lattice_size: 0,
        }
    }

    /// True when this monitor hosts the central collector.
    pub fn is_central(&self) -> bool {
        self.pid == self.central
    }

    /// Metrics snapshot.
    pub fn metrics(&self) -> MonitorMetrics {
        self.metrics.clone()
    }

    fn record_event(&mut self, event: Event) {
        // Events may arrive out of per-process order only if channels were not FIFO;
        // the substrate guarantees FIFO, so a simple push per process is sound.
        let p = event.process;
        debug_assert_eq!(event.sn as usize, self.computation.events[p].len() + 1);
        self.computation.events[p].push(event);
    }

    fn maybe_finish(&mut self) {
        if !self.is_central() || !self.done.iter().all(|d| *d) {
            return;
        }
        let lattice = Lattice::build(&self.computation);
        self.lattice_size = lattice.n_cuts();
        let result = oracle_evaluate(&self.computation, &lattice, &self.automaton, &self.registry);
        self.final_verdicts = result.final_verdicts.clone();
        self.violation_reachable = result.violation_reachable;
        self.metrics.possible_verdicts = self.final_verdicts.clone();
        if result.violation_reachable {
            self.metrics.detected_final_verdicts.insert(Verdict::False);
        }
        if result.satisfaction_reachable {
            self.metrics.detected_final_verdicts.insert(Verdict::True);
        }
    }
}

impl MonitorBehavior for CentralizedMonitor {
    type Message = CentralMsg;

    fn on_local_event(&mut self, event: &Event, ctx: &mut MonitorContext<'_, CentralMsg>) {
        self.metrics.events_observed += 1;
        self.metrics.last_event_time = ctx.now;
        if self.is_central() {
            self.record_event(event.clone());
        } else {
            ctx.send(self.central, CentralMsg::Event(event.clone()));
            self.metrics.tokens_sent += 1;
        }
    }

    fn on_monitor_message(
        &mut self,
        _from: ProcessId,
        msg: CentralMsg,
        ctx: &mut MonitorContext<'_, CentralMsg>,
    ) {
        self.metrics.last_activity_time = ctx.now;
        match msg {
            CentralMsg::Event(e) => {
                self.metrics.tokens_received += 1;
                self.record_event(e);
            }
            CentralMsg::Done(p) => {
                self.done[p] = true;
                self.maybe_finish();
            }
        }
    }

    fn on_local_termination(&mut self, ctx: &mut MonitorContext<'_, CentralMsg>) {
        self.metrics.last_activity_time = ctx.now;
        if self.is_central() {
            self.done[self.pid] = true;
            self.maybe_finish();
        } else {
            ctx.send(self.central, CentralMsg::Done(self.pid));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_distsim::{run_simulation, SimConfig};
    use dlrv_ltl::Formula;
    use dlrv_trace::{generate_workload, WorkloadConfig};

    #[test]
    fn centralized_monitor_collects_and_evaluates() {
        let n = 3;
        let mut reg = AtomRegistry::new();
        for i in 0..n {
            reg.intern(&format!("P{i}.p"), i);
            reg.intern(&format!("P{i}.q"), i);
        }
        let atoms: Vec<_> = (0..n)
            .map(|i| Formula::Atom(reg.lookup(&format!("P{i}.p")).unwrap()))
            .collect();
        let phi = Formula::eventually(Formula::conj(atoms));
        let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
        let registry = Arc::new(reg);

        let workload = generate_workload(&WorkloadConfig {
            n_processes: n,
            events_per_process: 6,
            ..WorkloadConfig::default()
        });
        let initial_states = vec![Assignment::ALL_FALSE; n];
        let report = run_simulation(&workload, &registry, &SimConfig::default(), |i| {
            CentralizedMonitor::new(
                i,
                n,
                0,
                automaton.clone(),
                registry.clone(),
                initial_states.clone(),
            )
        });
        let central = &report.monitors[0];
        assert!(central.is_central());
        assert!(!central.final_verdicts.is_empty(), "central monitor must reach a verdict set");
        assert!(central.lattice_size > 0);
        // The goal tail forces all p propositions true, so ⊤ must be reachable.
        assert!(central.final_verdicts.contains(&Verdict::True));
        // Every non-central event costs one message.
        let forwarded: usize = (1..n).map(|i| report.computation.events[i].len()).sum();
        assert_eq!(report.monitor_messages, forwarded + (n - 1));
    }
}
