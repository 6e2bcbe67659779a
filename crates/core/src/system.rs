//! The high-level public API: build a monitored distributed system, run it, and read
//! the verdicts.
//!
//! [`MonitoredSystem`] is the entry point a downstream user would reach for: give it a
//! number of processes, an LTL property (as text or as a [`Formula`]) and a workload,
//! then call [`MonitoredSystem::run`] to execute the program with decentralized
//! monitors attached and obtain a [`MonitoringOutcome`] with verdicts, metrics and the
//! recorded computation (which can additionally be checked against the lattice oracle).

use crate::experiment::simulate_monitors;
use dlrv_automaton::MonitorAutomaton;
use dlrv_distsim::SimConfig;
use dlrv_ltl::{parse, AtomRegistry, Formula, ParseError, Verdict, Verdicts};
use dlrv_monitor::{MonitorOptions, RunMetrics};
use dlrv_trace::{generate_workload, Workload, WorkloadConfig};
use dlrv_vclock::{oracle_evaluate, Computation, Lattice};
use std::sync::Arc;

/// Builder for a monitored distributed system.
#[derive(Debug, Clone)]
pub struct MonitoredSystem {
    n_processes: usize,
    registry: AtomRegistry,
    formula: Option<Formula>,
    workload: Option<Workload>,
    options: MonitorOptions,
}

/// The result of running a monitored system.
#[derive(Debug)]
pub struct MonitoringOutcome {
    /// Union over all monitors of the ⊤/⊥ verdicts detected at runtime.
    pub detected_verdicts: Verdicts,
    /// Union over all monitors of the verdicts their global views consider possible.
    pub possible_verdicts: Verdicts,
    /// Aggregated run metrics (messages, delay, global views).
    pub metrics: RunMetrics,
    /// The recorded computation (usable with the lattice oracle).
    pub computation: Computation,
    /// The synthesized monitor automaton.
    pub automaton: Arc<MonitorAutomaton>,
    /// The atom registry.
    pub registry: Arc<AtomRegistry>,
}

impl MonitoringOutcome {
    /// True when some monitor observed a violation (⊥).
    pub fn violation_detected(&self) -> bool {
        self.detected_verdicts.contains(&Verdict::False)
    }

    /// True when some monitor observed satisfaction (⊤).
    pub fn satisfaction_detected(&self) -> bool {
        self.detected_verdicts.contains(&Verdict::True)
    }

    /// Runs the centralized lattice oracle over the recorded computation and returns
    /// its verdict set at the final cut.
    ///
    /// The lattice can be exponential in the number of processes; use on small runs.
    pub fn oracle_verdicts(&self) -> Verdicts {
        let lattice = Lattice::build(&self.computation);
        oracle_evaluate(&self.computation, &lattice, &self.automaton, &self.registry).final_verdicts
    }
}

impl MonitoredSystem {
    /// Creates a system of `n_processes` processes, each owning propositions
    /// `P<i>.p` and `P<i>.q`.
    pub fn new(n_processes: usize) -> Self {
        let mut registry = AtomRegistry::new();
        for i in 0..n_processes {
            registry.intern(&format!("P{i}.p"), i);
            registry.intern(&format!("P{i}.q"), i);
        }
        MonitoredSystem {
            n_processes,
            registry,
            formula: None,
            workload: None,
            options: MonitorOptions::default(),
        }
    }

    /// Number of processes.
    pub fn n_processes(&self) -> usize {
        self.n_processes
    }

    /// Sets the monitored property from LTL text, e.g.
    /// `"G (P0.p -> F (P1.p && P2.p))"`.
    pub fn property(mut self, ltl: &str) -> Result<Self, ParseError> {
        let formula = parse(ltl, &mut self.registry)?;
        self.formula = Some(formula);
        Ok(self)
    }

    /// Sets the monitored property from an already-built formula (its atoms must have
    /// been interned in [`MonitoredSystem::registry_mut`]).
    pub fn property_formula(mut self, formula: Formula) -> Self {
        self.formula = Some(formula);
        self
    }

    /// Mutable access to the atom registry (for building formulas programmatically).
    pub fn registry_mut(&mut self) -> &mut AtomRegistry {
        &mut self.registry
    }

    /// Sets the workload explicitly.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Generates a workload from `config` (overriding its process count).
    pub fn generate_workload(mut self, mut config: WorkloadConfig) -> Self {
        config.n_processes = self.n_processes;
        self.workload = Some(generate_workload(&config));
        self
    }

    /// Overrides the monitor optimization switches.
    pub fn monitor_options(mut self, options: MonitorOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the system on the discrete-event simulator with decentralized monitors.
    ///
    /// Panics if no property was set.  A default paper-style workload is generated if
    /// none was provided.
    pub fn run(self) -> MonitoringOutcome {
        let formula = self.formula.expect("a property must be set before running");
        let workload = self.workload.unwrap_or_else(|| {
            generate_workload(&WorkloadConfig {
                n_processes: self.n_processes,
                ..WorkloadConfig::default()
            })
        });
        let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &self.registry));
        let registry = Arc::new(self.registry);
        let (report, metrics) = simulate_monitors(
            &workload,
            &registry,
            &automaton,
            self.options,
            &SimConfig::default(),
        );
        let mut detected = Verdicts::EMPTY;
        let mut possible = Verdicts::EMPTY;
        for m in &report.monitors {
            detected |= m.detected_final_verdicts();
            possible |= m.possible_verdicts();
        }
        MonitoringOutcome {
            detected_verdicts: detected,
            possible_verdicts: possible,
            metrics,
            computation: report.computation,
            automaton,
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_end_to_end_reachability() {
        let outcome = MonitoredSystem::new(3)
            .property("F (P0.p && P1.p && P2.p)")
            .expect("valid LTL")
            .generate_workload(WorkloadConfig {
                events_per_process: 8,
                seed: 7,
                ..WorkloadConfig::default()
            })
            .run();
        // The workload's goal tail forces all p true, so satisfaction is detected.
        assert!(outcome.satisfaction_detected());
        assert!(outcome.metrics.total_events > 0);
        assert!(outcome.computation.n_events() > 0);
    }

    #[test]
    fn invalid_property_is_rejected() {
        assert!(MonitoredSystem::new(2).property("G (P0.p &&").is_err());
    }

    #[test]
    fn outcome_oracle_agrees_on_satisfaction() {
        let outcome = MonitoredSystem::new(2)
            .property("F (P0.p && P1.p)")
            .unwrap()
            .generate_workload(WorkloadConfig {
                events_per_process: 5,
                seed: 3,
                ..WorkloadConfig::default()
            })
            .run();
        let oracle = outcome.oracle_verdicts();
        assert!(oracle.contains(&Verdict::True));
        assert!(outcome.satisfaction_detected());
    }
}
