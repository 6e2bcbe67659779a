//! Data points of the thesis' evaluation chapter (Chapter 5), as the `experiments`
//! binary prints them: Table 5.1's automaton sizes, the paper sweep of
//! Figures 5.4–5.8 and the communication-frequency sweep of Fig. 5.9.
//!
//! The runs go through the scenario registry wherever a scenario of that shape is
//! registered, so the figures and `BENCH_results.json` measure the same
//! configurations.

use crate::experiment::{run_experiment, ExperimentConfig};
use crate::properties::PaperProperty;
use crate::scenario::{Scenario, ScenarioRegistry};
use dlrv_automaton::MonitorAutomaton;
use dlrv_monitor::RunMetrics;

/// Process counts evaluated by the paper.
pub const PROCESS_COUNTS: [usize; 4] = [2, 3, 4, 5];

/// Runs a registry scenario with its events-per-process overridden (the figures
/// scale the workload to their time budget) and returns the averaged metrics.
fn scenario_run(scenario: &Scenario, events_per_process: usize) -> RunMetrics {
    let mut scenario = scenario.clone();
    scenario.config.events_per_process = events_per_process;
    scenario.run().avg
}

/// One row of Table 5.1 / one series point of Fig. 5.1.
#[derive(Debug, Clone)]
pub struct TransitionRow {
    /// The property.
    pub property: PaperProperty,
    /// Number of processes.
    pub n_processes: usize,
    /// Total transitions of the synthesized monitor.
    pub total: usize,
    /// Outgoing (state-changing) transitions.
    pub outgoing: usize,
    /// Self-loop transitions.
    pub self_loops: usize,
    /// Number of automaton states.
    pub states: usize,
}

/// Synthesizes the monitor of `property` for `n` processes and reports its transition
/// statistics (Table 5.1, Fig. 5.1a/b).
pub fn transition_counts(property: PaperProperty, n: usize) -> TransitionRow {
    let (formula, registry) = property.build(n);
    let automaton = MonitorAutomaton::synthesize(&formula, &registry);
    let counts = automaton.transition_counts();
    TransitionRow {
        property,
        n_processes: n,
        total: counts.total,
        outgoing: counts.outgoing,
        self_loops: counts.self_loops,
        states: automaton.n_states(),
    }
}

/// Runs the paper-default experiment for one property / process count
/// (Figures 5.4–5.8) with a configurable number of events per process.
///
/// This is the registry scenario `paper-<property>-n<n>`.  Process counts outside
/// the registered 2–5 sweep still run — the function stays total — just as an
/// unnamed paper-default configuration.
pub fn paper_run(property: PaperProperty, n: usize, events_per_process: usize) -> RunMetrics {
    let name = format!("paper-{}-n{}", property.name(), n);
    match ScenarioRegistry::standard().get(&name) {
        Some(scenario) => scenario_run(scenario, events_per_process),
        None => {
            run_experiment(&ExperimentConfig {
                events_per_process,
                ..ExperimentConfig::paper_default(property, n)
            })
            .avg
        }
    }
}

/// Runs one point of the communication-frequency sweep of Fig. 5.9 (4 processes,
/// property C) — the registry scenario `commfreq-mu<µ>` / `commfreq-nocomm` when
/// `comm_mu` is one of the registered points, an unnamed equivalent configuration
/// otherwise (the name embeds a truncated µ, so the scenario is only used when its
/// `comm_mu` matches the request exactly).
pub fn comm_frequency_run(comm_mu: Option<f64>, events_per_process: usize) -> RunMetrics {
    let name = match comm_mu {
        Some(mu) => format!("commfreq-mu{}", mu as u64),
        None => "commfreq-nocomm".to_string(),
    };
    match ScenarioRegistry::standard().get(&name) {
        Some(scenario) if scenario.config.comm_mu == comm_mu => {
            scenario_run(scenario, events_per_process)
        }
        _ => {
            run_experiment(&ExperimentConfig {
                events_per_process,
                comm_mu,
                ..ExperimentConfig::paper_default(PaperProperty::C, 4)
            })
            .avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero the fields that measure the host rather than the algorithm: wall-clock
    /// duration, derived throughput, and the process-wide RSS high-water mark all
    /// legitimately vary between two runs of the same scenario.
    fn strip_host_measurements(mut m: RunMetrics) -> RunMetrics {
        m.wall_clock_secs = 0.0;
        m.events_per_sec = 0.0;
        m.peak_rss_bytes = 0;
        m
    }

    #[test]
    fn transition_counts_grow_with_processes() {
        let two = transition_counts(PaperProperty::D, 2);
        let three = transition_counts(PaperProperty::D, 3);
        assert!(three.total > two.total);
        assert_eq!(two.total, two.outgoing + two.self_loops);
        assert!(two.states >= 2);
    }

    #[test]
    fn scenario_run_matches_direct_execution() {
        // The registry indirection must not change what is measured, host-side
        // timing/RSS measurements aside.
        let mut scenario = ScenarioRegistry::standard().get("paper-B-n2").expect("registered").clone();
        let via_helper = strip_host_measurements(paper_run(PaperProperty::B, 2, 5));
        scenario.config.events_per_process = 5;
        let direct = strip_host_measurements(scenario.run().avg);
        assert!(direct.total_events > 0);
        assert_eq!(via_helper, direct);
    }

    #[test]
    fn paper_run_stays_total_outside_the_registry() {
        // n=6 has no `paper-*-n6` scenario; the function must fall back to the
        // equivalent unnamed configuration instead of panicking.
        let m = paper_run(PaperProperty::B, 6, 4);
        assert_eq!(m.n_processes, 6);
        assert!(m.total_events > 0);
    }

    #[test]
    fn comm_frequency_run_honors_non_registry_mu() {
        // mu=3.9 would truncate to the registered `commfreq-mu3` name; the function
        // must run the requested µ, not the name-collided scenario.
        let requested = strip_host_measurements(comm_frequency_run(Some(3.9), 4));
        let direct = strip_host_measurements(
            run_experiment(&ExperimentConfig {
                events_per_process: 4,
                comm_mu: Some(3.9),
                ..ExperimentConfig::paper_default(PaperProperty::C, 4)
            })
            .avg,
        );
        assert_eq!(requested, direct);
        // A registered point runs too, and its monitors still exchange tokens
        // without any program communication.
        let nocomm = comm_frequency_run(None, 5);
        assert!(nocomm.total_events > 0);
        assert!(nocomm.monitor_messages > 0, "monitors must exchange tokens");
    }
}
