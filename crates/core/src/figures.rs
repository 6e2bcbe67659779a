//! Table 5.1 of the thesis' evaluation chapter (Chapter 5): the size of every
//! synthesized monitor automaton.
//!
//! The measured figures have no code of their own: Figures 5.4–5.8 are the `paper`
//! family of the scenario registry and Fig. 5.9 its `comm-frequency` family, so the
//! figures and `BENCH_results.json` are the same runs.

use crate::properties::PaperProperty;
use dlrv_automaton::MonitorAutomaton;

/// Process counts evaluated by the paper.
pub const PROCESS_COUNTS: [usize; 4] = [2, 3, 4, 5];

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_counts_grow_with_processes() {
        let two = transition_counts(PaperProperty::D, 2);
        let three = transition_counts(PaperProperty::D, 3);
        assert!(three.total > two.total);
        assert_eq!(two.total, two.outgoing + two.self_loops);
        assert!(two.states >= 2);
    }
}
