//! Workspace-sanity smoke test: monitor-automaton synthesis for the paper's
//! property A shape (`G (P0.p U P1.q)` style until under globally).

use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::{parse, AtomRegistry};

#[test]
fn property_a_synthesizes_to_a_consistent_machine() {
    let mut registry = AtomRegistry::new();
    let formula = parse("G (P0.p U P1.q)", &mut registry).expect("parse");
    let automaton = MonitorAutomaton::synthesize(&formula, &registry);
    assert!(
        automaton.n_states() >= 2,
        "monitor needs at least ⊥ and ? states"
    );
    let counts = automaton.transition_counts();
    assert!(counts.total > 0);
    assert_eq!(
        counts.total,
        counts.outgoing + counts.self_loops,
        "every transition is either outgoing or a self-loop"
    );
}
