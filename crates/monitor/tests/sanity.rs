//! Workspace-sanity smoke test: decentralized monitors replayed on the thesis'
//! running-example computation agree with the lattice oracle.

use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::{parse, Verdict};
use dlrv_monitor::{replay_decentralized, MonitorOptions};
use dlrv_vclock::{fixtures, oracle_evaluate, Lattice};
use std::sync::Arc;

#[test]
fn replay_on_running_example_is_sound() {
    let (comp, mut registry) = fixtures::running_example();
    let formula = parse("F (P0.p & P1.p)", &mut registry).expect("parse");
    let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &registry));
    let registry = Arc::new(registry);

    let lattice = Lattice::build(&comp);
    let oracle = oracle_evaluate(&comp, &lattice, &automaton, &registry);
    let result = replay_decentralized(&comp, &registry, &automaton, MonitorOptions::default());

    if result.detected_final_verdicts().contains(&Verdict::True) {
        assert!(
            oracle.satisfaction_reachable,
            "monitors saw ⊤ the oracle cannot reach"
        );
    }
    if result.detected_final_verdicts().contains(&Verdict::False) {
        assert!(
            oracle.violation_reachable,
            "monitors saw ⊥ the oracle cannot reach"
        );
    }
    assert_eq!(result.monitors.len(), comp.n_processes());
}
