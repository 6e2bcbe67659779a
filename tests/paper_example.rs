//! End-to-end test of the thesis' running example (Fig. 2.1, 2.2, 2.3 and 3.1),
//! spanning the LTL, automaton, vclock and monitor crates.

use dlrv_core::dlrv_automaton::MonitorAutomaton;
use dlrv_core::dlrv_ltl::{Formula, Verdict};
use dlrv_core::dlrv_monitor::{replay_decentralized, MonitorOptions};
use dlrv_core::dlrv_vclock::{fixtures::running_example, oracle_evaluate, Lattice};
use std::sync::Arc;

/// Builds ψ = G((x1≥5) → ((x2≥15) U (x1=10))) over the fixture's registry.
fn build_psi() -> (
    dlrv_core::dlrv_vclock::Computation,
    Arc<dlrv_core::dlrv_ltl::AtomRegistry>,
    Arc<MonitorAutomaton>,
) {
    let (comp, mut reg) = running_example();
    let x1ge5 = reg.lookup("x1>=5").expect("registered by running_example");
    let x2ge15 = reg.lookup("x2>=15").expect("registered by running_example");
    let x1eq10 = reg.intern("x1==10", 0);
    let psi = Formula::globally(Formula::implies(
        Formula::Atom(x1ge5),
        Formula::until(Formula::Atom(x2ge15), Formula::Atom(x1eq10)),
    ));
    let automaton = Arc::new(MonitorAutomaton::synthesize(&psi, &reg));
    (comp, Arc::new(reg), automaton)
}

#[test]
fn lattice_matches_fig_2_2b() {
    let (comp, _, _) = build_psi();
    let lattice = Lattice::build(&comp);
    // Fig. 2.2b draws 17 consistent cuts for the running example.
    assert_eq!(lattice.n_cuts(), 17);
    // All maximal paths have length |events| + 1.
    for path in lattice.enumerate_paths() {
        assert_eq!(path.len(), comp.n_events() + 1);
    }
}

#[test]
fn oracle_matches_fig_3_1_analysis() {
    // Chapter 3: for ψ, some lattice paths (those through ⟨e1_1⟩ before x2≥15) reach
    // q⊥, while path β stays at '?'.  The oracle must therefore report both ⊥ and ?.
    let (comp, reg, automaton) = build_psi();
    let lattice = Lattice::build(&comp);
    let oracle = oracle_evaluate(&comp, &lattice, &automaton, &reg);
    assert!(oracle.final_verdicts.contains(&Verdict::False));
    assert!(oracle.final_verdicts.contains(&Verdict::Unknown));
    assert!(
        !oracle.final_verdicts.contains(&Verdict::True),
        "ψ can never be satisfied finitely"
    );
    assert!(oracle.violation_reachable);
    assert!(!oracle.satisfaction_reachable);
}

#[test]
fn monitor_automaton_matches_fig_2_3_shape() {
    // Fig. 2.3 draws q0, q1 and q⊥: two '?' states and one ⊥ trap, no ⊤ state.
    let (_, _, automaton) = build_psi();
    let unknowns = automaton
        .verdicts
        .iter()
        .filter(|v| **v == Verdict::Unknown)
        .count();
    let bots = automaton
        .verdicts
        .iter()
        .filter(|v| **v == Verdict::False)
        .count();
    let tops = automaton
        .verdicts
        .iter()
        .filter(|v| **v == Verdict::True)
        .count();
    assert_eq!(bots, 1);
    assert_eq!(tops, 0);
    assert_eq!(unknowns, 2);
}

#[test]
fn decentralized_monitors_agree_with_the_oracle_on_the_running_example() {
    let (comp, reg, automaton) = build_psi();
    let lattice = Lattice::build(&comp);
    let oracle = oracle_evaluate(&comp, &lattice, &automaton, &reg);
    let result = replay_decentralized(&comp, &reg, &automaton, MonitorOptions::default());

    // Soundness: every detected final verdict is oracle-reachable.
    for v in result.detected_final_verdicts().iter() {
        match v {
            Verdict::False => assert!(oracle.violation_reachable),
            Verdict::True => assert!(oracle.satisfaction_reachable),
            Verdict::Unknown => {}
        }
    }
    // Completeness for the violating interleaving: the oracle reaches ⊥, so must the
    // monitors.
    assert!(result.detected_final_verdicts().contains(&Verdict::False));
    // The inconclusive interleaving also stays represented.
    assert!(result.possible_verdicts().contains(&Verdict::Unknown));
}
