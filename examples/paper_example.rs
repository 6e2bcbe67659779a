//! The running example of the thesis (Fig. 2.1–2.3 and Fig. 3.1), end to end:
//!
//! * the two-process program `P1: send; x1=5; x1=10; recv` / `P2: recv; x2=15; x2=20;
//!   send`,
//! * its computation lattice (Fig. 2.2b),
//! * the monitor automaton for ψ = G((x1≥5) → ((x2≥15) U (x1=10))) (Fig. 2.3), and
//! * both the lattice oracle of Chapter 3 and the decentralized monitors of Chapter 4
//!   evaluating the same execution, showing that the monitors find the same verdict
//!   set the oracle does (some interleavings violate ψ, others stay inconclusive).
//!
//! ```bash
//! cargo run --example paper_example
//! ```

use dlrv_core::dlrv_automaton::{dot, MonitorAutomaton};
use dlrv_core::dlrv_ltl::Formula;
use dlrv_core::dlrv_monitor::{replay_decentralized, MonitorOptions};
use dlrv_core::dlrv_vclock::{fixtures::running_example, oracle_evaluate, Lattice};
use std::sync::Arc;

fn main() {
    let (comp, mut reg) = running_example();
    let x1ge5 = reg.lookup("x1>=5").expect("registered by running_example");
    let x2ge15 = reg.lookup("x2>=15").expect("registered by running_example");
    let x1eq10 = reg.intern("x1==10", 0);

    // ψ = G((x1>=5) -> ((x2>=15) U (x1==10)))  — the property of Fig. 2.3.
    let psi = Formula::globally(Formula::implies(
        Formula::Atom(x1ge5),
        Formula::until(Formula::Atom(x2ge15), Formula::Atom(x1eq10)),
    ));
    let automaton = Arc::new(MonitorAutomaton::synthesize(&psi, &reg));
    let registry = Arc::new(reg);

    println!("=== the thesis running example (Fig. 2.1 / 2.3 / 3.1) ===\n");
    println!("monitor automaton states     : {}", automaton.n_states());
    println!(
        "monitor automaton transitions: {}",
        automaton.transition_counts().total
    );
    println!("\nDOT rendering of the monitor automaton (Fig. 2.3):\n");
    println!("{}", dot::to_dot(&automaton, &registry, "psi"));

    // The oracle of Chapter 3: build the lattice and run every path through the
    // automaton.
    let lattice = Lattice::build(&comp);
    let oracle = oracle_evaluate(&comp, &lattice, &automaton, &registry);
    println!(
        "computation lattice nodes    : {} (Fig. 2.2b)",
        lattice.n_cuts()
    );
    println!(
        "oracle verdict set           : {:?}",
        oracle
            .final_verdicts
            .iter()
            .map(|v| v.symbol())
            .collect::<Vec<_>>()
    );
    println!(
        "violation reachable          : {}",
        oracle.violation_reachable
    );

    // The decentralized monitors of Chapter 4 on the same execution.
    let result = replay_decentralized(&comp, &registry, &automaton, MonitorOptions::default());
    println!(
        "\ndecentralized monitors' verdicts: {:?}",
        result
            .possible_verdicts()
            .iter()
            .map(|v| v.symbol())
            .collect::<Vec<_>>()
    );
    println!(
        "monitoring messages exchanged  : {}",
        result.monitor_messages
    );
    for m in &result.monitors {
        println!(
            "  monitor M{}: {} global views, detected {:?}",
            m.process_id(),
            m.views().len(),
            m.detected_final_verdicts()
                .iter()
                .map(|v| v.symbol())
                .collect::<Vec<_>>()
        );
    }
    println!(
        "\n→ As in Fig. 3.1: paths through ⟨e1_1⟩ (x1 reaches 5 while x2 < 15) violate ψ,\n  while the interleaving that raises x2 first stays inconclusive (?)."
    );
}
