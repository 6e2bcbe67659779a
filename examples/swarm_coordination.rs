//! Swarm-coordination scenario (the introduction's motivating domain): a squad of
//! drones must keep their formation flag up until every drone has confirmed its
//! waypoint, and all drones must eventually be ready simultaneously.
//!
//! Propositions: `P<i>.p` = "drone i is in formation", `P<i>.q` = "drone i confirmed
//! its waypoint".  The two properties monitored are
//!
//! * safety-ish:  `G ((P0.p && P1.p && P2.p && P3.p) U (P0.q && P1.q && P2.q && P3.q))`
//!   (the paper's property D), and
//! * reachability: `F (P0.q && P1.q && P2.q && P3.q)`.
//!
//! ```bash
//! cargo run --example swarm_coordination
//! ```

use dlrv_core::dlrv_trace::{generate_workload, WorkloadConfig};
use dlrv_core::{MonitoredSystem, PaperProperty};

fn main() {
    let n = 4;
    let workload = generate_workload(&WorkloadConfig {
        n_processes: n,
        events_per_process: 15,
        evt_mu: 3.0,
        evt_sigma: 1.0,
        comm_mu: Some(3.0),
        comm_sigma: 1.0,
        seed: 77,
        goal_tail_fraction: 0.25,
        // Drones start in formation (p = true) with waypoints unconfirmed (q = false),
        // so the formation-until-confirmed property is live from the start.
        initial_p: true,
        initial_q: false,
        ..WorkloadConfig::default()
    });

    println!("=== drone swarm: 4 drones, decentralized monitors ===\n");

    // Property D of the evaluation chapter: formation holds until all waypoints are
    // confirmed concurrently.
    let (formation_until_confirmed, _) = PaperProperty::D.build(n);
    let mut sys = MonitoredSystem::new(n).workload(workload.clone());
    // Build the formula against the system's own registry so atom ids line up.
    let formula = {
        let reg = sys.registry_mut();
        use dlrv_core::dlrv_ltl::Formula;
        let p = |reg: &mut dlrv_core::dlrv_ltl::AtomRegistry, i: usize| {
            Formula::Atom(
                reg.lookup(&format!("P{i}.p"))
                    .expect("interned by the workload"),
            )
        };
        let q = |reg: &mut dlrv_core::dlrv_ltl::AtomRegistry, i: usize| {
            Formula::Atom(
                reg.lookup(&format!("P{i}.q"))
                    .expect("interned by the workload"),
            )
        };
        Formula::globally(Formula::until(
            Formula::conj((0..n).map(|i| p(reg, i))),
            Formula::conj((0..n).map(|i| q(reg, i))),
        ))
    };
    let outcome = sys.property_formula(formula).run();
    println!("-- formation-until-confirmed (paper property D shape) --");
    println!(
        "  formula (4 procs)    : {}",
        formation_until_confirmed.size()
    );
    println!(
        "  monitoring messages  : {}",
        outcome.metrics.monitor_messages
    );
    println!(
        "  global views created : {}",
        outcome.metrics.total_global_views
    );
    println!(
        "  avg delayed events   : {:.2}",
        outcome.metrics.avg_delayed_events
    );
    println!(
        "  verdicts detected    : {:?}",
        outcome
            .detected_verdicts
            .iter()
            .map(|v| v.symbol())
            .collect::<Vec<_>>()
    );

    // Reachability: eventually every drone has confirmed its waypoint.
    let outcome2 = MonitoredSystem::new(n)
        .property("F (P0.q && P1.q && P2.q && P3.q)")
        .expect("valid LTL")
        .workload(workload)
        .run();
    println!("\n-- all-waypoints-confirmed (reachability) --");
    println!(
        "  monitoring messages  : {}",
        outcome2.metrics.monitor_messages
    );
    println!(
        "  global views created : {}",
        outcome2.metrics.total_global_views
    );
    println!(
        "  verdicts detected    : {:?}",
        outcome2
            .detected_verdicts
            .iter()
            .map(|v| v.symbol())
            .collect::<Vec<_>>()
    );
    if outcome2.satisfaction_detected() {
        println!("  → the swarm reached a global state where every waypoint is confirmed");
    }
}
