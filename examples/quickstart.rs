//! Quickstart: monitor a 3-process distributed program for an LTL property with fully
//! decentralized monitors.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use dlrv_core::dlrv_trace::WorkloadConfig;
use dlrv_core::MonitoredSystem;

fn main() {
    // A system of three processes, each owning propositions P<i>.p and P<i>.q.
    // Property: "eventually every process raises its p flag at the same global state".
    let outcome = MonitoredSystem::new(3)
        .property("F (P0.p && P1.p && P2.p)")
        .expect("the property parses")
        .generate_workload(WorkloadConfig {
            events_per_process: 12,
            seed: 2024,
            ..WorkloadConfig::default()
        })
        .run();

    println!("=== decentralized runtime verification: quickstart ===");
    println!("processes           : 3");
    println!("program events      : {}", outcome.metrics.total_events);
    println!("program messages    : {}", outcome.metrics.program_messages);
    println!("monitoring messages : {}", outcome.metrics.monitor_messages);
    println!(
        "global views created: {}",
        outcome.metrics.total_global_views
    );
    println!(
        "verdicts detected   : {:?}",
        outcome
            .detected_verdicts
            .iter()
            .map(|v| v.symbol())
            .collect::<Vec<_>>()
    );
    println!(
        "possible verdicts   : {:?}",
        outcome
            .possible_verdicts
            .iter()
            .map(|v| v.symbol())
            .collect::<Vec<_>>()
    );

    // Because this run is small, we can also ask the centralized lattice oracle for
    // the ground truth and compare.
    let oracle = outcome.oracle_verdicts();
    println!(
        "oracle verdict set  : {:?}",
        oracle.iter().map(|v| v.symbol()).collect::<Vec<_>>()
    );
    if outcome.satisfaction_detected() {
        println!("→ the decentralized monitors observed satisfaction (⊤) at run time");
    }
}
