//! Smoke tests of the full experiment pipeline for every evaluation property, plus
//! property-based tests of workload/monitoring invariants.

use dlrv_core::dlrv_distsim::MonitorBehavior;
use dlrv_core::dlrv_monitor::{
    combined_verdict, decentralized_session, fleet_session, FeedSession, FleetMember,
    MonitorOptions, SessionVerdicts,
};
use dlrv_core::dlrv_vclock::Event;
use dlrv_core::{
    compile_fleet, run_experiment, simulate_session, CompiledProperty, ExperimentConfig,
    FleetParams, PaperProperty,
};
use proptest::prelude::*;

/// Feeds `session` every event and finishes it, holding the verdict each call
/// returns — read from the monitors' detections in place — to the detected sets
/// collected and combined.
fn assert_verdicts_match_the_collected_sets<B: MonitorBehavior + SessionVerdicts>(
    mut session: FeedSession<B>,
    events: &[Event],
    case: &str,
) {
    for (i, event) in events.iter().enumerate() {
        let verdict = session.feed_event(event);
        assert_eq!(
            verdict,
            combined_verdict(&session.detected_verdicts()),
            "{case}, event {i}"
        );
    }
    let verdict = session.finish();
    assert_eq!(
        verdict,
        combined_verdict(&session.detected_verdicts()),
        "{case}, finish"
    );
}

#[test]
fn a_fed_session_reports_the_verdict_of_its_collected_detections() {
    const N: usize = 3;
    const SESSIONS: u64 = 12;
    let options = [MonitorOptions::default(), MonitorOptions::ALL_OFF];
    for property in PaperProperty::ALL {
        let compiled = CompiledProperty::compile(&property.into(), N);
        let config = ExperimentConfig {
            events_per_process: 5,
            ..ExperimentConfig::paper_default(property, N)
        };
        for seed in 0..SESSIONS {
            let input = simulate_session(&config.workload_config(seed), &compiled.registry);
            for opts in options {
                let session = decentralized_session(
                    N,
                    &compiled.automaton,
                    &compiled.registry,
                    input.initial_state,
                    opts,
                );
                let case = format!("{property} solo, seed {seed}, {opts:?}");
                assert_verdicts_match_the_collected_sets(session, &input.events, &case);
            }
        }
    }

    // A–F as one fleet over the lead property's traces, as `fleet-6` runs them.
    let fleet = FleetParams::new(PaperProperty::ALL.iter().map(|&p| p.into()).collect());
    let (registry, members) = compile_fleet(&fleet, N);
    let config = ExperimentConfig {
        events_per_process: 5,
        ..ExperimentConfig::paper_default(PaperProperty::A, N)
    };
    for seed in 0..SESSIONS {
        let input = simulate_session(&config.workload_config(seed), &registry);
        let members: Vec<FleetMember> = members
            .iter()
            .map(|m| FleetMember {
                automaton: m.automaton.clone(),
                registry: registry.clone(),
                initial_state: input.initial_state,
            })
            .collect();
        for opts in options {
            let case = format!("A–F fleet, seed {seed}, {opts:?}");
            assert_verdicts_match_the_collected_sets(
                fleet_session(N, &members, opts),
                &input.events,
                &case,
            );
        }
    }
}

#[test]
fn every_paper_property_runs_end_to_end_on_three_processes() {
    for property in PaperProperty::ALL {
        let result = run_experiment(&ExperimentConfig::small(property, 3));
        assert!(
            result.avg.total_events > 0,
            "{property}: no events recorded"
        );
        assert!(result.avg.program_time > 0.0);
        assert!(
            result.avg.total_global_views >= 3,
            "{property}: each monitor starts with one global view"
        );
        // Monitoring must terminate with bounded view counts (merging keeps them small).
        assert!(
            result.avg.total_global_views <= 50 * 3,
            "{property}: global views exploded: {}",
            result.avg.total_global_views
        );
    }
}

#[test]
fn reachability_properties_produce_fewer_messages_than_until_properties() {
    // The paper observes that properties B and E (single outgoing transition) have
    // sub-linear message growth compared to A/C/D/F.
    let b = run_experiment(&ExperimentConfig::small(PaperProperty::B, 4));
    let d = run_experiment(&ExperimentConfig::small(PaperProperty::D, 4));
    assert!(
        b.avg.monitor_messages <= d.avg.monitor_messages,
        "B ({}) should not need more messages than D ({})",
        b.avg.monitor_messages,
        d.avg.monitor_messages
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Monitoring messages stay within a linear envelope of the number of events —
    /// the paper's headline claim (no communication explosion).
    #[test]
    fn message_overhead_is_linear_in_events(seed in 1u64..500, n in 2usize..4) {
        let cfg = ExperimentConfig {
            seeds: vec![seed],
            events_per_process: 8,
            ..ExperimentConfig::paper_default(PaperProperty::C, n)
        };
        let result = run_experiment(&cfg);
        let events = result.avg.total_events.max(1);
        // Generous linear bound: a handful of messages per event per process.
        prop_assert!(
            result.avg.monitor_messages <= 8 * events * n,
            "messages {} exceed linear envelope for {} events on {} processes",
            result.avg.monitor_messages, events, n
        );
    }

    /// The experiment runner is deterministic for a fixed seed: two runs serialize
    /// to the same result (host-side timing and RSS are not part of it).
    #[test]
    fn experiments_are_deterministic(seed in 1u64..200) {
        let cfg = ExperimentConfig {
            seeds: vec![seed],
            events_per_process: 6,
            ..ExperimentConfig::paper_default(PaperProperty::B, 3)
        };
        let r1 = run_experiment(&cfg);
        let r2 = run_experiment(&cfg);
        prop_assert_eq!(r1.avg.to_json(), r2.avg.to_json());
        prop_assert_eq!(r1.detected_verdicts, r2.detected_verdicts);
    }
}
