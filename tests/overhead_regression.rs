//! Regression pins for the §4.3 optimization suite (`--target overhead`).
//!
//! The paper's scalability claim is that token aggregation, global-view
//! deduplication/merging and disjunctive-candidate pruning *bound* the message and
//! memory overhead of decentralized monitoring.  These tests pin the claim as
//! inequalities on the registry's overhead A/B pairs, so a future change that
//! silently disables an optimization (or regresses its effect) fails loudly:
//!
//! * token aggregation alone strictly reduces monitoring messages on property C at
//!   4 processes — the paper's message-overhead worst case;
//! * the full suite never loses to the unoptimized baseline on messages, tokens or
//!   peak global-view memory, for any property A–F;
//! * every flag combination reports the same verdicts (the switches trade cost, not
//!   soundness);
//! * an until-property at 4 processes costs at most 1.3 monitoring messages per
//!   program event, on the simulator and replayed through `FeedSession` — the
//!   ceiling that keeps the local-first token service, the termination sweep and
//!   the one-instant end of stream from leaking away;
//! * the simulated time the monitors run on after the program (Fig 5.6's delay) of
//!   Fig 5.9's `commMu=3` cell stays below a tenth of what it was when a terminated
//!   monitor drained its backlog one token round trip per event.

use dlrv::dlrv_monitor::{replay_decentralized, MonitorOptions};
use dlrv::{
    run_experiment_with_options, simulate_session, CompiledProperty, ExperimentConfig,
    PaperProperty, ScenarioFamily, ScenarioRegistry,
};

/// The shared A/B workload of the registry's overhead pair for `property`, scaled to
/// test budget (fewer events, one seed; the trend is robust across sizes).
fn overhead_config(property: PaperProperty) -> ExperimentConfig {
    let scenario = ScenarioRegistry::standard()
        .get(&format!("overhead-{}-opts", property.name()))
        .expect("overhead pair registered")
        .clone();
    ExperimentConfig {
        events_per_process: 8,
        seeds: vec![1],
        ..scenario.config
    }
}

#[test]
fn token_aggregation_strictly_reduces_messages_on_property_c_at_4_processes() {
    let config = overhead_config(PaperProperty::C);
    let aggregation_only = MonitorOptions {
        aggregate_tokens: true,
        ..MonitorOptions::ALL_OFF
    };
    let aggregated = run_experiment_with_options(&config, aggregation_only);
    let baseline = run_experiment_with_options(&config, MonitorOptions::ALL_OFF);
    assert!(
        aggregated.avg.monitor_messages < baseline.avg.monitor_messages,
        "aggregation must strictly reduce messages on C/n4: {} vs {}",
        aggregated.avg.monitor_messages,
        baseline.avg.monitor_messages
    );
    // Aggregation repackages the same exploration into fewer envelopes; it must not
    // change what is detected.
    assert_eq!(aggregated.detected_verdicts, baseline.detected_verdicts);
}

#[test]
fn full_suite_never_loses_to_the_baseline_on_any_property() {
    for property in PaperProperty::ALL {
        let config = overhead_config(property);
        let on = run_experiment_with_options(&config, MonitorOptions::default());
        let off = run_experiment_with_options(&config, MonitorOptions::ALL_OFF);
        assert!(
            on.avg.monitor_messages <= off.avg.monitor_messages,
            "{property}: messages {} (on) vs {} (off)",
            on.avg.monitor_messages,
            off.avg.monitor_messages
        );
        assert!(
            on.avg.monitor_tokens <= off.avg.monitor_tokens,
            "{property}: tokens {} (on) vs {} (off)",
            on.avg.monitor_tokens,
            off.avg.monitor_tokens
        );
        assert!(
            on.avg.peak_global_views <= off.avg.peak_global_views,
            "{property}: peak views {} (on) vs {} (off)",
            on.avg.peak_global_views,
            off.avg.peak_global_views
        );
        assert_eq!(
            on.detected_verdicts, off.detected_verdicts,
            "{property}: optimizations must not change verdicts"
        );
    }
}

#[test]
fn every_flag_combination_reports_identical_verdicts() {
    // All 8 settings of the three §4.3 switches, on the paper's worst case: same
    // detected verdicts and same possible-verdict union as the all-off baseline.
    let config = overhead_config(PaperProperty::C);
    let baseline = run_experiment_with_options(&config, MonitorOptions::ALL_OFF);
    for opts in MonitorOptions::all_combinations() {
        let result = run_experiment_with_options(&config, opts);
        assert_eq!(
            result.detected_verdicts, baseline.detected_verdicts,
            "{opts:?}: detected verdicts diverged"
        );
        assert_eq!(
            result.avg.possible_verdicts, baseline.avg.possible_verdicts,
            "{opts:?}: possible verdicts diverged"
        );
    }
}

#[test]
fn an_until_property_costs_at_most_one_point_three_messages_per_event() {
    // The paper's headline cost on the shape of the benchmark's `stream-heavy`
    // workload: property A, 4 processes, 8 events per process, 100 sessions.  A token
    // is served everything the visited process has recorded before it moves on
    // (docs/MONITORING.md, step 3; one sequence number per hop cost 14 here), and a
    // terminated monitor sweeps a view's backlog in one batch (step 5; one round trip
    // per queued event cost 2.26 — messages take time on the simulator, so the
    // backlogs are longer than a `FeedSession`'s).  Measured: 0.954 (1.062 before
    // tokens carried the verdicts their sender knows of, §4.3.3).
    //
    // The same sessions replayed through `FeedSession` are held to the same
    // ceiling.  There every monitor learns that its process ended before any
    // termination token is delivered, as on the simulator; terminating and draining
    // one monitor at a time cost 2.103 here.  Measured: 0.941 (1.052 before tokens
    // carried verdicts).
    let config = ExperimentConfig {
        events_per_process: 8,
        seeds: (1..=100).collect(),
        ..ExperimentConfig::paper_default(PaperProperty::A, 4)
    };
    let opts = MonitorOptions::default();
    let runs = run_experiment_with_options(&config, opts).per_seed;
    let simulated = runs.iter().fold((0, 0), |(messages, events), run| {
        (messages + run.monitor_messages, events + run.total_events)
    });
    let compiled = CompiledProperty::compile(&config.property, config.n_processes);
    let replayed = config
        .seeds
        .iter()
        .fold((0, 0), |(messages, events), &seed| {
            let session = simulate_session(&config.workload_config(seed), &compiled.registry);
            let comp = &session.report.computation;
            let replay = replay_decentralized(comp, &compiled.registry, &compiled.automaton, opts);
            (
                messages + replay.monitor_messages,
                events + session.events.len(),
            )
        });
    for (substrate, (messages, events)) in [("simulator", simulated), ("replay", replayed)] {
        let per_event = messages as f64 / events as f64;
        println!(
            "{substrate}: {messages} monitor messages over {events} events: \
             {per_event:.3} per event"
        );
        assert!(
            messages > 0 && per_event <= 1.3,
            "{substrate}: {per_event:.3} monitor messages per event"
        );
    }
}

/// `monitor_extra_time` of the registry's `commfreq-mu3` scenario (Fig 5.9's
/// `commMu=3` row: property C, 4 processes, averaged over its three seeds) at the
/// commit before the termination sweep, from that commit's `experiments` binary.
const COMM_MU_3_EXTRA_TIME_BEFORE_THE_SWEEP: f64 = 2.8533333333329125;

#[test]
fn the_termination_tail_is_a_tenth_of_one_round_trip_per_queued_event() {
    // Simulated time, so exact per seed: how long the monitors keep exchanging
    // tokens after the last program event.  It was one message latency per queued
    // event per waiting view; the sweep sends a view's whole backlog at once.
    let registry = ScenarioRegistry::standard();
    let scenario = registry
        .get("commfreq-mu3")
        .expect("Fig 5.9's first row is registered");
    let tail = scenario.run().avg.monitor_extra_time;
    println!("monitor_extra_time {tail} (was {COMM_MU_3_EXTRA_TIME_BEFORE_THE_SWEEP})");
    assert!(
        tail > 0.0 && tail < COMM_MU_3_EXTRA_TIME_BEFORE_THE_SWEEP / 10.0,
        "monitor_extra_time {tail}"
    );
}

#[test]
fn overhead_metrics_are_emitted_by_the_registry_pairs() {
    // The registry members themselves (scaled down) fill the additive schema fields:
    // a run always measures tokens and a non-zero view peak (the initial view).
    for scenario in ScenarioRegistry::standard().family(ScenarioFamily::Overhead) {
        let mut scenario = scenario.clone();
        scenario.config.events_per_process = 6;
        scenario.config.seeds = vec![1];
        let avg = scenario.run().avg;
        let name = &scenario.name;
        assert!(
            avg.peak_global_views >= scenario.config.n_processes,
            "{name}"
        );
        assert!(
            avg.monitor_tokens > 0,
            "{name} explores concurrent cuts via tokens"
        );
        // Monitors send tokens and nothing else, so messages never outnumber
        // tokens — and with the suite off, where nothing is aggregated, the two
        // counts are equal.
        assert!(
            avg.monitor_messages <= avg.monitor_tokens,
            "{name}: {} messages for {} tokens",
            avg.monitor_messages,
            avg.monitor_tokens
        );
        if name.ends_with("-noopt") {
            assert_eq!(
                avg.monitor_messages, avg.monitor_tokens,
                "{name}: one message per token without aggregation"
            );
        }
    }
}
