//! Observability must be a pure observer: with the `dlrv-obs` layer enabled,
//! every verdict and every schema-v1 metric is **byte-identical** to a run with
//! it disabled — instrumentation may time, count and trace, but never steer.
//!
//! What measures the machine rather than the algorithm (wall clock, throughput,
//! RSS) is not part of the serialized result, so the serialized forms are compared
//! as they are.

use dlrv::dlrv_monitor::MonitorOptions;
use dlrv::{run_experiment_with_options, ExperimentConfig, ExperimentResult, PaperProperty};

/// One experiment result in its serialized form.
fn serialized(result: &ExperimentResult) -> String {
    let mut out = String::new();
    out.push_str(&result.avg.to_json().to_string_pretty());
    for metrics in &result.per_seed {
        out.push('\n');
        out.push_str(&metrics.to_json().to_string_pretty());
    }
    for verdict in &result.detected_verdicts {
        out.push('\n');
        out.push_str(&format!("{verdict:?}"));
    }
    out
}

#[test]
fn enabling_observability_is_byte_invisible_in_results() {
    // Property C at 3 processes is the paper's message-overhead worst case, so
    // this run crosses every instrumented hot path: view merging, token
    // exchange, batching, and the automaton build.
    let config = ExperimentConfig {
        events_per_process: 6,
        seeds: vec![1, 2],
        ..ExperimentConfig::paper_default(PaperProperty::C, 3)
    };
    let opts = MonitorOptions::default();

    dlrv::dlrv_obs::set_enabled(false);
    let off = serialized(&run_experiment_with_options(&config, opts));

    dlrv::dlrv_obs::set_enabled(true);
    let on_result = run_experiment_with_options(&config, opts);

    // While enabled, the instrumented hot paths must actually have recorded:
    // a silent no-op instrumentation layer would pass the invariance check
    // trivially without observing anything.
    let snapshot = dlrv::dlrv_obs::registry().snapshot();
    dlrv::dlrv_obs::set_enabled(false);
    let tokens = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "monitor.tokens_sent")
        .map_or(0, |(_, v)| *v);
    assert!(tokens > 0, "enabled run must record monitor.tokens_sent");
    assert!(
        snapshot
            .histograms
            .iter()
            .any(|h| h.name == "monitor.local_event" && h.count > 0),
        "enabled run must time monitor.local_event spans"
    );

    let on = serialized(&on_result);
    assert_eq!(
        off, on,
        "observability on/off must not change any result byte"
    );
}
