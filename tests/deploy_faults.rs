//! Soundness of the real-socket deployment under injected transport faults.
//!
//! The deploy runtime (`run_deploy` + one `monitord` OS process per monitor) must
//! produce **identical verdicts** to the in-process replay driver of the same
//! seeded computation — that is the multi-process sibling of the streaming
//! equivalence anchor.  The fault matrix pins where that guarantee survives:
//!
//! * **clean**, **delay**, **duplicate** and **reorder** channels are *sound*:
//!   the quiescence barrier delivers every surviving frame between consecutive
//!   events, duplicates are suppressed by per-channel sequence numbers before
//!   they reach the monitor, and reordering can only permute one event's message
//!   burst — verdict sets match the baseline exactly, per seed, detected and
//!   possible alike.
//! * **frame loss** (`drop=1`) genuinely removes lattice exploration and is an
//!   *expected divergence*: monitors stop hearing about remote events, so
//!   detected verdicts can only shrink.  The test asserts the loss explicitly —
//!   deployed detections stay a subset of the baseline and at least one paper
//!   property demonstrably loses a verdict.

use dlrv::dlrv_ltl::Verdicts;
use dlrv::dlrv_monitor::{replay_decentralized, MonitorOptions};
use dlrv::dlrv_net::FaultSpec;
use dlrv::{
    run_deploy, simulate_session, CompiledProperty, DeployParams, DeployTransport,
    ExperimentConfig, PaperProperty,
};

/// Points the orchestrator at the `monitord` binary Cargo built for this test run.
fn use_built_monitord() {
    std::env::set_var("DLRV_MONITORD_BIN", env!("CARGO_BIN_EXE_monitord"));
}

/// A small deploy-sized experiment: short traces keep each fleet run fast while
/// still exchanging enough tokens for faults to bite.
fn deploy_config(property: PaperProperty, seeds: Vec<u64>) -> ExperimentConfig {
    ExperimentConfig {
        events_per_process: 5,
        seeds,
        ..ExperimentConfig::paper_default(property, 3)
    }
}

/// The in-process baseline: replay the same seeded computation through the
/// `FeedSession` driver and return (detected, possible) verdict sets.
fn baseline(config: &ExperimentConfig, seed: u64) -> (Verdicts, Verdicts) {
    let compiled = CompiledProperty::compile(&config.property, config.n_processes);
    let session = simulate_session(&config.workload_config(seed), &compiled.registry);
    let replay = replay_decentralized(
        &session.report.computation,
        &compiled.registry,
        &compiled.automaton,
        MonitorOptions::default(),
    );
    (replay.detected_final_verdicts(), replay.possible_verdicts())
}

/// Runs `config` through a real process fleet under `fault` and compares every
/// seed's verdict sets against the in-process baseline.
fn assert_verdicts_match_baseline(
    property: PaperProperty,
    transport: DeployTransport,
    fault: Option<FaultSpec>,
    label: &str,
) {
    let config = deploy_config(property, vec![1]);
    let params = DeployParams { transport, fault };
    let outcome = run_deploy(&config, MonitorOptions::default(), &params)
        .unwrap_or_else(|e| panic!("{property:?} [{label}]: deploy failed: {e}"));
    for (i, &seed) in config.seeds.iter().enumerate() {
        let (detected, possible) = baseline(&config, seed);
        let deployed = &outcome.result.per_seed[i];
        assert_eq!(
            deployed.detected_final_verdicts, detected,
            "{property:?} [{label}] seed {seed}: detected verdicts diverge"
        );
        assert_eq!(
            deployed.possible_verdicts, possible,
            "{property:?} [{label}] seed {seed}: possible verdicts diverge"
        );
    }
}

#[test]
fn clean_channels_reproduce_in_process_verdicts_for_every_property() {
    use_built_monitord();
    for property in PaperProperty::ALL {
        // Alternate the two socket families so both carry every code path.
        let transport = if (property as usize).is_multiple_of(2) {
            DeployTransport::Unix
        } else {
            DeployTransport::Tcp
        };
        assert_verdicts_match_baseline(property, transport, None, "clean");
    }
}

#[test]
fn sound_faults_preserve_verdicts_for_every_property() {
    use_built_monitord();
    // All three soundness-preserving faults at once, aggressively: every channel
    // delays 1 ms, duplicates ~30% and holds back ~30% of its frames.
    let fault = FaultSpec::parse("delay=1,dup=0.3,reorder=0.3,seed=5").expect("valid spec");
    for property in PaperProperty::ALL {
        assert_verdicts_match_baseline(property, DeployTransport::Unix, Some(fault), "sound mix");
    }
}

#[test]
fn each_sound_fault_kind_preserves_verdicts_in_isolation() {
    use_built_monitord();
    // Every fault kind runs on property C — the paper's message-overhead worst
    // case at 3 processes — at its maximum setting, so each sees the densest
    // token traffic.  dup=1 in particular exercises the daemon's sequence-number
    // suppression: without it, every duplicate's responses would be re-duplicated
    // and traffic would amplify geometrically instead of quiescing.
    for (property, label, spec) in [
        (PaperProperty::C, "delay", "delay=2"),
        (PaperProperty::C, "dup", "dup=1"),
        (PaperProperty::C, "reorder", "reorder=1"),
    ] {
        let fault = FaultSpec::parse(spec).expect("valid spec");
        assert_verdicts_match_baseline(property, DeployTransport::Unix, Some(fault), label);
    }
}

#[test]
fn repeated_runs_of_one_cell_agree_under_fast_polling() {
    use_built_monitord();
    // The orchestrator waits on its sockets, so the reads of a barrier round follow
    // each other as fast as the daemons answer.  The criterion never leaned on the
    // old sleeps (two identical balanced rounds bracket an instant of quiescence,
    // docs/DEPLOYMENT.md), but they did hide timing: ten runs of one cell, on clean
    // channels and with every frame 2 ms late, must report the same verdicts and
    // the same message count.
    let config = deploy_config(PaperProperty::C, vec![1]);
    for fault in [None, Some(FaultSpec::parse("delay=2").expect("valid spec"))] {
        let params = DeployParams {
            transport: DeployTransport::Unix,
            fault,
        };
        let runs: Vec<_> = (0..10)
            .map(|i| {
                let outcome = run_deploy(&config, MonitorOptions::default(), &params)
                    .unwrap_or_else(|e| panic!("run {i} [{fault:?}]: deploy failed: {e}"));
                let run = &outcome.result.per_seed[0];
                (
                    run.monitor_messages,
                    run.detected_final_verdicts,
                    run.possible_verdicts,
                )
            })
            .collect();
        let (detected, possible) = baseline(&config, 1);
        assert_eq!(
            (&runs[0].1, &runs[0].2),
            (&detected, &possible),
            "[{fault:?}] verdicts"
        );
        assert!(
            runs[0].0 > 0,
            "fixture too weak: property C exchanged no message"
        );
        assert!(
            runs.iter().all(|run| run == &runs[0]),
            "[{fault:?}] ten runs of one cell disagree: {runs:?}"
        );
    }
}

#[test]
fn deploy_writes_live_telemetry_artifacts() {
    use_built_monitord();
    // A unique seed keeps this run's artifact directory disjoint from the other
    // deploy tests, which may run concurrently with the env var visible.
    let dir = std::env::temp_dir().join(format!("dlrv-artifacts-{}", std::process::id()));
    std::env::set_var("DLRV_ARTIFACT_DIR", &dir);
    let config = deploy_config(PaperProperty::C, vec![42]);
    let outcome = run_deploy(
        &config,
        MonitorOptions::default(),
        &DeployParams::clean(DeployTransport::Unix),
    )
    .expect("deploy with artifacts enabled");
    std::env::remove_var("DLRV_ARTIFACT_DIR");

    let run_dir = dir.join("deploy-unix-seed42");
    for i in 0..config.n_processes {
        let path = run_dir.join(format!("telemetry-daemon{i}.jsonl"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing timeline {}: {e}", path.display()));
        let samples: Vec<dlrv::dlrv_net::DaemonTelemetry> = text
            .lines()
            .map(|line| {
                let json = dlrv::dlrv_json::Json::parse(line).expect("telemetry line is JSON");
                dlrv::dlrv_net::DaemonTelemetry::from_json(&json).expect("telemetry shape")
            })
            .collect();
        // The finish handler always emits one final sample, whatever the
        // event-count cadence left off at.
        assert!(!samples.is_empty(), "daemon {i} timeline must have samples");
        let last = samples.last().expect("nonempty");
        assert_eq!(last.process, i);
        assert!(
            samples
                .windows(2)
                .all(|w| w[0].events_seen <= w[1].events_seen),
            "daemon {i}: events_seen must be monotone across the timeline"
        );
    }
    assert!(
        run_dir.join("daemons.stderr.log").is_file(),
        "interleaved fleet stderr log must exist"
    );
    // The daemons' VmHWM made it into the folded run metrics.
    assert!(outcome.result.per_seed[0].peak_rss_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn total_frame_loss_is_a_pinned_divergence() {
    use_built_monitord();
    // drop=1: every inter-monitor frame vanishes.  Monitors still see their local
    // events, so nothing *wrong* is detected — but verdicts requiring remote
    // knowledge are lost.  This is the soundness boundary of the FIFO assumption.
    let fault = FaultSpec::parse("drop=1,seed=3").expect("valid spec");
    let mut lost_somewhere = false;
    let mut baseline_detected_anything = false;
    for property in PaperProperty::ALL {
        let config = deploy_config(property, vec![1]);
        let params = DeployParams {
            transport: DeployTransport::Unix,
            fault: Some(fault),
        };
        let outcome = run_deploy(&config, MonitorOptions::default(), &params)
            .unwrap_or_else(|e| panic!("{property:?} [drop]: deploy failed: {e}"));
        assert!(
            outcome.fault_stats.dropped > 0,
            "{property:?}: the shim must actually drop frames"
        );
        assert_eq!(
            outcome.fault_stats.passed, 0,
            "{property:?}: drop=1 lets nothing through"
        );
        let (detected, _) = baseline(&config, 1);
        let deployed = &outcome.result.per_seed[0].detected_final_verdicts;
        assert!(
            deployed.is_subset(&detected),
            "{property:?}: frame loss must never *add* detections \
             (deployed {deployed:?} vs baseline {detected:?})"
        );
        baseline_detected_anything |= !detected.is_empty();
        lost_somewhere |= deployed.len() < detected.len();
    }
    assert!(
        baseline_detected_anything,
        "fixture too weak: no property detects anything in-process"
    );
    assert!(
        lost_somewhere,
        "expected at least one property to lose a detected verdict under drop=1"
    );
}
