//! Smoke tests of the `experiments` CLI's property pipeline: `--property` /
//! `--property-file` runs, `--emit-dot` automaton export, the `custom` registry
//! target, and the improved error diagnostics (typo suggestions, LTL parse
//! positions).
//!
//! These drive the real binary (`CARGO_BIN_EXE_experiments`), so the full argument
//! parsing and output plumbing is covered, not just the library calls underneath.

use dlrv::dlrv_json::Json;
use dlrv::sweep_from_json;
use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn emit_dot_prints_a_scenario_automaton() {
    let out = experiments(&["--emit-dot", "paper-A-n2"]);
    assert!(out.status.success());
    let dot = String::from_utf8(out.stdout).unwrap();
    assert!(dot.starts_with("digraph"), "not DOT: {dot}");
    assert!(dot.contains("P0.p"), "guards must use atom names");
    assert!(dot.contains("->"));
    assert!(dot.trim_end().ends_with('}'));
}

#[test]
fn emit_dot_works_for_custom_scenarios_and_user_properties() {
    let out = experiments(&["--emit-dot", "custom-mutex-n2"]);
    assert!(out.status.success());
    let dot = String::from_utf8(out.stdout).unwrap();
    assert!(
        dot.contains("P0.cs"),
        "custom atoms must label the guards: {dot}"
    );

    let out = experiments(&["--property", "F(P0.p && P1.p)", "--emit-dot", "property"]);
    assert!(out.status.success());
    let dot = String::from_utf8(out.stdout).unwrap();
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("q_top"), "reachability monitor has a ⊤ state");
}

#[test]
fn property_run_emits_schema_valid_json() {
    let out = experiments(&[
        "--property",
        "G(P0.p U (P1.p && P2.p))",
        "--procs",
        "3",
        "--format",
        "json",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let records = sweep_from_json(&Json::parse(&text).expect("valid JSON")).expect("schema");
    assert_eq!(records.len(), 1);
    let record = &records[0];
    assert_eq!(record.scenario.config.n_processes, 3);
    assert_eq!(
        record.scenario.config.property.ltl_source(),
        Some("G(P0.p U (P1.p && P2.p))")
    );
    assert!(
        record.avg.total_events > 0,
        "the property must actually run"
    );
}

#[test]
fn property_file_with_headers_runs() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dlrv_prop_{}.ltl", std::process::id()));
    std::fs::write(
        &path,
        "# request-response over three processes\nname: handshake\nprocs: 3\nG(P0.req -> F (P1.ack && P2.ack))\n",
    )
    .unwrap();
    let out = experiments(&["--property-file", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("property-3p"),
        "file `procs:` header must apply: {text}"
    );
}

#[test]
fn ltl_parse_errors_report_the_offending_position() {
    let out = experiments(&["--property", "G(P0.p U"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot parse LTL property"), "{err}");
    assert!(err.contains("byte offset 8"), "position missing: {err}");
    assert!(
        err.contains("G(P0.p U"),
        "the formula must be echoed: {err}"
    );
}

#[test]
fn unknown_names_suggest_the_closest_candidate() {
    let out = experiments(&["--target", "throughputt"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean `throughput`?"), "{err}");

    let out = experiments(&["--target", "custom", "--scenario", "custom-mutex-n3"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("did you mean `custom-mutex-n2`?"), "{err}");
}

#[test]
fn custom_target_runs_the_registry_family() {
    // One fast member keeps the smoke test quick while covering the target path.
    let out = experiments(&["--target", "custom", "--scenario", "custom-reqack-n2"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Custom property scenarios"), "{text}");
    assert!(text.contains("custom-reqack-n2"));
}

#[test]
fn properties_beyond_the_minimum_process_count_run() {
    // A 2-process formula monitored on 4 processes: the extra processes generate
    // events with no bound atoms and must not confuse the pipeline.
    let out = experiments(&["--property", "F(P0.p && P1.p)", "--procs", "4"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("property-4p"), "{text}");
    assert!(
        text.contains("⊤"),
        "goal tail must satisfy the reachability goal: {text}"
    );
}
