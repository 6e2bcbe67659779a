//! Smoke tests of the `experiments` CLI's static-analysis pipeline: the `analyze`
//! target, `--analyze-property` (text and file forms), the `--deny` / `--allow`
//! gates, analysis JSON round-tripping through `--validate-results`, the annotated
//! DOT export, and the lint-ID typo diagnostics.
//!
//! These drive the real binary (`CARGO_BIN_EXE_experiments`), mirroring
//! `cli_property.rs` for the run pipeline.

use dlrv::dlrv_analyze::{analyses_from_json, ANALYSIS_GENERATOR};
use dlrv::dlrv_json::Json;
use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

#[test]
fn analyze_target_renders_a_table_over_the_registry() {
    let out = experiments(&["--target", "analyze", "--scenario", "paper-A-n2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("paper-A-n2"), "{text}");
    assert!(
        text.contains("safety"),
        "property A is a safety property: {text}"
    );
}

#[test]
fn analyze_property_text_form_reports_findings_with_carets() {
    let out = experiments(&["--analyze-property", "G P2.p", "--procs", "2"]);
    assert!(
        out.status.success(),
        "--deny not set, lints alone must not fail"
    );
    let text = stdout(&out);
    assert!(
        text.contains("DLRV-C001"),
        "P2 out of range for 2 procs: {text}"
    );
    assert!(
        text.contains('^'),
        "findings must carry a caret span: {text}"
    );
}

#[test]
fn analyze_property_accepts_property_files() {
    let out = experiments(&["--analyze-property", "tests/bad_specs/non_monitorable.ltl"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("non_monitorable"), "{text}");
    assert!(text.contains("DLRV-M003"), "{text}");
}

#[test]
fn deny_gates_exit_nonzero_only_when_tripped() {
    // An unsatisfiable spec is an error-severity finding: --deny error trips.
    let out = experiments(&["--analyze-property", "G P0.p && F !P0.p", "--deny", "error"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("rejected by --deny"),
        "{}",
        stderr(&out)
    );

    // A clean co-safety spec passes even the strictest gate.
    let out = experiments(&["--analyze-property", "F (P0.p && P1.p)", "--deny", "warn"]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Denying one specific lint ID gates exactly that lint.
    let out = experiments(&[
        "--analyze-property",
        "G P2.p",
        "--procs",
        "2",
        "--deny",
        "DLRV-C001",
    ]);
    assert!(!out.status.success());

    // --allow suppresses the finding before the gate sees it.
    let out = experiments(&[
        "--analyze-property",
        "G P2.p",
        "--procs",
        "2",
        "--deny",
        "DLRV-C001",
        "--allow",
        "DLRV-C001",
        "--allow",
        "DLRV-C002",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn unknown_lint_ids_suggest_the_closest_name() {
    let out = experiments(&["--analyze-property", "G P0.p", "--deny", "DLRV-M01"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("did you mean `DLRV-M001`?"),
        "{}",
        stderr(&out)
    );

    let out = experiments(&["--analyze-property", "G P0.p", "--allow", "DLRV-A08"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("did you mean"), "{err}");
    assert!(
        err.contains("docs/ANALYSIS.md"),
        "the catalog must be referenced: {err}"
    );
}

#[test]
fn analyze_json_round_trips_through_the_validator() {
    // Restricted to small scenarios: synthesizing the full registry (10-atom
    // properties at n=5) is minutes of work in an unoptimized test binary.
    let out = experiments(&[
        "--target",
        "analyze",
        "--scenario",
        "paper-A-n2",
        "--scenario",
        "paper-B-n2",
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let parsed = Json::parse(&text).expect("valid JSON");
    assert_eq!(
        parsed
            .get("generator")
            .and_then(|g| g.as_str())
            .expect("generator field"),
        ANALYSIS_GENERATOR
    );
    let records = analyses_from_json(&parsed).expect("schema-valid analysis doc");
    assert!(!records.is_empty());
    assert!(records.iter().all(|r| r.scenario.is_some()));

    // The binary's own validator accepts the document too.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dlrv_analyze_{}.json", std::process::id()));
    std::fs::write(&path, &text).unwrap();
    let out = experiments(&["--validate-results", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("valid analysis document"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn emit_dot_routes_through_the_annotated_renderer() {
    let out = experiments(&[
        "--property",
        "G (P0.req -> F P1.ack)",
        "--emit-dot",
        "property",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let dot = stdout(&out);
    assert!(dot.starts_with("digraph"), "{dot}");
    assert!(dot.contains("(trap)"), "? traps must be marked: {dot}");
    assert!(
        dot.contains("non_monitorable"),
        "classification label missing: {dot}"
    );
}

#[test]
fn require_family_rejects_documents_missing_the_family() {
    // A sweep-only document must fail `--require-family throughput`.
    let out = experiments(&[
        "--target",
        "sweep",
        "--scenario",
        "paper-A-n2",
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dlrv_sweeponly_{}.json", std::process::id()));
    std::fs::write(&path, stdout(&out)).unwrap();

    let ok = experiments(&["--validate-results", path.to_str().unwrap()]);
    assert!(ok.status.success());
    let missing = experiments(&[
        "--validate-results",
        path.to_str().unwrap(),
        "--require-family",
        "throughput",
    ]);
    // A family name that does not exist is a mistake on the command line (usage
    // code 2, closest name suggested), not a shortcoming of the document (code 1).
    let typo = experiments(&[
        "--validate-results",
        path.to_str().unwrap(),
        "--require-family",
        "througput",
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(missing.status.code(), Some(1));
    assert!(
        stderr(&missing).contains("contains no `throughput` scenarios"),
        "{}",
        stderr(&missing)
    );
    assert_eq!(typo.status.code(), Some(2));
    assert!(
        stderr(&typo).contains("did you mean `throughput`?"),
        "{}",
        stderr(&typo)
    );
}
