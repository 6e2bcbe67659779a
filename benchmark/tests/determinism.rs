//! The benchmark's own contract: inputs are a function of the seed, exact
//! metrics repeat, the names printed are the names declared in `BENCHMARK.json`,
//! and a wrong reference verdict fails the run.
//!
//! The runs go through the real binary in `--quick` mode from the repository
//! root.  `deploy-lockstep` needs a `monitord`: `benchmark/run.sh test` builds
//! one and exports `DLRV_MONITORD_BIN`; without it the deploy parts are skipped.

// A failed unwrap here is the test failing.
#![allow(clippy::unwrap_used)]

use dlrv_benchmark::layers::PER_LAYER;
use dlrv_benchmark::report::Declarations;
use dlrv_benchmark::workload::{prepare, Substrate, WORKLOADS};
use dlrv_json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits in the repository root")
        .to_path_buf()
}

fn declarations() -> Declarations {
    Declarations::load(&repo_root().join("BENCHMARK.json")).unwrap()
}

fn have_monitord() -> bool {
    let found = std::env::var_os("DLRV_MONITORD_BIN").is_some_and(|p| Path::new(&p).is_file());
    if !found {
        eprintln!(
            "DLRV_MONITORD_BIN not set: skipping deploy-lockstep (use benchmark/run.sh test)"
        );
    }
    found
}

/// Runs the binary in quick mode; returns its exit code and parsed result line.
fn quick_run(workload: &str, trace: bool, extra: &[&str]) -> (i32, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_dlrv-benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output from {workload}: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    (output.status.code().unwrap(), Json::parse(last).unwrap())
}

/// `(name, unit)` of every metric of a result line, in order.
fn printed(result: &Json) -> Vec<(String, String)> {
    let Json::Object(metrics) = result.get("metrics").unwrap() else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .unwrap()
        .get(metric)
        .unwrap()
        .get("value")
        .unwrap()
        .as_f64()
        .unwrap()
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for workload in WORKLOADS {
        let quick = workload.quick();
        let (first, _) = prepare(quick, 1);
        let (again, _) = prepare(quick, 1);
        assert_eq!(
            first.bytes, again.bytes,
            "{}: same seed, different stream",
            quick.name
        );
        assert_eq!(first.n_events, again.n_events);
        let (other, _) = prepare(quick, 2);
        if quick.fixed_trace_seed.is_some() {
            // The deploy trace is a fixture: see `WORKLOADS`.
            assert_eq!(
                first.bytes, other.bytes,
                "{}: fixture moved with the seed",
                quick.name
            );
        } else {
            assert_ne!(
                first.bytes, other.bytes,
                "{}: another seed, same stream",
                quick.name
            );
        }
    }
}

#[test]
fn declared_workloads_and_layer_metrics_are_the_ones_in_the_code() {
    let decls = declarations();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(decls.workloads, names);
    let declared: Vec<(&str, &str)> = decls
        .per_layer
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    assert_eq!(declared, PER_LAYER);
}

#[test]
fn every_declared_metric_is_printed_and_every_printed_one_declared() {
    let decls = declarations();
    let pairs = |list: &[dlrv_benchmark::report::Declared]| -> Vec<(String, String)> {
        list.iter()
            .map(|d| (d.name.clone(), d.unit.clone()))
            .collect()
    };
    for workload in WORKLOADS {
        if workload.substrate == Substrate::Deploy && !have_monitord() {
            continue;
        }
        let (code, result) = quick_run(workload.name, false, &[]);
        assert_eq!(code, 0, "{}", workload.name);
        assert_eq!(
            printed(&result),
            pairs(&decls.end_to_end),
            "{}",
            workload.name
        );
        assert_eq!(result.get("correct").unwrap().as_bool(), Ok(true));
        assert_eq!(result.get("failed").unwrap().as_u64(), Ok(0));
        for decl in decls
            .end_to_end
            .iter()
            .filter(|d| d.name != "run_rss_growth_mb")
        {
            // (A shrunk workload may fit in memory the process already holds.)
            assert!(
                value(&result, &decl.name) > 0.0,
                "{} is 0 on {}",
                decl.name,
                workload.name
            );
        }

        let (code, result) = quick_run(workload.name, true, &[]);
        assert_eq!(code, 0, "{} traced", workload.name);
        assert_eq!(
            printed(&result),
            pairs(&decls.per_layer),
            "{} traced",
            workload.name
        );
        assert_eq!(result.get("failed").unwrap().as_u64(), Ok(0));
    }
}

#[test]
fn exact_metrics_repeat_across_runs() {
    let (_, first) = quick_run("stream-heavy", false, &[]);
    let (_, second) = quick_run("stream-heavy", false, &[]);
    for metric in ["monitor_msgs_per_event", "peak_views_per_session"] {
        assert_eq!(value(&first, metric), value(&second, metric), "{metric}");
    }
    assert_eq!(
        first.get("attempted").unwrap(),
        second.get("attempted").unwrap()
    );
}

#[test]
fn a_corrupted_reference_verdict_fails_the_run() {
    let mut workloads = vec!["stream-waves", "fleet-6"];
    if have_monitord() {
        workloads.push("deploy-lockstep");
    }
    for workload in workloads {
        let (code, result) = quick_run(workload, false, &["--corrupt-reference"]);
        assert_eq!(code, 1, "{workload}");
        assert_eq!(
            result.get("correct").unwrap().as_bool(),
            Ok(false),
            "{workload}"
        );
        assert!(
            result.get("failed").unwrap().as_u64().unwrap() > 0,
            "{workload}"
        );
    }
}

#[test]
fn a_directory_without_the_repository_gives_no_result() {
    // The binary refuses to run where BENCHMARK.json is missing.
    let empty = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let output = Command::new(env!("CARGO_BIN_EXE_dlrv-benchmark"))
        .current_dir(&empty)
        .args([
            "--workload",
            "stream-waves",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
