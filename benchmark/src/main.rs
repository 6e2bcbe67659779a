//! `dlrv-benchmark`: the repository benchmark's one command.
//!
//! ```text
//! dlrv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! dlrv-benchmark all [--seed <n>] [--seconds <s>]
//! dlrv-benchmark compare <baseline.json> <candidate.json>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` and writes under
//! `benchmark/out/`); `benchmark/run.sh` builds everything and does that.

#![forbid(unsafe_code)]

use dlrv_benchmark::endtoend::{self, RunParams};
use dlrv_benchmark::layers;
use dlrv_benchmark::report::{compare, require_two_cores, results_json, Declarations, RunDoc};
use dlrv_benchmark::workload::{Workload, WORKLOADS};
use dlrv_json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    corrupt_reference: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        corrupt_reference: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => parsed.quick = true,
            // Test hook: breaks one reference verdict so the check must fail.
            "--corrupt-reference" => parsed.corrupt_reference = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

/// Gated runs never inherit observability or artifact settings, and `monitord`
/// sockets (created under the temp directory) stay inside the checkout.  The
/// relative path keeps them under the 108-byte `sun_path` limit wherever the
/// checkout lives; daemons inherit this process's working directory.
fn pin_environment() -> Result<(), String> {
    for var in ["DLRV_OBS", "DLRV_JOBS", "DLRV_LOG", "DLRV_ARTIFACT_DIR"] {
        std::env::remove_var(var);
    }
    dlrv_obs::set_enabled(false);
    let tmp = Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.to_string_pretty() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn doc_path(workload: &str, traced: bool, quick: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "end_to_end" };
    let quick = if quick { ".quick" } else { "" };
    Path::new(OUT_DIR).join(format!("{workload}{quick}.{kind}.json"))
}

/// One workload, in this process (the caller made it a fresh one).
fn run_one(args: &Args, decls: &Declarations) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let params = RunParams {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let doc: RunDoc = if args.trace {
        let quick = if args.quick { ".quick" } else { "" };
        let trace_path = Path::new(OUT_DIR).join(format!("{name}{quick}.trace.jsonl"));
        layers::run(workload, params, &trace_path)?
    } else {
        endtoend::run(workload, params, args.corrupt_reference)?
    };
    write_doc(&doc_path(name, args.trace, args.quick), &doc.to_json())?;
    doc.print_table(decls);
    println!("{}", doc.result_line(decls));
    Ok(if doc.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} checked session outcomes differ from the reference",
            doc.failed, doc.attempted
        );
        ExitCode::FAILURE
    })
}

/// Every workload end to end, then every workload traced — each in a fresh
/// child process, one at a time, so memory and caches are per workload.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut docs = Vec::new();
    let mut ok = true;
    for traced in [false, true] {
        for workload in WORKLOADS {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            ok &= status.success();
            let path = doc_path(workload.name, traced, args.quick);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            docs.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    let path = Path::new(OUT_DIR).join("results.json");
    write_doc(&path, &results_json(&docs))?;
    println!("wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &Args, decls: &Declarations) -> Result<ExitCode, String> {
    let [_, baseline, candidate] = args.positional.as_slice() else {
        return Err("usage: compare <baseline.json> <candidate.json>".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let ok = compare(decls, &load(baseline)?, &load(candidate)?)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    let decls = Declarations::load(Path::new("BENCHMARK.json"))
        .map_err(|e| format!("{e} (run from the repository root)"))?;
    match args.positional.first().map(String::as_str) {
        Some("compare") => run_compare(&args, &decls),
        Some("all") => {
            require_two_cores()?;
            pin_environment()?;
            run_all(&args)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => {
            require_two_cores()?;
            pin_environment()?;
            run_one(&args, &decls)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dlrv-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
