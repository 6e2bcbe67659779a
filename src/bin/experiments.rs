//! Regenerates every table and figure of the thesis' evaluation chapter as text, and
//! emits machine-readable sweep results for the scenario registry.
//!
//! ```bash
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- table5_1
//! cargo run --release --bin experiments -- fig5_4 fig5_5 fig5_6 fig5_7 fig5_8 fig5_9
//! cargo run --release --bin experiments -- automata_dot
//! cargo run --release --bin experiments -- all --jobs 8
//! cargo run --release --bin experiments -- --list-scenarios
//! cargo run --release --bin experiments -- --target sweep
//! cargo run --release --bin experiments -- --target sweep --format json --out BENCH_results.json
//! cargo run --release --bin experiments -- --target sweep --scenario ring-B-n4
//! cargo run --release --bin experiments -- --target throughput --format json
//! cargo run --release --bin experiments -- --target deploy
//! cargo run --release --bin experiments -- --target deploy --scenario deploy-C-n3 --fault delay=1,dup=0.2
//! cargo run --release --bin experiments -- --target custom
//! cargo run --release --bin experiments -- --property 'G(P0.p U (P1.p && P2.p))' --procs 3
//! cargo run --release --bin experiments -- --property-file my_property.ltl --format json
//! cargo run --release --bin experiments -- --emit-dot paper-A-n2
//! cargo run --release --bin experiments -- --property 'F(P0.p && P1.p)' --emit-dot property
//! cargo run --release --bin experiments -- --validate-results BENCH_results.json
//! cargo run --release --bin experiments -- --target analyze --deny error
//! cargo run --release --bin experiments -- --target analyze --results BENCH_results.json
//! cargo run --release --bin experiments -- --analyze-property 'G(P0.req -> F P1.ack)'
//! cargo run --release --bin experiments -- --target report
//! cargo run --release --bin experiments -- --target report --results thr.json --out-dir /tmp/dash
//! ```
//!
//! Targets select what to run: the classic figure/table targets print the paper's
//! text tables, `sweep` runs the offline scenarios of the standard registry
//! ([`ScenarioRegistry`]) — the paper's sweeps plus the extended workload shapes —
//! `throughput` runs the streaming family (hundreds–thousands of concurrent
//! sessions through the sharded `dlrv-stream` runtime), `deploy` runs the
//! real-socket family (one `monitord` OS process per monitor over TCP/Unix
//! sockets, optionally through the fault-injection shim — `--fault
//! drop=p,delay=ms,dup=p,reorder=p` overrides the scenarios' shim spec), `fleet`
//! runs the property-fleet family (N properties per session in one streamed pass,
//! against per-member solo baselines) and `custom` runs the registry's user-style
//! LTL properties.  Targets are positional arguments; `--target NAME` is an
//! equivalent spelling.
//!
//! `--property 'LTL'` (or `--property-file PATH`, whose format allows `#` comments
//! plus optional `name:` / `procs:` headers before the formula) runs an arbitrary
//! user-supplied property end-to-end — workload generation, simulation,
//! decentralized monitoring, verdicts and metrics — on `--procs N` processes
//! (default: the smallest count the formula's `P<i>.<name>` atoms allow).  LTL
//! parse errors are reported with the offending byte offset under the echoed
//! formula, and unknown `--target`/`--scenario` names suggest the closest valid
//! name.  `--emit-dot NAME` prints the synthesized LTL₃ monitor automaton of a
//! registry scenario (or of the `--property` formula via `--emit-dot property`) as
//! Graphviz DOT instead of running anything; `--out` redirects it to a file.
//!
//! `--scenario NAME[,NAME…]` restricts a registry target (`sweep`, `throughput`,
//! `overhead`, `custom`, `deploy`, `fleet`) to the named scenarios, so a single data point can be (re)run without the whole
//! sweep; unknown names and names outside the requested target are rejected.
//!
//! `--target analyze` statically analyzes the registry's properties — no workload
//! runs — through the `dlrv-analyze` crate: monitorability classification, automaton
//! hygiene, predicted decentralization cost (joined against measured numbers when
//! `--results PATH` points at a benchmark document) and configuration lints.
//! `--analyze-property VALUE` does the same for one ad-hoc property, where `VALUE`
//! is LTL text or the path of a `--property-file`-style file.  `--deny
//! warn|error|LINT-ID[,…]` makes matching findings exit non-zero (the CI gate),
//! `--allow LINT-ID[,…]` suppresses specific lints, and `--budget
//! alphabet=N,states=N,transitions=N` re-sizes the construction budget behind
//! `DLRV-A006`; unknown lint IDs suggest the closest catalog name.  See
//! `docs/ANALYSIS.md` for the lint catalog.
//!
//! `--format json` (valid for the registry targets) emits the `BENCH_results.json`
//! document (see `dlrv_core::results` for the schema) instead of a text table, and
//! `--out PATH` redirects it to a file.  Several run targets may be combined into
//! one document (`--target sweep --target throughput --format json`); the `analyze`
//! target emits its own document (`dlrv_analyze::report`) and must stand alone.
//! `--validate-results PATH` re-parses a results document with the in-tree parser
//! (`sweep_from_json`, or `analyses_from_json` when the document's `generator` is
//! `dlrv-analyze`) and fails loudly on schema drift — CI uses it instead of an
//! external JSON tool; `--require-family NAME[,…]` additionally fails unless the
//! document contains scenarios of each named family with real measurements
//! (non-zero `events_per_sec` for `throughput`).  Performance is compared across
//! commits by `benchmark/run.sh compare`, not here.  Unknown formats, `--out`
//! without `--format json`, and `--format json` with a text-only target are
//! rejected with an error — nothing is silently ignored.
//!
//! `--target report` renders a results document (`--results PATH`, default the
//! committed `BENCH_results.json`) plus its git history into a dashboard under
//! `--out-dir DIR` (default `report/`): per-family markdown tables in
//! `REPORT.md`, SVG trend charts in `svg/` and per-scenario monitor automata in
//! `dot/`.  It runs no workloads and must stand alone — see
//! `docs/OBSERVABILITY.md`.
//!
//! `--jobs N` (or the `DLRV_JOBS` environment variable) caps the worker threads used
//! to fan out independent seeds and configurations; the default uses every core.
//! Results are byte-identical for every thread count — each (property, process count,
//! seed) data point is a deterministic simulation collected in a fixed order.
//!
//! The numbers are produced by the discrete-event simulator that stands in for the
//! paper's iOS testbed (see `docs/ARCHITECTURE.md`), so absolute values differ from
//! the thesis; the shapes (growth trends, relative ordering of the properties) are
//! what carries over.

use dlrv_automaton::{dot, MonitorAutomaton};
use dlrv_core::dlrv_analyze::{
    analyses_from_json, analyses_to_json, AnalysisRecord, Budget, Finding, Lint, Severity,
    ANALYSIS_GENERATOR,
};
use dlrv_core::{
    analyze_spec, analyze_to_dot, comm_frequency_run, measured_overhead_for,
    parallel_map_indexed, paper_run, render_report, set_jobs, sweep_from_json, sweep_to_json,
    transition_counts, CompiledProperty, ExperimentConfig, ExperimentResult, FleetParams,
    PaperProperty, PropertySpec, PropertySpecError, Scenario, ScenarioFamily, ScenarioRecord,
    ScenarioRegistry, StreamParams, TrendPoint, PROCESS_COUNTS,
};
use dlrv_core::dlrv_net::FaultSpec;
use dlrv_monitor::{MonitorOptions, RunMetrics};
use std::path::PathBuf;
use std::process::exit;

/// Events per process used for the figure experiments (the thesis uses 20).
const EVENTS: usize = 20;

/// Everything a target argument may select.
const KNOWN_TARGETS: [&str; 17] = [
    "all", "table5_1", "automata_dot", "fig5_4", "fig5_5", "fig5_6", "fig5_7", "fig5_8",
    "fig5_9", "sweep", "throughput", "overhead", "custom", "deploy", "fleet", "analyze",
    "report",
];

/// The targets backed by the scenario registry (the ones `--scenario` can filter,
/// `--no-opt` can override and `--format json` can serialize).
const REGISTRY_TARGETS: [&str; 6] =
    ["sweep", "throughput", "overhead", "custom", "deploy", "fleet"];

/// Output format of metric-producing targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// Parsed command line.
struct Cli {
    targets: Vec<String>,
    format: Format,
    out: Option<PathBuf>,
    list_scenarios: bool,
    /// Scenario-name filter for registry targets (`--scenario a,b` / repeated flags).
    scenarios: Vec<String>,
    /// Results document to re-parse and check (`--validate-results PATH`).
    validate: Option<PathBuf>,
    /// `--no-opt`: run every selected registry scenario with the §4.3 optimization
    /// suite switched off (the escape hatch for A/B-ing a whole target).
    no_opt: bool,
    /// `--property LTL`: run a user-supplied LTL formula end-to-end.
    property: Option<String>,
    /// `--property-file PATH`: like `--property`, reading the formula (plus optional
    /// `name:` / `procs:` headers) from a file.  Repeated flags build a property
    /// fleet: every named file is monitored in one streaming pass.
    property_files: Vec<PathBuf>,
    /// `--properties A,B,C`: paper properties to monitor as one fleet (combined
    /// with any `--property-file` members).
    properties: Vec<String>,
    /// `--procs N`: process count for `--property` runs (default: the smallest count
    /// the formula's atoms allow, at least two).
    procs: Option<usize>,
    /// `--emit-dot NAME`: print the synthesized monitor automaton of a registry
    /// scenario (by name) or of the `--property` formula (`NAME` = `property`) as
    /// Graphviz DOT instead of running anything.
    emit_dot: Option<String>,
    /// `--analyze-property VALUE`: statically analyze one ad-hoc property (LTL text,
    /// or the path of a `--property-file`-style file) without running anything.
    analyze_property: Option<String>,
    /// `--deny warn|error`: findings at or above this severity exit non-zero.
    deny_level: Option<Severity>,
    /// `--deny LINT-ID[,...]`: these specific lints exit non-zero when they fire.
    deny_lints: Vec<Lint>,
    /// `--allow LINT-ID[,...]`: suppress these lints from analysis reports.
    allow_lints: Vec<Lint>,
    /// `--results PATH`: benchmark document to join measured overhead numbers from
    /// in analysis reports.
    results: Option<PathBuf>,
    /// `--budget alphabet=N,states=N,transitions=N`: construction-size budget
    /// behind `DLRV-A006` (analysis modes only).
    budget: Budget,
    /// `--require-family NAME[,...]`: with `--validate-results`, additionally fail
    /// unless the document contains measured scenarios of each named family.
    require_family: Vec<String>,
    /// `--fault SPEC`: override the fault-injection spec of every selected deploy
    /// scenario (`drop=p,delay=ms,dup=p,reorder=p[,seed=n]`).
    fault: Option<FaultSpec>,
    /// `--out-dir PATH`: output directory of the `report` target (default
    /// `report/`).
    out_dir: Option<PathBuf>,
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: experiments [TARGET...] [--target NAME] [--jobs N] \
         [--format text|json] [--out PATH] [--scenario NAME[,NAME...]] [--no-opt] \
         [--fault drop=p,delay=ms,dup=p,reorder=p[,seed=n]] \
         [--property LTL | --property-file PATH... | --properties A,B,...] \
         [--procs N] [--emit-dot NAME] \
         [--analyze-property LTL|PATH] [--deny warn|error|LINT-ID[,...]] \
         [--allow LINT-ID[,...]] [--results PATH] \
         [--budget alphabet=N,states=N,transitions=N] [--list-scenarios] \
         [--validate-results PATH [--require-family NAME[,...]]] \
         [--target report [--results PATH] [--out-dir DIR]]"
    );
    exit(2);
}

/// Levenshtein edit distance, used to suggest the closest valid name on typos.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `name`, when it is close enough to look like a typo.
fn closest_name<'a>(name: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|c| (edit_distance(name, c), c))
        .min()
        .filter(|&(d, _)| d <= 2.max(name.chars().count() / 3))
        .map(|(_, c)| c)
}

/// Formats an "unknown name" error, appending a "did you mean" suggestion when a
/// registered name is within typo distance.
fn unknown_name_error<'a>(
    what: &str,
    name: &str,
    candidates: impl IntoIterator<Item = &'a str>,
    hint: &str,
) -> ! {
    let suggestion = closest_name(name, candidates)
        .map(|c| format!("; did you mean `{c}`?"))
        .unwrap_or_default();
    usage_error(&format!("unknown {what} `{name}`{suggestion} ({hint})"));
}

/// "unknown lint" error for `--deny`/`--allow` tokens: suggests the closest
/// catalog ID (and, for `--deny`, the severity names) via the same edit-distance
/// helper as `--scenario` typos.
fn unknown_lint_error(flag: &str, token: &str) -> ! {
    let mut candidates: Vec<&str> = Lint::ALL.iter().map(|l| l.id()).collect();
    if flag == "--deny" {
        candidates.extend(["warn", "error"]);
    }
    unknown_name_error(
        "lint",
        token,
        candidates,
        "see docs/ANALYSIS.md for the lint catalog",
    );
}

/// Parses LTL text into a named spec, exiting with a caret-annotated diagnostic on
/// parse errors (the offending byte offset points into the echoed formula).
fn parse_property_or_exit(name: &str, text: &str) -> PropertySpec {
    match PropertySpec::parse_named(name, text) {
        Ok(spec) => spec,
        Err(PropertySpecError::Parse(e)) => {
            eprintln!("error: cannot parse LTL property: {}", e.message);
            eprintln!("  | {text}");
            eprintln!("  | {}^ at byte offset {}", " ".repeat(e.position.min(text.len())), e.position);
            exit(2);
        }
        Err(other) => {
            eprintln!("error: invalid property: {other}");
            exit(2);
        }
    }
}

/// Parses the command line, applying `--jobs` via [`set_jobs`] and validating every
/// flag combination up front — an unknown `--format` or a stray `--out` is an error,
/// never silently ignored.
fn parse_cli(args: Vec<String>) -> Cli {
    let mut cli = Cli {
        targets: Vec::new(),
        format: Format::Text,
        out: None,
        list_scenarios: false,
        scenarios: Vec::new(),
        validate: None,
        no_opt: false,
        property: None,
        property_files: Vec::new(),
        properties: Vec::new(),
        procs: None,
        emit_dot: None,
        analyze_property: None,
        deny_level: None,
        deny_lints: Vec::new(),
        allow_lints: Vec::new(),
        results: None,
        budget: Budget::default(),
        require_family: Vec::new(),
        fault: None,
        out_dir: None,
    };
    let mut iter = args.into_iter();
    // `--flag value` and `--flag=value` are both accepted.
    let flag_value = |iter: &mut std::vec::IntoIter<String>, flag: &str, inline: Option<&str>| {
        match inline {
            Some(v) => v.to_string(),
            None => iter
                .next()
                .unwrap_or_else(|| usage_error(&format!("{flag} expects a value"))),
        }
    };
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        match flag.as_str() {
            "--jobs" => {
                let value = flag_value(&mut iter, "--jobs", inline.as_deref());
                match value.parse::<usize>() {
                    Ok(jobs) if jobs > 0 => set_jobs(jobs),
                    _ => usage_error("--jobs expects a positive integer"),
                }
            }
            "--target" => {
                let value = flag_value(&mut iter, "--target", inline.as_deref());
                cli.targets.push(value);
            }
            "--format" => {
                let value = flag_value(&mut iter, "--format", inline.as_deref());
                cli.format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => usage_error(&format!(
                        "unknown format `{other}`; expected `text` or `json`"
                    )),
                };
            }
            "--out" => {
                let value = flag_value(&mut iter, "--out", inline.as_deref());
                cli.out = Some(PathBuf::from(value));
            }
            "--out-dir" => {
                let value = flag_value(&mut iter, "--out-dir", inline.as_deref());
                cli.out_dir = Some(PathBuf::from(value));
            }
            "--scenario" => {
                let value = flag_value(&mut iter, "--scenario", inline.as_deref());
                for name in value.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        usage_error("--scenario expects non-empty scenario names");
                    }
                    cli.scenarios.push(name.to_string());
                }
            }
            "--validate-results" => {
                let value = flag_value(&mut iter, "--validate-results", inline.as_deref());
                cli.validate = Some(PathBuf::from(value));
            }
            "--property" => {
                let value = flag_value(&mut iter, "--property", inline.as_deref());
                if value.trim().is_empty() {
                    usage_error("--property expects an LTL formula");
                }
                cli.property = Some(value);
            }
            "--property-file" => {
                let value = flag_value(&mut iter, "--property-file", inline.as_deref());
                cli.property_files.push(PathBuf::from(value));
            }
            "--properties" => {
                let value = flag_value(&mut iter, "--properties", inline.as_deref());
                for name in value.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        usage_error("--properties expects paper property letters (A-F)");
                    }
                    cli.properties.push(name.to_string());
                }
            }
            "--procs" => {
                let value = flag_value(&mut iter, "--procs", inline.as_deref());
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => cli.procs = Some(n),
                    _ => usage_error("--procs expects a positive integer"),
                }
            }
            "--emit-dot" => {
                let value = flag_value(&mut iter, "--emit-dot", inline.as_deref());
                cli.emit_dot = Some(value);
            }
            "--analyze-property" => {
                let value = flag_value(&mut iter, "--analyze-property", inline.as_deref());
                if value.trim().is_empty() {
                    usage_error("--analyze-property expects an LTL formula or a file path");
                }
                cli.analyze_property = Some(value);
            }
            "--deny" => {
                let value = flag_value(&mut iter, "--deny", inline.as_deref());
                for token in value.split(',').map(str::trim) {
                    if let Some(level) = Severity::from_name(token) {
                        // The strictest requested level wins (`--deny error,warn`
                        // means warn).
                        cli.deny_level = Some(match cli.deny_level {
                            Some(existing) => existing.min(level),
                            None => level,
                        });
                    } else if let Some(lint) = Lint::from_id(token) {
                        cli.deny_lints.push(lint);
                    } else {
                        unknown_lint_error("--deny", token);
                    }
                }
            }
            "--allow" => {
                let value = flag_value(&mut iter, "--allow", inline.as_deref());
                for token in value.split(',').map(str::trim) {
                    match Lint::from_id(token) {
                        Some(lint) => cli.allow_lints.push(lint),
                        None => unknown_lint_error("--allow", token),
                    }
                }
            }
            "--results" => {
                let value = flag_value(&mut iter, "--results", inline.as_deref());
                cli.results = Some(PathBuf::from(value));
            }
            "--budget" => {
                let value = flag_value(&mut iter, "--budget", inline.as_deref());
                for part in value.split(',').map(str::trim) {
                    let Some((key, bound)) = part.split_once('=') else {
                        usage_error(
                            "--budget expects key=N pairs (alphabet, states, transitions)",
                        );
                    };
                    let bound = match bound.trim().parse::<usize>() {
                        Ok(n) if n > 0 => n,
                        _ => usage_error("--budget bounds must be positive integers"),
                    };
                    match key.trim() {
                        "alphabet" => cli.budget.max_alphabet = bound,
                        "states" => cli.budget.max_states = bound,
                        "transitions" => cli.budget.max_transitions = bound,
                        other => usage_error(&format!(
                            "unknown --budget key `{other}`; expected alphabet, states \
                             or transitions"
                        )),
                    }
                }
            }
            "--fault" => {
                let value = flag_value(&mut iter, "--fault", inline.as_deref());
                match FaultSpec::parse(&value) {
                    Ok(spec) => cli.fault = Some(spec),
                    Err(e) => usage_error(&format!("invalid --fault spec: {e}")),
                }
            }
            "--require-family" => {
                let value = flag_value(&mut iter, "--require-family", inline.as_deref());
                for name in value.split(',').map(str::trim) {
                    if name.is_empty() {
                        usage_error("--require-family expects non-empty family names");
                    }
                    cli.require_family.push(name.to_string());
                }
            }
            "--no-opt" => {
                if inline.is_some() {
                    usage_error("--no-opt takes no value");
                }
                cli.no_opt = true;
            }
            "--list-scenarios" => {
                if inline.is_some() {
                    usage_error("--list-scenarios takes no value");
                }
                cli.list_scenarios = true;
            }
            other if other.starts_with("--") => {
                usage_error(&format!("unknown flag `{other}`"));
            }
            _ => cli.targets.push(arg),
        }
    }

    if let Some(unknown) = cli.targets.iter().find(|t| !KNOWN_TARGETS.contains(&t.as_str())) {
        unknown_name_error(
            "target",
            unknown,
            KNOWN_TARGETS,
            &format!("expected one of: {}", KNOWN_TARGETS.join(", ")),
        );
    }
    if cli.list_scenarios && !cli.targets.is_empty() {
        usage_error("--list-scenarios cannot be combined with targets");
    }
    if cli.property.is_some() && (!cli.property_files.is_empty() || !cli.properties.is_empty()) {
        usage_error(
            "--property runs a single inline formula; use --properties and/or \
             repeated --property-file for fleets",
        );
    }
    // Unknown `--properties` letters fail up front, with the usual typo
    // suggestion against the paper catalog.
    for name in &cli.properties {
        if PaperProperty::from_name(name).is_none() {
            unknown_name_error(
                "property",
                name,
                PaperProperty::ALL.map(PaperProperty::name),
                "expected paper property letters A-F",
            );
        }
    }
    let property_mode = cli.property.is_some()
        || !cli.property_files.is_empty()
        || !cli.properties.is_empty();
    let fleet_mode = !cli.properties.is_empty() || cli.property_files.len() > 1;
    if fleet_mode && cli.emit_dot.is_some() {
        usage_error("--emit-dot renders one automaton; it does not apply to property fleets");
    }
    if property_mode
        && (!cli.targets.is_empty()
            || cli.list_scenarios
            || cli.validate.is_some()
            || cli.analyze_property.is_some()
            || !cli.scenarios.is_empty())
    {
        usage_error(
            "--property/--property-file runs a single custom property; drop the \
             targets, --scenario, --analyze-property, --list-scenarios and \
             --validate-results",
        );
    }
    if cli.analyze_property.is_some()
        && (!cli.targets.is_empty()
            || cli.list_scenarios
            || cli.validate.is_some()
            || cli.emit_dot.is_some()
            || cli.no_opt
            || !cli.scenarios.is_empty())
    {
        usage_error(
            "--analyze-property analyzes a single ad-hoc property; drop the \
             targets, --scenario, --emit-dot, --no-opt, --list-scenarios and \
             --validate-results",
        );
    }
    if cli.procs.is_some() && !property_mode && cli.analyze_property.is_none() {
        usage_error(
            "--procs only applies to --property / --property-file / \
             --analyze-property runs",
        );
    }
    let analyze_mode =
        cli.analyze_property.is_some() || cli.targets.iter().any(|t| t == "analyze");
    let report_mode = cli.targets.iter().any(|t| t == "report");
    if !analyze_mode {
        if cli.deny_level.is_some() || !cli.deny_lints.is_empty() {
            usage_error("--deny only applies to `--target analyze` / --analyze-property");
        }
        if !cli.allow_lints.is_empty() {
            usage_error("--allow only applies to `--target analyze` / --analyze-property");
        }
        if cli.results.is_some() && !report_mode {
            usage_error(
                "--results only applies to `--target analyze` / --analyze-property / \
                 `--target report`",
            );
        }
        if cli.budget != Budget::default() {
            usage_error("--budget only applies to `--target analyze` / --analyze-property");
        }
    }
    if report_mode {
        // `report` renders an existing document; it runs nothing, so combining it
        // with run targets (or run-shaping flags) is a mistake worth rejecting.
        if cli.targets.len() > 1 {
            usage_error("`--target report` renders a document; run it by itself");
        }
        if cli.format != Format::Text {
            usage_error("the report target writes markdown + SVG; drop --format json");
        }
        if cli.out.is_some() || cli.no_opt || !cli.scenarios.is_empty() || cli.fault.is_some() {
            usage_error(
                "`--target report` only takes --results (input document) and \
                 --out-dir (output directory)",
            );
        }
    }
    if cli.out_dir.is_some() && !report_mode {
        usage_error("--out-dir only applies to `--target report`");
    }
    if !cli.require_family.is_empty() && cli.validate.is_none() {
        usage_error("--require-family only applies to --validate-results");
    }
    if cli.fault.is_some() && !cli.targets.iter().any(|t| t == "deploy") {
        usage_error("--fault only applies to `--target deploy`");
    }
    if let Some(dot_target) = &cli.emit_dot {
        if cli.format != Format::Text {
            usage_error("--emit-dot prints Graphviz DOT; drop --format json");
        }
        if cli.no_opt
            || !cli.scenarios.is_empty()
            || !cli.targets.is_empty()
            || cli.list_scenarios
            || cli.validate.is_some()
        {
            usage_error("--emit-dot is a standalone action; drop the other flags");
        }
        if property_mode {
            if dot_target != "property" {
                usage_error(
                    "with --property, the automaton source is the formula itself; \
                     use `--emit-dot property`",
                );
            }
        } else if dot_target == "property" {
            usage_error("`--emit-dot property` requires --property or --property-file");
        }
    }
    if cli.validate.is_some()
        && (!cli.targets.is_empty()
            || cli.list_scenarios
            || cli.format != Format::Text
            || cli.out.is_some()
            || cli.no_opt
            || !cli.scenarios.is_empty())
    {
        usage_error("--validate-results is a standalone action; drop the other flags");
    }
    if cli.out.is_some() && cli.format != Format::Json && cli.emit_dot.is_none() {
        usage_error(
            "--out requires --format json or --emit-dot (text output goes to stdout)",
        );
    }
    if cli.no_opt
        && !property_mode
        && !cli
            .targets
            .iter()
            .any(|t| REGISTRY_TARGETS.contains(&t.as_str()))
    {
        usage_error(&format!(
            "--no-opt only applies to registry targets ({}) and --property runs",
            REGISTRY_TARGETS.join(", ")
        ));
    }
    if !cli.scenarios.is_empty() {
        let registry_targets: Vec<&String> = cli
            .targets
            .iter()
            .filter(|t| REGISTRY_TARGETS.contains(&t.as_str()) || t.as_str() == "analyze")
            .collect();
        if registry_targets.is_empty() {
            usage_error(&format!(
                "--scenario only filters registry targets ({}, analyze)",
                REGISTRY_TARGETS.join(", ")
            ));
        }
        // Unknown names fail here rather than silently selecting nothing.
        let registry = ScenarioRegistry::standard();
        let mut covered_targets: Vec<&str> = Vec::new();
        for name in &cli.scenarios {
            let Some(scenario) = registry.get(name) else {
                unknown_name_error(
                    "scenario",
                    name,
                    registry.iter().map(|s| s.name.as_str()),
                    "run --list-scenarios for the registry",
                );
            };
            // Custom scenarios are offline registry scenarios, so both the focused
            // `custom` target and the full `sweep` accept them.  The static
            // analyzer accepts any scenario's property.
            let mut wanted_targets: Vec<&str> = match scenario.family {
                ScenarioFamily::Throughput => vec!["throughput"],
                ScenarioFamily::Overhead => vec!["overhead"],
                ScenarioFamily::Custom => vec!["custom", "sweep"],
                ScenarioFamily::Deploy => vec!["deploy"],
                ScenarioFamily::Fleet => vec!["fleet"],
                _ => vec!["sweep"],
            };
            wanted_targets.push("analyze");
            let matched: Vec<&str> = wanted_targets
                .iter()
                .copied()
                .filter(|t| cli.targets.iter().any(|x| x == t))
                .collect();
            if matched.is_empty() {
                usage_error(&format!(
                    "scenario `{name}` belongs to target `{}`, which was not requested",
                    wanted_targets[0]
                ));
            }
            // A custom scenario satisfies every requested target that accepts it
            // (`custom` and `sweep` may both be on the command line).
            covered_targets.extend(matched);
        }
        // Every requested registry target must keep at least one scenario, or the
        // run would do hours of work and then fail on the empty one.
        for target in registry_targets {
            if !covered_targets.contains(&target.as_str()) {
                usage_error(&format!(
                    "--scenario selects nothing for target `{target}`; \
                     drop the target or name one of its scenarios"
                ));
            }
        }
    }
    if cli.format == Format::Json && !property_mode && cli.analyze_property.is_none() {
        if cli.list_scenarios {
            usage_error("--list-scenarios has no JSON form; drop --format json");
        }
        if cli.targets.is_empty() {
            usage_error(
                "--format json requires an explicit target (the registry targets \
                 and --property runs emit JSON)",
            );
        }
        if let Some(unsupported) = cli
            .targets
            .iter()
            .find(|t| !REGISTRY_TARGETS.contains(&t.as_str()) && t.as_str() != "analyze")
        {
            usage_error(&format!(
                "target `{unsupported}` only produces text output; \
                 `--format json` supports: {}, analyze",
                REGISTRY_TARGETS.join(", ")
            ));
        }
        // Run targets may be combined into one results document; the analyze
        // report is a different document and must stand alone.
        if cli.targets.iter().any(|t| t == "analyze") && cli.targets.len() > 1 {
            usage_error(
                "the analyze report is its own JSON document; \
                 run `--target analyze` separately from the run targets",
            );
        }
    }
    cli
}

fn main() {
    let cli = parse_cli(std::env::args().skip(1).collect());

    if cli.list_scenarios {
        list_scenarios();
        return;
    }
    if let Some(path) = &cli.validate {
        validate_results(path, &cli.require_family);
        return;
    }
    if cli.property.is_some() || !cli.property_files.is_empty() || !cli.properties.is_empty() {
        run_user_property(&cli);
        return;
    }
    if let Some(value) = &cli.analyze_property {
        run_analyze_property(value, &cli);
        return;
    }
    if let Some(name) = &cli.emit_dot {
        emit_dot_for_scenario(name, &cli);
        return;
    }
    if cli.targets.iter().any(|t| t == "report") {
        run_report(&cli);
        return;
    }

    let run_all = cli.targets.is_empty() || cli.targets.iter().any(|a| a == "all");
    // `all` reproduces the paper's evaluation chapter; the registry targets (which
    // include non-paper scenarios) run only when asked for by name.
    let wants = |name: &str| {
        (run_all && !REGISTRY_TARGETS.contains(&name)) || cli.targets.iter().any(|a| a == name)
    };

    if wants("table5_1") {
        table5_1();
    }
    if wants("automata_dot") {
        automata_dot();
    }
    // Figures 5.4–5.8 all report different metrics of the *same* runs (paper-default
    // workload, every property × process count), so the sweep is executed once and
    // printed per figure.
    let figure_names = ["fig5_4", "fig5_5", "fig5_6", "fig5_7", "fig5_8"];
    if figure_names.iter().any(|f| wants(f)) {
        let sweep = run_sweep();
        if wants("fig5_4") {
            messages_figure(
                "Fig 5.4 — messages overhead (properties A, B, C)",
                &[PaperProperty::A, PaperProperty::B, PaperProperty::C],
                &sweep,
            );
        }
        if wants("fig5_5") {
            messages_figure(
                "Fig 5.5 — messages overhead (properties D, E, F)",
                &[PaperProperty::D, PaperProperty::E, PaperProperty::F],
                &sweep,
            );
        }
        if wants("fig5_6") {
            sweep_figure("Fig 5.6 — delay-time percentage per global state", &sweep);
        }
        if wants("fig5_7") {
            sweep_figure("Fig 5.7 — delayed (queued) events", &sweep);
        }
        if wants("fig5_8") {
            sweep_figure("Fig 5.8 — memory overhead (total global views)", &sweep);
        }
    }
    if wants("fig5_9") {
        comm_frequency_figure();
    }
    // `analyze` is explicit-only (never part of `all`): it reports on specs, not on
    // the paper's evaluation chapter.
    if cli.targets.iter().any(|t| t == "analyze") {
        run_analyze_target(&cli);
    }
    let run_targets: Vec<&str> = REGISTRY_TARGETS.iter().copied().filter(|t| wants(t)).collect();
    if cli.format == Format::Json && run_targets.len() > 1 {
        // One combined document across every selected run target (how
        // `BENCH_results.json` gets both the offline sweep and the throughput
        // family in a single file).
        registry_targets_json(&run_targets, &cli);
    } else {
        for target in run_targets {
            registry_target(target, &cli);
        }
    }
}

/// The registry families one registry target runs: `throughput`, `overhead`,
/// `deploy` and `fleet` own their families, `custom` focuses on the custom LTL
/// family, and `sweep` runs every offline in-process family (paper,
/// comm-frequency, extended and custom).
fn target_selects(target: &str, family: ScenarioFamily) -> bool {
    match target {
        "throughput" => family == ScenarioFamily::Throughput,
        "overhead" => family == ScenarioFamily::Overhead,
        "custom" => family == ScenarioFamily::Custom,
        "deploy" => family == ScenarioFamily::Deploy,
        "fleet" => family == ScenarioFamily::Fleet,
        _ => !matches!(
            family,
            ScenarioFamily::Throughput
                | ScenarioFamily::Overhead
                | ScenarioFamily::Deploy
                | ScenarioFamily::Fleet
        ),
    }
}

/// Re-parses a results document with the in-tree parser; exits non-zero on any
/// syntax or schema error, so CI needs no external JSON tooling.  The document's
/// `generator` tag picks the parser: benchmark sweeps (`dlrv-experiments`) go
/// through `sweep_from_json`, analysis reports (`dlrv-analyze`) through
/// `analyses_from_json`.  `require_family` names scenario families that must be
/// present with real measurements (CI's guard against committing a sweep that
/// silently dropped the throughput family).
fn validate_results(path: &std::path::Path, require_family: &[String]) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read `{}`: {e}", path.display());
            exit(1);
        }
    };
    let parsed = match dlrv_core::dlrv_json::Json::parse(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: `{}` is not valid JSON: {e}", path.display());
            exit(1);
        }
    };
    let generator = parsed
        .get_opt("generator")
        .ok()
        .flatten()
        .and_then(|g| g.as_str().ok().map(str::to_string));
    if generator.as_deref() == Some(ANALYSIS_GENERATOR) {
        if !require_family.is_empty() {
            eprintln!(
                "error: --require-family applies to benchmark documents; `{}` is an \
                 analysis report",
                path.display()
            );
            exit(1);
        }
        match analyses_from_json(&parsed) {
            Ok(records) => {
                let findings: usize =
                    records.iter().map(|r| r.analysis.findings.len()).sum();
                println!(
                    "{}: valid analysis document ({} analyses, {} findings)",
                    path.display(),
                    records.len(),
                    findings
                );
            }
            Err(e) => {
                eprintln!(
                    "error: `{}` does not match the analysis schema: {e}",
                    path.display()
                );
                exit(1);
            }
        }
        return;
    }
    match sweep_from_json(&parsed) {
        Ok(records) => {
            for family in require_family {
                let members: Vec<&ScenarioRecord> = records
                    .iter()
                    .filter(|r| r.scenario.family.name() == family.as_str())
                    .collect();
                if members.is_empty() {
                    eprintln!(
                        "error: `{}` contains no `{family}` scenarios",
                        path.display()
                    );
                    exit(1);
                }
                // A streamed family whose rates are all zero was never actually
                // measured — fail exactly like an absent family.
                if family == "throughput"
                    && members.iter().any(|r| r.avg.events_per_sec <= 0.0)
                {
                    eprintln!(
                        "error: `{}` has throughput scenarios with zero \
                         events_per_sec; regenerate with `--target throughput`",
                        path.display()
                    );
                    exit(1);
                }
                // Deploy records must carry their transport/fault parameters and a
                // real wall clock — a zero wall clock means no process fleet ever
                // ran (the family's measurements are sockets, not simulations).
                // Fleet records must carry their member list and real
                // measurements on both sides of the amortization comparison —
                // a zero rate or solo-sum means the fleet pass never ran.
                if family == "fleet"
                    && members.iter().any(|r| {
                        r.scenario.fleet.is_none()
                            || r.avg.fleet_size == 0
                            || r.avg.events_per_sec <= 0.0
                            || r.avg.fleet_solo_wall_clock_secs <= 0.0
                    })
                {
                    eprintln!(
                        "error: `{}` has fleet scenarios without fleet params or with \
                         unmeasured fleet metrics; regenerate with `--target fleet`",
                        path.display()
                    );
                    exit(1);
                }
                if family == "deploy"
                    && members
                        .iter()
                        .any(|r| r.scenario.deploy.is_none() || r.avg.wall_clock_secs <= 0.0)
                {
                    eprintln!(
                        "error: `{}` has deploy scenarios without deploy params or \
                         with zero wall_clock_secs; regenerate with `--target deploy`",
                        path.display()
                    );
                    exit(1);
                }
            }
            let streamed = records.iter().filter(|r| r.scenario.stream.is_some()).count();
            let deployed = records.iter().filter(|r| r.scenario.deploy.is_some()).count();
            println!(
                "{}: valid results document ({} scenarios, {} streamed, {} deployed)",
                path.display(),
                records.len(),
                streamed,
                deployed
            );
        }
        Err(e) => {
            eprintln!(
                "error: `{}` does not match the results schema: {e}",
                path.display()
            );
            exit(1);
        }
    }
}

/// Writes `text` to `--out` or stdout.
fn write_output(cli: &Cli, text: &str, what: &str) {
    match cli.out.as_deref() {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: cannot write `{}`: {e}", path.display());
                exit(1);
            }
            println!("wrote {} ({what})", path.display());
        }
        None => print!("{text}"),
    }
}

/// Parses a `--property-file`: `#` comment lines are skipped, optional `name:` and
/// `procs:` headers may precede the formula, and all remaining non-empty lines are
/// joined into one LTL formula (so long formulas can be wrapped).
fn read_property_file(path: &std::path::Path) -> (Option<String>, Option<usize>, String) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read `{}`: {e}", path.display());
            exit(1);
        }
    };
    let mut name = None;
    let mut procs = None;
    let mut formula_lines: Vec<&str> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if formula_lines.is_empty() {
            if let Some(value) = line.strip_prefix("name:") {
                name = Some(value.trim().to_string());
                continue;
            }
            if let Some(value) = line.strip_prefix("procs:") {
                match value.trim().parse::<usize>() {
                    Ok(n) if n > 0 => procs = Some(n),
                    _ => usage_error("property-file `procs:` expects a positive integer"),
                }
                continue;
            }
        }
        formula_lines.push(line);
    }
    if formula_lines.is_empty() {
        usage_error(&format!(
            "property file `{}` contains no formula",
            path.display()
        ));
    }
    (name, procs, formula_lines.join(" "))
}

/// Runs (or, with `--emit-dot property`, renders) a user-supplied LTL property
/// end-to-end: parse → workload generation → simulation under decentralized
/// monitors → verdicts and metrics, reported exactly like a registry scenario.
fn run_user_property(cli: &Cli) {
    if !cli.properties.is_empty() || cli.property_files.len() > 1 {
        run_user_fleet(cli);
        return;
    }
    let (name, file_procs, text) = match (&cli.property, cli.property_files.first()) {
        (Some(text), _) => (None, None, text.clone()),
        (None, Some(path)) => read_property_file(path),
        (None, None) => unreachable!("property mode requires a formula"),
    };
    let spec = parse_property_or_exit(name.as_deref().unwrap_or("custom"), &text);
    let procs = cli
        .procs
        .or(file_procs)
        .unwrap_or_else(|| spec.min_processes().max(2));
    if procs < spec.min_processes() {
        usage_error(&format!(
            "property `{}` names process P{}, so it needs --procs >= {}",
            spec.name(),
            spec.min_processes() - 1,
            spec.min_processes()
        ));
    }

    // Diagnostics over the compiled registry: silent harness-wiring surprises are
    // worth a warning before any verdict is reported.
    let compiled = CompiledProperty::compile(&spec, procs);
    {
        use dlrv_core::dlrv_ltl::{AtomLayout, AtomRegistry};
        let registry = &compiled.registry;
        // Atoms outside the `P<i>.<name>` convention default to process 0 — almost
        // always a typo (`P1ack` for `P1.ack`) in a CLI formula.
        for id in registry.ids() {
            let name = registry.name(id);
            if AtomRegistry::owner_from_name(name).is_none() {
                eprintln!(
                    "warning: atom `{name}` does not follow the `P<i>.<name>` \
                     convention; it is owned by process P0"
                );
            }
        }
        // Two workload channels exist per process, so a process owning 3+ atoms has
        // perfectly correlated atoms in every generated workload.
        let layout = AtomLayout::from_registry(registry, procs);
        for (process, _, atoms) in layout.aliased_atoms() {
            let names: Vec<&str> = atoms.iter().map(|&a| registry.name(a)).collect();
            eprintln!(
                "warning: atoms {} of process P{process} share one workload channel; \
                 the generated workloads will always set them to equal values",
                names.join(", ")
            );
        }
    }

    if cli.emit_dot.is_some() {
        // The analyzer's annotated rendering: same digraph, plus verdict-
        // reachability colors, dashed unreachable states and `(trap)` markers.
        write_output(cli, &analyze_to_dot(&compiled.spec, procs), "monitor automaton DOT");
        return;
    }

    let scenario = Scenario {
        name: format!("property-{procs}p"),
        description: format!(
            "User property `{}` on {procs} processes, paper-default workload",
            spec.ltl_source().unwrap_or(spec.name())
        ),
        family: ScenarioFamily::Custom,
        config: ExperimentConfig::paper_default(spec, procs),
        options: if cli.no_opt {
            MonitorOptions::ALL_OFF
        } else {
            MonitorOptions::default()
        },
        stream: None,
        deploy: None,
        fleet: None,
    };
    let results = vec![(scenario.clone(), scenario.run())];
    match cli.format {
        Format::Json => {
            let mut text = sweep_to_json(&results).to_string_pretty();
            text.push('\n');
            write_output(cli, &text, "1 scenario");
        }
        Format::Text => sweep_table("Custom property run", &results),
    }
}

/// `--properties A,B,C` / repeated `--property-file`: monitor a fleet of
/// properties in one streaming pass.  Every member shares the decoded events,
/// the interned vector clocks and the batched token transport; the reported
/// metrics include the measured amortization against running each member solo.
fn run_user_fleet(cli: &Cli) {
    let mut specs: Vec<PropertySpec> = Vec::new();
    for name in &cli.properties {
        let property =
            PaperProperty::from_name(name).expect("parse_cli validated the letters");
        specs.push(PropertySpec::paper(property));
    }
    let mut file_procs_max: Option<usize> = None;
    for path in &cli.property_files {
        let (name, file_procs, text) = read_property_file(path);
        specs.push(parse_property_or_exit(name.as_deref().unwrap_or("custom"), &text));
        if let Some(p) = file_procs {
            file_procs_max = Some(file_procs_max.map_or(p, |m| m.max(p)));
        }
    }
    let min_procs = specs.iter().map(PropertySpec::min_processes).max().unwrap_or(2).max(2);
    let procs = cli.procs.or(file_procs_max).unwrap_or(min_procs);
    if procs < min_procs {
        usage_error(&format!(
            "the fleet names process P{}, so it needs --procs >= {min_procs}",
            min_procs - 1
        ));
    }
    // Fleet members share one atom registry (events carry registry-relative
    // state bitmasks), so the combined atom count is bounded like a single
    // spec's — fail with a usage error rather than the library assert.
    {
        let mut reg = dlrv_core::dlrv_ltl::AtomRegistry::new();
        for spec in &specs {
            spec.build_in(&mut reg, procs);
        }
        if reg.len() > dlrv_core::MAX_SPEC_ATOMS {
            usage_error(&format!(
                "the fleet's properties name {} distinct atoms at {procs} processes; \
                 the shared-registry limit is {} (drop members or reduce --procs)",
                reg.len(),
                dlrv_core::MAX_SPEC_ATOMS
            ));
        }
    }
    let lead = specs[0].clone();
    let fleet = FleetParams::new(specs);
    let scenario = Scenario {
        name: format!("fleet-{}-{procs}p", fleet.joined_name()),
        description: format!(
            "User fleet of {} properties ({}) on {procs} processes, one streaming pass",
            fleet.len(),
            fleet.joined_name()
        ),
        family: ScenarioFamily::Fleet,
        config: ExperimentConfig {
            events_per_process: 6,
            seeds: vec![1],
            ..ExperimentConfig::paper_default(lead, procs)
        },
        options: if cli.no_opt {
            MonitorOptions::ALL_OFF
        } else {
            MonitorOptions::default()
        },
        stream: Some(StreamParams::sized(100, 4)),
        deploy: None,
        fleet: Some(fleet),
    };
    let results = vec![(scenario.clone(), scenario.run())];
    match cli.format {
        Format::Json => {
            let mut text = sweep_to_json(&results).to_string_pretty();
            text.push('\n');
            write_output(cli, &text, "1 fleet scenario");
        }
        Format::Text => fleet_table(&results),
    }
}

/// `--emit-dot NAME` for a registry scenario: synthesizes the scenario's monitor
/// automaton and prints it as Graphviz DOT.
fn emit_dot_for_scenario(name: &str, cli: &Cli) {
    let registry = ScenarioRegistry::standard();
    let Some(scenario) = registry.get(name) else {
        unknown_name_error(
            "scenario",
            name,
            registry.iter().map(|s| s.name.as_str()),
            "run --list-scenarios for the registry",
        );
    };
    write_output(
        cli,
        &analyze_to_dot(&scenario.config.property, scenario.config.n_processes),
        "monitor automaton DOT",
    );
}

/// Loads a benchmark results document for the measured-overhead join, exiting on
/// read/parse/schema errors exactly like `--validate-results`.
fn load_results_or_exit(path: &std::path::Path) -> Vec<ScenarioRecord> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read `{}`: {e}", path.display());
            exit(1);
        }
    };
    let parsed = match dlrv_core::dlrv_json::Json::parse(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: `{}` is not valid JSON: {e}", path.display());
            exit(1);
        }
    };
    match sweep_from_json(&parsed) {
        Ok(records) => records,
        Err(e) => {
            eprintln!(
                "error: `{}` does not match the results schema: {e}",
                path.display()
            );
            exit(1);
        }
    }
}

/// Runs `git` in the current directory, returning stdout on success.
fn git_stdout(args: &[&str]) -> Option<String> {
    let output = std::process::Command::new("git").args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// How many historical snapshots the trend charts go back (newest-first cap, so
/// a long-lived repository keeps the x axis readable).
const TREND_HISTORY_CAP: usize = 12;

/// The trend history of a results document: every git commit that touched it
/// (oldest first, capped at [`TREND_HISTORY_CAP`]), each parsed with the
/// in-tree schema parser, followed by the working-tree document as `current`.
/// Commits whose snapshot no longer parses (pre-schema history) are skipped;
/// without git the history is just the `current` point.
fn collect_history(path: &std::path::Path, current: &[ScenarioRecord]) -> Vec<TrendPoint> {
    let mut points: Vec<TrendPoint> = Vec::new();
    let path_str = path.to_string_lossy();
    // `git show REV:./PATH` resolves PATH relative to the current directory,
    // which is also what the `--results` flag is relative to.
    let rel = if path.is_absolute() {
        path_str.to_string()
    } else {
        format!("./{path_str}")
    };
    if let Some(log) = git_stdout(&["log", "--reverse", "--format=%H %h", "--", &path_str]) {
        let commits: Vec<(&str, &str)> = log
            .lines()
            .filter_map(|line| line.split_once(' '))
            .collect();
        let skip = commits.len().saturating_sub(TREND_HISTORY_CAP);
        for &(full, short) in &commits[skip..] {
            let Some(text) = git_stdout(&["show", &format!("{full}:{rel}")]) else {
                continue;
            };
            let Ok(parsed) = dlrv_core::dlrv_json::Json::parse(&text) else {
                continue;
            };
            let Ok(records) = sweep_from_json(&parsed) else {
                continue;
            };
            points.push(TrendPoint {
                label: short.to_string(),
                records,
            });
        }
    }
    points.push(TrendPoint {
        label: "current".to_string(),
        records: current.to_vec(),
    });
    points
}

/// `--target report`: render the benchmark document (default
/// `BENCH_results.json`, override with `--results`) plus its git history into
/// a markdown + SVG dashboard under `--out-dir` (default `report/`), with the
/// per-scenario monitor automata as Graphviz DOT alongside.
fn run_report(cli: &Cli) {
    let path = cli
        .results
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_results.json"));
    let records = load_results_or_exit(&path);
    let history = collect_history(&path, &records);
    let rendered = render_report(&records, &history);

    let out_dir = cli.out_dir.clone().unwrap_or_else(|| PathBuf::from("report"));
    let write = |rel: &str, text: &str| {
        let target = out_dir.join(rel);
        if let Some(parent) = target.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create `{}`: {e}", parent.display());
                exit(1);
            }
        }
        if let Err(e) = std::fs::write(&target, text) {
            eprintln!("error: cannot write `{}`: {e}", target.display());
            exit(1);
        }
    };
    write("REPORT.md", &rendered.markdown);
    for (file, svg) in &rendered.svgs {
        write(file, svg);
    }
    // One automaton rendering per scenario; identical (property, procs) pairs
    // synthesize once and share the DOT text.
    let mut dot_cache: Vec<((String, usize), String)> = Vec::new();
    let mut automata = 0usize;
    for r in &records {
        let key = (
            r.scenario.config.property.name().to_string(),
            r.scenario.config.n_processes,
        );
        let dot = match dot_cache.iter().find(|(k, _)| *k == key) {
            Some((_, dot)) => dot.clone(),
            None => {
                let dot =
                    analyze_to_dot(&r.scenario.config.property, r.scenario.config.n_processes);
                dot_cache.push((key, dot.clone()));
                dot
            }
        };
        write(&format!("dot/{}.dot", r.scenario.name), &dot);
        automata += 1;
    }
    println!(
        "wrote {} ({} scenarios, {} snapshots, {} charts, {} automata)",
        out_dir.join("REPORT.md").display(),
        records.len(),
        history.len(),
        rendered.svgs.len(),
        automata
    );
}

/// `--target analyze`: statically analyze the registry's scenarios — by default
/// the offline composition `sweep` runs; `--scenario` can select any member,
/// including throughput/overhead ones.
fn run_analyze_target(cli: &Cli) {
    let registry = ScenarioRegistry::standard();
    let scenarios: Vec<&Scenario> = registry
        .iter()
        .filter(|s| {
            if cli.scenarios.is_empty() {
                target_selects("sweep", s.family)
            } else {
                cli.scenarios.contains(&s.name)
            }
        })
        .collect();
    if scenarios.is_empty() {
        eprintln!("error: --scenario selected nothing for target `analyze`");
        exit(2);
    }
    // Scenario families reuse (property, process count) pairs; synthesize and
    // analyze each pair once, in parallel, then fan the results back out over the
    // scenario list.
    let mut unique: Vec<(&str, usize, &Scenario)> = Vec::new();
    for s in &scenarios {
        let key = (s.config.property.name(), s.config.n_processes);
        if !unique.iter().any(|&(name, n, _)| (name, n) == key) {
            unique.push((key.0, key.1, s));
        }
    }
    let analyses = parallel_map_indexed(unique.len(), dlrv_core::effective_jobs(), |i| {
        let (_, n, s) = unique[i];
        let mut analysis = analyze_spec(&s.config.property, n, cli.budget);
        analysis.findings.retain(|f| !cli.allow_lints.contains(&f.lint));
        analysis
    });
    let measured_records = cli.results.as_deref().map(load_results_or_exit);
    let records: Vec<AnalysisRecord> = scenarios
        .iter()
        .map(|s| {
            let key = (s.config.property.name(), s.config.n_processes);
            let idx = unique
                .iter()
                .position(|&(name, n, _)| (name, n) == key)
                .expect("every scenario maps to a unique-pair analysis");
            let analysis = analyses[idx].clone();
            let measured = measured_records
                .as_deref()
                .and_then(|r| measured_overhead_for(&analysis, r));
            AnalysisRecord { scenario: Some(s.name.clone()), analysis, measured }
        })
        .collect();
    report_analyses(&records, cli);
}

/// `--analyze-property VALUE`: statically analyze one ad-hoc property.  `VALUE`
/// is LTL text, or the path of a `--property-file`-style file (detected by
/// existence on disk).
fn run_analyze_property(value: &str, cli: &Cli) {
    let path = std::path::Path::new(value);
    let (name, file_procs, text) = if path.exists() {
        read_property_file(path)
    } else {
        (None, None, value.to_string())
    };
    let spec = parse_property_or_exit(name.as_deref().unwrap_or("custom"), &text);
    // No minimum-process check here (unlike `--property` runs): analyzing a spec
    // at a too-small count is exactly what `DLRV-C001` reports.
    let procs = cli
        .procs
        .or(file_procs)
        .unwrap_or_else(|| spec.min_processes().max(2));
    let mut analysis = analyze_spec(&spec, procs, cli.budget);
    analysis.findings.retain(|f| !cli.allow_lints.contains(&f.lint));
    let measured = cli
        .results
        .as_deref()
        .map(load_results_or_exit)
        .as_deref()
        .and_then(|r| measured_overhead_for(&analysis, r));
    let records = vec![AnalysisRecord { scenario: None, analysis, measured }];
    report_analyses(&records, cli);
}

/// Reports analyses in the requested format, then applies the `--deny` gate.
fn report_analyses(records: &[AnalysisRecord], cli: &Cli) {
    match cli.format {
        Format::Json => {
            let mut text = analyses_to_json(records).to_string_pretty();
            text.push('\n');
            write_output(cli, &text, &format!("{} analyses", records.len()));
        }
        Format::Text => analyze_table(records),
    }
    enforce_deny(records, cli);
}

/// Exits non-zero when any reported finding matches the `--deny` gate (a severity
/// floor, specific lint IDs, or both).
fn enforce_deny(records: &[AnalysisRecord], cli: &Cli) {
    if cli.deny_level.is_none() && cli.deny_lints.is_empty() {
        return;
    }
    let denied = records
        .iter()
        .flat_map(|r| &r.analysis.findings)
        .filter(|f| {
            cli.deny_level.is_some_and(|level| f.severity >= level)
                || cli.deny_lints.contains(&f.lint)
        })
        .count();
    if denied > 0 {
        eprintln!("error: {denied} finding(s) rejected by --deny");
        exit(1);
    }
}

/// The human analysis table: one row per analyzed entry, predicted decentralization
/// cost next to the measured numbers (when `--results` joined any), findings
/// detailed below with source carets.
fn analyze_table(records: &[AnalysisRecord]) {
    println!("== Static property analysis ({} entries) ==", records.len());
    println!(
        "{:<18} {:<10} {:>5} {:<16} {:>6} {:>6} {:>7} {:>6} {:>11} {:>11} {:<8}",
        "scenario",
        "property",
        "procs",
        "class",
        "states",
        "reach",
        "alpha",
        "fanout",
        "pred.msg/ev",
        "meas.msg/ev",
        "findings"
    );
    for r in records {
        let a = &r.analysis;
        let reach = a.reachable.iter().filter(|&&x| x).count();
        let fanout = a.cost.token_fanout.iter().copied().max().unwrap_or(0);
        let meas = r
            .measured
            .as_ref()
            .map(|m| format!("{:.2}", m.msgs_per_event))
            .unwrap_or_else(|| "-".to_string());
        let errors = a.count_at_least(Severity::Error);
        let warns = a.count_at_least(Severity::Warn) - errors;
        let infos = a.findings.len() - errors - warns;
        println!(
            "{:<18} {:<10} {:>5} {:<16} {:>6} {:>6} {:>7} {:>6} {:>11} {:>11} {}E/{}W/{}I",
            r.scenario.as_deref().unwrap_or("-"),
            a.name,
            a.n_processes,
            a.classification.name(),
            a.synthesis.states,
            reach,
            a.synthesis.alphabet_size,
            fanout,
            a.cost.max_messages_per_event,
            meas,
            errors,
            warns,
            infos,
        );
    }
    println!();
    for r in records {
        let a = &r.analysis;
        if a.findings.is_empty() {
            continue;
        }
        println!(
            "-- {} ({} procs):",
            r.scenario.as_deref().unwrap_or(&a.name),
            a.n_processes
        );
        for f in &a.findings {
            print_finding(f, a.ltl.as_deref());
        }
    }
}

/// One finding line; findings with a span get the parser-style caret under the
/// echoed LTL source.
fn print_finding(finding: &Finding, ltl: Option<&str>) {
    println!("  {finding}");
    if let (Some(span), Some(text)) = (finding.span, ltl) {
        let start = span.start.min(text.len());
        let width = span.end.saturating_sub(span.start).max(1);
        println!("    | {text}");
        println!("    | {}{}", " ".repeat(start), "^".repeat(width));
    }
}

/// One simulated data point per (property, process count) under the paper-default
/// workload parameters.
///
/// Configurations are independent simulations, so the sweep fans out across worker
/// threads (bounded by `--jobs`); collecting by index keeps the output order — and
/// every metric in it — identical to the sequential sweep.
fn run_sweep() -> Vec<(PaperProperty, usize, RunMetrics)> {
    let points: Vec<(PaperProperty, usize)> = PaperProperty::ALL
        .into_iter()
        .flat_map(|property| PROCESS_COUNTS.map(|n| (property, n)))
        .collect();
    parallel_map_indexed(points.len(), dlrv_core::effective_jobs(), |i| {
        let (property, n) = points[i];
        (property, n, paper_run(property, n, EVENTS))
    })
}

fn list_scenarios() {
    let registry = ScenarioRegistry::standard();
    println!("== Scenario registry ({} scenarios) ==", registry.len());
    // Per-family counts first (registry order), so the registry's shape is
    // visible without scrolling the full listing.
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for scenario in &registry {
        match counts.iter_mut().find(|(name, _)| *name == scenario.family.name()) {
            Some((_, count)) => *count += 1,
            None => counts.push((scenario.family.name(), 1)),
        }
    }
    let summary: Vec<String> = counts.iter().map(|(name, n)| format!("{name}: {n}")).collect();
    println!("families: {}", summary.join(", "));
    println!();
    println!("{:<24} {:<16} description", "name", "family");
    for scenario in &registry {
        println!(
            "{:<24} {:<16} {}",
            scenario.name,
            scenario.family.name(),
            scenario.description
        );
    }
}

/// Runs one registry target — the offline `sweep`, the streaming `throughput`
/// family or the §4.3 `overhead` A/B family — honoring the `--scenario` filter and
/// the `--no-opt` override, and reports it in the requested format.
///
/// Offline scenarios are independent, so they fan out across worker threads exactly
/// like the figure sweep.  Throughput scenarios are *themselves* multi-threaded
/// (each spins up its shard pool), so they run sequentially: overlapping two engine
/// runs would corrupt each other's wall-clock and events/sec measurements.
/// Collection order is registry order either way, making both the text table and
/// the JSON document deterministic.
fn registry_target(target: &str, cli: &Cli) {
    let scenarios = select_scenarios(target, cli);
    let results = run_scenarios(&scenarios);
    match cli.format {
        Format::Json => {
            let mut text = sweep_to_json(&results).to_string_pretty();
            text.push('\n');
            write_output(cli, &text, &format!("{} scenarios", results.len()));
        }
        Format::Text if target == "throughput" => throughput_table(&results),
        Format::Text if target == "overhead" => overhead_table(&results),
        Format::Text if target == "custom" => sweep_table("Custom property scenarios", &results),
        Format::Text if target == "deploy" => deploy_table(&results),
        Format::Text if target == "fleet" => fleet_table(&results),
        Format::Text => sweep_table("Scenario sweep", &results),
    }
}

/// The scenarios one registry target runs, after the `--scenario` filter and the
/// `--no-opt` override.
fn select_scenarios(target: &str, cli: &Cli) -> Vec<Scenario> {
    let registry = ScenarioRegistry::standard();
    let scenarios: Vec<Scenario> = registry
        .iter()
        .filter(|s| target_selects(target, s.family))
        .filter(|s| cli.scenarios.is_empty() || cli.scenarios.contains(&s.name))
        .map(|s| {
            let mut s = s.clone();
            if cli.no_opt {
                // The escape hatch: the §4.3 suite off for every selected scenario.
                // The emitted record stays self-describing — its `options` object
                // carries the overridden (all-false) switches.
                s.options = dlrv_monitor::MonitorOptions::ALL_OFF;
            }
            if let (Some(fault), Some(params)) = (cli.fault, s.deploy.as_mut()) {
                // `--fault` swaps the shim spec of every selected deploy scenario;
                // the emitted record's `deploy` object carries the override.
                params.fault = if fault.is_noop() { None } else { Some(fault) };
            }
            s
        })
        .collect();
    if scenarios.is_empty() {
        // Only reachable via --scenario: every requested name filtered to another
        // registry target (parse_cli already rejected unknown names).
        eprintln!("error: --scenario selected nothing for target `{target}`");
        exit(2);
    }
    scenarios
}

/// Runs a scenario list, preserving its order in the output.
///
/// Offline scenarios are independent simulations and fan out across worker
/// threads.  Throughput scenarios are *themselves* multi-threaded (each spins up
/// its shard pool) and deploy scenarios spawn an OS-process fleet per run, so
/// both run sequentially: overlapping two engine runs would corrupt each other's
/// wall-clock and events/sec measurements.
fn run_scenarios(scenarios: &[Scenario]) -> Vec<(Scenario, ExperimentResult)> {
    let offline: Vec<usize> = (0..scenarios.len())
        .filter(|&i| scenarios[i].stream.is_none() && scenarios[i].deploy.is_none())
        .collect();
    let offline_results =
        parallel_map_indexed(offline.len(), dlrv_core::effective_jobs(), |k| {
            let i = offline[k];
            (i, (scenarios[i].clone(), scenarios[i].run()))
        });
    let mut results: Vec<Option<(Scenario, ExperimentResult)>> =
        (0..scenarios.len()).map(|_| None).collect();
    for (i, r) in offline_results {
        results[i] = Some(r);
    }
    for (i, s) in scenarios.iter().enumerate() {
        if s.stream.is_some() || s.deploy.is_some() {
            results[i] = Some((s.clone(), s.run()));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every scenario ran exactly once"))
        .collect()
}

/// `--format json` over several run targets at once: every selected scenario in
/// one combined results document — target order, registry order within each
/// target, each scenario at most once (`sweep` and `custom` overlap on the
/// custom family).
fn registry_targets_json(targets: &[&str], cli: &Cli) {
    let mut scenarios: Vec<Scenario> = Vec::new();
    for target in targets {
        for s in select_scenarios(target, cli) {
            if !scenarios.iter().any(|existing| existing.name == s.name) {
                scenarios.push(s);
            }
        }
    }
    let results = run_scenarios(&scenarios);
    let mut text = sweep_to_json(&results).to_string_pretty();
    text.push('\n');
    write_output(cli, &text, &format!("{} scenarios", results.len()));
}

/// The §4.3 A/B table: one row per overhead pair, optimizations on vs. off, with
/// the reduction each optimization suite achieves on the paper's three overhead
/// quantities (monitoring messages, queued events, peak global-view memory).
///
/// Unpaired scenarios (a `--scenario` filter naming only one member) are printed as
/// single rows so nothing is silently dropped.
fn overhead_table(results: &[(Scenario, ExperimentResult)]) {
    println!("== §4.3 optimization overhead A/B ({} scenarios) ==", results.len());
    println!(
        "{:<10} {:>6} {:>8} | {:>9} {:>9} {:>7} | {:>9} {:>9} | {:>9} {:>9} {:>7} | {:>10} {:>10}",
        "property",
        "procs",
        "events",
        "msgs:on",
        "msgs:off",
        "Δmsg%",
        "tok:on",
        "tok:off",
        "peakGV:on",
        "peakGV:off",
        "ΔGV%",
        "queued:on",
        "queued:off"
    );
    let find = |name: &str| results.iter().find(|(s, _)| s.name == name);
    let mut printed: Vec<&str> = Vec::new();
    for (scenario, _) in results {
        // Derive the pair root (`overhead-<P>`) and print each pair once.
        let root = scenario
            .name
            .rsplit_once('-')
            .map(|(root, _)| root)
            .unwrap_or(scenario.name.as_str());
        if printed.contains(&root) {
            continue;
        }
        printed.push(root);
        let on = find(&format!("{root}-opts"));
        let off = find(&format!("{root}-noopt"));
        let reduction = |on: usize, off: usize| -> String {
            if off == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", (off as f64 - on as f64) / off as f64 * 100.0)
            }
        };
        match (on, off) {
            (Some((s_on, r_on)), Some((_, r_off))) => {
                println!(
                    "{:<10} {:>6} {:>8} | {:>9} {:>9} {:>7} | {:>9} {:>9} | {:>9} {:>9} {:>7} | {:>10.2} {:>10.2}",
                    s_on.config.property.name(),
                    s_on.config.n_processes,
                    r_on.avg.total_events,
                    r_on.avg.monitor_messages,
                    r_off.avg.monitor_messages,
                    reduction(r_on.avg.monitor_messages, r_off.avg.monitor_messages),
                    r_on.avg.monitor_tokens,
                    r_off.avg.monitor_tokens,
                    r_on.avg.peak_global_views,
                    r_off.avg.peak_global_views,
                    reduction(r_on.avg.peak_global_views, r_off.avg.peak_global_views),
                    r_on.avg.avg_delayed_events,
                    r_off.avg.avg_delayed_events,
                );
            }
            _ => {
                let (s, r) = on.or(off).expect("root derived from a present scenario");
                println!(
                    "{:<10} {:>6} {:>8} | (unpaired `{}`: msgs={}, peakGV={})",
                    s.config.property.name(),
                    s.config.n_processes,
                    r.avg.total_events,
                    s.name,
                    r.avg.monitor_messages,
                    r.avg.peak_global_views,
                );
            }
        }
    }
    println!();
}

fn sweep_table(title: &str, results: &[(Scenario, ExperimentResult)]) {
    println!("== {title} ({} scenarios) ==", results.len());
    println!(
        "{:<18} {:<16} {:>6} {:>8} {:>10} {:>11} {:>13} {:>11} {:>8} {:>10}",
        "scenario",
        "family",
        "procs",
        "events",
        "mon.msgs",
        "glob.views",
        "delayed.evts",
        "delay%/GV",
        "wall s",
        "verdicts"
    );
    for (scenario, result) in results {
        let verdicts: Vec<&str> = result
            .detected_verdicts
            .iter()
            .map(|v| v.symbol())
            .collect();
        println!(
            "{:<18} {:<16} {:>6} {:>8} {:>10} {:>11} {:>13.2} {:>11.4} {:>8.3} {:>10}",
            scenario.name,
            scenario.family.name(),
            scenario.config.n_processes,
            result.avg.total_events,
            result.avg.monitor_messages,
            result.avg.total_global_views,
            result.avg.avg_delayed_events,
            result.avg.delay_time_pct_per_gv,
            result.avg.wall_clock_secs,
            verdicts.join(",")
        );
    }
    println!();
}

fn throughput_table(results: &[(Scenario, ExperimentResult)]) {
    println!(
        "== Streaming throughput ({} scenarios) ==",
        results.len()
    );
    println!(
        "{:<26} {:>8} {:>7} {:>9} {:>12} {:>8} {:>10} {:>9} {:>7}",
        "scenario",
        "sessions",
        "shards",
        "events",
        "events/sec",
        "wall s",
        "mon.msgs",
        "lat ms",
        "stalls"
    );
    for (scenario, result) in results {
        let params = scenario.stream.expect("throughput scenarios carry stream params");
        let m = &result.avg;
        let max_lat_ms = m
            .per_shard
            .iter()
            .map(|s| s.max_queue_latency_secs)
            .fold(0.0f64, f64::max)
            * 1e3;
        let stalls: usize = m.per_shard.iter().map(|s| s.backpressure_stalls).sum();
        println!(
            "{:<26} {:>8} {:>7} {:>9} {:>12.0} {:>8.3} {:>10} {:>9.2} {:>7}",
            scenario.name,
            params.n_sessions,
            params.n_shards,
            m.total_events,
            m.events_per_sec,
            m.wall_clock_secs,
            m.monitor_messages,
            max_lat_ms,
            stalls
        );
    }
    println!();
}

/// The fleet amortization table: one row per fleet scenario, the fleet pass's
/// wall clock against the solo-sum of its members (`amort` below 1.00x means
/// the shared decode/clock/transport paid for themselves), plus the measured
/// marginal wall-clock cost each added property contributes.
fn fleet_table(results: &[(Scenario, ExperimentResult)]) {
    println!("== Fleet monitoring ({} scenarios) ==", results.len());
    println!(
        "{:<24} {:>5} {:>7} {:>9} {:>12} {:>9} {:>9} {:>7} {:>11}  per-property verdicts",
        "scenario",
        "props",
        "shards",
        "events",
        "events/sec",
        "fleet s",
        "solo s",
        "amort",
        "marginal s"
    );
    for (scenario, result) in results {
        let m = &result.avg;
        let shards = scenario.stream.map_or(0, |p| p.n_shards);
        let amort = if m.fleet_solo_wall_clock_secs > 0.0 {
            format!("{:.2}x", m.wall_clock_secs / m.fleet_solo_wall_clock_secs)
        } else {
            "-".to_string()
        };
        let verdicts: Vec<String> = m
            .fleet_per_property
            .iter()
            .map(|p| format!("{}:{}", p.property, p.verdict))
            .collect();
        println!(
            "{:<24} {:>5} {:>7} {:>9} {:>12.0} {:>9.3} {:>9.3} {:>7} {:>11.4}  {}",
            scenario.name,
            m.fleet_size,
            shards,
            m.total_events,
            m.events_per_sec,
            m.wall_clock_secs,
            m.fleet_solo_wall_clock_secs,
            amort,
            m.fleet_marginal_cost_secs,
            verdicts.join(" ")
        );
    }
    println!();
}

/// The real-socket deployment table: one row per process-fleet run, with the
/// transport, the fault-shim spec (or `none` for clean channels) and the same
/// verdict/metric columns as the offline sweep so a deploy row can be eyeballed
/// against its in-process twin.
fn deploy_table(results: &[(Scenario, ExperimentResult)]) {
    println!("== Real-socket deployments ({} scenarios) ==", results.len());
    println!(
        "{:<20} {:<6} {:<34} {:>6} {:>8} {:>10} {:>8} {:>10}",
        "scenario", "trans", "fault", "procs", "events", "mon.msgs", "wall s", "verdicts"
    );
    for (scenario, result) in results {
        let params = scenario.deploy.expect("deploy scenarios carry deploy params");
        let fault = params
            .fault
            .map(|f| f.to_string())
            .unwrap_or_else(|| "none".to_string());
        let verdicts: Vec<&str> = result
            .detected_verdicts
            .iter()
            .map(|v| v.symbol())
            .collect();
        println!(
            "{:<20} {:<6} {:<34} {:>6} {:>8} {:>10} {:>8.3} {:>10}",
            scenario.name,
            params.transport.name(),
            fault,
            scenario.config.n_processes,
            result.avg.total_events,
            result.avg.monitor_messages,
            result.avg.wall_clock_secs,
            verdicts.join(",")
        );
    }
    println!();
}

fn table5_1() {
    println!("== Table 5.1 / Fig 5.1 — number of transitions per automaton ==");
    println!(
        "{:<10} {:>6} {:>8} {:>10} {:>11} {:>8}",
        "property", "procs", "total", "outgoing", "self-loops", "states"
    );
    for property in PaperProperty::ALL {
        for n in PROCESS_COUNTS {
            let row = transition_counts(property, n);
            println!(
                "{:<10} {:>6} {:>8} {:>10} {:>11} {:>8}",
                property.name(),
                n,
                row.total,
                row.outgoing,
                row.self_loops,
                row.states
            );
        }
    }
    println!();
}

fn automata_dot() {
    println!("== Fig 5.2 / 5.3 — monitor automata (DOT) ==");
    for (property, n) in [
        (PaperProperty::A, 2),
        (PaperProperty::B, 4),
        (PaperProperty::D, 2),
        (PaperProperty::E, 4),
        (PaperProperty::F, 2),
    ] {
        let (formula, registry) = property.build(n);
        let automaton = MonitorAutomaton::synthesize(&formula, &registry);
        println!("--- {} with {} processes ---", property, n);
        println!(
            "{}",
            dot::to_dot(&automaton, &registry, &format!("{property} ({n} procs)"))
        );
    }
}

fn print_metrics_header() {
    println!(
        "{:<10} {:>6} {:>8} {:>10} {:>11} {:>13} {:>11} {:>10}",
        "property", "procs", "events", "mon.msgs", "glob.views", "delayed.evts", "delay%/GV", "verdicts"
    );
}

fn print_metrics_row(property: PaperProperty, n: usize, m: &RunMetrics) {
    let verdicts: Vec<&str> = m
        .detected_final_verdicts
        .iter()
        .map(|v| v.symbol())
        .collect();
    println!(
        "{:<10} {:>6} {:>8} {:>10} {:>11} {:>13.2} {:>11.4} {:>10}",
        property.name(),
        n,
        m.total_events,
        m.monitor_messages,
        m.total_global_views,
        m.avg_delayed_events,
        m.delay_time_pct_per_gv,
        verdicts.join(",")
    );
}

fn messages_figure(
    title: &str,
    properties: &[PaperProperty],
    sweep: &[(PaperProperty, usize, RunMetrics)],
) {
    println!("== {title} ==");
    println!("(Commµ = 3 s, Commσ = 1 s, Evtµ = 3 s, Evtσ = 1 s, {EVENTS} events/process, 3 seeds)");
    print_metrics_header();
    for &(property, n, ref m) in sweep {
        if properties.contains(&property) {
            print_metrics_row(property, n, m);
        }
    }
    println!();
}

fn sweep_figure(title: &str, sweep: &[(PaperProperty, usize, RunMetrics)]) {
    println!("== {title} ==");
    print_metrics_header();
    for &(property, n, ref m) in sweep {
        print_metrics_row(property, n, m);
    }
    println!();
}

fn comm_frequency_figure() {
    println!("== Fig 5.9 — communication-frequency sweep (4 processes, property C) ==");
    println!(
        "{:<22} {:>8} {:>10} {:>11} {:>13} {:>11}",
        "configuration", "events", "mon.msgs", "glob.views", "delayed.evts", "delay%/GV"
    );
    for comm_mu in [Some(3.0), Some(6.0), Some(9.0), Some(15.0), None] {
        let m = comm_frequency_run(comm_mu, EVENTS);
        let label = match comm_mu {
            Some(mu) => format!("commMu={mu}, evtMu=3"),
            None => "no comm, evtMu=3".to_string(),
        };
        println!(
            "{:<22} {:>8} {:>10} {:>11} {:>13.2} {:>11.4}",
            label,
            m.total_events,
            m.monitor_messages,
            m.total_global_views,
            m.avg_delayed_events,
            m.delay_time_pct_per_gv
        );
    }
    println!();
}
