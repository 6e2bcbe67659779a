//! The `experiments` command line: regenerates every table and figure of the thesis'
//! evaluation chapter as text, and emits machine-readable results for the scenario
//! registry.  `src/bin/experiments.rs` is only `main`; everything it does is a
//! function here returning `Result<(), CliError>`.
//!
//! ```bash
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- table5_1
//! cargo run --release --bin experiments -- fig5_4 fig5_5 fig5_6 fig5_7 fig5_8 fig5_9
//! cargo run --release --bin experiments -- automata_dot
//! cargo run --release --bin experiments -- all --jobs 8
//! cargo run --release --bin experiments -- --list-scenarios
//! cargo run --release --bin experiments -- --target sweep
//! cargo run --release --bin experiments -- --target sweep --target throughput --target overhead --target deploy --target fleet --format json --out BENCH_results.json
//! cargo run --release --bin experiments -- --target sweep --scenario ring-B-n4
//! cargo run --release --bin experiments -- --target throughput --format json
//! cargo run --release --bin experiments -- --target deploy
//! cargo run --release --bin experiments -- --target deploy --scenario deploy-C-n3 --fault delay=1,dup=0.2
//! cargo run --release --bin experiments -- --target custom
//! cargo run --release --bin experiments -- --property 'G(P0.p U (P1.p && P2.p))' --procs 3
//! cargo run --release --bin experiments -- --property-file my_property.ltl --format json
//! cargo run --release --bin experiments -- --emit-dot paper-A-n2
//! cargo run --release --bin experiments -- --property 'F(P0.p && P1.p)' --emit-dot property
//! cargo run --release --bin experiments -- --validate-results BENCH_results.json --require-family throughput,fleet,deploy
//! cargo run --release --bin experiments -- --target analyze --deny error
//! cargo run --release --bin experiments -- --analyze-property 'G(P0.req -> F P1.ack)'
//! cargo run --release --bin experiments -- --target report
//! cargo run --release --bin experiments -- --target report --results thr.json --out-dir /tmp/dash
//! ```
//!
//! Targets select what to run: the classic figure/table targets print the paper's
//! text tables, `sweep` runs the offline scenarios of the standard registry
//! ([`ScenarioRegistry`](crate::ScenarioRegistry)) — the paper's sweeps plus the
//! extended workload shapes — `throughput` runs the streaming family
//! (hundreds–thousands of concurrent sessions through the sharded `dlrv-stream`
//! runtime), `deploy` runs the real-socket family (one `monitord` OS process per
//! monitor over TCP/Unix sockets, optionally through the fault-injection shim —
//! `--fault drop=p,delay=ms,dup=p,reorder=p` overrides the scenarios' shim spec;
//! probabilities lie in `[0, 1]` and the delay is at most 60 000 ms),
//! `fleet` runs the property-fleet family (N properties per session in one streamed
//! pass) and `custom` runs the registry's user-style LTL properties.  Targets are
//! positional arguments; `--target NAME` is an equivalent spelling.
//!
//! `--property 'LTL'` (or `--property-file PATH`, whose format allows `#` comments
//! plus optional `name:` / `procs:` headers before the formula) runs an arbitrary
//! user-supplied property end-to-end — workload generation, simulation,
//! decentralized monitoring, verdicts and metrics — on `--procs N` processes
//! (default: the smallest count the formula's `P<i>.<name>` atoms allow).  LTL
//! parse errors are reported with the offending byte offset under the echoed
//! formula, and unknown `--target` / `--scenario` / `--require-family` names
//! suggest the closest valid name.  `--emit-dot NAME` prints the synthesized LTL₃
//! monitor automaton of a registry scenario (or of the `--property` formula via
//! `--emit-dot property`) as Graphviz DOT instead of running anything; `--out`
//! redirects it to a file.
//!
//! `--scenario NAME[,NAME…]` restricts a registry target (`sweep`, `throughput`,
//! `overhead`, `custom`, `deploy`, `fleet`) to the named scenarios, so a single data
//! point can be (re)run without the whole sweep; unknown names and names outside
//! the requested target are rejected.
//!
//! `--target analyze` statically analyzes the registry's properties — no workload
//! runs — through the `dlrv-analyze` crate: monitorability classification, automaton
//! hygiene and configuration lints.
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
//! one document; the `analyze` target emits its own document
//! (`dlrv_analyze::report`) and must stand alone.  The document carries only what
//! the seeds determine — messages, tokens, views, queued events, simulated delay,
//! verdicts — so regenerating it reproduces the committed file byte for byte (CI
//! `cmp`s them); wall clock, rates and queue latency are shown in the text tables
//! only, and measured properly by `benchmark/run.sh`.
//! `--validate-results PATH` re-parses a results document with the in-tree parser
//! (`sweep_from_json`, or `analyses_from_json` when the document's `generator` is
//! `dlrv-analyze`) and fails loudly on schema drift; `--require-family NAME[,…]`
//! additionally fails unless the document contains scenarios of each named family
//! that really ran (events monitored, the family's stream / deploy / fleet
//! parameters recorded, one metric slice per fleet member).  Unknown formats,
//! `--out` without `--format json`, and `--format json` with a text-only target are
//! rejected with an error — nothing is silently ignored.
//!
//! `--target report` renders a results document (`--results PATH`, default the
//! committed `BENCH_results.json`) plus its git history into a dashboard under
//! `--out-dir DIR` (default `report/`): per-family markdown tables in
//! `REPORT.md`, SVG trend charts in `svg/` and per-scenario monitor automata in
//! `dot/`.  It runs no workloads and must stand alone — see
//! `docs/OBSERVABILITY.md`.
//!
//! `--jobs N` caps the worker threads used to fan out independent seeds and
//! configurations; the default uses every core.
//! Results are byte-identical for every thread count — each (property, process count,
//! seed) data point is a deterministic simulation collected in a fixed order.
//!
//! The numbers are produced by the discrete-event simulator that stands in for the
//! paper's iOS testbed (see `docs/ARCHITECTURE.md`), so absolute values differ from
//! the thesis; the shapes (growth trends, relative ordering of the properties) are
//! what carries over.
//!
//! Which flags go together is decided in [`args`]: the command line's [`Mode`] is
//! determined once, and one table says which modes each flag is legal in.

pub mod analyze;
pub mod args;
pub mod report;
pub mod run;
pub mod validate;

pub use args::{parse_cli, Cli, Format, Mode};

use dlrv_core::dlrv_json::Json;
use dlrv_core::{PropertySpec, PropertySpecError};
use std::path::Path;

/// Why a command failed: the process exit code and what to print on stderr.
#[derive(Debug)]
pub struct CliError {
    /// `2` for a command line that cannot be run, `1` for one that ran and failed.
    pub code: i32,
    /// The complete stderr text, without the final newline.
    pub message: String,
}

impl CliError {
    /// A command line that cannot be run: the reason, then the synopsis.
    pub fn usage(message: impl std::fmt::Display) -> Self {
        CliError {
            code: 2,
            message: format!("error: {message}\n{}", args::USAGE),
        }
    }

    /// A command that ran and failed (unreadable input, schema drift, a tripped gate).
    pub fn failure(message: impl std::fmt::Display) -> Self {
        CliError {
            code: 1,
            message: format!("error: {message}"),
        }
    }
}

/// Runs a parsed command line.
pub fn dispatch(cli: &Cli) -> Result<(), CliError> {
    match cli.mode {
        Mode::List => run::list_scenarios(),
        Mode::Validate => validate::validate_results(cli),
        Mode::Property | Mode::PropertyDot => run::run_user_property(cli),
        Mode::Fleet => run::run_user_fleet(cli),
        Mode::AnalyzeProperty => analyze::run_analyze_property(cli),
        Mode::EmitDot => run::emit_dot_for_scenario(cli),
        Mode::Report => report::run_report(cli),
        Mode::Run => run::run_targets(cli),
    }
}

/// Writes `text` to `--out` or stdout.
fn write_output(cli: &Cli, text: &str, what: &str) -> Result<(), CliError> {
    match cli.out.as_deref() {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| {
                CliError::failure(format!("cannot write `{}`: {e}", path.display()))
            })?;
            println!("wrote {} ({what})", path.display());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Writes a JSON document, pretty-printed and newline-terminated, to `--out` or
/// stdout.
fn emit_json(cli: &Cli, json: &Json, what: &str) -> Result<(), CliError> {
    let mut text = json.to_string_pretty();
    text.push('\n');
    write_output(cli, &text, what)
}

/// Parses LTL text into a named spec; a parse error is reported with a caret under
/// the offending byte offset of the echoed formula.
fn parse_property(name: &str, text: &str) -> Result<PropertySpec, CliError> {
    PropertySpec::parse_named(name, text).map_err(|e| {
        let message = match e {
            PropertySpecError::Parse(e) => format!(
                "error: cannot parse LTL property: {}\n  | {text}\n  | {}^ at byte offset {}",
                e.message,
                " ".repeat(e.position.min(text.len())),
                e.position
            ),
            other => format!("error: invalid property: {other}"),
        };
        CliError { code: 2, message }
    })
}

/// Parses a `--property-file`: `#` comment lines are skipped, optional `name:` and
/// `procs:` headers may precede the formula, and all remaining non-empty lines are
/// joined into one LTL formula (so long formulas can be wrapped).  Returns the
/// `name:` header, the `procs:` header and the formula.
fn read_property_file(path: &Path) -> Result<(Option<String>, Option<usize>, String), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::failure(format!("cannot read `{}`: {e}", path.display())))?;
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
                let complaint = "property-file `procs:` expects a positive integer";
                procs = Some(args::positive(value.trim(), complaint)?);
                continue;
            }
        }
        formula_lines.push(line);
    }
    if formula_lines.is_empty() {
        return Err(CliError::usage(format!(
            "property file `{}` contains no formula",
            path.display()
        )));
    }
    Ok((name, procs, formula_lines.join(" ")))
}
