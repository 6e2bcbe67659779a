//! `--target report`: the dashboard over a results document and its git history.

use super::validate::{load_results, parse_document, Document};
use super::{Cli, CliError};
use dlrv_core::{analyze_to_dot, render_report, ScenarioRecord, TrendPoint};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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
fn collect_history(path: &Path, current: &[ScenarioRecord]) -> Vec<TrendPoint> {
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
            let snapshot = git_stdout(&["show", &format!("{full}:{rel}")])
                .and_then(|text| parse_document(short, &text).ok());
            if let Some(Document::Results(records)) = snapshot {
                points.push(TrendPoint {
                    label: short.to_string(),
                    records,
                });
            }
        }
    }
    points.push(TrendPoint {
        label: "current".to_string(),
        records: current.to_vec(),
    });
    points
}

/// `--target report`: render the results document (default `BENCH_results.json`,
/// override with `--results`) plus its git history into a markdown + SVG
/// dashboard under `--out-dir` (default `report/`), with the per-scenario monitor
/// automata as Graphviz DOT alongside.
pub fn run_report(cli: &Cli) -> Result<(), CliError> {
    let path = cli
        .results
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_results.json"));
    let records = load_results(&path)?;
    let history = collect_history(&path, &records);
    let rendered = render_report(&records, &history);

    let out_dir = cli
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("report"));
    let write = |rel: &str, text: &str| {
        let target = out_dir.join(rel);
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent).map_err(|e| {
                CliError::failure(format!("cannot create `{}`: {e}", parent.display()))
            })?;
        }
        std::fs::write(&target, text)
            .map_err(|e| CliError::failure(format!("cannot write `{}`: {e}", target.display())))
    };
    write("REPORT.md", &rendered.markdown)?;
    for (file, svg) in &rendered.svgs {
        write(file, svg)?;
    }
    // One automaton rendering per scenario; identical (property, procs) pairs
    // synthesize once and share the DOT text.
    let mut dots: BTreeMap<(&str, usize), String> = BTreeMap::new();
    for r in &records {
        let config = &r.scenario.config;
        let dot = dots
            .entry((config.property.name(), config.n_processes))
            .or_insert_with(|| analyze_to_dot(&config.property, config.n_processes));
        write(&format!("dot/{}.dot", r.scenario.name), dot)?;
    }
    println!(
        "wrote {} ({} scenarios, {} snapshots, {} charts, {} automata)",
        out_dir.join("REPORT.md").display(),
        records.len(),
        history.len(),
        rendered.svgs.len(),
        records.len()
    );
    Ok(())
}
