//! The static-analysis commands: `--target analyze` over the registry and
//! `--analyze-property` for one ad-hoc property, both ending in the `--deny` gate.

use super::args::target_selects;
use super::run::print_table;
use super::{emit_json, parse_property, read_property_file, Cli, CliError, Format};
use dlrv_core::dlrv_analyze::{analyses_to_json, AnalysisRecord, PropertyAnalysis};
use dlrv_core::tables::analysis_columns;
use dlrv_core::{analyze_spec, parallel_map_indexed, PropertySpec, Scenario, ScenarioRegistry};

/// Analyzes `spec` under the command line's `--budget` and `--allow`.
fn analyze(spec: &PropertySpec, procs: usize, cli: &Cli) -> PropertyAnalysis {
    let mut analysis = analyze_spec(spec, procs, cli.budget);
    analysis
        .findings
        .retain(|f| !cli.allow_lints.contains(&f.lint));
    analysis
}

/// `--target analyze`: statically analyze the registry's scenarios — by default
/// the offline composition `sweep` runs; `--scenario` can select any member,
/// including throughput/overhead ones.
pub fn run_analyze_target(cli: &Cli) -> Result<(), CliError> {
    let registry = ScenarioRegistry::standard();
    let scenarios: Vec<&Scenario> = registry
        .iter()
        .filter(|s| match cli.scenarios.is_empty() {
            true => target_selects("sweep", s.family),
            false => cli.scenarios.contains(&s.name),
        })
        .collect();
    // Scenario families reuse (property, process count) pairs; synthesize and
    // analyze each pair once, in parallel, then fan the results back out over the
    // scenario list.
    let key = |s: &Scenario| (s.config.property.name().to_string(), s.config.n_processes);
    let mut unique: Vec<&Scenario> = Vec::new();
    for &s in &scenarios {
        if !unique.iter().any(|u| key(u) == key(s)) {
            unique.push(s);
        }
    }
    let analyses = parallel_map_indexed(unique.len(), dlrv_core::effective_jobs(), |i| {
        analyze(
            &unique[i].config.property,
            unique[i].config.n_processes,
            cli,
        )
    });
    let records: Vec<AnalysisRecord> = scenarios
        .iter()
        .map(|s| {
            let at = unique
                .iter()
                .position(|u| key(u) == key(s))
                .expect("every scenario maps to a unique-pair analysis");
            AnalysisRecord {
                scenario: Some(s.name.clone()),
                analysis: analyses[at].clone(),
            }
        })
        .collect();
    report_analyses(&records, cli)
}

/// `--analyze-property VALUE`: statically analyze one ad-hoc property.  `VALUE`
/// is LTL text, or the path of a `--property-file`-style file (detected by
/// existence on disk).
pub fn run_analyze_property(cli: &Cli) -> Result<(), CliError> {
    let value = cli
        .analyze_property
        .as_deref()
        .expect("mode AnalyzeProperty carries a value");
    let path = std::path::Path::new(value);
    let (name, file_procs, text) = if path.exists() {
        read_property_file(path)?
    } else {
        (None, None, value.to_string())
    };
    let spec = parse_property(name.as_deref().unwrap_or("custom"), &text)?;
    // No minimum-process check here (unlike `--property` runs): analyzing a spec
    // at a too-small count is exactly what `DLRV-C001` reports.
    let procs = cli
        .procs
        .or(file_procs)
        .unwrap_or_else(|| spec.min_processes().max(2));
    report_analyses(
        &[AnalysisRecord {
            scenario: None,
            analysis: analyze(&spec, procs, cli),
        }],
        cli,
    )
}

/// Reports analyses in the requested format, then applies the `--deny` gate: a
/// severity floor, specific lint IDs, or both.
fn report_analyses(records: &[AnalysisRecord], cli: &Cli) -> Result<(), CliError> {
    match cli.format {
        Format::Json => emit_json(
            cli,
            &analyses_to_json(records),
            &format!("{} analyses", records.len()),
        )?,
        Format::Text => print_analyses(records),
    }
    let denied = records
        .iter()
        .flat_map(|r| &r.analysis.findings)
        .filter(|f| {
            cli.deny_level.is_some_and(|level| f.severity >= level)
                || cli.deny_lints.contains(&f.lint)
        })
        .count();
    match denied {
        0 => Ok(()),
        _ => Err(CliError::failure(format!(
            "{denied} finding(s) rejected by --deny"
        ))),
    }
}

/// The human form: the analysis table, then every finding in detail — findings
/// with a span get the parser-style caret under the echoed LTL source.
fn print_analyses(records: &[AnalysisRecord]) {
    let title = format!("Static property analysis ({} entries)", records.len());
    print_table(&title, &analysis_columns(), records);
    println!();
    for r in records.iter().filter(|r| !r.analysis.findings.is_empty()) {
        let a = &r.analysis;
        println!(
            "-- {} ({} procs):",
            r.scenario.as_deref().unwrap_or(&a.name),
            a.n_processes
        );
        for finding in &a.findings {
            println!("  {finding}");
            if let (Some(span), Some(text)) = (finding.span, a.ltl.as_deref()) {
                let start = span.start.min(text.len());
                let width = span.end.saturating_sub(span.start).max(1);
                println!("    | {text}");
                println!("    | {}{}", " ".repeat(start), "^".repeat(width));
            }
        }
    }
}
