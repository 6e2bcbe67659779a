//! Reading documents back: the one place a results or analysis document is parsed,
//! and `--validate-results` on top of it.

use super::{Cli, CliError};
use dlrv_core::dlrv_analyze::{analyses_from_json, AnalysisRecord, ANALYSIS_GENERATOR};
use dlrv_core::dlrv_json::Json;
use dlrv_core::{sweep_from_json, ScenarioFamily, ScenarioRecord, Substrate};
use std::path::Path;

/// A parsed document; its `generator` tag says which.
pub(super) enum Document {
    /// A results document (`dlrv-experiments`), through `sweep_from_json`.
    Results(Vec<ScenarioRecord>),
    /// An analysis report (`dlrv-analyze`), through `analyses_from_json`.
    Analyses(Vec<AnalysisRecord>),
}

/// Parses the text of the document called `name` and checks it against the schema
/// its `generator` tag names, so CI needs no external JSON tooling.
pub(super) fn parse_document(name: &str, text: &str) -> Result<Document, CliError> {
    let json = Json::parse(text)
        .map_err(|e| CliError::failure(format!("`{name}` is not valid JSON: {e}")))?;
    let generator = json
        .get_opt("generator")
        .ok()
        .flatten()
        .and_then(|g| g.as_str().ok());
    if generator == Some(ANALYSIS_GENERATOR) {
        analyses_from_json(&json)
            .map(Document::Analyses)
            .map_err(|e| {
                CliError::failure(format!("`{name}` does not match the analysis schema: {e}"))
            })
    } else {
        sweep_from_json(&json).map(Document::Results).map_err(|e| {
            CliError::failure(format!("`{name}` does not match the results schema: {e}"))
        })
    }
}

/// Reads and parses the document at `path`.
pub(super) fn load_document(path: &Path) -> Result<Document, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::failure(format!("cannot read `{}`: {e}", path.display())))?;
    parse_document(&path.display().to_string(), &text)
}

/// Reads the results document at `path` (`--results`).
pub(super) fn load_results(path: &Path) -> Result<Vec<ScenarioRecord>, CliError> {
    match load_document(path)? {
        Document::Results(records) => Ok(records),
        Document::Analyses(_) => Err(CliError::failure(format!(
            "`{}` is an analysis report, not a results document",
            path.display()
        ))),
    }
}

/// Whether a record of `family` shows that its scenario really ran.  The evidence
/// is what the seed determines — events were monitored, the parameters of the
/// family's substrate were recorded, each run of a fleet has one metric slice per
/// member — never a timing, which the document does not carry.
fn really_ran(record: &ScenarioRecord, family: ScenarioFamily) -> bool {
    let (scenario, avg) = (&record.scenario, &record.avg);
    avg.total_events > 0
        && match family {
            ScenarioFamily::Throughput => matches!(scenario.substrate, Substrate::Streamed(_)),
            ScenarioFamily::Deploy => matches!(scenario.substrate, Substrate::Deployed(_)),
            ScenarioFamily::Fleet => {
                matches!(scenario.substrate, Substrate::Fleet(..))
                    && avg.fleet_size > 0
                    && !record.per_seed.is_empty()
                    && record
                        .per_seed
                        .iter()
                        .all(|run| run.fleet_per_property.len() == avg.fleet_size)
            }
            _ => true,
        }
}

/// `--validate-results PATH`: re-parses a document and fails on any syntax or
/// schema error; `--require-family` names scenario families that must be present
/// and must really have run (CI's guard against committing a document that
/// silently dropped a family).
pub fn validate_results(cli: &Cli) -> Result<(), CliError> {
    let path = cli
        .validate
        .as_deref()
        .expect("mode Validate carries a path");
    let name = path.display();
    match load_document(path)? {
        Document::Analyses(_) if !cli.require_family.is_empty() => Err(CliError::failure(format!(
            "--require-family applies to results documents; `{name}` is an analysis report"
        ))),
        Document::Analyses(records) => {
            let findings: usize = records.iter().map(|r| r.analysis.findings.len()).sum();
            println!(
                "{name}: valid analysis document ({} analyses, {findings} findings)",
                records.len()
            );
            Ok(())
        }
        Document::Results(records) => {
            for &family in &cli.require_family {
                let mut members = records
                    .iter()
                    .filter(|r| r.scenario.family == family)
                    .peekable();
                if members.peek().is_none() {
                    return Err(CliError::failure(format!(
                        "`{name}` contains no `{family}` scenarios"
                    )));
                }
                if let Some(idle) = members.find(|r| !really_ran(r, family)) {
                    return Err(CliError::failure(format!(
                        "`{name}`: `{family}` scenario `{}` never ran (no events monitored, or \
                         its stream/deploy/fleet parameters or per-property slices are missing); \
                         regenerate the family",
                        idle.scenario.name
                    )));
                }
            }
            let count = |on: fn(&Substrate) -> bool| {
                records.iter().filter(|r| on(&r.scenario.substrate)).count()
            };
            let streamed = count(|s| s.stream().is_some());
            let deployed = count(|s| matches!(s, Substrate::Deployed(_)));
            println!(
                "{name}: valid results document ({} scenarios, {streamed} streamed, {deployed} deployed)",
                records.len()
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_core::{sweep_to_json, ScenarioRegistry, StreamParams};

    #[test]
    fn a_family_really_ran_only_with_events_and_its_parameters() {
        let mut scenario = ScenarioRegistry::standard()
            .get("fleet-AB-sh4")
            .expect("registered")
            .clone();
        scenario.config.events_per_process = 4;
        let Substrate::Fleet(stream, _) = &mut scenario.substrate else {
            unreachable!("a fleet scenario")
        };
        *stream = StreamParams::sized(4, 1);
        let text = sweep_to_json(&[(scenario.clone(), scenario.run())]).to_string_pretty();
        let Ok(Document::Results(records)) = parse_document("fresh", &text) else {
            panic!("a fresh document parses as results")
        };
        let record = &records[0];
        assert!(
            really_ran(record, ScenarioFamily::Fleet),
            "no timing is needed as evidence"
        );

        let mut idle = record.clone();
        idle.avg.total_events = 0;
        assert!(!really_ran(&idle, ScenarioFamily::Fleet));
        let mut sliceless = record.clone();
        sliceless.per_seed[0].fleet_per_property.pop();
        assert!(!really_ran(&sliceless, ScenarioFamily::Fleet));
        let mut unparameterized = record.clone();
        unparameterized.scenario.substrate = Substrate::Simulated;
        assert!(!really_ran(&unparameterized, ScenarioFamily::Throughput));
        assert!(!really_ran(record, ScenarioFamily::Deploy));
    }
}
