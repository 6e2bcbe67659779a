//! The analyzer's report type and its versioned JSON form.
//!
//! Mirrors the discipline of `BENCH_results.json` (`dlrv-core`'s results module):
//! a top-level envelope with `schema_version` and a `generator` tag, one record
//! per analyzed property, every field validated on the way back in.  The
//! `generator` is `"dlrv-analyze"`, which is how the in-tree validator
//! distinguishes analysis reports from benchmark sweeps.

use crate::classify::{MonitorabilityClass, StateClass};
use crate::finding::{Finding, Lint, Severity, Span};
use dlrv_automaton::{SynthesisReport, TransitionCounts};
use dlrv_json::{object, Json, JsonError};
use dlrv_ltl::Verdict;

/// Schema version of the analysis document, versioned on its own: additive
/// changes keep it, a removed or changed field bumps it.
pub const ANALYSIS_SCHEMA_VERSION: u64 = 2;

/// The `generator` tag of analysis documents.
pub const ANALYSIS_GENERATOR: &str = "dlrv-analyze";

/// Everything the analyzer derived about one compiled property.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyAnalysis {
    /// Spec name (paper letter or custom name).
    pub name: String,
    /// LTL source text, when the spec was parsed from text.
    pub ltl: Option<String>,
    /// The configured process count the analysis is for.
    pub n_processes: usize,
    /// The spec's monitorability class.
    pub classification: MonitorabilityClass,
    /// Per Moore state: its verdict output.
    pub verdicts: Vec<Verdict>,
    /// Per Moore state: its verdict-reachability class.
    pub state_classes: Vec<StateClass>,
    /// Per Moore state: reachable from the initial state?
    pub reachable: Vec<bool>,
    /// Construction-size statistics of the synthesis run.
    pub synthesis: SynthesisReport,
    /// All diagnostics, catalog order not guaranteed; sorted by severity
    /// descending for display.
    pub findings: Vec<Finding>,
}

impl PropertyAnalysis {
    /// The most severe finding, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Number of findings at or above `severity`.
    pub fn count_at_least(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity >= severity)
            .count()
    }
}

/// One entry of an analysis document: the analysis plus optional provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRecord {
    /// The registry scenario this analysis corresponds to, when run via
    /// `--target analyze` (None for ad-hoc `--analyze-property` runs).
    pub scenario: Option<String>,
    /// The analysis itself.
    pub analysis: PropertyAnalysis,
}

fn synthesis_to_json(r: &SynthesisReport) -> Json {
    object([
        ("n_atoms", Json::from(r.n_atoms)),
        ("alphabet_size", Json::from(r.alphabet_size)),
        ("gba_nodes_pos", Json::from(r.gba_nodes_pos)),
        ("gba_nodes_neg", Json::from(r.gba_nodes_neg)),
        ("dfa_states_pos", Json::from(r.dfa_states_pos)),
        ("dfa_states_neg", Json::from(r.dfa_states_neg)),
        ("product_states", Json::from(r.product_states)),
        ("states", Json::from(r.states)),
        ("transitions_total", Json::from(r.transitions.total)),
        ("transitions_outgoing", Json::from(r.transitions.outgoing)),
        (
            "transitions_self_loops",
            Json::from(r.transitions.self_loops),
        ),
        ("max_cubes_per_state", Json::from(r.max_cubes_per_state)),
    ])
}

fn synthesis_from_json(v: &Json) -> Result<SynthesisReport, JsonError> {
    Ok(SynthesisReport {
        n_atoms: v.get("n_atoms")?.as_usize()?,
        alphabet_size: v.get("alphabet_size")?.as_usize()?,
        gba_nodes_pos: v.get("gba_nodes_pos")?.as_usize()?,
        gba_nodes_neg: v.get("gba_nodes_neg")?.as_usize()?,
        dfa_states_pos: v.get("dfa_states_pos")?.as_usize()?,
        dfa_states_neg: v.get("dfa_states_neg")?.as_usize()?,
        product_states: v.get("product_states")?.as_usize()?,
        states: v.get("states")?.as_usize()?,
        transitions: TransitionCounts {
            total: v.get("transitions_total")?.as_usize()?,
            outgoing: v.get("transitions_outgoing")?.as_usize()?,
            self_loops: v.get("transitions_self_loops")?.as_usize()?,
        },
        max_cubes_per_state: v.get("max_cubes_per_state")?.as_usize()?,
    })
}

fn finding_to_json(f: &Finding) -> Json {
    object([
        ("id", Json::from(f.lint.id())),
        ("severity", Json::from(f.severity.name())),
        ("message", Json::from(f.message.clone())),
        (
            "span",
            match f.span {
                Some(span) => Json::Array(vec![Json::from(span.start), Json::from(span.end)]),
                None => Json::Null,
            },
        ),
    ])
}

fn finding_from_json(v: &Json) -> Result<Finding, JsonError> {
    let id = v.get("id")?.as_str()?;
    let lint =
        Lint::from_id(id).ok_or_else(|| JsonError::msg(format!("unknown lint id `{id}`")))?;
    let severity_name = v.get("severity")?.as_str()?;
    let severity = Severity::from_name(severity_name)
        .ok_or_else(|| JsonError::msg(format!("unknown severity `{severity_name}`")))?;
    let span = match v.get("span")? {
        Json::Null => None,
        pair => {
            let pair = pair.as_array()?;
            if pair.len() != 2 {
                return Err(JsonError::msg("span must be a [start, end] pair"));
            }
            Some(Span {
                start: pair[0].as_usize()?,
                end: pair[1].as_usize()?,
            })
        }
    };
    Ok(Finding {
        lint,
        severity,
        message: v.get("message")?.as_str()?.to_string(),
        span,
    })
}

fn analysis_to_json(a: &PropertyAnalysis) -> Json {
    let states = (0..a.verdicts.len())
        .map(|s| {
            object([
                ("verdict", Json::from(a.verdicts[s].name())),
                ("class", Json::from(a.state_classes[s].name())),
                ("reachable", Json::from(a.reachable[s])),
            ])
        })
        .collect();
    object([
        ("name", Json::from(a.name.clone())),
        ("ltl", a.ltl.clone().map(Json::from).unwrap_or(Json::Null)),
        ("n_processes", Json::from(a.n_processes)),
        ("classification", Json::from(a.classification.name())),
        ("states", Json::Array(states)),
        ("synthesis", synthesis_to_json(&a.synthesis)),
        (
            "findings",
            Json::Array(a.findings.iter().map(finding_to_json).collect()),
        ),
    ])
}

fn analysis_from_json(v: &Json) -> Result<PropertyAnalysis, JsonError> {
    let class_name = v.get("classification")?.as_str()?;
    let classification = MonitorabilityClass::from_name(class_name)
        .ok_or_else(|| JsonError::msg(format!("unknown classification `{class_name}`")))?;
    let mut verdicts = Vec::new();
    let mut state_classes = Vec::new();
    let mut reachable = Vec::new();
    for state in v.get("states")?.as_array()? {
        let name = state.get("verdict")?.as_str()?;
        verdicts.push(
            Verdict::from_name(name)
                .ok_or_else(|| JsonError::msg(format!("unknown verdict `{name}`")))?,
        );
        let name = state.get("class")?.as_str()?;
        state_classes.push(
            StateClass::from_name(name)
                .ok_or_else(|| JsonError::msg(format!("unknown state class `{name}`")))?,
        );
        reachable.push(state.get("reachable")?.as_bool()?);
    }
    Ok(PropertyAnalysis {
        name: v.get("name")?.as_str()?.to_string(),
        ltl: match v.get("ltl")? {
            Json::Null => None,
            text => Some(text.as_str()?.to_string()),
        },
        n_processes: v.get("n_processes")?.as_usize()?,
        classification,
        verdicts,
        state_classes,
        reachable,
        synthesis: synthesis_from_json(v.get("synthesis")?)?,
        findings: v
            .get("findings")?
            .as_array()?
            .iter()
            .map(finding_from_json)
            .collect::<Result<_, _>>()?,
    })
}

/// Serializes analysis records into the analysis document.
pub fn analyses_to_json(records: &[AnalysisRecord]) -> Json {
    let entries = records
        .iter()
        .map(|r| {
            object([
                (
                    "scenario",
                    r.scenario.clone().map(Json::from).unwrap_or(Json::Null),
                ),
                ("analysis", analysis_to_json(&r.analysis)),
            ])
        })
        .collect();
    object([
        ("schema_version", Json::from(ANALYSIS_SCHEMA_VERSION)),
        ("generator", Json::from(ANALYSIS_GENERATOR)),
        ("analyses", Json::Array(entries)),
    ])
}

/// Parses and validates an analysis document of the current schema version.
pub fn analyses_from_json(doc: &Json) -> Result<Vec<AnalysisRecord>, JsonError> {
    let version = doc.get("schema_version")?.as_u64()?;
    if version != ANALYSIS_SCHEMA_VERSION {
        return Err(JsonError::msg(format!(
            "unsupported analysis schema version {version} (expected {ANALYSIS_SCHEMA_VERSION})"
        )));
    }
    let generator = doc.get("generator")?.as_str()?;
    if generator != ANALYSIS_GENERATOR {
        return Err(JsonError::msg(format!(
            "unexpected generator `{generator}` (expected `{ANALYSIS_GENERATOR}`)"
        )));
    }
    doc.get("analyses")?
        .as_array()?
        .iter()
        .map(|entry| {
            Ok(AnalysisRecord {
                scenario: match entry.get("scenario")? {
                    Json::Null => None,
                    name => Some(name.as_str()?.to_string()),
                },
                analysis: analysis_from_json(entry.get("analysis")?)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisInput, Budget};
    use dlrv_automaton::MonitorAutomaton;
    use dlrv_ltl::{parse, Assignment, AtomRegistry};

    fn sample(text: &str) -> PropertyAnalysis {
        let mut registry = AtomRegistry::new();
        let formula = parse(text, &mut registry).expect("parses");
        let (automaton, synthesis) = MonitorAutomaton::synthesize_with_report(&formula, &registry);
        analyze(&AnalysisInput {
            name: "sample",
            ltl_source: Some(text),
            formula: &formula,
            registry: &registry,
            automaton: &automaton,
            synthesis,
            n_processes: registry.process_count().max(1),
            initial_gstate: Assignment::ALL_FALSE,
            budget: Budget::default(),
        })
    }

    #[test]
    fn analysis_document_round_trips() {
        let records = vec![
            AnalysisRecord {
                scenario: Some("paper-A-n2".to_string()),
                analysis: sample("G (P0.p U (P1.p && P1.q))"),
            },
            AnalysisRecord {
                scenario: None,
                analysis: sample("G (P0.req -> F P1.ack)"),
            },
        ];
        let doc = analyses_to_json(&records);
        let text = doc.to_string_pretty();
        let back = analyses_from_json(&Json::parse(&text).expect("valid JSON"))
            .expect("schema round-trip");
        assert_eq!(back, records);
    }

    /// `doc` with its top-level field `key` replaced by `value`.
    fn with_field(mut doc: Json, key: &str, value: Json) -> Json {
        if let Json::Object(fields) = &mut doc {
            if let Some((_, v)) = fields.iter_mut().find(|(k, _)| k == key) {
                *v = value;
            }
        }
        doc
    }

    #[test]
    fn wrong_generator_is_rejected() {
        let doc = with_field(
            analyses_to_json(&[]),
            "generator",
            Json::from("dlrv-experiments"),
        );
        assert!(analyses_from_json(&doc).is_err());
    }

    #[test]
    fn a_version_1_document_is_rejected_naming_both_versions() {
        let doc = with_field(analyses_to_json(&[]), "schema_version", Json::from(1u64));
        let err = analyses_from_json(&doc).expect_err("version 1 carried cost predictions");
        let message = err.to_string();
        assert!(message.contains("version 1"), "{message}");
        assert!(message.contains("expected 2"), "{message}");
    }
}
