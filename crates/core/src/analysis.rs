//! Spec-level entry points into the static analyzer (`dlrv-analyze`).
//!
//! The analyzer itself sits below this crate (it knows formulas, automata and atom
//! ownership, not [`PropertySpec`]s), so this module does the elaboration it cannot:
//! building the spec at a *safe* process count even when the configured count is too
//! small (that misconfiguration must become lint `DLRV-C001`, not a panic) and
//! deriving the initial global state from the spec's initial channel values.

use crate::spec::PropertySpec;
use dlrv_analyze::{analyze, to_dot_annotated, AnalysisInput, Budget, PropertyAnalysis};
use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::{Assignment, AtomLayout, AtomRegistry};

/// Derives the initial global state a run of `spec` would start from: the spec's
/// initial channel values applied to every process's channel-bound atoms.
fn initial_global_state_for(
    spec: &PropertySpec,
    registry: &AtomRegistry,
    n_processes: usize,
) -> Assignment {
    let layout = AtomLayout::from_registry(registry, n_processes);
    let (p0, q0) = spec.initial_channels();
    let mut state = Assignment::ALL_FALSE;
    for process in 0..n_processes {
        layout.apply_channels(process, p0, q0, &mut state);
    }
    state
}

/// Elaborates `spec` at `max(n_processes, min_processes)`, synthesizes its monitor
/// and analyzes it as configured for `n_processes`; returns the analysis with the
/// automaton and registry it was derived from.
fn elaborate_and_analyze(
    spec: &PropertySpec,
    n_processes: usize,
    budget: Budget,
) -> (PropertyAnalysis, MonitorAutomaton, AtomRegistry) {
    let effective = n_processes.max(spec.min_processes());
    let (formula, registry) = spec.build(effective);
    let (automaton, synthesis) = MonitorAutomaton::synthesize_with_report(&formula, &registry);
    let initial_gstate = initial_global_state_for(spec, &registry, effective);
    let analysis = analyze(&AnalysisInput {
        name: spec.name(),
        ltl_source: spec.ltl_source(),
        formula: &formula,
        registry: &registry,
        automaton: &automaton,
        synthesis,
        n_processes,
        initial_gstate,
        budget,
    });
    (analysis, automaton, registry)
}

/// Statically analyzes `spec` as configured for `n_processes` processes.
///
/// Unlike [`PropertySpec::build`], this never panics on a too-small process count:
/// the spec is elaborated at `max(n_processes, min_processes)` and the analyzer
/// reports the mismatch as `DLRV-C001`.
pub fn analyze_spec(spec: &PropertySpec, n_processes: usize, budget: Budget) -> PropertyAnalysis {
    elaborate_and_analyze(spec, n_processes, budget).0
}

/// Analyzes `spec` and renders the annotated DOT export in one go.
///
/// This is the `--emit-dot` path: the synthesized monitor as a digraph with named
/// guards, plus verdict-reachability colors, dashed unreachable states and
/// `(trap)` markers.
pub fn analyze_to_dot(spec: &PropertySpec, n_processes: usize) -> String {
    let (analysis, automaton, registry) =
        elaborate_and_analyze(spec, n_processes, Budget::default());
    let effective = n_processes.max(spec.min_processes());
    to_dot_annotated(
        &automaton,
        &registry,
        &analysis,
        &format!("{} ({} procs)", spec.name(), effective),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::PaperProperty;
    use crate::scenario::ScenarioRegistry;
    use dlrv_analyze::{MonitorabilityClass, Severity};

    #[test]
    fn every_registry_scenario_analyzes_without_errors() {
        // The acceptance gate of `--target analyze --deny error`: the shipped
        // registry must be clean at error severity (warn/info findings are fine —
        // e.g. the request-response custom property is legitimately
        // non-monitorable and the analyzer must say so).
        //
        // Scenario families reuse (property, process-count) pairs, so analyze each
        // pair once; debug builds additionally skip the 10-atom five-process
        // giants (1024-symbol synthesis is minutes unoptimized) — CI's release
        // `--target analyze` run covers the full registry.
        let mut seen = std::collections::BTreeSet::new();
        for scenario in ScenarioRegistry::standard().iter() {
            let key = (
                scenario.config.property.name().to_string(),
                scenario.config.n_processes,
            );
            if !seen.insert(key) {
                continue;
            }
            if cfg!(debug_assertions) && scenario.config.n_processes >= 5 {
                continue;
            }
            let analysis = analyze_spec(
                &scenario.config.property,
                scenario.config.n_processes,
                Budget::default(),
            );
            let errors: Vec<_> = analysis
                .findings
                .iter()
                .filter(|f| f.severity >= Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "scenario {} has error findings: {errors:?}",
                scenario.name
            );
            assert!(
                !analysis.classification.is_trivial(),
                "scenario {} property is trivial: {:?}",
                scenario.name,
                analysis.classification
            );
        }
    }

    #[test]
    fn paper_properties_classify_sensibly() {
        // Property B is the rendezvous reachability property F(p0 && ... && pn):
        // co-safety.  Property A is an until-invariant: its violation is
        // detectable, ⊤ never is (safety).
        let b = analyze_spec(&PropertySpec::paper(PaperProperty::B), 2, Budget::default());
        assert_eq!(b.classification, MonitorabilityClass::CoSafety);
        let a = analyze_spec(&PropertySpec::paper(PaperProperty::A), 2, Budget::default());
        assert!(
            matches!(
                a.classification,
                MonitorabilityClass::Safety | MonitorabilityClass::Monitorable
            ),
            "{:?}",
            a.classification
        );
    }

    #[test]
    fn too_few_processes_lints_instead_of_panicking() {
        let spec = PropertySpec::parse("F (P2.p)").expect("valid LTL");
        let analysis = analyze_spec(&spec, 2, Budget::default());
        assert_eq!(analysis.n_processes, 2);
        assert!(analysis.findings.iter().any(|f| f.lint.id() == "DLRV-C001"));
    }

    #[test]
    fn annotated_dot_is_a_digraph_with_named_guards() {
        let spec = PropertySpec::paper(PaperProperty::B);
        let dot = analyze_to_dot(&spec, 2);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("P0.p"));
        assert!(dot.contains("q_top"));
        assert!(dot.contains("classification: co_safety"), "{dot}");
    }
}
