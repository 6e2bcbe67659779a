//! Analysis-annotated Graphviz export.
//!
//! Same digraph shape as `dlrv_automaton::dot::to_dot`, whose state names
//! (`q<i>` / `q_top` / `q_bot`) and guard-labelled edges it reuses, plus the
//! analyzer's verdict-reachability classes as node colors, dashed outlines for
//! unreachable states and a `(trap)` marker on `?`-traps — so a single glance at
//! the figure shows *why* a spec is or is not monitorable.

use crate::classify::StateClass;
use crate::report::PropertyAnalysis;
use dlrv_automaton::dot::{state_name_shape, write_edges};
use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::AtomRegistry;
use std::fmt::Write as _;

/// Fill color of a verdict-reachability class.
fn class_color(class: StateClass) -> &'static str {
    match class {
        StateClass::FinalTrue => "palegreen",
        StateClass::FinalFalse => "lightcoral",
        StateClass::BothReachable => "white",
        StateClass::OnlyTrueReachable => "honeydew",
        StateClass::OnlyFalseReachable => "mistyrose",
        StateClass::NeitherReachable => "lightgray",
    }
}

/// Renders `automaton` as a DOT digraph annotated with `analysis`.
///
/// The `analysis` must come from the same automaton (state counts are asserted).
pub fn to_dot_annotated(
    automaton: &MonitorAutomaton,
    registry: &AtomRegistry,
    analysis: &PropertyAnalysis,
    title: &str,
) -> String {
    assert_eq!(
        analysis.state_classes.len(),
        automaton.n_states(),
        "analysis does not match the automaton"
    );
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{title}\" {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(
        out,
        "  label=\"classification: {}\"; labelloc=t;",
        analysis.classification.name()
    );
    let _ = writeln!(out, "  node [shape=circle, style=filled];");
    let _ = writeln!(out, "  __init [shape=point, label=\"\", style=solid];");
    for s in 0..automaton.n_states() {
        let class = analysis.state_classes[s];
        let (name, shape) = state_name_shape(automaton, s);
        let marker = if class == StateClass::NeitherReachable {
            "\\n(trap)"
        } else {
            ""
        };
        let style = if analysis.reachable[s] {
            "filled"
        } else {
            "filled,dashed"
        };
        let _ = writeln!(
            out,
            "  s{s} [label=\"{name}\\n{}{marker}\", shape={shape}, \
             fillcolor=\"{}\", style=\"{style}\"];",
            automaton.verdict(s).symbol(),
            class_color(class)
        );
    }
    write_edges(&mut out, automaton, registry);
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisInput, Budget};
    use dlrv_ltl::{parse, Assignment};

    #[test]
    fn annotated_dot_marks_traps_and_keeps_the_plain_shape() {
        let mut registry = AtomRegistry::new();
        let formula = parse("G (P0.req -> F P1.ack)", &mut registry).expect("parses");
        let (automaton, synthesis) = MonitorAutomaton::synthesize_with_report(&formula, &registry);
        let analysis = analyze(&AnalysisInput {
            name: "reqack",
            ltl_source: Some("G (P0.req -> F P1.ack)"),
            formula: &formula,
            registry: &registry,
            automaton: &automaton,
            synthesis,
            n_processes: 2,
            initial_gstate: Assignment::ALL_FALSE,
            budget: Budget::default(),
        });
        let dot = to_dot_annotated(&automaton, &registry, &analysis, "reqack");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("(trap)"), "trap states must be marked: {dot}");
        assert!(dot.contains("classification: non_monitorable"), "{dot}");
        assert!(dot.contains("lightgray"), "traps are gray: {dot}");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn annotated_dot_keeps_guard_labels_and_colors_finals() {
        let mut registry = AtomRegistry::new();
        let formula = parse("F (P0.p && P1.p)", &mut registry).expect("parses");
        let (automaton, synthesis) = MonitorAutomaton::synthesize_with_report(&formula, &registry);
        let analysis = analyze(&AnalysisInput {
            name: "rendezvous",
            ltl_source: Some("F (P0.p && P1.p)"),
            formula: &formula,
            registry: &registry,
            automaton: &automaton,
            synthesis,
            n_processes: 2,
            initial_gstate: Assignment::ALL_FALSE,
            budget: Budget::default(),
        });
        let dot = to_dot_annotated(&automaton, &registry, &analysis, "rendezvous");
        assert!(dot.contains("P0.p"), "guards must use atom names: {dot}");
        assert!(
            dot.contains("q_top"),
            "⊤ state keeps its classic name: {dot}"
        );
        assert!(dot.contains("palegreen"), "⊤ state is green: {dot}");
        assert!(dot.contains("->"));
        assert!(!dot.contains("(trap)"), "co-safety has no traps: {dot}");
    }
}
