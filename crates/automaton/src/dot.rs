//! Graphviz (DOT) export of monitor automata, used to regenerate Figures 5.2 and 5.3
//! of the thesis (the monitor automata for properties A, B, D, E and F).

use crate::monitor::MonitorAutomaton;
use dlrv_ltl::{AtomRegistry, Verdict};
use std::fmt::Write as _;

/// Renders `automaton` as a DOT digraph.
///
/// States are drawn as circles named `q<i>`; the ⊥ state is named `q_bot`, the ⊤ state
/// `q_top`, matching the figures in the thesis.  Transition labels use the proposition
/// names from `registry`.
pub fn to_dot(automaton: &MonitorAutomaton, registry: &AtomRegistry, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{title}\" {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=circle];");
    let _ = writeln!(out, "  __init [shape=point, label=\"\"];");
    for s in 0..automaton.n_states() {
        let (name, shape) = state_name_shape(automaton, s);
        let _ = writeln!(
            out,
            "  s{s} [label=\"{name}\\n{}\", shape={shape}];",
            automaton.verdict(s).symbol()
        );
    }
    write_edges(&mut out, automaton, registry);
    let _ = writeln!(out, "}}");
    out
}

/// Writes the edges of `automaton`'s digraph: the arrow into the initial state,
/// then one edge per transition labelled with its guard over `registry`'s names.
pub fn write_edges(out: &mut String, automaton: &MonitorAutomaton, registry: &AtomRegistry) {
    let _ = writeln!(out, "  __init -> s{};", automaton.initial);
    for t in &automaton.transitions {
        let guard = t.guard.display(registry);
        let escaped = guard.replace('"', "\\\"");
        let _ = writeln!(out, "  s{} -> s{} [label=\"{escaped}\"];", t.from, t.to);
    }
}

/// The name and node shape of state `s`: `q_bot` / `q_top` double circles for the
/// final states, a `q<s>` circle otherwise.
pub fn state_name_shape(automaton: &MonitorAutomaton, s: usize) -> (String, &'static str) {
    match automaton.verdict(s) {
        Verdict::False => ("q_bot".to_string(), "doublecircle"),
        Verdict::True => ("q_top".to_string(), "doublecircle"),
        Verdict::Unknown => (format!("q{s}"), "circle"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitorAutomaton;
    use dlrv_ltl::{AtomRegistry, Formula};

    #[test]
    fn dot_output_contains_states_and_edges() {
        let mut reg = AtomRegistry::new();
        let p0 = reg.intern("P0.p", 0);
        let p1 = reg.intern("P1.p", 1);
        let phi = Formula::eventually(Formula::and(Formula::Atom(p0), Formula::Atom(p1)));
        let m = MonitorAutomaton::synthesize(&phi, &reg);
        let dot = to_dot(&m, &reg, "Property B (2 processes)");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("q_top"));
        assert!(dot.contains("P0.p"));
        assert!(dot.contains("->"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
