//! Static analysis of property specifications — lint LTL specs, their monitor
//! automata and their deployment configuration before a single event is monitored.
//!
//! The PR 5 `PropertySpec` pipeline accepts arbitrary LTL, so a deployed spec can
//! be unsatisfiable, tautological, non-monitorable (its monitor answers `?`
//! forever, the failure mode LTL₃ exists to avoid), vacuous, or explosively large
//! — and without this crate the system only finds out at runtime, or never.
//! Everything this analyzer reports is derived *statically* from the synthesis
//! artifacts the pipeline already produces:
//!
//! * [`classify`] — per-state verdict reachability over the Moore machine and the
//!   Bauer–Leucker–Schallhart monitorability taxonomy (safety / co-safety /
//!   monitorable / non-monitorable / trivially-⊤/⊥);
//! * automaton hygiene — unreachable states, `?`-trap states, guard-cube
//!   overlap/exhaustiveness, construction-size budget ([`Budget`]);
//! * config lints — out-of-range atom owners, idle processes, initial channel
//!   values that decide the property at the first cut, aliased atoms.
//!
//! Diagnostics are [`finding::Finding`]s with stable IDs (`DLRV-M001`, …),
//! severities and optional spans into the LTL source; [`report`] gives the whole
//! thing a versioned JSON form, [`dot`] an annotated Graphviz rendering.

#![forbid(unsafe_code)]

pub mod classify;
pub mod dot;
pub mod finding;
pub mod report;

pub use classify::{MonitorabilityClass, StateClass, VerdictReachability};
pub use dot::to_dot_annotated;
pub use finding::{Finding, Lint, Severity, Span};
pub use report::{
    analyses_from_json, analyses_to_json, AnalysisRecord, PropertyAnalysis, ANALYSIS_GENERATOR,
    ANALYSIS_SCHEMA_VERSION,
};

use dlrv_automaton::{MonitorAutomaton, SynthesisReport};
use dlrv_ltl::{Assignment, AtomLayout, AtomRegistry, Formula, Verdict};

/// Construction-size budget: exceeding any bound raises `DLRV-A006`.
///
/// Defaults are sized so every registry scenario (up to 10 atoms / 1024 symbols at
/// five processes) passes, while the 12-atom ceiling of `MAX_SPEC_ATOMS` trips the
/// alphabet bound — the warning marks the zone where synthesis cost stops being
/// negligible, not where it becomes impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Max explicit alphabet size (`2^n_atoms`).
    pub max_alphabet: usize,
    /// Max minimized Moore states.
    pub max_states: usize,
    /// Max symbolic transitions.
    pub max_transitions: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_alphabet: 2048,
            max_states: 128,
            max_transitions: 1024,
        }
    }
}

/// Everything the analyzer looks at, borrowed from the caller's compilation.
#[derive(Debug, Clone)]
pub struct AnalysisInput<'a> {
    /// Spec name for the report.
    pub name: &'a str,
    /// LTL source text when the spec has one (enables source spans).
    pub ltl_source: Option<&'a str>,
    /// The monitored formula.
    pub formula: &'a Formula,
    /// Atom registry (names + ownership).
    pub registry: &'a AtomRegistry,
    /// The synthesized Moore machine.
    pub automaton: &'a MonitorAutomaton,
    /// Size statistics of the synthesis run.
    pub synthesis: SynthesisReport,
    /// The *configured* process count (may be below what the atoms require —
    /// that is exactly what `DLRV-C001` reports).
    pub n_processes: usize,
    /// The derived initial global state (initial channel values applied).
    pub initial_gstate: Assignment,
    /// Construction-size budget.
    pub budget: Budget,
}

/// Runs every analysis over one compiled property.
pub fn analyze(input: &AnalysisInput<'_>) -> PropertyAnalysis {
    let automaton = input.automaton;
    let reach = VerdictReachability::of(automaton);
    let classification = reach.classification(automaton);

    let mut findings = Vec::new();
    monitorability_lints(&mut findings, input, classification, &reach);
    hygiene_lints(&mut findings, input, &reach);
    config_lints(&mut findings, input);
    // Most severe first, then catalog order: the order tables and CI logs show.
    findings.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.lint.cmp(&b.lint)));

    PropertyAnalysis {
        name: input.name.to_string(),
        ltl: input.ltl_source.map(str::to_string),
        n_processes: input.n_processes,
        classification,
        verdicts: (0..automaton.n_states())
            .map(|s| automaton.verdict(s))
            .collect(),
        state_classes: reach.classes.clone(),
        reachable: reach.reachable.clone(),
        synthesis: input.synthesis,
        findings,
    }
}

/// Locates `name` in the spec's LTL source, yielding a caret span.
fn span_of(source: Option<&str>, name: &str) -> Option<Span> {
    source.and_then(|text| text.find(name)).map(|start| Span {
        start,
        end: start + name.len(),
    })
}

fn format_states(states: &[usize]) -> String {
    states
        .iter()
        .map(|s| format!("q{s}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn monitorability_lints(
    findings: &mut Vec<Finding>,
    input: &AnalysisInput<'_>,
    classification: MonitorabilityClass,
    reach: &VerdictReachability,
) {
    match classification {
        MonitorabilityClass::TriviallyFalse => findings.push(Finding::new(
            Lint::Unsatisfiable,
            "the formula is unsatisfiable: the monitor's initial verdict is already ⊥, \
             no execution can satisfy the property",
        )),
        MonitorabilityClass::TriviallyTrue => findings.push(Finding::new(
            Lint::Tautology,
            "the formula is a tautology: the monitor's initial verdict is already ⊤, \
             no execution can violate the property",
        )),
        MonitorabilityClass::NonMonitorable => {
            let traps = reach.trap_states();
            findings.push(Finding::new(
                Lint::NonMonitorable,
                format!(
                    "non-monitorable: state(s) {} can reach neither ⊤ nor ⊥ — once \
                     there, the monitor reports ? forever",
                    format_states(&traps)
                ),
            ));
        }
        _ => {}
    }

    // Vacuous atoms: in the formula, but no guard ever reads them.  Trivial specs
    // collapse every guard, so the per-atom lint would only echo M001/M002 there.
    if !classification.is_trivial() {
        for atom in input.formula.atoms() {
            let constrained = input
                .automaton
                .transitions
                .iter()
                .any(|t| t.guard.polarity_of(atom).is_some());
            if !constrained {
                let name = input.registry.name(atom);
                let mut finding = Finding::new(
                    Lint::VacuousAtom,
                    format!(
                        "atom `{name}` occurs in the formula but constrains no \
                         transition guard; the verdict never depends on it"
                    ),
                );
                if let Some(span) = span_of(input.ltl_source, name) {
                    finding = finding.with_span(span);
                }
                findings.push(finding);
            }
        }
    }
}

fn hygiene_lints(
    findings: &mut Vec<Finding>,
    input: &AnalysisInput<'_>,
    reach: &VerdictReachability,
) {
    let automaton = input.automaton;

    let unreachable = reach.unreachable_states();
    if !unreachable.is_empty() {
        findings.push(Finding::new(
            Lint::UnreachableState,
            format!(
                "{} monitor state(s) unreachable from the initial state: {}",
                unreachable.len(),
                format_states(&unreachable)
            ),
        ));
    }

    let traps = reach.trap_states();
    if !traps.is_empty() {
        findings.push(Finding::new(
            Lint::UnknownTrapState,
            format!(
                "?-trap state(s) {}: every future verdict from there is ?",
                format_states(&traps)
            ),
        ));
    }

    // Guard-cube overlap / determinism, per reachable state.
    let mut redundant_pairs = 0usize;
    let mut conflicts: Vec<String> = Vec::new();
    for s in 0..automaton.n_states() {
        if !reach.reachable[s] {
            continue;
        }
        let all = automaton.transitions_from(s);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                if a.guard.conjoin(&b.guard).is_some() {
                    if a.to == b.to {
                        redundant_pairs += 1;
                    } else {
                        conflicts.push(format!(
                            "q{}: `{}` vs `{}` target q{} and q{}",
                            s,
                            a.guard.display(input.registry),
                            b.guard.display(input.registry),
                            a.to,
                            b.to
                        ));
                    }
                }
            }
        }
    }
    if redundant_pairs > 0 {
        findings.push(Finding::new(
            Lint::OverlappingGuards,
            format!(
                "{redundant_pairs} overlapping guard-cube pair(s) agree on their \
                 target; the cover is redundant but sound"
            ),
        ));
    }
    if !conflicts.is_empty() {
        findings.push(Finding::new(
            Lint::ConflictingGuards,
            format!(
                "nondeterministic symbolic transitions: {}",
                conflicts.join("; ")
            ),
        ));
    }

    // Exhaustiveness: every reachable state must have a guard for every symbol.
    let mut holes: Vec<String> = Vec::new();
    for s in 0..automaton.n_states() {
        if !reach.reachable[s] {
            continue;
        }
        for sigma in Assignment::enumerate(automaton.n_atoms) {
            let covered = automaton
                .transitions_from(s)
                .iter()
                .any(|t| t.guard.eval(sigma));
            if !covered {
                holes.push(format!("q{s}"));
                break;
            }
        }
    }
    if !holes.is_empty() {
        findings.push(Finding::new(
            Lint::NonExhaustiveGuards,
            format!(
                "state(s) {} have no guard for some alphabet symbol; the symbolic \
                 relation is partial",
                holes.join(", ")
            ),
        ));
    }

    // Construction budget.
    let r = &input.synthesis;
    let budget = input.budget;
    let mut over: Vec<String> = Vec::new();
    if r.alphabet_size > budget.max_alphabet {
        over.push(format!(
            "alphabet {} > {} (2^{} symbols are enumerated explicitly)",
            r.alphabet_size, budget.max_alphabet, r.n_atoms
        ));
    }
    if r.states > budget.max_states {
        over.push(format!("{} states > {}", r.states, budget.max_states));
    }
    if r.transitions.total > budget.max_transitions {
        over.push(format!(
            "{} transitions > {}",
            r.transitions.total, budget.max_transitions
        ));
    }
    if !over.is_empty() {
        findings.push(Finding::new(
            Lint::ConstructionBudget,
            format!("construction budget exceeded: {}", over.join("; ")),
        ));
    }
}

fn config_lints(findings: &mut Vec<Finding>, input: &AnalysisInput<'_>) {
    let registry = input.registry;
    let automaton = input.automaton;

    // Atoms owned beyond the configured process count.
    let mut out_of_range: Vec<String> = Vec::new();
    for atom in registry.ids() {
        if registry.owner(atom) >= input.n_processes {
            out_of_range.push(registry.name(atom).to_string());
        }
    }
    if !out_of_range.is_empty() {
        let first_span = span_of(input.ltl_source, &out_of_range[0]);
        let mut finding = Finding::new(
            Lint::AtomOutOfRange,
            format!(
                "atom(s) {} are owned by processes outside the configured count of \
                 {}; their events can never be produced",
                out_of_range.join(", "),
                input.n_processes
            ),
        );
        if let Some(span) = first_span {
            finding = finding.with_span(span);
        }
        findings.push(finding);
    }

    // Processes that own nothing.
    let idle: Vec<String> = (0..input.n_processes)
        .filter(|&p| registry.atoms_of_process(p).is_empty())
        .map(|p| format!("P{p}"))
        .collect();
    if !idle.is_empty() {
        findings.push(Finding::new(
            Lint::IdleProcess,
            format!(
                "process(es) {} own no atoms; they generate events the monitors \
                 never read",
                idle.join(", ")
            ),
        ));
    }

    // Initial channel values that decide the property at the very first cut.
    if automaton.verdict(automaton.initial) == Verdict::Unknown {
        let after = automaton.step(automaton.initial, input.initial_gstate);
        if automaton.is_final(after) {
            findings.push(Finding::new(
                Lint::InitialCutDecides,
                format!(
                    "the derived initial channel values drive the monitor to {} at \
                     the first cut, before any event; check the formula's \
                     until-LHS / invariant polarity",
                    automaton.verdict(after).symbol()
                ),
            ));
        }
    }

    // Aliased atoms: 3+ atoms of one process on one workload channel.
    let effective = input.n_processes.max(registry.process_count()).max(1);
    let layout = AtomLayout::from_registry(registry, effective);
    for (process, channel, atoms) in layout.aliased_atoms() {
        let names: Vec<&str> = atoms.iter().map(|&a| registry.name(a)).collect();
        findings.push(Finding::new(
            Lint::AliasedAtoms,
            format!(
                "atoms {} of process P{process} share workload channel {channel:?} \
                 and can never change value independently",
                names.join(", ")
            ),
        ));
    }

    // Naming convention.
    for atom in registry.ids() {
        let name = registry.name(atom);
        if AtomRegistry::owner_from_name(name).is_none() {
            let mut finding = Finding::new(
                Lint::UnconventionalAtom,
                format!(
                    "atom `{name}` does not follow the P<i>.<name> ownership \
                     convention; it defaults to process P0"
                ),
            );
            if let Some(span) = span_of(input.ltl_source, name) {
                finding = finding.with_span(span);
            }
            findings.push(finding);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::parse;

    fn run(text: &str, n_processes: usize) -> PropertyAnalysis {
        let mut registry = AtomRegistry::new();
        let formula = parse(text, &mut registry).expect("parses");
        let (automaton, synthesis) = MonitorAutomaton::synthesize_with_report(&formula, &registry);
        analyze(&AnalysisInput {
            name: "test",
            ltl_source: Some(text),
            formula: &formula,
            registry: &registry,
            automaton: &automaton,
            synthesis,
            n_processes,
            initial_gstate: Assignment::ALL_FALSE,
            budget: Budget::default(),
        })
    }

    fn has_lint(a: &PropertyAnalysis, lint: Lint) -> bool {
        a.findings.iter().any(|f| f.lint == lint)
    }

    #[test]
    fn clean_spec_has_no_warnings_or_errors() {
        // `p U q` needs its LHS to hold initially (exactly what the spec layer's
        // derived initial channels provide), so hand the analyzer that state.
        let mut registry = AtomRegistry::new();
        let formula = parse("P0.p U P1.q", &mut registry).expect("parses");
        let (automaton, synthesis) = MonitorAutomaton::synthesize_with_report(&formula, &registry);
        let p = registry.lookup("P0.p").expect("registered");
        let a = analyze(&AnalysisInput {
            name: "test",
            ltl_source: Some("P0.p U P1.q"),
            formula: &formula,
            registry: &registry,
            automaton: &automaton,
            synthesis,
            n_processes: 2,
            initial_gstate: Assignment::from_true_atoms([p]),
            budget: Budget::default(),
        });
        assert_eq!(a.classification, MonitorabilityClass::Monitorable);
        assert!(
            a.max_severity().is_none_or(|s| s < Severity::Warn),
            "unexpected findings: {:?}",
            a.findings
        );
    }

    #[test]
    fn unsat_and_tautology_are_errors() {
        let a = run("G P0.p && F !P0.p", 1);
        assert_eq!(a.classification, MonitorabilityClass::TriviallyFalse);
        assert!(has_lint(&a, Lint::Unsatisfiable));
        assert_eq!(a.max_severity(), Some(Severity::Error));

        let a = run("F P0.p || G !P0.p", 1);
        assert_eq!(a.classification, MonitorabilityClass::TriviallyTrue);
        assert!(has_lint(&a, Lint::Tautology));
    }

    #[test]
    fn non_monitorable_spec_warns_with_trap_states() {
        let a = run("G (P0.req -> F P1.ack)", 2);
        assert_eq!(a.classification, MonitorabilityClass::NonMonitorable);
        assert!(has_lint(&a, Lint::NonMonitorable));
        assert!(has_lint(&a, Lint::UnknownTrapState));
        // Warnings, not errors: the monitor still runs, it is just weak.
        assert_eq!(a.max_severity(), Some(Severity::Warn));
    }

    #[test]
    fn vacuous_atom_is_flagged_with_a_span() {
        let text = "F P0.p && G (P1.q || !P1.q)";
        let a = run(text, 2);
        let f = a
            .findings
            .iter()
            .find(|f| f.lint == Lint::VacuousAtom)
            .expect("vacuous atom finding");
        let span = f.span.expect("span into the source");
        assert_eq!(&text[span.start..span.end], "P1.q");
    }

    #[test]
    fn out_of_range_atoms_and_idle_processes() {
        let a = run("F P4.p", 2);
        assert!(has_lint(&a, Lint::AtomOutOfRange));
        assert_eq!(a.max_severity(), Some(Severity::Error));

        let a = run("F (P0.p && P1.p)", 4);
        assert!(has_lint(&a, Lint::IdleProcess));
    }

    #[test]
    fn budget_exceeded_warns() {
        // A tiny bespoke budget keeps the test fast; the default budget is only
        // trippable by formulas whose synthesis takes seconds.
        let mut registry = AtomRegistry::new();
        let formula = parse("P0.p U P1.q", &mut registry).expect("parses");
        let (automaton, synthesis) = MonitorAutomaton::synthesize_with_report(&formula, &registry);
        let a = analyze(&AnalysisInput {
            name: "test",
            ltl_source: None,
            formula: &formula,
            registry: &registry,
            automaton: &automaton,
            synthesis,
            n_processes: 2,
            initial_gstate: Assignment::ALL_FALSE,
            budget: Budget {
                max_alphabet: 2,
                max_states: 1,
                max_transitions: 1,
            },
        });
        assert!(has_lint(&a, Lint::ConstructionBudget), "{:?}", a.findings);
        let f = a
            .findings
            .iter()
            .find(|f| f.lint == Lint::ConstructionBudget)
            .expect("budget finding");
        assert_eq!(f.severity, Severity::Warn);
        assert!(f.message.contains("alphabet"), "{}", f.message);
    }

    #[test]
    fn initial_cut_lint_fires_when_initial_state_decides() {
        // G P0.p with the channel starting false: the very first cut violates it.
        let mut registry = AtomRegistry::new();
        let formula = parse("G P0.p", &mut registry).expect("parses");
        let (automaton, synthesis) = MonitorAutomaton::synthesize_with_report(&formula, &registry);
        let a = analyze(&AnalysisInput {
            name: "test",
            ltl_source: Some("G P0.p"),
            formula: &formula,
            registry: &registry,
            automaton: &automaton,
            synthesis,
            n_processes: 1,
            initial_gstate: Assignment::ALL_FALSE,
            budget: Budget::default(),
        });
        assert!(a.findings.iter().any(|f| f.lint == Lint::InitialCutDecides));
    }

    #[test]
    fn findings_sort_most_severe_first() {
        let a = run("F P4.p", 2); // C001 error + C002 idle warn
        assert!(a.findings.len() >= 2);
        for pair in a.findings.windows(2) {
            assert!(pair[0].severity >= pair[1].severity);
        }
    }
}
