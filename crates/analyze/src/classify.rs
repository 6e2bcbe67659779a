//! Verdict reachability and monitorability classification.
//!
//! For every Moore state the analyzer asks: starting here, can the monitor still
//! reach ⊤?  Can it still reach ⊥?  The four possible answers partition the state
//! space into [`StateClass`]es, and the classes of the *reachable* states determine
//! the spec's [`MonitorabilityClass`] — the LTL₃ taxonomy of Bauer–Leucker–
//! Schallhart: a property is monitorable iff no reachable state is a `?`-trap
//! (a state whose futures are all inconclusive).

use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::Verdict;

/// Verdict-reachability class of one Moore state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateClass {
    /// The ⊤ sink itself.
    FinalTrue,
    /// The ⊥ sink itself.
    FinalFalse,
    /// `?` state from which both ⊤ and ⊥ are still reachable.
    BothReachable,
    /// `?` state from which only ⊤ is reachable (the property can only be
    /// satisfied or stay open).
    OnlyTrueReachable,
    /// `?` state from which only ⊥ is reachable.
    OnlyFalseReachable,
    /// `?`-trap: no final verdict reachable; the monitor answers `?` forever.
    NeitherReachable,
}

impl StateClass {
    /// Stable lowercase name used in JSON and DOT legends.
    pub fn name(self) -> &'static str {
        match self {
            StateClass::FinalTrue => "final_true",
            StateClass::FinalFalse => "final_false",
            StateClass::BothReachable => "both_reachable",
            StateClass::OnlyTrueReachable => "only_true_reachable",
            StateClass::OnlyFalseReachable => "only_false_reachable",
            StateClass::NeitherReachable => "neither_reachable",
        }
    }

    /// Parses a [`StateClass::name`] form.
    pub fn from_name(name: &str) -> Option<StateClass> {
        [
            StateClass::FinalTrue,
            StateClass::FinalFalse,
            StateClass::BothReachable,
            StateClass::OnlyTrueReachable,
            StateClass::OnlyFalseReachable,
            StateClass::NeitherReachable,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// The LTL₃ monitorability taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorabilityClass {
    /// Unsatisfiable: the initial state already outputs ⊥.
    TriviallyFalse,
    /// Tautological: the initial state already outputs ⊤.
    TriviallyTrue,
    /// Only ⊥ is ever reachable, and it always remains reachable: violations are
    /// detected in finite time, satisfaction never is (e.g. `G p`).
    Safety,
    /// Only ⊤ is ever reachable, and it always remains reachable (e.g. `F p`).
    CoSafety,
    /// Both verdicts occur and every reachable state can still reach one
    /// (e.g. `p U q`).
    Monitorable,
    /// Some reachable state is a `?`-trap; after reaching it the monitor is
    /// useless (e.g. `G(req -> F ack)`).
    NonMonitorable,
}

impl MonitorabilityClass {
    /// Stable lowercase name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            MonitorabilityClass::TriviallyFalse => "trivially_false",
            MonitorabilityClass::TriviallyTrue => "trivially_true",
            MonitorabilityClass::Safety => "safety",
            MonitorabilityClass::CoSafety => "co_safety",
            MonitorabilityClass::Monitorable => "monitorable",
            MonitorabilityClass::NonMonitorable => "non_monitorable",
        }
    }

    /// Parses a [`MonitorabilityClass::name`] form.
    pub fn from_name(name: &str) -> Option<MonitorabilityClass> {
        [
            MonitorabilityClass::TriviallyFalse,
            MonitorabilityClass::TriviallyTrue,
            MonitorabilityClass::Safety,
            MonitorabilityClass::CoSafety,
            MonitorabilityClass::Monitorable,
            MonitorabilityClass::NonMonitorable,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }

    /// True for the two degenerate classes (unsat / tautology).
    pub fn is_trivial(self) -> bool {
        matches!(
            self,
            MonitorabilityClass::TriviallyFalse | MonitorabilityClass::TriviallyTrue
        )
    }
}

/// The full verdict-reachability picture of one automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictReachability {
    /// Per state: reachable from the initial state?
    pub reachable: Vec<bool>,
    /// Per state: can a ⊤ state be reached from here (including being one)?
    pub top_reachable: Vec<bool>,
    /// Per state: can a ⊥ state be reached from here?
    pub bot_reachable: Vec<bool>,
    /// Per state: the derived [`StateClass`].
    pub classes: Vec<StateClass>,
}

impl VerdictReachability {
    /// Computes reachability and per-state classes for `automaton`.
    pub fn of(automaton: &MonitorAutomaton) -> VerdictReachability {
        let reachable = automaton.reachable_states();
        let top_reachable = automaton.states_reaching(Verdict::True);
        let bot_reachable = automaton.states_reaching(Verdict::False);
        let classes = (0..automaton.n_states())
            .map(|s| match automaton.verdict(s) {
                Verdict::True => StateClass::FinalTrue,
                Verdict::False => StateClass::FinalFalse,
                Verdict::Unknown => match (top_reachable[s], bot_reachable[s]) {
                    (true, true) => StateClass::BothReachable,
                    (true, false) => StateClass::OnlyTrueReachable,
                    (false, true) => StateClass::OnlyFalseReachable,
                    (false, false) => StateClass::NeitherReachable,
                },
            })
            .collect();
        VerdictReachability {
            reachable,
            top_reachable,
            bot_reachable,
            classes,
        }
    }

    /// Classifies the spec from the classes of its *reachable* states.
    pub fn classification(&self, automaton: &MonitorAutomaton) -> MonitorabilityClass {
        match automaton.verdict(automaton.initial) {
            Verdict::False => return MonitorabilityClass::TriviallyFalse,
            Verdict::True => return MonitorabilityClass::TriviallyTrue,
            Verdict::Unknown => {}
        }
        let reached = |class: StateClass| {
            self.classes
                .iter()
                .zip(&self.reachable)
                .any(|(&c, &r)| r && c == class)
        };
        if reached(StateClass::NeitherReachable) {
            return MonitorabilityClass::NonMonitorable;
        }
        let top = reached(StateClass::FinalTrue);
        let bot = reached(StateClass::FinalFalse);
        // No trap states: every reachable ? state reaches some verdict.  With only
        // one kind of sink the spec is a (co-)safety property; it must further
        // never *lose* reachability of that sink, which is automatic here: a ?
        // state that reached neither sink would have been a trap.
        match (top, bot) {
            (false, true) => MonitorabilityClass::Safety,
            (true, false) => MonitorabilityClass::CoSafety,
            _ => MonitorabilityClass::Monitorable,
        }
    }

    /// Indices of reachable `?`-trap states ([`StateClass::NeitherReachable`]).
    pub fn trap_states(&self) -> Vec<usize> {
        self.classes
            .iter()
            .zip(&self.reachable)
            .enumerate()
            .filter(|&(_, (&c, &r))| r && c == StateClass::NeitherReachable)
            .map(|(s, _)| s)
            .collect()
    }

    /// Indices of unreachable states.
    pub fn unreachable_states(&self) -> Vec<usize> {
        self.reachable
            .iter()
            .enumerate()
            .filter(|(_, &r)| !r)
            .map(|(s, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::{parse, AtomRegistry};

    fn classify(text: &str) -> MonitorabilityClass {
        let mut registry = AtomRegistry::new();
        let formula = parse(text, &mut registry).expect("parses");
        let automaton = MonitorAutomaton::synthesize(&formula, &registry);
        VerdictReachability::of(&automaton).classification(&automaton)
    }

    #[test]
    fn textbook_examples_classify_correctly() {
        assert_eq!(classify("G P0.p"), MonitorabilityClass::Safety);
        assert_eq!(classify("F P0.p"), MonitorabilityClass::CoSafety);
        assert_eq!(classify("P0.p U P1.q"), MonitorabilityClass::Monitorable);
        assert_eq!(
            classify("G (P0.req -> F P1.ack)"),
            MonitorabilityClass::NonMonitorable
        );
        assert_eq!(
            classify("G P0.p && F !P0.p"),
            MonitorabilityClass::TriviallyFalse
        );
        assert_eq!(
            classify("F P0.p || G !P0.p"),
            MonitorabilityClass::TriviallyTrue
        );
    }

    #[test]
    fn trap_states_found_for_liveness() {
        let mut registry = AtomRegistry::new();
        let formula = parse("G F P0.p", &mut registry).expect("parses");
        let automaton = MonitorAutomaton::synthesize(&formula, &registry);
        let reach = VerdictReachability::of(&automaton);
        // GF p: every state is a ? trap — no finite prefix ever decides it.
        assert_eq!(reach.trap_states().len(), automaton.n_states());
        assert!(reach.unreachable_states().is_empty());
    }

    #[test]
    fn class_names_round_trip() {
        for c in [
            StateClass::FinalTrue,
            StateClass::FinalFalse,
            StateClass::BothReachable,
            StateClass::OnlyTrueReachable,
            StateClass::OnlyFalseReachable,
            StateClass::NeitherReachable,
        ] {
            assert_eq!(StateClass::from_name(c.name()), Some(c));
        }
        for c in [
            MonitorabilityClass::TriviallyFalse,
            MonitorabilityClass::TriviallyTrue,
            MonitorabilityClass::Safety,
            MonitorabilityClass::CoSafety,
            MonitorabilityClass::Monitorable,
            MonitorabilityClass::NonMonitorable,
        ] {
            assert_eq!(MonitorabilityClass::from_name(c.name()), Some(c));
        }
    }
}
