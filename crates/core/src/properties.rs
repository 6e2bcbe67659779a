//! The six LTL₃ properties of the evaluation chapter (§5.1), parameterized by the
//! number of processes.
//!
//! Every process `Pi` owns two propositions `Pi.p` and `Pi.q`.  The properties below
//! follow the thesis exactly for four processes and generalize naturally to other
//! process counts (the thesis evaluates 2–5 processes with the "same" properties; e.g.
//! property A for two processes is `G(P0.p U P1.p)` as drawn in Fig. 5.2a).

use dlrv_ltl::{AtomRegistry, Formula};
use std::fmt;

/// The evaluation properties A–F.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PaperProperty {
    /// `G((P0.p ∧ … ∧ Pk.p) U (Pk+1.p ∧ … ∧ Pn-1.p))` — first half holds until the
    /// second half holds concurrently.
    A,
    /// `F(P0.p ∧ … ∧ Pn-1.p)` — eventually all `p` propositions hold concurrently.
    B,
    /// `G(P0.p U (P1.p ∧ … ∧ Pn-1.p))` — `P0.p` holds until all the others hold.
    C,
    /// `G((⋀ Pi.p) U (⋀ Pi.q))` — all `p` hold until all `q` hold concurrently.
    D,
    /// `F(⋀ Pi.p ∧ ⋀ Pi.q)` — eventually every proposition of every process holds.
    E,
    /// `G((P0.p U ⋀_{i>0} Pi.p) ∧ (P0.q U ⋀_{i>0} Pi.q))` — the conjunction of two
    /// until-obligations, one over `p` and one over `q`.
    F,
}

impl PaperProperty {
    /// All six properties, in the order reported by the paper.
    pub const ALL: [PaperProperty; 6] = [
        PaperProperty::A,
        PaperProperty::B,
        PaperProperty::C,
        PaperProperty::D,
        PaperProperty::E,
        PaperProperty::F,
    ];

    /// The property with the given single-letter [`name`](Self::name), if any.
    pub fn from_name(name: &str) -> Option<PaperProperty> {
        PaperProperty::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Single-letter name.
    pub fn name(self) -> &'static str {
        match self {
            PaperProperty::A => "A",
            PaperProperty::B => "B",
            PaperProperty::C => "C",
            PaperProperty::D => "D",
            PaperProperty::E => "E",
            PaperProperty::F => "F",
        }
    }

    /// Builds the registry (atoms actually used by the property) and the formula for
    /// `n_processes` processes.
    ///
    /// Panics if `n_processes < 2`.
    pub fn build(self, n_processes: usize) -> (Formula, AtomRegistry) {
        let mut reg = AtomRegistry::new();
        let formula = self.build_in(&mut reg, n_processes);
        (formula, reg)
    }

    /// Builds the formula into an existing registry, interning this property's
    /// atoms alongside whatever is already there — the substrate of fleet
    /// compilation, where several properties share one atom space so their
    /// monitors can interpret the same event assignments.
    ///
    /// Panics if `n_processes < 2`.
    pub fn build_in(self, reg: &mut AtomRegistry, n_processes: usize) -> Formula {
        assert!(
            n_processes >= 2,
            "paper properties need at least two processes"
        );
        let p = |reg: &mut AtomRegistry, i: usize| Formula::Atom(reg.intern(&format!("P{i}.p"), i));
        let q = |reg: &mut AtomRegistry, i: usize| Formula::Atom(reg.intern(&format!("P{i}.q"), i));

        match self {
            PaperProperty::A => {
                let split = (n_processes / 2).max(1);
                let lhs = Formula::conj((0..split).map(|i| p(reg, i)));
                let rhs = Formula::conj((split..n_processes).map(|i| p(reg, i)));
                Formula::globally(Formula::until(lhs, rhs))
            }
            PaperProperty::B => {
                Formula::eventually(Formula::conj((0..n_processes).map(|i| p(reg, i))))
            }
            PaperProperty::C => {
                let lhs = p(reg, 0);
                let rhs = Formula::conj((1..n_processes).map(|i| p(reg, i)));
                Formula::globally(Formula::until(lhs, rhs))
            }
            PaperProperty::D => {
                let lhs = Formula::conj((0..n_processes).map(|i| p(reg, i)));
                let rhs = Formula::conj((0..n_processes).map(|i| q(reg, i)));
                Formula::globally(Formula::until(lhs, rhs))
            }
            PaperProperty::E => {
                let all_p = Formula::conj((0..n_processes).map(|i| p(reg, i)));
                let all_q = Formula::conj((0..n_processes).map(|i| q(reg, i)));
                Formula::eventually(Formula::and(all_p, all_q))
            }
            PaperProperty::F => {
                let left = Formula::until(
                    p(reg, 0),
                    Formula::conj((1..n_processes).map(|i| p(reg, i))),
                );
                let right = Formula::until(
                    q(reg, 0),
                    Formula::conj((1..n_processes).map(|i| q(reg, i))),
                );
                Formula::globally(Formula::and(left, right))
            }
        }
    }
}

impl fmt::Display for PaperProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Property {}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_automaton::MonitorAutomaton;
    use dlrv_ltl::Verdict;

    #[test]
    fn atom_counts_match_property_shape() {
        for n in 2..=4 {
            let (_, reg_a) = PaperProperty::A.build(n);
            assert_eq!(reg_a.len(), n, "A uses one p per process");
            let (_, reg_d) = PaperProperty::D.build(n);
            assert_eq!(reg_d.len(), 2 * n, "D uses p and q of every process");
            let (_, reg_e) = PaperProperty::E.build(n);
            assert_eq!(reg_e.len(), 2 * n);
        }
    }

    #[test]
    fn all_properties_synthesize_for_two_processes() {
        for prop in PaperProperty::ALL {
            let (formula, reg) = prop.build(2);
            let m = MonitorAutomaton::synthesize(&formula, &reg);
            assert!(
                m.n_states() >= 2,
                "{prop} should have a non-trivial monitor"
            );
            let counts = m.transition_counts();
            assert!(counts.total > 0);
            assert_eq!(counts.total, counts.outgoing + counts.self_loops);
        }
    }

    #[test]
    fn b_and_e_have_single_goal_transition_shape() {
        // Properties B and E are pure reachability: their monitors have exactly one
        // non-final state and one ⊤ state, so outgoing transitions are few — this is
        // the paper's explanation for their low overhead (Table 5.1 shows 1 outgoing
        // transition for B and E at every size).
        for prop in [PaperProperty::B, PaperProperty::E] {
            let (formula, reg) = prop.build(3);
            let m = MonitorAutomaton::synthesize(&formula, &reg);
            let outgoing: usize = (0..m.n_states())
                .filter(|&s| !m.is_final(s))
                .map(|s| m.outgoing_transitions(s).len())
                .sum();
            assert_eq!(
                outgoing, 1,
                "{prop} must have exactly one outgoing transition"
            );
            assert!(m.verdicts.contains(&Verdict::True));
            assert!(!m.verdicts.contains(&Verdict::False));
        }
    }

    #[test]
    fn d_has_more_transitions_than_b() {
        let (fb, rb) = PaperProperty::B.build(3);
        let (fd, rd) = PaperProperty::D.build(3);
        let mb = MonitorAutomaton::synthesize(&fb, &rb);
        let md = MonitorAutomaton::synthesize(&fd, &rd);
        assert!(
            md.transition_counts().total > mb.transition_counts().total,
            "property D must have a more complex automaton than property B"
        );
    }

    #[test]
    fn a_and_c_are_one_property_below_four_processes() {
        // A splits its conjunction at n / 2, C after P0: at two and three
        // processes both are `G(P0.p U (P1.p ∧ … ∧ Pn-1.p))`, so `fleet-6` (three
        // processes) monitors that formula twice.  They part at four.
        for n in 2..=4 {
            let (fa, ra) = PaperProperty::A.build(n);
            let (fc, rc) = PaperProperty::C.build(n);
            let (ma, mc) = (
                MonitorAutomaton::synthesize(&fa, &ra),
                MonitorAutomaton::synthesize(&fc, &rc),
            );
            let same_automaton = format!("{ma:?}") == format!("{mc:?}");
            if n < 4 {
                assert_eq!((&fa, &ra), (&fc, &rc), "A and C at n = {n}");
                assert!(
                    same_automaton,
                    "A and C synthesize one automaton at n = {n}"
                );
            } else {
                assert_ne!(fa, fc, "A and C at n = {n}");
                assert!(
                    !same_automaton,
                    "A and C synthesize two automata at n = {n}"
                );
            }
        }
    }

    #[test]
    fn property_names_and_display() {
        assert_eq!(PaperProperty::A.name(), "A");
        assert_eq!(format!("{}", PaperProperty::F), "Property F");
        assert_eq!(PaperProperty::ALL.len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_process_is_rejected() {
        PaperProperty::A.build(1);
    }
}
