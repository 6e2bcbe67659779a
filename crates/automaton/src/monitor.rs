//! The LTL₃ monitor automaton: a minimal deterministic Moore machine outputting
//! verdicts in {⊤, ⊥, ?}, with symbolic (conjunctive-cube) transitions.
//!
//! This is the artifact Definition 12 of the thesis assumes as input to the
//! decentralized algorithm: states are labelled with verdicts, transitions are
//! labelled with *conjunctive* global-state predicates (one transition per cube of the
//! DNF of a guard, mirroring §4.3.3), and self-loop transitions are distinguished from
//! outgoing transitions because the algorithm only forks global views for outgoing
//! transitions.

use crate::dfa::Dfa;
use crate::gba::GeneralizedBuchi;
use dlrv_ltl::{Assignment, AtomRegistry, Cube, Formula, Predicate, Verdict};
use std::collections::HashMap;

/// Index of a monitor-automaton state.
pub type StateId = usize;

/// A symbolic transition of the monitor automaton: a conjunctive guard between two
/// states.  Several transitions may connect the same state pair (one per cube of the
/// guard's DNF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicTransition {
    /// Identifier of the transition (dense, unique within the automaton).
    pub id: usize,
    /// Source state.
    pub from: StateId,
    /// Target state.
    pub to: StateId,
    /// Conjunctive guard.
    pub guard: Cube,
}

impl SymbolicTransition {
    /// True when source and target coincide (the automaton state does not change).
    pub fn is_self_loop(&self) -> bool {
        self.from == self.to
    }
}

/// Transition statistics as reported in Table 5.1 of the thesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionCounts {
    /// All symbolic transitions.
    pub total: usize,
    /// Transitions whose source and target differ.
    pub outgoing: usize,
    /// Transitions whose source and target coincide.
    pub self_loops: usize,
}

/// Construction-size statistics of one synthesis run: how large every intermediate
/// artifact of the `formula → GBA → DFA → product → minimized Moore machine`
/// pipeline got.  This is the raw material of the static size/budget analysis
/// (`dlrv-analyze`) and of Table-5.1-style construction reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisReport {
    /// Atoms in the registry (the alphabet is `2^n_atoms`).
    pub n_atoms: usize,
    /// Size of the explicit alphabet enumerated by the subset construction.
    pub alphabet_size: usize,
    /// Tableau (GBA) nodes for the formula φ.
    pub gba_nodes_pos: usize,
    /// Tableau (GBA) nodes for the negation ¬φ.
    pub gba_nodes_neg: usize,
    /// Subset-construction DFA states for φ.
    pub dfa_states_pos: usize,
    /// Subset-construction DFA states for ¬φ.
    pub dfa_states_neg: usize,
    /// Reachable product states before Moore minimization.
    pub product_states: usize,
    /// States of the minimized monitor.
    pub states: usize,
    /// Symbolic conjunctive-cube transitions of the minimized monitor.
    pub transitions: TransitionCounts,
    /// The largest number of cubes labelling transitions out of a single state.
    pub max_cubes_per_state: usize,
}

/// The LTL₃ monitor automaton (deterministic Moore machine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorAutomaton {
    /// The monitored formula.
    pub formula: Formula,
    /// Number of atomic propositions the automaton reads (the alphabet is `2^n_atoms`).
    pub n_atoms: usize,
    /// Verdict output of every state.
    pub verdicts: Vec<Verdict>,
    /// The initial state.
    pub initial: StateId,
    /// Explicit transition table: `table[s][sigma.0]`.
    table: Vec<Vec<StateId>>,
    /// Symbolic conjunctive transitions (derived from the explicit table), grouped
    /// by source state in state order.
    pub transitions: Vec<SymbolicTransition>,
    /// `transitions[first_transition[s]..first_transition[s + 1]]` leave state `s`.
    first_transition: Vec<usize>,
}

impl MonitorAutomaton {
    /// Synthesizes the minimal LTL₃ monitor for `formula` over the atoms of `registry`.
    ///
    /// The automaton's alphabet covers *all* atoms in the registry (not only those
    /// occurring in the formula) so that monitors of different properties over the same
    /// program agree on symbol encoding.
    pub fn synthesize(formula: &Formula, registry: &AtomRegistry) -> MonitorAutomaton {
        Self::synthesize_with_report(formula, registry).0
    }

    /// Like [`synthesize`](Self::synthesize), but also reports how large every
    /// intermediate construction got (see [`SynthesisReport`]).
    pub fn synthesize_with_report(
        formula: &Formula,
        registry: &AtomRegistry,
    ) -> (MonitorAutomaton, SynthesisReport) {
        let n_atoms = registry.len();
        let gba_pos = GeneralizedBuchi::build(formula);
        let gba_neg = GeneralizedBuchi::build(&formula.negated_nnf());
        let gba_nodes_pos = gba_pos.nodes.len();
        let gba_nodes_neg = gba_neg.nodes.len();
        let dfa_pos = Dfa::from_gba(&gba_pos, n_atoms);
        let dfa_neg = Dfa::from_gba(&gba_neg, n_atoms);

        // Product construction over reachable pairs.
        let n_symbols = 1usize << n_atoms;
        let mut pair_index: HashMap<(usize, usize), StateId> = HashMap::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut table: Vec<Vec<StateId>> = Vec::new();
        let mut verdicts: Vec<Verdict> = Vec::new();

        let initial_pair = (dfa_pos.initial, dfa_neg.initial);
        pair_index.insert(initial_pair, 0);
        pairs.push(initial_pair);
        verdicts.push(Self::verdict_of(&dfa_pos, &dfa_neg, initial_pair));
        table.push(Vec::new());

        let mut worklist = vec![0usize];
        while let Some(s) = worklist.pop() {
            let (p, q) = pairs[s];
            let mut row = Vec::with_capacity(n_symbols);
            for sigma in 0..n_symbols {
                let sigma = Assignment(sigma as u64);
                let next = (dfa_pos.step(p, sigma), dfa_neg.step(q, sigma));
                let id = match pair_index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = pairs.len();
                        pair_index.insert(next, id);
                        pairs.push(next);
                        verdicts.push(Self::verdict_of(&dfa_pos, &dfa_neg, next));
                        table.push(Vec::new());
                        worklist.push(id);
                        id
                    }
                };
                row.push(id);
            }
            table[s] = row;
        }

        let product_states = pairs.len();
        let (min_table, min_verdicts, min_initial) =
            minimize_moore(&table, &verdicts, 0, n_symbols);

        let transitions = symbolic_transitions(&min_table, &min_verdicts, n_atoms, n_symbols);
        let mut first_transition = vec![0usize; min_verdicts.len() + 1];
        for t in &transitions {
            first_transition[t.from + 1] += 1;
        }
        for s in 1..first_transition.len() {
            first_transition[s] += first_transition[s - 1];
        }
        let max_cubes_per_state = first_transition
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0);

        let automaton = MonitorAutomaton {
            formula: formula.clone(),
            n_atoms,
            verdicts: min_verdicts,
            initial: min_initial,
            table: min_table,
            transitions,
            first_transition,
        };
        let report = SynthesisReport {
            n_atoms,
            alphabet_size: n_symbols,
            gba_nodes_pos,
            gba_nodes_neg,
            dfa_states_pos: dfa_pos.n_states,
            dfa_states_neg: dfa_neg.n_states,
            product_states,
            states: automaton.n_states(),
            transitions: automaton.transition_counts(),
            max_cubes_per_state,
        };
        (automaton, report)
    }

    fn verdict_of(dfa_pos: &Dfa, dfa_neg: &Dfa, (p, q): (usize, usize)) -> Verdict {
        // [u |= φ] = ⊥ iff no extension of u satisfies φ (the φ-DFA rejects);
        //            ⊤ iff no extension of u violates φ (the ¬φ-DFA rejects);
        //            ? otherwise.
        if !dfa_pos.is_accepting(p) {
            Verdict::False
        } else if !dfa_neg.is_accepting(q) {
            Verdict::True
        } else {
            Verdict::Unknown
        }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.verdicts.len()
    }

    /// The verdict output of `state`.
    pub fn verdict(&self, state: StateId) -> Verdict {
        self.verdicts[state]
    }

    /// True when the verdict of `state` is ⊤ or ⊥ (a trap state).
    pub fn is_final(&self, state: StateId) -> bool {
        self.verdicts[state].is_final()
    }

    /// The successor of `state` when the global state evaluates to `sigma`.
    #[inline]
    pub fn step(&self, state: StateId, sigma: Assignment) -> StateId {
        self.table[state][sigma.0 as usize]
    }

    /// Runs the automaton from the initial state over a finite word and returns the
    /// verdict of the reached state (the LTL₃ valuation of the word).
    pub fn evaluate(&self, word: &[Assignment]) -> Verdict {
        let mut s = self.initial;
        for &sigma in word {
            s = self.step(s, sigma);
        }
        self.verdicts[s]
    }

    /// All symbolic transitions leaving `state` (self-loops included), in id order.
    pub fn transitions_from(&self, state: StateId) -> &[SymbolicTransition] {
        &self.transitions[self.first_transition[state]..self.first_transition[state + 1]]
    }

    /// Symbolic transitions leaving `state` whose target differs from `state`.
    pub fn outgoing_transitions(&self, state: StateId) -> Vec<&SymbolicTransition> {
        self.transitions_from(state)
            .iter()
            .filter(|t| !t.is_self_loop())
            .collect()
    }

    /// The transition with identifier `id`.
    pub fn transition(&self, id: usize) -> &SymbolicTransition {
        &self.transitions[id]
    }

    /// Size of the explicit alphabet (`2^n_atoms`).
    pub fn n_symbols(&self) -> usize {
        1usize << self.n_atoms
    }

    /// The explicit successor row of `state`: one target per alphabet symbol, in
    /// symbol order.  Exposed for static analysis (reachability, exhaustiveness).
    pub fn successor_row(&self, state: StateId) -> &[StateId] {
        &self.table[state]
    }

    /// States reachable from `from` by any word (including `from` itself).
    pub fn reachable_from(&self, from: StateId) -> Vec<bool> {
        let mut seen = vec![false; self.n_states()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(s) = stack.pop() {
            for &t in &self.table[s] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// States reachable from the initial state.
    pub fn reachable_states(&self) -> Vec<bool> {
        self.reachable_from(self.initial)
    }

    /// Backward reachability: for every state, whether some state outputting
    /// `verdict` is reachable from it (trivially true for states already outputting
    /// it).  This is the core of the monitorability analysis — a state from which
    /// neither ⊤ nor ⊥ is reachable can never conclude.
    pub fn states_reaching(&self, verdict: Verdict) -> Vec<bool> {
        let n = self.n_states();
        let mut predecessors: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for (s, row) in self.table.iter().enumerate() {
            for &t in row {
                predecessors[t].push(s);
            }
        }
        let mut can = vec![false; n];
        let mut stack: Vec<StateId> = (0..n).filter(|&s| self.verdicts[s] == verdict).collect();
        for &s in &stack {
            can[s] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in &predecessors[s] {
                if !can[p] {
                    can[p] = true;
                    stack.push(p);
                }
            }
        }
        can
    }

    /// Transition statistics (Table 5.1).
    pub fn transition_counts(&self) -> TransitionCounts {
        let total = self.transitions.len();
        let self_loops = self.transitions.iter().filter(|t| t.is_self_loop()).count();
        TransitionCounts {
            total,
            outgoing: total - self_loops,
            self_loops,
        }
    }
}

/// Moore-machine minimization by partition refinement on (output, successor blocks).
fn minimize_moore(
    table: &[Vec<StateId>],
    verdicts: &[Verdict],
    initial: StateId,
    n_symbols: usize,
) -> (Vec<Vec<StateId>>, Vec<Verdict>, StateId) {
    let n = table.len();
    // Initial partition: by verdict.
    let mut block_of: Vec<usize> = verdicts
        .iter()
        .map(|v| match v {
            Verdict::False => 0,
            Verdict::Unknown => 1,
            Verdict::True => 2,
        })
        .collect();

    loop {
        // Signature of a state: (its block, blocks of all successors).
        let mut sig_index: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
        let mut new_block_of = vec![0usize; n];
        for s in 0..n {
            let sig: (usize, Vec<usize>) = (
                block_of[s],
                (0..n_symbols).map(|a| block_of[table[s][a]]).collect(),
            );
            let next_id = sig_index.len();
            let id = *sig_index.entry(sig).or_insert(next_id);
            new_block_of[s] = id;
        }
        if new_block_of == block_of {
            break;
        }
        block_of = new_block_of;
    }

    let n_blocks = block_of.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    // Representative state per block.
    let mut repr = vec![usize::MAX; n_blocks];
    for s in 0..n {
        if repr[block_of[s]] == usize::MAX {
            repr[block_of[s]] = s;
        }
    }
    let min_table: Vec<Vec<StateId>> = (0..n_blocks)
        .map(|b| {
            let s = repr[b];
            (0..n_symbols).map(|a| block_of[table[s][a]]).collect()
        })
        .collect();
    let min_verdicts: Vec<Verdict> = (0..n_blocks).map(|b| verdicts[repr[b]]).collect();
    (min_table, min_verdicts, block_of[initial])
}

/// Derives conjunctive-cube transitions from the explicit transition table.
///
/// For every ordered state pair `(s, t)` with at least one symbol leading from `s` to
/// `t`, the set of such symbols is compacted into a DNF cover; each cube of the cover
/// becomes one [`SymbolicTransition`].  Transitions out of ⊤/⊥ trap states are not
/// split per target (the paper draws a single `true` self-loop on final states), so
/// final states get exactly one `true` self-loop.  Transitions come out grouped by
/// source state, in state order, and are numbered in that order
/// ([`MonitorAutomaton::transitions_from`] slices by it).
fn symbolic_transitions(
    table: &[Vec<StateId>],
    verdicts: &[Verdict],
    n_atoms: usize,
    n_symbols: usize,
) -> Vec<SymbolicTransition> {
    let mut transitions = Vec::new();
    let mut next_id = 0usize;
    for (s, row) in table.iter().enumerate() {
        if verdicts[s].is_final() {
            // Trap state: single `true` self-loop.
            transitions.push(SymbolicTransition {
                id: next_id,
                from: s,
                to: s,
                guard: Cube::top(),
            });
            next_id += 1;
            continue;
        }
        let mut by_target: HashMap<StateId, Vec<Assignment>> = HashMap::new();
        for (sigma, &target) in row.iter().enumerate().take(n_symbols) {
            by_target
                .entry(target)
                .or_default()
                .push(Assignment(sigma as u64));
        }
        let mut targets: Vec<StateId> = by_target.keys().copied().collect();
        targets.sort_unstable();
        for t in targets {
            let assignments = &by_target[&t];
            let cover = Predicate::cover_of_assignments(assignments, n_atoms);
            for cube in cover.cubes() {
                transitions.push(SymbolicTransition {
                    id: next_id,
                    from: s,
                    to: t,
                    guard: cube.clone(),
                });
                next_id += 1;
            }
        }
    }
    transitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::{evaluate_lasso, AtomId, Literal};

    fn reg(n: usize) -> AtomRegistry {
        let mut r = AtomRegistry::new();
        for i in 0..n {
            r.intern(&format!("P{i}.p"), i);
        }
        r
    }

    fn a(i: u32) -> Formula {
        Formula::Atom(AtomId(i))
    }

    fn sym(bits: &[u32]) -> Assignment {
        Assignment::from_true_atoms(bits.iter().map(|&i| AtomId(i)))
    }

    #[test]
    fn monitor_for_globally() {
        // G a0: verdict stays ? while a0 holds, drops to ⊥ on the first violation.
        let m = MonitorAutomaton::synthesize(&Formula::globally(a(0)), &reg(1));
        assert_eq!(m.evaluate(&[]), Verdict::Unknown);
        assert_eq!(m.evaluate(&[sym(&[0]), sym(&[0])]), Verdict::Unknown);
        assert_eq!(m.evaluate(&[sym(&[0]), sym(&[])]), Verdict::False);
        assert_eq!(m.evaluate(&[sym(&[]), sym(&[0])]), Verdict::False);
    }

    #[test]
    fn monitor_for_eventually() {
        // F a0: verdict stays ? until a0 appears, then ⊤ forever.
        let m = MonitorAutomaton::synthesize(&Formula::eventually(a(0)), &reg(1));
        assert_eq!(m.evaluate(&[sym(&[])]), Verdict::Unknown);
        assert_eq!(m.evaluate(&[sym(&[]), sym(&[0])]), Verdict::True);
        assert_eq!(m.evaluate(&[sym(&[0]), sym(&[])]), Verdict::True);
    }

    #[test]
    fn monitor_for_until_two_processes() {
        // a0 U a1 (paper-style until over two processes).
        let m = MonitorAutomaton::synthesize(&Formula::until(a(0), a(1)), &reg(2));
        assert_eq!(m.evaluate(&[sym(&[1])]), Verdict::True);
        assert_eq!(m.evaluate(&[sym(&[0])]), Verdict::Unknown);
        assert_eq!(m.evaluate(&[sym(&[0]), sym(&[])]), Verdict::False);
        assert_eq!(m.evaluate(&[sym(&[])]), Verdict::False);
        assert_eq!(m.evaluate(&[sym(&[0]), sym(&[0, 1])]), Verdict::True);
    }

    #[test]
    fn next_operator_monitor() {
        // X a0: verdict resolves after the second symbol.
        let m = MonitorAutomaton::synthesize(&Formula::next(a(0)), &reg(1));
        assert_eq!(m.evaluate(&[sym(&[])]), Verdict::Unknown);
        assert_eq!(m.evaluate(&[sym(&[]), sym(&[0])]), Verdict::True);
        assert_eq!(m.evaluate(&[sym(&[]), sym(&[])]), Verdict::False);
        assert_eq!(m.evaluate(&[sym(&[0])]), Verdict::Unknown);
    }

    #[test]
    fn verdicts_are_persistent_and_deterministic() {
        let phi = Formula::globally(Formula::implies(a(0), Formula::eventually(a(1))));
        let m = MonitorAutomaton::synthesize(&phi, &reg(2));
        // Final states only loop to themselves.
        for s in 0..m.n_states() {
            if m.is_final(s) {
                for sigma in Assignment::enumerate(2) {
                    assert_eq!(m.step(s, sigma), s, "final state {s} must be a trap");
                }
            }
        }
    }

    #[test]
    fn monitor_agrees_with_lasso_semantics_on_definite_verdicts() {
        // If the monitor says ⊤ (resp. ⊥) after a finite word, then appending any small
        // lasso must satisfy (resp. violate) the formula.
        let phi = Formula::until(a(0), Formula::and(a(1), Formula::not(a(0))));
        let m = MonitorAutomaton::synthesize(&phi, &reg(2));
        let alphabet: Vec<Assignment> = Assignment::enumerate(2).collect();
        for w0 in &alphabet {
            for w1 in &alphabet {
                let word = [*w0, *w1];
                let verdict = m.evaluate(&word);
                for ext in &alphabet {
                    let holds = evaluate_lasso(&phi, &word, &[*ext]);
                    match verdict {
                        Verdict::True => {
                            assert!(holds, "⊤ verdict contradicted by {word:?} + {ext:?}")
                        }
                        Verdict::False => {
                            assert!(!holds, "⊥ verdict contradicted by {word:?} + {ext:?}")
                        }
                        Verdict::Unknown => {}
                    }
                }
            }
        }
    }

    #[test]
    fn paper_running_example_property() {
        // ψ = G((x1>=5) -> ((x2>=15) U (x1==10))) over atoms a0=x1>=5, a1=x2>=15, a2=x1==10.
        let mut registry = AtomRegistry::new();
        let x1ge5 = registry.intern("x1>=5", 0);
        let x2ge15 = registry.intern("x2>=15", 1);
        let x1eq10 = registry.intern("x1==10", 0);
        let psi = Formula::globally(Formula::implies(
            Formula::Atom(x1ge5),
            Formula::until(Formula::Atom(x2ge15), Formula::Atom(x1eq10)),
        ));
        let m = MonitorAutomaton::synthesize(&psi, &registry);
        // Fig. 2.3 has three states: q0, q1 and q⊥ — the minimal monitor has no ⊤ state.
        assert!(m.n_states() >= 3);
        assert!(m.verdicts.contains(&Verdict::False));
        assert!(!m.verdicts.contains(&Verdict::True));

        // Path β of Fig. 3.1 (x2 reaches 15 before x1 reaches 5) stays inconclusive.
        let g0 = Assignment::ALL_FALSE;
        let g1 = Assignment::from_true_atoms([x2ge15]);
        let g2 = Assignment::from_true_atoms([x1ge5, x2ge15]);
        let g3 = Assignment::from_true_atoms([x1ge5, x2ge15, x1eq10]);
        assert_eq!(m.evaluate(&[g0, g1, g2, g3]), Verdict::Unknown);
        // Any path through ⟨e1_1⟩ (x1 ≥ 5 while x2 < 15 and x1 != 10) violates ψ.
        let bad = Assignment::from_true_atoms([x1ge5]);
        assert_eq!(m.evaluate(&[g0, bad]), Verdict::False);
    }

    #[test]
    fn symbolic_transitions_cover_explicit_table() {
        let phi = Formula::until(Formula::and(a(0), a(1)), Formula::and(a(2), a(3)));
        let m = MonitorAutomaton::synthesize(&phi, &reg(4));
        // Every (state, symbol) pair must be matched by exactly the cubes that lead to
        // step(state, symbol) — i.e. the symbolic transitions are a partition of the
        // explicit transition function for non-final states.
        for s in 0..m.n_states() {
            if m.is_final(s) {
                continue;
            }
            for sigma in Assignment::enumerate(4) {
                let target = m.step(s, sigma);
                let matching: Vec<_> = m
                    .transitions_from(s)
                    .iter()
                    .filter(|t| t.guard.eval(sigma))
                    .collect();
                assert!(
                    !matching.is_empty(),
                    "no symbolic transition covers state {s} symbol {sigma:?}"
                );
                for t in matching {
                    assert_eq!(t.to, target, "cube leads to a different target");
                }
            }
        }
    }

    #[test]
    fn transition_counts_classification() {
        let phi = Formula::eventually(Formula::and(a(0), a(1)));
        let m = MonitorAutomaton::synthesize(&phi, &reg(2));
        let counts = m.transition_counts();
        assert_eq!(counts.total, counts.outgoing + counts.self_loops);
        assert!(counts.outgoing >= 1);
        assert!(counts.self_loops >= 1);
    }

    #[test]
    fn minimization_produces_three_state_monitor_for_request_response() {
        // G(req -> F grant) has the well-known 2-state monitor (? states only, no ⊥/⊤),
        // plus possibly nothing else: it is never falsifiable nor verifiable.
        let phi = Formula::globally(Formula::implies(a(0), Formula::eventually(a(1))));
        let m = MonitorAutomaton::synthesize(&phi, &reg(2));
        assert!(m.verdicts.iter().all(|v| *v == Verdict::Unknown));
        assert!(
            m.n_states() <= 2,
            "expected ≤2 states, got {}",
            m.n_states()
        );
    }

    #[test]
    fn guards_only_mention_registered_atoms() {
        let phi = Formula::until(a(0), a(1));
        let registry = reg(3); // one extra atom not in the formula
        let m = MonitorAutomaton::synthesize(&phi, &registry);
        for t in &m.transitions {
            for lit in t.guard.literals() {
                assert!(lit.atom.index() < registry.len());
            }
        }
        // The extra atom is irrelevant, so no guard should constrain it.
        assert!(m
            .transitions
            .iter()
            .all(|t| t.guard.polarity_of(AtomId(2)).is_none()));
    }

    #[test]
    fn safety_and_cosafety_duality() {
        // [u |= φ] = ⊥ iff [u |= ¬φ] = ⊤ for every word.
        let phi = Formula::globally(a(0));
        let registry = reg(1);
        let m_pos = MonitorAutomaton::synthesize(&phi, &registry);
        let m_neg = MonitorAutomaton::synthesize(&Formula::not(phi), &registry);
        let alphabet: Vec<Assignment> = Assignment::enumerate(1).collect();
        for w0 in &alphabet {
            for w1 in &alphabet {
                for w2 in &alphabet {
                    let word = [*w0, *w1, *w2];
                    assert_eq!(m_pos.evaluate(&word), m_neg.evaluate(&word).negate());
                }
            }
        }
    }

    #[test]
    fn literal_helpers() {
        let lit = Literal::pos(AtomId(0));
        assert!(!lit.negated().positive);
    }
}
