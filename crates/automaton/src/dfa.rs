//! Determinization of the finite-word automaton derived from a generalized Büchi
//! automaton.
//!
//! Following the LTL₃ construction, the GBA for φ is re-read as an NFA over *finite*
//! words: a finite word `u` is accepted iff after reading `u` the NFA can sit in a node
//! from which an accepting infinite continuation exists ([`GeneralizedBuchi::is_live`]
//! of some successor).  Acceptance of `u` therefore means "`u` can be extended to an
//! infinite word satisfying φ".  This module performs the subset construction of that
//! NFA over the explicit alphabet `2^AP`.
//!
//! The construction runs on bits.  A subset of GBA nodes is a bitset of
//! `⌈nodes / 64⌉` words.  Before the worklist starts, every node is reduced to its
//! successor bitset and whether it has a live successor, and every symbol `σ` to the
//! bitset of nodes whose label it satisfies (a label is a cube, held as a
//! `(care, value)` mask pair over the atoms: `σ` satisfies it iff
//! `σ & care == value`).  A popped subset ORs its members' successor bitsets once;
//! its successor on `σ` is that union ANDed with `σ`'s bitset, looked up by slice in
//! the subset index.  The worklist order (LIFO, symbols ascending, states numbered in
//! discovery order) is the one the construction has always had, so the table and its
//! numbering do not depend on the representation (`tests/synthesis_identity.rs`
//! holds it to the set-based original).

use crate::gba::{GeneralizedBuchi, INIT_NODE};
use dlrv_ltl::Assignment;
use std::collections::HashMap;

/// A deterministic automaton over the explicit alphabet of assignments on `n_atoms`
/// atomic propositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    /// Number of atomic propositions (alphabet size is `2^n_atoms`).
    pub n_atoms: usize,
    /// Number of states.
    pub n_states: usize,
    /// The initial state.
    pub initial: usize,
    /// `accepting[s]` — true iff the finite word leading to `s` can be extended to an
    /// infinite word in the language of the underlying GBA.
    pub accepting: Vec<bool>,
    /// Transition table: `table[s][sigma.0]` is the successor of `s` on `sigma`.
    pub table: Vec<Vec<usize>>,
}

impl Dfa {
    /// Builds the DFA for the finite-word semantics of `gba` over `n_atoms` atoms.
    ///
    /// Panics if `n_atoms > 16` (the explicit alphabet would be unreasonably large).
    pub fn from_gba(gba: &GeneralizedBuchi, n_atoms: usize) -> Dfa {
        assert!(
            n_atoms <= 16,
            "explicit subset construction over {n_atoms} atoms is not supported"
        );
        let n_symbols = 1usize << n_atoms;
        let n_nodes = gba.nodes.len();
        let words = n_nodes.div_ceil(64);

        // Per node, once: its successor bitset (row `q` of `succ`) and whether it has
        // a live successor.
        let mut succ = vec![0u64; n_nodes * words];
        let mut feeds_live = Vec::with_capacity(n_nodes);
        for (q, bits) in succ.chunks_exact_mut(words).enumerate() {
            for &r in gba.successors(q) {
                insert(bits, r);
            }
            feeds_live.push(gba.successors(q).iter().any(|&r| gba.is_live(r)));
        }
        // Per symbol, once: the nodes whose label it satisfies (row `σ` of `fits`).
        let mut fits = vec![0u64; n_symbols * words];
        for (r, node) in gba.nodes.iter().enumerate() {
            let (care, value) = node
                .label()
                .literals()
                .iter()
                .fold((0u64, 0u64), |(c, v), lit| {
                    let bit = 1u64 << lit.atom.index();
                    (c | bit, if lit.positive { v | bit } else { v })
                });
            for (sigma, bits) in fits.chunks_exact_mut(words).enumerate() {
                if sigma as u64 & care == value {
                    insert(bits, r);
                }
            }
        }
        let is_accepting = |subset: &[u64]| members(subset).any(|q| feeds_live[q]);

        // Subset `s` is `subsets[s * words..][..words]`.  The initial subset is the
        // singleton {INIT_NODE} (the empty word has been read).
        let mut initial = vec![0u64; words];
        insert(&mut initial, INIT_NODE);
        let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut accepting = vec![is_accepting(&initial)];
        let mut subsets = initial.clone();
        index.insert(initial, 0);
        let mut table: Vec<Vec<usize>> = vec![Vec::new()];

        let mut union = vec![0u64; words];
        let mut next = vec![0u64; words];
        let mut worklist = vec![0usize];
        while let Some(s) = worklist.pop() {
            union.fill(0);
            for q in members(&subsets[s * words..][..words]) {
                for (u, w) in union.iter_mut().zip(&succ[q * words..][..words]) {
                    *u |= w;
                }
            }
            let mut row = Vec::with_capacity(n_symbols);
            for fit in fits.chunks_exact(words) {
                for ((n, u), f) in next.iter_mut().zip(&union).zip(fit) {
                    *n = u & f;
                }
                let id = match index.get(next.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = table.len();
                        index.insert(next.clone(), id);
                        accepting.push(is_accepting(&next));
                        subsets.extend_from_slice(&next);
                        table.push(Vec::new());
                        worklist.push(id);
                        id
                    }
                };
                row.push(id);
            }
            table[s] = row;
        }

        Dfa {
            n_atoms,
            n_states: table.len(),
            initial: 0,
            accepting,
            table,
        }
    }

    /// The successor of `state` on `sigma`.
    #[inline]
    pub fn step(&self, state: usize, sigma: Assignment) -> usize {
        self.table[state][sigma.0 as usize]
    }

    /// Runs the DFA on a finite word and returns the reached state.
    pub fn run(&self, word: &[Assignment]) -> usize {
        word.iter()
            .fold(self.initial, |s, &sigma| self.step(s, sigma))
    }

    /// True iff the word leading to `state` can be extended to a word in the language.
    pub fn is_accepting(&self, state: usize) -> bool {
        self.accepting[state]
    }
}

/// Adds node `i` to a node bitset.
fn insert(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// The members of a node bitset, ascending.
fn members(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::{AtomId, Formula};

    fn a(i: u32) -> Formula {
        Formula::Atom(AtomId(i))
    }

    fn sym(bits: &[u32]) -> Assignment {
        Assignment::from_true_atoms(bits.iter().map(|&i| AtomId(i)))
    }

    /// For `F a0`, every finite word is extendable to a satisfying word.
    #[test]
    fn eventually_always_extendable() {
        let gba = GeneralizedBuchi::build(&Formula::eventually(a(0)));
        let dfa = Dfa::from_gba(&gba, 1);
        assert!(dfa.is_accepting(dfa.initial));
        for word in [vec![], vec![sym(&[])], vec![sym(&[]), sym(&[0])]] {
            assert!(dfa.is_accepting(dfa.run(&word)), "word {word:?}");
        }
    }

    /// For `G a0`, a word is extendable iff a0 held at every position so far.
    #[test]
    fn globally_extendable_iff_no_violation() {
        let gba = GeneralizedBuchi::build(&Formula::globally(a(0)));
        let dfa = Dfa::from_gba(&gba, 1);
        assert!(dfa.is_accepting(dfa.run(&[sym(&[0]), sym(&[0])])));
        assert!(!dfa.is_accepting(dfa.run(&[sym(&[0]), sym(&[])])));
        assert!(!dfa.is_accepting(dfa.run(&[sym(&[]), sym(&[0])])));
    }

    /// For the negation of `F a0` (= `G !a0`), extendability flips.
    #[test]
    fn negation_swaps_acceptance() {
        let phi = Formula::eventually(a(0));
        let neg = phi.negated_nnf();
        let dfa_neg = Dfa::from_gba(&GeneralizedBuchi::build(&neg), 1);
        // After seeing a0, no extension can satisfy G !a0.
        assert!(!dfa_neg.is_accepting(dfa_neg.run(&[sym(&[0])])));
        assert!(dfa_neg.is_accepting(dfa_neg.run(&[sym(&[])])));
    }

    /// The until property of the running example shape: a U b over two atoms.
    #[test]
    fn until_extendability() {
        let phi = Formula::until(a(0), a(1));
        let dfa = Dfa::from_gba(&GeneralizedBuchi::build(&phi), 2);
        // b already seen: satisfied, so certainly extendable.
        assert!(dfa.is_accepting(dfa.run(&[sym(&[1])])));
        // a holds so far: still extendable.
        assert!(dfa.is_accepting(dfa.run(&[sym(&[0]), sym(&[0])])));
        // a violated before b: not extendable.
        assert!(!dfa.is_accepting(dfa.run(&[sym(&[])])));
    }

    /// Determinism and totality of the transition table.
    #[test]
    fn table_is_total() {
        let phi = Formula::globally(Formula::implies(a(0), Formula::eventually(a(1))));
        let dfa = Dfa::from_gba(&GeneralizedBuchi::build(&phi), 2);
        assert_eq!(dfa.table.len(), dfa.n_states);
        for row in &dfa.table {
            assert_eq!(row.len(), 4);
            for &t in row {
                assert!(t < dfa.n_states);
            }
        }
    }
}
