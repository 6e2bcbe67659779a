//! Identity of the bit-level synthesis with the construction it replaced (PR 25).
//!
//! `reference_dfa` and `reference_cover` are the parent commit's `Dfa::from_gba`
//! and `Predicate::cover_of_assignments`, kept verbatim (the one edit: the deleted
//! `GeneralizedBuchi::label_satisfied` is inlined as the `Node::label()` rebuild it
//! was).  They are the reference the rewrite is held to, not a second path: the
//! subset construction must produce the same table with the same state numbering,
//! and the guard cover the same cubes in the same order, because transition ids on
//! the wire and every committed count follow from both.

use dlrv_automaton::gba::{NodeId, INIT_NODE};
use dlrv_automaton::{Dfa, GeneralizedBuchi};
use dlrv_ltl::{Assignment, AtomId, Cube, Formula, Literal, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// The parent's `Dfa::from_gba`.
fn reference_dfa(gba: &GeneralizedBuchi, n_atoms: usize) -> Dfa {
    let alphabet: Vec<Assignment> = Assignment::enumerate(n_atoms).collect();

    let n_nodes = gba.nodes.len();
    let successors: Vec<Vec<NodeId>> = (0..n_nodes).map(|q| gba.successors(q).to_vec()).collect();

    let mut subsets: Vec<BTreeSet<NodeId>> = Vec::new();
    let mut index: HashMap<BTreeSet<NodeId>, usize> = HashMap::new();
    let mut table: Vec<Vec<usize>> = Vec::new();
    let mut accepting: Vec<bool> = Vec::new();

    let is_accepting = |subset: &BTreeSet<NodeId>| -> bool {
        subset
            .iter()
            .any(|&q| successors[q].iter().any(|&r| gba.is_live(r)))
    };

    let initial_set = BTreeSet::from([INIT_NODE]);
    index.insert(initial_set.clone(), 0);
    accepting.push(is_accepting(&initial_set));
    subsets.push(initial_set);
    table.push(Vec::new());

    let mut worklist = vec![0usize];
    while let Some(s) = worklist.pop() {
        let current = subsets[s].clone();
        let mut row = Vec::with_capacity(alphabet.len());
        for &sigma in &alphabet {
            let mut next: BTreeSet<NodeId> = BTreeSet::new();
            for &q in &current {
                for &r in &successors[q] {
                    if gba.nodes[r].label().eval(sigma) {
                        next.insert(r);
                    }
                }
            }
            let id = match index.get(&next) {
                Some(&id) => id,
                None => {
                    let id = subsets.len();
                    index.insert(next.clone(), id);
                    accepting.push(is_accepting(&next));
                    subsets.push(next);
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
        n_states: subsets.len(),
        initial: 0,
        accepting,
        table,
    }
}

/// The parent's `Predicate::cover_of_assignments`.
fn reference_cover(assignments: &[Assignment], n_atoms: usize) -> Predicate {
    if assignments.is_empty() {
        return Predicate::bottom();
    }
    let total = 1u64 << n_atoms;
    if assignments.len() as u64 == total {
        return Predicate::top();
    }
    let mut cubes: Vec<Cube> = assignments
        .iter()
        .map(|a| {
            let lits = (0..n_atoms as u32).map(|i| {
                let atom = AtomId(i);
                if a.get(atom) {
                    Literal::pos(atom)
                } else {
                    Literal::neg(atom)
                }
            });
            Cube::new(lits).expect("full cube cannot contradict")
        })
        .collect();

    loop {
        cubes.sort();
        cubes.dedup();
        let mut merged = Vec::new();
        let mut used = vec![false; cubes.len()];
        let mut changed = false;
        for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                if let Some(m) = reference_merge_adjacent(&cubes[i], &cubes[j]) {
                    merged.push(m);
                    used[i] = true;
                    used[j] = true;
                    changed = true;
                }
            }
        }
        for (i, c) in cubes.iter().enumerate() {
            if !used[i] {
                merged.push(c.clone());
            }
        }
        cubes = merged;
        if !changed {
            break;
        }
    }

    let mut pred = Predicate::bottom();
    for c in cubes {
        pred.add_cube(c);
    }
    pred
}

/// The parent's `merge_adjacent`.
fn reference_merge_adjacent(a: &Cube, b: &Cube) -> Option<Cube> {
    if a.len() != b.len() {
        return None;
    }
    let mut diff_atom = None;
    for (la, lb) in a.literals().iter().zip(b.literals().iter()) {
        if la.atom != lb.atom {
            return None;
        }
        if la.positive != lb.positive {
            if diff_atom.is_some() {
                return None;
            }
            diff_atom = Some(la.atom);
        }
    }
    let diff = diff_atom?;
    Cube::new(a.literals().iter().copied().filter(|l| l.atom != diff))
}

/// `monitor_lasso_props`' formula generator: at most `budget` AST nodes over
/// `n_atoms` atoms.
fn random_formula(rng: &mut StdRng, n_atoms: u32, budget: usize) -> Formula {
    if budget <= 1 {
        return match rng.gen_range(0u32..6) {
            0 => Formula::True,
            1 => Formula::False,
            _ => Formula::Atom(AtomId(rng.gen_range(0..n_atoms))),
        };
    }
    let half = budget / 2;
    match rng.gen_range(0u32..8) {
        0 => Formula::Atom(AtomId(rng.gen_range(0..n_atoms))),
        1 => Formula::not(random_formula(rng, n_atoms, budget - 1)),
        2 => Formula::and(
            random_formula(rng, n_atoms, half),
            random_formula(rng, n_atoms, half),
        ),
        3 => Formula::or(
            random_formula(rng, n_atoms, half),
            random_formula(rng, n_atoms, half),
        ),
        4 => Formula::next(random_formula(rng, n_atoms, budget - 1)),
        5 => Formula::until(
            random_formula(rng, n_atoms, half),
            random_formula(rng, n_atoms, half),
        ),
        6 => Formula::release(
            random_formula(rng, n_atoms, half),
            random_formula(rng, n_atoms, half),
        ),
        _ => Formula::eventually(random_formula(rng, n_atoms, budget - 1)),
    }
}

/// 2 000 random formulas over 1–5 atoms, each and its negation: the DFA is the
/// reference's, table, acceptance and numbering alike.
#[test]
fn subset_construction_equals_the_reference_on_random_formulas() {
    for seed in 0..2_000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_atoms = rng.gen_range(1u32..=5);
        let budget = rng.gen_range(3usize..=9);
        let formula = random_formula(&mut rng, n_atoms, budget);
        for f in [formula.clone(), formula.negated_nnf()] {
            let gba = GeneralizedBuchi::build(&f);
            let dfa = Dfa::from_gba(&gba, n_atoms as usize);
            assert!(
                dfa == reference_dfa(&gba, n_atoms as usize),
                "seed {seed}: DFA of {f} differs from the reference"
            );
        }
    }
}

/// Random assignment sets over 1–7 atoms: the same cubes in the same order.
#[test]
fn guard_cover_equals_the_reference_on_random_assignment_sets() {
    for seed in 0..3_000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_atoms = rng.gen_range(1usize..=7);
        let density = rng.gen_range(0u32..=100);
        let assignments: Vec<Assignment> = Assignment::enumerate(n_atoms)
            .filter(|_| rng.gen_range(0u32..100) < density)
            .collect();
        assert_eq!(
            Predicate::cover_of_assignments(&assignments, n_atoms),
            reference_cover(&assignments, n_atoms),
            "seed {seed}: cover of {} assignments over {n_atoms} atoms",
            assignments.len()
        );
    }
}
