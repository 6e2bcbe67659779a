//! Seeded generators shared by the property-based integration suites.

use dlrv::dlrv_ltl::{AtomId, AtomRegistry, Formula};
use rand::rngs::StdRng;
use rand::Rng;

/// Draws a random formula over `n_atoms` atoms with at most `budget` AST nodes
/// (the `monitor_lasso_props` generator).  `next` builds the one-step-ahead arm:
/// [`Formula::next`], or another unary operator for formulas without `X`.
pub fn random_formula(
    rng: &mut StdRng,
    n_atoms: u32,
    budget: usize,
    next: fn(Formula) -> Formula,
) -> Formula {
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
        1 => Formula::not(random_formula(rng, n_atoms, budget - 1, next)),
        2 => Formula::and(
            random_formula(rng, n_atoms, half, next),
            random_formula(rng, n_atoms, half, next),
        ),
        3 => Formula::or(
            random_formula(rng, n_atoms, half, next),
            random_formula(rng, n_atoms, half, next),
        ),
        4 => next(random_formula(rng, n_atoms, budget - 1, next)),
        5 => Formula::until(
            random_formula(rng, n_atoms, half, next),
            random_formula(rng, n_atoms, half, next),
        ),
        6 => Formula::release(
            random_formula(rng, n_atoms, half, next),
            random_formula(rng, n_atoms, half, next),
        ),
        _ => Formula::eventually(random_formula(rng, n_atoms, budget - 1, next)),
    }
}

/// One `P<i>.p` atom per process — the registry random formulas (and the workload
/// generator's channel layout) are interpreted against.
pub fn shared_registry(n_processes: usize) -> AtomRegistry {
    let mut reg = AtomRegistry::new();
    for i in 0..n_processes {
        reg.intern(&format!("P{i}.p"), i);
    }
    reg
}
