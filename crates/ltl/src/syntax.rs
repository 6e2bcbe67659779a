//! The LTL abstract syntax tree.
//!
//! Formulas follow Definition 8 of the thesis: `true`, atomic propositions, negation,
//! conjunction, *next* and *until*, plus the standard derived operators (`false`,
//! disjunction, implication, *release*, *eventually*, *globally*) which are first-class
//! constructors here so that pretty-printing round-trips.

use crate::atoms::AtomId;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An LTL formula.
///
/// The representation uses `Arc` for sharing: monitor-automaton synthesis repeatedly
/// decomposes formulas and benefits from cheap clones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic proposition.
    Atom(AtomId),
    /// Negation `¬φ`.
    Not(Arc<Formula>),
    /// Conjunction `φ ∧ ψ`.
    And(Arc<Formula>, Arc<Formula>),
    /// Disjunction `φ ∨ ψ`.
    Or(Arc<Formula>, Arc<Formula>),
    /// Next `○φ`.
    Next(Arc<Formula>),
    /// Until `φ U ψ`.
    Until(Arc<Formula>, Arc<Formula>),
    /// Release `φ R ψ` (the dual of until).
    Release(Arc<Formula>, Arc<Formula>),
}

impl Formula {
    /// The constant `true`.
    pub fn tt() -> Self {
        Formula::True
    }

    /// An atomic proposition.
    pub fn atom(a: AtomId) -> Self {
        Formula::Atom(a)
    }

    /// Negation with light simplification (`¬¬φ = φ`, `¬true = false`, `¬false = true`).
    // Smart constructor taking the formula by value; intentionally not `std::ops::Not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Self {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => (*inner).clone(),
            other => Formula::Not(Arc::new(other)),
        }
    }

    /// Conjunction with unit/absorbing-element simplification.
    pub fn and(a: Formula, b: Formula) -> Self {
        match (a, b) {
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::True, x) | (x, Formula::True) => x,
            (x, y) if x == y => x,
            (x, y) => Formula::And(Arc::new(x), Arc::new(y)),
        }
    }

    /// Disjunction with unit/absorbing-element simplification.
    pub fn or(a: Formula, b: Formula) -> Self {
        match (a, b) {
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::False, x) | (x, Formula::False) => x,
            (x, y) if x == y => x,
            (x, y) => Formula::Or(Arc::new(x), Arc::new(y)),
        }
    }

    /// Implication `φ ⇒ ψ`, encoded as `¬φ ∨ ψ`.
    pub fn implies(a: Formula, b: Formula) -> Self {
        Formula::or(Formula::not(a), b)
    }

    /// Next `○φ`.
    pub fn next(f: Formula) -> Self {
        Formula::Next(Arc::new(f))
    }

    /// Until `φ U ψ`.
    pub fn until(a: Formula, b: Formula) -> Self {
        Formula::Until(Arc::new(a), Arc::new(b))
    }

    /// Release `φ R ψ`.
    pub fn release(a: Formula, b: Formula) -> Self {
        Formula::Release(Arc::new(a), Arc::new(b))
    }

    /// Eventually `◇φ = true U φ`.
    pub fn eventually(f: Formula) -> Self {
        Formula::until(Formula::True, f)
    }

    /// Globally `□φ = false R φ`.
    pub fn globally(f: Formula) -> Self {
        Formula::release(Formula::False, f)
    }

    /// Conjunction of an iterator of formulas (`true` when empty).
    pub fn conj<I: IntoIterator<Item = Formula>>(parts: I) -> Self {
        parts.into_iter().fold(Formula::True, Formula::and)
    }

    /// Converts the formula into negation normal form (negations pushed to atoms).
    ///
    /// The result only contains `True`, `False`, `Atom`, `Not(Atom)`, `And`, `Or`,
    /// `Next`, `Until` and `Release`.
    pub fn nnf(&self) -> Formula {
        self.nnf_inner(false)
    }

    fn nnf_inner(&self, negated: bool) -> Formula {
        match (self, negated) {
            (Formula::True, false) | (Formula::False, true) => Formula::True,
            (Formula::True, true) | (Formula::False, false) => Formula::False,
            (Formula::Atom(a), false) => Formula::Atom(*a),
            (Formula::Atom(a), true) => Formula::Not(Arc::new(Formula::Atom(*a))),
            (Formula::Not(f), n) => f.nnf_inner(!n),
            (Formula::And(a, b), false) => Formula::and(a.nnf_inner(false), b.nnf_inner(false)),
            (Formula::And(a, b), true) => Formula::or(a.nnf_inner(true), b.nnf_inner(true)),
            (Formula::Or(a, b), false) => Formula::or(a.nnf_inner(false), b.nnf_inner(false)),
            (Formula::Or(a, b), true) => Formula::and(a.nnf_inner(true), b.nnf_inner(true)),
            (Formula::Next(f), n) => Formula::next(f.nnf_inner(n)),
            (Formula::Until(a, b), false) => Formula::until(a.nnf_inner(false), b.nnf_inner(false)),
            (Formula::Until(a, b), true) => Formula::release(a.nnf_inner(true), b.nnf_inner(true)),
            (Formula::Release(a, b), false) => {
                Formula::release(a.nnf_inner(false), b.nnf_inner(false))
            }
            (Formula::Release(a, b), true) => Formula::until(a.nnf_inner(true), b.nnf_inner(true)),
        }
    }

    /// The negation of the formula, in negation normal form.
    pub fn negated_nnf(&self) -> Formula {
        self.nnf_inner(true)
    }

    /// Collects the set of atomic propositions occurring in the formula.
    pub fn atoms(&self) -> BTreeSet<AtomId> {
        let mut set = BTreeSet::new();
        self.collect_atoms(&mut set);
        set
    }

    fn collect_atoms(&self, out: &mut BTreeSet<AtomId>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                out.insert(*a);
            }
            Formula::Not(f) | Formula::Next(f) => f.collect_atoms(out),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Until(a, b)
            | Formula::Release(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// Number of AST nodes (a rough complexity measure used by tests and generators).
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(f) | Formula::Next(f) => 1 + f.size(),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Until(a, b)
            | Formula::Release(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// True when the formula contains no temporal operator (a pure state predicate).
    pub fn is_propositional(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => true,
            Formula::Not(f) => f.is_propositional(),
            Formula::And(a, b) | Formula::Or(a, b) => a.is_propositional() && b.is_propositional(),
            Formula::Next(_) | Formula::Until(_, _) | Formula::Release(_, _) => false,
        }
    }

    /// Pretty-prints the formula using the names in `names` (a closure mapping atoms to
    /// strings); used by [`fmt::Display`] with raw atom ids.
    pub fn display_with<'a, F>(&'a self, names: F) -> DisplayFormula<'a, F>
    where
        F: Fn(AtomId) -> String,
    {
        DisplayFormula { f: self, names }
    }
}

/// Helper returned by [`Formula::display_with`].
pub struct DisplayFormula<'a, F> {
    f: &'a Formula,
    names: F,
}

impl<'a, F: Fn(AtomId) -> String> fmt::Display for DisplayFormula<'a, F> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_formula(self.f, &self.names, out)
    }
}

fn write_formula<F: Fn(AtomId) -> String>(
    f: &Formula,
    names: &F,
    out: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    match f {
        Formula::True => write!(out, "true"),
        Formula::False => write!(out, "false"),
        Formula::Atom(a) => write!(out, "{}", names(*a)),
        Formula::Not(inner) => {
            write!(out, "!(")?;
            write_formula(inner, names, out)?;
            write!(out, ")")
        }
        Formula::And(a, b) => {
            write!(out, "(")?;
            write_formula(a, names, out)?;
            write!(out, " && ")?;
            write_formula(b, names, out)?;
            write!(out, ")")
        }
        Formula::Or(a, b) => {
            write!(out, "(")?;
            write_formula(a, names, out)?;
            write!(out, " || ")?;
            write_formula(b, names, out)?;
            write!(out, ")")
        }
        Formula::Next(inner) => {
            write!(out, "X(")?;
            write_formula(inner, names, out)?;
            write!(out, ")")
        }
        Formula::Until(a, b) => {
            write!(out, "(")?;
            write_formula(a, names, out)?;
            write!(out, " U ")?;
            write_formula(b, names, out)?;
            write!(out, ")")
        }
        Formula::Release(a, b) => {
            write!(out, "(")?;
            write_formula(a, names, out)?;
            write!(out, " R ")?;
            write_formula(b, names, out)?;
            write!(out, ")")
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |a: AtomId| format!("{a}");
        write_formula(self, &names, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> Formula {
        Formula::Atom(AtomId(i))
    }

    #[test]
    fn smart_constructors_simplify() {
        assert_eq!(Formula::not(Formula::True), Formula::False);
        assert_eq!(Formula::not(Formula::not(a(0))), a(0));
        assert_eq!(Formula::and(Formula::True, a(1)), a(1));
        assert_eq!(Formula::and(Formula::False, a(1)), Formula::False);
        assert_eq!(Formula::or(Formula::True, a(1)), Formula::True);
        assert_eq!(Formula::or(Formula::False, a(1)), a(1));
        assert_eq!(Formula::and(a(2), a(2)), a(2));
    }

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        // !(a U b) -> (!a R !b)
        let f = Formula::not(Formula::until(a(0), a(1)));
        let nnf = f.nnf();
        match nnf {
            Formula::Release(x, y) => {
                assert_eq!(*x, Formula::not(a(0)));
                assert_eq!(*y, Formula::not(a(1)));
            }
            other => panic!("expected release, got {other}"),
        }
    }

    #[test]
    fn nnf_of_globally_eventually() {
        // !(G F a) = F G !a = true U (false R !a)
        let f = Formula::not(Formula::globally(Formula::eventually(a(0))));
        let nnf = f.nnf();
        assert_eq!(
            nnf,
            Formula::until(
                Formula::True,
                Formula::release(Formula::False, Formula::not(a(0)))
            )
        );
    }

    #[test]
    fn atoms_are_collected() {
        let f = Formula::until(Formula::and(a(0), a(3)), Formula::next(a(1)));
        let atoms: Vec<_> = f.atoms().into_iter().collect();
        assert_eq!(atoms, vec![AtomId(0), AtomId(1), AtomId(3)]);
    }

    #[test]
    fn size_and_propositional() {
        let f = Formula::implies(a(0), Formula::until(a(1), a(2)));
        assert!(!f.is_propositional());
        assert!(Formula::and(a(0), Formula::not(a(1))).is_propositional());
        assert!(f.size() >= 5);
    }

    #[test]
    fn display_roundtrip_shape() {
        let f = Formula::globally(Formula::implies(a(0), Formula::eventually(a(1))));
        let s = format!("{f}");
        assert!(s.contains('R') && s.contains('U'));
    }
}
