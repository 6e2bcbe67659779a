//! Global-state predicates: assignments, literals, conjunctive cubes and DNF covers.
//!
//! The paper's monitor-automaton transitions are labelled by *conjunctive* global-state
//! predicates (disjunctive guards are split into one transition per disjunct, §4.3.3).
//! A conjunctive predicate is a [`Cube`]: a set of literals over atomic propositions,
//! each owned by some process.  The decentralized algorithm decomposes a cube into
//! per-process conjuncts ([`Cube::conjuncts_by_process`]) so that every monitor can
//! evaluate its own share locally and request the remainder via tokens.

use crate::atoms::{AtomId, AtomRegistry, ProcessId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A truth assignment over at most 64 atomic propositions, stored as a bitmask.
///
/// Bit `i` is the value of the atom with dense index `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Assignment(pub u64);

impl Assignment {
    /// The assignment where every atom is false.
    pub const ALL_FALSE: Assignment = Assignment(0);

    /// Creates an assignment from an iterator of true atoms.
    pub fn from_true_atoms<I: IntoIterator<Item = AtomId>>(atoms: I) -> Self {
        let mut mask = 0u64;
        for a in atoms {
            mask |= 1 << a.index();
        }
        Assignment(mask)
    }

    /// Returns the value of `atom`.
    #[inline]
    pub fn get(&self, atom: AtomId) -> bool {
        (self.0 >> atom.index()) & 1 == 1
    }

    /// Returns a copy with `atom` set to `value`.
    #[inline]
    pub fn with(&self, atom: AtomId, value: bool) -> Assignment {
        let bit = 1u64 << atom.index();
        Assignment(if value { self.0 | bit } else { self.0 & !bit })
    }

    /// Sets `atom` to `value` in place.
    #[inline]
    pub fn set(&mut self, atom: AtomId, value: bool) {
        *self = self.with(atom, value);
    }

    /// Enumerates all `2^n` assignments over the first `n` atoms.
    pub fn enumerate(n: usize) -> impl Iterator<Item = Assignment> {
        assert!(
            n <= 20,
            "exhaustive enumeration over {n} atoms is unreasonable"
        );
        (0u64..(1u64 << n)).map(Assignment)
    }
}

/// A literal: an atomic proposition or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    /// The atom.
    pub atom: AtomId,
    /// `true` for the positive literal, `false` for the negated one.
    pub positive: bool,
}

impl Literal {
    /// Positive literal over `atom`.
    pub fn pos(atom: AtomId) -> Self {
        Literal {
            atom,
            positive: true,
        }
    }

    /// Negative literal over `atom`.
    pub fn neg(atom: AtomId) -> Self {
        Literal {
            atom,
            positive: false,
        }
    }

    /// Evaluates the literal under `assignment`.
    #[inline]
    pub fn eval(&self, assignment: Assignment) -> bool {
        assignment.get(self.atom) == self.positive
    }

    /// The complementary literal.
    pub fn negated(&self) -> Literal {
        Literal {
            atom: self.atom,
            positive: !self.positive,
        }
    }
}

/// A conjunctive cube of literals (the label of one monitor transition).
///
/// The empty cube is `true`.  Internally literals are kept sorted by atom; a cube never
/// contains two literals over the same atom (such a conjunction is contradictory and is
/// rejected by [`Cube::insert`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cube {
    literals: Vec<Literal>,
}

impl Cube {
    /// The `true` cube (no constraints).
    pub fn top() -> Self {
        Cube::default()
    }

    /// Builds a cube from literals; returns `None` if two literals contradict.
    pub fn new<I: IntoIterator<Item = Literal>>(literals: I) -> Option<Self> {
        let mut cube = Cube::top();
        for lit in literals {
            if !cube.insert(lit) {
                return None;
            }
        }
        Some(cube)
    }

    /// Adds a literal; returns `false` (leaving the cube unchanged) on contradiction.
    pub fn insert(&mut self, lit: Literal) -> bool {
        match self.literals.binary_search_by_key(&lit.atom, |l| l.atom) {
            Ok(i) => self.literals[i].positive == lit.positive,
            Err(i) => {
                self.literals.insert(i, lit);
                true
            }
        }
    }

    /// The literals of the cube, sorted by atom.
    pub fn literals(&self) -> &[Literal] {
        &self.literals
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True for the unconstrained (`true`) cube.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Evaluates the cube under `assignment`.
    pub fn eval(&self, assignment: Assignment) -> bool {
        self.literals.iter().all(|l| l.eval(assignment))
    }

    /// Returns the polarity this cube requires of `atom`, if constrained.
    pub fn polarity_of(&self, atom: AtomId) -> Option<bool> {
        self.literals
            .binary_search_by_key(&atom, |l| l.atom)
            .ok()
            .map(|i| self.literals[i].positive)
    }

    /// Conjunction of two cubes; `None` if they contradict.
    pub fn conjoin(&self, other: &Cube) -> Option<Cube> {
        let mut out = self.clone();
        for lit in &other.literals {
            if !out.insert(*lit) {
                return None;
            }
        }
        Some(out)
    }

    /// True when every assignment satisfying `self` also satisfies `other`
    /// (i.e. `other`'s literals are a subset of `self`'s).
    pub fn implies(&self, other: &Cube) -> bool {
        other
            .literals
            .iter()
            .all(|lit| self.polarity_of(lit.atom) == Some(lit.positive))
    }

    /// Splits the cube into per-process conjuncts using the ownership information in
    /// `registry`.  Processes with no literal in the cube are absent from the map.
    pub fn conjuncts_by_process(&self, registry: &AtomRegistry) -> BTreeMap<ProcessId, Cube> {
        let mut out: BTreeMap<ProcessId, Cube> = BTreeMap::new();
        for lit in &self.literals {
            out.entry(registry.owner(lit.atom))
                .or_insert_with(Cube::top)
                .insert(*lit);
        }
        out
    }

    /// Renders the cube with atom names from `registry`.
    pub fn display(&self, registry: &AtomRegistry) -> String {
        if self.literals.is_empty() {
            return "true".to_string();
        }
        self.literals
            .iter()
            .map(|l| {
                if l.positive {
                    registry.name(l.atom).to_string()
                } else {
                    format!("!{}", registry.name(l.atom))
                }
            })
            .collect::<Vec<_>>()
            .join(" && ")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "true");
        }
        let parts: Vec<String> = self
            .literals
            .iter()
            .map(|l| {
                if l.positive {
                    format!("{}", l.atom)
                } else {
                    format!("!{}", l.atom)
                }
            })
            .collect();
        write!(f, "{}", parts.join(" && "))
    }
}

/// A predicate in disjunctive normal form: a disjunction of [`Cube`]s.
///
/// The empty disjunction is `false`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Predicate {
    cubes: Vec<Cube>,
}

impl Predicate {
    /// The `false` predicate.
    pub fn bottom() -> Self {
        Predicate { cubes: Vec::new() }
    }

    /// The `true` predicate (a single unconstrained cube).
    pub fn top() -> Self {
        Predicate {
            cubes: vec![Cube::top()],
        }
    }

    /// Adds a cube unless it is subsumed by an existing one; removes cubes the new cube
    /// subsumes.
    pub fn add_cube(&mut self, cube: Cube) {
        if self.cubes.iter().any(|c| cube.implies(c)) {
            return;
        }
        self.cubes.retain(|c| !c.implies(&cube));
        self.cubes.push(cube);
    }

    /// The cubes of the DNF.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Evaluates the predicate under `assignment`.
    pub fn eval(&self, assignment: Assignment) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// Computes a compact cube cover of an explicit set of satisfying assignments over
    /// the first `n_atoms` atoms.
    ///
    /// This is a greedy cube-merging pass (repeatedly merging cubes that differ in the
    /// polarity of exactly one atom, then dropping subsumed cubes).  It is used to turn
    /// the explicit transition relation of a synthesized monitor into the conjunctive
    /// transition labels the paper reports in Table 5.1.
    ///
    /// The pass runs on `(care, value)` bit masks and builds [`Cube`]s only for the
    /// result; it orders the masks exactly as `Cube`'s own ordering would, so the
    /// cover — and the transition ids numbered from it — comes out in a fixed order.
    ///
    /// Panics if `n_atoms > 21`.
    pub fn cover_of_assignments(assignments: &[Assignment], n_atoms: usize) -> Predicate {
        if assignments.is_empty() {
            return Predicate::bottom();
        }
        let total = 1u64 << n_atoms;
        if assignments.len() as u64 == total {
            return Predicate::top();
        }
        assert!(
            n_atoms <= MaskCube::MAX_ATOMS,
            "a cover over {n_atoms} atoms is not supported"
        );
        // Start with one full cube per assignment.
        let full = total - 1;
        let mut cubes: Vec<MaskCube> = assignments
            .iter()
            .map(|a| MaskCube {
                care: full,
                value: a.0 & full,
            })
            .collect();

        // Iteratively merge cube pairs that differ in exactly one atom's polarity.
        let mut partners = Vec::new();
        loop {
            cubes.sort_by_cached_key(MaskCube::literal_order);
            cubes.dedup();
            let position: HashMap<MaskCube, usize> =
                cubes.iter().enumerate().map(|(i, &c)| (c, i)).collect();
            let mut merged = Vec::new();
            let mut used = vec![false; cubes.len()];
            for (i, &c) in cubes.iter().enumerate() {
                // The cubes after `c` that differ from it in one polarity, met in list
                // order, as a scan over all pairs `i < j` would meet them.
                partners.clear();
                partners.extend(c.care_bits().filter_map(|bit| {
                    let flipped = MaskCube {
                        care: c.care,
                        value: c.value ^ bit,
                    };
                    position
                        .get(&flipped)
                        .filter(|&&j| j > i)
                        .map(|&j| (j, bit))
                }));
                partners.sort_unstable();
                for &(j, bit) in &partners {
                    merged.push(MaskCube {
                        care: c.care & !bit,
                        value: c.value & !bit,
                    });
                    used[i] = true;
                    used[j] = true;
                }
            }
            let changed = !merged.is_empty();
            for (i, &c) in cubes.iter().enumerate() {
                if !used[i] {
                    merged.push(c);
                }
            }
            cubes = merged;
            if !changed {
                break;
            }
        }

        // Drop subsumed cubes, as `add_cube` does.
        let mut kept: Vec<MaskCube> = Vec::new();
        for c in cubes {
            if kept.iter().any(|k| c.implies(*k)) {
                continue;
            }
            kept.retain(|k| !k.implies(c));
            kept.push(c);
        }
        Predicate {
            cubes: kept.into_iter().map(MaskCube::to_cube).collect(),
        }
    }
}

/// A cube over atoms `0..64` as two masks: bit `i` of `care` says atom `i` is
/// constrained, bit `i` of `value` the polarity it must have (`value ⊆ care`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MaskCube {
    care: u64,
    value: u64,
}

impl MaskCube {
    /// Atoms [`literal_order`](Self::literal_order) can pack: 21 six-bit fields fit
    /// a `u128`, and the largest code (atom 20, positive) is 42.
    const MAX_ATOMS: usize = 21;

    /// A key that orders mask cubes as [`Cube`]'s derived `Ord` orders their literal
    /// vectors: one 6-bit field per literal, atoms ascending, most significant field
    /// first, code `atom * 2 + positive + 1` (so the zero padding after a shorter
    /// cube sorts it before every extension of it, as a vector prefix does).
    fn literal_order(&self) -> u128 {
        let mut key = 0u128;
        let mut fields = 0;
        for bit in self.care_bits() {
            let atom = bit.trailing_zeros();
            let code = u128::from(atom) * 2 + 1 + u128::from(self.value & bit != 0);
            key = (key << 6) | code;
            fields += 1;
        }
        key << (6 * (Self::MAX_ATOMS - fields))
    }

    /// One single-bit mask per constrained atom, ascending.
    fn care_bits(self) -> impl Iterator<Item = u64> {
        let mut care = self.care;
        std::iter::from_fn(move || {
            (care != 0).then(|| {
                let bit = care & care.wrapping_neg();
                care &= care - 1;
                bit
            })
        })
    }

    /// [`Cube::implies`]: every literal of `other` is a literal of `self`.
    fn implies(self, other: MaskCube) -> bool {
        other.care & !self.care == 0 && self.value & other.care == other.value
    }

    fn to_cube(self) -> Cube {
        let literals = self
            .care_bits()
            .map(|bit| Literal {
                atom: AtomId(bit.trailing_zeros()),
                positive: self.value & bit != 0,
            })
            .collect();
        Cube { literals }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "false");
        }
        let parts: Vec<String> = self.cubes.iter().map(|c| format!("({c})")).collect();
        write!(f, "{}", parts.join(" || "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AtomId {
        AtomId(i)
    }

    #[test]
    fn assignment_bits() {
        let mut asg = Assignment::ALL_FALSE;
        assert!(!asg.get(a(3)));
        asg.set(a(3), true);
        assert!(asg.get(a(3)));
        asg.set(a(3), false);
        assert!(!asg.get(a(3)));
        let asg2 = Assignment::from_true_atoms([a(0), a(2)]);
        assert_eq!(asg2, Assignment(0b101));
        assert_eq!(Assignment::enumerate(3).count(), 8);
    }

    #[test]
    fn cube_contradiction_rejected() {
        let c = Cube::new([Literal::pos(a(0)), Literal::neg(a(0))]);
        assert!(c.is_none());
        let mut c2 = Cube::top();
        assert!(c2.insert(Literal::pos(a(1))));
        assert!(!c2.insert(Literal::neg(a(1))));
        assert!(
            c2.insert(Literal::pos(a(1))),
            "re-inserting same literal is fine"
        );
    }

    #[test]
    fn cube_eval_and_implies() {
        let c = Cube::new([Literal::pos(a(0)), Literal::neg(a(1))]).unwrap();
        assert!(c.eval(Assignment::from_true_atoms([a(0)])));
        assert!(!c.eval(Assignment::from_true_atoms([a(0), a(1)])));
        let weaker = Cube::new([Literal::pos(a(0))]).unwrap();
        assert!(c.implies(&weaker));
        assert!(!weaker.implies(&c));
        assert!(c.implies(&Cube::top()));
    }

    #[test]
    fn conjuncts_by_process_splits_ownership() {
        let mut reg = AtomRegistry::new();
        let p0p = reg.intern("P0.p", 0);
        let p0q = reg.intern("P0.q", 0);
        let p1p = reg.intern("P1.p", 1);
        let cube = Cube::new([Literal::pos(p0p), Literal::neg(p0q), Literal::pos(p1p)]).unwrap();
        let split = cube.conjuncts_by_process(&reg);
        assert_eq!(split.len(), 2);
        assert_eq!(split[&0].len(), 2);
        assert_eq!(split[&1].len(), 1);
    }

    #[test]
    fn predicate_subsumption() {
        let strong = Cube::new([Literal::pos(a(0)), Literal::pos(a(1))]).unwrap();
        let weak = Cube::new([Literal::pos(a(0))]).unwrap();
        let mut p = Predicate::bottom();
        p.add_cube(strong.clone());
        p.add_cube(weak.clone());
        assert_eq!(p.cubes(), std::slice::from_ref(&weak));
        // Adding the stronger cube afterwards is a no-op.
        p.add_cube(strong);
        assert_eq!(p.cubes().len(), 1);
    }

    #[test]
    fn cover_of_assignments_is_exact() {
        // Target function over 3 atoms: a0 XOR a1 (independent of a2).
        let sat: Vec<Assignment> = Assignment::enumerate(3)
            .filter(|asg| asg.get(a(0)) != asg.get(a(1)))
            .collect();
        let cover = Predicate::cover_of_assignments(&sat, 3);
        for asg in Assignment::enumerate(3) {
            assert_eq!(cover.eval(asg), asg.get(a(0)) != asg.get(a(1)));
        }
        // The cover must have dropped the irrelevant atom a2 from every cube.
        for cube in cover.cubes() {
            assert!(cube.polarity_of(a(2)).is_none());
        }
    }

    #[test]
    fn cover_of_all_assignments_is_true() {
        let all: Vec<Assignment> = Assignment::enumerate(2).collect();
        assert_eq!(
            Predicate::cover_of_assignments(&all, 2).cubes(),
            [Cube::top()]
        );
        assert!(Predicate::cover_of_assignments(&[], 2).cubes().is_empty());
    }

    #[test]
    fn paper_example_predicate() {
        // (x1>=5) && (x2>=15) && (x1!=10): three atoms, two processes.
        let mut reg = AtomRegistry::new();
        let x1ge5 = reg.intern("x1>=5", 0);
        let x2ge15 = reg.intern("x2>=15", 1);
        let x1eq10 = reg.intern("x1==10", 0);
        let cube = Cube::new([
            Literal::pos(x1ge5),
            Literal::pos(x2ge15),
            Literal::neg(x1eq10),
        ])
        .unwrap();
        let split = cube.conjuncts_by_process(&reg);
        assert_eq!(split[&0].len(), 2, "process 0 owns x1>=5 and x1!=10");
        assert_eq!(split[&1].len(), 1);
    }
}
