//! LTL semantics over ultimately-periodic words and the three-valued verdict type.
//!
//! The decentralized monitor only ever works with the synthesized Moore machine, but
//! to *validate* that synthesis this module provides a reference implementation of LTL
//! semantics (Definition 9 of the thesis) over lasso words `u · v^ω`.  Every infinite
//! word an automaton-based check can distinguish is ultimately periodic, so agreement
//! on lassos is the right cross-check for the Büchi construction.

use crate::predicate::Assignment;
use crate::syntax::Formula;
use std::fmt;

/// The three-valued LTL₃ verdict (Definition 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// `⊥` — every infinite extension of the observed prefix violates the property.
    False,
    /// `?` — the prefix is inconclusive.
    #[default]
    Unknown,
    /// `⊤` — every infinite extension of the observed prefix satisfies the property.
    True,
}

impl Verdict {
    /// True for `⊤` or `⊥` (the verdict can never change again).
    pub fn is_final(self) -> bool {
        matches!(self, Verdict::True | Verdict::False)
    }

    /// The verdict of the negated property.
    pub fn negate(self) -> Verdict {
        match self {
            Verdict::True => Verdict::False,
            Verdict::False => Verdict::True,
            Verdict::Unknown => Verdict::Unknown,
        }
    }

    /// Symbol used in reports: `⊤`, `⊥` or `?`.
    pub fn symbol(self) -> &'static str {
        match self {
            Verdict::True => "⊤",
            Verdict::False => "⊥",
            Verdict::Unknown => "?",
        }
    }

    /// Stable on-disk name: `"true"`, `"false"` or `"unknown"`.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::True => "true",
            Verdict::False => "false",
            Verdict::Unknown => "unknown",
        }
    }

    /// The verdict whose [`name`](Self::name) is `name`, if any.
    pub fn from_name(name: &str) -> Option<Verdict> {
        Verdict::ALL.into_iter().find(|v| v.name() == name)
    }

    /// Every verdict, in order.
    const ALL: [Verdict; 3] = [Verdict::False, Verdict::Unknown, Verdict::True];

    /// This verdict's bit in a [`Verdicts`] set.
    const fn bit(self) -> u8 {
        match self {
            Verdict::False => 1,
            Verdict::True => 2,
            Verdict::Unknown => 4,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A set of LTL₃ verdicts — what a monitor or a session reports as detected or
/// still possible — one bit per verdict: ⊥ = 1, ⊤ = 2, ? = 4.  The final
/// verdicts take the low bits, so a set of ⊤/⊥ only is a number from 0 to 3
/// (the byte a token carries).  Iteration follows [`Verdict`]'s order and
/// `Debug` prints a set, as a `BTreeSet` of them would.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdicts(u8);

impl Verdicts {
    /// The empty set.
    pub const EMPTY: Verdicts = Verdicts(0);

    /// The set whose [`bits`](Self::bits) are `bits`, if every bit names a verdict.
    pub fn from_bits(bits: u8) -> Option<Verdicts> {
        (bits < 8).then_some(Verdicts(bits))
    }

    /// The set as its bits (⊥ = 1, ⊤ = 2, ? = 4).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Whether `verdict` is in the set.
    pub fn contains(&self, verdict: &Verdict) -> bool {
        self.0 & verdict.bit() != 0
    }

    /// Adds `verdict`; returns whether it was new.
    pub fn insert(&mut self, verdict: Verdict) -> bool {
        let new = !self.contains(&verdict);
        self.0 |= verdict.bit();
        new
    }

    /// The verdicts in the set, in [`Verdict`]'s order.
    pub fn iter(&self) -> impl Iterator<Item = Verdict> {
        let set = *self;
        Verdict::ALL.into_iter().filter(move |v| set.contains(v))
    }

    /// Number of verdicts in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set has no verdict.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Whether every verdict of this set is in `other`.
    pub fn is_subset(&self, other: &Verdicts) -> bool {
        self.0 & !other.0 == 0
    }
}

impl std::ops::BitOr for Verdicts {
    type Output = Verdicts;

    /// The union of both sets.
    fn bitor(self, other: Verdicts) -> Verdicts {
        Verdicts(self.0 | other.0)
    }
}

impl std::ops::BitOrAssign for Verdicts {
    fn bitor_assign(&mut self, other: Verdicts) {
        self.0 |= other.0;
    }
}

impl From<Verdict> for Verdicts {
    fn from(verdict: Verdict) -> Verdicts {
        Verdicts(verdict.bit())
    }
}

impl<const N: usize> From<[Verdict; N]> for Verdicts {
    fn from(verdicts: [Verdict; N]) -> Verdicts {
        verdicts.into_iter().collect()
    }
}

impl Extend<Verdict> for Verdicts {
    fn extend<I: IntoIterator<Item = Verdict>>(&mut self, verdicts: I) {
        for verdict in verdicts {
            self.insert(verdict);
        }
    }
}

impl FromIterator<Verdict> for Verdicts {
    fn from_iter<I: IntoIterator<Item = Verdict>>(verdicts: I) -> Verdicts {
        let mut set = Verdicts::EMPTY;
        set.extend(verdicts);
        set
    }
}

impl fmt::Debug for Verdicts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Evaluates `formula` on the lasso word `prefix · cycle^ω`.
///
/// `cycle` must be non-empty.  Returns the truth value of `prefix·cycle^ω ⊨ formula`
/// at position 0.
pub fn evaluate_lasso(formula: &Formula, prefix: &[Assignment], cycle: &[Assignment]) -> bool {
    assert!(!cycle.is_empty(), "lasso cycle must be non-empty");
    let word: Vec<Assignment> = prefix.iter().chain(cycle.iter()).copied().collect();
    let n = word.len();
    let loop_start = prefix.len();
    let succ = |i: usize| if i + 1 < n { i + 1 } else { loop_start };
    eval_positions(formula, &word, &succ)[0]
}

/// Computes, for each position of the unrolled lasso, whether `formula` holds there.
fn eval_positions(
    formula: &Formula,
    word: &[Assignment],
    succ: &impl Fn(usize) -> usize,
) -> Vec<bool> {
    let n = word.len();
    match formula {
        Formula::True => vec![true; n],
        Formula::False => vec![false; n],
        Formula::Atom(a) => word.iter().map(|asg| asg.get(*a)).collect(),
        Formula::Not(f) => eval_positions(f, word, succ)
            .into_iter()
            .map(|b| !b)
            .collect(),
        Formula::And(a, b) => {
            let va = eval_positions(a, word, succ);
            let vb = eval_positions(b, word, succ);
            va.into_iter().zip(vb).map(|(x, y)| x && y).collect()
        }
        Formula::Or(a, b) => {
            let va = eval_positions(a, word, succ);
            let vb = eval_positions(b, word, succ);
            va.into_iter().zip(vb).map(|(x, y)| x || y).collect()
        }
        Formula::Next(f) => {
            let vf = eval_positions(f, word, succ);
            (0..n).map(|i| vf[succ(i)]).collect()
        }
        Formula::Until(a, b) => {
            let va = eval_positions(a, word, succ);
            let vb = eval_positions(b, word, succ);
            // Least fixpoint of sat[i] = vb[i] || (va[i] && sat[succ(i)]).
            let mut sat = vec![false; n];
            loop {
                let mut changed = false;
                for i in (0..n).rev() {
                    let new = vb[i] || (va[i] && sat[succ(i)]);
                    if new != sat[i] {
                        sat[i] = new;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            sat
        }
        Formula::Release(a, b) => {
            let va = eval_positions(a, word, succ);
            let vb = eval_positions(b, word, succ);
            // Greatest fixpoint of sat[i] = vb[i] && (va[i] || sat[succ(i)]).
            let mut sat = vec![true; n];
            loop {
                let mut changed = false;
                for i in (0..n).rev() {
                    let new = vb[i] && (va[i] || sat[succ(i)]);
                    if new != sat[i] {
                        sat[i] = new;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            sat
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::AtomId;

    fn a(i: u32) -> Formula {
        Formula::Atom(AtomId(i))
    }

    fn asg(bits: &[u32]) -> Assignment {
        Assignment::from_true_atoms(bits.iter().map(|&i| AtomId(i)))
    }

    #[test]
    fn verdict_basics() {
        assert!(Verdict::True.is_final());
        assert!(Verdict::False.is_final());
        assert!(!Verdict::Unknown.is_final());
        assert_eq!(Verdict::True.negate(), Verdict::False);
        assert_eq!(Verdict::Unknown.negate(), Verdict::Unknown);
        assert_eq!(Verdict::False.symbol(), "⊥");
        assert!(Verdict::False < Verdict::Unknown && Verdict::Unknown < Verdict::True);
        for v in Verdict::ALL {
            assert_eq!(Verdict::from_name(v.name()), Some(v));
        }
        assert_eq!(Verdict::from_name("maybe"), None);
    }

    #[test]
    fn eventually_on_lasso() {
        // F a0 on word where a0 first appears in the cycle.
        let f = Formula::eventually(a(0));
        assert!(evaluate_lasso(&f, &[asg(&[])], &[asg(&[]), asg(&[0])]));
        // F a0 where a0 never appears.
        assert!(!evaluate_lasso(&f, &[asg(&[])], &[asg(&[])]));
        // F a0 where a0 appears only in the prefix.
        assert!(evaluate_lasso(&f, &[asg(&[0])], &[asg(&[])]));
    }

    #[test]
    fn globally_on_lasso() {
        let f = Formula::globally(a(0));
        assert!(evaluate_lasso(&f, &[asg(&[0])], &[asg(&[0])]));
        assert!(!evaluate_lasso(&f, &[asg(&[0])], &[asg(&[0]), asg(&[])]));
        // Violation only in the prefix still falsifies.
        assert!(!evaluate_lasso(&f, &[asg(&[])], &[asg(&[0])]));
    }

    #[test]
    fn until_requires_eventual_goal() {
        let f = Formula::until(a(0), a(1));
        // a0 holds until a1 appears.
        assert!(evaluate_lasso(
            &f,
            &[asg(&[0]), asg(&[0]), asg(&[1])],
            &[asg(&[])]
        ));
        // a0 holds forever but a1 never happens: until is strong, so false.
        assert!(!evaluate_lasso(&f, &[], &[asg(&[0])]));
        // a1 immediately: true regardless of a0.
        assert!(evaluate_lasso(&f, &[asg(&[1])], &[asg(&[])]));
        // a0 fails before a1 appears: false.
        assert!(!evaluate_lasso(
            &f,
            &[asg(&[0]), asg(&[]), asg(&[1])],
            &[asg(&[])]
        ));
    }

    #[test]
    fn release_is_dual_of_until() {
        let phi = Formula::release(a(0), a(1));
        let dual = Formula::not(Formula::until(Formula::not(a(0)), Formula::not(a(1))));
        for pattern in 0u8..16 {
            let word: Vec<Assignment> = (0..4)
                .map(|i| {
                    let mut s = Assignment::ALL_FALSE;
                    s.set(AtomId(0), pattern >> i & 1 == 1);
                    s.set(AtomId(1), pattern >> ((i + 2) % 4) & 1 == 1);
                    s
                })
                .collect();
            let (prefix, cycle) = word.split_at(2);
            assert_eq!(
                evaluate_lasso(&phi, prefix, cycle),
                evaluate_lasso(&dual, prefix, cycle),
                "mismatch for pattern {pattern:#b}"
            );
        }
    }

    #[test]
    fn next_wraps_into_cycle() {
        let f = Formula::next(a(0));
        // Word: prefix [!a0], cycle [a0] — X a0 at position 0 looks at cycle[0].
        assert!(evaluate_lasso(&f, &[asg(&[])], &[asg(&[0])]));
        // Single-state cycle without prefix: X a0 == a0 on that state.
        assert!(evaluate_lasso(&f, &[], &[asg(&[0])]));
        assert!(!evaluate_lasso(&f, &[], &[asg(&[])]));
    }

    #[test]
    fn response_property() {
        // G (req -> F grant), req = a0, grant = a1.
        let f = Formula::globally(Formula::implies(a(0), Formula::eventually(a(1))));
        // Every request granted within the cycle.
        assert!(evaluate_lasso(&f, &[], &[asg(&[0]), asg(&[]), asg(&[1])]));
        // A request in the cycle never granted.
        assert!(!evaluate_lasso(&f, &[asg(&[1])], &[asg(&[0]), asg(&[])]));
    }
}
