//! Lamport-style vector clocks (Definition in §4.2 of the thesis).
//!
//! A vector clock `VC` of process `Pi` maps every process index `j` to the number of
//! events of `Pj` that `Pi` knows to have happened.  Vector clocks are piggybacked on
//! program messages and on monitor tokens; comparing them implements the
//! happened-before relation and detects concurrency and inconsistency of cuts.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The most entries a clock keeps inline.  Every clock of a system of up to
/// this many processes is a plain value: recording, copying or decoding it
/// allocates nothing.  Not four: a clock of four entries stays the 32 B heap
/// block it always was, because inlining it moves where the allocator places
/// the monitors' histories and with it the resident set (docs/PERFORMANCE.md,
/// "Inline vector clocks").
const INLINE: usize = 3;

/// A vector clock over a fixed number of processes.
///
/// A clock of up to three entries keeps them inline; a longer one keeps them in
/// one heap block of exactly its entries.  The form follows from the length
/// alone, so two clocks with equal entries always have the same form.
#[derive(Clone)]
pub struct VectorClock {
    repr: Repr,
}

/// The two forms of a clock; which one a clock takes depends on its length only.
#[derive(Clone)]
enum Repr {
    /// `len ≤ INLINE` entries in `words[..len]`; the words past `len` are zero.
    Inline { len: u8, words: [u64; INLINE] },
    /// More than `INLINE` entries.
    Heap(Vec<u64>),
}

impl VectorClock {
    /// The zero clock for `n` processes.
    pub fn zero(n: usize) -> Self {
        let repr = if n <= INLINE {
            Repr::Inline {
                len: n as u8,
                words: [0; INLINE],
            }
        } else {
            Repr::Heap(vec![0; n])
        };
        VectorClock { repr }
    }

    /// Builds a clock from explicit entries.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        if entries.len() <= INLINE {
            Self::from_slice(&entries)
        } else {
            VectorClock {
                repr: Repr::Heap(entries),
            }
        }
    }

    /// Builds a clock holding a copy of `entries`.
    pub fn from_slice(entries: &[u64]) -> Self {
        let repr = if entries.len() <= INLINE {
            let mut words = [0; INLINE];
            words[..entries.len()].copy_from_slice(entries);
            Repr::Inline {
                len: entries.len() as u8,
                words,
            }
        } else {
            Repr::Heap(entries.to_vec())
        };
        VectorClock { repr }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when the clock has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// The entry for process `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.entries()[i]
    }

    /// Sets the entry for process `i`.
    pub fn set(&mut self, i: usize, value: u64) {
        self.entries_mut()[i] = value;
    }

    /// Increments the entry of process `i` (called when `Pi` produces an event).
    pub fn increment(&mut self, i: usize) {
        self.entries_mut()[i] += 1;
    }

    /// Component-wise maximum with `other` (called on message receipt).
    pub fn merge(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.entries_mut().iter_mut().zip(other.entries()) {
            *a = (*a).max(*b);
        }
    }

    /// Returns the component-wise maximum of two clocks.
    pub fn join(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Returns the component-wise minimum of two clocks.
    pub fn meet(&self, other: &VectorClock) -> VectorClock {
        debug_assert_eq!(self.len(), other.len());
        let mut out = self.clone();
        for (a, b) in out.entries_mut().iter_mut().zip(other.entries()) {
            *a = (*a).min(*b);
        }
        out
    }

    /// `self ≤ other` component-wise.
    pub fn leq(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.entries()
            .iter()
            .zip(other.entries())
            .all(|(a, b)| a <= b)
    }

    /// Happened-before: `self < other` (≤ and not equal).
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        self.leq(other) && self != other
    }

    /// Two clocks are concurrent when neither happened before the other.
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }

    /// Partial-order comparison of clocks.
    pub fn partial_cmp_clock(&self, other: &VectorClock) -> Option<Ordering> {
        if self == other {
            Some(Ordering::Equal)
        } else if self.leq(other) {
            Some(Ordering::Less)
        } else if other.leq(self) {
            Some(Ordering::Greater)
        } else {
            None
        }
    }

    /// Raw entries.
    #[inline]
    pub fn entries(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { len, words } => &words[..usize::from(*len)],
            Repr::Heap(entries) => entries,
        }
    }

    #[inline]
    fn entries_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline { len, words } => &mut words[..usize::from(*len)],
            Repr::Heap(entries) => entries,
        }
    }

    /// Overwrites this clock with `entries`, taking the form their length calls
    /// for.  A heap clock overwritten with four or more entries keeps its block
    /// (the monitor's clock pool leans on this); a heap clock given three or
    /// fewer drops it, and an inline clock given four or more allocates one.
    pub fn copy_from(&mut self, entries: &[u64]) {
        match &mut self.repr {
            Repr::Heap(own) if entries.len() > INLINE => {
                own.clear();
                own.extend_from_slice(entries);
            }
            _ => *self = Self::from_slice(entries),
        }
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorClock")
            .field("entries", &self.entries())
            .finish()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increment_and_get() {
        let mut vc = VectorClock::zero(3);
        vc.increment(1);
        vc.increment(1);
        vc.increment(2);
        assert_eq!(vc.entries(), &[0, 2, 1]);
        assert_eq!(vc.get(1), 2);
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = VectorClock::from_entries(vec![3, 0, 1]);
        let b = VectorClock::from_entries(vec![1, 2, 1]);
        a.merge(&b);
        assert_eq!(a.entries(), &[3, 2, 1]);
    }

    #[test]
    fn happened_before_and_concurrency() {
        let a = VectorClock::from_entries(vec![1, 0]);
        let b = VectorClock::from_entries(vec![2, 1]);
        let c = VectorClock::from_entries(vec![0, 1]);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        assert!(a.concurrent(&c));
        assert!(!a.concurrent(&a), "a clock is not concurrent with itself");
        assert!(!a.happened_before(&a));
    }

    #[test]
    fn join_meet_lattice_laws() {
        let a = VectorClock::from_entries(vec![2, 0, 5]);
        let b = VectorClock::from_entries(vec![1, 3, 4]);
        let j = a.join(&b);
        let m = a.meet(&b);
        assert_eq!(j.entries(), &[2, 3, 5]);
        assert_eq!(m.entries(), &[1, 0, 4]);
        assert!(m.leq(&a) && m.leq(&b));
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn partial_ordering() {
        let a = VectorClock::from_entries(vec![1, 1]);
        let b = VectorClock::from_entries(vec![1, 2]);
        let c = VectorClock::from_entries(vec![2, 1]);
        assert_eq!(a.partial_cmp_clock(&a), Some(Ordering::Equal));
        assert_eq!(a.partial_cmp_clock(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp_clock(&a), Some(Ordering::Greater));
        assert_eq!(b.partial_cmp_clock(&c), None);
    }

    #[test]
    fn display_formats_entries() {
        let vc = VectorClock::from_entries(vec![1, 0, 2]);
        assert_eq!(format!("{vc}"), "[1,0,2]");
    }
}
