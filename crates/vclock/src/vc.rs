//! Lamport-style vector clocks (Definition in §4.2 of the thesis).
//!
//! A vector clock `VC` of process `Pi` maps every process index `j` to the number of
//! events of `Pj` that `Pi` knows to have happened.  Vector clocks are piggybacked on
//! program messages and on monitor tokens; comparing them implements the
//! happened-before relation and detects concurrency and inconsistency of cuts.

use std::cmp::Ordering;
use std::fmt;

/// A vector clock over a fixed number of processes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// The zero clock for `n` processes.
    pub fn zero(n: usize) -> Self {
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// Builds a clock from explicit entries.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        VectorClock { entries }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the clock has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for process `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.entries[i]
    }

    /// Sets the entry for process `i`.
    pub fn set(&mut self, i: usize, value: u64) {
        self.entries[i] = value;
    }

    /// Increments the entry of process `i` (called when `Pi` produces an event).
    pub fn increment(&mut self, i: usize) {
        self.entries[i] += 1;
    }

    /// Component-wise maximum with `other` (called on message receipt).
    pub fn merge(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
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
        VectorClock {
            entries: self
                .entries
                .iter()
                .zip(other.entries.iter())
                .map(|(a, b)| (*a).min(*b))
                .collect(),
        }
    }

    /// `self ≤ other` component-wise.
    pub fn leq(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.entries
            .iter()
            .zip(other.entries.iter())
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
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Overwrites this clock with `entries`, reusing the existing entry buffer
    /// (unlike a fresh clock, which allocates one).  The slab recyclers of the
    /// monitor hot path lean on this to turn per-event clock copies into plain
    /// memcpys.
    pub fn copy_from(&mut self, entries: &[u64]) {
        self.entries.clear();
        self.entries.extend_from_slice(entries);
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
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
