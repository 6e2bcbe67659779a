//! Batched vector-clock comparisons (§4.3 support).
//!
//! The decentralized monitor repeatedly compares *one* clock against *many* —
//! a candidate view's cut against every retained view while merging converged
//! views.  Doing that with `partial_cmp_clock` in a loop re-walks both clocks
//! per pair and, when the results are collected, reallocates the output vector
//! per scan.  This module provides the single-pass, buffer-reusing variant the
//! hot path uses: the caller keeps one scratch `Vec` alive across events and
//! every scan is a tight pass over contiguous entry slices.

use crate::vc::VectorClock;
use std::cmp::Ordering;

/// Compares `one` against every clock yielded by `others` in a single pass,
/// writing one `Option<Ordering>` per clock into `out` (cleared first, so the
/// buffer can be recycled across calls).  Each entry is exactly
/// `one.partial_cmp_clock(other)`: `Less` when `one` happened before the other
/// clock, `None` when they are concurrent.
pub fn compare_many<'a, I>(one: &VectorClock, others: I, out: &mut Vec<Option<Ordering>>)
where
    I: IntoIterator<Item = &'a VectorClock>,
{
    out.clear();
    let a = one.entries();
    for other in others {
        out.push(cmp_entries(a, other.entries()));
    }
}

/// Single-pass partial-order comparison over raw entry slices.  Tracks the
/// "some component strictly less / strictly greater" facts in one walk instead
/// of the two full `leq` walks `partial_cmp_clock` performs.
#[inline]
fn cmp_entries(a: &[u64], b: &[u64]) -> Option<Ordering> {
    debug_assert_eq!(a.len(), b.len());
    let mut less = false;
    let mut greater = false;
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            Ordering::Less => less = true,
            Ordering::Greater => greater = true,
            Ordering::Equal => {}
        }
        if less && greater {
            return None;
        }
    }
    match (less, greater) {
        (false, false) => Some(Ordering::Equal),
        (true, false) => Some(Ordering::Less),
        (false, true) => Some(Ordering::Greater),
        (true, true) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(entries: &[u64]) -> VectorClock {
        VectorClock::from_entries(entries.to_vec())
    }

    #[test]
    fn compare_many_matches_pairwise_partial_cmp() {
        let one = vc(&[2, 1, 3]);
        let others = [
            vc(&[2, 1, 3]), // equal
            vc(&[1, 1, 2]), // one is greater
            vc(&[2, 2, 3]), // one is less
            vc(&[3, 0, 3]), // concurrent
        ];
        let mut out = Vec::new();
        compare_many(&one, others.iter(), &mut out);
        let expected: Vec<_> = others.iter().map(|o| one.partial_cmp_clock(o)).collect();
        assert_eq!(out, expected);
        assert_eq!(
            out,
            vec![
                Some(Ordering::Equal),
                Some(Ordering::Greater),
                Some(Ordering::Less),
                None
            ]
        );
    }

    #[test]
    fn compare_many_reuses_the_output_buffer() {
        let one = vc(&[1, 1]);
        let mut out = Vec::with_capacity(8);
        compare_many(&one, [vc(&[0, 0]), vc(&[1, 1])].iter(), &mut out);
        assert_eq!(out.len(), 2);
        let cap = out.capacity();
        compare_many(&one, [vc(&[2, 2])].iter(), &mut out);
        assert_eq!(out, vec![Some(Ordering::Less)]);
        assert_eq!(out.capacity(), cap, "buffer is recycled, not reallocated");
    }

    #[test]
    fn exhaustive_small_clocks_agree_with_partial_cmp() {
        // Every pair of 3-entry clocks with entries in 0..3: the single-pass
        // comparison must agree with the reference implementation.
        let mut clocks = Vec::new();
        for a in 0..3u64 {
            for b in 0..3u64 {
                for c in 0..3u64 {
                    clocks.push(vc(&[a, b, c]));
                }
            }
        }
        let mut out = Vec::new();
        for one in &clocks {
            compare_many(one, clocks.iter(), &mut out);
            for (other, got) in clocks.iter().zip(out.iter()) {
                assert_eq!(*got, one.partial_cmp_clock(other));
            }
        }
    }
}
