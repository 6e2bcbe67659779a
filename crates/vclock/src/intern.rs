//! Sharing of the clock a token fan-out carries (§4.3 support).
//!
//! Every token carries the clock of the event that spawned it, and one program
//! event fans out into many tokens — one per candidate transition without token
//! aggregation, one per global view with it — that all reference the *same* clock.
//! A [`ClockIntern`] hands those tokens one [`SharedClock`] (`Arc<VectorClock>`)
//! instead of a cloned entry vector each.
//!
//! The fan-out of one event is over before the next event's begins, so the pool
//! remembers exactly one clock: the last one interned.  (It used to keep every clock
//! of the session in a hash set; the algorithm never reads a token's parent-event
//! clock back, so nothing ever looked the older ones up again and the set only grew.)
//!
//! Interned clocks are immutable; code that needs to *mutate* a clock (cut
//! construction inside tokens) keeps using plain [`VectorClock`] values.
//!
//! ```
//! use dlrv_vclock::ClockIntern;
//!
//! let mut pool = ClockIntern::new();
//! let a = pool.intern(&[1, 0, 2]);
//! let b = pool.intern(&[1, 0, 2]);
//! // Consecutive equal clocks share one allocation …
//! assert!(std::sync::Arc::ptr_eq(&a, &b));
//! assert_eq!(pool.hits(), 1);
//! // … and a new clock replaces the remembered one.
//! let c = pool.intern(&[3, 0, 2]);
//! assert!(!std::sync::Arc::ptr_eq(&a, &c));
//! assert_eq!(pool.len(), 1);
//! ```

use crate::vc::VectorClock;
use std::sync::Arc;

/// An immutable, shareable vector clock (one allocation, many holders).
pub type SharedClock = Arc<VectorClock>;

/// A one-entry memo of the last clock handed out.
///
/// [`intern`](ClockIntern::intern) returns the remembered [`SharedClock`] when it
/// equals the requested entries (one slice comparison and one refcount bump) and
/// otherwise allocates a fresh one and remembers that instead.  The pool is an
/// ordinary owned value — each monitor keeps its own, so no cross-thread
/// synchronization is involved (the `Arc` only shares the *payload*).
#[derive(Debug, Clone, Default)]
pub struct ClockIntern {
    last: Option<SharedClock>,
    hits: usize,
}

impl ClockIntern {
    /// An empty pool.
    pub fn new() -> Self {
        ClockIntern::default()
    }

    /// Returns a shared clock with the given entries: the one handed out last when it
    /// is equal, a fresh allocation otherwise.
    pub fn intern(&mut self, entries: &[u64]) -> SharedClock {
        if let Some(shared) = &self.last {
            if shared.entries() == entries {
                self.hits += 1;
                return shared.clone();
            }
        }
        let shared: SharedClock = Arc::new(VectorClock::from_entries(entries.to_vec()));
        self.last = Some(shared.clone());
        shared
    }

    /// Number of clocks the pool keeps alive by itself: 0 or 1.
    pub fn len(&self) -> usize {
        usize::from(self.last.is_some())
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.last.is_none()
    }

    /// Number of intern calls served without allocating (clone-traffic saved).
    pub fn hits(&self) -> usize {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_equal_clocks_share_one_allocation() {
        let mut pool = ClockIntern::new();
        assert!(pool.is_empty());
        let a = pool.intern(&[1, 2]);
        let b = pool.intern(&[1, 2]);
        let c = pool.intern(&[2, 1]);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(pool.hits(), 1);
        // Replaced clocks stay valid for their holders.
        assert_eq!(a.entries(), &[1, 2]);
    }

    #[test]
    fn pool_never_holds_more_than_one_clock() {
        // A session's worth of distinct events, each fanning out into two tokens:
        // the two share one allocation and the pool stays at one entry.
        let mut pool = ClockIntern::new();
        let mut previous: Option<SharedClock> = None;
        for sn in 1..=1000u64 {
            let first = pool.intern(&[sn, sn / 2, 7]);
            let second = pool.intern(&[sn, sn / 2, 7]);
            assert!(Arc::ptr_eq(&first, &second));
            assert!(pool.len() <= 1);
            if let Some(previous) = previous {
                // Nothing but the tokens keeps an older event's clock alive.
                assert_eq!(Arc::strong_count(&previous), 1);
            }
            previous = Some(first);
        }
        assert_eq!(pool.hits(), 1000);
    }
}
