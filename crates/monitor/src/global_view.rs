//! Global views: a monitor's hypotheses about the global execution (§4.2).
//!
//! Each global view tracks one lattice path the monitor is exploring: the global cut
//! constructed so far (as per-process event counts), the believed global state, the
//! current monitor-automaton state and a cursor into the monitor's local event history
//! marking the events that arrived while the view was waiting for a token to return.
//!
//! Views at the same exploration point — automaton state + frontier cut + believed
//! global state, [`GlobalView::same_slice`] — are interchangeable; that is the
//! criterion of the §4.3.2 dedup/merge scans in
//! [`DecentralizedMonitor`](crate::decentralized::DecentralizedMonitor).

use dlrv_automaton::StateId;
use dlrv_ltl::Assignment;
use dlrv_vclock::VectorClock;

/// The processing state of a global view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GvState {
    /// Ready to consume local events.
    Unblocked,
    /// A token is in flight; local events are buffered until it returns.
    Waiting,
}

/// Automaton state `q` narrowed to the 32 bits a view ([`GlobalView::q`]) and a
/// monitor's in-flight counts store it in.
pub(crate) fn narrow_state(q: StateId) -> u32 {
    u32::try_from(q).expect("an automaton state id fits in 32 bits")
}

/// One global view maintained by a monitor process.
#[derive(Debug, Clone)]
pub struct GlobalView {
    /// Unique identifier within the owning monitor.
    pub id: u64,
    /// Per-process event counts of the constructed cut.
    pub gcut: VectorClock,
    /// The believed global state (proposition valuation).
    pub gstate: Assignment,
    /// Current monitor-automaton state, narrowed to 32 bits as the monitor's
    /// in-flight counts narrow it, so that a view fits one cache line;
    /// [`automaton_state`](Self::automaton_state) reads it back as a [`StateId`].
    pub q: u32,
    /// Sequence number of the next local event this view has yet to consume.
    ///
    /// Every view is offered every local event and consumes them in order, so the
    /// events buffered while the view waits for a token are always the suffix of the
    /// monitor's history starting here — the queue of Algorithm 2 is this one
    /// cursor, and the events themselves exist once, in the history.
    pub next_sn: u64,
    /// Processing state.
    pub state: GvState,
}

impl GlobalView {
    /// Creates the initial global view of a monitor: empty cut, initial global state,
    /// the automaton state reached by feeding the initial global state.
    pub fn initial(id: u64, n_processes: usize, initial_gstate: Assignment, q: StateId) -> Self {
        GlobalView {
            id,
            gcut: VectorClock::zero(n_processes),
            gstate: initial_gstate,
            q: narrow_state(q),
            next_sn: 1,
            state: GvState::Unblocked,
        }
    }

    /// The current monitor-automaton state.
    #[inline]
    pub fn automaton_state(&self) -> StateId {
        self.q as StateId
    }

    /// True when this view and `other` represent the same point of exploration: same
    /// automaton state and same constructed cut (the merge criterion of
    /// `MERGESIMILARGLOBALVIEWS`, strengthened with equal global states).
    pub fn same_slice(&self, other: &GlobalView) -> bool {
        self.q == other.q && self.gcut == other.gcut && self.gstate == other.gstate
    }

    /// True when the view can process a new local event immediately.
    pub fn is_unblocked(&self) -> bool {
        self.state == GvState::Unblocked
    }

    /// Takes the oldest buffered event off the view's queue — its sequence number —
    /// or returns `None` when the view has consumed all `delivered` events the
    /// monitor has offered its views so far.
    pub fn pop_queued(&mut self, delivered: u64) -> Option<u64> {
        debug_assert!(self.next_sn <= delivered + 1);
        (self.next_sn <= delivered).then(|| {
            self.next_sn += 1;
            self.next_sn - 1
        })
    }

    /// Number of events buffered at the view, out of the `delivered` offered so far.
    pub fn queued(&self, delivered: u64) -> usize {
        debug_assert!(self.next_sn <= delivered + 1);
        (delivered + 1 - self.next_sn) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_view_is_unblocked() {
        let gv = GlobalView::initial(0, 3, Assignment::ALL_FALSE, 1);
        assert!(gv.is_unblocked());
        assert_eq!(gv.gcut, VectorClock::zero(3));
        assert_eq!(gv.q, 1);
        assert_eq!(gv.next_sn, 1, "nothing consumed yet");
    }

    #[test]
    fn the_queue_is_the_history_suffix_from_the_cursor() {
        let mut gv = GlobalView::initial(0, 2, Assignment::ALL_FALSE, 0);
        assert_eq!(gv.pop_queued(0), None, "no event delivered yet");
        // Three events delivered while the view was away: it catches up in order.
        assert_eq!(gv.queued(3), 3);
        assert_eq!(gv.pop_queued(3), Some(1));
        assert_eq!(gv.pop_queued(3), Some(2));
        assert_eq!(gv.queued(3), 1);
        assert_eq!(gv.pop_queued(3), Some(3));
        assert_eq!(gv.pop_queued(3), None);
        assert_eq!(gv.queued(3), 0);
    }

    #[test]
    fn a_view_is_one_cache_line() {
        assert!(std::mem::size_of::<GlobalView>() <= 64);
    }

    #[test]
    fn same_slice_requires_state_cut_and_gstate() {
        let a = GlobalView::initial(0, 2, Assignment::ALL_FALSE, 0);
        let mut b = GlobalView::initial(1, 2, Assignment::ALL_FALSE, 0);
        assert!(a.same_slice(&b));
        b.q = 1;
        assert!(!a.same_slice(&b));
        b.q = 0;
        b.gcut.increment(0);
        assert!(!a.same_slice(&b));
        // The believed global state is part of the exploration point, the id is not.
        let mut c = GlobalView::initial(7, 2, Assignment::ALL_FALSE, 0);
        assert!(a.same_slice(&c));
        c.gstate = Assignment(1);
        assert!(!a.same_slice(&c));
    }
}
