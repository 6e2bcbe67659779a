//! Monitor-to-monitor messages: tokens (§4.2), plus the §4.3.1 aggregation machinery.
//! Every message carries at least one token — termination is local to each monitor
//! and sends nothing (`docs/MONITORING.md`, step 5).
//!
//! A *token* is created by a global view when it needs information from other
//! processes to decide whether some outgoing monitor-automaton transitions are enabled.
//! It carries one [`TokenTransition`] per candidate transition, each with the global
//! cut and global state constructed so far, the per-process conjunct evaluations and
//! the routing target.  Tokens are routed between monitors until every carried
//! transition is decided (enabled / disabled), then return to their parent.
//!
//! Two §4.3 supports live here:
//!
//! * [`MonitorMsg`] — one or more tokens: with token aggregation (§4.3.1) every token
//!   a monitor wants to send to the same destination during one activation (one
//!   local event, one received message, one termination) travels as a *single*
//!   monitoring message.
//! * [`WaitingTokens`] — the tokens parked for a future local event: arrival of event
//!   `sn` wakes precisely the tokens whose awaited cut entry is `sn`.

use dlrv_ltl::{Assignment, ProcessId, Verdicts};
use dlrv_vclock::VectorClock;

/// Evaluation status of one process's conjunct of a transition guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConjunctEval {
    /// The process has no literal in the guard.
    NotInvolved,
    /// Not yet evaluated against an event of that process.
    Unset,
    /// Evaluated true.
    True,
    /// Evaluated false.
    False,
}

/// Overall evaluation status of a transition carried by a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalState {
    /// Not yet decided.
    Unset,
    /// The guard is satisfied by the constructed consistent global state.
    Enabled,
    /// The guard cannot be satisfied (some conjunct evaluated false, or the program
    /// terminated before the required events occurred).
    Disabled,
}

/// One candidate outgoing transition carried by a token
/// (`OutgoingTransition` in §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct TokenTransition {
    /// Index of the symbolic transition in the monitor automaton.
    pub transition_id: usize,
    /// The event counts (per process) of the global cut constructed so far.
    pub gcut: VectorClock,
    /// The component-wise maximum of all vector clocks folded into the cut; an entry
    /// exceeding `gcut`'s reveals an inconsistency that must be repaired.
    pub depend: VectorClock,
    /// The constructed global state (proposition valuation).
    pub gstate: Assignment,
    /// Per-process conjunct evaluations.
    pub conjuncts: Vec<ConjunctEval>,
    /// The process this transition wants to visit next.
    pub next_target_process: ProcessId,
    /// The local sequence number of the event it wants to inspect there.
    pub next_target_event: u64,
    /// Overall evaluation.
    pub eval: EvalState,
}

impl TokenTransition {
    /// True when some process entry of the cut lags behind what `depend` proves must
    /// have been included (the cut is inconsistent and must be advanced).
    pub fn inconsistent_process(&self) -> Option<ProcessId> {
        (0..self.gcut.len()).find(|&k| self.gcut.get(k) < self.depend.get(k))
    }

    /// The first process whose conjunct is still [`ConjunctEval::Unset`].
    pub fn first_unset_process(&self) -> Option<ProcessId> {
        self.conjuncts
            .iter()
            .position(|c| *c == ConjunctEval::Unset)
    }

    /// True when every involved process's conjunct evaluated true.
    pub fn all_conjuncts_true(&self) -> bool {
        self.conjuncts
            .iter()
            .all(|c| matches!(c, ConjunctEval::True | ConjunctEval::NotInvolved))
    }
}

/// A token (monitoring message) exchanged between monitors.
///
/// Where it goes next is not a field: SENDTONEXTPROCESS sends it to the target of
/// its first pending transition that targets the destination, so the receiver
/// serves exactly that transition, at that transition's
/// [`next_target_event`](TokenTransition::next_target_event).  The automaton state
/// that launched it is the source state of its transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The monitor (property) this token belongs to: `0` in single-property
    /// runs, the index of the monitor a [`FleetMonitor`](crate::FleetMonitor)
    /// holds for the token's member — members asking one question share one.
    /// This is the property-id dimension of [`MonitorMsg`] — one message may
    /// aggregate tokens of several properties bound for the same destination, each
    /// self-identifying, and the receiving fleet demultiplexes on this field.
    pub property: u32,
    /// The process whose monitor created the token.
    pub parent: ProcessId,
    /// Identifier of the owning global view at the parent.
    pub parent_gv: u64,
    /// The final verdicts the sending monitor has detected or learnt: the
    /// receiver learns them and explores toward neither again (§4.3.3,
    /// `prune_disjunctive`).  Stamped on every send, so it is the latest sender's
    /// knowledge, not the parent's.
    pub known: Verdicts,
    /// Candidate transitions still being evaluated.
    pub transitions: Vec<TokenTransition>,
}

/// A message exchanged between monitor processes: one or more tokens bound for the
/// same destination, processed by the receiver in order.  With §4.3.1 aggregation
/// a monitor sends one per destination and monitor call; without it, one per token.
/// Every message a monitor emits carries at least one token, so a run's message
/// count never exceeds its token count.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorMsg {
    /// The carried tokens, never empty.
    pub tokens: Vec<Token>,
}

/// Tokens parked at a monitor until a future local event arrives, each beside the
/// cut entry (local sequence number) it waits for.
///
/// A monitor parks about one token at a time, so the tokens lie in one vector in
/// parking order and a wake-up is a scan of it: an index by sequence number cost a
/// map node and a vector per parked token, and kept a node once the last token woke.
/// Most of the time nothing is parked at all, so the vector is released when the
/// last token wakes: an empty set holds no allocation.  A set holds no spare slot
/// either: a token is parked into exactly one more slot, and a wake-up that
/// leaves tokens behind shrinks the vector to them.
#[derive(Debug, Clone, Default)]
pub struct WaitingTokens {
    parked: Vec<(u64, Token)>,
}

impl WaitingTokens {
    /// Nothing parked.
    pub fn new() -> Self {
        WaitingTokens::default()
    }

    /// Parks `token` until local event `sn`.
    pub fn park(&mut self, sn: u64, token: Token) {
        self.parked.reserve_exact(1);
        self.parked.push((sn, token));
    }

    /// Removes and returns every token waiting for exactly event `sn`, in parking
    /// order.
    pub fn take(&mut self, sn: u64) -> Vec<Token> {
        let woken = self
            .parked
            .extract_if(.., |(awaited, _)| *awaited == sn)
            .map(|(_, token)| token)
            .collect();
        self.parked.shrink_to_fit();
        woken
    }

    /// Removes and returns all parked tokens (ordered by awaited sequence number,
    /// then parking order) — used at local termination, when no further event will
    /// ever satisfy them.
    pub fn drain_all(&mut self) -> Vec<Token> {
        let mut parked = std::mem::take(&mut self.parked);
        parked.sort_by_key(|&(awaited, _)| awaited);
        parked.into_iter().map(|(_, token)| token).collect()
    }

    /// Number of parked tokens.
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// True when no tokens are parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Whether the set holds exactly its parked tokens (an empty one no
    /// allocation) and every parked token exactly its transitions (the monitor
    /// trims them before parking it).
    pub(crate) fn parks_no_spare(&self) -> bool {
        self.parked.capacity() == self.parked.len()
            && self
                .parked
                .iter()
                .all(|(_, t)| t.transitions.capacity() == t.transitions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tt(gcut: Vec<u64>, depend: Vec<u64>, conjuncts: Vec<ConjunctEval>) -> TokenTransition {
        TokenTransition {
            transition_id: 0,
            gcut: VectorClock::from_entries(gcut),
            depend: VectorClock::from_entries(depend),
            gstate: Assignment::ALL_FALSE,
            conjuncts,
            next_target_process: 0,
            next_target_event: 1,
            eval: EvalState::Unset,
        }
    }

    #[test]
    fn inconsistency_detection() {
        let t = tt(
            vec![1, 0],
            vec![1, 2],
            vec![ConjunctEval::Unset, ConjunctEval::Unset],
        );
        assert_eq!(t.inconsistent_process(), Some(1));
        let ok = tt(
            vec![1, 2],
            vec![1, 2],
            vec![ConjunctEval::Unset, ConjunctEval::Unset],
        );
        assert_eq!(ok.inconsistent_process(), None);
    }

    #[test]
    fn conjunct_queries() {
        let t = tt(
            vec![0, 0, 0],
            vec![0, 0, 0],
            vec![
                ConjunctEval::True,
                ConjunctEval::NotInvolved,
                ConjunctEval::Unset,
            ],
        );
        assert_eq!(t.first_unset_process(), Some(2));
        assert!(!t.all_conjuncts_true());
        let done = tt(
            vec![0, 0],
            vec![0, 0],
            vec![ConjunctEval::True, ConjunctEval::NotInvolved],
        );
        assert!(done.all_conjuncts_true());
        assert_eq!(done.first_unset_process(), None);
    }

    #[test]
    fn waiting_tokens_wake_by_exact_sequence_number() {
        let mut waiting = WaitingTokens::new();
        // `parent_gv` numbers the tokens in parking order.
        for (parent_gv, sn) in [3, 5, 3, 4, 5].into_iter().enumerate() {
            let token = Token {
                property: 0,
                parent: 0,
                parent_gv: parent_gv as u64,
                known: Verdicts::EMPTY,
                transitions: Vec::new(),
            };
            waiting.park(sn, token);
        }
        let gvs = |tokens: Vec<Token>| -> Vec<u64> { tokens.iter().map(|t| t.parent_gv).collect() };
        assert_eq!(waiting.len(), 5);
        assert!(waiting.parks_no_spare(), "five tokens in five slots");
        assert!(waiting.take(2).is_empty());
        assert_eq!(gvs(waiting.take(3)), [0, 2], "parking order");
        assert_eq!(waiting.len(), 3);
        assert!(
            waiting.parks_no_spare(),
            "the two woken tokens' slots are gone"
        );
        // By awaited number (4, 5, 5), then parking order.
        assert_eq!(gvs(waiting.drain_all()), [3, 1, 4]);
        assert!(waiting.is_empty() && waiting.parks_no_spare());
    }
}
