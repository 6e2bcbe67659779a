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
use std::fmt;

/// Evaluation status of one process's conjunct of a transition guard.  A
/// [`TokenTransition`] stores each as one byte, its discriminant, which is
/// also its byte on the deploy wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ConjunctEval {
    /// The process has no literal in the guard.
    NotInvolved = 0,
    /// Not yet evaluated against an event of that process.
    Unset = 1,
    /// Evaluated true.
    True = 2,
    /// Evaluated false.
    False = 3,
}

impl ConjunctEval {
    /// The evaluation whose discriminant is `byte`'s low two bits.
    fn from_byte(byte: u8) -> ConjunctEval {
        match byte & 3 {
            0 => ConjunctEval::NotInvolved,
            1 => ConjunctEval::Unset,
            2 => ConjunctEval::True,
            _ => ConjunctEval::False,
        }
    }
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
///
/// Its per-process parts — the cut, `depend` and the conjunct evaluations — share
/// one heap block of `u64` words, `[gcut (n) | depend (n) | conjuncts]`, the
/// conjuncts one byte each, eight to a word: a transition is one allocation,
/// whatever its width `n`, and the three always have the same width.
#[derive(Clone, PartialEq)]
pub struct TokenTransition {
    /// Index of the symbolic transition in the monitor automaton.
    pub transition_id: usize,
    /// The constructed global state (proposition valuation).
    pub gstate: Assignment,
    /// The process this transition wants to visit next.
    pub next_target_process: ProcessId,
    /// The local sequence number of the event it wants to inspect there.
    pub next_target_event: u64,
    /// `[gcut | depend | conjunct bytes]`, [`block_words`]`(n)` words.  The
    /// bytes past the `n`-th conjunct are zero.
    block: Box<[u64]>,
    /// The width: the number of processes.
    n: u32,
    /// Overall evaluation.
    pub eval: EvalState,
}

/// The words of a transition block of width `n`: two cuts of `n` words, then `n`
/// conjunct bytes rounded up to whole words.
pub(crate) fn block_words(n: usize) -> usize {
    2 * n + n.div_ceil(8)
}

impl TokenTransition {
    /// Transition `transition_id` of width `n`, in a fresh block: zero cuts,
    /// every conjunct [`NotInvolved`](ConjunctEval::NotInvolved), the state all
    /// false, aimed at event 0 of process 0 and undecided.
    pub fn new(transition_id: usize, n: usize) -> Self {
        TokenTransition::in_block(transition_id, n, vec![0; block_words(n)].into())
    }

    /// [`new`](Self::new) in `block`, a block of width `n` leased from a pool:
    /// the cuts keep whatever it held, for the caller to overwrite, and the
    /// conjuncts are cleared.
    pub(crate) fn in_block(transition_id: usize, n: usize, mut block: Box<[u64]>) -> Self {
        assert_eq!(block.len(), block_words(n), "a block of width {n}");
        block[2 * n..].fill(0);
        TokenTransition {
            transition_id,
            gstate: Assignment::ALL_FALSE,
            next_target_process: 0,
            next_target_event: 0,
            block,
            n: u32::try_from(n).expect("a process count fits in 32 bits"),
            eval: EvalState::Unset,
        }
    }

    /// The transition's block, for a pool to lease again.
    pub(crate) fn into_block(self) -> Box<[u64]> {
        self.block
    }

    /// The number of processes: the width of the cut, of `depend` and of the
    /// conjuncts.
    pub fn width(&self) -> usize {
        self.n as usize
    }

    /// The event counts (per process) of the global cut constructed so far.
    pub fn gcut(&self) -> &[u64] {
        &self.block[..self.width()]
    }

    /// The component-wise maximum of all vector clocks folded into the cut; an
    /// entry exceeding `gcut`'s reveals an inconsistency that must be repaired.
    pub fn depend(&self) -> &[u64] {
        &self.block[self.width()..2 * self.width()]
    }

    /// The cut, to write.
    pub fn gcut_mut(&mut self) -> &mut [u64] {
        let n = self.width();
        &mut self.block[..n]
    }

    /// `depend`, to write.
    pub fn depend_mut(&mut self) -> &mut [u64] {
        let n = self.width();
        &mut self.block[n..2 * n]
    }

    /// The cut and `depend`, both to write.
    pub fn cuts_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        let n = self.width();
        self.block[..2 * n].split_at_mut(n)
    }

    /// Process `p`'s conjunct evaluation.
    pub fn conjunct(&self, p: ProcessId) -> ConjunctEval {
        assert!(p < self.width(), "conjunct {p} of {}", self.width());
        let word = self.block[2 * self.width() + p / 8];
        ConjunctEval::from_byte((word >> (8 * (p % 8))) as u8)
    }

    /// Sets process `p`'s conjunct evaluation.
    pub fn set_conjunct(&mut self, p: ProcessId, c: ConjunctEval) {
        assert!(p < self.width(), "conjunct {p} of {}", self.width());
        let at = 2 * self.width() + p / 8;
        let shift = 8 * (p % 8);
        self.block[at] = (self.block[at] & !(0xff << shift)) | (c as u64) << shift;
    }

    /// Every process's conjunct evaluation, in process order.
    pub fn conjuncts(&self) -> impl ExactSizeIterator<Item = ConjunctEval> + '_ {
        (0..self.width()).map(|p| self.conjunct(p))
    }

    /// True when some process entry of the cut lags behind what `depend` proves must
    /// have been included (the cut is inconsistent and must be advanced).
    pub fn inconsistent_process(&self) -> Option<ProcessId> {
        let (gcut, depend) = (self.gcut(), self.depend());
        (0..gcut.len()).find(|&k| gcut[k] < depend[k])
    }

    /// The first process whose conjunct is still [`ConjunctEval::Unset`].
    pub fn first_unset_process(&self) -> Option<ProcessId> {
        self.conjuncts().position(|c| c == ConjunctEval::Unset)
    }

    /// True when every involved process's conjunct evaluated true.
    pub fn all_conjuncts_true(&self) -> bool {
        self.conjuncts()
            .all(|c| matches!(c, ConjunctEval::True | ConjunctEval::NotInvolved))
    }
}

impl fmt::Debug for TokenTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TokenTransition")
            .field("transition_id", &self.transition_id)
            .field("gcut", &self.gcut())
            .field("depend", &self.depend())
            .field("gstate", &self.gstate)
            .field("conjuncts", &self.conjuncts().collect::<Vec<_>>())
            .field("next_target_process", &self.next_target_process)
            .field("next_target_event", &self.next_target_event)
            .field("eval", &self.eval)
            .finish()
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
        let mut t = TokenTransition::new(0, gcut.len());
        t.gcut_mut().copy_from_slice(&gcut);
        t.depend_mut().copy_from_slice(&depend);
        for (p, c) in conjuncts.into_iter().enumerate() {
            t.set_conjunct(p, c);
        }
        t.next_target_event = 1;
        t
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
    fn a_transition_keeps_its_cuts_and_conjuncts_in_one_block() {
        use ConjunctEval::{False, NotInvolved, True, Unset};
        let evals = [Unset, True, NotInvolved, False, True];
        for n in 2..=5 {
            let gcut: Vec<u64> = (0..n as u64).map(|k| 10 + k).collect();
            let depend: Vec<u64> = (0..n as u64).map(|k| 20 + 3 * k).collect();
            let conjuncts = evals[..n].to_vec();
            let mut t = tt(gcut.clone(), depend.clone(), conjuncts.clone());
            assert_eq!(t.width(), n);
            assert_eq!((t.gcut(), t.depend()), (&gcut[..], &depend[..]), "n={n}");
            assert_eq!(t.conjuncts().collect::<Vec<_>>(), conjuncts, "n={n}");
            assert_eq!(t.conjuncts().len(), n);
            // Rewriting one conjunct leaves its neighbours and the cuts alone.
            t.set_conjunct(1, False);
            assert_eq!(t.conjunct(0), conjuncts[0]);
            assert_eq!(t.conjunct(1), False);
            assert_eq!(t.conjuncts().skip(2).collect::<Vec<_>>(), conjuncts[2..]);
            assert_eq!((t.gcut(), t.depend()), (&gcut[..], &depend[..]), "n={n}");
            // One heap block: both cuts and the conjunct bytes are consecutive
            // words of it, and it holds nothing else.
            let block = &t.block;
            assert_eq!(block.len(), 2 * n + 1, "n={n}: one conjunct word");
            assert_eq!(t.gcut().as_ptr(), block.as_ptr());
            assert_eq!(t.depend().as_ptr(), block[n..].as_ptr());
            let bytes = block[2 * n].to_le_bytes();
            assert_eq!(
                bytes[..n].to_vec(),
                t.conjuncts().map(|c| c as u8).collect::<Vec<_>>()
            );
            assert!(
                bytes[n..].iter().all(|&b| b == 0),
                "n={n}: zero past the last"
            );
            // Its clone is one block of its own, equal to it.
            let copy = t.clone();
            assert_eq!(copy, t);
            assert_ne!(copy.block.as_ptr(), t.block.as_ptr());
        }
        // Nine processes take a second conjunct word.
        assert_eq!(TokenTransition::new(0, 9).block.len(), 2 * 9 + 2);
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
