//! The decentralized LTL₃ monitoring algorithm of Chapter 4.
//!
//! Every process `Pi` is composed with a monitor `Mi` holding a replica of the monitor
//! automaton.  `Mi` maintains a set of [`GlobalView`]s — hypotheses about the lattice
//! path the global execution is following — and advances each view's automaton state on
//! its own local events.  When a view reaches a state with outgoing transitions that
//! could be enabled by *concurrent* events at other processes, the monitor creates a
//! [`Token`] carrying those candidate transitions and routes it between monitors
//! (`SENDTONEXTPROCESS`); monitors visited by the token fold their local events into
//! the token's constructed global cut and evaluate their conjuncts
//! (`PROCESSTOKEN`/`EVALUATETOKEN`).  When the token returns to its parent, enabled
//! transitions fork new global views at the discovered automaton states
//! (`RECEIVETOKEN`), and views that have converged to the same exploration point are
//! merged (`MERGESIMILARGLOBALVIEWS`).
//!
//! A view that reaches ⊤ or ⊥ is retired the moment it gets there: its verdict is
//! recorded and its cut reclaimed.  Both are sinks of the minimal LTL₃ monitor, so
//! such a view could never change state, launch a token or merge with a view that
//! can still move — a monitor holds only the views that can, and its peak-view
//! count (the memory cost of Chapter 5) counts only those.
//!
//! # The §4.3 optimization suite
//!
//! The three overhead optimizations of §4.3 are individually switchable through
//! [`MonitorOptions`] so the harness (`experiments --target overhead`, the probes of
//! the repository benchmark under `benchmark/`) can ablate them:
//!
//! * **Token aggregation** (§4.3.1, `aggregate_tokens`) — two levels.  Per event: all
//!   candidate transitions of one event travel in a single token instead of one token
//!   per transition.  Per destination: every token this monitor wants to send to the
//!   same peer during one activation (one local event, one received message, one
//!   termination) is staged and flushed as a single [`MonitorMsg`], so the
//!   number of *monitoring messages* is bounded by the number of destination
//!   processes per activation, not by the number of explorations.
//! * **Duplicate-global-view avoidance** (§4.3.2, `dedup_global_views`) — a returned
//!   token never forks a view whose exploration point ([`GlobalView::same_slice`]:
//!   automaton state + frontier + believed global state) already exists, and a view
//!   does not launch a token for an automaton state that already has an exploration
//!   in flight.  Both this check and the merge of converged views are one scan of
//!   the live view set (view counts are bounded by the lattice width).
//! * **Disjunctive-transition pruning** (§4.3.3, `prune_disjunctive`) — once some
//!   transition into a target state is enabled, sibling candidates into the same
//!   target are dropped; and candidates whose target is a ⊤/⊥ verdict state this
//!   monitor has *already detected* (via a sibling view) are never explored at all —
//!   the exploration could only re-derive a known verdict.
//!
//! Verdicts are invariant under every flag combination (pinned by the repository's
//! `stream_equivalence` and soundness/completeness suites); the flags only change the
//! message, queueing and memory cost — the quantities `--target overhead` reports.

use crate::global_view::{GlobalView, GvState};
use crate::messages::{ConjunctEval, EvalState, MonitorMsg, Token, TokenTransition, WaitingTokens};
use crate::metrics::MonitorMetrics;
use dlrv_automaton::{MonitorAutomaton, SymbolicTransition};
use dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_ltl::{Assignment, AtomRegistry, ProcessId, Verdict};
use dlrv_vclock::{Event, VectorClock};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Switches for the optimizations of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorOptions {
    /// §4.3.1 — carry all candidate transitions of an event in a single token instead
    /// of one token per transition, and aggregate all tokens bound for the same
    /// destination process into one [`MonitorMsg`] per send opportunity.
    pub aggregate_tokens: bool,
    /// §4.3.2 — avoid forking a new global view when an equivalent one already exists.
    pub dedup_global_views: bool,
    /// §4.3.3 — once a transition into a target state is enabled, drop sibling
    /// candidate transitions into the same target; never explore candidates whose
    /// target verdict a sibling view already detected.
    pub prune_disjunctive: bool,
    /// Hot-path allocation recycling: retired global views, token cuts, conjunct
    /// buffers and view-set staging vectors are pooled — one pool per thread, shared
    /// by every monitor the thread runs — and reused instead of reallocated per
    /// event.  Not a paper optimization — an engineering switch following the same
    /// A/B discipline: it selects where buffers come from and nothing else, so
    /// verdicts, tokens and messages are byte-identical with the flag off (pinned
    /// by the equivalence suites).
    pub arena_recycling: bool,
}

impl MonitorOptions {
    /// Every optimization disabled — the `--no-opt` baseline of the overhead
    /// benchmarks.
    pub const ALL_OFF: MonitorOptions = MonitorOptions {
        aggregate_tokens: false,
        dedup_global_views: false,
        prune_disjunctive: false,
        arena_recycling: false,
    };

    /// All 16 flag combinations, for exhaustive equivalence testing.
    pub fn all_combinations() -> [MonitorOptions; 16] {
        let mut out = [MonitorOptions::ALL_OFF; 16];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = MonitorOptions {
                aggregate_tokens: i & 1 != 0,
                dedup_global_views: i & 2 != 0,
                prune_disjunctive: i & 4 != 0,
                arena_recycling: i & 8 != 0,
            };
        }
        out
    }
}

impl Default for MonitorOptions {
    fn default() -> Self {
        MonitorOptions {
            aggregate_tokens: true,
            dedup_global_views: true,
            prune_disjunctive: true,
            arena_recycling: true,
        }
    }
}

/// Recycled allocation pools of the event hot path (the
/// [`MonitorOptions::arena_recycling`] switch).  Every buffer is cleared or
/// overwritten before reuse, so recycling is observationally invisible — it only
/// removes the per-event allocate/free churn of the unoptimized path — and a buffer
/// retired by one session (of any process count) can serve the next.
///
/// There is one arena per thread, not per monitor: a monitor leases it for the
/// duration of one activation (see [`DecentralizedMonitor::lease_arena`]) and owns
/// no pool in between.  A session of a few dozen events never amortises pools of
/// its own; a shard thread running thousands of sessions keeps this one hot.
///
/// Scratch lives here or on the stack of one activation, never in a monitor or a
/// session: at the end of every activation the view set is held at exactly its
/// length and the buffer it was rebuilt in comes back here, and a token is parked
/// with exactly its transitions ([`DecentralizedMonitor::parks_no_spare`]).  The
/// message queue and outboxes of a session call, and a fleet activation's outbox,
/// are leased from here too ([`lease_outbox`], [`lease_queue`]) whatever
/// [`MonitorOptions::arena_recycling`] says: before they lived here, they lived for
/// a whole session.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Spare view-set vectors (merge staging, per-event rebuild, fork outputs).
    view_bufs: Vec<Vec<GlobalView>>,
    /// Spare vector clocks for token cuts and the cuts of forked views (a retired
    /// view's cut — its only allocation — comes back here too).
    clocks: Vec<VectorClock>,
    /// Spare per-process conjunct buffers.
    conjuncts: Vec<Vec<ConjunctEval>>,
    /// Spare candidate-transition vectors (token payloads).
    transitions: Vec<Vec<TokenTransition>>,
    /// Output buffer of the batched clock comparisons in the merge scan.
    ord: Vec<Option<std::cmp::Ordering>>,
    /// Index buffer of `process_token_with_event`.
    targeted: Vec<usize>,
    /// Result buffer of `process_token_with_event`.
    local_results: Vec<(usize, bool)>,
    /// The tokens an activation sends, until its flush.
    staged: Staged,
    /// Spare outboxes of session calls and fleet activations.
    outboxes: Vec<Outbox>,
    /// Spare in-flight queues of session calls.
    queues: Vec<MessageQueue>,
}

/// Upper bound on each scratch pool — per thread, since the arena is — so
/// pathological fan-outs cannot turn the recycler into a leak.
const POOL_CAP: usize = 64;

thread_local! {
    /// This thread's scratch arena while no activation has it on lease.
    static ARENA: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// What one activation sends: `(destination, message)` in emission order.
pub(crate) type Outbox = Vec<(ProcessId, MonitorMsg)>;

/// The tokens one activation sends, `(destination, token)` in emission order,
/// held until the activation ends and [`DecentralizedMonitor::flush`] turns them
/// into messages.  It lives for one activation: leased from the thread's arena
/// when the arena is on, a fresh vector otherwise.
type Staged = Vec<(ProcessId, Token)>;

/// Messages in flight within one session call: `(sender, destination, message)`.
pub(crate) type MessageQueue = VecDeque<(ProcessId, ProcessId, MonitorMsg)>;

/// Runs `f` on this thread's arena.  For callers outside any monitor activation —
/// a session call, a fleet activation around its members' — so the arena is not on
/// lease.
fn with_arena<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    ARENA.with(|slot| {
        let mut scratch = slot.take().unwrap_or_default();
        let out = f(&mut scratch);
        slot.set(Some(scratch));
        out
    })
}

/// An empty outbox from this thread's arena; give it back with [`return_outbox`].
pub(crate) fn lease_outbox() -> Outbox {
    with_arena(|s| s.outboxes.pop()).unwrap_or_default()
}

/// Gives an emptied outbox back to this thread's arena.
pub(crate) fn return_outbox(outbox: Outbox) {
    debug_assert!(outbox.is_empty());
    with_arena(|s| {
        if outbox.capacity() > 0 && s.outboxes.len() < POOL_CAP {
            s.outboxes.push(outbox);
        }
    });
}

/// An empty message queue from this thread's arena; give it back with
/// [`return_queue`].
pub(crate) fn lease_queue() -> MessageQueue {
    with_arena(|s| s.queues.pop()).unwrap_or_default()
}

/// Gives an emptied message queue back to this thread's arena.
pub(crate) fn return_queue(queue: MessageQueue) {
    debug_assert!(queue.is_empty());
    with_arena(|s| {
        if queue.capacity() > 0 && s.queues.len() < POOL_CAP {
            s.queues.push(queue);
        }
    });
}

#[cfg(test)]
thread_local! {
    /// Views this thread's monitors have dropped in MERGESIMILARGLOBALVIEWS: how a
    /// unit test knows that its runs merged at all.
    pub(crate) static MERGED_VIEWS: Cell<usize> = const { Cell::new(0) };
}

/// Moves `buf`'s elements into a vector of exactly their number and returns the
/// emptied original, spare capacity and all, for a pool to take back.  Without spare
/// capacity there is nothing to do: the returned vector is empty and unallocated.
fn exact<T>(buf: &mut Vec<T>) -> Vec<T> {
    if buf.capacity() == buf.len() {
        return Vec::new();
    }
    let mut held = Vec::with_capacity(buf.len());
    held.append(buf);
    std::mem::replace(buf, held)
}

/// The local event history (`history` in Algorithm 2), stored by runs.  A run is a
/// maximal stretch of consecutive events with one local state and one set of
/// remote clock entries; the process's own entry of an event's clock is its
/// sequence number, so it is never stored per event.  Each run is one record of
/// `n + 1` words in one vector: the clock of the run's first event — whose own
/// entry, the run's first sequence number, is the record's search key — then the
/// state.  The token path and the views read an event's clock and state, nothing
/// else, so nothing else is kept — and the views' queues of buffered events are
/// cursors into this history ([`GlobalView::next_sn`]) rather than copies of it.
///
/// A history belongs to a *process*, not to a property: the monitors a
/// [`FleetMonitor`](crate::FleetMonitor) attaches to one process read one history,
/// which the fleet records and lends them ([`DecentralizedMonitor::swap_history`]).
#[derive(Debug, Clone)]
pub(crate) struct LocalHistory {
    /// The process whose events these are.
    pid: ProcessId,
    n: usize,
    /// Number of recorded events, i.e. the sequence number of the latest one.
    len: u64,
    /// The run records, `n + 1` words each, in sequence-number order.
    runs: Vec<u64>,
}

/// A run cursor that starts at the latest run: where [`LocalHistory::run`] looks
/// first when nothing has been read yet.
const LATEST_RUN: usize = usize::MAX;

/// One run of a [`LocalHistory`]: every event from the one `clock` belongs to
/// through `last` has `state` and `clock`'s remote entries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<'a> {
    pid: ProcessId,
    /// Where the run's record starts in [`LocalHistory::runs`], in words.
    at: usize,
    /// The clock of the run's first event.
    clock: &'a [u64],
    state: Assignment,
    /// The sequence number of the run's last recorded event.
    last: u64,
}

impl Run<'_> {
    /// Where to look for event `sn` of a walk from (see [`LocalHistory::run`]):
    /// this run, or the next when `sn` is past this one.
    fn cursor_for(&self, sn: u64) -> usize {
        if sn > self.last {
            self.at + self.clock.len() + 1
        } else {
            self.at
        }
    }

    /// Merges the clock of event `sn`, an event of this run, into `vc`.
    fn merge_clock_into(&self, sn: u64, vc: &mut VectorClock) {
        vc.merge_entries(self.clock);
        vc.set(self.pid, vc.get(self.pid).max(sn));
    }
}

impl LocalHistory {
    pub(crate) fn new(pid: ProcessId, n: usize) -> Self {
        LocalHistory {
            pid,
            n,
            len: 0,
            runs: Vec::new(),
        }
    }

    /// Number of recorded events, i.e. the sequence number of the latest one.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The process whose events these are.
    pub(crate) fn process(&self) -> ProcessId {
        self.pid
    }

    /// Number of processes, i.e. of entries in every clock.
    pub(crate) fn n_processes(&self) -> usize {
        self.n
    }

    /// Records the process's next event: a new run when its state or a remote
    /// entry of its clock differs from the latest run's, nothing but the count
    /// otherwise.
    pub(crate) fn push(&mut self, event: &Event) {
        let (n, pid, sn) = (self.n, self.pid, self.len + 1);
        debug_assert_eq!(event.vc.len(), n);
        debug_assert_eq!((event.sn, event.vc.get(pid)), (sn, sn), "events arrive in sequence");
        let vc = event.vc.entries();
        let continues = self.runs.len() > n && {
            let latest = &self.runs[self.runs.len() - (n + 1)..];
            latest[n] == event.state.0
                && latest[..pid] == vc[..pid]
                && latest[pid + 1..n] == vc[pid + 1..]
        };
        if !continues {
            self.runs.extend_from_slice(vc);
            self.runs.push(event.state.0);
        }
        self.len = sn;
    }

    /// The run holding event `sn` (1-based, recorded), looked for from the record
    /// at word `from`: where an earlier read of the same walk or view queue left
    /// off ([`Run::cursor_for`]), or [`LATEST_RUN`] for the latest record, where
    /// fresh events are read.  The runs from there on are stepped through; the ones
    /// before it are binary-searched on their keys.  Every token visit and view
    /// event reads through here, so it is inlined (left to itself the compiler
    /// called it, and the call cost more than the walk saved); the search is not.
    #[inline(always)]
    pub(crate) fn run(&self, sn: u64, from: usize) -> Run<'_> {
        debug_assert!((1..=self.len).contains(&sn));
        let (w, end) = (self.n + 1, self.runs.len());
        let key = |at: usize| self.runs[at + self.pid];
        let mut at = from.min(end - w);
        if key(at) > sn {
            at = self.search(sn, at);
        } else {
            while at + w < end && key(at + w) <= sn {
                at += w;
            }
        }
        Run {
            pid: self.pid,
            at,
            clock: &self.runs[at..at + self.n],
            state: Assignment(self.runs[at + self.n]),
            last: if at + w < end { key(at + w) - 1 } else { self.len },
        }
    }

    /// The last record before word `past` whose key is not past `sn`, halving
    /// without a branch on the comparison.  Every run holds at least one event, so
    /// that record is among the `len - sn` before `past` and among the first `sn`:
    /// a recent event is found in a few steps.
    #[inline(never)]
    fn search(&self, sn: u64, past: usize) -> usize {
        let w = self.n + 1;
        let past = past / w;
        let mut base = past.saturating_sub((self.len - sn) as usize);
        let mut left = past.min(sn as usize) - base;
        while left > 1 {
            let half = left / 2;
            if self.runs[(base + half) * w + self.pid] <= sn {
                base += half;
            }
            left -= half;
        }
        base * w
    }
}

/// The final verdicts (⊤, ⊥) a monitor has detected, one bit each: all a retired
/// view leaves behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FinalVerdicts(u8);

impl FinalVerdicts {
    fn bit(verdict: Verdict) -> u8 {
        match verdict {
            Verdict::False => 1,
            Verdict::True => 2,
            Verdict::Unknown => 0,
        }
    }

    fn insert(&mut self, verdict: Verdict) {
        debug_assert_ne!(verdict, Verdict::Unknown, "only ⊤ and ⊥ are final");
        self.0 |= Self::bit(verdict);
    }

    fn contains(self, verdict: Verdict) -> bool {
        self.0 & Self::bit(verdict) != 0
    }

    fn to_set(self) -> BTreeSet<Verdict> {
        [Verdict::False, Verdict::True]
            .into_iter()
            .filter(|&v| self.contains(v))
            .collect()
    }
}

/// What a monitor counts as it runs: the fields of [`MonitorMetrics`] of the same
/// names.  The rest of a snapshot — the views alive now, the verdicts detected and
/// still possible — is read off the monitor when [`DecentralizedMonitor::metrics`]
/// takes it, so no set is kept here.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    tokens_sent: usize,
    tokens_received: usize,
    token_batches_sent: usize,
    global_views_created: usize,
    max_live_views: usize,
    events_observed: usize,
    queued_events_sum: usize,
    queued_events_samples: usize,
    max_queued_events: usize,
    history_events_served: usize,
    history_events_covered: usize,
    tokens_parked: usize,
    tokens_failed_at_termination: usize,
    backlog_events_drained: usize,
    tokens_sent_after_termination: usize,
    last_event_time: f64,
    last_activity_time: f64,
}

/// A decentralized monitor process `Mi` (Algorithm 1).
///
/// It holds only what outlives an activation: the history, the views, the parked
/// tokens, the explorations in flight, the verdicts detected and the counters.
/// What an activation sends is staged for that activation alone ([`Staged`]).
#[derive(Debug, Clone)]
pub struct DecentralizedMonitor {
    /// The fleet member index stamped on every token this monitor emits: `0` in
    /// single-property runs, assigned by [`FleetMonitor`](crate::FleetMonitor)
    /// when several properties share one transport.
    property: u32,
    /// The shared monitor automaton replica.
    automaton: Arc<MonitorAutomaton>,
    /// Shared atom registry (for conjunct ownership).
    registry: Arc<AtomRegistry>,
    /// Optimization switches.
    opts: MonitorOptions,
    /// Local event history (`history` in Algorithm 2), which also knows the process
    /// this monitor is attached to and the number of processes.  A fleet member's
    /// is empty between activations: the process's one history is lent to it for
    /// each.
    history: LocalHistory,
    /// How many events of `history` have been offered to the views: a view's queue of
    /// buffered events is `history[next_sn ..= delivered]`.  Equal to `history.len()`
    /// except while the tokens parked on a fresh event are woken, which Algorithm 2
    /// does before the views get that event.
    delivered: u64,
    /// Tokens waiting for a future local event (`w_tokens`).
    waiting_tokens: WaitingTokens,
    /// The set of global views (`GV`) that can still move: a view that reaches ⊤ or
    /// ⊥ is retired on the spot and never held here.
    views: Vec<GlobalView>,
    /// Next fresh global-view identifier.
    next_gv_id: u64,
    /// Whether the local program has terminated.
    local_terminated: bool,
    /// The ⊤/⊥ verdicts of the views retired so far.
    detected: FinalVerdicts,
    /// Number of tokens currently in flight per originating automaton state (used by
    /// the §4.3.2 optimization to avoid launching duplicate explorations).  A state
    /// with no token out has no entry, and with no entry at all the buffer is
    /// released, so an idle monitor holds nothing here.
    in_flight: Vec<(dlrv_automaton::StateId, u32)>,
    /// The thread's scratch arena while an activation has it on lease; `None`
    /// between activations (so cloning a monitor copies no pool) and whenever
    /// `opts.arena_recycling` is off.
    scratch: Option<Box<Scratch>>,
    /// What this monitor has counted so far.
    counters: Counters,
}

impl DecentralizedMonitor {
    /// INIT (Algorithm 1): creates monitor `Mi` with its initial global view, already
    /// advanced over the initial global state — or with no view at all when that
    /// state is already ⊤ or ⊥: the verdict is recorded and the view retired, as
    /// every view that reaches one is.
    pub fn new(
        pid: ProcessId,
        n_processes: usize,
        automaton: Arc<MonitorAutomaton>,
        registry: Arc<AtomRegistry>,
        initial_gstate: Assignment,
        opts: MonitorOptions,
    ) -> Self {
        let q0 = automaton.step(automaton.initial, initial_gstate);
        let mut detected = FinalVerdicts::default();
        let views = if automaton.is_final(q0) {
            detected.insert(automaton.verdict(q0));
            Vec::new()
        } else {
            vec![GlobalView::initial(0, n_processes, initial_gstate, q0)]
        };
        let counters = Counters {
            global_views_created: 1,
            max_live_views: views.len(),
            ..Counters::default()
        };
        DecentralizedMonitor {
            property: 0,
            automaton,
            registry,
            opts,
            history: LocalHistory::new(pid, n_processes),
            delivered: 0,
            waiting_tokens: WaitingTokens::new(),
            views,
            next_gv_id: 1,
            local_terminated: false,
            detected,
            in_flight: Vec::new(),
            scratch: None,
            counters,
        }
    }

    /// The process index this monitor is attached to.
    pub fn process_id(&self) -> ProcessId {
        self.pid()
    }

    /// The process this monitor is attached to (its history knows).
    fn pid(&self) -> ProcessId {
        self.history.pid
    }

    /// Number of processes.
    fn n(&self) -> usize {
        self.history.n
    }

    /// How many events of its process this monitor has recorded (none, between
    /// activations, for a fleet member: the fleet holds the history).
    pub fn events_recorded(&self) -> u64 {
        self.history.len() as u64
    }

    /// Assigns the fleet member index stamped on every token this monitor emits
    /// (`0` outside fleets).  Must be set before the first event is fed.
    pub fn set_property_id(&mut self, property: u32) {
        self.property = property;
    }

    /// Exchanges this monitor's history with `other` — how a fleet lends a member
    /// the process's history for one activation and takes it back afterwards.
    pub(crate) fn swap_history(&mut self, other: &mut LocalHistory) {
        std::mem::swap(&mut self.history, other);
    }

    /// The live global views — the ones that can still move; none is at ⊤ or ⊥.
    pub fn views(&self) -> &[GlobalView] {
        &self.views
    }

    /// The set of verdicts currently considered possible (one per global view),
    /// plus any ⊤/⊥ verdict that was detected along the way.
    pub fn possible_verdicts(&self) -> BTreeSet<Verdict> {
        let mut set = self.detected.to_set();
        set.extend(self.views.iter().map(|gv| self.automaton.verdict(gv.q)));
        set
    }

    /// ⊤/⊥ verdicts this monitor has detected.
    pub fn detected_final_verdicts(&self) -> BTreeSet<Verdict> {
        self.detected.to_set()
    }

    /// Whether this monitor has detected the final verdict `verdict` (⊤ or ⊥) —
    /// one bit read, no set built: a session asks every monitor this for every
    /// fed event.
    pub fn has_detected(&self, verdict: Verdict) -> bool {
        self.detected.contains(verdict)
    }

    /// A snapshot of this monitor's metrics: its counters, and what its views and
    /// detected verdicts say now.
    pub fn metrics(&self) -> MonitorMetrics {
        let c = self.counters;
        MonitorMetrics {
            tokens_sent: c.tokens_sent,
            tokens_received: c.tokens_received,
            token_batches_sent: c.token_batches_sent,
            global_views_created: c.global_views_created,
            global_views_final: self.views.len(),
            max_live_views: c.max_live_views.max(self.views.len()),
            events_observed: c.events_observed,
            queued_events_sum: c.queued_events_sum,
            queued_events_samples: c.queued_events_samples,
            max_queued_events: c.max_queued_events,
            history_events_served: c.history_events_served,
            history_events_covered: c.history_events_covered,
            tokens_parked: c.tokens_parked,
            tokens_failed_at_termination: c.tokens_failed_at_termination,
            backlog_events_drained: c.backlog_events_drained,
            tokens_sent_after_termination: c.tokens_sent_after_termination,
            last_event_time: c.last_event_time,
            last_activity_time: c.last_activity_time,
            detected_final_verdicts: self.detected_final_verdicts(),
            possible_verdicts: self.possible_verdicts(),
        }
    }

    // ------------------------------------------------------------------
    // Scratch pools (`opts.arena_recycling`)
    // ------------------------------------------------------------------

    /// Starts an activation: takes the thread's arena on lease (nothing when the
    /// arena is off, so every pool helper below falls through to plain allocation).
    fn lease_arena(&mut self) {
        if self.opts.arena_recycling {
            self.scratch = Some(ARENA.with(Cell::take).unwrap_or_default());
        }
    }

    /// Ends an activation: holds the view set at exactly its length — the buffer
    /// the activation rebuilt it in goes back to the pool — and hands the arena back
    /// to the thread.
    fn return_arena(&mut self) {
        let spare = exact(&mut self.views);
        self.put_view_buf(spare);
        if let Some(scratch) = self.scratch.take() {
            ARENA.with(|slot| slot.set(Some(scratch)));
        }
        debug_assert!(self.parks_no_spare());
    }

    /// Whether this monitor holds monitoring state only: a view set at exactly its
    /// length, parked tokens holding exactly their transitions, and no allocation
    /// for parked tokens when none is ([`WaitingTokens`]) nor for in-flight counts
    /// when no token is out.  True between activations: `return_arena` and
    /// [`exploration_over`](Self::exploration_over) make it so.
    pub(crate) fn parks_no_spare(&self) -> bool {
        self.views.capacity() == self.views.len()
            && self.waiting_tokens.parks_no_spare()
            && (!self.in_flight.is_empty() || self.in_flight.capacity() == 0)
    }

    /// An empty view-set vector — recycled when the arena is on, fresh otherwise.
    fn take_view_buf(&mut self) -> Vec<GlobalView> {
        self.scratch
            .as_mut()
            .and_then(|s| s.view_bufs.pop())
            .unwrap_or_default()
    }

    /// Returns a view-set vector to the pool (dropped when the arena is off, or when
    /// it holds no allocation to reuse).
    fn put_view_buf(&mut self, mut buf: Vec<GlobalView>) {
        if buf.capacity() == 0 {
            return;
        }
        if let Some(s) = self.scratch.as_mut().filter(|s| s.view_bufs.len() < POOL_CAP) {
            buf.clear();
            s.view_bufs.push(buf);
        }
    }

    /// An empty staging vector for the tokens of one activation.
    fn take_staged(&mut self) -> Staged {
        self.scratch
            .as_mut()
            .map(|s| std::mem::take(&mut s.staged))
            .unwrap_or_default()
    }

    /// Returns an emptied staging vector to the arena (dropped when it is off).
    fn put_staged(&mut self, staged: Staged) {
        debug_assert!(staged.is_empty());
        if let Some(s) = self.scratch.as_mut() {
            s.staged = staged;
        }
    }

    /// An empty transition vector for token payloads.
    fn take_transition_buf(&mut self) -> Vec<TokenTransition> {
        self.scratch
            .as_mut()
            .and_then(|s| s.transitions.pop())
            .unwrap_or_default()
    }

    /// Returns a (drained) transition vector to the pool (dropped as
    /// [`put_view_buf`](Self::put_view_buf) drops a view-set vector).
    fn put_transition_buf(&mut self, mut buf: Vec<TokenTransition>) {
        if buf.capacity() == 0 {
            return;
        }
        if let Some(s) = self.scratch.as_mut().filter(|s| s.transitions.len() < POOL_CAP) {
            buf.clear();
            s.transitions.push(buf);
        }
    }

    /// A clock holding a copy of `src`: a recycled buffer overwritten in place when
    /// the arena is on, a fresh clone otherwise.
    fn clock_copy(&mut self, src: &VectorClock) -> VectorClock {
        match self.scratch.as_mut().and_then(|s| s.clocks.pop()) {
            Some(mut clock) => {
                clock.copy_from(src);
                clock
            }
            None => src.clone(),
        }
    }

    /// Returns a retired clock to the pool.
    fn reclaim_clock(&mut self, clock: VectorClock) {
        if let Some(s) = self.scratch.as_mut().filter(|s| s.clocks.len() < POOL_CAP) {
            s.clocks.push(clock);
        }
    }

    /// An empty conjunct buffer.
    fn take_conjunct_buf(&mut self) -> Vec<ConjunctEval> {
        self.scratch
            .as_mut()
            .and_then(|s| s.conjuncts.pop())
            .unwrap_or_default()
    }

    /// Returns a conjunct buffer to the pool.
    fn put_conjunct_buf(&mut self, mut buf: Vec<ConjunctEval>) {
        if let Some(s) = self.scratch.as_mut().filter(|s| s.conjuncts.len() < POOL_CAP) {
            buf.clear();
            s.conjuncts.push(buf);
        }
    }

    /// Reclaims a decided transition's allocations: both cuts and the conjunct
    /// buffer go back to their pools.
    fn reclaim_transition(&mut self, tran: TokenTransition) {
        self.reclaim_clock(tran.gcut);
        self.reclaim_clock(tran.depend);
        self.put_conjunct_buf(tran.conjuncts);
    }

    /// The cursor of a view whose queue starts empty (a fork, a view spawned by a
    /// returned token): just past everything the views have been offered so far.
    fn empty_queue_cursor(&self) -> u64 {
        debug_assert!(self.delivered <= self.history.len() as u64);
        self.delivered + 1
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    /// Whether `state` satisfies process `p`'s conjunct of `transition`'s guard: the
    /// literals `p` owns, evaluated where they stand.
    fn conjunct_holds(
        &self,
        transition: &SymbolicTransition,
        p: ProcessId,
        state: Assignment,
    ) -> bool {
        transition
            .guard
            .literals()
            .iter()
            .all(|lit| self.registry.owner(lit.atom) != p || lit.eval(state))
    }

    /// Whether process `p` owns any literal of `transition`'s guard.
    fn participates(&self, transition: &SymbolicTransition, p: ProcessId) -> bool {
        transition
            .guard
            .literals()
            .iter()
            .any(|lit| self.registry.owner(lit.atom) == p)
    }

    /// `gstate` with this process's atoms overwritten by their values in `local`.
    fn apply_local_state(&self, mut gstate: Assignment, local: Assignment) -> Assignment {
        for atom in self.registry.ids() {
            if self.registry.owner(atom) == self.pid() {
                gstate.set(atom, local.get(atom));
            }
        }
        gstate
    }

    /// Retires a view that reached the final state `q`.  ⊤ and ⊥ are sinks of the
    /// LTL₃ monitor, so such a view would never change state again, never launch a
    /// token and could only ever merge with another final view: all it still
    /// carries is its verdict, which goes into the detected set.  Its cut — its only
    /// allocation — goes back to the pool.
    fn retire_view(&mut self, q: dlrv_automaton::StateId, gcut: VectorClock) {
        debug_assert!(self.automaton.is_final(q));
        self.detected.insert(self.automaton.verdict(q));
        self.reclaim_clock(gcut);
    }

    /// §4.3.3 extension: true when exploring a transition into `target` could only
    /// re-derive a verdict a sibling view already detected.
    fn target_verdict_subsumed(&self, target: dlrv_automaton::StateId) -> bool {
        self.opts.prune_disjunctive
            && self.automaton.is_final(target)
            && self.detected.contains(self.automaton.verdict(target))
    }

    /// Updates the peak-live-view count (the §4.3 memory-overhead measurement).
    fn note_view_peak(&mut self) {
        debug_assert!(
            self.views.iter().all(|gv| !self.automaton.is_final(gv.q)),
            "a view at ⊤ or ⊥ is retired, never held"
        );
        self.counters.max_live_views = self.counters.max_live_views.max(self.views.len());
    }

    /// Whether an exploration launched from automaton state `q` is still out.
    fn is_exploring(&self, q: dlrv_automaton::StateId) -> bool {
        self.in_flight.iter().any(|&(state, _)| state == q)
    }

    /// Counts one more token out for automaton state `q`.
    fn exploration_launched(&mut self, q: dlrv_automaton::StateId) {
        match self.in_flight.iter_mut().find(|(state, _)| *state == q) {
            Some((_, count)) => *count += 1,
            None => self.in_flight.push((q, 1)),
        }
    }

    /// Counts one token of automaton state `q` home and decided.  The last one
    /// home releases the buffer, as [`WaitingTokens::take`] does.
    fn exploration_over(&mut self, q: dlrv_automaton::StateId) {
        if let Some(at) = self.in_flight.iter().position(|&(state, _)| state == q) {
            self.in_flight[at].1 -= 1;
            if self.in_flight[at].1 == 0 {
                self.in_flight.swap_remove(at);
                if self.in_flight.is_empty() {
                    self.in_flight = Vec::new();
                }
            }
        }
    }

    /// Sends `token` toward `dest`: staged until the activation's
    /// [`flush`](Self::flush).
    fn send_token(&mut self, dest: ProcessId, token: Token, staged: &mut Staged) {
        self.counters.tokens_sent += 1;
        self.counters.tokens_sent_after_termination += usize::from(self.local_terminated);
        staged.push((dest, token));
    }

    /// Ends an activation's sending: the staged tokens leave as one message each,
    /// in emission order — or, with token aggregation on (§4.3.1), as one message
    /// per destination in ascending destination order, each holding its tokens in
    /// emission order and counted as a batch when it holds ≥ 2.  The emptied
    /// staging vector goes back to the arena.
    fn flush(&mut self, mut staged: Staged, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        if self.opts.aggregate_tokens {
            // Stable: tokens to one destination keep their emission order.
            staged.sort_by_key(|&(dest, _)| dest);
            let mut tokens = staged.drain(..).peekable();
            while let Some((dest, token)) = tokens.next() {
                let mut batch = vec![token];
                while let Some((_, token)) = tokens.next_if(|&(to, _)| to == dest) {
                    batch.push(token);
                }
                self.counters.token_batches_sent += usize::from(batch.len() >= 2);
                ctx.send(dest, MonitorMsg { tokens: batch });
            }
        } else {
            for (dest, token) in staged.drain(..) {
                ctx.send(dest, MonitorMsg { tokens: vec![token] });
            }
        }
        self.put_staged(staged);
    }

    /// MERGESIMILARGLOBALVIEWS: collapse views with identical automaton state, cut and
    /// global state, keeping the first occurrence of each exploration point in
    /// encounter order.
    ///
    /// Kept views accumulate in `self.views`, and each incoming view's cut is compared
    /// against every kept cut in a single [`compare_many`](dlrv_vclock::compare_many)
    /// pass over raw entry slices, plus the state/valuation checks.  View counts per
    /// monitor are small (bounded by the lattice width), so the scan stays cheap, and
    /// with the arena on it allocates nothing.
    fn merge_similar_views(&mut self) {
        if self.views.len() <= 1 {
            return;
        }
        let mut staged = self.take_view_buf();
        std::mem::swap(&mut staged, &mut self.views);
        let mut ord = self
            .scratch
            .as_mut()
            .map(|s| std::mem::take(&mut s.ord))
            .unwrap_or_default();
        for gv in staged.drain(..) {
            dlrv_vclock::compare_many(
                &gv.gcut,
                self.views.iter().map(|kept| &kept.gcut),
                &mut ord,
            );
            let pos = self.views.iter().enumerate().position(|(i, kept)| {
                ord[i] == Some(std::cmp::Ordering::Equal)
                    && kept.q == gv.q
                    && kept.gstate == gv.gstate
            });
            match pos {
                Some(i) => {
                    #[cfg(test)]
                    MERGED_VIEWS.with(|merged| merged.set(merged.get() + 1));
                    // Prefer the unblocked copy; the kept slot keeps its queue.
                    let existing = &mut self.views[i];
                    if existing.state == GvState::Waiting && gv.state == GvState::Unblocked {
                        let next_sn = existing.next_sn;
                        let retired = std::mem::replace(existing, gv);
                        existing.next_sn = next_sn;
                        // A dropped view's cut is its only allocation.
                        self.reclaim_clock(retired.gcut);
                    } else {
                        self.reclaim_clock(gv.gcut);
                    }
                }
                None => self.views.push(gv),
            }
        }
        if let Some(s) = self.scratch.as_mut() {
            s.ord = ord;
        }
        self.put_view_buf(staged);
    }

    /// CHECKOUTGOINGTRANSITIONS: build the candidate token transitions of `gv` for the
    /// local event `sn`, whose run's record starts at word `at` of the history.  With
    /// the arena on, the cuts and conjunct buffers come from the scratch pools (they
    /// return when the token's transitions are decided).
    fn candidate_transitions(&mut self, gv: &GlobalView, sn: u64, at: usize) -> Vec<TokenTransition> {
        let mut out = self.take_transition_buf();
        // A second handle to the shared automaton, so iterating its transitions does
        // not hold a borrow of `self` across the pool calls below.
        let automaton = Arc::clone(&self.automaton);
        for t in automaton.transitions_from(gv.q).iter().filter(|t| !t.is_self_loop()) {
            // The local conjunct must be satisfied by the process's own (fresh) state.
            if !self.conjunct_holds(t, self.pid(), gv.gstate) {
                continue;
            }
            // §4.3.3: exploring a transition whose target verdict a sibling view
            // already detected cannot change what is reported — skip it outright.
            if self.target_verdict_subsumed(t.to) {
                continue;
            }
            // Determine which processes "forbid" the transition: their believed state
            // does not satisfy their conjunct.  If nobody forbids, the transition is
            // already enabled under the believed state and needs no token.
            let mut conjuncts = self.take_conjunct_buf();
            conjuncts.reserve(self.n());
            let mut has_forbidding = false;
            for p in 0..self.n() {
                let c = if !self.participates(t, p) {
                    ConjunctEval::NotInvolved
                } else if p == self.pid() || self.conjunct_holds(t, p, gv.gstate) {
                    // The monitor's own conjunct was already checked above; remote
                    // conjuncts count as satisfied under the believed state.
                    ConjunctEval::True
                } else {
                    has_forbidding = true;
                    ConjunctEval::Unset
                };
                conjuncts.push(c);
            }
            if !has_forbidding {
                self.put_conjunct_buf(conjuncts);
                continue;
            }
            let gcut = {
                let mut g = self.clock_copy(&gv.gcut);
                self.history.run(sn, at).merge_clock_into(sn, &mut g);
                g
            };
            let depend = self.clock_copy(&gcut);
            let first_unset = conjuncts
                .iter()
                .position(|c| *c == ConjunctEval::Unset)
                .expect("has_forbidding implies an unset conjunct");
            // The cut has merged the event's clock: no further entry to take.
            let next_target_event = gcut.get(first_unset) + 1;
            out.push(TokenTransition {
                transition_id: t.id,
                gcut,
                depend,
                gstate: gv.gstate,
                conjuncts,
                next_target_process: first_unset,
                next_target_event,
                eval: EvalState::Unset,
            });
        }
        out
    }

    /// SENDTONEXTPROCESS: decide where `token` goes next, following the routing rules
    /// of §4.2.0.6, and dispatch it (send, serve or park locally, or hand back to the
    /// owning global view when this monitor is the parent).  The destination serves
    /// the first pending transition that targets it — the one chosen here: it is
    /// the first pending transition by rule 2 and rule 4, and by rule 3 every one
    /// before it targets the parent.
    fn route_token(&mut self, token: Token, staged: &mut Staged) {
        let pending = || token.transitions.iter().filter(|t| t.eval == EvalState::Unset);
        // Rule 1: an enabled transition sends the token home.  Otherwise it visits a
        // process some undecided transition targets: this very one (rule 2) before
        // any third one (rule 3) before the parent (rule 4).
        let next = if token.transitions.iter().any(|t| t.eval == EvalState::Enabled) {
            None
        } else {
            pending()
                .find(|t| t.next_target_process == self.pid())
                .or_else(|| pending().find(|t| t.next_target_process != token.parent))
                .or_else(|| pending().next())
                .map(|t| (t.next_target_process, t.next_target_event))
        };
        match next {
            // If the requested event is already in our history, process it right
            // away; otherwise wait for it.
            Some((process, sn)) if process == self.pid() => self.advance_local_token(token, sn, staged),
            Some((process, _)) => self.send_token(process, token, staged),
            None if token.parent == self.pid() => self.handle_returned_token(token, staged),
            None => self.send_token(token.parent, token, staged),
        }
    }

    /// Feeds the token already-known local events, starting at event `sn`, until it
    /// is routed away or has to wait for a future event.
    fn advance_local_token(&mut self, mut token: Token, mut sn: u64, staged: &mut Staged) {
        // The run of the latest visit: where the next one starts looking.
        let mut walked = LATEST_RUN;
        while !self.is_unrecorded(sn) {
            match self.process_token_with_event(&mut token, sn, &mut walked) {
                Some(next) => sn = next,
                None => return self.route_token(token, staged),
            }
        }
        if self.local_terminated {
            // No further events will ever occur here: the pending conjuncts of
            // transitions targeting us can never be satisfied.
            self.counters.tokens_failed_at_termination += 1;
            self.fail_local_targets(&mut token);
            self.route_token(token, staged);
        } else {
            self.counters.tokens_parked += 1;
            // It may wait for the rest of the session: it keeps exactly its
            // transitions, and the buffer they travelled in goes back to the pool.
            let spare = exact(&mut token.transitions);
            self.put_transition_buf(spare);
            self.waiting_tokens.park(sn, token);
        }
    }

    /// PROCESSTOKEN + EVALUATETOKEN for the local event `sn` (already in the
    /// history), whose run is looked for from the record at `walked` (see
    /// [`LocalHistory::run`]) and left there.  Returns the local event the token
    /// should be served next — the next one at which that can change anything —
    /// or `None` when no pending transition targets this process any more.
    fn process_token_with_event(&mut self, token: &mut Token, sn: u64, walked: &mut usize) -> Option<u64> {
        self.counters.history_events_served += 1;
        self.counters.history_events_covered += 1;
        let run = self.history.run(sn, *walked);
        // ADDEVENTTOTOKEN for every transition targeting (self, sn).  The run walk
        // (below) lands no later than the end of this run, the last recorded
        // event, or any event another pending transition asks for here.
        let mut land = (run.last + 1).min(self.history.len() as u64);
        let mut targeted = self
            .scratch
            .as_mut()
            .map(|s| std::mem::take(&mut s.targeted))
            .unwrap_or_default();
        targeted.clear();
        for (idx, tran) in token.transitions.iter_mut().enumerate() {
            if tran.eval != EvalState::Unset || tran.next_target_process != self.pid() {
                continue;
            }
            if tran.next_target_event == sn {
                tran.gcut.set(self.pid(), sn);
                run.merge_clock_into(sn, &mut tran.depend);
                tran.gstate = self.apply_local_state(tran.gstate, run.state);
                targeted.push(idx);
            } else {
                land = land.min(tran.next_target_event);
            }
        }
        if targeted.is_empty() {
            if let Some(s) = self.scratch.as_mut() {
                s.targeted = targeted;
            }
            return None;
        }

        // EVALUATETOKEN: evaluate this process's conjunct of every targeted transition.
        let mut any_true = false;
        let mut local_results = self
            .scratch
            .as_mut()
            .map(|s| std::mem::take(&mut s.local_results))
            .unwrap_or_default();
        local_results.clear();
        for &idx in &targeted {
            let tran = &token.transitions[idx];
            if tran.conjuncts[self.pid()] == ConjunctEval::NotInvolved {
                // Only visited to repair an inconsistency; nothing to evaluate here and
                // this must not influence the ordering flag below.
                continue;
            }
            let symbolic = self.automaton.transition(tran.transition_id);
            let ok = self.conjunct_holds(symbolic, self.pid(), run.state);
            any_true |= ok;
            local_results.push((idx, ok));
        }

        for (idx, ok) in &local_results {
            let tran = &mut token.transitions[*idx];
            if tran.conjuncts[self.pid()] != ConjunctEval::NotInvolved {
                if any_true {
                    tran.conjuncts[self.pid()] = if *ok { ConjunctEval::True } else { ConjunctEval::False };
                } else {
                    // No candidate satisfied at this event: keep looking at later ones.
                    tran.conjuncts[self.pid()] = ConjunctEval::Unset;
                }
            }
        }

        // Decide each targeted transition's fate.  Local first: a transition this
        // process still owes an answer — its own cut entry lags, or its own conjunct
        // is unset — stays for the next local event whenever that event is already
        // recorded or can never come, so one visit serves the whole recorded suffix
        // (and a terminated process fails its own targets on the spot) instead of
        // one sequence number per hop.  The least consistent cut satisfying the
        // conjuncts does not depend on the order in which lagging entries are
        // advanced, so only the tour gets shorter.  In every other case the token
        // leaves or parks exactly where SENDTONEXTPROCESS would have put it.
        let answer_is_known = (sn as usize) < self.history.len() || self.local_terminated;
        for &idx in &targeted {
            let tran = &mut token.transitions[idx];
            if tran.conjuncts[self.pid()] == ConjunctEval::False {
                tran.eval = EvalState::Disabled;
                tran.next_target_process = token.parent;
            } else if answer_is_known
                && (tran.gcut.get(self.pid()) < tran.depend.get(self.pid())
                    || tran.conjuncts[self.pid()] == ConjunctEval::Unset)
            {
                tran.next_target_process = self.pid();
                tran.next_target_event = sn + 1;
                if tran.conjuncts[self.pid()] != ConjunctEval::Unset {
                    // Answered: it stays only to repair the cut up to `depend`.
                    land = land.min(tran.depend.get(self.pid()));
                }
            } else if let Some(k) =
                tran.inconsistent_process().or_else(|| tran.first_unset_process())
            {
                // Repair the cut first, then ask whoever has not answered yet.
                tran.next_target_process = k;
                tran.next_target_event = tran.gcut.get(k) + 1;
            } else if tran.all_conjuncts_true() {
                tran.eval = EvalState::Enabled;
                tran.next_target_process = token.parent;
            }
        }

        // The run walk.  A transition that stays for event `sn + 1` meets at every
        // further event of this run the state it met here, and the clock entries
        // it merged here except its own, so each such event decides it exactly as
        // this one did.  What can change is left to the event that changes it
        // (`land`): the next run's first, the last recorded (where the answer stops
        // being known), the `depend` entry a cut repair waits for, and any event
        // another pending transition asks for (from there on the two are evaluated
        // together).  The staying ones jump there: merging that event's clock is
        // merging every skipped one, because a process's own clocks are monotone.
        if land > sn + 1 {
            let mut jumped = false;
            for &idx in &targeted {
                let tran = &mut token.transitions[idx];
                if tran.eval == EvalState::Unset
                    && tran.next_target_process == self.pid()
                    && tran.next_target_event == sn + 1
                {
                    tran.next_target_event = land;
                    jumped = true;
                }
            }
            if jumped {
                self.counters.history_events_covered += (land - sn - 1) as usize;
            }
        }

        // Continue locally only if some transition still targets this process's
        // future: at the earliest event any of them asks for.
        let next = token
            .transitions
            .iter()
            .filter(|t| t.eval == EvalState::Unset && t.next_target_process == self.pid())
            .map(|t| t.next_target_event)
            .min();
        if let Some(next) = next {
            *walked = run.cursor_for(next);
        }
        if let Some(s) = self.scratch.as_mut() {
            s.targeted = targeted;
            s.local_results = local_results;
        }
        next
    }

    /// Whether event `sn` of this process is not in the history: not yet, or —
    /// sequence numbers are 1-based — never.
    fn is_unrecorded(&self, sn: u64) -> bool {
        sn == 0 || sn as usize > self.history.len()
    }

    /// Marks every transition waiting on this (terminated) process for an event its
    /// history can never serve as disabled.
    fn fail_local_targets(&self, token: &mut Token) {
        for tran in &mut token.transitions {
            if tran.eval == EvalState::Unset
                && tran.next_target_process == self.pid()
                && self.is_unrecorded(tran.next_target_event)
            {
                if tran.conjuncts[self.pid()] != ConjunctEval::NotInvolved {
                    tran.conjuncts[self.pid()] = ConjunctEval::False;
                }
                tran.eval = EvalState::Disabled;
                tran.next_target_process = token.parent;
            }
        }
    }

    /// RECEIVETOKEN when this monitor is the token's parent: spawn views for enabled
    /// transitions, drop disabled ones, retarget inconsistent ones and either finish or
    /// re-route the token.
    fn handle_returned_token(&mut self, mut token: Token, staged: &mut Staged) {
        let owner_idx = self.views.iter().position(|gv| gv.id == token.parent_gv);
        // Every candidate transition leaves the automaton state the token was
        // launched from.
        let origin = token
            .transitions
            .first()
            .map(|t| self.automaton.transition(t.transition_id).from);

        let mut enabled_targets: BTreeSet<dlrv_automaton::StateId> = BTreeSet::new();
        let mut remaining: Vec<TokenTransition> = self.take_transition_buf();
        for tran in token.transitions.drain(..) {
            match tran.eval {
                EvalState::Enabled => {
                    let target = self.automaton.transition(tran.transition_id).to;
                    // §4.3.3: once some transition into `target` is enabled, siblings
                    // into the same target are redundant; likewise explorations whose
                    // target verdict a sibling view already detected.
                    if self.opts.prune_disjunctive && enabled_targets.contains(&target) {
                        self.reclaim_transition(tran);
                        continue;
                    }
                    if self.target_verdict_subsumed(target) {
                        enabled_targets.insert(target);
                        self.reclaim_transition(tran);
                        continue;
                    }
                    enabled_targets.insert(target);
                    // §4.3.2: never fork a view whose exploration point is already
                    // represented.  Freshly spawned views are pushed into `self.views`
                    // at once, so this scan sees the siblings spawned just above too —
                    // the live ones: a view at ⊤/⊥ is retired, and a repeat fork into
                    // a detected verdict is stopped by §4.3.3 above, if at all.
                    if self.opts.dedup_global_views
                        && self.views.iter().any(|gv| {
                            gv.q == target && gv.gstate == tran.gstate && gv.gcut == tran.gcut
                        })
                    {
                        self.reclaim_transition(tran);
                        continue;
                    }
                    // The cut moves into the spawned view; the rest of the
                    // transition's allocations are reclaimed.
                    let TokenTransition {
                        gcut,
                        depend,
                        gstate,
                        conjuncts,
                        ..
                    } = tran;
                    self.spawn_view(target, gcut, gstate);
                    self.reclaim_clock(depend);
                    self.put_conjunct_buf(conjuncts);
                }
                EvalState::Disabled => {
                    self.reclaim_transition(tran);
                }
                EvalState::Unset => {
                    let mut tran = tran;
                    if let Some(k) = tran.inconsistent_process() {
                        tran.next_target_process = k;
                        tran.next_target_event = tran.gcut.get(k) + 1;
                    }
                    // §4.3.3 also applies to still-pending siblings.
                    let target = self.automaton.transition(tran.transition_id).to;
                    if (self.opts.prune_disjunctive && enabled_targets.contains(&target))
                        || self.target_verdict_subsumed(target)
                    {
                        self.reclaim_transition(tran);
                        continue;
                    }
                    remaining.push(tran);
                }
            }
        }

        if remaining.is_empty() {
            self.put_transition_buf(remaining);
            self.put_transition_buf(std::mem::take(&mut token.transitions));
            // The exploration is over: release the in-flight slot, unblock the owning
            // view and drain its queue.
            if let Some(q) = origin {
                self.exploration_over(q);
            }
            if let Some(idx) = owner_idx {
                self.views[idx].state = GvState::Unblocked;
                self.drain_pending(idx, staged);
            }
            self.merge_similar_views();
        } else {
            let drained = std::mem::replace(&mut token.transitions, remaining);
            self.put_transition_buf(drained);
            self.route_token(token, staged);
        }
    }

    /// Forks a new global view at `q` with the constructed cut and state (the caller
    /// has already applied the §4.3.2 duplicate check).  Its queue starts empty: it
    /// will be offered the local events that follow, not the ones already delivered.
    /// A view forked at ⊤ or ⊥ counts as created and is retired at once.
    fn spawn_view(&mut self, q: dlrv_automaton::StateId, gcut: VectorClock, gstate: Assignment) {
        let id = self.next_gv_id;
        self.next_gv_id += 1;
        self.counters.global_views_created += 1;
        if self.automaton.is_final(q) {
            self.retire_view(q, gcut);
            return;
        }
        let gv = GlobalView {
            id,
            gcut,
            gstate,
            q,
            next_sn: self.empty_queue_cursor(),
            state: GvState::Unblocked,
        };
        self.views.push(gv);
        self.note_view_peak();
    }

    /// PROCESSEVENT (Algorithm 2) for one view; may fork a copy and/or emit a token.
    /// The event's run is looked for from the record at `walked` (see
    /// [`LocalHistory::run`]) and left there, for the view's next event.
    ///
    /// The views this call produces are pushed into `produced`, which must arrive
    /// empty — an out-parameter so callers can recycle one buffer across an event's
    /// whole view set.  The first one follows the local progress path (the fork, if
    /// the view forked); `gv` itself, `Waiting` if it launched a token, comes last.
    /// A view the event takes to ⊤ or ⊥ is retired and produces nothing.
    fn process_event_on_view(
        &mut self,
        mut gv: GlobalView,
        sn: u64,
        walked: &mut usize,
        staged: &mut Staged,
        produced: &mut Vec<GlobalView>,
    ) {
        debug_assert!(produced.is_empty());

        // Fold the local event into the view.
        let run = self.history.run(sn, *walked);
        *walked = run.cursor_for(sn + 1);
        gv.gcut.set(self.pid(), sn);
        // The event is inconsistent with the view when it already knows about more
        // events of other processes than the view has folded in.  (The run's own
        // entry, its first event, is not past `sn`.)
        let is_consistent = gv.gcut.entries().iter().zip(run.clock).all(|(g, c)| g >= c);
        let run_at = run.at;
        gv.gstate = self.apply_local_state(gv.gstate, run.state);

        // Only a view that took a step on this event leaves a copy behind at the
        // fork below.
        if is_consistent {
            gv.q = self.automaton.step(gv.q, gv.gstate);
            if self.automaton.is_final(gv.q) {
                self.retire_view(gv.q, gv.gcut);
                return;
            }
        }

        // Look for outgoing transitions that concurrent events elsewhere could enable.
        let candidates = self.candidate_transitions(&gv, sn, run_at);

        // §4.3.2: if an exploration for this automaton state is already in flight at
        // this monitor, do not launch a duplicate one — the waiting view will reprocess
        // the buffered events once its token returns.  Not at a terminated monitor:
        // there the token in flight is the one this very view launched an event ago
        // (`drain_pending` sweeps its backlog without waiting), and it answers for
        // that event, not for this one.
        let already_exploring = self.opts.dedup_global_views
            && !self.local_terminated
            && self.is_exploring(gv.q);

        if candidates.is_empty() || already_exploring {
            let mut candidates = candidates;
            for tran in candidates.drain(..) {
                self.reclaim_transition(tran);
            }
            self.put_transition_buf(candidates);
            produced.push(gv);
            return;
        }

        // Fork: keep a copy following the local progress path while the original waits
        // for the token (Algorithm 2, lines 33–37).
        if is_consistent {
            let duplicate_exists = self.opts.dedup_global_views
                && (self.views.iter().any(|other| other.same_slice(&gv))
                    || produced.iter().any(|other: &GlobalView| other.same_slice(&gv)));
            if !duplicate_exists {
                // The fork starts with an empty queue; the original keeps its
                // backlog and works through it once its token returns.
                let copy = GlobalView {
                    id: self.next_gv_id,
                    gcut: self.clock_copy(&gv.gcut),
                    gstate: gv.gstate,
                    q: gv.q,
                    next_sn: self.empty_queue_cursor(),
                    state: GvState::Unblocked,
                };
                self.next_gv_id += 1;
                self.counters.global_views_created += 1;
                produced.push(copy);
            }
        }

        // Emit the token(s): one for all candidates (§4.3.1), or one each.
        gv.state = GvState::Waiting;
        if self.opts.aggregate_tokens {
            self.launch_token(&gv, candidates, staged);
        } else {
            let mut candidates = candidates;
            for tran in candidates.drain(..) {
                let mut transitions = self.take_transition_buf();
                transitions.push(tran);
                self.launch_token(&gv, transitions, staged);
            }
            self.put_transition_buf(candidates);
        }
        produced.push(gv);
    }

    /// Sends a token exploring `transitions` on behalf of view `gv` on its way.
    fn launch_token(
        &mut self,
        gv: &GlobalView,
        transitions: Vec<TokenTransition>,
        staged: &mut Staged,
    ) {
        let token = Token {
            property: self.property,
            parent: self.pid(),
            parent_gv: gv.id,
            transitions,
        };
        self.exploration_launched(gv.q);
        self.route_token(token, staged);
    }

    /// Drains the queue of view `idx` as long as it stays unblocked — and, once this
    /// monitor has terminated, to its end (TERMINATE's sweep, `docs/MONITORING.md`
    /// step 5).  No further local event can arrive then and a returning token never
    /// writes to the view that launched it, so the view's state at every queued event
    /// is already determined: the tokens leave together, one batch per destination,
    /// instead of one round trip per event.
    fn drain_pending(&mut self, mut idx: usize, staged: &mut Staged) {
        let mut produced = self.take_view_buf();
        let mut walked = LATEST_RUN;
        while self.views[idx].is_unblocked() || self.local_terminated {
            let Some(sn) = self.views[idx].pop_queued(self.delivered) else {
                break;
            };
            self.counters.backlog_events_drained += 1;
            let gv = self.views.remove(idx);
            self.process_event_on_view(gv, sn, &mut walked, staged, &mut produced);
            if produced.is_empty() {
                // The view retired at ⊤/⊥, and its drain with it.
                break;
            }
            // Back where the view was, and on with the drained view itself: it comes
            // last, behind its fork (whose queue is empty).
            let at = idx;
            idx += produced.len() - 1;
            self.views.splice(at..at, produced.drain(..));
            self.note_view_peak();
        }
        self.put_view_buf(produced);
    }

    /// RECEIVETOKEN: a token of our own is home; a foreign one is served from our
    /// history or parked — routed from here, it goes to the very transition its
    /// sender routed it here for.
    fn receive_token(&mut self, token: Token, staged: &mut Staged) {
        if token.parent == self.pid() {
            self.handle_returned_token(token, staged);
        } else {
            self.route_token(token, staged);
        }
    }
}

impl DecentralizedMonitor {
    /// RECEIVEEVENT (Algorithm 2) for event `sn`, the latest of `history` — recorded
    /// by [`on_local_event`](MonitorBehavior::on_local_event), or by the fleet that
    /// lends this member its process's history.
    pub(crate) fn on_recorded_event(&mut self, sn: u64, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        self.lease_arena();
        let mut staged = self.take_staged();
        self.counters.events_observed += 1;
        self.counters.last_event_time = ctx.now;
        self.counters.last_activity_time = ctx.now;
        self.merge_similar_views();

        // Wake up exactly the tokens waiting for this event (per-cut index lookup).
        // The views have not been offered it yet: one spawned by a token returning
        // here still gets it below, like every other live view.
        for token in self.waiting_tokens.take(sn) {
            self.advance_local_token(token, sn, &mut staged);
        }

        // Deliver the event to every view (waiting views just buffer it, i.e. leave
        // their cursor behind).  The view set is rebuilt through recycled staging
        // buffers; `self.views` holds only synchronously spawned views until the
        // rebuilt set is appended — those start past this event and never see it.
        self.delivered = self.history.len() as u64;
        let mut delayed = 0usize;
        let mut offered = self.take_view_buf();
        std::mem::swap(&mut offered, &mut self.views);
        let mut rebuilt = self.take_view_buf();
        rebuilt.reserve(offered.len());
        let mut produced = self.take_view_buf();
        'views: for mut gv in offered.drain(..) {
            if !gv.is_unblocked() {
                delayed += gv.queued(self.delivered);
            }
            // Process the whole queue while the view stays unblocked.
            let mut walked = LATEST_RUN;
            while gv.is_unblocked() {
                let Some(sn) = gv.pop_queued(self.delivered) else { break };
                self.process_event_on_view(gv, sn, &mut walked, &mut staged, &mut produced);
                // On with the first produced view, which follows local progress;
                // any other waits for its token.  None: the view retired at ⊤/⊥.
                let mut views = produced.drain(..);
                let Some(next) = views.next() else { continue 'views };
                gv = next;
                rebuilt.extend(views);
            }
            rebuilt.push(gv);
        }
        self.put_view_buf(offered);
        self.put_view_buf(produced);
        self.views.append(&mut rebuilt);
        self.put_view_buf(rebuilt);
        self.counters.queued_events_sum += delayed;
        self.counters.queued_events_samples += 1;
        self.counters.max_queued_events = self.counters.max_queued_events.max(delayed);
        self.merge_similar_views();
        self.note_view_peak();
        self.flush(staged, ctx);
        self.return_arena();
    }
}

impl MonitorBehavior for DecentralizedMonitor {
    type Message = MonitorMsg;

    /// RECEIVEEVENT (Algorithm 2): all the monitor keeps of the event is its clock
    /// and state, and only when they start a new run of the history.
    fn on_local_event(&mut self, event: &Event, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        self.history.push(event);
        self.on_recorded_event(event.sn, ctx);
    }

    fn on_monitor_message(
        &mut self,
        _from: ProcessId,
        msg: MonitorMsg,
        ctx: &mut MonitorContext<'_, MonitorMsg>,
    ) {
        self.lease_arena();
        let mut staged = self.take_staged();
        self.counters.last_activity_time = ctx.now;
        self.counters.tokens_received += msg.tokens.len();
        // §4.3.1: an aggregated message is processed token by token, exactly as if
        // they had arrived as consecutive messages.
        for token in msg.tokens {
            self.receive_token(token, &mut staged);
        }
        self.note_view_peak();
        self.flush(staged, ctx);
        self.return_arena();
    }

    /// TERMINATE (§4.2.0.10).  Termination is local: no peer is told, because a
    /// token that arrives later asking for an event this process never produced is
    /// failed on arrival (`advance_local_token`).
    fn on_local_termination(&mut self, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        self.lease_arena();
        let mut staged = self.take_staged();
        self.local_terminated = true;
        self.counters.last_activity_time = ctx.now;
        // Fail every token parked here waiting for events that will never happen.
        for mut token in self.waiting_tokens.drain_all() {
            self.counters.tokens_failed_at_termination += 1;
            self.fail_local_targets(&mut token);
            self.route_token(token, &mut staged);
        }
        self.flush(staged, ctx);
        self.return_arena();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::Formula;

    fn setup(n: usize, formula: Formula, reg: AtomRegistry) -> Vec<DecentralizedMonitor> {
        let automaton = Arc::new(MonitorAutomaton::synthesize(&formula, &reg));
        let registry = Arc::new(reg);
        (0..n)
            .map(|i| {
                DecentralizedMonitor::new(
                    i,
                    n,
                    automaton.clone(),
                    registry.clone(),
                    Assignment::ALL_FALSE,
                    MonitorOptions::default(),
                )
            })
            .collect()
    }

    #[test]
    fn initial_view_reflects_initial_global_state() {
        let mut reg = AtomRegistry::new();
        let a0 = reg.intern("P0.p", 0);
        let _a1 = reg.intern("P1.p", 1);
        let phi = Formula::eventually(Formula::Atom(a0));
        let monitors = setup(2, phi, reg);
        assert_eq!(monitors[0].views().len(), 1);
        assert_eq!(
            monitors[0].possible_verdicts(),
            BTreeSet::from([Verdict::Unknown])
        );
    }

    #[test]
    fn monitor_options_default_enables_all_optimizations() {
        let opts = MonitorOptions::default();
        assert!(opts.aggregate_tokens && opts.dedup_global_views && opts.prune_disjunctive);
        assert!(opts.arena_recycling);
        assert_eq!(
            MonitorOptions::ALL_OFF,
            MonitorOptions {
                aggregate_tokens: false,
                dedup_global_views: false,
                prune_disjunctive: false,
                arena_recycling: false,
            }
        );
    }

    #[test]
    fn all_combinations_enumerates_every_flag_setting() {
        let combos = MonitorOptions::all_combinations();
        let unique: std::collections::BTreeSet<(bool, bool, bool, bool)> = combos
            .iter()
            .map(|o| {
                (
                    o.aggregate_tokens,
                    o.dedup_global_views,
                    o.prune_disjunctive,
                    o.arena_recycling,
                )
            })
            .collect();
        assert_eq!(unique.len(), 16);
        assert!(combos.contains(&MonitorOptions::ALL_OFF));
        assert!(combos.contains(&MonitorOptions::default()));
    }

    #[test]
    fn local_only_violation_is_detected_without_tokens() {
        // G P0.p violated by P0's own first event — no communication needed.
        let mut reg = AtomRegistry::new();
        let a0 = reg.intern("P0.p", 0);
        let phi = Formula::globally(Formula::Atom(a0));
        // Initial state: P0.p true, so the property is alive initially.
        let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
        let registry = Arc::new(reg);
        let init = Assignment::from_true_atoms([a0]);
        let mut m0 = DecentralizedMonitor::new(
            0,
            2,
            automaton,
            registry,
            init,
            MonitorOptions::default(),
        );
        let mut outbox = Vec::new();
        let mut ctx = MonitorContext::new(0, 2, 1.0, &mut outbox);
        let event = Event {
            process: 0,
            kind: dlrv_vclock::EventKind::Internal,
            sn: 1,
            vc: VectorClock::from_entries(vec![1, 0]),
            state: Assignment::ALL_FALSE, // P0.p becomes false
            time: 1.0,
        };
        m0.on_local_event(&event, &mut ctx);
        assert!(m0.detected_final_verdicts().contains(&Verdict::False));
        assert!(outbox.is_empty(), "a purely local violation needs no tokens");
    }

    #[test]
    fn peak_view_metric_tracks_the_initial_view() {
        let mut reg = AtomRegistry::new();
        let a0 = reg.intern("P0.p", 0);
        let _a1 = reg.intern("P1.p", 1);
        let monitors = setup(2, Formula::eventually(Formula::Atom(a0)), reg);
        assert_eq!(monitors[0].metrics().max_live_views, 1);
    }

    /// Monitor `M0` of `G P0.p` over two processes, started where `P0.p` holds iff
    /// `p0_holds`, with one local event recorded on which it does not.
    fn invariant_monitor(p0_holds: bool) -> (DecentralizedMonitor, Event) {
        let mut reg = AtomRegistry::new();
        let a0 = reg.intern("P0.p", 0);
        let _a1 = reg.intern("P1.p", 1);
        let automaton = Arc::new(MonitorAutomaton::synthesize(
            &Formula::globally(Formula::Atom(a0)),
            &reg,
        ));
        let init = if p0_holds {
            Assignment::from_true_atoms([a0])
        } else {
            Assignment::ALL_FALSE
        };
        let opts = MonitorOptions::default();
        let m = DecentralizedMonitor::new(0, 2, automaton, Arc::new(reg), init, opts);
        (m, local_event(1, Assignment::ALL_FALSE))
    }

    #[test]
    fn a_local_step_into_bottom_retires_the_view() {
        let (mut m0, violation) = invariant_monitor(true);
        let mut outbox = Vec::new();
        let mut ctx = MonitorContext::new(0, 2, 1.0, &mut outbox);
        m0.on_local_event(&violation, &mut ctx);
        assert!(m0.views().is_empty(), "the ⊥ view is retired, not held: {:?}", m0.views());
        let bottom = BTreeSet::from([Verdict::False]);
        assert_eq!(m0.detected_final_verdicts(), bottom);
        assert_eq!(m0.possible_verdicts(), bottom);
        let metrics = m0.metrics();
        assert_eq!((metrics.global_views_created, metrics.max_live_views), (1, 1));
        assert_eq!(metrics.global_views_final, 0);
    }

    #[test]
    fn a_final_initial_state_means_no_view() {
        // `P0.p` is false before the first event: `G P0.p` is violated at q₀.
        let (mut m0, event) = invariant_monitor(false);
        assert!(m0.views().is_empty());
        let bottom = BTreeSet::from([Verdict::False]);
        assert_eq!(m0.detected_final_verdicts(), bottom);
        assert_eq!(m0.possible_verdicts(), bottom);
        let metrics = m0.metrics();
        assert_eq!((metrics.global_views_created, metrics.max_live_views), (1, 0));
        // Events and termination find nothing to do.
        let mut outbox = Vec::new();
        let mut ctx = MonitorContext::new(0, 2, 1.0, &mut outbox);
        m0.on_local_event(&event, &mut ctx);
        m0.on_local_termination(&mut ctx);
        assert!(m0.views().is_empty() && outbox.is_empty());
        assert_eq!(m0.possible_verdicts(), bottom);
    }

    #[test]
    fn a_returned_token_enabling_top_counts_a_view_and_holds_none() {
        let (mut m0, p0) = goal_monitor(MonitorOptions::default());
        let mut outbox = Vec::new();
        let mut ctx = MonitorContext::new(0, 2, 1.0, &mut outbox);
        m0.on_local_event(&local_event(1, p0), &mut ctx);
        let Some((1, msg)) = outbox.pop() else {
            panic!("`M0` asks `P1` about `P1.p`");
        };
        let mut token = only_token(msg);
        let live = |m: &DecentralizedMonitor| -> Vec<_> {
            m.views.iter().map(|gv| (gv.id, gv.q, gv.gcut.clone(), gv.gstate, gv.next_sn)).collect()
        };
        let before = live(&m0);
        let created = m0.counters.global_views_created;

        // `P1`'s answer, by hand: `P1.p` held, the transition into ⊤ is enabled.
        let target = m0.automaton.transition(token.transitions[0].transition_id).to;
        assert_eq!(m0.automaton.verdict(target), Verdict::True);
        token.transitions[0].eval = EvalState::Enabled;
        let mut ctx = MonitorContext::new(0, 2, 2.0, &mut outbox);
        m0.on_monitor_message(1, one(token), &mut ctx);

        assert_eq!(m0.counters.global_views_created, created + 1, "the fork at ⊤ is counted");
        assert_eq!(live(&m0), before, "and retired: the live set is as it was");
        assert_eq!(m0.detected_final_verdicts(), BTreeSet::from([Verdict::True]));
        assert_eq!(m0.possible_verdicts(), BTreeSet::from([Verdict::Unknown, Verdict::True]));
        assert!(m0.in_flight.is_empty() && outbox.is_empty());
    }

    #[test]
    fn a_view_that_retires_mid_backlog_ends_a_terminated_sweep() {
        // `G ¬P0.p` is decided locally: no event of `P0` launches a token.  The view
        // is waiting with a backlog of three events, `P0.p` holding at the second.
        let mut reg = AtomRegistry::new();
        let a0 = reg.intern("P0.p", 0);
        let _a1 = reg.intern("P1.p", 1);
        let mut m0 = setup(2, Formula::globally(Formula::not(Formula::Atom(a0))), reg).remove(0);
        let p0 = Assignment::from_true_atoms([a0]);
        for (sn, state) in [(1, Assignment::ALL_FALSE), (2, p0), (3, Assignment::ALL_FALSE)] {
            m0.history.push(&local_event(sn, state));
        }
        m0.delivered = 3;
        m0.views[0].state = GvState::Waiting;
        m0.local_terminated = true;

        let mut staged = Staged::new();
        m0.lease_arena();
        m0.drain_pending(0, &mut staged);
        m0.return_arena();

        // The sweep took the first two events and stopped with the view: nothing is
        // left to offer the third to.
        assert!(m0.views.is_empty());
        assert_eq!(m0.counters.backlog_events_drained, 2);
        assert_eq!(m0.detected_final_verdicts(), BTreeSet::from([Verdict::False]));
        assert!(staged.is_empty());
    }

    /// Monitor `M<pid>` of `F (P0.p && P1.p)` over two processes, and the local
    /// states in which `P0.p` and `P1.p` hold.
    fn goal_monitor_of(
        pid: ProcessId,
        opts: MonitorOptions,
    ) -> (DecentralizedMonitor, [Assignment; 2]) {
        let mut reg = AtomRegistry::new();
        let a = reg.intern("P0.p", 0);
        let b = reg.intern("P1.p", 1);
        let phi = Formula::eventually(Formula::and(Formula::Atom(a), Formula::Atom(b)));
        let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
        let monitor = DecentralizedMonitor::new(
            pid,
            2,
            automaton,
            Arc::new(reg),
            Assignment::ALL_FALSE,
            opts,
        );
        (monitor, [a, b].map(|atom| Assignment::from_true_atoms([atom])))
    }

    /// `M0`, and the state in which `P0.p` holds — the state that makes `M0` ask `P1`
    /// about `P1.p`.
    fn goal_monitor(opts: MonitorOptions) -> (DecentralizedMonitor, Assignment) {
        let (monitor, [p0, _]) = goal_monitor_of(0, opts);
        (monitor, p0)
    }

    /// The `sn`-th event of `P0`, which has heard from nobody.
    fn local_event(sn: u64, state: Assignment) -> Event {
        Event {
            process: 0,
            kind: dlrv_vclock::EventKind::Internal,
            sn,
            vc: VectorClock::from_entries(vec![sn, 0]),
            state,
            time: sn as f64,
        }
    }

    #[test]
    fn the_run_history_reads_like_a_flat_one() {
        // Seeded random processes: n = 1..=5, receives that raise random remote
        // entries, state changes, both at random rates per process.  At every
        // recorded `sn` the run history must answer what a flat per-event one
        // does, and hold one record per change.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for _ in 0..400 {
            let n = 1 + next(5) as usize;
            let pid = next(n as u64) as usize;
            let (receive_in, change_in) = (1 + next(4), 1 + next(8));
            let mut history = LocalHistory::new(pid, n);
            let mut flat: Vec<(Vec<u64>, Assignment)> = Vec::new();
            let (mut vc, mut state, mut runs) = (vec![0; n], Assignment(next(4)), 0);
            for sn in 1..=next(40) {
                let mut changed = sn == 1;
                if n > 1 && next(receive_in) == 0 {
                    let from = (pid + 1 + next(n as u64 - 1) as usize) % n;
                    vc[from] += 1 + next(3);
                    changed = true;
                }
                if next(change_in) == 0 {
                    let flipped = Assignment(state.0 ^ (1 << next(3)));
                    changed |= flipped != state;
                    state = flipped;
                }
                vc[pid] = sn;
                runs += usize::from(changed);
                let event = Event {
                    process: pid,
                    kind: dlrv_vclock::EventKind::Internal,
                    sn,
                    vc: VectorClock::from_entries(vc.clone()),
                    state,
                    time: sn as f64,
                };
                history.push(&event);
                flat.push((vc.clone(), state));
            }
            assert_eq!(history.len(), flat.len());
            assert_eq!(history.runs.len(), runs * (n + 1), "one record per change");
            // Each event read from the latest run, from where the previous
            // read left off, and from a record picked at random.
            let (mut walked, records) = (LATEST_RUN, runs as u64);
            for (at, (clock, state)) in flat.iter().enumerate() {
                let sn = at as u64 + 1;
                let from = [LATEST_RUN, walked, (next(records) * (n as u64 + 1)) as usize];
                let run = history.run(sn, from[next(3) as usize]);
                walked = run.cursor_for(sn + 1);
                let case = format!("n={n}, pid={pid}, sn={sn} of {}", flat.len());
                assert_eq!(run.state, *state, "{case}");
                let mut entries = VectorClock::zero(n);
                run.merge_clock_into(sn, &mut entries);
                assert_eq!(entries.entries(), clock, "{case}");
                let same_run = |(vc, st): &(Vec<u64>, Assignment)| {
                    st == state && (0..n).all(|j| j == pid || vc[j] == clock[j])
                };
                let last = sn - 1 + flat[at..].iter().take_while(|e| same_run(e)).count() as u64;
                assert_eq!(run.last, last, "{case}");
                let base: Vec<u64> = (0..n).map(|_| next(2 * sn + 2)).collect();
                let mut merged = VectorClock::from_entries(base.clone());
                run.merge_clock_into(sn, &mut merged);
                let mut reference = VectorClock::from_entries(base);
                reference.merge_entries(clock);
                assert_eq!(merged, reference, "{case}");
            }
        }
    }

    #[test]
    fn monitor_and_view_sizes_are_pinned() {
        // 600 bytes before the scratch pools moved to the thread and the history
        // went flat, 408 while the monitor kept its process and process count
        // beside its history's, 392 while it kept a per-destination staging map
        // and a whole `MonitorMetrics` with its two verdict sets (392 → 312); a
        // session pays this once per process (per member, in a fleet).
        assert!(std::mem::size_of::<DecentralizedMonitor>() <= 312);
        assert!(std::mem::size_of::<GlobalView>() <= 64);
        // The members, the one history (which knows the process) and the
        // per-member regroup table — no pool, no outbox, no staging (200 while it
        // held an outbox, a pass-through buffer and a per-destination staging
        // table, 120 with its own copy of the process and process count).
        assert!(std::mem::size_of::<crate::FleetMonitor>() <= 104);
        // A token says where it goes next through its transitions only, and the
        // state that launched it is theirs to tell (72 bytes with both copies); a
        // message is one token list (72 while it was a token or a batch).
        assert!(std::mem::size_of::<Token>() <= 48);
        assert!(std::mem::size_of::<MonitorMsg>() <= 24);
    }

    /// `has_detected`, `detected_final_verdicts()`, `possible_verdicts()` and the
    /// `metrics()` snapshot of `m` agree; returns the detected set.
    fn verdict_readouts_agree(m: &DecentralizedMonitor, case: &str) -> BTreeSet<Verdict> {
        let detected = m.detected_final_verdicts();
        for v in [Verdict::False, Verdict::True, Verdict::Unknown] {
            let has = crate::feed::SessionVerdicts::has_detected(m, v);
            assert_eq!(has, detected.contains(&v), "{case}: {v:?}");
        }
        let snapshot = m.metrics();
        assert_eq!(snapshot.detected_final_verdicts, detected, "{case}");
        assert_eq!(snapshot.possible_verdicts, m.possible_verdicts(), "{case}");
        assert!(detected.is_subset(&snapshot.possible_verdicts), "{case}");
        assert_eq!(snapshot.global_views_final, m.views().len(), "{case}");
        detected
    }

    #[test]
    fn the_verdict_readouts_agree_before_and_after_termination() {
        // `¬(P0.p ∧ (P1.p ∨ P1.q)) U (P0.p ∧ P1.p)`: ⊤ where `P0.p` meets `P1.p`, ⊥
        // where it meets `P1.q` alone.  `P0.p` holds at every event of `P0`, and
        // no process hears from the other, so `M0` asks `P1` about its events.
        let mut reg = AtomRegistry::new();
        let p0 = reg.intern("P0.p", 0);
        let p1 = reg.intern("P1.p", 1);
        let q1 = reg.intern("P1.q", 1);
        let [p0, p1, q1] = [p0, p1, q1].map(Formula::Atom);
        let phi = Formula::until(
            Formula::not(Formula::and(p0.clone(), Formula::or(p1.clone(), q1.clone()))),
            Formula::and(p0, p1),
        );
        let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
        let registry = Arc::new(reg);
        let state = |names: &[&str]| {
            Assignment::from_true_atoms(names.iter().map(|name| registry.lookup(name).expect("interned")))
        };
        let none: &[&str] = &[];
        // `P1`'s states, and what `M0` detects: ⊥ first and then, with ⊥ known,
        // ⊤ on `P0`'s second event in the last case.
        let cases: [(&[&[&str]], &[Verdict]); 4] = [
            (&[none], &[]),
            (&[&["P1.p"]], &[Verdict::True]),
            (&[&["P1.q"]], &[Verdict::False]),
            (&[&["P1.q"], &["P1.p"]], &[Verdict::False, Verdict::True]),
        ];
        for (p1_states, m0_detects) in cases {
            let mut session = crate::feed::decentralized_session(
                2,
                &automaton,
                &registry,
                Assignment::ALL_FALSE,
                MonitorOptions::default(),
            );
            let k = p1_states.len() as u64;
            for (sn, names) in (1..).zip(p1_states) {
                session.feed_owned(Event {
                    process: 1,
                    vc: VectorClock::from_entries(vec![0, sn]),
                    ..local_event(sn, state(names))
                });
            }
            for sn in 1..=k {
                session.feed_owned(Event {
                    time: (k + sn) as f64,
                    ..local_event(sn, state(&["P0.p"]))
                });
            }
            let mut before = Vec::new();
            for (pid, m) in session.monitors().iter().enumerate() {
                before.push(verdict_readouts_agree(m, &format!("{p1_states:?}, M{pid}, live")));
            }
            session.finish();
            for (pid, m) in session.monitors().iter().enumerate() {
                let case = format!("{p1_states:?}, M{pid}, terminated");
                let after = verdict_readouts_agree(m, &case);
                assert!(before[pid].is_subset(&after), "{case}");
            }
            let m0 = session.monitors()[0].detected_final_verdicts();
            assert_eq!(m0, m0_detects.iter().copied().collect(), "{p1_states:?}");
        }
    }

    #[test]
    fn a_view_spawned_while_an_event_is_delivered_does_not_see_it() {
        let (mut m, p) = goal_monitor(MonitorOptions::default());
        let q = m.views[0].q;
        m.history.push(&local_event(1, p));
        // While the tokens parked on event 1 are woken, the views have not been
        // offered it yet: a view spawned now gets it with all the others.
        m.spawn_view(q, VectorClock::zero(2), Assignment::ALL_FALSE);
        m.delivered = 1;
        assert_eq!(m.views[1].queued(m.delivered), 1);
        // A view spawned during the delivery starts past the event.
        m.spawn_view(q, VectorClock::zero(2), Assignment::ALL_FALSE);
        assert_eq!(m.views[2].next_sn, 2);
        assert_eq!(m.views[2].pop_queued(m.delivered), None);
    }

    #[test]
    fn a_fork_starts_empty_while_the_original_keeps_its_backlog() {
        let (mut m, p) = goal_monitor(MonitorOptions::default());
        m.history.push(&local_event(1, p));
        m.history.push(&local_event(2, p));
        m.delivered = 2;
        let mut gv = m.views.pop().expect("the initial view");
        let sn = gv.pop_queued(m.delivered).expect("event 1 is queued");
        let mut produced = Vec::new();
        // `P0.p` holds, `P1.p` is unknown: the view sends a token and forks.
        m.process_event_on_view(gv, sn, &mut { LATEST_RUN }, &mut Staged::new(), &mut produced);
        assert_eq!(m.counters.tokens_sent, 1);
        let [fork, original] = &produced[..] else {
            panic!("expected the fork and the original, got {produced:?}");
        };
        assert_eq!(fork.state, GvState::Unblocked);
        assert_eq!(fork.queued(m.delivered), 0, "a fork has nothing to catch up on");
        assert_eq!(original.state, GvState::Waiting);
        assert_eq!(original.next_sn, 2, "event 2 waits for the token to return");
        assert_eq!(original.queued(m.delivered), 1);
    }

    #[test]
    fn a_merge_keeps_the_kept_views_cursor() {
        // One merge, with the staging buffers pooled or freshly allocated.
        for arena_recycling in [false, true] {
            let (mut m, p) = goal_monitor(MonitorOptions {
                arena_recycling,
                ..MonitorOptions::default()
            });
            for sn in 1..=4 {
                m.history.push(&local_event(sn, p));
            }
            m.delivered = 4;
            let mut waiting = m.views[0].clone();
            waiting.state = GvState::Waiting;
            waiting.next_sn = 2;
            let mut converged = waiting.clone();
            converged.id = 9;
            converged.state = GvState::Unblocked;
            converged.next_sn = 5;
            m.views = vec![waiting, converged];
            m.lease_arena();
            m.merge_similar_views();
            m.return_arena();
            // The unblocked copy takes the slot, the slot keeps its queue.
            let [kept] = &m.views[..] else {
                panic!("expected one merged view, got {:?}", m.views);
            };
            assert_eq!((kept.id, kept.state), (9, GvState::Unblocked));
            assert_eq!(kept.next_sn, 2, "arena_recycling={arena_recycling}");
        }
    }

    /// `M0` and `M1` of `F (P0.p && P1.p)` with `k` events recorded at each, and the
    /// token `M0` launches on its first one.  `P0.p` holds throughout, `P1.p` only at
    /// `P1`'s last event, and event `i` of `P1` has heard of event `i` of `P0` (which
    /// has heard of event `i - 1` of `P1`): every step of the cut at one process
    /// asks for the next step at the other.
    fn staircase(k: u64) -> ([DecentralizedMonitor; 2], Token) {
        let (_, [p0, p1]) = goal_monitor_of(0, MonitorOptions::default());
        let mut monitors = [0, 1].map(|pid| goal_monitor_of(pid, MonitorOptions::default()).0);
        for i in 1..=k {
            let goal = if i == k { p1 } else { Assignment::ALL_FALSE };
            for (process, vc, state) in [(0, vec![i, i - 1], p0), (1, vec![i, i], goal)] {
                monitors[process].history.push(&Event {
                    process,
                    kind: dlrv_vclock::EventKind::Internal,
                    sn: i,
                    vc: VectorClock::from_entries(vc),
                    state,
                    time: i as f64,
                });
            }
        }
        let m0 = &mut monitors[0];
        let mut gv = m0.views[0].clone();
        gv.gstate = p0;
        let token = Token {
            property: 0,
            parent: 0,
            parent_gv: gv.id,
            transitions: m0.candidate_transitions(&gv, 1, 0),
        };
        assert_eq!(token.transitions.len(), 1, "one way to the goal");
        assert_eq!(token.transitions[0].conjuncts, [ConjunctEval::True, ConjunctEval::Unset]);
        (monitors, token)
    }

    /// [`staircase`] of one step on which `P1.p` never held, and `P1`'s one event has
    /// heard of a second event of `P0`: the cut lags at `P0`, the conjunct is still
    /// unset at `P1`, and `P1` has nothing further recorded.
    fn unanswered_and_lagging() -> ([DecentralizedMonitor; 2], Token) {
        let (mut monitors, token) = staircase(1);
        monitors[1].history = history_of_p1(vec![2, 1]);
        monitors[0].history.push(&local_event(2, Assignment::ALL_FALSE));
        (monitors, token)
    }

    /// The history of a `P1` that recorded one event, with clock `vc`, on which
    /// `P1.p` did not hold.
    fn history_of_p1(vc: Vec<u64>) -> LocalHistory {
        let mut history = LocalHistory::new(1, 2);
        history.push(&Event {
            process: 1,
            vc: VectorClock::from_entries(vc),
            ..local_event(1, Assignment::ALL_FALSE)
        });
        history
    }

    /// Delivers what `monitors[from]` left in `outbox` and every message that
    /// causes; returns the messages in delivery order as `(from, to, message)`.
    fn deliver(
        monitors: &mut [DecentralizedMonitor; 2],
        from: ProcessId,
        outbox: &mut Vec<(ProcessId, MonitorMsg)>,
    ) -> Vec<(ProcessId, ProcessId, MonitorMsg)> {
        let mut inflight: std::collections::VecDeque<_> =
            outbox.drain(..).map(|(to, msg)| (from, to, msg)).collect();
        let mut delivered = Vec::new();
        while let Some((from, to, msg)) = inflight.pop_front() {
            delivered.push((from, to, msg.clone()));
            let mut ctx = MonitorContext::new(to, 2, 0.0, outbox);
            monitors[to].on_monitor_message(from, msg, &mut ctx);
            inflight.extend(outbox.drain(..).map(|(dest, msg)| (to, dest, msg)));
        }
        delivered
    }

    /// Routes `token` from `monitors[from]` and delivers every message it causes;
    /// returns the messages in delivery order as `(from, to, token)`.
    fn tour(
        monitors: &mut [DecentralizedMonitor; 2],
        from: ProcessId,
        token: Token,
    ) -> Vec<(ProcessId, ProcessId, Token)> {
        let (mut staged, mut outbox) = (Staged::new(), Vec::new());
        monitors[from].route_token(token, &mut staged);
        monitors[from].flush(staged, &mut MonitorContext::new(from, 2, 0.0, &mut outbox));
        deliver(monitors, from, &mut outbox)
            .into_iter()
            .map(|(from, to, msg)| (from, to, only_token(msg)))
            .collect()
    }

    /// The one token `msg` carries.
    fn only_token(msg: MonitorMsg) -> Token {
        let [token] = <[Token; 1]>::try_from(msg.tokens).expect("one token, never a batch");
        token
    }

    /// A message of `token` alone.
    fn one(token: Token) -> MonitorMsg {
        MonitorMsg { tokens: vec![token] }
    }

    #[test]
    fn a_token_is_served_the_whole_recorded_suffix_in_one_visit() {
        const K: u64 = 6;
        let (mut monitors, token) = staircase(K);

        // The reference: the same events folded one sequence number per hop, in the
        // order the lowest-index-first routing visits them.
        let mut stepped = token.clone();
        let mut reference = monitors.clone();
        let mut hops = vec![(1, 1)];
        hops.extend((2..=K).flat_map(|sn| [(1, sn), (0, sn)]));
        for (process, sn) in hops {
            let tran = &mut stepped.transitions[0];
            (tran.next_target_process, tran.next_target_event) = (process, sn);
            reference[process].process_token_with_event(&mut stepped, sn, &mut { LATEST_RUN });
        }
        let stepped = &stepped.transitions[0];
        assert_eq!(stepped.eval, EvalState::Enabled);
        assert_eq!(stepped.gcut, VectorClock::from_entries(vec![K, K]));

        // One visit per process: out to `P1`, which serves events 1..=K, and home,
        // where `P0` catches up over 2..=K and enables the transition.
        let messages = tour(&mut monitors, 0, token);
        let route: Vec<_> = messages.iter().map(|(from, to, _)| (*from, *to)).collect();
        assert_eq!(route, [(0, 1), (1, 0)]);
        let [m0, m1] = &monitors;
        assert_eq!(m1.counters.history_events_served, K as usize);
        assert_eq!(m0.counters.history_events_served, K as usize - 1);
        assert_eq!((m0.counters.tokens_parked, m1.counters.tokens_parked), (0, 0));
        // The same decision: the enabled transition forked its view, at ⊤.
        let target = m0.automaton.transition(stepped.transition_id).to;
        assert_eq!(m0.automaton.verdict(target), Verdict::True);
        assert_eq!(m0.counters.global_views_created, 2);
        assert!(m0.detected_final_verdicts().contains(&Verdict::True));
    }

    #[test]
    fn a_token_walks_a_run_in_one_jump_to_its_last_event() {
        // `P1` has recorded one run of six events: it heard from nobody and `P1.p`
        // never held.  The token is served event 1, jumps to event 6 — the last
        // recorded, where the answer stops being known — and parks for event 7,
        // exactly as if it had been served all six.
        const K: u64 = 6;
        let (mut monitors, token) = staircase(1);
        let mut history = LocalHistory::new(1, 2);
        for sn in 1..=K {
            history.push(&Event {
                process: 1,
                vc: VectorClock::from_entries(vec![0, sn]),
                ..local_event(sn, Assignment::ALL_FALSE)
            });
        }
        assert_eq!(history.runs.len(), 3, "one record");
        monitors[1].history = history;
        assert_eq!(tour(&mut monitors, 0, token).len(), 1);
        let m1 = &monitors[1];
        assert_eq!(m1.counters.history_events_served, 2);
        assert_eq!(m1.counters.history_events_covered, K as usize);
        let [parked] = &m1.waiting_tokens.clone().take(K + 1)[..] else {
            panic!("the token parks for event {}", K + 1);
        };
        let tran = &parked.transitions[0];
        assert_eq!((tran.gcut.entries(), tran.depend.entries()), (&[1, K][..], &[1, K][..]));
        assert_eq!(tran.conjuncts, [ConjunctEval::True, ConjunctEval::Unset]);
    }

    #[test]
    fn a_token_whose_answer_is_not_recorded_leaves_or_parks_as_before() {
        // `P1` has recorded its first event only, `P1.p` did not hold, and `P1` is
        // still running.  Its conjunct stays unset and nothing else is owed: the
        // token parks for event 2, at `P1`.
        let (mut parks, token) = staircase(1);
        parks[1].history = history_of_p1(vec![1, 1]);
        assert_eq!(tour(&mut parks, 0, token).len(), 1);
        assert_eq!(parks[1].waiting_tokens.len(), 1);
        assert_eq!(parks[1].counters.tokens_parked, 1);
        assert_eq!(parks[1].waiting_tokens.take(2).len(), 1);

        // The event has heard of `P0`'s second: the token leaves to repair the cut
        // there, although `P1` still owes its conjunct — staying would park it early.
        let (mut monitors, token) = unanswered_and_lagging();
        let messages = tour(&mut monitors, 0, token);
        let (from, to, sent) = messages.last().expect("the token came back");
        assert_eq!((*from, *to), (1, 0));
        let tran = &sent.transitions[0];
        assert_eq!((tran.next_target_process, tran.next_target_event), (0, 2));
        assert_eq!(tran.conjuncts[1], ConjunctEval::Unset);
        assert_eq!(monitors[1].counters.tokens_parked, 0);
    }

    #[test]
    fn a_terminated_process_fails_its_own_targets_in_the_visit_that_finds_out() {
        // `P1` has terminated: no event of `P0` can make `P1` satisfy its conjunct.
        let (mut monitors, token) = unanswered_and_lagging();
        monitors[1].local_terminated = true;

        let messages = tour(&mut monitors, 0, token);
        let route: Vec<_> = messages.iter().map(|(from, to, _)| (*from, *to)).collect();
        assert_eq!(route, [(0, 1), (1, 0)], "no detour over `P0`'s second event");
        let failed = &messages[1].2.transitions[0];
        assert_eq!(failed.eval, EvalState::Disabled);
        assert_eq!(failed.conjuncts[1], ConjunctEval::False);
        let m1 = &monitors[1].counters;
        assert_eq!((m1.tokens_failed_at_termination, m1.tokens_sent_after_termination), (1, 1));
        assert_eq!(monitors[0].counters.history_events_served, 0);
    }

    /// `M0` and `M1` of `F (P0.p && P1.p)` under `opts`, the moment `M0`'s first
    /// token is due home.  `P0.p` held at all four events of `P0`, and all four had
    /// heard of `P1`'s first, which the initial view has not folded in: it took no
    /// step and made no fork, launched the token on the first event and waits with a
    /// backlog of three.  `P1` has terminated after two events, having heard nobody;
    /// `P1.p` held at the second if `p1_holds`.  Returns the monitors and the
    /// token's message, not yet delivered.
    fn backlog_of_three(
        opts: MonitorOptions,
        p1_holds: bool,
    ) -> ([DecentralizedMonitor; 2], Vec<(ProcessId, MonitorMsg)>) {
        let (_, [p0, p1]) = goal_monitor_of(0, opts);
        let mut monitors = [0, 1].map(|pid| goal_monitor_of(pid, opts).0);
        let mut outbox = Vec::new();
        for sn in 1..=4 {
            let mut ctx = MonitorContext::new(0, 2, sn as f64, &mut outbox);
            let heard = Event {
                vc: VectorClock::from_entries(vec![sn, 1]),
                ..local_event(sn, p0)
            };
            monitors[0].on_local_event(&heard, &mut ctx);
        }
        assert_eq!(outbox.len(), 1, "one exploration, launched on the first event");
        let owner = initial_view(&monitors[0]);
        assert_eq!((owner.state, owner.queued(4)), (GvState::Waiting, 3));
        for sn in 1..=2 {
            monitors[1].history.push(&Event {
                process: 1,
                kind: dlrv_vclock::EventKind::Internal,
                sn,
                vc: VectorClock::from_entries(vec![0, sn]),
                state: if p1_holds && sn == 2 { p1 } else { Assignment::ALL_FALSE },
                time: sn as f64,
            });
        }
        monitors[1].local_terminated = true;
        (monitors, outbox)
    }

    /// The view the monitor started with, wherever its forks have pushed it.
    fn initial_view(m: &DecentralizedMonitor) -> &GlobalView {
        m.views.iter().find(|gv| gv.id == 0).expect("the initial view")
    }

    /// What a monitor ended with: its views' exploration points (automaton state,
    /// cut, believed state, processing state), the views it ever created and the
    /// verdicts it detected.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        views: Vec<(usize, Vec<u64>, u64, GvState)>,
        views_created: usize,
        detected: BTreeSet<Verdict>,
    }

    fn outcome(m: &DecentralizedMonitor) -> Outcome {
        let mut views: Vec<_> = m
            .views
            .iter()
            .map(|gv| (gv.q, gv.gcut.entries().to_vec(), gv.gstate.0, gv.state))
            .collect();
        views.sort_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));
        Outcome {
            views,
            views_created: m.counters.global_views_created,
            detected: m.detected_final_verdicts(),
        }
    }

    #[test]
    fn a_terminated_monitor_sweeps_a_views_backlog_in_one_activation() {
        for opts in [MonitorOptions::default(), MonitorOptions::ALL_OFF] {
            for p1_holds in [false, true] {
                // One return at a time, as before the sweep: `M0` is still live, so
                // each return releases one queued event and its token has to come
                // home before the next is looked at.
                let (mut live, mut outbox) = backlog_of_three(opts, p1_holds);
                let mut swept = live.clone();
                let stepped = deliver(&mut live, 0, &mut outbox.clone());

                // The sweep: `M0` has terminated, the same return releases all three.
                let mut ctx = MonitorContext::new(0, 2, 5.0, &mut outbox);
                swept[0].on_local_termination(&mut ctx);
                let messages = deliver(&mut swept, 0, &mut outbox);

                let case = format!("{opts:?}, p1_holds={p1_holds}");
                assert_eq!(outcome(&swept[0]), outcome(&live[0]), "{case}");
                assert_eq!(swept[0].counters.backlog_events_drained, 3, "{case}");
                assert_eq!(live[0].counters.backlog_events_drained, 3, "{case}");
                assert_eq!(swept[0].detected_final_verdicts().len(), usize::from(p1_holds));
                assert!(swept[0].views.iter().all(GlobalView::is_unblocked), "{case}");
                assert!(swept[0].in_flight.is_empty() && live[0].in_flight.is_empty());

                let counts = |messages: &[(ProcessId, ProcessId, MonitorMsg)]| -> Vec<_> {
                    messages.iter().map(|(from, to, msg)| (*from, *to, msg.tokens.len())).collect()
                };
                if opts.aggregate_tokens && !p1_holds {
                    // `P1` fails every token: four round trips before, the first
                    // token's and one batch of three now.
                    assert_eq!(counts(&stepped), [(0, 1, 1), (1, 0, 1)].repeat(4));
                    assert_eq!(
                        counts(&messages),
                        [(0, 1, 1), (1, 0, 1), (0, 1, 3), (1, 0, 3)]
                    );
                    assert_eq!(swept[0].counters.token_batches_sent, 1);
                }
            }
        }
    }

    #[test]
    fn a_live_monitor_stops_draining_at_the_first_waiting_view() {
        let (mut monitors, mut outbox) = backlog_of_three(MonitorOptions::default(), false);
        let (from, msg) = (1, {
            // `P1`'s answer to the first token, by hand: it never satisfied `P1.p`.
            let (_, msg) = outbox.pop().expect("the token");
            let mut token = only_token(msg);
            token.transitions[0].eval = EvalState::Disabled;
            one(token)
        });
        let mut ctx = MonitorContext::new(0, 2, 5.0, &mut outbox);
        monitors[0].on_monitor_message(from, msg, &mut ctx);
        let m0 = &monitors[0];
        assert_eq!(m0.counters.backlog_events_drained, 1);
        assert_eq!(outbox.len(), 1, "the second event's token, alone");
        let owner = initial_view(m0);
        assert_eq!((owner.state, owner.queued(4)), (GvState::Waiting, 2));
    }

    #[test]
    fn in_flight_suppression_ends_with_the_local_program() {
        for terminated in [false, true] {
            let (mut m, p0) = goal_monitor(MonitorOptions::default());
            m.history.push(&local_event(1, p0));
            m.delivered = 1;
            m.local_terminated = terminated;
            // Some other view at the same automaton state has a token out.
            let mut gv = m.views.pop().expect("the initial view");
            m.exploration_launched(gv.q);
            let sn = gv.pop_queued(m.delivered).expect("event 1 is queued");
            let (mut staged, mut outbox) = (Staged::new(), Vec::new());
            let mut produced = Vec::new();
            m.process_event_on_view(gv, sn, &mut { LATEST_RUN }, &mut staged, &mut produced);
            m.flush(staged, &mut MonitorContext::new(0, 2, 1.0, &mut outbox));
            let view = produced.last().expect("the view itself comes last");
            if terminated {
                // No later event will revisit the question: the view asks itself.
                assert_eq!((view.state, outbox.len()), (GvState::Waiting, 1));
                assert_eq!(m.in_flight, [(view.q, 2)]);
            } else {
                assert_eq!((view.state, outbox.len()), (GvState::Unblocked, 0));
                assert_eq!(m.in_flight, [(view.q, 1)]);
            }
        }
    }

    #[test]
    fn in_flight_holds_no_entry_for_a_state_with_nothing_out() {
        let (mut m, _) = goal_monitor(MonitorOptions::default());
        m.exploration_launched(3);
        m.exploration_launched(5);
        m.exploration_launched(3);
        assert!(m.is_exploring(3) && m.is_exploring(5) && !m.is_exploring(4));
        m.exploration_over(3);
        assert!(m.is_exploring(3), "one of two is still out");
        m.exploration_over(3);
        m.exploration_over(4);
        assert_eq!(m.in_flight, [(5, 1)]);
        m.exploration_over(5);
        assert!(m.in_flight.is_empty());
    }

    #[test]
    fn a_token_awaiting_event_zero_goes_home_disabled_at_termination() {
        // Sequence numbers are 1-based: event 0 is never recorded.  A token asking
        // for it parks like any token asking for the future; termination used to
        // leave its transition standing and route it back to itself without end.
        let (mut monitors, mut token) = staircase(1);
        let tran = &mut token.transitions[0];
        (tran.next_target_process, tran.next_target_event) = (1, 0);
        let m1 = &mut monitors[1];
        let mut outbox = Vec::new();
        let mut ctx = MonitorContext::new(1, 2, 0.0, &mut outbox);
        m1.on_monitor_message(0, one(token), &mut ctx);
        assert_eq!((m1.waiting_tokens.len(), outbox.len()), (1, 0));

        let mut ctx = MonitorContext::new(1, 2, 1.0, &mut outbox);
        m1.on_local_termination(&mut ctx);
        assert!(m1.waiting_tokens.is_empty());
        let [(0, MonitorMsg { tokens })] = &outbox[..] else {
            panic!("the token goes home, alone: {outbox:?}");
        };
        let [home] = &tokens[..] else {
            panic!("the token goes home, alone: {tokens:?}");
        };
        assert_eq!(home.transitions[0].eval, EvalState::Disabled);
        assert_eq!(home.transitions[0].conjuncts[1], ConjunctEval::False);
        assert_eq!(m1.counters.tokens_failed_at_termination, 1);
    }

    #[test]
    fn a_fleet_member_holds_no_history_between_activations_and_is_still_served_it() {
        let (mut m0, [p0, _]) = goal_monitor_of(0, MonitorOptions::default());
        let member = crate::FleetMember {
            automaton: m0.automaton.clone(),
            registry: m0.registry.clone(),
            initial_state: Assignment::ALL_FALSE,
        };
        let mut fleet =
            crate::FleetMonitor::new(1, 2, &[member.clone(), member], MonitorOptions::default());
        let returned =
            |fleet: &crate::FleetMonitor| fleet.members().iter().all(|m| m.history.len() == 0);
        let mut outbox = Vec::new();

        // Local events: `P1` records two on which `P1.p` does not hold.
        for sn in 1..=2 {
            let event = Event {
                process: 1,
                vc: VectorClock::from_entries(vec![0, sn]),
                ..local_event(sn, Assignment::ALL_FALSE)
            };
            let mut ctx = MonitorContext::new(1, 2, sn as f64, &mut outbox);
            fleet.on_local_event(&event, &mut ctx);
            assert!(returned(&fleet), "after local event {sn}");
        }
        assert!(outbox.is_empty());

        // A message: `M0`'s token of the second property asks `P1` about `P1.p`.  The
        // member is served both recorded events and parks the token for a third.
        let mut ctx = MonitorContext::new(0, 2, 1.0, &mut outbox);
        m0.on_local_event(&local_event(1, p0), &mut ctx);
        let Some((1, msg)) = outbox.pop() else {
            panic!("`M0` asks `P1`");
        };
        let mut token = only_token(msg);
        token.property = 1;
        let mut ctx = MonitorContext::new(1, 2, 3.0, &mut outbox);
        fleet.on_monitor_message(0, one(token), &mut ctx);
        assert!(returned(&fleet), "after a message");
        let [idle, asked] = fleet.members() else {
            panic!("two members");
        };
        assert_eq!(idle.counters.history_events_served, 0);
        assert_eq!((asked.counters.history_events_served, asked.counters.tokens_parked), (2, 1));
        assert!(outbox.is_empty());

        // Termination: the parked token goes home failed.
        let mut ctx = MonitorContext::new(1, 2, 3.0, &mut outbox);
        fleet.on_local_termination(&mut ctx);
        assert!(returned(&fleet), "after termination");
        let [(0, MonitorMsg { tokens })] = &outbox[..] else {
            panic!("the token goes home, alone: {outbox:?}");
        };
        let [home] = &tokens[..] else {
            panic!("the token goes home, alone: {tokens:?}");
        };
        assert_eq!((home.property, home.transitions[0].eval), (1, EvalState::Disabled));
    }

    #[test]
    fn the_arena_is_leased_per_activation_and_parked_at_the_thread() {
        let feed = |opts| {
            let (mut m, p) = goal_monitor(opts);
            let mut outbox = Vec::new();
            let mut ctx = MonitorContext::new(0, 2, 1.0, &mut outbox);
            m.on_local_event(&local_event(1, p), &mut ctx);
            assert!(m.scratch.is_none(), "the lease ends with the activation");
        };
        // Arena off: this (fresh) thread's arena is never touched.
        feed(MonitorOptions {
            arena_recycling: false,
            ..MonitorOptions::default()
        });
        assert!(ARENA.with(Cell::take).is_none());
        // Arena on: it is back at the thread for the next monitor to lease.
        feed(MonitorOptions::default());
        assert!(ARENA.with(Cell::take).is_some());
    }
}
