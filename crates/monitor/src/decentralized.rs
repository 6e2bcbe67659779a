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
//!   same peer during one monitor call (one local event, one received message, one
//!   termination) is staged and flushed as a single [`MonitorMsg`], so the
//!   number of *monitoring messages* is bounded by the number of destination
//!   processes per call, not by the number of explorations.  Activations deal in
//!   tokens only: each [`MonitorBehavior`] call of a [`DecentralizedMonitor`] or a
//!   [`FleetMonitor`](crate::FleetMonitor) ends with the one flush that turns the
//!   tokens its activations staged into messages (`LocalProcess::flush`).
//! * **Duplicate-global-view avoidance** (§4.3.2, `dedup_global_views`) — a returned
//!   token never forks a view whose exploration point ([`GlobalView::same_slice`]:
//!   automaton state + frontier + believed global state) already exists, and a view
//!   does not launch a token for an automaton state that already has an exploration
//!   in flight.  Both this check and the merge of converged views are one scan of
//!   the live view set (view counts are bounded by the lattice width).
//! * **Disjunctive-transition pruning** (§4.3.3, `prune_disjunctive`) — once some
//!   transition into a target state is enabled, sibling candidates into the same
//!   target are dropped; and candidates whose target is a ⊤/⊥ verdict state this
//!   monitor already knows — detected by a sibling view, or learnt from a peer's
//!   token ([`Token::known`]) — are never explored at all: the exploration could
//!   only re-derive a known verdict.
//!
//! The flags are meant to change only the message, queueing and memory cost — the
//! quantities `--target overhead` reports — and not the verdicts, and the
//! repository's `stream_equivalence`, `overhead_regression` and
//! soundness/completeness suites compare verdicts across flag combinations.  The
//! claim has known exceptions: the soundness/completeness suite lists a
//! random-LTL case on which the default suite misses a reachable ⊥ that all-off
//! finds (`KNOWN_OPTION_DEPENDENT` in `tests/soundness_completeness.rs`) and pins
//! a two-process session on which §4.3.3 off misses a reachable ⊤, and its
//! oracle ledger keeps a ceiling per option set, property D's differing
//! (docs/MONITORING.md, "Open findings").

use crate::global_view::{narrow_state, GlobalView, GvState};
use crate::messages::{
    block_words, ConjunctEval, EvalState, MonitorMsg, Token, TokenTransition, WaitingTokens,
};
use crate::metrics::MonitorMetrics;
use dlrv_automaton::{MonitorAutomaton, SymbolicTransition};
use dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_ltl::{Assignment, AtomRegistry, ProcessId, Verdict, Verdicts};
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
    /// target verdict a sibling view already detected or a peer's token reported.
    pub prune_disjunctive: bool,
    /// Ignored: every activation leases the thread's scratch arena (see
    /// `Scratch`).  The field is kept only because the repository benchmark's
    /// hot-path probe still sets it; every constructor here sets it to `true`.
    pub arena_recycling: bool,
}

impl MonitorOptions {
    /// Every optimization disabled — the `--no-opt` baseline of the overhead
    /// benchmarks.
    pub const ALL_OFF: MonitorOptions = MonitorOptions {
        aggregate_tokens: false,
        dedup_global_views: false,
        prune_disjunctive: false,
        arena_recycling: true,
    };

    /// All 8 settings of the three switches, for exhaustive equivalence testing.
    pub fn all_combinations() -> [MonitorOptions; 8] {
        let mut out = [MonitorOptions::ALL_OFF; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = MonitorOptions {
                aggregate_tokens: i & 1 != 0,
                dedup_global_views: i & 2 != 0,
                prune_disjunctive: i & 4 != 0,
                ..MonitorOptions::ALL_OFF
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

/// Recycled allocation pools of the event hot path: retired global views, view
/// cuts, token transition blocks and view-set staging vectors are reused instead
/// of reallocated per event.  Every buffer is cleared or overwritten before reuse, so
/// recycling is observationally invisible, and a buffer retired by one session (of
/// any process count) can serve the next.
///
/// There is one arena per thread, not per monitor: an [`Activation`] holds it on
/// lease ([`Activation::start`]) and no monitor owns a pool or a lease in
/// between.  A session of a few dozen events never amortises pools of
/// its own; a shard thread running thousands of sessions keeps this one hot.
///
/// Scratch lives here or on the stack of one activation, never in a monitor or a
/// session: at the end of every activation the view set is held at exactly its
/// length and the buffer it was rebuilt in comes back here, and a token is parked
/// with exactly its transitions ([`PropertyMonitor::parks_no_spare`]).  The
/// message queue and outboxes of a session call are leased from here too
/// ([`lease_outbox`], [`lease_queue`]), and the tokens a monitor call stages wait
/// here for its flush.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Spare view-set vectors (merge staging, per-event rebuild, fork outputs).
    view_bufs: Vec<Vec<GlobalView>>,
    /// Spare vector clocks for the cuts of forked and spawned views (a retired
    /// view's cut comes back here too).  Only a clock of four or more entries
    /// owns a heap block, so only at four or more processes does the pool save
    /// an allocation; a shorter clock is inline and a pooled one is a plain copy.
    clocks: Vec<VectorClock>,
    /// Spare token transition blocks (a decided transition's only allocation).
    blocks: Vec<Box<[u64]>>,
    /// Spare candidate-transition vectors (token payloads).
    transitions: Vec<Vec<TokenTransition>>,
    /// Output buffer of the batched clock comparisons in the merge scan.
    ord: Vec<Option<std::cmp::Ordering>>,
    /// Index buffer of `process_token_with_event`.
    targeted: Vec<usize>,
    /// Result buffer of `process_token_with_event`.
    local_results: Vec<(usize, bool)>,
    /// The tokens a monitor call's activations send, until its flush.
    staged: Staged,
    /// Spare outboxes of session calls.
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

/// The tokens one monitor call sends, `(destination, token)` in emission order —
/// a fleet's members in activation order — held in the thread's arena until
/// [`LocalProcess::flush`] ends the call and turns them into messages.
type Staged = Vec<(ProcessId, Token)>;

/// Messages in flight within one session call: `(sender, destination, message)`.
pub(crate) type MessageQueue = VecDeque<(ProcessId, ProcessId, MonitorMsg)>;

/// Runs `f` on this thread's arena.  For callers outside any monitor activation —
/// a session call, the flush that ends a monitor call — so the arena is not on
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

/// Hands `items` to `f` run by run: sorted stably by `key`, each run of one key
/// drained in ascending key order, its items in their order.  Leaves `items`
/// empty.  The one grouping of §4.3.1: a flush groups staged tokens by
/// destination, a fleet groups a received message's tokens by monitor.
pub(crate) fn drain_runs<T, K: Ord + Copy>(
    items: &mut Vec<T>,
    key: impl Fn(&T) -> K,
    mut f: impl FnMut(K, std::vec::Drain<'_, T>),
) {
    items.sort_by_key(&key);
    while let Some(k) = items.first().map(&key) {
        let run = items.partition_point(|item| key(item) == k);
        f(k, items.drain(..run));
    }
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

/// The largest clock entry a monitor can record: its history stores a clock entry
/// in at most four bytes.  [`check_next_event`](crate::check_next_event)
/// refuses an event with a larger entry, and a history asserts it never records one.
pub const MAX_CLOCK_ENTRY: u64 = u32::MAX as u64;

/// The local event history (`history` in Algorithm 2), stored by runs.  A run is a
/// maximal stretch of consecutive events with one local state and one set of
/// remote clock entries; the process's own entry of an event's clock is its
/// sequence number, so it is never stored per event.  Each run is one record of
/// `n·w + 8` bytes in one vector: the clock of the run's first event, each entry
/// `w` bytes wide — whose own entry, the run's first sequence number, is the
/// record's search key — then the state's 8 bytes.  The width `w` is the narrowest
/// of 1, 2 and 4 bytes that holds every entry recorded so far; the first entry that
/// needs more re-encodes the records once at the wider width.  The token path and
/// the views read an event's clock and state, nothing else, so nothing else is
/// kept — and the views' queues of buffered events are cursors into this history
/// ([`GlobalView::next_sn`]) rather than copies of it.
///
/// A history belongs to a *process*, not to a property: it lives in the
/// process's [`LocalProcess`], which the monitors a
/// [`FleetMonitor`](crate::FleetMonitor) attaches to one process all borrow by `&`
/// for their activations.
#[derive(Debug, Clone)]
pub(crate) struct LocalHistory {
    /// The process whose events these are.
    pid: u32,
    n: u32,
    /// Bytes per stored clock entry: 1, 2 or 4.
    width: u8,
    /// Number of recorded events, i.e. the sequence number of the latest one.
    len: u64,
    /// The run records, `n·w + 8` bytes each, in sequence-number order.
    runs: Vec<u8>,
}

/// A run cursor that starts at the latest run: where [`LocalHistory::run`] looks
/// first when nothing has been read yet.
const LATEST_RUN: usize = usize::MAX;

/// The bytes of a record's state, after its clock.
const STATE_BYTES: usize = 8;

/// The narrowest entry width, in bytes, that holds `entry`.
fn width_for(entry: u64) -> u8 {
    match entry {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        _ => 4,
    }
}

/// The clock entry `width` bytes wide at byte `at` of `records`: a four-byte load
/// cut to the width, with no branch on it.  A clock is followed by its record's
/// state bytes, so the load never leaves the record.
#[inline(always)]
fn entry_at(records: &[u8], at: usize, width: u8) -> u64 {
    let word = u32::from_le_bytes(records[at..at + 4].try_into().expect("four bytes"));
    u64::from(word & (u32::MAX >> (32 - 8 * u32::from(width))))
}

/// Appends `entry`'s low `width` bytes to `records`.
fn put_entry(records: &mut Vec<u8>, entry: u64, width: u8) {
    records.extend_from_slice(&(entry as u32).to_le_bytes()[..usize::from(width)]);
}

/// One run of a [`LocalHistory`]: every event from the one the clock of `record`
/// belongs to through `last` has `state` and that clock's remote entries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<'a> {
    pid: ProcessId,
    /// Where the run's record starts in [`LocalHistory::runs`], in bytes.
    at: usize,
    /// The run's whole record: the clock of its first event, then the state.
    record: &'a [u8],
    /// Bytes per clock entry.
    width: u8,
    state: Assignment,
    /// The sequence number of the run's last recorded event.
    last: u64,
}

impl Run<'_> {
    /// Where to look for event `sn` of a walk from (see [`LocalHistory::run`]):
    /// this run, or the next when `sn` is past this one.
    fn cursor_for(&self, sn: u64) -> usize {
        if sn > self.last {
            self.at + self.record.len()
        } else {
            self.at
        }
    }

    /// Entry `j` of the clock of the run's first event.
    #[inline(always)]
    fn entry(&self, j: usize) -> u64 {
        entry_at(self.record, j * usize::from(self.width), self.width)
    }

    /// Merges the clock of event `sn`, an event of this run, into the clock
    /// entries `vc`.
    fn merge_clock_into(&self, sn: u64, vc: &mut [u64]) {
        for (j, entry) in vc.iter_mut().enumerate() {
            *entry = (*entry).max(self.entry(j));
        }
        vc[self.pid] = vc[self.pid].max(sn);
    }
}

impl LocalHistory {
    pub(crate) fn new(pid: ProcessId, n: usize) -> Self {
        LocalHistory {
            pid: u32::try_from(pid).expect("a process index fits in 32 bits"),
            n: u32::try_from(n).expect("a process count fits in 32 bits"),
            width: 1,
            len: 0,
            runs: Vec::new(),
        }
    }

    /// Number of recorded events, i.e. the sequence number of the latest one.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The bytes of one record at the current width.
    fn record_len(&self) -> usize {
        self.n as usize * usize::from(self.width) + STATE_BYTES
    }

    /// The search key (the own clock entry) of the record at byte `at`.
    #[inline(always)]
    fn key(&self, at: usize) -> u64 {
        entry_at(
            &self.runs,
            at + self.pid as usize * usize::from(self.width),
            self.width,
        )
    }

    /// Records the process's next event: a new run when its state or a remote
    /// entry of its clock differs from the latest run's, nothing but the count
    /// otherwise.  A remote entry past the current width differs from every
    /// stored one, so it always reaches the new-run path, which widens the
    /// records to hold it — or refuses it past [`MAX_CLOCK_ENTRY`]: no stored
    /// entry is ever truncated.
    ///
    /// The first record allocates `max(8n, 32)` bytes: the size class a record
    /// of `u64` words first took, so the allocator serves a history's first block
    /// from the size class it always has.  The vector doubles after that.
    pub(crate) fn push(&mut self, event: &Event) {
        let (n, pid, sn) = (self.n as usize, self.pid as usize, self.len + 1);
        debug_assert_eq!(event.vc.len(), n);
        debug_assert_eq!(
            (event.sn, event.vc.get(pid)),
            (sn, sn),
            "events arrive in sequence"
        );
        let vc = event.vc.entries();
        let continues = self.len > 0 && {
            let latest = self.run(self.len, LATEST_RUN);
            latest.state == event.state && (0..n).all(|j| j == pid || latest.entry(j) == vc[j])
        };
        if !continues {
            let widest = vc.iter().copied().max().unwrap_or(0);
            assert!(
                widest <= MAX_CLOCK_ENTRY,
                "event {sn} of process {pid} has a clock entry past {MAX_CLOCK_ENTRY}: {vc:?}"
            );
            self.widen(width_for(widest));
            if self.runs.capacity() == 0 {
                self.runs.reserve_exact((8 * n).max(32));
            }
            for &e in vc {
                put_entry(&mut self.runs, e, self.width);
            }
            self.runs.extend_from_slice(&event.state.0.to_le_bytes());
        }
        self.len = sn;
    }

    /// Re-encodes the records at `width` bytes per clock entry when that is wider
    /// than the current width; an empty history only takes the width.
    fn widen(&mut self, width: u8) {
        if width <= self.width {
            return;
        }
        let (n, old, from) = (self.n as usize, self.record_len(), self.width);
        self.width = width;
        if self.runs.is_empty() {
            return;
        }
        let mut runs = Vec::with_capacity((self.runs.len() / old + 1) * self.record_len());
        for record in self.runs.chunks_exact(old) {
            for j in 0..n {
                put_entry(
                    &mut runs,
                    entry_at(record, j * usize::from(from), from),
                    width,
                );
            }
            runs.extend_from_slice(&record[old - STATE_BYTES..]);
        }
        self.runs = runs;
    }

    /// The run holding event `sn` (1-based, recorded), looked for from the record
    /// at byte `from`: where an earlier read of the same walk or view queue left
    /// off ([`Run::cursor_for`]), or [`LATEST_RUN`] for the latest record, where
    /// fresh events are read.  The runs from there on are stepped through; the ones
    /// before it are binary-searched on their keys.  Every token visit and view
    /// event reads through here, so it is inlined (left to itself the compiler
    /// called it, and the call cost more than the walk saved); the search is not.
    #[inline(always)]
    pub(crate) fn run(&self, sn: u64, from: usize) -> Run<'_> {
        debug_assert!((1..=self.len).contains(&sn));
        let (rec, end) = (self.record_len(), self.runs.len());
        let mut at = from.min(end - rec);
        if self.key(at) > sn {
            at = self.search(sn, at);
        } else {
            while at + rec < end && self.key(at + rec) <= sn {
                at += rec;
            }
        }
        let record = &self.runs[at..at + rec];
        let state = record[rec - STATE_BYTES..].try_into().expect("eight bytes");
        Run {
            pid: self.pid as usize,
            at,
            record,
            width: self.width,
            state: Assignment(u64::from_le_bytes(state)),
            last: if at + rec < end {
                self.key(at + rec) - 1
            } else {
                self.len
            },
        }
    }

    /// The last record before byte `past` whose key is not past `sn`, halving
    /// without a branch on the comparison.  Every run holds at least one event, so
    /// that record is among the `len - sn` before `past` and among the first `sn`:
    /// a recent event is found in a few steps.
    #[inline(never)]
    fn search(&self, sn: u64, past: usize) -> usize {
        let rec = self.record_len();
        let past = past / rec;
        let mut base = past.saturating_sub((self.len - sn) as usize);
        let mut left = past.min(sn as usize) - base;
        while left > 1 {
            let half = left / 2;
            if self.key((base + half) * rec) <= sn {
                base += half;
            }
            left -= half;
        }
        base * rec
    }
}

/// What a monitor counts as it runs: the fields of [`MonitorMetrics`] of the same
/// names.  The rest of a snapshot — the events observed, the views alive now, the
/// verdicts detected and still possible — is read off the monitor and its process
/// when [`PropertyMonitor::metrics`] takes it, so no set is kept here.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    tokens_sent: usize,
    tokens_received: usize,
    global_views_created: usize,
    max_live_views: usize,
    queued_events_sum: usize,
    history_events_served: usize,
    history_events_covered: usize,
    tokens_parked: usize,
    tokens_failed_at_termination: usize,
    backlog_events_drained: usize,
    tokens_sent_after_termination: usize,
    last_activity_time: f64,
}

/// A monitor's [`MonitorMetrics`] at `process`: its counters, the views alive now
/// (`live`), the verdicts detected and still possible, and what the process
/// recorded.  Every recorded event is observed, and its queue sampled, exactly
/// once, in the activation it was recorded for, so both counts are the history's
/// length.
fn snapshot(
    c: Counters,
    live: usize,
    detected: Verdicts,
    possible_verdicts: Verdicts,
    process: &LocalProcess,
) -> MonitorMetrics {
    let events = process.history.len();
    MonitorMetrics {
        tokens_sent: c.tokens_sent,
        tokens_received: c.tokens_received,
        global_views_created: c.global_views_created,
        max_live_views: c.max_live_views.max(live),
        events_observed: events,
        queued_events_sum: c.queued_events_sum,
        queued_events_samples: events,
        history_events_served: c.history_events_served,
        history_events_covered: c.history_events_covered,
        tokens_parked: c.tokens_parked,
        tokens_failed_at_termination: c.tokens_failed_at_termination,
        backlog_events_drained: c.backlog_events_drained,
        tokens_sent_after_termination: c.tokens_sent_after_termination,
        last_event_time: process.last_event_time,
        last_activity_time: c.last_activity_time,
        detected_final_verdicts: detected,
        possible_verdicts,
    }
}

/// What a monitor keeps for its *process*, whatever property it decides: the
/// history, whether the local program has terminated, the options and when the
/// latest local event was recorded.  A [`DecentralizedMonitor`] is one of these and
/// one [`PropertyMonitor`]; a [`FleetMonitor`](crate::FleetMonitor) is one of these
/// and a monitor per open question, so the process's part is held once per process.
#[derive(Debug, Clone)]
pub(crate) struct LocalProcess {
    /// Local event history (`history` in Algorithm 2), which also knows the process
    /// and the number of processes.
    history: LocalHistory,
    /// Optimization switches, the same for every member.
    opts: MonitorOptions,
    /// Whether the local program has terminated.
    local_terminated: bool,
    /// The time of the latest local event.
    last_event_time: f64,
}

impl LocalProcess {
    pub(crate) fn new(pid: ProcessId, n_processes: usize, opts: MonitorOptions) -> Self {
        LocalProcess {
            history: LocalHistory::new(pid, n_processes),
            opts,
            local_terminated: false,
            last_event_time: 0.0,
        }
    }

    /// The process these events are of.
    pub(crate) fn pid(&self) -> ProcessId {
        self.history.pid as usize
    }

    /// Number of processes.
    pub(crate) fn n(&self) -> usize {
        self.history.n as usize
    }

    /// How many events of the process have been recorded.
    pub(crate) fn events_recorded(&self) -> u64 {
        self.history.len
    }

    /// Records the process's next event, which arrived at `now`: all a monitor
    /// keeps of it is its clock and state, and only when they start a new run.
    pub(crate) fn record(&mut self, event: &Event, now: f64) {
        self.history.push(event);
        self.last_event_time = now;
    }

    /// Notes that the local program has ended: no further event will be recorded.
    pub(crate) fn terminate(&mut self) {
        self.local_terminated = true;
    }

    /// Ends a monitor call of this process: sends every token its activations
    /// staged.  With token aggregation on (§4.3.1), one message per destination in
    /// ascending destination order, each holding its tokens in staged order — so a
    /// fleet's message carries its members' tokens member-major; with it off, one
    /// message per token, in staged order.
    pub(crate) fn flush(&self, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        let aggregate = self.opts.aggregate_tokens;
        with_arena(|s| {
            if aggregate {
                drain_runs(
                    &mut s.staged,
                    |&(dest, _)| dest,
                    |dest, run| {
                        let tokens = run.map(|(_, token)| token).collect();
                        ctx.send(dest, MonitorMsg { tokens });
                    },
                );
            } else {
                for (dest, token) in s.staged.drain(..) {
                    let tokens = vec![token];
                    ctx.send(dest, MonitorMsg { tokens });
                }
            }
        });
    }
}

/// What a monitor keeps for its *property*: the automaton replica, the views, the
/// parked tokens, the explorations in flight, the verdicts detected and the
/// counters — everything a property decides, and nothing its process records.  It
/// reads its process's part (`LocalProcess`: history, termination, options) by `&`
/// for the length of each activation, and deals in tokens only: what an
/// activation sends is staged for the process's flush.
#[derive(Debug, Clone)]
pub struct PropertyMonitor {
    /// The monitor index stamped on every token this monitor emits: `0` in
    /// single-property runs, assigned by [`FleetMonitor`](crate::FleetMonitor)
    /// when several properties share one transport (one index per monitor it
    /// holds, so per distinct open question, not per member).
    property: u32,
    /// The shared monitor automaton replica.
    automaton: Arc<MonitorAutomaton>,
    /// Shared atom registry (for conjunct ownership).
    registry: Arc<AtomRegistry>,
    /// Tokens waiting for a future local event (`w_tokens`).
    waiting_tokens: WaitingTokens,
    /// The set of global views (`GV`) that can still move: a view that reaches ⊤ or
    /// ⊥ is retired on the spot and never held here.
    views: Vec<GlobalView>,
    /// Next fresh global-view identifier.
    next_gv_id: u64,
    /// The ⊤/⊥ verdicts of the views retired so far.
    detected: Verdicts,
    /// The ⊤/⊥ verdicts peer monitors detected, as their tokens told this one
    /// ([`Token::known`]).  Never reported: only `detected` was derived here.
    learned: Verdicts,
    /// Number of tokens currently in flight per originating automaton state (used by
    /// the §4.3.2 optimization to avoid launching duplicate explorations), the
    /// state's id narrowed to 32 bits ([`narrow_state`]).  A state with no token
    /// out has no entry, and with no entry at all the buffer is released, so an
    /// idle monitor holds nothing here.
    in_flight: Vec<(u32, u32)>,
    /// What this monitor has counted so far.
    counters: Counters,
}

impl PropertyMonitor {
    /// INIT (Algorithm 1) of the monitor of property `property` at one of
    /// `n_processes` processes: its initial global view, already advanced over the
    /// initial global state — or no view at all when that state is already ⊤ or ⊥:
    /// the verdict is recorded and the view retired, as every view that reaches one
    /// is.
    pub(crate) fn new(
        property: u32,
        n_processes: usize,
        automaton: Arc<MonitorAutomaton>,
        registry: Arc<AtomRegistry>,
        initial_gstate: Assignment,
    ) -> Self {
        let q0 = automaton.step(automaton.initial, initial_gstate);
        let mut detected = Verdicts::EMPTY;
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
        PropertyMonitor {
            property,
            automaton,
            registry,
            waiting_tokens: WaitingTokens::new(),
            views,
            next_gv_id: 1,
            detected,
            learned: Verdicts::EMPTY,
            in_flight: Vec::new(),
            counters,
        }
    }

    /// The verdict INIT's view reaches at once over `initial_gstate`, if that is
    /// already ⊤ or ⊥.  Such a monitor holds no view, so it never sends a token
    /// nor gets one: its process's events and termination only move its activity
    /// time ([`decided_at_open_metrics`](Self::decided_at_open_metrics)).
    pub(crate) fn decided_at_open(
        automaton: &MonitorAutomaton,
        initial_gstate: Assignment,
    ) -> Option<Verdict> {
        let q0 = automaton.step(automaton.initial, initial_gstate);
        automaton.is_final(q0).then(|| automaton.verdict(q0))
    }

    /// The snapshot a monitor [decided at open](Self::decided_at_open) on
    /// `verdict` would take at `process`, its latest activation at
    /// `last_activity_time`: INIT's counters, and what the process recorded.
    pub(crate) fn decided_at_open_metrics(
        process: &LocalProcess,
        verdict: Verdict,
        last_activity_time: f64,
    ) -> MonitorMetrics {
        let detected = Verdicts::from(verdict);
        let counters = Counters {
            global_views_created: 1,
            last_activity_time,
            ..Counters::default()
        };
        snapshot(counters, 0, detected, detected, process)
    }

    /// The live global views — the ones that can still move; none is at ⊤ or ⊥.
    pub fn views(&self) -> &[GlobalView] {
        &self.views
    }

    /// The set of verdicts currently considered possible (one per global view),
    /// plus any ⊤/⊥ verdict that was detected along the way.
    pub fn possible_verdicts(&self) -> Verdicts {
        let mut set = self.detected;
        set.extend(
            self.views
                .iter()
                .map(|gv| self.automaton.verdict(gv.automaton_state())),
        );
        set
    }

    /// ⊤/⊥ verdicts this monitor has detected.
    pub fn detected_final_verdicts(&self) -> Verdicts {
        self.detected
    }

    /// A snapshot of this monitor's metrics at `process`: its counters, what its
    /// views and detected verdicts say now, and what the process recorded.
    pub(crate) fn metrics(&self, process: &LocalProcess) -> MonitorMetrics {
        let live = self.views.len();
        snapshot(
            self.counters,
            live,
            self.detected,
            self.possible_verdicts(),
            process,
        )
    }

    /// Whether this monitor holds monitoring state only: a view set at exactly its
    /// length, parked tokens holding exactly their transitions, and no allocation
    /// for parked tokens when none is ([`WaitingTokens`]) nor for in-flight counts
    /// when no token is out.  True between activations: [`Activation::end`] and
    /// [`exploration_over`](Self::exploration_over) make it so.
    pub(crate) fn parks_no_spare(&self) -> bool {
        self.views.capacity() == self.views.len()
            && self.waiting_tokens.parks_no_spare()
            && (!self.in_flight.is_empty() || self.in_flight.capacity() == 0)
    }

    /// Updates the peak-live-view count (the §4.3 memory-overhead measurement).
    fn note_view_peak(&mut self) {
        debug_assert!(
            self.views
                .iter()
                .all(|gv| !self.automaton.is_final(gv.automaton_state())),
            "a view at ⊤ or ⊥ is retired, never held"
        );
        self.counters.max_live_views = self.counters.max_live_views.max(self.views.len());
    }

    /// Whether an exploration launched from automaton state `q` is still out.
    fn is_exploring(&self, q: dlrv_automaton::StateId) -> bool {
        let q = narrow_state(q);
        self.in_flight.iter().any(|&(state, _)| state == q)
    }

    /// Counts one more token out for automaton state `q`.
    fn exploration_launched(&mut self, q: dlrv_automaton::StateId) {
        let q = narrow_state(q);
        match self.in_flight.iter_mut().find(|(state, _)| *state == q) {
            Some((_, count)) => *count += 1,
            None => self.in_flight.push((q, 1)),
        }
    }

    /// Counts one token of automaton state `q` home and decided.  The last one
    /// home releases the buffer, as [`WaitingTokens::take`] does.
    fn exploration_over(&mut self, q: dlrv_automaton::StateId) {
        let q = narrow_state(q);
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

    /// RECEIVEEVENT (Algorithm 2) for the latest event of `process`, just recorded
    /// ([`LocalProcess::record`]) at `now`.  Its tokens parked on the event are
    /// woken before its views are offered the event.
    pub(crate) fn on_recorded_event(&mut self, process: &LocalProcess, now: f64) {
        let sn = process.events_recorded();
        Activation::start(process, self, sn - 1).receive_event(sn, now);
    }

    /// RECEIVETOKEN for every token of `tokens`, received at `now`: the tokens of
    /// one message bound for this monitor, in their order.
    pub(crate) fn on_tokens(
        &mut self,
        process: &LocalProcess,
        tokens: std::vec::Drain<'_, Token>,
        now: f64,
    ) {
        let delivered = process.events_recorded();
        Activation::start(process, self, delivered).receive_tokens(tokens, now);
    }

    /// TERMINATE (§4.2.0.10) once `process` has [terminated](LocalProcess::terminate)
    /// at `now`.
    pub(crate) fn on_local_termination(&mut self, process: &LocalProcess, now: f64) {
        debug_assert!(process.local_terminated);
        let delivered = process.events_recorded();
        Activation::start(process, self, delivered).terminate(now);
    }
}

/// A decentralized monitor process `Mi` (Algorithm 1): its process's part and the
/// monitor of its one property.
///
/// It holds only what outlives an activation: the history, the views, the parked
/// tokens, the explorations in flight, the verdicts detected and the counters.
#[derive(Debug, Clone)]
pub struct DecentralizedMonitor {
    process: LocalProcess,
    member: PropertyMonitor,
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
        DecentralizedMonitor {
            process: LocalProcess::new(pid, n_processes, opts),
            member: PropertyMonitor::new(0, n_processes, automaton, registry, initial_gstate),
        }
    }

    /// The process index this monitor is attached to.
    pub fn process_id(&self) -> ProcessId {
        self.process.pid()
    }

    /// How many events of its process this monitor has recorded.
    pub fn events_recorded(&self) -> u64 {
        self.process.events_recorded()
    }

    /// The live global views — the ones that can still move; none is at ⊤ or ⊥.
    pub fn views(&self) -> &[GlobalView] {
        self.member.views()
    }

    /// The set of verdicts currently considered possible (one per global view),
    /// plus any ⊤/⊥ verdict that was detected along the way.
    pub fn possible_verdicts(&self) -> Verdicts {
        self.member.possible_verdicts()
    }

    /// ⊤/⊥ verdicts this monitor has detected.
    pub fn detected_final_verdicts(&self) -> Verdicts {
        self.member.detected_final_verdicts()
    }

    /// A snapshot of this monitor's metrics: its counters, and what its views and
    /// detected verdicts say now.
    pub fn metrics(&self) -> MonitorMetrics {
        self.member.metrics(&self.process)
    }

    /// Whether this monitor holds monitoring state only (see
    /// [`PropertyMonitor::parks_no_spare`]).
    #[cfg(test)]
    pub(crate) fn parks_no_spare(&self) -> bool {
        self.member.parks_no_spare()
    }
}

impl MonitorBehavior for DecentralizedMonitor {
    type Message = MonitorMsg;

    fn on_local_event(&mut self, event: &Event, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        self.process.record(event, ctx.now);
        self.member.on_recorded_event(&self.process, ctx.now);
        self.process.flush(ctx);
    }

    fn on_monitor_message(
        &mut self,
        _from: ProcessId,
        msg: MonitorMsg,
        ctx: &mut MonitorContext<'_, MonitorMsg>,
    ) {
        let mut tokens = msg.tokens;
        self.member
            .on_tokens(&self.process, tokens.drain(..), ctx.now);
        self.process.flush(ctx);
    }

    /// TERMINATE (§4.2.0.10).  Termination is local: no peer is told, because a
    /// token that arrives later asking for an event this process never produced is
    /// failed on arrival (`advance_local_token`).
    fn on_local_termination(&mut self, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        self.process.terminate();
        self.member.on_local_termination(&self.process, ctx.now);
        self.process.flush(ctx);
    }
}

/// One activation of a [`PropertyMonitor`] — a local event, a received message or
/// the local termination.  It borrows the monitor's process by `&` (the members of
/// a fleet all read the one history) and holds what lives for the activation
/// alone: the thread's scratch arena on lease, into whose staging vector it
/// sends its tokens for the process's [flush](LocalProcess::flush).
struct Activation<'a> {
    process: &'a LocalProcess,
    member: &'a mut PropertyMonitor,
    /// How many events of the history have been offered to the views: a view's
    /// queue of buffered events is `history[next_sn ..= delivered]`.  The history's
    /// length, except while the tokens parked on a fresh event are woken, which
    /// Algorithm 2 does before the views get that event.
    delivered: u64,
    /// The thread's arena on lease.
    scratch: Box<Scratch>,
}

impl<'a> Activation<'a> {
    /// Starts an activation of `member` at `process` with `delivered` events
    /// offered to its views: takes the thread's arena on lease.
    fn start(process: &'a LocalProcess, member: &'a mut PropertyMonitor, delivered: u64) -> Self {
        Activation {
            process,
            member,
            delivered,
            scratch: ARENA.with(Cell::take).unwrap_or_default(),
        }
    }

    /// Ends the activation: the view set is held at exactly its length — the
    /// buffer the activation rebuilt it in goes back to the pool — and the arena,
    /// with the tokens staged in it, goes back to the thread.
    fn end(mut self) {
        let spare = exact(&mut self.member.views);
        self.put_view_buf(spare);
        ARENA.with(|slot| slot.set(Some(self.scratch)));
        debug_assert!(self.member.parks_no_spare());
    }

    /// The process this activation's monitor is attached to.
    fn pid(&self) -> ProcessId {
        self.process.pid()
    }

    /// Number of processes.
    fn n(&self) -> usize {
        self.process.n()
    }

    // ------------------------------------------------------------------
    // Scratch pools (the leased arena)
    // ------------------------------------------------------------------

    /// An empty view-set vector from the pool.
    fn take_view_buf(&mut self) -> Vec<GlobalView> {
        self.scratch.view_bufs.pop().unwrap_or_default()
    }

    /// Returns a view-set vector to the pool (dropped when the pool is full, or
    /// when it holds no allocation to reuse).
    fn put_view_buf(&mut self, mut buf: Vec<GlobalView>) {
        if buf.capacity() > 0 && self.scratch.view_bufs.len() < POOL_CAP {
            buf.clear();
            self.scratch.view_bufs.push(buf);
        }
    }

    /// An empty transition vector for token payloads.
    fn take_transition_buf(&mut self) -> Vec<TokenTransition> {
        self.scratch.transitions.pop().unwrap_or_default()
    }

    /// Returns a (drained) transition vector to the pool (dropped as
    /// [`put_view_buf`](Self::put_view_buf) drops a view-set vector).
    fn put_transition_buf(&mut self, mut buf: Vec<TokenTransition>) {
        if buf.capacity() > 0 && self.scratch.transitions.len() < POOL_CAP {
            buf.clear();
            self.scratch.transitions.push(buf);
        }
    }

    /// A clock holding a copy of the entries `src`: a recycled clock
    /// overwritten in place, or a fresh one when the pool is empty.
    fn clock_copy(&mut self, src: &[u64]) -> VectorClock {
        match self.scratch.clocks.pop() {
            Some(mut clock) => {
                clock.copy_from(src);
                clock
            }
            None => VectorClock::from_slice(src),
        }
    }

    /// Returns a retired clock to the pool.
    fn reclaim_clock(&mut self, clock: VectorClock) {
        if self.scratch.clocks.len() < POOL_CAP {
            self.scratch.clocks.push(clock);
        }
    }

    /// Transition `transition_id` at this monitor's width, in a block from the
    /// pool (see [`TokenTransition::in_block`]).  A pool holding no block of this
    /// width gives up one of another, so a thread that moves on to sessions of
    /// another width does not keep a pool it cannot use.
    fn lease_transition(&mut self, transition_id: usize) -> TokenTransition {
        let n = self.n();
        let words = block_words(n);
        let blocks = &mut self.scratch.blocks;
        let block = match blocks.iter().rposition(|block| block.len() == words) {
            Some(at) => blocks.swap_remove(at),
            None => {
                blocks.pop();
                vec![0; words].into()
            }
        };
        TokenTransition::in_block(transition_id, n, block)
    }

    /// Reclaims a decided transition's one allocation: its block goes back to
    /// the pool.
    fn reclaim_transition(&mut self, tran: TokenTransition) {
        if self.scratch.blocks.len() < POOL_CAP {
            self.scratch.blocks.push(tran.into_block());
        }
    }

    /// The cursor of a view whose queue starts empty (a fork, a view spawned by a
    /// returned token): just past everything the views have been offered so far.
    fn empty_queue_cursor(&self) -> u64 {
        debug_assert!(self.delivered <= self.process.history.len() as u64);
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
            .all(|lit| self.member.registry.owner(lit.atom) != p || lit.eval(state))
    }

    /// Whether process `p` owns any literal of `transition`'s guard.
    fn participates(&self, transition: &SymbolicTransition, p: ProcessId) -> bool {
        transition
            .guard
            .literals()
            .iter()
            .any(|lit| self.member.registry.owner(lit.atom) == p)
    }

    /// `gstate` with this process's atoms overwritten by their values in `local`.
    fn apply_local_state(&self, mut gstate: Assignment, local: Assignment) -> Assignment {
        for atom in self.member.registry.ids() {
            if self.member.registry.owner(atom) == self.pid() {
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
        self.detect(q);
        self.reclaim_clock(gcut);
    }

    /// Records the verdict of the final state `q`, which a view reached.
    fn detect(&mut self, q: dlrv_automaton::StateId) {
        debug_assert!(self.member.automaton.is_final(q));
        self.member
            .detected
            .insert(self.member.automaton.verdict(q));
    }

    /// The ⊤/⊥ verdicts this monitor knows of: detected here or learnt from a
    /// peer's token.
    fn known(&self) -> Verdicts {
        self.member.detected | self.member.learned
    }

    /// §4.3.3 extension: true when exploring a transition into `target` could only
    /// re-derive a verdict a sibling view or a peer monitor already detected.
    fn target_verdict_subsumed(&self, target: dlrv_automaton::StateId) -> bool {
        self.process.opts.prune_disjunctive
            && self.member.automaton.is_final(target)
            && self
                .known()
                .contains(&self.member.automaton.verdict(target))
    }

    /// Sends `token` toward `dest`, stamped with the verdicts this monitor knows
    /// of: staged until the process's [flush](LocalProcess::flush).
    fn send_token(&mut self, dest: ProcessId, mut token: Token) {
        token.known = self.known();
        self.member.counters.tokens_sent += 1;
        let after_termination = usize::from(self.process.local_terminated);
        self.member.counters.tokens_sent_after_termination += after_termination;
        self.scratch.staged.push((dest, token));
    }

    /// MERGESIMILARGLOBALVIEWS: collapse views with identical automaton state, cut and
    /// global state, keeping the first occurrence of each exploration point in
    /// encounter order.
    ///
    /// Kept views accumulate in the member's view set, and each incoming view's cut
    /// is compared against every kept cut in a single
    /// [`compare_many`](dlrv_vclock::compare_many) pass over raw entry slices, plus
    /// the state/valuation checks.  View counts per monitor are small (bounded by
    /// the lattice width), so the scan stays cheap, and with the pools warm it
    /// allocates nothing.
    fn merge_similar_views(&mut self) {
        if self.member.views.len() <= 1 {
            return;
        }
        let mut staged = self.take_view_buf();
        std::mem::swap(&mut staged, &mut self.member.views);
        let mut ord = std::mem::take(&mut self.scratch.ord);
        for gv in staged.drain(..) {
            dlrv_vclock::compare_many(
                &gv.gcut,
                self.member.views.iter().map(|kept| &kept.gcut),
                &mut ord,
            );
            let pos = self.member.views.iter().enumerate().position(|(i, kept)| {
                ord[i] == Some(std::cmp::Ordering::Equal)
                    && kept.q == gv.q
                    && kept.gstate == gv.gstate
            });
            match pos {
                Some(i) => {
                    #[cfg(test)]
                    MERGED_VIEWS.with(|merged| merged.set(merged.get() + 1));
                    // Prefer the unblocked copy; the kept slot keeps its queue.
                    let existing = &mut self.member.views[i];
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
                None => self.member.views.push(gv),
            }
        }
        self.scratch.ord = ord;
        self.put_view_buf(staged);
    }

    /// CHECKOUTGOINGTRANSITIONS: build the candidate token transitions of `gv` for the
    /// local event `sn`, whose run's record starts at word `at` of the history.  The
    /// transitions' blocks come from the scratch pool (they return when the
    /// token's transitions are decided).
    fn candidate_transitions(
        &mut self,
        gv: &GlobalView,
        sn: u64,
        at: usize,
    ) -> Vec<TokenTransition> {
        let mut out = self.take_transition_buf();
        // A second handle to the shared automaton, so iterating its transitions does
        // not hold a borrow of `self` across the pool calls below.
        let automaton = Arc::clone(&self.member.automaton);
        for t in automaton
            .transitions_from(gv.automaton_state())
            .iter()
            .filter(|t| !t.is_self_loop())
        {
            // The local conjunct must be satisfied by the process's own (fresh) state.
            if !self.conjunct_holds(t, self.pid(), gv.gstate) {
                continue;
            }
            // §4.3.3: exploring a transition whose target verdict a sibling view
            // or a peer monitor already detected cannot change what is reported —
            // skip it outright.
            if self.target_verdict_subsumed(t.to) {
                continue;
            }
            // Determine which processes "forbid" the transition: their believed state
            // does not satisfy their conjunct.  If nobody forbids, the transition is
            // already enabled under the believed state and needs no token.
            let mut tran = self.lease_transition(t.id);
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
                tran.set_conjunct(p, c);
            }
            if !has_forbidding {
                self.reclaim_transition(tran);
                continue;
            }
            let (gcut, depend) = tran.cuts_mut();
            gcut.copy_from_slice(gv.gcut.entries());
            self.process.history.run(sn, at).merge_clock_into(sn, gcut);
            depend.copy_from_slice(gcut);
            let first_unset = tran
                .first_unset_process()
                .expect("has_forbidding implies an unset conjunct");
            tran.gstate = gv.gstate;
            tran.next_target_process = first_unset;
            // The cut has merged the event's clock: no further entry to take.
            tran.next_target_event = tran.gcut()[first_unset] + 1;
            out.push(tran);
        }
        out
    }

    /// SENDTONEXTPROCESS: decide where `token` goes next, following the routing rules
    /// of §4.2.0.6, and dispatch it (send, serve or park locally, or hand back to the
    /// owning global view when this monitor is the parent).  The destination serves
    /// the first pending transition that targets it — the one chosen here: it is
    /// the first pending transition by rule 2 and rule 4, and by rule 3 every one
    /// before it targets the parent.
    fn route_token(&mut self, token: Token) {
        let pending = || {
            token
                .transitions
                .iter()
                .filter(|t| t.eval == EvalState::Unset)
        };
        // Rule 1: an enabled transition sends the token home.  Otherwise it visits a
        // process some undecided transition targets: this very one (rule 2) before
        // any third one (rule 3) before the parent (rule 4).
        let next = if token
            .transitions
            .iter()
            .any(|t| t.eval == EvalState::Enabled)
        {
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
            Some((process, sn)) if process == self.pid() => self.advance_local_token(token, sn),
            Some((process, _)) => self.send_token(process, token),
            None if token.parent == self.pid() => self.handle_returned_token(token),
            None => self.send_token(token.parent, token),
        }
    }

    /// Feeds the token already-known local events, starting at event `sn`, until it
    /// is routed away or has to wait for a future event.
    fn advance_local_token(&mut self, mut token: Token, mut sn: u64) {
        // The run of the latest visit: where the next one starts looking.
        let mut walked = LATEST_RUN;
        while !self.is_unrecorded(sn) {
            match self.process_token_with_event(&mut token, sn, &mut walked) {
                Some(next) => sn = next,
                None => return self.route_token(token),
            }
        }
        if self.process.local_terminated {
            // No further events will ever occur here: the pending conjuncts of
            // transitions targeting us can never be satisfied.
            self.member.counters.tokens_failed_at_termination += 1;
            self.fail_local_targets(&mut token);
            self.route_token(token);
        } else {
            self.member.counters.tokens_parked += 1;
            // It may wait for the rest of the session: it keeps exactly its
            // transitions, and the buffer they travelled in goes back to the pool.
            let spare = exact(&mut token.transitions);
            self.put_transition_buf(spare);
            self.member.waiting_tokens.park(sn, token);
        }
    }

    /// PROCESSTOKEN + EVALUATETOKEN for the local event `sn` (already in the
    /// history), whose run is looked for from the record at `walked` (see
    /// [`LocalHistory::run`]) and left there.  Returns the local event the token
    /// should be served next — the next one at which that can change anything —
    /// or `None` when no pending transition targets this process any more.
    fn process_token_with_event(
        &mut self,
        token: &mut Token,
        sn: u64,
        walked: &mut usize,
    ) -> Option<u64> {
        self.member.counters.history_events_served += 1;
        self.member.counters.history_events_covered += 1;
        let run = self.process.history.run(sn, *walked);
        // ADDEVENTTOTOKEN for every transition targeting (self, sn).  The run walk
        // (below) lands no later than the end of this run, the last recorded
        // event, or any event another pending transition asks for here.
        let mut land = (run.last + 1).min(self.process.history.len() as u64);
        let pid = self.pid();
        let mut targeted = std::mem::take(&mut self.scratch.targeted);
        targeted.clear();
        for (idx, tran) in token.transitions.iter_mut().enumerate() {
            if tran.eval != EvalState::Unset || tran.next_target_process != pid {
                continue;
            }
            if tran.next_target_event == sn {
                tran.gcut_mut()[pid] = sn;
                run.merge_clock_into(sn, tran.depend_mut());
                tran.gstate = self.apply_local_state(tran.gstate, run.state);
                targeted.push(idx);
            } else {
                land = land.min(tran.next_target_event);
            }
        }
        if targeted.is_empty() {
            self.scratch.targeted = targeted;
            return None;
        }

        // EVALUATETOKEN: evaluate this process's conjunct of every targeted transition.
        let mut any_true = false;
        let mut local_results = std::mem::take(&mut self.scratch.local_results);
        local_results.clear();
        for &idx in &targeted {
            let tran = &token.transitions[idx];
            if tran.conjunct(pid) == ConjunctEval::NotInvolved {
                // Only visited to repair an inconsistency; nothing to evaluate here and
                // this must not influence the ordering flag below.
                continue;
            }
            let symbolic = self.member.automaton.transition(tran.transition_id);
            let ok = self.conjunct_holds(symbolic, pid, run.state);
            any_true |= ok;
            local_results.push((idx, ok));
        }

        for (idx, ok) in &local_results {
            let tran = &mut token.transitions[*idx];
            if tran.conjunct(pid) != ConjunctEval::NotInvolved {
                let c = if !any_true {
                    // No candidate satisfied at this event: keep looking at later ones.
                    ConjunctEval::Unset
                } else if *ok {
                    ConjunctEval::True
                } else {
                    ConjunctEval::False
                };
                tran.set_conjunct(pid, c);
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
        let answer_is_known =
            (sn as usize) < self.process.history.len() || self.process.local_terminated;
        for &idx in &targeted {
            let tran = &mut token.transitions[idx];
            let own = tran.conjunct(pid);
            if own == ConjunctEval::False {
                tran.eval = EvalState::Disabled;
                tran.next_target_process = token.parent;
            } else if answer_is_known
                && (tran.gcut()[pid] < tran.depend()[pid] || own == ConjunctEval::Unset)
            {
                tran.next_target_process = pid;
                tran.next_target_event = sn + 1;
                if own != ConjunctEval::Unset {
                    // Answered: it stays only to repair the cut up to `depend`.
                    land = land.min(tran.depend()[pid]);
                }
            } else if let Some(k) = tran
                .inconsistent_process()
                .or_else(|| tran.first_unset_process())
            {
                // Repair the cut first, then ask whoever has not answered yet.
                tran.next_target_process = k;
                tran.next_target_event = tran.gcut()[k] + 1;
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
                    && tran.next_target_process == pid
                    && tran.next_target_event == sn + 1
                {
                    tran.next_target_event = land;
                    jumped = true;
                }
            }
            if jumped {
                self.member.counters.history_events_covered += (land - sn - 1) as usize;
            }
        }

        // Continue locally only if some transition still targets this process's
        // future: at the earliest event any of them asks for.
        let next = token
            .transitions
            .iter()
            .filter(|t| t.eval == EvalState::Unset && t.next_target_process == pid)
            .map(|t| t.next_target_event)
            .min();
        if let Some(next) = next {
            *walked = run.cursor_for(next);
        }
        self.scratch.targeted = targeted;
        self.scratch.local_results = local_results;
        next
    }

    /// Whether event `sn` of this process is not in the history: not yet, or —
    /// sequence numbers are 1-based — never.
    fn is_unrecorded(&self, sn: u64) -> bool {
        sn == 0 || sn as usize > self.process.history.len()
    }

    /// Marks every transition waiting on this (terminated) process for an event its
    /// history can never serve as disabled.
    fn fail_local_targets(&self, token: &mut Token) {
        for tran in &mut token.transitions {
            if tran.eval == EvalState::Unset
                && tran.next_target_process == self.pid()
                && self.is_unrecorded(tran.next_target_event)
            {
                if tran.conjunct(self.pid()) != ConjunctEval::NotInvolved {
                    tran.set_conjunct(self.pid(), ConjunctEval::False);
                }
                tran.eval = EvalState::Disabled;
                tran.next_target_process = token.parent;
            }
        }
    }

    /// RECEIVETOKEN when this monitor is the token's parent: spawn views for enabled
    /// transitions, drop disabled ones, retarget inconsistent ones and either finish or
    /// re-route the token.
    fn handle_returned_token(&mut self, mut token: Token) {
        let owner_idx = self
            .member
            .views
            .iter()
            .position(|gv| gv.id == token.parent_gv);
        // Every candidate transition leaves the automaton state the token was
        // launched from.
        let origin = token
            .transitions
            .first()
            .map(|t| self.member.automaton.transition(t.transition_id).from);

        let mut enabled_targets: BTreeSet<dlrv_automaton::StateId> = BTreeSet::new();
        let mut remaining: Vec<TokenTransition> = self.take_transition_buf();
        for tran in token.transitions.drain(..) {
            match tran.eval {
                EvalState::Enabled => {
                    let target = self.member.automaton.transition(tran.transition_id).to;
                    // §4.3.3: once some transition into `target` is enabled, siblings
                    // into the same target are redundant; likewise explorations whose
                    // target verdict a sibling view or a peer monitor already detected.
                    if self.process.opts.prune_disjunctive && enabled_targets.contains(&target) {
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
                    // represented.  Freshly spawned views are pushed into `self.member.views`
                    // at once, so this scan sees the siblings spawned just above too —
                    // the live ones: a view at ⊤/⊥ is retired, and a repeat fork into
                    // a detected verdict is stopped by §4.3.3 above, if at all.
                    if self.process.opts.dedup_global_views
                        && self.member.views.iter().any(|gv| {
                            gv.automaton_state() == target
                                && gv.gstate == tran.gstate
                                && gv.gcut.entries() == tran.gcut()
                        })
                    {
                        self.reclaim_transition(tran);
                        continue;
                    }
                    self.spawn_view(target, tran.gcut(), tran.gstate);
                    self.reclaim_transition(tran);
                }
                EvalState::Disabled => {
                    self.reclaim_transition(tran);
                }
                EvalState::Unset => {
                    let mut tran = tran;
                    if let Some(k) = tran.inconsistent_process() {
                        tran.next_target_process = k;
                        tran.next_target_event = tran.gcut()[k] + 1;
                    }
                    // §4.3.3 also applies to still-pending siblings.
                    let target = self.member.automaton.transition(tran.transition_id).to;
                    if (self.process.opts.prune_disjunctive && enabled_targets.contains(&target))
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
                self.member.exploration_over(q);
            }
            if let Some(idx) = owner_idx {
                self.member.views[idx].state = GvState::Unblocked;
                self.drain_pending(idx);
            }
            self.merge_similar_views();
        } else {
            let drained = std::mem::replace(&mut token.transitions, remaining);
            self.put_transition_buf(drained);
            self.route_token(token);
        }
    }

    /// Forks a new global view at `q` with the constructed cut and state (the caller
    /// has already applied the §4.3.2 duplicate check); the view's cut is a pooled
    /// copy of `gcut`.  Its queue starts empty: it will be offered the local events
    /// that follow, not the ones already delivered.  A view forked at ⊤ or ⊥ counts
    /// as created and is retired at once: its verdict is recorded, and no cut is
    /// copied for it.
    fn spawn_view(&mut self, q: dlrv_automaton::StateId, gcut: &[u64], gstate: Assignment) {
        let id = self.member.next_gv_id;
        self.member.next_gv_id += 1;
        self.member.counters.global_views_created += 1;
        if self.member.automaton.is_final(q) {
            self.detect(q);
            return;
        }
        let gv = GlobalView {
            id,
            gcut: self.clock_copy(gcut),
            gstate,
            q: narrow_state(q),
            next_sn: self.empty_queue_cursor(),
            state: GvState::Unblocked,
        };
        self.member.views.push(gv);
        self.member.note_view_peak();
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
        produced: &mut Vec<GlobalView>,
    ) {
        debug_assert!(produced.is_empty());

        // Fold the local event into the view.
        let run = self.process.history.run(sn, *walked);
        *walked = run.cursor_for(sn + 1);
        gv.gcut.set(self.pid(), sn);
        // The event is inconsistent with the view when it already knows about more
        // events of other processes than the view has folded in.  (The run's own
        // entry, its first event, is not past `sn`.)
        let is_consistent = gv
            .gcut
            .entries()
            .iter()
            .enumerate()
            .all(|(j, &g)| g >= run.entry(j));
        let run_at = run.at;
        gv.gstate = self.apply_local_state(gv.gstate, run.state);

        // Only a view that took a step on this event leaves a copy behind at the
        // fork below.
        if is_consistent {
            let q = self.member.automaton.step(gv.automaton_state(), gv.gstate);
            gv.q = narrow_state(q);
            if self.member.automaton.is_final(q) {
                self.retire_view(q, gv.gcut);
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
        let already_exploring = self.process.opts.dedup_global_views
            && !self.process.local_terminated
            && self.member.is_exploring(gv.automaton_state());

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
            let duplicate_exists = self.process.opts.dedup_global_views
                && (self.member.views.iter().any(|other| other.same_slice(&gv))
                    || produced
                        .iter()
                        .any(|other: &GlobalView| other.same_slice(&gv)));
            if !duplicate_exists {
                // The fork starts with an empty queue; the original keeps its
                // backlog and works through it once its token returns.
                let copy = GlobalView {
                    id: self.member.next_gv_id,
                    gcut: self.clock_copy(gv.gcut.entries()),
                    gstate: gv.gstate,
                    q: gv.q,
                    next_sn: self.empty_queue_cursor(),
                    state: GvState::Unblocked,
                };
                self.member.next_gv_id += 1;
                self.member.counters.global_views_created += 1;
                produced.push(copy);
            }
        }

        // Emit the token(s): one for all candidates (§4.3.1), or one each.
        gv.state = GvState::Waiting;
        if self.process.opts.aggregate_tokens {
            self.launch_token(&gv, candidates);
        } else {
            let mut candidates = candidates;
            for tran in candidates.drain(..) {
                let mut transitions = self.take_transition_buf();
                transitions.push(tran);
                self.launch_token(&gv, transitions);
            }
            self.put_transition_buf(candidates);
        }
        produced.push(gv);
    }

    /// Sends a token exploring `transitions` on behalf of view `gv` on its way.
    fn launch_token(&mut self, gv: &GlobalView, transitions: Vec<TokenTransition>) {
        let token = Token {
            property: self.member.property,
            parent: self.pid(),
            parent_gv: gv.id,
            known: Verdicts::EMPTY,
            transitions,
        };
        self.member.exploration_launched(gv.automaton_state());
        self.route_token(token);
    }

    /// Drains the queue of view `idx` as long as it stays unblocked — and, once this
    /// monitor has terminated, to its end (TERMINATE's sweep, `docs/MONITORING.md`
    /// step 5).  No further local event can arrive then and a returning token never
    /// writes to the view that launched it, so the view's state at every queued event
    /// is already determined: the tokens leave together, one batch per destination,
    /// instead of one round trip per event.
    fn drain_pending(&mut self, mut idx: usize) {
        let mut produced = self.take_view_buf();
        let mut walked = LATEST_RUN;
        while self.member.views[idx].is_unblocked() || self.process.local_terminated {
            let Some(sn) = self.member.views[idx].pop_queued(self.delivered) else {
                break;
            };
            self.member.counters.backlog_events_drained += 1;
            let gv = self.member.views.remove(idx);
            self.process_event_on_view(gv, sn, &mut walked, &mut produced);
            if produced.is_empty() {
                // The view retired at ⊤/⊥, and its drain with it.
                break;
            }
            // Back where the view was, and on with the drained view itself: it comes
            // last, behind its fork (whose queue is empty).
            let at = idx;
            idx += produced.len() - 1;
            self.member.views.splice(at..at, produced.drain(..));
            self.member.note_view_peak();
        }
        self.put_view_buf(produced);
    }

    /// RECEIVETOKEN: a token of our own is home; a foreign one is served from our
    /// history or parked — routed from here, it goes to the very transition its
    /// sender routed it here for.  Either way, what its sender knew is learnt.
    fn receive_token(&mut self, token: Token) {
        self.member.learned |= token.known;
        if token.parent == self.pid() {
            self.handle_returned_token(token);
        } else {
            self.route_token(token);
        }
    }

    /// RECEIVEEVENT (Algorithm 2) for event `sn`, the latest of the history.
    fn receive_event(mut self, sn: u64, now: f64) {
        self.member.counters.last_activity_time = now;
        self.merge_similar_views();

        // Wake up exactly the tokens waiting for this event (per-cut index lookup).
        // The views have not been offered it yet: one spawned by a token returning
        // here still gets it below, like every other live view.
        for token in self.member.waiting_tokens.take(sn) {
            self.advance_local_token(token, sn);
        }

        // Deliver the event to every view (waiting views just buffer it, i.e. leave
        // their cursor behind).  The view set is rebuilt through recycled staging
        // buffers; `self.member.views` holds only synchronously spawned views until
        // the rebuilt set is appended — those start past this event and never see it.
        self.delivered = sn;
        let mut delayed = 0usize;
        let mut offered = self.take_view_buf();
        std::mem::swap(&mut offered, &mut self.member.views);
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
                let Some(sn) = gv.pop_queued(self.delivered) else {
                    break;
                };
                self.process_event_on_view(gv, sn, &mut walked, &mut produced);
                // On with the first produced view, which follows local progress;
                // any other waits for its token.  None: the view retired at ⊤/⊥.
                let mut views = produced.drain(..);
                let Some(next) = views.next() else {
                    continue 'views;
                };
                gv = next;
                rebuilt.extend(views);
            }
            rebuilt.push(gv);
        }
        self.put_view_buf(offered);
        self.put_view_buf(produced);
        self.member.views.append(&mut rebuilt);
        self.put_view_buf(rebuilt);
        self.member.counters.queued_events_sum += delayed;
        self.merge_similar_views();
        self.member.note_view_peak();
        self.end();
    }

    /// RECEIVETOKEN for every token of `tokens`: §4.3.1's aggregated message is
    /// processed token by token, exactly as if they had arrived as consecutive
    /// messages.
    fn receive_tokens(mut self, tokens: std::vec::Drain<'_, Token>, now: f64) {
        self.member.counters.last_activity_time = now;
        self.member.counters.tokens_received += tokens.len();
        for token in tokens {
            self.receive_token(token);
        }
        self.member.note_view_peak();
        self.end();
    }

    /// TERMINATE (§4.2.0.10): fails every token parked here waiting for events that
    /// will never happen.
    fn terminate(mut self, now: f64) {
        self.member.counters.last_activity_time = now;
        for mut token in self.member.waiting_tokens.drain_all() {
            self.member.counters.tokens_failed_at_termination += 1;
            self.fail_local_targets(&mut token);
            self.route_token(token);
        }
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_ltl::Formula;

    impl DecentralizedMonitor {
        /// An activation of this monitor, its whole history offered to its views.
        fn activation(&mut self) -> Activation<'_> {
            let delivered = self.process.events_recorded();
            Activation::start(&self.process, &mut self.member, delivered)
        }
    }

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
            Verdicts::from([Verdict::Unknown])
        );
    }

    #[test]
    fn monitor_options_default_enables_all_optimizations() {
        let opts = MonitorOptions::default();
        assert!(opts.aggregate_tokens && opts.dedup_global_views && opts.prune_disjunctive);
        let off = MonitorOptions::ALL_OFF;
        assert!(!(off.aggregate_tokens || off.dedup_global_views || off.prune_disjunctive));
        assert_eq!(
            MonitorOptions {
                aggregate_tokens: false,
                dedup_global_views: false,
                prune_disjunctive: false,
                ..opts
            },
            off,
            "the ignored field is the same in both"
        );
    }

    #[test]
    fn all_combinations_enumerates_every_flag_setting() {
        let combos = MonitorOptions::all_combinations();
        let unique: std::collections::BTreeSet<(bool, bool, bool)> = combos
            .iter()
            .map(|o| {
                (
                    o.aggregate_tokens,
                    o.dedup_global_views,
                    o.prune_disjunctive,
                )
            })
            .collect();
        assert_eq!(unique.len(), 8);
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
        let mut m0 =
            DecentralizedMonitor::new(0, 2, automaton, registry, init, MonitorOptions::default());
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
        assert!(
            outbox.is_empty(),
            "a purely local violation needs no tokens"
        );
    }

    #[test]
    fn a_verdict_a_peer_detected_rides_home_on_its_token_and_is_never_explored_again() {
        // G ¬(P1.q ∨ (P0.p ∧ P1.p)): every transition out of the initial state goes
        // to ⊥.  `M1` detects ⊥ on its own event (P1.q), then answers the token `M0`
        // launched on its event (P0.p); the answer tells `M0` of ⊥.
        for prune_disjunctive in [true, false] {
            let opts = MonitorOptions {
                prune_disjunctive,
                ..MonitorOptions::default()
            };
            let mut reg = AtomRegistry::new();
            let p0 = reg.intern("P0.p", 0);
            let p1 = reg.intern("P1.p", 1);
            let q1 = reg.intern("P1.q", 1);
            let both = Formula::and(Formula::Atom(p0), Formula::Atom(p1));
            let phi = Formula::globally(Formula::not(Formula::or(Formula::Atom(q1), both)));
            let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
            let registry = Arc::new(reg);
            let mut monitors = [0, 1].map(|pid| {
                let (automaton, registry) = (automaton.clone(), registry.clone());
                DecentralizedMonitor::new(pid, 2, automaton, registry, Assignment::ALL_FALSE, opts)
            });
            let p0_holds = Assignment::from_true_atoms([p0]);
            let mut outbox = Vec::new();

            let q1_event = Event {
                process: 1,
                vc: VectorClock::from_entries(vec![0, 1]),
                ..local_event(1, Assignment::from_true_atoms([q1]))
            };
            monitors[1].on_local_event(&q1_event, &mut MonitorContext::new(1, 2, 1.0, &mut outbox));
            assert_eq!(monitors[1].detected_final_verdicts(), Verdict::False.into());
            assert!(outbox.is_empty());

            let mut ctx = MonitorContext::new(0, 2, 1.0, &mut outbox);
            monitors[0].on_local_event(&local_event(1, p0_holds), &mut ctx);
            assert!(!outbox.is_empty(), "M0 asks P1 about P1.p and P1.q");
            let answers: Vec<Token> = deliver(&mut monitors, 0, &mut outbox)
                .into_iter()
                .filter(|(from, _, _)| *from == 1)
                .flat_map(|(_, _, msg)| msg.tokens)
                .collect();
            assert!(!answers.is_empty(), "M1 sends the token home");
            for token in &answers {
                assert_eq!(token.known.bits(), 1, "stamped with M1's ⊥: {token:?}");
            }

            // The answer enabled a transition into ⊥: explored only without pruning,
            // and then by `M0` itself.  A learnt verdict is never reported as detected.
            let m0 = &mut monitors[0];
            let expected = if prune_disjunctive {
                Verdicts::EMPTY
            } else {
                Verdicts::from([Verdict::False])
            };
            assert_eq!(
                m0.detected_final_verdicts(),
                expected,
                "prune {prune_disjunctive}"
            );
            assert_eq!(m0.metrics().detected_final_verdicts, expected);

            // `M0`'s view still holds P0.p: every transition it could explore leads to
            // ⊥, and with pruning on, not one is a candidate.
            let gv = m0.member.views[0].clone();
            assert_eq!(gv.gstate, p0_holds);
            let into_bottom = automaton
                .transitions_from(gv.automaton_state())
                .iter()
                .filter(|t| !t.is_self_loop())
                .inspect(|t| assert_eq!(automaton.verdict(t.to), Verdict::False))
                .count();
            assert!(into_bottom > 0);
            let candidates = m0.activation().candidate_transitions(&gv, 1, 0);
            assert_eq!(candidates.is_empty(), prune_disjunctive, "{candidates:?}");
            // Nor does its next event launch a token toward ⊥.
            let mut ctx = MonitorContext::new(0, 2, 2.0, &mut outbox);
            m0.on_local_event(&local_event(2, p0_holds), &mut ctx);
            assert_eq!(outbox.is_empty(), prune_disjunctive, "{outbox:?}");
        }
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
        assert!(
            m0.views().is_empty(),
            "the ⊥ view is retired, not held: {:?}",
            m0.views()
        );
        let bottom = Verdicts::from([Verdict::False]);
        assert_eq!(m0.detected_final_verdicts(), bottom);
        assert_eq!(m0.possible_verdicts(), bottom);
        let metrics = m0.metrics();
        assert_eq!(
            (metrics.global_views_created, metrics.max_live_views),
            (1, 1)
        );
    }

    #[test]
    fn a_final_initial_state_means_no_view() {
        // `P0.p` is false before the first event: `G P0.p` is violated at q₀.
        let (mut m0, event) = invariant_monitor(false);
        assert!(m0.views().is_empty());
        let bottom = Verdicts::from([Verdict::False]);
        assert_eq!(m0.detected_final_verdicts(), bottom);
        assert_eq!(m0.possible_verdicts(), bottom);
        let metrics = m0.metrics();
        assert_eq!(
            (metrics.global_views_created, metrics.max_live_views),
            (1, 0)
        );
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
            m.views()
                .iter()
                .map(|gv| (gv.id, gv.q, gv.gcut.clone(), gv.gstate, gv.next_sn))
                .collect()
        };
        let before = live(&m0);
        let created = m0.member.counters.global_views_created;

        // `P1`'s answer, by hand: `P1.p` held, the transition into ⊤ is enabled.
        let target = m0
            .member
            .automaton
            .transition(token.transitions[0].transition_id)
            .to;
        assert_eq!(m0.member.automaton.verdict(target), Verdict::True);
        token.transitions[0].eval = EvalState::Enabled;
        let mut ctx = MonitorContext::new(0, 2, 2.0, &mut outbox);
        m0.on_monitor_message(1, one(token), &mut ctx);

        let created_now = m0.member.counters.global_views_created;
        assert_eq!(created_now, created + 1, "the fork at ⊤ is counted");
        assert_eq!(live(&m0), before, "and retired: the live set is as it was");
        assert_eq!(
            m0.detected_final_verdicts(),
            Verdicts::from([Verdict::True])
        );
        assert_eq!(
            m0.possible_verdicts(),
            Verdicts::from([Verdict::Unknown, Verdict::True])
        );
        assert!(m0.member.in_flight.is_empty() && outbox.is_empty());
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
        for (sn, state) in [
            (1, Assignment::ALL_FALSE),
            (2, p0),
            (3, Assignment::ALL_FALSE),
        ] {
            m0.process.history.push(&local_event(sn, state));
        }
        m0.member.views[0].state = GvState::Waiting;
        m0.process.local_terminated = true;

        let mut act = m0.activation();
        act.drain_pending(0);
        assert!(act.scratch.staged.is_empty());
        act.end();

        // The sweep took the first two events and stopped with the view: nothing is
        // left to offer the third to.
        assert!(m0.member.views.is_empty());
        assert_eq!(m0.member.counters.backlog_events_drained, 2);
        assert_eq!(
            m0.detected_final_verdicts(),
            Verdicts::from([Verdict::False])
        );
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
        (
            monitor,
            [a, b].map(|atom| Assignment::from_true_atoms([atom])),
        )
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
        // entries (some to the history's limit, `MAX_CLOCK_ENTRY`), state changes
        // that flip any of the 64 bits (so some runs differ only in the state's
        // high word), both at random rates per process.  At every recorded `sn`
        // the run history must answer what a flat per-event one does, and hold
        // one record per change.
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
            let (mut vc, mut state, mut runs) = (vec![0; n], Assignment(next(u64::MAX)), 0);
            for sn in 1..=next(40) {
                let mut changed = sn == 1;
                if n > 1 && next(receive_in) == 0 {
                    let from = (pid + 1 + next(n as u64 - 1) as usize) % n;
                    let raised = if next(6) == 0 {
                        MAX_CLOCK_ENTRY - next(3)
                    } else {
                        vc[from] + 1 + next(3)
                    };
                    let raised = raised.clamp(vc[from], MAX_CLOCK_ENTRY);
                    changed |= raised != vc[from];
                    vc[from] = raised;
                }
                if next(change_in) == 0 {
                    state = Assignment(state.0 ^ (1 << next(64)));
                    changed = true;
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
            let record = history.record_len();
            assert_eq!(record, n * usize::from(history.width) + 8);
            assert_eq!(history.runs.len(), runs * record, "one record per change");
            // Each event read from the latest run, from where the previous
            // read left off, and from a record picked at random.
            let (mut walked, records) = (LATEST_RUN, runs as u64);
            for (at, (clock, state)) in flat.iter().enumerate() {
                let sn = at as u64 + 1;
                let from = [LATEST_RUN, walked, next(records) as usize * record];
                let run = history.run(sn, from[next(3) as usize]);
                walked = run.cursor_for(sn + 1);
                let case = format!("n={n}, pid={pid}, sn={sn} of {}", flat.len());
                assert_eq!(run.state, *state, "{case}");
                let mut entries = vec![0; n];
                run.merge_clock_into(sn, &mut entries);
                assert_eq!(entries, *clock, "{case}");
                let same_run = |(vc, st): &(Vec<u64>, Assignment)| {
                    st == state && (0..n).all(|j| j == pid || vc[j] == clock[j])
                };
                let last = sn - 1 + flat[at..].iter().take_while(|e| same_run(e)).count() as u64;
                assert_eq!(run.last, last, "{case}");
                let base: Vec<u64> = (0..n).map(|_| next(2 * sn + 2)).collect();
                let mut merged = base.clone();
                run.merge_clock_into(sn, &mut merged);
                let mut reference = VectorClock::from_entries(base);
                reference.merge(&VectorClock::from_entries(clock.clone()));
                assert_eq!(merged, reference.entries(), "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "has a clock entry past 4294967295")]
    fn a_history_refuses_a_clock_entry_past_the_limit() {
        let mut history = LocalHistory::new(0, 2);
        history.push(&Event {
            vc: VectorClock::from_entries(vec![1, MAX_CLOCK_ENTRY + 1]),
            ..local_event(1, Assignment::ALL_FALSE)
        });
    }

    #[test]
    fn a_run_record_is_n_w_plus_8_bytes_after_a_first_block_of_the_old_size() {
        // A record is the run's first clock, `w` bytes an entry, then the state's
        // 8 bytes; `w` is the narrowest width that holds the entries.  The first
        // block is the `max(8n, 32)` bytes a record of `u64` words first took,
        // whatever the width, so a history's first allocation keeps its size class.
        for n in 1..=8 {
            for (remote, width) in [(0, 1), (0x100, 2), (0x1_0000, 4)] {
                if n == 1 && remote > 0 {
                    continue;
                }
                let mut history = LocalHistory::new(0, n);
                for sn in 1..=3u64 {
                    let mut vc = vec![remote; n];
                    vc[0] = sn;
                    history.push(&Event {
                        vc: VectorClock::from_entries(vc),
                        ..local_event(sn, Assignment(sn << 32))
                    });
                    if sn == 1 {
                        assert_eq!(history.runs.capacity(), (8 * n).max(32), "n={n}, w={width}");
                    }
                }
                assert_eq!(history.width, width, "n={n}");
                let three = 3 * (n * usize::from(width) + 8);
                assert_eq!(history.runs.len(), three, "n={n}, w={width}: three records");
            }
        }
    }

    #[test]
    fn a_history_widens_its_clock_entries_once_and_reads_back_what_it_recorded() {
        // A remote entry crosses one byte, then two, then reaches the history's
        // limit.  Each step starts a run at the new entry and continues it for
        // two events.  After every step each earlier event reads back the clock,
        // state and run end it read before, every event its recorded clock (the
        // widest entry widening exactly), and every record is `n·w + 8` bytes.
        let reads = |history: &LocalHistory| -> Vec<(Vec<u64>, Assignment, u64)> {
            let mut walked = LATEST_RUN;
            (1..=history.len)
                .map(|sn| {
                    let run = history.run(sn, walked);
                    walked = run.cursor_for(sn + 1);
                    let mut clock = vec![0; history.n as usize];
                    run.merge_clock_into(sn, &mut clock);
                    (clock, run.state, run.last)
                })
                .collect()
        };
        let steps = [
            (0xfe, 1),
            (0xff, 1),
            (0x100, 2),
            (0xffff, 2),
            (0x1_0000, 4),
            (MAX_CLOCK_ENTRY, 4),
        ];
        for n in 2..=8 {
            let pid = n / 2;
            let mut history = LocalHistory::new(pid, n);
            let (mut vc, mut flat) = (vec![0; n], Vec::new());
            for (step, (raised, width)) in steps.into_iter().enumerate() {
                let before = reads(&history);
                vc[(pid + 1 + step % (n - 1)) % n] = raised;
                let state = Assignment(step as u64 * 0x0101_0101_0101_0101);
                for _ in 0..3 {
                    let sn = history.len + 1;
                    vc[pid] = sn;
                    history.push(&Event {
                        process: pid,
                        vc: VectorClock::from_entries(vc.clone()),
                        ..local_event(sn, state)
                    });
                    flat.push((vc.clone(), state));
                    if sn == 1 {
                        assert_eq!(history.runs.capacity(), (8 * n).max(32), "n={n}");
                    }
                }
                let case = format!("n={n}, step {step}: {raised:#x}");
                assert_eq!(history.width, width, "{case}");
                let record = n * usize::from(width) + 8;
                assert_eq!(history.record_len(), record, "{case}");
                assert_eq!(
                    history.runs.len(),
                    (step + 1) * record,
                    "{case}: one record a step"
                );
                let after = reads(&history);
                assert_eq!(after[..before.len()], before[..], "{case}: earlier events");
                for (sn, ((clock, state, last), (vc, st))) in (1..).zip(after.iter().zip(&flat)) {
                    assert_eq!((clock, state), (vc, st), "{case}, event {sn}");
                    assert_eq!(*last, sn + 2 - (sn - 1) % 3, "{case}, event {sn}");
                }
            }
            assert_eq!(
                reads(&history).last().unwrap().0.iter().max(),
                Some(&u64::from(u32::MAX))
            );
        }
    }

    #[test]
    fn monitor_and_view_sizes_are_pinned() {
        // 600 bytes before the scratch pools moved to the thread and the history
        // went flat, 408 while the monitor kept its process and process count
        // beside its history's, 392 while it kept a per-destination staging map
        // and a whole `MonitorMetrics` with its two verdict sets, 312 while it
        // stored its arena lease, its delivered count and three counters its
        // history repeats (312 → 280).  A session pays this once per process.
        assert!(std::mem::size_of::<DecentralizedMonitor>() <= 280);
        // What a fleet pays per property and process: the monitor less its
        // process's part (312 while every member was a whole monitor → 216).
        assert!(std::mem::size_of::<PropertyMonitor>() <= 216);
        assert!(std::mem::size_of::<GlobalView>() <= 64);
        // The process's part, the session's member → slot map, the monitors and
        // the latest local activation's time — no pool, no outbox, no staging,
        // no regroup table (200 while it held an outbox, a pass-through buffer
        // and a per-destination staging table, 120 with its own copy of the
        // process and process count, 104 with a per-member regroup table, 88
        // with a monitor per member → 104: +16 for the map, +8 for the time,
        // −8 for the monitors in a boxed slice instead of a vector; they let it
        // hold no monitor for a member decided at open, nor two for one question).
        assert!(std::mem::size_of::<crate::FleetMonitor>() <= 104);
        // A token says where it goes next through its transitions only, and the
        // state that launched it is theirs to tell (72 bytes with both copies); a
        // message is one token list (72 while it was a token or a batch).
        assert!(std::mem::size_of::<Token>() <= 48);
        assert!(std::mem::size_of::<MonitorMsg>() <= 24);
        // A transition's cut, `depend` and conjuncts are one block behind one
        // pointer (112 bytes with a clock, a clock and a vector of its own).
        assert!(std::mem::size_of::<TokenTransition>() <= 64);
    }

    /// The session's read-out, `detected_final_verdicts()`, `possible_verdicts()`
    /// and the `metrics()` snapshot of `m` agree; returns the detected set.
    fn verdict_readouts_agree(m: &DecentralizedMonitor, case: &str) -> Verdicts {
        let detected = m.detected_final_verdicts();
        let session = crate::feed::SessionVerdicts::detected_verdicts(m);
        assert_eq!(session, detected, "{case}");
        assert!(!detected.contains(&Verdict::Unknown), "{case}");
        let snapshot = m.metrics();
        assert_eq!(snapshot.detected_final_verdicts, detected, "{case}");
        assert_eq!(snapshot.possible_verdicts, m.possible_verdicts(), "{case}");
        assert!(detected.is_subset(&snapshot.possible_verdicts), "{case}");
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
            Formula::not(Formula::and(
                p0.clone(),
                Formula::or(p1.clone(), q1.clone()),
            )),
            Formula::and(p0, p1),
        );
        let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
        let registry = Arc::new(reg);
        let state = |names: &[&str]| {
            Assignment::from_true_atoms(
                names
                    .iter()
                    .map(|name| registry.lookup(name).expect("interned")),
            )
        };
        const NONE: &[&str] = &[];
        // `P1`'s states, the options, whether `P0`'s events are fed first, and
        // what `M0` and `M1` detect.  With §4.3.3 on, each verdict is detected
        // once: the monitor that finds it first tells the other on its next
        // token, and the other does not explore toward it again.  So the session
        // detects ⊥ and then ⊤ in the fourth case, but at two monitors; in the
        // fifth, with §4.3.3 off and `P0` fed first, `M1` detects both.
        use Verdict::{False as Bot, True as Top};
        let no_prune = MonitorOptions {
            prune_disjunctive: false,
            ..MonitorOptions::default()
        };
        let on = MonitorOptions::default();
        type Case = (&'static [&'static [&'static str]], MonitorOptions, bool);
        let cases: [(Case, [&[Verdict]; 2]); 5] = [
            ((&[NONE], on, false), [&[], &[]]),
            ((&[&["P1.p"]], on, false), [&[], &[Top]]),
            ((&[&["P1.q"]], on, false), [&[], &[Bot]]),
            ((&[&["P1.q"], &["P1.p"]], on, false), [&[Top], &[Bot]]),
            (
                (&[&["P1.q"], &["P1.p"]], no_prune, true),
                [&[Bot], &[Bot, Top]],
            ),
        ];
        for ((p1_states, opts, p0_first), detects) in cases {
            let mut session = crate::feed::decentralized_session(
                2,
                &automaton,
                &registry,
                Assignment::ALL_FALSE,
                opts,
            );
            let k = p1_states.len() as u64;
            let p1_events = (1..).zip(p1_states).map(|(sn, names)| Event {
                process: 1,
                vc: VectorClock::from_entries(vec![0, sn]),
                ..local_event(sn, state(names))
            });
            let p0_events = (1..=k).map(|sn| Event {
                time: (k + sn) as f64,
                ..local_event(sn, state(&["P0.p"]))
            });
            let events: Vec<Event> = if p0_first {
                p0_events.chain(p1_events).collect()
            } else {
                p1_events.chain(p0_events).collect()
            };
            for event in events {
                session.feed_event(&event);
            }
            let case = format!("{p1_states:?}, {opts:?}, P0 first {p0_first}");
            let mut before = Vec::new();
            for (pid, m) in session.monitors().iter().enumerate() {
                before.push(verdict_readouts_agree(m, &format!("{case}, M{pid}, live")));
            }
            session.finish();
            for (pid, m) in session.monitors().iter().enumerate() {
                let case = format!("{case}, M{pid}, terminated");
                let after = verdict_readouts_agree(m, &case);
                assert!(before[pid].is_subset(&after), "{case}");
                let want: Verdicts = detects[pid].iter().copied().collect();
                assert_eq!(after, want, "{case}");
            }
        }
    }

    #[test]
    fn a_view_spawned_while_an_event_is_delivered_does_not_see_it() {
        let (mut m, p) = goal_monitor(MonitorOptions::default());
        let q = m.member.views[0].automaton_state();
        m.process.history.push(&local_event(1, p));
        // While the tokens parked on event 1 are woken, the views have not been
        // offered it yet: a view spawned now gets it with all the others.
        let mut act = m.activation();
        act.delivered = 0;
        act.spawn_view(q, &[0, 0], Assignment::ALL_FALSE);
        act.delivered = 1;
        assert_eq!(act.member.views[1].queued(act.delivered), 1);
        // A view spawned during the delivery starts past the event.
        act.spawn_view(q, &[0, 0], Assignment::ALL_FALSE);
        assert_eq!(act.member.views[2].next_sn, 2);
        assert_eq!(act.member.views[2].pop_queued(act.delivered), None);
    }

    #[test]
    fn a_fork_starts_empty_while_the_original_keeps_its_backlog() {
        let (mut m, p) = goal_monitor(MonitorOptions::default());
        m.process.history.push(&local_event(1, p));
        m.process.history.push(&local_event(2, p));
        let mut act = m.activation();
        let mut gv = act.member.views.pop().expect("the initial view");
        let sn = gv.pop_queued(act.delivered).expect("event 1 is queued");
        let mut produced = Vec::new();
        // `P0.p` holds, `P1.p` is unknown: the view sends a token and forks.
        act.process_event_on_view(gv, sn, &mut { LATEST_RUN }, &mut produced);
        assert_eq!(act.member.counters.tokens_sent, 1);
        let [fork, original] = &produced[..] else {
            panic!("expected the fork and the original, got {produced:?}");
        };
        assert_eq!(fork.state, GvState::Unblocked);
        assert_eq!(
            fork.queued(act.delivered),
            0,
            "a fork has nothing to catch up on"
        );
        assert_eq!(original.state, GvState::Waiting);
        assert_eq!(original.next_sn, 2, "event 2 waits for the token to return");
        assert_eq!(original.queued(act.delivered), 1);
    }

    #[test]
    fn a_merge_keeps_the_kept_views_cursor() {
        // One merge with this (fresh) thread's pools cold, one with them warm.
        for round in ["cold", "warm"] {
            let (mut m, p) = goal_monitor(MonitorOptions::default());
            for sn in 1..=4 {
                m.process.history.push(&local_event(sn, p));
            }
            let mut waiting = m.member.views[0].clone();
            waiting.state = GvState::Waiting;
            waiting.next_sn = 2;
            let mut converged = waiting.clone();
            converged.id = 9;
            converged.state = GvState::Unblocked;
            converged.next_sn = 5;
            m.member.views = vec![waiting, converged];
            let mut act = m.activation();
            act.merge_similar_views();
            act.end();
            // The unblocked copy takes the slot, the slot keeps its queue.
            let [kept] = &m.member.views[..] else {
                panic!("expected one merged view, got {:?}", m.member.views);
            };
            assert_eq!((kept.id, kept.state), (9, GvState::Unblocked));
            assert_eq!(kept.next_sn, 2, "{round} pools");
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
                monitors[process].process.history.push(&Event {
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
        let mut gv = m0.member.views[0].clone();
        gv.gstate = p0;
        let token = Token {
            property: 0,
            parent: 0,
            parent_gv: gv.id,
            known: Verdicts::EMPTY,
            transitions: m0.activation().candidate_transitions(&gv, 1, 0),
        };
        assert_eq!(token.transitions.len(), 1, "one way to the goal");
        assert_eq!(
            token.transitions[0].conjuncts().collect::<Vec<_>>(),
            [ConjunctEval::True, ConjunctEval::Unset]
        );
        (monitors, token)
    }

    /// [`staircase`] of one step on which `P1.p` never held, and `P1`'s one event has
    /// heard of a second event of `P0`: the cut lags at `P0`, the conjunct is still
    /// unset at `P1`, and `P1` has nothing further recorded.  `M0`'s view has been
    /// offered both events of `P0`: no backlog waits on the token.
    fn unanswered_and_lagging() -> ([DecentralizedMonitor; 2], Token) {
        let (mut monitors, token) = staircase(1);
        monitors[1].process.history = history_of_p1(vec![2, 1]);
        monitors[0]
            .process
            .history
            .push(&local_event(2, Assignment::ALL_FALSE));
        monitors[0].member.views[0].next_sn = 3;
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
        let mut outbox = Vec::new();
        let mut act = monitors[from].activation();
        act.route_token(token);
        act.end();
        monitors[from]
            .process
            .flush(&mut MonitorContext::new(from, 2, 0.0, &mut outbox));
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
        MonitorMsg {
            tokens: vec![token],
        }
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
            let mut act = reference[process].activation();
            act.process_token_with_event(&mut stepped, sn, &mut { LATEST_RUN });
        }
        let stepped = &stepped.transitions[0];
        assert_eq!(stepped.eval, EvalState::Enabled);
        assert_eq!(stepped.gcut(), [K, K]);

        // One visit per process: out to `P1`, which serves events 1..=K, and home,
        // where `P0` catches up over 2..=K and enables the transition.
        let messages = tour(&mut monitors, 0, token);
        let route: Vec<_> = messages.iter().map(|(from, to, _)| (*from, *to)).collect();
        assert_eq!(route, [(0, 1), (1, 0)]);
        let [m0, m1] = &monitors;
        assert_eq!(m1.member.counters.history_events_served, K as usize);
        assert_eq!(m0.member.counters.history_events_served, K as usize - 1);
        assert_eq!(
            (
                m0.member.counters.tokens_parked,
                m1.member.counters.tokens_parked
            ),
            (0, 0)
        );
        // The same decision: the enabled transition forked its view, at ⊤.
        let target = m0.member.automaton.transition(stepped.transition_id).to;
        assert_eq!(m0.member.automaton.verdict(target), Verdict::True);
        assert_eq!(m0.member.counters.global_views_created, 2);
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
        assert_eq!(
            history.runs.len(),
            2 + 8,
            "one record: two one-byte entries and the state"
        );
        monitors[1].process.history = history;
        assert_eq!(tour(&mut monitors, 0, token).len(), 1);
        let m1 = &monitors[1];
        assert_eq!(m1.member.counters.history_events_served, 2);
        assert_eq!(m1.member.counters.history_events_covered, K as usize);
        let [parked] = &m1.member.waiting_tokens.clone().take(K + 1)[..] else {
            panic!("the token parks for event {}", K + 1);
        };
        let tran = &parked.transitions[0];
        assert_eq!((tran.gcut(), tran.depend()), (&[1, K][..], &[1, K][..]));
        assert_eq!(
            tran.conjuncts().collect::<Vec<_>>(),
            [ConjunctEval::True, ConjunctEval::Unset]
        );
    }

    #[test]
    fn a_token_whose_answer_is_not_recorded_leaves_or_parks_as_before() {
        // `P1` has recorded its first event only, `P1.p` did not hold, and `P1` is
        // still running.  Its conjunct stays unset and nothing else is owed: the
        // token parks for event 2, at `P1`.
        let (mut parks, token) = staircase(1);
        parks[1].process.history = history_of_p1(vec![1, 1]);
        assert_eq!(tour(&mut parks, 0, token).len(), 1);
        assert_eq!(parks[1].member.waiting_tokens.len(), 1);
        assert_eq!(parks[1].member.counters.tokens_parked, 1);
        assert_eq!(parks[1].member.waiting_tokens.take(2).len(), 1);

        // The event has heard of `P0`'s second: the token leaves to repair the cut
        // there, although `P1` still owes its conjunct — staying would park it early.
        let (mut monitors, token) = unanswered_and_lagging();
        let messages = tour(&mut monitors, 0, token);
        let (from, to, sent) = messages.last().expect("the token came back");
        assert_eq!((*from, *to), (1, 0));
        let tran = &sent.transitions[0];
        assert_eq!((tran.next_target_process, tran.next_target_event), (0, 2));
        assert_eq!(tran.conjunct(1), ConjunctEval::Unset);
        assert_eq!(monitors[1].member.counters.tokens_parked, 0);
    }

    #[test]
    fn a_terminated_process_fails_its_own_targets_in_the_visit_that_finds_out() {
        // `P1` has terminated: no event of `P0` can make `P1` satisfy its conjunct.
        let (mut monitors, token) = unanswered_and_lagging();
        monitors[1].process.local_terminated = true;

        let messages = tour(&mut monitors, 0, token);
        let route: Vec<_> = messages.iter().map(|(from, to, _)| (*from, *to)).collect();
        assert_eq!(
            route,
            [(0, 1), (1, 0)],
            "no detour over `P0`'s second event"
        );
        let failed = &messages[1].2.transitions[0];
        assert_eq!(failed.eval, EvalState::Disabled);
        assert_eq!(failed.conjunct(1), ConjunctEval::False);
        let m1 = &monitors[1].member.counters;
        assert_eq!(
            (
                m1.tokens_failed_at_termination,
                m1.tokens_sent_after_termination
            ),
            (1, 1)
        );
        assert_eq!(monitors[0].member.counters.history_events_served, 0);
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
        assert_eq!(
            outbox.len(),
            1,
            "one exploration, launched on the first event"
        );
        let owner = initial_view(&monitors[0]);
        assert_eq!((owner.state, owner.queued(4)), (GvState::Waiting, 3));
        for sn in 1..=2 {
            monitors[1].process.history.push(&Event {
                process: 1,
                kind: dlrv_vclock::EventKind::Internal,
                sn,
                vc: VectorClock::from_entries(vec![0, sn]),
                state: if p1_holds && sn == 2 {
                    p1
                } else {
                    Assignment::ALL_FALSE
                },
                time: sn as f64,
            });
        }
        monitors[1].process.local_terminated = true;
        (monitors, outbox)
    }

    /// The view the monitor started with, wherever its forks have pushed it.
    fn initial_view(m: &DecentralizedMonitor) -> &GlobalView {
        m.member
            .views
            .iter()
            .find(|gv| gv.id == 0)
            .expect("the initial view")
    }

    /// What a monitor ended with: its views' exploration points (automaton state,
    /// cut, believed state, processing state), the views it ever created and the
    /// verdicts it detected.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        views: Vec<(usize, Vec<u64>, u64, GvState)>,
        views_created: usize,
        detected: Verdicts,
    }

    fn outcome(m: &DecentralizedMonitor) -> Outcome {
        let mut views: Vec<_> = m
            .views()
            .iter()
            .map(|gv| {
                (
                    gv.automaton_state(),
                    gv.gcut.entries().to_vec(),
                    gv.gstate.0,
                    gv.state,
                )
            })
            .collect();
        views.sort_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));
        Outcome {
            views,
            views_created: m.member.counters.global_views_created,
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
                assert_eq!(swept[0].member.counters.backlog_events_drained, 3, "{case}");
                assert_eq!(live[0].member.counters.backlog_events_drained, 3, "{case}");
                assert_eq!(
                    swept[0].detected_final_verdicts().len(),
                    usize::from(p1_holds)
                );
                assert!(
                    swept[0].member.views.iter().all(GlobalView::is_unblocked),
                    "{case}"
                );
                let nothing_out = |m: &DecentralizedMonitor| m.member.in_flight.is_empty();
                assert!(nothing_out(&swept[0]) && nothing_out(&live[0]));

                let counts = |messages: &[(ProcessId, ProcessId, MonitorMsg)]| -> Vec<_> {
                    messages
                        .iter()
                        .map(|(from, to, msg)| (*from, *to, msg.tokens.len()))
                        .collect()
                };
                if opts.aggregate_tokens && !p1_holds {
                    // `P1` fails every token: four round trips before, the first
                    // token's and one batch of three now.
                    assert_eq!(counts(&stepped), [(0, 1, 1), (1, 0, 1)].repeat(4));
                    assert_eq!(
                        counts(&messages),
                        [(0, 1, 1), (1, 0, 1), (0, 1, 3), (1, 0, 3)]
                    );
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
        assert_eq!(m0.member.counters.backlog_events_drained, 1);
        assert_eq!(outbox.len(), 1, "the second event's token, alone");
        let owner = initial_view(m0);
        assert_eq!((owner.state, owner.queued(4)), (GvState::Waiting, 2));
    }

    #[test]
    fn in_flight_suppression_ends_with_the_local_program() {
        for terminated in [false, true] {
            let (mut m, p0) = goal_monitor(MonitorOptions::default());
            m.process.history.push(&local_event(1, p0));
            m.process.local_terminated = terminated;
            // Some other view at the same automaton state has a token out.
            let mut gv = m.member.views.pop().expect("the initial view");
            m.member.exploration_launched(gv.automaton_state());
            let sn = gv.pop_queued(1).expect("event 1 is queued");
            let (mut outbox, mut produced) = (Vec::new(), Vec::new());
            let mut act = m.activation();
            act.process_event_on_view(gv, sn, &mut { LATEST_RUN }, &mut produced);
            act.end();
            m.process
                .flush(&mut MonitorContext::new(0, 2, 1.0, &mut outbox));
            let view = produced.last().expect("the view itself comes last");
            if terminated {
                // No later event will revisit the question: the view asks itself.
                assert_eq!((view.state, outbox.len()), (GvState::Waiting, 1));
                assert_eq!(m.member.in_flight, [(view.q, 2)]);
            } else {
                assert_eq!((view.state, outbox.len()), (GvState::Unblocked, 0));
                assert_eq!(m.member.in_flight, [(view.q, 1)]);
            }
        }
    }

    #[test]
    fn in_flight_holds_no_entry_for_a_state_with_nothing_out() {
        let (monitor, _) = goal_monitor(MonitorOptions::default());
        let mut m = monitor.member;
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
        assert_eq!((m1.member.waiting_tokens.len(), outbox.len()), (1, 0));

        let mut ctx = MonitorContext::new(1, 2, 1.0, &mut outbox);
        m1.on_local_termination(&mut ctx);
        assert!(m1.member.waiting_tokens.is_empty());
        let [(0, MonitorMsg { tokens })] = &outbox[..] else {
            panic!("the token goes home, alone: {outbox:?}");
        };
        let [home] = &tokens[..] else {
            panic!("the token goes home, alone: {tokens:?}");
        };
        assert_eq!(home.transitions[0].eval, EvalState::Disabled);
        assert_eq!(home.transitions[0].conjunct(1), ConjunctEval::False);
        assert_eq!(m1.member.counters.tokens_failed_at_termination, 1);
    }

    #[test]
    fn a_fleet_member_is_served_the_one_history_of_its_process() {
        let (mut m0, [p0, p1]) = goal_monitor_of(0, MonitorOptions::default());
        // One automaton from two initial states: two questions, two monitors.
        let member = |initial_state| crate::FleetMember {
            automaton: m0.member.automaton.clone(),
            registry: m0.member.registry.clone(),
            initial_state,
        };
        let members = [member(p1), member(Assignment::ALL_FALSE)];
        let mut fleet = crate::FleetMonitor::new(1, 2, &members, MonitorOptions::default());
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
        }
        assert!(outbox.is_empty());
        assert_eq!(
            crate::SessionVerdicts::events_recorded(&fleet),
            2,
            "recorded once"
        );

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
        let [idle, asked] = fleet.monitors() else {
            panic!("two monitors");
        };
        assert_eq!(idle.counters.history_events_served, 0);
        assert_eq!(
            (
                asked.counters.history_events_served,
                asked.counters.tokens_parked
            ),
            (2, 1)
        );
        assert!(outbox.is_empty());

        // Termination: the parked token goes home failed.
        let mut ctx = MonitorContext::new(1, 2, 3.0, &mut outbox);
        fleet.on_local_termination(&mut ctx);
        let [(0, MonitorMsg { tokens })] = &outbox[..] else {
            panic!("the token goes home, alone: {outbox:?}");
        };
        let [home] = &tokens[..] else {
            panic!("the token goes home, alone: {tokens:?}");
        };
        assert_eq!(
            (home.property, home.transitions[0].eval),
            (1, EvalState::Disabled)
        );
    }

    #[test]
    fn the_arena_is_leased_per_activation_and_parked_at_the_thread() {
        let feed = |opts| {
            let (mut m, p) = goal_monitor(opts);
            let mut outbox = Vec::new();
            let mut ctx = MonitorContext::new(0, 2, 1.0, &mut outbox);
            m.on_local_event(&local_event(1, p), &mut ctx);
        };
        // Whatever the ignored switch says, the activation leases this (fresh)
        // thread's arena and parks it back for the next monitor to lease.
        feed(MonitorOptions {
            arena_recycling: false,
            ..MonitorOptions::default()
        });
        assert!(ARENA.with(Cell::take).is_some());
        feed(MonitorOptions::default());
        assert!(ARENA.with(Cell::take).is_some());
    }
}
