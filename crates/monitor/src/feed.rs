//! The incremental feed API: drive a set of co-located monitors one event at a time.
//!
//! The batch drivers ([`crate::replay`], the `dlrv-distsim` substrates) require the
//! whole computation up front.  A [`FeedSession`] inverts that: it owns the monitors
//! of one monitored execution ("session") and exposes
//! [`feed_event`](FeedSession::feed_event) — deliver one program event, drain all
//! monitor-to-monitor messages to quiescence, report the verdict so far — and
//! [`finish`](FeedSession::finish) for end-of-stream.  This is the substrate of the
//! online `dlrv-stream` runtime, where events arrive over a wire and millions of
//! sessions are monitored concurrently, none of which can afford to materialize its
//! trace first.
//!
//! Feeding events in timestamp order makes a session behaviorally identical to
//! [`replay_decentralized`](crate::replay::replay_decentralized) (which is itself
//! implemented on top of `FeedSession`): the token algorithm only ever reacts to the
//! delivered event sequence, so online feeding preserves the soundness and
//! completeness of the offline path — the equivalence is pinned by the repository's
//! `stream_equivalence` integration test.
//!
//! [`combined_verdict`] defines what a single incremental call reports when monitors
//! have detected final verdicts on several lattice paths.

use crate::decentralized::{
    lease_outbox, lease_queue, return_outbox, return_queue, DecentralizedMonitor, MonitorOptions,
    Outbox,
};
use crate::messages::MonitorMsg;
use dlrv_automaton::MonitorAutomaton;
use dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_ltl::{Assignment, AtomRegistry, ProcessId, Verdict};
use dlrv_vclock::Event;
use std::collections::BTreeSet;
use std::sync::Arc;

/// What a [`FeedSession`] asks of every monitor kind it can drive — token
/// monitors, whose messages a session queues in buffers leased from the thread's
/// arena: verdict reporting, and how far the monitor's process has got.
pub trait SessionVerdicts: MonitorBehavior<Message = MonitorMsg> {
    /// How many events of its process this monitor has recorded: the next one it
    /// can take is this plus one.
    fn events_recorded(&self) -> u64;
    /// Whether this monitor has detected the final verdict `verdict` (⊤ or ⊥).
    fn has_detected(&self, verdict: Verdict) -> bool;
    /// ⊤/⊥ verdicts this monitor has detected so far.
    fn detected_verdicts(&self) -> BTreeSet<Verdict> {
        [Verdict::False, Verdict::True]
            .into_iter()
            .filter(|&v| self.has_detected(v))
            .collect()
    }
    /// All verdicts this monitor still considers possible.
    fn possible_verdicts(&self) -> BTreeSet<Verdict>;
}

impl SessionVerdicts for DecentralizedMonitor {
    fn events_recorded(&self) -> u64 {
        self.events_recorded()
    }

    fn has_detected(&self, verdict: Verdict) -> bool {
        self.has_detected(verdict)
    }

    fn possible_verdicts(&self) -> BTreeSet<Verdict> {
        self.possible_verdicts()
    }
}

/// Collapses a set of detected final verdicts into the single verdict an online
/// caller acts on: a detected violation dominates, then a detected satisfaction,
/// otherwise the execution is still inconclusive.
pub fn combined_verdict(detected: &BTreeSet<Verdict>) -> Verdict {
    combined_verdict_where(|v| detected.contains(&v))
}

/// [`combined_verdict`] asking `detected` whether each final verdict was detected,
/// so the detections can be read where they are kept instead of collected first.
fn combined_verdict_where(detected: impl Fn(Verdict) -> bool) -> Verdict {
    if detected(Verdict::False) {
        Verdict::False
    } else if detected(Verdict::True) {
        Verdict::True
    } else {
        Verdict::Unknown
    }
}

/// An incremental monitoring session: the monitors of one execution.
///
/// Message delivery is zero-latency and drained to quiescence after every fed event
/// (exactly the discipline of the replay driver), so a session fed the events of a
/// computation in timestamp order produces the same verdicts — and the same number of
/// monitor messages — as replaying that computation offline.
///
/// Between calls a session holds monitoring state only.  The queue of messages in
/// flight during one call, and the outbox each activation writes into, are leased
/// from the thread's scratch arena for that call and given back empty, as a
/// monitor's own scratch is for each activation ([`DecentralizedMonitor`]).
#[derive(Debug)]
pub struct FeedSession<B: MonitorBehavior> {
    monitors: Vec<B>,
    messages: usize,
    /// Largest event timestamp seen; termination is signalled at this time.
    last_time: f64,
    finished: bool,
}

impl<B: MonitorBehavior + SessionVerdicts> FeedSession<B> {
    /// Creates a session over monitors built by `make_monitor`, one per process.
    pub fn new(n_processes: usize, make_monitor: impl FnMut(ProcessId) -> B) -> Self {
        FeedSession {
            monitors: (0..n_processes).map(make_monitor).collect(),
            messages: 0,
            last_time: 0.0,
            finished: false,
        }
    }

    /// Number of processes (monitors) in the session.
    pub fn n_processes(&self) -> usize {
        self.monitors.len()
    }

    /// The monitors, in process order.
    pub fn monitors(&self) -> &[B] {
        &self.monitors
    }

    /// Consumes the session, returning its monitors.
    pub fn into_monitors(self) -> Vec<B> {
        self.monitors
    }

    /// Total monitor-to-monitor messages exchanged so far.
    pub fn monitor_messages(&self) -> usize {
        self.messages
    }

    /// Whether `event` can be fed next: it belongs to one of the session's
    /// processes, its clock has one entry per process, and it is its process's
    /// next event — its sequence number, which its own clock entry repeats, is one
    /// past the events that process has had.  A monitor's history stores runs of
    /// events keyed by those numbers, so a runtime that takes events off a wire
    /// drops any other event instead of feeding it.
    pub fn is_next_event(&self, event: &Event) -> bool {
        let (n, p) = (self.monitors.len(), event.process);
        p < n
            && event.vc.len() == n
            && event.sn == self.monitors[p].events_recorded() + 1
            && event.vc.get(p) == event.sn
    }

    /// Delivers one program event to the monitor of its process and drains monitor
    /// messages to quiescence.  Returns the [`combined_verdict`] detected so far.
    ///
    /// Events of one process must arrive in local (sequence-number) order; events of
    /// different processes should arrive in timestamp order for equivalence with the
    /// offline replay.  Feeding a finished session, or an event that is not
    /// [its process's next](Self::is_next_event), panics.
    ///
    /// The event is only lent: the monitors copy what they keep of it (its clock and
    /// state) into their own histories, so the caller may reuse or drop it at once.
    pub fn feed_event(&mut self, event: &Event) -> Verdict {
        assert!(!self.finished, "cannot feed a finished session");
        let p = event.process;
        assert!(
            self.is_next_event(event),
            "event {} of process {p} is not that process's next in this session",
            event.sn
        );
        self.last_time = self.last_time.max(event.time);
        let now = event.time;
        let n = self.monitors.len();
        let mut outbox = lease_outbox();
        let mut ctx = MonitorContext::new(p, n, now, &mut outbox);
        self.monitors[p].on_local_event(event, &mut ctx);
        self.drain(p, outbox, now);
        self.verdict()
    }

    /// [`feed_event`](Self::feed_event) for a caller that is done with the event.
    pub fn feed_owned(&mut self, event: Event) -> Verdict {
        self.feed_event(&event)
    }

    /// Signals end-of-stream: every process ended at the latest seen timestamp, as
    /// one instant.  So every monitor's local termination runs first, in process
    /// order, each into an outbox of its own; only then are those outboxes drained
    /// to quiescence, in process order.  No message is delivered to a monitor that
    /// has not yet learnt its process ended — the simulator's schedule, which
    /// terminates every monitor at the program's end before delivering anything.
    /// Idempotent; returns the final [`combined_verdict`].
    pub fn finish(&mut self) -> Verdict {
        if self.finished {
            return self.verdict();
        }
        self.finished = true;
        let n = self.monitors.len();
        let end_time = self.last_time;
        let outboxes: Vec<Outbox> = (0..n)
            .map(|p| {
                let mut outbox = lease_outbox();
                let mut ctx = MonitorContext::new(p, n, end_time, &mut outbox);
                self.monitors[p].on_local_termination(&mut ctx);
                outbox
            })
            .collect();
        for (p, outbox) in outboxes.into_iter().enumerate() {
            self.drain(p, outbox, end_time);
        }
        self.verdict()
    }

    /// The [`combined_verdict`] over every monitor's detections so far, read in
    /// place: [`feed_event`](Self::feed_event) returns it for every event.
    pub fn verdict(&self) -> Verdict {
        combined_verdict_where(|v| self.monitors.iter().any(|m| m.has_detected(v)))
    }

    /// Union of ⊤/⊥ verdicts detected by any monitor.
    pub fn detected_verdicts(&self) -> BTreeSet<Verdict> {
        let mut set = BTreeSet::new();
        for m in &self.monitors {
            set.extend(m.detected_verdicts());
        }
        set
    }

    /// Union of the verdicts any monitor still considers possible.
    pub fn possible_verdicts(&self) -> BTreeSet<Verdict> {
        let mut set = BTreeSet::new();
        for m in &self.monitors {
            set.extend(m.possible_verdicts());
        }
        set
    }

    /// Delivers the messages `sender`'s monitor just put in `outbox`, and every
    /// message they cause in turn, until no monitor has anything in flight; then
    /// gives the outbox and the queue back to the thread's arena, so a session keeps
    /// no buffer between calls.
    fn drain(&mut self, mut sender: ProcessId, mut outbox: Outbox, now: f64) {
        let n = self.monitors.len();
        let mut inflight = lease_queue();
        loop {
            self.messages += outbox.len();
            inflight.extend(outbox.drain(..).map(|(to, msg)| (sender, to, msg)));
            let Some((from, to, msg)) = inflight.pop_front() else {
                break;
            };
            let mut ctx = MonitorContext::new(to, n, now, &mut outbox);
            self.monitors[to].on_monitor_message(from, msg, &mut ctx);
            sender = to;
        }
        return_queue(inflight);
        return_outbox(outbox);
    }
}

/// A feed session over decentralized (token-algorithm) monitors.
pub type DecentralizedSession = FeedSession<DecentralizedMonitor>;

/// Creates a decentralized session: one [`DecentralizedMonitor`] per process, all
/// starting from `initial_gstate`.
pub fn decentralized_session(
    n_processes: usize,
    automaton: &Arc<MonitorAutomaton>,
    registry: &Arc<AtomRegistry>,
    initial_gstate: Assignment,
    opts: MonitorOptions,
) -> DecentralizedSession {
    FeedSession::new(n_processes, |i| {
        DecentralizedMonitor::new(
            i,
            n_processes,
            automaton.clone(),
            registry.clone(),
            initial_gstate,
            opts,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Token;
    use dlrv_ltl::Formula;
    use dlrv_vclock::{EventKind, VectorClock};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn two_proc_setup() -> (Arc<MonitorAutomaton>, Arc<AtomRegistry>, dlrv_ltl::AtomId, dlrv_ltl::AtomId)
    {
        let mut reg = AtomRegistry::new();
        let a = reg.intern("P0.p", 0);
        let b = reg.intern("P1.p", 1);
        let phi = Formula::eventually(Formula::and(Formula::Atom(a), Formula::Atom(b)));
        let automaton = Arc::new(MonitorAutomaton::synthesize(&phi, &reg));
        (automaton, Arc::new(reg), a, b)
    }

    fn internal(process: ProcessId, sn: u64, vc: Vec<u64>, state: Assignment, time: f64) -> Event {
        Event {
            process,
            kind: EventKind::Internal,
            sn,
            vc: VectorClock::from_entries(vc),
            state,
            time,
        }
    }

    #[test]
    fn feeding_concurrent_goal_states_detects_satisfaction() {
        let (automaton, registry, a, b) = two_proc_setup();
        let mut session = decentralized_session(
            2,
            &automaton,
            &registry,
            Assignment::ALL_FALSE,
            MonitorOptions::default(),
        );
        assert_eq!(session.verdict(), Verdict::Unknown);
        let v1 = session.feed_owned(internal(0, 1, vec![1, 0], Assignment::from_true_atoms([a]), 1.0));
        assert_eq!(v1, Verdict::Unknown);
        session.feed_owned(internal(1, 1, vec![0, 1], Assignment::from_true_atoms([b]), 2.0));
        let final_verdict = session.finish();
        // F(a && b) is satisfied on the concurrent cut where both propositions hold.
        assert_eq!(final_verdict, Verdict::True);
        assert!(session.monitor_messages() > 0, "exploration requires tokens");
        // finish is idempotent.
        assert_eq!(session.finish(), Verdict::True);
    }

    #[test]
    fn combined_verdict_precedence() {
        use std::iter::FromIterator;
        assert_eq!(combined_verdict(&BTreeSet::new()), Verdict::Unknown);
        assert_eq!(
            combined_verdict(&BTreeSet::from_iter([Verdict::True])),
            Verdict::True
        );
        assert_eq!(
            combined_verdict(&BTreeSet::from_iter([Verdict::True, Verdict::False])),
            Verdict::False
        );
    }

    /// What the recording monitors of the schedule test saw, in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        /// Process `p`'s monitor learnt that its process ended.
        Terminated(ProcessId),
        /// Process `to`'s monitor got the token process `origin` sent at termination,
        /// `hops` hops after it left.
        Delivered { to: ProcessId, origin: ProcessId, hops: u64 },
    }

    /// A monitor that logs its callbacks.  At termination it sends one token to the
    /// next process; a token on its first hop is passed on once more, so each
    /// termination outbox sets off a chain that takes two deliveries to drain.
    struct Recorder {
        log: Rc<RefCell<Vec<Step>>>,
    }

    impl MonitorBehavior for Recorder {
        type Message = MonitorMsg;

        fn on_local_event(&mut self, _: &Event, _: &mut MonitorContext<'_, MonitorMsg>) {}

        fn on_monitor_message(
            &mut self,
            _: ProcessId,
            msg: MonitorMsg,
            ctx: &mut MonitorContext<'_, MonitorMsg>,
        ) {
            let [mut token] = <[Token; 1]>::try_from(msg.tokens).expect("recorders send single tokens");
            let (to, origin, hops) = (ctx.self_id, token.parent, token.parent_gv);
            self.log.borrow_mut().push(Step::Delivered { to, origin, hops });
            if hops == 0 {
                token.parent_gv = 1;
                ctx.send((to + 1) % ctx.n_processes, MonitorMsg { tokens: vec![token] });
            }
        }

        fn on_local_termination(&mut self, ctx: &mut MonitorContext<'_, MonitorMsg>) {
            let p = ctx.self_id;
            self.log.borrow_mut().push(Step::Terminated(p));
            let token = Token {
                property: 0,
                parent: p,
                parent_gv: 0,
                transitions: Vec::new(),
            };
            ctx.send((p + 1) % ctx.n_processes, MonitorMsg { tokens: vec![token] });
        }
    }

    impl SessionVerdicts for Recorder {
        fn events_recorded(&self) -> u64 {
            0
        }

        fn has_detected(&self, _: Verdict) -> bool {
            false
        }

        fn possible_verdicts(&self) -> BTreeSet<Verdict> {
            BTreeSet::new()
        }
    }

    #[test]
    fn finish_terminates_every_monitor_before_delivering_and_drains_in_process_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut session = FeedSession::new(3, |_| Recorder { log: log.clone() });
        session.finish();
        let log = log.take();
        let first_delivery = log
            .iter()
            .position(|step| matches!(step, Step::Delivered { .. }))
            .expect("termination tokens are delivered");
        assert!(
            log[first_delivery..].iter().all(|step| matches!(step, Step::Delivered { .. })),
            "a monitor got a message before every process had ended: {log:?}"
        );
        let delivered = |to, origin, hops| Step::Delivered { to, origin, hops };
        assert_eq!(
            log,
            [
                Step::Terminated(0),
                Step::Terminated(1),
                Step::Terminated(2),
                // Process 0's outbox, to quiescence, then process 1's, then 2's.
                delivered(1, 0, 0),
                delivered(2, 0, 1),
                delivered(2, 1, 0),
                delivered(0, 1, 1),
                delivered(0, 2, 0),
                delivered(1, 2, 1),
            ]
        );
        assert_eq!(session.monitor_messages(), 6);
    }

    #[test]
    fn only_each_process_s_next_event_can_be_fed() {
        let (automaton, registry, a, _) = two_proc_setup();
        let mut session = decentralized_session(
            2,
            &automaton,
            &registry,
            Assignment::ALL_FALSE,
            MonitorOptions::default(),
        );
        let p = Assignment::from_true_atoms([a]);
        let first = internal(0, 1, vec![1, 0], p, 1.0);
        for misfit in [
            internal(2, 1, vec![0, 0, 1], p, 1.0),
            internal(0, 1, vec![1, 0, 0], p, 1.0),
            internal(0, 2, vec![2, 0], p, 1.0),
            internal(0, 1, vec![2, 0], p, 1.0),
            internal(0, 0, vec![0, 0], p, 1.0),
        ] {
            assert!(!session.is_next_event(&misfit), "{misfit:?}");
        }
        assert!(session.is_next_event(&first));
        session.feed_event(&first);
        assert!(!session.is_next_event(&first), "a repeat is out of sequence");
        assert!(session.is_next_event(&internal(0, 2, vec![2, 0], p, 2.0)));
        assert!(session.is_next_event(&internal(1, 1, vec![1, 1], p, 2.0)));
    }

    #[test]
    #[should_panic(expected = "finished session")]
    fn feeding_after_finish_panics() {
        let (automaton, registry, a, _) = two_proc_setup();
        let mut session = decentralized_session(
            2,
            &automaton,
            &registry,
            Assignment::ALL_FALSE,
            MonitorOptions::default(),
        );
        session.finish();
        session.feed_owned(internal(0, 1, vec![1, 0], Assignment::from_true_atoms([a]), 1.0));
    }
}
