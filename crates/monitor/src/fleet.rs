//! Fleet monitoring: N properties over one event stream with shared transport.
//!
//! The paper's architecture monitors one LTL property per run, so a spec suite of
//! N properties costs N full pipelines — N stream decodes, N vector-clock
//! updates and N independent token meshes over the *same* trace.  A
//! [`FleetMonitor`] collapses that: it holds its process's part once and one
//! [`PropertyMonitor`] per open question behind a single [`MonitorBehavior`], so
//! one [`FeedSession`] drives every property ("fleet member") at once and the
//! per-property *marginal* cost drops instead of multiplying.  A solo
//! [`DecentralizedMonitor`](crate::DecentralizedMonitor) is the same two parts
//! with one member, and runs the same activations.
//!
//! What is shared across members:
//!
//! * **The decoded event** — each [`Event`] is decoded (or simulated) once and
//!   every member is activated on it in turn.
//! * **The recorded history** — Algorithm 2's `history` is the process's, not the
//!   property's: the fleet records each event once into the one run-length
//!   history of its process's part (one `n + 1`-word record per run of events
//!   with one state and one set of remote clock entries), which also holds the
//!   termination flag, the options and the latest event's time.  Every member
//!   borrows that part by `&` for each of its activations — local event,
//!   received message or termination — and holds no history of its own.
//! * **Transport** — members deal in tokens only: every member activated in one
//!   call of the fleet stages its tokens, and the call ends with the process's one
//!   flush, the one a solo monitor's calls end with.  With `aggregate_tokens` on
//!   (§4.3.1), outbound tokens from *all* members to the same destination ride one
//!   [`MonitorMsg`].  The [`Token::property`](crate::Token::property) field is the
//!   property-id dimension of the message: the receiving fleet demultiplexes
//!   tokens back to their members.  Termination sends nothing of its own (it is
//!   local to each member), so every message the fleet puts on the transport
//!   carries tokens.
//!
//! What is *not* shared: everything a property decides — global views, parked
//! tokens, in-flight explorations, metrics — stays strictly per member, so
//! properties cannot bleed state into each other.  This is load-bearing for the
//! equivalence guarantee below; the history does not weaken it, because it holds
//! what the process did, identically for every member, and members only read it.
//! (The scratch arena members recycle buffers through is per *thread*, shared with
//! every other monitor the thread runs; it carries capacity, never content.)
//!
//! **Each open question once.**  When a session opens, every member gets a slot,
//! computed once and shared by the session's processes:
//!
//! * A member whose first automaton step from the initial state is already ⊤ or
//!   ⊥ is *decided at open* — at every process, because every process starts
//!   from that state.  Its solo monitors hold no view, so they never send or get
//!   a token; all its process's events and termination do to them is move their
//!   activity time.  It gets no monitor: its snapshot is INIT's, with the
//!   process's event count, latest event time and latest activation time.
//! * A member with the same automaton, registry and initial state as an earlier
//!   member would run that member's monitors step for step, since a monitor is a
//!   deterministic function of those, the options and its process's events.  It
//!   shares them: its verdicts and counts are read from that representative.
//!
//! So a fleet holds one monitor per distinct open question, and the tokens of a
//! shared member are sent once.  Both cases are exact under any options; with
//! aggregation on even the messages are the same, because a shared member's
//! tokens would have ridden in its representative's envelopes.  One caveat: a
//! sum of per-member token or view counts counts the shared work once per member
//! that asks, as the solo runs it stands for would.
//!
//! Between activations a fleet holds monitoring state only, as every member does:
//! it keeps no outbox — the members activated on one event or message stage their
//! tokens in the thread's scratch arena, and the flush that ends the call turns
//! them into the messages it sends.  A received message is regrouped by monitor as
//! it is delivered (a stable sort on the property id, then each monitor's run of
//! tokens drained into its activation), so no fleet keeps a regroup table either.
//!
//! **Equivalence.**  Each member is a deterministic state machine driven only by
//! its local events and its own tokens.  The fleet preserves, per member, the
//! exact solo schedule: members activate on the same events in the same order,
//! a merged message delivers member `k`'s tokens as exactly the tokens member `k`
//! would have received solo (same tokens, same order), and with
//! `aggregate_tokens` off every token leaves alone, in emission order.
//! Per-property verdicts and token counts are therefore byte-identical to N
//! independent runs — pinned by `tests/fleet_equivalence.rs` across shard counts
//! and every [`MonitorOptions`] combination.  Only the message count of a fleet
//! with a shared member and aggregation off is lower than the solo sum: the
//! shared member's messages are not sent twice.

use crate::decentralized::{drain_runs, LocalProcess, MonitorOptions, PropertyMonitor};
use crate::feed::{FeedSession, SessionVerdicts};
use crate::messages::MonitorMsg;
use crate::metrics::MonitorMetrics;
use dlrv_automaton::MonitorAutomaton;
use dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_ltl::{Assignment, AtomRegistry, ProcessId, Verdict, Verdicts};
use dlrv_vclock::Event;
use std::sync::Arc;

/// One property of a fleet: the compiled monitor automaton, its atom registry
/// and the initial global state its monitors start from.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// The property's monitor automaton (shared by every process replica).
    pub automaton: Arc<MonitorAutomaton>,
    /// The property's atom registry (conjunct ownership).
    pub registry: Arc<AtomRegistry>,
    /// The initial global state the property's monitors are advanced over.
    pub initial_state: Assignment,
}

/// What answers for one fleet member, the same at every process of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Decided at open: INIT's first step from the initial state is already ⊤ or
    /// ⊥ — at every process, since they all start from that state — so no monitor
    /// is held and nothing the member would do can move.
    Decided(Verdict),
    /// The monitor at this index of the fleet's monitors: the member's own, or
    /// that of the first earlier member with the same automaton, registry and
    /// initial state (its representative), whose every verdict and count it
    /// would repeat.
    Monitor(u32),
}

/// The member → slot map of a fleet: every member decided at open gets
/// [`Slot::Decided`], every other the monitor of its representative.  Members
/// compiled together share one automaton `Arc`, so the usual comparison is a
/// pointer compare.
fn plan(members: &[FleetMember]) -> Arc<[Slot]> {
    let mut representatives: Vec<&FleetMember> = Vec::new();
    members
        .iter()
        .map(|m| {
            if let Some(verdict) = PropertyMonitor::decided_at_open(&m.automaton, m.initial_state) {
                return Slot::Decided(verdict);
            }
            let same = |r: &&FleetMember| {
                (&r.automaton, &r.registry, r.initial_state)
                    == (&m.automaton, &m.registry, m.initial_state)
            };
            let index = representatives.iter().position(same).unwrap_or_else(|| {
                representatives.push(m);
                representatives.len() - 1
            });
            Slot::Monitor(u32::try_from(index).expect("a fleet's monitors fit u32 ids"))
        })
        .collect()
}

/// The monitor of one process in a fleet run: the process's part once, and one
/// [`PropertyMonitor`] per open question, all sharing decoded events and
/// outbound transport.
///
/// A member decided at open holds no monitor, and members with the same
/// automaton, registry and initial state share one (the module doc's "Each open
/// question once"): the member → slot map is computed once per session and read
/// by every per-member accessor.  Monitor `i`'s tokens are stamped with
/// [`Token::property`](crate::Token::property)` == i`; on receipt the fleet
/// demultiplexes on that field, so a monitor only ever sees its own tokens and
/// cannot observe (or disturb) another property's exploration.
#[derive(Debug, Clone)]
pub struct FleetMonitor {
    /// The process's recorded events, termination and options, read by every
    /// monitor: the §4.3.1 switch among them decides whether tokens of *all*
    /// monitors bound for one destination merge into one batch per activation, or
    /// every monitor's messages pass through unmerged (aggregation off means off —
    /// including the cross-property kind).
    process: LocalProcess,
    /// Member `k` → what answers for it, shared by the session's processes.
    slots: Arc<[Slot]>,
    /// One monitor per [`Slot::Monitor`] index.
    monitors: Box<[PropertyMonitor]>,
    /// The time of this process's latest own activation, a local event or its
    /// termination: the last activity a member decided at open reports.
    last_local_activation: f64,
}

impl FleetMonitor {
    /// Creates the fleet monitor of process `pid`: one [`PropertyMonitor`] per
    /// open question among `members`, every one running under the same shared
    /// `opts`.
    pub fn new(
        pid: ProcessId,
        n_processes: usize,
        members: &[FleetMember],
        opts: MonitorOptions,
    ) -> Self {
        Self::planned(pid, n_processes, members, plan(members), opts)
    }

    /// [`new`](Self::new) with the session's member → slot map, `plan(members)`.
    fn planned(
        pid: ProcessId,
        n_processes: usize,
        members: &[FleetMember],
        slots: Arc<[Slot]>,
        opts: MonitorOptions,
    ) -> Self {
        assert!(!members.is_empty(), "a fleet needs at least one property");
        let monitor_index = |slot: &Slot| match *slot {
            Slot::Monitor(i) => Some(i),
            Slot::Decided(_) => None,
        };
        let held = slots
            .iter()
            .filter_map(monitor_index)
            .max()
            .map_or(0, |i| i as usize + 1);
        let mut monitors = Vec::with_capacity(held);
        for (m, slot) in members.iter().zip(slots.iter()) {
            // A representative is the first member of its slot.
            if let Some(i) = monitor_index(slot).filter(|&i| i as usize == monitors.len()) {
                let (automaton, registry) = (m.automaton.clone(), m.registry.clone());
                monitors.push(PropertyMonitor::new(
                    i,
                    n_processes,
                    automaton,
                    registry,
                    m.initial_state,
                ));
            }
        }
        FleetMonitor {
            process: LocalProcess::new(pid, n_processes, opts),
            slots,
            monitors: monitors.into_boxed_slice(),
            last_local_activation: 0.0,
        }
    }

    /// Number of properties in the fleet.
    pub fn fleet_size(&self) -> usize {
        self.slots.len()
    }

    /// Metrics snapshot of member `k`'s monitor at this process.
    pub fn member_metrics(&self, k: usize) -> MonitorMetrics {
        match self.slots[k] {
            Slot::Decided(verdict) => PropertyMonitor::decided_at_open_metrics(
                &self.process,
                verdict,
                self.last_local_activation,
            ),
            Slot::Monitor(i) => self.monitors[i as usize].metrics(&self.process),
        }
    }

    /// ⊤/⊥ verdicts member `k` has detected at this process.
    fn member_detected(&self, k: usize) -> Verdicts {
        match self.slots[k] {
            Slot::Decided(verdict) => verdict.into(),
            Slot::Monitor(i) => self.monitors[i as usize].detected_final_verdicts(),
        }
    }

    /// The verdicts member `k` still considers possible at this process.
    fn member_possible(&self, k: usize) -> Verdicts {
        match self.slots[k] {
            Slot::Decided(verdict) => verdict.into(),
            Slot::Monitor(i) => self.monitors[i as usize].possible_verdicts(),
        }
    }

    /// The verdicts of the members decided at open.
    fn decided(&self) -> Verdicts {
        self.slots
            .iter()
            .filter_map(|slot| match slot {
                Slot::Decided(verdict) => Some(*verdict),
                Slot::Monitor(_) => None,
            })
            .collect()
    }

    /// Whether this fleet holds monitoring state only: no monitor holding spare
    /// capacity ([`PropertyMonitor::parks_no_spare`]).  True between activations.
    #[cfg(test)]
    pub(crate) fn parks_no_spare(&self) -> bool {
        self.monitors.iter().all(PropertyMonitor::parks_no_spare)
    }

    /// The monitors this fleet holds, one per open question, in token-id order.
    #[cfg(test)]
    pub(crate) fn monitors(&self) -> &[PropertyMonitor] {
        &self.monitors
    }
}

impl MonitorBehavior for FleetMonitor {
    type Message = MonitorMsg;

    fn on_local_event(&mut self, event: &Event, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        // Recorded once, for every monitor.
        self.process.record(event, ctx.now);
        self.last_local_activation = ctx.now;
        for monitor in &mut self.monitors {
            monitor.on_recorded_event(&self.process, ctx.now);
        }
        self.process.flush(ctx);
    }

    /// Delivers each monitor's tokens of `msg` as one activation, in ascending
    /// monitor order (matching the sender's member-major flush) and as the tokens
    /// the monitor would have received solo: a stable sort on the property id
    /// keeps every monitor's tokens in their order, and each monitor's run of
    /// tokens is drained into its activation.
    fn on_monitor_message(
        &mut self,
        _from: ProcessId,
        msg: MonitorMsg,
        ctx: &mut MonitorContext<'_, MonitorMsg>,
    ) {
        let mut tokens = msg.tokens;
        drain_runs(
            &mut tokens,
            |t| t.property,
            |k, run| {
                self.monitors[k as usize].on_tokens(&self.process, run, ctx.now);
            },
        );
        self.process.flush(ctx);
    }

    fn on_local_termination(&mut self, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        self.process.terminate();
        self.last_local_activation = ctx.now;
        for monitor in &mut self.monitors {
            monitor.on_local_termination(&self.process, ctx.now);
        }
        self.process.flush(ctx);
    }
}

impl SessionVerdicts for FleetMonitor {
    fn events_recorded(&self) -> u64 {
        self.process.events_recorded()
    }

    fn detected_verdicts(&self) -> Verdicts {
        self.monitors
            .iter()
            .fold(self.decided(), |set, m| set | m.detected_final_verdicts())
    }

    fn possible_verdicts(&self) -> Verdicts {
        self.monitors
            .iter()
            .fold(self.decided(), |set, m| set | m.possible_verdicts())
    }
}

/// A feed session monitoring a whole property fleet in one pass.
pub type FleetSession = FeedSession<FleetMonitor>;

/// Creates a fleet session: one [`FleetMonitor`] per process, each holding one
/// [`PropertyMonitor`] per open question, all under the same shared options.
/// The member → slot map is computed here, once, and shared by every process.
pub fn fleet_session(
    n_processes: usize,
    members: &[FleetMember],
    opts: MonitorOptions,
) -> FleetSession {
    let slots = plan(members);
    FeedSession::new(n_processes, |pid| {
        FleetMonitor::planned(pid, n_processes, members, slots.clone(), opts)
    })
}

/// Union of ⊤/⊥ verdicts member `k` detected at any process of `session`.
pub fn fleet_member_detected(session: &FleetSession, k: usize) -> Verdicts {
    session
        .monitors()
        .iter()
        .fold(Verdicts::EMPTY, |set, fleet| set | fleet.member_detected(k))
}

/// Union of the verdicts member `k` still considers possible at any process.
pub fn fleet_member_possible(session: &FleetSession, k: usize) -> Verdicts {
    session
        .monitors()
        .iter()
        .fold(Verdicts::EMPTY, |set, fleet| set | fleet.member_possible(k))
}

/// Metrics snapshots of member `k`'s monitors, in process order.
pub fn fleet_member_metrics(session: &FleetSession, k: usize) -> Vec<MonitorMetrics> {
    session
        .monitors()
        .iter()
        .map(|fleet| fleet.member_metrics(k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{decentralized_session, DecentralizedSession};
    use crate::DecentralizedMonitor;
    use dlrv_ltl::Formula;
    use dlrv_vclock::{EventKind, VectorClock};
    use std::cell::Cell;

    /// Two different properties over the same two-process alphabet:
    /// `F (P0.p ∧ P1.p)` and `second(P0.p, P1.p)`.
    fn two_property_setup(
        second: fn(Formula, Formula) -> Formula,
    ) -> (Vec<FleetMember>, Arc<AtomRegistry>) {
        let mut reg = AtomRegistry::new();
        let a = reg.intern("P0.p", 0);
        let b = reg.intern("P1.p", 1);
        let registry = Arc::new(reg);
        let phi0 = Formula::eventually(Formula::and(Formula::Atom(a), Formula::Atom(b)));
        let phi1 = second(Formula::Atom(a), Formula::Atom(b));
        let members = vec![
            FleetMember {
                automaton: Arc::new(MonitorAutomaton::synthesize(&phi0, &registry)),
                registry: registry.clone(),
                initial_state: Assignment::ALL_FALSE,
            },
            FleetMember {
                automaton: Arc::new(MonitorAutomaton::synthesize(&phi1, &registry)),
                registry: registry.clone(),
                initial_state: Assignment::ALL_FALSE,
            },
        ];
        (members, registry)
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

    fn sample_events(registry: &AtomRegistry) -> Vec<Event> {
        let a = registry.ids().next().expect("atom P0.p");
        vec![
            internal(0, 1, vec![1, 0], Assignment::from_true_atoms([a]), 1.0),
            internal(1, 1, vec![0, 1], Assignment::ALL_FALSE, 2.0),
            internal(0, 2, vec![2, 0], Assignment::ALL_FALSE, 3.0),
            internal(1, 2, vec![0, 2], Assignment::ALL_FALSE, 4.0),
        ]
    }

    #[test]
    fn fleet_matches_solo_runs_member_for_member() {
        for opts in MonitorOptions::all_combinations() {
            let (members, registry) = two_property_setup(|a, _| Formula::globally(a));
            let mut fleet = fleet_session(2, &members, opts);
            let mut solos: Vec<_> = members
                .iter()
                .map(|m| decentralized_session(2, &m.automaton, &m.registry, m.initial_state, opts))
                .collect();
            for event in sample_events(&registry) {
                fleet.feed_event(&event);
                for solo in &mut solos {
                    solo.feed_event(&event);
                }
            }
            fleet.finish();
            for solo in &mut solos {
                solo.finish();
            }
            for (k, solo) in solos.iter().enumerate() {
                assert_eq!(
                    fleet_member_detected(&fleet, k),
                    solo.detected_verdicts(),
                    "detected verdicts of member {k} under {opts:?}"
                );
                assert_eq!(
                    fleet_member_possible(&fleet, k),
                    solo.possible_verdicts(),
                    "possible verdicts of member {k} under {opts:?}"
                );
                let fleet_tokens: usize = fleet_member_metrics(&fleet, k)
                    .iter()
                    .map(|m| m.tokens_sent)
                    .sum();
                let solo_tokens: usize = solo
                    .monitors()
                    .iter()
                    .map(|m| m.metrics().tokens_sent)
                    .sum();
                assert_eq!(
                    fleet_tokens, solo_tokens,
                    "token count of member {k} under {opts:?}"
                );
            }
        }
    }

    /// Monitoring messages of the fleet `{F (P0.p ∧ P1.p), second}` and of its two
    /// members' solo runs summed, over [`sample_events`].
    fn fleet_and_solo_messages(second: fn(Formula, Formula) -> Formula) -> (usize, usize) {
        let (members, registry) = two_property_setup(second);
        let opts = MonitorOptions::default();
        let mut fleet = fleet_session(2, &members, opts);
        let mut solos: Vec<_> = members
            .iter()
            .map(|m| decentralized_session(2, &m.automaton, &m.registry, m.initial_state, opts))
            .collect();
        for event in sample_events(&registry) {
            fleet.feed_event(&event);
            for solo in &mut solos {
                solo.feed_event(&event);
            }
        }
        fleet.finish();
        let solo_messages: usize = solos
            .iter_mut()
            .map(|solo| {
                solo.finish();
                solo.monitor_messages()
            })
            .sum();
        (fleet.monitor_messages(), solo_messages)
    }

    #[test]
    fn fleet_transport_is_cheaper_than_sum_of_solos() {
        // `G ¬(P0.p ∧ P1.p)` asks `P1` about `P0`'s first event, exactly as
        // `F (P0.p ∧ P1.p)` does: the two tokens share an activation and a
        // destination, so they ride one message.
        let (fleet, solos) =
            fleet_and_solo_messages(|a, b| Formula::globally(Formula::not(Formula::and(a, b))));
        assert!(fleet < solos, "fleet sent {fleet} messages, solos {solos}");
        // `G P0.p` is decided locally and never sends: with nothing to merge, the
        // fleet costs exactly what the solo runs cost.
        let (fleet, solos) = fleet_and_solo_messages(|a, _| Formula::globally(a));
        assert_eq!(
            fleet, solos,
            "a silent member adds no message and saves none"
        );
    }

    /// `F (P0.p ∧ P1.p ∧ P2.p)` and `F (P0.p ∧ P1.p ∧ P2.q)` at three processes,
    /// opened where `P0.p` and `P1.p` hold, and two events of `P0` and one of `P1`
    /// on which they still do: each event asks `P2` about the member's `P2` atom,
    /// for both members.
    fn asking_p2() -> (Vec<FleetMember>, Vec<Event>) {
        let mut reg = AtomRegistry::new();
        let [p0, p1, p2, q2] = [("P0.p", 0), ("P1.p", 1), ("P2.p", 2), ("P2.q", 2)]
            .map(|(name, owner)| Formula::Atom(reg.intern(name, owner)));
        let held = Assignment::from_true_atoms(reg.ids().take(2));
        let registry = Arc::new(reg);
        let members = [p2, q2]
            .map(|goal| {
                let phi = Formula::eventually(Formula::conj([p0.clone(), p1.clone(), goal]));
                FleetMember {
                    automaton: Arc::new(MonitorAutomaton::synthesize(&phi, &registry)),
                    registry: registry.clone(),
                    initial_state: held,
                }
            })
            .to_vec();
        let events = vec![
            internal(0, 1, vec![1, 0, 0], held, 1.0),
            internal(0, 2, vec![2, 0, 0], held, 2.0),
            internal(1, 1, vec![0, 1, 0], held, 3.0),
        ];
        (members, events)
    }

    /// Feeds `events` to the monitors of `P0` and `P1`, hands every token they
    /// sent `P2` to its monitor as one mixed message in reverse order — so no
    /// member's tokens come first or together — and terminates `P2`, which has
    /// recorded nothing: the tokens park, then go home failed.  Returns what the
    /// termination sent.
    fn ask_p2_then_terminate<M: MonitorBehavior<Message = MonitorMsg>>(
        monitors: &mut [M; 3],
        events: &[Event],
    ) -> Vec<(ProcessId, MonitorMsg)> {
        let mut asked = Vec::new();
        for event in events {
            let (p, mut outbox) = (event.process, Vec::new());
            let mut ctx = MonitorContext::new(p, 3, event.time, &mut outbox);
            monitors[p].on_local_event(event, &mut ctx);
            for (to, msg) in outbox {
                assert_eq!(to, 2, "only `P2` is asked");
                asked.extend(msg.tokens);
            }
        }
        asked.reverse();
        let mut outbox = Vec::new();
        let mixed = MonitorMsg { tokens: asked };
        monitors[2].on_monitor_message(0, mixed, &mut MonitorContext::new(2, 3, 4.0, &mut outbox));
        assert!(outbox.is_empty(), "every token parks at `P2`");
        monitors[2].on_local_termination(&mut MonitorContext::new(2, 3, 5.0, &mut outbox));
        outbox
    }

    #[test]
    fn a_fleet_call_sends_member_major_messages_and_hands_each_member_its_own_tokens() {
        let (members, events) = asking_p2();
        for aggregate_tokens in [true, false] {
            // Without §4.3.2 the fork of `P0`'s first event asks again on its second.
            let opts = MonitorOptions {
                aggregate_tokens,
                dedup_global_views: false,
                ..MonitorOptions::default()
            };
            let mut fleet = [0, 1, 2].map(|p| FleetMonitor::new(p, 3, &members, opts));
            let sent = ask_p2_then_terminate(&mut fleet, &events);
            // Each member's solo run, its tokens stamped with its monitor index.
            let solos: Vec<Vec<(ProcessId, MonitorMsg)>> = members
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    let mut solo = [0, 1, 2].map(|p| {
                        let (automaton, registry) = (m.automaton.clone(), m.registry.clone());
                        DecentralizedMonitor::new(p, 3, automaton, registry, m.initial_state, opts)
                    });
                    let mut sent = ask_p2_then_terminate(&mut solo, &events);
                    let case = format!("member {k}, aggregation {aggregate_tokens}");
                    // The demux handed the member exactly its own tokens, in their
                    // order: it parked and failed what its solo monitor did.
                    assert_eq!(fleet[2].member_metrics(k), solo[2].metrics(), "{case}");
                    let mut home = [0, 0];
                    for (to, msg) in &mut sent {
                        home[*to] += msg.tokens.len();
                        msg.tokens.iter_mut().for_each(|t| t.property = k as u32);
                    }
                    assert_eq!(home, [2, 1], "home to both askers, {case}");
                    sent
                })
                .collect();
            let expected: Vec<(ProcessId, MonitorMsg)> = if aggregate_tokens {
                // One message per destination, ascending: the members' tokens
                // member-major, each member's in its emission order.
                (0..2)
                    .map(|dest| {
                        let tokens = solos
                            .iter()
                            .flatten()
                            .filter(|(to, _)| *to == dest)
                            .flat_map(|(_, msg)| msg.tokens.clone())
                            .collect();
                        (dest, MonitorMsg { tokens })
                    })
                    .collect()
            } else {
                // One message per token, member-major, in emission order.
                assert!(solos.iter().flatten().all(|(_, msg)| msg.tokens.len() == 1));
                solos.concat()
            };
            assert_eq!(sent, expected, "aggregation {aggregate_tokens}");
        }
    }

    /// Paper properties A–F at `n` processes, interned into one registry as a fleet
    /// compiles them (the formulas of the umbrella crate's `PaperProperty`).
    fn paper_properties(n: usize) -> (Vec<Formula>, Arc<AtomRegistry>) {
        let mut reg = AtomRegistry::new();
        let mut channel = |c: &str| -> Vec<Formula> {
            (0..n)
                .map(|i| Formula::Atom(reg.intern(&format!("P{i}.{c}"), i)))
                .collect()
        };
        let (p, q) = (channel("p"), channel("q"));
        let all = |fs: &[Formula]| Formula::conj(fs.iter().cloned());
        let head_until_rest = |fs: &[Formula]| Formula::until(fs[0].clone(), all(&fs[1..]));
        let formulas = vec![
            Formula::globally(Formula::until(all(&p[..n / 2]), all(&p[n / 2..]))),
            Formula::eventually(all(&p)),
            Formula::globally(head_until_rest(&p)),
            Formula::globally(Formula::until(all(&p), all(&q))),
            Formula::eventually(Formula::and(all(&p), all(&q))),
            Formula::globally(Formula::and(head_until_rest(&p), head_until_rest(&q))),
        ];
        (formulas, Arc::new(reg))
    }

    /// One simulated execution, in delivery order, with its initial global state.
    fn simulated(
        n: usize,
        seed: u64,
        initial_channels: bool,
        registry: &AtomRegistry,
    ) -> (Vec<Event>, Assignment) {
        use dlrv_distsim::{initial_global_state, run_simulation, NullMonitor, SimConfig};
        let workload = dlrv_trace::generate_workload(&dlrv_trace::WorkloadConfig {
            events_per_process: 6,
            initial_p: initial_channels,
            initial_q: initial_channels,
            ..dlrv_trace::WorkloadConfig::paper_default(n, seed)
        });
        let report = run_simulation(&workload, registry, &SimConfig::default(), |_| {
            NullMonitor::default()
        });
        let comp = &report.computation;
        let events = crate::timestamp_order(comp)
            .into_iter()
            .map(|(_, p, sn)| comp.events[p][sn as usize - 1].clone())
            .collect();
        (events, initial_global_state(&workload, registry))
    }

    #[test]
    fn a_live_session_parks_no_spare_capacity_between_activations() {
        // What the runs went through, summed over every solo session: views forked,
        // views merged, tokens parked, backlog events a terminated monitor swept.
        let (mut forked, mut parked, mut swept) = (0, 0, 0);
        let merged_before = crate::decentralized::MERGED_VIEWS.with(Cell::get);
        let solo_metrics = |solo: &FeedSession<DecentralizedMonitor>| {
            solo.monitors()
                .iter()
                .map(DecentralizedMonitor::metrics)
                .collect::<Vec<_>>()
        };
        for n in [3, 4] {
            let (formulas, registry) = paper_properties(n);
            let automata: Vec<_> = formulas
                .iter()
                .map(|phi| Arc::new(MonitorAutomaton::synthesize(phi, &registry)))
                .collect();
            let options = [MonitorOptions::default(), MonitorOptions::ALL_OFF];
            for (seed, opts) in (0..6).zip(options.iter().cycle()) {
                let (events, initial_state) = simulated(n, seed, seed % 4 < 2, &registry);
                let members: Vec<FleetMember> = automata
                    .iter()
                    .map(|automaton| FleetMember {
                        automaton: automaton.clone(),
                        registry: registry.clone(),
                        initial_state,
                    })
                    .collect();
                let mut fleet = fleet_session(n, &members, *opts);
                let mut solos: Vec<_> = automata
                    .iter()
                    .map(|a| decentralized_session(n, a, &registry, initial_state, *opts))
                    .collect();
                let check = |fleet: &FleetSession, solos: &[DecentralizedSession], at: &str| {
                    let case = format!("{n} processes, seed {seed}, {opts:?}, {at}");
                    let fleets = fleet.monitors();
                    assert!(
                        fleets.iter().all(FleetMonitor::parks_no_spare),
                        "fleet, {case}"
                    );
                    for (k, solo) in solos.iter().enumerate() {
                        assert!(
                            solo.monitors()
                                .iter()
                                .all(DecentralizedMonitor::parks_no_spare),
                            "solo session of member {k}, {case}"
                        );
                    }
                };
                for (i, event) in events.iter().enumerate() {
                    fleet.feed_event(event);
                    for solo in &mut solos {
                        solo.feed_event(event);
                    }
                    check(&fleet, &solos, &format!("after event {i}"));
                }
                let drained_while_live: Vec<usize> = solos
                    .iter()
                    .map(|solo| {
                        solo_metrics(solo)
                            .iter()
                            .map(|m| m.backlog_events_drained)
                            .sum()
                    })
                    .collect();
                fleet.finish();
                for (solo, live) in solos.iter_mut().zip(drained_while_live) {
                    solo.finish();
                    let metrics = solo_metrics(solo);
                    forked += metrics
                        .iter()
                        .map(|m| m.global_views_created - 1)
                        .sum::<usize>();
                    parked += metrics.iter().map(|m| m.tokens_parked).sum::<usize>();
                    swept += metrics
                        .iter()
                        .map(|m| m.backlog_events_drained)
                        .sum::<usize>()
                        - live;
                }
                check(&fleet, &solos, "at finish");
            }
        }
        let merged = crate::decentralized::MERGED_VIEWS.with(Cell::get) - merged_before;
        assert!(
            forked > 0 && merged > 0 && parked > 0 && swept > 0,
            "the runs must fork, merge, park and sweep: {forked} forked, {merged} merged, \
             {parked} parked, {swept} swept"
        );
    }

    /// Asserts that every member of `fleet` and every monitor of `solo` at process
    /// `p` has observed and sampled `recorded[p]` events, the latest at `latest[p]`.
    fn assert_recorded(
        fleet: &FleetSession,
        solo: &DecentralizedSession,
        (recorded, latest): ([usize; 3], [f64; 3]),
        case: &str,
    ) {
        for p in 0..3 {
            let fleet_members = fleet.monitors()[p].fleet_size();
            let members = (0..fleet_members).map(|k| fleet.monitors()[p].member_metrics(k));
            for (k, m) in members.chain([solo.monitors()[p].metrics()]).enumerate() {
                let case = format!("{case}, P{p}, member {k} of {fleet_members} (last: solo)");
                assert_eq!(m.events_observed, recorded[p], "{case}");
                assert_eq!(m.queued_events_samples, recorded[p], "{case}");
                assert_eq!(m.last_event_time, latest[p], "{case}");
            }
        }
    }

    #[test]
    fn every_member_observes_and_samples_each_recorded_event_once() {
        // A snapshot derives both counts from its process's history and reads the
        // latest event's time there: after every fed event (with the messages it
        // set off) and at finish, every solo monitor and every fleet member at a
        // process reports exactly the events fed to that process.
        let (formulas, registry) = paper_properties(3);
        let automata: Vec<_> = formulas[2..4]
            .iter()
            .map(|phi| Arc::new(MonitorAutomaton::synthesize(phi, &registry)))
            .collect();
        let opts = MonitorOptions::default();
        let mut messages = 0;
        for seed in 0..4 {
            let (events, initial_state) = simulated(3, seed, seed % 2 == 0, &registry);
            let members: Vec<FleetMember> = automata
                .iter()
                .map(|automaton| FleetMember {
                    automaton: automaton.clone(),
                    registry: registry.clone(),
                    initial_state,
                })
                .collect();
            let mut fleet = fleet_session(3, &members, opts);
            let mut solo = decentralized_session(3, &automata[0], &registry, initial_state, opts);
            let mut seen = ([0; 3], [0.0; 3]);
            assert_recorded(
                &fleet,
                &solo,
                seen,
                &format!("seed {seed}, before any event"),
            );
            for (i, event) in events.iter().enumerate() {
                fleet.feed_event(event);
                solo.feed_event(event);
                seen.0[event.process] += 1;
                seen.1[event.process] = event.time;
                assert_recorded(
                    &fleet,
                    &solo,
                    seen,
                    &format!("seed {seed}, after event {i}"),
                );
            }
            fleet.finish();
            solo.finish();
            assert_recorded(&fleet, &solo, seen, &format!("seed {seed}, at finish"));
            messages += fleet.monitor_messages() + solo.monitor_messages();
        }
        assert!(messages > 0, "the runs must exchange tokens");
    }

    /// Paper properties A–F at `n` processes as one fleet, each automaton its
    /// own `Arc`, all opened in the state where every `p` holds and no `q` does:
    /// there B is ⊤ and F is ⊥ at INIT, and A, C, D and E are open.
    fn paper_fleet_from_all_p(n: usize) -> (Vec<FleetMember>, Arc<AtomRegistry>) {
        let (formulas, registry) = paper_properties(n);
        let all_p = Assignment::from_true_atoms(
            (0..n).map(|i| registry.lookup(&format!("P{i}.p")).expect("atom P<i>.p")),
        );
        let members = formulas
            .iter()
            .map(|phi| FleetMember {
                automaton: Arc::new(MonitorAutomaton::synthesize(phi, &registry)),
                registry: registry.clone(),
                initial_state: all_p,
            })
            .collect();
        (members, registry)
    }

    #[test]
    fn an_a_to_f_fleet_at_three_processes_holds_monitors_for_c_d_and_e_only() {
        // B and F are decided at open; A and C are one formula at three
        // processes, so they share the monitor A holds as the earlier member.
        let (members, _) = paper_fleet_from_all_p(3);
        let fleet = FleetMonitor::new(0, 3, &members, MonitorOptions::default());
        use Slot::{Decided, Monitor};
        let expected = [
            Monitor(0),
            Decided(Verdict::True),
            Monitor(0),
            Monitor(1),
            Monitor(2),
            Decided(Verdict::False),
        ];
        assert_eq!(fleet.slots[..], expected);
        assert_eq!((fleet.fleet_size(), fleet.monitors().len()), (6, 3));
        // Every process of a session reads one map.
        let session = fleet_session(3, &members, MonitorOptions::default());
        let [first, rest @ ..] = session.monitors() else {
            panic!("three processes")
        };
        assert!(rest.iter().all(|f| Arc::ptr_eq(&f.slots, &first.slots)));
        assert_eq!(first.slots[..], expected);
    }

    #[test]
    fn at_four_processes_a_and_c_each_hold_their_own_monitor() {
        let (members, _) = paper_fleet_from_all_p(4);
        let fleet = FleetMonitor::new(0, 4, &members, MonitorOptions::default());
        use Slot::{Decided, Monitor};
        assert_eq!(
            fleet.slots[..],
            [
                Monitor(0),
                Decided(Verdict::True),
                Monitor(1),
                Monitor(2),
                Monitor(3),
                Decided(Verdict::False),
            ]
        );
        assert_eq!(fleet.monitors().len(), 4);
    }

    #[test]
    fn every_member_reports_its_solo_run_decided_and_shared_members_included() {
        // After every fed event and at finish, member `k`'s snapshot at each
        // process is the one its solo monitor there takes: B and F (decided at
        // open, no monitor), A and C (one monitor), D and E (their own).
        let (members, registry) = paper_fleet_from_all_p(3);
        let mut compared = 0;
        for (seed, opts) in [(1, MonitorOptions::default()), (2, MonitorOptions::ALL_OFF)] {
            let (events, _) = simulated(3, seed, false, &registry);
            let mut fleet = fleet_session(3, &members, opts);
            let mut solos: Vec<_> = members
                .iter()
                .map(|m| decentralized_session(3, &m.automaton, &registry, m.initial_state, opts))
                .collect();
            let mut check = |fleet: &FleetSession, solos: &[DecentralizedSession], at: &str| {
                for (k, solo) in solos.iter().enumerate() {
                    let solo: Vec<_> = solo.monitors().iter().map(|m| m.metrics()).collect();
                    let case = format!("member {k}, seed {seed}, {opts:?}, {at}");
                    assert_eq!(fleet_member_metrics(fleet, k), solo, "{case}");
                    compared += 1;
                }
                // The session's own read-outs are the union over every member.
                let union = |of: fn(&DecentralizedSession) -> Verdicts| {
                    solos
                        .iter()
                        .fold(Verdicts::EMPTY, |set, solo| set | of(solo))
                };
                let case = format!("session, seed {seed}, {opts:?}, {at}");
                let detected = union(DecentralizedSession::detected_verdicts);
                assert!(
                    detected.contains(&Verdict::True),
                    "B is ⊤ from the start, {case}"
                );
                assert_eq!(fleet.detected_verdicts(), detected, "{case}");
                assert_eq!(
                    fleet.verdict(),
                    crate::combined_verdict(&detected),
                    "{case}"
                );
                let possible = union(DecentralizedSession::possible_verdicts);
                assert_eq!(fleet.possible_verdicts(), possible, "{case}");
            };
            for (i, event) in events.iter().enumerate() {
                fleet.feed_event(event);
                solos.iter_mut().for_each(|solo| _ = solo.feed_event(event));
                check(&fleet, &solos, &format!("after event {i}"));
            }
            fleet.finish();
            solos.iter_mut().for_each(|solo| _ = solo.finish());
            check(&fleet, &solos, "at finish");
            let tokens = |k| {
                fleet_member_metrics(&fleet, k)
                    .iter()
                    .map(|m| m.tokens_sent)
                    .sum()
            };
            assert_eq!((tokens(1), tokens(5)), (0, 0), "decided members never send");
            assert!(
                tokens(0) > 0,
                "the shared question is explored, seed {seed}"
            );
        }
        assert!(compared > 0);
    }

    #[test]
    #[should_panic(expected = "at least one property")]
    fn empty_fleet_is_rejected() {
        let _ = FleetMonitor::new(0, 2, &[], MonitorOptions::default());
    }
}
