//! Fleet monitoring: N properties over one event stream with shared transport.
//!
//! The paper's architecture monitors one LTL property per run, so a spec suite of
//! N properties costs N full pipelines — N stream decodes, N vector-clock
//! updates and N independent token meshes over the *same* trace.  A
//! [`FleetMonitor`] collapses that: it wraps one [`DecentralizedMonitor`] per
//! property ("fleet member") behind a single [`MonitorBehavior`], so one
//! [`FeedSession`] drives every member at once and the per-property *marginal*
//! cost drops instead of multiplying.
//!
//! What is shared across members:
//!
//! * **The decoded event** — each [`Event`] is decoded (or simulated) once and
//!   every member is activated on it in turn.
//! * **The recorded history** — Algorithm 2's `history` is the process's, not the
//!   property's: the fleet copies each event's clock and state once into one flat
//!   history (32 bytes per event at three processes) and lends that history to a
//!   member for the length of one activation — local event, received message or
//!   termination.  A member holds no history of its own in between.
//! * **Transport** — with `aggregate_tokens` on (§4.3.1), outbound tokens from
//!   *all* members to the same destination ride one [`MonitorMsg`].  The
//!   [`Token::property`] field is the property-id dimension of the message: the
//!   receiving fleet demultiplexes tokens back to their members.  Termination
//!   sends nothing of its own (it is local to each member), so every message the
//!   fleet puts on the transport carries tokens.
//!
//! What is *not* shared: everything a property decides — global views, parked
//! tokens, in-flight explorations, metrics — stays strictly per member, so
//! properties cannot bleed state into each other.  This is load-bearing for the
//! equivalence guarantee below; the history does not weaken it, because it holds
//! what the process did, identically for every member, and members only read it.
//! (The scratch arena members recycle buffers through is per *thread*, shared with
//! every other monitor the thread runs; it carries capacity, never content.)
//!
//! Between activations a fleet holds monitoring state only, as every member does:
//! the members activated on one event or message emit into one outbox, leased from
//! the thread's scratch arena for that fleet activation, and the flush that ends it
//! moves everything in that outbox into the messages it sends and gives it back.
//!
//! **Equivalence.**  Each member is a deterministic state machine driven only by
//! its local events and its own tokens.  The fleet preserves, per member, the
//! exact solo schedule: members activate on the same events in the same order,
//! a merged message delivers member `k`'s tokens as exactly the message member
//! `k` would have received solo (same tokens, same order), and with
//! `aggregate_tokens` off messages pass through unmerged in emission order.
//! Per-property verdicts and token counts are therefore byte-identical to N
//! independent runs — pinned by `tests/fleet_equivalence.rs` across shard counts
//! and every [`MonitorOptions`] combination.

use crate::decentralized::{
    lease_outbox, return_outbox, DecentralizedMonitor, LocalHistory, MonitorOptions, Outbox,
};
use crate::feed::{FeedSession, SessionVerdicts};
use crate::messages::{MonitorMsg, Token};
use crate::metrics::MonitorMetrics;
use dlrv_automaton::MonitorAutomaton;
use dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_ltl::{Assignment, AtomRegistry, ProcessId, Verdict};
use dlrv_vclock::Event;
use std::collections::BTreeSet;
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

/// The monitor of one process in a fleet run: one [`DecentralizedMonitor`] per
/// property, all attached to the same process, sharing decoded events and
/// outbound transport.
///
/// Member `k`'s tokens are stamped with [`Token::property`]` == k`; on receipt
/// the fleet demultiplexes on that field, so a member only ever sees its own
/// tokens and cannot observe (or disturb) another property's exploration.
#[derive(Debug, Clone)]
pub struct FleetMonitor {
    /// §4.3.1 switch of the fleet's shared options: when set, tokens of *all*
    /// members bound for one destination merge into one batch per activation;
    /// when off, every member's messages pass through unmerged (aggregation off
    /// means off — including the cross-property kind).
    aggregate: bool,
    members: Vec<DecentralizedMonitor>,
    /// The process's recorded events, on loan to a member while it is activated;
    /// it knows the process and the number of processes.
    history: LocalHistory,
    /// Per-member regroup buffers of incoming batch demultiplexing: filled and
    /// emptied within one message, so a live session parks no capacity here.
    demux: Vec<Vec<Token>>,
}

impl FleetMonitor {
    /// Creates the fleet monitor of process `pid`: one [`DecentralizedMonitor`]
    /// per member, every member running under the same shared `opts`.
    pub fn new(
        pid: ProcessId,
        n_processes: usize,
        members: &[FleetMember],
        opts: MonitorOptions,
    ) -> Self {
        assert!(!members.is_empty(), "a fleet needs at least one property");
        let members: Vec<DecentralizedMonitor> = members
            .iter()
            .enumerate()
            .map(|(k, m)| {
                let mut monitor = DecentralizedMonitor::new(
                    pid,
                    n_processes,
                    m.automaton.clone(),
                    m.registry.clone(),
                    m.initial_state,
                    opts,
                );
                monitor.set_property_id(k as u32);
                monitor
            })
            .collect();
        let n_members = members.len();
        FleetMonitor {
            aggregate: opts.aggregate_tokens,
            members,
            history: LocalHistory::new(pid, n_processes),
            demux: vec![Vec::new(); n_members],
        }
    }

    /// Number of properties in the fleet.
    pub fn fleet_size(&self) -> usize {
        self.members.len()
    }

    /// The per-property monitors, in member (property-id) order.
    pub fn members(&self) -> &[DecentralizedMonitor] {
        &self.members
    }

    /// Metrics snapshot of member `k`'s monitor at this process.
    pub fn member_metrics(&self, k: usize) -> MonitorMetrics {
        self.members[k].metrics()
    }

    /// Runs one activation of member `k` with the process's history on loan.  The
    /// member emits into `emitted`, the outbox of the fleet activation it is part
    /// of.
    fn run_member(
        &mut self,
        k: usize,
        now: f64,
        emitted: &mut Outbox,
        activate: impl FnOnce(&mut DecentralizedMonitor, &mut MonitorContext<'_, MonitorMsg>),
    ) {
        let recorded = self.history.len();
        let member = &mut self.members[k];
        member.swap_history(&mut self.history);
        debug_assert_eq!(self.history.len(), 0, "a member keeps no history of its own");
        let (pid, n) = (self.history.process(), self.history.n_processes());
        activate(member, &mut MonitorContext::new(pid, n, now, emitted));
        member.swap_history(&mut self.history);
        debug_assert_eq!(self.history.len(), recorded, "members only read the history");
    }

    /// Sends what the members emitted during one fleet activation, and gives the
    /// emptied outbox back to the thread's arena.  Aggregation off: every message
    /// verbatim, in emission order.  On: one message per destination, in ascending
    /// destination order — exactly the order each member's own §4.3.1 flush uses,
    /// so the merge preserves every member's solo emission schedule.  The first
    /// message to a destination takes the tokens of the others, in emission order.
    fn flush(&self, mut emitted: Outbox, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        if !self.aggregate {
            for (dest, msg) in emitted.drain(..) {
                ctx.send(dest, msg);
            }
        }
        for dest in 0..self.history.n_processes() {
            let mut bound = emitted.extract_if(.., |(to, _)| *to == dest).map(|(_, msg)| msg);
            let Some(mut merged) = bound.next() else { continue };
            for mut msg in bound {
                merged.tokens.append(&mut msg.tokens);
            }
            ctx.send(dest, merged);
        }
        return_outbox(emitted);
        debug_assert!(self.parks_no_spare());
    }

    /// Whether this fleet holds monitoring state only: no regroup buffer, and no
    /// member holding spare capacity ([`DecentralizedMonitor::parks_no_spare`]).
    /// True between activations.
    pub(crate) fn parks_no_spare(&self) -> bool {
        self.demux.iter().all(|buf| buf.capacity() == 0)
            && self.members.iter().all(DecentralizedMonitor::parks_no_spare)
    }

    /// Delivers `msg`, whose tokens are all member `k`'s, to that member.
    fn deliver_member_tokens(
        &mut self,
        k: usize,
        from: ProcessId,
        msg: MonitorMsg,
        now: f64,
        emitted: &mut Outbox,
    ) {
        self.run_member(k, now, emitted, |m, ctx| m.on_monitor_message(from, msg, ctx));
    }
}

impl MonitorBehavior for FleetMonitor {
    type Message = MonitorMsg;

    fn on_local_event(&mut self, event: &Event, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        // Recorded once, for every member.
        self.history.push(event);
        let (sn, mut emitted) = (event.sn, lease_outbox());
        for k in 0..self.members.len() {
            self.run_member(k, ctx.now, &mut emitted, |m, mctx| m.on_recorded_event(sn, mctx));
        }
        self.flush(emitted, ctx);
    }

    fn on_monitor_message(
        &mut self,
        from: ProcessId,
        msg: MonitorMsg,
        ctx: &mut MonitorContext<'_, MonitorMsg>,
    ) {
        let mut emitted = lease_outbox();
        let first = msg.tokens.first().map_or(0, |t| t.property);
        if msg.tokens.iter().all(|t| t.property == first) {
            self.deliver_member_tokens(first as usize, from, msg, ctx.now, &mut emitted);
        } else {
            // Demultiplex on the property id, preserving per-member order, then
            // deliver each member's group as one activation (ascending member
            // order, matching the sender's member-major merge) and as the message
            // the member would have received solo.
            for token in msg.tokens {
                let k = token.property as usize;
                self.demux[k].push(token);
            }
            for k in 0..self.demux.len() {
                let tokens = std::mem::take(&mut self.demux[k]);
                if !tokens.is_empty() {
                    self.deliver_member_tokens(k, from, MonitorMsg { tokens }, ctx.now, &mut emitted);
                }
            }
        }
        self.flush(emitted, ctx);
    }

    fn on_local_termination(&mut self, ctx: &mut MonitorContext<'_, MonitorMsg>) {
        let mut emitted = lease_outbox();
        for k in 0..self.members.len() {
            self.run_member(k, ctx.now, &mut emitted, |m, mctx| m.on_local_termination(mctx));
        }
        self.flush(emitted, ctx);
    }
}

impl SessionVerdicts for FleetMonitor {
    fn events_recorded(&self) -> u64 {
        self.history.len() as u64
    }

    fn has_detected(&self, verdict: Verdict) -> bool {
        self.members.iter().any(|m| m.has_detected(verdict))
    }

    fn possible_verdicts(&self) -> BTreeSet<Verdict> {
        let mut set = BTreeSet::new();
        for m in &self.members {
            set.extend(m.possible_verdicts());
        }
        set
    }
}

/// A feed session monitoring a whole property fleet in one pass.
pub type FleetSession = FeedSession<FleetMonitor>;

/// Creates a fleet session: one [`FleetMonitor`] per process, each wrapping one
/// [`DecentralizedMonitor`] per property, all under the same shared options.
pub fn fleet_session(
    n_processes: usize,
    members: &[FleetMember],
    opts: MonitorOptions,
) -> FleetSession {
    FeedSession::new(n_processes, |pid| {
        FleetMonitor::new(pid, n_processes, members, opts)
    })
}

/// Union of ⊤/⊥ verdicts member `k` detected at any process of `session`.
pub fn fleet_member_detected(session: &FleetSession, k: usize) -> BTreeSet<Verdict> {
    let mut set = BTreeSet::new();
    for fleet in session.monitors() {
        set.extend(fleet.members()[k].detected_final_verdicts());
    }
    set
}

/// Union of the verdicts member `k` still considers possible at any process.
pub fn fleet_member_possible(session: &FleetSession, k: usize) -> BTreeSet<Verdict> {
    let mut set = BTreeSet::new();
    for fleet in session.monitors() {
        set.extend(fleet.members()[k].possible_verdicts());
    }
    set
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
    use dlrv_ltl::Formula;
    use std::cell::Cell;
    use dlrv_vclock::{EventKind, VectorClock};

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
                .map(|m| {
                    decentralized_session(2, &m.automaton, &m.registry, m.initial_state, opts)
                })
                .collect();
            for event in sample_events(&registry) {
                fleet.feed_owned(event.clone());
                for solo in &mut solos {
                    solo.feed_owned(event.clone());
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
                let solo_tokens: usize =
                    solo.monitors().iter().map(|m| m.metrics().tokens_sent).sum();
                assert_eq!(fleet_tokens, solo_tokens, "token count of member {k} under {opts:?}");
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
            fleet.feed_owned(event.clone());
            for solo in &mut solos {
                solo.feed_owned(event.clone());
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
        let (fleet, solos) = fleet_and_solo_messages(|a, b| {
            Formula::globally(Formula::not(Formula::and(a, b)))
        });
        assert!(fleet < solos, "fleet sent {fleet} messages, solos {solos}");
        // `G P0.p` is decided locally and never sends: with nothing to merge, the
        // fleet costs exactly what the solo runs cost.
        let (fleet, solos) = fleet_and_solo_messages(|a, _| Formula::globally(a));
        assert_eq!(fleet, solos, "a silent member adds no message and saves none");
    }

    /// Paper properties A–F at `n` processes, interned into one registry as a fleet
    /// compiles them (the formulas of the umbrella crate's `PaperProperty`).
    fn paper_properties(n: usize) -> (Vec<Formula>, Arc<AtomRegistry>) {
        let mut reg = AtomRegistry::new();
        let mut channel = |c: &str| -> Vec<Formula> {
            (0..n).map(|i| Formula::Atom(reg.intern(&format!("P{i}.{c}"), i))).collect()
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
        let report =
            run_simulation(&workload, registry, &SimConfig::default(), |_| NullMonitor::default());
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
            solo.monitors().iter().map(DecentralizedMonitor::metrics).collect::<Vec<_>>()
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
                    assert!(fleets.iter().all(FleetMonitor::parks_no_spare), "fleet, {case}");
                    for (k, solo) in solos.iter().enumerate() {
                        assert!(
                            solo.monitors().iter().all(DecentralizedMonitor::parks_no_spare),
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
                    .map(|solo| solo_metrics(solo).iter().map(|m| m.backlog_events_drained).sum())
                    .collect();
                fleet.finish();
                for (solo, live) in solos.iter_mut().zip(drained_while_live) {
                    solo.finish();
                    let metrics = solo_metrics(solo);
                    forked += metrics.iter().map(|m| m.global_views_created - 1).sum::<usize>();
                    parked += metrics.iter().map(|m| m.tokens_parked).sum::<usize>();
                    swept += metrics.iter().map(|m| m.backlog_events_drained).sum::<usize>() - live;
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

    #[test]
    #[should_panic(expected = "at least one property")]
    fn empty_fleet_is_rejected() {
        let _ = FleetMonitor::new(0, 2, &[], MonitorOptions::default());
    }
}
