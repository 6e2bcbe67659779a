//! The in-process reference: the workload's records replayed on the calling
//! thread through `FeedSession`, one `feed_event` call per event.
//!
//! It serves twice.  Its outcomes are what every pipeline rep is checked
//! against, and the duration of each `feed_event` call (event in → every
//! resulting token delivered, verdict updated, nothing queued) is the feed
//! latency sample.

use crate::stats::nanos_since;
use crate::workload::Compiled;
use dlrv_ltl::Assignment;
use dlrv_monitor::{
    combined_verdict, decentralized_session, fleet_member_detected, fleet_member_metrics,
    fleet_member_possible, fleet_session, DecentralizedSession, FleetMember, FleetSession,
    MonitorMetrics, MonitorOptions,
};
use dlrv_stream::{
    FleetMemberSpec, FrameDecoder, OpenRequest, PropertyOutcome, SessionOutcome, SessionSpec,
    SessionStream, StreamRecord,
};
use dlrv_vclock::Event;
use std::sync::Arc;
use std::time::Instant;

/// Which monitors a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Members {
    /// What the workload monitors: the fleet when it has several properties,
    /// its single property otherwise.
    Workload,
    /// Property `k` alone (a solo pass over a fleet workload's stream).
    Solo(usize),
}

/// The `SessionSpec` the stream runtime opens for `open`: what the workload
/// monitors (its fleet, or its single property) under the default options.
pub fn session_spec(compiled: &Compiled, open: &OpenRequest<'_>) -> Arc<SessionSpec> {
    let fleet = if compiled.members.len() > 1 {
        compiled
            .members
            .iter()
            .map(|m| FleetMemberSpec {
                property: m.name.clone(),
                automaton: m.automaton.clone(),
                registry: compiled.registry.clone(),
                initial_state: open.initial_state,
            })
            .collect()
    } else {
        Vec::new()
    };
    Arc::new(SessionSpec {
        n_processes: open.n_processes,
        automaton: compiled.members[0].automaton.clone(),
        registry: compiled.registry.clone(),
        initial_state: open.initial_state,
        options: MonitorOptions::default(),
        fleet,
    })
}

/// One reference session: solo or fleet, like the runtime's shard sessions.
pub enum RefSession {
    /// One property.
    Solo(DecentralizedSession),
    /// The whole fleet in one pass.
    Fleet(FleetSession),
}

impl RefSession {
    /// Opens a session over `compiled` starting from `initial_state`.
    pub fn open(
        compiled: &Compiled,
        members: Members,
        n_processes: usize,
        initial_state: Assignment,
        options: MonitorOptions,
    ) -> RefSession {
        let solo = |k: usize| {
            RefSession::Solo(decentralized_session(
                n_processes,
                &compiled.members[k].automaton,
                &compiled.registry,
                initial_state,
                options,
            ))
        };
        match members {
            Members::Solo(k) => solo(k),
            Members::Workload if compiled.members.len() == 1 => solo(0),
            Members::Workload => {
                let fleet: Vec<FleetMember> = compiled
                    .members
                    .iter()
                    .map(|m| FleetMember {
                        automaton: m.automaton.clone(),
                        registry: compiled.registry.clone(),
                        initial_state,
                    })
                    .collect();
                RefSession::Fleet(fleet_session(n_processes, &fleet, options))
            }
        }
    }

    /// One `FeedSession::feed_event` call.
    #[inline]
    pub fn feed(&mut self, event: &Arc<Event>) {
        match self {
            RefSession::Solo(s) => {
                s.feed_event(event);
            }
            RefSession::Fleet(s) => {
                s.feed_event(event);
            }
        }
    }

    /// End of stream.
    pub fn finish(&mut self) {
        match self {
            RefSession::Solo(s) => {
                s.finish();
            }
            RefSession::Fleet(s) => {
                s.finish();
            }
        }
    }

    /// The session's final state in the shape the stream runtime reports, built
    /// from the sessions' public accessors only.
    pub fn outcome(&self, compiled: &Compiled) -> SessionOutcome {
        match self {
            RefSession::Solo(s) => {
                let metrics: Vec<MonitorMetrics> =
                    s.monitors().iter().map(|m| m.metrics()).collect();
                SessionOutcome {
                    verdict: s.verdict(),
                    detected_verdicts: s.detected_verdicts(),
                    possible_verdicts: s.possible_verdicts(),
                    monitor_messages: s.monitor_messages(),
                    monitor_tokens: metrics.iter().map(|m| m.tokens_sent).sum(),
                    events: metrics.iter().map(|m| m.events_observed).sum(),
                    global_views: metrics.iter().map(|m| m.global_views_created).sum(),
                    peak_global_views: metrics.iter().map(|m| m.max_live_views).sum(),
                    drained: false,
                    per_property: Vec::new(),
                }
            }
            RefSession::Fleet(s) => {
                let mut events = 0;
                let per_property: Vec<PropertyOutcome> = compiled
                    .members
                    .iter()
                    .enumerate()
                    .map(|(k, member)| {
                        let metrics = fleet_member_metrics(s, k);
                        if k == 0 {
                            events = metrics.iter().map(|m| m.events_observed).sum();
                        }
                        let detected = fleet_member_detected(s, k);
                        PropertyOutcome {
                            property: member.name.clone(),
                            verdict: combined_verdict(&detected),
                            detected_verdicts: detected,
                            possible_verdicts: fleet_member_possible(s, k),
                            monitor_tokens: metrics.iter().map(|m| m.tokens_sent).sum(),
                            global_views: metrics.iter().map(|m| m.global_views_created).sum(),
                            peak_global_views: metrics.iter().map(|m| m.max_live_views).sum(),
                        }
                    })
                    .collect();
                SessionOutcome {
                    verdict: s.verdict(),
                    detected_verdicts: s.detected_verdicts(),
                    possible_verdicts: s.possible_verdicts(),
                    monitor_messages: s.monitor_messages(),
                    monitor_tokens: per_property.iter().map(|p| p.monitor_tokens).sum(),
                    events,
                    global_views: per_property.iter().map(|p| p.global_views).sum(),
                    peak_global_views: per_property.iter().map(|p| p.peak_global_views).sum(),
                    drained: false,
                    per_property,
                }
            }
        }
    }
}

/// Decodes a wire stream through a `FrameDecoder` fed 64 KiB chunks (what
/// `ReaderSource` does) and hands every record to `each`, in stream order.
pub fn for_each_record(bytes: &[u8], mut each: impl FnMut(StreamRecord)) {
    let mut decoder = FrameDecoder::new();
    for chunk in bytes.chunks(64 * 1024) {
        decoder.push(chunk);
        while let Some(record) = decoder
            .next_record()
            .expect("a freshly encoded stream decodes")
        {
            each(record);
        }
    }
    assert_eq!(decoder.pending_bytes(), 0, "stream ends mid-frame");
}

/// Decodes a wire stream back into its records, in stream order.
pub fn decode_records(bytes: &[u8]) -> Vec<StreamRecord> {
    let mut records = Vec::new();
    for_each_record(bytes, |record| records.push(record));
    records
}

/// The result of one reference pass.
#[derive(Default)]
pub struct Reference {
    /// Final outcome of every session, indexed by session id.
    pub outcomes: Vec<SessionOutcome>,
    /// Duration of every `feed_event` call in nanoseconds, in call order.
    pub feed_nanos: Vec<u32>,
    /// Total time constructing sessions.
    pub open_nanos: u64,
    /// Total time in `finish`.
    pub finish_nanos: u64,
}

impl Reference {
    /// Sum of all `feed_event` call durations.
    pub fn feed_total_nanos(&self) -> u64 {
        self.feed_nanos.iter().map(|&n| u64::from(n)).sum()
    }
}

/// Replays `records` in the order given — stream order, so as many sessions are
/// live at once as the workload keeps open.  Session ids must be dense from 0.
pub fn replay(
    compiled: &Compiled,
    records: Vec<StreamRecord>,
    members: Members,
    options: MonitorOptions,
) -> Reference {
    let mut live: Vec<Option<RefSession>> = Vec::new();
    let mut reference = Reference::default();
    let mut outcomes: Vec<Option<SessionOutcome>> = Vec::new();
    for record in records {
        match record {
            StreamRecord::Open {
                session,
                n_processes,
                initial_state,
                ..
            } => {
                let id = session as usize;
                if live.len() <= id {
                    live.resize_with(id + 1, || None);
                    outcomes.resize_with(id + 1, || None);
                }
                let t = Instant::now();
                live[id] = Some(RefSession::open(
                    compiled,
                    members,
                    n_processes,
                    Assignment(initial_state),
                    options,
                ));
                reference.open_nanos += nanos_since(t);
            }
            StreamRecord::Event { session, event } => {
                let feed = live[session as usize]
                    .as_mut()
                    .expect("event of an open session");
                let event = Arc::new(event);
                let t = Instant::now();
                feed.feed(&event);
                reference
                    .feed_nanos
                    .push(nanos_since(t).min(u64::from(u32::MAX)) as u32);
            }
            StreamRecord::Close { session } => {
                let mut feed = live[session as usize]
                    .take()
                    .expect("close of an open session");
                let t = Instant::now();
                feed.finish();
                reference.finish_nanos += nanos_since(t);
                outcomes[session as usize] = Some(feed.outcome(compiled));
            }
        }
    }
    reference.outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every session of the stream is closed"))
        .collect();
    reference
}

/// Feeds `sessions` one at a time (open, every event, finish): the hot-cache
/// counterpart of [`replay`].  Returns nanoseconds spent in `feed_event`.
pub fn replay_hot(
    compiled: &Compiled,
    sessions: &[SessionStream],
    members: Members,
    options: MonitorOptions,
) -> (u64, Vec<SessionOutcome>) {
    let mut feed_nanos = 0u64;
    let mut outcomes = Vec::with_capacity(sessions.len());
    for stream in sessions {
        let mut feed = RefSession::open(
            compiled,
            members,
            stream.n_processes,
            Assignment(stream.initial_state),
            options,
        );
        let events: Vec<Arc<Event>> = stream.events.iter().cloned().map(Arc::new).collect();
        let t = Instant::now();
        for event in &events {
            feed.feed(event);
        }
        feed_nanos += nanos_since(t);
        feed.finish();
        outcomes.push(feed.outcome(compiled));
    }
    (feed_nanos, outcomes)
}
