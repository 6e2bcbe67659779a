//! The sharded multi-session runtime: N worker shards, each owning the incremental
//! [`FeedSession`](dlrv_monitor::FeedSession)s of the sessions hashed onto it.
//!
//! The design goals, in order:
//!
//! * **Isolation** — sessions are independent monitored executions; a session's
//!   monitors live on exactly one shard, so no lock is ever taken around monitor
//!   state.
//! * **Backpressure** — shard mailboxes are bounded: either
//!   `std::sync::mpsc::sync_channel`s or, with [`StreamConfig::use_rings`], the
//!   lock-light [`SpscRing`]s of [`crate::ring`].  Either
//!   way a producer that outruns a shard blocks (after a counted non-blocking
//!   miss) instead of growing an unbounded queue, and the per-shard stall count
//!   lands in [`ShardMetrics::backpressure_stalls`].
//! * **Batching** — a shard drains up to [`StreamConfig::batch_size`] records per
//!   wakeup and applies them in one go, amortizing channel overhead on hot shards.
//! * **Graceful drain** — shutdown delivers every in-flight record, finishes any
//!   session the stream never closed, and reports per-shard plus aggregate metrics.
//!
//! Shards are plain `std::thread`s — this workspace is fully offline, so there is no
//! async executor; the paper's monitors are CPU-bound anyway, which makes one thread
//! per shard the right shape.

use crate::codec::{EventSource, SessionId, StreamRecord};
use crate::ring::{PopState, SpscRing};
use crate::wire::StreamError;
use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::{Assignment, AtomRegistry, Verdict};
use dlrv_monitor::{
    combined_verdict, decentralized_session, fleet_session, DecentralizedSession, FleetMember,
    FleetSession, MonitorOptions, ShardMetrics,
};
use dlrv_vclock::Event;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing knobs of a [`ShardedRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of worker shards (threads).
    pub n_shards: usize,
    /// Bound of each shard's mailbox; a full mailbox blocks producers.
    pub mailbox_capacity: usize,
    /// Maximum records a shard applies per wakeup.
    pub batch_size: usize,
    /// Use [`SpscRing`] mailboxes instead of `sync_channel`s (the hot-path
    /// default; the channel path remains as the A/B reference).
    pub use_rings: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            n_shards: 4,
            mailbox_capacity: 1024,
            batch_size: 32,
            use_rings: true,
        }
    }
}

/// Everything a shard needs to instantiate a session's monitors.
///
/// Specs are shared (`Arc`) across sessions monitoring the same property, so the
/// expensive automaton synthesis happens once per property, not once per session.
#[derive(Debug)]
pub struct SessionSpec {
    /// Number of processes in the monitored execution.
    pub n_processes: usize,
    /// The monitor-automaton replica every per-process monitor shares.
    pub automaton: Arc<MonitorAutomaton>,
    /// The atom registry (conjunct ownership).
    pub registry: Arc<AtomRegistry>,
    /// Initial global state of the session.
    pub initial_state: Assignment,
    /// §4.3 optimization switches.
    pub options: MonitorOptions,
    /// Fleet mode: when non-empty, the session monitors this whole property
    /// fleet in one pass (`automaton`/`registry`/`initial_state` above are
    /// ignored — each member carries its own) and the shard instantiates one
    /// [`FleetSession`] instead of a solo [`DecentralizedSession`].
    pub fleet: Vec<FleetMemberSpec>,
}

/// One property of a fleet [`SessionSpec`].
#[derive(Debug, Clone)]
pub struct FleetMemberSpec {
    /// The property's name, reported per member in [`SessionOutcome::per_property`].
    pub property: String,
    /// The property's monitor automaton.
    pub automaton: Arc<MonitorAutomaton>,
    /// The property's atom registry.
    pub registry: Arc<AtomRegistry>,
    /// The initial global state of the property's monitors.
    pub initial_state: Assignment,
}

/// An [`StreamRecord::Open`] as seen by the spec resolver of [`ShardedRuntime::pump`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRequest<'a> {
    /// The session being opened.
    pub session: SessionId,
    /// Property name from the wire.
    pub property: &'a str,
    /// Process count from the wire.
    pub n_processes: usize,
    /// Initial global state decoded from the wire bits.
    pub initial_state: Assignment,
}

/// The final state of one monitored session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The combined final verdict (⊥ dominates ⊤ dominates ?).
    pub verdict: Verdict,
    /// Union of ⊤/⊥ verdicts detected by the session's monitors.
    pub detected_verdicts: BTreeSet<Verdict>,
    /// Union of verdicts the monitors still considered possible at close.
    pub possible_verdicts: BTreeSet<Verdict>,
    /// Monitor-to-monitor (token) messages exchanged inside the session.
    pub monitor_messages: usize,
    /// Tokens carried by those messages (≥ `monitor_messages`' token share when
    /// aggregation batches several tokens into one message).
    pub monitor_tokens: usize,
    /// Program events the session's monitors observed.
    pub events: usize,
    /// Global views created across the session's monitors.
    pub global_views: usize,
    /// Sum over the session's monitors of their peak concurrently-live view counts.
    pub peak_global_views: usize,
    /// True when the session was finished by shutdown drain rather than an explicit
    /// [`StreamRecord::Close`].
    pub drained: bool,
    /// Per-property outcomes of a fleet session, in member order (empty for a
    /// solo session).
    pub per_property: Vec<PropertyOutcome>,
}

/// The final state of one property of a fleet session.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyOutcome {
    /// The property's name (from its [`FleetMemberSpec`]).
    pub property: String,
    /// The property's combined final verdict.
    pub verdict: Verdict,
    /// ⊤/⊥ verdicts the property's monitors detected.
    pub detected_verdicts: BTreeSet<Verdict>,
    /// Verdicts the property's monitors still considered possible at close.
    pub possible_verdicts: BTreeSet<Verdict>,
    /// Tokens the property's monitors sent (byte-identical to a solo run of the
    /// same property — pinned by `tests/fleet_equivalence.rs`).
    pub monitor_tokens: usize,
    /// Global views the property's monitors created.
    pub global_views: usize,
    /// Sum of the property's monitors' peak concurrently-live view counts.
    pub peak_global_views: usize,
}

/// Aggregate result of a runtime's lifetime, produced by [`ShardedRuntime::shutdown`].
#[derive(Debug)]
pub struct StreamReport {
    /// Per-shard measurements, in shard order.
    pub per_shard: Vec<ShardMetrics>,
    /// Outcome of every session ever opened, keyed by session id.
    pub sessions: BTreeMap<SessionId, SessionOutcome>,
    /// Wall-clock seconds from start to the end of shutdown.
    pub wall_secs: f64,
    /// Program events applied across all shards.
    pub total_events: usize,
    /// `total_events / wall_secs` (0 for an empty run).
    pub events_per_sec: f64,
}

enum ShardMsg {
    Open {
        session: SessionId,
        spec: Arc<SessionSpec>,
        enqueued: Instant,
    },
    Event {
        session: SessionId,
        event: Event,
        enqueued: Instant,
    },
    Close {
        session: SessionId,
        enqueued: Instant,
    },
    /// Shutdown sentinel: sent last, so everything before it is already delivered.
    Drain,
}

struct ShardResult {
    metrics: ShardMetrics,
    outcomes: Vec<(SessionId, SessionOutcome)>,
}

/// Producer-side handle of one shard's mailbox.
enum ShardMailbox {
    Channel(SyncSender<ShardMsg>),
    Ring(Arc<SpscRing<ShardMsg>>),
}

/// Consumer-side handle of one shard's mailbox.
enum ShardInbox {
    Channel(Receiver<ShardMsg>),
    Ring(Arc<SpscRing<ShardMsg>>),
}

/// The online sharded monitoring engine.
///
/// ```
/// use dlrv_stream::{ShardedRuntime, SessionSpec, StreamConfig};
/// use dlrv_monitor::MonitorOptions;
/// use dlrv_ltl::{Assignment, AtomRegistry, Formula};
/// use dlrv_automaton::MonitorAutomaton;
/// use std::sync::Arc;
///
/// let mut reg = AtomRegistry::new();
/// let a = reg.intern("P0.p", 0);
/// let b = reg.intern("P1.p", 1);
/// let phi = Formula::eventually(Formula::and(Formula::Atom(a), Formula::Atom(b)));
/// let spec = Arc::new(SessionSpec {
///     n_processes: 2,
///     automaton: Arc::new(MonitorAutomaton::synthesize(&phi, &reg)),
///     registry: Arc::new(reg),
///     initial_state: Assignment::ALL_FALSE,
///     options: MonitorOptions::default(),
///     fleet: Vec::new(),
/// });
/// let runtime = ShardedRuntime::start(StreamConfig { n_shards: 2, ..Default::default() });
/// runtime.open_session(7, spec);
/// // … feed events with runtime.feed_event(7, event) …
/// runtime.close_session(7);
/// let report = runtime.shutdown();
/// assert!(report.sessions.contains_key(&7));
/// ```
pub struct ShardedRuntime {
    mailboxes: Vec<ShardMailbox>,
    handles: Vec<JoinHandle<ShardResult>>,
    stalls: Vec<AtomicUsize>,
    started: Instant,
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("n_shards", &self.mailboxes.len())
            .finish_non_exhaustive()
    }
}

impl ShardedRuntime {
    /// Spawns `config.n_shards` worker threads and returns the handle used to route
    /// records at them.
    pub fn start(config: StreamConfig) -> ShardedRuntime {
        assert!(config.n_shards > 0, "need at least one shard");
        assert!(config.mailbox_capacity > 0, "mailboxes must hold at least one record");
        assert!(config.batch_size > 0, "batches must hold at least one record");
        let mut mailboxes = Vec::with_capacity(config.n_shards);
        let mut handles = Vec::with_capacity(config.n_shards);
        for shard in 0..config.n_shards {
            let batch_size = config.batch_size;
            let inbox = if config.use_rings {
                let ring = Arc::new(SpscRing::new(config.mailbox_capacity));
                mailboxes.push(ShardMailbox::Ring(Arc::clone(&ring)));
                ShardInbox::Ring(ring)
            } else {
                let (tx, rx) = sync_channel::<ShardMsg>(config.mailbox_capacity);
                mailboxes.push(ShardMailbox::Channel(tx));
                ShardInbox::Channel(rx)
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("dlrv-shard-{shard}"))
                    .spawn(move || shard_worker(shard, inbox, batch_size))
                    .expect("spawning a shard worker failed"),
            );
        }
        ShardedRuntime {
            stalls: (0..config.n_shards).map(|_| AtomicUsize::new(0)).collect(),
            mailboxes,
            handles,
            started: Instant::now(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.mailboxes.len()
    }

    /// The shard a session is routed to (stable hash of the session id, so a
    /// session's records always land on the same mailbox and stay FIFO).
    pub fn shard_of(&self, session: SessionId) -> usize {
        (splitmix64(session) % self.mailboxes.len() as u64) as usize
    }

    /// Opens `session` with the monitors described by `spec`.
    pub fn open_session(&self, session: SessionId, spec: Arc<SessionSpec>) {
        self.send(
            self.shard_of(session),
            ShardMsg::Open {
                session,
                spec,
                enqueued: Instant::now(),
            },
        );
    }

    /// Routes one program event at its session.  Blocks when the shard's mailbox is
    /// full — that is the backpressure contract.
    pub fn feed_event(&self, session: SessionId, event: Event) {
        self.send(
            self.shard_of(session),
            ShardMsg::Event {
                session,
                event,
                enqueued: Instant::now(),
            },
        );
    }

    /// Closes `session`: its monitors observe end-of-stream and the final verdict is
    /// recorded for the shutdown report.
    pub fn close_session(&self, session: SessionId) {
        self.send(
            self.shard_of(session),
            ShardMsg::Close {
                session,
                enqueued: Instant::now(),
            },
        );
    }

    /// Drives an [`EventSource`] to exhaustion: every record is routed to its shard,
    /// with `resolve` turning each [`StreamRecord::Open`] into a [`SessionSpec`]
    /// (typically a cache keyed by property name and process count).
    ///
    /// Returns the number of records pumped.
    pub fn pump(
        &self,
        source: &mut dyn EventSource,
        resolve: &mut dyn FnMut(&OpenRequest<'_>) -> Result<Arc<SessionSpec>, StreamError>,
    ) -> Result<usize, StreamError> {
        let mut pumped = 0usize;
        while let Some(record) = source.next_record()? {
            match record {
                StreamRecord::Open {
                    session,
                    property,
                    n_processes,
                    initial_state,
                } => {
                    let spec = resolve(&OpenRequest {
                        session,
                        property: &property,
                        n_processes,
                        initial_state: Assignment(initial_state),
                    })?;
                    self.open_session(session, spec);
                }
                StreamRecord::Event { session, event } => self.feed_event(session, event),
                StreamRecord::Close { session } => self.close_session(session),
            }
            pumped += 1;
        }
        Ok(pumped)
    }

    /// Graceful shutdown: delivers everything still queued, finishes sessions the
    /// stream never closed, joins the workers and returns the report.
    pub fn shutdown(self) -> StreamReport {
        for mailbox in &self.mailboxes {
            match mailbox {
                // A full mailbox blocks here too; Drain must arrive after all records.
                ShardMailbox::Channel(tx) => {
                    let _ = tx.send(ShardMsg::Drain);
                }
                // Rings need no sentinel: close marks end-of-stream and the
                // consumer keeps popping until empty before it sees Closed.
                ShardMailbox::Ring(ring) => ring.close(),
            }
        }
        drop(self.mailboxes);
        let mut per_shard = Vec::with_capacity(self.handles.len());
        let mut sessions = BTreeMap::new();
        for (shard, handle) in self.handles.into_iter().enumerate() {
            let mut result = handle.join().expect("shard worker panicked");
            result.metrics.backpressure_stalls = self.stalls[shard].load(Ordering::Relaxed);
            per_shard.push(result.metrics);
            for (id, outcome) in result.outcomes {
                sessions.insert(id, outcome);
            }
        }
        let wall_secs = self.started.elapsed().as_secs_f64();
        let total_events: usize = per_shard.iter().map(|m| m.events_processed).sum();
        let events_per_sec = if wall_secs > 0.0 {
            total_events as f64 / wall_secs
        } else {
            0.0
        };
        StreamReport {
            per_shard,
            sessions,
            wall_secs,
            total_events,
            events_per_sec,
        }
    }

    fn send(&self, shard: usize, msg: ShardMsg) {
        match &self.mailboxes[shard] {
            ShardMailbox::Channel(tx) => match tx.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(msg)) => {
                    self.stalls[shard].fetch_add(1, Ordering::Relaxed);
                    tx.send(msg)
                        .expect("shard worker terminated while its mailbox was full");
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("shard worker terminated before shutdown");
                }
            },
            ShardMailbox::Ring(ring) => {
                if let Err(msg) = ring.try_push(msg) {
                    self.stalls[shard].fetch_add(1, Ordering::Relaxed);
                    ring.push_blocking(msg);
                }
            }
        }
    }
}

/// SplitMix64 finalizer: a cheap, deterministic session-id hash (the std hasher is
/// randomly seeded per process, which would make shard routing irreproducible).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard-resident session: solo (one property) or a whole fleet.
enum ShardSession {
    Solo(DecentralizedSession),
    Fleet {
        session: FleetSession,
        /// The fleet spec, kept for the per-property names of the outcome.
        spec: Arc<SessionSpec>,
    },
}

impl ShardSession {
    fn of(spec: &Arc<SessionSpec>) -> ShardSession {
        if spec.fleet.is_empty() {
            ShardSession::Solo(decentralized_session(
                spec.n_processes,
                &spec.automaton,
                &spec.registry,
                spec.initial_state,
                spec.options,
            ))
        } else {
            let members: Vec<FleetMember> = spec
                .fleet
                .iter()
                .map(|m| FleetMember {
                    automaton: m.automaton.clone(),
                    registry: m.registry.clone(),
                    initial_state: m.initial_state,
                })
                .collect();
            ShardSession::Fleet {
                session: fleet_session(spec.n_processes, &members, spec.options),
                spec: spec.clone(),
            }
        }
    }

    fn n_processes(&self) -> usize {
        match self {
            ShardSession::Solo(s) => s.n_processes(),
            ShardSession::Fleet { session, .. } => session.n_processes(),
        }
    }

    fn feed_owned(&mut self, event: Event) {
        match self {
            ShardSession::Solo(s) => {
                s.feed_owned(event);
            }
            ShardSession::Fleet { session, .. } => {
                session.feed_owned(event);
            }
        }
    }

    fn finish(&mut self) {
        match self {
            ShardSession::Solo(s) => {
                s.finish();
            }
            ShardSession::Fleet { session, .. } => {
                session.finish();
            }
        }
    }
}

fn shard_worker(shard: usize, inbox: ShardInbox, batch_size: usize) -> ShardResult {
    let mut sessions: BTreeMap<SessionId, ShardSession> = BTreeMap::new();
    let mut outcomes: Vec<(SessionId, SessionOutcome)> = Vec::new();
    let mut metrics = ShardMetrics {
        shard,
        ..ShardMetrics::default()
    };
    let mut latency_sum = 0.0f64;
    let mut latency_samples = 0usize;
    let mut batch: Vec<ShardMsg> = Vec::with_capacity(batch_size);
    let mut draining = false;

    while !draining {
        batch.clear();
        match &inbox {
            ShardInbox::Channel(rx) => {
                match rx.recv() {
                    Ok(msg) => batch.push(msg),
                    // All senders gone without a Drain (runtime dropped): treat as drain.
                    Err(_) => break,
                }
                while batch.len() < batch_size {
                    match rx.try_recv() {
                        Ok(msg) => batch.push(msg),
                        Err(_) => break,
                    }
                }
            }
            ShardInbox::Ring(ring) => match ring.pop_batch_blocking(&mut batch, batch_size) {
                PopState::Items => {}
                // Ring closed after its last record: everything is delivered.
                PopState::Closed => break,
                PopState::Empty => unreachable!("blocking pop never returns Empty"),
            },
        }

        let started = Instant::now();
        metrics.batches += 1;
        metrics.max_batch_len = metrics.max_batch_len.max(batch.len());
        for msg in batch.drain(..) {
            let mut note_latency = |enqueued: Instant| {
                let lat = enqueued.elapsed().as_secs_f64();
                latency_sum += lat;
                latency_samples += 1;
                metrics.max_queue_latency_secs = metrics.max_queue_latency_secs.max(lat);
            };
            match msg {
                ShardMsg::Open {
                    session,
                    spec,
                    enqueued,
                } => {
                    note_latency(enqueued);
                    if sessions.contains_key(&session) {
                        metrics.routing_errors += 1;
                        continue;
                    }
                    sessions.insert(session, ShardSession::of(&spec));
                    metrics.sessions_opened += 1;
                }
                ShardMsg::Event {
                    session,
                    event,
                    enqueued,
                } => {
                    note_latency(enqueued);
                    match sessions.get_mut(&session) {
                        // A decodable but inconsistent event (process index or clock
                        // width not matching the session) must not panic the shard —
                        // the wire may carry anything; count it like a misroute.
                        Some(feed)
                            if event.process < feed.n_processes()
                                && event.vc.len() == feed.n_processes() =>
                        {
                            feed.feed_owned(event);
                            metrics.events_processed += 1;
                        }
                        _ => metrics.routing_errors += 1,
                    }
                }
                ShardMsg::Close { session, enqueued } => {
                    note_latency(enqueued);
                    match sessions.remove(&session) {
                        Some(mut feed) => {
                            feed.finish();
                            outcomes.push((session, outcome_of(feed, false)));
                            metrics.sessions_closed += 1;
                        }
                        None => metrics.routing_errors += 1,
                    }
                }
                ShardMsg::Drain => draining = true,
            }
        }
        metrics.busy_secs += started.elapsed().as_secs_f64();
    }

    // Graceful drain: the stream ended without closing these sessions.
    for (id, mut feed) in std::mem::take(&mut sessions) {
        feed.finish();
        outcomes.push((id, outcome_of(feed, true)));
    }
    metrics.avg_queue_latency_secs = if latency_samples > 0 {
        latency_sum / latency_samples as f64
    } else {
        0.0
    };
    ShardResult { metrics, outcomes }
}

fn outcome_of(session: ShardSession, drained: bool) -> SessionOutcome {
    match session {
        ShardSession::Solo(session) => {
            let mut events = 0usize;
            let mut global_views = 0usize;
            let mut monitor_tokens = 0usize;
            let mut peak_global_views = 0usize;
            for m in session.monitors() {
                let mm = m.metrics();
                events += mm.events_observed;
                global_views += mm.global_views_created;
                monitor_tokens += mm.tokens_sent;
                peak_global_views += mm.max_live_views;
            }
            SessionOutcome {
                verdict: session.verdict(),
                detected_verdicts: session.detected_verdicts(),
                possible_verdicts: session.possible_verdicts(),
                monitor_messages: session.monitor_messages(),
                monitor_tokens,
                events,
                global_views,
                peak_global_views,
                drained,
                per_property: Vec::new(),
            }
        }
        ShardSession::Fleet { session, spec } => {
            // `events` counts the stream's events once (every member observes
            // the same decoded events); the work metrics sum across members.  One
            // metrics snapshot per member monitor supplies the counts and both
            // verdict sets, and the session's sets are the unions of its members'.
            let mut events = 0usize;
            let mut global_views = 0usize;
            let mut monitor_tokens = 0usize;
            let mut peak_global_views = 0usize;
            let mut detected_verdicts = BTreeSet::new();
            let mut possible_verdicts = BTreeSet::new();
            let mut per_property = Vec::with_capacity(spec.fleet.len());
            for (k, member) in spec.fleet.iter().enumerate() {
                let mut member_detected = BTreeSet::new();
                let mut member_possible = BTreeSet::new();
                let mut member_tokens = 0usize;
                let mut member_views = 0usize;
                let mut member_peak = 0usize;
                for fleet in session.monitors() {
                    let m = fleet.member_metrics(k);
                    if k == 0 {
                        events += m.events_observed;
                    }
                    member_tokens += m.tokens_sent;
                    member_views += m.global_views_created;
                    member_peak += m.max_live_views;
                    member_detected.extend(m.detected_final_verdicts);
                    member_possible.extend(m.possible_verdicts);
                }
                global_views += member_views;
                monitor_tokens += member_tokens;
                peak_global_views += member_peak;
                detected_verdicts.extend(member_detected.iter().copied());
                possible_verdicts.extend(member_possible.iter().copied());
                per_property.push(PropertyOutcome {
                    property: member.property.clone(),
                    verdict: combined_verdict(&member_detected),
                    detected_verdicts: member_detected,
                    possible_verdicts: member_possible,
                    monitor_tokens: member_tokens,
                    global_views: member_views,
                    peak_global_views: member_peak,
                });
            }
            SessionOutcome {
                verdict: combined_verdict(&detected_verdicts),
                detected_verdicts,
                possible_verdicts,
                monitor_messages: session.monitor_messages(),
                monitor_tokens,
                events,
                global_views,
                peak_global_views,
                drained,
                per_property,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_stream, ReaderSource};
    use dlrv_ltl::Formula;
    use dlrv_vclock::{EventKind, VectorClock};

    fn reachability_spec() -> Arc<SessionSpec> {
        let mut reg = AtomRegistry::new();
        let a = reg.intern("P0.p", 0);
        let b = reg.intern("P1.p", 1);
        let phi = Formula::eventually(Formula::and(Formula::Atom(a), Formula::Atom(b)));
        Arc::new(SessionSpec {
            n_processes: 2,
            automaton: Arc::new(MonitorAutomaton::synthesize(&phi, &reg)),
            registry: Arc::new(reg),
            initial_state: Assignment::ALL_FALSE,
            options: MonitorOptions::default(),
            fleet: Vec::new(),
        })
    }

    fn goal_events() -> Vec<Event> {
        // P0 raises its p at t=1, P1 at t=2; the concurrent cut satisfies F(a && b).
        vec![
            Event {
                process: 0,
                kind: EventKind::Internal,
                sn: 1,
                vc: VectorClock::from_entries(vec![1, 0]),
                state: Assignment(0b01),
                time: 1.0,
            },
            Event {
                process: 1,
                kind: EventKind::Internal,
                sn: 1,
                vc: VectorClock::from_entries(vec![0, 1]),
                state: Assignment(0b10),
                time: 2.0,
            },
        ]
    }

    #[test]
    fn sessions_reach_verdicts_across_shard_counts() {
        for use_rings in [false, true] {
            for n_shards in [1, 2, 4] {
                let runtime = ShardedRuntime::start(StreamConfig {
                    n_shards,
                    use_rings,
                    ..StreamConfig::default()
                });
                let spec = reachability_spec();
                for session in 0..10u64 {
                    runtime.open_session(session, spec.clone());
                    for e in goal_events() {
                        runtime.feed_event(session, e);
                    }
                    runtime.close_session(session);
                }
                let report = runtime.shutdown();
                let tag = format!("{n_shards} shards, rings={use_rings}");
                assert_eq!(report.sessions.len(), 10, "{tag}");
                for (id, outcome) in &report.sessions {
                    assert_eq!(outcome.verdict, Verdict::True, "session {id}, {tag}");
                    assert!(!outcome.drained);
                    assert_eq!(outcome.events, 2);
                    assert!(outcome.monitor_messages > 0);
                }
                assert_eq!(report.total_events, 20);
                assert_eq!(report.per_shard.len(), n_shards);
                let opened: usize = report.per_shard.iter().map(|m| m.sessions_opened).sum();
                assert_eq!(opened, 10);
                assert!(report.events_per_sec > 0.0);
            }
        }
    }

    #[test]
    fn unknown_sessions_count_as_routing_errors() {
        let runtime = ShardedRuntime::start(StreamConfig {
            n_shards: 1,
            ..StreamConfig::default()
        });
        runtime.feed_event(99, goal_events()[0].clone());
        runtime.close_session(99);
        let report = runtime.shutdown();
        assert_eq!(report.per_shard[0].routing_errors, 2);
        assert!(report.sessions.is_empty());
    }

    #[test]
    fn shutdown_drains_unclosed_sessions() {
        let runtime = ShardedRuntime::start(StreamConfig::default());
        let spec = reachability_spec();
        runtime.open_session(5, spec);
        for e in goal_events() {
            runtime.feed_event(5, e);
        }
        // No close: shutdown must finish the session anyway.
        let report = runtime.shutdown();
        let outcome = &report.sessions[&5];
        assert!(outcome.drained);
        assert_eq!(outcome.verdict, Verdict::True);
    }

    #[test]
    fn pump_routes_wire_records_end_to_end() {
        let mut records = Vec::new();
        for session in 0..4u64 {
            records.push(StreamRecord::Open {
                session,
                property: "goal".to_string(),
                n_processes: 2,
                initial_state: 0,
            });
        }
        for e in goal_events() {
            for session in 0..4u64 {
                records.push(StreamRecord::Event {
                    session,
                    event: e.clone(),
                });
            }
        }
        for session in 0..4u64 {
            records.push(StreamRecord::Close { session });
        }
        let bytes = encode_stream(&records);

        for use_rings in [false, true] {
            let runtime = ShardedRuntime::start(StreamConfig {
                n_shards: 2,
                mailbox_capacity: 2, // tiny mailbox: exercise the backpressure path
                batch_size: 4,
                use_rings,
            });
            let spec = reachability_spec();
            let mut source = ReaderSource::new(&bytes[..]);
            let pumped = runtime
                .pump(&mut source, &mut |open| {
                    assert_eq!(open.property, "goal");
                    assert_eq!(open.n_processes, 2);
                    Ok(spec.clone())
                })
                .unwrap();
            assert_eq!(pumped, records.len());
            let report = runtime.shutdown();
            assert_eq!(report.sessions.len(), 4, "rings={use_rings}");
            assert!(report.sessions.values().all(|o| o.verdict == Verdict::True));
        }
    }

    #[test]
    fn session_routing_is_deterministic() {
        let a = ShardedRuntime::start(StreamConfig {
            n_shards: 4,
            ..StreamConfig::default()
        });
        let b = ShardedRuntime::start(StreamConfig {
            n_shards: 4,
            ..StreamConfig::default()
        });
        for session in 0..100u64 {
            assert_eq!(a.shard_of(session), b.shard_of(session));
        }
        // All shards get some sessions (splitmix64 spreads consecutive ids).
        let mut seen = [false; 4];
        for session in 0..100u64 {
            seen[a.shard_of(session)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn inconsistent_events_do_not_kill_the_shard() {
        let runtime = ShardedRuntime::start(StreamConfig {
            n_shards: 1,
            ..StreamConfig::default()
        });
        let spec = reachability_spec(); // 2 processes
        runtime.open_session(1, spec);
        // Process index out of range for the session.
        let mut bad = goal_events()[0].clone();
        bad.process = 5;
        bad.vc = VectorClock::from_entries(vec![0, 0, 0, 0, 0, 1]);
        runtime.feed_event(1, bad);
        // Clock width not matching the session.
        let mut wide = goal_events()[0].clone();
        wide.vc = VectorClock::from_entries(vec![1, 0, 0]);
        runtime.feed_event(1, wide);
        // The shard must still be alive and able to finish the session normally.
        for e in goal_events() {
            runtime.feed_event(1, e);
        }
        runtime.close_session(1);
        let report = runtime.shutdown();
        assert_eq!(report.per_shard[0].routing_errors, 2);
        assert_eq!(report.sessions[&1].verdict, Verdict::True);
        assert_eq!(report.sessions[&1].events, 2);
    }

    #[test]
    fn zero_event_shards_still_report_zeroed_rows() {
        // A shard that never receives a record must still produce its metrics
        // row (all zeros, stall counter included) — consumers of per-shard
        // JSON index rows by shard, so omission would silently misalign them.
        for use_rings in [false, true] {
            let runtime = ShardedRuntime::start(StreamConfig {
                n_shards: 4,
                use_rings,
                ..StreamConfig::default()
            });
            let spec = reachability_spec();
            // One session: exactly one shard sees traffic.
            runtime.open_session(1, spec);
            for e in goal_events() {
                runtime.feed_event(1, e);
            }
            runtime.close_session(1);
            let report = runtime.shutdown();
            assert_eq!(report.per_shard.len(), 4, "rings={use_rings}");
            let mut idle_rows = 0;
            for (i, m) in report.per_shard.iter().enumerate() {
                assert_eq!(m.shard, i, "rows stay in shard order");
                if m.events_processed == 0 {
                    idle_rows += 1;
                    assert_eq!(m.sessions_opened, 0);
                    assert_eq!(m.backpressure_stalls, 0);
                    // (`batches` is not asserted: the channel path counts the
                    // Drain sentinel itself as one batch, the ring path does not.)
                }
            }
            assert_eq!(idle_rows, 3, "rings={use_rings}");
        }
    }

    #[test]
    fn duplicate_open_is_a_routing_error() {
        let runtime = ShardedRuntime::start(StreamConfig {
            n_shards: 1,
            ..StreamConfig::default()
        });
        let spec = reachability_spec();
        runtime.open_session(1, spec.clone());
        runtime.open_session(1, spec);
        runtime.close_session(1);
        let report = runtime.shutdown();
        assert_eq!(report.per_shard[0].routing_errors, 1);
        assert_eq!(report.per_shard[0].sessions_opened, 1);
        assert_eq!(report.sessions.len(), 1);
    }
}
