//! The sharded multi-session runtime: N worker shards, each owning the incremental
//! [`FeedSession`](dlrv_monitor::FeedSession)s of the sessions hashed onto it.
//!
//! The design goals, in order:
//!
//! * **Isolation** — sessions are independent monitored executions; a session's
//!   monitors live on exactly one shard, so no lock is ever taken around monitor
//!   state.
//! * **Backpressure** — each shard's mailbox is one bounded [`SpscRing`] of
//!   [`crate::ring`].  A producer that outruns a shard blocks (after a counted
//!   non-blocking miss) instead of growing an unbounded queue, and the per-shard
//!   stall count lands in [`ShardMetrics::backpressure_stalls`].
//! * **Batching** — a shard drains up to [`StreamConfig::batch_size`] records per
//!   wakeup and applies them in one go, amortizing mailbox overhead on hot shards.
//! * **Graceful drain** — shutdown delivers every in-flight record, finishes any
//!   session the stream never closed, and reports per-shard plus aggregate metrics.
//!   A runtime dropped without [`ShardedRuntime::shutdown`] drains the same way,
//!   so its shard threads end and release every session's monitors.
//! * **Small closed sessions** — a shard drops a session's monitors at its close
//!   and keeps one packed record of what it found: the id, the drained flag and
//!   the counts as LEB128 integers, the verdict sets as bit masks, and for a fleet
//!   session the same per member, with the members' names kept once per distinct
//!   name list and referred to by index.  A record is about 8 B for a solo
//!   session and 33 B for a six-property fleet, where a [`SessionOutcome`] took
//!   128 B plus up to a kilobyte of heap.  The outcomes of
//!   [`StreamReport::sessions`] are built from these records once, by
//!   [`ShardedRuntime::shutdown`] on the caller's thread.
//!
//! Shards are plain `std::thread`s — this workspace is fully offline, so there is no
//! async executor; the paper's monitors are CPU-bound anyway, which makes one thread
//! per shard the right shape.

use crate::codec::{EventSource, SessionId, StreamRecord};
use crate::ring::{PopState, SpscRing};
use crate::varint;
use crate::wire::StreamError;
use dlrv_automaton::MonitorAutomaton;
use dlrv_ltl::{Assignment, AtomRegistry, Verdict, Verdicts};
use dlrv_monitor::{
    combined_verdict, decentralized_session, fleet_session, DecentralizedMonitor,
    DecentralizedSession, FleetMember, FleetSession, MonitorMetrics, MonitorOptions,
    PropertyOutcome, ShardMetrics,
};
use dlrv_vclock::Event;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Ignored: every shard mailbox is an [`SpscRing`].  The field is kept
    /// only because the repository benchmark's mailbox probe still sets it.
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
    pub detected_verdicts: Verdicts,
    /// Union of verdicts the monitors still considered possible at close.
    pub possible_verdicts: Verdicts,
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

/// Aggregate result of a runtime's lifetime, produced by [`ShardedRuntime::shutdown`].
#[derive(Debug)]
pub struct StreamReport {
    /// Per-shard measurements, in shard order.
    pub per_shard: Vec<ShardMetrics>,
    /// Outcome of every session ever opened, keyed by session id: decoded from
    /// the shards' packed records when [`ShardedRuntime::shutdown`] builds the
    /// report, so no outcome exists before then.
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
}

struct ShardResult {
    metrics: ShardMetrics,
    log: RecordLog,
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
    mailboxes: Vec<Arc<SpscRing<ShardMsg>>>,
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
        assert!(
            config.mailbox_capacity > 0,
            "mailboxes must hold at least one record"
        );
        assert!(
            config.batch_size > 0,
            "batches must hold at least one record"
        );
        let mut mailboxes = Vec::with_capacity(config.n_shards);
        let mut handles = Vec::with_capacity(config.n_shards);
        for shard in 0..config.n_shards {
            let batch_size = config.batch_size;
            let inbox = Arc::new(SpscRing::new(config.mailbox_capacity));
            mailboxes.push(Arc::clone(&inbox));
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

    /// Closes `session`: its monitors observe end-of-stream, and the shard drops
    /// them and keeps a packed record of the verdicts and counts, which
    /// [`shutdown`](Self::shutdown) turns into the session's [`SessionOutcome`].
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
    pub fn shutdown(mut self) -> StreamReport {
        let mut per_shard = Vec::with_capacity(self.handles.len());
        let mut sessions = BTreeMap::new();
        for (shard, result) in self.join_shards().into_iter().enumerate() {
            let mut result = result.expect("shard worker panicked");
            result.metrics.backpressure_stalls = self.stalls[shard].load(Ordering::Relaxed);
            per_shard.push(result.metrics);
            result.log.read_into(&mut sessions);
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

    /// Closes every mailbox and joins the workers still running, in shard
    /// order.  Close marks end-of-stream, so a worker applies everything queued
    /// before it and finishes its open sessions before it returns.
    fn join_shards(&mut self) -> Vec<std::thread::Result<ShardResult>> {
        for ring in &self.mailboxes {
            ring.close();
        }
        std::mem::take(&mut self.handles)
            .into_iter()
            .map(JoinHandle::join)
            .collect()
    }

    fn send(&self, shard: usize, msg: ShardMsg) {
        let ring = &self.mailboxes[shard];
        if let Err(msg) = ring.try_push(msg) {
            self.stalls[shard].fetch_add(1, Ordering::Relaxed);
            ring.push_blocking(msg);
        }
    }
}

/// A runtime dropped without [`ShardedRuntime::shutdown`] still ends its
/// shards: their threads would otherwise wait on an open mailbox forever,
/// holding every session's monitors.  A worker's panic is not raised again.
impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        let _ = self.join_shards();
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

    fn is_next_event(&self, event: &Event) -> bool {
        match self {
            ShardSession::Solo(s) => s.is_next_event(event),
            ShardSession::Fleet { session, .. } => session.is_next_event(event),
        }
    }

    fn feed_owned(&mut self, event: Event) {
        match self {
            ShardSession::Solo(s) => {
                s.feed_event(&event);
            }
            ShardSession::Fleet { session, .. } => {
                session.feed_event(&event);
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

fn shard_worker(shard: usize, inbox: Arc<SpscRing<ShardMsg>>, batch_size: usize) -> ShardResult {
    let mut sessions: BTreeMap<SessionId, ShardSession> = BTreeMap::new();
    let mut log = RecordLog::default();
    let mut metrics = ShardMetrics {
        shard,
        ..ShardMetrics::default()
    };
    let mut latency_sum = 0.0f64;
    let mut latency_samples = 0usize;
    let mut batch: Vec<ShardMsg> = Vec::with_capacity(batch_size);

    // The blocking pop returns `Closed` only once the mailbox is closed and
    // empty: everything is delivered.
    while inbox.pop_batch_blocking(&mut batch, batch_size) == PopState::Items {
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
                        // width not matching the session, or not its process's next
                        // in sequence) must not panic the shard or be recorded
                        // misnumbered — the wire may carry anything; count it like a
                        // misroute.
                        Some(feed) if feed.is_next_event(&event) => {
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
                            log.record(session, feed, false);
                            metrics.sessions_closed += 1;
                        }
                        None => metrics.routing_errors += 1,
                    }
                }
            }
        }
        metrics.busy_secs += started.elapsed().as_secs_f64();
    }

    // Graceful drain: the stream ended without closing these sessions.
    for (id, mut feed) in std::mem::take(&mut sessions) {
        feed.finish();
        log.record(id, feed, true);
    }
    metrics.avg_queue_latency_secs = if latency_samples > 0 {
        latency_sum / latency_samples as f64
    } else {
        0.0
    };
    ShardResult { metrics, log }
}

/// What a shard keeps of the sessions it has closed: one packed record per
/// session, appended at its close and read back into [`SessionOutcome`]s only by
/// [`ShardedRuntime::shutdown`], on the caller's thread.
///
/// A record is the session id, a flags byte ([`DRAINED`], [`FLEET`]) and the
/// message count, then, for a fleet session, the index of its member-name list
/// and one [`Tally`] per member, and last the session's own [`Tally`].
/// Integers are LEB128 ([`varint`]), so no count is narrowed, and verdict sets
/// are their [`Verdicts::bits`].
///
/// The member names are not in the record: `name_lists` keeps the first spec of
/// each distinct name list this shard has logged, and a record names its list
/// by index.  A resolver may build a fresh spec for every open; keeping each
/// one until shutdown would hold its member vector and names, about half a
/// kilobyte, for every closed fleet session.
#[derive(Debug, Default)]
struct RecordLog {
    bytes: Vec<u8>,
    name_lists: Vec<Arc<SessionSpec>>,
}

/// Flags-byte bit: the session was finished by shutdown drain.
const DRAINED: u8 = 1;
/// Flags-byte bit: a name-list index and member tallies follow.
const FLEET: u8 = 2;

/// Monitors folded together — a session's, or one fleet member's: counts add
/// up and verdict sets are unions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    detected: Verdicts,
    possible: Verdicts,
    tokens: usize,
    events: usize,
    views: usize,
    peak_views: usize,
}

impl Tally {
    fn of(snapshots: impl Iterator<Item = MonitorMetrics>) -> Tally {
        let mut tally = Tally::default();
        for m in snapshots {
            tally.detected |= m.detected_final_verdicts;
            tally.possible |= m.possible_verdicts;
            tally.tokens += m.tokens_sent;
            tally.events += m.events_observed;
            tally.views += m.global_views_created;
            tally.peak_views += m.max_live_views;
        }
        tally
    }

    /// Writes both masks in one byte, then the counts; the event count only
    /// `with_events` (a fleet member observes its session's events).
    fn write(&self, out: &mut Vec<u8>, with_events: bool) {
        out.push(self.detected.bits() | self.possible.bits() << 3);
        write_count(out, self.tokens);
        if with_events {
            write_count(out, self.events);
        }
        write_count(out, self.views);
        write_count(out, self.peak_views);
    }

    fn read(log: &[u8], pos: &mut usize, with_events: bool) -> Tally {
        let masks = log[*pos];
        *pos += 1;
        let set = |bits| Verdicts::from_bits(bits).expect("a shard's record log is well formed");
        let mut count = || read_count(log, pos);
        Tally {
            detected: set(masks & 0b111),
            possible: set(masks >> 3),
            tokens: count(),
            events: if with_events { count() } else { 0 },
            views: count(),
            peak_views: count(),
        }
    }

    /// `self` and a fellow member's tally folded into one: masks are unions,
    /// counts add up, and the events stay `self`'s, since every member of a
    /// fleet observes the same events.
    fn and(self, other: Tally) -> Tally {
        Tally {
            detected: self.detected | other.detected,
            possible: self.possible | other.possible,
            tokens: self.tokens + other.tokens,
            events: self.events,
            views: self.views + other.views,
            peak_views: self.peak_views + other.peak_views,
        }
    }

    fn property_outcome(self, property: &str) -> PropertyOutcome {
        PropertyOutcome {
            property: property.to_string(),
            verdict: combined_verdict(&self.detected),
            detected_verdicts: self.detected,
            possible_verdicts: self.possible,
            monitor_tokens: self.tokens,
            global_views: self.views,
            peak_global_views: self.peak_views,
        }
    }
}

fn member_names(spec: &SessionSpec) -> impl Iterator<Item = &str> {
    spec.fleet.iter().map(|m| m.property.as_str())
}

fn write_count(out: &mut Vec<u8>, count: usize) {
    varint::write_u64(out, u64::try_from(count).expect("a count fits 64 bits"));
}

fn read_count(log: &[u8], pos: &mut usize) -> usize {
    let v = varint::read_u64(log, pos).expect("a shard's record log is well formed");
    usize::try_from(v).expect("a logged count was a usize")
}

impl RecordLog {
    /// Appends the record of a finished session, which is dropped here.
    fn record(&mut self, id: SessionId, session: ShardSession, drained: bool) {
        match session {
            ShardSession::Solo(session) => {
                let tally = Tally::of(session.monitors().iter().map(DecentralizedMonitor::metrics));
                let out = self.begin(id, drained, session.monitor_messages(), None);
                tally.write(out, true);
            }
            ShardSession::Fleet { session, spec } => {
                // Each member folds its own monitors; the session folds the members.
                let out = self.begin(id, drained, session.monitor_messages(), Some(&spec));
                let fleets = session.monitors();
                let tally = (0..spec.fleet.len())
                    .map(|k| Tally::of(fleets.iter().map(|f| f.member_metrics(k))))
                    .inspect(|member| member.write(out, false))
                    .reduce(Tally::and)
                    .expect("a fleet session has members");
                tally.write(out, true);
            }
        }
    }

    /// Starts a record: the id, the flags, the message count and, for a `fleet`
    /// session, the index of its member-name list.  The caller writes the
    /// member tallies, in member order, and then the session's own.
    fn begin(
        &mut self,
        id: SessionId,
        drained: bool,
        messages: usize,
        fleet: Option<&Arc<SessionSpec>>,
    ) -> &mut Vec<u8> {
        let out = &mut self.bytes;
        varint::write_u64(out, id);
        out.push(if drained { DRAINED } else { 0 } | if fleet.is_some() { FLEET } else { 0 });
        write_count(out, messages);
        if let Some(spec) = fleet {
            let known = self
                .name_lists
                .iter()
                .position(|k| Arc::ptr_eq(k, spec) || member_names(k).eq(member_names(spec)));
            let list = known.unwrap_or_else(|| {
                self.name_lists.push(Arc::clone(spec));
                self.name_lists.len() - 1
            });
            write_count(out, list);
        }
        out
    }

    /// Reads every record back, into `sessions`.
    fn read_into(self, sessions: &mut BTreeMap<SessionId, SessionOutcome>) {
        let (log, mut pos) = (&self.bytes[..], 0);
        while pos < log.len() {
            let id = varint::read_u64(log, &mut pos).expect("a shard's record log is well formed");
            let flags = log[pos];
            pos += 1;
            let monitor_messages = read_count(log, &mut pos);
            let per_property = if flags & FLEET != 0 {
                let spec = &self.name_lists[read_count(log, &mut pos)];
                spec.fleet
                    .iter()
                    .map(|m| Tally::read(log, &mut pos, false).property_outcome(&m.property))
                    .collect()
            } else {
                Vec::new()
            };
            let tally = Tally::read(log, &mut pos, true);
            sessions.insert(
                id,
                SessionOutcome {
                    verdict: combined_verdict(&tally.detected),
                    detected_verdicts: tally.detected,
                    possible_verdicts: tally.possible,
                    monitor_messages,
                    monitor_tokens: tally.tokens,
                    events: tally.events,
                    global_views: tally.views,
                    peak_global_views: tally.peak_views,
                    drained: flags & DRAINED != 0,
                    per_property,
                },
            );
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

    /// A fleet of six properties over the `p` and `q` of three processes, shaped
    /// like the benchmark's `fleet-6` (the paper's A–F at n = 3).
    fn fleet6_spec() -> Arc<SessionSpec> {
        let mut reg = AtomRegistry::new();
        let p: Vec<Formula> = (0..3)
            .map(|i| Formula::Atom(reg.intern(&format!("P{i}.p"), i)))
            .collect();
        let q: Vec<Formula> = (0..3)
            .map(|i| Formula::Atom(reg.intern(&format!("P{i}.q"), i)))
            .collect();
        let all = |fs: &[Formula]| Formula::conj(fs.iter().cloned());
        let a_or_c = Formula::globally(Formula::until(p[0].clone(), all(&p[1..])));
        let formulas = [
            ("A", a_or_c.clone()),
            ("B", Formula::eventually(all(&p))),
            ("C", a_or_c),
            ("D", Formula::globally(Formula::until(all(&p), all(&q)))),
            ("E", Formula::eventually(Formula::and(all(&p), all(&q)))),
            (
                "F",
                Formula::globally(Formula::and(
                    Formula::until(p[0].clone(), all(&p[1..])),
                    Formula::until(q[0].clone(), all(&q[1..])),
                )),
            ),
        ];
        let registry = Arc::new(reg);
        let fleet: Vec<FleetMemberSpec> = formulas
            .iter()
            .map(|(name, phi)| FleetMemberSpec {
                property: name.to_string(),
                automaton: Arc::new(MonitorAutomaton::synthesize(phi, &registry)),
                registry: registry.clone(),
                initial_state: Assignment(0b111),
            })
            .collect();
        Arc::new(SessionSpec {
            n_processes: 3,
            automaton: fleet[0].automaton.clone(),
            registry,
            initial_state: Assignment(0b111),
            options: MonitorOptions::default(),
            fleet,
        })
    }

    /// Four internal events per process of [`fleet6_spec`]'s three (every `p`
    /// true at the start), round-robin: `p` flips on every event, `q` holds from
    /// the third.
    fn fleet6_events() -> Vec<Event> {
        let mut events = Vec::new();
        for k in 1..=4u64 {
            for i in 0..3usize {
                let mut vc = vec![0; 3];
                vc[i] = k;
                let p = if (k + i as u64).is_multiple_of(2) {
                    1u64 << i
                } else {
                    0
                };
                let q = if k >= 3 { 1u64 << (3 + i) } else { 0 };
                events.push(Event {
                    process: i,
                    kind: EventKind::Internal,
                    sn: k,
                    vc: VectorClock::from_entries(vc),
                    state: Assignment(p | q),
                    time: (3 * (k - 1) + i as u64) as f64,
                });
            }
        }
        events
    }

    #[test]
    fn sessions_reach_verdicts_across_shard_counts() {
        for n_shards in [1, 2, 4] {
            let runtime = ShardedRuntime::start(StreamConfig {
                n_shards,
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
            let tag = format!("{n_shards} shards");
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
        // A solo and a fleet session, each fed and opened with no events: run once
        // closed and once left to shutdown, which must finish them all the same.
        let cases = [
            (5, reachability_spec(), goal_events()),
            (6, reachability_spec(), Vec::new()),
            (7, fleet6_spec(), fleet6_events()),
            (8, fleet6_spec(), Vec::new()),
        ];
        for n_shards in [1, 2, 4] {
            let run = |close: bool| {
                let runtime = ShardedRuntime::start(StreamConfig {
                    n_shards,
                    ..StreamConfig::default()
                });
                for (id, spec, events) in &cases {
                    runtime.open_session(*id, spec.clone());
                    for e in events {
                        runtime.feed_event(*id, e.clone());
                    }
                    if close {
                        runtime.close_session(*id);
                    }
                }
                runtime.shutdown().sessions
            };
            let (closed, drained) = (run(true), run(false));
            let tag = format!("{n_shards} shards");
            assert_eq!(drained.len(), cases.len(), "{tag}");
            for (id, outcome) in &drained {
                assert!(outcome.drained, "session {id}, {tag}");
                assert!(!closed[id].drained, "session {id}, {tag}");
                let undrained = SessionOutcome {
                    drained: false,
                    ..outcome.clone()
                };
                assert_eq!(undrained, closed[id], "session {id}, {tag}");
            }
            assert_eq!(drained[&5].verdict, Verdict::True, "{tag}");
            assert_eq!(drained[&5].events, 2, "{tag}");
            assert_eq!(drained[&6].events, 0, "{tag}");
            assert_eq!(drained[&7].events, 12, "{tag}");
            assert_eq!(drained[&8].events, 0, "{tag}");
            for id in [7, 8] {
                let names: Vec<&str> = drained[&id]
                    .per_property
                    .iter()
                    .map(|m| m.property.as_str())
                    .collect();
                assert_eq!(names, ["A", "B", "C", "D", "E", "F"], "session {id}, {tag}");
            }
        }
    }

    #[test]
    fn a_dropped_runtime_ends_its_shards() {
        // Dropped without shutdown, the runtime must still end its shard
        // threads, and with them the monitors of every open session: each holds
        // a reference to the spec's automaton.
        let spec = reachability_spec();
        let runtime = ShardedRuntime::start(StreamConfig {
            n_shards: 2,
            ..StreamConfig::default()
        });
        let shards: std::collections::BTreeSet<usize> =
            (0..4u64).map(|session| runtime.shard_of(session)).collect();
        assert_eq!(shards.len(), 2, "the sessions span both shards");
        for session in 0..4u64 {
            runtime.open_session(session, spec.clone());
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&spec.automaton) == 1 {
            assert!(Instant::now() < deadline, "no open was applied within 10 s");
            std::thread::yield_now();
        }
        drop(runtime);
        assert_eq!(Arc::strong_count(&spec.automaton), 1);
    }

    /// Counts at the edges of the one-, two-, five- and ten-byte LEB128 forms.
    const EDGE_COUNTS: [usize; 6] = [
        0,
        127,
        128,
        u32::MAX as usize,
        u32::MAX as usize + 1,
        usize::MAX,
    ];

    /// The outcome of `tally`.
    fn expected_outcome(tally: Tally, messages: usize, drained: bool) -> SessionOutcome {
        SessionOutcome {
            verdict: combined_verdict(&tally.detected),
            detected_verdicts: tally.detected,
            possible_verdicts: tally.possible,
            monitor_messages: messages,
            monitor_tokens: tally.tokens,
            events: tally.events,
            global_views: tally.views,
            peak_global_views: tally.peak_views,
            drained,
            per_property: Vec::new(),
        }
    }

    #[test]
    fn a_record_reads_back_what_was_logged() {
        let set = |bits: usize| Verdicts::from_bits(bits as u8).expect("three bits");
        let tally = |i: usize| Tally {
            detected: set(i % 8),
            possible: set(i / 8 % 8),
            tokens: EDGE_COUNTS[i % 6],
            events: EDGE_COUNTS[(i + 1) % 6],
            views: EDGE_COUNTS[(i + 2) % 6],
            peak_views: EDGE_COUNTS[(i + 3) % 6],
        };
        let fleet_of = |n: usize| {
            let mut spec = Arc::try_unwrap(fleet6_spec()).expect("a fresh spec");
            spec.fleet.truncate(n);
            Arc::new(spec)
        };
        let fleets = [None, Some(fleet_of(1)), Some(fleet_of(6))];
        let mut log = RecordLog::default();
        let mut expected = BTreeMap::new();
        let mut id = u64::MAX;
        // Every detected × possible mask, for a solo session, a one-member fleet
        // and a six-member one, drained and closed.
        for i in 0..64 {
            for fleet in &fleets {
                for drained in [false, true] {
                    let members: Vec<Tally> = fleet
                        .iter()
                        .flat_map(|spec| (0..spec.fleet.len()).map(|k| tally(i + 7 * k + 1)))
                        .collect();
                    let messages = EDGE_COUNTS[(i + 4) % 6];
                    let out = log.begin(id, drained, messages, fleet.as_ref());
                    for member in &members {
                        member.write(out, false);
                    }
                    tally(i).write(out, true);
                    let mut outcome = expected_outcome(tally(i), messages, drained);
                    outcome.per_property = fleet
                        .iter()
                        .flat_map(|spec| &spec.fleet)
                        .zip(&members)
                        .map(|(member, &t)| {
                            let o = expected_outcome(t, 0, false);
                            PropertyOutcome {
                                property: member.property.clone(),
                                verdict: o.verdict,
                                detected_verdicts: o.detected_verdicts,
                                possible_verdicts: o.possible_verdicts,
                                monitor_tokens: o.monitor_tokens,
                                global_views: o.global_views,
                                peak_global_views: o.peak_global_views,
                            }
                        })
                        .collect();
                    expected.insert(id, outcome);
                    id = id.wrapping_add(0x1_0000_0001);
                }
            }
        }
        // One name list per distinct fleet, however many records name it.
        assert_eq!(log.name_lists.len(), 2);
        let mut sessions = BTreeMap::new();
        log.read_into(&mut sessions);
        assert_eq!(sessions.len(), 64 * 3 * 2);
        assert_eq!(sessions, expected);
    }

    /// Bytes one closed session adds to its shard's log, measured: a solo
    /// session of [`reachability_spec`] fed [`goal_events`], id 7.  Before the
    /// log a shard held a closed session's whole `SessionOutcome` until shutdown:
    /// for this session a 128 B `(SessionId, SessionOutcome)` list entry (and
    /// the list's spare capacity) plus 48 B of verdict-set nodes.
    const SOLO_RECORD_BYTES: usize = 8;
    /// The same for a session of [`fleet6_spec`] fed [`fleet6_events`], ids 8
    /// and 9, each opened with a fresh spec.  The first puts its spec in the
    /// log's list of distinct member-name lists, the second names that list by
    /// index.  With the log's spare capacity, `tests/stream_footprint.rs`
    /// measures 62 B of heap kept per closed session of this shape, each with a
    /// fresh spec; before the log a shard kept 1 160 B (the 128 B entry, its
    /// outcome's names, per-property list and verdict-set nodes, and the list's
    /// slack).
    const FLEET6_RECORD_BYTES: usize = 33;

    #[test]
    fn a_closed_session_adds_one_packed_record() {
        let mut log = RecordLog::default();
        let mut solo = ShardSession::of(&reachability_spec());
        for e in goal_events() {
            solo.feed_owned(e);
        }
        solo.finish();
        log.record(7, solo, false);
        assert_eq!(log.bytes.len(), SOLO_RECORD_BYTES);
        assert!(log.name_lists.is_empty());

        for id in [8, 9] {
            let before = log.bytes.len();
            let mut fleet = ShardSession::of(&fleet6_spec());
            for e in fleet6_events() {
                fleet.feed_owned(e);
            }
            fleet.finish();
            log.record(id, fleet, false);
            assert_eq!(
                log.bytes.len() - before,
                FLEET6_RECORD_BYTES,
                "session {id}"
            );
        }
        // Two specs, equal member names: one list.
        assert_eq!(log.name_lists.len(), 1);

        let mut sessions = BTreeMap::new();
        log.read_into(&mut sessions);
        assert_eq!(sessions[&7].verdict, Verdict::True);
        assert_eq!(sessions[&8], sessions[&9]);
        assert_eq!(sessions[&8].per_property.len(), 6);
        assert_eq!(sessions[&8].events, 12);
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

        let runtime = ShardedRuntime::start(StreamConfig {
            n_shards: 2,
            mailbox_capacity: 2, // tiny mailbox: exercise the backpressure path
            batch_size: 4,
            ..StreamConfig::default()
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
        assert_eq!(report.sessions.len(), 4);
        assert!(report.sessions.values().all(|o| o.verdict == Verdict::True));
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
    fn out_of_sequence_events_are_routing_errors() {
        let runtime = ShardedRuntime::start(StreamConfig {
            n_shards: 1,
            ..StreamConfig::default()
        });
        runtime.open_session(1, reachability_spec());
        let [first, second] = <[Event; 2]>::try_from(goal_events()).expect("two events");
        // Ahead of its process's first event, numbered past what its own clock
        // entry says, with a remote entry past what a history's four-byte entries hold,
        // and (after the first) a repeat: none is fed.
        let ahead = Event {
            sn: 2,
            vc: VectorClock::from_entries(vec![2, 0]),
            ..first.clone()
        };
        let misnumbered = Event {
            vc: VectorClock::from_entries(vec![3, 0]),
            ..first.clone()
        };
        let over_limit = Event {
            vc: VectorClock::from_entries(vec![1, u64::from(u32::MAX) + 1]),
            ..first.clone()
        };
        runtime.feed_event(1, ahead);
        runtime.feed_event(1, misnumbered);
        runtime.feed_event(1, over_limit);
        runtime.feed_event(1, first.clone());
        runtime.feed_event(1, first);
        runtime.feed_event(1, second);
        runtime.close_session(1);
        let report = runtime.shutdown();
        assert_eq!(report.per_shard[0].routing_errors, 4);
        assert_eq!(report.per_shard[0].events_processed, 2);
        assert_eq!(report.sessions[&1].verdict, Verdict::True);
        assert_eq!(report.sessions[&1].events, 2);
    }

    #[test]
    fn zero_event_shards_still_report_zeroed_rows() {
        // A shard that never receives a record must still produce its metrics
        // row (all zeros, stall counter included) — consumers of per-shard
        // JSON index rows by shard, so omission would silently misalign them.
        let runtime = ShardedRuntime::start(StreamConfig {
            n_shards: 4,
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
        assert_eq!(report.per_shard.len(), 4);
        let mut idle_rows = 0;
        for (i, m) in report.per_shard.iter().enumerate() {
            assert_eq!(m.shard, i, "rows stay in shard order");
            if m.events_processed == 0 {
                idle_rows += 1;
                assert_eq!(m.sessions_opened, 0);
                assert_eq!(m.backpressure_stalls, 0);
                assert_eq!(m.batches, 0);
            }
        }
        assert_eq!(idle_rows, 3);
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
