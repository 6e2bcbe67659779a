//! `monitord` — one decentralized monitor per OS process.
//!
//! The daemon hosts a single [`DecentralizedMonitor`] behind the deploy wire
//! protocol (`dlrv_net::wire`): the orchestrator (`dlrv-core`'s `deploy`
//! module, driven by `experiments --target deploy`) connects over TCP or a Unix
//! socket, configures the monitor with a `hello` frame, feeds program events one
//! at a time and polls transport counters for the quiescence barrier; monitor
//! tokens travel daemon-to-daemon over a full peer mesh, optionally through the
//! deterministic fault-injection shim ([`dlrv_net::FaultInjector`]).
//!
//! ```text
//! monitord --listen tcp:127.0.0.1:0 [--idle-timeout-secs 30] [--log-level error|warn|info|debug|trace]
//! ```
//!
//! On startup the daemon binds, prints `LISTEN <endpoint>` (with the resolved
//! port) on stdout and serves a single run.  Exit codes: `0` graceful shutdown,
//! `1` transport/protocol failure, `2` usage error, `3` idle timeout with no
//! orchestrator traffic, `4` endpoint already in use by a live daemon.  Stale
//! Unix socket files left by a killed daemon are detected and removed on bind
//! (see `dlrv_net::Listener::bind`), so a restart on the same path succeeds.
//!
//! The daemon is two halves.  [`Daemon`] is the I/O half: the reactor, the
//! connections, and [`Daemon::next_input`], which turns socket readiness into
//! one [`Input`] at a time.  [`Run`] is the protocol half: the monitor and one
//! [`Peer`] record per process.  A run has two phases — [`Daemon::await_hello`],
//! where only `hello` and `peer_hello` are legal and no run exists yet, and
//! [`Daemon::serve`], which owns the [`Run`] the `hello` created.  Every
//! protocol failure in either phase goes through [`Daemon::fail`]: an `error`
//! frame to the orchestrator (before the `hello`, to the offending connection),
//! then exit 1.

use dlrv_core::dlrv_automaton::MonitorAutomaton;
use dlrv_core::dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_core::dlrv_ltl::Assignment;
use dlrv_core::results::{options_from_json, property_from_json};
use dlrv_core::CompiledProperty;
use dlrv_monitor::{DecentralizedMonitor, EvalState, MonitorMsg, Token};
use dlrv_net::{
    connect_with_retry, encode_wire_frame, DaemonReport, DaemonStatus, DaemonTelemetry, Endpoint,
    FaultInjector, FaultStats, FramedConn, Interest, IoEvent, Listener, NetError, Reactor, WireMsg,
    TELEMETRY_EVERY_EVENTS,
};
use dlrv_obs::{obs_debug, obs_info, obs_warn, LogLevel};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: monitord --listen <tcp:HOST:PORT | unix:PATH> [--idle-timeout-secs SECS] [--log-level error|warn|info|debug|trace]";

/// Token of the listening socket in the reactor; connections start at 1.
const LISTENER_TOKEN: u64 = 0;

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
    let mut idle_timeout = Duration::from_secs(30);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next(),
            "--idle-timeout-secs" => {
                let Some(value) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("monitord: --idle-timeout-secs expects a number\n{USAGE}");
                    return ExitCode::from(2);
                };
                if value.is_nan() || value <= 0.0 {
                    eprintln!("monitord: idle timeout must be positive\n{USAGE}");
                    return ExitCode::from(2);
                }
                idle_timeout = Duration::from_secs_f64(value);
            }
            "--log-level" => {
                let Some(level) = args.next().as_deref().and_then(LogLevel::parse) else {
                    eprintln!("monitord: --log-level expects error|warn|info|debug|trace\n{USAGE}");
                    return ExitCode::from(2);
                };
                dlrv_obs::set_log_level(level);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("monitord: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(listen) = listen else {
        eprintln!("monitord: --listen is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let endpoint = match Endpoint::parse(&listen) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("monitord: bad endpoint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let listener = match Listener::bind(&endpoint) {
        Ok(l) => l,
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            eprintln!("monitord: endpoint {endpoint} is in use by a live daemon");
            return ExitCode::from(4);
        }
        Err(e) => {
            eprintln!("monitord: cannot bind {endpoint}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = match listener.local_endpoint() {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("monitord: cannot resolve local endpoint: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTEN {local}");
    let _ = std::io::stdout().flush();
    dlrv_obs::set_log_prefix("monitord");
    obs_info!("listening on {local} (idle timeout {:.1}s)", idle_timeout.as_secs_f64());
    match Daemon::new(listener, idle_timeout).and_then(Daemon::await_hello) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("monitord: {e}");
            ExitCode::FAILURE
        }
    }
}

struct ConnEntry {
    conn: FramedConn,
    /// Interest currently registered with the reactor.
    writable: bool,
}

/// What [`Daemon::next_input`] hands the protocol, in arrival order.  Nearly every
/// input is a frame, so boxing that variant would buy an allocation per frame.
#[allow(clippy::large_enum_variant)]
enum Input {
    /// A decoded frame and the connection it arrived on.
    Frame(u64, WireMsg),
    /// The connection reached EOF; its frames came before this and it is closed.
    Closed(u64),
    /// The wait ended with nothing to hand out (a delayed frame may be due).
    Quiet,
    /// No orchestrator traffic for the whole idle timeout.
    Idle,
}

/// A frame sitting in the delay queue until `release`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Delayed {
    release: Instant,
    seq: u64,
    dest: usize,
    frame: Vec<u8>,
}

/// The channel to and from one process of the run.
struct Peer {
    /// Reactor token of the connection, once dialed or introduced.
    conn: Option<u64>,
    /// Frames on that connection that are not monitor frames (the single
    /// `peer_hello` on a dialed one), excluded from the `sent` counter.
    overhead: u64,
    /// The outgoing fault shim.
    injector: FaultInjector,
    /// Next outgoing monitor-frame sequence number, assigned before the fault
    /// shim so duplicates share one number.
    next_seq: u64,
    /// Incoming sequence numbers already processed.  Duplicates the shim injects
    /// still tick `received` (the barrier counts wire frames) but are not re-fed
    /// to the monitor — re-feeding would provoke responses that are themselves
    /// duplicated, amplifying traffic without bound at `dup=1`.
    seen_seq: HashSet<u64>,
    /// Monitor frames decoded from it.
    received: u64,
}

/// The state of the run, created by the `hello` frame and owned by
/// [`Daemon::serve`].
struct Run {
    /// The orchestrator's connection (the one the `hello` arrived on).
    control: u64,
    process: usize,
    n: usize,
    /// The run's monitor automaton: the range of a token's `transition_id` and
    /// of the global states it may carry.
    automaton: Arc<MonitorAutomaton>,
    monitor: DecentralizedMonitor,
    /// One record per process, indexed by process number; the daemon's own slot
    /// never gets a connection and carries no traffic.
    peers: Vec<Peer>,
    /// What the monitor sent during the activation in progress (reused).
    outbox: Vec<(usize, MonitorMsg)>,
    /// What local termination emitted, and the finish time, held from `finish`
    /// until `release`.
    held: Option<(f64, Vec<(usize, MonitorMsg)>)>,
    delay_heap: BinaryHeap<Reverse<Delayed>>,
    delay_seq: u64,
    events_seen: u64,
    /// Messages the monitor emitted, pre-shim (what a co-located
    /// `FeedSession` would count).
    logical_msgs: u64,
    /// True when the hello negotiated the binary wire: outgoing monitor frames
    /// are binary-encoded (incoming frames self-describe either way).
    binary_wire: bool,
}

impl Run {
    /// Runs one monitor callback at `time` and returns what the monitor sent —
    /// the only place a [`MonitorContext`] is built.
    fn call(
        &mut self,
        time: f64,
        callback: impl FnOnce(&mut DecentralizedMonitor, &mut MonitorContext<'_, MonitorMsg>),
    ) -> Vec<(usize, MonitorMsg)> {
        let mut outbox = std::mem::take(&mut self.outbox);
        callback(
            &mut self.monitor,
            &mut MonitorContext::new(self.process, self.n, time, &mut outbox),
        );
        outbox
    }
}

/// Checks a decoded frame against the run it arrived in.  The monitor and the
/// transport tables index by the process numbers, transition ids and clock widths
/// a frame carries without looking, so this is the boundary that turns a
/// decodable but inconsistent frame into a protocol failure instead of a panic —
/// what the stream runtime's shard worker does for session records.
fn check_frame(msg: &WireMsg, run: &Run) -> Result<(), String> {
    let n = run.n;
    match msg {
        WireMsg::PeerHello { from } | WireMsg::Monitor { from, .. }
            if *from >= n || *from == run.process =>
        {
            Err(format!(
                "frame from process {from}, which is no peer of process {} of {n}",
                run.process
            ))
        }
        WireMsg::Event { event } if event.process != run.process || event.vc.len() != n => {
            Err(format!(
                "event of process {} with a {}-entry clock at process {} of {n}",
                event.process,
                event.vc.len(),
                run.process
            ))
        }
        WireMsg::Monitor { msg, .. } => {
            let tokens = match msg {
                MonitorMsg::Token(token) => std::slice::from_ref(token),
                MonitorMsg::Batch(tokens) => tokens,
            };
            tokens
                .iter()
                .try_for_each(|token| check_token(token, n, &run.automaton))
        }
        _ => Ok(()),
    }
}

fn check_token(token: &Token, n: usize, automaton: &MonitorAutomaton) -> Result<(), String> {
    let process = |what: &str, p: usize| {
        if p < n {
            Ok(())
        } else {
            Err(format!("token {what} {p} out of range for {n} processes"))
        }
    };
    process("parent", token.parent)?;
    process("next_target_process", token.next_target_process)?;
    for t in &token.transitions {
        process("transition next_target_process", t.next_target_process)?;
        if t.transition_id >= automaton.transitions.len() {
            return Err(format!(
                "token transition_id {} out of range for {} transitions",
                t.transition_id,
                automaton.transitions.len()
            ));
        }
        if t.gstate.0 >= automaton.n_symbols() as u64 {
            return Err(format!(
                "token gstate {:#x} outside the automaton's {} symbols",
                t.gstate.0,
                automaton.n_symbols()
            ));
        }
        if t.eval == EvalState::Unset && t.next_target_event == 0 {
            return Err("token transition awaits event 0 (sequence numbers start at 1)".to_string());
        }
        if t.gcut.len() != n || t.depend.len() != n || t.conjuncts.len() != n {
            return Err(format!(
                "token transition of widths gcut {}, depend {}, conjuncts {} in a {n}-process run",
                t.gcut.len(),
                t.depend.len(),
                t.conjuncts.len()
            ));
        }
    }
    Ok(())
}

/// The I/O half: sockets in, [`Input`]s out, frames back onto connections.
struct Daemon {
    reactor: Reactor,
    listener: Listener,
    conns: HashMap<u64, ConnEntry>,
    next_token: u64,
    /// Read off the sockets, not yet handed out.
    inbox: VecDeque<Input>,
    idle_timeout: Duration,
    idle_deadline: Instant,
}

impl Daemon {
    fn new(listener: Listener, idle_timeout: Duration) -> Result<Daemon, NetError> {
        let reactor = Reactor::new()?;
        reactor.register(listener.raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        Ok(Daemon {
            reactor,
            listener,
            conns: HashMap::new(),
            next_token: 1,
            inbox: VecDeque::new(),
            idle_timeout,
            idle_deadline: Instant::now() + idle_timeout,
        })
    }

    /// The next thing for the protocol to look at.  With nothing read ahead it
    /// blocks on the reactor once — until a socket is ready, `wake`, or the idle
    /// deadline, whichever is first — and reads every ready connection.
    fn next_input(&mut self, wake: Option<Instant>) -> Result<Input, NetError> {
        if self.inbox.is_empty() {
            let now = Instant::now();
            if now >= self.idle_deadline {
                obs_warn!(
                    "no orchestrator traffic for {:.1}s, exiting",
                    self.idle_timeout.as_secs_f64()
                );
                return Ok(Input::Idle);
            }
            let until = wake.map_or(self.idle_deadline, |w| w.min(self.idle_deadline));
            let timeout_ms = until.saturating_duration_since(now).as_millis().clamp(1, 10_000);
            let events = self.reactor.poll(Some(timeout_ms as u64))?.to_vec();
            for ev in events {
                if ev.token == LISTENER_TOKEN {
                    while let Some(sock) = self.listener.accept()? {
                        self.adopt(FramedConn::new(sock))?;
                    }
                } else {
                    self.service_conn(ev)?;
                }
            }
        }
        match self.inbox.pop_front() {
            Some(Input::Closed(token)) => {
                if let Some(entry) = self.conns.remove(&token) {
                    self.reactor.deregister(entry.conn.raw_fd())?;
                }
                Ok(Input::Closed(token))
            }
            Some(input) => Ok(input),
            None => Ok(Input::Quiet),
        }
    }

    /// Registers a new connection (accepted or dialed) and returns its token.
    fn adopt(&mut self, conn: FramedConn) -> Result<u64, NetError> {
        let token = self.next_token;
        self.next_token += 1;
        self.reactor.register(conn.raw_fd(), token, Interest::READABLE)?;
        self.conns.insert(token, ConnEntry { conn, writable: false });
        Ok(token)
    }

    /// Handles readiness on one connection: flushes, and reads into the inbox.
    fn service_conn(&mut self, ev: IoEvent) -> Result<(), NetError> {
        let Some(entry) = self.conns.get_mut(&ev.token) else { return Ok(()) };
        if ev.writable {
            entry.conn.flush()?;
        }
        if ev.readable {
            let msgs = entry.conn.on_readable_msgs()?;
            self.inbox.extend(msgs.into_iter().map(|msg| Input::Frame(ev.token, msg)));
            if entry.conn.is_eof() {
                self.inbox.push_back(Input::Closed(ev.token));
                return Ok(());
            }
        }
        self.update_interest(ev.token)
    }

    /// Re-registers the connection with write interest iff frames are queued.
    fn update_interest(&mut self, token: u64) -> Result<(), NetError> {
        if let Some(entry) = self.conns.get_mut(&token) {
            let wants = entry.conn.wants_write();
            if wants != entry.writable {
                let interest = if wants { Interest::BOTH } else { Interest::READABLE };
                self.reactor.reregister(entry.conn.raw_fd(), token, interest)?;
                entry.writable = wants;
            }
        }
        Ok(())
    }

    /// Phase one: no run exists.  Peers whose own `hello` came first may already
    /// introduce themselves, any other frame is a protocol failure like any later
    /// one, and the `hello` creates the run and ends the phase by entering the next.
    fn await_hello(mut self) -> Result<ExitCode, NetError> {
        let mut introduced: Vec<(u64, usize)> = Vec::new();
        loop {
            match self.next_input(None)? {
                Input::Idle => return Ok(ExitCode::from(3)),
                Input::Quiet | Input::Closed(_) => {}
                Input::Frame(token, WireMsg::PeerHello { from }) => introduced.push((token, from)),
                Input::Frame(
                    control,
                    WireMsg::Hello {
                        process,
                        n_processes,
                        property,
                        options,
                        initial_state,
                        fault,
                        peers,
                        binary_wire,
                    },
                ) => {
                    self.idle_deadline = Instant::now() + self.idle_timeout;
                    let spec = property_from_json(&property)
                        .or_else(|e| self.fail(control, &format!("hello property: {e}")))?;
                    let opts = match &options {
                        dlrv_core::dlrv_json::Json::Null => dlrv_monitor::MonitorOptions::default(),
                        v => options_from_json(v)
                            .or_else(|e| self.fail(control, &format!("hello options: {e}")))?,
                    };
                    if process >= n_processes
                        || peers.len() != n_processes
                        || n_processes < spec.min_processes()
                    {
                        return self.fail(control, "hello process/peers/property mismatch");
                    }
                    dlrv_obs::set_log_prefix(format!("daemon{process}"));
                    obs_info!("hello: process {process} of {n_processes}");
                    let compiled = CompiledProperty::compile(&spec, n_processes);
                    if initial_state >= compiled.automaton.n_symbols() as u64 {
                        return self
                            .fail(control, "hello initial_state outside the property's atoms");
                    }
                    let mut run = Run {
                        control,
                        process,
                        n: n_processes,
                        automaton: compiled.automaton.clone(),
                        monitor: DecentralizedMonitor::new(
                            process,
                            n_processes,
                            compiled.automaton.clone(),
                            compiled.registry.clone(),
                            Assignment(initial_state),
                            opts,
                        ),
                        peers: (0..n_processes)
                            .map(|j| Peer {
                                conn: None,
                                overhead: 0,
                                injector: FaultInjector::new(
                                    fault.unwrap_or_default(),
                                    (process * n_processes + j) as u64,
                                ),
                                next_seq: 0,
                                seen_seq: HashSet::new(),
                                received: 0,
                            })
                            .collect(),
                        outbox: Vec::new(),
                        held: None,
                        delay_heap: BinaryHeap::new(),
                        delay_seq: 0,
                        events_seen: 0,
                        logical_msgs: 0,
                        binary_wire,
                    };
                    // Dial the lower-numbered peers; higher-numbered peers dial us.
                    for (peer, endpoint) in run.peers.iter_mut().zip(&peers).take(process) {
                        let ep = Endpoint::parse(endpoint).or_else(|e| {
                            self.fail(control, &format!("hello peer endpoint {endpoint}: {e}"))
                        })?;
                        let sock = connect_with_retry(&ep, Duration::from_secs(10))?;
                        let token = self.adopt(FramedConn::new(sock))?;
                        self.reply(token, &WireMsg::PeerHello { from: process })?;
                        (peer.conn, peer.overhead) = (Some(token), 1);
                    }
                    // Adopt peers that already introduced themselves — before this
                    // frame said how many processes there are, so checked only now.
                    for (token, from) in introduced {
                        check_frame(&WireMsg::PeerHello { from }, &run)
                            .or_else(|reason| self.fail(control, &reason))?;
                        run.peers[from].conn.get_or_insert(token);
                    }
                    return self.serve(run);
                }
                Input::Frame(token, other) => {
                    return self.fail(token, &format!("frame before hello: {other:?}"));
                }
            }
        }
    }

    /// Phase two: the run exists and this loop owns it.
    fn serve(mut self, mut run: Run) -> Result<ExitCode, NetError> {
        self.maybe_hello_ok(&run)?;
        loop {
            // Move every frame whose delay elapsed onto its peer connection.
            while run
                .delay_heap
                .peek()
                .is_some_and(|Reverse(front)| front.release <= Instant::now())
            {
                let Some(Reverse(due)) = run.delay_heap.pop() else { break };
                self.queue_frame(&run, due.dest, due.frame)?;
            }
            let wake = run.delay_heap.peek().map(|Reverse(front)| front.release);
            let (token, msg) = match self.next_input(wake)? {
                Input::Idle => return Ok(ExitCode::from(3)),
                Input::Closed(token) if token == run.control => {
                    return Err(NetError::msg("orchestrator closed the control connection"));
                }
                Input::Quiet | Input::Closed(_) => continue,
                Input::Frame(token, msg) => (token, msg),
            };
            if token == run.control {
                self.idle_deadline = Instant::now() + self.idle_timeout;
            }
            if let Err(reason) = check_frame(&msg, &run) {
                return self.fail(run.control, &reason);
            }
            match msg {
                WireMsg::PeerHello { from } => {
                    if run.peers[from].conn.replace(token).is_some() {
                        return self.fail(run.control, "unexpected peer_hello");
                    }
                    self.maybe_hello_ok(&run)?;
                }
                WireMsg::Event { event } => {
                    run.events_seen += 1;
                    self.activate(&mut run, event.time, |monitor, ctx| {
                        monitor.on_local_event(&event, ctx);
                    })?;
                    if run.events_seen.is_multiple_of(TELEMETRY_EVERY_EVENTS) {
                        self.send_telemetry(&run)?;
                    }
                }
                WireMsg::Monitor { from, seq, time, msg } => {
                    run.peers[from].received += 1;
                    // A shim-injected duplicate is counted for the barrier, not
                    // re-processed by the monitor.
                    if run.peers[from].seen_seq.insert(seq) {
                        self.activate(&mut run, time, |monitor, ctx| {
                            monitor.on_monitor_message(from, msg, ctx);
                        })?;
                    }
                }
                WireMsg::Status => {
                    self.flush_holds(&mut run)?;
                    let status = self.status(&run);
                    self.reply(token, &WireMsg::StatusOk(status))?;
                }
                WireMsg::Finish { time } => {
                    if run.held.is_some() {
                        return self.fail(run.control, "second finish before release");
                    }
                    self.flush_holds(&mut run)?;
                    let held = run.call(time, |monitor, ctx| monitor.on_local_termination(ctx));
                    obs_info!("finish at t={time:.3}, {} messages held", held.len());
                    run.held = Some((time, held));
                    self.reply(token, &WireMsg::FinishOk)?;
                }
                WireMsg::Release => {
                    let Some((time, held)) = run.held.take() else {
                        return self.fail(run.control, "release before finish");
                    };
                    self.send_outbox(&mut run, time, held)?;
                    // One final sample so the timeline always covers the run's end
                    // state, termination traffic included, whatever the event-count
                    // cadence left off at.
                    self.send_telemetry(&run)?;
                    self.reply(token, &WireMsg::ReleaseOk)?;
                }
                WireMsg::Report => {
                    let mut fault_stats = FaultStats::default();
                    for peer in &run.peers {
                        fault_stats.merge(&peer.injector.stats());
                    }
                    let report = DaemonReport {
                        process: run.process,
                        metrics: run.monitor.metrics(),
                        logical_monitor_msgs: run.logical_msgs,
                        fault_stats,
                        peak_rss_bytes: dlrv_obs::peak_rss_bytes().unwrap_or(0),
                    };
                    obs_info!(
                        "report: {} events, {} logical monitor msgs",
                        run.events_seen, run.logical_msgs
                    );
                    self.reply(token, &WireMsg::ReportOk(report))?;
                }
                WireMsg::Shutdown => {
                    obs_info!("shutdown");
                    self.reply(token, &WireMsg::ShutdownOk)?;
                    // Leave only once the reply is on the wire (bounded).
                    if let Some(entry) = self.conns.get_mut(&token) {
                        entry.conn.flush_blocking(Duration::from_secs(5))?;
                    }
                    return Ok(ExitCode::SUCCESS);
                }
                other => return self.fail(run.control, &format!("unexpected frame {other:?}")),
            }
        }
    }

    /// Runs one monitor callback and puts what it sent on the wire.
    fn activate(
        &mut self,
        run: &mut Run,
        time: f64,
        callback: impl FnOnce(&mut DecentralizedMonitor, &mut MonitorContext<'_, MonitorMsg>),
    ) -> Result<(), NetError> {
        let outbox = run.call(time, callback);
        self.send_outbox(run, time, outbox)
    }

    /// Puts what the monitor sent at `time` on the wire, through the fault shim:
    /// the one send path, for an activation's messages and for held ones alike.
    fn send_outbox(
        &mut self,
        run: &mut Run,
        time: f64,
        mut outbox: Vec<(usize, MonitorMsg)>,
    ) -> Result<(), NetError> {
        run.logical_msgs += outbox.len() as u64;
        for (dest, msg) in outbox.drain(..) {
            let peer = &mut run.peers[dest];
            let seq = peer.next_seq;
            peer.next_seq += 1;
            // Encoded here (not via the connection) because the fault shim
            // operates on whole opaque frames — binary or JSON alike.
            let frame = WireMsg::Monitor { from: run.process, seq, time, msg };
            let frame = encode_wire_frame(&frame, run.binary_wire);
            for frame in peer.injector.on_send(frame) {
                self.emit(run, dest, frame)?;
            }
        }
        run.outbox = outbox;
        Ok(())
    }

    /// Hands one post-shim frame to the channel to `dest`: the delay queue when
    /// the channel has a delay, the connection otherwise.
    fn emit(&mut self, run: &mut Run, dest: usize, frame: Vec<u8>) -> Result<(), NetError> {
        let delay_ms = run.peers[dest].injector.delay_ms();
        if delay_ms <= 0.0 {
            return self.queue_frame(run, dest, frame);
        }
        let seq = run.delay_seq;
        run.delay_seq += 1;
        run.delay_heap.push(Reverse(Delayed {
            release: Instant::now() + Duration::from_secs_f64(delay_ms / 1000.0),
            seq,
            dest,
            frame,
        }));
        Ok(())
    }

    /// Puts one frame on the connection to peer `dest` — the only place that does.
    fn queue_frame(&mut self, run: &Run, dest: usize, frame: Vec<u8>) -> Result<(), NetError> {
        let Some(token) = run.peers[dest].conn else {
            let reason = format!("a frame for process {dest}, which is not connected");
            return self.fail(run.control, &reason);
        };
        if let Some(entry) = self.conns.get_mut(&token) {
            entry.conn.queue_bytes(frame);
            entry.conn.flush()?;
        }
        self.update_interest(token)
    }

    /// Releases every reorder hold so the channels drain (barrier/finish time).
    fn flush_holds(&mut self, run: &mut Run) -> Result<(), NetError> {
        for dest in 0..run.n {
            if let Some(frame) = run.peers[dest].injector.flush_hold() {
                self.emit(run, dest, frame)?;
            }
        }
        Ok(())
    }

    /// Sends `hello_ok` once the peer mesh is complete.
    fn maybe_hello_ok(&mut self, run: &Run) -> Result<(), NetError> {
        let complete = run
            .peers
            .iter()
            .enumerate()
            .all(|(j, peer)| j == run.process || peer.conn.is_some());
        if !complete {
            return Ok(());
        }
        obs_info!("peer mesh complete, sending hello_ok");
        self.reply(run.control, &WireMsg::HelloOk { process: run.process })
    }

    /// Emits one unsolicited [`WireMsg::Telemetry`] frame on the control
    /// connection; the orchestrator intercepts these into per-daemon timelines
    /// instead of treating them as replies.
    fn send_telemetry(&mut self, run: &Run) -> Result<(), NetError> {
        let metrics = run.monitor.metrics();
        let held: u64 = run.peers.iter().map(|peer| peer.injector.held() as u64).sum();
        let sample = DaemonTelemetry {
            process: run.process,
            events_seen: run.events_seen,
            live_views: run.monitor.views().len() as u64,
            tokens_sent: metrics.tokens_sent as u64,
            tokens_received: metrics.tokens_received as u64,
            queued_frames: run.delay_heap.len() as u64 + held,
            peak_rss_bytes: dlrv_obs::peak_rss_bytes().unwrap_or(0),
        };
        obs_debug!(
            "telemetry: {} events, {} live views, {} queued frames",
            sample.events_seen,
            sample.live_views,
            sample.queued_frames
        );
        self.reply(run.control, &WireMsg::Telemetry(sample))
    }

    /// The transport counters of the quiescence barrier.
    fn status(&self, run: &Run) -> DaemonStatus {
        let mut status = DaemonStatus {
            process: run.process,
            events_seen: run.events_seen,
            sent: Vec::with_capacity(run.n),
            received: Vec::with_capacity(run.n),
            pending: run.delay_heap.len() as u64,
            dropped: 0,
        };
        for peer in &run.peers {
            let conn = peer.conn.and_then(|token| self.conns.get(&token)).map(|entry| &entry.conn);
            status.sent.push(conn.map_or(0, |c| c.frames_flushed().saturating_sub(peer.overhead)));
            status.received.push(peer.received);
            status.pending +=
                peer.injector.held() as u64 + conn.map_or(0, |c| c.queued_frames() as u64);
            status.dropped += peer.injector.stats().dropped;
        }
        status
    }

    fn reply(&mut self, token: u64, msg: &WireMsg) -> Result<(), NetError> {
        if let Some(entry) = self.conns.get_mut(&token) {
            entry.conn.send_msg(msg)?;
        }
        self.update_interest(token)
    }

    /// Sends an `error` frame on connection `to` — the control connection, or
    /// before any `hello` the offending one — and fails the daemon.
    fn fail<T>(&mut self, to: u64, message: &str) -> Result<T, NetError> {
        let error = WireMsg::Error { message: message.to_string() };
        let _ = self.reply(to, &error);
        Err(NetError::msg(message))
    }
}
