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
//! monitord --listen tcp:127.0.0.1:0 [--idle-timeout-secs 30]
//! ```
//!
//! On startup the daemon binds, prints `LISTEN <endpoint>` (with the resolved
//! port) on stdout and serves a single run.  Exit codes: `0` graceful shutdown,
//! `1` transport/protocol failure, `2` usage error, `3` idle timeout with no
//! orchestrator traffic, `4` endpoint already in use by a live daemon.  Stale
//! Unix socket files left by a killed daemon are detected and removed on bind
//! (see `dlrv_net::Listener::bind`), so a restart on the same path succeeds.

use dlrv_core::dlrv_automaton::MonitorAutomaton;
use dlrv_core::dlrv_distsim::{MonitorBehavior, MonitorContext};
use dlrv_core::dlrv_ltl::Assignment;
use dlrv_core::results::{options_from_json, property_from_json};
use dlrv_core::CompiledProperty;
use dlrv_monitor::{DecentralizedMonitor, MonitorMsg, Token};
use dlrv_net::{
    connect_with_retry, encode_wire_frame, DaemonReport, DaemonStatus, DaemonTelemetry, Endpoint,
    FaultInjector, FaultStats, FramedConn, Interest, Listener, NetError, Reactor, WireMsg,
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
    match Daemon::new(listener, idle_timeout).and_then(Daemon::run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("monitord: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a connection is for, learned from its first frame.
enum Role {
    /// Accepted but not yet identified.
    Anonymous,
    /// The orchestrator's control connection.
    Control,
    /// Carries monitor frames from peer `from` (accepted or dialed).
    Peer { from: usize },
}

struct ConnEntry {
    conn: FramedConn,
    role: Role,
    /// Interest currently registered with the reactor.
    writable: bool,
}

/// A frame sitting in the delay queue until `release`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Delayed {
    release: Instant,
    seq: u64,
    dest: usize,
    frame: Vec<u8>,
}

/// Per-run state, created by the `hello` frame.
struct RunState {
    process: usize,
    n: usize,
    /// The run's monitor automaton: the range of a token's `transition_id` and
    /// of the global states it may carry.
    automaton: Arc<MonitorAutomaton>,
    monitor: DecentralizedMonitor,
    /// Reactor token of the peer connection to each process (self is `None`).
    peer_token: Vec<Option<u64>>,
    /// Frames on each peer connection that are not monitor frames (the single
    /// `peer_hello` on dialed connections), excluded from the `sent` counters.
    peer_overhead: Vec<u64>,
    /// Outgoing fault shim per destination process (self is `None`).
    injectors: Vec<Option<FaultInjector>>,
    delay_heap: BinaryHeap<Reverse<Delayed>>,
    delay_seq: u64,
    /// Next monitor-frame sequence number per destination process, assigned
    /// before the fault shim so duplicates share one number.
    next_seq: Vec<u64>,
    /// Sequence numbers already processed, per source process.  Duplicates the
    /// shim injects still tick `received` (the barrier counts wire frames) but
    /// are not re-fed to the monitor — re-feeding would provoke responses that
    /// are themselves duplicated, amplifying traffic without bound at `dup=1`.
    seen_seq: Vec<HashSet<u64>>,
    /// Monitor frames decoded per source process.
    received: Vec<u64>,
    events_seen: u64,
    /// Messages the monitor emitted, pre-shim (what a co-located
    /// `FeedSession` would count).
    logical_msgs: u64,
    /// True when the hello negotiated the binary wire: outgoing monitor frames
    /// are binary-encoded (incoming frames self-describe either way).
    binary_wire: bool,
}

/// Checks a decoded frame against the run it arrived in.  The monitor and the
/// transport tables index by the process numbers, transition ids and clock widths
/// a frame carries without looking, so this is the boundary that turns a
/// decodable but inconsistent frame into a protocol failure instead of a panic —
/// what the stream runtime's shard worker does for session records.
fn check_frame(msg: &WireMsg, run: &RunState) -> Result<(), String> {
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

struct Daemon {
    reactor: Reactor,
    listener: Listener,
    conns: HashMap<u64, ConnEntry>,
    next_token: u64,
    control: Option<u64>,
    run: Option<RunState>,
    idle_timeout: Duration,
    idle_deadline: Instant,
    shutdown: bool,
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
            control: None,
            run: None,
            idle_timeout,
            idle_deadline: Instant::now() + idle_timeout,
            shutdown: false,
        })
    }

    fn run(mut self) -> Result<ExitCode, NetError> {
        loop {
            if self.shutdown {
                self.drain_control()?;
                return Ok(ExitCode::SUCCESS);
            }
            let now = Instant::now();
            if now >= self.idle_deadline {
                obs_warn!(
                    "no orchestrator traffic for {:.1}s, exiting",
                    self.idle_timeout.as_secs_f64()
                );
                return Ok(ExitCode::from(3));
            }
            let mut timeout = self.idle_deadline - now;
            if let Some(run) = &self.run {
                if let Some(Reverse(front)) = run.delay_heap.peek() {
                    timeout = timeout.min(front.release.saturating_duration_since(now));
                }
            }
            let timeout_ms = timeout.as_millis().clamp(1, 10_000) as u64;
            let events: Vec<dlrv_net::IoEvent> =
                self.reactor.poll(Some(timeout_ms))?.to_vec();
            for ev in events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_all()?;
                } else {
                    self.service_conn(ev.token, ev.readable, ev.writable)?;
                    if self.shutdown {
                        break;
                    }
                }
            }
            self.release_due_frames()?;
        }
    }

    /// Accepts every pending connection on the listener.
    fn accept_all(&mut self) -> Result<(), NetError> {
        while let Some(sock) = self.listener.accept()? {
            let token = self.next_token;
            self.next_token += 1;
            let conn = FramedConn::new(sock);
            self.reactor.register(conn.raw_fd(), token, Interest::READABLE)?;
            self.conns.insert(
                token,
                ConnEntry {
                    conn,
                    role: Role::Anonymous,
                    writable: false,
                },
            );
        }
        Ok(())
    }

    /// Handles readiness on one connection.
    fn service_conn(&mut self, token: u64, readable: bool, writable: bool) -> Result<(), NetError> {
        if writable {
            if let Some(entry) = self.conns.get_mut(&token) {
                entry.conn.flush()?;
            }
        }
        if readable {
            let msgs = match self.conns.get_mut(&token) {
                Some(entry) => entry.conn.on_readable_msgs()?,
                None => return Ok(()),
            };
            for msg in msgs {
                self.handle_frame(token, msg)?;
                if self.shutdown {
                    return Ok(());
                }
            }
            if let Some(entry) = self.conns.get(&token) {
                if entry.conn.is_eof() {
                    self.close_conn(token)?;
                    if self.control == Some(token) && !self.shutdown {
                        return Err(NetError::msg("orchestrator closed the control connection"));
                    }
                    return Ok(());
                }
            }
        }
        self.update_interest(token)?;
        Ok(())
    }

    fn close_conn(&mut self, token: u64) -> Result<(), NetError> {
        if let Some(entry) = self.conns.remove(&token) {
            self.reactor.deregister(entry.conn.raw_fd())?;
        }
        Ok(())
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

    /// Dispatches one decoded frame according to the connection's role.
    fn handle_frame(&mut self, token: u64, msg: WireMsg) -> Result<(), NetError> {
        if let Some(Err(reason)) = self.run.as_ref().map(|run| check_frame(&msg, run)) {
            return self.fail(token, &reason);
        }
        match msg {
            WireMsg::Hello {
                process,
                n_processes,
                property,
                options,
                initial_state,
                fault,
                peers,
                binary_wire,
            } => {
                if self.run.is_some() {
                    return self.fail(token, "duplicate hello");
                }
                self.touch_control(token);
                if let Some(entry) = self.conns.get_mut(&token) {
                    entry.role = Role::Control;
                }
                self.control = Some(token);
                let spec = property_from_json(&property)
                    .map_err(|e| NetError::msg(format!("hello property: {e}")))?;
                let opts = match &options {
                    dlrv_core::dlrv_json::Json::Null => dlrv_monitor::MonitorOptions::default(),
                    v => options_from_json(v)
                        .map_err(|e| NetError::msg(format!("hello options: {e}")))?,
                };
                if process >= n_processes
                    || peers.len() != n_processes
                    || n_processes < spec.min_processes()
                {
                    return self.fail(token, "hello process/peers/property mismatch");
                }
                dlrv_obs::set_log_prefix(format!("daemon{process}"));
                obs_info!("hello: process {process} of {n_processes}");
                let compiled = CompiledProperty::compile(&spec, n_processes);
                if initial_state >= compiled.automaton.n_symbols() as u64 {
                    return self.fail(token, "hello initial_state outside the property's atoms");
                }
                let monitor = DecentralizedMonitor::new(
                    process,
                    n_processes,
                    compiled.automaton.clone(),
                    compiled.registry.clone(),
                    Assignment(initial_state),
                    opts,
                );
                let mut run = RunState {
                    process,
                    n: n_processes,
                    automaton: compiled.automaton.clone(),
                    monitor,
                    peer_token: vec![None; n_processes],
                    peer_overhead: vec![0; n_processes],
                    injectors: (0..n_processes)
                        .map(|j| {
                            let spec = fault.unwrap_or_default();
                            (j != process)
                                .then(|| FaultInjector::new(spec, (process * n_processes + j) as u64))
                        })
                        .collect(),
                    delay_heap: BinaryHeap::new(),
                    delay_seq: 0,
                    next_seq: vec![0; n_processes],
                    seen_seq: vec![HashSet::new(); n_processes],
                    received: vec![0; n_processes],
                    events_seen: 0,
                    logical_msgs: 0,
                    binary_wire,
                };
                // Dial the lower-numbered peers; higher-numbered peers dial us.
                for (j, peer) in peers.iter().enumerate().take(process) {
                    let ep = Endpoint::parse(peer)
                        .map_err(|e| NetError::msg(format!("peer endpoint {peer}: {e}")))?;
                    let sock = connect_with_retry(&ep, Duration::from_secs(10))?;
                    let peer_token = self.next_token;
                    self.next_token += 1;
                    let mut conn = FramedConn::new(sock);
                    conn.send_msg(&WireMsg::PeerHello { from: process })?;
                    run.peer_overhead[j] = 1;
                    self.reactor
                        .register(conn.raw_fd(), peer_token, Interest::READABLE)?;
                    self.conns.insert(
                        peer_token,
                        ConnEntry {
                            conn,
                            role: Role::Peer { from: j },
                            writable: false,
                        },
                    );
                    run.peer_token[j] = Some(peer_token);
                    self.update_interest(peer_token)?;
                }
                // Adopt peers that already introduced themselves — before this
                // frame said how many processes there are, so checked only now.
                let introduced: Vec<(u64, usize)> = self
                    .conns
                    .iter()
                    .filter_map(|(t, e)| match e.role {
                        Role::Peer { from } => Some((*t, from)),
                        _ => None,
                    })
                    .collect();
                for (t, from) in introduced {
                    check_frame(&WireMsg::PeerHello { from }, &run)
                        .or_else(|reason| self.fail(token, &reason))?;
                    run.peer_token[from].get_or_insert(t);
                }
                self.run = Some(run);
                self.maybe_hello_ok()?;
            }
            WireMsg::PeerHello { from } => {
                if let Some(entry) = self.conns.get_mut(&token) {
                    entry.role = Role::Peer { from };
                }
                if let Some(run) = &mut self.run {
                    if run.peer_token[from].is_some() {
                        return self.fail(token, "unexpected peer_hello");
                    }
                    run.peer_token[from] = Some(token);
                }
                self.maybe_hello_ok()?;
            }
            WireMsg::Event { event } => {
                self.touch_control(token);
                let run = self.run.as_mut().ok_or_else(|| NetError::msg("event before hello"))?;
                run.events_seen += 1;
                let time = event.time;
                let process = run.process;
                let n = run.n;
                let mut outbox = Vec::new();
                {
                    let mut ctx = MonitorContext::new(process, n, time, &mut outbox);
                    run.monitor.on_local_event(&event, &mut ctx);
                }
                self.dispatch_outbox(time, outbox)?;
                let telemetry_due = self
                    .run
                    .as_ref()
                    .is_some_and(|r| r.events_seen % TELEMETRY_EVERY_EVENTS == 0);
                if telemetry_due {
                    self.send_telemetry()?;
                }
            }
            WireMsg::Monitor {
                from,
                seq,
                time,
                msg,
            } => {
                let run = self.run.as_mut().ok_or_else(|| NetError::msg("monitor frame before hello"))?;
                run.received[from] += 1;
                if !run.seen_seq[from].insert(seq) {
                    // A shim-injected duplicate: counted for the barrier, not
                    // re-processed by the monitor.
                    return Ok(());
                }
                let process = run.process;
                let n = run.n;
                let decoded = msg;
                let mut outbox = Vec::new();
                {
                    let mut ctx = MonitorContext::new(process, n, time, &mut outbox);
                    run.monitor.on_monitor_message(from, decoded, &mut ctx);
                }
                self.dispatch_outbox(time, outbox)?;
            }
            WireMsg::Status => {
                self.touch_control(token);
                self.flush_holds()?;
                let status = self.status()?;
                self.reply(token, &WireMsg::StatusOk(status))?;
            }
            WireMsg::Finish { time } => {
                self.touch_control(token);
                self.flush_holds()?;
                {
                    let run = self
                        .run
                        .as_mut()
                        .ok_or_else(|| NetError::msg("finish before hello"))?;
                    let process = run.process;
                    let n = run.n;
                    let mut outbox = Vec::new();
                    {
                        let mut ctx = MonitorContext::new(process, n, time, &mut outbox);
                        run.monitor.on_local_termination(&mut ctx);
                    }
                    self.dispatch_outbox(time, outbox)?;
                }
                obs_info!("finish at t={time:.3}");
                // One final sample so the timeline always covers the run's end
                // state, whatever the event-count cadence left off at.
                self.send_telemetry()?;
                self.reply(token, &WireMsg::FinishOk)?;
            }
            WireMsg::Report => {
                self.touch_control(token);
                let run = self.run.as_ref().ok_or_else(|| NetError::msg("report before hello"))?;
                let mut fault_stats = FaultStats::default();
                for injector in run.injectors.iter().flatten() {
                    fault_stats.merge(&injector.stats());
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
                self.touch_control(token);
                obs_info!("shutdown");
                self.reply(token, &WireMsg::ShutdownOk)?;
                self.shutdown = true;
            }
            other => {
                return self.fail(token, &format!("unexpected frame {other:?}"));
            }
        }
        Ok(())
    }

    /// Sends `hello_ok` once the hello arrived and the peer mesh is complete.
    fn maybe_hello_ok(&mut self) -> Result<(), NetError> {
        let Some(run) = &self.run else { return Ok(()) };
        let complete = (0..run.n).all(|j| j == run.process || run.peer_token[j].is_some());
        if !complete {
            return Ok(());
        }
        let process = run.process;
        let Some(control) = self.control else { return Ok(()) };
        obs_info!("peer mesh complete, sending hello_ok");
        self.reply(control, &WireMsg::HelloOk { process })
    }

    /// Emits one unsolicited [`WireMsg::Telemetry`] frame on the control
    /// connection; the orchestrator intercepts these into per-daemon timelines
    /// instead of treating them as replies.
    fn send_telemetry(&mut self) -> Result<(), NetError> {
        let Some(control) = self.control else { return Ok(()) };
        let Some(run) = self.run.as_ref() else { return Ok(()) };
        let metrics = run.monitor.metrics();
        let queued_frames = run.delay_heap.len() as u64
            + run.injectors.iter().flatten().map(|i| i.held() as u64).sum::<u64>();
        let sample = DaemonTelemetry {
            process: run.process,
            events_seen: run.events_seen,
            live_views: run.monitor.views().len() as u64,
            tokens_sent: metrics.tokens_sent as u64,
            tokens_received: metrics.tokens_received as u64,
            queued_frames,
            peak_rss_bytes: dlrv_obs::peak_rss_bytes().unwrap_or(0),
        };
        obs_debug!(
            "telemetry: {} events, {} live views, {} queued frames",
            sample.events_seen,
            sample.live_views,
            sample.queued_frames
        );
        self.reply(control, &WireMsg::Telemetry(sample))
    }

    /// Runs the monitor outbox to quiescence: self-deliveries recurse FIFO, remote
    /// messages go through the fault shim onto peer connections.
    fn dispatch_outbox(
        &mut self,
        time: f64,
        outbox: Vec<(usize, MonitorMsg)>,
    ) -> Result<(), NetError> {
        let mut queue: VecDeque<(usize, MonitorMsg)> = VecDeque::new();
        {
            let run = self.run.as_mut().ok_or_else(|| NetError::msg("no run"))?;
            run.logical_msgs += outbox.len() as u64;
            queue.extend(outbox);
        }
        while let Some((dest, msg)) = queue.pop_front() {
            let run = self.run.as_mut().ok_or_else(|| NetError::msg("no run"))?;
            if dest == run.process {
                let process = run.process;
                let n = run.n;
                let mut outbox = Vec::new();
                {
                    let mut ctx = MonitorContext::new(process, n, time, &mut outbox);
                    run.monitor.on_monitor_message(process, msg, &mut ctx);
                }
                run.logical_msgs += outbox.len() as u64;
                queue.extend(outbox);
            } else {
                let seq = run.next_seq[dest];
                run.next_seq[dest] += 1;
                // Encoded here (not via the connection) because the fault shim
                // operates on whole opaque frames — binary or JSON alike.
                let frame = encode_wire_frame(
                    &WireMsg::Monitor {
                        from: run.process,
                        seq,
                        time,
                        msg,
                    },
                    run.binary_wire,
                );
                let injector = run.injectors[dest]
                    .as_mut()
                    .ok_or_else(|| NetError::msg("no injector for peer"))?;
                let wire_frames = injector.on_send(frame);
                self.emit_frames(dest, wire_frames)?;
            }
        }
        Ok(())
    }

    /// Queues post-shim frames for `dest`, via the delay queue when configured.
    fn emit_frames(&mut self, dest: usize, frames: Vec<Vec<u8>>) -> Result<(), NetError> {
        let run = self.run.as_mut().ok_or_else(|| NetError::msg("no run"))?;
        let delay_ms = run.injectors[dest]
            .as_ref()
            .map_or(0.0, FaultInjector::delay_ms);
        if delay_ms > 0.0 {
            let release = Instant::now() + Duration::from_secs_f64(delay_ms / 1000.0);
            for frame in frames {
                let seq = run.delay_seq;
                run.delay_seq += 1;
                run.delay_heap.push(Reverse(Delayed {
                    release,
                    seq,
                    dest,
                    frame,
                }));
            }
            Ok(())
        } else {
            let token = run.peer_token[dest].ok_or_else(|| NetError::msg("peer not connected"))?;
            if let Some(entry) = self.conns.get_mut(&token) {
                for frame in frames {
                    entry.conn.queue_bytes(frame);
                }
                entry.conn.flush()?;
            }
            self.update_interest(token)
        }
    }

    /// Moves every frame whose delay elapsed onto its peer connection.
    fn release_due_frames(&mut self) -> Result<(), NetError> {
        loop {
            let (dest, frame) = {
                let Some(run) = self.run.as_mut() else { return Ok(()) };
                match run.delay_heap.peek() {
                    Some(Reverse(front)) if front.release <= Instant::now() => {
                        let Some(Reverse(d)) = run.delay_heap.pop() else { unreachable!() };
                        (d.dest, d.frame)
                    }
                    _ => return Ok(()),
                }
            };
            let token = {
                let run = self.run.as_ref().ok_or_else(|| NetError::msg("no run"))?;
                run.peer_token[dest].ok_or_else(|| NetError::msg("peer not connected"))?
            };
            if let Some(entry) = self.conns.get_mut(&token) {
                entry.conn.queue_bytes(frame);
                entry.conn.flush()?;
            }
            self.update_interest(token)?;
        }
    }

    /// Releases every reorder hold so the channels drain (barrier/finish time).
    fn flush_holds(&mut self) -> Result<(), NetError> {
        let n = match &self.run {
            Some(run) => run.n,
            None => return Ok(()),
        };
        for dest in 0..n {
            let held = self
                .run
                .as_mut()
                .and_then(|run| run.injectors[dest].as_mut())
                .and_then(FaultInjector::flush_hold);
            if let Some(frame) = held {
                self.emit_frames(dest, vec![frame])?;
            }
        }
        Ok(())
    }

    /// The transport counters of the quiescence barrier.
    fn status(&self) -> Result<DaemonStatus, NetError> {
        let run = self.run.as_ref().ok_or_else(|| NetError::msg("status before hello"))?;
        let mut sent = vec![0u64; run.n];
        let mut pending = run.delay_heap.len() as u64;
        for (j, slot) in sent.iter_mut().enumerate() {
            if let Some(injector) = &run.injectors[j] {
                pending += injector.held() as u64;
            }
            if let Some(token) = run.peer_token[j] {
                if let Some(entry) = self.conns.get(&token) {
                    *slot = entry
                        .conn
                        .frames_flushed()
                        .saturating_sub(run.peer_overhead[j]);
                    pending += entry.conn.queued_frames() as u64;
                }
            }
        }
        let dropped = run
            .injectors
            .iter()
            .flatten()
            .map(|i| i.stats().dropped)
            .sum();
        Ok(DaemonStatus {
            process: run.process,
            events_seen: run.events_seen,
            sent,
            received: run.received.clone(),
            pending,
            dropped,
        })
    }

    fn reply(&mut self, token: u64, msg: &WireMsg) -> Result<(), NetError> {
        if let Some(entry) = self.conns.get_mut(&token) {
            entry.conn.send_msg(msg)?;
        }
        self.update_interest(token)
    }

    /// Sends an error frame on the control connection — or, before any hello, on
    /// the offending connection `token` — and fails the daemon.
    fn fail(&mut self, token: u64, message: &str) -> Result<(), NetError> {
        let _ = self.reply(
            self.control.unwrap_or(token),
            &WireMsg::Error {
                message: message.to_string(),
            },
        );
        Err(NetError::msg(message))
    }

    fn touch_control(&mut self, token: u64) {
        if self.control.is_none() || self.control == Some(token) {
            self.idle_deadline = Instant::now() + self.idle_timeout;
        }
    }

    /// Blocks until the control connection's write queue drains (bounded).
    fn drain_control(&mut self) -> Result<(), NetError> {
        let Some(token) = self.control else { return Ok(()) };
        let deadline = Instant::now() + Duration::from_secs(5);
        while let Some(entry) = self.conns.get_mut(&token) {
            if entry.conn.flush()? || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}
