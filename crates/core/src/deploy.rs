//! The deploy orchestrator: run one scenario as real OS processes over sockets.
//!
//! `run_deploy` reproduces the [`FeedSession`](dlrv_monitor::FeedSession)
//! discipline — feed one event, drain every monitor-to-monitor message to
//! quiescence, then feed the next — across process boundaries:
//!
//! 1. One `monitord` daemon is spawned per monitored process, all of them before
//!    any start-up is waited for; each binds a TCP or Unix listener and prints
//!    `LISTEN <endpoint>` on stdout.
//! 2. The orchestrator connects a control channel to every daemon, sends the
//!    `hello` (property, options, initial state, fault spec, full endpoint list)
//!    and waits for every `hello_ok` — daemons establish their peer mesh in
//!    between (each dials its lower-numbered peers).
//! 3. Events are fed in timestamp order, one at a time, to the daemon of the
//!    event's process.  After each event the orchestrator runs the **quiescence
//!    barrier**: it polls every daemon's transport counters until the send/receive
//!    matrix balances (`sent[i][j] == received[j][i]`), nothing is pending inside
//!    any daemon (write queues, reorder holds, delay queues), and two consecutive
//!    polls agree — the classic counter-balance termination test adapted to lossy
//!    channels (deliberately dropped frames are excluded from `sent`).
//! 4. End of trace is one instant, exactly as in `FeedSession::finish`.  Every
//!    daemon gets `finish` at the global last event timestamp: its monitor runs
//!    local termination and the daemon *holds* the messages that emits.  Only
//!    then does each daemon, in process order, get `release` — its held messages
//!    go out through the ordinary send path — followed by a barrier.  So no
//!    monitor hears from a peer before it knows that its own process ended.
//! 5. Reports are collected and folded into the same [`RunMetrics`] as the
//!    in-process runners, so deploy results flow into the schema-v1 pipeline.
//!
//! Every exchange after the `hello`s is one round trip through `Daemon::request`,
//! which blocks on the control socket — a reactor of its own per daemon — rather
//! than on the clock; only the pause between two barrier rounds is a sleep
//! (pacing, measured in `docs/DEPLOYMENT.md`, "The quiescence barrier").
//!
//! Because the barrier delivers everything between consecutive events, verdicts
//! under delay/duplication/reordering faults are identical to the in-process
//! runtime (duplicates are absorbed by global-view merging, reordering happens
//! only within one event's message burst); frame *loss* genuinely removes
//! exploration and is pinned as an expected divergence by `tests/deploy_faults.rs`.

use crate::experiment::{simulate_session, ExperimentConfig, ExperimentResult};
use crate::results::{options_to_json, property_to_json};
use crate::spec::CompiledProperty;
use dlrv_monitor::{MonitorOptions, RunMetrics};
use dlrv_net::{
    connect_with_retry, DaemonReport, DaemonStatus, DaemonTelemetry, Endpoint, FaultSpec,
    FaultStats, FramedConn, Interest, Reactor, WireMsg,
};
use std::collections::VecDeque;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which socket family carries the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployTransport {
    /// TCP over the loopback interface (`tcp:127.0.0.1:0`, ports auto-assigned).
    Tcp,
    /// Unix domain sockets in the system temp directory.
    Unix,
}

impl DeployTransport {
    /// Stable lowercase name used in listings and the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            DeployTransport::Tcp => "tcp",
            DeployTransport::Unix => "unix",
        }
    }

    /// The transport with the given [`name`](Self::name), if any.
    pub fn from_name(name: &str) -> Option<DeployTransport> {
        match name {
            "tcp" => Some(DeployTransport::Tcp),
            "unix" => Some(DeployTransport::Unix),
            _ => None,
        }
    }
}

/// How a deploy scenario is carried over the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeployParams {
    /// Socket family of the control and peer channels.
    pub transport: DeployTransport,
    /// Fault spec applied to every daemon's outgoing peer channels (`None` = a
    /// perfect network).
    pub fault: Option<FaultSpec>,
}

impl DeployParams {
    /// A fault-free deployment over the given transport.
    pub fn clean(transport: DeployTransport) -> Self {
        DeployParams {
            transport,
            fault: None,
        }
    }
}

/// The outcome of a deploy run: the usual experiment result plus what the fault
/// shims did across all daemons and seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployOutcome {
    /// Metrics and verdicts, aggregated exactly like the in-process runners.
    pub result: ExperimentResult,
    /// Merged fault-shim counters over every channel, daemon and seed.
    pub fault_stats: FaultStats,
}

/// Timeout for a single control-plane reply; generous because a daemon may be
/// compiling-cold, swapping, or sitting behind a delay-fault queue.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Timeout for one quiescence barrier (covers delay faults and slow CI machines).
/// A fault spec's delay is bounded by the same minute
/// ([`dlrv_net::fault::MAX_DELAY_MS`]).
const BARRIER_TIMEOUT: Duration = Duration::from_secs(60);

/// Distinguishes concurrent deploy runs sharing a temp directory.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Locates the `monitord` binary: the `DLRV_MONITORD_BIN` environment variable,
/// then a sibling of the current executable (covers `target/<profile>/` for the
/// `experiments` binary and `target/<profile>/deps/..` for integration tests).
pub fn monitord_binary() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("DLRV_MONITORD_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(format!(
            "DLRV_MONITORD_BIN={} does not exist",
            path.display()
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let candidate = d.join("monitord");
        if candidate.is_file() {
            return Ok(candidate);
        }
        if d.file_name().is_some_and(|n| n == "target") {
            break;
        }
        dir = d.parent();
    }
    Err(
        "monitord binary not found next to the current executable; build it with \
         `cargo build --bin monitord` or set DLRV_MONITORD_BIN"
            .to_string(),
    )
}

/// Runs `config` as one OS process per monitor, once per seed (sequentially —
/// each seed spawns its own process fleet), and averages the metrics exactly
/// like [`run_experiment_with_options`](crate::experiment::run_experiment_with_options).
pub fn run_deploy(
    config: &ExperimentConfig,
    opts: MonitorOptions,
    params: &DeployParams,
) -> Result<DeployOutcome, String> {
    let binary = monitord_binary()?;
    let mut per_seed = Vec::with_capacity(config.seeds.len());
    let mut fault_stats = FaultStats::default();
    for &seed in &config.seeds {
        let metrics = run_seed(config, opts, params, &binary, seed, &mut fault_stats)?;
        per_seed.push(metrics);
    }
    Ok(DeployOutcome {
        result: ExperimentResult::from_seeds(config, per_seed),
        fault_stats,
    })
}

/// One daemon of the fleet: the OS process plus its control channel.
struct Daemon {
    child: Child,
    endpoint: String,
    conn: FramedConn,
    /// Holds `conn` alone, so [`Daemon::recv`] sleeps until the daemon writes.
    reactor: Reactor,
    inbox: VecDeque<WireMsg>,
    /// Unsolicited telemetry samples intercepted off the control channel, in
    /// arrival order — the daemon's live timeline for this run.
    telemetry: Vec<DaemonTelemetry>,
}

impl Daemon {
    /// Sends one control frame, blocking until it is fully on the wire.
    fn send(&mut self, msg: &WireMsg) -> Result<(), String> {
        match self
            .conn
            .send_msg(msg)
            .and_then(|()| self.conn.flush_blocking(REPLY_TIMEOUT))
        {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("send to {}: flush timed out", self.endpoint)),
            Err(e) => Err(format!("send to {}: {e}", self.endpoint)),
        }
    }

    /// Receives the next control frame, blocking on the socket up to
    /// [`REPLY_TIMEOUT`].
    ///
    /// Telemetry frames are unsolicited: they are folded into
    /// [`Daemon::telemetry`] here and never surfaced as a reply, so the
    /// lockstep request/response discipline of the feed loop is unaffected by
    /// how often daemons sample.
    fn recv(&mut self) -> Result<WireMsg, String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            while let Some(msg) = self.inbox.pop_front() {
                match msg {
                    WireMsg::Error { message } => {
                        return Err(format!("daemon {}: {message}", self.endpoint));
                    }
                    WireMsg::Telemetry(sample) => self.telemetry.push(sample),
                    msg => return Ok(msg),
                }
            }
            let msgs = self
                .conn
                .on_readable_msgs()
                .map_err(|e| format!("recv from {}: {e}", self.endpoint))?;
            self.inbox.extend(msgs);
            if self.inbox.is_empty() {
                if self.conn.is_eof() {
                    return Err(format!(
                        "daemon {} closed the control channel",
                        self.endpoint
                    ));
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(format!("daemon {}: reply timed out", self.endpoint));
                }
                self.reactor
                    .poll(Some(left.as_millis().max(1) as u64))
                    .map_err(|e| format!("wait for {}: {e}", self.endpoint))?;
            }
        }
    }

    /// Awaits the reply to a request already sent: `expect` takes what the caller
    /// wants out of the right frame and hands any other frame back (boxed: it is the
    /// failure path) as the error.
    fn reply<T>(
        &mut self,
        expect: impl FnOnce(WireMsg) -> Result<T, Box<WireMsg>>,
    ) -> Result<T, String> {
        expect(self.recv()?)
            .map_err(|other| format!("daemon {}: unexpected reply {other:?}", self.endpoint))
    }

    /// One control round trip — every exchange after the `hello`s is one.
    fn request<T>(
        &mut self,
        msg: &WireMsg,
        expect: impl FnOnce(WireMsg) -> Result<T, Box<WireMsg>>,
    ) -> Result<T, String> {
        self.send(msg)?;
        self.reply(expect)
    }
}

/// Expects exactly `wanted` as the reply (the `*_ok` frames without a payload).
fn just(wanted: WireMsg) -> impl FnOnce(WireMsg) -> Result<(), Box<WireMsg>> {
    move |reply| {
        if reply == wanted {
            Ok(())
        } else {
            Err(reply.into())
        }
    }
}

/// Kills every remaining daemon process when a run unwinds early.
struct Fleet {
    daemons: Vec<Daemon>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for daemon in &mut self.daemons {
            kill_and_reap(&mut daemon.child);
        }
    }
}

/// The daemons of a fleet being started and their stderr readers, before they
/// join the [`Fleet`]: when the start-up fails, every daemon is killed and reaped
/// and every reader joined.
struct Spawned {
    children: Vec<Child>,
    readers: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for Spawned {
    fn drop(&mut self) {
        for child in &mut self.children {
            kill_and_reap(child);
        }
        // The daemons are gone, so their pipes are at EOF and the readers end.
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

fn kill_and_reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Spawns one daemon and starts a reader thread that tags every stderr line with
/// the daemon index and appends it to the shared `stderr_log` in true arrival
/// order (the interleaved fleet log).  The daemon inherits the orchestrator's
/// environment, so `DLRV_LOG` set on the `experiments` process propagates to the
/// whole fleet; when it is set the tagged lines are additionally echoed to the
/// orchestrator's own stderr.  Its `LISTEN` line is left for [`read_listen`].
fn spawn_daemon(
    binary: &PathBuf,
    listen: &str,
    process: usize,
    stderr_log: &Arc<Mutex<Vec<String>>>,
) -> Result<(Child, std::thread::JoinHandle<()>), String> {
    let mut child = Command::new(binary)
        .args(["--listen", listen, "--idle-timeout-secs", "60"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
    let stderr = child.stderr.take().ok_or("daemon stderr not captured")?;
    let log = Arc::clone(stderr_log);
    let echo = std::env::var_os("DLRV_LOG").is_some();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            let tagged = format!("[daemon{process}] {line}");
            if echo {
                eprintln!("{tagged}");
            }
            if let Ok(mut log) = log.lock() {
                log.push(tagged);
            }
        }
    });
    Ok((child, reader))
}

/// Reads the endpoint a spawned daemon listens on from its `LISTEN` line.
fn read_listen(child: &mut Child) -> Result<String, String> {
    let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("read LISTEN line: {e}"))?;
    line.strip_prefix("LISTEN ")
        .map(|rest| rest.trim().to_string())
        .filter(|ep| !ep.is_empty())
        .ok_or_else(|| format!("daemon did not report LISTEN (got `{}`)", line.trim()))
}

/// One seed end-to-end: spawn the fleet, handshake, feed, finish, report, shut down.
fn run_seed(
    config: &ExperimentConfig,
    opts: MonitorOptions,
    params: &DeployParams,
    binary: &PathBuf,
    seed: u64,
    fault_stats: &mut FaultStats,
) -> Result<RunMetrics, String> {
    let n = config.n_processes;
    let compiled = CompiledProperty::compile(&config.property, n);

    // The simulated distributed program (the deploy run monitors the *same*
    // computation as the in-process runners).
    let session = simulate_session(&config.workload_config(seed), &compiled.registry);
    let (events, report) = (session.events, session.report);
    let initial_state = session.initial_state.0;

    // Spawn the fleet: every daemon is started before any `LISTEN` line is read,
    // so their start-ups overlap.  All daemons append their tagged stderr lines
    // to one shared vector, so the fleet log is interleaved in actual arrival
    // order.  Until every control channel is up, any error kills and reaps every
    // daemon spawned so far (`Spawned`), and after that the fleet does.
    let run_id = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    let stderr_log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut spawned = Spawned {
        children: Vec::with_capacity(n),
        readers: Vec::with_capacity(n),
    };
    for i in 0..n {
        let listen = match params.transport {
            DeployTransport::Tcp => "tcp:127.0.0.1:0".to_string(),
            DeployTransport::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "dlrv-deploy-{}-{run_id}-{i}.sock",
                    std::process::id()
                ));
                format!("unix:{}", path.display())
            }
        };
        let (child, reader) = spawn_daemon(binary, &listen, i, &stderr_log)?;
        spawned.children.push(child);
        spawned.readers.push(reader);
    }
    let mut controls = Vec::with_capacity(n);
    for child in &mut spawned.children {
        let endpoint = read_listen(child)?;
        let ep = Endpoint::parse(&endpoint).map_err(|e| format!("daemon endpoint: {e}"))?;
        let sock = connect_with_retry(&ep, Duration::from_secs(10))
            .map_err(|e| format!("connect control channel to {endpoint}: {e}"))?;
        let conn = FramedConn::new(sock);
        let reactor = Reactor::new().map_err(|e| format!("reactor for {endpoint}: {e}"))?;
        reactor
            .register(conn.raw_fd(), 0, Interest::READABLE)
            .map_err(|e| format!("watch control channel to {endpoint}: {e}"))?;
        controls.push((endpoint, conn, reactor));
    }
    let stderr_readers = std::mem::take(&mut spawned.readers);
    let mut fleet = Fleet {
        daemons: std::mem::take(&mut spawned.children)
            .into_iter()
            .zip(controls)
            .map(|(child, (endpoint, conn, reactor))| Daemon {
                child,
                endpoint,
                conn,
                reactor,
                inbox: VecDeque::new(),
                telemetry: Vec::new(),
            })
            .collect(),
    };

    // Handshake: every hello goes out before any hello_ok is awaited, because
    // daemon i only answers once its whole peer mesh (which includes daemons > i)
    // is up.
    let peers: Vec<String> = fleet.daemons.iter().map(|d| d.endpoint.clone()).collect();
    for (i, daemon) in fleet.daemons.iter_mut().enumerate() {
        daemon.send(&WireMsg::Hello {
            process: i,
            n_processes: n,
            property: property_to_json(&config.property),
            options: options_to_json(&opts),
            initial_state,
            fault: params.fault,
            peers: peers.clone(),
        })?;
    }
    for (i, daemon) in fleet.daemons.iter_mut().enumerate() {
        daemon.reply(just(WireMsg::HelloOk { process: i }))?;
    }

    // Feed the trace in lockstep: one event, then drain the whole system.
    let started = Instant::now();
    let mut last_time = 0.0f64;
    for event in &events {
        last_time = last_time.max(event.time);
        let target = event.process;
        fleet.daemons[target].send(&WireMsg::Event {
            event: event.clone(),
        })?;
        barrier(&mut fleet)?;
    }

    // End of trace is one instant, exactly as in `FeedSession::finish`: every
    // daemon terminates at the global last timestamp and holds what that emits;
    // then the held messages are released one daemon at a time, in process order,
    // each drained to quiescence before the next (one barrier for all would make
    // the delivery order depend on the sockets).
    for daemon in &mut fleet.daemons {
        daemon.request(
            &WireMsg::Finish { time: last_time },
            just(WireMsg::FinishOk),
        )?;
    }
    for i in 0..n {
        fleet.daemons[i].request(&WireMsg::Release, just(WireMsg::ReleaseOk))?;
        barrier(&mut fleet)?;
    }
    let wall_clock_secs = started.elapsed().as_secs_f64();

    // Collect reports, then shut the fleet down gracefully.
    let mut reports: Vec<DaemonReport> = Vec::with_capacity(n);
    for (i, daemon) in fleet.daemons.iter_mut().enumerate() {
        reports.push(daemon.request(&WireMsg::Report, |reply| match reply {
            WireMsg::ReportOk(report) if report.process == i => Ok(report),
            other => Err(other.into()),
        })?);
    }
    // Every telemetry frame precedes `report_ok` on the control channel, so by
    // now each daemon's full timeline has been intercepted into its inbox path.
    let telemetry: Vec<Vec<DaemonTelemetry>> = fleet
        .daemons
        .iter_mut()
        .map(|d| std::mem::take(&mut d.telemetry))
        .collect();
    for (i, daemon) in fleet.daemons.iter_mut().enumerate() {
        daemon.request(&WireMsg::Shutdown, just(WireMsg::ShutdownOk))?;
        let status = daemon
            .child
            .wait()
            .map_err(|e| format!("wait for daemon {i}: {e}"))?;
        if !status.success() {
            return Err(format!("daemon {i} exited with {status}"));
        }
    }
    fleet.daemons.clear();
    // The daemons exited, so the pipes are at EOF and the readers are done.
    for reader in stderr_readers {
        let _ = reader.join();
    }
    if let Some(dir) = std::env::var_os("DLRV_ARTIFACT_DIR") {
        let lines = stderr_log.lock().map(|l| l.clone()).unwrap_or_default();
        if let Err(e) =
            write_run_artifacts(Path::new(&dir), params.transport, seed, &telemetry, &lines)
        {
            dlrv_obs::obs_warn!("deploy artifacts not written: {e}");
        }
    }

    // Fold into RunMetrics, the same shape every other runner produces.
    let per_monitor: Vec<_> = reports.iter().map(|r| r.metrics.clone()).collect();
    let monitor_messages: u64 = reports.iter().map(|r| r.logical_monitor_msgs).sum();
    for report in &reports {
        fault_stats.merge(&report.fault_stats);
    }
    let monitoring_end_time = per_monitor
        .iter()
        .map(|m| m.last_activity_time)
        .fold(report.program_end_time, f64::max);
    let mut metrics = RunMetrics::aggregate(
        &per_monitor,
        events.len(),
        report.program_messages,
        monitor_messages as usize,
        report.program_end_time,
        monitoring_end_time,
    );
    metrics.wall_clock_secs = wall_clock_secs;
    metrics.events_per_sec = if wall_clock_secs > 0.0 {
        events.len() as f64 / wall_clock_secs
    } else {
        0.0
    };
    // Largest single-daemon high-water mark: the fleet's per-process memory
    // peak, comparable to the in-process runners' whole-process figure.
    metrics.peak_rss_bytes = reports.iter().map(|r| r.peak_rss_bytes).max().unwrap_or(0);
    Ok(metrics)
}

/// Writes one deploy run's artifacts under `$DLRV_ARTIFACT_DIR`: a
/// `telemetry-daemon<i>.jsonl` timeline per daemon plus the interleaved fleet
/// stderr log.  Purely observational — failures are reported, never fatal.
fn write_run_artifacts(
    dir: &Path,
    transport: DeployTransport,
    seed: u64,
    telemetry: &[Vec<DaemonTelemetry>],
    stderr_lines: &[String],
) -> Result<(), String> {
    let run_dir = dir.join(format!("deploy-{}-seed{seed}", transport.name()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    for (i, samples) in telemetry.iter().enumerate() {
        let mut out = String::new();
        for sample in samples {
            out.push_str(&sample.to_json().to_string_compact());
            out.push('\n');
        }
        let path = run_dir.join(format!("telemetry-daemon{i}.jsonl"));
        std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let mut log = stderr_lines.join("\n");
    if !log.is_empty() {
        log.push('\n');
    }
    let path = run_dir.join("daemons.stderr.log");
    std::fs::write(&path, log).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(())
}

/// Polls every daemon's transport counters until the system is quiescent: the
/// send/receive matrix balances, nothing is pending, and two consecutive polls
/// agree (so counters sampled mid-flight cannot terminate the barrier early).
fn barrier(fleet: &mut Fleet) -> Result<(), String> {
    let deadline = Instant::now() + BARRIER_TIMEOUT;
    let mut previous: Option<Vec<DaemonStatus>> = None;
    loop {
        let mut statuses = Vec::with_capacity(fleet.daemons.len());
        for daemon in &mut fleet.daemons {
            statuses.push(daemon.request(&WireMsg::Status, |reply| match reply {
                WireMsg::StatusOk(status) => Ok(status),
                other => Err(other.into()),
            })?);
        }
        let n = statuses.len();
        let balanced = statuses.iter().all(|s| s.pending == 0)
            && (0..n)
                .all(|i| (0..n).all(|j| i == j || statuses[i].sent[j] == statuses[j].received[i]));
        if balanced && previous.as_ref() == Some(&statuses) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "quiescence barrier timed out after {BARRIER_TIMEOUT:?}: {statuses:?}"
            ));
        }
        previous = Some(statuses);
        // Pacing, not waiting: back-to-back rounds are a third faster and cost twice
        // the CPU, taken from the daemons the round is waiting for.
        std::thread::sleep(Duration::from_micros(500));
    }
}
