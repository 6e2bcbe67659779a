//! Lifecycle tests of the `monitord` daemon binary: exit codes, the idle-timeout
//! watchdog, stale-socket recovery, a complete single-daemon control session
//! driven over a real socket, and the `malformed_*` cases — decodable frames that
//! do not fit the run, each of which must end in the documented protocol failure
//! (an `error` frame and exit 1), never in a panic.
//!
//! Exit-code contract (also documented in the binary's module header):
//! `0` graceful shutdown, `1` transport/protocol failure, `2` usage error,
//! `3` idle timeout with no orchestrator traffic, `4` endpoint already in use by
//! a live daemon.

use dlrv::dlrv_ltl::Assignment;
use dlrv::dlrv_monitor::{ConjunctEval, EvalState, MonitorMsg, Token, TokenTransition};
use dlrv::dlrv_net::{connect_with_retry, DaemonStatus, Endpoint, FramedConn, WireMsg};
use dlrv::dlrv_vclock::{Event, EventKind, VectorClock};
use dlrv::results::property_to_json;
use dlrv::dlrv_json::Json;
use dlrv::PropertySpec;
use std::io::{BufRead as _, Read as _};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_monitord");

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique Unix socket path for one test daemon.
fn unix_socket_path() -> String {
    let id = SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("dlrv-cli-{}-{id}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn spawn_daemon(args: &[&str]) -> Child {
    Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn monitord")
}

/// Reads the daemon's `LISTEN <endpoint>` banner (consumes its stdout).
fn read_listen(child: &mut Child) -> String {
    let stdout = child.stdout.take().expect("stdout captured");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTEN line");
    line.strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("expected LISTEN banner, got `{}`", line.trim()))
        .trim()
        .to_string()
}

/// Waits for the child to exit, killing it if `deadline` passes first.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> ExitStatus {
    let end = Instant::now() + deadline;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= end {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon did not exit within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sends one control frame and blocks for the single reply it provokes.
///
/// The daemon also pushes unsolicited `telemetry` frames up the control
/// channel (e.g. a final sample right before `release_ok`); like the real
/// orchestrator, the helper collects those without treating them as replies.
fn rpc(conn: &mut FramedConn, msg: &WireMsg) -> WireMsg {
    conn.send_msg(msg).expect("send");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "reply timed out for {msg:?}");
        while conn.wants_write() {
            conn.flush().expect("flush");
        }
        let mut reply = None;
        for decoded in conn.on_readable_msgs().expect("read") {
            if matches!(decoded, WireMsg::Telemetry(_)) {
                continue;
            }
            assert!(reply.is_none(), "expected exactly one reply frame");
            reply = Some(decoded);
        }
        if let Some(reply) = reply {
            return reply;
        }
        assert!(!conn.is_eof(), "daemon closed the connection mid-request");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],                                          // --listen is required
        &["--listen"][..],                                // flag without a value
        &["--listen", "tcp:127.0.0.1:0", "--bogus"][..],  // unknown flag
        &["--listen", "ftp:example.com:21"][..],          // unsupported scheme
        &["--listen", "tcp:127.0.0.1:0", "--idle-timeout-secs", "nope"][..],
        &["--listen", "tcp:127.0.0.1:0", "--idle-timeout-secs", "0"][..],
        &["--listen", "tcp:127.0.0.1:0", "--log-level", "loud"][..],
        &["--listen", "tcp:127.0.0.1:0", "--log-level"][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("run monitord");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: expected usage error, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "args {args:?}: usage string missing from stderr"
        );
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = Command::new(BIN).arg("--help").output().expect("run monitord");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn idle_timeout_kills_an_abandoned_daemon() {
    let mut child = spawn_daemon(&["--listen", "tcp:127.0.0.1:0", "--idle-timeout-secs", "0.3"]);
    let endpoint = read_listen(&mut child);
    assert!(endpoint.starts_with("tcp:"), "resolved endpoint: {endpoint}");
    // Never connect: the watchdog must fire on its own.
    let status = wait_with_deadline(&mut child, Duration::from_secs(10));
    assert_eq!(status.code(), Some(3), "idle timeout exits 3");
}

#[test]
fn log_level_flag_wins_over_dlrv_log() {
    let mut child = Command::new(BIN)
        .args(["--listen", "tcp:127.0.0.1:0", "--log-level", "info", "--idle-timeout-secs", "0.3"])
        .env("DLRV_LOG", "error")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn monitord");
    let _ = read_listen(&mut child);
    let status = wait_with_deadline(&mut child, Duration::from_secs(10));
    assert_eq!(status.code(), Some(3), "idle timeout exits 3");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr captured")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(
        stderr
            .lines()
            .any(|l| l.contains("[monitord] INFO") && l.contains("listening on tcp:")),
        "expected an INFO line despite DLRV_LOG=error, stderr: {stderr}"
    );
}

#[test]
fn live_endpoint_is_refused_with_exit_4() {
    let path = unix_socket_path();
    let listen = format!("unix:{path}");
    let mut first = spawn_daemon(&["--listen", &listen, "--idle-timeout-secs", "30"]);
    let _ = read_listen(&mut first);
    // A second daemon on the same live socket must refuse, not steal it.
    let out = Command::new(BIN)
        .args(["--listen", &listen])
        .output()
        .expect("run second monitord");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("in use"));
    let _ = first.kill();
    let _ = first.wait();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_socket_is_cleaned_up_on_restart() {
    let path = unix_socket_path();
    let listen = format!("unix:{path}");
    // SIGKILL the first daemon so its Drop never runs and the socket file stays.
    let mut first = spawn_daemon(&["--listen", &listen, "--idle-timeout-secs", "30"]);
    let _ = read_listen(&mut first);
    first.kill().expect("kill first daemon");
    let _ = first.wait();
    assert!(
        std::path::Path::new(&path).exists(),
        "killed daemon must leave a stale socket file behind"
    );
    // The restart must detect the dead socket, remove it and bind successfully.
    let mut second = spawn_daemon(&["--listen", &listen, "--idle-timeout-secs", "0.3"]);
    let endpoint = read_listen(&mut second);
    assert_eq!(endpoint, listen, "restart binds the same path");
    let status = wait_with_deadline(&mut second, Duration::from_secs(10));
    assert_eq!(status.code(), Some(3), "abandoned restart idles out");
    assert!(
        !std::path::Path::new(&path).exists(),
        "graceful exit removes the socket file"
    );
}

/// A complete orchestrator session against a single daemon (a 1-process fleet:
/// no peer mesh, so `hello_ok` is immediate): handshake, one event, a quiescence
/// poll, finish, release, report, shutdown — and exit code 0.
#[test]
fn full_control_session_shuts_down_gracefully_with_exit_0() {
    let mut child = spawn_daemon(&["--listen", "tcp:127.0.0.1:0", "--idle-timeout-secs", "30"]);
    let endpoint = read_listen(&mut child);
    let mut conn = connect(&endpoint);

    // The paper properties need n >= 2; a single-process custom spec keeps this
    // a one-daemon lifecycle test (no peer mesh, so `hello_ok` is immediate).
    let hello = hello(&endpoint, "G P0.p", 1, 0);
    assert_eq!(rpc(&mut conn, &hello), WireMsg::HelloOk { process: 0 });

    let event = Event {
        process: 0,
        kind: EventKind::Internal,
        sn: 1,
        vc: VectorClock::from_entries(vec![1]),
        state: Assignment(0b1),
        time: 1.0,
    };
    send(&mut conn, &WireMsg::Event { event });

    match rpc(&mut conn, &WireMsg::Status) {
        WireMsg::StatusOk(DaemonStatus {
            process,
            events_seen,
            sent,
            received,
            pending,
            dropped,
        }) => {
            assert_eq!(process, 0);
            assert_eq!(events_seen, 1, "the event frame was processed");
            assert_eq!((sent, received), (vec![0], vec![0]), "no peers at n=1");
            assert_eq!((pending, dropped), (0, 0));
        }
        other => panic!("expected status_ok, got {other:?}"),
    }

    assert_eq!(rpc(&mut conn, &WireMsg::Finish { time: 1.0 }), WireMsg::FinishOk);
    assert_eq!(rpc(&mut conn, &WireMsg::Release), WireMsg::ReleaseOk);
    match rpc(&mut conn, &WireMsg::Report) {
        WireMsg::ReportOk(report) => {
            assert_eq!(report.process, 0);
            assert_eq!(report.fault_stats.passed, 0, "no channels, no shim traffic");
        }
        other => panic!("expected report_ok, got {other:?}"),
    }
    assert_eq!(rpc(&mut conn, &WireMsg::Shutdown), WireMsg::ShutdownOk);

    let status = wait_with_deadline(&mut child, Duration::from_secs(10));
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");
}

/// A daemon started as process 0 of an `n`-process run of `F (P0.p && P1.p)`, with
/// the test playing the orchestrator (`control`) and, at `n == 2`, peer 1 (`peer`).
struct Session {
    child: Child,
    endpoint: String,
    control: FramedConn,
    peer: Option<FramedConn>,
}

fn connect(endpoint: &str) -> FramedConn {
    let ep = Endpoint::parse(endpoint).expect("parse endpoint");
    FramedConn::new(connect_with_retry(&ep, Duration::from_secs(5)).expect("connect"))
}

fn send(conn: &mut FramedConn, msg: &WireMsg) {
    conn.send_msg(msg).expect("send");
    while conn.wants_write() {
        conn.flush().expect("flush");
    }
}

/// The `hello` of process 0 of `n`, every peer at `endpoint`.
fn hello(endpoint: &str, property: &str, n: usize, initial_state: u64) -> WireMsg {
    WireMsg::Hello {
        process: 0,
        n_processes: n,
        property: property_to_json(&PropertySpec::parse(property).expect("parse property")),
        options: Json::Null,
        initial_state,
        fault: None,
        peers: vec![endpoint.to_string(); n],
        // These sessions stay on the original all-JSON wire: they pin that a
        // plain-JSON orchestrator still drives a daemon end to end.
        binary_wire: false,
    }
}

impl Session {
    /// Spawns the daemon and connects the control channel, nothing sent yet.
    fn spawn() -> Session {
        let mut child = spawn_daemon(&["--listen", "tcp:127.0.0.1:0", "--idle-timeout-secs", "30"]);
        let endpoint = read_listen(&mut child);
        let control = connect(&endpoint);
        Session {
            child,
            endpoint,
            control,
            peer: None,
        }
    }

    /// A session past its handshake: `hello_ok` received, peer mesh complete.
    fn established(n: usize) -> Session {
        let mut session = Session::spawn();
        if n == 2 {
            let mut peer = connect(&session.endpoint);
            send(&mut peer, &WireMsg::PeerHello { from: 1 });
            session.peer = Some(peer);
        }
        let property = if n == 1 { "G P0.p" } else { "F (P0.p && P1.p)" };
        let hello = hello(&session.endpoint, property, n, 0);
        assert_eq!(rpc(&mut session.control, &hello), WireMsg::HelloOk { process: 0 });
        session
    }

    /// The daemon must answer what it was just sent with the documented protocol
    /// failure: an `error` frame naming `reason` on the control connection, exit
    /// code 1, and no Rust panic on stderr.
    fn assert_protocol_failure(mut self, reason: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let message = loop {
            assert!(Instant::now() < deadline, "no error frame within 10 s");
            // A read error here is the daemon closing after its last frame.
            let frames = self.control.on_readable_msgs().unwrap_or_default();
            if let Some(WireMsg::Error { message }) =
                frames.into_iter().find(|f| matches!(f, WireMsg::Error { .. }))
            {
                break message;
            }
            assert!(!self.control.is_eof(), "daemon closed without an error frame");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(message.contains(reason), "error frame `{message}` lacks `{reason}`");
        let status = wait_with_deadline(&mut self.child, Duration::from_secs(10));
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .expect("stderr captured")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert!(!stderr.contains("panicked"), "daemon panicked: {stderr}");
        assert_eq!(status.code(), Some(1), "protocol failure exits 1, stderr: {stderr}");
    }
}

/// A well-formed token of a 2-process run, from peer 1 to process 0.
fn sound_token() -> Token {
    Token {
        property: 0,
        parent: 1,
        origin_state: 0,
        parent_gv: 0,
        transitions: vec![TokenTransition {
            transition_id: 0,
            gcut: VectorClock::from_entries(vec![0, 1]),
            depend: VectorClock::from_entries(vec![0, 1]),
            gstate: Assignment(0),
            conjuncts: vec![ConjunctEval::Unset, ConjunctEval::True],
            next_target_process: 0,
            next_target_event: 1,
            eval: EvalState::Unset,
        }],
        next_target_process: 0,
        next_target_event: 1,
    }
}

fn monitor_frame(from: usize, token: Token) -> WireMsg {
    WireMsg::Monitor {
        from,
        seq: 0,
        time: 1.0,
        msg: MonitorMsg::Token(token),
    }
}

#[test]
fn malformed_monitor_from_out_of_range_is_a_protocol_failure() {
    // The parent daemon indexed its per-peer counters with this `from`: exit 101.
    let mut session = Session::established(1);
    send(&mut session.control, &monitor_frame(5, sound_token()));
    session.assert_protocol_failure("process 5");
}

#[test]
fn malformed_monitor_from_the_daemon_itself_is_a_protocol_failure() {
    let mut session = Session::established(2);
    send(session.peer.as_mut().expect("peer"), &monitor_frame(0, sound_token()));
    session.assert_protocol_failure("process 0");
}

#[test]
fn malformed_peer_hello_before_hello_is_a_protocol_failure_at_adoption() {
    let mut session = Session::spawn();
    let mut early = connect(&session.endpoint);
    send(&mut early, &WireMsg::PeerHello { from: 7 });
    // The daemon learns the process count only now, and must check the early peer.
    let hello = hello(&session.endpoint, "F (P0.p && P1.p)", 2, 0);
    send(&mut session.control, &hello);
    session.assert_protocol_failure("process 7");
}

#[test]
fn malformed_frames_before_hello_are_protocol_failures() {
    // Before a run exists only `hello` and `peer_hello` are legal.  The parent daemon
    // exited 1 on the first five of these without telling anybody, and answered the
    // `shutdown` with `shutdown_ok` and exit 0.
    let event = Event {
        process: 0,
        kind: EventKind::Internal,
        sn: 1,
        vc: VectorClock::from_entries(vec![1, 0]),
        state: Assignment(0b1),
        time: 1.0,
    };
    for (early, name) in [
        (WireMsg::Event { event }, "Event"),
        (monitor_frame(1, sound_token()), "Monitor"),
        (WireMsg::Status, "Status"),
        (WireMsg::Finish { time: 1.0 }, "Finish"),
        (WireMsg::Release, "Release"),
        (WireMsg::Report, "Report"),
        (WireMsg::Shutdown, "Shutdown"),
    ] {
        let mut session = Session::spawn();
        send(&mut session.control, &early);
        // No `hello` yet, so the connection that sent the frame is the one told.
        session.assert_protocol_failure(&format!("before hello: {name}"));
    }
}

#[test]
fn malformed_finish_and_release_orders_are_protocol_failures() {
    // `release` sends what `finish` held.  With nothing finished there is nothing
    // to send, and a second `finish` would replace messages still held: either
    // way the orchestrator has lost track of the run.
    let finish = WireMsg::Finish { time: 1.0 };
    for (frames, reason) in [
        (vec![WireMsg::Release], "release before finish"),
        (vec![finish.clone(), finish], "second finish before release"),
    ] {
        let mut session = Session::established(2);
        for frame in &frames {
            send(&mut session.control, frame);
        }
        session.assert_protocol_failure(reason);
    }
}

#[test]
fn malformed_hellos_are_protocol_failures() {
    // Fewer processes than the property names, then an initial state with a bit
    // no atom of the property owns.
    for (n, initial_state, reason) in [(1, 0, "mismatch"), (2, 0b100, "initial_state")] {
        let mut session = Session::spawn();
        let hello = hello(&session.endpoint, "F (P0.p && P1.p)", n, initial_state);
        send(&mut session.control, &hello);
        session.assert_protocol_failure(reason);
    }
}

#[test]
fn malformed_hello_payloads_are_protocol_failures() {
    // A property no letter names, options without their switches, a peer endpoint of
    // no socket family: the parent daemon exited 1 on each without an `error` frame.
    type Break = fn(&mut Json, &mut Json, &mut Vec<String>);
    let cases: [(Break, &str); 3] = [
        (|property, _, _| *property = Json::from("Z"), "hello property"),
        (|_, options, _| *options = Json::from(true), "hello options"),
        (|_, _, peers| peers[0] = "ftp:example.com:21".to_string(), "hello peer endpoint"),
    ];
    for (break_it, reason) in cases {
        let mut session = Session::spawn();
        // Process 1 of 2, so that the daemon has a peer endpoint to dial.
        let mut hello = hello(&session.endpoint, "F (P0.p && P1.p)", 2, 0);
        let WireMsg::Hello { process, property, options, peers, .. } = &mut hello else {
            unreachable!("`hello` builds a hello frame")
        };
        *process = 1;
        break_it(property, options, peers);
        send(&mut session.control, &hello);
        session.assert_protocol_failure(reason);
    }
}

#[test]
fn malformed_events_are_protocol_failures() {
    let event = |process, vc: Vec<u64>| WireMsg::Event {
        event: Event {
            process,
            kind: EventKind::Internal,
            sn: 1,
            vc: VectorClock::from_entries(vc),
            state: Assignment(0b1),
            time: 1.0,
        },
    };
    // Another process's event, then a clock of the wrong width (which a release
    // build used to fold into the flat history unaligned).
    for (bad, reason) in [
        (event(1, vec![0, 1]), "event of process 1"),
        (event(0, vec![1]), "1-entry clock"),
        (event(0, vec![1, 0, 0]), "3-entry clock"),
    ] {
        let mut session = Session::established(2);
        send(&mut session.control, &bad);
        session.assert_protocol_failure(reason);
    }
}

#[test]
fn malformed_tokens_are_protocol_failures() {
    type Break = fn(&mut Token);
    let cases: [(Break, &str); 9] = [
        (|t| t.parent = 2, "parent 2"),
        (|t| t.next_target_process = 9, "next_target_process 9"),
        (|t| t.transitions[0].next_target_process = 2, "transition next_target_process 2"),
        (|t| t.transitions[0].transition_id = 1 << 20, "transition_id 1048576"),
        (|t| t.transitions[0].gcut = VectorClock::from_entries(vec![0]), "gcut 1"),
        (|t| t.transitions[0].depend = VectorClock::from_entries(vec![0, 1, 2]), "depend 3"),
        (|t| t.transitions[0].conjuncts.clear(), "conjuncts 0"),
        (|t| t.transitions[0].gstate = Assignment(0b100), "gstate 0x4"),
        // Parked, this one overflowed the daemon's stack when its process terminated.
        (|t| t.transitions[0].next_target_event = 0, "awaits event 0"),
    ];
    for (break_it, reason) in cases {
        let mut session = Session::established(2);
        let mut token = sound_token();
        break_it(&mut token);
        // The second token of a batch is checked like the first.
        let batch = WireMsg::Monitor {
            from: 1,
            seq: 0,
            time: 1.0,
            msg: MonitorMsg::Batch(vec![sound_token(), token]),
        };
        send(session.peer.as_mut().expect("peer"), &batch);
        session.assert_protocol_failure(reason);
    }
}

#[test]
fn malformed_checks_accept_the_well_formed_token() {
    // The control of the cases above: the unbroken token is accepted, and the
    // daemon answers a status poll after it.
    let mut session = Session::established(2);
    send(session.peer.as_mut().expect("peer"), &monitor_frame(1, sound_token()));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "token never counted");
        match rpc(&mut session.control, &WireMsg::Status) {
            WireMsg::StatusOk(status) if status.received == vec![0, 1] => break,
            WireMsg::StatusOk(_) => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("expected status_ok, got {other:?}"),
        }
    }
    assert_eq!(rpc(&mut session.control, &WireMsg::Shutdown), WireMsg::ShutdownOk);
    let status = wait_with_deadline(&mut session.child, Duration::from_secs(10));
    assert_eq!(status.code(), Some(0));
}
