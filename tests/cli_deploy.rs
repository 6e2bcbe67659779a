//! Lifecycle tests of the `monitord` daemon binary: exit codes, the idle-timeout
//! watchdog, stale-socket recovery and a complete single-daemon control session
//! driven over a real socket.
//!
//! Exit-code contract (also documented in the binary's module header):
//! `0` graceful shutdown, `1` transport/protocol failure, `2` usage error,
//! `3` idle timeout with no orchestrator traffic, `4` endpoint already in use by
//! a live daemon.

use dlrv::dlrv_ltl::Assignment;
use dlrv::dlrv_net::{connect_with_retry, DaemonStatus, Endpoint, FramedConn, WireMsg};
use dlrv::dlrv_vclock::{Event, EventKind, VectorClock};
use dlrv::results::property_to_json;
use dlrv::dlrv_json::Json;
use dlrv::PropertySpec;
use std::io::BufRead as _;
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
/// channel (e.g. a final sample right before `finish_ok`); like the real
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
/// poll, finish, report, shutdown — and exit code 0.
#[test]
fn full_control_session_shuts_down_gracefully_with_exit_0() {
    let mut child = spawn_daemon(&["--listen", "tcp:127.0.0.1:0", "--idle-timeout-secs", "30"]);
    let endpoint = read_listen(&mut child);
    let ep = Endpoint::parse(&endpoint).expect("parse endpoint");
    let sock = connect_with_retry(&ep, Duration::from_secs(5)).expect("connect");
    let mut conn = FramedConn::new(sock);

    // The paper properties need n >= 2; a single-process custom spec keeps this
    // a one-daemon lifecycle test (no peer mesh, so `hello_ok` is immediate).
    let property = PropertySpec::parse("G P0.p").expect("parse property");
    let hello = WireMsg::Hello {
        process: 0,
        n_processes: 1,
        property: property_to_json(&property),
        options: Json::Null,
        initial_state: 0,
        fault: None,
        peers: vec![endpoint.clone()],
        // This session stays on the original all-JSON wire: it pins that a
        // plain-JSON orchestrator still drives a daemon end to end.
        binary_wire: false,
    };
    assert_eq!(rpc(&mut conn, &hello), WireMsg::HelloOk { process: 0 });

    let event = Event {
        process: 0,
        kind: EventKind::Internal,
        sn: 1,
        vc: VectorClock::from_entries(vec![1]),
        state: Assignment(0b1),
        time: 1.0,
    };
    conn.send_msg(&WireMsg::Event { event }).expect("send event");
    while conn.wants_write() {
        conn.flush().expect("flush event");
    }

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
