//! Starting a deploy fleet: every daemon is spawned before any `LISTEN` line is
//! read, and a start-up that fails kills and reaps every daemon already spawned.
//!
//! Its own test binary, because it points `DLRV_MONITORD_BIN` — process-wide — at
//! a stand-in daemon.

use dlrv::dlrv_monitor::MonitorOptions;
use dlrv::{run_deploy, DeployParams, DeployTransport, ExperimentConfig, PaperProperty};
use std::os::unix::fs::PermissionsExt;
use std::path::Path;

/// A stand-in for `monitord`, told apart by the Unix socket path it is asked to
/// listen on (`…-<process>.sock`): daemon 0 exits without a `LISTEN` line once the
/// two others are up (or after two seconds), and the others write their pid into
/// `dir` and sit waiting for a connection that never comes.
fn stand_in_daemon(dir: &Path) -> String {
    format!(
        r#"#!/bin/sh
dir='{}'
case "$2" in
*-0.sock)
    i=0
    while [ "$(ls "$dir" | grep -c '^up-')" -lt 2 ] && [ $i -lt 200 ]; do
        sleep 0.01
        i=$((i + 1))
    done
    exit 0
    ;;
esac
echo $$ > "$dir/up-$$"
exec sleep 30
"#,
        dir.display()
    )
}

#[test]
fn a_daemon_that_exits_without_listen_fails_the_run_and_every_daemon_is_reaped() {
    let dir = std::env::temp_dir().join(format!("dlrv-deploy-spawn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let daemon = dir.join("monitord");
    std::fs::write(&daemon, stand_in_daemon(&dir)).expect("write the stand-in daemon");
    std::fs::set_permissions(&daemon, std::fs::Permissions::from_mode(0o755))
        .expect("make the stand-in daemon executable");
    std::env::set_var("DLRV_MONITORD_BIN", &daemon);

    let config = ExperimentConfig {
        events_per_process: 2,
        seeds: vec![1],
        ..ExperimentConfig::paper_default(PaperProperty::B, 3)
    };
    let params = DeployParams {
        transport: DeployTransport::Unix,
        fault: None,
    };
    let err = run_deploy(&config, MonitorOptions::default(), &params)
        .expect_err("daemon 0 never reports where it listens");
    assert!(err.contains("daemon did not report LISTEN"), "{err}");

    // Daemons 1 and 2 were started before daemon 0's line was read, and the failed
    // start-up killed and reaped both: not even a zombie is left.
    let pids: Vec<String> = std::fs::read_dir(&dir)
        .expect("read the scratch directory")
        .filter_map(|entry| {
            entry
                .ok()?
                .file_name()
                .to_str()?
                .strip_prefix("up-")
                .map(String::from)
        })
        .collect();
    assert_eq!(
        pids.len(),
        2,
        "every daemon is spawned before any LISTEN line is read: {pids:?}"
    );
    for pid in &pids {
        assert!(
            !Path::new("/proc").join(pid).exists(),
            "daemon {pid} was left behind"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
