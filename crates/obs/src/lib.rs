//! # dlrv-obs — leveled logging and the process RSS probe
//!
//! The two facilities that have readers, on the standard library alone (the
//! manifest's `dlrv-json` edge is unused):
//!
//! * **Leveled logging** ([`log`]): `DLRV_LOG`-controlled stderr logging with
//!   per-process prefixes and monotonic timestamps, used by `monitord` (and its
//!   `--log-level` flag) and by the deploy orchestrator's artifact warnings.
//! * **Process probe** ([`rss`]): [`peak_rss_bytes`] from `/proc/self/status`,
//!   reported by every `monitord` daemon.
//!
//! The paper's counts (tokens, messages, live views, queueing delay) are not
//! kept here: they live in the structs that the tables, results documents,
//! telemetry frames and benchmark probes read — `MonitorMetrics`,
//! `ShardMetrics` and `FaultStats`.
//!
//! [`set_enabled`] is a no-op kept for callers that still switch the retired
//! metrics registry off.

#![forbid(unsafe_code)]

pub mod log;
pub mod rss;

pub use log::{log_level, set_log_level, set_log_prefix, LogLevel};
pub use rss::{parse_vm_hwm, peak_rss_bytes};

use std::sync::OnceLock;
use std::time::Instant;

/// Does nothing.  The metrics registry and trace ring this switched are gone;
/// the function stays so that callers which still turn them off keep building.
pub fn set_enabled(_on: bool) {}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process: the timestamp
/// of every log line.
pub fn now_nanos() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
