//! One repetition of a workload through the substrate under test, driven from
//! outside through its public functions, and the check of what came out.

use crate::reference::session_spec;
use crate::stats::{cpu_seconds, nanos_since};
use crate::workload::{Compiled, Inputs};
use dlrv_core::{run_deploy, DeployParams, DeployTransport};
use dlrv_monitor::{MonitorOptions, RunMetrics};
use dlrv_stream::{
    EventSource, ReaderSource, SessionOutcome, ShardedRuntime, StreamConfig, StreamError,
    StreamRecord, StreamReport,
};
use std::time::Instant;

/// The runtime shape of every stream workload: one shard worker next to the one
/// producer thread (the reference box has two cores; shard scaling is left out
/// while workers would share them), default mailbox and batch size, rings on.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        n_shards: 1,
        ..StreamConfig::default()
    }
}

/// An [`EventSource`] that times every `next_record` call of the source it
/// wraps — the traced run's span around the pump's calls into the codec.
pub struct TimedSource<S> {
    inner: S,
    /// Calls made.
    pub calls: u64,
    /// Total time inside the wrapped source.
    pub busy_nanos: u64,
}

impl<S: EventSource> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            calls: 0,
            busy_nanos: 0,
        }
    }
}

impl<S: EventSource> EventSource for TimedSource<S> {
    fn next_record(&mut self) -> Result<Option<StreamRecord>, StreamError> {
        let t = Instant::now();
        let record = self.inner.next_record();
        self.busy_nanos += nanos_since(t);
        self.calls += 1;
        record
    }
}

/// What one stream repetition measured.
pub struct StreamRep {
    /// `ShardedRuntime::start` (outside the timed region).
    pub start_nanos: u64,
    /// `pump`: first byte in → last record enqueued.
    pub pump_nanos: u64,
    /// `shutdown`: the drain — verdicts exist only after it.
    pub shutdown_nanos: u64,
    /// Time the pump spent in the spec-resolver callback.
    pub resolve_nanos: u64,
    /// Process CPU seconds over `pump` + `shutdown`.
    pub cpu_secs: f64,
    /// The runtime's report.
    pub report: StreamReport,
}

impl StreamRep {
    /// The timed region: `pump` + `shutdown`.
    pub fn wall_nanos(&self) -> u64 {
        self.pump_nanos + self.shutdown_nanos
    }

    /// Program events applied per second of the timed region.
    pub fn events_per_sec(&self) -> f64 {
        self.report.total_events as f64 * 1e9 / self.wall_nanos() as f64
    }
}

/// Pumps `source` through a fresh runtime and shuts it down.  With `timed`, the
/// resolver callback is timed too (tracing on).
pub fn stream_rep(
    compiled: &Compiled,
    config: StreamConfig,
    source: &mut dyn EventSource,
    timed: bool,
) -> StreamRep {
    let t = Instant::now();
    let runtime = ShardedRuntime::start(config);
    let start_nanos = nanos_since(t);

    let mut resolve_nanos = 0u64;
    let cpu_before = cpu_seconds(false);
    let t = Instant::now();
    runtime
        .pump(source, &mut |open| {
            if timed {
                let t = Instant::now();
                let spec = session_spec(compiled, open);
                resolve_nanos += nanos_since(t);
                Ok(spec)
            } else {
                Ok(session_spec(compiled, open))
            }
        })
        .expect("a freshly encoded stream decodes");
    let pump_nanos = nanos_since(t);
    let t = Instant::now();
    let report = runtime.shutdown();
    let shutdown_nanos = nanos_since(t);
    let cpu_secs = cpu_seconds(false) - cpu_before;

    StreamRep {
        start_nanos,
        pump_nanos,
        shutdown_nanos,
        resolve_nanos,
        cpu_secs,
        report,
    }
}

/// The end-to-end repetition of a stream workload: its bytes through a
/// `ReaderSource`.
pub fn stream_rep_from_bytes(inputs: &Inputs, config: StreamConfig) -> StreamRep {
    let mut source = ReaderSource::new(&inputs.bytes[..]);
    stream_rep(&inputs.compiled, config, &mut source, false)
}

/// Sessions of `report` that are missing, drained, or differ from `expected` in
/// any field (verdict, detected/possible sets, messages, tokens, views,
/// per-property slices), plus records the shards could not route.
pub fn stream_failures(report: &StreamReport, expected: &[SessionOutcome]) -> usize {
    let wrong = expected
        .iter()
        .enumerate()
        .filter(|(id, want)| report.sessions.get(&(*id as u64)) != Some(want))
        .count();
    let unexpected = report.sessions.len().saturating_sub(expected.len());
    let misrouted: usize = report.per_shard.iter().map(|m| m.routing_errors).sum();
    (wrong + unexpected + misrouted).min(expected.len().max(1))
}

/// What one deploy repetition measured.
pub struct DeployRep {
    /// The whole `run_deploy` call, spawn and handshake included.
    pub call_nanos: u64,
    /// Process CPU seconds over the call, daemons included.
    pub cpu_secs: f64,
    /// The run's metrics (`events_per_sec` excludes spawn + handshake).
    pub metrics: RunMetrics,
}

/// Runs the deploy workload's one trace as a fault-free `monitord` fleet over
/// Unix sockets with the binary wire.
pub fn deploy_rep(inputs: &Inputs) -> Result<DeployRep, String> {
    let config = inputs.workload.session_config(inputs.seed, 0);
    let cpu_before = cpu_seconds(true);
    let t = Instant::now();
    let outcome = run_deploy(
        &config,
        MonitorOptions::default(),
        &DeployParams::clean(DeployTransport::Unix),
    )?;
    let call_nanos = nanos_since(t);
    let cpu_secs = cpu_seconds(true) - cpu_before;
    let metrics = outcome
        .result
        .per_seed
        .into_iter()
        .next()
        .ok_or("run_deploy returned no run")?;
    Ok(DeployRep {
        call_nanos,
        cpu_secs,
        metrics,
    })
}

/// 1 when the deploy run's verdict sets, message, token and view counts differ
/// from the in-process run of the same trace, else 0.
pub fn deploy_failures(metrics: &RunMetrics, expected: &SessionOutcome) -> usize {
    let same = metrics.detected_final_verdicts == expected.detected_verdicts
        && metrics.possible_verdicts == expected.possible_verdicts
        && metrics.monitor_messages == expected.monitor_messages
        && metrics.monitor_tokens == expected.monitor_tokens
        && metrics.total_events == expected.events
        && metrics.peak_global_views == expected.peak_global_views;
    usize::from(!same)
}
