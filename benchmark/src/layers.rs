//! The traced run of one workload: the same inputs as the end-to-end run, with
//! spans recorded around each call into a layer, plus probes that drive single
//! layers alone.  It yields the per-layer table; nothing here is gated.
//!
//! Which end-to-end metric each layer metric is expected to move, on which
//! workload, is written down in `benchmark/README.md`.

use crate::endtoend::RunParams;
use crate::pipeline::{
    deploy_failures, deploy_rep, stream_config, stream_failures, stream_rep, stream_rep_from_bytes,
    DeployRep, StreamRep, TimedSource,
};
use crate::probes;
use crate::reference::{decode_records, replay, replay_hot, session_spec, Members, Reference};
use crate::report::{Measured, RunDoc};
use crate::stats::{median, nanos_since, quantile_nanos};
use crate::trace::Tracer;
use crate::workload::{prepare, Inputs, Substrate, Workload};
use dlrv_ltl::Assignment;
use dlrv_monitor::{MonitorOptions, ShardMetrics};
use dlrv_stream::{
    OpenRequest, ReaderSource, SessionOutcome, SessionStream, ShardedRuntime, StreamConfig,
    StreamRecord, VecSource,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, with its unit, in reporting order.  A layer the
/// workload does not execute (the stream runtime on `deploy-lockstep`, `net`
/// on the stream workloads, the fleet wrapper on solo workloads) reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("events_per_sec", "events/s"),
    ("cpu_us_per_event", "us"),
    ("feed_latency_p50_us", "us"),
    ("bench.traced_events_per_sec", "events/s"),
    ("trace_overhead_share", "ratio"),
    ("obs.enabled_overhead_share", "ratio"),
    ("trace.generate_ns_per_event", "ns"),
    ("distsim.simulate_ns_per_event", "ns"),
    ("automaton.synthesize_ms", "ms"),
    ("automaton.states", "count"),
    ("automaton.transitions", "count"),
    ("vclock.compare_ns", "ns"),
    ("vclock.compare_many_ns_per_clock", "ns"),
    ("vclock.merge_ns", "ns"),
    ("stream.codec.decode_ns_per_event", "ns"),
    ("stream.codec.encode_ns_per_event", "ns"),
    ("stream.codec.bytes_per_event", "bytes"),
    ("stream.codec.json_decode_ns_per_event", "ns"),
    ("stream.codec.json_encode_ns_per_event", "ns"),
    ("stream.runtime.pump_source_ns_per_event", "ns"),
    ("stream.runtime.pump_self_ns_per_event", "ns"),
    ("stream.runtime.pump_decoded_ns_per_event", "ns"),
    ("stream.runtime.shard_busy_ns_per_event", "ns"),
    ("stream.runtime.overhead_ns_per_event", "ns"),
    ("stream.runtime.avg_batch_len", "count"),
    ("stream.runtime.backpressure_stalls_per_kevent", "count"),
    ("stream.runtime.queue_wait_avg_us", "us"),
    ("stream.runtime.session_open_close_ns", "ns"),
    ("stream.runtime.start_ms", "ms"),
    ("stream.runtime.shutdown_ms", "ms"),
    ("stream.runtime.mailbox_ring_ns_per_event", "ns"),
    ("stream.runtime.mailbox_channel_ns_per_event", "ns"),
    ("stream.runtime.paced_rate_events_per_sec", "events/s"),
    ("stream.runtime.paced_queue_wait_avg_us", "us"),
    ("stream.runtime.paced_generator_late_avg_us", "us"),
    ("monitor.session_new_ns", "ns"),
    ("monitor.feed_hot_ns_per_event", "ns"),
    ("monitor.feed_stream_order_ns_per_event", "ns"),
    ("monitor.feed_p99_us", "us"),
    ("monitor.finish_ns_per_session", "ns"),
    ("monitor.total_ns_per_event", "ns"),
    ("monitor.tokens_per_event", "ratio"),
    ("monitor.views_created_per_event", "ratio"),
    ("monitor.arena_off_feed_ns_per_event", "ns"),
    ("monitor.noopt_msgs_per_event", "ratio"),
    ("monitor.fleet.feed_ns_per_event", "ns"),
    ("monitor.fleet.solo_sum_feed_ns_per_event", "ns"),
    ("monitor.fleet.amortization_ratio", "ratio"),
    ("monitor.fleet.total_amortization_ratio", "ratio"),
    ("monitor.fleet.tokens_per_event", "ratio"),
    ("net.wire.encode_ns_per_msg", "ns"),
    ("net.wire.decode_ns_per_msg", "ns"),
    ("net.wire.bytes_per_msg", "bytes"),
    ("net.wire.json_encode_ns_per_msg", "ns"),
    ("net.wire.json_decode_ns_per_msg", "ns"),
    ("net.conn.roundtrip_us", "us"),
    ("core.deploy.us_per_event", "us"),
    ("core.deploy.spawn_handshake_ms", "ms"),
    ("core.deploy.daemon_peak_rss_mb", "MB"),
    ("core.deploy.roundtrips_floor_per_event", "ratio"),
];

/// The state of one traced run: the spans, the per-layer values measured so
/// far (keyed by declared name) and the count of checked outcomes.
struct Run {
    tracer: Tracer,
    values: BTreeMap<&'static str, Measured>,
    attempted: usize,
    failed: usize,
}

impl Run {
    fn put(&mut self, metric: Measured) {
        self.values.insert(metric.name, metric);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"))
            .1;
        self.put(Measured::new(name, unit, value));
    }

    fn set_all(&mut self, values: probes::Values) {
        for (name, value) in values {
            self.set(name, value);
        }
    }

    fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.values.get_mut(name).expect("just set").note = Some(note);
    }

    /// A value reported as the median of per-rep samples.
    fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set(name, median(&samples));
        self.values.get_mut(name).expect("just set").samples = samples;
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |m| m.value)
    }

    fn check_stream(&mut self, rep: &StreamRep, expected: &[SessionOutcome]) {
        self.attempted += expected.len();
        self.failed += stream_failures(&rep.report, expected);
    }

    fn check_deploy(&mut self, rep: &DeployRep, expected: &SessionOutcome) {
        self.attempted += 1;
        self.failed += deploy_failures(&rep.metrics, expected);
    }

    /// Every declared per-layer metric, in declared order; 0 for the layers
    /// this workload did not execute.
    fn into_metrics(mut self) -> Vec<Measured> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                self.values.remove(name).unwrap_or_else(|| {
                    Measured::new(name, unit, 0.0)
                        .note("layer not executed by this workload".to_string())
                })
            })
            .collect()
    }
}

/// Untraced/traced rep pairs never drop below this.
const MIN_PAIRS: usize = 2;

/// The alternating untraced/traced reps get half of `--seconds`; the single
/// probe reps and layer probes that follow take about as long again.
fn pair_params(params: &RunParams) -> RunParams {
    RunParams {
        seconds: params.seconds / 2.0,
        ..*params
    }
}

/// Sessions the single-session monitor probes run over: enough events to time,
/// few enough that the unoptimized (`ALL_OFF`) pass of a heavy property stays
/// under a second.
fn probe_sessions(inputs: &Inputs) -> &[SessionStream] {
    let per_session = (inputs.n_events / inputs.sessions.len()).max(1);
    let count = (60_000 / per_session)
        .clamp(1, 1000)
        .min(inputs.sessions.len());
    &inputs.sessions[..count]
}

/// The stream runtime's layers: alternating untraced/traced reps, then one rep
/// each with observability on, with channel mailboxes, with pre-decoded
/// records, with sessions that only open and close, and the paced probe.
fn stream_layers(
    run: &mut Run,
    inputs: &Inputs,
    records: &[StreamRecord],
    expected: &[SessionOutcome],
    params: &RunParams,
) {
    let pairs = pair_params(params);
    let n_events = inputs.n_events as f64;
    // One rep over the workload's bytes (tracing off) under a span of its own.
    let plain_rep = |run: &mut Run, name: &'static str, config: StreamConfig| {
        run.tracer.next_rep();
        let rep = run
            .tracer
            .within(name, |_| stream_rep_from_bytes(inputs, config));
        run.check_stream(&rep, expected);
        rep
    };
    // One rep over already-decoded records (no codec in the pump).
    let decoded_rep = |run: &mut Run, name: &'static str, records: Vec<StreamRecord>| {
        run.tracer.next_rep();
        let mut source = VecSource::new(records);
        run.tracer.within(name, |_| {
            stream_rep(&inputs.compiled, stream_config(), &mut source, false)
        })
    };

    let warm_up = plain_rep(run, "rep.warm_up", stream_config());
    let mut untraced: Vec<StreamRep> = Vec::new();
    let mut traced_eps = Vec::new();
    let mut starts = vec![warm_up.start_nanos as f64];
    let mut shutdowns = vec![warm_up.shutdown_nanos as f64];
    let started = Instant::now();
    while pairs.more_reps(untraced.len(), MIN_PAIRS, started) {
        let rep = plain_rep(run, "rep.untraced", stream_config());
        starts.push(rep.start_nanos as f64);
        shutdowns.push(rep.shutdown_nanos as f64);
        untraced.push(rep);

        // The traced rep: spans around start, pump (with the codec calls and
        // resolver calls it made as children) and shutdown.
        run.tracer.next_rep();
        let rep = run.tracer.within("rep.traced", |t| {
            let mut source = TimedSource::new(ReaderSource::new(&inputs.bytes[..]));
            let rep = stream_rep(&inputs.compiled, stream_config(), &mut source, true);
            t.child("stream.runtime.start", 1, rep.start_nanos);
            let pump = t.child("stream.runtime.pump", 1, rep.pump_nanos);
            t.nested(
                pump,
                "stream.codec.next_record",
                source.calls,
                source.busy_nanos,
            );
            t.nested(
                pump,
                "bench.resolve_spec",
                expected.len() as u64,
                rep.resolve_nanos,
            );
            t.child("stream.runtime.shutdown", 1, rep.shutdown_nanos);
            rep
        });
        run.check_stream(&rep, expected);
        traced_eps.push(rep.events_per_sec());
    }
    let traced_events = n_events * traced_eps.len() as f64;
    run.set_median(
        "events_per_sec",
        untraced.iter().map(StreamRep::events_per_sec).collect(),
    );
    run.set_median(
        "cpu_us_per_event",
        untraced
            .iter()
            .map(|r| r.cpu_secs * 1e6 / n_events)
            .collect(),
    );
    run.set_median("bench.traced_events_per_sec", traced_eps);
    let untraced_eps = run.get("events_per_sec");
    run.set(
        "trace_overhead_share",
        1.0 - run.get("bench.traced_events_per_sec") / untraced_eps,
    );
    run.set("stream.runtime.start_ms", median(&starts) / 1e6);
    run.set("stream.runtime.shutdown_ms", median(&shutdowns) / 1e6);
    run.set(
        "stream.runtime.pump_source_ns_per_event",
        run.tracer.busy("stream.codec.next_record") as f64 / traced_events,
    );
    run.set(
        "stream.runtime.pump_self_ns_per_event",
        run.tracer.self_nanos("stream.runtime.pump") as f64 / traced_events,
    );

    // The shard's own counters, from the untraced reps.
    let shard = |f: &dyn Fn(&ShardMetrics) -> f64| {
        median(
            &untraced
                .iter()
                .map(|r| f(&r.report.per_shard[0]))
                .collect::<Vec<_>>(),
        )
    };
    let applied = (inputs.n_events + 2 * expected.len()) as f64;
    run.set(
        "stream.runtime.shard_busy_ns_per_event",
        shard(&|m| m.busy_secs * 1e9 / n_events),
    );
    run.set(
        "stream.runtime.avg_batch_len",
        shard(&|m| applied / m.batches.max(1) as f64),
    );
    run.set(
        "stream.runtime.backpressure_stalls_per_kevent",
        shard(&|m| m.backpressure_stalls as f64 * 1e3 / n_events),
    );
    run.set(
        "stream.runtime.queue_wait_avg_us",
        shard(&|m| m.avg_queue_latency_secs * 1e6),
    );
    run.set(
        "stream.runtime.mailbox_ring_ns_per_event",
        1e9 / untraced_eps,
    );
    drop(untraced);

    // One extra rep with dlrv-obs recording on, against the untraced median.
    dlrv_obs::set_enabled(true);
    let rep = plain_rep(run, "rep.obs_enabled", stream_config());
    dlrv_obs::set_enabled(false);
    run.set(
        "obs.enabled_overhead_share",
        1.0 - rep.events_per_sec() / untraced_eps,
    );

    // The same pump over `sync_channel` mailboxes: the fork ROADMAP item 2 collapses.
    let channels = StreamConfig {
        use_rings: false,
        ..stream_config()
    };
    let rep = plain_rep(run, "rep.channel_mailbox", channels);
    run.set(
        "stream.runtime.mailbox_channel_ns_per_event",
        1e9 / rep.events_per_sec(),
    );

    let rep = decoded_rep(run, "rep.pump_decoded", records.to_vec());
    run.check_stream(&rep, expected);
    run.set(
        "stream.runtime.pump_decoded_ns_per_event",
        1e9 / rep.events_per_sec(),
    );

    // Sessions that only open and close: the per-session cost of the runtime.
    let lifecycle = records
        .iter()
        .filter(|r| !matches!(r, StreamRecord::Event { .. }))
        .cloned()
        .collect();
    let rep = decoded_rep(run, "rep.open_close_only", lifecycle);
    run.set(
        "stream.runtime.session_open_close_ns",
        rep.wall_nanos() as f64 / expected.len() as f64,
    );

    run.tracer.next_rep();
    let max_secs = if params.quick { 0.2 } else { 3.0 };
    let paced = run.tracer.within("probe.paced_open_loop", |_| {
        paced_probe(inputs, records, max_secs)
    });
    run.set(
        "stream.runtime.paced_rate_events_per_sec",
        inputs.workload.paced_rate as f64,
    );
    run.set_noted(
        "stream.runtime.paced_queue_wait_avg_us",
        paced.queue_wait_avg_micros,
        format!("{} events sent on schedule", paced.sent),
    );
    run.set(
        "stream.runtime.paced_generator_late_avg_us",
        paced.late_avg_micros,
    );
}

struct Paced {
    sent: u64,
    queue_wait_avg_micros: f64,
    late_avg_micros: f64,
}

/// Open loop: events are sent at the workload's fixed `paced_rate` whatever the
/// runtime does, for at most `max_secs`.  Each event is due at `k / rate`; how
/// late the generator actually sent it is reported next to the runtime's own
/// enqueue → apply wait.
fn paced_probe(inputs: &Inputs, records: &[StreamRecord], max_secs: f64) -> Paced {
    let interval_nanos = 1e9 / inputs.workload.paced_rate as f64;
    let runtime = ShardedRuntime::start(stream_config());
    let started = Instant::now();
    let mut sent = 0u64;
    let mut late_nanos = 0u64;
    for record in records {
        match record {
            StreamRecord::Open {
                session,
                property,
                n_processes,
                initial_state,
            } => {
                let open = OpenRequest {
                    session: *session,
                    property,
                    n_processes: *n_processes,
                    initial_state: Assignment(*initial_state),
                };
                let spec = session_spec(&inputs.compiled, &open);
                runtime.open_session(*session, spec);
            }
            StreamRecord::Event { session, event } => {
                let due = (sent as f64 * interval_nanos) as u64;
                let mut now = nanos_since(started);
                while now < due {
                    std::hint::spin_loop();
                    now = nanos_since(started);
                }
                if now as f64 > max_secs * 1e9 {
                    break;
                }
                late_nanos += now - due;
                runtime.feed_event(*session, event.clone());
                sent += 1;
            }
            StreamRecord::Close { session } => runtime.close_session(*session),
        }
    }
    let report = runtime.shutdown();
    Paced {
        sent,
        queue_wait_avg_micros: report.per_shard[0].avg_queue_latency_secs * 1e6,
        late_avg_micros: late_nanos as f64 / sent.max(1) as f64 / 1e3,
    }
}

/// `core.deploy` and `net`: alternating plain/span-wrapped `run_deploy` calls
/// (nothing inside the call is reachable from outside, so the span is the
/// call), one call with observability on in every daemon, and the wire probes.
fn deploy_layers(
    run: &mut Run,
    inputs: &Inputs,
    expected: &SessionOutcome,
    params: &RunParams,
) -> Result<(), String> {
    let pairs = pair_params(params);
    let spanned_rep = |run: &mut Run, name: &'static str| -> Result<DeployRep, String> {
        run.tracer.next_rep();
        let rep = run.tracer.within(name, |_| deploy_rep(inputs))?;
        run.check_deploy(&rep, expected);
        Ok(rep)
    };
    spanned_rep(run, "rep.warm_up")?;

    let (mut untraced_eps, mut cpu_us, mut traced_eps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut handshakes, mut rss) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while pairs.more_reps(untraced_eps.len(), MIN_PAIRS, started) {
        let rep = deploy_rep(inputs)?;
        run.check_deploy(&rep, expected);
        untraced_eps.push(rep.metrics.events_per_sec);
        cpu_us.push(rep.cpu_secs * 1e6 / inputs.n_events as f64);

        let rep = spanned_rep(run, "core.deploy.run_deploy")?;
        traced_eps.push(rep.metrics.events_per_sec);
        handshakes.push(rep.call_nanos as f64 / 1e6 - rep.metrics.wall_clock_secs * 1e3);
        rss.push(rep.metrics.peak_rss_bytes as f64 / (1024.0 * 1024.0));
    }
    run.set_median("events_per_sec", untraced_eps);
    run.set_median("cpu_us_per_event", cpu_us);
    run.set_median("bench.traced_events_per_sec", traced_eps);
    let eps = run.get("events_per_sec");
    run.set(
        "trace_overhead_share",
        1.0 - run.get("bench.traced_events_per_sec") / eps,
    );
    run.set("core.deploy.us_per_event", 1e6 / eps);
    // As in the end-to-end run: single events are not observable through
    // `run_deploy`, so the lockstep mean stands in for the in-process median.
    run.set_noted(
        "feed_latency_p50_us",
        1e6 / eps,
        "mean per event (1e6 / events_per_sec): lockstep feed + barrier".to_string(),
    );
    run.set("core.deploy.spawn_handshake_ms", median(&handshakes));
    run.set("core.deploy.daemon_peak_rss_mb", median(&rss));

    // Daemons read DLRV_OBS from the environment they inherit.
    std::env::set_var("DLRV_OBS", "1");
    dlrv_obs::set_enabled(true);
    let rep = spanned_rep(run, "rep.obs_enabled");
    dlrv_obs::set_enabled(false);
    std::env::remove_var("DLRV_OBS");
    run.set(
        "obs.enabled_overhead_share",
        1.0 - rep?.metrics.events_per_sec / eps,
    );

    let net = run.tracer.within("probe.net", |_| probes::net(inputs))?;
    run.set_all(net);
    let (per_event, roundtrip) = (
        run.get("core.deploy.us_per_event"),
        run.get("net.conn.roundtrip_us"),
    );
    run.set_noted(
        "core.deploy.roundtrips_floor_per_event",
        per_event / roundtrip,
        format!("{per_event:.1} us per event / {roundtrip:.2} us per round trip"),
    );
    Ok(())
}

/// The `monitor` layer alone: the stream-order replay (also the reference every
/// rep is checked against), then single-session passes with default options,
/// with arena recycling off, and with every §4.3 switch off.
fn monitor_layers(run: &mut Run, inputs: &Inputs, records: &[StreamRecord]) -> Reference {
    let n_events = inputs.n_events as f64;
    let options = MonitorOptions::default();
    let mut pass = run.tracer.within("monitor.replay_stream_order", |t| {
        let pass = replay(
            &inputs.compiled,
            records.to_vec(),
            Members::Workload,
            options,
        );
        let sessions = pass.outcomes.len() as u64;
        t.child("monitor.session_new", sessions, pass.open_nanos);
        t.child(
            "monitor.feed_event",
            pass.feed_nanos.len() as u64,
            pass.feed_total_nanos(),
        );
        t.child("monitor.finish", sessions, pass.finish_nanos);
        pass
    });
    let sessions = pass.outcomes.len() as f64;
    let [open, feed, finish] = [
        "monitor.session_new",
        "monitor.feed_event",
        "monitor.finish",
    ]
    .map(|name| run.tracer.last_busy(name) as f64);
    let stream_order = feed / n_events;
    run.set("monitor.session_new_ns", open / sessions);
    run.set("monitor.finish_ns_per_session", finish / sessions);
    run.set("monitor.feed_stream_order_ns_per_event", stream_order);
    // Everything a shard spends inside the monitor layer for this stream.
    run.set(
        "monitor.total_ns_per_event",
        (open + feed + finish) / n_events,
    );
    let calls = pass.feed_nanos.len();
    run.set_noted(
        "feed_latency_p50_us",
        quantile_nanos(&mut pass.feed_nanos, 0.5) / 1e3,
        format!("median of {calls} feed_event calls in stream order"),
    );
    run.set_noted(
        "monitor.feed_p99_us",
        quantile_nanos(&mut pass.feed_nanos, 0.99) / 1e3,
        format!("of {calls} feed_event calls in stream order"),
    );
    let tokens: usize = pass.outcomes.iter().map(|o| o.monitor_tokens).sum();
    let views: usize = pass.outcomes.iter().map(|o| o.global_views).sum();
    run.set("monitor.tokens_per_event", tokens as f64 / n_events);
    run.set("monitor.views_created_per_event", views as f64 / n_events);

    let subset = probe_sessions(inputs);
    let subset_events = subset.iter().map(|s| s.events.len()).sum::<usize>() as f64;
    let hot = |run: &mut Run, name: &'static str, options: MonitorOptions| {
        run.tracer.within(name, |_| {
            replay_hot(&inputs.compiled, subset, Members::Workload, options)
        })
    };
    let (nanos, _) = hot(run, "monitor.replay_hot", options);
    run.set_noted(
        "monitor.feed_hot_ns_per_event",
        nanos as f64 / subset_events,
        format!("{} sessions one at a time", subset.len()),
    );
    let arena_off = MonitorOptions {
        arena_recycling: false,
        ..options
    };
    let (nanos, _) = hot(run, "monitor.replay_hot_arena_off", arena_off);
    run.set(
        "monitor.arena_off_feed_ns_per_event",
        nanos as f64 / subset_events,
    );
    let (_, outcomes) = hot(run, "monitor.replay_hot_noopt", MonitorOptions::ALL_OFF);
    let messages: usize = outcomes.iter().map(|o| o.monitor_messages).sum();
    run.set_noted(
        "monitor.noopt_msgs_per_event",
        messages as f64 / subset_events,
        format!("{} sessions, every section-4.3 switch off", subset.len()),
    );

    if inputs.workload.is_fleet() {
        // One solo pass per property over the same records against the one fleet pass.
        let (mut solo_feed, mut solo_total) = (0u64, 0u64);
        for k in 0..inputs.compiled.members.len() {
            let solo = run.tracer.within("monitor.fleet.solo_pass", |_| {
                replay(
                    &inputs.compiled,
                    records.to_vec(),
                    Members::Solo(k),
                    options,
                )
            });
            solo_feed += solo.feed_total_nanos();
            solo_total += solo.open_nanos + solo.feed_total_nanos() + solo.finish_nanos;
        }
        let solo_feed = solo_feed as f64 / n_events;
        let solo_total = solo_total as f64 / n_events;
        let fleet_total = run.get("monitor.total_ns_per_event");
        run.set("monitor.fleet.feed_ns_per_event", stream_order);
        run.set("monitor.fleet.solo_sum_feed_ns_per_event", solo_feed);
        run.set_noted(
            "monitor.fleet.amortization_ratio",
            stream_order / solo_feed,
            format!("{stream_order:.0} ns fleet / {solo_feed:.0} ns solo sum per event"),
        );
        run.set_noted(
            "monitor.fleet.total_amortization_ratio",
            fleet_total / solo_total,
            format!("open + feed + finish: {fleet_total:.0} ns fleet / {solo_total:.0} ns solo sum per event"),
        );
        run.set("monitor.fleet.tokens_per_event", tokens as f64 / n_events);
    }
    pass
}

/// Runs the traced run of `workload`, writes its spans to `trace_path` and
/// returns the per-layer document.
pub fn run(workload: Workload, params: RunParams, trace_path: &Path) -> Result<RunDoc, String> {
    let workload = if params.quick {
        workload.quick()
    } else {
        workload
    };
    let mut run = Run {
        tracer: Tracer::new(workload.name),
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let started = Instant::now();

    let inputs = run.tracer.within("setup", |t| {
        let (inputs, nanos) = prepare(workload, params.seed);
        let sessions = inputs.sessions.len() as u64;
        t.child(
            "automaton.synthesize",
            inputs.compiled.members.len() as u64,
            nanos.synthesize,
        );
        t.child("trace.generate", sessions, nanos.generate);
        t.child("distsim.simulate", sessions, nanos.simulate);
        t.child("stream.codec.interleave_encode", sessions, nanos.encode);
        inputs
    });
    let n_events = inputs.n_events as f64;
    let busy = |run: &Run, name: &str| run.tracer.busy(name) as f64;
    run.set(
        "trace.generate_ns_per_event",
        busy(&run, "trace.generate") / n_events,
    );
    run.set(
        "distsim.simulate_ns_per_event",
        busy(&run, "distsim.simulate") / n_events,
    );
    run.set(
        "automaton.synthesize_ms",
        busy(&run, "automaton.synthesize") / 1e6,
    );
    let automata = || inputs.compiled.members.iter().map(|m| &m.automaton);
    run.set(
        "automaton.states",
        automata().map(|a| a.n_states()).sum::<usize>() as f64,
    );
    run.set(
        "automaton.transitions",
        automata().map(|a| a.transitions.len()).sum::<usize>() as f64,
    );

    let records = decode_records(&inputs.bytes);
    let reference = monitor_layers(&mut run, &inputs, &records);
    let clocks = run
        .tracer
        .within("probe.vclock", |_| probes::vclock(&inputs.sessions));
    run.set_all(clocks);

    match workload.substrate {
        Substrate::Stream => {
            let codec = run.tracer.within("probe.stream_codec", |_| {
                probes::codec(&inputs.bytes, &records, inputs.n_events)
            });
            run.set_all(codec);
            stream_layers(&mut run, &inputs, &records, &reference.outcomes, &params);
            // What the shard adds on top of the monitor layer.  (Taken against
            // open + feed + finish: on until-properties `finish` is the larger
            // part of the monitor's time, so feed alone would misattribute it.)
            run.set(
                "stream.runtime.overhead_ns_per_event",
                run.get("stream.runtime.shard_busy_ns_per_event")
                    - run.get("monitor.total_ns_per_event"),
            );
        }
        Substrate::Deploy => deploy_layers(&mut run, &inputs, &reference.outcomes[0], &params)?,
    }

    run.tracer.write_jsonl(trace_path)?;
    Ok(RunDoc {
        workload: workload.name,
        seed: params.seed,
        seconds: params.seconds,
        traced: true,
        quick: params.quick,
        events: inputs.n_events,
        sessions: reference.outcomes.len(),
        stream_bytes: inputs.bytes.len(),
        reps: run
            .values
            .get("events_per_sec")
            .map_or(0, |m| m.samples.len()),
        timed_secs: started.elapsed().as_secs_f64(),
        attempted: run.attempted,
        failed: run.failed,
        metrics: run.into_metrics(),
    })
}
