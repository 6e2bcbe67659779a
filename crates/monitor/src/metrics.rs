//! Per-monitor and aggregated metrics, matching the measurements of Chapter 5.
//!
//! The paper reports four quantities per experiment: total monitoring messages,
//! detection delay (both as queued events and as extra monitoring time per global
//! state), and memory overhead as the total number of global views created.

use dlrv_json::{object, Json, JsonError};
use dlrv_ltl::{Verdict, Verdicts};

/// A verdict set as a JSON array of [`Verdict::name`]s, in [`Verdict`]'s order.
pub fn verdicts_to_json(set: Verdicts) -> Json {
    Json::Array(set.iter().map(|v| Json::from(v.name())).collect())
}

/// Parses a verdict from its [`Verdict::name`].
fn verdict_from_json(v: &Json) -> Result<Verdict, JsonError> {
    let name = v.as_str()?;
    Verdict::from_name(name).ok_or_else(|| JsonError::msg(format!("unknown verdict `{name}`")))
}

/// Parses a verdict set from its [`verdicts_to_json`] form.
pub fn verdicts_from_json(v: &Json) -> Result<Verdicts, JsonError> {
    v.as_array()?.iter().map(verdict_from_json).collect()
}

/// Metrics collected by a single monitor process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorMetrics {
    /// Number of tokens this monitor sent.  With token aggregation (§4.3.1) several
    /// tokens can share one monitoring *message*, so this counts payloads, not sends.
    pub tokens_sent: usize,
    /// Number of tokens this monitor received (batch members counted individually).
    pub tokens_received: usize,
    /// Total number of global views ever created (including the initial one).
    pub global_views_created: usize,
    /// Largest number of global views alive at the same time (the §4.3 memory peak).
    pub max_live_views: usize,
    /// Number of local program events observed.
    pub events_observed: usize,
    /// Sum of pending-queue lengths sampled at every local event (delay numerator).
    pub queued_events_sum: usize,
    /// Number of samples of the pending queue (delay denominator).
    pub queued_events_samples: usize,
    /// Visits of tokens to the recorded history (one per PROCESSTOKEN call): the
    /// work a token tour does, as opposed to the hops it makes.  A visit serves one
    /// local event and moves the token on to the next event that can change its
    /// outcome, skipping the events of a run that would decide it the same way
    /// (`docs/MONITORING.md`, "Local history and view queues").
    pub history_events_served: usize,
    /// Local events those visits covered: each visit's own event and the events
    /// it skipped — what `history_events_served` counted while a token was
    /// served one event per visit.
    pub history_events_covered: usize,
    /// Tokens parked here to wait for a local event that had not happened yet.
    pub tokens_parked: usize,
    /// Tokens whose targets here were failed because this process had terminated:
    /// on arrival, or while parked when the termination came.
    pub tokens_failed_at_termination: usize,
    /// Buffered events a view worked through after its token returned.
    pub backlog_events_drained: usize,
    /// The part of `tokens_sent` sent after this process terminated.
    pub tokens_sent_after_termination: usize,
    /// Simulated time of the last local program event.
    pub last_event_time: f64,
    /// Simulated time of the last monitoring activity (event or token processing).
    pub last_activity_time: f64,
    /// Verdicts of final (⊤/⊥) automaton states this monitor detected.
    pub detected_final_verdicts: Verdicts,
    /// All verdicts over this monitor's global views at the end of monitoring.
    pub possible_verdicts: Verdicts,
}

impl MonitorMetrics {
    /// Average number of events queued behind a waiting global view.
    pub fn avg_queued_events(&self) -> f64 {
        if self.queued_events_samples == 0 {
            0.0
        } else {
            self.queued_events_sum as f64 / self.queued_events_samples as f64
        }
    }

    /// Serializes the per-monitor metrics (the `monitord` daemon reports them over
    /// its control connection); field names are part of the deploy protocol.
    pub fn to_json(&self) -> Json {
        object([
            ("tokens_sent", Json::from(self.tokens_sent)),
            ("tokens_received", Json::from(self.tokens_received)),
            (
                "global_views_created",
                Json::from(self.global_views_created),
            ),
            ("max_live_views", Json::from(self.max_live_views)),
            ("events_observed", Json::from(self.events_observed)),
            ("queued_events_sum", Json::from(self.queued_events_sum)),
            (
                "queued_events_samples",
                Json::from(self.queued_events_samples),
            ),
            (
                "history_events_served",
                Json::from(self.history_events_served),
            ),
            (
                "history_events_covered",
                Json::from(self.history_events_covered),
            ),
            ("tokens_parked", Json::from(self.tokens_parked)),
            (
                "tokens_failed_at_termination",
                Json::from(self.tokens_failed_at_termination),
            ),
            (
                "backlog_events_drained",
                Json::from(self.backlog_events_drained),
            ),
            (
                "tokens_sent_after_termination",
                Json::from(self.tokens_sent_after_termination),
            ),
            ("last_event_time", Json::from(self.last_event_time)),
            ("last_activity_time", Json::from(self.last_activity_time)),
            (
                "detected_final_verdicts",
                verdicts_to_json(self.detected_final_verdicts),
            ),
            (
                "possible_verdicts",
                verdicts_to_json(self.possible_verdicts),
            ),
        ])
    }

    /// Parses the metrics back from their [`MonitorMetrics::to_json`] form.
    pub fn from_json(v: &Json) -> Result<MonitorMetrics, JsonError> {
        Ok(MonitorMetrics {
            tokens_sent: v.get("tokens_sent")?.as_usize()?,
            tokens_received: v.get("tokens_received")?.as_usize()?,
            global_views_created: v.get("global_views_created")?.as_usize()?,
            max_live_views: v.get("max_live_views")?.as_usize()?,
            events_observed: v.get("events_observed")?.as_usize()?,
            queued_events_sum: v.get("queued_events_sum")?.as_usize()?,
            queued_events_samples: v.get("queued_events_samples")?.as_usize()?,
            history_events_served: v.get("history_events_served")?.as_usize()?,
            history_events_covered: v.get("history_events_covered")?.as_usize()?,
            tokens_parked: v.get("tokens_parked")?.as_usize()?,
            tokens_failed_at_termination: v.get("tokens_failed_at_termination")?.as_usize()?,
            backlog_events_drained: v.get("backlog_events_drained")?.as_usize()?,
            tokens_sent_after_termination: v.get("tokens_sent_after_termination")?.as_usize()?,
            last_event_time: v.get("last_event_time")?.as_f64()?,
            last_activity_time: v.get("last_activity_time")?.as_f64()?,
            detected_final_verdicts: verdicts_from_json(v.get("detected_final_verdicts")?)?,
            possible_verdicts: verdicts_from_json(v.get("possible_verdicts")?)?,
        })
    }
}

/// Metrics of one worker shard of the streaming runtime (`dlrv-stream`).
///
/// Plain data so `RunMetrics` can embed per-shard measurements without this crate
/// depending on the runtime; the streaming runtime fills it in at shutdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Sessions opened on this shard.
    pub sessions_opened: usize,
    /// Sessions closed (finished) on this shard.
    pub sessions_closed: usize,
    /// Program events applied by this shard.
    pub events_processed: usize,
    /// Mailbox batches processed.
    pub batches: usize,
    /// Largest batch drained in one go.
    pub max_batch_len: usize,
    /// Wall-clock seconds this shard spent applying batches (its busy time).
    pub busy_secs: f64,
    /// Mean wall-clock latency between a record's enqueue and its application.
    pub avg_queue_latency_secs: f64,
    /// Largest such latency.
    pub max_queue_latency_secs: f64,
    /// Times a producer found this shard's mailbox full and had to block.
    pub backpressure_stalls: usize,
    /// Records addressed to an unknown or already-closed session.
    pub routing_errors: usize,
}

impl ShardMetrics {
    /// Serializes what the seed determines of a shard's work — session routing,
    /// event and error counts.  How the mailbox happened to batch and how long
    /// records waited (`batches` … `backpressure_stalls`) measure the host and stay
    /// in memory only; field names are part of the results schema.
    pub fn to_json(&self) -> Json {
        object([
            ("shard", Json::from(self.shard)),
            ("sessions_opened", Json::from(self.sessions_opened)),
            ("sessions_closed", Json::from(self.sessions_closed)),
            ("events_processed", Json::from(self.events_processed)),
            ("routing_errors", Json::from(self.routing_errors)),
        ])
    }

    /// Parses shard metrics back from their [`ShardMetrics::to_json`] form.  The
    /// host-measured fields are read when an older document carries them.
    pub fn from_json(v: &Json) -> Result<ShardMetrics, JsonError> {
        let count = |key| v.get_opt(key)?.map_or(Ok(0), Json::as_usize);
        let secs = |key| v.get_opt(key)?.map_or(Ok(0.0), Json::as_f64);
        Ok(ShardMetrics {
            shard: v.get("shard")?.as_usize()?,
            sessions_opened: v.get("sessions_opened")?.as_usize()?,
            sessions_closed: v.get("sessions_closed")?.as_usize()?,
            events_processed: v.get("events_processed")?.as_usize()?,
            batches: count("batches")?,
            max_batch_len: count("max_batch_len")?,
            busy_secs: secs("busy_secs")?,
            avg_queue_latency_secs: secs("avg_queue_latency_secs")?,
            max_queue_latency_secs: secs("max_queue_latency_secs")?,
            backpressure_stalls: count("backpressure_stalls")?,
            routing_errors: v.get("routing_errors")?.as_usize()?,
        })
    }
}

/// The outcome of one property of a fleet: of one session (a stream session's
/// per-member slice) or summed over a run's sessions (a fleet record's
/// `fleet_per_property` slice).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropertyOutcome {
    /// The property's name within the fleet (`"A"`, `"reqack"`, …).
    pub property: String,
    /// The property's combined final verdict.
    pub verdict: Verdict,
    /// ⊤/⊥ verdicts the property's monitors detected.
    pub detected_verdicts: Verdicts,
    /// Verdicts the property's monitors still considered possible at close.
    pub possible_verdicts: Verdicts,
    /// Tokens the property's monitors sent (fleet transport shares the
    /// *messages*; token payloads stay attributable per property, and equal a solo
    /// run's — pinned by `tests/fleet_equivalence.rs`).
    pub monitor_tokens: usize,
    /// Global views the property's monitors created.
    pub global_views: usize,
    /// Sum of the property's monitors' peak concurrently-live view counts.
    pub peak_global_views: usize,
}

impl PropertyOutcome {
    /// Serializes the per-property slice; field names are part of the results
    /// schema (the detected set is written as `detected_final_verdicts`).
    pub fn to_json(&self) -> Json {
        object([
            ("property", Json::from(self.property.as_str())),
            ("verdict", Json::from(self.verdict.name())),
            (
                "detected_final_verdicts",
                verdicts_to_json(self.detected_verdicts),
            ),
            (
                "possible_verdicts",
                verdicts_to_json(self.possible_verdicts),
            ),
            ("monitor_tokens", Json::from(self.monitor_tokens)),
            ("global_views", Json::from(self.global_views)),
            ("peak_global_views", Json::from(self.peak_global_views)),
        ])
    }

    /// Parses the slice back from its [`PropertyOutcome::to_json`] form.
    pub fn from_json(v: &Json) -> Result<PropertyOutcome, JsonError> {
        Ok(PropertyOutcome {
            property: v.get("property")?.as_str()?.to_string(),
            verdict: verdict_from_json(v.get("verdict")?)?,
            detected_verdicts: verdicts_from_json(v.get("detected_final_verdicts")?)?,
            possible_verdicts: verdicts_from_json(v.get("possible_verdicts")?)?,
            monitor_tokens: v.get("monitor_tokens")?.as_usize()?,
            global_views: v.get("global_views")?.as_usize()?,
            peak_global_views: v.get("peak_global_views")?.as_usize()?,
        })
    }
}

/// Metrics aggregated over all monitors of one run (one row of a paper figure).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Number of processes.
    pub n_processes: usize,
    /// Total program events across all processes.
    pub total_events: usize,
    /// Total monitoring messages across all monitors (Fig. 5.4 / 5.5 / 5.9a).
    pub monitor_messages: usize,
    /// Total program messages.
    pub program_messages: usize,
    /// Total global views created across all monitors (Fig. 5.8 / 5.9c).
    pub total_global_views: usize,
    /// Average queued (delayed) events across monitors (Fig. 5.7 / 5.9b).
    pub avg_delayed_events: f64,
    /// Delay-time percentage per global state (Fig. 5.6 / 5.9b):
    /// `((monitor_extra_time / program_time) · 100) / total_global_views`.
    pub delay_time_pct_per_gv: f64,
    /// Program duration (simulated seconds).
    pub program_time: f64,
    /// Extra monitoring time after program termination (simulated seconds).
    pub monitor_extra_time: f64,
    /// Union of final verdicts detected by any monitor.
    pub detected_final_verdicts: Verdicts,
    /// Union of possible verdicts over all monitors' global views.
    pub possible_verdicts: Verdicts,
    /// Wall-clock duration of the run/scenario that produced these metrics (seconds;
    /// `0.0` when not measured).  Unlike every field above this is real elapsed time,
    /// not simulated time, so it varies run to run — like every host-measured field
    /// it is never written by [`RunMetrics::to_json`].
    pub wall_clock_secs: f64,
    /// Aggregate ingestion throughput of the run (events per wall-clock second;
    /// `0.0` when not measured).  Host-measured, never serialized.
    pub events_per_sec: f64,
    /// Per-shard measurements of a streaming run (empty for offline runs).
    pub per_shard: Vec<ShardMetrics>,
    /// Total tokens carried by monitoring messages (§4.3 overhead accounting).  With
    /// token aggregation on, `monitor_messages < monitor_tokens`; with it off the two
    /// coincide for token traffic.  `0` for runs that predate the field.
    pub monitor_tokens: usize,
    /// Sum over monitors of the largest number of global views each held alive at
    /// once — the run's peak lattice-exploration memory (§4.3 overhead accounting).
    /// `0` for runs that predate the field.
    pub peak_global_views: usize,
    /// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`) of the
    /// largest single process involved in the run — the bounded-memory observable
    /// soak assertions watch.  Like `wall_clock_secs` this is a real machine
    /// measurement, not simulated, so it varies run to run and is never serialized.
    /// `0` when not measured (non-Linux; every substrate but the deploy fleet).
    pub peak_rss_bytes: u64,
    /// Number of properties monitored as one fleet over a shared event stream.
    /// `0` for single-property runs and records that predate fleet monitoring.
    pub fleet_size: usize,
    /// Per-property slice of a fleet run (empty outside the fleet family).
    pub fleet_per_property: Vec<PropertyOutcome>,
}

impl RunMetrics {
    /// Serializes the metrics as a JSON object; the field names below are the stable
    /// schema of `BENCH_results.json` records.
    ///
    /// Only what the seed determines is written, so two runs of one scenario
    /// serialize to the same bytes: the host-measured fields (`wall_clock_secs`,
    /// `events_per_sec`, `peak_rss_bytes`) stay in memory for the terminal tables
    /// and the benchmark harness.  Floats are printed with Rust's shortest round-trip
    /// formatting (see [`dlrv_json`]), so [`RunMetrics::from_json`] restores every
    /// written field exactly.
    pub fn to_json(&self) -> Json {
        object([
            ("n_processes", Json::from(self.n_processes)),
            ("total_events", Json::from(self.total_events)),
            ("monitor_messages", Json::from(self.monitor_messages)),
            ("program_messages", Json::from(self.program_messages)),
            ("total_global_views", Json::from(self.total_global_views)),
            ("avg_delayed_events", Json::from(self.avg_delayed_events)),
            (
                "delay_time_pct_per_gv",
                Json::from(self.delay_time_pct_per_gv),
            ),
            ("program_time", Json::from(self.program_time)),
            ("monitor_extra_time", Json::from(self.monitor_extra_time)),
            (
                "detected_final_verdicts",
                verdicts_to_json(self.detected_final_verdicts),
            ),
            (
                "possible_verdicts",
                verdicts_to_json(self.possible_verdicts),
            ),
            (
                "per_shard",
                Json::Array(self.per_shard.iter().map(ShardMetrics::to_json).collect()),
            ),
            ("monitor_tokens", Json::from(self.monitor_tokens)),
            ("peak_global_views", Json::from(self.peak_global_views)),
            ("fleet_size", Json::from(self.fleet_size)),
            (
                "fleet_per_property",
                Json::Array(
                    self.fleet_per_property
                        .iter()
                        .map(PropertyOutcome::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses metrics back from their [`RunMetrics::to_json`] form, field-for-field.
    ///
    /// Fields added within schema v1 — the per-shard rows, the §4.3 overhead
    /// counters, the fleet fields — default to zero/empty ("not measured") in
    /// documents that predate them.  The host-measured fields are no longer
    /// written; documents committed while they were still carry them, and the
    /// report's trend history reads those documents.
    pub fn from_json(v: &Json) -> Result<RunMetrics, JsonError> {
        let count = |key| v.get_opt(key)?.map_or(Ok(0), Json::as_usize);
        let secs = |key| v.get_opt(key)?.map_or(Ok(0.0), Json::as_f64);
        fn rows<T>(
            rows: Option<&Json>,
            row: fn(&Json) -> Result<T, JsonError>,
        ) -> Result<Vec<T>, JsonError> {
            rows.map_or(Ok(Vec::new()), |rows| {
                rows.as_array()?.iter().map(row).collect()
            })
        }
        Ok(RunMetrics {
            n_processes: v.get("n_processes")?.as_usize()?,
            total_events: v.get("total_events")?.as_usize()?,
            monitor_messages: v.get("monitor_messages")?.as_usize()?,
            program_messages: v.get("program_messages")?.as_usize()?,
            total_global_views: v.get("total_global_views")?.as_usize()?,
            avg_delayed_events: v.get("avg_delayed_events")?.as_f64()?,
            delay_time_pct_per_gv: v.get("delay_time_pct_per_gv")?.as_f64()?,
            program_time: v.get("program_time")?.as_f64()?,
            monitor_extra_time: v.get("monitor_extra_time")?.as_f64()?,
            detected_final_verdicts: verdicts_from_json(v.get("detected_final_verdicts")?)?,
            possible_verdicts: verdicts_from_json(v.get("possible_verdicts")?)?,
            wall_clock_secs: secs("wall_clock_secs")?,
            events_per_sec: secs("events_per_sec")?,
            per_shard: rows(v.get_opt("per_shard")?, ShardMetrics::from_json)?,
            monitor_tokens: count("monitor_tokens")?,
            peak_global_views: count("peak_global_views")?,
            peak_rss_bytes: v.get_opt("peak_rss_bytes")?.map_or(Ok(0), Json::as_u64)?,
            fleet_size: count("fleet_size")?,
            fleet_per_property: rows(v.get_opt("fleet_per_property")?, PropertyOutcome::from_json)?,
        })
    }

    /// Aggregates per-monitor metrics plus run-level timing/counting information.
    pub fn aggregate(
        per_monitor: &[MonitorMetrics],
        total_events: usize,
        program_messages: usize,
        monitor_messages: usize,
        program_time: f64,
        monitoring_end_time: f64,
    ) -> RunMetrics {
        let total_global_views: usize = per_monitor.iter().map(|m| m.global_views_created).sum();
        let avg_delayed_events = if per_monitor.is_empty() {
            0.0
        } else {
            per_monitor
                .iter()
                .map(MonitorMetrics::avg_queued_events)
                .sum::<f64>()
                / per_monitor.len() as f64
        };
        let monitor_extra_time = (monitoring_end_time - program_time).max(0.0);
        let delay_time_pct_per_gv = if program_time > 0.0 && total_global_views > 0 {
            (monitor_extra_time / program_time * 100.0) / total_global_views as f64
        } else {
            0.0
        };
        let mut detected = Verdicts::EMPTY;
        let mut possible = Verdicts::EMPTY;
        for m in per_monitor {
            detected |= m.detected_final_verdicts;
            possible |= m.possible_verdicts;
        }
        RunMetrics {
            n_processes: per_monitor.len(),
            total_events,
            monitor_messages,
            program_messages,
            total_global_views,
            avg_delayed_events,
            delay_time_pct_per_gv,
            program_time,
            monitor_extra_time,
            detected_final_verdicts: detected,
            possible_verdicts: possible,
            monitor_tokens: per_monitor.iter().map(|m| m.tokens_sent).sum(),
            peak_global_views: per_monitor.iter().map(|m| m.max_live_views).sum(),
            ..RunMetrics::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_queued_events_handles_zero_samples() {
        let m = MonitorMetrics::default();
        assert_eq!(m.avg_queued_events(), 0.0);
        let m2 = MonitorMetrics {
            queued_events_sum: 10,
            queued_events_samples: 4,
            ..Default::default()
        };
        assert_eq!(m2.avg_queued_events(), 2.5);
    }

    #[test]
    fn tour_work_counters_round_trip() {
        let m = MonitorMetrics {
            tokens_sent: 9,
            history_events_served: 40,
            history_events_covered: 52,
            tokens_parked: 3,
            tokens_failed_at_termination: 2,
            backlog_events_drained: 5,
            tokens_sent_after_termination: 4,
            ..Default::default()
        };
        assert_eq!(MonitorMetrics::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn aggregation_computes_paper_metrics() {
        let per = vec![
            MonitorMetrics {
                global_views_created: 3,
                queued_events_sum: 4,
                queued_events_samples: 2,
                tokens_sent: 7,
                max_live_views: 3,
                detected_final_verdicts: Verdicts::from([Verdict::False]),
                ..Default::default()
            },
            MonitorMetrics {
                global_views_created: 2,
                queued_events_sum: 0,
                queued_events_samples: 2,
                tokens_sent: 5,
                max_live_views: 2,
                possible_verdicts: Verdicts::from([Verdict::Unknown]),
                ..Default::default()
            },
        ];
        let run = RunMetrics::aggregate(&per, 40, 10, 25, 60.0, 66.0);
        assert_eq!(run.total_global_views, 5);
        assert_eq!(run.monitor_messages, 25);
        assert_eq!(run.monitor_tokens, 12);
        assert_eq!(run.peak_global_views, 5);
        assert_eq!(run.avg_delayed_events, 1.0);
        // extra = 6s over 60s = 10%, divided by 5 global views = 2.0
        assert!((run.delay_time_pct_per_gv - 2.0).abs() < 1e-9);
        assert!(run.detected_final_verdicts.contains(&Verdict::False));
        assert!(run.possible_verdicts.contains(&Verdict::Unknown));
    }

    #[test]
    fn run_metrics_json_round_trips_field_for_field() {
        let m = RunMetrics {
            n_processes: 4,
            total_events: 123,
            monitor_messages: 456,
            program_messages: 78,
            total_global_views: 90,
            avg_delayed_events: 1.0 / 3.0,
            delay_time_pct_per_gv: 0.123456789,
            program_time: 59.87,
            monitor_extra_time: 2.5e-3,
            detected_final_verdicts: Verdicts::from([Verdict::True]),
            possible_verdicts: Verdicts::from([Verdict::True, Verdict::Unknown]),
            monitor_tokens: 512,
            peak_global_views: 33,
            ..RunMetrics::default()
        };
        let text = m.to_json().to_string_pretty();
        let back = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
        // And the default all-zero metrics too.
        let zero = RunMetrics::default();
        let back = RunMetrics::from_json(&Json::parse(&zero.to_json().to_string_pretty()).unwrap());
        assert_eq!(zero, back.unwrap());
    }

    /// A streamed record in the shape documents had while the eleven host-measured
    /// fields (five of the run, six per shard) were still written.  The two fleet
    /// wall clocks no longer exist in memory either, so they are ignored like any
    /// unknown key.
    const OLDER_STREAMED_RECORD: &str = r#"{
        "n_processes": 2, "total_events": 400, "monitor_messages": 9, "program_messages": 0,
        "total_global_views": 0, "avg_delayed_events": 0, "delay_time_pct_per_gv": 0,
        "program_time": 0, "monitor_extra_time": 0,
        "detected_final_verdicts": [], "possible_verdicts": [],
        "wall_clock_secs": 1.25, "events_per_sec": 320, "peak_rss_bytes": 1048576,
        "fleet_solo_wall_clock_secs": 3.75, "fleet_marginal_cost_secs": 0.0625,
        "per_shard": [{
            "shard": 0, "sessions_opened": 10, "sessions_closed": 10, "events_processed": 400,
            "batches": 17, "max_batch_len": 32, "busy_secs": 0.5,
            "avg_queue_latency_secs": 0.00015, "max_queue_latency_secs": 0.003,
            "backpressure_stalls": 2, "routing_errors": 1
        }]
    }"#;

    #[test]
    fn host_measured_fields_are_read_from_older_documents_and_never_written() {
        let old = RunMetrics::from_json(&Json::parse(OLDER_STREAMED_RECORD).unwrap()).unwrap();
        let seed_exact = RunMetrics {
            n_processes: 2,
            total_events: 400,
            monitor_messages: 9,
            per_shard: vec![ShardMetrics {
                sessions_opened: 10,
                sessions_closed: 10,
                events_processed: 400,
                routing_errors: 1,
                ..ShardMetrics::default()
            }],
            ..RunMetrics::default()
        };
        let expected = RunMetrics {
            wall_clock_secs: 1.25,
            events_per_sec: 320.0,
            peak_rss_bytes: 1 << 20,
            per_shard: vec![ShardMetrics {
                batches: 17,
                max_batch_len: 32,
                busy_secs: 0.5,
                avg_queue_latency_secs: 1.5e-4,
                max_queue_latency_secs: 3.0e-3,
                backpressure_stalls: 2,
                ..seed_exact.per_shard[0].clone()
            }],
            ..seed_exact.clone()
        };
        assert_eq!(old, expected);

        // Written back, only what the seed determines remains, and that round-trips.
        let text = old.to_json().to_string_pretty();
        assert_eq!(
            RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap(),
            seed_exact
        );
        assert_eq!(seed_exact.to_json().to_string_pretty(), text);
    }

    #[test]
    fn pre_streaming_records_still_parse() {
        // A record written before the additive fields existed must load with them
        // zeroed ("not measured").  This pins the schema's backward compatibility.
        let m = RunMetrics {
            n_processes: 3,
            total_events: 12,
            monitor_tokens: 44,
            peak_global_views: 9,
            fleet_size: 3,
            fleet_per_property: vec![PropertyOutcome::default()],
            ..RunMetrics::default()
        };
        let Json::Object(mut fields) = m.to_json() else {
            panic!("metrics must serialize to an object")
        };
        fields.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                "per_shard"
                    | "monitor_tokens"
                    | "peak_global_views"
                    | "fleet_size"
                    | "fleet_per_property"
            )
        });
        let back = RunMetrics::from_json(&Json::Object(fields)).unwrap();
        let core = RunMetrics {
            n_processes: 3,
            total_events: 12,
            ..RunMetrics::default()
        };
        assert_eq!(
            back, core,
            "additive fields default to unmeasured / no fleet"
        );
    }

    #[test]
    fn fleet_fields_round_trip() {
        let m = RunMetrics {
            fleet_size: 2,
            fleet_per_property: vec![
                PropertyOutcome {
                    property: "A".to_string(),
                    verdict: Verdict::True,
                    detected_verdicts: Verdicts::from([Verdict::True]),
                    possible_verdicts: Verdicts::from([Verdict::True, Verdict::Unknown]),
                    monitor_tokens: 17,
                    global_views: 42,
                    peak_global_views: 8,
                },
                PropertyOutcome {
                    property: "B".to_string(),
                    ..PropertyOutcome::default()
                },
            ],
            ..RunMetrics::default()
        };
        let text = m.to_json().to_string_pretty();
        let back = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn aggregation_with_zero_program_time() {
        let run = RunMetrics::aggregate(&[], 0, 0, 0, 0.0, 0.0);
        assert_eq!(run.delay_time_pct_per_gv, 0.0);
        assert_eq!(run.avg_delayed_events, 0.0);
    }
}
