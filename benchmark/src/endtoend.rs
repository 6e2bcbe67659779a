//! The end-to-end run of one workload (tracing off): untimed set-up → one warm-up
//! rep → timed reps for `--seconds` → one single-threaded latency pass that is
//! also the reference every rep is checked against.

use crate::pipeline::{
    deploy_failures, deploy_rep, stream_config, stream_failures, stream_rep_from_bytes,
};
use crate::reference::{decode_records, replay, Members, Reference};
use crate::report::{Measured, RunDoc};
use crate::stats::{median, peak_rss_mb, quantile_nanos, reset_peak_rss, rss_mb};
use crate::workload::{prepare, Inputs, Substrate, Workload};
use dlrv_ltl::Verdict;
use dlrv_monitor::MonitorOptions;
use std::time::Instant;

/// Timed reps never drop below this, however short `--seconds` is.
const MIN_REPS: usize = 5;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// The run seed.
    pub seed: u64,
    /// Seconds of timed reps.
    pub seconds: f64,
    /// Shrunk workload, two reps: for the determinism tests only.
    pub quick: bool,
}

impl RunParams {
    /// True while the timed reps should go on: the floor is not reached, or
    /// `--seconds` have not passed.
    pub fn more_reps(&self, done: usize, min_reps: usize, started: Instant) -> bool {
        if self.quick {
            done < 2
        } else {
            done < min_reps || started.elapsed().as_secs_f64() < self.seconds
        }
    }
}

/// Sets the workload up repeatedly (at least seven times and one second, so
/// millisecond set-ups are not one noisy sample) and keeps the last inputs.
/// `setup_s` is the median.
fn measured_setup(workload: Workload, params: &RunParams) -> (Inputs, Vec<f64>) {
    let (min_runs, min_secs) = if params.quick { (2, 0.0) } else { (7, 1.0) };
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let (inputs, nanos) = prepare(workload, params.seed);
        samples.push(nanos.total_secs());
        let enough = samples.len() >= min_runs && started.elapsed().as_secs_f64() >= min_secs;
        if enough || samples.len() >= 200 {
            return (inputs, samples);
        }
    }
}

/// The in-process reference of the workload's stream, replayed in stream order.
fn reference_pass(inputs: &Inputs, members: Members) -> Reference {
    replay(
        &inputs.compiled,
        decode_records(&inputs.bytes),
        members,
        MonitorOptions::default(),
    )
}

/// Sessions of a fleet reference with a per-property slice that differs from
/// the solo pass of that property over the same records.
fn fleet_slice_failures(inputs: &Inputs, fleet: &Reference) -> usize {
    let mut bad = vec![false; fleet.outcomes.len()];
    for k in 0..inputs.compiled.members.len() {
        let solo = reference_pass(inputs, Members::Solo(k));
        for (id, (fleet, solo)) in fleet.outcomes.iter().zip(&solo.outcomes).enumerate() {
            let slice = &fleet.per_property[k];
            let same = slice.verdict == solo.verdict
                && slice.detected_verdicts == solo.detected_verdicts
                && slice.possible_verdicts == solo.possible_verdicts
                && slice.monitor_tokens == solo.monitor_tokens
                && slice.global_views == solo.global_views
                && slice.peak_global_views == solo.peak_global_views;
            bad[id] |= !same;
        }
    }
    bad.into_iter().filter(|&b| b).count()
}

/// Test hook: breaks the first session's reference verdict, so the check of
/// every rep must fail.
fn corrupt(reference: &mut Reference) {
    let first = &mut reference.outcomes[0];
    let wrong = if first.verdict == Verdict::False {
        Verdict::True
    } else {
        Verdict::False
    };
    first.verdict = wrong;
    first.detected_verdicts = [wrong].into();
}

/// What the timed part of a run measured, before it is shaped into metrics.
struct Timed {
    /// `events_per_sec` of every timed rep.
    eps: Vec<f64>,
    /// CPU seconds of every timed rep.
    cpu_secs: Vec<f64>,
    /// `run_rss_growth_mb`.
    rss_growth_mb: f64,
    /// `feed_latency_p50_us`.
    latency: Measured,
    /// The in-process reference.
    reference: Reference,
    /// Outcomes checked, and how many failed.
    attempted: usize,
    failed: usize,
    /// Seconds the timed reps took.
    timed_secs: f64,
    /// Set-up the substrate does inside its own call, per rep (deploy: spawning
    /// the daemons and the handshake, which `run_deploy` keeps out of its wall
    /// clock).  Its median is part of `setup_s`.
    substrate_setup_secs: Vec<f64>,
}

fn run_stream(inputs: &Inputs, params: &RunParams, corrupt_reference: bool) -> Timed {
    // Fresh process, inputs resident: how far the warm-up rep pushes RSS up.
    let rss_before = rss_mb();
    let reset = reset_peak_rss();
    let warm_up = stream_rep_from_bytes(inputs, stream_config());
    let rss_growth_mb = peak_rss_mb() - if reset { rss_before } else { 0.0 };

    let mut reports = vec![warm_up.report];
    let (mut eps, mut cpu_secs) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while params.more_reps(eps.len(), MIN_REPS, started) {
        let rep = stream_rep_from_bytes(inputs, stream_config());
        eps.push(rep.events_per_sec());
        cpu_secs.push(rep.cpu_secs);
        reports.push(rep.report);
    }
    let timed_secs = started.elapsed().as_secs_f64();

    let mut reference = reference_pass(inputs, Members::Workload);
    let mut failed = 0;
    if inputs.workload.is_fleet() {
        failed += fleet_slice_failures(inputs, &reference);
    }
    if corrupt_reference {
        corrupt(&mut reference);
    }
    for report in &reports {
        failed += stream_failures(report, &reference.outcomes);
    }
    let calls = reference.feed_nanos.len();
    let latency = Measured::new(
        "feed_latency_p50_us",
        "us",
        quantile_nanos(&mut reference.feed_nanos, 0.5) / 1e3,
    )
    .note(format!(
        "median of {calls} feed_event calls in stream order"
    ));
    Timed {
        eps,
        cpu_secs,
        rss_growth_mb,
        latency,
        attempted: reports.len() * reference.outcomes.len(),
        failed,
        reference,
        timed_secs,
        substrate_setup_secs: Vec::new(),
    }
}

fn run_deploy(
    inputs: &Inputs,
    params: &RunParams,
    corrupt_reference: bool,
) -> Result<Timed, String> {
    let mut runs = vec![deploy_rep(inputs)?.metrics];
    let (mut eps, mut cpu_secs, mut rss, mut spawn) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while params.more_reps(eps.len(), MIN_REPS, started) {
        let rep = deploy_rep(inputs)?;
        spawn.push(rep.call_nanos as f64 / 1e9 - rep.metrics.wall_clock_secs);
        eps.push(rep.metrics.events_per_sec);
        cpu_secs.push(rep.cpu_secs);
        rss.push(rep.metrics.peak_rss_bytes as f64 / (1024.0 * 1024.0));
        runs.push(rep.metrics);
    }
    let timed_secs = started.elapsed().as_secs_f64();

    let mut reference = reference_pass(inputs, Members::Workload);
    if corrupt_reference {
        corrupt(&mut reference);
    }
    let failed = runs
        .iter()
        .map(|m| deploy_failures(m, &reference.outcomes[0]))
        .sum();
    // Individual events are not observable from outside `run_deploy`; lockstep
    // makes every event pay one feed plus one barrier, so the mean stands in.
    let latency = Measured::new("feed_latency_p50_us", "us", 1e6 / median(&eps))
        .note("mean per event (1e6 / events_per_sec): lockstep feed + barrier".to_string());
    Ok(Timed {
        eps,
        cpu_secs,
        // The largest daemon's high-water mark, as `run_deploy` reports it.
        rss_growth_mb: median(&rss),
        latency,
        attempted: runs.len(),
        failed,
        reference,
        timed_secs,
        substrate_setup_secs: spawn,
    })
}

/// Runs `workload` end to end and returns its result document.
/// `corrupt_reference` deliberately breaks the reference (tests only).
pub fn run(
    workload: Workload,
    params: RunParams,
    corrupt_reference: bool,
) -> Result<RunDoc, String> {
    let workload = if params.quick {
        workload.quick()
    } else {
        workload
    };
    let (mut inputs, setup_samples) = measured_setup(workload, &params);
    // Intermediates go: from here on only the wire bytes and the compiled
    // properties are resident, as in a monitor that receives a stream.
    inputs.sessions = Vec::new();

    let timed = match workload.substrate {
        Substrate::Stream => run_stream(&inputs, &params, corrupt_reference),
        Substrate::Deploy => run_deploy(&inputs, &params, corrupt_reference)?,
    };
    let n_events = inputs.n_events as f64;
    let outcomes = &timed.reference.outcomes;
    let messages: usize = outcomes.iter().map(|o| o.monitor_messages).sum();
    let peak_views: usize = outcomes.iter().map(|o| o.peak_global_views).sum();
    let reps = timed.eps.len();
    // CPU over all timed reps ÷ events: /proc reports 10 ms ticks, too coarse
    // for a per-rep median on the short deploy reps; the samples stay for spread.
    let cpu_us = |secs: f64| secs * 1e6 / n_events;
    let cpu = Measured {
        value: cpu_us(timed.cpu_secs.iter().sum::<f64>()) / reps as f64,
        ..Measured::from_samples(
            "cpu_us_per_event",
            "us",
            timed.cpu_secs.iter().map(|&s| cpu_us(s)).collect(),
        )
    };

    // Set-up is what happens before the first event is monitored: the
    // benchmark's own preparation plus what the substrate does before it starts
    // its clock, so that work moved into either shows.
    let setup = if timed.substrate_setup_secs.is_empty() {
        Measured::from_samples("setup_s", "s", setup_samples)
    } else {
        let own = median(&setup_samples);
        let samples = timed.substrate_setup_secs.iter().map(|s| s + own).collect();
        Measured::from_samples("setup_s", "s", samples)
            .note("prepare + run_deploy's spawn and handshake".to_string())
    };

    let metrics = vec![
        Measured::from_samples("events_per_sec", "events/s", timed.eps),
        cpu,
        timed.latency,
        Measured::new(
            "monitor_msgs_per_event",
            "ratio",
            messages as f64 / n_events,
        ),
        Measured::new(
            "peak_views_per_session",
            "count",
            peak_views as f64 / outcomes.len() as f64,
        ),
        Measured::new("run_rss_growth_mb", "MB", timed.rss_growth_mb),
        setup,
    ];
    Ok(RunDoc {
        workload: workload.name,
        seed: params.seed,
        seconds: params.seconds,
        traced: false,
        quick: params.quick,
        events: inputs.n_events,
        sessions: outcomes.len(),
        stream_bytes: inputs.bytes.len(),
        reps,
        timed_secs: timed.timed_secs,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
    })
}
