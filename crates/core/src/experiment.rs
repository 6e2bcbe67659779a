//! The experiment runner: one call per data point of the evaluation chapter.
//!
//! An [`ExperimentConfig`] fixes a property, a process count and the workload
//! parameters; [`run_experiment`] generates the traces (for each seed), runs the
//! decentralized monitors on the discrete-event simulator, aggregates the paper's
//! metrics and averages them over the seeds — exactly how the thesis reports its
//! figures ("we have replicated the experiments three times with different randomly
//! generated traces and averaged the results").

use crate::spec::{CompiledProperty, PropertySpec};
use dlrv_automaton::MonitorAutomaton;
use dlrv_distsim::{initial_global_state, run_simulation, NullMonitor, SimConfig, SimReport};
use dlrv_ltl::{Assignment, AtomRegistry, Verdicts};
use dlrv_monitor::{timestamp_order, DecentralizedMonitor, MonitorOptions, RunMetrics};
use dlrv_trace::{generate_workload, ArrivalModel, CommTopology, WorkloadConfig};
use dlrv_vclock::Event;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Global thread-count override for experiment fan-out; 0 means "auto".
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on threads spawned by [`parallel_map_indexed`]: nested fan-outs run
    /// sequentially so `--jobs N` caps *total* concurrency instead of multiplying
    /// at every nesting level (sweep × seeds).
    static IN_PARALLEL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets the number of worker threads used to fan out independent seeds and
/// configurations (the `--jobs` knob of the `experiments` binary).  `0` restores the
/// default: all available cores.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// Resolves the effective worker-thread count: the [`set_jobs`] override, else
/// `std::thread::available_parallelism`.
///
/// Returns 1 when called from inside a [`parallel_map_indexed`] worker, so nested
/// fan-outs never exceed the configured cap.
pub fn effective_jobs() -> usize {
    if IN_PARALLEL_WORKER.with(|flag| flag.get()) {
        return 1;
    }
    let explicit = JOBS.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every index in `0..n` on up to `jobs` scoped worker threads and
/// returns the results in index order.
///
/// Work items must be independent; each is computed exactly once, so for a
/// deterministic `f` the result vector is identical for every `jobs` value — parallel
/// runs are byte-identical to sequential ones.  With `jobs <= 1` (or a single item)
/// everything runs on the caller's thread.
pub fn parallel_map_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_PARALLEL_WORKER.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(value);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker left a slot empty")
        })
        .collect()
}

/// Configuration of one experiment data point.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The monitored property (a paper property A–F or a custom LTL spec).
    pub property: PropertySpec,
    /// Number of processes (devices).
    pub n_processes: usize,
    /// Number of internal events per process.
    pub events_per_process: usize,
    /// Mean wait between internal events (`Evtµ`, seconds).
    pub evt_mu: f64,
    /// Standard deviation of the internal-event wait (`Evtσ`).
    pub evt_sigma: f64,
    /// Mean wait between communication events (`Commµ`); `None` disables
    /// communication.
    pub comm_mu: Option<f64>,
    /// Standard deviation of the communication wait (`Commσ`).
    pub comm_sigma: f64,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// How internal-event wait times are drawn (the paper uses [`ArrivalModel::Normal`]).
    pub arrival: ArrivalModel,
    /// Who communication events are addressed to (the paper uses
    /// [`CommTopology::Broadcast`]).
    pub topology: CommTopology,
}

impl ExperimentConfig {
    /// The paper's default setting (`Evtµ = Commµ = 3 s`, `σ = 1 s`, three seeds).
    pub fn paper_default(property: impl Into<PropertySpec>, n_processes: usize) -> Self {
        ExperimentConfig {
            property: property.into(),
            n_processes,
            events_per_process: 20,
            evt_mu: 3.0,
            evt_sigma: 1.0,
            comm_mu: Some(3.0),
            comm_sigma: 1.0,
            seeds: vec![1, 2, 3],
            arrival: ArrivalModel::Normal,
            topology: CommTopology::Broadcast,
        }
    }

    /// A scaled-down configuration for fast test/bench runs.
    pub fn small(property: impl Into<PropertySpec>, n_processes: usize) -> Self {
        ExperimentConfig {
            events_per_process: 8,
            seeds: vec![1],
            ..Self::paper_default(property, n_processes)
        }
    }

    /// The workload-generator parameters for one seed (also used by the throughput
    /// runner and the stream-equivalence test, which generate one workload per
    /// streamed session).
    pub fn workload_config(&self, seed: u64) -> WorkloadConfig {
        // Initial channel values are chosen per property so that the property is
        // neither trivially violated nor trivially satisfied at the initial global
        // state (the paper's traces encode this in the trace files): until-style
        // properties need their left-hand side to hold initially.  The rule lives in
        // [`PropertySpec::initial_channels`], which covers custom LTL specs too.
        let (initial_p, initial_q) = self.property.initial_channels();
        WorkloadConfig {
            n_processes: self.n_processes,
            events_per_process: self.events_per_process,
            evt_mu: self.evt_mu,
            evt_sigma: self.evt_sigma,
            comm_mu: self.comm_mu,
            comm_sigma: self.comm_sigma,
            seed,
            goal_tail_fraction: 0.2,
            initial_p,
            initial_q,
            arrival: self.arrival,
            topology: self.topology,
        }
    }
}

/// The averaged outcome of an experiment (one point of a paper figure).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The configuration that produced it.
    pub config: ExperimentConfig,
    /// Metric averages over the seeds.
    pub avg: RunMetrics,
    /// Per-seed metrics.
    pub per_seed: Vec<RunMetrics>,
    /// Union of detected ⊤/⊥ verdicts over all seeds.
    pub detected_verdicts: Verdicts,
}

impl ExperimentResult {
    /// Folds per-seed metrics into a result: averaged metrics, verdicts unioned.
    pub(crate) fn from_seeds(config: &ExperimentConfig, per_seed: Vec<RunMetrics>) -> Self {
        let avg = average_metrics(&per_seed);
        ExperimentResult {
            config: config.clone(),
            detected_verdicts: avg.detected_final_verdicts,
            avg,
            per_seed,
        }
    }
}

/// The workload seed of session `index` in a run seeded `run_seed`: SplitMix64 over
/// both, so neighbouring run seeds share no session trace.  The repository benchmark
/// draws its sessions this way (`benchmark/src/workload.rs`); `examples/tour_costs.rs`
/// and the oracle ledger of `tests/soundness_completeness.rs` use it to measure the
/// sessions the benchmark runs.
pub fn session_seed(run_seed: u64, index: u64) -> u64 {
    let mut x = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One session of the simulated distributed program, recorded with no monitors
/// attached: what every substrate that monitors a *recorded* computation starts
/// from (the streamed runner, the deploy orchestrator, and the equivalence tests
/// that replay the same computation offline).
pub struct SimulatedSession {
    /// The computation's events in [`timestamp_order`], the canonical delivery order.
    pub events: Vec<Event>,
    /// The initial global state of the workload under the registry.
    pub initial_state: Assignment,
    /// The simulator's report: the computation itself, program message count and
    /// end time.
    pub report: SimReport<NullMonitor>,
}

/// Generates the workload of `workload` and executes it under the deterministic
/// simulator with no-op monitors — the stand-in for a live distributed program
/// emitting vector-clocked events.
pub fn simulate_session(workload: &WorkloadConfig, registry: &AtomRegistry) -> SimulatedSession {
    let workload = generate_workload(workload);
    let report = run_simulation(&workload, registry, &SimConfig::default(), |_| {
        NullMonitor::default()
    });
    let events = timestamp_order(&report.computation)
        .into_iter()
        .map(|(_, p, sn)| report.computation.events[p][(sn - 1) as usize].clone())
        .collect();
    SimulatedSession {
        events,
        initial_state: initial_global_state(&workload, registry),
        report,
    }
}

/// Runs `config` once per seed with the given optimization options and averages the
/// metrics.
///
/// Seeds are independent, so they fan out across [`effective_jobs`] worker threads;
/// results are collected in seed order, making the output — including every per-seed
/// metric — byte-identical to a sequential run.
pub fn run_experiment_with_options(
    config: &ExperimentConfig,
    opts: MonitorOptions,
) -> ExperimentResult {
    let compiled = CompiledProperty::compile(&config.property, config.n_processes);
    let (automaton, registry) = (&compiled.automaton, &compiled.registry);

    let per_seed = parallel_map_indexed(config.seeds.len(), effective_jobs(), |i| {
        let workload = generate_workload(&config.workload_config(config.seeds[i]));
        run_single(&workload, registry, automaton, opts)
    });
    ExperimentResult::from_seeds(config, per_seed)
}

/// Runs `config` with the default optimizations.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    run_experiment_with_options(config, MonitorOptions::default())
}

/// Runs one workload under the simulator with decentralized monitors and collects the
/// run metrics.
pub fn run_single(
    workload: &dlrv_trace::Workload,
    registry: &Arc<AtomRegistry>,
    automaton: &Arc<MonitorAutomaton>,
    opts: MonitorOptions,
) -> RunMetrics {
    let started = std::time::Instant::now();
    let (_, mut metrics) =
        simulate_monitors(workload, registry, automaton, opts, &SimConfig::default());
    // Real elapsed time of the run, so the terminal's offline rows show a wall
    // clock like the streamed families' do.
    metrics.wall_clock_secs = started.elapsed().as_secs_f64();
    metrics
}

/// Runs `workload` under the simulator configured by `sim`, one decentralized monitor
/// per process, and aggregates their metrics.
pub(crate) fn simulate_monitors(
    workload: &dlrv_trace::Workload,
    registry: &Arc<AtomRegistry>,
    automaton: &Arc<MonitorAutomaton>,
    opts: MonitorOptions,
    sim: &SimConfig,
) -> (SimReport<DecentralizedMonitor>, RunMetrics) {
    let n = workload.config.n_processes;
    let initial_gstate = initial_global_state(workload, registry);
    let report = run_simulation(workload, registry, sim, |i| {
        DecentralizedMonitor::new(
            i,
            n,
            automaton.clone(),
            registry.clone(),
            initial_gstate,
            opts,
        )
    });
    let per_monitor: Vec<_> = report.monitors.iter().map(|m| m.metrics()).collect();
    let metrics = RunMetrics::aggregate(
        &per_monitor,
        report.program_events,
        report.program_messages,
        report.monitor_messages,
        report.program_end_time,
        report.monitoring_end_time,
    );
    (report, metrics)
}

/// Averages a slice of run metrics field-by-field (verdict sets are unioned).
///
/// The per-shard and per-property rows of a single run are copied as they are;
/// several runs leave both empty, since each run's rows are its own.
pub fn average_metrics(runs: &[RunMetrics]) -> RunMetrics {
    if runs.is_empty() {
        return RunMetrics::default();
    }
    let k = runs.len() as f64;
    let mut avg = RunMetrics {
        n_processes: runs[0].n_processes,
        fleet_size: runs[0].fleet_size,
        ..RunMetrics::default()
    };
    for r in runs {
        avg.total_events += r.total_events;
        avg.monitor_messages += r.monitor_messages;
        avg.program_messages += r.program_messages;
        avg.total_global_views += r.total_global_views;
        avg.monitor_tokens += r.monitor_tokens;
        avg.peak_global_views += r.peak_global_views;
        avg.avg_delayed_events += r.avg_delayed_events;
        avg.delay_time_pct_per_gv += r.delay_time_pct_per_gv;
        avg.program_time += r.program_time;
        avg.monitor_extra_time += r.monitor_extra_time;
        avg.wall_clock_secs += r.wall_clock_secs;
        avg.events_per_sec += r.events_per_sec;
        // RSS is a high-water mark, not a rate: the max across runs, never a mean.
        avg.peak_rss_bytes = avg.peak_rss_bytes.max(r.peak_rss_bytes);
        avg.detected_final_verdicts |= r.detected_final_verdicts;
        avg.possible_verdicts |= r.possible_verdicts;
    }
    avg.total_events = (avg.total_events as f64 / k).round() as usize;
    avg.monitor_messages = (avg.monitor_messages as f64 / k).round() as usize;
    avg.program_messages = (avg.program_messages as f64 / k).round() as usize;
    avg.total_global_views = (avg.total_global_views as f64 / k).round() as usize;
    avg.monitor_tokens = (avg.monitor_tokens as f64 / k).round() as usize;
    avg.peak_global_views = (avg.peak_global_views as f64 / k).round() as usize;
    avg.avg_delayed_events /= k;
    avg.delay_time_pct_per_gv /= k;
    avg.program_time /= k;
    avg.monitor_extra_time /= k;
    avg.wall_clock_secs /= k;
    avg.events_per_sec /= k;
    if let [run] = runs {
        avg.per_shard = run.per_shard.clone();
        avg.fleet_per_property = run.fleet_per_property.clone();
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::PaperProperty;
    use dlrv_ltl::Verdict;

    #[test]
    fn small_experiment_produces_sane_metrics() {
        let cfg = ExperimentConfig::small(PaperProperty::B, 3);
        let result = run_experiment(&cfg);
        assert_eq!(result.per_seed.len(), 1);
        assert!(result.avg.total_events > 0);
        assert!(result.avg.program_time > 0.0);
        // The workload's goal tail makes all p true concurrently at the end, so the
        // reachability property B must be detected as satisfied.
        assert!(result.detected_verdicts.contains(&Verdict::True));
    }

    #[test]
    fn messages_grow_with_process_count() {
        let small = run_experiment(&ExperimentConfig::small(PaperProperty::C, 2));
        let large = run_experiment(&ExperimentConfig::small(PaperProperty::C, 4));
        assert!(
            large.avg.monitor_messages >= small.avg.monitor_messages,
            "more processes must not reduce monitoring messages ({} vs {})",
            large.avg.monitor_messages,
            small.avg.monitor_messages
        );
        assert!(large.avg.total_events > small.avg.total_events);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = parallel_map_indexed(17, jobs, |i| i * i);
            assert_eq!(
                out,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        assert!(parallel_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn nested_fan_out_runs_sequentially() {
        // Inside a worker thread the jobs budget is spent: nested parallel maps must
        // not multiply concurrency beyond the configured cap.
        let inner_jobs = parallel_map_indexed(4, 2, |_| effective_jobs());
        assert!(
            inner_jobs.iter().all(|&j| j == 1),
            "nested effective_jobs must be 1, got {inner_jobs:?}"
        );
    }

    // Single test for everything touching the global jobs knob, so concurrently
    // running tests never observe each other's overrides.
    #[test]
    fn jobs_knob_and_parallel_determinism() {
        assert!(effective_jobs() >= 1);
        set_jobs(3);
        assert_eq!(effective_jobs(), 3);

        let cfg = ExperimentConfig {
            seeds: vec![1, 2, 3, 4, 5, 6],
            events_per_process: 6,
            ..ExperimentConfig::paper_default(PaperProperty::C, 3)
        };
        set_jobs(1);
        let sequential = run_experiment(&cfg);
        set_jobs(4);
        let parallel = run_experiment(&cfg);
        set_jobs(0);
        // Everything a result writes — every per-seed metric, the averages and the
        // detected verdicts — is identical whatever the thread count.
        let written = |r: &ExperimentResult| {
            let per_seed: Vec<_> = r.per_seed.iter().map(RunMetrics::to_json).collect();
            (r.avg.to_json(), per_seed, r.detected_verdicts)
        };
        assert_eq!(written(&sequential), written(&parallel));
    }

    #[test]
    fn average_metrics_is_elementwise() {
        let a = RunMetrics {
            monitor_messages: 10,
            avg_delayed_events: 2.0,
            program_time: 30.0,
            ..RunMetrics::default()
        };
        let b = RunMetrics {
            monitor_messages: 20,
            avg_delayed_events: 4.0,
            program_time: 50.0,
            ..RunMetrics::default()
        };
        let avg = average_metrics(&[a, b]);
        assert_eq!(avg.monitor_messages, 15);
        assert_eq!(avg.avg_delayed_events, 3.0);
        assert_eq!(avg.program_time, 40.0);
        assert_eq!(average_metrics(&[]), RunMetrics::default());
    }
}
