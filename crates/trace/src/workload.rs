//! Workload model and trace generation (§5.1–§5.2 of the thesis).
//!
//! Each process `Pi` runs a trace: a list of entries, each with a wait time and an
//! action.  Actions are either a local update of the process's two propositions
//! (`Pi.p`, `Pi.q`) — an internal event — or a communication event, in which the
//! process sends a message to every other process (as in the paper: "when a
//! communication event occurs, the program at Pi sends a message to each other
//! process").  Wait times for internal and communication events are drawn from two
//! normal distributions `N(Evtµ, Evtσ)` and `N(Commµ, Commσ)`.

use crate::distribution::NormalSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The action of a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceAction {
    /// Internal event: set the process's propositions `p` and `q`.
    SetProps {
        /// New value of the process's `p` proposition.
        p: bool,
        /// New value of the process's `q` proposition.
        q: bool,
    },
    /// Communication event: broadcast a message to every other process.
    Broadcast,
    /// Communication event: send a single message to process `to` (used by the
    /// ring/pipeline/hotspot topologies, where communication is point-to-point
    /// instead of the paper's broadcast).
    Send {
        /// Destination process.
        to: usize,
    },
}

/// How internal-event wait times are drawn (`Evtµ`/`Evtσ` stay the base
/// distribution in every model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// The paper's model: every wait is an independent `N(Evtµ, Evtσ)` sample.
    Normal,
    /// Bursty arrivals: events come in bursts of `burst_len`.  The first event of a
    /// burst waits `sample · gap_scale` (a long inter-burst gap), the remaining
    /// events of the burst wait `sample · intra_scale` (rapid fire).  With
    /// `intra_scale < 1 < gap_scale` the mean event rate stays comparable to
    /// [`ArrivalModel::Normal`] while the instantaneous rate oscillates.
    Bursty {
        /// Number of internal events per burst (≥ 1).
        burst_len: usize,
        /// Wait-time multiplier inside a burst (typically « 1).
        intra_scale: f64,
        /// Wait-time multiplier for the gap before each burst (typically > 1).
        gap_scale: f64,
    },
}

/// Who a process's communication events are addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommTopology {
    /// The paper's model: every communication event broadcasts to all other
    /// processes.
    Broadcast,
    /// Ring: process `i` sends to `(i + 1) mod n`.
    Ring,
    /// Pipeline: process `i` sends to `i + 1`; the last process generates no
    /// communication events.
    Pipeline,
    /// Hotspot: every process sends to the hub process only, and the hub
    /// broadcasts to everyone — all communication funnels through one process.
    Hotspot {
        /// The hub process (clamped to the process count at generation time).
        hub: usize,
    },
}

/// One entry of a process trace: wait `wait` seconds, then perform `action`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Wait time before the action, in (simulated) seconds.
    pub wait: f64,
    /// The action to perform.
    pub action: TraceAction,
}

/// The trace of one process.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProcessTrace {
    /// Initial values of the process's propositions `(p, q)`.
    pub initial: (bool, bool),
    /// The entries, executed in order.
    pub entries: Vec<TraceEntry>,
}

impl ProcessTrace {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of internal (proposition-change) entries.
    pub fn n_internal(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.action, TraceAction::SetProps { .. }))
            .count()
    }

    /// Number of communication (broadcast) entries.
    pub fn n_broadcasts(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.action, TraceAction::Broadcast))
            .count()
    }

    /// Number of point-to-point send entries.
    pub fn n_sends(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.action, TraceAction::Send { .. }))
            .count()
    }

    /// Total simulated duration of the trace (sum of waits).
    pub fn duration(&self) -> f64 {
        self.entries.iter().map(|e| e.wait).sum()
    }
}

/// A complete workload: one trace per process, plus the configuration that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The generating configuration.
    pub config: WorkloadConfig,
    /// One trace per process.
    pub traces: Vec<ProcessTrace>,
}

/// Parameters of the workload generator (§5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of processes (devices).
    pub n_processes: usize,
    /// Number of internal (proposition-change) events per process.
    pub events_per_process: usize,
    /// Mean of the internal-event wait-time distribution (`Evtµ`, seconds).
    pub evt_mu: f64,
    /// Standard deviation of the internal-event wait time (`Evtσ`, seconds).
    pub evt_sigma: f64,
    /// Mean of the communication wait-time distribution (`Commµ`, seconds); `None`
    /// disables communication entirely (the "no comm" configuration of Fig. 5.9).
    pub comm_mu: Option<f64>,
    /// Standard deviation of the communication wait time (`Commσ`, seconds).
    pub comm_sigma: f64,
    /// RNG seed (experiments are averaged over several seeds).
    pub seed: u64,
    /// Fraction of the trace tail in which all propositions are forced to `true`, so
    /// that — as in the paper — some lattice path can reach a final automaton state.
    pub goal_tail_fraction: f64,
    /// Initial value of every process's `p` proposition.
    ///
    /// Until-style properties (`G (P U Q)`) need `p` to start true, otherwise the very
    /// first global state already violates them; reachability properties want it false
    /// so satisfaction is not trivial.  The paper's traces encode the initial values in
    /// the trace file; here they are part of the workload configuration.
    pub initial_p: bool,
    /// Initial value of every process's `q` proposition.
    pub initial_q: bool,
    /// How internal-event wait times are drawn.
    pub arrival: ArrivalModel,
    /// Who communication events are addressed to.
    pub topology: CommTopology,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n_processes: 4,
            events_per_process: 20,
            evt_mu: 3.0,
            evt_sigma: 1.0,
            comm_mu: Some(3.0),
            comm_sigma: 1.0,
            seed: 1,
            goal_tail_fraction: 0.2,
            initial_p: false,
            initial_q: false,
            arrival: ArrivalModel::Normal,
            topology: CommTopology::Broadcast,
        }
    }
}

impl WorkloadConfig {
    /// The paper's default experimental setting: `Commµ = 3 s`, `Commσ = 1 s`,
    /// `Evtµ = 3 s`, `Evtσ = 1 s` for `n` processes.
    pub fn paper_default(n_processes: usize, seed: u64) -> Self {
        WorkloadConfig {
            n_processes,
            seed,
            ..WorkloadConfig::default()
        }
    }

    /// The communication-frequency sweep of Fig. 5.9: same event rate, varying `Commµ`
    /// (`None` = no communication).
    pub fn comm_sweep(n_processes: usize, comm_mu: Option<f64>, seed: u64) -> Self {
        WorkloadConfig {
            n_processes,
            comm_mu,
            seed,
            ..WorkloadConfig::default()
        }
    }

    /// The paper-default workload with bursty event arrivals: bursts of `burst_len`
    /// rapid events (waits scaled by 0.2) separated by long gaps (waits scaled by 3).
    pub fn bursty(n_processes: usize, burst_len: usize, seed: u64) -> Self {
        WorkloadConfig {
            n_processes,
            seed,
            arrival: ArrivalModel::Bursty {
                burst_len,
                intra_scale: 0.2,
                gap_scale: 3.0,
            },
            ..WorkloadConfig::default()
        }
    }

    /// The paper-default workload over a non-broadcast communication topology.
    pub fn with_topology(n_processes: usize, topology: CommTopology, seed: u64) -> Self {
        WorkloadConfig {
            n_processes,
            topology,
            seed,
            ..WorkloadConfig::default()
        }
    }
}

/// Generates a workload from `config`.
///
/// Internal events flip each proposition with a bias that rises over the trace, and the
/// final `goal_tail_fraction` of every process's internal events sets both propositions
/// to `true`, guaranteeing (as the paper's traces do) that a lattice path leading to a
/// final automaton state exists for the evaluation properties.
pub fn generate_workload(config: &WorkloadConfig) -> Workload {
    let n = config.n_processes;
    let mut traces = Vec::with_capacity(n);
    for p in 0..n {
        // Per-process RNG so that adding processes does not perturb existing traces.
        let mut rng =
            StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(p as u64));
        let mut evt_wait = NormalSampler::new(config.evt_mu, config.evt_sigma);
        // What this process's communication events do; `None` disables communication
        // for this process (point-to-point topologies need a peer to send to).
        let comm_action = match config.topology {
            CommTopology::Broadcast => Some(TraceAction::Broadcast),
            CommTopology::Ring if n >= 2 => Some(TraceAction::Send { to: (p + 1) % n }),
            CommTopology::Pipeline if p + 1 < n => Some(TraceAction::Send { to: p + 1 }),
            CommTopology::Hotspot { hub } if n >= 2 => {
                let hub = hub.min(n - 1);
                if p == hub {
                    Some(TraceAction::Broadcast)
                } else {
                    Some(TraceAction::Send { to: hub })
                }
            }
            _ => None,
        };
        let mut comm_wait = comm_action
            .and(config.comm_mu)
            .map(|mu| NormalSampler::new(mu, config.comm_sigma));

        let mut entries = Vec::new();
        let n_events = config.events_per_process;
        let goal_start = ((1.0 - config.goal_tail_fraction) * n_events as f64).floor() as usize;

        // Interleave communication events with internal events by tracking two virtual
        // clocks: the next internal event time and the next communication time.
        let mut next_comm = comm_wait.as_mut().map(|s| s.sample(&mut rng));
        let mut elapsed = 0.0f64;
        for k in 0..n_events {
            let wait = match config.arrival {
                ArrivalModel::Normal => evt_wait.sample(&mut rng),
                ArrivalModel::Bursty {
                    burst_len,
                    intra_scale,
                    gap_scale,
                } => {
                    let scale = if k % burst_len.max(1) == 0 {
                        gap_scale
                    } else {
                        intra_scale
                    };
                    evt_wait.sample(&mut rng) * scale
                }
            };
            let event_time = elapsed + wait;
            // Emit any communication events that fall before this internal event.
            while let Some(t) = next_comm {
                if t <= event_time {
                    entries.push(TraceEntry {
                        wait: (t - elapsed).max(0.0),
                        action: comm_action.expect("comm_wait implies comm_action"),
                    });
                    elapsed = t;
                    next_comm = comm_wait.as_mut().map(|s| t + s.sample(&mut rng));
                } else {
                    break;
                }
            }
            let (p_val, q_val) = if k >= goal_start {
                (true, true)
            } else {
                // Propositions that start true stay true with high probability so that
                // until-style properties remain live; propositions that start false
                // become true with a bias that rises over the trace.
                let rising = 0.35 + 0.4 * (k as f64 / n_events.max(1) as f64);
                let p_bias = if config.initial_p { 0.9 } else { rising };
                let q_bias = if config.initial_q { 0.9 } else { rising };
                (rng.gen_bool(p_bias), rng.gen_bool(q_bias))
            };
            entries.push(TraceEntry {
                wait: (event_time - elapsed).max(0.0),
                action: TraceAction::SetProps { p: p_val, q: q_val },
            });
            elapsed = event_time;
        }

        traces.push(ProcessTrace {
            initial: (config.initial_p, config.initial_q),
            entries,
        });
    }
    Workload {
        config: config.clone(),
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = WorkloadConfig::paper_default(3, 7);
        let w1 = generate_workload(&cfg);
        let w2 = generate_workload(&cfg);
        assert_eq!(w1, w2);
        let w3 = generate_workload(&WorkloadConfig::paper_default(3, 8));
        assert_ne!(w1, w3);
    }

    #[test]
    fn trace_counts_match_config() {
        let cfg = WorkloadConfig {
            n_processes: 5,
            events_per_process: 12,
            ..WorkloadConfig::default()
        };
        let w = generate_workload(&cfg);
        assert_eq!(w.traces.len(), 5);
        for t in &w.traces {
            assert_eq!(t.n_internal(), 12);
        }
    }

    #[test]
    fn goal_tail_forces_all_true() {
        let cfg = WorkloadConfig {
            n_processes: 2,
            events_per_process: 10,
            goal_tail_fraction: 0.3,
            ..WorkloadConfig::default()
        };
        let w = generate_workload(&cfg);
        for t in &w.traces {
            let last_internal = t
                .entries
                .iter()
                .rev()
                .find_map(|e| match e.action {
                    TraceAction::SetProps { p, q } => Some((p, q)),
                    TraceAction::Broadcast | TraceAction::Send { .. } => None,
                })
                .unwrap();
            assert_eq!(last_internal, (true, true));
        }
    }

    #[test]
    fn no_comm_configuration_has_no_broadcasts() {
        let cfg = WorkloadConfig::comm_sweep(4, None, 3);
        let w = generate_workload(&cfg);
        for t in &w.traces {
            assert_eq!(t.n_broadcasts(), 0);
        }
    }

    #[test]
    fn higher_comm_mu_means_fewer_broadcasts() {
        let fast = generate_workload(&WorkloadConfig::comm_sweep(4, Some(3.0), 11));
        let slow = generate_workload(&WorkloadConfig::comm_sweep(4, Some(15.0), 11));
        let fast_b: usize = fast.traces.iter().map(ProcessTrace::n_broadcasts).sum();
        let slow_b: usize = slow.traces.iter().map(ProcessTrace::n_broadcasts).sum();
        assert!(
            fast_b > slow_b,
            "expected more broadcasts at Commµ=3 ({fast_b}) than at Commµ=15 ({slow_b})"
        );
    }

    #[test]
    fn new_shapes_leave_default_workloads_untouched() {
        // The arrival/topology extension must not perturb the paper's workloads: a
        // default-shaped config draws exactly the same traces as before the fields
        // existed (same RNG consumption, same waits, same actions).
        let w = generate_workload(&WorkloadConfig::paper_default(3, 7));
        assert_eq!(w.config.arrival, ArrivalModel::Normal);
        assert_eq!(w.config.topology, CommTopology::Broadcast);
        for t in &w.traces {
            assert_eq!(t.n_sends(), 0, "broadcast topology must not emit sends");
        }
    }

    #[test]
    fn ring_topology_sends_to_successor() {
        let w = generate_workload(&WorkloadConfig::with_topology(4, CommTopology::Ring, 3));
        for (i, t) in w.traces.iter().enumerate() {
            assert_eq!(t.n_broadcasts(), 0);
            assert!(t.n_sends() > 0, "ring processes must communicate");
            for e in &t.entries {
                if let TraceAction::Send { to } = e.action {
                    assert_eq!(to, (i + 1) % 4);
                }
            }
        }
    }

    #[test]
    fn pipeline_last_process_is_silent() {
        let w = generate_workload(&WorkloadConfig::with_topology(3, CommTopology::Pipeline, 5));
        assert!(w.traces[0].n_sends() > 0);
        assert!(w.traces[1].n_sends() > 0);
        assert_eq!(w.traces[2].n_sends(), 0, "pipeline tail must not send");
        assert_eq!(w.traces[2].n_broadcasts(), 0, "nor broadcast");
        for e in &w.traces[0].entries {
            if let TraceAction::Send { to } = e.action {
                assert_eq!(to, 1);
            }
        }
    }

    #[test]
    fn hotspot_funnels_through_hub() {
        let hub = 1;
        let w = generate_workload(&WorkloadConfig::with_topology(
            4,
            CommTopology::Hotspot { hub },
            9,
        ));
        for (i, t) in w.traces.iter().enumerate() {
            if i == hub {
                assert!(t.n_broadcasts() > 0, "hub must broadcast");
                assert_eq!(t.n_sends(), 0);
            } else {
                assert_eq!(t.n_broadcasts(), 0);
                for e in &t.entries {
                    if let TraceAction::Send { to } = e.action {
                        assert_eq!(to, hub);
                    }
                }
            }
        }
    }

    #[test]
    fn bursty_arrivals_have_higher_wait_variance() {
        let normal = generate_workload(&WorkloadConfig::paper_default(2, 13));
        let bursty = generate_workload(&WorkloadConfig::bursty(2, 4, 13));
        let spread = |w: &Workload| {
            let waits: Vec<f64> = w.traces[0]
                .entries
                .iter()
                .filter(|e| matches!(e.action, TraceAction::SetProps { .. }))
                .map(|e| e.wait)
                .collect();
            let mean = waits.iter().sum::<f64>() / waits.len() as f64;
            waits.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / waits.len() as f64
        };
        assert!(
            spread(&bursty) > spread(&normal),
            "bursty waits must oscillate more than normal waits ({} vs {})",
            spread(&bursty),
            spread(&normal)
        );
    }

    #[test]
    fn waits_are_nonnegative_and_duration_positive() {
        let w = generate_workload(&WorkloadConfig::paper_default(4, 5));
        for t in &w.traces {
            assert!(t.entries.iter().all(|e| e.wait >= 0.0));
            assert!(t.duration() > 0.0);
            assert!(!t.is_empty());
            assert_eq!(t.len(), t.n_internal() + t.n_broadcasts());
        }
    }
}
