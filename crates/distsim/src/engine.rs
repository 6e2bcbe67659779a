//! A deterministic discrete-event simulator of an asynchronous distributed program
//! with co-located monitors.
//!
//! This is the repository's substitute for the paper's iOS testbed (see
//! `docs/ARCHITECTURE.md`, "Ch. 5 testbed"):
//! processes execute their trace entries at simulated wall-clock times, program
//! messages and monitor messages travel over reliable FIFO channels with configurable
//! latency, and every program event is handed to the co-located
//! [`MonitorBehavior`] exactly as the paper's programs hand
//! events to their monitors.  The full [`Computation`] is recorded on the side so that
//! the oracle can be evaluated on the very same execution.

use crate::behavior::{MonitorBehavior, MonitorContext};
use dlrv_ltl::{Assignment, AtomLayout, AtomRegistry, ProcessId};
use dlrv_trace::{TraceAction, Workload};
use dlrv_vclock::{Computation, Event, EventKind, VectorClock};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Latency and bookkeeping parameters of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// One-way latency of program messages (seconds).
    pub program_msg_latency: f64,
    /// One-way latency of monitor (token) messages (seconds).
    pub monitor_msg_latency: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            program_msg_latency: 0.05,
            monitor_msg_latency: 0.02,
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug)]
pub struct SimReport<B> {
    /// Every program event that occurred, per process, with vector clocks — the input
    /// the oracle needs.
    pub computation: Computation,
    /// The final state of each monitor behavior.
    pub monitors: Vec<B>,
    /// Time of the last program event.
    pub program_end_time: f64,
    /// Time at which the last monitor activity (event or message delivery) happened.
    pub monitoring_end_time: f64,
    /// Total number of program events (internal + broadcast + receive).
    pub program_events: usize,
    /// Total number of program messages sent.
    pub program_messages: usize,
    /// Total number of monitor-to-monitor messages sent.
    pub monitor_messages: usize,
}

/// The initial global state (proposition valuation) of a workload under `registry`:
/// every process's channel-bound atoms take the trace's initial channel values.
///
/// For the evaluation chapter's `P<i>.p` / `P<i>.q` naming this is exactly the
/// historical behavior; free-form atom names are bound to the two workload channels
/// by [`AtomLayout::from_registry`].
pub fn initial_global_state(workload: &Workload, registry: &AtomRegistry) -> Assignment {
    let layout = AtomLayout::from_registry(registry, workload.traces.len());
    let mut global = Assignment::ALL_FALSE;
    for (i, trace) in workload.traces.iter().enumerate() {
        layout.apply_channels(i, trace.initial.0, trace.initial.1, &mut global);
    }
    global
}

/// Runs `workload` under the simulator, attaching one monitor (built by
/// `make_monitor`) to every process.
pub fn run_simulation<B: MonitorBehavior>(
    workload: &Workload,
    registry: &AtomRegistry,
    config: &SimConfig,
    mut make_monitor: impl FnMut(ProcessId) -> B,
) -> SimReport<B> {
    let n = workload.config.n_processes;
    assert_eq!(workload.traces.len(), n);

    // Resolve each process's channel-bound atoms once: the registry's layout maps
    // every atom to one of the two workload channels of its owning process.
    let layout = AtomLayout::from_registry(registry, n);

    let initial_state = |i: usize| -> Assignment {
        let mut a = Assignment::ALL_FALSE;
        let (p0, q0) = workload.traces[i].initial;
        layout.apply_channels(i, p0, q0, &mut a);
        a
    };

    let mut monitors: Vec<B> = (0..n).map(&mut make_monitor).collect();
    let mut computation = Computation::new((0..n).map(initial_state).collect());
    for (events, len) in computation
        .events
        .iter_mut()
        .zip(events_per_process(workload))
    {
        events.reserve_exact(len);
    }
    let mut clocks: Vec<VectorClock> = (0..n).map(|_| VectorClock::zero(n)).collect();
    let mut states: Vec<Assignment> = (0..n).map(initial_state).collect();

    let mut queue: BinaryHeap<QueueItem<B::Message>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut msg_id = 0u64;
    let mut program_items = 0usize;
    let mut program_end_time = 0.0f64;
    let mut monitoring_end_time = 0.0f64;
    let mut program_events = 0usize;
    let mut program_messages = 0usize;
    let mut monitor_messages = 0usize;
    let mut terminated_signalled = false;

    // Schedule the first entry of every process.
    for (i, trace) in workload.traces.iter().enumerate() {
        if let Some(first) = trace.entries.first() {
            queue.push(QueueItem {
                time: first.wait,
                seq: next_seq(&mut seq),
                kind: ItemKind::ProgramStep {
                    process: i,
                    entry: 0,
                },
            });
            program_items += 1;
        }
    }

    let mut outbox: Vec<(ProcessId, B::Message)> = Vec::new();

    // If some processes have empty traces and no program items exist at all, the
    // termination signal must still be sent; the check below the loop handles it.
    while let Some(item) = queue.pop() {
        let now = item.time;
        match item.kind {
            ItemKind::ProgramStep { process, entry } => {
                program_items -= 1;
                program_end_time = program_end_time.max(now);
                let trace = &workload.traces[process];
                let action = trace.entries[entry].action;
                clocks[process].increment(process);
                let event = match action {
                    TraceAction::SetProps { p, q } => {
                        layout.apply_channels(process, p, q, &mut states[process]);
                        Event {
                            process,
                            kind: EventKind::Internal,
                            sn: clocks[process].get(process),
                            vc: clocks[process].clone(),
                            state: states[process],
                            time: now,
                        }
                    }
                    TraceAction::Broadcast => {
                        msg_id += 1;
                        for to in 0..n {
                            if to != process {
                                queue.push(QueueItem {
                                    time: now + config.program_msg_latency,
                                    seq: next_seq(&mut seq),
                                    kind: ItemKind::ProgramMsg {
                                        to,
                                        from: process,
                                        send_sn: clocks[process].get(process),
                                        msg_id,
                                    },
                                });
                                program_items += 1;
                                program_messages += 1;
                            }
                        }
                        Event {
                            process,
                            kind: EventKind::Broadcast { msg_id },
                            sn: clocks[process].get(process),
                            vc: clocks[process].clone(),
                            state: states[process],
                            time: now,
                        }
                    }
                    TraceAction::Send { to } => {
                        assert!(to < n && to != process, "send target must be a peer");
                        msg_id += 1;
                        queue.push(QueueItem {
                            time: now + config.program_msg_latency,
                            seq: next_seq(&mut seq),
                            kind: ItemKind::ProgramMsg {
                                to,
                                from: process,
                                send_sn: clocks[process].get(process),
                                msg_id,
                            },
                        });
                        program_items += 1;
                        program_messages += 1;
                        Event {
                            process,
                            kind: EventKind::Send { to, msg_id },
                            sn: clocks[process].get(process),
                            vc: clocks[process].clone(),
                            state: states[process],
                            time: now,
                        }
                    }
                };
                program_events += 1;
                deliver_event(&mut monitors[process], &event, process, n, now, &mut outbox);
                computation.push(event);
                flush_outbox(
                    &mut outbox,
                    process,
                    now,
                    config,
                    &mut queue,
                    &mut seq,
                    &mut monitor_messages,
                );
                monitoring_end_time = monitoring_end_time.max(now);

                // Schedule the next entry of this process.
                if entry + 1 < trace.entries.len() {
                    queue.push(QueueItem {
                        time: now + trace.entries[entry + 1].wait,
                        seq: next_seq(&mut seq),
                        kind: ItemKind::ProgramStep {
                            process,
                            entry: entry + 1,
                        },
                    });
                    program_items += 1;
                }
            }
            ItemKind::ProgramMsg {
                to,
                from,
                send_sn,
                msg_id,
            } => {
                program_items -= 1;
                program_end_time = program_end_time.max(now);
                clocks[to].increment(to);
                clocks[to].merge(&computation.events[from][(send_sn - 1) as usize].vc);
                let event = Event {
                    process: to,
                    kind: EventKind::Receive { from, msg_id },
                    sn: clocks[to].get(to),
                    vc: clocks[to].clone(),
                    state: states[to],
                    time: now,
                };
                program_events += 1;
                deliver_event(&mut monitors[to], &event, to, n, now, &mut outbox);
                computation.push(event);
                flush_outbox(
                    &mut outbox,
                    to,
                    now,
                    config,
                    &mut queue,
                    &mut seq,
                    &mut monitor_messages,
                );
                monitoring_end_time = monitoring_end_time.max(now);
            }
            ItemKind::MonitorMsg { to, from, msg } => {
                let mut ctx = MonitorContext {
                    self_id: to,
                    n_processes: n,
                    now,
                    outbox: &mut outbox,
                };
                monitors[to].on_monitor_message(from, msg, &mut ctx);
                flush_outbox(
                    &mut outbox,
                    to,
                    now,
                    config,
                    &mut queue,
                    &mut seq,
                    &mut monitor_messages,
                );
                monitoring_end_time = monitoring_end_time.max(now);
            }
        }

        // The program has quiesced: signal termination to every monitor exactly once.
        if !terminated_signalled && program_items == 0 {
            terminated_signalled = true;
            for (i, monitor) in monitors.iter_mut().enumerate() {
                let mut ctx = MonitorContext {
                    self_id: i,
                    n_processes: n,
                    now: program_end_time,
                    outbox: &mut outbox,
                };
                monitor.on_local_termination(&mut ctx);
                flush_outbox(
                    &mut outbox,
                    i,
                    program_end_time,
                    config,
                    &mut queue,
                    &mut seq,
                    &mut monitor_messages,
                );
            }
            monitoring_end_time = monitoring_end_time.max(program_end_time);
        }
    }

    // Degenerate case: no program items were ever scheduled (all traces empty).
    if !terminated_signalled {
        for (i, monitor) in monitors.iter_mut().enumerate() {
            let mut ctx = MonitorContext {
                self_id: i,
                n_processes: n,
                now: 0.0,
                outbox: &mut outbox,
            };
            monitor.on_local_termination(&mut ctx);
            // With no queue left, any messages produced here cannot be delivered; the
            // degenerate case only arises for empty workloads in tests.
            outbox.clear();
        }
    }

    SimReport {
        computation,
        monitors,
        program_end_time,
        monitoring_end_time,
        program_events,
        program_messages,
        monitor_messages,
    }
}

/// How many events each process of `workload` records: one per trace entry, plus
/// one receive per broadcast of another process and per `Send` addressed to it.
fn events_per_process(workload: &Workload) -> Vec<usize> {
    let traces = &workload.traces;
    let mut own_broadcasts = vec![0; traces.len()];
    let mut events: Vec<usize> = traces.iter().map(|t| t.entries.len()).collect();
    for (from, trace) in traces.iter().enumerate() {
        for entry in &trace.entries {
            match entry.action {
                TraceAction::Broadcast => own_broadcasts[from] += 1,
                TraceAction::Send { to } => {
                    if let Some(received) = events.get_mut(to) {
                        *received += 1;
                    }
                }
                TraceAction::SetProps { .. } => {}
            }
        }
    }
    let broadcasts: usize = own_broadcasts.iter().sum();
    for (len, own) in events.iter_mut().zip(own_broadcasts) {
        *len += broadcasts - own;
    }
    events
}

fn next_seq(seq: &mut u64) -> u64 {
    *seq += 1;
    *seq
}

fn deliver_event<B: MonitorBehavior>(
    monitor: &mut B,
    event: &Event,
    process: ProcessId,
    n: usize,
    now: f64,
    outbox: &mut Vec<(ProcessId, B::Message)>,
) {
    let mut ctx = MonitorContext {
        self_id: process,
        n_processes: n,
        now,
        outbox,
    };
    monitor.on_local_event(event, &mut ctx);
}

fn flush_outbox<M>(
    outbox: &mut Vec<(ProcessId, M)>,
    from: ProcessId,
    now: f64,
    config: &SimConfig,
    queue: &mut BinaryHeap<QueueItem<M>>,
    seq: &mut u64,
    monitor_messages: &mut usize,
) {
    for (to, msg) in outbox.drain(..) {
        *monitor_messages += 1;
        queue.push(QueueItem {
            time: now + config.monitor_msg_latency,
            seq: next_seq(seq),
            kind: ItemKind::MonitorMsg { to, from, msg },
        });
    }
}

enum ItemKind<M> {
    ProgramStep {
        process: ProcessId,
        entry: usize,
    },
    /// A program message; the receiver merges the clock of the sender's send
    /// event, which is already recorded, so the message carries its sequence
    /// number instead of a copy of the clock.
    ProgramMsg {
        to: ProcessId,
        from: ProcessId,
        send_sn: u64,
        msg_id: u64,
    },
    MonitorMsg {
        to: ProcessId,
        from: ProcessId,
        msg: M,
    },
}

struct QueueItem<M> {
    time: f64,
    seq: u64,
    kind: ItemKind<M>,
}

impl<M> PartialEq for QueueItem<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueueItem<M> {}
impl<M> PartialOrd for QueueItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueueItem<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::NullMonitor;
    use dlrv_trace::{generate_workload, WorkloadConfig};

    fn registry_for(n: usize) -> AtomRegistry {
        let mut reg = AtomRegistry::new();
        for i in 0..n {
            reg.intern(&format!("P{i}.p"), i);
            reg.intern(&format!("P{i}.q"), i);
        }
        reg
    }

    #[test]
    fn simulation_records_all_program_events() {
        let cfg = WorkloadConfig::paper_default(3, 1);
        let workload = generate_workload(&cfg);
        let reg = registry_for(3);
        let report = run_simulation(&workload, &reg, &SimConfig::default(), |_| {
            NullMonitor::default()
        });
        let internals: usize = workload.traces.iter().map(|t| t.n_internal()).sum();
        let broadcasts: usize = workload.traces.iter().map(|t| t.n_broadcasts()).sum();
        let receives = broadcasts * 2; // each broadcast reaches the other two processes
        assert_eq!(report.program_events, internals + broadcasts + receives);
        assert_eq!(report.computation.n_events(), report.program_events);
        assert_eq!(report.program_messages, receives);
        assert_eq!(report.monitor_messages, 0);
        // Every monitor saw exactly its own process's events and was terminated.
        for (i, m) in report.monitors.iter().enumerate() {
            assert!(m.terminated);
            assert_eq!(m.events_seen, report.computation.events[i].len());
        }
    }

    #[test]
    fn vector_clocks_are_monotone_per_process() {
        let workload = generate_workload(&WorkloadConfig::paper_default(4, 2));
        let reg = registry_for(4);
        let report = run_simulation(&workload, &reg, &SimConfig::default(), |_| {
            NullMonitor::default()
        });
        for events in &report.computation.events {
            for w in events.windows(2) {
                assert!(w[0].vc.leq(&w[1].vc));
                assert_eq!(w[0].sn + 1, w[1].sn);
            }
        }
    }

    /// The paper's broadcast workload, a ring, a hotspot and one without
    /// communication, at 2–5 processes and three seeds each.
    fn recorded_workloads() -> Vec<Workload> {
        use dlrv_trace::CommTopology;
        let mut workloads = Vec::new();
        for n in 2..=5 {
            for seed in 1..=3 {
                workloads.push(generate_workload(&WorkloadConfig::paper_default(n, seed)));
                for topology in [CommTopology::Ring, CommTopology::Hotspot { hub: 1 }] {
                    let config = WorkloadConfig::with_topology(n, topology, seed);
                    workloads.push(generate_workload(&config));
                }
                workloads.push(generate_workload(&WorkloadConfig::comm_sweep(
                    n, None, seed,
                )));
            }
        }
        workloads
    }

    /// Exact, not just dominating: a receive's clock is the receiver's previous
    /// clock with its own entry ticked, merged with its send event's clock.
    #[test]
    fn receive_clock_dominates_send_clock() {
        for workload in recorded_workloads() {
            let n = workload.config.n_processes;
            let report = run_simulation(&workload, &registry_for(n), &SimConfig::default(), |_| {
                NullMonitor::default()
            });
            let comp = &report.computation;
            for (p, events) in comp.events.iter().enumerate() {
                for (k, e) in events.iter().enumerate() {
                    let EventKind::Receive { from, msg_id } = e.kind else {
                        continue;
                    };
                    let send = comp.events[from]
                        .iter()
                        .find(|s| match s.kind {
                            EventKind::Broadcast { msg_id: m } => m == msg_id,
                            EventKind::Send { to, msg_id: m } => m == msg_id && to == p,
                            _ => false,
                        })
                        .expect("the matching send event is recorded");
                    let mut expected = match k {
                        0 => VectorClock::zero(n),
                        _ => events[k - 1].vc.clone(),
                    };
                    expected.increment(p);
                    expected.merge(&send.vc);
                    assert_eq!(e.vc, expected, "receive {k} of process {p}");
                    assert!(send.vc.happened_before(&e.vc));
                }
            }
        }
    }

    #[test]
    fn each_process_s_events_are_allocated_once_at_their_exact_count() {
        for workload in recorded_workloads() {
            let n = workload.config.n_processes;
            let report = run_simulation(&workload, &registry_for(n), &SimConfig::default(), |_| {
                NullMonitor::default()
            });
            for (p, events) in report.computation.events.iter().enumerate() {
                assert_eq!(events.capacity(), events.len(), "process {p}");
            }
            assert_eq!(
                events_per_process(&workload).iter().sum::<usize>(),
                report.program_events
            );
        }
    }

    #[test]
    fn final_frontier_is_consistent() {
        let workload = generate_workload(&WorkloadConfig::paper_default(5, 4));
        let reg = registry_for(5);
        let report = run_simulation(&workload, &reg, &SimConfig::default(), |_| {
            NullMonitor::default()
        });
        assert!(report
            .computation
            .is_consistent_frontier(&report.computation.final_frontier()));
        assert!(report.program_end_time > 0.0);
        assert!(report.monitoring_end_time >= report.program_end_time);
    }

    #[test]
    fn no_comm_workload_generates_no_receives() {
        let workload = generate_workload(&WorkloadConfig::comm_sweep(4, None, 5));
        let reg = registry_for(4);
        let report = run_simulation(&workload, &reg, &SimConfig::default(), |_| {
            NullMonitor::default()
        });
        assert_eq!(report.program_messages, 0);
        for events in &report.computation.events {
            assert!(events.iter().all(|e| matches!(e.kind, EventKind::Internal)));
        }
    }

    #[test]
    fn ring_topology_routes_point_to_point() {
        use dlrv_trace::CommTopology;
        let workload = generate_workload(&WorkloadConfig::with_topology(4, CommTopology::Ring, 6));
        let reg = registry_for(4);
        let report = run_simulation(&workload, &reg, &SimConfig::default(), |_| {
            NullMonitor::default()
        });
        let sends: usize = workload.traces.iter().map(|t| t.n_sends()).sum();
        assert!(sends > 0);
        // Every point-to-point send is exactly one program message and one receive.
        assert_eq!(report.program_messages, sends);
        for (i, events) in report.computation.events.iter().enumerate() {
            for e in events {
                match e.kind {
                    EventKind::Send { to, .. } => assert_eq!(to, (i + 1) % 4),
                    EventKind::Receive { from, .. } => assert_eq!(i, (from + 1) % 4),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn empty_workload_still_terminates_monitors() {
        let workload = Workload {
            config: WorkloadConfig {
                n_processes: 2,
                events_per_process: 0,
                ..WorkloadConfig::default()
            },
            traces: vec![Default::default(), Default::default()],
        };
        let reg = registry_for(2);
        let report = run_simulation(&workload, &reg, &SimConfig::default(), |_| {
            NullMonitor::default()
        });
        assert_eq!(report.program_events, 0);
        assert!(report.monitors.iter().all(|m| m.terminated));
    }
}
