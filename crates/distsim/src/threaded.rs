//! A multi-threaded runtime: one OS thread per process + monitor pair, communicating
//! over `std::sync::mpsc` channels.
//!
//! The discrete-event simulator ([`crate::engine`]) is the primary, deterministic
//! substrate; this runtime demonstrates the same monitor code under genuine OS-level
//! asynchrony (threads, real sleeps, channel delivery order), standing in for the
//! paper's network of iOS devices.  Wait times from the workload are scaled by
//! [`ThreadedConfig::time_scale`] so experiments finish quickly.

use crate::behavior::{MonitorBehavior, MonitorContext};
use dlrv_ltl::{Assignment, AtomLayout, AtomRegistry, ProcessId};
use dlrv_trace::{TraceAction, Workload};
use dlrv_vclock::{Computation, Event, EventKind, VectorClock};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Configuration of the threaded runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedConfig {
    /// Multiplier applied to workload wait times (e.g. `0.001` turns seconds into
    /// milliseconds).
    pub time_scale: f64,
    /// How long to keep monitors alive after the program has quiesced, so in-flight
    /// tokens can be processed (wall-clock seconds).
    pub grace_period: f64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            time_scale: 0.001,
            grace_period: 0.2,
        }
    }
}

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedReport<B> {
    /// The recorded computation (merged from all process threads).
    pub computation: Computation,
    /// Final monitor states.
    pub monitors: Vec<B>,
    /// Total number of monitor messages sent.
    pub monitor_messages: usize,
}

enum ThreadMsg<M> {
    Program {
        from: ProcessId,
        vc: VectorClock,
        msg_id: u64,
    },
    Monitor {
        from: ProcessId,
        msg: M,
    },
    Shutdown,
}

/// Runs `workload` with one thread per process, attaching a monitor built by
/// `make_monitor` to each.
pub fn run_threaded<B>(
    workload: &Workload,
    registry: &AtomRegistry,
    config: &ThreadedConfig,
    make_monitor: impl Fn(ProcessId) -> B + Sync,
) -> ThreadedReport<B>
where
    B: MonitorBehavior + Send,
    B::Message: Send,
{
    let n = workload.config.n_processes;
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n)
        .map(|_| mpsc::channel::<ThreadMsg<B::Message>>())
        .unzip();

    let layout = AtomLayout::from_registry(registry, n);

    let start = Instant::now();
    let results: Vec<(B, Vec<Event>, Assignment, usize)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, receiver) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            let trace = &workload.traces[i];
            let make_monitor = &make_monitor;
            let layout = &layout;
            handles.push(scope.spawn(move || {
                let mut monitor = make_monitor(i);
                let mut vc = VectorClock::zero(n);
                let mut state = Assignment::ALL_FALSE;
                layout.apply_channels(i, trace.initial.0, trace.initial.1, &mut state);
                let initial_state = state;
                let mut events: Vec<Event> = Vec::new();
                let mut outbox: Vec<(ProcessId, B::Message)> = Vec::new();
                let mut sent = 0usize;
                let mut msg_counter = 0u64;

                let drain_outbox =
                    |outbox: &mut Vec<(ProcessId, B::Message)>, sent: &mut usize| {
                        for (to, msg) in outbox.drain(..) {
                            *sent += 1;
                            let _ = senders[to].send(ThreadMsg::Monitor { from: i, msg });
                        }
                    };

                let handle_msg = |msg: ThreadMsg<B::Message>,
                                      monitor: &mut B,
                                      vc: &mut VectorClock,
                                      state: &Assignment,
                                      events: &mut Vec<Event>,
                                      outbox: &mut Vec<(ProcessId, B::Message)>,
                                      sent: &mut usize|
                 -> bool {
                    let now = start.elapsed().as_secs_f64();
                    match msg {
                        ThreadMsg::Program { from, vc: sender_vc, msg_id } => {
                            vc.increment(i);
                            vc.merge(&sender_vc);
                            let event = Event {
                                process: i,
                                kind: EventKind::Receive { from, msg_id },
                                sn: vc.get(i),
                                vc: vc.clone(),
                                state: *state,
                                time: now,
                            };
                            let mut ctx = MonitorContext {
                                self_id: i,
                                n_processes: n,
                                now,
                                outbox,
                            };
                            monitor.on_local_event(&event, &mut ctx);
                            events.push(event);
                            drain_outbox(outbox, sent);
                            false
                        }
                        ThreadMsg::Monitor { from, msg } => {
                            let mut ctx = MonitorContext {
                                self_id: i,
                                n_processes: n,
                                now,
                                outbox,
                            };
                            monitor.on_monitor_message(from, msg, &mut ctx);
                            drain_outbox(outbox, sent);
                            false
                        }
                        ThreadMsg::Shutdown => true,
                    }
                };

                // Phase 1: execute the trace, handling incoming messages while waiting.
                for entry in &trace.entries {
                    let deadline =
                        Instant::now() + Duration::from_secs_f64(entry.wait * config.time_scale);
                    while Instant::now() < deadline {
                        let timeout = deadline - Instant::now();
                        match receiver.recv_timeout(timeout) {
                            Ok(msg) => {
                                // Shutdown never arrives before the program finished.
                                let _ = handle_msg(
                                    msg, &mut monitor, &mut vc, &state, &mut events,
                                    &mut outbox, &mut sent,
                                );
                            }
                            Err(_) => break,
                        }
                    }
                    let now = start.elapsed().as_secs_f64();
                    vc.increment(i);
                    let event = match entry.action {
                        TraceAction::SetProps { p, q } => {
                            layout.apply_channels(i, p, q, &mut state);
                            Event {
                                process: i,
                                kind: EventKind::Internal,
                                sn: vc.get(i),
                                vc: vc.clone(),
                                state,
                                time: now,
                            }
                        }
                        TraceAction::Broadcast => {
                            msg_counter += 1;
                            let msg_id = (i as u64) << 32 | msg_counter;
                            for (to, sender) in senders.iter().enumerate() {
                                if to != i {
                                    let _ = sender.send(ThreadMsg::Program {
                                        from: i,
                                        vc: {
                                            let mut v = vc.clone();
                                            v.set(i, v.get(i));
                                            v
                                        },
                                        msg_id,
                                    });
                                }
                            }
                            Event {
                                process: i,
                                kind: EventKind::Broadcast { msg_id },
                                sn: vc.get(i),
                                vc: vc.clone(),
                                state,
                                time: now,
                            }
                        }
                        TraceAction::Send { to } => {
                            assert!(to < n && to != i, "send target must be a peer");
                            msg_counter += 1;
                            let msg_id = (i as u64) << 32 | msg_counter;
                            let _ = senders[to].send(ThreadMsg::Program {
                                from: i,
                                vc: vc.clone(),
                                msg_id,
                            });
                            Event {
                                process: i,
                                kind: EventKind::Send { to, msg_id },
                                sn: vc.get(i),
                                vc: vc.clone(),
                                state,
                                time: now,
                            }
                        }
                    };
                    let mut ctx = MonitorContext {
                        self_id: i,
                        n_processes: n,
                        now,
                        outbox: &mut outbox,
                    };
                    monitor.on_local_event(&event, &mut ctx);
                    events.push(event);
                    drain_outbox(&mut outbox, &mut sent);
                }

                // Phase 2: program finished; keep serving messages until shutdown.
                let mut terminated_notified = false;
                loop {
                    match receiver.recv_timeout(Duration::from_millis(10)) {
                        Ok(msg) => {
                            if handle_msg(
                                msg, &mut monitor, &mut vc, &state, &mut events, &mut outbox,
                                &mut sent,
                            ) {
                                break;
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if !terminated_notified {
                                terminated_notified = true;
                                let now = start.elapsed().as_secs_f64();
                                let mut ctx = MonitorContext {
                                    self_id: i,
                                    n_processes: n,
                                    now,
                                    outbox: &mut outbox,
                                };
                                monitor.on_local_termination(&mut ctx);
                                drain_outbox(&mut outbox, &mut sent);
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                (monitor, events, initial_state, sent)
            }));
        }

        // Main thread: wait for the grace period after the longest trace, then shut
        // everything down.
        let max_duration: f64 = workload
            .traces
            .iter()
            .map(|t| t.duration() * config.time_scale)
            .fold(0.0, f64::max);
        std::thread::sleep(Duration::from_secs_f64(max_duration + config.grace_period));
        for s in &senders {
            let _ = s.send(ThreadMsg::Shutdown);
        }
        handles.into_iter().map(|h| h.join().expect("process thread panicked")).collect()
    });

    let mut computation = Computation::new(results.iter().map(|(_, _, init, _)| *init).collect());
    let mut monitors = Vec::with_capacity(n);
    let mut monitor_messages = 0usize;
    for (i, (monitor, events, _, sent)) in results.into_iter().enumerate() {
        debug_assert!(events.iter().all(|e| e.process == i));
        for e in events {
            computation.events[i].push(e);
        }
        monitors.push(monitor);
        monitor_messages += sent;
    }

    ThreadedReport {
        computation,
        monitors,
        monitor_messages,
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
    fn threaded_run_records_all_local_events() {
        let cfg = WorkloadConfig {
            n_processes: 3,
            events_per_process: 5,
            ..WorkloadConfig::default()
        };
        let workload = generate_workload(&cfg);
        let reg = registry_for(3);
        let report = run_threaded(&workload, &reg, &ThreadedConfig::default(), |_| {
            NullMonitor::default()
        });
        // Every process executed all its trace entries (plus possibly receives).
        for (i, trace) in workload.traces.iter().enumerate() {
            let locals = report.computation.events[i]
                .iter()
                .filter(|e| !matches!(e.kind, EventKind::Receive { .. }))
                .count();
            assert_eq!(locals, trace.len());
        }
        assert!(report.monitors.iter().all(|m| m.terminated));
    }

    #[test]
    fn threaded_clocks_are_monotone() {
        let cfg = WorkloadConfig {
            n_processes: 2,
            events_per_process: 6,
            ..WorkloadConfig::default()
        };
        let workload = generate_workload(&cfg);
        let reg = registry_for(2);
        let report = run_threaded(&workload, &reg, &ThreadedConfig::default(), |_| {
            NullMonitor::default()
        });
        for events in &report.computation.events {
            for w in events.windows(2) {
                assert!(w[0].vc.leq(&w[1].vc), "clocks must be monotone per process");
            }
        }
    }
}
