//! The interface between the execution substrate and monitor implementations.
//!
//! A *monitor behavior* is whatever sits next to a program process and reacts to its
//! local events: the paper's decentralized monitor, a fleet of them, or a no-op.  The
//! substrate (the discrete-event simulator, a feed session, a daemon) owns message
//! delivery; behaviors only see callbacks and a context through which they can send
//! messages to their peers.

use dlrv_ltl::ProcessId;
use dlrv_vclock::Event;

/// Callback interface implemented by monitors (and baselines) running on top of the
/// execution substrate.
pub trait MonitorBehavior {
    /// The monitor-to-monitor message type (the paper's tokens).
    type Message: Clone + Send + 'static;

    /// Called when the co-located program process produces an event (internal, send or
    /// receive).  The event carries the process's vector clock and new local state.
    ///
    /// The event is only lent: a monitor copies out what it keeps (the decentralized
    /// monitor, the event's clock and state into its flat history), so the substrate
    /// need not put events behind a shared allocation.
    fn on_local_event(&mut self, event: &Event, ctx: &mut MonitorContext<'_, Self::Message>);

    /// Called when a message from monitor `from` is delivered.
    fn on_monitor_message(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        ctx: &mut MonitorContext<'_, Self::Message>,
    );

    /// Called once when the co-located program process has terminated and no further
    /// program events (including receives) will be delivered to it.
    fn on_local_termination(&mut self, ctx: &mut MonitorContext<'_, Self::Message>);
}

/// Context handed to every [`MonitorBehavior`] callback.
///
/// It exposes the current (simulated or wall-clock) time and queues outgoing
/// monitor-to-monitor messages; the substrate delivers them with its configured
/// latency, preserving FIFO order per sender/receiver pair.
pub struct MonitorContext<'a, M> {
    /// The identity of the process this monitor is attached to.
    pub self_id: ProcessId,
    /// Number of processes in the distributed program.
    pub n_processes: usize,
    /// Current time in seconds.
    pub now: f64,
    pub(crate) outbox: &'a mut Vec<(ProcessId, M)>,
}

impl<'a, M> MonitorContext<'a, M> {
    /// Creates a context writing outgoing messages into `outbox`.
    ///
    /// Execution substrates (the simulator, or harnesses such as the monitor
    /// crate's replay driver and feed session) use this to invoke behaviors.
    pub fn new(
        self_id: ProcessId,
        n_processes: usize,
        now: f64,
        outbox: &'a mut Vec<(ProcessId, M)>,
    ) -> Self {
        MonitorContext {
            self_id,
            n_processes,
            now,
            outbox,
        }
    }

    /// Queues `msg` for delivery to the monitor of process `to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        debug_assert!(to < self.n_processes);
        debug_assert_ne!(to, self.self_id, "monitors do not message themselves");
        self.outbox.push((to, msg));
    }
}

/// A monitor that does nothing: used to measure the bare program execution and as a
/// trivial behavior in substrate tests.
#[derive(Debug, Default, Clone)]
pub struct NullMonitor {
    /// Number of local events observed.
    pub events_seen: usize,
    /// Whether the local process has terminated.
    pub terminated: bool,
}

impl MonitorBehavior for NullMonitor {
    type Message = ();

    fn on_local_event(&mut self, _event: &Event, _ctx: &mut MonitorContext<'_, ()>) {
        self.events_seen += 1;
    }

    fn on_monitor_message(
        &mut self,
        _from: ProcessId,
        _msg: (),
        _ctx: &mut MonitorContext<'_, ()>,
    ) {
    }

    fn on_local_termination(&mut self, _ctx: &mut MonitorContext<'_, ()>) {
        self.terminated = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_send_fills_the_outbox_in_order() {
        let mut outbox = Vec::new();
        let mut ctx: MonitorContext<'_, u32> = MonitorContext {
            self_id: 1,
            n_processes: 4,
            now: 0.0,
            outbox: &mut outbox,
        };
        ctx.send(0, 10);
        ctx.send(3, 7);
        assert_eq!(outbox, vec![(0, 10), (3, 7)]);
    }

    #[test]
    fn null_monitor_counts_events() {
        let mut m = NullMonitor::default();
        assert_eq!(m.events_seen, 0);
        assert!(!m.terminated);
        let mut outbox = Vec::new();
        let mut ctx = MonitorContext {
            self_id: 0,
            n_processes: 2,
            now: 1.0,
            outbox: &mut outbox,
        };
        m.on_local_termination(&mut ctx);
        assert!(m.terminated);
    }
}
