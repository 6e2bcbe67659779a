//! Bounded SPSC rings — every shard's one mailbox.
//!
//! On the streaming hot path there is exactly one producer (the pump thread)
//! per shard consumer, so a single-producer single-consumer ring suffices:
//! monotone head/tail counters on separate cache lines, one slot per in-flight
//! message, and `thread::park` / `unpark` for the rare full/empty edges.
//!
//! The ring is kept over a bounded `std::sync::mpsc::sync_channel` by
//! measurement: std's channel has been a port of crossbeam-channel since Rust
//! 1.67 and takes no whole-queue lock, but on the repository benchmark's
//! `stream-waves` the runtime pumped more events per second over rings than
//! over channels in ten of ten alternating pairs (docs/PERFORMANCE.md, "SPSC
//! shard rings", has the table).
//!
//! This crate forbids `unsafe`, so slots are `Mutex<Option<T>>` rather than
//! `UnsafeCell`s.  The head/tail discipline guarantees the producer and the
//! consumer never touch the *same* slot concurrently, so every slot lock is
//! uncontended — a plain compare-and-swap, no syscall, no shared-queue lock.
//! A producer-side mutex serializes the (unsupported but possible) case of
//! several threads pushing into one ring, keeping the type safe to share while
//! the single-producer fast path stays contention-free.
//!
//! Semantics the runtime relies on:
//!
//! * **Bounded + counted backpressure** — [`SpscRing::try_push`] fails on a
//!   full ring without blocking (the caller counts the stall), and
//!   [`SpscRing::push_blocking`] then parks until space frees up.
//! * **FIFO per ring** — pops observe pushes in order; a session's records
//!   stay ordered because a session maps to exactly one ring.
//! * **Drain** — [`SpscRing::close`] is end-of-stream, not abort: the consumer
//!   keeps popping until the ring is empty *and* closed, so nothing queued is
//!   ever dropped.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, Thread};
use std::time::Duration;

/// Pads a counter to its own cache line so the producer's tail writes never
/// invalidate the line the consumer's head lives on (false sharing).
#[repr(align(64))]
#[derive(Debug, Default)]
struct CacheLine<T>(T);

#[derive(Debug)]
struct Waiter {
    /// True while the thread is (about to be) parked; checked by the peer.
    waiting: AtomicBool,
    /// The parked thread's handle, for `unpark`.
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    fn new() -> Self {
        Waiter {
            waiting: AtomicBool::new(false),
            thread: Mutex::new(None),
        }
    }

    /// Registers the current thread as waiting.  The caller must re-check its
    /// wait condition *after* this (then park), so a peer that misses the flag
    /// can only do so while the condition is already satisfied.
    fn prepare(&self) {
        *self.thread.lock().expect("waiter mutex poisoned") = Some(thread::current());
        self.waiting.store(true, Ordering::SeqCst);
    }

    fn done(&self) {
        self.waiting.store(false, Ordering::SeqCst);
    }

    /// Wakes the registered thread if it declared itself waiting.
    fn wake(&self) {
        if self.waiting.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("waiter mutex poisoned").as_ref() {
                t.unpark();
            }
        }
    }
}

/// Outcome of a non-blocking pop attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum PopState {
    /// At least one item was popped.
    Items,
    /// Nothing buffered right now; the producer may still push.
    Empty,
    /// Nothing buffered and the ring is closed: end-of-stream.
    Closed,
}

/// A bounded single-producer single-consumer ring with park/unpark edges.
#[derive(Debug)]
pub struct SpscRing<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Next slot the consumer will pop (monotone; slot = head % capacity).
    head: CacheLine<AtomicUsize>,
    /// Next slot the producer will fill (monotone; slot = tail % capacity).
    tail: CacheLine<AtomicUsize>,
    closed: AtomicBool,
    /// Serializes producers; uncontended when the ring is used as true SPSC.
    producer: Mutex<()>,
    /// Parked consumer waiting for items.
    pop_waiter: Waiter,
    /// Parked producer waiting for space.
    push_waiter: Waiter,
}

/// How long a parked side sleeps before re-checking on its own; a safety net —
/// wakeups normally arrive via `unpark` well before this.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

impl<T> SpscRing<T> {
    /// A ring holding at most `capacity` in-flight items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        SpscRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: CacheLine(AtomicUsize::new(0)),
            tail: CacheLine(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            producer: Mutex::new(()),
            pop_waiter: Waiter::new(),
            push_waiter: Waiter::new(),
        }
    }

    /// Capacity the ring was built with.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of items currently buffered (a racy snapshot, exact when only
    /// the calling side is active).
    pub fn len(&self) -> usize {
        self.tail.0.load(Ordering::SeqCst) - self.head.0.load(Ordering::SeqCst)
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to push without blocking; returns the item back on a full
    /// ring so the caller can count the stall and fall back to
    /// [`push_blocking`](SpscRing::push_blocking).
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let _guard = self.producer.lock().expect("producer mutex poisoned");
        self.push_locked(value)
    }

    fn push_locked(&self, value: T) -> Result<(), T> {
        debug_assert!(
            !self.closed.load(Ordering::SeqCst),
            "push into a closed ring"
        );
        let tail = self.tail.0.load(Ordering::SeqCst);
        let head = self.head.0.load(Ordering::SeqCst);
        if tail - head == self.slots.len() {
            return Err(value);
        }
        let slot = tail % self.slots.len();
        let prev = self.slots[slot]
            .lock()
            .expect("slot mutex poisoned")
            .replace(value);
        debug_assert!(prev.is_none(), "producer lapped the consumer");
        self.tail.0.store(tail + 1, Ordering::SeqCst);
        self.pop_waiter.wake();
        Ok(())
    }

    /// Pushes, parking until space is available.  The caller has already
    /// counted this as a backpressure stall.
    pub fn push_blocking(&self, value: T) {
        let _guard = self.producer.lock().expect("producer mutex poisoned");
        let mut value = value;
        loop {
            match self.push_locked(value) {
                Ok(()) => return,
                Err(back) => value = back,
            }
            self.push_waiter.prepare();
            // Re-check after declaring ourselves waiting: if the consumer
            // freed a slot in between, it either sees the flag and unparks us,
            // or space is already visible here.
            let tail = self.tail.0.load(Ordering::SeqCst);
            let head = self.head.0.load(Ordering::SeqCst);
            if tail - head < self.slots.len() {
                self.push_waiter.done();
                continue;
            }
            thread::park_timeout(PARK_TIMEOUT);
            self.push_waiter.done();
        }
    }

    /// Pops up to `max` items into `out` without blocking.
    pub fn try_pop_batch(&self, out: &mut Vec<T>, max: usize) -> PopState {
        let head = self.head.0.load(Ordering::SeqCst);
        let tail = self.tail.0.load(Ordering::SeqCst);
        let avail = (tail - head).min(max);
        if avail == 0 {
            return if self.closed.load(Ordering::SeqCst) && self.is_empty() {
                PopState::Closed
            } else {
                PopState::Empty
            };
        }
        for i in 0..avail {
            let slot = (head + i) % self.slots.len();
            let value = self.slots[slot]
                .lock()
                .expect("slot mutex poisoned")
                .take()
                .expect("consumer raced ahead of the producer");
            out.push(value);
        }
        self.head.0.store(head + avail, Ordering::SeqCst);
        self.push_waiter.wake();
        PopState::Items
    }

    /// Pops up to `max` items, parking while the ring is empty and open.
    /// Returns [`PopState::Closed`] only after every pushed item was popped.
    pub fn pop_batch_blocking(&self, out: &mut Vec<T>, max: usize) -> PopState {
        loop {
            match self.try_pop_batch(out, max) {
                PopState::Empty => {}
                done => return done,
            }
            self.pop_waiter.prepare();
            if !self.is_empty() || self.closed.load(Ordering::SeqCst) {
                self.pop_waiter.done();
                continue;
            }
            thread::park_timeout(PARK_TIMEOUT);
            self.pop_waiter.done();
        }
    }

    /// Marks end-of-stream: no further pushes will arrive.  Items already
    /// buffered remain poppable — close is a drain marker, not an abort.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.pop_waiter.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let ring = SpscRing::new(8);
        for i in 0..5 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.len(), 5);
        let mut out = Vec::new();
        assert_eq!(ring.try_pop_batch(&mut out, 3), PopState::Items);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(ring.try_pop_batch(&mut out, 10), PopState::Items);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.try_pop_batch(&mut out, 10), PopState::Empty);
    }

    #[test]
    fn full_ring_rejects_then_accepts_after_pop() {
        let ring = SpscRing::new(2);
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        assert_eq!(ring.try_push(3), Err(3));
        let mut out = Vec::new();
        ring.try_pop_batch(&mut out, 1);
        ring.try_push(3).unwrap();
        ring.try_pop_batch(&mut out, 10);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let ring = SpscRing::new(4);
        ring.try_push("a").unwrap();
        ring.close();
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch_blocking(&mut out, 10), PopState::Items);
        assert_eq!(out, vec!["a"]);
        assert_eq!(ring.pop_batch_blocking(&mut out, 10), PopState::Closed);
    }

    #[test]
    fn blocking_push_and_pop_meet_across_threads() {
        let ring = Arc::new(SpscRing::new(2));
        let n = 10_000u64;
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut batch = Vec::new();
                loop {
                    batch.clear();
                    match ring.pop_batch_blocking(&mut batch, 16) {
                        PopState::Items => got.extend(batch.iter().copied()),
                        PopState::Closed => return got,
                        PopState::Empty => unreachable!("blocking pop never returns Empty"),
                    }
                }
            })
        };
        for i in 0..n {
            if let Err(v) = ring.try_push(i) {
                ring.push_blocking(v);
            }
        }
        ring.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "FIFO across the full run");
    }
}
