//! A counting global allocator and the open–feed–finish round both footprint suites
//! (`session_footprint`, `fleet_footprint`) measure with.
//!
//! The allocator counts the whole process, so a binary that installs it
//! (`#[global_allocator] static ALLOCATOR: Counting = Counting;`) holds one `#[test]`
//! only: a second test running beside it would be counted too.

use dlrv::dlrv_distsim::MonitorBehavior;
use dlrv::dlrv_ltl::Assignment;
use dlrv::dlrv_monitor::{FeedSession, SessionVerdicts};
use dlrv::SimulatedSession;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, process-wide.
static LIVE: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc`/`realloc` above, i.e. by `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new_ptr
    }
}

/// Bytes allocated right now, process-wide.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// What may stay allocated after every session is gone: late growth of the thread's
/// scratch arena, whose pools are capped at 64 small buffers each (about 25 KB once
/// they are all full, which a warm-up round all but guarantees).
pub const ARENA_SLACK: usize = 8 * 1024;

/// Opens one session per input, all together, feeds them interleaved as a stream
/// would deliver them, then finishes and drops them all.  Returns the heap the live
/// sessions held just before the first `finish`, and what was still allocated after
/// the last drop — both relative to the level before the first open.
pub fn open_feed_finish<B: MonitorBehavior + SessionVerdicts>(
    inputs: &[SimulatedSession],
    open: impl Fn(Assignment) -> FeedSession<B>,
) -> (usize, usize) {
    let longest = inputs.iter().map(|s| s.events.len()).max().unwrap_or(0);
    let mut sessions: Vec<FeedSession<B>> = Vec::with_capacity(inputs.len());
    let before = live_bytes();

    sessions.extend(inputs.iter().map(|s| open(s.initial_state)));
    for i in 0..longest {
        for (session, input) in sessions.iter_mut().zip(inputs) {
            if let Some(event) = input.events.get(i) {
                session.feed_event(event);
            }
        }
    }
    let held = live_bytes() - before;

    for session in &mut sessions {
        session.finish();
    }
    sessions.clear();
    (held, live_bytes().saturating_sub(before))
}
