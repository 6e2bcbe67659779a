//! Stress tests of the SPSC shard rings under adversarial scheduling.
//!
//! The streaming runtime's correctness rests on three ring guarantees that unit
//! tests only touch at toy scale: nothing pushed is ever lost (close is a drain
//! marker, not an abort), a session's records are never reordered (a session
//! maps to exactly one ring, and rings are FIFO), and backpressure stalls are
//! *counted*, never silently absorbed.  These tests hammer the rings with many
//! threads, tiny capacities (so the full/empty park paths fire constantly) and
//! seeded pseudo-random interleavings, then audit the complete delivery order.

use dlrv_stream::{PopState, SpscRing};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// SplitMix64 step: expands one seed into a reproducible pseudo-random sequence.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    *seed >> 17
}

/// Several producer threads share one ring (the runtime runs true SPSC, but the
/// type must stay safe under the unsupported many-producer shape: the internal
/// producer mutex serializes them).  Every item is tagged `(producer, seq)`;
/// after a full drain each producer's sequence must arrive complete and in
/// order, with not a single item lost — whatever the scheduler did.
#[test]
fn many_producers_one_consumer_lose_nothing_and_keep_per_producer_fifo() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 5_000;
    // Capacity far below the item count: the full-ring park path runs hot.
    let ring = Arc::new(SpscRing::new(8));
    let stalls = Arc::new(AtomicUsize::new(0));

    let consumer = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || {
            let mut got: Vec<(usize, usize)> = Vec::new();
            let mut batch = Vec::new();
            let mut s = 0xC0FFEEu64;
            loop {
                batch.clear();
                // Random batch sizes sweep the partial-drain edge cases.
                let max = 1 + (mix(&mut s) % 16) as usize;
                match ring.pop_batch_blocking(&mut batch, max) {
                    PopState::Items => got.extend(batch.iter().copied()),
                    PopState::Closed => return got,
                    PopState::Empty => unreachable!("blocking pop never returns Empty"),
                }
            }
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ring = Arc::clone(&ring);
            let stalls = Arc::clone(&stalls);
            thread::spawn(move || {
                for seq in 0..PER_PRODUCER {
                    // The runtime's exact discipline: try first, count the
                    // stall, then park until space frees up.
                    if let Err(v) = ring.try_push((p, seq)) {
                        stalls.fetch_add(1, Ordering::Relaxed);
                        ring.push_blocking(v);
                    }
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer thread");
    }
    ring.close();
    let got = consumer.join().expect("consumer thread");

    assert_eq!(
        got.len(),
        PRODUCERS * PER_PRODUCER,
        "every push must be popped"
    );
    let mut next = [0usize; PRODUCERS];
    for (p, seq) in got {
        assert_eq!(
            seq, next[p],
            "producer {p}: out-of-order or duplicated item"
        );
        next[p] += 1;
    }
    assert!(next.iter().all(|&n| n == PER_PRODUCER));
    // Capacity 8 against 20k items cannot avoid stalling; the counter must have
    // seen it (backpressure is counted, never silent).
    assert!(
        stalls.load(Ordering::Relaxed) > 0,
        "expected backpressure stalls"
    );
}

/// The runtime's actual shape: one pump thread feeds S shard rings, sessions
/// are pinned to shards (`session % S`), and each shard's consumer drains with
/// random batch sizes and random micro-naps.  Across many seeded interleavings,
/// every session's records must arrive complete and in emission order, and the
/// stall counter observed by the pump must be monotone.
#[test]
fn sharded_rings_preserve_session_fifo_under_random_interleavings() {
    const SHARDS: usize = 4;
    const SESSIONS: usize = 32;
    const RECORDS_PER_SESSION: usize = 400;

    for trial_seed in [1u64, 7, 42] {
        let rings: Vec<Arc<SpscRing<(usize, usize)>>> =
            (0..SHARDS).map(|_| Arc::new(SpscRing::new(16))).collect();
        let consumers: Vec<_> = rings
            .iter()
            .enumerate()
            .map(|(shard, ring)| {
                let ring = Arc::clone(ring);
                thread::spawn(move || {
                    let mut got: Vec<(usize, usize)> = Vec::new();
                    let mut batch = Vec::new();
                    let mut s = trial_seed ^ (shard as u64).wrapping_mul(0x9E37);
                    loop {
                        batch.clear();
                        let max = 1 + (mix(&mut s) % 8) as usize;
                        match ring.pop_batch_blocking(&mut batch, max) {
                            PopState::Items => got.extend(batch.iter().copied()),
                            PopState::Closed => return got,
                            PopState::Empty => unreachable!(),
                        }
                        // Occasional micro-naps force the producer into the
                        // full-ring path at unpredictable points.
                        if mix(&mut s).is_multiple_of(13) {
                            thread::sleep(Duration::from_micros(50));
                        }
                    }
                })
            })
            .collect();

        // Single pump: a seeded round-robin-ish interleaving of all sessions,
        // exactly one ring per session, stalls counted and snapshotted.
        let mut next_seq = [0usize; SESSIONS];
        let mut remaining: Vec<usize> = (0..SESSIONS).collect();
        let mut s = trial_seed;
        let mut stalls = 0usize;
        let mut last_snapshot = 0usize;
        while !remaining.is_empty() {
            let pick = (mix(&mut s) % remaining.len() as u64) as usize;
            let session = remaining[pick];
            let seq = next_seq[session];
            next_seq[session] += 1;
            if next_seq[session] == RECORDS_PER_SESSION {
                remaining.swap_remove(pick);
            }
            let ring = &rings[session % SHARDS];
            if let Err(v) = ring.try_push((session, seq)) {
                stalls += 1;
                ring.push_blocking(v);
            }
            // The stall count a metrics scraper would read mid-run must never
            // step backwards.
            assert!(stalls >= last_snapshot, "stall counter went backwards");
            last_snapshot = stalls;
        }
        for ring in &rings {
            ring.close();
        }

        let mut next = [0usize; SESSIONS];
        for (shard, consumer) in consumers.into_iter().enumerate() {
            let got = consumer.join().expect("consumer thread");
            for (session, seq) in got {
                assert_eq!(
                    session % SHARDS,
                    shard,
                    "seed {trial_seed}: session {session} leaked to shard {shard}"
                );
                assert_eq!(
                    seq, next[session],
                    "seed {trial_seed}: session {session} reordered or lost a record"
                );
                next[session] += 1;
            }
        }
        assert!(
            next.iter().all(|&n| n == RECORDS_PER_SESSION),
            "seed {trial_seed}: some session lost records: {next:?}"
        );
    }
}
