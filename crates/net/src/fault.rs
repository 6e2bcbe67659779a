//! The fault-injection shim: deterministic drop / delay / duplicate / reorder on a
//! token channel.
//!
//! The paper assumes reliable FIFO channels between monitors.  The shim wraps one
//! directed daemon-to-daemon channel and relaxes exactly one or more of those
//! guarantees, so the `deploy` fault matrix can pin where soundness survives:
//!
//! * `drop=p` — each frame vanishes with probability `p` (reliability broken),
//! * `delay=ms` — every surviving frame is released `ms` milliseconds later
//!   (timing relaxed; ordering kept),
//! * `dup=p` — each frame is sent twice with probability `p` (at-most-once
//!   delivery broken),
//! * `reorder=p` — a frame is held back with probability `p` and released *after*
//!   the next frame on the same channel (FIFO broken by one-slot swaps).
//!
//! All decisions come from a SplitMix64 generator seeded per channel from the
//! spec's seed, so a run's fault pattern is a pure function of the channel's send
//! sequence — never of wall-clock time.  A held frame that sees no successor is
//! released unswapped when the daemon answers a status poll (the quiescence
//! barrier would otherwise never terminate); only actual swaps count as
//! `reordered` in [`FaultStats`].

use dlrv_json::{object, Json, JsonError};
use std::fmt;

/// Parsed `--fault drop=p,delay=ms,dup=p,reorder=p[,seed=n]` specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-frame drop probability in `[0, 1]`.
    pub drop: f64,
    /// Fixed extra latency per frame, milliseconds.
    pub delay_ms: f64,
    /// Per-frame duplication probability in `[0, 1]`.
    pub dup: f64,
    /// Per-frame hold-back (one-slot reorder) probability in `[0, 1]`.
    pub reorder: f64,
    /// Base seed; each channel derives its own stream from it.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            drop: 0.0,
            delay_ms: 0.0,
            dup: 0.0,
            reorder: 0.0,
            seed: 1,
        }
    }
}

impl FaultSpec {
    /// Parses a comma-separated `key=value` list; unknown keys and out-of-range
    /// probabilities are rejected.  The empty string is the no-fault spec.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for part in text.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{part}` must be key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let prob = |what: &str| -> Result<f64, String> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("{what} `{value}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{what} `{value}` must be within [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "drop" => spec.drop = prob("drop probability")?,
                "dup" => spec.dup = prob("dup probability")?,
                "reorder" => spec.reorder = prob("reorder probability")?,
                "delay" => {
                    let ms: f64 = value
                        .parse()
                        .map_err(|_| format!("delay `{value}` is not a number"))?;
                    if !(ms >= 0.0 && ms.is_finite()) {
                        return Err(format!("delay `{value}` must be a finite non-negative ms"));
                    }
                    spec.delay_ms = ms;
                }
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("seed `{value}` is not an integer"))?;
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(spec)
    }

    /// True when the spec injects nothing (the identity shim).
    pub fn is_noop(&self) -> bool {
        self.drop == 0.0 && self.delay_ms == 0.0 && self.dup == 0.0 && self.reorder == 0.0
    }

    /// Serializes the spec for the results schema and the daemon handshake.
    pub fn to_json(&self) -> Json {
        object([
            ("drop", Json::from(self.drop)),
            ("delay_ms", Json::from(self.delay_ms)),
            ("dup", Json::from(self.dup)),
            ("reorder", Json::from(self.reorder)),
            ("seed", Json::from(self.seed)),
        ])
    }

    /// Parses the spec back from its [`to_json`](Self::to_json) form.
    pub fn from_json(v: &Json) -> Result<FaultSpec, JsonError> {
        Ok(FaultSpec {
            drop: v.get("drop")?.as_f64()?,
            delay_ms: v.get("delay_ms")?.as_f64()?,
            dup: v.get("dup")?.as_f64()?,
            reorder: v.get("reorder")?.as_f64()?,
            seed: v.get("seed")?.as_u64()?,
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drop={},delay={},dup={},reorder={},seed={}",
            self.drop, self.delay_ms, self.dup, self.reorder, self.seed
        )
    }
}

/// What the shim did to a channel's traffic so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames that reached the wire (duplicates counted individually).
    pub passed: u64,
    /// Frames silently discarded.
    pub dropped: u64,
    /// Frames sent twice (counted once per duplicated original).
    pub duplicated: u64,
    /// Actual one-slot swaps (a held frame overtaken by its successor).
    pub reordered: u64,
}

impl FaultStats {
    /// Component-wise sum.
    pub fn merge(&mut self, other: &FaultStats) {
        self.passed += other.passed;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
    }

    /// Serializes the counters.
    pub fn to_json(&self) -> Json {
        object([
            ("passed", Json::from(self.passed)),
            ("dropped", Json::from(self.dropped)),
            ("duplicated", Json::from(self.duplicated)),
            ("reordered", Json::from(self.reordered)),
        ])
    }

    /// Parses the counters back.
    pub fn from_json(v: &Json) -> Result<FaultStats, JsonError> {
        Ok(FaultStats {
            passed: v.get("passed")?.as_u64()?,
            dropped: v.get("dropped")?.as_u64()?,
            duplicated: v.get("duplicated")?.as_u64()?,
            reordered: v.get("reordered")?.as_u64()?,
        })
    }
}

/// SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-channel fault injector: feed it outgoing frames, get back the frames
/// that should actually hit the wire (in wire order).
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: u64,
    hold: Option<Vec<u8>>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates the injector for one directed channel; `channel_id` (e.g.
    /// `sender * n + receiver`) decorrelates channels sharing a spec seed.
    pub fn new(spec: FaultSpec, channel_id: u64) -> Self {
        FaultInjector {
            spec,
            rng: spec
                .seed
                .wrapping_mul(0x100_0193)
                .wrapping_add(channel_id)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                | 1,
            hold: None,
            stats: FaultStats::default(),
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            // Still consume a draw so `drop=1.0` and `drop=0.999…` walk the same
            // decision sequence.
            let _ = splitmix64(&mut self.rng);
            return true;
        }
        let draw = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        draw < p
    }

    /// Admits one outgoing frame and returns the frames to put on the wire, in
    /// order.  May return zero frames (dropped, or held for reordering), one, or
    /// several (duplicates and/or a released held frame).
    pub fn on_send(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        if self.roll(self.spec.drop) {
            self.stats.dropped += 1;
        } else {
            let copies = if self.roll(self.spec.dup) {
                self.stats.duplicated += 1;
                2
            } else {
                1
            };
            for _copy in 0..copies {
                let f = frame.clone();
                if self.hold.is_none() && self.roll(self.spec.reorder) {
                    self.hold = Some(f);
                } else {
                    out.push(f);
                }
            }
        }
        // Anything emitted overtakes a frame held from an earlier send: release it
        // after the newcomers — that is the one-slot swap.
        if !out.is_empty() {
            if let Some(held) = self.hold.take() {
                out.push(held);
                self.stats.reordered += 1;
            }
        }
        self.stats.passed += out.len() as u64;
        out
    }

    /// Releases a held frame without a swap (used at barrier/finish time so the
    /// channel drains).  Counts as passed, not as reordered.
    pub fn flush_hold(&mut self) -> Option<Vec<u8>> {
        let held = self.hold.take();
        if held.is_some() {
            self.stats.passed += 1;
        }
        held
    }

    /// Number of frames currently held back (0 or 1).
    pub fn held(&self) -> usize {
        usize::from(self.hold.is_some())
    }

    /// The channel's extra latency, if any.
    pub fn delay_ms(&self) -> f64 {
        self.spec.delay_ms
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(i: u8) -> Vec<u8> {
        vec![0, 0, 0, 1, i]
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let spec = FaultSpec::parse("drop=0.25,delay=5,dup=0.5,reorder=0.1,seed=9").expect("parse");
        assert_eq!(
            spec,
            FaultSpec {
                drop: 0.25,
                delay_ms: 5.0,
                dup: 0.5,
                reorder: 0.1,
                seed: 9
            }
        );
        let back = FaultSpec::from_json(&spec.to_json()).expect("json");
        assert_eq!(back, spec);
        assert_eq!(FaultSpec::parse("").expect("empty"), FaultSpec::default());
        assert!(FaultSpec::default().is_noop());
        assert!(!spec.is_noop());
        assert!(FaultSpec::parse("drop=2").is_err());
        assert!(FaultSpec::parse("delay=-1").is_err());
        assert!(FaultSpec::parse("jitter=3").is_err());
        assert!(FaultSpec::parse("drop").is_err());
        // Display form parses back to the same spec.
        assert_eq!(FaultSpec::parse(&spec.to_string()).expect("redisplay"), spec);
    }

    #[test]
    fn noop_injector_is_the_identity() {
        let mut inj = FaultInjector::new(FaultSpec::default(), 3);
        for i in 0..20 {
            assert_eq!(inj.on_send(frame(i)), vec![frame(i)]);
        }
        assert_eq!(
            inj.stats(),
            FaultStats {
                passed: 20,
                ..FaultStats::default()
            }
        );
        assert_eq!(inj.flush_hold(), None);
    }

    #[test]
    fn drop_one_discards_everything() {
        let spec = FaultSpec::parse("drop=1").expect("parse");
        let mut inj = FaultInjector::new(spec, 0);
        for i in 0..10 {
            assert!(inj.on_send(frame(i)).is_empty());
        }
        assert_eq!(inj.stats().dropped, 10);
        assert_eq!(inj.stats().passed, 0);
    }

    #[test]
    fn dup_one_doubles_everything() {
        let spec = FaultSpec::parse("dup=1").expect("parse");
        let mut inj = FaultInjector::new(spec, 0);
        let out = inj.on_send(frame(7));
        assert_eq!(out, vec![frame(7), frame(7)]);
        assert_eq!(inj.stats().duplicated, 1);
        assert_eq!(inj.stats().passed, 2);
    }

    #[test]
    fn reorder_swaps_with_the_next_frame() {
        // reorder=1: the first frame is held, the second send releases it swapped;
        // the second frame itself cannot be held (one-slot shim).
        let spec = FaultSpec::parse("reorder=1").expect("parse");
        let mut inj = FaultInjector::new(spec, 0);
        assert!(inj.on_send(frame(1)).is_empty());
        assert_eq!(inj.held(), 1);
        let out = inj.on_send(frame(2));
        assert_eq!(out, vec![frame(2), frame(1)], "successor overtakes held frame");
        assert_eq!(inj.stats().reordered, 1);
        // A lone trailing frame is held again and must drain via flush_hold.
        assert!(inj.on_send(frame(3)).is_empty());
        assert_eq!(inj.flush_hold(), Some(frame(3)));
        assert_eq!(inj.stats().reordered, 1, "flush is not a swap");
        assert_eq!(inj.stats().passed, 3);
    }

    #[test]
    fn decisions_are_deterministic_per_channel_seed() {
        let spec = FaultSpec::parse("drop=0.3,dup=0.3,reorder=0.3,seed=42").expect("parse");
        let run = |channel| {
            let mut inj = FaultInjector::new(spec, channel);
            let mut wire = Vec::new();
            for i in 0..100 {
                wire.extend(inj.on_send(frame(i)));
            }
            wire.extend(inj.flush_hold());
            (wire, inj.stats())
        };
        let (wire_a, stats_a) = run(0);
        let (wire_b, stats_b) = run(0);
        assert_eq!(wire_a, wire_b, "same channel seed, same fault pattern");
        assert_eq!(stats_a, stats_b);
        let (wire_c, _) = run(1);
        assert_ne!(wire_a, wire_c, "channels must decorrelate");
        // With all three faults at 0.3 every counter should have fired over 100 frames.
        assert!(stats_a.dropped > 0 && stats_a.duplicated > 0 && stats_a.reordered > 0);
    }

    #[test]
    fn merged_stats_accumulate() {
        let mut total = FaultStats::default();
        total.merge(&FaultStats {
            passed: 3,
            dropped: 1,
            duplicated: 2,
            reordered: 1,
        });
        total.merge(&FaultStats {
            passed: 4,
            ..FaultStats::default()
        });
        assert_eq!(total.passed, 7);
        assert_eq!(total.dropped, 1);
        let back = FaultStats::from_json(&total.to_json()).expect("json");
        assert_eq!(back, total);
    }
}
