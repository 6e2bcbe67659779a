//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace vendors the
//! small API subset the workload generator needs: [`rngs::StdRng`] seeded with
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] extension methods `gen_range` /
//! `gen_bool`.  The generator is xoshiro256++ (public domain reference algorithm by
//! Blackman & Vigna) seeded through SplitMix64, which gives deterministic,
//! statistically solid streams — the properties the experiments rely on.  Streams are
//! NOT bit-compatible with the real `rand::StdRng` (ChaCha12); nothing in this
//! repository depends on a specific stream, only on per-seed determinism.

use std::ops::{Range, RangeInclusive};

/// Low-level uniform-bits source.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding entry points (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates an RNG from a `u64` seed, expanding it to full state via SplitMix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be uniformly sampled from a range (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Converts 64 random bits into a uniform `f64` in `[0, 1)`.
#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 random mantissa bits scaled by 2^-53: every value in [0, 1) step 2^-53.
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 sample range");
        let u = unit_f64(rng);
        let v = self.start + u * (self.end - self.start);
        // Floating-point rounding can land exactly on `end`; nudge back inside.
        if v >= self.end {
            self.end - (self.end - self.start) * f64::EPSILON
        } else {
            v
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 sample range");
        let u = unit_f64(rng);
        (lo + u * (hi - lo)).clamp(lo, hi)
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty integer sample range");
                let span = (self.end - self.start) as u64;
                // Modulo bias is < span/2^64 — irrelevant for experiment workloads.
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer sample range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u64, usize, u32, u16, u8);

/// User-facing extension methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws one uniform sample from `range`.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        unit_f64(self) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for `rand::rngs::StdRng`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let s = [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&x));
            let y: f64 = rng.gen_range(2.0..=3.0);
            assert!((2.0..=3.0).contains(&y));
            let k: usize = rng.gen_range(5usize..9);
            assert!((5..9).contains(&k));
            let j: u64 = rng.gen_range(1u64..=6);
            assert!((1..=6).contains(&j));
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn unit_samples_are_uniformish() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
