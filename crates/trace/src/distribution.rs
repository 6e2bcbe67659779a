//! Normal-distribution sampling via the Box–Muller transform.
//!
//! The paper draws event and communication wait times from normal distributions with
//! configurable mean and standard deviation (§5.2).  To stay within the allowed
//! dependency set (no `rand_distr`), sampling is implemented directly on top of a
//! `rand` RNG.

use rand::Rng;

/// A sampler for a normal distribution `N(mean, sigma²)`, truncated below at `min`.
///
/// Wait times must be non-negative (a negative wait makes no sense for a trace), so the
/// sampler clamps at `min` — the paper's traces implicitly do the same since a device
/// cannot wait a negative amount of time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalSampler {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation.
    pub sigma: f64,
    /// Lower clamp applied to every sample.
    pub min: f64,
    /// Cached second Box–Muller variate.
    spare: Option<f64>,
}

impl NormalSampler {
    /// Creates a sampler with the given mean and standard deviation, clamped at 0.
    pub fn new(mean: f64, sigma: f64) -> Self {
        NormalSampler {
            mean,
            sigma,
            min: 0.0,
            spare: None,
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let z = if let Some(z) = self.spare.take() {
            z
        } else {
            // Box–Muller: two uniform samples in (0, 1] give two independent standard
            // normal variates.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..=1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        };
        (self.mean + self.sigma * z).max(self.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_have_expected_mean_and_spread() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sampler = NormalSampler::new(3.0, 1.0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        // The clamp at 0 slightly biases the mean upward; 3σ away from 0 the effect is
        // tiny, so generous tolerances suffice.
        assert!((mean - 3.0).abs() < 0.05, "mean was {mean}");
        assert!((var.sqrt() - 1.0).abs() < 0.05, "sigma was {}", var.sqrt());
    }

    #[test]
    fn samples_respect_lower_clamp() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sampler = NormalSampler {
            min: 0.1,
            ..NormalSampler::new(0.5, 2.0)
        };
        for _ in 0..5_000 {
            assert!(sampler.sample(&mut rng) >= 0.1);
        }
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sampler = NormalSampler::new(5.0, 0.0);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 5.0);
        }
    }

    #[test]
    fn same_seed_same_samples() {
        let mut s1 = NormalSampler::new(3.0, 1.0);
        let mut s2 = NormalSampler::new(3.0, 1.0);
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            assert_eq!(s1.sample(&mut r1), s2.sample(&mut r2));
        }
    }
}
