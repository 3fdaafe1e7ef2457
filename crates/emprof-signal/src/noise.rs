//! Noise sources for the synthetic capture rig.
//!
//! A real near-field capture contains thermal noise from the probe and
//! front-end amplifiers plus ambient interference. The reproduction models
//! the aggregate as additive white Gaussian noise (AWGN) at a configurable
//! SNR, which is the standard channel abstraction for this kind of
//! narrow-band receiver.

use crate::Complex;
use rand::Rng;

/// A Gaussian (normal) random source built on the Box–Muller transform.
///
/// Implemented locally so the crate only depends on `rand`'s uniform
/// generator, keeping the noise model self-contained and reproducible from
/// a seed.
#[derive(Debug, Clone)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
    cached: Option<f64>,
}

impl Gaussian {
    /// Creates a Gaussian source with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "standard deviation must be finite and non-negative, got {std_dev}"
        );
        Gaussian {
            mean,
            std_dev,
            cached: None,
        }
    }

    /// A standard normal source (mean 0, standard deviation 1).
    pub fn standard() -> Self {
        Gaussian::new(0.0, 1.0)
    }

    /// Draws one sample using the supplied RNG.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.cached.take() {
            return self.mean + self.std_dev * z;
        }
        // Box–Muller: two uniforms -> two independent standard normals.
        let u1: f64 = loop {
            let u: f64 = rng.gen();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        let (s, c) = theta.sin_cos();
        self.cached = Some(r * s);
        self.mean + self.std_dev * r * c
    }

    /// Draws one complex sample with independent real/imaginary components,
    /// each with the configured standard deviation.
    pub fn sample_complex<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Complex {
        Complex::new(self.sample(rng), self.sample(rng))
    }
}

/// Adds complex AWGN to an IQ signal at a given signal-to-noise ratio.
///
/// The signal power is measured from the samples themselves (mean of
/// `|x|^2`); the per-component noise standard deviation is then set so the
/// total complex-noise power is `signal_power / 10^(snr_db / 10)`. A signal
/// of all zeros is returned unchanged (its SNR is undefined).
pub fn add_awgn_complex<R: Rng + ?Sized>(signal: &mut [Complex], snr_db: f64, rng: &mut R) {
    let power: f64 = signal.iter().map(|c| c.norm_sqr()).sum::<f64>() / signal.len().max(1) as f64;
    if power == 0.0 {
        return;
    }
    let noise_power = power / 10f64.powf(snr_db / 10.0);
    // Complex noise power splits evenly between I and Q.
    let sigma = (noise_power / 2.0).sqrt();
    let mut g = Gaussian::new(0.0, sigma);
    for s in signal {
        *s += g.sample_complex(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = Gaussian::new(3.0, 2.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn gaussian_is_deterministic_from_seed() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            let mut g = Gaussian::standard();
            (0..10).map(|_| g.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            let mut g = Gaussian::standard();
            (0..10).map(|_| g.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn awgn_hits_requested_snr() {
        let mut rng = StdRng::seed_from_u64(1);
        let clean: Vec<Complex> = vec![Complex::new(1.0, 0.0); 100_000];
        let mut noisy = clean.clone();
        add_awgn_complex(&mut noisy, 20.0, &mut rng);
        let noise_power: f64 = noisy
            .iter()
            .zip(&clean)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            / clean.len() as f64;
        // Signal power is 1.0, so at 20 dB noise power should be 0.01.
        assert!(
            (noise_power - 0.01).abs() < 0.001,
            "noise power {noise_power}"
        );
    }

    #[test]
    fn awgn_on_zero_signal_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut x = vec![Complex::ZERO; 100];
        add_awgn_complex(&mut x, 10.0, &mut rng);
        assert!(x.iter().all(|c| *c == Complex::ZERO));
    }

    #[test]
    #[should_panic(expected = "standard deviation")]
    fn negative_sigma_panics() {
        Gaussian::new(0.0, -1.0);
    }
}
