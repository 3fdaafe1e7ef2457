//! Simulated `perf`-style hardware-counter profiling baseline.
//!
//! Section V of the paper motivates EMPROF by showing how unreliable
//! counter-based miss profiling is on these devices: *"when using perf on
//! Olimex A13-OLinuXino-MICRO to count LLC misses for a small application
//! that was designed to generate only 1024 cache misses, the number of
//! misses reported by perf had an average of 32,768 and a standard
//! deviation of 14,543."*
//!
//! This crate models the mechanisms behind that number so the comparison
//! can be regenerated:
//!
//! * the counter counts **all** misses on the core — kernel activity,
//!   daemons, interrupt handlers, and the profiler's own working set —
//!   not just the application's,
//! * the background rate is bursty (page cache churn, timer ticks), so
//!   repeated measurements scatter widely,
//! * sampling attribution (interrupt every `T` events) attributes misses
//!   to code regions with statistical error and itself perturbs the
//!   system ("observer effect"), which EMPROF avoids entirely.
//!
//! # Example
//!
//! ```
//! use emprof_baseline::PerfModel;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let model = PerfModel::olimex_observed();
//! let mut rng = StdRng::seed_from_u64(1);
//! let m = model.measure(1024, &mut rng);
//! // The reported count dwarfs the 1024 real misses.
//! assert!(m.reported_misses > 4 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::Rng;

/// Parameters of the simulated counter-based profiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Mean background (non-application) misses folded into one
    /// measurement window.
    pub background_mean: f64,
    /// Standard deviation of the background across runs (bursty system
    /// activity).
    pub background_std: f64,
    /// Sampling period: one profiling interrupt per `sampling_period`
    /// counted events (perf's `-c` / period).
    pub sampling_period: u64,
    /// Extra misses caused *per profiling interrupt* by the profiler
    /// itself (interrupt handler + sample buffer): the observer effect.
    pub observer_misses_per_sample: f64,
}

impl PerfModel {
    /// Calibrated to the paper's reported Olimex measurement: a
    /// 1024-miss application reads back as 32,768 ± 14,543.
    pub fn olimex_observed() -> Self {
        PerfModel {
            background_mean: 31_300.0,
            background_std: 14_500.0,
            sampling_period: 1000,
            observer_misses_per_sample: 4.0,
        }
    }

    /// A (hypothetically) quiet system for contrast in the benches.
    pub fn quiet_system() -> Self {
        PerfModel {
            background_mean: 500.0,
            background_std: 200.0,
            sampling_period: 1000,
            observer_misses_per_sample: 4.0,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("background_mean", self.background_mean),
            ("background_std", self.background_std),
            (
                "observer_misses_per_sample",
                self.observer_misses_per_sample,
            ),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        if self.sampling_period == 0 {
            return Err("sampling period must be nonzero".into());
        }
        Ok(())
    }

    /// Simulates one profiled run of an application with `app_misses`
    /// true misses.
    pub fn measure<R: Rng + ?Sized>(&self, app_misses: u64, rng: &mut R) -> PerfMeasurement {
        let background = gaussian(rng, self.background_mean, self.background_std).max(0.0);
        // Counting proceeds while interrupts add their own misses, which
        // are themselves counted: solve n = base + o * n / period.
        let base = app_misses as f64 + background;
        let per_event_overhead = self.observer_misses_per_sample / self.sampling_period as f64;
        let total = if per_event_overhead < 1.0 {
            base / (1.0 - per_event_overhead)
        } else {
            base // degenerate configuration: overhead saturates
        };
        let reported = total.round() as u64;
        PerfMeasurement {
            reported_misses: reported,
            interrupts: reported / self.sampling_period,
            observer_misses: (total - base).round() as u64,
        }
    }

    /// Runs `n` measurements and summarizes them — the paper's
    /// mean ± standard deviation.
    pub fn measure_many<R: Rng + ?Sized>(
        &self,
        app_misses: u64,
        n: usize,
        rng: &mut R,
    ) -> PerfSummary {
        assert!(n > 0, "at least one measurement required");
        let samples: Vec<f64> = (0..n)
            .map(|_| self.measure(app_misses, rng).reported_misses as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        PerfSummary {
            mean,
            std_dev: var.sqrt(),
            runs: n,
        }
    }

    /// Simulates sampling-based *attribution*: given the true per-region
    /// miss counts, returns the per-region counts a period-`T` sampling
    /// profiler would attribute. Each region's samples are binomial in
    /// its share of events; the returned estimate is `samples * T`, which
    /// is exact only in expectation — the error EMPROF's exact per-event
    /// accounting avoids.
    pub fn attribute_by_sampling<R: Rng + ?Sized>(
        &self,
        region_misses: &[u64],
        rng: &mut R,
    ) -> Vec<u64> {
        region_misses
            .iter()
            .map(|&m| {
                let expected_samples = m as f64 / self.sampling_period as f64;
                // Poisson-approximated binomial sampling.
                let samples = poisson(rng, expected_samples);
                samples * self.sampling_period
            })
            .collect()
    }
}

/// One simulated profiled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfMeasurement {
    /// Total LLC misses the profiler reports.
    pub reported_misses: u64,
    /// Profiling interrupts taken.
    pub interrupts: u64,
    /// Misses caused by the profiling activity itself.
    pub observer_misses: u64,
}

/// Mean ± standard deviation across repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSummary {
    /// Mean reported miss count.
    pub mean: f64,
    /// Standard deviation of reported counts.
    pub std_dev: f64,
    /// Number of runs.
    pub runs: usize,
}

/// Box–Muller Gaussian (local to keep the crate's deps minimal).
fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    mean + std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Knuth Poisson sampler for small means, normal approximation for large.
fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        return gaussian(rng, lambda, lambda.sqrt()).max(0.0).round() as u64;
    }
    let limit = (-lambda).exp();
    let mut product: f64 = rng.gen();
    let mut count = 0u64;
    while product > limit {
        product *= rng.gen::<f64>();
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reproduces_paper_statistic_shape() {
        // Paper: 1024 true misses -> reported 32,768 +/- 14,543.
        let model = PerfModel::olimex_observed();
        let mut rng = StdRng::seed_from_u64(2024);
        let summary = model.measure_many(1024, 2000, &mut rng);
        assert!(
            (summary.mean - 32_768.0).abs() < 3_000.0,
            "mean {}",
            summary.mean
        );
        assert!(
            (summary.std_dev - 14_543.0).abs() < 3_000.0,
            "std {}",
            summary.std_dev
        );
    }

    #[test]
    fn overcount_scales_with_background_not_app() {
        let model = PerfModel::olimex_observed();
        let mut rng = StdRng::seed_from_u64(5);
        let small = model.measure_many(1024, 500, &mut rng).mean;
        let large = model.measure_many(102_400, 500, &mut rng).mean;
        // The absolute background is the same; relative error shrinks.
        let small_err = small / 1024.0;
        let large_err = large / 102_400.0;
        assert!(small_err > 10.0);
        assert!(large_err < 2.0);
    }

    #[test]
    fn quiet_system_is_much_closer() {
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = PerfModel::olimex_observed()
            .measure_many(1024, 200, &mut rng)
            .mean;
        let quiet = PerfModel::quiet_system()
            .measure_many(1024, 200, &mut rng)
            .mean;
        assert!(quiet < noisy / 5.0);
    }

    #[test]
    fn observer_effect_counted() {
        let model = PerfModel {
            background_mean: 0.0,
            background_std: 0.0,
            sampling_period: 100,
            observer_misses_per_sample: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let m = model.measure(10_000, &mut rng);
        // 10 observer misses per 100 events = ~11.1% inflation.
        assert!(m.reported_misses > 11_000 && m.reported_misses < 11_300);
        assert!(m.observer_misses > 1000);
        assert_eq!(m.interrupts, m.reported_misses / 100);
    }

    #[test]
    fn sampling_attribution_is_noisy_for_small_regions() {
        let model = PerfModel::olimex_observed(); // period 1000
        let mut rng = StdRng::seed_from_u64(3);
        let truth = vec![300u64, 5_000, 900_000];
        let mut rel_err_small = 0.0;
        let mut rel_err_large = 0.0;
        let n = 300;
        for _ in 0..n {
            let est = model.attribute_by_sampling(&truth, &mut rng);
            rel_err_small += (est[0] as f64 - 300.0).abs() / 300.0;
            rel_err_large += (est[2] as f64 - 900_000.0).abs() / 900_000.0;
        }
        rel_err_small /= n as f64;
        rel_err_large /= n as f64;
        // A region with fewer misses than the sampling period is barely
        // resolvable; a large region is fine.
        assert!(rel_err_small > 0.5, "small-region error {rel_err_small}");
        assert!(rel_err_large < 0.1, "large-region error {rel_err_large}");
    }

    #[test]
    fn deterministic_per_seed() {
        let model = PerfModel::olimex_observed();
        let a = model.measure(1024, &mut StdRng::seed_from_u64(9));
        let b = model.measure(1024, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn validation() {
        assert!(PerfModel::olimex_observed().validate().is_ok());
        let mut m = PerfModel::olimex_observed();
        m.sampling_period = 0;
        assert!(m.validate().is_err());
        let mut m = PerfModel::olimex_observed();
        m.background_mean = -1.0;
        assert!(m.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one measurement")]
    fn zero_runs_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        PerfModel::olimex_observed().measure_many(1, 0, &mut rng);
    }
}
