//! Slow multiplicative gain variation.
//!
//! Section IV of the paper: probe/antenna position changes the overall
//! magnitude by "a constant multiplicative factor", and supply-voltage
//! variation makes "signal strength change in magnitude over time". Both
//! are modeled here as a time-varying gain: a constant probe factor times
//! a supply ripple (sinusoidal, switching-regulator-style) times a bounded
//! random walk (thermal/position wander).

use rand::Rng;

/// Configuration of the time-varying channel gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftModel {
    /// Constant probe-position gain applied to the whole capture.
    pub probe_gain: f64,
    /// Peak relative amplitude of the supply ripple (e.g. `0.05` = ±5 %).
    pub ripple_amplitude: f64,
    /// Supply-ripple frequency in Hz.
    pub ripple_hz: f64,
    /// Standard deviation of the per-sample random-walk step, as a
    /// relative gain. The walk is clamped to ±3x `ripple_amplitude`.
    pub walk_step: f64,
}

impl DriftModel {
    /// No drift at all: unit gain (useful for validation tests).
    pub fn none() -> Self {
        DriftModel {
            probe_gain: 1.0,
            ripple_amplitude: 0.0,
            ripple_hz: 0.0,
            walk_step: 0.0,
        }
    }

    /// Plausible bench conditions: ±4 % switching-regulator ripple at
    /// 2 kHz plus a gentle random walk.
    pub fn bench_default() -> Self {
        DriftModel {
            probe_gain: 1.0,
            ripple_amplitude: 0.04,
            ripple_hz: 2_000.0,
            walk_step: 1e-5,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.probe_gain > 0.0 && self.probe_gain.is_finite()) {
            return Err(format!(
                "probe gain must be positive, got {}",
                self.probe_gain
            ));
        }
        if !(0.0..1.0).contains(&self.ripple_amplitude) {
            return Err(format!(
                "ripple amplitude must be in [0, 1), got {}",
                self.ripple_amplitude
            ));
        }
        if self.ripple_hz < 0.0 || !self.ripple_hz.is_finite() {
            return Err(format!("ripple frequency invalid: {}", self.ripple_hz));
        }
        if self.walk_step < 0.0 || !self.walk_step.is_finite() {
            return Err(format!("walk step invalid: {}", self.walk_step));
        }
        Ok(())
    }

    /// Produces the per-sample gain sequence for `n` samples at
    /// `sample_rate_hz`, using `rng` for the random walk.
    pub fn gains<R: Rng + ?Sized>(&self, n: usize, sample_rate_hz: f64, rng: &mut R) -> Vec<f64> {
        let clamp = (3.0 * self.ripple_amplitude).max(0.1);
        let mut walk = 0.0f64;
        let omega = std::f64::consts::TAU * self.ripple_hz / sample_rate_hz;
        (0..n)
            .map(|i| {
                if self.walk_step > 0.0 {
                    let step: f64 = rng.gen::<f64>() * 2.0 - 1.0;
                    walk = (walk + step * self.walk_step).clamp(-clamp, clamp);
                }
                let ripple = self.ripple_amplitude * (omega * i as f64).sin();
                self.probe_gain * (1.0 + ripple + walk)
            })
            .collect()
    }
}

impl Default for DriftModel {
    fn default() -> Self {
        DriftModel::bench_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_unit_gain() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = DriftModel::none().gains(100, 1e6, &mut rng);
        assert!(g.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn probe_gain_scales_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = DriftModel {
            probe_gain: 2.5,
            ..DriftModel::none()
        };
        let g = model.gains(50, 1e6, &mut rng);
        assert!(g.iter().all(|&v| (v - 2.5).abs() < 1e-12));
    }

    #[test]
    fn ripple_oscillates_at_requested_frequency() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = DriftModel {
            probe_gain: 1.0,
            ripple_amplitude: 0.1,
            ripple_hz: 1000.0,
            walk_step: 0.0,
        };
        // 1 ms at 1 MHz = one full ripple period over 1000 samples.
        let g = model.gains(1000, 1e6, &mut rng);
        let peak = g.iter().cloned().fold(f64::MIN, f64::max);
        let trough = g.iter().cloned().fold(f64::MAX, f64::min);
        assert!((peak - 1.1).abs() < 1e-3, "peak {peak}");
        assert!((trough - 0.9).abs() < 1e-3, "trough {trough}");
        // Quarter period = sample 250 is near the peak.
        assert!((g[250] - 1.1).abs() < 1e-3);
    }

    #[test]
    fn walk_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = DriftModel {
            probe_gain: 1.0,
            ripple_amplitude: 0.02,
            ripple_hz: 0.0,
            walk_step: 0.01,
        };
        let g = model.gains(100_000, 1e6, &mut rng);
        // The implementation clamps the walk to max(3*ripple, 0.1).
        let bound = (3.0f64 * 0.02).max(0.1);
        assert!(g.iter().all(|&v| (v - 1.0).abs() <= bound + 1e-9));
    }

    #[test]
    fn gains_deterministic_per_seed() {
        let model = DriftModel::bench_default();
        let a = model.gains(1000, 40e6, &mut StdRng::seed_from_u64(3));
        let b = model.gains(1000, 40e6, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn validation() {
        assert!(DriftModel::none().validate().is_ok());
        assert!(DriftModel::bench_default().validate().is_ok());
        let bad = DriftModel {
            probe_gain: 0.0,
            ..DriftModel::none()
        };
        assert!(bad.validate().is_err());
        let bad = DriftModel {
            ripple_amplitude: 1.5,
            ..DriftModel::none()
        };
        assert!(bad.validate().is_err());
    }
}
