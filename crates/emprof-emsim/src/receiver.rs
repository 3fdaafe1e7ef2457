//! The receiver chain: band-limit, resample, apply channel, add noise.

use emprof_obs as obs;
use emprof_par::Parallelism;
use emprof_signal::{noise, resample, Complex};
use emprof_sim::PowerTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::capture::CapturedSignal;
use crate::drift::DriftModel;

/// Configuration of the synthetic capture front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverConfig {
    /// Measurement bandwidth in Hz; also the complex output sample rate
    /// (the paper sweeps 20–160 MHz in Section VI-B).
    pub bandwidth_hz: f64,
    /// Signal-to-noise ratio of the capture in dB.
    pub snr_db: f64,
    /// Channel gain model (probe position + supply drift).
    pub drift: DriftModel,
}

impl ReceiverConfig {
    /// The paper's usual setup at a given bandwidth: a close near-field
    /// probe (healthy SNR) with bench-level supply drift.
    pub fn paper_setup(bandwidth_hz: f64) -> Self {
        ReceiverConfig {
            bandwidth_hz,
            snr_db: 25.0,
            drift: DriftModel::bench_default(),
        }
    }

    /// An idealized noiseless, drift-free capture (for validation tests
    /// that need to isolate the detector's own behaviour).
    pub fn ideal(bandwidth_hz: f64) -> Self {
        ReceiverConfig {
            bandwidth_hz,
            snr_db: 90.0,
            drift: DriftModel::none(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.bandwidth_hz > 0.0 && self.bandwidth_hz.is_finite()) {
            return Err(format!(
                "bandwidth must be positive, got {}",
                self.bandwidth_hz
            ));
        }
        if !self.snr_db.is_finite() {
            return Err(format!("snr must be finite, got {}", self.snr_db));
        }
        self.drift.validate()
    }
}

/// The synthetic capture front-end.
///
/// Physics of the model: switching current in the core produces an EM
/// field whose component at the clock frequency is amplitude-modulated by
/// per-cycle activity. A receiver tuned to the clock with bandwidth `B`
/// sees, at complex baseband, the activity envelope band-limited to `B/2`
/// on either side — i.e. the per-cycle power trace lowpass-filtered and
/// resampled to `B` complex samples per second — scaled by the channel
/// gain, plus front-end noise.
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Receiver {
    config: ReceiverConfig,
    parallelism: Parallelism,
}

impl Receiver {
    /// Creates a receiver.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ReceiverConfig::validate`].
    pub fn new(config: ReceiverConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid receiver configuration: {e}"));
        Receiver {
            config,
            parallelism: Parallelism::sequential(),
        }
    }

    /// Fans the deterministic stages of the capture chain (anti-alias
    /// filtering and resampling) out over `par` workers. The capture is
    /// bit-identical for any setting — the stochastic stages (drift gains
    /// and front-end noise) always consume the seeded RNG sequentially, so
    /// per-seed determinism is independent of the thread count.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// The worker-count setting for the deterministic capture stages.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The configuration in use.
    pub fn config(&self) -> ReceiverConfig {
        self.config
    }

    /// Captures a per-cycle power trace as a band-limited complex-baseband
    /// signal. `seed` makes the noise and drift reproducible.
    ///
    /// The bandwidth may not exceed the source clock frequency (a receiver
    /// cannot resolve faster than the emission varies).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_hz > clock_hz` of the trace.
    pub fn capture(&self, power: &PowerTrace, seed: u64) -> CapturedSignal {
        let clock = power.clock_hz();
        assert!(
            self.config.bandwidth_hz <= clock,
            "bandwidth {} exceeds source clock {clock}",
            self.config.bandwidth_hz
        );
        self.capture_envelope(power.samples(), clock, clock, seed)
    }

    /// Captures an arbitrary activity envelope sampled at `envelope_rate_hz`
    /// emitted by a device clocked at `source_clock_hz` (used for the
    /// memory-side probe, whose envelope is synthesized at the output
    /// rate directly). The envelope is read in place, widened to `f64`
    /// sample by sample.
    pub(crate) fn capture_envelope<T: Copy + Into<f64> + Sync>(
        &self,
        envelope: &[T],
        envelope_rate_hz: f64,
        source_clock_hz: f64,
        seed: u64,
    ) -> CapturedSignal {
        let _capture_span = obs::span!("emsim.capture");
        let b = self.config.bandwidth_hz;
        // Band-limit and resample to the output rate. `resample` applies
        // the anti-alias lowpass internally when reducing the rate.
        let baseband = {
            let _s = obs::span!("emsim.resample");
            if (envelope_rate_hz - b).abs() / b < 1e-9 {
                envelope.iter().map(|&v| v.into()).collect()
            } else {
                resample::resample_par(envelope, envelope_rate_hz, b, self.parallelism)
            }
        };
        obs::counter_add!("emsim.samples", baseband.len() as u64);
        // Channel gain (probe + drift), then front-end noise.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut iq: Vec<Complex> = {
            let _s = obs::span!("emsim.channel");
            let gains = self.config.drift.gains(baseband.len(), b, &mut rng);
            baseband
                .iter()
                .zip(&gains)
                .map(|(&v, &g)| Complex::from_re(v * g))
                .collect()
        };
        {
            let _s = obs::span!("emsim.noise");
            noise::add_awgn_complex(&mut iq, self.config.snr_db, &mut rng);
        }
        CapturedSignal::new(iq, b, source_clock_hz)
    }
}

/// Bandwidths the paper sweeps in Section VI-B (Fig. 12).
pub const PAPER_BANDWIDTHS_HZ: [f64; 5] = [20e6, 40e6, 60e6, 80e6, 160e6];

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace with a busy plateau, one dip, then busy again.
    fn dipped_trace(busy: f32, dip: f32, dip_cycles: usize) -> PowerTrace {
        let mut samples = vec![busy; 60_000];
        for s in samples.iter_mut().skip(30_000).take(dip_cycles) {
            *s = dip;
        }
        PowerTrace::from_samples(samples, 1.0e9)
    }

    #[test]
    fn output_rate_matches_bandwidth() {
        let rx = Receiver::new(ReceiverConfig::ideal(40e6));
        let c = rx.capture(&dipped_trace(5.0, 1.0, 300), 1);
        // 60k cycles at 1 GHz = 60 us; at 40 MS/s -> 2400 samples.
        assert!((c.len() as i64 - 2400).abs() <= 2, "len {}", c.len());
        assert!((c.sample_rate_hz() - 40e6).abs() < 1.0);
    }

    #[test]
    fn stall_dip_survives_the_chain() {
        let rx = Receiver::new(ReceiverConfig::ideal(40e6));
        let c = rx.capture(&dipped_trace(5.0, 1.0, 300), 1);
        let mag = c.magnitude();
        // Busy level ~5, dip bottom ~1; the dip is 300 cycles = 12 samples
        // centered at sample 1200 + 6.
        let busy = mag[600];
        let bottom = mag[1206];
        assert!(busy > 4.5, "busy {busy}");
        assert!(bottom < 2.0, "dip bottom {bottom}");
    }

    #[test]
    fn dip_position_maps_back_to_cycles() {
        let rx = Receiver::new(ReceiverConfig::ideal(40e6));
        let c = rx.capture(&dipped_trace(5.0, 1.0, 300), 1);
        let mag = c.magnitude();
        let min_idx = mag
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let cycle = c.sample_to_cycle(min_idx);
        assert!(
            (cycle as i64 - 30_150).unsigned_abs() < 200,
            "dip mapped to cycle {cycle}, expected ~30150"
        );
    }

    #[test]
    fn narrow_bandwidth_smears_short_dips() {
        // A 40-cycle (40 ns) dip: visible at 160 MHz, nearly gone at 20 MHz.
        let short = dipped_trace(5.0, 1.0, 40);
        let depth = |bw: f64| {
            let rx = Receiver::new(ReceiverConfig::ideal(bw));
            let c = rx.capture(&short, 1);
            let mag = c.magnitude();
            let bottom = mag.iter().cloned().fold(f64::MAX, f64::min);
            5.0 - bottom
        };
        let wide = depth(160e6);
        let narrow = depth(20e6);
        assert!(
            wide > 1.5 * narrow,
            "wideband dip depth {wide} should exceed narrowband {narrow}"
        );
    }

    #[test]
    fn noise_level_tracks_snr() {
        let flat = PowerTrace::from_samples(vec![5.0; 100_000], 1.0e9);
        let spread = |snr: f64| {
            let rx = Receiver::new(ReceiverConfig {
                snr_db: snr,
                ..ReceiverConfig::ideal(40e6)
            });
            let mag = rx.capture(&flat, 7).magnitude();
            let mean = mag.iter().sum::<f64>() / mag.len() as f64;
            (mag.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / mag.len() as f64).sqrt()
        };
        assert!(spread(10.0) > 3.0 * spread(30.0));
    }

    #[test]
    fn probe_gain_scales_magnitude() {
        let flat = PowerTrace::from_samples(vec![2.0; 50_000], 1.0e9);
        let mut cfg = ReceiverConfig::ideal(40e6);
        cfg.drift.probe_gain = 3.0;
        let rx = Receiver::new(cfg);
        let mag = rx.capture(&flat, 3).magnitude();
        let mean = mag[100..mag.len() - 100].iter().sum::<f64>() / (mag.len() - 200) as f64;
        assert!((mean - 6.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn capture_is_deterministic_per_seed() {
        let trace = dipped_trace(5.0, 1.0, 300);
        let rx = Receiver::new(ReceiverConfig::paper_setup(40e6));
        let a = rx.capture(&trace, 11);
        let b = rx.capture(&trace, 11);
        assert_eq!(a, b);
        let c = rx.capture(&trace, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_capture_is_bit_exact() {
        let trace = dipped_trace(5.0, 1.0, 300);
        let seq = Receiver::new(ReceiverConfig::paper_setup(40e6));
        let base = seq.capture(&trace, 11);
        for threads in [2, 4, 7] {
            let rx = Receiver::new(ReceiverConfig::paper_setup(40e6))
                .with_parallelism(Parallelism::new(threads));
            let c = rx.capture(&trace, 11);
            assert_eq!(base, c, "threads {threads}");
            assert_eq!(
                base.magnitude(),
                c.magnitude_par(Parallelism::new(threads)),
                "magnitude threads {threads}"
            );
        }
    }

    #[test]
    fn paper_bandwidths_are_valid_configs() {
        for bw in PAPER_BANDWIDTHS_HZ {
            Receiver::new(ReceiverConfig::paper_setup(bw));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds source clock")]
    fn bandwidth_above_clock_panics() {
        let rx = Receiver::new(ReceiverConfig::ideal(2e9));
        rx.capture(&PowerTrace::from_samples(vec![1.0; 10], 1e9), 1);
    }

    #[test]
    #[should_panic(expected = "invalid receiver configuration")]
    fn invalid_config_panics() {
        Receiver::new(ReceiverConfig {
            bandwidth_hz: -1.0,
            ..ReceiverConfig::ideal(40e6)
        });
    }
}
