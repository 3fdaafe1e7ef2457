//! Equivalence and tracking guarantees of the adaptive calibration loop.
//!
//! Two load-bearing claims. First, the calibration knob is invisible
//! when off: with `CalibConfig::off()` (the default) the batch,
//! parallel, and streaming detectors produce bit-identical profiles on
//! arbitrary signals — exactly the legacy fixed-threshold path. Second,
//! when calibration is on, all three paths still agree bit-for-bit
//! (the block schedule is causal and shared), and under a pure
//! attenuation ramp with a fixed noise floor the adapted threshold
//! tracks the degrading contrast monotonically upward.

use emprof::core::{CalibConfig, Emprof, EmprofConfig, Parallelism, StreamingEmprof};
use proptest::prelude::*;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

fn base_config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

fn adaptive_config() -> EmprofConfig {
    let mut cfg = base_config();
    cfg.calib = CalibConfig::adaptive();
    cfg
}

/// Arbitrary busy/dip signal (same shape as the detector properties).
fn build_signal(segments: &[(u16, u16, u8)]) -> Vec<f64> {
    let mut s = Vec::new();
    for (i, &(gap, dip, depth)) in segments.iter().enumerate() {
        let gap = 3 + gap as usize % 600;
        let dip = dip as usize % 160;
        let dip_level = 0.3 + (depth as f64 / 255.0) * 1.2;
        for k in 0..gap {
            s.push(5.0 + (((i * 131 + k) * 2654435761) % 997) as f64 / 3000.0);
        }
        for k in 0..dip {
            s.push(dip_level + (((i * 137 + k) * 2654435761) % 997) as f64 / 5000.0);
        }
    }
    s.extend(std::iter::repeat_n(5.0, 500));
    s
}

/// Runs all three detector paths on one signal with one configuration
/// and asserts they agree bit-for-bit.
fn assert_tri_path(cfg: EmprofConfig, signal: &[f64], threads: usize) -> Result<(), TestCaseError> {
    let e = Emprof::new(cfg);
    let batch = e.profile_magnitude(signal, FS, CLK);
    let par = e.profile_magnitude_par(signal, FS, CLK, Parallelism::new(threads));
    prop_assert_eq!(&batch, &par);
    let mut s = StreamingEmprof::new(cfg, FS, CLK);
    s.extend(signal.iter().copied());
    let streamed = s.finish();
    prop_assert_eq!(streamed.events(), batch.events());
    prop_assert_eq!(streamed.degraded_count(), batch.degraded_count());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Calibration off (the default) leaves all three detector paths
    /// bit-identical on arbitrary signals: the adaptive machinery must
    /// be invisible when disabled.
    #[test]
    fn adaptive_off_tri_path_bit_identical(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..24),
        threads in 2usize..9,
    ) {
        let cfg = base_config();
        prop_assert!(!cfg.calib.enabled, "calibration must default to off");
        assert_tri_path(cfg, &build_signal(&segments), threads)?;
    }

    /// Calibration on: batch, parallel, and streaming still agree
    /// bit-for-bit, even while a persistent attenuation ramp drives the
    /// schedule through genuinely different per-block parameters.
    #[test]
    fn adaptive_on_tri_path_bit_identical(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..24),
        threads in 2usize..9,
        decay_milli in 0u32..900,
    ) {
        let mut signal = build_signal(&segments);
        let n = signal.len() as f64;
        let floor = 1.0 - decay_milli as f64 / 1000.0;
        for (i, v) in signal.iter_mut().enumerate() {
            *v *= 1.0 - (1.0 - floor) * (i as f64 / n);
        }
        assert_tri_path(adaptive_config(), &signal, threads)?;
    }
}

/// Under a pure attenuation ramp with a fixed (post-attenuation) noise
/// floor, the contrast the calibrator sees shrinks while its noise
/// estimate holds, so the adapted threshold must rise monotonically —
/// and the confidence state machine must end in the degraded state.
#[test]
fn threshold_tracks_attenuation_ramp_monotonically() {
    let cfg = adaptive_config();
    let block = cfg.norm_window_samples;
    let blocks = 64usize;
    let n = blocks * block;
    let mut signal = Vec::with_capacity(n);
    for i in 0..n {
        // Gain walks 1.0 -> 0.1 across the capture; one dip per block
        // keeps contrast observable in every calibration window.
        let gain = 1.0 - 0.9 * (i as f64 / n as f64);
        let in_dip = (i % block) >= block / 2 && (i % block) < block / 2 + 12;
        let clean = if in_dip { 1.0 } else { 5.0 };
        // Receiver noise floor: fixed amplitude, added AFTER the
        // attenuation (a purely multiplicative drift would be invisible
        // to min/max normalization).
        let noise = 0.2 * ((i % 2) as f64);
        signal.push(clean * gain + noise);
    }
    let schedule = Emprof::new(cfg).calibration_schedule(&signal);
    assert_eq!(schedule.len(), blocks);
    let thresholds: Vec<f64> = schedule.iter().map(|b| b.threshold).collect();
    for (k, w) in thresholds.windows(2).enumerate() {
        assert!(
            w[1] >= w[0] - 1e-9,
            "threshold regressed at block {}: {} -> {} (full: {:?})",
            k + 1,
            w[0],
            w[1],
            thresholds
        );
    }
    let first = *thresholds.first().unwrap();
    let last = *thresholds.last().unwrap();
    assert_eq!(
        first, cfg.threshold,
        "schedule must start at the base threshold"
    );
    assert!(
        last > first + 0.1,
        "threshold never adapted: first {first}, last {last}"
    );
    assert!(
        !schedule.first().unwrap().degraded,
        "capture must start at high confidence"
    );
    assert!(
        schedule.last().unwrap().degraded,
        "the ramp's tail must be flagged degraded"
    );
}
