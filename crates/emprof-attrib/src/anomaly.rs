//! EM-based detection of execution deviations (EDDIE-style).
//!
//! The paper builds on a family of EM-side-channel monitors; EDDIE
//! (Nazari et al., ISCA 2017, the paper's reference 26) detects *anomalous*
//! execution — injected code, skipped phases, unexpected activity — by
//! checking short-term spectra against those observed during known-good
//! runs. This module implements that monitor on the same STFT machinery
//! the attribution uses: train on one or more clean captures, then score
//! a monitored capture frame by frame; sustained departures from every
//! trained signature raise an [`Anomaly`].
//!
//! Combined with EMPROF this closes the loop the paper sketches in
//! Section VII: the same zero-touch capture yields performance profiles
//! *and* integrity monitoring.

use emprof_signal::stft::{Spectrogram, Stft, StftConfig};

use crate::{cosine_distance, normalize_spectrum, SKIP_BINS};

/// Half-width of the temporal smoothing applied to frames before
/// comparison: averaging 2k+1 consecutive spectra beats the receiver
/// noise down so the code's spectral lines dominate the distance.
const SMOOTH_HALF: usize = 4;

/// Time-smoothed, floor-subtracted, normalized frames of a spectrogram.
fn prepared_frames(spec: &Spectrogram) -> Vec<Vec<f64>> {
    let n = spec.num_frames();
    let bins = spec.num_bins();
    (0..n)
        .map(|t| {
            let lo = t.saturating_sub(SMOOTH_HALF);
            let hi = (t + SMOOTH_HALF + 1).min(n);
            let mut mean = vec![0.0f64; bins.saturating_sub(SKIP_BINS)];
            for u in lo..hi {
                for (m, &v) in mean.iter_mut().zip(&spec.frame(u)[SKIP_BINS..]) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= (hi - lo) as f64;
            }
            normalize_spectrum(&mut mean);
            mean
        })
        .collect()
}

/// A trained model of normal execution.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyDetector {
    /// Reference spectra harvested from training captures.
    references: Vec<Vec<f64>>,
    stft: StftConfig,
    /// Distance above which a frame is "far from everything normal".
    distance_threshold: f64,
    /// Consecutive far frames required before an anomaly is declared
    /// (stall dips and noise perturb single frames; real deviations
    /// persist).
    min_frames: usize,
}

/// A contiguous run of frames unlike any trained behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anomaly {
    /// First anomalous sample.
    pub start_sample: usize,
    /// One past the last anomalous sample.
    pub end_sample: usize,
    /// Worst (largest) frame distance observed in the run.
    pub peak_distance: f64,
}

impl Anomaly {
    /// Length of the anomaly in samples.
    pub fn duration_samples(&self) -> usize {
        self.end_sample - self.start_sample
    }
}

impl AnomalyDetector {
    /// Trains a detector from clean captures.
    ///
    /// Every `stride`-th frame of each training signal becomes a
    /// reference spectrum (stride > 1 keeps the model compact; matching
    /// is nearest-neighbour so coverage matters more than count).
    ///
    /// # Errors
    ///
    /// Returns an error if the STFT configuration is invalid, no signal
    /// yields at least one frame, or `stride == 0`.
    pub fn train(
        signals: &[&[f64]],
        stft: StftConfig,
        stride: usize,
    ) -> Result<AnomalyDetector, String> {
        if stride == 0 {
            return Err("stride must be nonzero".into());
        }
        let engine = Stft::new(stft)?;
        let mut references = Vec::new();
        for signal in signals {
            let spec = engine.compute(signal);
            let frames = prepared_frames(&spec);
            for frame in frames.into_iter().step_by(stride) {
                references.push(frame);
            }
        }
        if references.is_empty() {
            return Err("training signals produced no frames".into());
        }
        // Self-calibration: how far are normal frames from their nearest
        // *other* reference? The alarm threshold sits a margin above the
        // worst of those, so normal variation (noise, stall dips, phase
        // transitions) stays quiet by construction.
        let mut self_distances: Vec<f64> = references
            .iter()
            .enumerate()
            .map(|(i, f)| {
                references
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, r)| cosine_distance(f, r))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        self_distances.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        // Alarm on *sustained* exceedance of the normal p90 distance: a
        // normal frame exceeds it ~10% of the time, so eight consecutive
        // exceedances are vanishingly unlikely under normal behaviour,
        // while genuinely foreign execution exceeds it persistently.
        let p90 = self_distances[((self_distances.len() - 1) as f64 * 0.90) as usize];
        let distance_threshold = (p90 * 1.2).clamp(0.1, 1.5);
        Ok(AnomalyDetector {
            references,
            stft,
            distance_threshold,
            min_frames: 8,
        })
    }

    /// The calibrated frame-distance threshold in use.
    pub fn distance_threshold(&self) -> f64 {
        self.distance_threshold
    }

    /// Overrides the frame-distance threshold (default 0.25 cosine
    /// distance).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold < 2` (the cosine-distance range).
    pub fn with_distance_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold < 2.0,
            "cosine-distance threshold must be in (0, 2), got {threshold}"
        );
        self.distance_threshold = threshold;
        self
    }

    /// Overrides how many consecutive far frames raise an anomaly.
    ///
    /// # Panics
    ///
    /// Panics if `min_frames == 0`.
    pub fn with_min_frames(mut self, min_frames: usize) -> Self {
        assert!(min_frames > 0, "min_frames must be nonzero");
        self.min_frames = min_frames;
        self
    }

    /// Number of stored reference spectra.
    pub fn reference_count(&self) -> usize {
        self.references.len()
    }

    /// Distance of each monitored frame to its nearest reference.
    pub fn frame_distances(&self, signal: &[f64]) -> Vec<f64> {
        let engine = Stft::new(self.stft).expect("validated at training time");
        let spec = engine.compute(signal);
        prepared_frames(&spec)
            .iter()
            .map(|f| {
                self.references
                    .iter()
                    .map(|r| cosine_distance(f, r))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Scans a monitored capture and returns every sustained departure
    /// from trained behaviour, in time order.
    pub fn detect(&self, signal: &[f64]) -> Vec<Anomaly> {
        let distances = self.frame_distances(signal);
        let mut anomalies = Vec::new();
        let mut run: Option<(usize, f64)> = None; // (first frame, peak)
        let close =
            |anomalies: &mut Vec<Anomaly>, start_frame: usize, end_frame: usize, peak: f64| {
                if end_frame - start_frame >= self.min_frames {
                    anomalies.push(Anomaly {
                        start_sample: start_frame * self.stft.hop,
                        end_sample: (end_frame - 1) * self.stft.hop + self.stft.frame_len,
                        peak_distance: peak,
                    });
                }
            };
        for (t, &d) in distances.iter().enumerate() {
            if d > self.distance_threshold {
                run = match run {
                    Some((start, peak)) => Some((start, peak.max(d))),
                    None => Some((t, d)),
                };
            } else if let Some((start, peak)) = run.take() {
                close(&mut anomalies, start, t, peak);
            }
        }
        if let Some((start, peak)) = run {
            close(&mut anomalies, start, distances.len(), peak);
        }
        anomalies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StftConfig {
        StftConfig {
            frame_len: 256,
            hop: 128,
            ..Default::default()
        }
    }

    fn tone(freq: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 3.0 + (std::f64::consts::TAU * freq * i as f64).sin())
            .collect()
    }

    /// Normal execution: alternating segments of two known behaviours.
    fn normal_run(n_segments: usize) -> Vec<f64> {
        let mut s = Vec::new();
        for k in 0..n_segments {
            let f = if k % 2 == 0 { 0.05 } else { 0.17 };
            s.extend(tone(f, 20_000));
        }
        s
    }

    fn detector() -> AnomalyDetector {
        let train = normal_run(4);
        AnomalyDetector::train(&[&train], cfg(), 3).unwrap()
    }

    #[test]
    fn clean_run_raises_no_alarms() {
        let det = detector();
        let monitored = normal_run(6);
        assert!(det.detect(&monitored).is_empty());
    }

    #[test]
    fn injected_behaviour_is_flagged() {
        let det = detector();
        let mut monitored = normal_run(2);
        let inject_at = monitored.len();
        monitored.extend(tone(0.31, 15_000)); // a frequency never trained
        monitored.extend(normal_run(2));
        let anomalies = det.detect(&monitored);
        assert_eq!(anomalies.len(), 1, "expected exactly one anomaly");
        let a = anomalies[0];
        assert!(
            (a.start_sample as i64 - inject_at as i64).unsigned_abs() < 2000,
            "anomaly starts at {} expected ~{inject_at}",
            a.start_sample
        );
        assert!(a.duration_samples() > 10_000);
        assert!(a.peak_distance > 0.25);
    }

    #[test]
    fn brief_perturbations_are_tolerated() {
        let det = detector();
        let mut monitored = normal_run(4);
        // A 400-sample glitch (~1.5 frames): below min_frames.
        for v in monitored.iter_mut().skip(30_000).take(400) {
            *v = 0.1;
        }
        assert!(det.detect(&monitored).is_empty());
    }

    #[test]
    fn threshold_is_calibrated_from_training() {
        let det = detector();
        let t = det.distance_threshold();
        assert!((0.1..1.5).contains(&t), "threshold {t}");
    }

    #[test]
    fn multiple_anomalies_reported_in_order() {
        let det = detector();
        let mut monitored = normal_run(2);
        monitored.extend(tone(0.31, 10_000));
        monitored.extend(normal_run(2));
        monitored.extend(tone(0.43, 10_000));
        monitored.extend(normal_run(1));
        let anomalies = det.detect(&monitored);
        assert_eq!(anomalies.len(), 2);
        assert!(anomalies[0].start_sample < anomalies[1].start_sample);
    }

    #[test]
    fn frame_distances_are_low_on_training_data() {
        let det = detector();
        let train = normal_run(4);
        let d = det.frame_distances(&train);
        let high = d.iter().filter(|&&x| x > 0.25).count();
        // Segment transitions may perturb a frame or two.
        assert!(
            high * 20 < d.len(),
            "{high}/{} training frames look anomalous",
            d.len()
        );
    }

    #[test]
    fn training_errors() {
        assert!(AnomalyDetector::train(&[], cfg(), 1).is_err());
        let short = vec![0.0; 10];
        assert!(AnomalyDetector::train(&[&short], cfg(), 1).is_err());
        let ok = tone(0.1, 5_000);
        assert!(AnomalyDetector::train(&[&ok], cfg(), 0).is_err());
        assert!(AnomalyDetector::train(&[&ok], cfg(), 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "cosine-distance threshold")]
    fn bad_threshold_panics() {
        detector().with_distance_threshold(3.0);
    }
}
