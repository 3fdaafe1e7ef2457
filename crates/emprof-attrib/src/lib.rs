//! Spectral-profiling code attribution for EMPROF.
//!
//! Section VI-D of the paper: EMPROF's stalls become far more actionable
//! when attributed to the code in which they occur. The paper pairs
//! EMPROF with Spectral Profiling (Sehatbakhsh et al., MICRO 2016): the
//! short-term spectrum of the EM signal identifies which loop-level
//! region of code is executing, and each stall found by EMPROF is charged
//! to the region active at its position — producing Table V (per-function
//! miss counts, miss rates, stall percentages and average latencies for
//! SPEC *parser*) from the spectrogram of Fig. 14.
//!
//! The implementation follows the same recipe:
//!
//! 1. [`SignatureSet::train`] — average the Hann-windowed magnitude
//!    spectra of labeled training windows into one normalized signature
//!    per region,
//! 2. [`SignatureSet::classify`] — label every frame of a spectrogram by
//!    nearest signature (cosine distance), smoothed with a median filter,
//! 3. [`segments_from_labels`] — collapse frame labels into contiguous
//!    region segments,
//! 4. [`attribute`] — slice an EMPROF [`Profile`] by segment and emit one
//!    [`RegionReport`] per region.
//!
//! # Example
//!
//! ```
//! use emprof_attrib::SignatureSet;
//! use emprof_signal::stft::StftConfig;
//!
//! // Two synthetic "regions" with different tones.
//! let tone = |f: f64, n: usize| -> Vec<f64> {
//!     (0..n).map(|i| (std::f64::consts::TAU * f * i as f64).sin() + 2.0).collect()
//! };
//! let mut signal = tone(0.05, 40_000);
//! signal.extend(tone(0.15, 40_000));
//!
//! let cfg = StftConfig { frame_len: 256, hop: 128, ..Default::default() };
//! let set = SignatureSet::train(
//!     &signal,
//!     &[("a", 0..40_000), ("b", 40_000..80_000)],
//!     cfg,
//! )?;
//! let labels = set.classify(&signal);
//! assert_eq!(labels.first(), Some(&0));
//! assert_eq!(labels.last(), Some(&1));
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;

use std::ops::Range;

use emprof_core::Profile;
use emprof_signal::stft::{Stft, StftConfig};

/// Low-frequency bins excluded from signatures: the first bins carry the
/// signal's overall level (and its spectral leakage under the analysis
/// window), which EMPROF's channel model says is untrustworthy — probe
/// position and supply drift move it. Spectral identity lives in the
/// higher bins.
pub(crate) const SKIP_BINS: usize = 4;

/// A trained per-region spectral signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    name: String,
    /// L2-normalized mean magnitude spectrum (lowest bins dropped).
    spectrum: Vec<f64>,
}

impl Signature {
    /// The region's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The normalized signature spectrum (without the lowest bins).
    pub fn spectrum(&self) -> &[f64] {
        &self.spectrum
    }
}

/// A set of trained signatures plus the STFT configuration they share.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureSet {
    signatures: Vec<Signature>,
    stft: StftConfig,
    /// Median-filter half-width applied to frame labels.
    smoothing: usize,
}

impl SignatureSet {
    /// Trains one signature per labeled region from a signal.
    ///
    /// `regions` gives, for each region, its name and the *sample* range
    /// of the signal known to belong to it (in the paper's workflow this
    /// comes from a training run; in the reproduction the simulator's
    /// phase markers provide it).
    ///
    /// # Errors
    ///
    /// Returns an error when no regions are given, the STFT configuration
    /// is invalid, or a region is too short to contain a single frame.
    pub fn train(
        signal: &[f64],
        regions: &[(&str, Range<usize>)],
        stft: StftConfig,
    ) -> Result<SignatureSet, String> {
        if regions.is_empty() {
            return Err("at least one region is required".into());
        }
        let engine = Stft::new(stft)?;
        let mut signatures = Vec::with_capacity(regions.len());
        for (name, range) in regions {
            if range.end > signal.len() {
                return Err(format!(
                    "region {name} range {range:?} exceeds signal length {}",
                    signal.len()
                ));
            }
            let spec = engine.compute(&signal[range.clone()]);
            if spec.num_frames() == 0 {
                return Err(format!(
                    "region {name} is too short for one {}-sample frame",
                    stft.frame_len
                ));
            }
            let bins = spec.num_bins();
            let mut mean = vec![0.0f64; bins.saturating_sub(SKIP_BINS)];
            for frame in spec.iter() {
                for (m, &v) in mean.iter_mut().zip(&frame[SKIP_BINS..]) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= spec.num_frames() as f64;
            }
            normalize_spectrum(&mut mean);
            signatures.push(Signature {
                name: (*name).to_string(),
                spectrum: mean,
            });
        }
        Ok(SignatureSet {
            signatures,
            stft,
            smoothing: 5,
        })
    }

    /// Overrides the median-filter half-width (0 disables smoothing).
    pub fn with_smoothing(mut self, half_width: usize) -> Self {
        self.smoothing = half_width;
        self
    }

    /// The trained signatures.
    pub fn signatures(&self) -> &[Signature] {
        &self.signatures
    }

    /// The shared STFT configuration.
    pub fn stft_config(&self) -> StftConfig {
        self.stft
    }

    /// Labels every STFT frame of `signal` with the index of the nearest
    /// signature, median-filtered for stability.
    pub fn classify(&self, signal: &[f64]) -> Vec<usize> {
        let engine = Stft::new(self.stft).expect("validated at training time");
        let spec = engine.compute(signal);
        let mut labels: Vec<usize> = spec
            .iter()
            .map(|frame| {
                let mut f: Vec<f64> = frame[SKIP_BINS..].to_vec();
                normalize_spectrum(&mut f);
                self.signatures
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, cosine_distance(&f, &s.spectrum)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    .map(|(i, _)| i)
                    .expect("at least one signature")
            })
            .collect();
        if self.smoothing > 0 {
            labels = median_filter(&labels, self.smoothing);
        }
        labels
    }
}

pub(crate) fn normalize_spectrum(v: &mut [f64]) {
    // Noise-floor subtraction: the receiver's AWGN gives every frame a
    // similar flat floor which would otherwise dominate the comparison;
    // what identifies code is the peaks above it. Subtract the median
    // magnitude and clamp, then scale to unit energy.
    if v.is_empty() {
        return;
    }
    let mut sorted = v.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite magnitudes"));
    let median = sorted[sorted.len() / 2];
    for x in v.iter_mut() {
        *x = (*x - median).max(0.0);
    }
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

/// Cosine distance between two equal-length normalized vectors.
pub(crate) fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    1.0 - dot
}

/// Median filter over discrete labels (majority-of-window, which equals
/// the median for ordered label sets and is robust for unordered ones).
fn median_filter(labels: &[usize], half_width: usize) -> Vec<usize> {
    let n = labels.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half_width);
            let hi = (i + half_width + 1).min(n);
            let window = &labels[lo..hi];
            // Majority vote.
            let mut best = window[0];
            let mut best_count = 0;
            for &candidate in window {
                let count = window.iter().filter(|&&l| l == candidate).count();
                if count > best_count {
                    best = candidate;
                    best_count = count;
                }
            }
            best
        })
        .collect()
}

/// A contiguous run of frames attributed to one region, in samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Index into the signature set.
    pub region: usize,
    /// First sample of the segment.
    pub start_sample: usize,
    /// One past the last sample.
    pub end_sample: usize,
}

/// Collapses per-frame labels into contiguous sample segments.
///
/// Frame `t` covers samples `[t*hop, t*hop + frame_len)`; segment
/// boundaries are placed at frame centers so adjacent segments tile the
/// signal without overlap.
pub fn segments_from_labels(
    labels: &[usize],
    stft: StftConfig,
    total_samples: usize,
) -> Vec<Segment> {
    let mut segments: Vec<Segment> = Vec::new();
    let center = |t: usize| t * stft.hop + stft.frame_len / 2;
    for (t, &label) in labels.iter().enumerate() {
        match segments.last_mut() {
            Some(last) if last.region == label => {
                last.end_sample = center(t + 1).min(total_samples);
            }
            _ => {
                let start = segments.last().map_or(0, |s| s.end_sample);
                segments.push(Segment {
                    region: label,
                    start_sample: start,
                    end_sample: center(t + 1).min(total_samples),
                });
            }
        }
    }
    if let Some(last) = segments.last_mut() {
        last.end_sample = total_samples;
    }
    segments
}

/// Table V's per-region row: misses, rate, stall share, average latency.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// Stall events attributed to the region.
    pub total_misses: usize,
    /// Misses per million cycles of the region's execution time.
    pub miss_rate_per_mcycle: f64,
    /// Region cycles spent in detected stalls, as a percentage of the
    /// region's cycles.
    pub mem_stall_pct: f64,
    /// Average detected stall latency in cycles.
    pub avg_miss_latency_cycles: f64,
    /// Total cycles attributed to the region.
    pub region_cycles: f64,
}

/// Attributes a profile's stall events to regions (Table V).
///
/// Segments belonging to the same region are accumulated together, so a
/// region executed in several episodes reports one aggregate row, in
/// signature order.
pub fn attribute(profile: &Profile, set: &SignatureSet, segments: &[Segment]) -> Vec<RegionReport> {
    let n = set.signatures().len();
    let mut misses = vec![0usize; n];
    let mut stall_cycles = vec![0.0f64; n];
    let mut cycles = vec![0.0f64; n];
    for seg in segments {
        if seg.region >= n {
            continue;
        }
        let slice = profile.slice_samples(seg.start_sample, seg.end_sample);
        misses[seg.region] += slice.events().len();
        stall_cycles[seg.region] += slice.total_stall_cycles();
        cycles[seg.region] += slice.total_cycles();
    }
    (0..n)
        .map(|i| RegionReport {
            name: set.signatures()[i].name().to_string(),
            total_misses: misses[i],
            miss_rate_per_mcycle: if cycles[i] > 0.0 {
                misses[i] as f64 / cycles[i] * 1e6
            } else {
                0.0
            },
            mem_stall_pct: if cycles[i] > 0.0 {
                stall_cycles[i] / cycles[i] * 100.0
            } else {
                0.0
            },
            avg_miss_latency_cycles: if misses[i] > 0 {
                stall_cycles[i] / misses[i] as f64
            } else {
                0.0
            },
            region_cycles: cycles[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_core::{Confidence, StallEvent, StallKind};

    fn tone(freq: f64, level: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| level + (std::f64::consts::TAU * freq * i as f64).sin())
            .collect()
    }

    fn cfg() -> StftConfig {
        StftConfig {
            frame_len: 256,
            hop: 128,
            ..Default::default()
        }
    }

    fn two_region_signal() -> Vec<f64> {
        let mut s = tone(0.04, 3.0, 50_000);
        s.extend(tone(0.18, 3.0, 50_000));
        s
    }

    #[test]
    fn trains_distinct_signatures() {
        let signal = two_region_signal();
        let set = SignatureSet::train(&signal, &[("a", 0..50_000), ("b", 50_000..100_000)], cfg())
            .unwrap();
        let d = cosine_distance(
            set.signatures()[0].spectrum(),
            set.signatures()[1].spectrum(),
        );
        assert!(d > 0.5, "signatures too similar: distance {d}");
    }

    #[test]
    fn classification_recovers_regions() {
        let signal = two_region_signal();
        let set = SignatureSet::train(&signal, &[("a", 0..50_000), ("b", 50_000..100_000)], cfg())
            .unwrap();
        let labels = set.classify(&signal);
        let mid = labels.len() / 2;
        let first_half_a = labels[..mid - 5].iter().filter(|&&l| l == 0).count();
        let second_half_b = labels[mid + 5..].iter().filter(|&&l| l == 1).count();
        assert!(first_half_a as f64 > 0.95 * (mid - 5) as f64);
        assert!(second_half_b as f64 > 0.95 * (labels.len() - mid - 5) as f64);
    }

    #[test]
    fn classification_generalizes_to_fresh_signal() {
        // Train on one realization, classify another (phase-shifted).
        let train_signal = two_region_signal();
        let set = SignatureSet::train(
            &train_signal,
            &[("a", 0..50_000), ("b", 50_000..100_000)],
            cfg(),
        )
        .unwrap();
        let mut test_signal = tone(0.18, 3.0, 30_000); // region b first this time
        test_signal.extend(tone(0.04, 3.0, 30_000));
        let labels = set.classify(&test_signal);
        assert_eq!(labels[10], 1);
        assert_eq!(labels[labels.len() - 10], 0);
    }

    #[test]
    fn segments_tile_the_signal() {
        let labels = vec![0, 0, 0, 1, 1, 1, 1, 0, 0];
        let segs = segments_from_labels(&labels, cfg(), 2000);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].start_sample, 0);
        for pair in segs.windows(2) {
            assert_eq!(pair[0].end_sample, pair[1].start_sample);
        }
        assert_eq!(segs.last().unwrap().end_sample, 2000);
        assert_eq!(
            segs.iter().map(|s| s.region).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
    }

    #[test]
    fn median_filter_removes_blips() {
        let labels = vec![0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1];
        let filtered = median_filter(&labels, 2);
        assert_eq!(filtered[3], 0, "isolated blip should be removed");
        assert_eq!(filtered[8], 1);
    }

    #[test]
    fn attribution_charges_stalls_to_the_right_region() {
        // Build a profile with 3 events in [0, 1000) and 1 in [1000, 2000).
        let ev = |s: usize| StallEvent {
            start_sample: s,
            end_sample: s + 12,
            duration_cycles: 300.0,
            kind: StallKind::Normal,
            confidence: Confidence::High,
        };
        let profile = Profile::new(vec![ev(100), ev(400), ev(700), ev(1500)], 2000, 40e6, 1.0e9);
        let signal = two_region_signal();
        let set = SignatureSet::train(
            &signal,
            &[("hot", 0..50_000), ("cool", 50_000..100_000)],
            cfg(),
        )
        .unwrap();
        let segments = vec![
            Segment {
                region: 0,
                start_sample: 0,
                end_sample: 1000,
            },
            Segment {
                region: 1,
                start_sample: 1000,
                end_sample: 2000,
            },
        ];
        let report = attribute(&profile, &set, &segments);
        assert_eq!(report[0].total_misses, 3);
        assert_eq!(report[1].total_misses, 1);
        assert!(report[0].miss_rate_per_mcycle > report[1].miss_rate_per_mcycle);
        assert!((report[0].avg_miss_latency_cycles - 300.0).abs() < 1e-9);
        assert!(report[0].mem_stall_pct > report[1].mem_stall_pct);
    }

    #[test]
    fn split_region_segments_accumulate() {
        let ev = |s: usize| StallEvent {
            start_sample: s,
            end_sample: s + 10,
            duration_cycles: 250.0,
            kind: StallKind::Normal,
            confidence: Confidence::High,
        };
        let profile = Profile::new(vec![ev(100), ev(1200)], 2000, 40e6, 1.0e9);
        let signal = two_region_signal();
        let set = SignatureSet::train(&signal, &[("a", 0..50_000), ("b", 50_000..100_000)], cfg())
            .unwrap();
        // Region 0 appears twice.
        let segments = vec![
            Segment {
                region: 0,
                start_sample: 0,
                end_sample: 500,
            },
            Segment {
                region: 1,
                start_sample: 500,
                end_sample: 1000,
            },
            Segment {
                region: 0,
                start_sample: 1000,
                end_sample: 2000,
            },
        ];
        let report = attribute(&profile, &set, &segments);
        assert_eq!(report[0].total_misses, 2);
        assert_eq!(report[1].total_misses, 0);
        assert_eq!(report[1].avg_miss_latency_cycles, 0.0);
    }

    #[test]
    fn training_errors() {
        let signal = vec![0.0; 1000];
        assert!(SignatureSet::train(&signal, &[], cfg()).is_err());
        assert!(SignatureSet::train(&signal, &[("x", 0..2000)], cfg()).is_err());
        assert!(SignatureSet::train(&signal, &[("x", 0..100)], cfg()).is_err());
    }
}
