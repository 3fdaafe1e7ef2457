//! DSP substrate for the EMPROF reproduction.
//!
//! The EMPROF paper (Dey et al., MICRO 2018) receives EM emanations with a
//! near-field probe, down-converts them around the processor clock frequency,
//! band-limits them to a measurement bandwidth, and analyzes the resulting
//! magnitude signal. This crate provides the signal-processing building
//! blocks that the rest of the reproduction is built on:
//!
//! * [`Complex`] — complex (IQ) baseband samples,
//! * [`fir`] — windowed-sinc FIR filter design and application,
//! * [`resample`] — anti-aliased fractional resampling,
//! * [`noise`] — additive white Gaussian noise sources,
//! * [`stats`] — O(n) moving minimum/maximum/average used by EMPROF's
//!   normalization stage,
//! * [`fused`] — the one-pass fused normalize-and-detect kernel the
//!   detector hot path runs on,
//! * [`fft`] and [`stft`] — radix-2 FFT and short-time Fourier transform for
//!   the Spectral-Profiling-style code attribution.
//!
//! Everything here is implemented from scratch (no external DSP crates) so
//! that the whole receiver chain is auditable against the paper's
//! description.
//!
//! # Example
//!
//! ```
//! use emprof_signal::{fir, stats};
//!
//! // Band-limit a signal the way the measurement bandwidth limits the
//! // EM capture, then normalize it with a moving min/max as EMPROF does.
//! let signal: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin().abs()).collect();
//! let taps = fir::lowpass(63, 0.1);
//! let filtered = fir::filter(&signal, &taps);
//! let norm = stats::normalize_moving_minmax(&filtered, 200);
//! assert_eq!(norm.len(), filtered.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
pub mod fft;
pub mod fir;
pub mod fused;
pub mod noise;
pub mod resample;
pub mod stats;
pub mod stft;
pub mod window;

pub use complex::Complex;
