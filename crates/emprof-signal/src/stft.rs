//! Short-time Fourier transform (spectrogram).
//!
//! Fig. 14 of the paper shows the spectrogram of the *parser* benchmark:
//! distinct loop-level regions of code produce distinct short-term spectra,
//! which is what Spectral Profiling keys on and what the attribution crate
//! reuses. This module turns a magnitude signal into a sequence of windowed
//! magnitude spectra.

use crate::fft;
use crate::window::WindowKind;
use crate::Complex;

/// Configuration for [`Stft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StftConfig {
    /// FFT frame length in samples; must be a power of two.
    pub frame_len: usize,
    /// Distance between the starts of consecutive frames.
    pub hop: usize,
    /// Analysis window applied to each frame.
    pub window: WindowKind,
}

impl Default for StftConfig {
    fn default() -> Self {
        StftConfig {
            frame_len: 1024,
            hop: 256,
            window: WindowKind::Hann,
        }
    }
}

impl StftConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when `frame_len` is not a power of two or `hop`
    /// is zero.
    pub fn validate(&self) -> Result<(), String> {
        if !self.frame_len.is_power_of_two() {
            return Err(format!(
                "frame_len {} must be a power of two",
                self.frame_len
            ));
        }
        if self.hop == 0 {
            return Err("hop must be nonzero".to_string());
        }
        Ok(())
    }
}

/// A computed spectrogram: rows are time frames, columns are frequency bins
/// `0..frame_len/2`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    frames: Vec<Vec<f64>>,
    config: StftConfig,
}

impl Spectrogram {
    /// Number of time frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of frequency bins per frame (`frame_len / 2`).
    pub fn num_bins(&self) -> usize {
        self.frames.first().map_or(0, Vec::len)
    }

    /// Magnitude spectrum of frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_frames()`.
    pub fn frame(&self, t: usize) -> &[f64] {
        &self.frames[t]
    }

    /// Iterates over the frames in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<f64>> {
        self.frames.iter()
    }

    /// The sample index at the *center* of frame `t`, for aligning frames
    /// with events detected in the time-domain signal.
    pub fn frame_center_sample(&self, t: usize) -> usize {
        t * self.config.hop + self.config.frame_len / 2
    }

    /// The configuration that produced this spectrogram.
    pub fn config(&self) -> StftConfig {
        self.config
    }
}

impl<'a> IntoIterator for &'a Spectrogram {
    type Item = &'a Vec<f64>;
    type IntoIter = std::slice::Iter<'a, Vec<f64>>;
    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

/// Short-time Fourier transform engine.
///
/// # Example
///
/// ```
/// use emprof_signal::stft::{Stft, StftConfig};
///
/// let stft = Stft::new(StftConfig { frame_len: 64, hop: 32, ..Default::default() })?;
/// let tone: Vec<f64> = (0..1000)
///     .map(|i| (std::f64::consts::TAU * 8.0 * i as f64 / 64.0).sin())
///     .collect();
/// let spec = stft.compute(&tone);
/// assert!(spec.num_frames() > 20);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct Stft {
    config: StftConfig,
    window: Vec<f64>,
}

impl Stft {
    /// Creates an STFT engine, materializing the analysis window.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid (see
    /// [`StftConfig::validate`]).
    pub fn new(config: StftConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Stft {
            config,
            window: config.window.vector(config.frame_len),
        })
    }

    /// Computes the spectrogram of a real signal.
    ///
    /// Produces `floor((len - frame_len) / hop) + 1` frames; a signal
    /// shorter than one frame yields an empty spectrogram.
    pub fn compute(&self, signal: &[f64]) -> Spectrogram {
        let fl = self.config.frame_len;
        let mut frames = Vec::new();
        if signal.len() >= fl {
            let mut start = 0;
            let mut buf = vec![Complex::ZERO; fl];
            while start + fl <= signal.len() {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = Complex::from_re(signal[start + i] * self.window[i]);
                }
                fft::forward(&mut buf);
                frames.push(buf[..fl / 2].iter().map(|c| c.norm()).collect());
                start += self.config.hop;
            }
        }
        Spectrogram {
            frames,
            config: self.config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq_bin: f64, frame_len: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (std::f64::consts::TAU * freq_bin * i as f64 / frame_len as f64).sin())
            .collect()
    }

    #[test]
    fn frame_count_formula() {
        let stft = Stft::new(StftConfig {
            frame_len: 64,
            hop: 16,
            window: WindowKind::Hann,
        })
        .unwrap();
        let spec = stft.compute(&vec![0.0; 256]);
        assert_eq!(spec.num_frames(), (256 - 64) / 16 + 1);
        assert_eq!(spec.num_bins(), 32);
    }

    #[test]
    fn tone_peaks_in_correct_bin() {
        let stft = Stft::new(StftConfig {
            frame_len: 128,
            hop: 64,
            window: WindowKind::Hann,
        })
        .unwrap();
        let spec = stft.compute(&tone(10.0, 128, 2000));
        for frame in spec.iter() {
            let peak = frame
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(peak, 10);
        }
    }

    #[test]
    fn switching_tones_produce_distinct_frames() {
        // First half at bin 4, second half at bin 20: frames should change.
        let mut signal = tone(4.0, 128, 4096);
        signal.extend(tone(20.0, 128, 4096));
        let stft = Stft::new(StftConfig {
            frame_len: 128,
            hop: 128,
            window: WindowKind::Hann,
        })
        .unwrap();
        let spec = stft.compute(&signal);
        let first = spec.frame(2);
        let last = spec.frame(spec.num_frames() - 3);
        let peak = |f: &[f64]| {
            f.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(peak(first), 4);
        assert_eq!(peak(last), 20);
    }

    #[test]
    fn short_signal_is_empty_spectrogram() {
        let stft = Stft::new(StftConfig::default()).unwrap();
        let spec = stft.compute(&[0.0; 10]);
        assert_eq!(spec.num_frames(), 0);
        assert_eq!(spec.num_bins(), 0);
    }

    #[test]
    fn frame_center_alignment() {
        let cfg = StftConfig {
            frame_len: 64,
            hop: 32,
            window: WindowKind::Hann,
        };
        let stft = Stft::new(cfg).unwrap();
        let spec = stft.compute(&vec![0.0; 256]);
        assert_eq!(spec.frame_center_sample(0), 32);
        assert_eq!(spec.frame_center_sample(3), 3 * 32 + 32);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Stft::new(StftConfig {
            frame_len: 100,
            hop: 10,
            window: WindowKind::Hann
        })
        .is_err());
        assert!(Stft::new(StftConfig {
            frame_len: 64,
            hop: 0,
            window: WindowKind::Hann
        })
        .is_err());
    }
}
