//! Window functions used for FIR design and the STFT.
//!
//! The receiver chain band-limits with windowed-sinc filters and the
//! attribution spectrogram uses Hann-windowed frames; both need the classic
//! cosine-family windows collected here.

/// The window functions supported by the crate.
///
/// Each variant trades main-lobe width against side-lobe suppression:
/// `Rectangular` has the narrowest main lobe but only −13 dB side lobes,
/// `Blackman` suppresses side lobes below −58 dB at triple the main-lobe
/// width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowKind {
    /// No tapering (all ones).
    Rectangular,
    /// Hann (raised cosine) window: good general-purpose STFT window.
    #[default]
    Hann,
    /// Hamming window: slightly better near side-lobe suppression than Hann.
    Hamming,
    /// Blackman window: strong side-lobe suppression for filter design.
    Blackman,
}

impl WindowKind {
    /// Evaluates the window at position `n` of an `len`-point window.
    ///
    /// Uses the *symmetric* convention (`w[0] == w[len-1]`), which is what
    /// FIR design wants. For `len == 1` the value is `1.0`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= len`.
    pub fn value(self, n: usize, len: usize) -> f64 {
        assert!(n < len, "window index {n} out of range for length {len}");
        if len == 1 {
            return 1.0;
        }
        let x = n as f64 / (len - 1) as f64; // in [0, 1]
        let tau = std::f64::consts::TAU;
        match self {
            WindowKind::Rectangular => 1.0,
            WindowKind::Hann => 0.5 - 0.5 * (tau * x).cos(),
            WindowKind::Hamming => 0.54 - 0.46 * (tau * x).cos(),
            WindowKind::Blackman => 0.42 - 0.5 * (tau * x).cos() + 0.08 * (2.0 * tau * x).cos(),
        }
    }

    /// Materializes the whole window as a vector.
    ///
    /// # Example
    ///
    /// ```
    /// use emprof_signal::window::WindowKind;
    ///
    /// let w = WindowKind::Hann.vector(5);
    /// assert_eq!(w.len(), 5);
    /// assert!((w[2] - 1.0).abs() < 1e-12); // symmetric peak in the middle
    /// ```
    pub fn vector(self, len: usize) -> Vec<f64> {
        (0..len).map(|n| self.value(n, len)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_symmetric() {
        for kind in [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
        ] {
            let w = kind.vector(33);
            for i in 0..w.len() {
                assert!(
                    (w[i] - w[w.len() - 1 - i]).abs() < 1e-12,
                    "{kind:?} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let w = WindowKind::Hann.vector(17);
        assert!(w[0].abs() < 1e-12);
        assert!(w[16].abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints_are_point_zero_eight() {
        let w = WindowKind::Hamming.vector(9);
        assert!((w[0] - 0.08).abs() < 1e-9);
    }

    #[test]
    fn blackman_peak_is_one() {
        let w = WindowKind::Blackman.vector(65);
        assert!((w[32] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rectangular_is_all_ones() {
        assert!(WindowKind::Rectangular.vector(12).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn length_one_window_is_one() {
        for kind in [WindowKind::Hann, WindowKind::Blackman] {
            assert_eq!(kind.vector(1), vec![1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        WindowKind::Hann.value(5, 5);
    }
}
