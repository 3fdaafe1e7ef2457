//! Radix-2 Cooley–Tukey FFT.
//!
//! Powers the STFT used by the Spectral-Profiling-style attribution stage
//! (Fig. 14 / Table V of the paper). Implemented iteratively with
//! precomputable twiddle factors; sizes must be powers of two.

use crate::Complex;

/// In-place forward FFT of a power-of-two-length buffer.
///
/// Uses the standard decimation-in-time radix-2 algorithm:
/// bit-reversal permutation followed by log2(n) butterfly passes.
/// No normalization is applied (matching the common engineering
/// convention); [`inverse`] divides by `n` so a round trip is the identity.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two (zero length included).
///
/// # Example
///
/// ```
/// use emprof_signal::{fft, Complex};
///
/// let mut buf = vec![Complex::ONE; 8];
/// fft::forward(&mut buf);
/// // DC signal concentrates in bin 0.
/// assert!((buf[0].re - 8.0).abs() < 1e-12);
/// assert!(buf[1].norm() < 1e-12);
/// ```
pub fn forward(buf: &mut [Complex]) {
    fft_dir(buf, false);
}

/// In-place inverse FFT, normalized by `1/n` so that
/// `inverse(forward(x)) == x`.
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
pub fn inverse(buf: &mut [Complex]) {
    fft_dir(buf, true);
    let n = buf.len() as f64;
    for v in buf.iter_mut() {
        *v = *v / n;
    }
}

fn fft_dir(buf: &mut [Complex], invert: bool) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n == 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterfly passes.
    let sign = if invert { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex::from_phase(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = buf[start + k];
                let v = buf[start + k + len / 2] * w;
                buf[start + k] = u + v;
                buf[start + k + len / 2] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, eps: f64) {
        assert!(
            (a - b).norm() < eps,
            "expected {b:?}, got {a:?} (eps {eps})"
        );
    }

    #[test]
    fn dc_concentrates_in_bin_zero() {
        let mut buf = vec![Complex::from_re(2.0); 16];
        forward(&mut buf);
        assert_close(buf[0], Complex::from_re(32.0), 1e-9);
        for b in &buf[1..] {
            assert!(b.norm() < 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_its_bin() {
        let n = 64;
        let k = 5;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::from_re((std::f64::consts::TAU * k as f64 * i as f64 / n as f64).cos())
            })
            .collect();
        forward(&mut buf);
        let mag: Vec<f64> = buf[..n / 2].iter().map(|c| c.norm()).collect();
        let peak = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k);
        assert!((mag[k] - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn forward_inverse_round_trip() {
        let original: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let mut buf = original.clone();
        forward(&mut buf);
        inverse(&mut buf);
        for (a, b) in buf.iter().zip(&original) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let signal: Vec<Complex> = (0..256)
            .map(|i| Complex::new(((i * 7) % 13) as f64, ((i * 3) % 5) as f64))
            .collect();
        let time_energy: f64 = signal.iter().map(|c| c.norm_sqr()).sum();
        let mut buf = signal;
        forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / buf.len() as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex> = (0..32).map(|i| Complex::from_re(i as f64)).collect();
        let b: Vec<Complex> = (0..32).map(|i| Complex::new(0.0, (i % 3) as f64)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        forward(&mut fa);
        forward(&mut fb);
        let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        forward(&mut fab);
        for i in 0..32 {
            assert_close(fab[i], fa[i] + fb[i], 1e-9);
        }
    }

    #[test]
    fn size_one_fft_is_identity() {
        let mut buf = vec![Complex::new(3.0, -1.0)];
        forward(&mut buf);
        assert_eq!(buf[0], Complex::new(3.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut buf = vec![Complex::ZERO; 12];
        forward(&mut buf);
    }
}
