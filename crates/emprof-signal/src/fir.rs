//! Windowed-sinc FIR filter design and application.
//!
//! The capture rig in the paper band-limits the EM signal to the measurement
//! bandwidth (20–160 MHz around the clock frequency). The reproduction's
//! receiver models that band-limiting with linear-phase FIR lowpass filters
//! designed here, and applies them by point evaluation
//! ([`filter_direct_at`], [`filter_direct_group`]) at just the positions
//! its resampler reads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use emprof_obs as obs;

use crate::window::WindowKind;

/// Designs a linear-phase lowpass FIR filter with the windowed-sinc method.
///
/// `cutoff` is the −6 dB cutoff as a fraction of the *sampling* frequency,
/// so it must lie in `(0, 0.5)`. `taps` is the filter length; odd lengths
/// give a symmetric type-I filter with an integral group delay of
/// `(taps - 1) / 2` samples. A [`WindowKind::Blackman`] window is applied,
/// giving ~−58 dB stop-band ripple.
///
/// The taps are normalized to unit DC gain, so filtering a constant signal
/// reproduces the constant — important because EMPROF's stall detection
/// keys off absolute signal *levels*.
///
/// # Panics
///
/// Panics if `taps == 0` or `cutoff` is outside `(0, 0.5)`.
///
/// # Example
///
/// ```
/// use emprof_signal::fir;
///
/// let taps = fir::lowpass(63, 0.125);
/// let dc_gain: f64 = taps.iter().sum();
/// assert!((dc_gain - 1.0).abs() < 1e-12);
/// ```
pub fn lowpass(taps: usize, cutoff: f64) -> Vec<f64> {
    lowpass_with_window(taps, cutoff, WindowKind::Blackman)
}

/// Like [`lowpass`] but with an explicit window choice.
///
/// # Panics
///
/// Panics if `taps == 0` or `cutoff` is outside `(0, 0.5)`.
pub fn lowpass_with_window(taps: usize, cutoff: f64, window: WindowKind) -> Vec<f64> {
    assert!(taps > 0, "FIR filter must have at least one tap");
    assert!(
        cutoff > 0.0 && cutoff < 0.5,
        "cutoff {cutoff} must be in (0, 0.5) of the sample rate"
    );
    let mid = (taps as f64 - 1.0) / 2.0;
    let mut h: Vec<f64> = (0..taps)
        .map(|n| {
            let t = n as f64 - mid;
            let sinc = if t == 0.0 {
                2.0 * cutoff
            } else {
                (std::f64::consts::TAU * cutoff * t).sin() / (std::f64::consts::PI * t)
            };
            sinc * window.value(n, taps)
        })
        .collect();
    let sum: f64 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    h
}

/// Caches designed lowpass filters, keyed by `(taps, cutoff, window)`.
///
/// The receiver chain redesigns the same anti-aliasing filter for every
/// capture (identical length and cutoff each time); a 513-tap design costs
/// hundreds of transcendental evaluations, so repeated `resample` calls
/// pull the taps from this process-wide cache instead.
/// Hits and misses are visible as the `signal.taps_cache.hit` / `.miss`
/// counters when telemetry is on.
pub fn lowpass_cached(taps: usize, cutoff: f64, window: WindowKind) -> Arc<Vec<f64>> {
    type TapCache = Mutex<HashMap<(usize, u64, WindowKind), Arc<Vec<f64>>>>;
    static CACHE: OnceLock<TapCache> = OnceLock::new();
    // Distinct designs in practice number in the dozens (one per
    // resampling ratio); the cap only guards against pathological sweeps.
    const CACHE_CAP: usize = 64;

    let key = (taps, cutoff.to_bits(), window);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let map = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = map.get(&key) {
            obs::counter_add!("signal.taps_cache.hit", 1);
            return Arc::clone(hit);
        }
    }
    obs::counter_add!("signal.taps_cache.miss", 1);
    // Design outside the lock; a racing duplicate design is harmless.
    let designed = Arc::new(lowpass_with_window(taps, cutoff, window));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    Arc::clone(map.entry(key).or_insert(designed))
}

/// Applies an FIR filter to a real signal, returning a signal of the same
/// length: the direct (time-domain) convolution, [`filter_direct`].
///
/// The filter is applied with zero-padded history; the output is advanced
/// by the filter's group delay `(taps - 1) / 2` so features in the output
/// line up with features in the input (zero-phase behaviour for symmetric
/// filters).
///
/// Use this when most outputs are needed. The receiver's band-limiting
/// (`resample`) reads only the outputs its rate reduction keeps and
/// evaluates those with [`filter_direct_at`] and
/// [`filter_direct_group`] instead.
///
/// # Example
///
/// ```
/// use emprof_signal::fir;
///
/// let x = vec![1.0; 256];
/// let taps = fir::lowpass(31, 0.2);
/// let y = fir::filter(&x, &taps);
/// // Unit DC gain: the plateau passes through unchanged.
/// assert!((y[128] - 1.0).abs() < 1e-9);
/// ```
pub fn filter(signal: &[f64], taps: &[f64]) -> Vec<f64> {
    filter_direct(signal, taps)
}

/// Direct (time-domain) convolution: every output is
/// [`filter_direct_at`] at its index, so a caller that needs only some
/// outputs can evaluate just those.
///
/// # Panics
///
/// Panics if `taps` is empty.
pub fn filter_direct(signal: &[f64], taps: &[f64]) -> Vec<f64> {
    assert!(!taps.is_empty(), "FIR filter must have at least one tap");
    (0..signal.len())
        .map(|i| filter_direct_at(signal, taps, i))
        .collect()
}

/// Output `i` of [`filter_direct`], computed alone.
///
/// The sum runs over the taps in index order, skipping the taps that
/// fall off either end of the zero-padded signal, so the result is
/// bit-identical to `filter_direct(signal, taps)[i]`. Costs one pass
/// over the taps and allocates nothing. The signal may be any type that
/// widens to `f64` exactly (the simulator's `f32` power trace), read in
/// place: the result is that of the widened signal, bit for bit.
///
/// # Panics
///
/// Panics if `taps` is empty or `i` is not an index into `signal`.
///
/// # Example
///
/// ```
/// use emprof_signal::fir;
///
/// let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
/// let taps = fir::lowpass(21, 0.1);
/// assert_eq!(fir::filter_direct_at(&x, &taps, 40), fir::filter_direct(&x, &taps)[40]);
/// ```
pub fn filter_direct_at<T: Copy + Into<f64>>(signal: &[T], taps: &[f64], i: usize) -> f64 {
    assert!(!taps.is_empty(), "FIR filter must have at least one tap");
    assert!(
        i < signal.len(),
        "output {i} outside a {}-sample signal",
        signal.len()
    );
    // Output i is the convolution output at i + delay: the sum over taps
    // k of taps[k] * signal[center - k], for the k that land inside the
    // signal.
    let center = i + (taps.len() - 1) / 2;
    let k_lo = (center + 1).saturating_sub(signal.len());
    let k_hi = taps.len().min(center + 1);
    let mut acc = 0.0;
    for k in k_lo..k_hi {
        let x: f64 = signal[center - k].into();
        acc += taps[k] * x;
    }
    acc
}

/// Outputs `s` and `s + 1` of [`filter_direct`] for each of the `G`
/// ascending `starts` `s`, from one pass over the taps.
///
/// Away from the signal's edges every pair uses every tap. The span of
/// the signal the group reads is widened to `f64` once, into `span`
/// (scratch, reused across calls). Each pair then reads its own window
/// of `taps.len() + 1` values of it, fixed before the tap loop: tap `j`
/// reads the two adjacent values `taps.len() - 1 - j` in, one packed
/// multiply and add per pair and tap. The `2·G` sums run as independent
/// accumulators, each in [`filter_direct_at`]'s tap order, so every
/// value is bit-identical to it, while the add chains overlap in the
/// pipeline. Near an edge every output is a [`filter_direct_at`] call.
/// Like [`filter_direct_at`], it reads any signal that widens to `f64`
/// exactly.
///
/// # Panics
///
/// Panics if `taps` is empty, `G` is zero, `starts` is not ascending, or
/// the last output is not an index into `signal`.
///
/// # Example
///
/// ```
/// use emprof_signal::fir;
///
/// let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
/// let taps = fir::lowpass(21, 0.1);
/// let y = fir::filter_direct(&x, &taps);
/// let got = fir::filter_direct_group(&x, &taps, &[40, 47], &mut Vec::new());
/// assert_eq!(got, [[y[40], y[41]], [y[47], y[48]]]);
/// ```
pub fn filter_direct_group<T: Copy + Into<f64>, const G: usize>(
    signal: &[T],
    taps: &[f64],
    starts: &[usize; G],
    span: &mut Vec<f64>,
) -> [[f64; 2]; G] {
    assert!(!taps.is_empty(), "FIR filter must have at least one tap");
    assert!(
        G > 0 && starts.is_sorted(),
        "group starts must be nonempty and ascending"
    );
    let (first, last) = (starts[0], starts[G - 1] + 1);
    assert!(
        last < signal.len(),
        "output {last} outside a {}-sample signal",
        signal.len()
    );
    let k = taps.len();
    let half = (k - 1) / 2;
    if first + half + 1 < k || last + half >= signal.len() {
        // Some tap falls off an edge for at least one output.
        return starts.map(|s| [s, s + 1].map(|i| filter_direct_at(signal, taps, i)));
    }
    // Output i reads signal[i + half - j] for tap j, so the group reads
    // signal[lo..=last + half]. The pair at s reads its own window of the
    // k + 1 values from s - first on: elements k - 1 - j (output s) and
    // k - j (s + 1), side by side, so a tap is one packed load, multiply
    // and add per pair.
    let lo = first + half + 1 - k;
    span.clear();
    span.extend(signal[lo..=last + half].iter().map(|&x| x.into()));
    // The loop's shape is what lets the compiler drop every bounds check
    // from it: the windows are built by a loop (an `array::map` call
    // hides their lengths) and re-sliced to `len` where they are read,
    // the checked arithmetic, which cannot fail, states that no index
    // overflows, and the taps are indexed by a range (walking them by
    // iterator loses the fact that `j < k`).
    let len = k.checked_add(1).expect("taps fit in memory");
    let mut windows = [&span[..0]; G];
    for (w, &s) in windows.iter_mut().zip(starts) {
        *w = &span[s - first..][..len];
    }
    let mut acc = [[0.0; 2]; G];
    #[allow(clippy::needless_range_loop)]
    for j in 0..k {
        let t = taps[j];
        let m = (k - 1).checked_sub(j).expect("j < k");
        for (a, g) in acc.iter_mut().zip(&windows) {
            for (a, &x) in a.iter_mut().zip(&g[..len][m..m + 2]) {
                *a += t * x;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    /// The magnitude response of a filter at a normalized frequency
    /// (fraction of the sample rate, in `[0, 0.5]`): the filter-design
    /// tests' oracle for pass-band flatness and stop-band rejection.
    fn magnitude_response(taps: &[f64], freq: f64) -> f64 {
        let omega = std::f64::consts::TAU * freq;
        let mut acc = Complex::ZERO;
        for (n, &t) in taps.iter().enumerate() {
            acc += Complex::from_phase(-omega * n as f64) * t;
        }
        acc.norm()
    }

    #[test]
    fn lowpass_has_unit_dc_gain() {
        let taps = lowpass(101, 0.1);
        assert!((magnitude_response(&taps, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_passes_passband_and_rejects_stopband() {
        let taps = lowpass(127, 0.1);
        // Passband (well below cutoff): near unity.
        assert!((magnitude_response(&taps, 0.02) - 1.0).abs() < 1e-3);
        // Stopband (well above cutoff): heavily attenuated.
        assert!(magnitude_response(&taps, 0.25) < 1e-3);
        assert!(magnitude_response(&taps, 0.45) < 1e-3);
    }

    #[test]
    fn filter_preserves_length() {
        let x = vec![0.5; 300];
        let taps = lowpass(31, 0.2);
        assert_eq!(filter(&x, &taps).len(), 300);
    }

    #[test]
    fn filter_is_aligned_with_input() {
        // A step should transition at the same index in input and output
        // (the symmetric filter's half-amplitude point sits on the edge).
        let mut x = vec![0.0; 400];
        for v in x.iter_mut().skip(200) {
            *v = 1.0;
        }
        let taps = lowpass(63, 0.1);
        let y = filter(&x, &taps);
        // Half-amplitude crossing should be within a couple of samples of 200.
        let crossing = y.iter().position(|&v| v >= 0.5).unwrap();
        assert!(
            (crossing as i64 - 200).unsigned_abs() <= 2,
            "step crossing at {crossing}, expected near 200"
        );
    }

    #[test]
    fn filter_smooths_high_frequency() {
        // Alternating +1/-1 is at Nyquist; a 0.1 lowpass should crush it.
        let x: Vec<f64> = (0..500)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let taps = lowpass(63, 0.1);
        let y = filter(&x, &taps);
        let peak = y[100..400].iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(peak < 1e-3, "Nyquist tone leaked through: {peak}");
    }

    #[test]
    fn empty_signal_gives_empty_output() {
        let taps = lowpass(31, 0.2);
        assert!(filter(&[], &taps).is_empty());
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_above_nyquist_panics() {
        lowpass(31, 0.6);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn zero_taps_panics() {
        lowpass(0, 0.1);
    }

    #[test]
    fn single_tap_identity() {
        let taps = vec![1.0];
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(filter(&x, &taps), x);
    }

    /// A deterministic broadband test signal.
    fn wiggle(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let t = i as f64;
                (t * 0.11).sin() + 0.4 * (t * 0.037).cos() + ((i * 2654435761) % 97) as f64 / 97.0
            })
            .collect()
    }

    #[test]
    fn point_evaluation_matches_direct_at_every_index() {
        // Signals shorter than, equal to and longer than the kernel, so
        // every edge case of a group (left edge, right edge, both) is hit.
        let mut span = Vec::new();
        for k in [1usize, 2, 31, 64, 417] {
            let taps = lowpass(k, 0.07);
            for n in [1, 2, k / 2 + 1, k, k + 1, 3 * k + 7] {
                let x = wiggle(n);
                let direct = filter_direct(&x, &taps);
                for i in 0..n {
                    assert_eq!(
                        filter_direct_at(&x, &taps, i),
                        direct[i],
                        "k={k} n={n} i={i}"
                    );
                    if i + 1 < n {
                        let pair = filter_direct_group(&x, &taps, &[i], &mut span);
                        assert_eq!(pair, [[direct[i], direct[i + 1]]], "k={k} n={n} i={i}");
                    }
                    // Uneven gaps, a repeated start and a group that
                    // straddles an edge wherever one is near.
                    if n >= 2 {
                        let starts = [i, i + 1, i + 1, i + 4, i + 9].map(|s| s.min(n - 2));
                        let got = filter_direct_group(&x, &taps, &starts, &mut span);
                        let want = starts.map(|s| [direct[s], direct[s + 1]]);
                        assert_eq!(got, want, "k={k} n={n} starts={starts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn group_kernel_matches_direct_bit_for_bit() {
        // Asymmetric taps, so a kernel that walks them backwards differs
        // from one that walks them forwards, and an `f32` signal with
        // signed zeros, subnormals and both signs at every scale.
        let odd = |i: usize| (i.wrapping_mul(2_654_435_761) >> 7) % 1_000;
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::from_bits(1),
            1.5e-39,
        ];
        for k in [1usize, 2, 33, 417, 513] {
            let taps: Vec<f64> = (0..k)
                .map(|j| (odd(j + 7) as f64 - 480.0) / 997.0)
                .collect();
            let n = 2 * k + 220;
            let x: Vec<f32> = (0..n)
                .map(|i| match odd(i) % 7 {
                    0..=2 => specials[odd(i + 1) % specials.len()],
                    v => (odd(i + 2) as f32 - 500.0) * 10f32.powi(v as i32 - 5),
                })
                .collect();
            let wide: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
            let direct: Vec<u64> = filter_direct(&wide, &taps)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            let mut span = Vec::new();
            // Starts 1 apart (overlapping pairs), 2 apart (abutting) and
            // 25 or 26 apart, as at the Olimex ratio. The sweep puts a
            // group on every start from the left edge to the right one,
            // so both edge fallbacks and the first and last groups the
            // kernel takes are hit.
            let gaps: [&dyn Fn(usize) -> usize; 3] = [&|j| j, &|j| 2 * j, &|j| j * 126 / 5];
            for gap in gaps {
                let offsets: [usize; 8] = std::array::from_fn(gap);
                for first in 0..n - 1 - offsets[7] {
                    let starts = offsets.map(|d| first + d);
                    let got = filter_direct_group(&x, &taps, &starts, &mut span);
                    let want = starts.map(|s| [direct[s], direct[s + 1]]);
                    assert_eq!(
                        got.map(|p| p.map(f64::to_bits)),
                        want,
                        "k={k} starts={starts:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn group_past_the_last_output_panics() {
        filter_direct_group(&[1.0, 2.0], &[1.0], &[1], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn group_starts_out_of_order_panic() {
        filter_direct_group(&[1.0, 2.0], &[1.0], &[1, 0], &mut Vec::new());
    }

    #[test]
    fn tap_cache_returns_identical_designs() {
        let fresh = lowpass_with_window(101, 0.07, WindowKind::Blackman);
        let a = lowpass_cached(101, 0.07, WindowKind::Blackman);
        let b = lowpass_cached(101, 0.07, WindowKind::Blackman);
        assert_eq!(*a, fresh);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        // A different key designs a different filter.
        let c = lowpass_cached(101, 0.08, WindowKind::Blackman);
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
