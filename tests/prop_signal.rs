//! Property-based tests on the DSP substrate's invariants.

use emprof::par::Parallelism;
use emprof::signal::stats::{moving_average, moving_max, moving_min, normalize_moving_minmax};
use emprof::signal::{fft, fir, resample, Complex};
use proptest::prelude::*;

fn bounded_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The moving minimum never exceeds the sample it is centered on, the
    /// moving maximum never undercuts it, and both bound the average.
    #[test]
    fn moving_extrema_bound_the_signal(
        signal in bounded_signal(300),
        window in 1usize..64,
    ) {
        let lo = moving_min(&signal, window);
        let hi = moving_max(&signal, window);
        let avg = moving_average(&signal, window);
        for i in 0..signal.len() {
            prop_assert!(lo[i] <= signal[i]);
            prop_assert!(hi[i] >= signal[i]);
            prop_assert!(lo[i] <= avg[i] + 1e-9 && avg[i] <= hi[i] + 1e-9);
        }
    }

    /// Normalization always lands in [0, 1] and is invariant under
    /// positive affine gain (the probe-position property EMPROF relies on).
    #[test]
    fn normalization_is_gain_invariant(
        signal in bounded_signal(300),
        window in 2usize..128,
        gain in 0.01f64..100.0,
    ) {
        let a = normalize_moving_minmax(&signal, window);
        prop_assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let scaled: Vec<f64> = signal.iter().map(|&v| v * gain).collect();
        let b = normalize_moving_minmax(&scaled, window);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-6, "gain changed normalization: {x} vs {y}");
        }
    }

    /// FFT round trip is the identity (within numerical tolerance).
    #[test]
    fn fft_round_trip(
        re in prop::collection::vec(-1e3f64..1e3, 1..=128),
    ) {
        let n = re.len().next_power_of_two();
        let mut buf: Vec<Complex> = re.iter().map(|&v| Complex::from_re(v)).collect();
        buf.resize(n, Complex::ZERO);
        let original = buf.clone();
        fft::forward(&mut buf);
        fft::inverse(&mut buf);
        for (a, b) in buf.iter().zip(&original) {
            prop_assert!((*a - *b).norm() < 1e-6);
        }
    }

    /// Parseval: the FFT preserves energy (up to the 1/n convention).
    #[test]
    fn fft_preserves_energy(
        re in prop::collection::vec(-1e3f64..1e3, 1..=256),
    ) {
        let n = re.len().next_power_of_two();
        let mut buf: Vec<Complex> = re.iter().map(|&v| Complex::from_re(v)).collect();
        buf.resize(n, Complex::ZERO);
        let time: f64 = buf.iter().map(|c| c.norm_sqr()).sum();
        fft::forward(&mut buf);
        let freq: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() <= 1e-6 * time.max(1.0));
    }

    /// FIR lowpass taps always sum to one (unit DC gain), so constant
    /// signals pass through unchanged.
    #[test]
    fn fir_has_unit_dc_gain(
        taps in 1usize..200,
        cutoff in 0.01f64..0.49,
        level in -100.0f64..100.0,
    ) {
        let h = fir::lowpass(taps, cutoff);
        let sum: f64 = h.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let x = vec![level; 300];
        let y = fir::filter(&x, &h);
        // Check away from the edges.
        prop_assert!((y[150] - level).abs() < 1e-6 * level.abs().max(1.0));
    }

    /// Resampling preserves length proportionally and preserves the mean
    /// of a constant signal.
    #[test]
    fn resample_preserves_constants(
        level in -10.0f64..10.0,
        in_rate in 1.0f64..100.0,
        out_rate in 1.0f64..100.0,
    ) {
        let x = vec![level; 2000];
        let y = resample::resample(&x, in_rate, out_rate);
        let expected_len = (2000.0 * out_rate / in_rate).floor() as usize;
        prop_assert!((y.len() as i64 - expected_len as i64).abs() <= 1);
        if y.len() > 200 {
            let mid = y[y.len() / 2];
            prop_assert!((mid - level).abs() < 1e-6 * level.abs().max(1.0));
        }
    }
}

/// Rate ratios (input over output) the resampling properties sweep: the
/// paper's Olimex ratio, an integer one, one just above an integer (so
/// `ceil` picks the longer kernel) and a small one with a short kernel.
const RATIOS: [f64; 4] = [25.2, 25.0, 4.0001, 1.5];
const THREADS: [usize; 3] = [1, 2, 5];

/// Linear interpolation of `filtered` at `n * ratio`, clamped to the last
/// value at the right edge: the specification `resample` must meet.
fn interpolate(filtered: &[f64], ratio: f64, out_len: usize) -> Vec<f64> {
    (0..out_len)
        .map(|n| {
            let pos = n as f64 * ratio;
            let i = pos.floor() as usize;
            if i + 1 >= filtered.len() {
                return filtered[filtered.len() - 1];
            }
            let frac = pos - i as f64;
            filtered[i] * (1.0 - frac) + filtered[i + 1] * frac
        })
        .collect()
}

/// Asserts `got` is within `1e-9·scale` of `want`, elementwise.
fn assert_close(got: &[f64], want: &[f64], scale: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert!((a - b).abs() < 1e-9 * scale, "i={}: {} vs {}", i, a, b);
    }
    Ok(())
}

/// Signal lengths for a rate reduction by `ratio` with a `taps`-long
/// kernel, besides the drawn signal's own: shorter than the kernel (every
/// output falls back to single-output evaluation), just past it (only a
/// few whole groups are interior) and one whose output count is not a
/// multiple of the group size (a tail of single outputs). `extra` varies
/// them from case to case.
fn edge_lengths(taps: usize, ratio: f64, extra: usize) -> [usize; 3] {
    let group_span = (resample::GROUP as f64 * ratio).ceil() as usize;
    let outputs = 3 * resample::GROUP + 1 + extra % (resample::GROUP - 1);
    [
        1 + extra % taps.max(2),
        taps + 1 + extra % group_span,
        (outputs as f64 * ratio).ceil() as usize + 1,
    ]
}

/// `signal` repeated or cut to `len` samples, as `f64` and narrowed to
/// the `f32` the receiver feeds; the `f64` copy is the `f32` one widened.
fn at_length(signal: &[f64], len: usize) -> (Vec<f64>, Vec<f32>) {
    let narrow: Vec<f32> = signal.iter().cycle().take(len).map(|&v| v as f32).collect();
    (narrow.iter().map(|&v| f64::from(v)).collect(), narrow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Downsampling is exactly "filter, then interpolate": bit-identical
    /// to `filter_direct` plus linear interpolation for every thread
    /// count, and within FFT rounding of the overlap-save composite.
    /// Lengths run from well under the 417-tap Olimex kernel to past the
    /// overlap-save threshold. The same holds for `f32` input, read in
    /// place, at the drawn length and at the group kernel's edge lengths.
    #[test]
    fn resample_is_filter_then_interpolate(
        signal in bounded_signal(2_500),
        extra in 0usize..1_000,
    ) {
        let scale = signal.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
        for ratio in RATIOS {
            let taps = resample::anti_alias_filter(ratio);
            let out_len = (signal.len() as f64 / ratio).floor() as usize;
            let want = interpolate(&fir::filter_direct(&signal, &taps), ratio, out_len);
            for threads in THREADS {
                let got = resample::resample_par(&signal, ratio, 1.0, Parallelism::new(threads));
                prop_assert_eq!(&got, &want, "ratio {} threads {}", ratio, threads);
            }
            let fft = interpolate(&fir::filter(&signal, &taps), ratio, out_len);
            assert_close(&want, &fft, scale)?;

            let lengths = edge_lengths(taps.len(), ratio, extra);
            for len in lengths.into_iter().chain([signal.len()]) {
                let (wide, narrow) = at_length(&signal, len);
                let out_len = (len as f64 / ratio).floor() as usize;
                let want = interpolate(&fir::filter_direct(&wide, &taps), ratio, out_len);
                for threads in THREADS {
                    let par = Parallelism::new(threads);
                    let got = resample::resample_par(&narrow, ratio, 1.0, par);
                    prop_assert_eq!(&got, &want, "f32 ratio {} len {} threads {}", ratio, len, threads);
                    if len != signal.len() {
                        let got = resample::resample_par(&wide, ratio, 1.0, par);
                        prop_assert_eq!(&got, &want, "ratio {} len {} threads {}", ratio, len, threads);
                    }
                }
            }
        }
    }
}
