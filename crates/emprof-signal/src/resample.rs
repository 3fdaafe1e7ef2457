//! Sample-rate conversion for the receiver chain.
//!
//! The processor emits one activity sample per clock cycle (~1 GHz) while
//! the capture rig digitizes at the measurement bandwidth (20–160 MHz).
//! The ratio is rarely an integer (e.g. 1.008 GHz / 40 MHz = 25.2), so the
//! chain resamples by linear interpolation, anti-aliased by filtering
//! *before* the rate falls.
//!
//! The filtered signal is never built. Each output reads only two
//! filtered values (~2 in 25 at the Olimex ratio), so those values are
//! computed where they are read: [`fir::filter_direct_group`] evaluates
//! the pairs of [`GROUP`] consecutive outputs in one pass over the taps,
//! and outputs at the signal's edges, or left over at the end of a range,
//! use [`fir::filter_direct_at`]. Every output is therefore bit-identical
//! to [`fir::filter_direct`] followed by interpolating, and nothing
//! proportional to the input is allocated besides the output.

use std::ops::Range;
use std::sync::Arc;

use emprof_par::{pool, Parallelism};

use crate::fir;
use crate::window::WindowKind;

/// Resamples a real signal by an arbitrary positive rational-ish ratio
/// `out_rate / in_rate`, anti-alias filtering first when the rate is being
/// reduced.
///
/// Output sample `n` is produced by linear interpolation at input position
/// `n * in_rate / out_rate`. Linear interpolation after proper band-limiting
/// introduces negligible error for the smooth envelope signals this crate
/// processes.
///
/// # Panics
///
/// Panics if either rate is not strictly positive.
pub fn resample(signal: &[f64], in_rate: f64, out_rate: f64) -> Vec<f64> {
    resample_par(signal, in_rate, out_rate, Parallelism::sequential())
}

/// [`resample`] with the output samples fanned out over a worker pool.
///
/// When the rate falls, output `n` interpolates the band-limited signal
/// between the two filtered values at `floor(n * ratio)` and the next
/// index, computed on the spot: [`GROUP`] outputs' pairs at a time by
/// [`fir::filter_direct_group`]. The result is bit-identical to
/// [`fir::filter_direct`] followed by linear interpolation, clamped to
/// the last filtered value at the right edge.
///
/// Output is bit-identical to [`resample`] for any thread count: every
/// output sample is an independent function of the source signal. The
/// signal may be any type that widens to `f64` exactly (the simulator's
/// `f32` power trace), read in place with the widened signal's result.
///
/// # Panics
///
/// Panics if either rate is not strictly positive.
pub fn resample_par<T: Copy + Into<f64> + Sync>(
    signal: &[T],
    in_rate: f64,
    out_rate: f64,
    par: Parallelism,
) -> Vec<f64> {
    assert!(
        in_rate > 0.0 && out_rate > 0.0,
        "sample rates must be positive (got {in_rate}, {out_rate})"
    );
    if signal.is_empty() {
        return Vec::new();
    }
    let ratio = in_rate / out_rate;
    let out_len = ((signal.len() as f64) / ratio).floor() as usize;
    if ratio <= 1.0 {
        return pool::map_ranges(par, out_len, |range| {
            range
                .map(|n| sample_linear(signal.len(), n as f64 * ratio, |i| signal[i].into()))
                .collect()
        });
    }
    // Downsampling: band-limit to the output Nyquist, evaluated only at
    // the positions the interpolation reads.
    let taps = anti_alias_filter(ratio);
    pool::map_ranges(par, out_len, |range| {
        downsample(signal, &taps, ratio, range)
    })
}

/// Outputs `range` of a falling-rate [`resample_par`] at `ratio`, read
/// through the anti-aliasing filter `taps`.
///
/// [`GROUP`] outputs at a time take their pairs from one
/// [`fir::filter_direct_group`] pass, until a group is cut off by the
/// end of the range or would read past the signal's right edge. The
/// rest go one at a time through [`fir::filter_direct_at`].
fn downsample<T: Copy + Into<f64>>(
    signal: &[T],
    taps: &[f64],
    ratio: f64,
    range: Range<usize>,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(range.len());
    let mut span = Vec::new();
    let mut n = range.start;
    while n + GROUP <= range.end {
        let pos: [f64; GROUP] = std::array::from_fn(|j| (n + j) as f64 * ratio);
        let i = pos.map(|p| p.floor() as usize);
        // An output whose pair would pass the right edge clamps; those
        // go one at a time. Only rounding gets an output there, at a
        // ratio within about `len · 2⁻⁵²` of 1 on a signal of about 2²⁶
        // samples or more.
        if i[GROUP - 1] + 1 >= signal.len() {
            break;
        }
        let v = fir::filter_direct_group(signal, taps, &i, &mut span);
        out.extend((0..GROUP).map(|j| lerp(v[j][0], v[j][1], pos[j] - i[j] as f64)));
        n += GROUP;
    }
    out.extend((n..range.end).map(|n| {
        sample_linear(signal.len(), n as f64 * ratio, |i| {
            fir::filter_direct_at(signal, taps, i)
        })
    }));
    out
}

/// Outputs [`fir::filter_direct_group`] evaluates in one pass.
pub const GROUP: usize = 8;

/// Linearly interpolates a `len`-sample signal, read through `at`, at a
/// fractional index, clamping to the final sample at the right edge.
fn sample_linear(len: usize, pos: f64, at: impl Fn(usize) -> f64) -> f64 {
    let i = pos.floor() as usize;
    if i + 1 >= len {
        return at(len - 1);
    }
    lerp(at(i), at(i + 1), pos - i as f64)
}

/// The interpolated value a fraction `frac` of the way from `a` to `b`.
fn lerp(a: f64, b: f64, frac: f64) -> f64 {
    a * (1.0 - frac) + b * frac
}

/// The anti-aliasing lowpass [`resample`] applies when
/// the rate falls by `ratio` (input rate over output rate, above 1).
///
/// The cutoff sits at `0.45 / ratio` of the input rate, slightly inside
/// the output Nyquist. The length grows with `ceil(ratio)`, as
/// `16·ceil(ratio) + 1` clamped to 33..=513 taps, so the transition band
/// stays narrow relative to the output Nyquist while the cost stays
/// bounded. Designs come from [`fir::lowpass_cached`].
///
/// # Panics
///
/// Panics if `ratio <= 0.9` (the cutoff would pass the input Nyquist).
pub fn anti_alias_filter(ratio: f64) -> Arc<Vec<f64>> {
    let taps = (16 * ratio.ceil() as usize + 1).clamp(33, 513);
    fir::lowpass_cached(taps, 0.45 / ratio, WindowKind::Blackman)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resample_removes_aliasing_tone() {
        // A tone just above the output Nyquist must not alias into the output.
        let factor = 8;
        let f = 0.45 / factor as f64 * 2.2; // above output Nyquist at input rate
        let x: Vec<f64> = (0..4000)
            .map(|i| (std::f64::consts::TAU * f * i as f64).sin())
            .collect();
        let y = resample(&x, factor as f64, 1.0);
        let peak = y[50..y.len() - 50]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(peak < 0.02, "aliased energy {peak}");
    }

    #[test]
    fn fractional_resample_length_and_dc() {
        // 1.008 GHz -> 40 MHz, the paper's Olimex capture ratio (25.2x).
        let x = vec![1.0; 25200];
        let y = resample(&x, 1.008e9, 40e6);
        assert_eq!(y.len(), 1000);
        assert!((y[500] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn upsample_interpolates_between_points() {
        let x = vec![0.0, 1.0];
        let y = resample(&x, 1.0, 4.0);
        assert_eq!(y.len(), 8);
        assert!((y[2] - 0.5).abs() < 1e-12); // position 0.5
    }

    #[test]
    fn resample_tracks_slow_feature_position() {
        // A dip at 60% of the signal should remain at 60% after resampling.
        let n = 10000;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let d = (i as f64 - 6000.0) / 200.0;
                1.0 - (-d * d).exp()
            })
            .collect();
        let y = resample(&x, 1.0, 1.0 / 7.3);
        let min_idx = y
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let expected = (6000.0 / 7.3) as i64;
        assert!(
            (min_idx as i64 - expected).abs() <= 2,
            "dip at {min_idx}, expected near {expected}"
        );
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(resample(&[], 10.0, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_panics() {
        resample(&[1.0], 0.0, 1.0);
    }

    #[test]
    fn output_past_the_right_edge_clamps() {
        // Output `out_len - 1` reads at most `len - ratio` exactly, but at
        // this ratio and length rounding puts its pair's second index at
        // `len`: the group holding it declines, and the output clamps to
        // the last filtered value. The zeroed signal is mapped lazily, so
        // only its tail, which the last outputs read, takes memory.
        let len = 134_217_530;
        let ratio = 1.000_000_007_450_591_7;
        let mut signal = vec![0u8; len];
        for (k, v) in signal[len - 64..].iter_mut().enumerate() {
            *v = (k * 37 % 251) as u8;
        }
        let out_len = (len as f64 / ratio).floor() as usize;
        let last = ((out_len - 1) as f64 * ratio).floor() as usize;
        assert_eq!(
            last + 1,
            len,
            "the last output's pair no longer passes the edge"
        );
        let taps = anti_alias_filter(ratio);
        let range = out_len - 2 * GROUP..out_len;
        // `filter_direct` then `sample_linear`, with the filtered values
        // the interpolation reads computed alone.
        let at = |i| fir::filter_direct_at(&signal, &taps, i);
        let reference: Vec<f64> = range
            .clone()
            .map(|n| sample_linear(len, n as f64 * ratio, at))
            .collect();
        assert_eq!(reference[2 * GROUP - 1], at(len - 1));
        assert_eq!(downsample(&signal, &taps, ratio, range), reference);
    }

    #[test]
    fn parallel_resample_is_bit_exact() {
        let x: Vec<f64> = (0..40_000usize)
            .map(|i| (i as f64 * 0.002).sin() + ((i * 2_654_435_761) % 89) as f64 / 89.0)
            .collect();
        // Downsampling (filter + interpolate) and upsampling (interpolate
        // only), across thread counts.
        for (in_rate, out_rate) in [(1.008e9, 40e6), (1.0, 2.5)] {
            let seq = resample(&x, in_rate, out_rate);
            for threads in [2, 5] {
                let par = resample_par(&x, in_rate, out_rate, Parallelism::new(threads));
                assert_eq!(seq, par, "{in_rate}->{out_rate} threads {threads}");
            }
        }
    }
}
