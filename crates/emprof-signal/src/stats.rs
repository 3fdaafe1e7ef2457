//! Moving statistics used by EMPROF's normalization stage.
//!
//! Section IV of the paper: *"EMPROF compensates for these effects by
//! tracking a moving minimum and maximum of the signal's magnitude and
//! using them to normalize the signal's magnitude to a range between 0
//! ... and 1"*. The moving extrema here use the monotonic-wedge algorithm,
//! so normalizing an `n`-sample capture costs O(n) regardless of window
//! length — essential because captures run to tens of millions of samples.

use std::collections::VecDeque;

/// Sliding-window minimum of a signal, centered on each sample.
///
/// For sample `i` the window covers `[i - w/2, i + w/2]` clipped to the
/// signal bounds, where `w = window`. Centered windows keep the normalized
/// signal aligned with the raw signal, which matters when converting
/// detected dip positions back to cycle timestamps.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn moving_min(signal: &[f64], window: usize) -> Vec<f64> {
    moving_min_range(signal, window, 0, signal.len())
}

/// Sliding-window maximum; see [`moving_min`] for window conventions.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn moving_max(signal: &[f64], window: usize) -> Vec<f64> {
    moving_max_range(signal, window, 0, signal.len())
}

/// [`moving_min`] restricted to output positions `[start, end)`.
///
/// Each output still sees the same centered window *into the full
/// signal* as [`moving_min`] would, so the result equals the
/// corresponding slice of the full computation — the property the
/// parallel chunked normalizer relies on (each chunk reads up to
/// `window / 2` samples beyond its core range, its overlap margin).
///
/// # Panics
///
/// Panics if `window == 0` or `start..end` is not a valid range into the
/// signal.
pub fn moving_min_range(signal: &[f64], window: usize, start: usize, end: usize) -> Vec<f64> {
    moving_extreme_range(signal, window, |a, b| a <= b, start, end)
}

/// [`moving_max`] restricted to output positions `[start, end)`; see
/// [`moving_min_range`].
///
/// # Panics
///
/// Panics if `window == 0` or `start..end` is not a valid range into the
/// signal.
pub fn moving_max_range(signal: &[f64], window: usize, start: usize, end: usize) -> Vec<f64> {
    moving_extreme_range(signal, window, |a, b| a >= b, start, end)
}

/// Shared monotonic-wedge implementation: `keep(a, b)` returns true when
/// `a` should survive `b` arriving behind it in the deque.
fn moving_extreme_range(
    signal: &[f64],
    window: usize,
    keep: fn(f64, f64) -> bool,
    start: usize,
    end: usize,
) -> Vec<f64> {
    assert!(window > 0, "window must be nonzero");
    let n = signal.len();
    assert!(
        start <= end && end <= n,
        "range {start}..{end} out of bounds for length {n}"
    );
    let mut out = Vec::with_capacity(end - start);
    if start == end {
        return out;
    }
    let half = window / 2;
    // Deque of indices with monotone values.
    let mut dq: VecDeque<usize> = VecDeque::new();
    let mut right = start.saturating_sub(half); // next index to admit
    for i in start..end {
        let win_end = (i + half).min(n - 1);
        let win_start = i.saturating_sub(half);
        while right <= win_end {
            while let Some(&back) = dq.back() {
                if keep(signal[right], signal[back]) {
                    dq.pop_back();
                } else {
                    break;
                }
            }
            dq.push_back(right);
            right += 1;
        }
        while let Some(&front) = dq.front() {
            if front < win_start {
                dq.pop_front();
            } else {
                break;
            }
        }
        out.push(signal[*dq.front().expect("window always non-empty")]);
    }
    out
}

/// Centered moving average with the same window conventions as
/// [`moving_min`]. Edge windows are truncated (averaged over fewer
/// samples), not zero-padded.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn moving_average(signal: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be nonzero");
    let n = signal.len();
    let half = window / 2;
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &v in signal {
        prefix.push(prefix.last().unwrap() + v);
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(n - 1);
            (prefix[hi + 1] - prefix[lo]) / (hi + 1 - lo) as f64
        })
        .collect()
}

/// Normalizes a signal to `[0, 1]` with moving min/max, exactly as EMPROF's
/// first processing step (Section IV of the paper).
///
/// Wherever the moving maximum equals the moving minimum (a perfectly flat
/// stretch) the output is defined as `1.0`: a window with no dynamic range
/// contains no dip, so flat stretches read as "busy" and can never cross
/// the detector's dip threshold. Values are clamped to `[0, 1]` to guard
/// against floating-point wobble at the window edges.
///
/// # Panics
///
/// Panics if `window == 0`.
///
/// # Example
///
/// ```
/// use emprof_signal::stats::normalize_moving_minmax;
///
/// // A signal with a gain change: normalization makes both halves comparable.
/// let mut x = vec![1.0; 100];
/// x.extend(vec![0.2; 5]);  // a dip
/// x.extend(vec![1.0; 100]);
/// let norm = normalize_moving_minmax(&x, 80);
/// assert!(norm[102] < 0.2);        // dip bottom near 0
/// assert!(norm[80] > 0.8);         // busy level near 1 where the window sees the dip
/// ```
pub fn normalize_moving_minmax(signal: &[f64], window: usize) -> Vec<f64> {
    normalize_moving_minmax_range(signal, window, 0, signal.len())
}

/// [`normalize_moving_minmax`] restricted to output positions
/// `[start, end)`.
///
/// Every output sample is normalized against the same centered
/// moving-extrema windows into the *full* signal, so the result is
/// bit-identical to the corresponding slice of
/// [`normalize_moving_minmax`] — concatenating the outputs of a disjoint
/// range partition reconstructs the full normalization exactly. This is
/// the chunk-equivalence primitive of the parallel detector.
///
/// # Panics
///
/// Panics if `window == 0` or `start..end` is not a valid range into the
/// signal.
pub fn normalize_moving_minmax_range(
    signal: &[f64],
    window: usize,
    start: usize,
    end: usize,
) -> Vec<f64> {
    let lo = moving_min_range(signal, window, start, end);
    let hi = moving_max_range(signal, window, start, end);
    signal[start..end]
        .iter()
        .zip(lo.iter().zip(&hi))
        .map(|(&v, (&lo, &hi))| {
            if hi > lo {
                ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
            } else {
                1.0
            }
        })
        .collect()
}

/// Running mean/variance accumulator (Welford's algorithm).
///
/// Used by detectors and reports for single-pass statistics over streams
/// that are too large to buffer.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation into the running statistics.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 if fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or +inf if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or -inf if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Accumulator {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Accumulator {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = Accumulator::new();
        acc.extend(iter);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_min(signal: &[f64], window: usize) -> Vec<f64> {
        let half = window / 2;
        (0..signal.len())
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half).min(signal.len() - 1);
                signal[lo..=hi]
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    #[test]
    fn moving_min_matches_brute_force() {
        let signal: Vec<f64> = (0..200)
            .map(|i| ((i * 7919) % 100) as f64 / 10.0 - 5.0)
            .collect();
        for window in [1, 2, 3, 7, 16, 64, 199, 500] {
            assert_eq!(
                moving_min(&signal, window),
                brute_min(&signal, window),
                "window {window}"
            );
        }
    }

    #[test]
    fn moving_max_is_negated_min() {
        let signal: Vec<f64> = (0..150).map(|i| ((i * 31) % 17) as f64).collect();
        let neg: Vec<f64> = signal.iter().map(|v| -v).collect();
        let max = moving_max(&signal, 11);
        let min_neg = moving_min(&neg, 11);
        for (a, b) in max.iter().zip(&min_neg) {
            assert_eq!(*a, -*b);
        }
    }

    #[test]
    fn moving_average_of_constant() {
        let avg = moving_average(&[3.0; 50], 9);
        assert!(avg.iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn moving_average_centered_on_step() {
        let mut x = vec![0.0; 20];
        x.extend(vec![1.0; 20]);
        let avg = moving_average(&x, 10);
        // Exactly at the step the centered window covers ~half ones.
        assert!((avg[20] - 0.5454).abs() < 0.1);
        assert!(avg[5] < 0.01);
        assert!(avg[35] > 0.99);
    }

    #[test]
    fn normalize_flat_signal_is_no_dip() {
        // A zero-range window carries no dip information; it must read
        // as fully busy (1.0), never as a threshold-crossing value.
        let norm = normalize_moving_minmax(&[4.2; 30], 8);
        assert!(norm.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn normalize_step_signal_flat_plateaus_are_busy() {
        // Step signal: windows that straddle the step normalize against
        // real range; windows entirely inside a plateau are flat and
        // must yield 1.0.
        let mut x = vec![2.0; 40];
        x.extend(vec![6.0; 40]);
        let norm = normalize_moving_minmax(&x, 8);
        // Deep inside each plateau the window is flat.
        assert_eq!(norm[10], 1.0);
        assert_eq!(norm[70], 1.0);
        // Just below the step the sample sits at the local floor.
        assert!(norm[39] < 0.5);
        // Just above the step the sample sits at the local ceiling.
        assert!(norm[40] > 0.5);
        assert!(norm.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn normalize_tracks_gain_change() {
        // Same dip shape under 1x and 3x gain should normalize the same.
        let dip = |gain: f64| -> Vec<f64> {
            let mut v = vec![gain; 200];
            for x in v.iter_mut().take(110).skip(100) {
                *x = gain * 0.1;
            }
            v
        };
        let a = normalize_moving_minmax(&dip(1.0), 150);
        let b = normalize_moving_minmax(&dip(3.0), 150);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn normalize_output_in_unit_range() {
        let signal: Vec<f64> = (0..500).map(|i| ((i * 37) % 91) as f64).collect();
        for v in normalize_moving_minmax(&signal, 64) {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn accumulator_statistics() {
        let acc: Accumulator = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert!((acc.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    #[test]
    fn accumulator_empty() {
        let acc = Accumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        moving_min(&[1.0], 0);
    }

    #[test]
    fn range_outputs_equal_full_slices() {
        let signal: Vec<f64> = (0..500)
            .map(|i| ((i * 6151) % 173) as f64 / 7.0 - 10.0)
            .collect();
        for window in [1, 3, 16, 101, 499, 1200] {
            let full_min = moving_min(&signal, window);
            let full_max = moving_max(&signal, window);
            let full_norm = normalize_moving_minmax(&signal, window);
            for (start, end) in [(0, 500), (0, 1), (499, 500), (120, 377), (250, 250)] {
                assert_eq!(
                    moving_min_range(&signal, window, start, end),
                    full_min[start..end],
                    "min window {window} range {start}..{end}"
                );
                assert_eq!(
                    moving_max_range(&signal, window, start, end),
                    full_max[start..end],
                    "max window {window} range {start}..{end}"
                );
                assert_eq!(
                    normalize_moving_minmax_range(&signal, window, start, end),
                    full_norm[start..end],
                    "norm window {window} range {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn concatenated_ranges_reconstruct_the_full_normalization() {
        let signal: Vec<f64> = (0..1000).map(|i| ((i * 37) % 91) as f64).collect();
        let full = normalize_moving_minmax(&signal, 128);
        let mut stitched = Vec::new();
        for (start, end) in [(0, 333), (333, 666), (666, 1000)] {
            stitched.extend(normalize_moving_minmax_range(&signal, 128, start, end));
        }
        assert_eq!(stitched, full);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_range_panics() {
        moving_min_range(&[1.0, 2.0], 3, 1, 5);
    }
}
