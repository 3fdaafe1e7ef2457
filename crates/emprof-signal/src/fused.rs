//! Fused one-pass normalization + dip-run detection.
//!
//! EMPROF's practicality rests on keeping up with tens of millions of EM
//! samples per second; the multi-pass pipeline in [`crate::stats`]
//! (moving min, moving max, normalize, then a threshold scan downstream)
//! reads the signal four times and materializes three intermediate
//! vectors. This module fuses all of it into a single pass: both
//! monotonic wedges advance together, each sample is normalized inline
//! the moment its centered window is complete, and the below-level runs
//! the detector needs are emitted directly — no intermediate vector is
//! written unless the caller explicitly asks for the normalized signal.
//!
//! The output is **bit-identical** to the multi-pass reference: the
//! wedges admit and evict in the same order as
//! [`stats::moving_min_range`](crate::stats::moving_min_range) /
//! [`stats::moving_max_range`](crate::stats::moving_max_range), and the
//! normalization expression is character-for-character the one in
//! [`stats::normalize_moving_minmax`](crate::stats::normalize_moving_minmax).
//! `tests/prop_fused.rs` property-checks this equivalence.
//!
//! The pass also carries the detector's finite-sample admission check:
//! every sample it reads is verified finite *as it enters the wedges*
//! (each sample enters exactly once), so callers no longer need a
//! separate whole-signal pre-scan to know a signal is clean — the
//! overwhelmingly common case costs zero extra reads, and a dirty signal
//! is reported via `Err` with the offending index so the caller can fall
//! back to its sanitize-and-retry path.

use std::collections::VecDeque;

/// Below-level runs found by one fused pass, each as `(start, end)` in
/// **global** signal coordinates (half-open, `end` exclusive).
///
/// The two lists are independent level scans over the same normalized
/// values: `below_threshold` holds the maximal runs where the normalized
/// sample is `< threshold` (the detector's dip candidates), `below_edge`
/// the maximal runs where it is `< edge_level` (the context edge
/// refinement widens dips into). When `threshold <= edge_level` — the
/// invariant EMPROF's configuration validation enforces — every
/// below-threshold run lies inside some below-edge run, which is what
/// lets edge refinement run from these run lists alone, without the
/// normalized signal ever being materialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelRuns {
    /// Maximal runs of normalized samples `< threshold`.
    pub below_threshold: Vec<(usize, usize)>,
    /// Maximal runs of normalized samples `< edge_level`.
    pub below_edge: Vec<(usize, usize)>,
}

/// One-pass fused normalize + run detection over the whole signal.
///
/// Equivalent to `normalize_moving_minmax(signal, window)` followed by
/// threshold scans at `threshold` and `edge_level`, but reads the signal
/// once and allocates nothing of the signal's size.
///
/// # Errors
///
/// Returns `Err(i)` when `signal[i]` is the first non-finite sample
/// (NaN, ±inf) the pass reads; over the full signal every sample is
/// read, so `Ok` proves the signal clean. Any partially produced state
/// is discarded.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn detect_runs(
    signal: &[f64],
    window: usize,
    threshold: f64,
    edge_level: f64,
) -> Result<LevelRuns, usize> {
    detect_runs_range(signal, window, threshold, edge_level, 0, signal.len(), None)
}

/// [`detect_runs`] restricted to output positions `[start, end)`, with
/// optional materialization of the normalized signal.
///
/// Each output position is normalized against the same centered window
/// *into the full signal* as the full pass would use, so the emitted
/// runs are exactly the full pass's runs clipped to `[start, end)` (a
/// run crossing a range boundary is reported truncated at it) — the
/// chunk-equivalence property the parallel detector stitches on. Runs
/// are in global coordinates.
///
/// When `norm_out` is `Some`, the normalized value of every position in
/// `[start, end)` is appended to it (the vector is not cleared), giving
/// bit-identical output to
/// [`stats::normalize_moving_minmax_range`](crate::stats::normalize_moving_minmax_range).
///
/// # Errors
///
/// Returns `Err(i)` on the first non-finite sample read. The pass reads
/// exactly the samples some window in the range covers:
/// `[start - window/2, end + window/2)` clipped to the signal. On `Err`,
/// `norm_out` may hold partial output; callers that retry must truncate
/// it back themselves.
///
/// # Panics
///
/// Panics if `window == 0` or `start..end` is not a valid range into the
/// signal.
pub fn detect_runs_range(
    signal: &[f64],
    window: usize,
    threshold: f64,
    edge_level: f64,
    start: usize,
    end: usize,
    norm_out: Option<&mut Vec<f64>>,
) -> Result<LevelRuns, usize> {
    detect_runs_range_gated(signal, window, threshold, edge_level, 0.0, start, end, norm_out)
}

/// [`detect_runs_range`] with a **contrast gate**: windows whose dynamic
/// range (`max - min`) does not exceed `min_range` are treated as flat
/// and normalize to `1.0` ("fully busy"), exactly like a constant
/// window. With `min_range == 0.0` this is bit-identical to the ungated
/// pass (`hi - lo > 0.0` iff `hi > lo` for finite samples).
///
/// The gate is what lets the adaptive detector suppress noise-floor
/// false positives: when the probe has drifted far enough that a window
/// contains no dip, its range is pure receiver noise; min/max
/// normalization would stretch that noise across `[0, 1]` and the
/// threshold scan would read the lower tail as dips. A gate slightly
/// below the recent dip-contrast estimate flattens exactly those
/// windows while leaving true dip windows (whose range carries the dip
/// contrast) untouched.
///
/// This is a [`FusedPass`] primed at `start`, fed the whole signal
/// once, and finished at `end`.
///
/// # Errors / Panics
///
/// Identical to [`detect_runs_range`].
#[allow(clippy::too_many_arguments)]
pub fn detect_runs_range_gated(
    signal: &[f64],
    window: usize,
    threshold: f64,
    edge_level: f64,
    min_range: f64,
    start: usize,
    end: usize,
    norm_out: Option<&mut Vec<f64>>,
) -> Result<LevelRuns, usize> {
    let n = signal.len();
    assert!(
        start <= end && end <= n,
        "range {start}..{end} out of bounds for length {n}"
    );
    let mut pass = FusedPass::new(window, threshold, edge_level, min_range, start..end);
    let mut runs = LevelRuns::default();
    pass.advance(signal, 0, end, &mut runs, norm_out)?;
    pass.cut(&mut runs);
    Ok(runs)
}

/// The fused pass as a resumable state machine: the two monotonic
/// wedges with their cached fronts, the admission cursor, the next
/// output position and the open below-level run starts. Feeding it a
/// signal in successive slices and finishing it once yields exactly the
/// runs of one [`detect_runs_range_gated`] call over the whole signal —
/// the one-shot functions *are* this state, fed once — so a streaming
/// caller reads each sample once without re-priming per slice.
///
/// The caller owns the samples. Each call takes a slice holding the
/// signal from some global index `base` up to the current frontier and
/// must cover everything from [`FusedPass::first_needed`] on: the
/// samples the pass has yet to admit, and those it has admitted but not
/// yet normalized. Everything before that lives in the wedges, so a
/// streaming caller keeps only about `window / 2` samples behind the
/// frontier.
#[derive(Debug, Clone)]
pub struct FusedPass {
    half: usize,
    threshold: f64,
    edge_level: f64,
    min_range: f64,
    /// Output positions stop here (exclusive).
    end: usize,
    /// Monotonic wedges over (index, value): values are stored alongside
    /// indices so wedge maintenance never re-reads the signal. Bounded by
    /// the window length, so the pass holds O(window), not O(n). Both
    /// are empty until the pass is primed.
    min_wedge: VecDeque<(usize, f64)>,
    max_wedge: VecDeque<(usize, f64)>,
    /// The wedges' front entries, cached so the hot loop rarely touches
    /// the ring buffers.
    min_front: (usize, f64),
    max_front: (usize, f64),
    /// Next index to admit.
    right: usize,
    /// Next output position to normalize.
    next: usize,
    /// Starts of the below-threshold / below-edge runs still open.
    th_start: Option<usize>,
    ed_start: Option<usize>,
}

impl FusedPass {
    /// A pass that will emit runs for output positions `range` (use
    /// `0..usize::MAX` for an open-ended stream), normalizing each
    /// against the centered `window` and flattening windows whose range
    /// does not exceed `min_range` (see [`detect_runs_range_gated`]).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or the range is reversed.
    pub fn new(
        window: usize,
        threshold: f64,
        edge_level: f64,
        min_range: f64,
        range: std::ops::Range<usize>,
    ) -> FusedPass {
        assert!(window > 0, "window must be nonzero");
        assert!(range.start <= range.end, "reversed range {range:?}");
        let half = window / 2;
        FusedPass {
            half,
            threshold,
            edge_level,
            min_range,
            end: range.end,
            min_wedge: VecDeque::new(),
            max_wedge: VecDeque::new(),
            min_front: (0, 0.0),
            max_front: (0, 0.0),
            right: range.start.saturating_sub(half),
            next: range.start,
            th_start: None,
            ed_start: None,
        }
    }

    /// The next output position: every position before it has been
    /// normalized and scanned.
    pub fn next_output(&self) -> usize {
        self.next
    }

    /// The first global sample index later calls still read; callers
    /// may drop everything before it.
    pub fn first_needed(&self) -> usize {
        self.right.min(self.next)
    }

    /// Advances over every output position whose centered window lies
    /// wholly inside `signal` — sample `base + k` is `signal[k]`, and
    /// `base + signal.len()` is the frontier — appending the runs that
    /// closed to `runs`. Runs still open at the new output position stay
    /// open for the next call.
    ///
    /// # Errors
    ///
    /// `Err(i)` when sample `i` is the first non-finite sample admitted.
    /// The pass is unusable after an error; callers that stream must
    /// drop non-finite samples before feeding.
    ///
    /// # Panics
    ///
    /// Panics if `signal` does not cover [`FusedPass::first_needed`].
    pub fn feed(
        &mut self,
        signal: &[f64],
        base: usize,
        runs: &mut LevelRuns,
    ) -> Result<(), usize> {
        let complete = (base + signal.len()).saturating_sub(self.half);
        self.advance(signal, base, complete.min(self.end), runs, None)
    }

    /// Treats `signal`'s end as the end of the whole signal: normalizes
    /// every remaining output position (windows clipped at the end, as
    /// in the one-shot pass), then closes the open runs there.
    ///
    /// # Errors / Panics
    ///
    /// As [`FusedPass::feed`].
    pub fn finish(
        &mut self,
        signal: &[f64],
        base: usize,
        runs: &mut LevelRuns,
    ) -> Result<(), usize> {
        let end = (base + signal.len()).min(self.end);
        self.advance(signal, base, end, runs, None)?;
        self.cut(runs);
        Ok(())
    }

    /// Closes the open runs at the current output position, as if the
    /// signal were cut there. A caller that cuts after every feed and
    /// rejoins runs that meet exactly at a cut (a true run boundary
    /// never has a gap of zero) recovers the uncut run lists.
    pub fn cut(&mut self, runs: &mut LevelRuns) {
        if let Some(s) = self.th_start.take() {
            runs.below_threshold.push((s, self.next));
        }
        if let Some(s) = self.ed_start.take() {
            runs.below_edge.push((s, self.next));
        }
    }

    /// The kernel loop: normalizes output positions `[self.next,
    /// out_end)` with windows clipped at the end of `signal`, admitting
    /// samples as their windows need them, and optionally appends each
    /// normalized value to `norm_out`.
    fn advance(
        &mut self,
        signal: &[f64],
        base: usize,
        out_end: usize,
        runs: &mut LevelRuns,
        mut norm_out: Option<&mut Vec<f64>>,
    ) -> Result<(), usize> {
        if out_end <= self.next {
            return Ok(());
        }
        assert!(
            base <= self.first_needed() && out_end <= base + signal.len(),
            "signal {base}..{} does not cover the pass at {}..{out_end}",
            base + signal.len(),
            self.first_needed()
        );
        let last = base + signal.len() - 1;
        if self.min_wedge.is_empty() {
            // Prime both wedges with the first admitted sample so the hot
            // loop can keep each wedge's front entry cached in locals
            // (`min_front`, `max_front`) instead of going through the
            // ring buffer every iteration; the wedges are non-empty from
            // here on (eviction only removes samples that left the
            // window, and the window always holds at least the output
            // sample itself).
            let v0 = signal[self.right - base];
            if !v0.is_finite() {
                return Err(self.right);
            }
            self.min_wedge.push_back((self.right, v0));
            self.max_wedge.push_back((self.right, v0));
            self.min_front = (self.right, v0);
            self.max_front = (self.right, v0);
            self.right += 1;
        }
        let (half, threshold, edge_level, min_range) =
            (self.half, self.threshold, self.edge_level, self.min_range);
        let min_wedge = &mut self.min_wedge;
        let max_wedge = &mut self.max_wedge;
        let mut min_front = self.min_front;
        let mut max_front = self.max_front;
        let mut right = self.right;
        let mut th_start = self.th_start;
        let mut ed_start = self.ed_start;
        let first = self.next;
        for (off, &v_i) in signal[first - base..out_end - base].iter().enumerate() {
            let i = first + off;
            // Admit every sample the window centered on `i` can see. Each
            // sample is admitted exactly once — this is where it is read,
            // and where it is checked finite.
            let win_end = (i + half).min(last);
            while right <= win_end {
                let v = signal[right - base];
                if !v.is_finite() {
                    return Err(right);
                }
                if v <= min_front.1 {
                    // New window minimum: the pop loop below would drain
                    // the whole wedge (every stored value is >= the
                    // front's), so collapse it in one step and refresh
                    // the cached front.
                    min_wedge.clear();
                    min_wedge.push_back((right, v));
                    min_front = (right, v);
                } else {
                    while min_wedge.back().is_some_and(|&(_, b)| v <= b) {
                        min_wedge.pop_back();
                    }
                    min_wedge.push_back((right, v));
                }
                if v >= max_front.1 {
                    max_wedge.clear();
                    max_wedge.push_back((right, v));
                    max_front = (right, v);
                } else {
                    while max_wedge.back().is_some_and(|&(_, b)| v >= b) {
                        max_wedge.pop_back();
                    }
                    max_wedge.push_back((right, v));
                }
                right += 1;
            }
            // Evict entries that fell out of the window, then normalize
            // inline — the same expression as `normalize_moving_minmax`.
            // Only the cached fronts are consulted on the no-eviction path.
            let win_start = i.saturating_sub(half);
            while min_front.0 < win_start {
                min_wedge.pop_front();
                min_front = *min_wedge.front().expect("window always non-empty");
            }
            while max_front.0 < win_start {
                max_wedge.pop_front();
                max_front = *max_wedge.front().expect("window always non-empty");
            }
            let lo = min_front.1;
            let hi = max_front.1;
            // `hi - lo > 0.0` is exactly `hi > lo` for finite samples, so
            // the ungated (`min_range == 0.0`) pass matches
            // `normalize_moving_minmax` bit for bit.
            let normalized = if hi - lo > min_range {
                ((v_i - lo) / (hi - lo)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            if let Some(out) = norm_out.as_deref_mut() {
                out.push(normalized);
            }
            // Run bookkeeping for both levels.
            if normalized < threshold {
                if th_start.is_none() {
                    th_start = Some(i);
                }
            } else if let Some(s) = th_start.take() {
                runs.below_threshold.push((s, i));
            }
            if normalized < edge_level {
                if ed_start.is_none() {
                    ed_start = Some(i);
                }
            } else if let Some(s) = ed_start.take() {
                runs.below_edge.push((s, i));
            }
        }
        self.min_front = min_front;
        self.max_front = max_front;
        self.right = right;
        self.th_start = th_start;
        self.ed_start = ed_start;
        self.next = out_end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::normalize_moving_minmax;

    /// The multi-pass reference: normalize, then scan runs at `level`.
    fn reference_runs(norm: &[f64], level: f64) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, &v) in norm.iter().enumerate() {
            if v < level {
                start.get_or_insert(i);
            } else if let Some(s) = start.take() {
                runs.push((s, i));
            }
        }
        if let Some(s) = start {
            runs.push((s, norm.len()));
        }
        runs
    }

    fn test_signal(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let drift = 1.0 + 0.1 * (i as f64 * 1e-3).sin();
                let noise = ((i * 2_654_435_761_usize) % 1000) as f64 / 2500.0;
                let dip = if i % 97 < 7 { 0.15 } else { 1.0 };
                5.0 * drift * dip + noise
            })
            .collect()
    }

    #[test]
    fn fused_matches_multi_pass_reference() {
        let signal = test_signal(2_000);
        for window in [1, 2, 3, 16, 64, 401, 1999, 5000] {
            let norm = normalize_moving_minmax(&signal, window);
            let mut fused_norm = Vec::new();
            let runs = detect_runs_range(
                &signal,
                window,
                0.35,
                0.5,
                0,
                signal.len(),
                Some(&mut fused_norm),
            )
            .expect("clean signal");
            assert_eq!(fused_norm, norm, "window {window}");
            assert_eq!(runs.below_threshold, reference_runs(&norm, 0.35));
            assert_eq!(runs.below_edge, reference_runs(&norm, 0.5));
        }
    }

    #[test]
    fn range_outputs_clip_the_full_runs() {
        let signal = test_signal(1_500);
        let window = 120;
        let full_norm = normalize_moving_minmax(&signal, window);
        for (start, end) in [(0, 1500), (0, 1), (1499, 1500), (250, 901), (700, 700)] {
            let mut norm = Vec::new();
            let runs = detect_runs_range(
                &signal,
                window,
                0.35,
                0.5,
                start,
                end,
                Some(&mut norm),
            )
            .expect("clean signal");
            assert_eq!(norm, full_norm[start..end], "range {start}..{end}");
            // Runs over the range are the reference runs of the slice,
            // shifted into global coordinates.
            let expect = |level: f64| -> Vec<(usize, usize)> {
                reference_runs(&full_norm[start..end], level)
                    .into_iter()
                    .map(|(s, e)| (s + start, e + start))
                    .collect()
            };
            assert_eq!(runs.below_threshold, expect(0.35), "range {start}..{end}");
            assert_eq!(runs.below_edge, expect(0.5), "range {start}..{end}");
        }
    }

    #[test]
    fn flat_signal_has_no_runs() {
        // Flat windows normalize to 1.0 ("busy"), never below a level.
        let runs = detect_runs(&[4.2; 300], 16, 0.35, 0.5).expect("clean");
        assert!(runs.below_threshold.is_empty());
        assert!(runs.below_edge.is_empty());
    }

    #[test]
    fn all_dip_signal_is_one_run() {
        // A lone spike makes everything else the window floor.
        let mut signal = vec![0.1; 200];
        signal[100] = 50.0;
        let runs = detect_runs(&signal, 500, 0.35, 0.5).expect("clean");
        assert_eq!(runs.below_threshold, vec![(0, 100), (101, 200)]);
        assert_eq!(runs.below_edge, vec![(0, 100), (101, 200)]);
    }

    #[test]
    fn non_finite_sample_reports_its_index() {
        let mut signal = test_signal(500);
        signal[317] = f64::NAN;
        assert_eq!(detect_runs(&signal, 64, 0.35, 0.5), Err(317));
        signal[317] = f64::INFINITY;
        assert_eq!(detect_runs(&signal, 64, 0.35, 0.5), Err(317));
        // A range whose windows never read index 317 does not see it.
        signal[317] = f64::NAN;
        assert!(detect_runs_range(&signal, 64, 0.35, 0.5, 0, 200, None).is_ok());
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(detect_runs(&[], 8, 0.35, 0.5), Ok(LevelRuns::default()));
        let signal = test_signal(100);
        assert_eq!(
            detect_runs_range(&signal, 8, 0.35, 0.5, 40, 40, None),
            Ok(LevelRuns::default())
        );
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = detect_runs(&[1.0], 0, 0.35, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_range_panics() {
        let _ = detect_runs_range(&[1.0, 2.0], 3, 0.35, 0.5, 1, 5, None);
    }
}
