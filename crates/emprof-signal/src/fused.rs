//! Fused one-pass normalization + dip-run detection.
//!
//! EMPROF's practicality rests on keeping up with tens of millions of EM
//! samples per second; the multi-pass pipeline in [`crate::stats`]
//! (moving min, moving max, normalize, then a threshold scan downstream)
//! reads the signal four times and materializes three intermediate
//! vectors. This module fuses all of it into a single pass: both moving
//! extremes advance together as van Herk/Gil-Werman blocks (see
//! [`FusedPass`]), each sample is normalized inline the moment its
//! centered window is complete, and the below-level runs the detector
//! needs are emitted directly — no intermediate vector is written unless
//! the caller explicitly asks for the normalized signal.
//!
//! The output is **bit-identical** to the multi-pass reference: the
//! block extremes equal the extremes of
//! [`stats::moving_min_range`](crate::stats::moving_min_range) /
//! [`stats::moving_max_range`](crate::stats::moving_max_range), ties
//! between `-0.0` and `0.0` included, and the normalization expression
//! is character-for-character the one in
//! [`stats::normalize_moving_minmax`](crate::stats::normalize_moving_minmax).
//! `tests/prop_fused.rs` property-checks this equivalence.
//!
//! The hot loop's extreme updates and combines are all written as the
//! select `if a < b { a } else { b }` (or `>`), which compiles to one
//! `minsd`/`maxsd` each instead of a compare-and-blend chain. The select
//! is exact here because of the precondition below: no NaN ever reaches
//! it, and on every other input it keeps the later of two equal values,
//! the latest-index tie rule above ([`FusedPass`] spells out each form).
//!
//! The pass also carries the detector's finite-sample admission check:
//! every sample it reads is verified finite the first time it is read,
//! in index order, so callers no longer need a separate whole-signal
//! pre-scan to know a signal is clean — the overwhelmingly common case
//! costs zero extra reads, and a dirty signal is reported via `Err` with
//! the offending index so the caller can fall back to its
//! sanitize-and-retry path.

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
    detect_runs_range_gated(
        signal, window, threshold, edge_level, 0.0, start, end, norm_out,
    )
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

/// The fused pass as a resumable state machine: the current block's
/// suffix extremes, the running prefix extremes, the next output
/// position and the open below-level run starts. Feeding it a signal in
/// successive slices and finishing it once yields exactly the runs of
/// one [`detect_runs_range_gated`] call over the whole signal — the
/// one-shot functions *are* this state, fed once — so a streaming caller
/// reads each sample once without re-priming per slice.
///
/// # Block extremes
///
/// The moving min and max come from van Herk/Gil-Werman blocks rather
/// than monotonic wedges, so the hot loop has no data-dependent inner
/// loop. With `half = window / 2`, output positions are tiled into
/// blocks of `L = 2·half + 1` starting at the range start. The window of
/// an output `i` in the block starting at `b` is `[i - half, i + half]`,
/// which the sample `b + half` splits into a left part
/// `[i - half, b + half)` and a right part `[b + half, i + half]`. When
/// a block starts, one backward sweep over `[b - half, b + half)` fills
/// the left parts of all `L` outputs (the suffix arrays); the right part
/// grows by one sample per output (the prefix). Each output then costs
/// one prefix update and one combine per extreme.
///
/// Windows clipped at index 0, or at the end of the signal in
/// [`FusedPass::finish`], behave as if padded with ±∞, which is exact
/// for finite samples. Min and max are exact, so the only freedom is
/// which of two equal values (`-0.0` and `0.0`) is returned; the pass
/// returns the latest one in the window, as a monotonic wedge does:
///
/// - the backward sweep replaces only on a strict `<`/`>`
///   (`if v < m { m = v }`), so an earlier sample never displaces an
///   equal later one;
/// - the prefix keeps the new sample on a tie
///   (`pre_min = if pre_min < v { pre_min } else { v }`);
/// - the combine keeps the prefix on a tie
///   (`lo = if s_min < pre_min { s_min } else { pre_min }`);
///
/// and the max side mirrors each with `>`. Every one of these is the
/// `a < b ? a : b` select, which lowers to a single `minsd`/`maxsd`:
/// the select differs from an IEEE min or max only when an operand is
/// NaN, and no NaN can reach it. Every sample is checked finite before
/// it enters an extreme, and the only other operands are the ±∞
/// sentinels. The `<=`-guarded update it replaced computes the same
/// function on non-NaN input, but had to be lowered to a
/// compare-and-blend chain. Only the minimum's ties can show in the
/// normalized output: the sign of a zero maximum cancels in `hi - lo`.
///
/// # Samples the caller keeps
///
/// The caller owns the samples. Each call takes a slice holding the
/// signal from some global index `base` up to the current frontier and
/// must cover everything from [`FusedPass::first_needed`] on: the
/// samples the current block has yet to read, and those the next
/// block's sweep reads back to. A streaming caller therefore keeps at
/// most one window of samples behind the frontier.
#[derive(Debug, Clone)]
pub struct FusedPass {
    half: usize,
    threshold: f64,
    edge_level: f64,
    min_range: f64,
    /// Output positions stop here (exclusive).
    end: usize,
    /// Suffix extremes of the current block: entry `k` holds the
    /// `(min, max)` of samples `[b - half + k, b + half)` for the block
    /// starting at `b`. `L` entries, allocated when the first block
    /// starts; the last entry is the empty suffix (±∞) and is never
    /// written.
    suffix: Vec<(f64, f64)>,
    /// Extremes of the samples `[b + half, next + half)` read so far for
    /// the current block.
    pre_min: f64,
    pre_max: f64,
    /// End of the current block (exclusive); the next block starts here.
    block_end: usize,
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
        FusedPass {
            half: window / 2,
            threshold,
            edge_level,
            min_range,
            end: range.end,
            suffix: Vec::new(),
            pre_min: f64::INFINITY,
            pre_max: f64::NEG_INFINITY,
            block_end: range.start,
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

    /// The end of the pass's output range (exclusive).
    pub fn range_end(&self) -> usize {
        self.end
    }

    /// The first global sample index later calls still read; callers
    /// may drop everything before it. The next block's sweep reads back
    /// to `block_end - half`, so this trails the frontier by at most
    /// one window.
    pub fn first_needed(&self) -> usize {
        self.next.min(self.block_end.saturating_sub(self.half))
    }

    /// Advances over every output position whose centered window lies
    /// wholly inside `signal` — sample `base + k` is `signal[k]`, and
    /// `base + signal.len()` is the frontier — appending the runs that
    /// closed to `runs`. Runs still open at the new output position stay
    /// open for the next call.
    ///
    /// # Errors
    ///
    /// `Err(i)` when sample `i` is the first non-finite sample read.
    /// The pass is unusable after an error; callers that stream must
    /// drop non-finite samples before feeding.
    ///
    /// # Panics
    ///
    /// Panics if `signal` does not cover [`FusedPass::first_needed`].
    pub fn feed(&mut self, signal: &[f64], base: usize, runs: &mut LevelRuns) -> Result<(), usize> {
        let complete = (base + signal.len()).saturating_sub(self.half);
        self.advance(signal, base, complete.min(self.end), runs, None)
    }

    /// Treats `signal`'s end as the end of the whole signal: normalizes
    /// every remaining output position (windows clipped at the end, as
    /// in the one-shot pass), then closes the open runs there. This
    /// ends the pass: it is not fed again.
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

    /// Starts the block at `self.block_end`: sweeps its left
    /// half-windows backwards into the suffix arrays (windows clipped
    /// at index 0 or at `last`) and empties the prefix. The first block
    /// also reads its sweep span for the first time, so it checks those
    /// samples finite in index order; every later block's span was read
    /// by the previous block's prefix.
    fn start_block(&mut self, signal: &[f64], base: usize, last: usize) -> Result<(), usize> {
        let (half, b) = (self.half, self.block_end);
        let lo = b.saturating_sub(half);
        let hi = (b + half).min(last + 1);
        let span = &signal[lo - base..hi - base];
        if self.suffix.is_empty() {
            if let Some(k) = span.iter().position(|v| !v.is_finite()) {
                return Err(lo + k);
            }
            self.suffix = vec![(f64::INFINITY, f64::NEG_INFINITY); 2 * half + 1];
        }
        // Sample `j` lands in entry `j + half - b`; a window clipped at
        // index 0 sees the whole span from 0.
        let skip = lo + half - b;
        let (mut m, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
        for (&v, entry) in span.iter().zip(&mut self.suffix[skip..]).rev() {
            if v < m {
                m = v;
            }
            if v > mx {
                mx = v;
            }
            *entry = (m, mx);
        }
        self.suffix[..skip].fill((m, mx));
        self.pre_min = f64::INFINITY;
        self.pre_max = f64::NEG_INFINITY;
        self.block_end = b + 2 * half + 1;
        Ok(())
    }

    /// The kernel loop: normalizes output positions `[self.next,
    /// out_end)` with windows clipped at the end of `signal`, reading
    /// each sample as the first window that needs it arrives, and
    /// optionally appends each normalized value to `norm_out`.
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
        let (half, threshold, edge_level, min_range) =
            (self.half, self.threshold, self.edge_level, self.min_range);
        let mut th_start = self.th_start;
        let mut ed_start = self.ed_start;
        while self.next < out_end {
            if self.next == self.block_end {
                self.start_block(signal, base, last)?;
            }
            let first = self.next;
            let stop = out_end.min(self.block_end);
            let k0 = first + 2 * half + 1 - self.block_end;
            let (mut pre_min, mut pre_max) = (self.pre_min, self.pre_max);
            for (off, (&v_i, &(s_min, s_max))) in signal[first - base..stop - base]
                .iter()
                .zip(&self.suffix[k0..])
                .enumerate()
            {
                let i = first + off;
                // Read the sample entering the prefix. Past the end of the
                // signal the last sample is read again, which cannot move
                // either extreme and keeps the latest-index tie rule.
                let j = (i + half).min(last);
                let v = signal[j - base];
                if !v.is_finite() {
                    return Err(j);
                }
                // Select forms that lower to single min/max instructions;
                // exact because no NaN reaches them (see the type docs).
                pre_min = if pre_min < v { pre_min } else { v };
                pre_max = if pre_max > v { pre_max } else { v };
                let lo = if s_min < pre_min { s_min } else { pre_min };
                let hi = if s_max > pre_max { s_max } else { pre_max };
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
            self.pre_min = pre_min;
            self.pre_max = pre_max;
            self.next = stop;
        }
        self.th_start = th_start;
        self.ed_start = ed_start;
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
            let runs = detect_runs_range(&signal, window, 0.35, 0.5, start, end, Some(&mut norm))
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

    /// `len` samples dense in `-0.0`/`0.0` ties: each is `0.0`, `-0.0`,
    /// `scale` or `2 * scale`, drawn from a fixed hash of its index.
    fn zero_ties(len: usize, scale: f64) -> Vec<f64> {
        (0..len as u64)
            .map(|i| match i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 {
                0 => 0.0,
                1 => -0.0,
                2 => scale,
                _ => 2.0 * scale,
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn zero_ties_keep_the_latest_index() {
        // On positive samples a zero is the window minimum, and a `-0.0`
        // sample normalizes to `-0.0 - lo`: `-0.0` when the latest zero
        // in its window is `0.0`, `0.0` when it is `-0.0`. So the prefix
        // update and the combine of the minimum each decide output bits.
        let signal = zero_ties(1_000, 1.0);
        for window in [2, 3, 5, 8, 17, 64] {
            let reference = normalize_moving_minmax(&signal, window);
            let mut norm = Vec::new();
            detect_runs_range(&signal, window, 0.35, 0.5, 0, signal.len(), Some(&mut norm))
                .expect("clean signal");
            assert_eq!(bits(&norm), bits(&reference), "window {window}");
            let signed = |zero: f64| {
                reference
                    .iter()
                    .filter(|v| v.to_bits() == zero.to_bits())
                    .count()
            };
            assert!(
                signed(-0.0) > 0 && signed(0.0) > 0,
                "window {window}: no tie decided"
            );
        }
        // The sign of a zero maximum cancels in `hi - lo`, and a zero
        // minimum beside it makes the window flat, so no output shows
        // the maximum's tie. Pin the prefix update through the pass's
        // state: after each feed it holds the latest maximum of the
        // samples `[b + half, next + half)` of the block starting at `b`.
        let signal = zero_ties(1_000, -1.0);
        for window in [3, 5, 17, 64] {
            let half = window / 2;
            let mut pass = FusedPass::new(window, 0.35, 0.5, 0.0, 0..usize::MAX);
            let mut runs = LevelRuns::default();
            for end in (1..signal.len()).step_by(7) {
                pass.feed(&signal[..end], 0, &mut runs)
                    .expect("clean signal");
                if pass.next_output() == 0 {
                    continue;
                }
                let block = pass.block_end - (2 * half + 1);
                let prefix = &signal[block + half..pass.next_output() + half];
                let latest = prefix
                    .iter()
                    .fold(f64::NEG_INFINITY, |m, &v| if v >= m { v } else { m });
                assert_eq!(
                    pass.pre_max.to_bits(),
                    latest.to_bits(),
                    "window {window} at {end}"
                );
            }
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
