//! Property-based equivalence of the fused one-pass detector kernel
//! against the multi-pass reference it replaced.
//!
//! The contract under test (DESIGN.md §13): `fused::detect_runs_range`
//! produces **bit-identical** normalized values to
//! `stats::normalize_moving_minmax`, and its below-level run lists are
//! exactly the runs a threshold scan over that normalized signal finds —
//! for every window size, threshold/edge pair, output range, and for
//! pathological inputs (flat signals, all-dip signals, signals with
//! non-finite samples).

use emprof::signal::fused::{self, LevelRuns};
use emprof::signal::stats::{normalize_moving_minmax, normalize_moving_minmax_range};
use proptest::prelude::*;

fn bounded_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

/// The multi-pass reference: maximal runs of `norm[i] < level`, half-open.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full-signal pass: bit-identical normalization and identical run
    /// lists at both detection levels.
    #[test]
    fn fused_full_pass_matches_reference(
        signal in bounded_signal(400),
        window in 1usize..300,
        threshold in 0.05f64..0.9,
        edge_gap in 0.0f64..0.4,
    ) {
        let edge_level = (threshold + edge_gap).min(0.99);
        let norm = normalize_moving_minmax(&signal, window);
        let mut fused_norm = Vec::new();
        let runs = fused::detect_runs_range(
            &signal, window, threshold, edge_level, 0, signal.len(), Some(&mut fused_norm),
        ).expect("finite signal");
        // Bit-identical, not just approximately equal: exact f64 compare.
        prop_assert_eq!(&fused_norm, &norm);
        prop_assert_eq!(&runs.below_threshold, &reference_runs(&norm, threshold));
        prop_assert_eq!(&runs.below_edge, &reference_runs(&norm, edge_level));
    }

    /// Range passes see full-signal window context: the emitted runs are
    /// the full pass's runs clipped to the range, and the normalized
    /// values match `normalize_moving_minmax_range` bit-for-bit.
    #[test]
    fn fused_range_pass_clips_full_runs(
        signal in bounded_signal(300),
        window in 1usize..200,
        cut in 0.0f64..1.0,
        width in 0.0f64..1.0,
    ) {
        let n = signal.len();
        let start = ((n as f64) * cut) as usize;
        let end = (start + (((n - start) as f64) * width) as usize).min(n);
        let full_norm = normalize_moving_minmax(&signal, window);
        let mut norm = Vec::new();
        let runs = fused::detect_runs_range(
            &signal, window, 0.35, 0.5, start, end, Some(&mut norm),
        ).expect("finite signal");
        prop_assert_eq!(&norm[..], &full_norm[start..end]);
        let range_ref = normalize_moving_minmax_range(&signal, window, start, end);
        prop_assert_eq!(&norm, &range_ref);
        let clip = |level: f64| -> Vec<(usize, usize)> {
            reference_runs(&full_norm[start..end], level)
                .into_iter()
                .map(|(s, e)| (s + start, e + start))
                .collect()
        };
        prop_assert_eq!(&runs.below_threshold, &clip(0.35));
        prop_assert_eq!(&runs.below_edge, &clip(0.5));
    }

    /// A single non-finite sample anywhere is reported with its exact
    /// index, regardless of window geometry.
    #[test]
    fn non_finite_sample_is_located(
        signal in bounded_signal(200),
        window in 1usize..128,
        pos in 0.0f64..1.0,
        kind in 0usize..3,
    ) {
        let mut signal = signal;
        let idx = ((signal.len() - 1) as f64 * pos) as usize;
        signal[idx] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        prop_assert_eq!(
            fused::detect_runs(&signal, window, 0.35, 0.5),
            Err(idx)
        );
    }
}

/// Flat signals normalize to 1.0 everywhere (the `hi == lo` branch) and
/// therefore produce no runs at any level, matching the reference.
#[test]
fn flat_signal_matches_reference() {
    for level in [0.0, 4.2, -3.0] {
        let signal = vec![level; 500];
        for window in [1, 2, 7, 100, 1000] {
            let norm = normalize_moving_minmax(&signal, window);
            let mut fused_norm = Vec::new();
            let runs = fused::detect_runs_range(
                &signal,
                window,
                0.35,
                0.5,
                0,
                signal.len(),
                Some(&mut fused_norm),
            )
            .expect("finite");
            assert_eq!(fused_norm, norm);
            assert_eq!(runs, LevelRuns::default());
        }
    }
}

/// An all-dip signal (one spike dominating the window) is one maximal
/// run on each side of the spike, exactly as the reference sees it.
#[test]
fn all_dip_signal_matches_reference() {
    let mut signal = vec![0.05; 400];
    signal[200] = 25.0;
    for window in [3, 64, 801, 4000] {
        let norm = normalize_moving_minmax(&signal, window);
        let runs = fused::detect_runs(&signal, window, 0.35, 0.5).expect("finite");
        assert_eq!(
            runs.below_threshold,
            reference_runs(&norm, 0.35),
            "window {window}"
        );
        assert_eq!(
            runs.below_edge,
            reference_runs(&norm, 0.5),
            "window {window}"
        );
    }
}

/// NaN-adjacent values that are still finite (subnormals, MAX, -MAX)
/// flow through the kernel bit-identically to the reference.
#[test]
fn extreme_finite_values_match_reference() {
    let signal = vec![
        f64::MAX / 4.0,
        -f64::MAX / 4.0,
        f64::MIN_POSITIVE,
        0.0,
        -0.0,
        1e-300,
        -1e-300,
        5.0,
        0.1,
        f64::MAX / 4.0,
        0.2,
        0.3,
    ];
    for window in [1, 2, 3, 5, 24] {
        let norm = normalize_moving_minmax(&signal, window);
        let mut fused_norm = Vec::new();
        let runs = fused::detect_runs_range(
            &signal,
            window,
            0.35,
            0.5,
            0,
            signal.len(),
            Some(&mut fused_norm),
        )
        .expect("finite");
        assert_eq!(fused_norm, norm, "window {window}");
        assert_eq!(runs.below_threshold, reference_runs(&norm, 0.35));
        assert_eq!(runs.below_edge, reference_runs(&norm, 0.5));
    }
}

/// Slice lengths for feeding a resumable pass, from arbitrary picks:
/// empty slices, single samples, lengths that put the frontier exactly
/// on a half-window or window edge, and arbitrary spans.
fn slice_lengths(picks: &[(u8, u16)], window: usize) -> Vec<usize> {
    picks
        .iter()
        .map(|&(kind, len)| match kind % 5 {
            0 => 0,
            1 => 1,
            2 => window / 2,
            3 => window / 2 + 1,
            _ => len as usize % 400,
        })
        .collect()
}

/// Feeds `signal` to a fresh pass in slices ending at `cuts` (sorted
/// global frontiers), each call seeing only the samples from
/// `first_needed()` to the frontier — so a pass that reads anything it
/// claims to have dropped fails the slice bounds — then finishes it.
#[allow(clippy::too_many_arguments)]
fn feed_at(
    signal: &[f64],
    cuts: &[usize],
    window: usize,
    threshold: f64,
    edge_level: f64,
    min_range: f64,
    start: usize,
    end: usize,
) -> LevelRuns {
    let mut pass = fused::FusedPass::new(window, threshold, edge_level, min_range, start..end);
    let mut runs = LevelRuns::default();
    for &frontier in cuts {
        let from = pass.first_needed().min(frontier);
        pass.feed(&signal[from..frontier], from, &mut runs)
            .expect("finite signal");
    }
    let from = pass.first_needed().min(signal.len());
    pass.finish(&signal[from..], from, &mut runs)
        .expect("finite signal");
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The resumable pass fed any split of a signal — empty slices,
    /// 1-sample slices, frontiers on window edges, arbitrary spans —
    /// and finished once gives exactly the one-shot gated pass's runs,
    /// for any output range and contrast gate. Splits at every run
    /// boundary (and one sample either side of it, i.e. inside the
    /// dips) are checked as well.
    #[test]
    fn resumable_pass_equals_one_shot_over_any_split(
        signal in bounded_signal(600),
        window in 1usize..300,
        threshold in 0.05f64..0.9,
        edge_gap in 0.0f64..0.4,
        gate in 0.0f64..1.0,
        cut in 0.0f64..1.0,
        width in 0.0f64..1.0,
        picks in prop::collection::vec((any::<u8>(), any::<u16>()), 0..40),
    ) {
        let n = signal.len();
        let edge_level = (threshold + edge_gap).min(0.99);
        // Half the cases ungated, half gating away part of the windows.
        let min_range = if gate < 0.5 { 0.0 } else { gate * 1e6 };
        let start = ((n as f64) * cut) as usize;
        let end = (start + (((n - start) as f64) * width) as usize).min(n);
        let one_shot = fused::detect_runs_range_gated(
            &signal, window, threshold, edge_level, min_range, start, end, None,
        ).expect("finite signal");

        let mut cuts = Vec::new();
        let mut frontier = 0;
        for len in slice_lengths(&picks, window) {
            frontier = (frontier + len).min(n);
            cuts.push(frontier);
        }
        let fed = feed_at(&signal, &cuts, window, threshold, edge_level, min_range, start, end);
        prop_assert_eq!(&fed, &one_shot);

        let mut at_runs: Vec<usize> = one_shot
            .below_threshold
            .iter()
            .chain(&one_shot.below_edge)
            .flat_map(|&(s, e)| [s.saturating_sub(1), s, s + 1, e.saturating_sub(1), e, e + 1])
            .map(|c| c.min(n))
            .collect();
        at_runs.sort_unstable();
        let fed = feed_at(&signal, &at_runs, window, threshold, edge_level, min_range, start, end);
        prop_assert_eq!(&fed, &one_shot);
    }

    /// A cut after every feed, rejoined where runs meet exactly at a
    /// cut, recovers the uncut run lists — the seam rule the streaming
    /// detector stitches on.
    #[test]
    fn cut_runs_rejoin_to_the_uncut_runs(
        signal in bounded_signal(500),
        window in 1usize..200,
        picks in prop::collection::vec((any::<u8>(), any::<u16>()), 0..40),
    ) {
        let uncut = fused::detect_runs(&signal, window, 0.35, 0.5).expect("finite signal");
        let mut pass = fused::FusedPass::new(window, 0.35, 0.5, 0.0, 0..usize::MAX);
        let mut runs = LevelRuns::default();
        let mut frontier = 0;
        for len in slice_lengths(&picks, window) {
            frontier = (frontier + len).min(signal.len());
            pass.feed(&signal[..frontier], 0, &mut runs).expect("finite signal");
            pass.cut(&mut runs);
        }
        pass.finish(&signal, 0, &mut runs).expect("finite signal");
        let rejoin = |runs: &[(usize, usize)]| {
            let mut out: Vec<(usize, usize)> = Vec::new();
            for &(s, e) in runs {
                match out.last_mut() {
                    Some(last) if last.1 == s => last.1 = e,
                    _ => out.push((s, e)),
                }
            }
            out
        };
        prop_assert_eq!(rejoin(&runs.below_threshold), uncut.below_threshold);
        prop_assert_eq!(rejoin(&runs.below_edge), uncut.below_edge);
    }

    /// The gated kernel with `min_range = 0` is bit-identical to
    /// `detect_runs`, and — since both share the kernel — to the
    /// independent multi-pass reference, on signals built to stress the
    /// gate's `hi - lo > 0` test against the reference's `hi > lo`:
    /// flat plateaus, signed zeros, subnormals and near-overflow ranges.
    #[test]
    fn ungated_kernel_is_bit_identical_to_detect_runs(
        picks in prop::collection::vec((any::<u8>(), any::<u8>()), 1..60),
        window in 1usize..120,
    ) {
        const VALUES: [f64; 8] =
            [0.0, -0.0, 1.0, 5.0, 0.2, f64::from_bits(1), f64::MAX / 2.0, -f64::MAX / 2.0];
        let signal: Vec<f64> = picks
            .iter()
            .flat_map(|&(v, reps)| std::iter::repeat_n(VALUES[v as usize % 8], 1 + reps as usize % 40))
            .collect();
        let mut gated_norm = Vec::new();
        let gated = fused::detect_runs_range_gated(
            &signal, window, 0.35, 0.5, 0.0, 0, signal.len(), Some(&mut gated_norm),
        ).expect("finite signal");
        let plain = fused::detect_runs(&signal, window, 0.35, 0.5).expect("finite signal");
        prop_assert_eq!(&gated, &plain);
        let norm = normalize_moving_minmax(&signal, window);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&gated_norm), bits(&norm));
        prop_assert_eq!(&gated.below_threshold, &reference_runs(&norm, 0.35));
        prop_assert_eq!(&gated.below_edge, &reference_runs(&norm, 0.5));
    }
}

/// Block seams of a pass whose outputs start at `start`: the block
/// starts `start + k·L` for `L = 2·(window / 2) + 1`.
fn block_len(window: usize) -> usize {
    2 * (window / 2) + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Output ranges that end on, or one either side of, a block seam
    /// normalize bit-identically to `normalize_moving_minmax_range`, on
    /// plateau signals with values planted right at the seams: at each
    /// block start, at the sample that splits its windows (`b + half`),
    /// at the first sample its sweep reads (`b - half`), and one either
    /// side of each. Half the cases plant only `-0.0`/`0.0` ties, where
    /// only the latest-index tie rule gives the reference's bits; the
    /// other half also plant window extremes, which a sweep or prefix
    /// that misses a seam sample gets wrong.
    #[test]
    fn norm_out_is_bit_identical_across_block_seams(
        picks in prop::collection::vec((0usize..4, 1usize..30), 1..40),
        planted_vals in prop::collection::vec(0usize..4, 1..64),
        spikes in any::<bool>(),
        window in 1usize..40,
        start_frac in 0.0f64..1.0,
        blocks in 0usize..6,
        delta in 0usize..3,
    ) {
        const VALUES: [f64; 4] = [0.0, -0.0, 1.0, 0.5];
        let mut signal: Vec<f64> = picks
            .iter()
            .flat_map(|&(v, reps)| std::iter::repeat_n(VALUES[v], reps))
            .collect();
        let n = signal.len();
        let (half, l) = (window / 2, block_len(window));
        let start = ((n as f64) * start_frac) as usize;
        let seams = (0..=blocks + 1).map(|k| (start + k * l) as isize);
        let half_i = half as isize;
        let planted = seams.flat_map(|b| {
            [b, b + half_i, b - half_i]
                .into_iter()
                .flat_map(|p| [p - 1, p, p + 1])
        });
        const PLANTED: [f64; 4] = [0.0, -0.0, -1.0, 2.0];
        let kinds = if spikes { 4 } else { 2 };
        for (p, &v) in planted.zip(planted_vals.iter().cycle()) {
            if let Some(slot) = usize::try_from(p).ok().and_then(|p| signal.get_mut(p)) {
                *slot = PLANTED[v % kinds];
            }
        }
        let end = (start + blocks * l + delta).saturating_sub(1).clamp(start, n);
        let mut norm = Vec::new();
        fused::detect_runs_range(&signal, window, 0.35, 0.5, start, end, Some(&mut norm))
            .expect("finite signal");
        let reference = normalize_moving_minmax_range(&signal, window, start, end);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&norm), bits(&reference));
    }

    /// A range pass reports the lowest non-finite index among the
    /// samples its windows read, `[start - half, end + half)` clipped to
    /// the signal, wherever the bad samples sit relative to the blocks:
    /// at either end of a block's backward sweep span (`b - half`,
    /// `b + half - 1`), at the first sample of its prefix half
    /// (`b + half`), one either side of those, or anywhere.
    #[test]
    fn non_finite_error_is_the_lowest_index_read(
        signal in bounded_signal(300),
        window in 1usize..60,
        cut in 0.0f64..1.0,
        width in 0.0f64..1.0,
        bad in prop::collection::vec((0usize..4, 0usize..4, 0usize..3, 0usize..3), 1..4),
        anywhere in 0usize..400,
    ) {
        let mut signal = signal;
        let n = signal.len();
        let (half, l) = (window / 2, block_len(window));
        let start = ((n as f64) * cut) as usize;
        let end = (start + (((n - start) as f64) * width) as usize).min(n);
        for &(block, anchor, d, kind) in &bad {
            let b = start + block * l;
            let p = match anchor {
                0 => b.saturating_sub(half),
                1 => b + half,
                2 => b,
                _ => anywhere,
            };
            let p = (p + d).saturating_sub(1);
            if p < n {
                signal[p] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
            }
        }
        let read = start.saturating_sub(half)..(end + half).min(n);
        let expect = if start == end {
            None
        } else {
            read.clone().find(|&i| !signal[i].is_finite())
        };
        let got = fused::detect_runs_range(&signal, window, 0.35, 0.5, start, end, None);
        prop_assert_eq!(got.err(), expect);
    }

    /// A streaming caller keeps at most one window behind the frontier:
    /// after every feed, `frontier - first_needed() <= window`, however
    /// the stream is sliced and wherever the outputs start.
    #[test]
    fn first_needed_trails_the_frontier_by_at_most_a_window(
        signal in bounded_signal(600),
        window in 1usize..200,
        start in 0usize..300,
        picks in prop::collection::vec((any::<u8>(), any::<u16>()), 0..40),
    ) {
        let mut pass = fused::FusedPass::new(window, 0.35, 0.5, 0.0, start..usize::MAX);
        let mut runs = LevelRuns::default();
        let mut frontier = 0;
        for len in slice_lengths(&picks, window) {
            frontier = (frontier + len).min(signal.len());
            let from = pass.first_needed().min(frontier);
            pass.feed(&signal[from..frontier], from, &mut runs).expect("finite signal");
            let behind = frontier.saturating_sub(pass.first_needed());
            prop_assert!(behind <= window, "{} behind at frontier {}", behind, frontier);
        }
    }
}
