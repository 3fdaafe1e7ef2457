//! Property-based equivalence of the streaming and batch detectors.
//!
//! The streaming detector must produce *exactly* the batch detector's
//! events for any signal: same starts, same ends, same classification —
//! this is what makes live monitoring trustworthy.

use emprof::core::{CalibConfig, Emprof, EmprofConfig, StreamingEmprof};
use proptest::prelude::*;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

/// Arbitrary busy/dip signal: alternating busy gaps and dips of random
/// lengths and depths, with deterministic pseudo-noise.
fn build_signal(segments: &[(u16, u16, u8)], noise: bool) -> Vec<f64> {
    let mut s = Vec::new();
    for (i, &(gap, dip, depth)) in segments.iter().enumerate() {
        let gap = 3 + gap as usize % 600;
        let dip = dip as usize % 160;
        let dip_level = 0.3 + (depth as f64 / 255.0) * 1.2; // 0.3..1.5
        for k in 0..gap {
            let n = if noise {
                (((i * 131 + k) * 2654435761) % 997) as f64 / 3000.0
            } else {
                0.0
            };
            s.push(5.0 + n);
        }
        for k in 0..dip {
            let n = if noise {
                (((i * 137 + k) * 2654435761) % 997) as f64 / 5000.0
            } else {
                0.0
            };
            s.push(dip_level + n);
        }
    }
    // Trailing busy tail so the last dip closes normally... sometimes.
    if segments.len().is_multiple_of(2) {
        s.extend(std::iter::repeat_n(5.0, 500));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming equals batch, event for event, on arbitrary signals.
    #[test]
    fn streaming_equals_batch(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..40),
        noise in any::<bool>(),
    ) {
        let signal = build_signal(&segments, noise);
        let config = EmprofConfig::for_rates(FS, CLK);
        let batch = Emprof::new(config).profile_magnitude(&signal, FS, CLK);
        let mut streaming = StreamingEmprof::new(config, FS, CLK);
        streaming.extend(signal.iter().copied());
        let streamed = streaming.finish();
        prop_assert_eq!(streamed.events(), batch.events());
        prop_assert_eq!(streamed.total_samples(), batch.total_samples());
    }

    /// Chunk boundaries never change the result.
    #[test]
    fn chunking_is_irrelevant(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..20),
        chunk in 1usize..5000,
    ) {
        let signal = build_signal(&segments, true);
        let config = EmprofConfig::for_rates(FS, CLK);
        let mut a = StreamingEmprof::new(config, FS, CLK);
        for c in signal.chunks(chunk) {
            a.extend(c.iter().copied());
        }
        let mut b = StreamingEmprof::new(config, FS, CLK);
        b.extend(signal.iter().copied());
        let pa = a.finish();
        let pb = b.finish();
        prop_assert_eq!(pa.events(), pb.events());
    }

    /// Drained events are a prefix of the final event list (no event is
    /// delivered live that later changes).
    #[test]
    fn drained_events_are_final(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..20),
    ) {
        let signal = build_signal(&segments, true);
        let config = EmprofConfig::for_rates(FS, CLK);
        let mut streaming = StreamingEmprof::new(config, FS, CLK);
        let mut live = Vec::new();
        for chunk in signal.chunks(777) {
            streaming.extend(chunk.iter().copied());
            live.extend(streaming.drain_events());
        }
        let profile = streaming.finish();
        prop_assert!(live.len() <= profile.events().len());
        prop_assert_eq!(&live[..], &profile.events()[..live.len()]);
    }

    /// The most pathological feed possible: one `push` per sample with a
    /// drain after every single push. The drained stream followed by the
    /// finish tail must still be the batch profile, event for event.
    #[test]
    fn single_sample_push_loop_with_drains_equals_batch(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..12),
        noise in any::<bool>(),
    ) {
        let signal = build_signal(&segments, noise);
        let config = EmprofConfig::for_rates(FS, CLK);
        let batch = Emprof::new(config).profile_magnitude(&signal, FS, CLK);
        let mut streaming = StreamingEmprof::new(config, FS, CLK);
        let mut live = Vec::new();
        for &v in &signal {
            streaming.push(v);
            live.extend(streaming.drain_events());
        }
        let profile = streaming.finish();
        prop_assert_eq!(&live[..], &profile.events()[..live.len()]);
        live.extend_from_slice(&profile.events()[live.len()..]);
        prop_assert_eq!(&live[..], batch.events());
    }

    /// Prime-sized chunks (never aligned with dips, windows, or each
    /// other) with a drain between every chunk still equal batch.
    #[test]
    fn prime_sized_chunks_with_drains_equal_batch(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..20),
        prime_idx in 0usize..8,
    ) {
        const PRIMES: [usize; 8] = [2, 3, 7, 31, 127, 509, 1021, 4093];
        let chunk = PRIMES[prime_idx];
        let signal = build_signal(&segments, true);
        let config = EmprofConfig::for_rates(FS, CLK);
        let batch = Emprof::new(config).profile_magnitude(&signal, FS, CLK);
        let mut streaming = StreamingEmprof::new(config, FS, CLK);
        let mut live = Vec::new();
        for c in signal.chunks(chunk) {
            streaming.extend(c.iter().copied());
            live.extend(streaming.drain_events());
        }
        let profile = streaming.finish();
        prop_assert_eq!(&live[..], &profile.events()[..live.len()]);
        live.extend_from_slice(&profile.events()[live.len()..]);
        prop_assert_eq!(&live[..], batch.events());
    }
}

/// [`build_signal`] with a quarter of the busy gaps only 1–3 samples
/// long, so dips closer than the merge gap (and just past it) occur
/// often, and with 0–2-sample shoulders on either side of each dip at a
/// level that normalizes to roughly between `threshold` and
/// `edge_level`, so edge refinement has something to widen.
fn short_gap_signal(segments: &[(u16, u16, u8)]) -> Vec<f64> {
    let mut s = Vec::new();
    for (i, &(gap, dip, depth)) in segments.iter().enumerate() {
        let gap = if gap % 4 == 0 {
            1 + (gap / 4) as usize % 3
        } else {
            3 + gap as usize % 600
        };
        let (left, right) = ((dip / 160) as usize % 3, (dip / 480) as usize % 3);
        let dip = dip as usize % 160;
        let dip_level = 0.3 + (depth as f64 / 255.0) * 1.2;
        let shoulder = dip_level + 0.42 * (5.15 - dip_level);
        for k in 0..gap {
            s.push(5.0 + (((i * 131 + k) * 2654435761) % 997) as f64 / 3000.0);
        }
        if dip > 0 {
            s.extend(std::iter::repeat_n(shoulder, left));
        }
        for k in 0..dip {
            s.push(dip_level + (((i * 137 + k) * 2654435761) % 997) as f64 / 5000.0);
        }
        if dip > 0 {
            s.extend(std::iter::repeat_n(shoulder, right));
        }
    }
    s.extend(std::iter::repeat_n(5.0, 300));
    s
}

/// Cuts `signal` into slices of the picked sizes (1 to 20 000 samples;
/// a third of the picks are at most 8 samples and a third at most 400,
/// so slice boundaries are dense), placing each picked burst of NaN/±inf exactly at a slice
/// boundary: at the end of its slice, at the start of the next, or
/// split across the two. Returns the fed slices in order; their
/// concatenation is the dirty signal.
fn boundary_burst_slices(signal: &[f64], picks: &[(u16, u8, u8)]) -> Vec<Vec<f64>> {
    const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut slices: Vec<Vec<f64>> = Vec::new();
    let mut carry: Vec<f64> = Vec::new();
    let mut rest = signal;
    for (k, &(size, sel, burst)) in picks.iter().enumerate() {
        if rest.is_empty() {
            break;
        }
        let size = 1 + size as usize % [8, 400, 20_000][sel as usize % 3];
        let (head, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        let len = burst as usize % 5;
        let bad = (0..len).map(|i| BAD[(k + i) % 3]);
        let mut slice = std::mem::take(&mut carry);
        match (sel / 3) % 4 {
            // Burst closes this slice.
            0 => {
                slice.extend_from_slice(head);
                slice.extend(bad);
            }
            // Burst opens the next slice.
            1 => {
                slice.extend_from_slice(head);
                carry.extend(bad);
            }
            // Burst straddles the boundary.
            2 => {
                slice.extend_from_slice(head);
                let bad: Vec<f64> = bad.collect();
                let (a, b) = bad.split_at(bad.len() / 2);
                slice.extend_from_slice(a);
                carry.extend_from_slice(b);
            }
            // Burst opens this slice.
            _ => {
                slice.extend(bad);
                slice.extend_from_slice(head);
            }
        }
        slices.push(slice);
    }
    carry.extend_from_slice(rest);
    slices.push(carry);
    slices
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random slice sizes from 1 to 20 000 samples, with NaN/±inf
    /// bursts at slice boundaries, on both detector engines and on
    /// signals whose dips are often closer than the merge gap: the events
    /// drained after every slice, followed by the finish tail, are the
    /// batch events of the dirty signal (confidence marks included), and
    /// no drained event is ever revised afterwards.
    #[test]
    fn random_slices_with_boundary_bursts_drain_the_batch_events(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..40),
        picks in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..120),
        adaptive in any::<bool>(),
    ) {
        let signal = short_gap_signal(&segments);
        let slices = boundary_burst_slices(&signal, &picks);
        let dirty: Vec<f64> = slices.concat();
        let mut config = EmprofConfig::for_rates(FS, CLK);
        if adaptive {
            config.calib = CalibConfig::adaptive();
        }
        let batch = Emprof::new(config).profile_magnitude(&dirty, FS, CLK);
        let mut streaming = StreamingEmprof::new(config, FS, CLK);
        let mut live = Vec::new();
        for slice in &slices {
            streaming.extend_from_slice(slice);
            live.extend(streaming.drain_events());
        }
        prop_assert_eq!(streaming.samples_pushed(), signal.len());
        prop_assert_eq!(streaming.samples_rejected(), dirty.len() - signal.len());
        let profile = streaming.finish();
        prop_assert!(live.len() <= profile.events().len());
        prop_assert_eq!(&live[..], &profile.events()[..live.len()]);
        live.extend_from_slice(&profile.events()[live.len()..]);
        prop_assert_eq!(&live[..], batch.events());
        prop_assert_eq!(profile.total_samples(), batch.total_samples());
    }

    /// One push per sample, so every sample boundary is a slice
    /// boundary and the frontier stops at every position, with dense
    /// NaN/±inf bursts and dips often closer than the merge gap, on both
    /// engines: drained events plus the finish tail equal batch on the
    /// dirty signal, confidence marks included.
    #[test]
    fn single_pushes_with_dense_bursts_and_short_gaps_equal_batch(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..25),
        bursts in prop::collection::vec((any::<u16>(), any::<u8>()), 0..80),
        adaptive in any::<bool>(),
    ) {
        const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut dirty = short_gap_signal(&segments);
        let mut at: Vec<(usize, u8)> = bursts
            .iter()
            .map(|&(pos, len)| (pos as usize % (dirty.len() + 1), len))
            .collect();
        at.sort_unstable_by(|a, b| b.cmp(a));
        for (pos, len) in at {
            for i in 0..1 + len as usize % 3 {
                dirty.insert(pos, BAD[(pos + i) % 3]);
            }
        }
        let mut config = EmprofConfig::for_rates(FS, CLK);
        if adaptive {
            config.calib = CalibConfig::adaptive();
        }
        let batch = Emprof::new(config).profile_magnitude(&dirty, FS, CLK);
        let mut streaming = StreamingEmprof::new(config, FS, CLK);
        let mut live = Vec::new();
        for &v in &dirty {
            streaming.push(v);
            live.extend(streaming.drain_events());
        }
        let profile = streaming.finish();
        prop_assert_eq!(&live[..], &profile.events()[..live.len()]);
        live.extend_from_slice(&profile.events()[live.len()..]);
        prop_assert_eq!(&live[..], batch.events());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a fixed threshold, the events drained after a slice depend
    /// only on the samples pushed so far, not on how they were sliced:
    /// random slices with NaN/±inf bursts at their boundaries drain
    /// exactly what one push per sample has drained at the same point.
    #[test]
    fn static_drains_do_not_depend_on_slicing(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..40),
        picks in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..120),
    ) {
        let signal = short_gap_signal(&segments);
        let slices = boundary_burst_slices(&signal, &picks);
        let config = EmprofConfig::for_rates(FS, CLK);
        let mut one = StreamingEmprof::new(config, FS, CLK);
        let mut want = vec![0];
        for &v in slices.iter().flatten() {
            one.push(v);
            let n = want[want.len() - 1] + one.drain_events().len();
            want.push(n);
        }
        let mut sliced = StreamingEmprof::new(config, FS, CLK);
        let (mut at, mut got) = (0, 0);
        for slice in &slices {
            sliced.extend_from_slice(slice);
            at += slice.len();
            got += sliced.drain_events().len();
            prop_assert_eq!(got, want[at], "drained after {} samples", at);
        }
    }
}

/// `len` busy samples with clean dips at `(start, width)`.
fn dipped(dips: &[(usize, usize)], len: usize) -> Vec<f64> {
    let mut v = vec![5.0; len];
    for &(start, width) in dips {
        v[start..start + width].fill(0.8);
    }
    v
}

/// With a fixed threshold a clean dip is released once the frontier is
/// `merge_gap + 2` past its end, not a sample earlier.
#[test]
fn static_release_waits_until_merge_gap_plus_two_past_a_dip() {
    let config = EmprofConfig::for_rates(FS, CLK);
    let half = config.norm_window_samples / 2;
    let end = 5_012 + config.merge_gap_samples + 2;
    let signal = dipped(&[(5_000, 12)], 30_000);
    let mut s = StreamingEmprof::new(config, FS, CLK);
    s.extend_from_slice(&signal[..end + half - 1]);
    assert!(s.drain_events().is_empty());
    s.push(signal[end + half - 1]);
    assert_eq!(s.drain_events().len(), 1);
}

/// A second dip starting one sample too far away to merge leaves the
/// first no sample above threshold past its merge gap until the second
/// closes; a slice boundary inside the second must not release the
/// first early.
#[test]
fn static_release_waits_for_a_dip_just_past_the_merge_gap_to_close() {
    let config = EmprofConfig::for_rates(FS, CLK);
    let half = config.norm_window_samples / 2;
    let second = 5_012 + config.merge_gap_samples + 1;
    let signal = dipped(&[(5_000, 12), (second, 12)], 30_000);
    let closed = second + 12 + 1;
    let mut s = StreamingEmprof::new(config, FS, CLK);
    s.extend_from_slice(&signal[..second + 5 + half]);
    assert!(s.drain_events().is_empty());
    s.extend_from_slice(&signal[second + 5 + half..closed + half - 1]);
    assert!(s.drain_events().is_empty());
    s.push(signal[closed + half - 1]);
    assert_eq!(s.drain_events().len(), 1);
}
