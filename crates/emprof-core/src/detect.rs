//! The EMPROF detector: normalization and dip extraction.

use emprof_obs as obs;
use emprof_par::Parallelism;
use emprof_sim::PowerTrace;

use crate::config::EmprofConfig;
use crate::profile::{Confidence, Profile, StallEvent, StallKind};

/// The EMPROF profiler (Section IV of the paper).
///
/// Stateless apart from its configuration: the detector needs no training
/// and no a-priori knowledge of the profiled program, which is what lets
/// the paper profile boot sequences before any software infrastructure is
/// up (Section VI-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Emprof {
    config: EmprofConfig,
}

impl Emprof {
    /// Creates a profiler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EmprofConfig::validate`].
    pub fn new(config: EmprofConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid EMPROF configuration: {e}"));
        Emprof { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> EmprofConfig {
        self.config
    }

    /// Profiles a magnitude signal sampled at `sample_rate_hz` from a core
    /// clocked at `clock_hz`.
    ///
    /// This is the heart of EMPROF: moving-min/max normalization, then a
    /// duration-filtered threshold detector over the normalized signal.
    /// It is the sequential call of the one detector engine
    /// ([`profile_magnitude_par`](Emprof::profile_magnitude_par)).
    ///
    /// Non-finite samples (NaN, ±inf) are dropped before normalization —
    /// a single NaN would otherwise poison every moving min/max window
    /// that sees it. The detector runs on the surviving subsequence, so
    /// event indices are positions within the *accepted* samples and the
    /// profile's `total_samples` counts accepted samples only; rejections
    /// surface on the `detect.samples_rejected` counter. This is the same
    /// policy [`crate::StreamingEmprof::push`] applies, keeping batch and
    /// streaming results identical on any input.
    pub fn profile_magnitude(
        &self,
        magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> Profile {
        self.profile_magnitude_par(
            magnitude,
            sample_rate_hz,
            clock_hz,
            Parallelism::sequential(),
        )
    }

    /// Profiles a captured EM signal (the physical-device path).
    ///
    /// Generic over anything that can provide a magnitude signal with its
    /// rates; in practice this is `emprof_emsim::CapturedSignal` via the
    /// `(magnitude, sample_rate, clock)` triple.
    pub fn profile_capture(
        &self,
        magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> Profile {
        self.profile_magnitude(magnitude, sample_rate_hz, clock_hz)
    }

    /// Profiles a simulator power trace, first averaging it over
    /// `cycles_per_sample`-cycle intervals exactly as the paper does
    /// (20-cycle intervals, Section III-B) — the Table III validation
    /// path.
    pub fn profile_power_trace(&self, trace: &PowerTrace, cycles_per_sample: usize) -> Profile {
        let (samples, rate) = trace.averaged(cycles_per_sample);
        self.profile_magnitude(&samples, rate, trace.clock_hz())
    }

    /// Reference pipeline over a materialized normalized signal: finds
    /// below-threshold runs, merges runs separated by at most
    /// `merge_gap_samples`, and widens each run outward to the
    /// `edge_level` crossings. The production path runs the fused
    /// kernel instead; this stays as the executable specification the
    /// unit tests pin the fused path against.
    #[cfg(test)]
    fn detect_dips(&self, norm: &[f64]) -> Vec<(usize, usize)> {
        let raw = self.threshold_runs(norm);
        let merged = self.merge_runs(raw);
        self.refine_edges(norm, merged)
    }

    /// Turns refined dips into duration-filtered, classified stall
    /// events of high confidence. Reference implementation; production
    /// filters and classifies inside
    /// [`Stitcher::into_events`](crate::engine::Stitcher::into_events).
    #[cfg(test)]
    fn events_from_dips(&self, dips: Vec<(usize, usize)>, cps: f64) -> Vec<StallEvent> {
        let min_samples = min_event_samples(&self.config, cps);
        dips.into_iter()
            .filter(|&(s, e)| (e - s) as f64 >= min_samples)
            .map(|(s, e)| classify(&self.config, s, e, cps, Confidence::High))
            .collect()
    }

    /// Below-threshold runs of the normalized signal, as `(start, end)`.
    /// Reference implementation; production uses the fused kernel.
    #[cfg(test)]
    fn threshold_runs(&self, norm: &[f64]) -> Vec<(usize, usize)> {
        let th = self.config.threshold;
        let mut raw: Vec<(usize, usize)> = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &v) in norm.iter().enumerate() {
            if v < th {
                if start.is_none() {
                    start = Some(i);
                }
            } else if let Some(s) = start.take() {
                raw.push((s, i));
            }
        }
        if let Some(s) = start {
            raw.push((s, norm.len()));
        }
        raw
    }

    /// Merges runs separated by at most `merge_gap_samples`. Reference
    /// implementation; production stitches through
    /// [`crate::engine::Stitcher`].
    #[cfg(test)]
    fn merge_runs(&self, raw: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(raw.len());
        for run in raw {
            match merged.last_mut() {
                Some(last) if run.0 - last.1 <= self.config.merge_gap_samples => {
                    last.1 = run.1;
                }
                _ => merged.push(run),
            }
        }
        merged
    }

    /// Widens each run outward to the `edge_level` crossings, without
    /// letting adjacent events overlap, then re-merges any that now
    /// abut. Reference implementation over a materialized normalized
    /// signal; production refines from run lists in
    /// [`Stitcher::into_events`](crate::engine::Stitcher::into_events).
    #[cfg(test)]
    fn refine_edges(&self, norm: &[f64], merged: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        let edge = self.config.edge_level;
        let mut refined: Vec<(usize, usize)> = Vec::with_capacity(merged.len());
        for (idx, &(mut s, mut e)) in merged.iter().enumerate() {
            let left_bound = refined.last().map_or(0, |r: &(usize, usize)| r.1);
            while s > left_bound && norm[s - 1] < edge {
                s -= 1;
            }
            let right_bound = merged.get(idx + 1).map_or(norm.len(), |n| n.0);
            while e < right_bound && norm[e] < edge {
                e += 1;
            }
            refined.push((s, e));
        }
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(refined.len());
        for run in refined {
            match out.last_mut() {
                Some(last) if run.0 <= last.1 => last.1 = last.1.max(run.1),
                _ => out.push(run),
            }
        }
        out
    }
}

/// The duration filter floor, in samples, at `cps` cycles per sample.
pub(crate) fn min_event_samples(config: &EmprofConfig, cps: f64) -> f64 {
    (config.min_duration_cycles / cps).max(config.min_duration_samples as f64)
}

/// The stall event over `[start, end)` at `cps` cycles per sample: a
/// refresh collision from `refresh_min_cycles` on, a normal stall
/// below. The one classification rule, for batch and streaming alike.
pub(crate) fn classify(
    config: &EmprofConfig,
    start: usize,
    end: usize,
    cps: f64,
    confidence: Confidence,
) -> StallEvent {
    let duration_cycles = (end - start) as f64 * cps;
    StallEvent {
        start_sample: start,
        end_sample: end,
        duration_cycles,
        kind: if duration_cycles >= config.refresh_min_cycles {
            StallKind::RefreshCollision
        } else {
            StallKind::Normal
        },
        confidence,
    }
}

/// Widens each merged below-threshold run outward to the `edge_level`
/// crossings using the below-edge **run list** instead of the normalized
/// signal, then re-merges any runs that now abut. Reference
/// implementation, pinned against `refine_edges`; production refines,
/// merges, filters and classifies in one walk,
/// [`Stitcher::into_events`](crate::engine::Stitcher::into_events), whose
/// docs give the proof that the run lists suffice.
#[cfg(test)]
fn refine_from_runs(
    merged: Vec<(usize, usize)>,
    below_edge: &[(usize, usize)],
    total: usize,
) -> Vec<(usize, usize)> {
    let mut refined: Vec<(usize, usize)> = Vec::with_capacity(merged.len());
    // Forward cursor into `below_edge`: merged runs are sorted, so the
    // containing below-edge runs only ever advance.
    let mut cursor = 0usize;
    for (idx, &(s, e)) in merged.iter().enumerate() {
        let left_bound = refined.last().map_or(0, |r: &(usize, usize)| r.1);
        while below_edge[cursor].1 <= s {
            cursor += 1;
        }
        debug_assert!(below_edge[cursor].0 <= s, "run start not below edge");
        let refined_start = below_edge[cursor].0.max(left_bound);
        let mut last = cursor;
        while below_edge[last].1 < e {
            last += 1;
        }
        debug_assert!(below_edge[last].0 < e, "run end not below edge");
        let right_bound = merged.get(idx + 1).map_or(total, |m| m.0);
        let refined_end = below_edge[last].1.min(right_bound);
        refined.push((refined_start, refined_end));
        cursor = last;
    }
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(refined.len());
    for run in refined {
        match out.last_mut() {
            Some(last) if run.0 <= last.1 => last.1 = last.1.max(run.1),
            _ => out.push(run),
        }
    }
    out
}

/// The one sanitize rule: check, then fall back. `run` reads the signal
/// as given and reports its first non-finite sample as `Err`; only then
/// are the non-finite samples dropped and `run` repeated on the
/// survivors, which cannot fail. A clean signal — the overwhelmingly
/// common case — is checked by `run`'s own read of it. Returns `run`'s
/// output, how many samples were rejected, and the survivor positions
/// where runs of rejected samples collapsed out (one point per
/// contiguous gap, the `emprof_fault::survivor_dropout_points`
/// convention) — events touching those positions carry
/// [`Confidence::Degraded`].
pub(crate) fn check_then_sanitize<T>(
    magnitude: &[f64],
    mut run: impl FnMut(&[f64]) -> Result<T, usize>,
) -> (T, usize, Vec<usize>) {
    if let Ok(out) = run(magnitude) {
        return (out, 0, Vec::new());
    }
    let mut kept: Vec<f64> = Vec::with_capacity(magnitude.len());
    let mut gaps: Vec<usize> = Vec::new();
    for &v in magnitude {
        if v.is_finite() {
            kept.push(v);
        } else if gaps.last() != Some(&kept.len()) {
            gaps.push(kept.len());
        }
    }
    let out = run(&kept).expect("survivors are finite by construction");
    (out, magnitude.len() - kept.len(), gaps)
}

/// Flushes per-event telemetry shared by the batch and streaming paths:
/// the `detect.event_width_samples` and `detect.stall_latency_cycles`
/// histograms and the `detect.confidence.events_degraded` count, which
/// are only final once the profile is, plus — with `count_events`, for
/// a caller that did not count events as it emitted them — the
/// `detect.events` / `detect.refresh_events` counters.
pub(crate) fn record_event_metrics(events: &[StallEvent], count_events: bool) {
    if !obs::is_enabled() {
        return;
    }
    if count_events {
        obs::counter_add!("detect.events", events.len() as u64);
        let refresh = events
            .iter()
            .filter(|e| e.kind == StallKind::RefreshCollision)
            .count();
        obs::counter_add!("detect.refresh_events", refresh as u64);
    }
    let degraded = events
        .iter()
        .filter(|e| e.confidence == Confidence::Degraded)
        .count();
    obs::counter_add!("detect.confidence.events_degraded", degraded as u64);
    for e in events {
        obs::histogram_record!(
            "detect.event_width_samples",
            (e.end_sample - e.start_sample) as u64
        );
        obs::histogram_record!("detect.stall_latency_cycles", e.duration_cycles as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Stitcher;
    use emprof_signal::fused::LevelRuns;

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;
    const CPS: f64 = CLK / FS; // 25 cycles per sample

    fn emprof() -> Emprof {
        Emprof::new(EmprofConfig::for_rates(FS, CLK))
    }

    /// Busy signal at 5.0 with dips of `dip_samples` at the given starts.
    fn signal_with_dips(len: usize, dips: &[(usize, usize)]) -> Vec<f64> {
        let mut s = vec![5.0; len];
        for &(start, width) in dips {
            for v in s.iter_mut().skip(start).take(width) {
                *v = 0.8;
            }
        }
        s
    }

    #[test]
    fn detects_isolated_stalls() {
        let mag = signal_with_dips(20_000, &[(5_000, 12), (9_000, 12), (13_000, 12)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 3);
        for e in p.events() {
            // 12 samples = 300 cycles; edge refinement may widen slightly.
            assert!(
                (250.0..450.0).contains(&e.duration_cycles),
                "latency {}",
                e.duration_cycles
            );
            assert_eq!(e.kind, StallKind::Normal);
        }
    }

    #[test]
    fn short_dips_are_rejected() {
        // 2 samples = 50 cycles < 100-cycle minimum: on-chip latency, not
        // an LLC miss.
        let mag = signal_with_dips(20_000, &[(5_000, 2)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 0);
    }

    #[test]
    fn long_stall_classified_as_refresh() {
        // 100 samples = 2500 cycles = 2.5 us at 1 GHz: a refresh collision.
        let mag = signal_with_dips(20_000, &[(5_000, 100)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 0);
        assert_eq!(p.refresh_count(), 1);
        assert!(p.events()[0].duration_cycles >= 2000.0);
    }

    #[test]
    fn noise_spike_inside_dip_does_not_split_it() {
        let mut mag = signal_with_dips(20_000, &[(5_000, 12)]);
        mag[5_006] = 5.0; // single-sample spike into the dip
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 1, "merge_gap should absorb the spike");
    }

    #[test]
    fn gain_step_does_not_create_false_stalls() {
        // Probe gain drops 40% mid-capture; normalization must absorb it.
        let mut mag = vec![5.0; 30_000];
        for v in mag.iter_mut().skip(15_000) {
            *v = 3.0;
        }
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 0, "gain step misread as a stall");
    }

    #[test]
    fn dips_detected_under_slow_drift() {
        // ±10% sinusoidal drift over the capture plus real dips.
        let mut mag: Vec<f64> = (0..40_000)
            .map(|i| 5.0 * (1.0 + 0.1 * (i as f64 * 1e-4).sin()))
            .collect();
        for &start in &[10_000usize, 20_000, 30_000] {
            for v in mag.iter_mut().skip(start).take(12) {
                *v *= 0.15;
            }
        }
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 3);
    }

    #[test]
    fn measured_latency_tracks_true_duration() {
        // Dips of 8, 16, and 40 samples: 200, 400, 1000 cycles.
        let mag = signal_with_dips(30_000, &[(5_000, 8), (10_000, 16), (15_000, 40)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.events().len(), 3);
        let measured: Vec<f64> = p.events().iter().map(|e| e.duration_cycles).collect();
        for (m, expected) in measured.iter().zip([200.0, 400.0, 1000.0]) {
            let err = (m - expected).abs() / expected;
            assert!(err < 0.3, "measured {m} vs expected {expected}");
        }
        // Ordering must be preserved exactly.
        assert!(measured[0] < measured[1] && measured[1] < measured[2]);
    }

    #[test]
    fn event_positions_map_to_cycles() {
        let mag = signal_with_dips(20_000, &[(5_000, 12)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        let cycle = p.sample_to_cycle(p.events()[0].center_sample());
        let expected = (5_006.0 * CPS) as i64;
        assert!((cycle as i64 - expected).abs() < (3.0 * CPS) as i64);
    }

    #[test]
    fn dip_at_signal_edges_is_handled() {
        // Dip running off the end of the capture.
        let mut mag = vec![5.0; 10_000];
        for v in mag.iter_mut().skip(9_990) {
            *v = 0.8;
        }
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert!(p.events().len() <= 1);
        if let Some(e) = p.events().first() {
            assert_eq!(e.end_sample, 10_000);
        }
    }

    #[test]
    fn power_trace_path_uses_20_cycle_averaging() {
        // A 1 GHz power trace with a 300-cycle stall; averaged per 20
        // cycles -> 50 MS/s, stall = 15 samples.
        let mut power = vec![5.0f32; 100_000];
        for v in power.iter_mut().skip(50_000).take(300) {
            *v = 1.0;
        }
        let trace = PowerTrace::from_samples(power, 1.0e9);
        let emprof = Emprof::new(EmprofConfig::for_rates(50e6, 1.0e9));
        let p = emprof.profile_power_trace(&trace, 20);
        assert_eq!(p.miss_count(), 1);
        assert!((p.events()[0].duration_cycles - 300.0).abs() < 120.0);
    }

    #[test]
    fn empty_signal_gives_empty_profile() {
        let p = emprof().profile_magnitude(&[], FS, CLK);
        assert_eq!(p.events().len(), 0);
    }

    #[test]
    fn non_finite_samples_cannot_alter_events() {
        // Interleave NaN/±inf between clean samples: the surviving
        // subsequence is exactly the clean signal, so the profile must
        // be identical to the clean run — no poisoned windows, no
        // shifted indices, no phantom or lost events.
        let clean = signal_with_dips(20_000, &[(5_000, 12), (9_000, 30)]);
        let mut dirty = Vec::with_capacity(clean.len() + 64);
        for (i, &v) in clean.iter().enumerate() {
            if i % 997 == 0 {
                dirty.push(f64::NAN);
            }
            if i % 2503 == 0 {
                dirty.push(f64::INFINITY);
            }
            if i % 4099 == 0 {
                dirty.push(f64::NEG_INFINITY);
            }
            dirty.push(v);
        }
        let pc = emprof().profile_magnitude(&clean, FS, CLK);
        let pd = emprof().profile_magnitude(&dirty, FS, CLK);
        assert_eq!(pc.events().len(), pd.events().len());
        for (c, d) in pc.events().iter().zip(pd.events()) {
            assert_eq!(
                (c.start_sample, c.end_sample),
                (d.start_sample, d.end_sample)
            );
            assert_eq!(c.duration_cycles, d.duration_cycles);
            assert_eq!(c.kind, d.kind);
            assert_eq!(c.confidence, Confidence::High);
        }
        // The dirty run detects the same events but cannot fully trust
        // ones that straddle a collapsed dropout gap (the first dip
        // spans the ∞ inserted before sample 5006).
        assert_eq!(pc.degraded_count(), 0);
        assert!(pd.degraded_count() >= 1, "gap-touching event not degraded");
        assert_eq!(pd.total_samples(), clean.len());
    }

    #[test]
    fn all_non_finite_signal_gives_empty_profile() {
        let p = emprof().profile_magnitude(&[f64::NAN; 5_000], FS, CLK);
        assert_eq!(p.events().len(), 0);
        assert_eq!(p.total_samples(), 0);
    }

    #[test]
    fn constant_signal_yields_no_events() {
        // Flat windows normalize to 1.0 ("no dip"), never a
        // threshold-crossing value.
        let p = emprof().profile_magnitude(&[3.3; 20_000], FS, CLK);
        assert_eq!(p.events().len(), 0);
    }

    #[test]
    fn step_signal_yields_no_events() {
        // A clean upward gain step has flat plateaus on both sides; the
        // lower plateau must not read as a dip.
        let mut mag = vec![2.0; 15_000];
        mag.extend(vec![6.0; 15_000]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid EMPROF configuration")]
    fn bad_config_panics() {
        let mut c = EmprofConfig::for_rates(FS, CLK);
        c.threshold = 2.0;
        Emprof::new(c);
    }

    #[test]
    fn fused_path_matches_reference_pipeline() {
        // The production profile (fused kernel + one-pass back half) must
        // be event-for-event identical to the executable specification: a
        // materialized normalization followed by threshold/merge/refine,
        // then the duration filter and classification.
        let mut mag: Vec<f64> = (0..50_000)
            .map(|i| 5.0 * (1.0 + 0.1 * (i as f64 * 7e-5).sin()))
            .collect();
        for &(start, width) in &[
            (5_000usize, 12usize),
            (9_000, 8),
            (9_012, 8), // close pair: exercises the merge step
            (20_000, 100),
            (35_000, 2), // too short on its own
            (35_004, 10),
            (49_990, 10), // runs off the end
        ] {
            for v in mag.iter_mut().skip(start).take(width) {
                *v *= 0.15;
            }
        }
        let e = emprof();
        let norm =
            emprof_signal::stats::normalize_moving_minmax(&mag, e.config().norm_window_samples);
        let dips = e.detect_dips(&norm);
        let expected = e.events_from_dips(dips, CPS);
        assert!(expected.len() >= 4, "signal produced too few events");
        let p = e.profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.events(), &expected[..]);
    }

    #[test]
    fn refine_from_runs_matches_reference_refine() {
        // Pseudo-random normalized signals across threshold/edge combos,
        // including threshold == edge and a barely-separated pair where
        // merged runs bridge above-edge gaps. The run-list refine and the
        // production back half (stitch, then one walk) both match the
        // reference over the materialized signal.
        for (threshold, edge) in [(0.35, 0.5), (0.4, 0.4), (0.3, 0.35), (0.2, 0.9)] {
            let mut cfg = EmprofConfig::for_rates(FS, CLK);
            cfg.threshold = threshold;
            cfg.edge_level = edge;
            let e = Emprof::new(cfg);
            for seed in 0..40usize {
                let norm: Vec<f64> = (0..400)
                    .map(|i| {
                        let h = (i + seed * 991).wrapping_mul(2_654_435_761) % 1024;
                        h as f64 / 1023.0
                    })
                    .collect();
                let below_edge = {
                    let mut runs = Vec::new();
                    let mut start = None;
                    for (i, &v) in norm.iter().enumerate() {
                        if v < edge {
                            start.get_or_insert(i);
                        } else if let Some(s) = start.take() {
                            runs.push((s, i));
                        }
                    }
                    if let Some(s) = start {
                        runs.push((s, norm.len()));
                    }
                    runs
                };
                let raw = e.threshold_runs(&norm);
                let merged = e.merge_runs(raw.clone());
                let reference = e.refine_edges(&norm, merged.clone());
                let fast = refine_from_runs(merged, &below_edge, norm.len());
                assert_eq!(
                    fast, reference,
                    "threshold {threshold} edge {edge} seed {seed}"
                );
                let mut stitcher = Stitcher::new(cfg.merge_gap_samples);
                stitcher.push(&mut LevelRuns {
                    below_threshold: raw,
                    below_edge,
                });
                assert_eq!(
                    stitcher.into_events(&cfg, norm.len(), CPS),
                    e.events_from_dips(reference, CPS),
                    "threshold {threshold} edge {edge} seed {seed}"
                );
            }
        }
    }
}
