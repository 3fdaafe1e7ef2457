//! Property-based guarantees of the fault layer and the sanitizer.
//!
//! The load-bearing claim of the degradation design: non-finite samples
//! can only *remove* themselves from the analysis (and mark the events
//! straddling the collapsed gap as degraded-confidence), never alter
//! *where* events are detected on the surviving samples. Whatever
//! NaN/±inf pattern a broken front-end produces, the events' positions,
//! durations and kinds equal the batch profile of the finite
//! subsequence — and the injector itself is deterministic and
//! batch-boundary invariant, so chaos runs are reproducible.

use std::process::Command;

use emprof::core::{
    CalibConfig, Emprof, EmprofConfig, Parallelism, Profile, StallEvent, StreamingEmprof,
};
use emprof::fault::{FaultInjector, FaultPlan};
use emprof::obs;
use proptest::prelude::*;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

/// Arbitrary busy/dip signal (same shape as the detector properties).
fn build_signal(segments: &[(u16, u16, u8)]) -> Vec<f64> {
    let mut s = Vec::new();
    for (i, &(gap, dip, depth)) in segments.iter().enumerate() {
        let gap = 3 + gap as usize % 600;
        let dip = dip as usize % 160;
        let dip_level = 0.3 + (depth as f64 / 255.0) * 1.2;
        for k in 0..gap {
            s.push(5.0 + (((i * 131 + k) * 2654435761) % 997) as f64 / 3000.0);
        }
        for k in 0..dip {
            s.push(dip_level + (((i * 137 + k) * 2654435761) % 997) as f64 / 5000.0);
        }
    }
    s.extend(std::iter::repeat_n(5.0, 500));
    s
}

/// An event stripped of its confidence mark: gap-touching events are
/// deliberately flagged degraded on the poisoned signal but not on its
/// pre-filtered survivor copy, so cross-signal comparisons look at the
/// geometry only.
fn shape(e: &StallEvent) -> (usize, usize, u64, emprof::core::StallKind) {
    (
        e.start_sample,
        e.end_sample,
        e.duration_cycles.to_bits(),
        e.kind,
    )
}

fn shapes(events: &[StallEvent]) -> Vec<(usize, usize, u64, emprof::core::StallKind)> {
    events.iter().map(shape).collect()
}

/// One of the poisons a broken capture chain can emit.
fn poison(kind: u8) -> f64 {
    match kind % 4 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        // Subnormal: finite, so it must NOT be rejected — merely tiny.
        _ => f64::MIN_POSITIVE / 4.0,
    }
}

/// A dirty capture of `len` samples: the busy/dip signal repeated to
/// length, optionally under a linear attenuation ramp down to
/// `ramp_floor`, then overwritten by NaN/±inf runs `(position, width,
/// kind, on_seam)` of 1–40 samples. A run with `on_seam` set starts on a
/// calibration-block seam or a `threads`-way chunk seam instead of at
/// its position.
fn dirty_signal(
    segments: &[(u16, u16, u8)],
    len: usize,
    ramp_floor: Option<f64>,
    runs: &[(u16, u8, u8, bool)],
    threads: usize,
) -> Vec<f64> {
    // The default calibration block is one normalization window.
    let block = config().norm_window_samples;
    let mut signal: Vec<f64> = build_signal(segments)
        .into_iter()
        .cycle()
        .take(len)
        .collect();
    if let Some(floor) = ramp_floor {
        for (i, v) in signal.iter_mut().enumerate() {
            *v *= 1.0 - (1.0 - floor) * i as f64 / len as f64;
        }
    }
    if len == 0 {
        return signal;
    }
    let mut seams: Vec<usize> = (1..len.div_ceil(block)).map(|k| k * block).collect();
    seams.extend((1..threads).map(|k| len * k / threads));
    for &(pos, width, kind, on_seam) in runs {
        let start = if on_seam && !seams.is_empty() {
            seams[pos as usize % seams.len()]
        } else {
            pos as usize * len / (u16::MAX as usize + 1)
        };
        let width = 1 + width as usize % 40;
        for v in signal.iter_mut().skip(start).take(width) {
            *v = poison(kind % 3);
        }
    }
    signal
}

/// Non-zero `detect.*` and `calib.*` counters, sorted by name.
fn detector_counters() -> Vec<(String, u64)> {
    let mut counters: Vec<(String, u64)> = obs::snapshot()
        .counters
        .into_iter()
        .filter(|(name, v)| (name.starts_with("detect.") || name.starts_with("calib.")) && *v > 0)
        .collect();
    counters.sort();
    counters
}

/// Runs the batch, parallel and streaming detectors, static or
/// adaptive, on one signal and asserts their whole profiles agree,
/// confidence marks included. With `counters` set, telemetry is recorded
/// per path and their `detect.*`/`calib.*` counters must agree too.
fn assert_paths_agree(
    adaptive: bool,
    signal: &[f64],
    threads: usize,
    slice: usize,
    counters: bool,
) -> Result<(), TestCaseError> {
    let run = |path: &dyn Fn() -> Profile| {
        if counters {
            obs::reset();
            obs::enable();
        }
        let profile = path();
        obs::disable();
        (profile, detector_counters())
    };
    let mut cfg = config();
    if adaptive {
        cfg.calib = CalibConfig::adaptive();
    }
    let e = Emprof::new(cfg);
    let (batch, batch_counters) = run(&|| e.profile_magnitude(signal, FS, CLK));
    let (par, par_counters) =
        run(&|| e.profile_magnitude_par(signal, FS, CLK, Parallelism::new(threads)));
    let (streamed, stream_counters) = run(&|| {
        let mut s = StreamingEmprof::new(cfg, FS, CLK);
        for piece in signal.chunks(slice) {
            s.extend_from_slice(piece);
        }
        s.finish()
    });
    prop_assert_eq!(&par, &batch);
    prop_assert_eq!(&streamed, &batch);
    prop_assert_eq!(&par_counters, &batch_counters);
    prop_assert_eq!(&stream_counters, &batch_counters);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// The counter half of `dirty_signals_agree_on_every_path`. Not a
    /// test by itself: telemetry is process-global, so
    /// `dirty_signals_report_identical_counters_on_every_path` runs it
    /// in a child process where no other test records into the registry.
    fn dirty_signals_agree_on_counters(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..80),
        len in 0usize..30_001,
        ramp in (any::<bool>(), 0.05f64..1.0),
        runs in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        adaptive in any::<bool>(),
        threads in 2usize..9,
        slice in 1usize..5_000,
    ) {
        let signal = dirty_signal(&segments, len, ramp.0.then_some(ramp.1), &runs, threads);
        assert_paths_agree(adaptive, &signal, threads, slice, true)?;
    }
}

/// Runs `dirty_signals_agree_on_counters` alone in a child copy of this
/// test binary, so no concurrently running test pollutes the counters.
#[test]
fn dirty_signals_report_identical_counters_on_every_path() {
    const CHILD: &str = "PROP_FAULT_COUNTER_CHILD";
    if std::env::var_os(CHILD).is_some() {
        dirty_signals_agree_on_counters();
        return;
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "dirty_signals_report_identical_counters_on_every_path",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .output()
        .expect("spawn the counter child");
    assert!(
        out.status.success(),
        "counter child failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Poisoned samples never alter the events on the survivors: the
    /// batch profile of the poisoned signal equals the batch profile of
    /// its finite subsequence, and streaming agrees sample for sample.
    #[test]
    fn non_finite_never_alters_survivor_events(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..24),
        poisons in prop::collection::vec((any::<u16>(), any::<u8>()), 0..64),
    ) {
        let mut signal = build_signal(&segments);
        for &(pos, kind) in &poisons {
            let i = pos as usize % signal.len();
            signal[i] = poison(kind);
        }
        let survivors: Vec<f64> =
            signal.iter().copied().filter(|v| v.is_finite()).collect();

        let emprof = Emprof::new(config());
        let on_poisoned = emprof.profile_magnitude(&signal, FS, CLK);
        let on_survivors = emprof.profile_magnitude(&survivors, FS, CLK);
        prop_assert_eq!(shapes(on_poisoned.events()), shapes(on_survivors.events()));
        prop_assert_eq!(on_survivors.degraded_count(), 0);

        // Streaming agrees with batch *including* the confidence marks.
        let mut streaming = StreamingEmprof::new(config(), FS, CLK);
        streaming.extend(signal.iter().copied());
        let rejected = streaming.samples_rejected();
        let streamed = streaming.finish();
        prop_assert_eq!(streamed.events(), on_poisoned.events());
        prop_assert_eq!(rejected, signal.len() - survivors.len());
    }

    /// The injector is a pure function of (plan, seed, position): two
    /// injectors with the same seed produce bit-identical signals and
    /// reports, however the input is chopped into batches.
    #[test]
    fn injector_is_deterministic_and_batch_invariant(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..16),
        seed in any::<u64>(),
        cuts in prop::collection::vec(any::<u16>(), 0..8),
    ) {
        let clean = build_signal(&segments);
        let plan = FaultPlan::chaos();

        let mut whole = clean.clone();
        let report_whole = FaultInjector::new(plan.clone(), seed).inject(&mut whole);

        // Same signal, fed through a second injector in arbitrary chunks.
        let mut chunked = clean.clone();
        let mut injector = FaultInjector::new(plan, seed);
        let mut bounds: Vec<usize> =
            cuts.iter().map(|&c| c as usize % clean.len()).collect();
        bounds.push(0);
        bounds.push(clean.len());
        bounds.sort_unstable();
        let mut report_chunked = emprof::fault::FaultReport::default();
        for w in bounds.windows(2) {
            report_chunked.merge(&injector.inject(&mut chunked[w[0]..w[1]]));
        }

        prop_assert_eq!(
            whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(report_whole, report_chunked);
    }

    /// Faulted signals profile without panicking, and the poisoned
    /// fraction the injector reports matches what the detector rejects.
    #[test]
    fn faulted_profile_matches_survivor_profile(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..16),
        seed in any::<u64>(),
    ) {
        let mut signal = build_signal(&segments);
        FaultInjector::new(FaultPlan::chaos(), seed).inject(&mut signal);
        let survivors: Vec<f64> =
            signal.iter().copied().filter(|v| v.is_finite()).collect();
        let emprof = Emprof::new(config());
        let on_faulted = emprof.profile_magnitude(&signal, FS, CLK);
        let on_survivors = emprof.profile_magnitude(&survivors, FS, CLK);
        prop_assert_eq!(shapes(on_faulted.events()), shapes(on_survivors.events()));
    }

    /// A persistent gain step landing exactly on an adaptive-detection
    /// block seam must not make the parallel fan-out diverge from the
    /// batch path: both compute the same causal block schedule, so a
    /// step that changes calibration mid-signal changes it identically.
    #[test]
    fn adaptive_gain_step_at_block_seam_matches_batch(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 4..16),
        factor_milli in 200u32..1800,
        threads in 2usize..9,
    ) {
        let mut cfg = config();
        cfg.calib = CalibConfig::adaptive();
        let mut signal = build_signal(&segments);
        let block = cfg.norm_window_samples.max(1);
        if signal.len() > block {
            // Pick a block seam near the middle and step the gain there.
            let seam = (signal.len() / block / 2).max(1) * block;
            let f = factor_milli as f64 / 1000.0;
            for v in &mut signal[seam..] {
                *v *= f;
            }
        }
        let e = Emprof::new(cfg);
        let batch = e.profile_magnitude(&signal, FS, CLK);
        let par = e.profile_magnitude_par(&signal, FS, CLK, Parallelism::new(threads));
        prop_assert_eq!(batch, par);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Batch ≡ parallel ≡ streaming on dirty signals, for both the
    /// static and the adaptive detector: NaN/±inf runs (some on chunk
    /// and calibration-block seams) and an optional attenuation ramp
    /// leave the three whole profiles equal, confidence included.
    #[test]
    fn dirty_signals_agree_on_every_path(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..80),
        len in 0usize..30_001,
        ramp in (any::<bool>(), 0.05f64..1.0),
        runs in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        adaptive in any::<bool>(),
        threads in 2usize..9,
        slice in 1usize..5_000,
    ) {
        let signal = dirty_signal(&segments, len, ramp.0.then_some(ramp.1), &runs, threads);
        assert_paths_agree(adaptive, &signal, threads, slice, false)?;
    }
}
