//! The parallel detector must report identical `detect.*` telemetry to
//! the batch detector, plus truthful `par.*` gauges about its chunking.
//!
//! This file holds the telemetry-sensitive assertions in a dedicated
//! integration-test binary: telemetry state is process-global, and a
//! dedicated binary is its own process, so nothing else records into the
//! registry mid-run. The two tests in it both reset and enable that
//! registry, so they serialize on `OBS_LOCK`.

use std::sync::Mutex;

use emprof::core::{Emprof, EmprofConfig};
use emprof::emsim::{Receiver, ReceiverConfig};
use emprof::obs;
use emprof::par::Parallelism;
use emprof::sim::PowerTrace;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

/// Serializes the tests that reset and enable the global registry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Busy signal with drift, pseudo-noise, and dips of several widths —
/// including one planted across the 2-thread seam of a 120_000-sample
/// capture (samples 59_990..60_010).
fn test_signal() -> Vec<f64> {
    let mut signal: Vec<f64> = (0..120_000)
        .map(|i| {
            let drift = 1.0 + 0.1 * (i as f64 * 2e-4).sin();
            let noise = ((i * 2_654_435_761_usize) % 1000) as f64 / 2500.0;
            5.0 * drift + noise
        })
        .collect();
    for &(start, width) in &[
        (10_000usize, 12usize),
        (20_000, 8),
        (30_000, 100),
        (59_990, 20), // straddles the 2-chunk seam at 60_000
        (90_000, 12),
    ] {
        for v in signal.iter_mut().skip(start).take(width) {
            *v *= 0.15;
        }
    }
    signal
}

fn detect_counters(snapshot: &obs::Snapshot) -> Vec<(String, u64)> {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("detect."))
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

fn width_histogram(snap: &obs::Snapshot) -> (u64, u64, Option<u64>, Option<u64>) {
    snap.histograms
        .iter()
        .find(|(name, _)| name == "detect.event_width_samples")
        .map(|(_, h)| (h.count, h.sum, h.min, h.max))
        .expect("width histogram recorded")
}

#[test]
fn parallel_and_batch_report_identical_detect_telemetry() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let signal = test_signal();
    let config = EmprofConfig::for_rates(FS, CLK);

    obs::reset();
    obs::enable();
    let batch = Emprof::new(config).profile_magnitude(&signal, FS, CLK);
    let batch_snap = obs::snapshot();

    obs::reset();
    let par = Emprof::new(config).profile_magnitude_par(&signal, FS, CLK, Parallelism::new(2));
    let par_snap = obs::snapshot();
    obs::disable();

    // Identical profiles, identical detect.* counters, identical width
    // histogram.
    assert_eq!(batch, par);
    assert!(batch.events().len() >= 5, "signal produced too few events");
    assert_eq!(detect_counters(&batch_snap), detect_counters(&par_snap));
    assert_eq!(width_histogram(&batch_snap), width_histogram(&par_snap));

    // The parallel run reports its chunking truthfully.
    assert_eq!(par_snap.gauge("par.chunks"), Some(2.0));
    assert_eq!(par_snap.gauge("par.threads"), Some(2.0));
    // The dip planted at 59_990..60_010 straddles the seam at 60_000, so
    // at least one run split must have been rejoined.
    let fixups = par_snap.gauge("par.merge_fixups").expect("fixups gauge");
    assert!(fixups >= 1.0, "seam-straddling dip recorded no fixup");
    // The batch run records none of the par.* gauges.
    assert_eq!(batch_snap.gauge("par.chunks"), None);
}

#[test]
fn parallel_capture_chain_is_bit_exact_with_telemetry_on() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // End-to-end: synthesize a capture sequentially and in parallel with
    // telemetry enabled; IQ, magnitude, and emsim.samples must agree.
    let mut power = vec![5.0f32; 200_000];
    for v in power.iter_mut().skip(100_000).take(300) {
        *v = 1.0;
    }
    let trace = PowerTrace::from_samples(power, 1.0e9);

    obs::reset();
    obs::enable();
    let seq_rx = Receiver::new(ReceiverConfig::paper_setup(40e6));
    let seq = seq_rx.capture(&trace, 11);
    let seq_samples = obs::snapshot().counter("emsim.samples");

    obs::reset();
    let par_rx =
        Receiver::new(ReceiverConfig::paper_setup(40e6)).with_parallelism(Parallelism::new(4));
    let par = par_rx.capture(&trace, 11);
    let par_samples = obs::snapshot().counter("emsim.samples");
    obs::disable();

    assert_eq!(seq, par);
    assert_eq!(seq.magnitude(), par.magnitude_par(Parallelism::new(4)));
    assert_eq!(seq_samples, par_samples);
}
