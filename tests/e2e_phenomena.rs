//! Integration tests for the paper's qualitative phenomena, end to end
//! (scaled-down workloads so the suite stays fast in debug builds).

use emprof::core::{Emprof, EmprofConfig, StallKind};
use emprof::emsim::{MemoryProbe, Receiver, ReceiverConfig};
use emprof::sim::{DeviceModel, Interpreter, Simulator, StallCause};
use emprof::workloads::array_walk::{ArrayWalkConfig, MissLevel};
use emprof::workloads::microbench::MicrobenchConfig;
use emprof::workloads::spec::WorkloadSpec;
use emprof::workloads::{MARKER_MISS_END, MARKER_MISS_START};

fn profile_capture(
    result: &emprof::sim::SimResult,
    device: &DeviceModel,
    bandwidth: f64,
    seed: u64,
) -> (emprof::core::Profile, emprof::emsim::CapturedSignal) {
    let capture =
        Receiver::new(ReceiverConfig::paper_setup(bandwidth)).capture(&result.power, seed);
    let emprof = Emprof::new(EmprofConfig::for_rates(
        capture.sample_rate_hz(),
        device.clock_hz,
    ));
    let profile = emprof.profile_capture(
        &capture.magnitude(),
        capture.sample_rate_hz(),
        device.clock_hz,
    );
    (profile, capture)
}

/// Fig. 2/4: LLC-miss stalls are an order of magnitude longer than
/// LLC-hit stalls, in ground truth.
#[test]
fn miss_stalls_dwarf_hit_stalls() {
    let device = DeviceModel::sesc_like();
    let run = |level: MissLevel| {
        let mut cfg =
            ArrayWalkConfig::for_level(level, device.l1d.size_bytes, device.llc.size_bytes);
        cfg.passes = 2;
        let program = cfg.build().unwrap();
        Simulator::new(device.clone())
            .with_max_cycles(200_000_000)
            .run(Interpreter::new(&program))
    };
    let hit = run(MissLevel::LlcHit);
    let miss = run(MissLevel::LlcMiss);
    let avg = |r: &emprof::sim::SimResult, llc: bool| {
        let v: Vec<u64> = r
            .ground_truth
            .stalls()
            .iter()
            .filter(|s| match s.cause {
                StallCause::LlcMiss { .. } => llc,
                StallCause::LlcHit => !llc,
                StallCause::Other => false,
            })
            .map(|s| s.duration())
            .collect();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
    };
    assert!(avg(&miss, true) > 8.0 * avg(&hit, false));
}

/// Fig. 5: refresh collisions appear as separately classified
/// microsecond-scale stalls roughly every 70 µs of miss-dense execution.
#[test]
fn refresh_collisions_detected_and_classified() {
    let device = DeviceModel::olimex();
    let program = MicrobenchConfig::new(1024, 50).build().unwrap();
    let result = Simulator::new(device.clone())
        .with_max_cycles(400_000_000)
        .run(Interpreter::new(&program));
    let (profile, _) = profile_capture(&result, &device, 40e6, 5);
    // The page-touch phase is a miss storm that merges into long blobs;
    // analyze the marker-bracketed measured section, as the paper does.
    let window = result
        .ground_truth
        .marker_window(MARKER_MISS_START, MARKER_MISS_END)
        .unwrap();
    let profile = profile.slice_cycles(window.0, window.1);
    assert!(profile.refresh_count() > 0, "no refresh collisions found");
    for e in profile.events() {
        if e.kind == StallKind::RefreshCollision {
            let us = e.duration_cycles / device.clock_hz * 1e6;
            assert!(
                (1.0..6.0).contains(&us),
                "refresh stall of {us:.2} us outside the paper's band"
            );
        }
    }
}

/// Fig. 10: memory activity peaks while the processor is stalled.
#[test]
fn dual_probe_signals_anticorrelate() {
    let device = DeviceModel::olimex();
    let program = MicrobenchConfig::new(64, 4).build().unwrap();
    let result = Simulator::new(device.clone())
        .with_max_cycles(200_000_000)
        .run(Interpreter::new(&program));
    let (profile, capture) = profile_capture(&result, &device, 40e6, 6);
    let horizon_ns = result.stats.cycles as f64 / device.clock_hz * 1e9;
    let mem = MemoryProbe::new(ReceiverConfig::paper_setup(40e6))
        .capture(&result.cas_trace, horizon_ns, device.clock_hz, 6)
        .magnitude();
    let n = mem.len().min(capture.len());
    let busy_mean = mem[..n].iter().sum::<f64>() / n as f64;
    let mut peak_hits = 0usize;
    let mut total = 0usize;
    for e in profile.events() {
        if e.end_sample <= n {
            total += 1;
            let peak = mem[e.start_sample..e.end_sample]
                .iter()
                .cloned()
                .fold(f64::MIN, f64::max);
            if peak > 2.0 * busy_mean {
                peak_hits += 1;
            }
        }
    }
    assert!(total > 20);
    assert!(
        peak_hits as f64 > 0.8 * total as f64,
        "only {peak_hits}/{total} stalls coincide with memory bursts"
    );
}

/// Fig. 12: narrowing the bandwidth to 20 MHz collapses detection on the
/// short-stall device (Alcatel) but not on the Olimex.
#[test]
fn low_bandwidth_hides_short_stalls() {
    let spec = WorkloadSpec::mcf().scaled(0.05);
    let counts = |device: DeviceModel, bw: f64| {
        let result = Simulator::new(device.clone())
            .with_max_cycles(200_000_000)
            .run(spec.source());
        let (profile, _) = profile_capture(&result, &device, bw, 7);
        profile.events().len()
    };
    let alcatel_wide = counts(DeviceModel::alcatel(), 40e6);
    let alcatel_narrow = counts(DeviceModel::alcatel(), 20e6);
    let olimex_wide = counts(DeviceModel::olimex(), 40e6);
    let olimex_narrow = counts(DeviceModel::olimex(), 20e6);
    assert!(
        (alcatel_narrow as f64) < 0.4 * alcatel_wide as f64,
        "alcatel detection should collapse at 20 MHz: {alcatel_narrow} vs {alcatel_wide}"
    );
    assert!(
        (olimex_narrow as f64) > 0.8 * olimex_wide as f64,
        "olimex detection should survive 20 MHz: {olimex_narrow} vs {olimex_wide}"
    );
}

/// Table IV's device orderings on a capacity-sensitive workload: the
/// Alcatel's 1 MiB LLC removes most warm-set misses.
#[test]
fn large_llc_removes_warm_misses() {
    // Raise the warm-access rate so the 512 KiB warm set completes its
    // coverage cycle well before the steady half, keeping the test short.
    let mut spec = WorkloadSpec::ammp().scaled(0.2);
    spec.phases[0].warm_per_kinst = 2.0;
    let run = |device: DeviceModel| {
        Simulator::new(device)
            .with_max_cycles(400_000_000)
            .run(spec.source())
    };
    let alcatel = run(DeviceModel::alcatel());
    let olimex = run(DeviceModel::olimex());
    // Compare steady-state halves (warm sets must be populated first).
    let steady = |r: &emprof::sim::SimResult| {
        r.ground_truth
            .misses_in_window((r.stats.cycles / 2, r.stats.cycles))
            .filter(|m| !m.is_instr)
            .count()
    };
    let a = steady(&alcatel);
    let o = steady(&olimex);
    assert!(
        (a as f64) < 0.6 * o as f64,
        "alcatel steady misses {a} should be well below olimex {o}"
    );
}

/// The Samsung prefetcher removes most streaming misses relative to the
/// Olimex (same LLC capacity).
#[test]
fn prefetcher_removes_streaming_misses() {
    let spec = WorkloadSpec::equake().scaled(0.2);
    let run = |device: DeviceModel| {
        Simulator::new(device)
            .with_max_cycles(400_000_000)
            .run(spec.source())
    };
    let samsung = run(DeviceModel::samsung());
    let olimex = run(DeviceModel::olimex());
    // Cold-region misses only (the streaming target).
    let cold = |r: &emprof::sim::SimResult| {
        r.ground_truth
            .misses()
            .iter()
            .filter(|m| !m.is_instr && m.line_addr >= emprof::workloads::spec::COLD_BASE)
            .count()
    };
    let s = cold(&samsung);
    let o = cold(&olimex);
    assert!(
        (s as f64) < 0.5 * o as f64,
        "samsung cold misses {s} should be well below olimex {o}"
    );
}
