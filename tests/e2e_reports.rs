//! Integration: the optimization workflow EMPROF exists for — profile,
//! change the code, profile again, diff — plus CSV interchange.

use emprof::core::report::{self, ProfileDiff, ProfileSummary};
use emprof::core::{Emprof, EmprofConfig, Profile};
use emprof::emsim::{Receiver, ReceiverConfig};
use emprof::sim::{DeviceModel, Interpreter, Simulator};
use emprof::workloads::iot;

fn profile_kernel(program: emprof::sim::Program) -> Profile {
    let device = DeviceModel::olimex();
    let result = Simulator::new(device.clone())
        .with_max_cycles(400_000_000)
        .run(Interpreter::new(&program));
    let capture = Receiver::new(ReceiverConfig::paper_setup(40e6)).capture(&result.power, 11);
    Emprof::new(EmprofConfig::for_rates(
        capture.sample_rate_hz(),
        device.clock_hz,
    ))
    .profile_capture(
        &capture.magnitude(),
        capture.sample_rate_hz(),
        device.clock_hz,
    )
}

/// "Optimizing" the crypto kernel by shrinking its S-box below the LLC
/// (the classic locality fix) must show up in the diff exactly as a
/// developer would hope: far fewer misses, far less stall time, shorter
/// runtime.
#[test]
fn diff_reflects_a_locality_optimization() {
    // Enough lookups that the shrunken table actually warms up (2048
    // lines) and steady-state hits dominate.
    let before = profile_kernel(iot::table_crypto(8000, 8 << 20, 40).unwrap());
    let after = profile_kernel(iot::table_crypto(8000, 128 << 10, 40).unwrap());
    let diff = ProfileDiff::between(&before, &after);

    assert!(
        diff.miss_change() < -0.5,
        "expected >50% fewer misses, got {:+.1}%",
        diff.miss_change() * 100.0
    );
    assert!(
        diff.stall_cycle_change() < -0.5,
        "expected >50% less stall time, got {:+.1}%",
        diff.stall_cycle_change() * 100.0
    );
    assert!(
        diff.runtime_change() < -0.2,
        "expected a shorter run, got {:+.1}%",
        diff.runtime_change() * 100.0
    );
    // The rendered report carries the numbers.
    let text = diff.to_string();
    assert!(text.contains("misses:"));
    assert!(text.contains("runtime:"));
}

/// Summaries expose the tail latencies counter-based profiling cannot
/// see: refresh collisions push p99 well past the median.
#[test]
fn summary_exposes_tail_latencies() {
    let profile = profile_kernel(iot::table_crypto(3000, 8 << 20, 40).unwrap());
    let summary = ProfileSummary::of(&profile);
    assert!(summary.miss_count > 100);
    assert!(
        summary.p99_latency_cycles >= summary.p50_latency_cycles,
        "p99 {} < p50 {}",
        summary.p99_latency_cycles,
        summary.p50_latency_cycles
    );
    assert!(
        summary.stall_fraction > 0.3,
        "crypto kernel is memory-bound"
    );
}

/// A profile survives the CSV round trip with counts and totals intact.
#[test]
fn profiles_round_trip_through_csv() {
    let profile = profile_kernel(iot::block_transfer(48).unwrap());
    let csv = report::events_to_csv(&profile);
    let events = report::events_from_csv(&csv).expect("own CSV parses");
    assert_eq!(events.len(), profile.events().len());
    let total_before: f64 = profile.events().iter().map(|e| e.duration_cycles).sum();
    let total_after: f64 = events.iter().map(|e| e.duration_cycles).sum();
    assert!((total_before - total_after).abs() < 1.0);
}
