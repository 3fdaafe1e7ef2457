//! Scenario: how much receiver do you need? (Section VI-B, Fig. 12)
//!
//! Measurement bandwidth is the main cost axis of an EM-profiling rig
//! (spectrum analyzers and digitizers are priced by it). This example
//! sweeps the synthesized rig's bandwidth on a memory-bound workload and
//! reports when EMPROF's statistics stabilize — reproducing the paper's
//! finding that ~6 % of the target's clock frequency suffices.
//!
//! Run with: `cargo run --release --example bandwidth_budget`

use emprof::core::{Emprof, EmprofConfig};
use emprof::emsim::{Receiver, ReceiverConfig, PAPER_BANDWIDTHS_HZ};
use emprof::sim::{DeviceModel, Simulator};
use emprof::workloads::spec::WorkloadSpec;

fn main() {
    let device = DeviceModel::olimex();
    let spec = WorkloadSpec::mcf().scaled(0.5);
    let result = Simulator::new(device.clone()).run(spec.source());
    println!(
        "workload: SPEC-like mcf, {} cycles on {} at {:.3} GHz\n",
        result.stats.cycles,
        device.name,
        device.clock_hz / 1e9
    );
    println!(
        "{:>10}  {:>8}  {:>16}  {:>12}",
        "bandwidth", "stalls", "avg stall (cyc)", "stall time %"
    );
    for bw in PAPER_BANDWIDTHS_HZ {
        let capture = Receiver::new(ReceiverConfig::paper_setup(bw)).capture(&result.power, 9);
        let emprof = Emprof::new(EmprofConfig::for_rates(
            capture.sample_rate_hz(),
            device.clock_hz,
        ));
        let profile = emprof.profile_capture(
            &capture.magnitude(),
            capture.sample_rate_hz(),
            device.clock_hz,
        );
        println!(
            "{:>7.0} MHz  {:>8}  {:>16.0}  {:>11.2}%",
            bw / 1e6,
            profile.events().len(),
            profile.mean_latency_cycles(),
            profile.stall_fraction() * 100.0
        );
    }
    println!("\nonce the numbers stop moving (≥60 MHz here, ~6% of the clock),");
    println!("extra bandwidth buys nothing — budget the rig accordingly.");
}
