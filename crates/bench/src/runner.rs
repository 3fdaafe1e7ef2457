//! The end-to-end run pipeline shared by every experiment.

use emprof_core::{Emprof, EmprofConfig, Profile};
use emprof_emsim::{CapturedSignal, Receiver, ReceiverConfig};
use emprof_sim::{DeviceModel, InstructionSource, SimResult, Simulator};

/// Safety limit for experiment simulations.
pub const MAX_CYCLES: u64 = 4_000_000_000;

/// Everything produced by one EM-path run.
#[derive(Debug)]
pub struct EmRun {
    /// The device configuration used.
    pub device: DeviceModel,
    /// Simulator output (power trace, ground truth, CAS trace, stats).
    pub result: SimResult,
    /// The synthesized EM capture.
    pub capture: CapturedSignal,
    /// EMPROF's profile of the capture.
    pub profile: Profile,
}

/// Runs a workload on a device, captures its EM emanations at
/// `bandwidth_hz` with the paper's bench setup, and profiles the capture
/// with EMPROF — the full physical-device path of the paper.
pub fn em_run<S: InstructionSource>(
    device: DeviceModel,
    source: S,
    bandwidth_hz: f64,
    seed: u64,
) -> EmRun {
    let result = Simulator::new(device.clone())
        .with_max_cycles(MAX_CYCLES)
        .with_seed(seed)
        .run(source);
    let receiver = Receiver::new(ReceiverConfig::paper_setup(bandwidth_hz));
    let capture = receiver.capture(&result.power, seed ^ 0x00E1);
    let profile = profile_capture(&capture, &device);
    EmRun {
        device,
        result,
        capture,
        profile,
    }
}

/// Profiles an existing capture with the rate-derived EMPROF defaults.
pub fn profile_capture(capture: &CapturedSignal, device: &DeviceModel) -> Profile {
    let emprof = Emprof::new(EmprofConfig::for_rates(
        capture.sample_rate_hz(),
        device.clock_hz,
    ));
    emprof.profile_capture(
        &capture.magnitude(),
        capture.sample_rate_hz(),
        device.clock_hz,
    )
}

/// Runs a workload and profiles the *simulator power trace* averaged over
/// 20-cycle intervals — the paper's Section V-C validation path.
pub fn power_run<S: InstructionSource>(
    device: DeviceModel,
    source: S,
    seed: u64,
) -> (SimResult, Profile) {
    let result = Simulator::new(device.clone())
        .with_max_cycles(MAX_CYCLES)
        .with_seed(seed)
        .run(source);
    let emprof = Emprof::new(EmprofConfig::for_rates(
        device.clock_hz / 20.0,
        device.clock_hz,
    ));
    let profile = emprof.profile_power_trace(&result.power, 20);
    (result, profile)
}

/// The steady-state measurement window for the SPEC-like workloads: the
/// second half of the run, by which point the warm working sets have
/// completed at least one full coverage cycle and the caches reflect the
/// benchmark's steady behaviour. The paper's SPEC runs are ~10^4 times
/// longer than ours, so their initialization transients are negligible;
/// slicing to the steady half restores that property at our scale (see
/// DESIGN.md / EXPERIMENTS.md).
pub fn steady_window(result: &SimResult) -> (u64, u64) {
    (result.stats.cycles / 2, result.stats.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_sim::Interpreter;
    use emprof_workloads::microbench::MicrobenchConfig;

    #[test]
    fn em_run_produces_consistent_artifacts() {
        let program = MicrobenchConfig::new(32, 4).build().unwrap();
        let run = em_run(DeviceModel::olimex(), Interpreter::new(&program), 40e6, 1);
        assert_eq!(run.result.power.len() as u64, run.result.stats.cycles);
        assert!(!run.capture.is_empty());
        assert_eq!(run.profile.total_samples(), run.capture.len());
    }

    #[test]
    fn power_run_profiles_averaged_trace() {
        let program = MicrobenchConfig::new(32, 4).build().unwrap();
        let (result, profile) = power_run(DeviceModel::sesc_like(), Interpreter::new(&program), 1);
        assert_eq!(profile.total_samples(), result.power.len().div_ceil(20));
    }
}
