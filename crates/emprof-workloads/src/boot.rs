//! The boot-sequence workload (Fig. 13).
//!
//! Section VI-C: EMPROF can profile "hard-to-profile runs, such as the
//! boot sequence of the device", before performance counters or any
//! software infrastructure exist. Fig. 13 plots the LLC miss rate over
//! time for two boot-ups of the IoT device.
//!
//! The model is a sequence of phases with the memory character of a real
//! embedded boot: a ROM/loader copy (heavy streaming), kernel
//! decompression (compute with bursts), device-tree/driver initialization
//! (scattered cold probes), filesystem mount and scan (pointer-heavy
//! metadata walks), and service start-up (mixed). Distinct seeds give the
//! run-to-run variation visible between the two runs in the figure.

use crate::spec::{Phase, WorkloadSpec};

/// Builds the boot workload. `seed` distinguishes boot-to-boot variation;
/// `scale` rescales phase lengths (1.0 ≈ 13M instructions).
pub fn boot_sequence(seed: u64, scale: f64) -> WorkloadSpec {
    let mut rom_copy = Phase::base("rom_copy", 1_200_000);
    rom_copy.code_base = 0x20_0000;
    rom_copy.code_footprint = 4 << 10;
    rom_copy.loop_body = 12;
    rom_copy.mem_every = 2;
    rom_copy.warm_per_kinst = 0.0;
    rom_copy.cold_per_kinst = 3.0;
    rom_copy.cold_stream_fraction = 1.0;
    rom_copy.store_fraction = 0.5;
    rom_copy.load_use_distance = 8;

    let mut decompress = Phase::base("decompress", 3_000_000);
    decompress.code_base = 0x20_8000;
    decompress.code_footprint = 12 << 10;
    decompress.loop_body = 20;
    decompress.warm_bytes = 256 << 10;
    decompress.warm_per_kinst = 0.2;
    decompress.cold_per_kinst = 0.4;
    decompress.cold_stream_fraction = 0.85;
    decompress.store_fraction = 0.4;
    decompress.load_use_distance = 4;

    let mut device_init = Phase::base("device_init", 2_500_000);
    device_init.code_base = 0x21_0000;
    device_init.code_footprint = 96 << 10;
    device_init.loop_body = 60;
    device_init.warm_bytes = 256 << 10;
    device_init.warm_per_kinst = 0.15;
    device_init.cold_per_kinst = 0.25;
    device_init.cold_stream_fraction = 0.1;
    device_init.load_use_distance = 2;

    let mut fs_scan = Phase::base("fs_scan", 3_500_000);
    fs_scan.code_base = 0x22_0000;
    fs_scan.code_footprint = 48 << 10;
    fs_scan.loop_body = 34;
    fs_scan.warm_bytes = 512 << 10;
    fs_scan.warm_per_kinst = 0.4;
    fs_scan.cold_per_kinst = 0.9;
    fs_scan.pointer_chase = true;
    fs_scan.load_use_distance = 1;

    let mut services = Phase::base("services", 2_800_000);
    services.code_base = 0x23_0000;
    services.code_footprint = 64 << 10;
    services.loop_body = 44;
    services.warm_bytes = 512 << 10;
    services.warm_per_kinst = 0.1;
    services.cold_per_kinst = 0.06;
    services.cold_stream_fraction = 0.3;
    services.load_use_distance = 3;

    WorkloadSpec {
        name: "boot",
        phases: vec![rom_copy, decompress, device_init, fs_scan, services],
        seed,
    }
    .scaled(scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_sim::{DeviceModel, Simulator};

    #[test]
    fn boot_spec_is_valid() {
        boot_sequence(1, 1.0).validate().unwrap();
    }

    #[test]
    fn phases_in_boot_order() {
        let b = boot_sequence(1, 1.0);
        assert_eq!(
            b.phase_names(),
            vec![
                "rom_copy",
                "decompress",
                "device_init",
                "fs_scan",
                "services"
            ]
        );
    }

    #[test]
    fn miss_rate_varies_across_boot() {
        // Run a scaled-down boot and verify the miss rate changes by phase
        // (the structure Fig. 13 plots).
        let spec = boot_sequence(7, 0.15);
        let sim = Simulator::new(DeviceModel::olimex()).with_max_cycles(100_000_000);
        let r = sim.run(spec.source());
        // Collect misses per phase using the region markers.
        let mut per_phase = Vec::new();
        for i in 0..5u32 {
            let start = r
                .ground_truth
                .marker_cycles(crate::MARKER_REGION_BASE + i)
                .first()
                .copied()
                .unwrap();
            let end = if i < 4 {
                r.ground_truth
                    .marker_cycles(crate::MARKER_REGION_BASE + i + 1)
                    .first()
                    .copied()
                    .unwrap()
            } else {
                r.stats.cycles
            };
            // Data misses only: at this heavily scaled-down length the
            // one-time cold fetch of each phase's code footprint would
            // swamp the rates (it amortizes away at realistic lengths).
            let misses = r
                .ground_truth
                .misses_in_window((start, end))
                .filter(|m| !m.is_instr)
                .count();
            per_phase.push(misses as f64 / (end - start) as f64 * 1e6);
        }
        let max = per_phase.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_phase.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > 2.0 * min.max(0.1),
            "boot phases should differ in miss rate: {per_phase:?}"
        );
    }

    #[test]
    fn two_boots_differ_but_share_structure() {
        let a = boot_sequence(1, 0.02);
        let b = boot_sequence(2, 0.02);
        let run = |spec: WorkloadSpec| {
            let sim = Simulator::new(DeviceModel::olimex()).with_max_cycles(50_000_000);
            let r = sim.run(spec.source());
            (r.stats.cycles, r.stats.llc_misses)
        };
        let (ca, ma) = run(a);
        let (cb, mb) = run(b);
        // Different seeds: not identical...
        assert!(ca != cb || ma != mb);
        // ...but the same boot within 20%.
        let rel = (ma as f64 - mb as f64).abs() / ma.max(1) as f64;
        assert!(rel < 0.2, "boot miss counts diverged: {ma} vs {mb}");
    }
}
