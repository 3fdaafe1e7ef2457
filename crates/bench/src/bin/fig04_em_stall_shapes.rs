//! Fig. 4 — LLC hit and miss in the physical (synthesized) EM signal.
//!
//! Same experiment as Fig. 2 but through the full capture chain on the
//! Olimex device model: the LLC-hit stall is barely a flicker at 40 MHz,
//! the LLC-miss stall a clear ~300 ns dip.

use emprof_bench::plot::ascii_plot;
use emprof_bench::runner::em_run;
use emprof_sim::{DeviceModel, Interpreter};
use emprof_workloads::array_walk::{ArrayWalkConfig, MissLevel};

fn main() {
    println!("Fig. 4 — stall shapes in the captured EM signal (Olimex, 40 MHz)\n");
    for (label, level) in [
        ("(a) L1 miss / LLC hit", MissLevel::LlcHit),
        ("(b) LLC miss", MissLevel::LlcMiss),
    ] {
        let device = DeviceModel::olimex();
        let config =
            ArrayWalkConfig::for_level(level, device.l1d.size_bytes, device.llc.size_bytes);
        let program = config.build().expect("valid array walk");
        let run = em_run(device, Interpreter::new(&program), 40e6, 0xF4);
        let mag = run.capture.magnitude();
        match level {
            MissLevel::LlcMiss => {
                let e = run
                    .profile
                    .events()
                    .iter()
                    .find(|e| e.start_sample > 200)
                    .expect("miss-level walk stalls");
                let lo = e.start_sample.saturating_sub(30);
                let hi = (e.end_sample + 30).min(mag.len());
                println!(
                    "{label} — detected stall of {:.0} cycles (~{:.0} ns):",
                    e.duration_cycles,
                    e.duration_cycles / run.device.clock_hz * 1e9
                );
                println!("{}\n", ascii_plot(&mag[lo..hi], 80, 8));
            }
            _ => {
                // LLC-hit stalls are too brief for the detector (by
                // design). The first pass over the array is cold (real
                // LLC misses), so report the warmed-up final third only.
                let steady = run.profile.slice_samples(mag.len() * 2 / 3, mag.len());
                let lo = mag.len() * 3 / 4;
                let hi = (lo + 140).min(mag.len());
                println!(
                    "{label} — no detectable dips ({} events in the warmed-up final third):",
                    steady.events().len()
                );
                println!("{}\n", ascii_plot(&mag[lo..hi], 80, 8));
            }
        }
    }
    println!("paper: LLC-hit stalls are nearly invisible; LLC-miss stalls last ~300 ns.");
}
