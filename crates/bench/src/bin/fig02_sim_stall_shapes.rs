//! Fig. 2 — LLC-hit vs LLC-miss stalls in the simulator's power signal.
//!
//! The array-walk application is sized to (a) miss the L1 but hit the LLC
//! and (b) miss the LLC; the power signal shows a very brief dip for (a)
//! and an order-of-magnitude longer dip for (b), exactly the contrast of
//! the paper's Fig. 2.

use emprof_bench::plot::ascii_plot;
use emprof_sim::{DeviceModel, Interpreter, Simulator, StallCause};
use emprof_workloads::array_walk::{ArrayWalkConfig, MissLevel};

fn run(level: MissLevel) -> (Vec<f64>, f64) {
    let device = DeviceModel::sesc_like();
    let config = ArrayWalkConfig::for_level(level, device.l1d.size_bytes, device.llc.size_bytes);
    let program = config.build().expect("valid array walk");
    let result = Simulator::new(device)
        .with_max_cycles(600_000_000)
        .run(Interpreter::new(&program));
    let (signal, _) = result.power.averaged(20);
    let wanted = |cause: StallCause| match (level, cause) {
        (MissLevel::LlcMiss, StallCause::LlcMiss { .. }) => true,
        (_, StallCause::LlcHit) => level == MissLevel::LlcHit,
        _ => false,
    };
    // Longest *ordinary* stall: refresh collisions (>1200 cycles) are a
    // different phenomenon, shown in Fig. 5.
    let stall = result
        .ground_truth
        .stalls()
        .iter()
        .filter(|s| wanted(s.cause) && s.start_cycle > 10_000 && s.duration() < 1200)
        .max_by_key(|s| s.duration())
        .expect("walk produces the requested stall class");
    let center = (stall.start_cycle / 20) as usize;
    let lo = center.saturating_sub(30);
    let hi = (center + 60).min(signal.len());
    (signal[lo..hi].to_vec(), stall.duration() as f64)
}

fn main() {
    println!("Fig. 2 — stall shapes in the SESC-like power signal (20-cycle samples)\n");
    let (hit_sig, hit_dur) = run(MissLevel::LlcHit);
    println!("(a) L1 D$ miss that hits the LLC — stall {hit_dur:.0} cycles:");
    println!("{}", ascii_plot(&hit_sig, 80, 8));
    let (miss_sig, miss_dur) = run(MissLevel::LlcMiss);
    println!("\n(b) LLC miss — stall {miss_dur:.0} cycles:");
    println!("{}", ascii_plot(&miss_sig, 80, 8));
    println!(
        "\nLLC-miss stall / LLC-hit stall = {:.1}x  (paper: order of magnitude)",
        miss_dur / hit_dur.max(1.0)
    );
}
