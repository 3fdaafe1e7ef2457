//! Fig. 1 — change in EM emanation level caused by a processor stall.
//!
//! Reproduces the paper's opening figure: the captured signal magnitude
//! (dashed blue in the paper) and its moving average (solid red) across
//! one LLC-miss stall on the Olimex model at 40 MHz; the stall duration
//! Δt read off the signal, times the clock frequency, gives the stall in
//! cycles (Section III-A).

use emprof_bench::plot::ascii_plot;
use emprof_bench::runner::em_run;
use emprof_core::StallKind;
use emprof_signal::stats::moving_average;
use emprof_sim::{DeviceModel, Interpreter};
use emprof_workloads::microbench::MicrobenchConfig;

fn main() {
    let device = DeviceModel::olimex();
    // Isolated misses (CM=1) give the clean single-stall view of Fig. 1.
    let program = MicrobenchConfig::new(64, 1)
        .build()
        .expect("valid microbenchmark");
    let run = em_run(device.clone(), Interpreter::new(&program), 40e6, 0xF1);
    let mag = run.capture.magnitude();
    let avg = moving_average(&mag, 9);

    // A representative ordinary (non-refresh) stall, ±40 samples.
    let event = run
        .profile
        .events()
        .iter()
        .filter(|e| e.kind == StallKind::Normal)
        .nth(10)
        .expect("the microbenchmark produces stalls");
    let lo = event.start_sample.saturating_sub(40);
    let hi = (event.end_sample + 40).min(mag.len());

    println!("Fig. 1 — EM magnitude across one LLC-miss stall (Olimex, 40 MHz)\n");
    println!("signal magnitude:");
    println!("{}", ascii_plot(&mag[lo..hi], 80, 10));
    println!("\nmoving average:");
    println!("{}", ascii_plot(&avg[lo..hi], 80, 10));
    let dt_us = event.duration_samples() as f64 / run.capture.sample_rate_hz() * 1e6;
    println!(
        "\nΔt = {} samples = {:.3} us  →  {:.0} cycles at {:.3} GHz",
        event.duration_samples(),
        dt_us,
        event.duration_cycles,
        device.clock_hz / 1e9
    );
    println!("paper: stalls of ~300 ns at 1.008 GHz ≈ 300 cycles");
}
