//! Fig. 7 — EM signal of one microbenchmark run: the whole run with its
//! identifier blank loops, and a zoom into one CM=10 group of misses.

use emprof_bench::plot::{ascii_plot, sparkline};
use emprof_bench::runner::em_run;
use emprof_core::section;
use emprof_sim::{DeviceModel, Interpreter};
use emprof_workloads::microbench::MicrobenchConfig;

fn main() {
    let device = DeviceModel::olimex();
    let config = MicrobenchConfig::new(1024, 10);
    let program = config.build().expect("valid microbenchmark");
    let run = em_run(device, Interpreter::new(&program), 40e6, 0xF7);
    let mag = run.capture.magnitude();

    println!("Fig. 7a — entire run (page touch | blank loop | misses | blank loop):\n");
    println!("{}", sparkline(&mag, 110));

    // Identify the measured section from the signal alone, as the paper
    // does using the stable blank-loop patterns.
    let window =
        section::measured_window(&run.profile, 400).expect("blank loops bracket the miss section");
    println!(
        "\nsignal-identified miss section: samples {} .. {} of {}",
        window.0,
        window.1,
        mag.len()
    );
    let sliced = run.profile.slice_samples(window.0, window.1);
    println!(
        "events inside the section: {} (TM = {})",
        sliced.events().len(),
        config.total_misses
    );

    // Zoom: one group of CM=10 misses (event positions are absolute).
    let first = &sliced.events()[3];
    let tenth = &sliced.events()[12];
    let lo = first.start_sample.saturating_sub(20);
    let hi = (tenth.end_sample + 20).min(mag.len());
    println!(
        "\nFig. 7b — zoom into one CM=10 group ({} samples):\n",
        hi - lo
    );
    println!("{}", ascii_plot(&mag[lo..hi], 110, 9));
    println!("\npaper: ten distinct ~300 ns dips per group, separated by the");
    println!("address-computation work, with the micro-function gap between groups.");
}
