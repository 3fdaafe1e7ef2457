//! Fig. 11 — histogram of stall latencies for *mcf* on the three devices.
//!
//! Paper shape: most stalls are brief (the core keeps busy into the
//! miss), a significant number last hundreds of cycles, and the two
//! phones show a thicker tail than the IoT board.

use emprof_bench::plot::histogram_bars;
use emprof_bench::runner::{em_run, steady_window};
use emprof_sim::DeviceModel;
use emprof_workloads::spec::WorkloadSpec;

fn main() {
    println!("Fig. 11 — stall-latency histograms, SPEC-like mcf (EM path, 40 MHz)\n");
    let bin = 100.0;
    let max = 1200.0;
    for device in DeviceModel::evaluation_devices() {
        let name = device.name;
        let run = em_run(device, WorkloadSpec::mcf().source(), 40e6, 0x11);
        let window = steady_window(&run.result);
        let profile = run.profile.slice_cycles(window.0, window.1);
        let hist = profile.latency_histogram(bin, max);
        let labels: Vec<String> = (0..hist.num_bins())
            .map(|i| format!("{}-{}", hist.bin_start(i), hist.bin_start(i + 1)))
            .chain(std::iter::once(format!(">{max}")))
            .collect();
        let mut counts: Vec<u64> = hist.bins().to_vec();
        counts.push(hist.overflow());
        println!(
            "{name} ({} stalls, mean {:.0} cycles):",
            profile.events().len(),
            profile.mean_latency_cycles()
        );
        println!("{}\n", histogram_bars(&labels, &counts, 48));
        println!(
            "tail fraction (>= 600 cycles): {:.3}\n",
            hist.tail_fraction(6)
        );
    }
    println!("paper shape: most stalls brief; phones show a thicker tail than the IoT board.");
}
