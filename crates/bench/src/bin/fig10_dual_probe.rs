//! Fig. 10 — simultaneous processor and memory probes.
//!
//! Section V-D: a second probe over the SDRAM confirms that every dip in
//! the processor's signal coincides with a burst of memory activity. The
//! reproduction renders the DRAM controller's CAS trace through the same
//! receiver chain and checks the anticorrelation.

use emprof_bench::plot::ascii_plot;
use emprof_bench::runner::em_run;
use emprof_emsim::{MemoryProbe, ReceiverConfig};
use emprof_sim::{DeviceModel, Interpreter};
use emprof_workloads::microbench::MicrobenchConfig;

fn main() {
    let device = DeviceModel::olimex();
    let config = MicrobenchConfig::new(128, 10);
    let program = config.build().expect("valid microbenchmark");
    let run = em_run(device.clone(), Interpreter::new(&program), 40e6, 0x10);

    let horizon_ns = run.result.stats.cycles as f64 / device.clock_hz * 1e9;
    let probe = MemoryProbe::new(ReceiverConfig::paper_setup(40e6));
    let mem_capture = probe.capture(&run.result.cas_trace, horizon_ns, device.clock_hz, 0x10);

    let cpu = run.capture.magnitude();
    let mem = mem_capture.magnitude();
    let n = cpu.len().min(mem.len());

    // Window around a CM=10 group.
    let e = run
        .profile
        .events()
        .iter()
        .filter(|e| e.start_sample > 200)
        .nth(5)
        .expect("groups exist");
    let lo = e.start_sample.saturating_sub(150);
    let hi = (e.start_sample + 350).min(n);

    println!("Fig. 10 — processor (top) and memory (bottom) signals, CM=10\n");
    println!("processor EM magnitude:");
    println!("{}\n", ascii_plot(&cpu[lo..hi], 110, 8));
    println!("memory EM magnitude:");
    println!("{}\n", ascii_plot(&mem[lo..hi], 110, 8));

    // Quantify the anticorrelation: memory activity during processor
    // stalls vs during busy stretches.
    let mut mem_during_stall = (0.0, 0usize);
    let mut mem_during_busy = (0.0, 0usize);
    let mut in_stall = vec![false; n];
    for ev in run.profile.events() {
        for s in in_stall
            .iter_mut()
            .take(ev.end_sample.min(n))
            .skip(ev.start_sample)
        {
            *s = true;
        }
    }
    for i in 0..n {
        if in_stall[i] {
            mem_during_stall.0 += mem[i];
            mem_during_stall.1 += 1;
        } else {
            mem_during_busy.0 += mem[i];
            mem_during_busy.1 += 1;
        }
    }
    let stall_level = mem_during_stall.0 / mem_during_stall.1.max(1) as f64;
    let busy_level = mem_during_busy.0 / mem_during_busy.1.max(1) as f64;
    println!(
        "mean memory-signal level during processor stalls: {stall_level:.3}, \
         during busy execution: {busy_level:.3}"
    );
    // The DRAM burst sits at the head of each stall (the access is
    // serviced, then the line crosses the interconnect back), so the
    // per-stall *peak* is the crisp signature.
    let mut peak_sum = 0.0;
    let mut peaks = 0usize;
    for ev in run.profile.events() {
        let slice = &mem[ev.start_sample.min(n)..ev.end_sample.min(n)];
        if let Some(peak) = slice.iter().cloned().reduce(f64::max) {
            peak_sum += peak;
            peaks += 1;
        }
    }
    let stall_peak = peak_sum / peaks.max(1) as f64;
    println!(
        "mean per-stall memory-signal peak: {stall_peak:.3} — {:.1}x the busy level",
        stall_peak / busy_level.max(1e-9)
    );
    println!("(paper: LLC misses show as simultaneous processor dips and memory bursts)");
}
