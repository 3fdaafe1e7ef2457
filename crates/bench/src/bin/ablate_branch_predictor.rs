//! Ablation — branch prediction (an extension beyond the paper's model).
//!
//! The baseline devices model the paper's simple cores with a fixed
//! taken-branch redirect; this ablation enables the bimodal predictor and
//! measures (a) the performance effect and (b) what it does to the signal
//! EMPROF analyzes: fewer per-iteration fetch bubbles raise the busy
//! level and weaken the loop tones Spectral-Profiling-style attribution
//! keys on, while detection accuracy is unaffected (miss dips dwarf
//! branch bubbles).

use emprof_bench::runner::MAX_CYCLES;
use emprof_bench::table::{fmt, Table};
use emprof_core::accuracy::count_accuracy;
use emprof_core::{Emprof, EmprofConfig};
use emprof_emsim::{Receiver, ReceiverConfig};
use emprof_sim::bpred::BpredConfig;
use emprof_sim::{DeviceModel, Interpreter, Simulator};
use emprof_workloads::microbench::MicrobenchConfig;
use emprof_workloads::spec::WorkloadSpec;
use emprof_workloads::{MARKER_MISS_END, MARKER_MISS_START};

fn main() {
    println!("Ablation — bimodal branch predictor on the Olimex model\n");
    let mut t = Table::new(vec![
        "config",
        "workload",
        "cycles",
        "IPC",
        "mispredicts",
        "EMPROF accuracy (%)",
    ]);
    for (name, predictor) in [
        ("baseline", None),
        ("bimodal-1k", Some(BpredConfig::default())),
    ] {
        // Microbenchmark: detection accuracy must hold either way.
        let mut device = DeviceModel::olimex();
        device.branch_predictor = predictor;
        // CM=1: groups are separated by the micro-function loop, which
        // stays long under any branch-handling scheme. (With CM=10 the
        // predictor shortens the per-access address-compute loop enough
        // that consecutive dips within a group begin to merge — raise
        // `address_compute_iters` when modeling faster cores.)
        let config = MicrobenchConfig::new(1024, 1);
        let program = config.build().expect("valid microbenchmark");
        let result = Simulator::new(device.clone())
            .with_max_cycles(MAX_CYCLES)
            .run(Interpreter::new(&program));
        let capture = Receiver::new(ReceiverConfig::paper_setup(40e6)).capture(&result.power, 0xBB);
        let profile = Emprof::new(EmprofConfig::for_rates(
            capture.sample_rate_hz(),
            device.clock_hz,
        ))
        .profile_capture(
            &capture.magnitude(),
            capture.sample_rate_hz(),
            device.clock_hz,
        );
        let window = result
            .ground_truth
            .marker_window(MARKER_MISS_START, MARKER_MISS_END)
            .expect("markers recorded");
        let section = profile.slice_cycles(window.0, window.1);
        let reported = section.miss_count() + section.refresh_count();
        t.row(vec![
            name.to_string(),
            "microbench 1024/1".to_string(),
            result.stats.cycles.to_string(),
            fmt(result.stats.ipc(), 2),
            result.stats.branch_mispredicts.to_string(),
            fmt(
                count_accuracy(reported as f64, config.total_misses as f64) * 100.0,
                2,
            ),
        ]);

        // A branchy SPEC-like workload: the performance effect.
        let mut device = DeviceModel::olimex();
        device.branch_predictor = predictor;
        let spec = WorkloadSpec::gzip().scaled(0.25);
        let result = Simulator::new(device)
            .with_max_cycles(MAX_CYCLES)
            .run(spec.source());
        t.row(vec![
            name.to_string(),
            "gzip (10M insts)".to_string(),
            result.stats.cycles.to_string(),
            fmt(result.stats.ipc(), 2),
            result.stats.branch_mispredicts.to_string(),
            "-".to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("finding: the predictor removes most taken-branch bubbles (higher");
    println!("IPC, fewer cycles) and EMPROF's accuracy holds when misses are");
    println!("separated by enough work. Caveat observed with dense groups");
    println!("(CM>=10): a faster core compresses the inter-miss compute below");
    println!("the detector's merge gap and adjacent dips fuse — the knob is the");
    println!("workload's address_compute_iters, or a higher capture bandwidth.");
}
