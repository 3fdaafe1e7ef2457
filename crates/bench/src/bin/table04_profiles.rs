//! Table IV — total LLC misses and stall time (% of execution) reported
//! by EMPROF for every workload on every device, via the EM path.
//!
//! Paper shape targets (Section VI-A): the Alcatel's 1 MiB LLC keeps its
//! miss counts roughly an order of magnitude below the 256 KiB devices;
//! the Samsung's prefetcher keeps its average misses below the Olimex's;
//! and the Olimex shows the largest stall-time percentages (fast clock
//! against the same memory latency in ns).

use emprof_bench::table::{fmt, Table};
use emprof_sim::{DeviceModel, Interpreter};
use emprof_workloads::microbench::MicrobenchConfig;
use emprof_workloads::spec::WorkloadSpec;
use emprof_workloads::{MARKER_MISS_END, MARKER_MISS_START};

struct Cell {
    misses: usize,
    stall_pct: f64,
}

fn run_microbench(config: MicrobenchConfig, device: DeviceModel) -> Cell {
    let program = config.build().expect("valid microbenchmark");
    let run = emprof_bench::em_run(device, Interpreter::new(&program), 40e6, 0x7AB4);
    let window = run
        .result
        .ground_truth
        .marker_window(MARKER_MISS_START, MARKER_MISS_END)
        .expect("markers recorded");
    let windowed = run.profile.slice_cycles(window.0, window.1);
    Cell {
        misses: windowed.miss_count(),
        stall_pct: windowed.stall_fraction() * 100.0,
    }
}

fn run_spec(spec: &WorkloadSpec, device: DeviceModel) -> Cell {
    let run = emprof_bench::em_run(device, spec.source(), 40e6, 0x7AB4);
    // Steady-state window: second half of the run (see runner docs).
    let window = emprof_bench::runner::steady_window(&run.result);
    let windowed = run.profile.slice_cycles(window.0, window.1);
    Cell {
        misses: windowed.miss_count(),
        stall_pct: windowed.stall_fraction() * 100.0,
    }
}

fn main() {
    let mut t = Table::new(vec![
        "benchmark",
        "misses alcatel",
        "misses samsung",
        "misses olimex",
        "stall% alcatel",
        "stall% samsung",
        "stall% olimex",
    ]);
    let devices = DeviceModel::evaluation_devices;

    for config in MicrobenchConfig::paper_points() {
        let cells: Vec<Cell> = devices()
            .into_iter()
            .map(|d| run_microbench(config, d))
            .collect();
        push_row(
            &mut t,
            &format!(
                "TM={} CM={}",
                config.total_misses, config.consecutive_misses
            ),
            &cells,
        );
    }

    let mut sums = [0.0f64; 6];
    let specs = WorkloadSpec::all_spec2000();
    for spec in &specs {
        let cells: Vec<Cell> = devices().into_iter().map(|d| run_spec(spec, d)).collect();
        for (i, c) in cells.iter().enumerate() {
            sums[i] += c.misses as f64;
            sums[i + 3] += c.stall_pct;
        }
        push_row(&mut t, spec.name, &cells);
    }
    let n = specs.len() as f64;
    t.row(vec![
        "average (SPEC)".to_string(),
        fmt(sums[0] / n, 1),
        fmt(sums[1] / n, 1),
        fmt(sums[2] / n, 1),
        fmt(sums[3] / n, 2),
        fmt(sums[4] / n, 2),
        fmt(sums[5] / n, 2),
    ]);

    println!("Table IV — EMPROF profiles per workload and device (EM path, 40 MHz)\n");
    println!("{}", t.render());
    println!("shape targets: alcatel misses << samsung < olimex (averages);");
    println!("               olimex highest average stall%; microbench counts ~TM.");
}

fn push_row(t: &mut Table, name: &str, cells: &[Cell]) {
    t.row(vec![
        name.to_string(),
        cells[0].misses.to_string(),
        cells[1].misses.to_string(),
        cells[2].misses.to_string(),
        fmt(cells[0].stall_pct, 2),
        fmt(cells[1].stall_pct, 2),
        fmt(cells[2].stall_pct, 2),
    ]);
}
