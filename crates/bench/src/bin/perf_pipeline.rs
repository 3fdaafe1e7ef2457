//! Pipeline throughput benchmark: sequential vs parallel analysis.
//!
//! Two legs, each doubling as a correctness check (every parallel result
//! is compared against its sequential reference):
//!
//! 1. **detector** — `profile_magnitude_par` over a synthetic magnitude
//!    signal at 1, 2 and 4 threads; reports samples/sec and the speedup
//!    over the sequential run.
//! 2. **pipeline** — the full sim→EM→detect chain (power trace → receiver
//!    capture → magnitude → detector) at 1, 2 and 4 threads.
//!
//! Both thread sweeps stop at the host's parallelism: a run with more
//! threads than cores time-shares them, and its "speedup" says nothing
//! about the implementation.
//!
//! Results are printed as tables and written to `BENCH_pipeline.json`
//! (override with `--out PATH`), with the host's fingerprint (its
//! parallelism and CPU model). `--smoke` shrinks every leg for CI;
//! absolute numbers are only meaningful in full mode on an idle host.
//! `--check-against BASELINE.json` turns the run into a regression gate:
//! the process exits nonzero when the 1-thread detector *or* 1-thread
//! end-to-end pipeline throughput falls more than 20% below the
//! baseline's. Those rows run on every host, so the gate always runs.

use std::fmt::Write as _;
use std::time::Instant;

use emprof_bench::table::Table;
use emprof_core::{Emprof, EmprofConfig, Profile};
use emprof_emsim::{Receiver, ReceiverConfig};
use emprof_par::Parallelism;
use emprof_sim::PowerTrace;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// The thread counts a sweep runs on a host with `host` cores: the
/// sequential run always, the rest only where every thread has a core.
fn thread_sweep(host: usize) -> Vec<usize> {
    THREAD_SWEEP
        .into_iter()
        .filter(|&t| t == 1 || t <= host)
        .collect()
}

/// The CPU model this bench ran on, from `/proc/cpuinfo` where there is
/// one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let check_against = args
        .iter()
        .position(|a| a == "--check-against")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let host = Parallelism::available().get();
    let cpu = cpu_model();
    println!(
        "pipeline throughput bench ({} mode, host parallelism {host}, {cpu})\n",
        if smoke { "smoke" } else { "full" }
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"host_cpu\": \"{cpu}\",");

    bench_detector(smoke, host, &mut json);
    bench_pipeline(smoke, host, &mut json);

    json.push_str("  \"unit\": \"samples_per_sec\"\n}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("results written to {out_path}");

    if let Some(baseline_path) = check_against {
        check_regression(&baseline_path, &json);
    }
}

/// Fraction of the baseline's single-thread detector throughput the
/// fresh run must reach; below this the gate fails the process.
const REGRESSION_FLOOR: f64 = 0.8;

/// The `--check-against BASELINE.json` regression gate: compares this
/// run's 1-thread detector and 1-thread end-to-end pipeline throughput
/// against the committed baseline and exits nonzero on a >20%
/// regression in either leg. Single-thread rows only — they run
/// unshared on every host, whatever its core count.
fn check_regression(baseline_path: &str, fresh_json: &str) {
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let mut failed = false;
    for leg in ["detector", "pipeline"] {
        let Some(old) = scrape_1t(&baseline, leg) else {
            // An older baseline without this leg is not a regression;
            // say so instead of silently narrowing the gate.
            println!("regression gate: {leg} 1T absent from baseline, leg skipped");
            continue;
        };
        let new = scrape_1t(fresh_json, leg)
            .unwrap_or_else(|| panic!("fresh run has no 1-thread {leg} entry"));
        let floor = old * REGRESSION_FLOOR;
        println!(
            "regression gate: {leg} 1T {:.1} Msamples/s vs baseline {:.1} (floor {:.1})",
            new / 1e6,
            old / 1e6,
            floor / 1e6
        );
        if new < floor {
            eprintln!(
                "FAIL: single-thread {leg} throughput regressed more than \
                 {:.0}% ({:.1} < {:.1} Msamples/s)",
                (1.0 - REGRESSION_FLOOR) * 100.0,
                new / 1e6,
                floor / 1e6
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Scrapes a leg's 1-thread `samples_per_sec` out of a
/// `BENCH_pipeline.json` written by this binary. The format is our own
/// line-oriented output, so a string scrape suffices — no JSON parser
/// dependency in the bench crate.
fn scrape_1t(json: &str, leg: &str) -> Option<f64> {
    let section = json.split(&format!("\"{leg}\"")).nth(1)?;
    for line in section.lines() {
        if line.contains("\"threads\": 1,") {
            let tail = line.split("\"samples_per_sec\": ").nth(1)?;
            let num: String = tail
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            return num.parse().ok();
        }
    }
    None
}

/// Wall-clock of the fastest of `reps` runs of `f`, with the last result.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        result = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, result.expect("at least one reap"))
}

/// A busy magnitude signal with drift, pseudo-noise, and periodic dips.
fn synthetic_magnitude(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let drift = 1.0 + 0.1 * (i as f64 * 1e-5).sin();
            let noise = ((i * 2_654_435_761_usize) % 1000) as f64 / 2500.0;
            let dip = if i % 9973 < 12 { 0.15 } else { 1.0 };
            5.0 * drift * dip + noise
        })
        .collect()
}

/// Renders one thread-sweep leg as a table and JSON array entry.
fn report_sweep(
    title: &str,
    json_key: &str,
    samples: usize,
    runs: &[(usize, f64)],
    json: &mut String,
) {
    let mut t = Table::new(vec!["threads", "secs", "Msamples/s", "speedup vs 1T"]);
    let base = runs[0].1;
    let _ = writeln!(json, "  \"{json_key}\": {{");
    let _ = writeln!(json, "    \"samples\": {samples},");
    let _ = writeln!(json, "    \"runs\": [");
    for (idx, &(threads, secs)) in runs.iter().enumerate() {
        let sps = samples as f64 / secs;
        let speedup = base / secs;
        t.row(vec![
            threads.to_string(),
            format!("{secs:.3}"),
            format!("{:.1}", sps / 1e6),
            format!("{speedup:.2}x"),
        ]);
        let _ = writeln!(
            json,
            "      {{\"threads\": {threads}, \"secs\": {secs:.6}, \
             \"samples_per_sec\": {sps:.0}, \"speedup_vs_1\": {speedup:.3}}}{}",
            if idx + 1 < runs.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  },\n");
    println!("{title} ({samples} samples)");
    println!("{}", t.render());
}

fn bench_detector(smoke: bool, host: usize, json: &mut String) {
    let len = if smoke { 400_000 } else { 12_000_000 };
    // Even in smoke mode, take the best of several reps: the first call
    // pays process-cold costs (lazy registries, first-touch faults) that
    // would otherwise be billed to whichever thread count runs first and
    // make the regression gate numbers meaningless.
    let reps = if smoke { 5 } else { 3 };
    let magnitude = synthetic_magnitude(len);
    let emprof = Emprof::new(EmprofConfig::for_rates(FS, CLK));

    let mut runs = Vec::new();
    let mut reference: Option<Profile> = None;
    for threads in thread_sweep(host) {
        let par = Parallelism::new(threads);
        let (secs, profile) = time_best(reps, || {
            emprof.profile_magnitude_par(&magnitude, FS, CLK, par)
        });
        match &reference {
            None => reference = Some(profile),
            Some(r) => assert_eq!(r, &profile, "thread count changed the profile"),
        }
        runs.push((threads, secs));
    }
    report_sweep("detector leg", "detector", len, &runs, json);
}

fn bench_pipeline(smoke: bool, host: usize, json: &mut String) {
    // Power trace cycles = resample-input samples; the capture itself is
    // cycles * FS / CLK samples.
    let cycles = if smoke { 500_000 } else { 16_000_000 };
    let reps = 2;
    let power: Vec<f32> = (0..cycles)
        .map(|i| {
            let stall = i % 40_001 < 300;
            if stall {
                1.0
            } else {
                5.0
            }
        })
        .collect();
    let trace = PowerTrace::from_samples(power, CLK);

    let mut runs = Vec::new();
    let mut reference: Option<Profile> = None;
    for threads in thread_sweep(host) {
        let par = Parallelism::new(threads);
        let (secs, profile) = time_best(reps, || {
            let rx = Receiver::new(ReceiverConfig::paper_setup(FS)).with_parallelism(par);
            let capture = rx.capture(&trace, 11);
            let magnitude = capture.magnitude_par(par);
            let emprof = Emprof::new(EmprofConfig::for_rates(capture.sample_rate_hz(), CLK));
            emprof.profile_magnitude_par(&magnitude, capture.sample_rate_hz(), CLK, par)
        });
        match &reference {
            None => reference = Some(profile),
            Some(r) => assert_eq!(r, &profile, "thread count changed the pipeline output"),
        }
        runs.push((threads, secs));
    }
    report_sweep(
        "end-to-end sim→EM→detect leg",
        "pipeline",
        cycles,
        &runs,
        json,
    );
}
