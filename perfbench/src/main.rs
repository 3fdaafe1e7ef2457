//! Seeded end-to-end and per-layer benchmark for the emprof crates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test [--seed <n>]
//! ```
//!
//! One run sets a workload up three times from its seed (reporting the
//! median set-up time), then measures it for `--seconds` and checks every
//! output against a reference. Standard output holds two JSON lines: the
//! run (workload, seed, seconds, trace and host fingerprint), then the
//! result: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced.
//! With `--trace 1` every workload runs a traced pass that times the calls
//! into each layer and the metrics are the per-layer ones. A human-readable
//! report goes to standard error. See `README.md`.

mod capture;
mod device;
mod pool;
mod query;
mod serve;
mod speed;
mod trace;
mod util;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use speed::HostSpeed;
use trace::Recorder;
use util::{fingerprint_json, json_str, median, peak_rss_mib, quantile, reset_peak_rss};

const WORKLOADS: [&str; 4] = [
    "device_profile",
    "capture_profile",
    "serve_ingest",
    "journal_query",
];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One named, unit-carrying number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The tail percentile of every operation latency. Each workload runs
/// well over 100 operations per run, so at least ten lie beyond it.
pub const TAIL_Q: f64 = 0.9;

/// An untraced measurement of one workload. Times are in reference
/// seconds (see `speed.rs`), each with its wall-clock twin.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each of the workload's operations.
    pub op_s: Vec<f64>,
    pub wall_op_s: Vec<f64>,
    /// Rate of each unit of work (an operation, or a session), in the
    /// workload's unit (cycles, samples, events) per second.
    pub rates: Vec<f64>,
    pub wall_rates: Vec<f64>,
    /// Units of work running at once (client connections).
    pub streams: usize,
    /// Host slowness over the run, and the share of probe tries dropped
    /// because the process was busy.
    pub host_factor: f64,
    pub busy_probe_frac: f64,
    pub stall_accuracy: f64,
    /// The workload's own names for its numbers, for the report.
    pub aliases: Vec<Metric>,
}

impl Measured {
    pub fn new() -> Measured {
        Measured {
            streams: 1,
            ..Measured::default()
        }
    }

    /// One operation latency of `wall_s` while the host ran `factor`
    /// times slower than the reference host.
    pub fn op(&mut self, wall_s: f64, factor: f64) {
        self.op_s.push(wall_s / factor);
        self.wall_op_s.push(wall_s);
    }

    /// One unit of work that did `work` in `wall_s`.
    pub fn rate(&mut self, work: f64, wall_s: f64, factor: f64) {
        self.rates.push(work * factor / wall_s);
        self.wall_rates.push(work / wall_s);
    }

    /// One operation that is also one unit of work.
    pub fn record(&mut self, ok: bool, wall_s: f64, factor: f64, work: f64) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.op(wall_s, factor);
        self.rate(work, wall_s, factor);
    }

    /// Median rate per stream times the streams: a burst of host
    /// contention during a minority of the work does not move it.
    pub fn throughput(&self) -> f64 {
        median(&self.rates) * self.streams as f64
    }

    pub fn wall_throughput(&self) -> f64 {
        median(&self.wall_rates) * self.streams as f64
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.op_s) * 1e3
    }

    pub fn wall_p50_ms(&self) -> f64 {
        median(&self.wall_op_s) * 1e3
    }

    pub fn tail_ms(&self) -> f64 {
        quantile(&self.op_s, TAIL_Q) * 1e3
    }

    pub fn alias(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.aliases.push(Metric::new(name, value, unit));
    }
}

/// A traced pass over one workload: per-layer metrics and the row of the
/// per-layer report.
#[derive(Debug, Default)]
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Wall seconds of every traced operation.
    pub traced_op_s: Vec<f64>,
    /// Median traced operation over median untraced operation, minus 1.
    pub overhead_frac: f64,
    pub untraced_op_ms: f64,
    pub traced_op_ms: f64,
    /// Share of traced operation time no layer span covers.
    pub remainder_frac: f64,
    pub summary: String,
    pub wire_b_per_event: Option<f64>,
    pub journal_b_per_event: Option<f64>,
    /// Journaled per-frame pipeline wall over bare streaming-detector
    /// wall for the same samples.
    pub journal_cost: Option<f64>,
}

/// Runs `op(k)` for k = 0, 1, … until `seconds` have passed. `op` returns
/// whether its output was correct, its wall seconds and the work it did.
/// The host-speed probe runs after every operation, outside its timing.
pub fn closed_loop(
    seconds: f64,
    mut speed: HostSpeed,
    mut op: impl FnMut(usize) -> (bool, f64, f64),
) -> Measured {
    let mut m = Measured::new();
    speed.sample();
    let t0 = Instant::now();
    let mut k = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        let (ok, secs, work) = op(k);
        speed.sample();
        m.record(ok, secs, speed.factor(), work);
        k += 1;
    }
    m.host_factor = speed.overall_factor();
    m.busy_probe_frac = speed.busy_frac();
    m
}

/// Runs `op(k, rec)` for k = 0, 1, … with the recorder on for even k and
/// off for odd k, until `seconds` have passed and each side ran at least
/// `min_each` times. `op` returns whether its output was correct and the
/// wall seconds of its `"op"` root span; it may record other root spans
/// after that one, with the recorder on. Fills what every workload's
/// traced pass shares; the workload adds its per-layer metrics.
pub fn alternate(
    seconds: f64,
    min_each: usize,
    rec: &mut Recorder,
    mut op: impl FnMut(usize, &mut Recorder) -> (bool, f64),
) -> Traced {
    let mut t = Traced::default();
    let mut off = Vec::new();
    let t0 = Instant::now();
    let mut k = 0;
    while t0.elapsed().as_secs_f64() < seconds
        || t.traced_op_s.len() < min_each
        || off.len() < min_each
    {
        let traced = k % 2 == 0;
        rec.set_enabled(traced);
        let (ok, s) = op(k, rec);
        t.attempted += 1;
        t.failed += u64::from(!ok);
        if traced {
            t.traced_op_s.push(s);
        } else {
            off.push(s);
        }
        k += 1;
    }
    rec.set_enabled(true);
    let op = rec.totals()["op"];
    t.overhead_frac = ratio_of_medians(&t.traced_op_s, &off) - 1.0;
    t.untraced_op_ms = median(&off) * 1e3;
    t.traced_op_ms = median(&t.traced_op_s) * 1e3;
    t.remainder_frac = op.self_ns as f64 / op.wall_ns as f64;
    t
}

/// Ratio of the medians of two timing samples.
pub fn ratio_of_medians(num: &[f64], den: &[f64]) -> f64 {
    median(num) / median(den)
}

/// One named workload, set up from its seed.
pub trait Workload {
    /// An untraced closed loop of `seconds`, timed against `speed`.
    fn measure(&mut self, seconds: f64, speed: HostSpeed) -> Measured;
    /// A traced pass of `seconds` (see [`alternate`]).
    fn traced(&mut self, seconds: f64, rec: &mut Recorder) -> Traced;
    /// Breaks one reference, for the positive control.
    fn corrupt_reference(&mut self);
}

fn setup(name: &str, seed: u64, work: &Path) -> Box<dyn Workload> {
    match name {
        "device_profile" => Box::new(device::DeviceProfile::setup(seed)),
        "capture_profile" => Box::new(capture::CaptureProfile::setup(seed)),
        "serve_ingest" => Box::new(serve::ServeIngest::setup(seed, work)),
        "journal_query" => Box::new(query::JournalQuery::setup(seed, work)),
        _ => unreachable!("workload names are checked at parse time"),
    }
}

/// The host-speed probe that tracks the workload's operations (or, with
/// `setup`, its single-threaded set-up): the sort probe on as many cores
/// as they keep busy, or the read probe.
fn host_speed(name: &str, work: &Path, setup: bool) -> HostSpeed {
    match name {
        "journal_query" => HostSpeed::read(work),
        "device_profile" => HostSpeed::sort(1),
        _ if setup => HostSpeed::sort(1),
        _ => HostSpeed::sort(util::nproc()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Per process, so two runs in one checkout never share journals.
    let work = Path::new(".perfbench_work").join(std::process::id().to_string());
    let out_dir = Path::new(".perfbench_out").to_path_buf();
    for d in [&work, &out_dir] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("perfbench: create {}: {e}", d.display());
            return ExitCode::from(1);
        }
    }
    let code = if args.self_test {
        self_test(args.seed, &work)
    } else {
        run(&args, &work, &out_dir)
    };
    let _ = std::fs::remove_dir_all(&work);
    // Removed only once no other run uses it.
    let _ = std::fs::remove_dir(".perfbench_work");
    code
}

fn run(args: &Args, work: &Path, out_dir: &Path) -> ExitCode {
    // The run's identity, so saved output can be compared (`compare.py`).
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint_json()
    );
    let (mut raw, mut setups) = (Vec::new(), Vec::new());
    let mut speed = host_speed(&args.workload, work, true);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        speed.sample();
        let t0 = Instant::now();
        bench = Some(setup(&args.workload, args.seed, work));
        let s = t0.elapsed().as_secs_f64();
        speed.sample();
        raw.push(s);
        setups.push(s / speed.factor());
    }
    let mut bench = bench.expect("at least one set-up");
    let setup_s = median(&setups);
    eprintln!(
        "set-up: median {setup_s:.4} reference s (wall {raw:.4?} s, host factor {:.3})",
        speed.overall_factor()
    );
    drop(speed);

    let (attempted, failed, metrics) = if args.trace {
        traced_run(args, bench, work, out_dir)
    } else {
        // Memory is the measured phase's: set-up scratch freed before it
        // does not count, what set-up keeps does.
        reset_peak_rss();
        let m = bench.measure(args.seconds, host_speed(&args.workload, work, false));
        drop(bench);
        report(&m);
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
            Metric::new("stall_accuracy", m.stall_accuracy, "ratio"),
            Metric::new("throughput_per_s", m.throughput(), "1/s"),
            Metric::new("op_p50_ms", m.p50_ms(), "ms"),
            Metric::new("op_tail_ms", m.tail_ms(), "ms"),
        ];
        (m.attempted, m.failed, metrics)
    };

    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }
    let correct = failed == 0 && finite && attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

/// Prints a measurement's workload-specific figures, its wall-clock
/// twins of the calibrated ones and the calibration itself.
fn report(m: &Measured) {
    for a in &m.aliases {
        eprintln!("  {:<24} {:>14.4} {}", a.name, a.value, a.unit);
    }
    eprintln!(
        "  {} operations, {} failed; tail percentile p{:.0} over {} samples ({} beyond it)\n  \
         wall clock: throughput {:.6e}/s, op p50 {:.4} ms; host factor {:.3} \
         (wall = reference x factor), {:.1}% of probe tries dropped as the process was busy",
        m.attempted,
        m.failed,
        TAIL_Q * 100.0,
        m.op_s.len(),
        (m.op_s.len() as f64 * (1.0 - TAIL_Q)).floor(),
        m.wall_throughput(),
        m.wall_p50_ms(),
        m.host_factor,
        m.busy_probe_frac * 100.0
    );
}

/// An untraced measurement of the named workload, for its wall-clock
/// figures and its calibration, then traced passes over every workload, so
/// each run reports every per-layer metric. The named workload's set-up is
/// reused; the others are set up untimed. Each of the five parts gets a
/// fifth of the run's seconds.
fn traced_run(
    args: &Args,
    mut named: Box<dyn Workload>,
    work: &Path,
    out_dir: &Path,
) -> (u64, u64, Vec<Metric>) {
    let part = args.seconds / (WORKLOADS.len() + 1) as f64;
    let m = named.measure(part, host_speed(&args.workload, work, false));
    report(&m);
    let (mut attempted, mut failed) = (m.attempted, m.failed);
    let mut metrics = vec![
        Metric::new("wall.throughput_per_s", m.wall_throughput(), "1/s"),
        Metric::new("wall.op_p50_ms", m.wall_p50_ms(), "ms"),
        Metric::new("host.factor", m.host_factor, "ratio"),
        Metric::new("host.busy_probe_frac", m.busy_probe_frac, "ratio"),
    ];
    let mut named = Some(named);
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let mut bench = if name == args.workload {
            named.take().expect("named workload is set up once")
        } else {
            setup(name, args.seed, work)
        };
        let mut rec = Recorder::new(true);
        let mut t = bench.traced(part, &mut rec);
        drop(bench);
        let unbalanced = rec.unbalanced_ops();
        if unbalanced > 0 {
            eprintln!(
                "perfbench: {name}: {unbalanced} operations whose self times miss their wall time"
            );
            t.failed += 1;
        }
        let path = out_dir.join(format!("trace-{name}-seed{}.jsonl", args.seed));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("perfbench: write {}: {e}", path.display());
        }
        attempted += t.attempted;
        failed += t.failed;
        if name == args.workload {
            metrics.push(Metric::new("trace.overhead_frac", t.overhead_frac, "ratio"));
            metrics.push(Metric::new(
                "trace.remainder_frac",
                t.remainder_frac,
                "ratio",
            ));
        }
        metrics.append(&mut t.metrics);
        rows.push((name, t));
    }
    let report = layer_report(&rows, args.seed);
    eprintln!("{report}");
    let path = out_dir.join(format!("layers-seed{}.md", args.seed));
    if let Err(e) = std::fs::write(&path, &report) {
        eprintln!("perfbench: write {}: {e}", path.display());
    }
    (attempted, failed, metrics)
}

/// The per-layer report: one row per workload, every ratio's base named
/// in its column header.
fn layer_report(rows: &[(&str, Traced)], seed: u64) -> String {
    let opt =
        |v: Option<f64>, digits: usize| v.map_or_else(|| "n/a".into(), |v| format!("{v:.digits$}"));
    let mut s = format!(
        "## Per-layer report (seed {seed}; host {})\n\n\
         | Workload | Ops | Layer throughput | Wire bytes/event | Journal bytes/event | \
         Journaling cost (x bare 1T streaming detect) | Op w/o trace | Op w/ trace | \
         Trace penalty (x untraced op) | Untraced remainder (share of op) |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
        fingerprint_json()
    );
    for (name, t) in rows {
        let _ = writeln!(
            s,
            "| {name} | {} | {} | {} | {} | {} | {:.3} ms | {:.3} ms | {:.3}x | {:.1}% |",
            t.attempted,
            t.summary,
            opt(t.wire_b_per_event, 1),
            opt(t.journal_b_per_event, 1),
            opt(t.journal_cost, 2),
            t.untraced_op_ms,
            t.traced_op_ms,
            1.0 + t.overhead_frac,
            t.remainder_frac * 100.0
        );
    }
    s
}

/// The positive control: every workload must report no failures against
/// its own references and at least one once a reference is corrupted.
fn self_test(seed: u64, work: &Path) -> ExitCode {
    let mut pass = true;
    for name in WORKLOADS {
        let mut bench = setup(name, seed, work);
        let clean = bench.measure(1.0, host_speed(name, work, false));
        bench.corrupt_reference();
        let corrupted = bench.measure(1.0, host_speed(name, work, false));
        let ok = clean.failed == 0 && corrupted.failed > 0;
        pass &= ok;
        eprintln!(
            "self-test {name}: clean {}/{} failed, corrupted reference {}/{} failed: {}",
            clean.failed,
            clean.attempted,
            corrupted.failed,
            corrupted.attempted,
            if ok { "ok" } else { "FAIL" }
        );
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
