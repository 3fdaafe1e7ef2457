//! Command execution.

use std::fmt::Write as _;
use std::time::Duration;

use emprof_core::report::{self, ProfileSummary};
use emprof_core::{
    CalibConfig, Emprof, EmprofConfig, FusedDetector, FusionConfig, Profile, StreamingEmprof,
};
use emprof_emsim::{MemoryProbe, Receiver, ReceiverConfig};
use emprof_fault::{FaultInjector, FaultPlan, FaultReport};
use emprof_obs as obs;
use emprof_obs::TelemetrySink;
use emprof_par::Parallelism;
use emprof_sim::{DeviceModel, Interpreter, Simulator};
use emprof_workloads::microbench::MicrobenchConfig;
use emprof_workloads::spec::WorkloadSpec;
use emprof_workloads::{boot, iot};

use emprof_router::{BackendSpec, Router, RouterConfig};
use emprof_serve::{
    query_result_to_wire, query_spec_from_wire, ClientConfig, MetricsClient, MetricsReply,
    ProfileClient, QueryResultWire, QuerySpecWire, ServeConfig, Server, WatchClient,
};
use emprof_store::{
    inspect_dir, query_journals, FooterStatus, JournalConfig, SessionJournal, SessionMeta,
};

use crate::opts::{
    parse, CliError, Command, DumpFlightOpts, InspectOpts, ObsOpts, ProfileOpts, PushOpts,
    QueryOpts, RecordOpts, ReplayOpts, RouterOpts, ServeOpts, SimulateOpts, TopOpts, WatchOpts,
    USAGE,
};

/// How many span occurrences `--trace` retains before counting drops.
const TRACE_CAPACITY: usize = 65_536;

/// Parses and executes an invocation, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for usage mistakes and runtime failures; the
/// binary prints the error and exits nonzero.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match parse(args)? {
        Command::Help => Ok(USAGE.to_string()),
        Command::Devices => Ok(devices()),
        Command::Demo => demo(),
        Command::Simulate(opts) | Command::Stats(opts) => {
            with_telemetry(&opts.obs, || simulate(&opts))
        }
        Command::Profile(opts) => with_telemetry(&opts.obs, || profile_csv(&opts)),
        Command::Serve(opts) => with_telemetry(&opts.obs, || serve(&opts)),
        Command::Router(opts) => router(&opts),
        Command::Push(opts) => push(&opts),
        Command::Watch(opts) => watch(&opts),
        Command::Top(opts) => top(&opts),
        Command::DumpFlight(opts) => dump_flight(&opts),
        Command::Record(opts) => record(&opts),
        Command::Replay(opts) => replay(&opts),
        Command::JournalInspect(opts) => journal_inspect(&opts),
        Command::Query(opts) => query(&opts),
    }
}

/// Runs `f` with telemetry recording on when any `--metrics`/`--trace`/
/// `--verbose-stats` output was requested, then writes the requested
/// outputs. With no telemetry flags this is a plain call to `f`.
fn with_telemetry<F>(obs_opts: &ObsOpts, f: F) -> Result<String, CliError>
where
    F: FnOnce() -> Result<String, CliError>,
{
    if !obs_opts.active() {
        return f();
    }
    obs::reset();
    obs::enable();
    if obs_opts.trace_out.is_some() {
        obs::span::start_tracing(TRACE_CAPACITY);
    }
    let result = f();
    let snapshot = obs::snapshot();
    let (trace_events, trace_dropped) = if obs_opts.trace_out.is_some() {
        obs::span::stop_tracing()
    } else {
        (Vec::new(), 0)
    };
    obs::disable();
    let mut out = result?;
    let io_err = |path: &str, e: std::io::Error| CliError::Runtime(format!("{path}: {e}"));
    if let Some(path) = &obs_opts.metrics_out {
        let mut sink = obs::JsonLinesSink::new(Vec::new());
        sink.write_snapshot(&snapshot)
            .map_err(|e| io_err(path, e))?;
        std::fs::write(path, sink.into_inner()).map_err(|e| io_err(path, e))?;
        let _ = writeln!(out, "metrics written to {path}");
    }
    if let Some(path) = &obs_opts.trace_out {
        let mut buf = Vec::new();
        obs::sink::write_trace_jsonl(&mut buf, &trace_events, trace_dropped)
            .map_err(|e| io_err(path, e))?;
        std::fs::write(path, buf).map_err(|e| io_err(path, e))?;
        let _ = writeln!(
            out,
            "trace written to {path} ({} events, {trace_dropped} dropped)",
            trace_events.len()
        );
    }
    if obs_opts.verbose_stats {
        let mut sink = obs::PrettyTableSink::new(Vec::new());
        sink.write_snapshot(&snapshot)
            .map_err(|e| io_err("<stdout>", e))?;
        let table =
            String::from_utf8(sink.into_inner()).map_err(|e| CliError::Runtime(e.to_string()))?;
        let _ = writeln!(out, "\ntelemetry:\n{table}");
    }
    Ok(out)
}

/// The detector configuration for a CLI run: the paper's fixed-threshold
/// setup, with the online calibration loop switched on by `--adaptive`.
fn detector_config(rate: f64, clock_hz: f64, adaptive: bool) -> EmprofConfig {
    let mut config = EmprofConfig::for_rates(rate, clock_hz);
    if adaptive {
        config.calib = CalibConfig::adaptive();
    }
    config
}

/// The transport settings of a client command's `--timeout`/`--retries`.
fn client_config(timeout_secs: u64, retries: u32) -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(timeout_secs),
        max_reconnects: retries,
        ..ClientConfig::default()
    }
}

/// With telemetry on, re-runs the magnitude through the streaming
/// detector: this records the `stream.*` throughput gauges and doubles as
/// a live equivalence check against the batch profile. The streaming
/// detector must run the same configuration (notably the calibration
/// knob), sample rate and clock as the batch run it is compared to.
fn streaming_cross_check(
    out: &mut String,
    magnitude: &[f64],
    config: EmprofConfig,
    batch: &Profile,
) {
    if !obs::is_enabled() {
        return;
    }
    let mut s = StreamingEmprof::new(config, batch.sample_rate_hz(), batch.clock_hz());
    s.extend_from_slice(magnitude);
    let stats = s.stats();
    let streamed = s.finish();
    let agreement = if streamed.events() == batch.events() {
        "matches batch"
    } else {
        "MISMATCH vs batch"
    };
    let _ = writeln!(
        out,
        "streaming cross-check: {} events ({agreement}), {:.1} MS/s ingest",
        streamed.events().len(),
        stats.samples_per_sec.unwrap_or(0.0) / 1e6
    );
}

/// Appends the profile summary and, when the calibration loop flagged
/// any event degraded, how many.
fn summarize(out: &mut String, profile: &Profile) {
    let _ = writeln!(out, "{}", ProfileSummary::of(profile));
    if profile.degraded_count() > 0 {
        let _ = writeln!(
            out,
            "confidence: {} events flagged degraded (probe drift / signal gaps)",
            profile.degraded_count()
        );
    }
}

/// With telemetry on, appends the stall-latency quantile estimates from
/// the `detect.stall_latency_cycles` histogram (recorded per finalized
/// event by both detectors).
fn stall_latency_quantiles(out: &mut String) {
    if !obs::is_enabled() {
        return;
    }
    let snapshot = obs::snapshot();
    let q = |p: f64| snapshot.histogram_quantile("detect.stall_latency_cycles", p);
    if let (Some(p50), Some(p90), Some(p99)) = (q(0.5), q(0.9), q(0.99)) {
        let _ = writeln!(
            out,
            "stall latency: ~{p50:.0} cycles p50, ~{p90:.0} p90, ~{p99:.0} p99"
        );
    }
}

fn devices() -> String {
    let mut out = String::new();
    for d in [
        DeviceModel::alcatel(),
        DeviceModel::samsung(),
        DeviceModel::olimex(),
        DeviceModel::sesc_like(),
    ] {
        let _ = writeln!(
            out,
            "{:<9} {:>6.3} GHz  width {}  LLC {:>5} KiB  prefetch {}  ~{:.0} ns/miss",
            d.name,
            d.clock_hz / 1e9,
            d.width,
            d.llc.size_bytes >> 10,
            if d.prefetcher.is_some() { "yes" } else { "no " },
            d.cycles_to_ns(d.nominal_miss_latency_cycles()),
        );
    }
    out
}

fn device_by_name(name: &str) -> Result<DeviceModel, CliError> {
    match name {
        "alcatel" => Ok(DeviceModel::alcatel()),
        "samsung" => Ok(DeviceModel::samsung()),
        "olimex" => Ok(DeviceModel::olimex()),
        "sesc" | "sesc-sim" => Ok(DeviceModel::sesc_like()),
        other => Err(CliError::Runtime(format!(
            "unknown device {other} (try: alcatel, samsung, olimex, sesc)"
        ))),
    }
}

/// Runs a named workload on a device, returning the simulation result.
fn run_workload(
    workload: &str,
    device: &DeviceModel,
    scale: f64,
    seed: u64,
) -> Result<emprof_sim::SimResult, CliError> {
    let sim = Simulator::new(device.clone())
        .with_max_cycles(4_000_000_000)
        .with_seed(seed);
    let interp_run = |program: emprof_sim::Program| sim.run(Interpreter::new(&program));
    let err = |e: String| CliError::Runtime(e);

    if let Some(spec) = workload.strip_prefix("microbench:") {
        let parts: Vec<&str> = spec.split(':').collect();
        let [tm, cm] = parts.as_slice() else {
            return Err(err(format!(
                "bad microbench spec {workload} (want microbench:TM:CM)"
            )));
        };
        let tm: u64 = tm.parse().map_err(|_| err(format!("bad TM {tm}")))?;
        let cm: u64 = cm.parse().map_err(|_| err(format!("bad CM {cm}")))?;
        let program = MicrobenchConfig::new(tm, cm)
            .build()
            .map_err(|e| err(e.to_string()))?;
        return Ok(interp_run(program));
    }
    match workload {
        "boot" => Ok(sim.run(boot::boot_sequence(seed, scale).source())),
        "sensor-filter" => {
            let program = iot::sensor_filter(16, 64, (20_000.0 * scale) as i64 + 100)
                .map_err(|e| err(e.to_string()))?;
            Ok(interp_run(program))
        }
        "block-transfer" => {
            let program =
                iot::block_transfer((320.0 * scale) as i64 + 4).map_err(|e| err(e.to_string()))?;
            Ok(interp_run(program))
        }
        "table-crypto" => {
            let program = iot::table_crypto((10_000.0 * scale) as i64 + 64, 8 << 20, 40)
                .map_err(|e| err(e.to_string()))?;
            Ok(interp_run(program))
        }
        name => {
            let spec = WorkloadSpec::all_spec2000()
                .into_iter()
                .find(|w| w.name == name)
                .ok_or_else(|| err(format!("unknown workload {name}")))?;
            Ok(sim.run(spec.scaled(scale).with_seed(seed).source()))
        }
    }
}

/// Parses a `--fault-plan` spec string; a `none`/empty plan is `None`.
fn parse_fault_plan(spec: Option<&str>) -> Result<Option<FaultPlan>, CliError> {
    let Some(spec) = spec else { return Ok(None) };
    let plan: FaultPlan = spec
        .parse()
        .map_err(|e| CliError::Usage(format!("--fault-plan {spec}: {e}")))?;
    Ok(if plan.is_none() { None } else { Some(plan) })
}

/// Appends a one-line tally of what a fault injector actually did, if
/// one ran.
fn fault_summary(out: &mut String, report: Option<&FaultReport>) {
    let Some(report) = report else { return };
    let _ = writeln!(
        out,
        "faults injected: {} dropout bursts, {} corrupted samples, {} gain steps, {} shifts",
        report.dropouts.len(),
        report.corrupted.len(),
        report.gain_steps.len(),
        report.shifts.len()
    );
    if report.walk_min_gain < 1.0 {
        let _ = writeln!(
            out,
            "probe walk: gain wandered down to {:.0}% of nominal",
            report.walk_min_gain * 100.0
        );
    }
}

/// Captures a simulated run at the `--bandwidth` and `--seed` of `opts`,
/// faults the capture's magnitude if given an injector, and profiles it:
/// the profile, the magnitude, its sample rate and what the injector did.
fn profile_of(
    result: &emprof_sim::SimResult,
    device: &DeviceModel,
    opts: &SimulateOpts,
    par: Parallelism,
    injector: Option<&mut FaultInjector>,
) -> (Profile, Vec<f64>, f64, Option<FaultReport>) {
    let rx = Receiver::new(ReceiverConfig::paper_setup(opts.bandwidth_hz)).with_parallelism(par);
    let capture = rx.capture(&result.power, opts.seed);
    let rate = capture.sample_rate_hz();
    let (magnitude, report) = match injector {
        Some(injector) => {
            let (magnitude, report) = capture.magnitude_faulted(injector, par);
            (magnitude, Some(report))
        }
        None => (capture.magnitude_par(par), None),
    };
    let emprof = Emprof::new(detector_config(rate, device.clock_hz, opts.adaptive));
    let profile = emprof.profile_magnitude_par(&magnitude, rate, device.clock_hz, par);
    (profile, magnitude, rate, report)
}

fn simulate(opts: &SimulateOpts) -> Result<String, CliError> {
    let fault_plan = parse_fault_plan(opts.fault_plan.as_deref())?;
    let device = device_by_name(&opts.device)?;
    let result = run_workload(&opts.workload, &device, opts.scale, opts.seed)?;
    let par = Parallelism::resolve(opts.threads);
    let mut injector = fault_plan.map(|plan| FaultInjector::new(plan, opts.fault_seed));
    let (profile, magnitude, rate, fault_report) =
        profile_of(&result, &device, opts, par, injector.as_mut());
    let config = detector_config(rate, device.clock_hz, opts.adaptive);

    // Dual-probe cross-validation: synthesize the memory-side capture of
    // the same run (sharing the CPU capture's time base, as in the
    // paper's Fig. 10 setup) and reject CPU-probe events with no
    // corroborating DRAM activity. The pre-fusion profile is kept for
    // the streaming cross-check: streaming is single-probe by nature.
    let prefusion = profile.clone();
    let (profile, fusion_report) = if opts.dual_probe {
        let horizon_ns = result.stats.cycles as f64 / device.clock_hz * 1e9;
        let mem_magnitude = MemoryProbe::new(ReceiverConfig::paper_setup(opts.bandwidth_hz))
            .capture(&result.cas_trace, horizon_ns, device.clock_hz, opts.seed)
            .magnitude_par(par);
        let fused = FusedDetector::new(Emprof::new(config), FusionConfig::default());
        let (fused_profile, report) =
            fused.cross_validate(profile, &mem_magnitude, rate, device.clock_hz);
        (fused_profile, Some(report))
    } else {
        (profile, None)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {}: {} cycles, {} instructions (IPC {:.2})",
        opts.workload,
        device.name,
        result.stats.cycles,
        result.stats.instructions,
        result.stats.ipc()
    );
    let _ = writeln!(
        out,
        "capture: {} samples at {:.0} MS/s",
        magnitude.len(),
        rate / 1e6
    );
    fault_summary(&mut out, fault_report.as_ref());
    if let Some(report) = &fusion_report {
        let _ = writeln!(
            out,
            "dual-probe fusion: {} events confirmed, {} rejected as single-probe artifacts",
            report.confirmed, report.rejected
        );
    }
    summarize(&mut out, &profile);
    let _ = writeln!(
        out,
        "ground truth: {} LLC misses, {} stall cycles",
        result.ground_truth.llc_miss_count(),
        result.ground_truth.llc_stall_cycles()
    );
    streaming_cross_check(&mut out, &magnitude, config, &prefusion);
    stall_latency_quantiles(&mut out);
    if let Some(path) = &opts.signal_out {
        write_file(path, &report::signal_to_csv(&magnitude))?;
        let _ = writeln!(out, "signal written to {path}");
    }
    write_events(&mut out, opts.events_out.as_deref(), &profile)?;
    Ok(out)
}

fn profile_csv(opts: &ProfileOpts) -> Result<String, CliError> {
    let csv = std::fs::read_to_string(&opts.signal_path)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", opts.signal_path)))?;
    let signal = report::signal_from_csv(&csv).map_err(|e| CliError::Runtime(e.to_string()))?;
    let (rate, clock_hz) = (opts.sample_rate_hz, opts.clock_hz);
    let config = detector_config(rate, clock_hz, opts.adaptive);
    let par = Parallelism::resolve(opts.threads);
    let profile = Emprof::new(config).profile_magnitude_par(&signal, rate, clock_hz, par);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} samples ({:.3} ms of execution)",
        opts.signal_path,
        signal.len(),
        signal.len() as f64 / rate * 1e3
    );
    summarize(&mut out, &profile);
    streaming_cross_check(&mut out, &signal, config, &profile);
    stall_latency_quantiles(&mut out);
    write_events(&mut out, opts.events_out.as_deref(), &profile)?;
    Ok(out)
}

/// Keeps telemetry on while a `--metrics-addr` scrape endpoint is up: an
/// endpoint over a disabled registry would serve an empty snapshot.
/// Turns it back off on drop, unless it was on already (`with_telemetry`).
struct ScrapeTelemetry(bool);

impl ScrapeTelemetry {
    fn on(scraped: bool) -> Self {
        let owned = scraped && !obs::is_enabled();
        if owned {
            obs::reset();
            obs::enable();
        }
        ScrapeTelemetry(owned)
    }
}

impl Drop for ScrapeTelemetry {
    fn drop(&mut self) {
        if self.0 {
            obs::disable();
        }
    }
}

/// Flushes the listening banner (callers script against it), then
/// serves for `--duration` seconds, or forever without one.
fn run_for(duration_secs: Option<u64>) {
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match duration_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(1));
        },
    }
}

/// Runs the profiling service, optionally for a bounded duration.
fn serve(opts: &ServeOpts) -> Result<String, CliError> {
    let fault_plan = parse_fault_plan(opts.fault_plan.as_deref())?;
    let chaos = fault_plan.is_some();
    let _scrape = ScrapeTelemetry::on(opts.metrics_addr.is_some());
    let config = ServeConfig {
        threads: Parallelism::resolve(opts.threads),
        queue_frames: opts.queue_frames,
        shed: opts.shed,
        idle_timeout: Duration::from_secs(opts.idle_timeout_secs),
        max_sessions: opts.max_sessions,
        heartbeat_interval: opts.heartbeat_secs.map(Duration::from_secs),
        fault_plan,
        fault_seed: opts.fault_seed,
        journal_dir: opts.journal_dir.as_ref().map(std::path::PathBuf::from),
        metrics_addr: opts.metrics_addr.clone(),
        flight_dir: opts.flight_dir.as_ref().map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let threads = config.threads.get();
    let server = Server::bind(opts.addr.as_str(), config)
        .map_err(|e| CliError::Runtime(format!("bind {}: {e}", opts.addr)))?;
    // The banner goes out immediately: callers script against it.
    println!(
        "emprof-serve listening on {} ({} workers, queue {} frames, {}{}{}{})",
        server.local_addr(),
        threads,
        opts.queue_frames,
        if opts.shed { "shed" } else { "backpressure" },
        if chaos { ", CHAOS" } else { "" },
        match &opts.journal_dir {
            Some(dir) => format!(", journal {dir}"),
            None => String::new(),
        },
        match server.metrics_local_addr() {
            Some(addr) => format!(", metrics http://{addr}/metrics"),
            None => String::new(),
        },
    );
    run_for(opts.duration_secs);
    let stats = server.shutdown();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} connections, {} sessions, {} resumes",
        stats.connections, stats.sessions_opened, stats.reconnects
    );
    let _ = writeln!(
        out,
        "ingested {} samples in {} frames ({} bytes), {} events",
        stats.samples_in, stats.frames_in, stats.bytes_in, stats.events_total
    );
    let _ = writeln!(
        out,
        "backpressure {:.3} s blocked, {} batches shed, peak queue depth {}",
        stats.backpressure_ns as f64 / 1e9,
        stats.sheds,
        stats.peak_queue_depth
    );
    stall_latency_quantiles(&mut out);
    Ok(out)
}

/// Runs the sharded front tier: a consistent-hash router over a
/// backend fleet, with health probing and journal-handoff migration.
fn router(opts: &RouterOpts) -> Result<String, CliError> {
    let _scrape = ScrapeTelemetry::on(opts.metrics_addr.is_some());
    let backends: Vec<BackendSpec> = opts
        .backends
        .iter()
        .map(|b| BackendSpec {
            name: b.name.clone(),
            addr: b.addr.clone(),
            journal_dir: b.journal_dir.as_ref().map(std::path::PathBuf::from),
        })
        .collect();
    let names: Vec<&str> = backends.iter().map(|b| b.name.as_str()).collect();
    let banner_backends = names.join(",");
    let config = RouterConfig {
        backends,
        replicas: opts.replicas,
        probe_interval: Duration::from_millis(opts.probe_ms),
        down_after: opts.down_after,
        idle_timeout: Duration::from_secs(opts.idle_timeout_secs),
        metrics_addr: opts.metrics_addr.clone(),
        ..RouterConfig::default()
    };
    let router = Router::bind(opts.addr.as_str(), config)
        .map_err(|e| CliError::Runtime(format!("bind {}: {e}", opts.addr)))?;
    // The banner goes out immediately: callers script against it.
    println!(
        "emprof-router listening on {} ({} backends: {}, {} replicas, probe {}ms{})",
        router.local_addr(),
        opts.backends.len(),
        banner_backends,
        opts.replicas,
        opts.probe_ms,
        match router.metrics_local_addr() {
            Some(addr) => format!(", metrics http://{addr}/metrics"),
            None => String::new(),
        },
    );
    run_for(opts.duration_secs);
    let stats = router.shutdown();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "routed {} sessions ({} still active), {} frames, {} samples, {} events",
        stats.sessions_opened,
        stats.sessions_active,
        stats.frames_in,
        stats.samples_in,
        stats.events_out
    );
    let _ = writeln!(
        out,
        "migrations {} ({} lossy), reconnects {}, probe failures {}, mark-downs {}, backends up {}",
        stats.migrations,
        stats.migrations_lossy,
        stats.reconnects,
        stats.probe_failures,
        stats.mark_downs,
        stats.backends_up
    );
    Ok(out)
}

/// Streams a magnitude CSV to a running service and summarizes the reply.
fn push(opts: &PushOpts) -> Result<String, CliError> {
    let fault_plan = parse_fault_plan(opts.fault_plan.as_deref())?;
    let csv = std::fs::read_to_string(&opts.signal_path)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", opts.signal_path)))?;
    let (mut signal, csv_rejected) =
        report::signal_from_csv_sanitized(&csv).map_err(|e| CliError::Runtime(e.to_string()))?;
    let fault_report =
        fault_plan.map(|plan| FaultInjector::new(plan, opts.fault_seed).inject(&mut signal));
    let config = detector_config(opts.sample_rate_hz, opts.clock_hz, opts.adaptive);
    let err = |e: emprof_serve::ClientError| CliError::Runtime(format!("{}: {e}", opts.addr));
    let mut client = ProfileClient::connect_with(
        opts.addr.as_str(),
        &opts.device,
        config,
        opts.sample_rate_hz,
        opts.clock_hz,
        client_config(opts.timeout_secs, opts.retries),
    )
    .map_err(err)?;
    for chunk in signal.chunks(opts.frame) {
        client.send(chunk).map_err(err)?;
    }
    let reconnects = client.reconnects();
    let (events, stats) = client.finish().map_err(err)?;
    let accepted = signal.len() as u64 - stats.samples_rejected;
    let profile = Profile::new(
        events,
        accepted as usize,
        opts.sample_rate_hz,
        opts.clock_hz,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} samples served by {} ({} queued at flush, {} shed)",
        opts.signal_path, stats.samples_pushed, opts.addr, stats.queue_depth, stats.sheds
    );
    if csv_rejected > 0 {
        let _ = writeln!(
            out,
            "{csv_rejected} non-finite CSV samples dropped before send"
        );
    }
    fault_summary(&mut out, fault_report.as_ref());
    if stats.samples_rejected > 0 {
        let _ = writeln!(
            out,
            "server rejected {} non-finite samples",
            stats.samples_rejected
        );
    }
    if reconnects > 0 {
        let _ = writeln!(
            out,
            "session resumed {reconnects} time(s) after transport loss"
        );
    }
    summarize(&mut out, &profile);
    write_events(&mut out, opts.events_out.as_deref(), &profile)?;
    Ok(out)
}

/// Tails a running service's finalized-event stream.
fn watch(opts: &WatchOpts) -> Result<String, CliError> {
    let err = |e: emprof_serve::ClientError| CliError::Runtime(format!("{}: {e}", opts.addr));
    let client_config = client_config(opts.timeout_secs, opts.retries);
    let mut client = WatchClient::connect_with(opts.addr.as_str(), client_config).map_err(err)?;
    let mut out = String::new();
    let mut polled = 0u64;
    loop {
        let tail = client.poll().map_err(err)?;
        for te in &tail.events {
            let _ = writeln!(
                out,
                "session {} [{}..{}) {:.0} cycles {:?}",
                te.session_id,
                te.event.start_sample,
                te.event.end_sample,
                te.event.duration_cycles,
                te.event.kind
            );
        }
        if tail.missed > 0 {
            let _ = writeln!(out, "({} events missed: tail overflowed)", tail.missed);
        }
        let _ = writeln!(
            out,
            "sessions {} | samples {} | events {} | sheds {}",
            tail.server.sessions_active,
            tail.server.samples_in,
            tail.server.events_total,
            tail.server.sheds
        );
        polled += 1;
        if opts.polls.is_some_and(|max| polled >= max) {
            break;
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms));
    }
    Ok(out)
}

/// Formats a rate as a compact human-readable figure (`1.2M`, `850k`).
fn human_rate(v: f64) -> String {
    if !v.is_finite() || v < 0.0 {
        "?".to_string()
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// `s` cut to at most `max` bytes for a fixed-width table column, at a
/// char boundary: device labels and node names are any UTF-8 a remote
/// client chose.
fn clip(s: &str, max: usize) -> &str {
    &s[..s.floor_char_boundary(max)]
}

/// Client-side rate figures between two METRICS polls of one session.
///
/// A backend restart (or a session migrating to a fresh backend) resets
/// the wire counters to zero, so the naive `now - prev` delta of a
/// dashboard that survived the restart would go hugely negative (or,
/// with a saturating subtraction, silently freeze at zero). A reset is
/// detected as any counter moving backwards: the frame falls back to
/// the server's own windowed rate, marks the row `(reset)`, and tallies
/// the `top.counter_resets` telemetry counter.
fn session_rates(
    dt: f64,
    prev: &emprof_serve::SessionRow,
    row: &emprof_serve::SessionRow,
) -> (f64, String) {
    if row.samples_pushed < prev.samples_pushed || row.events_emitted < prev.events_emitted {
        obs::counter_add!("top.counter_resets", 1);
        return (row.samples_per_sec, " (reset)".to_string());
    }
    let ds = row.samples_pushed - prev.samples_pushed;
    let de = row.events_emitted - prev.events_emitted;
    (ds as f64 / dt, format!(" (+{de})"))
}

/// The column heads of the `top` session table.
const SESSION_HEADER: &str = "SESSION TRACE              DEVICE     CONN  QUEUE      SAMPLES    \
                              SAMP/S   EVENTS    ACKED  DEGR   LAG  SHED     IDLE";

/// A node's health as the `top` headers show it.
fn health_line(health: &emprof_serve::HealthWire) -> String {
    format!(
        "up {:.1}s | {} | sessions {}/{} | journal {}",
        health.uptime_ms as f64 / 1e3,
        if health.healthy {
            "healthy"
        } else {
            "UNHEALTHY"
        },
        health.sessions_active,
        health.max_sessions,
        if health.journal_enabled { "on" } else { "off" },
    )
}

/// Writes one row of the `top` session table. `prev` is the session's
/// row in the previous poll and the seconds since it: the sample and
/// event rates are then client-side deltas of the wire counters, not
/// server-reported figures. Without it the row shows the server's own
/// windowed rate.
fn session_row(
    out: &mut String,
    row: &emprof_serve::SessionRow,
    prev: Option<(f64, &emprof_serve::SessionRow)>,
) {
    let (samp_rate, ev_suffix) = match prev {
        Some((dt, p)) if dt > 0.0 => session_rates(dt, p, row),
        _ => (row.samples_per_sec, String::new()),
    };
    let _ = writeln!(
        out,
        "{:<7} {:<18} {:<10} {:<4} {:>6} {:>12} {:>9} {:>8} {:>8} {:>5} {:>5} {:>5} {:>7}ms",
        row.session_id,
        format!("0x{:016x}", row.trace_id),
        clip(&row.device, 10),
        if row.connected { "yes" } else { "no" },
        format!("{}/{}", row.queue_depth, row.queue_capacity),
        row.samples_pushed,
        human_rate(samp_rate),
        format!("{}{ev_suffix}", row.events_emitted),
        row.events_acked,
        row.events_degraded,
        row.delivery_lag(),
        row.sheds,
        row.idle_ms,
    );
}

/// Renders one `emprof top` dashboard frame; `prev` carries the previous
/// poll (seconds elapsed since it, and its reply) for [`session_row`].
fn render_top_frame(
    out: &mut String,
    addr: &str,
    reply: &MetricsReply,
    health: &emprof_serve::HealthWire,
    prev: Option<(f64, &MetricsReply)>,
) {
    let _ = writeln!(out, "emprof top — {addr} | {}", health_line(health));
    if reply.sessions.is_empty() {
        let _ = writeln!(out, "(no registered sessions)");
    } else {
        let _ = writeln!(out, "{SESSION_HEADER}");
        for row in &reply.sessions {
            let prev_row = prev.and_then(|(dt, p)| {
                p.sessions
                    .iter()
                    .find(|r| r.session_id == row.session_id)
                    .map(|r| (dt, r))
            });
            session_row(out, row, prev_row);
        }
    }
    let s = &reply.server;
    let _ = writeln!(
        out,
        "totals: samples {} | frames {} | bytes {} | events {} | sheds {}",
        s.samples_in, s.frames_in, s.bytes_in, s.events_total, s.sheds
    );
}

/// Renders one merged fleet frame for `emprof top` across several
/// nodes: per-node health headers, one session table with a NODE
/// column, then per-node totals capped by a fleet-total summary line.
fn render_fleet_frame(
    out: &mut String,
    nodes: &[(String, MetricsReply, emprof_serve::HealthWire)],
    down: &[String],
    prev: Option<(f64, &[(String, MetricsReply)])>,
) {
    let _ = writeln!(
        out,
        "emprof top — fleet of {} nodes",
        nodes.len() + down.len()
    );
    for (addr, _, health) in nodes {
        let _ = writeln!(out, "node {addr} | {}", health_line(health));
    }
    for addr in down {
        let _ = writeln!(out, "node {addr} | DOWN (connection refused or timed out)");
    }
    let any_sessions = nodes.iter().any(|(_, reply, _)| !reply.sessions.is_empty());
    if any_sessions {
        let _ = writeln!(out, "{:<18} {SESSION_HEADER}", "NODE");
        for (addr, reply, _) in nodes {
            for row in &reply.sessions {
                let prev_row = prev.and_then(|(dt, replies)| {
                    replies
                        .iter()
                        .find(|(a, _)| a == addr)
                        .and_then(|(_, p)| {
                            p.sessions.iter().find(|r| r.session_id == row.session_id)
                        })
                        .map(|r| (dt, r))
                });
                let _ = write!(out, "{:<18} ", clip(addr, 18));
                session_row(out, row, prev_row);
            }
        }
    } else {
        let _ = writeln!(out, "(no registered sessions)");
    }
    let (mut samples, mut frames, mut bytes, mut events, mut sheds) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (_, reply, _) in nodes {
        let s = &reply.server;
        samples += s.samples_in;
        frames += s.frames_in;
        bytes += s.bytes_in;
        events += s.events_total;
        sheds += s.sheds;
    }
    let _ = writeln!(
        out,
        "totals: samples {samples} | frames {frames} | bytes {bytes} | events {events} | sheds {sheds} (fleet of {} nodes)",
        nodes.len() + down.len()
    );
}

/// Live fleet dashboard over the service's METRICS poll. With one
/// `--addr` this is the classic single-node view; with several, the
/// per-node rows merge into one dashboard with a NODE column and a
/// fleet-total summary line.
///
/// In the fleet view a node that refuses the dial or times out mid-poll
/// must not take the whole dashboard down with it: the node is rendered
/// as a DOWN line (counted in `top.node_down`), its client is dropped,
/// and every later frame retries the dial so a recovered backend
/// rejoins on its own. Single-node `top` keeps the historical behavior
/// of failing loudly.
fn top(opts: &TopOpts) -> Result<String, CliError> {
    let client_config = client_config(opts.timeout_secs, opts.retries);
    let fleet = opts.addrs.len() > 1;
    let mut clients: Vec<(String, Option<MetricsClient>)> = Vec::with_capacity(opts.addrs.len());
    for addr in &opts.addrs {
        match MetricsClient::connect_with(addr.as_str(), client_config.clone()) {
            Ok(client) => clients.push((addr.clone(), Some(client))),
            Err(_) if fleet => {
                obs::counter_add!("top.node_down", 1);
                clients.push((addr.clone(), None));
            }
            Err(e) => return Err(CliError::Runtime(format!("{addr}: {e}"))),
        }
    }
    let mut out = String::new();
    let mut polled = 0u64;
    let mut prev: Option<(std::time::Instant, Vec<(String, MetricsReply)>)> = None;
    loop {
        let mut nodes = Vec::with_capacity(clients.len());
        let mut down = Vec::new();
        for (addr, slot) in &mut clients {
            if slot.is_none() {
                // Marked DOWN on an earlier frame: retry the dial so a
                // recovered backend rejoins the dashboard.
                *slot = MetricsClient::connect_with(addr.as_str(), client_config.clone()).ok();
            }
            let polled_node = match slot.as_mut() {
                Some(client) => client
                    .fetch_metrics()
                    .and_then(|reply| client.fetch_health().map(|health| (reply, health))),
                None => Err(emprof_serve::ClientError::Unexpected("node is down")),
            };
            match polled_node {
                Ok((reply, health)) => nodes.push((addr.clone(), reply, health)),
                Err(e) if !fleet => return Err(CliError::Runtime(format!("{addr}: {e}"))),
                Err(_) => {
                    *slot = None;
                    obs::counter_add!("top.node_down", 1);
                    down.push(addr.clone());
                }
            }
        }
        let now = std::time::Instant::now();
        if fleet {
            let prev_view = prev
                .as_ref()
                .map(|(at, r)| (now.duration_since(*at).as_secs_f64(), r.as_slice()));
            render_fleet_frame(&mut out, &nodes, &down, prev_view);
        } else {
            let (addr, reply, health) = &nodes[0];
            let prev_view = prev
                .as_ref()
                .map(|(at, r)| (now.duration_since(*at).as_secs_f64(), &r[0].1));
            render_top_frame(&mut out, addr, reply, health, prev_view);
        }
        prev = Some((now, nodes.into_iter().map(|(a, r, _)| (a, r)).collect()));
        polled += 1;
        let done = opts.once || opts.polls.is_some_and(|max| polled >= max);
        if done {
            break;
        }
        let _ = writeln!(out);
        std::thread::sleep(Duration::from_millis(opts.interval_ms));
    }
    Ok(out)
}

/// Fetches flight-recorder dumps from a running service.
fn dump_flight(opts: &DumpFlightOpts) -> Result<String, CliError> {
    let err = |e: emprof_serve::ClientError| CliError::Runtime(format!("{}: {e}", opts.addr));
    let client_config = client_config(opts.timeout_secs, opts.retries);
    let mut client = MetricsClient::connect_with(opts.addr.as_str(), client_config).map_err(err)?;
    let dumps = client.fetch_flight(opts.session).map_err(err)?;
    let mut out = String::new();
    if dumps.is_empty() {
        let _ = writeln!(
            out,
            "no flight recorders matched (session {} at {})",
            opts.session, opts.addr
        );
        return Ok(out);
    }
    match &opts.out_dir {
        Some(dir) => {
            let io_err = |e: std::io::Error| CliError::Runtime(format!("{dir}: {e}"));
            std::fs::create_dir_all(dir).map_err(io_err)?;
            for d in &dumps {
                let path =
                    std::path::Path::new(dir).join(format!("flight-session-{}.json", d.session_id));
                std::fs::write(&path, format!("{}\n", d.json)).map_err(io_err)?;
                let _ = writeln!(
                    out,
                    "session {} (trace 0x{:016x}) written to {}",
                    d.session_id,
                    d.trace_id,
                    path.display()
                );
            }
        }
        None => {
            for d in &dumps {
                let _ = writeln!(out, "{}", d.json);
            }
        }
    }
    Ok(out)
}

/// Persists a magnitude CSV into a fresh durable journal.
fn record(opts: &RecordOpts) -> Result<String, CliError> {
    let csv = std::fs::read_to_string(&opts.signal_path)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", opts.signal_path)))?;
    let (signal, rejected) =
        report::signal_from_csv_sanitized(&csv).map_err(|e| CliError::Runtime(e.to_string()))?;
    let dir = std::path::Path::new(&opts.journal_dir);
    let meta = SessionMeta {
        session_id: 0,
        resume_token: 0,
        sample_rate_hz: opts.sample_rate_hz,
        clock_hz: opts.clock_hz,
        config: EmprofConfig::for_rates(opts.sample_rate_hz, opts.clock_hz),
        device: opts.device.clone(),
    };
    let jerr = |e: std::io::Error| CliError::Runtime(format!("{}: {e}", opts.journal_dir));
    let mut journal = SessionJournal::create(dir, meta, JournalConfig::default()).map_err(jerr)?;
    for (i, chunk) in signal.chunks(opts.frame).enumerate() {
        journal.append_samples(i as u64 + 1, chunk).map_err(jerr)?;
    }
    journal.sync().map_err(jerr)?;
    let stats = journal.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "recorded {} samples in {} batches to {} ({} segments, {} bytes)",
        signal.len(),
        signal.chunks(opts.frame).len(),
        opts.journal_dir,
        stats.segments,
        stats.bytes
    );
    if rejected > 0 {
        let _ = writeln!(
            out,
            "{rejected} non-finite CSV samples dropped before recording"
        );
    }
    Ok(out)
}

/// Re-drives the detectors from a journaled capture.
fn replay(opts: &ReplayOpts) -> Result<String, CliError> {
    let dir = journal_dir(&opts.journal_dir)?;
    let jerr = |e: std::io::Error| CliError::Runtime(format!("{}: {e}", opts.journal_dir));
    let Some((_journal, rec)) =
        SessionJournal::open(dir, JournalConfig::default()).map_err(jerr)?
    else {
        return Err(CliError::Runtime(format!(
            "{}: not a session journal (no identity checkpoint survived)",
            opts.journal_dir
        )));
    };
    let mut out = String::new();
    if rec.report.truncations > 0 || rec.report.dropped_segments > 0 {
        let _ = writeln!(
            out,
            "recovery repaired the journal: {} torn tail(s) truncated ({} bytes), \
             {} segment(s) dropped",
            rec.report.truncations, rec.report.truncated_bytes, rec.report.dropped_segments
        );
    }
    let signal: Vec<f64> = rec
        .samples
        .iter()
        .flat_map(|(_, batch)| batch.iter().copied())
        .collect();
    let journaled: Vec<_> = rec.events.iter().map(|(_, e)| *e).collect();
    let (rate, clock) = (rec.meta.sample_rate_hz, rec.meta.clock_hz);
    if signal.is_empty() {
        // Samples compacted away (a finished, acked serve journal):
        // the journaled events are the capture's whole story.
        let profile = Profile::new(journaled, 0, rate, clock);
        let _ = writeln!(
            out,
            "{}: no samples retained; {} journaled events for device {:?}",
            opts.journal_dir,
            profile.events().len(),
            rec.meta.device
        );
        write_events(&mut out, opts.events_out.as_deref(), &profile)?;
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "{}: {} samples in {} batches, device {:?}, {:.0} MS/s capture",
        opts.journal_dir,
        signal.len(),
        rec.samples.len(),
        rec.meta.device,
        rate / 1e6
    );
    let batch = Emprof::new(rec.meta.config).profile_magnitude(&signal, rate, clock);
    let mut streaming = StreamingEmprof::new(rec.meta.config, rate, clock);
    streaming.extend_from_slice(&signal);
    let streamed = streaming.finish();
    if streamed.events() != batch.events() {
        return Err(CliError::Runtime(
            "replay MISMATCH: streaming and batch detectors disagree".into(),
        ));
    }
    let _ = writeln!(out, "{}", ProfileSummary::of(&batch));
    let _ = writeln!(
        out,
        "streaming replay: {} events (matches batch)",
        streamed.events().len()
    );
    if !journaled.is_empty() {
        // A serve journal that finalized before the crash: its events
        // must be a suffix-complete record of what the batch computes
        // past the compacted prefix.
        let total = batch.events().len();
        let tail = &batch.events()[total - journaled.len().min(total)..];
        if tail == journaled.as_slice() {
            let _ = writeln!(
                out,
                "journal holds {} finalized event(s); they match the recomputed profile",
                journaled.len()
            );
        } else {
            return Err(CliError::Runtime(
                "replay MISMATCH: journaled events disagree with recomputed profile".into(),
            ));
        }
    }
    write_events(&mut out, opts.events_out.as_deref(), &batch)?;
    Ok(out)
}

/// Dumps per-segment health of a journal directory (read-only).
fn journal_inspect(opts: &InspectOpts) -> Result<String, CliError> {
    let dir = std::path::Path::new(&opts.journal_dir);
    let inspect =
        inspect_dir(dir).map_err(|e| CliError::Runtime(format!("{}: {e}", opts.journal_dir)))?;
    let mut out = String::new();
    let _ = writeln!(out, "journal {}", inspect.dir.display());
    if inspect.segments.is_empty() {
        let _ = writeln!(out, "(no segments)");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>10} {:>10}  {:<7} {:<8} records (meta/samp/ev/cur/fin/foot)  max-ev",
        "segment", "base", "bytes", "valid", "state", "footer"
    );
    for seg in &inspect.segments {
        let state = if !seg.header_ok {
            "BAD-HDR"
        } else if seg.torn {
            "TORN"
        } else {
            "ok"
        };
        let footer = match seg.footer {
            FooterStatus::Ok => "ok",
            FooterStatus::Missing => "missing",
            FooterStatus::Mismatch => "MISMATCH",
        };
        let k = &seg.records_by_kind;
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>10} {:>10}  {:<7} {:<8} {} ({}/{}/{}/{}/{}/{})  {}",
            seg.file_name,
            seg.base_index,
            seg.bytes_on_disk,
            seg.valid_bytes,
            state,
            footer,
            seg.records,
            k[0],
            k[1],
            k[2],
            k[3],
            k[4],
            k[5],
            seg.max_event_seq
        );
    }
    for anomaly in &inspect.anomalies {
        let _ = writeln!(out, "anomaly: {anomaly}");
    }
    let _ = writeln!(
        out,
        "{} segment(s), {} record(s), healthy: {}",
        inspect.segments.len(),
        inspect.records(),
        if inspect.healthy() { "yes" } else { "NO" }
    );
    Ok(out)
}

/// Evaluates range statistics over a journal — locally from a directory
/// or remotely from a `serve --journal` node or router.
///
/// Both paths render the same [`QueryResultWire`] shape, and the result
/// is bit-identical to recomputing the statistic from a full replay of
/// the same journals: locally because the engine folds events through
/// the exact accumulator replay uses, remotely because the latency
/// distribution travels as raw histogram buckets and quantiles are
/// derived client-side from the same code.
fn query(opts: &QueryOpts) -> Result<String, CliError> {
    let spec = QuerySpecWire {
        t0: opts.t0,
        t1: opts.t1,
        bucket_samples: opts.bucket_samples,
        sessions: opts.sessions.clone(),
    };
    let result = match (&opts.journal_dir, &opts.addr) {
        (Some(dir), None) => {
            let local = query_journals(journal_dir(dir)?, &query_spec_from_wire(&spec), None)
                .map_err(|e| CliError::Runtime(format!("{dir}: {e}")))?;
            query_result_to_wire(&local)
        }
        (None, Some(addr)) => {
            let err = |e: emprof_serve::ClientError| CliError::Runtime(format!("{addr}: {e}"));
            let client_config = client_config(opts.timeout_secs, opts.retries);
            let mut client =
                MetricsClient::connect_with(addr.as_str(), client_config).map_err(err)?;
            client.query(&spec).map_err(err)?
        }
        // parse_query enforces exactly one of --journal / --addr.
        _ => unreachable!("parse enforced the journal/addr choice"),
    };
    let mut out = String::new();
    if opts.json {
        render_query_json(&mut out, opts, &result);
    } else {
        render_query_table(&mut out, opts, &result);
    }
    Ok(out)
}

/// Formats a latency quantile in cycles, or `-` before any event.
fn cycles_or_dash(q: Option<f64>) -> String {
    match q {
        Some(v) => format!("{v:.0}"),
        None => "-".to_string(),
    }
}

/// Renders a QUERY_RESULT as the human table.
fn render_query_table(out: &mut String, opts: &QueryOpts, r: &QueryResultWire) {
    let t1 = if opts.t1 == u64::MAX {
        "end".to_string()
    } else {
        opts.t1.to_string()
    };
    let _ = writeln!(
        out,
        "query [{}, {t1}] | {} session(s) | {} node(s)",
        opts.t0,
        r.sessions.len(),
        r.nodes
    );
    let _ = writeln!(
        out,
        "events {} | degraded {} | refresh collisions {}",
        r.events, r.degraded, r.refresh_collisions
    );
    let _ = writeln!(
        out,
        "stall latency (cycles): p50 {} | p90 {} | p99 {} | min {} | max {}",
        cycles_or_dash(r.latency.p50()),
        cycles_or_dash(r.latency.p90()),
        cycles_or_dash(r.latency.p99()),
        r.latency.min.map_or("-".to_string(), |v| v.to_string()),
        r.latency.max.map_or("-".to_string(), |v| v.to_string()),
    );
    if !r.sessions.is_empty() {
        let _ = writeln!(
            out,
            "{:<9} {:<12} {:>8} {:>8} {:>10}",
            "SESSION", "DEVICE", "EVENTS", "DEGR", "COLLISIONS"
        );
        for row in &r.sessions {
            let device = clip(&row.device, 12);
            let _ = writeln!(
                out,
                "{:<9} {:<12} {:>8} {:>8} {:>10}",
                row.session_id, device, row.events, row.degraded, row.refresh_collisions
            );
        }
    }
    if !r.timeline.is_empty() {
        let _ = writeln!(
            out,
            "timeline ({} buckets of {} samples): {}",
            r.timeline.len(),
            opts.bucket_samples,
            r.timeline
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    let _ = writeln!(
        out,
        "segments: {} scanned, {} pruned | cache: {} hits, {} misses",
        r.segments_scanned, r.segments_pruned, r.cache_hits, r.cache_misses
    );
}

/// Renders a QUERY_RESULT as one JSON document (hand-rolled: the
/// workspace is pure `std`, and every field is a number, a string with
/// no exotic characters, or an array of those).
fn render_query_json(out: &mut String, opts: &QueryOpts, r: &QueryResultWire) {
    fn json_string(s: &str) -> String {
        let mut esc = String::with_capacity(s.len() + 2);
        esc.push('"');
        for c in s.chars() {
            match c {
                '"' => esc.push_str("\\\""),
                '\\' => esc.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(esc, "\\u{:04x}", c as u32);
                }
                c => esc.push(c),
            }
        }
        esc.push('"');
        esc
    }
    fn opt_num(v: Option<f64>) -> String {
        match v {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_string(),
        }
    }
    let sessions = r
        .sessions
        .iter()
        .map(|row| {
            format!(
                "{{\"session_id\":{},\"device\":{},\"events\":{},\"degraded\":{},\
                 \"refresh_collisions\":{}}}",
                row.session_id,
                json_string(&row.device),
                row.events,
                row.degraded,
                row.refresh_collisions
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let timeline = r
        .timeline
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let _ = writeln!(
        out,
        "{{\"t0\":{},\"t1\":{},\"events\":{},\"degraded\":{},\"refresh_collisions\":{},\
         \"latency\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\
         \"p99\":{}}},\"sessions\":[{}],\"timeline\":[{}],\"bucket_samples\":{},\
         \"segments_scanned\":{},\"segments_pruned\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"nodes\":{}}}",
        opts.t0,
        opts.t1,
        r.events,
        r.degraded,
        r.refresh_collisions,
        r.latency.count,
        r.latency.sum,
        r.latency.min.map_or("null".to_string(), |v| v.to_string()),
        r.latency.max.map_or("null".to_string(), |v| v.to_string()),
        opt_num(r.latency.p50()),
        opt_num(r.latency.p90()),
        opt_num(r.latency.p99()),
        sessions,
        timeline,
        opts.bucket_samples,
        r.segments_scanned,
        r.segments_pruned,
        r.cache_hits,
        r.cache_misses,
        r.nodes
    );
}

fn demo() -> Result<String, CliError> {
    let device = DeviceModel::olimex();
    let config = MicrobenchConfig::new(256, 1);
    let program = config
        .build()
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let result = Simulator::new(device.clone())
        .with_max_cycles(4_000_000_000)
        .run(Interpreter::new(&program));
    let opts = SimulateOpts {
        seed: 7,
        ..SimulateOpts::default()
    };
    let (profile, ..) = profile_of(&result, &device, &opts, Parallelism::resolve(None), None);
    let window = result
        .ground_truth
        .marker_window(
            emprof_workloads::MARKER_MISS_START,
            emprof_workloads::MARKER_MISS_END,
        )
        .ok_or_else(|| CliError::Runtime("markers missing".into()))?;
    let section = profile.slice_cycles(window.0, window.1);
    let reported = section.miss_count() + section.refresh_count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "microbenchmark engineered for {} LLC misses on the Olimex model",
        config.total_misses
    );
    let _ = writeln!(
        out,
        "EMPROF detected {} stalls in the measured section ({:.2}% accuracy)",
        reported,
        emprof_core::accuracy::count_accuracy(reported as f64, config.total_misses as f64) * 100.0
    );
    let _ = writeln!(
        out,
        "mean measured latency {:.0} cycles (~{:.0} ns at {:.3} GHz)",
        section.mean_latency_cycles(),
        section.mean_latency_cycles() / device.clock_hz * 1e9,
        device.clock_hz / 1e9
    );
    Ok(out)
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Runtime(format!("{path}: {e}")))
}

/// `dir` as the path of an existing journal directory. Journal recovery
/// conjures a missing directory into an empty journal (open never
/// fails), so reading a path that does not exist must be an error, not
/// a silent empty result.
fn journal_dir(dir: &str) -> Result<&std::path::Path, CliError> {
    let path = std::path::Path::new(dir);
    if path.is_dir() {
        Ok(path)
    } else {
        Err(CliError::Runtime(format!(
            "{dir}: no such journal directory"
        )))
    }
}

/// Writes the profile's events as CSV to an `--events-out` path, if given.
fn write_events(out: &mut String, path: Option<&str>, profile: &Profile) -> Result<(), CliError> {
    if let Some(path) = path {
        write_file(path, &report::events_to_csv(profile))?;
        let _ = writeln!(out, "events written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Telemetry state is process-global; tests that toggle it must not
    /// overlap.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn devices_lists_all_models() {
        let out = run(&argv("devices")).unwrap();
        for name in ["alcatel", "samsung", "olimex", "sesc-sim"] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn help_is_returned() {
        let out = run(&argv("help")).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn simulate_microbench_reports_counts() {
        let out = run(&argv("simulate microbench:64:4 --device olimex --seed 3")).unwrap();
        assert!(out.contains("misses:"), "{out}");
        assert!(out.contains("ground truth:"), "{out}");
    }

    #[test]
    fn simulate_iot_kernel() {
        let out = run(&argv("simulate table-crypto --scale 0.05")).unwrap();
        assert!(out.contains("table-crypto on olimex"));
    }

    #[test]
    fn simulate_spec_scaled() {
        let out = run(&argv("simulate vpr --scale 0.01 --device sesc")).unwrap();
        assert!(out.contains("vpr on sesc-sim"));
    }

    #[test]
    fn unknown_workload_and_device_error() {
        assert!(matches!(
            run(&argv("simulate nope --scale 0.01")),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            run(&argv("simulate mcf --device toaster")),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            run(&argv("simulate microbench:abc:1")),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn signal_round_trips_through_files() {
        let dir = std::env::temp_dir().join("emprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sig = dir.join("sig.csv");
        let ev = dir.join("ev.csv");
        let out = run(&argv(&format!(
            "simulate microbench:64:4 --seed 5 --signal-out {} --events-out {}",
            sig.display(),
            ev.display()
        )))
        .unwrap();
        assert!(out.contains("signal written"));

        // Profile the exported capture; counts must match the simulate run.
        let out2 = run(&argv(&format!(
            "profile {} --rate 40e6 --clock 1.008e9",
            sig.display()
        )))
        .unwrap();
        let miss_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("misses:"))
                .map(str::to_string)
                .expect("misses line")
        };
        assert_eq!(miss_line(&out), miss_line(&out2));
        // The events CSV parses back.
        let events = report::events_from_csv(&std::fs::read_to_string(&ev).unwrap()).unwrap();
        assert!(!events.is_empty());
    }

    #[test]
    fn metrics_jsonl_covers_the_whole_pipeline() {
        let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("emprof-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.jsonl");
        let trace = dir.join("trace.jsonl");
        let out = run(&argv(&format!(
            "simulate microbench:64:4 --seed 5 --metrics {} --trace {}",
            metrics.display(),
            trace.display()
        )))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        assert!(out.contains("streaming cross-check"), "{out}");
        assert!(out.contains("matches batch"), "{out}");

        let body = std::fs::read_to_string(&metrics).unwrap();
        // Detect-stage wall-time spans.
        for span in ["detect.fused", "detect.merge", "detect.refine"] {
            assert!(
                body.contains(&format!("{{\"type\":\"span\",\"name\":\"{span}\"")),
                "missing span {span} in:\n{body}"
            );
        }
        // Per-level cache hit/miss counters from the simulator.
        for ctr in [
            "sim.cache.l1d.hit",
            "sim.cache.l1d.miss",
            "sim.cache.l1i.hit",
            "sim.cache.l1i.miss",
            "sim.cache.llc.hit",
            "sim.cache.llc.miss",
        ] {
            assert!(
                body.contains(&format!("{{\"type\":\"counter\",\"name\":\"{ctr}\"")),
                "missing counter {ctr} in:\n{body}"
            );
        }
        // Streaming throughput gauge.
        assert!(
            body.contains("{\"type\":\"gauge\",\"name\":\"stream.samples_per_sec\""),
            "missing throughput gauge in:\n{body}"
        );
        // Every line is a JSON object.
        for line in body.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }

        let trace_body = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_body.contains("{\"type\":\"trace\",\"name\":\"sim.run\""));
    }

    #[test]
    fn stats_subcommand_prints_telemetry_table() {
        let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&argv("stats microbench:64:4 --seed 5")).unwrap();
        assert!(out.contains("telemetry:"), "{out}");
        assert!(out.contains("spans (wall time per stage)"), "{out}");
        assert!(out.contains("detect.fused"), "{out}");
        assert!(out.contains("sim.cache.llc.miss"), "{out}");
        // The stall-latency histogram quantiles ride along.
        assert!(out.contains("stall latency:"), "{out}");
        assert!(out.contains("p99"), "{out}");
    }

    #[test]
    fn telemetry_off_leaves_recording_disabled() {
        let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = run(&argv("simulate microbench:64:4 --seed 5")).unwrap();
        assert!(!emprof_obs::is_enabled());
    }

    #[test]
    fn thread_count_never_changes_the_output() {
        let base = run(&argv("simulate microbench:64:4 --seed 5 --threads 1")).unwrap();
        for threads in [2, 4] {
            let out = run(&argv(&format!(
                "simulate microbench:64:4 --seed 5 --threads {threads}"
            )))
            .unwrap();
            assert_eq!(base, out, "--threads {threads} changed the report");
        }
    }

    #[test]
    fn push_and_watch_against_in_process_server() {
        let dir = std::env::temp_dir().join("emprof-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sig = dir.join("push-sig.csv");
        run(&argv(&format!(
            "simulate microbench:64:4 --seed 5 --signal-out {}",
            sig.display()
        )))
        .unwrap();

        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let pushed = run(&argv(&format!(
            "push {} --rate 40e6 --clock 1.008e9 --addr {addr} --frame 1000 --device cli",
            sig.display()
        )))
        .unwrap();
        let local = run(&argv(&format!(
            "profile {} --rate 40e6 --clock 1.008e9",
            sig.display()
        )))
        .unwrap();
        let miss_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("misses:"))
                .map(str::to_string)
                .expect("misses line")
        };
        // The served profile is the local profile, bit for bit.
        assert_eq!(miss_line(&pushed), miss_line(&local));

        let watched = run(&argv(&format!(
            "watch --addr {addr} --polls 1 --interval-ms 10"
        )))
        .unwrap();
        assert!(watched.contains("sessions"), "{watched}");
        assert!(
            watched.contains("session "),
            "tail events missing: {watched}"
        );
        server.shutdown();
    }

    #[test]
    fn session_rates_clamp_counter_resets() {
        let row = |samples: u64, events: u64| emprof_serve::SessionRow {
            session_id: 1,
            trace_id: 42,
            device: "dev".into(),
            connected: true,
            queue_depth: 0,
            queue_capacity: 8,
            samples_pushed: samples,
            samples_per_sec: 123.0,
            events_emitted: events,
            events_acked: 0,
            journaled_events: 0,
            sheds: 0,
            samples_rejected: 0,
            events_degraded: 0,
            idle_ms: 0,
        };
        // Monotone counters: the rate is the client-side delta.
        let (rate, suffix) = session_rates(2.0, &row(1_000, 3), &row(5_000, 7));
        assert_eq!(rate, 2_000.0);
        assert_eq!(suffix, " (+4)");
        // A counter moving backwards is a backend restart, not a
        // negative rate: fall back to the server's windowed figure.
        let (rate, suffix) = session_rates(2.0, &row(5_000, 7), &row(100, 0));
        assert_eq!(rate, 123.0);
        assert_eq!(suffix, " (reset)");
        // Either counter regressing alone counts as a reset.
        let (rate, suffix) = session_rates(2.0, &row(100, 7), &row(200, 2));
        assert_eq!(rate, 123.0);
        assert_eq!(suffix, " (reset)");
    }

    #[test]
    fn tables_cut_non_ascii_labels_at_char_boundaries() {
        // "sensor-ééé" is 13 bytes; byte 10 falls inside the second 'é'.
        let device = "sensor-ééé";
        let reply = MetricsReply {
            sessions: vec![emprof_serve::SessionRow {
                session_id: 7,
                device: device.into(),
                ..Default::default()
            }],
            ..Default::default()
        };
        let health = emprof_serve::HealthWire::default();
        let mut out = String::new();
        render_top_frame(&mut out, "127.0.0.1:7741", &reply, &health, None);
        assert!(out.contains("sensor-é "), "{out}");
        let node = "nœud-ééééééééééé:7741".to_string();
        let mut out = String::new();
        render_fleet_frame(&mut out, &[(node, reply, health)], &[], None);
        assert!(out.contains("nœud-éééééé "), "{out}");
        assert!(out.contains("sensor-é "), "{out}");

        let result = QueryResultWire {
            sessions: vec![emprof_serve::QueryRowWire {
                session_id: 7,
                device: device.into(),
                ..Default::default()
            }],
            ..Default::default()
        };
        let mut out = String::new();
        render_query_table(&mut out, &QueryOpts::default(), &result);
        assert!(out.contains("sensor-éé "), "{out}");
    }

    #[test]
    fn top_and_dump_flight_against_in_process_server() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        // A live mid-stream session so the dashboard has a row to render.
        let config = EmprofConfig::for_rates(40e6, 1e9);
        let mut client = ProfileClient::connect(addr, "top-test", config, 40e6, 1e9).unwrap();
        client.send(&vec![5.0; 20_000]).unwrap();

        let topped = run(&argv(&format!("top --addr {addr} --once"))).unwrap();
        assert!(topped.contains("emprof top"), "{topped}");
        assert!(topped.contains("SESSION"), "{topped}");
        assert!(topped.contains("top-test"), "{topped}");
        assert!(topped.contains("0x"), "trace id missing: {topped}");
        assert!(topped.contains("totals:"), "{topped}");

        // Two polls: the second frame's rates are client-side deltas.
        let twice = run(&argv(&format!(
            "top --addr {addr} --polls 2 --interval-ms 10"
        )))
        .unwrap();
        assert_eq!(twice.matches("totals:").count(), 2, "{twice}");

        let dir = std::env::temp_dir().join("emprof-cli-flight-test");
        let _ = std::fs::remove_dir_all(&dir);
        let dumped = run(&argv(&format!(
            "dump-flight --addr {addr} --out {}",
            dir.display()
        )))
        .unwrap();
        assert!(dumped.contains("written to"), "{dumped}");
        let dump_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("flight-session-") && n.ends_with(".json"))
            })
            .collect();
        assert_eq!(dump_files.len(), 1, "{dump_files:?}");
        let body = std::fs::read_to_string(&dump_files[0]).unwrap();
        assert!(body.contains("\"type\":\"flight\""), "{body}");
        assert!(body.contains("\"trace_id\":\"0x"), "{body}");

        // Without --out the dump JSON itself goes to stdout.
        let stdout_dump = run(&argv(&format!("dump-flight --addr {addr}"))).unwrap();
        assert!(stdout_dump.contains("\"type\":\"flight\""), "{stdout_dump}");

        drop(client);
        server.shutdown();
    }

    #[test]
    fn dump_flight_unknown_session_is_empty_not_fatal() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let out = run(&argv(&format!("dump-flight --addr {addr} --session 99"))).unwrap();
        assert!(out.contains("no flight recorders matched"), "{out}");
        server.shutdown();
    }

    #[test]
    fn serve_with_metrics_addr_runs() {
        // --metrics-addr implies telemetry (toggles the global obs
        // state), so serialize with the other obs-touching tests.
        let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&argv(
            "serve --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 --duration 1 --threads 2",
        ))
        .unwrap();
        assert!(out.contains("served 0 connections"), "{out}");
        assert!(!obs::is_enabled(), "serve must restore the obs toggle");
    }

    #[test]
    fn serve_bounded_duration_reports_stats() {
        let out = run(&argv(
            "serve --addr 127.0.0.1:0 --duration 1 --queue-frames 8 --threads 2",
        ))
        .unwrap();
        assert!(out.contains("served 0 connections"), "{out}");
        assert!(out.contains("peak queue depth"), "{out}");
    }

    #[test]
    fn router_verb_routes_a_session_end_to_end() {
        let backend = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let baddr = backend.local_addr();
        // The router binds a pre-picked free port: the banner (with the
        // resolved ephemeral addr) goes to stdout, not the return value.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let raddr = format!("127.0.0.1:{port}");
        let handle = std::thread::spawn({
            let raddr = raddr.clone();
            move || {
                run(&argv(&format!(
                    "router --addr {raddr} --backends b0={baddr} --probe-ms 100 --duration 3"
                )))
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::net::TcpStream::connect(&raddr).is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "router never started listening on {raddr}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let config = EmprofConfig::for_rates(40e6, 1e9);
        let mut client =
            ProfileClient::connect(raddr.as_str(), "via-router", config, 40e6, 1e9).unwrap();
        client.send(&vec![5.0; 20_000]).unwrap();
        let (_, stats) = client.finish().unwrap();
        assert!(stats.final_report);
        assert_eq!(stats.samples_pushed, 20_000);

        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("routed 1 sessions"), "{out}");
        assert!(out.contains("migrations 0 (0 lossy)"), "{out}");
        assert!(out.contains("backends up 1"), "{out}");
        backend.shutdown();
    }

    #[test]
    fn top_merges_multiple_addrs_into_one_fleet_view() {
        let s1 = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let s2 = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let (a1, a2) = (s1.local_addr(), s2.local_addr());
        let config = EmprofConfig::for_rates(40e6, 1e9);
        let mut c1 = ProfileClient::connect(a1, "fleet-a", config, 40e6, 1e9).unwrap();
        let mut c2 = ProfileClient::connect(a2, "fleet-b", config, 40e6, 1e9).unwrap();
        c1.send(&vec![5.0; 10_000]).unwrap();
        c2.send(&vec![5.0; 10_000]).unwrap();

        let out = run(&argv(&format!("top --addr {a1} --addr {a2} --once"))).unwrap();
        assert!(out.contains("fleet of 2 nodes"), "{out}");
        // Per-node health headers, one merged table with a NODE column.
        assert!(out.contains(&format!("node {a1}")), "{out}");
        assert!(out.contains(&format!("node {a2}")), "{out}");
        assert!(out.contains("NODE"), "{out}");
        assert!(out.contains("fleet-a") && out.contains("fleet-b"), "{out}");
        // Exactly one totals line: the fleet-wide sum, not per node.
        assert_eq!(out.matches("totals:").count(), 1, "{out}");
        assert!(out.contains("(fleet of 2 nodes)"), "{out}");

        // Two polls: second-frame rates are client-side deltas per node.
        let twice = run(&argv(&format!(
            "top --addr {a1} --addr {a2} --polls 2 --interval-ms 10"
        )))
        .unwrap();
        assert_eq!(twice.matches("totals:").count(), 2, "{twice}");

        drop(c1);
        drop(c2);
        s1.shutdown();
        s2.shutdown();
    }

    #[test]
    fn top_fleet_marks_dead_node_down_and_keeps_rendering() {
        let live = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = live.local_addr();
        let config = EmprofConfig::for_rates(40e6, 1e9);
        let mut client = ProfileClient::connect(addr, "survivor", config, 40e6, 1e9).unwrap();
        client.send(&vec![5.0; 10_000]).unwrap();
        // A fresh ephemeral listener, immediately closed: nothing there.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            format!("127.0.0.1:{}", l.local_addr().unwrap().port())
        };

        let out = run(&argv(&format!("top --addr {addr} --addr {dead} --once"))).unwrap();
        assert!(out.contains("fleet of 2 nodes"), "{out}");
        assert!(out.contains(&format!("node {dead} | DOWN")), "{out}");
        // The live node still renders its health header and rows.
        assert!(out.contains(&format!("node {addr} | up")), "{out}");
        assert!(out.contains("survivor"), "{out}");
        assert!(out.contains("totals:"), "{out}");

        // Single-node top keeps the historical fail-loudly behavior.
        assert!(matches!(
            run(&argv(&format!("top --addr {dead} --once"))),
            Err(CliError::Runtime(_))
        ));

        drop(client);
        live.shutdown();
    }

    #[test]
    fn query_local_and_remote_agree_end_to_end() {
        let dir = std::env::temp_dir().join("emprof-cli-query-test");
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                journal_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let config = EmprofConfig::for_rates(40e6, 1e9);
        let mut signal = vec![5.0; 40_000];
        for (start, width) in [(5_000usize, 12usize), (9_000, 30), (15_000, 8)] {
            for s in signal.iter_mut().skip(start).take(width) {
                *s = 0.8;
            }
        }
        let mut client = ProfileClient::connect(addr, "qdev", config, 40e6, 1e9).unwrap();
        client.send(&signal).unwrap();
        // Flush (not finish): a finished, fully-acked session's journal
        // is cleanly retired — deleted — and there would be nothing
        // left to query. A flushed mid-stream session keeps journaling.
        let (events, _) = client.flush().unwrap();
        assert!(!events.is_empty(), "the dipped signal must produce events");

        let remote = run(&argv(&format!("query --addr {addr}"))).unwrap();
        let local = run(&argv(&format!("query --journal {}", dir.display()))).unwrap();
        let stat_lines = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("events ") || l.starts_with("stall latency"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        // Remote (server-side engine + wire) and local (direct read)
        // agree on every statistic.
        assert_eq!(stat_lines(&remote), stat_lines(&local), "{remote}\n{local}");
        assert!(
            remote.contains(&format!("events {}", events.len())),
            "{remote}"
        );
        assert!(remote.contains("qdev"), "{remote}");
        assert!(remote.contains("p99"), "{remote}");

        // --json emits one machine-readable document with the same counts.
        let json = run(&argv(&format!(
            "query --journal {} --t0 0 --t1 39999 --bucket 10000 --json",
            dir.display()
        )))
        .unwrap();
        assert!(
            json.starts_with('{') && json.trim_end().ends_with('}'),
            "{json}"
        );
        assert!(
            json.contains(&format!("\"events\":{}", events.len())),
            "{json}"
        );
        assert!(json.contains("\"timeline\":["), "{json}");

        // A windowed query keeps only events starting inside the range.
        let windowed = run(&argv(&format!(
            "query --journal {} --t0 0 --t1 6000",
            dir.display()
        )))
        .unwrap();
        assert!(windowed.contains("events 1 "), "{windowed}");

        drop(client);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_flight_dir_flag_is_threaded_through() {
        let dir = std::env::temp_dir().join("emprof-cli-flight-dir-flag");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(&argv(&format!(
            "serve --addr 127.0.0.1:0 --flight-dir {} --duration 1 --threads 2",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("served 0 connections"), "{out}");
        // Server::bind creates the flight directory eagerly.
        assert!(dir.is_dir(), "--flight-dir was not passed to ServeConfig");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn push_unreachable_server_errors() {
        let dir = std::env::temp_dir().join("emprof-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sig = dir.join("unreachable-sig.csv");
        std::fs::write(&sig, "magnitude\n1.0\n2.0\n").unwrap();
        // A fresh ephemeral listener, immediately closed: nothing is there.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        assert!(matches!(
            run(&argv(&format!(
                "push {} --rate 1e6 --clock 1e9 --addr 127.0.0.1:{port}",
                sig.display()
            ))),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn simulate_with_fault_plan_reports_injections() {
        let out = run(&argv(
            "simulate microbench:64:4 --seed 5 --fault-plan chaos --fault-seed 7",
        ))
        .unwrap();
        assert!(out.contains("faults injected:"), "{out}");
        // The run still completes with a profile despite the chaos.
        assert!(out.contains("misses:"), "{out}");
        // A malformed plan is a usage error, not a runtime crash.
        assert!(matches!(
            run(&argv(
                "simulate microbench:64:4 --fault-plan dropout=banana"
            )),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn push_with_resilience_flags_and_faults() {
        let dir = std::env::temp_dir().join("emprof-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sig = dir.join("fault-sig.csv");
        run(&argv(&format!(
            "simulate microbench:64:4 --seed 5 --signal-out {}",
            sig.display()
        )))
        .unwrap();
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let out = run(&argv(&format!(
            "push {} --rate 40e6 --clock 1.008e9 --addr {addr} --frame 1000 \
             --timeout 5 --retries 2 --fault-plan corrupt=2e-3 --fault-seed 3",
            sig.display()
        )))
        .unwrap();
        assert!(out.contains("faults injected:"), "{out}");
        // corrupt=2e-3 over tens of thousands of samples injects NaN/inf
        // the server must reject rather than let them poison the windows.
        assert!(out.contains("server rejected"), "{out}");
        assert!(out.contains("misses:"), "{out}");
        server.shutdown();
    }

    #[test]
    fn record_replay_inspect_round_trip() {
        let dir = std::env::temp_dir().join("emprof-cli-journal-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sig = dir.join("rec-sig.csv");
        let journal = dir.join("journal");
        run(&argv(&format!(
            "simulate microbench:64:4 --seed 5 --signal-out {}",
            sig.display()
        )))
        .unwrap();

        let recorded = run(&argv(&format!(
            "record {} --journal {} --rate 40e6 --clock 1.008e9 --device cli --frame 4096",
            sig.display(),
            journal.display()
        )))
        .unwrap();
        assert!(recorded.contains("recorded"), "{recorded}");

        // Replay reproduces the direct profile of the same CSV.
        let replayed = run(&argv(&format!("replay --journal {}", journal.display()))).unwrap();
        let local = run(&argv(&format!(
            "profile {} --rate 40e6 --clock 1.008e9",
            sig.display()
        )))
        .unwrap();
        let miss_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("misses:"))
                .map(str::to_string)
                .expect("misses line")
        };
        assert_eq!(miss_line(&replayed), miss_line(&local));
        assert!(replayed.contains("matches batch"), "{replayed}");

        let inspected = run(&argv(&format!("journal-inspect {}", journal.display()))).unwrap();
        assert!(inspected.contains("healthy: yes"), "{inspected}");
        assert!(inspected.contains("seg-"), "{inspected}");

        // A torn tail is repaired, not fatal: chop bytes off the last
        // segment and replay again.
        let mut segs: Vec<_> = std::fs::read_dir(&journal)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        let last = segs.last().unwrap();
        let bytes = std::fs::read(last).unwrap();
        std::fs::write(last, &bytes[..bytes.len() - 3]).unwrap();
        let repaired = run(&argv(&format!("replay --journal {}", journal.display()))).unwrap();
        assert!(repaired.contains("recovery repaired"), "{repaired}");
        assert!(repaired.contains("matches batch"), "{repaired}");
    }

    #[test]
    fn replay_missing_journal_errors() {
        let missing = std::env::temp_dir().join("emprof-cli-missing-journal");
        let _ = std::fs::remove_dir_all(&missing);
        assert!(matches!(
            run(&argv(&format!("replay --journal {}", missing.display()))),
            Err(CliError::Runtime(_))
        ));
        assert!(
            !missing.exists(),
            "a failed replay must not conjure the directory"
        );
        assert!(matches!(
            run(&argv(&format!("journal-inspect {}", missing.display()))),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn serve_with_journal_reports_banner_dir() {
        let dir = std::env::temp_dir().join("emprof-cli-serve-journal");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(&argv(&format!(
            "serve --addr 127.0.0.1:0 --duration 1 --threads 2 --journal {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("served 0 connections"), "{out}");
        assert!(dir.exists(), "--journal must create the directory");
    }

    #[test]
    fn profile_missing_file_errors() {
        assert!(matches!(
            run(&argv("profile /nonexistent.csv --rate 1e6 --clock 1e9")),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn demo_reports_high_accuracy() {
        let out = run(&argv("demo")).unwrap();
        let pct: f64 = out
            .split('(')
            .nth(1)
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.parse().ok())
            .expect("accuracy in output");
        assert!(pct > 95.0, "demo accuracy {pct}: {out}");
    }
}
