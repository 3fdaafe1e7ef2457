//! Command-line parsing (hand-rolled; the crate stays dependency-light).

use std::fmt;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the modeled devices.
    Devices,
    /// Simulate a workload, capture it, and profile the capture.
    Simulate(SimulateOpts),
    /// Profile an existing magnitude-CSV capture.
    Profile(ProfileOpts),
    /// Run a workload pipeline and report its telemetry.
    Stats(SimulateOpts),
    /// Run the end-to-end demonstration.
    Demo,
    /// Run the network profiling service.
    Serve(ServeOpts),
    /// Run the sharded fleet front tier over a set of serve backends.
    Router(RouterOpts),
    /// Stream a magnitude CSV to a running service.
    Push(PushOpts),
    /// Tail the finalized-event stream of a running service.
    Watch(WatchOpts),
    /// Live per-session dashboard over the METRICS poll.
    Top(TopOpts),
    /// Fetch flight-recorder dumps from a running service.
    DumpFlight(DumpFlightOpts),
    /// Persist a magnitude capture into a durable journal.
    Record(RecordOpts),
    /// Re-drive the detectors from a journaled capture.
    Replay(ReplayOpts),
    /// Dump the segment-level health of a journal directory.
    JournalInspect(InspectOpts),
    /// Range statistics over a journal directory or a running service.
    Query(QueryOpts),
    /// Print usage.
    Help,
}

/// Telemetry output options shared by the pipeline-running commands.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsOpts {
    /// Write a metrics snapshot as JSON lines to this path.
    pub metrics_out: Option<String>,
    /// Write individual span occurrences as JSON lines to this path.
    pub trace_out: Option<String>,
    /// Append a human-readable telemetry table to the report.
    pub verbose_stats: bool,
}

impl ObsOpts {
    /// Whether any telemetry output was requested.
    pub fn active(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.verbose_stats
    }

    /// Consumes `arg` if it is a telemetry flag; returns whether it was.
    fn take_flag<'a, I: Iterator<Item = &'a String>>(
        &mut self,
        arg: &str,
        it: &mut std::iter::Peekable<I>,
    ) -> Result<bool, CliError> {
        match arg {
            "--metrics" => self.metrics_out = Some(take_value(it, "--metrics")?),
            "--trace" => self.trace_out = Some(take_value(it, "--trace")?),
            "--verbose-stats" => self.verbose_stats = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Options of `emprof simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOpts {
    /// Workload spec string (e.g. `mcf`, `microbench:256:1`, `boot`).
    pub workload: String,
    /// Device model name (`alcatel`, `samsung`, `olimex`, `sesc`).
    pub device: String,
    /// Measurement bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// Length scale for scalable workloads.
    pub scale: f64,
    /// Capture/workload seed.
    pub seed: u64,
    /// Worker threads for the analysis pipeline (`None` = the
    /// `EMPROF_THREADS` environment variable, falling back to the
    /// hardware's available parallelism; `1` forces the sequential path).
    pub threads: Option<usize>,
    /// Write the captured magnitude signal to this CSV path.
    pub signal_out: Option<String>,
    /// Write the detected events to this CSV path.
    pub events_out: Option<String>,
    /// Fault-plan spec injected into the capture before analysis
    /// (`none`, `chaos`, or a `dropout=…,corrupt=…` spec string).
    pub fault_plan: Option<String>,
    /// Seed for the fault injector.
    pub fault_seed: u64,
    /// Run the detectors with online probe calibration enabled.
    pub adaptive: bool,
    /// Synthesize a second (memory-probe) capture and cross-validate
    /// the CPU-probe events against it before reporting.
    pub dual_probe: bool,
    /// Telemetry outputs.
    pub obs: ObsOpts,
}

impl Default for SimulateOpts {
    fn default() -> Self {
        SimulateOpts {
            workload: String::new(),
            device: "olimex".to_string(),
            bandwidth_hz: 40e6,
            scale: 0.1,
            seed: 1,
            threads: None,
            signal_out: None,
            events_out: None,
            fault_plan: None,
            fault_seed: 1,
            adaptive: false,
            dual_probe: false,
            obs: ObsOpts::default(),
        }
    }
}

/// Options of `emprof profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOpts {
    /// Path of the magnitude CSV to analyze.
    pub signal_path: String,
    /// Capture sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Profiled core clock in Hz.
    pub clock_hz: f64,
    /// Worker threads for the detector (`None` = environment/hardware
    /// default, `1` forces the sequential path).
    pub threads: Option<usize>,
    /// Write the detected events to this CSV path.
    pub events_out: Option<String>,
    /// Run the detector with online probe calibration enabled.
    pub adaptive: bool,
    /// Telemetry outputs.
    pub obs: ObsOpts,
}

/// Options of `emprof serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Ingest worker threads (`None` = the `EMPROF_THREADS` environment
    /// variable, falling back to the hardware's available parallelism).
    pub threads: Option<usize>,
    /// Per-session bounded queue capacity, in frames.
    pub queue_frames: usize,
    /// Shed oldest sample batches instead of blocking when a queue fills.
    pub shed: bool,
    /// Seconds of silence before a session is reaped and finalized.
    pub idle_timeout_secs: u64,
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Run for this many seconds, then drain and report (`None` = forever).
    pub duration_secs: Option<u64>,
    /// Send HEARTBEAT frames on quiet connections at this many seconds
    /// (`None` = no heartbeats).
    pub heartbeat_secs: Option<u64>,
    /// Chaos testing: fault-plan spec applied to every ingested batch.
    pub fault_plan: Option<String>,
    /// Base seed for the per-session chaos injectors.
    pub fault_seed: u64,
    /// Durability: journal every session under this directory so event
    /// delivery is exactly-once across server restarts.
    pub journal_dir: Option<String>,
    /// Serve Prometheus-format telemetry over HTTP at this address
    /// (`host:port`; port 0 picks an ephemeral port).
    pub metrics_addr: Option<String>,
    /// Where flight-recorder dumps land on session faults (falls back
    /// to the journal directory; with neither, dumps are skipped).
    pub flight_dir: Option<String>,
    /// Telemetry outputs.
    pub obs: ObsOpts,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            addr: "127.0.0.1:7700".to_string(),
            threads: None,
            queue_frames: 64,
            shed: false,
            idle_timeout_secs: 60,
            max_sessions: 256,
            duration_secs: None,
            heartbeat_secs: None,
            fault_plan: None,
            fault_seed: 1,
            journal_dir: None,
            metrics_addr: None,
            flight_dir: None,
            obs: ObsOpts::default(),
        }
    }
}

/// One backend of `emprof router`, parsed from `name=addr[=journal]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterBackend {
    /// Ring name (stable across address changes).
    pub name: String,
    /// `host:port` of the backend's session listener.
    pub addr: String,
    /// The backend's journal directory as visible to the router; unset
    /// disables journal handoff (migrations off this backend are lossy).
    pub journal_dir: Option<String>,
}

/// Options of `emprof router`.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterOpts {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// The backend fleet (at least one entry).
    pub backends: Vec<RouterBackend>,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub replicas: usize,
    /// Milliseconds between health probes per backend.
    pub probe_ms: u64,
    /// Consecutive probe failures before a backend is marked down.
    pub down_after: u32,
    /// Seconds of silence before a detached router session is forgotten.
    pub idle_timeout_secs: u64,
    /// Run for this many seconds, then report (`None` = forever).
    pub duration_secs: Option<u64>,
    /// Serve Prometheus-format telemetry over HTTP at this address.
    pub metrics_addr: Option<String>,
}

impl Default for RouterOpts {
    fn default() -> Self {
        RouterOpts {
            addr: "127.0.0.1:7800".to_string(),
            backends: Vec::new(),
            replicas: 64,
            probe_ms: 500,
            down_after: 2,
            idle_timeout_secs: 60,
            duration_secs: None,
            metrics_addr: None,
        }
    }
}

/// Options of `emprof record`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordOpts {
    /// Path of the magnitude CSV to persist.
    pub signal_path: String,
    /// Journal directory to create (stale contents are replaced).
    pub journal_dir: String,
    /// Capture sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Profiled core clock in Hz.
    pub clock_hz: f64,
    /// Device label stored in the journal's identity checkpoint.
    pub device: String,
    /// Samples per journaled batch record.
    pub frame: usize,
}

/// Options of `emprof replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOpts {
    /// Journal directory to replay.
    pub journal_dir: String,
    /// Write the replayed events to this CSV path.
    pub events_out: Option<String>,
}

/// Options of `emprof journal-inspect`.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectOpts {
    /// Journal directory to inspect (read-only).
    pub journal_dir: String,
}

/// Options of `emprof query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOpts {
    /// Journal directory to query locally (exclusive with `addr`).
    pub journal_dir: Option<String>,
    /// Running service (or router) to query remotely (exclusive with
    /// `journal_dir`).
    pub addr: Option<String>,
    /// Window start, inclusive, in sample indexes.
    pub t0: u64,
    /// Window end, inclusive, in sample indexes.
    pub t1: u64,
    /// Event-rate timeline bucket width in samples (0 = no timeline).
    pub bucket_samples: u64,
    /// Sessions to include (repeat `--session`; empty = all).
    pub sessions: Vec<u64>,
    /// Emit the result as one JSON document instead of the table.
    pub json: bool,
    /// Socket read timeout in seconds (remote only).
    pub timeout_secs: u64,
    /// Reconnect attempts per failed query (remote only, 0 disables).
    pub retries: u32,
}

impl Default for QueryOpts {
    fn default() -> Self {
        QueryOpts {
            journal_dir: None,
            addr: None,
            t0: 0,
            t1: u64::MAX,
            bucket_samples: 0,
            sessions: Vec::new(),
            json: false,
            timeout_secs: 60,
            retries: 5,
        }
    }
}

/// Options of `emprof push`.
#[derive(Debug, Clone, PartialEq)]
pub struct PushOpts {
    /// Path of the magnitude CSV to stream.
    pub signal_path: String,
    /// Service address.
    pub addr: String,
    /// Capture sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Profiled core clock in Hz.
    pub clock_hz: f64,
    /// Samples per SAMPLES batch sent to the service.
    pub frame: usize,
    /// Device label reported in the HELLO handshake.
    pub device: String,
    /// Write the served events to this CSV path.
    pub events_out: Option<String>,
    /// Socket read timeout in seconds.
    pub timeout_secs: u64,
    /// Reconnect-and-resume attempts per failed operation (0 disables).
    pub retries: u32,
    /// Fault-plan spec injected into the stream before it is sent
    /// (client-side chaos; the served events still match a local batch
    /// run on the same faulted signal).
    pub fault_plan: Option<String>,
    /// Seed for the fault injector.
    pub fault_seed: u64,
    /// Ask the service to run its detector with online calibration.
    pub adaptive: bool,
}

/// Options of `emprof watch`.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchOpts {
    /// Service address.
    pub addr: String,
    /// Milliseconds between polls.
    pub interval_ms: u64,
    /// Stop after this many polls (`None` = until interrupted).
    pub polls: Option<u64>,
    /// Socket read timeout in seconds.
    pub timeout_secs: u64,
    /// Reconnect attempts per failed poll (0 disables).
    pub retries: u32,
}

/// Options of `emprof top`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopOpts {
    /// Service addresses (repeat `--addr` for a merged fleet view).
    pub addrs: Vec<String>,
    /// Milliseconds between METRICS polls.
    pub interval_ms: u64,
    /// Print one dashboard frame and exit.
    pub once: bool,
    /// Stop after this many polls (`None` = until interrupted).
    pub polls: Option<u64>,
    /// Socket read timeout in seconds.
    pub timeout_secs: u64,
    /// Reconnect attempts per failed poll (0 disables).
    pub retries: u32,
}

impl Default for TopOpts {
    fn default() -> Self {
        TopOpts {
            addrs: vec!["127.0.0.1:7700".to_string()],
            interval_ms: 1_000,
            once: false,
            polls: None,
            timeout_secs: 60,
            retries: 5,
        }
    }
}

/// Options of `emprof dump-flight`.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpFlightOpts {
    /// Service address.
    pub addr: String,
    /// Session to dump (`0` = every registered session).
    pub session: u64,
    /// Write each dump to this directory instead of stdout.
    pub out_dir: Option<String>,
    /// Socket read timeout in seconds.
    pub timeout_secs: u64,
    /// Reconnect attempts per failed fetch (0 disables).
    pub retries: u32,
}

impl Default for DumpFlightOpts {
    fn default() -> Self {
        DumpFlightOpts {
            addr: "127.0.0.1:7700".to_string(),
            session: 0,
            out_dir: None,
            timeout_secs: 60,
            retries: 5,
        }
    }
}

/// Errors produced while parsing or executing a command.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// The arguments did not form a valid command.
    Usage(String),
    /// A runtime failure (I/O, bad CSV, unknown workload, ...).
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses a full argument list (excluding argv\[0\]).
///
/// # Errors
///
/// Returns [`CliError::Usage`] on unknown commands, unknown flags,
/// missing values, or unparsable numbers.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "devices" => expect_end(it).map(|()| Command::Devices),
        "demo" => expect_end(it).map(|()| Command::Demo),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "serve" => parse_serve(it).map(Command::Serve),
        "router" => parse_router(it).map(Command::Router),
        "push" => parse_push(it).map(Command::Push),
        "watch" => parse_watch(it).map(Command::Watch),
        "top" => parse_top(it).map(Command::Top),
        "dump-flight" => parse_dump_flight(it).map(Command::DumpFlight),
        "record" => parse_record(it).map(Command::Record),
        "replay" => parse_replay(it).map(Command::Replay),
        "journal-inspect" => parse_inspect(it).map(Command::JournalInspect),
        "query" => parse_query(it).map(Command::Query),
        "simulate" => parse_simulate(it, "simulate").map(Command::Simulate),
        "stats" => parse_simulate(it, "stats").map(|mut opts| {
            // The whole point of `stats` is the telemetry table.
            opts.obs.verbose_stats = true;
            Command::Stats(opts)
        }),
        "profile" => {
            let mut positional = Vec::new();
            let mut rate = None;
            let mut clock = None;
            let mut threads = None;
            let mut events_out = None;
            let mut adaptive = false;
            let mut obs = ObsOpts::default();
            let mut it = it.peekable();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--rate" => rate = Some(take_parsed(&mut it, "--rate")?),
                    "--clock" => clock = Some(take_parsed(&mut it, "--clock")?),
                    "--threads" => threads = Some(take_threads(&mut it)?),
                    "--adaptive" => adaptive = true,
                    "--events-out" => {
                        events_out = Some(take_value(&mut it, "--events-out")?)
                    }
                    flag if flag.starts_with("--") => {
                        if !obs.take_flag(flag, &mut it)? {
                            return Err(CliError::Usage(format!("unknown flag {flag}")));
                        }
                    }
                    _ => positional.push(arg.clone()),
                }
            }
            let signal_path = match positional.as_slice() {
                [p] => p.clone(),
                _ => {
                    return Err(CliError::Usage(
                        "profile requires exactly one signal CSV path".into(),
                    ))
                }
            };
            Ok(Command::Profile(ProfileOpts {
                signal_path,
                sample_rate_hz: rate
                    .ok_or_else(|| CliError::Usage("profile requires --rate".into()))?,
                clock_hz: clock
                    .ok_or_else(|| CliError::Usage("profile requires --clock".into()))?,
                threads,
                events_out,
                adaptive,
                obs,
            }))
        }
        other => Err(CliError::Usage(format!("unknown command {other}"))),
    }
}

/// Parses the shared `simulate`/`stats` argument form.
fn parse_simulate<'a, I: Iterator<Item = &'a String>>(
    it: I,
    cmd: &str,
) -> Result<SimulateOpts, CliError> {
    let mut opts = SimulateOpts::default();
    let mut positional = Vec::new();
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--device" => opts.device = take_value(&mut it, "--device")?,
            "--bandwidth" => opts.bandwidth_hz = take_parsed(&mut it, "--bandwidth")?,
            "--scale" => opts.scale = take_parsed(&mut it, "--scale")?,
            "--seed" => opts.seed = take_parsed(&mut it, "--seed")?,
            "--threads" => opts.threads = Some(take_threads(&mut it)?),
            "--signal-out" => opts.signal_out = Some(take_value(&mut it, "--signal-out")?),
            "--events-out" => opts.events_out = Some(take_value(&mut it, "--events-out")?),
            "--fault-plan" => opts.fault_plan = Some(take_value(&mut it, "--fault-plan")?),
            "--fault-seed" => opts.fault_seed = take_parsed(&mut it, "--fault-seed")?,
            "--adaptive" => opts.adaptive = true,
            "--dual-probe" => opts.dual_probe = true,
            flag if flag.starts_with("--") => {
                if !opts.obs.take_flag(flag, &mut it)? {
                    return Err(CliError::Usage(format!("unknown flag {flag}")));
                }
            }
            _ => positional.push(arg.clone()),
        }
    }
    match positional.as_slice() {
        [workload] => {
            opts.workload = workload.clone();
            Ok(opts)
        }
        [] => Err(CliError::Usage(format!("{cmd} requires a workload"))),
        _ => Err(CliError::Usage(format!("{cmd} takes one workload"))),
    }
}

/// Parses the `emprof serve` argument form.
fn parse_serve<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<ServeOpts, CliError> {
    let mut opts = ServeOpts::default();
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = take_value(&mut it, "--addr")?,
            "--threads" => opts.threads = Some(take_threads(&mut it)?),
            "--queue-frames" => {
                opts.queue_frames = take_parsed(&mut it, "--queue-frames")?;
                if opts.queue_frames == 0 {
                    return Err(CliError::Usage("--queue-frames must be at least 1".into()));
                }
            }
            "--shed" => opts.shed = true,
            "--idle-timeout" => {
                opts.idle_timeout_secs = take_parsed(&mut it, "--idle-timeout")?;
            }
            "--max-sessions" => {
                opts.max_sessions = take_parsed(&mut it, "--max-sessions")?;
                if opts.max_sessions == 0 {
                    return Err(CliError::Usage("--max-sessions must be at least 1".into()));
                }
            }
            "--duration" => opts.duration_secs = Some(take_parsed(&mut it, "--duration")?),
            "--heartbeat" => {
                let secs: u64 = take_parsed(&mut it, "--heartbeat")?;
                if secs == 0 {
                    return Err(CliError::Usage("--heartbeat must be at least 1".into()));
                }
                opts.heartbeat_secs = Some(secs);
            }
            "--fault-plan" => opts.fault_plan = Some(take_value(&mut it, "--fault-plan")?),
            "--fault-seed" => opts.fault_seed = take_parsed(&mut it, "--fault-seed")?,
            "--journal" => opts.journal_dir = Some(take_value(&mut it, "--journal")?),
            "--metrics-addr" => {
                opts.metrics_addr = Some(take_value(&mut it, "--metrics-addr")?);
            }
            "--flight-dir" => opts.flight_dir = Some(take_value(&mut it, "--flight-dir")?),
            flag => {
                if !(flag.starts_with("--") && opts.obs.take_flag(flag, &mut it)?) {
                    return Err(CliError::Usage(format!("serve: unknown argument {flag}")));
                }
            }
        }
    }
    Ok(opts)
}

/// Parses one `--backends` entry: `name=addr[=journal]` or a bare
/// `host:port` (auto-named `b<i>` by position).
fn parse_backend(entry: &str, index: usize) -> Result<RouterBackend, CliError> {
    let parts: Vec<&str> = entry.splitn(3, '=').collect();
    let backend = match parts.as_slice() {
        [addr] => RouterBackend {
            name: format!("b{index}"),
            addr: (*addr).to_string(),
            journal_dir: None,
        },
        [name, addr] => RouterBackend {
            name: (*name).to_string(),
            addr: (*addr).to_string(),
            journal_dir: None,
        },
        [name, addr, journal] => RouterBackend {
            name: (*name).to_string(),
            addr: (*addr).to_string(),
            journal_dir: Some((*journal).to_string()),
        },
        _ => unreachable!("splitn(3) yields 1..=3 parts"),
    };
    if backend.name.is_empty() || backend.addr.is_empty() {
        return Err(CliError::Usage(format!(
            "--backends entry {entry:?} needs name=addr[=journal] or host:port"
        )));
    }
    Ok(backend)
}

/// Parses the `emprof router` argument form.
fn parse_router<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<RouterOpts, CliError> {
    let mut opts = RouterOpts::default();
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = take_value(&mut it, "--addr")?,
            "--backends" => {
                let raw = take_value(&mut it, "--backends")?;
                for entry in raw.split(',').filter(|e| !e.is_empty()) {
                    opts.backends.push(parse_backend(entry, opts.backends.len())?);
                }
            }
            "--replicas" => {
                opts.replicas = take_parsed(&mut it, "--replicas")?;
                if opts.replicas == 0 {
                    return Err(CliError::Usage("--replicas must be at least 1".into()));
                }
            }
            "--probe-ms" => {
                opts.probe_ms = take_parsed(&mut it, "--probe-ms")?;
                if opts.probe_ms == 0 {
                    return Err(CliError::Usage("--probe-ms must be at least 1".into()));
                }
            }
            "--down-after" => {
                opts.down_after = take_parsed(&mut it, "--down-after")?;
                if opts.down_after == 0 {
                    return Err(CliError::Usage("--down-after must be at least 1".into()));
                }
            }
            "--idle-timeout" => {
                opts.idle_timeout_secs = take_parsed(&mut it, "--idle-timeout")?;
            }
            "--duration" => opts.duration_secs = Some(take_parsed(&mut it, "--duration")?),
            "--metrics-addr" => {
                opts.metrics_addr = Some(take_value(&mut it, "--metrics-addr")?);
            }
            other => {
                return Err(CliError::Usage(format!("router: unknown argument {other}")));
            }
        }
    }
    if opts.backends.is_empty() {
        return Err(CliError::Usage(
            "router requires --backends name=addr[=journal][,...]".into(),
        ));
    }
    Ok(opts)
}

/// Parses the `emprof record` argument form.
fn parse_record<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<RecordOpts, CliError> {
    let mut positional = Vec::new();
    let mut journal = None;
    let mut rate = None;
    let mut clock = None;
    let mut device = "record".to_string();
    let mut frame = 8_192usize;
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => journal = Some(take_value(&mut it, "--journal")?),
            "--rate" => rate = Some(take_parsed(&mut it, "--rate")?),
            "--clock" => clock = Some(take_parsed(&mut it, "--clock")?),
            "--device" => device = take_value(&mut it, "--device")?,
            "--frame" => {
                frame = take_parsed(&mut it, "--frame")?;
                if frame == 0 {
                    return Err(CliError::Usage("--frame must be at least 1".into()));
                }
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("record: unknown flag {flag}")));
            }
            _ => positional.push(arg.clone()),
        }
    }
    let signal_path = match positional.as_slice() {
        [p] => p.clone(),
        _ => {
            return Err(CliError::Usage(
                "record requires exactly one signal CSV path".into(),
            ))
        }
    };
    Ok(RecordOpts {
        signal_path,
        journal_dir: journal
            .ok_or_else(|| CliError::Usage("record requires --journal".into()))?,
        sample_rate_hz: rate
            .ok_or_else(|| CliError::Usage("record requires --rate".into()))?,
        clock_hz: clock.ok_or_else(|| CliError::Usage("record requires --clock".into()))?,
        device,
        frame,
    })
}

/// Parses the `emprof replay` argument form.
fn parse_replay<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<ReplayOpts, CliError> {
    let mut journal = None;
    let mut events_out = None;
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => journal = Some(take_value(&mut it, "--journal")?),
            "--events-out" => events_out = Some(take_value(&mut it, "--events-out")?),
            other => {
                return Err(CliError::Usage(format!("replay: unknown argument {other}")));
            }
        }
    }
    Ok(ReplayOpts {
        journal_dir: journal
            .ok_or_else(|| CliError::Usage("replay requires --journal".into()))?,
        events_out,
    })
}

/// Parses the `emprof journal-inspect` argument form.
fn parse_inspect<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<InspectOpts, CliError> {
    let mut positional = Vec::new();
    for arg in it {
        if arg.starts_with("--") {
            return Err(CliError::Usage(format!(
                "journal-inspect: unknown flag {arg}"
            )));
        }
        positional.push(arg.clone());
    }
    match positional.as_slice() {
        [dir] => Ok(InspectOpts {
            journal_dir: dir.clone(),
        }),
        _ => Err(CliError::Usage(
            "journal-inspect requires exactly one journal directory".into(),
        )),
    }
}

/// Parses the `emprof query` argument form.
fn parse_query<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<QueryOpts, CliError> {
    let mut opts = QueryOpts::default();
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => opts.journal_dir = Some(take_value(&mut it, "--journal")?),
            "--addr" => opts.addr = Some(take_value(&mut it, "--addr")?),
            "--t0" => opts.t0 = take_parsed(&mut it, "--t0")?,
            "--t1" => opts.t1 = take_parsed(&mut it, "--t1")?,
            "--bucket" => opts.bucket_samples = take_parsed(&mut it, "--bucket")?,
            "--session" => opts.sessions.push(take_parsed(&mut it, "--session")?),
            "--json" => opts.json = true,
            "--timeout" => {
                opts.timeout_secs = take_parsed(&mut it, "--timeout")?;
                if opts.timeout_secs == 0 {
                    return Err(CliError::Usage("--timeout must be at least 1".into()));
                }
            }
            "--retries" => opts.retries = take_parsed(&mut it, "--retries")?,
            other => {
                return Err(CliError::Usage(format!("query: unknown argument {other}")));
            }
        }
    }
    match (&opts.journal_dir, &opts.addr) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "query takes --journal DIR or --addr HOST:PORT, not both".into(),
        )),
        (None, None) => Err(CliError::Usage(
            "query requires --journal DIR or --addr HOST:PORT".into(),
        )),
        _ => Ok(opts),
    }
}

/// Parses the `emprof push` argument form.
fn parse_push<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<PushOpts, CliError> {
    let mut positional = Vec::new();
    let mut addr = "127.0.0.1:7700".to_string();
    let mut rate = None;
    let mut clock = None;
    let mut frame = 8_192usize;
    let mut device = "push".to_string();
    let mut events_out = None;
    let mut timeout_secs = 60u64;
    let mut retries = 5u32;
    let mut fault_plan = None;
    let mut fault_seed = 1u64;
    let mut adaptive = false;
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = take_value(&mut it, "--addr")?,
            "--adaptive" => adaptive = true,
            "--rate" => rate = Some(take_parsed(&mut it, "--rate")?),
            "--clock" => clock = Some(take_parsed(&mut it, "--clock")?),
            "--frame" => {
                frame = take_parsed(&mut it, "--frame")?;
                if frame == 0 {
                    return Err(CliError::Usage("--frame must be at least 1".into()));
                }
            }
            "--device" => device = take_value(&mut it, "--device")?,
            "--events-out" => events_out = Some(take_value(&mut it, "--events-out")?),
            "--timeout" => {
                timeout_secs = take_parsed(&mut it, "--timeout")?;
                if timeout_secs == 0 {
                    return Err(CliError::Usage("--timeout must be at least 1".into()));
                }
            }
            "--retries" => retries = take_parsed(&mut it, "--retries")?,
            "--fault-plan" => fault_plan = Some(take_value(&mut it, "--fault-plan")?),
            "--fault-seed" => fault_seed = take_parsed(&mut it, "--fault-seed")?,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("push: unknown flag {flag}")));
            }
            _ => positional.push(arg.clone()),
        }
    }
    let signal_path = match positional.as_slice() {
        [p] => p.clone(),
        _ => {
            return Err(CliError::Usage(
                "push requires exactly one signal CSV path".into(),
            ))
        }
    };
    Ok(PushOpts {
        signal_path,
        addr,
        sample_rate_hz: rate
            .ok_or_else(|| CliError::Usage("push requires --rate".into()))?,
        clock_hz: clock.ok_or_else(|| CliError::Usage("push requires --clock".into()))?,
        frame,
        device,
        events_out,
        timeout_secs,
        retries,
        fault_plan,
        fault_seed,
        adaptive,
    })
}

/// Parses the `emprof watch` argument form.
fn parse_watch<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<WatchOpts, CliError> {
    let mut opts = WatchOpts {
        addr: "127.0.0.1:7700".to_string(),
        interval_ms: 500,
        polls: None,
        timeout_secs: 60,
        retries: 5,
    };
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = take_value(&mut it, "--addr")?,
            "--interval-ms" => opts.interval_ms = take_parsed(&mut it, "--interval-ms")?,
            "--polls" => opts.polls = Some(take_parsed(&mut it, "--polls")?),
            "--timeout" => {
                opts.timeout_secs = take_parsed(&mut it, "--timeout")?;
                if opts.timeout_secs == 0 {
                    return Err(CliError::Usage("--timeout must be at least 1".into()));
                }
            }
            "--retries" => opts.retries = take_parsed(&mut it, "--retries")?,
            other => {
                return Err(CliError::Usage(format!("watch: unknown argument {other}")));
            }
        }
    }
    Ok(opts)
}

/// Parses the `emprof top` argument form.
fn parse_top<'a, I: Iterator<Item = &'a String>>(it: I) -> Result<TopOpts, CliError> {
    let mut opts = TopOpts::default();
    let mut it = it.peekable();
    let mut addrs = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addrs.push(take_value(&mut it, "--addr")?),
            "--interval-ms" => opts.interval_ms = take_parsed(&mut it, "--interval-ms")?,
            "--once" => opts.once = true,
            "--polls" => opts.polls = Some(take_parsed(&mut it, "--polls")?),
            "--timeout" => {
                opts.timeout_secs = take_parsed(&mut it, "--timeout")?;
                if opts.timeout_secs == 0 {
                    return Err(CliError::Usage("--timeout must be at least 1".into()));
                }
            }
            "--retries" => opts.retries = take_parsed(&mut it, "--retries")?,
            other => {
                return Err(CliError::Usage(format!("top: unknown argument {other}")));
            }
        }
    }
    if !addrs.is_empty() {
        opts.addrs = addrs;
    }
    Ok(opts)
}

/// Parses the `emprof dump-flight` argument form.
fn parse_dump_flight<'a, I: Iterator<Item = &'a String>>(
    it: I,
) -> Result<DumpFlightOpts, CliError> {
    let mut opts = DumpFlightOpts::default();
    let mut it = it.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => opts.addr = take_value(&mut it, "--addr")?,
            "--session" => opts.session = take_parsed(&mut it, "--session")?,
            "--out" => opts.out_dir = Some(take_value(&mut it, "--out")?),
            "--timeout" => {
                opts.timeout_secs = take_parsed(&mut it, "--timeout")?;
                if opts.timeout_secs == 0 {
                    return Err(CliError::Usage("--timeout must be at least 1".into()));
                }
            }
            "--retries" => opts.retries = take_parsed(&mut it, "--retries")?,
            other => {
                return Err(CliError::Usage(format!(
                    "dump-flight: unknown argument {other}"
                )));
            }
        }
    }
    Ok(opts)
}

fn expect_end<'a, I: Iterator<Item = &'a String>>(mut it: I) -> Result<(), CliError> {
    match it.next() {
        None => Ok(()),
        Some(extra) => Err(CliError::Usage(format!("unexpected argument {extra}"))),
    }
}

fn take_value<'a, I: Iterator<Item = &'a String>>(
    it: &mut std::iter::Peekable<I>,
    flag: &str,
) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
}

fn take_parsed<'a, I: Iterator<Item = &'a String>, T: std::str::FromStr>(
    it: &mut std::iter::Peekable<I>,
    flag: &str,
) -> Result<T, CliError> {
    let raw = take_value(it, flag)?;
    raw.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: cannot parse {raw}")))
}

/// Parses `--threads N`, rejecting 0 (there is no zero-worker pipeline).
fn take_threads<'a, I: Iterator<Item = &'a String>>(
    it: &mut std::iter::Peekable<I>,
) -> Result<usize, CliError> {
    let n: usize = take_parsed(it, "--threads")?;
    if n == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    Ok(n)
}

/// The usage text printed by `emprof help`.
pub const USAGE: &str = "\
emprof — memory profiling via EM emanations (reproduction of MICRO'18)

USAGE:
  emprof devices
      List the modeled devices and their parameters.

  emprof simulate <workload> [--device NAME] [--bandwidth HZ] [--scale F]
                  [--seed N] [--threads N] [--signal-out FILE]
                  [--events-out FILE] [--fault-plan SPEC] [--fault-seed N]
                  [--adaptive] [--dual-probe]
                  [--metrics FILE] [--trace FILE] [--verbose-stats]
      Simulate a workload on a device model, synthesize its EM capture,
      and profile it with EMPROF. Workloads: microbench:TM:CM, ammp,
      bzip2, crafty, equake, gzip, mcf, parser, twolf, vortex, vpr,
      boot, sensor-filter, block-transfer, table-crypto.

  emprof profile <signal.csv> --rate HZ --clock HZ [--threads N]
                 [--events-out FILE] [--adaptive] [--metrics FILE]
                 [--trace FILE] [--verbose-stats]
      Run the EMPROF detector on an externally captured magnitude signal
      (one-column CSV with a `magnitude` header).

  emprof stats <workload> [same flags as simulate]
      Run the simulate pipeline with telemetry on and print a report:
      per-stage wall time, cache hit/miss counters, streaming throughput.

  emprof demo
      End-to-end demonstration against known ground truth.

  emprof serve [--addr HOST:PORT] [--threads N] [--queue-frames N] [--shed]
               [--idle-timeout SECS] [--max-sessions N] [--duration SECS]
               [--heartbeat SECS] [--fault-plan SPEC] [--fault-seed N]
               [--journal DIR] [--metrics-addr HOST:PORT] [--metrics FILE]
               [--trace FILE] [--verbose-stats]
      Run the network profiling service: one streaming EMPROF detector per
      connected producer, a bounded ingest queue per session, and a worker
      pool draining them. A full queue blocks that producer's socket
      (explicit backpressure); --shed instead drops oldest sample batches
      and counts them. Defaults: 127.0.0.1:7700, 64 queued frames,
      60 s idle timeout, 256 sessions. --duration N drains after N seconds
      and prints the aggregate stats (omit it to serve until interrupted).
      --heartbeat N sends liveness frames on quiet connections every N
      seconds so clients with short timeouts survive idle periods. The
      idle timeout doubles as the resume window: a client that loses its
      connection can reconnect and resume its session within it.
      --journal DIR journals every session (samples, finalized events,
      delivery cursor) in append-only CRC-checked segments under DIR:
      event delivery becomes exactly-once across reply loss AND server
      restarts — bind recovers the journaled sessions and clients resume
      against the restarted process.
      --metrics-addr HOST:PORT additionally serves the same telemetry in
      Prometheus text exposition format over plain HTTP at
      GET /metrics (scrapable by any Prometheus-compatible collector).
      --flight-dir DIR writes flight-recorder dumps there on session
      faults (default: next to the journals; with neither flag, dumps
      stay poll-only).

  emprof router --backends NAME=ADDR[=JOURNAL][,...] [--addr HOST:PORT]
                [--replicas N] [--probe-ms MS] [--down-after N]
                [--idle-timeout SECS] [--duration SECS]
                [--metrics-addr HOST:PORT]
      Run the sharded fleet front tier: clients speak the normal wire
      protocol to the router (default 127.0.0.1:7800), which places each
      session on a backend via a consistent-hash ring (N virtual nodes
      per backend, default 64) and proxies its frames. Backends are
      health-probed every MS milliseconds (default 500) and marked down
      after N consecutive failures (default 2, with jittered exponential
      backoff between retries). When a backend dies, its sessions are
      migrated to the ring's next owner: with a =JOURNAL path (the
      backend's --journal directory as visible to the router), the
      journal is replayed into the new owner and delivery stays
      exactly-once — events through a kill are bit-for-bit what a
      single node would have delivered; without one the migration is
      best-effort and counted as lossy. CLUSTER_JOIN frames grow,
      drain, or remove backends at runtime. --metrics-addr serves
      GET /metrics with per-backend health, session counts, and
      migration counters.

  emprof record <signal.csv> --journal DIR --rate HZ --clock HZ
                [--device NAME] [--frame N]
      Persist a magnitude capture into a fresh durable journal at DIR
      (identity checkpoint + CRC-checked sample batches of N samples,
      default 8192). The journal replays byte-exactly with `emprof
      replay` on any machine.

  emprof replay --journal DIR [--events-out FILE]
      Re-drive the batch and streaming detectors from a journaled
      capture (tolerating torn tails: recovery truncates to the last
      valid record) and print the profile; the two detectors are
      cross-checked bit-for-bit. A journal holding already-finalized
      events (from a crashed `serve --journal`) is verified against
      the recomputed profile instead.

  emprof journal-inspect <dir>
      Dump per-segment health of a journal directory without modifying
      it: record counts by kind, valid vs on-disk bytes, torn tails,
      footer status (ok / missing / MISMATCH), the highest journaled
      event sequence, and layout anomalies such as duplicate or
      overlapping base indexes.

  emprof query (--journal DIR | --addr HOST:PORT) [--t0 N] [--t1 N]
               [--session ID]... [--bucket N] [--json]
               [--timeout SECS] [--retries N]
      Evaluate range statistics over journaled sessions: stall-latency
      percentiles (p50/p90/p99), event and degraded counts, refresh
      collisions, and (with --bucket) an event-rate timeline over
      [--t0, --t1] in sample indexes. `--journal` reads a directory
      directly (read-only, footer-indexed segment pruning); `--addr`
      asks a `serve --journal` node — or a router, which fans out and
      merges across its fleet. Results are bit-identical to
      recomputing the same statistic from a full `emprof replay`.

  emprof push <signal.csv> --rate HZ --clock HZ [--addr HOST:PORT]
              [--frame N] [--device NAME] [--events-out FILE]
              [--timeout SECS] [--retries N] [--fault-plan SPEC]
              [--fault-seed N] [--adaptive]
      Stream a magnitude CSV to a running service in N-sample batches
      (default 8192) and print the served profile summary. The events are
      bit-for-bit what `emprof profile` reports for the same file.
      Non-finite samples in the CSV are dropped (and counted) before
      streaming. On transport loss the push reconnects with exponential
      backoff and resumes, up to --retries times (default 5).

  emprof watch [--addr HOST:PORT] [--interval-ms MS] [--polls N]
               [--timeout SECS] [--retries N]
      Tail the service's finalized-event stream and aggregate stats,
      polling every MS milliseconds (default 500) until interrupted or,
      with --polls N, for a bounded number of polls. Transport losses
      are cured by reconnecting with the same cursor.

  emprof top [--addr HOST:PORT]... [--interval-ms MS] [--once] [--polls N]
             [--timeout SECS] [--retries N]
      Live fleet dashboard over the service's METRICS poll: one row per
      registered session (queue depth, samples/s, events delivered vs
      acknowledged, delivery lag, sheds, idle time) plus server totals
      and health, refreshed every MS milliseconds (default 1000).
      Repeat --addr to merge several nodes into one fleet view: rows
      gain a node column and a fleet-total summary line follows the
      per-node totals. Between polls the client computes sample/event
      deltas itself, so the rates shown are wire-derived, not
      server-trusted. --once prints a single frame and exits
      (scripting/smoke tests).

  emprof dump-flight [--addr HOST:PORT] [--session ID] [--out DIR]
                     [--timeout SECS] [--retries N]
      Fetch per-session flight-recorder rings from a running service as
      self-contained JSON documents (--session 0 or omitted = every
      registered session). With --out DIR each dump is written to
      DIR/flight-session-<id>.json; otherwise dumps go to stdout. The
      same dumps are written automatically next to the journals when a
      journaled session dies of a transport loss or session fault.

CALIBRATION (simulate / profile / push):
  --adaptive       run the detectors with the online probe-calibration
                   loop on: per-block SNR/dip-contrast tracking adapts the
                   detection threshold under probe drift and marks events
                   detected during degraded stretches with a confidence
                   bit. Off (the default) runs the static detector with
                   its fixed threshold. push forwards the choice to the
                   service in its HELLO config.
  --dual-probe     (simulate only) synthesize a second, memory-side probe
                   from the same workload and cross-validate every CPU
                   event against DRAM burst activity: LLC-miss stalls
                   without memory-probe corroboration are rejected as
                   single-probe artifacts.

FAULT INJECTION (simulate / serve / push):
  --fault-plan SPEC   deterministic signal-plane chaos: `none`, `chaos`,
                      or a spec like
                      `dropout=5e-4:8..64,corrupt=2e-3,gain=1e-4:0.5..1.5,
                      shift=5e-5:0.35:128..512` (rates per sample).
                      simulate/push corrupt the signal before analysis or
                      streaming; serve corrupts every ingested batch.
  --fault-seed N      injector seed (faults reproduce exactly per seed).

PARALLELISM (simulate / profile / stats / serve):
  --threads N      worker threads for the analysis pipeline (and the serve
                   ingest pool); the output is identical for every setting.
                   When the flag is absent the EMPROF_THREADS environment
                   variable is consulted, then the hardware's available
                   parallelism. --threads 1 forces the sequential path.

TELEMETRY (simulate / profile / stats / serve):
  --metrics FILE   write a metrics snapshot as JSON lines
  --trace FILE     write individual span occurrences as JSON lines
  --verbose-stats  append the human-readable telemetry table
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_devices_and_demo() {
        assert_eq!(parse(&argv("devices")).unwrap(), Command::Devices);
        assert_eq!(parse(&argv("demo")).unwrap(), Command::Demo);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_simulate_with_flags() {
        let cmd = parse(&argv(
            "simulate mcf --device alcatel --bandwidth 20e6 --scale 0.5 --seed 9 \
             --signal-out sig.csv --events-out ev.csv",
        ))
        .unwrap();
        match cmd {
            Command::Simulate(o) => {
                assert_eq!(o.workload, "mcf");
                assert_eq!(o.device, "alcatel");
                assert_eq!(o.bandwidth_hz, 20e6);
                assert_eq!(o.scale, 0.5);
                assert_eq!(o.seed, 9);
                assert_eq!(o.signal_out.as_deref(), Some("sig.csv"));
                assert_eq!(o.events_out.as_deref(), Some("ev.csv"));
            }
            other => panic!("expected simulate, got {other:?}"),
        }
    }

    #[test]
    fn simulate_defaults() {
        match parse(&argv("simulate boot")).unwrap() {
            Command::Simulate(o) => {
                assert_eq!(o.device, "olimex");
                assert_eq!(o.bandwidth_hz, 40e6);
                assert_eq!(o.threads, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_threads_flag() {
        match parse(&argv("simulate boot --threads 4")).unwrap() {
            Command::Simulate(o) => assert_eq!(o.threads, Some(4)),
            other => panic!("{other:?}"),
        }
        match parse(&argv("profile cap.csv --rate 40e6 --clock 1e9 --threads 1")).unwrap() {
            Command::Profile(o) => assert_eq!(o.threads, Some(1)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("simulate boot --threads 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("simulate boot --threads lots")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_profile() {
        match parse(&argv("profile cap.csv --rate 40e6 --clock 1.008e9")).unwrap() {
            Command::Profile(o) => {
                assert_eq!(o.signal_path, "cap.csv");
                assert_eq!(o.sample_rate_hz, 40e6);
                assert_eq!(o.clock_hz, 1.008e9);
                assert!(o.events_out.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_calibration_flags() {
        match parse(&argv("simulate mcf --adaptive --dual-probe")).unwrap() {
            Command::Simulate(o) => {
                assert!(o.adaptive);
                assert!(o.dual_probe);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("simulate mcf")).unwrap() {
            Command::Simulate(o) => {
                assert!(!o.adaptive);
                assert!(!o.dual_probe);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("profile cap.csv --rate 40e6 --clock 1e9 --adaptive")).unwrap() {
            Command::Profile(o) => assert!(o.adaptive),
            other => panic!("{other:?}"),
        }
        match parse(&argv("push cap.csv --rate 40e6 --clock 1e9 --adaptive")).unwrap() {
            Command::Push(o) => assert!(o.adaptive),
            other => panic!("{other:?}"),
        }
        // --dual-probe is a simulate-only flag.
        assert!(matches!(
            parse(&argv("profile cap.csv --rate 1 --clock 1 --dual-probe")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("push cap.csv --rate 1 --clock 1 --dual-probe")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_telemetry_flags() {
        match parse(&argv(
            "simulate mcf --metrics m.jsonl --trace t.jsonl --verbose-stats",
        ))
        .unwrap()
        {
            Command::Simulate(o) => {
                assert_eq!(o.obs.metrics_out.as_deref(), Some("m.jsonl"));
                assert_eq!(o.obs.trace_out.as_deref(), Some("t.jsonl"));
                assert!(o.obs.verbose_stats);
                assert!(o.obs.active());
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("profile cap.csv --rate 40e6 --clock 1e9 --metrics m.jsonl"))
            .unwrap()
        {
            Command::Profile(o) => {
                assert_eq!(o.obs.metrics_out.as_deref(), Some("m.jsonl"));
                assert!(!o.obs.verbose_stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_implies_verbose_stats() {
        match parse(&argv("stats microbench:64:4 --seed 2")).unwrap() {
            Command::Stats(o) => {
                assert_eq!(o.workload, "microbench:64:4");
                assert!(o.obs.verbose_stats);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse(&argv("stats")), Err(CliError::Usage(_))));
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(
            parse(&argv("frobnicate")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&argv("simulate")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("simulate a b")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("simulate mcf --bandwidth nope")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("simulate mcf --wat 3")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("profile cap.csv --rate 40e6")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("devices extra")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("profile --rate 1 --clock 1")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_serve() {
        assert_eq!(parse(&argv("serve")).unwrap(), Command::Serve(ServeOpts::default()));
        match parse(&argv(
            "serve --addr 0.0.0.0:9000 --threads 3 --queue-frames 16 --shed \
             --idle-timeout 5 --max-sessions 8 --duration 2 --verbose-stats",
        ))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.addr, "0.0.0.0:9000");
                assert_eq!(o.threads, Some(3));
                assert_eq!(o.queue_frames, 16);
                assert!(o.shed);
                assert_eq!(o.idle_timeout_secs, 5);
                assert_eq!(o.max_sessions, 8);
                assert_eq!(o.duration_secs, Some(2));
                assert!(o.obs.verbose_stats);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("serve --queue-frames 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("serve extra")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_push() {
        match parse(&argv(
            "push cap.csv --rate 40e6 --clock 1e9 --addr 10.0.0.2:7700 \
             --frame 4096 --device olimex --events-out ev.csv",
        ))
        .unwrap()
        {
            Command::Push(o) => {
                assert_eq!(o.signal_path, "cap.csv");
                assert_eq!(o.addr, "10.0.0.2:7700");
                assert_eq!(o.sample_rate_hz, 40e6);
                assert_eq!(o.clock_hz, 1e9);
                assert_eq!(o.frame, 4096);
                assert_eq!(o.device, "olimex");
                assert_eq!(o.events_out.as_deref(), Some("ev.csv"));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("push cap.csv --rate 40e6")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("push --rate 1 --clock 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("push cap.csv --rate 1 --clock 1 --frame 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_watch() {
        match parse(&argv("watch --addr 10.0.0.2:7700 --interval-ms 50 --polls 3")).unwrap()
        {
            Command::Watch(o) => {
                assert_eq!(o.addr, "10.0.0.2:7700");
                assert_eq!(o.interval_ms, 50);
                assert_eq!(o.polls, Some(3));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("watch")).unwrap() {
            Command::Watch(o) => {
                assert_eq!(o.addr, "127.0.0.1:7700");
                assert_eq!(o.interval_ms, 500);
                assert_eq!(o.polls, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("watch --wat")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_top() {
        assert_eq!(parse(&argv("top")).unwrap(), Command::Top(TopOpts::default()));
        match parse(&argv(
            "top --addr 10.0.0.2:7700 --interval-ms 250 --once --polls 3 \
             --timeout 5 --retries 1",
        ))
        .unwrap()
        {
            Command::Top(o) => {
                assert_eq!(o.addrs, vec!["10.0.0.2:7700".to_string()]);
                assert_eq!(o.interval_ms, 250);
                assert!(o.once);
                assert_eq!(o.polls, Some(3));
                assert_eq!(o.timeout_secs, 5);
                assert_eq!(o.retries, 1);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse(&argv("top --wat")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("top --timeout 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_top_fleet_addrs() {
        // Repeated --addr builds the merged fleet view in order.
        match parse(&argv("top --addr 10.0.0.2:7700 --addr 10.0.0.3:7700 --once")).unwrap() {
            Command::Top(o) => {
                assert_eq!(
                    o.addrs,
                    vec!["10.0.0.2:7700".to_string(), "10.0.0.3:7700".to_string()]
                );
                assert!(o.once);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_router() {
        match parse(&argv(
            "router --addr 0.0.0.0:7800 \
             --backends a=10.0.0.2:7700=/data/a,b=10.0.0.3:7700 \
             --replicas 128 --probe-ms 250 --down-after 3 --idle-timeout 30 \
             --duration 5 --metrics-addr 127.0.0.1:9101",
        ))
        .unwrap()
        {
            Command::Router(o) => {
                assert_eq!(o.addr, "0.0.0.0:7800");
                assert_eq!(o.backends.len(), 2);
                assert_eq!(o.backends[0].name, "a");
                assert_eq!(o.backends[0].addr, "10.0.0.2:7700");
                assert_eq!(o.backends[0].journal_dir.as_deref(), Some("/data/a"));
                assert_eq!(o.backends[1].name, "b");
                assert_eq!(o.backends[1].journal_dir, None);
                assert_eq!(o.replicas, 128);
                assert_eq!(o.probe_ms, 250);
                assert_eq!(o.down_after, 3);
                assert_eq!(o.idle_timeout_secs, 30);
                assert_eq!(o.duration_secs, Some(5));
                assert_eq!(o.metrics_addr.as_deref(), Some("127.0.0.1:9101"));
            }
            other => panic!("{other:?}"),
        }
        // Bare addresses are auto-named by position.
        match parse(&argv("router --backends 10.0.0.2:7700,10.0.0.3:7700")).unwrap() {
            Command::Router(o) => {
                assert_eq!(o.backends[0].name, "b0");
                assert_eq!(o.backends[1].name, "b1");
                assert_eq!(o.addr, "127.0.0.1:7800");
            }
            other => panic!("{other:?}"),
        }
        // A backend list is mandatory; malformed entries are rejected.
        assert!(matches!(parse(&argv("router")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("router --backends =1.2.3.4:5")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("router --backends a=1:1 --replicas 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("router --backends a=1:1 --wat")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_flight_dir() {
        match parse(&argv("serve --flight-dir /tmp/flights")).unwrap() {
            Command::Serve(o) => {
                assert_eq!(o.flight_dir.as_deref(), Some("/tmp/flights"));
                assert_eq!(o.journal_dir, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("serve --flight-dir")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_dump_flight() {
        assert_eq!(
            parse(&argv("dump-flight")).unwrap(),
            Command::DumpFlight(DumpFlightOpts::default())
        );
        match parse(&argv(
            "dump-flight --addr 10.0.0.2:7700 --session 3 --out /tmp/dumps --timeout 5",
        ))
        .unwrap()
        {
            Command::DumpFlight(o) => {
                assert_eq!(o.addr, "10.0.0.2:7700");
                assert_eq!(o.session, 3);
                assert_eq!(o.out_dir.as_deref(), Some("/tmp/dumps"));
                assert_eq!(o.timeout_secs, 5);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("dump-flight --session banana")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("dump-flight extra")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_metrics_addr() {
        match parse(&argv("serve --metrics-addr 127.0.0.1:9100")).unwrap() {
            Command::Serve(o) => {
                assert_eq!(o.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeOpts::default())
        );
        assert!(matches!(
            parse(&argv("serve --metrics-addr")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_documents_serving_and_threads_env() {
        assert!(USAGE.contains("emprof serve"));
        assert!(USAGE.contains("emprof router"));
        assert!(USAGE.contains("--backends"));
        assert!(USAGE.contains("--flight-dir"));
        assert!(USAGE.contains("emprof push"));
        assert!(USAGE.contains("emprof watch"));
        assert!(USAGE.contains("emprof top"));
        assert!(USAGE.contains("emprof dump-flight"));
        assert!(USAGE.contains("--metrics-addr"));
        assert!(USAGE.contains("GET /metrics"));
        assert!(USAGE.contains("EMPROF_THREADS"));
        assert!(USAGE.contains("--fault-plan"));
        assert!(USAGE.contains("--heartbeat"));
        assert!(USAGE.contains("--retries"));
        assert!(USAGE.contains("emprof record"));
        assert!(USAGE.contains("emprof replay"));
        assert!(USAGE.contains("emprof journal-inspect"));
        assert!(USAGE.contains("emprof query"));
        assert!(USAGE.contains("--journal DIR"));
        assert!(USAGE.contains("exactly-once"));
    }

    #[test]
    fn parses_query_flags() {
        match parse(&argv(
            "query --journal /tmp/j --t0 100 --t1 900 --session 1 --session 7 \
             --bucket 50 --json",
        ))
        .unwrap()
        {
            Command::Query(o) => {
                assert_eq!(o.journal_dir.as_deref(), Some("/tmp/j"));
                assert_eq!(o.addr, None);
                assert_eq!(o.t0, 100);
                assert_eq!(o.t1, 900);
                assert_eq!(o.sessions, vec![1, 7]);
                assert_eq!(o.bucket_samples, 50);
                assert!(o.json);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("query --addr 127.0.0.1:7070 --timeout 5 --retries 2")).unwrap() {
            Command::Query(o) => {
                assert_eq!(o.addr.as_deref(), Some("127.0.0.1:7070"));
                assert_eq!(o.journal_dir, None);
                assert_eq!(o.t0, 0);
                assert_eq!(o.t1, u64::MAX);
                assert!(o.sessions.is_empty());
                assert_eq!(o.timeout_secs, 5);
                assert_eq!(o.retries, 2);
                assert!(!o.json);
            }
            other => panic!("{other:?}"),
        }
        // Exactly one of --journal / --addr.
        assert!(matches!(parse(&argv("query")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("query --journal /tmp/j --addr 127.0.0.1:7070")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("query --journal /tmp/j --timeout 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("query --journal /tmp/j --bogus")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_journal_flags() {
        match parse(&argv("serve --journal /tmp/j")).unwrap() {
            Command::Serve(o) => assert_eq!(o.journal_dir.as_deref(), Some("/tmp/j")),
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "record cap.csv --journal /tmp/j --rate 40e6 --clock 1e9 \
             --device olimex --frame 4096",
        ))
        .unwrap()
        {
            Command::Record(o) => {
                assert_eq!(o.signal_path, "cap.csv");
                assert_eq!(o.journal_dir, "/tmp/j");
                assert_eq!(o.sample_rate_hz, 40e6);
                assert_eq!(o.clock_hz, 1e9);
                assert_eq!(o.device, "olimex");
                assert_eq!(o.frame, 4096);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("replay --journal /tmp/j --events-out ev.csv")).unwrap() {
            Command::Replay(o) => {
                assert_eq!(o.journal_dir, "/tmp/j");
                assert_eq!(o.events_out.as_deref(), Some("ev.csv"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("journal-inspect /tmp/j")).unwrap() {
            Command::JournalInspect(o) => assert_eq!(o.journal_dir, "/tmp/j"),
            other => panic!("{other:?}"),
        }
        // Required flags and positionals are enforced.
        assert!(matches!(
            parse(&argv("record cap.csv --rate 1 --clock 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("record --journal /tmp/j --rate 1 --clock 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("record cap.csv --journal /tmp/j --rate 1 --clock 1 --frame 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&argv("replay")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("journal-inspect")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("journal-inspect a b")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_fault_flags() {
        match parse(&argv("simulate mcf --fault-plan chaos --fault-seed 7")).unwrap() {
            Command::Simulate(o) => {
                assert_eq!(o.fault_plan.as_deref(), Some("chaos"));
                assert_eq!(o.fault_seed, 7);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "serve --heartbeat 2 --fault-plan dropout=1e-3:4..16 --fault-seed 3",
        ))
        .unwrap()
        {
            Command::Serve(o) => {
                assert_eq!(o.heartbeat_secs, Some(2));
                assert_eq!(o.fault_plan.as_deref(), Some("dropout=1e-3:4..16"));
                assert_eq!(o.fault_seed, 3);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("serve --heartbeat 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_resilience_flags() {
        match parse(&argv(
            "push cap.csv --rate 40e6 --clock 1e9 --timeout 5 --retries 2 \
             --fault-plan chaos --fault-seed 9",
        ))
        .unwrap()
        {
            Command::Push(o) => {
                assert_eq!(o.timeout_secs, 5);
                assert_eq!(o.retries, 2);
                assert_eq!(o.fault_plan.as_deref(), Some("chaos"));
                assert_eq!(o.fault_seed, 9);
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("push cap.csv --rate 1 --clock 1")).unwrap() {
            Command::Push(o) => {
                assert_eq!(o.timeout_secs, 60);
                assert_eq!(o.retries, 5);
                assert!(o.fault_plan.is_none());
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("watch --timeout 3 --retries 0")).unwrap() {
            Command::Watch(o) => {
                assert_eq!(o.timeout_secs, 3);
                assert_eq!(o.retries, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&argv("watch --timeout 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("push cap.csv --rate 1 --clock 1 --timeout 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn error_display() {
        let e = CliError::Usage("bad".into());
        assert!(e.to_string().contains("bad"));
    }
}
