//! Command-line parsing (hand-rolled; the crate stays dependency-light).

use std::fmt;
use std::str::FromStr;

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
#[derive(Debug, Clone, PartialEq, Default)]
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

impl Default for RecordOpts {
    fn default() -> Self {
        RecordOpts {
            signal_path: String::new(),
            journal_dir: String::new(),
            sample_rate_hz: 0.0,
            clock_hz: 0.0,
            device: "record".to_string(),
            frame: 8_192,
        }
    }
}

/// Options of `emprof replay`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayOpts {
    /// Journal directory to replay.
    pub journal_dir: String,
    /// Write the replayed events to this CSV path.
    pub events_out: Option<String>,
}

/// Options of `emprof journal-inspect`.
#[derive(Debug, Clone, PartialEq, Default)]
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

impl Default for PushOpts {
    fn default() -> Self {
        PushOpts {
            signal_path: String::new(),
            addr: "127.0.0.1:7700".to_string(),
            sample_rate_hz: 0.0,
            clock_hz: 0.0,
            frame: 8_192,
            device: "push".to_string(),
            events_out: None,
            timeout_secs: 60,
            retries: 5,
            fault_plan: None,
            fault_seed: 1,
            adaptive: false,
        }
    }
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

impl Default for WatchOpts {
    fn default() -> Self {
        WatchOpts {
            addr: "127.0.0.1:7700".to_string(),
            interval_ms: 500,
            polls: None,
            timeout_secs: 60,
            retries: 5,
        }
    }
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
/// missing values, values a flag does not accept, and missing or extra
/// arguments.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, args)) = args.split_first() else {
        return Ok(Command::Help);
    };
    Ok(match cmd.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "devices" => read::<()>(cmd, args).map(|()| Command::Devices)?,
        "demo" => read::<()>(cmd, args).map(|()| Command::Demo)?,
        "simulate" => Command::Simulate(read(cmd, args)?),
        "stats" => {
            let mut opts: SimulateOpts = read(cmd, args)?;
            // The whole point of `stats` is the telemetry table.
            opts.obs.verbose_stats = true;
            Command::Stats(opts)
        }
        "profile" => Command::Profile(read(cmd, args)?),
        "serve" => Command::Serve(read(cmd, args)?),
        "router" => Command::Router(read(cmd, args)?),
        "push" => Command::Push(read(cmd, args)?),
        "watch" => Command::Watch(read(cmd, args)?),
        "top" => Command::Top(read(cmd, args)?),
        "dump-flight" => Command::DumpFlight(read(cmd, args)?),
        "record" => Command::Record(read(cmd, args)?),
        "replay" => Command::Replay(read(cmd, args)?),
        "journal-inspect" => Command::JournalInspect(read(cmd, args)?),
        "query" => {
            let opts: QueryOpts = read(cmd, args)?;
            if opts.journal_dir.is_some() == opts.addr.is_some() {
                return Err(CliError::Usage(
                    "query takes exactly one of --journal DIR or --addr HOST:PORT".into(),
                ));
            }
            Command::Query(opts)
        }
        other => return Err(CliError::Usage(format!("unknown command {other}"))),
    })
}

/// Reads `args` into a command's options, starting from their defaults.
fn read<O: Args>(cmd: &str, args: &[String]) -> Result<O, CliError> {
    let mut opts = O::default();
    opts.spec().read(cmd, args)?;
    Ok(opts)
}

/// An options struct the argument reader fills in.
trait Args: Default {
    /// The command's argument table over this struct's fields.
    fn spec(&mut self) -> Spec<'_>;
}

/// A command's argument table: its one positional argument (if it takes
/// one), its flags, and the flags it cannot do without.
#[derive(Default)]
struct Spec<'a> {
    positional: Option<(&'static str, &'a mut String)>,
    flags: Vec<(&'static str, Field<'a>)>,
    required: &'static [&'static str],
}

/// How a flag reads its argument, and the option field it sets.
enum Field<'a> {
    /// `--flag VALUE`: the value as given, or parsed as a number.
    Value(&'a mut dyn Slot),
    /// `--flag N`: a whole number that must be at least 1.
    AtLeast1(&'a mut dyn Slot),
    /// `--flag`: takes no value and sets its field.
    Switch(&'a mut bool),
    /// `--flag VALUE`, repeatable: the values, in order, replace the
    /// default list.
    Repeat(&'a mut dyn List),
}

impl Spec<'_> {
    /// The one argument loop every command goes through.
    fn read(mut self, cmd: &str, args: &[String]) -> Result<(), CliError> {
        let usage = |msg: String| CliError::Usage(format!("{cmd}: {msg}"));
        let mut seen = vec![false; self.flags.len()];
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                let (_, slot) = self
                    .positional
                    .take()
                    .ok_or_else(|| usage(format!("unexpected argument {arg}")))?;
                slot.clone_from(arg);
                continue;
            }
            let Some(i) = self.flags.iter().position(|(name, _)| name == arg) else {
                return Err(usage(format!("unknown flag {arg}")));
            };
            let first = !std::mem::replace(&mut seen[i], true);
            let (name, field) = &mut self.flags[i];
            let mut value = || {
                args.next()
                    .ok_or_else(|| usage(format!("{name} requires a value")))
            };
            let bad = |raw: &str, why: String| usage(format!("{name} {raw}: {why}"));
            let at_least_1 = matches!(field, Field::AtLeast1(_));
            match field {
                Field::Switch(on) => **on = true,
                Field::Value(slot) | Field::AtLeast1(slot) => {
                    let raw = value()?;
                    slot.set(raw).map_err(|why| bad(raw, why))?;
                    if at_least_1 && slot.is_zero() {
                        return Err(bad(raw, "must be at least 1".into()));
                    }
                }
                Field::Repeat(list) => {
                    let raw = value()?;
                    if first {
                        list.clear();
                    }
                    list.append(raw).map_err(|why| bad(raw, why))?;
                }
            }
        }
        let missing = |name: &str| CliError::Usage(format!("{cmd} requires {name}"));
        if let Some((name, _)) = self.positional {
            return Err(missing(name));
        }
        for (i, (name, field)) in self.flags.iter().enumerate() {
            let empty = matches!(field, Field::Repeat(list) if list.is_empty());
            if self.required.contains(name) && (!seen[i] || empty) {
                return Err(missing(name));
            }
        }
        Ok(())
    }
}

/// An option field a flag's value is parsed into.
trait Slot {
    /// Stores `raw`, or says why it is not a valid value.
    fn set(&mut self, raw: &str) -> Result<(), String>;
    /// Whether the stored value is zero (for [`Field::AtLeast1`]).
    fn is_zero(&self) -> bool;
}

/// `raw` parsed as a `T`, or why it is not one.
fn parsed<T: FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e: T::Err| e.to_string())
}

macro_rules! scalar_slots {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            fn set(&mut self, raw: &str) -> Result<(), String> {
                *self = parsed(raw)?;
                Ok(())
            }
            fn is_zero(&self) -> bool {
                *self == <$t>::default()
            }
        }
    )*};
}
scalar_slots!(String, f64, u64, usize, u32);

impl<T: Slot + FromStr> Slot for Option<T>
where
    T::Err: fmt::Display,
{
    fn set(&mut self, raw: &str) -> Result<(), String> {
        *self = Some(parsed(raw)?);
        Ok(())
    }
    fn is_zero(&self) -> bool {
        self.as_ref().is_some_and(T::is_zero)
    }
}

/// The list field of a repeatable flag.
trait List {
    /// Appends the item(s) `raw` names, or says why it names none.
    fn append(&mut self, raw: &str) -> Result<(), String>;
    fn clear(&mut self);
    fn is_empty(&self) -> bool;
}

impl<T: FromStr> List for Vec<T>
where
    T::Err: fmt::Display,
{
    fn append(&mut self, raw: &str) -> Result<(), String> {
        self.push(parsed(raw)?);
        Ok(())
    }
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn is_empty(&self) -> bool {
        Vec::is_empty(self)
    }
}

/// `--backends` takes a comma-separated list per occurrence: each entry
/// is `name=addr[=journal]`, or a bare `host:port` named `b<i>` by its
/// position in the whole list.
impl List for Vec<RouterBackend> {
    fn append(&mut self, raw: &str) -> Result<(), String> {
        for entry in raw.split(',').filter(|e| !e.is_empty()) {
            let parts: Vec<&str> = entry.splitn(3, '=').collect();
            let (name, addr, journal) = match parts[..] {
                [addr] => (format!("b{}", self.len()), addr, None),
                [name, addr] => (name.to_string(), addr, None),
                [name, addr, journal] => (name.to_string(), addr, Some(journal.to_string())),
                _ => unreachable!("splitn(3) yields 1..=3 parts"),
            };
            if name.is_empty() || addr.is_empty() {
                return Err(format!(
                    "entry {entry:?} needs name=addr[=journal] or host:port"
                ));
            }
            self.push(RouterBackend {
                name,
                addr: addr.to_string(),
                journal_dir: journal,
            });
        }
        Ok(())
    }
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn is_empty(&self) -> bool {
        Vec::is_empty(self)
    }
}

use Field::{AtLeast1, Repeat, Switch, Value};

/// Declares the argument table of a command's options struct: the field
/// its positional argument lands in (if it takes one), the flags it
/// cannot do without, and one `"--flag" => Kind(field)` entry per flag.
macro_rules! flag_table {
    (
        $opts:ty $(, positional $pos:literal => $pfield:ident)?
        $(, required [$($req:literal),*])?;
        $($name:literal => $kind:ident($($field:ident).+),)*
    ) => {
        impl Args for $opts {
            fn spec(&mut self) -> Spec<'_> {
                Spec {
                    positional: None $(.or(Some(($pos, &mut self.$pfield))))?,
                    flags: vec![$(($name, $kind(&mut self.$($field).+))),*],
                    required: &[$($($req),*)?],
                }
            }
        }
    };
}

// `devices` and `demo` take no arguments.
flag_table! { (); }

flag_table! {
    SimulateOpts, positional "<workload>" => workload;
    "--device" => Value(device),
    "--bandwidth" => Value(bandwidth_hz),
    "--scale" => Value(scale),
    "--seed" => Value(seed),
    "--threads" => AtLeast1(threads),
    "--signal-out" => Value(signal_out),
    "--events-out" => Value(events_out),
    "--fault-plan" => Value(fault_plan),
    "--fault-seed" => Value(fault_seed),
    "--adaptive" => Switch(adaptive),
    "--dual-probe" => Switch(dual_probe),
    "--metrics" => Value(obs.metrics_out),
    "--trace" => Value(obs.trace_out),
    "--verbose-stats" => Switch(obs.verbose_stats),
}

flag_table! {
    ProfileOpts, positional "<signal.csv>" => signal_path, required ["--rate", "--clock"];
    "--rate" => Value(sample_rate_hz),
    "--clock" => Value(clock_hz),
    "--threads" => AtLeast1(threads),
    "--events-out" => Value(events_out),
    "--adaptive" => Switch(adaptive),
    "--metrics" => Value(obs.metrics_out),
    "--trace" => Value(obs.trace_out),
    "--verbose-stats" => Switch(obs.verbose_stats),
}

flag_table! {
    ServeOpts;
    "--addr" => Value(addr),
    "--threads" => AtLeast1(threads),
    "--queue-frames" => AtLeast1(queue_frames),
    "--shed" => Switch(shed),
    "--idle-timeout" => AtLeast1(idle_timeout_secs),
    "--max-sessions" => AtLeast1(max_sessions),
    "--duration" => Value(duration_secs),
    "--heartbeat" => AtLeast1(heartbeat_secs),
    "--fault-plan" => Value(fault_plan),
    "--fault-seed" => Value(fault_seed),
    "--journal" => Value(journal_dir),
    "--metrics-addr" => Value(metrics_addr),
    "--flight-dir" => Value(flight_dir),
    "--metrics" => Value(obs.metrics_out),
    "--trace" => Value(obs.trace_out),
    "--verbose-stats" => Switch(obs.verbose_stats),
}

flag_table! {
    RouterOpts, required ["--backends"];
    "--addr" => Value(addr),
    "--backends" => Repeat(backends),
    "--replicas" => AtLeast1(replicas),
    "--probe-ms" => AtLeast1(probe_ms),
    "--down-after" => AtLeast1(down_after),
    "--idle-timeout" => AtLeast1(idle_timeout_secs),
    "--duration" => Value(duration_secs),
    "--metrics-addr" => Value(metrics_addr),
}

flag_table! {
    RecordOpts, positional "<signal.csv>" => signal_path,
    required ["--journal", "--rate", "--clock"];
    "--journal" => Value(journal_dir),
    "--rate" => Value(sample_rate_hz),
    "--clock" => Value(clock_hz),
    "--device" => Value(device),
    "--frame" => AtLeast1(frame),
}

flag_table! {
    ReplayOpts, required ["--journal"];
    "--journal" => Value(journal_dir),
    "--events-out" => Value(events_out),
}

flag_table! {
    InspectOpts, positional "<dir>" => journal_dir;
}

flag_table! {
    QueryOpts;
    "--journal" => Value(journal_dir),
    "--addr" => Value(addr),
    "--t0" => Value(t0),
    "--t1" => Value(t1),
    "--bucket" => Value(bucket_samples),
    "--session" => Repeat(sessions),
    "--json" => Switch(json),
    "--timeout" => AtLeast1(timeout_secs),
    "--retries" => Value(retries),
}

flag_table! {
    PushOpts, positional "<signal.csv>" => signal_path, required ["--rate", "--clock"];
    "--addr" => Value(addr),
    "--rate" => Value(sample_rate_hz),
    "--clock" => Value(clock_hz),
    "--frame" => AtLeast1(frame),
    "--device" => Value(device),
    "--events-out" => Value(events_out),
    "--timeout" => AtLeast1(timeout_secs),
    "--retries" => Value(retries),
    "--fault-plan" => Value(fault_plan),
    "--fault-seed" => Value(fault_seed),
    "--adaptive" => Switch(adaptive),
}

flag_table! {
    WatchOpts;
    "--addr" => Value(addr),
    "--interval-ms" => Value(interval_ms),
    "--polls" => Value(polls),
    "--timeout" => AtLeast1(timeout_secs),
    "--retries" => Value(retries),
}

flag_table! {
    TopOpts;
    "--addr" => Repeat(addrs),
    "--interval-ms" => Value(interval_ms),
    "--once" => Switch(once),
    "--polls" => Value(polls),
    "--timeout" => AtLeast1(timeout_secs),
    "--retries" => Value(retries),
}

flag_table! {
    DumpFlightOpts;
    "--addr" => Value(addr),
    "--session" => Value(session),
    "--out" => Value(out_dir),
    "--timeout" => AtLeast1(timeout_secs),
    "--retries" => Value(retries),
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
               [--journal DIR] [--metrics-addr HOST:PORT] [--flight-dir DIR]
               [--metrics FILE] [--trace FILE] [--verbose-stats]
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
                      `probe-walk` (slow downward probe-gain drift), or a spec like
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
        match parse(&argv(
            "profile cap.csv --rate 40e6 --clock 1e9 --metrics m.jsonl",
        ))
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
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeOpts::default())
        );
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
            parse(&argv("serve --idle-timeout 0")),
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
        match parse(&argv(
            "watch --addr 10.0.0.2:7700 --interval-ms 50 --polls 3",
        ))
        .unwrap()
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
        assert_eq!(
            parse(&argv("top")).unwrap(),
            Command::Top(TopOpts::default())
        );
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
        match parse(&argv(
            "top --addr 10.0.0.2:7700 --addr 10.0.0.3:7700 --once",
        ))
        .unwrap()
        {
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
            parse(&argv("router --backends a=1:1 --idle-timeout 0")),
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
            parse(&argv(
                "record cap.csv --journal /tmp/j --rate 1 --clock 1 --frame 0"
            )),
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

    /// Every command line of the corpus parses to the value, or fails
    /// with the usage error, recorded before the flag tables replaced
    /// the per-command parse loops. `--idle-timeout 0` is the one line
    /// that moved: it was accepted, and reaped every live session.
    #[test]
    fn parse_matches_the_recorded_corpus() {
        let corpus = include_str!("../tests/data/parse_parity.tsv");
        let mut checked = 0;
        for line in corpus.lines() {
            let mut fields = line.split('\t');
            let (kind, args) = (fields.next().unwrap(), fields.next().unwrap());
            let got = parse(&argv(args));
            match kind {
                "accept" => assert_eq!(
                    format!("{got:?}"),
                    format!("Ok({})", fields.next().unwrap()),
                    "{args}"
                ),
                "reject" => assert!(matches!(got, Err(CliError::Usage(_))), "{args}: {got:?}"),
                other => panic!("bad corpus line kind {other}"),
            }
            checked += 1;
        }
        assert!(checked > 400, "corpus has only {checked} lines");
    }

    /// A command's flag names, in table order.
    fn flag_names<O: Args>() -> Vec<&'static str> {
        O::default()
            .spec()
            .flags
            .iter()
            .map(|(name, _)| *name)
            .collect()
    }

    /// Each command's USAGE synopsis names exactly the flags of its
    /// table, and every synopsis belongs to a command with a table.
    #[test]
    fn usage_synopses_match_the_flag_tables() {
        let tables = [
            ("devices", flag_names::<()>()),
            ("demo", flag_names::<()>()),
            ("simulate", flag_names::<SimulateOpts>()),
            ("profile", flag_names::<ProfileOpts>()),
            ("serve", flag_names::<ServeOpts>()),
            ("router", flag_names::<RouterOpts>()),
            ("record", flag_names::<RecordOpts>()),
            ("replay", flag_names::<ReplayOpts>()),
            ("journal-inspect", flag_names::<InspectOpts>()),
            ("query", flag_names::<QueryOpts>()),
            ("push", flag_names::<PushOpts>()),
            ("watch", flag_names::<WatchOpts>()),
            ("top", flag_names::<TopOpts>()),
            ("dump-flight", flag_names::<DumpFlightOpts>()),
        ];
        // A synopsis is its `  emprof <cmd>` line plus the lines below
        // it indented deeper than the six-space description.
        let mut synopses: Vec<(String, String)> = Vec::new();
        let mut open = false;
        for line in USAGE.lines() {
            if let Some(rest) = line.strip_prefix("  emprof ") {
                let cmd = rest.split_whitespace().next().unwrap().to_string();
                synopses.push((cmd, rest.to_string()));
                open = true;
            } else if open && line.starts_with("       ") {
                synopses.last_mut().unwrap().1.push_str(line);
            } else {
                open = false;
            }
        }
        for (cmd, synopsis) in &synopses {
            if cmd == "stats" {
                assert!(synopsis.contains("[same flags as simulate]"), "{synopsis}");
                continue;
            }
            let Some((_, table)) = tables.iter().find(|(name, _)| name == cmd) else {
                panic!("USAGE documents `{cmd}`, which has no flag table here");
            };
            let mut named: Vec<&str> = synopsis
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|word| word.starts_with("--"))
                .collect();
            named.sort_unstable();
            named.dedup();
            let mut declared = table.clone();
            declared.sort_unstable();
            assert_eq!(named, declared, "`emprof {cmd}` synopsis vs its flag table");
        }
        for (cmd, _) in &tables {
            assert!(
                synopses.iter().any(|(name, _)| name == cmd),
                "`{cmd}` has no USAGE synopsis"
            );
        }
    }

    #[test]
    fn error_display() {
        let e = CliError::Usage("bad".into());
        assert!(e.to_string().contains("bad"));
    }
}
