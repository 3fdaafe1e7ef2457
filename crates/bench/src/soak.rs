//! Plumbing shared by the soak binaries (`serve_soak`, `chaos_soak`,
//! `store_soak`, `query_soak`, `router_soak`): the capture rates and
//! detector configuration every session uses, the deterministic test
//! signal, the batch reference a served profile must equal, the client
//! retry settings, and the `--smoke` / `--seconds N` command line. Each
//! binary keeps its own scenario, checks and output.

use std::time::Duration;

use emprof_core::{Emprof, EmprofConfig, StallEvent};
use emprof_serve::ClientConfig;

/// Capture sample rate of every soak session, in Hz.
pub const FS: f64 = 40e6;

/// Profiled core clock of every soak session, in Hz.
pub const CLK: f64 = 1.0e9;

/// The detector configuration every soak session streams with.
pub fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

/// Client settings for soaks that sever connections: a generous read
/// timeout and fast, bounded reconnect backoff.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(100),
        max_reconnects: 8,
        ..ClientConfig::default()
    }
}

/// Deterministic busy/dip signal of `segments` segments (about 385
/// samples each), distinct per `(session, round)`, ending on a busy
/// tail so every dip is finalized.
pub fn build_signal(session: usize, round: usize, segments: usize) -> Vec<f64> {
    let mut s = Vec::new();
    for j in 0..segments {
        let x = (session * 7919 + round * 15485863 + j * 104729) as u64;
        let gap = 3 + (x % 601) as usize;
        let dip = ((x / 601) % 160) as usize;
        let dip_level = 0.3 + ((x / 96160) % 256) as f64 / 255.0 * 1.2;
        for k in 0..gap {
            s.push(5.0 + (((j * 131 + k) * 2654435761) % 997) as f64 / 3000.0);
        }
        for k in 0..dip {
            s.push(dip_level + (((j * 137 + k) * 2654435761) % 997) as f64 / 5000.0);
        }
    }
    s.extend(std::iter::repeat_n(5.0, 400));
    s
}

/// The batch detector's events on `signal`: what a served session of
/// the same samples must deliver.
pub fn batch_events(signal: &[f64]) -> Vec<StallEvent> {
    Emprof::new(config())
        .profile_magnitude(signal, FS, CLK)
        .events()
        .to_vec()
}

/// Whether `--smoke` (the CI-sized run) is on the command line.
pub fn smoke() -> bool {
    std::env::args().skip(1).any(|a| a == "--smoke")
}

/// The soak's time budget: `--seconds N` when given, otherwise
/// `smoke_secs` under `--smoke` and `full_secs` without it.
pub fn budget(smoke_secs: u64, full_secs: u64) -> Duration {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let secs = args
        .iter()
        .position(|a| a == "--seconds")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok());
    Duration::from_secs(secs.unwrap_or(if smoke() { smoke_secs } else { full_secs }))
}
