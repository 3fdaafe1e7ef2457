//! Library backing the `emprof` command-line tool.
//!
//! The binary is a thin wrapper over [`run`]; all command parsing and
//! execution lives here so it can be tested without spawning processes.
//! `emprof help` prints every command and its flags.
//!
//! Workloads: `microbench:TM:CM`, the SPEC-like names (`ammp`, `bzip2`,
//! `crafty`, `equake`, `gzip`, `mcf`, `parser`, `twolf`, `vortex`,
//! `vpr`), `boot`, and the IoT kernels (`sensor-filter`,
//! `block-transfer`, `table-crypto`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commands;
mod opts;

pub use commands::run;
pub use opts::{CliError, Command, ProfileOpts, PushOpts, ServeOpts, SimulateOpts, WatchOpts};
