//! # emprof-par — the pipeline's parallel execution layer
//!
//! Captures run to tens of millions of samples (Section IV of the paper),
//! and every analysis stage — FIR band-limiting, resampling, moving
//! min/max normalization, dip detection — is embarrassingly parallel over
//! sample ranges *provided each worker sees enough context around its
//! range*. This crate supplies the three pieces the rest of the workspace
//! builds on:
//!
//! * [`Parallelism`] — a resolved worker count: explicit override,
//!   `EMPROF_THREADS` environment variable, or
//!   [`std::thread::available_parallelism`].
//! * [`pool::parallel_map`] — a scoped-thread fork/join map with atomic
//!   work claiming. The caller is one of the workers: it claims items
//!   alongside the threads it spawns, one fewer than the worker count.
//!   No queues persist between calls; worker lifetime is bounded by the
//!   call, so the crate needs no `unsafe` and no dependencies.
//! * [`chunk::ChunkPlan`] — splits a capture into near-equal chunks with
//!   an overlap *margin* on each side, sized by the caller from the
//!   normalization window and FIR group delay (see DESIGN.md §8 for the
//!   invariant).
//!
//! The contract every user of this crate upholds: **the parallel result
//! is bit-for-bit identical to the sequential result**, for any thread
//! count. Parallelism here changes wall-clock time, never output.
//!
//! # Example
//!
//! ```
//! use emprof_par::{chunk::ChunkPlan, pool, Parallelism};
//!
//! let signal: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
//! let par = Parallelism::new(4);
//! let plan = ChunkPlan::new(signal.len(), par.get(), 32);
//! let partial_sums = pool::parallel_map(par, plan.chunks(), |c| {
//!     signal[c.start..c.end].iter().sum::<f64>()
//! });
//! let total: f64 = partial_sums.iter().sum();
//! assert_eq!(total, signal.iter().sum::<f64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

pub mod chunk;
pub mod pool;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "EMPROF_THREADS";

/// A resolved, validated worker count (always at least 1).
///
/// `Parallelism` is the value threaded through the pipeline: the CLI
/// resolves one per invocation (flag > environment > hardware) and every
/// stage sizes its fork/join maps from it. A count of 1 means "run the
/// plain sequential code path" — callers use [`Parallelism::is_sequential`]
/// to skip chunking entirely, which is what `--threads 1` relies on for
/// bit-exact debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Exactly one worker: the sequential path.
    pub fn sequential() -> Self {
        Parallelism(1)
    }

    /// An explicit worker count; zero is clamped to 1.
    pub fn new(threads: usize) -> Self {
        Parallelism(threads.max(1))
    }

    /// The hardware's available parallelism (1 if it cannot be queried),
    /// read once per process: the query re-reads cgroup files, and
    /// [`Parallelism::resolve`] runs on every journal query.
    pub fn available() -> Self {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        Parallelism::new(*AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }))
    }

    /// Resolution used by the CLI: an explicit override wins, then a
    /// parsable `EMPROF_THREADS` environment variable, then the hardware.
    pub fn resolve(explicit: Option<usize>) -> Self {
        if let Some(n) = explicit {
            return Parallelism::new(n);
        }
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n > 0 {
                    return Parallelism::new(n);
                }
            }
        }
        Parallelism::available()
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }

    /// Whether this is the single-worker (plain sequential) setting.
    pub fn is_sequential(self) -> bool {
        self.0 == 1
    }
}

impl Default for Parallelism {
    /// Defaults to [`Parallelism::available`].
    fn default() -> Self {
        Parallelism::available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(Parallelism::new(0).get(), 1);
        assert!(Parallelism::new(0).is_sequential());
    }

    #[test]
    fn sequential_is_one() {
        assert!(Parallelism::sequential().is_sequential());
        assert_eq!(Parallelism::sequential().get(), 1);
    }

    #[test]
    fn available_is_at_least_one() {
        assert!(Parallelism::available().get() >= 1);
    }

    #[test]
    fn explicit_override_wins() {
        assert_eq!(Parallelism::resolve(Some(3)).get(), 3);
        assert_eq!(Parallelism::resolve(Some(0)).get(), 1);
    }
}
