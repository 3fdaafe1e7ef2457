//! Experiment harness for the EMPROF reproduction.
//!
//! Every table and figure of the paper's evaluation maps to one binary in
//! `src/bin/` (see DESIGN.md's experiment index); this library holds the
//! shared plumbing: the end-to-end run pipeline
//! (workload → simulator → EM capture → EMPROF), text-table rendering,
//! and ASCII series plotting for the "figures".
//!
//! The binaries print the same rows/series the paper reports; absolute
//! numbers differ (the substrate is a simulator plus a synthetic capture
//! rig, not the authors' testbed) but the shapes — who wins, by what
//! factor, where crossovers fall — are the reproduction targets recorded
//! in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;
pub mod runner;
pub mod soak;
pub mod table;

pub use runner::{em_run, power_run, EmRun};
