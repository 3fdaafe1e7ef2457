//! # emprof-router — the sharded fleet tier in front of `emprof serve`
//!
//! EMPROF's end goal is continuous fleet-scale profiling: millions of
//! capture rigs streaming into a collection tier that scales
//! *horizontally*. This crate is that tier, in pure `std`:
//!
//! * [`ring`] — a consistent-hash ring (FNV-1a-64, replicated virtual
//!   nodes) mapping session keys onto backends with the classic
//!   minimal-movement guarantee: a topology change only moves the keys
//!   whose arc changed (`tests/prop_ring.rs` proves it).
//! * [`router`] — the `emprof router` front tier: speaks the existing
//!   wire protocol to clients, proxies frames to the owning backend,
//!   probes backend health over NODE_HEALTH frames with jittered
//!   exponential backoff, answers CLUSTER_STATE with the fleet table,
//!   and serves its own `/metrics`.
//!
//! ## The headline guarantee: routed equals direct
//!
//! Events collected through the router — across any schedule of
//! backend kills, drains, and rebalances — are **bit-for-bit
//! identical** to a single-node batch run on the same signal. The
//! mechanism is exactly-once session migration: when a backend dies,
//! the router replays the session's `emprof-store` journal into the
//! ring's next owner with the original sequence numbers, quiesces, and
//! seeds the protocol-v3 delivery cursor at the recovered value, so
//! the deterministic detector regenerates the identical event stream
//! and the client's seen-watermark dedups any re-offered suffix.
//! Enforced by `tests/router_equivalence.rs`, `tests/router_chaos.rs`,
//! and the `soak router` bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ring;
pub mod router;

pub use ring::{fnv1a_64, HashRing};
pub use router::{BackendSpec, Router, RouterConfig, RouterStatsSnapshot};
