//! # emprof-obs — tracing, metrics, and pipeline introspection
//!
//! Zero-dependency (pure `std`) observability for the EMPROF stack: the
//! profiler observes a memory hierarchy from the outside, and this crate
//! lets us observe the profiler itself — per-stage wall time, cache
//! hit/miss counters from the simulator, streaming throughput — without
//! `println!` archaeology.
//!
//! Three layers:
//!
//! * **Spans** — RAII guards timing a named stage ([`span!`]); aggregated
//!   per name (count/total/min/max) and optionally recorded individually
//!   into a trace buffer ([`span::start_tracing`]).
//! * **Metrics** — lock-free [`metrics::Counter`]s, [`metrics::Gauge`]s,
//!   windowed-rate [`metrics::Meter`]s, and base-2 log-scale
//!   [`metrics::LogHistogram`]s (with `p50`/`p90`/`p99` quantile
//!   estimates), registered by name.
//! * **Sinks** — a snapshot of everything can be written through a
//!   [`sink::TelemetrySink`]: JSON-lines for machines, aligned tables for
//!   humans, or nothing. [`prom::encode_snapshot`] renders the same
//!   snapshot in Prometheus text exposition format for scraping.
//!
//! Alongside the process-global registry, [`flight::FlightRecorder`] is a
//! per-session black box: a bounded ring of recent lifecycle events and
//! spans, dumped as JSON on faults for post-mortem analysis.
//!
//! ## Cost model
//!
//! Telemetry is **off by default**. Every instrumentation macro begins
//! with a single relaxed atomic load ([`is_enabled`]); when disabled, that
//! load is the entire cost — no allocation, no lock, no clock read (see
//! `benches/obs_overhead.rs` in the bench crate). When enabled, each
//! macro caches its registry handle in a function-local `OnceLock`, so
//! steady-state recording is one or two relaxed atomic RMWs.
//!
//! ## Example
//!
//! ```
//! use emprof_obs as obs;
//!
//! obs::reset();
//! obs::enable();
//! {
//!     let _stage = obs::span!("detect.normalize");
//!     obs::counter_add!("detect.samples", 1024);
//!     obs::gauge_set!("stream.buffer_samples", 40.0);
//!     obs::histogram_record!("detect.event_width_samples", 12);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("detect.samples"), Some(1024));
//! assert_eq!(snap.span("detect.normalize").unwrap().count, 1);
//! obs::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod prom;
pub mod registry;
pub mod sink;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use flight::{FlightEvent, FlightRecorder};
pub use registry::{HistogramSnapshot, MeterSnapshot, Registry, Snapshot, SpanSnapshot};
pub use sink::{JsonLinesSink, NullSink, PrettyTableSink, TelemetrySink};
pub use span::SpanGuard;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is being recorded. One relaxed atomic load — this is
/// the fast path every instrumentation site takes when disabled.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry recording on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns telemetry recording off (process-wide).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// The process-wide metric registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// A point-in-time copy of every recorded metric.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Zeroes every metric (handles cached by instrumentation sites stay
/// valid). Call between runs that must not see each other's counts.
pub fn reset() {
    registry().reset();
}

/// Starts timing the named span; recording happens when the returned
/// guard drops. Prefer the [`span!`] macro, which caches the registry
/// lookup.
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::enabled(name, registry().span_stat(name))
}

#[doc(hidden)]
pub use std::sync::OnceLock as __OnceLock;

/// Times the enclosing scope (or a bound scope) under a static name:
/// `let _g = obs::span!("detect.normalize");`
///
/// Near-zero cost when telemetry is disabled; one cached-handle timing
/// when enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        if $crate::is_enabled() {
            static __STAT: $crate::__OnceLock<&'static $crate::span::SpanStat> =
                $crate::__OnceLock::new();
            let stat = *__STAT.get_or_init(|| $crate::registry().span_stat($name));
            $crate::SpanGuard::__enabled_for_macro($name, stat)
        } else {
            $crate::SpanGuard::__disabled_for_macro()
        }
    }};
}

impl SpanGuard {
    #[doc(hidden)]
    pub fn __enabled_for_macro(name: &'static str, stat: &'static span::SpanStat) -> Self {
        SpanGuard::enabled(name, stat)
    }

    #[doc(hidden)]
    pub fn __disabled_for_macro() -> Self {
        SpanGuard::disabled()
    }
}

/// Adds to a named counter: `obs::counter_add!("sim.cache.llc.miss", n);`
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {{
        if $crate::is_enabled() {
            static __C: $crate::__OnceLock<&'static $crate::metrics::Counter> =
                $crate::__OnceLock::new();
            __C.get_or_init(|| $crate::registry().counter($name))
                .add($n as u64);
        }
    }};
}

/// Sets a named gauge: `obs::gauge_set!("stream.buffer_samples", v);`
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {{
        if $crate::is_enabled() {
            static __G: $crate::__OnceLock<&'static $crate::metrics::Gauge> =
                $crate::__OnceLock::new();
            __G.get_or_init(|| $crate::registry().gauge($name))
                .set($v as f64);
        }
    }};
}

/// Records into a named log-histogram:
/// `obs::histogram_record!("detect.event_width_samples", w);`
#[macro_export]
macro_rules! histogram_record {
    ($name:expr, $v:expr) => {{
        if $crate::is_enabled() {
            static __H: $crate::__OnceLock<&'static $crate::metrics::LogHistogram> =
                $crate::__OnceLock::new();
            __H.get_or_init(|| $crate::registry().histogram($name))
                .record($v as u64);
        }
    }};
}

/// Marks a named meter (count + windowed rate):
/// `obs::meter_mark!("meter.samples_in", batch.len());`
#[macro_export]
macro_rules! meter_mark {
    ($name:expr, $n:expr) => {{
        if $crate::is_enabled() {
            static __M: $crate::__OnceLock<&'static $crate::metrics::Meter> =
                $crate::__OnceLock::new();
            __M.get_or_init(|| $crate::registry().meter($name))
                .mark($n as u64);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests below mutate process-global state; serialize them.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_macros_record_nothing() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        disable();
        {
            let _s = span!("test.disabled_span");
            counter_add!("test.disabled_counter", 5);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.disabled_counter"), None);
        assert!(snap.span("test.disabled_span").is_none());
    }

    #[test]
    fn enabled_macros_record_and_reset_clears() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        {
            let _s = span!("test.span");
            counter_add!("test.counter", 2);
            counter_add!("test.counter", 3);
            gauge_set!("test.gauge", 1.5);
            histogram_record!("test.hist", 100);
            meter_mark!("test.meter", 4);
        }
        let snap = snapshot();
        disable();
        assert_eq!(snap.counter("test.counter"), Some(5));
        assert_eq!(snap.gauge("test.gauge"), Some(1.5));
        assert_eq!(snap.meter("test.meter").unwrap().count, 4);
        let span = snap.span("test.span").expect("span recorded");
        assert_eq!(span.count, 1);
        reset();
        assert_eq!(snapshot().counter("test.counter"), Some(0));
    }

    #[test]
    fn tracing_collects_span_occurrences() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        span::start_tracing(16);
        for _ in 0..3 {
            let _s = span!("test.traced");
        }
        let (events, dropped) = span::stop_tracing();
        disable();
        assert_eq!(events.iter().filter(|e| e.name == "test.traced").count(), 3);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        counter_add!("test.concurrent", 1);
                    }
                });
            }
        });
        let snap = snapshot();
        disable();
        assert_eq!(snap.counter("test.concurrent"), Some(40_000));
    }
}
