//! RAII timing spans and the optional trace-event buffer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::registry::SpanSnapshot;

/// Aggregated timing of one named span across executions.
#[derive(Debug)]
pub struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    /// Empty statistics.
    pub const fn new() -> Self {
        SpanStat {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one completed execution.
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Completed executions.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A copy of the current statistics.
    pub fn snapshot(&self) -> SpanSnapshot {
        let count = self.count();
        SpanSnapshot {
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// Resets to empty.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

impl Default for SpanStat {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard returned by [`crate::span()`]; records the elapsed time into
/// the span's statistics (and the trace buffer, when tracing) on drop.
///
/// When telemetry is disabled the guard is inert — constructing and
/// dropping it is a single relaxed atomic load.
#[must_use = "a span guard measures until dropped; binding it to _ drops immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    stat: &'static SpanStat,
    start: Instant,
}

impl SpanGuard {
    /// An inert guard (telemetry disabled).
    pub(crate) fn disabled() -> Self {
        SpanGuard { active: None }
    }

    pub(crate) fn enabled(name: &'static str, stat: &'static SpanStat) -> Self {
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                stat,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let ns = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            active.stat.record_ns(ns);
            trace_record(active.name, active.start, ns);
        }
    }
}

/// One completed span occurrence, for timeline tracing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// Start offset from trace start, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Bounded buffer of completed span occurrences.
#[derive(Debug)]
pub struct TraceBuffer {
    epoch: Instant,
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    fn new(capacity: usize) -> Self {
        TraceBuffer {
            epoch: Instant::now(),
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let start_ns = start
            .saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.events.push(TraceEvent {
            name,
            start_ns,
            dur_ns,
        });
    }
}

static TRACING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static TRACE: Mutex<Option<TraceBuffer>> = Mutex::new(None);

/// Starts collecting individual span occurrences (up to `capacity`
/// events; later events are counted as dropped).
pub fn start_tracing(capacity: usize) {
    let mut guard = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(TraceBuffer::new(capacity));
    TRACING.store(true, Ordering::Relaxed);
}

/// Stops tracing and returns the collected events plus the number of
/// events dropped after the buffer filled.
pub fn stop_tracing() -> (Vec<TraceEvent>, u64) {
    TRACING.store(false, Ordering::Relaxed);
    let mut guard = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    match guard.take() {
        Some(buf) => (buf.events, buf.dropped),
        None => (Vec::new(), 0),
    }
}

fn trace_record(name: &'static str, start: Instant, dur_ns: u64) {
    if !TRACING.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(buf) = guard.as_mut() {
        buf.push(name, start, dur_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stat_aggregates() {
        let s = SpanStat::new();
        s.record_ns(10);
        s.record_ns(30);
        let snap = s.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.total_ns, 40);
        assert_eq!(snap.min_ns, 10);
        assert_eq!(snap.max_ns, 30);
        assert_eq!(snap.mean_ns(), 20.0);
    }

    #[test]
    fn empty_span_stat_snapshot_is_zero() {
        let snap = SpanStat::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min_ns, 0);
        assert_eq!(snap.mean_ns(), 0.0);
    }

    #[test]
    fn trace_buffer_caps_and_counts_drops() {
        let mut buf = TraceBuffer::new(2);
        let t = Instant::now();
        buf.push("a", t, 1);
        buf.push("b", t, 2);
        buf.push("c", t, 3);
        assert_eq!(buf.events.len(), 2);
        assert_eq!(buf.dropped, 1);
    }
}
