//! The per-session flight recorder: a bounded ring of recent events.
//!
//! A [`FlightRecorder`] is the black box a long-lived session carries:
//! every lifecycle note (attach, detach, flush, fault, journal error)
//! and completed span lands in a fixed-capacity ring that keeps the
//! **most recent** events — when full, the oldest entry is evicted and
//! counted, so the tail of history survives however long the session
//! runs. On a session error, a transport loss, or an explicit dump
//! request, [`FlightRecorder::dump_json`] serializes the ring (stamped
//! with the session's trace id) for post-mortem analysis.
//!
//! Unlike the process-global metrics in [`crate::registry()`], flight
//! recorders are plain owned values: one per session, dropped with it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::sink::json_string;

/// One entry in a flight-recorder ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds from recorder creation to the event.
    pub at_ns: u64,
    /// Entry kind: `"note"` for lifecycle events, `"span"` for
    /// completed timing spans, `"error"` for failures.
    pub kind: &'static str,
    /// Short event label (e.g. a span name or `"transport_loss"`).
    pub label: String,
    /// Free-form detail (e.g. a duration, a frame count, an error).
    pub detail: String,
}

/// A bounded ring of recent [`FlightEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
    /// Events evicted to keep the ring within capacity.
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the `capacity` most recent events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
        }
    }

    /// The configured ring bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records a lifecycle note.
    pub fn note(&self, label: &str, detail: &str) {
        self.push("note", label, detail);
    }

    /// Records an error event.
    pub fn error(&self, label: &str, detail: &str) {
        self.push("error", label, detail);
    }

    /// Records a completed span occurrence.
    pub fn record_span(&self, name: &str, dur_ns: u64) {
        self.push("span", name, &format!("{dur_ns} ns"));
    }

    fn push(&self, kind: &'static str, label: &str, detail: &str) {
        let at_ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(FlightEvent {
            at_ns,
            kind,
            label: label.to_string(),
            detail: detail.to_string(),
        });
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events were evicted to honor the bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// A copy of the ring, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Serializes the ring as one JSON object:
    ///
    /// ```json
    /// {"type":"flight","session_id":3,"trace_id":"0x9e3779b97f4a7c15",
    ///  "reason":"transport_loss","capacity":256,"evicted":0,
    ///  "events":[{"at_ns":12,"kind":"note","label":"attach","detail":"gen 1"}]}
    /// ```
    ///
    /// Labels and details pass through full JSON string escaping, so
    /// hostile or binary-ish content cannot break the document.
    pub fn dump_json(&self, session_id: u64, trace_id: u64, reason: &str) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 64 + 128);
        out.push_str(&format!(
            "{{\"type\":\"flight\",\"session_id\":{session_id},\
             \"trace_id\":\"{trace_id:#018x}\",\"reason\":{},\
             \"capacity\":{},\"evicted\":{},\"events\":[",
            json_string(reason),
            self.capacity,
            self.evicted()
        ));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_ns\":{},\"kind\":{},\"label\":{},\"detail\":{}}}",
                e.at_ns,
                json_string(e.kind),
                json_string(&e.label),
                json_string(&e.detail)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_counts_evictions() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.note(&format!("e{i}"), "");
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.evicted(), 2);
        let labels: Vec<String> = fr.events().into_iter().map(|e| e.label).collect();
        assert_eq!(labels, ["e2", "e3", "e4"], "oldest must be evicted first");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let fr = FlightRecorder::new(0);
        fr.note("a", "");
        fr.note("b", "");
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.events()[0].label, "b");
    }

    #[test]
    fn timestamps_are_monotone() {
        let fr = FlightRecorder::new(8);
        fr.note("first", "");
        fr.record_span("work", 120);
        fr.error("boom", "it broke");
        let events = fr.events();
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(events[1].kind, "span");
        assert_eq!(events[2].kind, "error");
    }

    #[test]
    fn dump_json_is_escaped_and_stamped() {
        let fr = FlightRecorder::new(4);
        fr.note("quote\"newline\n", "back\\slash");
        let json = fr.dump_json(7, 0x9e37_79b9_7f4a_7c15, "cli");
        assert!(json.contains("\"session_id\":7"));
        assert!(json.contains("\"trace_id\":\"0x9e3779b97f4a7c15\""));
        assert!(json.contains("\"reason\":\"cli\""));
        assert!(json.contains("quote\\\"newline\\n"));
        assert!(json.contains("back\\\\slash"));
        // Structural sanity: balanced braces/brackets, even quote count.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let unescaped = json.replace("\\\"", "");
        assert_eq!(unescaped.matches('"').count() % 2, 0);
    }
}
