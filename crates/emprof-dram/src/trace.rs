//! CAS activity trace: the memory-side observable.
//!
//! Section V-D of the paper validates EMPROF by simultaneously probing the
//! processor's EM emanations and the memory's activity (a passive probe on
//! the CAS pin). The controller records every column access and refresh
//! window here; the EM-synthesis crate renders the trace as the dotted
//! memory signal of Fig. 10.

/// The kind of memory activity an event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CasEventKind {
    /// A read column access (CAS assertion plus data burst).
    Read,
    /// A write column access.
    Write,
    /// A refresh window (fine-grained or maintenance burst).
    Refresh,
}

/// One timestamped memory-activity event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CasEvent {
    /// Start of the activity (ns).
    pub start_ns: f64,
    /// Duration of the activity (ns).
    pub duration_ns: f64,
    /// What the activity was.
    pub kind: CasEventKind,
}

impl CasEvent {
    /// End of the activity (ns).
    pub fn end_ns(&self) -> f64 {
        self.start_ns + self.duration_ns
    }
}

/// An append-only log of memory activity in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CasTrace {
    events: Vec<CasEvent>,
}

impl CasTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        CasTrace::default()
    }

    /// Appends an event. Events are expected in non-decreasing start order;
    /// out-of-order pushes are accepted but [`CasTrace::activity_envelope`]
    /// sorts internally so correctness is unaffected.
    pub fn push(&mut self, event: CasEvent) {
        self.events.push(event);
    }

    /// All recorded events.
    pub fn events(&self) -> &[CasEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events of a given kind.
    pub fn count_kind(&self, kind: CasEventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Renders the trace as a sampled activity envelope over
    /// `[0, horizon_ns)` at `sample_period_ns` resolution: each sample is
    /// the fraction of its period covered by memory activity, so the
    /// envelope lies in `[0, 1]`.
    ///
    /// This is the waveform a probe on the memory would see (before the
    /// receiver chain adds gain and noise).
    ///
    /// # Panics
    ///
    /// Panics if `sample_period_ns <= 0` or `horizon_ns < 0`.
    pub fn activity_envelope(&self, horizon_ns: f64, sample_period_ns: f64) -> Vec<f64> {
        assert!(
            sample_period_ns > 0.0,
            "sample period must be positive, got {sample_period_ns}"
        );
        assert!(horizon_ns >= 0.0, "horizon must be non-negative");
        let n = (horizon_ns / sample_period_ns).floor() as usize;
        let mut envelope = vec![0.0; n];
        let mut sorted: Vec<&CasEvent> = self.events.iter().collect();
        sorted.sort_by(|a, b| a.start_ns.partial_cmp(&b.start_ns).unwrap());
        for ev in sorted {
            let first = (ev.start_ns / sample_period_ns).floor().max(0.0) as usize;
            let last_ns = ev.end_ns().min(horizon_ns);
            if ev.start_ns >= horizon_ns {
                break;
            }
            let last = (last_ns / sample_period_ns).ceil() as usize;
            for (i, env) in envelope
                .iter_mut()
                .enumerate()
                .take(last.min(n))
                .skip(first)
            {
                let bin_start = i as f64 * sample_period_ns;
                let bin_end = bin_start + sample_period_ns;
                let overlap = (ev.end_ns().min(bin_end) - ev.start_ns.max(bin_start)).max(0.0);
                *env = (*env + overlap / sample_period_ns).min(1.0);
            }
        }
        envelope
    }
}

impl Extend<CasEvent> for CasTrace {
    fn extend<T: IntoIterator<Item = CasEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

impl FromIterator<CasEvent> for CasTrace {
    fn from_iter<T: IntoIterator<Item = CasEvent>>(iter: T) -> Self {
        CasTrace {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: f64, dur: f64, kind: CasEventKind) -> CasEvent {
        CasEvent {
            start_ns: start,
            duration_ns: dur,
            kind,
        }
    }

    #[test]
    fn counts_by_kind() {
        let trace: CasTrace = [
            ev(0.0, 10.0, CasEventKind::Read),
            ev(20.0, 10.0, CasEventKind::Write),
            ev(40.0, 100.0, CasEventKind::Refresh),
            ev(200.0, 10.0, CasEventKind::Read),
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.count_kind(CasEventKind::Read), 2);
        assert_eq!(trace.count_kind(CasEventKind::Write), 1);
        assert_eq!(trace.count_kind(CasEventKind::Refresh), 1);
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn envelope_covers_active_bins() {
        let mut trace = CasTrace::new();
        trace.push(ev(100.0, 50.0, CasEventKind::Read));
        let env = trace.activity_envelope(300.0, 10.0);
        assert_eq!(env.len(), 30);
        // Bins 10..15 fully covered.
        for (i, &e) in env.iter().enumerate() {
            if (10..15).contains(&i) {
                assert!((e - 1.0).abs() < 1e-12, "bin {i}: {e}");
            } else if !(9..=15).contains(&i) {
                assert_eq!(e, 0.0, "bin {i}");
            }
        }
    }

    #[test]
    fn envelope_partial_coverage() {
        let mut trace = CasTrace::new();
        trace.push(ev(5.0, 5.0, CasEventKind::Read)); // covers half of bin 0 (0..10)
        let env = trace.activity_envelope(20.0, 10.0);
        assert!((env[0] - 0.5).abs() < 1e-12);
        assert_eq!(env[1], 0.0);
    }

    #[test]
    fn envelope_clamps_overlapping_events() {
        let mut trace = CasTrace::new();
        trace.push(ev(0.0, 10.0, CasEventKind::Read));
        trace.push(ev(0.0, 10.0, CasEventKind::Write));
        let env = trace.activity_envelope(10.0, 10.0);
        assert_eq!(env[0], 1.0);
    }

    #[test]
    fn envelope_ignores_events_past_horizon() {
        let mut trace = CasTrace::new();
        trace.push(ev(1000.0, 10.0, CasEventKind::Read));
        let env = trace.activity_envelope(100.0, 10.0);
        assert!(env.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn empty_trace() {
        let trace = CasTrace::new();
        assert!(trace.is_empty());
        assert!(trace.activity_envelope(0.0, 10.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn zero_period_panics() {
        CasTrace::new().activity_envelope(100.0, 0.0);
    }
}
