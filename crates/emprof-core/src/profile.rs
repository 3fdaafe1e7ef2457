//! Profiling results: stall events and summary statistics.

use crate::histogram::Histogram;

/// Classification of a detected stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// An ordinary LLC-miss-induced stall (~hundreds of cycles).
    Normal,
    /// A stall long enough to be a DRAM-refresh collision (Fig. 5);
    /// the paper counts and accounts for these separately.
    RefreshCollision,
}

/// How much the detector trusts a reported event.
///
/// Events are `Degraded` when the probe signal was compromised while
/// they were detected: either the event touches a collapsed dropout gap
/// (non-finite samples were removed under it), or the online calibration
/// loop's confidence state machine was in the degraded state (noise span
/// too close to the dip contrast — DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confidence {
    /// Detected under healthy probe conditions.
    High,
    /// Detected while the probe signal was compromised; position and
    /// duration may be inaccurate.
    Degraded,
}

/// One detected LLC-miss-induced processor stall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallEvent {
    /// First sample of the dip (after edge refinement).
    pub start_sample: usize,
    /// One past the last sample of the dip.
    pub end_sample: usize,
    /// Measured stall latency in core cycles (Δt × f_clk, Section III-A).
    pub duration_cycles: f64,
    /// Stall classification.
    pub kind: StallKind,
    /// Detection confidence under probe faults and drift.
    pub confidence: Confidence,
}

impl StallEvent {
    /// Dip width in samples.
    pub fn duration_samples(&self) -> usize {
        self.end_sample - self.start_sample
    }

    /// Midpoint of the dip, in samples.
    pub fn center_sample(&self) -> usize {
        (self.start_sample + self.end_sample) / 2
    }
}

/// The result of profiling one capture: every detected stall plus the
/// context needed to convert between samples, cycles, and seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    events: Vec<StallEvent>,
    total_samples: usize,
    sample_rate_hz: f64,
    clock_hz: f64,
}

impl Profile {
    /// Assembles a profile; events must be in time order.
    ///
    /// # Panics
    ///
    /// Panics if events are out of order or extend past `total_samples`.
    pub fn new(
        events: Vec<StallEvent>,
        total_samples: usize,
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> Self {
        for pair in events.windows(2) {
            assert!(
                pair[0].end_sample <= pair[1].start_sample,
                "stall events must be ordered and disjoint"
            );
        }
        if let Some(last) = events.last() {
            assert!(
                last.end_sample <= total_samples,
                "event extends past the capture ({} > {total_samples})",
                last.end_sample
            );
        }
        Profile {
            events,
            total_samples,
            sample_rate_hz,
            clock_hz,
        }
    }

    /// All detected stalls in time order.
    pub fn events(&self) -> &[StallEvent] {
        &self.events
    }

    /// Detected LLC misses — the paper reports one miss per detected
    /// stall, refresh collisions excluded (they are accounted separately,
    /// Section III-C).
    pub fn miss_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == StallKind::Normal)
            .count()
    }

    /// Number of refresh-collision stalls.
    pub fn refresh_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == StallKind::RefreshCollision)
            .count()
    }

    /// Number of events flagged [`Confidence::Degraded`].
    pub fn degraded_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.confidence == Confidence::Degraded)
            .count()
    }

    /// Total measured stall time in cycles (all kinds).
    pub fn total_stall_cycles(&self) -> f64 {
        self.events.iter().map(|e| e.duration_cycles).sum()
    }

    /// Capture length in core cycles.
    pub fn total_cycles(&self) -> f64 {
        self.total_samples as f64 * self.clock_hz / self.sample_rate_hz
    }

    /// Stall time as a fraction of execution time — the
    /// "Miss Latency (%Total Time)" column of Table IV (divide by 100).
    pub fn stall_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0.0 {
            0.0
        } else {
            self.total_stall_cycles() / total
        }
    }

    /// Mean stall latency in cycles, or 0 with no events.
    pub fn mean_latency_cycles(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            self.total_stall_cycles() / self.events.len() as f64
        }
    }

    /// Histogram of stall latencies (Fig. 11).
    pub fn latency_histogram(&self, bin_width_cycles: f64, max_cycles: f64) -> Histogram {
        Histogram::from_values(
            self.events.iter().map(|e| e.duration_cycles),
            bin_width_cycles,
            max_cycles,
        )
    }

    /// Restricts the profile to events whose center lies in
    /// `[start_sample, end_sample)` — used to isolate the microbenchmark's
    /// measured section.
    ///
    /// Events keep their *absolute* sample positions from the original
    /// capture (only the totals are rebased), so positions remain directly
    /// comparable with ground-truth cycle stamps and with the raw signal.
    pub fn slice_samples(&self, start_sample: usize, end_sample: usize) -> Profile {
        let events: Vec<StallEvent> = self
            .events
            .iter()
            .filter(|e| {
                let c = e.center_sample();
                c >= start_sample && c < end_sample
            })
            .copied()
            .collect();
        Profile {
            events,
            total_samples: end_sample.saturating_sub(start_sample),
            sample_rate_hz: self.sample_rate_hz,
            clock_hz: self.clock_hz,
        }
    }

    /// Restricts the profile to a window expressed in core cycles.
    pub fn slice_cycles(&self, start_cycle: u64, end_cycle: u64) -> Profile {
        let to_sample = |c: u64| (c as f64 * self.sample_rate_hz / self.clock_hz).round() as usize;
        self.slice_samples(to_sample(start_cycle), to_sample(end_cycle))
    }

    /// Capture sample rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Profiled core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Capture length in samples.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// Core cycles represented by one sample.
    pub fn cycles_per_sample(&self) -> f64 {
        self.clock_hz / self.sample_rate_hz
    }

    /// Converts a sample index to a core cycle.
    pub fn sample_to_cycle(&self, sample: usize) -> u64 {
        (sample as f64 * self.cycles_per_sample()).round() as u64
    }

    /// Misses per million cycles — the rate column of Table V.
    pub fn miss_rate_per_mcycle(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0.0 {
            0.0
        } else {
            self.miss_count() as f64 / total * 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: usize, end: usize, cycles: f64, kind: StallKind) -> StallEvent {
        StallEvent {
            start_sample: start,
            end_sample: end,
            duration_cycles: cycles,
            kind,
            confidence: Confidence::High,
        }
    }

    fn profile() -> Profile {
        Profile::new(
            vec![
                ev(100, 112, 300.0, StallKind::Normal),
                ev(200, 212, 310.0, StallKind::Normal),
                ev(300, 400, 2500.0, StallKind::RefreshCollision),
                ev(500, 510, 250.0, StallKind::Normal),
            ],
            10_000,
            40e6,
            1.0e9,
        )
    }

    #[test]
    fn counts_separate_refresh() {
        let p = profile();
        assert_eq!(p.miss_count(), 3);
        assert_eq!(p.refresh_count(), 1);
        assert_eq!(p.events().len(), 4);
    }

    #[test]
    fn stall_cycle_totals() {
        let p = profile();
        assert!((p.total_stall_cycles() - 3360.0).abs() < 1e-9);
        // 10_000 samples at 25 cycles/sample = 250k cycles.
        assert!((p.total_cycles() - 250_000.0).abs() < 1e-6);
        assert!((p.stall_fraction() - 3360.0 / 250_000.0).abs() < 1e-9);
    }

    #[test]
    fn mean_latency() {
        let p = profile();
        assert!((p.mean_latency_cycles() - 3360.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn slicing_by_samples() {
        let p = profile();
        let s = p.slice_samples(150, 450);
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.miss_count(), 1);
        assert_eq!(s.refresh_count(), 1);
        assert_eq!(s.total_samples(), 300);
    }

    #[test]
    fn slicing_by_cycles() {
        let p = profile();
        // Cycle window [2500, 11250) = samples [100, 450).
        let s = p.slice_cycles(2500, 11_250);
        assert_eq!(s.events().len(), 3);
    }

    #[test]
    fn miss_rate_per_mcycle() {
        let p = profile();
        assert!((p.miss_rate_per_mcycle() - 3.0 / 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_is_well_behaved() {
        let p = Profile::new(vec![], 0, 40e6, 1e9);
        assert_eq!(p.miss_count(), 0);
        assert_eq!(p.stall_fraction(), 0.0);
        assert_eq!(p.mean_latency_cycles(), 0.0);
        assert_eq!(p.miss_rate_per_mcycle(), 0.0);
    }

    #[test]
    #[should_panic(expected = "ordered and disjoint")]
    fn out_of_order_events_panic() {
        Profile::new(
            vec![
                ev(200, 212, 300.0, StallKind::Normal),
                ev(100, 112, 300.0, StallKind::Normal),
            ],
            1000,
            40e6,
            1e9,
        );
    }

    #[test]
    #[should_panic(expected = "past the capture")]
    fn event_past_end_panics() {
        Profile::new(
            vec![ev(100, 2000, 300.0, StallKind::Normal)],
            1000,
            40e6,
            1e9,
        );
    }
}
