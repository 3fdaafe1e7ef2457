//! Ground-truth event traces.
//!
//! Section V-C: the simulator is "enhanced to produce a power consumption
//! trace ... and also to produce a trace of when (in which cycle) each LLC
//! miss is detected and when the resulting stall (if there is a stall)
//! begins and ends". EMPROF's detected stalls are scored against exactly
//! this information.

use std::collections::HashMap;

/// One LLC miss, from detection to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissRecord {
    /// Line-aligned address that missed.
    pub line_addr: u64,
    /// PC of the instruction that caused the miss (the fetch PC for
    /// instruction misses).
    pub pc: u64,
    /// Whether this was an instruction-fetch miss (I$ path) rather than a
    /// data miss.
    pub is_instr: bool,
    /// Cycle in which the miss was detected at the LLC.
    pub detect_cycle: u64,
    /// Cycle in which the line became available to the core.
    pub complete_cycle: u64,
    /// Whether the memory access collided with DRAM refresh (Fig. 5);
    /// these stall for microseconds and the paper accounts for them
    /// separately.
    pub refresh_collision: bool,
}

impl MissRecord {
    /// Memory latency of this miss in cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.complete_cycle.saturating_sub(self.detect_cycle)
    }
}

/// Why the pipeline was fully stalled during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// At least one LLC miss was outstanding: the stalls EMPROF counts.
    LlcMiss {
        /// Whether any of the outstanding misses hit a DRAM refresh.
        refresh: bool,
    },
    /// An L1 miss that hit in the LLC was outstanding (the brief stalls of
    /// Fig. 2a) but no LLC miss was.
    LlcHit,
    /// No cache miss outstanding — dependency or structural stalls.
    Other,
}

/// A maximal run of consecutive fully-stalled cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInterval {
    /// First stalled cycle.
    pub start_cycle: u64,
    /// One past the last stalled cycle.
    pub end_cycle: u64,
    /// Attribution of the stall.
    pub cause: StallCause,
}

impl StallInterval {
    /// Duration in cycles.
    pub fn duration(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// The complete ground-truth record of one simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    misses: Vec<MissRecord>,
    stalls: Vec<StallInterval>,
    markers: HashMap<u32, Vec<u64>>,
}

impl GroundTruth {
    /// Creates an empty record.
    pub fn new() -> Self {
        GroundTruth::default()
    }

    /// Records one LLC miss.
    pub fn push_miss(&mut self, miss: MissRecord) {
        self.misses.push(miss);
    }

    /// Records one completed stall interval.
    pub fn push_stall(&mut self, stall: StallInterval) {
        self.stalls.push(stall);
    }

    /// Records a marker hit at a cycle.
    pub fn push_marker(&mut self, id: u32, cycle: u64) {
        self.markers.entry(id).or_default().push(cycle);
    }

    /// All LLC misses in detection order.
    pub fn misses(&self) -> &[MissRecord] {
        &self.misses
    }

    /// All stall intervals in time order.
    pub fn stalls(&self) -> &[StallInterval] {
        &self.stalls
    }

    /// Number of LLC misses.
    pub fn llc_miss_count(&self) -> usize {
        self.misses.len()
    }

    /// Stall intervals caused by LLC misses, optionally restricted to a
    /// cycle window.
    pub fn llc_stalls(&self) -> impl Iterator<Item = &StallInterval> {
        self.stalls
            .iter()
            .filter(|s| matches!(s.cause, StallCause::LlcMiss { .. }))
    }

    /// Total cycles spent fully stalled with an LLC miss outstanding.
    pub fn llc_stall_cycles(&self) -> u64 {
        self.llc_stalls().map(StallInterval::duration).sum()
    }

    /// Number of distinct LLC-miss-caused stall intervals. Because of MLP
    /// this is typically *smaller* than [`GroundTruth::llc_miss_count`]
    /// (Fig. 3): overlapped misses share one stall and some misses never
    /// stall the core at all.
    pub fn llc_stall_count(&self) -> usize {
        self.llc_stalls().count()
    }

    /// Cycles at which a marker was executed, in order.
    pub fn marker_cycles(&self, id: u32) -> &[u64] {
        self.markers.get(&id).map_or(&[], Vec::as_slice)
    }

    /// The cycle window `[first hit of start_id, first hit of end_id)`, if
    /// both markers fired. The microbenchmark harness uses this to isolate
    /// its miss-generating section.
    pub fn marker_window(&self, start_id: u32, end_id: u32) -> Option<(u64, u64)> {
        let start = *self.marker_cycles(start_id).first()?;
        let end = *self.marker_cycles(end_id).first()?;
        (end > start).then_some((start, end))
    }

    /// Misses detected inside a cycle window.
    pub fn misses_in_window(&self, window: (u64, u64)) -> impl Iterator<Item = &MissRecord> {
        self.misses
            .iter()
            .filter(move |m| m.detect_cycle >= window.0 && m.detect_cycle < window.1)
    }

    /// LLC-miss stall intervals that start inside a cycle window.
    pub fn llc_stalls_in_window(&self, window: (u64, u64)) -> impl Iterator<Item = &StallInterval> {
        self.llc_stalls()
            .filter(move |s| s.start_cycle >= window.0 && s.start_cycle < window.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(detect: u64, complete: u64) -> MissRecord {
        MissRecord {
            line_addr: 0x1000,
            pc: 0x40,
            is_instr: false,
            detect_cycle: detect,
            complete_cycle: complete,
            refresh_collision: false,
        }
    }

    fn stall(start: u64, end: u64, cause: StallCause) -> StallInterval {
        StallInterval {
            start_cycle: start,
            end_cycle: end,
            cause,
        }
    }

    #[test]
    fn counts_and_durations() {
        let mut gt = GroundTruth::new();
        gt.push_miss(miss(100, 400));
        gt.push_miss(miss(150, 450));
        gt.push_stall(stall(200, 450, StallCause::LlcMiss { refresh: false }));
        gt.push_stall(stall(500, 520, StallCause::LlcHit));
        gt.push_stall(stall(600, 610, StallCause::Other));
        assert_eq!(gt.llc_miss_count(), 2);
        assert_eq!(gt.llc_stall_count(), 1);
        assert_eq!(gt.llc_stall_cycles(), 250);
        assert_eq!(gt.misses()[0].latency_cycles(), 300);
    }

    #[test]
    fn marker_windows() {
        let mut gt = GroundTruth::new();
        gt.push_marker(1, 1000);
        gt.push_marker(2, 5000);
        gt.push_marker(1, 9000); // a second hit is ignored by marker_window
        assert_eq!(gt.marker_window(1, 2), Some((1000, 5000)));
        assert_eq!(gt.marker_window(2, 1), None); // end before start
        assert_eq!(gt.marker_window(1, 3), None); // missing marker
    }

    #[test]
    fn window_filters() {
        let mut gt = GroundTruth::new();
        gt.push_miss(miss(100, 400));
        gt.push_miss(miss(5000, 5300));
        gt.push_stall(stall(120, 400, StallCause::LlcMiss { refresh: false }));
        gt.push_stall(stall(5100, 5300, StallCause::LlcMiss { refresh: true }));
        let w = (0, 1000);
        assert_eq!(gt.misses_in_window(w).count(), 1);
        assert_eq!(gt.llc_stalls_in_window(w).count(), 1);
        assert_eq!(gt.llc_stalls_in_window((0, 10_000)).count(), 2);
    }

    #[test]
    fn empty_marker_is_empty_slice() {
        let gt = GroundTruth::new();
        assert!(gt.marker_cycles(9).is_empty());
    }
}
