//! Accuracy scoring against ground truth (Tables II and III).
//!
//! The paper scores EMPROF two ways: against the *a-priori known* miss
//! count of the engineered microbenchmark (Table II), and against the
//! simulator's ground-truth miss/stall traces (Table III). Both reduce to
//! comparing a reported quantity with a reference quantity; the published
//! numbers are consistent with the symmetric ratio `min/max`, e.g. 257
//! reported vs 256 actual → 99.61 %.

use emprof_sim::GroundTruth;

use crate::profile::Profile;

/// Symmetric count accuracy: `min(a, b) / max(a, b)`, in `[0, 1]`.
///
/// Both over- and under-reporting are penalized; two zeros agree
/// perfectly.
///
/// # Example
///
/// ```
/// use emprof_core::accuracy::count_accuracy;
///
/// assert!((count_accuracy(257.0, 256.0) - 0.99611).abs() < 1e-4);
/// assert_eq!(count_accuracy(0.0, 0.0), 1.0);
/// assert_eq!(count_accuracy(0.0, 5.0), 0.0);
/// ```
pub fn count_accuracy(reported: f64, actual: f64) -> f64 {
    assert!(
        reported >= 0.0 && actual >= 0.0,
        "counts must be non-negative ({reported}, {actual})"
    );
    if reported == 0.0 && actual == 0.0 {
        return 1.0;
    }
    let (lo, hi) = if reported < actual {
        (reported, actual)
    } else {
        (actual, reported)
    };
    if hi == 0.0 {
        1.0
    } else {
        lo / hi
    }
}

/// The Table II / Table III scores for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Detected stall events (EMPROF's reported miss count).
    pub reported_misses: usize,
    /// Reference miss count (known TM, or the simulator's count).
    pub actual_misses: usize,
    /// `min/max` accuracy of the miss count.
    pub miss_accuracy: f64,
    /// EMPROF's total measured stall cycles.
    pub reported_stall_cycles: f64,
    /// Ground-truth LLC-stall cycles.
    pub actual_stall_cycles: f64,
    /// `min/max` accuracy of the stall-cycle total.
    pub stall_accuracy: f64,
}

impl AccuracyReport {
    /// Scores a profile against an externally known miss count (the
    /// microbenchmark path of Table II; no stall reference available, so
    /// stall fields compare against the profile itself and read 1.0).
    ///
    /// Refresh-collision events count as misses here: the known count is
    /// of *memory accesses*, and an access that happened to collide with
    /// refresh is still one access.
    pub fn against_known_count(profile: &Profile, known_misses: usize) -> Self {
        let reported = profile.miss_count() + profile.refresh_count();
        AccuracyReport {
            reported_misses: reported,
            actual_misses: known_misses,
            miss_accuracy: count_accuracy(reported as f64, known_misses as f64),
            reported_stall_cycles: profile.total_stall_cycles(),
            actual_stall_cycles: profile.total_stall_cycles(),
            stall_accuracy: 1.0,
        }
    }

    /// Scores a profile against simulator ground truth (the Table III
    /// path), optionally restricted to a ground-truth cycle window.
    ///
    /// The miss reference is the simulator's demand LLC-miss count; the
    /// stall reference is its total fully-stalled cycles attributed to LLC
    /// misses. Refresh-collision events are included in the stall total
    /// (they are stall time) but excluded from the miss count on both
    /// sides of the comparison, mirroring the paper's separate accounting.
    pub fn against_ground_truth(
        profile: &Profile,
        gt: &GroundTruth,
        window: Option<(u64, u64)>,
    ) -> Self {
        let (actual_misses, actual_stall_cycles) = match window {
            Some(w) => (
                gt.misses_in_window(w)
                    .filter(|m| !m.refresh_collision)
                    .count(),
                gt.llc_stalls_in_window(w)
                    .map(|s| s.duration())
                    .sum::<u64>(),
            ),
            None => (
                gt.misses().iter().filter(|m| !m.refresh_collision).count(),
                gt.llc_stall_cycles(),
            ),
        };
        let reported_misses = profile.miss_count();
        let reported_stall_cycles = profile.total_stall_cycles();
        AccuracyReport {
            reported_misses,
            actual_misses,
            miss_accuracy: count_accuracy(reported_misses as f64, actual_misses as f64),
            reported_stall_cycles,
            actual_stall_cycles: actual_stall_cycles as f64,
            stall_accuracy: count_accuracy(reported_stall_cycles, actual_stall_cycles as f64),
        }
    }
}

/// Event-level matching between detected stalls and ground-truth stall
/// intervals, for diagnosing *which* events were found rather than just
/// how many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchStats {
    /// Ground-truth stalls overlapped by at least one detected event.
    pub matched: usize,
    /// Ground-truth stalls with no detected counterpart.
    pub missed: usize,
    /// Detected events overlapping no ground-truth stall.
    pub spurious: usize,
}

impl MatchStats {
    /// Recall: matched / (matched + missed); 1.0 when there is nothing to
    /// find.
    pub fn recall(&self) -> f64 {
        let total = self.matched + self.missed;
        if total == 0 {
            1.0
        } else {
            self.matched as f64 / total as f64
        }
    }

    /// Precision: 1 - spurious / detected; 1.0 when nothing was detected.
    pub fn precision(&self, detected: usize) -> f64 {
        if detected == 0 {
            1.0
        } else {
            1.0 - self.spurious as f64 / detected as f64
        }
    }
}

/// Matches detected events to ground-truth LLC stall intervals by cycle
/// overlap with a `tolerance_cycles` slack on both sides.
pub fn match_events(profile: &Profile, gt: &GroundTruth, tolerance_cycles: u64) -> MatchStats {
    let events: Vec<(u64, u64)> = profile
        .events()
        .iter()
        .map(|e| {
            (
                profile.sample_to_cycle(e.start_sample),
                profile.sample_to_cycle(e.end_sample),
            )
        })
        .collect();
    let truths: Vec<(u64, u64)> = gt
        .llc_stalls()
        .map(|s| (s.start_cycle, s.end_cycle))
        .collect();
    let overlaps = |a: (u64, u64), b: (u64, u64)| -> bool {
        a.0.saturating_sub(tolerance_cycles) < b.1 && b.0.saturating_sub(tolerance_cycles) < a.1
    };
    let matched = truths
        .iter()
        .filter(|&&t| events.iter().any(|&e| overlaps(e, t)))
        .count();
    let spurious = events
        .iter()
        .filter(|&&e| !truths.iter().any(|&t| overlaps(e, t)))
        .count();
    MatchStats {
        matched,
        missed: truths.len() - matched,
        spurious,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Confidence, StallEvent, StallKind};
    use emprof_sim::{MissRecord, StallCause, StallInterval};

    fn profile_with(events: Vec<(usize, usize)>) -> Profile {
        let events = events
            .into_iter()
            .map(|(s, e)| StallEvent {
                start_sample: s,
                end_sample: e,
                duration_cycles: (e - s) as f64 * 25.0,
                kind: StallKind::Normal,
                confidence: Confidence::High,
            })
            .collect();
        Profile::new(events, 10_000, 40e6, 1.0e9)
    }

    fn gt_with(stalls: Vec<(u64, u64)>, misses: usize) -> GroundTruth {
        let mut gt = GroundTruth::new();
        for (s, e) in stalls {
            gt.push_stall(StallInterval {
                start_cycle: s,
                end_cycle: e,
                cause: StallCause::LlcMiss { refresh: false },
            });
        }
        for i in 0..misses {
            gt.push_miss(MissRecord {
                line_addr: i as u64 * 64,
                pc: 0,
                is_instr: false,
                detect_cycle: i as u64 * 1000,
                complete_cycle: i as u64 * 1000 + 300,
                refresh_collision: false,
            });
        }
        gt
    }

    #[test]
    fn count_accuracy_matches_paper_example() {
        // Table IV reports 257 for TM=256 on Alcatel; Table II says 99.61%.
        assert!((count_accuracy(257.0, 256.0) - 0.9961).abs() < 1e-4);
    }

    #[test]
    fn count_accuracy_is_symmetric() {
        assert_eq!(count_accuracy(100.0, 90.0), count_accuracy(90.0, 100.0));
    }

    #[test]
    fn known_count_scoring() {
        let p = profile_with(vec![(100, 112), (200, 212), (300, 312)]);
        let r = AccuracyReport::against_known_count(&p, 3);
        assert_eq!(r.miss_accuracy, 1.0);
        let r = AccuracyReport::against_known_count(&p, 4);
        assert!((r.miss_accuracy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ground_truth_scoring() {
        // Events at samples (100,112) = cycles (2500,2800) etc.
        let p = profile_with(vec![(100, 112), (200, 212)]);
        let gt = gt_with(vec![(2500, 2800), (5000, 5300)], 2);
        let r = AccuracyReport::against_ground_truth(&p, &gt, None);
        assert_eq!(r.reported_misses, 2);
        assert_eq!(r.actual_misses, 2);
        assert_eq!(r.miss_accuracy, 1.0);
        assert!((r.reported_stall_cycles - 600.0).abs() < 1e-9);
        assert_eq!(r.actual_stall_cycles, 600.0);
        assert_eq!(r.stall_accuracy, 1.0);
    }

    #[test]
    fn event_matching_counts_spurious_and_missed() {
        let p = profile_with(vec![(100, 112), (900, 912)]); // second is spurious
        let gt = gt_with(vec![(2500, 2800), (7000, 7300)], 2); // second missed
        let m = match_events(&p, &gt, 50);
        assert_eq!(m.matched, 1);
        assert_eq!(m.missed, 1);
        assert_eq!(m.spurious, 1);
        assert!((m.recall() - 0.5).abs() < 1e-12);
        assert!((m.precision(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_on_empty() {
        let p = profile_with(vec![]);
        let gt = gt_with(vec![], 0);
        let r = AccuracyReport::against_ground_truth(&p, &gt, None);
        assert_eq!(r.miss_accuracy, 1.0);
        assert_eq!(r.stall_accuracy, 1.0);
        let m = match_events(&p, &gt, 0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.precision(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_count_panics() {
        count_accuracy(-1.0, 5.0);
    }
}
