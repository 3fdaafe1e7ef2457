//! Dual-probe fusion: cross-validating stalls between a CPU-side and a
//! memory-side EM probe (paper Fig. 10, DESIGN.md §15).
//!
//! The paper's dual-probe setup points one probe at the processor and a
//! second at the DRAM chip. A genuine LLC-miss stall has a signature in
//! *both*: the CPU envelope dips while the memory probe bursts with the
//! DRAM access that services the miss. A dip that appears on the CPU
//! probe alone — interference, probe motion, receiver glitches — has no
//! matching memory activity. [`FusedDetector`] profiles the CPU probe as
//! usual, then checks each detected event against the memory probe's
//! normalized activity and rejects events whose span shows (almost) no
//! memory-side activity, counting decisions in `fusion.*` telemetry.

use emprof_obs as obs;
use emprof_par::Parallelism;

use crate::profile::{Profile, StallEvent};
use crate::Emprof;

/// Cross-validation rule for [`FusedDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionConfig {
    /// Normalized memory-probe level at or above which a sample counts
    /// as "memory active" (a DRAM burst), in `(0, 1)`.
    pub burst_level: f64,
    /// Minimum fraction of an event's span that must be memory-active
    /// for the event to be confirmed, in `(0, 1]`.
    pub min_active_fraction: f64,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            burst_level: 0.6,
            min_active_fraction: 0.25,
        }
    }
}

impl FusionConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.burst_level && self.burst_level < 1.0) {
            return Err(format!(
                "burst level must be in (0, 1), got {}",
                self.burst_level
            ));
        }
        if !(0.0 < self.min_active_fraction && self.min_active_fraction <= 1.0) {
            return Err(format!(
                "min active fraction must be in (0, 1], got {}",
                self.min_active_fraction
            ));
        }
        Ok(())
    }
}

/// What dual-probe cross-validation did to one profile.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionReport {
    /// Events confirmed by memory-side activity.
    pub confirmed: usize,
    /// Events rejected as single-probe artifacts (no memory activity
    /// under the dip), removed from the fused profile.
    pub rejected: usize,
    /// The rejected events themselves, for inspection.
    pub rejected_events: Vec<StallEvent>,
}

/// A dual-probe profiler: the standard CPU-probe detector plus
/// memory-probe cross-validation of every event.
#[derive(Debug, Clone, Copy)]
pub struct FusedDetector {
    emprof: Emprof,
    fusion: FusionConfig,
}

impl FusedDetector {
    /// Creates a dual-probe profiler.
    ///
    /// # Panics
    ///
    /// Panics if the fusion rule fails [`FusionConfig::validate`].
    pub fn new(emprof: Emprof, fusion: FusionConfig) -> Self {
        fusion
            .validate()
            .unwrap_or_else(|e| panic!("invalid fusion configuration: {e}"));
        FusedDetector { emprof, fusion }
    }

    /// The underlying single-probe profiler.
    pub fn emprof(&self) -> &Emprof {
        &self.emprof
    }

    /// Profiles the CPU-probe magnitude, then cross-validates each event
    /// against the memory-probe magnitude: events whose span has less
    /// than the configured fraction of memory-side activity are rejected
    /// as single-probe artifacts and removed.
    ///
    /// The two captures must be sampled at the same rate and aligned;
    /// events extending past the end of the memory capture are confirmed
    /// (no evidence against them). Decisions are counted in the
    /// `fusion.confirmed` / `fusion.rejected` counters.
    pub fn profile_dual(
        &self,
        cpu_magnitude: &[f64],
        mem_magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
        par: Parallelism,
    ) -> (Profile, FusionReport) {
        let profile =
            self.emprof
                .profile_magnitude_par(cpu_magnitude, sample_rate_hz, clock_hz, par);
        self.cross_validate(profile, mem_magnitude, sample_rate_hz, clock_hz)
    }

    /// The cross-validation half of [`profile_dual`](Self::profile_dual),
    /// applied to an already-computed CPU-probe profile.
    pub fn cross_validate(
        &self,
        profile: Profile,
        mem_magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> (Profile, FusionReport) {
        let _span = obs::span!("fusion.cross_validate");
        // Non-finite memory samples are replaced (not dropped — that
        // would shift the alignment) with the last finite value, which
        // reads as "no new information". The memory probe is normalized
        // *globally*, not with the CPU probe's moving window: DRAM
        // bursts are sparse, so a moving min/max would flatten any
        // burst-free stretch to 1.0 and misread exactly the spans we
        // need to call quiet.
        let mem = sanitize_substitute(mem_magnitude);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &mem {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let range = hi - lo;
        let cut = lo + self.fusion.burst_level * range;
        // Quiet (below-burst) runs of the memory probe, as `(start, end)`.
        // A flat memory capture has no bursts anywhere: all quiet.
        let mut quiet: Vec<(usize, usize)> = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &v) in mem.iter().enumerate() {
            if range <= 0.0 || v < cut {
                start.get_or_insert(i);
            } else if let Some(s) = start.take() {
                quiet.push((s, i));
            }
        }
        if let Some(s) = start {
            quiet.push((s, mem.len()));
        }

        let mut kept: Vec<StallEvent> = Vec::with_capacity(profile.events().len());
        let mut rejected_events: Vec<StallEvent> = Vec::new();
        let mut cursor = 0usize;
        for &e in profile.events() {
            if e.end_sample > mem.len() {
                kept.push(e);
                continue;
            }
            let span = (e.end_sample - e.start_sample).max(1);
            while cursor < quiet.len() && quiet[cursor].1 <= e.start_sample {
                cursor += 1;
            }
            let mut inactive = 0usize;
            for &(qs, qe) in &quiet[cursor..] {
                if qs >= e.end_sample {
                    break;
                }
                inactive += qe.min(e.end_sample) - qs.max(e.start_sample);
            }
            let active_fraction = 1.0 - inactive as f64 / span as f64;
            if active_fraction >= self.fusion.min_active_fraction {
                kept.push(e);
            } else {
                rejected_events.push(e);
            }
        }
        let report = FusionReport {
            confirmed: kept.len(),
            rejected: rejected_events.len(),
            rejected_events,
        };
        obs::counter_add!("fusion.confirmed", report.confirmed as u64);
        obs::counter_add!("fusion.rejected", report.rejected as u64);
        let total = profile.total_samples();
        (Profile::new(kept, total, sample_rate_hz, clock_hz), report)
    }
}

/// Replaces non-finite samples with the last finite value (0 before the
/// first), preserving length and therefore alignment with the CPU probe.
fn sanitize_substitute(signal: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(signal.len());
    let mut last = 0.0f64;
    for &v in signal {
        if v.is_finite() {
            last = v;
        }
        out.push(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmprofConfig;

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;

    fn detector() -> FusedDetector {
        FusedDetector::new(
            Emprof::new(EmprofConfig::for_rates(FS, CLK)),
            FusionConfig::default(),
        )
    }

    /// CPU probe: busy at 5.0 with dips at the given (start, width).
    fn cpu(len: usize, dips: &[(usize, usize)]) -> Vec<f64> {
        let mut s = vec![5.0; len];
        for &(start, width) in dips {
            for v in s.iter_mut().skip(start).take(width) {
                *v = 0.8;
            }
        }
        s
    }

    /// Memory probe: idle at 0.5 with bursts to 5.0 at (start, width).
    fn mem(len: usize, bursts: &[(usize, usize)]) -> Vec<f64> {
        let mut s = vec![0.5; len];
        for &(start, width) in bursts {
            for v in s.iter_mut().skip(start).take(width) {
                *v = 5.0;
            }
        }
        s
    }

    #[test]
    fn corroborated_events_pass_artifacts_fail() {
        // Two CPU dips; only the first has a matching memory burst.
        let c = cpu(40_000, &[(10_000, 12), (25_000, 12)]);
        let m = mem(40_000, &[(10_000, 14)]);
        let d = detector();
        let (fusedp, report) = d.profile_dual(&c, &m, FS, CLK, Parallelism::sequential());
        assert_eq!(report.confirmed, 1);
        assert_eq!(report.rejected, 1);
        assert_eq!(fusedp.events().len(), 1);
        let e = fusedp.events()[0];
        assert!(e.start_sample <= 10_000 && e.end_sample >= 10_010);
        assert!(report.rejected_events[0].start_sample.abs_diff(25_000) <= 4);
    }

    #[test]
    fn partial_overlap_clears_the_fraction_bar() {
        // Memory burst covers only the first third of the dip: above the
        // 25% default bar, still confirmed.
        let c = cpu(40_000, &[(10_000, 12)]);
        let m = mem(40_000, &[(10_000, 4)]);
        let (fusedp, report) = detector().profile_dual(&c, &m, FS, CLK, Parallelism::sequential());
        assert_eq!(report.rejected, 0);
        assert_eq!(fusedp.events().len(), 1);
    }

    #[test]
    fn event_past_memory_capture_is_confirmed() {
        let c = cpu(40_000, &[(39_980, 20)]);
        let m = mem(30_000, &[]);
        let (fusedp, report) = detector().profile_dual(&c, &m, FS, CLK, Parallelism::sequential());
        assert_eq!(report.rejected, 0);
        assert_eq!(fusedp.events().len(), 1);
    }

    #[test]
    fn non_finite_memory_samples_do_not_shift_alignment() {
        let c = cpu(40_000, &[(10_000, 12)]);
        let mut m = mem(40_000, &[(10_000, 14)]);
        for i in (0..m.len()).step_by(777) {
            m[i] = f64::NAN;
        }
        let (_, report) = detector().profile_dual(&c, &m, FS, CLK, Parallelism::sequential());
        assert_eq!(report.rejected, 0);
    }

    #[test]
    #[should_panic(expected = "invalid fusion configuration")]
    fn bad_fusion_config_panics() {
        FusedDetector::new(
            Emprof::new(EmprofConfig::for_rates(FS, CLK)),
            FusionConfig {
                burst_level: 1.5,
                min_active_fraction: 0.25,
            },
        );
    }
}
