//! Deterministic fault injection for EMPROF chaos runs.
//!
//! Real EM captures degrade in ways the clean synthetic path never
//! exercises: the capture front-end drops sample bursts, ADC glitches
//! corrupt individual samples to non-finite values, AGC retunes apply
//! persistent gain steps, and probe repositioning attenuates a whole
//! span. This crate models those as a seeded [`FaultPlan`] applied by a
//! stateful [`FaultInjector`], so a chaos run is reproducible from a
//! single `(plan, seed)` pair — the same signal faulted in one call or
//! in arbitrary batches yields bit-identical output.
//!
//! Faults are described *after the fact* by a [`FaultReport`] in
//! absolute input-sample coordinates; [`survivor_dropout_points`] maps
//! dropout bursts into the detector's survivor coordinates (the
//! detector skips non-finite samples) and [`flag_degraded`] marks which
//! detected events touch a collapsed dropout gap, giving callers a
//! degraded-confidence signal without changing the event type itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;

use emprof_core::StallEvent;
use emprof_obs as obs;

/// Splitmix64 — tiny, seedable, and good enough for fault scheduling.
/// Kept private so the stream can never become an accidental API.
#[derive(Debug, Clone)]
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Self {
        Prng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }
}

/// What a corrupted sample is replaced with.
const CORRUPT_KINDS: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0];

/// A declarative description of the faults to inject, all rates
/// expressed per input sample. The zero plan ([`FaultPlan::none`])
/// injects nothing and leaves the signal bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-sample probability of starting a dropout burst (samples
    /// replaced with NaN — the capture equivalent of lost data).
    pub dropout_rate: f64,
    /// Inclusive burst-length range for dropouts, in samples.
    pub dropout_len: (usize, usize),
    /// Per-sample probability of corrupting a single sample to one of
    /// NaN, `+inf`, `-inf`, or `0.0` (chosen uniformly).
    pub corrupt_rate: f64,
    /// Per-sample probability of a persistent multiplicative gain step
    /// (AGC retune); steps compose until the injector is re-created.
    pub gain_step_rate: f64,
    /// Range the gain-step factor is drawn from.
    pub gain_range: (f64, f64),
    /// Per-sample probability of starting a probe-shift attenuation
    /// span (probe moved away from the sweet spot, then restored).
    pub shift_rate: f64,
    /// Multiplicative attenuation applied during a probe-shift span.
    pub shift_atten: f64,
    /// Inclusive span-length range for probe shifts, in samples.
    pub shift_len: (usize, usize),
    /// Per-sample scale of the probe-drift random walk on log-gain.
    /// Each sample the log-gain moves by a uniform draw from
    /// `[-1.5 * step, +0.5 * step]` — biased downward, so the probe
    /// wanders away from the sweet spot — clamped so the gain stays in
    /// `[walk_floor, 1]`. Zero disables the walk.
    pub walk_step: f64,
    /// Lowest gain the probe walk can reach, in `(0, 1]`.
    pub walk_floor: f64,
    /// Amplitude of additive receiver noise, drawn uniformly from
    /// `[0, walk_noise)` per sample *after* all attenuation. This is what
    /// makes probe drift hostile: pure multiplicative attenuation is
    /// invisible to min/max normalization, but once the signal sinks
    /// toward a fixed noise floor the contrast genuinely degrades.
    pub walk_noise: f64,
}

impl FaultPlan {
    /// The empty plan: no faults, injection is the identity.
    pub fn none() -> Self {
        FaultPlan {
            dropout_rate: 0.0,
            dropout_len: (1, 1),
            corrupt_rate: 0.0,
            gain_step_rate: 0.0,
            gain_range: (1.0, 1.0),
            shift_rate: 0.0,
            shift_atten: 1.0,
            shift_len: (1, 1),
            walk_step: 0.0,
            walk_floor: 1.0,
            walk_noise: 0.0,
        }
    }

    /// A moderately hostile preset used by the chaos soak: sparse
    /// dropout bursts, scattered corruption, occasional gain steps and
    /// probe shifts.
    pub fn chaos() -> Self {
        FaultPlan {
            dropout_rate: 5e-4,
            dropout_len: (8, 64),
            corrupt_rate: 2e-3,
            gain_step_rate: 1e-4,
            gain_range: (0.5, 1.5),
            shift_rate: 5e-5,
            shift_atten: 0.35,
            shift_len: (128, 512),
            walk_step: 0.0,
            walk_floor: 1.0,
            walk_noise: 0.0,
        }
    }

    /// The probe-drift preset: a slow, downward-biased gain walk plus a
    /// fixed additive noise floor, and nothing else. This is the regime
    /// the adaptive calibrator exists for — the chaos soak asserts the
    /// adaptive detector beats the static one under exactly this plan.
    pub fn probe_walk() -> Self {
        FaultPlan {
            walk_step: 2e-5,
            walk_floor: 0.05,
            walk_noise: 0.06,
            ..FaultPlan::none()
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_none(&self) -> bool {
        self.dropout_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.gain_step_rate == 0.0
            && self.shift_rate == 0.0
            && !self.walk_enabled()
    }

    /// Whether the probe-drift walk (and its noise floor) is active.
    fn walk_enabled(&self) -> bool {
        self.walk_step > 0.0 || self.walk_noise > 0.0
    }

    /// Checks the plan is physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint: rates must lie in `[0, 1]`, length ranges must be
    /// ordered and at least 1, and gain/attenuation factors must be
    /// finite and positive.
    pub fn validate(&self) -> Result<(), String> {
        let rate_ok = |r: f64| r.is_finite() && (0.0..=1.0).contains(&r);
        for (name, r) in [
            ("dropout", self.dropout_rate),
            ("corrupt", self.corrupt_rate),
            ("gain", self.gain_step_rate),
            ("shift", self.shift_rate),
        ] {
            if !rate_ok(r) {
                return Err(format!("{name} rate {r} outside [0, 1]"));
            }
        }
        for (name, (lo, hi)) in [("dropout", self.dropout_len), ("shift", self.shift_len)] {
            if lo == 0 || lo > hi {
                return Err(format!("{name} length range {lo}..{hi} invalid"));
            }
        }
        let (glo, ghi) = self.gain_range;
        if !(glo.is_finite() && ghi.is_finite() && glo > 0.0 && glo <= ghi) {
            return Err(format!("gain range {glo}..{ghi} invalid"));
        }
        if !(self.shift_atten.is_finite() && self.shift_atten > 0.0) {
            return Err(format!("shift attenuation {} invalid", self.shift_atten));
        }
        if !(self.walk_step.is_finite() && self.walk_step >= 0.0) {
            return Err(format!("walk step {} invalid", self.walk_step));
        }
        if !(self.walk_floor.is_finite() && 0.0 < self.walk_floor && self.walk_floor <= 1.0) {
            return Err(format!("walk floor {} outside (0, 1]", self.walk_floor));
        }
        if !(self.walk_noise.is_finite() && self.walk_noise >= 0.0) {
            return Err(format!("walk noise {} invalid", self.walk_noise));
        }
        Ok(())
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut clauses = Vec::new();
        if self.dropout_rate > 0.0 {
            clauses.push(format!(
                "dropout={}:{}..{}",
                self.dropout_rate, self.dropout_len.0, self.dropout_len.1
            ));
        }
        if self.corrupt_rate > 0.0 {
            clauses.push(format!("corrupt={}", self.corrupt_rate));
        }
        if self.gain_step_rate > 0.0 {
            clauses.push(format!(
                "gain={}:{}..{}",
                self.gain_step_rate, self.gain_range.0, self.gain_range.1
            ));
        }
        if self.shift_rate > 0.0 {
            clauses.push(format!(
                "shift={}:{}:{}..{}",
                self.shift_rate, self.shift_atten, self.shift_len.0, self.shift_len.1
            ));
        }
        if self.walk_enabled() {
            clauses.push(format!(
                "walk={}:{}:{}",
                self.walk_step, self.walk_floor, self.walk_noise
            ));
        }
        write!(f, "{}", clauses.join(","))
    }
}

/// Error from parsing a `--fault-plan` spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(String);

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

fn parse_range_usize(s: &str, what: &str) -> Result<(usize, usize), PlanParseError> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| PlanParseError(format!("{what}: expected LO..HI, got `{s}`")))?;
    let parse = |p: &str| {
        p.parse::<usize>()
            .map_err(|_| PlanParseError(format!("{what}: bad length `{p}`")))
    };
    Ok((parse(lo)?, parse(hi)?))
}

fn parse_range_f64(s: &str, what: &str) -> Result<(f64, f64), PlanParseError> {
    let (lo, hi) = s
        .split_once("..")
        .ok_or_else(|| PlanParseError(format!("{what}: expected LO..HI, got `{s}`")))?;
    let parse = |p: &str| {
        p.parse::<f64>()
            .map_err(|_| PlanParseError(format!("{what}: bad value `{p}`")))
    };
    Ok((parse(lo)?, parse(hi)?))
}

fn parse_f64(s: &str, what: &str) -> Result<f64, PlanParseError> {
    s.parse::<f64>()
        .map_err(|_| PlanParseError(format!("{what}: bad value `{s}`")))
}

impl FromStr for FaultPlan {
    type Err = PlanParseError;

    /// Parses the `--fault-plan` spec syntax, e.g.
    /// `dropout=5e-4:8..64,corrupt=2e-3,gain=1e-4:0.5..1.5,shift=5e-5:0.35:128..512,walk=2e-5:0.05:0.06`.
    /// The keywords `none`, `chaos` and `probe-walk` name the presets.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "none" => return Ok(FaultPlan::none()),
            "chaos" => return Ok(FaultPlan::chaos()),
            "probe-walk" => return Ok(FaultPlan::probe_walk()),
            "" => return Err(PlanParseError("empty spec".into())),
            _ => {}
        }
        let mut plan = FaultPlan::none();
        for clause in s.split(',') {
            let (key, val) = clause
                .split_once('=')
                .ok_or_else(|| PlanParseError(format!("clause `{clause}` has no `=`")))?;
            let mut parts = val.split(':');
            let rate = parse_f64(parts.next().unwrap_or(""), key)?;
            match key {
                "dropout" => {
                    plan.dropout_rate = rate;
                    plan.dropout_len =
                        parse_range_usize(parts.next().unwrap_or("1..1"), "dropout")?;
                }
                "corrupt" => plan.corrupt_rate = rate,
                "gain" => {
                    plan.gain_step_rate = rate;
                    plan.gain_range = parse_range_f64(parts.next().unwrap_or("1..1"), "gain")?;
                }
                "shift" => {
                    plan.shift_rate = rate;
                    plan.shift_atten = parse_f64(parts.next().unwrap_or(""), "shift atten")?;
                    plan.shift_len = parse_range_usize(parts.next().unwrap_or("1..1"), "shift")?;
                }
                "walk" => {
                    plan.walk_step = rate;
                    plan.walk_floor = parse_f64(parts.next().unwrap_or(""), "walk floor")?;
                    plan.walk_noise = parse_f64(parts.next().unwrap_or(""), "walk noise")?;
                }
                other => return Err(PlanParseError(format!("unknown clause `{other}`"))),
            }
            if parts.next().is_some() {
                return Err(PlanParseError(format!(
                    "clause `{clause}` has extra fields"
                )));
            }
        }
        plan.validate().map_err(PlanParseError)?;
        Ok(plan)
    }
}

/// Everything a [`FaultInjector`] did, in **absolute input-sample
/// coordinates** counted from the injector's creation (so batches
/// compose). Dropout and shift intervals are half-open `[start, end)`
/// and recorded in full when they begin, even if they extend past the
/// end of the batch that started them.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Dropout bursts as `[start, end)` sample intervals.
    pub dropouts: Vec<(u64, u64)>,
    /// Indices of individually corrupted samples.
    pub corrupted: Vec<u64>,
    /// `(index, factor)` of each persistent gain step.
    pub gain_steps: Vec<(u64, f64)>,
    /// `(start, end, attenuation)` of each probe-shift span.
    pub shifts: Vec<(u64, u64, f64)>,
    /// Lowest gain the probe-drift walk reached (1.0 when the walk is
    /// disabled or never moved).
    pub walk_min_gain: f64,
}

impl Default for FaultReport {
    fn default() -> Self {
        FaultReport {
            dropouts: Vec::new(),
            corrupted: Vec::new(),
            gain_steps: Vec::new(),
            shifts: Vec::new(),
            walk_min_gain: 1.0,
        }
    }
}

impl FaultReport {
    /// Folds another report (from a later batch) into this one.
    pub fn merge(&mut self, other: &FaultReport) {
        self.dropouts.extend_from_slice(&other.dropouts);
        self.corrupted.extend_from_slice(&other.corrupted);
        self.gain_steps.extend_from_slice(&other.gain_steps);
        self.shifts.extend_from_slice(&other.shifts);
        self.walk_min_gain = self.walk_min_gain.min(other.walk_min_gain);
    }

    /// Total number of injected fault occurrences (bursts count once;
    /// the continuous probe walk is not an occurrence — see
    /// [`is_clean`](Self::is_clean)).
    pub fn total(&self) -> usize {
        self.dropouts.len() + self.corrupted.len() + self.gain_steps.len() + self.shifts.len()
    }

    /// Whether nothing was injected and the probe never drifted.
    pub fn is_clean(&self) -> bool {
        self.total() == 0 && self.walk_min_gain >= 1.0
    }
}

/// Stateful, seeded fault applicator. Feed it the signal in one call or
/// in arbitrary batches: the faulted output and the (merged) report are
/// bit-identical either way, because every per-sample decision depends
/// only on the seed and the absolute sample position.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Prng,
    gain: f64,
    dropout_left: usize,
    shift_left: usize,
    /// Log-gain of the probe-drift walk, clamped to `[ln(floor), 0]`.
    walk_log: f64,
    position: u64,
}

impl FaultInjector {
    /// Creates an injector for `plan`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        FaultInjector {
            plan,
            rng: Prng::new(seed),
            gain: 1.0,
            dropout_left: 0,
            shift_left: 0,
            walk_log: 0.0,
            position: 0,
        }
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Absolute number of samples processed so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Applies faults to `signal` in place and reports what happened,
    /// advancing the injector's state so subsequent calls continue the
    /// same fault schedule.
    pub fn inject(&mut self, signal: &mut [f64]) -> FaultReport {
        let mut report = FaultReport::default();
        if self.plan.is_none() {
            self.position += signal.len() as u64;
            return report;
        }
        for v in signal.iter_mut() {
            let pos = self.position;
            self.position += 1;
            if self.dropout_left > 0 {
                self.dropout_left -= 1;
                *v = f64::NAN;
                continue;
            }
            if self.rng.next_f64() < self.plan.dropout_rate {
                let len = self
                    .rng
                    .range_usize(self.plan.dropout_len.0, self.plan.dropout_len.1);
                report.dropouts.push((pos, pos + len as u64));
                self.dropout_left = len - 1;
                *v = f64::NAN;
                continue;
            }
            let corrupt = if self.rng.next_f64() < self.plan.corrupt_rate {
                report.corrupted.push(pos);
                Some(CORRUPT_KINDS[(self.rng.next_u64() % 4) as usize])
            } else {
                None
            };
            if self.rng.next_f64() < self.plan.gain_step_rate {
                let factor = self
                    .rng
                    .range_f64(self.plan.gain_range.0, self.plan.gain_range.1);
                self.gain *= factor;
                report.gain_steps.push((pos, factor));
            }
            if self.shift_left == 0 && self.rng.next_f64() < self.plan.shift_rate {
                let len = self
                    .rng
                    .range_usize(self.plan.shift_len.0, self.plan.shift_len.1);
                report
                    .shifts
                    .push((pos, pos + len as u64, self.plan.shift_atten));
                self.shift_left = len;
            }
            *v *= self.gain;
            if self.shift_left > 0 {
                self.shift_left -= 1;
                *v *= self.plan.shift_atten;
            }
            // Probe-drift walk: RNG draws happen only when the walk is
            // enabled, so every pre-existing plan's fault stream is
            // byte-for-byte unchanged by this feature.
            if self.plan.walk_enabled() {
                if self.plan.walk_step > 0.0 {
                    let step = self.plan.walk_step * (self.rng.next_f64() * 2.0 - 1.5);
                    self.walk_log = (self.walk_log + step).clamp(self.plan.walk_floor.ln(), 0.0);
                }
                let g = self.walk_log.exp();
                *v *= g;
                report.walk_min_gain = report.walk_min_gain.min(g);
                if self.plan.walk_noise > 0.0 {
                    *v += self.rng.next_f64() * self.plan.walk_noise;
                }
            }
            if let Some(c) = corrupt {
                *v = c;
            }
        }
        if obs::is_enabled() {
            obs::counter_add!("fault.samples", signal.len() as u64);
            obs::counter_add!("fault.dropouts", report.dropouts.len() as u64);
            obs::counter_add!("fault.corrupted", report.corrupted.len() as u64);
            obs::counter_add!("fault.gain_steps", report.gain_steps.len() as u64);
            obs::counter_add!("fault.shifts", report.shifts.len() as u64);
            if self.plan.walk_enabled() {
                obs::gauge_set!("fault.walk_min_gain", report.walk_min_gain);
            }
        }
        report
    }
}

/// Maps dropout intervals (absolute input coordinates, as reported by
/// [`FaultInjector::inject`]) to the **survivor coordinates** the
/// detector emits events in — the detector skips non-finite samples, so
/// each burst collapses to the single gap position `p` = number of
/// finite samples in `faulted[..start]`.
///
/// `faulted` must be the full faulted signal starting at absolute
/// sample 0. Intervals starting at or past `faulted.len()` are ignored.
pub fn survivor_dropout_points(dropouts: &[(u64, u64)], faulted: &[f64]) -> Vec<usize> {
    let mut sorted: Vec<u64> = dropouts
        .iter()
        .map(|&(s, _)| s)
        .filter(|&s| (s as usize) < faulted.len())
        .collect();
    sorted.sort_unstable();
    let mut points = Vec::with_capacity(sorted.len());
    let mut finite = 0usize;
    let mut cursor = 0usize;
    for start in sorted {
        let start = start as usize;
        finite += faulted[cursor..start]
            .iter()
            .filter(|v| v.is_finite())
            .count();
        cursor = start;
        points.push(finite);
    }
    points.dedup();
    points
}

/// Flags each event whose survivor-coordinate span touches or abuts a
/// collapsed dropout gap (a point from [`survivor_dropout_points`]): a
/// gap at position `p` sits between survivor samples `p - 1` and `p`,
/// and an event over `[start, end]` is degraded when
/// `start <= p <= end + 1`. Returns one flag per event, in order.
pub fn flag_degraded(events: &[StallEvent], gap_points: &[usize]) -> Vec<bool> {
    events
        .iter()
        .map(|e| {
            gap_points
                .iter()
                .any(|&p| e.start_sample <= p && p <= e.end_sample + 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emprof_core::{Confidence, StallKind};

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 97) as f64 / 10.0).collect()
    }

    #[test]
    fn none_plan_is_identity() {
        let mut sig = ramp(4096);
        let orig = sig.clone();
        let report = FaultInjector::new(FaultPlan::none(), 42).inject(&mut sig);
        assert_eq!(sig, orig);
        assert!(report.is_clean());
    }

    #[test]
    fn same_seed_same_faults() {
        let mut a = ramp(20_000);
        let mut b = a.clone();
        let ra = FaultInjector::new(FaultPlan::chaos(), 7).inject(&mut a);
        let rb = FaultInjector::new(FaultPlan::chaos(), 7).inject(&mut b);
        assert_eq!(ra, rb);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(!ra.is_clean(), "chaos plan on 20k samples injected nothing");
    }

    #[test]
    fn different_seed_different_faults() {
        let mut a = ramp(20_000);
        let mut b = a.clone();
        let ra = FaultInjector::new(FaultPlan::chaos(), 1).inject(&mut a);
        let rb = FaultInjector::new(FaultPlan::chaos(), 2).inject(&mut b);
        assert_ne!(ra, rb);
    }

    #[test]
    fn batched_injection_equals_whole() {
        let mut whole = ramp(30_000);
        let mut batched = whole.clone();
        let report_whole = FaultInjector::new(FaultPlan::chaos(), 99).inject(&mut whole);

        let mut inj = FaultInjector::new(FaultPlan::chaos(), 99);
        let mut report_batched = FaultReport::default();
        // Prime-ish batch sizes so dropout bursts straddle boundaries.
        let mut off = 0;
        for len in [1usize, 7, 131, 997, 4999, 30_000] {
            let end = (off + len).min(batched.len());
            report_batched.merge(&inj.inject(&mut batched[off..end]));
            off = end;
            if off == batched.len() {
                break;
            }
        }
        while off < batched.len() {
            let end = (off + 1024).min(batched.len());
            report_batched.merge(&inj.inject(&mut batched[off..end]));
            off = end;
        }
        assert_eq!(report_whole, report_batched);
        assert!(whole
            .iter()
            .zip(&batched)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn dropouts_are_nan_bursts_within_length_bounds() {
        let plan = FaultPlan {
            dropout_rate: 1e-3,
            dropout_len: (4, 16),
            ..FaultPlan::none()
        };
        let mut sig = ramp(50_000);
        let report = FaultInjector::new(plan, 5).inject(&mut sig);
        assert!(!report.dropouts.is_empty());
        for &(s, e) in &report.dropouts {
            let len = (e - s) as usize;
            assert!((4..=16).contains(&len), "burst length {len} out of range");
            for v in &sig[s as usize..(e as usize).min(sig.len())] {
                assert!(v.is_nan());
            }
        }
    }

    #[test]
    fn spec_roundtrip() {
        for plan in [
            FaultPlan::none(),
            FaultPlan::chaos(),
            FaultPlan {
                dropout_rate: 0.01,
                dropout_len: (2, 9),
                ..FaultPlan::none()
            },
            FaultPlan {
                corrupt_rate: 0.5,
                shift_rate: 0.001,
                shift_atten: 0.25,
                shift_len: (10, 20),
                ..FaultPlan::none()
            },
            FaultPlan::probe_walk(),
            FaultPlan {
                walk_step: 1e-4,
                walk_floor: 0.2,
                walk_noise: 0.0,
                ..FaultPlan::chaos()
            },
        ] {
            let spec = plan.to_string();
            let parsed: FaultPlan = spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(parsed, plan, "roundtrip failed for `{spec}`");
        }
    }

    #[test]
    fn spec_parse_presets_and_errors() {
        assert_eq!("none".parse::<FaultPlan>().unwrap(), FaultPlan::none());
        assert_eq!("chaos".parse::<FaultPlan>().unwrap(), FaultPlan::chaos());
        for bad in [
            "",
            "bogus=1",
            "dropout=nope:1..2",
            "dropout=0.5:9..2",
            "corrupt=1.5",
            "gain=0.1:0..1",
            "shift=0.1:zero:1..2",
            "corrupt=0.1:extra",
            "walk=0.1:bad:0.1",
            "walk=0.1:2.0:0.1",
            "walk=0.1:0.5:0.1:extra",
        ] {
            assert!(
                bad.parse::<FaultPlan>().is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn walk_attenuates_within_floor_and_reports_min_gain() {
        // Noise off so each output is exactly input * walk_gain.
        let plan = FaultPlan {
            walk_step: 1e-3,
            walk_floor: 0.3,
            walk_noise: 0.0,
            ..FaultPlan::none()
        };
        let orig = ramp(60_000);
        let mut sig = orig.clone();
        let report = FaultInjector::new(plan, 11).inject(&mut sig);
        assert!(!report.is_clean(), "a long walk should register drift");
        assert!(report.walk_min_gain < 1.0);
        assert!(report.walk_min_gain >= 0.3 - 1e-12);
        for (o, f) in orig.iter().zip(&sig) {
            let g = f / o;
            assert!(
                (0.3 - 1e-12..=1.0 + 1e-12).contains(&g),
                "walk gain {g} escaped [floor, 1]"
            );
        }
    }

    #[test]
    fn walk_noise_rides_on_top_of_attenuation() {
        let plan = FaultPlan {
            walk_step: 0.0,
            walk_floor: 1.0,
            walk_noise: 0.25,
            ..FaultPlan::none()
        };
        let orig = ramp(10_000);
        let mut sig = orig.clone();
        let report = FaultInjector::new(plan, 3).inject(&mut sig);
        // No walk steps: gain stays 1.0 and only additive noise remains.
        assert_eq!(report.walk_min_gain, 1.0);
        let mut moved = 0usize;
        for (o, f) in orig.iter().zip(&sig) {
            let d = f - o;
            assert!((0.0..0.25).contains(&d), "noise {d} outside [0, 0.25)");
            moved += (d > 0.0) as usize;
        }
        assert!(moved > 9_000, "noise draw should move nearly every sample");
    }

    #[test]
    fn batched_walk_equals_whole() {
        let mut whole = ramp(40_000);
        let mut batched = whole.clone();
        let plan = FaultPlan::probe_walk();
        let report_whole = FaultInjector::new(plan.clone(), 17).inject(&mut whole);

        let mut inj = FaultInjector::new(plan, 17);
        let mut report_batched = FaultReport::default();
        let mut off = 0;
        for len in [1usize, 13, 257, 6151, 40_000] {
            let end = (off + len).min(batched.len());
            report_batched.merge(&inj.inject(&mut batched[off..end]));
            off = end;
            if off == batched.len() {
                break;
            }
        }
        assert_eq!(report_whole, report_batched);
        assert!(whole
            .iter()
            .zip(&batched)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn survivor_points_collapse_bursts() {
        // 10 samples; burst [3, 6) → NaN; survivor gap sits at p = 3.
        let mut sig: Vec<f64> = (0..10).map(|i| i as f64).collect();
        for v in &mut sig[3..6] {
            *v = f64::NAN;
        }
        let points = survivor_dropout_points(&[(3, 6)], &sig);
        assert_eq!(points, vec![3]);
    }

    #[test]
    fn degraded_flags_touching_events() {
        let ev = |s: usize, e: usize| StallEvent {
            start_sample: s,
            end_sample: e,
            duration_cycles: 100.0,
            kind: StallKind::Normal,
            confidence: Confidence::High,
        };
        let events = [ev(0, 2), ev(5, 9), ev(20, 25)];
        // Gap at p = 6 is inside the second event only; gap at p = 3 abuts
        // the first event's right edge (end + 1 == 3).
        let flags = flag_degraded(&events, &[3, 6]);
        assert_eq!(flags, vec![true, true, false]);
    }
}
