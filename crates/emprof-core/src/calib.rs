//! Online probe calibration: adaptive normalization and detection
//! thresholds under probe drift (DESIGN.md §15).
//!
//! EMPROF's moving min/max normalization is scale-invariant, so a pure
//! attenuation change (the probe sliding away from the chip) is
//! invisible — **until receiver noise stops being negligible** relative
//! to the attenuated dip contrast. From then on the static detector
//! degrades silently: dipless windows normalize their noise floor across
//! `[0, 1]` and sprout false events, and true dips fragment as their
//! shoulders ride above the fixed threshold. This module makes drift
//! tolerance *active*:
//!
//! * a [`Calibrator`] tracks per-block contrast (dip SNR) and noise
//!   estimates and derives a **parameter schedule** — per-block detection
//!   threshold, edge level, normalization window, and a contrast gate
//!   (see `emprof_signal::fused::detect_runs_range_gated`);
//! * a degraded→recovered **confidence state machine** flags events
//!   detected while the noise fraction is too high to trust, counting
//!   transitions in `detect.confidence.*` telemetry;
//! * the schedule is **causal and block-aligned**: parameters for block
//!   `k` depend only on blocks `0..k`, and change only at fixed absolute
//!   block boundaries. That is what keeps the batch, parallel, and
//!   streaming adaptive paths bit-identical — all three compute the same
//!   schedule and run the same fused kernel over each block with its
//!   parameters, then share the stitcher and the refine/filter/confidence
//!   back half.
//!
//! With [`CalibConfig::enabled`]` == false` (the default) none of this
//! code runs and every detector path is bit-identical to the static
//! detector.

use std::collections::VecDeque;
use std::ops::Range;

use emprof_obs as obs;

use crate::config::EmprofConfig;
use crate::detect::check_then_sanitize;
use crate::profile::{Confidence, StallEvent};
use crate::Emprof;

/// Converts the mean absolute successive difference of a block into a
/// peak-to-peak noise-span estimate. For i.i.d. uniform noise of span
/// `2a`, successive differences average `2a/3`, so the factor is 3.
const NOISE_SPAN_FACTOR: f64 = 3.0;

/// How many recent block ranges the dip-contrast estimator keeps: the
/// max over this ring tracks the contrast of dip-bearing windows while
/// staying robust to dipless blocks (whose range is pure noise).
const CONTRAST_RING: usize = 8;

/// Configuration of the online calibration loop ([`Calibrator`]).
///
/// Carried inside [`EmprofConfig`]; [`CalibConfig::off`] (the default)
/// disables adaptation entirely and keeps every detector path
/// bit-identical to the static detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibConfig {
    /// Master switch. Off by default.
    pub enabled: bool,
    /// Calibration block length in samples; parameters are constant
    /// within a block and may change only at block boundaries. `0` means
    /// "use the normalization window".
    pub block_samples: usize,
    /// EWMA weight given to each new block's statistics, in `(0, 1]`.
    pub ewma_weight: f64,
    /// Safety pad added to the measured noise fraction when raising the
    /// detection threshold.
    pub threshold_pad: f64,
    /// Ceiling for the adapted detection threshold, in `(0, 1)`.
    pub threshold_max: f64,
    /// Contrast gate as a fraction of the recent dip-contrast estimate:
    /// windows whose range falls below `gate_fraction * contrast` are
    /// treated as dipless and normalize flat. `0` disables the gate.
    pub gate_fraction: f64,
    /// Noise fraction at or above which the confidence state machine
    /// enters `Degraded`.
    pub degraded_enter: f64,
    /// Noise fraction at or below which it recovers to `High`
    /// (hysteresis: must be `<= degraded_enter`).
    pub degraded_exit: f64,
    /// Floor for the adapted normalization window, in samples.
    pub window_min: usize,
    /// Busy-level drift per block (relative) above which the
    /// normalization window shrinks — fast drift inside one window
    /// inflates the min/max range with fake contrast, so the window
    /// contracts until the drift it spans is back under this tolerance.
    pub drift_tolerance: f64,
}

impl CalibConfig {
    /// Adaptation disabled (the default): the static detector, bit for
    /// bit.
    pub fn off() -> Self {
        CalibConfig {
            enabled: false,
            ..CalibConfig::adaptive()
        }
    }

    /// Adaptation enabled with the tuned defaults.
    pub fn adaptive() -> Self {
        CalibConfig {
            enabled: true,
            block_samples: 0,
            ewma_weight: 0.25,
            threshold_pad: 0.05,
            threshold_max: 0.75,
            gate_fraction: 0.45,
            degraded_enter: 0.45,
            degraded_exit: 0.30,
            window_min: 256,
            drift_tolerance: 0.2,
        }
    }

    /// The resolved block length for a given normalization window.
    pub(crate) fn block(&self, norm_window: usize) -> usize {
        if self.block_samples == 0 {
            norm_window.max(1)
        } else {
            self.block_samples
        }
    }

    /// Validates the parameters (called from [`EmprofConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.ewma_weight && self.ewma_weight <= 1.0) {
            return Err(format!(
                "calibration EWMA weight must be in (0, 1], got {}",
                self.ewma_weight
            ));
        }
        if !(0.0 < self.threshold_max && self.threshold_max < 1.0) {
            return Err(format!(
                "adaptive threshold ceiling must be in (0, 1), got {}",
                self.threshold_max
            ));
        }
        if !(self.threshold_pad >= 0.0 && self.threshold_pad.is_finite()) {
            return Err(format!(
                "threshold pad must be finite and non-negative, got {}",
                self.threshold_pad
            ));
        }
        if !(0.0..=1.0).contains(&self.gate_fraction) {
            return Err(format!(
                "contrast gate fraction must be in [0, 1], got {}",
                self.gate_fraction
            ));
        }
        if !(0.0 < self.degraded_exit
            && self.degraded_exit <= self.degraded_enter
            && self.degraded_enter <= 1.0)
        {
            return Err(format!(
                "degraded hysteresis must satisfy 0 < exit <= enter <= 1, got exit {} enter {}",
                self.degraded_exit, self.degraded_enter
            ));
        }
        if self.window_min == 0 {
            return Err("adaptive window floor must be nonzero".into());
        }
        if !(self.drift_tolerance > 0.0 && self.drift_tolerance.is_finite()) {
            return Err(format!(
                "drift tolerance must be positive, got {}",
                self.drift_tolerance
            ));
        }
        Ok(())
    }
}

/// Detector parameters in force for one calibration block. Derived
/// causally from the blocks before it, so every detector path computes
/// the identical schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockParams {
    /// Normalization window for this block, in samples.
    pub window: usize,
    /// Detection threshold for this block.
    pub threshold: f64,
    /// Edge-refinement level for this block.
    pub edge_level: f64,
    /// Contrast gate: windows with `max - min <= min_range` normalize
    /// flat (see `detect_runs_range_gated`).
    pub min_range: f64,
    /// Whether the confidence state machine is in the degraded state for
    /// this block; events ending here carry [`Confidence::Degraded`].
    pub degraded: bool,
}

impl BlockParams {
    /// The static detector's parameters: the base window, threshold and
    /// edge level, with no contrast gate. A static configuration is the
    /// constant schedule of these; the adaptive one starts from them.
    pub(crate) fn base(config: &EmprofConfig) -> Self {
        BlockParams {
            window: config.norm_window_samples,
            threshold: config.threshold,
            edge_level: config.edge_level,
            min_range: 0.0,
            degraded: false,
        }
    }
}

/// The online calibration loop: feed it a signal's blocks in order (the
/// batch path plans them with `extend_schedule`, the streaming one with
/// `observe_stream`), read the parameters for the *next* block via
/// [`params`](Calibrator::params).
///
/// Before the first observed block it returns the base (static)
/// configuration, which makes the schedule causal: block `k`'s
/// parameters depend only on blocks `0..k`.
#[derive(Debug, Clone)]
pub struct Calibrator {
    cfg: CalibConfig,
    base: BlockParams,
    /// `edge_level - threshold` of the base config, preserved as the
    /// adapted threshold rises.
    edge_margin: f64,
    inited: bool,
    /// Recent block ranges; the max estimates dip contrast.
    ranges: VecDeque<f64>,
    /// EWMA of the per-block mean absolute successive difference.
    noise_ew: f64,
    /// Previous block's maximum (busy level), for drift estimation.
    hi_prev: f64,
    /// EWMA of relative busy-level drift per block.
    drift_ew: f64,
    degraded: bool,
    /// degraded→ / →recovered transition counts (mirrors the
    /// `detect.confidence.*` counters, for direct inspection).
    pub transitions: (u64, u64),
    /// The stream's block still arriving, and the samples in the blocks
    /// before it ([`observe_stream`](Calibrator::observe_stream)).
    open: BlockStats,
    streamed: usize,
}

/// One range of a detection schedule and the parameters in force over
/// it.
pub(crate) type Block = (Range<usize>, BlockParams);

/// Statistics of one calibration block, folded in sample by sample, in
/// order.
#[derive(Debug, Clone, Copy, Default)]
struct BlockStats {
    len: usize,
    hi: f64,
    lo: f64,
    /// Sum of absolute successive differences, and the last sample.
    acc: f64,
    prev: f64,
}

impl BlockStats {
    fn push(&mut self, v: f64) {
        if self.len == 0 {
            (self.hi, self.lo) = (v, v);
        } else {
            if v > self.hi {
                self.hi = v;
            }
            if v < self.lo {
                self.lo = v;
            }
            self.acc += (v - self.prev).abs();
        }
        self.prev = v;
        self.len += 1;
    }
}

impl Calibrator {
    /// Creates a calibrator for the given detector configuration.
    pub fn new(config: &EmprofConfig) -> Self {
        Calibrator {
            cfg: config.calib,
            base: BlockParams::base(config),
            edge_margin: config.edge_level - config.threshold,
            inited: false,
            ranges: VecDeque::with_capacity(CONTRAST_RING),
            noise_ew: 0.0,
            hi_prev: 0.0,
            drift_ew: 0.0,
            degraded: false,
            transitions: (0, 0),
            open: BlockStats::default(),
            streamed: 0,
        }
    }

    /// Recent dip-contrast estimate: the max block range over the ring.
    fn contrast(&self) -> f64 {
        self.ranges.iter().copied().fold(0.0, f64::max)
    }

    /// Estimated peak-to-peak noise span.
    fn noise_span(&self) -> f64 {
        NOISE_SPAN_FACTOR * self.noise_ew
    }

    /// Noise span as a fraction of the dip contrast, in `[0, 1]`.
    pub fn noise_fraction(&self) -> f64 {
        let c = self.contrast();
        if c > 0.0 {
            (self.noise_span() / c).min(1.0)
        } else {
            0.0
        }
    }

    /// Parameters for the next (not yet observed) block.
    pub fn params(&self) -> BlockParams {
        let base = self.base;
        if !self.inited {
            return base;
        }
        let q = self.noise_fraction();
        let threshold = (q + self.cfg.threshold_pad)
            .clamp(base.threshold, self.cfg.threshold_max.max(base.threshold));
        let edge_level = (threshold + self.edge_margin).min(0.95).max(threshold);
        // Fast drift inflates a window's min/max range with fake
        // contrast; shrink the window until the drift it spans is back
        // under tolerance. The window only ever shrinks from the base,
        // which also bounds the lookahead every path needs.
        let block = self.cfg.block(base.window) as f64;
        let drift_per_sample = self.drift_ew / block;
        let window = if drift_per_sample * (base.window as f64) > self.cfg.drift_tolerance {
            let fit = (self.cfg.drift_tolerance / drift_per_sample) as usize;
            fit.clamp(self.cfg.window_min.min(base.window), base.window)
        } else {
            base.window
        };
        BlockParams {
            window,
            threshold,
            edge_level,
            min_range: self.cfg.gate_fraction * self.contrast(),
            degraded: self.degraded,
        }
    }

    /// Folds one completed block of samples into the estimates and steps
    /// the confidence state machine, or returns `Err(i)` when `block[i]`
    /// is the block's first non-finite sample: such a block is not
    /// folded, as it would poison every estimate. Blocks must be fed in
    /// order. The check rides on the pass that reads the block and fails
    /// before any state changes.
    fn try_observe_block(&mut self, block: &[f64]) -> Result<(), usize> {
        let mut stats = BlockStats::default();
        for (i, &v) in block.iter().enumerate() {
            if !v.is_finite() {
                return Err(i);
            }
            stats.push(v);
        }
        self.fold(stats);
        Ok(())
    }

    /// Folds a completed block's statistics into the estimates and steps
    /// the confidence state machine; an empty block changes nothing.
    fn fold(&mut self, block: BlockStats) {
        if block.len == 0 {
            return;
        }
        let range = block.hi - block.lo;
        let masd = if block.len > 1 {
            block.acc / (block.len - 1) as f64
        } else {
            0.0
        };
        if self.ranges.len() == CONTRAST_RING {
            self.ranges.pop_front();
        }
        self.ranges.push_back(range);
        let a = self.cfg.ewma_weight;
        if !self.inited {
            self.noise_ew = masd;
            self.hi_prev = block.hi;
            self.drift_ew = 0.0;
            self.inited = true;
        } else {
            self.noise_ew += a * (masd - self.noise_ew);
            let denom = self.hi_prev.abs().max(1e-12);
            let drift = (block.hi - self.hi_prev).abs() / denom;
            self.drift_ew += a * (drift - self.drift_ew);
            self.hi_prev = block.hi;
        }
        let q = self.noise_fraction();
        if !self.degraded && q >= self.cfg.degraded_enter {
            self.degraded = true;
            self.transitions.0 += 1;
            obs::counter_add!("detect.confidence.degraded", 1);
        } else if self.degraded && q <= self.cfg.degraded_exit {
            self.degraded = false;
            self.transitions.1 += 1;
            obs::counter_add!("detect.confidence.recovered", 1);
        }
        if obs::is_enabled() {
            obs::counter_add!("calib.blocks", 1);
            obs::gauge_set!("calib.noise_fraction", q);
            let p = self.params();
            obs::gauge_set!("calib.threshold", p.threshold);
            obs::gauge_set!("calib.window", p.window as f64);
            obs::gauge_set!("calib.min_range", p.min_range);
        }
    }

    /// Observes the next (finite) samples of a stream cut into
    /// calibration blocks from its start, as they arrive: each block is
    /// folded in with its last sample, and the next block's range and
    /// parameters are appended to `schedule` — the same blocks and
    /// parameters [`extend_schedule`](Calibrator::extend_schedule)
    /// plans. Does nothing with calibration off.
    pub(crate) fn observe_stream(&mut self, samples: &[f64], schedule: &mut VecDeque<Block>) {
        if !self.cfg.enabled {
            return;
        }
        let block = self.cfg.block(self.base.window);
        for &v in samples {
            self.open.push(v);
            if self.open.len == block {
                let done = std::mem::take(&mut self.open);
                self.fold(done);
                self.streamed += block;
                schedule.push_back((self.streamed..self.streamed + block, self.params()));
            }
        }
    }

    /// Folds the stream's last, partial block: the end of the stream
    /// completes it.
    pub(crate) fn finish_stream(&mut self) {
        let last = std::mem::take(&mut self.open);
        self.fold(last);
    }

    /// Extends the causal schedule over `signal`, resuming at block
    /// `schedule.len()`: entry `k` governs samples
    /// `[k * block, (k + 1) * block)` and holds the parameters in force
    /// before block `k` was observed. `Err(i)` when `signal[i]` is the
    /// first non-finite sample; the blocks before its block stay planned
    /// and observed, so a rerun on the survivors — identical up to that
    /// block — resumes there without observing, or counting, any block
    /// twice.
    pub(crate) fn extend_schedule(
        &mut self,
        schedule: &mut Vec<BlockParams>,
        signal: &[f64],
    ) -> Result<(), usize> {
        let block = self.cfg.block(self.base.window);
        for start in (schedule.len() * block..signal.len()).step_by(block) {
            let params = self.params();
            let end = (start + block).min(signal.len());
            self.try_observe_block(&signal[start..end])
                .map_err(|i| start + i)?;
            schedule.push(params);
        }
        Ok(())
    }

    /// Whether the state machine currently reports degraded confidence.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

/// Which calibration blocks the confidence state machine had degraded:
/// flag `k` covers samples `[k * block, (k + 1) * block)`. Empty for the
/// static detector.
#[derive(Debug, Clone, Default)]
pub(crate) struct DegradedBlocks {
    block: usize,
    flags: Vec<bool>,
}

impl DegradedBlocks {
    /// No blocks yet, for calibration blocks of `block` samples.
    pub(crate) fn new(block: usize) -> Self {
        DegradedBlocks {
            block,
            flags: Vec::new(),
        }
    }

    /// Records the next block's state.
    pub(crate) fn push(&mut self, degraded: bool) {
        self.flags.push(degraded);
    }

    /// The confidence rule. An event over `[start, end)` is degraded
    /// when it touches a collapsed dropout gap — a point `p` of the
    /// ascending `gaps` with `start <= p <= end + 1`, the
    /// `emprof_fault::flag_degraded` criterion — or when it ends in a
    /// block the state machine had degraded. Judging by the block of the
    /// event's *end* lets an in-place merge, which only moves the end,
    /// recompute the mark exactly as the final-extent batch pass does.
    pub(crate) fn confidence(
        &self,
        gaps: impl IntoIterator<Item = usize>,
        start: usize,
        end: usize,
    ) -> Confidence {
        let touches_gap = gaps
            .into_iter()
            .take_while(|&p| p <= end + 1)
            .any(|p| start <= p);
        let degraded_block = !self.flags.is_empty()
            && self.flags[(end.saturating_sub(1) / self.block).min(self.flags.len() - 1)];
        if touches_gap || degraded_block {
            Confidence::Degraded
        } else {
            Confidence::High
        }
    }

    /// Applies [`confidence`](DegradedBlocks::confidence) to sorted
    /// events against the ascending gap points, in one forward pass.
    pub(crate) fn mark(&self, events: &mut [StallEvent], gaps: &[usize]) {
        let mut cursor = 0usize;
        for e in events {
            while cursor < gaps.len() && gaps[cursor] + 1 < e.start_sample {
                cursor += 1;
            }
            e.confidence =
                self.confidence(gaps[cursor..].iter().copied(), e.start_sample, e.end_sample);
        }
    }
}

impl Emprof {
    /// The per-block parameter schedule the adaptive detector would use
    /// on `magnitude` (non-finite samples dropped first) — entry `k`
    /// governs samples `[k * block, (k + 1) * block)` of the survivor
    /// signal. Exposed for inspection and tests; detection itself goes
    /// through [`Emprof::profile_magnitude`] with
    /// [`CalibConfig::enabled`] set.
    pub fn calibration_schedule(&self, magnitude: &[f64]) -> Vec<BlockParams> {
        let mut cal = Calibrator::new(&self.config());
        let mut schedule = Vec::new();
        check_then_sanitize(magnitude, |signal| {
            cal.extend_schedule(&mut schedule, signal)
        });
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StallKind;

    fn base_config() -> EmprofConfig {
        let mut c = EmprofConfig::for_rates(40e6, 1.0e9);
        c.calib = CalibConfig::adaptive();
        c
    }

    #[test]
    fn first_block_uses_base_parameters() {
        let cal = Calibrator::new(&base_config());
        let p = cal.params();
        assert_eq!(p.window, 2000);
        assert!((p.threshold - 0.35).abs() < 1e-12);
        assert_eq!(p.min_range, 0.0);
        assert!(!p.degraded);
    }

    #[test]
    fn noisy_attenuated_blocks_raise_threshold_and_enter_degraded() {
        let cfg = base_config();
        let mut cal = Calibrator::new(&cfg);
        // Establish contrast: a dip-bearing clean block, range ~5.
        let mut blk: Vec<f64> = vec![5.0; 2000];
        for v in blk.iter_mut().skip(400).take(12) {
            *v = 0.5;
        }
        cal.try_observe_block(&blk).unwrap();
        let clean = cal.params();
        assert!((clean.threshold - 0.35).abs() < 1e-9, "clean stays at base");
        assert!(!clean.degraded);
        // Heavy attenuation + noise: contrast collapses toward the noise
        // span, the noise fraction rises, threshold tracks up, and the
        // state machine degrades.
        for r in 0..CONTRAST_RING + 4 {
            let noisy: Vec<f64> = (0..2000)
                .map(|i| {
                    let noise = ((i * 2_654_435_761usize + r) % 1000) as f64 / 1000.0 * 0.4;
                    let dip = if (400..412).contains(&i) { 0.02 } else { 0.25 };
                    dip + noise
                })
                .collect();
            cal.try_observe_block(&noisy).unwrap();
        }
        let p = cal.params();
        assert!(
            p.threshold > 0.4,
            "threshold did not adapt: {}",
            p.threshold
        );
        assert!(p.edge_level >= p.threshold);
        assert!(p.min_range > 0.0, "contrast gate not engaged");
        assert!(cal.is_degraded());
        assert_eq!(cal.transitions.0, 1);
        // Recovery: clean contrast returns.
        for _ in 0..CONTRAST_RING + 4 {
            let mut blk: Vec<f64> = vec![5.0; 2000];
            for v in blk.iter_mut().skip(400).take(12) {
                *v = 0.5;
            }
            cal.try_observe_block(&blk).unwrap();
        }
        assert!(!cal.is_degraded(), "state machine never recovered");
        assert_eq!(cal.transitions.1, 1);
    }

    #[test]
    fn fast_drift_shrinks_window() {
        let cfg = base_config();
        let mut cal = Calibrator::new(&cfg);
        // Busy level halving every block: enormous drift.
        let mut level = 8.0;
        for _ in 0..6 {
            let blk: Vec<f64> = vec![level; 2000];
            cal.try_observe_block(&blk).unwrap();
            level *= 0.5;
        }
        let p = cal.params();
        assert!(
            p.window < cfg.norm_window_samples,
            "window did not shrink: {}",
            p.window
        );
        assert!(p.window >= cfg.calib.window_min);
    }

    #[test]
    fn schedule_is_causal_prefix_stable() {
        // The schedule over a prefix must be a prefix of the schedule
        // over the whole signal — the property the streaming path needs.
        let cfg = base_config();
        let signal: Vec<f64> = (0..20_000)
            .map(|i| {
                let atten = 1.0 - 0.8 * (i as f64 / 20_000.0);
                5.0 * atten + ((i * 2_654_435_761usize) % 1000) as f64 / 1000.0 * 0.2
            })
            .collect();
        let e = Emprof::new(cfg);
        let full = e.calibration_schedule(&signal);
        let prefix = e.calibration_schedule(&signal[..8_000]);
        assert_eq!(&full[..prefix.len() - 1], &prefix[..prefix.len() - 1]);
    }

    #[test]
    fn gap_marking_matches_flag_criterion() {
        let ev = |s: usize, e: usize| StallEvent {
            start_sample: s,
            end_sample: e,
            duration_cycles: 100.0,
            kind: StallKind::Normal,
            confidence: Confidence::High,
        };
        let mut events = [ev(0, 2), ev(5, 9), ev(20, 25)];
        DegradedBlocks::default().mark(&mut events, &[3, 6]);
        assert_eq!(events[0].confidence, Confidence::Degraded);
        assert_eq!(events[1].confidence, Confidence::Degraded);
        assert_eq!(events[2].confidence, Confidence::High);
    }

    #[test]
    fn block_marks_follow_the_event_end() {
        // Blocks of 10 samples; block 1 degraded. An event is judged by
        // the block holding its last sample, gaps or not.
        let mut marks = DegradedBlocks::new(10);
        for degraded in [false, true, false] {
            marks.push(degraded);
        }
        let none = std::iter::empty();
        assert_eq!(marks.confidence(none.clone(), 5, 10), Confidence::High);
        assert_eq!(marks.confidence(none.clone(), 5, 11), Confidence::Degraded);
        assert_eq!(marks.confidence(none.clone(), 15, 21), Confidence::High);
        // Past the last recorded block, the last block's state holds.
        assert_eq!(marks.confidence(none, 40, 45), Confidence::High);
        assert_eq!(marks.confidence([46], 40, 45), Confidence::Degraded);
        assert_eq!(marks.confidence([47], 40, 45), Confidence::High);
    }
}
