//! Streaming (online) EMPROF.
//!
//! The paper's SPEC captures already exceed what a spectrum analyzer can
//! buffer ("the N9020A MXA has a limit on how long it can continuously
//! record a signal", Section VI), and a deployed profiler would watch a
//! device for hours. This module runs the EMPROF pipeline incrementally:
//! samples are pushed as they arrive, completed stall events are emitted
//! as soon as they can no longer change, and memory use is bounded by the
//! normalization window — independent of capture length.
//!
//! The streaming detector is *exactly equivalent* to the batch detector
//! on the interior of a capture: it computes the same centered moving
//! min/max, the same thresholding, merging, and edge refinement. (At the
//! very edges of a finite capture the batch detector sees truncated
//! windows; feed the same finite signal through [`StreamingEmprof`] and
//! the results match the batch profile event for event — see the
//! equivalence tests.)
//!
//! Static detection is one [`FusedPass`] resumed across every pushed
//! slice, so each sample is read once by the same kernel loop the batch
//! detector runs; adaptive detection runs the gated kernel once per
//! calibration block. Both hand their runs to one shared back half:
//! stitch, refine from the below-edge run list, abut-merge, filter and
//! emit (DESIGN.md §13).

use std::collections::VecDeque;
use std::time::Instant;

use emprof_obs as obs;
use emprof_signal::fused::{self, FusedPass, LevelRuns};

use crate::calib::{BlockParams, Calibrator};
use crate::config::EmprofConfig;
use crate::profile::{Confidence, Profile, StallEvent, StallKind};

/// How many pushed samples accumulate between telemetry flushes. Pushing
/// is the hot path, so the `detect.samples` counter and the streaming
/// gauges are updated in batches rather than per sample.
const OBS_FLUSH_INTERVAL: usize = 65_536;

/// A point-in-time view of a [`StreamingEmprof`]'s progress, from
/// [`StreamingEmprof::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingStats {
    /// Total magnitude samples pushed so far.
    pub samples_pushed: usize,
    /// Stall events finalized so far (drained or not).
    pub events_emitted: usize,
    /// Non-finite samples rejected at the ingest boundary (see
    /// [`StreamingEmprof::push`]).
    pub samples_rejected: usize,
    /// Current buffered-memory footprint in samples.
    pub buffered_samples: usize,
    /// Observed ingest throughput in samples per second of wall time;
    /// `None` before the first sample arrives.
    pub samples_per_sec: Option<f64>,
}

/// Incremental EMPROF detector with bounded memory.
///
/// # Example
///
/// ```
/// use emprof_core::{EmprofConfig, StreamingEmprof};
///
/// let mut s = StreamingEmprof::new(EmprofConfig::for_rates(40e6, 1.0e9), 40e6, 1.0e9);
/// // Push a busy signal with one 12-sample stall dip.
/// for i in 0..30_000 {
///     let v = if (15_000..15_012).contains(&i) { 0.8 } else { 5.0 };
///     s.push(v);
/// }
/// let profile = s.finish();
/// assert_eq!(profile.miss_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEmprof {
    config: EmprofConfig,
    sample_rate_hz: f64,
    clock_hz: f64,
    /// How detection runs: one resumed fused pass (static) or per-block
    /// gated kernel calls (adaptive).
    engine: Engine,
    /// Buffered survivor samples from `buf_base` on — what the kernel
    /// has yet to read, plus (static) the samples it has read but whose
    /// centered window is not complete yet.
    buf: Vec<f64>,
    buf_base: usize,
    /// Total samples pushed (accepted).
    pushed: usize,
    /// Detection frontier: positions in `[0, position)` have been
    /// normalized and scanned by the kernel.
    position: usize,
    /// Kernel output, reused across calls.
    runs: LevelRuns,
    /// Stitched below-threshold runs (batch merge criterion applied)
    /// awaiting finality, as `(start, end, first_end)`: `first_end` is
    /// where the first kernel run merged into it ends, the first sample
    /// after `start` at or above threshold.
    pending: VecDeque<(usize, usize, usize)>,
    /// Stitched below-edge runs (gap-0 rejoin across kernel cuts); the
    /// last run is always retained — it may still be growing.
    edge_runs: VecDeque<(usize, usize)>,
    /// Finished events ready for the caller.
    events: Vec<StallEvent>,
    /// The most recent refined run as `(start, end, represented)`,
    /// *before* the duration filter. Batch applies the filter after its
    /// final abut-merge pass, so a run too short to be an event on its own
    /// can still extend (or seed) one when a later run abuts it;
    /// `represented` records whether the run currently has an entry in
    /// `events`.
    last_run: Option<(usize, usize, bool)>,
    /// Events already drained via [`StreamingEmprof::drain_events`].
    drained: usize,
    /// Non-finite samples rejected at the ingest boundary.
    rejected: usize,
    /// Whether the most recent refined run ended on a normalized sample
    /// at or above `edge_level`. A cleanly-ended run can never be merged
    /// into by a later dip (that sample blocks left refinement), so its
    /// event — if any — is immutable; a clipped run is still growing and
    /// its event must not be drained yet.
    tail_sealed: bool,
    /// Wall-clock instant of the first push, for throughput reporting.
    started_at: Option<Instant>,
    /// Samples pushed since the last telemetry flush.
    unflushed: usize,
    /// Survivor positions where runs of rejected samples collapsed out
    /// (the `survivor_dropout_points` convention, deduplicated). Events
    /// touching one carry [`Confidence::Degraded`]; trimmed once no
    /// future or still-mutable event can reach back to them.
    gaps: VecDeque<usize>,
    /// Calibration block length (meaningful in adaptive mode).
    calib_block: usize,
    /// Per processed calibration block: was the confidence state machine
    /// degraded? Indexed by block; an event is degraded by the block its
    /// *end* falls in, so in-place merges recompute consistently with
    /// the batch final-extent computation. One bool per ~window samples.
    block_degraded: Vec<bool>,
}

/// The detection engine behind a [`StreamingEmprof`].
#[derive(Debug, Clone)]
enum Engine {
    /// Fixed window and threshold: one [`FusedPass`] resumed across
    /// every pushed slice, cut at the frontier after each one.
    Static(FusedPass),
    /// Online calibration (`config.calib.enabled`).
    Adaptive(AdaptiveState),
}

/// Streaming state of the adaptive (calibrated) detector. The stream is
/// cut into the same absolute calibration blocks as the batch schedule;
/// each block, once its right normalization context is buffered, runs
/// through `fused::detect_runs_range_gated` with the causally-computed
/// [`BlockParams`], and the resulting runs are stitched exactly like the
/// parallel detector's seams. Everything downstream (refinement,
/// merge/duration/classify, drain sealing) is shared with the static
/// engine.
#[derive(Debug, Clone)]
struct AdaptiveState {
    /// Calibration block length in samples.
    block: usize,
    /// Half the *base* normalization window — the uniform lookahead.
    /// Adaptation only ever shrinks the window, so buffering `half`
    /// samples past a block suffices for any adapted window.
    half: usize,
    cal: Calibrator,
    /// Parameters for block `next_block` (causal: computed from the
    /// blocks before it).
    cur: BlockParams,
    next_block: usize,
}

impl AdaptiveState {
    /// Runs block `next_block` through the gated fused kernel with its
    /// causal [`BlockParams`] — identical inputs to the batch adaptive
    /// path's per-block kernel call, by construction — appending its
    /// runs to `runs` in global coordinates. Observes the block for the
    /// calibrator, trims `buf` to what the next block's window can
    /// reach, and returns the new detection frontier.
    fn run_block(
        &mut self,
        buf: &mut Vec<f64>,
        buf_base: &mut usize,
        pushed: usize,
        runs: &mut LevelRuns,
        block_degraded: &mut Vec<bool>,
    ) -> usize {
        let start = self.next_block * self.block;
        // Truncated only at the true end of the capture (finish), which
        // is exactly when the batch kernel's window clips there too.
        let end = (start + self.block).min(pushed);
        let p = self.cur;
        let base = *buf_base;
        let block_runs = fused::detect_runs_range_gated(
            buf,
            p.window,
            p.threshold,
            p.edge_level,
            p.min_range,
            start - base,
            end - base,
            None,
        )
        .expect("rejection happens at ingest; the buffer is finite");
        let global = |&(s, e): &(usize, usize)| (s + base, e + base);
        let (th, ed) = (&block_runs.below_threshold, &block_runs.below_edge);
        runs.below_threshold.extend(th.iter().map(global));
        runs.below_edge.extend(ed.iter().map(global));
        self.cal.observe_block(&buf[start - base..end - base]);
        block_degraded.push(p.degraded);
        self.next_block += 1;
        self.cur = self.cal.params();
        // During `finish` the final right-truncated block can place the
        // nominal trim point past the capture end, so clamp to what was
        // pushed.
        let keep_from = (self.next_block * self.block)
            .saturating_sub(self.half)
            .min(pushed)
            .max(base);
        buf.drain(..keep_from - base);
        *buf_base = keep_from;
        end
    }
}

impl StreamingEmprof {
    /// Creates a streaming detector.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EmprofConfig::validate`] or a
    /// rate is not positive.
    pub fn new(config: EmprofConfig, sample_rate_hz: f64, clock_hz: f64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid EMPROF configuration: {e}"));
        assert!(
            sample_rate_hz > 0.0 && clock_hz > 0.0,
            "rates must be positive"
        );
        let calib_block = config.calib.block(config.norm_window_samples).max(1);
        let engine = if config.calib.enabled {
            let cal = Calibrator::new(&config);
            let cur = cal.params();
            Engine::Adaptive(AdaptiveState {
                block: calib_block,
                half: config.norm_window_samples / 2,
                cal,
                cur,
                next_block: 0,
            })
        } else {
            // The static configuration is the constant schedule: base
            // window and threshold, no contrast gate.
            Engine::Static(FusedPass::new(
                config.norm_window_samples,
                config.threshold,
                config.edge_level,
                0.0,
                0..usize::MAX,
            ))
        };
        StreamingEmprof {
            config,
            sample_rate_hz,
            clock_hz,
            engine,
            buf: Vec::new(),
            buf_base: 0,
            pushed: 0,
            position: 0,
            runs: LevelRuns::default(),
            pending: VecDeque::new(),
            edge_runs: VecDeque::new(),
            events: Vec::new(),
            last_run: None,
            drained: 0,
            rejected: 0,
            tail_sealed: true,
            started_at: None,
            unflushed: 0,
            gaps: VecDeque::new(),
            calib_block,
            block_degraded: Vec::new(),
        }
    }

    /// Core cycles per capture sample.
    pub fn cycles_per_sample(&self) -> f64 {
        self.clock_hz / self.sample_rate_hz
    }

    /// The detector configuration this stream was built with.
    pub fn config(&self) -> EmprofConfig {
        self.config
    }

    /// The capture sample rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// The profiled core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Pushes one magnitude sample: a one-element
    /// [`extend_from_slice`](StreamingEmprof::extend_from_slice).
    ///
    /// Non-finite samples (NaN, ±inf) are **rejected, not processed**:
    /// a single NaN would otherwise lodge permanently in the moving
    /// min/max wedges and poison every window that sees it. Rejected
    /// samples are counted (`detect.samples_rejected` telemetry,
    /// [`samples_rejected`](StreamingEmprof::samples_rejected)) and the
    /// detector proceeds on the surviving subsequence — all event
    /// indices are positions within the *accepted* samples, identical
    /// to running the batch detector on the pre-filtered signal.
    pub fn push(&mut self, value: f64) {
        self.extend_from_slice(&[value]);
    }

    /// Pushes a batch of samples, in slices of up to 1024.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, samples: I) {
        let mut chunk = [0.0; 1024];
        let mut n = 0;
        for s in samples {
            chunk[n] = s;
            n += 1;
            if n == chunk.len() {
                self.extend_from_slice(&chunk);
                n = 0;
            }
        }
        self.extend_from_slice(&chunk[..n]);
    }

    /// Pushes a batch of samples from a slice — the server ingest
    /// hot-path entry point. Any split of a signal into slices gives the
    /// same events; with a fixed threshold it also gives the same drained
    /// events at every slice boundary.
    pub fn extend_from_slice(&mut self, samples: &[f64]) {
        let before = self.buf.len();
        if samples.iter().all(|v| v.is_finite()) {
            self.buf.extend_from_slice(samples);
        } else {
            for &v in samples {
                if v.is_finite() {
                    self.buf.push(v);
                    continue;
                }
                // Record where the gap collapsed to in survivor
                // coordinates (one point per contiguous run of
                // rejections): events touching it are demoted to
                // degraded confidence.
                let at = self.buf_base + self.buf.len();
                if self.gaps.back() != Some(&at) {
                    self.gaps.push_back(at);
                }
            }
            let rejected = samples.len() - (self.buf.len() - before);
            self.rejected += rejected;
            obs::counter_add!("detect.samples_rejected", rejected as u64);
        }
        let accepted = self.buf.len() - before;
        if accepted == 0 {
            return;
        }
        if self.started_at.is_none() {
            self.started_at = Some(Instant::now());
        }
        self.pushed += accepted;
        match &mut self.engine {
            Engine::Static(pass) => {
                pass.feed(&self.buf, self.buf_base, &mut self.runs)
                    .expect("rejection happens at ingest; the buffer is finite");
                pass.cut(&mut self.runs);
                self.position = pass.next_output();
                // Drop what the pass will never read again, amortized:
                // only once the dead prefix outweighs the live samples.
                let dead = pass.first_needed() - self.buf_base;
                if 2 * dead >= self.buf.len() {
                    self.buf.drain(..dead);
                    self.buf_base += dead;
                }
            }
            Engine::Adaptive(ad) => {
                while (ad.next_block + 1) * ad.block + ad.half <= self.pushed {
                    self.position = ad.run_block(
                        &mut self.buf,
                        &mut self.buf_base,
                        self.pushed,
                        &mut self.runs,
                        &mut self.block_degraded,
                    );
                }
            }
        }
        self.stitch();
        self.process_pending(false);
        self.unflushed += accepted;
        if self.unflushed >= OBS_FLUSH_INTERVAL {
            self.flush_obs();
        }
    }

    /// Moves the kernel's fresh runs onto the pending lists with the
    /// parallel detector's seam rules: below-threshold runs merge across
    /// gaps of at most `merge_gap_samples` (the batch merge criterion),
    /// below-edge runs rejoin where they meet exactly at a kernel cut.
    fn stitch(&mut self) {
        let gap = self.config.merge_gap_samples;
        for &(s, e) in &self.runs.below_threshold {
            match self.pending.back_mut() {
                Some(last) if s - last.1 <= gap => {
                    // A run starting where the last one ends continues
                    // it across a kernel cut.
                    if s == last.2 {
                        last.2 = e;
                    }
                    last.1 = e;
                }
                _ => self.pending.push_back((s, e, e)),
            }
        }
        for &(s, e) in &self.runs.below_edge {
            match self.edge_runs.back_mut() {
                Some(last) if last.1 == s => last.1 = e,
                _ => self.edge_runs.push_back((s, e)),
            }
        }
        self.runs.below_threshold.clear();
        self.runs.below_edge.clear();
    }

    /// Drops below-edge runs ending at or before `bound` — no pending or
    /// future dip starts inside them, so refinement never consults them
    /// again — always keeping the last, which may still be growing.
    fn trim_edge_runs(&mut self, bound: usize) {
        while self.edge_runs.len() > 1 && self.edge_runs.front().is_some_and(|r| r.1 <= bound) {
            self.edge_runs.pop_front();
        }
    }

    /// Refines and emits pending dips that can no longer change. Edge
    /// refinement consults the stitched below-edge *run list* (as the
    /// batch path does via `refine_from_runs`), never a normalized
    /// sample history.
    fn process_pending(&mut self, flush: bool) {
        let gap = self.config.merge_gap_samples;
        while let Some(&(start, end, _)) = self.pending.front() {
            // Final once the frontier is far enough past the run's end
            // that no future run can merge into it (a run ending exactly
            // at the frontier may still grow past it).
            if !flush && self.position < end + gap + 1 {
                break;
            }
            // Keeps the searches below O(1) amortized however many dips
            // one slice finalizes.
            self.trim_edge_runs(start);
            let left_bound = self.last_run.map(|(_, e, _)| e).unwrap_or(0);
            let cs = *self
                .edge_runs
                .iter()
                .find(|r| r.1 > start)
                .expect("run start lies in a below-edge run");
            debug_assert!(cs.0 <= start, "run start not below edge");
            let refined_s = cs.0.max(left_bound);
            let right_bound = self.pending.get(1).map(|n| n.0).unwrap_or(self.position);
            let ce = *self
                .edge_runs
                .iter()
                .find(|r| r.1 > end - 1)
                .expect("run end lies in a below-edge run");
            debug_assert!(ce.0 < end, "run end not below edge");
            let refined_e = ce.1.min(right_bound);
            if !flush && !self.front_is_final(end, ce.1, refined_e) {
                break;
            }
            self.pending.pop_front();
            // Sealed iff the run ended on an at-or-above-edge sample —
            // i.e. at its container's settled end, not clipped by a
            // neighbour or the frontier.
            self.tail_sealed = refined_e == ce.1 && ce.1 < self.position;
            self.emit(refined_s, refined_e);
        }
        let bound = self.pending.front().map_or(self.position, |r| r.0);
        self.trim_edge_runs(bound);
    }

    /// Whether the front pending run, ending at `end` inside the
    /// below-edge run ending at `edge_end` and refined to end at
    /// `refined_e`, may be emitted now. Adaptive: once its right edge
    /// stops growing. Static: exactly when a detector fed one sample at
    /// a time would — at the first frontier `p >= end + merge_gap + 2`
    /// whose last sample `p - 1` is at or above threshold and at which
    /// the right edge has stopped growing — so drains do not depend on
    /// how the stream is sliced.
    fn front_is_final(&self, end: usize, edge_end: usize, refined_e: usize) -> bool {
        let next = self.pending.get(1);
        match self.engine {
            Engine::Adaptive(_) => refined_e < self.position || next.is_some(),
            Engine::Static(_) => {
                // Either the next run's first kernel run has closed, which
                // bounds the right edge at a sample above threshold...
                if next.is_some_and(|q| q.2 < self.position) {
                    return true;
                }
                // ...or the edge has settled and a sample above threshold
                // follows it before the next run starts.
                let p = (end + self.config.merge_gap_samples + 2).max(edge_end + 1);
                p <= self.position && next.is_none_or(|q| q.0 >= p)
            }
        }
    }

    /// The duration filter floor, in samples.
    fn min_samples(&self) -> f64 {
        (self.config.min_duration_cycles / self.cycles_per_sample())
            .max(self.config.min_duration_samples as f64)
    }

    /// Confidence of an event spanning `[start, end)`: degraded when it
    /// touches a collapsed dropout gap (`start <= p <= end + 1`, the
    /// `emprof_fault::flag_degraded` criterion) or, in adaptive mode,
    /// when the calibration state machine was degraded in the block the
    /// event *ends* in — the same final-extent rule the batch paths
    /// apply, so in-place merges can recompute it consistently.
    fn event_confidence(&self, start: usize, end: usize) -> Confidence {
        if self.gaps.iter().any(|&p| start <= p && p <= end + 1) {
            return Confidence::Degraded;
        }
        if !self.block_degraded.is_empty() {
            let k = ((end.saturating_sub(1)) / self.calib_block)
                .min(self.block_degraded.len() - 1);
            if self.block_degraded[k] {
                return Confidence::Degraded;
            }
        }
        Confidence::High
    }

    fn make_event(&self, start: usize, end: usize) -> StallEvent {
        let duration_cycles = (end - start) as f64 * self.cycles_per_sample();
        StallEvent {
            start_sample: start,
            end_sample: end,
            duration_cycles,
            kind: if duration_cycles >= self.config.refresh_min_cycles {
                StallKind::RefreshCollision
            } else {
                StallKind::Normal
            },
            confidence: self.event_confidence(start, end),
        }
    }

    /// Admits a refined run. Mirrors the batch detector's ordering
    /// exactly: abutting runs merge first, and the duration filter applies
    /// to the *merged* run — so a sub-threshold run can still grow into
    /// (or extend) an event when a neighbour touches it.
    fn emit(&mut self, start: usize, end: usize) {
        let min_samples = self.min_samples();
        if let Some((run_start, run_end, represented)) = self.last_run {
            if start <= run_end {
                let new_end = run_end.max(end);
                let passes = ((new_end - run_start) as f64) >= min_samples;
                if passes {
                    let ev = self.make_event(run_start, new_end);
                    if represented {
                        let last = self
                            .events
                            .last_mut()
                            .expect("represented run has an event");
                        // Durations only grow on merge, so the only
                        // possible kind change is an upgrade to refresh.
                        let was_refresh = last.kind == StallKind::RefreshCollision;
                        *last = ev;
                        if !was_refresh && ev.kind == StallKind::RefreshCollision {
                            obs::counter_add!("detect.refresh_events", 1);
                        }
                    } else {
                        self.push_event(ev);
                    }
                }
                self.last_run = Some((run_start, new_end, passes));
                return;
            }
        }
        let passes = ((end - start) as f64) >= min_samples;
        if passes {
            let ev = self.make_event(start, end);
            self.push_event(ev);
        }
        self.last_run = Some((start, end, passes));
        // Gap points that no future or still-mutable event can reach
        // back to (every later refined start is >= this run's start) are
        // dead; drop them so the deque stays bounded.
        while self
            .gaps
            .front()
            .is_some_and(|&p| p + 1 < start)
        {
            self.gaps.pop_front();
        }
    }

    fn push_event(&mut self, ev: StallEvent) {
        obs::counter_add!("detect.events", 1);
        if ev.kind == StallKind::RefreshCollision {
            obs::counter_add!("detect.refresh_events", 1);
        }
        self.events.push(ev);
    }

    /// Events finalized since the last drain — the live-monitoring
    /// interface: call periodically and act on completed stalls while the
    /// capture continues.
    ///
    /// Only *immutable* events are released: the most recent event is
    /// withheld while a later dip could still refine back to its end and
    /// merge into it in place (a drained copy must never go stale). That
    /// is exactly while the run behind it ended *clipped* — its right
    /// edge never reached a sample at or above `edge_level` — because
    /// such a sample is what blocks all future left refinement. The held
    /// event is released by the next non-abutting emission or by
    /// [`finish`].
    ///
    /// [`finish`]: StreamingEmprof::finish
    pub fn drain_events(&mut self) -> Vec<StallEvent> {
        let mut out = Vec::new();
        self.drain_events_into(&mut out);
        out
    }

    /// [`drain_events`](StreamingEmprof::drain_events) into a
    /// caller-owned buffer: appends the newly stable events to `out`
    /// (which is *not* cleared) and returns how many were appended. A
    /// long-lived caller can reuse one scratch vector across drains
    /// instead of allocating per batch.
    pub fn drain_events_into(&mut self, out: &mut Vec<StallEvent>) -> usize {
        let mut stable = self.events.len();
        if !self.tail_sealed && matches!(self.last_run, Some((_, _, true))) && stable > 0 {
            stable -= 1;
        }
        let stable = stable.max(self.drained);
        let fresh = stable - self.drained;
        out.extend_from_slice(&self.events[self.drained..stable]);
        self.drained = stable;
        fresh
    }

    /// Number of samples pushed so far.
    pub fn samples_pushed(&self) -> usize {
        self.pushed
    }

    /// Number of non-finite samples rejected at the ingest boundary.
    pub fn samples_rejected(&self) -> usize {
        self.rejected
    }

    /// Current buffered-memory footprint in samples: the raw-sample
    /// buffer, bounded by the normalization window (static: the
    /// `window / 2` samples behind the frontier plus a not-yet-dropped
    /// prefix no longer than them; adaptive: a calibration block plus
    /// half a window).
    pub fn buffered_samples(&self) -> usize {
        self.buf.len()
    }

    /// Progress counters for live monitoring: samples seen, events
    /// finalized, current buffer occupancy, and ingest throughput.
    pub fn stats(&self) -> StreamingStats {
        StreamingStats {
            samples_pushed: self.pushed,
            events_emitted: self.events.len(),
            samples_rejected: self.rejected,
            buffered_samples: self.buffered_samples(),
            samples_per_sec: self.started_at.and_then(|t0| {
                let secs = t0.elapsed().as_secs_f64();
                (secs > 0.0).then(|| self.pushed as f64 / secs)
            }),
        }
    }

    /// Flushes batched telemetry: the `detect.samples` counter plus the
    /// `stream.samples_per_sec` / `stream.buffer_samples` gauges.
    fn flush_obs(&mut self) {
        obs::counter_add!("detect.samples", self.unflushed as u64);
        self.unflushed = 0;
        if !obs::is_enabled() {
            return;
        }
        obs::gauge_set!("stream.buffer_samples", self.buffered_samples() as f64);
        if let Some(sps) = self.stats().samples_per_sec {
            obs::gauge_set!("stream.samples_per_sec", sps);
        }
    }

    /// Finalizes the capture: normalizes the tail (whose windows are
    /// truncated, exactly as in the batch detector), closes any open dip,
    /// flushes pending events, and returns the complete [`Profile`].
    pub fn finish(mut self) -> Profile {
        let _s = obs::span!("stream.finish");
        // The tail positions have truncated (right-clipped) windows,
        // exactly as in the batch detector.
        match &mut self.engine {
            Engine::Static(pass) => {
                pass.finish(&self.buf, self.buf_base, &mut self.runs)
                    .expect("rejection happens at ingest; the buffer is finite");
                self.position = self.pushed;
            }
            Engine::Adaptive(ad) => {
                while self.position < self.pushed {
                    self.position = ad.run_block(
                        &mut self.buf,
                        &mut self.buf_base,
                        self.pushed,
                        &mut self.runs,
                        &mut self.block_degraded,
                    );
                }
            }
        }
        self.stitch();
        self.process_pending(true);
        self.flush_obs();
        if obs::is_enabled() {
            // Widths are only final now (merges may have grown events), so
            // the histogram — unlike the counters — is recorded at the end.
            for e in &self.events {
                obs::histogram_record!(
                    "detect.event_width_samples",
                    (e.end_sample - e.start_sample) as u64
                );
                obs::histogram_record!("detect.stall_latency_cycles", e.duration_cycles as u64);
            }
            // Confidence is also only final now (merges recompute it),
            // so — like the batch paths — degraded events are counted
            // once per profile, at the end.
            let degraded = self
                .events
                .iter()
                .filter(|e| e.confidence == Confidence::Degraded)
                .count();
            obs::counter_add!("detect.confidence.events_degraded", degraded as u64);
        }
        Profile::new(
            self.events,
            self.pushed,
            self.sample_rate_hz,
            self.clock_hz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::Emprof;

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;

    fn config() -> EmprofConfig {
        EmprofConfig::for_rates(FS, CLK)
    }

    fn batch(signal: &[f64]) -> Profile {
        Emprof::new(config()).profile_magnitude(signal, FS, CLK)
    }

    fn stream(signal: &[f64]) -> Profile {
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        s.extend(signal.iter().copied());
        s.finish()
    }

    fn dipped_signal(dips: &[(usize, usize)], len: usize) -> Vec<f64> {
        let mut v = vec![5.0; len];
        for &(start, width) in dips {
            for x in v.iter_mut().skip(start).take(width) {
                *x = 0.8;
            }
        }
        v
    }

    #[test]
    fn matches_batch_on_clean_dips() {
        let signal = dipped_signal(&[(5_000, 12), (9_000, 30), (15_000, 8)], 30_000);
        assert_eq!(stream(&signal).events(), batch(&signal).events());
    }

    #[test]
    fn matches_batch_with_merge_gaps() {
        // Dips separated by 1-2 samples must merge identically.
        let mut signal = dipped_signal(&[(5_000, 10)], 30_000);
        signal[5_011] = 0.8; // gap of 1 busy sample then more dip
        for v in signal.iter_mut().skip(5_012).take(8) {
            *v = 0.8;
        }
        assert_eq!(stream(&signal).events(), batch(&signal).events());
    }

    #[test]
    fn matches_batch_on_noisy_signal() {
        // Deterministic pseudo-noise plus dips.
        let mut signal: Vec<f64> = (0..60_000)
            .map(|i| 5.0 + ((i * 2654435761usize) % 1000) as f64 / 2000.0)
            .collect();
        for &start in &[10_000usize, 20_000, 30_000, 40_000] {
            for v in signal.iter_mut().skip(start).take(14) {
                *v = 0.7 + ((start * 31) % 100) as f64 / 1000.0;
            }
        }
        let s = stream(&signal);
        let b = batch(&signal);
        assert_eq!(s.events(), b.events());
    }

    #[test]
    fn matches_batch_with_gain_drift() {
        let mut signal: Vec<f64> = (0..80_000)
            .map(|i| 5.0 * (1.0 + 0.1 * (i as f64 * 2e-4).sin()))
            .collect();
        for k in 0..20usize {
            let start = 3_000 + k * 3_700;
            for v in signal.iter_mut().skip(start).take(12) {
                *v *= 0.15;
            }
        }
        assert_eq!(stream(&signal).events(), batch(&signal).events());
    }

    #[test]
    fn matches_batch_on_dip_at_capture_end() {
        let mut signal = dipped_signal(&[(5_000, 12)], 20_000);
        for v in signal.iter_mut().skip(19_990) {
            *v = 0.8;
        }
        assert_eq!(stream(&signal).events(), batch(&signal).events());
    }

    #[test]
    fn matches_batch_on_refresh_length_dips() {
        let signal = dipped_signal(&[(5_000, 100), (20_000, 12)], 40_000);
        let s = stream(&signal);
        let b = batch(&signal);
        assert_eq!(s.events(), b.events());
        assert_eq!(s.refresh_count(), 1);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        let window = config().norm_window_samples;
        for i in 0..500_000usize {
            let v = if i % 5_000 < 12 { 0.8 } else { 5.0 };
            s.push(v);
            assert!(
                s.buffered_samples() <= 2 * window + 64,
                "buffer grew to {} at sample {i}",
                s.buffered_samples()
            );
        }
        let profile = s.finish();
        assert!(profile.miss_count() > 90);
    }

    #[test]
    fn one_big_slice_leaves_short_run_lists() {
        // A whole capture in one slice finalizes thousands of dips in one
        // call; the below-edge list must shrink as they finalize, or every
        // refinement rescans all the runs before it.
        let signal: Vec<f64> = (0..200_000)
            .map(|i| if i % 97 < 12 { 0.8 } else { 5.0 })
            .collect();
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        s.extend_from_slice(&signal);
        assert!(s.events.len() > 2_000);
        assert!(
            s.edge_runs.len() <= 2 && s.pending.len() <= 2,
            "{} below-edge and {} pending runs retained",
            s.edge_runs.len(),
            s.pending.len()
        );
    }

    #[test]
    fn drain_delivers_events_incrementally() {
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        let signal = dipped_signal(&[(5_000, 12), (40_000, 12)], 60_000);
        let mut seen = 0;
        let mut first_seen_at = None;
        for (i, &v) in signal.iter().enumerate() {
            s.push(v);
            let drained = s.drain_events();
            if !drained.is_empty() && first_seen_at.is_none() {
                first_seen_at = Some(i);
            }
            seen += drained.len();
        }
        // The first dip must be delivered long before the capture ends.
        let at = first_seen_at.expect("an event was streamed");
        assert!(at < 20_000, "first event only delivered at sample {at}");
        let profile = s.finish();
        assert_eq!(seen + profile.events().len() - seen, 2);
    }

    #[test]
    fn drained_events_never_go_stale() {
        // Two dips bridged by a shelf that sits above `threshold` (so the
        // raw dips do not merge) but below `edge_level` (so refinement of
        // the second dip reaches back and merges the *emitted* first
        // event in place). A drain between the two emits must withhold
        // the first event until it can no longer change; otherwise the
        // incremental view diverges from the batch profile.
        let mut signal = dipped_signal(&[(5_000, 8)], 30_000);
        for v in signal.iter_mut().skip(5_008).take(6) {
            *v = 2.1; // normalizes to ~0.42: above threshold, below edge
        }
        for v in signal.iter_mut().skip(5_014).take(8) {
            *v = 0.8; // the second dip
        }
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        let mut drained = Vec::new();
        for &v in &signal {
            s.push(v);
            drained.extend(s.drain_events());
        }
        let profile = s.finish();
        drained.extend_from_slice(&profile.events()[drained.len()..]);
        let b = batch(&signal);
        assert_eq!(drained, b.events());
        assert_eq!(profile.events(), b.events());
        // The merge really happened: one event spanning both dips.
        assert_eq!(b.events().len(), 1);
        assert!(b.events()[0].end_sample - b.events()[0].start_sample >= 20);
    }

    #[test]
    fn incremental_drain_matches_batch_on_noisy_signal() {
        // The same noisy signal as `matches_batch_on_noisy_signal`, but
        // consumed through per-push drains (the serve ingest pattern).
        let mut signal: Vec<f64> = (0..60_000)
            .map(|i| 5.0 + ((i * 2654435761usize) % 1000) as f64 / 2000.0)
            .collect();
        for &start in &[10_000usize, 20_000, 30_000, 40_000] {
            for v in signal.iter_mut().skip(start).take(14) {
                *v = 0.7 + ((start * 31) % 100) as f64 / 1000.0;
            }
        }
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        let mut drained = Vec::new();
        for chunk in signal.chunks(777) {
            s.extend(chunk.iter().copied());
            drained.extend(s.drain_events());
        }
        let profile = s.finish();
        drained.extend_from_slice(&profile.events()[drained.len()..]);
        assert_eq!(drained, batch(&signal).events());
    }

    #[test]
    fn empty_stream_is_empty_profile() {
        let s = StreamingEmprof::new(config(), FS, CLK);
        let profile = s.finish();
        assert_eq!(profile.events().len(), 0);
        assert_eq!(profile.total_samples(), 0);
    }

    #[test]
    fn flat_stream_has_no_events() {
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        s.extend(std::iter::repeat_n(3.3, 50_000));
        assert_eq!(s.finish().events().len(), 0);
    }

    #[test]
    fn non_finite_pushes_are_rejected_and_counted() {
        let clean = dipped_signal(&[(5_000, 12), (9_120, 30)], 30_000);
        let mut dirty = Vec::with_capacity(clean.len() + 64);
        let mut injected = 0usize;
        for (i, &v) in clean.iter().enumerate() {
            if i % 761 == 0 {
                dirty.push([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3]);
                injected += 1;
            }
            dirty.push(v);
        }
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        s.extend(dirty.iter().copied());
        assert_eq!(s.samples_rejected(), injected);
        assert_eq!(s.stats().samples_rejected, injected);
        assert_eq!(s.samples_pushed(), clean.len());
        let profile = s.finish();
        // Identical to batch on the same dirty input — including the
        // degraded-confidence marks on events straddling a collapsed
        // gap (the second dip [9_120, 9_150) spans survivor position
        // 9_132 = 761 * 12, where an injected sample was dropped).
        let b = Emprof::new(config()).profile_magnitude(&dirty, FS, CLK);
        assert_eq!(profile.events(), b.events());
        assert!(profile.degraded_count() >= 1, "gap-touching event not degraded");
        // Apart from confidence, events match the clean signal's.
        let bc = batch(&clean);
        assert_eq!(profile.events().len(), bc.events().len());
        for (d, c) in profile.events().iter().zip(bc.events()) {
            assert_eq!(
                (d.start_sample, d.end_sample, d.kind),
                (c.start_sample, c.end_sample, c.kind)
            );
        }
        assert_eq!(profile.total_samples(), clean.len());
    }

    fn adaptive_config() -> EmprofConfig {
        let mut c = config();
        c.calib = crate::calib::CalibConfig::adaptive();
        c
    }

    /// A drifting, noisy capture that exercises threshold adaptation,
    /// window shrink, and the contrast gate.
    fn drifting_signal(len: usize) -> Vec<f64> {
        let mut s: Vec<f64> = (0..len)
            .map(|i| {
                let atten = 1.0 - 0.85 * (i as f64 / len as f64);
                let noise = ((i * 2_654_435_761usize) % 1000) as f64 / 1000.0 * 0.08;
                5.0 * atten + noise
            })
            .collect();
        let mut k = 0usize;
        while 3_000 + k * 5_500 + 14 < len {
            let start = 3_000 + k * 5_500;
            for v in s.iter_mut().skip(start).take(14) {
                *v *= 0.12;
            }
            k += 1;
        }
        s
    }

    #[test]
    fn adaptive_streaming_matches_adaptive_batch() {
        let signal = drifting_signal(90_000);
        let b = Emprof::new(adaptive_config()).profile_magnitude(&signal, FS, CLK);
        let mut s = StreamingEmprof::new(adaptive_config(), FS, CLK);
        s.extend(signal.iter().copied());
        assert_eq!(s.finish(), b);
    }

    #[test]
    fn adaptive_streaming_incremental_drain_matches_batch() {
        let signal = drifting_signal(90_000);
        let b = Emprof::new(adaptive_config()).profile_magnitude(&signal, FS, CLK);
        let mut s = StreamingEmprof::new(adaptive_config(), FS, CLK);
        let mut drained = Vec::new();
        for chunk in signal.chunks(997) {
            s.extend(chunk.iter().copied());
            drained.extend(s.drain_events());
        }
        let profile = s.finish();
        drained.extend_from_slice(&profile.events()[drained.len()..]);
        assert_eq!(drained, b.events());
        assert_eq!(profile.events(), b.events());
    }

    #[test]
    fn adaptive_memory_stays_bounded() {
        let mut s = StreamingEmprof::new(adaptive_config(), FS, CLK);
        let window = config().norm_window_samples;
        for i in 0..200_000usize {
            let v = if i % 5_000 < 12 { 0.8 } else { 5.0 };
            s.push(v);
            assert!(
                s.buffered_samples() <= 2 * window + 64,
                "buffer grew to {} at sample {i}",
                s.buffered_samples()
            );
        }
        let profile = s.finish();
        assert!(profile.miss_count() > 30);
    }
}
