//! The detector engine: every batch entry point — sequential or
//! parallel, static or adaptive — is one block fan-out (DESIGN.md §8).
//!
//! A call builds a **schedule**: output ranges tiling the signal, each
//! with the [`BlockParams`] in force over it. A static configuration is
//! the constant schedule of the base parameters over the thread count's
//! chunks (one range when sequential); an adaptive one is the causal
//! calibration schedule, one range per calibration block. The gated
//! fused kernel runs once per range, fanned out over the worker pool,
//! and a [`Stitcher`] joins the per-range runs in order. The streaming
//! detector runs the same schedule as one kernel pass restarted at each
//! range's end, and stitches its cuts with the same [`Stitcher`]; the
//! back half — refinement ([`Stitcher::refine`]), the duration filter,
//! classification, confidence and telemetry — is shared with it.
//!
//! Why the fan-out equals one pass:
//!
//! 1. **Normalization** — each range's kernel reads its window context
//!    from the full signal, so every sample is normalized to the same
//!    bits as in a single pass over it. With `min_range == 0` the gated
//!    kernel is bit-identical to [`fused::detect_runs`].
//! 2. **Below-level runs** — runs found over disjoint ranges
//!    concatenate to the single-pass run lists, except that a run
//!    straddling a seam arrives split into abutting pieces. The batch
//!    gap-merge criterion (`gap <= merge_gap_samples`) always rejoins a
//!    gap-0 split, and left-to-right greedy merging is invariant under
//!    splitting abutting runs, so the merged list is identical. Below-edge
//!    runs within one range never abut (a run ends only on a sample at
//!    or above its level, or at the range end), so the gap-0 rejoin
//!    rebuilds exactly the single-pass list.
//! 3. **Everything after the stitch** sees identical run lists, so it
//!    produces identical events.
//!
//! Net: for any thread count and any input, the parallel profile is
//! bit-for-bit the sequential one. The adaptive schedule is computed,
//! in order, before any fan-out, so it does not depend on the thread
//! count either.

use std::collections::VecDeque;

use emprof_obs as obs;
use emprof_par::chunk::ChunkPlan;
use emprof_par::{pool, Parallelism};
use emprof_signal::fused::{self, LevelRuns};

use crate::calib::{Block, BlockParams, Calibrator, DegradedBlocks};
use crate::config::EmprofConfig;
use crate::detect::{
    check_then_sanitize, classify, min_event_samples, record_event_metrics, Emprof,
};
use crate::profile::{Confidence, Profile, StallEvent};

impl Emprof {
    /// Parallel [`profile_magnitude`](Emprof::profile_magnitude): same
    /// arguments, same result, fanned out over `par` workers.
    ///
    /// The schedule (see the module docs) is fanned out over the worker
    /// pool, or run inline when `par` is sequential or the schedule has
    /// one range; the output `Profile` is identical for any thread
    /// count.
    ///
    /// Emits the `detect.samples` / `detect.events` /
    /// `detect.refresh_events` counters, the `detect.event_width_samples`
    /// histogram and the `detect.profile` / `detect.fused` /
    /// `detect.merge` / `detect.refine` stage spans on every call (the
    /// adaptive schedule pass adds `detect.adaptive`). A call that fans
    /// out also sets the `par.chunks`, `par.threads` and
    /// `par.merge_fixups` gauges describing the fan-out itself.
    pub fn profile_magnitude_par(
        &self,
        magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
        par: Parallelism,
    ) -> Profile {
        let _span = obs::span!("detect.profile");
        let cfg = self.config();
        let mut calibration = cfg
            .calib
            .enabled
            .then(|| (Calibrator::new(&cfg), Vec::new()));
        let mut blocks = Vec::new();
        let (stitcher, rejected, gaps) = check_then_sanitize(magnitude, |signal| {
            blocks = schedule(&cfg, calibration.as_mut(), signal, par)?;
            run_blocks(&cfg, signal, &blocks, par)
        });
        if rejected > 0 {
            obs::counter_add!("detect.samples_rejected", rejected as u64);
        }
        if !par.is_sequential() && blocks.len() > 1 {
            obs::gauge_set!("par.chunks", blocks.len() as f64);
            obs::gauge_set!("par.merge_fixups", stitcher.seam_fixups as f64);
        }

        let n = magnitude.len() - rejected;
        let mut events = {
            let _s = obs::span!("detect.refine");
            stitcher.into_events(&cfg, n, clock_hz / sample_rate_hz)
        };
        let mut marks = DegradedBlocks::new(cfg.calib.block(cfg.norm_window_samples));
        for params in calibration.iter().flat_map(|(_, schedule)| schedule) {
            marks.push(params.degraded);
        }
        marks.mark(&mut events, &gaps);
        obs::counter_add!("detect.samples", n as u64);
        record_event_metrics(&events, true);
        Profile::new(events, n, sample_rate_hz, clock_hz)
    }
}

/// The schedule over `signal`. Static (`calibration` is `None`): the
/// base parameters over `par`'s chunk plan, reading nothing. Adaptive:
/// the calibration schedule, extended over the whole signal — which
/// reads every sample, so `Err(i)` reports the first non-finite one
/// before any kernel runs.
fn schedule(
    cfg: &EmprofConfig,
    calibration: Option<&mut (Calibrator, Vec<BlockParams>)>,
    signal: &[f64],
    par: Parallelism,
) -> Result<Vec<Block>, usize> {
    let n = signal.len();
    let Some((cal, params)) = calibration else {
        let base = BlockParams::base(cfg);
        // The kernel reads its window context from the full signal, so
        // the chunks need no overlap margin.
        let plan = ChunkPlan::new(n, par.get(), 0);
        return Ok(plan
            .chunks()
            .iter()
            .map(|c| (c.start..c.end, base))
            .collect());
    };
    let _s = obs::span!("detect.adaptive");
    cal.extend_schedule(params, signal)?;
    let block = cfg.calib.block(cfg.norm_window_samples);
    Ok(params
        .iter()
        .enumerate()
        .map(|(k, &p)| (k * block..((k + 1) * block).min(n), p))
        .collect())
}

/// Runs the gated kernel over every block — fanned out over `par`, or
/// inline when sequential or a single block — and stitches the runs in
/// block order. `Err(i)` if a block reads a non-finite `signal[i]`.
fn run_blocks(
    cfg: &EmprofConfig,
    signal: &[f64],
    blocks: &[Block],
    par: Parallelism,
) -> Result<Stitcher, usize> {
    let parts = {
        let _s = obs::span!("detect.fused");
        pool::parallel_map(par, blocks, |(range, p)| {
            fused::detect_runs_range_gated(
                signal,
                p.window,
                p.threshold,
                p.edge_level,
                p.min_range,
                range.start,
                range.end,
                None,
            )
        })
    };
    let _s = obs::span!("detect.merge");
    let mut stitcher = Stitcher::new(cfg.merge_gap_samples);
    let count = |runs: fn(&LevelRuns) -> usize| parts.iter().flatten().map(runs).sum();
    stitcher.dips.reserve(count(|r| r.below_threshold.len()));
    stitcher.edges.reserve(count(|r| r.below_edge.len()));
    for part in parts {
        stitcher.push(&mut part?);
    }
    Ok(stitcher)
}

/// Joins the below-level runs of successive kernel ranges — batch blocks
/// or streaming cuts, in order — into the single-pass run lists: the
/// batch gap-merge for below-threshold runs, a gap-0 rejoin for
/// below-edge runs. Within one range below-level runs never abut, so a
/// gap-0 pair is always a run a seam split.
#[derive(Debug, Clone)]
pub(crate) struct Stitcher {
    merge_gap: usize,
    /// Merged below-threshold runs as `(start, end, first_end)`:
    /// `first_end` is where the first kernel run merged into it ends,
    /// the first sample after `start` at or above threshold.
    pub(crate) dips: VecDeque<(usize, usize, usize)>,
    /// Below-edge runs, seam splits rejoined.
    pub(crate) edges: VecDeque<(usize, usize)>,
    /// Below-threshold runs rejoined at a seam (gap 0).
    pub(crate) seam_fixups: u64,
}

impl Stitcher {
    /// An empty stitcher merging below-threshold runs across gaps of at
    /// most `merge_gap` samples.
    pub(crate) fn new(merge_gap: usize) -> Self {
        Stitcher {
            merge_gap,
            dips: VecDeque::new(),
            edges: VecDeque::new(),
            seam_fixups: 0,
        }
    }

    /// Moves the next range's runs onto the stitched lists, leaving
    /// `runs` empty with its capacity kept.
    pub(crate) fn push(&mut self, runs: &mut LevelRuns) {
        for (s, e) in runs.below_threshold.drain(..) {
            match self.dips.back_mut() {
                Some(last) if s - last.1 <= self.merge_gap => {
                    if s == last.1 {
                        self.seam_fixups += 1;
                    }
                    // A run starting where the first run ends continues
                    // it across a seam.
                    if s == last.2 {
                        last.2 = e;
                    }
                    last.1 = e;
                }
                _ => self.dips.push_back((s, e, e)),
            }
        }
        for (s, e) in runs.below_edge.drain(..) {
            match self.edges.back_mut() {
                Some(last) if last.1 == s => last.1 = e,
                _ => self.edges.push_back((s, e)),
            }
        }
    }

    /// Refines the merged run `[s, e)` to its `edge_level` crossings, as
    /// `(start, end, edge_end)`: `start` is the start of the below-edge
    /// run holding `s`, clipped left at `left_bound`; `edge_end` is the
    /// end of the below-edge run holding `e - 1`, and `end` is it clipped
    /// right at `right_bound`. `cursor` indexes `edges` at or before the
    /// run holding `s` and is left at the one holding `e - 1`, so a walk
    /// over sorted runs only ever advances it.
    pub(crate) fn refine(
        &self,
        cursor: &mut usize,
        (s, e): (usize, usize),
        left_bound: usize,
        right_bound: usize,
    ) -> (usize, usize, usize) {
        let edges = &self.edges;
        while edges[*cursor].1 <= s {
            *cursor += 1;
        }
        debug_assert!(edges[*cursor].0 <= s, "run start not below edge");
        let start = edges[*cursor].0.max(left_bound);
        while edges[*cursor].1 < e {
            *cursor += 1;
        }
        debug_assert!(edges[*cursor].0 < e, "run end not below edge");
        let edge_end = edges[*cursor].1;
        (start, edge_end.min(right_bound), edge_end)
    }

    /// The batch back half in one walk over the stitched runs of a
    /// `total`-sample signal: [refines](Stitcher::refine) each merged
    /// run, abut-merges it into the pending run, and duration-filters and
    /// classifies each finished run at `cps` cycles per sample into
    /// high-confidence events.
    ///
    /// Why this equals refining a materialized normalized signal: a
    /// merged run's start `s` is below threshold, and configuration
    /// validation guarantees `threshold <= edge_level`, so `s` lies
    /// inside some below-edge run `(bs, be)`. Walking `s` left while the
    /// previous sample is below edge and `s` stays past the previous
    /// refined run's end stops at exactly `max(bs, left_bound)`.
    /// Symmetrically the run's last sample `e - 1` lies in a below-edge
    /// run `(bs', be')`, and the right walk, clipped by the next merged
    /// run's start, stops at `min(be', right_bound)`. Interior samples of
    /// a merged run, above-edge samples in a bridged gap included, are
    /// never consulted. The duration filter runs on the abut-merged run,
    /// so a run too short alone can still extend or seed an event.
    pub(crate) fn into_events(
        self,
        config: &EmprofConfig,
        total: usize,
        cps: f64,
    ) -> Vec<StallEvent> {
        let min_samples = min_event_samples(config, cps);
        let mut events = Vec::with_capacity(self.dips.len());
        let mut emit = |(s, e): (usize, usize)| {
            if (e - s) as f64 >= min_samples {
                events.push(classify(config, s, e, cps, Confidence::High));
            }
        };
        // Merged runs are sorted, so the containing below-edge runs only
        // ever advance.
        let (mut cursor, mut left_bound) = (0, 0);
        let mut pending: Option<(usize, usize)> = None;
        let mut dips = self.dips.iter().peekable();
        while let Some(&(s, e, _)) = dips.next() {
            let right_bound = dips.peek().map_or(total, |next| next.0);
            let (start, end, _) = self.refine(&mut cursor, (s, e), left_bound, right_bound);
            left_bound = end;
            if let Some(last) = pending.as_mut().filter(|last| start <= last.1) {
                last.1 = last.1.max(end);
            } else if let Some(done) = pending.replace((start, end)) {
                emit(done);
            }
        }
        if let Some(done) = pending {
            emit(done);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmprofConfig;

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;

    fn emprof() -> Emprof {
        Emprof::new(EmprofConfig::for_rates(FS, CLK))
    }

    /// Busy signal with ±10% drift and dips of the given (start, width).
    fn signal(len: usize, dips: &[(usize, usize)]) -> Vec<f64> {
        let mut s: Vec<f64> = (0..len)
            .map(|i| 5.0 * (1.0 + 0.1 * (i as f64 * 7e-5).sin()))
            .collect();
        for &(start, width) in dips {
            for v in s.iter_mut().skip(start).take(width) {
                *v *= 0.15;
            }
        }
        s
    }

    #[test]
    fn refine_widens_to_the_edge_runs_within_the_bounds() {
        let mut stitcher = Stitcher::new(2);
        stitcher.push(&mut LevelRuns {
            below_threshold: vec![(12, 15), (20, 25)],
            below_edge: vec![(3, 6), (10, 30)],
        });
        // Both runs lie in the below-edge run (10, 30): the first is
        // clipped right at the second's start, the second left at the
        // first's refined end.
        let mut cursor = 0;
        assert_eq!(stitcher.refine(&mut cursor, (12, 15), 0, 20), (10, 20, 30));
        assert_eq!(cursor, 1);
        assert_eq!(stitcher.refine(&mut cursor, (20, 25), 20, 40), (20, 30, 30));
        // Bounds outside the below-edge run leave it whole.
        assert_eq!(stitcher.refine(&mut 0, (12, 15), 4, 31), (10, 30, 30));
    }

    #[test]
    fn parallel_profile_matches_batch_bit_for_bit() {
        let mag = signal(
            60_000,
            &[
                (5_000, 12),
                (9_000, 8),
                (9_030, 8),
                (20_000, 100),
                (55_000, 40),
            ],
        );
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        for threads in [2, 3, 5, 8] {
            let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(threads));
            assert_eq!(batch, par, "threads {threads}");
        }
    }

    #[test]
    fn dip_straddling_a_seam_is_rejoined() {
        // With 2 threads over 40_000 samples the seam is at 20_000; plant
        // a dip right across it (flat busy level so it is the only event).
        let mut mag = vec![5.0; 40_000];
        for v in mag.iter_mut().skip(19_990).take(20) {
            *v = 0.8;
        }
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        assert_eq!(batch.events().len(), 1);
        let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(2));
        assert_eq!(batch, par, "seam-straddling dip must not split");
    }

    #[test]
    fn sequential_parallelism_is_the_batch_path() {
        let mag = signal(30_000, &[(12_000, 12)]);
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::sequential());
        assert_eq!(batch, par);
    }

    #[test]
    fn degenerate_inputs_match() {
        let e = emprof();
        for mag in [vec![], vec![5.0], vec![0.1; 3]] {
            let batch = e.profile_magnitude(&mag, FS, CLK);
            let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(4));
            assert_eq!(batch, par, "len {}", mag.len());
        }
    }

    #[test]
    fn non_finite_input_matches_batch() {
        let mut mag = signal(40_000, &[(9_000, 12), (25_000, 30)]);
        for i in (0..mag.len()).step_by(1_371) {
            mag[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3];
        }
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        for threads in [2, 5] {
            let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(threads));
            assert_eq!(batch, par, "threads {threads}");
        }
    }

    #[test]
    fn many_more_threads_than_structure_still_match() {
        // Chunks much smaller than the normalization window: every chunk's
        // extrema context crosses multiple seams.
        let mag = signal(4_096, &[(1_000, 12), (2_040, 30), (3_900, 60)]);
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(16));
        assert_eq!(batch, par);
    }
}
