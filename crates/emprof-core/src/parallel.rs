//! Multi-core dip detection with overlap-merge equivalence.
//!
//! [`Emprof::profile_magnitude_par`] splits the capture into per-worker
//! chunks, runs the fused normalize-and-detect kernel per chunk on a
//! scoped worker pool, and stitches the per-chunk results back into
//! exactly the event stream the batch detector produces. The equivalence
//! argument (DESIGN.md §8) has three legs:
//!
//! 1. **Normalization** — each chunk runs
//!    [`fused::detect_runs_range`], whose moving extremes read their
//!    context from the full signal. Every chunk sample is
//!    therefore normalized to the bit-identical value the batch kernel
//!    produces; the overlap margin (`norm_window / 2` on each side) is
//!    implicit in the shared full-signal slice. The normalized values
//!    themselves are never materialized — only their below-level runs
//!    leave the kernel.
//! 2. **Below-level runs** — runs found per chunk over disjoint core
//!    ranges concatenate to the batch run lists, except that a run
//!    straddling a seam arrives split into abutting pieces. For
//!    below-threshold runs the batch gap-merge criterion
//!    (`gap <= merge_gap_samples`) always rejoins a gap-0 split, and
//!    left-to-right greedy merging is invariant under splitting of
//!    abutting runs, so the merged run list is identical; each seam
//!    rejoin is counted in the `par.merge_fixups` gauge. Below-edge runs
//!    within a chunk can never abut (a run only ends on an above-edge
//!    sample or the chunk boundary), so gap-0 stitching rejoins exactly
//!    the seam-split runs and reconstructs the batch below-edge list.
//! 3. **Edge refinement and classification** — both run on the stitched
//!    run lists through literally the same code as the batch path
//!    ([`crate::detect::refine_from_runs`]).
//!
//! Net: for any thread count and any input, the parallel profile is
//! event-for-event (in fact bit-for-bit) identical to
//! [`Emprof::profile_magnitude`].

use emprof_obs as obs;
use emprof_par::chunk::ChunkPlan;
use emprof_par::{pool, Parallelism};
use emprof_signal::fused::{self, LevelRuns};

use crate::detect::{record_event_metrics, refine_from_runs, sanitize_magnitude, Emprof};
use crate::profile::Profile;

impl Emprof {
    /// Parallel [`profile_magnitude`](Emprof::profile_magnitude): same
    /// arguments, same result, fanned out over `par` workers.
    ///
    /// With a sequential [`Parallelism`] this *is* the batch detector
    /// (same code path), which is what `--threads 1` relies on. Otherwise
    /// the capture is chunked per worker and the results are stitched as
    /// described in the module docs; the output `Profile` is identical to
    /// the batch detector's for any thread count.
    ///
    /// Emits the same `detect.samples` / `detect.events` /
    /// `detect.refresh_events` counters, `detect.event_width_samples`
    /// histogram and `detect.fused` / `detect.merge` / `detect.refine`
    /// stage spans as the batch path, plus `par.profile` / `par.stitch`
    /// spans and `par.chunks`, `par.threads` and `par.merge_fixups`
    /// gauges describing the chunking itself.
    pub fn profile_magnitude_par(
        &self,
        magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
        par: Parallelism,
    ) -> Profile {
        if self.config().calib.enabled {
            // Adaptive detection runs its own block-parallel fan-out and
            // is schedule-identical across all entry points.
            return self.profile_adaptive(magnitude, sample_rate_hz, clock_hz, par);
        }
        let n = magnitude.len();
        if par.is_sequential() || n < 2 {
            // The batch path folds the finite check into the fused kernel;
            // handing off keeps the clean-path sequential case at exactly
            // one read of the signal.
            return self.profile_magnitude(magnitude, sample_rate_hz, clock_hz);
        }
        let _span = obs::span!("par.profile");
        // The chunk passes read every sample between them and check each
        // one finite, so a clean signal is read once. A dirty one takes
        // the batch path's policy: drop the non-finite samples and rerun
        // on the survivors, so every worker sees the same signal.
        if let Ok(parts) = self.chunk_runs(magnitude, par) {
            return self.stitch_profile(parts, n, &[], sample_rate_hz, clock_hz);
        }
        let (kept, rejected, gaps) = sanitize_magnitude(magnitude);
        obs::counter_add!("detect.samples_rejected", rejected as u64);
        if kept.len() < 2 {
            return self.profile_magnitude(&kept, sample_rate_hz, clock_hz);
        }
        let parts = self
            .chunk_runs(&kept, par)
            .expect("survivors are finite by construction");
        self.stitch_profile(parts, kept.len(), &gaps, sample_rate_hz, clock_hz)
    }

    /// Per chunk: one fused pass over the core range against full-signal
    /// context, emitting below-threshold and below-edge runs directly in
    /// global coordinates. `Err` if any chunk reads a non-finite sample.
    fn chunk_runs(&self, magnitude: &[f64], par: Parallelism) -> Result<Vec<LevelRuns>, usize> {
        let cfg = self.config();
        let plan = ChunkPlan::new(magnitude.len(), par.get(), cfg.norm_window_samples / 2);
        obs::gauge_set!("par.chunks", plan.count() as f64);
        obs::gauge_set!("par.threads", par.get().min(plan.count()) as f64);
        // The batch stage names, recorded on the calling thread around the
        // whole fan-out, so a run's spans do not depend on its thread count.
        let _s = obs::span!("detect.fused");
        pool::parallel_map(par, plan.chunks(), |c| {
            fused::detect_runs_range(
                magnitude,
                cfg.norm_window_samples,
                cfg.threshold,
                cfg.edge_level,
                c.start,
                c.end,
                None,
            )
        })
        .into_iter()
        .collect()
    }

    /// Stitches per-chunk runs over an `n`-sample finite signal into the
    /// batch profile; `gaps` are the positions where non-finite samples
    /// were dropped.
    fn stitch_profile(
        &self,
        parts: Vec<LevelRuns>,
        n: usize,
        gaps: &[usize],
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> Profile {
        let cfg = self.config();
        let _stitch = obs::span!("par.stitch");
        let mut raw: Vec<(usize, usize)> = Vec::new();
        let mut below_edge: Vec<(usize, usize)> = Vec::new();
        for part in parts {
            raw.extend(part.below_threshold);
            // Below-edge runs split at a seam abut with gap 0; runs from
            // the same chunk never abut, so this rejoins exactly the
            // seam splits and reconstructs the batch below-edge list.
            for run in part.below_edge {
                match below_edge.last_mut() {
                    Some(last) if last.1 == run.0 => last.1 = run.1,
                    _ => below_edge.push(run),
                }
            }
        }

        // The batch merge criterion, with seam-rejoin accounting. Within a
        // chunk, threshold runs are never abutting (a run only ends on an
        // above-threshold sample), so a gap of exactly 0 can only be a run
        // split at a chunk seam.
        let merged = {
            let _s = obs::span!("detect.merge");
            let mut merged: Vec<(usize, usize)> = Vec::with_capacity(raw.len());
            let mut fixups = 0u64;
            for run in raw {
                match merged.last_mut() {
                    Some(last) if run.0 - last.1 <= cfg.merge_gap_samples => {
                        if run.0 == last.1 {
                            fixups += 1;
                        }
                        last.1 = run.1;
                    }
                    _ => merged.push(run),
                }
            }
            obs::gauge_set!("par.merge_fixups", fixups as f64);
            merged
        };

        let dips = {
            let _s = obs::span!("detect.refine");
            refine_from_runs(merged, &below_edge, n)
        };
        let mut events = self.events_from_dips(dips, clock_hz / sample_rate_hz);
        crate::calib::mark_gap_degraded(&mut events, gaps);
        obs::counter_add!("detect.samples", n as u64);
        record_event_metrics(&events);
        Profile::new(events, n, sample_rate_hz, clock_hz)
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
    fn parallel_profile_matches_batch_bit_for_bit() {
        let mag = signal(
            60_000,
            &[(5_000, 12), (9_000, 8), (9_030, 8), (20_000, 100), (55_000, 40)],
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
